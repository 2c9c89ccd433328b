//! The epoch-based rejoin handshake of crash-amnesia recovery.
//!
//! An amnesia crash (power failure) loses a node's entire volatile state:
//! memory image, object directory, DSM token/ownership caches, scion/stub
//! tables, cleaner epochs, retry timers. What survives is the RVM store —
//! the last post-BGC checkpoint of each bunch — and the *peers'* knowledge:
//! who holds replicas, who registered entering ownerPtrs, and the highest
//! reachability epoch each peer applied from the crashed node.
//!
//! On restart the node runs a three-stage pipeline
//! (`Cluster::begin_recovery` drives it):
//!
//! 1. **RVM replay** — [`crate::persist::recover_bunch_live`] rebuilds the
//!    checkpointed bunch replicas (losing at most uncommitted transactions;
//!    a torn log tail is detected and cut by the redo-log scan).
//! 2. **Rejoin handshake** — the messages in this module. The recovering
//!    node broadcasts [`RejoinMsg::Request`] naming what it recovered; each
//!    surviving peer purges protocol state that waits on the crashed node,
//!    then answers with [`RejoinMsg::Reply`]: its view of the recovered
//!    objects, the *orphans* (its replicas whose ownerPtr names the crashed
//!    node but which the node did not recover), its cleaner-epoch floor for
//!    the crashed node's bunches, and a fresh reachability report of every
//!    bunch it maps. Ownership is reconciled without ever moving a token a
//!    surviving node holds — the Section-5 acquire invariants are untouched
//!    because the recovering node only ever *demotes* itself (replica where
//!    a survivor owns) or claims objects nobody else owns. "Nobody reports
//!    ownership" is not yet "nobody owns": a write grant between two
//!    survivors may be in flight while both answer, the old owner already
//!    demoted and the new one still waiting. Each peer therefore reports
//!    its place in the object's ownership history
//!    ([`ObjView::handoffs`]); the peer with the highest count made the
//!    last handoff any survivor knows of, and its grantee — this node, and
//!    ownership died with it, or a survivor the grant is on its way to —
//!    decides between claiming and waiting as a plain replica.
//! 3. **Scion/stub regeneration** — the piggy-backed reports are applied
//!    through the ordinary idempotent cleaner
//!    ([`bmx_gc::cleaner::process_report`]), which recreates every scion
//!    whose site is the recovered node. No recovery-special cleaning logic
//!    exists: correctness rests exactly on the paper's Section-6 design.
//!
//! The *epoch rules*: the node's per-bunch collection epochs resume at the
//! maximum any surviving peer had applied ([`RejoinMsg::Reply::epochs`]),
//! so every post-restart report is strictly newer than anything the crashed
//! incarnation published — the cleaner's `>=` staleness gate then guarantees
//! no pre-crash table is ever mistaken for a fresh one. The
//! `trace::query::post_crash_epoch_violations` checker asserts exactly this.

use bmx_common::{BunchId, NodeId, Oid};
use bmx_dsm::DsmMsg;
use bmx_gc::ReachabilityReport;
use bmx_net::WireSize;
use std::collections::{BTreeMap, BTreeSet};

/// A peer's view of one object the recovering node pulled from its RVM
/// store.
#[derive(Clone, Debug)]
pub struct ObjView {
    /// The object.
    pub oid: Oid,
    /// Whether the peer holds a replica at all.
    pub holds_replica: bool,
    /// Whether the peer believes it is the owner.
    pub is_owner: bool,
    /// Whether the peer holds a (read or write) token.
    pub has_token: bool,
    /// The peer's ownerPtr for the object (meaningful when it holds a
    /// non-owned replica, or held one its collector reclaimed).
    pub owner_hint: NodeId,
    /// The peer's position in the object's ownership history
    /// ([`bmx_dsm::ObjState::handoffs`]): if it is not the owner and the
    /// count is not 0, `owner_hint` is the node it granted ownership to in
    /// change of hands number `handoffs`.
    pub handoffs: u32,
}

/// A replica at a peer whose ownerPtr names the crashed node but which the
/// node did *not* recover: the authoritative copy died with the crash, and
/// ownership must be re-homed to a survivor.
#[derive(Clone, Debug)]
pub struct OrphanView {
    /// The object.
    pub oid: Oid,
    /// Its bunch.
    pub bunch: BunchId,
    /// Whether the peer holds a token for its (stale-at-worst) copy.
    pub has_token: bool,
    /// The peer's position in the object's ownership history.
    pub handoffs: u32,
}

/// One ownership decision broadcast at the end of the handshake.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// The object.
    pub oid: Oid,
    /// Its bunch.
    pub bunch: BunchId,
    /// The node that now owns it (the recovering node for recovered
    /// objects nobody else owned; a surviving replica holder for orphans).
    pub owner: NodeId,
    /// Every node known to hold a replica (entering ownerPtrs at the new
    /// owner).
    pub replicas: Vec<NodeId>,
    /// The subset holding read tokens (the new owner's copy-set).
    pub readers: Vec<NodeId>,
    /// Which change of hands in the object's ownership history this
    /// decision is: one past the highest count any peer reported.
    pub handoffs: u32,
}

/// The rejoin handshake messages. All travel on the reliable
/// consistency-protocol lane (`MsgClass::Dsm`): a handshake message lost to
/// an overlapping fault would wedge the recovery, and the paper's
/// loss-tolerance argument covers the *GC* planes, not membership.
#[derive(Clone, Debug)]
pub enum RejoinMsg {
    /// Recovering node -> every surviving peer: "I lost everything volatile;
    /// here is what my RVM store gave back."
    Request {
        /// The rejoin epoch (strictly increasing per node across restarts).
        epoch: u64,
        /// Every `(object, bunch)` the RVM replay reinstalled.
        recovered: Vec<(Oid, BunchId)>,
    },
    /// Surviving peer -> recovering node.
    Reply {
        /// Echo of the request epoch (stale replies are discarded).
        epoch: u64,
        /// The replying peer.
        from: NodeId,
        /// The peer's view of each recovered object.
        views: Vec<ObjView>,
        /// Replicas orphaned by the crash (ownerPtr names the crashed node,
        /// object not in the recovered list).
        orphans: Vec<OrphanView>,
        /// The peer's cleaner-epoch floor per bunch for reports *from* the
        /// crashed node — the recovering node resumes its collection epochs
        /// above the cluster-wide maximum of these.
        epochs: Vec<(BunchId, u64)>,
        /// A fresh idempotent reachability report for every bunch the peer
        /// maps: the scion/stub regeneration payload.
        reports: Vec<ReachabilityReport>,
    },
    /// Recovering node -> every surviving peer: the ownership decisions.
    /// Peers repoint ownerPtrs; the chosen owner of each orphan adopts it.
    Assign {
        /// The rejoin epoch these decisions belong to.
        epoch: u64,
        /// The decisions.
        assignments: Vec<Assignment>,
    },
}

impl WireSize for RejoinMsg {
    fn wire_size(&self) -> u64 {
        match self {
            RejoinMsg::Request { recovered, .. } => 16 + 12 * recovered.len() as u64,
            RejoinMsg::Reply {
                views,
                orphans,
                epochs,
                reports,
                ..
            } => {
                20 + 18 * views.len() as u64
                    + 17 * orphans.len() as u64
                    + 12 * epochs.len() as u64
                    + reports
                        .iter()
                        .map(|r| {
                            // Same accounting as `GcMsg::Report`.
                            24 + 56 * r.inter_stubs.len() as u64
                                + 24 * r.intra_stubs.len() as u64
                                + 16 * r.exiting.len() as u64
                        })
                        .sum::<u64>()
            }
            RejoinMsg::Assign { assignments, .. } => {
                16 + assignments
                    .iter()
                    .map(|a| 24 + 4 * (a.replicas.len() + a.readers.len()) as u64)
                    .sum::<u64>()
            }
        }
    }
}

/// The in-progress recovery bookkeeping of one restarting node, held by the
/// cluster driver between the `Request` broadcast and the last `Reply`.
#[derive(Debug)]
pub struct Recovery {
    /// The rejoin epoch of this recovery.
    pub epoch: u64,
    /// What the RVM replay gave back.
    pub recovered: Vec<(Oid, BunchId)>,
    /// Peers whose `Reply` is still outstanding.
    pub awaiting: BTreeSet<NodeId>,
    /// Network tick the restart fired (for recovery-latency measurement).
    pub started_at: u64,
    /// Wall-clock microseconds the RVM replay took.
    pub replay_micros: u64,
    /// Collected peer views per recovered object, tagged with the replying
    /// peer (an `is_owner` view makes that peer the surviving owner).
    pub views: BTreeMap<Oid, Vec<(NodeId, ObjView)>>,
    /// Collected orphans per object, tagged with the reporting holder.
    pub orphans: BTreeMap<Oid, Vec<(NodeId, OrphanView)>>,
    /// Cluster-wide cleaner-epoch maximum per bunch for this node's reports.
    pub epoch_floor: BTreeMap<BunchId, u64>,
    /// Reports piggy-backed on replies, applied at completion (after the
    /// ownership reconciliation, so entering-ownerPtr adjustments land on
    /// reconciled state).
    pub reports: Vec<ReachabilityReport>,
    /// Token requests that arrived while the recovery was in flight,
    /// replayed once the pipeline completes. A silent drop would wedge the
    /// requester in real-thread mode: its `waiting_for` latch is only
    /// cleared by a grant or by the rejoin `Request` purge, and that purge
    /// fired once already — the re-sent request has nobody left to clear
    /// it. Deduplicated by `(kind, oid, requester)` so sim-mode acquire
    /// retries (which re-send every poll) cannot double-queue a grant.
    pub deferred: Vec<(NodeId, DsmMsg)>,
}

/// One completed recovery, recorded for the E9 experiment and the chaos
/// suite: latency is `complete_tick - restart_tick` of simulated time plus
/// the measured RVM replay wall time. (Both ticks are 0 on the parallel
/// runtime, whose networks have no clock; `Ctr::RecoveryTotalMicros` is
/// the reading there.)
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// The recovered node.
    pub node: NodeId,
    /// The rejoin epoch.
    pub epoch: u64,
    /// Tick the node restarted (RVM replay + request broadcast).
    pub restart_tick: u64,
    /// Tick the pipeline completed (last reply reconciled, assignments
    /// broadcast, scions regenerated).
    pub complete_tick: u64,
    /// Wall-clock microseconds of the RVM replay stage.
    pub replay_micros: u64,
    /// Objects reinstalled from the RVM store.
    pub objects_recovered: usize,
    /// Orphans re-homed to surviving replica holders.
    pub orphans_adopted: usize,
    /// Peer reports applied during scion/stub regeneration.
    pub reports_applied: usize,
}
