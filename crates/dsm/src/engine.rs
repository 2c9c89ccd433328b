//! The entry-consistency protocol engine.
//!
//! The engine is deliberately transport-agnostic: it never touches the
//! network directly. Operations and the message handler receive a `send`
//! closure; the cluster driver (in `bmx`) wires that closure to the
//! simulated network and pumps deliveries back into [`DsmEngine::handle`].
//! This keeps the protocol unit-testable with a five-line pump and lets the
//! same engine run under the deterministic simulation and the parallel
//! runtime.
//!
//! Outgoing messages are *coalesced*: while one protocol round runs (one
//! mutator operation, one delivered envelope), emissions are buffered per
//! destination, and a single envelope per `(src, dst)` pair leaves the node
//! when the round ends. Every envelope drains the collector's piggy-back
//! buffer for its destination ([`GcIntegration::drain_piggyback`]); every
//! incoming envelope applies the attached payload before the protocol
//! actions. Together with the grant-side hooks, this implements the three
//! invariants of the paper's Section 5.

use std::collections::BTreeMap;

use bmx_addr::object::{self, ObjectImage};
use bmx_addr::NodeMemory;
use bmx_common::{Addr, BmxError, BunchId, NodeId, NodeStats, Oid, Result, StatKind};
use bmx_metrics::{self as metrics, Hst};
use bmx_profile as profile;
use bmx_trace::{self as trace, AccessMode, TraceEvent};

use crate::integration::GcIntegration;
use crate::msg::{DsmMsg, DsmPacket, Relocation};
use crate::state::{DsmNodeState, ObjState, PendingInval, PendingWrite, QueuedReq, ReqKind, Token};

/// Mutable context the engine operates in: node memories, per-node counters,
/// and the collector's integration hooks.
pub struct DsmShared<'a> {
    /// One memory per node, indexed by `NodeId`.
    pub mems: &'a mut [NodeMemory],
    /// One counter set per node, indexed by `NodeId`.
    pub stats: &'a mut [NodeStats],
    /// The collector's participation hooks.
    pub gc: &'a mut dyn GcIntegration,
}

/// Send callback: `(src, dst, packet)`.
pub type SendFn<'a> = dyn FnMut(NodeId, NodeId, DsmPacket) + 'a;

/// Outcome of starting an acquire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcquireStart {
    /// The token was already held (or obtainable locally); no messages.
    Satisfied,
    /// A request is in flight; pump the network and check completion.
    Requested,
}

/// The protocol engine for a fixed-size cluster.
pub struct DsmEngine {
    nodes: Vec<DsmNodeState>,
    /// Messages buffered during the current protocol round, keyed by
    /// `(src, dst)`. Drained into one envelope per pair when the round's
    /// public entry point returns; always empty between rounds.
    outbox: BTreeMap<(NodeId, NodeId), Vec<DsmMsg>>,
    /// When `false`, every emission leaves immediately as its own
    /// single-message envelope (the pre-coalescing wire behaviour, kept for
    /// the equivalence tests and as a diagnostic knob).
    coalesce: bool,
}

impl DsmEngine {
    /// Creates an engine for `n` nodes.
    pub fn new(n: usize) -> Self {
        DsmEngine {
            nodes: (0..n).map(|_| DsmNodeState::default()).collect(),
            outbox: BTreeMap::new(),
            coalesce: true,
        }
    }

    /// Switches envelope coalescing on or off (on by default). With it off
    /// the engine reproduces the unbatched one-envelope-per-message wire
    /// behaviour; protocol state transitions are identical either way.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalesce = on;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Exchanges `node`'s protocol state with `other`'s. The parallel
    /// runtime keeps each node's state in an engine of its own and lends
    /// it to another for a call that reads two nodes.
    pub fn swap_node(&mut self, node: NodeId, other: &mut DsmEngine) {
        std::mem::swap(
            &mut self.nodes[node.0 as usize],
            &mut other.nodes[node.0 as usize],
        );
    }

    fn ns(&self, node: NodeId) -> &DsmNodeState {
        &self.nodes[node.0 as usize]
    }

    fn ns_mut(&mut self, node: NodeId) -> &mut DsmNodeState {
        &mut self.nodes[node.0 as usize]
    }

    // ------------------------------------------------------------------
    // Registration.
    // ------------------------------------------------------------------

    /// Registers a freshly allocated object: `node` owns it and holds the
    /// write token.
    pub fn register_alloc(&mut self, node: NodeId, oid: Oid, bunch: BunchId) {
        self.ns_mut(node)
            .insert(oid, ObjState::new_owner(bunch, node));
    }

    /// Registers a replica created by mapping a bunch image from `source`:
    /// the replica starts inconsistent, with its ownerPtr pointing along
    /// `source`'s knowledge of the owner. Sends the entering-ownerPtr
    /// registration toward the owner.
    pub fn register_mapped_replica(
        &mut self,
        node: NodeId,
        oid: Oid,
        bunch: BunchId,
        owner_hint: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) {
        if owner_hint == node {
            // Degenerate mapping from ourselves; nothing to register.
            return;
        }
        self.ns_mut(node)
            .insert(oid, ObjState::new_replica(bunch, Token::None, owner_hint));
        self.emit(
            sh,
            send,
            node,
            owner_hint,
            DsmMsg::RegisterReplica { oid, holder: node },
        );
        self.flush_outbox(sh, send);
    }

    // ------------------------------------------------------------------
    // Introspection (used by the collector and the experiments).
    // ------------------------------------------------------------------

    /// Token `node` currently holds for `oid`.
    pub fn token(&self, node: NodeId, oid: Oid) -> Token {
        self.ns(node).get(oid).map_or(Token::None, |s| s.token)
    }

    /// Whether `node` is the owner (holds or last held the write token).
    pub fn is_owner(&self, node: NodeId, oid: Oid) -> bool {
        self.ns(node).get(oid).is_some_and(|s| s.is_owner)
    }

    /// Whether `node` holds any replica of `oid` (even inconsistent).
    pub fn has_replica(&self, node: NodeId, oid: Oid) -> bool {
        self.ns(node).get(oid).is_some()
    }

    /// Full object state, if a replica exists at `node`.
    pub fn obj_state(&self, node: NodeId, oid: Oid) -> Option<&ObjState> {
        self.ns(node).get(oid)
    }

    /// Every replica `node` holds, in `Oid` order.
    pub fn replicas(&self, node: NodeId) -> Vec<(Oid, &ObjState)> {
        self.ns(node).replicas().collect()
    }

    /// The exiting ownerPtrs of `bunch` at `node`: one per non-owned
    /// replica, pointing at the node's current hint of the owner.
    pub fn exiting_owner_ptrs(&self, node: NodeId, bunch: BunchId) -> Vec<(Oid, NodeId)> {
        self.ns(node)
            .replicas()
            .filter(|(_, s)| s.bunch == bunch && !s.is_owner)
            .map(|(o, s)| (o, s.owner_hint))
            .collect()
    }

    /// The entering ownerPtrs of `bunch` at `node`: per owned replica, the
    /// nodes registered as holding replicas that point here.
    pub fn entering_owner_ptrs(&self, node: NodeId, bunch: BunchId) -> Vec<(Oid, Vec<NodeId>)> {
        self.ns(node)
            .replicas()
            .filter(|(_, s)| s.bunch == bunch && !s.entering.is_empty())
            .map(|(o, s)| (o, s.entering.iter().copied().collect()))
            .collect()
    }

    /// What `node` remembers of an object it holds no replica of any more:
    /// the ownerPtr and handoff count its reclaimed replica left behind.
    pub fn departed(&self, node: NodeId, oid: Oid) -> Option<(NodeId, u32)> {
        self.ns(node).departed.get(&oid).copied()
    }

    /// Whether the local acquire of `oid` at `node` is still outstanding.
    pub fn is_waiting(&self, node: NodeId, oid: Oid) -> bool {
        self.ns(node).waiting_for.contains_key(&oid)
    }

    // ------------------------------------------------------------------
    // Collector-driven state updates (scion cleaner / BGC reclamation).
    // ------------------------------------------------------------------

    /// Drops the replica record at `node` (the local BGC reclaimed the
    /// object). Returns the dropped state.
    pub fn drop_replica(&mut self, node: NodeId, oid: Oid) -> Option<ObjState> {
        let dropped = self.ns_mut(node).drop_replica(oid);
        if dropped.is_some() {
            trace::emit(node, TraceEvent::ReplicaDrop { oid });
        }
        dropped
    }

    /// Removes `from` from the entering-ownerPtr set of `oid` at `node`
    /// (the scion cleaner learned the remote replica is gone).
    pub fn remove_entering(&mut self, node: NodeId, oid: Oid, from: NodeId) {
        if let Some(s) = self.ns_mut(node).get_mut(oid) {
            s.entering.remove(&from);
        }
    }

    /// Adds `from` to the entering-ownerPtr set of `oid` at `node` (the
    /// scion cleaner learned of a remote replica pointing here).
    pub fn add_entering(&mut self, node: NodeId, oid: Oid, from: NodeId) {
        if let Some(s) = self.ns_mut(node).get_mut(oid) {
            s.entering.insert(from);
        }
    }

    // ------------------------------------------------------------------
    // Crash-amnesia recovery.
    // ------------------------------------------------------------------

    /// Discards every piece of volatile protocol state at `node` — the
    /// object directory, token/ownership caches, queued requests, pending
    /// transfers and invalidations. This models the power-failure half of
    /// an amnesia crash; the rejoin handshake rebuilds the state from the
    /// RVM store and the surviving peers.
    pub fn amnesia_reset(&mut self, node: NodeId) {
        self.nodes[node.0 as usize] = DsmNodeState::default();
    }

    /// Reconciles a surviving node `at` with the fact that `gone` crashed
    /// with amnesia: every in-flight message to or from `gone` was dropped
    /// and `gone` has forgotten it ever sent anything, so bookkeeping that
    /// waits on `gone` would wait forever. Queued requests from `gone` are
    /// dropped, invalidation rounds stop awaiting its ack, and a write
    /// transfer it requested is converted into a self-promotion at the
    /// owner (the owner regains exclusivity; `gone` re-requests after
    /// rejoin if it still cares).
    ///
    /// Entering ownerPtrs that name `gone` are deliberately *kept*: they
    /// are reclamation roots, and dropping them early could let a
    /// collection reclaim an object the restarted node still reaches. The
    /// fresh reachability reports requested during rejoin retire them
    /// through the normal idempotent cleaner path instead.
    pub fn purge_peer(
        &mut self,
        at: NodeId,
        gone: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let r = self.purge_peer_inner(at, gone, sh, send);
        self.flush_outbox(sh, send);
        r
    }

    fn purge_peer_inner(
        &mut self,
        at: NodeId,
        gone: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let ns = self.ns_mut(at);
        // Requests queued by the crashed node: it forgot asking.
        for q in ns.queued.values_mut() {
            q.retain(|r| r.requester != gone);
        }
        ns.queued.retain(|_, q| !q.is_empty());
        // Deferred invalidations whose parent died: the ack would go
        // nowhere, and the parent's transfer died with it.
        for parents in ns.deferred_invals.values_mut() {
            parents.retain(|&p| p != gone);
        }
        ns.deferred_invals.retain(|_, p| !p.is_empty());
        // Replica bookkeeping: `gone`'s copies are forgotten, and acquires
        // routed along an ownerPtr naming `gone` were dropped mid-flight —
        // clear the wait so the mutator's retry re-sends after rejoin.
        let mut stale_waits = Vec::new();
        for (&oid, st) in ns.objects.iter_mut() {
            st.copy_set.remove(&gone);
            if !st.is_owner && st.owner_hint == gone {
                stale_waits.push(oid);
            }
        }
        for oid in stale_waits {
            ns.waiting_for.remove(&oid);
        }
        // Transitive invalidation rounds awaiting the crashed node.
        let mut inval_done = Vec::new();
        for (&oid, pi) in ns.pending_inval.iter_mut() {
            pi.awaiting.remove(&gone);
            if pi.awaiting.is_empty() {
                inval_done.push((oid, pi.parent));
            }
        }
        for (oid, _) in &inval_done {
            ns.pending_inval.remove(oid);
        }
        // Write transfers: stop awaiting `gone`'s ack; a transfer *to*
        // `gone` becomes a self-promotion at the owner.
        let mut xfer_done = Vec::new();
        for (&oid, pw) in ns.pending_write.iter_mut() {
            if pw.requester == gone {
                pw.requester = at;
            }
            pw.awaiting.remove(&gone);
            if pw.awaiting.is_empty() {
                xfer_done.push(oid);
            }
        }
        for (oid, parent) in inval_done {
            if parent != gone {
                self.emit(
                    sh,
                    send,
                    at,
                    parent,
                    DsmMsg::InvalidateAck { oid, child: at },
                );
            }
        }
        for oid in xfer_done {
            let pw = self.ns_mut(at).pending_write.remove(&oid).expect("present");
            {
                let _flow = profile::flow_scope(pw.flow);
                self.complete_write_transfer(at, oid, pw.requester, sh, send)?;
            }
            let queued = self.ns_mut(at).queued.remove(&oid).unwrap_or_default();
            for q in queued {
                let _flow = profile::flow_scope(q.flow);
                match q.kind {
                    ReqKind::Read => self.handle_read_req(at, oid, q.requester, sh, send)?,
                    ReqKind::Write => self.handle_write_req(at, oid, q.requester, sh, send)?,
                }
            }
        }
        Ok(())
    }

    /// At a recovered node: claims ownership of a recovered `oid` because
    /// no surviving peer owns it. `replicas` are the peers that still hold
    /// copies (they become entering ownerPtrs); `readers` the subset that
    /// reported a read token (they stay valid, so the claimant takes only a
    /// read token when any exist — writes go through the normal
    /// invalidation path). The claim is change of hands number `handoffs`
    /// of the object: one past the highest any survivor has seen.
    pub fn rejoin_claim_owner(
        &mut self,
        node: NodeId,
        oid: Oid,
        bunch: BunchId,
        replicas: &[NodeId],
        readers: &[NodeId],
        handoffs: u32,
    ) {
        let mut st = ObjState::new_owner(bunch, node);
        st.handoffs = handoffs;
        if readers.iter().any(|&r| r != node) {
            st.token = Token::Read;
        }
        for &h in replicas {
            if h != node {
                st.entering.insert(h);
            }
        }
        for &r in readers {
            if r != node {
                st.copy_set.insert(r);
            }
        }
        self.ns_mut(node).insert(oid, st);
    }

    /// At a surviving node: adopts ownership of an object orphaned by an
    /// amnesia crash (the crashed owner did not checkpoint it, so its
    /// authoritative copy is gone). The adopter's replica — possibly stale
    /// — becomes the authoritative one; this is the bounded data loss the
    /// crash-amnesia model allows. The token is promoted only to `Read` so
    /// other surviving readers stay valid. Like a claim, the adoption is
    /// change of hands number `handoffs`.
    pub fn rejoin_adopt_owner(
        &mut self,
        node: NodeId,
        oid: Oid,
        replicas: &[NodeId],
        readers: &[NodeId],
        handoffs: u32,
    ) {
        if let Some(st) = self.ns_mut(node).get_mut(oid) {
            st.is_owner = true;
            st.owner_hint = node;
            st.handoffs = handoffs;
            if st.token == Token::None {
                st.token = Token::Read;
            }
            for &h in replicas {
                if h != node {
                    st.entering.insert(h);
                }
            }
            for &r in readers {
                if r != node {
                    st.copy_set.insert(r);
                }
            }
        }
    }

    /// Repoints a surviving replica's ownerPtr after a rejoin assignment
    /// re-homed the object (no-op at the owner itself).
    pub fn set_owner_hint(&mut self, node: NodeId, oid: Oid, owner: NodeId) {
        if let Some(st) = self.ns_mut(node).get_mut(oid) {
            if !st.is_owner {
                st.owner_hint = owner;
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutator operations.
    // ------------------------------------------------------------------

    /// Starts a read-token acquire at `node`.
    pub fn start_read(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<AcquireStart> {
        let r = self.start_read_inner(node, oid, sh, send);
        self.flush_outbox(sh, send);
        r
    }

    fn start_read_inner(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<AcquireStart> {
        sh.stats[node.0 as usize].bump(StatKind::MutatorReadAcquires);
        let hint = {
            let st = self
                .ns(node)
                .get(oid)
                .ok_or(BmxError::OwnerUnknown { oid })?;
            if st.token != Token::None {
                trace::emit(
                    node,
                    TraceEvent::AcquireStart {
                        oid,
                        mode: AccessMode::Read,
                    },
                );
                return Ok(AcquireStart::Satisfied);
            }
            debug_assert!(!st.is_owner, "owner must hold a token");
            st.owner_hint
        };
        trace::emit(
            node,
            TraceEvent::AcquireStart {
                oid,
                mode: AccessMode::Read,
            },
        );
        self.ns_mut(node).waiting_for.insert(oid, ReqKind::Read);
        self.emit(
            sh,
            send,
            node,
            hint,
            DsmMsg::ReadReq {
                oid,
                requester: node,
            },
        );
        Ok(AcquireStart::Requested)
    }

    /// Re-emits the outstanding token request for `oid` toward the
    /// *current* owner hint; a no-op unless `node` is waiting. This is the
    /// lost-request recovery primitive for the real-thread runtime: a
    /// request can die in a crashed node's inbox or its amnesia-wiped
    /// request queue, and when the requester's hint names a surviving
    /// *forwarder* the rejoin purge never clears the wait — nobody is left
    /// to produce the grant. Safe at any cadence: request queues
    /// deduplicate by `(requester, kind)`, grant application is
    /// idempotent, and a stale duplicate forwarded back to a requester
    /// that has since become owner resolves as a self-promotion.
    pub fn nudge_wait(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) {
        let Some(&kind) = self.ns(node).waiting_for.get(&oid) else {
            return;
        };
        let Some(st) = self.ns(node).get(oid) else {
            return;
        };
        let hint = st.owner_hint;
        if hint == node {
            return;
        }
        let msg = match kind {
            ReqKind::Read => DsmMsg::ReadReq {
                oid,
                requester: node,
            },
            ReqKind::Write => DsmMsg::WriteReq {
                oid,
                requester: node,
            },
        };
        self.emit(sh, send, node, hint, msg);
        self.flush_outbox(sh, send);
    }

    /// Starts a write-token acquire at `node`.
    pub fn start_write(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<AcquireStart> {
        let r = self.start_write_inner(node, oid, sh, send);
        self.flush_outbox(sh, send);
        r
    }

    fn start_write_inner(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<AcquireStart> {
        sh.stats[node.0 as usize].bump(StatKind::MutatorWriteAcquires);
        let (is_owner, token, hint) = {
            let st = self
                .ns(node)
                .get(oid)
                .ok_or(BmxError::OwnerUnknown { oid })?;
            (st.is_owner, st.token, st.owner_hint)
        };
        trace::emit(
            node,
            TraceEvent::AcquireStart {
                oid,
                mode: AccessMode::Write,
            },
        );
        if token == Token::Write {
            return Ok(AcquireStart::Satisfied);
        }
        self.ns_mut(node).waiting_for.insert(oid, ReqKind::Write);
        if is_owner {
            // Owner promoting read -> write: invalidate readers locally.
            self.owner_start_write_transfer(node, oid, node, sh, send)?;
        } else {
            self.emit(
                sh,
                send,
                node,
                hint,
                DsmMsg::WriteReq {
                    oid,
                    requester: node,
                },
            );
        }
        Ok(AcquireStart::Requested)
    }

    /// Marks the object as inside a mutator critical section.
    ///
    /// The driver calls this after the acquire completed; remote requests
    /// and invalidations arriving while locked are deferred to
    /// [`DsmEngine::unlock`].
    pub fn lock(&mut self, node: NodeId, oid: Oid) -> Result<()> {
        match self.ns_mut(node).get_mut(oid) {
            Some(st) if st.token != Token::None => {
                Self::enter(st, node);
                Ok(())
            }
            _ => Err(BmxError::NoToken { node, oid }),
        }
    }

    /// One poll of a split-phase acquire, in one lookup of the replica's
    /// state: enters the critical section if no acquire of `oid` is
    /// outstanding at `node` and the token it holds covers the access.
    pub fn try_lock(&mut self, node: NodeId, oid: Oid, write: bool) -> bool {
        let ns = self.ns_mut(node);
        if ns.waiting_for.contains_key(&oid) {
            // The grant clears `waiting_for` when it lands.
            return false;
        }
        let want = if write { Token::Write } else { Token::Read };
        match ns.get_mut(oid) {
            Some(st) if st.token == Token::Write || st.token == want => {
                Self::enter(st, node);
                true
            }
            _ => false,
        }
    }

    fn enter(st: &mut ObjState, node: NodeId) {
        let claimed_reservation = st.reserved;
        st.locked = true;
        // The waiter claims its grant: the reservation's job is done.
        st.reserved = false;
        if claimed_reservation {
            // The parked-grant claim is the moment a blocking acquire
            // actually enters its critical section; mark it so the
            // profiler's stitched track ends on something visible.
            profile::mark(profile::SpanKind::ReserveClaim, node);
        }
    }

    /// Abandons an outstanding acquire at `node` (timeout, target down).
    ///
    /// Removes the wait record and, if a grant already landed and reserved
    /// the replica for this waiter, releases the reservation and serves
    /// whatever parked behind it — otherwise the abandoned reservation
    /// would wedge every later remote request for the object.
    pub fn cancel_wait(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        self.ns_mut(node).waiting_for.remove(&oid);
        let reserved = self.ns(node).get(oid).is_some_and(|s| s.reserved);
        if reserved {
            self.ns_mut(node)
                .get_mut(oid)
                .expect("checked above")
                .reserved = false;
            self.serve_parked(node, oid, sh, send)?;
        }
        self.flush_outbox(sh, send);
        Ok(())
    }

    /// Ends the critical section (token release) and serves deferred work.
    ///
    /// A release with deferred invalidations *and* queued requests is the
    /// densest coalescing site: the aggregated acks and the forwarded
    /// requests all leave in the round's single per-destination envelopes.
    pub fn unlock(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let r = self.unlock_inner(node, oid, sh, send);
        self.flush_outbox(sh, send);
        r
    }

    fn unlock_inner(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        {
            let st = self
                .ns_mut(node)
                .get_mut(oid)
                .ok_or(BmxError::NoToken { node, oid })?;
            st.locked = false;
        }
        trace::emit(node, TraceEvent::TokenRelease { oid });
        self.serve_parked(node, oid, sh, send)
    }

    /// Serves the work parked while the replica was locked or reserved:
    /// deferred invalidations first (they strip the token, so the queued
    /// requests are then forwarded rather than granted), then the request
    /// queue.
    fn serve_parked(
        &mut self,
        node: NodeId,
        oid: Oid,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let parents = self
            .ns_mut(node)
            .deferred_invals
            .remove(&oid)
            .unwrap_or_default();
        for parent in parents {
            self.handle_invalidate(node, oid, parent, sh, send)?;
        }
        let queued = self.ns_mut(node).queued.remove(&oid).unwrap_or_default();
        for q in queued {
            // The grant leaves from the *holder's* release, long after
            // the request envelope was applied; restoring the stored
            // flow keeps it on the requester's track.
            let _flow = profile::flow_scope(q.flow);
            match q.kind {
                ReqKind::Read => self.handle_read_req(node, oid, q.requester, sh, send)?,
                ReqKind::Write => self.handle_write_req(node, oid, q.requester, sh, send)?,
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Message plumbing.
    // ------------------------------------------------------------------

    /// Queues `msg` on the round's outbox (or, with coalescing off, wraps
    /// it with the piggy-back payload pending for `dst` and sends at once).
    fn emit(
        &mut self,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
        src: NodeId,
        dst: NodeId,
        msg: DsmMsg,
    ) {
        sh.stats[src.0 as usize].bump(StatKind::DsmLogicalMessages);
        if !self.coalesce {
            let piggyback = sh.gc.drain_piggyback(src, dst);
            sh.stats[src.0 as usize].bump(StatKind::DsmProtocolMessages);
            sh.stats[src.0 as usize].add(StatKind::PiggybackedRelocations, piggyback.len() as u64);
            send(
                src,
                dst,
                DsmPacket {
                    msgs: vec![msg],
                    piggyback,
                },
            );
            return;
        }
        self.outbox.entry((src, dst)).or_default().push(msg);
    }

    /// Ends a protocol round: every buffered `(src, dst)` message group
    /// leaves as one envelope, carrying the piggy-back payload drained once
    /// for that destination. Iteration over the `BTreeMap` keeps the flush
    /// order deterministic.
    fn flush_outbox(&mut self, sh: &mut DsmShared<'_>, send: &mut SendFn<'_>) {
        if self.outbox.is_empty() {
            return;
        }
        for ((src, dst), msgs) in std::mem::take(&mut self.outbox) {
            let piggyback = sh.gc.drain_piggyback(src, dst);
            sh.stats[src.0 as usize].bump(StatKind::DsmProtocolMessages);
            sh.stats[src.0 as usize].add(StatKind::PiggybackedRelocations, piggyback.len() as u64);
            metrics::observe(src, Hst::EnvelopeMsgs, msgs.len() as u64);
            send(src, dst, DsmPacket { msgs, piggyback });
        }
    }

    /// Handles a delivered envelope at `dst`.
    pub fn handle(
        &mut self,
        src: NodeId,
        dst: NodeId,
        packet: DsmPacket,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let r = self.handle_inner(src, dst, packet, sh, send);
        self.flush_outbox(sh, send);
        r
    }

    fn handle_inner(
        &mut self,
        src: NodeId,
        dst: NodeId,
        packet: DsmPacket,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        // Piggy-backed relocations apply before any protocol action
        // (invariant 1) and fan out to local copy-sets (invariant 2).
        if !packet.piggyback.is_empty() {
            self.apply_incoming_relocations(dst, &packet.piggyback, sh);
        }
        for msg in packet.msgs {
            self.handle_msg(src, dst, msg, sh, send)?;
        }
        Ok(())
    }

    /// Dispatches one constituent message of an envelope, in arrival order.
    fn handle_msg(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: DsmMsg,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        match msg {
            DsmMsg::ReadReq { oid, requester } => {
                self.handle_read_req(dst, oid, requester, sh, send)
            }
            DsmMsg::WriteReq { oid, requester } => {
                self.handle_write_req(dst, oid, requester, sh, send)
            }
            DsmMsg::ReadGrant {
                oid,
                bunch,
                addr,
                image,
                owner_hint,
                relocations,
            } => self.handle_read_grant(dst, oid, bunch, addr, image, owner_hint, relocations, sh),
            DsmMsg::WriteGrant {
                oid,
                bunch,
                addr,
                image,
                relocations,
                intra_ssp,
                handoffs,
            } => self.handle_write_grant(
                src,
                dst,
                oid,
                bunch,
                addr,
                image,
                relocations,
                intra_ssp,
                handoffs,
                sh,
            ),
            DsmMsg::Invalidate { oid, parent } => {
                self.handle_invalidate_arrival(dst, oid, parent, sh, send)
            }
            DsmMsg::InvalidateAck { oid, child } => {
                self.handle_invalidate_ack(dst, oid, child, sh, send)
            }
            DsmMsg::RegisterReplica { oid, holder } => {
                self.handle_register_replica(dst, oid, holder, sh, send)
            }
        }
    }

    fn apply_incoming_relocations(
        &mut self,
        node: NodeId,
        relocs: &[Relocation],
        sh: &mut DsmShared<'_>,
    ) {
        sh.gc.apply_relocations(node, relocs, sh.mems);
        // Invariant 2: forward to the local copy-set of each affected object.
        for r in relocs {
            if let Some(st) = self.ns(node).get(r.oid) {
                if !st.copy_set.is_empty() {
                    let cs: Vec<NodeId> = st.copy_set.iter().copied().collect();
                    sh.gc.queue_forward(node, &cs, std::slice::from_ref(r));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Request handling.
    // ------------------------------------------------------------------

    /// Parks a token request behind the critical section, ignoring an exact
    /// `(requester, kind)` duplicate already queued. Requesters are allowed
    /// to re-send an outstanding request (sim-mode acquire retries do it on
    /// every poll; the real-thread runtime nudges a long-waiting acquire to
    /// survive crash-window losses), and a double entry here would grant
    /// the same token twice.
    fn queue_request(&mut self, at: NodeId, oid: Oid, requester: NodeId, kind: ReqKind) {
        let q = self.ns_mut(at).queued.entry(oid).or_default();
        if !q.iter().any(|e| e.requester == requester && e.kind == kind) {
            // The request is being parked while its envelope is applied,
            // so the driver's flow scope is the requester's flow.
            q.push(QueuedReq {
                requester,
                kind,
                flow: profile::current_flow(),
            });
        }
    }

    /// A token request reached `at`, which holds no replica record of `oid`:
    /// the local collector reclaimed the replica while a peer's stale
    /// ownerPtr still pointed here. The request goes on along the ownerPtr
    /// the record left behind. With none (the object died here as its
    /// owner, or was never here) it is dropped: nothing can grant it, and
    /// the requester's acquire times out as against any lost request.
    fn forward_past_departed(
        &mut self,
        at: NodeId,
        oid: Oid,
        req: DsmMsg,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) {
        if let Some(&(hint, _)) = self.ns(at).departed.get(&oid) {
            self.emit(sh, send, at, hint, req);
        }
    }

    fn handle_read_req(
        &mut self,
        at: NodeId,
        oid: Oid,
        requester: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let (token, parked, pending, hint, is_owner) = {
            let Some(st) = self.ns(at).get(oid) else {
                self.forward_past_departed(at, oid, DsmMsg::ReadReq { oid, requester }, sh, send);
                return Ok(());
            };
            (
                st.token,
                st.locked || st.reserved,
                self.ns(at).pending_write.contains_key(&oid),
                st.owner_hint,
                st.is_owner,
            )
        };
        if parked || pending {
            self.queue_request(at, oid, requester, ReqKind::Read);
            return Ok(());
        }
        if token == Token::None {
            // Inconsistent copy: cannot grant; forward along the ownerPtr.
            self.emit(sh, send, at, hint, DsmMsg::ReadReq { oid, requester });
            return Ok(());
        }
        // Grant. A write token demotes to read (the owner keeps a consistent,
        // readable copy and remains the owner).
        let (bunch, owner_hint_for_grantee) = {
            let st = self.ns_mut(at).get_mut(oid).expect("checked above");
            if st.token == Token::Write {
                st.token = Token::Read;
            }
            st.copy_set.insert(requester);
            if st.is_owner {
                st.entering.insert(requester);
            }
            (st.bunch, if st.is_owner { at } else { st.owner_hint })
        };
        if !is_owner {
            // The owner must learn about the new replica holder.
            self.emit(
                sh,
                send,
                at,
                hint,
                DsmMsg::RegisterReplica {
                    oid,
                    holder: requester,
                },
            );
        }
        let addr = sh
            .gc
            .local_addr(at, oid)
            .ok_or_else(|| BmxError::Protocol(format!("granter {at} has no address for {oid}")))?;
        let image = ObjectImage::capture(&sh.mems[at.0 as usize], addr)?;
        sh.stats[at.0 as usize].add(StatKind::ImageWordsCopied, image.data.len() as u64);
        metrics::observe(at, Hst::GrantImageWords, image.data.len() as u64);
        let relocations = sh.gc.grant_relocations(at, oid, sh.mems);
        trace::emit(
            at,
            TraceEvent::TokenGrant {
                oid,
                to: requester,
                mode: AccessMode::Read,
            },
        );
        self.emit(
            sh,
            send,
            at,
            requester,
            DsmMsg::ReadGrant {
                oid,
                bunch,
                addr,
                image,
                owner_hint: owner_hint_for_grantee,
                relocations,
            },
        );
        Ok(())
    }

    fn handle_write_req(
        &mut self,
        at: NodeId,
        oid: Oid,
        requester: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let (is_owner, parked, pending, hint) = {
            let Some(st) = self.ns(at).get(oid) else {
                self.forward_past_departed(at, oid, DsmMsg::WriteReq { oid, requester }, sh, send);
                return Ok(());
            };
            (
                st.is_owner,
                st.locked || st.reserved,
                self.ns(at).pending_write.contains_key(&oid),
                st.owner_hint,
            )
        };
        if !is_owner {
            // Not the owner: forward along the ownerPtr chain.
            self.emit(sh, send, at, hint, DsmMsg::WriteReq { oid, requester });
            return Ok(());
        }
        if parked || pending {
            self.queue_request(at, oid, requester, ReqKind::Write);
            return Ok(());
        }
        self.owner_start_write_transfer(at, oid, requester, sh, send)
    }

    /// At the owner: invalidate all readers, then transfer the write token
    /// to `requester` (which may be the owner itself, for a promotion).
    fn owner_start_write_transfer(
        &mut self,
        owner: NodeId,
        oid: Oid,
        requester: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let targets: Vec<NodeId> = {
            let st = self.ns_mut(owner).get_mut(oid).expect("owner state exists");
            let t = st.copy_set.iter().copied().collect();
            st.copy_set.clear();
            t
        };
        metrics::observe(owner, Hst::InvalidationFanout, targets.len() as u64);
        if targets.is_empty() {
            return self.complete_write_transfer(owner, oid, requester, sh, send);
        }
        self.ns_mut(owner).pending_write.insert(
            oid,
            PendingWrite {
                requester,
                awaiting: targets.iter().copied().collect(),
                flow: profile::current_flow(),
            },
        );
        for t in targets {
            self.emit(
                sh,
                send,
                owner,
                t,
                DsmMsg::Invalidate { oid, parent: owner },
            );
        }
        Ok(())
    }

    fn handle_invalidate_arrival(
        &mut self,
        at: NodeId,
        oid: Oid,
        parent: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let parked = self.ns(at).get(oid).is_some_and(|s| s.locked || s.reserved);
        if parked {
            self.ns_mut(at)
                .deferred_invals
                .entry(oid)
                .or_default()
                .push(parent);
            return Ok(());
        }
        self.handle_invalidate(at, oid, parent, sh, send)
    }

    fn handle_invalidate(
        &mut self,
        at: NodeId,
        oid: Oid,
        parent: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let children: Vec<NodeId> = match self.ns_mut(at).get_mut(oid) {
            Some(st) => {
                if st.token != Token::None {
                    st.token = Token::None;
                    sh.stats[at.0 as usize].bump(StatKind::Invalidations);
                    trace::emit(at, TraceEvent::TokenInvalidated { oid, by: parent });
                }
                let c = st.copy_set.iter().copied().collect();
                st.copy_set.clear();
                c
            }
            // Replica already reclaimed locally: nothing to invalidate.
            None => Vec::new(),
        };
        if children.is_empty() {
            self.emit(
                sh,
                send,
                at,
                parent,
                DsmMsg::InvalidateAck { oid, child: at },
            );
            return Ok(());
        }
        self.ns_mut(at).pending_inval.insert(
            oid,
            PendingInval {
                parent,
                awaiting: children.iter().copied().collect(),
            },
        );
        for c in children {
            self.emit(sh, send, at, c, DsmMsg::Invalidate { oid, parent: at });
        }
        Ok(())
    }

    fn handle_invalidate_ack(
        &mut self,
        at: NodeId,
        oid: Oid,
        child: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        // Aggregating a transitive invalidation?
        if let Some(pi) = self.ns_mut(at).pending_inval.get_mut(&oid) {
            pi.awaiting.remove(&child);
            if pi.awaiting.is_empty() {
                let parent = pi.parent;
                self.ns_mut(at).pending_inval.remove(&oid);
                self.emit(
                    sh,
                    send,
                    at,
                    parent,
                    DsmMsg::InvalidateAck { oid, child: at },
                );
            }
            return Ok(());
        }
        // Otherwise this is the owner collecting acks for a write transfer.
        let done = {
            let pw = self.ns_mut(at).pending_write.get_mut(&oid).ok_or_else(|| {
                BmxError::Protocol(format!("stray InvalidateAck for {oid} at {at}"))
            })?;
            pw.awaiting.remove(&child);
            pw.awaiting.is_empty()
        };
        if done {
            let pw = self.ns_mut(at).pending_write.remove(&oid).expect("present");
            {
                // The final ack completes someone else's acquire; the
                // grant belongs on the original requester's track.
                let _flow = profile::flow_scope(pw.flow);
                self.complete_write_transfer(at, oid, pw.requester, sh, send)?;
            }
            // Requests queued behind the transfer can now be served (they
            // will be forwarded to the new owner).
            let queued = self.ns_mut(at).queued.remove(&oid).unwrap_or_default();
            for q in queued {
                let _flow = profile::flow_scope(q.flow);
                match q.kind {
                    ReqKind::Read => self.handle_read_req(at, oid, q.requester, sh, send)?,
                    ReqKind::Write => self.handle_write_req(at, oid, q.requester, sh, send)?,
                }
            }
        }
        Ok(())
    }

    /// All readers are invalid; hand the write token to `requester`.
    fn complete_write_transfer(
        &mut self,
        owner: NodeId,
        oid: Oid,
        requester: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        if requester == owner {
            // Local promotion: the owner keeps ownership, now exclusive.
            // Reserve for the local waiter just like a remote grant would —
            // the promoted token is equally stealable until the claim.
            let reserve = self.ns(owner).waiting_for.contains_key(&oid);
            let st = self.ns_mut(owner).get_mut(oid).expect("owner state exists");
            st.token = Token::Write;
            st.reserved = reserve;
            self.ns_mut(owner).waiting_for.remove(&oid);
            return Ok(());
        }
        // Invariant 3: intra-bunch SSPs are prepared (scion side) before the
        // grant is sent; the stub-creation requests ride on the grant.
        let intra_ssp = sh.gc.prepare_ownership_transfer(owner, requester, oid);
        let relocations = sh.gc.grant_relocations(owner, oid, sh.mems);
        let addr = sh
            .gc
            .local_addr(owner, oid)
            .ok_or_else(|| BmxError::Protocol(format!("owner {owner} has no address for {oid}")))?;
        let image = ObjectImage::capture(&sh.mems[owner.0 as usize], addr)?;
        sh.stats[owner.0 as usize].add(StatKind::ImageWordsCopied, image.data.len() as u64);
        metrics::observe(owner, Hst::GrantImageWords, image.data.len() as u64);
        let (bunch, handoffs) = {
            let st = self.ns_mut(owner).get_mut(oid).expect("owner state exists");
            if st.token != Token::None {
                st.token = Token::None;
                sh.stats[owner.0 as usize].bump(StatKind::Invalidations);
            }
            st.is_owner = false;
            st.owner_hint = requester;
            st.handoffs += 1;
            st.entering.remove(&requester);
            (st.bunch, st.handoffs)
        };
        trace::emit(
            owner,
            TraceEvent::TokenGrant {
                oid,
                to: requester,
                mode: AccessMode::Write,
            },
        );
        self.emit(
            sh,
            send,
            owner,
            requester,
            DsmMsg::WriteGrant {
                oid,
                bunch,
                addr,
                image,
                relocations,
                intra_ssp,
                handoffs,
            },
        );
        Ok(())
    }

    fn handle_register_replica(
        &mut self,
        at: NodeId,
        oid: Oid,
        holder: NodeId,
        sh: &mut DsmShared<'_>,
        send: &mut SendFn<'_>,
    ) -> Result<()> {
        let (is_owner, hint) = {
            let st = self.ns(at).get(oid).ok_or_else(|| {
                BmxError::Protocol(format!("RegisterReplica for unknown {oid} at {at}"))
            })?;
            (st.is_owner, st.owner_hint)
        };
        if is_owner {
            self.ns_mut(at)
                .get_mut(oid)
                .expect("checked")
                .entering
                .insert(holder);
            trace::emit(at, TraceEvent::ReplicaRegister { oid, holder });
        } else {
            self.emit(sh, send, at, hint, DsmMsg::RegisterReplica { oid, holder });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Grant handling.
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_read_grant(
        &mut self,
        at: NodeId,
        oid: Oid,
        bunch: BunchId,
        addr: Addr,
        image: ObjectImage,
        owner_hint: NodeId,
        relocations: Vec<Relocation>,
        sh: &mut DsmShared<'_>,
    ) -> Result<()> {
        self.apply_incoming_relocations(at, &relocations, sh);
        self.install_replica(at, oid, addr, &image, sh)?;
        let ns = self.ns_mut(at);
        // Reserve the token for the local waiter (if any) until its next
        // poll claims it — a write waiter keeps waiting, a read token is
        // no use to it.
        let reserve = matches!(ns.waiting_for.get(&oid), Some(ReqKind::Read));
        match ns.get_mut(oid) {
            Some(st) => {
                st.token = Token::Read;
                if !st.is_owner {
                    st.owner_hint = owner_hint;
                }
                st.reserved = reserve;
            }
            None => {
                let mut st = ObjState::new_replica(bunch, Token::Read, owner_hint);
                st.reserved = reserve;
                ns.insert(oid, st);
            }
        }
        if reserve {
            ns.waiting_for.remove(&oid);
        }
        trace::emit(
            at,
            TraceEvent::AcquireComplete {
                oid,
                mode: AccessMode::Read,
            },
        );
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_write_grant(
        &mut self,
        src: NodeId,
        at: NodeId,
        oid: Oid,
        bunch: BunchId,
        addr: Addr,
        image: ObjectImage,
        relocations: Vec<Relocation>,
        intra_ssp: Vec<crate::msg::IntraSspCreate>,
        handoffs: u32,
        sh: &mut DsmShared<'_>,
    ) -> Result<()> {
        self.apply_incoming_relocations(at, &relocations, sh);
        // Invariant 3, new-owner side: the intra-bunch stubs exist before the
        // acquire completes.
        sh.gc.apply_intra_ssp(at, &intra_ssp);
        self.install_replica(at, oid, addr, &image, sh)?;
        let ns = self.ns_mut(at);
        // A write token satisfies either wait kind; hold it for the local
        // waiter until its next poll claims it, so a concurrent remote
        // request cannot steal it inside that window (on real threads the
        // waiter may be parked in its poll backoff for milliseconds).
        let reserve = ns.waiting_for.contains_key(&oid);
        match ns.get_mut(oid) {
            Some(st) => {
                st.token = Token::Write;
                st.is_owner = true;
                st.owner_hint = at;
                st.handoffs = handoffs;
                st.entering.insert(src);
                st.reserved = reserve;
            }
            None => {
                let mut st = ObjState::new_owner(bunch, at);
                st.handoffs = handoffs;
                st.entering.insert(src);
                st.reserved = reserve;
                ns.insert(oid, st);
            }
        }
        ns.waiting_for.remove(&oid);
        trace::emit(at, TraceEvent::OwnershipMigrate { oid, from: src });
        trace::emit(
            at,
            TraceEvent::AcquireComplete {
                oid,
                mode: AccessMode::Write,
            },
        );
        Ok(())
    }

    /// Installs a granted object image into the local replica.
    ///
    /// The address in the grant is the *granter's* current address; the
    /// local address may differ if this node relocated the object itself
    /// (Fig. 3 case (d)) — `resolve_current` follows local forwarding. The
    /// installed data's pointer fields are likewise rewritten through local
    /// forwarding before the acquire completes.
    fn install_replica(
        &mut self,
        at: NodeId,
        oid: Oid,
        granter_addr: Addr,
        image: &ObjectImage,
        sh: &mut DsmShared<'_>,
    ) -> Result<()> {
        let local = sh.gc.local_addr(at, oid).unwrap_or(granter_addr);
        let mut local = sh.gc.resolve_current(at, local);
        sh.gc.ensure_mapped(at, local, sh.mems);
        if !sh.mems[at.0 as usize].is_mapped(local) {
            // This node's last address for the object lies in a range the
            // reuse protocol released since (the directory entry outlived a
            // replica the collector dropped, and nobody ever moved the
            // object *from* there, so no routing exists either): the
            // granter's address is the live one.
            local = sh.gc.resolve_current(at, granter_addr);
            sh.gc.ensure_mapped(at, local, sh.mems);
        }
        let mem = &mut sh.mems[at.0 as usize];
        object::install_object_at(mem, local, image)?;
        sh.gc.note_local_addr(at, oid, local);
        // Fig. 3 case (d): rewrite refs that point at from-space copies that
        // were already relocated locally.
        for (field, target) in object::ref_fields(mem, local)? {
            let cur = sh.gc.resolve_current(at, target);
            if cur != target {
                object::write_ref_field(mem, local, field, cur)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
