//! The typed event vocabulary.
//!
//! Every variant is allocation-free (fixed, `Copy` fields only) so that
//! constructing an event costs a handful of register moves — cheap enough to
//! build unconditionally at the instrumentation sites and let
//! [`crate::emit`] throw it away when tracing is disabled.

use core::fmt;

use bmx_common::{Addr, BunchId, Epoch, NodeId, Oid};

/// Read or write side of a token operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// Read token.
    Read,
    /// Write token.
    Write,
}

/// Which half of which stub–scion pair kind an SSP event concerns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SspKind {
    /// Inter-bunch stub (source side).
    InterStub,
    /// Inter-bunch scion (target side).
    InterScion,
    /// Intra-bunch stub (held by the new owner after a transfer).
    IntraStub,
    /// Intra-bunch scion (left at the old owner / stub site).
    IntraScion,
}

/// Phase of a (possibly incremental) bunch/group collection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GcPhase {
    /// Root gathering (mutator stacks, scions, entering ownerPtrs).
    Roots,
    /// Tracing/copying/scanning from the roots.
    Trace,
    /// Local reference update through forwarding knowledge.
    Update,
    /// Sweep of dead local replicas.
    Sweep,
    /// Table regeneration, space swap, and report publication.
    Publish,
    /// The incremental collector's only mutator-visible pause.
    Flip,
}

/// Step of the from-space reuse protocol (paper, Section 4.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReuseStep {
    /// Initiator started the protocol.
    Start,
    /// Initiator is waiting for owners to copy live objects out.
    CopyOut,
    /// Retire round: waiting for replica-holder acks.
    Retire,
    /// A replica holder acknowledged the retirement.
    Ack,
    /// Segments reclaimed; protocol finished.
    Done,
}

/// Traffic class of a network event (mirror of `bmx_net::MsgClass`, which
/// this crate cannot name without a dependency cycle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgLane {
    /// Consistency-protocol traffic.
    Dsm,
    /// Scion-messages.
    ScionMessage,
    /// Idempotent reachability tables.
    StubTable,
    /// Explicit relocation / background GC traffic.
    GcBackground,
}

/// Which leak/stall detector of the metrics watchdog fired (mirror of the
/// detector set in `bmx-metrics`, which this crate cannot name without a
/// dependency cycle — the same arrangement as [`MsgLane`] / `MsgClass`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlarmKind {
    /// From-space retention stayed nonzero and never drained for a whole
    /// detection window after a covering epoch should have freed it.
    FromSpaceLeak,
    /// The scion backlog grew monotonically across consecutive checks.
    ScionBacklog,
    /// A node's Lamport clock stalled while the rest of the cluster
    /// made progress.
    ClockStall,
    /// The parallel runtime had work pending (messages in flight) but no
    /// node completed an operation or a delivery for a whole detection
    /// window — a livelock/deadlock on real threads.
    ProgressStall,
}

impl AlarmKind {
    /// All detector kinds, for iteration in reports.
    pub const ALL: [AlarmKind; 4] = [
        AlarmKind::FromSpaceLeak,
        AlarmKind::ScionBacklog,
        AlarmKind::ClockStall,
        AlarmKind::ProgressStall,
    ];
}

/// Fault-plane transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The node went down.
    Crash,
    /// The node came back.
    Restart,
    /// A partition containing the node healed.
    PartitionHeal,
}

/// What a wall-clock span measured. Names are the stable strings that
/// reach the Perfetto export and the blackbox dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole mutator-side acquire, submit to locked (or failure).
    Acquire,
    /// The first protocol poll of an acquire: request submission.
    AcquireSubmit,
    /// A re-poll of an outstanding acquire.
    AcquirePoll,
    /// Parked on the node's wake cell (condvar wait, epoch-guarded).
    AcquirePark,
    /// From poke-wake (or park timeout) to the end of the next poll.
    AcquireWake,
    /// The reserved-token claim inside the DSM engine (`lock`).
    ReserveClaim,
    /// Waiting for the node's site mutex.
    MutexWait,
    /// Holding the node's site mutex (holder attribution: `node`).
    MutexHold,
    /// Applying one delivered envelope, on whichever thread holds the
    /// node's lock: its driver, or a mutator polling for a grant.
    Apply,
    /// One supervisor pulse (chaos, liveness, watchdog evaluation).
    SupervisorPulse,
    /// RVM replay while restarting a crashed node.
    RecoveryReplay,
    /// The whole amnesia restart (wipe, replay, rejoin broadcast).
    RecoveryRestart,
    /// A collection phase, named as in [`TraceEvent::BgcPhase`].
    Bgc(GcPhase),
}

impl SpanKind {
    /// Stable display name (Perfetto event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Acquire => "acquire",
            SpanKind::AcquireSubmit => "acquire/submit",
            SpanKind::AcquirePoll => "acquire/poll",
            SpanKind::AcquirePark => "acquire/park",
            SpanKind::AcquireWake => "acquire/wake",
            SpanKind::ReserveClaim => "acquire/reserve-claim",
            SpanKind::MutexWait => "mutex/wait",
            SpanKind::MutexHold => "mutex/hold",
            SpanKind::Apply => "apply",
            SpanKind::SupervisorPulse => "supervisor/pulse",
            SpanKind::RecoveryReplay => "recovery/replay",
            SpanKind::RecoveryRestart => "recovery/restart",
            SpanKind::Bgc(GcPhase::Roots) => "bgc/roots",
            SpanKind::Bgc(GcPhase::Trace) => "bgc/trace",
            SpanKind::Bgc(GcPhase::Update) => "bgc/update",
            SpanKind::Bgc(GcPhase::Sweep) => "bgc/sweep",
            SpanKind::Bgc(GcPhase::Publish) => "bgc/publish",
            SpanKind::Bgc(GcPhase::Flip) => "bgc/flip",
        }
    }
}

/// One causally-stamped thing that happened.
///
/// Events are attributed to the node whose clock stamped them; cross-node
/// fields (`dst`, `to`, `holder`, …) identify the peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    // ---------------- network plane ----------------
    /// A message was accepted for delivery; its piggy-backed Lamport stamp
    /// is this event's own.
    MsgSend {
        /// Receiver.
        dst: NodeId,
        /// Per-channel FIFO sequence number.
        seq: u64,
        /// Traffic class.
        lane: MsgLane,
    },
    /// A message was discarded by loss injection or an outage.
    MsgDrop {
        /// Intended receiver.
        dst: NodeId,
        /// Per-channel FIFO sequence number.
        seq: u64,
        /// Traffic class.
        lane: MsgLane,
    },
    /// A message became deliverable at its receiver; `sent_lamport` is the
    /// sender's piggy-backed clock, merged into the receiver's before this
    /// event was stamped (so this event happens-after the send).
    MsgDeliver {
        /// Sender.
        src: NodeId,
        /// Per-channel FIFO sequence number.
        seq: u64,
        /// Traffic class.
        lane: MsgLane,
        /// The Lamport stamp the message carried.
        sent_lamport: u64,
    },
    /// A fault-plane transition concerning this node.
    Fault {
        /// What happened.
        kind: FaultKind,
    },

    // ---------------- DSM plane ----------------
    /// A mutator acquire began at this node.
    AcquireStart {
        /// Object.
        oid: Oid,
        /// Read or write.
        mode: AccessMode,
    },
    /// A remote grant completed an acquire at this node (local/satisfied
    /// acquires emit only [`TraceEvent::AcquireStart`]).
    AcquireComplete {
        /// Object.
        oid: Oid,
        /// Read or write.
        mode: AccessMode,
    },
    /// This node granted a token to `to`.
    TokenGrant {
        /// Object.
        oid: Oid,
        /// Grantee.
        to: NodeId,
        /// Read or write.
        mode: AccessMode,
    },
    /// The mutator released its token bracket.
    TokenRelease {
        /// Object.
        oid: Oid,
    },
    /// An invalidation stripped this node's token.
    TokenInvalidated {
        /// Object.
        oid: Oid,
        /// The parent that sent the invalidation.
        by: NodeId,
    },
    /// This node became the owner (write-grant arrival): ownership migrated
    /// here from `from`.
    OwnershipMigrate {
        /// Object.
        oid: Oid,
        /// Previous owner.
        from: NodeId,
    },
    /// The owner learned that `holder` holds a replica.
    ReplicaRegister {
        /// Object.
        oid: Oid,
        /// The replica holder.
        holder: NodeId,
    },
    /// The local replica record was dropped (BGC reclaimed the copy).
    ReplicaDrop {
        /// Object.
        oid: Oid,
    },

    // ---------------- collector plane ----------------
    /// A collection at this node entered `phase` for `bunch`.
    BgcPhase {
        /// First bunch of the collected group.
        bunch: BunchId,
        /// The phase entered.
        phase: GcPhase,
    },
    /// The collector copied a locally owned object to to-space.
    Relocate {
        /// Object.
        oid: Oid,
        /// From-space address.
        from: Addr,
        /// To-space address.
        to: Addr,
    },
    /// A relocation record was applied at this node (lazy address update:
    /// piggy-backed, grant-carried, or image-carried forwarding).
    AddrUpdate {
        /// Object.
        oid: Oid,
        /// Old address.
        from: Addr,
        /// New address.
        to: Addr,
    },
    /// Half of a stub–scion pair was created at this node.
    SspCreate {
        /// Which half of which pair kind.
        kind: SspKind,
        /// The object, where the kind has one (intra pairs; inter stubs).
        oid: Option<Oid>,
        /// The peer node holding (or destined to hold) the other half.
        peer: NodeId,
    },
    /// Stubs were cut at this node (collection dropped them with their
    /// source objects).
    SspCut {
        /// Which pair kind.
        kind: SspKind,
        /// How many.
        count: u64,
    },
    /// A collection at this node published the reachability report of
    /// `bunch` for `epoch`.
    ReportPublish {
        /// The collected bunch.
        bunch: BunchId,
        /// The new epoch.
        epoch: Epoch,
    },
    /// The cleaner applied the report from `(source, bunch, epoch)` at this
    /// node (duplicates and stale retransmissions emit nothing).
    ReportApply {
        /// Reporting node.
        source: NodeId,
        /// Reported bunch.
        bunch: BunchId,
        /// Report epoch.
        epoch: Epoch,
    },
    /// The cleaner retired scions the `(source, bunch, epoch)` report no
    /// longer justifies.
    ScionRetired {
        /// Reporting node.
        source: NodeId,
        /// Reported bunch.
        bunch: BunchId,
        /// Covering epoch.
        epoch: Epoch,
        /// Scions removed.
        count: u64,
    },
    /// The cleaner retired entering ownerPtrs the report no longer
    /// justifies.
    OwnerPtrRetired {
        /// Reporting node.
        source: NodeId,
        /// Reported bunch.
        bunch: BunchId,
        /// Covering epoch.
        epoch: Epoch,
        /// Entering ownerPtrs removed.
        count: u64,
    },
    /// A from-space reuse protocol step at this node.
    Reuse {
        /// The bunch being reclaimed.
        bunch: BunchId,
        /// The step.
        step: ReuseStep,
    },

    // ---------------- recovery plane ----------------
    /// This node began its crash-amnesia recovery pipeline (RVM replay has
    /// finished; the rejoin handshake is about to start). `epoch` is the
    /// rejoin epoch the node will stamp on its handshake traffic.
    RecoveryBegin {
        /// The rejoin epoch of this recovery.
        epoch: u64,
    },
    /// This node finished recovery: RVM replay, the rejoin handshake, and
    /// scion/stub regeneration all completed.
    RecoveryComplete {
        /// The rejoin epoch of this recovery.
        epoch: u64,
    },

    // ---------------- metrics plane ----------------
    /// The metrics watchdog raised an alarm at this node. The alarm is
    /// causally ordered with the events that justified it: `witness_lamport`
    /// is the node's Lamport clock *before* the alarm was stamped, i.e. the
    /// newest event inside the detection window, so the alarm happens-after
    /// its evidence (`query::metric_alarm_hb_violations` checks this).
    MetricAlarm {
        /// Which detector fired.
        kind: AlarmKind,
        /// The reading that tripped the detector (gauge value, queue depth,
        /// or stalled clock value, per kind).
        value: u64,
        /// Tick at which the offending condition was first observed.
        since_tick: u64,
        /// The node's Lamport clock when the alarm fired (the newest event
        /// the alarm is justified by); always < this record's own stamp.
        witness_lamport: u64,
    },

    // ---------------- wall clock ----------------
    /// A wall-clock interval of work done for this node, `dur_us` long
    /// from the record's [`TraceRecord::wall_us`] (0 for a mark). It takes
    /// the node's current Lamport value without advancing it.
    Span {
        /// What was measured.
        kind: SpanKind,
        /// Duration, µs.
        dur_us: u64,
        /// Distributed flow id (0: not part of a flow).
        flow: u64,
    },

    // ---------------- mutator plane ----------------
    /// A mutator data/pointer access at this node; `resolved` differs from
    /// `requested` when the access went through forwarding knowledge.
    MutatorAccess {
        /// The address the application held.
        requested: Addr,
        /// The current address actually accessed.
        resolved: Addr,
        /// Store (`true`) or load.
        write: bool,
    },
}

impl TraceEvent {
    /// A coarse subsystem label, used as the Chrome-trace thread id so each
    /// node's events split into per-subsystem tracks.
    pub fn subsystem(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            MsgSend { .. } | MsgDrop { .. } | MsgDeliver { .. } => "net",
            Fault { .. } => "fault",
            AcquireStart { .. }
            | AcquireComplete { .. }
            | TokenGrant { .. }
            | TokenRelease { .. }
            | TokenInvalidated { .. }
            | OwnershipMigrate { .. }
            | ReplicaRegister { .. }
            | ReplicaDrop { .. } => "dsm",
            BgcPhase { .. }
            | Relocate { .. }
            | AddrUpdate { .. }
            | SspCreate { .. }
            | SspCut { .. }
            | ReportPublish { .. }
            | Reuse { .. } => "gc",
            ReportApply { .. } | ScionRetired { .. } | OwnerPtrRetired { .. } => "cleaner",
            RecoveryBegin { .. } | RecoveryComplete { .. } => "recovery",
            MetricAlarm { .. } => "metrics",
            MutatorAccess { .. } => "mutator",
            Span { .. } => "span",
        }
    }
}

/// One captured event with its causal stamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// The node whose clock stamped the event.
    pub node: NodeId,
    /// The recording thread's name (its id if unnamed).
    pub thread: &'static str,
    /// Simulated network tick at emission time.
    pub tick: u64,
    /// The node's Lamport clock value for this event. Strictly increasing
    /// per node over causal events (a span repeats the current value);
    /// merged with the piggy-backed sender clock at delivery, so `a`
    /// happens-before `b` implies `a.lamport < b.lamport`.
    pub lamport: u64,
    /// Emission order on the capturing thread (a tie-breaker for stable
    /// merges; not causally meaningful across nodes). A span shares the
    /// number of the thread's previous event.
    pub seq: u64,
    /// Wall-clock µs since the trace epoch ([`crate::now_us`]): a span's
    /// start, and the emission instant of every record in the
    /// process-wide mode. `None` for an event of a private recorder.
    pub wall_us: Option<u64>,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:<6} L={:<6} {:<3} [{:<7}] {:?}",
            self.tick,
            self.lamport,
            self.node.to_string(),
            self.event.subsystem(),
            self.event
        )
    }
}
