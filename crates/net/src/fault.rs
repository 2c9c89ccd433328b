//! The fault plane: one vocabulary and one verdict for both message planes.
//!
//! A [`FaultPlan`] describes every fault a run injects: per-link
//! loss/duplication/latency-jitter, timed partitions that heal, and node
//! crash/restart events. Its time fields are read in the clock of the plane
//! that interprets it — ticks in the simulated [`crate::Network`], supervisor
//! pulses in [`crate::ChannelTransport`] — and [`FaultPlan::fate`] is the only
//! code that turns (class, link fault, partition, crash) into a decision;
//! each plane keeps only its own queueing. Every draw comes from a seeded
//! [`SplitMix64`] stream (one per network in the simulator, one per directed
//! link on threads), so the simulator replays bit-exactly from a single `u64`
//! seed and the k-th send on a thread-plane link always meets the same fate.
//!
//! Fault semantics follow the paper's transport assumptions (Section 4.4):
//!
//! * **Loss and duplication apply only to loss-tolerant classes.**
//!   [`MsgClass::Dsm`] traffic is assumed reliable by the consistency
//!   protocol, so link faults never discard it. Duplication is further
//!   restricted to the idempotent classes ([`MsgClass::is_idempotent`]) —
//!   reachability tables are idempotent by the epoch check and
//!   scion-messages by creation dedup, while the from-space reuse handshake
//!   ([`MsgClass::GcBackground`]) counts acks and must not see duplicates.
//! * **FIFO survives jitter.** Per-link latency jitter delays a message but
//!   never reorders a channel: delivery times are clamped monotonically
//!   against the channel's previously scheduled tail.
//! * **Partitions hold reliable traffic and drop lossy traffic.** A severed
//!   link buffers `Dsm` messages until the partition heals (modelling the
//!   reliable transport's retransmission), while loss-tolerant GC traffic is
//!   simply discarded — exactly the failure the cleaner's resend path must
//!   absorb.
//! * **A crash drops everything.** A crashed node has lost its volatile
//!   state, so there is nothing to retransmit to or from it: every message
//!   to or from it during the outage is discarded, whatever its class.
//!
//! The plan's timeline — heals, crashes, restarts — is read by one
//! `Timeline` on both planes, so each transition is the same
//! [`FaultEvent`] and `Fault` trace record in ticks or in pulses.

use std::collections::BTreeMap;
use std::fmt;

use bmx_common::{NodeId, SplitMix64};
use bmx_trace as trace;

use crate::network::MsgClass;

/// A typed rejection of an invalid fault/network configuration.
///
/// The `Display` messages intentionally contain the phrases
/// "assumed reliable" and "probability out of range" so panics routed
/// through these errors keep the wording the design documents (and the
/// original `assert!`s) used.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultConfigError {
    /// A drop rate was configured for a class the protocol requires to be
    /// delivered reliably.
    ReliableClassDrop {
        /// The offending class.
        class: MsgClass,
    },
    /// A probability parameter fell outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which probability (e.g. `"drop"`, `"duplicate"`).
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A partition window or crash window is empty or inverted.
    EmptyWindow {
        /// Window start tick.
        start: u64,
        /// Window end tick (exclusive).
        end: u64,
    },
    /// A partition side is empty, so the partition severs nothing.
    EmptyPartitionSide,
    /// A node appears on both sides of one partition.
    NodeOnBothSides {
        /// The offending node.
        node: NodeId,
    },
    /// Two crash windows of one node overlap or touch: the node would be
    /// wiped again while down, or restart and crash in the same instant.
    OverlappingCrashes {
        /// The node crashed twice.
        node: NodeId,
        /// The two windows, `[at, restart_at)` each, in plan order.
        windows: [(u64, u64); 2],
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::ReliableClassDrop { class } => {
                write!(f, "{class:?} is assumed reliable by the DSM protocol")
            }
            FaultConfigError::ProbabilityOutOfRange { what, value } => {
                write!(f, "{what} probability out of range: {value}")
            }
            FaultConfigError::EmptyWindow { start, end } => {
                write!(f, "empty fault window [{start}, {end})")
            }
            FaultConfigError::EmptyPartitionSide => {
                write!(f, "partition with an empty side severs nothing")
            }
            FaultConfigError::NodeOnBothSides { node } => {
                write!(f, "{node:?} appears on both sides of a partition")
            }
            FaultConfigError::OverlappingCrashes { node, windows } => {
                let [(a0, a1), (b0, b1)] = windows;
                write!(
                    f,
                    "overlapping crash windows [{a0}, {a1}) and [{b0}, {b1}) of {node:?}: \
                     a node must be up between two crashes"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl MsgClass {
    /// Whether the receiving handlers for this class are idempotent, making
    /// duplication injection safe: reachability tables are deduplicated by
    /// the cleaner's epoch check, scion/stub installs by identity.
    pub fn is_idempotent(self) -> bool {
        matches!(self, MsgClass::ScionMessage | MsgClass::StubTable)
    }
}

/// Fault parameters of one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFault {
    /// Probability of discarding a loss-tolerant message.
    pub drop: f64,
    /// Probability of delivering an idempotent-class message twice.
    pub duplicate: f64,
    /// Maximum extra delivery latency in the plane's clock (ticks or
    /// pulses), drawn uniformly from `0..=jitter`. FIFO is preserved by
    /// monotone clamping per channel.
    pub jitter: u64,
}

impl LinkFault {
    /// A link that only drops.
    pub fn dropping(p: f64) -> Self {
        LinkFault {
            drop: p,
            ..Default::default()
        }
    }

    /// Validates the probabilities.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (what, value) in [("drop", self.drop), ("duplicate", self.duplicate)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultConfigError::ProbabilityOutOfRange { what, value });
            }
        }
        Ok(())
    }

    fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.jitter == 0
    }
}

/// A timed two-sided network partition. Traffic between a node in `a` and a
/// node in `b` is severed during `[start, end)` of the plane's clock; links
/// within a side are unaffected. Partitions heal: at `end` held reliable
/// traffic flows again.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<NodeId>,
    /// The other side.
    pub b: Vec<NodeId>,
    /// First tick the cut is in force.
    pub start: u64,
    /// First tick after healing (exclusive end).
    pub end: u64,
}

impl Partition {
    /// Whether this partition severs the directed link `src -> dst` at `t`.
    pub fn severs(&self, src: NodeId, dst: NodeId, t: u64) -> bool {
        if !(self.start..self.end).contains(&t) {
            return false;
        }
        (self.a.contains(&src) && self.b.contains(&dst))
            || (self.b.contains(&src) && self.a.contains(&dst))
    }

    fn validate(&self) -> Result<(), FaultConfigError> {
        if self.start >= self.end {
            return Err(FaultConfigError::EmptyWindow {
                start: self.start,
                end: self.end,
            });
        }
        if self.a.is_empty() || self.b.is_empty() {
            return Err(FaultConfigError::EmptyPartitionSide);
        }
        if let Some(&node) = self.a.iter().find(|n| self.b.contains(n)) {
            return Err(FaultConfigError::NodeOnBothSides { node });
        }
        Ok(())
    }
}

/// A node crash at `at` followed by a restart at `restart_at`, both read in
/// the plane's clock.
///
/// The crash is the power failure the paper's RVM substrate recovers from:
/// the node loses every byte of volatile state and keeps its store, so there
/// is nothing for a reliable transport to retransmit *to* and no send buffer
/// to drain *from*. All in-flight traffic touching the node — reliable
/// classes included — is dropped at crash time, and traffic addressed to or
/// from it during the outage is dropped rather than held. The layer above
/// wipes the node's state on [`FaultEvent::NodeCrashed`] and runs its
/// recovery pipeline on [`FaultEvent::NodeRestarted`]. A node that stalls
/// but keeps its state is a [`Partition`] that isolates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing node.
    pub node: NodeId,
    /// Crash tick.
    pub at: u64,
    /// Restart tick (exclusive end of the outage).
    pub restart_at: u64,
}

impl CrashEvent {
    fn validate(&self) -> Result<(), FaultConfigError> {
        if self.at >= self.restart_at {
            return Err(FaultConfigError::EmptyWindow {
                start: self.at,
                end: self.restart_at,
            });
        }
        Ok(())
    }
}

/// The complete fault schedule for one chaos run.
///
/// Built with the fluent helpers, validated once (by
/// [`FaultPlan::validate`] or at network construction), then interpreted
/// deterministically against the network's seeded RNG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fault applied to every link not listed in `links`.
    pub default_link: LinkFault,
    /// Per-directed-link overrides.
    pub links: BTreeMap<(NodeId, NodeId), LinkFault>,
    /// Timed partitions.
    pub partitions: Vec<Partition>,
    /// Crash/restart events.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// A plan injecting no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all (fast path check).
    pub fn is_quiet(&self) -> bool {
        self.default_link.is_noop()
            && self.links.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }

    /// Sets the fault applied to every link without an override.
    pub fn all_links(mut self, fault: LinkFault) -> Self {
        self.default_link = fault;
        self
    }

    /// Overrides the fault of the directed link `src -> dst`.
    pub fn link(mut self, src: NodeId, dst: NodeId, fault: LinkFault) -> Self {
        self.links.insert((src, dst), fault);
        self
    }

    /// Adds a timed partition separating `a` from `b` during `[start, end)`.
    pub fn partition(mut self, a: Vec<NodeId>, b: Vec<NodeId>, start: u64, end: u64) -> Self {
        self.partitions.push(Partition { a, b, start, end });
        self
    }

    /// Adds a crash of `node` during `[at, restart_at)`: volatile state is
    /// lost and in-flight traffic is dropped, reliable classes included.
    pub fn crash_amnesia(mut self, node: NodeId, at: u64, restart_at: u64) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at,
        });
        self
    }

    /// Validates every component of the plan.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        self.default_link.validate()?;
        for fault in self.links.values() {
            fault.validate()?;
        }
        for p in &self.partitions {
            p.validate()?;
        }
        for (i, c) in self.crashes.iter().enumerate() {
            c.validate()?;
            let earlier = &self.crashes[..i];
            if let Some(e) = earlier
                .iter()
                .find(|e| e.node == c.node && e.at <= c.restart_at && c.at <= e.restart_at)
            {
                return Err(FaultConfigError::OverlappingCrashes {
                    node: c.node,
                    windows: [(e.at, e.restart_at), (c.at, c.restart_at)],
                });
            }
        }
        Ok(())
    }

    /// The fault in force on the directed link `src -> dst`.
    pub fn link_fault(&self, src: NodeId, dst: NodeId) -> LinkFault {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// If `src -> dst` is severed by a partition at `t`, the earliest tick
    /// the link is whole again (the max `end` over the active partitions).
    pub fn severed_until(&self, src: NodeId, dst: NodeId, t: u64) -> Option<u64> {
        self.partitions
            .iter()
            .filter(|p| p.severs(src, dst, t))
            .map(|p| p.end)
            .max()
    }

    /// Whether `node` is crashed at `t`.
    pub fn is_down(&self, node: NodeId, t: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && (c.at..c.restart_at).contains(&t))
    }

    /// Decides what happens to one `class` message sent `src -> dst` at
    /// `now`, where `class_loss` is the class-level drop probability
    /// ([`crate::NetworkConfig::drop_rate`]).
    ///
    /// Draw order, each verdict drawn only when it can apply (a probability
    /// of 0 or 1 draws nothing), so a run replays bit-exactly from `rng`'s
    /// seed: class-level loss, per-link loss (loss-tolerant classes only),
    /// per-link duplication (idempotent classes only), per-link jitter.
    /// Outages come last and draw nothing: a crashed endpoint discards every
    /// class, because it has no state for a retransmission protocol to
    /// resume against; a severing partition discards loss-tolerant traffic
    /// and holds reliable traffic until it heals. A crash dominates a
    /// concurrent partition.
    pub fn fate(
        &self,
        rng: &mut SplitMix64,
        class_loss: f64,
        src: NodeId,
        dst: NodeId,
        class: MsgClass,
        now: u64,
    ) -> Fate {
        if rng.chance(class_loss) {
            return Fate::Drop(DropCause::ClassLoss);
        }
        let reliable = class.requires_reliability();
        let link = self.link_fault(src, dst);
        if !reliable && rng.chance(link.drop) {
            return Fate::Drop(DropCause::Link);
        }
        let copies = 1 + u64::from(class.is_idempotent() && rng.chance(link.duplicate));
        let extra_delay = match link.jitter {
            0 => 0,
            jitter => rng.next_below(jitter + 1),
        };
        if self.is_down(src, now) || self.is_down(dst, now) {
            return Fate::Drop(if reliable {
                DropCause::Amnesia
            } else {
                DropCause::Crash
            });
        }
        let not_before = self.severed_until(src, dst, now);
        if not_before.is_some() && !reliable {
            return Fate::Drop(DropCause::Partition);
        }
        Fate::Deliver {
            copies,
            extra_delay,
            not_before,
        }
    }
}

/// Why [`FaultPlan::fate`] discarded a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// The class-level drop rate.
    ClassLoss,
    /// The link's drop fault.
    Link,
    /// A loss-tolerant message met a partition.
    Partition,
    /// A loss-tolerant message met a crash.
    Crash,
    /// A reliable message met a crash.
    Amnesia,
}

/// The verdict of [`FaultPlan::fate`] on one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Discard the message.
    Drop(DropCause),
    /// Deliver the message.
    Deliver {
        /// How many copies arrive (2 under a duplication fault).
        copies: u64,
        /// Jitter to add to the plane's own delivery latency.
        extra_delay: u64,
        /// The heal of the partition holding the message back; the message
        /// must not arrive before then.
        not_before: Option<u64>,
    },
}

/// Counters for every fault a message plane injected. In the simulator all
/// are deterministic under a fixed seed, so two runs of the same plan can be
/// compared field-for-field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Loss-tolerant messages discarded by per-link drop faults.
    pub link_dropped: u64,
    /// Extra copies enqueued by duplication faults.
    pub duplicates_injected: u64,
    /// Loss-tolerant messages discarded because a partition severed the link.
    pub partition_dropped: u64,
    /// Reliable messages held for delivery after a partition healed.
    pub partition_held: u64,
    /// Partitions that reached their heal tick.
    pub partitions_healed: u64,
    /// Messages discarded because an endpoint was crashed (lossy classes),
    /// plus lossy in-flight messages purged at crash time.
    pub crash_dropped: u64,
    /// Reliable messages dropped — not held — because an endpoint was
    /// crashed (in-flight purges included).
    pub amnesia_dropped: u64,
    /// Nodes that came back up.
    pub restarts: u64,
}

impl FaultStats {
    /// Accounts one verdict.
    pub fn note(&mut self, fate: &Fate) {
        let counter = match fate {
            Fate::Drop(DropCause::ClassLoss) => return,
            Fate::Drop(DropCause::Link) => &mut self.link_dropped,
            Fate::Drop(DropCause::Partition) => &mut self.partition_dropped,
            Fate::Drop(DropCause::Crash) => &mut self.crash_dropped,
            Fate::Drop(DropCause::Amnesia) => &mut self.amnesia_dropped,
            Fate::Deliver {
                copies, not_before, ..
            } => {
                self.duplicates_injected += copies - 1;
                match not_before {
                    None => return,
                    Some(_) => &mut self.partition_held,
                }
            }
        };
        *counter += 1;
    }
}

/// A fault transition of the plan's timeline, reported so the layer
/// above (the cluster, or the thread plane's supervisor) can act on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A partition reached its heal tick; `members` is both sides.
    PartitionHealed {
        /// Every node that was on either side of the cut.
        members: Vec<NodeId>,
    },
    /// A node went down: the layer above wipes its volatile state.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
    },
    /// A node came back up empty: the layer above runs its recovery
    /// pipeline before it serves.
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
    },
}

/// How far a plane has read its plan's timeline: which partitions have
/// healed and which crashes have begun and ended. Both planes advance one
/// with their clock — [`crate::Network::advance`] per tick,
/// [`crate::ChannelTransport::pulse`] per pulse — so a transition is the same
/// [`FaultEvent`] and `Fault` trace record on either.
#[derive(Debug)]
pub(crate) struct Timeline {
    /// Per-partition "already healed" latch (index-aligned with the plan).
    healed: Vec<bool>,
    /// Per-crash phase: 0 = pending, 1 = down, 2 = restarted.
    crash_phase: Vec<u8>,
}

impl Timeline {
    /// The start of `plan`'s timeline: nothing healed, nothing crashed.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        Timeline {
            healed: vec![false; plan.partitions.len()],
            crash_phase: vec![0; plan.crashes.len()],
        }
    }

    /// The transitions of `plan` due by `now` and not yet taken, in plan
    /// order (heals, then each crash's down and up): each is traced at its
    /// nodes, and heals and restarts are counted in `stats`.
    pub(crate) fn advance(
        &mut self,
        plan: &FaultPlan,
        now: u64,
        stats: &mut FaultStats,
    ) -> Vec<FaultEvent> {
        let activate = |node, kind| trace::emit(node, trace::TraceEvent::Fault { kind });
        let mut events = Vec::new();
        for (p, healed) in plan.partitions.iter().zip(&mut self.healed) {
            if !*healed && now >= p.end {
                *healed = true;
                stats.partitions_healed += 1;
                let members: Vec<NodeId> = p.a.iter().chain(&p.b).copied().collect();
                for &m in &members {
                    activate(m, trace::FaultKind::PartitionHeal);
                }
                events.push(FaultEvent::PartitionHealed { members });
            }
        }
        for (c, phase) in plan.crashes.iter().zip(&mut self.crash_phase) {
            if *phase == 0 && now >= c.at {
                *phase = 1;
                activate(c.node, trace::FaultKind::Crash);
                events.push(FaultEvent::NodeCrashed { node: c.node });
            }
            if *phase == 1 && now >= c.restart_at {
                *phase = 2;
                stats.restarts += 1;
                activate(c.node, trace::FaultKind::Restart);
                events.push(FaultEvent::NodeRestarted { node: c.node });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn plan_builder_round_trip() {
        let plan = FaultPlan::none()
            .all_links(LinkFault {
                drop: 0.1,
                duplicate: 0.0,
                jitter: 2,
            })
            .link(n(0), n(1), LinkFault::dropping(0.5))
            .partition(vec![n(0)], vec![n(1), n(2)], 10, 20)
            .crash_amnesia(n(2), 5, 8);
        assert!(plan.validate().is_ok());
        assert!(!plan.is_quiet());
        assert_eq!(plan.link_fault(n(0), n(1)).drop, 0.5);
        assert_eq!(
            plan.link_fault(n(1), n(0)).drop,
            0.1,
            "override is directed"
        );
        assert_eq!(plan.severed_until(n(0), n(2), 10), Some(20));
        assert_eq!(
            plan.severed_until(n(0), n(2), 20),
            None,
            "heal tick is exclusive"
        );
        assert_eq!(
            plan.severed_until(n(1), n(2), 15),
            None,
            "same side unaffected"
        );
        assert!(plan.is_down(n(2), 5));
        assert!(!plan.is_down(n(2), 8), "restart tick is exclusive");
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let plan = FaultPlan::none().all_links(LinkFault::dropping(1.5));
        let err = plan.validate().unwrap_err();
        assert!(matches!(
            err,
            FaultConfigError::ProbabilityOutOfRange { what: "drop", .. }
        ));
        assert!(err.to_string().contains("probability out of range"));
    }

    #[test]
    fn validate_rejects_degenerate_partition() {
        let empty_side = FaultPlan::none().partition(vec![], vec![n(1)], 0, 5);
        assert_eq!(
            empty_side.validate(),
            Err(FaultConfigError::EmptyPartitionSide)
        );

        let both_sides = FaultPlan::none().partition(vec![n(1)], vec![n(1), n(2)], 0, 5);
        assert_eq!(
            both_sides.validate(),
            Err(FaultConfigError::NodeOnBothSides { node: n(1) })
        );

        let inverted = FaultPlan::none().partition(vec![n(0)], vec![n(1)], 7, 7);
        assert_eq!(
            inverted.validate(),
            Err(FaultConfigError::EmptyWindow { start: 7, end: 7 })
        );
    }

    #[test]
    fn validate_rejects_empty_crash_window() {
        let plan = FaultPlan::none().crash_amnesia(n(0), 9, 3);
        assert_eq!(
            plan.validate(),
            Err(FaultConfigError::EmptyWindow { start: 9, end: 3 })
        );
    }

    /// A second crash window of a node that starts before the node is up
    /// again would wipe it twice and begin recovery while it is still down.
    #[test]
    fn validate_rejects_overlapping_crash_windows() {
        for (second, overlaps) in [((10, 30), true), ((20, 30), true), ((21, 30), false)] {
            let plan = FaultPlan::none()
                .crash_amnesia(n(1), 5, 20)
                .crash_amnesia(n(2), 10, 30)
                .crash_amnesia(n(1), second.0, second.1);
            let err = FaultConfigError::OverlappingCrashes {
                node: n(1),
                windows: [(5, 20), second],
            };
            assert_eq!(plan.validate(), if overlaps { Err(err) } else { Ok(()) });
        }
        let err = FaultPlan::none()
            .crash_amnesia(n(1), 5, 20)
            .crash_amnesia(n(1), 10, 30)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("overlapping crash windows"));
    }

    /// The timeline takes each transition once, at the first reading at or
    /// past its time, and counts heals and restarts.
    #[test]
    fn timeline_takes_each_transition_once() {
        let plan = FaultPlan::none()
            .partition(vec![n(0)], vec![n(1)], 0, 4)
            .crash_amnesia(n(2), 2, 6);
        let mut timeline = Timeline::new(&plan);
        let mut stats = FaultStats::default();
        let mut read = |now| timeline.advance(&plan, now, &mut stats);
        assert_eq!(read(1), vec![]);
        assert_eq!(read(3), vec![FaultEvent::NodeCrashed { node: n(2) }]);
        assert_eq!(
            read(9),
            vec![
                FaultEvent::PartitionHealed {
                    members: vec![n(0), n(1)]
                },
                FaultEvent::NodeRestarted { node: n(2) },
            ]
        );
        assert_eq!(read(10), vec![]);
        assert_eq!((stats.partitions_healed, stats.restarts), (1, 1));
    }

    #[test]
    fn duplication_targets_only_idempotent_classes() {
        assert!(MsgClass::StubTable.is_idempotent());
        assert!(MsgClass::ScionMessage.is_idempotent());
        assert!(!MsgClass::Dsm.is_idempotent());
        assert!(!MsgClass::GcBackground.is_idempotent());
    }

    /// The class policy, stated once for both message planes: every class
    /// against every kind of fault.
    #[test]
    fn fate_applies_the_class_policy_to_every_fault() {
        use MsgClass::{Dsm, GcBackground, ScionMessage, StubTable};
        let deliver = |copies, not_before| Fate::Deliver {
            copies,
            extra_delay: 0,
            not_before,
        };
        let dropped = |why| Fate::Drop(why);
        let certain = LinkFault {
            drop: 1.0,
            duplicate: 1.0,
            jitter: 0,
        };
        let doubling = LinkFault {
            duplicate: 1.0,
            ..LinkFault::default()
        };
        let cut = FaultPlan::none().partition(vec![n(0)], vec![n(1)], 5, 9);
        let power_cut = FaultPlan::none().crash_amnesia(n(1), 5, 12);
        let in_cut = DropCause::Partition;
        let in_crash = DropCause::Crash;
        // (plan, class loss, now, [Dsm, ScionMessage, StubTable, GcBackground])
        let table = [
            (
                FaultPlan::none().all_links(certain),
                0.0,
                0,
                [
                    deliver(1, None),
                    dropped(DropCause::Link),
                    dropped(DropCause::Link),
                    dropped(DropCause::Link),
                ],
            ),
            (
                FaultPlan::none().all_links(doubling),
                0.0,
                0,
                [
                    deliver(1, None),
                    deliver(2, None),
                    deliver(2, None),
                    deliver(1, None),
                ],
            ),
            (
                cut.clone(),
                0.0,
                5,
                [
                    deliver(1, Some(9)),
                    dropped(in_cut),
                    dropped(in_cut),
                    dropped(in_cut),
                ],
            ),
            (
                cut.clone().all_links(doubling),
                0.0,
                9,
                [
                    deliver(1, None),
                    deliver(2, None),
                    deliver(2, None),
                    deliver(1, None),
                ],
            ),
            (
                power_cut,
                0.0,
                11,
                [
                    dropped(DropCause::Amnesia),
                    dropped(in_crash),
                    dropped(in_crash),
                    dropped(in_crash),
                ],
            ),
            (
                // A crashed sender; a crash dominates a concurrent partition.
                FaultPlan::none().crash_amnesia(n(0), 5, 12).partition(
                    vec![n(0)],
                    vec![n(1)],
                    0,
                    20,
                ),
                0.0,
                6,
                [
                    dropped(DropCause::Amnesia),
                    dropped(in_crash),
                    dropped(in_crash),
                    dropped(in_crash),
                ],
            ),
            (
                // Class loss is configured per class; here on all it may be.
                cut,
                1.0,
                0,
                [
                    deliver(1, None),
                    dropped(DropCause::ClassLoss),
                    dropped(DropCause::ClassLoss),
                    dropped(DropCause::ClassLoss),
                ],
            ),
        ];
        for (row, (plan, loss, now, expected)) in table.iter().enumerate() {
            assert!(plan.validate().is_ok());
            for (class, want) in [Dsm, ScionMessage, StubTable, GcBackground]
                .into_iter()
                .zip(expected)
            {
                let class_loss = if class.requires_reliability() {
                    0.0
                } else {
                    *loss
                };
                let mut rng = SplitMix64::new(1);
                let got = plan.fate(&mut rng, class_loss, n(0), n(1), class, *now);
                assert_eq!(got, *want, "row {row}, {class:?}");
                assert_eq!(
                    rng.next_u64(),
                    SplitMix64::new(1).next_u64(),
                    "row {row}, {class:?}: a certain verdict draws nothing"
                );
            }
        }
    }

    /// The replay contract: class loss, link drop, duplicate, jitter, in that
    /// order, each drawn only for a class it can apply to.
    #[test]
    fn fate_draws_only_the_verdicts_that_can_apply() {
        let plan = FaultPlan::none().all_links(LinkFault {
            drop: 0.5,
            duplicate: 0.5,
            jitter: 3,
        });
        // Draws of a send that survives every verdict, per class.
        for (class, class_loss, draws) in [
            (MsgClass::Dsm, 0.0, 1),          // jitter
            (MsgClass::GcBackground, 0.0, 2), // drop, jitter
            (MsgClass::StubTable, 0.0, 3),    // drop, duplicate, jitter
            (MsgClass::StubTable, 0.5, 4),    // class loss first
        ] {
            let survivor = (0..64u64)
                .find_map(|seed| {
                    let mut rng = SplitMix64::new(seed);
                    match plan.fate(&mut rng, class_loss, n(0), n(1), class, 0) {
                        Fate::Deliver { .. } => Some((seed, rng.next_u64())),
                        Fate::Drop(_) => None,
                    }
                })
                .expect("some seed survives");
            let mut reference = SplitMix64::new(survivor.0);
            for _ in 0..draws {
                reference.next_u64();
            }
            assert_eq!(survivor.1, reference.next_u64(), "{class:?}: {draws} draws");
        }
    }

    #[test]
    fn stats_count_each_verdict_in_its_own_field() {
        let mut stats = FaultStats::default();
        for fate in [
            Fate::Drop(DropCause::ClassLoss),
            Fate::Drop(DropCause::Link),
            Fate::Drop(DropCause::Partition),
            Fate::Drop(DropCause::Crash),
            Fate::Drop(DropCause::Amnesia),
            Fate::Deliver {
                copies: 2,
                extra_delay: 1,
                not_before: Some(4),
            },
        ] {
            stats.note(&fate);
        }
        assert_eq!(
            stats,
            FaultStats {
                link_dropped: 1,
                duplicates_injected: 1,
                partition_dropped: 1,
                partition_held: 1,
                crash_dropped: 1,
                amnesia_dropped: 1,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn error_messages_keep_design_wording() {
        let reliable = FaultConfigError::ReliableClassDrop {
            class: MsgClass::Dsm,
        };
        assert!(reliable.to_string().contains("assumed reliable"));
    }
}
