//! The discrete-event point-to-point network.

use std::collections::{BTreeMap, VecDeque};

use bmx_common::{MsgSeq, NodeId, SplitMix64};
use bmx_metrics as metrics;
use bmx_metrics::{Ctr, Gge, LinkCtr};
use bmx_profile as profile;
use bmx_trace as trace;

use crate::fault::{Fate, FaultConfigError, FaultEvent, FaultPlan, FaultStats};

/// Classes of traffic, with distinct reliability and accounting.
///
/// The experiment harness separates "messages the application would have paid
/// for anyway" (DSM protocol traffic) from "messages that exist only because
/// of the collector" (scion-messages, stub tables, explicit relocation
/// rounds). The paper's zero-overhead claims are statements about the second
/// group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgClass {
    /// Consistency-protocol traffic sent on behalf of applications
    /// (token requests/grants, invalidations). Assumed reliable.
    Dsm,
    /// Scion-messages announcing a new cross-node inter-bunch reference.
    ScionMessage,
    /// Idempotent reachability tables (new stubs + exiting ownerPtrs) for the
    /// scion cleaner. Tolerates loss; requires only FIFO.
    StubTable,
    /// Explicit relocation/background GC traffic (from-space reuse protocol,
    /// non-piggy-backed address updates).
    GcBackground,
}

impl MsgClass {
    /// All classes, for iteration in reports.
    pub const ALL: [MsgClass; 4] = [
        MsgClass::Dsm,
        MsgClass::ScionMessage,
        MsgClass::StubTable,
        MsgClass::GcBackground,
    ];

    /// Whether the collector design *requires* this class to be delivered
    /// reliably. Only the DSM protocol itself does.
    pub fn requires_reliability(self) -> bool {
        matches!(self, MsgClass::Dsm)
    }

    /// The trace-event lane mirroring this class (`bmx-trace` cannot name
    /// `MsgClass` without a dependency cycle).
    pub fn lane(self) -> trace::MsgLane {
        match self {
            MsgClass::Dsm => trace::MsgLane::Dsm,
            MsgClass::ScionMessage => trace::MsgLane::ScionMessage,
            MsgClass::StubTable => trace::MsgLane::StubTable,
            MsgClass::GcBackground => trace::MsgLane::GcBackground,
        }
    }
}

/// Sizing hook so the network can account bytes without knowing payload types.
pub trait WireSize {
    /// Approximate serialized size of the value in bytes.
    fn wire_size(&self) -> u64;
}

/// A message in flight or delivered.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Per-(src, dst) FIFO sequence number.
    pub seq: MsgSeq,
    /// Traffic class (reliability + accounting).
    pub class: MsgClass,
    /// The sender's Lamport clock stamp, piggy-backed for the tracing
    /// layer (0 when tracing is disabled). Carries no protocol meaning:
    /// nothing in the simulation reads it, so traced and untraced runs
    /// are bit-identical.
    pub lamport: u64,
    /// The sender's wall-clock profiler flow id (0 when profiling is
    /// disabled or the send belongs to no flow). Same contract as
    /// `lamport`: purely observational, no protocol meaning — it lets a
    /// driver thread attribute the apply of this envelope (and any sends
    /// it stages) to the mutator operation that caused it, stitching a
    /// cross-node acquire into one Perfetto track.
    pub span: u64,
    /// The payload.
    pub payload: M,
}

/// Network configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Delivery latency in ticks for every message (uniform keeps FIFO
    /// trivially true; the design only needs per-channel FIFO, not global
    /// ordering).
    pub latency: u64,
    /// Per-class drop probability, applied only to classes that tolerate
    /// loss; configuring a drop rate on [`MsgClass::Dsm`] is rejected at
    /// construction since the DSM protocol assumes reliable delivery.
    pub drop_rate: BTreeMap<MsgClass, f64>,
    /// RNG seed for drop injection.
    pub seed: u64,
    /// Chaos fault schedule (per-link faults, partitions, crashes). Quiet by
    /// default; see [`crate::fault`] for semantics.
    pub fault: FaultPlan,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: 1,
            drop_rate: BTreeMap::new(),
            seed: 0xB_A5E,
            fault: FaultPlan::none(),
        }
    }
}

impl NetworkConfig {
    /// A lossless network with the given latency.
    pub fn lossless(latency: u64) -> Self {
        NetworkConfig {
            latency,
            ..Default::default()
        }
    }

    /// Sets a drop probability for a loss-tolerant class, rejecting
    /// configurations the design forbids with a typed error.
    pub fn try_with_drop(mut self, class: MsgClass, p: f64) -> Result<Self, FaultConfigError> {
        validate_drop(class, p)?;
        self.drop_rate.insert(class, p);
        Ok(self)
    }

    /// Sets a drop probability for a loss-tolerant class.
    ///
    /// # Panics
    ///
    /// Panics if `class` requires reliability or `p` is not in `[0, 1]`.
    /// Use [`NetworkConfig::try_with_drop`] to handle the rejection instead.
    pub fn with_drop(self, class: MsgClass, p: f64) -> Self {
        self.try_with_drop(class, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches a chaos fault schedule, rejecting invalid plans.
    pub fn try_with_fault(mut self, fault: FaultPlan) -> Result<Self, FaultConfigError> {
        fault.validate()?;
        self.fault = fault;
        Ok(self)
    }

    /// Attaches a chaos fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn with_fault(self, fault: FaultPlan) -> Self {
        self.try_with_fault(fault).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates the whole configuration (class drop rates + fault plan).
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (&class, &p) in &self.drop_rate {
            validate_drop(class, p)?;
        }
        self.fault.validate()
    }

    /// The class-level drop probability of `class` (0 when none is set).
    pub fn class_loss(&self, class: MsgClass) -> f64 {
        self.drop_rate.get(&class).copied().unwrap_or(0.0)
    }

    /// Whether the configuration names no fault at all.
    pub fn is_quiet(&self) -> bool {
        self.fault.is_quiet() && self.drop_rate.is_empty()
    }
}

fn validate_drop(class: MsgClass, p: f64) -> Result<(), FaultConfigError> {
    if class.requires_reliability() {
        return Err(FaultConfigError::ReliableClassDrop { class });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultConfigError::ProbabilityOutOfRange {
            what: "drop",
            value: p,
        });
    }
    Ok(())
}

/// Per-class traffic counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ClassStats {
    /// Messages accepted for delivery.
    pub sent: u64,
    /// Messages dropped by loss injection.
    pub dropped: u64,
    /// Extra copies delivered by duplication faults (not counted in `sent`).
    pub duplicated: u64,
    /// Payload bytes accepted for delivery.
    pub bytes: u64,
}

struct InFlight<M> {
    deliver_at: u64,
    env: Envelope<M>,
}

/// Where a network with an egress hands its envelopes (see
/// [`Network::set_egress`]).
pub type Egress<M> = std::sync::Arc<dyn Fn(Envelope<M>) + Send + Sync>;

/// The simulated network.
///
/// Time is a logical tick counter advanced by [`Network::tick`]. Messages
/// sent at time `t` become deliverable at `t + latency`, in per-channel FIFO
/// order. Loss injection happens at send time, which preserves FIFO of the
/// surviving messages (exactly the guarantee of numbering messages on a lossy
/// link and discarding gaps).
pub struct Network<M> {
    cfg: NetworkConfig,
    now: u64,
    rng: SplitMix64,
    /// Per-(src, dst) FIFO of in-flight messages.
    channels: BTreeMap<(NodeId, NodeId), VecDeque<InFlight<M>>>,
    /// Messages queued across all channels, kept where envelopes enter and
    /// leave the queues: `pump` asks after every release and delivery.
    queued: usize,
    /// Per-(src, dst) next sequence number.
    seqs: BTreeMap<(NodeId, NodeId), MsgSeq>,
    stats: BTreeMap<MsgClass, ClassStats>,
    fault_stats: FaultStats,
    /// Fault transitions since the last [`Network::drain_fault_events`].
    events: Vec<FaultEvent>,
    /// Per-partition "already healed" latch (index-aligned with the plan).
    partition_healed: Vec<bool>,
    /// Per-crash-event phase: 0 = pending, 1 = down, 2 = restarted.
    crash_phase: Vec<u8>,
    /// The way out to a real message plane, if this network is a
    /// parallel-runtime site's.
    egress: Option<Egress<M>>,
}

impl<M: WireSize + Clone> Network<M> {
    /// Creates an empty network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetworkConfig::validate`]; use
    /// [`Network::try_new`] to handle the rejection instead.
    pub fn new(cfg: NetworkConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an empty network, rejecting an invalid configuration with a
    /// typed error.
    pub fn try_new(cfg: NetworkConfig) -> Result<Self, FaultConfigError> {
        cfg.validate()?;
        let rng = SplitMix64::new(cfg.seed);
        let partition_healed = vec![false; cfg.fault.partitions.len()];
        let crash_phase = vec![0; cfg.fault.crashes.len()];
        Ok(Network {
            cfg,
            now: 0,
            rng,
            channels: BTreeMap::new(),
            queued: 0,
            seqs: BTreeMap::new(),
            stats: BTreeMap::new(),
            fault_stats: FaultStats::default(),
            events: Vec::new(),
            partition_healed,
            crash_phase,
            egress: None,
        })
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sets (or, with `None`, removes) the egress. With one,
    /// [`Network::send`] numbers, stamps and counts a message as ever and
    /// then hands the envelope over instead of queueing it: nothing is in
    /// flight here, the clock never moves, and delivery is the receiver's
    /// [`Network::note_delivery`]. This is how a parallel-runtime site
    /// sends; what a real message plane does to the envelope (faults
    /// included) is that plane's business.
    ///
    /// # Panics
    ///
    /// Panics if the configuration injects faults: an envelope that leaves
    /// at once cannot be delayed, held or duplicated here.
    pub fn set_egress(&mut self, egress: Option<Egress<M>>) {
        assert!(
            egress.is_none() || self.cfg.is_quiet(),
            "a network with an egress must be lossless"
        );
        self.egress = egress;
    }

    /// Sends `payload` from `src` to `dst` under `class`.
    ///
    /// Returns the sequence number the message was stamped with, whether or
    /// not loss injection subsequently discarded it (the sender cannot know).
    ///
    /// What the fault plane does to the message is [`FaultPlan::fate`]'s
    /// verdict, drawn from the network's one stream so runs replay bit-exactly
    /// from the seed. The network's own part is the schedule: a held message
    /// lands one latency after its outage ends, and per-channel FIFO is
    /// preserved throughout by clamping each delivery time against the
    /// channel's scheduled tail.
    pub fn send(&mut self, src: NodeId, dst: NodeId, class: MsgClass, payload: M) -> MsgSeq {
        let seq = self.seqs.entry((src, dst)).or_default().bump();
        let class_loss = self.cfg.class_loss(class);
        let fate = self
            .cfg
            .fault
            .fate(&mut self.rng, class_loss, src, dst, class, self.now);
        self.fault_stats.note(&fate);
        let (duplicate, mut deliver_at) = match fate {
            Fate::Drop(_) => {
                self.stats.entry(class).or_default().dropped += 1;
                metrics::link(src, dst, LinkCtr::Drop, 1);
                trace::emit(
                    src,
                    trace::TraceEvent::MsgDrop {
                        dst,
                        seq: seq.0,
                        lane: class.lane(),
                    },
                );
                return seq;
            }
            Fate::Deliver {
                copies,
                extra_delay,
                not_before,
            } => {
                let outage_end = not_before.map_or(0, |(_, end)| end);
                let at = (self.now + extra_delay).max(outage_end) + self.cfg.latency;
                (copies > 1, at)
            }
        };

        let wire = payload.wire_size();
        let stats = self.stats.entry(class).or_default();
        stats.sent += 1;
        stats.bytes += wire;
        metrics::link(src, dst, LinkCtr::Send, 1);
        metrics::link(src, dst, LinkCtr::Bytes, wire);
        // The send event's Lamport stamp rides on the envelope; a fault
        // duplicate clones it, which is right — one send, two arrivals.
        let lamport = trace::emit(
            src,
            trace::TraceEvent::MsgSend {
                dst,
                seq: seq.0,
                lane: class.lane(),
            },
        );
        let env = Envelope {
            src,
            dst,
            seq,
            class,
            lamport,
            // Like the Lamport stamp: the profiler flow of the thread
            // staging this send (a mutator mid-acquire, or a driver
            // applying an envelope that itself carried a flow).
            span: profile::current_flow(),
            payload,
        };
        if let Some(egress) = &self.egress {
            egress(env);
            return seq;
        }
        metrics::gauge_add(src, Gge::InflightBytes, wire);
        let queue = self.channels.entry((src, dst)).or_default();
        if let Some(tail) = queue.back() {
            // FIFO under jitter: never schedule before the channel's tail.
            deliver_at = deliver_at.max(tail.deliver_at);
        }
        if duplicate {
            stats.duplicated += 1;
            metrics::link(src, dst, LinkCtr::Duplicate, 1);
            metrics::gauge_add(src, Gge::InflightBytes, wire);
            queue.push_back(InFlight {
                deliver_at,
                env: env.clone(),
            });
        }
        queue.push_back(InFlight { deliver_at, env });
        self.queued += 1 + usize::from(duplicate);
        seq
    }

    /// Advances time by one tick and returns every message that became
    /// deliverable, in deterministic (channel, FIFO) order.
    pub fn tick(&mut self) -> Vec<Envelope<M>> {
        self.now += 1;
        trace::set_now(self.now);
        self.apply_fault_transitions();
        metrics::tick(self.now);
        self.drain_due()
    }

    /// Processes partition heals and crash/restart transitions due at `now`.
    /// Crashing a node purges its lossy in-flight traffic and reschedules
    /// reliable traffic to after the restart.
    fn apply_fault_transitions(&mut self) {
        let now = self.now;
        for (i, p) in self.cfg.fault.partitions.iter().enumerate() {
            if !self.partition_healed[i] && now >= p.end {
                self.partition_healed[i] = true;
                self.fault_stats.partitions_healed += 1;
                let mut members = p.a.clone();
                members.extend(p.b.iter().copied());
                if trace::enabled() {
                    for &m in &members {
                        trace::emit(
                            m,
                            trace::TraceEvent::Fault {
                                kind: trace::FaultKind::PartitionHeal,
                            },
                        );
                    }
                }
                for &m in &members {
                    metrics::bump(m, Ctr::FaultActivations);
                }
                self.events.push(FaultEvent::PartitionHealed { members });
            }
        }
        let mut purges: Vec<(NodeId, u64, bool)> = Vec::new();
        for (i, c) in self.cfg.fault.crashes.iter().enumerate() {
            if self.crash_phase[i] == 0 && now >= c.at {
                self.crash_phase[i] = 1;
                trace::emit(
                    c.node,
                    trace::TraceEvent::Fault {
                        kind: trace::FaultKind::Crash,
                    },
                );
                metrics::bump(c.node, Ctr::FaultActivations);
                self.events.push(FaultEvent::NodeCrashed {
                    node: c.node,
                    amnesia: c.amnesia,
                });
                purges.push((c.node, c.restart_at, c.amnesia));
            }
            if self.crash_phase[i] == 1 && now >= c.restart_at {
                self.crash_phase[i] = 2;
                self.fault_stats.restarts += 1;
                trace::emit(
                    c.node,
                    trace::TraceEvent::Fault {
                        kind: trace::FaultKind::Restart,
                    },
                );
                metrics::bump(c.node, Ctr::FaultActivations);
                self.events.push(FaultEvent::NodeRestarted {
                    node: c.node,
                    amnesia: c.amnesia,
                });
            }
        }
        for (node, restart_at, amnesia) in purges {
            self.purge_in_flight_for(node, restart_at, amnesia);
        }
    }

    /// Applies a crash of `node` to in-flight traffic: lossy messages on any
    /// link touching the node are discarded; reliable ones are pushed back to
    /// land after `restart_at`, keeping each channel's FIFO order. An amnesia
    /// crash discards *everything* touching the node — the send buffers died
    /// with the sender, and the receiver that would have acknowledged the
    /// retransmission no longer exists.
    fn purge_in_flight_for(&mut self, node: NodeId, restart_at: u64, amnesia: bool) {
        let latency = self.cfg.latency;
        for (&(src, dst), queue) in self.channels.iter_mut() {
            if src != node && dst != node {
                continue;
            }
            if amnesia {
                self.queued -= queue.len();
                for m in queue.drain(..) {
                    if m.env.class.requires_reliability() {
                        self.fault_stats.amnesia_dropped += 1;
                    } else {
                        self.fault_stats.crash_dropped += 1;
                    }
                    metrics::gauge_sub(m.env.src, Gge::InflightBytes, m.env.payload.wire_size());
                }
                continue;
            }
            let mut kept = VecDeque::with_capacity(queue.len());
            let mut floor = 0;
            while let Some(mut m) = queue.pop_front() {
                if m.env.class.requires_reliability() {
                    m.deliver_at = m.deliver_at.max(restart_at + latency).max(floor);
                    floor = m.deliver_at;
                    kept.push_back(m);
                } else {
                    self.queued -= 1;
                    self.fault_stats.crash_dropped += 1;
                    metrics::gauge_sub(m.env.src, Gge::InflightBytes, m.env.payload.wire_size());
                }
            }
            *queue = kept;
        }
    }

    /// Returns messages already due without advancing time.
    pub fn drain_due(&mut self) -> Vec<Envelope<M>> {
        let now = self.now;
        let mut out = Vec::new();
        for queue in self.channels.values_mut() {
            while queue.front().is_some_and(|m| m.deliver_at <= now) {
                let env = queue.pop_front().expect("front checked").env;
                self.queued -= 1;
                if metrics::enabled() {
                    metrics::gauge_sub(env.src, Gge::InflightBytes, env.payload.wire_size());
                }
                Self::note_delivery(&env);
                out.push(env);
            }
        }
        out
    }

    /// Stamps the arrival of `env` at its destination: merges the
    /// piggy-backed sender clock first, so that the delivery event is
    /// stamped after the send. The tick loop calls this as a message comes
    /// due; the receiver of an envelope that left through an egress calls
    /// it when the envelope comes back in, so a message that never arrives
    /// is never recorded as delivered.
    pub fn note_delivery(env: &Envelope<M>) {
        if trace::enabled() {
            trace::observe(env.dst, env.lamport);
            trace::emit(
                env.dst,
                trace::TraceEvent::MsgDeliver {
                    src: env.src,
                    seq: env.seq.0,
                    lane: env.class.lane(),
                    sent_lamport: env.lamport,
                },
            );
        }
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.channels.values().map(VecDeque::len).sum::<usize>()
        );
        self.queued
    }

    /// Traffic counters for one class.
    pub fn class_stats(&self, class: MsgClass) -> ClassStats {
        self.stats.get(&class).copied().unwrap_or_default()
    }

    /// Total messages accepted across all classes.
    pub fn total_sent(&self) -> u64 {
        self.stats.values().map(|s| s.sent).sum()
    }

    /// Total messages dropped across all classes.
    pub fn total_dropped(&self) -> u64 {
        self.stats.values().map(|s| s.dropped).sum()
    }

    /// Exchanges the per-link sequence counters of the links leaving
    /// `src` with `other`'s: they are the sender's state, and move with it
    /// when the parallel runtime lends a node to another site's cluster.
    pub fn swap_link_seqs(&mut self, src: NodeId, other: &mut Self) {
        let take = |seqs: &mut BTreeMap<(NodeId, NodeId), MsgSeq>| {
            let mut tail = seqs.split_off(&(src, NodeId(0)));
            if let Some(next) = src.0.checked_add(1) {
                seqs.append(&mut tail.split_off(&(NodeId(next), NodeId(0))));
            }
            tail
        };
        let (mine, theirs) = (take(&mut self.seqs), take(&mut other.seqs));
        self.seqs.extend(theirs);
        other.seqs.extend(mine);
    }

    /// Moves `other`'s traffic counters into this network's, leaving
    /// `other`'s at zero: the sum over both is unchanged.
    pub fn absorb_stats(&mut self, other: &mut Self) {
        for (class, s) in std::mem::take(&mut other.stats) {
            let mine = self.stats.entry(class).or_default();
            mine.sent += s.sent;
            mine.dropped += s.dropped;
            mine.duplicated += s.duplicated;
            mine.bytes += s.bytes;
        }
    }

    /// Changes the drop probability of a loss-tolerant class at runtime,
    /// rejecting configurations the design forbids with a typed error.
    pub fn try_set_drop(&mut self, class: MsgClass, p: f64) -> Result<(), FaultConfigError> {
        validate_drop(class, p)?;
        if p == 0.0 {
            self.cfg.drop_rate.remove(&class);
        } else {
            self.cfg.drop_rate.insert(class, p);
        }
        Ok(())
    }

    /// Changes the drop probability of a loss-tolerant class at runtime
    /// (e.g. to heal the network after a loss-injection phase).
    ///
    /// # Panics
    ///
    /// Panics if `class` requires reliability or `p` is out of `[0, 1]`.
    /// Use [`Network::try_set_drop`] to handle the rejection instead.
    pub fn set_drop(&mut self, class: MsgClass, p: f64) {
        self.try_set_drop(class, p)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Counters for every fault injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Takes the fault transitions (heals, crashes, restarts) observed since
    /// the last call, in occurrence order.
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether `node` is currently crashed under the fault schedule.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.cfg.fault.crashed_until(node, self.now).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct P(u64);

    impl WireSize for P {
        fn wire_size(&self) -> u64 {
            8
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn delivery_respects_latency() {
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(2));
        net.send(n(0), n(1), MsgClass::Dsm, P(7));
        assert!(net.tick().is_empty(), "too early after one tick");
        let got = net.tick();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, P(7));
        assert_eq!(got[0].src, n(0));
        assert_eq!(got[0].dst, n(1));
    }

    #[test]
    fn per_channel_fifo_order() {
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1));
        for i in 0..10 {
            net.send(n(0), n(1), MsgClass::StubTable, P(i));
        }
        let got = net.tick();
        let vals: Vec<u64> = got.iter().map(|e| e.payload.0).collect();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
        let seqs: Vec<u64> = got.iter().map(|e| e.seq.0).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn sequence_numbers_are_per_channel() {
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1));
        let a = net.send(n(0), n(1), MsgClass::Dsm, P(0));
        let b = net.send(n(0), n(2), MsgClass::Dsm, P(0));
        let c = net.send(n(0), n(1), MsgClass::Dsm, P(0));
        assert_eq!(a, MsgSeq(1));
        assert_eq!(b, MsgSeq(1));
        assert_eq!(c, MsgSeq(2));
    }

    #[test]
    fn loss_injection_drops_only_lossy_class() {
        let cfg = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 1.0);
        let mut net: Network<P> = Network::new(cfg);
        net.send(n(0), n(1), MsgClass::StubTable, P(1));
        net.send(n(0), n(1), MsgClass::Dsm, P(2));
        let got = net.tick();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].class, MsgClass::Dsm);
        assert_eq!(net.class_stats(MsgClass::StubTable).dropped, 1);
        assert_eq!(net.class_stats(MsgClass::Dsm).sent, 1);
    }

    #[test]
    #[should_panic(expected = "assumed reliable")]
    fn dsm_class_cannot_be_lossy() {
        let _ = NetworkConfig::lossless(1).with_drop(MsgClass::Dsm, 0.5);
    }

    #[test]
    fn fifo_survives_loss() {
        // With 50% loss the survivors must still arrive in send order.
        let cfg = NetworkConfig::lossless(1).with_drop(MsgClass::GcBackground, 0.5);
        let mut net: Network<P> = Network::new(cfg);
        for i in 0..100 {
            net.send(n(3), n(4), MsgClass::GcBackground, P(i));
        }
        let got = net.tick();
        let vals: Vec<u64> = got.iter().map(|e| e.payload.0).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(vals, sorted, "survivors out of order");
        assert!(net.class_stats(MsgClass::GcBackground).dropped > 0);
        assert!(!vals.is_empty());
    }

    #[test]
    fn byte_accounting() {
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1));
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(0), n(1), MsgClass::Dsm, P(2));
        assert_eq!(net.class_stats(MsgClass::Dsm).bytes, 16);
        assert_eq!(net.total_sent(), 2);
    }

    #[test]
    fn an_egress_takes_the_envelope_at_once_and_delivery_is_stamped_on_return() {
        use std::sync::{Arc, Mutex};
        trace::install_vec();
        let out: Arc<Mutex<Vec<Envelope<P>>>> = Arc::default();
        let sink = Arc::clone(&out);
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1));
        net.set_egress(Some(Arc::new(move |env| sink.lock().unwrap().push(env))));
        assert_eq!(net.send(n(0), n(1), MsgClass::Dsm, P(5)), MsgSeq(1));
        assert_eq!(net.send(n(0), n(1), MsgClass::StubTable, P(6)), MsgSeq(2));
        assert_eq!(net.in_flight(), 0, "nothing is queued here");
        assert_eq!(net.now(), 0, "and no clock moved");
        assert_eq!(net.class_stats(MsgClass::Dsm).sent, 1);
        assert_eq!(net.class_stats(MsgClass::StubTable).bytes, 8);
        let envs = std::mem::take(&mut *out.lock().unwrap());
        assert_eq!(envs.len(), 2);
        let recs = trace::take();
        assert!(
            recs.iter()
                .all(|r| matches!(r.event, trace::TraceEvent::MsgSend { .. })),
            "a send is not a delivery: {recs:?}"
        );
        assert_eq!(recs.len(), 2);
        // The second envelope never arrives; the first is stamped at the
        // receiver, after its send.
        Network::note_delivery(&envs[0]);
        let recs = trace::take();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].node, n(1));
        assert!(matches!(
            recs[0].event,
            trace::TraceEvent::MsgDeliver { seq: 1, .. }
        ));
        assert!(recs[0].lamport > envs[0].lamport);
        trace::disable();
    }

    #[test]
    #[should_panic(expected = "must be lossless")]
    fn an_egress_refuses_a_faulty_configuration() {
        let cfg = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 0.5);
        Network::<P>::new(cfg).set_egress(Some(std::sync::Arc::new(|_| {})));
    }

    #[test]
    fn drain_due_does_not_advance_time() {
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(0));
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        assert_eq!(net.drain_due().len(), 1);
        assert_eq!(net.now(), 0);
    }

    #[test]
    fn try_new_rejects_invalid_fault_plan() {
        let mut cfg = NetworkConfig::lossless(1);
        cfg.fault = FaultPlan::none().all_links(crate::fault::LinkFault::dropping(2.0));
        let err = Network::<P>::try_new(cfg).err().expect("must be rejected");
        assert!(matches!(
            err,
            FaultConfigError::ProbabilityOutOfRange { .. }
        ));
    }

    #[test]
    fn try_new_rejects_reliable_class_drop() {
        let mut cfg = NetworkConfig::lossless(1);
        cfg.drop_rate.insert(MsgClass::Dsm, 0.1); // bypasses with_drop's check
        let err = Network::<P>::try_new(cfg).err().expect("must be rejected");
        assert_eq!(
            err,
            FaultConfigError::ReliableClassDrop {
                class: MsgClass::Dsm
            }
        );
    }

    #[test]
    #[should_panic(expected = "drop probability out of range")]
    fn with_drop_panics_on_bad_probability() {
        let _ = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 1.5);
    }

    #[test]
    fn link_drop_spares_reliable_traffic() {
        let fault = FaultPlan::none().all_links(crate::fault::LinkFault::dropping(1.0));
        let cfg = NetworkConfig::lossless(1).with_fault(fault);
        let mut net: Network<P> = Network::new(cfg);
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(0), n(1), MsgClass::StubTable, P(2));
        let got = net.tick();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].class, MsgClass::Dsm);
        assert_eq!(net.fault_stats().link_dropped, 1);
        assert_eq!(net.class_stats(MsgClass::StubTable).dropped, 1);
    }

    #[test]
    fn duplication_hits_only_idempotent_classes() {
        let fault = FaultPlan::none().all_links(crate::fault::LinkFault {
            drop: 0.0,
            duplicate: 1.0,
            jitter: 0,
        });
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1).with_fault(fault));
        net.send(n(0), n(1), MsgClass::StubTable, P(1));
        net.send(n(0), n(1), MsgClass::Dsm, P(2));
        net.send(n(0), n(1), MsgClass::GcBackground, P(3));
        let got = net.tick();
        let vals: Vec<u64> = got.iter().map(|e| e.payload.0).collect();
        assert_eq!(vals, vec![1, 1, 2, 3], "only the stub table is doubled");
        assert_eq!(
            got[0].seq, got[1].seq,
            "the duplicate reuses the original seq"
        );
        assert_eq!(net.fault_stats().duplicates_injected, 1);
        assert_eq!(net.class_stats(MsgClass::StubTable).duplicated, 1);
        assert_eq!(net.class_stats(MsgClass::StubTable).sent, 1);
    }

    #[test]
    fn jitter_preserves_per_channel_fifo() {
        let fault = FaultPlan::none().all_links(crate::fault::LinkFault {
            drop: 0.0,
            duplicate: 0.0,
            jitter: 7,
        });
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1).with_fault(fault));
        for i in 0..50 {
            net.send(n(0), n(1), MsgClass::Dsm, P(i));
        }
        let mut vals = Vec::new();
        while net.in_flight() > 0 {
            vals.extend(net.tick().into_iter().map(|e| e.payload.0));
        }
        assert_eq!(
            vals,
            (0..50).collect::<Vec<_>>(),
            "jitter must not reorder a channel"
        );
        assert!(net.now() > 1, "some message was actually delayed");
    }

    #[test]
    fn partition_holds_reliable_and_drops_lossy() {
        let fault = FaultPlan::none().partition(vec![n(0)], vec![n(1)], 0, 10);
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1).with_fault(fault));
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(0), n(1), MsgClass::StubTable, P(2));
        net.send(n(1), n(0), MsgClass::Dsm, P(3)); // severed both ways
        net.send(n(0), n(0), MsgClass::Dsm, P(4)); // same side: unaffected

        let mut arrivals: Vec<(u64, u64)> = Vec::new();
        while net.in_flight() > 0 {
            let now_after = net.now() + 1;
            arrivals.extend(net.tick().into_iter().map(|e| (now_after, e.payload.0)));
        }
        assert_eq!(
            arrivals,
            vec![(1, 4), (11, 1), (11, 3)],
            "held until heal + latency"
        );
        let fs = net.fault_stats();
        assert_eq!(fs.partition_held, 2);
        assert_eq!(fs.partition_dropped, 1);
        assert_eq!(fs.partitions_healed, 1);
        let healed = net
            .drain_fault_events()
            .into_iter()
            .filter(|e| matches!(e, FaultEvent::PartitionHealed { .. }))
            .count();
        assert_eq!(healed, 1);
    }

    #[test]
    fn crash_purges_lossy_and_postpones_reliable_in_flight() {
        let fault = FaultPlan::none().crash(n(1), 2, 20);
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(5).with_fault(fault));
        // In flight before the crash: due at tick 5, but node 1 dies at 2.
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(0), n(1), MsgClass::GcBackground, P(2));
        let mut arrivals: Vec<(u64, u64)> = Vec::new();
        while net.in_flight() > 0 {
            let now_after = net.now() + 1;
            arrivals.extend(net.tick().into_iter().map(|e| (now_after, e.payload.0)));
        }
        assert_eq!(
            arrivals,
            vec![(25, 1)],
            "reliable lands restart + latency; lossy purged"
        );
        let fs = net.fault_stats();
        assert_eq!(fs.crash_dropped, 1);
        assert_eq!(fs.restarts, 1);
        let events = net.drain_fault_events();
        assert!(events.contains(&FaultEvent::NodeCrashed {
            node: n(1),
            amnesia: false
        }));
        assert!(events.contains(&FaultEvent::NodeRestarted {
            node: n(1),
            amnesia: false
        }));
    }

    #[test]
    fn amnesia_crash_drops_reliable_in_flight() {
        let fault = FaultPlan::none().crash_amnesia(n(1), 2, 20);
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(5).with_fault(fault));
        // In flight before the crash: due at tick 5, but node 1 dies at 2
        // with amnesia — nothing survives, reliable or not.
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(0), n(1), MsgClass::GcBackground, P(2));
        net.send(n(1), n(0), MsgClass::Dsm, P(3)); // from the dying sender
        let mut arrivals: Vec<(u64, u64)> = Vec::new();
        while net.in_flight() > 0 {
            let now_after = net.now() + 1;
            arrivals.extend(net.tick().into_iter().map(|e| (now_after, e.payload.0)));
        }
        assert!(arrivals.is_empty(), "amnesia drops everything in flight");
        let fs = net.fault_stats();
        assert_eq!(fs.amnesia_dropped, 2, "both reliable messages dropped");
        assert_eq!(fs.crash_dropped, 1, "the lossy message dropped");
        assert_eq!(fs.crash_held, 0, "nothing is buffered");
        // Drain the remaining outage so both transitions are observed.
        while net.now() < 20 {
            let _ = net.tick();
        }
        let events = net.drain_fault_events();
        assert!(events.contains(&FaultEvent::NodeCrashed {
            node: n(1),
            amnesia: true
        }));
        assert!(events.contains(&FaultEvent::NodeRestarted {
            node: n(1),
            amnesia: true
        }));
    }

    #[test]
    fn sends_during_amnesia_outage_are_dropped_not_held() {
        let fault = FaultPlan::none().crash_amnesia(n(1), 1, 6);
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1).with_fault(fault));
        let _ = net.tick(); // advance into the outage window
        assert!(net.is_down(n(1)));
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(1), n(0), MsgClass::StubTable, P(2));
        assert_eq!(net.fault_stats().amnesia_dropped, 1);
        assert_eq!(net.fault_stats().crash_dropped, 1);
        assert_eq!(net.fault_stats().crash_held, 0);
        assert_eq!(net.in_flight(), 0, "nothing buffered for the restart");
        // After the restart traffic flows normally again.
        while net.now() < 6 {
            let _ = net.tick();
        }
        net.send(n(0), n(1), MsgClass::Dsm, P(9));
        let got = net.tick();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, P(9));
    }

    #[test]
    fn sends_while_crashed_are_held_or_dropped() {
        let fault = FaultPlan::none().crash(n(1), 1, 6);
        let mut net: Network<P> = Network::new(NetworkConfig::lossless(1).with_fault(fault));
        let _ = net.tick(); // advance into the outage window
        assert!(net.is_down(n(1)));
        net.send(n(0), n(1), MsgClass::Dsm, P(1));
        net.send(n(1), n(0), MsgClass::StubTable, P(2)); // a crashed sender
        assert_eq!(net.fault_stats().crash_held, 1);
        assert_eq!(net.fault_stats().crash_dropped, 1);
        let mut arrivals = Vec::new();
        while net.in_flight() > 0 {
            let now_after = net.now() + 1;
            arrivals.extend(net.tick().into_iter().map(|e| (now_after, e.payload.0)));
        }
        assert_eq!(arrivals, vec![(7, 1)]);
    }

    #[test]
    fn chaos_runs_replay_bit_exact_from_the_seed() {
        let run = |seed: u64| {
            let fault = FaultPlan::none()
                .all_links(crate::fault::LinkFault {
                    drop: 0.3,
                    duplicate: 0.4,
                    jitter: 3,
                })
                .partition(vec![n(0)], vec![n(1)], 4, 9)
                .crash(n(2), 3, 12);
            let mut cfg = NetworkConfig::lossless(1).with_fault(fault);
            cfg.seed = seed;
            let mut net: Network<P> = Network::new(cfg);
            let mut trace = Vec::new();
            for i in 0..60u64 {
                let (s, d) = (n((i % 3) as u32), n(((i + 1) % 3) as u32));
                let class = match i % 4 {
                    0 => MsgClass::Dsm,
                    1 => MsgClass::ScionMessage,
                    2 => MsgClass::StubTable,
                    _ => MsgClass::GcBackground,
                };
                net.send(s, d, class, P(i));
                trace.extend(
                    net.tick()
                        .into_iter()
                        .map(|e| (e.src, e.dst, e.seq, e.payload.0)),
                );
            }
            while net.in_flight() > 0 {
                trace.extend(
                    net.tick()
                        .into_iter()
                        .map(|e| (e.src, e.dst, e.seq, e.payload.0)),
                );
            }
            (trace, net.fault_stats())
        };
        let (trace_a, stats_a) = run(0xC4A05);
        let (trace_b, stats_b) = run(0xC4A05);
        assert_eq!(trace_a, trace_b, "same seed, same delivery trace");
        assert_eq!(stats_a, stats_b, "same seed, same fault counters");
        let (trace_c, _) = run(0xC4A06);
        assert_ne!(trace_a, trace_c, "a different seed perturbs the run");
    }
}
