//! The transport seam: how envelopes move between protocol state machines
//! on threads.
//!
//! The paper assumes only point-to-point FIFO channels, reliable for the
//! DSM class (Section 8). [`Transport`] is what a running cluster needs of
//! such a plane: hand over an envelope, poll a node's inbox, account full
//! application of a delivery. [`ChannelTransport`] implements it with one
//! channel per `(src, dst)` link (FIFO per link, no global order), shared
//! by any number of sending threads and polled by whichever thread applies
//! the destination node's inbox. Appliers must serialize the pop with the
//! apply (the parallel runtime pops under the node's lock), or per-link
//! FIFO is lost between pop and apply. Quiescence is race-free:
//! [`Transport::in_flight`] counts from acceptance to the applier's
//! [`Transport::ack_delivered`], so `in_flight() == 0` means no message
//! exists that could still change protocol state.
//!
//! Under a fault plan, [`ChannelTransport::try_new`] puts a fault stage in
//! front of the links: every send meets the
//! [`FaultPlan::fate`](crate::FaultPlan::fate) verdict the simulated
//! [`Network`](crate::Network) uses, and a drop is recorded as there (a
//! `MsgDrop` trace record, `LinkCtr::Drop`, and `LinkCtr::Duplicate` for a
//! duplicate). What a thread plane supplies itself:
//!
//! * **The clock is a pulse counter** ([`ChannelTransport::pulse`]), beaten
//!   by the runtime's supervisor: the plan's windows and jitter count
//!   pulses, and each pulse reads the plan's timeline as a tick does.
//! * **One verdict stream per directed link**, seeded from the seed and the
//!   link, so the fate of the k-th envelope on link `(s, d)` is a function
//!   of `(seed, s, d, k, class, pulse)` whatever the schedule.
//! * **"Held" is a queue, not a schedule**: an envelope that must wait sits
//!   in its link's held queue with the pulse that releases it, clamped
//!   against the queue's tail so a link never reorders.
//!
//! [`Transport::sent`] counts every copy accepted (duplicates and drops
//! included) and a held envelope is in flight, so `delivered + dropped ==
//! sent` holds at shutdown, faults included.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bmx_common::{NodeId, SplitMix64};
use bmx_metrics::{self as metrics, LinkCtr};
use bmx_trace as trace;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::fault::{Fate, FaultConfigError, FaultEvent, FaultStats, Timeline};
use crate::network::{Envelope, MsgClass, NetworkConfig};

/// What a message plane owes a running cluster. Object-safe and `&self`
/// throughout: transports are shared across node driver threads.
pub trait Transport<M>: Send + Sync {
    /// Accepts `env` for delivery to `env.dst`. FIFO per `(src, dst)`.
    fn send_env(&self, env: Envelope<M>);

    /// Pops the next pending envelope addressed to `dst`, if any.
    /// Links into `dst` are polled fairly; per-link order is preserved.
    fn try_recv(&self, dst: NodeId) -> Option<Envelope<M>>;

    /// Accounts one previously popped envelope as *fully applied* (or
    /// deliberately discarded). Callers must pair every successful
    /// [`Transport::try_recv`] with exactly one ack, after the dispatch
    /// finished — this is what makes [`Transport::in_flight`] a sound
    /// quiescence barrier.
    fn ack_delivered(&self);

    /// Envelopes sent and not yet fully applied.
    fn in_flight(&self) -> u64;

    /// Envelopes [`Transport::try_recv`] can pop for `dst` right now:
    /// exact whenever no send or pop is mid-call. A sequentially
    /// consistent load, so a poller can pair it with a store of its own in
    /// a handshake against the sender's increment, which lands after the
    /// push and is sequentially consistent too. While a pop races the push
    /// of the same envelope the count can read one high, or wrap below
    /// zero; both read as "look again".
    fn queued(&self, dst: NodeId) -> u64;

    /// Envelopes accepted so far for `class`.
    fn sent(&self, class: MsgClass) -> u64;

    /// Envelopes of `class` dropped by the fault stage or discarded whole.
    fn dropped(&self, class: MsgClass) -> u64;

    /// Accounts an envelope discarded whole (shutdown drop policy, or a
    /// crashed node's purged inbox). Pair with
    /// [`Transport::ack_delivered`] like a delivery, so `in_flight`
    /// still converges to zero.
    fn note_dropped(&self, class: MsgClass);
}

struct Inbox<M> {
    /// One receiver per sending node, same index as `links[src]`.
    from: Vec<Receiver<Envelope<M>>>,
    /// Round-robin cursor, for fair link polling.
    cursor: usize,
}

/// A counter on a cache line of its own.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// One directed link's part of the fault stage.
struct LinkState<M> {
    rng: SplitMix64,
    /// Envelopes held back, each with the pulse that releases it
    /// (nondecreasing front to back).
    held: VecDeque<(u64, Envelope<M>)>,
}

/// What a fault plan does to a [`ChannelTransport`]'s sends (see the
/// module docs).
struct FaultStage<M> {
    cfg: NetworkConfig,
    /// Flattened `src * nodes + dst`, like the sequence counters.
    links: Vec<Mutex<LinkState<M>>>,
    /// How far the clock has read the plan's heals, crashes and restarts.
    timeline: Mutex<Timeline>,
    /// Set by [`ChannelTransport::heal_all`]: every outage is over and
    /// nothing is held back any more.
    healed: AtomicBool,
    stats: Mutex<FaultStats>,
}

/// Crossbeam-channel message plane for the parallel runtime: `n*n`
/// unbounded FIFO links, with a fault stage in front of them under a
/// fault plan. Senders are lock-free from any thread when there is no
/// fault stage. Each node's inbox sits behind a mutex that keeps the API
/// `&self`; its appliers already hold the node's own lock when they pop,
/// so it is never contended.
pub struct ChannelTransport<M> {
    /// `links[src][dst]`: the sending half of each directed link.
    links: Vec<Vec<Sender<Envelope<M>>>>,
    /// `inboxes[dst]`: the receiving halves, per source.
    inboxes: Vec<Mutex<Inbox<M>>>,
    /// Per-(src,dst) FIFO sequence counters (flattened `src * n + dst`).
    seqs: Vec<AtomicU64>,
    /// `queued[dst]`: envelopes on the links into `dst`, counted at the
    /// channel push and pop ([`Transport::queued`]). One line per node:
    /// senders to one node never write another's.
    queued: Box<[Padded]>,
    in_flight: AtomicU64,
    sent: [AtomicU64; 4],
    dropped: [AtomicU64; 4],
    /// The plane's clock: advanced by [`ChannelTransport::pulse`].
    pulse: AtomicU64,
    /// `None` when the configuration injects nothing.
    fault: Option<FaultStage<M>>,
}

impl<M: Send> ChannelTransport<M> {
    /// Builds the full mesh for an `n`-node cluster, with no fault stage.
    pub fn new(n: usize) -> Self {
        let mut links: Vec<Vec<Sender<Envelope<M>>>> = (0..n).map(|_| Vec::new()).collect();
        // Per destination, one channel from each source's row.
        let inboxes = (0..n)
            .map(|_| {
                let from = (links.iter_mut())
                    .map(|row| {
                        let (tx, rx) = unbounded();
                        row.push(tx);
                        rx
                    })
                    .collect();
                Mutex::new(Inbox { from, cursor: 0 })
            })
            .collect();
        ChannelTransport {
            links,
            inboxes,
            seqs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            queued: (0..n).map(|_| Padded::default()).collect(),
            in_flight: AtomicU64::new(0),
            sent: Default::default(),
            dropped: Default::default(),
            pulse: AtomicU64::new(0),
            fault: None,
        }
    }

    /// The full mesh for `n` nodes under `cfg`'s fault plan, class drop
    /// rates and seed (its latency belongs to the simulator: a channel
    /// delivers as fast as the hardware does). A configuration that injects
    /// nothing builds no fault stage. Rejects what
    /// [`NetworkConfig::validate`] rejects.
    pub fn try_new(n: usize, cfg: NetworkConfig) -> Result<Self, FaultConfigError> {
        cfg.validate()?;
        let fault = (!cfg.is_quiet()).then(|| FaultStage {
            links: (0..n * n)
                .map(|i| {
                    let (src, dst) = ((i / n) as u64 + 1, (i % n) as u64 + 1);
                    let link_seed = cfg.seed
                        ^ src.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ dst.wrapping_mul(0xD1B5_4A32_D192_ED03);
                    Mutex::new(LinkState {
                        rng: SplitMix64::new(link_seed),
                        held: VecDeque::new(),
                    })
                })
                .collect(),
            timeline: Mutex::new(Timeline::new(&cfg.fault)),
            healed: AtomicBool::new(false),
            stats: Mutex::new(FaultStats::default()),
            cfg,
        });
        Ok(ChannelTransport {
            fault,
            ..Self::new(n)
        })
    }

    /// Mints the next per-link FIFO sequence number (1-based, matching the
    /// simulator's numbering).
    pub fn next_seq(&self, src: NodeId, dst: NodeId) -> u64 {
        let idx = src.0 as usize * self.links.len() + dst.0 as usize;
        self.seqs[idx].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current pulse (the plane's clock reading).
    pub fn now_pulse(&self) -> u64 {
        self.pulse.load(Ordering::SeqCst)
    }

    /// Advances the clock one pulse, makes it the trace clock, takes the
    /// plan's transitions due then (as [`crate::Network::advance`] does)
    /// and releases every held envelope due at the new pulse. Returns the
    /// new pulse and the transitions; without a fault stage, or after
    /// [`ChannelTransport::heal_all`], there are none. The runtime's
    /// supervisor calls this periodically; tests may call it directly to
    /// drive partitions deterministically.
    pub fn pulse(&self) -> (u64, Vec<FaultEvent>) {
        let p = self.pulse.fetch_add(1, Ordering::SeqCst) + 1;
        trace::set_now(p);
        let Some(stage) = &self.fault else {
            return (p, Vec::new());
        };
        let events = if stage.healed.load(Ordering::SeqCst) {
            Vec::new()
        } else {
            let mut timeline = stage.timeline.lock().expect("timeline");
            timeline.advance(&stage.cfg.fault, p, &mut stage.stats.lock().expect("stats"))
        };
        self.flush(stage, p);
        (p, events)
    }

    /// Whether `node` is crashed under the plan at the current pulse.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|stage| stage.cfg.fault.is_down(node, self.now_pulse()))
    }

    /// Ends every outage for good and releases all held traffic. Shutdown
    /// calls this so `Drain` cannot hang on a never-healing cut; the plan's
    /// timeline stops with it.
    pub fn heal_all(&self) {
        if let Some(stage) = &self.fault {
            stage.healed.store(true, Ordering::SeqCst);
            self.flush(stage, u64::MAX);
        }
    }

    /// Counters for every fault injected so far; `None` without a fault
    /// stage.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let stage = self.fault.as_ref()?;
        Some(*stage.stats.lock().expect("stats"))
    }

    /// Counts `copies` accepted envelopes of `class`, in flight before any
    /// of them is pushed: a receiver that pops one must always observe
    /// `in_flight >= 1` until it acks.
    fn accept(&self, class: MsgClass, copies: u64) {
        self.sent[class.index()].fetch_add(copies, Ordering::Relaxed);
        self.in_flight.fetch_add(copies, Ordering::SeqCst);
    }

    /// Puts an accepted envelope on its link.
    fn push(&self, env: Envelope<M>) {
        let (src, dst) = (env.src.0 as usize, env.dst.0 as usize);
        self.links[src][dst]
            .send(env)
            .expect("the transport owns every receiver for its whole life");
        // After the push: a poller that reads the count can pop what it
        // counts.
        self.queued[dst].0.fetch_add(1, Ordering::SeqCst);
    }

    fn flush(&self, stage: &FaultStage<M>, pulse: u64) {
        for link in &stage.links {
            let mut st = link.lock().expect("link");
            while st.held.front().is_some_and(|(due, _)| *due <= pulse) {
                let (_, env) = st.held.pop_front().expect("front checked");
                self.push(env);
            }
        }
    }
}

impl<M: Send + Clone> Transport<M> for ChannelTransport<M> {
    fn send_env(&self, env: Envelope<M>) {
        let Some(stage) = &self.fault else {
            self.accept(env.class, 1);
            return self.push(env);
        };
        // The fault stage: the verdict, drawn from the link's stream under
        // its lock, then the drop, or the copies onto the link or into its
        // held queue.
        let (src, dst, class) = (env.src, env.dst, env.class);
        let mut st = stage.links[src.0 as usize * self.links.len() + dst.0 as usize]
            .lock()
            .expect("link");
        // After `heal_all` it is the end of time: `u64::MAX` lies in no
        // window and nothing is due later. The verdict streams keep
        // advancing, but a drained shutdown must not strand late traffic
        // behind a release that nobody will pulse.
        let now = if stage.healed.load(Ordering::SeqCst) {
            u64::MAX
        } else {
            self.now_pulse()
        };
        let cfg = &stage.cfg;
        let fate = cfg
            .fault
            .fate(&mut st.rng, cfg.class_loss(class), src, dst, class, now);
        stage.stats.lock().expect("stats").note(&fate);
        let (copies, mut release) = match fate {
            Fate::Drop(_) => {
                self.sent[class.index()].fetch_add(1, Ordering::Relaxed);
                self.note_dropped(class);
                metrics::link(src, dst, LinkCtr::Drop, 1);
                let (seq, lane) = (env.seq.0, class.lane());
                trace::emit(src, trace::TraceEvent::MsgDrop { dst, seq, lane });
                return;
            }
            Fate::Deliver {
                copies,
                extra_delay,
                not_before,
            } => (
                copies,
                now.saturating_add(extra_delay).max(not_before.unwrap_or(0)),
            ),
        };
        if copies > 1 {
            metrics::link(src, dst, LinkCtr::Duplicate, copies - 1);
        }
        self.accept(class, copies);
        let copies = (copies > 1).then(|| env.clone()).into_iter().chain([env]);
        // FIFO: behind whatever the link already holds (a racing `pulse` or
        // `heal_all` that has not reached this link yet releases both).
        let tail = st.held.back().map(|(due, _)| *due);
        if tail.is_none() && release <= now {
            copies.for_each(|env| self.push(env));
            return;
        }
        release = release.max(tail.unwrap_or(0));
        st.held.extend(copies.map(|env| (release, env)));
    }

    fn try_recv(&self, dst: NodeId) -> Option<Envelope<M>> {
        let d = dst.0 as usize;
        let mut inbox = self.inboxes[d].lock().expect("inbox mutex");
        let n = inbox.from.len();
        let start = inbox.cursor;
        inbox.cursor = start.wrapping_add(1);
        let env = (0..n).find_map(|i| inbox.from[(start + i) % n].try_recv())?;
        self.queued[d].0.fetch_sub(1, Ordering::SeqCst);
        Some(env)
    }

    /// A held envelope is not poppable yet, and is counted when its
    /// release pushes it.
    fn queued(&self, dst: NodeId) -> u64 {
        self.queued[dst.0 as usize].0.load(Ordering::SeqCst)
    }

    fn ack_delivered(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn sent(&self, class: MsgClass) -> u64 {
        self.sent[class.index()].load(Ordering::Relaxed)
    }

    fn dropped(&self, class: MsgClass) -> u64 {
        self.dropped[class.index()].load(Ordering::Relaxed)
    }

    fn note_dropped(&self, class: MsgClass) {
        self.dropped[class.index()].fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, LinkFault};
    use bmx_common::MsgSeq;

    fn env(src: u32, dst: u32, seq: u64, class: MsgClass, v: u64) -> Envelope<u64> {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            seq: MsgSeq(seq),
            class,
            lamport: 0,
            span: 0,
            payload: v,
        }
    }

    #[test]
    fn per_link_fifo_is_preserved() {
        let t: ChannelTransport<u64> = ChannelTransport::new(3);
        for i in 0..10 {
            t.send_env(env(
                0,
                2,
                t.next_seq(NodeId(0), NodeId(2)),
                MsgClass::Dsm,
                i,
            ));
        }
        let mut got = Vec::new();
        while let Some(e) = t.try_recv(NodeId(2)) {
            got.push(e.payload);
            t.ack_delivered();
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn in_flight_counts_until_ack_not_until_recv() {
        let t: ChannelTransport<u64> = ChannelTransport::new(2);
        t.send_env(env(0, 1, 1, MsgClass::Dsm, 7));
        assert_eq!(t.in_flight(), 1);
        let e = t.try_recv(NodeId(1)).expect("queued");
        assert_eq!(e.payload, 7);
        assert_eq!(
            t.in_flight(),
            1,
            "popped but not applied is still in flight"
        );
        t.ack_delivered();
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn fair_polling_drains_every_source() {
        let t: ChannelTransport<u64> = ChannelTransport::new(4);
        for src in 0..3u32 {
            for i in 0..5 {
                t.send_env(env(src, 3, i + 1, MsgClass::Dsm, u64::from(src) * 100 + i));
            }
        }
        let mut per_src = [0usize; 3];
        while let Some(e) = t.try_recv(NodeId(3)) {
            per_src[e.src.0 as usize] += 1;
            t.ack_delivered();
        }
        assert_eq!(per_src, [5, 5, 5]);
    }

    #[test]
    fn concurrent_senders_one_receiver() {
        let t = std::sync::Arc::new(ChannelTransport::<u64>::new(2));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    t.send_env(env(
                        0,
                        1,
                        t.next_seq(NodeId(0), NodeId(1)),
                        MsgClass::Dsm,
                        w * 1000 + i,
                    ));
                }
            }));
        }
        let recv = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                let mut got = 0u64;
                let mut idle = 0;
                while got < 1000 {
                    match t.try_recv(NodeId(1)) {
                        Some(_) => {
                            t.ack_delivered();
                            got += 1;
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            assert!(idle < 1_000_000, "receiver starved");
                            std::thread::yield_now();
                        }
                    }
                }
                got
            })
        };
        for h in handles {
            h.join().expect("sender");
        }
        assert_eq!(recv.join().expect("receiver"), 1000);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.sent(MsgClass::Dsm), 1000);
    }

    fn transport(n: usize, fault: FaultPlan, seed: u64) -> ChannelTransport<u64> {
        let mut cfg = NetworkConfig::lossless(1).with_fault(fault);
        cfg.seed = seed;
        ChannelTransport::try_new(n, cfg).expect("valid plan")
    }

    fn drain(t: &ChannelTransport<u64>, dst: u32) -> Vec<u64> {
        let mut got = Vec::new();
        while let Some(e) = t.try_recv(NodeId(dst)) {
            got.push(e.payload);
            t.ack_delivered();
        }
        got
    }

    fn stats(t: &ChannelTransport<u64>) -> FaultStats {
        t.fault_stats().expect("fault stage")
    }

    /// Records the per-send verdict sequence a link produces under a
    /// plan; used to pin determinism across transports.
    fn fate_signature(seed: u64, sends: u64) -> Vec<(bool, u64)> {
        let plan = FaultPlan::none().all_links(LinkFault {
            drop: 0.3,
            duplicate: 0.3,
            jitter: 0,
        });
        let t = transport(2, plan, seed);
        let mut out = Vec::new();
        for i in 0..sends {
            let before = stats(&t);
            t.send_env(env(0, 1, i + 1, MsgClass::StubTable, i));
            let after = stats(&t);
            out.push((
                after.link_dropped > before.link_dropped,
                after.duplicates_injected - before.duplicates_injected,
            ));
        }
        out
    }

    #[test]
    fn fault_decisions_are_a_function_of_seed_and_send_count() {
        let a = fate_signature(0xFEED_0001, 200);
        let b = fate_signature(0xFEED_0001, 200);
        let c = fate_signature(0xFEED_0002, 200);
        assert_eq!(a, b, "same seed, same fates");
        assert_ne!(a, c, "different seed, different fates");
        assert!(a.iter().any(|&(d, _)| d), "drops occurred");
        assert!(a.iter().any(|&(_, d)| d > 0), "duplicates occurred");
    }

    #[test]
    fn try_new_rejects_what_the_simulator_rejects() {
        let mut cfg = NetworkConfig::lossless(1);
        cfg.fault = FaultPlan::none().all_links(LinkFault::dropping(1.5));
        let err = ChannelTransport::<u64>::try_new(2, cfg)
            .err()
            .expect("drop");
        assert!(err.to_string().contains("probability out of range"));

        let mut cfg = NetworkConfig::lossless(1);
        cfg.drop_rate.insert(MsgClass::Dsm, 0.5);
        let err = ChannelTransport::<u64>::try_new(2, cfg).err().expect("dsm");
        assert!(err.to_string().contains("assumed reliable"));

        let mut cfg = NetworkConfig::lossless(1);
        cfg.fault = FaultPlan::none()
            .crash_amnesia(NodeId(1), 5, 20)
            .crash_amnesia(NodeId(1), 10, 30);
        assert_eq!(
            ChannelTransport::<u64>::try_new(2, cfg).err(),
            Some(FaultConfigError::OverlappingCrashes {
                node: NodeId(1),
                windows: [(5, 20), (10, 30)]
            })
        );
    }

    #[test]
    fn delay_holds_until_the_next_pulse_and_preserves_link_fifo() {
        let plan = FaultPlan::none().all_links(LinkFault {
            jitter: 2,
            ..LinkFault::default()
        });
        let t = transport(2, plan, 11);
        for i in 0..10 {
            t.send_env(env(0, 1, i + 1, MsgClass::Dsm, i));
        }
        // Whatever was drawn 0 before the first held envelope went straight
        // through; everything behind the first held one waits with it.
        let mut got = drain(&t, 1);
        let held = 10 - got.len() as u64;
        assert!(held > 0, "jitter held something back");
        assert_eq!(t.in_flight(), held, "held envelopes are still in flight");
        t.pulse();
        t.pulse();
        got.extend(drain(&t, 1));
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "FIFO intact");
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn partitions_hold_reliable_traffic_and_heal_on_schedule() {
        let plan = FaultPlan::none().partition(vec![NodeId(0)], vec![NodeId(1)], 0, 3);
        let t = transport(2, plan, 3);
        t.send_env(env(0, 1, 1, MsgClass::Dsm, 42));
        t.send_env(env(0, 1, 2, MsgClass::StubTable, 43)); // severed: lost
        assert_eq!(t.try_recv(NodeId(1)).map(|e| e.payload), None);
        assert!(t.in_flight() > 0);
        t.pulse(); // 1
        t.pulse(); // 2
        assert_eq!(t.try_recv(NodeId(1)).map(|e| e.payload), None);
        t.pulse(); // 3: healed
        assert_eq!(drain(&t, 1), vec![42], "DSM survived the cut");
        assert_eq!(t.dropped(MsgClass::StubTable), 1);
        assert_eq!(t.in_flight(), 0);
        let stats = stats(&t);
        assert_eq!(
            (
                stats.partition_held,
                stats.partition_dropped,
                stats.partitions_healed
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn an_amnesia_outage_drops_every_class_and_ends_on_schedule() {
        let plan = FaultPlan::none().crash_amnesia(NodeId(1), 1, 3);
        let t = transport(2, plan, 3);
        t.send_env(env(0, 1, 1, MsgClass::Dsm, 1)); // pulse 0: before the crash
        let down = FaultEvent::NodeCrashed { node: NodeId(1) };
        assert_eq!(t.pulse(), (1, vec![down]));
        assert!(t.is_down(NodeId(1)));
        t.send_env(env(0, 1, 2, MsgClass::Dsm, 2));
        t.send_env(env(1, 0, 1, MsgClass::StubTable, 3));
        assert_eq!(t.pulse(), (2, vec![]));
        let up = FaultEvent::NodeRestarted { node: NodeId(1) };
        assert_eq!(t.pulse(), (3, vec![up]));
        assert!(!t.is_down(NodeId(1)));
        t.send_env(env(0, 1, 3, MsgClass::Dsm, 4));
        assert_eq!(drain(&t, 1), vec![1, 4]);
        assert_eq!(drain(&t, 0), Vec::<u64>::new());
        let stats = stats(&t);
        assert_eq!((stats.amnesia_dropped, stats.crash_dropped), (1, 1));
        assert_eq!(stats.restarts, 1);
        assert_eq!(t.dropped(MsgClass::Dsm), 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn heal_all_flushes_everything_for_shutdown() {
        let plan = FaultPlan::none()
            .all_links(LinkFault {
                jitter: 5,
                ..LinkFault::default()
            })
            .partition(vec![NodeId(0)], vec![NodeId(1)], 0, u64::MAX);
        let t = transport(2, plan, 5);
        t.send_env(env(0, 1, 1, MsgClass::Dsm, 9));
        assert_eq!(t.try_recv(NodeId(1)).map(|e| e.payload), None);
        t.heal_all();
        assert_eq!(drain(&t, 1), vec![9]);
        // Nothing waits any more, whatever the plan still says.
        for i in 0..20 {
            t.send_env(env(0, 1, i + 2, MsgClass::Dsm, i));
        }
        assert_eq!(drain(&t, 1), (0..20).collect::<Vec<_>>());
        assert_eq!(t.in_flight(), 0);
    }

    /// `queued(dst)` is what `try_recv(dst)` can still pop, whatever the
    /// fault plane did to the sends: a dropped send never counts, a
    /// duplicate counts twice, a held envelope counts from the pulse that
    /// releases it, and a purge (pops discarded unapplied) counts down like
    /// a delivery.
    #[test]
    fn queued_is_exactly_what_can_still_be_popped() {
        let plan = FaultPlan::none().all_links(LinkFault {
            drop: 0.3,
            duplicate: 0.3,
            jitter: 2,
        });
        let t = transport(3, plan, 0xD00D);
        // Pops everything `dst` has, discarding it, and checks the count
        // before each pop; returns how many there were.
        let purge = |dst: u32| {
            let d = NodeId(dst);
            let mut popped = 0;
            loop {
                let before = t.queued(d);
                let Some(e) = t.try_recv(d) else {
                    assert_eq!(before, 0, "counted at {dst}, but nothing to pop");
                    return popped;
                };
                assert!(before >= 1, "popped at {dst} what was not counted");
                t.note_dropped(e.class);
                t.ack_delivered();
                popped += 1;
            }
        };
        let mut held_seen = false;
        for i in 0..600u64 {
            let class = MsgClass::ALL[(i % 4) as usize];
            t.send_env(env((i % 3) as u32, ((i + 1) % 3) as u32, i + 1, class, i));
            if i % 5 == 0 {
                t.pulse();
            }
            let counted: u64 = (0..3).map(|d| t.queued(NodeId(d))).sum();
            held_seen |= t.in_flight() > counted;
            if i % 7 == 0 {
                // One delivery, as an applier pops one envelope.
                let d = NodeId((i % 3) as u32);
                let before = t.queued(d);
                if t.try_recv(d).is_some() {
                    t.ack_delivered();
                    assert_eq!(t.queued(d), before - 1);
                }
            }
            if i % 50 == 49 {
                let dst = (i % 3) as u32;
                let before = t.queued(NodeId(dst));
                assert_eq!(purge(dst), before);
            }
        }
        let stats = stats(&t);
        assert!(stats.duplicates_injected > 0 && stats.link_dropped > 0);
        assert!(held_seen, "jitter held something back");
        t.heal_all();
        for d in 0..3 {
            let before = t.queued(NodeId(d));
            assert_eq!(purge(d), before);
        }
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn conservation_holds_under_heavy_faults() {
        let plan = FaultPlan::none().all_links(LinkFault {
            drop: 0.4,
            duplicate: 0.4,
            jitter: 2,
        });
        let mut cfg = NetworkConfig::lossless(1)
            .with_fault(plan)
            .with_drop(MsgClass::GcBackground, 0.5);
        cfg.seed = 0xC0FFEE;
        let t: ChannelTransport<u64> = ChannelTransport::try_new(3, cfg).expect("valid");
        for i in 0..400u64 {
            let class = MsgClass::ALL[(i % 4) as usize];
            t.send_env(env((i % 3) as u32, ((i + 1) % 3) as u32, i, class, i));
            if i % 50 == 49 {
                t.pulse();
            }
        }
        t.heal_all();
        let mut delivered = 0u64;
        for d in 0..3 {
            delivered += drain(&t, d).len() as u64;
        }
        let total = |count: fn(&ChannelTransport<u64>, MsgClass) -> u64| -> u64 {
            MsgClass::ALL.iter().map(|&c| count(&t, c)).sum()
        };
        assert_eq!(
            delivered + total(Transport::dropped),
            total(Transport::sent)
        );
        assert_eq!(t.dropped(MsgClass::Dsm), 0, "reliable traffic survives");
        assert_eq!(t.sent(MsgClass::Dsm), 100, "and is never doubled");
        assert_eq!(t.in_flight(), 0);
    }
}
