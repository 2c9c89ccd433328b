//! The fault plane on the *parallel* message plane.
//!
//! [`FaultyTransport`] wraps a [`ChannelTransport`] and subjects every send
//! to the same [`FaultPlan::fate`](crate::FaultPlan::fate) verdict the
//! simulated [`crate::Network`] uses, under the same [`NetworkConfig`]. What
//! differs is only what a thread plane must supply itself:
//!
//! * **The clock is a pulse counter** advanced by the runtime's supervisor
//!   ([`FaultyTransport::pulse`]), not wall clock: the plan's partition and
//!   crash windows and its jitter are counted in pulses.
//! * **One verdict stream per directed link**, seeded from the
//!   configuration's seed plus the link identity and drawn in `fate`'s
//!   order, so the fate of the k-th envelope on link `(s, d)` is a function
//!   of `(seed, s, d, k, class, pulse)` — stable across runs even though
//!   *which* payload is the k-th send is schedule-dependent.
//! * **"Held" is a queue, not a schedule**: an envelope that must wait (for
//!   its jitter, or for the outage holding it to end) sits in its link's
//!   held queue with the pulse that releases it, clamped monotonically
//!   against the queue's tail so a link never reorders; once a link holds
//!   anything back, every later send on it queues behind.
//!
//! Accounting keeps the conservation law auditable under faults:
//! [`Transport::sent`] counts every copy this wrapper accepted
//! (duplicates included), [`Transport::dropped`] counts injected drops
//! plus downstream discards, and [`Transport::in_flight`] includes held
//! envelopes — so `in_flight() == 0` remains a sound quiescence barrier
//! and `delivered + dropped == sent` must hold at shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bmx_common::{NodeId, SplitMix64};

use crate::fault::{Fate, FaultConfigError, FaultStats};
use crate::network::{Envelope, MsgClass, NetworkConfig};
use crate::transport::{class_idx, ChannelTransport, Transport};

struct LinkState<M> {
    rng: SplitMix64,
    /// Envelopes held back, each with the pulse that releases it
    /// (nondecreasing front to back).
    held: VecDeque<(u64, Envelope<M>)>,
}

/// A fault-injecting wrapper over [`ChannelTransport`]. See the module
/// docs for what it shares with the simulator and what it does not.
pub struct FaultyTransport<M> {
    inner: ChannelTransport<M>,
    cfg: NetworkConfig,
    /// Flattened `src * nodes + dst` per-link fault state.
    links: Vec<Mutex<LinkState<M>>>,
    /// The plane's clock: advanced by [`FaultyTransport::pulse`].
    pulse: AtomicU64,
    /// Envelopes currently held back across all links. Counted into
    /// [`Transport::in_flight`] so quiescence waits for them.
    held: AtomicU64,
    /// Set by [`FaultyTransport::heal_all`]: every outage is over and
    /// nothing is held back any more.
    healed: AtomicBool,
    /// Envelopes this wrapper accepted, per class (duplicates counted).
    sent: [AtomicU64; 4],
    /// Envelopes dropped by fault injection, per class.
    fault_dropped: [AtomicU64; 4],
    stats: Mutex<FaultStats>,
}

impl<M: Send + Clone> FaultyTransport<M> {
    /// Wraps a fresh full mesh for `n` nodes under `cfg`'s fault plan, class
    /// drop rates and seed (its latency belongs to the simulator: a channel
    /// delivers as fast as the hardware does). Rejects what
    /// [`NetworkConfig::validate`] rejects, and fail-buffered crashes.
    pub fn try_new(n: usize, cfg: NetworkConfig) -> Result<Self, FaultConfigError> {
        cfg.validate()?;
        if let Some(c) = cfg.fault.crashes.iter().find(|c| !c.amnesia) {
            return Err(FaultConfigError::BufferedCrashOnThreads { node: c.node });
        }
        let links = (0..n * n)
            .map(|i| {
                let (src, dst) = (i / n, i % n);
                let link_seed = cfg.seed
                    ^ ((src as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    ^ ((dst as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
                Mutex::new(LinkState {
                    rng: SplitMix64::new(link_seed),
                    held: VecDeque::new(),
                })
            })
            .collect();
        Ok(FaultyTransport {
            inner: ChannelTransport::new(n),
            cfg,
            links,
            pulse: AtomicU64::new(0),
            held: AtomicU64::new(0),
            healed: AtomicBool::new(false),
            sent: Default::default(),
            fault_dropped: Default::default(),
            stats: Mutex::new(FaultStats::default()),
        })
    }

    /// The configuration in force (the supervisor reads the plan's crash
    /// schedule from it).
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The current pulse (the plane's clock reading).
    pub fn now_pulse(&self) -> u64 {
        self.pulse.load(Ordering::SeqCst)
    }

    /// Advances the clock one pulse and releases every held envelope due
    /// at the new pulse. Returns the new pulse. The runtime's supervisor
    /// calls this periodically; tests may call it directly to drive
    /// partitions deterministically.
    pub fn pulse(&self) -> u64 {
        let p = self.pulse.fetch_add(1, Ordering::SeqCst) + 1;
        let heals = self.cfg.fault.partitions.iter().filter(|x| x.end == p);
        self.stats.lock().expect("stats").partitions_healed += heals.count() as u64;
        self.flush(p);
        p
    }

    /// Ends every outage for good and releases all held traffic. Shutdown
    /// calls this so `Drain` cannot hang on a never-healing cut.
    pub fn heal_all(&self) {
        self.healed.store(true, Ordering::SeqCst);
        self.flush(u64::MAX);
    }

    /// Counters for every fault injected so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().expect("stats")
    }

    fn flush(&self, pulse: u64) {
        for link in &self.links {
            let mut st = link.lock().expect("link");
            while st.held.front().is_some_and(|(due, _)| *due <= pulse) {
                let (_, env) = st.held.pop_front().expect("front checked");
                // Forward before decrementing `held`: in_flight must
                // never momentarily read zero while a message exists.
                self.inner.send_env(env);
                self.held.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

impl<M: Send + Clone> Transport<M> for FaultyTransport<M> {
    fn send_env(&self, env: Envelope<M>) {
        let (src, dst, class) = (env.src, env.dst, env.class);
        let li = src.0 as usize * self.inner.nodes() + dst.0 as usize;
        let mut st = self.links[li].lock().expect("link");
        // After `heal_all` it is the end of time: `u64::MAX` lies in no
        // window and nothing is due later. The verdict streams keep
        // advancing, but a drained shutdown must not strand late traffic
        // behind a release that nobody will pulse.
        let now = if self.healed.load(Ordering::SeqCst) {
            u64::MAX
        } else {
            self.pulse.load(Ordering::SeqCst)
        };
        let class_loss = self.cfg.class_loss(class);
        let fate = self
            .cfg
            .fault
            .fate(&mut st.rng, class_loss, src, dst, class, now);
        self.stats.lock().expect("stats").note(&fate);
        self.sent[class_idx(class)].fetch_add(1, Ordering::Relaxed);
        let (copies, mut release) = match fate {
            Fate::Drop(_) => {
                self.fault_dropped[class_idx(class)].fetch_add(1, Ordering::Relaxed);
                return;
            }
            Fate::Deliver {
                copies,
                extra_delay,
                not_before,
            } => {
                let outage_end = not_before.map_or(0, |(_, end)| end);
                (copies, now.saturating_add(extra_delay).max(outage_end))
            }
        };
        self.sent[class_idx(class)].fetch_add(copies - 1, Ordering::Relaxed);
        let copies = (copies > 1).then(|| env.clone()).into_iter().chain([env]);
        // FIFO: behind whatever the link already holds (a racing `pulse` or
        // `heal_all` that has not reached this link yet releases both).
        let tail = st.held.back().map(|(due, _)| *due);
        if tail.is_none() && release <= now {
            copies.for_each(|env| self.inner.send_env(env));
            return;
        }
        release = release.max(tail.unwrap_or(0));
        for env in copies {
            self.held.fetch_add(1, Ordering::SeqCst);
            st.held.push_back((release, env));
        }
    }

    fn try_recv(&self, dst: NodeId) -> Option<Envelope<M>> {
        self.inner.try_recv(dst)
    }

    fn ack_delivered(&self) {
        self.inner.ack_delivered();
    }

    fn in_flight(&self) -> u64 {
        self.inner.in_flight() + self.held.load(Ordering::SeqCst)
    }

    fn sent(&self, class: MsgClass) -> u64 {
        self.sent[class_idx(class)].load(Ordering::Relaxed)
    }

    fn dropped(&self, class: MsgClass) -> u64 {
        self.fault_dropped[class_idx(class)].load(Ordering::Relaxed) + self.inner.dropped(class)
    }

    fn note_dropped(&self, class: MsgClass) {
        self.inner.note_dropped(class);
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

    fn transport(n: usize, fault: FaultPlan, seed: u64) -> FaultyTransport<u64> {
        let mut cfg = NetworkConfig::lossless(1).with_fault(fault);
        cfg.seed = seed;
        FaultyTransport::try_new(n, cfg).expect("valid plan")
    }

    fn drain(t: &FaultyTransport<u64>, dst: u32) -> Vec<u64> {
        let mut got = Vec::new();
        while let Some(e) = t.try_recv(NodeId(dst)) {
            got.push(e.payload);
            t.ack_delivered();
        }
        got
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
            let before = t.stats();
            t.send_env(env(0, 1, i + 1, MsgClass::StubTable, i));
            let after = t.stats();
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
    fn try_new_rejects_what_the_simulator_rejects_and_buffered_crashes() {
        let mut cfg = NetworkConfig::lossless(1);
        cfg.fault = FaultPlan::none().all_links(LinkFault::dropping(1.5));
        let err = FaultyTransport::<u64>::try_new(2, cfg).err().expect("drop");
        assert!(err.to_string().contains("probability out of range"));

        let mut cfg = NetworkConfig::lossless(1);
        cfg.drop_rate.insert(MsgClass::Dsm, 0.5);
        let err = FaultyTransport::<u64>::try_new(2, cfg).err().expect("dsm");
        assert!(err.to_string().contains("assumed reliable"));

        let cfg = NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash(NodeId(1), 2, 9));
        assert_eq!(
            FaultyTransport::<u64>::try_new(2, cfg).err(),
            Some(FaultConfigError::BufferedCrashOnThreads { node: NodeId(1) })
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
        let stats = t.stats();
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
        t.pulse(); // 1: down
        t.send_env(env(0, 1, 2, MsgClass::Dsm, 2));
        t.send_env(env(1, 0, 1, MsgClass::StubTable, 3));
        t.pulse(); // 2
        t.pulse(); // 3: back
        t.send_env(env(0, 1, 3, MsgClass::Dsm, 4));
        assert_eq!(drain(&t, 1), vec![1, 4]);
        assert_eq!(drain(&t, 0), Vec::<u64>::new());
        let stats = t.stats();
        assert_eq!((stats.amnesia_dropped, stats.crash_dropped), (1, 1));
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
        let t: FaultyTransport<u64> = FaultyTransport::try_new(3, cfg).expect("valid");
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
        assert_eq!(delivered + t.dropped_total(), t.sent_total());
        assert_eq!(t.dropped(MsgClass::Dsm), 0, "reliable traffic survives");
        assert_eq!(t.sent(MsgClass::Dsm), 100, "and is never doubled");
        assert_eq!(t.in_flight(), 0);
    }
}
