//! Drain-based leak watchdogs.
//!
//! Each detector watches a registry signal that healthy runs *drain* —
//! from-space retention drops when the reuse protocol hands segments
//! back, scion tables shrink when the cleaner cuts dead scions, Lamport
//! clocks advance while neighbours make progress. A leak is the absence of drain over a calibrated
//! window, not a threshold crossing: absolute sizes vary wildly across
//! workloads, but "never goes down" is workload-independent.
//!
//! Detectors are evaluated from [`crate::tick`] every
//! [`WatchdogConfig::interval`] ticks. A firing emits
//! [`bmx_trace::TraceEvent::MetricAlarm`] carrying the tick the episode
//! started and a causal witness (the node's Lamport clock just before
//! the alarm), and latches: the same episode fires once, and the latch
//! clears only when the signal drains.

use bmx_common::NodeId;
use bmx_trace::{AlarmKind, TraceEvent};

use crate::registry::{Gge, Registry};

/// Watchdog tuning. Defaults are calibrated so the repo's chaos soaks —
/// thousands of ticks of faults, partitions, and collector rotation —
/// stay silent while injected leaks (a disabled cleaner, a from-space
/// that never reuses) fire within one soak.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Ticks between detector evaluations.
    pub interval: u64,
    /// Ticks the from-space retention gauge may sit nonzero without a
    /// single decrease before [`AlarmKind::FromSpaceLeak`] fires. Chaos
    /// soaks legitimately accumulate retention for their whole ~7k-tick
    /// run (they exercise retirement, not reuse), so the default is far
    /// past that.
    pub fromspace_window: u64,
    /// Consecutive strictly-increasing scion-table readings before
    /// [`AlarmKind::ScionBacklog`] fires; any decrease resets the streak.
    pub scion_increases: u32,
    /// Ticks a node's Lamport clock may sit still before
    /// [`AlarmKind::ClockStall`] fires — but only if the rest of the
    /// cluster advanced meanwhile (see
    /// [`stall_min_progress`](WatchdogConfig::stall_min_progress)), so
    /// global quiescence (settle loops) never alarms.
    pub stall_window: u64,
    /// Minimum advance of the cluster-wide max Lamport clock over the
    /// stall window for the stall to count as "left behind".
    pub stall_min_progress: u64,
    /// Parallel mode only: ticks (supervisor pulses) the runtime's
    /// progress total (completed handle ops plus applied deliveries, the
    /// `progress` argument of [`crate::tick`]) may sit frozen *while
    /// messages are in flight* before [`AlarmKind::ProgressStall`] fires.
    /// Quiet clusters (no pending work) never alarm, so idle time is fine;
    /// the simulation passes no pending work, so it never alarms either.
    pub progress_window: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval: 32,
            fromspace_window: 20_000,
            scion_increases: 12,
            stall_window: 1_000,
            stall_min_progress: 64,
            progress_window: 2_000,
        }
    }
}

/// One node's detector state.
#[derive(Default, Clone, Debug)]
struct NodeWd {
    // From-space leak: value last seen, episode start, latch.
    fs_last: u64,
    fs_since: Option<u64>,
    fs_latched: bool,
    // Scion backlog: value last seen, strictly-increasing streak, streak
    // start, latch.
    sc_last: u64,
    sc_streak: u32,
    sc_since: u64,
    sc_latched: bool,
    // Clock stall: clock last seen, tick it last moved, cluster-wide max
    // clock at that moment, latch.
    ck_last: u64,
    ck_changed_at: u64,
    ck_global_at_change: u64,
    ck_latched: bool,
}

/// All per-node detector state, grown to match the registry.
#[derive(Default, Debug)]
pub(crate) struct WatchdogState {
    nodes: Vec<NodeWd>,
    primed: bool,
    // Progress stall (cluster-wide, parallel mode): last progress total,
    // the tick pending work was first seen with that total, and the latch.
    pg_last: u64,
    pg_since: Option<u64>,
    pg_latched: bool,
}

fn fire(reg: &Registry, node: u32, kind: AlarmKind, value: u64, since_tick: u64) {
    reg.count_alarm(kind);
    reg.note_alarm(node, kind);
    let witness_lamport = bmx_trace::clock(NodeId(node));
    bmx_trace::emit(
        NodeId(node),
        TraceEvent::MetricAlarm {
            kind,
            value,
            since_tick,
            witness_lamport,
        },
    );
}

/// Fires `kind` at `node` immediately, bypassing every detector. The
/// alarm is indistinguishable from a detector-fired one (counted, noted
/// per node, emitted on the trace plane), which is the point: test
/// harnesses use it to exercise the alarm -> blackbox pipeline without
/// having to manufacture a real leak or stall first.
pub fn inject_alarm(reg: &Registry, node: u32, kind: AlarmKind) {
    fire(reg, node, kind, 0, 0);
}

/// Runs every detector against the registry's current readings.
/// `pending_work` is the messages in flight: the transport's
/// `in_flight()` on threads, 0 in the tick simulation. While it stays
/// nonzero and `progress`, the runtime's completed ops plus applied
/// deliveries, never advances for [`WatchdogConfig::progress_window`]
/// ticks, the runtime is livelocked or deadlocked —
/// [`AlarmKind::ProgressStall`] fires once (at node 0, as the
/// cluster-wide designee) and latches until progress resumes.
pub(crate) fn evaluate(reg: &Registry, now: u64, pending_work: u64, progress: u64) {
    let cfg = reg.cfg;
    let n = reg.node_count();
    if n == 0 {
        return;
    }
    let trace_on = bmx_trace::enabled();
    let clocks = (0..n as u32).map(|i| bmx_trace::clock(NodeId(i)));
    let global_clock = clocks.max().unwrap_or(0);

    let mut wd = reg.watchdog.lock().expect("watchdog lock");
    if wd.nodes.len() < n {
        wd.nodes.resize(n, NodeWd::default());
    }
    // The first evaluation only seeds baselines: a registry installed
    // mid-run must not read pre-existing values as fresh increases.
    let primed = wd.primed;
    wd.primed = true;

    for i in 0..n {
        let scope = reg.node(i as u32);
        let st = &mut wd.nodes[i];

        // --- From-space leak: nonzero and never draining. ---
        let fs = scope.gauge(Gge::FromSpaceRetainedWords);
        if fs == 0 || (primed && fs < st.fs_last) {
            st.fs_since = None;
            st.fs_latched = false;
        } else {
            let since = *st.fs_since.get_or_insert(now);
            if !st.fs_latched && now.saturating_sub(since) >= cfg.fromspace_window {
                st.fs_latched = true;
                fire(reg, i as u32, AlarmKind::FromSpaceLeak, fs, since);
            }
        }
        st.fs_last = fs;

        // --- Scion backlog: monotone growth with no cut in between. ---
        let sc = scope.gauge(Gge::ScionTableSize);
        if primed {
            if sc > st.sc_last {
                if st.sc_streak == 0 {
                    st.sc_since = now;
                }
                st.sc_streak += 1;
                if !st.sc_latched && st.sc_streak >= cfg.scion_increases {
                    st.sc_latched = true;
                    fire(reg, i as u32, AlarmKind::ScionBacklog, sc, st.sc_since);
                }
            } else if sc < st.sc_last {
                st.sc_streak = 0;
                st.sc_latched = false;
            }
        }
        st.sc_last = sc;

        // --- Clock stall: this node frozen while the cluster moves. ---
        if trace_on {
            let ck = bmx_trace::clock(NodeId(i as u32));
            if ck != st.ck_last || !primed {
                st.ck_last = ck;
                st.ck_changed_at = now;
                st.ck_global_at_change = global_clock;
                st.ck_latched = false;
            } else if !st.ck_latched
                && now.saturating_sub(st.ck_changed_at) >= cfg.stall_window
                && global_clock.saturating_sub(st.ck_global_at_change) >= cfg.stall_min_progress
            {
                st.ck_latched = true;
                fire(reg, i as u32, AlarmKind::ClockStall, ck, st.ck_changed_at);
                // Emitting the alarm ticked this node's clock; swallow
                // that self-inflicted advance or the latch would clear
                // and the same stall would re-fire every window.
                st.ck_last = bmx_trace::clock(NodeId(i as u32));
            }
        }
    }

    // --- Progress stall: work in flight, nothing completing. ---
    if progress != wd.pg_last || pending_work == 0 {
        wd.pg_last = progress;
        wd.pg_since = None;
        wd.pg_latched = false;
        return;
    }
    let since = *wd.pg_since.get_or_insert(now);
    if !wd.pg_latched && now.saturating_sub(since) >= cfg.progress_window {
        wd.pg_latched = true;
        drop(wd);
        fire(reg, 0, AlarmKind::ProgressStall, pending_work, since);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::new(WatchdogConfig {
            interval: 1,
            fromspace_window: 100,
            scion_increases: 3,
            stall_window: 40,
            stall_min_progress: 8,
            progress_window: 30,
        })
    }

    #[test]
    fn fromspace_leak_fires_only_when_retention_never_drains() {
        let r = reg();
        let n0 = r.node(0);
        n0.set(Gge::FromSpaceRetainedWords, 512);
        evaluate(&r, 0, 0, 0); // primes baselines
        for t in 1..=90 {
            evaluate(&r, t, 0, 0);
        }
        assert_eq!(r.alarms(AlarmKind::FromSpaceLeak), 0, "window not elapsed");
        // One drain resets the episode...
        n0.set(Gge::FromSpaceRetainedWords, 500);
        evaluate(&r, 95, 0, 0);
        for t in 96..=190 {
            evaluate(&r, t, 0, 0);
        }
        assert_eq!(
            r.alarms(AlarmKind::FromSpaceLeak),
            0,
            "drain reset the clock"
        );
        // ...but stuck-nonzero retention eventually fires, exactly once.
        for t in 191..=300 {
            evaluate(&r, t, 0, 0);
        }
        assert_eq!(r.alarms(AlarmKind::FromSpaceLeak), 1);
        evaluate(&r, 301, 0, 0);
        assert_eq!(r.alarms(AlarmKind::FromSpaceLeak), 1, "latched");
    }

    #[test]
    fn zero_retention_never_alarms() {
        let r = reg();
        r.node(0);
        for t in 0..500 {
            evaluate(&r, t, 0, 0);
        }
        assert_eq!(r.total_alarms(), 0);
    }

    #[test]
    fn scion_backlog_needs_uninterrupted_growth() {
        let r = reg();
        let n0 = r.node(0);
        let mut t = 0;
        let feed = |r: &Registry, v: u64, t: &mut u64| {
            n0.set(Gge::ScionTableSize, v);
            evaluate(r, *t, 0, 0);
            *t += 1;
        };
        feed(&r, 10, &mut t); // baseline
        feed(&r, 11, &mut t);
        feed(&r, 12, &mut t);
        feed(&r, 9, &mut t); // the cleaner cut scions: streak resets
        feed(&r, 10, &mut t);
        feed(&r, 11, &mut t);
        assert_eq!(r.alarms(AlarmKind::ScionBacklog), 0);
        feed(&r, 12, &mut t); // third consecutive increase
        assert_eq!(r.alarms(AlarmKind::ScionBacklog), 1);
        feed(&r, 13, &mut t);
        assert_eq!(r.alarms(AlarmKind::ScionBacklog), 1, "latched");
    }

    #[test]
    fn clock_stall_ignores_global_quiescence() {
        bmx_trace::install(bmx_trace::UNBOUNDED);
        let r = reg();
        r.node(0);
        r.node(1);
        evaluate(&r, 0, 0, 0); // primes
                               // Nobody emits anything: both clocks frozen, no alarm.
        for t in 1..200 {
            evaluate(&r, t, 0, 0);
        }
        assert_eq!(r.alarms(AlarmKind::ClockStall), 0, "quiescence is fine");
        // Node 1 races ahead while node 0 stays frozen.
        for t in 200..300 {
            bmx_trace::emit(
                NodeId(1),
                TraceEvent::TokenRelease {
                    oid: bmx_common::Oid(1),
                },
            );
            evaluate(&r, t, 0, 0);
        }
        assert_eq!(r.alarms(AlarmKind::ClockStall), 1);
        bmx_trace::disable();
    }

    #[test]
    fn progress_stall_needs_frozen_progress_with_pending_work() {
        // Fed the way the supervisor feeds it: through `crate::tick`.
        let r = std::sync::Arc::new(reg());
        crate::install_registry(std::sync::Arc::clone(&r));
        r.node(0);
        let mut progress = 10;
        crate::tick(0, 5, progress); // primes
                                     // Pending work but progress keeps advancing: no alarm.
        for t in 1..100 {
            progress += 1;
            crate::tick(t, 5, progress);
        }
        assert_eq!(r.alarms(AlarmKind::ProgressStall), 0, "progress is fine");
        // Idle cluster (nothing pending) with frozen progress: no alarm.
        for t in 100..200 {
            crate::tick(t, 0, progress);
        }
        assert_eq!(r.alarms(AlarmKind::ProgressStall), 0, "idle is fine");
        // Frozen progress while messages are in flight: fires, once.
        for t in 200..300 {
            crate::tick(t, 5, progress);
        }
        assert_eq!(r.alarms(AlarmKind::ProgressStall), 1);
        assert_eq!(r.last_alarm(0), Some(AlarmKind::ProgressStall));
        for t in 300..350 {
            crate::tick(t, 5, progress);
        }
        assert_eq!(r.alarms(AlarmKind::ProgressStall), 1, "latched");
        // Progress resumes: the latch clears, a fresh stall re-fires.
        progress += 1;
        for t in 350..450 {
            crate::tick(t, 5, progress);
        }
        assert_eq!(r.alarms(AlarmKind::ProgressStall), 2);
        crate::disable();
    }

    #[test]
    fn alarm_event_carries_a_witness_from_the_node_clock() {
        bmx_trace::install(bmx_trace::UNBOUNDED);
        let r = reg();
        let n0 = r.node(0);
        // Give node 0 some causal history to witness.
        bmx_trace::emit(
            NodeId(0),
            TraceEvent::TokenRelease {
                oid: bmx_common::Oid(9),
            },
        );
        n0.set(Gge::FromSpaceRetainedWords, 100);
        for t in 0..=110 {
            evaluate(&r, t, 0, 0);
        }
        let recs = bmx_trace::take();
        let alarm = recs
            .iter()
            .find(|rec| matches!(rec.event, TraceEvent::MetricAlarm { .. }))
            .expect("alarm emitted");
        if let TraceEvent::MetricAlarm {
            kind,
            witness_lamport,
            since_tick,
            ..
        } = alarm.event
        {
            assert_eq!(kind, AlarmKind::FromSpaceLeak);
            assert_eq!(witness_lamport, 1, "witnessed by the prior event");
            assert!(witness_lamport < alarm.lamport);
            assert!(since_tick <= alarm.tick);
        }
        assert!(
            bmx_trace::query::metric_alarm_hb_violations(&recs).is_empty(),
            "watchdog alarms must satisfy their own causality checker"
        );
        bmx_trace::disable();
    }
}
