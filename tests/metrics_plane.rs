//! The metrics plane's integration contract (DESIGN.md §9).
//!
//! Three promises are pinned here, each against a *real* cluster rather
//! than the unit fixtures in `crates/metrics`:
//!
//! 1. **Observational purity** — a fixed-seed faulty run produces
//!    bit-identical counters, per-class network stats, and fault stats
//!    whether the metrics plane is installed or not. Instrumentation may
//!    read the simulation; it must never steer it.
//! 2. **Watchdog calibration** — the from-space leak detector stays silent
//!    on a healthy run that drains its from-space, and fires on the same
//!    cluster when the drain never happens.
//! 3. **Exposition fidelity** — the snapshot of a live run survives the
//!    JSON round-trip losslessly.

use bmx_repro::metrics::{self, watchdog::WatchdogConfig, Ctr, Gge};
use bmx_repro::prelude::*;
use bmx_repro::trace::AlarmKind;
use bmx_repro::workloads::churn;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Everything a [`faulty_run`] computes that could conceivably be
/// perturbed: per-node counters, per-class (sent, dropped, duplicated)
/// network stats, and the round count.
type RunDigest = (Vec<Vec<u64>>, Vec<(u64, u64, u64)>, usize);

/// A short faulty churn run, fully determined by the seed: link loss,
/// duplication, jitter, a healing partition.
fn faulty_run(seed: u64) -> RunDigest {
    let plan = FaultPlan::none()
        .all_links(LinkFault {
            drop: 0.10,
            duplicate: 0.20,
            jitter: 2,
        })
        .partition(vec![n(0)], vec![n(1), n(2)], 300, 500);
    let mut net = NetworkConfig::lossless(1).with_fault(plan);
    net.seed = seed;
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net,
        retry: Some(RetryPolicy::default()),
        ..Default::default()
    });

    let mut sites = Vec::new();
    for i in 0..3 {
        let node = n(i);
        let b = c.create_bunch(node).unwrap();
        let reg = c.alloc(node, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        c.add_root(node, reg);
        sites.push((node, b, reg));
    }
    let shared = c.create_bunch(n(0)).unwrap();
    let migrate: Vec<Addr> = (0..3)
        .map(|_| {
            let o = c.alloc(n(0), shared, &ObjSpec::with_refs(2, &[0])).unwrap();
            c.add_root(n(0), o);
            o
        })
        .collect();
    c.map_bunch(n(1), shared, n(0)).unwrap();
    c.map_bunch(n(2), shared, n(0)).unwrap();

    let mut rounds = 0;
    while c.net.now() < 800 {
        churn::chaos_round(&mut c, &sites, &migrate, rounds, seed).unwrap();
        c.run_bgc([n(0), n(1), n(2)][rounds % 3], shared).unwrap();
        rounds += 1;
    }
    c.settle(3_000).unwrap();

    let counters = (0..3)
        .map(|i| StatKind::ALL.iter().map(|&k| c.stats[i].get(k)).collect())
        .collect();
    let per_class = MsgClass::ALL
        .iter()
        .map(|&cl| {
            let s = c.net.class_stats(cl);
            (s.sent, s.dropped, s.duplicated)
        })
        .collect();
    (counters, per_class, rounds)
}

/// Promise 1: installing the metrics plane does not perturb the simulation.
/// Same seed, metered and unmetered, bit-identical outcomes.
#[test]
fn metered_run_is_bit_identical_to_unmetered() {
    metrics::disable();
    let bare = faulty_run(0x5EED_CAFE);

    let reg = metrics::install();
    let metered = faulty_run(0x5EED_CAFE);
    assert_eq!(
        bare, metered,
        "metrics instrumentation perturbed a fixed-seed run"
    );
    // ... and the metered run actually measured something.
    assert!(
        (0..3)
            .map(|i| reg.node(i).ctr(Ctr::BgcCollections))
            .sum::<u64>()
            > 0,
        "the metered run recorded no collections"
    );
    metrics::disable();
}

/// Promise 2a: a healthy run — collections happen, from-space drains via
/// reuse — never trips the leak watchdog.
#[test]
fn fromspace_watchdog_is_silent_when_the_drain_runs() {
    let reg = metrics::install_with(WatchdogConfig {
        fromspace_window: 200,
        ..WatchdogConfig::default()
    });
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let b = c.create_bunch(n(0)).unwrap();
    let root = c.alloc(n(0), b, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n(0), root);

    for _ in 0..6 {
        // Garbage + a collection retires a segment into from-space...
        let junk = c.alloc(n(0), b, &ObjSpec::data(4)).unwrap();
        c.write_ref(n(0), root, 0, junk).unwrap();
        c.write_data(n(0), junk, 0, 7).unwrap();
        c.run_bgc(n(0), b).unwrap();
        // ... and the reuse path drains it before the window closes.
        c.step(120).unwrap();
        c.reuse_from_space(n(0), b).unwrap();
        c.step(120).unwrap();
    }
    assert_eq!(
        reg.alarms(AlarmKind::FromSpaceLeak),
        0,
        "leak watchdog fired on a draining run"
    );
    metrics::disable();
}

/// Promise 2b: the same cluster with the drain withheld — from-space
/// retention stays nonzero for a whole window — fires exactly the
/// from-space alarm, and latches rather than re-firing every check.
#[test]
fn fromspace_watchdog_fires_when_the_drain_is_withheld() {
    let reg = metrics::install_with(WatchdogConfig {
        fromspace_window: 200,
        ..WatchdogConfig::default()
    });
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let b = c.create_bunch(n(0)).unwrap();
    let root = c.alloc(n(0), b, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n(0), root);

    let junk = c.alloc(n(0), b, &ObjSpec::data(4)).unwrap();
    c.write_ref(n(0), root, 0, junk).unwrap();
    c.run_bgc(n(0), b).unwrap();
    assert!(
        reg.node(0).gauge(Gge::FromSpaceRetainedWords) > 0,
        "collection should have retired a segment into from-space"
    );

    // Never drain; drive background time well past the detection window.
    c.step(600).unwrap();
    assert_eq!(
        reg.alarms(AlarmKind::FromSpaceLeak),
        1,
        "leak watchdog latched one alarm for the stuck from-space"
    );
    assert_eq!(reg.alarms(AlarmKind::RetryStorm), 0);
    assert_eq!(reg.alarms(AlarmKind::ScionBacklog), 0);
    metrics::disable();
}

/// Promise 2c: on real threads the watchdogs read one clock, the
/// supervisor's pulse. A segment is retired and never reused while the two
/// nodes pass one write token back and forth, each sending more envelopes
/// than the leak window has pulses, in a small fraction of the time the
/// pulse clock needs to cover that window: nothing may fire. (When every
/// send ticked its site's private network, that network's tick count drove
/// the shared registry's detectors too, and this run raised the alarm.)
#[test]
fn parallel_watchdogs_run_on_the_pulse_clock_alone() {
    const WINDOW: u32 = 5_000;
    let pulse = std::time::Duration::from_millis(5);
    let reg = metrics::install_with(WatchdogConfig {
        interval: 1,
        fromspace_window: u64::from(WINDOW),
        ..WatchdogConfig::default()
    });
    let pc = ParallelCluster::spawn_with_chaos(
        ClusterConfig::with_nodes(2),
        ChaosConfig {
            pulse,
            restart: false,
            ..ChaosConfig::default()
        },
    );
    let handles = [pc.handle(n(0)), pc.handle(n(1))];
    let bunch = handles[0].create_bunch().unwrap();
    let obj = handles[0].alloc(bunch, &ObjSpec::data(2)).unwrap();
    handles[0].add_root(obj).unwrap();
    handles[1].map_bunch(bunch, n(0)).unwrap();
    handles[1].add_root(obj).unwrap();
    handles[0].run_bgc(bunch).unwrap();
    assert!(
        reg.node(0).gauge(Gge::FromSpaceRetainedWords) > 0,
        "collection should have retired a segment into from-space"
    );

    let started = std::time::Instant::now();
    for i in 0..2 * WINDOW {
        let h = &handles[i as usize % 2];
        h.acquire_write(obj).unwrap();
        let v = h.read_data(obj, 0).unwrap();
        h.write_data(obj, 0, v + 1).unwrap();
        h.release(obj).unwrap();
    }
    assert!(
        started.elapsed() < pulse * (WINDOW / 2),
        "too slow to tell: the pulse clock may have covered the window"
    );
    let (c, report) = pc.shutdown(Shutdown::Drain).unwrap();
    assert!(
        report.sent >= 4 * u64::from(WINDOW),
        "a request and a grant per transfer: {report:?}"
    );
    assert_eq!(
        reg.alarms(AlarmKind::FromSpaceLeak),
        0,
        "leak watchdog fired before {WINDOW} pulses had passed"
    );
    assert_eq!(c.net.now(), 0, "a site's network never ticks");
    metrics::disable();
}

/// Promise 3: snapshot → JSON → snapshot is lossless on a real run, and the
/// diff against a baseline only reports what moved.
#[test]
fn exposition_round_trips_on_a_live_run() {
    metrics::install();
    let baseline = metrics::snapshot();
    faulty_run(0xD05E_D05E);

    let snap = metrics::snapshot();
    let json = metrics::json::to_json(&snap);
    let back = metrics::json::from_json(&json).expect("parse own output");
    assert_eq!(snap, back, "JSON round-trip lost entries");

    let delta = snap.diff(&baseline);
    assert!(
        delta
            .iter()
            .any(|(k, &v)| k.ends_with("/bgc_collections") && v > 0),
        "diff should show the run's collections"
    );
    assert!(
        delta.keys().all(|k| snap.get(k) != baseline.get(k)),
        "diff must only contain changed entries"
    );

    metrics::disable();
}
