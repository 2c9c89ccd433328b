//! Restart hygiene of the report retry daemon, at cluster level.
//!
//! The unit tests in `bmx::retry` pin `hasten` and `forget_origin` in
//! isolation; these tests pin the *wiring* in `Cluster::note_fault_events`:
//! a `NodeRestarted` fault event pulls retry timers forward for reports
//! destined to the restarted node and resets their recovery-latency
//! baseline, and an amnesia crash drops the reports the crashed node itself
//! was tracking so the restarted instance inherits no pre-crash timers.

use bmx_repro::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

const CRASH_START: u64 = 200;
const CRASH_END: u64 = 500;

fn policy() -> RetryPolicy {
    RetryPolicy {
        initial_interval: 4,
        backoff: 2,
        max_interval: 32,
        // Far more than the crash window can consume: a drained entry in
        // these tests can only mean delivery or an amnesia forget, never a
        // silent give-up.
        budget: 100,
    }
}

/// A report published into a crash outage is recovered promptly at restart,
/// and its measured recovery latency spans the *restart* to the ack — not
/// the pre-crash publication to the ack. The crash window is ~300 ticks
/// long, so a latency counter anywhere near it means the restart did not
/// reset the baseline.
#[test]
fn restart_resets_the_recovery_latency_baseline() {
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash_amnesia(
            n(1),
            CRASH_START,
            CRASH_END,
        )),
        retry: Some(policy()),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1) = (n(0), n(1));
    let b0 = c.create_bunch(n0).unwrap();
    let b1 = c.create_bunch(n1).unwrap();
    let src = c.alloc(n0, b0, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, src);
    c.write_ref(n0, src, 0, tgt).unwrap();
    assert!(c.net.now() < CRASH_START, "setup ran into the crash window");

    // Publish the stub table into the outage: the destination is down, so
    // the daemon keeps re-sending into the void with growing backoff.
    c.step(CRASH_START + 10 - c.net.now()).unwrap();
    let publish_tick = c.net.now();
    c.run_bgc(n0, b0).unwrap();
    c.step(20).unwrap();
    assert_eq!(
        c.retries_pending(),
        1,
        "the report is tracked as undelivered"
    );

    // Run to just past the restart: the re-sent report lands, the ack
    // drains the entry within a handful of ticks — no residual backed-off
    // wait.
    c.step(CRASH_END + 20 - c.net.now()).unwrap();
    assert_eq!(
        c.retries_pending(),
        0,
        "the report drained promptly after the restart"
    );
    assert_eq!(c.stats[1].get(StatKind::NodeRestarts), 1);

    // The discriminator: latency is measured from the restart tick. The
    // publication-to-restart gap alone is ~10x the bound asserted here.
    let lat = c.stats[0].get(StatKind::RecoveryLatencyTicks);
    assert!(lat > 0, "a recovered report measures a nonzero latency");
    assert!(
        lat < 30,
        "recovery latency {lat} was measured from the pre-crash \
         publication at tick {publish_tick}, not from the restart at tick \
         {CRASH_END}"
    );

    // And the report actually applied: the scion protecting `tgt` exists.
    assert_eq!(
        c.gc.node(n1).bunch(b1).unwrap().scion_table.inter().len(),
        1
    );
    let s = c.run_bgc(n1, b1).unwrap();
    assert_eq!(s.reclaimed, 0, "the reported stub keeps the target alive");
}

/// An amnesia crash wipes the victim's own retry table: reports it was
/// re-sending before the crash are forgotten — not inherited by the
/// restarted instance, and not counted as budget exhaustion. The next
/// collection tracks a fresh report that supersedes anything forgotten.
#[test]
fn amnesia_restart_inherits_no_pre_crash_retry_timers() {
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash_amnesia(
            n(1),
            CRASH_START,
            CRASH_END,
        )),
        retry: Some(policy()),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1) = (n(0), n(1));
    let b0 = c.create_bunch(n0).unwrap();
    let b1 = c.create_bunch(n1).unwrap();
    let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n0, b0, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, src);
    c.write_ref(n1, src, 0, tgt).unwrap();
    assert!(c.net.now() < CRASH_START, "setup ran into the crash window");

    // The victim publishes a report that the network eats, so the entry is
    // pending — and re-sending — right up to the amnesia crash.
    c.net.set_drop(MsgClass::StubTable, 1.0);
    c.step(CRASH_START - 30 - c.net.now()).unwrap();
    c.run_bgc(n1, b1).unwrap();
    c.step(10).unwrap();
    assert_eq!(c.retries_pending(), 1, "the eaten report is tracked");

    // Through the crash and the rejoin. The wipe must drop the entry the
    // moment the crash fires; nothing re-tracks it afterwards.
    c.net.set_drop(MsgClass::StubTable, 0.0);
    c.step(CRASH_END + 50 - c.net.now()).unwrap();
    c.settle(2_000).unwrap();
    assert_eq!(
        c.retries_pending(),
        0,
        "the restarted node inherited a pre-crash retry entry"
    );
    assert_eq!(
        c.stats[1].get(StatKind::RetryBudgetExhausted),
        0,
        "the entry was forgotten by the wipe, not given up on"
    );
    assert_eq!(c.stats[1].get(StatKind::AmnesiaWipes), 1);
    assert_eq!(c.stats[1].get(StatKind::NodeRestarts), 1);
    assert!(!c.in_recovery(n1), "the rejoin handshake completed");
}
