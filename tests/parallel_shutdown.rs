//! Quiesce and shutdown semantics of the parallel runtime: whatever is
//! in flight when shutdown begins has a *deterministic per-mode fate* —
//! [`Shutdown::Drain`] applies every envelope, [`Shutdown::Drop`] applies
//! the reliability-requiring DSM class and discards loss-tolerant
//! collector traffic whole. In neither mode is an envelope ever
//! half-applied: application happens atomically under the protocol lock,
//! and the transport accounting must conserve (`delivered + dropped ==
//! sent`) on every seed.
//!
//! The property is checked over many seeds with traffic deliberately left
//! in flight at the shutdown call (a collection is kicked off and *not*
//! quiesced), so the drivers race the phase flip — every interleaving
//! must land in one of the two legal fates and leave the cluster
//! audit-clean.

use std::sync::Arc;
use std::time::Duration;

use bmx_common::SplitMix64;
use bmx_repro::bmx::audit;
use bmx_repro::prelude::*;
use parking_lot::Mutex;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

const NODES: u32 = 3;

/// Serializes the tests in this binary: one of them installs the
/// *process-global* trace recorder and counts what one run records.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`SERIAL`]. The mutex guards no data, so a test that panicked while
/// holding it left nothing inconsistent: ignore the poison.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Outcome {
    cluster: Cluster,
    report: ShutdownReport,
    live: Vec<(NodeId, Addr)>,
    incs_applied: u64,
}

/// Seeded burst of cross-node increments, then a *guaranteed* in-flight
/// backlog at the phase flip: a thread runs several collections inside
/// one protocol-lock hold (their report/scion envelopes are exported to
/// the transport immediately) and keeps holding the lock while the main
/// thread calls shutdown. The drivers can pop at most one envelope each
/// before blocking on the lock, so the backlog is still pending when the
/// phase flips — every seed genuinely exercises the per-mode fate.
fn run(seed: u64, mode: Shutdown) -> Outcome {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let h0 = pc.handle(n(0));
    let bunch = h0.create_bunch().expect("bunch");
    let obj = h0
        .alloc(bunch, &ObjSpec::with_refs(2, &[0]))
        .expect("alloc");
    h0.add_root(obj).expect("root");
    let mut live = vec![(n(0), obj)];
    for i in 1..NODES {
        let h = pc.handle(n(i));
        h.map_bunch(bunch, n(0)).expect("map");
        h.add_root(obj).expect("root");
        live.push((n(i), obj));
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "setup quiesce");

    let applied = Arc::new(Mutex::new(0u64));
    let mut threads = Vec::new();
    for i in 0..NODES {
        let h = pc.handle(n(i));
        let applied = Arc::clone(&applied);
        let mut rng = SplitMix64::new(seed ^ (u64::from(i) + 1));
        threads.push(std::thread::spawn(move || {
            let burst = 4 + rng.next_u64() % 8;
            for _ in 0..burst {
                let inc = || -> Result<()> {
                    h.acquire_write(obj)?;
                    let v = h.read_data(obj, 1)?;
                    h.write_data(obj, 1, v + 1)?;
                    h.release(obj)?;
                    Ok(())
                };
                inc().expect("increment");
                *applied.lock() += 1;
            }
            // Kick off collector traffic (reports to both peers) and
            // return without waiting for it to be applied.
            h.run_bgc(bunch).expect("bgc");
        }));
    }
    for t in threads {
        t.join().expect("mutator");
    }
    // Build the in-flight backlog and straddle the flip: the closure
    // exports collection traffic to the transport, then sleeps *while
    // still holding the protocol lock*.
    let straddle = {
        let h = pc.handle(n(0));
        std::thread::spawn(move || {
            h.with(|c| {
                for _ in 0..4 {
                    c.run_bgc(n(0), bunch)?;
                }
                std::thread::sleep(Duration::from_millis(40));
                Ok(())
            })
            .expect("straddle collections");
        })
    };
    // NO quiesce: flip the phase while the backlog is pending and the
    // lock is still held.
    std::thread::sleep(Duration::from_millis(10));
    let (cluster, report) = pc.shutdown(mode).expect("shutdown");
    straddle.join().expect("straddle thread");
    let incs_applied = *applied.lock();
    Outcome {
        cluster,
        report,
        live,
        incs_applied,
    }
}

/// Drain: everything sent is applied — nothing dropped, accounting
/// conserves exactly, and the final state passes the full audit set.
#[test]
fn drain_applies_everything_in_flight() {
    let _serial = serial();
    for seed in [
        0xD7A1_0001u64,
        0xD7A1_0002,
        0xD7A1_0003,
        0xD7A1_0004,
        0xD7A1_0005,
        0xD7A1_0006,
        0xD7A1_0007,
        0xD7A1_0008,
    ] {
        let mut o = run(seed, Shutdown::Drain);
        assert!(o.report.sent > 0, "seed {seed:#x}: vacuous run");
        assert_eq!(
            o.report.dropped, 0,
            "seed {seed:#x}: drain dropped: {:?}",
            o.report
        );
        assert_eq!(
            o.report.delivered, o.report.sent,
            "seed {seed:#x}: conservation: {:?}",
            o.report
        );
        verify_final_state(&mut o, seed);
    }
}

/// Drop: the DSM class is still applied (the design requires it
/// reliable); loss-tolerant collector classes may be discarded, but only
/// *whole* — accounting conserves, no envelope is half-applied, and the
/// cluster is still audit-clean because the collector tolerates exactly
/// this loss (the paper's loss model).
#[test]
fn drop_discards_only_loss_tolerant_classes_whole() {
    let _serial = serial();
    for seed in [
        0xD0_0001u64,
        0xD0_0002,
        0xD0_0003,
        0xD0_0004,
        0xD0_0005,
        0xD0_0006,
        0xD0_0007,
        0xD0_0008,
    ] {
        let mut o = run(seed, Shutdown::Drop);
        assert!(
            o.report.dropped > 0,
            "seed {seed:#x}: the straddled backlog must make the drop \
             path non-vacuous: {:?}",
            o.report
        );
        assert_eq!(
            o.report.delivered + o.report.dropped,
            o.report.sent,
            "seed {seed:#x}: every envelope applied or discarded whole: {:?}",
            o.report
        );
        assert_eq!(
            o.report.dropped_by_class[0], 0,
            "seed {seed:#x}: the DSM class must never be dropped: {:?}",
            o.report
        );
        verify_final_state(&mut o, seed);
    }
}

/// The trace says what happened to an envelope, not what was meant to: a
/// send is recorded where it is made, a delivery only when the envelope is
/// applied at its receiver. So under Drop the `MsgDeliver` records per class
/// are the report's `delivered_by_class` — fewer than the sends — and every
/// one is stamped after its send.
#[test]
fn a_delivery_is_recorded_only_for_an_envelope_that_was_applied() {
    use bmx_repro::trace::{self, TraceEvent};
    let _serial = serial();
    trace::install_global(trace::UNBOUNDED);
    let o = run(0xD0_7ACE, Shutdown::Drop);
    let records = trace::take_global();
    trace::disable_global();
    assert!(o.report.dropped > 0, "vacuous run: {:?}", o.report);
    let (mut sends, mut deliveries) = ([0u64; 4], [0u64; 4]);
    for r in &records {
        let at = |lane| {
            MsgClass::ALL
                .iter()
                .position(|c| c.lane() == lane)
                .expect("lane of a class")
        };
        match r.event {
            TraceEvent::MsgSend { lane, .. } => sends[at(lane)] += 1,
            TraceEvent::MsgDeliver {
                lane, sent_lamport, ..
            } => {
                deliveries[at(lane)] += 1;
                assert!(r.lamport > sent_lamport, "delivered before sent: {r:?}");
            }
            _ => {}
        }
    }
    assert_eq!(sends, o.report.sent_by_class, "{:?}", o.report);
    assert_eq!(deliveries, o.report.delivered_by_class, "{:?}", o.report);
}

/// A failed quiesce is advisory, not corrupting: when the backlog cannot
/// drain inside the deadline, `quiesce` reports `false` and a subsequent
/// `shutdown(Drain)` still gives every in-flight envelope its legal fate —
/// per-class accounting conserves exactly (`sent == delivered + dropped`
/// for *each* message class, not just in aggregate) and the final state
/// passes the same audit set as a clean run.
#[test]
fn failed_quiesce_then_drain_conserves_per_class() {
    let _serial = serial();
    for seed in [0xBAD_0001u64, 0xBAD_0002, 0xBAD_0003, 0xBAD_0004] {
        let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
        let h0 = pc.handle(n(0));
        let bunch = h0.create_bunch().expect("bunch");
        let obj = h0
            .alloc(bunch, &ObjSpec::with_refs(2, &[0]))
            .expect("alloc");
        h0.add_root(obj).expect("root");
        let mut live = vec![(n(0), obj)];
        for i in 1..NODES {
            let h = pc.handle(n(i));
            h.map_bunch(bunch, n(0)).expect("map");
            h.add_root(obj).expect("root");
            live.push((n(i), obj));
        }
        assert!(pc.quiesce(Duration::from_secs(10)), "setup quiesce");

        // Straddle thread: export a collection backlog to the transport,
        // then hold the protocol lock long past the quiesce deadline so
        // the drivers cannot apply it.
        let straddle = {
            let h = pc.handle(n(seed as u32 % NODES));
            let home = n(seed as u32 % NODES);
            std::thread::spawn(move || {
                h.with(|c| {
                    for _ in 0..4 {
                        c.run_bgc(home, bunch)?;
                    }
                    std::thread::sleep(Duration::from_millis(60));
                    Ok(())
                })
                .expect("straddle collections");
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        assert!(
            !pc.quiesce(Duration::from_millis(5)),
            "seed {seed:#x}: a lock-held backlog must fail a 5ms quiesce"
        );
        let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
        straddle.join().expect("straddle thread");
        assert!(report.sent > 0, "seed {seed:#x}: vacuous run");
        for class in 0..4 {
            assert_eq!(
                report.sent_by_class[class],
                report.delivered_by_class[class] + report.dropped_by_class[class],
                "seed {seed:#x}: class {class} leaked an envelope: {report:?}"
            );
        }
        assert_eq!(
            report.dropped, 0,
            "seed {seed:#x}: drain after failed quiesce dropped: {report:?}"
        );
        cluster.settle(50_000).unwrap();
        cluster.assert_gc_acquired_no_tokens();
        audit::assert_no_premature_reclamation(&cluster, &live);
        audit::assert_clean(&cluster);
    }
}

/// The post-shutdown audit set shared by both modes: the returned cluster
/// runs deterministically again, every increment that reported success is
/// in the heap, no root was reclaimed, and the structural audit is clean.
fn verify_final_state(o: &mut Outcome, seed: u64) {
    let (n0, obj) = o.live[0];
    let c = &mut o.cluster;
    c.settle(50_000).unwrap();
    c.acquire_read(n0, obj).unwrap();
    let v = c.read_data(n0, obj, 1).unwrap();
    c.release(n0, obj).unwrap();
    assert_eq!(
        v, o.incs_applied,
        "seed {seed:#x}: an acknowledged increment went missing"
    );
    c.assert_gc_acquired_no_tokens();
    audit::assert_no_premature_reclamation(c, &o.live);
    audit::assert_clean(c);
}
