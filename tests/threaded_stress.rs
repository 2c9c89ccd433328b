//! Concurrency stress on the real-parallelism runtime: mutator threads on
//! their own node handles race token traffic, allocation churn and
//! collections, and every invariant must still hold. (Arbitrary operation
//! interleavings of the simulation are covered by the seeded schedule
//! fuzzer in `tests/parallel_conformance.rs`.)

use std::sync::Arc;

use bmx_repro::prelude::*;
use parking_lot::Mutex;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Mixed-workload hammer on the real-parallelism runtime
/// (`bmx::parallel`): one mutator thread per node drives its own
/// [`NodeHandle`] — racing write-token increments on a shared counter,
/// allocation churn plus collections in a node-private bunch — while a
/// separate collector thread runs BGCs on the shared bunch from rotating
/// nodes. Operations genuinely overlap: an acquire blocked on a remote
/// grant parks only its own thread while the per-node driver threads move
/// the token traffic. The run is gated
/// by the full audit set: exact counter total, transport conservation
/// (drain leaves nothing dropped or in flight), zero premature
/// reclamation of every root, structural audit clean, and the collector
/// acquired no tokens.
#[test]
fn parallel_runtime_mixed_hammer() {
    use std::time::Duration;

    use bmx_repro::bmx::audit;

    const NODES: u32 = 4;
    const INCS_PER_NODE: u64 = 30;

    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let h0 = pc.handle(n(0));
    let shared_bunch = h0.create_bunch().expect("bunch");
    let counter = h0
        .alloc(shared_bunch, &ObjSpec::with_refs(2, &[0]))
        .expect("counter");
    h0.add_root(counter).expect("root");
    for i in 1..NODES {
        let h = pc.handle(n(i));
        h.map_bunch(shared_bunch, n(0)).expect("map");
        h.add_root(counter).expect("root");
    }

    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    // Every root each thread pins, collected for the liveness audit.
    let live: Arc<Mutex<Vec<(NodeId, Addr)>>> =
        Arc::new(Mutex::new((0..NODES).map(|i| (n(i), counter)).collect()));

    let mut threads = Vec::new();
    for w in 0..NODES {
        let h = pc.handle(n(w));
        let failures = Arc::clone(&failures);
        let live = Arc::clone(&live);
        threads.push(std::thread::spawn(move || {
            h.bind_metrics();
            let work = || -> Result<()> {
                // Node-private churn bunch: every allocation that is not
                // `keep` becomes garbage the interleaved BGCs reclaim.
                let mine = h.create_bunch()?;
                let keep = h.alloc(mine, &ObjSpec::with_refs(2, &[0]))?;
                h.add_root(keep)?;
                live.lock().push((h.node(), keep));
                for i in 0..INCS_PER_NODE {
                    let g = h.alloc(mine, &ObjSpec::with_refs(2, &[0]))?;
                    h.write_data(g, 1, i)?;
                    h.acquire_write(counter)?;
                    let v = h.read_data(counter, 1)?;
                    h.write_data(counter, 1, v + 1)?;
                    h.release(counter)?;
                    if i % 8 == 3 {
                        h.run_bgc(mine)?;
                    }
                }
                h.run_bgc(mine)?;
                Ok(())
            };
            if let Err(e) = work() {
                failures.lock().push(format!("node {w}: {e}"));
            }
        }));
    }
    // A collector thread interleaves BGCs on the *shared* bunch from
    // rotating nodes while the increments race.
    {
        let handles: Vec<_> = (0..NODES).map(|i| pc.handle(n(i))).collect();
        let failures = Arc::clone(&failures);
        threads.push(std::thread::spawn(move || {
            for round in 0..12usize {
                let h = &handles[round % NODES as usize];
                if let Err(e) = h.run_bgc(shared_bunch) {
                    failures
                        .lock()
                        .push(format!("shared gc round {round}: {e}"));
                    return;
                }
                std::thread::yield_now();
            }
        }));
    }
    for t in threads {
        t.join().expect("thread");
    }
    assert!(
        failures.lock().is_empty(),
        "failures: {:?}",
        failures.lock()
    );
    assert!(
        pc.ops() > u64::from(NODES) * INCS_PER_NODE,
        "ops under-counted"
    );

    assert!(
        pc.quiesce(Duration::from_secs(10)),
        "cluster failed to quiesce"
    );
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.dropped, 0, "drain must not drop: {report:?}");
    assert_eq!(
        report.delivered, report.sent,
        "drain must deliver everything: {report:?}"
    );

    // The full audit set on the final state (the returned cluster runs
    // deterministically again, so plain ops work).
    let n0 = n(0);
    cluster.acquire_read(n0, counter).unwrap();
    let total = cluster.read_data(n0, counter, 1).unwrap();
    cluster.release(n0, counter).unwrap();
    assert_eq!(total, u64::from(NODES) * INCS_PER_NODE);
    cluster.assert_gc_acquired_no_tokens();
    audit::assert_no_premature_reclamation(&cluster, &live.lock());
}

/// Two writers on a read-mostly set (ROADMAP 1(a)(i)): both nodes read and
/// *write* every one of 64 shared objects, 15 read brackets to 1 increment,
/// 200 k brackets in all. Entry consistency owes each bracket the value of
/// the last write bracket before it, so a reader never sees an object go
/// backwards and every increment issued is in the final value.
///
/// It catches an owner that, while invalidating readers for a remote
/// writer, promotes itself to write as well, so that the transfer ships an
/// image from under its bracket (1–2 lost increments in about one run in
/// eight). The same schedule, deterministic:
/// `owner_write_behind_a_pending_remote_transfer_loses_no_update` in
/// `bmx-dsm`.
#[test]
fn two_writers_on_a_read_mostly_set_lose_no_update() {
    use std::time::Duration;

    use bmx_common::SplitMix64;

    const OBJECTS: usize = 64;
    const OPS_PER_NODE: u64 = 100_000;
    const SEED: u64 = 0x2_57A7E;

    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let handles = [pc.handle(n(0)), pc.handle(n(1))];
    let bunch = handles[0].create_bunch().expect("bunch");
    let objs: Vec<Addr> = (0..OBJECTS)
        .map(|_| {
            let o = handles[0].alloc(bunch, &ObjSpec::data(1)).expect("alloc");
            handles[0].add_root(o).expect("root");
            o
        })
        .collect();
    handles[1].map_bunch(bunch, n(0)).expect("map");
    assert!(pc.quiesce(Duration::from_secs(10)), "setup quiesce");

    let threads: Vec<_> = handles
        .into_iter()
        .map(|h| {
            let objs = objs.clone();
            std::thread::spawn(move || -> Result<Vec<u64>> {
                let mut rng = SplitMix64::new(SEED ^ u64::from(h.node().0));
                let mut issued = vec![0u64; OBJECTS];
                let mut seen = vec![0u64; OBJECTS];
                for op in 0..OPS_PER_NODE {
                    let i = rng.next_below(OBJECTS as u64) as usize;
                    let write = op % 16 == 15;
                    if write {
                        h.acquire_write(objs[i])?;
                    } else {
                        h.acquire_read(objs[i])?;
                    }
                    let v = h.read_data(objs[i], 0)?;
                    assert!(
                        v >= seen[i],
                        "{:?} read object {i} going backwards: {v} after {}",
                        h.node(),
                        seen[i]
                    );
                    seen[i] = v;
                    if write {
                        h.write_data(objs[i], 0, v + 1)?;
                        seen[i] = v + 1;
                        issued[i] += 1;
                    }
                    h.release(objs[i])?;
                }
                Ok(issued)
            })
        })
        .collect();
    let issued: Vec<Vec<u64>> = threads
        .into_iter()
        .map(|t| t.join().expect("mutator thread").expect("mutator"))
        .collect();

    assert!(pc.quiesce(Duration::from_secs(10)), "failed to quiesce");
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.delivered, report.sent, "{report:?}");
    let lost: Vec<(usize, u64, u64)> = (0..OBJECTS)
        .filter_map(|i| {
            cluster.acquire_read(n(0), objs[i]).unwrap();
            let v = cluster.read_data(n(0), objs[i], 0).unwrap();
            cluster.release(n(0), objs[i]).unwrap();
            let want = issued[0][i] + issued[1][i];
            (v != want).then_some((i, v, want))
        })
        .collect();
    assert!(
        lost.is_empty(),
        "seed {SEED:#x}: (object, value, increments issued) {lost:?}"
    );
}
