//! Acceptance tests for the wall-clock spans on the parallel runtime
//! (DESIGN.md §13): a *blocking* cross-node acquire — requester parks,
//! the remote owner's release triggers the grant — must render in the
//! exported Perfetto trace as ONE stitched flow that crosses node (pid)
//! boundaries and contains the whole anatomy of the wait: submit, park,
//! poke-wake, reserve-claim, wait/hold of the node's site mutex, and the
//! applies on both ends — whichever thread ran them: a node's driver, or
//! the mutator polling there for its grant.
//!
//! The span switch is process-global, so this binary's tests serialize
//! on a local mutex (each integration-test *file* is its own process, so
//! no cross-binary interference).

use std::collections::BTreeSet;
use std::time::Duration;

use bmx_repro::prelude::*;
use bmx_repro::trace;
use bmx_repro::trace::chrome::{parse, validate, Json};

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`SERIAL`]. The mutex guards no data, so a test that panicked while
/// holding it left nothing inconsistent: ignore the poison, or one failing
/// test fails every sibling with `PoisonError`.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Drives one blocking write acquire from node 1 while node 0 sits in a
/// critical section, with the profiler on; returns the exported trace.
fn blocking_acquire_trace() -> String {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let h0 = pc.handle(n(0));
    let h1 = pc.handle(n(1));
    let bunch = h0.create_bunch().expect("bunch");
    let obj = h0
        .alloc(bunch, &ObjSpec::with_refs(2, &[0]))
        .expect("alloc");
    h0.add_root(obj).expect("root");
    h1.map_bunch(bunch, n(0)).expect("map");
    h1.add_root(obj).expect("root");
    assert!(pc.quiesce(Duration::from_secs(10)), "setup quiesce");

    trace::enable_spans(4096);

    // Node 0 enters the critical section first, so node 1's request is
    // queued at the owner and node 1 parks waiting for the grant.
    h0.acquire_write(obj).expect("owner acquire");
    let waiter = std::thread::spawn(move || {
        h1.acquire_write(obj).expect("blocked acquire");
        h1.write_data(obj, 1, 42).expect("write");
        h1.release(obj).expect("release");
    });
    // Long enough that the waiter burns through its spin phase (64
    // yields) and parks on the wake cell before the grant exists.
    std::thread::sleep(Duration::from_millis(50));
    h0.release(obj).expect("owner release");
    waiter.join().expect("waiter thread");
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");

    let text = trace::chrome::export(&trace::snapshot_global());
    trace::disable_spans();
    let (cluster, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    assert_eq!(report.dropped, 0, "drain dropped traffic");
    drop(cluster);
    text
}

/// The headline acceptance check: one flow id carries the blocked
/// acquire across both pids, with park/wake/reserve-claim/mutex
/// wait+hold spans attached, and the export stitches it with Perfetto
/// flow events (`s`/`t`/`f`).
#[test]
fn blocking_cross_node_acquire_renders_as_one_stitched_flow() {
    let _serial = serial();
    let text = blocking_acquire_trace();
    validate(&text).expect("well-formed trace JSON");
    let doc = parse(&text).expect("parses");
    let evs: Vec<&Json> = match &doc {
        Json::Arr(evs) => evs.iter().collect(),
        other => panic!("top-level array missing: {other:?}"),
    };
    let xs: Vec<&&Json> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();

    // Node 1's blocked acquire: the root "acquire" span on pid 1 that
    // actually parked (a park span shares its flow). Its flow id is the
    // stitching key for the rest of the assertions.
    let flow_of = |e: &Json| {
        e.get("args")
            .and_then(|a| a.get("flow"))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    let parked_flows: BTreeSet<u64> = xs
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some("acquire/park")
                && e.get("pid").and_then(Json::as_num) == Some(1.0)
        })
        .map(|e| flow_of(e) as u64)
        .collect();
    let flow = *parked_flows.first().expect("node 1 parked at least once");
    assert_ne!(flow, 0, "parked acquire must carry a real flow id");

    let in_flow: Vec<&&&Json> = xs.iter().filter(|e| flow_of(e) as u64 == flow).collect();
    let names: BTreeSet<&str> = in_flow
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for required in [
        "acquire",
        "acquire/submit",
        "acquire/park",
        "acquire/wake",
        "acquire/reserve-claim",
        "mutex/wait",
        "mutex/hold",
        "apply",
    ] {
        assert!(
            names.contains(required),
            "flow {flow} missing span {required:?}; has {names:?}"
        );
    }

    // The flow crosses the node boundary: the request is applied at node
    // 0 and the grant at node 1, so spans land on both pids, whichever
    // thread applied them.
    let pids: BTreeSet<u64> = in_flow
        .iter()
        .filter_map(|e| e.get("pid").and_then(Json::as_num))
        .map(|p| p as u64)
        .collect();
    assert!(
        pids.contains(&0) && pids.contains(&1),
        "flow {flow} confined to pids {pids:?}"
    );

    // And the export emits the Perfetto flow arrows for it: exactly one
    // start and one finish, with steps in between.
    let flow_evs: Vec<&&Json> = evs
        .iter()
        .filter(|e| {
            e.get("cat").and_then(Json::as_str) == Some("flow")
                && e.get("id").and_then(Json::as_num) == Some(flow as f64)
        })
        .collect();
    assert!(flow_evs.len() >= 3, "flow arrows missing: {flow_evs:?}");
    let count_ph = |ph: &str| {
        flow_evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count_ph("s"), 1, "one flow start");
    assert_eq!(count_ph("f"), 1, "one flow finish");
    assert!(count_ph("t") >= 1, "intermediate flow steps");

    // Tracks are named for the Perfetto UI: both processes, and at least
    // the driver and mutator threads.
    let meta_names: Vec<&str> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(meta_names.contains(&"node 0"), "{meta_names:?}");
    assert!(meta_names.contains(&"node 1"), "{meta_names:?}");
    assert!(
        meta_names.iter().any(|m| m.contains("driver")),
        "driver thread named: {meta_names:?}"
    );
}

/// Disabled-profiler runs must record nothing at all — the zero-cost
/// claim's observable half (the digest half is pinned in
/// `parallel_conformance.rs`).
#[test]
fn disabled_profiler_records_nothing() {
    let _serial = serial();
    trace::disable_spans();
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let h0 = pc.handle(n(0));
    let bunch = h0.create_bunch().expect("bunch");
    let obj = h0
        .alloc(bunch, &ObjSpec::with_refs(2, &[0]))
        .expect("alloc");
    h0.acquire_write(obj).expect("acquire");
    h0.write_data(obj, 1, 7).expect("write");
    h0.release(obj).expect("release");
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
    let (cluster, _) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    drop(cluster);
    assert!(
        trace::snapshot_global().is_empty(),
        "spans recorded while disabled"
    );
}
