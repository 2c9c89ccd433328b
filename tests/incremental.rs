//! The incremental (O'Toole-style) collector: bounded work increments,
//! graying write barrier, short flip — interleaved with live mutation.

use bmx_repro::prelude::*;
use bmx_repro::workloads::lists;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// A full incremental cycle with no mutation equals the monolithic
/// collection.
#[test]
fn incremental_matches_monolithic_when_quiescent() {
    let n0 = n(0);
    let run_monolithic = || {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let b = c.create_bunch(n0).unwrap();
        let list = lists::build_list(&mut c, n0, b, 30, 0).unwrap();
        c.add_root(n0, list.head);
        lists::truncate_list(&mut c, n0, &list, 10).unwrap();
        c.run_bgc(n0, b).unwrap()
    };
    let run_incremental = || {
        let mut c = Cluster::new(ClusterConfig::with_nodes(1));
        let b = c.create_bunch(n0).unwrap();
        let list = lists::build_list(&mut c, n0, b, 30, 0).unwrap();
        c.add_root(n0, list.head);
        lists::truncate_list(&mut c, n0, &list, 10).unwrap();
        c.start_incremental(n0, &[b]).unwrap();
        let mut steps = 0;
        while !c.incremental_step(n0, 3).unwrap() {
            steps += 1;
            assert!(steps < 1000, "must converge");
        }
        assert!(steps >= 2, "the budget actually bounded the work");
        c.incremental_flip(n0).unwrap()
    };
    let mono = run_monolithic();
    let inc = run_incremental();
    assert_eq!(mono.live, inc.live);
    assert_eq!(mono.copied, inc.copied);
    assert_eq!(mono.reclaimed, inc.reclaimed);
}

/// The classic incremental-GC hazard: a reference written into an
/// already-scanned object, while the only other path to the target dies.
/// The graying barrier must keep the target alive.
#[test]
fn graying_barrier_prevents_lost_objects() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    // root -> a ; holder h (rooted) ; b_obj reachable only via a.1 .
    let a = c.alloc(n0, b, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let h = c.alloc(n0, b, &ObjSpec::with_refs(1, &[0])).unwrap();
    let hidden = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, hidden, 0, 424242).unwrap();
    c.write_ref(n0, a, 1, hidden).unwrap();
    c.add_root(n0, a);
    c.add_root(n0, h);

    c.start_incremental(n0, &[b]).unwrap();
    // Step until `a` and `h` have certainly been scanned (tiny heap: a few
    // objects per step is enough; we deliberately over-step).
    c.incremental_step(n0, 2).unwrap();
    // Mutator: move the only reference to `hidden` from `a` (already
    // scanned) into `h`, then clear it from `a`. Without the barrier the
    // trace would never see `hidden` through `h`.
    c.write_ref(n0, h, 0, hidden).unwrap();
    c.write_ref(n0, a, 1, Addr::NULL).unwrap();
    while !c.incremental_step(n0, 2).unwrap() {}
    let stats = c.incremental_flip(n0).unwrap();
    assert_eq!(stats.reclaimed, 0, "nothing was garbage");
    // `hidden` survived and moved with everyone else.
    assert_eq!(c.read_data(n0, hidden, 0).unwrap(), 424242);
    assert_eq!(
        c.read_ref(n0, h, 0).unwrap(),
        c.gc.node(n0).directory.resolve(hidden)
    );
}

/// Mutation *between* increments: payload writes land on whichever copy is
/// current, and new allocations stored into the live graph survive.
#[test]
fn mutation_interleaves_with_increments() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let list = lists::build_list(&mut c, n0, b, 20, 0).unwrap();
    c.add_root(n0, list.head);

    c.start_incremental(n0, &[b]).unwrap();
    let mut round = 0u64;
    let mut appended = Vec::new();
    loop {
        let ready = c.incremental_step(n0, 4).unwrap();
        // Interleaved mutator work: bump payloads and append a new cell.
        let cell = list.cells[(round as usize) % 20];
        c.write_data(n0, cell, lists::PAYLOAD, 500 + round).unwrap();
        let fresh = c
            .alloc(n0, b, &ObjSpec::with_refs(2, &[lists::NEXT]))
            .unwrap();
        c.write_data(n0, fresh, lists::PAYLOAD, 9000 + round)
            .unwrap();
        // Splice it at the head side: tail of the new cell = old second.
        let second = c.read_ref(n0, list.cells[0], lists::NEXT).unwrap();
        c.write_ref(n0, fresh, lists::NEXT, second).unwrap();
        c.write_ref(n0, list.cells[0], lists::NEXT, fresh).unwrap();
        appended.push(fresh);
        round += 1;
        if ready {
            break;
        }
        assert!(round < 1000, "must converge");
    }
    let stats = c.incremental_flip(n0).unwrap();
    // Everything reachable survived: 20 original + all appended cells.
    let head = c.gc.node(n0).directory.resolve(list.head);
    let payloads = lists::read_payloads(&c, n0, head).unwrap();
    assert_eq!(payloads.len(), 20 + appended.len());
    assert_eq!(stats.live as usize, 20 + appended.len());
    for (i, &f) in appended.iter().enumerate() {
        assert_eq!(c.read_data(n0, f, lists::PAYLOAD).unwrap(), 9000 + i as u64);
    }
    c.assert_gc_acquired_no_tokens();
}

/// A root re-pointed during collection grays its new target.
#[test]
fn root_updates_gray_their_targets() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let first = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    let second = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, second, 0, 77).unwrap();
    let root = c.add_root(n0, first);
    c.start_incremental(n0, &[b]).unwrap();
    // Scan `first`, then re-point the root at `second` (previously
    // unreachable from any root) and drop `first`.
    c.incremental_step(n0, 1).unwrap();
    c.set_root(n0, root, second);
    while !c.incremental_step(n0, 2).unwrap() {}
    c.incremental_flip(n0).unwrap();
    assert_eq!(
        c.read_data(n0, second, 0).unwrap(),
        77,
        "second must survive"
    );
}

/// Monolithic collection is refused while an incremental one is active,
/// and a second incremental start is refused too.
#[test]
fn concurrent_collections_are_refused() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let o = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, o);
    c.start_incremental(n0, &[b]).unwrap();
    assert!(matches!(
        c.run_bgc(n0, b),
        Err(BmxError::CollectorBusy { .. })
    ));
    assert!(matches!(
        c.start_incremental(n0, &[b]),
        Err(BmxError::CollectorBusy { .. })
    ));
    while !c.incremental_step(n0, 8).unwrap() {}
    c.incremental_flip(n0).unwrap();
    // After the flip, a normal collection works again.
    assert!(c.run_bgc(n0, b).is_ok());
}

/// The flip's work (and hence the pause) is bounded by the mutation
/// backlog, not the heap: with no backlog, a large traced heap flips with
/// zero residual tracing.
#[test]
fn flip_after_quiescent_steps_is_cheap() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let list = lists::build_list(&mut c, n0, b, 300, 0).unwrap();
    c.add_root(n0, list.head);
    c.start_incremental(n0, &[b]).unwrap();
    while !c.incremental_step(n0, 16).unwrap() {}
    // All tracing happened in the steps; the flip only runs the terminal
    // phases. Copied counts prove the steps did the work.
    let stats = c.incremental_flip(n0).unwrap();
    assert_eq!(stats.copied, 300);
    assert_eq!(stats.live, 300);
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("bmx-incremental-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A flipped collection ends the way a monolithic one does: it
/// checkpoints, so an amnesia restart comes back with the post-flip roots
/// and heap, and it is counted and its pause recorded.
#[test]
fn a_flip_checkpoints_and_is_metered_like_any_collection() {
    use bmx_repro::metrics::{self, Hst};
    let reg = metrics::install();
    let dir = fresh_dir("flip");
    let n0 = n(0);
    let mut cfg = ClusterConfig::with_nodes(1);
    cfg.persist = Some(PersistConfig::at(&dir));
    let mut c = Cluster::new(cfg);
    let b = c.create_bunch(n0).unwrap();
    let list = lists::build_list(&mut c, n0, b, 12, 40).unwrap();
    let root = c.add_root(n0, list.head);
    lists::truncate_list(&mut c, n0, &list, 8).unwrap();

    let logged = c.total_stat(StatKind::RvmLogRecords);
    c.start_incremental(n0, &[b]).unwrap();
    while !c.incremental_step(n0, 3).unwrap() {}
    // The mutator's turn: not part of the pause the flip records.
    let mutator_turn = std::time::Duration::from_millis(50);
    std::thread::sleep(mutator_turn);
    let stats = c.incremental_flip(n0).unwrap();
    assert_eq!((stats.copied, stats.reclaimed), (8, 4));
    assert!(
        c.total_stat(StatKind::RvmLogRecords) > logged,
        "the flip wrote no checkpoint"
    );
    let metered = reg.node(0);
    let pauses = metered.hist(Hst::BgcPauseMicros);
    assert_eq!(pauses.count(), 1);
    assert!(
        u128::from(pauses.sum()) < mutator_turn.as_micros(),
        "the pause is the flip alone: {} us",
        pauses.sum()
    );
    let head = c.root(n0, root).unwrap();
    assert_ne!(head, list.head, "the flip moved the list");

    c.restart_with_amnesia(n0).unwrap();
    assert!(!c.in_recovery(n0), "no peer to wait for");
    assert_eq!(c.root(n0, root), Some(head), "the root as the flip left it");
    assert_eq!(
        lists::read_payloads(&c, n0, head).unwrap(),
        (40..48).collect::<Vec<_>>()
    );
    metrics::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node mid-recovery puts an incremental collection off exactly as it
/// does a monolithic one: its scion tables are still regenerating, so
/// nothing is started and nothing is collected until the rejoin completes.
#[test]
fn a_recovering_node_defers_incremental_collection_too() {
    let dir = fresh_dir("defer");
    let (n0, n1) = (n(0), n(1));
    let mut cfg = ClusterConfig::with_nodes(2);
    cfg.persist = Some(PersistConfig::at(&dir));
    let mut c = Cluster::new(cfg);
    let b = c.create_bunch(n0).unwrap();
    let x = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, x);
    c.map_bunch(n1, b, n0).unwrap();
    c.add_root(n1, x);
    c.run_bgc(n1, b).unwrap(); // N1's checkpoint holds the bunch

    c.restart_with_amnesia(n1).unwrap(); // rejoin request sent, not answered
    assert!(c.in_recovery(n1));
    assert_eq!(c.run_bgc(n1, b).unwrap(), Default::default());
    c.start_incremental(n1, &[b]).unwrap();
    assert!(!c.incremental_active(n1), "deferred, not started");
    assert!(c.gc.node(n1).active_groups.is_empty());

    c.settle(10_000).unwrap();
    assert!(!c.in_recovery(n1), "rejoin completed");
    c.start_incremental(n1, &[b]).unwrap();
    assert!(c.incremental_active(n1));
    while !c.incremental_step(n1, 4).unwrap() {}
    assert_eq!(c.incremental_flip(n1).unwrap().live, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two collections of disjoint groups may overlap on one node. What the
/// barrier grayed for the incremental one is its own: a monolithic
/// collection of the other bunch, run between two of its steps, must not
/// absorb (and so lose) it.
#[test]
fn a_collection_of_another_bunch_leaves_the_gray_backlog_alone() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let (b, other) = (c.create_bunch(n0).unwrap(), c.create_bunch(n0).unwrap());
    let a = c.alloc(n0, b, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let h = c.alloc(n0, b, &ObjSpec::with_refs(1, &[0])).unwrap();
    let hidden = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, hidden, 0, 424242).unwrap();
    c.write_ref(n0, a, 1, hidden).unwrap();
    c.add_root(n0, a);
    c.add_root(n0, h);
    let bystander = c.alloc(n0, other, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, bystander);

    c.start_incremental(n0, &[b]).unwrap();
    c.incremental_step(n0, 2).unwrap(); // `a` and `h` are scanned
    c.write_ref(n0, h, 0, hidden).unwrap(); // grays `hidden`
    c.write_ref(n0, a, 1, Addr::NULL).unwrap();
    assert_eq!(c.run_bgc(n0, other).unwrap().live, 1);
    while !c.incremental_step(n0, 2).unwrap() {}
    assert_eq!(c.incremental_flip(n0).unwrap().reclaimed, 0);
    assert_eq!(c.read_data(n0, hidden, 0).unwrap(), 424242);
}
