//! The locking of the real-parallelism runtime: one lock per node, taken
//! in ascending node order by the few calls that need more than one, and
//! nothing shared on a node's local path. Also pins what a caller holding
//! every site must still see whole: traffic totals, and sequence numbers
//! that follow a lent node.

use std::sync::mpsc;
use std::time::Duration;

use bmx_repro::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn counter_spec() -> ObjSpec {
    ObjSpec::with_refs(2, &[0])
}

fn increment(h: &NodeHandle, obj: Addr) -> Result<()> {
    h.acquire_write(obj)?;
    let v = h.read_data(obj, 1)?;
    h.write_data(obj, 1, v + 1)?;
    h.release(obj)
}

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within `limit` — a deadlock must fail, not hang the suite.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not finish within {limit:?}"))
}

/// Lock order. Every node's thread mixes calls that take one site (typed
/// ops, `run_bgc`), two (`map_bunch`, towards a higher *and* a lower node
/// at once) and all of them (`with`), while the main thread loops
/// `quiesce` (all of them again). Ascending order everywhere means it
/// cannot deadlock; every increment must still land exactly once.
#[test]
fn mixed_multi_site_calls_do_not_deadlock_and_conserve_increments() {
    const NODES: u32 = 3;
    const ROUNDS: u64 = 40;

    within(Duration::from_secs(60), "the mixed multi-site run", || {
        let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
        // One counter every node increments, and per node a row of bunches
        // for the other nodes to map while the run is going.
        let h0 = pc.handle(n(0));
        let shared_bunch = h0.create_bunch().expect("bunch");
        let shared = h0.alloc(shared_bunch, &counter_spec()).expect("alloc");
        h0.add_root(shared).expect("root");
        let mut offered: Vec<Vec<(BunchId, Addr)>> = Vec::new();
        for i in 0..NODES {
            let h = pc.handle(n(i));
            if i != 0 {
                h.map_bunch(shared_bunch, n(0)).expect("map");
                h.add_root(shared).expect("root");
            }
            let row = (0..ROUNDS / 4)
                .map(|_| {
                    let b = h.create_bunch().expect("bunch");
                    let o = h.alloc(b, &counter_spec()).expect("alloc");
                    h.add_root(o).expect("root");
                    (b, o)
                })
                .collect();
            offered.push(row);
        }

        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            for i in 0..NODES {
                let h = pc.handle(n(i));
                let offered = &offered;
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    let work = || -> Result<u64> {
                        let mine = h.create_bunch()?;
                        let own = h.alloc(mine, &counter_spec())?;
                        h.add_root(own)?;
                        let mut mapped_increments = 0;
                        for round in 0..ROUNDS {
                            increment(&h, own)?;
                            increment(&h, shared)?;
                            h.alloc(mine, &counter_spec())?; // garbage
                            if round % 4 == 1 {
                                // A bunch of the next node up and one of
                                // the next node down, wrapping: every pair
                                // of sites is locked from both ends.
                                for from in [(i + 1) % NODES, (i + NODES - 1) % NODES] {
                                    let (b, o) = offered[from as usize][(round / 4) as usize];
                                    h.map_bunch(b, n(from))?;
                                    h.add_root(o)?;
                                    increment(&h, o)?;
                                    mapped_increments += 1;
                                }
                            }
                            if round % 8 == 3 {
                                h.run_bgc(mine)?;
                            }
                            if round % 8 == 6 {
                                h.with(|c| {
                                    c.assert_gc_acquired_no_tokens();
                                    Ok(())
                                })?;
                            }
                        }
                        Ok(mapped_increments)
                    };
                    let _ = done_tx.send(work());
                });
            }
            drop(done_tx);
            // All sites, again and again, from a thread that is no node's.
            let mut outcomes = Vec::new();
            while outcomes.len() < NODES as usize {
                pc.quiesce(Duration::from_micros(200));
                outcomes.extend(done_rx.try_iter());
            }
            let mapped_increments: u64 = outcomes
                .into_iter()
                .map(|r| r.expect("a node's thread failed"))
                .sum();

            assert!(pc.quiesce(Duration::from_secs(10)), "final quiesce");
            let (mut c, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
            assert_eq!(report.dropped, 0, "drain dropped traffic: {report:?}");
            let mut read = |obj: Addr| {
                c.acquire_read(n(0), obj).expect("acquire");
                let v = c.read_data(n(0), obj, 1).expect("read");
                c.release(n(0), obj).expect("release");
                v
            };
            assert_eq!(read(shared), u64::from(NODES) * ROUNDS);
            let on_offered: u64 = offered.iter().flatten().map(|&(_, o)| read(o)).sum();
            assert_eq!(on_offered, mapped_increments);
        });
    });
}

/// No shared lock on the local path: with the segment server's mutex held
/// by this thread, another thread's whole increment on a node-private,
/// locally mapped object still completes. (With protection looked up at
/// the server, the first access would block until the guard is dropped.)
#[test]
fn local_ops_complete_while_the_segment_server_is_locked() {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let h1 = pc.handle(n(1));
    let bunch = h1.create_bunch().expect("bunch");
    let obj = h1.alloc(bunch, &counter_spec()).expect("alloc");
    h1.add_root(obj).expect("root");
    let server = pc
        .handle(n(0))
        .with(|c| Ok(c.server.clone()))
        .expect("server handle");

    let held = server.borrow();
    let value = within(Duration::from_secs(10), "the local increment", move || {
        for _ in 0..100 {
            increment(&h1, obj)?;
        }
        h1.acquire_read(obj)?;
        let v = h1.read_data(obj, 1);
        h1.release(obj)?;
        v
    });
    drop(held);
    assert_eq!(value.expect("local ops"), 100);
    pc.shutdown(Shutdown::Drain).expect("shutdown");
}

/// An object allocated after the bunch was mapped elsewhere has no header
/// at the mapper: its first acquire there fetches it from the bunch's
/// creator. The node's own lock is not enough for that; the protocol says
/// so ([`BmxError::NeedsNode`]) and the handle repeats the call holding
/// both sites, from either side of the lock order.
#[test]
fn header_fetch_from_the_creator_takes_both_sites() {
    for (creator, mapper) in [(0, 1), (1, 0)] {
        let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
        let (hc, hm) = (pc.handle(n(creator)), pc.handle(n(mapper)));
        let bunch = hc.create_bunch().expect("bunch");
        let early = hc.alloc(bunch, &counter_spec()).expect("alloc");
        hc.add_root(early).expect("root");
        hm.map_bunch(bunch, n(creator)).expect("map");
        let late = hc.alloc(bunch, &counter_spec()).expect("alloc");
        hc.add_root(late).expect("root");

        increment(&hm, late).expect("the mapper acquires an object it holds no header of");
        increment(&hc, late).expect("and the creator gets it back");
        hc.acquire_read(late).expect("acquire");
        assert_eq!(hc.read_data(late, 1).expect("read"), 2);
        hc.release(late).expect("release");
        assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
        pc.shutdown(Shutdown::Drain).expect("shutdown");
    }
}

/// The stop-the-world view stays whole: inside `with`, and on the cluster
/// `shutdown` returns, the staging network's per-class totals are the sum
/// over every node's site — what the transport itself counted.
#[test]
fn class_stats_inside_with_are_cluster_wide() {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let (h0, h1) = (pc.handle(n(0)), pc.handle(n(1)));
    let bunch = h0.create_bunch().expect("bunch");
    let obj = h0.alloc(bunch, &counter_spec()).expect("alloc");
    h0.add_root(obj).expect("root");
    h1.map_bunch(bunch, n(0)).expect("map");
    h1.add_root(obj).expect("root");
    for _ in 0..50 {
        increment(&h1, obj).expect("increment at 1");
        increment(&h0, obj).expect("increment at 0");
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
    let dsm_sent = |c: &mut Cluster| Ok(c.net.class_stats(MsgClass::Dsm).sent);
    let from_0 = h0.with(dsm_sent).expect("with at 0");
    let from_1 = h1.with(dsm_sent).expect("with at 1");
    let (c, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    let on_the_wire = report.sent_by_class[0];
    assert!(on_the_wire >= 200, "both nodes sent: {report:?}");
    assert_eq!(from_0, on_the_wire, "seen from node 0");
    assert_eq!(from_1, on_the_wire, "seen from node 1");
    assert_eq!(c.net.class_stats(MsgClass::Dsm).sent, on_the_wire);
}

/// A node's link sequence numbers follow it when it is lent: the set-up
/// below runs as one `with` closure at node 0 and sends on behalf of
/// every node, after which each node's own site carries on sending. No
/// receiver may take the hand-over for a duplicate.
#[test]
fn sends_on_behalf_of_a_lent_node_are_not_counted_as_duplicates() {
    const NODES: u32 = 3;
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let objs = pc
        .handle(n(0))
        .with(|c| {
            let mut objs = Vec::new();
            for i in 0..NODES {
                let b = c.create_bunch(n(i))?;
                let o = c.alloc(n(i), b, &counter_spec())?;
                c.add_root(n(i), o);
                for j in (0..NODES).filter(|&j| j != i) {
                    c.map_bunch(n(j), b, n(i))?;
                    c.add_root(n(j), o);
                }
                objs.push(o);
            }
            Ok(objs)
        })
        .expect("set-up");
    assert!(pc.quiesce(Duration::from_secs(10)), "set-up quiesce");
    // 1 000 acquires, each at another node than the last one on the same
    // object, so each pulls the token across.
    let handles: Vec<NodeHandle> = (0..NODES).map(|i| pc.handle(n(i))).collect();
    for k in 0..1_000 {
        increment(&handles[k % handles.len()], objs[k % 2]).expect("increment");
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
    let (c, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    assert!(report.sent > 1_000, "the acquires were remote: {report:?}");
    assert_eq!(c.total_stat(StatKind::DuplicateDeliveries), 0);
}

/// Handles may outlive the runtime. After `shutdown` has gathered every
/// slot into the cluster it returned, whatever a handle calls is refused
/// with an error — nothing panics, nothing blocks.
#[test]
fn a_handle_that_outlives_the_runtime_is_refused() {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let (h0, h1) = (pc.handle(n(0)), pc.handle(n(1)));
    let bunch = h0.create_bunch().expect("bunch");
    let obj = h0.alloc(bunch, &counter_spec()).expect("alloc");
    let (c, _) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    assert!(c.is_resident(n(0)) && c.is_resident(n(1)));
    assert!(h0.read_data(obj, 1).is_err());
    assert!(h1.map_bunch(bunch, n(0)).is_err());
    assert!(h1.with(|c| Ok(c.nodes())).is_err());
}
