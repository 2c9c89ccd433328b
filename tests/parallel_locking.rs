//! The locking of the real-parallelism runtime: one lock per node, taken
//! in ascending node order by the few calls that need more than one, and
//! nothing shared on a node's local path. Also pins what a caller holding
//! every site must still see whole: traffic totals, and sequence numbers
//! that follow a lent node.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use bmx_repro::bmx::ClusterMsg;
use bmx_repro::dsm::DsmPacket;
use bmx_repro::gc::GcMsg;
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

/// Two appliers on one link. Node 1's mutator keeps blocking in acquires
/// behind node 0's brackets, so it polls — and applies node 1's inbox —
/// while node 0 sends bursts on the link 0 → 1. A burst outlasts a waiter's
/// spin, and a waiter that parks hands the inbox to node 1's driver, so
/// both threads apply from the same link. Whoever applies, the link's
/// envelopes are applied in sequence order (the receiver counts one that
/// comes at or below the last sequence number it applied as a duplicate),
/// and every envelope sent is applied once.
#[test]
fn two_appliers_on_one_link_keep_its_order() {
    const ROUNDS: u64 = 200;
    const BURST: u64 = 64;

    within(Duration::from_secs(60), "the two-applier run", || {
        let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
        let (h0, h1) = (pc.handle(n(0)), pc.handle(n(1)));
        let bunch = h0.create_bunch().expect("bunch");
        let obj = h0.alloc(bunch, &counter_spec()).expect("alloc");
        h0.add_root(obj).expect("root");
        h1.map_bunch(bunch, n(0)).expect("map");
        h1.add_root(obj).expect("root");

        let done = AtomicBool::new(false);
        let theirs = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut k = 0u64;
                while !done.load(Ordering::Relaxed) {
                    increment(&h1, obj)?;
                    k += 1;
                }
                Ok::<u64, BmxError>(k)
            });
            for _ in 0..ROUNDS {
                h0.acquire_write(obj).expect("owner enters");
                h0.with(|c| {
                    for i in 0..BURST {
                        // Empty envelopes: they change nothing but the
                        // link's sequence numbers.
                        let msg = if i % 2 == 0 {
                            let pkt = DsmPacket {
                                msgs: Vec::new(),
                                piggyback: Vec::new(),
                            };
                            (MsgClass::Dsm, ClusterMsg::Dsm(pkt))
                        } else {
                            let gc = GcMsg::AddressChange {
                                bunch,
                                relocations: Vec::new(),
                            };
                            (MsgClass::GcBackground, ClusterMsg::Gc(gc))
                        };
                        c.net.send(n(0), n(1), msg.0, msg.1);
                    }
                    Ok(())
                })
                .expect("burst");
                let v = h0.read_data(obj, 1).expect("read");
                h0.write_data(obj, 1, v + 1).expect("write");
                h0.release(obj).expect("owner leaves");
            }
            done.store(true, Ordering::Relaxed);
            waiter.join().expect("waiter thread").expect("waiter")
        });

        assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
        let (mut c, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
        assert_eq!(
            c.total_stat(StatKind::DuplicateDeliveries),
            0,
            "an envelope was applied after a later one on its link"
        );
        assert_eq!(report.dropped, 0, "{report:?}");
        assert_eq!(
            report.delivered_by_class, report.sent_by_class,
            "{report:?}"
        );
        c.acquire_read(n(0), obj).expect("acquire");
        assert_eq!(c.read_data(n(0), obj, 1).expect("read"), ROUNDS + theirs);
    });
}

/// The waits no inbox push announces. Two mutators at node 0 and one at
/// node 1 increment one object, so a blocked acquire at node 0 often waits
/// for a token its neighbour frees by a local release, which rings
/// nothing, or for a grant the driver or the other mutator already
/// applied, which moves the node's wake epoch but leaves its inbox empty.
/// A spinning waiter must leave its wait on either, through the epoch or
/// its spin window, and enter: every increment lands once, and nothing is
/// applied twice. First, the exclusion the count rests on: a thread at
/// node 0 does not enter while its neighbour is inside a bracket on the
/// object.
#[test]
fn waits_on_a_local_release_or_a_grant_applied_by_another_thread_end() {
    const ROUNDS: u64 = 300;

    within(Duration::from_secs(60), "the three-mutator run", || {
        let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
        let h0 = pc.handle(n(0));
        let bunch = h0.create_bunch().expect("bunch");
        let obj = h0.alloc(bunch, &counter_spec()).expect("alloc");
        h0.add_root(obj).expect("root");
        let h1 = pc.handle(n(1));
        h1.map_bunch(bunch, n(0)).expect("map");
        h1.add_root(obj).expect("root");

        h0.acquire_write(obj).expect("first thread enters");
        let (entered, rx) = mpsc::channel();
        let second = {
            let h0 = h0.clone();
            std::thread::spawn(move || {
                increment(&h0, obj).expect("second thread");
                let _ = entered.send(());
            })
        };
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "the second thread entered inside its neighbour's bracket"
        );
        h0.release(obj).expect("first thread leaves");
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the second thread enters after the release");
        second.join().expect("second thread");

        let mutators: Vec<_> = [h0.clone(), h0, h1]
            .into_iter()
            .map(|h| {
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        increment(&h, obj).expect("increment");
                    }
                })
            })
            .collect();
        for m in mutators {
            m.join().expect("mutator thread");
        }

        assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
        let (mut c, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
        assert_eq!(c.total_stat(StatKind::DuplicateDeliveries), 0);
        assert_eq!(report.dropped, 0, "{report:?}");
        c.acquire_read(n(0), obj).expect("acquire");
        assert_eq!(c.read_data(n(0), obj, 1).expect("read"), 1 + 3 * ROUNDS);
    });
}

/// What `ParallelCluster::ops` and the per-node `NodeLiveness::ops` count: one per
/// completed typed call, `with` or acquire, whichever path completed it
/// (one site, the gather of `map_bunch` and `with`, a remote grant) — never
/// one per acquire poll, and none for a call that fails.
#[test]
fn ops_count_each_completed_call_once() {
    const K: u64 = 8;
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let (h0, h1) = (pc.handle(n(0)), pc.handle(n(1)));
    let counted = |pc: &ParallelCluster| {
        let per_node: u64 = pc.liveness().iter().map(|lv| lv.ops).sum();
        (pc.ops(), per_node)
    };
    let mut expected = 0;

    // Typed calls.
    let bunch = h0.create_bunch().expect("bunch");
    let objs: Vec<Addr> = (0..K)
        .map(|_| h0.alloc(bunch, &counter_spec()).expect("alloc"))
        .collect();
    expected += 1 + K;
    assert_eq!(counted(&pc), (expected, expected), "typed calls");

    // Local acquires, each satisfied by its first poll, then their releases.
    for &o in &objs {
        h0.acquire_write(o).expect("local acquire");
    }
    expected += K;
    assert_eq!(counted(&pc), (expected, expected), "local acquires");
    for &o in &objs {
        h0.release(o).expect("release");
    }
    expected += K;
    assert_eq!(counted(&pc), (expected, expected), "releases");

    // `map_bunch` locks both sites.
    h1.map_bunch(bunch, n(0)).expect("map");
    expected += 1;
    assert_eq!(counted(&pc), (expected, expected), "map_bunch");

    // A remote acquire held up behind node 0's bracket: its first poll sends
    // the request, it polls on while the request waits in node 0's queue,
    // and a later poll claims the grant node 0's release sends. Each look at
    // node 1's wait is a `with`, one op apiece.
    let obj = objs[0];
    h0.acquire_write(obj).expect("owner enters");
    expected += 1;
    let (tx, rx) = mpsc::channel();
    let remote = {
        let h1 = h1.clone();
        std::thread::spawn(move || {
            let _ = tx.send(h1.acquire_write(obj));
        })
    };
    let waiting = |c: &mut Cluster| {
        let oid = c.oid_at(n(0), obj)?;
        Ok(c.engine.is_waiting(n(1), oid))
    };
    loop {
        expected += 1;
        if h0.with(waiting).expect("with") {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(counted(&pc), (expected, expected), "polls are not ops");
    assert!(rx.try_recv().is_err(), "node 0 still holds the token");
    h0.release(obj).expect("owner leaves");
    expected += 1;
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the remote acquire returns")
        .expect("and enters");
    remote.join().expect("remote thread");
    expected += 1;
    assert_eq!(counted(&pc), (expected, expected), "a remote acquire");
    h1.release(obj).expect("release at 1");
    expected += 1;

    // A failed call counts nothing.
    assert!(
        h0.read_data(Addr(0x10), 1).is_err(),
        "nothing is mapped there"
    );
    assert_eq!(counted(&pc), (expected, expected), "a failed call");

    pc.shutdown(Shutdown::Drain).expect("shutdown");
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
