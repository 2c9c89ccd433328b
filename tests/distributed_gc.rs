//! Cross-node collector behaviour beyond the worked figures: acyclic
//! distributed garbage, replicated-bunch collections interleaved with
//! mutation, and the from-space reuse protocol.

use bmx_repro::bmx::{audit, ClusterMsg};
use bmx_repro::dsm::DsmShared;
use bmx_repro::prelude::*;
use bmx_repro::workloads::lists;

mod schedule;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Acyclic distributed collection (Section 6): an object in bunch B2 is
/// kept alive solely by a remote inter-bunch stub in B1; when the source
/// reference dies, the reachability tables cascade and B2's object falls.
#[test]
fn acyclic_distributed_garbage_is_collected() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(2, schedule);
        let (n1, n2) = (n(0), n(1));
        let b1 = c.create_bunch(n1).unwrap();
        let b2 = c.create_bunch(n2).unwrap();
        let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
        let tgt = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
        c.add_root(n1, src);
        // Cross-node inter-bunch reference: scion-message to N2.
        c.write_ref(n1, src, 0, tgt).unwrap();
        assert_eq!(
            c.gc.node(n2).bunch(b2).unwrap().scion_table.inter().len(),
            1
        );

        // While the reference lives, B2's collection keeps the target.
        let s = c.run_bgc(n2, b2).unwrap();
        assert_eq!(s.reclaimed, 0);
        assert_eq!(s.live, 1);

        // The source drops the reference; B1's BGC rebuilds its stub table
        // without the stub, the cleaner at N2 prunes the scion, and the next
        // B2 collection reclaims the target.
        c.write_ref(n1, src, 0, Addr::NULL).unwrap();
        c.run_bgc(n1, b1).unwrap();
        assert!(c
            .gc
            .node(n2)
            .bunch(b2)
            .unwrap()
            .scion_table
            .inter()
            .is_empty());
        let s = c.run_bgc(n2, b2).unwrap();
        assert_eq!(s.reclaimed, 1);
        c.assert_gc_acquired_no_tokens();
    });
}

/// A dead source *object* (not just a dead reference) has the same effect:
/// stub retention requires the source object to be live.
#[test]
fn dead_source_object_releases_its_stubs() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(2, schedule);
        let (n1, n2) = (n(0), n(1));
        let b1 = c.create_bunch(n1).unwrap();
        let b2 = c.create_bunch(n2).unwrap();
        let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
        let tgt = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
        let root = c.add_root(n1, src);
        c.write_ref(n1, src, 0, tgt).unwrap();

        c.remove_root(n1, root);
        c.run_bgc(n1, b1).unwrap(); // src dies, stub dropped
        assert!(c
            .gc
            .node(n1)
            .bunch(b1)
            .unwrap()
            .stub_table
            .inter()
            .is_empty());
        let s = c.run_bgc(n2, b2).unwrap();
        assert_eq!(s.reclaimed, 1);
    });
}

/// Independent BGCs on different replicas of the same bunch, interleaved
/// with mutation: the shared list stays intact on every node, payloads and
/// structure preserved, with zero GC token traffic.
#[test]
fn replicated_bunch_collections_interleave_with_mutation() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(3, schedule);
        let n1 = n(0);
        let b = c.create_bunch(n1).unwrap();
        let list = lists::build_list(&mut c, n1, b, 12, 0).unwrap();
        c.add_root(n1, list.head);
        c.map_bunch(n(1), b, n1).unwrap();
        c.map_bunch(n(2), b, n1).unwrap();
        c.add_root(n(1), list.head);
        c.add_root(n(2), list.head);

        // Spread ownership: node 1 takes cells 4..8, node 2 takes cells 8..12.
        for i in 4..8 {
            c.acquire_write(n(1), list.cells[i]).unwrap();
            c.release(n(1), list.cells[i]).unwrap();
        }
        for i in 8..12 {
            c.acquire_write(n(2), list.cells[i]).unwrap();
            c.release(n(2), list.cells[i]).unwrap();
        }

        // Interleave: collect on each node, mutating between collections.
        for round in 0..3u64 {
            for node in [n1, n(1), n(2)] {
                c.run_bgc(node, b).unwrap();
                // Each BGC copies exactly the cells that node owns (4 each) —
                // independence of replicas (Section 4.1).
            }
            // Mutate a payload through the DSM after the collections.
            let cell = list.cells[(round as usize) % 12];
            let writer = n((round % 3) as u32);
            c.acquire_write(writer, cell).unwrap();
            c.write_data(writer, cell, lists::PAYLOAD, 1000 + round)
                .unwrap();
            c.release(writer, cell).unwrap();
        }

        // Every node still reads a structurally intact list with the latest
        // payloads (acquire gives the consistent copy).
        for node in [n1, n(1), n(2)] {
            for (i, &cell) in list.cells.iter().enumerate() {
                c.acquire_read(node, cell).unwrap();
                let v = c.read_data(node, cell, lists::PAYLOAD).unwrap();
                c.release(node, cell).unwrap();
                if i < 3 {
                    assert_eq!(v, 1000 + i as u64, "mutated payload at cell {i}");
                } else {
                    assert_eq!(v, i as u64, "original payload at cell {i}");
                }
            }
        }
        c.assert_gc_acquired_no_tokens();
    });
}

/// The copy counts of independent replica collections: each node copies
/// exactly what it owns, scans the rest (Section 4.2).
#[test]
fn each_replica_copies_exactly_its_owned_objects() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(2, schedule);
        let (n1, n2) = (n(0), n(1));
        let b = c.create_bunch(n1).unwrap();
        let list = lists::build_list(&mut c, n1, b, 10, 0).unwrap();
        c.add_root(n1, list.head);
        c.map_bunch(n2, b, n1).unwrap();
        c.add_root(n2, list.head);
        for i in 0..5 {
            c.acquire_write(n2, list.cells[i]).unwrap();
            c.release(n2, list.cells[i]).unwrap();
        }
        let s2 = c.run_bgc(n2, b).unwrap();
        assert_eq!(s2.copied, 5, "node 2 owns the first five cells");
        assert_eq!(s2.scanned, 5);
        let s1 = c.run_bgc(n1, b).unwrap();
        assert_eq!(s1.copied, 5, "node 1 owns the last five");
        assert_eq!(s1.scanned, 5);
        // Both lists walk fine afterwards.
        assert_eq!(lists::read_payloads(&c, n1, list.head).unwrap().len(), 10);
        assert_eq!(lists::read_payloads(&c, n2, list.head).unwrap().len(), 10);
    });
}

/// From-space reuse (Section 4.5): after the explicit copy-request and
/// retire round, the retired segments are *released* — unmapped at every
/// replica holder, in no pool, unknown to the segment server — and a held
/// pre-collection address is still served through retired-range routing.
#[test]
fn from_space_reuse_protocol_reclaims_segments() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(2, schedule);
        let (n1, n2) = (n(0), n(1));
        let b = c.create_bunch(n1).unwrap();
        let list = lists::build_list(&mut c, n1, b, 8, 0).unwrap();
        let head_root = c.add_root(n1, list.head);
        c.map_bunch(n2, b, n1).unwrap();
        // Node 2 owns half the cells.
        for i in 4..8 {
            c.acquire_write(n2, list.cells[i]).unwrap();
            c.release(n2, list.cells[i]).unwrap();
        }
        let head_root_n2 = c.add_root(n2, list.head);

        // N1's BGC copies its four owned cells; the from-space still holds
        // N2-owned live objects and forwarding headers.
        c.run_bgc(n1, b).unwrap();
        let pending = c.gc.node(n1).bunch(b).unwrap().pending_from.clone();
        assert!(!pending.is_empty(), "retired from-space segments exist");

        // The reuse protocol: copy-requests to N2, address changes around,
        // then every replica holder lets the segments go.
        let done = c.reuse_from_space(n1, b).unwrap();
        assert!(done, "reuse completed");
        for node in [n1, n2] {
            let brs = c.gc.node(node).bunch(b).unwrap();
            for &sid in &pending {
                assert!(
                    !c.mems[node.0 as usize].has_segment(sid),
                    "{sid} still mapped at {node}"
                );
                assert!(!brs.pending_from.contains(&sid), "{sid} pending at {node}");
                assert!(!brs.alloc_segments.contains(&sid), "{sid} pooled at {node}");
            }
        }
        {
            let srv = c.server.borrow();
            assert_eq!(srv.segment_of(list.head), None, "range released");
            for &sid in &pending {
                assert!(srv.segment(sid).is_err());
                assert!(!srv.bunch(b).unwrap().segments.contains(&sid));
            }
        }
        // The list is still fully intact on both nodes, walked from the
        // (collector-updated) roots...
        let head_n1 = c.root(n1, head_root).unwrap();
        assert_ne!(
            head_n1, list.head,
            "the root was rewritten to the to-space copy"
        );
        assert_eq!(lists::read_payloads(&c, n1, head_n1).unwrap().len(), 8);
        let head_n2 = c.root(n2, head_root_n2).unwrap();
        assert_eq!(lists::read_payloads(&c, n2, head_n2).unwrap().len(), 8);
        // ...and from the stale head address an application may still hold:
        // every node dropped its forwarding edges with the range, the server's
        // retired-range routing kept them, and each node counts the hit.
        assert!(c.server.borrow().route(list.head).is_some());
        for node in [n1, n2] {
            let hits = |c: &Cluster| c.stats[node.0 as usize].get(StatKind::RetiredRouteHits);
            let before = hits(&c);
            assert_eq!(lists::read_payloads(&c, node, list.head).unwrap().len(), 8);
            assert!(
                hits(&c) > before,
                "{node} resolved the stale head by routing"
            );
        }
        // Allocation goes on, in the current space or a fresh range — never in
        // the released one.
        let extra = c.alloc(n1, b, &ObjSpec::data(4)).unwrap();
        c.write_data(n1, extra, 0, 31).unwrap();
        assert_eq!(c.read_data(n1, extra, 0).unwrap(), 31);
        assert!(extra > list.cells[7], "released addresses are not refilled");
        c.assert_gc_acquired_no_tokens();
    });
}

/// Ownership acquired *after* a collection leaves the object in the old
/// owner's pending from-space; the reuse protocol copies it out locally.
#[test]
fn reuse_copies_out_objects_owned_since_the_collection() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(2, schedule);
        let (n1, n2) = (n(0), n(1));
        let b = c.create_bunch(n1).unwrap();
        let o = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
        c.write_data(n1, o, 0, 42).unwrap();
        c.map_bunch(n2, b, n1).unwrap();
        c.add_root(n2, o);
        // N2 takes ownership, then N1's BGC runs: O is non-owned at N1 and N1
        // has no root for it... keep it alive at N1 via N2's entering pointer.
        c.acquire_write(n2, o).unwrap();
        c.release(n2, o).unwrap();
        c.add_root(n1, o);
        c.run_bgc(n1, b).unwrap(); // O stays in N1's from-space (N2 owns it)
                                   // Now N1 re-acquires ownership; O sits in pending from-space but is
                                   // locally owned.
        c.acquire_write(n1, o).unwrap();
        c.release(n1, o).unwrap();
        let done = c.reuse_from_space(n1, b).unwrap();
        assert!(done);
        assert_eq!(
            c.read_data(n1, o, 0).unwrap(),
            42,
            "copied out locally, data intact"
        );
    });
}

/// Bunches are collected independently: a BGC of one bunch leaves another
/// bunch's tables, spaces, and objects untouched.
#[test]
fn bunch_collections_are_independent() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(1, schedule);
        let n1 = n(0);
        let b1 = c.create_bunch(n1).unwrap();
        let b2 = c.create_bunch(n1).unwrap();
        let l1 = lists::build_list(&mut c, n1, b1, 5, 0).unwrap();
        let l2 = lists::build_list(&mut c, n1, b2, 5, 100).unwrap();
        c.add_root(n1, l1.head);
        c.add_root(n1, l2.head);
        let epoch_b2_before = c.gc.node(n1).bunch(b2).unwrap().epoch;
        let s = c.run_bgc(n1, b1).unwrap();
        assert_eq!(s.live, 5, "only B1's objects considered");
        assert_eq!(c.gc.node(n1).bunch(b2).unwrap().epoch, epoch_b2_before);
        assert_eq!(
            lists::read_payloads(&c, n1, l2.head).unwrap(),
            (100..105).collect::<Vec<_>>()
        );
    });
}

/// An inter-bunch stub whose target moved keeps its SSP through the reuse
/// of the target's from-space. The release rewrites the source's field to
/// the target's new address; it must rewrite the stub's target with it, or
/// the source bunch's next collection, which matches stubs to the fields it
/// traces, drops the stub, and the target dies with the scion.
#[test]
fn a_stub_keeps_its_target_through_a_reuse_at_the_same_node() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(1, schedule);
        let n0 = n(0);
        let (ba, bb) = (c.create_bunch(n0).unwrap(), c.create_bunch(n0).unwrap());
        let a = c.alloc(n0, ba, &ObjSpec::with_refs(1, &[0])).unwrap();
        let root = c.add_root(n0, a);
        let b = c.alloc(n0, bb, &ObjSpec::data(1)).unwrap();
        c.write_data(n0, b, 0, 55).unwrap();
        c.write_ref(n0, a, 0, b).unwrap();
        c.run_bgc(n0, bb).unwrap();
        assert!(c.reuse_from_space(n0, bb).unwrap());
        c.run_bgc(n0, ba).unwrap();
        let stubs = c.gc.node(n0).bunch(ba).unwrap().stub_table.inter().len();
        for _ in 0..2 {
            c.run_bgc(n0, bb).unwrap();
        }
        let a = c.root(n0, root).unwrap();
        let p = c.read_ref(n0, a, 0).unwrap();
        assert_eq!(c.read_data(n0, p, 0), Ok(55));
        assert_eq!(stubs, 1, "the stub survives the source's collection");
    });
}

/// A node that holds a pointer into a bunch it does not map takes part in
/// the target's retire round: it points the field at the target's new
/// address, so its next collection still finds the reference, keeps the
/// stub, and the target's scion with it. Before, the field kept the
/// released address, the collector found no bunch for it and dropped the
/// stub, and the target was reclaimed.
#[test]
fn a_pointer_from_a_node_that_does_not_map_the_target_survives_its_reuse() {
    schedule::each(|schedule| {
        let mut c = schedule::cluster(2, schedule);
        let (n0, n1) = (n(0), n(1));
        let ba = c.create_bunch(n0).unwrap();
        let bb = c.create_bunch(n1).unwrap();
        let src = c.alloc(n0, ba, &ObjSpec::with_refs(1, &[0])).unwrap();
        let root = c.add_root(n0, src);
        let tgt = c.alloc(n1, bb, &ObjSpec::data(1)).unwrap();
        c.write_data(n1, tgt, 0, 77).unwrap();
        c.write_ref(n0, src, 0, tgt).unwrap();
        c.run_bgc(n1, bb).unwrap();
        assert!(c.reuse_from_space(n1, bb).unwrap());
        c.run_bgc(n0, ba).unwrap();
        let findings: Vec<String> = audit::audit(&c).into_iter().map(|f| f.what).collect();
        for _ in 0..2 {
            c.run_bgc(n1, bb).unwrap();
        }
        let src = c.root(n0, root).unwrap();
        let p = c.read_ref(n0, src, 0).unwrap();
        assert_eq!(c.read_data(n1, p, 0), Ok(77));
        assert!(findings.is_empty(), "{findings:#?}");
        assert!(audit::audit(&c).is_empty());
    });
}

/// Starts a read acquire of the object at `addr` by `node` and leaves its
/// request on the network: no pump runs, so time passes only as the test
/// steps it.
fn request_read(c: &mut Cluster, node: NodeId, addr: Addr) {
    let oid = c.oid_at(node, addr).unwrap();
    let Cluster {
        engine,
        gc,
        mems,
        stats,
        net,
        ..
    } = c;
    let mut sh = DsmShared { mems, stats, gc };
    engine
        .start_read(node, oid, &mut sh, &mut |s, d, p| {
            net.send(s, d, MsgClass::Dsm, ClusterMsg::Dsm(p));
        })
        .unwrap();
}

/// The grace of a released range outlasts an envelope that carries an
/// address into it, sent before its sender swept and delivered after its
/// receiver did. N0's grant of `holder` to N1 leaves N0 just before N0
/// sweeps in N2's retire round, carrying `holder`'s pointer into the range
/// that round releases; a partition between N0 and N1 holds the grant
/// while that round and two more run. N0 and N1 map none of N2's bunches,
/// so they sit the second round out and sweep again in the third, which
/// covers the range; but N1 has not applied what N0 sent before sweeping,
/// so the routes stay. The grant lands, its pointer still reaches the
/// target, and a later round reclaims the routes.
#[test]
fn an_address_held_up_in_flight_keeps_its_range_routed() {
    const HOLD: u64 = 200;
    const HEAL: u64 = HOLD + 100;
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let fault = FaultPlan::none().partition(vec![n0], vec![n1], HOLD, HEAL);
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net: NetworkConfig::lossless(1).with_fault(fault),
        ..Default::default()
    });
    let a = c.create_bunch(n0).unwrap();
    let holder = c.alloc(n0, a, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n0, holder);
    c.map_bunch(n1, a, n0).unwrap();
    let holder_at_n1 = c.add_root(n1, holder);
    let b = c.create_bunch(n2).unwrap();
    let tgt = c.alloc(n2, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n2, tgt, 0, 42).unwrap();
    let churn: Vec<(BunchId, u64)> = (0..2)
        .map(|_| {
            let bunch = c.create_bunch(n2).unwrap();
            let kept = c.alloc(n2, bunch, &ObjSpec::data(1)).unwrap();
            (bunch, c.add_root(n2, kept))
        })
        .collect();
    // N1's replica of `holder` still has the field empty; only N0's grant
    // brings it the pointer, and N0's scion keeps the target alive.
    c.write_ref(n0, holder, 0, tgt).unwrap();
    c.run_bgc(n2, b).unwrap();
    for &(bunch, _) in &churn {
        c.run_bgc(n2, bunch).unwrap();
    }
    let now = c.net.now();
    assert!(now < HOLD - 1, "set-up ends before the partition ({now})");
    c.step(HOLD - 1 - now).unwrap();

    // Tick HOLD - 1: N1 asks N0 for `holder`, N2 starts retiring `b`'s
    // from-space. At HOLD N0 grants (held by the partition), then sweeps.
    request_read(&mut c, n1, holder);
    for (round, bunch) in [b, churn[0].0, churn[1].0].into_iter().enumerate() {
        c.start_reuse(n2, bunch).unwrap();
        c.step(4).unwrap();
        let done = c.gc.node(n2).bunch(bunch).unwrap().reuse.is_none();
        assert!(done, "round {round} done");
    }
    // Both have swept the range since its release, but the grant N0 sent
    // before its first sweep has not reached N1.
    for node in [n0, n1] {
        let lag = c.server.borrow().sweep_lag(node).expect("swept");
        assert!(lag < c.server.borrow().release_clock(), "{node} swept it");
    }
    assert!(
        c.server.borrow().route(tgt).is_some(),
        "a range stays routed while an address into it is in flight"
    );

    // The partition heals and the grant lands after N1's sweeps.
    c.step(HEAL - c.net.now() + 2).unwrap();
    let h1 = c.root(n1, holder_at_n1).unwrap();
    assert!(c.poll_acquire(n1, h1, false).unwrap(), "the grant arrived");
    let p = c.read_ref(n1, h1, 0).unwrap();
    c.release(n1, h1).unwrap();
    assert_eq!(
        c.read_data(n2, p, 0),
        Ok(42),
        "the pointer reaches the target"
    );

    // Later rounds, and N1's sweep covers what the grant brought. The
    // partition dropped N0's table requests to N1, which N1 cannot tell from
    // ones still on their way: the link must carry a later envelope first
    // (here N0's table of `a`, which N1 maps).
    c.run_bgc(n0, a).unwrap();
    for &(bunch, root) in &churn {
        let kept = c.root(n2, root).unwrap();
        c.write_data(n2, kept, 0, 1).unwrap();
        c.run_bgc(n2, bunch).unwrap();
        assert!(c.reuse_from_space(n2, bunch).unwrap());
    }
    assert!(
        c.server.borrow().route(tgt).is_none(),
        "the grace has passed"
    );
    let p = c
        .read_ref(n1, c.root(n1, holder_at_n1).unwrap(), 0)
        .unwrap();
    assert_eq!(c.read_data(n2, p, 0), Ok(42));
    assert!(audit::audit(&c).is_empty());
    c.assert_gc_acquired_no_tokens();
}

/// The same for a duplicated message: N0 stores a pointer into `d` just as
/// N2 starts retiring `d`'s from-space, and the scion-message goes to `d`'s
/// creator N1 on a link that delays and doubles it. Both copies land after
/// N1 swept, naming the target by its released address; N1's collection
/// finds the target through the range's routing, so it stays alive, and a
/// later round points the scion at the target's new address.
#[test]
fn a_duplicated_message_held_up_in_flight_still_reaches_its_object() {
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let late = LinkFault {
        drop: 0.0,
        duplicate: 1.0,
        jitter: 20,
    };
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net: NetworkConfig {
            seed: 1,
            ..NetworkConfig::lossless(1).with_fault(FaultPlan::none().link(n0, n1, late))
        },
        ..Default::default()
    });
    let a = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, a, &ObjSpec::with_refs(1, &[0])).unwrap();
    let root = c.add_root(n0, src);
    let d = c.create_bunch(n1).unwrap();
    let tgt = c.alloc(n1, d, &ObjSpec::data(1)).unwrap();
    c.write_data(n1, tgt, 0, 7).unwrap();
    c.map_bunch(n2, d, n1).unwrap();
    c.acquire_write(n2, tgt).unwrap(); // N2 owns the target and moves it
    c.release(n2, tgt).unwrap();
    c.run_bgc(n2, d).unwrap();
    c.start_reuse(n2, d).unwrap();
    c.write_ref(n0, src, 0, tgt).unwrap(); // runs the round to its end
    assert!(c.gc.node(n2).bunch(d).unwrap().reuse.is_none());
    assert!(c.server.borrow().segment_of(tgt).is_none(), "released");
    let scions: Vec<Addr> =
        c.gc.node(n1)
            .bunch(d)
            .unwrap()
            .scion_table
            .inter()
            .iter()
            .map(|s| s.target_addr)
            .collect();
    assert_eq!(scions, vec![tgt], "one scion, installed after N1's sweep");
    assert!(c.total_stat(StatKind::DuplicateDeliveries) > 0);

    c.run_bgc(n1, d).unwrap();
    for _ in 0..2 {
        c.run_bgc(n2, d).unwrap();
    }
    let p = c.read_ref(n0, c.root(n0, root).unwrap(), 0).unwrap();
    assert_eq!(c.read_data(n2, p, 0), Ok(7), "the target survived");

    // Later rounds: N1's sweep points the scion past the released range,
    // and once N0's sweep is due too, the range's routes go.
    assert!(c.reuse_from_space(n2, d).unwrap());
    c.run_bgc(n2, d).unwrap();
    assert!(c.reuse_from_space(n2, d).unwrap());
    assert!(c.server.borrow().route(tgt).is_none());
    c.run_bgc(n1, d).unwrap();
    c.run_bgc(n2, d).unwrap();
    let p = c.read_ref(n0, c.root(n0, root).unwrap(), 0).unwrap();
    assert_eq!(c.read_data(n2, p, 0), Ok(7));
    assert!(audit::audit(&c).is_empty());
}

/// The one held-address fixture: N1 creates bunch `b` and its object `o`
/// (payload 42, rooted at N1), collects `b`, which moves `o`, and releases
/// the from-space in a reuse round. N0 still holds `a`, `o`'s address from
/// before the collection, outside its heap, so no sweep rewrote it, and
/// every node dropped its forwarding out of the released range with it.
/// With `own_replica` N0 maps `b` and keeps its replica of `o` through the
/// round; otherwise N0 maps nothing of `b`. N0 also has a private bunch
/// `a0` holding `h0` (one pointer field), and maps N1's bunch `hb`, whose
/// object `h` (one pointer field) N1 owns.
struct HeldFixture {
    c: Cluster,
    a: Addr,
    oid: Oid,
    /// Where `o` lives now at N1, the node that moved it.
    now: Addr,
    b: BunchId,
    a0: BunchId,
    h0: Addr,
    h: Addr,
}

impl HeldFixture {
    fn new(own_replica: bool) -> Self {
        let (n0, n1) = (n(0), n(1));
        let mut c = Cluster::new(ClusterConfig {
            nodes: 2,
            net: NetworkConfig::lossless(1),
            ..Default::default()
        });
        let b = c.create_bunch(n1).unwrap();
        let a = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
        c.write_data(n1, a, 0, 42).unwrap();
        let root = c.add_root(n1, a);
        let oid = c.oid_at(n1, a).unwrap();
        if own_replica {
            c.map_bunch(n0, b, n1).unwrap();
        }
        let a0 = c.create_bunch(n0).unwrap();
        let h0 = c.alloc(n0, a0, &ObjSpec::with_refs(1, &[0])).unwrap();
        c.add_root(n0, h0);
        let hb = c.create_bunch(n1).unwrap();
        let h = c.alloc(n1, hb, &ObjSpec::with_refs(1, &[0])).unwrap();
        c.add_root(n1, h);
        c.map_bunch(n0, hb, n1).unwrap();
        c.run_bgc(n1, b).unwrap();
        assert!(c.reuse_from_space(n1, b).unwrap());
        let now = c.root(n1, root).unwrap();
        assert_ne!(now, a, "N1 moved the object");
        assert!(c.server.borrow().segment_of(a).is_none(), "released");
        assert!(!c.gc.node(n0).directory.is_forwarded_from(a));
        HeldFixture {
            c,
            a,
            oid,
            now,
            b,
            a0,
            h0,
            h,
        }
    }

    /// Reads `o`'s payload at N0 through `p` inside a read bracket, with
    /// the object the bracket named.
    fn read_at(&mut self, p: Addr) -> Result<(Oid, u64)> {
        let n0 = n(0);
        self.c.acquire_read(n0, p)?;
        let oid = self.c.oid_at(n0, p)?;
        let v = self.c.read_data(n0, p, 0)?;
        self.c.release(n0, p)?;
        Ok((oid, v))
    }
}

type HeldRow = (
    &'static str,
    fn(&mut HeldFixture, bool) -> Result<(Oid, u64)>,
);

/// Every path that places a held address (`bmx_gc::held`) reaches the same
/// object with the same payload from the fixture's released address, with
/// and without a replica at the holding node: a plain read (without a
/// replica, the error names the object's current address, the same place);
/// an acquire, which asks the node and then the creator; a pointer store
/// with the address as its target; a root through a collection; and a
/// grant whose image carries the address, stored past the write barrier at
/// the granter.
#[test]
fn every_path_reaches_the_object_a_released_address_names() {
    const N0: NodeId = NodeId(0);
    let rows: [HeldRow; 5] = [
        ("read_data", |f, own| {
            if own {
                Ok((f.c.oid_at_local(N0, f.a)?, f.c.read_data(N0, f.a, 0)?))
            } else {
                let err = f.c.read_data(N0, f.a, 0).unwrap_err();
                assert_eq!(
                    err,
                    BmxError::Unmapped {
                        node: N0,
                        addr: f.now
                    }
                );
                f.read_at(f.now)
            }
        }),
        ("acquire_read/oid_at", |f, _| f.read_at(f.a)),
        ("write_ref", |f, _| {
            f.c.write_ref(N0, f.h0, 0, f.a)?;
            let p = f.c.read_ref(N0, f.h0, 0)?;
            assert_ne!(p, f.a, "the barrier stores where the address leads");
            f.read_at(p)
        }),
        ("add_root + BGC", |f, own| {
            let r = f.c.add_root(N0, f.a);
            f.c.run_bgc(N0, if own { f.b } else { f.a0 })?;
            let p = f.c.root(N0, r).unwrap();
            let reached = f.read_at(p);
            // The audit wants every root at a local header; this one may
            // name the released address until N0 next sweeps.
            f.c.remove_root(N0, r);
            reached
        }),
        ("grant", |f, _| {
            let (n1, h) = (n(1), f.h);
            bmx_repro::addr::object::write_ref_field(&mut f.c.mems[1], h, 0, f.a)?;
            assert_eq!(
                f.c.read_ref(n1, h, 0)?,
                f.a,
                "N1's image carries the address"
            );
            f.c.acquire_read(N0, h)?;
            let p = f.c.read_ref(N0, h, 0)?;
            f.c.release(N0, h)?;
            assert_ne!(p, f.a, "the install placed the address");
            // N1's field was stored past the barrier, and the audit would
            // rightly flag it.
            bmx_repro::addr::object::write_ref_field(&mut f.c.mems[1], h, 0, Addr::NULL)?;
            f.read_at(p)
        }),
    ];
    for own in [true, false] {
        for (name, row) in rows {
            let mut f = HeldFixture::new(own);
            let oid = f.oid;
            assert_eq!(row(&mut f, own), Ok((oid, 42)), "{name}, own replica {own}");
            let findings: Vec<String> = audit::audit(&f.c).into_iter().map(|f| f.what).collect();
            assert!(
                findings.is_empty(),
                "{name}, own replica {own}: {findings:#?}"
            );
        }
    }
}

/// A released address whose creator keeps its copy: `oid_at` at a node
/// without a replica asks the creator, and the creator's answer is the
/// route's, so the node's directory learns the edge and names the object
/// where the creator holds it: the held address and the current one are
/// the same object to the pointer comparison (Section 4.2). Before, the
/// node recorded the released address itself as the object's location,
/// where no node can map anything, and the comparison said two objects.
#[test]
fn oid_at_learns_the_creators_copy_for_a_released_address() {
    let n0 = n(0);
    let mut f = HeldFixture::new(false);
    assert_eq!(f.c.oid_at(n0, f.a), Ok(f.oid));
    assert_eq!(f.c.gc.node(n0).directory.addr_of(f.oid), Some(f.now));
    assert!(f.c.ptr_eq(n0, f.a, f.now));
}

/// A pointer store whose target lies in a range still retiring, which N0
/// does not map and whose route a participant has registered: the barrier
/// stores where the route leads. N0 holds a pointer into the bunch only
/// from this store on, after the round's `Retire` went out, so no sweep of
/// that round reaches the field. Before, the field kept the retiring
/// address, which the round then released, and the audit found a pointer
/// outside every bunch.
#[test]
fn a_store_into_a_retiring_range_names_where_its_route_leads() {
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net: NetworkConfig::lossless(1),
        ..Default::default()
    });
    let a0 = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, a0, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n0, src);
    let d = c.create_bunch(n1).unwrap();
    let t = c.alloc(n1, d, &ObjSpec::data(1)).unwrap();
    c.write_data(n1, t, 0, 9).unwrap();
    let root = c.add_root(n1, t);
    c.map_bunch(n2, d, n1).unwrap();
    c.run_bgc(n1, d).unwrap();
    let now = c.root(n1, root).unwrap();
    assert_ne!(now, t, "N1 moved the target");
    c.start_reuse(n1, d).unwrap();
    let retiring_and_routed = |c: &Cluster| {
        let srv = c.server.borrow();
        srv.segment_of(t).is_some() && srv.route(t).is_some()
    };
    for _ in 0..20 {
        if retiring_and_routed(&c) {
            break;
        }
        c.step(1).unwrap();
    }
    assert!(
        retiring_and_routed(&c),
        "a participant registered the route"
    );
    c.write_ref(n0, src, 0, t).unwrap();
    c.settle(200).unwrap();
    assert!(
        c.gc.node(n1).bunch(d).unwrap().reuse.is_none(),
        "round done"
    );
    assert!(c.server.borrow().segment_of(t).is_none(), "released");
    assert_eq!(c.read_ref(n0, src, 0), Ok(now));
    assert_eq!(c.read_data(n1, now, 0), Ok(9));
    let findings: Vec<String> = audit::audit(&c).into_iter().map(|f| f.what).collect();
    assert!(findings.is_empty(), "{findings:#?}");
}

/// A sweep follows a route across a range retiring in the same round. N2
/// holds a root at `t` without mapping `t`'s bunch and sweeps only every
/// other release, so it sits out the rounds that release `t`'s range and
/// the next; N1 moves the object on in every round. N0, a mapper whose
/// `Retire` is delivered in the same tick but first, registers the route
/// out of the retiring range before N2, due by then, sweeps, and N2's root
/// goes to where N1 holds the object now. Before, the sweep stopped at the range not yet released and
/// pointed the root into it, which the same round then released.
#[test]
fn a_sweep_follows_a_route_across_a_range_retiring_in_the_same_round() {
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let mut c = Cluster::new(ClusterConfig {
        nodes: 3,
        net: NetworkConfig::lossless(1),
        ..Default::default()
    });
    // A round in which N2 sweeps, so the next ones do not wait for it.
    let e = c.create_bunch(n1).unwrap();
    let kept = c.alloc(n1, e, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, kept);
    c.run_bgc(n1, e).unwrap();
    assert!(c.reuse_from_space(n1, e).unwrap());
    assert!(c.server.borrow().sweep_lag(n2).is_some(), "N2 swept");
    let d = c.create_bunch(n1).unwrap();
    let t = c.alloc(n1, d, &ObjSpec::data(1)).unwrap();
    c.write_data(n1, t, 0, 5).unwrap();
    let at_n1 = c.add_root(n1, t);
    c.map_bunch(n0, d, n1).unwrap();
    let at_n2 = c.add_root(n2, t);
    let mut rounds = 0;
    while c.root(n2, at_n2) == Some(t) {
        rounds += 1;
        assert!(rounds < 8, "N2 never swept");
        c.run_bgc(n1, d).unwrap();
        assert!(c.reuse_from_space(n1, d).unwrap());
    }
    assert!(rounds > 2, "N2 swept only after {rounds} rounds");
    let now = c.root(n1, at_n1).unwrap();
    assert_eq!(c.root(n2, at_n2), Some(now));
    assert!(c.server.borrow().segment_of(now).is_some());
    assert_eq!(c.read_data(n1, now, 0), Ok(5));
}
