//! Cross-node collector behaviour beyond the worked figures: acyclic
//! distributed garbage, replicated-bunch collections interleaved with
//! mutation, and the from-space reuse protocol.

use bmx_repro::prelude::*;
use bmx_repro::workloads::lists;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Acyclic distributed collection (Section 6): an object in bunch B2 is
/// kept alive solely by a remote inter-bunch stub in B1; when the source
/// reference dies, the reachability tables cascade and B2's object falls.
#[test]
fn acyclic_distributed_garbage_is_collected() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
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
}

/// A dead source *object* (not just a dead reference) has the same effect:
/// stub retention requires the source object to be live.
#[test]
fn dead_source_object_releases_its_stubs() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
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
}

/// Independent BGCs on different replicas of the same bunch, interleaved
/// with mutation: the shared list stays intact on every node, payloads and
/// structure preserved, with zero GC token traffic.
#[test]
fn replicated_bunch_collections_interleave_with_mutation() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(3));
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
}

/// The copy counts of independent replica collections: each node copies
/// exactly what it owns, scans the rest (Section 4.2).
#[test]
fn each_replica_copies_exactly_its_owned_objects() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
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
}

/// From-space reuse (Section 4.5): after the explicit copy-request and
/// retire round, the retired segments are *released* — unmapped at every
/// replica holder, in no pool, unknown to the segment server — and a held
/// pre-collection address is still served through retired-range routing.
#[test]
fn from_space_reuse_protocol_reclaims_segments() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
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
    // retired-range routing kept them.
    assert!(c.server.borrow().resolve_retired(list.head).is_some());
    for node in [n1, n2] {
        assert_eq!(lists::read_payloads(&c, node, list.head).unwrap().len(), 8);
    }
    // Allocation goes on, in the current space or a fresh range — never in
    // the released one.
    let extra = c.alloc(n1, b, &ObjSpec::data(4)).unwrap();
    c.write_data(n1, extra, 0, 31).unwrap();
    assert_eq!(c.read_data(n1, extra, 0).unwrap(), 31);
    assert!(extra > list.cells[7], "released addresses are not refilled");
    c.assert_gc_acquired_no_tokens();
}

/// Ownership acquired *after* a collection leaves the object in the old
/// owner's pending from-space; the reuse protocol copies it out locally.
#[test]
fn reuse_copies_out_objects_owned_since_the_collection() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
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
}

/// Bunches are collected independently: a BGC of one bunch leaves another
/// bunch's tables, spaces, and objects untouched.
#[test]
fn bunch_collections_are_independent() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
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
}
