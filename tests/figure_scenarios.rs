//! Executable reproductions of the paper's worked figures (experiments
//! F1–F4 in EXPERIMENTS.md).
//!
//! Node naming follows the paper: N1, N2, N3 map to `NodeId(0..3)`.

use bmx_repro::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Figure 1: bunch B1 mapped on N1 and N2, bunch B2 only on N3. The
/// inter-bunch reference O3 -> O5 created at N2 produces exactly one
/// inter-bunch SSP (stub at N2, scion at N3) even though O3 is cached on
/// two nodes; moving O3's write token from N2 to N1 produces the
/// intra-bunch SSP from N1 to N2.
#[test]
fn figure1_stub_and_scion_tables() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(3));
    let (n1, n2, n3) = (n(0), n(1), n(2));
    let b1 = c.create_bunch(n1).unwrap();
    let b2 = c.create_bunch(n3).unwrap();

    let o1 = c.alloc(n1, b1, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let o2 = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
    let o3 = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let _o4 = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
    let o5 = c.alloc(n3, b2, &ObjSpec::data(1)).unwrap();
    c.write_ref(n1, o1, 0, o2).unwrap();
    c.write_ref(n1, o1, 1, o3).unwrap();
    c.add_root(n1, o1);

    c.map_bunch(n2, b1, n1).unwrap();
    c.add_root(n2, o3);

    // N2 takes O3's write token and creates the inter-bunch reference.
    c.acquire_write(n2, o3).unwrap();
    c.write_ref(n2, o3, 0, o5).unwrap();
    c.release(n2, o3).unwrap();

    // Exactly one inter-bunch SSP, kept at the creating node (N2)...
    let stubs_n2 = &c.gc.node(n2).bunch(b1).unwrap().stub_table;
    assert_eq!(stubs_n2.inter().len(), 1, "one stub for O3->O5");
    assert_eq!(stubs_n2.inter()[0].target_bunch, b2);
    // ...and none at N1, despite N1 caching O3 too (Section 3.1).
    assert!(c
        .gc
        .node(n1)
        .bunch(b1)
        .is_none_or(|b| b.stub_table.inter().is_empty()));
    // The scion-message created the matching scion at N3.
    let scions_n3 = &c.gc.node(n3).bunch(b2).unwrap().scion_table;
    assert_eq!(scions_n3.inter().len(), 1);
    assert_eq!(scions_n3.inter()[0].source_node, n2);
    assert_eq!(scions_n3.inter()[0].source_bunch, b1);
    assert_eq!(c.total_stat(StatKind::ScionMessages), 1);

    // O3's write token goes from N2 to N1: the intra-bunch SSP from N1 to
    // N2 appears (stub at the new owner, scion at the old).
    c.acquire_write(n1, o3).unwrap();
    c.release(n1, o3).unwrap();
    let intra_stubs_n1 = &c.gc.node(n1).bunch(b1).unwrap().stub_table.intra();
    assert_eq!(intra_stubs_n1.len(), 1);
    assert_eq!(intra_stubs_n1[0].scion_at, n2);
    let intra_scions_n2 = &c.gc.node(n2).bunch(b1).unwrap().scion_table.intra();
    assert_eq!(intra_scions_n2.len(), 1);
    assert_eq!(intra_scions_n2[0].stub_at, n1);
    // No further scion-messages were needed: the SSP rode the grant.
    assert_eq!(c.total_stat(StatKind::ScionMessages), 1);

    // Token markers of the figure: N1 owns O3 with the write token; N2's
    // copy is inconsistent.
    assert_eq!(c.token_at(n1, o3).unwrap(), Token::Write);
    assert_eq!(c.token_at(n2, o3).unwrap(), Token::None);
    let oid3 = c.oid_at_local(n1, o3).unwrap();
    assert!(c.engine.is_owner(n1, oid3));
}

/// Figure 2: the BGC at N2 copies only the locally owned O2, merely scans
/// O1 and O3, leaves a forwarding header, and updates N2's references
/// without acquiring any token. N1 keeps using the old address until a
/// synchronization point brings it the relocation lazily.
#[test]
fn figure2_bgc_copies_only_locally_owned() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n1, n2) = (n(0), n(1));
    let b1 = c.create_bunch(n1).unwrap();
    let o1 = c.alloc(n1, b1, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let o2 = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
    let o3 = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.write_ref(n1, o1, 0, o2).unwrap();
    c.write_ref(n1, o1, 1, o3).unwrap();
    c.write_ref(n1, o3, 0, o2).unwrap();
    c.write_data(n1, o2, 0, 777).unwrap();
    c.add_root(n1, o1);
    c.map_bunch(n2, b1, n1).unwrap();
    c.add_root(n2, o1);

    // O2's ownership moves to N2 (so N2's BGC may copy it).
    c.acquire_write(n2, o2).unwrap();
    c.release(n2, o2).unwrap();

    let before_msgs = c.net.total_sent();
    let stats = c.run_bgc(n2, b1).unwrap();
    assert_eq!(stats.copied, 1, "only the locally owned O2 is copied");
    assert_eq!(stats.scanned, 2, "O1 and O3 are merely scanned");
    c.assert_gc_acquired_no_tokens();

    // A forwarding pointer was written into O2's header at N2 and N2's
    // local references were updated — strictly locally.
    let v = bmx_repro::addr::object::view(&c.mems[1], o2).unwrap();
    assert!(v.is_forwarded());
    let o2_new = v.forwarding;
    assert_ne!(o2_new, o2);
    assert_eq!(
        bmx_repro::addr::object::read_ref_field(&c.mems[1], o1, 0).unwrap(),
        o2_new,
        "O1's pointer updated at N2 without O1's write token"
    );
    assert_eq!(
        bmx_repro::addr::object::read_ref_field(&c.mems[1], o3, 0).unwrap(),
        o2_new,
        "O3's pointer updated at N2"
    );

    // N1 has not been informed: its replica still uses the old address.
    assert_eq!(
        bmx_repro::addr::object::read_ref_field(&c.mems[0], o1, 0).unwrap(),
        o2
    );
    assert!(!bmx_repro::addr::object::view(&c.mems[0], o2)
        .unwrap()
        .is_forwarded());

    // Both mutators keep working correctly despite the divergence
    // (Section 4.2): the data is consistent on each node's current copy.
    assert_eq!(c.read_data(n1, o2, 0).unwrap(), 777);
    assert_eq!(c.read_data(n2, o2, 0).unwrap(), 777);
    assert!(
        c.ptr_eq(n2, o2, o2_new),
        "the pointer-comparison operation sees through forwarding"
    );

    // A synchronization point (N1 acquires O2) carries the relocation
    // lazily — piggy-backed, with no extra messages beyond the protocol's.
    c.acquire_read(n1, o2).unwrap();
    c.release(n1, o2).unwrap();
    assert!(bmx_repro::addr::object::view(&c.mems[0], o2)
        .unwrap()
        .is_forwarded());
    assert_eq!(c.read_data(n1, o2, 0).unwrap(), 777);
    assert_eq!(c.total_stat(StatKind::ExplicitRelocationMessages), 0);
    let extra_gc_msgs = c.net.class_stats(MsgClass::GcBackground).sent
        + c.net.class_stats(MsgClass::StubTable).sent;
    assert_eq!(extra_gc_msgs, c.net.class_stats(MsgClass::StubTable).sent);
    let _ = before_msgs;
}

/// Figure 3: the four write-token-acquire cases and the Section 5
/// invariants. (a)/(c): nothing relocated, plain transfer. (b): relocations
/// at the granter ride the grant and are processed before the acquire
/// completes (invariant 1). (d): the requester relocated a referent itself;
/// the incoming object's pointers are rewritten to the local to-space
/// copies.
#[test]
fn figure3_write_acquire_cases() {
    // Case (a)/(c): no relocations anywhere.
    {
        let mut c = Cluster::new(ClusterConfig::with_nodes(2));
        let (n1, n2) = (n(0), n(1));
        let b = c.create_bunch(n1).unwrap();
        let o1 = c.alloc(n1, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        let o2 = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
        c.write_ref(n1, o1, 0, o2).unwrap();
        c.map_bunch(n2, b, n1).unwrap();
        c.acquire_write(n2, o1).unwrap();
        c.release(n2, o1).unwrap();
        assert_eq!(c.read_ref(n2, o1, 0).unwrap(), o2, "address unchanged");
    }
    // Case (b): O1 and O2 copied at the granter before the acquire.
    {
        let mut c = Cluster::new(ClusterConfig::with_nodes(2));
        let (n1, n2) = (n(0), n(1));
        let b = c.create_bunch(n1).unwrap();
        let o1 = c.alloc(n1, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        let o2 = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
        c.write_ref(n1, o1, 0, o2).unwrap();
        c.write_data(n1, o2, 0, 5).unwrap();
        c.add_root(n1, o1);
        c.map_bunch(n2, b, n1).unwrap();
        c.run_bgc(n1, b).unwrap(); // copies O1 and O2 at N1
        let o1_new_at_n1 = c.gc.node(n1).directory.resolve(o1);
        assert_ne!(o1_new_at_n1, o1);

        c.acquire_write(n2, o1).unwrap();
        c.release(n2, o1).unwrap();
        // Invariant 1: by the time the acquire completed, N2 knows both new
        // locations; its replica of O1 lives at the new address and points
        // at the new O2.
        let dir2 = &c.gc.node(n2).directory;
        assert_eq!(dir2.resolve(o1), o1_new_at_n1);
        let o2_new = c.gc.node(n1).directory.resolve(o2);
        assert_eq!(dir2.resolve(o2), o2_new);
        assert_eq!(
            bmx_repro::addr::object::read_ref_field(&c.mems[1], o1_new_at_n1, 0).unwrap(),
            o2_new
        );
        assert_eq!(
            c.read_data(n2, o2, 0).unwrap(),
            5,
            "old address still works via forwarding"
        );
    }
    // Case (d): the *requester* copied the referent before the acquire.
    {
        let mut c = Cluster::new(ClusterConfig::with_nodes(2));
        let (n1, n2) = (n(0), n(1));
        let b = c.create_bunch(n1).unwrap();
        let o1 = c.alloc(n1, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        let o2 = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
        c.write_ref(n1, o1, 0, o2).unwrap();
        c.write_data(n1, o2, 0, 9).unwrap();
        c.map_bunch(n2, b, n1).unwrap();
        c.add_root(n2, o1);
        // N2 takes O2's ownership and collects: O2 moves at N2 only.
        c.acquire_write(n2, o2).unwrap();
        c.release(n2, o2).unwrap();
        c.run_bgc(n2, b).unwrap();
        let o2_new_at_n2 = c.gc.node(n2).directory.resolve(o2);
        assert_ne!(o2_new_at_n2, o2);
        // N1 still has O1 (whose field holds O2's old address). N2 acquires
        // O1: the incoming pointers must be rewritten to N2's to-space.
        c.acquire_write(n2, o1).unwrap();
        c.release(n2, o1).unwrap();
        let o1_cur = c.gc.node(n2).directory.resolve(o1);
        assert_eq!(
            bmx_repro::addr::object::read_ref_field(&c.mems[1], o1_cur, 0).unwrap(),
            o2_new_at_n2,
            "case (d): installed refs follow the requester's local forwarding"
        );
        assert_eq!(c.read_data(n2, o2, 0).unwrap(), 9);
    }
}

/// Figure 4 / Section 6.2: the full life cycle of a replicated object held
/// by intra-bunch SSPs — including the cycle-breaking omission of the
/// exiting ownerPtr for objects reachable only through an intra-bunch
/// scion — down to the cascaded reclamation on all three nodes and of the
/// inter-bunch target.
#[test]
fn figure4_intra_ssp_cascade_deletion() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(3));
    let (n1, n2, n3) = (n(0), n(1), n(2));
    // O1 lives in B1 created at N3, which also created the inter-bunch
    // reference O1 -> X (X in B2 at N3), so N3 holds inter-bunch stubs.
    let b1 = c.create_bunch(n3).unwrap();
    let b2 = c.create_bunch(n3).unwrap();
    let o1 = c.alloc(n3, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let x = c.alloc(n3, b2, &ObjSpec::data(1)).unwrap();
    c.write_ref(n3, o1, 0, x).unwrap();

    c.map_bunch(n2, b1, n3).unwrap();
    c.map_bunch(n1, b1, n3).unwrap();

    // Ownership of O1 moves to N2: intra-bunch SSP stub@N2 -> scion@N3.
    c.acquire_write(n2, o1).unwrap();
    c.release(n2, o1).unwrap();
    assert_eq!(c.gc.node(n2).bunch(b1).unwrap().stub_table.intra().len(), 1);
    assert_eq!(
        c.gc.node(n3).bunch(b1).unwrap().scion_table.intra().len(),
        1
    );

    // The only mutator reference is at N1.
    c.acquire_read(n1, o1).unwrap();
    c.release(n1, o1).unwrap();
    let root = c.add_root(n1, o1);
    let oid1 = c.oid_at_local(n3, o1).unwrap();
    let oid_x = c.oid_at_local(n3, x).unwrap();

    // Step A: BGC at N1 — O1 is live there; its exiting ownerPtr now names
    // N2 (the owner), so the cleaner at N3 drops N1's entering pointer.
    c.run_bgc(n1, b1).unwrap();
    assert!(
        !c.engine.obj_state(n3, oid1).unwrap().entering.contains(n1),
        "N1's ownerPtr no longer enters N3"
    );

    // Step B: BGC at N3 — O1 is reachable *only* through the intra-bunch
    // scion, so it stays alive but publishes no exiting ownerPtr; the
    // cleaner at N2 drops N3's entering pointer. This breaks the
    // self-keeping cycle of Section 6.2.
    let s = c.run_bgc(n3, b1).unwrap();
    assert_eq!(s.reclaimed, 0, "O1 must survive at N3 (intra scion)");
    let entering_n2 = &c.engine.obj_state(n2, oid1).unwrap().entering;
    assert!(entering_n2.contains(n1), "N1 still enters N2");
    assert!(
        !entering_n2.contains(n3),
        "N3's ownerPtr was omitted and cleaned"
    );

    // Step C: BGC at N2 — O1 alive via N1's entering pointer; the intra
    // stub to N3 is retained.
    let s = c.run_bgc(n2, b1).unwrap();
    assert_eq!(s.reclaimed, 0);
    assert_eq!(c.gc.node(n2).bunch(b1).unwrap().stub_table.intra().len(), 1);

    // Step D: the mutator at N1 drops its reference; N1's BGC reclaims the
    // local replica and stops reporting the exiting pointer.
    c.remove_root(n1, root);
    let s = c.run_bgc(n1, b1).unwrap();
    assert_eq!(s.reclaimed, 1, "O1's replica dies at N1");
    assert!(c.engine.obj_state(n2, oid1).unwrap().entering.is_empty());

    // Step E: BGC at N2 — nothing reaches O1 any more; it is reclaimed and
    // the intra-bunch stub leaves the new stub table, so the cleaner at N3
    // deletes the intra-bunch scion.
    let s = c.run_bgc(n2, b1).unwrap();
    assert_eq!(s.reclaimed, 1, "O1 dies at N2");
    assert!(c
        .gc
        .node(n3)
        .bunch(b1)
        .unwrap()
        .scion_table
        .intra()
        .is_empty());

    // Step F: BGC at N3 — O1 dies on its last node; its inter-bunch stub is
    // dropped and the local cleaner prunes X's scion.
    let s = c.run_bgc(n3, b1).unwrap();
    assert_eq!(s.reclaimed, 1, "O1 dies at N3");
    assert!(c
        .gc
        .node(n3)
        .bunch(b1)
        .unwrap()
        .stub_table
        .inter()
        .is_empty());
    assert!(c
        .gc
        .node(n3)
        .bunch(b2)
        .unwrap()
        .scion_table
        .inter()
        .is_empty());

    // Step G: BGC of B2 at N3 — the inter-bunch target X is finally
    // reclaimed too.
    let s = c.run_bgc(n3, b2).unwrap();
    assert_eq!(s.reclaimed, 1, "X dies once its scion is gone");
    assert!(c.engine.obj_state(n3, oid_x).is_none());

    // Throughout all of this the collector acquired no tokens.
    c.assert_gc_acquired_no_tokens();
}
