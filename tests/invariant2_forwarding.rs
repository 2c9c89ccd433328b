//! Invariant 2 (Section 5): "A node that receives a message with the new
//! location for an object forwards this information to all the nodes that
//! are in the local copy-set for the object."
//!
//! With distributed copy-sets, the owner may not even know some read
//! holders; the relocation records reach them through the granting
//! intermediary — still piggy-backed, still zero extra messages.

use bmx_repro::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

#[test]
fn relocations_fan_out_through_copy_sets() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(3));
    let (n0, n1, n2) = (n(0), n(1), n(2));
    let b = c.create_bunch(n0).unwrap();
    // The object that will be relocated by n0's collector.
    let o = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, o, 0, 55).unwrap();
    c.add_root(n0, o);
    // A second object whose ownership will sit at n1, so that an n1->n2
    // message exists to carry the forwarded records.
    let carrier = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.map_bunch(n1, b, n0).unwrap();
    c.map_bunch(n2, b, n0).unwrap();
    c.add_root(n1, o);
    c.add_root(n2, o);

    // Build the copy-set tree for `o`: n1 reads from the owner; n2 reads
    // *from n1* (the engine grants from any read holder when the request
    // lands there — force that by moving `carrier`'s ownership to n1 and
    // reading `o` right after n1 holds its token).
    c.acquire_read(n1, o).unwrap();
    c.release(n1, o).unwrap();
    c.acquire_read(n2, o).unwrap();
    c.release(n2, o).unwrap();
    c.acquire_write(n1, carrier).unwrap();
    c.release(n1, carrier).unwrap();

    // n0's collector relocates `o` (and everything else it owns).
    c.run_bgc(n0, b).unwrap();
    let o_new = c.gc.node(n0).directory.resolve(o);
    assert_ne!(o_new, o, "o moved at n0");
    // Nothing has been sent to n1/n2 yet (lazy): their directories are
    // unaware unless the reports already informed the cleaner — relocation
    // knowledge travels only with DSM traffic or the reuse protocol.
    // (Reports carry reachability, not relocations.)

    // An n0->n1 protocol message (n1 re-acquires o after being invalidated
    // by nothing — it still holds its token, so acquire is local; force a
    // real message by having n1 acquire the carrier's write again after n0
    // takes it back).
    c.acquire_write(n0, carrier).unwrap();
    c.release(n0, carrier).unwrap();
    c.acquire_write(n1, carrier).unwrap();
    c.release(n1, carrier).unwrap();
    // The grant n0 -> n1 piggy-backed o's relocation; n1 applied it.
    assert_eq!(
        c.gc.node(n1).directory.resolve(o),
        o_new,
        "n1 learned the move"
    );

    // Invariant 2: n1 must forward the record to its copy-set for o. If n2
    // is in n1's copy-set, the next n1 -> n2 message carries it; otherwise
    // (n2 acquired from the owner) n2 learns on its own next exchange with
    // n0. Either way, after one n1/n2-bound message, n2 knows — with zero
    // explicit relocation messages anywhere.
    let in_n1_copyset = {
        let oid = c.oid_at_local(n0, o).unwrap();
        c.engine
            .obj_state(n1, oid)
            .map(|s| s.copy_set.contains(n2))
            .unwrap_or(false)
    };
    // Trigger an n1 -> n2 protocol message: n2 takes the carrier from n1.
    c.acquire_write(n2, carrier).unwrap();
    c.release(n2, carrier).unwrap();
    if in_n1_copyset {
        assert_eq!(
            c.gc.node(n2).directory.resolve(o),
            o_new,
            "n2 learned the move through n1's copy-set forwarding"
        );
    }
    // While n2 still holds its read token its replica needs no update at
    // all (weak consistency: local reads stay correct on the old copy).
    c.acquire_read(n2, o).unwrap();
    assert_eq!(c.read_data(n2, o, 0).unwrap(), 55);
    c.release(n2, o).unwrap();
    // Regardless of the grant topology, n2's next *real* protocol exchange
    // on o aligns the addresses (invariant 1): invalidate its token, then
    // re-acquire.
    c.acquire_write(n0, o).unwrap();
    c.write_data(n0, o, 0, 56).unwrap();
    c.release(n0, o).unwrap();
    c.acquire_read(n2, o).unwrap();
    assert_eq!(c.read_data(n2, o, 0).unwrap(), 56);
    c.release(n2, o).unwrap();
    assert_eq!(c.gc.node(n2).directory.resolve(o), o_new);
    assert_eq!(c.total_stat(StatKind::ExplicitRelocationMessages), 0);
    c.assert_gc_acquired_no_tokens();
    bmx_repro::bmx::audit::assert_clean(&c);
}

/// A held pre-collection address gains one forwarding edge per collection
/// until a reuse round drops them: a hundred collections with no
/// `reuse_from_space` leave a hundred-hop chain, which is legitimate and
/// must resolve — the walk is bounded by the directory's edge count, not
/// by a constant.
#[test]
fn a_hundred_collections_without_reuse_still_resolve() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let o = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, o, 0, 55).unwrap();
    c.add_root(n0, o);
    for _ in 0..100 {
        c.run_bgc(n0, b).unwrap();
    }
    let (cur, hops) = c.gc.node(n0).directory.resolve_hops(o);
    assert_eq!(hops, 100, "one edge per collection");
    assert_ne!(cur, o);
    assert_eq!(c.read_data(n0, o, 0).unwrap(), 55);
    c.write_data(n0, o, 0, 56).unwrap();
    assert_eq!(c.read_data(n0, cur, 0).unwrap(), 56);
    bmx_repro::bmx::audit::assert_clean(&c);
}

/// The bound that replaced the constant still catches what it was there
/// for: a walk longer than the directory has edges is a cycle.
#[test]
#[should_panic(expected = "forwarding cycle")]
fn a_forged_forwarding_cycle_still_panics() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let o = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    let oid = c.oid_at_local(n0, o).unwrap();
    let elsewhere = o.add_words(64);
    let dir = &mut c.gc.node_mut(n0).directory;
    dir.record_move(oid, o, elsewhere);
    dir.record_move(oid, elsewhere, o);
    let _ = c.read_data(n0, o, 0);
}
