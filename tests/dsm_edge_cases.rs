//! Entry-consistency protocol edge cases at cluster level: deep
//! invalidation trees, long ownerPtr chains, competing writers behind a
//! critical section, and `WouldBlock` surfacing.

use bmx_repro::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn shared_object(nodes: u32) -> (Cluster, Addr) {
    let mut c = Cluster::new(ClusterConfig::with_nodes(nodes));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let o = c.alloc(n0, b, &ObjSpec::with_refs(2, &[0])).unwrap();
    c.add_root(n0, o);
    for i in 1..nodes {
        c.map_bunch(n(i), b, n0).unwrap();
        // Every node's mutator can name the object, so local collections
        // must keep every replica.
        c.add_root(n(i), o);
    }
    (c, o)
}

/// A deep grant tree (each node grants the next) is fully invalidated by
/// one write acquire, wherever it lands.
#[test]
fn deep_read_grant_tree_invalidates_fully() {
    const N: u32 = 8;
    let (mut c, o) = shared_object(N);
    // Build the chain: node i acquires its read token "via" node i-1 by
    // pointing its hint there before acquiring.
    for i in 1..N {
        let oid = c.oid_at(n(i), o).unwrap();
        if i > 1 {
            // Route the request through the previous reader.
            // (The engine resolves through any read holder.)
            let _ = oid;
        }
        c.acquire_read(n(i), o).unwrap();
        c.release(n(i), o).unwrap();
    }
    for i in 0..N {
        assert_ne!(
            c.token_at(n(i), o).unwrap(),
            Token::None,
            "reader {i} holds a token"
        );
    }
    // One write acquire at the last node invalidates everyone else.
    c.acquire_write(n(N - 1), o).unwrap();
    c.release(n(N - 1), o).unwrap();
    for i in 0..N - 1 {
        assert_eq!(
            c.token_at(n(i), o).unwrap(),
            Token::None,
            "reader {i} invalidated"
        );
    }
    assert_eq!(c.token_at(n(N - 1), o).unwrap(), Token::Write);
}

/// Ownership hops across every node; a request from the original creator
/// still routes through the (possibly long) ownerPtr chain.
#[test]
fn long_owner_ptr_chains_route_correctly() {
    const N: u32 = 6;
    let (mut c, o) = shared_object(N);
    for i in 1..N {
        c.acquire_write(n(i), o).unwrap();
        c.write_data(n(i), o, 1, i as u64).unwrap();
        c.release(n(i), o).unwrap();
    }
    // The creator's hint is stale by N-2 hops; the request still arrives.
    c.acquire_write(n(0), o).unwrap();
    assert_eq!(c.read_data(n(0), o, 1).unwrap(), (N - 1) as u64);
    c.release(n(0), o).unwrap();
    let oid = c.oid_at_local(n(0), o).unwrap();
    assert!(c.engine.is_owner(n(0), oid));
}

/// Two remote writers queue behind a held critical section; both complete
/// after release, serialized, and the last value wins.
#[test]
fn competing_writers_queue_behind_critical_sections() {
    let (mut c, o) = shared_object(3);
    let (n0, n1, n2) = (n(0), n(1), n(2));
    // Owner (node 0) enters a critical section.
    c.acquire_write(n0, o).unwrap();
    c.write_data(n0, o, 1, 10).unwrap();
    // Remote writers request while it is held: they must block (the
    // deterministic driver surfaces that as WouldBlock).
    assert!(matches!(
        c.acquire_write(n1, o),
        Err(BmxError::WouldBlock { .. })
    ));
    assert!(matches!(
        c.acquire_write(n2, o),
        Err(BmxError::WouldBlock { .. })
    ));
    // Release: the queued transfer proceeds (first requester wins).
    c.release(n0, o).unwrap();
    let t1 = c.token_at(n1, o).unwrap();
    let t2 = c.token_at(n2, o).unwrap();
    assert!(
        (t1 == Token::Write) ^ (t2 == Token::Write),
        "exactly one queued writer got the token: {t1:?}/{t2:?}"
    );
    // The winner mutates and the value propagates.
    let winner = if t1 == Token::Write { n1 } else { n2 };
    c.engine
        .lock(winner, c.oid_at_local(winner, o).unwrap())
        .unwrap();
    c.write_data(winner, o, 1, 99).unwrap();
    c.release(winner, o).unwrap();
    c.acquire_read(n0, o).unwrap();
    assert_eq!(c.read_data(n0, o, 1).unwrap(), 99);
    c.release(n0, o).unwrap();
}

/// Re-acquiring without an intervening writer costs no messages at all.
#[test]
fn token_retention_makes_reacquires_free() {
    let (mut c, o) = shared_object(2);
    c.acquire_read(n(1), o).unwrap();
    c.release(n(1), o).unwrap();
    let before = c.net.total_sent();
    for _ in 0..50 {
        c.acquire_read(n(1), o).unwrap();
        c.release(n(1), o).unwrap();
    }
    assert_eq!(c.net.total_sent(), before, "50 re-reads, zero messages");
}

/// A node set is one word: the highest node id it holds reads, and the
/// node that a copy-set could not name is refused where the cluster is
/// built, with the limit in the message.
#[test]
fn a_cluster_holds_at_most_64_nodes() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(64));
    let b = c.create_bunch(n(0)).unwrap();
    let o = c.alloc(n(0), b, &ObjSpec::with_refs(2, &[0])).unwrap();
    c.add_root(n(0), o);
    c.map_bunch(n(63), b, n(0)).unwrap();
    c.acquire_read(n(63), o).unwrap();
    c.release(n(63), o).unwrap();
    let oid = c.oid_at(n(0), o).unwrap();
    assert!(c
        .engine
        .obj_state(n(0), oid)
        .unwrap()
        .copy_set
        .contains(n(63)));

    let refused = std::panic::catch_unwind(|| Cluster::new(ClusterConfig::with_nodes(65)));
    let msg = refused.err().expect("65 nodes refused");
    let msg = msg.downcast_ref::<String>().expect("a formatted message");
    assert_eq!(msg, "a cluster has at most 64 nodes, got 65");
}

/// An envelope that errors mid-tick costs only itself: the next envelope
/// due in the same tick stays in flight, unstamped, and the next pump
/// applies it.
#[test]
fn an_error_mid_tick_loses_nothing_else() {
    use bmx_repro::bmx::ClusterMsg;
    use bmx_repro::dsm::{DsmMsg, DsmPacket};
    use bmx_repro::trace::{self, TraceEvent};

    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n0, n1) = (n(0), n(1));
    let stray = || {
        let ack = DsmMsg::InvalidateAck {
            oid: Oid(u64::MAX),
            child: n0,
        };
        ClusterMsg::Dsm(DsmPacket::single(ack))
    };
    c.net.send(n0, n1, MsgClass::Dsm, stray());
    c.net.send(n0, n1, MsgClass::Dsm, stray());
    trace::install(trace::UNBOUNDED);
    let err = c.pump().unwrap_err();
    let first = trace::take();
    assert!(
        matches!(&err, BmxError::Protocol(m) if m.starts_with("stray InvalidateAck")),
        "{err:?}"
    );
    assert_eq!(
        c.net.in_flight(),
        1,
        "the second envelope is still in flight"
    );
    let delivered = |recs: &[trace::TraceRecord]| -> Vec<u64> {
        recs.iter()
            .filter_map(|r| match r.event {
                TraceEvent::MsgDeliver { seq, .. } => Some(seq),
                _ => None,
            })
            .collect()
    };
    assert_eq!(delivered(&first), vec![1], "only the first was stamped");
    // The next pump reaches it, and it fails the same way.
    assert!(c.pump().is_err());
    let second = trace::take();
    trace::disable();
    assert_eq!(delivered(&second), vec![2]);
    assert_eq!(c.net.in_flight(), 0);
}

/// The collector runs while tokens are parked in every state (read-shared,
/// exclusive, inconsistent) without changing any of them.
#[test]
fn collections_preserve_every_token_state() {
    let (mut c, o) = shared_object(3);
    let b = c.server.borrow().bunch_of(o).unwrap();
    let (n0, n1, n2) = (n(0), n(1), n(2));
    // n1: read token; n2: inconsistent (invalidated by n0's write).
    c.acquire_read(n2, o).unwrap();
    c.release(n2, o).unwrap();
    c.acquire_write(n0, o).unwrap();
    c.release(n0, o).unwrap();
    c.acquire_read(n1, o).unwrap();
    c.release(n1, o).unwrap();
    let snapshot: Vec<Token> = (0..3).map(|i| c.token_at(n(i), o).unwrap()).collect();
    for i in 0..3 {
        c.run_bgc(n(i), b).unwrap();
    }
    let after: Vec<Token> = (0..3).map(|i| c.token_at(n(i), o).unwrap()).collect();
    assert_eq!(snapshot, after, "tokens untouched by three collections");
    c.assert_gc_acquired_no_tokens();
}
