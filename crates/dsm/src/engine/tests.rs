//! Protocol-level tests for the entry-consistency engine, driven by the
//! simulated network.

use bmx_addr::object;
use bmx_addr::server::{Protection, SegmentServer};
use bmx_addr::{NodeMemory, SegmentInfo};
use bmx_common::{Addr, BunchId, NodeId, NodeStats, Oid, StatKind};
use bmx_net::{MsgClass, Network, NetworkConfig};

use super::*;
use crate::integration::NullGcIntegration;
use crate::msg::DsmPacket;

struct Harness {
    engine: DsmEngine,
    mems: Vec<NodeMemory>,
    stats: Vec<NodeStats>,
    gc: NullGcIntegration,
    net: Network<DsmPacket>,
    #[allow(dead_code)]
    server: SegmentServer,
    bunch: BunchId,
    seg: SegmentInfo,
}

fn n(i: u32) -> NodeId {
    NodeId(i)
}

impl Harness {
    fn new(nodes: u32) -> Harness {
        let mut server = SegmentServer::new(256);
        let bunch = server.create_bunch(n(0), Protection::default());
        let seg = server.alloc_segment(bunch).unwrap();
        let mut mems: Vec<NodeMemory> = (0..nodes).map(|i| NodeMemory::new(n(i))).collect();
        for m in &mut mems {
            m.map_segment(seg);
        }
        Harness {
            engine: DsmEngine::new(nodes as usize),
            mems,
            stats: (0..nodes).map(|_| NodeStats::new()).collect(),
            gc: NullGcIntegration::new(),
            net: Network::new(NetworkConfig::lossless(1)),
            server,
            bunch,
            seg,
        }
    }

    /// Allocates an object at node 0 and registers replicas on every node.
    fn alloc(&mut self, oid: u64, size: u64, refs: &[u64]) -> Addr {
        let seg = self.mems[0].segment_mut(self.seg.id).unwrap();
        let addr = object::alloc_in_segment(seg, Oid(oid), size, refs).unwrap();
        // Mirror the raw allocation into every replica image (a fresh
        // mapping would have shipped the segment image; tests shortcut).
        let img = object::ObjectImage::capture(&self.mems[0], addr).unwrap();
        let count = self.mems.len();
        for i in 1..count {
            object::install_object_at(&mut self.mems[i], addr, &img).unwrap();
        }
        self.gc.register_everywhere(count as u32, Oid(oid), addr);
        self.engine.register_alloc(n(0), Oid(oid), self.bunch);
        for i in 1..count as u32 {
            let (engine, mems, stats, gc, net) = (
                &mut self.engine,
                &mut self.mems,
                &mut self.stats,
                &mut self.gc,
                &mut self.net,
            );
            let mut sh = DsmShared { mems, stats, gc };
            let mut send = |src: NodeId, dst: NodeId, pkt: DsmPacket| {
                net.send(src, dst, MsgClass::Dsm, pkt);
            };
            engine.register_mapped_replica(n(i), Oid(oid), self.bunch, n(0), &mut sh, &mut send);
        }
        self.pump();
        addr
    }

    fn pump(&mut self) {
        while self.net.in_flight() > 0 {
            let due = self.net.tick();
            for env in due {
                let (engine, mems, stats, gc, net) = (
                    &mut self.engine,
                    &mut self.mems,
                    &mut self.stats,
                    &mut self.gc,
                    &mut self.net,
                );
                let mut sh = DsmShared { mems, stats, gc };
                let mut send = |src: NodeId, dst: NodeId, pkt: DsmPacket| {
                    net.send(src, dst, MsgClass::Dsm, pkt);
                };
                engine
                    .handle(env.src, env.dst, env.payload, &mut sh, &mut send)
                    .unwrap();
            }
        }
    }

    fn start(&mut self, node: NodeId, oid: Oid, write: bool) -> AcquireStart {
        let (engine, mems, stats, gc, net) = (
            &mut self.engine,
            &mut self.mems,
            &mut self.stats,
            &mut self.gc,
            &mut self.net,
        );
        let mut sh = DsmShared { mems, stats, gc };
        let mut send = |src: NodeId, dst: NodeId, pkt: DsmPacket| {
            net.send(src, dst, MsgClass::Dsm, pkt);
        };
        if write {
            engine.start_write(node, oid, &mut sh, &mut send).unwrap()
        } else {
            engine.start_read(node, oid, &mut sh, &mut send).unwrap()
        }
    }

    fn acquire_read(&mut self, node: NodeId, oid: Oid) {
        self.start(node, oid, false);
        self.pump();
        assert!(
            matches!(self.engine.token(node, oid), Token::Read | Token::Write),
            "read acquire did not complete at {node} for {oid}"
        );
        self.claim(node, oid);
    }

    fn acquire_write(&mut self, node: NodeId, oid: Oid) {
        self.start(node, oid, true);
        self.pump();
        assert_eq!(
            self.engine.token(node, oid),
            Token::Write,
            "write acquire incomplete"
        );
        assert!(self.engine.is_owner(node, oid));
        self.claim(node, oid);
    }

    /// Claims a landed grant without entering a critical section: releases
    /// the grant-time reservation so later remote requests and
    /// invalidations are served. Every real caller does one of `lock()`
    /// (mutators) or `cancel_wait` (e.g. the strong-copy baseline); a
    /// token held by neither would keep the replica parked forever.
    fn claim(&mut self, node: NodeId, oid: Oid) {
        let (engine, mems, stats, gc, net) = (
            &mut self.engine,
            &mut self.mems,
            &mut self.stats,
            &mut self.gc,
            &mut self.net,
        );
        let mut sh = DsmShared { mems, stats, gc };
        let mut send = |src: NodeId, dst: NodeId, pkt: DsmPacket| {
            net.send(src, dst, MsgClass::Dsm, pkt);
        };
        engine.cancel_wait(node, oid, &mut sh, &mut send).unwrap();
        self.pump();
    }

    fn unlock(&mut self, node: NodeId, oid: Oid) {
        let (engine, mems, stats, gc, net) = (
            &mut self.engine,
            &mut self.mems,
            &mut self.stats,
            &mut self.gc,
            &mut self.net,
        );
        let mut sh = DsmShared { mems, stats, gc };
        let mut send = |src: NodeId, dst: NodeId, pkt: DsmPacket| {
            net.send(src, dst, MsgClass::Dsm, pkt);
        };
        engine.unlock(node, oid, &mut sh, &mut send).unwrap();
        self.pump();
    }
}

#[test]
fn owner_starts_with_write_token() {
    let mut h = Harness::new(2);
    h.alloc(1, 2, &[]);
    assert_eq!(h.engine.token(n(0), Oid(1)), Token::Write);
    assert!(h.engine.is_owner(n(0), Oid(1)));
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::None);
    assert!(h.engine.has_replica(n(1), Oid(1)));
}

#[test]
fn read_acquire_from_owner_ships_data() {
    let mut h = Harness::new(2);
    let a = h.alloc(1, 2, &[]);
    object::write_data_field(&mut h.mems[0], a, 0, 77).unwrap();
    h.acquire_read(n(1), Oid(1));
    assert_eq!(object::read_field(&h.mems[1], a, 0).unwrap(), 77);
    // The owner demoted write -> read and keeps ownership.
    assert_eq!(h.engine.token(n(0), Oid(1)), Token::Read);
    assert!(h.engine.is_owner(n(0), Oid(1)));
    // Owner registered the new replica holder.
    let st = h.engine.obj_state(n(0), Oid(1)).unwrap();
    assert!(st.entering.contains(&n(1)));
    assert!(st.copy_set.contains(&n(1)));
}

#[test]
fn read_acquire_already_held_is_local() {
    let mut h = Harness::new(2);
    h.alloc(1, 1, &[]);
    h.acquire_read(n(1), Oid(1));
    let before = h.net.total_sent();
    assert_eq!(h.start(n(1), Oid(1), false), AcquireStart::Satisfied);
    assert_eq!(h.net.total_sent(), before, "no messages for a held token");
}

#[test]
fn read_token_obtainable_from_non_owner_holder() {
    let mut h = Harness::new(3);
    h.alloc(1, 1, &[]);
    h.acquire_read(n(1), Oid(1));
    // Repoint node 2's hint at node 1 so the request lands on a non-owner
    // read holder, exercising the distributed copy-set grant.
    h.engine.ns_mut(n(2)).get_mut(Oid(1)).unwrap().owner_hint = n(1);
    h.acquire_read(n(2), Oid(1));
    assert_eq!(h.engine.token(n(2), Oid(1)), Token::Read);
    // Node 1 granted, so node 2 is in node 1's copy-set...
    assert!(h
        .engine
        .obj_state(n(1), Oid(1))
        .unwrap()
        .copy_set
        .contains(&n(2)));
    // ...and the owner learned about the replica via RegisterReplica.
    assert!(h
        .engine
        .obj_state(n(0), Oid(1))
        .unwrap()
        .entering
        .contains(&n(2)));
}

#[test]
fn write_acquire_invalidates_transitive_readers() {
    let mut h = Harness::new(4);
    h.alloc(1, 1, &[]);
    h.acquire_read(n(1), Oid(1));
    h.engine.ns_mut(n(2)).get_mut(Oid(1)).unwrap().owner_hint = n(1);
    h.acquire_read(n(2), Oid(1)); // granted by node 1 -> tree 0 -> 1 -> 2
    h.acquire_write(n(3), Oid(1));
    assert_eq!(h.engine.token(n(0), Oid(1)), Token::None);
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::None);
    assert_eq!(h.engine.token(n(2), Oid(1)), Token::None);
    assert_eq!(h.engine.token(n(3), Oid(1)), Token::Write);
    assert!(h.engine.is_owner(n(3), Oid(1)));
    assert!(!h.engine.is_owner(n(0), Oid(1)));
    // Old owner's ownerPtr points at the new owner.
    assert_eq!(h.engine.obj_state(n(0), Oid(1)).unwrap().owner_hint, n(3));
    let inval: u64 = (0..4)
        .map(|i| h.stats[i].get(StatKind::Invalidations))
        .sum();
    assert!(
        inval >= 3,
        "readers plus old owner invalidated, got {inval}"
    );
}

#[test]
fn unlock_round_coalesces_messages_per_destination() {
    let mut h = Harness::new(3);
    h.alloc(1, 1, &[]);
    // Two writers queue behind node 0's critical section.
    h.engine.lock(n(0), Oid(1)).unwrap();
    h.start(n(1), Oid(1), true);
    h.pump();
    h.start(n(2), Oid(1), true);
    h.pump();
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::None);
    assert_eq!(h.engine.token(n(2), Oid(1)), Token::None);
    let sent_before = h.net.total_sent();
    // Release without pumping: the round grants the token to node 1 AND
    // forwards node 2's queued request to the new owner — two protocol
    // messages, one destination, one envelope.
    {
        let (engine, mems, stats, gc, net) = (
            &mut h.engine,
            &mut h.mems,
            &mut h.stats,
            &mut h.gc,
            &mut h.net,
        );
        let mut sh = DsmShared { mems, stats, gc };
        let mut send = |src: NodeId, dst: NodeId, pkt: DsmPacket| {
            assert_eq!((src, dst), (n(0), n(1)));
            assert_eq!(pkt.msgs.len(), 2, "grant + forwarded request coalesce");
            assert_eq!(pkt.msgs[0].kind(), "WriteGrant");
            assert_eq!(pkt.msgs[1].kind(), "WriteReq");
            net.send(src, dst, MsgClass::Dsm, pkt);
        };
        engine.unlock(n(0), Oid(1), &mut sh, &mut send).unwrap();
    }
    assert_eq!(h.net.total_sent(), sent_before + 1, "one envelope, not two");
    h.pump();
    // Node 1's grant lands reserved for its waiter; the forwarded request
    // parks behind it. The waiter's critical section hands the token on.
    h.engine.lock(n(1), Oid(1)).unwrap();
    h.unlock(n(1), Oid(1));
    // The chained transfer still completes: node 2 ends up as owner.
    assert_eq!(h.engine.token(n(2), Oid(1)), Token::Write);
    assert!(h.engine.is_owner(n(2), Oid(1)));
    // Envelope count < constituent message count at the coalescing node.
    let env = h.stats[0].get(StatKind::DsmProtocolMessages);
    let logical = h.stats[0].get(StatKind::DsmLogicalMessages);
    assert!(
        env < logical,
        "coalescing must save envelopes: {env} envelopes / {logical} messages"
    );
}

#[test]
fn uncoalesced_engine_matches_final_state() {
    // The same contended schedule, coalescing off: wire envelopes revert to
    // one per message but every protocol outcome is identical.
    let run = |coalesce: bool| {
        let mut h = Harness::new(3);
        h.engine.set_coalescing(coalesce);
        h.alloc(1, 1, &[]);
        h.engine.lock(n(0), Oid(1)).unwrap();
        h.start(n(1), Oid(1), true);
        h.pump();
        h.start(n(2), Oid(1), true);
        h.pump();
        h.unlock(n(0), Oid(1));
        let tokens: Vec<Token> = (0..3).map(|i| h.engine.token(n(i), Oid(1))).collect();
        let owners: Vec<bool> = (0..3).map(|i| h.engine.is_owner(n(i), Oid(1))).collect();
        let logical: u64 = h
            .stats
            .iter()
            .map(|s| s.get(StatKind::DsmLogicalMessages))
            .sum();
        let envelopes: u64 = h
            .stats
            .iter()
            .map(|s| s.get(StatKind::DsmProtocolMessages))
            .sum();
        (tokens, owners, logical, envelopes)
    };
    let (t_on, o_on, logical_on, env_on) = run(true);
    let (t_off, o_off, logical_off, env_off) = run(false);
    assert_eq!(t_on, t_off);
    assert_eq!(o_on, o_off);
    assert_eq!(logical_on, logical_off, "same protocol actions either way");
    assert_eq!(
        logical_off, env_off,
        "uncoalesced: one envelope per message"
    );
    assert!(env_on < env_off, "coalescing saved envelopes");
}

#[test]
fn write_data_propagates_through_grants() {
    let mut h = Harness::new(3);
    let a = h.alloc(1, 2, &[]);
    h.acquire_write(n(1), Oid(1));
    object::write_data_field(&mut h.mems[1], a, 1, 4242).unwrap();
    h.acquire_read(n(2), Oid(1));
    assert_eq!(object::read_field(&h.mems[2], a, 1).unwrap(), 4242);
    // And back at the original allocator after it re-acquires.
    h.acquire_read(n(0), Oid(1));
    assert_eq!(object::read_field(&h.mems[0], a, 1).unwrap(), 4242);
}

#[test]
fn owner_ptr_chain_forwards_requests() {
    let mut h = Harness::new(3);
    h.alloc(1, 1, &[]);
    // Ownership hops 0 -> 1; node 2's hint still points at node 0.
    h.acquire_write(n(1), Oid(1));
    assert_eq!(h.engine.obj_state(n(2), Oid(1)).unwrap().owner_hint, n(0));
    // The request must be forwarded 2 -> 0 -> 1 and still complete.
    h.acquire_write(n(2), Oid(1));
    assert!(h.engine.is_owner(n(2), Oid(1)));
    // The intermediate old owner repointed to the requester when it lost
    // ownership, so chains stay short.
    assert_eq!(h.engine.obj_state(n(1), Oid(1)).unwrap().owner_hint, n(2));
}

/// A request routed by a stale ownerPtr to a node whose collector has
/// since reclaimed its replica is forwarded along the ownerPtr the record
/// left behind — it neither dies there nor fails the protocol.
#[test]
fn request_at_a_reclaimed_replica_follows_the_departed_owner_ptr() {
    for write in [false, true] {
        let mut h = Harness::new(3);
        h.alloc(1, 1, &[]);
        // Ownership hops 0 -> 2 -> 0; node 1's ownerPtr is pointed at node
        // 2 in between and never hears of the second hop.
        h.acquire_write(n(2), Oid(1));
        h.acquire_read(n(1), Oid(1));
        h.acquire_write(n(0), Oid(1));
        assert_eq!(h.engine.obj_state(n(1), Oid(1)).unwrap().owner_hint, n(2));
        assert_eq!(h.engine.obj_state(n(2), Oid(1)).unwrap().owner_hint, n(0));
        // Node 2's collector finds its (non-owned) replica dead.
        h.engine.drop_replica(n(2), Oid(1));
        // The request goes 1 -> 2 -> 0 and completes.
        if write {
            h.acquire_write(n(1), Oid(1));
        } else {
            h.acquire_read(n(1), Oid(1));
        }
    }
}

/// With no ownerPtr left behind (the record of an owner, whose object is
/// dead everywhere) the request is dropped, not answered with an error.
#[test]
fn request_for_an_object_reclaimed_at_its_owner_is_dropped() {
    let mut h = Harness::new(2);
    h.alloc(1, 1, &[]);
    h.acquire_write(n(1), Oid(1));
    h.engine.drop_replica(n(1), Oid(1));
    h.start(n(0), Oid(1), true);
    h.pump();
    assert_eq!(h.engine.token(n(0), Oid(1)), Token::None);
}

#[test]
fn owner_promotes_read_to_write_locally() {
    let mut h = Harness::new(2);
    h.alloc(1, 1, &[]);
    h.acquire_read(n(1), Oid(1)); // owner demotes to Read
    assert_eq!(h.engine.token(n(0), Oid(1)), Token::Read);
    h.acquire_write(n(0), Oid(1)); // promotion invalidates node 1
    assert_eq!(h.engine.token(n(0), Oid(1)), Token::Write);
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::None);
    assert!(h.engine.is_owner(n(0), Oid(1)));
}

#[test]
fn locked_object_defers_remote_requests() {
    let mut h = Harness::new(2);
    h.alloc(1, 1, &[]);
    h.engine.lock(n(0), Oid(1)).unwrap();
    h.start(n(1), Oid(1), true);
    h.pump();
    // The request is parked: node 1 must not have the token yet.
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::None);
    assert!(h.engine.is_waiting(n(1), Oid(1)));
    h.unlock(n(0), Oid(1));
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::Write);
    assert!(!h.engine.is_waiting(n(1), Oid(1)));
}

#[test]
fn locked_reader_defers_invalidation() {
    let mut h = Harness::new(3);
    h.alloc(1, 1, &[]);
    h.acquire_read(n(1), Oid(1));
    h.engine.lock(n(1), Oid(1)).unwrap();
    h.start(n(2), Oid(1), true);
    h.pump();
    // Node 1 is in a read critical section: it has not been invalidated and
    // the transfer is stalled.
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::Read);
    assert_eq!(h.engine.token(n(2), Oid(1)), Token::None);
    h.unlock(n(1), Oid(1));
    assert_eq!(h.engine.token(n(1), Oid(1)), Token::None);
    assert_eq!(h.engine.token(n(2), Oid(1)), Token::Write);
}

#[test]
fn exiting_and_entering_owner_ptr_tables() {
    let mut h = Harness::new(3);
    h.alloc(1, 1, &[]);
    h.alloc(2, 1, &[]);
    h.acquire_read(n(1), Oid(1));
    h.acquire_read(n(2), Oid(1));
    let bunch = h.bunch;
    // Non-owners export exiting pointers toward the owner.
    assert_eq!(
        h.engine.exiting_owner_ptrs(n(1), bunch),
        vec![(Oid(1), n(0)), (Oid(2), n(0))]
    );
    // The owner's entering table lists both replica holders for O1 (which
    // they acquired) and both mapped replicas for O2.
    let entering = h.engine.entering_owner_ptrs(n(0), bunch);
    let o1 = entering.iter().find(|(o, _)| *o == Oid(1)).unwrap();
    assert_eq!(o1.1, vec![n(1), n(2)]);
}

#[test]
fn gc_token_acquires_stay_zero() {
    let mut h = Harness::new(3);
    h.alloc(1, 1, &[]);
    h.acquire_read(n(1), Oid(1));
    h.acquire_write(n(2), Oid(1));
    for s in &h.stats {
        assert_eq!(s.get(StatKind::GcTokenAcquires), 0);
    }
    assert!(h.stats[0].get(StatKind::DsmProtocolMessages) > 0);
}

#[test]
fn sequential_writers_see_each_other() {
    let mut h = Harness::new(4);
    let a = h.alloc(1, 1, &[]);
    for round in 0..8u64 {
        let node = n((round % 4) as u32);
        h.acquire_write(node, Oid(1));
        let cur = object::read_field(&h.mems[node.0 as usize], a, 0).unwrap();
        assert_eq!(cur, round, "writer must observe the previous increment");
        object::write_data_field(&mut h.mems[node.0 as usize], a, 0, cur + 1).unwrap();
    }
}

#[test]
fn ref_fields_survive_grants() {
    let mut h = Harness::new(2);
    let a = h.alloc(1, 2, &[0]);
    let b = h.alloc(2, 1, &[]);
    object::write_ref_field(&mut h.mems[0], a, 0, b).unwrap();
    h.acquire_read(n(1), Oid(1));
    assert_eq!(object::read_ref_field(&h.mems[1], a, 0).unwrap(), b);
}
