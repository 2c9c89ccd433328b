//! The write barrier.
//!
//! Every pointer store goes through [`write_ref`]. Same-bunch stores are the
//! fast path; a store that creates an inter-bunch reference triggers SSP
//! construction "immediately after detecting the creation of the
//! corresponding inter-bunch reference" (paper, Section 3.2): the stub is
//! recorded locally, and the scion is created locally if the target bunch is
//! mapped here, or requested with a *scion-message* otherwise. The paper
//! instruments writes with a compiler-inserted C++ macro; here the barrier
//! is the only pointer-store API, which is the same interposition point.

use bmx_addr::object;
use bmx_addr::NodeMemory;
use bmx_common::{Addr, NodeId, NodeStats, Result, StatKind};
use bmx_trace::{self as trace, SspKind, TraceEvent};

use crate::msg::GcMsg;
use crate::ssp::{InterScion, InterStub, SspId};
use crate::state::{held, GcState, Held};

/// Performs the barriered pointer store `(*src).field = target` at `node`.
///
/// `(src_seg, src_off)` is where the caller located the current copy of
/// the source object: the index in [`NodeMemory::segments`] of its segment
/// and the word offset of its header there. The target goes through local
/// forwarding, so the stored pointer names the current copy; a target the
/// node does not map is placed by [`held`]. Both bunch ids of a store
/// between mapped objects come off the node's own segment descriptors: it
/// touches no shared state.
///
/// Returns the scion-message to transmit, if the store created a cross-node
/// inter-bunch reference. The caller (the cluster driver) owns transmission;
/// the barrier itself never blocks.
pub fn write_ref(
    gc: &mut GcState,
    node: NodeId,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    (src_seg, src_off): (usize, usize),
    field: u64,
    target: Addr,
) -> Result<Option<(NodeId, GcMsg)>> {
    let dir = &gc.node(node).directory;
    let mut target_cur = dir.resolve(target);
    let tgt_bunch = match mem.position(target_cur) {
        _ if target_cur.is_null() => None,
        Ok((seg, _)) => Some(mem.segments()[seg].info.bunch),
        Err(_) => {
            let at = held(mem, dir, &gc.server, target_cur);
            // A held address into a retired range is stored as where it
            // leads: the heap keeps no reference its sweep missed.
            if let Held::Routed { to, .. } = at {
                target_cur = to;
            }
            at.bunch(mem)
        }
    };
    let src_seg = &mut mem.segments_mut()[src_seg];
    object::write_ref_field_at(src_seg, src_off, field, target_cur)?;
    let src_bunch = src_seg.info.bunch;
    let source_oid = object::view_at(src_seg, src_off).oid;
    let Some(tgt_bunch) = tgt_bunch else {
        stats.bump(StatKind::BarrierFastPaths);
        return Ok(None);
    };
    // Incremental-collection graying: a pointer stored while the target's
    // bunch is under collection makes the target reachable through a
    // possibly-already-scanned object; the collector must revisit it.
    gc.node_mut(node)
        .gray_if_active(Some(tgt_bunch), target_cur);
    if src_bunch == tgt_bunch {
        stats.bump(StatKind::BarrierFastPaths);
        return Ok(None);
    }
    stats.bump(StatKind::BarrierSlowPaths);

    let target_oid = object::view(mem, target_cur).ok().map(|v| v.oid);
    let seq = gc.node_mut(node).next_ssp_seq();
    let id = SspId { node, seq };
    // The scion lives locally when the target bunch is mapped here;
    // otherwise at the target bunch's creator node (the stable home a
    // scion-message can always be routed to), and the bunch's retire rounds
    // must reach this node to sweep the pointer.
    let scion_at = if gc.node(node).bunches.contains_key(&tgt_bunch) {
        node
    } else {
        let mut srv = gc.server.borrow_mut();
        srv.note_referrer(tgt_bunch, node);
        srv.bunch(tgt_bunch)?.creator
    };
    let stub = InterStub {
        id,
        source_bunch: src_bunch,
        source_oid,
        target_bunch: tgt_bunch,
        target_addr: target_cur,
        target_oid,
        scion_at,
    };
    if !gc
        .node_mut(node)
        .bunch_or_default(src_bunch)
        .stub_table
        .add_inter(stub)
    {
        // The reference was already described by an existing SSP.
        return Ok(None);
    }
    trace::emit(
        node,
        TraceEvent::SspCreate {
            kind: SspKind::InterStub,
            oid: Some(source_oid),
            peer: scion_at,
        },
    );
    let scion = InterScion {
        id,
        source_node: node,
        source_bunch: src_bunch,
        target_bunch: tgt_bunch,
        target_addr: target_cur,
        target_oid,
    };
    if scion_at == node {
        gc.node_mut(node)
            .bunch_or_default(tgt_bunch)
            .scion_table
            .add_inter(scion);
        trace::emit(
            node,
            TraceEvent::SspCreate {
                kind: SspKind::InterScion,
                oid: target_oid,
                peer: node,
            },
        );
        Ok(None)
    } else {
        stats.bump(StatKind::ScionMessages);
        Ok(Some((scion_at, GcMsg::ScionCreate { scion })))
    }
}

/// Installs a scion received in a scion-message.
pub fn install_scion(gc: &mut GcState, at: NodeId, scion: InterScion) {
    let event = TraceEvent::SspCreate {
        kind: SspKind::InterScion,
        oid: scion.target_oid,
        peer: scion.source_node,
    };
    if gc
        .node_mut(at)
        .bunch_or_default(scion.target_bunch)
        .scion_table
        .add_inter(scion)
    {
        trace::emit(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_addr::server::Protection;
    use bmx_addr::SegmentServer;
    use bmx_common::Oid;

    struct Fix {
        gc: GcState,
        mem: NodeMemory,
        stats: NodeStats,
        b1: bmx_common::BunchId,
        b2: bmx_common::BunchId,
        o1: Addr,
        o2: Addr,
        o3: Addr,
    }

    /// Two bunches, both mapped at node 0; B2 also exists at node 1 (its
    /// creator). O1, O2 in B1; O3 in B2.
    fn fixture(map_b2_locally: bool) -> Fix {
        let server = crate::state::SharedServer::new(SegmentServer::new(128));
        let b1 = server
            .borrow_mut()
            .create_bunch(NodeId(0), Protection::default());
        let b2 = server
            .borrow_mut()
            .create_bunch(NodeId(1), Protection::default());
        let s1 = server.borrow_mut().alloc_segment(b1).unwrap();
        let s2 = server.borrow_mut().alloc_segment(b2).unwrap();
        let mut gc = GcState::new(2, server);
        let mut mem = NodeMemory::new(NodeId(0));
        mem.map_segment(s1);
        mem.map_segment(s2);
        gc.node_mut(NodeId(0))
            .bunch_or_default(b1)
            .alloc_segments
            .push(s1.id);
        if map_b2_locally {
            gc.node_mut(NodeId(0))
                .bunch_or_default(b2)
                .alloc_segments
                .push(s2.id);
        }
        let seg1 = mem.segment_mut(s1.id).unwrap();
        let o1 = object::alloc_in_segment(seg1, Oid(1), 2, &[0, 1]).unwrap();
        let o2 = object::alloc_in_segment(seg1, Oid(2), 1, &[0]).unwrap();
        let seg2 = mem.segment_mut(s2.id).unwrap();
        let o3 = object::alloc_in_segment(seg2, Oid(3), 1, &[]).unwrap();
        for (oid, a) in [(1, o1), (2, o2), (3, o3)] {
            gc.node_mut(NodeId(0)).directory.set_addr(Oid(oid), a);
        }
        Fix {
            gc,
            mem,
            stats: NodeStats::new(),
            b1,
            b2,
            o1,
            o2,
            o3,
        }
    }

    impl Fix {
        /// The store as the cluster makes it: the source located through
        /// local forwarding first.
        fn store(&mut self, src: Addr, field: u64, target: Addr) -> Option<(NodeId, GcMsg)> {
            let cur = self.gc.node(NodeId(0)).directory.resolve(src);
            let at = self.mem.position(cur).unwrap();
            let Fix { gc, mem, stats, .. } = self;
            write_ref(gc, NodeId(0), mem, stats, at, field, target).unwrap()
        }
    }

    #[test]
    fn intra_bunch_store_is_fast_path() {
        let mut f = fixture(true);
        let out = f.store(f.o1, 0, f.o2);
        assert!(out.is_none());
        assert_eq!(f.stats.get(StatKind::BarrierFastPaths), 1);
        assert_eq!(f.stats.get(StatKind::BarrierSlowPaths), 0);
        assert_eq!(object::read_ref_field(&f.mem, f.o1, 0).unwrap(), f.o2);
        assert!(f
            .gc
            .node(NodeId(0))
            .bunch(f.b1)
            .unwrap()
            .stub_table
            .is_empty());
    }

    #[test]
    fn null_store_is_fast_path() {
        let mut f = fixture(true);
        let out = f.store(f.o1, 0, Addr::NULL);
        assert!(out.is_none());
        assert_eq!(f.stats.get(StatKind::BarrierFastPaths), 1);
    }

    #[test]
    fn inter_bunch_store_creates_local_ssp_when_target_mapped() {
        let mut f = fixture(true);
        let out = f.store(f.o1, 1, f.o3);
        assert!(
            out.is_none(),
            "target bunch mapped locally: no scion-message"
        );
        assert_eq!(f.stats.get(StatKind::BarrierSlowPaths), 1);
        let stubs = &f.gc.node(NodeId(0)).bunch(f.b1).unwrap().stub_table;
        assert_eq!(stubs.inter().len(), 1);
        assert_eq!(stubs.inter()[0].source_oid, Oid(1));
        assert_eq!(stubs.inter()[0].target_bunch, f.b2);
        let scions = &f.gc.node(NodeId(0)).bunch(f.b2).unwrap().scion_table;
        assert_eq!(scions.inter().len(), 1);
        assert_eq!(scions.inter()[0].id, stubs.inter()[0].id);
    }

    #[test]
    fn inter_bunch_store_to_unmapped_bunch_emits_scion_message() {
        let mut f = fixture(false);
        let out = f.store(f.o1, 1, f.o3);
        let (dest, msg) = out.expect("scion-message required");
        assert_eq!(dest, NodeId(1), "routed to the target bunch's creator");
        assert_eq!(f.stats.get(StatKind::ScionMessages), 1);
        let GcMsg::ScionCreate { scion } = msg else {
            panic!("wrong message")
        };
        assert_eq!(scion.source_node, NodeId(0));
        assert_eq!(scion.target_bunch, f.b2);
        // Deliver it and check installation.
        let mut gc2 = f.gc;
        install_scion(&mut gc2, NodeId(1), scion.clone());
        assert_eq!(
            gc2.node(NodeId(1))
                .bunch(f.b2)
                .unwrap()
                .scion_table
                .inter()
                .len(),
            1
        );
        // Idempotent.
        install_scion(&mut gc2, NodeId(1), scion);
        assert_eq!(
            gc2.node(NodeId(1))
                .bunch(f.b2)
                .unwrap()
                .scion_table
                .inter()
                .len(),
            1
        );
    }

    #[test]
    fn duplicate_reference_creates_single_ssp() {
        let mut f = fixture(true);
        f.store(f.o1, 1, f.o3);
        // Store the same target again (same field or another field).
        f.store(f.o1, 0, f.o3);
        assert_eq!(
            f.gc.node(NodeId(0))
                .bunch(f.b1)
                .unwrap()
                .stub_table
                .inter()
                .len(),
            1
        );
    }

    #[test]
    fn store_through_forwarded_source_hits_current_copy() {
        let mut f = fixture(true);
        // Pretend O1 moved: create the to-space copy and a forwarding edge.
        let img = object::ObjectImage::capture(&f.mem, f.o1).unwrap();
        let to = f.o2.add_words(16);
        object::install_object_at(&mut f.mem, to, &img).unwrap();
        f.gc.node_mut(NodeId(0))
            .directory
            .record_move(Oid(1), f.o1, to);
        f.store(f.o1, 0, f.o2);
        assert_eq!(
            object::read_ref_field(&f.mem, to, 0).unwrap(),
            f.o2,
            "write landed on the current copy"
        );
    }
}
