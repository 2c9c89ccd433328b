//! The collector's implementation of the DSM participation hooks.
//!
//! This is where the paper's Section 5 machinery lives on the collector
//! side: grant-time relocation payloads (invariant 1), copy-set forwarding
//! (invariant 2), and intra-bunch SSP creation at ownership transfer
//! (invariant 3) — all driven *by* the consistency protocol's own messages,
//! never by collector-initiated token traffic.

use bmx_addr::object::{self, CopyBuf};
use bmx_addr::NodeMemory;
use bmx_common::{Addr, NodeId, Oid};
use bmx_dsm::{GcIntegration, IntraSspCreate, Relocation};
use bmx_trace::{self as trace, SspKind, TraceEvent};

use crate::ssp::{IntraScion, IntraStub};
use crate::state::{GcState, RelocMode};

/// Applies relocation records at `node`: updates the directory, maps the
/// to-space segment if needed, copies the local from-space replica to the
/// new address and leaves a forwarding header (paper, Section 4.4: "after N1
/// receives O2's new address, O2 is copied to the indicated address").
///
/// Idempotent: re-applying a known relocation is a no-op, which is what lets
/// relocation records ride unreliable or duplicated carriers.
pub fn apply_relocations_at(
    gc: &mut GcState,
    node: NodeId,
    relocs: &[Relocation],
    mems: &mut [NodeMemory],
) {
    for r in relocs {
        let mem = &mut mems[node.0 as usize];
        // Map the destination segment if this node has never seen it.
        if !mem.is_mapped(r.to) {
            let info = gc.server.borrow().segment_of(r.to);
            match info {
                Some(info) => mem.map_segment(info),
                None => continue, // unknown address: drop the record
            }
        }
        // Whether `r.from` is this node's *current* address for the object
        // — decided before the record advances it. Bytes at any other
        // address are a ghost of an older generation; carrying those along
        // the chain would resurrect stale state over the live copy.
        let was_current = {
            let dir = &gc.node(node).directory;
            let a0 = dir.addr_of(r.oid);
            a0 == Some(r.from) || a0.map(|a| dir.resolve(a)) == Some(r.from)
        };
        if !gc.node_mut(node).directory.record_move(r.oid, r.from, r.to) {
            continue; // already known
        }
        // A fresh record: this node just learned the object moved. The
        // event happens-after the collector's `Relocate` because the
        // record rode a message from (a node causally after) the
        // relocating node.
        trace::emit(
            node,
            TraceEvent::AddrUpdate {
                oid: r.oid,
                from: r.from,
                to: r.to,
            },
        );
        // Copy the local replica to its new current address, if one sits at
        // the vacated spot and has not already been moved. Records can
        // arrive out of order across source nodes, so the copy target is
        // the *resolved* end of the chain, not necessarily `r.to`.
        let movable = was_current
            && object::view(mem, r.from)
                .ok()
                .filter(|v| v.oid == r.oid && !v.is_forwarded())
                .is_some();
        if movable {
            let dest = gc.node(node).directory.resolve(r.to);
            if !mem.is_mapped(dest) {
                if let Some(info) = gc.server.borrow().segment_of(dest) {
                    mem.map_segment(info);
                }
            }
            let already_there = object::view(mem, dest).is_ok_and(|v| v.oid == r.oid);
            if !already_there {
                let _ = object::copy_object(mem, r.from, dest, &mut CopyBuf::default());
            }
            let _ = object::set_forwarding(mem, r.from, r.to);
        }
    }
}

impl GcIntegration for GcState {
    fn local_addr(&self, node: NodeId, oid: Oid) -> Option<Addr> {
        self.node(node).directory.addr_of(oid)
    }

    fn note_local_addr(&mut self, node: NodeId, oid: Oid, addr: Addr) {
        self.node_mut(node).directory.set_addr(oid, addr);
    }

    fn ensure_mapped(&mut self, node: NodeId, addr: Addr, mems: &mut [NodeMemory]) {
        let mem = &mut mems[node.0 as usize];
        if mem.is_mapped(addr) {
            return;
        }
        if let Some(info) = self.server.borrow().segment_of(addr) {
            mem.map_segment(info);
        }
    }

    fn resolve_current(&self, node: NodeId, addr: Addr) -> Addr {
        let cur = self.node(node).directory.resolve(addr);
        if cur == addr {
            // No local knowledge. If the address lies in a range the reuse
            // protocol reclaimed (every node dropped its edges), the server's
            // retired-range routing still knows where the contents went —
            // without it, a stale address in an in-flight grant would name
            // a range no node can map any more.
            if let Some((_, to)) = self.server.borrow().resolve_retired(addr) {
                return self.node(node).directory.resolve(to);
            }
        }
        cur
    }

    fn grant_relocations(
        &mut self,
        granter: NodeId,
        oid: Oid,
        mems: &[NodeMemory],
    ) -> Vec<Relocation> {
        let ns = self.node(granter);
        let mut out = Vec::new();
        if let Some(r) = ns.directory.reloc_of(oid) {
            out.push(r);
        }
        // Invariant 1 also covers "every object directly referenced from
        // it": walk the object's pointer fields at its current address.
        if let Some(addr) = ns.directory.addr_of(oid) {
            let cur = ns.directory.resolve(addr);
            if let Ok(fields) = object::ref_fields(&mems[granter.0 as usize], cur) {
                for (_, t) in fields {
                    if t.is_null() {
                        continue;
                    }
                    if let Some(r) = ns.directory.reloc_touching(t) {
                        if !out.contains(&r) {
                            out.push(r);
                        }
                    }
                }
            }
        }
        out
    }

    fn apply_relocations(&mut self, node: NodeId, relocs: &[Relocation], mems: &mut [NodeMemory]) {
        apply_relocations_at(self, node, relocs, mems);
    }

    fn queue_forward(&mut self, node: NodeId, copy_set: &[NodeId], relocs: &[Relocation]) {
        match self.reloc_mode {
            RelocMode::Piggyback => {
                for &dst in copy_set {
                    if dst == node {
                        continue;
                    }
                    for r in relocs {
                        self.node_mut(node).piggy.push(dst, *r);
                    }
                }
            }
            RelocMode::Explicit => {
                for &dst in copy_set {
                    if dst != node {
                        self.explicit_queue.push((node, dst, relocs.to_vec()));
                    }
                }
            }
        }
    }

    fn prepare_ownership_transfer(
        &mut self,
        old_owner: NodeId,
        new_owner: NodeId,
        oid: Oid,
    ) -> Vec<IntraSspCreate> {
        let Some(addr) = self.node(old_owner).directory.addr_of(oid) else {
            return Vec::new();
        };
        let Some(bunch) = self.bunch_of(addr) else {
            return Vec::new();
        };
        let (holds_inter, intra_sites) = {
            let Some(brs) = self.node(old_owner).bunch(bunch) else {
                return Vec::new();
            };
            let holds_inter = brs.stub_table.inter_for(oid).next().is_some();
            let sites: std::collections::BTreeSet<NodeId> = brs
                .stub_table
                .intra()
                .iter()
                .filter(|s| s.oid == oid)
                .map(|s| s.scion_at)
                .collect();
            (holds_inter, sites)
        };
        let mut reqs = Vec::new();
        if holds_inter {
            // Old-owner side of invariant 3: the scion exists before the
            // grant message leaves; the new owner's stub will point here.
            if self
                .node_mut(old_owner)
                .bunch_or_default(bunch)
                .scion_table
                .add_intra(IntraScion {
                    oid,
                    bunch,
                    stub_at: new_owner,
                })
            {
                trace::emit(
                    old_owner,
                    TraceEvent::SspCreate {
                        kind: SspKind::IntraScion,
                        oid: Some(oid),
                        peer: new_owner,
                    },
                );
            }
            reqs.push(IntraSspCreate {
                oid,
                bunch,
                old_owner,
            });
        }
        // Chain compression: where the old owner holds only forwarding
        // links (intra stubs), the new owner's stub points *directly* at
        // each stub site — and not at all when ownership returns to the
        // site itself. Without this, ownership bouncing A -> B -> A welds a
        // cross-node SSP cycle that keeps dead objects alive forever. The
        // scion at each site already exists (keyed to the old owner); the
        // cleaner re-keys it from the new owner's reports.
        if !holds_inter {
            for site in intra_sites {
                if site != new_owner {
                    reqs.push(IntraSspCreate {
                        oid,
                        bunch,
                        old_owner: site,
                    });
                }
            }
        }
        reqs
    }

    fn apply_intra_ssp(&mut self, node: NodeId, reqs: &[IntraSspCreate]) {
        for req in reqs {
            if self
                .node_mut(node)
                .bunch_or_default(req.bunch)
                .stub_table
                .add_intra(IntraStub {
                    oid: req.oid,
                    bunch: req.bunch,
                    scion_at: req.old_owner,
                })
            {
                trace::emit(
                    node,
                    TraceEvent::SspCreate {
                        kind: SspKind::IntraStub,
                        oid: Some(req.oid),
                        peer: req.old_owner,
                    },
                );
            }
        }
    }

    fn drain_piggyback(&mut self, src: NodeId, dst: NodeId) -> Vec<Relocation> {
        match self.reloc_mode {
            RelocMode::Piggyback => self.node_mut(src).piggy.drain(dst),
            RelocMode::Explicit => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_addr::server::Protection;
    use bmx_addr::SegmentServer;
    use bmx_common::BunchId;

    fn setup() -> (GcState, Vec<NodeMemory>, BunchId, bmx_addr::SegmentInfo) {
        let server = crate::state::SharedServer::new(SegmentServer::new(64));
        let bunch = server
            .borrow_mut()
            .create_bunch(NodeId(0), Protection::default());
        let seg = server.borrow_mut().alloc_segment(bunch).unwrap();
        let gc = GcState::new(2, server);
        let mut mems = vec![NodeMemory::new(NodeId(0)), NodeMemory::new(NodeId(1))];
        mems[0].map_segment(seg);
        mems[1].map_segment(seg);
        (gc, mems, bunch, seg)
    }

    #[test]
    fn apply_relocation_copies_and_forwards() {
        let (mut gc, mut mems, bunch, seg) = setup();
        // Allocate an object at node 1's replica (simulating a mapped copy).
        let a = {
            let s = mems[1].segment_mut(seg.id).unwrap();
            object::alloc_in_segment(s, Oid(7), 2, &[]).unwrap()
        };
        object::write_data_field(&mut mems[1], a, 0, 55).unwrap();
        gc.note_local_addr(NodeId(1), Oid(7), a);
        // A second segment plays the role of node 0's to-space.
        let to_seg = gc.server.borrow_mut().alloc_segment(bunch).unwrap();
        let to = to_seg.base;
        let r = Relocation {
            oid: Oid(7),
            from: a,
            to,
        };
        apply_relocations_at(&mut gc, NodeId(1), &[r], &mut mems);
        // Node 1 mapped the to-space segment, copied the object, and left a
        // forwarding header.
        assert!(mems[1].is_mapped(to));
        assert_eq!(object::view(&mems[1], to).unwrap().oid, Oid(7));
        assert_eq!(object::read_field(&mems[1], to, 0).unwrap(), 55);
        let old = object::view(&mems[1], a).unwrap();
        assert!(old.is_forwarded());
        assert_eq!(old.forwarding, to);
        assert_eq!(gc.node(NodeId(1)).directory.addr_of(Oid(7)), Some(to));
        // Idempotent re-application.
        apply_relocations_at(&mut gc, NodeId(1), &[r], &mut mems);
        assert_eq!(object::read_field(&mems[1], to, 0).unwrap(), 55);
    }

    #[test]
    fn relocation_without_local_replica_just_updates_forwarding() {
        let (mut gc, mut mems, bunch, _seg) = setup();
        let to_seg = gc.server.borrow_mut().alloc_segment(bunch).unwrap();
        let r = Relocation {
            oid: Oid(9),
            from: Addr(0x1_0000),
            to: to_seg.base,
        };
        apply_relocations_at(&mut gc, NodeId(1), &[r], &mut mems);
        // No local replica: the forwarding edge is recorded but no
        // current-address entry is invented and nothing is installed.
        assert_eq!(gc.node(NodeId(1)).directory.addr_of(Oid(9)), None);
        assert_eq!(
            gc.node(NodeId(1)).directory.resolve(Addr(0x1_0000)),
            to_seg.base
        );
        assert!(
            object::view(&mems[1], to_seg.base).is_err(),
            "nothing installed"
        );
    }

    #[test]
    fn ownership_transfer_creates_intra_ssp_only_with_stubs() {
        let (mut gc, _mems, bunch, seg) = setup();
        let a = seg.base;
        gc.note_local_addr(NodeId(0), Oid(1), a);
        // No stubs at node 0: no SSP needed.
        assert!(gc
            .prepare_ownership_transfer(NodeId(0), NodeId(1), Oid(1))
            .is_empty());
        // Give node 0 an inter-bunch stub for O1.
        gc.node_mut(NodeId(0))
            .bunch_or_default(bunch)
            .stub_table
            .add_inter(crate::ssp::InterStub {
                id: crate::ssp::SspId {
                    node: NodeId(0),
                    seq: 1,
                },
                source_bunch: bunch,
                source_oid: Oid(1),
                target_bunch: BunchId(99),
                target_addr: Addr(0xFFFF_0000),
                target_oid: None,
                scion_at: NodeId(1),
            });
        let reqs = gc.prepare_ownership_transfer(NodeId(0), NodeId(1), Oid(1));
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].old_owner, NodeId(0));
        // The scion exists at the old owner.
        let scions = &gc.node(NodeId(0)).bunch(bunch).unwrap().scion_table;
        assert_eq!(scions.intra().len(), 1);
        assert_eq!(scions.intra()[0].stub_at, NodeId(1));
        // The new owner creates the stub when the grant arrives.
        gc.apply_intra_ssp(NodeId(1), &reqs);
        let stubs = &gc.node(NodeId(1)).bunch(bunch).unwrap().stub_table;
        assert_eq!(stubs.intra().len(), 1);
        assert_eq!(stubs.intra()[0].scion_at, NodeId(0));
    }

    #[test]
    fn piggyback_mode_buffers_and_drains() {
        let (mut gc, _mems, _bunch, _seg) = setup();
        let r = Relocation {
            oid: Oid(1),
            from: Addr(8),
            to: Addr(16),
        };
        gc.queue_forward(NodeId(0), &[NodeId(1), NodeId(0)], &[r]);
        // Self is skipped.
        assert_eq!(gc.drain_piggyback(NodeId(0), NodeId(1)), vec![r]);
        assert!(gc.drain_piggyback(NodeId(0), NodeId(1)).is_empty());
    }

    #[test]
    fn explicit_mode_uses_queue_not_piggyback() {
        let (mut gc, _mems, _bunch, _seg) = setup();
        gc.reloc_mode = RelocMode::Explicit;
        let r = Relocation {
            oid: Oid(1),
            from: Addr(8),
            to: Addr(16),
        };
        gc.queue_forward(NodeId(0), &[NodeId(1)], &[r]);
        assert!(gc.drain_piggyback(NodeId(0), NodeId(1)).is_empty());
        assert_eq!(gc.explicit_queue.len(), 1);
    }
}
