//! The collector's participation interface.
//!
//! The DSM engine calls into the collector through [`GcIntegration`] at the
//! points the paper's Section 5 identifies — and at no others. Note what the
//! trait does *not* offer: any way to acquire, release, or even observe a
//! token. "In any circumstance, the garbage collector acquires neither a
//! read nor a write token" (Section 10) is thus enforced structurally, not
//! just by discipline; experiment E2 additionally watches the
//! [`bmx_common::StatKind::GcTokenAcquires`] counter stay at zero.

use std::collections::BTreeMap;

use bmx_addr::NodeMemory;
use bmx_common::{Addr, NodeId, Oid};

use crate::msg::{IntraSspCreate, Relocation};

/// Hooks through which the collector participates in the DSM protocol.
pub trait GcIntegration {
    /// The node-local current address of `oid`'s replica, if known.
    ///
    /// Reflects local relocations (the node's own BGC copied the object) and
    /// applied relocation records from other nodes.
    fn local_addr(&self, node: NodeId, oid: Oid) -> Option<Addr>;

    /// Records that `oid`'s replica at `node` lives at `addr` (called when a
    /// grant installs a replica).
    fn note_local_addr(&mut self, node: NodeId, oid: Oid, addr: Addr);

    /// Ensures the segment containing `addr` is mapped at `node` (mapping a
    /// fresh zeroed replica if necessary) so a grant can be installed there.
    /// To-space segments created by remote collections reach other nodes
    /// this way.
    fn ensure_mapped(&mut self, node: NodeId, addr: Addr, mems: &mut [NodeMemory]);

    /// Where `node` names the object at `addr` now: `addr` through the
    /// node's own forwarding, then placed as `bmx_gc::held` places a held
    /// address. An address where the node holds an object stays put; any
    /// other that a retired range's route leads on from becomes the node's
    /// own copy of the object, else the route's end through its
    /// forwarding. `mems` is read for the node's headers and own copies.
    fn resolve_current(&self, node: NodeId, addr: Addr, mems: &[NodeMemory]) -> Addr;

    /// Invariant 1 (granter side): the new locations of `oid` and of every
    /// object directly referenced from it, as far as they were relocated at
    /// `granter`. `mems` gives read access so the implementation can walk
    /// the object's pointer fields.
    fn grant_relocations(
        &mut self,
        granter: NodeId,
        oid: Oid,
        mems: &[NodeMemory],
    ) -> Vec<Relocation>;

    /// Invariant 1 (receiver side): apply relocation records at `node`
    /// before the triggering acquire completes. Implementations update the
    /// local directory, map to-space segments, install copies at the new
    /// addresses, and leave forwarding headers.
    fn apply_relocations(&mut self, node: NodeId, relocs: &[Relocation], mems: &mut [NodeMemory]);

    /// Invariant 2: relocations received at `node` must reach every member
    /// of the local copy-set of the affected object. Implementations buffer
    /// them for piggy-backing (no extra message).
    fn queue_forward(&mut self, node: NodeId, copy_set: &[NodeId], relocs: &[Relocation]);

    /// Invariant 3 (old-owner side): ownership of `oid` is about to move
    /// from `old_owner` to `new_owner`. If the old owner holds inter-bunch
    /// stubs (or an intra-bunch stub) for the object, it creates the
    /// intra-bunch *scion* now and returns the stub-creation request to
    /// piggy-back on the grant.
    fn prepare_ownership_transfer(
        &mut self,
        old_owner: NodeId,
        new_owner: NodeId,
        oid: Oid,
    ) -> Vec<IntraSspCreate>;

    /// Invariant 3 (new-owner side): create the intra-bunch stubs requested
    /// by the grant, before the acquire completes.
    fn apply_intra_ssp(&mut self, node: NodeId, reqs: &[IntraSspCreate]);

    /// Drains the lazily buffered relocation records waiting to travel from
    /// `src` to `dst` (Section 4.4 piggy-backing). Called by the engine for
    /// every outgoing message.
    fn drain_piggyback(&mut self, src: NodeId, dst: NodeId) -> Vec<Relocation>;
}

/// A no-op integration for DSM-only tests: same addresses everywhere, no
/// relocations, no SSPs.
#[derive(Default)]
pub struct NullGcIntegration {
    addrs: BTreeMap<(NodeId, Oid), Addr>,
}

impl NullGcIntegration {
    /// Creates an empty integration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the (node-independent) address of a freshly allocated
    /// object on every node of a `nodes`-node cluster.
    pub fn register_everywhere(&mut self, nodes: u32, oid: Oid, addr: Addr) {
        for n in 0..nodes {
            self.addrs.insert((NodeId(n), oid), addr);
        }
    }
}

impl GcIntegration for NullGcIntegration {
    fn local_addr(&self, node: NodeId, oid: Oid) -> Option<Addr> {
        self.addrs.get(&(node, oid)).copied()
    }

    fn note_local_addr(&mut self, node: NodeId, oid: Oid, addr: Addr) {
        self.addrs.insert((node, oid), addr);
    }

    fn ensure_mapped(&mut self, _node: NodeId, _addr: Addr, _mems: &mut [NodeMemory]) {}

    fn resolve_current(&self, _node: NodeId, addr: Addr, _mems: &[NodeMemory]) -> Addr {
        addr
    }

    fn grant_relocations(
        &mut self,
        _granter: NodeId,
        _oid: Oid,
        _mems: &[NodeMemory],
    ) -> Vec<Relocation> {
        Vec::new()
    }

    fn apply_relocations(
        &mut self,
        _node: NodeId,
        _relocs: &[Relocation],
        _mems: &mut [NodeMemory],
    ) {
    }

    fn queue_forward(&mut self, _node: NodeId, _copy_set: &[NodeId], _relocs: &[Relocation]) {}

    fn prepare_ownership_transfer(
        &mut self,
        _old_owner: NodeId,
        _new_owner: NodeId,
        _oid: Oid,
    ) -> Vec<IntraSspCreate> {
        Vec::new()
    }

    fn apply_intra_ssp(&mut self, _node: NodeId, _reqs: &[IntraSspCreate]) {}

    fn drain_piggyback(&mut self, _src: NodeId, _dst: NodeId) -> Vec<Relocation> {
        Vec::new()
    }
}
