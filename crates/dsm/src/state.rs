//! Per-node, per-object DSM protocol state.

use std::collections::{BTreeMap, BTreeSet};

use bmx_common::{BunchId, NodeId, Oid};

/// Token held by a node for one object.
///
/// [`Token::None`] corresponds to the paper's *inconsistent copy* marker
/// `i`: the replica's bytes are still there, but their observed state is
/// undefined until a token is re-acquired.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Token {
    /// No token: the local replica (if any) is inconsistent.
    #[default]
    None,
    /// Shared read token: the replica is consistent for reading.
    Read,
    /// Exclusive write token: no other consistent copy exists.
    Write,
}

/// Why a remote request is parked at this node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqKind {
    /// A read-token request.
    Read,
    /// A write-token request.
    Write,
}

/// A remote request queued behind a critical section.
#[derive(Clone, Copy, Debug)]
pub struct QueuedReq {
    /// The node that asked.
    pub requester: NodeId,
    /// What it asked for.
    pub kind: ReqKind,
    /// The wall-clock profiler flow the request arrived under (0 when
    /// profiling is off). Purely observational — never compared, never
    /// branched on — it lets the eventual grant inherit the requester's
    /// flow even though it is sent from a *later* protocol step (the
    /// holder's release), keeping the cross-node acquire stitched.
    pub flow: u64,
}

/// Pending write-token transfer at the owner: invalidation acks outstanding.
#[derive(Clone, Debug)]
pub struct PendingWrite {
    /// Node the write token will be granted to.
    pub requester: NodeId,
    /// Direct copy-set members whose (aggregated) acks are still missing.
    pub awaiting: BTreeSet<NodeId>,
    /// Profiler flow of the write request (same observational contract
    /// as [`QueuedReq::flow`]): restored when the last ack completes the
    /// transfer, so the grant joins the requester's track.
    pub flow: u64,
}

/// Pending transitive invalidation at a non-owner: children's acks missing.
#[derive(Clone, Debug)]
pub struct PendingInval {
    /// Where to send the aggregated ack.
    pub parent: NodeId,
    /// Direct grantees whose acks are still missing.
    pub awaiting: BTreeSet<NodeId>,
}

/// Protocol state one node keeps for one object replica.
///
/// The *presence* of this record means the node holds a replica of the
/// object (possibly inconsistent); the bunch garbage collector derives its
/// exiting-ownerPtr tables from these records.
#[derive(Clone, Debug)]
pub struct ObjState {
    /// The bunch the object belongs to.
    pub bunch: BunchId,
    /// Token currently held.
    pub token: Token,
    /// True if this node holds or last held the write token.
    pub is_owner: bool,
    /// The ownerPtr: where owner-bound requests are forwarded. Meaningless
    /// while `is_owner`.
    pub owner_hint: NodeId,
    /// Direct read grantees (the local share of the distributed copy-set).
    pub copy_set: BTreeSet<NodeId>,
    /// Nodes whose ownerPtr enters here (GC roots at the owner; maintained
    /// from grants and scion-cleaner reports).
    pub entering: BTreeSet<NodeId>,
    /// Mutator is inside an acquire/release critical section.
    pub locked: bool,
    /// A grant landed for a still-outstanding local acquire, and the
    /// waiting mutator has not claimed it yet. While set, request and
    /// invalidate handlers treat the replica like `locked` (queue/defer
    /// instead of serving) so a concurrent remote request cannot steal
    /// the token out from under the waiter between the grant's arrival
    /// and the waiter's next poll — on real threads that window is long
    /// enough to livelock under duplicate-request storms. Cleared by
    /// [`super::DsmEngine::lock`] (the claim) or by cancelling the wait.
    pub reserved: bool,
    /// How many times ownership of the object had changed hands when this
    /// node last took part in a handoff: as the grantor (the count includes
    /// that grant and `owner_hint` names the grantee) or as the grantee
    /// (`is_owner`). 0 at a node that never did. The protocol proper never
    /// reads it. Crash recovery compares it across the survivors: the
    /// record with the highest count says where ownership went last, which
    /// tells a grant still in flight between two survivors — neither end
    /// calls itself owner — from an owner that died.
    pub handoffs: u32,
}

impl ObjState {
    /// Fresh state for the allocating node: owner with the write token.
    pub fn new_owner(bunch: BunchId, node: NodeId) -> Self {
        ObjState {
            bunch,
            token: Token::Write,
            is_owner: true,
            owner_hint: node,
            copy_set: BTreeSet::new(),
            entering: BTreeSet::new(),
            locked: false,
            reserved: false,
            handoffs: 0,
        }
    }

    /// Fresh state for a node that just received a replica from `hint`'s
    /// direction.
    pub fn new_replica(bunch: BunchId, token: Token, owner_hint: NodeId) -> Self {
        ObjState {
            bunch,
            token,
            is_owner: false,
            owner_hint,
            copy_set: BTreeSet::new(),
            entering: BTreeSet::new(),
            locked: false,
            reserved: false,
            handoffs: 0,
        }
    }
}

/// All DSM state of one node.
#[derive(Default)]
pub struct DsmNodeState {
    /// Per-object replica state. Presence of a key = a replica exists here.
    pub objects: BTreeMap<Oid, ObjState>,
    /// Requests parked behind critical sections, per object.
    pub queued: BTreeMap<Oid, Vec<QueuedReq>>,
    /// Outstanding write-transfer invalidations at this (owner) node.
    pub pending_write: BTreeMap<Oid, PendingWrite>,
    /// Outstanding transitive invalidations at this (non-owner) node.
    pub pending_inval: BTreeMap<Oid, PendingInval>,
    /// Local acquires waiting for a grant (used by the driver to detect
    /// completion).
    pub waiting_for: BTreeMap<Oid, ReqKind>,
    /// Invalidations deferred because the mutator holds the object in a
    /// critical section; each entry is the parent awaiting the ack.
    pub deferred_invals: BTreeMap<Oid, Vec<NodeId>>,
    /// ownerPtrs of non-owned replicas the collector reclaimed here. A
    /// peer's stale ownerPtr may route a request through this node after
    /// the record is gone; forwarding it along the remembered pointer keeps
    /// the probable-owner chain whole. An entry dies when a replica of the
    /// object is registered here again. Kept with the record's
    /// [`ObjState::handoffs`]: what the node knew of the ownership history
    /// must outlive its replica for crash recovery to order it.
    pub departed: BTreeMap<Oid, (NodeId, u32)>,
}

impl DsmNodeState {
    /// Borrows the state of `oid`, if a replica exists here.
    pub fn get(&self, oid: Oid) -> Option<&ObjState> {
        self.objects.get(&oid)
    }

    /// Mutably borrows the state of `oid`, if a replica exists here.
    pub fn get_mut(&mut self, oid: Oid) -> Option<&mut ObjState> {
        self.objects.get_mut(&oid)
    }

    /// Oids of every replica this node holds, in `Oid` order.
    pub fn replicas(&self) -> impl Iterator<Item = (Oid, &ObjState)> {
        self.objects.iter().map(|(&o, s)| (o, s))
    }

    /// Records that a replica of `oid` exists here, with state `st`.
    pub fn insert(&mut self, oid: Oid, st: ObjState) {
        self.departed.remove(&oid);
        self.objects.insert(oid, st);
    }

    /// Removes the replica record (the object was reclaimed locally). A
    /// non-owned replica leaves its ownerPtr behind in `departed`.
    pub fn drop_replica(&mut self, oid: Oid) -> Option<ObjState> {
        self.queued.remove(&oid);
        let st = self.objects.remove(&oid)?;
        if !st.is_owner {
            self.departed.insert(oid, (st.owner_hint, st.handoffs));
        }
        Some(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_owner_holds_write_token() {
        let s = ObjState::new_owner(BunchId(1), NodeId(3));
        assert_eq!(s.token, Token::Write);
        assert!(s.is_owner);
        assert_eq!(s.owner_hint, NodeId(3));
    }

    #[test]
    fn new_replica_is_not_owner() {
        let s = ObjState::new_replica(BunchId(1), Token::Read, NodeId(0));
        assert!(!s.is_owner);
        assert_eq!(s.token, Token::Read);
        assert_eq!(s.owner_hint, NodeId(0));
    }

    #[test]
    fn node_state_tracks_replicas() {
        let mut ns = DsmNodeState::default();
        ns.insert(Oid(1), ObjState::new_owner(BunchId(1), NodeId(0)));
        ns.insert(
            Oid(2),
            ObjState::new_replica(BunchId(1), Token::None, NodeId(1)),
        );
        assert_eq!(ns.replicas().count(), 2);
        assert!(ns.get(Oid(1)).unwrap().is_owner);
        ns.drop_replica(Oid(1));
        assert!(ns.get(Oid(1)).is_none());
        assert_eq!(ns.replicas().count(), 1);
        assert!(ns.departed.is_empty(), "an owner leaves no ownerPtr");
        // A dropped non-owned replica leaves its ownerPtr behind until a
        // replica is registered again.
        ns.drop_replica(Oid(2));
        assert_eq!(ns.departed.get(&Oid(2)), Some(&(NodeId(1), 0)));
        ns.insert(Oid(2), ObjState::new_owner(BunchId(1), NodeId(0)));
        assert!(ns.departed.is_empty());
    }

    #[test]
    fn default_token_is_inconsistent() {
        assert_eq!(Token::default(), Token::None);
    }
}
