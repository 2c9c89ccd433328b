//! DSM protocol messages and the piggy-back wrapper.

use bmx_addr::object::ObjectImage;
use bmx_common::{Addr, BunchId, NodeId, Oid};
use bmx_net::WireSize;

/// A relocation record: object `oid` moved from `from` to `to` at some node.
///
/// These are the paper's lazily propagated "new location" notices
/// (Section 4.4). They ride on consistency-protocol messages whenever
/// possible and in explicit background messages only for the from-space
/// reuse protocol (Section 4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Relocation {
    /// The relocated object.
    pub oid: Oid,
    /// The from-space address (where a forwarding header remains).
    pub from: Addr,
    /// The to-space address.
    pub to: Addr,
}

/// A request to create an intra-bunch stub, piggy-backed on a write-token
/// grant (invariant 3 of Section 5).
///
/// Intra-bunch SSPs run opposite to the ownerPtr: the *stub* lives at the
/// new owner, the *scion* at the old owner (paper, Section 3.1, the
/// N1-to-N2 SSP of Figure 1). `old_owner` holds inter-bunch stubs (or an
/// intra-bunch stub) for the object and has already created the matching
/// intra-bunch scion before replying with the grant; the new owner must
/// create the intra-bunch stub pointing at it upon reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntraSspCreate {
    /// The object whose ownership is moving.
    pub oid: Oid,
    /// Bunch the object belongs to.
    pub bunch: BunchId,
    /// The old owner: site of the intra-bunch scion and of the stubs it
    /// preserves.
    pub old_owner: NodeId,
}

/// The protocol messages proper.
#[derive(Clone, Debug)]
pub enum DsmMsg {
    /// Request for a read token, forwarded along ownerPtrs until it reaches
    /// a node that can grant (any token holder).
    ReadReq {
        /// The object.
        oid: Oid,
        /// The node that wants the token.
        requester: NodeId,
    },
    /// Request for a write token, forwarded along ownerPtrs to the owner.
    WriteReq {
        /// The object.
        oid: Oid,
        /// The node that wants the token.
        requester: NodeId,
    },
    /// Grant of a read token, with the consistent object contents.
    ReadGrant {
        /// The object.
        oid: Oid,
        /// Bunch the object belongs to.
        bunch: BunchId,
        /// The granter's current local address of the object.
        addr: Addr,
        /// Consistent contents.
        image: ObjectImage,
        /// Who the granter believes the owner is (sets the new replica's
        /// ownerPtr).
        owner_hint: NodeId,
        /// Invariant 1: new locations of the object and its direct
        /// referents, as known at the granter.
        relocations: Vec<Relocation>,
    },
    /// Grant of the write token (ownership transfer).
    WriteGrant {
        /// The object.
        oid: Oid,
        /// Bunch the object belongs to.
        bunch: BunchId,
        /// The granter's current local address of the object.
        addr: Addr,
        /// Consistent contents.
        image: ObjectImage,
        /// Invariant 1 payload.
        relocations: Vec<Relocation>,
        /// Invariant 3 payload: intra-bunch stubs the new owner must create.
        intra_ssp: Vec<IntraSspCreate>,
        /// Which change of hands this is in the object's ownership history
        /// ([`crate::ObjState::handoffs`] at both ends afterwards).
        handoffs: u32,
    },
    /// Invalidate the local read replica (transitively) on behalf of a write
    /// transfer; ack to `parent` once the local subtree is invalid.
    Invalidate {
        /// The object.
        oid: Oid,
        /// Where the aggregated ack must go.
        parent: NodeId,
    },
    /// Aggregated invalidation ack from one copy-set subtree.
    InvalidateAck {
        /// The object.
        oid: Oid,
        /// The subtree root that finished invalidating.
        child: NodeId,
    },
    /// Registration of a new replica holder with the owner (keeps the
    /// owner's entering-ownerPtr set complete when reads are granted by
    /// non-owners). Routed along ownerPtrs like a write request.
    RegisterReplica {
        /// The object.
        oid: Oid,
        /// The node that now holds a replica.
        holder: NodeId,
    },
}

impl DsmMsg {
    /// Short tag for logging and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            DsmMsg::ReadReq { .. } => "ReadReq",
            DsmMsg::WriteReq { .. } => "WriteReq",
            DsmMsg::ReadGrant { .. } => "ReadGrant",
            DsmMsg::WriteGrant { .. } => "WriteGrant",
            DsmMsg::Invalidate { .. } => "Invalidate",
            DsmMsg::InvalidateAck { .. } => "InvalidateAck",
            DsmMsg::RegisterReplica { .. } => "RegisterReplica",
        }
    }
}

impl WireSize for DsmMsg {
    fn wire_size(&self) -> u64 {
        match self {
            DsmMsg::ReadReq { .. } | DsmMsg::WriteReq { .. } => 24,
            DsmMsg::ReadGrant {
                image, relocations, ..
            } => 40 + image.wire_size() + 24 * relocations.len() as u64,
            // The fixed part is a read grant's: the handoff count sits where
            // that has its owner hint.
            DsmMsg::WriteGrant {
                image,
                relocations,
                intra_ssp,
                ..
            } => {
                40 + image.wire_size() + 24 * relocations.len() as u64 + 24 * intra_ssp.len() as u64
            }
            DsmMsg::Invalidate { .. } | DsmMsg::InvalidateAck { .. } => 20,
            DsmMsg::RegisterReplica { .. } => 24,
        }
    }
}

/// A coalesced envelope: every protocol message bound for one destination
/// in one protocol round, plus everything piggy-backed onto it.
///
/// The engine buffers outgoing messages per `(src, dst)` pair while it
/// processes one protocol round (one mutator operation or one delivered
/// envelope) and flushes a single envelope per destination at the end, so
/// an invalidation round costs one envelope per copy-set *node*, not one
/// per protocol action. The messages are applied in emission order at the
/// receiver.
///
/// Every envelope is a carrier: at flush the engine drains the collector's
/// pending per-destination payloads (lazily buffered relocations —
/// Section 4.4, and invariant-2 forwards) and attaches them here. The
/// receiver applies the piggy-back *before* acting on any of the messages,
/// which is what makes invariant 1 hold at acquire completion.
#[derive(Clone, Debug)]
pub struct DsmPacket {
    /// The protocol messages, in emission order.
    pub msgs: Vec<DsmMsg>,
    /// Piggy-backed relocation records.
    pub piggyback: Vec<Relocation>,
}

impl DsmPacket {
    /// An envelope carrying one message and no piggy-back.
    pub fn single(msg: DsmMsg) -> DsmPacket {
        DsmPacket {
            msgs: vec![msg],
            piggyback: Vec::new(),
        }
    }
}

/// Fixed per-envelope framing overhead (src, dst, seq, counts), in bytes.
pub const ENVELOPE_HEADER_BYTES: u64 = 16;

impl WireSize for DsmPacket {
    fn wire_size(&self) -> u64 {
        ENVELOPE_HEADER_BYTES
            + self.msgs.iter().map(WireSize::wire_size).sum::<u64>()
            + 24 * self.piggyback.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_grows_with_payload() {
        let small = DsmPacket::single(DsmMsg::ReadReq {
            oid: Oid(1),
            requester: NodeId(0),
        });
        let big = DsmPacket {
            msgs: small.msgs.clone(),
            piggyback: vec![
                Relocation {
                    oid: Oid(2),
                    from: Addr(8),
                    to: Addr(16)
                };
                4
            ],
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn coalesced_envelope_amortizes_framing() {
        let msg = || DsmMsg::Invalidate {
            oid: Oid(1),
            parent: NodeId(0),
        };
        let two_envelopes = DsmPacket::single(msg()).wire_size() * 2;
        let one_envelope = DsmPacket {
            msgs: vec![msg(), msg()],
            piggyback: vec![],
        }
        .wire_size();
        assert_eq!(one_envelope + ENVELOPE_HEADER_BYTES, two_envelopes);
    }

    #[test]
    fn kinds_are_distinct() {
        let a = DsmMsg::ReadReq {
            oid: Oid(1),
            requester: NodeId(0),
        };
        let b = DsmMsg::WriteReq {
            oid: Oid(1),
            requester: NodeId(0),
        };
        assert_ne!(a.kind(), b.kind());
    }
}
