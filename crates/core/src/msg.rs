//! Collector-to-collector messages.
//!
//! Three kinds of GC traffic exist (none of it blocks applications):
//!
//! * **scion-messages** (Section 3.2) announce a new cross-node inter-bunch
//!   reference so the matching scion gets created;
//! * **reachability tables** (Section 6.1) — the full new stub table and
//!   exiting-ownerPtr list a BGC produced. They are *idempotent*: on loss
//!   they are simply re-sent; only per-channel FIFO is required (enforced by
//!   message numbering in `bmx-net`), plus an epoch stamp so a cleaner never
//!   applies an older table after a newer one;
//! * **from-space reuse traffic** (Section 4.5) — explicit address-change
//!   notices and copy requests, exchanged in the background, used only when
//!   a from-space segment must actually be reclaimed.

use bmx_common::{BunchId, Epoch, NodeId, Oid, SegmentId};
use bmx_dsm::Relocation;
use bmx_net::WireSize;

use crate::ssp::{InterScion, InterStub, IntraStub};

/// The reachability information one BGC run publishes for one bunch.
#[derive(Clone, Debug)]
pub struct ReachabilityReport {
    /// The node whose BGC produced the report.
    pub from: NodeId,
    /// The collected bunch.
    pub bunch: BunchId,
    /// Collection epoch at `from` (monotonic per `(from, bunch)`).
    pub epoch: Epoch,
    /// The reconstructed inter-bunch stub table.
    pub inter_stubs: Vec<InterStub>,
    /// The reconstructed intra-bunch stub table.
    pub intra_stubs: Vec<IntraStub>,
    /// The new exiting-ownerPtr list: `(object, node its ownerPtr enters)`.
    pub exiting: Vec<(Oid, NodeId)>,
}

/// Messages exchanged between collectors.
#[derive(Clone, Debug)]
pub enum GcMsg {
    /// Create the scion matching a freshly created cross-node inter-bunch
    /// reference (sent to the node chosen as the scion site).
    ScionCreate {
        /// The scion to install.
        scion: InterScion,
    },
    /// An idempotent reachability table for the scion cleaner.
    Report(ReachabilityReport),
    /// Explicit relocation notice (the explicit-update ablation of
    /// experiment E3; unacknowledged, applied idempotently).
    AddressChange {
        /// Bunch the relocated objects belong to.
        bunch: BunchId,
        /// The relocations to apply.
        relocations: Vec<Relocation>,
    },
    /// Retirement announcement of from-space segments (Section 4.5, phase
    /// two): the receiver applies the final relocations, evacuates any live
    /// objects remaining in its own replica of the ranges (copying out
    /// owned ones, copy-requesting non-owned ones), rewrites local
    /// references, unmaps its replica, and acknowledges.
    Retire {
        /// The bunch whose segments retire.
        bunch: BunchId,
        /// The segments being retired.
        segments: Vec<SegmentId>,
        /// Every relocation out of the retired ranges known to the
        /// initiator.
        relocations: Vec<Relocation>,
        /// The initiator awaiting the ack.
        reply_to: NodeId,
    },
    /// Acknowledgement of a [`GcMsg::Retire`].
    RetireAck {
        /// The bunch being reclaimed at the initiator.
        bunch: BunchId,
        /// The acknowledging node.
        from: NodeId,
    },
    /// "Please copy these live objects you own out of my from-space"
    /// (Section 4.5).
    CopyRequest {
        /// The bunch whose from-space is being reclaimed.
        bunch: BunchId,
        /// Objects the receiver is believed to own.
        oids: Vec<Oid>,
        /// The segments being retired — the owner must not copy into them.
        avoid: Vec<SegmentId>,
        /// Where the resulting relocations must be sent.
        reply_to: NodeId,
    },
    /// Relocations produced in response to a [`GcMsg::CopyRequest`].
    CopyReply {
        /// The bunch being reclaimed at the requester.
        bunch: BunchId,
        /// The moves the owner performed (possibly already known).
        relocations: Vec<Relocation>,
        /// The replying node.
        from: NodeId,
    },
}

impl WireSize for GcMsg {
    fn wire_size(&self) -> u64 {
        match self {
            GcMsg::ScionCreate { .. } => 56,
            GcMsg::Report(r) => {
                24 + 56 * r.inter_stubs.len() as u64
                    + 24 * r.intra_stubs.len() as u64
                    + 16 * r.exiting.len() as u64
            }
            GcMsg::AddressChange { relocations, .. } => 24 + 24 * relocations.len() as u64,
            GcMsg::Retire {
                segments,
                relocations,
                ..
            } => 24 + 8 * segments.len() as u64 + 24 * relocations.len() as u64,
            GcMsg::RetireAck { .. } => 16,
            GcMsg::CopyRequest { oids, .. } => 24 + 8 * oids.len() as u64,
            GcMsg::CopyReply { relocations, .. } => 24 + 24 * relocations.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_common::Addr;

    #[test]
    fn report_wire_size_scales_with_tables() {
        let empty = GcMsg::Report(ReachabilityReport {
            from: NodeId(0),
            bunch: BunchId(1),
            epoch: Epoch(1),
            inter_stubs: vec![],
            intra_stubs: vec![],
            exiting: vec![],
        });
        let full = GcMsg::Report(ReachabilityReport {
            from: NodeId(0),
            bunch: BunchId(1),
            epoch: Epoch(1),
            inter_stubs: vec![],
            intra_stubs: vec![IntraStub {
                oid: Oid(1),
                bunch: BunchId(1),
                scion_at: NodeId(2),
            }],
            exiting: vec![(Oid(1), NodeId(2)), (Oid(2), NodeId(0))],
        });
        assert!(full.wire_size() > empty.wire_size());
        let _ = Addr::NULL;
    }
}
