//! The workspace-wide error type.

use core::fmt;

use crate::{Addr, BunchId, NodeId, Oid, SegmentId};

/// Convenient result alias used throughout the workspace.
pub type Result<T> = core::result::Result<T, BmxError>;

/// Errors surfaced by the BMX substrates and the collector.
///
/// The set is deliberately closed and descriptive: callers in tests and
/// benches match on variants to assert *why* an operation failed, not just
/// that it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmxError {
    /// An address did not fall inside any segment mapped on the node.
    Unmapped { node: NodeId, addr: Addr },
    /// An address was expected to be an object start but the object-map says
    /// otherwise.
    NotAnObject { addr: Addr },
    /// A bunch is not known on / mapped at the given node.
    BunchUnmapped { node: NodeId, bunch: BunchId },
    /// A segment allocation failed (address space or bunch exhausted).
    SegmentExhausted { bunch: BunchId },
    /// Object allocation could not be satisfied from the current segment set.
    OutOfMemory { bunch: BunchId, words: u64 },
    /// The node attempted an access for which it holds no suitable token.
    NoToken { node: NodeId, oid: Oid },
    /// A token request could not be routed to an owner.
    OwnerUnknown { oid: Oid },
    /// A write barrier or field access went outside the target object.
    FieldOutOfBounds { addr: Addr, field: u64, size: u64 },
    /// The word written by `write_ref` is not marked as a pointer in the
    /// reference map (or vice versa for `write_word`).
    RefMapMismatch { addr: Addr, field: u64 },
    /// A recoverable-virtual-memory operation failed.
    Rvm(String),
    /// A node id was out of range for the cluster.
    NoSuchNode(NodeId),
    /// The segment is unknown to the node that was asked about it.
    NoSuchSegment(SegmentId),
    /// An operation that requires quiescence ran during an active collection.
    CollectorBusy { bunch: BunchId },
    /// A token acquire could not complete because a holder is inside a
    /// critical section (entry-consistency programs must release first).
    WouldBlock { oid: Oid },
    /// The bunch's protection attributes deny the attempted access.
    AccessDenied { bunch: BunchId, write: bool },
    /// The operation needed a node whose runtime failure domain is down
    /// (crashed driver or injected crash in the parallel runtime). The
    /// caller may retry once the supervisor has restarted the node.
    NodeDown { node: NodeId },
    /// The operation must read state of `node` that the acting node's
    /// site does not hold. Only a parallel-runtime site reports this, and
    /// only before changing anything; the node handle answers by running
    /// the operation again with `node`'s site locked and lent too.
    NeedsNode { node: NodeId },
    /// Protocol violation detected at runtime (a bug, surfaced loudly).
    Protocol(String),
}

impl fmt::Display for BmxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmxError::Unmapped { node, addr } => {
                write!(f, "address {addr} is not mapped on node {node}")
            }
            BmxError::NotAnObject { addr } => {
                write!(f, "address {addr} is not an object start")
            }
            BmxError::BunchUnmapped { node, bunch } => {
                write!(f, "bunch {bunch} is not mapped on node {node}")
            }
            BmxError::SegmentExhausted { bunch } => {
                write!(f, "no segment space left in bunch {bunch}")
            }
            BmxError::OutOfMemory { bunch, words } => {
                write!(f, "cannot allocate {words} words in bunch {bunch}")
            }
            BmxError::NoToken { node, oid } => {
                write!(f, "node {node} holds no token for object {oid}")
            }
            BmxError::OwnerUnknown { oid } => {
                write!(f, "no route to the owner of object {oid}")
            }
            BmxError::FieldOutOfBounds { addr, field, size } => {
                write!(
                    f,
                    "field {field} out of bounds for object {addr} of {size} words"
                )
            }
            BmxError::RefMapMismatch { addr, field } => {
                write!(f, "reference-map mismatch at object {addr} field {field}")
            }
            BmxError::Rvm(msg) => write!(f, "rvm: {msg}"),
            BmxError::NoSuchNode(node) => write!(f, "no such node {node}"),
            BmxError::NoSuchSegment(seg) => write!(f, "no such segment {seg}"),
            BmxError::CollectorBusy { bunch } => {
                write!(f, "a collection of bunch {bunch} is in progress")
            }
            BmxError::WouldBlock { oid } => {
                write!(f, "acquire of {oid} would block on a held critical section")
            }
            BmxError::AccessDenied { bunch, write } => {
                let kind = if *write { "write" } else { "read" };
                write!(f, "{kind} access to bunch {bunch} denied by its protection")
            }
            BmxError::NodeDown { node } => {
                write!(f, "node {node} is down (failure domain crashed)")
            }
            BmxError::NeedsNode { node } => {
                write!(f, "the operation needs node {node}'s state as well")
            }
            BmxError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for BmxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BmxError::Unmapped {
            node: NodeId(2),
            addr: Addr(0x40),
        };
        assert_eq!(e.to_string(), "address @0x40 is not mapped on node N2");
        let e = BmxError::NoToken {
            node: NodeId(1),
            oid: Oid(7),
        };
        assert!(e.to_string().contains("O7"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            BmxError::OwnerUnknown { oid: Oid(1) },
            BmxError::OwnerUnknown { oid: Oid(1) }
        );
        assert_ne!(
            BmxError::OwnerUnknown { oid: Oid(1) },
            BmxError::OwnerUnknown { oid: Oid(2) }
        );
    }
}
