//! Typed identifiers used across the workspace.
//!
//! Every distributed entity in BMX has a small, copyable identifier. Using
//! newtypes (rather than bare integers) makes it a type error to pass, say, a
//! bunch id where a node id is expected — a cheap form of protocol hygiene
//! that matters in code shuffling four different id spaces around.

use core::fmt;

/// Identifier of a node (workstation) in the loosely coupled network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifier of a bunch: a logical group of segments with an owner and
/// protection attributes (paper, Section 2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BunchId(pub u32);

/// Identifier of a segment: a constant-size run of contiguous virtual-memory
/// pages with a globally unique, non-overlapping address range.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SegmentId(pub u64);

/// Stable object identifier, assigned at allocation and stored in the object
/// header.
///
/// The paper's prototype keys the DSM token directory by address and relies
/// on forwarding pointers across relocations; we key it by `Oid` instead (see
/// DESIGN.md, "Substitutions"). Mutator-visible references remain raw
/// [`Addr`](crate::Addr)esses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Oid(pub u64);

/// Per-channel FIFO sequence number for point-to-point messages.
///
/// Reachability tables are idempotent but must be consumed in FIFO order
/// (paper, Section 6.1); numbering the messages on each point-to-point
/// channel is how that order is enforced.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct MsgSeq(pub u64);

impl MsgSeq {
    /// Returns the next sequence number, advancing `self`.
    pub fn bump(&mut self) -> MsgSeq {
        self.0 += 1;
        MsgSeq(self.0)
    }
}

/// Monotonic epoch of a bunch-collection on one node.
///
/// Each run of the bunch garbage collector on a replica bumps the replica's
/// epoch; stub tables and scions are stamped with it so the scion cleaner can
/// discard stale tables (DESIGN.md, Section 5). A replica starts at its
/// node's incarnation in the high bits, so a restarted node's epochs order
/// above every epoch it published before (DESIGN.md §8, "Epoch rules").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Epoch(pub u64);

impl Epoch {
    /// Advances to the next epoch and returns it.
    pub fn bump(&mut self) -> Epoch {
        self.0 += 1;
        *self
    }
}

macro_rules! impl_display {
    ($ty:ident, $prefix:expr) => {
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

impl_display!(NodeId, "N");
impl_display!(BunchId, "B");
impl_display!(SegmentId, "S");
impl_display!(Oid, "O");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_paper_style_prefixes() {
        assert_eq!(NodeId(1).to_string(), "N1");
        assert_eq!(BunchId(2).to_string(), "B2");
        assert_eq!(SegmentId(3).to_string(), "S3");
        assert_eq!(Oid(4).to_string(), "O4");
    }

    #[test]
    fn msg_seq_bump_is_monotonic() {
        let mut s = MsgSeq::default();
        let a = s.bump();
        let b = s.bump();
        assert!(a < b);
        assert_eq!(b, MsgSeq(2));
    }

    #[test]
    fn epoch_bump_returns_new_value() {
        let mut e = Epoch::default();
        assert_eq!(e.bump(), Epoch(1));
        assert_eq!(e, Epoch(1));
    }

    #[test]
    fn ids_order_by_inner_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(Oid(9) > Oid(3));
    }
}
