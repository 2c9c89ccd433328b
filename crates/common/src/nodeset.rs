//! A set of nodes as one machine word.
//!
//! The DSM protocol keeps small node sets per object replica — the copy-set
//! of direct read grantees, the entering ownerPtrs, the children an
//! invalidation round still awaits. A cluster has a handful of nodes, so a
//! `u64` bitmask holds any such set in place: membership is one bit test, a
//! non-empty set costs no heap node, and iteration walks the set bits in
//! ascending [`NodeId`] order, the order a `BTreeSet<NodeId>` yields. The
//! price is a bound on the node ids: [`NodeSet::CAPACITY`], which a cluster
//! checks where it is built.

use core::fmt;

use crate::NodeId;

/// A set of [`NodeId`]s below [`NodeSet::CAPACITY`]; see the module
/// documentation.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeSet(u64);

/// The bit for `n`, if `n` fits in a set.
fn bit(n: NodeId) -> Option<u64> {
    1u64.checked_shl(n.0)
}

impl NodeSet {
    /// How many node ids a set can hold: ids `0..CAPACITY`.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// The empty set.
    pub const fn new() -> Self {
        NodeSet(0)
    }

    /// Adds `n`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not below [`NodeSet::CAPACITY`].
    pub fn insert(&mut self, n: NodeId) -> bool {
        let b = bit(n)
            .unwrap_or_else(|| panic!("a node set holds ids below {}, got {n}", Self::CAPACITY));
        let absent = self.0 & b == 0;
        self.0 |= b;
        absent
    }

    /// Removes `n`; returns whether it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        let present = self.contains(n);
        if let Some(b) = bit(n) {
            self.0 &= !b;
        }
        present
    }

    /// Whether `n` is in the set.
    pub fn contains(&self, n: NodeId) -> bool {
        bit(n).is_some_and(|b| self.0 & b != 0)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// The nodes in ascending id order.
    pub fn iter(&self) -> Iter {
        Iter(self.0)
    }
}

/// Iterator over a [`NodeSet`], ascending.
pub struct Iter(u64);

impl Iterator for Iter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.0 == 0 {
            return None;
        }
        let n = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(NodeId(n))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::SplitMix64;

    /// The bitmask against the `BTreeSet<NodeId>` it replaces: random
    /// inserts, removes, membership tests and clears over every id it can
    /// hold. After every step both agree on each answer, the length and
    /// the iteration order.
    #[test]
    fn matches_a_btreeset_model_over_random_sequences() {
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut s = NodeSet::new();
            let mut m: BTreeSet<NodeId> = BTreeSet::new();
            for step in 0..400 {
                let n = NodeId(rng.next_below(NodeSet::CAPACITY as u64) as u32);
                let ctx = format!("seed {seed} step {step} {n}");
                match rng.next_below(16) {
                    0..=6 => assert_eq!(s.insert(n), m.insert(n), "{ctx}"),
                    7..=12 => assert_eq!(s.remove(n), m.remove(&n), "{ctx}"),
                    13 | 14 => assert_eq!(s.contains(n), m.contains(&n), "{ctx}"),
                    _ => {
                        s.clear();
                        m.clear();
                    }
                }
                assert_eq!(s.len(), m.len(), "{ctx}");
                assert_eq!(s.is_empty(), m.is_empty(), "{ctx}");
                assert!(s.iter().eq(m.iter().copied()), "{ctx}");
                assert_eq!(s.iter().size_hint(), (m.len(), Some(m.len())), "{ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a node set holds ids below 64, got N64")]
    fn the_last_id_fits_and_the_next_is_refused() {
        let mut s = NodeSet::new();
        s.insert(NodeId(0));
        s.insert(NodeId(63));
        assert_eq!(format!("{s:?}"), "{N0, N63}");
        assert!(!s.contains(NodeId(64)) && !s.remove(NodeId(64)));
        s.insert(NodeId(64));
    }
}
