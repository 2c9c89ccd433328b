//! The per-node relocation directory.
//!
//! After a bunch garbage collection, the same object legitimately lives at
//! different addresses on different nodes (paper, Section 4.2); each node
//! therefore keeps a *local* view of where objects are: the current local
//! address per OID, and the set of forwarding edges (`from → to`) its own
//! collections performed or it learned from relocation records. Following a
//! pointer through [`Directory::resolve`] is the reproduction's version of
//! the paper's "special operation ... to perform pointer comparison"
//! (Section 4.2) — two references denote the same object iff they resolve to
//! the same address.
//!
//! # Examples
//!
//! ```
//! use bmx_common::{Addr, Oid};
//! use bmx_gc::Directory;
//!
//! let mut dir = Directory::new();
//! dir.set_addr(Oid(1), Addr(0x1_0000));
//! // Two collections move the object twice.
//! dir.record_move(Oid(1), Addr(0x1_0000), Addr(0x2_0000));
//! dir.record_move(Oid(1), Addr(0x2_0000), Addr(0x3_0000));
//! // Any historical name resolves to the current copy...
//! assert_eq!(dir.resolve(Addr(0x1_0000)), Addr(0x3_0000));
//! // ...and the pointer-comparison operation sees through the chain.
//! assert!(dir.ptr_eq(Addr(0x1_0000), Addr(0x3_0000)));
//! assert_eq!(dir.addr_of(Oid(1)), Some(Addr(0x3_0000)));
//! ```

use std::collections::BTreeMap;

use bmx_common::{Addr, Oid};
use bmx_dsm::Relocation;

/// Node-local knowledge of object locations and forwarding edges.
#[derive(Default, Clone)]
pub struct Directory {
    addr_of: BTreeMap<Oid, Addr>,
    /// Forwarding edges (`from → to`, possibly chained over multiple
    /// collections), each with the relocation record that made it.
    reloc_by_from: BTreeMap<Addr, Relocation>,
    /// Reverse lookups for building grant relocations: the latest record
    /// per object, and the record ending at an address.
    reloc_by_oid: BTreeMap<Oid, Relocation>,
    reloc_by_to: BTreeMap<Addr, Relocation>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current local address of `oid`, if known.
    pub fn addr_of(&self, oid: Oid) -> Option<Addr> {
        self.addr_of.get(&oid).copied()
    }

    /// Records the local address of `oid` (allocation, mapping, or install).
    pub fn set_addr(&mut self, oid: Oid, addr: Addr) {
        self.addr_of.insert(oid, addr);
    }

    /// Forgets `oid` (its local replica was reclaimed).
    pub fn drop_oid(&mut self, oid: Oid) {
        if let Some(a) = self.addr_of.remove(&oid) {
            // Keep forwarding edges: they may still be needed by stale
            // pointers; they die with the from-space reuse protocol.
            let _ = a;
        }
        self.reloc_by_oid.remove(&oid);
    }

    /// Follows forwarding edges from `addr` to the current address.
    ///
    /// Chains (an object moved again in a later collection) are followed to
    /// the end; an address with no edge resolves to itself.
    pub fn resolve(&self, addr: Addr) -> Addr {
        self.resolve_hops(addr).0
    }

    /// [`resolve`](Directory::resolve), also returning the number of
    /// forwarding edges followed (the metrics plane histograms chain
    /// lengths to show relocation debt building up).
    ///
    /// A held pre-collection address gains one edge per collection until a
    /// reuse round drops them, so no constant bounds a legitimate chain;
    /// the edge count does, since a chain follows each edge at most once.
    pub fn resolve_hops(&self, addr: Addr) -> (Addr, u32) {
        let mut cur = addr;
        let mut hops = 0;
        while let Some(r) = self.reloc_by_from.get(&cur) {
            cur = r.to;
            hops += 1;
            assert!(
                hops as usize <= self.reloc_by_from.len(),
                "forwarding cycle at {addr}"
            );
        }
        (cur, hops)
    }

    /// The paper's pointer-comparison operation: do `a` and `b` denote the
    /// same object despite forwarding?
    pub fn ptr_eq(&self, a: Addr, b: Addr) -> bool {
        self.resolve(a) == self.resolve(b)
    }

    /// Records a move of `oid` from `from` to `to` and indexes the
    /// relocation record. Returns `false` if an edge from `from` was
    /// already known (idempotent re-application).
    ///
    /// The OID's current-address entry advances only when the move extends
    /// *this* replica's chain (`addr_of == from`). Relocation records from
    /// different source nodes may arrive in any relative order; an edge
    /// further down the chain (or for a replica this node does not track)
    /// must not teleport `addr_of` away from the local copy.
    ///
    /// A *conflicting* edge — same `from`, different `to` — is refused,
    /// not overwritten. Collections at different replica sites legitimately
    /// move the same object to different addresses (Section 4.2); the
    /// first edge this node recorded is the one its own copy (or knowledge)
    /// followed, and replacing it would dead-end local resolution mid-chain
    /// at an address this replica never populated.
    pub fn record_move(&mut self, oid: Oid, from: Addr, to: Addr) -> bool {
        if self.reloc_by_from.contains_key(&from) {
            return false;
        }
        assert_ne!(from, to, "degenerate relocation for {oid}");
        let r = Relocation { oid, from, to };
        self.reloc_by_oid.insert(oid, r);
        self.reloc_by_from.insert(from, r);
        self.reloc_by_to.insert(to, r);
        if self.addr_of.get(&oid) == Some(&from) {
            let cur = self.resolve(to);
            self.addr_of.insert(oid, cur);
        }
        true
    }

    /// Whether a forwarding edge from `addr` exists.
    pub fn is_forwarded_from(&self, addr: Addr) -> bool {
        self.reloc_by_from.contains_key(&addr)
    }

    /// The relocation record that moved `oid`, if any is still retained.
    pub fn reloc_of(&self, oid: Oid) -> Option<Relocation> {
        self.reloc_by_oid.get(&oid).copied()
    }

    /// The relocation record involving `addr` as either end, if any.
    pub fn reloc_touching(&self, addr: Addr) -> Option<Relocation> {
        self.reloc_by_from
            .get(&addr)
            .or_else(|| self.reloc_by_to.get(&addr))
            .copied()
    }

    /// Every retained relocation record whose from-address lies in
    /// `[start, start + len_words)` — the final address-change payload of
    /// the from-space reuse protocol.
    pub fn relocs_from_range(&self, start: Addr, len_words: u64) -> Vec<Relocation> {
        self.reloc_by_from
            .range(start..start.add_words(len_words))
            .map(|(_, r)| *r)
            .collect()
    }

    /// Drops forwarding edges and relocation records whose *from* address
    /// lies in `[start, start + len_words)` — called when that from-space
    /// range is released and the edges are guaranteed unnecessary
    /// (Section 4.5). The reverse indexes lose a record only if it is the
    /// one dropped: an object moved again since keeps its younger record.
    pub fn forget_range(&mut self, start: Addr, len_words: u64) {
        for r in self.relocs_from_range(start, len_words) {
            self.reloc_by_from.remove(&r.from);
            // The reverse indexes may have moved on to a younger record.
            if self.reloc_by_to.get(&r.to) == Some(&r) {
                self.reloc_by_to.remove(&r.to);
            }
            if self.reloc_by_oid.get(&r.oid) == Some(&r) {
                self.reloc_by_oid.remove(&r.oid);
            }
        }
    }

    /// Number of known objects.
    pub fn len(&self) -> usize {
        self.addr_of.len()
    }

    /// Whether the directory knows no objects.
    pub fn is_empty(&self) -> bool {
        self.addr_of.is_empty()
    }

    /// All `(oid, current address)` pairs, for table rebuilding.
    pub fn entries(&self) -> impl Iterator<Item = (Oid, Addr)> + '_ {
        self.addr_of.iter().map(|(&o, &a)| (o, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_follows_chains() {
        let mut d = Directory::new();
        d.set_addr(Oid(1), Addr(0x100));
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.record_move(Oid(1), Addr(0x200), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x100)), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x200)), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x300)), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x999)), Addr(0x999));
        assert_eq!(d.addr_of(Oid(1)), Some(Addr(0x300)));
    }

    #[test]
    fn ptr_eq_sees_through_forwarding() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        assert!(d.ptr_eq(Addr(0x100), Addr(0x200)));
        assert!(!d.ptr_eq(Addr(0x100), Addr(0x300)));
    }

    #[test]
    fn record_move_is_idempotent() {
        let mut d = Directory::new();
        assert!(d.record_move(Oid(1), Addr(0x100), Addr(0x200)));
        assert!(!d.record_move(Oid(1), Addr(0x100), Addr(0x200)));
    }

    #[test]
    fn out_of_order_edges_do_not_move_the_local_replica() {
        // The local replica sits at F; an edge further down the chain
        // (T1 -> T2, learned from another node before F -> T1) must not
        // teleport addr_of; once the missing edge arrives, addr_of jumps to
        // the end of the chain.
        let mut d = Directory::new();
        d.set_addr(Oid(5), Addr(0xF00));
        d.record_move(Oid(5), Addr(0x1000), Addr(0x2000)); // downstream edge
        assert_eq!(d.addr_of(Oid(5)), Some(Addr(0xF00)), "replica stays put");
        d.record_move(Oid(5), Addr(0xF00), Addr(0x1000)); // the missing link
        assert_eq!(d.addr_of(Oid(5)), Some(Addr(0x2000)), "chain resolved");
        assert_eq!(d.resolve(Addr(0xF00)), Addr(0x2000));
    }

    #[test]
    fn divergent_relocation_does_not_clobber_the_local_chain() {
        // This node's copy went 0x100 -> 0x200 (its own collection, or the
        // first record it applied). Another replica site later moves *its*
        // copy of the same object 0x100 -> 0x900; applying that record must
        // not redirect local resolution to an address this replica never
        // populated.
        let mut d = Directory::new();
        d.set_addr(Oid(3), Addr(0x100));
        assert!(d.record_move(Oid(3), Addr(0x100), Addr(0x200)));
        assert!(!d.record_move(Oid(3), Addr(0x100), Addr(0x900)), "refused");
        assert_eq!(d.resolve(Addr(0x100)), Addr(0x200));
        assert_eq!(d.addr_of(Oid(3)), Some(Addr(0x200)));
    }

    #[test]
    fn reloc_lookups() {
        let mut d = Directory::new();
        d.record_move(Oid(7), Addr(0x100), Addr(0x200));
        let r = d.reloc_of(Oid(7)).unwrap();
        assert_eq!((r.from, r.to), (Addr(0x100), Addr(0x200)));
        assert_eq!(d.reloc_touching(Addr(0x100)).unwrap().oid, Oid(7));
        assert_eq!(d.reloc_touching(Addr(0x200)).unwrap().oid, Oid(7));
        assert!(d.reloc_touching(Addr(0x300)).is_none());
    }

    #[test]
    fn forget_range_drops_edges_and_records() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x800));
        d.record_move(Oid(2), Addr(0x1000), Addr(0x880));
        d.forget_range(Addr(0x100), 16); // covers 0x100..0x180
        assert_eq!(d.resolve(Addr(0x100)), Addr(0x100), "edge gone");
        assert!(d.reloc_of(Oid(1)).is_none());
        assert_eq!(d.resolve(Addr(0x1000)), Addr(0x880), "other edge kept");
        assert!(d.reloc_of(Oid(2)).is_some());
    }

    #[test]
    fn forget_range_keeps_the_objects_younger_record() {
        // O1 moved twice; only the first hop starts in the forgotten range.
        // The reverse indexes name the younger record and must keep it.
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x800));
        d.record_move(Oid(1), Addr(0x800), Addr(0x1800));
        d.forget_range(Addr(0x100), 16);
        assert!(!d.is_forwarded_from(Addr(0x100)));
        assert!(d.relocs_from_range(Addr(0x100), 16).is_empty());
        assert_eq!(d.reloc_of(Oid(1)).unwrap().from, Addr(0x800));
        assert_eq!(d.reloc_touching(Addr(0x800)).unwrap().to, Addr(0x1800));
        assert_eq!(d.resolve(Addr(0x800)), Addr(0x1800));
    }

    #[test]
    fn drop_oid_keeps_forwarding() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.drop_oid(Oid(1));
        assert_eq!(d.addr_of(Oid(1)), None);
        assert_eq!(
            d.resolve(Addr(0x100)),
            Addr(0x200),
            "stale pointers still resolve"
        );
    }

    #[test]
    #[should_panic(expected = "forwarding cycle")]
    fn cycles_are_detected() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.record_move(Oid(1), Addr(0x200), Addr(0x100));
        d.resolve(Addr(0x100));
    }
}
