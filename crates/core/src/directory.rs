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

use std::collections::hash_map::Entry;
use std::ops::Range;

use bmx_common::{Addr, IdHashMap, Oid};
use bmx_dsm::Relocation;

/// Width in address bits of the block whose edges share one from-address
/// list: 32 KiB, the default segment size, of which every segment base is
/// then a multiple — so under the default layout a block is one from-space
/// segment, and a released range's lists are found by block number. Any
/// other size is as correct: a block holds several segments or part of one.
const GROUP_SHIFT: u32 = 15;

/// Node-local knowledge of object locations and forwarding edges.
///
/// Every index is hashed: an object's address and its latest relocation
/// record by OID, an edge by both ends. So a lookup, a new edge, a resolve
/// step and a record dropped with its range are each a hash probe, and no
/// query depends on an order. Each block keeps an unordered list of the
/// from-addresses starting in it, because that is how edges die and how
/// the reuse protocol asks for them:
/// [`forget_range`](Directory::forget_range) and
/// [`relocs_from_range`](Directory::relocs_from_range) read only the lists
/// of the blocks a range overlaps, and the latter sorts what it returns.
#[derive(Default, Clone)]
pub struct Directory {
    /// Hashed: every pointer followed, record applied, sweep and copy-out
    /// asks it, and nothing iterates it.
    addr_of: IdHashMap<Oid, Addr>,
    /// The latest retained relocation record per object. Hashed like
    /// `addr_of`: each record applied, copy and released range probes it
    /// by OID, and nothing iterates it.
    reloc_by_oid: IdHashMap<Oid, Relocation>,
    /// Forwarding edges (`from → to`, possibly chained over multiple
    /// collections), each the relocation record that made it.
    by_from: IdHashMap<Addr, Relocation>,
    /// Reverse index `to → from`: where several edges end at one address,
    /// only the latest recorded is named.
    by_to: IdHashMap<Addr, Addr>,
    /// The from-addresses of the edges starting in each block, unordered.
    blocks: IdHashMap<u64, Vec<Addr>>,
}

fn block_of(addr: Addr) -> u64 {
    addr.0 >> GROUP_SHIFT
}

/// The blocks that overlap `[start, end)`.
fn blocks_in(start: Addr, end: Addr) -> Range<u64> {
    block_of(start)..(end.0 + (1 << GROUP_SHIFT) - 1) >> GROUP_SHIFT
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

    /// Forgets `oid` (its local replica was reclaimed). Its forwarding
    /// edges stay: stale pointers may still need them; they die with the
    /// from-space reuse protocol.
    pub fn drop_oid(&mut self, oid: Oid) {
        self.addr_of.remove(&oid);
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
        while let Some(r) = self.by_from.get(&cur) {
            cur = r.to;
            hops += 1;
            assert!(
                hops as usize <= self.by_from.len(),
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
        let Entry::Vacant(slot) = self.by_from.entry(from) else {
            return false;
        };
        assert_ne!(from, to, "degenerate relocation for {oid}");
        let r = *slot.insert(Relocation { oid, from, to });
        self.by_to.insert(to, from);
        self.blocks.entry(block_of(from)).or_default().push(from);
        self.reloc_by_oid.insert(oid, r);
        if self.addr_of.get(&oid) == Some(&from) {
            let cur = self.resolve(to);
            self.addr_of.insert(oid, cur);
        }
        true
    }

    /// Whether a forwarding edge from `addr` exists.
    pub fn is_forwarded_from(&self, addr: Addr) -> bool {
        self.by_from.contains_key(&addr)
    }

    /// Every address this node knows a forwarding edge out of, in no
    /// particular order.
    pub fn forwarded_froms(&self) -> impl Iterator<Item = Addr> + '_ {
        self.by_from.keys().copied()
    }

    /// The relocation record that moved `oid`, if any is still retained.
    pub fn reloc_of(&self, oid: Oid) -> Option<Relocation> {
        self.reloc_by_oid.get(&oid).copied()
    }

    /// The relocation record involving `addr` as either end, if any.
    pub fn reloc_touching(&self, addr: Addr) -> Option<Relocation> {
        self.by_from
            .get(&addr)
            .or_else(|| self.by_from.get(self.by_to.get(&addr)?))
            .copied()
    }

    /// Every retained relocation record whose from-address lies in
    /// `[start, start + len_words)`, by from-address — the final
    /// address-change payload of the from-space reuse protocol.
    pub fn relocs_from_range(&self, start: Addr, len_words: u64) -> Vec<Relocation> {
        let end = start.add_words(len_words);
        let mut out: Vec<Relocation> = blocks_in(start, end)
            .filter_map(|b| self.blocks.get(&b))
            .flatten()
            .filter(|&&from| start <= from && from < end)
            .map(|from| self.by_from[from])
            .collect();
        out.sort_unstable_by_key(|r| r.from);
        out
    }

    /// Drops forwarding edges and relocation records whose *from* address
    /// lies in `[start, start + len_words)` — called when that from-space
    /// range is released and the edges are guaranteed unnecessary
    /// (Section 4.5). The per-object index loses a record only if it is the
    /// one dropped: an object moved again since keeps its younger record.
    pub fn forget_range(&mut self, start: Addr, len_words: u64) {
        let end = start.add_words(len_words);
        for b in blocks_in(start, end) {
            let Some(froms) = self.blocks.get_mut(&b) else {
                continue;
            };
            froms.retain(|&from| {
                if from < start || from >= end {
                    return true;
                }
                let r = self.by_from.remove(&from).expect("listed edge");
                if self.by_to.get(&r.to) == Some(&from) {
                    self.by_to.remove(&r.to);
                }
                if self.reloc_by_oid.get(&r.oid) == Some(&r) {
                    self.reloc_by_oid.remove(&r.oid);
                }
                false
            });
            if froms.is_empty() {
                self.blocks.remove(&b);
            }
        }
    }

    /// Number of forwarding edges retained.
    pub fn edge_count(&self) -> usize {
        self.by_from.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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

    const BLOCK_WORDS: u64 = (1 << GROUP_SHIFT) / 8;

    #[test]
    fn relocs_from_range_sorts_edges_recorded_in_descending_order() {
        // Six edges over two blocks, recorded highest from-address first:
        // each block's list holds them in recording order.
        let base = Addr(0x1_0000);
        let froms: Vec<Addr> = [2 * BLOCK_WORDS - 2, BLOCK_WORDS + 4, BLOCK_WORDS, 40, 8, 0]
            .iter()
            .map(|&w| base.add_words(w))
            .collect();
        let mut d = Directory::new();
        for (i, &from) in froms.iter().enumerate() {
            d.record_move(Oid(i as u64), from, Addr(0x10_0000 + 8 * i as u64));
        }
        let got: Vec<Addr> = d
            .relocs_from_range(base, 2 * BLOCK_WORDS)
            .iter()
            .map(|r| r.from)
            .collect();
        let mut want = froms.clone();
        want.reverse();
        assert_eq!(got, want);
        // A range starting and ending mid-block cuts both lists.
        let got: Vec<Addr> = d
            .relocs_from_range(base.add_words(8), BLOCK_WORDS)
            .iter()
            .map(|r| r.from)
            .collect();
        assert_eq!(got, want[1..5]);
    }

    #[test]
    fn forget_range_over_part_of_a_block_keeps_the_rest() {
        let base = Addr(0x1_0000);
        let mut d = Directory::new();
        for w in 0..8 {
            d.record_move(Oid(w), base.add_words(8 * w), Addr(0x10_0000 + 8 * w));
        }
        // Words 16..40 hold the edges from words 16, 24 and 32.
        d.forget_range(base.add_words(16), 24);
        assert_eq!(d.edge_count(), 5);
        for w in 0..8 {
            let forgotten = (2..5).contains(&w);
            assert_eq!(
                d.is_forwarded_from(base.add_words(8 * w)),
                !forgotten,
                "word {w}"
            );
        }
        assert_eq!(d.relocs_from_range(base, BLOCK_WORDS).len(), 5);
        d.forget_range(base, BLOCK_WORDS);
        assert_eq!(d.edge_count(), 0);
    }

    #[test]
    fn reloc_touching_finds_an_edge_by_its_to_in_a_block_where_none_starts() {
        let mut d = Directory::new();
        let (from, to) = (Addr(0x1_0000), Addr(0x1_0000 + 4 * (1 << GROUP_SHIFT)));
        d.record_move(Oid(4), from, to);
        assert_eq!(d.reloc_touching(to).map(|r| r.from), Some(from));
        assert!(d.relocs_from_range(to, BLOCK_WORDS).is_empty());
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

    /// Enough objects that the per-object index grows and rehashes many
    /// times, then loses every other block's records while some objects
    /// gain younger ones: each object's record is the one its history
    /// leaves, whatever the table's layout after the growth.
    #[test]
    #[allow(clippy::manual_is_multiple_of)] // `is_multiple_of` is newer than the MSRV
    fn reloc_of_survives_growth_and_half_the_blocks_forgotten() {
        const OBJECTS: u64 = 6_000;
        let block_of_oid = |i: u64| i * 64 / (1 << GROUP_SHIFT);
        let from = |i: u64| Addr(0x100_0000 + 64 * i);
        let to = |i: u64| Addr(0x1000_0000 + 64 * i);
        let younger = |i: u64| Addr(0x2000_0000 + 64 * i);
        let mut d = Directory::new();
        for i in 0..OBJECTS {
            assert!(d.record_move(Oid(i), from(i), to(i)));
        }
        let blocks = block_of_oid(OBJECTS - 1) + 1;
        assert!(blocks >= 8, "the objects span {blocks} blocks");
        for b in (0..blocks).step_by(2) {
            d.forget_range(Addr(0x100_0000 + (b << GROUP_SHIFT)), BLOCK_WORDS);
        }
        for i in (0..OBJECTS).filter(|i| i % 3 == 0) {
            assert!(d.record_move(Oid(i), to(i), younger(i)));
        }
        let want = |i: u64, odd_blocks_kept: bool| {
            if i % 3 == 0 {
                Some(Relocation {
                    oid: Oid(i),
                    from: to(i),
                    to: younger(i),
                })
            } else if odd_blocks_kept && block_of_oid(i) % 2 == 1 {
                Some(Relocation {
                    oid: Oid(i),
                    from: from(i),
                    to: to(i),
                })
            } else {
                None
            }
        };
        for i in 0..OBJECTS {
            assert_eq!(d.reloc_of(Oid(i)), want(i, true), "object {i}");
        }
        // The rest of the from-range goes: an object moved again keeps its
        // younger record, which starts outside it.
        d.forget_range(Addr(0x100_0000), blocks * BLOCK_WORDS);
        for i in 0..OBJECTS {
            assert_eq!(d.reloc_of(Oid(i)), want(i, false), "object {i}");
        }
    }

    #[test]
    #[should_panic(expected = "forwarding cycle")]
    fn cycles_are_detected() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.record_move(Oid(1), Addr(0x200), Addr(0x100));
        d.resolve(Addr(0x100));
    }

    /// The model: one ordered map per query, each record kept in the
    /// reverse indexes until it is replaced or forgotten.
    #[derive(Default)]
    struct Model {
        addr_of: BTreeMap<Oid, Addr>,
        by_from: BTreeMap<Addr, Relocation>,
        by_oid: BTreeMap<Oid, Relocation>,
        by_to: BTreeMap<Addr, Relocation>,
    }

    impl Model {
        fn resolve_hops(&self, addr: Addr) -> (Addr, u32) {
            let mut cur = addr;
            let mut hops = 0;
            while let Some(r) = self.by_from.get(&cur) {
                cur = r.to;
                hops += 1;
            }
            (cur, hops)
        }

        fn record_move(&mut self, oid: Oid, from: Addr, to: Addr) -> bool {
            if self.by_from.contains_key(&from) {
                return false;
            }
            let r = Relocation { oid, from, to };
            self.by_oid.insert(oid, r);
            self.by_from.insert(from, r);
            self.by_to.insert(to, r);
            if self.addr_of.get(&oid) == Some(&from) {
                let cur = self.resolve_hops(to).0;
                self.addr_of.insert(oid, cur);
            }
            true
        }

        fn forget_range(&mut self, start: Addr, len_words: u64) {
            let doomed: Vec<Relocation> = self
                .by_from
                .range(start..start.add_words(len_words))
                .map(|(_, r)| *r)
                .collect();
            for r in doomed {
                self.by_from.remove(&r.from);
                if self.by_to.get(&r.to) == Some(&r) {
                    self.by_to.remove(&r.to);
                }
                if self.by_oid.get(&r.oid) == Some(&r) {
                    self.by_oid.remove(&r.oid);
                }
            }
        }
    }

    /// The hashed layout against the model under random `set_addr`,
    /// `record_move`, `drop_oid` and `forget_range` calls over four blocks,
    /// with ranges from a few words to several blocks. After every step
    /// each query agrees on every address and object.
    #[test]
    fn matches_a_btreemap_model_over_random_sequences() {
        use bmx_common::SplitMix64;

        const BLOCK: u64 = 1 << GROUP_SHIFT;
        let addr = |rng: &mut SplitMix64| {
            Addr(0x1_0000 + rng.next_below(4) * BLOCK + 8 * rng.next_below(24))
        };
        let probes: Vec<Addr> = (0..4)
            .flat_map(|b| (0..25).map(move |w| Addr(0x1_0000 + b * BLOCK + 8 * w)))
            .collect();
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut d = Directory::new();
            let mut m = Model::default();
            for step in 0..400 {
                let oid = Oid(rng.next_below(12));
                match rng.next_below(8) {
                    0 => {
                        let a = addr(&mut rng);
                        d.set_addr(oid, a);
                        m.addr_of.insert(oid, a);
                    }
                    1 => {
                        d.drop_oid(oid);
                        m.addr_of.remove(&oid);
                        m.by_oid.remove(&oid);
                    }
                    2 => {
                        let start = addr(&mut rng);
                        let len = match rng.next_below(3) {
                            0 => rng.next_below(16),
                            1 => BLOCK / 8,
                            _ => rng.next_below(3 * BLOCK / 8),
                        };
                        d.forget_range(start, len);
                        m.forget_range(start, len);
                    }
                    _ => {
                        let (from, to) = (addr(&mut rng), addr(&mut rng));
                        // Skip a self-edge and an edge that would close a
                        // cycle: both are refused by assertion.
                        if from != to && m.resolve_hops(to).0 != from {
                            let want = m.record_move(oid, from, to);
                            assert_eq!(d.record_move(oid, from, to), want, "seed {seed}");
                        }
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                for &a in &probes {
                    assert_eq!(d.resolve_hops(a), m.resolve_hops(a), "{ctx} at {a}");
                    let want = m.by_from.get(&a).or_else(|| m.by_to.get(&a)).copied();
                    assert_eq!(d.reloc_touching(a), want, "{ctx} at {a}");
                }
                for o in (0..12).map(Oid) {
                    assert_eq!(d.addr_of(o), m.addr_of.get(&o).copied(), "{ctx}");
                    assert_eq!(d.reloc_of(o), m.by_oid.get(&o).copied(), "{ctx}");
                }
                let (start, len) = (addr(&mut rng), rng.next_below(3 * BLOCK / 8));
                let want: Vec<Relocation> = m
                    .by_from
                    .range(start..start.add_words(len))
                    .map(|(_, r)| *r)
                    .collect();
                assert_eq!(d.relocs_from_range(start, len), want, "{ctx}");
                assert_eq!(d.edge_count(), m.by_from.len(), "{ctx}");
            }
        }
    }
}
