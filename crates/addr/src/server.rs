//! The segment server (BMX-server role).
//!
//! "A BMX-server runs on every node in the system and provides basic
//! services, such as allocation of non-overlapping segments" (paper,
//! Section 8). In the reproduction, the server is a single authoritative
//! registry shared by the simulated cluster: it creates bunches, assigns
//! each segment a globally unique address range, and records which segments
//! belong to which bunch. It holds *no* object data — nodes keep their own
//! replicas in [`crate::NodeMemory`].

use std::collections::{BTreeMap, BTreeSet};

use bmx_common::{Addr, BmxError, BunchId, NodeId, Oid, Result, SegmentId};

/// Unix-style protection attributes of a bunch (paper, Section 2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Protection {
    /// Readable by mappers.
    pub read: bool,
    /// Writable by mappers.
    pub write: bool,
    /// Executable (carried for fidelity; unused by the collector).
    pub execute: bool,
}

impl Default for Protection {
    fn default() -> Self {
        Protection {
            read: true,
            write: true,
            execute: false,
        }
    }
}

/// Descriptor of one segment: a constant-size run of contiguous virtual
/// memory pages with a globally unique address range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentInfo {
    /// Segment identifier.
    pub id: SegmentId,
    /// First address of the range.
    pub base: Addr,
    /// Length in words (constant per server).
    pub words: u64,
    /// Bunch this segment belongs to.
    pub bunch: BunchId,
    /// The bunch's creator, copied from its [`BunchInfo`] (fixed at bunch
    /// creation), so a node holding the segment mapped answers "who may
    /// allocate here" from its own memory.
    pub creator: NodeId,
    /// The bunch's protection attributes, copied likewise: the access
    /// check of a mapped address touches no shared state.
    pub protection: Protection,
}

impl SegmentInfo {
    /// Returns `true` if `addr` falls inside this segment.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.in_range(self.base, self.words)
    }
}

/// Descriptor of a bunch: a logical group of segments with an owner node and
/// protection attributes.
#[derive(Clone, Debug)]
pub struct BunchInfo {
    /// Bunch identifier.
    pub id: BunchId,
    /// The node that created the bunch (administrative owner; distinct from
    /// per-object token ownership, which lives in the DSM layer).
    pub creator: NodeId,
    /// Segments of the bunch, in allocation order.
    pub segments: Vec<SegmentId>,
    /// Protection attributes.
    pub protection: Protection,
}

/// The routing of one released range.
struct RetiredRange {
    base: Addr,
    /// `(from, oid, to)`, sorted by `from`, one per from-address.
    routes: Vec<(Addr, Oid, Addr)>,
}

/// Authoritative allocator of bunches and non-overlapping segment ranges.
pub struct SegmentServer {
    segment_words: u64,
    next_base: u64,
    next_segment: u64,
    next_bunch: u32,
    segments: BTreeMap<SegmentId, SegmentInfo>,
    /// Sorted by base address for address→segment resolution.
    by_base: BTreeMap<u64, SegmentId>,
    bunches: BTreeMap<BunchId, BunchInfo>,
    /// Address-keyed routing for *retired* ranges: `from -> (oid, to)` for
    /// every relocation whose from-space was reclaimed by the reuse
    /// protocol, one table per released range, sorted by base. Nodes drop
    /// their forwarding knowledge when a range is released (Section 4.5); a
    /// mutator still holding a pre-collection pointer resolves it here (the
    /// stand-in for the original system's address-keyed routing, like the
    /// header fetch in `oid_at`).
    retired: Vec<RetiredRange>,
    /// Routes in all of `retired`.
    retired_routes: usize,
    /// Which nodes have each bunch mapped: where a collection's
    /// reachability reports and retire requests go. Kept here because the
    /// server is what every node can ask (paper, Section 8).
    mappings: BTreeMap<BunchId, BTreeSet<NodeId>>,
}

/// Lowest address ever handed out; keeps `Addr::NULL` and a guard band
/// unmappable.
const FIRST_BASE: u64 = 0x1_0000;

impl SegmentServer {
    /// Creates a server issuing segments of `segment_words` words each.
    ///
    /// # Panics
    ///
    /// Panics if `segment_words` is zero.
    pub fn new(segment_words: u64) -> Self {
        assert!(segment_words > 0, "segments must be non-empty");
        SegmentServer {
            segment_words,
            next_base: FIRST_BASE,
            next_segment: 1,
            next_bunch: 1,
            segments: BTreeMap::new(),
            by_base: BTreeMap::new(),
            bunches: BTreeMap::new(),
            retired: Vec::new(),
            retired_routes: 0,
            mappings: BTreeMap::new(),
        }
    }

    /// The constant segment size, in words.
    pub fn segment_words(&self) -> u64 {
        self.segment_words
    }

    /// Creates a new, initially segment-less bunch created by `creator`.
    pub fn create_bunch(&mut self, creator: NodeId, protection: Protection) -> BunchId {
        let id = BunchId(self.next_bunch);
        self.next_bunch += 1;
        self.bunches.insert(
            id,
            BunchInfo {
                id,
                creator,
                segments: Vec::new(),
                protection,
            },
        );
        id
    }

    /// Allocates a fresh segment for `bunch` with a globally unique range.
    pub fn alloc_segment(&mut self, bunch: BunchId) -> Result<SegmentInfo> {
        let entry = self
            .bunches
            .get_mut(&bunch)
            .ok_or(BmxError::BunchUnmapped {
                node: NodeId(u32::MAX),
                bunch,
            })?;
        let id = SegmentId(self.next_segment);
        self.next_segment += 1;
        let base = Addr(self.next_base);
        self.next_base = self
            .next_base
            .checked_add(self.segment_words * bmx_common::WORD_BYTES)
            .ok_or(BmxError::SegmentExhausted { bunch })?;
        let info = SegmentInfo {
            id,
            base,
            words: self.segment_words,
            bunch,
            creator: entry.creator,
            protection: entry.protection,
        };
        self.segments.insert(id, info);
        self.by_base.insert(base.0, id);
        entry.segments.push(id);
        Ok(info)
    }

    /// Re-registers a segment known from a persistent store (recovery).
    ///
    /// Idempotent for an identical registration; rejects conflicts with
    /// existing segments. Advances the allocation cursors past the adopted
    /// range so later allocations cannot overlap it.
    pub fn adopt_segment(
        &mut self,
        bunch: BunchId,
        id: SegmentId,
        base: Addr,
        words: u64,
    ) -> Result<SegmentInfo> {
        if let Some(existing) = self.segments.get(&id) {
            if existing.base == base && existing.words == words && existing.bunch == bunch {
                return Ok(*existing);
            }
            return Err(BmxError::Protocol(format!(
                "segment {id} already registered with a different shape"
            )));
        }
        let entry = self
            .bunches
            .get_mut(&bunch)
            .ok_or(BmxError::BunchUnmapped {
                node: NodeId(u32::MAX),
                bunch,
            })?;
        let info = SegmentInfo {
            id,
            base,
            words,
            bunch,
            creator: entry.creator,
            protection: entry.protection,
        };
        self.segments.insert(id, info);
        self.by_base.insert(base.0, id);
        entry.segments.push(id);
        let end = base.add_words(words).0;
        if self.next_base < end {
            self.next_base = end;
        }
        if self.next_segment <= id.0 {
            self.next_segment = id.0 + 1;
        }
        Ok(info)
    }

    /// Looks up a segment descriptor.
    pub fn segment(&self, id: SegmentId) -> Result<SegmentInfo> {
        self.segments
            .get(&id)
            .copied()
            .ok_or(BmxError::NoSuchSegment(id))
    }

    /// Looks up a bunch descriptor.
    pub fn bunch(&self, id: BunchId) -> Result<&BunchInfo> {
        self.bunches.get(&id).ok_or(BmxError::BunchUnmapped {
            node: NodeId(u32::MAX),
            bunch: id,
        })
    }

    /// All bunches, in id order.
    pub fn bunches(&self) -> impl Iterator<Item = &BunchInfo> {
        self.bunches.values()
    }

    /// Resolves an address to the segment containing it, if any.
    pub fn segment_of(&self, addr: Addr) -> Option<SegmentInfo> {
        let (_, &id) = self.by_base.range(..=addr.0).next_back()?;
        let info = self.segments[&id];
        info.contains(addr).then_some(info)
    }

    /// Resolves an address to the bunch whose segment contains it, if any.
    pub fn bunch_of(&self, addr: Addr) -> Option<BunchId> {
        self.segment_of(addr).map(|s| s.bunch)
    }

    /// The bunch a *held* address names: the containing segment's, or — for
    /// an address in a released range — the one its retired-range routing
    /// leads to (a collection never moves an object across bunches).
    pub fn bunch_of_held(&self, addr: Addr) -> Option<BunchId> {
        self.bunch_of(addr)
            .or_else(|| self.bunch_of(self.resolve_retired(addr)?.1))
    }

    /// Registers the relocation set `(oid, from, to)` of the retiring range
    /// `[base, base + words)` (called by every reuse participant just
    /// before it unmaps its replica); records from outside the range are
    /// ignored. A range registered again merges, and the later record wins
    /// per from-address: it carries newer knowledge.
    pub fn note_retired(
        &mut self,
        base: Addr,
        words: u64,
        relocs: impl IntoIterator<Item = (Oid, Addr, Addr)>,
    ) {
        let mut routes: Vec<(Addr, Oid, Addr)> = relocs
            .into_iter()
            .filter(|&(_, from, to)| from != to && from.in_range(base, words))
            .map(|(oid, from, to)| (from, oid, to))
            .collect();
        // Latest first, then the older registration: the stable sort keeps
        // that order per from-address, and `dedup` keeps the first.
        routes.reverse();
        let at = self.retired.partition_point(|r| r.base < base);
        match self.retired.get_mut(at) {
            Some(known) if known.base == base => {
                self.retired_routes -= known.routes.len();
                routes.append(&mut known.routes);
            }
            _ => self.retired.insert(
                at,
                RetiredRange {
                    base,
                    routes: Vec::new(),
                },
            ),
        }
        routes.sort_by_key(|&(from, ..)| from);
        routes.dedup_by_key(|&mut (from, ..)| from);
        // Every participant registers the range, mostly with the same
        // records: without this the table would keep their sum's capacity.
        routes.shrink_to_fit();
        self.retired_routes += routes.len();
        self.retired[at].routes = routes;
    }

    /// Releases segments the from-space reuse protocol reclaimed
    /// (Section 4.5; called by the initiator once every replica holder has
    /// unmapped its copy). The ranges are never handed out again — segment
    /// bases only grow — so from here on `segment_of`/`bunch_of` answer
    /// `None` for them and a late relocation record into one is dropped as
    /// an unknown address. Retired-range routing is kept: it is what still
    /// serves a held pre-collection pointer. Unknown ids are ignored
    /// (a retire round may be replayed).
    pub fn release_segments(&mut self, ids: &[SegmentId]) {
        for id in ids {
            let Some(info) = self.segments.remove(id) else {
                continue;
            };
            self.by_base.remove(&info.base.0);
            if let Some(b) = self.bunches.get_mut(&info.bunch) {
                b.segments.retain(|s| s != id);
            }
        }
    }

    /// Records that `node` has `bunch` mapped.
    pub fn note_mapping(&mut self, bunch: BunchId, node: NodeId) {
        self.mappings.entry(bunch).or_default().insert(node);
    }

    /// Nodes that currently have `bunch` mapped, ascending.
    pub fn mapped_nodes(&self, bunch: BunchId) -> Vec<NodeId> {
        self.mappings
            .get(&bunch)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Forgets every mapping of `node` (it lost its memory; recovery or a
    /// fresh map re-registers what it regains).
    pub fn forget_mappings(&mut self, node: NodeId) {
        for nodes in self.mappings.values_mut() {
            nodes.remove(&node);
        }
    }

    /// Number of segments currently registered (allocated and not released).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Follows retired-range routing from `addr` to the youngest known
    /// `(oid, address)` — chains span multiple generations of reuse when
    /// a to-space was itself later retired. Returns `None` for an address
    /// no retirement ever recorded.
    ///
    /// # Panics
    ///
    /// Panics on a routing cycle: a chain follows each route at most once.
    pub fn resolve_retired(&self, addr: Addr) -> Option<(Oid, Addr)> {
        let mut cur = addr;
        let mut found = None;
        let mut hops = 0;
        while let Some((oid, to)) = self.route_from(cur) {
            found = Some((oid, to));
            cur = to;
            hops += 1;
            assert!(
                hops <= self.retired_routes,
                "retired-range routing cycle at {addr}"
            );
        }
        found
    }

    /// The route out of `from`, if a released range holds one.
    fn route_from(&self, from: Addr) -> Option<(Oid, Addr)> {
        let at = self
            .retired
            .partition_point(|r| r.base <= from)
            .checked_sub(1)?;
        let routes = &self.retired[at].routes;
        let i = routes.binary_search_by_key(&from, |&(f, ..)| f).ok()?;
        Some((routes[i].1, routes[i].2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn segments_never_overlap() {
        let mut srv = SegmentServer::new(128);
        let b1 = srv.create_bunch(NodeId(0), Protection::default());
        let b2 = srv.create_bunch(NodeId(1), Protection::default());
        let mut ranges = Vec::new();
        for _ in 0..10 {
            let s1 = srv.alloc_segment(b1).unwrap();
            let s2 = srv.alloc_segment(b2).unwrap();
            ranges.push((s1.base.0, s1.base.add_words(s1.words).0));
            ranges.push((s2.base.0, s2.base.add_words(s2.words).0));
        }
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
    }

    #[test]
    fn address_resolution_finds_containing_segment() {
        let mut srv = SegmentServer::new(64);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let s1 = srv.alloc_segment(b).unwrap();
        let s2 = srv.alloc_segment(b).unwrap();
        assert_eq!(srv.segment_of(s1.base).unwrap().id, s1.id);
        assert_eq!(srv.segment_of(s1.base.add_words(63)).unwrap().id, s1.id);
        assert_eq!(srv.segment_of(s2.base).unwrap().id, s2.id);
        assert_eq!(srv.segment_of(Addr(FIRST_BASE - 8)), None);
        assert_eq!(srv.segment_of(s2.base.add_words(64)), None);
        assert_eq!(srv.bunch_of(s1.base.add_words(5)), Some(b));
    }

    #[test]
    fn null_is_never_mapped() {
        let mut srv = SegmentServer::new(64);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        srv.alloc_segment(b).unwrap();
        assert_eq!(srv.segment_of(Addr::NULL), None);
    }

    #[test]
    fn bunch_tracks_its_segments() {
        let mut srv = SegmentServer::new(32);
        let b = srv.create_bunch(NodeId(2), Protection::default());
        let s1 = srv.alloc_segment(b).unwrap();
        let s2 = srv.alloc_segment(b).unwrap();
        let info = srv.bunch(b).unwrap();
        assert_eq!(info.segments, vec![s1.id, s2.id]);
        assert_eq!(info.creator, NodeId(2));
    }

    #[test]
    fn alloc_for_unknown_bunch_fails() {
        let mut srv = SegmentServer::new(32);
        assert!(srv.alloc_segment(BunchId(77)).is_err());
    }

    /// One route per released generation: generation `g`'s range holds
    /// one object moved to the next generation's range. The address held
    /// from the first generation resolves to the last, not to a hop in
    /// between that lies in a released range.
    #[test]
    fn routing_follows_a_chain_of_a_hundred_generations() {
        let mut srv = SegmentServer::new(64);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let gens: Vec<SegmentInfo> = (0..=100).map(|_| srv.alloc_segment(b).unwrap()).collect();
        for w in gens.windows(2) {
            srv.note_retired(w[0].base, 64, [(Oid(7), w[0].base, w[1].base)]);
            srv.release_segments(&[w[0].id]);
        }
        assert_eq!(
            srv.resolve_retired(gens[0].base),
            Some((Oid(7), gens[100].base))
        );
        assert_eq!(srv.bunch_of_held(gens[0].base), Some(b));
    }

    #[test]
    #[should_panic(expected = "retired-range routing cycle")]
    fn a_routing_cycle_is_detected() {
        let mut srv = SegmentServer::new(64);
        let (a, b) = (Addr(FIRST_BASE), Addr(FIRST_BASE + 64 * 8));
        srv.note_retired(a, 64, [(Oid(1), a, b)]);
        srv.note_retired(b, 64, [(Oid(1), b, a)]);
        srv.resolve_retired(a);
    }

    /// The per-range routing against a `BTreeMap<Addr, (Oid, Addr)>` model:
    /// random registrations over eight ranges, a range often registered
    /// again by another participant (the later record wins per
    /// from-address), now and then a record from outside the range. Every
    /// route leads to a later range, so chains span generations. After each
    /// registration every address resolves alike.
    #[test]
    fn routing_matches_a_btreemap_model_over_random_registrations() {
        use bmx_common::SplitMix64;

        const WORDS: u64 = 16;
        let base = |k: u64| Addr(FIRST_BASE + k * WORDS * 8);
        let in_range = |rng: &mut SplitMix64, k: u64| base(k).add_words(rng.next_below(WORDS));
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut srv = SegmentServer::new(WORDS);
            let mut model: BTreeMap<Addr, (Oid, Addr)> = BTreeMap::new();
            for step in 0..400 {
                let k = rng.next_below(7);
                let relocs: Vec<(Oid, Addr, Addr)> = (0..rng.next_below(6))
                    .map(|_| {
                        let oid = Oid(rng.next_below(16));
                        // Now and then a record from outside the range.
                        let at = if rng.chance(0.1) {
                            rng.next_below(8)
                        } else {
                            k
                        };
                        let from = in_range(&mut rng, at);
                        let later = k + 1 + rng.next_below(7 - k);
                        (oid, from, in_range(&mut rng, later))
                    })
                    .collect();
                for &(oid, from, to) in &relocs {
                    if from != to && from.in_range(base(k), WORDS) {
                        model.insert(from, (oid, to));
                    }
                }
                srv.note_retired(base(k), WORDS, relocs);
                let model_resolve = |a: Addr| {
                    let mut found = None;
                    let mut cur = a;
                    while let Some(&(oid, to)) = model.get(&cur) {
                        found = Some((oid, to));
                        cur = to;
                    }
                    found
                };
                for a in (0..8 * WORDS).map(|w| base(0).add_words(w)) {
                    assert_eq!(
                        srv.resolve_retired(a),
                        model_resolve(a),
                        "seed {seed} step {step} at {a}"
                    );
                }
                assert_eq!(srv.retired_routes, model.len(), "seed {seed} step {step}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_any_address_in_a_segment_resolves_to_it(
            seg_count in 1usize..20, probe in 0u64..64
        ) {
            let mut srv = SegmentServer::new(64);
            let b = srv.create_bunch(NodeId(0), Protection::default());
            let mut segs = Vec::new();
            for _ in 0..seg_count {
                segs.push(srv.alloc_segment(b).unwrap());
            }
            for s in &segs {
                let addr = s.base.add_words(probe);
                prop_assert_eq!(srv.segment_of(addr).unwrap().id, s.id);
            }
        }
    }
}
