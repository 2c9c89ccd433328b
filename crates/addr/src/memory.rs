//! A node's view of the single address space.
//!
//! Every node maps some subset of the world's segments into local backing
//! memory. Replicas of a segment occupy the *same* addresses on every node
//! (single address space); their contents may diverge — that is exactly the
//! weak consistency the collector is designed to tolerate.
//!
//! Along with the words, each mapped segment carries the two GC bit arrays of
//! the paper's Section 8: the *object-map* (set bit = an object header starts
//! at this word) and the *reference-map* (set bit = this word holds a
//! pointer), plus the local bump-allocation cursor.

use std::cell::Cell;

use bmx_common::{Addr, Bitmap, BmxError, NodeId, Result, SegmentId};

use crate::server::SegmentInfo;

/// One locally mapped segment replica.
#[derive(Clone)]
pub struct MappedSegment {
    /// The global descriptor (id, base, length, bunch).
    pub info: SegmentInfo,
    /// Backing words.
    pub words: Vec<u64>,
    /// Object-map: set bit = object header starts at this word offset.
    pub object_map: Bitmap,
    /// Reference-map: set bit = this word offset holds a pointer.
    pub ref_map: Bitmap,
    /// Bump-allocation cursor, in words from the segment base.
    pub alloc_cursor: u64,
    /// Mark-map: set bit = the collection in progress found the object
    /// whose header starts at this word offset live (at its final address).
    /// Scratch state of one collection, cleared when the next one starts;
    /// never shipped or persisted.
    pub mark_map: Bitmap,
}

impl MappedSegment {
    /// Creates an empty (all-zero) mapping of `info`.
    pub fn new(info: SegmentInfo) -> Self {
        let n = info.words as usize;
        MappedSegment {
            info,
            words: vec![0; n],
            object_map: Bitmap::new(n),
            ref_map: Bitmap::new(n),
            alloc_cursor: 0,
            mark_map: Bitmap::new(n),
        }
    }

    /// Words still available for bump allocation.
    pub fn free_words(&self) -> u64 {
        self.info.words - self.alloc_cursor
    }

    /// Word offsets of every object header in this segment, ascending.
    pub fn object_offsets(&self) -> Vec<u64> {
        self.object_map.iter_ones().map(|i| i as u64).collect()
    }
}

/// A transferable snapshot of a mapped segment (used when a second node maps
/// an already-mapped bunch: the image travels as DSM traffic).
#[derive(Clone)]
pub struct SegmentImage {
    /// The snapshot itself; [`SegmentImage::install`] re-creates a mapping.
    pub segment: MappedSegment,
}

impl SegmentImage {
    /// Approximate wire size in bytes, for network accounting.
    pub fn wire_size(&self) -> u64 {
        // Words + two bitmaps (1/64th each) + descriptor.
        let words = self.segment.info.words;
        words * 8 + words / 4 + 64
    }

    /// Installs the image into `mem`, replacing any existing mapping.
    pub fn install(self, mem: &mut NodeMemory) {
        mem.install_segment(self.segment);
    }
}

/// The set of segments mapped on one node.
///
/// `Send`, and deliberately `!Sync`: address resolution remembers where it
/// last hit in a [`Cell`], which a node's one owner (its site lock, or the
/// single-threaded sim) may do through `&self` and two threads may not.
pub struct NodeMemory {
    node: NodeId,
    /// Ascending by base address (ranges never overlap).
    segs: Vec<MappedSegment>,
    /// Index of the segment the last lookup answered from. A hint only:
    /// every use re-checks the entry it names, so a stale or out-of-range
    /// value after a map or unmap costs one miss, never a wrong answer.
    last: Cell<usize>,
}

impl NodeMemory {
    /// Creates an empty memory for `node`.
    pub fn new(node: NodeId) -> Self {
        NodeMemory {
            node,
            segs: Vec::new(),
            last: Cell::new(0),
        }
    }

    /// The owning node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Maps a fresh, zeroed replica of `info`.
    pub fn map_segment(&mut self, info: SegmentInfo) {
        self.install_segment(MappedSegment::new(info));
    }

    /// Installs a pre-populated segment replica (e.g. a received image),
    /// replacing any existing mapping of the segment.
    pub fn install_segment(&mut self, seg: MappedSegment) {
        let at = self.segs.partition_point(|s| s.info.base < seg.info.base);
        match self.segs.get_mut(at) {
            Some(old) if old.info.base == seg.info.base => *old = seg,
            _ => self.segs.insert(at, seg),
        }
    }

    /// Unmaps a segment, dropping the local replica.
    pub fn unmap_segment(&mut self, id: SegmentId) -> Result<MappedSegment> {
        let i = self.index_of(id)?;
        Ok(self.segs.remove(i))
    }

    /// Index in [`NodeMemory::segments`] of the mapped segment `id`.
    fn index_of(&self, id: SegmentId) -> Result<usize> {
        let hint = self.last.get();
        if self.segs.get(hint).is_some_and(|s| s.info.id == id) {
            return Ok(hint);
        }
        let found = self.segs.iter().position(|s| s.info.id == id);
        let i = found.ok_or(BmxError::NoSuchSegment(id))?;
        self.last.set(i);
        Ok(i)
    }

    /// Returns `true` if the segment is mapped locally.
    pub fn has_segment(&self, id: SegmentId) -> bool {
        self.index_of(id).is_ok()
    }

    /// Returns `true` if `addr` falls in a locally mapped segment.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.position(addr).is_ok()
    }

    /// Borrows the mapped segment with the given id.
    pub fn segment(&self, id: SegmentId) -> Result<&MappedSegment> {
        Ok(&self.segs[self.index_of(id)?])
    }

    /// Mutably borrows the mapped segment with the given id.
    pub fn segment_mut(&mut self, id: SegmentId) -> Result<&mut MappedSegment> {
        let i = self.index_of(id)?;
        Ok(&mut self.segs[i])
    }

    /// Ids of all locally mapped segments, ascending by base address.
    pub fn mapped_segments(&self) -> Vec<SegmentId> {
        self.segs.iter().map(|s| s.info.id).collect()
    }

    /// The locally mapped segments, ascending by base address.
    pub fn segments(&self) -> &[MappedSegment] {
        &self.segs
    }

    /// The locally mapped segments, mutably, ascending by base address.
    pub fn segments_mut(&mut self) -> &mut [MappedSegment] {
        &mut self.segs
    }

    /// Resolves an address to the index in [`NodeMemory::segments`] of the
    /// segment mapping it and the word offset in that segment. The index
    /// is good until the next map or unmap.
    pub fn position(&self, addr: Addr) -> Result<(usize, usize)> {
        let unmapped = || BmxError::Unmapped {
            node: self.node,
            addr,
        };
        if addr.is_null() || !addr.is_aligned() {
            return Err(unmapped());
        }
        let mut i = self.last.get();
        if !self.segs.get(i).is_some_and(|s| s.info.contains(addr)) {
            i = self
                .segs
                .partition_point(|s| s.info.base <= addr)
                .checked_sub(1)
                .filter(|&i| self.segs[i].info.contains(addr))
                .ok_or_else(unmapped)?;
            self.last.set(i);
        }
        Ok((i, addr.words_from(self.segs[i].info.base) as usize))
    }

    /// Resolves an address to its mapped segment and word offset.
    pub fn resolve(&self, addr: Addr) -> Result<(&MappedSegment, u64)> {
        let (i, off) = self.position(addr)?;
        Ok((&self.segs[i], off as u64))
    }

    /// Resolves an address to its mapped segment (mutably) and word offset.
    pub fn resolve_mut(&mut self, addr: Addr) -> Result<(&mut MappedSegment, u64)> {
        let (i, off) = self.position(addr)?;
        Ok((&mut self.segs[i], off as u64))
    }

    /// Reads the word at `addr`.
    pub fn read_word(&self, addr: Addr) -> Result<u64> {
        let (seg, off) = self.resolve(addr)?;
        Ok(seg.words[off as usize])
    }

    /// Writes the word at `addr`.
    pub fn write_word(&mut self, addr: Addr, value: u64) -> Result<()> {
        let (seg, off) = self.resolve_mut(addr)?;
        seg.words[off as usize] = value;
        Ok(())
    }

    /// Takes a transferable snapshot of a mapped segment.
    pub fn image(&self, id: SegmentId) -> Result<SegmentImage> {
        Ok(SegmentImage {
            segment: self.segment(id)?.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Protection, SegmentServer};

    fn setup() -> (SegmentServer, NodeMemory, SegmentInfo) {
        let mut srv = SegmentServer::new(64);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let info = srv.alloc_segment(b).unwrap();
        let mut mem = NodeMemory::new(NodeId(0));
        mem.map_segment(info);
        (srv, mem, info)
    }

    #[test]
    fn read_write_round_trip() {
        let (_, mut mem, info) = setup();
        let a = info.base.add_words(3);
        mem.write_word(a, 0xDEAD_BEEF).unwrap();
        assert_eq!(mem.read_word(a).unwrap(), 0xDEAD_BEEF);
        assert_eq!(mem.read_word(info.base).unwrap(), 0);
    }

    #[test]
    fn unmapped_and_null_and_unaligned_fail() {
        let (_, mem, info) = setup();
        assert!(matches!(
            mem.read_word(Addr::NULL),
            Err(BmxError::Unmapped { .. })
        ));
        assert!(mem.read_word(Addr(info.base.0 + 1)).is_err());
        assert!(mem.read_word(info.base.add_words(64)).is_err());
        assert!(mem.read_word(Addr(info.base.0 - 8)).is_err());
    }

    #[test]
    fn images_transfer_contents_between_nodes() {
        let (_, mut mem1, info) = setup();
        let a = info.base.add_words(5);
        mem1.write_word(a, 42).unwrap();
        mem1.segment_mut(info.id).unwrap().object_map.set(5);
        mem1.segment_mut(info.id).unwrap().alloc_cursor = 9;

        let mut mem2 = NodeMemory::new(NodeId(1));
        mem1.image(info.id).unwrap().install(&mut mem2);
        assert_eq!(mem2.read_word(a).unwrap(), 42);
        assert!(mem2.segment(info.id).unwrap().object_map.get(5));
        assert_eq!(mem2.segment(info.id).unwrap().alloc_cursor, 9);
    }

    #[test]
    fn replicas_occupy_same_addresses_but_diverge() {
        let (_, mut mem1, info) = setup();
        let mut mem2 = NodeMemory::new(NodeId(1));
        mem2.map_segment(info);
        let a = info.base.add_words(2);
        mem1.write_word(a, 7).unwrap();
        mem2.write_word(a, 8).unwrap();
        assert_eq!(mem1.read_word(a).unwrap(), 7);
        assert_eq!(mem2.read_word(a).unwrap(), 8);
    }

    #[test]
    fn unmap_then_access_fails() {
        let (_, mut mem, info) = setup();
        let seg = mem.unmap_segment(info.id).unwrap();
        assert_eq!(seg.info.id, info.id);
        assert!(mem.read_word(info.base).is_err());
        assert!(!mem.has_segment(info.id));
        assert!(mem.unmap_segment(info.id).is_err());
    }

    #[test]
    fn resolution_with_multiple_segments() {
        let mut srv = SegmentServer::new(16);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let s1 = srv.alloc_segment(b).unwrap();
        let s2 = srv.alloc_segment(b).unwrap();
        let s3 = srv.alloc_segment(b).unwrap();
        let mut mem = NodeMemory::new(NodeId(0));
        mem.map_segment(s1);
        mem.map_segment(s3);
        // s2 not mapped: its addresses must not resolve to s1.
        assert!(mem.read_word(s2.base).is_err());
        assert!(mem.read_word(s1.base.add_words(15)).is_ok());
        assert!(mem.read_word(s3.base).is_ok());
        assert_eq!(mem.mapped_segments(), vec![s1.id, s3.id]);
    }

    /// `NodeMemory` against the `BTreeMap` it replaced, over seeded random
    /// map / install / unmap / resolve / `segment(id)` sequences. The
    /// last-hit index is exercised on purpose: lookups repeat the previous
    /// address and id half the time, and every map or unmap in between
    /// shifts positions under it.
    #[test]
    fn matches_a_btreemap_model_over_random_sequences() {
        use bmx_common::SplitMix64;
        use std::collections::BTreeMap;

        const WORDS: u64 = 16;
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut srv = SegmentServer::new(WORDS);
            let b = srv.create_bunch(NodeId(0), Protection::default());
            let pool: Vec<SegmentInfo> = (0..12).map(|_| srv.alloc_segment(b).unwrap()).collect();
            let mut mem = NodeMemory::new(NodeId(0));
            // base -> (id, word 0), the shape of the old `by_base`.
            let mut model: BTreeMap<u64, (SegmentId, u64)> = BTreeMap::new();
            let (mut last_addr, mut last_id) = (pool[0].base, pool[0].id);
            for step in 0..400u64 {
                let info = pool[rng.next_below(pool.len() as u64) as usize];
                match rng.next_below(8) {
                    0 => {
                        mem.map_segment(info);
                        model.insert(info.base.0, (info.id, 0));
                    }
                    1 => {
                        let mut seg = MappedSegment::new(info);
                        seg.words[0] = step;
                        mem.install_segment(seg);
                        model.insert(info.base.0, (info.id, step));
                    }
                    2 => {
                        let want = model.remove(&info.base.0);
                        let got = mem.unmap_segment(info.id).ok();
                        assert_eq!(got.map(|s| (s.info.id, s.words[0])), want);
                    }
                    3..=5 => {
                        // An address in, between, before or past the pool,
                        // sometimes unaligned or null; or the last one again.
                        let addr = match rng.next_below(8) {
                            0..=3 => last_addr,
                            4 => Addr(rng.next_below(8)),
                            5 => Addr(info.base.0 + rng.next_below(WORDS * 8)),
                            _ => Addr(pool[0].base.0 - 64 + 8 * rng.next_below(14 * WORDS)),
                        };
                        last_addr = addr;
                        let want = model
                            .range(..=addr.0)
                            .next_back()
                            .filter(|(&base, _)| {
                                !addr.is_null()
                                    && addr.is_aligned()
                                    && addr.in_range(Addr(base), WORDS)
                            })
                            .map(|(&base, &(id, w))| (id, w, (addr.0 - base) / 8));
                        let got = mem.resolve(addr).ok();
                        assert_eq!(got.map(|(s, off)| (s.info.id, s.words[0], off)), want);
                        assert_eq!(mem.is_mapped(addr), want.is_some());
                        let at = mem.position(addr).ok();
                        assert_eq!(
                            at.map(|(i, off)| (mem.segments()[i].info.id, off as u64)),
                            want.map(|(id, _, off)| (id, off))
                        );
                    }
                    _ => {
                        let id = if rng.next_below(2) == 0 {
                            last_id
                        } else {
                            info.id
                        };
                        last_id = id;
                        let want = model
                            .values()
                            .find(|&&(i, _)| i == id)
                            .map(|&(i, w)| (i, w));
                        let got = mem.segment(id).ok().map(|s| (s.info.id, s.words[0]));
                        assert_eq!(got, want, "seed {seed} step {step}");
                        assert_eq!(mem.has_segment(id), want.is_some());
                        assert_eq!(mem.segment_mut(id).is_ok(), want.is_some());
                    }
                }
                let ids: Vec<SegmentId> = model.values().map(|&(id, _)| id).collect();
                assert_eq!(mem.mapped_segments(), ids, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn free_words_tracks_cursor() {
        let (_, mut mem, info) = setup();
        let seg = mem.segment_mut(info.id).unwrap();
        assert_eq!(seg.free_words(), 64);
        seg.alloc_cursor = 10;
        assert_eq!(seg.free_words(), 54);
    }
}
