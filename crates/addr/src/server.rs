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

/// The routing of one retired range.
struct RetiredRange {
    base: Addr,
    /// One past the range's last address.
    end: Addr,
    /// `(from, oid, to)`, sorted by `from`, one per from-address.
    routes: Vec<(Addr, Oid, Addr)>,
    /// The release clock's value when the server released the range; `None`
    /// while its retire round is still running.
    released: Option<u64>,
}

/// One node's latest sweep of the released ranges: what the reclamation
/// rule ([`SegmentServer::note_sweep`]) reads. Indexed by node id, `sent`
/// and `applied` cover every node of the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sweep {
    /// The release clock when the sweep began: it rewrote references into
    /// every range released at or before this value.
    pub seen: u64,
    /// Per destination node, the sequence number of the last envelope the
    /// node had sent on that link before the sweep.
    pub sent: Vec<u64>,
    /// Per source node, the highest sequence number the node had applied
    /// from that link before the sweep.
    pub applied: Vec<u64>,
    /// Whether a checkpoint taken since holds the swept state (always, with
    /// persistence off: a restart then comes back with nothing).
    pub durable: bool,
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
    /// protocol, one table per range, sorted by base. Nodes drop their
    /// forwarding knowledge when a range is released (Section 4.5); a
    /// mutator still holding a pre-collection pointer resolves it here (the
    /// stand-in for the original system's address-keyed routing, like the
    /// header fetch in `oid_at`) until the range's grace has passed and
    /// its routes are reclaimed ([`SegmentServer::note_sweep`]).
    retired: Vec<RetiredRange>,
    /// Routes in all of `retired`.
    retired_routes: usize,
    /// The release clock: one tick per [`SegmentServer::release_segments`].
    releases: u64,
    /// Per node, its latest sweep, if it still counts.
    sweeps: Vec<Option<Sweep>>,
    /// Nodes down or recovering: no route is reclaimed while there is one.
    unsettled: BTreeSet<NodeId>,
    /// Which nodes have each bunch mapped: where a collection's
    /// reachability reports and retire requests go. Kept here because the
    /// server is what every node can ask (paper, Section 8).
    mappings: BTreeMap<BunchId, BTreeSet<NodeId>>,
    /// Which nodes have stored a pointer into each bunch without mapping
    /// it: every retire round of the bunch reaches them.
    referrers: BTreeMap<BunchId, BTreeSet<NodeId>>,
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
            releases: 0,
            sweeps: Vec::new(),
            unsettled: BTreeSet::new(),
            mappings: BTreeMap::new(),
            referrers: BTreeMap::new(),
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
                    end: base.add_words(words),
                    routes: Vec::new(),
                    released: None,
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
    /// an unknown address. The ranges' routing enters the grace set: it
    /// serves a held pre-collection pointer until every node has swept its
    /// references out of them ([`SegmentServer::note_sweep`]). Unknown ids
    /// are ignored (a retire round may be replayed).
    pub fn release_segments(&mut self, ids: &[SegmentId]) {
        self.releases += 1;
        for id in ids {
            let Some(info) = self.segments.remove(id) else {
                continue;
            };
            self.by_base.remove(&info.base.0);
            if let Some(b) = self.bunches.get_mut(&info.bunch) {
                b.segments.retain(|s| s != id);
            }
            let at = self.retired.partition_point(|r| r.base < info.base);
            if let Some(r) = self.retired.get_mut(at).filter(|r| r.base == info.base) {
                r.released.get_or_insert(self.releases);
            }
        }
    }

    /// The release clock: a sweep that starts now covers every range
    /// released so far.
    pub fn release_clock(&self) -> u64 {
        self.releases
    }

    /// Records `node`'s latest sweep, then reclaims every route whose grace
    /// has provably passed. A range released at clock *e* loses its routes
    /// once the latest sweeps of all nodes form a cut that no reference
    /// into it can cross:
    ///
    /// * every node's sweep began at clock ≥ *e*, and is durable;
    /// * on every link `s -> r`, `r` had applied, before its sweep,
    ///   everything `s` had sent before its own (`applied[s] ≥ sent[r]`):
    ///   an envelope that left `s` holding an address from before its sweep
    ///   reached `r` before `r` swept;
    /// * no node is down or recovering.
    ///
    /// After such a cut no node holds a reference into the range, and none
    /// can receive one: whatever arrives after a sweep left its sender after
    /// the sender's. Otherwise the routes stay.
    pub fn note_sweep(&mut self, node: NodeId, sweep: Sweep) {
        let n = self
            .sweeps
            .len()
            .max(sweep.sent.len())
            .max(node.0 as usize + 1);
        self.sweeps.resize(n, None);
        self.sweeps[node.0 as usize] = Some(sweep);
        self.reclaim();
    }

    /// Releases since `node`'s latest counted sweep began; `None` if none
    /// counts.
    pub fn sweep_lag(&self, node: NodeId) -> Option<u64> {
        let sweep = self.sweeps.get(node.0 as usize)?.as_ref()?;
        Some(self.releases - sweep.seen)
    }

    /// `node` checkpointed: its latest sweep now survives a restart.
    pub fn note_checkpoint(&mut self, node: NodeId) {
        if let Some(Some(s)) = self.sweeps.get_mut(node.0 as usize) {
            s.durable = true;
            self.reclaim();
        }
    }

    /// `node` took in state from outside the message plane (a mapped
    /// image): its latest sweep no longer vouches for it.
    pub fn forget_sweep(&mut self, node: NodeId) {
        if let Some(s) = self.sweeps.get_mut(node.0 as usize) {
            *s = None;
        }
    }

    /// `node` crashed: nothing is reclaimed until it has recovered, and no
    /// sweep taken before counts (its links' watermarks restart).
    pub fn node_down(&mut self, node: NodeId) {
        self.unsettled.insert(node);
        self.sweeps.iter_mut().for_each(|s| *s = None);
    }

    /// `node` finished recovering.
    pub fn node_settled(&mut self, node: NodeId) {
        self.unsettled.remove(&node);
    }

    /// Whether `node` is neither down nor recovering, as far as the server
    /// has been told.
    pub fn is_settled(&self, node: NodeId) -> bool {
        !self.unsettled.contains(&node)
    }

    /// `[base, end)` of every released range whose routes the server still
    /// keeps (the grace set), by base.
    pub fn released_ranges(&self) -> Vec<(Addr, Addr)> {
        self.retired
            .iter()
            .filter(|r| r.released.is_some())
            .map(|r| (r.base, r.end))
            .collect()
    }

    /// Routes the server keeps, released or not.
    pub fn route_count(&self) -> usize {
        self.retired_routes
    }

    /// Drops the routes of every range the latest sweeps prove unreferenced
    /// (see [`SegmentServer::note_sweep`]).
    fn reclaim(&mut self) {
        if !self.unsettled.is_empty() || !self.retired.iter().any(|r| r.released.is_some()) {
            return;
        }
        let n = self.sweeps.len();
        let mut seen = u64::MAX;
        for r in 0..n {
            let Some(sweep) = self.sweeps[r].as_ref().filter(|s| s.durable) else {
                return;
            };
            seen = seen.min(sweep.seen);
            for s in (0..n).filter(|&s| s != r) {
                let applied = sweep.applied.get(s).copied().unwrap_or(0);
                let sent = self.sweeps[s]
                    .as_ref()
                    .and_then(|from| from.sent.get(r).copied())
                    .unwrap_or(u64::MAX);
                if applied < sent {
                    return;
                }
            }
        }
        let dropped = &mut self.retired_routes;
        self.retired.retain(|range| {
            let gone = matches!(range.released, Some(e) if e <= seen);
            if gone {
                *dropped -= range.routes.len();
            }
            !gone
        });
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

    /// Records that `node` stored a pointer into `bunch`, which it does not
    /// map.
    pub fn note_referrer(&mut self, bunch: BunchId, node: NodeId) {
        self.referrers.entry(bunch).or_default().insert(node);
    }

    /// Whether `node` ever stored a pointer into `bunch` without mapping it.
    pub fn is_referrer(&self, bunch: BunchId, node: NodeId) -> bool {
        self.referrers
            .get(&bunch)
            .is_some_and(|r| r.contains(&node))
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

    /// Follows the routes of retired ranges from `addr` to the youngest
    /// address they lead to: the object and that address. The chain crosses
    /// every retired range, retiring or released, so it spans the
    /// generations of reuse a to-space later retired in turn. `None` for an
    /// address no route leaves (never retired, or an object dead when its
    /// range retired).
    ///
    /// # Panics
    ///
    /// Panics on a routing cycle: a chain follows each route at most once.
    pub fn route(&self, addr: Addr) -> Option<(Oid, Addr)> {
        let mut found: Option<(Oid, Addr)> = None;
        for hops in 0.. {
            assert!(
                hops <= self.retired_routes,
                "retired-range routing cycle at {addr}"
            );
            let from = found.map_or(addr, |(_, to)| to);
            let Some(range) = self
                .retired
                .partition_point(|r| r.base <= from)
                .checked_sub(1)
                .map(|at| &self.retired[at])
                .filter(|r| from < r.end)
            else {
                break;
            };
            let Ok(i) = range.routes.binary_search_by_key(&from, |&(f, ..)| f) else {
                break;
            };
            found = Some((range.routes[i].1, range.routes[i].2));
        }
        found
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
        assert_eq!(srv.route(gens[0].base), Some((Oid(7), gens[100].base)));
        assert_eq!(srv.bunch_of(gens[100].base), Some(b));
    }

    /// The reclamation rule of `note_sweep`, on two nodes and one released
    /// range: the routes go only when both sweeps began after the release,
    /// both are durable, neither node is down, and on each link the
    /// receiver had applied what the sender had sent before sweeping.
    #[test]
    fn routes_go_once_the_latest_sweeps_form_a_cut() {
        let mut srv = SegmentServer::new(64);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let (from, to) = (srv.alloc_segment(b).unwrap(), srv.alloc_segment(b).unwrap());
        srv.note_retired(from.base, 64, [(Oid(1), from.base, to.base)]);
        srv.release_segments(&[from.id]);
        let e = srv.release_clock();
        let sweep = |seen, sent: [u64; 2], applied: [u64; 2], durable| Sweep {
            seen,
            sent: sent.to_vec(),
            applied: applied.to_vec(),
            durable,
        };
        let (n0, n1) = (NodeId(0), NodeId(1));
        let routed = |srv: &SegmentServer| srv.route(from.base).is_some();
        srv.note_sweep(n0, sweep(e - 1, [0, 5], [0, 3], true));
        srv.note_sweep(n1, sweep(e, [3, 0], [5, 0], true));
        assert!(routed(&srv), "n0's sweep predates the release");
        srv.note_sweep(n0, sweep(e, [0, 6], [0, 3], true));
        assert!(routed(&srv), "n1 has not applied n0's sixth envelope");
        srv.note_sweep(n1, sweep(e, [3, 0], [6, 0], false));
        assert!(routed(&srv), "n1's sweep is not durable yet");
        srv.node_down(n0);
        srv.note_sweep(n0, sweep(e, [0, 6], [0, 3], true));
        srv.note_sweep(n1, sweep(e, [3, 0], [6, 0], true));
        assert!(routed(&srv), "n0 is recovering");
        srv.node_settled(n0);
        srv.note_checkpoint(n1);
        assert!(!routed(&srv), "the cut holds");
        assert_eq!(srv.route_count(), 0);
    }

    #[test]
    #[should_panic(expected = "retired-range routing cycle")]
    fn a_routing_cycle_is_detected() {
        let mut srv = SegmentServer::new(64);
        let (a, b) = (Addr(FIRST_BASE), Addr(FIRST_BASE + 64 * 8));
        srv.note_retired(a, 64, [(Oid(1), a, b)]);
        srv.note_retired(b, 64, [(Oid(1), b, a)]);
        srv.route(a);
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
                        srv.route(a),
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
