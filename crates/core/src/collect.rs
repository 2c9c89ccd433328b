//! The bunch garbage collector — and, run over a group, the group collector.
//!
//! One invocation of [`collect`] collects the local replica of every bunch
//! in `group` at one node, independently of every other node (paper,
//! Sections 4 and 7). It is [`IncrementalBgc`] run to completion in one
//! call; the steps below are that collector's, and this module holds the
//! work each does. The algorithm:
//!
//! 1. **Roots** — the mutator stack, the inter-bunch scions whose source
//!    bunch lies *outside* the group (this exclusion is what lets the group
//!    collector reclaim intra-group inter-bunch cycles, Section 7), the
//!    intra-bunch scions, and the entering ownerPtrs.
//! 2. **Trace** — strong roots first, then intra-bunch-scion roots; objects
//!    reachable only from the latter are preserved but publish no exiting
//!    ownerPtr, which is the cycle-breaking rule of Section 6.2.
//! 3. **Copy/scan** — a locally *owned* live object is copied to to-space
//!    and a forwarding pointer is written into its from-space header; this
//!    is purely local, no token is acquired (Section 4.2). A non-owned live
//!    object — whose replica may be inconsistent — is merely scanned in
//!    place: scanning stale data is safe because it can only make
//!    reachability more conservative.
//! 4. **Local reference update** — every live object's pointer fields, the
//!    mutator roots, and the scion target addresses are rewritten through
//!    the local forwarding knowledge, again without tokens (Section 4.4).
//!    Remote replicas are *not* touched: their updates travel lazily as
//!    piggy-backed relocation records.
//! 5. **Table regeneration** (Section 4.3) — a new stub table (inter-bunch
//!    stubs whose source object is live and still holds the reference;
//!    intra-bunch stubs whose object is live locally) and a new
//!    exiting-ownerPtr list (live, non-owned, strongly reachable replicas).
//! 6. **Reclamation & publish** — dead local replicas are dropped, the
//!    spaces swap, and the reachability report goes out to every node that
//!    has the bunch mapped or holds scions matched by the old or new stub
//!    table.

use std::collections::{BTreeMap, BTreeSet};

use bmx_addr::object::{self, CopyBuf};
use bmx_addr::NodeMemory;
use bmx_common::WORD_BYTES;
use bmx_common::{Addr, BmxError, BunchId, NodeId, NodeStats, Oid, Result, SegmentId, StatKind};
use bmx_dsm::{DsmEngine, GcIntegration, Relocation};
use bmx_metrics::{self as metrics, Ctr, Gge, Hst};
use bmx_profile::{self as profile, SpanKind};
use bmx_trace::{self as trace, SspKind, TraceEvent};

use crate::incremental::IncrementalBgc;
use crate::msg::ReachabilityReport;
use crate::ssp::InterStub;
use crate::state::GcState;

/// Counters from one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Locally owned live objects copied to to-space.
    pub copied: u64,
    /// Words copied (headers included).
    pub copied_words: u64,
    /// Non-owned live objects scanned in place.
    pub scanned: u64,
    /// Dead local replicas reclaimed.
    pub reclaimed: u64,
    /// Words of dead replicas reclaimed.
    pub reclaimed_words: u64,
    /// Live objects found (copied + scanned).
    pub live: u64,
}

/// Result of one collection.
pub struct CollectOutcome {
    /// Reachability reports, one per collected bunch, with the remote
    /// destinations each must reach. The local scion cleaner must process
    /// each report too (scions for locally mapped target bunches live on
    /// this same node).
    pub reports: Vec<(Vec<NodeId>, ReachabilityReport)>,
    /// Local replicas that died: the caller drops their DSM replica
    /// records. (The collector takes the engine immutably so that "the GC
    /// cannot drive the protocol" is structural, not just discipline.)
    pub dead: Vec<Oid>,
    /// Collection counters.
    pub stats: CollectStats,
}

#[derive(Clone, Copy)]
pub(crate) struct LiveObj {
    /// Final (post-copy) address.
    pub(crate) addr: Addr,
    pub(crate) oid: Oid,
    pub(crate) bunch: BunchId,
    pub(crate) owned: bool,
    pub(crate) strong: bool,
}

pub(crate) struct InterRef {
    source_oid: Oid,
    target: Addr,
}

/// The persistent working state of a collection — separated from the
/// borrows so the incremental collector can keep it alive across bounded
/// work increments (see [`crate::incremental`]).
pub(crate) struct TraceCore {
    pub(crate) group: BTreeSet<BunchId>,
    pub(crate) to_segs: BTreeMap<BunchId, Vec<SegmentId>>,
    /// Live objects in discovery order. *Whether* an address is live is
    /// the mark bit at its final address (`MappedSegment::mark_map`), so
    /// the trace pays no ordered-set insert per object.
    pub(crate) live: Vec<LiveObj>,
    /// Index into `live` of the objects found only through an intra-bunch
    /// scion so far — the few the incremental collector may have to
    /// upgrade to strong.
    pub(crate) weak: BTreeMap<Addr, usize>,
    pub(crate) inter_refs: Vec<InterRef>,
    /// This run's copies, with the bunch each belongs to.
    pub(crate) new_relocs: Vec<(BunchId, Relocation)>,
    copy_buf: CopyBuf,
    pub(crate) dead_oids: Vec<Oid>,
    pub(crate) out: CollectStats,
    /// Live words per bunch (headers included), for the per-bunch
    /// live-bytes metric. Maintained only while metrics are enabled.
    pub(crate) live_words_by_bunch: BTreeMap<BunchId, u64>,
}

impl TraceCore {
    /// Fresh working state for a collection of `group`.
    pub(crate) fn new(group: &[BunchId]) -> TraceCore {
        TraceCore {
            group: group.iter().copied().collect(),
            to_segs: BTreeMap::new(),
            live: Vec::new(),
            weak: BTreeMap::new(),
            inter_refs: Vec::new(),
            new_relocs: Vec::new(),
            copy_buf: CopyBuf::default(),
            dead_oids: Vec::new(),
            out: CollectStats::default(),
            live_words_by_bunch: BTreeMap::new(),
        }
    }
}

/// Stopwatch for the per-phase / whole-pause metrics and the profiler's
/// BGC phase spans. Inert (no clock reads at all) when both planes are
/// disabled; the readings feed only observability, never the
/// simulation, so determinism is untouched.
pub(crate) struct PhaseClock {
    /// Since when the mutator has been stopped, if this call ends in the
    /// flip.
    pause_from: Option<std::time::Instant>,
    last: Option<std::time::Instant>,
    /// The previous lap's end on the profiler clock, µs since its epoch.
    last_us: u64,
}

/// The profiler span a phase counter corresponds to, for runs profiled
/// under real threads (the counters alone cannot show *when* a phase
/// ran relative to the acquires it paused).
fn phase_span(ctr: Ctr) -> Option<SpanKind> {
    match ctr {
        Ctr::BgcRootsMicros => Some(SpanKind::BgcRoots),
        Ctr::BgcTraceMicros => Some(SpanKind::BgcTrace),
        Ctr::BgcUpdateMicros => Some(SpanKind::BgcUpdate),
        Ctr::BgcSweepMicros => Some(SpanKind::BgcSweep),
        Ctr::BgcPublishMicros => Some(SpanKind::BgcPublish),
        _ => None,
    }
}

impl PhaseClock {
    pub(crate) fn start() -> PhaseClock {
        let now = (metrics::enabled() || profile::enabled()).then(std::time::Instant::now);
        PhaseClock {
            pause_from: now,
            last: now,
            last_us: profile::now_us(),
        }
    }

    /// The collector is entered again after the mutator ran: the time since
    /// the previous lap is no phase's.
    pub(crate) fn resume(&mut self) {
        if self.last.is_some() {
            self.last = Some(std::time::Instant::now());
            self.last_us = profile::now_us();
        }
    }

    /// [`PhaseClock::resume`], and whatever pause follows starts here too.
    pub(crate) fn pause_from_now(&mut self) {
        self.resume();
        self.pause_from = self.last;
    }

    /// Credits the time since the previous lap to `ctr` (and, when
    /// profiling, records the lap as that phase's span).
    pub(crate) fn lap(&mut self, node: NodeId, ctr: Ctr) {
        if let Some(prev) = self.last {
            let now = std::time::Instant::now();
            let us = now.duration_since(prev).as_micros() as u64;
            metrics::add(node, ctr, us);
            if profile::enabled() {
                if let Some(kind) = phase_span(ctr) {
                    profile::record(kind, node, self.last_us, us);
                }
                self.last_us = profile::now_us();
            }
            self.last = Some(now);
        }
    }

    /// Records the time the mutator was stopped as one collection pause:
    /// the whole collection if it ran in one call, else its flip.
    pub(crate) fn finish(&self, node: NodeId) {
        if let Some(start) = self.pause_from {
            metrics::observe(
                node,
                Hst::BgcPauseMicros,
                start.elapsed().as_micros() as u64,
            );
            metrics::bump(node, Ctr::BgcCollections);
        }
    }
}

/// Re-derives `node`'s drain-watched gauges (from-space retention, scion
/// and stub table sizes) from the GC state. Called after every event that
/// can move them: a collection's publish, a reuse-protocol drain, a
/// cleaner cut. No-op when metrics are disabled.
pub fn refresh_node_gauges(gc: &GcState, node: NodeId) {
    if !metrics::enabled() {
        return;
    }
    let seg_words = gc.server.borrow().segment_words();
    let mut from_words = 0u64;
    let mut scions = 0u64;
    let mut stubs = 0u64;
    for brs in gc.node(node).bunches.values() {
        from_words += brs.pending_from.len() as u64 * seg_words;
        scions += (brs.scion_table.inter().len() + brs.scion_table.intra().len()) as u64;
        stubs += (brs.stub_table.inter().len() + brs.stub_table.intra().len()) as u64;
    }
    metrics::gauge_set(node, Gge::FromSpaceRetainedWords, from_words);
    metrics::gauge_set(node, Gge::ScionTableSize, scions);
    metrics::gauge_set(node, Gge::StubTableSize, stubs);
}

/// Whether the collection in progress already found the object at `addr`
/// live.
pub(crate) fn is_marked(mem: &NodeMemory, addr: Addr) -> bool {
    mem.resolve(addr)
        .is_ok_and(|(seg, off)| seg.mark_map.get(off as usize))
}

pub(crate) struct Ctx<'a> {
    pub(crate) gc: &'a mut GcState,
    pub(crate) engine: &'a DsmEngine,
    pub(crate) mem: &'a mut NodeMemory,
    pub(crate) stats: &'a mut NodeStats,
    pub(crate) node: NodeId,
    pub(crate) core: &'a mut TraceCore,
}

/// Collects the local replicas of `group` at `node`.
///
/// With a single-bunch group this is the paper's BGC; with the set of all
/// locally mapped bunches it is the GGC under the locality heuristic.
/// The collector never acquires a token: it takes the DSM engine immutably.
/// This is the incremental collector with no mutator between its steps,
/// so the whole call is the pause.
pub fn collect(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    group: &[BunchId],
) -> Result<CollectOutcome> {
    let mut inc = IncrementalBgc::start(gc, engine, mem, stats, node, group)?;
    if let Err(e) = inc.step(gc, engine, mem, stats, usize::MAX) {
        inc.abort(gc);
        return Err(e);
    }
    inc.finish(gc, engine, mem, stats)
}

impl Ctx<'_> {
    fn resolve(&self, addr: Addr) -> Addr {
        self.gc.node(self.node).directory.resolve(addr)
    }

    fn in_group(&self, addr: Addr) -> Option<BunchId> {
        self.gc
            .local_bunch_of(self.mem, addr)
            .filter(|b| self.core.group.contains(b))
    }

    /// Clears the mark bits a previous collection left in the group's
    /// segments. Every collection starts here.
    pub(crate) fn clear_marks(&mut self) {
        for seg in self.mem.segments_mut() {
            if self.core.group.contains(&seg.info.bunch) {
                seg.mark_map.clear_all();
            }
        }
    }

    /// Roots per Section 4.1: mutator stacks, scions, entering ownerPtrs.
    pub(crate) fn gather_roots(&self) -> (Vec<Addr>, Vec<Addr>) {
        let ns = self.gc.node(self.node);
        let mut strong = Vec::new();
        let mut intra = Vec::new();
        for &addr in ns.roots.values() {
            if self.in_group(self.resolve(addr)).is_some() {
                strong.push(addr);
            }
        }
        for &b in &self.core.group {
            let Some(brs) = ns.bunch(b) else { continue };
            for s in brs.scion_table.inter() {
                // GGC rule: scions whose source bunch is inside the group do
                // not root — that is what lets intra-group cycles die.
                if !self.core.group.contains(&s.source_bunch) {
                    strong.push(s.target_addr);
                }
            }
            for s in brs.scion_table.intra() {
                if let Some(a) = ns.directory.addr_of(s.oid) {
                    intra.push(a);
                }
            }
        }
        for (oid, st) in self.engine.replicas(self.node) {
            if self.core.group.contains(&st.bunch) && !st.entering.is_empty() {
                if let Some(a) = ns.directory.addr_of(oid) {
                    strong.push(a);
                }
            }
        }
        (strong, intra)
    }

    /// Traces at most `budget` objects from `stack` (all of them when
    /// `budget` is `None`). Returns the number of objects processed; the
    /// stack retains the unprocessed remainder, which is what lets the
    /// incremental collector interleave with the mutator.
    pub(crate) fn trace_bounded(
        &mut self,
        stack: &mut Vec<Addr>,
        strong: bool,
        budget: Option<usize>,
    ) -> Result<usize> {
        let mut done = 0;
        while let Some(raw) = stack.pop() {
            if raw.is_null() {
                continue;
            }
            let addr = self.resolve(raw);
            // A root or field may point at something this replica has never
            // materialized (e.g. a scion for an object allocated remotely
            // after mapping). Treat as opaque: conservative, nothing to do
            // locally — the owner's replica keeps it alive there.
            let Ok((seg, off)) = self.mem.resolve(addr) else {
                continue;
            };
            let off = off as usize;
            if seg.mark_map.get(off) || !seg.object_map.get(off) {
                continue;
            }
            let view = object::view_at(seg, off);
            if view.is_forwarded() {
                // Header-level forwarding the directory did not know about
                // cannot normally happen (record_move maintains both), but
                // following it is the conservative move.
                stack.push(view.forwarding);
                continue;
            }
            let bunch = seg.info.bunch;
            if !self.core.group.contains(&bunch) {
                continue;
            }
            done += 1;
            let owned = self.engine.is_owner(self.node, view.oid);
            let final_addr = if owned {
                let dst = self.copy_object(bunch, addr, view.footprint())?;
                self.core.out.copied += 1;
                self.core.out.copied_words += view.footprint();
                self.stats.bump(StatKind::ObjectsCopied);
                self.stats.add(StatKind::WordsCopied, view.footprint());
                dst
            } else {
                self.core.out.scanned += 1;
                self.stats.bump(StatKind::ObjectsScanned);
                addr
            };
            self.core.out.live += 1;
            if metrics::enabled() {
                *self.core.live_words_by_bunch.entry(bunch).or_default() += view.footprint();
            }
            if !strong {
                self.core.weak.insert(final_addr, self.core.live.len());
            }
            self.core.live.push(LiveObj {
                addr: final_addr,
                oid: view.oid,
                bunch,
                owned,
                strong,
            });
            // Mark the final copy, then scan its pointer fields in place.
            let (seg, off) = self.mem.resolve_mut(final_addr)?;
            seg.mark_map.set(off as usize);
            let (gc, mem, core) = (&*self.gc, &*self.mem, &mut *self.core);
            let dir = &gc.node(self.node).directory;
            let (seg, off) = mem.resolve(final_addr)?;
            let copy = object::view_at(seg, off as usize);
            for (_, t) in object::refs_of(seg, &copy) {
                if t.is_null() {
                    continue;
                }
                let tr = dir.resolve(t);
                match gc.local_bunch_of(mem, tr) {
                    Some(tb) if core.group.contains(&tb) => stack.push(tr),
                    Some(_) => {
                        core.inter_refs.push(InterRef {
                            source_oid: view.oid,
                            target: tr,
                        });
                    }
                    None => {}
                }
            }
            if budget.is_some_and(|b| done >= b) {
                break;
            }
        }
        Ok(done)
    }

    /// Copies one locally owned object (`need` words, header included) to
    /// to-space and leaves a forwarding header. Strictly local: "this
    /// header modification ... does not imply acquiring the object's write
    /// token" (Section 4.2).
    fn copy_object(&mut self, bunch: BunchId, from: Addr, need: u64) -> Result<Addr> {
        let seg_id = self.target_seg_with_space(bunch, need)?;
        let dst = {
            let seg = self.mem.segment(seg_id)?;
            seg.info.base.add_words(seg.alloc_cursor)
        };
        let oid = object::copy_object(self.mem, from, dst, &mut self.core.copy_buf)?.oid;
        object::set_forwarding(self.mem, from, dst)?;
        self.gc
            .node_mut(self.node)
            .directory
            .record_move(oid, from, dst);
        trace::emit(self.node, TraceEvent::Relocate { oid, from, to: dst });
        self.core
            .new_relocs
            .push((bunch, Relocation { oid, from, to: dst }));
        Ok(dst)
    }

    fn target_seg_with_space(&mut self, bunch: BunchId, need: u64) -> Result<SegmentId> {
        if let Some(&last) = self.core.to_segs.get(&bunch).and_then(|v| v.last()) {
            if self.mem.segment(last)?.free_words() >= need {
                return Ok(last);
            }
        }
        let info = self.gc.server.borrow_mut().alloc_segment(bunch)?;
        if need > info.words {
            return Err(BmxError::OutOfMemory { bunch, words: need });
        }
        self.mem.map_segment(info);
        self.core.to_segs.entry(bunch).or_default().push(info.id);
        Ok(info.id)
    }

    /// Rewrites every live object's pointer fields, the mutator roots, and
    /// the scion addresses through the local forwarding knowledge.
    pub(crate) fn update_references(&mut self) -> Result<()> {
        let dir = &self.gc.node(self.node).directory;
        for l in &self.core.live {
            object::rewrite_refs(self.mem, l.addr, |t| dir.resolve(t))?;
        }
        let ns = self.gc.node_mut(self.node);
        let root_updates: Vec<(u64, Addr)> = ns
            .roots
            .iter()
            .map(|(&id, &a)| (id, a, ns.directory.resolve(a)))
            .filter(|&(_, a, r)| a != r)
            .map(|(id, _, r)| (id, r))
            .collect();
        for (id, r) in root_updates {
            ns.set_root(id, r);
        }
        for &b in &self.core.group {
            let Some(brs) = ns.bunches.get_mut(&b) else {
                continue;
            };
            for s in brs.scion_table.inter_mut() {
                s.target_addr = ns.directory.resolve(s.target_addr);
            }
        }
        Ok(())
    }

    /// Drops dead local replicas from the collected spaces.
    ///
    /// Sweeps every locally mapped segment of each collected bunch — the
    /// current space, the retired from-space, and *foreign* to-space
    /// segments that relocation records caused this node to map (replicas
    /// installed there die like any other) — except the to-space segments
    /// this very run created, which hold only live copies.
    pub(crate) fn sweep(&mut self) -> Result<()> {
        let ns = self.gc.node_mut(self.node);
        for seg in self.mem.segments_mut() {
            let fresh = self.core.to_segs.get(&seg.info.bunch);
            if !self.core.group.contains(&seg.info.bunch)
                || fresh.is_some_and(|f| f.contains(&seg.info.id))
            {
                continue;
            }
            let mut next = seg.object_map.next_one(0);
            while let Some(off) = next {
                next = seg.object_map.next_one(off + 1);
                let view = object::view_at(seg, off);
                if view.is_forwarded() || seg.mark_map.get(off) {
                    continue;
                }
                // Dead local replica.
                self.core.out.reclaimed += 1;
                self.core.out.reclaimed_words += view.footprint();
                self.stats.bump(StatKind::ObjectsReclaimed);
                self.stats.add(StatKind::WordsReclaimed, view.footprint());
                if ns.directory.addr_of(view.oid) == Some(view.addr) {
                    ns.directory.drop_oid(view.oid);
                }
                seg.object_map.clear(off);
                // The replica record disappears: the next report's exiting
                // list will no longer mention it, and the scion cleaner at
                // the owner will drop the entering ownerPtr (Section 6.2).
                // The engine reference is immutable in `Ctx`, so the drop
                // is only recorded here; the caller applies it after the
                // collection (`CollectOutcome`) — a record-drop, never a
                // token.
                self.core.dead_oids.push(view.oid);
            }
        }
        Ok(())
    }

    /// Builds the new stub tables and exiting lists, swaps spaces, and
    /// prepares the reports (Section 4.3).
    pub(crate) fn regenerate_and_publish(
        &mut self,
    ) -> Result<Vec<(Vec<NodeId>, ReachabilityReport)>> {
        let mut reports = Vec::new();
        // Per collected bunch: the other replica holders, which this run's
        // relocation records are queued for.
        let mut reloc_dests: BTreeMap<BunchId, Vec<NodeId>> = BTreeMap::new();
        for &b in &self.core.group.clone() {
            let live_of_bunch: BTreeMap<Oid, (bool, bool)> = self
                .core
                .live
                .iter()
                .filter(|l| l.bunch == b)
                .map(|l| (l.oid, (l.owned, l.strong)))
                .collect();
            // Stub retention.
            let (old_inter, old_intra) = {
                let brs = self.gc.node(self.node).bunch(b).expect("mapped");
                (
                    brs.stub_table.inter().to_vec(),
                    brs.stub_table.intra().to_vec(),
                )
            };
            let new_inter: Vec<InterStub> = old_inter
                .iter()
                .filter(|s| {
                    live_of_bunch.contains_key(&s.source_oid)
                        && self.core.inter_refs.iter().any(|r| {
                            r.source_oid == s.source_oid && self.resolve(s.target_addr) == r.target
                        })
                })
                .map(|s| {
                    let mut s = s.clone();
                    s.target_addr = self.resolve(s.target_addr);
                    s
                })
                .collect();
            let new_intra: Vec<_> = old_intra
                .iter()
                .filter(|s| live_of_bunch.contains_key(&s.oid))
                .copied()
                .collect();
            // Exiting ownerPtrs: live, non-owned, strongly reachable; an
            // object alive only through an intra-bunch scion publishes none
            // (the cycle-breaking rule of Section 6.2).
            let exiting: Vec<(Oid, NodeId)> = live_of_bunch
                .iter()
                .filter(|(_, &(owned, strong))| !owned && strong)
                .filter_map(|(&oid, _)| {
                    self.engine
                        .obj_state(self.node, oid)
                        .map(|st| (oid, st.owner_hint))
                })
                .collect();
            // Report destinations: replica holders of the bunch, scion sites
            // of the old and new stub tables, exiting-ptr targets.
            let mut replica_holders = self.gc.mapped_nodes(b);
            let mut dests: BTreeSet<NodeId> = replica_holders.iter().copied().collect();
            replica_holders.retain(|&d| d != self.node);
            reloc_dests.insert(b, replica_holders);
            dests.extend(old_inter.iter().map(|s| s.scion_at));
            dests.extend(new_inter.iter().map(|s| s.scion_at));
            dests.extend(old_intra.iter().map(|s| s.scion_at));
            dests.extend(new_intra.iter().map(|s| s.scion_at));
            dests.extend(exiting.iter().map(|&(_, n)| n));
            dests.remove(&self.node);

            let bunch_relocs: Vec<Relocation> = self
                .core
                .new_relocs
                .iter()
                .filter(|&&(rb, _)| rb == b)
                .map(|&(_, r)| r)
                .collect();
            // Swap spaces and store the new tables.
            let epoch = {
                let brs = self.gc.node_mut(self.node).bunch_mut(b).expect("mapped");
                brs.stub_table.replace(new_inter.clone(), new_intra.clone());
                if let Some(to) = self.core.to_segs.remove(&b) {
                    let old = std::mem::replace(&mut brs.alloc_segments, to);
                    brs.pending_from.extend(old);
                }
                brs.relocations.extend(bunch_relocs);
                brs.epoch.bump()
            };
            if trace::enabled() {
                let inter_cut = (old_inter.len() - new_inter.len()) as u64;
                if inter_cut > 0 {
                    trace::emit(
                        self.node,
                        TraceEvent::SspCut {
                            kind: SspKind::InterStub,
                            count: inter_cut,
                        },
                    );
                }
                let intra_cut = (old_intra.len() - new_intra.len()) as u64;
                if intra_cut > 0 {
                    trace::emit(
                        self.node,
                        TraceEvent::SspCut {
                            kind: SspKind::IntraStub,
                            count: intra_cut,
                        },
                    );
                }
                trace::emit(self.node, TraceEvent::ReportPublish { bunch: b, epoch });
            }
            if metrics::enabled() {
                let words = self.core.live_words_by_bunch.get(&b).copied().unwrap_or(0);
                metrics::set_bunch_live_bytes(self.node, b.0 as u64, words * WORD_BYTES);
            }
            reports.push((
                dests,
                ReachabilityReport {
                    from: self.node,
                    bunch: b,
                    epoch,
                    inter_stubs: new_inter,
                    intra_stubs: new_intra,
                    exiting,
                },
            ));
        }
        // Lazy relocation propagation: queue every local move for every
        // replica holder of its bunch; the records ride the next DSM
        // message to each destination (Section 4.4).
        for (b, r) in std::mem::take(&mut self.core.new_relocs) {
            GcIntegration::queue_forward(self.gc, self.node, &reloc_dests[&b], &[r]);
        }
        Ok(reports
            .into_iter()
            .map(|(dests, rep)| (dests.into_iter().collect(), rep))
            .collect())
    }
}
