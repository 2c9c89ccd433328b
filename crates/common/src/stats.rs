//! Instrumentation counters.
//!
//! The paper's claims are about *quantities* — messages sent on behalf of the
//! collector, tokens the collector acquired (which must be zero), replicas
//! invalidated, pause durations. Every substrate increments the counters
//! defined here, and the experiment harness in `bmx-bench` reads them back to
//! regenerate the evaluation tables.
//!
//! Storage is a shared block of relaxed atomics ([`NodeStats`] is a thin
//! shim over it): the cluster's counters and the `bmx-metrics` registry
//! observe the *same* cells. These are the only per-node counters; the
//! registry adds gauges, histograms and per-link counters beside them.
//! [`NodeStats::clone`] deliberately produces a **detached** value copy —
//! the `let base = stats.clone(); …; stats.since(&base)` baseline pattern
//! used throughout the experiments keeps its value semantics — while
//! [`NodeStats::handle`] yields a live alias for exposition layers that
//! want to watch the counters move.

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything the experiments count, per node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(usize)]
pub enum StatKind {
    /// Point-to-point messages handed to the network.
    MessagesSent,
    /// Messages dropped by the (unreliable) network.
    MessagesDropped,
    /// Payload bytes handed to the network.
    BytesSent,
    /// Read-token acquisitions performed by mutators.
    MutatorReadAcquires,
    /// Write-token acquisitions performed by mutators.
    MutatorWriteAcquires,
    /// Token acquisitions performed by the garbage collector.
    ///
    /// The central claim of the paper is that this counter stays at zero:
    /// "In any circumstance, the garbage collector acquires neither a read
    /// nor a write token" (Section 10).
    GcTokenAcquires,
    /// Read replicas invalidated by write-token transfers.
    Invalidations,
    /// Read replicas invalidated *on behalf of the collector* (only a
    /// token-acquiring baseline collector ever increments this).
    GcInvalidations,
    /// Objects copied from from-space to to-space by a collector.
    ObjectsCopied,
    /// Words copied from from-space to to-space by a collector.
    WordsCopied,
    /// Live objects scanned in place (non-owned replicas).
    ObjectsScanned,
    /// Scion-messages sent (inter-bunch SSP creation across nodes).
    ScionMessages,
    /// Reachability-table messages sent to scion cleaners.
    StubTableMessages,
    /// Relocation records piggy-backed onto consistency-protocol messages.
    PiggybackedRelocations,
    /// Explicit (non-piggy-backed) relocation messages sent.
    ExplicitRelocationMessages,
    /// Times a mutator was blocked waiting on collector work.
    MutatorStalls,
    /// Objects reclaimed (their words returned to a free space).
    ObjectsReclaimed,
    /// Words reclaimed.
    WordsReclaimed,
    /// Scions removed by the scion cleaner.
    ScionsCleaned,
    /// Entering ownerPtrs removed by the scion cleaner.
    OwnerPtrsCleaned,
    /// Write-barrier slow paths taken (inter-bunch reference creation).
    BarrierSlowPaths,
    /// Write-barrier fast paths taken.
    BarrierFastPaths,
    /// RVM log records written.
    RvmLogRecords,
    /// RVM bytes logged.
    RvmBytesLogged,
    /// Envelopes the DSM layer exchanged on behalf of applications. One
    /// protocol round emits at most one envelope per destination; the
    /// constituent messages inside them are counted by
    /// [`StatKind::DsmLogicalMessages`].
    DsmProtocolMessages,
    /// Constituent DSM protocol messages before envelope coalescing
    /// (requests, grants, invalidations, acks, registrations).
    DsmLogicalMessages,
    /// Words physically copied when capturing a grant's object image.
    /// Refcounted clones of an already-captured image (fault duplicates,
    /// re-enqueues) cost nothing and are deliberately not counted.
    ImageWordsCopied,
    /// Background (non-piggy-backed) GC messages.
    BackgroundGcMessages,
    /// Table requests this node's cleaner sent: each asks a source for a
    /// table the node has not heard for a while.
    TablePulls,
    /// Messages delivered more than once (duplication faults); the handlers
    /// are idempotent, so these are counted, not suppressed.
    DuplicateDeliveries,
    /// Network partitions that healed while this node was on one side.
    PartitionsHealed,
    /// Times this node came back from a crash.
    NodeRestarts,
    /// Volatile-state wipes performed at an amnesia crash (memory image,
    /// directory, DSM caches, cleaner tables and schedules all discarded).
    AmnesiaWipes,
    /// Crash-recovery pipelines run to completion (RVM replay + rejoin
    /// handshake + scion regeneration).
    RecoveriesCompleted,
    /// Objects whose ownership was orphaned by an amnesia crash and
    /// reassigned to a surviving replica holder during the rejoin handshake.
    RejoinOrphansAdopted,
    /// Stale addresses resolved through the segment server's retired-range
    /// routing (from-space reuse aftermath).
    RetiredRouteHits,
}

impl StatKind {
    /// All counter kinds, for iteration in reports.
    pub const ALL: [StatKind; 36] = [
        StatKind::MessagesSent,
        StatKind::MessagesDropped,
        StatKind::BytesSent,
        StatKind::MutatorReadAcquires,
        StatKind::MutatorWriteAcquires,
        StatKind::GcTokenAcquires,
        StatKind::Invalidations,
        StatKind::GcInvalidations,
        StatKind::ObjectsCopied,
        StatKind::WordsCopied,
        StatKind::ObjectsScanned,
        StatKind::ScionMessages,
        StatKind::StubTableMessages,
        StatKind::PiggybackedRelocations,
        StatKind::ExplicitRelocationMessages,
        StatKind::MutatorStalls,
        StatKind::ObjectsReclaimed,
        StatKind::WordsReclaimed,
        StatKind::ScionsCleaned,
        StatKind::OwnerPtrsCleaned,
        StatKind::BarrierSlowPaths,
        StatKind::BarrierFastPaths,
        StatKind::RvmLogRecords,
        StatKind::RvmBytesLogged,
        StatKind::DsmProtocolMessages,
        StatKind::DsmLogicalMessages,
        StatKind::ImageWordsCopied,
        StatKind::BackgroundGcMessages,
        StatKind::TablePulls,
        StatKind::DuplicateDeliveries,
        StatKind::PartitionsHealed,
        StatKind::NodeRestarts,
        StatKind::AmnesiaWipes,
        StatKind::RecoveriesCompleted,
        StatKind::RejoinOrphansAdopted,
        StatKind::RetiredRouteHits,
    ];

    const COUNT: usize = Self::ALL.len();
}

/// The shared cell block behind a [`NodeStats`]. All accesses are relaxed:
/// the cells carry no synchronization duties, they are observational only.
struct StatCells {
    cells: [AtomicU64; StatKind::COUNT],
}

impl StatCells {
    fn zeroed() -> Self {
        StatCells {
            cells: core::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The full counter set of one node.
pub struct NodeStats {
    cells: Arc<StatCells>,
}

impl Clone for NodeStats {
    /// A **detached** value copy: the clone stops tracking the original.
    /// This is what the pervasive `let base = stats.clone()` baseline
    /// pattern relies on; use [`NodeStats::handle`] for a live alias.
    fn clone(&self) -> Self {
        let out = NodeStats::new();
        for (i, c) in self.cells.cells.iter().enumerate() {
            out.cells.cells[i].store(c.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out
    }
}

impl Default for NodeStats {
    fn default() -> Self {
        NodeStats {
            cells: Arc::new(StatCells::zeroed()),
        }
    }
}

impl NodeStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A live alias sharing this counter set's cells: bumps through either
    /// are visible to both. Exposition layers (the metrics registry, the
    /// `bmx_top` dashboard) bind to handles so they read the cluster's real
    /// counters rather than a stale copy.
    pub fn handle(&self) -> NodeStats {
        NodeStats {
            cells: Arc::clone(&self.cells),
        }
    }

    /// Whether `other` observes the same underlying cells as `self`.
    pub fn is_same_cells(&self, other: &NodeStats) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }

    /// Adds `n` to the counter of the given kind.
    #[inline]
    pub fn add(&self, kind: StatKind, n: u64) {
        self.cells.cells[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter of the given kind by one.
    #[inline]
    pub fn bump(&self, kind: StatKind) {
        self.cells.cells[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    #[inline]
    pub fn get(&self, kind: StatKind) -> u64 {
        self.cells.cells[kind as usize].load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        for c in &self.cells.cells {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Returns the element-wise sum of `self` and `other` (detached).
    pub fn merged(&self, other: &NodeStats) -> NodeStats {
        let out = self.clone();
        for (i, src) in other.cells.cells.iter().enumerate() {
            out.cells.cells[i].fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out
    }

    /// Returns the element-wise difference `self - baseline` (detached).
    ///
    /// # Panics
    ///
    /// Panics if any counter in `baseline` exceeds the one in `self`
    /// (counters are monotonic, so this indicates misuse).
    pub fn since(&self, baseline: &NodeStats) -> NodeStats {
        let out = NodeStats::new();
        for (i, kind) in StatKind::ALL.iter().enumerate() {
            let now = self.cells.cells[i].load(Ordering::Relaxed);
            let then = baseline.cells.cells[i].load(Ordering::Relaxed);
            assert!(now >= then, "counter {kind:?} went backwards");
            out.cells.cells[i].store(now - then, Ordering::Relaxed);
        }
        out
    }

    /// Iterates over `(kind, value)` pairs with non-zero values.
    pub fn nonzero(&self) -> impl Iterator<Item = (StatKind, u64)> + '_ {
        StatKind::ALL
            .iter()
            .map(move |&k| (k, self.get(k)))
            .filter(|&(_, v)| v != 0)
    }
}

impl fmt::Debug for NodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.nonzero()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = NodeStats::new();
        for k in StatKind::ALL {
            assert_eq!(s.get(k), 0);
        }
    }

    #[test]
    fn bump_and_add() {
        let s = NodeStats::new();
        s.bump(StatKind::MessagesSent);
        s.add(StatKind::BytesSent, 120);
        assert_eq!(s.get(StatKind::MessagesSent), 1);
        assert_eq!(s.get(StatKind::BytesSent), 120);
        assert_eq!(s.get(StatKind::Invalidations), 0);
    }

    #[test]
    fn merged_sums_elementwise() {
        let a = NodeStats::new();
        let b = NodeStats::new();
        a.add(StatKind::ObjectsCopied, 3);
        b.add(StatKind::ObjectsCopied, 4);
        b.bump(StatKind::Invalidations);
        let m = a.merged(&b);
        assert_eq!(m.get(StatKind::ObjectsCopied), 7);
        assert_eq!(m.get(StatKind::Invalidations), 1);
    }

    #[test]
    fn since_subtracts() {
        let base = NodeStats::new();
        base.add(StatKind::MessagesSent, 10);
        let now = base.clone();
        now.add(StatKind::MessagesSent, 5);
        assert_eq!(now.since(&base).get(StatKind::MessagesSent), 5);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn since_rejects_regression() {
        let base = NodeStats::new();
        base.add(StatKind::MessagesSent, 10);
        NodeStats::new().since(&base);
    }

    #[test]
    fn nonzero_lists_only_touched_counters() {
        let s = NodeStats::new();
        s.bump(StatKind::ScionMessages);
        let v: Vec<_> = s.nonzero().collect();
        assert_eq!(v, vec![(StatKind::ScionMessages, 1)]);
    }

    #[test]
    fn clone_detaches_but_handle_aliases() {
        let live = NodeStats::new();
        live.bump(StatKind::MessagesSent);
        let snapshot = live.clone();
        let alias = live.handle();
        assert!(live.is_same_cells(&alias));
        assert!(!live.is_same_cells(&snapshot));
        alias.add(StatKind::MessagesSent, 9);
        assert_eq!(live.get(StatKind::MessagesSent), 10, "alias writes through");
        assert_eq!(
            snapshot.get(StatKind::MessagesSent),
            1,
            "the clone stays a point-in-time copy"
        );
        assert_eq!(live.since(&snapshot).get(StatKind::MessagesSent), 9);
    }

    #[test]
    fn all_kinds_are_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for k in StatKind::ALL {
            assert!(seen.insert(k as usize), "duplicate index for {k:?}");
        }
        assert_eq!(seen.len(), StatKind::COUNT);
    }
}
