//! Wall-clock span profiler for the real-thread runtime.
//!
//! The causal trace plane ([`bmx_trace`]) orders events by Lamport clocks
//! and the metrics plane counts them, but neither can say where the
//! *microseconds* of a blocking acquire went: parked on the wake cell,
//! waiting on the protocol mutex, or stalled behind a slow driver apply.
//! This crate records typed wall-clock spans into bounded per-thread
//! rings — the workspace's one recorder, [`bmx_common::recorder`] — so
//! the parallel runtime can be profiled end to end without perturbing it:
//!
//! * **Allocation-free hot path.** Recording a span is a monotonic
//!   [`Instant`] read plus a write into a pre-sized ring slot; the ring
//!   overwrites its oldest entry when full (last-N semantics, which is
//!   exactly what a post-mortem blackbox wants).
//! * **Zero-cost when disabled.** Every entry point loads one relaxed
//!   [`AtomicBool`] and bails. The conformance suite pins profiled ≡
//!   unprofiled digests bit-identical, like trace and metrics before it.
//! * **Distributed flows.** A mutator mints a nonzero *flow id* per
//!   acquire and stamps it on every envelope its protocol sends produce;
//!   drivers restore the flow while applying, so a cross-node acquire
//!   (request → grant → apply → wake) stitches into one track in the
//!   exported Chrome/Perfetto trace ([`chrome::export`]).
//!
//! Threads register lazily on first record under a *session* id bumped by
//! [`enable`], so a test that re-enables the profiler starts from empty
//! rings even though thread-locals persist.

#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bmx_common::recorder::{LocalRing, Registry};
use bmx_common::NodeId;

pub mod chrome;

/// What a span measured. Names are the stable strings that reach the
/// Perfetto export and the blackbox dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole mutator-side acquire, submit to locked (or failure).
    Acquire,
    /// The first protocol poll of an acquire: request submission.
    AcquireSubmit,
    /// A re-poll of an outstanding acquire.
    AcquirePoll,
    /// Parked on the node's wake cell (condvar wait, epoch-guarded).
    AcquirePark,
    /// From poke-wake (or park timeout) to the end of the next poll.
    AcquireWake,
    /// The reserved-token claim inside the DSM engine (`lock`).
    ReserveClaim,
    /// Waiting for the coarse protocol mutex.
    MutexWait,
    /// Holding the coarse protocol mutex (holder attribution: `node`).
    MutexHold,
    /// Applying one delivered envelope, on whichever thread holds the
    /// node's lock: its driver, or a mutator polling for a grant.
    Apply,
    /// One supervisor pulse (chaos, liveness, watchdog evaluation).
    SupervisorPulse,
    /// RVM replay while restarting a crashed node.
    RecoveryReplay,
    /// The whole amnesia restart (wipe, replay, rejoin broadcast).
    RecoveryRestart,
    /// BGC phases, mirroring the per-phase tick counters.
    BgcRoots,
    /// Bunch-graph trace phase.
    BgcTrace,
    /// Reference-update phase.
    BgcUpdate,
    /// Sweep phase.
    BgcSweep,
    /// Regenerate-and-publish phase.
    BgcPublish,
}

impl SpanKind {
    /// Stable display name (Perfetto event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Acquire => "acquire",
            SpanKind::AcquireSubmit => "acquire/submit",
            SpanKind::AcquirePoll => "acquire/poll",
            SpanKind::AcquirePark => "acquire/park",
            SpanKind::AcquireWake => "acquire/wake",
            SpanKind::ReserveClaim => "acquire/reserve-claim",
            SpanKind::MutexWait => "mutex/wait",
            SpanKind::MutexHold => "mutex/hold",
            SpanKind::Apply => "apply",
            SpanKind::SupervisorPulse => "supervisor/pulse",
            SpanKind::RecoveryReplay => "recovery/replay",
            SpanKind::RecoveryRestart => "recovery/restart",
            SpanKind::BgcRoots => "bgc/roots",
            SpanKind::BgcTrace => "bgc/trace",
            SpanKind::BgcUpdate => "bgc/update",
            SpanKind::BgcSweep => "bgc/sweep",
            SpanKind::BgcPublish => "bgc/publish",
        }
    }
}

/// One recorded span. Timestamps are microseconds since the profiler
/// epoch (the first [`enable`] in the process), so records from every
/// thread and node share one time base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// What was measured.
    pub kind: SpanKind,
    /// The node the work was done for (Perfetto pid).
    pub node: u32,
    /// Start, µs since the profiler epoch.
    pub start_us: u64,
    /// Duration in µs (0 for marks).
    pub dur_us: u64,
    /// Distributed flow id (0 = not part of a flow).
    pub flow: u64,
}

/// Everything one thread recorded, oldest span first.
#[derive(Clone, Debug)]
pub struct ThreadSpans {
    /// The OS thread's name at registration ("?" if unnamed).
    pub name: String,
    /// Recorded spans, oldest first, at most the ring capacity.
    pub spans: Vec<SpanRec>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_FLOW: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Registry<SpanRec> = Registry::new();

thread_local! {
    /// This thread's ring in [`SPANS`].
    static LOCAL: LocalRing<SpanRec> = const { RefCell::new(None) };
    /// The distributed flow the current thread is working for.
    static FLOW: Cell<u64> = const { Cell::new(0) };
}

/// Turns the profiler on with `per_thread_capacity` ring slots per
/// thread. Starts a fresh session: rings from a previous enablement are
/// dropped, flow ids keep climbing (they must stay unique per process).
pub fn enable(per_thread_capacity: usize) {
    let _ = EPOCH.set(Instant::now());
    SPANS.start(per_thread_capacity.max(16));
    ENABLED.store(true, Ordering::Release);
}

/// Turns the profiler off and drops all recorded spans.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
    SPANS.clear();
}

/// Whether spans are being recorded. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the profiler epoch (0 if never enabled).
#[inline]
pub fn now_us() -> u64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_micros() as u64)
        .unwrap_or(0)
}

/// Records a closed span directly (used by callers that already hold
/// both endpoints, e.g. the BGC phase clock).
pub fn record(kind: SpanKind, node: NodeId, start_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    let rec = SpanRec {
        kind,
        node: node.0,
        start_us,
        dur_us,
        flow: current_flow(),
    };
    SPANS.record(&LOCAL, rec);
}

/// Records a zero-duration mark at now (e.g. the reserve-claim instant).
pub fn mark(kind: SpanKind, node: NodeId) {
    if enabled() {
        record(kind, node, now_us(), 0);
    }
}

/// An in-flight span; records on drop. Inert (all-`None`) when the
/// profiler is disabled, so guards can sit on hot paths unconditionally.
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    armed: Option<SpanStart>,
}

struct SpanStart {
    kind: SpanKind,
    node: u32,
    start_us: u64,
    /// `Some(f)` pins the flow at creation; `None` reads the thread's
    /// current flow when the guard drops.
    flow: Option<u64>,
}

impl SpanGuard {
    /// Drops the guard without recording anything.
    pub fn cancel(&mut self) {
        self.armed = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.armed.take() {
            let rec = SpanRec {
                kind: s.kind,
                node: s.node,
                start_us: s.start_us,
                dur_us: now_us().saturating_sub(s.start_us),
                flow: s.flow.unwrap_or_else(current_flow),
            };
            SPANS.record(&LOCAL, rec);
        }
    }
}

/// Opens a span; the flow id is whatever the thread's current flow is
/// when the guard drops.
#[inline]
pub fn span(kind: SpanKind, node: NodeId) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: None };
    }
    span_slow(kind, node, None)
}

/// Opens a span pinned to an explicit flow id.
#[inline]
pub fn span_with_flow(kind: SpanKind, node: NodeId, flow: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: None };
    }
    span_slow(kind, node, Some(flow))
}

#[cold]
fn span_slow(kind: SpanKind, node: NodeId, flow: Option<u64>) -> SpanGuard {
    SpanGuard {
        armed: Some(SpanStart {
            kind,
            node: node.0,
            start_us: now_us(),
            flow,
        }),
    }
}

/// Mints a fresh nonzero flow id (0 when disabled, so disabled runs
/// stamp envelopes with the same 0 they always carried).
pub fn new_flow() -> u64 {
    if !enabled() {
        return 0;
    }
    NEXT_FLOW.fetch_add(1, Ordering::Relaxed)
}

/// The flow the calling thread is currently working for (0 = none).
#[inline]
pub fn current_flow() -> u64 {
    if !enabled() {
        return 0;
    }
    FLOW.with(|f| f.get())
}

/// Scoped flow assignment: restores the previous flow on drop.
#[must_use = "the previous flow is restored when the scope drops"]
pub struct FlowScope {
    prev: Option<u64>,
}

impl Drop for FlowScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            FLOW.with(|f| f.set(prev));
        }
    }
}

/// Makes `flow` the thread's current flow until the scope drops. Inert
/// when the profiler is disabled. Passing 0 deliberately *clears* the
/// flow for the scope — a driver applying an unstamped envelope must not
/// attribute its work to whatever flow the thread saw last.
pub fn flow_scope(flow: u64) -> FlowScope {
    if !enabled() {
        return FlowScope { prev: None };
    }
    let prev = FLOW.with(|f| {
        let p = f.get();
        f.set(flow);
        p
    });
    FlowScope { prev: Some(prev) }
}

/// Copies out every registered thread's spans (oldest first, per
/// thread) without draining the rings. Thread order is registration
/// order; names repeat if two threads share one.
pub fn snapshot_all() -> Vec<ThreadSpans> {
    let threads = SPANS.snapshot().into_iter();
    threads
        .map(|(name, spans)| ThreadSpans { name, spans })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiler state is process-global; tests in this crate share it.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_is_inert() {
        let _serial = lock();
        disable();
        assert_eq!(new_flow(), 0);
        assert_eq!(current_flow(), 0);
        let _g = span(SpanKind::Acquire, NodeId(0));
        mark(SpanKind::ReserveClaim, NodeId(0));
        record(SpanKind::MutexWait, NodeId(0), 1, 2);
        drop(_g);
        assert!(snapshot_all().is_empty());
    }

    #[test]
    fn spans_record_and_snapshot() {
        let _serial = lock();
        enable(64);
        {
            let _g = span(SpanKind::MutexWait, NodeId(3));
        }
        mark(SpanKind::ReserveClaim, NodeId(3));
        let snap = snapshot_all();
        let mine: Vec<_> = snap.iter().flat_map(|t| t.spans.iter()).collect();
        assert!(mine
            .iter()
            .any(|r| r.kind == SpanKind::MutexWait && r.node == 3));
        assert!(mine
            .iter()
            .any(|r| r.kind == SpanKind::ReserveClaim && r.dur_us == 0));
        disable();
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _serial = lock();
        enable(16);
        for i in 0..20u64 {
            record(SpanKind::AcquirePoll, NodeId(0), i, 0);
        }
        let snap = snapshot_all();
        let got: Vec<u64> = snap
            .iter()
            .flat_map(|t| t.spans.iter())
            .map(|s| s.start_us)
            .collect();
        assert_eq!(got, (4..20).collect::<Vec<_>>(), "last-N, oldest first");
        disable();
    }

    #[test]
    fn flow_scope_nests_and_restores() {
        let _serial = lock();
        enable(64);
        let f1 = new_flow();
        let f2 = new_flow();
        assert_ne!(f1, 0);
        assert_ne!(f1, f2);
        assert_eq!(current_flow(), 0);
        {
            let _a = flow_scope(f1);
            assert_eq!(current_flow(), f1);
            {
                let _b = flow_scope(f2);
                assert_eq!(current_flow(), f2);
            }
            assert_eq!(current_flow(), f1);
            // Zero clears for the scope (unstamped envelope).
            {
                let _c = flow_scope(0);
                assert_eq!(current_flow(), 0);
            }
            assert_eq!(current_flow(), f1);
        }
        assert_eq!(current_flow(), 0);
        disable();
    }

    #[test]
    fn reenable_starts_fresh_session() {
        let _serial = lock();
        enable(64);
        mark(SpanKind::AcquireSubmit, NodeId(1));
        assert!(snapshot_all().iter().any(|t| !t.spans.is_empty()));
        enable(64);
        let total: usize = snapshot_all().iter().map(|t| t.spans.len()).sum();
        assert_eq!(total, 0, "re-enable must drop the previous session");
        mark(SpanKind::AcquireSubmit, NodeId(1));
        let total: usize = snapshot_all().iter().map(|t| t.spans.len()).sum();
        assert_eq!(total, 1);
        disable();
    }

    #[test]
    fn span_guard_cancel_records_nothing() {
        let _serial = lock();
        enable(64);
        let mut g = span(SpanKind::Apply, NodeId(0));
        g.cancel();
        drop(g);
        let total: usize = snapshot_all().iter().map(|t| t.spans.len()).sum();
        assert_eq!(total, 0);
        disable();
    }
}
