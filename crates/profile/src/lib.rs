//! Wall-clock span profiler for the real-thread runtime.
//!
//! The causal trace plane ([`bmx_trace`]) orders events by Lamport clocks
//! and the metrics plane counts them, but neither can say where the
//! *microseconds* of a blocking acquire went: parked on the wake cell,
//! waiting on the protocol mutex, or stalled behind a slow driver apply.
//! This crate records typed wall-clock spans into bounded per-thread
//! rings so the parallel runtime can be profiled end to end without
//! perturbing it:
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use bmx_common::NodeId;

pub mod chrome;

/// What a span measured. Names are the stable strings that reach the
/// Perfetto export and the blackbox dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
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
    /// A driver thread applying one delivered envelope.
    DriverApply,
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
            SpanKind::DriverApply => "driver/apply",
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

/// Bounded overwrite-oldest span buffer.
struct Ring {
    buf: Vec<SpanRec>,
    /// Total pushes ever; `written % cap` is the next slot once full.
    written: u64,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            written: 0,
            cap: cap.max(1),
        }
    }

    fn push(&mut self, rec: SpanRec) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            let slot = (self.written % self.cap as u64) as usize;
            self.buf[slot] = rec;
        }
        self.written += 1;
    }

    /// Oldest-first copy of the live contents.
    fn drain_ordered(&self) -> Vec<SpanRec> {
        if self.buf.len() < self.cap {
            return self.buf.clone();
        }
        let split = (self.written % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[split..]);
        out.extend_from_slice(&self.buf[..split]);
        out
    }
}

struct ThreadRing {
    name: String,
    ring: Mutex<Ring>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(4096);
static NEXT_FLOW: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREADS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    /// (session the ring was registered under, the ring itself).
    static LOCAL: RefCell<Option<(u64, Arc<ThreadRing>)>> = const { RefCell::new(None) };
    /// The distributed flow the current thread is working for.
    static FLOW: Cell<u64> = const { Cell::new(0) };
}

/// Turns the profiler on with `per_thread_capacity` ring slots per
/// thread. Starts a fresh session: rings from a previous enablement are
/// dropped, flow ids keep climbing (they must stay unique per process).
pub fn enable(per_thread_capacity: usize) {
    let _ = EPOCH.set(Instant::now());
    CAPACITY.store(per_thread_capacity.max(16), Ordering::Relaxed);
    THREADS.lock().unwrap().clear();
    SESSION.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
}

/// Turns the profiler off and drops all recorded spans.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
    THREADS.lock().unwrap().clear();
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

#[cold]
fn register_thread() -> Arc<ThreadRing> {
    let name = std::thread::current().name().unwrap_or("?").to_string();
    let tr = Arc::new(ThreadRing {
        name,
        ring: Mutex::new(Ring::new(CAPACITY.load(Ordering::Relaxed))),
    });
    THREADS.lock().unwrap().push(Arc::clone(&tr));
    tr
}

/// Pushes `rec` into the calling thread's ring (registering the thread
/// under the current session first if needed).
fn push(rec: SpanRec) {
    let session = SESSION.load(Ordering::Relaxed);
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((s, _)) => *s != session,
            None => true,
        };
        if stale {
            *slot = Some((session, register_thread()));
        }
        let (_, tr) = slot.as_ref().expect("just registered");
        tr.ring.lock().unwrap().push(rec);
    });
}

/// Records a closed span directly (used by callers that already hold
/// both endpoints, e.g. the BGC phase clock).
pub fn record(kind: SpanKind, node: NodeId, start_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    push(SpanRec {
        kind,
        node: node.0,
        start_us,
        dur_us,
        flow: current_flow(),
    });
}

/// Records a zero-duration mark at now (e.g. the reserve-claim instant).
pub fn mark(kind: SpanKind, node: NodeId) {
    if !enabled() {
        return;
    }
    let now = now_us();
    push(SpanRec {
        kind,
        node: node.0,
        start_us: now,
        dur_us: 0,
        flow: current_flow(),
    });
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
            let end = now_us();
            push(SpanRec {
                kind: s.kind,
                node: s.node,
                start_us: s.start_us,
                dur_us: end.saturating_sub(s.start_us),
                flow: s.flow.unwrap_or_else(current_flow),
            });
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
    let threads = THREADS.lock().unwrap();
    threads
        .iter()
        .map(|tr| ThreadSpans {
            name: tr.name.clone(),
            spans: tr.ring.lock().unwrap().drain_ordered(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiler state is process-global; tests in this crate share it.
    static SERIAL: Mutex<()> = Mutex::new(());

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
        let mut r = Ring::new(4);
        for i in 0..7u64 {
            r.push(SpanRec {
                kind: SpanKind::AcquirePoll,
                node: 0,
                start_us: i,
                dur_us: 0,
                flow: 0,
            });
        }
        let got: Vec<u64> = r.drain_ordered().iter().map(|s| s.start_us).collect();
        assert_eq!(got, vec![3, 4, 5, 6], "last-N, oldest first");
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
        let mut g = span(SpanKind::DriverApply, NodeId(0));
        g.cancel();
        drop(g);
        let total: usize = snapshot_all().iter().map(|t| t.spans.len()).sum();
        assert_eq!(total, 0);
        disable();
    }
}
