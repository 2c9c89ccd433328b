//! `bmx-trace`: causal event tracing for the BMX reproduction.
//!
//! The paper's safety argument is temporal — scions are retired only
//! *after* a covering reachability epoch, addresses re-align *at* token
//! acquires, the collector *never* blocks the consistency protocol — so
//! when a chaos seed trips an assert, the question is always "what order
//! did these things actually happen in?". Aggregate counters can't answer
//! that. This crate captures a typed, causally-stamped event stream:
//!
//! * **Events** ([`TraceEvent`]) are fixed-size and allocation-free;
//!   emitting one when tracing is disabled is a thread-local flag check.
//! * **Clocks**: each node carries a Lamport clock, advanced on every
//!   local event and merged at message delivery from the stamp
//!   piggy-backed on every `Envelope`. Sorting the merged stream by
//!   `(lamport, node, seq)` yields a total order consistent with
//!   happens-before.
//! * **Spans** ([`span`], [`record`], [`mark`]) are wall-clock intervals
//!   recorded as [`TraceEvent::Span`], taking their node's Lamport value
//!   without advancing it. A *flow id* per acquire ([`new_flow`]) rides
//!   on every envelope its sends produce, stitching a cross-node acquire.
//! * **Recording** goes through the workspace's one recorder
//!   ([`bmx_common::recorder`]). A simulator run installs a recorder
//!   private to its thread ([`install`]), so concurrently running tests
//!   keep their captures apart. Otherwise records go to the process-wide
//!   rings, one per thread, wall-clock stamped: [`install_global`] turns
//!   on their causal events (each node's clock is then one atomic),
//!   [`enable_spans`] their spans.
//! * **Exporters** ([`chrome`]): Chrome `trace_event` JSON — load it in
//!   `chrome://tracing` or <https://ui.perfetto.dev> — and a merged
//!   human-readable timeline.
//! * **Queries** ([`query`]): temporal invariants checked directly on a
//!   captured trace (scion-retirement ordering, address-update
//!   happens-before, the Section-5 acquire invariants).
//!
//! Tracing is observational only: no simulation state, RNG draw, or wire
//! size depends on whether a recorder is installed, so a traced run is
//! bit-identical to an untraced run with the same seed (tier-1 enforces
//! this). Disabled, an emit costs a thread-local flag read and one relaxed
//! load, and a span entry point one relaxed load.

#![forbid(unsafe_code)]

pub mod chrome;
mod event;
pub mod query;
mod span;

pub use bmx_common::recorder::UNBOUNDED;
pub use event::{
    AccessMode, AlarmKind, FaultKind, GcPhase, MsgLane, ReuseStep, SpanKind, SspKind, TraceEvent,
    TraceRecord,
};
pub use span::{
    current_flow, flow_scope, mark, new_flow, now_us, record, span, span_with_flow, FlowScope,
    SpanGuard,
};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bmx_common::recorder::{LocalRing, Registry, Ring};
use bmx_common::{NodeId, NodeSet};

/// A recorder private to the one thread that runs a simulated cluster.
struct Recorder {
    /// Lamport clocks by `NodeId.0`: a cluster has at most 64 nodes.
    clocks: [u64; NodeSet::CAPACITY],
    /// Current simulated tick, pushed in by the network clock.
    now: u64,
    ring: Ring<TraceRecord>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// This thread's emission counter (the merge tie-breaker).
    static SEQ: Cell<u64> = const { Cell::new(0) };
    /// This thread's ring in [`GLOBAL`].
    static LOCAL_RING: LocalRing<TraceRecord> = const { RefCell::new(None) };
    /// This thread's name (its id if unnamed), leaked once on its first
    /// record: a record stays `Copy` and names its thread after it exits.
    static THREAD: &'static str = {
        let t = std::thread::current();
        let name = t.name().map_or_else(|| format!("{:?}", t.id()), str::to_string);
        Box::leak(name.into_boxed_str())
    };
}

// The process-wide mode, for threads without a private recorder. A node's
// events are emitted under that node's lock, so its one atomic clock still
// counts in the node's program order.
static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
static GLOBAL: Registry<TraceRecord> = Registry::new();
static GLOBAL_NOW: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)] // only copied into `GLOBAL_CLOCKS`
const ZERO: AtomicU64 = AtomicU64::new(0);
static GLOBAL_CLOCKS: [AtomicU64; NodeSet::CAPACITY] = [ZERO; NodeSet::CAPACITY];
/// The span switch.
static SPANS_ON: AtomicBool = AtomicBool::new(false);

/// Runs `f` on this thread's private recorder; `None` if it has none.
fn with_local<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// `node`'s clock in the process-wide mode, if that mode is on.
fn global_clock(node: NodeId) -> Option<&'static AtomicU64> {
    let on = GLOBAL_ON.load(Ordering::Acquire);
    on.then(|| &GLOBAL_CLOCKS[node.0 as usize])
}

/// Is a recorder installed on this thread, or the process-wide mode on?
/// Instrumentation sites that need more than constructing a fixed-size
/// event (e.g. a table lookup for an event field) should guard on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get()) || GLOBAL_ON.load(Ordering::Relaxed)
}

/// Install a recorder private to this thread that keeps the newest
/// `capacity` records ([`UNBOUNDED`]: all of them), and enable tracing.
/// Replaces (and drops) any previously installed recorder.
pub fn install(capacity: usize) {
    let ring = Ring::new(capacity);
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            clocks: [0; NodeSet::CAPACITY],
            now: 0,
            ring,
        })
    });
    ENABLED.with(|e| e.set(true));
}

/// Disable tracing and drop the installed recorder (clocks included).
pub fn disable() {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| *r.borrow_mut() = None);
}

/// Turn on the process-wide mode for every thread without a private
/// recorder: each records into a ring of its own of `capacity` records,
/// and every node's clock restarts at 0.
pub fn install_global(capacity: usize) {
    GLOBAL.start(capacity);
    for clock in &GLOBAL_CLOCKS {
        clock.store(0, Ordering::Relaxed);
    }
    GLOBAL_NOW.store(0, Ordering::Relaxed);
    GLOBAL_ON.store(true, Ordering::Release);
}

/// Turn off the process-wide causal events; the rings go too unless
/// spans still record into them.
pub fn disable_global() {
    GLOBAL_ON.store(false, Ordering::Release);
    if !spans_enabled() {
        GLOBAL.clear();
    }
}

/// Turn spans on, joining the process-wide session or else starting one
/// with rings of `capacity` records per thread.
pub fn enable_spans(capacity: usize) {
    if !GLOBAL_ON.load(Ordering::Acquire) {
        GLOBAL.start(capacity);
    }
    SPANS_ON.store(true, Ordering::Release);
}

/// Turn spans off; the process-wide rings go too unless causal events
/// still record into them.
pub fn disable_spans() {
    SPANS_ON.store(false, Ordering::Release);
    if !GLOBAL_ON.load(Ordering::Acquire) {
        GLOBAL.clear();
    }
}

/// Whether spans are recorded. One relaxed load.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ON.load(Ordering::Relaxed)
}

/// Take the records of every process-wide ring, those of exited threads
/// included, leaving the mode on. They come thread by thread, each oldest
/// first; [`query::merged_order`] merges them.
pub fn take_global() -> Vec<TraceRecord> {
    GLOBAL.take().concat()
}

/// [`take_global`] without taking: the flight recorder keeps flying. The
/// post-mortem blackbox reads it so, and must not consume what a later
/// test assertion (or a second dump) still wants.
pub fn snapshot_global() -> Vec<TraceRecord> {
    GLOBAL.snapshot().concat()
}

/// Copy out everything this thread's private recorder retains (oldest
/// first) without disturbing it. Empty when none is installed.
pub fn snapshot() -> Vec<TraceRecord> {
    with_local(|rec| rec.ring.contents()).unwrap_or_default()
}

/// Take everything this thread's private recorder retains (oldest
/// first), leaving it installed and its clocks intact.
pub fn take() -> Vec<TraceRecord> {
    with_local(|rec| rec.ring.take()).unwrap_or_default()
}

/// Update the recorder's notion of the current tick (a simulated tick, or
/// a supervisor pulse on threads). A no-op when tracing is disabled.
#[inline]
pub fn set_now(tick: u64) {
    if enabled() && with_local(|rec| rec.now = tick).is_none() {
        GLOBAL_NOW.store(tick, Ordering::Relaxed);
    }
}

/// Emit `event` at `node`: tick the node's Lamport clock and record the
/// stamped event. Returns the Lamport stamp — senders piggy-back it on
/// the outgoing `Envelope` — or 0 when tracing is disabled (the stamp is
/// then never read, so the constant is harmless).
#[inline]
pub fn emit(node: NodeId, event: TraceEvent) -> u64 {
    if !enabled() {
        return 0;
    }
    emit_slow(node, event)
}

#[cold]
fn emit_slow(node: NodeId, event: TraceEvent) -> u64 {
    let seq = SEQ.with(|s| s.replace(s.get() + 1) + 1);
    stamp(node, seq, true, None, event)
}

/// Records a span; see [`span::record`].
fn record_span(node: NodeId, start_us: u64, event: TraceEvent) {
    stamp(node, SEQ.with(Cell::get), false, Some(start_us), event);
}

/// Records `event` at `node` under `seq` with the node's Lamport value,
/// advanced by one or as it stands (a span), and returns that value.
/// Without a private recorder it goes to the process-wide rings,
/// wall-clock stamped; a causal event only while those record them.
fn stamp(node: NodeId, seq: u64, advance: bool, wall_us: Option<u64>, event: TraceEvent) -> u64 {
    let thread = THREAD.with(|t| *t);
    let stamped = |lamport, tick, wall_us| TraceRecord {
        node,
        thread,
        tick,
        lamport,
        seq,
        wall_us,
        event,
    };
    if let Some(lamport) = with_local(|rec| {
        let clock = &mut rec.clocks[node.0 as usize];
        *clock += u64::from(advance);
        rec.ring.push(stamped(*clock, rec.now, wall_us));
        *clock
    }) {
        return lamport;
    }
    let lamport = match global_clock(node) {
        Some(clock) if advance => clock.fetch_add(1, Ordering::Relaxed) + 1,
        Some(clock) => clock.load(Ordering::Relaxed),
        None if advance => return 0,
        None => 0,
    };
    let now = GLOBAL_NOW.load(Ordering::Relaxed);
    let wall_us = wall_us.unwrap_or_else(now_us);
    GLOBAL.record(&LOCAL_RING, stamped(lamport, now, Some(wall_us)));
    lamport
}

/// Read `node`'s current Lamport clock without advancing it. Returns 0
/// when tracing is disabled. Synchronous cross-node operations (direct
/// calls that bypass the message layer, e.g. mapping a bunch served by
/// another node) pair this with [`observe`] to record the causal edge the
/// missing message would have carried.
pub fn clock(node: NodeId) -> u64 {
    if !enabled() {
        return 0;
    }
    with_local(|rec| rec.clocks[node.0 as usize])
        .or_else(|| global_clock(node).map(|c| c.load(Ordering::Relaxed)))
        .unwrap_or(0)
}

/// Merge a remote Lamport stamp into `node`'s clock (message delivery):
/// the clock jumps to `max(local, remote)` so the next event at `node`
/// is stamped strictly after both. A no-op when tracing is disabled.
#[inline]
pub fn observe(node: NodeId, remote_lamport: u64) {
    if !enabled() || remote_lamport == 0 {
        return;
    }
    let merge = |clock: &mut u64| *clock = (*clock).max(remote_lamport);
    if with_local(|rec| merge(&mut rec.clocks[node.0 as usize])).is_none() {
        if let Some(clock) = global_clock(node) {
            clock.fetch_max(remote_lamport, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_common::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ev() -> TraceEvent {
        TraceEvent::TokenRelease {
            oid: bmx_common::Oid(7),
        }
    }

    /// The process-wide mode is seen by every thread without a private
    /// recorder; the tests that use it (spans too) or assert it is off
    /// take turns.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_tracing_is_a_no_op() {
        let _serial = serial();
        disable();
        assert!(!enabled());
        assert_eq!(emit(n(0), ev()), 0);
        assert!(take().is_empty());
    }

    #[test]
    fn emit_ticks_the_per_node_clock() {
        install(UNBOUNDED);
        assert_eq!(emit(n(0), ev()), 1);
        assert_eq!(emit(n(0), ev()), 2);
        assert_eq!(emit(n(1), ev()), 1, "clocks are per node");
        let recs = take();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].lamport, 1);
        assert_eq!(recs[1].lamport, 2);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        disable();
    }

    #[test]
    fn observe_merges_remote_clock() {
        install(UNBOUNDED);
        let sent = emit(n(0), ev());
        assert_eq!(sent, 1);
        observe(n(1), sent);
        let delivered = emit(n(1), ev());
        assert!(
            delivered > sent,
            "receive must be stamped after the matching send"
        );
        disable();
    }

    #[test]
    fn snapshot_does_not_consume() {
        install(8);
        emit(n(0), ev());
        emit(n(0), ev());
        assert_eq!(snapshot().len(), 2);
        assert_eq!(snapshot().len(), 2, "snapshot leaves the ring intact");
        assert_eq!(take().len(), 2);
        assert!(take().is_empty(), "take drains");
        disable();
    }

    #[test]
    fn ring_sink_wraparound_keeps_newest() {
        install(4);
        for i in 0..10u64 {
            set_now(i);
            emit(n(0), ev());
        }
        assert_eq!(snapshot().len(), 4);
        let kept: Vec<u64> = take().iter().map(|r| r.tick).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "newest N, oldest first");
        assert!(take().is_empty());
        disable();
    }

    /// Four threads send to their neighbour in the process-wide mode, so
    /// two threads stamp each node's clock at once.
    #[test]
    fn global_mode_stamps_each_node_once_per_event_from_many_threads() {
        const SENDS: u64 = 300;
        let _serial = serial();
        install_global(UNBOUNDED);
        let lane = MsgLane::Dsm;
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let (src, dst) = (n(t), n((t + 1) % 4));
                    for seq in 0..SENDS {
                        let sent = emit(src, TraceEvent::MsgSend { dst, seq, lane });
                        observe(dst, sent);
                        let deliver = TraceEvent::MsgDeliver {
                            src,
                            seq,
                            lane,
                            sent_lamport: sent,
                        };
                        emit(dst, deliver);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("emitter");
        }
        let records = take_global();
        disable_global();
        assert_eq!(
            records.len() as u64,
            4 * SENDS * 2,
            "the rings of exited threads are taken too"
        );
        let mut stamps = std::collections::BTreeSet::new();
        for r in &records {
            assert!(stamps.insert((r.node, r.lamport)), "stamp reused: {r:?}");
            if let TraceEvent::MsgDeliver { sent_lamport, .. } = r.event {
                assert!(r.lamport > sent_lamport, "delivered before sent: {r:?}");
            }
        }
    }

    // ---------------- spans ----------------

    fn spans() -> Vec<TraceRecord> {
        snapshot_global()
    }

    #[test]
    fn disabled_is_inert() {
        let _serial = serial();
        disable_spans();
        assert_eq!(new_flow(), 0);
        assert_eq!(current_flow(), 0);
        let _g = span(SpanKind::Acquire, NodeId(0));
        mark(SpanKind::ReserveClaim, NodeId(0));
        record(SpanKind::MutexWait, NodeId(0), 1, 2);
        drop(_g);
        assert!(spans().is_empty());
    }

    #[test]
    fn spans_record_and_snapshot() {
        let _serial = serial();
        enable_spans(64);
        {
            let _g = span(SpanKind::MutexWait, NodeId(3));
        }
        mark(SpanKind::ReserveClaim, NodeId(3));
        let mine = spans();
        assert!(mine.iter().any(|r| r.node == NodeId(3)
            && matches!(r.event, TraceEvent::Span { kind, .. } if kind == SpanKind::MutexWait)));
        assert!(mine.iter().any(|r| matches!(
            r.event,
            TraceEvent::Span {
                kind: SpanKind::ReserveClaim,
                dur_us: 0,
                ..
            }
        )));
        disable_spans();
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _serial = serial();
        enable_spans(16);
        for i in 0..20u64 {
            record(SpanKind::AcquirePoll, NodeId(0), i, 0);
        }
        let got: Vec<u64> = spans().iter().filter_map(|s| s.wall_us).collect();
        assert_eq!(got, (4..20).collect::<Vec<_>>(), "last-N, oldest first");
        disable_spans();
    }

    #[test]
    fn flow_scope_nests_and_restores() {
        let _serial = serial();
        enable_spans(64);
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
        disable_spans();
    }

    #[test]
    fn reenable_starts_fresh_session() {
        let _serial = serial();
        enable_spans(64);
        mark(SpanKind::AcquireSubmit, NodeId(1));
        assert!(!spans().is_empty());
        enable_spans(64);
        assert_eq!(spans().len(), 0, "re-enable must drop the previous session");
        mark(SpanKind::AcquireSubmit, NodeId(1));
        assert_eq!(spans().len(), 1);
        disable_spans();
    }

    #[test]
    fn span_guard_cancel_records_nothing() {
        let _serial = serial();
        enable_spans(64);
        let mut g = span(SpanKind::Apply, NodeId(0));
        g.cancel();
        drop(g);
        assert_eq!(spans().len(), 0);
        disable_spans();
    }
}
