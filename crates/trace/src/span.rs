//! Wall-clock spans and distributed flows. Every entry point first loads
//! the span switch ([`crate::enable_spans`]) and bails when it is off.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bmx_common::NodeId;

use crate::{record_span, spans_enabled, SpanKind, TraceEvent};

static NEXT_FLOW: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The distributed flow the current thread is working for.
    static FLOW: Cell<u64> = const { Cell::new(0) };
}

/// Microseconds since the trace epoch (the process's first call), the
/// one wall-clock base of every record.
#[inline]
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Records a closed span directly (for callers that already hold both
/// endpoints, e.g. the BGC phase clock).
pub fn record(kind: SpanKind, node: NodeId, start_us: u64, dur_us: u64) {
    if !spans_enabled() {
        return;
    }
    let flow = current_flow();
    record_span(node, start_us, TraceEvent::Span { kind, dur_us, flow });
}

/// Records a zero-duration mark at now (e.g. the reserve-claim instant).
pub fn mark(kind: SpanKind, node: NodeId) {
    if spans_enabled() {
        record(kind, node, now_us(), 0);
    }
}

/// An in-flight span; records on drop. Inert (no start) when spans are
/// off, so guards can sit on hot paths unconditionally.
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    kind: SpanKind,
    node: NodeId,
    /// `Some(f)` pins the flow at creation; `None` reads the thread's
    /// current flow when the guard drops.
    flow: Option<u64>,
    start_us: Option<u64>,
}

impl SpanGuard {
    /// Drops the guard without recording anything.
    pub fn cancel(&mut self) {
        self.start_us = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start_us) = self.start_us.take() {
            let event = TraceEvent::Span {
                kind: self.kind,
                dur_us: now_us().saturating_sub(start_us),
                flow: self.flow.unwrap_or_else(current_flow),
            };
            record_span(self.node, start_us, event);
        }
    }
}

/// Opens a span; the flow id is whatever the thread's current flow is
/// when the guard drops.
#[inline]
pub fn span(kind: SpanKind, node: NodeId) -> SpanGuard {
    open(kind, node, None)
}

/// Opens a span pinned to an explicit flow id.
#[inline]
pub fn span_with_flow(kind: SpanKind, node: NodeId, flow: u64) -> SpanGuard {
    open(kind, node, Some(flow))
}

#[inline]
fn open(kind: SpanKind, node: NodeId, flow: Option<u64>) -> SpanGuard {
    let start_us = spans_enabled().then(now_us);
    SpanGuard {
        kind,
        node,
        flow,
        start_us,
    }
}

/// Mints a fresh nonzero flow id (0 when spans are off, so such runs
/// stamp envelopes with the same 0 they always carried).
pub fn new_flow() -> u64 {
    if !spans_enabled() {
        return 0;
    }
    NEXT_FLOW.fetch_add(1, Ordering::Relaxed)
}

/// The flow the calling thread is currently working for (0 = none).
#[inline]
pub fn current_flow() -> u64 {
    if !spans_enabled() {
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
/// when spans are off. Passing 0 deliberately *clears* the flow for the
/// scope — a driver applying an unstamped envelope must not attribute
/// its work to whatever flow the thread saw last.
pub fn flow_scope(flow: u64) -> FlowScope {
    if !spans_enabled() {
        return FlowScope { prev: None };
    }
    let prev = FLOW.with(|f| {
        let p = f.get();
        f.set(flow);
        p
    });
    FlowScope { prev: Some(prev) }
}
