//! `bmx-metrics`: the cluster-wide metrics plane for the BMX
//! reproduction.
//!
//! The trace plane (`bmx-trace`) answers "what order did things happen
//! in?"; this crate answers "how much, how often, how long?" — and,
//! through its watchdogs, "is something quietly leaking?". It provides:
//!
//! * **A per-node registry** ([`Registry`]) of fixed-identity counters,
//!   gauges, and power-of-two-bucket histograms ([`Ctr`], [`Gge`],
//!   [`Hst`]), plus per-link counters ([`LinkCtr`]) and a per-bunch
//!   live-bytes table. Metric identity is an enum index; recording is a
//!   relaxed atomic op — no strings, hashing, or allocation on the hot
//!   path.
//! * **Exposition**: a flat JSON [`Snapshot`] codec with lossless
//!   round-trip and signed diffs ([`json`]) — what the blackbox and the
//!   chaos soaks write.
//! * **Watchdogs** ([`watchdog`]): drain-based leak detectors (from-space
//!   retention that never drains, monotone scion backlog, retry storms,
//!   stalled Lamport clocks) evaluated on the mode's one clock (the
//!   network tick in the simulation, the supervisor's pulse on real
//!   threads), emitting
//!   [`bmx_trace::TraceEvent::MetricAlarm`] with a causal witness.
//! * **One counting mechanism**: the pre-existing `NodeStats` simulation
//!   counters are atomic cells that the registry binds live
//!   ([`bind_stats`]), so snapshots include them without double
//!   counting.
//!
//! Like tracing, metrics are observational only: no simulation state,
//! RNG draw, or wire byte depends on whether a registry is installed, so
//! a metered run is bit-identical to an unmetered run with the same seed
//! (tier-1 enforces this). When disabled, every free function below is a
//! thread-local flag check.
//!
//! The registry handle is thread-local (the simulated cluster is
//! single-threaded), but the [`Registry`] itself is `Sync` — a dashboard
//! thread may hold the same `Arc` and render concurrently.

#![forbid(unsafe_code)]

mod histogram;
pub mod json;
mod registry;
pub mod watchdog;

pub use histogram::{Histogram, BUCKETS};
pub use registry::{Ctr, Gge, Hst, LinkCtr, LinkScope, NodeScope, Registry, Snapshot};
pub use watchdog::{evaluate_parallel, inject_alarm, WatchdogConfig};

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use bmx_common::{NodeId, NodeStats};

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REGISTRY: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Is a registry installed on this thread? Instrumentation sites that
/// need to *compute* a value before recording it (a table size, a clock
/// delta) should guard on this to keep the disabled path free.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Installs a fresh registry with default watchdog tuning.
pub fn install() -> Arc<Registry> {
    install_with(WatchdogConfig::default())
}

/// Installs a fresh registry with the given watchdog tuning.
pub fn install_with(cfg: WatchdogConfig) -> Arc<Registry> {
    let reg = Arc::new(Registry::new(cfg));
    install_registry(Arc::clone(&reg));
    reg
}

/// Installs an existing registry handle (e.g. one shared with a
/// dashboard thread). Replaces any previously installed registry.
pub fn install_registry(reg: Arc<Registry>) {
    REGISTRY.with(|r| *r.borrow_mut() = Some(reg));
    ENABLED.with(|e| e.set(true));
}

/// Disables metrics and drops this thread's registry handle.
pub fn disable() {
    ENABLED.with(|e| e.set(false));
    REGISTRY.with(|r| *r.borrow_mut() = None);
}

/// This thread's registry handle, if one is installed.
pub fn registry() -> Option<Arc<Registry>> {
    if !enabled() {
        return None;
    }
    REGISTRY.with(|r| r.borrow().clone())
}

#[cold]
fn with_registry(f: impl FnOnce(&Registry)) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow().as_ref() {
            f(reg);
        }
    });
}

/// Adds 1 to `node`'s counter `c`. No-op when disabled.
#[inline]
pub fn bump(node: NodeId, c: Ctr) {
    add(node, c, 1);
}

/// Adds `n` to `node`'s counter `c`. No-op when disabled.
#[inline]
pub fn add(node: NodeId, c: Ctr, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.node(node.0).add(c, n));
}

/// Sets `node`'s gauge `g` to `v`. No-op when disabled.
#[inline]
pub fn gauge_set(node: NodeId, g: Gge, v: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.node(node.0).set(g, v));
}

/// Adds `n` to `node`'s gauge `g`. No-op when disabled.
#[inline]
pub fn gauge_add(node: NodeId, g: Gge, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.node(node.0).gauge_add(g, n));
}

/// Subtracts `n` from `node`'s gauge `g` (saturating). No-op when
/// disabled.
#[inline]
pub fn gauge_sub(node: NodeId, g: Gge, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.node(node.0).gauge_sub(g, n));
}

/// Records `v` into `node`'s histogram `h`. No-op when disabled.
#[inline]
pub fn observe(node: NodeId, h: Hst, v: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.node(node.0).observe(h, v));
}

/// Adds `n` to the `(src, dst)` link counter `c`. No-op when disabled.
#[inline]
pub fn link(src: NodeId, dst: NodeId, c: LinkCtr, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.link(src.0, dst.0).add(c, n));
}

/// Binds `node`'s live simulation-counter cells to the registry (see
/// `NodeStats::handle`). No-op when disabled.
pub fn bind_stats(node: NodeId, stats: NodeStats) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.bind_stats(node.0, stats));
}

/// Records `bunch`'s live bytes as accounted at `node`'s last collection
/// of it. No-op when disabled.
pub fn set_bunch_live_bytes(node: NodeId, bunch: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.set_bunch_live_bytes(node.0, bunch, bytes));
}

/// Clock pulse from the network's `tick()`: runs the watchdogs every
/// [`WatchdogConfig::interval`] ticks. No-op when disabled.
#[inline]
pub fn tick(now: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| {
        // Not `u64::is_multiple_of` (Rust 1.87; the workspace MSRV is
        // 1.75). A zero interval evaluates at tick 0 only, as it did.
        let due = now
            .checked_rem(reg.cfg.interval)
            .map_or(now == 0, |r| r == 0);
        if due {
            watchdog::evaluate(reg, now);
        }
    });
}

/// Snapshot of this thread's registry, or an empty snapshot when
/// disabled.
pub fn snapshot() -> Snapshot {
    registry().map(|r| r.snapshot()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn disabled_metrics_are_a_no_op() {
        disable();
        assert!(!enabled());
        bump(n(0), Ctr::BgcCollections);
        gauge_set(n(0), Gge::ScionTableSize, 9);
        observe(n(0), Hst::BgcPauseMicros, 5);
        link(n(0), n(1), LinkCtr::Send, 1);
        tick(0);
        assert!(registry().is_none());
        assert!(snapshot().entries.is_empty());
    }

    #[test]
    fn install_records_and_snapshot_reads_back() {
        let reg = install();
        bump(n(0), Ctr::BgcCollections);
        add(n(0), Ctr::BgcCollections, 2);
        gauge_add(n(1), Gge::InflightBytes, 100);
        gauge_sub(n(1), Gge::InflightBytes, 40);
        observe(n(2), Hst::AcquireReadTicks, 3);
        link(n(0), n(2), LinkCtr::Bytes, 64);
        let snap = snapshot();
        assert_eq!(snap.get("node0/ctr/bgc_collections"), 3);
        assert_eq!(snap.get("node1/gauge/inflight_bytes"), 60);
        assert_eq!(snap.get("node2/hist/acquire_read_ticks/count"), 1);
        assert_eq!(snap.get("link0-2/bytes"), 64);
        assert_eq!(reg.node(0).ctr(Ctr::BgcCollections), 3, "shared handle");
        disable();
        assert!(registry().is_none());
    }

    #[test]
    fn tick_respects_the_watchdog_interval() {
        let reg = install_with(WatchdogConfig {
            interval: 10,
            retry_depth: 1,
            retry_window: 0,
            ..WatchdogConfig::default()
        });
        tick(0); // primes baselines (queue still empty)
        gauge_set(n(0), Gge::RetryQueueDepth, 5);
        tick(5); // off-interval: ignored
        assert_eq!(reg.alarms(bmx_trace::AlarmKind::RetryStorm), 0);
        tick(10); // evaluates: depth 5 >= 1 sustained >= 0 ticks
        assert_eq!(reg.alarms(bmx_trace::AlarmKind::RetryStorm), 1);
        disable();
    }
}
