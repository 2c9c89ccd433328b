//! The metric registry: fixed per-node metric sets, per-link counters,
//! and a keyed per-bunch gauge table.
//!
//! Metric identity is an enum, not a string: instrumentation sites pay an
//! array index, never a hash or an allocation. The registry grows its
//! per-node scopes on demand (mirroring the trace recorder's clock
//! vector), so installation needs no node count up front.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use bmx_common::{NodeStats, StatKind};
use bmx_trace::AlarmKind;

use crate::histogram::Histogram;
use crate::watchdog::{WatchdogConfig, WatchdogState};

/// Per-node monotone counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Ctr {
    /// Fault-plan transitions that activated at this node (crashes,
    /// restarts, partition heals).
    FaultActivations,
    /// Collections run (BGC or GGC groups) with this node as collector.
    BgcCollections,
    /// Wall-clock microseconds spent in the Roots phase.
    BgcRootsMicros,
    /// Wall-clock microseconds spent in the Trace phase.
    BgcTraceMicros,
    /// Wall-clock microseconds spent in the Update phase.
    BgcUpdateMicros,
    /// Wall-clock microseconds spent in the Sweep phase.
    BgcSweepMicros,
    /// Wall-clock microseconds spent in the Publish phase.
    BgcPublishMicros,
    /// Stale addresses resolved through the segment server's
    /// retired-range routing (from-space reuse aftermath).
    RetiredRouteHits,
    /// Wall-clock microseconds of RVM replay during crash recovery.
    RecoveryReplayMicros,
    /// Wall-clock CPU microseconds of complete recovery pipelines: RVM
    /// replay plus the rejoin-finish work (reconciliation, scion/stub
    /// regeneration). Simulated waiting between the two is measured in
    /// ticks by `StatKind::RecoveryLatencyTicks`, not here.
    RecoveryTotalMicros,
    /// Times the from-space retention gauge decreased (a drain the leak
    /// watchdog credits).
    FromSpaceDrains,
    /// Mutator operations completed through a parallel-runtime node
    /// handle (the numerator of sustained ops/sec).
    ParallelOps,
    /// Envelopes fully applied by this node's parallel-runtime driver
    /// thread. Together with [`Ctr::ParallelOps`] this is the progress
    /// signal the parallel watchdog's stall detector watches.
    ParallelDeliveries,
}

/// Per-node gauges (set to the current value; may go down).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Gge {
    /// Payload bytes this node has sent that are still in flight.
    InflightBytes,
    /// Words retained in retired from-space segments awaiting the reuse
    /// protocol, summed over this node's bunch replicas.
    FromSpaceRetainedWords,
    /// Scions across this node's bunch replicas (the cleaner's backlog).
    ScionTableSize,
    /// Stubs across this node's bunch replicas.
    StubTableSize,
    /// Reports this node still tracks in the retry daemon.
    RetryQueueDepth,
}

/// Per-node histograms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Hst {
    /// Ticks a mutator read acquire waited for its remote grant.
    AcquireReadTicks,
    /// Ticks a mutator write acquire waited for its remote grant.
    AcquireWriteTicks,
    /// Read replicas invalidated per write-token transfer at the owner.
    InvalidationFanout,
    /// Words carried by a token grant's object image (the DSM diff the
    /// grant ships).
    GrantImageWords,
    /// Whole-collection pause, microseconds.
    BgcPauseMicros,
    /// Forwarding hops a mutator access walked before reaching the
    /// current copy.
    ForwardingChainLen,
    /// Ticks between a report's publication and the retry daemon
    /// confirming every destination applied it.
    ReportRetireLagTicks,
    /// Constituent protocol messages coalesced into one DSM envelope.
    /// Values above 1 are rounds the envelope batching actually compressed.
    EnvelopeMsgs,
    /// Wall-clock microseconds a parallel-mode read acquire blocked,
    /// request start to critical-section entry (ticks don't advance
    /// meaningfully under the parallel runtime, so these histograms are
    /// the real-time siblings of the `*Ticks` pair).
    AcquireReadMicros,
    /// Wall-clock microseconds a parallel-mode write acquire blocked.
    AcquireWriteMicros,
    /// Wall-clock microseconds a thread waited for the coarse protocol
    /// mutex, attributed to the node the thread was working for (holder
    /// attribution: a hot node shows up in its *own* wait/hold rows).
    MutexWaitMicros,
    /// Wall-clock microseconds the protocol mutex was held per critical
    /// section, same attribution as [`Hst::MutexWaitMicros`].
    MutexHoldMicros,
    /// Wall-clock microseconds a driver thread spent applying one
    /// delivered envelope (dispatch + staged-send export, lock held).
    DriverApplyMicros,
}

/// Per-(src, dst) link counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum LinkCtr {
    /// Messages accepted for delivery on this link.
    Send,
    /// Messages discarded on this link (loss injection, outages).
    Drop,
    /// Duplicate copies injected on this link.
    Duplicate,
    /// Report resends the retry daemon pushed over this link.
    Retry,
    /// Payload bytes accepted on this link.
    Bytes,
}

impl Ctr {
    pub(crate) const COUNT: usize = 13;
    /// All counters, in index order.
    pub const ALL: [Ctr; Self::COUNT] = [
        Ctr::FaultActivations,
        Ctr::BgcCollections,
        Ctr::BgcRootsMicros,
        Ctr::BgcTraceMicros,
        Ctr::BgcUpdateMicros,
        Ctr::BgcSweepMicros,
        Ctr::BgcPublishMicros,
        Ctr::RetiredRouteHits,
        Ctr::RecoveryReplayMicros,
        Ctr::RecoveryTotalMicros,
        Ctr::FromSpaceDrains,
        Ctr::ParallelOps,
        Ctr::ParallelDeliveries,
    ];
}

impl Gge {
    pub(crate) const COUNT: usize = 5;
    /// All gauges, in index order.
    pub const ALL: [Gge; Self::COUNT] = [
        Gge::InflightBytes,
        Gge::FromSpaceRetainedWords,
        Gge::ScionTableSize,
        Gge::StubTableSize,
        Gge::RetryQueueDepth,
    ];
}

impl Hst {
    pub(crate) const COUNT: usize = 13;
    /// All histograms, in index order.
    pub const ALL: [Hst; Self::COUNT] = [
        Hst::AcquireReadTicks,
        Hst::AcquireWriteTicks,
        Hst::InvalidationFanout,
        Hst::GrantImageWords,
        Hst::BgcPauseMicros,
        Hst::ForwardingChainLen,
        Hst::ReportRetireLagTicks,
        Hst::EnvelopeMsgs,
        Hst::AcquireReadMicros,
        Hst::AcquireWriteMicros,
        Hst::MutexWaitMicros,
        Hst::MutexHoldMicros,
        Hst::DriverApplyMicros,
    ];
}

impl LinkCtr {
    pub(crate) const COUNT: usize = 5;
    /// All link counters, in index order.
    pub const ALL: [LinkCtr; Self::COUNT] = [
        LinkCtr::Send,
        LinkCtr::Drop,
        LinkCtr::Duplicate,
        LinkCtr::Retry,
        LinkCtr::Bytes,
    ];
}

/// Converts a `Debug`-rendered CamelCase metric name to snake_case for
/// exposition (`BgcPauseMicros` -> `bgc_pause_micros`).
pub(crate) fn snake(debug_name: impl std::fmt::Debug) -> String {
    let camel = format!("{debug_name:?}");
    let mut out = String::with_capacity(camel.len() + 4);
    for (i, c) in camel.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// One node's metric block.
#[derive(Default)]
pub struct NodeScope {
    ctrs: [AtomicU64; Ctr::COUNT],
    gges: [AtomicU64; Gge::COUNT],
    hsts: [Histogram; Hst::COUNT],
    /// Live alias of the cluster's `NodeStats` cells for this node, once
    /// bound — satellite of the single-counting-mechanism migration: the
    /// registry exposes the very cells the simulation bumps.
    stats: RwLock<Option<NodeStats>>,
}

impl NodeScope {
    /// Adds to a counter.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.ctrs[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn ctr(&self, c: Ctr) -> u64 {
        self.ctrs[c as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&self, g: Gge, v: u64) {
        self.gges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Adds to a gauge.
    #[inline]
    pub fn gauge_add(&self, g: Gge, n: u64) {
        self.gges[g as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts from a gauge (saturating: a racy double-sub must not
    /// wrap to a colossal reading).
    #[inline]
    pub fn gauge_sub(&self, g: Gge, n: u64) {
        let cell = &self.gges[g as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Reads a gauge.
    pub fn gauge(&self, g: Gge) -> u64 {
        self.gges[g as usize].load(Ordering::Relaxed)
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, h: Hst, v: u64) {
        self.hsts[h as usize].observe(v);
    }

    /// Borrows a histogram.
    pub fn hist(&self, h: Hst) -> &Histogram {
        &self.hsts[h as usize]
    }

    fn bind_stats(&self, stats: NodeStats) {
        *self.stats.write().expect("stats lock") = Some(stats);
    }

    /// Reads one bound `StatKind` counter (0 when unbound).
    pub fn stat(&self, kind: StatKind) -> u64 {
        self.stats
            .read()
            .expect("stats lock")
            .as_ref()
            .map_or(0, |s| s.get(kind))
    }

    fn stats_bound(&self) -> bool {
        self.stats.read().expect("stats lock").is_some()
    }
}

/// One link's counter block.
#[derive(Default)]
pub struct LinkScope {
    ctrs: [AtomicU64; LinkCtr::COUNT],
}

impl LinkScope {
    /// Adds to a link counter.
    #[inline]
    pub fn add(&self, c: LinkCtr, n: u64) {
        self.ctrs[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a link counter.
    pub fn ctr(&self, c: LinkCtr) -> u64 {
        self.ctrs[c as usize].load(Ordering::Relaxed)
    }
}

/// The whole registry. Shareable across threads (`Arc<Registry>`): the
/// hot path touches only relaxed atomics; the scope maps take an
/// uncontended lock on growth and exposition.
pub struct Registry {
    nodes: RwLock<Vec<Arc<NodeScope>>>,
    links: RwLock<BTreeMap<(u32, u32), Arc<LinkScope>>>,
    /// Per-(node, bunch) live bytes at the bunch's last collection.
    bunch_live_bytes: RwLock<BTreeMap<(u32, u64), u64>>,
    /// Alarms fired per detector kind.
    alarms: [AtomicU64; AlarmKind::ALL.len()],
    /// Most recent alarm per node, for liveness dashboards (`bmx_top`).
    last_alarms: Mutex<BTreeMap<u32, AlarmKind>>,
    pub(crate) watchdog: Mutex<WatchdogState>,
    pub(crate) cfg: WatchdogConfig,
}

impl Registry {
    /// Creates an empty registry with the given watchdog tuning.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Registry {
            nodes: RwLock::new(Vec::new()),
            links: RwLock::new(BTreeMap::new()),
            bunch_live_bytes: RwLock::new(BTreeMap::new()),
            alarms: core::array::from_fn(|_| AtomicU64::new(0)),
            last_alarms: Mutex::new(BTreeMap::new()),
            watchdog: Mutex::new(WatchdogState::default()),
            cfg,
        }
    }

    /// The watchdog tuning in force.
    pub fn watchdog_config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// This node's scope, created on demand.
    pub fn node(&self, node: u32) -> Arc<NodeScope> {
        let idx = node as usize;
        {
            let nodes = self.nodes.read().expect("nodes lock");
            if let Some(s) = nodes.get(idx) {
                return Arc::clone(s);
            }
        }
        let mut nodes = self.nodes.write().expect("nodes lock");
        while nodes.len() <= idx {
            nodes.push(Arc::new(NodeScope::default()));
        }
        Arc::clone(&nodes[idx])
    }

    /// Number of node scopes materialized so far.
    pub fn node_count(&self) -> usize {
        self.nodes.read().expect("nodes lock").len()
    }

    /// The `(src, dst)` link's scope, created on demand.
    pub fn link(&self, src: u32, dst: u32) -> Arc<LinkScope> {
        {
            let links = self.links.read().expect("links lock");
            if let Some(s) = links.get(&(src, dst)) {
                return Arc::clone(s);
            }
        }
        let mut links = self.links.write().expect("links lock");
        Arc::clone(links.entry((src, dst)).or_default())
    }

    /// Binds the cluster's live `NodeStats` cells for `node`.
    pub fn bind_stats(&self, node: u32, stats: NodeStats) {
        self.node(node).bind_stats(stats);
    }

    /// Records the live bytes of `bunch` as accounted at `node`'s last
    /// collection of it.
    pub fn set_bunch_live_bytes(&self, node: u32, bunch: u64, bytes: u64) {
        self.bunch_live_bytes
            .write()
            .expect("bunch lock")
            .insert((node, bunch), bytes);
    }

    /// Notes that detector `kind` fired.
    pub(crate) fn count_alarm(&self, kind: AlarmKind) {
        let idx = AlarmKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind");
        self.alarms[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Remembers `kind` as the most recent alarm at `node`.
    pub(crate) fn note_alarm(&self, node: u32, kind: AlarmKind) {
        self.last_alarms
            .lock()
            .expect("last-alarm lock")
            .insert(node, kind);
    }

    /// The most recent watchdog alarm fired at `node`, if any.
    pub fn last_alarm(&self, node: u32) -> Option<AlarmKind> {
        self.last_alarms
            .lock()
            .expect("last-alarm lock")
            .get(&node)
            .copied()
    }

    /// Alarms fired so far for `kind`.
    pub fn alarms(&self, kind: AlarmKind) -> u64 {
        let idx = AlarmKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind");
        self.alarms[idx].load(Ordering::Relaxed)
    }

    /// Total alarms fired across every detector.
    pub fn total_alarms(&self) -> u64 {
        AlarmKind::ALL.iter().map(|&k| self.alarms(k)).sum()
    }

    /// Flattens the whole registry into a point-in-time [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = BTreeMap::new();
        let nodes = self.nodes.read().expect("nodes lock");
        for (i, scope) in nodes.iter().enumerate() {
            for c in Ctr::ALL {
                entries.insert(format!("node{i}/ctr/{}", snake(c)), scope.ctr(c));
            }
            for g in Gge::ALL {
                entries.insert(format!("node{i}/gauge/{}", snake(g)), scope.gauge(g));
            }
            for h in Hst::ALL {
                let hist = scope.hist(h);
                let base = format!("node{i}/hist/{}", snake(h));
                entries.insert(format!("{base}/sum"), hist.sum());
                entries.insert(format!("{base}/count"), hist.count());
                for (bound, cum) in hist.cumulative() {
                    let le = bound.map_or("inf".to_string(), |b| b.to_string());
                    entries.insert(format!("{base}/le_{le}"), cum);
                }
            }
            if scope.stats_bound() {
                for kind in StatKind::ALL {
                    entries.insert(format!("node{i}/stat/{}", snake(kind)), scope.stat(kind));
                }
            }
        }
        drop(nodes);
        for (&(s, d), scope) in self.links.read().expect("links lock").iter() {
            for c in LinkCtr::ALL {
                entries.insert(format!("link{s}-{d}/{}", snake(c)), scope.ctr(c));
            }
        }
        for (&(n, b), &v) in self.bunch_live_bytes.read().expect("bunch lock").iter() {
            entries.insert(format!("bunch/node{n}/b{b}/live_bytes"), v);
        }
        for k in AlarmKind::ALL {
            entries.insert(format!("alarm/{}", snake(k)), self.alarms(k));
        }
        Snapshot { entries }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(WatchdogConfig::default())
    }
}

/// A flat point-in-time reading of every metric, keyed by a stable
/// `scope/kind/name` path. The JSON codec and the diff operate on this —
/// see [`crate::json`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// Metric path -> value, sorted by path.
    pub entries: BTreeMap<String, u64>,
}

impl Snapshot {
    /// The reading at `path`, or 0.
    pub fn get(&self, path: &str) -> u64 {
        self.entries.get(path).copied().unwrap_or(0)
    }

    /// Stamps post-hoc ordering metadata onto the snapshot: the
    /// wall-clock capture time (`meta/captured_unix_ms`, milliseconds
    /// since the Unix epoch) and each node's failure-domain generation
    /// (`node{i}/meta/generation`). Registry readings are monotonic
    /// *within* one process life, but blackbox dumps and chaos-soak
    /// snapshots are compared across threads, runs, and node restarts —
    /// the capture time orders dumps from different threads after the
    /// fact, and the generation says which incarnation of a crashed
    /// node a reading belongs to. Meta entries ride the same flat
    /// `path -> u64` map, so the JSON codec and `diff` handle them
    /// unmodified; plain `Registry::snapshot()` output stays meta-free
    /// (equality tests diff unstamped snapshots).
    pub fn stamp_meta(&mut self, generations: &[(u32, u64)]) {
        let ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.entries.insert("meta/captured_unix_ms".into(), ms);
        for &(node, generation) in generations {
            self.entries
                .insert(format!("node{node}/meta/generation"), generation);
        }
    }

    /// Per-path change from `baseline` to `self`, dropping unchanged
    /// paths. Gauges may move down, so deltas are signed; a path present
    /// on only one side diffs against zero.
    pub fn diff(&self, baseline: &Snapshot) -> BTreeMap<String, i64> {
        let mut out = BTreeMap::new();
        let keys = self.entries.keys().chain(baseline.entries.keys());
        for k in keys {
            let d = self.get(k) as i64 - baseline.get(k) as i64;
            if d != 0 {
                out.insert(k.clone(), d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_index_orders_match_all_arrays() {
        for (i, c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        for (i, g) in Gge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{g:?}");
        }
        for (i, h) in Hst::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{h:?}");
        }
        for (i, l) in LinkCtr::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i, "{l:?}");
        }
    }

    #[test]
    fn snake_case_names() {
        assert_eq!(snake(Hst::BgcPauseMicros), "bgc_pause_micros");
        assert_eq!(snake(LinkCtr::Send), "send");
        assert_eq!(snake(StatKind::GcTokenAcquires), "gc_token_acquires");
    }

    #[test]
    fn gauge_sub_saturates() {
        let s = NodeScope::default();
        s.gauge_add(Gge::InflightBytes, 5);
        s.gauge_sub(Gge::InflightBytes, 9);
        assert_eq!(s.gauge(Gge::InflightBytes), 0);
    }

    #[test]
    fn snapshot_diff_reports_only_changes() {
        let reg = Registry::default();
        reg.node(0).add(Ctr::BgcCollections, 1);
        let base = reg.snapshot();
        reg.node(0).add(Ctr::BgcCollections, 2);
        reg.node(1).set(Gge::RetryQueueDepth, 4);
        reg.link(0, 1).add(LinkCtr::Send, 7);
        let now = reg.snapshot();
        let d = now.diff(&base);
        assert_eq!(d.get("node0/ctr/bgc_collections"), Some(&2));
        assert_eq!(d.get("node1/gauge/retry_queue_depth"), Some(&4));
        assert_eq!(d.get("link0-1/send"), Some(&7));
        assert!(!d.contains_key("node0/ctr/fault_activations"));
        // Gauges can move down: signed delta.
        reg.node(1).set(Gge::RetryQueueDepth, 1);
        let later = reg.snapshot();
        assert_eq!(
            later.diff(&now).get("node1/gauge/retry_queue_depth"),
            Some(&-3)
        );
    }

    #[test]
    fn bound_stats_surface_in_snapshots() {
        let reg = Registry::default();
        let mut stats = NodeStats::new();
        reg.bind_stats(0, stats.handle());
        stats.add(StatKind::MessagesSent, 41);
        let snap = reg.snapshot();
        assert_eq!(snap.get("node0/stat/messages_sent"), 41);
        stats.bump(StatKind::MessagesSent);
        assert_eq!(
            reg.snapshot().get("node0/stat/messages_sent"),
            42,
            "the registry reads the live cells, not a copy"
        );
    }
}
