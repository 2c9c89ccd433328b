//! The deterministic cluster driver.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use bmx_addr::object;
use bmx_addr::server::Protection;
use bmx_addr::{NodeMemory, SegmentServer, Sweep};
use bmx_common::{
    Addr, BmxError, BunchId, Epoch, NodeId, NodeSet, NodeStats, Oid, Result, StatKind,
};
use bmx_dsm::{DsmEngine, DsmPacket, DsmShared, Token};
use bmx_gc::collect::CollectOutcome;
use bmx_gc::{barrier, cleaner, collect, fromspace, CollectStats, GcMsg, GcState, RelocMode};
use bmx_metrics as metrics;
use bmx_net::{Envelope, FaultEvent, MsgClass, Network, NetworkConfig};
use bmx_rvm::{Rvm, RvmOptions};
use bmx_trace::{self as trace, SpanKind, TraceEvent};

use crate::msg::ClusterMsg;
use crate::persist::{self, NodeMeta};
use crate::recovery::{Assignment, ObjView, OrphanView, Recovery, RecoveryOutcome, RejoinMsg};

/// Where a node's incarnation (its rejoin epoch) starts in the OID mint
/// counter: above the node id, which [`Cluster::mint_oid`] puts at bit 40,
/// leaving 2^40 OIDs per incarnation.
const OID_INCARNATION_SHIFT: u32 = 48;
/// Where a node's incarnation starts in its SSP-id counter: 2^40 ids per
/// incarnation.
const SSP_INCARNATION_SHIFT: u32 = 40;
/// Where a node's incarnation starts in the collection epochs of the bunch
/// replicas it creates: 2^32 collections per replica and incarnation.
const EPOCH_INCARNATION_SHIFT: u32 = 32;

/// Construction parameters for a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes, at most [`NodeSet::CAPACITY`].
    pub nodes: u32,
    /// Constant segment size, in 8-byte words.
    pub segment_words: u64,
    /// Network behaviour (latency, loss injection, chaos fault plan).
    pub net: NetworkConfig,
    /// How relocation records propagate (experiment E3 knob).
    pub reloc_mode: RelocMode,
    /// RVM-backed persistence. When set, every BGC is followed by a
    /// background checkpoint of the collected bunches and an amnesia
    /// restart runs the full recovery pipeline against the store. `None`
    /// keeps the cluster purely volatile (the seed behaviour).
    pub persist: Option<PersistConfig>,
    /// DSM envelope coalescing (one envelope per destination per protocol
    /// round). `false` reverts to one envelope per protocol message — the
    /// pre-batching wire behaviour, kept for equivalence testing.
    pub coalesce_dsm: bool,
    /// How long a parallel-runtime blocking acquire
    /// ([`crate::NodeHandle::acquire_write`]) re-polls before giving up
    /// with `WouldBlock`. Ignored by the deterministic simulation, whose
    /// acquires pump the network to completion instead of waiting.
    pub acquire_timeout: std::time::Duration,
}

/// Where (and how aggressively) the cluster persists through RVM.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding one RVM store per node (`<dir>/node<N>`).
    pub dir: PathBuf,
    /// RVM log-truncation scheduling: after a post-BGC checkpoint, truncate
    /// the node's redo log once it exceeds this many bytes (the log has
    /// just been fully applied, so truncation is safe and bounds replay
    /// time). `None` lets the log grow for the whole run.
    pub truncate_log_bytes: Option<u64>,
}

impl PersistConfig {
    /// Persistence under `dir` with the default truncation bound (1 MiB).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            truncate_log_bytes: Some(1 << 20),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            segment_words: 4096,
            net: NetworkConfig::lossless(1),
            reloc_mode: RelocMode::Piggyback,
            persist: None,
            coalesce_dsm: true,
            acquire_timeout: std::time::Duration::from_secs(10),
        }
    }
}

impl ClusterConfig {
    /// A config with `n` nodes and defaults otherwise.
    pub fn with_nodes(n: u32) -> Self {
        ClusterConfig {
            nodes: n,
            ..Default::default()
        }
    }

    /// Sets the parallel runtime's blocking-acquire timeout.
    pub fn with_acquire_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.acquire_timeout = timeout;
        self
    }
}

/// The simulated BMX cluster.
pub struct Cluster {
    /// The shared segment server (BMX-server role).
    pub server: bmx_gc::SharedServer,
    /// The entry-consistency protocol engine.
    pub engine: DsmEngine,
    /// The collector state (also the DSM's `GcIntegration`).
    pub gc: GcState,
    /// Per-node memories.
    pub mems: Vec<NodeMemory>,
    /// Per-node counters.
    pub stats: Vec<NodeStats>,
    /// The simulated network.
    pub net: Network<ClusterMsg>,
    next_oid: Vec<u64>,
    /// In-flight incremental collections, one slot per node.
    incrementals: Vec<Option<bmx_gc::IncrementalBgc>>,
    /// Highest sequence number delivered per channel, `last_seq[dst][src]`,
    /// for duplicate-delivery accounting (duplicates are delivered anyway —
    /// the loss-tolerant handlers are idempotent).
    last_seq: Vec<Vec<u64>>,
    /// Persistence configuration (`None` = purely volatile cluster).
    persist: Option<PersistConfig>,
    /// Lazily opened per-node RVM stores.
    rvms: Vec<Option<Rvm>>,
    /// In-progress crash-amnesia recoveries, one slot per node.
    recoveries: Vec<Option<Recovery>>,
    /// Rejoin epochs consumed per node (strictly increasing across
    /// restarts, and restored from the persisted manifest so even a
    /// crash-of-the-recovery cannot reuse one).
    rejoin_epochs: Vec<u64>,
    /// Every completed recovery, for the E9 experiment and the chaos suite.
    pub recovery_log: Vec<RecoveryOutcome>,
    /// Which node slots hold live state here: all of them in the
    /// deterministic simulation; in the parallel runtime each node's state
    /// lives in a cluster of its own (its *site*) and visits another only
    /// while lent ([`Cluster::swap_slot`]).
    resident: Vec<bool>,
}

impl Cluster {
    /// Builds a cluster.
    pub fn new(cfg: ClusterConfig) -> Self {
        let server = bmx_gc::SharedServer::new(SegmentServer::new(cfg.segment_words));
        Self::build(cfg, server, None)
    }

    /// Builds `node`'s *site* of a parallel-runtime cluster: the same
    /// struct-of-arrays shape on the cluster-wide `server`, with only
    /// `node`'s slot resident. Every protocol entry point indexes the
    /// acting node's slot alone, so a site serves its node without touching
    /// another's; a call that reads a second node borrows that slot with
    /// [`Cluster::swap_slot`] first.
    pub(crate) fn site(cfg: ClusterConfig, server: bmx_gc::SharedServer, node: NodeId) -> Self {
        Self::build(cfg, server, Some(node))
    }

    fn build(cfg: ClusterConfig, server: bmx_gc::SharedServer, only: Option<NodeId>) -> Self {
        // The DSM keeps its per-replica node sets in one word.
        assert!(
            cfg.nodes as usize <= NodeSet::CAPACITY,
            "a cluster has at most {} nodes, got {}",
            NodeSet::CAPACITY,
            cfg.nodes
        );
        let mut gc = GcState::new(cfg.nodes as usize, server.clone());
        gc.reloc_mode = cfg.reloc_mode;
        let mut engine = DsmEngine::new(cfg.nodes as usize);
        engine.set_coalescing(cfg.coalesce_dsm);
        let cluster = Cluster {
            server,
            engine,
            gc,
            mems: (0..cfg.nodes).map(|i| NodeMemory::new(NodeId(i))).collect(),
            stats: (0..cfg.nodes).map(|_| NodeStats::new()).collect(),
            net: Network::new(cfg.net),
            next_oid: vec![0; cfg.nodes as usize],
            incrementals: (0..cfg.nodes).map(|_| None).collect(),
            last_seq: vec![vec![0; cfg.nodes as usize]; cfg.nodes as usize],
            persist: cfg.persist,
            rvms: (0..cfg.nodes).map(|_| None).collect(),
            recoveries: (0..cfg.nodes).map(|_| None).collect(),
            rejoin_epochs: vec![0; cfg.nodes as usize],
            recovery_log: Vec::new(),
            resident: (0..cfg.nodes)
                .map(|i| only.is_none() || only == Some(NodeId(i)))
                .collect(),
        };
        cluster.bind_metrics();
        cluster
    }

    /// Whether `node`'s slot holds its live state here.
    pub fn is_resident(&self, node: NodeId) -> bool {
        self.resident.get(node.0 as usize) == Some(&true)
    }

    /// Exchanges everything this cluster and `other` hold for `node`: its
    /// memory, counters, protocol and collector state, OID and rejoin-epoch
    /// counters, in-flight incremental collection, RVM store and recovery,
    /// and the sequence numbers of the links it sends and receives on. The
    /// parallel runtime lends a slot this way, under both sites' locks, and
    /// calls it again to hand the slot back.
    pub(crate) fn swap_slot(&mut self, node: NodeId, other: &mut Cluster) {
        use std::mem::swap;
        let n = node.0 as usize;
        swap(&mut self.mems[n], &mut other.mems[n]);
        swap(&mut self.stats[n], &mut other.stats[n]);
        self.engine.swap_node(node, &mut other.engine);
        swap(&mut self.gc.nodes[n], &mut other.gc.nodes[n]);
        swap(&mut self.next_oid[n], &mut other.next_oid[n]);
        swap(&mut self.incrementals[n], &mut other.incrementals[n]);
        swap(&mut self.rvms[n], &mut other.rvms[n]);
        swap(&mut self.recoveries[n], &mut other.recoveries[n]);
        swap(&mut self.rejoin_epochs[n], &mut other.rejoin_epochs[n]);
        swap(&mut self.last_seq[n], &mut other.last_seq[n]);
        self.net.swap_link_seqs(node, &mut other.net);
        swap(&mut self.resident[n], &mut other.resident[n]);
    }

    /// Moves what `other` has *counted* into this cluster — the staging
    /// network's traffic counters and the recovery log — so a caller holding
    /// every site sees cluster-wide totals here. Nothing is handed back:
    /// the sums over all sites are what they were.
    pub(crate) fn absorb_totals(&mut self, other: &mut Cluster) {
        self.net.absorb_stats(&mut other.net);
        self.recovery_log.append(&mut other.recovery_log);
    }

    /// Binds every node's live simulation-counter cells to the installed
    /// metrics registry (the single-counting-mechanism rule: snapshots
    /// read the very cells the cluster bumps). Run at
    /// construction; call again if a registry is installed afterwards.
    /// No-op while metrics are disabled.
    pub fn bind_metrics(&self) {
        if !metrics::enabled() {
            return;
        }
        // Resident slots only: a parallel-runtime site binding another
        // node's placeholder would unbind that node's real counters.
        for (i, s) in self.stats.iter().enumerate() {
            if self.resident[i] {
                metrics::bind_stats(NodeId(i as u32), s.handle());
            }
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.mems.len() as u32
    }

    /// Mints a fresh OID at `node`.
    pub fn mint_oid(&mut self, node: NodeId) -> Oid {
        let c = &mut self.next_oid[node.0 as usize];
        *c += 1;
        Oid(((node.0 as u64 + 1) << 40) | *c)
    }

    // ------------------------------------------------------------------
    // Message plumbing.
    // ------------------------------------------------------------------

    /// Runs `f` on the DSM engine, with the rest of the cluster lent as the
    /// state the engine shares with the collector and its sends staged on
    /// the network as DSM-class messages.
    pub(crate) fn with_engine<R>(
        &mut self,
        f: impl FnOnce(
            &mut DsmEngine,
            &mut DsmShared<'_>,
            &mut dyn FnMut(NodeId, NodeId, DsmPacket),
        ) -> R,
    ) -> R {
        let Cluster {
            engine,
            gc,
            mems,
            stats,
            net,
            ..
        } = self;
        let mut sh = DsmShared { mems, stats, gc };
        let mut send = |s: NodeId, d: NodeId, p: DsmPacket| {
            net.send(s, d, MsgClass::Dsm, ClusterMsg::Dsm(p));
        };
        f(engine, &mut sh, &mut send)
    }

    /// Runs `f` on the collector state, with every node's memory and
    /// `node`'s counters lent beside it. The engine is lent immutably — the
    /// collector cannot drive the protocol — and nothing here sends: what
    /// the collector wants sent it returns.
    fn with_gc<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut GcState, &DsmEngine, &mut [NodeMemory], &mut NodeStats) -> R,
    ) -> R {
        let Cluster {
            engine,
            gc,
            mems,
            stats,
            ..
        } = self;
        let r = f(gc, engine, mems, &mut stats[node.0 as usize]);
        self.report_sweep(node);
        r
    }

    /// Reports a sweep `node` just made (`GcNodeState::swept`) to the
    /// server, with the node's link watermarks as they stand before the
    /// call that swept sends anything: per link, the last sequence number
    /// the node sent and the highest it applied. A sweep made while an
    /// incremental collection runs here does not count (its gray stack may
    /// still hold swept addresses), and with persistence on one counts only
    /// once a checkpoint follows it.
    fn report_sweep(&mut self, node: NodeId) {
        let n = node.0 as usize;
        let Some(seen) = self.gc.node_mut(node).swept.take() else {
            return;
        };
        if self.incrementals[n].is_some() {
            return;
        }
        let sweep = Sweep {
            seen,
            sent: (0..self.nodes())
                .map(|d| self.net.sent_seq(node, NodeId(d)))
                .collect(),
            applied: self.last_seq[n].clone(),
            durable: self.persist.is_none(),
        };
        self.server.borrow_mut().note_sweep(node, sweep);
    }

    /// Sends a GC message, classing and counting it.
    pub fn send_gc(&mut self, src: NodeId, dst: NodeId, msg: GcMsg) {
        let class = match &msg {
            GcMsg::ScionCreate { .. } => MsgClass::ScionMessage,
            GcMsg::Report(_) | GcMsg::TableReq { .. } => MsgClass::StubTable,
            _ => MsgClass::GcBackground,
        };
        self.stats[src.0 as usize].bump(StatKind::MessagesSent);
        self.net.send(src, dst, class, ClusterMsg::Gc(msg));
    }

    /// Delivers every in-flight message (and the cascades it triggers), tick
    /// by tick. No cleaner asks for a table here: chaos runs drive time with
    /// [`Cluster::step`]. A parallel-runtime site has nothing in
    /// flight here (its sends leave through the network's egress), so there
    /// this returns at once. On an error, what was not yet applied stays in
    /// flight for the next call.
    pub fn pump(&mut self) -> Result<()> {
        while self.net.in_flight() > 0 {
            self.tick()?;
        }
        Ok(())
    }

    /// The one way in for an envelope, in both modes (the simulator's tick;
    /// on threads, whoever holds the receiving node's site lock): stamps its
    /// arrival ([`Network::note_delivery`]) and applies it. An envelope that
    /// errors is not applied past the error point, and the error surfaces.
    pub fn deliver(&mut self, env: Envelope<ClusterMsg>) -> Result<()> {
        // Cascading sends inherit the envelope's span flow; an unstamped
        // envelope (span 0) clears the thread's last one.
        let _flow = trace::flow_scope(env.span);
        Network::note_delivery(&env);
        let at = env.dst.0 as usize;
        let last = &mut self.last_seq[at][env.src.0 as usize];
        if env.seq.0 <= *last {
            // A duplication fault: deliver anyway (the loss-tolerant
            // handlers are idempotent by design) but account it.
            self.stats[at].bump(StatKind::DuplicateDeliveries);
        } else {
            *last = env.seq.0;
        }
        // A node mid-recovery has no protocol state to serve from. Rejoin
        // traffic always lands; reports and scion-creates are idempotent
        // and exactly what regeneration wants; everything else is dropped
        // as if lost, and senders recover the way they recover from loss:
        // a token requester asks again (the simulator's next acquire, the
        // threads' backoff nudge), a cleaner asks for the table later.
        if self.recoveries[at].is_some()
            && !matches!(
                env.payload,
                ClusterMsg::Rejoin(_)
                    | ClusterMsg::Gc(GcMsg::Report(_))
                    | ClusterMsg::Gc(GcMsg::ScionCreate { .. })
            )
        {
            return Ok(());
        }
        match env.payload {
            ClusterMsg::Dsm(pkt) => self.dispatch_dsm(env.src, env.dst, pkt),
            ClusterMsg::Gc(msg) => self.dispatch_gc(env.src, env.dst, msg),
            ClusterMsg::Rejoin(msg) => self.dispatch_rejoin(env.src, env.dst, msg),
        }
    }

    /// Advances the cluster's background clock by `ticks`: each tick
    /// delivers due messages, accounts fault transitions (partition heals,
    /// crash/restarts), and lets every node ask for the tables it has not
    /// heard for a while ([`Cluster::request_tables`]). This — not
    /// [`Cluster::pump`] — drives chaos runs, where time must pass for
    /// partitions to heal and lost tables to be asked for again.
    pub fn step(&mut self, ticks: u64) -> Result<()> {
        for _ in 0..ticks {
            self.tick()?;
            let now = self.net.now();
            for node in (0..self.nodes()).map(NodeId) {
                self.request_tables(node, now);
            }
        }
        Ok(())
    }

    /// Sends `node`'s due table requests ([`cleaner::table_requests`]) at
    /// tick `now`: the simulator's clock from [`Cluster::step`], the
    /// supervisor's pulse on threads. A node mid-recovery asks for nothing:
    /// its scions are still being regenerated from the rejoin replies.
    pub(crate) fn request_tables(&mut self, node: NodeId, now: u64) {
        if self.in_recovery(node) {
            return;
        }
        for (source, req) in cleaner::table_requests(&mut self.gc, &self.engine, node, now) {
            self.stats[node.0 as usize].bump(StatKind::TablePulls);
            self.send_gc(node, source, req);
        }
    }

    /// One simulator tick: advance the clock, [`Cluster::deliver`] each due
    /// envelope the network's schedule pops (latency ≥ 1 keeps this tick's
    /// sends out of it), then account the tick's fault transitions.
    fn tick(&mut self) -> Result<()> {
        self.net.advance();
        while let Some(env) = self.net.pop_due() {
            self.deliver(env)?;
        }
        self.note_fault_events()
    }

    /// Steps until the network is idle, or `max_ticks` elapse. Returns the
    /// number of ticks consumed.
    pub fn settle(&mut self, max_ticks: u64) -> Result<u64> {
        let mut used = 0;
        while used < max_ticks && self.net.in_flight() > 0 {
            self.step(1)?;
            used += 1;
        }
        Ok(used)
    }

    /// Turns fault transitions observed by the network into per-node
    /// counters, wipes the volatile state of crashed nodes, and launches
    /// the recovery pipeline of those that restart.
    fn note_fault_events(&mut self) -> Result<()> {
        let mut recovering = Vec::new();
        for ev in self.net.drain_fault_events() {
            match ev {
                FaultEvent::PartitionHealed { members } => {
                    for n in members {
                        if let Some(s) = self.stats.get_mut(n.0 as usize) {
                            s.bump(StatKind::PartitionsHealed);
                        }
                    }
                }
                FaultEvent::NodeCrashed { node } => self.amnesia_wipe(node)?,
                FaultEvent::NodeRestarted { node } => {
                    if let Some(s) = self.stats.get_mut(node.0 as usize) {
                        s.bump(StatKind::NodeRestarts);
                    }
                    recovering.push(node);
                }
            }
        }
        for node in recovering {
            self.begin_recovery(node)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash-amnesia recovery.
    // ------------------------------------------------------------------

    /// Discards every piece of `node`'s volatile state at the instant of an
    /// amnesia crash: memory image, OID counter, object directory,
    /// scion/stub tables and cleaner epochs and table-request schedules,
    /// DSM token/ownership caches, incremental-collection state, and
    /// duplicate-tracking sequence numbers. The network itself drops the node's reliable
    /// in-flight traffic ([`bmx_net::FaultStats::amnesia_dropped`]).
    /// Per-node counters survive on purpose — they model the
    /// experimenter's instrumentation, not node state, and
    /// `NodeStats::since` requires monotonicity. No rejoin waits for the
    /// dead incarnation's answer any longer ([`Cluster::stop_awaiting`]).
    fn amnesia_wipe(&mut self, node: NodeId) -> Result<()> {
        let n = node.0 as usize;
        self.mems[n] = NodeMemory::new(node);
        self.gc.nodes[n] = bmx_gc::GcNodeState::new(node);
        self.next_oid[n] = 0;
        self.engine.amnesia_reset(node);
        self.incrementals[n] = None;
        self.recoveries[n] = None;
        self.last_seq[n].fill(0);
        for from_node in &mut self.last_seq {
            from_node[n] = 0;
        }
        // The node no longer maps anything; recovery (or a fresh map_bunch)
        // re-registers the mappings it regains. No route is reclaimed until
        // it has recovered and swept again.
        {
            let mut srv = self.server.borrow_mut();
            srv.forget_mappings(node);
            srv.node_down(node);
        }
        self.stats[n].bump(StatKind::AmnesiaWipes);
        self.stop_awaiting(node)
    }

    /// Stops every rejoin from waiting for `down`'s reply, and finishes a
    /// rejoin that now waits for nobody. A crashed peer lost the request or
    /// its answer, and it never answers by itself: once back, it asks for
    /// the rejoining node's views with its own request. Called at the wipe:
    /// the simulator's crash, and on threads the supervisor's restart of
    /// the crashed node (the first moment the cluster's state learns of
    /// the crash there).
    fn stop_awaiting(&mut self, down: NodeId) -> Result<()> {
        for node in (0..self.nodes()).map(NodeId) {
            let Some(rec) = self.recoveries[node.0 as usize].as_mut() else {
                continue;
            };
            if rec.awaiting.remove(&down) && rec.awaiting.is_empty() {
                self.finish_recovery(node)?;
            }
        }
        Ok(())
    }

    /// Opens (lazily) the node's RVM store under the configured directory.
    fn open_rvm(&mut self, node: NodeId) -> Result<()> {
        let n = node.0 as usize;
        if self.rvms[n].is_some() {
            return Ok(());
        }
        let Some(cfg) = &self.persist else {
            return Ok(());
        };
        let dir = cfg.dir.join(format!("node{}", node.0));
        self.rvms[n] = Some(Rvm::open(&dir, RvmOptions::default())?);
        Ok(())
    }

    /// Whether `node` is mid crash-amnesia recovery (restarted, rejoin
    /// handshake not yet complete). While true, its mutator operations fail
    /// and non-idempotent traffic addressed to it is dropped.
    pub fn in_recovery(&self, node: NodeId) -> bool {
        self.recoveries[node.0 as usize].is_some()
    }

    /// Crash-amnesia restart driven from *outside* the simulated fault
    /// plane: wipes the node's volatile state and launches the recovery
    /// pipeline, exactly as a [`bmx_net::FaultEvent`] crash/restart pair
    /// would. The parallel runtime's supervisor calls this (holding every
    /// site, all slots lent to this cluster) to revive a node whose driver
    /// crashed; the `Rejoin` requests leave through the egress as they are
    /// sent, so surviving drivers can answer them.
    pub fn restart_with_amnesia(&mut self, node: NodeId) -> Result<()> {
        // A crash *during* recovery simply starts over: the wipe clears the
        // partial recovery and the epoch bump makes stale replies inert.
        self.amnesia_wipe(node)?;
        if let Some(s) = self.stats.get_mut(node.0 as usize) {
            s.bump(StatKind::NodeRestarts);
        }
        self.begin_recovery(node)
    }

    /// Launches the recovery pipeline of an amnesia-restarted node:
    /// stage 1 (RVM replay) synchronously, then stage 2 (the epoch-based
    /// rejoin handshake, [`crate::recovery`]) by broadcasting the
    /// `Request`. Stage 3 (scion/stub regeneration) happens in
    /// [`Cluster::finish_recovery`] when the last `Reply` arrives. With no
    /// reachable peer it runs at once, and the node claims everything it
    /// recovered (the single-node scenario of experiment E9).
    fn begin_recovery(&mut self, node: NodeId) -> Result<()> {
        let n = node.0 as usize;
        self.rejoin_epochs[n] += 1;
        let started_at = self.net.now();
        let replay_start = trace::now_us();
        let mut recovered: Vec<(Oid, BunchId)> = Vec::new();
        if self.persist.is_some() {
            self.open_rvm(node)?;
            if let Some(mut rvm) = self.rvms[n].take() {
                let replay = persist::recover_node_meta(node, &mut rvm).and_then(|meta| {
                    let Some(meta) = meta else { return Ok(()) };
                    self.next_oid[n] = self.next_oid[n].max(meta.next_oid);
                    self.rejoin_epochs[n] = self.rejoin_epochs[n].max(meta.rejoin_epoch + 1);
                    let ns = self.gc.node_mut(node);
                    ns.next_ssp = ns.next_ssp.max(meta.next_ssp);
                    self.begin_incarnation(node);
                    // The incarnation is on disk before it mints anything: a
                    // crash before the next checkpoint restarts above it.
                    let durable = NodeMeta {
                        rejoin_epoch: self.rejoin_epochs[n],
                        ..meta.clone()
                    };
                    persist::checkpoint_node_meta(self, node, &mut rvm, &durable)?;
                    for &bunch in &meta.bunches {
                        let (_, oids) = persist::recover_bunch_live(self, node, bunch, &mut rvm)?;
                        recovered.extend(oids.into_iter().map(|o| (o, bunch)));
                    }
                    // Roots go back only after the objects they name exist.
                    for addr in meta.roots {
                        self.gc.node_mut(node).add_root(addr);
                    }
                    Ok(())
                });
                self.rvms[n] = Some(rvm);
                replay?;
                self.restore_stubs(node, &recovered)?;
            }
        }
        self.begin_incarnation(node);
        let epoch = self.rejoin_epochs[n];
        let replay_micros = trace::now_us().saturating_sub(replay_start);
        trace::record(SpanKind::RecoveryReplay, node, replay_start, replay_micros);
        trace::emit(node, TraceEvent::RecoveryBegin { epoch });
        let peers: BTreeSet<NodeId> = (0..self.nodes())
            .map(NodeId)
            .filter(|&p| p != node && !self.net.is_down(p))
            .collect();
        let alone = peers.is_empty();
        for &p in &peers {
            self.stats[n].bump(StatKind::MessagesSent);
            self.net.send(
                node,
                p,
                MsgClass::Dsm,
                ClusterMsg::Rejoin(RejoinMsg::Request {
                    epoch,
                    recovered: recovered.clone(),
                }),
            );
        }
        self.recoveries[n] = Some(Recovery {
            epoch,
            recovered,
            awaiting: peers,
            started_at,
            replay_micros,
            views: BTreeMap::new(),
            orphans: BTreeMap::new(),
            reports: Vec::new(),
        });
        if alone {
            self.finish_recovery(node)?;
        }
        Ok(())
    }

    /// Starts `node`'s id mints and collection epochs in its incarnation —
    /// the rejoin epoch, one per restart and persisted — so the restarted
    /// node mints no OID or SSP id its dead incarnation may have minted
    /// after its last checkpoint (a peer may still hold an object or a
    /// scion under it), and every table it publishes is newer than any its
    /// dead incarnation published (a peer's staleness gate would discard
    /// it, or take a different table for one it already applied).
    fn begin_incarnation(&mut self, node: NodeId) {
        let n = node.0 as usize;
        let incarnation = self.rejoin_epochs[n];
        self.next_oid[n] = self.next_oid[n].max(incarnation << OID_INCARNATION_SHIFT);
        let ns = self.gc.node_mut(node);
        ns.next_ssp = ns.next_ssp.max(incarnation << SSP_INCARNATION_SHIFT);
        ns.epoch_base = Epoch(incarnation << EPOCH_INCARNATION_SHIFT);
    }

    /// Gives each inter-bunch pointer the replay restored its stub back.
    /// Stub tables are not checkpointed, and without the stub the node's
    /// tables would not justify the scion the pointer needs: a peer that
    /// restarts later rebuilds its scions from those tables and would
    /// reclaim the target. Each pointer is stored again through the write
    /// barrier, which mints a fresh SSP id (the counter resumed above the
    /// checkpointed one) and creates the scion or sends its scion-message.
    fn restore_stubs(&mut self, node: NodeId, recovered: &[(Oid, BunchId)]) -> Result<()> {
        let n = node.0 as usize;
        for &(oid, bunch) in recovered {
            let Some(addr) = self.gc.node(node).directory.addr_of(oid) else {
                continue;
            };
            let src = self.mems[n].position(addr)?;
            for (field, target) in object::ref_fields(&self.mems[n], addr)? {
                let cur = self.gc.node(node).directory.resolve(target);
                if self.held_bunch(node, cur).unwrap_or(bunch) == bunch {
                    continue;
                }
                let Cluster {
                    gc, mems, stats, ..
                } = self;
                let out =
                    barrier::write_ref(gc, node, &mut mems[n], &mut stats[n], src, field, target)?;
                if let Some((dst, msg)) = out {
                    self.send_gc(node, dst, msg);
                }
            }
        }
        Ok(())
    }

    fn dispatch_rejoin(&mut self, src: NodeId, dst: NodeId, msg: RejoinMsg) -> Result<()> {
        match msg {
            RejoinMsg::Request { epoch, recovered } => {
                self.handle_rejoin_request(src, dst, epoch, recovered)
            }
            RejoinMsg::Reply {
                epoch,
                from,
                views,
                orphans,
                reports,
            } => self.handle_rejoin_reply(dst, epoch, from, views, orphans, reports),
            RejoinMsg::Assign { assignments, .. } => {
                for a in assignments {
                    if a.owner == dst {
                        self.engine.rejoin_adopt_owner(
                            dst,
                            a.oid,
                            &a.replicas,
                            &a.readers,
                            a.handoffs,
                        );
                    } else {
                        self.engine.set_owner_hint(dst, a.oid, a.owner);
                    }
                }
                Ok(())
            }
        }
    }

    /// A surviving peer answers a rejoin `Request` from `src`: purge every
    /// piece of protocol state that waits on the crashed incarnation, then
    /// reply with views, orphans and fresh reports.
    fn handle_rejoin_request(
        &mut self,
        src: NodeId,
        dst: NodeId,
        epoch: u64,
        recovered: Vec<(Oid, BunchId)>,
    ) -> Result<()> {
        self.with_engine(|e, sh, send| e.purge_peer(dst, src, sh, send))?;
        let recovered_set: BTreeSet<Oid> = recovered.iter().map(|&(o, _)| o).collect();
        let views: Vec<ObjView> = recovered
            .iter()
            .map(|&(oid, _)| match self.engine.obj_state(dst, oid) {
                Some(st) => ObjView {
                    oid,
                    holds_replica: true,
                    is_owner: st.is_owner,
                    has_token: st.token != Token::None,
                    owner_hint: st.owner_hint,
                    handoffs: st.handoffs,
                },
                None => {
                    // A reclaimed replica still testifies to the handoffs
                    // it saw.
                    let (owner_hint, handoffs) = self.engine.departed(dst, oid).unwrap_or((dst, 0));
                    ObjView {
                        oid,
                        holds_replica: false,
                        is_owner: false,
                        has_token: false,
                        owner_hint,
                        handoffs,
                    }
                }
            })
            .collect();
        let orphans: Vec<OrphanView> = self
            .engine
            .replicas(dst)
            .into_iter()
            .filter(|(oid, st)| {
                !st.is_owner && st.owner_hint == src && !recovered_set.contains(oid)
            })
            .map(|(oid, st)| OrphanView {
                oid,
                bunch: st.bunch,
                has_token: st.token != Token::None,
                handoffs: st.handoffs,
            })
            .collect();
        let bunches: Vec<BunchId> = self.gc.node(dst).bunches.keys().copied().collect();
        let mut reports = Vec::new();
        for b in bunches {
            if let Ok(r) = self.build_report(dst, b) {
                reports.push(r);
            }
        }
        self.stats[dst.0 as usize].bump(StatKind::MessagesSent);
        self.net.send(
            dst,
            src,
            MsgClass::Dsm,
            ClusterMsg::Rejoin(RejoinMsg::Reply {
                epoch,
                from: dst,
                views,
                orphans,
                reports,
            }),
        );
        Ok(())
    }

    /// The recovering node accumulates a peer's `Reply`; the last one
    /// triggers [`Cluster::finish_recovery`].
    fn handle_rejoin_reply(
        &mut self,
        dst: NodeId,
        epoch: u64,
        from: NodeId,
        views: Vec<ObjView>,
        orphans: Vec<OrphanView>,
        reports: Vec<bmx_gc::ReachabilityReport>,
    ) -> Result<()> {
        let n = dst.0 as usize;
        let complete = {
            let Some(rec) = self.recoveries[n].as_mut() else {
                return Ok(()); // A stale reply from an earlier epoch.
            };
            if rec.epoch != epoch {
                return Ok(());
            }
            for v in views {
                rec.views.entry(v.oid).or_default().push((from, v));
            }
            for o in orphans {
                rec.orphans.entry(o.oid).or_default().push((from, o));
            }
            rec.reports.extend(reports);
            rec.awaiting.remove(&from);
            rec.awaiting.is_empty()
        };
        if complete {
            self.finish_recovery(dst)?;
        }
        Ok(())
    }

    /// Stages 2 (conclusion) and 3 of the pipeline, run when the last peer
    /// `Reply` arrives: reconcile ownership without moving any token a
    /// survivor holds, re-home orphans, and regenerate scions from the
    /// collected reports.
    fn finish_recovery(&mut self, node: NodeId) -> Result<()> {
        let n = node.0 as usize;
        let Some(rec) = self.recoveries[n].take() else {
            return Ok(());
        };
        let mut assignments: Vec<Assignment> = Vec::new();
        let no_views: Vec<(NodeId, ObjView)> = Vec::new();
        for &(oid, bunch) in &rec.recovered {
            let views = rec.views.get(&oid).unwrap_or(&no_views);
            // Where ownership is, as far as the survivors can tell: at the
            // one that says it owns the object; failing that, with the
            // grantee of the last handoff any of them made (the highest
            // count). If that grantee is a survivor, the write grant was
            // still on its way while both ends answered; only if it is
            // this node did ownership die in the crash.
            let last_handoff = views
                .iter()
                .map(|(_, v)| v)
                .filter(|v| v.handoffs > 0)
                .max_by_key(|v| v.handoffs);
            let owner = views
                .iter()
                .find(|(_, v)| v.is_owner)
                .map(|&(p, _)| p)
                .or_else(|| last_handoff.map(|v| v.owner_hint).filter(|&to| to != node));
            if let Some(owner) = owner {
                // A survivor owns the object (it took the token over before
                // the crash): the recovered image is just a stale replica.
                // Demotion cannot violate the Section-5 acquire invariants —
                // no token moves, and the next acquire synchronizes.
                self.with_engine(|e, sh, send| {
                    e.register_mapped_replica(node, oid, bunch, owner, sh, send)
                });
            } else {
                let holders: Vec<NodeId> = views
                    .iter()
                    .filter(|(_, v)| v.holds_replica)
                    .map(|&(p, _)| p)
                    .collect();
                let readers: Vec<NodeId> = views
                    .iter()
                    .filter(|(_, v)| v.holds_replica && v.has_token)
                    .map(|&(p, _)| p)
                    .collect();
                let handoffs = last_handoff.map_or(0, |v| v.handoffs) + 1;
                self.engine
                    .rejoin_claim_owner(node, oid, bunch, &holders, &readers, handoffs);
                assignments.push(Assignment {
                    oid,
                    bunch,
                    owner: node,
                    replicas: holders,
                    readers,
                    handoffs,
                });
            }
        }
        // Orphans: the authoritative copy died with the crash; re-home each
        // to a surviving holder, preferring one whose token makes its copy
        // current, then the lowest id for determinism.
        let mut orphans_adopted = 0usize;
        for (&oid, holders) in &rec.orphans {
            let with_token = holders.iter().filter(|(_, o)| o.has_token);
            let assignee = with_token
                .clone()
                .map(|&(p, _)| p)
                .min()
                .or_else(|| holders.iter().map(|&(p, _)| p).min());
            let Some(owner) = assignee else { continue };
            assignments.push(Assignment {
                oid,
                bunch: holders[0].1.bunch,
                owner,
                replicas: holders
                    .iter()
                    .map(|&(p, _)| p)
                    .filter(|&p| p != owner)
                    .collect(),
                readers: with_token
                    .map(|&(p, _)| p)
                    .filter(|&p| p != owner)
                    .collect(),
                handoffs: holders.iter().map(|(_, o)| o.handoffs).max().unwrap_or(0) + 1,
            });
            orphans_adopted += 1;
            self.stats[n].bump(StatKind::RejoinOrphansAdopted);
        }
        if !assignments.is_empty() {
            for p in (0..self.nodes()).map(NodeId) {
                if p == node || self.net.is_down(p) {
                    continue;
                }
                self.stats[n].bump(StatKind::MessagesSent);
                self.net.send(
                    node,
                    p,
                    MsgClass::Dsm,
                    ClusterMsg::Rejoin(RejoinMsg::Assign {
                        epoch: rec.epoch,
                        assignments: assignments.clone(),
                    }),
                );
            }
        }
        // Stage 3: scion/stub regeneration through the ordinary idempotent
        // cleaner — the wiped node has no cleaner epochs, so every report
        // applies fresh and recreates the scions sited here.
        let mut reports_applied = 0usize;
        for report in &rec.reports {
            let outcome = cleaner::process_report(
                &mut self.gc,
                &mut self.engine,
                &mut self.stats[n],
                node,
                report,
            );
            if outcome.applied {
                reports_applied += 1;
            }
        }
        self.server.borrow_mut().node_settled(node);
        trace::emit(node, TraceEvent::RecoveryComplete { epoch: rec.epoch });
        self.stats[n].bump(StatKind::RecoveriesCompleted);
        self.recovery_log.push(RecoveryOutcome {
            node,
            epoch: rec.epoch,
            restart_tick: rec.started_at,
            complete_tick: self.net.now(),
            replay_micros: rec.replay_micros,
            objects_recovered: rec.recovered.len(),
            orphans_adopted,
            reports_applied,
        });
        Ok(())
    }

    fn dispatch_dsm(&mut self, src: NodeId, dst: NodeId, pkt: DsmPacket) -> Result<()> {
        self.with_engine(|e, sh, send| e.handle(src, dst, pkt, sh, send))
    }

    fn dispatch_gc(&mut self, src: NodeId, dst: NodeId, msg: GcMsg) -> Result<()> {
        let at = dst.0 as usize;
        let replies = match msg {
            GcMsg::ScionCreate { scion } => {
                barrier::install_scion(&mut self.gc, dst, scion);
                return Ok(());
            }
            GcMsg::Report(report) => {
                cleaner::process_report(
                    &mut self.gc,
                    &mut self.engine,
                    &mut self.stats[at],
                    dst,
                    &report,
                );
                return Ok(());
            }
            // The current table, even with no stub toward the requester:
            // that empty table is what cuts its last scions. A node that
            // does not map the bunch has none to answer with (one
            // mid-recovery never gets here, see `deliver`).
            GcMsg::TableReq { bunch, have: _ } => {
                if self.gc.node(dst).bunch(bunch).is_some() {
                    let report = self.build_report(dst, bunch)?;
                    self.stats[at].bump(StatKind::StubTableMessages);
                    self.send_gc(dst, src, GcMsg::Report(report));
                }
                return Ok(());
            }
            GcMsg::AddressChange {
                bunch: _,
                relocations,
            } => {
                self.with_gc(dst, |gc, _, mems, _| {
                    bmx_gc::integration::apply_relocations_at(gc, dst, &relocations, mems)
                });
                return Ok(());
            }
            GcMsg::Retire {
                bunch,
                segments,
                relocations,
                reply_to,
            } => self.with_gc(dst, |gc, engine, mems, stats| {
                fromspace::handle_retire(
                    gc,
                    engine,
                    mems,
                    stats,
                    dst,
                    bunch,
                    &segments,
                    &relocations,
                    reply_to,
                )
            })?,
            GcMsg::RetireAck { bunch, from } => {
                return self.with_gc(dst, |gc, engine, mems, stats| {
                    fromspace::handle_retire_ack(gc, engine, &mut mems[at], stats, dst, bunch, from)
                });
            }
            // The owner's fresh relocations must reach the requester and
            // all other replica holders lazily too; the copy reply carries
            // them to the requester directly.
            GcMsg::CopyRequest {
                bunch,
                oids,
                avoid,
                reply_to,
            } => self.with_gc(dst, |gc, engine, mems, stats| {
                fromspace::handle_copy_request(
                    gc,
                    engine,
                    &mut mems[at],
                    stats,
                    dst,
                    bunch,
                    &oids,
                    &avoid,
                    reply_to,
                )
            })?,
            GcMsg::CopyReply {
                bunch,
                relocations,
                from: _,
            } => self.with_gc(dst, |gc, engine, mems, stats| {
                fromspace::handle_copy_reply(gc, engine, mems, stats, dst, bunch, &relocations)
            })?,
        };
        for (to, m) in replies {
            self.send_gc(dst, to, m);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bunches.
    // ------------------------------------------------------------------

    /// Creates a bunch at `node` with one initial segment, mapped locally.
    pub fn create_bunch(&mut self, node: NodeId) -> Result<BunchId> {
        self.create_bunch_with(node, Protection::default())
    }

    /// Creates a bunch with explicit protection attributes (paper, §2.1:
    /// "protection attributes like the usual Unix read, write, and execute
    /// permissions"). The mutator API enforces them; the collector is
    /// exempt (its writes are system bookkeeping, not application access).
    pub fn create_bunch_with(&mut self, node: NodeId, protection: Protection) -> Result<BunchId> {
        let (bunch, seg) = {
            let mut srv = self.server.borrow_mut();
            let b = srv.create_bunch(node, protection);
            let s = srv.alloc_segment(b)?;
            (b, s)
        };
        self.mems[node.0 as usize].map_segment(seg);
        self.gc.note_mapping(bunch, node);
        let brs = self.gc.node_mut(node).bunch_or_default(bunch);
        brs.alloc_segments.push(seg.id);
        Ok(bunch)
    }

    /// Maps a replica of `bunch` at `node`, copying the current images from
    /// `from` (which must have the bunch mapped). Registers the replicas
    /// with the DSM and the entering ownerPtrs with the owners.
    pub fn map_bunch(&mut self, node: NodeId, bunch: BunchId, from: NodeId) -> Result<()> {
        if self.gc.node(node).bunches.contains_key(&bunch) {
            return Ok(());
        }
        if !self.is_resident(from) {
            return Err(BmxError::NeedsNode { node: from });
        }
        let seg_ids: Vec<_> = {
            let srv = self.server.borrow();
            srv.bunch(bunch)?
                .segments
                .iter()
                .copied()
                .filter(|&s| self.mems[from.0 as usize].has_segment(s))
                .collect()
        };
        if seg_ids.is_empty() {
            return Err(BmxError::BunchUnmapped { node: from, bunch });
        }
        // Ship the images (accounted as consistency traffic).
        let mut total_bytes = 0;
        for &sid in &seg_ids {
            let image = self.mems[from.0 as usize].image(sid)?;
            total_bytes += image.wire_size();
            image.install(&mut self.mems[node.0 as usize]);
        }
        self.stats[from.0 as usize].add(StatKind::MessagesSent, seg_ids.len() as u64);
        self.stats[from.0 as usize].add(StatKind::BytesSent, total_bytes);
        self.stats[from.0 as usize].add(StatKind::DsmProtocolMessages, seg_ids.len() as u64);
        self.stats[from.0 as usize].add(StatKind::DsmLogicalMessages, seg_ids.len() as u64);

        // Learn the objects: directory entries, forwarding edges, replica
        // registrations.
        let mut found: Vec<(Oid, Addr, Addr)> = Vec::new(); // (oid, addr, fwd)
        for &sid in &seg_ids {
            let seg = self.mems[node.0 as usize].segment(sid)?;
            for addr in object::objects_in(seg) {
                let v = object::view(&self.mems[node.0 as usize], addr)?;
                found.push((
                    v.oid,
                    addr,
                    if v.is_forwarded() {
                        v.forwarding
                    } else {
                        Addr::NULL
                    },
                ));
            }
        }
        // Mapping is a synchronous copy from `from` — no message carries a
        // Lamport stamp across it, so merge the source's clock by hand or
        // the address-update events below would appear to precede the
        // relocations they depend on.
        if trace::enabled() {
            trace::observe(node, trace::clock(from));
        }
        for (oid, addr, fwd) in &found {
            let dir = &mut self.gc.node_mut(node).directory;
            if fwd.is_null() {
                dir.set_addr(*oid, *addr);
            } else {
                // The image carries a forwarding header: the replica's
                // current copy is at the (resolved) forwarding target.
                let fresh = dir.record_move(*oid, *addr, *fwd);
                let cur = dir.resolve(*fwd);
                dir.set_addr(*oid, cur);
                if fresh {
                    trace::emit(
                        node,
                        TraceEvent::AddrUpdate {
                            oid: *oid,
                            from: *addr,
                            to: *fwd,
                        },
                    );
                }
            }
        }
        // Bunch-level GC state mirrors the source's space structure.
        let (alloc_segments, pending_from) = {
            let src = self.gc.node(from).bunch(bunch);
            match src {
                Some(b) => (b.alloc_segments.clone(), b.pending_from.clone()),
                None => (seg_ids.clone(), Vec::new()),
            }
        };
        let brs = self.gc.node_mut(node).bunch_or_default(bunch);
        brs.alloc_segments = alloc_segments;
        brs.pending_from = pending_from;
        self.gc.note_mapping(bunch, node);
        // The images did not travel as envelopes: the node's last sweep no
        // longer vouches that it holds nothing from before `from`'s.
        self.server.borrow_mut().forget_sweep(node);

        // DSM registration for every non-forwarded object replica.
        for (oid, _addr, fwd) in found {
            if !fwd.is_null() {
                continue;
            }
            let hint = match self.engine.obj_state(from, oid) {
                Some(st) if st.is_owner => from,
                Some(st) => st.owner_hint,
                None => from,
            };
            self.with_engine(|e, sh, send| {
                e.register_mapped_replica(node, oid, bunch, hint, sh, send)
            });
        }
        self.pump()
    }

    /// Which nodes currently have `bunch` mapped.
    pub fn mapped_nodes(&self, bunch: BunchId) -> Vec<NodeId> {
        self.gc.mapped_nodes(bunch)
    }

    // ------------------------------------------------------------------
    // Collector services.
    // ------------------------------------------------------------------

    /// Runs the bunch garbage collector on the local replica of `bunch` at
    /// `node`, publishing the reachability reports.
    pub fn run_bgc(&mut self, node: NodeId, bunch: BunchId) -> Result<CollectStats> {
        self.run_collection(node, &[bunch])
    }

    /// Runs the group garbage collector at `node` over every locally mapped
    /// bunch (the locality heuristic of Section 7).
    pub fn run_ggc(&mut self, node: NodeId) -> Result<CollectStats> {
        let group: Vec<BunchId> = self.gc.node(node).bunches.keys().copied().collect();
        self.run_collection(node, &group)
    }

    /// Runs the group collector under a grouping heuristic: each group the
    /// heuristic produces is collected in turn; returns aggregate stats.
    pub fn run_ggc_with(
        &mut self,
        node: NodeId,
        heuristic: bmx_gc::Heuristic,
    ) -> Result<CollectStats> {
        let groups = bmx_gc::grouping::groups(&self.gc, node, heuristic);
        debug_assert!(bmx_gc::grouping::is_partition(&self.gc, node, &groups));
        let mut total = CollectStats::default();
        for g in groups {
            let s = self.run_collection(node, &g)?;
            total.copied += s.copied;
            total.copied_words += s.copied_words;
            total.scanned += s.scanned;
            total.reclaimed += s.reclaimed;
            total.reclaimed_words += s.reclaimed_words;
            total.live += s.live;
        }
        Ok(total)
    }

    /// Runs a collection over an explicit group of bunches at `node`.
    pub fn run_collection(&mut self, node: NodeId, group: &[BunchId]) -> Result<CollectStats> {
        if self.collection_deferred(node) {
            return Ok(CollectStats::default());
        }
        let at = node.0 as usize;
        let outcome = self.with_gc(node, |gc, engine, mems, stats| {
            collect(gc, engine, &mut mems[at], stats, node, group)
        })?;
        self.finish_collection(node, outcome)
    }

    /// Whether `node` must put off a collection it was asked to start. A
    /// node mid-recovery defers: its scion tables are still regenerating,
    /// so tracing now could miss remote justifications — i.e. premature
    /// reclamation. The caller's next attempt (after the handshake
    /// completes) collects normally. A group that overlaps a collection
    /// already running is refused where every collection starts
    /// ([`bmx_gc::IncrementalBgc::start`], `CollectorBusy`).
    fn collection_deferred(&self, node: NodeId) -> bool {
        self.in_recovery(node)
    }

    /// What follows every collection, run in one call or flipped: drop the
    /// dead replicas' protocol records, let the local cleaner consume each
    /// report (scions for locally mapped target bunches live on this very
    /// node), publish it, and checkpoint.
    fn finish_collection(&mut self, node: NodeId, outcome: CollectOutcome) -> Result<CollectStats> {
        let at = node.0 as usize;
        for oid in &outcome.dead {
            self.engine.drop_replica(node, *oid);
        }
        for (dests, report) in outcome.reports {
            cleaner::process_report(
                &mut self.gc,
                &mut self.engine,
                &mut self.stats[at],
                node,
                &report,
            );
            for dst in dests {
                self.stats[at].bump(StatKind::StubTableMessages);
                self.send_gc(node, dst, GcMsg::Report(report.clone()));
            }
        }
        self.flush_explicit_relocations();
        self.pump()?;
        self.checkpoint_after_collection(node)?;
        Ok(outcome.stats)
    }

    /// Periodic background checkpointing: after each BGC every bunch the
    /// node maps is written to its RVM store together with the recovery
    /// manifest, and the redo log is truncated once it outgrows the
    /// configured bound (it has just been fully applied, so truncation
    /// cannot lose a committed state).
    ///
    /// Every mapped bunch, not only the collected group: the manifest
    /// carries *all* the node's roots, and the images and roots written
    /// now point wherever the node's pointers point now. A bunch outside
    /// the group may since its last image have applied a relocation, had a
    /// grant installed or grown a segment, so that image no longer holds
    /// the objects those pointers name — recovery would come back with
    /// roots and fields dangling into it. A checkpoint is therefore one
    /// cut across the node's whole mapped heap.
    fn checkpoint_after_collection(&mut self, node: NodeId) -> Result<()> {
        let n = node.0 as usize;
        if self.persist.is_none() || self.recoveries[n].is_some() {
            return Ok(());
        }
        self.open_rvm(node)?;
        let Some(mut rvm) = self.rvms[n].take() else {
            return Ok(());
        };
        let res = (|| -> Result<()> {
            // The manifest accumulates every bunch ever checkpointed here.
            let prev = persist::recover_node_meta(node, &mut rvm)?.unwrap_or_default();
            let mut bunches: BTreeSet<BunchId> = prev.bunches.into_iter().collect();
            let mapped: Vec<BunchId> = self.gc.node(node).bunches.keys().copied().collect();
            let mut wrote = false;
            for bunch in mapped {
                // A bunch with no segment left here (e.g. fully reused) is
                // not checkpointable; skip it rather than fail the collection.
                if persist::checkpoint_bunch(self, node, bunch, &mut rvm).is_ok() {
                    bunches.insert(bunch);
                    wrote = true;
                }
            }
            if wrote {
                let meta = NodeMeta {
                    next_oid: self.next_oid[n],
                    rejoin_epoch: self.rejoin_epochs[n],
                    next_ssp: self.gc.node(node).next_ssp,
                    roots: self.gc.node(node).roots.values().copied().collect(),
                    bunches: bunches.into_iter().collect(),
                };
                persist::checkpoint_node_meta(self, node, &mut rvm, &meta)?;
                self.server.borrow_mut().note_checkpoint(node);
            }
            if let Some(bound) = self.persist.as_ref().and_then(|p| p.truncate_log_bytes) {
                if rvm.log_bytes() > bound {
                    rvm.truncate()?;
                }
            }
            Ok(())
        })();
        self.rvms[n] = Some(rvm);
        res
    }

    // ------------------------------------------------------------------
    // Incremental collection (O'Toole-style, experiment E4b).
    // ------------------------------------------------------------------

    /// Starts an incremental collection of `group` at `node`: snapshots
    /// the roots and arms the graying write barrier. Mutator work may
    /// proceed between [`Cluster::incremental_step`] calls. Deferred like
    /// any collection while the node is mid-recovery: nothing starts and
    /// [`Cluster::incremental_active`] stays false.
    pub fn start_incremental(&mut self, node: NodeId, group: &[BunchId]) -> Result<()> {
        if self.collection_deferred(node) {
            return Ok(());
        }
        let at = node.0 as usize;
        if self.incrementals[at].is_some() {
            return Err(BmxError::CollectorBusy {
                bunch: group.first().copied().unwrap_or(BunchId(0)),
            });
        }
        let inc = self.with_gc(node, |gc, engine, mems, stats| {
            bmx_gc::IncrementalBgc::start(gc, engine, &mut mems[at], stats, node, group)
        })?;
        self.incrementals[at] = Some(inc);
        Ok(())
    }

    fn take_incremental(&mut self, node: NodeId) -> Result<bmx_gc::IncrementalBgc> {
        self.incrementals[node.0 as usize]
            .take()
            .ok_or(BmxError::Protocol(
                "no incremental collection active".into(),
            ))
    }

    /// Performs up to `budget` objects' worth of collection work at `node`.
    /// Returns `true` when the collection is ready to flip.
    pub fn incremental_step(&mut self, node: NodeId, budget: usize) -> Result<bool> {
        let at = node.0 as usize;
        let mut inc = self.take_incremental(node)?;
        let ready = self.with_gc(node, |gc, engine, mems, stats| {
            inc.step(gc, engine, &mut mems[at], stats, budget)
        })?;
        self.incrementals[at] = Some(inc);
        Ok(ready)
    }

    /// Flips the incremental collection at `node`: the only mutator-visible
    /// pause. Publishes reports and checkpoints like any collection.
    pub fn incremental_flip(&mut self, node: NodeId) -> Result<CollectStats> {
        let at = node.0 as usize;
        let inc = self.take_incremental(node)?;
        let outcome = self.with_gc(node, |gc, engine, mems, stats| {
            inc.flip(gc, engine, &mut mems[at], stats)
        })?;
        self.finish_collection(node, outcome)
    }

    /// Whether an incremental collection is active at `node`.
    pub fn incremental_active(&self, node: NodeId) -> bool {
        self.incrementals[node.0 as usize].is_some()
    }

    /// Builds the current reachability report of `bunch` at `node`: what
    /// `node` answers a [`GcMsg::TableReq`] with.
    pub fn build_report(
        &mut self,
        node: NodeId,
        bunch: BunchId,
    ) -> Result<bmx_gc::ReachabilityReport> {
        let brs = self
            .gc
            .node(node)
            .bunch(bunch)
            .ok_or(BmxError::BunchUnmapped { node, bunch })?;
        let exiting: Vec<(Oid, NodeId)> = self
            .engine
            .exiting_owner_ptrs(node, bunch)
            .into_iter()
            .collect();
        Ok(bmx_gc::ReachabilityReport {
            from: node,
            bunch,
            epoch: brs.epoch,
            inter_stubs: brs.stub_table.inter().to_vec(),
            intra_stubs: brs.stub_table.intra().to_vec(),
            exiting,
        })
    }

    /// In [`RelocMode::Explicit`], transmits queued relocation records as
    /// their own background messages (the ablation of experiment E3).
    pub fn flush_explicit_relocations(&mut self) {
        let queued = std::mem::take(&mut self.gc.explicit_queue);
        for (src, dst, relocs) in queued {
            self.stats[src.0 as usize].bump(StatKind::ExplicitRelocationMessages);
            self.send_gc(
                src,
                dst,
                GcMsg::AddressChange {
                    bunch: BunchId(0),
                    relocations: relocs,
                },
            );
        }
    }

    /// Starts the from-space reuse protocol for `bunch` at `node` and runs
    /// it to completion. Returns `true` if the segments were reclaimed.
    pub fn reuse_from_space(&mut self, node: NodeId, bunch: BunchId) -> Result<bool> {
        self.start_reuse(node, bunch)?;
        self.pump()?;
        Ok(self
            .gc
            .node(node)
            .bunch(bunch)
            .is_some_and(|b| b.reuse.is_none()))
    }

    /// Starts the from-space reuse protocol for `bunch` at `node` and sends
    /// its first messages, delivering nothing: the round runs as the
    /// network is stepped ([`Cluster::step`]).
    pub fn start_reuse(&mut self, node: NodeId, bunch: BunchId) -> Result<()> {
        let msgs = self.with_gc(node, |gc, engine, mems, stats| {
            fromspace::start_reuse(gc, engine, &mut mems[node.0 as usize], stats, node, bunch)
        })?;
        for (dst, m) in msgs {
            self.send_gc(node, dst, m);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection for experiments and tests.
    // ------------------------------------------------------------------

    /// Sum of a counter across all nodes.
    pub fn total_stat(&self, kind: StatKind) -> u64 {
        self.stats.iter().map(|s| s.get(kind)).sum()
    }

    /// The set of addresses reachable from `node`'s mutator roots (through
    /// local forwarding), for graph verification in tests.
    pub fn reachable_from_roots(&self, node: NodeId) -> BTreeSet<Addr> {
        let ns = self.gc.node(node);
        let mem = &self.mems[node.0 as usize];
        let mut seen = BTreeSet::new();
        let mut stack: Vec<Addr> = ns.roots.values().copied().collect();
        while let Some(a) = stack.pop() {
            if a.is_null() {
                continue;
            }
            let a = ns.directory.resolve(a);
            if !seen.insert(a) {
                continue;
            }
            let Ok(fields) = object::ref_fields(mem, a) else {
                continue;
            };
            for (_, t) in fields {
                stack.push(t);
            }
        }
        seen
    }

    /// Asserts the structural invariant that the collector never acquired a
    /// token on any node.
    pub fn assert_gc_acquired_no_tokens(&self) {
        for (i, s) in self.stats.iter().enumerate() {
            assert_eq!(
                s.get(StatKind::GcTokenAcquires),
                0,
                "collector acquired a token on node N{i}"
            );
        }
    }

    /// Current token at `node` for the object at `addr`.
    pub fn token_at(&self, node: NodeId, addr: Addr) -> Result<Token> {
        let oid = self.oid_at_local(node, addr)?;
        Ok(self.engine.token(node, oid))
    }
}
