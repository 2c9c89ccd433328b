//! `bmx::parallel`: the real-parallelism runtime.
//!
//! The deterministic [`Cluster`] interleaves everything on one thread so
//! the paper's protocol properties can be audited bit-exactly. This module
//! runs the *same* protocol state machines on real hardware concurrency:
//!
//! * **Whoever holds a node's lock applies its inbox.** One delivery step
//!   (`Shared::apply`) pops the node's next envelope from the shared
//!   lock-free-facade [`ChannelTransport`] *under the node's lock*, applies
//!   it, counts it, wakes the node's parked acquires and acks it. Popping
//!   under the lock keeps per-link FIFO however many threads apply. A
//!   blocking acquire runs the step at every poll, so a grant is applied
//!   by the thread waiting for it; **one OS driver thread per node** runs
//!   it for everything else: a node no mutator is waiting at, recovery
//!   and shutdown.
//! * **Real per-node handles** ([`NodeHandle`]): application mutator
//!   threads call `acquire/read/write/release` directly — no global actor
//!   serializing closures. An acquire whose token is remote blocks the
//!   *calling thread only*; the other nodes keep delivering, so the grant
//!   makes progress while the mutator waits.
//! * **The transport seam**: each site's network has the channels as its
//!   egress ([`bmx_net::Network::set_egress`]), so a send leaves as it is
//!   made and comes back through [`Cluster::deliver`], the simulator's
//!   entry point too; no site's network ever ticks. Per-link FIFO
//!   holds; cross-link order is whatever the hardware does — exactly the
//!   loosely-coupled model of the paper.
//!
//! Concurrency model: **one lock per node, nothing shared on the local
//! path.** Each node's protocol state (engine, collector state, heap,
//! counters) lives in a [`Cluster`] of its own — its *site*, built with
//! `Cluster::site` on the one cluster-wide segment server — behind its
//! own mutex. A typed [`NodeHandle`] operation and the node's driver lock
//! that site and nothing else: two nodes that exchange no message never
//! touch the same lock, counter or cache line (protection and creator of a
//! mapped address are read off the node's own segment descriptor, the op
//! counter is per node, idle drivers are parked). The few calls that read
//! a second node's state — [`NodeHandle::map_bunch`]'s source, the header
//! fetch from a bunch's creator (the protocol reports
//! [`BmxError::NeedsNode`] and the handle runs the call again), a live
//! restart, [`NodeHandle::with`], [`ParallelCluster::quiesce`], shutdown —
//! lock the sites involved **in ascending node order**, lend the other
//! slots to the caller's cluster for the call (`Cluster::swap_slot`) and
//! hand them back; `with` and shutdown take every site, so their closure
//! and the returned cluster see the whole system, traffic counters and
//! recovery log included. Nothing polls on a sleep quantum: a driver with
//! an empty inbox parks on its node's doorbell, rung by the phase flip and
//! by every send to the node that no waiting mutator will apply (see
//! [`Attending`]); `quiesce` and shutdown park on a signal rung by the ack
//! that takes `in_flight` to zero and by each exiting driver.
//! The conformance suite (`tests/parallel_conformance.rs`) proves this runtime
//! and the deterministic simulator reach equivalent quiesced protocol
//! state on the same seeded workloads; `tests/parallel_locking.rs` pins
//! the lock order and the shared-nothing local path. DESIGN.md §11
//! describes the methodology.
//!
//! **Failure domains** (DESIGN.md §12): each node is its own blast
//! radius. A protocol panic or an [`ParallelCluster::inject_crash`] marks
//! only that node [`NodeStatus::Down`] — its driver thread exits, its
//! pending submitters get [`BmxError::NodeDown`], and every other node
//! keeps serving. Under a fault plan ([`ClusterConfig::net`], the same one
//! the simulator reads), a [`ChaosConfig`] or an installed metrics registry
//! a **supervisor thread** beats a pulse clock, the runtime's one clock
//! (the [`FaultyTransport`] times partitions, jitter and the plan's crashes
//! in pulses, trace records carry the pulse as their tick, and the
//! watchdogs are evaluated on it and nowhere else),
//! pumps the metrics watchdogs with real pending-work readings, crashes
//! and restarts nodes on the plan's [`FaultEvent`]s, and — under
//! [`ChaosConfig::restart`] — revives nodes that went down outside the plan,
//! both live through the crash-amnesia recovery pipeline
//! ([`Cluster::restart_with_amnesia`]): purge the dead incarnation's
//! inbox, wipe + rejoin with every site locked, respawn a fresh driver
//! generation. A driver checks its generation under the node's lock
//! before it pops, so a dead incarnation never takes an envelope.
//!
//! Shutdown has two modes with deterministic per-class fate
//! ([`Shutdown`]): **Drain** applies every in-flight envelope before
//! stopping; **Drop** applies the classes the design requires reliable
//! (DSM) and discards loss-tolerant collector traffic *whole* — an
//! envelope is never half-applied, because it is popped intact and
//! applied under the receiving node's lock.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bmx_addr::SegmentServer;
use bmx_common::{Addr, BmxError, BunchId, NodeId, Oid, Result, SplitMix64};
use bmx_gc::SharedServer;
use bmx_metrics::{self as metrics, Ctr, Hst, Registry};
use bmx_net::{
    ChannelTransport, Egress, FaultEvent, FaultStats, FaultyTransport, MsgClass, NetworkConfig,
    Transport,
};
use bmx_trace::{self as trace, SpanKind};
use parking_lot::{Mutex, MutexGuard};

use crate::cluster::{Cluster, ClusterConfig};
use crate::msg::ClusterMsg;
use crate::mutator::ObjSpec;

const PHASE_RUN: u8 = 0;
const PHASE_DRAIN: u8 = 1;
const PHASE_DROP: u8 = 2;

const NODE_ALIVE: u8 = 0;
const NODE_RECOVERING: u8 = 1;
const NODE_DOWN: u8 = 2;

/// Empty polls a driver (or an acquire) spends yielding before it parks.
const SPINS_BEFORE_PARK: u32 = 64;
/// Longest a parked driver sleeps without a ring. Every event it waits for
/// rings its bell; this only bounds the damage of a wake-up lost to a bug.
const DRIVER_BACKSTOP: Duration = Duration::from_millis(10);
/// The same for `quiesce` and the shutdown janitor, which also cover what
/// has no bell to ring: a downed node's inbox filling during a drain.
const IDLE_BACKSTOP: Duration = Duration::from_micros(500);
/// Supervisor beats between observing a node down outside the fault plan
/// and restarting it (under [`ChaosConfig::restart`]).
const RESTART_DELAY_PULSES: u64 = 16;

/// What happens to in-flight messages at shutdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shutdown {
    /// Every in-flight envelope is applied before drivers stop.
    Drain,
    /// Reliability-requiring classes (DSM) are applied; loss-tolerant
    /// collector traffic is discarded whole. Mirrors what a real lossy
    /// network is allowed to do to those classes at any time.
    Drop,
}

/// Transport accounting for a completed parallel run. Conservation
/// (`delivered + dropped == sent`) holds globally *and per class* on
/// every run, faults included — duplicates injected by the fault plane
/// count as sends of their own.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShutdownReport {
    /// Envelopes accepted by the transport over the run's lifetime.
    pub sent: u64,
    /// Envelopes fully applied under the receiving node's lock.
    pub delivered: u64,
    /// Envelopes discarded whole (drop policy, injected faults, purged
    /// inboxes of crashed nodes, or post-join leftovers).
    pub dropped: u64,
    /// Sends per class, [`MsgClass::ALL`] order.
    pub sent_by_class: [u64; 4],
    /// Applied envelopes per class, [`MsgClass::ALL`] order.
    pub delivered_by_class: [u64; 4],
    /// Discards per class, [`MsgClass::ALL`] order. A fault-free run
    /// never discards index 0 (DSM) via the drop *policy*; a crashed
    /// node's purged inbox and post-failure leftovers are the only paths
    /// that can.
    pub dropped_by_class: [u64; 4],
    /// Supervisor-driven live restarts over the run.
    pub restarts: u64,
}

/// The supervisor's configuration ([`ParallelCluster::spawn_with_chaos`]).
/// The faults themselves are [`ClusterConfig::net`]'s.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Supervisor beat. Each beat advances the fault plane's clock one
    /// pulse, so the plan's windows and jitter are measured in beats.
    pub pulse: Duration,
    /// Whether the supervisor restarts nodes that went down outside the
    /// fault plan (a protocol panic, [`ParallelCluster::inject_crash`])
    /// through the crash-amnesia recovery pipeline, 16 beats after the
    /// supervisor sees it down. The plan's own crashes restart when the
    /// plan says.
    pub restart: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            pulse: Duration::from_micros(500),
            restart: true,
        }
    }
}

/// A node's liveness as the runtime sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeStatus {
    /// Serving normally.
    Alive,
    /// Restarted by the supervisor; the rejoin handshake is running.
    Recovering,
    /// Crashed (panic in protocol code or injected); not serving.
    Down,
}

/// Per-node liveness snapshot, for tests and `bmx_top --parallel`.
#[derive(Clone, Debug)]
pub struct NodeLiveness {
    /// The node.
    pub node: NodeId,
    /// Current status.
    pub status: NodeStatus,
    /// Supervisor-driven restarts so far.
    pub restarts: u64,
    /// The most recent failure note (survives a successful restart, as
    /// the record of *why* the node last went down).
    pub note: Option<String>,
}

/// A wake-up that cannot be lost and costs its ringer two atomic
/// operations while nobody waits: the waiter samples [`Signal::epoch`],
/// checks its condition, and [`Signal::wait`]s on the sample; a
/// [`Signal::ring`] in between moves the epoch, so the wait falls through.
/// Aligned so that no two signals, and no signal and its neighbour in a
/// struct, share a cache line.
//
// std primitives, not the parking_lot shim: the timed wait needs a real
// condvar. The mutex guards no data; a ringer takes it only to order its
// notify after a waiter's epoch check.
#[repr(align(128))]
#[derive(Default)]
struct Signal {
    epoch: AtomicU64,
    waiters: AtomicUsize,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl Signal {
    /// Current epoch; sample this *before* checking the awaited condition.
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Wakes every waiter and invalidates in-flight `epoch()` samples so
    /// the next `wait` on them returns without blocking.
    fn ring(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // SeqCst pairs with `wait`: either this load sees the waiter's
        // registration, or the waiter's epoch check sees the increment.
        if self.waiters.load(Ordering::SeqCst) != 0 {
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
        }
    }

    /// Parks the caller until the next ring or `timeout`, whichever comes
    /// first. Returns immediately if a ring already landed since `seen`
    /// was sampled. Spurious wakeups are fine: every caller re-checks.
    fn wait(&self, seen: u64, timeout: Duration) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if self.epoch.load(Ordering::SeqCst) == seen {
            let _ = self.cv.wait_timeout(guard, timeout);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A node's driver doorbell, and the count that silences it.
#[derive(Default)]
struct Door {
    /// Rung by every send to the node that no waiting mutator will apply,
    /// by the node's crash and by the phase flip. An idle driver parks
    /// here.
    bell: Signal,
    /// Mutators at the node spinning in a blocking acquire ([`Attending`]).
    /// On a line of its own (`Signal` is aligned): every send to the node
    /// reads it.
    attended: AtomicUsize,
}

/// Everything the runtime keeps per node, on cache lines no other node's
/// local path writes.
#[repr(align(128))]
struct Site {
    /// The node's protocol state: a `Cluster::site` whose one resident
    /// slot is this node's (others visit while lent, see [`Gathered`]).
    core: Mutex<Cluster>,
    status: AtomicU8,
    /// Why the node last went down.
    note: Mutex<Option<String>>,
    restarts: AtomicU64,
    /// Pulse at which the supervisor restarts the node from this down
    /// episode (`u64::MAX` = not stamped, or never).
    restart_due: AtomicU64,
    /// Driver-thread incarnation. A restart bumps this under the node's
    /// lock; a driver holding a stale generation exits without popping.
    generation: AtomicU64,
    /// Mutator operations completed through this node's handles. Written
    /// only under `core`'s lock (see [`NodeHandle::count_op`]), read by
    /// anyone.
    ops: AtomicU64,
    /// Envelopes fully applied at this node, per class. Written only under
    /// `core`'s lock, like `ops`.
    delivered_by_class: [AtomicU64; 4],
    /// Grant wakeup: blocking acquires park here instead of sleeping
    /// blind, and it rings after every envelope applied at the node.
    /// Without this, a grant that lands mid-backoff sits
    /// reserved-but-unclaimed for the rest of the sleep — dead time the
    /// whole cluster queues behind.
    wake: Signal,
}

struct Shared {
    sites: Vec<Site>,
    /// One per node; the sites' egress holds the other reference.
    doors: Arc<Vec<Door>>,
    /// Rung by the ack that takes `in_flight` to zero and by each exiting
    /// driver: what `quiesce` and shutdown park on.
    idle: Signal,
    /// Driver threads that have not left [`drive`] yet.
    running: AtomicUsize,
    transport: Arc<dyn Transport<ClusterMsg>>,
    /// The channels envelopes are popped from (`transport` itself, or the
    /// ones under the fault plane), concretely typed so that reading a
    /// node's queued count is a load, not a call.
    channels: Arc<ChannelTransport<ClusterMsg>>,
    /// The fault-injecting wrapper, under a fault plan (same object as
    /// `transport`, kept concretely typed for pulse/heal/stats access).
    chaos: Option<Arc<FaultyTransport<ClusterMsg>>>,
    phase: AtomicU8,
    /// Driver threads respawned by the supervisor; joined at shutdown.
    revived: Mutex<Vec<JoinHandle<()>>>,
    /// Registry captured at spawn, installed on driver threads and
    /// offered to mutator threads via [`NodeHandle::bind_metrics`].
    registry: Option<Arc<Registry>>,
    /// Cap on how long a blocking acquire re-polls before giving up
    /// (from [`ClusterConfig::acquire_timeout`]).
    acquire_timeout: Duration,
    /// Seed for acquire-backoff jitter (the configuration's one seed).
    backoff_seed: u64,
}

/// A site's mutex, taken with wait/hold attribution under `node` — the
/// node the locking thread was working *for*: the wait lands in
/// [`Hst::MutexWaitMicros`], and wait and hold as `mutex/wait` /
/// `mutex/hold` spans carrying the thread's current flow. Zero-cost when
/// metrics and spans are off: the clock reads are gated behind their
/// enabled checks.
struct CoreGuard<'a> {
    guard: MutexGuard<'a, Cluster>,
    node: NodeId,
    /// The hold's start (µs on the trace clock), `Some` only when spans
    /// are on at lock time.
    hold_start: Option<u64>,
}

impl std::ops::Deref for CoreGuard<'_> {
    type Target = Cluster;
    fn deref(&self) -> &Cluster {
        &self.guard
    }
}

impl std::ops::DerefMut for CoreGuard<'_> {
    fn deref_mut(&mut self) -> &mut Cluster {
        &mut self.guard
    }
}

impl Drop for CoreGuard<'_> {
    fn drop(&mut self) {
        // Runs *before* the mutex guard field drops, so the measured
        // hold ends while the lock is still held — never short.
        if let Some(start_us) = self.hold_start.take() {
            let us = trace::now_us().saturating_sub(start_us);
            trace::record(SpanKind::MutexHold, self.node, start_us, us);
        }
    }
}

/// Several sites locked for one call: `home`'s cluster holds every other
/// locked node's slot on loan, and dropping this hands them back — on a
/// panic inside the call too. Built only by [`Shared::gather`], which
/// locks in ascending node order.
struct Gathered<'a> {
    /// Ascending by node.
    guards: Vec<(NodeId, CoreGuard<'a>)>,
    /// Index of the borrowing site in `guards`.
    home: usize,
}

impl Gathered<'_> {
    fn cluster(&mut self) -> &mut Cluster {
        &mut self.guards[self.home].1
    }

    /// Calls `f(home cluster, node, that node's site)` for every locked
    /// site but the home one.
    fn each_other(&mut self, mut f: impl FnMut(&mut Cluster, NodeId, &mut Cluster)) {
        let (before, rest) = self.guards.split_at_mut(self.home);
        let ((_, home), after) = rest.split_first_mut().expect("home site is locked");
        for (node, site) in before.iter_mut().chain(after) {
            f(home, *node, site);
        }
    }

    /// Swaps every locked slot but the home one between its own site and
    /// the home cluster: lends them the first time, returns them the next.
    fn swap_slots(&mut self) {
        self.each_other(|home, node, site| home.swap_slot(node, site));
    }

    /// Keeps the gathered slots: takes the home cluster, leaving `husk` in
    /// its place.
    fn into_cluster(mut self, husk: Cluster) -> Cluster {
        let cluster = std::mem::replace(self.cluster(), husk);
        self.guards.clear();
        cluster
    }
}

impl Drop for Gathered<'_> {
    fn drop(&mut self) {
        if !self.guards.is_empty() {
            self.swap_slots();
        }
    }
}

impl Shared {
    fn site(&self, node: NodeId) -> &Site {
        &self.sites[node.0 as usize]
    }

    fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.sites.len() as u32).map(NodeId).collect()
    }

    fn status_of(&self, node: NodeId) -> u8 {
        self.site(node).status.load(Ordering::Acquire)
    }

    /// Marks `node`'s failure domain down. Later calls in the same down
    /// episode update the note (the last crash reason is the useful one).
    fn fail_node(&self, node: NodeId, note: String) {
        // Genuine deaths (protocol errors, panics) trigger the post-
        // mortem blackbox; *injected* crashes are routine traffic in a
        // green chaos-recovery soak and must not produce dumps — the
        // nightly gate treats any dump on a passing run as a failure.
        if !note.starts_with("injected crash") {
            crate::blackbox::dump_if_armed(&note, self.registry.as_deref(), &self.generations());
        }
        let st = self.site(node);
        *st.note.lock() = Some(note);
        st.restart_due.store(u64::MAX, Ordering::Release);
        st.status.store(NODE_DOWN, Ordering::Release);
        // A parked driver is the node's process: it must notice its death.
        self.door(node).bell.ring();
    }

    /// Crashes `node`'s failure domain on purpose.
    fn inject_crash(&self, node: NodeId) {
        self.fail_node(node, format!("injected crash at {node:?}"));
    }

    fn check(&self, node: NodeId) -> Result<()> {
        if self.status_of(node) != NODE_ALIVE {
            return Err(BmxError::NodeDown { node });
        }
        if self.phase.load(Ordering::Acquire) != PHASE_RUN {
            return Err(BmxError::Protocol("parallel runtime shutting down".into()));
        }
        Ok(())
    }

    fn door(&self, node: NodeId) -> &Door {
        &self.doors[node.0 as usize]
    }

    /// Under `node`'s site lock, which makes the cell single-writer (see
    /// [`NodeHandle::count_op`]).
    fn count_delivery(&self, node: NodeId, class: MsgClass) {
        let cell = &self.site(node).delivered_by_class[class.index()];
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        metrics::bump(node, Ctr::ParallelDeliveries);
    }

    fn delivered(&self, class: MsgClass) -> u64 {
        let idx = class.index();
        self.sites
            .iter()
            .map(|st| st.delivered_by_class[idx].load(Ordering::Relaxed))
            .sum()
    }

    /// Takes `site`'s mutex attributed to `node`; see [`CoreGuard`].
    fn lock_site(&self, site: NodeId, node: NodeId) -> CoreGuard<'_> {
        let spans = trace::spans_enabled();
        let wait_start = (spans || metrics::enabled()).then(trace::now_us);
        let guard = self.site(site).core.lock();
        // The wait's end is the hold's start: one clock read for both.
        let locked = wait_start.map(|start_us| {
            let now = trace::now_us();
            let us = now.saturating_sub(start_us);
            metrics::observe(node, Hst::MutexWaitMicros, us);
            trace::record(SpanKind::MutexWait, node, start_us, us);
            now
        });
        CoreGuard {
            guard,
            node,
            hold_start: locked.filter(|_| spans),
        }
    }

    /// Locks `home`'s site and those of `others`, in ascending node order
    /// whatever order they are named in — the one rule that keeps two
    /// multi-site calls from deadlocking — and lends the others' slots to
    /// `home`'s cluster, which also takes over what they have counted
    /// (`Cluster::absorb_totals`).
    fn gather(&self, home: NodeId, others: &[NodeId]) -> Result<Gathered<'_>> {
        let nodes: BTreeSet<NodeId> = others.iter().copied().chain([home]).collect();
        let guards: Vec<(NodeId, CoreGuard<'_>)> = nodes
            .into_iter()
            .map(|n| (n, self.lock_site(n, home)))
            .collect();
        let at = guards
            .iter()
            .position(|(n, _)| *n == home)
            .expect("home is among the locked sites");
        // Refused before any slot moves: the husk a completed shutdown
        // leaves behind has none to lend to or borrow for.
        if !guards[at].1.is_resident(home) {
            return Err(shut_down());
        }
        let mut gathered = Gathered { guards, home: at };
        gathered.swap_slots();
        gathered.each_other(|home, _, site| home.absorb_totals(site));
        Ok(gathered)
    }

    /// Per-node failure-domain generations, for blackbox metadata.
    fn generations(&self) -> Vec<(u32, u64)> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, st)| (i as u32, st.generation.load(Ordering::Acquire)))
            .collect()
    }

    /// The one delivery step, taken by whoever holds `node`'s site lock as
    /// `core` — the node's driver, or a mutator polling there for a grant.
    /// Pops the node's next envelope (under the lock, so per-link FIFO
    /// holds however many threads apply), applies it, counts it, wakes the
    /// node's parked acquires and acks it. Returns whether there was one.
    fn apply(&self, node: NodeId, core: &mut Cluster) -> bool {
        let Some(env) = self.transport.try_recv(node) else {
            return false;
        };
        let class = env.class;
        if self.phase.load(Ordering::Acquire) == PHASE_DROP && !class.requires_reliability() {
            self.transport.note_dropped(class);
        } else {
            let span = trace::span_with_flow(SpanKind::Apply, node, env.span);
            let outcome = catch_unwind(AssertUnwindSafe(|| core.deliver(env)));
            drop(span);
            match outcome {
                Ok(Ok(())) => {
                    self.count_delivery(node, class);
                    // The envelope may have been a parked acquire's grant.
                    self.site(node).wake.ring();
                }
                Ok(Err(e)) => self.fail_node(node, format!("apply at {node:?}: {e}")),
                Err(p) => {
                    let note = format!("apply at {node:?} panicked: {}", panic_note(p));
                    self.fail_node(node, note);
                }
            }
        }
        // Last, so that a quiescence seen through `in_flight` finds the
        // delivery counted and the waiters woken.
        self.ack();
        true
    }

    /// A polling mutator's share of delivery: what `node`'s inbox held when
    /// the poll looked (`queued` envelopes, fewer if the driver takes some
    /// first). Only while the node serves: a recovering or shutting-down
    /// node's inbox is its driver's.
    #[inline(never)]
    fn apply_queued(&self, node: NodeId, core: &mut Cluster, queued: u64) {
        for _ in 0..queued {
            if self.check(node).is_err() || !self.apply(node, core) {
                break;
            }
        }
    }

    /// Accounts one popped envelope as fully applied or discarded whole,
    /// and tells whoever waits for the transport to run dry when it has.
    fn ack(&self) {
        self.transport.ack_delivered();
        if self.transport.in_flight() == 0 {
            self.idle.ring();
            if self.phase.load(Ordering::Acquire) != PHASE_RUN {
                // Draining drivers exit on this condition, not on a send.
                self.ring_drivers();
            }
        }
    }

    fn ring_drivers(&self) {
        for door in self.doors.iter() {
            door.bell.ring();
        }
    }

    /// Advances the fault plane's clock (when there is one) and wakes the
    /// drivers for whatever traffic the pulse released. Returns the new
    /// pulse and the plan's transitions due at it.
    fn pulse(&self) -> Option<(u64, Vec<FaultEvent>)> {
        let pulse = self.chaos.as_ref()?.pulse();
        self.ring_drivers();
        Some(pulse)
    }

    /// Discards everything queued for `node` (crash semantics: the dead
    /// incarnation's inbox is lost with it).
    fn purge_inbox(&self, node: NodeId) {
        while let Some(env) = self.transport.try_recv(node) {
            self.transport.note_dropped(env.class);
            self.ack();
        }
    }

    fn spawn_driver(self: &Arc<Self>, node: NodeId, generation: u64) -> JoinHandle<()> {
        self.running.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(self);
        let name = match generation {
            0 => format!("bmx-driver-{}", node.0),
            g => format!("bmx-driver-{}-g{g}", node.0),
        };
        std::thread::Builder::new()
            .name(name)
            .spawn(move || drive(node, shared, generation))
            .expect("spawn driver thread")
    }
}

#[cold]
fn shut_down() -> BmxError {
    BmxError::Protocol("parallel runtime shut down".into())
}

fn panic_note(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

fn status_from(raw: u8) -> NodeStatus {
    match raw {
        NODE_ALIVE => NodeStatus::Alive,
        NODE_RECOVERING => NodeStatus::Recovering,
        _ => NodeStatus::Down,
    }
}

/// The parallel runtime: a cluster whose nodes run on real OS threads.
pub struct ParallelCluster {
    shared: Arc<Shared>,
    drivers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    nodes: u32,
}

impl ParallelCluster {
    /// Builds the cluster and spawns one driver thread per node.
    ///
    /// `cfg.net` means what it means to the simulator, read in pulses: its
    /// fault plan, class drop rates and seed go to a [`FaultyTransport`]
    /// over the channels (each site's own network only numbers, stamps and
    /// counts its sends on their way out), and a supervisor thread beats
    /// the pulse clock and crashes and restarts nodes on the plan's
    /// [`FaultEvent`]s. A configuration that
    /// injects nothing gets a plain [`ChannelTransport`], and a supervisor
    /// only if the calling thread has a metrics registry installed (it
    /// pumps the watchdogs). Nothing restarts a node that fails outside the
    /// plan — a protocol panic stays a hard failure, surfaced at shutdown.
    /// The retry daemon is a feature of the deterministic mode and is
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics, with the typed error's wording, on a configuration
    /// [`NetworkConfig::validate`] rejects.
    pub fn spawn(cfg: ClusterConfig) -> ParallelCluster {
        Self::spawn_inner(cfg, None)
    }

    /// Like [`ParallelCluster::spawn`], with a supervisor always, beating
    /// at [`ChaosConfig::pulse`] and (when [`ChaosConfig::restart`] is on)
    /// reviving nodes that go down outside the plan too.
    pub fn spawn_with_chaos(cfg: ClusterConfig, chaos: ChaosConfig) -> ParallelCluster {
        Self::spawn_inner(cfg, Some(chaos))
    }

    fn spawn_inner(mut cfg: ClusterConfig, chaos: Option<ChaosConfig>) -> ParallelCluster {
        let nodes = cfg.nodes;
        let acquire_timeout = cfg.acquire_timeout;
        let net = std::mem::replace(&mut cfg.net, NetworkConfig::lossless(1));
        cfg.retry = None;
        let backoff_seed = net.seed;
        let faulty = (!net.is_quiet()).then(|| {
            let ft = FaultyTransport::<ClusterMsg>::try_new(nodes as usize, net);
            Arc::new(ft.unwrap_or_else(|e| panic!("{e}")))
        });
        let (transport, channels): (Arc<dyn Transport<ClusterMsg>>, _) = match &faulty {
            Some(ft) => (Arc::clone(ft) as _, Arc::clone(ft.channels())),
            None => {
                let ch = Arc::new(ChannelTransport::<ClusterMsg>::new(nodes as usize));
                (Arc::clone(&ch) as _, ch)
            }
        };
        let doors: Arc<Vec<Door>> = Arc::new((0..nodes).map(|_| Door::default()).collect());
        let egress: Egress<ClusterMsg> = {
            let (transport, doors) = (Arc::clone(&transport), Arc::clone(&doors));
            Arc::new(move |env| {
                let door = &doors[env.dst.0 as usize];
                transport.send_env(env);
                // The sender's half of the handshake in `Attending::drop`:
                // the push's SeqCst count increment, then this SeqCst load.
                // A waiter counted here applies the envelope at its next
                // poll, or sees it counted when it leaves and rings.
                if door.attended.load(Ordering::SeqCst) == 0 {
                    door.bell.ring();
                }
            })
        };
        let server = SharedServer::new(SegmentServer::new(cfg.segment_words));
        let sites = (0..nodes)
            .map(|i| {
                let mut site = Cluster::site(cfg.clone(), server.clone(), NodeId(i));
                site.net.set_egress(Some(Arc::clone(&egress)));
                Site {
                    core: Mutex::new(site),
                    status: AtomicU8::new(NODE_ALIVE),
                    note: Mutex::new(None),
                    restarts: AtomicU64::new(0),
                    restart_due: AtomicU64::new(u64::MAX),
                    generation: AtomicU64::new(0),
                    ops: AtomicU64::new(0),
                    delivered_by_class: Default::default(),
                    wake: Signal::default(),
                }
            })
            .collect();

        let shared = Arc::new(Shared {
            sites,
            doors,
            idle: Signal::default(),
            running: AtomicUsize::new(0),
            transport,
            channels,
            chaos: faulty,
            phase: AtomicU8::new(PHASE_RUN),
            revived: Mutex::new(Vec::new()),
            registry: metrics::registry(),
            acquire_timeout,
            backoff_seed,
        });

        let drivers = (0..nodes)
            .map(|i| shared.spawn_driver(NodeId(i), 0))
            .collect();
        // A thread only when it has work: without a fault plane to pulse,
        // restarts to make or watchdogs to pump there is nothing to
        // supervise.
        let supervised = shared.chaos.is_some() || chaos.is_some() || shared.registry.is_some();
        let supervisor = supervised.then(|| {
            let sup = chaos.unwrap_or(ChaosConfig {
                restart: false,
                ..ChaosConfig::default()
            });
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bmx-supervisor".into())
                .spawn(move || supervise(shared, sup))
                .expect("spawn supervisor thread")
        });
        ParallelCluster {
            shared,
            drivers,
            supervisor,
            nodes,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// A mutator handle bound to `node`. Cloneable and `Send`; any number
    /// of application threads may hold handles to any node.
    pub fn handle(&self, node: NodeId) -> NodeHandle {
        assert!(node.0 < self.nodes, "no such node {node:?}");
        NodeHandle {
            node,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Mutator operations completed so far across all handles.
    pub fn ops(&self) -> u64 {
        self.shared
            .sites
            .iter()
            .map(|st| st.ops.load(Ordering::Relaxed))
            .sum()
    }

    /// Envelopes currently in flight (sent, not yet fully applied;
    /// includes envelopes the fault plane is holding back).
    pub fn in_flight(&self) -> u64 {
        self.shared.transport.in_flight()
    }

    /// Injected-fault accounting, under a fault plan: the simulator's
    /// [`FaultStats`], with `restarts` counting every live restart.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let sites = &self.shared.sites;
        self.shared.chaos.as_ref().map(|ch| FaultStats {
            restarts: sites
                .iter()
                .map(|st| st.restarts.load(Ordering::Relaxed))
                .sum(),
            ..ch.stats()
        })
    }

    /// The fault plane's clock reading, under a fault plan. A stalled
    /// pulse clock means held (jittered/partitioned) envelopes are not
    /// being released — useful when diagnosing a stall.
    pub fn now_pulse(&self) -> Option<u64> {
        self.shared.chaos.as_ref().map(|ch| ch.now_pulse())
    }

    /// Crashes `node`'s failure domain as if its driver panicked: the
    /// driver thread exits, pending and future submitters at that node
    /// get [`BmxError::NodeDown`], and — under a chaos config with
    /// restarts — the supervisor revives it through the recovery
    /// pipeline 16 pulses later. A crash in the fault plan takes this path
    /// at its pulse.
    pub fn inject_crash(&self, node: NodeId) {
        assert!(node.0 < self.nodes, "no such node {node:?}");
        self.shared.inject_crash(node);
    }

    /// A metrics snapshot stamped for post-hoc ordering: wall-clock
    /// capture time plus each node's failure-domain generation (see
    /// [`bmx_metrics::Snapshot::stamp_meta`]). `None` when the runtime
    /// was spawned without a metrics registry. Blackbox dumps and
    /// chaos-soak artifacts use this instead of the raw
    /// [`Registry::snapshot`], so two dumps can always be ordered and
    /// matched to node incarnations after the fact.
    pub fn metrics_snapshot(&self) -> Option<bmx_metrics::Snapshot> {
        let reg = self.shared.registry.as_ref()?;
        let mut snap = reg.snapshot();
        snap.stamp_meta(&self.shared.generations());
        Some(snap)
    }

    /// Per-node liveness snapshot.
    pub fn liveness(&self) -> Vec<NodeLiveness> {
        (0..self.nodes)
            .map(|i| {
                let st = self.shared.site(NodeId(i));
                NodeLiveness {
                    node: NodeId(i),
                    status: status_from(st.status.load(Ordering::Acquire)),
                    restarts: st.restarts.load(Ordering::Relaxed),
                    note: st.note.lock().clone(),
                }
            })
            .collect()
    }

    /// One node's current status.
    pub fn node_status(&self, node: NodeId) -> NodeStatus {
        assert!(node.0 < self.nodes, "no such node {node:?}");
        status_from(self.shared.status_of(node))
    }

    /// Blocks until no message is in flight *and* no mutator operation is
    /// mid-protocol, or `timeout` elapses. Returns whether quiescence was
    /// reached. Callers must have stopped issuing new operations first —
    /// quiescence under active mutators is momentary by nature. A downed
    /// node with pending inbox traffic keeps this `false` (nothing will
    /// apply those envelopes until a restart or shutdown).
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let seen = self.shared.idle.epoch();
            if self.shared.transport.in_flight() == 0 {
                // Holding every site's lock (ascending, like any multi-site
                // call) serializes against any op that was mid-flight when
                // we looked; re-check afterwards.
                let _sites: Vec<_> = self.shared.sites.iter().map(|s| s.core.lock()).collect();
                if self.shared.transport.in_flight() == 0 {
                    return true;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.shared.idle.wait(seen, left.min(IDLE_BACKSTOP));
        }
    }

    /// Stops the drivers under `mode`, joins them, and returns the final
    /// cluster — every node's slot gathered into one [`Cluster`], egress
    /// removed, so it queues its sends again and tests can keep using it
    /// deterministically — plus the transport report.
    ///
    /// Errors if any node is still down or mid-recovery at shutdown — a
    /// crash the supervisor healed in time is *not* an error (the report
    /// carries the restart count; [`ParallelCluster::liveness`] carries
    /// the notes). Partitions are healed first so `Drain` cannot hang on
    /// held traffic.
    pub fn shutdown(mut self, mode: Shutdown) -> Result<(Cluster, ShutdownReport)> {
        let shared = &self.shared;
        let phase = match mode {
            Shutdown::Drain => PHASE_DRAIN,
            Shutdown::Drop => PHASE_DROP,
        };
        shared.phase.store(phase, Ordering::Release);
        shared.ring_drivers();
        // The supervisor exits at the phase flip; join it first so no
        // restart can race the teardown below.
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        if let Some(ch) = &shared.chaos {
            ch.heal_all();
            shared.ring_drivers();
        }
        // Janitor loop: drivers of live nodes drain to in_flight == 0,
        // which can only happen if someone keeps emptying the inboxes of
        // downed nodes (their drivers are gone) and flushing any traffic
        // the fault plane still holds. Each exiting driver rings `idle`;
        // the backstop paces only those two chores.
        loop {
            let seen = shared.idle.epoch();
            shared.pulse();
            for i in 0..self.nodes {
                if shared.status_of(NodeId(i)) == NODE_DOWN {
                    shared.purge_inbox(NodeId(i));
                }
            }
            if shared.running.load(Ordering::SeqCst) == 0 {
                break;
            }
            shared.idle.wait(seen, IDLE_BACKSTOP);
        }
        let revived = std::mem::take(&mut *shared.revived.lock());
        for d in self.drivers.drain(..).chain(revived) {
            let _ = d.join();
        }
        // A failed driver may have left its inboxes non-empty, and final
        // deliveries may have staged sends to a downed node; discard the
        // leftovers whole so accounting conserves.
        for i in 0..self.nodes {
            shared.purge_inbox(NodeId(i));
        }
        let report = ShutdownReport {
            sent: shared.transport.sent_total(),
            delivered: MsgClass::ALL.iter().map(|&c| shared.delivered(c)).sum(),
            dropped: shared.transport.dropped_total(),
            sent_by_class: MsgClass::ALL.map(|c| shared.transport.sent(c)),
            delivered_by_class: MsgClass::ALL.map(|c| shared.delivered(c)),
            dropped_by_class: MsgClass::ALL.map(|c| shared.transport.dropped(c)),
            restarts: shared
                .sites
                .iter()
                .map(|st| st.restarts.load(Ordering::Relaxed))
                .sum(),
        };
        let mut failures = Vec::new();
        for (i, st) in shared.sites.iter().enumerate() {
            if st.status.load(Ordering::Acquire) != NODE_ALIVE {
                let note = st.note.lock().clone();
                failures.push(format!("N{i}: {}", note.unwrap_or_else(|| "down".into())));
            }
        }
        // Every slot into node 0's cluster, for good. Handles may outlive
        // the runtime; what they find from now on is a cluster with no
        // resident slot, which every operation refuses.
        let mut cluster = shared
            .gather(NodeId(0), &shared.all_nodes())?
            .into_cluster(Cluster::new(ClusterConfig::with_nodes(0)));
        cluster.net.set_egress(None);
        if !failures.is_empty() {
            // A failed shutdown is the chaos soak's "the run died": grab
            // the post-mortem while the rings still hold the death.
            crate::blackbox::dump_if_armed(
                &format!("shutdown with failed nodes: {}", failures.join("; ")),
                shared.registry.as_deref(),
                &shared.generations(),
            );
            return Err(BmxError::Protocol(format!(
                "parallel runtime failed: {}",
                failures.join("; ")
            )));
        }
        Ok((cluster, report))
    }
}

/// The per-node driver thread body. `generation` is the incarnation this
/// thread serves; a supervisor restart supersedes it.
fn drive(node: NodeId, shared: Arc<Shared>, generation: u64) {
    /// Tells shutdown this driver is gone, however it left.
    struct Exit<'a>(&'a Shared);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            self.0.running.fetch_sub(1, Ordering::SeqCst);
            self.0.idle.ring();
        }
    }
    let _exit = Exit(&shared);
    if let Some(reg) = &shared.registry {
        metrics::install_registry(Arc::clone(reg));
    }
    let me = shared.site(node);
    let bell = &shared.door(node).bell;
    // This incarnation crashed, or a restart superseded it: the driver is
    // the node's process and dies with it.
    let dead = || {
        me.status.load(Ordering::Acquire) == NODE_DOWN
            || me.generation.load(Ordering::Acquire) != generation
    };
    let mut idle_rounds: u32 = 0;
    loop {
        // Sampled before the inbox is looked at: a send after this line
        // moves the epoch, so the park below falls through.
        let seen = bell.epoch();
        let phase = shared.phase.load(Ordering::Acquire);
        if dead() {
            break;
        }
        if shared.channels.queued(node) != 0 {
            let mut core = shared.lock_site(node, node);
            // Again under the lock, before the pop: a restart bumps the
            // generation holding every site's lock, so an envelope never
            // reaches the recovered state through the pre-crash thread.
            if dead() {
                break;
            }
            if shared.apply(node, &mut core) {
                idle_rounds = 0;
                continue;
            }
        }
        if phase != PHASE_RUN && shared.transport.in_flight() == 0 {
            break;
        }
        // Spin briefly for back-to-back traffic, then park on the
        // doorbell: an idle node costs no CPU, and the next send to it
        // that no waiting mutator will apply wakes it at once.
        idle_rounds = idle_rounds.saturating_add(1);
        if idle_rounds < SPINS_BEFORE_PARK {
            std::thread::yield_now();
        } else {
            bell.wait(seen, DRIVER_BACKSTOP);
        }
    }
}

/// The supervisor thread body: beats the pulse clock (releasing what the
/// fault plane holds on schedule), crashes and restarts nodes on the plan's
/// transitions, stamps and revives nodes downed outside the plan, flips
/// recovered nodes back to alive, and pumps the metrics watchdogs with a
/// real pending-work reading so stalls latch alarms instead of being
/// waited out.
fn supervise(shared: Arc<Shared>, cfg: ChaosConfig) {
    if let Some(reg) = &shared.registry {
        metrics::install_registry(Arc::clone(reg));
    }
    let mut pulse: u64 = 0;
    let mut alarms_seen = shared.registry.as_ref().map_or(0, |r| r.total_alarms());
    while shared.phase.load(Ordering::Acquire) == PHASE_RUN {
        std::thread::sleep(cfg.pulse);
        let _pulse_span = trace::span(SpanKind::SupervisorPulse, NodeId(0));
        let (now, events) = shared.pulse().unwrap_or((pulse + 1, Vec::new()));
        pulse = now;
        trace::set_now(pulse);
        for event in events {
            match event {
                FaultEvent::NodeCrashed { node } => shared.inject_crash(node),
                FaultEvent::NodeRestarted { node } if shared.status_of(node) == NODE_DOWN => {
                    restart_node(&shared, node);
                }
                _ => {}
            }
        }
        // A node the plan holds down restarts on the plan's transition.
        let planned = |node| shared.chaos.as_ref().is_some_and(|ch| ch.is_down(node));
        for (i, st) in shared.sites.iter().enumerate() {
            let node = NodeId(i as u32);
            match st.status.load(Ordering::Acquire) {
                NODE_DOWN => {
                    let due = st.restart_due.load(Ordering::Acquire);
                    if due != u64::MAX {
                        if pulse >= due {
                            restart_node(&shared, node);
                        }
                    } else if cfg.restart && !planned(node) {
                        st.restart_due
                            .store(pulse + RESTART_DELAY_PULSES, Ordering::Release);
                    }
                }
                NODE_RECOVERING if !st.core.lock().in_recovery(node) => {
                    st.status.store(NODE_ALIVE, Ordering::Release);
                }
                _ => {}
            }
        }
        metrics::tick(pulse, shared.transport.in_flight());
        if let Some(reg) = &shared.registry {
            // A watchdog alarm is a blackbox trigger: the runtime is
            // telling us it is wedged or leaking, and the spans that
            // explain it are still in the rings right now.
            let total = reg.total_alarms();
            if total > alarms_seen {
                alarms_seen = total;
                crate::blackbox::dump_if_armed(
                    &format!("watchdog alarm (total {total}) at pulse {pulse}"),
                    Some(reg),
                    &shared.generations(),
                );
            }
        }
    }
}

/// Revives one downed node: purge the dead incarnation's inbox (its
/// queued traffic died with it — the sim's crash loss model), then with
/// every site locked (the wipe reaches into each receiver's duplicate
/// tracking) bump the driver generation and run
/// [`Cluster::restart_with_amnesia`] (wipe, RVM replay, rejoin-request
/// broadcast), then respawn a fresh driver. Stage 2/3
/// of recovery complete asynchronously as surviving drivers answer; the
/// supervisor flips the node back to alive when `in_recovery` clears.
fn restart_node(shared: &Arc<Shared>, node: NodeId) {
    let _span = trace::span(SpanKind::RecoveryRestart, node);
    let st = shared.site(node);
    shared.purge_inbox(node);
    let generation = {
        let restarted = shared
            .gather(node, &shared.all_nodes())
            .and_then(|mut sites| {
                let generation = st.generation.fetch_add(1, Ordering::AcqRel) + 1;
                sites.cluster().restart_with_amnesia(node)?;
                Ok(generation)
            });
        match restarted {
            Ok(generation) => generation,
            Err(e) => {
                *st.note.lock() = Some(format!("restart of {node:?} failed: {e}"));
                return;
            }
        }
    };
    st.restarts.fetch_add(1, Ordering::Relaxed);
    st.restart_due.store(u64::MAX, Ordering::Release);
    st.status.store(NODE_RECOVERING, Ordering::Release);
    let handle = shared.spawn_driver(node, generation);
    shared.revived.lock().push(handle);
}

/// A blocking acquire's turn at its node's inbox, held while the waiter
/// spins: it is counted in [`Door::attended`], the egress stops ringing
/// the node's driver, and the waiter's polls apply what arrives — the
/// grant it waits for among it. Dropped before the waiter parks and on
/// every way out of the acquire.
struct Attending<'a> {
    shared: &'a Shared,
    node: NodeId,
}

impl<'a> Attending<'a> {
    fn new(shared: &'a Shared, node: NodeId) -> Self {
        shared.door(node).attended.fetch_add(1, Ordering::SeqCst);
        Attending { shared, node }
    }
}

impl Drop for Attending<'_> {
    /// Leaves the count, then hands whatever is queued to the driver. With
    /// the egress this is a Dekker handshake: each side writes its own
    /// variable (here the count, there the queued increment after the
    /// push), then reads the other's, all four SeqCst. In their single
    /// total order, either the sender's load follows this decrement and it
    /// rings, or this load follows its increment and this rings — an
    /// envelope is never left with nobody to apply it.
    fn drop(&mut self) {
        let door = self.shared.door(self.node);
        door.attended.fetch_sub(1, Ordering::SeqCst);
        if self.shared.channels.queued(self.node) != 0 {
            door.bell.ring();
        }
    }
}

/// A mutator's door into one node of a running [`ParallelCluster`].
///
/// Operations take the node's lock for their own duration only; an
/// acquire that must wait for a remote grant releases the lock between
/// polls, and applies the node's inbox at each.
#[derive(Clone)]
pub struct NodeHandle {
    node: NodeId,
    shared: Arc<Shared>,
}

impl NodeHandle {
    /// The node this handle addresses.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Installs the runtime's metrics registry on the calling thread, so
    /// this mutator thread's observations land in the shared registry.
    pub fn bind_metrics(&self) {
        if let Some(reg) = &self.shared.registry {
            metrics::install_registry(Arc::clone(reg));
        }
    }

    /// Runs `f` on the whole cluster, stopped: every site is locked and
    /// every node's slot is lent to this node's cluster for the call, so
    /// `f` may act as any node and reads cluster-wide totals.
    ///
    /// This is the *user-closure* domain: a panic inside `f` is caught
    /// and returned as an `Err` **to this caller only** — it does not
    /// mark the node failed, because the panic is the application's, not
    /// the protocol's. (Panics inside protocol code reached through the
    /// typed methods *do* crash the node's failure domain.) The caller
    /// owns the consistency of whatever `f` half-did before panicking.
    pub fn with<R>(&self, f: impl FnOnce(&mut Cluster) -> Result<R>) -> Result<R> {
        self.shared.check(self.node)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sites = self.shared.gather(self.node, &self.shared.all_nodes())?;
            let r = f(sites.cluster())?;
            self.count_op();
            Ok(r)
        }));
        match outcome {
            Ok(r) => r,
            Err(p) => Err(BmxError::Protocol(format!(
                "user closure at {:?} panicked: {}",
                self.node,
                panic_note(p)
            ))),
        }
    }

    /// One completed mutator operation, for [`ParallelCluster::ops`] and
    /// the [`Ctr::ParallelOps`] counter, counted by the call that completed
    /// it while it still holds this node's site lock. The lock makes the
    /// cell single-writer, so the count is a load and a store, not a locked
    /// read-modify-write. Acquire *polls* are not ops — only the poll that
    /// enters is, so the count stays schedule-independent.
    fn count_op(&self) {
        let ops = &self.shared.site(self.node).ops;
        ops.store(ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        metrics::bump(self.node, Ctr::ParallelOps);
    }

    /// The *protocol* domain behind the typed methods: a panic here is a
    /// protocol bug, so it crashes this node's failure domain (the node
    /// goes down; other nodes keep serving). A call that succeeds is one op.
    fn with_protocol<R>(&self, f: impl Fn(&mut Cluster) -> Result<R>) -> Result<R> {
        self.with_protocol_uncounted(|c| {
            let r = f(c)?;
            self.count_op();
            Ok(r)
        })
    }

    /// Runs `f` under this node's lock alone. If the protocol finds it
    /// must read another node ([`BmxError::NeedsNode`], reported before
    /// anything was changed), `f` runs again with that node's site locked
    /// too and its slot lent.
    fn with_protocol_uncounted<R>(&self, f: impl Fn(&mut Cluster) -> Result<R>) -> Result<R> {
        let alone = self.guarded(|| {
            let mut core = self.shared.lock_site(self.node, self.node);
            // Under its lock a node's slot is always home; only the husk
            // a completed shutdown leaves behind has none.
            if !core.is_resident(self.node) {
                return Err(shut_down());
            }
            f(&mut core)
        });
        match alone {
            Err(BmxError::NeedsNode { node }) => self.with_sites(&[node], f),
            r => r,
        }
    }

    /// Runs `f` with the sites of `others` locked as well as this node's,
    /// and their slots lent to it.
    fn with_sites<R>(
        &self,
        others: &[NodeId],
        f: impl FnOnce(&mut Cluster) -> Result<R>,
    ) -> Result<R> {
        self.guarded(|| f(self.shared.gather(self.node, others)?.cluster()))
    }

    /// The protocol domain's failure handling around one locked call:
    /// refused on a node that is down, and a panic inside takes the node
    /// down.
    fn guarded<R>(&self, call: impl FnOnce() -> Result<R>) -> Result<R> {
        self.shared.check(self.node)?;
        match catch_unwind(AssertUnwindSafe(call)) {
            Ok(r) => r,
            Err(p) => {
                let note = format!("handle op at {:?} panicked: {}", self.node, panic_note(p));
                self.shared.fail_node(self.node, note.clone());
                Err(BmxError::Protocol(note))
            }
        }
    }

    /// Creates a bunch with this node as creator.
    pub fn create_bunch(&self) -> Result<BunchId> {
        let n = self.node;
        self.with_protocol(|c| c.create_bunch(n))
    }

    /// Maps `bunch` (created at `from`) onto this node.
    pub fn map_bunch(&self, bunch: BunchId, from: NodeId) -> Result<()> {
        let n = self.node;
        self.with_sites(&[from], |c| {
            c.map_bunch(n, bunch, from)?;
            self.count_op();
            Ok(())
        })
    }

    /// Allocates an object in `bunch`.
    pub fn alloc(&self, bunch: BunchId, spec: &ObjSpec) -> Result<Addr> {
        let n = self.node;
        self.with_protocol(|c| c.alloc(n, bunch, spec))
    }

    /// Registers a mutator root.
    pub fn add_root(&self, addr: Addr) -> Result<u64> {
        let n = self.node;
        self.with_protocol(|c| Ok(c.add_root(n, addr)))
    }

    /// Reads a data field (inside a token bracket).
    pub fn read_data(&self, obj: Addr, field: u64) -> Result<u64> {
        let n = self.node;
        self.with_protocol(|c| c.read_data(n, obj, field))
    }

    /// Writes a data field (inside a token bracket).
    pub fn write_data(&self, obj: Addr, field: u64, value: u64) -> Result<()> {
        let n = self.node;
        self.with_protocol(|c| c.write_data(n, obj, field, value))
    }

    /// Reads a reference field.
    pub fn read_ref(&self, obj: Addr, field: u64) -> Result<Addr> {
        let n = self.node;
        self.with_protocol(|c| c.read_ref(n, obj, field))
    }

    /// Writes a reference field (through the write barrier).
    pub fn write_ref(&self, obj: Addr, field: u64, target: Addr) -> Result<()> {
        let n = self.node;
        self.with_protocol(|c| c.write_ref(n, obj, field, target))
    }

    /// OID of the object at `addr`.
    pub fn oid_at(&self, addr: Addr) -> Result<Oid> {
        let n = self.node;
        self.with_protocol(|c| c.oid_at(n, addr))
    }

    /// Runs a bunch collection at this node.
    pub fn run_bgc(&self, bunch: BunchId) -> Result<bmx_gc::CollectStats> {
        let n = self.node;
        self.with_protocol(|c| c.run_bgc(n, bunch))
    }

    /// Acquires a read token, blocking the calling thread (not the
    /// cluster) until the grant arrives or the runtime's acquire timeout
    /// ([`ClusterConfig::acquire_timeout`]) elapses.
    pub fn acquire_read(&self, obj: Addr) -> Result<()> {
        self.acquire(obj, false)
    }

    /// Acquires the write token, blocking the calling thread only.
    pub fn acquire_write(&self, obj: Addr) -> Result<()> {
        self.acquire(obj, true)
    }

    /// Releases the token bracket.
    pub fn release(&self, obj: Addr) -> Result<()> {
        let n = self.node;
        self.with_protocol(|c| c.release(n, obj))
    }

    /// One poll of a blocking acquire: applies what the node's inbox holds,
    /// then tries to enter. Returns whether the critical section was
    /// entered — the poll that enters counts the acquire as an op — and, if
    /// not, whose grant the node is waiting for, so a dead owner surfaces
    /// as a typed error instead of burning the whole acquire timeout.
    fn poll_acquire(&self, obj: Addr, write: bool, nudge: bool) -> Result<(bool, Option<NodeId>)> {
        let n = self.node;
        let shared = &*self.shared;
        self.with_protocol_uncounted(|c| {
            let queued = shared.channels.queued(n);
            if queued != 0 {
                shared.apply_queued(n, c, queued);
            }
            if nudge {
                c.nudge_acquire(n, obj)?;
            }
            let entered = c.poll_acquire(n, obj, write)?;
            let owner = if entered {
                self.count_op();
                None
            } else {
                c.oid_at(n, obj)
                    .ok()
                    .and_then(|oid| c.engine.obj_state(n, oid))
                    .map(|st| st.owner_hint)
            };
            Ok((entered, owner))
        })
    }

    fn acquire(&self, obj: Addr, write: bool) -> Result<()> {
        let n = self.node;
        let t0 = metrics::enabled().then(Instant::now);
        // One acquire = one distributed flow. Every protocol send this
        // thread stages while polling carries the id on its envelope,
        // whoever applies it restores it (and parks it with a
        // queued request, for a grant deferred behind a critical
        // section), so the request -> grant -> apply -> wake chain
        // stitches into one track in the exported Perfetto trace.
        let flow = trace::new_flow();
        let _flow_scope = trace::flow_scope(flow);
        let _acquire_span = trace::span_with_flow(SpanKind::Acquire, n, flow);
        let submit_span = trace::span_with_flow(SpanKind::AcquireSubmit, n, flow);
        let (mut entered, mut owner) = self.poll_acquire(obj, write, false)?;
        drop(submit_span);
        if !entered {
            // The token is elsewhere. Everything a *wait* needs — the
            // clock, the jitter stream, the wake epoch — starts here, so
            // an acquire the node satisfies itself pays for none of it.
            let wake = &self.shared.site(n).wake;
            let deadline = Instant::now() + self.shared.acquire_timeout;
            let mut rng = SplitMix64::new(
                self.shared
                    .backoff_seed
                    .wrapping_add(obj.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    ^ ((u64::from(n.0) + 1) << 32)
                    ^ u64::from(write),
            );
            let mut spins: u32 = 0;
            let mut backoff_us: u64 = 20;
            let mut seen = wake.epoch();
            let mut attending = Some(Attending::new(&self.shared, n));
            while !entered {
                let late = Instant::now() >= deadline;
                if let Some(owner) = owner.filter(|&o| o != n) {
                    // Down hard: fail fast with the typed error. A merely
                    // *recovering* owner is coming back — keep polling (the
                    // backoff-ceiling nudge below re-sends the request once
                    // the recovered node is serving again) until time is up.
                    let status = self.shared.status_of(owner);
                    if status == NODE_DOWN || (late && status != NODE_ALIVE) {
                        self.abandon_acquire(obj);
                        return Err(BmxError::NodeDown { node: owner });
                    }
                }
                if late {
                    let oid = self.with_protocol_uncounted(|c| c.oid_at(n, obj))?;
                    self.abandon_acquire(obj);
                    return Err(BmxError::WouldBlock { oid });
                }
                // Re-poll cadence: spin briefly for fast grants, then back
                // off exponentially with seeded jitter so contending handles
                // don't re-poll in lockstep.
                spins = spins.saturating_add(1);
                // Open between a park's end and the end of the next poll:
                // the ring -> re-poll reaction time the wake signal exists
                // to minimize, measured instead of assumed.
                let mut wake_span = None;
                if spins < SPINS_BEFORE_PARK {
                    std::thread::yield_now();
                } else {
                    // Park on the node's wake signal rather than sleeping
                    // blind: it rings after every envelope applied at the
                    // node, so a landing grant is claimed in microseconds
                    // instead of idling reserved for the rest of the
                    // backoff. A parked waiter applies nothing, so first
                    // the driver takes over the inbox. `seen` was sampled
                    // before the last poll, which makes the poll-then-park
                    // window safe, and the backoff is still the timeout of
                    // last resort.
                    drop(attending.take());
                    let jitter = rng.next_below(backoff_us / 2 + 1);
                    {
                        let _park = trace::span_with_flow(SpanKind::AcquirePark, n, flow);
                        wake.wait(seen, Duration::from_micros(backoff_us + jitter));
                    }
                    wake_span = Some(trace::span_with_flow(SpanKind::AcquireWake, n, flow));
                    backoff_us = (backoff_us * 2).min(2_000);
                }
                // Once the backoff has hit its ceiling the grant is overdue
                // by orders of magnitude over the lossless-channel round
                // trip: the request may have died with a crashed node
                // (purged inbox, amnesia-wiped queue). Re-send it toward the
                // current owner hint — deduplicated at the queue, so a false
                // alarm is noise, not a double grant.
                let nudge = spins >= SPINS_BEFORE_PARK && backoff_us >= 2_000;
                // Sample the wake epoch *before* polling: a grant applied
                // after this line moves the epoch, so the next `wait` falls
                // through instead of sleeping past it (no lost wakeup).
                seen = wake.epoch();
                let poll_span = trace::span_with_flow(SpanKind::AcquirePoll, n, flow);
                (entered, owner) = self.poll_acquire(obj, write, nudge)?;
                drop(poll_span);
                // If we were parked, the wake "ends" once the poll it
                // triggered completes (grant claimed or not).
                drop(wake_span);
            }
        }
        if let Some(t0) = t0 {
            let h = if write {
                Hst::AcquireWriteMicros
            } else {
                Hst::AcquireReadMicros
            };
            metrics::observe(n, h, t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Best-effort wait cancellation on an acquire's error exit. Without
    /// it, a grant that raced the timeout leaves the replica reserved for
    /// a waiter that is gone, wedging every later remote request.
    fn abandon_acquire(&self, obj: Addr) {
        let n = self.node;
        let _ = self.with_protocol_uncounted(|c| c.cancel_acquire(n, obj));
    }
}

// The parallel runtime is only sound if the protocol core can cross
// threads; keep that property pinned at compile time. (`NodeMemory` is
// `Send` and not `Sync`: its last-hit index is a `Cell`, touched only by
// whoever holds the node's site lock.)
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Cluster>();
    assert_send::<NodeHandle>();
    assert_send::<bmx_addr::NodeMemory>();
};
