//! The differential conformance suite for the transport seam: the same
//! protocol state machines run in both execution modes — the
//! deterministic tick simulation and the `bmx::parallel` runtime (one OS
//! thread per node, channel links, real mutator threads) — and must
//! reach *equivalent final protocol state* from the same seeded workload.
//!
//! Methodology (DESIGN.md §11): the workload is phase-structured so its
//! outcome is interleaving-independent — allocations and bunch creation
//! happen in a sequential setup phase (address/OID/bunch-id determinism),
//! the racing phase performs only commutative shared-counter increments
//! plus node-private churn and collections, and a sequential settle phase
//! pulls every shared token to node 0 and runs the collectors in a fixed
//! order. Any execution mode that implements the paper's protocol
//! faithfully must then agree on the full digest: per-node token and
//! ownership state, heap payloads, stub/scion tables, directory
//! resolution, and root reachability.
//!
//! The second half is the schedule fuzzer: seeded perturbations (yields,
//! sleeps) are injected between operations of the parallel run to shake
//! out interleavings, and every run is re-checked against the digest,
//! `assert_no_premature_reclamation`, and the Section-5 acquire
//! invariants recovered from the causally merged trace stream.

use std::sync::Arc;
use std::time::Duration;

use bmx_common::SplitMix64;
use bmx_repro::bmx::audit;
use bmx_repro::prelude::*;
use bmx_repro::trace::{self, TraceEvent};
use parking_lot::Mutex;

mod schedule;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

const NODES: u32 = 3;
const SHARED: usize = 4;
const STEPS: u64 = 24;

/// Serializes the tests in this binary: the schedule fuzzer installs the
/// *process-global* trace recorder, which would otherwise capture records
/// from a concurrently running differential test (a different cluster
/// with overlapping OIDs — false positives in the invariant queries).
static TRACE_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`TRACE_SERIAL`]. The mutex guards no data, so a test that panicked while
/// holding it left nothing inconsistent: ignore the poison, or one failing
/// test fails every sibling with `PoisonError`.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    TRACE_SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn per_node_rng(seed: u64, node: u32) -> SplitMix64 {
    SplitMix64::new(seed ^ ((u64::from(node) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Everything the setup phase creates; identical in both modes because
/// setup runs sequentially (single-threaded in sim, one closure under the
/// protocol lock in parallel).
#[derive(Clone)]
struct Setup {
    shared_bunch: BunchId,
    priv_bunch: Vec<BunchId>,
    shared: Vec<Addr>,
    keep: Vec<Addr>,
}

fn setup_workload(c: &mut Cluster) -> Setup {
    let n0 = n(0);
    let shared_bunch = c.create_bunch(n0).unwrap();
    let shared: Vec<Addr> = (0..SHARED)
        .map(|_| {
            let o = c
                .alloc(n0, shared_bunch, &ObjSpec::with_refs(2, &[0]))
                .unwrap();
            c.add_root(n0, o);
            o
        })
        .collect();
    for i in 1..NODES {
        c.map_bunch(n(i), shared_bunch, n0).unwrap();
        for &o in &shared {
            c.add_root(n(i), o);
        }
    }
    // One private bunch + one rooted survivor per node; the survivor
    // holds a cross-bunch reference so the private BGCs exercise the
    // inter-bunch stub path too.
    let mut priv_bunch = Vec::new();
    let mut keep = Vec::new();
    for i in 0..NODES {
        let node = n(i);
        let pb = c.create_bunch(node).unwrap();
        let k = c.alloc(node, pb, &ObjSpec::with_refs(2, &[0])).unwrap();
        c.add_root(node, k);
        c.write_ref(node, k, 0, shared[0]).unwrap();
        priv_bunch.push(pb);
        keep.push(k);
    }
    Setup {
        shared_bunch,
        priv_bunch,
        shared,
        keep,
    }
}

/// One racing-phase step for `node`: a commutative increment on a
/// seed-chosen shared object, plus periodic private garbage and a private
/// collection. `acquire` and `bgc` abstract over the two modes' entry
/// points (direct cluster calls vs. a blocking [`NodeHandle`]).
fn step_plan(rng: &mut SplitMix64) -> usize {
    (rng.next_u64() % SHARED as u64) as usize
}

/// The per-node expected increment counts, replayed from the seed alone —
/// pins both modes to the *workload*, not just to each other.
fn expected_totals(seed: u64) -> Vec<u64> {
    let mut totals = vec![0u64; SHARED];
    for node in 0..NODES {
        let mut rng = per_node_rng(seed, node);
        for _ in 0..STEPS {
            totals[step_plan(&mut rng)] += 1;
        }
    }
    totals
}

/// The full final-state digest. Two runs are *conformant* iff their
/// digests are equal after the settle phase.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    /// Per node, sorted: (oid, token, is_owner) for every live replica.
    replicas: Vec<Vec<(u64, Token, bool)>>,
    /// Field 1 of each shared object, read at its (unique) owner.
    payloads: Vec<u64>,
    /// Per node: the address set reachable from its registered roots.
    reachable: Vec<Vec<Addr>>,
    /// Per node, per bunch: the rendered stub and scion tables.
    ssp_tables: Vec<String>,
    /// Per node: directory resolution of every tracked address.
    directory: Vec<Vec<Addr>>,
}

/// Sequential settle phase + digest, identical for both modes: pull every
/// shared token to node 0, run the collectors in a fixed order, then
/// snapshot. Also runs the premature-reclamation audit over every root.
fn settle_and_digest(c: &mut Cluster, s: &Setup) -> Digest {
    let n0 = n(0);
    c.settle(50_000).unwrap();
    for &o in &s.shared {
        c.acquire_write(n0, o).unwrap();
        c.release(n0, o).unwrap();
    }
    for i in 0..NODES {
        c.run_bgc(n(i), s.shared_bunch).unwrap();
    }
    for i in 0..NODES {
        c.run_bgc(n(i), s.priv_bunch[i as usize]).unwrap();
    }
    c.settle(50_000).unwrap();
    c.assert_gc_acquired_no_tokens();

    let mut live: Vec<(NodeId, Addr)> = Vec::new();
    for i in 0..NODES {
        for &o in &s.shared {
            live.push((n(i), o));
        }
        live.push((n(i), s.keep[i as usize]));
    }
    audit::assert_no_premature_reclamation(c, &live);

    let tracked: Vec<Addr> = s.shared.iter().chain(s.keep.iter()).copied().collect();
    let replicas = (0..NODES)
        .map(|i| {
            let mut v: Vec<(u64, Token, bool)> = c
                .engine
                .replicas(n(i))
                .into_iter()
                .map(|(oid, st)| (oid.0, st.token, st.is_owner))
                .collect();
            v.sort_unstable_by_key(|e| e.0);
            v
        })
        .collect();
    let payloads = s
        .shared
        .iter()
        .map(|&o| {
            let owner = (0..NODES)
                .map(n)
                .find(|&node| {
                    c.oid_at_local(node, o)
                        .is_ok_and(|oid| c.engine.is_owner(node, oid))
                })
                .expect("every shared object has exactly one owner");
            c.read_data(owner, o, 1).unwrap()
        })
        .collect();
    let reachable = (0..NODES)
        .map(|i| c.reachable_from_roots(n(i)).into_iter().collect())
        .collect();
    let ssp_tables = (0..NODES)
        .map(|i| {
            let ns = c.gc.node(n(i));
            let mut out = String::new();
            for (bid, brs) in &ns.bunches {
                out.push_str(&format!(
                    "{bid:?}: stubs intra {:?} inter {:?}; scions intra {:?} inter {:?}\n",
                    brs.stub_table.intra(),
                    brs.stub_table.inter(),
                    brs.scion_table.intra(),
                    brs.scion_table.inter(),
                ));
            }
            out
        })
        .collect();
    let directory = (0..NODES)
        .map(|i| {
            let ns = c.gc.node(n(i));
            tracked.iter().map(|&a| ns.directory.resolve(a)).collect()
        })
        .collect();
    Digest {
        replicas,
        payloads,
        reachable,
        ssp_tables,
        directory,
    }
}

/// The deterministic mode: the whole workload on one thread, nodes
/// round-robined step by step through the tick simulation, whose deliveries
/// within a tick follow `schedule`.
fn run_sim(seed: u64, schedule: Schedule) -> Digest {
    let mut cfg = ClusterConfig::with_nodes(NODES);
    // Match the parallel runtime's staging config so protocol behavior
    // (not transport behavior) is the only variable.
    cfg.net = NetworkConfig::lossless(1);
    cfg.net.schedule = schedule;
    let mut c = Cluster::new(cfg);
    let s = setup_workload(&mut c);
    let mut rngs: Vec<SplitMix64> = (0..NODES).map(|i| per_node_rng(seed, i)).collect();
    for step in 0..STEPS {
        for i in 0..NODES {
            let node = n(i);
            let o = s.shared[step_plan(&mut rngs[i as usize])];
            c.acquire_write(node, o).unwrap();
            let v = c.read_data(node, o, 1).unwrap();
            c.write_data(node, o, 1, v + 1).unwrap();
            c.release(node, o).unwrap();
            let pb = s.priv_bunch[i as usize];
            if step % 6 == 2 {
                let g = c.alloc(node, pb, &ObjSpec::with_refs(2, &[0])).unwrap();
                c.write_data(node, g, 1, step).unwrap();
            }
            if step % 8 == 5 {
                c.run_bgc(node, pb).unwrap();
            }
        }
    }
    settle_and_digest(&mut c, &s)
}

/// The parallel mode: one mutator thread per node over real
/// [`NodeHandle`]s, per-node driver threads moving the token traffic.
/// `fuzz` seeds optional schedule perturbation (yields/sleeps between
/// operations) for the fuzzer tests.
fn run_parallel(seed: u64, fuzz: Option<u64>) -> Digest {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    assert!(
        pc.quiesce(Duration::from_secs(10)),
        "setup failed to settle"
    );

    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads = Vec::new();
    for i in 0..NODES {
        let h = pc.handle(n(i));
        let s = s.clone();
        let failures = Arc::clone(&failures);
        threads.push(std::thread::spawn(move || {
            h.bind_metrics();
            let mut rng = per_node_rng(seed, i);
            let mut fz = fuzz.map(|f| per_node_rng(f, i));
            let jitter = |fz: &mut Option<SplitMix64>| {
                if let Some(r) = fz {
                    match r.next_u64() % 4 {
                        0 => std::thread::yield_now(),
                        1 => std::thread::sleep(Duration::from_micros(r.next_u64() % 150)),
                        _ => {}
                    }
                }
            };
            let work = |rng: &mut SplitMix64, fz: &mut Option<SplitMix64>| -> Result<()> {
                for step in 0..STEPS {
                    let o = s.shared[step_plan(rng)];
                    jitter(fz);
                    h.acquire_write(o)?;
                    let v = h.read_data(o, 1)?;
                    jitter(fz);
                    h.write_data(o, 1, v + 1)?;
                    h.release(o)?;
                    let pb = s.priv_bunch[i as usize];
                    if step % 6 == 2 {
                        let g = h.alloc(pb, &ObjSpec::with_refs(2, &[0]))?;
                        h.write_data(g, 1, step)?;
                    }
                    if step % 8 == 5 {
                        jitter(fz);
                        h.run_bgc(pb)?;
                    }
                }
                Ok(())
            };
            if let Err(e) = work(&mut rng, &mut fz) {
                failures.lock().push(format!("node {i}: {e}"));
            }
        }));
    }
    for t in threads {
        t.join().expect("mutator thread");
    }
    assert!(
        failures.lock().is_empty(),
        "parallel run (seed {seed:#x}, fuzz {fuzz:?}) failed: {:?}",
        failures.lock()
    );
    assert!(pc.quiesce(Duration::from_secs(10)), "failed to quiesce");
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.dropped, 0, "drain dropped traffic: {report:?}");
    assert_eq!(
        report.delivered, report.sent,
        "drain must apply everything: {report:?}"
    );
    settle_and_digest(&mut cluster, &s)
}

/// Headline: across eight seeds, the parallel runtime and the tick
/// simulation reach *equal* final protocol state — token placement,
/// ownership, payloads, SSP tables, directory, reachability — and both
/// match the totals replayed from the workload seed alone.
#[test]
fn parallel_matches_sim_on_eight_seeds() {
    let _serial = serial();
    for seed in [
        0xC0F0_0001u64,
        0xC0F0_0002,
        0xC0F0_0003,
        0xC0F0_0004,
        0xD15C_0005,
        0xD15C_0006,
        0xFEED_0007,
        0xFEED_0008,
    ] {
        let sim = run_sim(seed, Schedule::Due);
        let par = run_parallel(seed, None);
        assert_eq!(
            sim.payloads,
            expected_totals(seed),
            "sim totals (seed {seed:#x})"
        );
        assert_eq!(sim, par, "mode divergence (seed {seed:#x})");
    }
}

/// The simulator's half on its own: the digest depends on the workload
/// seed, not on the order a tick delivers in, so every schedule
/// `SCHEDULE_SEEDS` names reaches `Due`'s digest and the replayed totals.
#[test]
fn sim_digest_is_the_same_under_every_schedule() {
    let _serial = serial();
    for seed in [0xC0F0_0001u64, 0xD15C_0005, 0xFEED_0008] {
        let due = run_sim(seed, Schedule::Due);
        assert_eq!(due.payloads, expected_totals(seed), "seed {seed:#x}");
        schedule::each(|schedule| {
            assert_eq!(run_sim(seed, schedule), due, "seed {seed:#x}");
        });
    }
}

/// Gather identity: the runtime keeps each node's state in a cluster of
/// its own and `shutdown` gathers them into the one it returns. With no
/// racing phase at all — spawn, the set-up, drain — that cluster must be
/// the simulator's, digest for digest: nothing is lost, duplicated or
/// left behind in a site when slots are lent for `with` and collected at
/// the end.
#[test]
fn gathered_cluster_after_setup_matches_sim() {
    let _serial = serial();
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.net = NetworkConfig::lossless(1);
    let mut sim = Cluster::new(cfg);
    let s_sim = setup_workload(&mut sim);

    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let s_par = pc
        .handle(n(1))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    assert!(pc.quiesce(Duration::from_secs(10)), "setup settles");
    let (mut gathered, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.delivered, report.sent, "{report:?}");
    assert_eq!(s_sim.shared, s_par.shared, "same addresses in both modes");
    for i in 0..NODES {
        assert!(gathered.is_resident(n(i)), "node {i}'s slot came home");
    }
    assert_eq!(
        settle_and_digest(&mut sim, &s_sim),
        settle_and_digest(&mut gathered, &s_par)
    );
}

/// The wall-clock span profiler's zero-cost claim, pinned as protocol
/// conformance: the same seeded workload, run once with the profiler off
/// and once recording every span kind, must produce *bit-identical*
/// digests (and both must match the deterministic simulation).
/// Observation must never become participation — a profiler that
/// perturbed token placement or payloads would fail here, not in a
/// dashboard someone squints at later.
#[test]
fn profiled_run_digest_is_identical_to_unprofiled() {
    let _serial = serial();
    let seed = 0x0F11_ED00u64;
    let sim = run_sim(seed, Schedule::Due);
    trace::disable_spans();
    let unprofiled = run_parallel(seed, None);
    trace::enable_spans(4096);
    let profiled = run_parallel(seed, None);
    let records = trace::snapshot_global();
    let spans = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Span { .. }))
        .count();
    trace::disable_spans();
    assert!(
        spans > 0,
        "profiler on but no spans recorded — check vacuous"
    );
    assert_eq!(sim, unprofiled, "unprofiled parallel diverged from sim");
    assert_eq!(unprofiled, profiled, "profiling perturbed protocol state");
}

/// The schedule fuzzer: seeded sleeps and yields perturb the parallel
/// interleaving; every perturbed schedule must still (a) produce the same
/// digest as the deterministic mode, (b) pass the premature-reclamation
/// audit (checked inside the run), and (c) satisfy the Section-5 acquire
/// invariants on the causally merged trace of all threads.
#[test]
fn schedule_fuzzer_preserves_safety_and_digest() {
    let _serial = serial();
    let seed = 0xF0CC_ACC1A_u64;
    let reference = run_sim(seed, Schedule::Due);
    trace::install_global(trace::UNBOUNDED);
    for fuzz in [
        0xF2_0001u64,
        0xF2_0002,
        0xF2_0003,
        0xF2_0004,
        0xF2_0005,
        0xF2_0006,
    ] {
        let _ = trace::take_global();
        let par = run_parallel(seed, Some(fuzz));
        assert_eq!(reference, par, "fuzzed schedule diverged (fuzz {fuzz:#x})");
        let records = trace::take_global();
        assert!(
            records
                .iter()
                .any(|r| matches!(r.event, TraceEvent::AcquireComplete { .. })),
            "fuzz {fuzz:#x}: trace captured no acquires — checker vacuous"
        );
        let bad = trace::query::acquire_invariant_violations(&records);
        assert!(
            bad.is_empty(),
            "fuzz {fuzz:#x}: Section-5 acquire violations: {bad:?}"
        );
    }
    trace::disable_global();
}

// ---------------------------------------------------------------------
// One fault plane: the same `ClusterConfig`, faults and all, on both
// execution modes.
// ---------------------------------------------------------------------

const VICTIM: u32 = 2;
/// The cut between N0 and {N1, N2} is in force from the start, so the
/// first cross-node acquire of either run meets it.
const CUT_END: u64 = 100;
/// The victim's amnesia outage: late enough that the racing phase is over
/// in the simulator (asserted) and, on any reasonable host, on threads.
const CRASH: (u64, u64) = (400, 440);
const STEPS_BEFORE: u64 = 12;
const STEPS_AFTER: u64 = 8;

/// Drop, duplicate and jitter on every link, one healing partition, one
/// `crash_amnesia`, one seed — ticks to the simulator, pulses to the
/// thread plane.
fn chaos_cfg(seed: u64, dir: &std::path::Path) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_nodes(NODES).with_acquire_timeout(Duration::from_secs(30));
    cfg.net = NetworkConfig::lossless(1).with_fault(
        FaultPlan::none()
            .all_links(LinkFault {
                drop: 0.4,
                duplicate: 0.4,
                jitter: 1,
            })
            .partition(vec![n(0)], vec![n(1), n(2)], 0, CUT_END)
            .crash_amnesia(n(VICTIM), CRASH.0, CRASH.1),
    );
    cfg.net.seed = seed;
    cfg.persist = Some(PersistConfig::at(dir));
    cfg
}

/// The shared objects `node` increments before the outage and after it.
/// The victim increments only once it has rejoined: what an amnesia crash
/// may lose is the victim's own unpersisted writes, and the runs compare
/// totals.
fn chaos_steps(seed: u64, node: u32) -> (Vec<usize>, Vec<usize>) {
    let mut rng = per_node_rng(seed, node);
    let before = if node == VICTIM { 0 } else { STEPS_BEFORE };
    let before = (0..before).map(|_| step_plan(&mut rng)).collect();
    let after = (0..STEPS_AFTER).map(|_| step_plan(&mut rng)).collect();
    (before, after)
}

/// What both modes must agree on, up to the schedule: the payloads, and
/// which `FaultStats` fields the plan moved.
struct ChaosOutcome {
    payloads: Vec<u64>,
    fault: FaultStats,
    /// Per class, [`MsgClass::ALL`] order: copies handed to the message
    /// plane, copies applied, copies discarded.
    sent: [u64; 4],
    delivered: [u64; 4],
    dropped: [u64; 4],
}

/// The settle phase and the safety gates, on the final cluster of either
/// mode; returns the payloads read at node 0.
fn settle_and_gate(c: &mut Cluster, s: &Setup) -> Vec<u64> {
    let n0 = n(0);
    c.settle(50_000).unwrap();
    let payloads = s
        .shared
        .iter()
        .map(|&o| {
            c.acquire_write(n0, o).unwrap();
            let v = c.read_data(n0, o, 1).unwrap();
            c.release(n0, o).unwrap();
            v
        })
        .collect();
    for i in 0..NODES {
        c.run_bgc(n(i), s.shared_bunch).unwrap();
        c.run_bgc(n(i), s.priv_bunch[i as usize]).unwrap();
    }
    c.settle(50_000).unwrap();
    c.assert_gc_acquired_no_tokens();
    let live: Vec<(NodeId, Addr)> = s
        .shared
        .iter()
        .map(|&o| (n0, o))
        .chain((0..NODES).map(|i| (n(i), s.keep[i as usize])))
        .collect();
    audit::assert_no_premature_reclamation(c, &live);
    assert!(!c.in_recovery(n(VICTIM)), "the rejoin completed");
    assert!(
        c.recovery_log.iter().any(|r| r.node == n(VICTIM)),
        "the victim recovered through the pipeline: {:?}",
        c.recovery_log
    );
    payloads
}

fn chaos_on_sim(cfg: ClusterConfig, seed: u64) -> ChaosOutcome {
    let victim = n(VICTIM);
    trace::install(trace::UNBOUNDED);
    let mut c = Cluster::new(cfg);
    let s = setup_workload(&mut c);
    for i in 0..NODES {
        c.run_bgc(n(i), s.priv_bunch[i as usize]).unwrap();
        c.run_bgc(n(i), s.shared_bunch).unwrap();
    }
    let incr = |c: &mut Cluster, node: NodeId, o: Addr| {
        c.acquire_write(node, o).unwrap();
        let v = c.read_data(node, o, 1).unwrap();
        c.write_data(node, o, 1, v + 1).unwrap();
        c.release(node, o).unwrap();
    };
    let plans: Vec<_> = (0..NODES).map(|i| chaos_steps(seed, i)).collect();
    for step in 0..STEPS_BEFORE as usize {
        for i in 0..NODES {
            if let Some(&k) = plans[i as usize].0.get(step) {
                incr(&mut c, n(i), s.shared[k]);
            }
            if step % 2 == 1 {
                c.run_bgc(n(i), s.shared_bunch).unwrap();
            }
        }
        c.step(2).unwrap();
    }
    // Idle into the outage: with nothing in flight the crash purges
    // nothing, so every copy the network accepted is delivered.
    c.settle(50_000).unwrap();
    assert!(c.net.now() < CRASH.0, "the racing phase ran into the crash");
    while c.net.now() < CRASH.1 || c.in_recovery(victim) {
        assert!(c.net.now() < 50_000, "the victim never rejoined");
        c.step(1).unwrap();
    }
    for step in 0..STEPS_AFTER as usize {
        for i in 0..NODES {
            incr(&mut c, n(i), s.shared[plans[i as usize].1[step]]);
            if step % 2 == 1 {
                c.run_bgc(n(i), s.shared_bunch).unwrap();
            }
        }
        c.step(2).unwrap();
    }
    let payloads = settle_and_gate(&mut c, &s);
    let records = trace::take();
    trace::disable();
    let stats = MsgClass::ALL.map(|class| c.net.class_stats(class));
    ChaosOutcome {
        payloads,
        fault: c.net.fault_stats(),
        sent: stats.map(|s| s.sent + s.duplicated + s.dropped),
        delivered: MsgClass::ALL.map(|class| {
            records
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::MsgDeliver { lane, .. } if lane == class.lane()))
                .count() as u64
        }),
        dropped: stats.map(|s| s.dropped),
    }
}

fn chaos_on_threads(cfg: ClusterConfig, seed: u64) -> ChaosOutcome {
    let pc = ParallelCluster::spawn(cfg);
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    for i in 0..NODES {
        let h = pc.handle(n(i));
        h.run_bgc(s.priv_bunch[i as usize]).expect("checkpoint bgc");
        h.run_bgc(s.shared_bunch).expect("checkpoint bgc");
    }
    // One phase on one thread per node. A node that goes down under its
    // mutator takes the mutator with it — that is the victim, if the host
    // is slow enough for the racing phase to reach the outage.
    let phase = |after: bool| {
        std::thread::scope(|sc| {
            for i in 0..NODES {
                let (h, s) = (pc.handle(n(i)), &s);
                sc.spawn(move || {
                    let (before, later) = chaos_steps(seed, i);
                    let steps = if after { later } else { before };
                    let rounds = if after { STEPS_AFTER } else { STEPS_BEFORE } as usize;
                    let work = || -> Result<()> {
                        for step in 0..rounds {
                            if let Some(&k) = steps.get(step) {
                                let o = s.shared[k];
                                h.acquire_write(o)?;
                                let v = h.read_data(o, 1)?;
                                h.write_data(o, 1, v + 1)?;
                                h.release(o)?;
                            }
                            if step % 2 == 1 {
                                h.run_bgc(s.shared_bunch)?;
                            }
                        }
                        Ok(())
                    };
                    match work() {
                        Err(BmxError::NodeDown { node }) if node.0 == VICTIM && i == VICTIM => {}
                        r => r.unwrap_or_else(|e| panic!("node {i}: {e}")),
                    }
                });
            }
        });
    };
    phase(false);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while pc.now_pulse() < CRASH.1 || pc.node_status(n(VICTIM)) != NodeStatus::Alive {
        assert!(
            std::time::Instant::now() < deadline,
            "victim never rejoined"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    phase(true);
    assert!(pc.quiesce(Duration::from_secs(30)), "failed to quiesce");
    let fault = pc.fault_stats().expect("fault plane");
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    ChaosOutcome {
        payloads: settle_and_gate(&mut cluster, &s),
        fault,
        sent: report.sent_by_class,
        delivered: report.delivered_by_class,
        dropped: report.dropped_by_class,
    }
}

/// One `ClusterConfig` — link faults, a healing partition, an amnesia
/// crash, one seed — means the same thing to both planes: each run keeps
/// every increment, passes the audits without the collector touching a
/// token, conserves messages per class, and reports what it injected in
/// the same `FaultStats` fields.
#[test]
fn one_fault_plan_drives_both_execution_modes() {
    let _serial = serial();
    let seed = 0xFA17_0001u64;
    let dir = std::env::temp_dir().join(format!("bmx-one-fault-plane-{}", std::process::id()));
    let cfg = chaos_cfg(seed, &dir);
    let mut expected = vec![0u64; SHARED];
    for i in 0..NODES {
        let (before, after) = chaos_steps(seed, i);
        for k in before.into_iter().chain(after) {
            expected[k] += 1;
        }
    }
    type Run = fn(ClusterConfig, u64) -> ChaosOutcome;
    for (mode, run) in [("sim", chaos_on_sim as Run), ("threads", chaos_on_threads)] {
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(cfg.clone(), seed);
        assert_eq!(out.payloads, expected, "{mode}: increments conserved");
        for (idx, class) in MsgClass::ALL.into_iter().enumerate() {
            assert_eq!(
                out.delivered[idx] + out.dropped[idx],
                out.sent[idx],
                "{mode}: conservation for {class:?}"
            );
        }
        let f = out.fault;
        assert!(
            f.link_dropped > 0 && f.duplicates_injected > 0 && f.partition_held > 0,
            "{mode}: drop, duplicate and held counters moved: {f:?}"
        );
        assert_eq!((f.partitions_healed, f.restarts), (1, 1), "{mode}: {f:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan crash is one fault-plane event on both planes: the victim
/// records `Fault{Crash}` then `Fault{Restart}` in its trace, one record
/// per activation, whether the plan is read in ticks or in supervisor
/// pulses.
#[test]
fn a_plan_crash_is_traced_and_counted_alike_on_both_planes() {
    let _serial = serial();
    const DOWN: (u64, u64) = (5, 12);
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.net = NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash_amnesia(
        n(VICTIM),
        DOWN.0,
        DOWN.1,
    ));
    let victim_faults = |records: Vec<trace::TraceRecord>| -> Vec<trace::FaultKind> {
        trace::query::merged_order(&records)
            .into_iter()
            .filter(|r| r.node == n(VICTIM))
            .filter_map(|r| match r.event {
                TraceEvent::Fault { kind } => Some(kind),
                _ => None,
            })
            .collect()
    };

    trace::install(trace::UNBOUNDED);
    let mut sim = Cluster::new(cfg.clone());
    sim.step(DOWN.1 + 1).expect("sim steps");
    let sim_faults = victim_faults(trace::take());
    trace::disable();

    trace::install_global(trace::UNBOUNDED);
    let _ = trace::take_global();
    let pc = ParallelCluster::spawn(cfg);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while pc.now_pulse() <= DOWN.1 || pc.node_status(n(VICTIM)) != NodeStatus::Alive {
        assert!(
            std::time::Instant::now() < deadline,
            "victim never rejoined"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    let thread_faults = victim_faults(trace::take_global());
    trace::disable_global();

    use trace::FaultKind::{Crash, Restart};
    assert_eq!(sim_faults, vec![Crash, Restart], "sim");
    assert_eq!(thread_faults, sim_faults, "threads");
}

/// A link-fault drop leaves the same record on both planes: one `MsgDrop`
/// at the sender per verdict drop, in the dropped message's lane.
#[test]
fn a_link_drop_is_traced_alike_on_both_planes() {
    let _serial = serial();
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.net = NetworkConfig::lossless(1)
        .with_fault(FaultPlan::none().all_links(LinkFault::dropping(0.5)));
    cfg.net.seed = 0xD209_0001;
    let traced_drops = |records: Vec<trace::TraceRecord>| {
        MsgClass::ALL.map(|class| {
            let lane = class.lane();
            let dropped = |r: &&trace::TraceRecord| {
                matches!(r.event, TraceEvent::MsgDrop { lane: l, .. } if l == lane)
            };
            records.iter().filter(dropped).count() as u64
        })
    };
    const ROUNDS: usize = 4;

    trace::install(trace::UNBOUNDED);
    let mut sim = Cluster::new(cfg.clone());
    let s = setup_workload(&mut sim);
    for _ in 0..ROUNDS {
        for i in 0..NODES {
            sim.run_bgc(n(i), s.priv_bunch[i as usize]).unwrap();
            sim.run_bgc(n(i), s.shared_bunch).unwrap();
        }
        sim.settle(50_000).unwrap();
    }
    let sim_traced = traced_drops(trace::take());
    trace::disable();
    let sim_dropped = MsgClass::ALL.map(|class| sim.net.class_stats(class).dropped);

    trace::install_global(trace::UNBOUNDED);
    let _ = trace::take_global();
    let pc = ParallelCluster::spawn(cfg);
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    for _ in 0..ROUNDS {
        for i in 0..NODES {
            let h = pc.handle(n(i));
            h.run_bgc(s.priv_bunch[i as usize]).expect("private bgc");
            h.run_bgc(s.shared_bunch).expect("shared bgc");
        }
        assert!(pc.quiesce(Duration::from_secs(30)), "failed to quiesce");
    }
    let (_, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    let thread_traced = traced_drops(trace::take_global());
    trace::disable_global();

    assert!(sim_dropped.iter().sum::<u64>() > 0, "sim dropped nothing");
    assert_eq!(sim_traced, sim_dropped, "sim");
    assert!(report.dropped > 0, "threads dropped nothing");
    assert_eq!(thread_traced, report.dropped_by_class, "threads");
}
