//! Chaos on real threads: the fault plane and the recovery pipeline,
//! ported from the deterministic simulator to the `bmx::parallel`
//! runtime.
//!
//! The deterministic chaos suites (`tests/chaos.rs`,
//! `tests/chaos_amnesia.rs`) prove the protocol survives loss,
//! duplication, partitions, and crash-amnesia *under the tick clock*.
//! This suite re-proves the same properties where the adversary is real
//! hardware concurrency: the same [`FaultPlan`] vocabulary, read in
//! supervisor pulses by the seeded fault stage of the `ChannelTransport`,
//! drops, duplicates, jitters, and partitions the channel links between
//! genuinely parallel node threads, and the supervisor restarts crashed failure domains
//! live — without stopping the cluster.
//!
//! Gates, per run: the Section-5 acquire invariants recovered from the
//! causally merged trace stream, `assert_no_premature_reclamation` over
//! every object the workload keeps live, per-class message conservation
//! (`delivered + dropped == sent` — duplicates count as sends of their
//! own), payload totals replayed from the workload seed, and watchdog
//! silence for the detectors a fault plan cannot legitimately trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmx_common::SplitMix64;
use bmx_repro::bmx::{audit, blackbox};
use bmx_repro::metrics::{self, WatchdogConfig};
use bmx_repro::prelude::*;
use bmx_repro::trace::{self, AlarmKind, TraceEvent};
use parking_lot::Mutex;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

const NODES: u32 = 3;
const SHARED: usize = 4;
const STEPS: u64 = 24;
const VICTIM: u32 = 2;
/// Default seeds of the threads twin of ROADMAP 1(a)(vi).
const THREADS_TWIN_SEEDS: [u64; 3] = [12, 18, 23];

/// Serializes the tests in this binary: chaos runs install the
/// *process-global* trace recorder, and two concurrently running
/// clusters would interleave records (overlapping OIDs — false
/// positives in the invariant queries).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`SERIAL`]. The mutex guards no data, so a test that panicked while
/// holding it left nothing inconsistent: ignore the poison, or one failing
/// test fails every sibling with `PoisonError`.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn per_node_rng(seed: u64, node: u32) -> SplitMix64 {
    SplitMix64::new(seed ^ ((u64::from(node) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn step_plan(rng: &mut SplitMix64) -> usize {
    (rng.next_u64() % SHARED as u64) as usize
}

/// Per-shared-object increment totals replayed from the seed alone.
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

#[derive(Clone)]
struct Setup {
    shared_bunch: BunchId,
    priv_bunch: Vec<BunchId>,
    shared: Vec<Addr>,
    keep: Vec<Addr>,
}

/// Same phase-structured workload as the conformance suite: sequential
/// setup (address determinism), commutative racing phase, sequential
/// settle — so the faulted runs stay comparable to the replayed totals.
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

/// The racing phase on real threads. `retry` makes each step retry on
/// typed errors (a crashed token owner, a timed-out acquire) until an
/// overall deadline — the crash tests *require* errors to surface and be
/// survivable; the pure-fault tests require there to be none.
fn run_mutators(
    pc: &ParallelCluster,
    s: &Setup,
    seed: u64,
    retry: bool,
) -> (Vec<String>, Vec<u64>, u64) {
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let typed_errors = Arc::new(AtomicU64::new(0));
    let completed: Arc<Vec<AtomicU64>> = Arc::new((0..NODES).map(|_| AtomicU64::new(0)).collect());
    let mut threads = Vec::new();
    for i in 0..NODES {
        let h = pc.handle(n(i));
        let s = s.clone();
        let failures = Arc::clone(&failures);
        let typed_errors = Arc::clone(&typed_errors);
        let completed = Arc::clone(&completed);
        threads.push(std::thread::spawn(move || {
            h.bind_metrics();
            let mut rng = per_node_rng(seed, i);
            let deadline = Instant::now() + Duration::from_secs(60);
            'steps: for step in 0..STEPS {
                let o = s.shared[step_plan(&mut rng)];
                let pb = s.priv_bunch[i as usize];
                let one_step = || -> Result<()> {
                    h.acquire_write(o)?;
                    let v = h.read_data(o, 1)?;
                    h.write_data(o, 1, v + 1)?;
                    h.release(o)?;
                    if step % 6 == 2 {
                        let g = h.alloc(pb, &ObjSpec::with_refs(2, &[0]))?;
                        h.write_data(g, 1, step)?;
                    }
                    if step % 8 == 5 {
                        h.run_bgc(pb)?;
                    }
                    if step % 5 == 3 {
                        // A shared-bunch collection broadcasts reports to
                        // every mapper: the run's cross-node GC traffic,
                        // i.e. the classes the fault plane may drop and
                        // duplicate.
                        h.run_bgc(s.shared_bunch)?;
                    }
                    Ok(())
                };
                loop {
                    match one_step() {
                        Ok(()) => {
                            completed[i as usize].fetch_add(1, Ordering::Relaxed);
                            continue 'steps;
                        }
                        Err(e) if retry && Instant::now() < deadline => {
                            if matches!(e, BmxError::NodeDown { .. }) {
                                typed_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            // Note: the increment of a *partially* failed
                            // step may or may not have landed; crash runs
                            // therefore do not compare payload totals.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => {
                            failures.lock().push(format!("node {i} step {step}: {e}"));
                            break 'steps;
                        }
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("mutator thread");
    }
    let fails = failures.lock().clone();
    let done = completed
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    (fails, done, typed_errors.load(Ordering::Relaxed))
}

/// Post-shutdown settle + safety gates on the final cluster state.
/// `check_totals` is off for crash runs: an increment the crashed node
/// had applied but not yet checkpointed is legitimately lost (that *is*
/// the amnesia model); safety gates still hold unconditionally.
fn settle_and_check(c: &mut Cluster, s: &Setup, seed: u64, check_totals: bool) {
    let n0 = n(0);
    c.settle(50_000).unwrap();
    for &o in &s.shared {
        c.acquire_write(n0, o).unwrap();
        c.release(n0, o).unwrap();
    }
    for i in 0..NODES {
        c.run_bgc(n(i), s.shared_bunch).unwrap();
    }
    c.run_bgc(n0, s.priv_bunch[0]).unwrap();
    c.settle(50_000).unwrap();
    c.assert_gc_acquired_no_tokens();

    // Liveness goes through the audit (which resolves relocations via the
    // directory — the copying collector may have moved these objects, so
    // raw address containment in the root-reachable set would be wrong).
    let live: Vec<(NodeId, Addr)> = s
        .shared
        .iter()
        .map(|&o| (n0, o))
        .chain(std::iter::once((n0, s.keep[0])))
        .collect();
    audit::assert_no_premature_reclamation(c, &live);
    assert!(
        !c.reachable_from_roots(n0).is_empty(),
        "N0's root-reachable set collapsed"
    );
    if check_totals {
        let totals: Vec<u64> = s
            .shared
            .iter()
            .map(|&o| c.read_data(n0, o, 1).unwrap())
            .collect();
        assert_eq!(
            totals,
            expected_totals(seed),
            "payload totals diverged from the workload replay (seed {seed:#x})"
        );
    }
}

fn write_report(tag: &str, seed: u64, report: &ShutdownReport) {
    let out = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(out);
    let _ = std::fs::write(
        out.join(format!("parallel-report-{tag}-seed-{seed:#x}.txt")),
        format!("{report:#?}\n"),
    );
}

/// Writes a *stamped* snapshot (capture time + node generations, from
/// [`ParallelCluster::metrics_snapshot`]) so soak artifacts from
/// different seeds and runs stay orderable after the fact.
fn write_metrics_snapshot(tag: &str, seed: u64, snap: &metrics::Snapshot) {
    let out = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(out);
    let _ = std::fs::write(
        // Deliberately NOT `metrics-*.json`: the nightly chaos job greps
        // those for unconditional watchdog silence, and a faulted
        // parallel run may legitimately latch ProgressStall/ClockStall.
        out.join(format!("parallel-metrics-{tag}-seed-{seed:#x}.json")),
        metrics::json::to_json(snap),
    );
}

/// The fault plan for the soak: every link drops loss-tolerant traffic,
/// duplicates idempotent traffic, and jitters everything by up to a pulse;
/// one timed partition splits N0 from {N1, N2} early in the run and heals
/// on the supervisor's pulse clock.
fn soak_plan() -> FaultPlan {
    FaultPlan::none()
        .all_links(LinkFault {
            drop: 0.15,
            duplicate: 0.15,
            jitter: 1,
        })
        .partition(vec![n(0)], vec![n(1), n(2)], 40, 120)
}

/// `NODES` nodes under `fault`, every verdict drawn from `seed`.
fn chaos_config(fault: FaultPlan, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_nodes(NODES).with_acquire_timeout(Duration::from_secs(30));
    cfg.net = NetworkConfig::lossless(1).with_fault(fault);
    cfg.net.seed = seed;
    cfg
}

/// One full soak run: seeded faults on every link, no crash. Everything
/// must complete without a single surfaced error, conserve per class,
/// match the replayed totals, and keep the leak watchdogs silent.
fn run_fault_soak(seed: u64) {
    trace::install_global(trace::UNBOUNDED);
    let _ = trace::take_global();
    let mreg = metrics::install_with(WatchdogConfig {
        interval: 50,
        ..WatchdogConfig::default()
    });
    // Armed for the whole soak: a watchdog alarm, a genuine node crash,
    // or a failed shutdown writes a post-mortem to
    // `target/blackbox/soak-seed-<seed>/`. Disarmed on the success path
    // below, so a green run leaves the directory absent (the CI gate).
    blackbox::arm(&format!("soak-seed-{seed:#x}"));

    let pc = ParallelCluster::spawn(chaos_config(soak_plan(), seed));
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    assert!(
        pc.quiesce(Duration::from_secs(30)),
        "setup failed to settle under faults (seed {seed:#x})"
    );

    let (failures, completed, _) = run_mutators(&pc, &s, seed, false);
    assert!(
        failures.is_empty(),
        "pure-fault soak surfaced errors (seed {seed:#x}): {failures:?}"
    );
    assert!(
        completed.iter().all(|&c| c == STEPS),
        "not every node completed its steps (seed {seed:#x}): {completed:?}"
    );

    assert!(
        pc.quiesce(Duration::from_secs(30)),
        "failed to quiesce under faults (seed {seed:#x})"
    );
    let stats = pc.fault_stats().expect("chaos stats");
    assert_eq!(pc.in_flight(), 0, "nothing left held (seed {seed:#x})");
    let snap = pc.metrics_snapshot().expect("registry installed");
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    write_report("soak", seed, &report);

    assert_eq!(report.restarts, 0, "no crash was injected (seed {seed:#x})");
    assert_eq!(
        report.delivered + report.dropped,
        report.sent,
        "global conservation (seed {seed:#x}): {report:?}"
    );
    for (idx, class) in MsgClass::ALL.into_iter().enumerate() {
        assert_eq!(
            report.delivered_by_class[idx] + report.dropped_by_class[idx],
            report.sent_by_class[idx],
            "conservation for {class:?} (seed {seed:#x}): {report:?}"
        );
    }
    assert_eq!(
        report.dropped_by_class[0], 0,
        "the fault plane must never drop the reliable DSM class (seed {seed:#x})"
    );
    assert!(
        stats.link_dropped + stats.partition_dropped + stats.duplicates_injected > 0,
        "the plan actually injected faults (seed {seed:#x}): {stats:?}"
    );

    settle_and_check(&mut cluster, &s, seed, true);

    // Section-5 acquire invariants over the causally merged trace of all
    // node threads, faults and all.
    let records = trace::take_global();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::AcquireComplete { .. })),
        "trace captured no acquires — checker vacuous (seed {seed:#x})"
    );
    let bad = trace::query::acquire_invariant_violations(&records);
    assert!(
        bad.is_empty(),
        "Section-5 acquire violations under faults (seed {seed:#x}): {bad:?}"
    );

    // Watchdog policy: a fault plan may legitimately latch the liveness
    // detectors (ProgressStall while partitioned, ClockStall while a
    // link heals) — but never the leak detectors.
    for kind in [AlarmKind::FromSpaceLeak, AlarmKind::ScionBacklog] {
        assert_eq!(
            mreg.alarms(kind),
            0,
            "leak watchdog {kind:?} fired during a green soak (seed {seed:#x}; \
             snapshot in target/chaos/parallel-metrics-soak-seed-{seed:#x}.json)"
        );
    }
    write_metrics_snapshot("soak", seed, &snap);
    blackbox::disarm();
    metrics::disable();
    trace::disable_global();
}

/// Headline A: with a supervisor but a quiet fault plan, the chaos runtime
/// is exactly the conformance runtime — no fault plane at all, same
/// digest-bearing final state as a fault-free run, full conservation,
/// total watchdog silence.
#[test]
fn chaos_with_zero_plan_is_conformant() {
    let _serial = serial();
    let seed = 0xCAFE_0001u64;
    let mreg = metrics::install_with(WatchdogConfig {
        interval: 50,
        ..WatchdogConfig::default()
    });
    let pc =
        ParallelCluster::spawn_with_chaos(ClusterConfig::with_nodes(NODES), ChaosConfig::default());
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    assert!(pc.quiesce(Duration::from_secs(10)), "setup settle");
    let (failures, completed, typed) = run_mutators(&pc, &s, seed, false);
    assert!(failures.is_empty(), "zero-plan run failed: {failures:?}");
    assert!(completed.iter().all(|&c| c == STEPS));
    assert_eq!(typed, 0);
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
    assert_eq!(pc.fault_stats(), None, "a quiet plan builds no fault plane");
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.dropped, 0, "zero plan + drain drops nothing");
    assert_eq!(report.delivered, report.sent);
    settle_and_check(&mut cluster, &s, seed, true);
    assert_eq!(
        mreg.total_alarms(),
        0,
        "watchdog fired on a fault-free parallel run"
    );
    metrics::disable();
}

/// Headline B: eight seeds of mixed mutator/BGC traffic under per-link
/// drop/duplication/delay plus a healing partition. Every seed must
/// conserve, match the replayed totals, pass the audits and the
/// Section-5 checker, and keep the leak watchdogs silent.
#[test]
fn fault_soak_eight_seeds() {
    let _serial = serial();
    for seed in [
        0x5EED_0001u64,
        0x5EED_0002,
        0x5EED_0003,
        0x5EED_0004,
        0xFA57_0005,
        0xFA57_0006,
        0xD00F_0007,
        0xD00F_0008,
    ] {
        run_fault_soak(seed);
    }
}

/// `spawn` reads `cfg.net` as the simulator does: a fault plan set there
/// reaches the channel links (it used to be overwritten, silently).
#[test]
fn spawn_honours_the_fault_plan_in_the_cluster_config() {
    let _serial = serial();
    let pc = ParallelCluster::spawn(chaos_config(
        FaultPlan::none().all_links(LinkFault::dropping(0.5)),
        0xD209_0001,
    ));
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    // Shared-bunch collections broadcast reachability tables to the other
    // mappers: 48 loss-tolerant envelopes, each dropped with probability ½.
    for _ in 0..8 {
        for i in 0..NODES {
            pc.handle(n(i)).run_bgc(s.shared_bunch).expect("bgc");
        }
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");
    let stats = pc
        .fault_stats()
        .expect("a non-quiet plan builds the fault plane");
    assert!(
        stats.link_dropped > 0,
        "injected drops are reported: {stats:?}"
    );
    let (_cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.dropped, stats.link_dropped, "{report:?}");
    assert_eq!(report.dropped_by_class[0], 0, "never the DSM class");
    assert_eq!(report.delivered + report.dropped, report.sent);
}

/// `spawn` validates with the simulator's `validate()` and panics with the
/// typed error's wording, as `Network::new` does (the thread plane used to
/// accept anything).
#[test]
fn spawn_rejects_an_invalid_fault_plan_with_the_typed_wording() {
    let bad = [
        (
            FaultPlan::none().all_links(LinkFault::dropping(1.5)),
            "probability out of range",
        ),
        (
            FaultPlan::none().partition(vec![n(1)], vec![n(1), n(2)], 0, 5),
            "appears on both sides of a partition",
        ),
        (
            FaultPlan::none()
                .crash_amnesia(n(1), 5, 20)
                .crash_amnesia(n(1), 10, 30),
            "overlapping crash windows [5, 20) and [10, 30)",
        ),
    ];
    for (fault, wording) in bad {
        let mut cfg = ClusterConfig::with_nodes(NODES);
        cfg.net.fault = fault; // past `with_fault`'s own check
        let panic = std::panic::catch_unwind(|| ParallelCluster::spawn(cfg).nodes())
            .expect_err("an invalid plan must not spawn");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains(wording), "{msg:?} lacks {wording:?}");
    }
}

/// A node that restarts while a peer is down does not wait for that peer's
/// answer forever. N1's outage ends inside N2's, so N1's rejoin request to
/// N2 dies with N2's inbox; N2's restart wipes the dead incarnation, which
/// ends N1's wait, and N2 then asks N1 like any peer. Both come back.
#[test]
fn a_rejoin_does_not_wait_for_a_peer_that_is_down() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("bmx-parallel-overlap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const N2_UP: u64 = 40;
    let plan = FaultPlan::none()
        .crash_amnesia(n(1), 5, 20)
        .crash_amnesia(n(2), 15, N2_UP);
    let mut cfg = chaos_config(plan, 1);
    cfg.persist = Some(PersistConfig::at(&dir));
    let pc = ParallelCluster::spawn(cfg);
    let deadline = Instant::now() + Duration::from_secs(30);
    while pc.now_pulse() <= N2_UP
        || [n(1), n(2)]
            .iter()
            .any(|&p| pc.node_status(p) != NodeStatus::Alive)
    {
        assert!(
            Instant::now() < deadline,
            "a rejoin never completed: {:?}",
            pc.liveness()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Headline C: a mid-run injected crash fails *one* failure domain; the
/// supervisor restarts it live through the crash-amnesia recovery
/// pipeline (RVM replay, epoch rejoin, scion regeneration) while the
/// surviving nodes keep completing operations; the revived node serves
/// again before shutdown — which therefore reports success.
#[test]
fn injected_crash_restarts_live_and_rejoins() {
    let _serial = serial();
    let seed = 0xC4A5_0001u64;
    // Crash-amnesia recovery replays the victim's RVM store; without a
    // persistent checkpoint the revived node would come back knowing no
    // bunches at all (exactly the sim's amnesia model).
    let dir = std::env::temp_dir().join(format!("bmx-parallel-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jitter = FaultPlan::none().all_links(LinkFault {
        jitter: 1,
        ..LinkFault::default()
    });
    let mut cfg = chaos_config(jitter, seed);
    cfg.persist = Some(PersistConfig::at(&dir));
    let pc = ParallelCluster::spawn_with_chaos(cfg, ChaosConfig::default());
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    assert!(pc.quiesce(Duration::from_secs(10)), "setup settle");
    // Cut a post-BGC RVM checkpoint at every node so the victim has a
    // restore point that knows the workload's bunches.
    for i in 0..NODES {
        let h = pc.handle(n(i));
        h.run_bgc(s.priv_bunch[i as usize]).expect("checkpoint bgc");
        h.run_bgc(s.shared_bunch).expect("checkpoint bgc");
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "checkpoint settle");

    // Crash the victim a few milliseconds into the racing phase, from a
    // side thread, so the mutators genuinely race the failure and the
    // supervisor's live restart.
    let (failures, completed, _typed) = std::thread::scope(|sc| {
        sc.spawn(|| {
            std::thread::sleep(Duration::from_millis(5));
            pc.inject_crash(n(VICTIM));
        });
        run_mutators(&pc, &s, seed, true)
    });
    assert!(
        failures.is_empty(),
        "crash run surfaced unretried errors: {failures:?}"
    );
    assert!(
        completed
            .iter()
            .enumerate()
            .filter(|(i, _)| *i as u32 != VICTIM)
            .all(|(_, &c)| c == STEPS),
        "survivors must complete every step: {completed:?}"
    );
    assert_eq!(
        completed[VICTIM as usize], STEPS,
        "the revived victim must finish its workload too: {completed:?}"
    );

    // The supervisor must have brought the victim all the way back.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pc.node_status(n(VICTIM)) != NodeStatus::Alive {
        assert!(Instant::now() < deadline, "victim never returned to Alive");
        std::thread::sleep(Duration::from_millis(1));
    }
    let live = pc.liveness();
    assert!(live[VICTIM as usize].restarts >= 1, "restart recorded");
    assert!(
        live[VICTIM as usize]
            .note
            .as_deref()
            .is_some_and(|note| note.contains("injected crash")),
        "the crash reason survives recovery: {live:?}"
    );
    for i in 0..NODES {
        if i != VICTIM {
            assert_eq!(live[i as usize].restarts, 0, "survivors never restarted");
            assert_eq!(live[i as usize].status, NodeStatus::Alive);
        }
    }

    // The revived node serves new work.
    let hv = pc.handle(n(VICTIM));
    hv.acquire_write(s.shared[0]).expect("revived acquire");
    hv.release(s.shared[0]).expect("revived release");

    assert!(pc.quiesce(Duration::from_secs(30)), "post-crash quiesce");
    let (mut cluster, report) = pc
        .shutdown(Shutdown::Drain)
        .expect("a crash the supervisor healed is not a shutdown failure");
    write_report("crash", seed, &report);
    assert!(report.restarts >= 1, "restarts in the report: {report:?}");
    assert_eq!(
        report.delivered + report.dropped,
        report.sent,
        "conservation across a crash: {report:?}"
    );

    assert!(!cluster.in_recovery(n(VICTIM)), "rejoin completed");
    assert!(
        cluster.recovery_log.iter().any(|r| r.node == n(VICTIM)),
        "the recovery pipeline logged the victim's rejoin: {:?}",
        cluster.recovery_log
    );
    // Amnesia may lose the victim's unpersisted increments — totals are
    // not comparable; every safety gate still is.
    settle_and_check(&mut cluster, &s, seed, false);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole gate: without a supervisor restart (plain spawn), a crashed
/// node stays down — but *only* that node. Survivors keep completing
/// operations on their own failure domains; the victim's submitters get
/// the typed [`BmxError::NodeDown`]; shutdown reports the dead node.
#[test]
fn survivors_outlive_a_downed_node() {
    let _serial = serial();
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let s = pc
        .handle(n(0))
        .with(|c| Ok(setup_workload(c)))
        .expect("setup");
    assert!(pc.quiesce(Duration::from_secs(10)), "setup settle");

    pc.inject_crash(n(VICTIM));

    // The victim's submitters fail fast with the typed error.
    let hv = pc.handle(n(VICTIM));
    match hv.read_data(s.shared[0], 1) {
        Err(BmxError::NodeDown { node }) => assert_eq!(node, n(VICTIM)),
        other => panic!("expected NodeDown, got {other:?}"),
    }

    // Survivors keep serving on their own domains: private-bunch churn
    // plus shared traffic between the two live nodes.
    for i in 0..NODES - 1 {
        let h = pc.handle(n(i));
        let pb = s.priv_bunch[i as usize];
        for step in 0..8u64 {
            let g = h.alloc(pb, &ObjSpec::with_refs(2, &[0])).expect("alloc");
            h.write_data(g, 1, step).expect("write");
        }
        h.run_bgc(pb).expect("bgc");
    }
    let h0 = pc.handle(n(0));
    h0.acquire_write(s.shared[1]).expect("live-side acquire");
    let v = h0.read_data(s.shared[1], 1).expect("read");
    h0.write_data(s.shared[1], 1, v + 1).expect("write");
    h0.release(s.shared[1]).expect("release");

    // No supervisor restart without chaos: still down, zero restarts.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(pc.node_status(n(VICTIM)), NodeStatus::Down);
    assert_eq!(pc.liveness()[VICTIM as usize].restarts, 0);

    let msg = match pc.shutdown(Shutdown::Drain) {
        Ok(_) => panic!("a still-down node must fail shutdown"),
        Err(e) => e.to_string(),
    };
    assert!(
        msg.contains(&format!("N{VICTIM}")) && msg.contains("injected crash"),
        "shutdown error names the dead node: {msg}"
    );
}

/// Satellite: a panic inside a user closure passed to [`NodeHandle::with`]
/// is the *caller's* problem — the error surfaces to that caller only,
/// the node's failure domain stays alive, and subsequent operations (from
/// the same handle!) succeed. Only panics inside protocol code crash the
/// domain.
#[test]
fn user_closure_panic_does_not_crash_the_node() {
    let _serial = serial();
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let h = pc.handle(n(1));
    let err = h
        .with(|_c| -> Result<()> { panic!("application bug, not a protocol bug") })
        .expect_err("the panic surfaces as an error");
    assert!(
        err.to_string().contains("panicked"),
        "error carries the panic: {err}"
    );
    assert_eq!(
        pc.node_status(n(1)),
        NodeStatus::Alive,
        "a user panic must not fail the node's domain"
    );
    let b = h.create_bunch().expect("the node still serves");
    let o = h.alloc(b, &ObjSpec::with_refs(1, &[])).expect("alloc");
    h.add_root(o).expect("root");
    let (_cluster, report) = pc.shutdown(Shutdown::Drain).expect("clean shutdown");
    assert_eq!(report.delivered + report.dropped, report.sent);
}

/// Acceptance for the post-mortem blackbox (DESIGN.md §13): an injected
/// watchdog alarm on an armed runtime must make the *supervisor* write
/// `target/blackbox/<label>/` containing a stamped metrics snapshot and
/// the flight recorder, spans included — and every file must parse with
/// the repo's own readers. The dump directory is removed on the way
/// out: this dump is expected, and the nightly gate treats any surviving
/// `target/blackbox/` entry on a green run as a bug.
#[test]
fn injected_watchdog_alarm_produces_blackbox_dump() {
    let _serial = serial();
    let label = format!("alarm-test-{:x}", std::process::id());
    let dir = std::path::Path::new("target/blackbox").join(&label);
    let _ = std::fs::remove_dir_all(&dir);

    trace::install_global(trace::UNBOUNDED);
    let _ = trace::take_global();
    let mreg = metrics::install_with(WatchdogConfig {
        interval: 10,
        ..WatchdogConfig::default()
    });
    trace::enable_spans(2048);
    blackbox::arm(&label);

    // A little real traffic first, so the dump has spans, counters, and
    // flight-recorder events to carry.
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let h0 = pc.handle(n(0));
    let h1 = pc.handle(n(1));
    let b = h0.create_bunch().expect("bunch");
    let o = h0.alloc(b, &ObjSpec::with_refs(2, &[0])).expect("alloc");
    h0.add_root(o).expect("root");
    h1.map_bunch(b, n(0)).expect("map");
    h1.acquire_write(o).expect("acquire");
    h1.write_data(o, 1, 7).expect("write");
    h1.release(o).expect("release");
    assert!(pc.quiesce(Duration::from_secs(10)), "quiesce");

    // Stands in for a real watchdog detection; the supervisor's next
    // watchdog pulse sees the alarm total move and writes the dump.
    metrics::inject_alarm(&mreg, 0, AlarmKind::FromSpaceLeak);

    // `trace.json` is written last, so its existence means the whole
    // dump is on disk.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !dir.join("trace.json").exists() {
        assert!(
            Instant::now() < deadline,
            "supervisor never wrote the blackbox dump to {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let reason = std::fs::read_to_string(dir.join("reason.txt")).expect("reason.txt");
    assert!(
        reason.contains("watchdog alarm"),
        "reason names the trigger: {reason:?}"
    );

    let spans = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    trace::chrome::validate(&spans).expect("span trace parses");
    assert!(
        spans.contains("\"acquire\"") && spans.contains("mutex/hold"),
        "span dump carries the recorded spans"
    );

    let snap = metrics::json::from_json(
        &std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json"),
    )
    .expect("metrics snapshot parses");
    assert!(
        snap.get("meta/captured_unix_ms") > 0,
        "snapshot is stamped with capture time"
    );
    assert!(
        snap.entries.contains_key("node0/meta/generation"),
        "snapshot is stamped with node generations"
    );
    assert_eq!(
        snap.get("alarm/from_space_leak"),
        1,
        "the injected alarm is in the dumped snapshot"
    );

    // The snapshot is non-draining: the recorder still holds its events
    // for the run's own checkers.
    assert!(
        !trace::take_global().is_empty(),
        "the blackbox must not consume the flight recorder"
    );

    blackbox::disarm();
    trace::disable_spans();
    let (_cluster, report) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    assert_eq!(report.dropped, 0);
    metrics::disable();
    trace::disable_global();
    // Expected dump: clean it up so a green run leaves target/blackbox/
    // empty for the CI gate.
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeds in `PARALLEL_CHAOS_SEEDS` (comma-separated, 0x-hex or
/// decimal), or `default` when it is unset.
fn sweep_seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("PARALLEL_CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                let t = t.trim();
                match t.strip_prefix("0x") {
                    Some(h) => u64::from_str_radix(h, 16).expect("hex seed"),
                    None => t.parse().expect("decimal seed"),
                }
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// The unlink-then-collect scenario of
/// `message_loss::the_last_unlinked_target_is_reclaimed_despite_a_lost_table`
/// on real threads, with 30 % of StubTable envelopes dropped by the
/// transport's fault stage: a rooted object at n0 holds 40 refs into n1's
/// bunch, and each round unlinks one and collects at n0, then at n1. The
/// table that removes n0's last stub toward n1 is the last one addressed to
/// n1; when it is dropped, only n1 asking for it again (on the supervisor's
/// pulse) cuts the last scions. Returns the targets still at n1 when the
/// deadline passed.
fn unlinked_targets_left_on_threads(seed: u64) -> Vec<u64> {
    const REFS: u64 = 40;
    let mut cfg = ClusterConfig::with_nodes(2);
    cfg.net = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 0.3);
    cfg.net.seed = seed;
    let pc = ParallelCluster::spawn_with_chaos(cfg, ChaosConfig::default());
    let (h0, h1) = (pc.handle(n(0)), pc.handle(n(1)));
    let b0 = h0.create_bunch().unwrap();
    let b1 = h1.create_bunch().unwrap();
    let fields: Vec<u64> = (0..REFS).collect();
    let src = h0.alloc(b0, &ObjSpec::with_refs(REFS, &fields)).unwrap();
    h0.add_root(src).unwrap();
    let mut oids = Vec::new();
    for i in 0..REFS {
        let target = h1.alloc(b1, &ObjSpec::data(1)).unwrap();
        oids.push(h1.oid_at(target).unwrap());
        h0.write_ref(src, i, target).unwrap();
    }
    let round = || {
        h0.run_bgc(b0).unwrap();
        h1.run_bgc(b1).unwrap();
    };
    for i in 0..REFS {
        h0.write_ref(src, i, Addr::NULL).unwrap();
        round();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let left = loop {
        let left: Vec<u64> = h1
            .with(|c| {
                let present = |&i: &u64| c.engine.obj_state(n(1), oids[i as usize]).is_some();
                Ok((0..REFS).filter(present).collect())
            })
            .unwrap();
        if left.is_empty() || Instant::now() >= deadline {
            break left;
        }
        std::thread::sleep(Duration::from_millis(2));
        round();
    };
    let (cluster, _) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    cluster.assert_gc_acquired_no_tokens();
    left
}

/// On threads as in the simulator, a lost table only delays collection:
/// every unlinked target leaves n1 before a 10 s deadline. Seeds from
/// `PARALLEL_CHAOS_SEEDS`; by default, seeds whose fault stage drops the
/// last table toward n1 when nothing asks for it again.
#[test]
fn the_last_unlinked_target_is_reclaimed_on_threads_despite_a_lost_table() {
    let _serial = serial();
    let left: Vec<(u64, Vec<u64>)> = sweep_seeds(&THREADS_TWIN_SEEDS)
        .into_iter()
        .map(|seed| (seed, unlinked_targets_left_on_threads(seed)))
        .filter(|(_, left)| !left.is_empty())
        .collect();
    assert!(left.is_empty(), "(seed, targets left at n1): {left:?}");
}

/// The CI sweep entry point: seeds from `PARALLEL_CHAOS_SEEDS`, defaulting
/// to 1..=8. Runs the full fault soak per seed; a failing seed writes a
/// replay artifact to `target/chaos/parallel-failing-seed-*.txt` and the
/// sweep reports every failure at once.
#[test]
fn parallel_chaos_seed_sweep() {
    let _serial = serial();
    let seeds = sweep_seeds(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut failed = Vec::new();
    for seed in seeds {
        let outcome = std::panic::catch_unwind(|| run_fault_soak(seed));
        if let Err(panic) = outcome {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            // The harness itself failing is the third blackbox trigger
            // class: grab the post-mortem under the soak's armed label
            // while the span rings still hold the failing run.
            blackbox::dump_if_armed(&format!("chaos soak failed: {msg}"), None, &[]);
            blackbox::disarm();
            metrics::disable();
            trace::disable_global();
            let dir = std::path::Path::new("target/chaos");
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(
                dir.join(format!("parallel-failing-seed-{seed:#x}.txt")),
                format!(
                    "parallel chaos seed: {seed:#x}\nreplay: PARALLEL_CHAOS_SEEDS={seed:#x} \
                     cargo test --release --test parallel_chaos parallel_chaos_seed_sweep\n\
                     fault plan: {:#?}\npanic: {msg}\n",
                    soak_plan(),
                ),
            );
            failed.push((seed, msg));
        }
    }
    assert!(
        failed.is_empty(),
        "parallel chaos seeds failed (replay artifacts in target/chaos/): {failed:?}"
    );
}

/// On threads as in the simulator, the server drops a released range's
/// routes once every node has swept it: n1 churns, collects and reuses a
/// bunch round after round, n0 maps none of it and only sweeps, and the
/// routes stay at about two rounds' relocations (each round moves the
/// registry and its last object) instead of growing with every round.
#[test]
fn retired_routes_stay_bounded_on_threads() {
    let _serial = serial();
    const ROUNDS: usize = 40;
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let (h0, h1) = (pc.handle(n(0)), pc.handle(n(1)));
    let own = h0.create_bunch().unwrap();
    let counter = h0.alloc(own, &ObjSpec::data(1)).unwrap();
    h0.add_root(counter).unwrap();
    let b = h1.create_bunch().unwrap();
    let registry = h1.alloc(b, &ObjSpec::with_refs(1, &[0])).unwrap();
    let registry = h1.add_root(registry).unwrap();
    let mut most = 0;
    for round in 0..ROUNDS {
        h0.write_data(counter, 0, round as u64).unwrap();
        let at = h1
            .with(|c| Ok(c.root(n(1), registry)))
            .unwrap()
            .expect("registry root");
        for i in 0..20 {
            let o = h1.alloc(b, &ObjSpec::data(2)).unwrap();
            h1.write_data(o, 0, i).unwrap();
            h1.write_ref(at, 0, o).unwrap();
        }
        h1.run_bgc(b).unwrap();
        h1.with(|c| c.reuse_from_space(n(1), b)).unwrap();
        assert!(pc.quiesce(Duration::from_secs(10)), "round {round} ends");
        most = most.max(h1.with(|c| Ok(c.server.borrow().route_count())).unwrap());
    }
    assert!(most <= 3 * 2, "the server kept {most} routes");
    let (c, _) = pc.shutdown(Shutdown::Drain).expect("shutdown");
    assert!(audit::audit(&c).is_empty());
}
