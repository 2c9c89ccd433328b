//! Chaos suite: the full fault schedule against a live, churning cluster.
//!
//! Each run drives a 3-node cluster — per-link loss, message duplication,
//! latency jitter, and two timed partitions that heal, the second isolating
//! one node — while the mutator churns garbage, migrates ownership, and collects. The
//! run is completely determined by one `u64` seed: the same seed replays
//! the identical fault schedule, delivery trace, and counters, which is how
//! a failing nightly seed is reproduced locally (`CHAOS_SEEDS=0x...`).
//!
//! The acceptance gate is the paper's safety claim under its weakest
//! transport assumptions (Section 6.1): whatever the network does to
//! loss-tolerant GC traffic, no reachable object is ever reclaimed. The
//! liveness half (garbage eventually collected) is recovered once the
//! network heals: a cleaner that hears no table asks its source again.

use bmx::audit;
use bmx_net::FaultStats;
use bmx_repro::metrics;
use bmx_repro::prelude::*;
use bmx_repro::trace;
use bmx_repro::workloads::{churn, lists};

mod schedule;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Flight-recorder depth per run: enough to hold the last few rounds of a
/// failing run without growing with run length.
const FLIGHT_RECORDER_CAP: usize = 8_192;

/// Fault windows (ticks). Setup must finish before `PARTITION_START`; the
/// run drives rounds until past `ISOLATION_END`, then settles.
const PARTITION_START: u64 = 900;
const PARTITION_END: u64 = 1200;
const ISOLATION_START: u64 = 1600;
const ISOLATION_END: u64 = 1800;
const RUN_UNTIL: u64 = 2200;

fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .all_links(LinkFault {
            drop: 0.12,
            duplicate: 0.25,
            jitter: 3,
        })
        .partition(vec![n(0)], vec![n(1), n(2)], PARTITION_START, PARTITION_END)
        .partition(vec![n(2)], vec![n(0), n(1)], ISOLATION_START, ISOLATION_END)
}

/// Everything a run produces that must replay identically from the seed.
#[derive(Debug, PartialEq)]
struct ChaosSummary {
    counters: Vec<Vec<u64>>,
    fault: FaultStats,
    per_class: Vec<(MsgClass, u64, u64, u64)>,
    rounds: usize,
}

fn run_chaos(seed: u64, schedule: Schedule) -> ChaosSummary {
    // Always-on flight recorder: bounded, so it never grows with the run;
    // on a panic the sweep below dumps its tail next to the replay seed.
    // Tracing is observational only — the replay test in this file compares
    // summaries produced with the recorder installed both times, and the
    // traced-vs-untraced identity is pinned by `tests/trace_invariants.rs`.
    trace::install(FLIGHT_RECORDER_CAP);
    // Metrics ride along on every chaos run: the watchdogs must stay silent
    // on a green soak (a firing leak detector fails the run even when the
    // safety gate passes), and each seed leaves a queryable snapshot next
    // to the flight-recorder artifacts. Instrumentation is observational —
    // `tests/metrics_plane.rs` pins the metered-vs-unmetered identity.
    let mreg = metrics::install();
    let mut net = NetworkConfig::lossless(1).with_fault(chaos_plan());
    net.seed = seed;
    net.schedule = schedule;
    let cfg = ClusterConfig {
        nodes: 3,
        net,
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1, n2) = (n(0), n(1), n(2));

    // One home bunch per node with a rooted churn registry, plus a shared
    // bunch mapped everywhere holding the long-lived structures: a list, an
    // anchor with a payload, and the migration tokens' objects.
    let mut sites = Vec::new();
    for &node in &[n0, n1, n2] {
        let b = c.create_bunch(node).unwrap();
        let reg = c.alloc(node, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        c.add_root(node, reg);
        sites.push((node, b, reg));
    }
    let shared = c.create_bunch(n0).unwrap();
    let list = lists::build_list(&mut c, n0, shared, 6, 0).unwrap();
    c.add_root(n0, list.head);
    let anchor = c.alloc(n0, shared, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, anchor, 0, 4242).unwrap();
    let bridge = c.alloc(n0, shared, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n0, bridge);
    c.write_ref(n0, bridge, 0, anchor).unwrap();
    let migrate: Vec<Addr> = (0..3)
        .map(|_| {
            let o = c.alloc(n0, shared, &ObjSpec::with_refs(2, &[0])).unwrap();
            c.add_root(n0, o);
            o
        })
        .collect();
    c.map_bunch(n1, shared, n0).unwrap();
    c.map_bunch(n2, shared, n0).unwrap();
    let expected_live: Vec<(NodeId, Addr)> = sites
        .iter()
        .map(|&(node, _, reg)| (node, reg))
        .chain([(n0, list.head), (n0, anchor), (n0, bridge)])
        .chain(migrate.iter().map(|&o| (n0, o)))
        .collect();
    assert!(
        c.net.now() < PARTITION_START,
        "setup ran past the partition window (now = {})",
        c.net.now()
    );

    // Drive churn + migration + collections through every fault window. The
    // shared bunch's collector rotates across the replica nodes — replica-
    // site collection under migration is supported since the copy/
    // re-register fixes pinned by `tests/replica_bgc_regression.rs` — so
    // during either partition the reachability reports of whichever side
    // collects are dropped, which is exactly what the cleaners' table
    // requests must recover.
    let mut rounds = 0;
    while c.net.now() < RUN_UNTIL {
        churn::chaos_round(&mut c, &sites, &migrate, rounds, seed).unwrap();
        let collector = [n0, n1, n2][rounds % 3];
        c.run_bgc(collector, shared).unwrap();
        rounds += 1;
    }
    let used = c.settle(5_000).unwrap();
    assert!(used < 5_000, "the network went idle");

    // The gate: zero premature reclamation, full structural consistency.
    audit::assert_no_premature_reclamation(&c, &expected_live);
    c.assert_gc_acquired_no_tokens();
    assert_eq!(
        lists::read_payloads(&c, n0, list.head).unwrap().len(),
        6,
        "list intact"
    );
    assert_eq!(
        c.read_data(n0, anchor, 0).unwrap(),
        4242,
        "anchor payload intact"
    );

    // A green soak must also be watchdog-silent: an alarm here means some
    // drain-based detector saw a leak signature the functional gates missed.
    assert_eq!(
        mreg.total_alarms(),
        0,
        "watchdog alarm fired during an otherwise-green chaos run \
         (snapshot in target/chaos/metrics-seed-{seed:#x}.json)"
    );
    dump_metrics_snapshot(seed);
    metrics::disable();

    let summary = ChaosSummary {
        counters: (0..3)
            .map(|i| StatKind::ALL.iter().map(|&k| c.stats[i].get(k)).collect())
            .collect(),
        fault: c.net.fault_stats(),
        per_class: MsgClass::ALL
            .iter()
            .map(|&cl| {
                let s = c.net.class_stats(cl);
                (cl, s.sent, s.dropped, s.duplicated)
            })
            .collect(),
        rounds,
    };
    trace::disable();
    summary
}

/// Writes the run's metrics snapshot to `target/chaos/` — uploaded by the
/// nightly chaos workflow alongside the flight-recorder dumps, and the
/// first thing to diff when a seed regresses.
fn dump_metrics_snapshot(seed: u64) {
    let dir = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(dir);
    let snap = metrics::snapshot();
    let _ = std::fs::write(
        dir.join(format!("metrics-seed-{seed:#x}.json")),
        metrics::json::to_json(&snap),
    );
}

/// Writes the flight recorder's tail to `target/chaos/`: one
/// human-readable dump per node plus a merged Chrome trace for
/// chrome://tracing / Perfetto. Called only on a failing seed, while the
/// recorder from the panicked run is still installed.
fn dump_flight_recorders(seed: u64) -> Vec<std::path::PathBuf> {
    let records = trace::take();
    trace::disable();
    let dir = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(dir);
    let mut written = Vec::new();
    for node in [n(0), n(1), n(2)] {
        let lines: Vec<String> = trace::query::node_order(&records, node)
            .iter()
            .map(|r| r.to_string())
            .collect();
        let path = dir.join(format!("failing-seed-{seed:#x}-node{}.trace.txt", node.0));
        if std::fs::write(&path, lines.join("\n") + "\n").is_ok() {
            written.push(path);
        }
    }
    let json = dir.join(format!("failing-seed-{seed:#x}.trace.json"));
    if std::fs::write(&json, trace::chrome::export(&records)).is_ok() {
        written.push(json);
    }
    written
}

/// The headline chaos run: every fault kind fires, the cluster recovers,
/// nothing live is reclaimed, and the new counters prove each mechanism
/// actually engaged.
#[test]
fn chaos_run_survives_every_fault_kind() {
    schedule::each(|schedule| check_every_fault_kind(run_chaos(0xC4A0_5EED, schedule)));
}

fn check_every_fault_kind(summary: ChaosSummary) {
    let fs = summary.fault;
    assert_eq!(fs.partitions_healed, 2, "both partitions healed");
    assert_eq!(fs.restarts, 0, "no node crashed");
    assert!(fs.link_dropped > 0, "link loss engaged");
    assert!(fs.duplicates_injected > 0, "duplication engaged");
    assert!(
        fs.partition_dropped + fs.partition_held > 0,
        "traffic crossed the partition window"
    );
    let total = |k: StatKind| -> u64 {
        let idx = StatKind::ALL
            .iter()
            .position(|&x| x as usize == k as usize)
            .unwrap();
        summary.counters.iter().map(|c| c[idx]).sum()
    };
    assert!(
        total(StatKind::TablePulls) > 0,
        "cleaners asked for lost tables"
    );
    assert!(
        total(StatKind::DuplicateDeliveries) > 0,
        "duplicates were delivered and counted"
    );
    assert_eq!(
        total(StatKind::PartitionsHealed),
        6,
        "all three nodes saw both heals"
    );
    assert_eq!(total(StatKind::NodeRestarts), 0, "no node restarted");
}

/// Bit-exact replay: one seed, two runs, identical counters everywhere; a
/// different seed perturbs the run. Under `Due`: the claim is about the
/// fault seed, so the delivery order stays the one the suite was tuned on
/// (`bmx_net`'s tests pin a seeded schedule's own replay).
#[test]
fn chaos_runs_replay_identically_from_the_seed() {
    let a = run_chaos(0x0D15_EA5E, Schedule::Due);
    let b = run_chaos(0x0D15_EA5E, Schedule::Due);
    assert_eq!(a, b, "same seed must reproduce identical counters");
    let c = run_chaos(0x0D15_EA5F, Schedule::Due);
    assert_ne!(
        a.per_class, c.per_class,
        "a different seed takes a different trace"
    );
}

/// Seed sweep, used by the nightly chaos job: `CHAOS_SEEDS` (comma-separated,
/// `0x`-prefixed hex or decimal) overrides the default set, and each seed
/// runs under every schedule `SCHEDULE_SEEDS` names. A failing seed is
/// written — with the fault plan and the schedule — to `target/chaos/` as a
/// replay artifact.
#[test]
fn chaos_seed_sweep() {
    let seeds = schedule::seeds_from_env("CHAOS_SEEDS", &[1, 2]);
    let mut failures = Vec::new();
    for (schedule, seed) in schedule::schedules()
        .into_iter()
        .flat_map(|s| seeds.iter().map(move |&seed| (s, seed)))
    {
        let outcome = std::panic::catch_unwind(|| run_chaos(seed, schedule));
        if let Err(panic) = outcome {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            // The panicked run's flight recorder and metrics registry are
            // still installed: dump the recorder tail (per-node timelines +
            // merged Chrome trace) and the metrics snapshot next to the
            // replay seed.
            dump_metrics_snapshot(seed);
            metrics::disable();
            let dumps = dump_flight_recorders(seed);
            let dump_list: Vec<String> = dumps
                .iter()
                .map(|p| p.to_string_lossy().into_owned())
                .collect();
            let dir = std::path::Path::new("target/chaos");
            let _ = std::fs::create_dir_all(dir);
            let artifact = dir.join(format!("failing-seed-{seed:#x}.txt"));
            let _ = std::fs::write(
                &artifact,
                format!(
                    "chaos seed: {seed:#x}\nschedule: {schedule:?}\nreplay: {}CHAOS_SEEDS={seed:#x} \
                     cargo test --test chaos chaos_seed_sweep\nfault plan: {:#?}\npanic: {msg}\n\
                     flight recorders: {}\n",
                    schedule::replay_prefix(schedule),
                    chaos_plan(),
                    dump_list.join(", "),
                ),
            );
            failures.push((seed, schedule, msg));
        }
    }
    assert!(
        failures.is_empty(),
        "chaos seeds failed (replay artifacts in target/chaos/): {failures:?}"
    );
}
