//! Amnesia chaos soak: a node loses *everything volatile* mid-workload and
//! must come back through the RVM store and the epoch-based rejoin
//! handshake.
//!
//! This extends `tests/chaos.rs`, whose partitions hold reliable traffic
//! for replay after the heal, with the fault plane's crash, which drops
//! it — the node restarts with only its last post-BGC checkpoint and must (1) replay the RVM store, (2) reconcile DSM
//! ownership with the surviving peers, and (3) regenerate its scion/stub
//! state from fresh idempotent reachability reports. The acceptance gate is
//! the same as the chaos suite's — no premature reclamation, zero collector
//! token acquires — plus the recovery-specific temporal invariant: no scion
//! sourced at the crashed node is ever retired under a pre-crash epoch
//! (`trace::query::post_crash_epoch_violations`).
//!
//! A failing seed writes a replay artifact to `target/chaos/`: the fault
//! plan, the per-node flight-recorder tails, and a directory listing of the
//! recovered node's RVM store (so the checkpoint actually on disk at the
//! failure can be inspected).

use bmx::audit;
use bmx_repro::metrics;
use bmx_repro::prelude::*;
use bmx_repro::trace;
use bmx_repro::workloads::{churn, lists};

mod schedule;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

const FLIGHT_RECORDER_CAP: usize = 8_192;

/// Fault windows (ticks). The partition heals well before the amnesia
/// crash so the two recovery mechanisms are exercised separately. The
/// second node's crash opens one tick after the victim restarts, while the
/// victim's rejoin requests are still in flight.
const PARTITION_START: u64 = 900;
const PARTITION_END: u64 = 1200;
const CRASH_START: u64 = 1600;
const CRASH_END: u64 = 1800;
const SECOND_CRASH_END: u64 = 2000;
const RUN_UNTIL: u64 = 2600;

/// The node that loses its memory.
const VICTIM: u32 = 2;
/// The node that crashes while the victim is rejoining.
const SECOND_VICTIM: u32 = 1;

fn amnesia_plan() -> FaultPlan {
    FaultPlan::none()
        .all_links(LinkFault {
            drop: 0.10,
            duplicate: 0.20,
            jitter: 3,
        })
        .partition(vec![n(0)], vec![n(1), n(2)], PARTITION_START, PARTITION_END)
        .crash_amnesia(n(VICTIM), CRASH_START, CRASH_END)
        .crash_amnesia(n(SECOND_VICTIM), CRASH_END + 1, SECOND_CRASH_END)
}

fn persist_dir(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bmx-amnesia-{seed:#x}-{}", std::process::id()))
}

/// A node can take mutator/collector work only when it is up and done
/// rejoining.
fn available(c: &Cluster, node: NodeId) -> bool {
    !c.net.is_down(node) && !c.in_recovery(node)
}

/// One workload round that keeps churning *around* the outage: registry
/// churn at every available site, one tolerant ownership-migration hop,
/// a collection at the round-robin-chosen available site (the shared bunch
/// is collected wherever the rotation lands — replica sites included), and
/// a slice of background clock.
fn amnesia_round(
    c: &mut Cluster,
    sites: &[(NodeId, BunchId, Addr)],
    shared: BunchId,
    migrate: &[Addr],
    round: usize,
) -> Result<()> {
    for &(node, bunch, registry) in sites {
        if available(c, node) {
            churn::register_churn(c, node, bunch, registry, 2)?;
        }
    }
    // One migration hop per object, to a deterministically rotating target.
    // Acquires may WouldBlock while reliable traffic is being dropped on the
    // crashed node's behalf; the hop is simply skipped (the next round
    // re-sends the request, which is the protocol's own loss recovery).
    let up: Vec<NodeId> = (0..c.nodes())
        .map(NodeId)
        .filter(|&p| available(c, p))
        .collect();
    if !up.is_empty() {
        for (i, &obj) in migrate.iter().enumerate() {
            let site = up[(round + i) % up.len()];
            match c.acquire_write(site, obj) {
                Ok(()) => {
                    let v = c.read_data(site, obj, 1)?;
                    c.write_data(site, obj, 1, v + 1)?;
                    c.release(site, obj)?;
                }
                Err(BmxError::WouldBlock { .. }) | Err(BmxError::OwnerUnknown { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }
    // Collections rotate over home bunches and the shared bunch at every
    // site — no root-holder restriction.
    let mut targets: Vec<(NodeId, BunchId)> = sites
        .iter()
        .map(|&(node, bunch, _)| (node, bunch))
        .collect();
    for &(node, _, _) in sites {
        targets.push((node, shared));
    }
    let (node, bunch) = targets[round % targets.len()];
    if available(c, node) && c.gc.node(node).bunches.contains_key(&bunch) {
        c.run_bgc(node, bunch)?;
    }
    c.step(20)
}

/// Everything a run produces that must replay identically from the seed.
#[derive(Debug, PartialEq)]
struct AmnesiaSummary {
    counters: Vec<Vec<u64>>,
    fault: FaultStats,
    rounds: usize,
    recoveries: usize,
}

fn run_amnesia(seed: u64, schedule: Schedule) -> AmnesiaSummary {
    trace::install(FLIGHT_RECORDER_CAP);
    // Same policy as tests/chaos.rs: watchdogs must stay silent on a green
    // amnesia soak, and each seed leaves a metrics snapshot artifact.
    let mreg = metrics::install();
    let dir = persist_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    let mut net = NetworkConfig::lossless(1).with_fault(amnesia_plan());
    net.seed = seed;
    net.schedule = schedule;
    let cfg = ClusterConfig {
        nodes: 3,
        net,
        persist: Some(PersistConfig {
            dir: dir.clone(),
            // Small bound so log truncation actually fires mid-run.
            truncate_log_bytes: Some(1 << 18),
        }),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1, n2) = (n(0), n(1), n(2));

    // Same topology as the chaos suite: a rooted churn registry per node
    // plus a shared bunch mapped everywhere with the long-lived structures.
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
    assert!(c.net.now() < PARTITION_START, "setup ran into the faults");

    let mut rounds = 0;
    while c.net.now() < RUN_UNTIL {
        amnesia_round(&mut c, &sites, shared, &migrate, rounds).unwrap();
        rounds += 1;
    }
    let used = c.settle(5_000).unwrap();
    assert!(used < 5_000, "the network went idle");

    // The recovery actually ran, against a real checkpoint, and so did
    // the second victim's.
    let recs: Vec<_> = c
        .recovery_log
        .iter()
        .filter(|r| r.node == n(VICTIM))
        .collect();
    assert_eq!(
        recs.len(),
        1,
        "exactly one recovery at the victim: {recs:?}"
    );
    let second = c.recovery_log.iter().filter(|r| r.node == n(SECOND_VICTIM));
    assert_eq!(
        second.count(),
        1,
        "exactly one recovery at the second victim"
    );
    let rec = recs[0];
    assert!(
        rec.objects_recovered > 0,
        "the RVM replay reinstalled the checkpointed objects"
    );
    assert!(
        rec.reports_applied > 0,
        "scion regeneration consumed peer reports"
    );
    assert!(
        rec.complete_tick >= rec.restart_tick,
        "recovery latency is well-formed"
    );
    assert!(
        rec.complete_tick > CRASH_END + 1,
        "the second crash landed while the victim was rejoining"
    );
    assert!(!c.in_recovery(n(VICTIM)), "the rejoin handshake completed");
    assert!(!c.in_recovery(n(SECOND_VICTIM)), "so did the second one");

    // The paper's safety gate, under the harshest crash model.
    audit::assert_no_premature_reclamation(&c, &expected_live);
    c.assert_gc_acquired_no_tokens();
    assert_eq!(lists::read_payloads(&c, n0, list.head).unwrap().len(), 6);
    assert_eq!(c.read_data(n0, anchor, 0).unwrap(), 4242);

    // The victim is a working cluster member again: it can take a write
    // token and its own collector runs.
    c.acquire_write(n2, anchor).unwrap();
    c.write_data(n2, anchor, 0, 4243).unwrap();
    c.release(n2, anchor).unwrap();
    c.acquire_read(n0, anchor).unwrap();
    assert_eq!(c.read_data(n0, anchor, 0).unwrap(), 4243);
    c.release(n0, anchor).unwrap();

    // Recovery-plane counters engaged.
    let victim = &c.stats[VICTIM as usize];
    assert_eq!(victim.get(StatKind::AmnesiaWipes), 1);
    assert_eq!(victim.get(StatKind::RecoveriesCompleted), 1);
    assert_eq!(victim.get(StatKind::NodeRestarts), 1);

    // The full temporal-invariant set, including the post-crash epoch rule.
    let records = trace::take();
    trace::disable();
    let scion = trace::query::scion_retirement_violations(&records);
    assert!(scion.is_empty(), "scion retirement violations: {scion:?}");
    let addr = trace::query::address_update_violations(&records);
    assert!(addr.is_empty(), "address update violations: {addr:?}");
    let acq = trace::query::acquire_invariant_violations(&records);
    assert!(acq.is_empty(), "acquire invariant violations: {acq:?}");
    let post = trace::query::post_crash_epoch_violations(&records);
    assert!(post.is_empty(), "post-crash epoch violations: {post:?}");
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, trace::TraceEvent::RecoveryComplete { .. })),
        "the recovery plane actually traced"
    );

    assert_eq!(
        mreg.total_alarms(),
        0,
        "watchdog alarm fired during an otherwise-green amnesia run \
         (snapshot in target/chaos/metrics-amnesia-seed-{seed:#x}.json)"
    );
    {
        let out = std::path::Path::new("target/chaos");
        let _ = std::fs::create_dir_all(out);
        let snap = metrics::snapshot();
        let _ = std::fs::write(
            out.join(format!("metrics-amnesia-seed-{seed:#x}.json")),
            metrics::json::to_json(&snap),
        );
    }
    metrics::disable();

    let summary = AmnesiaSummary {
        counters: (0..3)
            .map(|i| StatKind::ALL.iter().map(|&k| c.stats[i].get(k)).collect())
            .collect(),
        fault: c.net.fault_stats(),
        rounds,
        recoveries: c.recovery_log.len(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

/// Failure artifacts: flight-recorder tails per node plus the recovered
/// node's RVM directory listing, next to the replay seed.
fn dump_artifacts(seed: u64) -> Vec<String> {
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
        let path = dir.join(format!(
            "amnesia-failing-seed-{seed:#x}-node{}.trace.txt",
            node.0
        ));
        if std::fs::write(&path, lines.join("\n") + "\n").is_ok() {
            written.push(path.to_string_lossy().into_owned());
        }
    }
    // The victim's RVM store: what was actually on disk at the failure.
    let store = persist_dir(seed).join(format!("node{VICTIM}"));
    let mut listing = String::new();
    if let Ok(entries) = std::fs::read_dir(&store) {
        for e in entries.flatten() {
            let len = e.metadata().map(|m| m.len()).unwrap_or(0);
            listing.push_str(&format!(
                "{}\t{} bytes\n",
                e.file_name().to_string_lossy(),
                len
            ));
        }
    } else {
        listing.push_str("(no RVM store on disk)\n");
    }
    let rvm_path = dir.join(format!("amnesia-failing-seed-{seed:#x}-rvm-dir.txt"));
    if std::fs::write(&rvm_path, format!("{}\n{listing}", store.display())).is_ok() {
        written.push(rvm_path.to_string_lossy().into_owned());
    }
    written
}

/// The headline run: the victim loses everything, recovers from its RVM
/// checkpoint, rejoins under a fresh epoch, and the cluster stays safe.
#[test]
fn amnesia_crash_recovers_through_rvm_and_rejoin() {
    schedule::each(|schedule| {
        run_amnesia(0xA3_5EED, schedule);
    });
}

/// Bit-exact replay of the simulated portion: one seed, two runs,
/// identical counters (RVM replay wall-time is measured, not simulated,
/// and recovery latency in ticks is part of the counters compared). Under
/// `Due`, like the chaos suite's replay test: the claim is about the fault
/// seed.
#[test]
fn amnesia_runs_replay_identically_from_the_seed() {
    let a = run_amnesia(0x0D15_EA5E, Schedule::Due);
    let b = run_amnesia(0x0D15_EA5E, Schedule::Due);
    assert_eq!(a, b, "same seed must reproduce identical counters");
}

/// Seed sweep for the nightly chaos job: `AMNESIA_SEEDS` (comma-separated,
/// `0x`-prefixed hex or decimal) overrides the default set, and each
/// seed runs under every schedule `SCHEDULE_SEEDS` names. The default set
/// is seeds 1–8 plus 0x3c4d and 14, which fail (0x3c4d under `Due`, 14
/// under schedule 3004) when a restarted node answers table requests under
/// epochs that do not carry its incarnation. A failing seed writes the
/// replay artifact, the per-node flight recorders, and the victim's RVM
/// directory listing to `target/chaos/`.
#[test]
fn amnesia_seed_sweep() {
    let seeds = schedule::seeds_from_env("AMNESIA_SEEDS", &[1, 2, 3, 4, 5, 6, 7, 8, 0x3c4d, 14]);
    let mut failures = Vec::new();
    for (schedule, seed) in schedule::schedules()
        .into_iter()
        .flat_map(|s| seeds.iter().map(move |&seed| (s, seed)))
    {
        let outcome = std::panic::catch_unwind(|| run_amnesia(seed, schedule));
        if let Err(panic) = outcome {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            let dumps = dump_artifacts(seed);
            let dir = std::path::Path::new("target/chaos");
            let _ = std::fs::create_dir_all(dir);
            let artifact = dir.join(format!("amnesia-failing-seed-{seed:#x}.txt"));
            let _ = std::fs::write(
                &artifact,
                format!(
                    "amnesia seed: {seed:#x}\nschedule: {schedule:?}\nreplay: \
                     {}AMNESIA_SEEDS={seed:#x} cargo test --test chaos_amnesia \
                     amnesia_seed_sweep\nfault plan: {:#?}\npanic: {msg}\nartifacts: {}\n",
                    schedule::replay_prefix(schedule),
                    amnesia_plan(),
                    dumps.join(", "),
                ),
            );
            failures.push((seed, schedule, msg));
        }
        // A passing run removed its store; a failing one leaves it for the
        // artifact dump above, then it is cleared for the next seed.
        let _ = std::fs::remove_dir_all(persist_dir(seed));
    }
    assert!(
        failures.is_empty(),
        "amnesia seeds failed (replay artifacts in target/chaos/): {failures:?}"
    );
}

/// A restarted node never reuses an epoch its crashed incarnation
/// published. Seed 0x8 used to break that before the manifest carried
/// epochs (under `Due`, whose order these ticks are): N2 published B4 epoch 5 at t=1567
/// and applied it only locally, crashed at t=1600 (restart 1800), the
/// rejoin resumed B4 at the peers' floor of 4 (t=1802), N2 published a
/// different epoch-5 report at t=2010, and N0 logged `OwnerPtrRetired` from
/// it at t=2011. Every replica a restarted node creates now starts its
/// epochs with the incarnation in the high bits, above any epoch a dead
/// incarnation published. (The ticks were read before the plan gained N1's
/// crash window.)
#[test]
fn a_restarted_node_never_reuses_a_published_epoch() {
    run_amnesia(0x8, Schedule::Due);
}
