//! Trace-backed invariant checking against live cluster runs.
//!
//! The queries in `bmx_trace::query` encode the paper's temporal safety
//! claims (scion retirement only after a covering reachability epoch,
//! address re-alignment before mutator access to a relocated object, the
//! Section-5 acquire invariants). Here they run against the event stream
//! of a real migration-plus-collection scenario — not hand-built records —
//! so a regression in the protocol ordering, or in the instrumentation's
//! placement, turns a green query red.
//!
//! This file also pins two tier-1 properties of the tracing subsystem
//! itself: a traced run is bit-identical to an untraced run with the same
//! seed (tracing is observational only), and the Chrome exporter produces
//! JSON that a trace viewer will accept.

use bmx_repro::prelude::*;
use bmx_repro::trace::{self, TraceEvent, TraceRecord};
use bmx_repro::workloads::{churn, lists};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// A three-node run exercising every traced subsystem: a shared bunch
/// replicated everywhere, ownership migration away from the root holder,
/// a copying collection at the root (relocations piggy-back outward), and
/// post-collection accesses at the replicas (lazy address update on
/// acquire). Returns a digest of everything that must be seed-determined.
fn migration_scenario(seed: u64) -> Vec<u64> {
    let mut net = NetworkConfig::lossless(1);
    net.seed = seed;
    let cfg = ClusterConfig {
        nodes: 3,
        net,
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1, n2) = (n(0), n(1), n(2));

    let shared = c.create_bunch(n0).unwrap();
    let list = lists::build_list(&mut c, n0, shared, 4, 0).unwrap();
    c.add_root(n0, list.head);
    let objs: Vec<Addr> = (0..3)
        .map(|_| {
            let o = c.alloc(n0, shared, &ObjSpec::with_refs(2, &[0])).unwrap();
            c.add_root(n0, o);
            o
        })
        .collect();
    c.map_bunch(n1, shared, n0).unwrap();
    c.map_bunch(n2, shared, n0).unwrap();

    // Migrate ownership of each object to a replica and mutate there.
    for (i, &o) in objs.iter().enumerate() {
        let site = if i % 2 == 0 { n1 } else { n2 };
        c.acquire_write(site, o).unwrap();
        c.write_data(site, o, 1, 100 + i as u64).unwrap();
        c.release(site, o).unwrap();
    }
    // Collect at the root holder: survivors relocate, and the relocation
    // records ride outward on subsequent protocol traffic.
    c.run_bgc(n0, shared).unwrap();
    // Post-collection accesses from every node re-align addresses lazily.
    for (i, &o) in objs.iter().enumerate() {
        for &site in &[n2, n0, n1] {
            c.acquire_read(site, o).unwrap();
            assert_eq!(c.read_data(site, o, 1).unwrap(), 100 + i as u64);
            c.release(site, o).unwrap();
        }
    }
    // A second collection plus a re-read keeps the cleaner and the
    // retirement path in the trace.
    c.run_bgc(n0, shared).unwrap();
    assert_eq!(lists::read_payloads(&c, n0, list.head).unwrap().len(), 4);

    let mut digest: Vec<u64> = Vec::new();
    for i in 0..3 {
        for k in StatKind::ALL {
            digest.push(c.stats[i].get(k));
        }
    }
    for cl in MsgClass::ALL {
        let s = c.net.class_stats(cl);
        digest.extend([s.sent, s.dropped, s.duplicated]);
    }
    digest.push(c.net.now());
    digest
}

/// The three temporal invariants hold on the event stream of a real
/// migration-and-collection run, and the stream actually contains the
/// events the queries reason about (an empty trace would be vacuously
/// green).
#[test]
fn invariant_queries_hold_on_a_real_run() {
    trace::install_vec();
    migration_scenario(7);
    let records = trace::take();
    trace::disable();
    assert!(
        records.len() > 100,
        "expected a substantial trace, got {} records",
        records.len()
    );
    let has = |pred: &dyn Fn(&TraceEvent) -> bool| records.iter().any(|r| pred(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::TokenGrant { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::AcquireComplete { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::OwnershipMigrate { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Relocate { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::AddrUpdate { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::ReportPublish { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::ReportApply { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::BgcPhase { .. })));

    let scion = trace::query::scion_retirement_violations(&records);
    assert!(scion.is_empty(), "scion retirement violations: {scion:?}");
    let addr = trace::query::address_update_violations(&records);
    assert!(addr.is_empty(), "address update violations: {addr:?}");
    let acq = trace::query::acquire_invariant_violations(&records);
    assert!(acq.is_empty(), "acquire invariant violations: {acq:?}");
}

/// A pointer store through a stale from-space address is recorded as what
/// it is — `requested` the address the caller held, `resolved` the current
/// copy two collections on — so the address-update query has a forwarded
/// store to check, and it passes: both hops were learned (`Relocate`)
/// before the access.
#[test]
fn a_forwarded_pointer_store_is_traced_with_the_callers_address() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, b, &ObjSpec::with_refs(1, &[0])).unwrap();
    let target = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, src);
    c.add_root(n0, target);
    trace::install_vec();
    c.run_bgc(n0, b).unwrap();
    c.run_bgc(n0, b).unwrap();
    c.write_ref(n0, src, 0, target).unwrap();
    let records = trace::take();
    trace::disable();

    let cur = c.gc.node(n0).directory.resolve(src);
    assert_ne!(cur, src, "the source moved");
    let stores: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::MutatorAccess { write: true, .. }))
        .collect();
    assert_eq!(stores.len(), 1, "one pointer store was traced");
    assert_eq!(
        stores[0].event,
        TraceEvent::MutatorAccess {
            requested: src,
            resolved: cur,
            write: true,
        }
    );
    let addr = trace::query::address_update_violations(&records);
    assert!(addr.is_empty(), "address update violations: {addr:?}");
    // Not vacuous: without the second collection's `Relocate` the same
    // store has no path to where it landed.
    let second_hop = records
        .iter()
        .rposition(|r| matches!(r.event, TraceEvent::Relocate { to, .. } if to == cur))
        .expect("the second collection relocated the source");
    let mut missing = records.clone();
    missing.remove(second_hop);
    assert_eq!(trace::query::address_update_violations(&missing).len(), 1);
}

/// A run through an amnesia crash on an otherwise lossless network: the
/// victim loses its volatile state mid-workload, replays its RVM
/// checkpoint, and rejoins under a fresh epoch. Returns the victim so the
/// caller can anchor its assertions.
fn recovery_scenario(seed: u64) -> NodeId {
    const CRASH_START: u64 = 900;
    const CRASH_END: u64 = 1100;
    const RUN_UNTIL: u64 = 1500;
    let victim = n(2);

    let dir = std::env::temp_dir().join(format!(
        "bmx-trace-recovery-{seed:#x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut net = NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash_amnesia(
        victim,
        CRASH_START,
        CRASH_END,
    ));
    net.seed = seed;
    let cfg = ClusterConfig {
        nodes: 3,
        net,
        retry: Some(RetryPolicy {
            initial_interval: 4,
            backoff: 2,
            max_interval: 32,
            budget: 6,
        }),
        persist: Some(PersistConfig {
            dir: dir.clone(),
            truncate_log_bytes: None,
        }),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1, n2) = (n(0), n(1), n(2));

    let mut sites = Vec::new();
    for &node in &[n0, n1, n2] {
        let b = c.create_bunch(node).unwrap();
        let reg = c.alloc(node, b, &ObjSpec::with_refs(1, &[0])).unwrap();
        c.add_root(node, reg);
        sites.push((node, b, reg));
    }
    let shared = c.create_bunch(n0).unwrap();
    let migrate: Vec<Addr> = (0..3)
        .map(|_| {
            let o = c.alloc(n0, shared, &ObjSpec::with_refs(2, &[0])).unwrap();
            c.add_root(n0, o);
            o
        })
        .collect();
    c.map_bunch(n1, shared, n0).unwrap();
    c.map_bunch(n2, shared, n0).unwrap();
    assert!(c.net.now() < CRASH_START, "setup ran into the crash window");

    let mut round = 0usize;
    while c.net.now() < RUN_UNTIL {
        let up: Vec<NodeId> = (0..c.nodes())
            .map(NodeId)
            .filter(|&p| !c.net.is_down(p) && !c.in_recovery(p))
            .collect();
        for &(node, bunch, registry) in &sites {
            // A home bunch exists at its node only while checkpointed state
            // covers it — skip churn (not an error) until recovery re-adds it.
            if up.contains(&node) && c.gc.node(node).bunches.contains_key(&bunch) {
                churn::register_churn(&mut c, node, bunch, registry, 2).unwrap();
            }
        }
        for (i, &obj) in migrate.iter().enumerate() {
            let site = up[(round + i) % up.len()];
            match c.acquire_write(site, obj) {
                Ok(()) => {
                    let v = c.read_data(site, obj, 1).unwrap();
                    c.write_data(site, obj, 1, v + 1).unwrap();
                    c.release(site, obj).unwrap();
                }
                Err(BmxError::WouldBlock { .. }) | Err(BmxError::OwnerUnknown { .. }) => {}
                Err(e) => panic!("migration hop failed: {e}"),
            }
        }
        // Collections rotate over the home bunches and the shared bunch at
        // every site: the home-bunch passes keep each node's checkpoint
        // fresh (what the victim replays from RVM), and the shared-bunch
        // passes make the victim publish reports pre-crash — the epoch
        // floor the survivors hand back at rejoin.
        let mut targets: Vec<(NodeId, BunchId)> = sites
            .iter()
            .map(|&(node, bunch, _)| (node, bunch))
            .collect();
        for &(node, _, _) in &sites {
            targets.push((node, shared));
        }
        let (cnode, cbunch) = targets[round % targets.len()];
        if up.contains(&cnode) && c.gc.node(cnode).bunches.contains_key(&cbunch) {
            c.run_bgc(cnode, cbunch).unwrap();
        }
        c.step(20).unwrap();
        round += 1;
    }
    c.settle(5_000).unwrap();
    assert!(!c.in_recovery(victim), "the rejoin handshake completed");
    assert_eq!(
        c.recovery_log.iter().filter(|r| r.node == victim).count(),
        1,
        "exactly one recovery at the victim"
    );
    let _ = std::fs::remove_dir_all(&dir);
    victim
}

/// The recovery plane traces coherently on a real amnesia-crash run: the
/// three events appear in pipeline order at the victim with one consistent
/// rejoin epoch, the post-crash epoch rule holds on the live stream, and —
/// the teeth check — a stale retirement spliced into that same stream is
/// flagged by the checker.
#[test]
fn recovery_events_and_post_crash_epoch_rule_on_a_real_run() {
    trace::install_vec();
    let victim = recovery_scenario(11);
    let records = trace::take();
    trace::disable();

    // The victim's own timeline: RecoveryBegin, then every RejoinEpoch,
    // then RecoveryComplete, all under the same rejoin epoch.
    let mine: Vec<&TraceRecord> = records.iter().filter(|r| r.node == victim).collect();
    let begin = mine
        .iter()
        .position(|r| matches!(r.event, TraceEvent::RecoveryBegin { .. }))
        .expect("RecoveryBegin traced at the victim");
    let complete = mine
        .iter()
        .position(|r| matches!(r.event, TraceEvent::RecoveryComplete { .. }))
        .expect("RecoveryComplete traced at the victim");
    assert!(begin < complete, "recovery completes after it begins");
    let begin_epoch = match mine[begin].event {
        TraceEvent::RecoveryBegin { epoch } => epoch,
        _ => unreachable!(),
    };
    let complete_epoch = match mine[complete].event {
        TraceEvent::RecoveryComplete { epoch } => epoch,
        _ => unreachable!(),
    };
    assert_eq!(begin_epoch, complete_epoch, "one rejoin epoch end to end");
    let rejoins: Vec<usize> = mine
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.event, TraceEvent::RejoinEpoch { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !rejoins.is_empty(),
        "the survivors handed back at least one per-bunch epoch floor"
    );
    for i in rejoins {
        assert!(
            begin < i && i < complete,
            "RejoinEpoch sits inside the recovery window (begin={begin}, \
             rejoin={i}, complete={complete})"
        );
    }

    // The live stream satisfies the post-crash epoch rule…
    let post = trace::query::post_crash_epoch_violations(&records);
    assert!(post.is_empty(), "post-crash epoch violations: {post:?}");

    // …and the checker is not vacuously green: replaying a pre-crash report
    // epoch as a retirement after the recovery must be flagged. The floor
    // the checker freezes is the max epoch applied from the victim before
    // RecoveryBegin, so any such epoch is by construction stale.
    let begin_lamport = mine[begin].lamport;
    let stale = records
        .iter()
        .filter(|r| r.lamport < begin_lamport)
        .find_map(|r| match r.event {
            TraceEvent::ReportApply {
                source,
                bunch,
                epoch,
            } if source == victim => Some((bunch, epoch)),
            _ => None,
        });
    let (bunch, epoch) = stale.expect(
        "a pre-crash report from the victim was applied somewhere \
         (otherwise the scenario never fed the checker a floor)",
    );
    let last = records.iter().map(|r| (r.lamport, r.seq)).max().unwrap();
    let mut tampered = records.clone();
    tampered.push(TraceRecord {
        node: n(0),
        tick: last.0 + 1,
        lamport: last.0 + 1,
        seq: last.1 + 1,
        event: TraceEvent::ScionRetired {
            source: victim,
            bunch,
            epoch,
            count: 1,
        },
    });
    let flagged = trace::query::post_crash_epoch_violations(&tampered);
    assert_eq!(
        flagged.len(),
        1,
        "a stale post-recovery retirement must be flagged"
    );
}

/// Tier-1 smoke: the same seed produces the same run whether or not a
/// recorder is installed — tracing reads the simulation, never steers it.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    trace::disable();
    let untraced = migration_scenario(42);
    trace::install_ring(4096);
    let traced = migration_scenario(42);
    let records = trace::take();
    trace::disable();
    assert!(!records.is_empty(), "the traced run actually recorded");
    assert_eq!(
        untraced, traced,
        "tracing perturbed a counter, message, or the clock"
    );
}

/// A real watchdog alarm justifies itself causally: the `MetricAlarm`
/// event cites a witness stamp its node actually produced, strictly before
/// the alarm, with a sane window start — and the checker flags a forged
/// alarm whose witness points at nothing.
#[test]
fn metric_alarm_events_satisfy_the_happens_before_rule() {
    use bmx_repro::metrics::{self, watchdog::WatchdogConfig};

    trace::install_vec();
    metrics::install_with(WatchdogConfig {
        fromspace_window: 200,
        ..WatchdogConfig::default()
    });
    // A collection retires a segment into from-space; nothing ever drains
    // it, so the leak watchdog must fire within the (shortened) window.
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let b = c.create_bunch(n(0)).unwrap();
    let root = c.alloc(n(0), b, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n(0), root);
    let junk = c.alloc(n(0), b, &ObjSpec::data(4)).unwrap();
    c.write_ref(n(0), root, 0, junk).unwrap();
    c.run_bgc(n(0), b).unwrap();
    c.step(600).unwrap();
    metrics::disable();
    let records = trace::take();
    trace::disable();

    let alarm = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::MetricAlarm { .. }))
        .expect("the withheld drain raised an alarm event");
    let bad = trace::query::metric_alarm_hb_violations(&records);
    assert!(bad.is_empty(), "alarm HB violations: {bad:?}");

    // Forge the same alarm with a witness stamp the node never produced:
    // the checker must reject it.
    let mut forged = records.clone();
    let mut fake = *alarm;
    if let TraceEvent::MetricAlarm {
        ref mut witness_lamport,
        ..
    } = fake.event
    {
        *witness_lamport = u64::MAX;
    }
    fake.lamport += 1;
    fake.seq += 1;
    forged.push(fake);
    assert_eq!(
        trace::query::metric_alarm_hb_violations(&forged).len(),
        1,
        "the forged witness must be flagged"
    );
}

/// The Chrome exporter output for a real run survives a strict JSON parse
/// and carries well-formed trace_event entries.
#[test]
fn chrome_export_of_a_real_run_validates() {
    trace::install_vec();
    migration_scenario(3);
    let records = trace::take();
    trace::disable();
    let json = trace::chrome::export(&records);
    let events = trace::chrome::validate(&json).expect("well-formed Chrome trace");
    assert_eq!(events, records.len(), "one instant event per record");
    let timeline = trace::query::human_timeline(&records);
    assert_eq!(timeline.lines().count(), records.len());
}
