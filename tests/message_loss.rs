//! Message-loss behaviour (paper, Section 6.1; experiment E5).
//!
//! Reachability tables are idempotent: losing one delays collection but
//! never endangers a live object, and a verbatim re-send fully recovers.
//! The re-send is pulled: a cleaner that holds scions a source's table
//! justifies, and has heard no table from it for a while, asks for it.
//! Scion-messages enjoy the same recovery through the tables (the cleaner
//! recreates missing scions from reported stubs); the window between a lost
//! scion-message and the first report is the race the paper defers to
//! [Ferreira 94b] — demonstrated, not hidden, below.

use bmx_repro::gc::cleaner::PULL_SILENCE;
use bmx_repro::gc::GcMsg;
use bmx_repro::prelude::*;
use bmx_repro::workloads::lists;

mod schedule;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Sends `bunch`'s current table at `from` to `to` once more, and delivers it.
fn send_table_again(c: &mut Cluster, from: NodeId, bunch: BunchId, to: NodeId) {
    let report = c.build_report(from, bunch).unwrap();
    c.send_gc(from, to, GcMsg::Report(report));
    c.pump().unwrap();
}

/// Losing every stub-table message keeps remote garbage uncollected
/// (liveness deferred) but reclaims nothing live (safety); once the
/// network heals, the target asks for the idempotent table again and
/// collection completes.
#[test]
fn lost_tables_are_recovered_by_resend() {
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 1.0),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n1, n2) = (n(0), n(1));
    let b1 = c.create_bunch(n1).unwrap();
    let b2 = c.create_bunch(n2).unwrap();
    let src = c.alloc(n1, b1, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let keep = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
    let drop_me = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, src);
    c.write_ref(n1, src, 0, keep).unwrap();
    c.write_ref(n1, src, 1, drop_me).unwrap();

    // The reference to `drop_me` dies; N1's BGC publishes a table that the
    // network eats.
    c.write_ref(n1, src, 1, Addr::NULL).unwrap();
    c.run_bgc(n1, b1).unwrap();
    assert!(
        c.net.class_stats(MsgClass::StubTable).dropped > 0,
        "tables were lost"
    );

    // Liveness deferred: the stale scion still protects `drop_me`...
    let s = c.run_bgc(n2, b2).unwrap();
    assert_eq!(s.reclaimed, 0, "stale scion keeps the garbage alive");
    // ...and safety intact: `keep` is alive and readable at its node.
    assert_eq!(c.read_data(n2, keep, 0).unwrap(), 0);

    // The network heals; time passes, and N2, hearing no table, asks N1.
    c.net.set_drop(MsgClass::StubTable, 0.0);
    c.step(2 * PULL_SILENCE).unwrap();
    c.settle(100).unwrap();
    let s = c.run_bgc(n2, b2).unwrap();
    assert_eq!(s.reclaimed, 1, "garbage collected after recovery");
    assert_eq!(
        c.read_data(n2, keep, 0).unwrap(),
        0,
        "live object untouched"
    );
    c.assert_gc_acquired_no_tokens();
}

/// Duplicated tables (re-sent although the original arrived) are harmless:
/// processing is idempotent.
#[test]
fn duplicate_tables_are_idempotent() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n1, n2) = (n(0), n(1));
    let b1 = c.create_bunch(n1).unwrap();
    let b2 = c.create_bunch(n2).unwrap();
    let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, src);
    c.write_ref(n1, src, 0, tgt).unwrap();
    c.run_bgc(n1, b1).unwrap();
    // Re-send the same epoch's table five times.
    for _ in 0..5 {
        send_table_again(&mut c, n1, b1, n2);
    }
    // The scion survives (the stub is still reported) and the target lives.
    assert_eq!(
        c.gc.node(n2).bunch(b2).unwrap().scion_table.inter().len(),
        1
    );
    let s = c.run_bgc(n2, b2).unwrap();
    assert_eq!(s.reclaimed, 0);
}

/// Sustained 50% loss on table traffic across repeated churn rounds:
/// liveness may lag, but nothing live is ever reclaimed anywhere.
#[test]
fn sustained_loss_never_reclaims_live_objects() {
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 0.5),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n1, n2) = (n(0), n(1));
    let b1 = c.create_bunch(n1).unwrap();
    let b2 = c.create_bunch(n2).unwrap();
    // A live cross-bunch structure: a list in B1, plus a rooted bridge
    // object in B1 holding the only reference to an anchor in B2.
    let list = lists::build_list(&mut c, n1, b1, 6, 0).unwrap();
    c.add_root(n1, list.head);
    let anchor = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
    c.write_data(n2, anchor, 0, 4242).unwrap();
    let bridge = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    c.add_root(n1, bridge);
    c.write_ref(n1, bridge, 0, anchor).unwrap();

    // Churn: every round detaches garbage in both bunches and collects on
    // both nodes, under 50% table loss.
    for round in 0..10u64 {
        let junk1 = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
        let junk2 = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
        let _ = (junk1, junk2); // immediately unreachable
        c.run_bgc(n1, b1).unwrap();
        c.run_bgc(n2, b2).unwrap();
        // Safety probe every round: the list walks, the anchor answers.
        let head = c.gc.node(n1).directory.resolve(list.head);
        let payloads = lists::read_payloads(&c, n1, head).unwrap();
        assert_eq!(payloads.len(), 6, "round {round}: list intact");
        assert_eq!(
            c.read_data(n2, anchor, 0).unwrap(),
            4242,
            "round {round}: anchor intact"
        );
    }
    assert!(
        c.net.class_stats(MsgClass::StubTable).dropped > 0,
        "loss actually happened"
    );
    c.assert_gc_acquired_no_tokens();
}

/// A lost scion-message is recovered by the very next reachability table:
/// the cleaner recreates the scion from the reported stub.
#[test]
fn lost_scion_message_recovered_by_table() {
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_drop(MsgClass::ScionMessage, 1.0),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n1, n2) = (n(0), n(1));
    let b1 = c.create_bunch(n1).unwrap();
    let b2 = c.create_bunch(n2).unwrap();
    let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, src);
    c.write_ref(n1, src, 0, tgt).unwrap();
    // The scion-message was eaten.
    assert_eq!(
        c.gc.node(n2)
            .bunch(b2)
            .map_or(0, |b| b.scion_table.inter().len()),
        0
    );
    // N1's next collection reports the stub; the cleaner recreates the
    // missing scion at N2.
    c.run_bgc(n1, b1).unwrap();
    assert_eq!(
        c.gc.node(n2).bunch(b2).unwrap().scion_table.inter().len(),
        1
    );
    let s = c.run_bgc(n2, b2).unwrap();
    assert_eq!(s.reclaimed, 0, "target protected again");
}

/// The documented race (Section 6.1 defers it to the companion paper): if
/// the target's collection runs inside the window between a lost
/// scion-message and the first table from the source, the target is
/// unprotected. The reproduction preserves — rather than papers over — this
/// behaviour; the test pins it down.
#[test]
fn scion_message_loss_window_is_the_known_race() {
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_drop(MsgClass::ScionMessage, 1.0),
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n1, n2) = (n(0), n(1));
    let b1 = c.create_bunch(n1).unwrap();
    let b2 = c.create_bunch(n2).unwrap();
    let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n1, src);
    c.write_ref(n1, src, 0, tgt).unwrap();
    // The target's BGC runs inside the window: the object is unprotected.
    let s = c.run_bgc(n2, b2).unwrap();
    assert_eq!(s.reclaimed, 1, "the race window is real (and documented)");
}

/// Every unlinked remote target is reclaimed eventually, even when the
/// stub tables that announce the unlinks are lost. A rooted object at n0
/// holds 40 refs into n1's bunch; each round unlinks one and runs
/// `run_bgc(n0)`, 20 ticks, `run_bgc(n1)`, 20 ticks, with 400 more rounds
/// after the last unlink. The table that removes the bunch's last stub
/// toward n1 is the last one addressed to n1, so when the network drops it
/// no later table supersedes it: n1 has to ask for it.
#[test]
fn the_last_unlinked_target_is_reclaimed_despite_a_lost_table() {
    const REFS: u64 = 40;
    const STEPS: u64 = 20;
    let left_at = |seed: u64| -> Vec<u64> {
        let mut net = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, 0.3);
        net.seed = seed;
        let mut c = Cluster::new(ClusterConfig {
            nodes: 2,
            net,
            ..Default::default()
        });
        let (n0, n1) = (n(0), n(1));
        let b0 = c.create_bunch(n0).unwrap();
        let b1 = c.create_bunch(n1).unwrap();
        let fields: Vec<u64> = (0..REFS).collect();
        let src = c.alloc(n0, b0, &ObjSpec::with_refs(REFS, &fields)).unwrap();
        c.add_root(n0, src);
        let mut oids = Vec::new();
        for i in 0..REFS {
            let target = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
            oids.push(c.oid_at(n1, target).unwrap());
            c.write_ref(n0, src, i, target).unwrap();
        }
        let round = |c: &mut Cluster| {
            c.run_bgc(n0, b0).unwrap();
            c.step(STEPS).unwrap();
            c.run_bgc(n1, b1).unwrap();
            c.step(STEPS).unwrap();
        };
        for i in 0..REFS {
            c.write_ref(n0, src, i, Addr::NULL).unwrap();
            round(&mut c);
        }
        for _ in 0..400 {
            round(&mut c);
        }
        (0..REFS)
            .filter(|&i| c.engine.obj_state(n1, oids[i as usize]).is_some())
            .collect()
    };
    let left: Vec<(u64, Vec<u64>)> = [2, 4, 5, 7, 11, 16, 18]
        .into_iter()
        .map(|seed| (seed, left_at(seed)))
        .filter(|(_, left)| !left.is_empty())
        .collect();
    assert!(left.is_empty(), "(seed, targets left at n1): {left:?}");
}

/// The unlink-then-collect scenario above, measured: `s` ticks between the
/// collections of a round, `drop` the StubTable loss rate. Returns the
/// latency of each reclaimed target (ticks from its unlink to the start of
/// the collection at n1 that reclaimed it) and how many targets are
/// still at n1 after 400 rounds past the last unlink.
fn unlink_latencies(seed: u64, s: u64, drop: f64, schedule: Schedule) -> (Vec<u64>, usize) {
    const REFS: u64 = 40;
    let mut net = NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, drop);
    net.seed = seed;
    net.schedule = schedule;
    let mut c = Cluster::new(ClusterConfig {
        nodes: 2,
        net,
        ..Default::default()
    });
    let (n0, n1) = (n(0), n(1));
    let b0 = c.create_bunch(n0).unwrap();
    let b1 = c.create_bunch(n1).unwrap();
    let fields: Vec<u64> = (0..REFS).collect();
    let src = c.alloc(n0, b0, &ObjSpec::with_refs(REFS, &fields)).unwrap();
    c.add_root(n0, src);
    let mut oids = Vec::new();
    for i in 0..REFS {
        let target = c.alloc(n1, b1, &ObjSpec::data(1)).unwrap();
        oids.push(c.oid_at(n1, target).unwrap());
        c.write_ref(n0, src, i, target).unwrap();
    }
    // Per target: the tick of its unlink, then of its absence at n1.
    let mut unlinked: Vec<Option<u64>> = vec![None; REFS as usize];
    let mut latencies = Vec::new();
    let mut round = |c: &mut Cluster, unlinked: &mut Vec<Option<u64>>| {
        c.run_bgc(n0, b0).unwrap();
        c.step(s).unwrap();
        let collected_at = c.net.now();
        c.run_bgc(n1, b1).unwrap();
        for (i, at) in unlinked.iter_mut().enumerate() {
            if let Some(t) = *at {
                if c.engine.obj_state(n1, oids[i]).is_none() {
                    latencies.push(collected_at - t);
                    *at = None;
                }
            }
        }
        c.step(s).unwrap();
    };
    for i in 0..REFS {
        // Unlink on a quiet network: a table request still in flight would
        // otherwise stretch the pump after n0's collection by a tick.
        c.settle(100).unwrap();
        c.write_ref(n0, src, i, Addr::NULL).unwrap();
        unlinked[i as usize] = Some(c.net.now());
        round(&mut c, &mut unlinked);
    }
    for _ in 0..400 {
        if unlinked.iter().all(Option::is_none) {
            break;
        }
        round(&mut c, &mut unlinked);
    }
    c.assert_gc_acquired_no_tokens();
    let left = unlinked.iter().filter(|t| t.is_some()).count();
    (latencies, left)
}

/// Completeness under table loss, cell by cell: s ∈ {5, 20} ticks between
/// collections × StubTable drop ∈ {10 %, 30 %}, `net.seed` 1–20, 40
/// targets a seed (800 a cell). No target may stay at n1 under any
/// schedule. Under `Due`, at s = 20, the p99 latency must stay within what
/// the report-retry daemon this mechanism replaced reached there (21 ticks
/// at 10 %, 61 at 30 %; one round is 2s ticks, so 21 is "the first
/// collection at n1" and 61 "the second"). A seeded schedule ends some
/// ticks early, which delays deliveries by itself, so the tick bounds are
/// not applied to it. `--nocapture` prints each cell's p50 / p99 / max.
#[test]
fn every_unlinked_target_is_reclaimed_under_table_loss() {
    schedule::each(|schedule| {
        for s in [5, 20] {
            for drop in [0.1, 0.3] {
                let mut latencies = Vec::new();
                let mut left = 0;
                for seed in 1..=20 {
                    let (l, n) = unlink_latencies(seed, s, drop, schedule);
                    latencies.extend(l);
                    left += n;
                }
                latencies.sort_unstable();
                // Nearest rank.
                let q = |p: f64| latencies[(p * latencies.len() as f64).ceil() as usize - 1];
                let (p50, p99) = (q(0.5), q(0.99));
                let max = latencies[latencies.len() - 1];
                let pct = drop * 100.0;
                eprintln!(
                    "s = {s}, drop {pct:.0} %: p50 {p50} / p99 {p99} / max {max}, left {left}"
                );
                assert_eq!(left, 0, "s = {s}, drop {pct:.0} %: targets left at n1");
                if s == 20 && schedule == Schedule::Due {
                    let bound = if drop < 0.2 { 21 } else { 61 };
                    assert!(p99 <= bound, "s = 20, drop {pct:.0} %: p99 {p99} > {bound}");
                }
            }
        }
    });
}

/// Duplication idempotency properties. The chaos plane duplicates messages
/// on the classes [`MsgClass::is_idempotent`] admits — cleaner reports
/// (stub-tables) and the relocation records that ride them — so these
/// properties pin the contract that makes that safe: delivering the same
/// payload N times must be observationally identical to delivering it once.
mod duplication_properties {
    use super::*;
    use bmx_repro::dsm::Relocation;
    use bmx_repro::gc::integration;
    use proptest::prelude::*;

    /// Outcome of a report-delivery scenario, compared across duplication
    /// factors: scion population at the target, objects reclaimed there,
    /// and every live target's payload.
    #[derive(Debug, PartialEq)]
    struct ReportOutcome {
        scions: usize,
        reclaimed: u64,
        payloads: Vec<u64>,
    }

    /// Cross-bunch graph: `live` rooted references and `dead` detached ones
    /// from node 0's bunch into node 1's; the same epoch's report is
    /// delivered `deliveries` times before the target collects.
    fn run_report_scenario(live: usize, dead: usize, deliveries: usize) -> ReportOutcome {
        let mut c = Cluster::new(ClusterConfig::with_nodes(2));
        let (n1, n2) = (n(0), n(1));
        let b1 = c.create_bunch(n1).unwrap();
        let b2 = c.create_bunch(n2).unwrap();
        let mut targets = Vec::new();
        for i in 0..(live + dead) {
            let src = c.alloc(n1, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
            let tgt = c.alloc(n2, b2, &ObjSpec::data(1)).unwrap();
            c.write_data(n2, tgt, 0, 1000 + i as u64).unwrap();
            c.add_root(n1, src);
            c.write_ref(n1, src, 0, tgt).unwrap();
            if i >= live {
                c.write_ref(n1, src, 0, Addr::NULL).unwrap();
            } else {
                targets.push(tgt);
            }
        }
        c.run_bgc(n1, b1).unwrap();
        for _ in 1..deliveries {
            send_table_again(&mut c, n1, b1, n2);
        }
        let s = c.run_bgc(n2, b2).unwrap();
        ReportOutcome {
            scions: c
                .gc
                .node(n2)
                .bunch(b2)
                .map_or(0, |b| b.scion_table.inter().len()),
            reclaimed: s.reclaimed,
            payloads: targets
                .iter()
                .map(|&t| c.read_data(n2, t, 0).unwrap())
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Cleaner reports: N deliveries of one epoch's table ≡ one
        /// delivery — same scions, same reclamation, same survivors.
        #[test]
        fn reports_are_idempotent_under_n_fold_duplication(
            live in 1usize..5,
            dead in 0usize..5,
            dups in 2usize..8,
        ) {
            let once = run_report_scenario(live, dead, 1);
            prop_assert_eq!(once.reclaimed, dead as u64);
            let many = run_report_scenario(live, dead, dups);
            prop_assert_eq!(once, many);
        }

        /// Location updates: re-applying one relocation batch N times at a
        /// replica leaves the directory, the forwarding chain, and every
        /// payload exactly as one application does.
        #[test]
        fn relocations_are_idempotent_under_n_fold_duplication(
            objs in 1usize..6,
            garbage in 1usize..8,
            dups in 2usize..8,
        ) {
            let mut c = Cluster::new(ClusterConfig::with_nodes(2));
            let (n1, n2) = (n(0), n(1));
            let b = c.create_bunch(n1).unwrap();
            let mut tracked = Vec::new();
            for i in 0..objs {
                // Garbage padding in front forces the survivors to move.
                for _ in 0..garbage {
                    c.alloc(n1, b, &ObjSpec::data(2)).unwrap();
                }
                let o = c.alloc(n1, b, &ObjSpec::data(1)).unwrap();
                c.write_data(n1, o, 0, 2000 + i as u64).unwrap();
                c.add_root(n1, o);
                tracked.push(o);
            }
            c.map_bunch(n2, b, n1).unwrap();
            let oids: Vec<_> =
                tracked.iter().map(|&o| c.oid_at_local(n1, o).unwrap()).collect();
            c.run_bgc(n1, b).unwrap();
            let batch: Vec<Relocation> = tracked
                .iter()
                .zip(&oids)
                .filter_map(|(&old, &oid)| {
                    let to = c.gc.node(n1).directory.resolve(old);
                    (to != old).then_some(Relocation { oid, from: old, to })
                })
                .collect();
            prop_assert!(!batch.is_empty(), "the collection moved something");

            let snapshot = |c: &Cluster| -> Vec<(Addr, u64)> {
                tracked
                    .iter()
                    .map(|&old| {
                        let cur = c.gc.node(n2).directory.resolve(old);
                        (cur, c.read_data(n2, old, 0).unwrap())
                    })
                    .collect()
            };
            integration::apply_relocations_at(&mut c.gc, n2, &batch, &mut c.mems);
            let once = snapshot(&c);
            for _ in 1..dups {
                integration::apply_relocations_at(&mut c.gc, n2, &batch, &mut c.mems);
            }
            prop_assert_eq!(once, snapshot(&c));
            for (i, &old) in tracked.iter().enumerate() {
                prop_assert_eq!(c.read_data(n2, old, 0).unwrap(), 2000 + i as u64);
            }
        }
    }
}
