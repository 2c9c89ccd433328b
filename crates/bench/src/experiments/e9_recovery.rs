//! E9 — RVM-backed persistence and crash recovery (Sections 2.1 and 8):
//! checkpoint a collected (hence compacted) bunch, crash, recover, verify.
//!
//! Two measurements. The single-node sweep ([`run`]) isolates the storage
//! substrate: checkpoint a compacted heap, drop everything volatile,
//! recover from disk alone. The live-rejoin sweep ([`run_rejoin`]) measures
//! the full crash-amnesia pipeline in a running 3-node cluster: a replica
//! holder crashes mid-workload, replays its RVM checkpoint, completes the
//! epoch-based rejoin handshake, and regenerates its scion/stub state from
//! peer reports — the latency a deployment actually observes.

use std::time::Instant;

use bmx::persist;
use bmx::{Cluster, ClusterConfig, PersistConfig};
use bmx_common::{Addr, BmxError, NodeId};
use bmx_net::{FaultPlan, NetworkConfig};
use bmx_rvm::{Rvm, RvmOptions};
use bmx_workloads::db;

use crate::table::Table;

/// One measured heap size.
#[derive(Clone, Debug)]
pub struct Row {
    /// Objects in the database graph.
    pub objects: usize,
    /// Bytes committed to the RVM log by the checkpoint.
    pub checkpoint_bytes: u64,
    /// Checkpoint wall time, microseconds.
    pub checkpoint_us: u128,
    /// Recovery wall time, microseconds.
    pub recover_us: u128,
    /// Parts verified intact after recovery.
    pub verified: usize,
}

/// Runs the sweep over database sizes (assemblies x parts).
pub fn run(sizes: &[(usize, usize)]) -> Vec<Row> {
    sizes
        .iter()
        .map(|&(assemblies, parts)| {
            let dir = std::env::temp_dir().join(format!(
                "bmx-e9-{}-{}-{}",
                std::process::id(),
                assemblies,
                parts
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let n0 = NodeId(0);
            let (graph, checkpoint_bytes, checkpoint_us) = {
                let mut c = Cluster::new(ClusterConfig {
                    // Small segments so the checkpoint grows with the heap.
                    segment_words: 1 << 10,
                    ..ClusterConfig::with_nodes(1)
                });
                let b = c.create_bunch(n0).expect("bunch");
                let graph = db::build_db(&mut c, n0, b, assemblies, parts).expect("db");
                c.add_root(n0, graph.module);
                // Persistence by reachability: collect first, so only live
                // objects reach the disk image.
                c.run_bgc(n0, b).expect("bgc");
                let mut rvm = Rvm::open(&dir, RvmOptions::default()).expect("rvm");
                let t0 = Instant::now();
                persist::checkpoint_bunch(&mut c, n0, b, &mut rvm).expect("checkpoint");
                (graph, rvm.log_bytes(), t0.elapsed().as_micros())
                // <- crash: everything volatile is dropped here
            };
            let mut c = Cluster::new(ClusterConfig {
                segment_words: 1 << 10,
                ..ClusterConfig::with_nodes(1)
            });
            let b = c.create_bunch(n0).expect("bunch");
            let mut rvm = Rvm::open(&dir, RvmOptions::default()).expect("rvm");
            let t0 = Instant::now();
            persist::recover_bunch(&mut c, n0, b, &mut rvm).expect("recover");
            let recover_us = t0.elapsed().as_micros();
            let verified = db::verify_db(&c, n0, &graph).expect("verify");
            Row {
                objects: graph.object_count(),
                checkpoint_bytes,
                checkpoint_us,
                recover_us,
                verified,
            }
        })
        .collect()
}

/// Renders the table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E9: checkpoint / crash / recover (design database)",
        &[
            "objects",
            "ckpt_bytes",
            "ckpt_us",
            "recover_us",
            "parts_verified",
        ],
    )
    .wall_clock(&["ckpt_us", "recover_us"]);
    for r in rows {
        t.row(vec![
            r.objects.to_string(),
            r.checkpoint_bytes.to_string(),
            r.checkpoint_us.to_string(),
            r.recover_us.to_string(),
            r.verified.to_string(),
        ]);
    }
    t
}

/// One measured live rejoin.
#[derive(Clone, Debug)]
pub struct RejoinRow {
    /// Objects in the shared database graph.
    pub objects: usize,
    /// Simulated ticks from restart to rejoin completion (handshake +
    /// scion/stub regeneration).
    pub rejoin_ticks: u64,
    /// Wall-clock microseconds of the RVM replay stage.
    pub replay_us: u64,
    /// Objects the victim reinstalled from its checkpoint.
    pub recovered: usize,
    /// Orphans re-homed to surviving replica holders.
    pub orphans: usize,
    /// Peer reports applied during scion/stub regeneration.
    pub reports: usize,
    /// Parts verified intact at the root holder after the rejoin.
    pub verified: usize,
}

/// Fault windows for the live-rejoin sweep (simulated ticks). Setup of the
/// largest graph must finish well before `CRASH_START`; the workload keeps
/// running through the outage and past the rejoin.
const CRASH_START: u64 = 6_000;
const CRASH_END: u64 = 6_400;
const RUN_UNTIL: u64 = 7_500;

/// The live-rejoin sweep: for each database size, a 3-node cluster replicates
/// the graph everywhere, ownership of a working set migrates continuously,
/// and the victim replica (which has been collecting — and therefore
/// checkpointing — the shared bunch in rotation) amnesia-crashes mid-workload.
/// The row reports the rejoin latency split into its simulated and measured
/// parts, straight from the cluster's recovery log.
pub fn run_rejoin(sizes: &[(usize, usize)]) -> Vec<RejoinRow> {
    sizes
        .iter()
        .map(|&(assemblies, parts)| {
            let dir = std::env::temp_dir().join(format!(
                "bmx-e9-rejoin-{}-{}-{}",
                std::process::id(),
                assemblies,
                parts
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
            let victim = n2;
            let mut net = NetworkConfig::lossless(1).with_fault(FaultPlan::none().crash_amnesia(
                victim,
                CRASH_START,
                CRASH_END,
            ));
            net.seed = 9;
            let mut c = Cluster::new(ClusterConfig {
                nodes: 3,
                net,
                persist: Some(PersistConfig {
                    dir: dir.clone(),
                    truncate_log_bytes: Some(1 << 18),
                }),
                ..Default::default()
            });

            let shared = c.create_bunch(n0).expect("bunch");
            let graph = db::build_db(&mut c, n0, shared, assemblies, parts).expect("db");
            c.add_root(n0, graph.module);
            c.map_bunch(n1, shared, n0).expect("map n1");
            c.map_bunch(n2, shared, n0).expect("map n2");
            // The working set whose ownership keeps moving: one part per
            // assembly, capped so round cost stays flat across sizes.
            let working: Vec<Addr> = graph
                .parts
                .iter()
                .filter_map(|ps| ps.first().copied())
                .take(8)
                .collect();
            assert!(
                c.net.now() < CRASH_START,
                "setup ran into the crash window (now = {})",
                c.net.now()
            );

            let mut round = 0usize;
            while c.net.now() < RUN_UNTIL {
                let up: Vec<NodeId> = (0..c.nodes())
                    .map(NodeId)
                    .filter(|&p| !c.net.is_down(p) && !c.in_recovery(p))
                    .collect();
                for (i, &obj) in working.iter().enumerate() {
                    let site = up[(round + i) % up.len()];
                    match c.acquire_write(site, obj) {
                        Ok(()) => c.release(site, obj).expect("release"),
                        Err(BmxError::WouldBlock { .. }) | Err(BmxError::OwnerUnknown { .. }) => {}
                        Err(e) => panic!("migration hop failed: {e}"),
                    }
                }
                // The shared bunch's collector rotates over the up nodes, so
                // the victim checkpoints it (post-BGC) before the crash.
                let collector = up[round % up.len()];
                if c.gc.node(collector).bunches.contains_key(&shared) {
                    c.run_bgc(collector, shared).expect("bgc");
                }
                c.step(150).expect("step");
                round += 1;
            }
            c.settle(5_000).expect("settle");

            let rec = c
                .recovery_log
                .iter()
                .find(|r| r.node == victim)
                .expect("the victim recovered exactly once")
                .clone();
            let verified = db::verify_db(&c, n0, &graph).expect("verify");
            let _ = std::fs::remove_dir_all(&dir);
            RejoinRow {
                objects: graph.object_count(),
                rejoin_ticks: rec.complete_tick - rec.restart_tick,
                replay_us: rec.replay_micros,
                recovered: rec.objects_recovered,
                orphans: rec.orphans_adopted,
                reports: rec.reports_applied,
                verified,
            }
        })
        .collect()
}

/// Renders the live-rejoin table.
pub fn rejoin_table(rows: &[RejoinRow]) -> Table {
    let mut t = Table::new(
        "E9b: live rejoin latency (amnesia crash mid-workload, 3 nodes)",
        &[
            "objects",
            "rejoin_ticks",
            "replay_us",
            "recovered",
            "orphans",
            "reports",
            "parts_verified",
        ],
    )
    // `rejoin_ticks` is simulated time and repeats exactly.
    .wall_clock(&["replay_us"]);
    for r in rows {
        t.row(vec![
            r.objects.to_string(),
            r.rejoin_ticks.to_string(),
            r.replay_us.to_string(),
            r.recovered.to_string(),
            r.orphans.to_string(),
            r.reports.to_string(),
            r.verified.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_restores_the_whole_graph() {
        let rows = run(&[(2, 4), (4, 8)]);
        assert_eq!(rows[0].verified, 8);
        assert_eq!(rows[1].verified, 32);
        assert!(rows[1].checkpoint_bytes > rows[0].checkpoint_bytes);
    }

    #[test]
    fn live_rejoin_measures_a_real_recovery() {
        let rows = run_rejoin(&[(2, 4)]);
        let r = &rows[0];
        assert_eq!(r.verified, 8, "the graph survived the crash");
        assert!(r.recovered > 0, "the checkpoint replay reinstalled objects");
        assert!(r.rejoin_ticks > 0, "the handshake took simulated time");
    }
}
