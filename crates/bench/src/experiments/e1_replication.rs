//! E1 — BGC cost versus replication degree (paper Section 8's cost goal:
//! "the cost of the BGC should be the same whether the bunch is replicated
//! or not").
//!
//! A bunch with a fixed object population is replicated on 1..=16 nodes,
//! every replica holding read tokens. One collection runs at the creator
//! under (a) the paper's BGC and (b) the token-acquiring strong baseline.
//! The BGC's time, token traffic and invalidations stay flat at zero
//! interference; the baseline's grow with the replication degree.

use std::time::Instant;

use bmx_baselines::strong_bgc;
use bmx_common::{NodeId, StatKind};

use crate::fixtures;
use crate::table::Table;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Nodes holding a replica.
    pub replicas: u32,
    /// BGC wall time, microseconds.
    pub bmx_us: u128,
    /// Tokens the BGC acquired (the claim: always zero).
    pub bmx_token_acquires: u64,
    /// Read replicas invalidated by the BGC (claim: zero).
    pub bmx_invalidations: u64,
    /// Strong-baseline wall time, microseconds.
    pub strong_us: u128,
    /// Tokens the baseline acquired.
    pub strong_token_acquires: u64,
    /// Read replicas the baseline invalidated.
    pub strong_invalidations: u64,
}

/// Objects in the collected bunch.
pub const OBJECTS: usize = 200;

/// Runs the sweep.
pub fn run(replica_counts: &[u32]) -> Vec<Row> {
    replica_counts
        .iter()
        .map(|&r| {
            // The paper's BGC.
            let mut fx = fixtures::replicated_list(r, OBJECTS).expect("fixture");
            fixtures::warm_readers(&mut fx).expect("warm");
            fixtures::make_garbage(&mut fx, OBJECTS / 4).expect("garbage");
            let before: Vec<_> = fx.cluster.stats.to_vec();
            let t0 = Instant::now();
            fx.cluster.run_bgc(NodeId(0), fx.bunch).expect("bgc");
            let bmx_us = t0.elapsed().as_micros();
            let bmx_token_acquires = total_delta(&fx.cluster, &before, StatKind::GcTokenAcquires);
            let bmx_invalidations = total_delta(&fx.cluster, &before, StatKind::GcInvalidations);

            // The strong baseline on an identical fixture.
            let mut fx = fixtures::replicated_list(r, OBJECTS).expect("fixture");
            fixtures::warm_readers(&mut fx).expect("warm");
            fixtures::make_garbage(&mut fx, OBJECTS / 4).expect("garbage");
            let before: Vec<_> = fx.cluster.stats.to_vec();
            let t0 = Instant::now();
            strong_bgc(&mut fx.cluster, NodeId(0), fx.bunch).expect("strong bgc");
            let strong_us = t0.elapsed().as_micros();
            let strong_token_acquires =
                total_delta(&fx.cluster, &before, StatKind::GcTokenAcquires);
            let strong_invalidations = total_delta(&fx.cluster, &before, StatKind::GcInvalidations);

            Row {
                replicas: r,
                bmx_us,
                bmx_token_acquires,
                bmx_invalidations,
                strong_us,
                strong_token_acquires,
                strong_invalidations,
            }
        })
        .collect()
}

fn total_delta(cluster: &bmx::Cluster, before: &[bmx_common::NodeStats], kind: StatKind) -> u64 {
    cluster
        .stats
        .iter()
        .zip(before)
        .map(|(now, then)| now.get(kind) - then.get(kind))
        .sum()
}

/// Renders the table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E1: BGC cost vs replication degree (200 live objects, 50 garbage)",
        &[
            "replicas",
            "bmx_us",
            "bmx_tok",
            "bmx_inval",
            "strong_us",
            "strong_tok",
            "strong_inval",
        ],
    )
    .wall_clock(&["bmx_us", "strong_us"]);
    for r in rows {
        t.row(vec![
            r.replicas.to_string(),
            r.bmx_us.to_string(),
            r.bmx_token_acquires.to_string(),
            r.bmx_invalidations.to_string(),
            r.strong_us.to_string(),
            r.strong_token_acquires.to_string(),
            r.strong_invalidations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_claim() {
        let rows = run(&[1, 4]);
        for r in &rows {
            assert_eq!(r.bmx_token_acquires, 0, "the BGC never acquires tokens");
            assert_eq!(r.bmx_invalidations, 0, "the BGC never invalidates");
        }
        // With replicas, the strong baseline pays tokens and invalidations.
        let with_replicas = &rows[1];
        assert!(with_replicas.strong_token_acquires > 0);
        assert!(with_replicas.strong_invalidations > 0);
    }
}
