//! E8 — write-barrier cost (Sections 3.2 and 8: every write is
//! instrumented; inter-bunch stores take the SSP-creating slow path).
//!
//! Measures the time per store for plain data stores (no barrier
//! bookkeeping), intra-bunch pointer stores (fast path), and inter-bunch
//! pointer stores (slow path; the first store per source/target pair
//! creates the SSP, repeats deduplicate).

use std::time::Instant;

use bmx::{Cluster, ClusterConfig, ObjSpec};
use bmx_common::{NodeId, StatKind};

use crate::table::Table;

/// One measured store kind.
#[derive(Clone, Debug)]
pub struct Row {
    /// Store kind.
    pub kind: &'static str,
    /// Stores performed.
    pub stores: u64,
    /// Nanoseconds per store.
    pub ns_per_store: u128,
    /// Barrier fast paths taken.
    pub fast_paths: u64,
    /// Barrier slow paths taken.
    pub slow_paths: u64,
}

/// Stores per measurement.
pub const STORES: u64 = 5_000;

/// Runs all three store kinds.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    // Shared fixture: two bunches at one node.
    let mut c = Cluster::new(ClusterConfig {
        segment_words: 1 << 16,
        ..ClusterConfig::with_nodes(1)
    });
    let n0 = NodeId(0);
    let b1 = c.create_bunch(n0).expect("bunch");
    let b2 = c.create_bunch(n0).expect("bunch");
    let src = c
        .alloc(n0, b1, &ObjSpec::with_refs(4, &[0, 1]))
        .expect("src");
    let same = c
        .alloc(n0, b1, &ObjSpec::data(1))
        .expect("same-bunch target");
    let other = c
        .alloc(n0, b2, &ObjSpec::data(1))
        .expect("other-bunch target");

    // Plain data stores.
    let t0 = Instant::now();
    for i in 0..STORES {
        c.write_data(n0, src, 2, i).expect("data store");
    }
    let data_ns = t0.elapsed().as_nanos() / STORES as u128;
    rows.push(Row {
        kind: "data",
        stores: STORES,
        ns_per_store: data_ns,
        fast_paths: 0,
        slow_paths: 0,
    });

    // Intra-bunch pointer stores (barrier fast path).
    let before = c.stats[0].clone();
    let t0 = Instant::now();
    for _ in 0..STORES {
        c.write_ref(n0, src, 0, same).expect("intra store");
    }
    let intra_ns = t0.elapsed().as_nanos() / STORES as u128;
    rows.push(Row {
        kind: "ref intra-bunch",
        stores: STORES,
        ns_per_store: intra_ns,
        fast_paths: c.stats[0].get(StatKind::BarrierFastPaths)
            - before.get(StatKind::BarrierFastPaths),
        slow_paths: c.stats[0].get(StatKind::BarrierSlowPaths)
            - before.get(StatKind::BarrierSlowPaths),
    });

    // Inter-bunch pointer stores (slow path; SSP created once, then
    // deduplicated).
    let before = c.stats[0].clone();
    let t0 = Instant::now();
    for _ in 0..STORES {
        c.write_ref(n0, src, 1, other).expect("inter store");
    }
    let inter_ns = t0.elapsed().as_nanos() / STORES as u128;
    rows.push(Row {
        kind: "ref inter-bunch",
        stores: STORES,
        ns_per_store: inter_ns,
        fast_paths: c.stats[0].get(StatKind::BarrierFastPaths)
            - before.get(StatKind::BarrierFastPaths),
        slow_paths: c.stats[0].get(StatKind::BarrierSlowPaths)
            - before.get(StatKind::BarrierSlowPaths),
    });
    rows
}

/// Renders the table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E8: write-barrier cost per store (5000 stores each)",
        &["kind", "stores", "ns/store", "fast_paths", "slow_paths"],
    )
    .wall_clock(&["ns/store"]);
    for r in rows {
        t.row(vec![
            r.kind.to_string(),
            r.stores.to_string(),
            r.ns_per_store.to_string(),
            r.fast_paths.to_string(),
            r.slow_paths.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_paths_are_classified() {
        let rows = run();
        let intra = &rows[1];
        let inter = &rows[2];
        assert_eq!(intra.fast_paths, STORES);
        assert_eq!(intra.slow_paths, 0);
        assert_eq!(
            inter.slow_paths, STORES,
            "every inter-bunch store takes the slow path"
        );
    }
}
