//! E5 — message loss tolerance (Section 6.1): idempotent reachability
//! tables versus Bevan-style increment/decrement counting.
//!
//! For each drop rate, the BMX side runs a churn workload whose tables are
//! lost with that probability, then heals the channel and lets the clock
//! run until the target asks for the (idempotent) table again, and
//! measures: live objects lost (safety — must be zero) and garbage
//! still uncollected (liveness after recovery — must be zero). The
//! reference-counting baseline runs an equivalent event volume; its lost
//! inc/dec messages are unrecoverable, so counts corrupt.

use bmx::{Cluster, ClusterConfig, ObjSpec};
use bmx_baselines::refcount::RefCountSim;
use bmx_common::{Addr, NodeId};
use bmx_gc::RelocMode;
use bmx_net::{MsgClass, NetworkConfig};

use crate::table::Table;

/// One measured drop rate.
#[derive(Clone, Debug)]
pub struct Row {
    /// Probability each GC message is dropped.
    pub drop_rate: f64,
    /// BMX: tables dropped by the network during the run.
    pub bmx_tables_dropped: u64,
    /// BMX: live objects erroneously reclaimed (safety; must be 0).
    pub bmx_live_lost: u64,
    /// BMX: garbage still uncollected once the target asked again.
    pub bmx_garbage_left: u64,
    /// Refcount baseline: messages dropped.
    pub rc_dropped: u64,
    /// Refcount baseline: live objects whose count hit zero (unsafe).
    pub rc_unsafe: u64,
    /// Refcount baseline: permanently leaked objects.
    pub rc_leaks: u64,
}

/// Population per run.
const OBJECTS: usize = 40;

/// Runs the sweep.
pub fn run(drop_rates: &[f64]) -> Vec<Row> {
    drop_rates.iter().map(|&p| run_one(p)).collect()
}

fn run_one(p: f64) -> Row {
    // --- BMX side: cross-bunch references under table loss. -------------
    let cfg = ClusterConfig {
        nodes: 2,
        net: NetworkConfig::lossless(1).with_drop(MsgClass::StubTable, p),
        reloc_mode: RelocMode::Piggyback,
        ..Default::default()
    };
    let mut c = Cluster::new(cfg);
    let (n0, n1) = (NodeId(0), NodeId(1));
    let b_src = c.create_bunch(n0).expect("bunch");
    let b_tgt = c.create_bunch(n1).expect("bunch");
    // Half the targets will stay referenced, half become garbage.
    let holder = c
        .alloc(
            n0,
            b_src,
            &ObjSpec::with_refs(OBJECTS as u64, &(0..OBJECTS as u64).collect::<Vec<_>>()),
        )
        .expect("holder");
    c.add_root(n0, holder);
    let mut targets = Vec::new();
    for i in 0..OBJECTS {
        let t = c.alloc(n1, b_tgt, &ObjSpec::data(1)).expect("target");
        c.write_data(n1, t, 0, i as u64).expect("tag");
        c.write_ref(n0, holder, i as u64, t).expect("link");
        targets.push(t);
    }
    // Drop the odd-indexed references.
    for i in (1..OBJECTS).step_by(2) {
        c.write_ref(n0, holder, i as u64, Addr::NULL)
            .expect("unlink");
    }
    // Collections under loss: the source publishes tables (maybe eaten),
    // the target collects on whatever arrived.
    c.run_bgc(n0, b_src).expect("bgc src");
    c.run_bgc(n1, b_tgt).expect("bgc tgt");
    let dropped = c.net.class_stats(MsgClass::StubTable).dropped;
    // Recovery over a healed channel: the target's cleaner, hearing no
    // table, asks the source for its current one; then collect.
    c.net.set_drop(MsgClass::StubTable, 0.0);
    c.step(2 * bmx_gc::cleaner::PULL_SILENCE).expect("step");
    c.settle(100).expect("settle");
    c.run_bgc(n1, b_tgt).expect("bgc tgt after recovery");

    let mut live_lost = 0;
    let mut garbage_left = 0;
    for (i, &t) in targets.iter().enumerate() {
        let present = c.oid_at_local(n1, t).is_ok();
        if i % 2 == 0 {
            if !present {
                live_lost += 1;
            }
        } else if present {
            garbage_left += 1;
        }
    }

    // --- Reference-counting baseline at the same drop rate. -------------
    let mut sim = RefCountSim::new(OBJECTS as u64, 3, p, 0xE5);
    let rc = sim.run(OBJECTS as u64 * 40);

    Row {
        drop_rate: p,
        bmx_tables_dropped: dropped,
        bmx_live_lost: live_lost,
        bmx_garbage_left: garbage_left,
        rc_dropped: rc.dropped,
        rc_unsafe: rc.unsafe_reclaims,
        rc_leaks: rc.leaks,
    }
}

/// Renders the table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E5: GC traffic under message loss (tables+resend vs inc/dec counting)",
        &[
            "drop",
            "tbl_drop",
            "bmx_live_lost",
            "bmx_garbage_left",
            "rc_drop",
            "rc_unsafe",
            "rc_leak",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.0}%", r.drop_rate * 100.0),
            r.bmx_tables_dropped.to_string(),
            r.bmx_live_lost.to_string(),
            r.bmx_garbage_left.to_string(),
            r.rc_dropped.to_string(),
            r.rc_unsafe.to_string(),
            r.rc_leaks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_recover_where_counting_corrupts() {
        let rows = run(&[0.0, 0.5]);
        for r in &rows {
            assert_eq!(
                r.bmx_live_lost,
                0,
                "safety must hold at {:.0}%",
                r.drop_rate * 100.0
            );
            assert_eq!(
                r.bmx_garbage_left,
                0,
                "one re-send restores liveness at {:.0}%",
                r.drop_rate * 100.0
            );
        }
        assert_eq!(
            rows[0].rc_unsafe + rows[0].rc_leaks,
            0,
            "lossless counting is exact"
        );
        assert!(
            rows[1].rc_unsafe + rows[1].rc_leaks > 0,
            "lossy counting must corrupt: {:?}",
            rows[1]
        );
    }
}
