//! E10 — the from-space reuse protocol (Section 4.5): explicit messages
//! are paid only when a segment is actually reclaimed, scaling with the
//! number of live non-owned residents, and the reclaimed segments are
//! released — unmapped everywhere and unknown to the server — so what stays
//! mapped is the live data's space, whatever the residency mix.

use bmx_common::{NodeId, StatKind};
use bmx_net::MsgClass;

use crate::fixtures;
use crate::table::Table;

/// One measured residency mix.
#[derive(Clone, Debug)]
pub struct Row {
    /// Fraction of the list owned by the remote node (stays resident in
    /// the initiator's from-space after its BGC).
    pub remote_fraction: f64,
    /// Background GC messages the reuse protocol exchanged.
    pub background_msgs: u64,
    /// Explicit relocation (retire) messages.
    pub retire_msgs: u64,
    /// Words of the released segments.
    pub words_reclaimed: u64,
    /// Whether reuse completed.
    pub completed: bool,
    /// Segments still mapped after the reuse, summed over both nodes.
    pub mapped_segments_after: usize,
    /// Segments the server still has registered after the reuse.
    pub server_segments_after: usize,
}

/// List size.
pub const OBJECTS: usize = 64;

/// Runs the sweep over remote-ownership fractions.
pub fn run(fractions: &[f64]) -> Vec<Row> {
    fractions
        .iter()
        .map(|&f| {
            let mut fx = fixtures::replicated_list(2, OBJECTS).expect("fixture");
            let (n0, n1) = (NodeId(0), NodeId(1));
            let remote = (OBJECTS as f64 * f) as usize;
            for &cell in fx.list.cells.iter().take(remote) {
                fx.cluster.acquire_write(n1, cell).expect("steal");
                fx.cluster.release(n1, cell).expect("release");
            }
            fx.cluster.run_bgc(n0, fx.bunch).expect("bgc");
            let bg_before = fx.cluster.net.class_stats(MsgClass::GcBackground).sent;
            let retire_before = fx.cluster.total_stat(StatKind::ExplicitRelocationMessages);
            let words_before = fx.cluster.stats[0].get(StatKind::WordsReclaimed);
            let completed = fx.cluster.reuse_from_space(n0, fx.bunch).expect("reuse");
            let server_segments_after = fx.cluster.server.borrow().segment_count();
            Row {
                remote_fraction: f,
                background_msgs: fx.cluster.net.class_stats(MsgClass::GcBackground).sent
                    - bg_before,
                retire_msgs: fx.cluster.total_stat(StatKind::ExplicitRelocationMessages)
                    - retire_before,
                words_reclaimed: fx.cluster.stats[0].get(StatKind::WordsReclaimed) - words_before,
                completed,
                mapped_segments_after: fx
                    .cluster
                    .mems
                    .iter()
                    .map(|m| m.mapped_segments().len())
                    .sum(),
                server_segments_after,
            }
        })
        .collect()
}

/// Renders the table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E10: from-space reuse protocol (64-cell list, 2 nodes)",
        &[
            "remote_frac",
            "bg_msgs",
            "retire_msgs",
            "words_reclaimed",
            "completed",
            "mapped_segments_after",
            "server_segments_after",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.0}%", r.remote_fraction * 100.0),
            r.background_msgs.to_string(),
            r.retire_msgs.to_string(),
            r.words_reclaimed.to_string(),
            r.completed.to_string(),
            r.mapped_segments_after.to_string(),
            r.server_segments_after.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_remote_residency() {
        let rows = run(&[0.0, 0.5]);
        assert!(rows.iter().all(|r| r.completed));
        assert!(rows.iter().all(|r| r.words_reclaimed > 0));
        assert!(
            rows[1].background_msgs >= rows[0].background_msgs,
            "more remote residents, more copy traffic: {rows:?}"
        );
    }

    #[test]
    fn released_segments_stay_neither_mapped_nor_registered() {
        // 64 three-word cells fit one segment: after the reuse each node
        // maps at most its own to-space and the other's, and the server
        // knows no more than those.
        for r in run(&[0.0, 0.5, 1.0]) {
            assert!(r.server_segments_after <= 2, "{r:?}");
            assert!(
                r.mapped_segments_after <= 2 * r.server_segments_after,
                "{r:?}"
            );
        }
    }
}
