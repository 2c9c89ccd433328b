//! Counters the program already exposes (`Cluster::stats`,
//! `Network::class_stats`), read from outside and turned into per-layer
//! metrics. On the tick sim they repeat exactly for a given seed.

use bmx::Cluster;
use bmx_common::StatKind;
use bmx_net::MsgClass;

use crate::spec::Metrics;

/// All node counters summed over nodes, plus the network's class totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    stats: Vec<u64>,
    envelopes: u64,
    bytes: u64,
}

impl Snapshot {
    pub fn take(c: &Cluster) -> Snapshot {
        let per_class = MsgClass::ALL.map(|class| c.net.class_stats(class));
        Snapshot {
            stats: StatKind::ALL.iter().map(|&k| c.total_stat(k)).collect(),
            envelopes: per_class.iter().map(|s| s.sent).sum(),
            bytes: per_class.iter().map(|s| s.bytes).sum(),
        }
    }

    pub fn get(&self, kind: StatKind) -> u64 {
        StatKind::ALL
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.stats[i])
    }

    /// Counts since `earlier` (counters only grow).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            stats: self
                .stats
                .iter()
                .zip(&earlier.stats)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            envelopes: self.envelopes.saturating_sub(earlier.envelopes),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The count-based per-layer metrics of a measured interval in which the
/// load generators completed `ops` mutator operations.
pub fn layer_metrics(m: &mut Metrics, d: &Snapshot, ops: u64) {
    use StatKind::*;
    m.insert(
        "dsm.envelopes_per_op",
        ratio(d.get(DsmProtocolMessages), ops),
    );
    m.insert(
        "dsm.logical_msgs_per_op",
        ratio(d.get(DsmLogicalMessages), ops),
    );
    m.insert(
        "dsm.image_words_per_op",
        ratio(d.get(ImageWordsCopied), ops),
    );
    m.insert(
        "dsm.invalidations_per_write",
        ratio(d.get(Invalidations), d.get(MutatorWriteAcquires)),
    );
    m.insert("net.bytes_per_op", ratio(d.bytes, ops));
    m.insert("net.envelopes", d.envelopes as f64);
    m.insert("net.bytes", d.bytes as f64);
    m.insert("gc.copied_words", d.get(WordsCopied) as f64);
    m.insert("gc.scanned_objs", d.get(ObjectsScanned) as f64);
    m.insert("gc.reclaimed_objs", d.get(ObjectsReclaimed) as f64);
    m.insert("gc.reclaimed_words", d.get(WordsReclaimed) as f64);
    m.insert(
        "gc.msgs_per_reclaimed",
        ratio(
            d.get(StubTableMessages) + d.get(ScionMessages) + d.get(BackgroundGcMessages),
            d.get(ObjectsReclaimed),
        ),
    );
    m.insert(
        "gc.piggybacked_relocs",
        d.get(PiggybackedRelocations) as f64,
    );
    m.insert(
        "gc.explicit_reloc_msgs",
        d.get(ExplicitRelocationMessages) as f64,
    );
    m.insert(
        "gc.barrier_slow_share",
        ratio(
            d.get(BarrierSlowPaths),
            d.get(BarrierSlowPaths) + d.get(BarrierFastPaths),
        ),
    );
    m.insert("gc.token_acquires", d.get(GcTokenAcquires) as f64);
    m.insert("rvm.log_records", d.get(RvmLogRecords) as f64);
    // Bytes logged per byte the collector copied: how much fatter a
    // checkpoint is than the live data the collection just compacted.
    m.insert(
        "rvm.bytes_per_live_byte",
        ratio(d.get(RvmBytesLogged), 8 * d.get(WordsCopied)),
    );
}
