//! What the benchmark runs and reports: workload names, metric names and
//! units, and the run sizes. `BENCHMARK.json` at the repo root lists the
//! same names; `tests/smoke.rs` checks the two agree.

use std::collections::BTreeMap;

/// Metric name -> measured value. A per-layer metric with no entry had no
/// samples on that workload and is reported as 0.
pub type Metrics = BTreeMap<&'static str, f64>;

pub const WORKLOADS: [&str; 6] = [
    "private_par",
    "contended_par",
    "readmostly_par",
    "gc_interference_par",
    "gc_churn_sim",
    "persist_recover_sim",
];

/// End-to-end metrics: measured with tracing off, reported by every
/// workload, never 0. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: traced pass only. `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 66] = [
    // What a user sees, but absent from some workloads or too unsteady on
    // the real-thread ones to carry a regression bound (README, "Why only
    // three end-to-end metrics").
    ("bgc_pause_ms", "ms"),
    ("acquire_p50_us", "us"),
    ("stall_per_gc_us", "us"),
    ("round_ms", "ms"),
    ("recovery_ms", "ms"),
    // Layer budget: the same increment at each depth, single-threaded.
    ("addr.word_rw_ns", "ns"),
    ("dsm.lock_unlock_ns", "ns"),
    ("mutator.acquire_ns", "ns"),
    ("mutator.read_ns", "ns"),
    ("mutator.write_ns", "ns"),
    ("mutator.release_ns", "ns"),
    ("mutator.incr_ns", "ns"),
    ("parallel.acquire_ns", "ns"),
    ("parallel.read_ns", "ns"),
    ("parallel.write_ns", "ns"),
    ("parallel.release_ns", "ns"),
    ("parallel.incr_ns", "ns"),
    ("parallel.vs_sim_ratio", "ratio"),
    ("parallel.scaling_2h", "ratio"),
    ("mutator.remote_acquire_ns", "ns"),
    ("net.send_deliver_ns", "ns"),
    ("net.transport_rtt_ns", "ns"),
    ("mutator.alloc_ns", "ns"),
    ("gc.barrier_intra_ns", "ns"),
    ("gc.barrier_inter_ns", "ns"),
    ("rvm.commit_us_per_kb", "us/KB"),
    // Spans and counts of the workload itself.
    ("parallel.block_share", "ratio"),
    ("parallel.acquire_local_p50_ns", "ns"),
    ("parallel.acquire_block_p99_us", "us"),
    ("parallel.release_p50_ns", "ns"),
    ("parallel.lost_updates", "count"),
    ("parallel.solo_ratio", "ratio"),
    ("parallel.stall_p90_us", "us"),
    ("dsm.envelopes_per_op", "ratio"),
    ("dsm.logical_msgs_per_op", "ratio"),
    ("dsm.image_words_per_op", "ratio"),
    ("dsm.invalidations_per_write", "ratio"),
    ("net.bytes_per_op", "B"),
    ("net.envelopes", "count"),
    ("net.bytes", "B"),
    ("gc.schedule_late_ms", "ms"),
    ("gc.reuse_p50_ms", "ms"),
    ("gc.mutate_ms", "ms"),
    ("gc.bgc_ms", "ms"),
    ("gc.ggc_ms", "ms"),
    ("gc.reuse_ms", "ms"),
    ("gc.bgc_us_per_live_obj", "us"),
    ("gc.pause_growth", "ratio"),
    ("gc.reuse_growth", "ratio"),
    ("gc.copied_words", "words"),
    ("gc.scanned_objs", "count"),
    ("gc.reclaimed_objs", "count"),
    ("gc.reclaimed_words", "words"),
    ("gc.msgs_per_reclaimed", "ratio"),
    ("gc.piggybacked_relocs", "count"),
    ("gc.explicit_reloc_msgs", "count"),
    ("gc.barrier_slow_share", "ratio"),
    ("gc.token_acquires", "count"),
    ("gc.audit_findings", "count"),
    ("rvm.bytes_per_live_byte", "ratio"),
    ("rvm.log_records", "count"),
    ("rvm.replay_ms", "ms"),
    ("persist.checkpoint_share", "ratio"),
    ("recovery.rejoin_ticks", "ticks"),
    ("recovery.objects_recovered", "count"),
    ("trace.overhead_share", "ratio"),
];

/// An acquire that took at least this long blocked (E13's definition):
/// it waited for a remote grant or for the runtime's lock.
pub const BLOCKING_NS: u64 = 2_000;

/// Load is fixed, not scaled with the host, so numbers stay comparable.
pub const PAR_NODES: u32 = 2;
pub const SIM_NODES: u32 = 3;
/// Rooted counter objects per node (`private_par`) or shared
/// (`readmostly_par`).
pub const OBJECTS: usize = 64;
/// Shared objects under write contention (`contended_par`, E13's shape).
pub const CONTENDED_OBJECTS: usize = 4;
/// One op in this many is a write on `readmostly_par`.
pub const WRITE_ONE_IN: u64 = 16;
/// The design-database graph: assemblies x parts per assembly.
pub const DB_ASSEMBLIES: usize = 20;
pub const DB_PARTS: usize = 40;
/// Registry-churn allocations per collector cycle / sim round.
pub const CHURN_ALLOCS: usize = 200;
/// Increments per sim round.
pub const ROUND_INCREMENTS: usize = 32;

/// How much one invocation runs.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Parallel workloads: warm-up before the window, seconds.
    pub warm_s: f64,
    /// Length of one throughput slice, seconds.
    pub slice_s: f64,
    /// Slices in the measured window.
    pub slices: usize,
    /// Traced pass only: untraced slices run before the traced window,
    /// the base of `trace.overhead_share`.
    pub reference_slices: usize,
    /// Collector period on `gc_interference_par`, and the grid on which
    /// every parallel workload takes its longest op, milliseconds.
    pub cycle_ms: u64,
    /// Times a parallel workload is set up (the last one is measured).
    pub setups: usize,
    /// Rounds per repetition.
    pub churn_rounds: usize,
    pub persist_rounds: usize,
    /// Sim workloads first run `warmup_reps` repetitions that are checked
    /// but not measured, then repeat from fresh state until this many
    /// seconds of rounds were measured, and at least `min_reps` times.
    pub warmup_reps: usize,
    pub sim_budget_s: f64,
    pub min_reps: usize,
    /// Divides the layer budget's iteration counts (1 = full size).
    pub budget_divisor: u64,
}

impl Sizes {
    pub fn full(seconds: u64) -> Sizes {
        Sizes {
            warm_s: 1.0,
            slice_s: 0.5,
            slices: (seconds * 2).max(2) as usize,
            reference_slices: 4,
            cycle_ms: 50,
            setups: 31,
            churn_rounds: 120,
            // The last round (59) ends in a group collection at the
            // recovery victim, so its checkpoint is current when it crashes.
            persist_rounds: 60,
            warmup_reps: 1,
            sim_budget_s: seconds as f64,
            min_reps: 2,
            budget_divisor: 1,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            warm_s: 0.05,
            slice_s: 0.05,
            slices: 4,
            reference_slices: 2,
            cycle_ms: 10,
            setups: 2,
            churn_rounds: 10,
            persist_rounds: 9,
            warmup_reps: 0,
            sim_budget_s: 0.0,
            min_reps: 2,
            budget_divisor: 200,
        }
    }
}
