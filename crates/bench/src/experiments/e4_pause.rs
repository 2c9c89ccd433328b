//! E4 — collection pause versus heap size (Section 3: "it would therefore
//! not be feasible to collect all objects of an application at the same
//! time"; Section 4.1's flip-time motivation).
//!
//! The heap grows as more bunches are added, each of fixed size. The
//! mutator-visible pause of the paper's design is the collection of *one*
//! bunch, independent of total heap size; the monolithic baseline (collect
//! the entire locally mapped space at once, as whole-address-space
//! collectors must) pauses proportionally to the whole heap.

use std::time::Instant;

use bmx_common::NodeId;

use crate::fixtures;
use crate::table::Table;

/// One measured heap size.
#[derive(Clone, Debug)]
pub struct Row {
    /// Bunches in the heap.
    pub bunches: usize,
    /// Total live objects.
    pub heap_objects: usize,
    /// Pause of one per-bunch collection, microseconds.
    pub per_bunch_us: u128,
    /// Pause of the monolithic whole-heap collection, microseconds.
    pub whole_heap_us: u128,
}

/// Objects per bunch.
pub const OBJECTS_PER_BUNCH: usize = 150;

/// Runs the sweep over bunch counts.
pub fn run(bunch_counts: &[usize]) -> Vec<Row> {
    bunch_counts
        .iter()
        .map(|&k| {
            // Per-bunch pause.
            let (mut cluster, ids) =
                fixtures::multi_bunch_heap(k, OBJECTS_PER_BUNCH).expect("heap");
            let t0 = Instant::now();
            cluster.run_bgc(NodeId(0), ids[0]).expect("bgc");
            let per_bunch_us = t0.elapsed().as_micros();

            // Whole-heap pause on a fresh identical heap.
            let (mut cluster, _ids) =
                fixtures::multi_bunch_heap(k, OBJECTS_PER_BUNCH).expect("heap");
            let t0 = Instant::now();
            cluster.run_ggc(NodeId(0)).expect("ggc");
            let whole_heap_us = t0.elapsed().as_micros();

            Row {
                bunches: k,
                heap_objects: k * OBJECTS_PER_BUNCH,
                per_bunch_us,
                whole_heap_us,
            }
        })
        .collect()
}

/// Renders the table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E4: collection pause vs heap size (150 objects per bunch)",
        &["bunches", "heap_objs", "per_bunch_us", "whole_heap_us"],
    )
    .wall_clock(&["per_bunch_us", "whole_heap_us"]);
    for r in rows {
        t.row(vec![
            r.bunches.to_string(),
            r.heap_objects.to_string(),
            r.per_bunch_us.to_string(),
            r.whole_heap_us.to_string(),
        ]);
    }
    t
}

/// E4b — the flip pause of the incremental collector (Section 4.1: "the
/// time to flip is very small and therefore not disruptive").
#[derive(Clone, Debug)]
pub struct FlipRow {
    /// Objects in the collected bunch.
    pub objects: usize,
    /// Monolithic collection pause, microseconds.
    pub monolithic_us: u128,
    /// Incremental steps taken (each interleaved with mutator work).
    pub steps: u64,
    /// Flip pause, microseconds — the only mutator-visible stop.
    pub flip_us: u128,
}

/// Runs the flip-pause sweep over bunch populations.
pub fn run_flip(populations: &[usize]) -> Vec<FlipRow> {
    use bmx_common::NodeId;
    populations
        .iter()
        .map(|&objects| {
            let n0 = NodeId(0);
            // Monolithic pause.
            let mut fx = crate::fixtures::replicated_list(1, objects).expect("fixture");
            let t0 = Instant::now();
            fx.cluster.run_bgc(n0, fx.bunch).expect("bgc");
            let monolithic_us = t0.elapsed().as_micros();

            // Incremental: steps interleaved with payload mutation, then
            // the flip is timed alone.
            let mut fx = crate::fixtures::replicated_list(1, objects).expect("fixture");
            let mut steps = 0;
            loop {
                let ready = fx.cluster.incremental_active(n0);
                if !ready {
                    fx.cluster
                        .start_incremental(n0, &[fx.bunch])
                        .expect("start");
                }
                let done = fx.cluster.incremental_step(n0, 16).expect("step");
                steps += 1;
                // Interleaved mutator work.
                let cell = fx.list.cells[steps as usize % objects];
                fx.cluster
                    .write_data(n0, cell, bmx_workloads::lists::PAYLOAD, steps)
                    .expect("mutate");
                if done {
                    break;
                }
            }
            let t0 = Instant::now();
            fx.cluster.incremental_flip(n0).expect("flip");
            let flip_us = t0.elapsed().as_micros();
            FlipRow {
                objects,
                monolithic_us,
                steps,
                flip_us,
            }
        })
        .collect()
}

/// Renders the E4b table.
pub fn flip_table(rows: &[FlipRow]) -> Table {
    let mut t = Table::new(
        "E4b: incremental flip pause vs monolithic pause",
        &["objects", "monolithic_us", "steps", "flip_us"],
    )
    .wall_clock(&["monolithic_us", "flip_us"]);
    for r in rows {
        t.row(vec![
            r.objects.to_string(),
            r.monolithic_us.to_string(),
            r.steps.to_string(),
            r.flip_us.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_much_shorter_than_the_monolithic_pause() {
        // Timing under a fully loaded test runner is noisy: take the best
        // of three runs for each side before comparing.
        let runs: Vec<FlipRow> = (0..3).map(|_| run_flip(&[400]).remove(0)).collect();
        let steps = runs.iter().map(|r| r.steps).max().unwrap();
        let flip = runs.iter().map(|r| r.flip_us).min().unwrap();
        let mono = runs.iter().map(|r| r.monolithic_us).min().unwrap();
        assert!(steps > 10, "the work really was spread over increments");
        assert!(
            flip * 2 < mono.max(30),
            "the flip must be a small fraction of the monolithic pause: flip={flip}us mono={mono}us"
        );
    }

    #[test]
    fn per_bunch_pause_does_not_track_heap_size() {
        let rows = run(&[1, 8]);
        let small = &rows[0];
        let large = &rows[1];
        // The whole-heap pause grows roughly with the heap; the per-bunch
        // pause must not. Allow generous noise margins: per-bunch pause at
        // 8x heap must stay well under half the growth the monolith shows.
        assert!(
            large.whole_heap_us > small.whole_heap_us,
            "monolithic pause should grow: {small:?} {large:?}"
        );
        assert!(
            large.per_bunch_us * 2 < large.whole_heap_us,
            "per-bunch pause must not track the heap: {large:?}"
        );
    }
}
