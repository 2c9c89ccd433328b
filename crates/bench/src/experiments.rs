//! The experiment drivers (DESIGN.md index E1–E12).

use crate::table::Table;

pub mod e10_fromspace;
pub mod e11_consistency;
pub mod e12_hot_paths;
pub mod e1_replication;
pub mod e2_interference;
pub mod e3_piggyback;
pub mod e4_pause;
pub mod e5_message_loss;
pub mod e6_ssp_ablation;
pub mod e7_cycles;
pub mod e8_barrier;
pub mod e9_recovery;

/// Runs the experiments `want` selects (by lower-case name, `"e1"` …
/// `"e12"`) with the parameters of the committed tables, in index order.
/// The `tables` binary and the committed-tables test both call this, so
/// the parameter lists exist once.
pub fn run(want: impl Fn(&str) -> bool) -> Vec<Table> {
    let mut tables = Vec::new();
    if want("e1") {
        let rows = e1_replication::run(&[1, 2, 4, 8, 16]);
        tables.push(e1_replication::table(&rows));
    }
    if want("e2") {
        let mut rows = Vec::new();
        for readers in [1, 2, 4, 8] {
            rows.extend(e2_interference::run(readers));
        }
        tables.push(e2_interference::table(&rows));
    }
    if want("e3") {
        let mut rows = Vec::new();
        for synced in [10, 50, 100] {
            rows.extend(e3_piggyback::run(synced));
        }
        tables.push(e3_piggyback::table(&rows));
    }
    if want("e4") {
        let rows = e4_pause::run(&[1, 2, 4, 8, 16, 32]);
        tables.push(e4_pause::table(&rows));
        let rows = e4_pause::run_flip(&[100, 400, 1600]);
        tables.push(e4_pause::flip_table(&rows));
    }
    if want("e5") {
        let rows = e5_message_loss::run(&[0.0, 0.1, 0.3, 0.5]);
        tables.push(e5_message_loss::table(&rows));
    }
    if want("e6") {
        let rows = e6_ssp_ablation::run(&[0, 1, 2, 4, 8]);
        tables.push(e6_ssp_ablation::table(&rows));
    }
    if want("e7") {
        let rows = e7_cycles::run(&[2, 4, 8, 16, 32]);
        tables.push(e7_cycles::table(&rows));
    }
    if want("e8") {
        let rows = e8_barrier::run();
        tables.push(e8_barrier::table(&rows));
    }
    if want("e9") {
        let rows = e9_recovery::run(&[(2, 4), (4, 8), (8, 16), (16, 16)]);
        tables.push(e9_recovery::table(&rows));
        let rows = e9_recovery::run_rejoin(&[(2, 4), (4, 8), (8, 16)]);
        tables.push(e9_recovery::rejoin_table(&rows));
    }
    if want("e10") {
        let rows = e10_fromspace::run(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        tables.push(e10_fromspace::table(&rows));
    }
    if want("e11") {
        let rows = e11_consistency::run();
        tables.push(e11_consistency::table(&rows));
    }
    if want("e12") {
        let rows = e12_hot_paths::run();
        tables.push(e12_hot_paths::table(&rows));
    }
    tables
}
