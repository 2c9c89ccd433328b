//! The experiment harness: the paper's deterministic reproduction.
//!
//! One module per experiment of DESIGN.md's index (E1–E12). Each `run`
//! function is deterministic in everything but its declared wall-clock
//! columns and returns printable rows; [`experiments::run`] strings them
//! together with the committed parameters for the `tables` binary (which
//! regenerates the evaluation tables recorded in EXPERIMENTS.md) and for
//! the test that holds `BENCH_tables.json` to them. Speed is measured by
//! the stand-alone `benchmark/` package, not here. The figure scenarios
//! F1–F4 live as integration tests (`tests/figure_scenarios.rs`) since
//! they are assertion-checked configurations rather than measurements.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fixtures;
pub mod table;

pub use table::Table;
