//! Regenerates every evaluation table (experiments E1–E12).
//!
//! Usage: `cargo run --release -p bmx-bench --bin tables [e1 e2 ...]`
//! (no arguments = all experiments). A full run rewrites both
//! `tables_output.txt` (every column, human-readable) and
//! `BENCH_tables.json` (the deterministic columns only) in the current
//! directory — run it from the repository root; a partial run only prints.
//! `cargo test -p bmx-bench` fails when the committed `BENCH_tables.json`
//! is not byte for byte what this binary would write.

#![forbid(unsafe_code)]

use bmx_bench::{experiments, table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = experiments::run(|name| args.is_empty() || args.iter().any(|a| a == name));

    let mut text = String::new();
    for t in &tables {
        text.push_str(&t.render());
    }
    print!("{text}");

    // A full run refreshes the committed artifacts; a subset run would
    // silently drop the other experiments' tables, so it only prints.
    if args.is_empty() {
        std::fs::write("tables_output.txt", &text).expect("write tables_output.txt");
        std::fs::write("BENCH_tables.json", table::document_json(&tables))
            .expect("write BENCH_tables.json");
    }
}
