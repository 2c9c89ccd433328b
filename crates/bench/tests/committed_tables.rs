//! The tables gate: the committed `BENCH_tables.json` is byte for byte
//! what the experiments produce. It holds only deterministic columns, so
//! there is no tolerance: a counter that moves in either direction fails
//! here, and regenerating shows it as a one-line diff of the committed file.
//! The experiments run under the default `Schedule::Due` and read no
//! `SCHEDULE_SEEDS`: the committed counts are that one order's.

use bmx_bench::{experiments, table};

#[test]
fn committed_tables_match_a_fresh_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tables.json");
    let committed = std::fs::read_to_string(path).expect("read the committed BENCH_tables.json");
    let fresh = table::document_json(&experiments::run(|_| true));
    if committed == fresh {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let first = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(old.len());
    panic!(
        "BENCH_tables.json differs from a fresh run, first at line {}:\n  committed: {}\n  fresh:     {}\n\
         If the change is intended, regenerate from the repository root and commit the diff:\n  \
         cargo run --release -p bmx-bench --bin tables",
        first + 1,
        old.get(first).unwrap_or(&"<end of file>"),
        new.get(first).unwrap_or(&"<end of file>"),
    );
}
