//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON array format" understood by `chrome://tracing`
//! and Perfetto (<https://ui.perfetto.dev>): one process per node, one
//! thread per subsystem, every record an instant event (`"ph": "i"`) with
//! its causal stamps in `args`. The writer is hand-rolled on the
//! workspace's one JSON codec ([`bmx_common::json`]), whose reader is
//! re-exported here so tests can prove the export round-trips through a
//! real parse.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bmx_common::json::escape;
pub use bmx_common::json::{parse, validate_chrome_trace as validate, Json};

use crate::event::TraceRecord;

/// Microseconds per tick in the exported timestamps (a tick is a
/// simulated tick, or a supervisor pulse on the parallel runtime). The
/// events of one tick are spread evenly across it, in merged causal
/// order, so viewers don't stack them on a single instant however many
/// there are.
const US_PER_TICK: u64 = 1_000;

fn push_str_field(out: &mut String, key: &str, val: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape(val, out);
    out.push('"');
}

/// Render `records` as a Chrome-trace JSON array. The records are sorted
/// into the merged happens-before order first, so timestamps within a
/// tick respect causality.
pub fn export(records: &[TraceRecord]) -> String {
    let ordered = crate::query::merged_order(records);
    let mut out = String::with_capacity(ordered.len() * 160 + 256);
    out.push('[');
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    // Metadata: name each pid after its node and each tid after its
    // subsystem track.
    let mut named: Vec<(u32, &'static str)> = Vec::new();
    for rec in &ordered {
        let pid = rec.node.0;
        let tid_name = rec.event.subsystem();
        if !named.iter().any(|&(p, t)| p == pid && t == tid_name) {
            if !named.iter().any(|&(p, _)| p == pid) {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"node {pid}\"}}}}"
                );
            }
            let tid = tid_index(tid_name);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{tid_name}\"}}}}"
            );
            named.push((pid, tid_name));
        }
    }

    // Events: ts = tick in µs plus the record's share of the tick, by its
    // rank among the tick's records in merged order.
    let mut per_tick: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // (records, next rank)
    for rec in &ordered {
        per_tick.entry(rec.tick).or_default().0 += 1;
    }
    for rec in &ordered {
        let (count, rank) = per_tick.get_mut(&rec.tick).expect("counted above");
        let ts = rec.tick * US_PER_TICK + *rank * US_PER_TICK / *count;
        *rank += 1;
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{ts},\
             \"args\":{{\"lamport\":{},\"tick\":{},",
            rec.event.name(),
            rec.node.0,
            tid_index(rec.event.subsystem()),
            rec.lamport,
            rec.tick,
        );
        push_str_field(&mut out, "detail", &rec.event.to_string());
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

fn tid_index(subsystem: &str) -> u32 {
    match subsystem {
        "net" => 1,
        "dsm" => 2,
        "gc" => 3,
        "cleaner" => 4,
        "mutator" => 5,
        "fault" => 6,
        _ => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessMode, TraceEvent, TraceRecord};
    use bmx_common::{NodeId, Oid};

    fn rec(node: u32, tick: u64, lamport: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            node: NodeId(node),
            tick,
            lamport,
            seq,
            event: TraceEvent::AcquireStart {
                oid: Oid(9),
                mode: AccessMode::Write,
            },
        }
    }

    #[test]
    fn export_round_trips_through_a_parse() {
        let records = vec![rec(0, 1, 1, 1), rec(1, 1, 1, 2), rec(0, 2, 2, 3)];
        let json = export(&records);
        let n = validate(&json).expect("export must be valid JSON");
        assert_eq!(n, 3, "every record becomes one instant event");
    }

    #[test]
    fn a_crowded_tick_is_spread_not_piled_at_its_end() {
        // 3 000 records in one tick: more than the tick has microseconds.
        let records: Vec<_> = (1..=3_000).map(|i| rec(0, 7, i, i)).collect();
        let json = export(&records);
        let at = |ts: u64| json.matches(&format!("\"ts\":{ts},")).count();
        assert_eq!(at(7_000), 3, "three records share each microsecond");
        assert_eq!(at(7_999), 3, "the last one included");
        assert_eq!(at(8_000), 0, "and none spills into the next tick");
    }

    #[test]
    fn export_of_nothing_is_an_empty_array() {
        assert_eq!(validate(&export(&[])).unwrap(), 0);
    }
}
