//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON array format" understood by `chrome://tracing`
//! and Perfetto (<https://ui.perfetto.dev>): one process per node, one
//! thread per subsystem, every record an instant event (`"ph": "i"`) with
//! its causal stamps in `args`. It is written by the workspace's one
//! Chrome writer ([`ChromeTrace`]), whose reader is re-exported here so
//! tests can prove the export round-trips through a real parse.

use std::collections::BTreeMap;

pub use bmx_common::json::{parse, validate_chrome_trace as validate, Json};
use bmx_common::json::{Arg, ChromeTrace, Track};

use crate::event::TraceRecord;

/// Microseconds per tick in the exported timestamps (a tick is a
/// simulated tick, or a supervisor pulse on the parallel runtime). The
/// events of one tick are spread evenly across it, in merged causal
/// order, so viewers don't stack them on a single instant however many
/// there are.
const US_PER_TICK: u64 = 1_000;

/// Every subsystem's track, in tid order (tid = index + 1): each
/// [`TraceEvent::subsystem`](crate::TraceEvent::subsystem) has its own.
const TRACKS: [&str; 8] = [
    "net", "dsm", "gc", "cleaner", "mutator", "fault", "recovery", "metrics",
];

/// Render `records` as a Chrome-trace JSON array. The records are sorted
/// into the merged happens-before order first, so timestamps within a
/// tick respect causality.
pub fn export(records: &[TraceRecord]) -> String {
    let ordered = crate::query::merged_order(records);
    // ts = tick in µs plus the record's share of the tick, by its rank
    // among the tick's records in merged order.
    let mut per_tick: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // (records, next rank)
    for rec in &ordered {
        per_tick.entry(rec.tick).or_default().0 += 1;
    }
    let mut doc = ChromeTrace::default();
    for rec in &ordered {
        let (count, rank) = per_tick.get_mut(&rec.tick).expect("counted above");
        let ts = rec.tick * US_PER_TICK + *rank * US_PER_TICK / *count;
        *rank += 1;
        let thread = rec.event.subsystem();
        let track = TRACKS.iter().position(|&t| t == thread);
        let tid = track.expect("every subsystem has a track") as u64 + 1;
        let at = Track {
            pid: rec.node.0,
            tid,
            thread,
        };
        let detail = rec.event.to_string();
        // A derived `Debug` starts with the variant's name.
        let debug = format!("{:?}", rec.event);
        let name = debug.split(' ').next().unwrap_or_default();
        let args = [
            ("lamport", Arg::Num(rec.lamport)),
            ("tick", Arg::Num(rec.tick)),
            ("detail", Arg::Str(&detail)),
        ];
        doc.instant(at, name, ts, &args);
    }
    doc.finish()
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

    /// `recovery` and `metrics` once shared tid 7, which then carried two
    /// `thread_name` records and drew one subsystem's events under the
    /// other's label.
    #[test]
    fn each_subsystem_has_its_own_named_track() {
        use crate::event::AlarmKind;
        let mut alarm = rec(0, 2, 2, 2);
        alarm.event = TraceEvent::MetricAlarm {
            kind: AlarmKind::RetryStorm,
            value: 1,
            since_tick: 0,
            witness_lamport: 1,
        };
        let mut begin = rec(0, 1, 1, 1);
        begin.event = TraceEvent::RecoveryBegin { epoch: 1 };
        let Json::Arr(evs) = parse(&export(&[begin, alarm])).unwrap() else {
            panic!("not an array");
        };
        let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64);
        let text = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
        let mut names = BTreeMap::new();
        for e in evs
            .iter()
            .filter(|e| text(e, "name").as_deref() == Some("thread_name"))
        {
            let label = e.get("args").and_then(|a| text(a, "name"));
            let key = (num(e, "pid"), num(e, "tid"));
            assert!(names.insert(key, label).is_none(), "{key:?} named twice");
        }
        let track_of = |event: &str| {
            let e = evs
                .iter()
                .find(|e| text(e, "name").as_deref() == Some(event));
            let e = e.expect("event exported");
            names[&(num(e, "pid"), num(e, "tid"))].clone()
        };
        assert_eq!(track_of("RecoveryBegin").as_deref(), Some("recovery"));
        assert_eq!(track_of("MetricAlarm").as_deref(), Some("metrics"));
    }

    #[test]
    fn export_of_nothing_is_an_empty_array() {
        assert_eq!(validate(&export(&[])).unwrap(), 0);
    }
}
