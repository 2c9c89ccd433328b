//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON array format" understood by `chrome://tracing`
//! and Perfetto (<https://ui.perfetto.dev>): one process per node. A
//! causal event is an instant (`"ph": "i"`) on its subsystem's track,
//! with its causal stamps in `args`; a span is a duration (`"ph": "X"`)
//! on its recording thread's track, and spans sharing a nonzero flow id
//! are stitched with flow events (`"ph": "s"/"t"/"f"`), so a cross-node
//! acquire renders as one connected flow ("Flow events" toggle). It is
//! written by the workspace's one Chrome writer ([`ChromeTrace`]), whose
//! reader is re-exported here so tests can prove the export round-trips
//! through a real parse.

use std::collections::BTreeMap;

pub use bmx_common::json::{parse, validate_chrome_trace as validate, Json};
use bmx_common::json::{Arg, ChromeTrace, Track};

use crate::event::{TraceEvent, TraceRecord};

/// Microseconds per tick in the exported timestamps of a capture without
/// wall-clock stamps (a tick is a simulated tick, or a supervisor pulse
/// on the parallel runtime). The events of one tick are spread evenly
/// across it, in merged causal order, so viewers don't stack them on a
/// single instant however many there are.
const US_PER_TICK: u64 = 1_000;

/// Every subsystem's track, in tid order (tid = index + 1): each
/// [`TraceEvent::subsystem`](crate::TraceEvent::subsystem) but `span` has
/// its own. A span goes on its recording thread's track, after them.
const TRACKS: [&str; 8] = [
    "net", "dsm", "gc", "cleaner", "mutator", "fault", "recovery", "metrics",
];

/// Render `records` as a Chrome-trace JSON array, sorted into the merged
/// happens-before order first. The time base is the wall clock when every
/// record carries a stamp (the process-wide mode); otherwise the tick,
/// with a tick's records in causal order.
pub fn export(records: &[TraceRecord]) -> String {
    let ordered = crate::query::merged_order(records);
    let wall = ordered.iter().all(|r| r.wall_us.is_some());
    // ts = tick in µs plus the record's share of the tick, by its rank
    // among the tick's records in merged order.
    let mut per_tick: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // (records, next rank)
    for rec in &ordered {
        per_tick.entry(rec.tick).or_default().0 += 1;
    }
    let mut doc = ChromeTrace::default();
    // Track names by tid − 1: the subsystems', then recording threads'.
    let mut tracks: Vec<&str> = TRACKS.to_vec();
    // flow id -> (ts, track) of its spans, in encounter order.
    let mut flows: BTreeMap<u64, Vec<(u64, Track)>> = BTreeMap::new();
    for rec in &ordered {
        let (count, rank) = per_tick.get_mut(&rec.tick).expect("counted above");
        let ts = match rec.wall_us {
            Some(us) if wall => us,
            _ => rec.tick * US_PER_TICK + *rank * US_PER_TICK / *count,
        };
        *rank += 1;
        // A span's track is its thread's; a thread's name may repeat a
        // subsystem's, so it is looked up past them.
        let (first, thread) = match rec.event {
            TraceEvent::Span { .. } => (TRACKS.len(), rec.thread),
            _ => (0, rec.event.subsystem()),
        };
        let tid = match tracks[first..].iter().position(|&t| t == thread) {
            Some(i) => first + i + 1,
            None => {
                tracks.push(thread);
                tracks.len()
            }
        };
        let at = Track {
            pid: rec.node.0,
            tid: tid as u64,
            thread,
        };
        if let TraceEvent::Span { kind, dur_us, flow } = rec.event {
            let args = [("flow", Arg::Num(flow))];
            doc.duration(at, kind.name(), "span", ts, dur_us, &args);
            if flow != 0 {
                flows.entry(flow).or_default().push((ts, at));
            }
            continue;
        }
        // A derived `Debug` starts with the variant's name.
        let detail = format!("{:?}", rec.event);
        let name = detail.split(' ').next().unwrap_or_default();
        let args = [
            ("lamport", Arg::Num(rec.lamport)),
            ("tick", Arg::Num(rec.tick)),
            ("detail", Arg::Str(&detail)),
        ];
        doc.instant(at, name, ts, &args);
    }
    // Flow stitching: start at the earliest span, step through the rest,
    // finish at the last. Singleton flows have nothing to connect.
    for (&flow, points) in flows.iter_mut() {
        if points.len() < 2 {
            continue;
        }
        points.sort_by_key(|&(ts, _)| ts);
        let last = points.len() - 1;
        for (i, &(ts, at)) in points.iter().enumerate() {
            let ph = match i {
                0 => "s",
                i if i == last => "f",
                _ => "t",
            };
            doc.flow(at, "acquire-flow", flow, ph, ts);
        }
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessMode, SpanKind, TraceEvent, TraceRecord};
    use bmx_common::{NodeId, Oid};

    fn rec(node: u32, tick: u64, lamport: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            node: NodeId(node),
            thread: "",
            tick,
            lamport,
            seq,
            wall_us: None,
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
            kind: AlarmKind::ScionBacklog,
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

    fn events(text: &str) -> Vec<Json> {
        match parse(text).expect("parses") {
            Json::Arr(evs) => evs,
            other => panic!("top-level array missing: {other:?}"),
        }
    }

    fn field<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
        e.get(key).and_then(Json::as_str)
    }

    fn span(
        thread: &'static str,
        kind: SpanKind,
        node: u32,
        ts: u64,
        dur: u64,
        flow: u64,
    ) -> TraceRecord {
        TraceRecord {
            thread,
            wall_us: Some(ts),
            event: TraceEvent::Span {
                kind,
                dur_us: dur,
                flow,
            },
            ..rec(node, 0, 0, 0)
        }
    }

    /// Two threads' spans of flow 7, on two nodes.
    fn sample() -> Vec<TraceRecord> {
        let mutator = "bmx-mutator-1";
        vec![
            span(mutator, SpanKind::Acquire, 1, 100, 900, 7),
            span(mutator, SpanKind::AcquirePark, 1, 150, 600, 7),
            span(mutator, SpanKind::ReserveClaim, 1, 990, 0, 7),
            span("bmx-driver-0-g0", SpanKind::Apply, 0, 400, 50, 7),
        ]
    }

    #[test]
    fn export_round_trips_through_the_trace_parser() {
        let text = export(&sample());
        let n = validate(&text).expect("well-formed trace JSON");
        assert!(n >= 4, "at least the four duration events: {n}");
        let evs = events(&text);
        // All four spans present as "ph":"X" with real ts/dur.
        let xs: Vec<_> = evs.iter().filter(|e| field(e, "ph") == Some("X")).collect();
        assert_eq!(xs.len(), 4);
        let park = xs
            .iter()
            .find(|e| field(e, "name") == Some("acquire/park"))
            .expect("park span exported");
        assert_eq!(park.get("ts").and_then(Json::as_num), Some(150.0));
        assert_eq!(park.get("dur").and_then(Json::as_num), Some(600.0));
        assert_eq!(park.get("pid").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn threads_and_processes_are_named() {
        let evs = events(&export(&sample()));
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| field(e, "ph") == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| field(a, "name")))
            .collect();
        for want in ["node 0", "node 1", "bmx-mutator-1", "bmx-driver-0-g0"] {
            assert!(names.contains(&want), "{want:?} not named: {names:?}");
        }
    }

    #[test]
    fn flow_ids_stitch_across_pids() {
        let evs = events(&export(&sample()));
        let flow_evs: Vec<_> = evs
            .iter()
            .filter(|e| matches!(field(e, "ph"), Some("s") | Some("t") | Some("f")))
            .collect();
        // Four spans share flow 7 -> one "s", two "t", one "f".
        assert_eq!(flow_evs.len(), 4, "{flow_evs:?}");
        assert!(flow_evs
            .iter()
            .all(|e| e.get("id").and_then(Json::as_num) == Some(7.0)));
        let start = flow_evs
            .iter()
            .find(|e| field(e, "ph") == Some("s"))
            .expect("flow start");
        // Earliest span (ts 100, node 1) opens the flow.
        assert_eq!(start.get("ts").and_then(Json::as_num), Some(100.0));
        assert_eq!(start.get("pid").and_then(Json::as_num), Some(1.0));
        let finish = flow_evs
            .iter()
            .find(|e| field(e, "ph") == Some("f"))
            .expect("flow finish");
        assert_eq!(finish.get("ts").and_then(Json::as_num), Some(990.0));
        // Both pids participate: the flow crosses node boundaries.
        let pids: std::collections::BTreeSet<u64> = flow_evs
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_num))
            .map(|p| p as u64)
            .collect();
        assert!(pids.contains(&0) && pids.contains(&1), "{pids:?}");
    }

    #[test]
    fn singleton_flows_are_not_stitched() {
        let lone = span("t", SpanKind::Acquire, 0, 10, 5, 99);
        let evs = events(&export(&[lone]));
        assert!(evs.iter().all(|e| field(e, "ph") != Some("s")));
    }

    #[test]
    fn names_are_escaped() {
        let weird = span("weird\"name\\with\njunk", SpanKind::MutexHold, 0, 1, 1, 0);
        let text = export(&[weird]);
        validate(&text).expect("escaped name still parses");
    }

    /// A process-wide session in which two named threads record causal
    /// events and spans of one flow for two nodes; returns its export,
    /// the wall-clock window it was recorded in, and the flow.
    fn session_export() -> (String, std::ops::RangeInclusive<u64>, u64) {
        let _serial = crate::tests::serial();
        crate::install_global(crate::UNBOUNDED);
        crate::enable_spans(crate::UNBOUNDED);
        // A tick far beyond the test's wall-clock span: a tick-based ts
        // would fall outside the window.
        crate::set_now(1_000_000);
        let before = crate::now_us();
        let flow = crate::new_flow();
        for (name, node) in [("bmx-mutator-1", 1), ("bmx-driver-0-g0", 0)] {
            let work = move || {
                let node = NodeId(node);
                let _flow = crate::flow_scope(flow);
                {
                    let _apply = crate::span(SpanKind::Apply, node);
                    let mode = AccessMode::Write;
                    crate::emit(node, TraceEvent::AcquireStart { oid: Oid(9), mode });
                }
                crate::mark(SpanKind::ReserveClaim, node);
                crate::emit(node, TraceEvent::TokenRelease { oid: Oid(9) });
            };
            let t = std::thread::Builder::new().name(name.into()).spawn(work);
            t.expect("spawn").join().expect("recorder thread");
        }
        let after = crate::now_us();
        let records = crate::take_global();
        crate::disable_spans();
        crate::disable_global();
        assert_eq!(records.len(), 8, "two spans and two events per thread");
        (export(&records), before..=after, flow)
    }

    #[test]
    fn a_session_export_validates_on_the_wall_clock() {
        let (text, window, _) = session_export();
        assert_eq!(validate(&text), Ok(8 + 4), "eight events, four flow steps");
        let evs = events(&text);
        let xs = evs.iter().filter(|e| field(e, "ph") == Some("X"));
        let names: Vec<_> = xs.filter_map(|e| field(e, "name")).collect();
        assert_eq!(names.len(), 4, "{names:?}");
        assert!(names.contains(&"apply") && names.contains(&"acquire/reserve-claim"));
        for e in evs.iter().filter(|e| field(e, "ph") != Some("M")) {
            let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
            assert!(
                window.contains(&ts),
                "ts {ts} off the wall clock {window:?}"
            );
        }
    }

    #[test]
    fn a_session_export_names_each_track_once() {
        let evs = events(&session_export().0);
        let key = |e: &Json| {
            let num = |k| e.get(k).and_then(Json::as_u64);
            (num("pid"), num("tid"))
        };
        let mut named = std::collections::BTreeSet::new();
        let mut names = Vec::new();
        for e in evs.iter().filter(|e| field(e, "ph") == Some("M")) {
            let name = e.get("args").and_then(|a| field(a, "name"));
            names.push(name.expect("metadata names its track"));
            if field(e, "name") == Some("thread_name") {
                assert!(named.insert(key(e)), "{:?} named twice", key(e));
            }
        }
        for want in [
            "node 0",
            "node 1",
            "bmx-mutator-1",
            "bmx-driver-0-g0",
            "dsm",
        ] {
            assert!(names.contains(&want), "{want:?} not named: {names:?}");
        }
        for e in evs.iter().filter(|e| field(e, "ph") != Some("M")) {
            assert!(named.contains(&key(e)), "unnamed track: {e:?}");
        }
    }

    #[test]
    fn a_session_flow_stitches_across_pids() {
        let (text, _, flow) = session_export();
        let evs = events(&text);
        let flow_evs: Vec<&Json> = evs
            .iter()
            .filter(|e| field(e, "cat") == Some("flow"))
            .collect();
        let count = |ph: &str| {
            flow_evs
                .iter()
                .filter(|e| field(e, "ph") == Some(ph))
                .count()
        };
        // Four spans share the flow -> one "s", two "t", one "f".
        assert_eq!((count("s"), count("t"), count("f")), (1, 2, 1));
        assert!(flow_evs
            .iter()
            .all(|e| e.get("id").and_then(Json::as_u64) == Some(flow)));
        // Node 1's thread ran first, so its first span opens the flow.
        let start = flow_evs.iter().find(|e| field(e, "ph") == Some("s"));
        let start_pid = start.and_then(|e| e.get("pid")).and_then(Json::as_u64);
        assert_eq!(start_pid, Some(1));
        let pids: std::collections::BTreeSet<_> = flow_evs
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids.len(), 2, "the flow crosses pids: {pids:?}");
    }
}
