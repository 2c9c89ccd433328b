//! Chrome/Perfetto export for wall-clock spans.
//!
//! Same hand-rolled writer idiom as `bmx_trace::chrome`, on the same codec
//! ([`bmx_common::json`]), but where
//! the causal export emits instant events at Lamport positions, this one
//! emits *duration* events (`"ph":"X"`) at real microseconds since the
//! profiler epoch: `pid` = node, `tid` = OS thread (named via `"M"`
//! metadata events). Spans sharing a nonzero flow id are stitched with
//! flow events (`"ph":"s"/"t"/"f"`), so a cross-node acquire renders as
//! one connected track in the Perfetto UI ("Flow events" toggle).
//!
//! Load via <https://ui.perfetto.dev> or `chrome://tracing`.

use std::collections::BTreeMap;

use bmx_common::json::quoted;

use crate::ThreadSpans;

/// A span's coordinates in the exported trace, for flow stitching.
#[derive(Clone, Copy)]
struct FlowPoint {
    pid: u32,
    tid: usize,
    ts: u64,
}

/// Renders thread snapshots (from [`crate::snapshot_all`]) as a Chrome
/// trace JSON string. `tid` is the 1-based index into `threads`; every
/// `(pid, tid)` pair that appears gets `process_name`/`thread_name`
/// metadata so the Perfetto UI shows "node N" / the OS thread name.
pub fn export(threads: &[ThreadSpans]) -> String {
    let mut events: Vec<String> = Vec::new();
    // (pid, tid) -> thread name; pid set for process_name metadata.
    let mut tracks: BTreeMap<(u32, usize), &str> = BTreeMap::new();
    // flow id -> points, in encounter order (sorted by ts before emit).
    let mut flows: BTreeMap<u64, Vec<FlowPoint>> = BTreeMap::new();

    for (idx, t) in threads.iter().enumerate() {
        let tid = idx + 1;
        for rec in &t.spans {
            tracks.entry((rec.node, tid)).or_insert(&t.name);
            events.push(format!(
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"flow\":{}}}}}",
                quoted(rec.kind.name()),
                rec.node,
                tid,
                rec.start_us,
                rec.dur_us,
                rec.flow
            ));
            if rec.flow != 0 {
                flows.entry(rec.flow).or_default().push(FlowPoint {
                    pid: rec.node,
                    tid,
                    ts: rec.start_us,
                });
            }
        }
    }

    let mut pids_named = std::collections::BTreeSet::new();
    for (&(pid, tid), name) in &tracks {
        if pids_named.insert(pid) {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"node {pid}\"}}}}"
            ));
        }
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            quoted(name)
        ));
    }

    // Flow stitching: start at the earliest span, step through the rest,
    // finish at the last. Singleton flows have nothing to connect.
    for (&flow, points) in flows.iter_mut() {
        if points.len() < 2 {
            continue;
        }
        points.sort_by_key(|p| p.ts);
        let last = points.len() - 1;
        for (i, p) in points.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            events.push(format!(
                "{{\"name\":\"acquire-flow\",\"cat\":\"flow\",\"ph\":\"{ph}\",\"id\":{flow},\
                 \"pid\":{},\"tid\":{},\"ts\":{}{bp}}}",
                p.pid, p.tid, p.ts
            ));
        }
    }

    // Bare-array trace form, same as the causal export: both Perfetto
    // and chrome://tracing accept it, and `bmx_trace::chrome::validate`
    // checks it.
    let mut out = String::from("[");
    out.push_str(&events.join(",\n"));
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanKind, SpanRec};
    use bmx_trace::chrome::{parse, validate, Json};

    fn rec(kind: SpanKind, node: u32, start: u64, dur: u64, flow: u64) -> SpanRec {
        SpanRec {
            kind,
            node,
            start_us: start,
            dur_us: dur,
            flow,
        }
    }

    fn sample() -> Vec<ThreadSpans> {
        vec![
            ThreadSpans {
                name: "bmx-mutator-1".into(),
                spans: vec![
                    rec(SpanKind::Acquire, 1, 100, 900, 7),
                    rec(SpanKind::AcquirePark, 1, 150, 600, 7),
                    rec(SpanKind::ReserveClaim, 1, 990, 0, 7),
                ],
            },
            ThreadSpans {
                name: "bmx-driver-0-g0".into(),
                spans: vec![rec(SpanKind::DriverApply, 0, 400, 50, 7)],
            },
        ]
    }

    /// Collects every event object out of the parsed trace.
    fn events(doc: &Json) -> Vec<&Json> {
        match doc {
            Json::Arr(evs) => evs.iter().collect(),
            other => panic!("top-level array missing: {other:?}"),
        }
    }

    #[test]
    fn export_round_trips_through_the_trace_parser() {
        let text = export(&sample());
        let n = validate(&text).expect("well-formed trace JSON");
        assert!(n >= 4, "at least the four duration events: {n}");
        let doc = parse(&text).expect("parses");
        let evs = events(&doc);
        // All four spans present as "ph":"X" with real ts/dur.
        let xs: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 4);
        let park = xs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("acquire/park"))
            .expect("park span exported");
        assert_eq!(park.get("ts").and_then(Json::as_num), Some(150.0));
        assert_eq!(park.get("dur").and_then(Json::as_num), Some(600.0));
        assert_eq!(park.get("pid").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn threads_and_processes_are_named() {
        let doc = parse(&export(&sample())).expect("parses");
        let evs = events(&doc);
        let metas: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        let names: Vec<&str> = metas
            .iter()
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(
            names.contains(&"node 0"),
            "process_name for node 0: {names:?}"
        );
        assert!(
            names.contains(&"node 1"),
            "process_name for node 1: {names:?}"
        );
        assert!(names.contains(&"bmx-mutator-1"), "thread named: {names:?}");
        assert!(
            names.contains(&"bmx-driver-0-g0"),
            "thread named: {names:?}"
        );
    }

    #[test]
    fn flow_ids_stitch_across_pids() {
        let doc = parse(&export(&sample())).expect("parses");
        let evs = events(&doc);
        let flow_evs: Vec<_> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").and_then(Json::as_str),
                    Some("s") | Some("t") | Some("f")
                )
            })
            .collect();
        // Four spans share flow 7 -> one "s", two "t", one "f".
        assert_eq!(flow_evs.len(), 4, "{flow_evs:?}");
        assert!(flow_evs
            .iter()
            .all(|e| e.get("id").and_then(Json::as_num) == Some(7.0)));
        let start = flow_evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .expect("flow start");
        // Earliest span (ts 100, node 1) opens the flow.
        assert_eq!(start.get("ts").and_then(Json::as_num), Some(100.0));
        assert_eq!(start.get("pid").and_then(Json::as_num), Some(1.0));
        let finish = flow_evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
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
        let threads = vec![ThreadSpans {
            name: "t".into(),
            spans: vec![rec(SpanKind::Acquire, 0, 10, 5, 99)],
        }];
        let doc = parse(&export(&threads)).expect("parses");
        let evs = events(&doc);
        assert!(evs
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) != Some("s")));
    }

    #[test]
    fn names_are_escaped() {
        let threads = vec![ThreadSpans {
            name: "weird\"name\\with\njunk".into(),
            spans: vec![rec(SpanKind::MutexHold, 0, 1, 1, 0)],
        }];
        let text = export(&threads);
        validate(&text).expect("escaped name still parses");
    }
}
