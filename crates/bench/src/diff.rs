//! Perf-regression diffing between two `BENCH_tables.json` snapshots.
//!
//! The perf CI lane regenerates the evaluation tables and diffs them
//! against the committed `BENCH_baseline.json` with the `bench-diff`
//! binary, which uses this module. The policy is direction-aware and
//! per-metric:
//!
//! * **wall-clock columns** (`*_us`, `ns/...`) are noisy on shared CI
//!   runners, so they get a relative tolerance band (default 40%) and only
//!   *slower* is a regression;
//! * **deterministic counters** (messages, envelopes, invalidations,
//!   bytes, words copied) come out of the seeded simulation bit-exact, so
//!   they are gated at zero tolerance — any increase is a regression;
//! * **achievement counters** (`piggybacked`, `fast_paths`,
//!   `words_reclaimed`, ...) gate the opposite direction: a *decrease*
//!   fails;
//! * **workload parameters** (`objects`, `replicas`, `stores`, ...) and
//!   every non-numeric cell must match exactly — a mismatch means the
//!   benchmark shape changed and the baseline must be regenerated
//!   (`scripts/update_baseline.sh`), which is reported distinctly.
//!
//! Tables are matched by the title prefix before the first `:` (so `E4b`
//! survives cosmetic title edits) and rows by their first cell. A table or
//! row present in the baseline but missing from the current run fails;
//! new tables or rows only present in the current run are reported but
//! pass, so a PR adding an experiment does not need a two-step dance.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Minimal JSON value — just the shapes `Table::to_json` emits.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// String.
    Str(String),
    /// Number (kept as f64; the tables only hold integers and short
    /// decimals, all exactly representable).
    Num(f64),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion order irrelevant).
    Obj(BTreeMap<String, Json>),
}

/// Parses a JSON document. Supports objects, arrays, strings with the
/// escapes `Table::to_json` produces, numbers, and the literals
/// `true`/`false`/`null` (mapped to 1/0/0 — the tables never emit them,
/// but a hand-edited baseline should not crash the gate).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Num(1.0)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Num(0.0)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Num(0.0)),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // '"'
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // UTF-8 continuation bytes pass through untouched.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len])
                    .map_err(|_| "bad utf8 in string")?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(format!("bad number at offset {start}"))
}

/// One parsed benchmark table.
#[derive(Clone, Debug)]
pub struct BenchTable {
    /// Full title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Stringified rows.
    pub rows: Vec<Vec<String>>,
}

impl BenchTable {
    /// The stable match key: the title up to the first `:`.
    pub fn key(&self) -> &str {
        self.title.split(':').next().unwrap_or(&self.title).trim()
    }
}

/// Extracts the `tables` array from a parsed `BENCH_tables.json` document.
pub fn extract_tables(doc: &Json) -> Result<Vec<BenchTable>, String> {
    let Json::Obj(root) = doc else {
        return Err("root is not an object".into());
    };
    let Some(Json::Arr(tables)) = root.get("tables") else {
        return Err("missing \"tables\" array".into());
    };
    let get_str = |v: &Json| -> Result<String, String> {
        if let Json::Str(s) = v {
            Ok(s.clone())
        } else if let Json::Num(n) = v {
            Ok(fmt_num(*n))
        } else {
            Err("expected scalar cell".into())
        }
    };
    let mut out = Vec::new();
    for t in tables {
        let Json::Obj(t) = t else {
            return Err("table entry is not an object".into());
        };
        let Some(Json::Str(title)) = t.get("title") else {
            return Err("table missing title".into());
        };
        let Some(Json::Arr(headers)) = t.get("headers") else {
            return Err(format!("table {title:?} missing headers"));
        };
        let Some(Json::Arr(rows)) = t.get("rows") else {
            return Err(format!("table {title:?} missing rows"));
        };
        out.push(BenchTable {
            title: title.clone(),
            headers: headers.iter().map(&get_str).collect::<Result<_, _>>()?,
            rows: rows
                .iter()
                .map(|r| {
                    let Json::Arr(cells) = r else {
                        return Err("row is not an array".into());
                    };
                    cells.iter().map(&get_str).collect()
                })
                .collect::<Result<_, _>>()?,
        });
    }
    Ok(out)
}

fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Gate direction and tolerance for one column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Noisy wall-clock measurement: regression if
    /// `current > baseline * (1 + tol)`.
    TimeLowerBetter,
    /// Noisy wall-clock throughput (`*_per_sec`): regression if
    /// `current < baseline * (1 - tol)` — same relative band as
    /// [`Gate::TimeLowerBetter`], opposite direction.
    RateHigherBetter,
    /// Deterministic cost counter: regression on any increase.
    CounterLowerBetter,
    /// Deterministic achievement counter: regression on any decrease.
    CounterHigherBetter,
    /// Workload parameter / identity cell: must match exactly.
    Identity,
}

/// Achievement counters — more is better.
const HIGHER_BETTER: &[&str] = &[
    "piggybacked",
    "fast_paths",
    "words_reclaimed",
    "completed",
    "recovered",
    "parts_verified",
];

/// Workload-shape parameters — a change means the benchmark itself
/// changed, which is a baseline-update event, not a regression.
const PARAMS: &[&str] = &[
    "replicas",
    "readers",
    "synced",
    "bunches",
    "heap_objs",
    "objects",
    "steps",
    "stores",
    "loads",
    "relocated",
    "ring_len",
    "hops",
    "drop",
    "remote_frac",
    "mutators",
];

/// Classifies a column by header name. The first column is always the row
/// key and therefore [`Gate::Identity`].
pub fn classify(header: &str, col: usize) -> Gate {
    if col == 0 || PARAMS.contains(&header) {
        return Gate::Identity;
    }
    if header.ends_with("_us") || header.contains("ns/") || header.ends_with("_ticks") {
        return Gate::TimeLowerBetter;
    }
    if header.ends_with("_per_sec") {
        return Gate::RateHigherBetter;
    }
    if HIGHER_BETTER.contains(&header) {
        return Gate::CounterHigherBetter;
    }
    Gate::CounterLowerBetter
}

/// Outcome of one diff run.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Human-readable regression lines; non-empty means the gate fails.
    pub regressions: Vec<String>,
    /// Benchmark-shape mismatches (also failing, but with the
    /// update-the-baseline remedy).
    pub shape_changes: Vec<String>,
    /// Informational improvement lines.
    pub improvements: Vec<String>,
    /// Informational notes (new tables, new rows).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Whether the perf gate passes.
    pub fn pass(&self) -> bool {
        self.regressions.is_empty() && self.shape_changes.is_empty()
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let section = |out: &mut String, head: &str, lines: &[String]| {
            if !lines.is_empty() {
                let _ = writeln!(out, "{head}");
                for l in lines {
                    let _ = writeln!(out, "  {l}");
                }
            }
        };
        section(&mut out, "REGRESSIONS:", &self.regressions);
        section(&mut out, "BENCHMARK SHAPE CHANGES (regenerate the baseline with scripts/update_baseline.sh if intentional):", &self.shape_changes);
        section(&mut out, "improvements:", &self.improvements);
        section(&mut out, "notes:", &self.notes);
        if self.pass() {
            let _ = writeln!(out, "perf gate: PASS");
        } else {
            let _ = writeln!(out, "perf gate: FAIL");
        }
        out
    }
}

/// Merges repeated measurement runs into one best-case snapshot, cell by
/// cell: wall-clock and cost columns take the minimum across runs,
/// achievement columns the maximum. Repeating the run and keeping the
/// best case filters the one-sided noise of a shared CI runner (a
/// scheduler stall only ever makes a benchmark *slower*). Deterministic
/// counters are identical across runs anyway, so min == max for them.
/// Tables or rows missing from later runs keep the earlier runs' cells.
pub fn merge_best(runs: &[Vec<BenchTable>]) -> Vec<BenchTable> {
    let mut merged: Vec<BenchTable> = runs.first().cloned().unwrap_or_default();
    for run in &runs[1..] {
        for t in run {
            let Some(m) = merged
                .iter_mut()
                .find(|m| m.key() == t.key() && m.headers == t.headers)
            else {
                merged.push(t.clone());
                continue;
            };
            for row in &t.rows {
                let key = row_key(&t.headers, row);
                let Some(mrow) = m.rows.iter_mut().find(|r| row_key(&t.headers, r) == key) else {
                    m.rows.push(row.clone());
                    continue;
                };
                for (col, header) in t.headers.iter().enumerate() {
                    let keep_max = match classify(header, col) {
                        Gate::Identity => continue,
                        Gate::CounterHigherBetter | Gate::RateHigherBetter => true,
                        Gate::TimeLowerBetter | Gate::CounterLowerBetter => false,
                    };
                    let (Ok(old), Ok(new)) = (mrow[col].parse::<f64>(), row[col].parse::<f64>())
                    else {
                        continue;
                    };
                    if (keep_max && new > old) || (!keep_max && new < old) {
                        mrow[col] = row[col].clone();
                    }
                }
            }
        }
    }
    merged
}

/// Renders tables back to the `BENCH_tables.json` document format (via
/// [`crate::table::Table`], so the output is byte-compatible with what the
/// `tables` binary writes).
pub fn render_json(tables: &[BenchTable]) -> String {
    let rendered: Vec<String> = tables
        .iter()
        .map(|t| {
            let mut out = crate::table::Table::new(
                &t.title,
                &t.headers.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            for r in &t.rows {
                out.row(r.clone());
            }
            out.to_json()
        })
        .collect();
    format!(
        "{{\n  \"tables\": [\n  {}\n  ]\n}}\n",
        rendered.join(",\n  ")
    )
}

/// Diffs `current` against `baseline` with the given relative tolerance for
/// wall-clock columns.
pub fn diff(baseline: &[BenchTable], current: &[BenchTable], time_tol: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|t| t.key() == base.key()) else {
            report
                .shape_changes
                .push(format!("table {} disappeared", base.key()));
            continue;
        };
        diff_table(base, cur, time_tol, &mut report);
    }
    for cur in current {
        if !baseline.iter().any(|t| t.key() == cur.key()) {
            report
                .notes
                .push(format!("new table {} (not in baseline)", cur.key()));
        }
    }
    report
}

/// The row key: every identity-classified cell (row label plus workload
/// parameters). Tables like E2 repeat the label across parameter sweeps
/// ("bmx" × readers ∈ {1,2,4,8}), so the label alone is ambiguous.
fn row_key(headers: &[String], row: &[String]) -> String {
    headers
        .iter()
        .enumerate()
        .filter(|(col, h)| classify(h, *col) == Gate::Identity)
        .map(|(col, _)| row[col].as_str())
        .collect::<Vec<_>>()
        .join(" / ")
}

fn diff_table(base: &BenchTable, cur: &BenchTable, time_tol: f64, report: &mut DiffReport) {
    if base.headers != cur.headers {
        report.shape_changes.push(format!(
            "{}: headers changed {:?} -> {:?}",
            base.key(),
            base.headers,
            cur.headers
        ));
        return;
    }
    for brow in &base.rows {
        let key = row_key(&base.headers, brow);
        let Some(crow) = cur.rows.iter().find(|r| row_key(&cur.headers, r) == key) else {
            report
                .shape_changes
                .push(format!("{} row {key:?} disappeared", base.key()));
            continue;
        };
        for (col, header) in base.headers.iter().enumerate() {
            let (b, c) = (&brow[col], &crow[col]);
            let place = format!("{} [{key} / {header}]", base.key());
            match classify(header, col) {
                // Identity columns form the row key: equal by construction.
                Gate::Identity => {}
                gate => {
                    let (Ok(bv), Ok(cv)) = (b.parse::<f64>(), c.parse::<f64>()) else {
                        if b != c {
                            report
                                .shape_changes
                                .push(format!("{place}: non-numeric cell changed {b} -> {c}"));
                        }
                        continue;
                    };
                    check(gate, bv, cv, time_tol, &place, report);
                }
            }
        }
    }
    for crow in &cur.rows {
        let key = row_key(&cur.headers, crow);
        if !base.rows.iter().any(|r| row_key(&base.headers, r) == key) {
            report.notes.push(format!("{} new row {key:?}", base.key()));
        }
    }
}

fn check(gate: Gate, base: f64, cur: f64, time_tol: f64, place: &str, report: &mut DiffReport) {
    match gate {
        Gate::TimeLowerBetter => {
            if cur > base * (1.0 + time_tol) {
                report.regressions.push(format!(
                    "{place}: {base} -> {cur} (+{:.0}%, tolerance {:.0}%)",
                    (cur / base.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                    time_tol * 100.0
                ));
            } else if base > 0.0 && cur < base * (1.0 - time_tol) {
                report.improvements.push(format!(
                    "{place}: {base} -> {cur} (-{:.0}%)",
                    (1.0 - cur / base) * 100.0
                ));
            }
        }
        Gate::RateHigherBetter => {
            if cur < base * (1.0 - time_tol) {
                report.regressions.push(format!(
                    "{place}: {base} -> {cur} (-{:.0}%, tolerance {:.0}%)",
                    (1.0 - cur / base.max(f64::MIN_POSITIVE)) * 100.0,
                    time_tol * 100.0
                ));
            } else if cur > base * (1.0 + time_tol) {
                report.improvements.push(format!(
                    "{place}: {base} -> {cur} (+{:.0}%)",
                    (cur / base.max(f64::MIN_POSITIVE) - 1.0) * 100.0
                ));
            }
        }
        Gate::CounterLowerBetter => {
            if cur > base {
                report.regressions.push(format!(
                    "{place}: {base} -> {cur} (deterministic counter rose)"
                ));
            } else if cur < base {
                report
                    .improvements
                    .push(format!("{place}: {base} -> {cur}"));
            }
        }
        Gate::CounterHigherBetter => {
            if cur < base {
                report.regressions.push(format!(
                    "{place}: {base} -> {cur} (achievement counter fell)"
                ));
            } else if cur > base {
                report
                    .improvements
                    .push(format!("{place}: {base} -> {cur}"));
            }
        }
        Gate::Identity => unreachable!("identity handled by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(title: &str, headers: &[&str], rows: &[&[&str]]) -> BenchTable {
        BenchTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
        }
    }

    #[test]
    fn parses_the_tables_json_shape() {
        let doc = parse_json(
            r#"{ "tables": [ { "title": "E1: x", "headers": ["a", "b_us"],
                 "rows": [["1", "426"], ["2", "380"]] } ] }"#,
        )
        .unwrap();
        let tables = extract_tables(&doc).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].key(), "E1");
        assert_eq!(tables[0].rows[1], vec!["2", "380"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse_json(
            r#"{"tables": [{"title": "q\"uote\\n", "headers": ["a"], "rows": [["x\ny"]]}]}"#,
        )
        .unwrap();
        let t = extract_tables(&doc).unwrap();
        assert_eq!(t[0].title, "q\"uote\\n");
        assert_eq!(t[0].rows[0][0], "x\ny");
    }

    #[test]
    fn classification_covers_the_published_columns() {
        assert_eq!(classify("bmx_us", 1), Gate::TimeLowerBetter);
        assert_eq!(classify("ns/store", 2), Gate::TimeLowerBetter);
        assert_eq!(classify("refault_msgs", 4), Gate::CounterLowerBetter);
        assert_eq!(classify("envelopes", 2), Gate::CounterLowerBetter);
        // The retained-space bound of E10 is gated at zero tolerance.
        assert_eq!(
            classify("mapped_segments_after", 5),
            Gate::CounterLowerBetter
        );
        assert_eq!(
            classify("server_segments_after", 6),
            Gate::CounterLowerBetter
        );
        assert_eq!(classify("piggybacked", 3), Gate::CounterHigherBetter);
        assert_eq!(classify("ops_per_sec", 2), Gate::RateHigherBetter);
        assert_eq!(classify("objects", 1), Gate::Identity);
        assert_eq!(classify("whatever", 0), Gate::Identity);
    }

    #[test]
    fn rate_gate_bands_throughput_drops_only() {
        let base = [table(
            "E13: t",
            &["nodes", "ops_per_sec"],
            &[&["2", "1000"]],
        )];
        let slow = [table("E13: t", &["nodes", "ops_per_sec"], &[&["2", "790"]])];
        let ok = [table("E13: t", &["nodes", "ops_per_sec"], &[&["2", "810"]])];
        let fast = [table(
            "E13: t",
            &["nodes", "ops_per_sec"],
            &[&["2", "5000"]],
        )];
        assert!(!diff(&base, &slow, 0.20).pass());
        assert!(diff(&base, &ok, 0.20).pass());
        assert!(
            diff(&base, &fast, 0.20).pass(),
            "faster is never a regression"
        );
    }

    #[test]
    fn time_regression_beyond_band_fails() {
        let base = [table("E1: t", &["n", "bmx_us"], &[&["1", "100"]])];
        let slow = [table("E1: t", &["n", "bmx_us"], &[&["1", "121"]])];
        let ok = [table("E1: t", &["n", "bmx_us"], &[&["1", "119"]])];
        assert!(!diff(&base, &slow, 0.20).pass());
        assert!(diff(&base, &ok, 0.20).pass());
    }

    #[test]
    fn counter_gates_are_zero_tolerance_and_direction_aware() {
        let base = [table(
            "E2: t",
            &["collector", "refault_msgs", "piggybacked"],
            &[&["bmx", "240", "50"]],
        )];
        let worse_cost = [table(
            "E2: t",
            &["collector", "refault_msgs", "piggybacked"],
            &[&["bmx", "241", "50"]],
        )];
        let worse_wins = [table(
            "E2: t",
            &["collector", "refault_msgs", "piggybacked"],
            &[&["bmx", "240", "49"]],
        )];
        let better = [table(
            "E2: t",
            &["collector", "refault_msgs", "piggybacked"],
            &[&["bmx", "239", "51"]],
        )];
        assert!(!diff(&base, &worse_cost, 0.4).pass());
        assert!(!diff(&base, &worse_wins, 0.4).pass());
        let rep = diff(&base, &better, 0.4);
        assert!(rep.pass());
        assert_eq!(rep.improvements.len(), 2);
    }

    #[test]
    fn shape_changes_fail_with_the_update_remedy() {
        let base = [table("E4: t", &["n", "per_bunch_us"], &[&["1", "100"]])];
        let gone = diff(&base, &[], 0.4);
        assert!(!gone.pass());
        assert!(gone.render().contains("update_baseline.sh"));

        let param = [table("E4: t", &["n", "per_bunch_us"], &[&["2", "100"]])];
        let rep = diff(&base, &param, 0.4);
        assert!(!rep.pass());
        assert!(!rep.shape_changes.is_empty());
    }

    #[test]
    fn merge_keeps_the_best_case_per_direction() {
        let run1 = vec![table(
            "E8: t",
            &["kind", "ns/store", "fast_paths"],
            &[&["data", "84", "4900"]],
        )];
        let run2 = vec![table(
            "E8: t",
            &["kind", "ns/store", "fast_paths"],
            &[&["data", "56", "5000"]],
        )];
        let merged = merge_best(&[run1, run2]);
        assert_eq!(merged[0].rows[0], vec!["data", "56", "5000"]);
    }

    #[test]
    fn new_tables_and_rows_pass_with_a_note() {
        let base = [table("E1: t", &["n", "bmx_us"], &[&["1", "100"]])];
        let cur = [
            table("E1: t", &["n", "bmx_us"], &[&["1", "100"], &["2", "150"]]),
            table("E12: new", &["mode", "envelopes"], &[&["coalesced", "9"]]),
        ];
        let rep = diff(&base, &cur, 0.4);
        assert!(rep.pass());
        assert_eq!(rep.notes.len(), 2);
    }
}
