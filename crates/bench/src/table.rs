//! The experiment tables: aligned text for reading, JSON for gating.
//!
//! Every cell an experiment reports is either a *count* the seeded tick
//! simulation repeats bit for bit (tokens, invalidations, messages, words,
//! simulated ticks) or a *wall-clock* reading that depends on the host.
//! Each experiment declares its wall-clock columns with
//! [`Table::wall_clock`]; [`Table::render`] prints every column,
//! [`Table::to_json`] leaves the declared ones out, so the committed
//! `BENCH_tables.json` holds only what must reproduce exactly.

use bmx_common::json::quoted;

/// A printable table: a title, column headers, and string rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Per column: whether it was declared wall-clock.
    wall_clock: Vec<bool>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            wall_clock: vec![false; headers.len()],
        }
    }

    /// Declares the named columns wall-clock measurements: printed by
    /// [`Table::render`], absent from [`Table::to_json`].
    pub fn wall_clock(mut self, columns: &[&str]) -> Table {
        for name in columns {
            let i = self
                .headers
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.title));
            self.wall_clock[i] = true;
        }
        self
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the deterministic columns as a JSON object `{"title",
    /// "headers", "rows"}`, one row per line so a moved counter shows up as
    /// a one-line diff of `BENCH_tables.json`.
    pub fn to_json(&self) -> String {
        let list = |cells: &[String]| {
            cells
                .iter()
                .zip(&self.wall_clock)
                .filter(|(_, wall)| !**wall)
                .map(|(c, _)| quoted(c))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let rows = self
            .rows
            .iter()
            .map(|r| format!("      [{}]", list(r)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n    \"title\": {},\n    \"headers\": [{}],\n    \"rows\": [\n{}\n    ]\n  }}",
            quoted(&self.title),
            list(&self.headers),
            rows
        )
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// The whole `BENCH_tables.json` document for `tables`.
pub fn document_json(tables: &[Table]) -> String {
    format!(
        "{{\n  \"tables\": [\n  {}\n  ]\n}}\n",
        tables
            .iter()
            .map(Table::to_json)
            .collect::<Vec<_>>()
            .join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000000".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn wall_clock_columns_are_rendered_but_not_in_the_json() {
        let mut t = Table::new("demo", &["n", "pause_us", "msgs"]).wall_clock(&["pause_us"]);
        t.row(vec!["4".into(), "1234".into(), "77".into()]);
        let text = t.render();
        assert!(text.contains("pause_us") && text.contains("1234"));
        let j = t.to_json();
        assert!(j.contains(r#""headers": ["n", "msgs"]"#), "{j}");
        assert!(j.contains(r#"["4", "77"]"#), "{j}");
        assert!(!j.contains("pause_us") && !j.contains("1234"), "{j}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wall_clock_columns_still_count_towards_the_row_width() {
        let mut t = Table::new("demo", &["n", "pause_us"]).wall_clock(&["pause_us"]);
        t.row(vec!["4".into()]);
    }

    #[test]
    fn json_escapes_and_nests() {
        let mut t = Table::new("q\"uote", &["a", "b"]);
        t.row(vec!["1".into(), "x\\y".into()]);
        let j = t.to_json();
        assert!(j.contains(r#""title": "q\"uote""#));
        assert!(j.contains(r#""x\\y""#));
        assert!(j.contains(r#""headers": ["a", "b"]"#));
    }
}
