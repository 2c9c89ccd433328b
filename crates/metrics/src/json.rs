//! JSON codec for [`Snapshot`] and snapshot diffs.
//!
//! The format is deliberately flat — one JSON object mapping metric path
//! to integer value — so dumps diff cleanly under `jq`/`diff`. Paths
//! contain only `[A-Za-z0-9_/.-]`, so no string escaping is needed in
//! either direction; the reader is the workspace's one
//! ([`bmx_common::json`]) and still rejects anything a snapshot cannot
//! contain — escapes, duplicate keys, values that are not a `u64` — rather
//! than guessing.

use std::collections::BTreeMap;

use bmx_common::json::{parse, Json};

use crate::registry::Snapshot;

/// Renders a snapshot as a pretty-printed JSON object, keys sorted.
pub fn to_json(snap: &Snapshot) -> String {
    render_map(snap.entries.iter().map(|(k, &v)| (k.as_str(), v as i64)))
}

/// Renders a signed snapshot diff (see [`Snapshot::diff`]) as JSON.
pub fn diff_to_json(diff: &BTreeMap<String, i64>) -> String {
    render_map(diff.iter().map(|(k, &v)| (k.as_str(), v)))
}

fn render_map<'a>(entries: impl Iterator<Item = (&'a str, i64)>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{k}\": {v}"));
    }
    out.push_str("\n}\n");
    out
}

/// Parses a snapshot previously rendered by [`to_json`]. Returns an error
/// message describing the first malformed construct.
pub fn from_json(text: &str) -> Result<Snapshot, String> {
    if text.contains('\\') {
        return Err("unsupported escape: metric paths need none".into());
    }
    let Json::Obj(members) = parse(text)? else {
        return Err("snapshot JSON must be a single object".into());
    };
    let mut entries = BTreeMap::new();
    for (key, value) in members {
        let value = value
            .as_u64()
            .ok_or_else(|| format!("bad value for {key:?}: {value:?} is not a u64"))?;
        if entries.contains_key(&key) {
            return Err(format!("duplicate key {key:?}"));
        }
        entries.insert(key, value);
    }
    Ok(Snapshot { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Gge, LinkCtr, Registry};

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::default();
        reg.node(0).set(Gge::ScionTableSize, 12);
        reg.node(1).set(Gge::StubTableSize, 30);
        reg.node(1)
            .observe(crate::registry::Hst::InvalidationFanout, 2);
        reg.link(2, 0).add(LinkCtr::Bytes, 8192);
        reg.set_bunch_live_bytes(1, 3, 777);
        let snap = reg.snapshot();
        let text = to_json(&snap);
        let back = from_json(&text).expect("parse");
        assert_eq!(back, snap, "round-trip must be lossless");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"a\" 1}").is_err());
        assert!(from_json("{\"a\": -3}").is_err(), "snapshots are unsigned");
        assert!(from_json("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys");
        assert!(from_json("{a: 1}").is_err(), "unquoted key");
    }

    #[test]
    fn diff_json_carries_signed_deltas() {
        let mut diff = BTreeMap::new();
        diff.insert("node0/gauge/scion_table_size".to_string(), -4i64);
        diff.insert("node0/hist/bgc_pause_micros/count".to_string(), 2i64);
        let text = diff_to_json(&diff);
        assert!(text.contains("\"node0/gauge/scion_table_size\": -4"));
        assert!(text.contains("\"node0/hist/bgc_pause_micros/count\": 2"));
    }
}
