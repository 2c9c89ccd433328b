//! The workspace's one JSON codec: a string quoter for the hand-rolled
//! writers, the one Chrome-trace writer ([`ChromeTrace`]) and a deliberately
//! small reader, so tests and tools can prove an export round-trips through
//! a real parse. (The workspace takes no serialization dependency.)

use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes and escapes included.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written as a non-negative integer that fits a `u64`, kept
    /// exactly (an `f64` cannot hold every counter value).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a number, as an f64.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The str payload of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

/// Parses a JSON document. Deliberately small: objects keep their members
/// in source order, duplicates included (callers that care check), and
/// nesting depth is not bounded — the inputs are this workspace's own
/// exports.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Parses a Chrome `trace_event` export (the "JSON array format" both the
/// causal and the wall-clock exporter write) and counts its non-metadata
/// events, verifying the envelope shape every viewer relies on
/// (`name`/`ph`/`pid`/`ts`).
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let Json::Arr(items) = parse(text)? else {
        return Err("top level must be an array".into());
    };
    let mut events = 0;
    for item in &items {
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event missing \"ph\"")?;
        item.get("name")
            .and_then(Json::as_str)
            .ok_or("event missing \"name\"")?;
        item.get("pid")
            .and_then(Json::as_num)
            .ok_or("event missing \"pid\"")?;
        if ph == "M" {
            continue;
        }
        item.get("ts")
            .and_then(Json::as_num)
            .ok_or("event missing \"ts\"")?;
        events += 1;
    }
    Ok(events)
}

/// Where a Chrome-trace event is drawn: thread track `tid`, named
/// `thread`, of process `pid` (node `pid`).
#[derive(Clone, Copy, Debug)]
pub struct Track<'a> {
    pub pid: u32,
    pub tid: u64,
    pub thread: &'a str,
}

/// A value in a Chrome-trace event.
#[derive(Clone, Copy, Debug)]
pub enum Arg<'a> {
    Num(u64),
    Str(&'a str),
}

/// A Chrome-trace event's `"key":value` pairs.
pub type Fields<'a> = [(&'a str, Arg<'a>)];

/// `pairs` as `,"key":value` each.
fn members(pairs: &Fields) -> String {
    let each = pairs.iter().map(|(key, val)| match val {
        Arg::Num(n) => format!(",\"{key}\":{n}"),
        Arg::Str(s) => format!(",\"{key}\":{}", quoted(s)),
    });
    each.collect()
}

/// The one Chrome `trace_event` writer: the JSON array format that
/// `chrome://tracing` and Perfetto load and [`validate_chrome_trace`]
/// checks. The first event on a track also names it: `process_name` once
/// per pid, `thread_name` once per `(pid, tid)`.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    out: String,
    named: std::collections::BTreeSet<(u32, u64)>,
}

impl ChromeTrace {
    fn write(&mut self, name: &str, ph: &str, at: (u32, u64), fields: &Fields, args: &Fields) {
        let (pid, tid) = at;
        let sep = if self.out.is_empty() { "" } else { "," };
        let (name, fields, args) = (quoted(name), members(fields), members(args));
        // `args` without the comma before its first member.
        let args = args.get(1..).unwrap_or_default();
        let _ = write!(
            self.out,
            "{sep}\n{{\"name\":{name},\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid}{fields},\"args\":{{{args}}}}}"
        );
    }

    fn event(&mut self, at: Track, name: &str, ph: &str, fields: &Fields, args: &Fields) {
        let track = (at.pid, at.tid);
        if !self.named.contains(&track) {
            if !self.named.iter().any(|&(pid, _)| pid == at.pid) {
                let node = format!("node {}", at.pid);
                let args = [("name", Arg::Str(&node))];
                self.write("process_name", "M", (at.pid, 0), &[], &args);
            }
            let args = [("name", Arg::Str(at.thread))];
            self.write("thread_name", "M", track, &[], &args);
            self.named.insert(track);
        }
        self.write(name, ph, track, fields, args);
    }

    /// An instant event at `ts` µs.
    pub fn instant(&mut self, at: Track, name: &str, ts: u64, args: &Fields) {
        let fields = [("ts", Arg::Num(ts)), ("s", Arg::Str("t"))];
        self.event(at, name, "i", &fields, args);
    }

    /// A duration event of category `cat` from `ts` for `dur` µs.
    pub fn duration(&mut self, at: Track, name: &str, cat: &str, ts: u64, dur: u64, args: &Fields) {
        let fields = [
            ("cat", Arg::Str(cat)),
            ("ts", Arg::Num(ts)),
            ("dur", Arg::Num(dur)),
        ];
        self.event(at, name, "X", &fields, args);
    }

    /// An event of flow `id` at `ts` µs: `ph` is `s` (start), `t` (step)
    /// or `f` (finish, which binds to its enclosing slice).
    pub fn flow(&mut self, at: Track, name: &str, id: u64, ph: &str, ts: u64) {
        let (cat, id, ts) = (Arg::Str("flow"), Arg::Num(id), Arg::Num(ts));
        let fields = [("cat", cat), ("id", id), ("ts", ts), ("bp", Arg::Str("e"))];
        let fields = if ph == "f" { &fields[..] } else { &fields[..3] };
        self.event(at, name, ph, fields, &[]);
    }

    /// The finished JSON document.
    pub fn finish(self) -> String {
        format!("[{}\n]\n", self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a":[1,-2.5,"x\"\nA"],"b":{"c":null,"d":true}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Int(1),
                Json::Num(-2.5),
                Json::Str("x\"\nA".into())
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert!(parse("[1,2").is_err());
        assert!(parse("[] trailing").is_err());
    }

    #[test]
    fn integers_are_kept_exactly_and_everything_written_reads_back() {
        let big = u64::MAX - 1;
        let v = parse(&format!("[{big}, -1, 1e3]")).unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![Json::Int(big), Json::Num(-1.0), Json::Num(1000.0)])
        );
        assert_eq!(Json::Int(7).as_num(), Some(7.0));
        assert_eq!(Json::Num(7.0).as_u64(), None);
        let nasty = "q\"uote \\ \n\r\t \u{1} é";
        assert_eq!(parse(&quoted(nasty)).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn a_chrome_trace_names_each_track_once_and_reads_back() {
        let t = |pid, tid, thread| Track { pid, tid, thread };
        let mut doc = ChromeTrace::default();
        doc.instant(t(0, 1, "net"), "MsgSend", 5, &[("lamport", Arg::Num(1))]);
        doc.instant(t(0, 1, "net"), "MsgDrop", 6, &[]);
        doc.duration(
            t(1, 2, "w\"eird\n"),
            "apply",
            "span",
            7,
            3,
            &[("who", Arg::Str("x\"y"))],
        );
        doc.flow(t(0, 1, "net"), "f", 9, "s", 5);
        doc.flow(t(1, 2, "w\"eird\n"), "f", 9, "f", 7);
        let text = doc.finish();
        assert_eq!(validate_chrome_trace(&text), Ok(5));
        let Json::Arr(evs) = parse(&text).unwrap() else {
            panic!("not an array");
        };
        let meta = |what: &str| {
            evs.iter()
                .filter(|e| e.get("name") == Some(&Json::Str(what.into())))
                .count()
        };
        assert_eq!(meta("process_name"), 2, "one per pid");
        assert_eq!(meta("thread_name"), 2, "one per (pid, tid)");
        let apply = evs
            .iter()
            .find(|e| e.get("ph") == Some(&Json::Str("X".into())))
            .unwrap();
        assert_eq!(apply.get("dur"), Some(&Json::Int(3)));
        assert_eq!(
            apply.get("args").unwrap().get("who"),
            Some(&Json::Str("x\"y".into()))
        );
        assert_eq!(ChromeTrace::default().finish(), "[\n]\n");
    }
}
