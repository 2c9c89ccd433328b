//! The traced pass's span recorder. Spans are taken from outside the
//! program, around each public call a load generator makes; spans inside
//! the crates are a later issue. Every span feeds a per-call histogram; the
//! first [`SPAN_CAP`] per recorder are also kept for the trace file, which
//! bounds memory (a private-object run makes tens of millions of calls).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Hist;

/// Spans kept per recorder for `<workload>.trace.json`.
pub const SPAN_CAP: usize = 20_000;

/// The public calls the load generators make, one span name each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Call {
    /// One whole mutator operation; parent of the calls inside it.
    Op,
    Acquire,
    Read,
    Write,
    Release,
    ReadRef,
    Alloc,
    WriteRef,
    Bgc,
    Ggc,
    Reuse,
    Restart,
}

impl Call {
    pub const ALL: [Call; 12] = [
        Call::Op,
        Call::Acquire,
        Call::Read,
        Call::Write,
        Call::Release,
        Call::ReadRef,
        Call::Alloc,
        Call::WriteRef,
        Call::Bgc,
        Call::Ggc,
        Call::Reuse,
        Call::Restart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Op => "op",
            Call::Acquire => "acquire",
            Call::Read => "read_data",
            Call::Write => "write_data",
            Call::Release => "release",
            Call::ReadRef => "read_ref",
            Call::Alloc => "alloc",
            Call::WriteRef => "write_ref",
            Call::Bgc => "run_bgc",
            Call::Ggc => "run_ggc",
            Call::Reuse => "reuse_from_space",
            Call::Restart => "restart_with_amnesia",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Span {
    pub call: Call,
    /// The operation (request) the span belongs to; spans of one operation
    /// share it, and the `Op` span with that id is their parent.
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One thread's spans. `tid` names the thread in the trace file.
pub struct Recorder {
    pub tid: u32,
    epoch: Instant,
    pub spans: Vec<Span>,
    hists: Vec<Hist>,
}

impl Recorder {
    /// `epoch` is the trace's time zero, shared by all recorders of a run.
    pub fn new(tid: u32, epoch: Instant) -> Self {
        Recorder {
            tid,
            epoch,
            spans: Vec::new(),
            hists: Call::ALL.iter().map(|_| Hist::default()).collect(),
        }
    }

    pub fn span(&mut self, call: Call, op: u64, start: Instant, end: Instant) {
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.hists[call as usize].record(dur_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                call,
                op,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    pub fn hist(&self, call: Call) -> &Hist {
        &self.hists[call as usize]
    }
}

/// All recorders of one call merged into one histogram.
pub fn merged(recorders: &[Recorder], call: Call) -> Hist {
    let mut h = Hist::default();
    for r in recorders {
        h.merge(r.hist(call));
    }
    h
}

/// Writes the kept spans as a Chrome/Perfetto trace.
pub fn write_trace(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for r in recorders {
        for s in &r.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.call.name(),
                r.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op
            );
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}
