//! Where captured records go.
//!
//! A sink is installed per capturing thread (the cluster and its simulated
//! nodes run on one thread, so one sink sees every node's events). The
//! flight-recorder shape — a bounded ring that keeps only the newest
//! records — is the production default: always-on, fixed memory, and the
//! tail is exactly the window you want when a chaos seed trips an assert.

use crate::event::TraceRecord;

/// A destination for trace records.
pub trait TraceSink: Send {
    /// Accept one record.
    fn record(&mut self, rec: TraceRecord);
    /// Copy out everything currently retained, oldest first.
    fn drain(&mut self) -> Vec<TraceRecord>;
}

/// Bounded ring buffer: keeps the newest `capacity` records, overwriting
/// the oldest once full.
pub struct RingSink {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    wrapped: bool,
}

impl RingSink {
    /// A ring retaining at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            wrapped: false,
        }
    }

    /// How many records are currently retained.
    pub fn len(&self) -> usize {
        if self.wrapped {
            self.capacity
        } else {
            self.buf.len()
        }
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained records, oldest first, without consuming them.
    pub fn contents(&self) -> Vec<TraceRecord> {
        if !self.wrapped {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.wrapped = true;
        }
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        let out = self.contents();
        self.buf.clear();
        self.head = 0;
        self.wrapped = false;
        out
    }
}

/// Unbounded capture, for tests and exports that need the whole run.
#[derive(Default)]
pub struct VecSink {
    buf: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty capture buffer.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: TraceRecord) {
        self.buf.push(rec);
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.buf)
    }
}
