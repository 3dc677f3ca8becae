//! The benchmark's own span recorder and clock.
//!
//! Every layer is timed from outside: the workloads read [`Clock::now`]
//! around each public call they make into the program. In a traced run
//! each such interval is also kept as a [`Span`] (name, start, end, the
//! parent span, and the `(session, seq)` id the spans of one frame
//! share), held in memory and written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans kept per run; later ones are counted but not stored, so a long
/// run cannot exhaust memory.
const MAX_SPANS: usize = 400_000;

/// Monotonic nanoseconds since the run started.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the clock's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One timed call into the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call, as `layer.function`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span ([`ROOT`] for none).
    pub parent: u32,
    /// Session (or stream) the call worked for.
    pub session: u32,
    /// Frame sequence number within the session.
    pub seq: u64,
}

/// In-memory span log; recording is a no-op unless enabled.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// An empty log that records nothing until enabled.
    pub fn new() -> Self {
        Spans {
            enabled: false,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off (the traced run measures both halves).
    pub fn set_enabled(&mut self, on: bool) {
        if on && self.spans.capacity() == 0 {
            self.spans.reserve(MAX_SPANS);
        }
        self.enabled = on;
    }

    /// Records one span and returns its index ([`ROOT`] when not kept).
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        session: u32,
        seq: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() == MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            session,
            seq,
        });
        (self.spans.len() - 1) as u32
    }

    /// Spans not kept because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"session\": {}, \"seq\": {}}}",
                s.name, s.start_ns, s.end_ns, s.session, s.seq
            );
        }
        std::fs::write(path, out)
    }
}
