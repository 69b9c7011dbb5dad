//! In-memory span recorder for the traced run.
//!
//! Spans come only from the benchmark's own wrappers around public
//! calls into the program (a `ComputeBackend` under the serving
//! engine, `ShardTransport`s around each worker, and the client's own
//! request boundaries). Each span has a name, start and end (ns since
//! the tracer was built), the span that caused it and the request it
//! belongs to. The spans are written out as JSON lines when the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: AtomicBool,
    next_id: AtomicU64,
    /// The request the client has in flight and its root span id, read
    /// by the wrappers on the worker threads the program spawns. The
    /// client runs one request (or one batch) at a time.
    request: AtomicU64,
    request_span: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            request: AtomicU64::new(0),
            request_span: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was built: the clock of every span
    /// and of every request timestamp.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// The flag publishes no other data: spans are handed over under
    /// the mutex.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks `request` as in flight under root span `span`. Worker
    /// threads read both after the program spawned them, and the spawn
    /// orders the store before their loads.
    pub fn enter_request(&self, request: u64, span: u64) {
        self.request.store(request, Ordering::Relaxed);
        self.request_span.store(span, Ordering::Relaxed);
    }

    /// `(request, root span id)` of the request in flight.
    pub fn current(&self) -> (u64, u64) {
        (
            self.request.load(Ordering::Relaxed),
            self.request_span.load(Ordering::Relaxed),
        )
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
