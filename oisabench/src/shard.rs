//! Shard traffic of the sharded workload: the `ShardTransport` wrapper
//! around each TCP connection, its counters and captured bytes, and the
//! layer metrics read from its spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use oisa_core::backend::{BackendResult, ShardTransport, TcpTransport};
use oisa_core::wire::{self, WireMessage};

use crate::harness::{self, metric, BenchResult, Metrics};
use crate::stats::{median, self_time};
use crate::trace::{Span, Tracer};

/// Counters kept on every round trip, traced or not.
#[derive(Debug, Default)]
pub struct Counters {
    pub shard_round_trips: AtomicU64,
    pub pings: AtomicU64,
    pub failed: AtomicU64,
    /// Request and reply bytes of every answered round trip.
    pub bytes: AtomicU64,
}

impl Counters {
    pub fn reset(&self) {
        for c in [
            &self.shard_round_trips,
            &self.pings,
            &self.failed,
            &self.bytes,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// Span name of one shard's round trip; pings are `transport.ping`.
pub const ROUND_TRIP: &str = "transport.round_trip";

/// The latest traced shard request/reply pairs, kept for the codec
/// replay after the timed phase.
pub type Capture = Arc<Mutex<Vec<(Vec<u8>, Vec<u8>)>>>;
const CAPTURED: usize = 8;

fn keep(capture: &Capture, request: &[u8], reply: &[u8]) {
    let mut c = capture.lock().expect("capture poisoned");
    if c.len() == CAPTURED {
        c.remove(0);
    }
    c.push((request.to_vec(), reply.to_vec()));
}

/// Control messages (pings) are a few dozen bytes; shards carry frames
/// and weights. Only messages shorter than this are decoded, so shard
/// traffic pays nothing for the classification.
const CONTROL_BYTES: usize = 1024;

/// The `ShardTransport` wrapper around each TCP connection. The daemon
/// behind it is opaque: the round trip is the span, and traced shard
/// bytes are kept for replay after the timed phase.
pub struct TracedTcp {
    pub inner: TcpTransport,
    pub tracer: Arc<Tracer>,
    pub counters: Arc<Counters>,
    pub capture: Capture,
}

impl ShardTransport for TracedTcp {
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
        let ping = message.len() < CONTROL_BYTES
            && matches!(wire::decode(message), Ok(WireMessage::Ping(_)));
        let start = self.tracer.now();
        let result = self.inner.round_trip(message);
        let end = self.tracer.now();
        // A refusal travels inside an `Ok` reply and fails the job, so it
        // shows as a failed request; only broken round trips count here.
        let kind = if ping {
            &self.counters.pings
        } else {
            &self.counters.shard_round_trips
        };
        kind.fetch_add(1, Ordering::Relaxed);
        match &result {
            Err(_) => self.counters.failed.fetch_add(1, Ordering::Relaxed),
            Ok(reply) => self
                .counters
                .bytes
                .fetch_add((message.len() + reply.len()) as u64, Ordering::Relaxed),
        };
        if self.tracer.recording() {
            let (request, parent) = self.tracer.current();
            self.tracer.record(Span {
                id: self.tracer.new_id(),
                parent,
                request,
                name: if ping { "transport.ping" } else { ROUND_TRIP },
                start,
                end,
            });
            if let (Ok(reply), false) = (&result, ping) {
                keep(&self.capture, message, reply);
            }
        }
        result
    }

    fn endpoint_label(&self) -> String {
        self.inner.endpoint_label()
    }
}

/// Per-job coordinator self time and shard skew from the traced spans
/// (the backend call minus the time any round trip of that job is in
/// flight; the slowest over the mean shard round trip), the shard
/// round-trip median and the share of request time no span covers.
pub fn backend_layer(m: &mut Metrics, spans: &[Span]) {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut trips: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("transport.")) {
        trips.entry(s.parent).or_default().push(s);
    }
    let mut self_ms = Vec::new();
    let mut skews = Vec::new();
    let mut trips_ms = Vec::new();
    let (mut uncovered, mut total) = (0u64, 0u64);
    for call in spans.iter().filter(|s| s.name == "backend.call") {
        let Some(root) = by_id.get(&call.parent) else {
            continue;
        };
        uncovered += self_time(root.interval(), &[call.interval()]);
        total += root.end - root.start;
        let children = trips.get(&call.id).map_or(&[][..], Vec::as_slice);
        let intervals: Vec<(u64, u64)> = children.iter().map(|s| s.interval()).collect();
        self_ms.push(self_time(call.interval(), &intervals) as f64 / 1e6);
        let shard: Vec<f64> = children
            .iter()
            .filter(|s| s.name == ROUND_TRIP)
            .map(|s| s.ms())
            .collect();
        if shard.len() > 1 {
            let mean = shard.iter().sum::<f64>() / shard.len() as f64;
            skews.push(shard.iter().copied().fold(0.0, f64::max) / mean);
        }
        trips_ms.extend(shard);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.insert(
        "backend.self_ms_per_job",
        metric(mean(&self_ms), "ms", self_ms.len()),
    );
    m.insert(
        "backend.shard_skew",
        metric(mean(&skews), "ratio", skews.len()),
    );
    m.insert(
        "transport.round_trip_ms_p50",
        metric(median(&trips_ms), "ms", trips_ms.len()),
    );
    m.insert(
        "trace.unattributed_frac",
        metric(
            uncovered as f64 / total.max(1) as f64,
            "fraction",
            self_ms.len(),
        ),
    );
}

/// `wire.codec_ms_per_job` by replaying captured traffic: for each
/// shard of a job, decode and re-encode its request and its reply.
pub fn codec_layer(m: &mut Metrics, capture: &Capture, shards_per_job: usize) -> BenchResult<()> {
    let pairs = capture.lock().expect("capture poisoned").clone();
    let per_shard = harness::median_ms(5, || {
        for (request, reply) in &pairs {
            for bytes in [request, reply] {
                std::hint::black_box(wire::encode(&wire::decode(bytes)?));
            }
        }
        Ok::<_, wire::WireError>(())
    })? / pairs.len().max(1) as f64;
    m.insert(
        "wire.codec_ms_per_job",
        metric(per_shard * shards_per_job as f64, "ms", pairs.len()),
    );
    Ok(())
}
