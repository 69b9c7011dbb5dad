//! `camera_stream`: the paper's deployment. One camera feeds 128×128
//! paper-default frames to the optical first layer (16 3×3 kernels)
//! through a `ServingEngine` over a `LocalBackend` with the default
//! `ServingConfig`.
//!
//! Closed loop, one client: it submits one `max_batch` of 8 frames,
//! waits for all 8 handles and repeats. A request is one frame. Nearly
//! all the time goes to the batch engine's MAC drain; wire, transport,
//! dense and per-shard set-up do no work here.

use std::sync::{Arc, Mutex};

use oisa_core::backend::{BackendResult, ComputeBackend, LocalBackend};
use oisa_core::serving::{ServingConfig, ServingEngine};
use oisa_core::wire::InferenceJob;
use oisa_core::{ConvolutionReport, OisaAccelerator, OisaConfig};

use crate::harness::{self, metric, BenchResult, Metrics, Outcome, Request, SimCost};
use crate::inputs::{self, Inputs, FRAME_POOL};
use crate::stats::{median, union_len};
use crate::trace::{Span, Tracer};

const SIDE: usize = 128;
const KERNELS: usize = 16;
const BATCH: usize = 8;

/// One backend call the serving engine made inside a traced window.
#[derive(Debug, Clone, Copy)]
struct Call {
    /// Stream position of the call's first frame: the serving engine
    /// keeps submission order, so frame `n` into the backend is the
    /// `n`-th submitted request.
    first: u64,
    frames: u64,
    start: u64,
    end: u64,
}

/// The `ComputeBackend` wrapper under the serving engine.
struct TracedBackend {
    inner: LocalBackend,
    tracer: Arc<Tracer>,
    frames_seen: u64,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl ComputeBackend for TracedBackend {
    fn config(&self) -> &OisaConfig {
        self.inner.config()
    }

    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        let first = self.frames_seen;
        self.frames_seen += job.frames.len() as u64;
        if !self.tracer.recording() {
            return self.inner.run_job(job);
        }
        let start = self.tracer.now();
        let result = self.inner.run_job(job);
        let end = self.tracer.now();
        self.calls.lock().expect("call log poisoned").push(Call {
            first,
            frames: job.frames.len() as u64,
            start,
            end,
        });
        result
    }
}

type Engine = ServingEngine<TracedBackend>;

/// Builds the engine and serves the warm-up request (stream frame 0).
fn set_up(
    inputs: &Inputs,
    tracer: &Arc<Tracer>,
    calls: &Arc<Mutex<Vec<Call>>>,
) -> BenchResult<(Engine, ConvolutionReport)> {
    let accel = OisaAccelerator::new(inputs.config).map_err(|e| e.to_string())?;
    let backend = TracedBackend {
        inner: LocalBackend::from_accelerator(accel),
        tracer: Arc::clone(tracer),
        frames_seen: 0,
        calls: Arc::clone(calls),
    };
    let engine =
        ServingEngine::with_backend(backend, inputs.kernels.clone(), 3, ServingConfig::default())
            .map_err(|e| e.to_string())?;
    let warm = engine
        .submit(inputs.frames[0].clone())
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|e| e.to_string())?;
    Ok((engine, warm))
}

pub fn run(seed: u64, seconds: f64, traced: bool, corrupt: bool) -> BenchResult<Outcome> {
    let inputs = inputs::conv_inputs(seed, SIDE, KERNELS);
    let frame = |seq: u64| &inputs.frames[seq as usize % FRAME_POOL];
    let tracer = Arc::new(Tracer::new());
    let calls = Arc::new(Mutex::new(Vec::new()));

    let ((engine, warm), first) = harness::timed_setup(|| set_up(&inputs, &tracer, &calls))?;
    let mut setups = vec![first];
    let mut sampled: Vec<(u64, ConvolutionReport)> = vec![(0, warm)];
    let mut last: Option<(u64, ConvolutionReport)> = None;

    let phase = harness::run_phase(&tracer, seconds, traced, |next, recording| {
        let handles: Vec<_> = (next..next + BATCH as u64)
            .map(|seq| {
                let payload = frame(seq).clone();
                let send = tracer.now();
                (seq, send, engine.submit(payload))
            })
            .collect();
        handles
            .into_iter()
            .map(|(seq, send, handle)| {
                let result = handle
                    .map_err(|e| e.to_string())
                    .and_then(|h| h.wait().map_err(|e| e.to_string()));
                let done = tracer.now();
                let ok = result.is_ok();
                if let Ok(report) = result {
                    if harness::is_checked(seq) {
                        sampled.push((seq, report));
                    } else {
                        last = Some((seq, report));
                    }
                }
                Request {
                    seq,
                    send,
                    done,
                    ok,
                    frames: 1,
                    traced: recording,
                }
            })
            .collect()
    });
    drop(engine.shutdown());
    harness::more_setups(&mut setups, || set_up(&inputs, &tracer, &calls))?;

    // Oracle check, outside the timed phase. Serving keeps submission
    // order and every frame keys its own noise epoch, so request `seq`
    // is stream frame `seq` up to the first failed request.
    let failed = phase.failed();
    let first_failed = phase
        .requests
        .iter()
        .find(|r| !r.ok)
        .map_or(u64::MAX, |r| r.seq);
    sampled.extend(last.take());
    sampled.retain(|(seq, _)| *seq < first_failed);
    let mut sim = SimCost::default();
    if corrupt {
        harness::corrupt(&mut sampled[0].1.output[0]);
    }
    for (seq, report) in &sampled {
        let oracle = harness::conv_oracle(inputs.config, &inputs.kernels, *seq, &[frame(*seq)])?;
        if !harness::conv_bits_equal(report, &oracle[0]) {
            return Err(format!(
                "camera_stream: request {seq} differs from the convolve_frame_sequential oracle"
            ));
        }
        if harness::is_checked(*seq) {
            harness::add_conv_cost(&mut sim, report);
        }
    }

    let mut notes = vec![format!(
        "shape frames={SIDE}x{SIDE} kernels={KERNELS} batch={BATCH} backend=LocalBackend"
    )];
    let metrics = if traced {
        layer_metrics(
            &inputs,
            &tracer,
            &phase,
            &calls.lock().expect("call log poisoned"),
        )?
    } else {
        harness::end_to_end(&phase, &setups, sim, &mut notes)
    };
    Ok(Outcome {
        attempted: phase.requests.len() as u64,
        failed,
        checked: sampled.len(),
        metrics,
        steal_share: phase.steal_share,
        spans: if traced { tracer.spans() } else { Vec::new() },
        notes,
    })
}

fn layer_metrics(
    inputs: &Inputs,
    tracer: &Tracer,
    phase: &harness::Phase,
    calls: &[Call],
) -> BenchResult<Metrics> {
    let traced: Vec<&Request> = phase.requests.iter().filter(|r| r.traced).collect();
    let call_of = |seq: u64| {
        calls
            .iter()
            .find(|c| (c.first..c.first + c.frames).contains(&seq))
    };
    // Per request: the serving layer holds the frame from send to the
    // start of its backend call; the accelerator runs the call.
    let mut queue_waits = Vec::new();
    let mut covered = 0u64;
    let mut total = 0u64;
    for r in &traced {
        let Some(call) = call_of(r.seq) else { continue };
        let (queue, run) = ((r.send, call.start), (call.start, call.end));
        queue_waits.push((call.start - r.send) as f64 / 1e6);
        covered += union_len(&[queue, (run.0, run.1.min(r.done))]);
        total += r.done - r.send;
        let root = tracer.new_id();
        tracer.record(Span {
            id: root,
            parent: 0,
            request: r.seq,
            name: "request",
            start: r.send,
            end: r.done,
        });
        for (name, (start, end)) in [("serving.queue", queue), ("accelerator.run_job", run)] {
            tracer.record(Span {
                id: tracer.new_id(),
                parent: root,
                request: r.seq,
                name,
                start,
                end,
            });
        }
    }
    let frames: u64 = calls.iter().map(|c| c.frames).sum();
    let busy: u64 = calls.iter().map(|c| c.end - c.start).sum();
    let window: u64 = phase
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.end - r.start)
        .sum();
    let ms_per_frame = busy as f64 / 1e6 / frames as f64;
    let ring_macs = ((SIDE - 2) * (SIDE - 2) * KERNELS * 9) as f64;

    let mut m = Metrics::new();
    m.insert(
        "serving.queue_wait_p50_ms",
        metric(median(&queue_waits), "ms", queue_waits.len()),
    );
    m.insert(
        "serving.batch_frames_mean",
        metric(frames as f64 / calls.len() as f64, "frames", calls.len()),
    );
    m.insert(
        "serving.idle_frac",
        metric(1.0 - busy as f64 / window as f64, "fraction", calls.len()),
    );
    m.insert(
        "accelerator.ms_per_frame",
        metric(ms_per_frame, "ms", frames as usize),
    );
    m.insert("optics.ring_macs_per_frame", metric(ring_macs, "count", 1));
    m.insert(
        "optics.host_ns_per_ring_mac",
        metric(ms_per_frame * 1e6 / ring_macs, "ns", frames as usize),
    );
    harness::scheduler_layer(&mut m, inputs.config, &inputs.frames[1], &inputs.kernels)?;
    m.insert(
        "trace.unattributed_frac",
        metric(
            1.0 - covered as f64 / total as f64,
            "fraction",
            traced.len(),
        ),
    );
    m.insert(
        "trace.overhead_frac",
        metric(
            harness::trace_overhead(phase),
            "fraction",
            phase.rounds.len(),
        ),
    );
    Ok(m)
}
