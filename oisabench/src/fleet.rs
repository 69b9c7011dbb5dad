//! `fleet_program`: OASIS's whole-model path over the network.
//! `ProgramJob`s of 8 paper-default frames (128×128) run
//! `LayerProgram::autoencoder` (conv → ternary → dense → ReLU, 2
//! feature maps, latent 8) through a `FleetSupervisor` over loopback
//! `TcpTransport`s to 2 in-process `TcpWorker` daemons, with a third
//! daemon as the idle spare. A request is one job.
//!
//! It exercises program prewarm, the dense path, the coordinator's
//! shard/merge, MB-scale wire messages over `backend::tcp`, per-shard
//! accelerator construction, the supervisor's fault-free path and shard
//! workers that each go wide. Serving does no work here.

use std::sync::Arc;
use std::time::Instant;

use oisa_core::backend::{
    execute_program_shard, ComputeBackend, FleetSupervisor, ShardTransport, SupervisorOptions,
    TcpTransport, TcpTransportConfig, TcpWorker,
};
use oisa_core::program::{run_reference, LayerProgram, ProgramFrameReport, Stage, StageReport};
use oisa_core::wire::{self, ProgramJob, WireMessage};
use oisa_core::{OisaAccelerator, OisaConfig};
use oisa_nn::quantize::TernaryActivation;
use oisa_sensor::frame::Frame;

use crate::harness::{self, metric, BenchResult, Metrics, Outcome, Request, SimCost};
use crate::inputs::{self, FRAME_POOL};
use crate::shard::{self, Capture, Counters, TracedTcp};
use crate::stats::median;
use crate::trace::Tracer;

const SIDE: usize = 128;
const FEATURES: usize = 2;
const LATENT: usize = 8;
const FRAMES_PER_JOB: usize = 8;
const ACTIVE: usize = 2;
const SPARES: usize = 1;

fn job(program: &LayerProgram, frames: &[Frame], seq: u64) -> ProgramJob {
    ProgramJob {
        job_id: seq,
        program: program.clone(),
        frames: (0..FRAMES_PER_JOB)
            .map(|i| frames[(seq as usize * FRAMES_PER_JOB + i) % FRAME_POOL].clone())
            .collect(),
    }
}

/// Modelled energy and latency of one program frame: the conv stage's
/// report plus the dense stage's.
fn add_program_cost(sim: &mut SimCost, r: &ProgramFrameReport) {
    let (mut energy, mut latency) = (0.0, 0.0);
    for stage in &r.stages {
        match stage {
            StageReport::Conv(c) => {
                energy += c.energy.total().get();
                latency += c.timeline.total().get();
            }
            StageReport::Dense(d) => {
                energy += d.energy.get();
                latency += d.latency.get();
            }
            StageReport::Quantize | StageReport::Activation => {}
        }
    }
    sim.add(energy, latency);
}

fn program_bits_equal(a: &[ProgramFrameReport], b: &[ProgramFrameReport]) -> bool {
    a == b
        && a.iter().zip(b).all(|(x, y)| {
            x.output
                .iter()
                .map(|v| v.to_bits())
                .eq(y.output.iter().map(|v| v.to_bits()))
                && x.stages.iter().zip(&y.stages).all(|(s, t)| match (s, t) {
                    (StageReport::Conv(c), StageReport::Conv(d)) => harness::conv_bits_equal(c, d),
                    (StageReport::Dense(c), StageReport::Dense(d)) => c
                        .output
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(d.output.iter().map(|v| v.to_bits())),
                    _ => true,
                })
        })
}

/// Spawns a daemon per worker, dials it (with the connect-time
/// handshake) and wraps the connection for tracing.
fn dial(
    config: OisaConfig,
    tracer: &Arc<Tracer>,
    counters: &Arc<Counters>,
    capture: &Capture,
) -> BenchResult<Box<dyn ShardTransport>> {
    let err = |e: oisa_core::OisaError| e.to_string();
    let daemon = TcpWorker::bind(config, "127.0.0.1:0")
        .and_then(TcpWorker::spawn)
        .map_err(err)?;
    let inner = TcpTransport::connect(
        daemon.endpoint(),
        config.fingerprint(),
        TcpTransportConfig::default(),
    )
    .map_err(err)?;
    Ok(Box::new(TracedTcp {
        inner,
        tracer: Arc::clone(tracer),
        counters: Arc::clone(counters),
        capture: Arc::clone(capture),
    }))
}

pub fn run(seed: u64, seconds: f64, traced: bool, corrupt: bool) -> BenchResult<Outcome> {
    let config = inputs::config(seed, SIDE);
    let frames = inputs::frames(seed, SIDE);
    let program = inputs::program(seed, SIDE, FEATURES, LATENT);
    let tracer = Arc::new(Tracer::new());
    let counters = Arc::new(Counters::default());
    let capture: Capture = Arc::default();

    // `TcpWorker` daemons have no stop call: each set-up's daemons keep
    // listening until the process exits. Dropping a set-up's fleet
    // closes its connections, which ends the daemons' connection
    // threads.
    let set_up = |counters: &Arc<Counters>, capture: &Capture| {
        let dial_all = |n: usize| {
            (0..n)
                .map(|_| dial(config, &tracer, counters, capture))
                .collect::<BenchResult<Vec<_>>>()
        };
        let (active, spares) = (dial_all(ACTIVE)?, dial_all(SPARES)?);
        let mut fleet = FleetSupervisor::new(config, active, spares, SupervisorOptions::default())
            .map_err(|e| e.to_string())?;
        let warm = fleet
            .run_program(&job(&program, &frames, 0))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((fleet, warm))
    };
    let ((mut fleet, warm), first) = harness::timed_setup(|| set_up(&counters, &capture))?;
    let mut setups = vec![first];
    counters.reset();

    // Request `seq`'s frames start at stream frame `base`: the frames of
    // every earlier job that succeeded (a failed job consumes none).
    let mut base = FRAMES_PER_JOB as u64;
    let mut sampled: Vec<(u64, u64, Vec<ProgramFrameReport>)> = vec![(0, 0, warm)];
    let mut last = None;
    let phase = harness::run_phase(&tracer, seconds, traced, |seq, recording| {
        let the_job = job(&program, &frames, seq);
        let (send, result, done) =
            harness::traced_call(&tracer, seq, recording, || fleet.run_program(&the_job));
        let ok = result.is_ok();
        if let Ok(reports) = result {
            if harness::is_checked(seq) {
                sampled.push((seq, base, reports));
            } else {
                last = Some((seq, base, reports));
            }
            base += FRAMES_PER_JOB as u64;
        }
        vec![Request {
            seq,
            send,
            done,
            ok,
            frames: FRAMES_PER_JOB as u64,
            traced: recording,
        }]
    });
    let status = fleet.status();
    drop(fleet);
    // Later set-ups keep their traffic out of the timed phase's counts.
    harness::more_setups(&mut setups, || set_up(&Arc::default(), &Arc::default()))?;

    // Oracle check, outside the timed phase: `program::run_reference`
    // over the job's frames at the job's base epoch.
    sampled.extend(last);
    if corrupt {
        harness::corrupt(&mut sampled[0].2[0].output);
    }
    let stride = program.epochs_per_frame();
    let mut sim = SimCost::default();
    for (seq, first, reports) in &sampled {
        let job_frames = job(&program, &frames, *seq).frames;
        let oracle = run_reference(&config, first * stride, &program, &job_frames)
            .map_err(|e| e.to_string())?;
        if !program_bits_equal(reports, &oracle) {
            return Err(format!(
                "fleet_program: job {seq} differs from the program::run_reference oracle"
            ));
        }
        if harness::is_checked(*seq) {
            for r in reports {
                add_program_cost(&mut sim, r);
            }
        }
    }

    let jobs = phase.requests.len() as u64;
    let planned = jobs * ACTIVE.min(FRAMES_PER_JOB) as u64;
    let shard_trips = Counters::get(&counters.shard_round_trips);
    let mut notes = vec![
        format!(
            "shape frames={SIDE}x{SIDE} frames_per_job={FRAMES_PER_JOB} features={FEATURES} \
             latent={LATENT} workers={ACTIVE} spares={SPARES} backend=FleetSupervisor"
        ),
        format!(
            "round_trips shard={shard_trips} ping={} failed={} retried={} \
             quarantined={} promotions={} replans={}",
            Counters::get(&counters.pings),
            Counters::get(&counters.failed),
            shard_trips.saturating_sub(planned),
            status.quarantined,
            status.promotions,
            status.replans
        ),
    ];
    let metrics = if traced {
        let mut m = layer_metrics(
            config, &program, &frames, &tracer, &phase, &counters, &capture,
        )?;
        m.insert(
            "supervisor.promotions",
            metric(status.promotions as f64, "count", 1),
        );
        m.insert(
            "supervisor.replans",
            metric(status.replans as f64, "count", 1),
        );
        m
    } else {
        harness::end_to_end(&phase, &setups, sim, &mut notes)
    };
    Ok(Outcome {
        attempted: jobs,
        failed: phase.failed(),
        checked: sampled.len(),
        metrics,
        steal_share: phase.steal_share,
        spans: if traced { tracer.spans() } else { Vec::new() },
        notes,
    })
}

fn layer_metrics(
    config: OisaConfig,
    program: &LayerProgram,
    frames: &[Frame],
    tracer: &Tracer,
    phase: &harness::Phase,
    counters: &Counters,
    capture: &Capture,
) -> BenchResult<Metrics> {
    let spans = tracer.spans();
    let mut m = Metrics::new();
    shard::backend_layer(&mut m, &spans);
    let err = |e: oisa_core::CoreError| e.to_string();

    let jobs = phase.requests.len() as f64;
    let timed_frames = jobs * FRAMES_PER_JOB as f64;
    m.insert(
        "supervisor.probes_per_job",
        metric(
            Counters::get(&counters.pings) as f64 / jobs,
            "count",
            phase.requests.len(),
        ),
    );
    m.insert(
        "wire.bytes_per_frame",
        metric(
            Counters::get(&counters.bytes) as f64 / timed_frames,
            "bytes",
            phase.requests.len(),
        ),
    );
    m.insert(
        "transport.failed",
        metric(
            Counters::get(&counters.failed) as f64,
            "count",
            phase.requests.len(),
        ),
    );
    shard::codec_layer(&mut m, capture, ACTIVE)?;

    // The daemons are opaque: replay their captured shards through the
    // calls `serve_worker` makes (decode → execute_program_shard →
    // encode), as many at once as the fleet runs them.
    let shards: Vec<Vec<u8>> = capture
        .lock()
        .expect("capture poisoned")
        .iter()
        .map(|(request, _)| request.clone())
        .collect();
    let replay = |bytes: &[u8]| -> BenchResult<(f64, f64, usize)> {
        let t0 = Instant::now();
        let Ok(WireMessage::ProgramShard(shard)) = wire::decode(bytes) else {
            return Err("captured traffic holds a non-shard request".into());
        };
        let t1 = Instant::now();
        let report = execute_program_shard(&config, &shard).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        std::hint::black_box(wire::encode(&WireMessage::ProgramReport(report)));
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        Ok((ms(t2 - t1), ms(t0.elapsed()), shard.frames.len()))
    };
    let (mut execute_ms, mut worker_ms, mut frames_run) = (Vec::new(), Vec::new(), 0usize);
    for group in shards.chunks(ACTIVE) {
        let results: Vec<_> = std::thread::scope(|scope| {
            let running: Vec<_> = group.iter().map(|b| scope.spawn(|| replay(b))).collect();
            running
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        for result in results {
            let (execute, worker, frames) = result?;
            execute_ms.push(execute / frames as f64);
            worker_ms.push(worker);
            frames_run += frames;
        }
    }
    m.insert(
        "worker.execute_ms_per_frame",
        metric(median(&execute_ms), "ms", frames_run),
    );
    let round_trip = m["transport.round_trip_ms_p50"].value;
    m.insert(
        "tcp.overhead_ms_per_shard",
        metric(round_trip - median(&worker_ms), "ms", worker_ms.len()),
    );

    // Entry points below the seams, on the workload's own inputs.
    let Some(Stage::Conv { kernels, .. }) = program.stages.first() else {
        return Err("the autoencoder starts with a conv stage".into());
    };
    let Some(Stage::Dense { rows, matrix }) = program.stages.get(2) else {
        return Err("the autoencoder's third stage is dense".into());
    };
    let setup_ms = harness::median_ms(5, || {
        OisaAccelerator::new(config).and_then(|mut a| a.prewarm_program(program))
    })?;
    m.insert("accelerator.setup_ms_per_shard", metric(setup_ms, "ms", 5));
    let mut accel = OisaAccelerator::new(config).map_err(err)?;
    accel.prewarm_program(program).map_err(err)?;
    let frame = &frames[1];
    let frame_ms = harness::median_ms(5, || accel.run_program_frame(program, frame))?;
    let conv = accel.convolve_frame(frame, kernels, 3).map_err(err)?;
    let ternary = TernaryActivation::paper_default();
    let dense_input: Vec<f64> = conv
        .output
        .concat()
        .iter()
        .map(|&v| f64::from(ternary.encode(v)))
        .collect();
    let conv_ms = harness::median_ms(5, || accel.convolve_frame(frame, kernels, 3))?;
    let dense_ms = harness::median_ms(5, || accel.dense_vector(&dense_input, matrix, *rows))?;
    let ring_macs = ((SIDE - 2) * (SIDE - 2) * kernels.len() * 9) as f64;
    let dense_macs = (*rows * dense_input.len()) as f64;
    m.insert("accelerator.ms_per_frame", metric(frame_ms, "ms", 5));
    m.insert("program.conv_ms_per_frame", metric(conv_ms, "ms", 5));
    m.insert("optics.ring_macs_per_frame", metric(ring_macs, "count", 1));
    m.insert(
        "optics.host_ns_per_ring_mac",
        metric(conv_ms * 1e6 / ring_macs, "ns", 5),
    );
    m.insert("mlp.dense_ms_per_frame", metric(dense_ms, "ms", 5));
    m.insert("mlp.macs_per_frame", metric(dense_macs, "count", 1));
    m.insert(
        "mlp.host_ns_per_mac",
        metric(dense_ms * 1e6 / dense_macs, "ns", 5),
    );
    harness::scheduler_layer(&mut m, config, frame, kernels)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_fails_the_program_comparison() {
        let config = inputs::config(5, 16);
        let program = inputs::program(5, 16, FEATURES, LATENT);
        let frames = &inputs::frames(5, 16)[..2];
        let a = run_reference(&config, 4, &program, frames).expect("reference runs");
        let mut b = run_reference(&config, 4, &program, frames).expect("reference runs");
        assert!(program_bits_equal(&a, &b));
        harness::corrupt(&mut b[1].output);
        assert!(!program_bits_equal(&a, &b));
    }
}
