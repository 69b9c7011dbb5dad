//! What every workload shares: the closed-loop timed phase, the
//! end-to-end metrics, the entry-point timings behind several layer
//! metrics, and the bit-level oracle comparison.

use std::collections::BTreeMap;
use std::time::Instant;

use oisa_core::{scheduler, ConvolutionReport, OisaAccelerator, OisaConfig};
use oisa_sensor::frame::Frame;

use crate::stats::{self, nearest_rank};
use crate::trace::{Span, Tracer};

pub type BenchResult<T> = Result<T, String>;

/// Set-ups per run; `setup_s` is their median. The first serves the
/// timed phase; the rest run after it (see [`more_setups`]).
pub const SETUPS: usize = 15;
/// A timed phase lasts `--seconds` and at least this many requests, so
/// p90 always has ten samples beyond it.
pub const MIN_REQUESTS: usize = 100;
/// The traced run alternates untraced and traced windows of this
/// length, so host drift hits both halves of the overhead ratio alike.
pub const TRACE_WINDOW_S: f64 = 2.0;
/// Request indices checked against the oracle besides the final one.
/// Index 0 is the warm-up request of the set-up. They are fixed, so
/// the `sim_*` metrics computed over them repeat exactly for a seed.
pub const CHECKED: [u64; 11] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

pub fn is_checked(seq: u64) -> bool {
    CHECKED.contains(&seq)
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub seq: u64,
    /// Tracer clock (ns) when the request was sent and when its result
    /// came back.
    pub send: u64,
    pub done: u64,
    pub ok: bool,
    pub frames: u64,
    /// Sent inside a traced window.
    pub traced: bool,
}

/// One closed-loop round: a batch of frames or one job.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub start: u64,
    pub end: u64,
    pub traced: bool,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub requests: Vec<Request>,
    pub rounds: Vec<Round>,
    pub steal_share: Option<f64>,
    pub vmhwm_kb: Option<u64>,
}

fn cpu_steal() -> Option<(u64, u64)> {
    stats::parse_cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Runs closed-loop rounds until `seconds` (a traced run: at least two
/// windows) have passed and at least [`MIN_REQUESTS`] requests were sent. `round(next_seq, recording)`
/// sends the next requests, waits for all of them and returns them.
/// With `traced`, odd windows record spans and even ones do not.
pub fn run_phase(
    tracer: &Tracer,
    seconds: f64,
    traced: bool,
    mut round: impl FnMut(u64, bool) -> Vec<Request>,
) -> Phase {
    let steal_before = cpu_steal();
    let started = Instant::now();
    let mut phase = Phase::default();
    let mut next_seq = 1u64;
    // A traced run spans at least one window of each kind.
    let seconds = if traced {
        seconds.max(2.0 * TRACE_WINDOW_S)
    } else {
        seconds
    };
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= seconds && phase.requests.len() >= MIN_REQUESTS {
            break;
        }
        let recording = traced && (elapsed / TRACE_WINDOW_S) as u64 % 2 == 1;
        tracer.set_recording(recording);
        let start = tracer.now();
        let sent = round(next_seq, recording);
        let end = tracer.now();
        next_seq += sent.len() as u64;
        phase.requests.extend(sent);
        phase.rounds.push(Round {
            start,
            end,
            traced: recording,
        });
    }
    tracer.set_recording(false);
    phase.vmhwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| stats::parse_vmhwm_kb(&s));
    phase.steal_share = match (steal_before, cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    phase
}

impl Phase {
    /// Frames completed per second over rounds of one window class.
    pub fn frames_per_s(&self, traced: bool) -> f64 {
        let ns: u64 = self
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.end - r.start)
            .sum();
        let frames: u64 = self
            .requests
            .iter()
            .filter(|r| r.ok && r.traced == traced)
            .map(|r| r.frames)
            .sum();
        frames as f64 / (ns as f64 / 1e9)
    }

    /// Frames completed per second of wall clock, first send to last
    /// result.
    pub fn wall_frames_per_s(&self) -> f64 {
        let (Some(first), Some(last)) = (self.rounds.first(), self.rounds.last()) else {
            return 0.0;
        };
        let frames: u64 = self
            .requests
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.frames)
            .sum();
        frames as f64 / ((last.end - first.start) as f64 / 1e9)
    }

    pub fn failed(&self) -> u64 {
        self.requests.iter().filter(|r| !r.ok).count() as u64
    }

    /// Ascending latencies in ms; a failed request is infinite, so it
    /// counts as beyond every percentile.
    pub fn sorted_latencies_ms(&self) -> Vec<f64> {
        let mut l: Vec<f64> = self
            .requests
            .iter()
            .map(|r| {
                if r.ok {
                    (r.done - r.send) as f64 / 1e6
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        l.sort_by(f64::total_cmp);
        l
    }
}

/// A metric as printed: value, unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn metric(value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        value,
        unit,
        samples,
    }
}

/// What one workload run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Requests compared bit for bit with the oracle.
    pub checked: usize,
    /// End-to-end metrics of an untraced run, layer metrics of a traced
    /// one.
    pub metrics: Metrics,
    pub steal_share: Option<f64>,
    /// Context lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<Span>,
}

/// Modelled OISA cost of the oracle-checked frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCost {
    pub energy_nj: f64,
    pub latency_us: f64,
    pub frames: usize,
}

impl SimCost {
    pub fn add(&mut self, energy_j: f64, latency_s: f64) {
        self.energy_nj += energy_j * 1e9;
        self.latency_us += latency_s * 1e6;
        self.frames += 1;
    }
}

/// The seven end-to-end metrics of an untraced run, plus a note with
/// the highest latency percentile that has ten samples beyond it.
pub fn end_to_end(
    phase: &Phase,
    setups_s: &[f64],
    sim: SimCost,
    notes: &mut Vec<String>,
) -> Metrics {
    let latencies = phase.sorted_latencies_ms();
    let n = latencies.len();
    if let Some(q) = stats::highest_supported_percentile(n) {
        notes.push(format!(
            "latency highest_supported_percentile=p{} value={} ms (samples {n})",
            q * 100.0,
            nearest_rank(&latencies, q)
        ));
    }
    let frames: usize = phase
        .requests
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.frames as usize)
        .sum();
    let per_frame = sim.frames.max(1) as f64;
    let mut m = Metrics::new();
    m.insert(
        "frames_per_s",
        metric(phase.wall_frames_per_s(), "1/s", frames),
    );
    m.insert(
        "latency_p50_ms",
        metric(nearest_rank(&latencies, 0.5), "ms", n),
    );
    m.insert(
        "latency_p90_ms",
        metric(nearest_rank(&latencies, 0.9), "ms", n),
    );
    m.insert(
        "setup_s",
        metric(stats::median(setups_s), "s", setups_s.len()),
    );
    m.insert(
        "peak_rss_mb",
        metric(phase.vmhwm_kb.unwrap_or(0) as f64 / 1024.0, "MB", 1),
    );
    m.insert(
        "sim_energy_per_frame_nj",
        metric(sim.energy_nj / per_frame, "nJ", sim.frames),
    );
    // Modelled device time, not host wall clock: it depends only on
    // shapes and weights, so it repeats exactly and may be equal
    // across seeds.
    m.insert(
        "sim_latency_per_frame_us",
        metric(sim.latency_us / per_frame, "sim_us", sim.frames),
    );
    m
}

/// Times one set-up, in seconds.
pub fn timed_setup<T>(set_up: impl FnOnce() -> BenchResult<T>) -> BenchResult<(T, f64)> {
    let t = Instant::now();
    let built = set_up()?;
    Ok((built, t.elapsed().as_secs_f64()))
}

/// The set-ups after the first, each dropped once timed. They run after
/// the timed phase has read `VmHWM`, so their threads and buffers do
/// not count towards `peak_rss_mb`, which then shows one deployment.
pub fn more_setups<T>(
    setups: &mut Vec<f64>,
    mut set_up: impl FnMut() -> BenchResult<T>,
) -> BenchResult<()> {
    for _ in 1..SETUPS {
        let (built, secs) = timed_setup(&mut set_up)?;
        setups.push(secs);
        drop(built);
    }
    Ok(())
}

/// Median wall time of `reps` calls of `f`, in ms, or the first error
/// a call returns.
pub fn median_ms<T, E: ToString>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> BenchResult<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let out = f().map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
    }
    Ok(stats::median(&samples))
}

/// Worker threads the scheduler uses: the rule of the parallel
/// runtime (`RAYON_NUM_THREADS` when set, else the host's
/// parallelism), read without setting anything.
pub fn worker_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(nproc, |n| n.max(1))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `scheduler.call_us` and `scheduler.parallel_speedup` on the
/// workload's own frame and kernels.
pub fn scheduler_layer(
    m: &mut Metrics,
    config: OisaConfig,
    frame: &Frame,
    kernels: &[Vec<f32>],
) -> BenchResult<()> {
    let items = nproc();
    let call_ms = median_ms(201, || {
        Ok::<_, String>(scheduler::execute(vec![0u64; items], |i, x| x + i as u64))
    })?;
    m.insert("scheduler.call_us", metric(call_ms * 1e3, "us", 201));
    let mut accel = OisaAccelerator::new(config).map_err(|e| e.to_string())?;
    accel.prewarm(kernels, 3).map_err(|e| e.to_string())?;
    let sequential = median_ms(5, || accel.convolve_frame_sequential(frame, kernels, 3))?;
    let parallel = median_ms(5, || accel.convolve_frame(frame, kernels, 3))?;
    m.insert(
        "scheduler.parallel_speedup",
        metric(sequential / parallel, "ratio", 5),
    );
    Ok(())
}

/// Bit-level equality of two conv reports: every field equal and every
/// output value with the same bit pattern.
pub fn conv_bits_equal(a: &ConvolutionReport, b: &ConvolutionReport) -> bool {
    a == b
        && a.output.iter().zip(&b.output).all(|(x, y)| {
            x.iter()
                .map(|v| v.to_bits())
                .eq(y.iter().map(|v| v.to_bits()))
        })
}

/// Flips the lowest bit of the first output value: the `--corrupt-one-output`
/// self-check that a wrong result fails the run.
pub fn corrupt(values: &mut [f32]) {
    if let Some(v) = values.first_mut() {
        *v = f32::from_bits(v.to_bits() ^ 1);
    }
}

/// The per-frame `convolve_frame_sequential` loop entered at stream
/// frame `first`: a fresh accelerator, noise epochs aligned to `first`
/// and, past the first frame, the fabric in the steady state the
/// stream's kernel set leaves behind.
pub fn conv_oracle(
    config: OisaConfig,
    kernels: &[Vec<f32>],
    first: u64,
    frames: &[&Frame],
) -> BenchResult<Vec<ConvolutionReport>> {
    let mut accel = OisaAccelerator::new(config).map_err(|e| e.to_string())?;
    if first > 0 {
        accel.align_noise_epoch(first).map_err(|e| e.to_string())?;
        accel.prewarm(kernels, 3).map_err(|e| e.to_string())?;
    }
    frames
        .iter()
        .map(|f| {
            accel
                .convolve_frame_sequential(f, kernels, 3)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Accumulates a conv report's modelled energy and latency.
pub fn add_conv_cost(sim: &mut SimCost, r: &ConvolutionReport) {
    sim.add(r.energy.total().get(), r.timeline.total().get());
}

/// Times a request that is one call into the program: returns its send
/// and done instants around the result. In traced windows it records a
/// root `request` span and a `backend.call` child, under which the
/// worker wrappers hang their round trips.
pub fn traced_call<T>(
    tracer: &Tracer,
    seq: u64,
    recording: bool,
    call: impl FnOnce() -> T,
) -> (u64, T, u64) {
    let (root, call_id) = (tracer.new_id(), tracer.new_id());
    tracer.enter_request(seq, call_id);
    let send = tracer.now();
    let start = tracer.now();
    let result = call();
    let end = tracer.now();
    let done = tracer.now();
    if recording {
        for (id, parent, name, start, end) in [
            (root, 0, "request", send, done),
            (call_id, root, "backend.call", start, end),
        ] {
            tracer.record(Span {
                id,
                parent,
                request: seq,
                name,
                start,
                end,
            });
        }
    }
    (send, result, done)
}

/// `1 - traced / untraced` frames per second of the traced run.
pub fn trace_overhead(phase: &Phase) -> f64 {
    1.0 - phase.frames_per_s(true) / phase.frames_per_s(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_fails_the_conv_comparison() {
        let config = crate::inputs::config(5, 16);
        let kernels = crate::inputs::kernels(5, 2);
        let frames = crate::inputs::frames(5, 16);
        let a = conv_oracle(config, &kernels, 0, &[&frames[0]]).expect("oracle runs");
        let b = conv_oracle(config, &kernels, 0, &[&frames[0]]).expect("oracle runs");
        assert!(conv_bits_equal(&a[0], &b[0]));
        let mut bad = b[0].clone();
        corrupt(&mut bad.output[0]);
        assert!(!conv_bits_equal(&a[0], &bad));
    }
}
