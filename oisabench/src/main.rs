//! `oisabench` — the repository's wall-clock benchmark. See README.md
//! for why each workload exists, what each metric means and which
//! optimisations should move which numbers.
//!
//! ```text
//! oisabench --workload <camera_stream|fleet_program|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--corrupt-one-output]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A result that differs from its oracle exits with code 1 and prints
//! no metrics.

mod camera;
mod fleet;
mod harness;
mod inputs;
mod shard;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{BenchResult, Metrics, Outcome};

const WORKLOADS: [&str; 2] = ["camera_stream", "fleet_program"];

const END_TO_END: [&str; 7] = [
    "frames_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "setup_s",
    "peak_rss_mb",
    "sim_energy_per_frame_nj",
    "sim_latency_per_frame_us",
];

/// Every per-layer metric with its unit. A workload on which a layer
/// does no work reports it as 0 and names it on the `not_applicable`
/// line.
const PER_LAYER: [(&str, &str); 26] = [
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.batch_frames_mean", "frames"),
    ("serving.idle_frac", "fraction"),
    ("accelerator.ms_per_frame", "ms"),
    ("accelerator.setup_ms_per_shard", "ms"),
    ("optics.ring_macs_per_frame", "count"),
    ("optics.host_ns_per_ring_mac", "ns"),
    ("program.conv_ms_per_frame", "ms"),
    ("mlp.dense_ms_per_frame", "ms"),
    ("mlp.macs_per_frame", "count"),
    ("mlp.host_ns_per_mac", "ns"),
    ("scheduler.call_us", "us"),
    ("scheduler.parallel_speedup", "ratio"),
    ("backend.self_ms_per_job", "ms"),
    ("backend.shard_skew", "ratio"),
    ("supervisor.probes_per_job", "count"),
    ("supervisor.promotions", "count"),
    ("supervisor.replans", "count"),
    ("wire.bytes_per_frame", "bytes"),
    ("wire.codec_ms_per_job", "ms"),
    ("worker.execute_ms_per_frame", "ms"),
    ("transport.round_trip_ms_p50", "ms"),
    ("tcp.overhead_ms_per_shard", "ms"),
    ("transport.failed", "count"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// One printed metric: name, value, unit.
type Row = (String, f64, String);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args(args: &[String]) -> BenchResult<Args> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--corrupt-one-output" => parsed.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn run_workload(args: &Args) -> BenchResult<Outcome> {
    let run = match args.workload.as_str() {
        "camera_stream" => camera::run,
        "fleet_program" => fleet::run,
        other => return Err(format!("no workload {other}")),
    };
    run(args.seed, args.seconds, args.trace, args.corrupt)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line. It always says `"correct":true`: a run whose
/// results differ from the oracle exits before printing one.
fn result_line(attempted: u64, failed: u64, metrics: &[Row]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// The metrics of this mode in the declared order, filling layers that
/// do no work on the workload with 0.
fn declared(args: &Args, metrics: &Metrics) -> (Vec<Row>, Vec<&'static str>) {
    let mut absent = Vec::new();
    let rows = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match metrics.get(name) {
                Some(m) => (name.to_string(), m.value, m.unit.to_string()),
                None => {
                    absent.push(name);
                    (name.to_string(), 0.0, unit.to_string())
                }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                let m = &metrics[name];
                (name.to_string(), m.value, m.unit.to_string())
            })
            .collect()
    };
    (rows, absent)
}

fn report(args: &Args, outcome: &Outcome) {
    println!(
        "oisabench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let steal = outcome
        .steal_share
        .map_or_else(|| "unknown".to_string(), |s| format!("{s:.4}"));
    println!(
        "host nproc={} worker_threads={} steal_share={steal}",
        harness::nproc(),
        harness::worker_threads()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "requests attempted={} succeeded={} failed={} failed_share={:.4} oracle_checked={}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.checked
    );
    let (rows, absent) = declared(args, &outcome.metrics);
    for (name, value, unit) in &rows {
        let samples = outcome.metrics.get(name.as_str()).map_or(0, |m| m.samples);
        println!("metric {name} = {value} {unit} (samples {samples})");
    }
    if !absent.is_empty() {
        println!("not_applicable (reported as 0): {}", absent.join(" "));
    }
    println!("{}", result_line(outcome.attempted, outcome.failed, &rows));
}

/// `--workload all`: each workload in a child process of its own, so
/// every `peak_rss_mb` is that workload's. Children run one at a time
/// and their output passes through; the first that fails ends the run
/// with a non-zero exit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("oisabench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.corrupt {
            child.arg("--corrupt-one-output");
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("oisabench: {workload} failed ({status})");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("oisabench: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oisabench: {e}");
            eprintln!(
                "usage: oisabench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_workload(&args) {
        Ok(outcome) => {
            if args.trace {
                let path = PathBuf::from(".bench_trace")
                    .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
                if let Err(e) = trace::write_jsonl(&outcome.spans, &path) {
                    eprintln!("oisabench: could not write {}: {e}", path.display());
                }
            }
            report(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("oisabench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let a = parse_args(&args(&[
            "--workload",
            "fleet_program",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_program", 9, 3.0, true)
        );
        assert!(parse_args(&args(&["--workload", "nope", "--seconds", "3"])).is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "all",
            "--seconds",
            "3",
            "--trace",
            "2"
        ]))
        .is_err());
        // The run length has one source: the caller.
        assert!(parse_args(&args(&["--workload", "fleet_program", "--seed", "9"])).is_err());
    }

    #[test]
    fn the_result_line_prints_a_non_finite_value_as_null() {
        let line = result_line(
            120,
            1,
            &[
                ("a.b".into(), 1.5, "ms".into()),
                ("c".into(), f64::INFINITY, "ms".into()),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":120,\"failed\":1,\"metrics\":\
             {\"a.b\":{\"value\":1.5,\"unit\":\"ms\"},\"c\":{\"value\":null,\"unit\":\"ms\"}}}"
        );
    }
}
