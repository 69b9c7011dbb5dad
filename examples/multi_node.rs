//! Multi-node deployment: a coordinator shards inference jobs across
//! OISA worker **daemon processes** over real TCP sockets, speaking the
//! versioned wire protocol.
//!
//! This is the paper's Fig. 2 scenario grown up: instead of four
//! independent nodes each printing their own numbers, one coordinator
//! process runs a [`FleetSupervisor`] whose workers are separate OS
//! processes. Shards travel as length-prefixed [`oisa::core::wire`]
//! messages; every worker aligns its noise epochs and fabric entry
//! state from the shard message, so the merged reports are
//! **bit-identical** to one sequential per-frame loop — which the
//! example verifies before printing anything (it exits non-zero on any
//! mismatch, making it a CI check).
//!
//! ```sh
//! cargo run --release --example multi_node                   # coordinator + 3 TCP worker daemons
//! cargo run --release --example multi_node -- --connect 127.0.0.1:7401,127.0.0.1:7402
//!                                                            # externally started oisa_worker daemons
//! cargo run --release --example multi_node -- --in-process   # same wire codec, no processes
//! cargo run --release --example multi_node -- --supervisor   # self-healing drill: kill a daemon
//!                                                            # mid-job, FleetSupervisor recovers
//! ```
//!
//! The coordinator starts its daemons by re-running this binary as
//! `--worker-tcp HOST:PORT [--fail-after-shards N]`.
//!
//! The `--supervisor` mode runs the **self-healing drill**: one daemon
//! is started with `--fail-after-shards` so it aborts mid-job, and the
//! [`FleetSupervisor`] promotes a spare daemon and re-runs the failed
//! shard inside the same job call, with no manual step — the merged
//! report still matches the sequential loop bit for bit.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use oisa::core::backend::{
    ComputeBackend, FleetSupervisor, InProcessWorker, ShardTransport, SupervisorOptions,
    TcpTransport, TcpTransportConfig, TcpWorker, WorkerOptions,
};
use oisa::core::wire::InferenceJob;
use oisa::core::{ConvolutionReport, OisaAccelerator, OisaConfig, OisaError};
use oisa::device::noise::NoiseConfig;
use oisa::sensor::Frame;
use oisa::units::Joule;

const WORKERS: usize = 3;
const IMG: usize = 16;

/// The deployment configuration every process must agree on: shards
/// carry its fingerprint and workers refuse mismatches. In a real
/// fleet this ships with the deployment, out-of-band (the `oisa_worker`
/// daemon's defaults reproduce it).
fn node_config() -> OisaConfig {
    OisaConfig::builder()
        .imager_dims(IMG, IMG)
        .opc_shape(4, 2, 10)
        .noise(NoiseConfig::paper_default())
        .seed(2024)
        .build()
        .expect("deployment config validates")
}

/// Transport knobs for the loopback fleet: fail fast, retry twice.
fn transport_config() -> TcpTransportConfig {
    TcpTransportConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Some(Duration::from_secs(20)),
        attempts: 2,
        backoff: Duration::from_millis(50),
    }
}

/// First-layer kernel set, fixed for the deployment.
fn kernel_bank() -> Vec<Vec<f32>> {
    vec![
        vec![0.0, -0.5, 0.0, -0.5, 2.0, -0.5, 0.0, -0.5, 0.0], // sharpen
        vec![1.0 / 9.0; 9],                                    // blur
        vec![-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0],  // sobel-x
    ]
}

/// Frame `t` of the sensor burst: a gradient with a moving bright band.
fn capture(t: usize) -> Frame {
    let pixels: Vec<f64> = (0..IMG * IMG)
        .map(|i| {
            let row = i / IMG;
            let base = 0.15 + 0.4 * (row as f64 / IMG as f64);
            if row % 5 == t % 5 {
                (base + 0.4).min(1.0)
            } else {
                base
            }
        })
        .collect();
    Frame::new(IMG, IMG, pixels).expect("valid frame")
}

/// Bytes to ship one frame raw (8-bit pixels) vs as 2×2-pooled 4-bit
/// feature maps (the off-chip processor's next stage pools anyway, and
/// first-layer partial sums need no more precision than the 4-bit
/// weights that produced them).
///
/// Pooling an odd-sized map keeps a ragged last row/column (`ceil`,
/// matching a stride-2 pool with padding), so odd `out` must round the
/// pooled dimension *up* — flooring undercounts the uplink bytes.
fn traffic_bytes(img: usize, out: usize, kernels: usize) -> (usize, usize) {
    let raw = img * img;
    let pooled = out.div_ceil(2);
    let features = (pooled * pooled * kernels).div_ceil(2);
    (raw, features)
}

// ---------------------------------------------------------------------
// Worker daemons
// ---------------------------------------------------------------------

/// One TCP worker **daemon** process: this binary re-executed in
/// `--worker-tcp` mode, reached over a real socket. The daemon prints
/// its bound (ephemeral) address as a `LISTENING <addr>` line so the
/// coordinator can dial it.
struct TcpDaemon {
    child: Child,
    addr: String,
}

impl TcpDaemon {
    /// Spawns a daemon, optionally rigged to abort after N shards.
    fn spawn(fail_after_shards: Option<u64>) -> Result<Self, Box<dyn std::error::Error>> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.args(["--worker-tcp", "127.0.0.1:0"]);
        if let Some(limit) = fail_after_shards {
            cmd.args(["--fail-after-shards", &limit.to_string()]);
        }
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("daemon announced {line:?}, expected LISTENING <addr>"))?
            .to_string();
        Ok(Self { child, addr })
    }

    fn transport(&self, fingerprint: u64) -> Result<TcpTransport, OisaError> {
        TcpTransport::connect(self.addr.clone(), fingerprint, transport_config())
    }
}

impl Drop for TcpDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// How the coordinator reaches its workers.
#[derive(Debug, PartialEq)]
enum Fleet {
    /// Spawn `--worker-tcp` daemon processes and dial them on loopback
    /// (the real multi-host deployment shape).
    Tcp,
    /// Dial externally started `oisa_worker` daemons.
    Connect(Vec<String>),
    /// In-process workers over the same wire codec — used by the unit
    /// test, where `current_exe` is the test harness, not this example.
    InProcess,
}

impl Fleet {
    fn describe(&self) -> String {
        match self {
            Self::Tcp => format!("{WORKERS} TCP worker daemons (loopback)"),
            Self::Connect(endpoints) => {
                format!(
                    "{} external TCP daemons: {}",
                    endpoints.len(),
                    endpoints.join(", ")
                )
            }
            Self::InProcess => format!("{WORKERS} in-process workers"),
        }
    }
}

/// The dialable transports plus any daemon processes they depend on
/// (the daemons must outlive the backend that dials them).
type BuiltFleet = (Vec<Box<dyn ShardTransport>>, Vec<TcpDaemon>);

/// Builds the transports (spawning daemons as needed).
fn build_fleet(
    fleet: &Fleet,
    config: OisaConfig,
) -> Result<BuiltFleet, Box<dyn std::error::Error>> {
    match fleet {
        Fleet::Tcp => {
            let daemons: Vec<TcpDaemon> = (0..WORKERS)
                .map(|_| TcpDaemon::spawn(None))
                .collect::<Result<_, _>>()?;
            let workers = daemons
                .iter()
                .map(|d| {
                    d.transport(config.fingerprint())
                        .map(|t| Box::new(t) as Box<dyn ShardTransport>)
                })
                .collect::<Result<_, _>>()?;
            Ok((workers, daemons))
        }
        Fleet::Connect(endpoints) => {
            let workers = endpoints
                .iter()
                .map(|endpoint| {
                    TcpTransport::connect(
                        endpoint.clone(),
                        config.fingerprint(),
                        transport_config(),
                    )
                    .map(|t| Box::new(t) as Box<dyn ShardTransport>)
                })
                .collect::<Result<_, _>>()?;
            Ok((workers, Vec::new()))
        }
        Fleet::InProcess => {
            let workers = (0..WORKERS)
                .map(|_| Box::new(InProcessWorker::new(config)) as Box<dyn ShardTransport>)
                .collect();
            Ok((workers, Vec::new()))
        }
    }
}

fn run_coordinator(fleet: &Fleet) -> Result<(), Box<dyn std::error::Error>> {
    let config = node_config();
    let kernels = kernel_bank();
    let (workers, _daemons) = build_fleet(fleet, config)?;
    let worker_count = workers.len();
    let mut backend =
        FleetSupervisor::new(config, workers, Vec::new(), SupervisorOptions::default())?;

    println!("OISA multi-node coordinator ({})", fleet.describe());
    println!("==============================================\n");
    println!(
        "deployment: {IMG}x{IMG} imager, {} kernels, config fingerprint {:#018x}\n",
        kernels.len(),
        config.fingerprint()
    );

    // Two bursts, so the second job exercises epoch/fabric continuation
    // across jobs — each shard of each burst lands on a different
    // worker with nothing but its wire message.
    let bursts: [Vec<Frame>; 2] = [
        (0..10).map(capture).collect(),
        (10..16).map(capture).collect(),
    ];
    let mut oracle = OisaAccelerator::new(config)?;
    let mut total_energy = Joule::ZERO;
    let mut total_raw = 0usize;
    let mut total_features = 0usize;
    for (b, frames) in bursts.iter().enumerate() {
        let job = InferenceJob {
            job_id: b as u64 + 1,
            k: 3,
            kernels: kernels.clone(),
            frames: frames.clone(),
        };
        let merged = backend.run_job(&job)?;

        // The acceptance check: merged shards must equal one
        // sequential per-frame loop, bit for bit.
        let looped: Vec<ConvolutionReport> = frames
            .iter()
            .map(|f| oracle.convolve_frame_sequential(f, &kernels, 3))
            .collect::<Result<_, _>>()?;
        assert_eq!(
            merged, looped,
            "burst {b}: sharded reports must be bit-identical to the sequential loop"
        );

        let energy: Joule = merged.iter().map(|r| r.energy.total()).sum();
        total_energy += energy;
        for report in &merged {
            let (raw, features) = traffic_bytes(IMG, report.out_h, kernels.len());
            total_raw += raw;
            total_features += features;
        }
        println!(
            "burst {b}: {} frames over {} shards -> {} reports, energy {energy:.3} \
             (bit-identical to the sequential loop)",
            frames.len(),
            worker_count.min(frames.len()),
            merged.len()
        );
    }

    println!("\nfleet totals:");
    println!("  jobs merged      : {}", backend.jobs_run());
    println!("  energy           : {total_energy:.3}");
    println!(
        "  uplink traffic   : {total_features} B pooled features vs {total_raw} B raw ({:.1}x)",
        total_raw as f64 / total_features as f64
    );
    println!("  (workers ship first-layer features, not pixels — the paper's thing-centric");
    println!("   shift: conversion and transmission power stay in-sensor)");
    println!("\ndeterminism: all merged reports bit-identical to the sequential loop");
    Ok(())
}

/// The self-healing drill: daemon 1 is rigged to abort mid-job. A
/// [`FleetSupervisor`] owns the fleet plus one spare daemon; when the
/// rigged daemon aborts it quarantines it, promotes the spare and
/// re-runs the failed shard — the job call that observed the death
/// still **returns the merged result**, bit-identical to the
/// sequential loop, with no manual step.
fn run_supervisor_drill() -> Result<(), Box<dyn std::error::Error>> {
    println!("self-healing drill (FleetSupervisor, kill a daemon mid-job)");
    println!("-----------------------------------------------------------");
    let config = node_config();
    let kernels = kernel_bank();
    // Daemon 1 serves exactly one shard, then aborts on its next one;
    // one healthy daemon waits on the bench as a spare.
    let daemons = [
        TcpDaemon::spawn(None)?,
        TcpDaemon::spawn(Some(1))?,
        TcpDaemon::spawn(None)?,
    ];
    let spare_daemon = TcpDaemon::spawn(None)?;
    let active: Vec<Box<dyn ShardTransport>> = daemons
        .iter()
        .map(|d| {
            d.transport(config.fingerprint())
                .map(|t| Box::new(t) as Box<dyn ShardTransport>)
        })
        .collect::<Result<_, _>>()?;
    let spares: Vec<Box<dyn ShardTransport>> =
        vec![Box::new(spare_daemon.transport(config.fingerprint())?)];
    let mut supervisor =
        FleetSupervisor::new(config, active, spares, SupervisorOptions::default())?;

    let bursts: [Vec<Frame>; 2] = [
        (0..6).map(capture).collect(),
        (6..12).map(capture).collect(),
    ];
    let mut oracle = OisaAccelerator::new(config)?;
    let oracle_reports: Vec<Vec<ConvolutionReport>> = bursts
        .iter()
        .map(|frames| {
            frames
                .iter()
                .map(|f| oracle.convolve_frame_sequential(f, &kernels, 3))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;

    // Job 1 merges clean — and consumes the doomed daemon's one-shard
    // budget (health-check pings don't count; only shards do).
    let job1 = InferenceJob {
        job_id: 1,
        k: 3,
        kernels: kernels.clone(),
        frames: bursts[0].clone(),
    };
    assert_eq!(
        supervisor.run_job(&job1)?,
        oracle_reports[0],
        "burst 0 parity"
    );
    println!("job 1: merged clean across 3 daemons (doomed budget now spent)");

    // Job 2: daemon 1 aborts mid-job. The *same call* must come back
    // Ok: the supervisor quarantines the corpse, promotes the spare and
    // re-runs the failed shard. No repair step, no retry loop here.
    let job2 = InferenceJob {
        job_id: 2,
        k: 3,
        kernels: kernels.clone(),
        frames: bursts[1].clone(),
    };
    let merged = supervisor.run_job(&job2)?;
    assert_eq!(
        merged, oracle_reports[1],
        "self-healed job must be bit-identical to the uninterrupted sequential loop"
    );

    let status = supervisor.status();
    assert_eq!(status.promotions, 1, "exactly one spare promotion");
    assert_eq!(status.replans, 0, "a spare was available, so no shrink");
    assert_eq!(status.active, 3, "fleet back at full strength");
    assert_eq!(status.spares, 0, "the bench is empty");
    for event in supervisor.quarantine_log() {
        println!("quarantined: {} ({})", event.label, event.error);
    }
    println!(
        "job 2: daemon died mid-job, supervisor promoted the spare and re-ran the shard \
         — merged result bit-identical, zero manual intervention"
    );
    Ok(())
}

const USAGE: &str = "usage: multi_node [--connect HOST:PORT,... | --in-process | --supervisor | \
                     --worker-tcp HOST:PORT [--fail-after-shards N]]";

/// What one invocation runs: a worker, the self-healing drill, or a
/// coordinator over a fleet.
#[derive(Debug, PartialEq)]
enum Mode {
    /// `--worker-tcp ADDR [--fail-after-shards N]`: a TCP worker daemon.
    WorkerTcp {
        addr: String,
        fail_after_shards: Option<u64>,
    },
    /// `--supervisor`: the self-healing drill.
    Supervisor,
    /// `--connect A,B`, `--in-process` or no flag at all.
    Coordinator(Fleet),
}

/// Parses the arguments after the program name into one [`Mode`]: one
/// mode flag with its values, or none for the default TCP daemon fleet.
/// Anything else — an unknown flag, a missing or malformed value, a
/// second mode — is an error naming the arguments.
fn parse_mode(args: &[String]) -> Result<Mode, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    Ok(match args.as_slice() {
        [] => Mode::Coordinator(Fleet::Tcp),
        ["--in-process"] => Mode::Coordinator(Fleet::InProcess),
        ["--connect", endpoints] => Mode::Coordinator(Fleet::Connect(
            endpoints.split(',').map(str::to_string).collect(),
        )),
        ["--supervisor"] => Mode::Supervisor,
        ["--worker-tcp", addr] => Mode::WorkerTcp {
            addr: (*addr).to_string(),
            fail_after_shards: None,
        },
        ["--worker-tcp", addr, "--fail-after-shards", limit] => Mode::WorkerTcp {
            addr: (*addr).to_string(),
            fail_after_shards: Some(
                limit
                    .parse()
                    .map_err(|_| format!("bad --fail-after-shards {limit}"))?,
            ),
        },
        _ => return Err(format!("unrecognised arguments {args:?}")),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_mode(&args).unwrap_or_else(|reason| {
        eprintln!("multi_node: {reason}\n{USAGE}");
        std::process::exit(2);
    });
    match mode {
        Mode::WorkerTcp {
            addr,
            fail_after_shards,
        } => {
            // TCP worker daemon mode: bind, announce, serve until killed.
            let worker = TcpWorker::bind(node_config(), &addr)?.with_options(WorkerOptions {
                io_timeout: None,
                fail_after_shards,
            });
            println!("LISTENING {}", worker.local_addr()?);
            std::io::stdout().flush()?;
            worker.serve()?;
        }
        Mode::Supervisor => run_supervisor_drill()?,
        Mode::Coordinator(fleet) => run_coordinator(&fleet)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(args: &[&str]) -> Result<Mode, String> {
        parse_mode(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        for args in [
            &["--interop"][..],
            &["--connect"],
            &["--in-process", "--bogus"],
            &["--tcp"],
            &["--worker"],
            &["--worker-tcp"],
            &["--worker-tcp", "127.0.0.1:0", "--fail-after-shards"],
            &["--worker-tcp", "127.0.0.1:0", "--fail-after-shards", "two"],
            &["--worker-tcp", "127.0.0.1:0", "--seed", "3"],
        ] {
            assert!(mode(args).is_err(), "{args:?} must be refused");
        }
    }

    #[test]
    fn each_mode_parses_to_its_run() {
        assert_eq!(mode(&[]), Ok(Mode::Coordinator(Fleet::Tcp)));
        assert_eq!(
            mode(&["--connect", "a,b"]),
            Ok(Mode::Coordinator(Fleet::Connect(vec![
                "a".into(),
                "b".into()
            ])))
        );
        assert_eq!(
            mode(&["--worker-tcp", "127.0.0.1:0", "--fail-after-shards", "2"]),
            Ok(Mode::WorkerTcp {
                addr: "127.0.0.1:0".into(),
                fail_after_shards: Some(2),
            })
        );
        assert_eq!(
            mode(&["--in-process"]),
            Ok(Mode::Coordinator(Fleet::InProcess))
        );
        assert_eq!(mode(&["--supervisor"]), Ok(Mode::Supervisor));
    }

    #[test]
    fn traffic_bytes_covers_odd_pooled_outputs() {
        // 16×16 input, 3×3 kernel → out = 14 (even): 7×7 pooled, 3
        // maps at 4 bits → ceil(147/2) = 74 B.
        assert_eq!(traffic_bytes(16, 14, 3), (256, 74));
        // 15×15 input, 3×3 kernel → out = 13 (odd): the pool keeps a
        // ragged 7th row/column, so 7×7×3 nibbles again — a floored
        // 6×6 would undercount by 20 bytes.
        assert_eq!(traffic_bytes(15, 13, 3), (225, 74));
        // Degenerate 1×1 output still ships one nibble.
        assert_eq!(traffic_bytes(3, 1, 1), (9, 1));
    }

    /// The coordinator's full pipeline — shard, dispatch over the wire,
    /// merge, verify parity — with in-process workers (the test
    /// harness binary cannot re-exec itself as `--worker-tcp`; CI runs
    /// the example binary itself for the real daemon processes).
    #[test]
    fn coordinator_demo_runs_and_verifies() {
        run_coordinator(&Fleet::InProcess).expect("multi_node coordinator");
    }

    /// The same coordinator pipeline over real loopback sockets:
    /// in-process daemon threads stand in for the `--worker-tcp`
    /// processes CI exercises via the example binary.
    #[test]
    fn coordinator_demo_runs_over_tcp_daemon_threads() {
        let config = node_config();
        let daemons: Vec<_> = (0..2)
            .map(|_| {
                TcpWorker::bind(config, "127.0.0.1:0")
                    .expect("bind")
                    .spawn()
                    .expect("spawn")
            })
            .collect();
        let endpoints = daemons.iter().map(|d| d.endpoint()).collect();
        run_coordinator(&Fleet::Connect(endpoints)).expect("multi_node over TCP");
    }
}
