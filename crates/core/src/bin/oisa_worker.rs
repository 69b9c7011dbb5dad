//! `oisa_worker` — the OISA shard-worker daemon.
//!
//! Binds a TCP port and serves [`ProgramShard`]s (and handshake pings) to
//! any coordinator that connects, speaking the versioned wire schema.
//! One daemon per host is the deployment unit of a
//! [`FleetSupervisor`](oisa_core::backend::FleetSupervisor) fleet; the
//! coordinator reaches it through
//! [`TcpTransport`](oisa_core::backend::TcpTransport).
//!
//! The daemon is stateless per shard: every message carries the noise
//! epoch, fabric entry state and config fingerprint its physics needs,
//! so daemons can be restarted (or swapped) between jobs without any
//! resynchronisation, and a job retried after a crash re-executes
//! bit-identically.
//!
//! ```sh
//! oisa_worker --addr 127.0.0.1:7401 --seed 2024
//! ```
//!
//! The configuration flags must produce the **same** `OisaConfig` as
//! the coordinator's — shards carry the coordinator's fingerprint and
//! the daemon refuses mismatches (and the connect-time handshake
//! reports them before any shard is sent). Defaults match
//! `examples/multi_node.rs`.
//!
//! **Except** when the coordinator pushes its config: a `Configure`
//! message (sent by
//! [`TcpTransport::connect_with_config`](oisa_core::backend::TcpTransport::connect_with_config)
//! as it opens each connection) makes it rebuild its accelerator from
//! the pushed `OisaConfig` and serve that coordinator's physics for the
//! rest of the connection — the flags above only set the *starting*
//! config. The adoption is connection-local: a new connection starts
//! from the flag-built config again, which is why the transport pushes
//! again on every reconnect. When a connection closes cleanly the
//! daemon logs to stderr how many shards it served, how many config
//! pushes it applied, and the fingerprint it ended on.
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--addr HOST:PORT` | `127.0.0.1:0` | bind address (`:0` = ephemeral) |
//! | `--imager WxH` | `16x16` | imager dimensions |
//! | `--opc B,C,A` | `4,2,10` | OPC banks, columns, AWC units |
//! | `--seed N` | `2024` | noise seed |
//! | `--noiseless` | off | disable the noise model |
//! | `--io-timeout-ms N` | none | per-connection read/write timeout |
//! | `--fail-after-shards N` | none | **fault injection**: abort the process mid-shard after N shards |
//!
//! On startup the daemon prints exactly one line to stdout —
//! `oisa_worker listening on <addr> (config fingerprint <fp>)` — so
//! scripts can scrape the bound address; everything else goes to
//! stderr.
//!
//! [`ProgramShard`]: oisa_core::wire::ProgramShard

use std::io::Write;
use std::time::Duration;

use oisa_core::backend::{TcpWorker, WorkerOptions};
use oisa_core::{OisaConfig, OisaError};
use oisa_device::noise::NoiseConfig;

struct Args {
    addr: String,
    imager: (usize, usize),
    opc: (usize, usize, usize),
    seed: u64,
    noiseless: bool,
    io_timeout: Option<Duration>,
    fail_after_shards: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            imager: (16, 16),
            opc: (4, 2, 10),
            seed: 2024,
            noiseless: false,
            io_timeout: None,
            fail_after_shards: None,
        }
    }
}

const USAGE: &str = "usage: oisa_worker [--addr HOST:PORT] [--imager WxH] [--opc B,C,A] \
                     [--seed N] [--noiseless] [--io-timeout-ms N] [--fail-after-shards N]";

fn parse_pair(raw: &str, sep: char) -> Option<(usize, usize)> {
    let (a, b) = raw.split_once(sep)?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--imager" => {
                let raw = value("--imager")?;
                args.imager = parse_pair(&raw, 'x')
                    .ok_or_else(|| format!("--imager wants WxH, got {raw}"))?;
            }
            "--opc" => {
                let raw = value("--opc")?;
                let mut parts = raw.split(',').map(str::parse::<usize>);
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(Ok(b)), Some(Ok(c)), Some(Ok(a)), None) => args.opc = (b, c, a),
                    _ => return Err(format!("--opc wants B,C,A, got {raw}")),
                }
            }
            "--seed" => {
                let raw = value("--seed")?;
                args.seed = raw.parse().map_err(|_| format!("bad --seed {raw}"))?;
            }
            "--noiseless" => args.noiseless = true,
            "--io-timeout-ms" => {
                let raw = value("--io-timeout-ms")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("bad --io-timeout-ms {raw}"))?;
                args.io_timeout = Some(Duration::from_millis(ms));
            }
            "--fail-after-shards" => {
                let raw = value("--fail-after-shards")?;
                args.fail_after_shards = Some(
                    raw.parse()
                        .map_err(|_| format!("bad --fail-after-shards {raw}"))?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn build_config(args: &Args) -> Result<OisaConfig, OisaError> {
    OisaConfig::builder()
        .imager_dims(args.imager.0, args.imager.1)
        .opc_shape(args.opc.0, args.opc.1, args.opc.2)
        .noise(if args.noiseless {
            NoiseConfig::noiseless()
        } else {
            NoiseConfig::paper_default()
        })
        .seed(args.seed)
        .build()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("oisa_worker: {message}");
            std::process::exit(2);
        }
    };
    let config = match build_config(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("oisa_worker: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let worker = match TcpWorker::bind(config, &args.addr) {
        Ok(worker) => worker.with_options(WorkerOptions {
            io_timeout: args.io_timeout,
            fail_after_shards: args.fail_after_shards,
        }),
        Err(e) => {
            eprintln!("oisa_worker: {e}");
            std::process::exit(1);
        }
    };
    match worker.local_addr() {
        Ok(addr) => {
            // The one stdout line scripts scrape for the bound address.
            println!(
                "oisa_worker listening on {addr} (config fingerprint {:#018x})",
                config.fingerprint()
            );
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("oisa_worker: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = worker.serve() {
        eprintln!("oisa_worker: {e}");
        std::process::exit(1);
    }
}
