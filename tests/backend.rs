//! Cross-crate guarantees of the `ComputeBackend` seam: the coordinator
//! (`FleetSupervisor`) merging worker reports must be
//! **bit-identical** — outputs, energy, timeline, every field — to one
//! sequential per-frame loop on a single accelerator, for any worker
//! count, across multiple jobs, over any transport (in-process or real
//! TCP sockets), and when fronted by the serving engine. The TCP
//! fault-injection suite pins the failure contract: a worker lost
//! mid-job is re-planned around bit-identically; broken streams, a
//! lost last worker and unreachable endpoints surface as typed errors —
//! never hangs — and a retried job re-executes bit-identically.

use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oisa::core::backend::{
    ComputeBackend, FleetSupervisor, InProcessWorker, LocalBackend, ShardTransport,
    SupervisorOptions, TcpTransport, TcpTransportConfig, TcpWorker,
};
use oisa::core::serving::{ServingConfig, ServingEngine};
use oisa::core::wire::{self, InferenceJob, WireError};
use oisa::core::{ConvolutionReport, OisaAccelerator, OisaConfig, OisaError};
use oisa::device::noise::NoiseConfig;
use oisa::sensor::Frame;
use oisa::units::Joule;

fn noisy_config(seed: u64) -> OisaConfig {
    OisaConfig::builder()
        .imager_dims(16, 16)
        .opc_shape(4, 2, 10)
        .noise(NoiseConfig::paper_default())
        .seed(seed)
        .build()
        .expect("test config validates")
}

fn textured_frames(count: usize, salt: u64) -> Vec<Frame> {
    (0..count)
        .map(|f| {
            let data: Vec<f64> = (0..256)
                .map(|i| {
                    let phase = (i as f64 * 0.29) + (f as u64 * 3 + salt) as f64 * 1.37;
                    (0.5 + 0.5 * phase.sin()).clamp(0.0, 1.0)
                })
                .collect();
            Frame::new(16, 16, data).unwrap()
        })
        .collect()
}

fn kernel_bank(count: usize, k: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.43).sin())
                .collect()
        })
        .collect()
}

fn sequential_loop(
    accel: &mut OisaAccelerator,
    frames: &[Frame],
    kernels: &[Vec<f32>],
    k: usize,
) -> Vec<ConvolutionReport> {
    frames
        .iter()
        .map(|f| accel.convolve_frame_sequential(f, kernels, k).unwrap())
        .collect()
}

/// The acceptance property: merged shard reports across 1/2/4 workers
/// are bit-identical (outputs *and* energy totals) to
/// `convolve_frame_sequential` over the same frames — including a
/// multi-pass 3×3 workload and a VOM-aggregated 5×5 workload.
#[test]
fn shard_merge_bit_identical_to_sequential_loop_across_worker_counts() {
    let frames = textured_frames(7, 0);
    // 25 kernels → 2 passes on the 20-slot test fabric; the 5×5 bank
    // exercises the VOM aggregation path.
    let kernels3 = kernel_bank(25, 3);
    let kernels5 = kernel_bank(2, 5);
    for (kernels, k) in [(&kernels3, 3usize), (&kernels5, 5usize)] {
        let mut oracle = OisaAccelerator::new(noisy_config(42)).unwrap();
        let looped = sequential_loop(&mut oracle, &frames, kernels, k);
        let oracle_energy: Joule = looped.iter().map(|r| r.energy.total()).sum();
        for workers in [1usize, 2, 4] {
            let mut backend = FleetSupervisor::in_process(noisy_config(42), workers).unwrap();
            let job = InferenceJob {
                job_id: 1,
                k,
                kernels: kernels.clone(),
                frames: frames.clone(),
            };
            let merged = backend.run_job(&job).unwrap();
            assert_eq!(
                merged, looped,
                "k={k} workers={workers}: merged shards must equal the sequential loop"
            );
            let merged_energy: Joule = merged.iter().map(|r| r.energy.total()).sum();
            assert_eq!(
                merged_energy.get(),
                oracle_energy.get(),
                "k={k} workers={workers}: summed energy must be bit-identical"
            );
        }
    }
}

/// Consecutive jobs on one coordinator continue the epoch/fabric
/// history exactly like consecutive batches on one accelerator — even
/// when the kernel set *changes* between jobs (the second job's first
/// shard must reproduce the fabric state the first job left behind).
#[test]
fn consecutive_jobs_continue_the_stream_bit_identically() {
    let frames_a = textured_frames(5, 1);
    let frames_b = textured_frames(4, 2);
    let kernels_a = kernel_bank(3, 3);
    let kernels_b = kernel_bank(2, 3); // different set: entry state matters

    let mut oracle = OisaAccelerator::new(noisy_config(9)).unwrap();
    let looped_a = sequential_loop(&mut oracle, &frames_a, &kernels_a, 3);
    let looped_b = sequential_loop(&mut oracle, &frames_b, &kernels_b, 3);

    for workers in [2usize, 3] {
        let mut backend = FleetSupervisor::in_process(noisy_config(9), workers).unwrap();
        let job_a = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: kernels_a.clone(),
            frames: frames_a.clone(),
        };
        let job_b = InferenceJob {
            job_id: 2,
            k: 3,
            kernels: kernels_b.clone(),
            frames: frames_b.clone(),
        };
        assert_eq!(
            backend.run_job(&job_a).unwrap(),
            looped_a,
            "workers={workers} job A"
        );
        assert_eq!(
            backend.run_job(&job_b).unwrap(),
            looped_b,
            "workers={workers} job B must see job A's fabric/epoch history"
        );
        assert_eq!(backend.jobs_run(), 2);
    }
}

/// `LocalBackend` and `FleetSupervisor` are interchangeable behind the
/// trait: the same job stream produces the same bytes.
#[test]
fn local_and_sharded_backends_agree_behind_the_trait() {
    let frames = textured_frames(6, 3);
    let kernels = kernel_bank(4, 3);
    let job = |id: u64, frames: &[Frame]| InferenceJob {
        job_id: id,
        k: 3,
        kernels: kernels.clone(),
        frames: frames.to_vec(),
    };
    let mut local = LocalBackend::new(noisy_config(17)).unwrap();
    let mut sharded = FleetSupervisor::in_process(noisy_config(17), 3).unwrap();
    let (first, second) = frames.split_at(4);
    assert_eq!(
        local.run_job(&job(1, first)).unwrap(),
        sharded.run_job(&job(1, first)).unwrap()
    );
    assert_eq!(
        local.run_job(&job(2, second)).unwrap(),
        sharded.run_job(&job(2, second)).unwrap()
    );
}

/// Sharded multi-host serving: a `ServingEngine` fronting a
/// `FleetSupervisor` serves reports bit-identical to the sequential
/// loop, whatever batch shapes the queue forms.
#[test]
fn serving_over_a_sharded_backend_is_bit_identical() {
    let frames = textured_frames(9, 4);
    let kernels = kernel_bank(3, 3);
    let backend = FleetSupervisor::in_process(noisy_config(23), 2).unwrap();
    let engine = ServingEngine::with_backend(
        backend,
        kernels.clone(),
        3,
        ServingConfig {
            max_batch: 4,
            deadline: std::time::Duration::from_millis(1),
            queue_depth: 16,
        },
    )
    .unwrap();
    let handles: Vec<_> = frames
        .iter()
        .map(|f| engine.submit(f.clone()).expect("submit"))
        .collect();
    let served: Vec<ConvolutionReport> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let (backend, stats) = engine.shutdown();
    assert_eq!(stats.frames_completed, frames.len() as u64);
    assert!(backend.jobs_run() >= 1);

    let mut oracle = OisaAccelerator::new(noisy_config(23)).unwrap();
    assert_eq!(served, sequential_loop(&mut oracle, &frames, &kernels, 3));
}

// ---------------------------------------------------------------------
// TCP transport: parity
// ---------------------------------------------------------------------

/// Transport knobs for loopback tests: fail fast, never hang.
fn fast_tcp(handshake: bool) -> TcpTransportConfig {
    TcpTransportConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_secs(10)),
        attempts: 2,
        backoff: Duration::from_millis(5),
        handshake,
    }
}

/// Spawns `count` worker daemons (accept loops on background threads,
/// real loopback sockets) and returns dialable endpoints.
fn spawn_tcp_fleet(config: OisaConfig, count: usize) -> Vec<String> {
    (0..count)
        .map(|_| {
            TcpWorker::bind(config, "127.0.0.1:0")
                .expect("bind")
                .spawn()
                .expect("spawn daemon thread")
                .endpoint()
        })
        .collect()
}

/// A coordinator over `workers` with no spares and no interval health
/// sweep, so every round trip a job makes is one of its shards.
fn coordinator(config: OisaConfig, workers: Vec<Box<dyn ShardTransport>>) -> FleetSupervisor {
    let options = SupervisorOptions {
        health_interval: None,
    };
    FleetSupervisor::new(config, workers, Vec::new(), options).expect("backend")
}

fn tcp_backend(config: OisaConfig, endpoints: &[String]) -> FleetSupervisor {
    let workers = endpoints
        .iter()
        .map(|endpoint| {
            TcpTransport::connect(endpoint.clone(), config.fingerprint(), fast_tcp(true))
                .map(|t| Box::new(t) as _)
        })
        .collect::<Result<Vec<_>, _>>()
        .expect("connect fleet");
    coordinator(config, workers)
}

/// The acceptance property over real sockets: merged reports across
/// 1/2/3 TCP daemons are bit-identical to the sequential loop, across
/// two consecutive jobs (so epoch/fabric continuation crosses the
/// network too).
#[test]
fn tcp_shard_merge_bit_identical_across_worker_counts() {
    let frames_a = textured_frames(5, 7);
    let frames_b = textured_frames(4, 8);
    let kernels = kernel_bank(3, 3);
    let mut oracle = OisaAccelerator::new(noisy_config(31)).unwrap();
    let looped_a = sequential_loop(&mut oracle, &frames_a, &kernels, 3);
    let looped_b = sequential_loop(&mut oracle, &frames_b, &kernels, 3);
    for daemons in [1usize, 2, 3] {
        let endpoints = spawn_tcp_fleet(noisy_config(31), daemons);
        let mut backend = tcp_backend(noisy_config(31), &endpoints);
        let job = |id: u64, frames: &[Frame]| InferenceJob {
            job_id: id,
            k: 3,
            kernels: kernels.clone(),
            frames: frames.to_vec(),
        };
        assert_eq!(
            backend.run_job(&job(1, &frames_a)).unwrap(),
            looped_a,
            "daemons={daemons} job A over TCP"
        );
        assert_eq!(
            backend.run_job(&job(2, &frames_b)).unwrap(),
            looped_b,
            "daemons={daemons} job B over TCP continues the stream"
        );
    }
}

// ---------------------------------------------------------------------
// TCP transport: fault injection
// ---------------------------------------------------------------------

/// An adversarial "worker": accepts connections forever and hands each
/// to `behaviour` (which can truncate, stall, or hang up).
fn evil_server(behaviour: fn(std::net::TcpStream)) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || behaviour(stream));
        }
    });
    addr.to_string()
}

fn small_job(id: u64) -> InferenceJob {
    InferenceJob {
        job_id: id,
        k: 3,
        kernels: kernel_bank(2, 3),
        frames: textured_frames(2, id),
    }
}

/// A worker that dies mid-reply: the stream truncates inside a message.
/// Every retry meets the same fate, so the coordinator must give up
/// with a typed transport error whose cause names the truncation —
/// and must never hang.
#[test]
fn tcp_truncated_stream_mid_message_is_a_typed_error_not_a_hang() {
    use std::io::Write as _;
    let endpoint = evil_server(|mut stream| {
        // Consume the ENTIRE framed request first: unread request bytes
        // at close would RST the connection and could discard the
        // buffered bogus reply below, turning the deterministic
        // "truncated" cause into a racy "connection reset".
        let mut prefix = [0u8; 4];
        if stream.read_exact(&mut prefix).is_err() {
            return;
        }
        let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        // A length prefix promising 64 bytes, followed by only 8.
        let _ = stream.write_all(&64u32.to_le_bytes());
        let _ = stream.write_all(&[0u8; 8]);
        // Dropping the stream (clean FIN) cuts the reply mid-payload.
    });
    let config = noisy_config(33);
    let transport = TcpTransport::deferred(endpoint.clone(), config.fingerprint(), fast_tcp(false));
    let mut backend = coordinator(config, vec![Box::new(transport)]);
    let started = std::time::Instant::now();
    let err = backend.run_job(&small_job(1)).unwrap_err();
    match &err {
        OisaError::Transport {
            endpoint: seen,
            attempts,
            cause,
        } => {
            assert_eq!(seen, &endpoint);
            assert_eq!(*attempts, 2);
            assert!(cause.contains("truncated"), "cause was: {cause}");
        }
        other => panic!("expected a transport error, got {other}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "fault path must fail fast, took {:?}",
        started.elapsed()
    );
}

/// A worker that accepts the shard and then goes silent: the read
/// timeout must fire and surface as a typed transport error — the
/// coordinator never blocks forever on a wedged worker.
#[test]
fn tcp_unresponsive_worker_hits_the_read_timeout_not_a_hang() {
    let endpoint = evil_server(|mut stream| {
        let mut sink = [0u8; 64 * 1024];
        let _ = stream.read(&mut sink);
        std::thread::sleep(Duration::from_secs(30)); // never reply
    });
    let config = noisy_config(34);
    let options = TcpTransportConfig {
        io_timeout: Some(Duration::from_millis(200)),
        ..fast_tcp(false)
    };
    let transport = TcpTransport::deferred(endpoint, config.fingerprint(), options);
    let mut backend = coordinator(config, vec![Box::new(transport)]);
    let started = std::time::Instant::now();
    let err = backend.run_job(&small_job(2)).unwrap_err();
    assert!(
        matches!(err, OisaError::Transport { attempts: 2, .. }),
        "expected a transport error after 2 attempts, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout path must fail fast, took {:?}",
        started.elapsed()
    );
}

/// Dialing an endpoint with no listener (connection refused / connect
/// timeout territory) is a typed transport error at construction time.
#[test]
fn tcp_connect_to_an_unreachable_endpoint_is_typed_and_fast() {
    // Bind-then-drop reserves a loopback port that now refuses.
    let endpoint = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let started = std::time::Instant::now();
    let err = TcpTransport::connect(endpoint.clone(), 0, fast_tcp(true)).unwrap_err();
    match err {
        OisaError::Transport {
            endpoint: seen,
            attempts,
            ..
        } => {
            assert_eq!(seen, endpoint);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected a transport error, got {other}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// A worker daemon the test can take down and bring back at the same
/// endpoint: it serves like `TcpWorker` while `down` is clear, and
/// while it is set hangs up on every request unanswered, as a daemon
/// dying mid-request would.
fn restartable_daemon(config: OisaConfig, down: Arc<AtomicBool>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let down = Arc::clone(&down);
            std::thread::spawn(move || {
                let mut worker = InProcessWorker::new(config);
                while let Ok(Some(request)) = wire::read_frame(&mut stream) {
                    if down.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(reply) = worker.round_trip(&request) else {
                        return;
                    };
                    if wire::write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    endpoint
}

/// Workers lost mid-stream over TCP: job 1 merges across two daemons;
/// daemon B dies and job 2 still merges, re-planned onto daemon A;
/// then A dies too, and job 3 fails with A's typed transport error
/// having consumed **no** state; A restarts at the same endpoint and
/// the retried job 3 merges bit-identically to the uninterrupted
/// sequential loop.
#[test]
fn tcp_worker_death_replans_and_a_restarted_daemon_retries_bit_identically() {
    let config = noisy_config(35);
    let kernels = kernel_bank(3, 3);
    let frames_a = textured_frames(4, 11);
    let frames_b = textured_frames(5, 12);
    let frames_c = textured_frames(3, 13);
    let mut oracle = OisaAccelerator::new(config).unwrap();
    let looped_a = sequential_loop(&mut oracle, &frames_a, &kernels, 3);
    let looped_b = sequential_loop(&mut oracle, &frames_b, &kernels, 3);
    let looped_c = sequential_loop(&mut oracle, &frames_c, &kernels, 3);

    let down = [
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    ];
    let endpoints: Vec<String> = down
        .iter()
        .map(|flag| restartable_daemon(config, Arc::clone(flag)))
        .collect();
    let mut backend = tcp_backend(config, &endpoints);
    let job = |id: u64, frames: &[Frame]| InferenceJob {
        job_id: id,
        k: 3,
        kernels: kernels.clone(),
        frames: frames.to_vec(),
    };
    assert_eq!(backend.run_job(&job(1, &frames_a)).unwrap(), looped_a);

    // Daemon B dies: its shard re-plans onto A inside the same job.
    down[1].store(true, Ordering::SeqCst);
    assert_eq!(
        backend.run_job(&job(2, &frames_b)).unwrap(),
        looped_b,
        "a re-planned job must be bit-identical to the uninterrupted loop"
    );
    let status = backend.status();
    assert_eq!((status.active, status.replans), (1, 1), "{status:?}");

    // A, now the last worker, dies too: a typed error, nothing consumed.
    down[0].store(true, Ordering::SeqCst);
    let err = backend.run_job(&job(3, &frames_c)).unwrap_err();
    assert!(
        matches!(err, OisaError::Transport { ref endpoint, .. } if *endpoint == endpoints[0]),
        "expected A's transport error, got {err}"
    );
    assert_eq!(backend.jobs_run(), 2);

    // A restarts at the same endpoint: the retry on the same
    // coordinator must re-execute identically.
    down[0].store(false, Ordering::SeqCst);
    assert_eq!(
        backend.run_job(&job(3, &frames_c)).unwrap(),
        looped_c,
        "retried job must be bit-identical to the uninterrupted loop"
    );
}

/// The config-fingerprint guard over TCP, both ways it can fire: the
/// connect-time handshake reports a mismatch before any shard is sent,
/// and with the handshake disabled the worker's shard-level refusal
/// maps back to the same typed error naming both fingerprints.
#[test]
fn tcp_fingerprint_mismatch_is_typed_at_handshake_and_shard_level() {
    let worker_cfg = noisy_config(36);
    let coordinator_cfg = noisy_config(37); // different seed → different physics
    let endpoint = spawn_tcp_fleet(worker_cfg, 1).remove(0);

    // Handshake path: connect() itself names both fingerprints.
    let err = TcpTransport::connect(
        endpoint.clone(),
        coordinator_cfg.fingerprint(),
        fast_tcp(true),
    )
    .unwrap_err();
    assert_eq!(
        err,
        OisaError::FingerprintMismatch {
            coordinator: coordinator_cfg.fingerprint(),
            worker: worker_cfg.fingerprint(),
        }
    );

    // Shard path: with the handshake off, the shard reaches the worker,
    // is refused with a coded ShardRefusal, and the coordinator maps it
    // to the same typed error.
    let transport =
        TcpTransport::deferred(endpoint, coordinator_cfg.fingerprint(), fast_tcp(false));
    let mut backend = coordinator(coordinator_cfg, vec![Box::new(transport)]);
    assert_eq!(
        backend.run_job(&small_job(3)).unwrap_err(),
        OisaError::FingerprintMismatch {
            coordinator: coordinator_cfg.fingerprint(),
            worker: worker_cfg.fingerprint(),
        }
    );
}

/// A worker of another schema version answers the connect-time ping
/// with a Pong stamped v4: the handshake fails on the first attempt
/// with the typed version error, since reconnecting cannot change a
/// peer's version.
#[test]
fn tcp_connect_refuses_a_pong_of_another_schema_version_without_retrying() {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CONNECTIONS: AtomicUsize = AtomicUsize::new(0);
    let endpoint = evil_server(|mut stream| {
        CONNECTIONS.fetch_add(1, Ordering::SeqCst);
        let Ok(Some(request)) = wire::read_frame(&mut stream) else {
            return;
        };
        let Ok(wire::WireMessage::Ping(ping)) = wire::decode(&request) else {
            return;
        };
        let mut pong = wire::encode(&wire::WireMessage::Pong(ping));
        pong[2..4].copy_from_slice(&4u16.to_le_bytes());
        let _ = wire::write_frame(&mut stream, &pong);
        let _ = stream.flush();
    });
    let err = TcpTransport::connect(endpoint, 0, fast_tcp(true)).unwrap_err();
    assert_eq!(
        err,
        OisaError::Wire(WireError::UnsupportedVersion { got: 4 })
    );
    assert_eq!(CONNECTIONS.load(Ordering::SeqCst), 1, "connect retried");
}

/// A daemon accepts any number of sequential coordinator connections:
/// dropping one backend and dialing again from a fresh one works (the
/// daemon is stateless per shard, so nothing carries over but physics).
#[test]
fn tcp_daemon_serves_consecutive_coordinator_connections() {
    let config = noisy_config(38);
    let kernels = kernel_bank(2, 3);
    let frames = textured_frames(3, 13);
    let endpoint = spawn_tcp_fleet(config, 1).remove(0);
    let mut oracle = OisaAccelerator::new(config).unwrap();
    let looped = sequential_loop(&mut oracle, &frames, &kernels, 3);
    for round in 0..2 {
        let mut backend = tcp_backend(config, std::slice::from_ref(&endpoint));
        let merged = backend
            .run_job(&InferenceJob {
                job_id: round + 1,
                k: 3,
                kernels: kernels.clone(),
                frames: frames.clone(),
            })
            .unwrap();
        assert_eq!(
            merged, looped,
            "round {round}: fresh coordinator, same physics"
        );
        drop(backend); // closes the connection; the daemon keeps accepting
    }
}

/// Raw-socket check that a worker answers a handshake ping with a
/// nonce-echoing pong carrying its fingerprint — the probe any
/// load-balancer or health check can speak.
#[test]
fn tcp_worker_answers_a_raw_handshake_ping() {
    use std::io::Write as _;
    let config = noisy_config(39);
    let endpoint = spawn_tcp_fleet(config, 1).remove(0);
    let mut stream = std::net::TcpStream::connect(&endpoint).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::send(
        &mut stream,
        &wire::WireMessage::Ping(wire::Handshake {
            nonce: 99,
            config_fingerprint: config.fingerprint(),
        }),
    )
    .unwrap();
    stream.flush().unwrap();
    match wire::receive(&mut stream).unwrap() {
        Some(wire::WireMessage::Pong(pong)) => {
            assert_eq!(pong.nonce, 99);
            assert_eq!(pong.config_fingerprint, config.fingerprint());
        }
        other => panic!("expected a pong, got {other:?}"),
    }
}
