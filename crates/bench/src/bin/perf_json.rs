//! Machine-readable performance benchmark for the optical hot paths.
//!
//! Emits one `BENCH JSON` document on stdout so CI (and future PRs) can
//! track the perf trajectory without parsing human-oriented tables:
//!
//! ```text
//! BENCH JSON {"workload":{...},"wall_clock_ms":{...},"speedup":{...},...}
//! ```
//!
//! Three pipelines run the same 128×128, 16-kernel, 3×3 convolution
//! under the paper noise model:
//!
//! * `parallel` — [`OisaAccelerator::convolve_frame`]: counter-based
//!   noise streams, fused allocation-free MACs, row-parallel.
//! * `sequential` — the single-threaded twin (bit-identical output).
//! * `reference` — the faithful pre-optimisation pipeline
//!   ([`OisaAccelerator::convolve_frame_reference`]), the baseline the
//!   acceptance speedup is measured against.
//!
//! On top of that, the batched engine runs an 8-frame batch through
//! [`OisaAccelerator::convolve_frames`] against a per-frame loop
//! (`frames_per_sec_batch`), the serving front end pushes the same
//! frames through [`ServingEngine`] submission → completion
//! (`frames_per_sec_serving`, plus queue-wait percentiles and the
//! batch-size histogram in the `serving` block), the sharded backend
//! splits the same job over in-process wire workers
//! (`frames_per_sec_backend_shard` and the `backend_shard` block —
//! the coordination cost a multi-host split pays), the TCP transport
//! runs the same split over real loopback sockets to worker daemons
//! (`frames_per_sec_backend_tcp` and the `backend_tcp` block — the
//! socket/handshake overhead on top of the wire codec), a whole
//! **layer program** — the autoencoder encoder, conv → ternary
//! quantize → dense → ReLU — runs end-to-end through the sharded
//! backend (`frames_per_sec_program` and the `program` block — the
//! cost of a whole-model job over the first layer alone), a
//! `FleetSupervisor` fleet loses a worker mid-job and self-heals (the
//! `supervisor_failover_ms` block: wall clock from the injected kill
//! to the merged job completion, tracked for presence, not
//! value-gated), and the dense path times [`matvec_parallel`] against
//! serial [`matvec`] on a 256-row layer (`matvec_rows_per_sec`).
//!
//! Flags:
//!
//! * `--quick` — fewer repetitions (CI smoke mode).
//! * `--gate <baseline.json>` — regression gate
//!   ([`oisa_bench::gate`]): exit non-zero, with an actionable message,
//!   when any headline throughput (`frames_per_sec`,
//!   `frames_per_sec_batch`, `frames_per_sec_serving`,
//!   `frames_per_sec_backend_shard`, `frames_per_sec_backend_tcp`,
//!   `frames_per_sec_program`)
//!   drops more than
//!   15 % below the committed baseline, when the baseline file is
//!   unreadable, or when it lacks a headline metric this run emits.
//!   Regenerate the baseline (`bench/baseline.json`) whenever the CI
//!   hardware changes — the gate compares wall-clock throughput, not
//!   machine-neutral ratios.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oisa_bench::gate::{self, Metric};
use oisa_core::backend::{
    ComputeBackend, FleetSupervisor, InProcessWorker, ShardTransport, ShardedBackend,
    SupervisorOptions, TcpTransport, TcpTransportConfig, TcpWorker,
};
use oisa_core::mlp::{matvec, matvec_parallel};
use oisa_core::program::{run_reference, LayerProgram};
use oisa_core::serving::{ServingConfig, ServingEngine};
use oisa_core::wire::{self, InferenceJob, ProgramJob, WireMessage};
use oisa_core::{OisaAccelerator, OisaConfig, OisaError};
use oisa_device::noise::{NoiseConfig, NoiseSource};
use oisa_nn::conv::Conv2d;
use oisa_nn::layer::Layer;
use oisa_nn::tensor::Tensor;
use oisa_optics::arm::{Arm, ArmConfig, COUNTER_STRIDE};
use oisa_optics::opc::{Opc, OpcConfig};
use oisa_optics::vom::{Vom, VomConfig};
use oisa_optics::weights::WeightMapper;
use oisa_sensor::frame::Frame;

/// A deterministic "natural-ish" test frame: radial vignette over a
/// diagonal gradient with a bright blob, so the ternary encoder emits a
/// realistic mix of zero / mid / full activations. `phase` shifts the
/// blob so batch frames differ.
fn test_frame(side: usize, phase: usize) -> Frame {
    let mut data = vec![0.0f64; side * side];
    let c = side as f64 / 2.0;
    let shift = phase as f64 * 0.07;
    for y in 0..side {
        for x in 0..side {
            let dx = (x as f64 - c) / c;
            let dy = (y as f64 - c) / c;
            let vignette = (1.0 - 0.8 * (dx * dx + dy * dy)).max(0.0);
            let gradient = (x + y) as f64 / (2.0 * side as f64);
            let blob = (-8.0 * ((dx - 0.3 + shift).powi(2) + (dy + 0.2 - shift).powi(2))).exp();
            data[y * side + x] = (0.55 * gradient * vignette + 0.6 * blob).clamp(0.0, 1.0);
        }
    }
    Frame::new(side, side, data).expect("frame construction")
}

/// Deterministic kernel bank: oriented edge/texture filters.
fn test_kernels(count: usize, k: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                .collect()
        })
        .collect()
}

fn median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args.get(i + 1).expect("--gate needs a path").clone());
    let reps = if quick { 2 } else { 5 };
    let side = 128usize;
    let kernels = 16usize;
    let k = 3usize;
    let batch = 8usize;

    let frame = test_frame(side, 0);
    let banks = test_kernels(kernels, k);
    let mut cfg = OisaConfig::paper_default(side, side);
    cfg.seed = 42;

    let mut accel = OisaAccelerator::new(cfg).expect("accelerator construction");

    // Correctness gates before timing anything: the parallel pipeline
    // must be bit-identical to its sequential twin, and the batch
    // engine to the per-frame sequential loop, under the seed.
    let par = accel
        .convolve_frame(&frame, &banks, k)
        .expect("parallel run");
    let mut accel_seq = OisaAccelerator::new(cfg).expect("accelerator construction");
    let seq = accel_seq
        .convolve_frame_sequential(&frame, &banks, k)
        .expect("sequential run");
    assert_eq!(
        par.output, seq.output,
        "parallel output must be bit-identical"
    );
    assert_eq!(
        par.energy, seq.energy,
        "parallel energy must be bit-identical"
    );

    let batch_frames: Vec<Frame> = (0..batch).map(|i| test_frame(side, i)).collect();
    // The oracle every engine is gated against: a per-frame sequential
    // loop on an identically-seeded accelerator.
    let looped: Vec<_> = {
        let mut oracle = OisaAccelerator::new(cfg).expect("accelerator construction");
        batch_frames
            .iter()
            .map(|f| {
                oracle
                    .convolve_frame_sequential(f, &banks, k)
                    .expect("loop run")
            })
            .collect()
    };
    {
        let mut a = OisaAccelerator::new(cfg).expect("accelerator construction");
        let batched = a
            .convolve_frames(&batch_frames, &banks, k)
            .expect("batch run");
        assert_eq!(batched, looped, "batch must equal the per-frame loop");
    }

    let parallel_ms = median_ms(reps, || {
        let r = accel
            .convolve_frame(&frame, &banks, k)
            .expect("parallel run");
        std::hint::black_box(r.output[0][0]);
    });
    let sequential_ms = median_ms(reps, || {
        let r = accel
            .convolve_frame_sequential(&frame, &banks, k)
            .expect("sequential run");
        std::hint::black_box(r.output[0][0]);
    });
    let reference_ms = median_ms(reps, || {
        let r = accel
            .convolve_frame_reference(&frame, &banks, k)
            .expect("reference run");
        std::hint::black_box(r.output[0][0]);
    });

    // Batched engine vs a per-frame loop over the same frames.
    let batch_ms = median_ms(reps, || {
        let r = accel
            .convolve_frames(&batch_frames, &banks, k)
            .expect("batch run");
        std::hint::black_box(r[0].output[0][0]);
    });
    let frame_loop_ms = median_ms(reps, || {
        for f in &batch_frames {
            let r = accel.convolve_frame(f, &banks, k).expect("loop run");
            std::hint::black_box(r.output[0][0]);
        }
    });

    // Serving front end: the same 8 frames pushed through submission →
    // completion handles. One long-lived engine serves every rep, as a
    // deployment would; the wall clock includes queueing and batch
    // formation, so `frames_per_sec_serving` vs `frames_per_sec_batch`
    // is the serving overhead.
    let serving_cfg = ServingConfig {
        max_batch: batch,
        deadline: Duration::from_millis(2),
        queue_depth: 2 * batch,
    };
    {
        // Correctness gate: served reports must be bit-identical to the
        // per-frame sequential loop.
        let engine = ServingEngine::new(
            OisaAccelerator::new(cfg).expect("accelerator construction"),
            banks.clone(),
            k,
            serving_cfg,
        )
        .expect("serving engine construction");
        let handles: Vec<_> = batch_frames
            .iter()
            .map(|f| engine.submit(f.clone()).expect("serving submit"))
            .collect();
        let served: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("serving run"))
            .collect();
        let mut oracle = OisaAccelerator::new(cfg).expect("accelerator construction");
        let looped: Vec<_> = batch_frames
            .iter()
            .map(|f| {
                oracle
                    .convolve_frame_sequential(f, &banks, k)
                    .expect("loop run")
            })
            .collect();
        assert_eq!(served, looped, "serving must equal the per-frame loop");
    }
    let serving_engine = ServingEngine::new(
        OisaAccelerator::new(cfg).expect("accelerator construction"),
        banks.clone(),
        k,
        serving_cfg,
    )
    .expect("serving engine construction");
    let serving_ms = median_ms(reps, || {
        let handles: Vec<_> = batch_frames
            .iter()
            .map(|f| serving_engine.submit(f.clone()).expect("serving submit"))
            .collect();
        for h in handles {
            std::hint::black_box(h.wait().expect("serving run").output[0][0]);
        }
    });
    let (_serving_backend, serving_stats) = serving_engine.shutdown();

    // Sharded backend: the same 8 frames split over in-process workers
    // speaking the full wire path (encode → frame → decode → execute →
    // merge), vs the batch engine on one accelerator. The gap between
    // `frames_per_sec_backend_shard` and `frames_per_sec_batch` is the
    // coordination overhead a multi-host split pays per job.
    let shard_workers = 2usize;
    {
        let mut check =
            ShardedBackend::in_process(cfg, shard_workers).expect("sharded backend construction");
        let job = InferenceJob {
            job_id: 0,
            k,
            kernels: banks.clone(),
            frames: batch_frames.clone(),
        };
        let merged = check.run_job(&job).expect("sharded run");
        assert_eq!(
            merged, looped,
            "merged shards must equal the per-frame loop"
        );
    }
    let mut shard_backend =
        ShardedBackend::in_process(cfg, shard_workers).expect("sharded backend construction");
    let mut shard_job_id = 0u64;
    let backend_shard_ms = median_ms(reps, || {
        let job = InferenceJob {
            job_id: shard_job_id,
            k,
            kernels: banks.clone(),
            frames: batch_frames.clone(),
        };
        shard_job_id += 1;
        let merged = shard_backend.run_job(&job).expect("sharded run");
        std::hint::black_box(merged[0].output[0][0]);
    });

    // TCP backend: the same split dispatched to worker daemons over
    // real loopback sockets (accept-loop daemons on background
    // threads). The gap between `frames_per_sec_backend_tcp` and
    // `frames_per_sec_backend_shard` is the socket + handshake
    // overhead a genuinely multi-host deployment adds on top of the
    // wire codec.
    let tcp_workers = 2usize;
    let tcp_transport_cfg = TcpTransportConfig::default();
    let tcp_fleet: Vec<Box<dyn ShardTransport>> = (0..tcp_workers)
        .map(|_| {
            let endpoint = TcpWorker::bind(cfg, "127.0.0.1:0")
                .expect("worker bind")
                .spawn()
                .expect("worker daemon thread")
                .endpoint();
            let transport = TcpTransport::connect(endpoint, cfg.fingerprint(), tcp_transport_cfg)
                .expect("worker connect");
            Box::new(transport) as Box<dyn ShardTransport>
        })
        .collect();
    let mut tcp_backend = ShardedBackend::new(cfg, tcp_fleet).expect("tcp backend construction");
    {
        let job = InferenceJob {
            job_id: 0,
            k,
            kernels: banks.clone(),
            frames: batch_frames.clone(),
        };
        let merged = tcp_backend.run_job(&job).expect("tcp sharded run");
        assert_eq!(
            merged, looped,
            "TCP-merged shards must equal the per-frame loop"
        );
    }
    let mut tcp_job_id = 1u64;
    let backend_tcp_ms = median_ms(reps, || {
        let job = InferenceJob {
            job_id: tcp_job_id,
            k,
            kernels: banks.clone(),
            frames: batch_frames.clone(),
        };
        tcp_job_id += 1;
        let merged = tcp_backend.run_job(&job).expect("tcp sharded run");
        std::hint::black_box(merged[0].output[0][0]);
    });

    // Layer program: the autoencoder encoder — conv → ternary quantize
    // → dense → ReLU — executed end-to-end per frame by the sharded
    // backend (wire v4 ProgramJob). The gap between
    // `frames_per_sec_program` and `frames_per_sec_backend_shard` is
    // what the extra stages of a whole-model job cost over the first
    // layer alone.
    let program_features = 2usize;
    let program_latent = 8usize;
    let program = LayerProgram::autoencoder(side, side, program_features, program_latent, 42)
        .expect("program construction");
    {
        let oracle =
            run_reference(&cfg, 0, &program, &batch_frames).expect("program sequential forward");
        let mut check =
            ShardedBackend::in_process(cfg, shard_workers).expect("sharded backend construction");
        let merged = check
            .run_program(&ProgramJob {
                job_id: 0,
                program: program.clone(),
                frames: batch_frames.clone(),
            })
            .expect("sharded program run");
        assert_eq!(
            merged, oracle,
            "merged program shards must equal the sequential forward"
        );
    }
    let mut program_backend =
        ShardedBackend::in_process(cfg, shard_workers).expect("sharded backend construction");
    let mut program_job_id = 0u64;
    let program_ms = median_ms(reps, || {
        let job = ProgramJob {
            job_id: program_job_id,
            program: program.clone(),
            frames: batch_frames.clone(),
        };
        program_job_id += 1;
        let merged = program_backend.run_program(&job).expect("program run");
        std::hint::black_box(merged[0].output[0]);
    });

    // Supervisor failover: one of two in-process workers dies on its
    // first shard of the job; the FleetSupervisor quarantines it,
    // promotes the spare and finishes the *same* `run_job` call.
    // `supervisor_failover_ms` is the wall clock from the injected kill
    // to merged job completion — tracked for presence in the document,
    // not value-gated (it measures recovery latency, not throughput).
    struct DyingTransport {
        inner: InProcessWorker,
        dead: bool,
        killed_at: Arc<Mutex<Option<Instant>>>,
    }
    impl ShardTransport for DyingTransport {
        fn round_trip(&mut self, message: &[u8]) -> Result<Vec<u8>, OisaError> {
            if !self.dead && matches!(wire::decode(message), Ok(WireMessage::Shard(_))) {
                self.dead = true;
                *self.killed_at.lock().expect("kill clock") = Some(Instant::now());
            }
            if self.dead {
                return Err(OisaError::Transport {
                    endpoint: "perf-dying-worker".into(),
                    attempts: 1,
                    cause: "injected worker death".into(),
                });
            }
            self.inner.round_trip(message)
        }
        fn endpoint_label(&self) -> String {
            "perf-dying-worker".into()
        }
    }
    let killed_at: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let failover_active: Vec<Box<dyn ShardTransport>> = vec![
        Box::new(InProcessWorker::new(cfg)),
        Box::new(DyingTransport {
            inner: InProcessWorker::new(cfg),
            dead: false,
            killed_at: Arc::clone(&killed_at),
        }),
    ];
    let failover_spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(InProcessWorker::new(cfg))];
    let mut failover_fleet = FleetSupervisor::new(
        cfg,
        failover_active,
        failover_spares,
        SupervisorOptions::default(),
    )
    .expect("supervisor construction");
    let failover_merged = failover_fleet
        .run_job(&InferenceJob {
            job_id: 0,
            k,
            kernels: banks.clone(),
            frames: batch_frames.clone(),
        })
        .expect("supervised run");
    let supervisor_failover_ms = killed_at
        .lock()
        .expect("kill clock")
        .expect("the rigged worker must have died mid-job")
        .elapsed()
        .as_secs_f64()
        * 1e3;
    assert_eq!(
        failover_merged, looped,
        "self-healed job must equal the per-frame loop"
    );
    assert_eq!(
        failover_fleet.status().promotions,
        1,
        "the spare must have been promoted"
    );

    // Dense path: a 256-row layer over a 1152-wide input (128 chunks
    // per row), parallel snapshot evaluation vs the serial oracle.
    let mv_rows = 256usize;
    let mv_cols = 1152usize;
    let mv_matrix: Vec<f32> = (0..mv_rows * mv_cols)
        .map(|i| (i as f32 * 0.19).sin())
        .collect();
    let mv_input: Vec<f64> = (0..mv_cols)
        .map(|i| ((i as f64 * 0.23).sin().abs()).min(1.0))
        .collect();
    let opc_cfg = OpcConfig {
        banks: 4,
        columns: 2,
        awc_units: 10,
        arm: ArmConfig::paper_default(),
    };
    let mut mv_opc = Opc::new(opc_cfg).expect("opc construction");
    let mv_vom = Vom::new(VomConfig::paper_default()).expect("vom construction");
    let mv_mapper = WeightMapper::ideal(4).expect("mapper construction");
    {
        let mut n1 = NoiseSource::seeded(7, NoiseConfig::paper_default());
        let mut n2 = NoiseSource::seeded(7, NoiseConfig::paper_default());
        let s = matvec(
            &mut mv_opc,
            &mv_vom,
            &mv_mapper,
            &mv_matrix,
            mv_rows,
            mv_cols,
            &mv_input,
            &mut n1,
        )
        .expect("serial matvec");
        let p = matvec_parallel(
            &mut mv_opc,
            &mv_vom,
            &mv_mapper,
            &mv_matrix,
            mv_rows,
            mv_cols,
            &mv_input,
            &mut n2,
        )
        .expect("parallel matvec");
        assert_eq!(s, p, "parallel matvec must be bit-identical to serial");
    }
    let mut mv_noise = NoiseSource::seeded(7, NoiseConfig::paper_default());
    let matvec_serial_ms = median_ms(reps, || {
        let r = matvec(
            &mut mv_opc,
            &mv_vom,
            &mv_mapper,
            &mv_matrix,
            mv_rows,
            mv_cols,
            &mv_input,
            &mut mv_noise,
        )
        .expect("serial matvec");
        std::hint::black_box(r.output[0]);
    });
    let matvec_parallel_ms = median_ms(reps, || {
        let r = matvec_parallel(
            &mut mv_opc,
            &mv_vom,
            &mv_mapper,
            &mv_matrix,
            mv_rows,
            mv_cols,
            &mv_input,
            &mut mv_noise,
        )
        .expect("parallel matvec");
        std::hint::black_box(r.output[0]);
    });

    // Digital reference path: im2col Conv2d forward vs the naive loop.
    let x = Tensor::he_normal(vec![1, 3, side, side], 27, 3);
    let mut conv = Conv2d::with_seed(3, kernels, k, 1, 1, 7).expect("conv construction");
    let im2col_ms = median_ms(reps, || {
        let y = conv.forward(&x, false).expect("im2col forward");
        std::hint::black_box(y.as_slice()[0]);
    });
    let naive_ms = median_ms(reps, || {
        let y = conv.forward_naive(&x, false).expect("naive forward");
        std::hint::black_box(y.as_slice()[0]);
    });

    // MAC-core cost at three working-set sizes: chained 9-tap
    // `mac_indexed` folds, the kernel every engine above amortises.
    // Reported as nanoseconds per ring so the bench covers the fold
    // itself, not just the engines.
    let mac_snap = {
        let mac_mapper = WeightMapper::ideal(4).expect("mapper construction");
        let weights: Vec<f64> = (0..9).map(|i| ((i as f64) * 0.61).sin()).collect();
        let mut arm = Arm::new(ArmConfig::paper_default()).expect("arm construction");
        arm.load_weights(&weights, &mac_mapper)
            .expect("arm weights");
        arm.snapshot(&NoiseConfig::paper_default())
    };
    let mac_noise = NoiseSource::seeded(11, NoiseConfig::paper_default());
    let mac_stream = mac_noise.stream(1, 0, 0);
    let mac_acts: Vec<f64> = (0..9)
        .map(|i| ((i as f64 * 0.23).sin().abs()).min(1.0))
        .collect();
    let mut mac_ns_per_ring = [0.0f64; 3];
    for (slot, rings) in [72usize, 256, 1024].into_iter().enumerate() {
        let windows = rings / 9;
        let iters = (if quick { 200_000 } else { 2_000_000 }) / rings;
        let ms = median_ms(reps, || {
            for it in 0..iters {
                let mut base = (it * 64) as u64;
                let mut acc = 0.0;
                for _ in 0..windows {
                    let (v, _e) = mac_snap.mac_indexed(&mac_acts, &mac_stream, base);
                    acc += v;
                    base += COUNTER_STRIDE;
                }
                std::hint::black_box(acc);
            }
        });
        mac_ns_per_ring[slot] = ms * 1e6 / (iters as f64 * (windows * 9) as f64);
    }

    // Report the worker count the parallel pipelines actually used.
    let threads = rayon::current_num_threads();
    let optical_speedup = reference_ms / parallel_ms;
    let conv_speedup = naive_ms / im2col_ms;
    let batch_speedup = frame_loop_ms / batch_ms;
    let matvec_speedup = matvec_serial_ms / matvec_parallel_ms;
    let frames_per_sec = 1e3 / parallel_ms;
    let frames_per_sec_batch = batch as f64 * 1e3 / batch_ms;
    let frames_per_sec_serving = batch as f64 * 1e3 / serving_ms;
    let frames_per_sec_backend_shard = batch as f64 * 1e3 / backend_shard_ms;
    let frames_per_sec_backend_tcp = batch as f64 * 1e3 / backend_tcp_ms;
    let frames_per_sec_program = batch as f64 * 1e3 / program_ms;
    let matvec_rows_per_sec = mv_rows as f64 * 1e3 / matvec_parallel_ms;
    let batch_histogram = serving_stats
        .batch_size_histogram
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let doc = format!(
        concat!(
            "{{",
            "\"workload\":{{\"frame\":\"{side}x{side}\",\"kernels\":{kernels},\"k\":{k},",
            "\"batch\":{batch},\"matvec\":\"{mv_rows}x{mv_cols}\"}},",
            "\"threads\":{threads},",
            "\"wall_clock_ms\":{{",
            "\"optical_parallel\":{parallel:.3},",
            "\"optical_sequential\":{sequential:.3},",
            "\"optical_reference\":{reference:.3},",
            "\"batch_8_frames\":{batch_ms:.3},",
            "\"frame_loop_8\":{frame_loop_ms:.3},",
            "\"serving_8_frames\":{serving_ms:.3},",
            "\"backend_shard_8_frames\":{backend_shard_ms:.3},",
            "\"backend_tcp_8_frames\":{backend_tcp_ms:.3},",
            "\"program_8_frames\":{program_ms:.3},",
            "\"matvec_parallel\":{matvec_parallel_ms:.3},",
            "\"matvec_serial\":{matvec_serial_ms:.3},",
            "\"conv2d_im2col\":{im2col:.3},",
            "\"conv2d_naive\":{naive:.3}}},",
            "\"throughput\":{{",
            "\"frames_per_sec\":{fps:.3},",
            "\"frames_per_sec_batch\":{fps_batch:.3},",
            "\"frames_per_sec_serving\":{fps_serving:.3},",
            "\"frames_per_sec_backend_shard\":{fps_backend_shard:.3},",
            "\"frames_per_sec_backend_tcp\":{fps_backend_tcp:.3},",
            "\"frames_per_sec_program\":{fps_program:.3},",
            "\"matvec_rows_per_sec\":{mv_rps:.3}}},",
            "\"mac_ns_per_ring\":{{",
            "\"simd_tier\":\"{simd_tier}\",",
            "\"rings_72\":{mac72:.2},",
            "\"rings_256\":{mac256:.2},",
            "\"rings_1024\":{mac1024:.2}}},",
            "\"backend_shard\":{{",
            "\"workers\":{shard_workers},",
            "\"jobs_run\":{shard_jobs}}},",
            "\"backend_tcp\":{{",
            "\"workers\":{tcp_workers},",
            "\"endpoint\":\"loopback\",",
            "\"jobs_run\":{tcp_jobs}}},",
            "\"program\":{{",
            "\"workers\":{shard_workers},",
            "\"stages\":{program_stages},",
            "\"features\":{program_features},",
            "\"latent\":{program_latent},",
            "\"jobs_run\":{program_jobs}}},",
            "\"supervisor_failover_ms\":{{",
            "\"workers\":2,",
            "\"spares\":1,",
            "\"promotions\":{sup_promotions},",
            "\"kill_to_merge_ms\":{sup_failover_ms:.3}}},",
            "\"serving\":{{",
            "\"max_batch\":{srv_max_batch},",
            "\"deadline_ms\":{srv_deadline_ms},",
            "\"queue_depth\":{srv_queue_depth},",
            "\"frames_completed\":{srv_frames},",
            "\"batches_run\":{srv_batches},",
            "\"size_batches\":{srv_size_batches},",
            "\"deadline_batches\":{srv_deadline_batches},",
            "\"drain_batches\":{srv_drain_batches},",
            "\"queue_wait_p50_us\":{srv_p50:.1},",
            "\"queue_wait_p99_us\":{srv_p99:.1},",
            "\"queue_wait_max_us\":{srv_max:.1},",
            "\"batch_size_histogram\":[{batch_histogram}]}},",
            "\"speedup\":{{",
            "\"optical_vs_reference\":{opt_speedup:.2},",
            "\"batch_vs_frame_loop\":{batch_speedup:.2},",
            "\"matvec_parallel_vs_serial\":{matvec_speedup:.2},",
            "\"conv2d_vs_naive\":{conv_speedup:.2}}},",
            "\"bit_identical_parallel_vs_sequential\":true,",
            "\"bit_identical_batch_vs_frame_loop\":true,",
            "\"bit_identical_serving_vs_frame_loop\":true,",
            "\"bit_identical_backend_shard_vs_frame_loop\":true,",
            "\"bit_identical_backend_tcp_vs_frame_loop\":true,",
            "\"bit_identical_program_vs_sequential_forward\":true,",
            "\"bit_identical_supervisor_failover_vs_frame_loop\":true}}"
        ),
        side = side,
        kernels = kernels,
        k = k,
        batch = batch,
        mv_rows = mv_rows,
        mv_cols = mv_cols,
        threads = threads,
        parallel = parallel_ms,
        sequential = sequential_ms,
        reference = reference_ms,
        batch_ms = batch_ms,
        frame_loop_ms = frame_loop_ms,
        serving_ms = serving_ms,
        backend_shard_ms = backend_shard_ms,
        backend_tcp_ms = backend_tcp_ms,
        program_ms = program_ms,
        matvec_parallel_ms = matvec_parallel_ms,
        matvec_serial_ms = matvec_serial_ms,
        im2col = im2col_ms,
        naive = naive_ms,
        fps = frames_per_sec,
        fps_batch = frames_per_sec_batch,
        fps_serving = frames_per_sec_serving,
        fps_backend_shard = frames_per_sec_backend_shard,
        fps_backend_tcp = frames_per_sec_backend_tcp,
        fps_program = frames_per_sec_program,
        mv_rps = matvec_rows_per_sec,
        simd_tier = oisa_device::simd::active_tier(),
        mac72 = mac_ns_per_ring[0],
        mac256 = mac_ns_per_ring[1],
        mac1024 = mac_ns_per_ring[2],
        shard_workers = shard_workers,
        shard_jobs = shard_backend.jobs_run(),
        tcp_workers = tcp_workers,
        tcp_jobs = tcp_backend.jobs_run(),
        program_stages = program.stages.len(),
        program_features = program_features,
        program_latent = program_latent,
        program_jobs = program_backend.jobs_run(),
        sup_promotions = failover_fleet.status().promotions,
        sup_failover_ms = supervisor_failover_ms,
        srv_max_batch = serving_cfg.max_batch,
        srv_deadline_ms = serving_cfg.deadline.as_millis(),
        srv_queue_depth = serving_cfg.queue_depth,
        srv_frames = serving_stats.frames_completed,
        srv_batches = serving_stats.batches_run,
        srv_size_batches = serving_stats.size_batches,
        srv_deadline_batches = serving_stats.deadline_batches,
        srv_drain_batches = serving_stats.drain_batches,
        srv_p50 = serving_stats.queue_wait_p50_us,
        srv_p99 = serving_stats.queue_wait_p99_us,
        srv_max = serving_stats.queue_wait_max_us,
        batch_histogram = batch_histogram,
        opt_speedup = optical_speedup,
        batch_speedup = batch_speedup,
        matvec_speedup = matvec_speedup,
        conv_speedup = conv_speedup,
    );
    println!("BENCH JSON {doc}");

    if let Some(path) = gate_path {
        let headline = [
            Metric {
                name: "frames_per_sec",
                current: frames_per_sec,
            },
            Metric {
                name: "frames_per_sec_batch",
                current: frames_per_sec_batch,
            },
            Metric {
                name: "frames_per_sec_serving",
                current: frames_per_sec_serving,
            },
            Metric {
                name: "frames_per_sec_backend_shard",
                current: frames_per_sec_backend_shard,
            },
            Metric {
                name: "frames_per_sec_backend_tcp",
                current: frames_per_sec_backend_tcp,
            },
            Metric {
                name: "frames_per_sec_program",
                current: frames_per_sec_program,
            },
        ];
        match gate::gate_file(&path, &headline, gate::GATE_TOLERANCE) {
            Ok(log) => {
                for line in log {
                    eprintln!("{line}");
                }
                eprintln!(
                    "perf gate: OK (within {:.0}% of baseline)",
                    gate::GATE_TOLERANCE * 100.0
                );
            }
            Err(message) => {
                eprintln!("perf gate FAILED: {message}");
                std::process::exit(1);
            }
        }
    }
}
