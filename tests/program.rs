//! Cross-crate guarantees of layer programs on the `ComputeBackend`
//! seam: a multi-stage program (conv → quantize → dense → activation)
//! executed by a `ShardedBackend` across two or more workers must
//! merge **bit-identically** — per-frame outputs and every stage
//! report — to one sequential forward on a single accelerator
//! ([`run_reference`]), for random program shapes, any worker count,
//! and across consecutive jobs on one coordinator.
//!
//! [`run_reference`]: oisa::core::program::run_reference

use oisa::core::backend::{execute_program_shard, ComputeBackend, LocalBackend, ShardedBackend};
use oisa::core::mlp::matvec_parallel;
use oisa::core::program::{
    run_reference, ActivationKind, LayerProgram, ProgramFrameReport, QuantizeKind, Stage,
    StageReport,
};
use oisa::core::wire::{self, ProgramJob, ProgramShard, WireMessage};
use oisa::core::{CoreError, OisaAccelerator, OisaConfig, OisaError};
use oisa::device::noise::{NoiseConfig, NoiseSource};
use oisa::optics::opc::Opc;
use oisa::optics::vom::Vom;
use oisa::sensor::Frame;
use proptest::prelude::*;

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
                    let phase = (i as f64 * 0.31) + (f as u64 * 5 + salt) as f64 * 1.13;
                    (0.5 + 0.5 * phase.sin()).clamp(0.0, 1.0)
                })
                .collect();
            Frame::new(16, 16, data).unwrap()
        })
        .collect()
}

fn kernel_bank(count: usize, k: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| (((i + salt) * 7 + j * 3) as f32 * 0.43).sin())
                .collect()
        })
        .collect()
}

fn dense_matrix(rows: usize, cols: usize, salt: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| (((i + salt) * 11) as f32 * 0.29).cos() * 0.8)
        .collect()
}

/// Builds a valid multi-stage program from packed shape parameters:
/// conv (k ∈ {3, 5}, 1–3 kernels) → quantize (ternary, or signed
/// levels followed by a ReLU to restore the unit range) → dense
/// (1–4 rows) → ReLU.
fn shaped_program(
    k5: bool,
    features: usize,
    levels_bits: Option<u8>,
    latent: usize,
) -> LayerProgram {
    let k = if k5 { 5 } else { 3 };
    let out = 16 - k + 1;
    let mut stages = vec![Stage::Conv {
        k,
        kernels: kernel_bank(features, k, features + latent),
    }];
    match levels_bits {
        // Signed levels land in [-1, 1]; the ReLU folds them back
        // into [0, 1] so the dense stage accepts them.
        Some(bits) => {
            stages.push(Stage::Quantize(QuantizeKind::Levels { bits }));
            stages.push(Stage::Activation(ActivationKind::Relu));
        }
        None => stages.push(Stage::Quantize(QuantizeKind::Ternary)),
    }
    stages.push(Stage::Dense {
        rows: latent,
        matrix: dense_matrix(latent, features * out * out, latent),
    });
    stages.push(Stage::Activation(ActivationKind::Relu));
    LayerProgram::new(stages).expect("shaped program validates")
}

/// The program shape packed into `packed % 216`: k ∈ {3, 5} ×
/// features 1–3 × quantiser 0–8 (0 = ternary, 1..=8 = level bits) ×
/// latent 1–4, packed so the shim reporter's tuple stays within
/// `Debug`'s cap. `packed / 216` is left for the frame count.
fn packed_program(packed: usize) -> LayerProgram {
    let k5 = packed % 2 == 1;
    let features = (packed / 2) % 3 + 1;
    let quant = (packed / 6) % 9;
    let latent = (packed / 54) % 4 + 1;
    let levels_bits = (quant > 0).then_some(quant as u8);
    shaped_program(k5, features, levels_bits, latent)
}

fn job(job_id: u64, program: LayerProgram, frames: Vec<Frame>) -> ProgramJob {
    ProgramJob {
        job_id,
        program,
        frames,
    }
}

/// `prewarm_program` and a `run_program_frame` per frame — the
/// per-frame loop `run_program_frames` must reproduce. Stops at the
/// first failing frame.
fn per_frame_loop(
    accel: &mut OisaAccelerator,
    program: &LayerProgram,
    frames: &[Frame],
) -> Result<Vec<ProgramFrameReport>, CoreError> {
    accel.prewarm_program(program)?;
    frames
        .iter()
        .map(|frame| accel.run_program_frame(program, frame))
        .collect()
}

proptest! {
    /// The acceptance property: for random program shapes (kernel
    /// size, feature count, quantiser kind/bits, latent width) and
    /// frame counts, the merged per-frame reports from 2 and 3
    /// workers are bit-identical to the sequential forward.
    #[test]
    fn sharded_program_merge_is_bit_identical_to_sequential_forward(
        // Program shape (`packed_program`) × frames 3–6.
        packed in 0usize..(216 * 4),
        seed in 1u64..500,
    ) {
        let program = packed_program(packed);
        let frames = textured_frames(packed / 216 + 3, seed);

        let config = noisy_config(seed);
        let oracle = run_reference(&config, 0, &program, &frames).unwrap();
        for workers in [2usize, 3] {
            let mut backend = ShardedBackend::in_process(config, workers).unwrap();
            let merged = backend
                .run_program(&job(seed, program.clone(), frames.clone()))
                .unwrap();
            // Two-arg form: the proptest shim's assert macros take no
            // custom message.
            prop_assert_eq!(&merged, &oracle);
        }
    }

    /// `run_program_frames` — one prewarm, each dense matrix staged
    /// once — is bit-identical to the per-frame loop, which stages
    /// every dense stage on every frame: reports, the noise epochs
    /// consumed and the fabric left behind (the next frame agrees).
    #[test]
    fn run_program_frames_matches_the_per_frame_loop(
        // Program shape (`packed_program`) × frames 1–6.
        packed in 0usize..(216 * 6),
        seed in 1u64..500,
    ) {
        let program = packed_program(packed);
        let frames = textured_frames(packed / 216 + 1, seed);
        let config = noisy_config(seed);
        let mut staged = OisaAccelerator::new(config).unwrap();
        let mut looped = OisaAccelerator::new(config).unwrap();
        prop_assert_eq!(
            staged.run_program_frames(&program, &frames).unwrap(),
            per_frame_loop(&mut looped, &program, &frames).unwrap()
        );
        prop_assert_eq!(staged.next_noise_epoch(), looped.next_noise_epoch());
        let next = &textured_frames(1, seed + 1)[0];
        prop_assert_eq!(
            staged.run_program_frame(&program, next).unwrap(),
            looped.run_program_frame(&program, next).unwrap()
        );
    }
}

/// Each dense stage keeps its own staging: a dense-first program (the
/// frame is sensed and encoded straight into the arms) with a second,
/// mid-program dense stage runs bit-identically to the per-frame loop.
#[test]
fn run_program_frames_stages_every_dense_stage_on_its_own() {
    let config = noisy_config(11);
    let program = LayerProgram::new(vec![
        Stage::Dense {
            rows: 12,
            matrix: dense_matrix(12, 256, 1),
        },
        Stage::Quantize(QuantizeKind::Ternary),
        Stage::Dense {
            rows: 3,
            matrix: dense_matrix(3, 12, 2),
        },
        Stage::Activation(ActivationKind::Relu),
    ])
    .unwrap();
    let frames = textured_frames(4, 9);
    let mut staged = OisaAccelerator::new(config).unwrap();
    let mut looped = OisaAccelerator::new(config).unwrap();
    assert_eq!(
        staged.run_program_frames(&program, &frames).unwrap(),
        per_frame_loop(&mut looped, &program, &frames).unwrap()
    );
    assert_eq!(staged.next_noise_epoch(), 4 * program.epochs_per_frame());
}

/// A non-finite dense weight fails alike on every path. The staged
/// multi-frame run, the per-frame loop and a bare `matvec_parallel`
/// return the same error, and the two program paths consume the same
/// noise epochs: staging runs after the dense stage's epoch is
/// consumed. A weight the prewarm replay reloads (the last 2 × 20
/// chunks of this 88-chunk matrix on a 20-arm fabric) fails before any
/// epoch; any other fails frame 0's dense stage after its conv and
/// dense epochs.
#[test]
fn non_finite_dense_weights_fail_alike_on_every_path() {
    let config = noisy_config(17);
    let base = shaped_program(false, 1, None, 4);
    let Stage::Dense { rows, matrix } = &base.stages[2] else {
        panic!("the shaped program's third stage is dense");
    };
    let (rows, cols) = (*rows, matrix.len() / *rows);
    assert_eq!(rows * cols.div_ceil(9), 88);
    let frames = textured_frames(3, 4);
    let input = vec![0.5f64; cols];
    for (index, program_epochs) in [(0, 2), (5 * 9 + 4, 2), (matrix.len() - 1, 0)] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut program = base.clone();
            let Stage::Dense { matrix, .. } = &mut program.stages[2] else {
                panic!("the shaped program's third stage is dense");
            };
            matrix[index] = bad;
            let matrix = matrix.clone();

            let mut staged = OisaAccelerator::new(config).unwrap();
            let staged_err = staged.run_program_frames(&program, &frames).unwrap_err();
            let mut looped = OisaAccelerator::new(config).unwrap();
            let looped_err = per_frame_loop(&mut looped, &program, &frames).unwrap_err();

            let mut opc = Opc::new(config.opc).unwrap();
            let vom = Vom::new(config.vom).unwrap();
            let mapper = staged.mapper().clone();
            let mut noise = NoiseSource::seeded(config.seed, config.noise);
            let matvec_err = matvec_parallel(
                &mut opc, &vom, &mapper, &matrix, rows, cols, &input, &mut noise,
            )
            .unwrap_err();

            let what = format!("weight {index} = {bad}");
            assert!(
                staged_err.to_string().contains("outside [-1, 1]"),
                "{what}: {staged_err}"
            );
            assert_eq!(staged_err, looped_err, "{what}");
            assert_eq!(staged_err, matvec_err, "{what}");
            assert_eq!(staged.next_noise_epoch(), program_epochs, "{what}");
            assert_eq!(looped.next_noise_epoch(), program_epochs, "{what}");
            assert_eq!(noise.next_epoch(), 1, "{what}");
        }
    }
}

/// A dense stage whose `rows × cols` overflows `usize` is a typed
/// error on every entry point, not a panic: with 2⁶² + 1 rows over a
/// 4×4 imager's 2×2 conv output the product wraps to 4 — the matrix's
/// own length — so an unchecked size check passes and staging indexes
/// far past the matrix. The wire decoder accepts any row count, so a
/// decoded shard reaches the worker with it.
#[test]
fn overflowing_dense_shape_is_refused_on_every_entry_point() {
    let config = OisaConfig::builder()
        .imager_dims(4, 4)
        .opc_shape(4, 2, 10)
        .seed(3)
        .build()
        .expect("test config validates");
    let program = LayerProgram::new(vec![
        Stage::Conv {
            k: 3,
            kernels: kernel_bank(1, 3, 0),
        },
        Stage::Quantize(QuantizeKind::Ternary),
        Stage::Dense {
            rows: (1usize << 62) + 1,
            matrix: vec![0.5; 4],
        },
    ])
    .unwrap();
    let frames = vec![Frame::constant(4, 4, 0.5).unwrap()];
    let refused = |err: &OisaError| match err {
        OisaError::Core(CoreError::InvalidParameter(what)) => {
            what.contains("4611686018427387905x4")
        }
        _ => false,
    };

    let err = LocalBackend::new(config)
        .unwrap()
        .run_program(&job(1, program.clone(), frames.clone()))
        .unwrap_err();
    assert!(refused(&err), "{err}");

    let shard = ProgramShard {
        job_id: 1,
        shard_index: 0,
        shard_count: 1,
        first_frame: 0,
        first_epoch: 0,
        config_fingerprint: config.fingerprint(),
        program,
        frames,
    };
    let Ok(WireMessage::ProgramShard(decoded)) =
        wire::decode(&wire::encode(&WireMessage::ProgramShard(shard)))
    else {
        panic!("the shard round-trips the wire");
    };
    let err = execute_program_shard(&config, &decoded).unwrap_err();
    assert!(refused(&err), "{err}");
}

/// Consecutive program jobs on one coordinator continue the noise
/// epoch stream exactly like consecutive sequential forwards on one
/// accelerator (each frame advances `epochs_per_frame()` epochs).
#[test]
fn consecutive_program_jobs_continue_the_epoch_stream() {
    let config = noisy_config(7);
    let program_a = shaped_program(false, 2, None, 3);
    let program_b = shaped_program(true, 1, Some(4), 2);
    let frames_a = textured_frames(5, 1);
    let frames_b = textured_frames(4, 2);

    let oracle_a = run_reference(&config, 0, &program_a, &frames_a).unwrap();
    let stride_a = program_a.epochs_per_frame() * frames_a.len() as u64;
    let oracle_b = run_reference(&config, stride_a, &program_b, &frames_b).unwrap();

    for backend in [
        &mut LocalBackend::new(config).unwrap() as &mut dyn ComputeBackend,
        &mut ShardedBackend::in_process(config, 3).unwrap(),
    ] {
        let got_a = backend
            .run_program(&job(1, program_a.clone(), frames_a.clone()))
            .unwrap();
        let got_b = backend
            .run_program(&job(2, program_b.clone(), frames_b.clone()))
            .unwrap();
        assert_eq!(got_a, oracle_a, "first job must match a fresh forward");
        assert_eq!(
            got_b, oracle_b,
            "second job must continue the epoch stream where the first left off"
        );
    }
}

/// Conv jobs interleave with program jobs on one coordinator without
/// corrupting either stream: feature maps stay bit-identical to their
/// own oracles run at the epochs the coordinator assigns.
#[test]
fn programs_and_conv_jobs_share_a_coordinator() {
    use oisa::core::wire::InferenceJob;

    let config = noisy_config(13);
    let program = shaped_program(false, 2, None, 2);
    let frames = textured_frames(4, 3);
    let conv_job = InferenceJob {
        job_id: 9,
        k: 3,
        kernels: kernel_bank(2, 3, 0),
        frames: frames.clone(),
    };

    let mut sharded = ShardedBackend::in_process(config, 2).unwrap();
    let got_program = sharded
        .run_program(&job(8, program.clone(), frames.clone()))
        .unwrap();
    let got_conv = sharded.run_job(&conv_job).unwrap();

    assert_eq!(
        got_program,
        run_reference(&config, 0, &program, &frames).unwrap()
    );
    // The conv job starts at the epoch the program left behind — and
    // because the program ended in a dense stage, it enters cold.
    let stride = program.epochs_per_frame() * frames.len() as u64;
    let mut local = LocalBackend::new(config).unwrap();
    local.accelerator_mut().align_noise_epoch(stride).unwrap();
    let oracle_conv = local.run_job(&conv_job).unwrap();
    assert_eq!(
        got_conv, oracle_conv,
        "a conv job after a program must match a cold conv job at the continued epoch"
    );
}

/// Shape and domain errors surface as typed errors before any worker
/// executes: a frame that does not match the imager, a dense matrix
/// that does not match the conv output, and a backend that predates
/// programs all refuse cleanly.
#[test]
fn invalid_programs_are_refused_before_execution() {
    let config = noisy_config(21);
    let mut backend = ShardedBackend::in_process(config, 2).unwrap();

    // Dense matrix sized for the wrong column count.
    let bad = LayerProgram::new(vec![
        Stage::Conv {
            k: 3,
            kernels: kernel_bank(1, 3, 0),
        },
        Stage::Quantize(QuantizeKind::Ternary),
        Stage::Dense {
            rows: 2,
            matrix: vec![0.5; 10],
        },
    ])
    .unwrap();
    let err = backend
        .run_program(&job(1, bad, textured_frames(1, 0)))
        .unwrap_err();
    assert!(matches!(err, OisaError::Core(_)), "{err}");
    assert_eq!(backend.jobs_run(), 0, "no state advanced on refusal");

    // A backend without a `run_program` override refuses politely.
    struct Legacy(OisaConfig);
    impl ComputeBackend for Legacy {
        fn config(&self) -> &OisaConfig {
            &self.0
        }
        fn run_job(
            &mut self,
            _job: &oisa::core::wire::InferenceJob,
        ) -> Result<Vec<oisa::core::ConvolutionReport>, OisaError> {
            unreachable!("not exercised")
        }
    }
    let program = shaped_program(false, 1, None, 1);
    let err = Legacy(config)
        .run_program(&job(2, program, textured_frames(1, 0)))
        .unwrap_err();
    assert!(
        matches!(err, OisaError::Backend(ref what) if what.contains("does not support layer programs")),
        "{err}"
    );
}

/// `ProgramFrameReport` exposes the per-stage breakdown: an
/// autoencoder's encode program reports one conv, one quantize, one
/// dense and one activation stage per frame, with the final output
/// matching the dense stage's activated rows.
#[test]
fn program_reports_carry_the_stage_breakdown() {
    let config = noisy_config(31);
    let program = LayerProgram::autoencoder(16, 16, 2, 4, 9).unwrap();
    let reports = run_reference(&config, 0, &program, &textured_frames(2, 5)).unwrap();
    for report in &reports {
        let ProgramFrameReport { stages, output } = report;
        assert_eq!(stages.len(), 4);
        assert_eq!(output.len(), 4, "latent width");
        assert!(output.iter().all(|v| *v >= 0.0), "ReLU output");
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.word(u64::from(v.to_bits()));
        }
    }
}

/// Digest of every output value, every energy and latency field and
/// every chunk count in a program run.
fn program_digest(reports: &[ProgramFrameReport]) -> u64 {
    let mut h = Fnv1a::new();
    for report in reports {
        for stage in &report.stages {
            match stage {
                StageReport::Conv(c) => {
                    for map in &c.output {
                        h.f32s(map);
                    }
                    let e = &c.energy;
                    for j in [
                        e.sensing,
                        e.encoding,
                        e.tuning,
                        e.compute,
                        e.aggregation,
                        e.memory,
                    ] {
                        h.word(j.get().to_bits());
                    }
                    let t = &c.timeline;
                    for s in [t.capture, t.mapping, t.compute, t.transmit, t.control] {
                        h.word(s.get().to_bits());
                    }
                }
                StageReport::Dense(d) => {
                    h.f32s(&d.output);
                    h.word(d.chunks as u64);
                    h.word(d.energy.get().to_bits());
                    h.word(d.latency.get().to_bits());
                }
                StageReport::Quantize | StageReport::Activation => {}
            }
        }
        h.f32s(&report.output);
    }
    h.0
}

/// A golden digest of the sequential oracle on a paper-config
/// autoencoder (32×32 frames, 2 feature maps, latent 8, 4 frames):
/// paper noise, the AWC mismatch ladder and ring crosstalk all on.
/// Every backend is checked against `run_reference`, so this pins the
/// oracle itself — a change that moves the dense or conv physics in
/// the oracle and the engines at once still fails here. The program's
/// He-normal weights and the noise ziggurat tables come from the
/// platform's `ln`/`cos`/`exp`, so the digest is that of a glibc host.
#[test]
fn paper_config_autoencoder_reference_matches_its_golden_digest() {
    const SIDE: usize = 32;
    let mut config = OisaConfig::paper_default(SIDE, SIDE);
    config.seed = 0x5EED_0A15;
    let program = LayerProgram::autoencoder(SIDE, SIDE, 2, 8, 17).unwrap();
    let frames: Vec<Frame> = (0..4u64)
        .map(|f| {
            let data: Vec<f64> = (0..SIDE * SIDE)
                .map(|i| {
                    let phase = i as f64 * 0.173 + f as f64 * 2.9;
                    (0.5 + 0.5 * phase.sin() * (i as f64 * 0.011).cos()).clamp(0.0, 1.0)
                })
                .collect();
            Frame::new(SIDE, SIDE, data).unwrap()
        })
        .collect();
    let reports = run_reference(&config, 0, &program, &frames).unwrap();
    let chunks: Vec<usize> = reports
        .iter()
        .flat_map(|r| &r.stages)
        .filter_map(|s| match s {
            StageReport::Dense(d) => Some(d.chunks),
            _ => None,
        })
        .collect();
    // 2 maps × 30 × 30 = 1800 columns → 200 nine-weight chunks per row.
    assert_eq!(chunks, vec![8 * 200; 4]);
    let digest = program_digest(&reports);
    assert_eq!(
        digest, 0x2c21_c2cb_b36b_eda5,
        "golden digest moved: {digest:#018x}"
    );
}
