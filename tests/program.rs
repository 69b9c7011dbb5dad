//! Cross-crate guarantees of layer programs on the `ComputeBackend`
//! seam: a multi-stage program (conv → quantize → dense → activation)
//! executed by a `ShardedBackend` across two or more workers must
//! merge **bit-identically** — per-frame outputs and every stage
//! report — to one sequential forward on a single accelerator
//! ([`run_reference`]), for random program shapes, any worker count,
//! and across consecutive jobs on one coordinator.
//!
//! [`run_reference`]: oisa::core::program::run_reference

use oisa::core::backend::{ComputeBackend, LocalBackend, ShardedBackend};
use oisa::core::program::{
    run_reference, ActivationKind, LayerProgram, ProgramFrameReport, QuantizeKind, Stage,
    StageReport,
};
use oisa::core::wire::ProgramJob;
use oisa::core::{OisaConfig, OisaError};
use oisa::device::noise::NoiseConfig;
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

fn job(job_id: u64, program: LayerProgram, frames: Vec<Frame>) -> ProgramJob {
    ProgramJob {
        job_id,
        program,
        frames,
    }
}

proptest! {
    /// The acceptance property: for random program shapes (kernel
    /// size, feature count, quantiser kind/bits, latent width) and
    /// frame counts, the merged per-frame reports from 2 and 3
    /// workers are bit-identical to the sequential forward.
    #[test]
    fn sharded_program_merge_is_bit_identical_to_sequential_forward(
        // k ∈ {3, 5} × features 1–3 × quantiser 0–8 × latent 1–4 ×
        // frames 3–6, packed so the shim reporter's tuple stays within
        // `Debug`'s cap.
        packed in 0usize..(2 * 3 * 9 * 4 * 4),
        seed in 1u64..500,
    ) {
        let k5 = packed % 2 == 1;
        let features = (packed / 2) % 3 + 1;
        let quant = (packed / 6) % 9; // 0 = ternary, 1..=8 = level bits
        let latent = (packed / 54) % 4 + 1;
        let nframes = (packed / 216) % 4 + 3;
        let levels_bits = (quant > 0).then_some(quant as u8);
        let program = shaped_program(k5, features, levels_bits, latent);
        let frames = textured_frames(nframes, seed);

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
        digest, 0xc0e3_a1c1_6778_b074,
        "golden digest moved: {digest:#018x}"
    );
}
