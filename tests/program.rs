//! Cross-crate guarantees of layer programs on the `ComputeBackend`
//! seam: a multi-stage program (conv → quantize → dense → activation)
//! executed by a `FleetSupervisor` across two or more workers must
//! merge **bit-identically** — per-frame outputs and every stage
//! report — to one sequential forward on a single accelerator
//! ([`run_reference`]), for random program shapes, any worker count,
//! and across consecutive jobs on one coordinator.
//!
//! [`run_reference`]: oisa::core::program::run_reference

use oisa::core::backend::{
    execute_program_shard, ComputeBackend, FleetSupervisor, InProcessWorker, LocalBackend,
    ShardTransport, SupervisorOptions,
};
use oisa::core::mlp::{matvec, matvec_parallel};
use oisa::core::program::{
    run_reference, ActivationKind, LayerProgram, ProgramFrameReport, QuantizeKind, Stage,
    StageReport,
};
use oisa::core::serving::{ServingConfig, ServingEngine, SubmitError};
use oisa::core::wire::{
    self, FabricEntry, InferenceJob, ProgramJob, ProgramShard, WireError, WireMessage,
};
use oisa::core::{ConvolutionReport, CoreError, OisaAccelerator, OisaConfig, OisaError};
use oisa::device::noise::{NoiseConfig, NoiseSource};
use oisa::optics::opc::Opc;
use oisa::optics::vom::Vom;
use oisa::sensor::Frame;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
            let mut backend = FleetSupervisor::in_process(config, workers).unwrap();
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

/// A non-finite dense weight refuses the call alike on every path, in
/// the scan that finds the matrix's scale: the staged multi-frame run,
/// the per-frame loop, both matvec engines, the dense prewarm, the
/// local backend and the shard executor all name the same weight (a
/// program run names its stage too), consume no noise epoch and leave
/// the fabric as it was, so a following valid call runs as it would on
/// a fresh accelerator or fabric. The bad weight sits first, in the
/// middle or last, where the prewarm's exit-state replay reloads it.
#[test]
fn non_finite_dense_weights_fail_alike_on_every_path() {
    let config = noisy_config(17);
    let base = shaped_program(false, 1, None, 4);
    let Stage::Dense { rows, matrix: good } = &base.stages[2] else {
        panic!("the shaped program's third stage is dense");
    };
    let (rows, cols) = (*rows, good.len() / *rows);
    let frames = textured_frames(3, 4);
    let input = vec![0.5f64; cols];
    // A one-frame run without a prewarm pays conv tuning from whatever
    // the fabric holds, so it shows a fabric that moved.
    let next_frame = |accel: &mut OisaAccelerator| accel.run_program_frame(&base, &frames[0]);
    let fresh_frame = next_frame(&mut OisaAccelerator::new(config).unwrap()).unwrap();
    let oracle = run_reference(&config, 0, &base, &frames).unwrap();
    let bare = || {
        (
            Opc::new(config.opc).unwrap(),
            NoiseSource::seeded(config.seed, config.noise),
        )
    };
    let vom = Vom::new(config.vom).unwrap();
    let mapper = OisaAccelerator::new(config).unwrap().mapper().clone();
    let fresh_matvec = {
        let (mut opc, mut noise) = bare();
        matvec(
            &mut opc, &vom, &mapper, good, rows, cols, &input, &mut noise,
        )
        .unwrap()
    };
    for index in [0, 5 * 9 + 4, good.len() - 1] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let what = format!("weight {index} = {bad}");
            let named = format!("dense weight {index} is {bad}: weights must be finite");
            let refused = |err: &CoreError| match err {
                CoreError::InvalidParameter(msg) => msg.contains(&named),
                _ => false,
            };
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
            let mut prewarmed = OisaAccelerator::new(config).unwrap();
            let prewarm_err = prewarmed.prewarm_dense(&matrix, rows, cols).unwrap_err();
            assert!(
                staged_err
                    .to_string()
                    .contains(&format!("stage 2: {named}")),
                "{what}: {staged_err}"
            );
            assert_eq!(staged_err, looped_err, "{what}");
            assert!(refused(&prewarm_err), "{what}: {prewarm_err}");
            for accel in [&mut staged, &mut looped, &mut prewarmed] {
                assert_eq!(accel.next_noise_epoch(), 0, "{what}");
                assert_eq!(next_frame(accel).unwrap(), fresh_frame, "{what}");
            }

            for engine in [matvec, matvec_parallel] {
                let (mut opc, mut noise) = bare();
                let err = engine(
                    &mut opc, &vom, &mapper, &matrix, rows, cols, &input, &mut noise,
                )
                .unwrap_err();
                assert!(refused(&err), "{what}: {err}");
                assert_eq!(noise.next_epoch(), 0, "{what}");
                assert_eq!(opc, bare().0, "{what}: the fabric moved");
                let valid = engine(
                    &mut opc, &vom, &mapper, good, rows, cols, &input, &mut noise,
                );
                assert_eq!(valid.unwrap(), fresh_matvec, "{what}");
            }

            let mut local = LocalBackend::new(config).unwrap();
            let err = local
                .run_program(&job(1, program.clone(), frames.clone()))
                .unwrap_err();
            assert!(
                matches!(&err, OisaError::Core(e) if refused(e)),
                "{what}: {err}"
            );
            assert_eq!(local.accelerator().next_noise_epoch(), 0, "{what}");
            let retried = local.run_program(&job(2, base.clone(), frames.clone()));
            assert_eq!(retried.unwrap(), oracle, "{what}");

            let shard = ProgramShard {
                job_id: 1,
                shard_index: 0,
                shard_count: 1,
                first_frame: 0,
                first_epoch: 0,
                config_fingerprint: config.fingerprint(),
                entry: FabricEntry::WarmSelf,
                program,
                frames: frames.clone(),
            };
            let err = execute_program_shard(&config, &shard).unwrap_err();
            assert!(
                matches!(&err, OisaError::Core(e) if refused(e)),
                "{what}: {err}"
            );
        }
    }
}

/// A worker that counts its round trips: pings and shards alike.
struct Counted {
    worker: InProcessWorker,
    trips: Arc<AtomicUsize>,
}

impl ShardTransport for Counted {
    fn round_trip(&mut self, message: &[u8]) -> Result<Vec<u8>, OisaError> {
        self.trips.fetch_add(1, Ordering::SeqCst);
        self.worker.round_trip(message)
    }
}

/// One check decides whether a job may run, so a refused job gets one
/// typed error on every backend and advances no observable state: the
/// local backend and a two-worker fleet return equal errors for program
/// jobs refused for a non-finite dense weight (first, in the middle or
/// last), a misshapen frame or no frames, and for conv jobs refused for
/// a misshapen frame mid-batch, a non-finite kernel weight, `k = 4` or no
/// frames — and the fleet refuses each before any round trip. A
/// misshapen frame reads the same wherever it enters. A valid job on
/// either backend then equals the sequential forward at epoch 0.
#[test]
fn refused_program_jobs_leave_every_backend_as_it_was() {
    let config = noisy_config(47);
    let program = shaped_program(false, 2, None, 3);
    let frames = textured_frames(3, 12);
    let oracle = run_reference(&config, 0, &program, &frames).unwrap();
    let Stage::Dense { matrix, .. } = &program.stages[2] else {
        panic!("the shaped program's third stage is dense");
    };
    let weights = matrix.len();
    let mut programs: Vec<ProgramJob> = [0, weights / 2, weights - 1]
        .into_iter()
        .map(|index| {
            let mut bad = program.clone();
            if let Stage::Dense { matrix, .. } = &mut bad.stages[2] {
                matrix[index] = f32::NAN;
            }
            job(1, bad, frames.clone())
        })
        .collect();
    let mut misshapen = frames.clone();
    misshapen[1] = Frame::constant(12, 12, 0.5).unwrap();
    programs.push(job(1, program.clone(), misshapen.clone()));
    programs.push(job(1, program.clone(), Vec::new()));
    let kernels = kernel_bank(2, 3, 4);
    let mut poisoned = kernels.clone();
    poisoned[1][4] = f32::NAN;
    let conv_job = |k, kernels, frames| InferenceJob {
        job_id: 1,
        k,
        kernels,
        frames,
    };
    let convs = [
        conv_job(3, kernels.clone(), misshapen.clone()),
        conv_job(3, poisoned, frames.clone()),
        conv_job(4, kernel_bank(2, 4, 4), frames.clone()),
        conv_job(3, kernels.clone(), Vec::new()),
    ];

    let trips = Arc::new(AtomicUsize::new(0));
    let workers: Vec<Box<dyn ShardTransport>> = (0..2)
        .map(|_| {
            Box::new(Counted {
                worker: InProcessWorker::new(config),
                trips: Arc::clone(&trips),
            }) as Box<dyn ShardTransport>
        })
        .collect();
    let mut fleet =
        FleetSupervisor::new(config, workers, Vec::new(), SupervisorOptions::default()).unwrap();
    let mut local = LocalBackend::new(config).unwrap();
    for (index, bad) in programs.iter().enumerate() {
        let err = local.run_program(bad).unwrap_err();
        assert_eq!(
            fleet.run_program(bad).unwrap_err(),
            err,
            "program job {index}"
        );
    }
    for (index, bad) in convs.iter().enumerate() {
        let err = local.run_job(bad).unwrap_err();
        assert_eq!(fleet.run_job(bad).unwrap_err(), err, "conv job {index}");
    }
    assert_eq!(
        trips.load(Ordering::SeqCst),
        0,
        "a refused job reached a worker"
    );

    let misfit = CoreError::InvalidParameter("frame is 12x12 but the imager is 16x16".into());
    assert_eq!(
        local.run_job(&convs[0]).unwrap_err(),
        OisaError::Core(misfit.clone())
    );
    let mut accel = OisaAccelerator::new(config).unwrap();
    let entered = [
        accel.convolve_frames(&misshapen, &kernels, 3).unwrap_err(),
        accel
            .convolve_frame_sequential(&misshapen[1], &kernels, 3)
            .unwrap_err(),
        accel.run_program_frames(&program, &misshapen).unwrap_err(),
    ];
    assert_eq!(entered, [misfit.clone(), misfit.clone(), misfit.clone()]);
    let engine = ServingEngine::new(
        OisaAccelerator::new(config).unwrap(),
        kernels,
        3,
        ServingConfig::default(),
    )
    .unwrap();
    match engine.submit(misshapen[1].clone()) {
        Err(SubmitError::Rejected(err)) => assert_eq!(err, misfit),
        other => panic!("expected a rejected submit, got {other:?}"),
    }
    let (_, stats) = engine.shutdown();
    assert_eq!(stats.frames_completed, 0, "the rejected frame was queued");

    for backend in [&mut local as &mut dyn ComputeBackend, &mut fleet] {
        let valid = backend.run_program(&job(2, program.clone(), frames.clone()));
        assert_eq!(valid.unwrap(), oracle);
    }
}

/// A dense stage whose `rows × cols` overflows `usize` is a typed
/// error on every entry point, not a panic: with 2⁶² + 1 rows over a
/// 4×4 imager's 2×2 conv output the product wraps to 4 — the matrix's
/// own length — so an unchecked size check passes and staging indexes
/// far past the matrix. The wire decoder accepts any row count, so a
/// decoded shard reaches the worker with it — whatever its entry
/// state, a cold or warm entry included, which skips the program
/// prewarm that checks shapes on the default path.
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

    for entry in entry_states() {
        let shard = ProgramShard {
            job_id: 1,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 0,
            config_fingerprint: config.fingerprint(),
            entry,
            program: program.clone(),
            frames: frames.clone(),
        };
        let Ok(WireMessage::ProgramShard(decoded)) =
            wire::decode(&wire::encode(&WireMessage::ProgramShard(shard)))
        else {
            panic!("the shard round-trips the wire");
        };
        let err = execute_program_shard(&config, &decoded).unwrap_err();
        assert!(refused(&err), "{:?}: {err}", decoded.entry);
    }
}

/// One of each fabric entry state a shard can carry; the warm one
/// stages a 3×3 kernel that fits a 4×4 imager.
fn entry_states() -> [FabricEntry; 3] {
    [
        FabricEntry::Cold,
        FabricEntry::WarmSelf,
        FabricEntry::Warm {
            k: 3,
            kernels: kernel_bank(2, 3, 5),
        },
    ]
}

/// A shard's reports equal a per-frame loop's from every fabric entry
/// state a shard can carry, staged the same way: `Cold` stages nothing,
/// `WarmSelf` runs `prewarm_program` and `Warm` runs `prewarm` with its
/// kernels. Frame 0 pays conv tuning from the entry state and every
/// later frame from the state the previous frame's dense stage left, so
/// only `WarmSelf` would agree with a loop that charged every frame the
/// entry tuning.
#[test]
fn every_fabric_entry_state_matches_the_per_frame_loop() {
    let config = noisy_config(19);
    let program = LayerProgram::autoencoder(16, 16, 4, 8, 23).unwrap();
    let frames = textured_frames(3, 6);
    for entry in entry_states() {
        let shard = ProgramShard {
            job_id: 1,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 6,
            config_fingerprint: config.fingerprint(),
            entry: entry.clone(),
            program: program.clone(),
            frames: frames.clone(),
        };
        let sharded = execute_program_shard(&config, &shard).unwrap();
        let mut looped = OisaAccelerator::new(config).unwrap();
        looped.align_noise_epoch(6).unwrap();
        match &entry {
            FabricEntry::Cold => {}
            FabricEntry::WarmSelf => looped.prewarm_program(&program).unwrap(),
            FabricEntry::Warm { k, kernels } => looped.prewarm(kernels, *k).unwrap(),
        }
        let expected: Vec<ProgramFrameReport> = frames
            .iter()
            .map(|frame| looped.run_program_frame(&program, frame).unwrap())
            .collect();
        assert_eq!(sharded.reports, expected, "{entry:?}");
    }
}

/// A frame that fails sensing anywhere in a run refuses the whole run
/// with the error the per-frame loop meets at that frame, after that
/// loop ran the frames before it. The run itself consumes no epoch and
/// stages nothing, so its next run equals a fresh accelerator's.
#[test]
fn a_frame_that_fails_sensing_anywhere_refuses_the_whole_run() {
    let config = noisy_config(29);
    let program = shaped_program(false, 2, None, 3);
    let next = &textured_frames(1, 9)[0];
    let fresh = OisaAccelerator::new(config)
        .unwrap()
        .run_program_frame(&program, next)
        .unwrap();
    for at in [0, 2, 3] {
        let mut frames = textured_frames(4, 8);
        frames[at] = Frame::constant(12, 12, 0.5).unwrap();
        let mut staged = OisaAccelerator::new(config).unwrap();
        let staged_err = staged.run_program_frames(&program, &frames).unwrap_err();
        let mut looped = OisaAccelerator::new(config).unwrap();
        let looped_err = per_frame_loop(&mut looped, &program, &frames).unwrap_err();
        assert_eq!(staged_err, looped_err, "bad frame {at}");
        assert_eq!(staged.next_noise_epoch(), 0, "bad frame {at}");
        assert_eq!(
            looped.next_noise_epoch(),
            at as u64 * program.epochs_per_frame(),
            "bad frame {at}"
        );
        assert_eq!(
            staged.run_program_frame(&program, next).unwrap(),
            fresh,
            "bad frame {at}"
        );
    }
}

/// A run whose epochs would wrap the noise counter is refused whole. On
/// an accelerator aligned to `u64::MAX − 2E` two frames fit and leave
/// the counter at `u64::MAX`; three are refused with the counter's own
/// error, the counter and the fabric left as they were. A shard whose
/// first epoch leaves room for fewer frames than it holds is refused
/// before its entry is staged, from every entry state: even a warm
/// entry whose kernels could not stage fails on the counter.
#[test]
fn a_run_whose_epochs_would_wrap_the_counter_is_refused_whole() {
    let config = noisy_config(37);
    let program = shaped_program(false, 2, None, 3);
    let start = u64::MAX - 2 * program.epochs_per_frame();
    let frames = textured_frames(3, 10);
    let aligned = || {
        let mut accel = OisaAccelerator::new(config).unwrap();
        accel.align_noise_epoch(start).unwrap();
        accel
    };
    let wraps = |err: &CoreError| match err {
        CoreError::Substrate(what) => what.contains("noise epoch counter would wrap"),
        _ => false,
    };

    let mut fits = aligned();
    fits.run_program_frames(&program, &frames[..2]).unwrap();
    assert_eq!(fits.next_noise_epoch(), u64::MAX);

    let mut refused = aligned();
    let err = refused.run_program_frames(&program, &frames).unwrap_err();
    assert!(wraps(&err), "{err}");
    assert_eq!(refused.next_noise_epoch(), start);
    assert_eq!(
        refused.run_program_frame(&program, &frames[0]).unwrap(),
        aligned().run_program_frame(&program, &frames[0]).unwrap(),
        "the refused run moved the fabric"
    );

    let unstageable = FabricEntry::Warm {
        k: 3,
        kernels: vec![vec![f32::NAN; 9]],
    };
    for entry in entry_states().into_iter().chain([unstageable]) {
        let shard = ProgramShard {
            job_id: 1,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: start,
            config_fingerprint: config.fingerprint(),
            entry,
            program: program.clone(),
            frames: frames.clone(),
        };
        let err = execute_program_shard(&config, &shard).unwrap_err();
        assert!(
            matches!(&err, OisaError::Core(e) if wraps(e)),
            "{:?}: {err}",
            shard.entry
        );
    }
}

/// A conv kernel side whose square overflows `usize` is refused with a
/// typed error on every entry point a decoded or caller-built shape
/// reaches: the wire decoder, both shard executors and both local
/// backend calls. Multiplied unchecked, `k = 2^32` panics in debug
/// builds and wraps to a 0-weight kernel in release builds.
#[test]
fn overflowing_kernel_side_is_refused_on_every_entry_point() {
    let config = OisaConfig::builder()
        .imager_dims(4, 4)
        .opc_shape(4, 2, 10)
        .seed(3)
        .build()
        .expect("test config validates");
    let k = 1usize << 32;
    let kernels = kernel_bank(1, 3, 0);
    let frames = vec![Frame::constant(4, 4, 0.5).unwrap()];
    let refused = |err: &OisaError| match err {
        OisaError::Core(CoreError::InvalidParameter(what)) => {
            what.contains("4294967296x4294967296")
        }
        _ => false,
    };

    // A shard — a conv job's one-stage program — fails decode, since
    // the decoder validates every program, and the shard executor
    // refuses it from every entry state.
    let program = LayerProgram {
        stages: vec![Stage::Conv {
            k,
            kernels: kernels.clone(),
        }],
    };
    for entry in entry_states() {
        let shard = ProgramShard {
            job_id: 1,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 0,
            config_fingerprint: config.fingerprint(),
            entry,
            program: program.clone(),
            frames: frames.clone(),
        };
        let decoded = wire::decode(&wire::encode(&WireMessage::ProgramShard(shard.clone())));
        assert!(
            matches!(decoded, Err(WireError::Malformed(_))),
            "{decoded:?}"
        );
        let err = execute_program_shard(&config, &shard).unwrap_err();
        assert!(refused(&err), "{:?}: {err}", shard.entry);
    }
    let err = LocalBackend::new(config)
        .unwrap()
        .run_program(&job(1, program, frames.clone()))
        .unwrap_err();
    assert!(refused(&err), "{err}");
    let conv_job = InferenceJob {
        job_id: 1,
        k,
        kernels,
        frames,
    };
    for backend in [
        &mut LocalBackend::new(config).unwrap() as &mut dyn ComputeBackend,
        &mut FleetSupervisor::in_process(config, 1).unwrap(),
    ] {
        let err = backend.run_job(&conv_job).unwrap_err();
        assert!(refused(&err), "{err}");
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
        &mut FleetSupervisor::in_process(config, 3).unwrap(),
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

    let mut sharded = FleetSupervisor::in_process(config, 2).unwrap();
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
    let mut backend = FleetSupervisor::in_process(config, 2).unwrap();

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

/// Reshapes one frame report.
type Bend = fn(&mut ProgramFrameReport);

/// A worker that executes honestly, then bends every frame report of
/// its reply with the bend currently set before re-encoding it: a
/// well-formed `ProgramReport` of the wrong shape. With no bend set it
/// is a healthy worker.
struct Misshapen {
    worker: InProcessWorker,
    bend: Arc<Mutex<Option<Bend>>>,
}

impl ShardTransport for Misshapen {
    fn round_trip(&mut self, message: &[u8]) -> Result<Vec<u8>, OisaError> {
        let reply = self.worker.round_trip(message)?;
        let bend = *self.bend.lock().expect("bend lock");
        let (Some(bend), WireMessage::ProgramReport(mut report)) = (bend, wire::decode(&reply)?)
        else {
            return Ok(reply);
        };
        report.reports.iter_mut().for_each(bend);
        Ok(wire::encode(&WireMessage::ProgramReport(report)))
    }
}

/// A two-worker fleet, no spares, whose second worker is a
/// [`Misshapen`] bending with whatever `bend` holds.
fn misshapen_fleet(config: OisaConfig, bend: &Arc<Mutex<Option<Bend>>>) -> FleetSupervisor {
    let workers: Vec<Box<dyn ShardTransport>> = vec![
        Box::new(InProcessWorker::new(config)),
        Box::new(Misshapen {
            worker: InProcessWorker::new(config),
            bend: Arc::clone(bend),
        }),
    ];
    FleetSupervisor::new(config, workers, Vec::new(), SupervisorOptions::default()).unwrap()
}

/// A reply whose frame reports do not have the program's shape fails
/// the job at once with a typed backend error before anything merges —
/// no worker is quarantined — and consumes no coordinator state: a
/// retry on the same coordinator, its worker healthy again, merges
/// bit-identically to the sequential forward.
#[test]
fn program_replies_of_the_wrong_shape_are_refused() {
    let config = noisy_config(41);
    let program = LayerProgram::autoencoder(16, 16, 2, 8, 3).unwrap();
    let frames = textured_frames(4, 7);
    let oracle = run_reference(&config, 0, &program, &frames).unwrap();
    let bends: [(&str, Bend); 5] = [
        ("7 latents for 8", |r| {
            r.output.pop();
        }),
        ("a dense stage short of a row", |r| {
            if let StageReport::Dense(dense) = &mut r.stages[2] {
                dense.output.pop();
            }
        }),
        ("a conv map missing", |r| {
            if let StageReport::Conv(conv) = &mut r.stages[0] {
                conv.output.pop();
            }
        }),
        ("a stage of another kind", |r| {
            r.stages[1] = StageReport::Activation;
        }),
        ("a stage missing", |r| {
            r.stages.pop();
        }),
    ];
    let bending = Arc::new(Mutex::new(None));
    let mut backend = misshapen_fleet(config, &bending);
    for (case, bend) in bends {
        *bending.lock().unwrap() = Some(bend);
        let err = backend
            .run_program(&job(1, program.clone(), frames.clone()))
            .unwrap_err();
        assert!(
            matches!(err, OisaError::Backend(ref what) if what.contains("does not match the program")),
            "{case}: {err}"
        );
        assert_eq!(backend.jobs_run(), 0, "{case}: no state advanced");
        assert_eq!(backend.status().quarantined, 0, "{case}: failed at once");
    }
    *bending.lock().unwrap() = None;
    let retried = backend
        .run_program(&job(1, program.clone(), frames.clone()))
        .unwrap();
    assert_eq!(retried, oracle, "the retry must merge as if nothing failed");
}

/// The conv-job twin of `program_replies_of_the_wrong_shape_are_refused`:
/// a conv job travels as a one-stage program, so a reply whose frame
/// reports hold a map too few or too many, maps of another size or a
/// stage of another kind fails the job before anything merges. A
/// retry on the same coordinator, its worker healthy again, merges
/// bit-identically to the sequential loop.
#[test]
fn conv_replies_of_the_wrong_shape_are_refused() {
    let config = noisy_config(43);
    let job = InferenceJob {
        job_id: 1,
        k: 3,
        kernels: kernel_bank(3, 3, 1),
        frames: textured_frames(4, 8),
    };
    let mut oracle = OisaAccelerator::new(config).unwrap();
    let looped: Vec<ConvolutionReport> = job
        .frames
        .iter()
        .map(|f| {
            oracle
                .convolve_frame_sequential(f, &job.kernels, 3)
                .unwrap()
        })
        .collect();
    let bends: [(&str, Bend); 4] = [
        ("a map missing", |r| {
            if let StageReport::Conv(conv) = &mut r.stages[0] {
                conv.output.pop();
            }
        }),
        ("a map added", |r| {
            if let StageReport::Conv(conv) = &mut r.stages[0] {
                conv.output.push(conv.output[0].clone());
            }
        }),
        ("13 rows of maps where 14 are due", |r| {
            if let StageReport::Conv(conv) = &mut r.stages[0] {
                conv.out_h -= 1;
                let len = conv.out_h * conv.out_w;
                conv.output.iter_mut().for_each(|map| map.truncate(len));
            }
        }),
        ("a stage of another kind", |r| {
            r.stages[0] = StageReport::Activation;
        }),
    ];
    let bending = Arc::new(Mutex::new(None));
    let mut backend = misshapen_fleet(config, &bending);
    for (case, bend) in bends {
        *bending.lock().unwrap() = Some(bend);
        let err = backend.run_job(&job).unwrap_err();
        assert!(
            matches!(err, OisaError::Backend(ref what) if what.contains("does not match the program")),
            "{case}: {err}"
        );
        assert_eq!(backend.jobs_run(), 0, "{case}: no state advanced");
        assert_eq!(backend.status().quarantined, 0, "{case}: failed at once");
    }
    *bending.lock().unwrap() = None;
    assert_eq!(
        backend.run_job(&job).unwrap(),
        looped,
        "the retry must merge as if nothing failed"
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
