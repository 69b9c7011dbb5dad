//! Cross-crate guarantees of the batched inference engine and the
//! parallel dense path: element-exact agreement with their serial
//! oracles — outputs, energy reports and timelines — over randomised
//! workloads, with worker threads forced on so the claims are never
//! vacuous on small CI hosts. `convolve_frame`, the engine's one-frame
//! batch, is also pinned against `convolve_frame_sequential` over
//! random frame shapes on the paper configuration, 3×3, 5×5 and 7×7.

use oisa::core::mlp::{matvec, matvec_parallel};
use oisa::core::serving::{ServingConfig, ServingEngine};
use oisa::core::{ConvolutionReport, CoreError, OisaAccelerator, OisaConfig, OisaError};
use oisa::device::noise::{NoiseConfig, NoiseSource};
use oisa::optics::arm::ArmConfig;
use oisa::optics::opc::{Opc, OpcConfig};
use oisa::optics::vom::{Vom, VomConfig};
use oisa::optics::weights::WeightMapper;
use oisa::sensor::Frame;
use proptest::prelude::*;

/// Deterministic frame whose texture varies with `tag`.
fn frame_16(tag: u64) -> Frame {
    let data: Vec<f64> = (0..256)
        .map(|i| {
            let phase = (i as f64 * 0.37) + tag as f64 * 1.91;
            (0.5 + 0.5 * phase.sin()).clamp(0.0, 1.0)
        })
        .collect();
    Frame::new(16, 16, data).unwrap()
}

/// Deterministic kernel bank seeded by `tag`.
fn kernel_bank(tag: u64, count: usize, k: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| (((tag as usize + i * 7 + j * 3) as f32) * 0.41).sin())
                .collect()
        })
        .collect()
}

fn batch_config(seed: u64) -> OisaConfig {
    let mut cfg = OisaConfig::small_test();
    cfg.noise = NoiseConfig::paper_default();
    cfg.seed = seed;
    cfg
}

/// The tentpole batch property on a fixed workload: 8 frames, forced
/// worker threads, element-exact reports and identical post-batch
/// accelerator state.
#[test]
fn batch_of_eight_bit_identical_to_sequential_loop() {
    rayon::set_num_threads(4);
    let cfg = batch_config(2024);
    let frames: Vec<Frame> = (0..8).map(frame_16).collect();
    let kernels = kernel_bank(3, 6, 3);

    let mut batch = OisaAccelerator::new(cfg).unwrap();
    let mut serial = OisaAccelerator::new(cfg).unwrap();
    let batched = batch.convolve_frames(&frames, &kernels, 3).unwrap();
    let looped: Vec<ConvolutionReport> = frames
        .iter()
        .map(|f| serial.convolve_frame_sequential(f, &kernels, 3).unwrap())
        .collect();
    assert_eq!(batched, looped);

    // The engines leave the accelerator in the same state: fabric
    // operating point, bank counters and noise epoch all line up, so
    // the *next* frame agrees too.
    let next = frame_16(99);
    assert_eq!(
        batch.convolve_frame(&next, &kernels, 3).unwrap(),
        serial.convolve_frame(&next, &kernels, 3).unwrap()
    );
}

/// Multi-pass (25 kernels on a 20-slot fabric) and VOM-aggregated 5×5
/// batches hold the same exactness.
#[test]
fn batch_parity_covers_multi_pass_and_vom_kernels() {
    rayon::set_num_threads(3);
    let cfg = batch_config(7);
    let frames: Vec<Frame> = (0..3).map(|f| frame_16(f + 40)).collect();
    for (count, k) in [(25usize, 3usize), (2, 5)] {
        let kernels = kernel_bank(11, count, k);
        let mut batch = OisaAccelerator::new(cfg).unwrap();
        let mut serial = OisaAccelerator::new(cfg).unwrap();
        let batched = batch.convolve_frames(&frames, &kernels, k).unwrap();
        let looped: Vec<ConvolutionReport> = frames
            .iter()
            .map(|f| serial.convolve_frame_sequential(f, &kernels, k).unwrap())
            .collect();
        assert_eq!(batched, looped, "{count} kernels of {k}x{k}");
    }
}

/// A kernel set holding a NaN or an infinite weight is refused with a
/// typed error naming the weight, by every conv path and before any
/// noise epoch or fabric change: serving construction, the batch engine
/// and the serial oracle. One-pass (6 kernels) and two-pass (25 kernels
/// on the 20-slot fabric) sets, the bad weight first, in the middle or
/// last.
#[test]
fn non_finite_conv_weights_fail_before_any_epoch_or_fabric_change() {
    let cfg = batch_config(5);
    let frames: Vec<Frame> = (0..3).map(|f| frame_16(f + 60)).collect();
    for count in [6usize, 25] {
        let kernels = kernel_bank(17, count, 3);
        let fresh_batch = OisaAccelerator::new(cfg)
            .unwrap()
            .convolve_frames(&frames, &kernels, 3)
            .unwrap();
        let fresh_serial = OisaAccelerator::new(cfg)
            .unwrap()
            .convolve_frame_sequential(&frames[0], &kernels, 3)
            .unwrap();
        let weights = count * 9;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0, weights / 2, weights - 1] {
                let what = format!("{count} kernels, {bad} at weight {at}");
                let named = format!("kernel {} weight {} is {bad}", at / 9, at % 9);
                let mut poisoned = kernels.clone();
                poisoned[at / 9][at % 9] = bad;

                let served = ServingEngine::new(
                    OisaAccelerator::new(cfg).unwrap(),
                    poisoned.clone(),
                    3,
                    ServingConfig::default(),
                );
                match served.err() {
                    Some(OisaError::Core(CoreError::InvalidParameter(msg))) => {
                        assert!(msg.contains(&named), "{what}: {msg}");
                    }
                    other => panic!("{what}: construction must refuse, got {other:?}"),
                }

                let mut batch = OisaAccelerator::new(cfg).unwrap();
                let mut serial = OisaAccelerator::new(cfg).unwrap();
                let batch_err = batch.convolve_frames(&frames, &poisoned, 3).unwrap_err();
                let serial_err = serial
                    .convolve_frame_sequential(&frames[0], &poisoned, 3)
                    .unwrap_err();
                assert_eq!(batch_err, serial_err, "{what}");
                match &batch_err {
                    CoreError::InvalidParameter(msg) => {
                        assert!(msg.contains(&named), "{what}: {msg}")
                    }
                    other => panic!("{what}: expected InvalidParameter, got {other:?}"),
                }
                assert_eq!(batch.next_noise_epoch(), 0, "{what}");
                assert_eq!(serial.next_noise_epoch(), 0, "{what}");
                // Nothing moved, so a valid call next runs as it would
                // on a fresh accelerator.
                assert_eq!(
                    batch.convolve_frames(&frames, &kernels, 3).unwrap(),
                    fresh_batch,
                    "{what}"
                );
                assert_eq!(
                    serial
                        .convolve_frame_sequential(&frames[0], &kernels, 3)
                        .unwrap(),
                    fresh_serial,
                    "{what}"
                );
            }
        }
    }
}

/// A multi-channel convolution checks every channel before the first
/// one runs: a misshapen third frame, or a non-finite weight in the
/// second channel's planes, returns the error that channel's own
/// one-frame call meets, consumes no noise epoch and leaves the fabric
/// as it was, so a valid call next equals a fresh accelerator's.
#[test]
fn multichannel_convolution_refuses_before_any_channel_runs() {
    let cfg = batch_config(9);
    let frames: Vec<Frame> = (0..3).map(|f| frame_16(f + 70)).collect();
    // `kernels[oc][ic]`: 4 output channels over 3 input channels.
    let kernels: Vec<Vec<Vec<f32>>> = (0..4).map(|oc| kernel_bank(oc * 5 + 1, 3, 3)).collect();
    let fresh = OisaAccelerator::new(cfg)
        .unwrap()
        .convolve_channels(&frames, &kernels, 3)
        .unwrap();
    let mut misshapen = frames.clone();
    misshapen[2] = Frame::constant(12, 12, 0.5).unwrap();
    let mut poisoned = kernels.clone();
    poisoned[1][1][4] = f32::NAN;
    for (what, channel, bad_frames, bad_kernels) in [
        ("a 12x12 third frame", 2, &misshapen, &kernels),
        (
            "a NaN in the second channel's planes",
            1,
            &frames,
            &poisoned,
        ),
    ] {
        let planes: Vec<Vec<f32>> = bad_kernels.iter().map(|kn| kn[channel].clone()).collect();
        let own = OisaAccelerator::new(cfg)
            .unwrap()
            .convolve_frame(&bad_frames[channel], &planes, 3)
            .unwrap_err();
        let mut accel = OisaAccelerator::new(cfg).unwrap();
        let err = accel
            .convolve_channels(bad_frames, bad_kernels, 3)
            .unwrap_err();
        assert_eq!(err, own, "{what}");
        assert_eq!(accel.next_noise_epoch(), 0, "{what}");
        assert_eq!(
            accel.convolve_channels(&frames, &kernels, 3).unwrap(),
            fresh,
            "{what}"
        );
    }
}

proptest! {
    /// Randomised batches are element-exact against the per-frame
    /// sequential oracle: every field of every report.
    #[test]
    fn prop_batch_matches_sequential_loop(
        seed in 0u64..40,
        nframes in 1usize..=3,
        nkernels in 1usize..=5,
    ) {
        let cfg = batch_config(seed);
        let frames: Vec<Frame> = (0..nframes as u64)
            .map(|f| frame_16(seed.wrapping_mul(31).wrapping_add(f)))
            .collect();
        let kernels = kernel_bank(seed, nkernels, 3);
        let mut batch = OisaAccelerator::new(cfg).unwrap();
        let mut serial = OisaAccelerator::new(cfg).unwrap();
        let batched = batch.convolve_frames(&frames, &kernels, 3).unwrap();
        let looped: Vec<ConvolutionReport> = frames
            .iter()
            .map(|f| serial.convolve_frame_sequential(f, &kernels, 3).unwrap())
            .collect();
        prop_assert_eq!(batched, looped);
    }

    /// Randomised dense layers: parallel matvec is bit-identical to the
    /// serial oracle — output vector, chunk count, energy and latency —
    /// under the ideal ladder and the paper's mismatch ladder (the one
    /// the accelerator builds; its top level is 0.88) at every AWC
    /// resolution, with ring crosstalk on and off, for rows spanning
    /// up to eight nine-weight chunks with ragged tails.
    #[test]
    fn prop_matvec_parallel_matches_serial(
        seed in 0u64..40,
        rows in 1usize..=10,
        cols in 1usize..=70,
        paper_ladder in proptest::bool::ANY,
        bits in 1u8..=4,
        crosstalk in proptest::bool::ANY,
    ) {
        rayon::set_num_threads(3);
        let cfg = OpcConfig {
            banks: 2,
            columns: 1,
            awc_units: 10,
            arm: ArmConfig {
                crosstalk,
                ..ArmConfig::paper_default()
            },
        };
        let mut opc = Opc::new(cfg).unwrap();
        let vom = Vom::new(VomConfig::paper_default()).unwrap();
        let mapper = if paper_ladder {
            WeightMapper::paper(bits)
        } else {
            WeightMapper::ideal(bits)
        }
        .unwrap();
        let matrix: Vec<f32> = (0..rows * cols)
            .map(|i| ((seed as usize + i) as f32 * 0.29).sin())
            .collect();
        let input: Vec<f64> = (0..cols)
            .map(|i| (((seed as usize + i) as f64) * 0.17).sin().abs().min(1.0))
            .collect();
        let mut serial_noise = NoiseSource::seeded(seed, NoiseConfig::paper_default());
        let mut parallel_noise = NoiseSource::seeded(seed, NoiseConfig::paper_default());
        let mut parallel_opc = Opc::new(cfg).unwrap();
        let serial = matvec(
            &mut opc, &vom, &mapper, &matrix, rows, cols, &input, &mut serial_noise,
        ).unwrap();
        let parallel = matvec_parallel(
            &mut parallel_opc, &vom, &mapper, &matrix, rows, cols, &input, &mut parallel_noise,
        ).unwrap();
        prop_assert_eq!(serial, parallel);
        // Both engines leave the fabric in the same exit state.
        prop_assert_eq!(opc, parallel_opc);
    }
}

/// Frame whose pixels follow a salted residue pattern, for the
/// random-shape engine parity properties below.
fn deterministic_frame(width: usize, height: usize, salt: u64) -> Frame {
    let data: Vec<f64> = (0..width * height)
        .map(|i| (((i as u64).wrapping_mul(salt | 1) % 97) as f64 / 96.0).clamp(0.0, 1.0))
        .collect();
    Frame::new(width, height, data).unwrap()
}

fn deterministic_kernels(count: usize, k2: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k2)
                .map(|j| (((i * k2 + j) as f32 + salt as f32) * 0.37).sin())
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn engine_parallel_matches_sequential_bitwise(
        seed in 0u64..1_000,
        salt in 1u64..1_000,
        width in 8usize..=18,
        height in 8usize..=18,
        count in 1usize..=25,
        noisy in proptest::bool::ANY,
    ) {
        let mut cfg = OisaConfig::paper_default(width, height);
        cfg.seed = seed;
        cfg.noise = if noisy {
            NoiseConfig::paper_default()
        } else {
            NoiseConfig::noiseless()
        };
        let frame = deterministic_frame(width, height, salt);
        let kernels = deterministic_kernels(count, 9, salt);
        let mut par = OisaAccelerator::new(cfg).unwrap();
        let mut seq = OisaAccelerator::new(cfg).unwrap();
        let rp = par.convolve_frame(&frame, &kernels, 3).unwrap();
        let rs = seq.convolve_frame_sequential(&frame, &kernels, 3).unwrap();
        prop_assert_eq!(&rp.output, &rs.output);
        prop_assert_eq!(rp.energy, rs.energy);
    }

    #[test]
    fn engine_parity_holds_for_multi_arm_kernels(
        seed in 0u64..200,
        salt in 1u64..200,
        count in 1usize..=4,
        wide in prop::bool::ANY,
    ) {
        // 5×5 (three arms) and 7×7 (five arms) kernels route through
        // the VOM multi-arm path.
        let k = if wide { 7 } else { 5 };
        let mut cfg = OisaConfig::paper_default(12, 12);
        cfg.seed = seed;
        cfg.noise = NoiseConfig::paper_default();
        let frame = deterministic_frame(12, 12, salt);
        let kernels = deterministic_kernels(count, k * k, salt);
        let mut par = OisaAccelerator::new(cfg).unwrap();
        let mut seq = OisaAccelerator::new(cfg).unwrap();
        let rp = par.convolve_frame(&frame, &kernels, k).unwrap();
        let rs = seq.convolve_frame_sequential(&frame, &kernels, k).unwrap();
        prop_assert_eq!(&rp.output, &rs.output);
        prop_assert_eq!(rp.energy, rs.energy);
    }
}
