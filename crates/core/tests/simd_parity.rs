//! SIMD ↔ scalar ↔ sequential-engine parity, property-tested.
//!
//! The wire-level bit-identity guarantee says: the same `OisaConfig`
//! and inputs produce the same bits no matter which engine ran —
//! parallel or strictly serial, any `OISA_SIMD_TIER`. These tests pin
//! that guarantee from outside the crates:
//!
//! * engine level: `convolve_frame` == `convolve_frame_sequential`
//!   bit-for-bit over random configs, frames and kernel sets;
//! * draw level: `gaussian_at_lanes` == 4 scalar `gaussian_at` calls
//!   (including forced `ziggurat_slow` tail draws).
//!
//! The CI matrix runs this same binary with `OISA_SIMD_TIER=scalar`,
//! which pins `gaussian_at_lanes` to the scalar mixing kernel: AVX2 and
//! AVX-512 runs must produce the bits the scalar run produced.

use oisa_core::accelerator::{OisaAccelerator, OisaConfig};
use oisa_device::noise::{NoiseConfig, NoiseSource};
use oisa_device::simd::LANES;
use oisa_sensor::frame::Frame;
use proptest::prelude::*;

/// Marsaglia tail cutoff of the 128-layer ziggurat: any draw with
/// magnitude beyond it *must* have come through `ziggurat_slow`.
const ZIG_R: f64 = 3.442_619_855_899;

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
    ) {
        // 5×5 kernels route through the VOM multi-arm path.
        let mut cfg = OisaConfig::paper_default(12, 12);
        cfg.seed = seed;
        cfg.noise = NoiseConfig::paper_default();
        let frame = deterministic_frame(12, 12, salt);
        let kernels = deterministic_kernels(count, 25, salt);
        let mut par = OisaAccelerator::new(cfg).unwrap();
        let mut seq = OisaAccelerator::new(cfg).unwrap();
        let rp = par.convolve_frame(&frame, &kernels, 5).unwrap();
        let rs = seq.convolve_frame_sequential(&frame, &kernels, 5).unwrap();
        prop_assert_eq!(&rp.output, &rs.output);
        prop_assert_eq!(rp.energy, rs.energy);
    }

    #[test]
    fn gaussian_lanes_match_scalar_draws(
        seed in 0u64..10_000,
        slot in 0u64..64,
        position in 0u64..100_000,
        c0 in 0u64..1u64 << 40,
        stride in 1u64..1_000,
    ) {
        let src = NoiseSource::seeded(seed, NoiseConfig::paper_default());
        let stream = src.stream(1, slot, position);
        let counters = [c0, c0 + stride, c0 + 2 * stride, c0 + 3 * stride];
        let batched = stream.gaussian_at_lanes(counters);
        for l in 0..LANES {
            prop_assert_eq!(batched[l].to_bits(), stream.gaussian_at(counters[l]).to_bits());
        }
    }
}

#[test]
fn gaussian_lanes_cover_forced_ziggurat_slow_draws() {
    // Any draw with |g| > ZIG_R came through the Marsaglia tail inside
    // `ziggurat_slow`, so scanning for outliers yields deterministic
    // counters that force the cold path. The batched kernel must fall
    // back per-lane and reproduce them bit-for-bit.
    let src = NoiseSource::seeded(0xC0FFEE, NoiseConfig::paper_default());
    let stream = src.stream(1, 0, 0);
    let tails: Vec<u64> = (0..2_000_000u64)
        .filter(|&c| stream.gaussian_at(c).abs() > ZIG_R)
        .take(LANES)
        .collect();
    assert_eq!(
        tails.len(),
        LANES,
        "expected ≥ {LANES} tail draws in 2M counters"
    );
    let counters = [tails[0], tails[1], tails[2], tails[3]];
    let batched = stream.gaussian_at_lanes(counters);
    for l in 0..LANES {
        let scalar = stream.gaussian_at(counters[l]);
        assert!(scalar.abs() > ZIG_R);
        assert_eq!(batched[l].to_bits(), scalar.to_bits());
    }
}
