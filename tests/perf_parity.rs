//! Cross-crate guarantees of the optimised convolution pipeline:
//! thread-count-independent physics, bit-identical to the serial
//! oracle, `convolve_frame_sequential`, which ports the
//! pre-optimisation pipeline and shares no hot-loop code with the
//! engine.

use oisa::core::{OisaAccelerator, OisaConfig};
use oisa::device::noise::NoiseConfig;
use oisa::sensor::Frame;

fn textured_frame(side: usize) -> Frame {
    let data: Vec<f64> = (0..side * side)
        .map(|i| {
            let x = (i % side) as f64 / side as f64;
            let y = (i / side) as f64 / side as f64;
            (0.5 + 0.5 * (8.0 * x).sin() * (6.0 * y).cos()).clamp(0.0, 1.0)
        })
        .collect();
    Frame::new(side, side, data).unwrap()
}

fn kernel_bank(count: usize, k: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                .collect()
        })
        .collect()
}

/// The headline property: the parallel pipeline is bit-identical to
/// the serial oracle under a fixed seed — output, energy report and
/// timeline — even when forced onto multiple worker threads.
#[test]
fn parallel_pipeline_bit_identical_to_sequential_reference() {
    rayon::set_num_threads(4);
    let frame = textured_frame(32);
    let kernels = kernel_bank(8, 3);
    let mut cfg = OisaConfig::paper_default(32, 32);
    cfg.noise = NoiseConfig::paper_default();
    cfg.seed = 20_24;

    let mut parallel = OisaAccelerator::new(cfg).unwrap();
    let mut sequential = OisaAccelerator::new(cfg).unwrap();
    let rp = parallel.convolve_frame(&frame, &kernels, 3).unwrap();
    let rs = sequential
        .convolve_frame_sequential(&frame, &kernels, 3)
        .unwrap();

    assert_eq!(rp.output, rs.output, "outputs must be bit-identical");
    assert_eq!(rp.energy, rs.energy, "energy must be bit-identical");
    assert_eq!(rp.timeline, rs.timeline, "timeline must be bit-identical");

    // And a re-run of the parallel path on a fresh accelerator replays
    // exactly (counter-based streams under the same seed).
    let mut replay = OisaAccelerator::new(cfg).unwrap();
    let rr = replay.convolve_frame(&frame, &kernels, 3).unwrap();
    assert_eq!(rp.output, rr.output);
    assert_eq!(rp.energy, rr.energy);
}

/// With noise disabled, the optimised pipeline and the
/// pre-optimisation port must produce exactly the same feature maps.
#[test]
fn optimised_pipeline_reproduces_reference_physics() {
    let frame = textured_frame(24);
    let kernels = kernel_bank(4, 3);
    let mut cfg = OisaConfig::paper_default(24, 24);
    cfg.noise = NoiseConfig::noiseless();
    cfg.seed = 5;

    let mut fast = OisaAccelerator::new(cfg).unwrap();
    let mut reference = OisaAccelerator::new(cfg).unwrap();
    let rf = fast.convolve_frame(&frame, &kernels, 3).unwrap();
    let rr = reference
        .convolve_frame_sequential(&frame, &kernels, 3)
        .unwrap();
    assert_eq!(rf.output, rr.output);
}

/// The 5×5 kernel path (multi-arm, VOM-aggregated) holds the same
/// parallel/sequential parity.
#[test]
fn vom_aggregated_kernels_hold_parity() {
    rayon::set_num_threads(4);
    let frame = textured_frame(20);
    let kernels = kernel_bank(3, 5);
    let mut cfg = OisaConfig::paper_default(20, 20);
    cfg.noise = NoiseConfig::paper_default();
    cfg.seed = 99;

    let mut parallel = OisaAccelerator::new(cfg).unwrap();
    let mut sequential = OisaAccelerator::new(cfg).unwrap();
    let rp = parallel.convolve_frame(&frame, &kernels, 5).unwrap();
    let rs = sequential
        .convolve_frame_sequential(&frame, &kernels, 5)
        .unwrap();
    assert_eq!(rp.output, rs.output);
    assert_eq!(rp.energy, rs.energy);
    assert!(rp.energy.aggregation.get() > 0.0, "VOM must be exercised");
}
