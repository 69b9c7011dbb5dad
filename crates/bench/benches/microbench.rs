//! Criterion microbenchmarks over the hot paths behind every figure:
//! MR transfer evaluation, arm MACs, AWC level generation, pixel
//! exposure, conv2d, mapping planning and a short spice transient.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use oisa_core::mapping::{ConvWorkload, MappingPlan};
use oisa_core::mlp::{matvec, matvec_parallel};
use oisa_core::{OisaAccelerator, OisaConfig};
use oisa_device::awc::{AwcLadder, AwcParams};
use oisa_device::mr::{Microring, MrDesign};
use oisa_device::noise::{NoiseConfig, NoiseSource};
use oisa_nn::conv::Conv2d;
use oisa_nn::layer::Layer;
use oisa_nn::tensor::Tensor;
use oisa_optics::arm::{Arm, ArmConfig};
use oisa_optics::opc::{Opc, OpcConfig};
use oisa_optics::vom::{Vom, VomConfig};
use oisa_optics::weights::WeightMapper;
use oisa_sensor::frame::Frame;
use oisa_sensor::imager::{Imager, ImagerConfig};
use oisa_spice::{Circuit, TransientAnalysis, Waveform};
use oisa_units::{Farad, Meter, Ohm, Second};

fn bench_mr_transfer(c: &mut Criterion) {
    let ring = Microring::new(MrDesign::paper_default()).unwrap();
    c.bench_function("mr_through_transmission", |b| {
        b.iter(|| ring.through_transmission(black_box(Meter::from_nano(0.15))));
    });
}

fn bench_awc_levels(c: &mut Criterion) {
    let ladder = AwcLadder::ideal(AwcParams::paper_default()).unwrap();
    c.bench_function("awc_16_levels", |b| {
        b.iter(|| black_box(ladder.levels()));
    });
}

fn bench_arm_mac(c: &mut Criterion) {
    let mapper = WeightMapper::paper(4).unwrap();
    let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
    arm.load_weights(&[0.5, -0.25, 1.0, 0.1, 0.7, -0.9, 0.3, 0.2, -0.6], &mapper)
        .unwrap();
    let activations = [1.0, 0.5, 0.0, 1.0, 0.5, 1.0, 0.0, 0.5, 1.0];
    let mut noise = NoiseSource::seeded(1, NoiseConfig::paper_default());
    c.bench_function("arm_mac_9tap", |b| {
        b.iter(|| arm.mac(black_box(&activations), &mut noise).unwrap());
    });
    // The fused fast path with counter-addressed noise streams.
    let source = NoiseSource::seeded(1, NoiseConfig::paper_default());
    let slot = source.slot_stream(0, 0);
    let mut position = 0u64;
    c.bench_function("arm_mac_indexed_9tap", |b| {
        b.iter(|| {
            position = position.wrapping_add(1);
            let stream = slot.at(position);
            arm.mac_indexed(black_box(&activations), &stream, 0)
        });
    });
    // The pre-optimisation port the speedup is measured against.
    c.bench_function("arm_mac_reference_9tap", |b| {
        b.iter(|| {
            arm.mac_reference(black_box(&activations), &mut noise)
                .unwrap()
        });
    });
}

/// Sweeps the fused MAC over longer ring sequences so the per-ring
/// cost is visible without per-call overhead: `rings` total rings are
/// evaluated as repeated 9-tap windows (arms hold [`RINGS_PER_ARM`]
/// rings, so larger "rows" are chains of windows in practice). The
/// reported time divided by `rings` is the ns/ring figure quoted in
/// the arm module docs and `perf_json`.
fn bench_mac_rings(c: &mut Criterion) {
    let mapper = WeightMapper::paper(4).unwrap();
    let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
    arm.load_weights(&[0.5, -0.25, 1.0, 0.1, 0.7, -0.9, 0.3, 0.2, -0.6], &mapper)
        .unwrap();
    let snap = arm.snapshot(&NoiseConfig::paper_default());
    let source = NoiseSource::seeded(3, NoiseConfig::paper_default());
    let slot = source.slot_stream(0, 0);
    for rings in [72usize, 256, 1024] {
        let windows = rings / 9;
        let acts: Vec<f64> = (0..windows * 9)
            .map(|i| match i % 5 {
                0 => 0.0,
                r => r as f64 / 5.0,
            })
            .collect();
        let mut position = 0u64;
        c.bench_function(&format!("mac_core_{rings}_rings"), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for (wi, window) in acts.chunks_exact(9).enumerate() {
                    position = position.wrapping_add(1);
                    let stream = slot.at(position.wrapping_add(wi as u64));
                    let (v, _) = snap.mac_indexed(black_box(window), &stream, 0);
                    acc += v;
                }
                acc
            });
        });
    }
}

/// The batched Gaussian draw against four scalar draws on the same
/// counters — the mixing-kernel speedup in isolation.
fn bench_gaussian_lanes(c: &mut Criterion) {
    let source = NoiseSource::seeded(11, NoiseConfig::paper_default());
    let stream = source.stream(0, 0, 0);
    let mut c0 = 0u64;
    c.bench_function("gaussian_at_4_scalar", |b| {
        b.iter(|| {
            c0 = c0.wrapping_add(4);
            let mut acc = 0.0;
            for d in 0..4u64 {
                acc += stream.gaussian_at(black_box(c0 + d));
            }
            acc
        });
    });
    c.bench_function("gaussian_at_lanes", |b| {
        b.iter(|| {
            c0 = c0.wrapping_add(4);
            let [a, b2, c2, d] = stream.gaussian_at_lanes(black_box([c0, c0 + 1, c0 + 2, c0 + 3]));
            a + b2 + c2 + d
        });
    });
}

fn bench_pixel_exposure(c: &mut Criterion) {
    let imager = Imager::new(ImagerConfig::paper_default(128, 128)).unwrap();
    let frame = Frame::constant(128, 128, 0.6).unwrap();
    c.bench_function("imager_expose_128x128", |b| {
        b.iter(|| imager.expose(black_box(&frame)).unwrap());
    });
}

fn bench_conv2d(c: &mut Criterion) {
    let mut conv = Conv2d::with_seed(3, 16, 3, 1, 1, 7).unwrap();
    let x = Tensor::he_normal(vec![1, 3, 16, 16], 27, 3);
    c.bench_function("conv2d_im2col_3to16_16x16", |b| {
        b.iter(|| conv.forward(black_box(&x), false).unwrap());
    });
    c.bench_function("conv2d_naive_3to16_16x16", |b| {
        b.iter(|| conv.forward_naive(black_box(&x), false).unwrap());
    });
}

fn bench_mapping_plan(c: &mut Criterion) {
    let opc = OpcConfig::paper_default();
    let workload = ConvWorkload::resnet18_first_layer();
    c.bench_function("mapping_plan_resnet_l1", |b| {
        b.iter(|| MappingPlan::compute(black_box(&workload), &opc).unwrap());
    });
}

fn bench_spice_rc(c: &mut Criterion) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0))
        .unwrap();
    ckt.resistor("R1", vin, out, Ohm::from_kilo(1.0)).unwrap();
    ckt.capacitor("C1", out, Circuit::GND, Farad::from_pico(100.0))
        .unwrap();
    c.bench_function("spice_rc_1000_steps", |b| {
        b.iter(|| {
            TransientAnalysis::new(Second::from_nano(100.0), Second::from_pico(100.0))
                .run(black_box(&ckt))
                .unwrap()
        });
    });
}

fn bench_full_frame_conv(c: &mut Criterion) {
    let frame = Frame::constant(16, 16, 0.6).unwrap();
    let kernels = vec![vec![0.4f32; 9]; 4];
    c.bench_function("oisa_convolve_frame_16x16_4k", |b| {
        b.iter_batched(
            || OisaAccelerator::new(OisaConfig::small_test()).unwrap(),
            |mut accel| accel.convolve_frame(&frame, &kernels, 3).unwrap(),
            BatchSize::SmallInput,
        );
    });
}

/// Streamed weight staging: a 32×32 frame against twice as many
/// kernels as the fabric holds, so the engine runs multiple weight
/// passes and pass `N + 1`'s quantise/tune/snapshot overlaps pass
/// `N`'s row drain on the worker pool. The sequential twin stages
/// strictly serially — the gap between the two is (threads ×) compute
/// plus whatever staging latency the overlap hides.
fn bench_staging_overlap(c: &mut Criterion) {
    let side = 32usize;
    let data: Vec<f64> = (0..side * side)
        .map(|i| ((i % 13) as f64 / 13.0).clamp(0.0, 1.0))
        .collect();
    let frame = Frame::new(side, side, data).unwrap();
    // The small 20-slot fabric keeps the pass count (and bench time)
    // honest: 40 kernels → 2 passes, so staging genuinely re-runs
    // mid-frame instead of once up front.
    let mut cfg = OisaConfig::builder()
        .imager_dims(side, side)
        .opc_shape(4, 2, 10)
        .build()
        .unwrap();
    cfg.seed = 7;
    let workload = ConvWorkload {
        out_channels: 1,
        in_channels: 1,
        kernel: 3,
        input_h: side,
        input_w: side,
        stride: 1,
    };
    let plan = MappingPlan::compute(&workload, &cfg.opc).unwrap();
    let count = plan.slots_per_pass * 2;
    let kernels: Vec<Vec<f32>> = (0..count)
        .map(|i| (0..9).map(|j| ((i * 7 + j) as f32 * 0.37).sin()).collect())
        .collect();
    let mut accel = OisaAccelerator::new(cfg).unwrap();
    c.bench_function("staging_overlap_32x32_multipass", |b| {
        b.iter(|| {
            accel
                .convolve_frame(black_box(&frame), &kernels, 3)
                .unwrap()
        });
    });
    c.bench_function("staging_serial_32x32_multipass", |b| {
        b.iter(|| {
            accel
                .convolve_frame_sequential(black_box(&frame), &kernels, 3)
                .unwrap()
        });
    });
}

/// The acceptance workload: a full 128×128 frame against 16 kernels,
/// optimised pipeline vs the pre-optimisation reference.
fn bench_full_frame_conv_128(c: &mut Criterion) {
    let side = 128usize;
    let data: Vec<f64> = (0..side * side)
        .map(|i| {
            let x = (i % side) as f64 / side as f64;
            let y = (i / side) as f64 / side as f64;
            (0.5 + 0.5 * (8.0 * x).sin() * (6.0 * y).cos()).clamp(0.0, 1.0)
        })
        .collect();
    let frame = Frame::new(side, side, data).unwrap();
    let kernels: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            (0..9)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    let mut cfg = OisaConfig::paper_default(side, side);
    cfg.seed = 42;
    let mut accel = OisaAccelerator::new(cfg).unwrap();
    c.bench_function("oisa_convolve_frame_128x128_16k", |b| {
        b.iter(|| {
            accel
                .convolve_frame(black_box(&frame), &kernels, 3)
                .unwrap()
        });
    });
    c.bench_function("oisa_convolve_frame_128x128_16k_reference", |b| {
        b.iter(|| {
            accel
                .convolve_frame_reference(black_box(&frame), &kernels, 3)
                .unwrap()
        });
    });
}

/// The parallel dense path vs its serial oracle on a 256-row layer.
fn bench_matvec(c: &mut Criterion) {
    let cfg = OpcConfig {
        banks: 4,
        columns: 2,
        awc_units: 10,
        arm: ArmConfig::paper_default(),
    };
    let mut opc = Opc::new(cfg).unwrap();
    let vom = Vom::new(VomConfig::paper_default()).unwrap();
    let mapper = WeightMapper::ideal(4).unwrap();
    let rows = 256usize;
    let cols = 72usize;
    let matrix: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.19).sin()).collect();
    let input: Vec<f64> = (0..cols)
        .map(|i| ((i as f64 * 0.23).sin().abs()).min(1.0))
        .collect();
    let mut noise = NoiseSource::seeded(7, NoiseConfig::paper_default());
    c.bench_function("matvec_serial_256x72", |b| {
        b.iter(|| {
            matvec(
                &mut opc,
                &vom,
                &mapper,
                black_box(&matrix),
                rows,
                cols,
                &input,
                &mut noise,
            )
            .unwrap()
        });
    });
    c.bench_function("matvec_parallel_256x72", |b| {
        b.iter(|| {
            matvec_parallel(
                &mut opc,
                &vom,
                &mapper,
                black_box(&matrix),
                rows,
                cols,
                &input,
                &mut noise,
            )
            .unwrap()
        });
    });
}

/// The batched engine on 8 frames vs a per-frame loop over the same
/// frames — the sustained-throughput acceptance workload at bench size.
fn bench_batch_conv(c: &mut Criterion) {
    let side = 32usize;
    let frames: Vec<Frame> = (0..8)
        .map(|f| {
            let data: Vec<f64> = (0..side * side)
                .map(|i| {
                    let x = (i % side) as f64 / side as f64;
                    let y = (i / side) as f64 / side as f64;
                    (0.5 + 0.5 * ((8.0 + f as f64) * x).sin() * (6.0 * y).cos()).clamp(0.0, 1.0)
                })
                .collect();
            Frame::new(side, side, data).unwrap()
        })
        .collect();
    let kernels: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..9)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    let mut cfg = OisaConfig::paper_default(side, side);
    cfg.seed = 9;
    let mut accel = OisaAccelerator::new(cfg).unwrap();
    c.bench_function("batch_8_frames_32x32", |b| {
        b.iter(|| {
            accel
                .convolve_frames(black_box(&frames), &kernels, 3)
                .unwrap()
        });
    });
    c.bench_function("loop_8_frames_32x32", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|f| accel.convolve_frame(black_box(f), &kernels, 3).unwrap())
                .count()
        });
    });
}

/// The serving front end on the batch workload: 8 frames submitted to
/// the queue and waited on, against `batch_8_frames_32x32` the delta is
/// pure serving overhead (queueing, batch formation, handle wakeups).
fn bench_serving(c: &mut Criterion) {
    use oisa_core::serving::{ServingConfig, ServingEngine};
    use std::time::Duration;

    let side = 32usize;
    let frames: Vec<Frame> = (0..8)
        .map(|f| {
            let data: Vec<f64> = (0..side * side)
                .map(|i| {
                    let x = (i % side) as f64 / side as f64;
                    let y = (i / side) as f64 / side as f64;
                    (0.5 + 0.5 * ((8.0 + f as f64) * x).sin() * (6.0 * y).cos()).clamp(0.0, 1.0)
                })
                .collect();
            Frame::new(side, side, data).unwrap()
        })
        .collect();
    let kernels: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..9)
                .map(|j| ((i * 7 + j * 3) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    let mut cfg = OisaConfig::paper_default(side, side);
    cfg.seed = 9;
    let engine = ServingEngine::new(
        OisaAccelerator::new(cfg).unwrap(),
        kernels,
        3,
        ServingConfig {
            max_batch: 8,
            deadline: Duration::from_millis(2),
            queue_depth: 16,
        },
    )
    .unwrap();
    c.bench_function("serving_8_frames_32x32", |b| {
        b.iter(|| {
            let handles: Vec<_> = frames
                .iter()
                .map(|f| engine.submit(black_box(f.clone())).unwrap())
                .collect();
            for h in handles {
                black_box(h.wait().unwrap());
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_mr_transfer,
        bench_awc_levels,
        bench_arm_mac,
        bench_mac_rings,
        bench_gaussian_lanes,
        bench_pixel_exposure,
        bench_conv2d,
        bench_mapping_plan,
        bench_spice_rc,
        bench_full_frame_conv,
        bench_staging_overlap,
        bench_full_frame_conv_128,
        bench_matvec,
        bench_batch_conv,
        bench_serving,
}
criterion_main!(benches);
