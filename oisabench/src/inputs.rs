//! Seeded workload inputs. One `--seed` fixes the accelerator seed,
//! every frame, every kernel and every program weight; the program
//! under test receives only these generated values.

use oisa_core::program::{LayerProgram, Stage};
use oisa_core::OisaConfig;
use oisa_datasets::{DatasetSpec, SyntheticDataset};
use oisa_sensor::frame::Frame;

use crate::stats::SplitMix64;

/// Frames cycled through by every workload, in request order.
pub const FRAME_POOL: usize = 16;

/// The generated inputs of one workload at one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub config: OisaConfig,
    pub kernels: Vec<Vec<f32>>,
    pub frames: Vec<Frame>,
}

/// Independent sub-seeds per input kind, so changing how one kind is
/// drawn never shifts another.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Paper-default physics at `side × side` with the seeded noise key.
pub fn config(seed: u64, side: usize) -> OisaConfig {
    let mut config = OisaConfig::paper_default(side, side);
    config.seed = sub_seed(seed, 1);
    config
}

/// `count` 3×3 kernels with weights uniform in `[-1, 1)`.
pub fn kernels(seed: u64, count: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(sub_seed(seed, 2));
    (0..count)
        .map(|_| (0..9).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect())
        .collect()
}

// The reference set every frame's pixel distribution comes from: the
// repository's CIFAR-10 stand-in (`oisa_datasets`' `objects10`),
// rendered at the paper-default 128×128 from a fixed seed. The fleet
// program's kernel tap values come from the same seed.
const REFERENCE_SEED: u64 = 0;
const REFERENCE_SIDE: usize = 128;
const REFERENCE_IMAGES: usize = 8;

/// The luminance (channel mean) of every pixel of the reference
/// images, ascending. Under the ternary encoder's 0.32 / 0.64
/// thresholds 66.7 % of it encodes dark, 30.4 % mid and 2.9 % full.
pub fn reference_pixels() -> Vec<f64> {
    let spec = DatasetSpec::objects10()
        .with_img(REFERENCE_SIDE)
        .with_counts(REFERENCE_IMAGES, 1);
    let images = SyntheticDataset::generate(&spec, REFERENCE_SEED)
        .expect("the objects-10 stand-in renders at 128x128")
        .train_images;
    let plane = REFERENCE_SIDE * REFERENCE_SIDE;
    let channels = spec.channels;
    let mut pixels: Vec<f64> = images
        .as_slice()
        .chunks(channels * plane)
        .flat_map(|image| {
            (0..plane).map(move |p| {
                (0..channels)
                    .map(|c| f64::from(image[c * plane + p]))
                    .sum::<f64>()
                    / channels as f64
            })
        })
        .collect();
    pixels.sort_by(f64::total_cmp);
    pixels
}

/// A camera panning over a periodic scene. The seed draws the scene (a
/// few low-frequency waves, periodic in the frame), where the pan
/// starts and its heading. The scene is rank-mapped onto
/// [`reference_pixels`], so every frame of every seed has the
/// reference's pixel histogram: the dark share, which both the MAC
/// drain's zero-skip and the modelled VCSEL energy follow, comes from
/// the dataset stand-in and does not vary with the seed, while the
/// pixels themselves do.
pub fn frames(seed: u64, side: usize) -> Vec<Frame> {
    let mut rng = SplitMix64::new(sub_seed(seed, 3));
    let waves: Vec<(f64, f64, f64)> = (0..4)
        .map(|_| {
            let u = 1.0 + (rng.next_u64() % 3) as f64;
            let v = (rng.next_u64() % 5) as f64 - 2.0;
            (u, v, rng.unit() * std::f64::consts::TAU)
        })
        .collect();
    let field: Vec<f64> = (0..side * side)
        .map(|p| {
            let (x, y) = (
                (p % side) as f64 / side as f64,
                (p / side) as f64 / side as f64,
            );
            waves
                .iter()
                .map(|&(u, v, phase)| (std::f64::consts::TAU * (u * x + v * y) + phase).cos())
                .sum()
        })
        .collect();
    let mut order: Vec<usize> = (0..field.len()).collect();
    order.sort_by(|&a, &b| field[a].total_cmp(&field[b]));
    let reference = reference_pixels();
    let mut scene = vec![0.0; field.len()];
    for (rank, &p) in order.iter().enumerate() {
        let q = (rank as f64 + 0.5) / field.len() as f64;
        scene[p] = reference[(q * reference.len() as f64) as usize];
    }
    let (x0, y0) = (
        rng.next_u64() as usize % side,
        rng.next_u64() as usize % side,
    );
    let (dx, dy) = (
        1 + rng.next_u64() as usize % 3,
        1 + rng.next_u64() as usize % 3,
    );
    (0..FRAME_POOL)
        .map(|t| {
            let (ox, oy) = (x0 + t * dx, y0 + t * dy);
            let data = (0..side * side)
                .map(|p| scene[((p / side + oy) % side) * side + (p % side + ox) % side])
                .collect();
            Frame::new(side, side, data).expect("generated frames are imager-sized and in [0, 1]")
        })
        .collect()
}

/// Inputs of a conv workload: `side × side` frames and `kernels` 3×3
/// kernels.
pub fn conv_inputs(seed: u64, side: usize, kernel_count: usize) -> Inputs {
    Inputs {
        config: config(seed, side),
        kernels: kernels(seed, kernel_count),
        frames: frames(seed, side),
    }
}

/// `values` rearranged in the rank order of `order`: the smallest
/// value goes where `order` is smallest, and so on.
fn rank_mapped(order: &[f32], values: &[f32]) -> Vec<f32> {
    let mut ranks: Vec<usize> = (0..order.len()).collect();
    ranks.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
    let mut sorted = values.to_vec();
    sorted.sort_by(f32::total_cmp);
    let mut out = vec![0.0; order.len()];
    for (&position, value) in ranks.iter().zip(sorted) {
        out[position] = value;
    }
    out
}

/// The autoencoder encoder program. The dense matrix is the seed's
/// He-normal draw. Each conv kernel is the seed's draw rank-mapped
/// onto the same kernel of the reference seed's program, so every seed
/// stages the same tap values in its own arrangement. Ring tuning
/// energy follows the staged values: with the seed's own values the
/// conv stage's tuning energy ranged about twice as widely between
/// seeds, and with it the modelled energy per frame.
pub fn program(seed: u64, side: usize, features: usize, latent: usize) -> LayerProgram {
    let drawn = LayerProgram::autoencoder(side, side, features, latent, sub_seed(seed, 4))
        .expect("the benchmark's autoencoder shape is valid");
    let reference = LayerProgram::autoencoder(3, 3, features, 1, REFERENCE_SEED)
        .expect("a 3x3 autoencoder is valid");
    let mut stages = drawn.stages;
    if let (Some(Stage::Conv { kernels, .. }), Some(Stage::Conv { kernels: fixed, .. })) =
        (stages.first_mut(), reference.stages.first())
    {
        for (kernel, values) in kernels.iter_mut().zip(fixed) {
            *kernel = rank_mapped(kernel, values);
        }
    }
    LayerProgram::new(stages).expect("rank-mapping keeps the program valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(conv_inputs(7, 16, 4), conv_inputs(7, 16, 4));
        assert_eq!(program(7, 16, 2, 8), program(7, 16, 2, 8));
        let (a, b) = (conv_inputs(7, 16, 4), conv_inputs(8, 16, 4));
        assert_ne!(a.config.seed, b.config.seed);
        assert_ne!(a.kernels, b.kernels);
        assert_ne!(a.frames, b.frames);
        assert_ne!(program(7, 16, 2, 8), program(8, 16, 2, 8));
    }

    /// Dark (≤ 0.32), mid and full (> 0.64) shares under the ternary
    /// encoder's thresholds.
    fn ternary_shares(pixels: &[f64]) -> [f64; 3] {
        let n = pixels.len() as f64;
        let dark = pixels.iter().filter(|&&v| v <= 0.32).count() as f64 / n;
        let full = pixels.iter().filter(|&&v| v > 0.64).count() as f64 / n;
        [dark, 1.0 - dark - full, full]
    }

    #[test]
    fn frames_take_their_ternary_shares_from_the_dataset_stand_in() {
        let reference = ternary_shares(&reference_pixels());
        // The documented shares of the objects-10 stand-in.
        for (share, documented) in reference.iter().zip([0.667, 0.304, 0.029]) {
            assert!((share - documented).abs() < 5e-4, "{reference:?}");
        }
        for side in [64, 128] {
            let frame = ternary_shares(frames(1, side)[0].as_slice());
            for (a, b) in frame.iter().zip(reference) {
                assert!((a - b).abs() < 1e-3, "{side}: {frame:?} vs {reference:?}");
            }
        }
    }

    #[test]
    fn every_seed_stages_the_same_kernel_taps() {
        let taps = |seed| {
            let Some(Stage::Conv { kernels, .. }) = program(seed, 16, 2, 8).stages.first().cloned()
            else {
                panic!("the autoencoder starts with a conv stage");
            };
            kernels
        };
        let sorted = |mut k: Vec<f32>| {
            k.sort_by(f32::total_cmp);
            k
        };
        let (a, b) = (taps(7), taps(8));
        assert_ne!(a, b);
        for (x, y) in a.into_iter().zip(b) {
            assert_eq!(sorted(x), sorted(y));
        }
        assert_eq!(
            rank_mapped(&[0.5, -1.0, 2.0], &[3.0, 1.0, 2.0]),
            [2.0, 1.0, 3.0]
        );
    }

    #[test]
    fn every_frame_of_every_seed_has_the_same_pixel_histogram() {
        let sorted = |f: &Frame| {
            let mut v = f.as_slice().to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let reference = sorted(&frames(3, 16)[0]);
        assert!(reference.iter().all(|v| (0.0..=1.0).contains(v)));
        for seed in [3, 4, 5] {
            let pool = frames(seed, 16);
            assert_eq!(pool.len(), FRAME_POOL);
            assert!(pool.iter().all(|f| sorted(f) == reference));
        }
    }
}
