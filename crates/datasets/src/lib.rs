//! Seeded procedural image datasets for offline accuracy reproduction.
//!
//! The paper evaluates on MNIST, SVHN, CIFAR-10 and CIFAR-100 — none of
//! which are available in this offline workspace. Table II's claim is
//! *relative*: how accuracy moves across `[weight : activation]`
//! configurations. That relative behaviour survives on synthetic datasets
//! of matched structure, so this crate generates four stand-ins:
//!
//! | paper dataset | stand-in | construction |
//! |---|---|---|
//! | MNIST | [`DatasetSpec::digits`] | seven-segment digits, light noise |
//! | SVHN | [`DatasetSpec::house_numbers`] | digits over cluttered, contrast-varying backgrounds |
//! | CIFAR-10 | [`DatasetSpec::objects10`] | 10 textured shape classes |
//! | CIFAR-100 | [`DatasetSpec::objects20`] | 20 shape × texture classes, lower contrast |
//!
//! Every dataset is fully determined by `(spec, seed)`; pixel values live
//! in `[0, 1]` (the illumination domain the sensor pipeline expects).
//!
//! # Examples
//!
//! ```
//! use oisa_datasets::{DatasetSpec, SyntheticDataset};
//!
//! # fn main() -> Result<(), oisa_datasets::DatasetError> {
//! let spec = DatasetSpec::digits().with_counts(64, 16);
//! let ds = SyntheticDataset::generate(&spec, 7)?;
//! assert_eq!(ds.train_images.shape(), &[64, 1, 16, 16]);
//! assert_eq!(ds.test_labels.len(), 16);
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

mod render;

pub use render::ShapeClass;

use oisa_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use std::fmt;

/// Errors from dataset generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetError {
    /// A spec parameter was out of range.
    InvalidParameter(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatasetError>;

/// Which generator family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetFamily {
    /// Seven-segment digits on clean background (MNIST-like).
    Digits,
    /// Digits over cluttered backgrounds (SVHN-like).
    HouseNumbers,
    /// Textured shapes (CIFAR-like).
    Objects,
}

/// A dataset recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Generator family.
    pub family: DatasetFamily,
    /// Number of classes.
    pub classes: usize,
    /// Square image side.
    pub img: usize,
    /// Channels (1 or 3).
    pub channels: usize,
    /// Training samples.
    pub train_count: usize,
    /// Test samples.
    pub test_count: usize,
    /// Additive background noise σ.
    pub noise: f64,
    /// Foreground/background contrast (1.0 = maximal).
    pub contrast: f64,
    /// Number of random distractor strokes.
    pub clutter: usize,
}

impl DatasetSpec {
    /// MNIST stand-in: 16×16 grayscale seven-segment digits.
    #[must_use]
    pub fn digits() -> Self {
        Self {
            name: "digits (MNIST-like)".into(),
            family: DatasetFamily::Digits,
            classes: 10,
            img: 16,
            channels: 1,
            train_count: 2000,
            test_count: 500,
            noise: 0.05,
            contrast: 0.9,
            clutter: 0,
        }
    }

    /// SVHN stand-in: digits over cluttered, contrast-varying
    /// backgrounds.
    #[must_use]
    pub fn house_numbers() -> Self {
        Self {
            name: "house numbers (SVHN-like)".into(),
            family: DatasetFamily::HouseNumbers,
            classes: 10,
            img: 16,
            channels: 3,
            train_count: 2000,
            test_count: 500,
            noise: 0.10,
            contrast: 0.6,
            clutter: 3,
        }
    }

    /// CIFAR-10 stand-in: 10 textured shape classes.
    #[must_use]
    pub fn objects10() -> Self {
        Self {
            name: "objects-10 (CIFAR-10-like)".into(),
            family: DatasetFamily::Objects,
            classes: 10,
            img: 16,
            channels: 3,
            train_count: 2000,
            test_count: 500,
            noise: 0.12,
            contrast: 0.65,
            clutter: 2,
        }
    }

    /// CIFAR-100 stand-in: 20 classes at lower contrast.
    #[must_use]
    pub fn objects20() -> Self {
        Self {
            name: "objects-20 (CIFAR-100-like)".into(),
            family: DatasetFamily::Objects,
            classes: 20,
            img: 16,
            channels: 3,
            train_count: 3000,
            test_count: 600,
            noise: 0.15,
            contrast: 0.5,
            clutter: 3,
        }
    }

    /// Overrides sample counts (builder style).
    #[must_use]
    pub fn with_counts(mut self, train: usize, test: usize) -> Self {
        self.train_count = train;
        self.test_count = test;
        self
    }

    /// Overrides image side (builder style).
    #[must_use]
    pub fn with_img(mut self, img: usize) -> Self {
        self.img = img;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.classes < 2 {
            return Err(DatasetError::InvalidParameter(
                "need at least two classes".into(),
            ));
        }
        if self.family != DatasetFamily::Objects && self.classes > 10 {
            return Err(DatasetError::InvalidParameter(
                "digit families support at most 10 classes".into(),
            ));
        }
        if self.family == DatasetFamily::Objects && self.classes > ShapeClass::max_classes() {
            return Err(DatasetError::InvalidParameter(format!(
                "objects family supports at most {} classes",
                ShapeClass::max_classes()
            )));
        }
        if self.img < 8 {
            return Err(DatasetError::InvalidParameter(
                "image side must be at least 8".into(),
            ));
        }
        if self.channels != 1 && self.channels != 3 {
            return Err(DatasetError::InvalidParameter(
                "channels must be 1 or 3".into(),
            ));
        }
        if self.train_count == 0 || self.test_count == 0 {
            return Err(DatasetError::InvalidParameter(
                "sample counts must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.noise) || !(0.0..=1.0).contains(&self.contrast) {
            return Err(DatasetError::InvalidParameter(
                "noise and contrast must lie in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// A generated dataset: NCHW tensors plus labels.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The recipe that produced this dataset.
    pub spec: DatasetSpec,
    /// Training images `[N, C, H, W]`.
    pub train_images: Tensor,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Test images `[N, C, H, W]`.
    pub test_images: Tensor,
    /// Test labels.
    pub test_labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates a dataset deterministically from `(spec, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidParameter`] for inconsistent specs.
    pub fn generate(spec: &DatasetSpec, seed: u64) -> Result<Self> {
        spec.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (train_images, train_labels) = generate_split(spec, spec.train_count, &mut rng)?;
        let (test_images, test_labels) = generate_split(spec, spec.test_count, &mut rng)?;
        Ok(Self {
            spec: spec.clone(),
            train_images,
            train_labels,
            test_images,
            test_labels,
        })
    }

    /// A training mini-batch `[start, start+size)` (clamped to the end).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidParameter`] when `start` is past the
    /// end or `size` is zero.
    pub fn train_batch(&self, start: usize, size: usize) -> Result<(Tensor, Vec<usize>)> {
        batch_of(&self.train_images, &self.train_labels, start, size)
    }
}

fn batch_of(
    images: &Tensor,
    labels: &[usize],
    start: usize,
    size: usize,
) -> Result<(Tensor, Vec<usize>)> {
    let s = images.shape();
    let n = s[0];
    if start >= n || size == 0 {
        return Err(DatasetError::InvalidParameter(format!(
            "batch [{start}, {start}+{size}) outside {n} samples"
        )));
    }
    let end = (start + size).min(n);
    let stride: usize = s[1..].iter().product();
    let shape: Vec<usize> = std::iter::once(end - start)
        .chain(s[1..].iter().copied())
        .collect();
    let data = images.as_slice()[start * stride..end * stride].to_vec();
    let batch =
        Tensor::from_vec(shape, data).map_err(|e| DatasetError::InvalidParameter(e.to_string()))?;
    Ok((batch, labels[start..end].to_vec()))
}

fn generate_split(
    spec: &DatasetSpec,
    count: usize,
    rng: &mut StdRng,
) -> Result<(Tensor, Vec<usize>)> {
    let stride = spec.channels * spec.img * spec.img;
    let mut data = vec![0.0f32; count * stride];
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let class = rng.gen_range(0..spec.classes);
        labels.push(class);
        let img = &mut data[i * stride..(i + 1) * stride];
        render::render_sample(spec, class, img, rng);
    }
    let images = Tensor::from_vec(vec![count, spec.channels, spec.img, spec.img], data)
        .map_err(|e| DatasetError::InvalidParameter(e.to_string()))?;
    Ok((images, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let spec = DatasetSpec::digits().with_counts(32, 8);
        let a = SyntheticDataset::generate(&spec, 5).unwrap();
        let b = SyntheticDataset::generate(&spec, 5).unwrap();
        assert_eq!(a.train_images, b.train_images);
        assert_eq!(a.train_labels, b.train_labels);
        let c = SyntheticDataset::generate(&spec, 6).unwrap();
        assert_ne!(a.train_images, c.train_images);
    }

    #[test]
    fn all_specs_generate() {
        for spec in [
            DatasetSpec::digits(),
            DatasetSpec::house_numbers(),
            DatasetSpec::objects10(),
            DatasetSpec::objects20(),
        ] {
            let small = spec.with_counts(20, 10);
            let ds = SyntheticDataset::generate(&small, 1).unwrap();
            assert_eq!(ds.train_labels.len(), 20);
            assert_eq!(ds.test_labels.len(), 10);
            // All pixels in the illumination domain.
            assert!(ds
                .train_images
                .as_slice()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn labels_cover_classes() {
        let spec = DatasetSpec::digits().with_counts(500, 10);
        let ds = SyntheticDataset::generate(&spec, 2).unwrap();
        // Samples per class in the training split; indexing also checks
        // that every label is one of the 10 classes.
        let mut hist = [0usize; 10];
        for &l in &ds.train_labels {
            hist[l] += 1;
        }
        assert!(hist.iter().all(|&c| c > 10), "unbalanced: {hist:?}");
    }

    #[test]
    fn class_images_are_distinguishable() {
        // Mean images of two classes must differ substantially — the
        // classes carry signal.
        let spec = DatasetSpec::digits().with_counts(200, 10);
        let ds = SyntheticDataset::generate(&spec, 3).unwrap();
        let stride = spec.channels * spec.img * spec.img;
        let mean_of = |class: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; stride];
            let mut n = 0;
            for (i, &l) in ds.train_labels.iter().enumerate() {
                if l == class {
                    for (a, &v) in acc
                        .iter_mut()
                        .zip(&ds.train_images.as_slice()[i * stride..(i + 1) * stride])
                    {
                        *a += v;
                    }
                    n += 1;
                }
            }
            acc.iter().map(|v| v / n.max(1) as f32).collect()
        };
        let m0 = mean_of(0);
        let m1 = mean_of(1);
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 0.5, "class means too close: {dist}");
    }

    #[test]
    fn batching() {
        let spec = DatasetSpec::digits().with_counts(10, 5);
        let ds = SyntheticDataset::generate(&spec, 1).unwrap();
        let (x, y) = ds.train_batch(8, 4).unwrap();
        assert_eq!(x.shape()[0], 2); // clamped at the end
        assert_eq!(y.len(), 2);
        assert!(ds.train_batch(10, 4).is_err());
        assert!(ds.train_batch(0, 0).is_err());
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = DatasetSpec::digits();
        s.classes = 1;
        assert!(SyntheticDataset::generate(&s, 0).is_err());
        let mut s = DatasetSpec::digits();
        s.classes = 11;
        assert!(SyntheticDataset::generate(&s, 0).is_err());
        let mut s = DatasetSpec::digits();
        s.channels = 2;
        assert!(SyntheticDataset::generate(&s, 0).is_err());
        let mut s = DatasetSpec::digits();
        s.img = 4;
        assert!(SyntheticDataset::generate(&s, 0).is_err());
        let mut s = DatasetSpec::digits();
        s.noise = 1.5;
        assert!(SyntheticDataset::generate(&s, 0).is_err());
    }

    #[test]
    fn cluttered_sets_have_brighter_backgrounds() {
        // The SVHN-like generator draws digits over non-dark, cluttered
        // backgrounds; the MNIST-like one uses near-black backgrounds.
        let easy =
            SyntheticDataset::generate(&DatasetSpec::digits().with_counts(100, 10), 4).unwrap();
        let hard =
            SyntheticDataset::generate(&DatasetSpec::house_numbers().with_counts(100, 10), 4)
                .unwrap();
        // Digits backgrounds are near-black (< 0.15 after noise), so the
        // mid-gray band is almost empty; the cluttered generator fills it.
        let mid_fraction = |ds: &SyntheticDataset| -> f64 {
            let data = ds.train_images.as_slice();
            data.iter().filter(|v| (0.18..0.45).contains(*v)).count() as f64 / data.len() as f64
        };
        assert!(
            mid_fraction(&hard) > 2.0 * mid_fraction(&easy),
            "house-numbers mid-gray fraction {} should dwarf digits' {}",
            mid_fraction(&hard),
            mid_fraction(&easy)
        );
    }
}
