//! Procedural raster rendering for the synthetic datasets.
//!
//! Digits are drawn as seven-segment glyphs with per-sample jitter;
//! object classes are textured geometric masks. Everything draws into a
//! caller-provided `[C, H, W]` slice with values clamped to `[0, 1]`.

use rand::rngs::StdRng;
use rand::Rng;

use crate::{DatasetFamily, DatasetSpec};

/// Segment layout of a seven-segment digit:
///
/// ```text
///  _0_
/// 5   1
///  _6_
/// 4   2
///  _3_
/// ```
const SEGMENTS: [[bool; 7]; 10] = [
    // 0      1      2      3      4      5      6
    [true, true, true, true, true, true, false],     // 0
    [false, true, true, false, false, false, false], // 1
    [true, true, false, true, true, false, true],    // 2
    [true, true, true, true, false, false, true],    // 3
    [false, true, true, false, false, true, true],   // 4
    [true, false, true, true, false, true, true],    // 5
    [true, false, true, true, true, true, true],     // 6
    [true, true, true, false, false, false, false],  // 7
    [true, true, true, true, true, true, true],      // 8
    [true, true, true, true, false, true, true],     // 9
];

/// Object classes drawn by the CIFAR-like generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeClass {
    /// Filled disk.
    Disk,
    /// Ring (annulus).
    Ring,
    /// Filled square.
    Square,
    /// Square outline.
    Frame,
    /// Filled triangle.
    Triangle,
    /// Plus / cross.
    Cross,
    /// Horizontal bars.
    HBars,
    /// Vertical bars.
    VBars,
    /// Checkerboard.
    Checker,
    /// Diagonal stripe.
    Diagonal,
}

impl ShapeClass {
    const BASE: [Self; 10] = [
        Self::Disk,
        Self::Ring,
        Self::Square,
        Self::Frame,
        Self::Triangle,
        Self::Cross,
        Self::HBars,
        Self::VBars,
        Self::Checker,
        Self::Diagonal,
    ];

    /// Maximum class count of the objects family: 10 shapes × 2 texture
    /// variants.
    #[must_use]
    pub(crate) fn max_classes() -> usize {
        Self::BASE.len() * 2
    }

    /// Shape and texture-variant for a class index.
    #[must_use]
    pub(crate) fn for_class(class: usize) -> (Self, bool) {
        let shape = Self::BASE[class % Self::BASE.len()];
        let textured = class >= Self::BASE.len();
        (shape, textured)
    }

    /// Whether `(u, v)` (normalised [−1, 1] coordinates) is inside the
    /// shape.
    #[must_use]
    pub fn contains(self, u: f64, v: f64) -> bool {
        let r = (u * u + v * v).sqrt();
        match self {
            Self::Disk => r < 0.7,
            Self::Ring => (0.4..0.75).contains(&r),
            Self::Square => u.abs() < 0.6 && v.abs() < 0.6,
            Self::Frame => u.abs() < 0.72 && v.abs() < 0.72 && (u.abs() > 0.42 || v.abs() > 0.42),
            Self::Triangle => v > -0.6 && v < 0.7 && u.abs() < (0.7 - v) * 0.6,
            Self::Cross => u.abs() < 0.22 || v.abs() < 0.22,
            Self::HBars => ((v + 1.0) * 3.0).rem_euclid(2.0) < 1.0,
            Self::VBars => ((u + 1.0) * 3.0).rem_euclid(2.0) < 1.0,
            Self::Checker => {
                (((u + 1.0) * 2.0).rem_euclid(2.0) < 1.0)
                    == (((v + 1.0) * 2.0).rem_euclid(2.0) < 1.0)
            }
            Self::Diagonal => (u - v).abs() < 0.35,
        }
    }
}

/// Renders one sample into `img` (layout `[C, H, W]`, values `[0, 1]`).
pub(crate) fn render_sample(spec: &DatasetSpec, class: usize, img: &mut [f32], rng: &mut StdRng) {
    match spec.family {
        DatasetFamily::Digits => render_digit(spec, class, img, rng, false),
        DatasetFamily::HouseNumbers => render_digit(spec, class, img, rng, true),
        DatasetFamily::Objects => render_object(spec, class, img, rng),
    }
    // Additive noise and clamping, on every channel.
    for v in img.iter_mut() {
        let n = (rng.gen::<f32>() - 0.5) * 2.0 * spec.noise as f32;
        *v = (*v + n).clamp(0.0, 1.0);
    }
}

fn channel_bases(spec: &DatasetSpec, rng: &mut StdRng, cluttered: bool) -> Vec<f32> {
    (0..spec.channels)
        .map(|_| {
            if cluttered {
                rng.gen_range(0.05..0.35)
            } else {
                rng.gen_range(0.0..0.08)
            }
        })
        .collect()
}

fn render_digit(
    spec: &DatasetSpec,
    class: usize,
    img: &mut [f32],
    rng: &mut StdRng,
    cluttered: bool,
) {
    let n = spec.img;
    let bases = channel_bases(spec, rng, cluttered);
    for c in 0..spec.channels {
        img[c * n * n..(c + 1) * n * n].fill(bases[c]);
    }
    if cluttered {
        for _ in 0..spec.clutter {
            random_stroke(spec, img, rng);
        }
    }
    // Glyph box with jitter.
    let margin = n / 8;
    let jitter_x = rng.gen_range(0..=margin.max(1));
    let jitter_y = rng.gen_range(0..=margin.max(1));
    let gw = n - 2 * margin;
    let gh = n - 2 * margin;
    let thickness = (n / 8).max(1) + usize::from(rng.gen_bool(0.3));
    let level = (spec.contrast as f32 + rng.gen_range(-0.1..0.1f32)).clamp(0.3, 1.0);
    let segs = SEGMENTS[class % 10];
    // Segment endpoints in glyph-normalised coordinates.
    let h = |y: usize, x0: usize, x1: usize, img: &mut [f32]| {
        for x in x0..x1 {
            for t in 0..thickness {
                put(spec, img, y + t, x, level, jitter_y, jitter_x);
            }
        }
    };
    let v = |x: usize, y0: usize, y1: usize, img: &mut [f32]| {
        for y in y0..y1 {
            for t in 0..thickness {
                put(spec, img, y, x + t, level, jitter_y, jitter_x);
            }
        }
    };
    let mid = gh / 2;
    if segs[0] {
        h(0, 0, gw, img);
    }
    if segs[3] {
        h(gh - thickness, 0, gw, img);
    }
    if segs[6] {
        h(mid, 0, gw, img);
    }
    if segs[5] {
        v(0, 0, mid, img);
    }
    if segs[4] {
        v(0, mid, gh, img);
    }
    if segs[1] {
        v(gw - thickness, 0, mid, img);
    }
    if segs[2] {
        v(gw - thickness, mid, gh, img);
    }
}

/// Writes one glyph pixel (glyph coordinates + jitter offset) into every
/// channel with per-channel tinting.
fn put(
    spec: &DatasetSpec,
    img: &mut [f32],
    gy: usize,
    gx: usize,
    level: f32,
    off_y: usize,
    off_x: usize,
) {
    let n = spec.img;
    let y = gy + off_y + n / 8;
    let x = gx + off_x + n / 8;
    if y >= n || x >= n {
        return;
    }
    for c in 0..spec.channels {
        // Slight per-channel tint keeps RGB sets non-degenerate.
        let tint = 1.0 - 0.12 * c as f32;
        img[c * n * n + y * n + x] = (level * tint).clamp(0.0, 1.0);
    }
}

fn random_stroke(spec: &DatasetSpec, img: &mut [f32], rng: &mut StdRng) {
    let n = spec.img;
    let horizontal: bool = rng.gen();
    let pos = rng.gen_range(0..n);
    let len = rng.gen_range(n / 4..n / 2);
    let start = rng.gen_range(0..n.saturating_sub(len).max(1));
    let level = rng.gen_range(0.2..0.5f32);
    let c = rng.gen_range(0..spec.channels);
    for k in start..(start + len).min(n) {
        let (y, x) = if horizontal { (pos, k) } else { (k, pos) };
        img[c * n * n + y * n + x] = level;
    }
}

fn render_object(spec: &DatasetSpec, class: usize, img: &mut [f32], rng: &mut StdRng) {
    let n = spec.img;
    let (shape, textured) = ShapeClass::for_class(class);
    let bases = channel_bases(spec, rng, true);
    for c in 0..spec.channels {
        img[c * n * n..(c + 1) * n * n].fill(bases[c]);
    }
    for _ in 0..spec.clutter {
        random_stroke(spec, img, rng);
    }
    // Random scale / offset.
    let scale = rng.gen_range(0.75..1.0);
    let cx = rng.gen_range(-0.15..0.15);
    let cy = rng.gen_range(-0.15..0.15);
    let level = (spec.contrast as f32 + rng.gen_range(-0.08..0.08f32)).clamp(0.25, 1.0);
    // Per-channel color weights distinguish texture variants.
    let color: Vec<f32> = (0..spec.channels)
        .map(|c| {
            if textured {
                0.5 + 0.5 * ((c + class) % 2) as f32
            } else {
                1.0 - 0.15 * c as f32
            }
        })
        .collect();
    for y in 0..n {
        for x in 0..n {
            let u = ((x as f64 / (n - 1) as f64) * 2.0 - 1.0 - cx) / scale;
            let v = ((y as f64 / (n - 1) as f64) * 2.0 - 1.0 - cy) / scale;
            if !shape.contains(u, v) {
                continue;
            }
            // Texture variant: multiplicative grid modulation.
            let tex = if textured {
                if (x / 2 + y / 2) % 2 == 0 {
                    1.0
                } else {
                    0.55
                }
            } else {
                1.0
            };
            for c in 0..spec.channels {
                img[c * n * n + y * n + x] = (level * color[c] * tex).clamp(0.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn all_segment_patterns_distinct() {
        for (a, sa) in SEGMENTS.iter().enumerate() {
            for (b, sb) in SEGMENTS.iter().enumerate().skip(a + 1) {
                assert_ne!(sa, sb, "digits {a} and {b} collide");
            }
        }
    }

    #[test]
    fn shape_classes_cover_and_differ() {
        assert_eq!(ShapeClass::max_classes(), 20);
        // Sample a grid and check each pair of shapes differs somewhere.
        let grid: Vec<(f64, f64)> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| (i as f64 / 7.5 - 1.0, j as f64 / 7.5 - 1.0))
            .collect();
        for a in 0..10 {
            for b in (a + 1)..10 {
                let (sa, _) = ShapeClass::for_class(a);
                let (sb, _) = ShapeClass::for_class(b);
                let differs = grid
                    .iter()
                    .any(|&(u, v)| sa.contains(u, v) != sb.contains(u, v));
                assert!(differs, "shapes {sa:?} and {sb:?} identical on grid");
            }
        }
    }

    #[test]
    fn texture_variant_maps_to_upper_classes() {
        let (s0, t0) = ShapeClass::for_class(0);
        let (s10, t10) = ShapeClass::for_class(10);
        assert_eq!(s0, s10);
        assert!(!t0);
        assert!(t10);
    }

    #[test]
    fn rendering_stays_in_bounds() {
        let spec = DatasetSpec::house_numbers();
        let mut rng = StdRng::seed_from_u64(11);
        let mut img = vec![0.0f32; spec.channels * spec.img * spec.img];
        for class in 0..10 {
            img.fill(0.0);
            render_sample(&spec, class, &mut img, &mut rng);
            assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
            // A digit must light up some foreground.
            let bright = img.iter().filter(|&&v| v > 0.4).count();
            assert!(bright > 5, "class {class}: only {bright} bright pixels");
        }
    }
}
