//! Dense `f32` tensors in row-major (NCHW for images) layout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{NnError, Result};

/// A dense tensor.
///
/// # Examples
///
/// ```
/// use oisa_nn::Tensor;
///
/// # fn main() -> Result<(), oisa_nn::NnError> {
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        assert!(len > 0, "tensor shape must have positive volume");
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Tensor filled with `value`.
    #[must_use]
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let mut t = Self::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Builds from explicit data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the data length differs
    /// from the shape's volume.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let len: usize = shape.iter().product();
        if len != data.len() || len == 0 {
            return Err(NnError::ShapeMismatch {
                expected: format!("volume {len}"),
                got: vec![data.len()],
            });
        }
        Ok(Self { shape, data })
    }

    /// He-normal initialisation (for layers followed by ReLU) with a
    /// fixed seed: σ = √(2 / fan_in).
    #[must_use]
    pub fn he_normal(shape: Vec<usize>, fan_in: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = (2.0 / fan_in.max(1) as f32).sqrt();
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| gaussian32(&mut rng) * sigma).collect();
        Self { shape, data }
    }

    /// Shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty (unreachable for constructed tensors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable data view.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the shape without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when volumes differ.
    pub(crate) fn reshape(&self, shape: Vec<usize>) -> Result<Self> {
        let len: usize = shape.iter().product();
        if len != self.data.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("volume {}", self.data.len()),
                got: shape,
            });
        }
        Ok(Self {
            shape,
            data: self.data.clone(),
        })
    }

    /// Element at a 4-D index (NCHW convenience).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 4-D or the index is out of range.
    #[inline]
    #[must_use]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * ch + c) * hh + h) * ww + w]
    }

    /// Mutable element at a 4-D index.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 4-D or the index is out of range.
    #[inline]
    pub(crate) fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        &mut self.data[((n * ch + c) * hh + h) * ww + w]
    }

    /// Element-wise map into a new tensor.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", self.shape),
                got: other.shape.clone(),
            });
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// In-place scaled add: `self += alpha · other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub(crate) fn add_scaled(&mut self, other: &Self, alpha: f32) -> Result<()> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", self.shape),
                got: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Mean of all elements.
    #[must_use]
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Maximum absolute element.
    #[must_use]
    pub(crate) fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Matrix product of 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for non-2-D operands or an inner
    /// dimension mismatch.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[1] != other.shape[0] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[m, k] × [k, n], lhs {:?}", self.shape),
                got: other.shape.clone(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = vec![0.0f32; m * n];
        gemm_into(m, k, n, &self.data, &other.data, &mut out);
        Ok(Self {
            shape: vec![m, n],
            data: out,
        })
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for non-2-D input.
    pub(crate) fn transpose(&self) -> Result<Self> {
        if self.shape.len() != 2 {
            return Err(NnError::ShapeMismatch {
                expected: "2-D tensor".into(),
                got: self.shape.clone(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Self {
            shape: vec![n, m],
            data: out,
        })
    }
}

/// Standard normal `f32` via Box–Muller.
pub(crate) fn gaussian32<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return ((-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()) as f32;
    }
}

/// Cache-blocked dense matrix multiply: `out += a[m×k] · b[k×n]` with
/// `out` pre-zeroed by the caller.
///
/// Blocks over the `n` and `k` dimensions so the active `b` panel stays
/// in L1/L2 while each `a` scalar streams across it; the inner loop is a
/// contiguous axpy the compiler auto-vectorises. This is the engine
/// behind [`Tensor::matmul`] and the im2col convolution forward.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m·k` / `k·n` / `m·n` extent.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    // Tile sizes: a 64×256 f32 panel of `b` is 64 KiB — resident in L2
    // and streamed through L1 row by row.
    const KB: usize = 64;
    const NB: usize = 256;
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        for n0 in (0..n).step_by(NB) {
            let n1 = (n0 + NB).min(n);
            for i in 0..m {
                let dst = &mut out[i * n + n0..i * n + n1];
                for p in k0..k1 {
                    let scalar = a[i * k + p];
                    if scalar == 0.0 {
                        continue;
                    }
                    let row = &b[p * n + n0..p * n + n1];
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d += scalar * v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_shape() {
        let z = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(z.len(), 24);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Tensor::full(vec![2, 2], 1.5);
        assert!(f.as_slice().iter().all(|&v| v == 1.5));
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive volume")]
    fn zero_volume_panics() {
        let _ = Tensor::zeros(vec![2, 0]);
    }

    #[test]
    fn he_init_statistics() {
        let t = Tensor::he_normal(vec![1000], 50, 7);
        let mean = t.mean();
        let sigma =
            (t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32).sqrt();
        let expected = (2.0f32 / 50.0).sqrt();
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!(
            (sigma - expected).abs() < 0.03,
            "sigma {sigma} vs {expected}"
        );
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        assert!(a.matmul(&b).is_err());
        let c = Tensor::zeros(vec![2, 3, 1]);
        assert!(c.matmul(&a).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn nchw_indexing() {
        let mut t = Tensor::zeros(vec![2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 9.0;
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        // Row-major: the marked element is the last one.
        assert_eq!(t.as_slice()[t.len() - 1], 9.0);
    }

    #[test]
    fn add_and_add_scaled() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![0.5, 0.5, 0.5]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.as_slice(), &[1.5, 2.5, 3.5]);
        let mut d = a.clone();
        d.add_scaled(&b, -2.0).unwrap();
        assert_eq!(d.as_slice(), &[0.0, 1.0, 2.0]);
        assert!(a.add(&Tensor::zeros(vec![4])).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = a.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.as_slice(), a.as_slice());
        assert!(a.reshape(vec![4, 2]).is_err());
    }

    proptest! {
        #[test]
        fn matmul_identity(n in 1usize..6, seed in 0u64..50) {
            let a = Tensor::he_normal(vec![n, n], n, seed);
            let mut eye = Tensor::zeros(vec![n, n]);
            for i in 0..n {
                eye.as_mut_slice()[i * n + i] = 1.0;
            }
            let prod = a.matmul(&eye).unwrap();
            for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
                prop_assert!((x - y).abs() < 1e-6);
            }
        }

        #[test]
        fn transpose_of_matmul(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..20) {
            // (AB)ᵀ = BᵀAᵀ
            let a = Tensor::he_normal(vec![m, k], k, seed);
            let b = Tensor::he_normal(vec![k, n], n, seed + 1);
            let left = a.matmul(&b).unwrap().transpose().unwrap();
            let right = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
