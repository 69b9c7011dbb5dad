//! Fully connected layer.

use serde::{Deserialize, Serialize};

use crate::layer::{Layer, UpdateRule};
use crate::tensor::Tensor;
use crate::{NnError, Result};

/// A dense layer: `y = x·Wᵀ + b`, input `[N, in]`, output `[N, out]`.
///
/// # Examples
///
/// ```
/// use oisa_nn::linear::Linear;
/// use oisa_nn::layer::Layer;
/// use oisa_nn::Tensor;
///
/// # fn main() -> Result<(), oisa_nn::NnError> {
/// let mut fc = Linear::with_seed(3, 5, 7)?;
/// let y = fc.forward(&Tensor::zeros(vec![2, 3]), false)?;
/// assert_eq!(y.shape(), &[2, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// `[out, in]`.
    weights: Tensor,
    bias: Vec<f32>,
    grad_weights: Tensor,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
    momentum_w: Vec<f32>,
    momentum_b: Vec<f32>,
}

impl Linear {
    /// Builds a dense layer with He-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for zero dimensions.
    pub fn with_seed(in_features: usize, out_features: usize, seed: u64) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidParameter(
                "linear dimensions must be positive".into(),
            ));
        }
        let weights = Tensor::he_normal(vec![out_features, in_features], in_features, seed);
        Ok(Self {
            in_features,
            out_features,
            grad_weights: Tensor::zeros(vec![out_features, in_features]),
            weights,
            bias: vec![0.0; out_features],
            grad_bias: vec![0.0; out_features],
            cached_input: None,
            momentum_w: Vec::new(),
            momentum_b: Vec::new(),
        })
    }

    /// Weight matrix `[out, in]`.
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Mutable weights (quantised deployment).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor> {
        let s = input.shape();
        if s.len() != 2 || s[1] != self.in_features {
            return Err(NnError::ShapeMismatch {
                expected: format!("[N, {}]", self.in_features),
                got: s.to_vec(),
            });
        }
        let wt = self.weights.transpose()?; // [in, out]
        let mut out = input.matmul(&wt)?;
        let n = s[0];
        for i in 0..n {
            for j in 0..self.out_features {
                out.as_mut_slice()[i * self.out_features + j] += self.bias[j];
            }
        }
        if training {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::InvalidState("linear backward before forward".into()))?;
        let n = input.shape()[0];
        if grad_output.shape() != [n, self.out_features] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{n}, {}]", self.out_features),
                got: grad_output.shape().to_vec(),
            });
        }
        // dW = gᵀ·x, db = Σ g, dx = g·W.
        let gw = grad_output.transpose()?.matmul(input)?;
        self.grad_weights.add_scaled(&gw, 1.0)?;
        for i in 0..n {
            for j in 0..self.out_features {
                self.grad_bias[j] += grad_output.as_slice()[i * self.out_features + j];
            }
        }
        grad_output.matmul(&self.weights)
    }

    fn apply_gradients(&mut self, update: &mut UpdateRule) {
        update(
            self.weights.as_mut_slice(),
            self.grad_weights.as_slice(),
            &mut self.momentum_w,
        );
        update(&mut self.bias, &self.grad_bias, &mut self.momentum_b);
        self.grad_weights = Tensor::zeros(vec![self.out_features, self.in_features]);
        self.grad_bias.fill(0.0);
    }

    fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn export_parameters(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    fn import_parameters<'a>(&mut self, input: &'a [f32]) -> Result<&'a [f32]> {
        let (w, rest) = crate::layer::take(input, self.weights.len())?;
        self.weights.as_mut_slice().copy_from_slice(w);
        let (b, rest) = crate::layer::take(rest, self.bias.len())?;
        self.bias.copy_from_slice(b);
        Ok(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut fc = Linear::with_seed(2, 2, 0).unwrap();
        fc.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // W = [[1,2],[3,4]]
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn gradient_check() {
        let mut fc = Linear::with_seed(3, 2, 5).unwrap();
        let x = Tensor::he_normal(vec![2, 3], 3, 8);
        let y = fc.forward(&x, true).unwrap();
        let ones = Tensor::full(y.shape().to_vec(), 1.0);
        let grad_in = fc.backward(&ones).unwrap();
        let eps = 1e-3f32;
        // Check weight gradients.
        for idx in 0..fc.weights.len() {
            let orig = fc.weights.as_slice()[idx];
            fc.weights.as_mut_slice()[idx] = orig + eps;
            let plus: f32 = fc.forward(&x, false).unwrap().as_slice().iter().sum();
            fc.weights.as_mut_slice()[idx] = orig - eps;
            let minus: f32 = fc.forward(&x, false).unwrap().as_slice().iter().sum();
            fc.weights.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (fc.grad_weights.as_slice()[idx] - numeric).abs() < 1e-2,
                "dW[{idx}]"
            );
        }
        // Check input gradients.
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let plus: f32 = fc.forward(&xp, false).unwrap().as_slice().iter().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let minus: f32 = fc.forward(&xm, false).unwrap().as_slice().iter().sum();
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (grad_in.as_slice()[idx] - numeric).abs() < 1e-2,
                "dx[{idx}]"
            );
        }
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut fc = Linear::with_seed(2, 2, 0).unwrap();
        let x = Tensor::zeros(vec![3, 2]);
        let _ = fc.forward(&x, true).unwrap();
        let g = Tensor::full(vec![3, 2], 2.0);
        let _ = fc.backward(&g).unwrap();
        assert_eq!(fc.grad_bias, vec![6.0, 6.0]);
    }

    #[test]
    fn shape_validation() {
        let mut fc = Linear::with_seed(3, 2, 0).unwrap();
        assert!(fc.forward(&Tensor::zeros(vec![1, 4]), false).is_err());
        assert!(fc.forward(&Tensor::zeros(vec![1, 3, 1]), false).is_err());
        assert!(fc.backward(&Tensor::zeros(vec![1, 2])).is_err()); // no forward yet
    }

    #[test]
    fn invalid_construction() {
        assert!(Linear::with_seed(0, 2, 0).is_err());
        assert!(Linear::with_seed(2, 0, 0).is_err());
    }
}
