//! Softmax cross-entropy loss.

use crate::tensor::Tensor;
use crate::{NnError, Result};

/// Computes softmax cross-entropy over logits `[N, classes]` against
/// integer labels, returning `(mean_loss, grad_logits)`.
///
/// The gradient is already divided by the batch size, so it feeds
/// straight into the backward chain.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when the label count differs from
/// the batch size or a label exceeds the class count.
pub(crate) fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let s = logits.shape();
    if s.len() != 2 || s[0] != labels.len() {
        return Err(NnError::ShapeMismatch {
            expected: format!("[{}, classes]", labels.len()),
            got: s.to_vec(),
        });
    }
    let (n, classes) = (s[0], s[1]);
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(NnError::ShapeMismatch {
            expected: format!("labels < {classes}"),
            got: vec![bad],
        });
    }
    let mut grad = Tensor::zeros(vec![n, classes]);
    let mut total_loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        let row = &logits.as_slice()[i * classes..(i + 1) * classes];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let p_label = exps[label] / sum;
        total_loss += -(p_label.max(1e-12)).ln();
        for (j, &e) in exps.iter().enumerate() {
            let p = e / sum;
            grad.as_mut_slice()[i * classes + j] =
                (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    Ok((total_loss / n as f32, grad))
}

/// Picks the argmax class of each row of `[N, classes]` logits.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] for non-2-D input.
pub(crate) fn predictions(logits: &Tensor) -> Result<Vec<usize>> {
    let s = logits.shape();
    if s.len() != 2 {
        return Err(NnError::ShapeMismatch {
            expected: "[N, classes]".into(),
            got: s.to_vec(),
        });
    }
    let (n, classes) = (s[0], s[1]);
    Ok((0..n)
        .map(|i| {
            let row = &logits.as_slice()[i * classes..(i + 1) * classes];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(idx, _)| idx)
                .unwrap_or(0)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_correct_logits_give_a_small_loss() {
        let logits = Tensor::from_vec(vec![1, 3], vec![5.0, 0.0, 0.0]).unwrap();
        let (loss, _grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 0.02);
    }

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Tensor::zeros(vec![2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[1]).unwrap();
        let sum: f32 = grad.as_slice().iter().sum();
        assert!(sum.abs() < 1e-6);
        // The true-label entry must be negative (pulling probability up).
        assert!(grad.as_slice()[1] < 0.0);
    }

    #[test]
    fn gradient_matches_numerical() {
        let logits = Tensor::from_vec(vec![1, 3], vec![0.2, -0.5, 0.9]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2]).unwrap();
        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let (plus, _) = softmax_cross_entropy(&lp, &[2]).unwrap();
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (minus, _) = softmax_cross_entropy(&lm, &[2]).unwrap();
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (grad.as_slice()[idx] - numeric).abs() < 1e-3,
                "dlogit[{idx}]"
            );
        }
    }

    #[test]
    fn label_validation() {
        let logits = Tensor::zeros(vec![2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn predictions_argmax() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.0, 2.0, -1.0, 1.0]).unwrap();
        assert_eq!(predictions(&logits).unwrap(), vec![1, 0]);
        assert!(predictions(&Tensor::zeros(vec![3])).is_err());
    }

    #[test]
    fn numerical_stability_with_large_logits() {
        let logits = Tensor::from_vec(vec![1, 2], vec![1000.0, -1000.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
        assert!(loss < 1e-6);
    }
}
