//! A from-scratch CNN framework for OISA's accuracy studies.
//!
//! The paper trains quantised DNNs in PyTorch, runs the first layer
//! through the OISA behavioural model and the remaining layers in float
//! (paper Fig. 7). PyTorch is not available in this offline Rust
//! workspace, so this crate implements the minimum complete substrate:
//!
//! * [`tensor`] — an NCHW [`Tensor`] with the dense ops the models need;
//! * [`layer`] — the [`layer::Layer`] trait plus ReLU / pooling / flatten;
//! * [`conv`], [`linear`], [`norm`] — Conv2d, Linear and BatchNorm2d with
//!   full backward passes;
//! * [`loss`] — softmax cross-entropy;
//! * [`model`] — [`model::Sequential`] and the reduced-scale zoo
//!   (LeNet-style, ResNet-style with residual blocks, VGG-style);
//! * [`quantize`] — level-table weight quantisers and the ternary
//!   activation quantiser mirroring the VAM, the bridge to the optics
//!   crates;
//! * [`train`] — SGD with momentum and the evaluation loop.
//!
//! # Examples
//!
//! Train a tiny classifier on synthetic data:
//!
//! ```
//! use oisa_nn::model::Sequential;
//! use oisa_nn::linear::Linear;
//! use oisa_nn::layer::Relu;
//! use oisa_nn::tensor::Tensor;
//! use oisa_nn::train::{Sgd, TrainConfig, Trainer};
//!
//! # fn main() -> Result<(), oisa_nn::NnError> {
//! let mut model = Sequential::new();
//! model.push(Linear::with_seed(4, 8, 1)?);
//! model.push(Relu::new());
//! model.push(Linear::with_seed(8, 2, 2)?);
//! // Four separable points, two classes.
//! let x = Tensor::from_vec(vec![4, 4], vec![
//!     1.0, 0.0, 0.0, 0.0,
//!     0.9, 0.1, 0.0, 0.0,
//!     0.0, 0.0, 0.0, 1.0,
//!     0.0, 0.1, 0.0, 0.9,
//! ])?;
//! let y = vec![0, 0, 1, 1];
//! let mut trainer = Trainer::new(Sgd::new(0.5, 0.9), TrainConfig::default());
//! for _ in 0..50 {
//!     trainer.train_batch(&mut model, &x, &y)?;
//! }
//! let acc = trainer.evaluate(&mut model, &x, &y)?;
//! assert!(acc > 0.99);
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

pub mod conv;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod model;
pub mod norm;
pub mod quantize;
pub mod tensor;
pub mod train;

pub use tensor::Tensor;

use std::fmt;

/// Errors from tensor and model operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// Shapes disagree for the attempted operation.
    ShapeMismatch {
        /// Description of the expectation.
        expected: String,
        /// The offending shape.
        got: Vec<usize>,
    },
    /// An argument was invalid (zero dimension, bad probability, …).
    InvalidParameter(String),
    /// Backward called before forward, or other ordering violations.
    InvalidState(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got:?}")
            }
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::InvalidState(what) => write!(f, "invalid state: {what}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
