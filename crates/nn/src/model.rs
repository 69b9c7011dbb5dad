//! Model containers and the reduced-scale model zoo.
//!
//! The paper evaluates LeNet (MNIST), ResNet18 (SVHN, CIFAR-10) and VGG16
//! (CIFAR-100). Training full-scale ResNet18/VGG16 offline in pure Rust is
//! out of budget, so the zoo provides **topology-faithful reduced models**
//! — same layer patterns (residual blocks with projection shortcuts,
//! stacked 3×3 VGG groups), fewer channels/blocks. The Table II
//! experiment compares *relative* accuracy across quantisation
//! configurations, which the reduced models preserve.

use crate::conv::Conv2d;
use crate::layer::{Flatten, GlobalAvgPool, Layer, MaxPool2, Relu, UpdateRule};
use crate::linear::Linear;
use crate::norm::BatchNorm2d;
use crate::tensor::Tensor;
use crate::{NnError, Result};

/// A sequential stack of layers, itself a [`Layer`].
///
/// # Examples
///
/// See the crate-level example.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

impl Sequential {
    /// An empty container.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the container holds no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Mutable access to the first [`Conv2d`] in the stack — the layer
    /// OISA executes optically.
    pub fn first_conv_mut(&mut self) -> Option<&mut Conv2d> {
        self.layers
            .iter_mut()
            .find_map(|l| l.as_any_mut()?.downcast_mut::<Conv2d>())
    }

    /// Index of the first [`Conv2d`] in the stack, if any — the layer the
    /// deployment path swaps for its quantised wrapper.
    pub fn index_of_first_conv(&mut self) -> Option<usize> {
        self.layers
            .iter_mut()
            .position(|l| matches!(l.as_any_mut(), Some(a) if a.is::<Conv2d>()))
    }

    /// Replaces the layer at `index` (used to swap the first conv for its
    /// quantised deployment wrapper).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an out-of-range index.
    pub fn replace_layer(&mut self, index: usize, layer: Box<dyn Layer>) -> Result<()> {
        if index >= self.layers.len() {
            return Err(NnError::InvalidParameter(format!(
                "layer index {index} out of range ({} layers)",
                self.layers.len()
            )));
        }
        self.layers[index] = layer;
        Ok(())
    }

    /// Total trainable parameters.
    #[must_use]
    pub(crate) fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Snapshots every parameter (and batch-norm running statistic) into
    /// one flat vector — a checkpoint that [`Sequential::load_state`]
    /// restores into an identically-shaped model.
    #[must_use]
    pub fn save_state(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            layer.export_parameters(&mut out);
        }
        out
    }

    /// Restores a snapshot produced by [`Sequential::save_state`] on a
    /// model with the same architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the snapshot does not
    /// match this model's parameter layout exactly.
    pub fn load_state(&mut self, state: &[f32]) -> Result<()> {
        let mut rest = state;
        for layer in &mut self.layers {
            rest = layer.import_parameters(rest)?;
        }
        if !rest.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: "exactly consumed snapshot".into(),
                got: vec![rest.len()],
            });
        }
        Ok(())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, training)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn apply_gradients(&mut self, update: &mut UpdateRule) {
        for layer in &mut self.layers {
            layer.apply_gradients(update);
        }
    }

    fn parameter_count(&self) -> usize {
        Sequential::parameter_count(self)
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn export_parameters(&self, out: &mut Vec<f32>) {
        for layer in &self.layers {
            layer.export_parameters(out);
        }
    }

    fn import_parameters<'a>(&mut self, input: &'a [f32]) -> Result<&'a [f32]> {
        let mut rest = input;
        for layer in &mut self.layers {
            rest = layer.import_parameters(rest)?;
        }
        Ok(rest)
    }
}

/// A ResNet basic block: conv-bn-relu-conv-bn plus a (possibly projected)
/// shortcut, then ReLU.
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    projection: Option<(Conv2d, BatchNorm2d)>,
    /// Cached post-sum pre-ReLU activations for the output ReLU backward.
    out_mask: Option<Vec<bool>>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("projected", &self.projection.is_some())
            .finish()
    }
}

impl ResidualBlock {
    /// Builds a block mapping `in_ch → out_ch` at `stride`. A projection
    /// shortcut (1×1 conv + BN) is added automatically when the shapes
    /// change.
    ///
    /// # Errors
    ///
    /// Propagates constructor failures of the inner layers.
    pub fn new(in_ch: usize, out_ch: usize, stride: usize, seed: u64) -> Result<Self> {
        let projection = if stride != 1 || in_ch != out_ch {
            Some((
                Conv2d::with_seed(in_ch, out_ch, 1, stride, 0, seed ^ 0xABCD)?,
                BatchNorm2d::new(out_ch)?,
            ))
        } else {
            None
        };
        Ok(Self {
            conv1: Conv2d::with_seed(in_ch, out_ch, 3, stride, 1, seed)?,
            bn1: BatchNorm2d::new(out_ch)?,
            relu1: Relu::new(),
            conv2: Conv2d::with_seed(out_ch, out_ch, 3, 1, 1, seed ^ 0x1234)?,
            bn2: BatchNorm2d::new(out_ch)?,
            projection,
            out_mask: None,
        })
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, training: bool) -> Result<Tensor> {
        let main = self.conv1.forward(input, training)?;
        let main = self.bn1.forward(&main, training)?;
        let main = self.relu1.forward(&main, training)?;
        let main = self.conv2.forward(&main, training)?;
        let main = self.bn2.forward(&main, training)?;
        let skip = match &mut self.projection {
            Some((conv, bn)) => {
                let s = conv.forward(input, training)?;
                bn.forward(&s, training)?
            }
            None => input.clone(),
        };
        let sum = main.add(&skip)?;
        if training {
            self.out_mask = Some(sum.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        Ok(sum.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .out_mask
            .as_ref()
            .ok_or_else(|| NnError::InvalidState("residual backward before forward".into()))?;
        let mut g = grad_output.clone();
        for (v, &keep) in g.as_mut_slice().iter_mut().zip(mask) {
            if !keep {
                *v = 0.0;
            }
        }
        // Main path.
        let gm = self.bn2.backward(&g)?;
        let gm = self.conv2.backward(&gm)?;
        let gm = self.relu1.backward(&gm)?;
        let gm = self.bn1.backward(&gm)?;
        let gm = self.conv1.backward(&gm)?;
        // Shortcut path.
        let gs = match &mut self.projection {
            Some((conv, bn)) => {
                let t = bn.backward(&g)?;
                conv.backward(&t)?
            }
            None => g,
        };
        gm.add(&gs)
    }

    fn apply_gradients(&mut self, update: &mut UpdateRule) {
        self.conv1.apply_gradients(update);
        self.bn1.apply_gradients(update);
        self.conv2.apply_gradients(update);
        self.bn2.apply_gradients(update);
        if let Some((conv, bn)) = &mut self.projection {
            conv.apply_gradients(update);
            bn.apply_gradients(update);
        }
    }

    fn parameter_count(&self) -> usize {
        self.conv1.parameter_count()
            + self.bn1.parameter_count()
            + self.conv2.parameter_count()
            + self.bn2.parameter_count()
            + self
                .projection
                .as_ref()
                .map_or(0, |(c, b)| c.parameter_count() + b.parameter_count())
    }

    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn export_parameters(&self, out: &mut Vec<f32>) {
        self.conv1.export_parameters(out);
        self.bn1.export_parameters(out);
        self.conv2.export_parameters(out);
        self.bn2.export_parameters(out);
        if let Some((conv, bn)) = &self.projection {
            conv.export_parameters(out);
            bn.export_parameters(out);
        }
    }

    fn import_parameters<'a>(&mut self, input: &'a [f32]) -> Result<&'a [f32]> {
        let mut rest = self.conv1.import_parameters(input)?;
        rest = self.bn1.import_parameters(rest)?;
        rest = self.conv2.import_parameters(rest)?;
        rest = self.bn2.import_parameters(rest)?;
        if let Some((conv, bn)) = &mut self.projection {
            rest = conv.import_parameters(rest)?;
            rest = bn.import_parameters(rest)?;
        }
        Ok(rest)
    }
}

/// LeNet-style model for `img`-sized grayscale inputs (paper: MNIST).
///
/// # Errors
///
/// Propagates layer construction failures.
pub fn lenet(in_channels: usize, img: usize, classes: usize, seed: u64) -> Result<Sequential> {
    let mut m = Sequential::new();
    m.push(Conv2d::with_seed(in_channels, 6, 3, 1, 1, seed)?);
    m.push(Relu::new());
    m.push(MaxPool2::new());
    m.push(Conv2d::with_seed(6, 16, 3, 1, 1, seed + 1)?);
    m.push(Relu::new());
    m.push(MaxPool2::new());
    m.push(Flatten::new());
    let spatial = img / 4;
    m.push(Linear::with_seed(16 * spatial * spatial, 64, seed + 2)?);
    m.push(Relu::new());
    m.push(Linear::with_seed(64, classes, seed + 3)?);
    Ok(m)
}

/// ResNet-style reduced model (paper: ResNet18 on SVHN / CIFAR-10).
///
/// Stem conv + three residual stages (one block each, 16→32→64 channels,
/// strides 1/2/2) + global average pooling + classifier.
///
/// # Errors
///
/// Propagates layer construction failures.
pub fn resnet_lite(in_channels: usize, classes: usize, seed: u64) -> Result<Sequential> {
    let mut m = Sequential::new();
    m.push(Conv2d::with_seed(in_channels, 16, 3, 1, 1, seed)?);
    m.push(BatchNorm2d::new(16)?);
    m.push(Relu::new());
    m.push(ResidualBlock::new(16, 16, 1, seed + 10)?);
    m.push(ResidualBlock::new(16, 32, 2, seed + 20)?);
    m.push(ResidualBlock::new(32, 64, 2, seed + 30)?);
    m.push(GlobalAvgPool::new());
    m.push(Linear::with_seed(64, classes, seed + 40)?);
    Ok(m)
}

/// A plain MLP: flatten, then `hidden` dense+ReLU stages, then the
/// classifier — the workload class whose first layer OISA executes
/// through the VOM's chunked dot products (paper §III-A).
///
/// # Errors
///
/// Propagates layer construction failures.
pub fn mlp(
    in_channels: usize,
    img: usize,
    hidden: &[usize],
    classes: usize,
    seed: u64,
) -> Result<Sequential> {
    let mut m = Sequential::new();
    m.push(Flatten::new());
    let mut width = in_channels * img * img;
    for (i, &h) in hidden.iter().enumerate() {
        m.push(Linear::with_seed(width, h, seed + i as u64)?);
        m.push(Relu::new());
        width = h;
    }
    m.push(Linear::with_seed(
        width,
        classes,
        seed + hidden.len() as u64,
    )?);
    Ok(m)
}

/// VGG-style reduced model (paper: VGG16 on CIFAR-100).
///
/// Two stacked-3×3 groups with max-pooling, then the dense head.
///
/// # Errors
///
/// Propagates layer construction failures.
pub fn vgg_lite(in_channels: usize, img: usize, classes: usize, seed: u64) -> Result<Sequential> {
    let mut m = Sequential::new();
    m.push(Conv2d::with_seed(in_channels, 16, 3, 1, 1, seed)?);
    m.push(Relu::new());
    m.push(Conv2d::with_seed(16, 16, 3, 1, 1, seed + 1)?);
    m.push(Relu::new());
    m.push(MaxPool2::new());
    m.push(Conv2d::with_seed(16, 32, 3, 1, 1, seed + 2)?);
    m.push(Relu::new());
    m.push(Conv2d::with_seed(32, 32, 3, 1, 1, seed + 3)?);
    m.push(Relu::new());
    m.push(MaxPool2::new());
    m.push(Flatten::new());
    let spatial = img / 4;
    m.push(Linear::with_seed(32 * spatial * spatial, 128, seed + 4)?);
    m.push(Relu::new());
    m.push(Linear::with_seed(128, classes, seed + 5)?);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_forward_backward_chain() {
        let mut m = Sequential::new();
        m.push(Linear::with_seed(4, 3, 0).unwrap());
        m.push(Relu::new());
        m.push(Linear::with_seed(3, 2, 1).unwrap());
        let x = Tensor::he_normal(vec![2, 4], 4, 5);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        let g = m.backward(&Tensor::full(vec![2, 2], 1.0)).unwrap();
        assert_eq!(g.shape(), &[2, 4]);
    }

    #[test]
    fn first_conv_accessible() {
        let mut m = lenet(1, 28, 10, 0).unwrap();
        let conv = m.first_conv_mut().expect("lenet starts with conv");
        assert_eq!(conv.out_channels(), 6);
    }

    #[test]
    fn lenet_shapes() {
        let mut m = lenet(1, 28, 10, 0).unwrap();
        let y = m
            .forward(&Tensor::zeros(vec![2, 1, 28, 28]), false)
            .unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        assert!(m.parameter_count() > 1000);
    }

    #[test]
    fn resnet_lite_shapes() {
        let mut m = resnet_lite(3, 10, 0).unwrap();
        let y = m
            .forward(&Tensor::zeros(vec![1, 3, 32, 32]), false)
            .unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn vgg_lite_shapes() {
        let mut m = vgg_lite(3, 32, 100, 0).unwrap();
        let y = m
            .forward(&Tensor::zeros(vec![1, 3, 32, 32]), false)
            .unwrap();
        assert_eq!(y.shape(), &[1, 100]);
    }

    #[test]
    fn mlp_shapes_and_training() {
        let mut m = mlp(1, 8, &[32, 16], 4, 3).unwrap();
        let y = m.forward(&Tensor::zeros(vec![2, 1, 8, 8]), false).unwrap();
        assert_eq!(y.shape(), &[2, 4]);
        // Dense stack must be trainable end-to-end.
        let x = Tensor::he_normal(vec![2, 1, 8, 8], 64, 1);
        let out = m.forward(&x, true).unwrap();
        let g = m
            .backward(&Tensor::full(out.shape().to_vec(), 0.1))
            .unwrap();
        assert_eq!(g.shape(), &[2, 1, 8, 8]);
        // No hidden layers: flatten straight into the classifier.
        let mut flat = mlp(1, 8, &[], 4, 3).unwrap();
        let y = flat
            .forward(&Tensor::zeros(vec![1, 1, 8, 8]), false)
            .unwrap();
        assert_eq!(y.shape(), &[1, 4]);
    }

    #[test]
    fn residual_block_identity_path_shapes() {
        let mut b = ResidualBlock::new(8, 8, 1, 3).unwrap();
        let x = Tensor::he_normal(vec![1, 8, 4, 4], 8, 1);
        let y = b.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        let g = b.backward(&Tensor::full(y.shape().to_vec(), 1.0)).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn residual_block_projection_path_shapes() {
        let mut b = ResidualBlock::new(8, 16, 2, 3).unwrap();
        let x = Tensor::he_normal(vec![1, 8, 8, 8], 8, 1);
        let y = b.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 16, 4, 4]);
        let g = b.backward(&Tensor::full(y.shape().to_vec(), 1.0)).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn residual_gradient_reaches_input_through_both_paths() {
        // With an identity shortcut the input gradient must exceed what the
        // main path alone would deliver (the shortcut adds the output grad).
        let mut b = ResidualBlock::new(4, 4, 1, 9).unwrap();
        let x = Tensor::full(vec![1, 4, 2, 2], 0.5);
        let y = b.forward(&x, true).unwrap();
        let g = b.backward(&Tensor::full(y.shape().to_vec(), 1.0)).unwrap();
        // Shortcut contribution alone would be exactly 1 per active output;
        // check gradient is nonzero and finite everywhere.
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
        assert!(g.max_abs() > 0.0);
    }

    #[test]
    fn replace_layer_bounds_checked() {
        let mut m = Sequential::new();
        m.push(Relu::new());
        assert!(m.replace_layer(1, Box::new(Relu::new())).is_err());
        assert!(m.replace_layer(0, Box::new(Relu::new())).is_ok());
    }

    #[test]
    fn state_round_trip_restores_behaviour() {
        let mut trained = resnet_lite(3, 10, 7).unwrap();
        // "Train" a little: nudge parameters through one update.
        let x = Tensor::he_normal(vec![2, 3, 16, 16], 48, 9);
        let y = trained.forward(&x, true).unwrap();
        let g = Tensor::full(y.shape().to_vec(), 0.1);
        let _ = trained.backward(&g).unwrap();
        trained.apply_gradients(&mut |p, grad, _m| {
            for (pi, gi) in p.iter_mut().zip(grad) {
                *pi -= 0.01 * gi;
            }
        });
        let state = trained.save_state();
        assert!(!state.is_empty());
        // A fresh model with a different seed behaves differently…
        let mut fresh = resnet_lite(3, 10, 999).unwrap();
        let before = fresh.forward(&x, false).unwrap();
        let reference = trained.forward(&x, false).unwrap();
        assert_ne!(before, reference);
        // …until the snapshot is loaded.
        fresh.load_state(&state).unwrap();
        let after = fresh.forward(&x, false).unwrap();
        for (a, b) in after.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn load_state_validates_length() {
        let mut m = lenet(1, 16, 10, 0).unwrap();
        let state = m.save_state();
        assert!(m.load_state(&state[..state.len() - 1]).is_err());
        let mut too_long = state.clone();
        too_long.push(0.0);
        assert!(m.load_state(&too_long).is_err());
        assert!(m.load_state(&state).is_ok());
    }

    #[test]
    fn debug_formats_layer_names() {
        let mut m = Sequential::new();
        m.push(Relu::new());
        m.push(Flatten::new());
        let s = format!("{m:?}");
        assert!(s.contains("relu") && s.contains("flatten"));
    }
}
