//! Deployment bridge: OISA hardware levels → neural-network quantisers.
//!
//! Table II's experiment path (paper Fig. 7): train float → quantise the
//! first convolution through the AWC/ring chain → evaluate with the
//! remaining layers in float. This module converts the optics crate's
//! [`WeightMapper`] level tables into [`oisa_nn`] quantisers and swaps a
//! trained model's first convolution for its deployment wrapper, so the
//! behavioural accuracy path quantises *identically* to the physical
//! optical path (cross-validated in `tests/`).

use oisa_device::awc::{AwcLadder, AwcModel, AwcParams};
use oisa_device::vcsel::{TernaryLevel, Vcsel, VcselParams};
use oisa_nn::model::Sequential;
use oisa_nn::quantize::{LevelQuantizer, QuantizedConv2d, TernaryActivation};
use oisa_optics::weights::WeightMapper;

use crate::{CoreError, Result};

/// Builds the effective weight-level table for `bits` under the given AWC
/// fidelity, as `f32` levels for the NN quantiser.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for unsupported bit widths.
pub(crate) fn level_table(bits: u8, model: AwcModel) -> Result<Vec<f32>> {
    let params = AwcParams {
        bits,
        model,
        ..AwcParams::paper_default()
    };
    let ladder = AwcLadder::ideal(params)?;
    let mapper = WeightMapper::from_ladder(ladder)?;
    let mut levels: Vec<f32> = mapper.levels().iter().map(|&l| l as f32).collect();
    // The nominal ladder is monotone, but fabricated instances need not
    // be; the quantiser requires ascending levels.
    levels.sort_by(f32::total_cmp);
    Ok(levels)
}

/// Builds the NN-side quantiser for `bits` under the given AWC fidelity.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for unsupported bit widths.
pub fn quantizer_for_bits(bits: u8, model: AwcModel) -> Result<LevelQuantizer> {
    LevelQuantizer::new(level_table(bits, model)?).map_err(CoreError::from)
}

/// Derives the ternary activation constants from the device models: the
/// thresholds from the pixel swing (0.16 V / 0.32 V over 0.5 V) and the
/// three amplitudes from the paper VCSEL's normalised L-I points.
///
/// # Errors
///
/// Propagates VCSEL construction failures.
pub fn ternary_from_devices() -> Result<TernaryActivation> {
    let vcsel = Vcsel::new(VcselParams::paper_default())?;
    let pixel = oisa_sensor::pixel::PixelDesign::paper_default();
    let swing = pixel.swing.get();
    Ok(TernaryActivation {
        t1: (0.16 / swing) as f32,
        t2: (0.32 / swing) as f32,
        v0: vcsel.normalized_output(TernaryLevel::Zero) as f32,
        v1: vcsel.normalized_output(TernaryLevel::One) as f32,
        v2: vcsel.normalized_output(TernaryLevel::Two) as f32,
    })
}

/// Swaps the first convolution of a trained model for its OISA deployment
/// wrapper (`[bits : 2]` configuration): AWC-level weight quantisation
/// with per-output-channel scaling (each kernel's arm carries its own
/// receiver gain), device-derived ternary activations, `noise_sigma`
/// relative read-out noise.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when the model contains no
/// convolution, or propagates quantiser failures.
pub fn deploy_first_layer(
    model: &mut Sequential,
    bits: u8,
    awc_model: AwcModel,
    noise_sigma: f32,
    seed: u64,
) -> Result<()> {
    let index = model
        .index_of_first_conv()
        .ok_or_else(|| CoreError::InvalidParameter("model has no convolution layer".into()))?;
    let conv = model
        .first_conv_mut()
        .expect("index_of_first_conv found one")
        .clone();
    let quantizer = quantizer_for_bits(bits, awc_model)?;
    let activation = ternary_from_devices()?;
    let wrapper =
        QuantizedConv2d::new_per_channel(conv, &quantizer, activation, noise_sigma, seed)?;
    model.replace_layer(index, Box::new(wrapper))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_nn::layer::Layer;
    use oisa_nn::tensor::Tensor;

    #[test]
    fn ideal_level_tables_are_uniform() {
        for bits in 1..=4u8 {
            let levels = level_table(bits, AwcModel::Ideal).unwrap();
            let n = levels.len();
            assert_eq!(n, 1 << bits);
            for (i, l) in levels.iter().enumerate() {
                let expected = i as f32 / (n - 1) as f32;
                assert!((l - expected).abs() < 1e-6, "bits {bits} level {i}");
            }
        }
    }

    #[test]
    fn mismatch_tables_compress_top() {
        let ideal = level_table(4, AwcModel::Ideal).unwrap();
        let paper = level_table(4, AwcModel::paper_mismatch()).unwrap();
        assert!(paper[15] < ideal[15]);
        assert!((paper[1] - ideal[1]).abs() < 0.01);
    }

    #[test]
    fn ternary_constants_match_nn_defaults() {
        // The oisa-nn crate hard-codes "paper" ternary constants; verify
        // they agree with the device-derived values.
        let derived = ternary_from_devices().unwrap();
        let nn_default = TernaryActivation::paper_default();
        assert!((derived.t1 - nn_default.t1).abs() < 1e-6);
        assert!((derived.t2 - nn_default.t2).abs() < 1e-6);
        assert!(
            (derived.v0 - nn_default.v0).abs() < 0.005,
            "v0 {}",
            derived.v0
        );
        assert!(
            (derived.v1 - nn_default.v1).abs() < 0.005,
            "v1 {}",
            derived.v1
        );
        assert!((derived.v2 - nn_default.v2).abs() < 1e-6);
    }

    #[test]
    fn deploy_swaps_first_conv() {
        let mut model = oisa_nn::model::lenet(1, 16, 10, 3).unwrap();
        deploy_first_layer(&mut model, 4, AwcModel::Ideal, 0.0, 7).unwrap();
        // The quantised wrapper refuses training.
        let x = Tensor::zeros(vec![1, 1, 16, 16]);
        let y = model.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
        assert!(model.backward(&y).is_err());
        // No remaining raw Conv2d before the wrapper: the first conv is
        // now the wrapper, so index_of_first_conv finds the *second*
        // conv.
        let idx = model.index_of_first_conv().unwrap();
        assert!(idx > 0, "first conv replaced, next one is at {idx}");
    }

    #[test]
    fn deploy_requires_a_conv() {
        let mut model = Sequential::new();
        model.push(oisa_nn::linear::Linear::with_seed(4, 2, 0).unwrap());
        assert!(deploy_first_layer(&mut model, 4, AwcModel::Ideal, 0.0, 0).is_err());
    }

    #[test]
    fn deployed_model_close_to_float_on_clean_input() {
        let mut float_model = oisa_nn::model::lenet(1, 16, 10, 5).unwrap();
        let mut deployed = oisa_nn::model::lenet(1, 16, 10, 5).unwrap();
        deploy_first_layer(&mut deployed, 4, AwcModel::Ideal, 0.0, 0).unwrap();
        // Compare logits on the same ternary-encoded input: apply the
        // encoding to the float model's input manually.
        let x = Tensor::he_normal(vec![1, 1, 16, 16], 256, 9).map(|v| v.abs().min(1.0));
        let activation = ternary_from_devices().unwrap();
        let x_encoded = activation.encode_tensor(&x);
        let y_float = float_model.forward(&x_encoded, false).unwrap();
        let y_deployed = deployed.forward(&x, false).unwrap();
        let max_dev = y_float
            .as_slice()
            .iter()
            .zip(y_deployed.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 0.5, "logit deviation {max_dev}");
    }
}
