//! Clocked sense amplifier used by the VAM's ternary thresholding.
//!
//! The VAM places **two** sense amplifiers behind every pixel (paper
//! Fig. 3(a)/(c)): one referenced at 0.16 V and one at 0.32 V. When the
//! clock falls, each SA resolves whether the pixel's source-follower
//! output exceeds its reference; the pair of decisions `(t1, t2)` encodes
//! the ternary activation (paper Fig. 8).
//!
//! The model captures the two analog non-idealities that matter for
//! accuracy studies: input-referred **offset** (a per-instance, static
//! mismatch) and decision **noise** (per-evaluation, thermal).

use oisa_units::{Joule, Second, Volt};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Sense-amplifier design parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SenseAmpParams {
    /// Reference (decision threshold) voltage.
    pub reference: Volt,
    /// Standard deviation of the static input-referred offset across
    /// instances.
    pub offset_sigma: Volt,
    /// Standard deviation of per-decision thermal noise.
    pub noise_sigma: Volt,
    /// Energy per clocked evaluation.
    pub energy_per_decision: Joule,
    /// Decision (regeneration) latency.
    pub decision_time: Second,
}

impl SenseAmpParams {
    /// Paper threshold values: the lower SA at 0.16 V, the upper at
    /// 0.32 V, with 45 nm-class offset (σ = 5 mV), 1 mV decision noise,
    /// 2 fJ/decision and 100 ps regeneration.
    #[must_use]
    pub fn lower_threshold() -> Self {
        Self::with_reference(Volt::new(0.16))
    }

    /// The upper (0.32 V) threshold of the ternary encoder.
    #[must_use]
    pub fn upper_threshold() -> Self {
        Self::with_reference(Volt::new(0.32))
    }

    /// Default parameters at an arbitrary reference.
    #[must_use]
    pub(crate) fn with_reference(reference: Volt) -> Self {
        Self {
            reference,
            offset_sigma: Volt::from_milli(5.0),
            noise_sigma: Volt::from_milli(1.0),
            energy_per_decision: Joule::from_femto(2.0),
            decision_time: Second::from_pico(100.0),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.offset_sigma.get() < 0.0 || self.noise_sigma.get() < 0.0 {
            return Err(DeviceError::InvalidParameter(
                "offset/noise sigmas must be non-negative".into(),
            ));
        }
        if self.energy_per_decision.get() < 0.0 {
            return Err(DeviceError::InvalidParameter(
                "energy per decision must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// One sense-amplifier instance with its frozen static offset.
///
/// # Examples
///
/// ```
/// use oisa_device::sense_amp::{SenseAmp, SenseAmpParams};
/// use oisa_units::Volt;
///
/// # fn main() -> Result<(), oisa_device::DeviceError> {
/// let sa = SenseAmp::ideal(SenseAmpParams::lower_threshold())?;
/// assert!(sa.decide_ideal(Volt::new(0.20)));  // above 0.16 V
/// assert!(!sa.decide_ideal(Volt::new(0.10))); // below
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SenseAmp {
    params: SenseAmpParams,
    /// This instance's static offset, drawn once at "fabrication".
    offset: Volt,
}

impl SenseAmp {
    /// Builds an instance with zero static offset (the nominal design).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for negative sigmas or
    /// energies.
    pub fn ideal(params: SenseAmpParams) -> Result<Self> {
        params.validate()?;
        Ok(Self {
            params,
            offset: Volt::ZERO,
        })
    }

    /// Builds an instance whose static offset is drawn from the
    /// fabrication distribution using `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for negative sigmas or
    /// energies.
    pub fn fabricate<R: Rng + ?Sized>(params: SenseAmpParams, rng: &mut R) -> Result<Self> {
        params.validate()?;
        let offset = Volt::new(gaussian(rng) * params.offset_sigma.get());
        Ok(Self { params, offset })
    }

    /// Design parameters.
    #[must_use]
    pub fn params(&self) -> &SenseAmpParams {
        &self.params
    }

    /// The frozen static offset of this instance.
    #[must_use]
    pub fn offset(&self) -> Volt {
        self.offset
    }

    /// Noiseless decision: is `input` above this instance's effective
    /// threshold (reference + offset)?
    #[must_use]
    pub fn decide_ideal(&self, input: Volt) -> bool {
        input.get() > self.params.reference.get() + self.offset.get()
    }

    /// Energy of one evaluation.
    #[must_use]
    pub fn decision_energy(&self) -> Joule {
        self.params.energy_per_decision
    }
}

/// Standard normal sample via Box–Muller (avoids needing `rand_distr`).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_thresholds_match_paper_references() {
        let lo = SenseAmp::ideal(SenseAmpParams::lower_threshold()).unwrap();
        let hi = SenseAmp::ideal(SenseAmpParams::upper_threshold()).unwrap();
        assert_eq!(lo.params().reference, Volt::new(0.16));
        assert_eq!(hi.params().reference, Volt::new(0.32));
        // Fig. 8's three cases:
        let out1 = Volt::new(0.40); // above both
        let out2 = Volt::new(0.25); // between
        let out3 = Volt::new(0.10); // below both
        assert!(lo.decide_ideal(out1) && hi.decide_ideal(out1));
        assert!(lo.decide_ideal(out2) && !hi.decide_ideal(out2));
        assert!(!lo.decide_ideal(out3) && !hi.decide_ideal(out3));
    }

    #[test]
    fn fabricated_offsets_distributed() {
        let mut rng = StdRng::seed_from_u64(7);
        let offsets: Vec<f64> = (0..500)
            .map(|_| {
                SenseAmp::fabricate(SenseAmpParams::lower_threshold(), &mut rng)
                    .unwrap()
                    .offset()
                    .get()
            })
            .collect();
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        let var = offsets.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / offsets.len() as f64;
        assert!(mean.abs() < 1e-3, "offset mean {mean}");
        let sigma = var.sqrt();
        assert!((sigma - 5e-3).abs() < 1e-3, "offset sigma {sigma}");
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = SenseAmpParams::lower_threshold();
        p.noise_sigma = Volt::new(-1.0);
        assert!(SenseAmp::ideal(p).is_err());
        let mut p = SenseAmpParams::lower_threshold();
        p.energy_per_decision = Joule::new(-1.0);
        assert!(SenseAmp::ideal(p).is_err());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
