//! Waveguide routing losses and WDM channel plans.
//!
//! The OPC routes every VCSEL through a multiplexer, along an arm of ten
//! microrings, and into the balanced photodetector. Losses along that path
//! reduce the optical signal and thus the BPD's SNR; they also set the
//! laser power budget, which appears in the architecture power model.

use oisa_units::{db_to_ratio, Meter};
use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Loss budget for an on-chip optical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossBudget {
    /// Propagation loss, dB per metre (silicon strip ≈ 150–300 dB/m).
    pub propagation_db_per_m: f64,
    /// Insertion loss per passive ring pass-by, dB.
    pub per_ring_db: f64,
    /// Loss per splitter stage, dB.
    pub splitter_db: f64,
    /// Fibre/grating coupler loss, dB per crossing.
    pub coupler_db: f64,
}

impl LossBudget {
    /// Typical silicon-photonics numbers used by the paper's cited
    /// platforms: 2 dB/cm propagation, 0.05 dB per ring pass-by, 0.2 dB
    /// per splitter, 1.5 dB per coupler.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            propagation_db_per_m: 200.0,
            per_ring_db: 0.05,
            splitter_db: 0.2,
            coupler_db: 1.5,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.propagation_db_per_m < 0.0
            || self.per_ring_db < 0.0
            || self.splitter_db < 0.0
            || self.coupler_db < 0.0
        {
            return Err(DeviceError::InvalidParameter(
                "loss figures must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// A concrete optical path through the chip.
///
/// # Examples
///
/// ```
/// use oisa_device::waveguide::{LossBudget, OpticalPath};
/// use oisa_units::Meter;
///
/// # fn main() -> Result<(), oisa_device::DeviceError> {
/// let path = OpticalPath::new(LossBudget::paper_default())?
///     .with_length(Meter::from_milli(2.0))
///     .with_ring_passes(9) // the other rings of a 10-MR arm
///     .with_splitters(2)
///     .with_couplers(1);
/// let t = path.transmission();
/// assert!(t > 0.2 && t < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpticalPath {
    budget: LossBudget,
    length: Meter,
    ring_passes: u32,
    splitters: u32,
    couplers: u32,
}

impl OpticalPath {
    /// Starts an empty path with the given loss budget.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for negative losses.
    pub fn new(budget: LossBudget) -> Result<Self> {
        budget.validate()?;
        Ok(Self {
            budget,
            length: Meter::ZERO,
            ring_passes: 0,
            splitters: 0,
            couplers: 0,
        })
    }

    /// Sets the waveguide length.
    #[must_use]
    pub fn with_length(mut self, length: Meter) -> Self {
        self.length = length;
        self
    }

    /// Sets the number of off-resonance ring pass-bys.
    #[must_use]
    pub fn with_ring_passes(mut self, n: u32) -> Self {
        self.ring_passes = n;
        self
    }

    /// Sets the number of splitter stages.
    #[must_use]
    pub fn with_splitters(mut self, n: u32) -> Self {
        self.splitters = n;
        self
    }

    /// Sets the number of coupler crossings.
    #[must_use]
    pub fn with_couplers(mut self, n: u32) -> Self {
        self.couplers = n;
        self
    }

    /// Total insertion loss in dB (positive number).
    #[must_use]
    pub(crate) fn insertion_loss_db(&self) -> f64 {
        self.budget.propagation_db_per_m * self.length.get()
            + self.budget.per_ring_db * f64::from(self.ring_passes)
            + self.budget.splitter_db * f64::from(self.splitters)
            + self.budget.coupler_db * f64::from(self.couplers)
    }

    /// Power transmission of the path, `10^(−loss/10)`.
    #[must_use]
    pub fn transmission(&self) -> f64 {
        db_to_ratio(-self.insertion_loss_db())
    }
}

/// A WDM channel plan: evenly spaced wavelengths around a centre.
///
/// Each arm of the OPC carries ten channels, one per microring. The plan
/// guards channel spacing against the ring FWHM so crosstalk stays
/// bounded.
///
/// # Examples
///
/// ```
/// use oisa_device::waveguide::ChannelPlan;
/// use oisa_units::Meter;
///
/// # fn main() -> Result<(), oisa_device::DeviceError> {
/// let plan = ChannelPlan::new(Meter::from_nano(1550.0), Meter::from_nano(0.8), 10)?;
/// assert_eq!(plan.channel_count(), 10);
/// let w0 = plan.wavelength(0)?;
/// let w9 = plan.wavelength(9)?;
/// assert!(w9.get() > w0.get());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    center: Meter,
    spacing: Meter,
    count: u16,
}

impl ChannelPlan {
    /// Builds a plan of `count` channels spaced by `spacing` centred on
    /// `center`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for zero spacing or
    /// count.
    pub fn new(center: Meter, spacing: Meter, count: u16) -> Result<Self> {
        if spacing.get() <= 0.0 {
            return Err(DeviceError::InvalidParameter(
                "channel spacing must be positive".into(),
            ));
        }
        if count == 0 {
            return Err(DeviceError::InvalidParameter(
                "channel count must be positive".into(),
            ));
        }
        Ok(Self {
            center,
            spacing,
            count,
        })
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> u16 {
        self.count
    }

    /// Channel spacing.
    #[must_use]
    pub fn spacing(&self) -> Meter {
        self.spacing
    }

    /// Wavelength of channel `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] when `index ≥ count`.
    pub fn wavelength(&self, index: u16) -> Result<Meter> {
        if index >= self.count {
            return Err(DeviceError::OutOfRange(format!(
                "channel {index} of {}",
                self.count
            )));
        }
        let offset = f64::from(index) - f64::from(self.count - 1) / 2.0;
        Ok(self.center + self.spacing * offset)
    }

    /// Spectral distance between two channels.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] when either index is out of
    /// range.
    pub fn separation(&self, a: u16, b: u16) -> Result<Meter> {
        let wa = self.wavelength(a)?;
        let wb = self.wavelength(b)?;
        Ok((wa - wb).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_path_is_lossless() {
        let p = OpticalPath::new(LossBudget::paper_default()).unwrap();
        assert_eq!(p.insertion_loss_db(), 0.0);
        assert_eq!(p.transmission(), 1.0);
    }

    #[test]
    fn loss_components_add() {
        let b = LossBudget::paper_default();
        let p = OpticalPath::new(b)
            .unwrap()
            .with_length(Meter::from_milli(10.0)) // 2 dB
            .with_ring_passes(9) // 0.45 dB
            .with_splitters(2) // 0.4 dB
            .with_couplers(1); // 1.5 dB
        assert!((p.insertion_loss_db() - 4.35).abs() < 1e-9);
        assert!((p.transmission() - db_to_ratio(-4.35)).abs() < 1e-12);
    }

    #[test]
    fn negative_budget_rejected() {
        let mut b = LossBudget::paper_default();
        b.splitter_db = -1.0;
        assert!(OpticalPath::new(b).is_err());
    }

    #[test]
    fn channel_plan_centres_and_spacing() {
        // The paper arm's plan, as an optics arm builds it: ten channels
        // spread over the ring's free spectral range around 1550 nm.
        let ring = crate::mr::MrDesign::paper_default();
        let fsr = ring.free_spectral_range();
        let plan =
            ChannelPlan::new(ring.resonance_wavelength, Meter::new(fsr.get() / 10.0), 10).unwrap();
        let w0 = plan.wavelength(0).unwrap();
        let w9 = plan.wavelength(9).unwrap();
        // Symmetric around 1550 nm.
        assert!(((w0.as_nano() + w9.as_nano()) / 2.0 - 1550.0).abs() < 1e-9);
        // Total span 9 × (FSR/10) ≈ 16.4 nm, inside one FSR.
        let fsr = fsr.as_nano();
        assert!((w9.as_nano() - w0.as_nano() - 0.9 * fsr).abs() < 1e-9);
        assert!((plan.separation(3, 4).unwrap().as_nano() - fsr / 10.0).abs() < 1e-9);
        // Spacing clears the worst-case weight detuning with margin, so a
        // fully-programmed ring does not land on its neighbour's channel.
        assert!(plan.spacing().as_nano() > 2.0 * 0.67);
        // Guard invariant the optics crate depends on: the spacing is
        // ≥ 2 × FWHM of the paper ring (0.31 nm).
        assert!(plan.spacing().get() >= 2.0 * ring.fwhm().get());
    }

    #[test]
    fn channel_plan_bounds_checked() {
        let plan = ChannelPlan::new(Meter::from_nano(1550.0), Meter::from_nano(1.8), 10).unwrap();
        assert!(plan.wavelength(10).is_err());
        assert!(plan.separation(0, 10).is_err());
        assert!(ChannelPlan::new(Meter::from_nano(1550.0), Meter::ZERO, 4).is_err());
        assert!(ChannelPlan::new(Meter::from_nano(1550.0), Meter::from_nano(0.8), 0).is_err());
    }

    proptest! {
        #[test]
        fn transmission_in_unit_interval(
            len_mm in 0.0..50.0f64,
            rings in 0u32..100,
            splitters in 0u32..10,
        ) {
            let p = OpticalPath::new(LossBudget::paper_default()).unwrap()
                .with_length(Meter::from_milli(len_mm))
                .with_ring_passes(rings)
                .with_splitters(splitters);
            let t = p.transmission();
            prop_assert!(t > 0.0 && t <= 1.0);
        }

        #[test]
        fn longer_paths_lose_more(len1 in 0.0..10.0f64, extra in 0.1..10.0f64) {
            let base = OpticalPath::new(LossBudget::paper_default()).unwrap();
            let short = base.with_length(Meter::from_milli(len1));
            let long = base.with_length(Meter::from_milli(len1 + extra));
            prop_assert!(long.transmission() < short.transmission());
        }
    }
}
