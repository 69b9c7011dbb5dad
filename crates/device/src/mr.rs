//! Add-drop microring resonator (MR) model.
//!
//! The MR is OISA's multiplicative element: a ring evanescently coupled to
//! two bus waveguides whose through-port transmission near resonance acts
//! as a tunable attenuator for one WDM channel. The paper designs a ring
//! with **radius 5 µm**, **ring waveguide width 760 nm** and a deliberately
//! modest **Q ≈ 5000** (sharper resonances would be too sensitive to
//! fabrication and thermal noise for multi-bit weighting; see paper
//! §III-A, *MR Device Engineering*).
//!
//! The model exposes exactly what the architecture consumes:
//!
//! * through/drop transmission as a function of wavelength detuning
//!   (Lorentzian line derived from the coupling/loss parameters),
//! * weight quantisation — mapping an n-bit level to a resonance detuning,
//! * hybrid thermo-optic (TO) / electro-optic (EO) tuning cost (power,
//!   latency, shift range),
//! * inter-channel crosstalk (residual attenuation at neighbouring WDM
//!   channels).

use oisa_units::{Joule, Meter, Second, Watt};
use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Geometric and optical design parameters of a microring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MrDesign {
    /// Ring radius.
    pub radius: Meter,
    /// Ring waveguide width (affects bend loss; recorded for area/crosstalk
    /// estimates).
    pub waveguide_width: Meter,
    /// Resonance wavelength the ring is fabricated for.
    pub resonance_wavelength: Meter,
    /// Loaded quality factor.
    pub q_factor: f64,
    /// Group index of the ring waveguide mode.
    pub group_index: f64,
    /// Fraction of on-resonance power lost inside the ring (sets the
    /// through-port extinction floor; 0 = ideal).
    pub intrinsic_loss: f64,
    /// Thermo-optic tuning efficiency: resonance shift per heater watt.
    pub to_efficiency_m_per_w: f64,
    /// Electro-optic tuning range (maximum shift attainable by the PIN
    /// junction alone).
    pub eo_range: Meter,
    /// Thermo-optic settling time.
    pub to_settle: Second,
    /// Electro-optic settling time.
    pub eo_settle: Second,
}

impl MrDesign {
    /// The paper's design point: R = 5 µm, 760 nm ring waveguide, Q ≈ 5000
    /// at λ = 1550 nm, hybrid TO-EO tuning (thermally-isolated undercut
    /// heater at 2.5 nm/mW, ~2 µs settle; EO ≈ ±0.1 nm, ~1 ns).
    ///
    /// The heater efficiency is the high end of demonstrated silicon
    /// designs; it is what lets 4000 simultaneously-held rings fit inside
    /// the paper's 6.68 TOp/s/W budget: at an average 0.25 nm detuning
    /// each ring holds about 0.1 mW, the thermal-tuning term of
    /// `oisa_core::perf`'s power breakdown.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            radius: Meter::from_micro(5.0),
            waveguide_width: Meter::from_nano(760.0),
            resonance_wavelength: Meter::from_nano(1550.0),
            q_factor: 5000.0,
            group_index: 4.2,
            intrinsic_loss: 0.02,
            to_efficiency_m_per_w: 2.5e-9 / 1e-3, // 2.5 nm per mW
            eo_range: Meter::from_nano(0.1),
            to_settle: Second::from_micro(2.0),
            eo_settle: Second::from_nano(1.0),
        }
    }

    /// Validates physical ranges.
    fn validate(&self) -> Result<()> {
        if self.radius.get() <= 0.0 {
            return Err(DeviceError::InvalidParameter(
                "ring radius must be positive".into(),
            ));
        }
        if self.q_factor < 1.0 {
            return Err(DeviceError::InvalidParameter(format!(
                "q_factor must be >= 1, got {}",
                self.q_factor
            )));
        }
        if !(0.0..1.0).contains(&self.intrinsic_loss) {
            return Err(DeviceError::InvalidParameter(format!(
                "intrinsic_loss must be in [0, 1), got {}",
                self.intrinsic_loss
            )));
        }
        if self.group_index <= 0.0 {
            return Err(DeviceError::InvalidParameter(
                "group_index must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Ring circumference `L = 2πR`.
    #[must_use]
    pub fn circumference(&self) -> Meter {
        self.radius * core::f64::consts::TAU
    }

    /// Free spectral range `FSR = λ² / (n_g · L)`.
    #[must_use]
    pub fn free_spectral_range(&self) -> Meter {
        let lambda = self.resonance_wavelength.get();
        Meter::new(lambda * lambda / (self.group_index * self.circumference().get()))
    }

    /// Resonance full width at half maximum `FWHM = λ / Q`.
    #[must_use]
    pub fn fwhm(&self) -> Meter {
        Meter::new(self.resonance_wavelength.get() / self.q_factor)
    }

    /// Footprint estimate: bounding box of the ring plus heater margin.
    #[must_use]
    pub fn footprint(&self) -> oisa_units::SquareMeter {
        let d = self.radius * 2.0 + self.waveguide_width * 4.0;
        d * d
    }
}

/// A tunable add-drop microring holding one weight.
///
/// # Examples
///
/// ```
/// use oisa_device::mr::{Microring, MrDesign};
///
/// # fn main() -> Result<(), oisa_device::DeviceError> {
/// let mut ring = Microring::new(MrDesign::paper_default())?;
/// ring.tune_to_weight(1.0, 4)?; // full transmission (weight 15/15)
/// assert!(ring.through_transmission_at_resonance() > 0.9);
/// ring.tune_to_weight(0.0, 4)?; // park on resonance: maximum extinction
/// assert!(ring.through_transmission_at_resonance() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microring {
    design: MrDesign,
    /// Current resonance offset from the channel wavelength.
    detuning: Meter,
    /// Heater power currently applied to hold the detuning.
    holding_power: Watt,
}

impl Microring {
    /// Builds a ring at its fabricated resonance (zero detuning).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if the design is
    /// non-physical.
    pub fn new(design: MrDesign) -> Result<Self> {
        design.validate()?;
        Ok(Self {
            design,
            detuning: Meter::ZERO,
            holding_power: Watt::ZERO,
        })
    }

    /// The design this ring was built from.
    #[must_use]
    pub fn design(&self) -> &MrDesign {
        &self.design
    }

    /// Current detuning of the resonance from the channel wavelength.
    #[must_use]
    pub fn detuning(&self) -> Meter {
        self.detuning
    }

    /// Heater power needed to hold the current detuning.
    #[must_use]
    pub fn holding_power(&self) -> Watt {
        self.holding_power
    }

    /// Through-port power transmission at wavelength offset `delta` from
    /// the ring's *current* resonance.
    ///
    /// Near resonance an add-drop ring is well approximated by a Lorentzian
    /// dip with half-width `FWHM/2`:
    ///
    /// `T_thru(δ) = 1 − (1 − floor) / (1 + (2δ/FWHM)²)`
    ///
    /// where `floor` is the residual on-resonance transmission set by the
    /// intrinsic loss.
    #[must_use]
    pub fn through_transmission(&self, delta_from_resonance: Meter) -> f64 {
        let hw = self.design.fwhm().get() / 2.0;
        let x = delta_from_resonance.get() / hw;
        let dip_depth = 1.0 - self.design.intrinsic_loss;
        1.0 - dip_depth / (1.0 + x * x)
    }

    /// Drop-port power transmission at wavelength offset `delta` from the
    /// current resonance (complementary Lorentzian, reduced by the
    /// intrinsic loss).
    #[must_use]
    pub fn drop_transmission(&self, delta_from_resonance: Meter) -> f64 {
        let hw = self.design.fwhm().get() / 2.0;
        let x = delta_from_resonance.get() / hw;
        (1.0 - self.design.intrinsic_loss) / (1.0 + x * x)
    }

    /// Through transmission seen by the ring's own channel (i.e. at
    /// `−detuning` from the shifted resonance).
    #[must_use]
    pub fn through_transmission_at_resonance(&self) -> f64 {
        self.through_transmission(-self.detuning)
    }

    /// Residual attenuation this ring imposes on a channel `spacing` away
    /// (inter-channel crosstalk). Returns the multiplicative transmission
    /// applied to the neighbour.
    #[must_use]
    pub fn crosstalk_transmission(&self, spacing: Meter) -> f64 {
        self.through_transmission(spacing - self.detuning)
    }

    /// Detuning required for a through-port transmission of `target`.
    ///
    /// Inverts the Lorentzian: `δ = (FWHM/2) · √((1−floor)/(1−T) − 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] when `target` is below the
    /// extinction floor or ≥ 1 (unreachable).
    pub fn detuning_for_transmission(&self, target: f64) -> Result<Meter> {
        let floor = self.design.intrinsic_loss;
        if target < floor || target >= 1.0 {
            return Err(DeviceError::OutOfRange(format!(
                "transmission {target} outside reachable range [{floor}, 1)"
            )));
        }
        let hw = self.design.fwhm().get() / 2.0;
        let ratio = (1.0 - floor) / (1.0 - target);
        Ok(Meter::new(hw * (ratio - 1.0).max(0.0).sqrt()))
    }

    /// Quantises `weight ∈ [0, 1]` to `bits` resolution and tunes the ring
    /// so its channel transmission encodes that level. Weight 0 parks the
    /// ring on resonance (maximum extinction); the maximum level detunes it
    /// for (near-)full transmission.
    ///
    /// Returns the applied [`TuningOutcome`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] for weights outside `[0, 1]` or
    /// `bits` outside `1..=8`.
    pub fn tune_to_weight(&mut self, weight: f64, bits: u8) -> Result<TuningOutcome> {
        if !(0.0..=1.0).contains(&weight) {
            return Err(DeviceError::OutOfRange(format!(
                "weight {weight} outside [0, 1]"
            )));
        }
        if !(1..=8).contains(&bits) {
            return Err(DeviceError::OutOfRange(format!(
                "bit resolution {bits} outside 1..=8"
            )));
        }
        let levels = (1u32 << bits) - 1;
        let level = (weight * f64::from(levels)).round();
        let quantised = level / f64::from(levels);
        // Map level to transmission between the extinction floor and the
        // 95% point of the Lorentzian tail (full transmission requires
        // infinite detuning).
        let floor = self.design.intrinsic_loss;
        let t_max = 0.95;
        let target = floor + (t_max - floor) * quantised;
        let detuning = self.detuning_for_transmission(target)?;
        Ok(self.apply_detuning(detuning))
    }

    /// Moves the resonance to `target` detuning using the hybrid TO-EO
    /// policy: the slow thermo-optic heater covers the coarse shift while
    /// the fast electro-optic junction covers anything within its range —
    /// matching the paper's "hybrid TO-EO tuning" (§III-A).
    pub fn apply_detuning(&mut self, target: Meter) -> TuningOutcome {
        let delta = (target - self.detuning).abs();
        let eo_only = delta.get() <= self.design.eo_range.get();
        let (latency, energy) = if eo_only {
            // EO: junction charging, effectively free compared to heaters.
            let e = Joule::from_femto(50.0);
            (self.design.eo_settle, e)
        } else {
            let heater_power = Watt::new(target.get().abs() / self.design.to_efficiency_m_per_w);
            let e = heater_power * self.design.to_settle;
            (self.design.to_settle, e)
        };
        self.detuning = target;
        // Holding power is what the heater must dissipate continuously to
        // keep the shift (EO holds are leakage-free).
        self.holding_power = if eo_only && target.get().abs() <= self.design.eo_range.get() {
            Watt::ZERO
        } else {
            Watt::new(target.get().abs() / self.design.to_efficiency_m_per_w)
        };
        TuningOutcome {
            latency,
            energy,
            used_eo_only: eo_only,
        }
    }
}

/// Cost of one tuning operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Settling latency of the applied mechanism.
    pub latency: Second,
    /// Energy spent to reach the new operating point.
    pub energy: Joule,
    /// `true` when the fast electro-optic path sufficed.
    pub used_eo_only: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring() -> Microring {
        Microring::new(MrDesign::paper_default()).unwrap()
    }

    #[test]
    fn paper_design_derived_quantities() {
        let d = MrDesign::paper_default();
        // FWHM = 1550 nm / 5000 = 0.31 nm.
        assert!((d.fwhm().as_nano() - 0.31).abs() < 1e-6);
        // FSR = λ²/(n_g·2πR) = 1550e-9² / (4.2 · 3.1416e-5) ≈ 18.2 nm.
        let fsr = d.free_spectral_range().as_nano();
        assert!((17.0..20.0).contains(&fsr), "FSR {fsr} nm");
        // Footprint ~ (10 µm + 3 µm)² ≈ 1.7e-10 m².
        assert!(d.footprint().get() > 1e-10 && d.footprint().get() < 3e-10);
    }

    #[test]
    fn invalid_designs_rejected() {
        let mut d = MrDesign::paper_default();
        d.q_factor = 0.5;
        assert!(Microring::new(d).is_err());
        let mut d = MrDesign::paper_default();
        d.intrinsic_loss = 1.0;
        assert!(Microring::new(d).is_err());
        let mut d = MrDesign::paper_default();
        d.radius = Meter::ZERO;
        assert!(Microring::new(d).is_err());
    }

    #[test]
    fn on_resonance_extinction_off_resonance_transparent() {
        let r = ring();
        assert!(r.through_transmission(Meter::ZERO) < 0.05);
        assert!(r.through_transmission(Meter::from_nano(5.0)) > 0.99);
        // Half-maximum at δ = FWHM/2.
        let hw = Meter::new(r.design().fwhm().get() / 2.0);
        let t = r.through_transmission(hw);
        assert!((t - (1.0 - 0.98 / 2.0)).abs() < 0.01);
    }

    #[test]
    fn through_plus_drop_conserves_energy_up_to_loss() {
        let r = ring();
        for dn in [0.0, 0.05, 0.155, 0.5, 2.0] {
            let d = Meter::from_nano(dn);
            let total = r.through_transmission(d) + r.drop_transmission(d);
            assert!(
                (total - 1.0).abs() <= r.design().intrinsic_loss + 1e-9,
                "δ = {dn} nm: total {total}"
            );
        }
    }

    #[test]
    fn detuning_inversion_round_trips() {
        let r = ring();
        for target in [0.05, 0.2, 0.5, 0.8, 0.94] {
            let d = r.detuning_for_transmission(target).unwrap();
            let back = r.through_transmission(d);
            assert!((back - target).abs() < 1e-9, "target {target} got {back}");
        }
    }

    #[test]
    fn detuning_inversion_rejects_unreachable() {
        let r = ring();
        assert!(r.detuning_for_transmission(0.001).is_err()); // below floor
        assert!(r.detuning_for_transmission(1.0).is_err());
    }

    #[test]
    fn weight_levels_monotone_in_transmission() {
        let mut r = ring();
        let mut last = -1.0;
        for level in 0..=15 {
            r.tune_to_weight(f64::from(level) / 15.0, 4).unwrap();
            let t = r.through_transmission_at_resonance();
            assert!(t > last, "level {level}: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn tuning_rejects_bad_arguments() {
        let mut r = ring();
        assert!(r.tune_to_weight(-0.1, 4).is_err());
        assert!(r.tune_to_weight(1.1, 4).is_err());
        assert!(r.tune_to_weight(0.5, 0).is_err());
        assert!(r.tune_to_weight(0.5, 9).is_err());
    }

    #[test]
    fn hybrid_tuning_prefers_eo_for_small_shifts() {
        let mut r = ring();
        let small = r.apply_detuning(Meter::from_nano(0.05));
        assert!(small.used_eo_only);
        assert_eq!(small.latency, r.design().eo_settle);
        let large = r.apply_detuning(Meter::from_nano(1.0));
        assert!(!large.used_eo_only);
        assert_eq!(large.latency, r.design().to_settle);
        assert!(large.energy > small.energy);
    }

    #[test]
    fn holding_power_scales_with_detuning() {
        let mut r = ring();
        r.apply_detuning(Meter::from_nano(0.5));
        let p1 = r.holding_power();
        r.apply_detuning(Meter::from_nano(1.0));
        let p2 = r.holding_power();
        assert!(p2.get() > p1.get());
        // 1 nm at 2.5 nm/mW → 0.4 mW.
        assert!((p2.as_milli() - 0.4).abs() < 0.001, "got {p2}");
    }

    #[test]
    fn crosstalk_small_at_standard_spacing() {
        let r = ring();
        // 0.8 nm channel spacing (5 FWHM away): neighbour keeps > 95%.
        let t = r.crosstalk_transmission(Meter::from_nano(0.8));
        assert!(t > 0.95, "crosstalk transmission {t}");
    }

    proptest! {
        #[test]
        fn transmission_always_physical(delta_nm in -20.0..20.0f64) {
            let r = ring();
            let t = r.through_transmission(Meter::from_nano(delta_nm));
            prop_assert!((0.0..=1.0).contains(&t));
            let d = r.drop_transmission(Meter::from_nano(delta_nm));
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn quantised_weight_error_bounded(weight in 0.0..=1.0f64, bits in 1u8..=8) {
            let mut r = ring();
            r.tune_to_weight(weight, bits).unwrap();
            let t = r.through_transmission_at_resonance();
            let floor = r.design().intrinsic_loss;
            let encoded = (t - floor) / (0.95 - floor);
            let lsb = 1.0 / f64::from((1u32 << bits) - 1);
            prop_assert!(
                (encoded - weight).abs() <= 0.5 * lsb + 1e-6,
                "weight {weight} encoded {encoded} (lsb {lsb})"
            );
        }
    }
}
