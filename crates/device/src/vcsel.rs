//! Vertical-Cavity Surface-Emitting Laser (VCSEL) model.
//!
//! OISA uses VCSELs twice: the **VAM** modulates each pixel's activation
//! onto its WDM channel, and the **VOM** re-modulates partial sums for
//! large-kernel / MLP aggregation. The paper's driver keeps the laser
//! biased just above threshold at all times (a *non-return-to-zero*
//! scheme, §III-A) because a cold VCSEL needs a warm-up that costs both
//! energy and time [Breuer et al.].
//!
//! The model is a standard two-segment L-I curve: no output below the
//! threshold current, linear slope-efficiency above it.

use oisa_units::{Ampere, Joule, Meter, Second, Volt, Watt};
use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Static VCSEL parameters, defaulting to the flip-chip-bonded device the
/// paper cites ([Kaur et al., ECOC 2015]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VcselParams {
    /// Lasing threshold current.
    pub threshold: Ampere,
    /// Slope efficiency above threshold, watts per ampere.
    pub slope_efficiency_w_per_a: f64,
    /// Forward voltage at operating bias.
    pub forward_voltage: Volt,
    /// Emission wavelength (one WDM channel).
    pub wavelength: Meter,
    /// Always-on bias current floor for the NRZ scheme (kept slightly above
    /// threshold so the cavity never cools down).
    pub bias_floor: Ampere,
    /// Cold-start warm-up time if the laser is ever fully turned off.
    pub warmup: Second,
    /// Maximum drive current.
    pub max_current: Ampere,
}

impl VcselParams {
    /// Paper-calibrated defaults: 0.5 mA threshold, 0.3 W/A slope, 1.8 V
    /// forward drop at λ = 1550 nm, 0.6 mA NRZ floor, 10 ns warm-up, 5 mA
    /// maximum drive.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            threshold: Ampere::from_micro(500.0),
            slope_efficiency_w_per_a: 0.3,
            forward_voltage: Volt::new(1.8),
            wavelength: Meter::from_nano(1550.0),
            bias_floor: Ampere::from_micro(600.0),
            warmup: Second::from_nano(10.0),
            max_current: Ampere::from_milli(5.0),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.threshold.get() <= 0.0 || self.max_current.get() <= self.threshold.get() {
            return Err(DeviceError::InvalidParameter(
                "threshold must be positive and below max_current".into(),
            ));
        }
        if self.slope_efficiency_w_per_a <= 0.0 {
            return Err(DeviceError::InvalidParameter(
                "slope efficiency must be positive".into(),
            ));
        }
        if self.bias_floor.get() < 0.0 {
            return Err(DeviceError::InvalidParameter(
                "bias floor must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Optical output power at drive current `i` (two-segment L-I curve).
    #[must_use]
    pub fn optical_power(&self, i: Ampere) -> Watt {
        let overdrive = i.get() - self.threshold.get();
        if overdrive <= 0.0 {
            Watt::ZERO
        } else {
            Watt::new(overdrive * self.slope_efficiency_w_per_a)
        }
    }

    /// Electrical power drawn at drive current `i`.
    #[must_use]
    pub fn electrical_power(&self, i: Ampere) -> Watt {
        i * self.forward_voltage
    }

    /// Wall-plug efficiency at drive current `i` (0 when not lasing).
    #[must_use]
    pub fn wall_plug_efficiency(&self, i: Ampere) -> f64 {
        let elec = self.electrical_power(i).get();
        if elec <= 0.0 {
            0.0
        } else {
            self.optical_power(i).get() / elec
        }
    }
}

/// Ternary drive level for the VAM's activation encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TernaryLevel {
    /// Activation 0: NRZ bias floor only (just above threshold — the
    /// residual light is the encoding's zero reference).
    Zero,
    /// Activation 1: mid drive.
    One,
    /// Activation 2: high drive.
    Two,
}

impl TernaryLevel {
    /// Numeric activation value (0, 1, 2).
    #[must_use]
    pub fn value(self) -> u8 {
        match self {
            Self::Zero => 0,
            Self::One => 1,
            Self::Two => 2,
        }
    }

    /// Builds a level from the two sense-amplifier outputs `(t1, t2)`
    /// (paper Fig. 8): `(0,0)` → 0, `(1,0)` → 1, `(1,1)` → 2.
    ///
    /// The combination `(0,1)` cannot arise from monotone thresholds and is
    /// mapped to 1, mirroring the analog behaviour where `t2` implies `t1`.
    #[must_use]
    pub fn from_sense_outputs(t1: bool, t2: bool) -> Self {
        match (t1, t2) {
            (false, false) => Self::Zero,
            (true, false) | (false, true) => Self::One,
            (true, true) => Self::Two,
        }
    }
}

/// A driven VCSEL with the paper's three-level NRZ driver (Fig. 3(d)):
/// bias transistor `Vbias` keeps the floor current, switches S1/S2 add the
/// two weighted increments selected by the sense-amplifier outputs.
///
/// # Examples
///
/// ```
/// use oisa_device::vcsel::{TernaryLevel, Vcsel, VcselParams};
///
/// # fn main() -> Result<(), oisa_device::DeviceError> {
/// let v = Vcsel::new(VcselParams::paper_default())?;
/// let p0 = v.output_for(TernaryLevel::Zero);
/// let p2 = v.output_for(TernaryLevel::Two);
/// assert!(p2.get() > p0.get());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vcsel {
    params: VcselParams,
    /// Current added by switch S1 (level ≥ 1).
    step1: Ampere,
    /// Current added by switch S2 (level 2).
    step2: Ampere,
}

impl Vcsel {
    /// Builds a VCSEL whose two drive steps split the span between the
    /// bias floor and the maximum current evenly.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for non-physical
    /// parameters.
    pub fn new(params: VcselParams) -> Result<Self> {
        params.validate()?;
        let span = params.max_current.get() - params.bias_floor.get();
        if span <= 0.0 {
            return Err(DeviceError::InvalidParameter(
                "bias floor must lie below max_current".into(),
            ));
        }
        let step = Ampere::new(span / 2.0);
        Ok(Self {
            params,
            step1: step,
            step2: step,
        })
    }

    /// Static parameters.
    #[must_use]
    pub fn params(&self) -> &VcselParams {
        &self.params
    }

    /// Drive current for a ternary level.
    #[must_use]
    pub fn drive_current(&self, level: TernaryLevel) -> Ampere {
        match level {
            TernaryLevel::Zero => self.params.bias_floor,
            TernaryLevel::One => self.params.bias_floor + self.step1,
            TernaryLevel::Two => self.params.bias_floor + self.step1 + self.step2,
        }
    }

    /// Optical output power at a ternary level.
    #[must_use]
    pub fn output_for(&self, level: TernaryLevel) -> Watt {
        self.params.optical_power(self.drive_current(level))
    }

    /// Optical output normalised so level `Two` maps to 1.0 — the value the
    /// photonic MAC actually multiplies. Level `Zero`'s residual (the NRZ
    /// floor emission) appears as a small non-zero offset, which is the
    /// principal activation encoding error of the scheme.
    #[must_use]
    pub fn normalized_output(&self, level: TernaryLevel) -> f64 {
        let full = self.output_for(TernaryLevel::Two).get();
        if full <= 0.0 {
            return 0.0;
        }
        self.output_for(level).get() / full
    }

    /// Electrical energy to hold `level` for `duration`.
    #[must_use]
    pub fn symbol_energy(&self, level: TernaryLevel, duration: Second) -> Joule {
        self.params.electrical_power(self.drive_current(level)) * duration
    }

    /// Extra cost paid if the laser had been fully shut off instead of
    /// NRZ-biased: warm-up latency plus the energy of re-biasing through
    /// threshold. This quantifies the paper's motivation for the NRZ
    /// driver.
    #[must_use]
    pub fn cold_start_penalty(&self) -> (Second, Joule) {
        let e = self.params.electrical_power(self.params.threshold) * self.params.warmup;
        (self.params.warmup, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vcsel() -> Vcsel {
        Vcsel::new(VcselParams::paper_default()).unwrap()
    }

    #[test]
    fn li_curve_threshold_behaviour() {
        let p = VcselParams::paper_default();
        assert_eq!(p.optical_power(Ampere::from_micro(100.0)), Watt::ZERO);
        assert_eq!(p.optical_power(p.threshold), Watt::ZERO);
        let above = p.optical_power(Ampere::from_milli(1.5));
        assert!((above.as_milli() - 0.3).abs() < 1e-9); // 1 mA overdrive · 0.3 W/A
    }

    #[test]
    fn ternary_levels_strictly_increasing() {
        let v = vcsel();
        let p: Vec<f64> = [TernaryLevel::Zero, TernaryLevel::One, TernaryLevel::Two]
            .iter()
            .map(|&l| v.output_for(l).get())
            .collect();
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn normalized_output_full_scale_is_one() {
        let v = vcsel();
        assert!((v.normalized_output(TernaryLevel::Two) - 1.0).abs() < 1e-12);
        let zero = v.normalized_output(TernaryLevel::Zero);
        assert!(zero > 0.0 && zero < 0.1, "NRZ floor residual {zero}");
        let one = v.normalized_output(TernaryLevel::One);
        assert!((one - 0.5).abs() < 0.05, "mid level {one}");
    }

    #[test]
    fn sense_output_decoding_matches_fig8() {
        assert_eq!(
            TernaryLevel::from_sense_outputs(false, false),
            TernaryLevel::Zero
        );
        assert_eq!(
            TernaryLevel::from_sense_outputs(true, false),
            TernaryLevel::One
        );
        assert_eq!(
            TernaryLevel::from_sense_outputs(true, true),
            TernaryLevel::Two
        );
    }

    #[test]
    fn symbol_energy_scales_with_level_and_time() {
        let v = vcsel();
        let t = Second::from_nano(1.0);
        let e0 = v.symbol_energy(TernaryLevel::Zero, t);
        let e2 = v.symbol_energy(TernaryLevel::Two, t);
        assert!(e2.get() > e0.get());
        let e2_long = v.symbol_energy(TernaryLevel::Two, Second::from_nano(2.0));
        assert!((e2_long.get() / e2.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cold_start_penalty_nonzero() {
        let v = vcsel();
        let (t, e) = v.cold_start_penalty();
        assert!(t.get() > 0.0);
        assert!(e.get() > 0.0);
        // NRZ holding for one warm-up period at floor must cost less than
        // the warm-up itself would (the design rationale).
        let hold = v.symbol_energy(TernaryLevel::Zero, t);
        assert!(hold.get() < e.get() * 2.0);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = VcselParams::paper_default();
        p.threshold = Ampere::ZERO;
        assert!(Vcsel::new(p).is_err());
        let mut p = VcselParams::paper_default();
        p.bias_floor = p.max_current;
        assert!(Vcsel::new(p).is_err());
        let mut p = VcselParams::paper_default();
        p.slope_efficiency_w_per_a = -1.0;
        assert!(Vcsel::new(p).is_err());
    }

    #[test]
    fn wall_plug_efficiency_reasonable() {
        let p = VcselParams::paper_default();
        let eta = p.wall_plug_efficiency(Ampere::from_milli(3.0));
        assert!(eta > 0.05 && eta < 0.5, "wall-plug {eta}");
        assert_eq!(p.wall_plug_efficiency(Ampere::ZERO), 0.0);
    }

    proptest! {
        #[test]
        fn optical_power_monotone_in_current(
            i1 in 0.0..5.0e-3f64,
            i2 in 0.0..5.0e-3f64,
        ) {
            let p = VcselParams::paper_default();
            let (lo, hi) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
            prop_assert!(
                p.optical_power(Ampere::new(lo)).get()
                    <= p.optical_power(Ampere::new(hi)).get() + 1e-18
            );
        }
    }
}
