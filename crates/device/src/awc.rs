//! Approximate Weight Converter (AWC).
//!
//! Prior optical accelerators drive each microring's tuning input from a
//! full DAC. OISA replaces the DAC with a **binary-weighted MOSFET current
//! ladder** (paper Fig. 4(a)): weight bits `w0..w3` gate four transistors
//! whose widths double (`Wg4 = 2·Wg3 = 4·Wg2 = 8·Wg1`), so their drain
//! currents sum to one of 16 levels at the common node (paper Fig. 4(b)).
//!
//! The ladder is *approximate* in two ways that the accuracy evaluation
//! depends on (paper Table II discussion):
//!
//! * **random mismatch** — each leg's current deviates by a fabrication
//!   ε ~ N(0, σ²), and
//! * **systematic compression** — at larger codes the summing node rises,
//!   reducing the overdrive of every leg, so high levels bunch together.
//!   This is why OISA `[4:2]` can score *below* `[3:2]`: the extra bit adds
//!   levels the ladder cannot reliably separate.
//!
//! [`AwcLadder::build_netlist`] emits the transistor-level circuit for
//! co-simulation with [`oisa_spice`], regenerating Fig. 4(b).

use oisa_units::{Ampere, Volt, Watt};
use rand::Rng;
use serde::{Deserialize, Serialize};

use oisa_spice::{Circuit, MosParams, Waveform};

use crate::sense_amp::gaussian;
use crate::{DeviceError, Result};

/// Fidelity of the behavioural ladder model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AwcModel {
    /// Perfectly linear levels — an ideal DAC. Used for ablations.
    Ideal,
    /// Random per-leg mismatch plus systematic compression — the silicon
    /// behaviour.
    Mismatch {
        /// Per-leg relative current error σ.
        leg_sigma: f64,
        /// Compression coefficient: the full-scale level is reduced by
        /// this fraction, intermediate levels proportionally to code².
        compression: f64,
    },
}

impl AwcModel {
    /// Mismatch defaults calibrated so 3-bit codes remain monotone but
    /// 4-bit codes lose distinctness at the top of the range, matching the
    /// paper's observation.
    #[must_use]
    pub fn paper_mismatch() -> Self {
        Self::Mismatch {
            leg_sigma: 0.02,
            compression: 0.12,
        }
    }
}

/// Static AWC design parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AwcParams {
    /// Bit resolution `n ≤ 4` (paper constraint).
    pub bits: u8,
    /// LSB unit current (the narrowest leg's drain current).
    pub lsb_current: Ampere,
    /// Supply voltage.
    pub vdd: Volt,
    /// Behavioural fidelity.
    pub model: AwcModel,
}

impl AwcParams {
    /// Paper design point: 4-bit, 26.7 µA LSB (full scale ≈ 400 µA as in
    /// Fig. 4(b)), 1 V supply and the calibrated mismatch model.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            bits: 4,
            lsb_current: Ampere::from_micro(26.7),
            vdd: Volt::new(1.0),
            model: AwcModel::paper_mismatch(),
        }
    }

    /// Same design point with an ideal (mismatch-free) ladder.
    #[must_use]
    pub fn ideal(bits: u8) -> Self {
        Self {
            bits,
            model: AwcModel::Ideal,
            ..Self::paper_default()
        }
    }

    fn validate(&self) -> Result<()> {
        if !(1..=4).contains(&self.bits) {
            return Err(DeviceError::InvalidParameter(format!(
                "AWC supports 1..=4 bits, got {}",
                self.bits
            )));
        }
        if self.lsb_current.get() <= 0.0 {
            return Err(DeviceError::InvalidParameter(
                "lsb current must be positive".into(),
            ));
        }
        if let AwcModel::Mismatch {
            leg_sigma,
            compression,
        } = self.model
        {
            if leg_sigma < 0.0 || !(0.0..1.0).contains(&compression) {
                return Err(DeviceError::InvalidParameter(
                    "mismatch parameters out of range".into(),
                ));
            }
        }
        Ok(())
    }

    /// Number of representable levels, `2^bits`.
    #[must_use]
    pub fn level_count(&self) -> u16 {
        1u16 << self.bits
    }
}

/// One fabricated AWC instance with frozen leg errors.
///
/// # Examples
///
/// ```
/// use oisa_device::awc::{AwcLadder, AwcParams};
///
/// # fn main() -> Result<(), oisa_device::DeviceError> {
/// let awc = AwcLadder::ideal(AwcParams::ideal(4))?;
/// let i_5 = awc.output_current(5)?;
/// let i_10 = awc.output_current(10)?;
/// assert!((i_10.get() / i_5.get() - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AwcLadder {
    params: AwcParams,
    /// Per-leg relative current multipliers (1.0 = nominal), LSB first.
    leg_gains: Vec<f64>,
}

impl AwcLadder {
    /// Builds a ladder with nominal legs (the random mismatch component is
    /// zero; systematic compression still applies if the model requests
    /// it).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range
    /// parameters.
    pub fn ideal(params: AwcParams) -> Result<Self> {
        params.validate()?;
        Ok(Self {
            leg_gains: vec![1.0; params.bits as usize],
            params,
        })
    }

    /// Builds a ladder whose leg errors are drawn from the fabrication
    /// distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range
    /// parameters.
    pub fn fabricate<R: Rng + ?Sized>(params: AwcParams, rng: &mut R) -> Result<Self> {
        params.validate()?;
        let sigma = match params.model {
            AwcModel::Ideal => 0.0,
            AwcModel::Mismatch { leg_sigma, .. } => leg_sigma,
        };
        let leg_gains = (0..params.bits)
            .map(|_| 1.0 + gaussian(rng) * sigma)
            .collect();
        Ok(Self { params, leg_gains })
    }

    /// Design parameters.
    #[must_use]
    pub fn params(&self) -> &AwcParams {
        &self.params
    }

    /// Tuning current for digital `code`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] when `code ≥ 2^bits`.
    pub fn output_current(&self, code: u16) -> Result<Ampere> {
        if code >= self.params.level_count() {
            return Err(DeviceError::OutOfRange(format!(
                "code {code} exceeds {}-bit range",
                self.params.bits
            )));
        }
        let mut ideal_sum = 0.0;
        for bit in 0..self.params.bits {
            if code & (1 << bit) != 0 {
                let weight = f64::from(1u16 << bit);
                ideal_sum += weight * self.leg_gains[bit as usize];
            }
        }
        let i_raw = self.params.lsb_current.get() * ideal_sum;
        let i = match self.params.model {
            AwcModel::Ideal => i_raw,
            AwcModel::Mismatch { compression, .. } => {
                // Summing-node rise compresses large codes: quadratic in
                // the normalised code so small codes are unaffected.
                let full_scale =
                    self.params.lsb_current.get() * f64::from(self.params.level_count() - 1);
                let x = i_raw / full_scale;
                i_raw * (1.0 - compression * x * x)
            }
        };
        Ok(Ampere::new(i))
    }

    /// All level currents in code order.
    #[must_use]
    pub fn levels(&self) -> Vec<Ampere> {
        (0..self.params.level_count())
            .map(|c| self.output_current(c).expect("code in range"))
            .collect()
    }

    /// Static power while holding `code`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] when `code ≥ 2^bits`.
    pub fn holding_power(&self, code: u16) -> Result<Watt> {
        Ok(self.output_current(code)? * self.params.vdd)
    }

    /// Transistor-level netlist of the ladder for transient co-simulation
    /// (regenerates paper Fig. 4(b)). Bit `k`'s gate is driven by the
    /// supplied waveform; all drains share the `ituning` summing node,
    /// which is held near ground through a small sense resistor so the
    /// drain currents add.
    ///
    /// Returns the circuit and the name of the summing-node sense
    /// resistor's top node (`"ituning"`); the ladder current is
    /// `V(ituning)/r_sense`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures from [`oisa_spice`].
    pub fn build_netlist(
        &self,
        bit_waveforms: &[Waveform],
        r_sense: oisa_units::Ohm,
    ) -> Result<Circuit> {
        if bit_waveforms.len() != self.params.bits as usize {
            return Err(DeviceError::InvalidParameter(format!(
                "expected {} bit waveforms, got {}",
                self.params.bits,
                bit_waveforms.len()
            )));
        }
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let sum = ckt.node("ituning");
        let to_spice = |e: oisa_spice::SpiceError| DeviceError::InvalidParameter(e.to_string());
        ckt.vsource(
            "VDD",
            vdd,
            Circuit::GND,
            Waveform::dc(self.params.vdd.get()),
        )
        .map_err(to_spice)?;
        // Sense resistor converts the summed current to a measurable
        // voltage while keeping the node near ground.
        ckt.resistor("RSENSE", sum, Circuit::GND, r_sense)
            .map_err(to_spice)?;
        // Choose the unit width so one leg at full gate drive delivers the
        // LSB current: ids = ½·k'·(W/L)·(vdd − vth)² (λ folded into gain).
        let nominal = MosParams::nmos(1.0);
        let vov = self.params.vdd.get() - nominal.vth;
        let unit_w = self.params.lsb_current.get() / (0.5 * nominal.kp * vov * vov);
        for (bit, wave) in bit_waveforms.iter().enumerate() {
            let gate = ckt.node(&format!("w{bit}"));
            ckt.vsource(&format!("VW{bit}"), gate, Circuit::GND, wave.clone())
                .map_err(to_spice)?;
            let width = unit_w * f64::from(1u32 << bit) * self.leg_gains[bit];
            ckt.mosfet(
                &format!("T{}", bit + 1),
                vdd,
                gate,
                sum,
                MosParams {
                    w_over_l: width,
                    lambda: 0.0,
                    ..nominal
                },
            )
            .map_err(to_spice)?;
        }
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_ladder_is_exactly_linear() {
        let awc = AwcLadder::ideal(AwcParams::ideal(4)).unwrap();
        let lsb = awc.params().lsb_current.get();
        for code in 0..16u16 {
            let i = awc.output_current(code).unwrap().get();
            assert!((i - lsb * f64::from(code)).abs() < 1e-15);
        }
        // Every level sits on the ideal line and every step is one LSB.
        let levels = awc.levels();
        assert!(levels
            .iter()
            .enumerate()
            .all(|(c, i)| (i.get() / lsb - c as f64).abs() < 1e-12));
        assert!(levels
            .windows(2)
            .all(|w| ((w[1].get() - w[0].get()) / lsb - 1.0).abs() < 1e-12));
    }

    #[test]
    fn paper_full_scale_matches_fig4b() {
        let awc = AwcLadder::ideal(AwcParams::ideal(4)).unwrap();
        let full = awc.output_current(15).unwrap();
        // Fig. 4(b) tops out around 400 µA.
        assert!((full.as_micro() - 400.0).abs() < 5.0, "full scale {full}");
    }

    #[test]
    fn compression_bunches_top_levels() {
        let awc = AwcLadder::ideal(AwcParams::paper_default()).unwrap();
        let levels = awc.levels();
        let step_low = levels[2].get() - levels[1].get();
        let step_high = levels[15].get() - levels[14].get();
        assert!(
            step_high < step_low,
            "high step {step_high} should compress below low step {step_low}"
        );
        // Monotonicity may survive compression at these settings, but the
        // DNL (a step's deviation from one LSB) at the top must be clearly
        // negative.
        let lsb = awc.params().lsb_current.get();
        let dnl = |c: usize| (levels[c + 1].get() - levels[c].get()) / lsb - 1.0;
        assert!(dnl(14) < -0.1, "top DNL {}", dnl(14));
        assert!(dnl(0).abs() < 0.05, "bottom DNL {}", dnl(0));
    }

    #[test]
    fn three_bit_codes_stay_monotone_under_paper_mismatch() {
        // The paper's explanation for [3:2] ≥ [4:2]: at 3 bits the ladder
        // still separates all levels.
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let params = AwcParams {
                bits: 3,
                ..AwcParams::paper_default()
            };
            let awc = AwcLadder::fabricate(params, &mut rng).unwrap();
            let levels = awc.levels();
            for w in levels.windows(2) {
                assert!(w[1].get() > w[0].get(), "3-bit ladder must be monotone");
            }
        }
    }

    #[test]
    fn four_bit_codes_sometimes_collide_under_mismatch() {
        // With 16 levels, compression + mismatch shrinks the top steps to
        // below half an LSB for some instances — the paper's accuracy
        // regression mechanism.
        let mut rng = StdRng::seed_from_u64(7);
        let mut min_step_lsb = f64::INFINITY;
        for _ in 0..100 {
            let awc = AwcLadder::fabricate(AwcParams::paper_default(), &mut rng).unwrap();
            let lsb = awc.params().lsb_current.get();
            for w in awc.levels().windows(2) {
                min_step_lsb = min_step_lsb.min((w[1].get() - w[0].get()) / lsb);
            }
        }
        assert!(
            min_step_lsb < 0.6,
            "expected some 4-bit steps below 0.6 LSB, min {min_step_lsb}"
        );
    }

    #[test]
    fn out_of_range_code_rejected() {
        let awc = AwcLadder::ideal(AwcParams::ideal(3)).unwrap();
        assert!(awc.output_current(7).is_ok());
        assert!(awc.output_current(8).is_err());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(AwcLadder::ideal(AwcParams {
            bits: 0,
            ..AwcParams::paper_default()
        })
        .is_err());
        assert!(AwcLadder::ideal(AwcParams {
            bits: 5,
            ..AwcParams::paper_default()
        })
        .is_err());
        assert!(AwcLadder::ideal(AwcParams {
            lsb_current: Ampere::ZERO,
            ..AwcParams::paper_default()
        })
        .is_err());
    }

    #[test]
    fn holding_power_proportional_to_code_current() {
        let awc = AwcLadder::ideal(AwcParams::ideal(4)).unwrap();
        let p5 = awc.holding_power(5).unwrap().get();
        let p10 = awc.holding_power(10).unwrap().get();
        assert!((p10 / p5 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn netlist_simulates_to_staircase() {
        use oisa_spice::TransientAnalysis;
        use oisa_units::{Ohm, Second};
        let awc = AwcLadder::ideal(AwcParams::ideal(2)).unwrap();
        // Bit 0 toggles every 2 ns, bit 1 every 4 ns → codes 0,1,2,3.
        let waves = vec![
            Waveform::pulse(0.0, 1.0, 2e-9, 1e-11, 1e-11, 2e-9, 4e-9),
            Waveform::pulse(0.0, 1.0, 4e-9, 1e-11, 1e-11, 4e-9, 8e-9),
        ];
        let ckt = awc.build_netlist(&waves, Ohm::new(10.0)).unwrap();
        let trace = TransientAnalysis::new(Second::from_nano(8.0), Second::from_pico(20.0))
            .run(&ckt)
            .unwrap();
        let i_at = |t: f64| trace.voltage_at("ituning", t).unwrap() / 10.0;
        let i0 = i_at(1.0e-9);
        let i1 = i_at(3.0e-9);
        let i2 = i_at(5.0e-9);
        let i3 = i_at(7.0e-9);
        assert!(i0.abs() < 1e-6, "code 00 ≈ 0, got {i0}");
        assert!(i1 > 5e-6, "code 01 conducts, got {i1}");
        assert!(
            (i2 / i1 - 2.0).abs() < 0.35,
            "code 10 ≈ 2× code 01: {i2} vs {i1}"
        );
        assert!(i3 > i2, "code 11 largest");
    }

    #[test]
    fn netlist_wrong_waveform_count_rejected() {
        let awc = AwcLadder::ideal(AwcParams::ideal(4)).unwrap();
        let res = awc.build_netlist(&[Waveform::dc(0.0)], oisa_units::Ohm::new(10.0));
        assert!(res.is_err());
    }

    proptest! {
        #[test]
        fn levels_bounded_by_full_scale(code in 0u16..16) {
            let awc = AwcLadder::ideal(AwcParams::paper_default()).unwrap();
            let i = awc.output_current(code).unwrap().get();
            let full = awc.params().lsb_current.get() * 15.0;
            prop_assert!(i >= 0.0);
            prop_assert!(i <= full * 1.001);
        }

        #[test]
        fn fabricated_ladders_close_to_nominal(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let awc = AwcLadder::fabricate(AwcParams::paper_default(), &mut rng).unwrap();
            let nominal = AwcLadder::ideal(AwcParams::paper_default()).unwrap();
            for code in 0..16u16 {
                let a = awc.output_current(code).unwrap().get();
                let b = nominal.output_current(code).unwrap().get();
                // 2% σ per leg: 6σ bound on the relative deviation.
                prop_assert!((a - b).abs() <= 0.15 * b.max(1e-9));
            }
        }
    }
}
