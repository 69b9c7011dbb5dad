//! The VCSEL-based Activation Modulator (VAM).
//!
//! Paper Fig. 3(a): each pixel output feeds **two sense amplifiers**
//! referenced at 0.16 V and 0.32 V. Their outputs `(t1, t2)` switch the
//! VCSEL driver's two bias legs (Fig. 3(d)), so the emitted light already
//! carries the ternary activation — no ADC, no external modulator. A
//! third always-on bias leg keeps the laser above threshold
//! (non-return-to-zero), avoiding the warm-up penalty of a cold VCSEL.

use oisa_device::sense_amp::{SenseAmp, SenseAmpParams};
use oisa_device::vcsel::{TernaryLevel, Vcsel, VcselParams};
use oisa_units::{Joule, Second, Volt};
use serde::{Deserialize, Serialize};

use crate::frame::TernaryFrame;
use crate::imager::Capture;
use crate::{Result, SensorError};

/// VAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VamConfig {
    /// Lower decision threshold (paper: 0.16 V).
    pub sa_low: SenseAmpParams,
    /// Upper decision threshold (paper: 0.32 V).
    pub sa_high: SenseAmpParams,
    /// The modulating laser.
    pub vcsel: VcselParams,
    /// Optical symbol duration (how long each activation illuminates the
    /// OPC).
    pub symbol_time: Second,
}

impl VamConfig {
    /// Paper defaults: 0.16 V / 0.32 V references, the cited VCSEL, 1 ns
    /// symbols.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            sa_low: SenseAmpParams::lower_threshold(),
            sa_high: SenseAmpParams::upper_threshold(),
            vcsel: VcselParams::paper_default(),
            symbol_time: Second::from_nano(1.0),
        }
    }
}

/// A ternary-encoded capture with its energy breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedFrame {
    /// Per-pixel ternary levels.
    pub ternary: TernaryFrame,
    /// Normalised optical amplitudes per pixel (level `Two` → 1.0),
    /// including the NRZ floor residual on zeros — the value the OPC
    /// actually multiplies.
    pub optical: Vec<f64>,
    /// Energy spent in sense-amplifier decisions.
    pub sa_energy: Joule,
    /// Energy spent driving VCSELs for one symbol per pixel.
    pub vcsel_energy: Joule,
}

impl EncodedFrame {
    /// Total encoding energy.
    #[must_use]
    pub fn total_energy(&self) -> Joule {
        self.sa_energy + self.vcsel_energy
    }
}

/// The activation modulator.
///
/// # Examples
///
/// ```
/// use oisa_sensor::vam::{Vam, VamConfig};
/// use oisa_units::Volt;
///
/// # fn main() -> Result<(), oisa_sensor::SensorError> {
/// let vam = Vam::new(VamConfig::paper_default())?;
/// assert_eq!(vam.threshold(Volt::new(0.40)).value(), 2);
/// assert_eq!(vam.threshold(Volt::new(0.25)).value(), 1);
/// assert_eq!(vam.threshold(Volt::new(0.10)).value(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Vam {
    config: VamConfig,
    sa_low: SenseAmp,
    sa_high: SenseAmp,
    vcsel: Vcsel,
}

impl Vam {
    /// Builds a VAM with nominal (offset-free) sense amplifiers.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Device`] when a sub-device rejects its
    /// parameters.
    pub fn new(config: VamConfig) -> Result<Self> {
        Ok(Self {
            sa_low: SenseAmp::ideal(config.sa_low)?,
            sa_high: SenseAmp::ideal(config.sa_high)?,
            vcsel: Vcsel::new(config.vcsel)?,
            config,
        })
    }

    /// Configuration in use.
    #[must_use]
    pub fn config(&self) -> &VamConfig {
        &self.config
    }

    /// The modulating VCSEL model.
    #[must_use]
    pub fn vcsel(&self) -> &Vcsel {
        &self.vcsel
    }

    /// Noiseless ternary decision for one sense voltage (paper Fig. 8's
    /// truth table).
    #[must_use]
    pub fn threshold(&self, v: Volt) -> TernaryLevel {
        let t1 = self.sa_low.decide_ideal(v);
        let t2 = self.sa_high.decide_ideal(v);
        TernaryLevel::from_sense_outputs(t1, t2)
    }

    /// Encodes a capture into ternary levels and optical amplitudes, with
    /// full energy accounting.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] if the capture is empty.
    pub fn encode_capture(&self, capture: &Capture) -> Result<EncodedFrame> {
        if capture.voltages.is_empty() {
            return Err(SensorError::InvalidParameter("empty capture".into()));
        }
        let mut levels = Vec::with_capacity(capture.voltages.len());
        let mut optical = Vec::with_capacity(capture.voltages.len());
        let mut vcsel_energy = Joule::ZERO;
        for &v in &capture.voltages {
            let level = self.threshold(v);
            optical.push(self.vcsel.normalized_output(level));
            vcsel_energy += self.vcsel.symbol_energy(level, self.config.symbol_time);
            levels.push(level);
        }
        let n = capture.voltages.len() as f64;
        let sa_energy = (self.sa_low.decision_energy() + self.sa_high.decision_energy()) * n;
        Ok(EncodedFrame {
            ternary: TernaryFrame::new(capture.width, capture.height, levels)?,
            optical,
            sa_energy,
            vcsel_energy,
        })
    }

    /// Per-pixel front-end energy of one encode (two SA decisions), the
    /// component that joins the pixel access energy in Table I's power
    /// column.
    #[must_use]
    pub fn decision_energy_per_pixel(&self) -> Joule {
        self.sa_low.decision_energy() + self.sa_high.decision_energy()
    }
}

/// Reconstructs Fig. 8's digital `(t1, t2)` traces from a sampled pixel
/// output voltage: decisions update on each falling edge of `clk_period`
/// (50% duty), and hold between edges.
///
/// Returns one `(t1, t2)` pair per input sample, as 0.0/1.0 levels.
#[must_use]
pub fn threshold_trace(
    times: &[f64],
    volts: &[f64],
    clk_period: f64,
    vam: &Vam,
) -> (Vec<f64>, Vec<f64>) {
    let mut t1 = Vec::with_capacity(times.len());
    let mut t2 = Vec::with_capacity(times.len());
    let mut held = (false, false);
    let mut last_edge = -1.0f64;
    for (&t, &v) in times.iter().zip(volts) {
        // Falling edge at odd multiples of clk_period/2.
        let phase = (t / (clk_period / 2.0)).floor() as i64;
        let edge_time = phase as f64 * clk_period / 2.0;
        if phase % 2 == 1 && edge_time > last_edge {
            let level = vam.threshold(Volt::new(v));
            held = match level {
                TernaryLevel::Zero => (false, false),
                TernaryLevel::One => (true, false),
                TernaryLevel::Two => (true, true),
            };
            last_edge = edge_time;
        }
        t1.push(if held.0 { 1.0 } else { 0.0 });
        t2.push(if held.1 { 1.0 } else { 0.0 });
    }
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::imager::{Imager, ImagerConfig};
    use proptest::prelude::*;

    fn vam() -> Vam {
        Vam::new(VamConfig::paper_default()).unwrap()
    }

    fn encode_levels(levels: &[f64]) -> EncodedFrame {
        let n = levels.len();
        let imager = Imager::new(ImagerConfig::paper_default(n, 1)).unwrap();
        let frame = Frame::new(n, 1, levels.to_vec()).unwrap();
        let capture = imager.expose(&frame).unwrap();
        vam().encode_capture(&capture).unwrap()
    }

    #[test]
    fn fig8_three_cases() {
        let v = vam();
        // Out1 > both thresholds, Out2 between, Out3 below both.
        assert_eq!(v.threshold(Volt::new(0.45)).value(), 2);
        assert_eq!(v.threshold(Volt::new(0.25)).value(), 1);
        assert_eq!(v.threshold(Volt::new(0.10)).value(), 0);
        // Boundaries belong to the lower bin (strict comparison).
        assert_eq!(v.threshold(Volt::new(0.16)).value(), 0);
        assert_eq!(v.threshold(Volt::new(0.32)).value(), 1);
    }

    #[test]
    fn encode_capture_maps_illumination_bins() {
        // Paper pixel: ΔV = 0.5 × illumination, so bins split at
        // lux = 0.32 and 0.64.
        let enc = encode_levels(&[0.1, 0.5, 0.9]);
        use oisa_device::vcsel::TernaryLevel::{One, Two, Zero};
        assert_eq!(enc.ternary.as_slice(), &[Zero, One, Two]);
    }

    #[test]
    fn optical_amplitudes_track_levels() {
        let enc = encode_levels(&[0.1, 0.5, 0.9]);
        assert!(enc.optical[0] < enc.optical[1]);
        assert!(enc.optical[1] < enc.optical[2]);
        assert!((enc.optical[2] - 1.0).abs() < 1e-12);
        // NRZ floor: zero level still emits a little light.
        assert!(enc.optical[0] > 0.0);
    }

    #[test]
    fn energy_accounting_scales_with_pixels() {
        let small = encode_levels(&[0.5; 4]);
        let large = encode_levels(&[0.5; 8]);
        assert!((large.sa_energy.get() / small.sa_energy.get() - 2.0).abs() < 1e-9);
        assert!((large.vcsel_energy.get() / small.vcsel_energy.get() - 2.0).abs() < 1e-9);
        assert!(large.total_energy().get() > large.sa_energy.get());
    }

    #[test]
    fn brighter_frames_cost_more_vcsel_energy() {
        let dark = encode_levels(&[0.1; 16]);
        let bright = encode_levels(&[0.9; 16]);
        assert!(bright.vcsel_energy.get() > dark.vcsel_energy.get());
    }

    #[test]
    fn per_pixel_decision_energy_is_4fj() {
        // Two SAs at 2 fJ each.
        let e = vam().decision_energy_per_pixel();
        assert!((e.as_femto() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_trace_follows_clock() {
        let v = vam();
        // Voltage ramps 0 → 0.5 V over 40 ns; 8 ns clock.
        let times: Vec<f64> = (0..400).map(|i| i as f64 * 1e-10).collect();
        let volts: Vec<f64> = times.iter().map(|t| t / 40e-9 * 0.5).collect();
        let (t1, t2) = threshold_trace(&times, &volts, 8e-9, &v);
        assert_eq!(t1.len(), 400);
        // Early: both low.
        assert_eq!(t1[50], 0.0);
        assert_eq!(t2[50], 0.0);
        // Late: both high (voltage near 0.5 V).
        assert_eq!(t1[399], 1.0);
        assert_eq!(t2[399], 1.0);
        // t2 must never lead t1.
        for (a, b) in t1.iter().zip(&t2) {
            assert!(a >= b, "t2 high while t1 low");
        }
    }

    proptest! {
        #[test]
        fn ternary_monotone_in_voltage(v1 in 0.0..0.5f64, v2 in 0.0..0.5f64) {
            let vam = vam();
            let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
            prop_assert!(
                vam.threshold(Volt::new(lo)).value()
                    <= vam.threshold(Volt::new(hi)).value()
            );
        }
    }
}
