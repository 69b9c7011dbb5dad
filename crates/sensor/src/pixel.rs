//! The 3-transistor/1-photodiode (3T1PD) pixel.
//!
//! Paper Fig. 3(b): a photodiode, a reset transistor (T1), a discharge
//! transistor (T2) and a source follower (T3). Sensing proceeds in two
//! phases:
//!
//! 1. **Reset** — `Rst` charges the photodiode capacitance to the reverse
//!    bias.
//! 2. **Exposure** — the photocurrent (proportional to illumination)
//!    discharges the node; the accumulated *voltage drop* is the analog
//!    activation the VAM thresholds.
//!
//! [`PixelDesign::sense_voltage`] is the behavioural model used by the
//! array; [`PixelDesign::build_netlist`] emits the transistor-level
//! circuit that regenerates the waveforms of paper Fig. 8.

use oisa_spice::{Circuit, MosParams, SwitchParams, Waveform};
use oisa_units::{Ampere, Farad, Joule, Meter, Ohm, Second, Volt};
use serde::{Deserialize, Serialize};

use crate::{Result, SensorError};

/// Static pixel design parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PixelDesign {
    /// Photodiode junction capacitance.
    pub pd_capacitance: Farad,
    /// Photocurrent at full-scale illumination (1.0).
    pub full_scale_current: Ampere,
    /// Exposure (integration) time of the global shutter.
    pub exposure: Second,
    /// Supply / reset voltage.
    pub vdd: Volt,
    /// Maximum usable voltage drop (the source follower's linear range);
    /// the VAM thresholds are placed inside this swing.
    pub swing: Volt,
    /// Pixel pitch (both dimensions; Table I reports 4.5 µm × 4.5 µm).
    pub pitch: Meter,
    /// Energy of one reset + readout cycle, excluding the sense
    /// amplifiers.
    pub access_energy: Joule,
}

impl PixelDesign {
    /// Paper design point: 4.5 µm pixel, 5 fF photodiode, 50 pA full-scale
    /// photocurrent, 50 µs exposure (1000 fps leaves ample margin), 1 V
    /// supply, 0.5 V usable swing, 3.5 fJ access energy.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            pd_capacitance: Farad::from_femto(5.0),
            full_scale_current: Ampere::from_pico(50.0),
            exposure: Second::from_micro(50.0),
            vdd: Volt::new(1.0),
            swing: Volt::new(0.5),
            pitch: Meter::from_micro(4.5),
            access_energy: Joule::from_femto(3.5),
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.pd_capacitance.get() <= 0.0 {
            return Err(SensorError::InvalidParameter(
                "photodiode capacitance must be positive".into(),
            ));
        }
        if self.full_scale_current.get() <= 0.0 || self.exposure.get() <= 0.0 {
            return Err(SensorError::InvalidParameter(
                "photocurrent and exposure must be positive".into(),
            ));
        }
        if self.swing.get() <= 0.0 || self.swing.get() > self.vdd.get() {
            return Err(SensorError::InvalidParameter(
                "swing must be positive and at most vdd".into(),
            ));
        }
        Ok(())
    }

    /// Behavioural sense voltage: the accumulated drop
    /// `ΔV = min(swing, I_ph · t_exp / C_pd)` for `illumination ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] for illumination outside
    /// `[0, 1]`.
    pub fn sense_voltage(&self, illumination: f64) -> Result<Volt> {
        if !(0.0..=1.0).contains(&illumination) {
            return Err(SensorError::InvalidParameter(format!(
                "illumination {illumination} outside [0, 1]"
            )));
        }
        let i_ph = self.full_scale_current.get() * illumination;
        let drop = i_ph * self.exposure.get() / self.pd_capacitance.get();
        Ok(Volt::new(drop.min(self.swing.get())))
    }

    /// Pixel area (`pitch²`).
    #[must_use]
    pub fn area(&self) -> oisa_units::SquareMeter {
        self.pitch * self.pitch
    }

    /// Transistor-level netlist of one pixel for transient co-simulation
    /// (paper Fig. 8). The photocurrent is a gated current source scaled
    /// by `illumination`; `rst` and `dcharge` waveforms drive the reset
    /// switch and discharge gate. Node names:
    ///
    /// * `"pd"` — photodiode sense node,
    /// * `"out"` — source-follower output (the SA input).
    ///
    /// To match Fig. 8's rising outputs, `out` follows the accumulated
    /// drop: `out = vdd − pd` buffered by the follower — implemented here
    /// as a PMOS follower with a bias load.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Device`] when netlist construction fails.
    pub fn build_netlist(
        &self,
        illumination: f64,
        rst: Waveform,
        dcharge: Waveform,
    ) -> Result<Circuit> {
        if !(0.0..=1.0).contains(&illumination) {
            return Err(SensorError::InvalidParameter(format!(
                "illumination {illumination} outside [0, 1]"
            )));
        }
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let pd = ckt.node("pd");
        let out = ckt.node("out");
        let rst_node = ckt.node("rst");
        let dch_node = ckt.node("dcharge");
        let wrap = |e: oisa_spice::SpiceError| SensorError::Device(e.to_string());
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(self.vdd.get()))
            .map_err(wrap)?;
        ckt.vsource("VRST", rst_node, Circuit::GND, rst)
            .map_err(wrap)?;
        ckt.vsource("VDCH", dch_node, Circuit::GND, dcharge.clone())
            .map_err(wrap)?;
        // T1: reset switch charging the PD node to VDD.
        ckt.switch(
            "T1",
            vdd,
            pd,
            rst_node,
            SwitchParams {
                threshold: 0.5,
                r_on: 1e3,
                r_off: 1e12,
            },
        )
        .map_err(wrap)?;
        // Photodiode capacitance.
        ckt.capacitor("CPD", pd, Circuit::GND, self.pd_capacitance)
            .map_err(wrap)?;
        // T2 + PD: photocurrent pulled from the node while Dcharge is
        // high, scaled by illumination. The diode's photocurrent is gated
        // by the same Dcharge waveform that drives T2 — a series ideal
        // current source would otherwise force current through the open
        // switch.
        let iph = self.full_scale_current.get() * illumination;
        let mid = ckt.node("pd_gate");
        ckt.switch(
            "T2",
            pd,
            mid,
            dch_node,
            SwitchParams {
                threshold: 0.5,
                r_on: 1e3,
                r_off: 1e12,
            },
        )
        .map_err(wrap)?;
        ckt.isource("IPH", mid, Circuit::GND, dcharge.scaled(iph))
            .map_err(wrap)?;
        // T3: source follower buffering the *drop*. We invert with a
        // common-source stage whose output rises as `pd` falls, replicating
        // Fig. 8's rising `Out` traces: PMOS with source at VDD and gate at
        // `pd` conducts more as pd drops.
        ckt.mosfet("T3", out, pd, vdd, MosParams::pmos(4.0))
            .map_err(wrap)?;
        ckt.resistor("RBIAS", out, Circuit::GND, Ohm::from_kilo(200.0))
            .map_err(wrap)?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_spice::TransientAnalysis;
    use proptest::prelude::*;

    #[test]
    fn sense_voltage_linear_then_saturates() {
        let d = PixelDesign::paper_default();
        let v_half = d.sense_voltage(0.5).unwrap();
        let v_full = d.sense_voltage(1.0).unwrap();
        // 50 pA × 50 µs / 5 fF = 0.5 V full-scale drop == swing.
        assert!((v_full.get() - 0.5).abs() < 1e-9, "full {v_full}");
        assert!((v_half.get() - 0.25).abs() < 1e-9, "half {v_half}");
        assert_eq!(d.sense_voltage(0.0).unwrap(), Volt::ZERO);
    }

    #[test]
    fn saturation_point_at_paper_defaults() {
        // The paper pixel reaches full swing exactly at illumination 1.0:
        // the design uses the whole range without clipping mid-scale.
        let d = PixelDesign::paper_default();
        assert!((d.sense_voltage(1.0).unwrap().get() - d.swing.get()).abs() < 1e-9);
        assert!(d.sense_voltage(0.99).unwrap().get() < d.swing.get());
        // Doubling the exposure halves the saturation illumination.
        let d2 = PixelDesign {
            exposure: Second::from_micro(100.0),
            ..d
        };
        assert!((d2.sense_voltage(0.5).unwrap().get() - d2.swing.get()).abs() < 1e-9);
        assert!(d2.sense_voltage(0.49).unwrap().get() < d2.swing.get());
    }

    #[test]
    fn illumination_bounds_checked() {
        let d = PixelDesign::paper_default();
        assert!(d.sense_voltage(-0.1).is_err());
        assert!(d.sense_voltage(1.1).is_err());
    }

    #[test]
    fn invalid_designs_rejected() {
        let mut d = PixelDesign::paper_default();
        d.pd_capacitance = Farad::ZERO;
        assert!(d.validate().is_err());
        let mut d = PixelDesign::paper_default();
        d.swing = Volt::new(1.5);
        assert!(d.validate().is_err());
    }

    #[test]
    fn area_matches_table1_pixel_size() {
        let a = PixelDesign::paper_default().area();
        // 4.5 µm × 4.5 µm = 20.25 µm².
        assert!((a.get() - 20.25e-12).abs() < 1e-18);
    }

    #[test]
    fn netlist_discharges_under_light() {
        // Use a fast, scaled exposure so the transient stays cheap: raise
        // the photocurrent, shrink the exposure.
        let d = PixelDesign {
            full_scale_current: Ampere::from_micro(1.0),
            exposure: Second::from_nano(2.5),
            ..PixelDesign::paper_default()
        };
        // Fig. 8 drive: reset until 2 ns, then expose with Dcharge high.
        let rst = Waveform::pulse(1.0, 0.0, 2e-9, 1e-10, 1e-10, 1.0, 0.0);
        let dch = Waveform::pulse(0.0, 1.0, 2e-9, 1e-10, 1e-10, 1.0, 0.0);
        let ckt = d.build_netlist(1.0, rst, dch).unwrap();
        let trace = TransientAnalysis::new(Second::from_nano(6.0), Second::from_pico(10.0))
            .run(&ckt)
            .unwrap();
        // During reset the PD node sits at VDD.
        let v_reset = trace.voltage_at("pd", 1.5e-9).unwrap();
        assert!(v_reset > 0.95, "pd during reset: {v_reset}");
        // After exposure it must have dropped substantially:
        // ΔV = 1 µA × 2.5 ns / 5 fF = 0.5 V.
        let v_end = trace.voltage_at("pd", 4.5e-9).unwrap();
        assert!((0.35..0.75).contains(&v_end), "pd after exposure: {v_end}");
        // And the inverted follower output must have risen.
        let out_start = trace.voltage_at("out", 1.5e-9).unwrap();
        let out_end = trace.voltage_at("out", 4.5e-9).unwrap();
        assert!(out_end > out_start + 0.05, "{out_start} -> {out_end}");
    }

    #[test]
    fn dark_pixel_keeps_reset_level() {
        let d = PixelDesign {
            full_scale_current: Ampere::from_micro(1.0),
            exposure: Second::from_nano(2.5),
            ..PixelDesign::paper_default()
        };
        // Fig. 8 drive: reset until 2 ns, then expose with Dcharge high.
        let rst = Waveform::pulse(1.0, 0.0, 2e-9, 1e-10, 1e-10, 1.0, 0.0);
        let dch = Waveform::pulse(0.0, 1.0, 2e-9, 1e-10, 1e-10, 1.0, 0.0);
        let ckt = d.build_netlist(0.0, rst, dch).unwrap();
        let trace = TransientAnalysis::new(Second::from_nano(6.0), Second::from_pico(10.0))
            .run(&ckt)
            .unwrap();
        let v_end = trace.voltage_at("pd", 5.5e-9).unwrap();
        assert!(v_end > 0.95, "dark pixel should hold VDD, got {v_end}");
    }

    proptest! {
        #[test]
        fn sense_voltage_monotone(a in 0.0..=1.0f64, b in 0.0..=1.0f64) {
            let d = PixelDesign::paper_default();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let v_lo = d.sense_voltage(lo).unwrap();
            let v_hi = d.sense_voltage(hi).unwrap();
            prop_assert!(v_lo.get() <= v_hi.get() + 1e-15);
        }

        #[test]
        fn sense_voltage_bounded_by_swing(x in 0.0..=1.0f64) {
            let d = PixelDesign::paper_default();
            let v = d.sense_voltage(x).unwrap();
            prop_assert!(v.get() >= 0.0 && v.get() <= d.swing.get() + 1e-15);
        }
    }
}
