//! Calibrated performance, power and area model (paper §IV).
//!
//! The paper's headline numbers and how this model reproduces them:
//!
//! | paper claim | model source |
//! |---|---|
//! | 55.8 ps per architecture-wide MAC | [`ControllerTiming::cycle`] |
//! | 7.1 TOp/s | 400 arm results per cycle ÷ 55.8 ps (an *Op* is one arm-level dot product, the paper's counting) |
//! | 6.68 TOp/s/W | throughput ÷ the bottom-up power total below |
//! | Table I power 0.00012–0.00034 mW | sensing front-end (pixel + dual SA) plus a per-weight-bit ring-refresh term |
//! | 1.92 mm² | ring + imager + laser/detector + routing area sum |
//!
//! Component constants are documented inline, with their calibration in
//! [`OisaPerfModel::compute_power`]'s docs; where the paper gives no
//! number, values come from the cited technologies.

use oisa_optics::opc::OpcConfig;
use oisa_sensor::imager::ImagerConfig;
use oisa_units::{Joule, Second, SquareMeter, Watt};
use serde::{Deserialize, Serialize};

use crate::controller::ControllerTiming;
use crate::mapping::{ConvWorkload, MappingPlan};
use crate::{CoreError, Result};

/// Power breakdown of the accelerator while computing (the Fig. 9
/// component legend: OISA has no ADC and no DAC — the AWC and VAM columns
/// replace them).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// VCSEL drive (activation + output modulators).
    pub vcsel: Watt,
    /// Thermal tuning hold of all microrings (the figure's "TED").
    pub ted: Watt,
    /// Balanced photodetectors and their receivers.
    pub bpd: Watt,
    /// AWC ladders (the DAC replacement).
    pub awc: Watt,
    /// Sense amplifiers and pixel readout (the ADC replacement).
    pub sense: Watt,
    /// Kernel banks (leakage + streaming).
    pub memory: Watt,
    /// Clocking, control, bias distribution.
    pub misc: Watt,
}

impl PowerBreakdown {
    /// Total power.
    #[must_use]
    pub fn total(&self) -> Watt {
        self.vcsel + self.ted + self.bpd + self.awc + self.sense + self.memory + self.misc
    }

    /// Component name/value pairs for report printing.
    #[must_use]
    pub fn components(&self) -> Vec<(&'static str, Watt)> {
        vec![
            ("VCSEL", self.vcsel),
            ("TED", self.ted),
            ("BPD", self.bpd),
            ("AWC", self.awc),
            ("SA/pixel", self.sense),
            ("memory", self.memory),
            ("misc", self.misc),
        ]
    }
}

/// The calibrated analytical model.
///
/// # Examples
///
/// ```
/// use oisa_core::perf::OisaPerfModel;
///
/// # fn main() -> Result<(), oisa_core::CoreError> {
/// let perf = OisaPerfModel::paper_default()?;
/// assert!((perf.throughput_tops() - 7.1).abs() < 0.2);
/// assert!((perf.efficiency_tops_per_watt(4)? - 6.68).abs() < 0.7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OisaPerfModel {
    opc: OpcConfig,
    imager: ImagerConfig,
    timing: ControllerTiming,
}

impl OisaPerfModel {
    /// Paper configuration: 80-bank OPC, 128×128 imager at 1000 fps,
    /// paper timing.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; mirrors the fallible
    /// general constructor.
    pub fn paper_default() -> Result<Self> {
        Ok(Self {
            opc: OpcConfig::paper_default(),
            imager: ImagerConfig::paper_default(128, 128),
            timing: ControllerTiming::paper_default(),
        })
    }

    /// Builds from explicit configurations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for empty configurations.
    pub fn new(opc: OpcConfig, imager: ImagerConfig, timing: ControllerTiming) -> Result<Self> {
        if opc.banks == 0 {
            return Err(CoreError::InvalidParameter("OPC has no banks".into()));
        }
        Ok(Self {
            opc,
            imager,
            timing,
        })
    }

    /// OPC configuration.
    #[must_use]
    pub fn opc(&self) -> &OpcConfig {
        &self.opc
    }

    /// Arm-level results per second — the paper's "TOp/s" counting (one
    /// Op = one arm's dot-product result).
    #[must_use]
    pub fn throughput_ops_per_s(&self) -> f64 {
        let arms = (self.opc.banks * oisa_optics::bank::ARMS_PER_BANK) as f64;
        arms / self.timing.cycle.get()
    }

    /// Throughput in TOp/s (paper: 7.1).
    #[must_use]
    pub fn throughput_tops(&self) -> f64 {
        self.throughput_ops_per_s() / 1e12
    }

    /// Elementwise MAC rate for a kernel size `k` (3/5/7).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unmappable`] for unsupported kernel sizes.
    pub fn mac_rate_per_s(&self, k: usize) -> Result<f64> {
        let ks = oisa_optics::opc::KernelSize::from_k(k)
            .map_err(|e| CoreError::Unmappable(e.to_string()))?;
        Ok(self.opc.macs_per_cycle(ks) as f64 / self.timing.cycle.get())
    }

    /// Compute-phase power breakdown for weight bit-width `bits` (1–4).
    ///
    /// Calibration (per component, at the paper configuration):
    ///
    /// * **VCSEL** — 360 shared activation channels (9 wavelengths × 40
    ///   distribution rails; kernels replicated across arms reuse the same
    ///   modulated light) at 1.0 mW average electrical drive.
    /// * **TED** — 4000 rings holding an average 0.25 nm detuning on
    ///   2.5 nm/mW heaters ≈ 0.1 mW each.
    /// * **BPD** — 400 receivers at 0.5 mW (PD bias + transimpedance).
    /// * **AWC** — 40 ladders at the mid code ≈ 0.2 mW each.
    /// * **memory** — kernel-bank leakage + streaming, ≈ 5 µW + 1 µW/bit.
    /// * **misc** — 0.1 W control/clock/bias.
    ///
    /// The weak bit-width dependence (TED/AWC hold currents grow with the
    /// average programmed level) reproduces Fig. 9's nearly flat OISA
    /// bars.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `bits` outside 1–4.
    pub fn compute_power(&self, bits: u8) -> Result<PowerBreakdown> {
        check_bits(bits)?;
        let scale = self.opc.banks as f64 / 80.0;
        let bit_growth = 0.92 + 0.03 * f64::from(bits);
        Ok(PowerBreakdown {
            vcsel: Watt::from_milli(360.0 * 1.0) * scale,
            ted: Watt::from_milli(4000.0 * 0.1) * scale * bit_growth,
            bpd: Watt::from_milli(400.0 * 0.5) * scale,
            awc: Watt::from_milli(40.0 * 0.2) * scale * bit_growth,
            sense: self.frontend_power(bits)?,
            memory: Watt::from_micro(5.0 + f64::from(bits)) * scale,
            misc: Watt::from_milli(100.0) * scale,
        })
    }

    /// Efficiency in the paper's TOp/s/W counting (paper: 6.68 at 4-bit
    /// weights).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `bits` outside 1–4.
    pub fn efficiency_tops_per_watt(&self, bits: u8) -> Result<f64> {
        Ok(self.throughput_tops() / self.compute_power(bits)?.total().get())
    }

    /// Sensing front-end power — Table I's "Power" column: the ADC-less
    /// pixel array plus the dual sense amplifiers, with a per-weight-bit
    /// ring-refresh term (paper range: 0.00012–0.00034 mW over 1–4-bit
    /// weights at 128×128 / 1000 fps).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `bits` outside 1–4.
    pub fn frontend_power(&self, bits: u8) -> Result<Watt> {
        check_bits(bits)?;
        let pixels = self.imager.pixel_count() as f64;
        let fps = self.imager.frame_rate_hz;
        // Pixel access 3.5 fJ + two SA decisions at 2 fJ each, per pixel
        // per frame.
        let per_pixel = Joule::from_femto(3.5 + 4.0);
        let sensing = Watt::new(per_pixel.get() * pixels * fps);
        // Ring-level refresh/trim of the programmed weights: 18 fJ per
        // ring-bit per frame beyond the first bit.
        let rings = self.opc.total_rings() as f64;
        let refresh = Watt::new(18.0e-15 * rings * fps * f64::from(bits - 1));
        Ok(sensing + refresh)
    }

    /// Die area (paper: 1.92 mm²): rings, imager, lasers, detectors,
    /// converters/banks and waveguide routing.
    #[must_use]
    pub fn area(&self) -> SquareMeter {
        let ring = oisa_device::mr::MrDesign::paper_default().footprint().get();
        let rings = self.opc.total_rings() as f64 * ring; // ≈ 0.68 mm²
        let imager = self.imager.pixel.area().get() * self.imager.pixel_count() as f64; // ≈ 0.33 mm²
        let vcsels = 360.0 * 400e-12; // flip-chip VCSEL sites ≈ 0.14 mm²
        let bpds = 400.0 * 100e-12; // ≈ 0.04 mm²
        let converters = 0.08e-6; // AWC row + SA columns + banks
        let routing = 0.62e-6; // waveguide distribution network
        SquareMeter::new(rings + imager + vcsels + bpds + converters + routing)
    }

    /// Per-frame energy and latency of a first-layer workload at `bits`.
    ///
    /// # Errors
    ///
    /// Propagates mapping and parameter failures.
    pub fn frame_cost(&self, workload: &ConvWorkload, bits: u8) -> Result<(Joule, Second)> {
        let plan = MappingPlan::compute(workload, &self.opc)?;
        let ctrl = crate::controller::Controller::new(self.timing);
        let (oh, ow) = workload.output_size();
        let program = ctrl.frame_program(&plan, (oh * ow * workload.out_channels) as u64);
        let timeline = ctrl.execute(&program)?;
        let power = self.compute_power(bits)?;
        // Compute-phase power applies during compute + mapping; the
        // output transmitter (one VCSEL link, ~50 mW) runs during
        // transmit; only the front end runs during the exposure.
        let active = timeline.compute + timeline.mapping;
        let link_power = Watt::from_milli(50.0);
        let energy = power.total() * active
            + link_power * timeline.transmit
            + self.frontend_power(bits)? * timeline.capture;
        Ok((energy, timeline.total()))
    }
}

impl OisaPerfModel {
    /// Duty-cycled average power of a first-layer workload at `fps`
    /// frames per second: the OPC only burns its compute-phase power
    /// during the sub-microsecond compute/mapping burst, the front end
    /// runs during the exposure, and everything else is power-gated.
    ///
    /// This is the bridge between the paper's two power figures: the
    /// ≈ 1 W compute-phase power behind the 6.68 TOp/s/W efficiency and
    /// the µW-scale sensor power of Table I.
    ///
    /// # Errors
    ///
    /// Propagates mapping and parameter failures, and rejects a
    /// non-positive `fps`.
    pub fn average_power(&self, workload: &ConvWorkload, bits: u8, fps: f64) -> Result<Watt> {
        if fps <= 0.0 || !fps.is_finite() {
            return Err(CoreError::InvalidParameter(format!(
                "frame rate {fps} must be positive and finite"
            )));
        }
        let (energy, latency) = self.frame_cost(workload, bits)?;
        let period = 1.0 / fps;
        if latency.get() > period {
            return Err(CoreError::InvalidParameter(format!(
                "frame latency {latency} exceeds the {fps} fps period"
            )));
        }
        Ok(Watt::new(energy.get() * fps))
    }
}

fn check_bits(bits: u8) -> Result<()> {
    if !(1..=4).contains(&bits) {
        return Err(CoreError::InvalidParameter(format!(
            "weight bit-width {bits} outside 1..=4"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OisaPerfModel {
        OisaPerfModel::paper_default().unwrap()
    }

    #[test]
    fn throughput_matches_paper() {
        // 400 arms / 55.8 ps = 7.17 TOp/s (paper: 7.1).
        let tops = model().throughput_tops();
        assert!((tops - 7.1).abs() < 0.2, "throughput {tops} TOp/s");
    }

    #[test]
    fn efficiency_matches_paper() {
        let eff = model().efficiency_tops_per_watt(4).unwrap();
        assert!(
            (eff - 6.68).abs() < 0.7,
            "efficiency {eff} TOp/s/W vs paper 6.68"
        );
    }

    #[test]
    fn mac_rates_follow_kernel_class() {
        let m = model();
        let r3 = m.mac_rate_per_s(3).unwrap();
        let r5 = m.mac_rate_per_s(5).unwrap();
        let r7 = m.mac_rate_per_s(7).unwrap();
        assert!((r3 / (3600.0 / 55.8e-12) - 1.0).abs() < 1e-9);
        assert!(r5 < r3 && r3 < r7);
        assert!(m.mac_rate_per_s(4).is_err());
    }

    #[test]
    fn frontend_power_matches_table1_range() {
        let m = model();
        let p1 = m.frontend_power(1).unwrap();
        let p4 = m.frontend_power(4).unwrap();
        // Paper: 0.00012–0.00034 mW.
        assert!(
            (p1.as_milli() - 0.00012).abs() < 0.00002,
            "1-bit front end {p1}"
        );
        assert!(
            (p4.as_milli() - 0.00034).abs() < 0.00004,
            "4-bit front end {p4}"
        );
        assert!(m.frontend_power(0).is_err());
        assert!(m.frontend_power(5).is_err());
    }

    #[test]
    fn area_matches_paper() {
        let a = model().area();
        let mm2 = a.get() * 1e6;
        assert!((mm2 - 1.92).abs() < 0.15, "area {mm2} mm² vs paper 1.92");
    }

    #[test]
    fn power_nearly_flat_across_bits() {
        let m = model();
        let p1 = m.compute_power(1).unwrap().total();
        let p4 = m.compute_power(4).unwrap().total();
        let growth = p4.get() / p1.get();
        assert!(
            growth > 1.0 && growth < 1.15,
            "OISA power should grow weakly with bits, got ×{growth}"
        );
    }

    #[test]
    fn breakdown_components_positive_and_sum() {
        let b = model().compute_power(4).unwrap();
        let sum: f64 = b.components().iter().map(|(_, w)| w.get()).sum();
        assert!((sum - b.total().get()).abs() < 1e-12);
        for (name, w) in b.components() {
            assert!(w.get() > 0.0, "{name} must be positive");
        }
        // TED and VCSEL dominate, as in Fig. 9's OISA breakdown.
        assert!(b.ted.get() > b.awc.get());
        assert!(b.vcsel.get() > b.memory.get());
    }

    #[test]
    fn frame_cost_fits_millisecond_budget() {
        let m = model();
        let (energy, latency) = m
            .frame_cost(&ConvWorkload::resnet18_first_layer(), 4)
            .unwrap();
        assert!(latency.as_milli() < 1.0, "latency {latency}");
        // Energy per frame: sub-µJ scale (compute is sub-µs at ~1 W).
        assert!(energy.as_micro() < 10.0, "energy {energy}");
        assert!(energy.get() > 0.0);
    }

    #[test]
    fn duty_cycled_average_power_is_milliwatt_scale() {
        // At 1000 fps the ~1 W compute burst lasts < 1 µs → mW-scale
        // average. This reconciles Fig. 9's watts with Table I's
        // microwatts (sensing only).
        let m = model();
        let avg = m
            .average_power(&ConvWorkload::resnet18_first_layer(), 4, 1000.0)
            .unwrap();
        assert!(
            avg.as_milli() > 0.05 && avg.as_milli() < 10.0,
            "average power {avg}"
        );
        let compute = m.compute_power(4).unwrap().total();
        assert!(avg.get() < compute.get() / 100.0);
    }

    #[test]
    fn average_power_rejects_impossible_rates() {
        let m = model();
        assert!(m
            .average_power(&ConvWorkload::resnet18_first_layer(), 4, 0.0)
            .is_err());
        // 50 µs exposure alone caps the rate well below 1 MHz.
        assert!(m
            .average_power(&ConvWorkload::resnet18_first_layer(), 4, 1e6)
            .is_err());
    }

    #[test]
    fn smaller_opc_scales_power_down() {
        let mut opc = OpcConfig::paper_default();
        opc.banks = 40;
        let small = OisaPerfModel::new(
            opc,
            ImagerConfig::paper_default(128, 128),
            ControllerTiming::paper_default(),
        )
        .unwrap();
        let full = model();
        assert!(
            small.compute_power(4).unwrap().total().get()
                < full.compute_power(4).unwrap().total().get()
        );
        assert!(small.throughput_tops() < full.throughput_tops());
    }
}
