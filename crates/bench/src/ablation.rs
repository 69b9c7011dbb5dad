//! Ablations of five design choices the paper makes (§III), each
//! against the alternative it rejects:
//!
//! 1. **AWC vs ideal DAC** — worst-case weight error per bit width.
//! 2. **NRZ bias floor vs return-to-zero** — per-symbol energy/latency.
//! 3. **Weight-only rings (OISA) vs split A/W rings (Crosslight)** —
//!    delivered ops per fabric-second.
//! 4. **Hybrid TO-EO tuning vs TO-only** — re-tuning latency for small
//!    updates.
//! 5. **Bank partitioning for large kernels** — utilisation across K.

use oisa_device::mr::{Microring, MrDesign};
use oisa_device::vcsel::{TernaryLevel, Vcsel, VcselParams};
use oisa_optics::arm::{Arm, ArmConfig};
use oisa_optics::opc::{KernelSize, OpcConfig};
use oisa_optics::thermal::ThermalModel;
use oisa_optics::weights::WeightMapper;
use oisa_units::{Meter, Second};

/// One ablation finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which design axis.
    pub axis: String,
    /// The design point the paper chose.
    pub chosen: String,
    /// The alternative.
    pub alternative: String,
    /// Numeric summary `(chosen_value, alternative_value)` with the
    /// metric in `metric`.
    pub values: (f64, f64),
    /// Metric description.
    pub metric: String,
}

/// AWC mismatch vs ideal DAC: worst-case quantisation error at each bit
/// width.
///
/// # Errors
///
/// Propagates mapper construction failures.
pub fn awc_vs_ideal() -> Result<Vec<Finding>, Box<dyn std::error::Error>> {
    let mut findings = Vec::new();
    for bits in 1..=4u8 {
        let awc = WeightMapper::paper(bits)?.worst_case_error();
        let ideal = WeightMapper::ideal(bits)?.worst_case_error();
        findings.push(Finding {
            axis: format!("converter ({bits}-bit)"),
            chosen: "AWC (approximate ladder)".into(),
            alternative: "ideal DAC".into(),
            values: (awc, ideal),
            metric: "worst-case |w_eff − w| over [−1, 1]".into(),
        });
    }
    Ok(findings)
}

/// NRZ bias floor vs fully-off VCSEL: energy to produce one zero symbol
/// (hold at floor vs re-warm-up).
///
/// # Errors
///
/// Propagates VCSEL construction failures.
pub fn nrz_vs_rz() -> Result<Finding, Box<dyn std::error::Error>> {
    let v = Vcsel::new(VcselParams::paper_default())?;
    let symbol = Second::from_pico(55.8);
    let nrz = v.symbol_energy(TernaryLevel::Zero, symbol).as_femto();
    let (_, warmup_energy) = v.cold_start_penalty();
    let rz = warmup_energy.as_femto();
    Ok(Finding {
        axis: "VCSEL zero-symbol handling".into(),
        chosen: "NRZ bias floor".into(),
        alternative: "return-to-zero (full off)".into(),
        values: (nrz, rz),
        metric: "energy per zero symbol, fJ".into(),
    })
}

/// Weight-only rings vs split activation/weight rings: delivered MACs
/// per cycle on the same 4000-ring fabric (the paper's "half the
/// operations" argument).
#[must_use]
pub fn ring_allocation() -> Finding {
    let opc = OpcConfig::paper_default();
    let oisa = opc.macs_per_cycle(KernelSize::K3);
    // Crosslight-style: half the rings hold activations, so only half the
    // arms produce results each cycle.
    let split = oisa / 2;
    Finding {
        axis: "ring allocation".into(),
        chosen: "all rings hold weights (VAM modulates activations)".into(),
        alternative: "half the rings hold activations".into(),
        values: (oisa as f64, split as f64),
        metric: "MACs per cycle at K = 3".into(),
    }
}

/// Hybrid TO-EO tuning vs TO-only: latency of a small (≤ EO range)
/// weight update.
///
/// # Errors
///
/// Propagates ring construction failures.
pub fn tuning_policy() -> Result<Finding, Box<dyn std::error::Error>> {
    let design = MrDesign::paper_default();
    let mut hybrid = Microring::new(design)?;
    let small_shift = Meter::from_nano(0.05);
    let hybrid_outcome = hybrid.apply_detuning(small_shift);
    // TO-only: even small shifts pay the heater settle.
    let to_only_latency = design.to_settle;
    Ok(Finding {
        axis: "ring tuning".into(),
        chosen: "hybrid TO-EO".into(),
        alternative: "TO-only".into(),
        values: (hybrid_outcome.latency.as_nano(), to_only_latency.as_nano()),
        metric: "small-update latency, ns".into(),
    })
}

/// Bank partitioning: ring utilisation per kernel size (the 3600 / 2000 /
/// 3920 MACs-per-cycle trade).
#[must_use]
pub fn kernel_utilisation() -> Vec<Finding> {
    let opc = OpcConfig::paper_default();
    [KernelSize::K3, KernelSize::K5, KernelSize::K7]
        .into_iter()
        .map(|k| {
            let macs = opc.macs_per_cycle(k);
            let utilisation = macs as f64 / opc.total_rings() as f64;
            Finding {
                axis: format!("bank partitioning (K = {})", k.k()),
                chosen: format!("{} kernels/bank", k.kernels_per_bank()),
                alternative: "denser packing (cross-arm kernels)".into(),
                values: (macs as f64, utilisation),
                metric: "MACs/cycle (and fraction of rings active)".into(),
            }
        })
        .collect()
}

/// Thermal crosstalk between ring heaters: worst induced drift on a
/// fully loaded arm, standard pitch vs thermally isolated trenches.
///
/// # Errors
///
/// Propagates arm construction failures.
pub fn thermal_isolation() -> Result<Finding, Box<dyn std::error::Error>> {
    let mapper = WeightMapper::paper(4)?;
    let mut arm = Arm::new(ArmConfig::paper_default())?;
    arm.load_weights(&[0.9, -0.8, 0.7, 0.6, -0.9, 0.8, 0.5, -0.6, 0.7], &mapper)?;
    let standard = ThermalModel::paper_default().analyze_arm(&arm)?;
    let isolated = ThermalModel::isolated().analyze_arm(&arm)?;
    Ok(Finding {
        axis: "heater thermal crosstalk".into(),
        chosen: "standard pitch + EO trim".into(),
        alternative: "deep-trench isolation".into(),
        values: (
            standard.worst_drift.as_nano() * 1000.0, // pm for readability
            isolated.worst_drift.as_nano() * 1000.0,
        ),
        metric: "worst neighbour-induced drift, pm (EO range: 100 pm)".into(),
    })
}

/// Runs every ablation.
///
/// # Errors
///
/// Propagates sub-experiment failures.
pub fn run_all() -> Result<Vec<Finding>, Box<dyn std::error::Error>> {
    let mut findings = awc_vs_ideal()?;
    findings.push(nrz_vs_rz()?);
    findings.push(ring_allocation());
    findings.push(tuning_policy()?);
    findings.extend(kernel_utilisation());
    findings.push(thermal_isolation()?);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awc_never_beats_ideal() {
        // Tolerance covers the sweep granularity of worst_case_error();
        // at 1 bit the ladder's compression can shave the sampled worst
        // case by a fraction of the sweep step.
        for f in awc_vs_ideal().unwrap() {
            assert!(
                f.values.0 >= f.values.1 - 1e-2,
                "{}: AWC error {} below ideal {}",
                f.axis,
                f.values.0,
                f.values.1
            );
        }
    }

    #[test]
    fn nrz_cheaper_than_rz() {
        let f = nrz_vs_rz().unwrap();
        assert!(
            f.values.0 < f.values.1,
            "NRZ {} fJ should beat warm-up {} fJ",
            f.values.0,
            f.values.1
        );
    }

    #[test]
    fn weight_only_doubles_throughput() {
        let f = ring_allocation();
        assert!((f.values.0 / f.values.1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_tuning_faster_for_small_updates() {
        let f = tuning_policy().unwrap();
        assert!(f.values.0 < f.values.1 / 100.0, "{:?}", f.values);
    }

    #[test]
    fn utilisation_ordering_k7_best() {
        let findings = kernel_utilisation();
        let get = |i: usize| findings[i].values.0;
        assert_eq!(get(0), 3600.0);
        assert_eq!(get(1), 2000.0);
        assert_eq!(get(2), 3920.0);
        assert!(get(2) > get(0) && get(0) > get(1));
    }

    #[test]
    fn thermal_isolation_bounds() {
        let f = thermal_isolation().unwrap();
        // Standard pitch drifts but stays within the 100 pm EO range;
        // isolation removes it entirely.
        assert!(f.values.0 > 0.0 && f.values.0 < 100.0, "{:?}", f.values);
        assert_eq!(f.values.1, 0.0);
    }

    #[test]
    fn run_all_collects_everything() {
        let findings = run_all().unwrap();
        assert!(findings.len() >= 10);
    }
}
