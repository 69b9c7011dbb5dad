//! Integration tests asserting the paper's quantitative claims hold in
//! this reproduction (shape and calibrated magnitudes; the `oisa_bench`
//! binaries `table1_comparison`, `fig9_power` and
//! `throughput_efficiency` print the full comparison).

use oisa::baselines::platforms::{AppCipLike, AsicBaseline, CrosslightLike};
use oisa::core::mapping::{ConvWorkload, MappingPlan};
use oisa::core::perf::OisaPerfModel;
use oisa::optics::opc::{KernelSize, OpcConfig};

#[test]
fn headline_throughput_and_efficiency() {
    let perf = OisaPerfModel::paper_default().unwrap();
    assert!(
        (perf.throughput_tops() - 7.1).abs() < 0.2,
        "paper: 7.1 TOp/s"
    );
    let eff = perf.efficiency_tops_per_watt(4).unwrap();
    assert!((eff - 6.68).abs() < 0.7, "paper: 6.68 TOp/s/W, got {eff}");
}

#[test]
fn macs_per_cycle_formula() {
    // Paper §III-B: N_cycle = f · (n · K²) → 3600 / 2000 / 3920.
    let opc = OpcConfig::paper_default();
    assert_eq!(opc.macs_per_cycle(KernelSize::K3), 3600);
    assert_eq!(opc.macs_per_cycle(KernelSize::K5), 2000);
    assert_eq!(opc.macs_per_cycle(KernelSize::K7), 3920);
}

#[test]
fn hundred_iterations_for_full_map() {
    let opc = OpcConfig::paper_default();
    assert_eq!(opc.total_rings(), 4000);
    assert_eq!(opc.tuning_iterations(opc.total_rings()), 100);
}

#[test]
fn table1_power_band() {
    let perf = OisaPerfModel::paper_default().unwrap();
    let lo = perf.frontend_power(1).unwrap().as_milli();
    let hi = perf.frontend_power(4).unwrap().as_milli();
    assert!((lo - 0.00012).abs() < 0.00003, "low end {lo} mW vs 0.00012");
    assert!(
        (hi - 0.00034).abs() < 0.00006,
        "high end {hi} mW vs 0.00034"
    );
}

#[test]
fn area_claim() {
    let perf = OisaPerfModel::paper_default().unwrap();
    let mm2 = perf.area().get() * 1e6;
    assert!((mm2 - 1.92).abs() < 0.15, "paper: 1.92 mm², got {mm2}");
}

#[test]
fn power_reduction_factors_at_4bit() {
    let perf = OisaPerfModel::paper_default().unwrap();
    let oisa = perf.compute_power(4).unwrap().total().get();
    let cl = CrosslightLike::default().power(4).unwrap().total().get() / oisa;
    let ap = AppCipLike::default().power(4).unwrap().total().get() / oisa;
    let asic = AsicBaseline::default().power(4).unwrap().total().get() / oisa;
    assert!(
        (cl - 8.3).abs() < 1.7,
        "Crosslight factor {cl} vs paper 8.3"
    );
    assert!((ap - 7.9).abs() < 1.6, "AppCiP factor {ap} vs paper 7.9");
    assert!(
        (asic - 18.4).abs() < 3.7,
        "ASIC factor {asic} vs paper 18.4"
    );
}

#[test]
fn oisa_wins_at_every_bit_width() {
    let perf = OisaPerfModel::paper_default().unwrap();
    for bits in 1..=4u8 {
        let oisa = perf.compute_power(bits).unwrap().total().get();
        assert!(CrosslightLike::default().power(bits).unwrap().total().get() > oisa);
        assert!(AppCipLike::default().power(bits).unwrap().total().get() > oisa);
        assert!(AsicBaseline::default().power(bits).unwrap().total().get() > oisa);
    }
}

#[test]
fn resnet_first_layer_fits_frame_budget() {
    // Paper: 1000 fps with the full first layer in-sensor.
    let perf = OisaPerfModel::paper_default().unwrap();
    let (energy, latency) = perf
        .frame_cost(&ConvWorkload::resnet18_first_layer(), 4)
        .unwrap();
    assert!(latency.as_milli() < 1.0, "latency {latency} exceeds 1 ms");
    assert!(energy.as_micro() < 10.0, "energy {energy} implausible");
}

#[test]
fn mapping_plan_structure_for_resnet() {
    let plan = MappingPlan::compute(
        &ConvWorkload::resnet18_first_layer(),
        &OpcConfig::paper_default(),
    )
    .unwrap();
    // 192 7×7 planes over 80 bank slots.
    assert_eq!(plan.passes, 3);
    assert_eq!(plan.macs_per_cycle, 3920);
    assert_eq!(plan.rings_per_pass, 3920);
}

#[test]
fn quantisation_ladder_shape() {
    // The AWC mechanism behind Table II: the 4th bit helps an ideal
    // converter but not the mismatch ladder.
    use oisa::optics::weights::WeightMapper;
    let e = |bits: u8, paper: bool| {
        if paper {
            WeightMapper::paper(bits).unwrap().worst_case_error()
        } else {
            WeightMapper::ideal(bits).unwrap().worst_case_error()
        }
    };
    let ideal_gain = (e(3, false) - e(4, false)) / e(3, false);
    let paper_gain = (e(3, true) - e(4, true)) / e(3, true);
    assert!(ideal_gain > 0.4, "ideal 4th bit gain {ideal_gain}");
    assert!(
        paper_gain < 0.5 * ideal_gain,
        "mismatch must erase most of the 4th bit's benefit ({paper_gain} vs {ideal_gain})"
    );
}
