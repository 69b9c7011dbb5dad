//! Fig. 9: normalised power of the four platforms across \[1,2\]..\[4,2\]
//! bit configurations, with component breakdowns and converter counts.

use oisa_baselines::platforms::{AppCipLike, AsicBaseline, CrosslightLike};
use oisa_baselines::PlatformPower;
use oisa_core::perf::OisaPerfModel;
use oisa_units::Watt;

/// One platform's power at each of the four bit configurations.
#[derive(Debug, Clone)]
pub struct PowerSeries {
    /// Platform display name.
    pub platform: String,
    /// `\[1,2\]..\[4,2\]` totals.
    pub totals: Vec<Watt>,
    /// Full breakdown at \[4,2\].
    pub breakdown_4bit: PlatformPower,
}

/// Average power-reduction factors vs OISA (the paper's 8.3× / 7.9× /
/// 18.4× claims).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionFactors {
    /// Crosslight-like / OISA.
    pub crosslight: f64,
    /// AppCiP-like / OISA.
    pub appcip: f64,
    /// ASIC / OISA.
    pub asic: f64,
}

/// Computes the full Fig. 9 sweep.
///
/// # Errors
///
/// Propagates model failures as a boxed error for the harness.
pub fn power_sweep() -> Result<(Vec<PowerSeries>, ReductionFactors), Box<dyn std::error::Error>> {
    let perf = OisaPerfModel::paper_default()?;
    let crosslight = CrosslightLike::default();
    let appcip = AppCipLike::default();
    let asic = AsicBaseline::default();

    let bits_range = 1..=4u8;
    let mut oisa_totals = Vec::new();
    for bits in bits_range.clone() {
        oisa_totals.push(perf.compute_power(bits)?.total());
    }
    let oisa_breakdown = perf.compute_power(4)?;
    let oisa_series = PowerSeries {
        platform: "OISA".into(),
        totals: oisa_totals.clone(),
        breakdown_4bit: PlatformPower {
            platform: "OISA".into(),
            components: oisa_breakdown
                .components()
                .into_iter()
                .map(|(n, w)| (n.to_owned(), w))
                .collect(),
        },
    };

    let mut series = vec![oisa_series];
    let mut ratios = [0.0f64; 3];
    for (idx, (name, power_fn)) in [
        (
            "Crosslight-like",
            Box::new(move |b: u8| crosslight.power(b)) as Box<dyn Fn(u8) -> _>,
        ),
        ("AppCiP-like", Box::new(move |b: u8| appcip.power(b))),
        (
            "ASIC (DaDianNao-like)",
            Box::new(move |b: u8| asic.power(b)),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut totals = Vec::new();
        let mut ratio_acc = 0.0;
        for (i, bits) in bits_range.clone().enumerate() {
            let p = power_fn(bits)?;
            ratio_acc += p.total().get() / oisa_totals[i].get();
            totals.push(p.total());
        }
        ratios[idx] = ratio_acc / 4.0;
        series.push(PowerSeries {
            platform: name.into(),
            totals,
            breakdown_4bit: power_fn(4)?,
        });
    }

    Ok((
        series,
        ReductionFactors {
            crosslight: ratios[0],
            appcip: ratios[1],
            asic: ratios[2],
        },
    ))
}

/// Converter-count panel data: `(platform, ADC-or-AWC count, DAC-or-VAM
/// count)`.
#[must_use]
pub fn converter_counts() -> Vec<(&'static str, usize, usize)> {
    let (cl_adc, cl_dac) = CrosslightLike::default().converter_counts();
    let (ap_adc, ap_dac) = AppCipLike::default().converter_counts();
    let (as_adc, as_dac) = AsicBaseline::default().converter_counts();
    vec![
        // OISA: 40 AWC ladders replace DACs; 360 shared VAM channels
        // replace per-pixel conversion.
        ("OISA (AWC/VAM)", 40, 360),
        ("Crosslight-like (ADC/DAC)", cl_adc, cl_dac),
        ("AppCiP-like (ADC/-)", ap_adc, ap_dac),
        ("ASIC (ADC/-)", as_adc, as_dac),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oisa_wins_everywhere() {
        let (series, _) = power_sweep().unwrap();
        let oisa = &series[0];
        for other in &series[1..] {
            for (a, b) in oisa.totals.iter().zip(&other.totals) {
                assert!(
                    a.get() < b.get(),
                    "OISA must undercut {} at every bit width",
                    other.platform
                );
            }
        }
    }

    #[test]
    fn reduction_factors_near_paper() {
        let (_, factors) = power_sweep().unwrap();
        // Paper averages: 8.3× (Crosslight), 7.9× (AppCiP), 18.4× (ASIC).
        // The averaging across bit widths differs from the paper's exact
        // normalisation, so allow a generous band; the `fig9_power`
        // binary prints the measured values.
        assert!(
            factors.crosslight > 2.0 && factors.crosslight < 12.0,
            "crosslight {}",
            factors.crosslight
        );
        assert!(
            factors.appcip > 2.0 && factors.appcip < 12.0,
            "appcip {}",
            factors.appcip
        );
        assert!(
            factors.asic > factors.crosslight && factors.asic < 25.0,
            "asic {}",
            factors.asic
        );
    }

    #[test]
    fn four_bit_ratios_match_headline() {
        let (series, _) = power_sweep().unwrap();
        let at4 = |i: usize| series[i].totals[3].get();
        let oisa = at4(0);
        assert!(
            (at4(1) / oisa - 8.3).abs() < 1.7,
            "crosslight {}",
            at4(1) / oisa
        );
        assert!(
            (at4(2) / oisa - 7.9).abs() < 1.6,
            "appcip {}",
            at4(2) / oisa
        );
        assert!((at4(3) / oisa - 18.4).abs() < 3.7, "asic {}", at4(3) / oisa);
    }

    #[test]
    fn oisa_has_no_adc_dac_components() {
        let (series, _) = power_sweep().unwrap();
        let oisa = &series[0].breakdown_4bit;
        assert_eq!(oisa.component("ADC"), Watt::ZERO);
        assert_eq!(oisa.component("DAC"), Watt::ZERO);
        // Crosslight does have them.
        let cl = &series[1].breakdown_4bit;
        assert!(cl.component("ADC").get() > 0.0);
        assert!(cl.component("DAC").get() > 0.0);
    }

    #[test]
    fn converter_count_panel() {
        let counts = converter_counts();
        assert_eq!(counts.len(), 4);
        let oisa = counts[0];
        let crosslight = counts[1];
        assert!(oisa.1 < crosslight.1, "AWC count beats ADC count");
        assert!(oisa.2 < crosslight.2, "VAM count beats DAC count");
    }
}
