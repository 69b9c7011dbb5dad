//! Experiment drivers behind the table/figure harness binaries.
//!
//! Each paper artefact has a binary in `src/bin/` that prints the same
//! rows/series the paper reports; the logic lives here so integration
//! tests can run reduced versions of the same experiments.
//!
//! | artefact | binary | driver |
//! |---|---|---|
//! | Fig. 1 (MR spectra) | `fig1_mr_spectrum` | [`fig1::spectrum_series`] |
//! | Fig. 4(b) (AWC transient) | `fig4b_awc_transient` | [`fig4b::awc_staircase`] |
//! | Fig. 8 (VAM thresholding) | `fig8_vam_transient` | [`fig8::vam_waveforms`] |
//! | Fig. 9 (power comparison) | `fig9_power` | [`fig9::power_sweep`] |
//! | Table I | `table1_comparison` | [`table1::build_table`] |
//! | Table II | `table2_accuracy` | [`table2::run_dataset`] |
//! | §IV throughput text | `throughput_efficiency` | [`headline::headline_numbers`] |
//! | design ablations | `ablation` | [`ablation::run_all`] |

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod fig1;
pub mod fig4b;
pub mod fig8;
pub mod fig9;
pub mod gate;
pub mod headline;
pub mod table1;
pub mod table2;

/// Formats a Watt quantity as engineering text for table cells.
#[must_use]
pub fn fmt_watts(w: oisa_units::Watt) -> String {
    format!("{w:.3}")
}

/// Renders a simple ASCII horizontal bar scaled to `max`.
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.clamp(1, width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(0.01, 10.0, 10), "#");
    }

    #[test]
    fn fmt_watts_engineering() {
        assert_eq!(fmt_watts(oisa_units::Watt::from_milli(1.5)), "1.500 mW");
    }
}
