//! Comparison platforms for the OISA evaluation (paper §IV).
//!
//! The paper compares OISA against three accelerator families, all
//! re-implemented here as calibrated analytical models evaluated at the
//! same normalised workload (the first layer of ResNet18 on a 128×128
//! sensor, processed at OISA's MAC rate):
//!
//! * [`platforms::CrosslightLike`] — an optical PIS in the style of
//!   Crosslight \[18\]: the same ring/BPD fabric, but **half the rings hold
//!   activations** (halving effective ops) and every activation update
//!   passes through a **DAC** while every arm output needs an **ADC**.
//! * [`platforms::AppCipLike`] — an electronic processing-in-pixel
//!   design in the style of AppCiP \[13\]: analog in-pixel MACs, a folded
//!   ADC, and non-volatile weight storage.
//! * [`platforms::AsicBaseline`] — a DaDianNao-like digital ASIC \[29\]:
//!   eDRAM-fed 8-bit MAC tiles behind a conventional (full-ADC) image
//!   sensor.
//!
//! [`published`] carries the Table I rows of the ten cited PIS/PNS
//! designs verbatim, so the comparison table can be regenerated.

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

pub mod platforms;
pub mod published;

use std::fmt;

use oisa_units::Watt;
use serde::{Deserialize, Serialize};

/// Errors from baseline models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BaselineError {
    /// A parameter was out of range.
    InvalidParameter(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BaselineError>;

/// A platform's power broken into the Fig. 9 component legend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformPower {
    /// Platform display name.
    pub platform: String,
    /// `(component, power)` pairs.
    pub components: Vec<(String, Watt)>,
}

impl PlatformPower {
    /// Total power.
    #[must_use]
    pub fn total(&self) -> Watt {
        self.components.iter().map(|(_, w)| *w).sum()
    }

    /// Power of one named component (0 if absent).
    #[must_use]
    pub fn component(&self, name: &str) -> Watt {
        self.components
            .iter()
            .find(|(n, _)| n == name)
            .map_or(Watt::ZERO, |(_, w)| *w)
    }
}

/// The normalised comparison workload rate: OISA's elementwise MAC rate
/// at 7×7 kernels (3920 MACs per 55.8 ps cycle ≈ 7.0 × 10¹³ MAC/s). All
/// platforms are evaluated delivering this rate, which is how the paper's
/// "processing the 1st layer of ResNet18" comparison is normalised.
#[must_use]
pub fn reference_mac_rate() -> f64 {
    3920.0 / 55.8e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_rate_magnitude() {
        let r = reference_mac_rate();
        assert!((r - 7.025e13).abs() / r < 1e-3);
    }

    #[test]
    fn platform_power_total_and_lookup() {
        let p = PlatformPower {
            platform: "test".into(),
            components: vec![
                ("ADC".into(), Watt::new(1.0)),
                ("DAC".into(), Watt::new(0.5)),
            ],
        };
        assert!((p.total().get() - 1.5).abs() < 1e-12);
        assert!((p.component("ADC").get() - 1.0).abs() < 1e-12);
        assert_eq!(p.component("nope"), Watt::ZERO);
    }
}
