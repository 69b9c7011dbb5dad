//! ADC-less global-shutter CMOS imager and VCSEL Activation Modulator.
//!
//! OISA's front end never digitises a pixel. A conventional
//! 3-transistor/1-photodiode pixel (paper Fig. 3(b)) integrates
//! photocurrent during a global exposure; two sense amplifiers per column
//! then *threshold* the analog value into a ternary code (paper Figs. 3(c)
//! and 8), which directly drives the VCSEL bias ladder (Fig. 3(d)) —
//! activation data leaves the sensor already modulated onto light.
//!
//! Crate layout:
//!
//! * [`frame`] — [`Frame`]: normalised illumination maps (what the scene
//!   delivers) and [`TernaryFrame`]: what the VAM emits.
//! * [`pixel`] — the 3T1PD pixel model, including a netlist builder that
//!   regenerates paper Fig. 8's transient waveforms with [`oisa_spice`].
//! * [`imager`] — the n×n global-shutter array with exposure and energy
//!   accounting.
//! * [`vam`] — dual sense-amplifier thresholding plus the NRZ VCSEL
//!   driver: [`vam::Vam::encode_capture`] is the sensing→photonics boundary.
//!
//! # Examples
//!
//! ```
//! use oisa_sensor::frame::Frame;
//! use oisa_sensor::imager::{Imager, ImagerConfig};
//! use oisa_sensor::vam::{Vam, VamConfig};
//!
//! # fn main() -> Result<(), oisa_sensor::SensorError> {
//! let frame = Frame::constant(8, 8, 0.7)?;
//! let imager = Imager::new(ImagerConfig::paper_default(8, 8))?;
//! let capture = imager.expose(&frame)?;
//! let vam = Vam::new(VamConfig::paper_default())?;
//! let encoded = vam.encode_capture(&capture)?;
//! assert_eq!(encoded.ternary.width(), 8);
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust. The SIMD layer
// (oisa_device) is the only sanctioned unsafe in the tree.
#![forbid(unsafe_code)]

pub mod fault;
pub mod frame;
pub mod imager;
pub mod pixel;
pub mod vam;

pub use frame::{Frame, TernaryFrame};

use std::fmt;

/// Errors from the sensing pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SensorError {
    /// A dimension or parameter was invalid.
    InvalidParameter(String),
    /// Frame and array dimensions do not agree.
    ShapeMismatch {
        /// What the operation expected.
        expected: (usize, usize),
        /// What it received.
        got: (usize, usize),
    },
    /// A device sub-model failed.
    Device(String),
}

impl fmt::Display for SensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            Self::Device(what) => write!(f, "device model error: {what}"),
        }
    }
}

impl std::error::Error for SensorError {}

impl From<oisa_device::DeviceError> for SensorError {
    fn from(e: oisa_device::DeviceError) -> Self {
        Self::Device(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SensorError>;
