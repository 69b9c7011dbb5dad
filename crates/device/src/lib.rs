//! Photonic and analog device models for the OISA accelerator.
//!
//! The OISA paper builds its architecture on a small set of devices, each
//! of which this crate models at the level of detail the architecture
//! actually consumes:
//!
//! * [`mr`] — add-drop **microring resonators** (R = 5 µm, Q ≈ 5000,
//!   4-bit effective weight resolution, hybrid thermo-/electro-optic
//!   tuning), the multiplicative element of the Optical Processing Core.
//! * [`vcsel`] — **VCSELs** with an L-I curve and a non-return-to-zero
//!   bias floor, used by the activation (VAM) and output (VOM) modulators.
//! * [`photodiode`] — PIN photodiodes and the **balanced photodetector**
//!   that performs signed optical summation at the end of each arm.
//! * [`sense_amp`] — the clocked **sense amplifiers** whose two reference
//!   voltages realise the ternary activation encoding.
//! * [`awc`] — the **Approximate Weight Converter**, a binary-weighted
//!   MOSFET current ladder replacing a power-hungry DAC; includes the
//!   mismatch model responsible for the paper's accuracy dip at 4-bit
//!   weights, and a netlist builder for transient co-simulation with
//!   [`oisa_spice`].
//! * [`waveguide`] — propagation/coupling losses and WDM channel plans.
//! * [`noise`] — shot/thermal noise helpers shared by the optics crates.
//!
//! # Examples
//!
//! Weight a wavelength with a tuned microring:
//!
//! ```
//! use oisa_device::mr::{Microring, MrDesign};
//!
//! # fn main() -> Result<(), oisa_device::DeviceError> {
//! let design = MrDesign::paper_default();
//! let mut ring = Microring::new(design)?;
//! ring.tune_to_weight(0.5, 4)?; // target transmission 0.5 at 4-bit resolution
//! let t = ring.through_transmission_at_resonance();
//! assert!((t - 0.5).abs() < 0.1); // quantised to the nearest of 16 levels
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

pub mod awc;
pub mod mr;
pub mod noise;
pub mod photodiode;
pub mod sense_amp;
pub mod vcsel;
pub mod waveguide;

use std::fmt;

/// Errors produced by device model construction or operation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeviceError {
    /// A constructor argument was outside its physical range.
    InvalidParameter(String),
    /// A requested operating point cannot be reached by the device (e.g. a
    /// weight level beyond the converter's resolution).
    OutOfRange(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::OutOfRange(what) => write!(f, "operating point out of range: {what}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DeviceError>;
