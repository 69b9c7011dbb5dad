//! CACTI-like memory macro models for OISA and its baselines.
//!
//! The paper estimates its **kernel banks** with CACTI \[27\], the ASIC
//! baseline's eDRAM with CACTI, and AppCiP's non-volatile arrays with
//! NVSim \[28\]. None of those tools exist in this offline Rust workspace,
//! so this crate provides analytical stand-ins calibrated to published
//! outputs of those tools at 45/65 nm (see `model::MemoryMacro` for the
//! scaling laws and calibration points).
//!
//! * [`model`] — [`model::MemoryMacro`]: per-access energy, latency,
//!   leakage and area for SRAM / eDRAM / NVM macros.
//! * [`bank`] — [`bank::KernelBank`]: the weight-code store feeding the
//!   AWC row, with access-energy accounting.
//!
//! # Examples
//!
//! ```
//! use oisa_memory::model::{MemoryKind, MemoryMacro};
//!
//! # fn main() -> Result<(), oisa_memory::MemoryError> {
//! let bank = MemoryMacro::new(MemoryKind::Sram, 45, 2048, 16)?;
//! assert!(bank.read_energy().as_femto() > 1.0);
//! assert!(bank.leakage_power().get() > 0.0);
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust. The SIMD layer
// (oisa_device) is the only sanctioned unsafe in the tree.
#![forbid(unsafe_code)]

pub mod bank;
pub mod model;

use std::fmt;

/// Errors from memory model construction or use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MemoryError {
    /// A design parameter was out of range.
    InvalidParameter(String),
    /// An address or slot index was out of range.
    OutOfBounds {
        /// The requested index.
        index: usize,
        /// Number of valid slots.
        len: usize,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for {len} slots")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MemoryError>;
