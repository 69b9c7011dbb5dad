//! The Optical Processing Core (OPC) of OISA.
//!
//! Physical compute fabric of the accelerator (paper §III-A and Fig. 6):
//!
//! * an [`arm::Arm`] holds **10 microrings** on a pair of waveguides (one
//!   for positive, one for negative weights) terminated by a balanced
//!   photodetector — one arm evaluates one ≤10-element signed dot product
//!   per optical symbol;
//! * a [`bank::Bank`] groups **5 arms** (50 MRs);
//! * the [`opc::Opc`] is the full hierarchy — **80 banks in 4 columns**
//!   (4000 MRs), fed by **40 AWC units** that program one 40-MR row per
//!   tuning iteration;
//! * the [`vom::Vom`] re-aggregates per-arm partial sums when a kernel is
//!   larger than one arm (5×5, 7×7, MLP layers).
//!
//! Weight values enter through the [`weights::WeightMapper`], which chains
//! the AWC ladder's (approximate) current levels into ring detunings —
//! this is where the paper's 1–4-bit weight quantisation, including the
//! 4-bit mismatch dip, physically happens.
//!
//! # Examples
//!
//! One 3×3 kernel stride on one arm (paper Fig. 5(c)):
//!
//! ```
//! use oisa_optics::arm::{Arm, ArmConfig};
//! use oisa_optics::weights::WeightMapper;
//! use oisa_device::noise::{NoiseConfig, NoiseSource};
//!
//! # fn main() -> Result<(), oisa_optics::OpticsError> {
//! let mapper = WeightMapper::ideal(3)?;
//! let mut arm = Arm::new(ArmConfig::paper_default())?;
//! let kernel = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
//! arm.load_weights(&kernel, &mapper)?;
//! let activations = [1.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0];
//! let mut noise = NoiseSource::seeded(1, NoiseConfig::noiseless());
//! let out = arm.mac(&activations, &mut noise)?;
//! let exact: f64 = kernel.iter().zip(&activations).map(|(w, a)| w * a).sum();
//! assert!((out.value - exact).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

pub mod arm;
pub mod bank;
pub mod fault;
pub mod opc;
pub mod resolution;
pub mod thermal;
pub mod vom;
pub mod weights;

use std::fmt;

/// Errors from the optical fabric.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpticsError {
    /// A configuration parameter was invalid.
    InvalidParameter(String),
    /// More elements were supplied than the structure can hold.
    CapacityExceeded {
        /// Maximum the structure supports.
        capacity: usize,
        /// What was requested.
        requested: usize,
    },
    /// An index referenced a non-existent bank/arm/ring.
    IndexOutOfRange(String),
    /// A device sub-model failed.
    Device(String),
}

impl fmt::Display for OpticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::CapacityExceeded {
                capacity,
                requested,
            } => write!(
                f,
                "capacity exceeded: requested {requested}, capacity {capacity}"
            ),
            Self::IndexOutOfRange(what) => write!(f, "index out of range: {what}"),
            Self::Device(what) => write!(f, "device model error: {what}"),
        }
    }
}

impl std::error::Error for OpticsError {}

impl From<oisa_device::DeviceError> for OpticsError {
    fn from(e: oisa_device::DeviceError) -> Self {
        Self::Device(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OpticsError>;
