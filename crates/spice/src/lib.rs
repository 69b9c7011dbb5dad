//! A minimal transient circuit simulator for verifying OISA's analog blocks.
//!
//! The OISA paper validates its pixel front-end, sense-amplifier
//! thresholding and Approximate Weight Converter (AWC) with Cadence
//! Spectre/HSPICE transient simulations (paper Figs. 4(b) and 8). This crate
//! re-implements the minimum viable subset of such a simulator:
//!
//! * **Modified nodal analysis (MNA)** with dense LU factorisation —
//!   adequate for the <50-node circuits in the paper.
//! * **Backward-Euler** transient integration (A-stable, no ringing on the
//!   switched circuits used here) with **Newton–Raphson** iteration for the
//!   nonlinear square-law MOSFET model.
//! * Element library: resistors, capacitors, independent voltage/current
//!   sources (DC, pulse, piecewise-linear), voltage-controlled switches and
//!   level-1 MOSFETs.
//!
//! # Examples
//!
//! An RC low-pass driven by a step, checked against the analytic response:
//!
//! ```
//! use oisa_spice::{Circuit, TransientAnalysis, Waveform};
//! use oisa_units::{Farad, Ohm, Second};
//!
//! # fn main() -> Result<(), oisa_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.vsource("VIN", vin, Circuit::GND, Waveform::dc(1.0))?;
//! ckt.resistor("R1", vin, vout, Ohm::from_kilo(1.0))?;
//! ckt.capacitor("C1", vout, Circuit::GND, Farad::from_nano(1.0))?;
//!
//! let trace = TransientAnalysis::new(Second::from_micro(5.0), Second::from_nano(10.0))
//!     .run(&ckt)?;
//! let final_v = trace.voltage("out")?.last().copied().unwrap();
//! assert!((final_v - 1.0).abs() < 1e-2); // ≈ fully charged after 5 τ
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

mod circuit;
mod dc;
mod elements;
mod linalg;
mod trace;
mod transient;
mod waveform;

pub use circuit::{Circuit, NodeId};
pub use dc::{dc_operating_point, dc_sweep, OperatingPoint};
pub use elements::{MosParams, MosType, SwitchParams};
pub use trace::Trace;
pub use transient::TransientAnalysis;
pub use waveform::Waveform;

use std::fmt;

/// Errors produced while building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// An element parameter was non-physical (negative resistance, zero
    /// timestep, …). Carries a human-readable description.
    InvalidParameter(String),
    /// A node name was referenced that has never been declared.
    UnknownNode(String),
    /// Two elements were registered under the same name.
    DuplicateElement(String),
    /// The MNA matrix was singular — usually a floating node or a loop of
    /// ideal voltage sources.
    SingularMatrix,
    /// Newton iteration failed to converge at the given simulation time
    /// (seconds).
    NonConvergent { time: f64 },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::UnknownNode(name) => write!(f, "unknown node `{name}`"),
            Self::DuplicateElement(name) => write!(f, "duplicate element `{name}`"),
            Self::SingularMatrix => write!(f, "singular MNA matrix (floating node?)"),
            Self::NonConvergent { time } => {
                write!(f, "newton iteration failed to converge at t = {time:.3e} s")
            }
        }
    }
}

impl std::error::Error for SpiceError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SpiceError>;
