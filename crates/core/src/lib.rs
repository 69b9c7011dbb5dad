//! The OISA architecture: the paper's contribution, assembled.
//!
//! This crate sits on top of the substrate crates and implements what the
//! paper actually proposes (§III):
//!
//! * [`mapping`] — **hardware mapping & bank allocation**: how kernel
//!   planes of size 3×3 / 5×5 / 7×7 are spread over 80 banks × 5 arms,
//!   how many AWC tuning iterations a full map takes (100 for all 4000
//!   rings), and how many cycles a convolution needs.
//! * [`controller`] — the command decoder / timing controller FSM that
//!   sequences capture → map → compute → transmit.
//! * [`perf`] — the calibrated performance and power model behind the
//!   paper's headline numbers (7.1 TOp/s at 55.8 ps per architecture-wide
//!   MAC, 6.68 TOp/s/W, 1.92 mm²) and the Fig. 9 platform comparison
//!   inputs.
//! * [`accelerator`] — [`OisaAccelerator`]: the end-to-end device that
//!   captures a frame, encodes it through the VAM, runs the first layer
//!   in the Optical Processing Core, and reports energy/latency.
//! * [`scheduler`] — the work-stealing scheduler behind the batched
//!   inference engine: `(frame, pass, row-band)` and dense-row work
//!   items drain across scoped worker threads with per-worker deques
//!   and back-steals, returning results in item order.
//! * [`serving`] — the async serving front end: frames are submitted
//!   to a queue from any thread, batches form on a deadline or a size
//!   bound, and a dedicated worker drives a [`backend`]; completion
//!   handles return per-request reports bit-identical to a sequential
//!   per-frame loop.
//! * [`backend`] — the unified execution seam: [`ComputeBackend`]
//!   executes [`wire::InferenceJob`]s and [`wire::ProgramJob`]s,
//!   either on this host ([`LocalBackend`]) or sharded across worker
//!   processes by the one coordinator, [`FleetSupervisor`] (one shard
//!   type for both), with bit-identical merges. The coordinator runs
//!   the fleet hands-off: interval health checks, quarantine → promote
//!   → re-plan failover mid-job (results stay bit-identical), a typed
//!   error with no state consumed when the last worker fails, and a
//!   transport that pushes its config on every connection, so
//!   heterogeneous workers adopt the coordinator's physics instead of
//!   refusing. The [`backend::tcp`] submodule makes
//!   the fleet genuinely multi-host: [`TcpTransport`] dials worker
//!   daemons ([`backend::TcpWorker`], wrapped by the `oisa_worker`
//!   binary) with connect/read timeouts, a connect-time handshake and
//!   jittered reconnect-with-backoff retry.
//! * [`program`] — layer programs: ordered `conv → quantize → dense →
//!   activation` stages executed per frame by any [`ComputeBackend`],
//!   with a steady-state prewarm that keeps sharded merges
//!   bit-identical ([`LayerProgram`]).
//! * [`wire`] — the versioned, length-prefixed binary schema those
//!   processes speak: seven messages under one schema version, strict
//!   decode errors.
//! * [`error`] — [`OisaError`], the one error type backend/serving
//!   callers handle; every layer's error folds in via `From`.
//! * [`deploy`] — the Table II bridge: converts the AWC→MR level tables
//!   into [`oisa_nn`] quantisers and swaps a trained model's first
//!   convolution for its OISA deployment wrapper.
//!
//! # Performance notes
//!
//! The parallel engines all run on one work-stealing runtime
//! ([`scheduler::execute`]), and all are bit-identical to their serial
//! oracles under a fixed seed:
//!
//! * **Convolution** — [`OisaAccelerator::convolve_frames`] stages
//!   each weight pass once per batch (not once per frame), forms each
//!   of the pass's arms' taps once through a per-code
//!   [`oisa_optics::arm::RingTable`], and
//!   work-steals `(frame, pass, row-band)` items so no worker idles at
//!   a frame boundary. Each frame keys its own counter-based noise
//!   epoch; the oracle is the per-frame
//!   [`OisaAccelerator::convolve_frame_sequential`] loop.
//!   [`OisaAccelerator::convolve_frame`] is its one-frame batch, so a
//!   layer program's conv stage and each channel of
//!   [`OisaAccelerator::convolve_channels`] run on it too.
//! * **Dense / MLP** — [`mlp::matvec_parallel`] fans rows out over the
//!   scheduler; each row task stages its row through one per-code
//!   [`oisa_optics::arm::RingTable`] into one byte per weight (code and
//!   sign) and evaluates every chunk from those bytes through the
//!   table's fused, check-free MAC — the one every convolution window
//!   runs — with two table lookups per tap instead of an arm re-tune,
//!   so rows never serialise on
//!   shared-fabric `load_arm` and keep no per-worker state. A layer
//!   program run ([`OisaAccelerator::run_program_frames`]) runs each
//!   stage once over all its frames: one batch conv call, and per dense
//!   stage one call that stages the matrix and forms each chunk's taps
//!   once for every frame. [`mlp::matvec`] is the oracle.
//! * **Served frames** — [`serving::ServingEngine`] queues frames that
//!   arrive over time and feeds the batch engine; the oracle is the
//!   same sequential per-frame loop, independent of how requests
//!   happened to batch.
//!
//! `rayon::set_num_threads` (or `RAYON_NUM_THREADS`) governs the worker
//! count of every engine; thread count never changes any result.
//!
//! # Examples
//!
//! ```
//! use oisa_core::{OisaAccelerator, OisaConfig};
//! use oisa_sensor::Frame;
//!
//! # fn main() -> Result<(), oisa_core::CoreError> {
//! let mut accel = OisaAccelerator::new(OisaConfig::small_test())?;
//! let frame = Frame::constant(16, 16, 0.8)?;
//! let kernels = vec![vec![0.25f32; 9], vec![-0.5f32; 9]];
//! let report = accel.convolve_frame(&frame, &kernels, 3)?;
//! assert_eq!(report.output.len(), 2); // one feature map per kernel
//! assert!(report.energy.compute.get() > 0.0);
//! # Ok(())
//! # }
//! ```

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]
// Every public item of the architecture crate documents itself; CI's
// docs step builds with `RUSTDOCFLAGS=-D warnings`, which turns any
// missing doc on this crate's public API into a build failure.
#![warn(missing_docs)]

pub mod accelerator;
pub mod backend;
pub mod controller;
pub mod deploy;
pub mod error;
pub mod mapping;
pub mod mlp;
pub mod perf;
pub mod program;
pub mod scheduler;
pub mod serving;
pub mod wire;

pub use accelerator::{ConvolutionReport, OisaAccelerator, OisaConfig, OisaConfigBuilder};
pub use backend::{
    ComputeBackend, FleetSupervisor, LocalBackend, ShardTransport, SupervisorOptions, TcpTransport,
    TcpTransportConfig, TcpWorker,
};
pub use error::OisaError;
pub use mapping::{ConvWorkload, MappingPlan};
pub use perf::{OisaPerfModel, PowerBreakdown};
pub use program::{
    ActivationKind, LayerProgram, ProgramFrameReport, QuantizeKind, Stage, StageReport,
};
pub use serving::{ServingConfig, ServingEngine, ServingStats};
pub use wire::{InferenceJob, ProgramJob};

use std::fmt;

/// Errors from the architecture layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration or argument was invalid.
    InvalidParameter(String),
    /// A workload cannot be mapped onto the configured OPC.
    Unmappable(String),
    /// A substrate crate failed.
    Substrate(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Self::Unmappable(what) => write!(f, "workload cannot be mapped: {what}"),
            Self::Substrate(what) => write!(f, "substrate error: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<oisa_optics::OpticsError> for CoreError {
    fn from(e: oisa_optics::OpticsError) -> Self {
        Self::Substrate(e.to_string())
    }
}

impl From<oisa_sensor::SensorError> for CoreError {
    fn from(e: oisa_sensor::SensorError) -> Self {
        Self::Substrate(e.to_string())
    }
}

impl From<oisa_device::DeviceError> for CoreError {
    fn from(e: oisa_device::DeviceError) -> Self {
        Self::Substrate(e.to_string())
    }
}

impl From<oisa_memory::MemoryError> for CoreError {
    fn from(e: oisa_memory::MemoryError) -> Self {
        Self::Substrate(e.to_string())
    }
}

impl From<oisa_nn::NnError> for CoreError {
    fn from(e: oisa_nn::NnError) -> Self {
        Self::Substrate(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
pub(crate) mod test_sync {
    /// `rayon::set_num_threads` mutates a process-global, and the test
    /// harness runs this crate's tests concurrently — so *every* test
    /// in this crate that sets a thread count must hold this lock for
    /// its whole body. Mutators that skip it can break count-dependent
    /// assertions in a concurrently running guarded test.
    pub fn thread_count_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
