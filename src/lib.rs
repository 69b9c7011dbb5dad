//! # OISA — Optical In-Sensor Accelerator (reproduction)
//!
//! Facade crate for the device-to-architecture simulation stack reproducing
//! *OISA: Architecting an Optical In-Sensor Accelerator for Efficient Visual
//! Computing* (DATE 2024). Each subsystem lives in its own crate; this crate
//! re-exports them under one roof so examples and downstream users can write
//! `use oisa::...`.
//!
//! # Quickstart
//!
//! ```
//! use oisa::core::{OisaAccelerator, OisaConfig};
//! use oisa::sensor::Frame;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut accel = OisaAccelerator::new(OisaConfig::default())?; // 16×16 test imager
//! let frame = Frame::constant(16, 16, 0.5)?;
//! let weights = vec![vec![0.5f32; 9]; 4]; // four 3x3 kernels
//! let report = accel.convolve_frame(&frame, &weights, 3)?;
//! assert_eq!(report.output.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! # Scaling out
//!
//! Execution is abstracted behind [`core::backend::ComputeBackend`]:
//! the serving engine ([`core::serving::ServingEngine`]) batches
//! submissions into [`core::wire::InferenceJob`]s and drives whichever
//! backend it fronts. [`core::backend::LocalBackend`] runs jobs on
//! this host; [`core::backend::FleetSupervisor`], the coordinator,
//! splits each job's frames into `(frame, epoch)` ranges, ships them to
//! worker processes over the versioned wire schema ([`core::wire`]) —
//! a conv job as the one-stage layer program `[Stage::Conv]`, in the
//! same shard message as any program — and merges the reports
//! **bit-identically** to one sequential loop —
//! `examples/multi_node.rs` is the runnable coordinator/worker pair.
//!
//! ```
//! use oisa::core::backend::{ComputeBackend, FleetSupervisor};
//! use oisa::core::wire::InferenceJob;
//! use oisa::core::OisaConfig;
//! use oisa::sensor::Frame;
//!
//! # fn main() -> Result<(), oisa::core::OisaError> {
//! let mut backend = FleetSupervisor::in_process(OisaConfig::small_test(), 2)?;
//! let job = InferenceJob {
//!     job_id: 1,
//!     k: 3,
//!     kernels: vec![vec![0.5f32; 9]],
//!     frames: vec![Frame::constant(16, 16, 0.7)?; 4],
//! };
//! assert_eq!(backend.run_job(&job)?.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! # Supervised fleets
//!
//! The coordinator runs its fleet hands-off. It health-checks the
//! workers on an interval, and when a worker dies mid-job it
//! quarantines the endpoint, promotes a spare (or re-plans the
//! remaining shards across the survivors when the bench is empty) and
//! finishes the job — the merged reports stay bit-identical to the
//! sequential loop, so failover is invisible in the results. Only when
//! the last worker fails does the job return that worker's typed error,
//! having consumed no coordinator state, so a retry merges
//! bit-identically. A worker started with different physics joins
//! through [`core::backend::TcpTransport::connect_with_config`], which
//! opens every connection, reconnects included, with the coordinator's
//! full `OisaConfig` (a `Configure` message), so the worker converges
//! instead of refusing shards.
//!
//! ```
//! use oisa::core::backend::{
//!     ComputeBackend, FleetSupervisor, InProcessWorker, ShardTransport, SupervisorOptions,
//! };
//! use oisa::core::wire::InferenceJob;
//! use oisa::core::OisaConfig;
//! use oisa::sensor::Frame;
//!
//! # fn main() -> Result<(), oisa::core::OisaError> {
//! let config = OisaConfig::small_test();
//! let active: Vec<Box<dyn ShardTransport>> = vec![
//!     Box::new(InProcessWorker::new(config)),
//!     Box::new(InProcessWorker::new(config)),
//! ];
//! let spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(InProcessWorker::new(config))];
//! let mut fleet = FleetSupervisor::new(config, active, spares, SupervisorOptions::default())?;
//! let job = InferenceJob {
//!     job_id: 1,
//!     k: 3,
//!     kernels: vec![vec![0.5f32; 9]],
//!     frames: vec![Frame::constant(16, 16, 0.7)?; 4],
//! };
//! assert_eq!(fleet.run_job(&job)?.len(), 4);
//! assert_eq!(fleet.status().spares, 1); // nobody died; the bench is untouched
//! # Ok(())
//! # }
//! ```
//!
//! # Running a whole model
//!
//! One conv pass set per job is the paper's first-layer story; a
//! [`core::program::LayerProgram`] runs a whole edge model. A program
//! is an ordered stage list — conv (the optical path) → quantize →
//! dense ([`core::mlp`]) → activation — validated up front (shape and
//! value-range inference), executed per frame by **any**
//! [`core::backend::ComputeBackend`] via `run_program`, and sharded
//! over the frame axis: no inter-stage tensor moves between workers,
//! and a steady-state prewarm on every shard keeps the merged reports
//! bit-identical to one sequential forward
//! ([`core::program::run_reference`] is the oracle).
//! `examples/autoencoder.rs` is the runnable drill: encode on sharded
//! workers, decode the latent codes at the coordinator. Each shard
//! still ships the whole program and the frames' pixels, and each
//! reply the conv feature maps next to the latents (ARCHITECTURE.md).
//!
//! ```
//! use oisa::core::backend::{ComputeBackend, FleetSupervisor};
//! use oisa::core::program::{run_reference, LayerProgram};
//! use oisa::core::wire::ProgramJob;
//! use oisa::core::OisaConfig;
//! use oisa::sensor::Frame;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = OisaConfig::small_test();
//! // conv 2×3×3 → ternary quantize → dense → ReLU: a 4-float latent
//! // code per frame instead of feature maps.
//! let program = LayerProgram::autoencoder(16, 16, 2, 4, 7)?;
//! let frames = vec![Frame::constant(16, 16, 0.6)?; 3];
//!
//! let mut backend = FleetSupervisor::in_process(config, 2)?;
//! let job = ProgramJob { job_id: 1, program: program.clone(), frames: frames.clone() };
//! let reports = backend.run_program(&job)?;
//!
//! assert_eq!(reports[0].output.len(), 4); // the latent code
//! // Sharding is invisible: bit-identical to one sequential forward.
//! assert_eq!(reports, run_reference(&config, 0, &program, &frames)?);
//! # Ok(())
//! # }
//! ```

//! # Performance notes
//!
//! The convolution hot path is engineered to run at the host's memory
//! and ALU speed; the design decisions live in three layers:
//!
//! * **Counter-based noise streams**
//!   ([`device::noise::NoiseStream`]). Every `(kernel, output position)`
//!   pair owns an addressed stream keyed by
//!   `(seed, frame epoch, slot, position)`; a draw depends only on its
//!   counter, never on evaluation order. This is what makes
//!   [`core::OisaAccelerator::convolve_frame`] (a one-frame batch of
//!   the parallel engine) bit-identical to `convolve_frame_sequential`
//!   under a fixed seed, on any thread count. Gaussians come from a
//!   128-layer ziggurat: the common case is one SplitMix64
//!   finalisation, one table compare and one multiply.
//! * **Precomputed arm constants, rail-moment noise and the fixed
//!   4-lane fold** ([`optics::arm::Arm`]). Inter-channel crosstalk,
//!   waveguide loss, detector full-scale and dwell time depend only on
//!   the loaded weights and geometry, so `Arm::load_weights` folds them
//!   into per-ring gains. VCSEL RIN and ring drift enter through each
//!   detector rail's closed-form mean and variance. The engines never
//!   read an arm: a ring's state depends only on its weight's code, so
//!   a per-code `RingTable` holds every code's rail coefficients and
//!   every neighbour pair's gain, a conv pass forms each arm's taps
//!   from it once (`RingTable::taps`), and `RingTable::fused_mac`, the
//!   fused allocation-free MAC every conv window and dense chunk runs,
//!   draws three Gaussians per MAC: one per rail and one for the
//!   detector.
//!   `Arm::mac_reference`, the pre-optimisation MAC that re-derives
//!   every constant per call, is the MAC of the serial conv oracle,
//!   which shares no hot-loop code with the engine. Every MAC path
//!   folds its rail moments into 4 fixed lanes reduced through one
//!   canonical tree — reduction order is part of the wire-level
//!   bit-identity guarantee (see the performance notes in
//!   `optics::arm`). The fold is plain scalar code and the workspace
//!   holds no `unsafe`.
//! * **One parallel conv engine that writes each value once**
//!   ([`core::OisaAccelerator::convolve_frames`]). Each weight pass is
//!   staged once per batch, windows gather into a stack scratch array,
//!   and `(frame, pass, row-band)` items drain over the work-stealing
//!   scheduler (`core::scheduler`), each writing its windows' values
//!   straight into its band's rows of the feature maps the report
//!   returns. Per-row energy partials are
//!   reduced in `(frame, pass, row)` order so reports are reproducible
//!   bit-for-bit. `convolve_frame` is the engine's one-frame batch.
//!
//! Benchmarks: oisabench (`oisabench/`, the repository's wall-clock
//! benchmark) times the hot paths in its traced run (`--trace 1`:
//! `optics.host_ns_per_ring_mac`, `mlp.host_ns_per_mac`, …);
//! `cargo run --release -p oisa_bench --bin perf_json` emits one
//! machine-readable `BENCH JSON` line comparing the optimised pipeline
//! against the pre-optimisation reference (≥ 5× on the 128×128,
//! 16-kernel acceptance workload) plus the im2col-vs-naive digital
//! `Conv2d` ratio, so CI can track the perf trajectory.
//!
//! # Checking a working tree
//!
//! The invariants above (bit-identical merges, counter-based
//! determinism, centralized spawning) are enforced structurally by the
//! in-tree checker **oisa-lint v2**
//! (`cargo run --release -p oisa_lint --bin oisa-lint`): on top of the
//! per-file token rules it parses every item, builds an approximate
//! cross-crate call graph, and checks lock-acquisition order, panic
//! reachability from the serving entry points, wall-clock/entropy
//! taint into the wire codec, and the crate layering DAG. It also
//! reports library API that nothing outside its crate names. See
//! `crates/lint/README.md` for the rule catalogue and analysis model.

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

/// Physical-quantity newtypes (volts, watts, seconds, …).
pub use oisa_units as units;

/// Mini MNA transient circuit simulator used for analog verification.
pub use oisa_spice as spice;

/// Photonic and analog device models (MR, VCSEL, BPD, SA, AWC).
pub use oisa_device as device;

/// ADC-less imager and VCSEL activation modulator.
pub use oisa_sensor as sensor;

/// Optical Processing Core: arms, banks, WDM, VOM.
pub use oisa_optics as optics;

/// CACTI-like SRAM/eDRAM and NVSim-like NVM models.
pub use oisa_memory as memory;

/// Tensor/CNN framework with backprop and quantizers.
pub use oisa_nn as nn;

/// Seeded procedural datasets for accuracy studies.
pub use oisa_datasets as datasets;

/// The paper's contribution: mapping, timing, energy and the end-to-end
/// accelerator.
pub use oisa_core as core;

/// Comparison platforms (Crosslight-like, AppCiP-like, ASIC).
pub use oisa_baselines as baselines;
