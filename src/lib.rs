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
//! this host; [`core::backend::ShardedBackend`] splits each job's
//! frames into `(frame, epoch)` ranges, ships them to worker
//! processes over the versioned wire schema ([`core::wire`]) and
//! merges the reports **bit-identically** to one sequential loop —
//! `examples/multi_node.rs` is the runnable coordinator/worker pair.
//!
//! ```
//! use oisa::core::backend::{ComputeBackend, ShardedBackend};
//! use oisa::core::wire::InferenceJob;
//! use oisa::core::OisaConfig;
//! use oisa::sensor::Frame;
//!
//! # fn main() -> Result<(), oisa::core::OisaError> {
//! let mut backend = ShardedBackend::in_process(OisaConfig::small_test(), 2)?;
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
//! For hands-off operation, wrap the fleet in a
//! [`core::backend::FleetSupervisor`] instead of driving a
//! `ShardedBackend` directly. The supervisor health-checks idle
//! workers on an interval, and when a worker dies mid-job it
//! quarantines the endpoint, promotes a spare (or re-plans the
//! remaining shards across the survivors when the bench is empty) and
//! finishes the job — the merged reports stay bit-identical to the
//! sequential loop, so failover is invisible in the results. With
//! [`core::backend::SupervisorOptions::push_config_to_spares`] set,
//! admission pushes the coordinator's full `OisaConfig` over the wire
//! (schema v3 `Configure`), so spares started with different physics
//! converge instead of refusing shards.
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
//! over the frame axis: inter-stage tensors never cross the wire, and
//! a steady-state prewarm on every shard keeps the merged reports
//! bit-identical to one sequential forward
//! ([`core::program::run_reference`] is the oracle).
//! `examples/autoencoder.rs` is the runnable drill: encode on sharded
//! workers, ship only latent codes, decode at the coordinator.
//!
//! ```
//! use oisa::core::backend::{ComputeBackend, ShardedBackend};
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
//! let mut backend = ShardedBackend::in_process(config, 2)?;
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
//!   [`core::OisaAccelerator::convolve_frame`] (parallel over output
//!   rows) bit-identical to `convolve_frame_sequential` under a fixed
//!   seed, on any thread count. Gaussians come from a 128-layer
//!   ziggurat: the common case is one SplitMix64 finalisation, one
//!   table compare and one multiply.
//! * **Precomputed arm constants, rail-moment noise and the fixed
//!   4-lane fold** ([`optics::arm::Arm`]). Inter-channel crosstalk,
//!   waveguide loss, detector full-scale and dwell time depend only on
//!   the loaded weights and geometry, so `Arm::load_weights` folds them
//!   into per-ring gains. VCSEL RIN and ring drift enter through each
//!   detector rail's closed-form mean and variance: `Arm::snapshot`
//!   computes every tap's two rail coefficients once per staged pass,
//!   and `ArmSnapshot::mac_indexed`, the fused allocation-free MAC the
//!   inner loop calls, draws three Gaussians per MAC: one per rail and
//!   one for the detector.
//!   `Arm::mac_reference` keeps the pre-optimisation cost profile as
//!   the benchmark baseline. Every MAC path folds its rail moments
//!   into 4 fixed lanes reduced through one canonical tree — reduction
//!   order is part of the wire-level bit-identity guarantee (see the
//!   performance notes in `optics::arm`). The `simd` cargo feature
//!   (default on) enables runtime-dispatched AVX2/AVX-512 kernels for
//!   the batched `gaussian_at_lanes` draw; no MAC path calls it, so
//!   outputs and MAC timings do not depend on the feature.
//! * **Flat, row-parallel pass buffers with streamed weight staging**
//!   ([`core::OisaAccelerator::convolve_frame`]). Windows gather into a
//!   stack scratch array, each pass writes one flat `[row][slot][x]`
//!   buffer whose rows are distributed over worker threads (a
//!   `std::thread::scope`-backed rayon subset in offline builds), and
//!   per-row energy partials are reduced in row order so reports are
//!   reproducible bit-for-bit. On multi-pass workloads (more kernels
//!   than fabric slots) the parallel engine double-buffers staging:
//!   pass `N + 1` quantises, tunes and snapshots on the calling thread
//!   while pass `N`'s rows drain through the work-stealing pool
//!   (`core::scheduler::execute_overlapped`), with tuning energy still
//!   charged in strict pass order.
//!
//! Benchmarks: `cargo bench -p oisa_bench` runs the microbenchmarks
//! (`arm_mac_indexed_9tap`, `mac_core_{72,256,1024}_rings`,
//! `gaussian_at_lanes`, `staging_overlap_32x32_multipass`,
//! `oisa_convolve_frame_128x128_16k`, …);
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
//! taint into the wire codec, and the crate layering DAG. See
//! `crates/lint/README.md` for the rule catalogue and analysis model.

// No unsafe: this crate must stay entirely safe Rust. The SIMD layer
// (oisa_device) is the only sanctioned unsafe in the tree.
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
