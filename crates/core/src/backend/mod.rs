//! The unified execution API: [`ComputeBackend`] and its two
//! implementations.
//!
//! Everything above the accelerator — the serving engine, the bench
//! harness, future transports — talks to *a thing that executes
//! jobs*, not to an [`OisaAccelerator`] directly:
//!
//! * [`LocalBackend`] — wraps one accelerator and runs jobs on the
//!   calling host: conv jobs through the batched engine
//!   ([`OisaAccelerator::convolve_frames`]), programs through
//!   [`run_program_frames`](OisaAccelerator::run_program_frames).
//! * [`FleetSupervisor`] — the coordinator: it splits each job's
//!   frames into contiguous `(frame, epoch)` ranges, ships them as
//!   length-prefixed [`ProgramShard`] [`wire`] messages to workers
//!   (in-process for tests/bench, separate OS processes in
//!   `examples/multi_node.rs`, remote hosts over [`TcpTransport`] —
//!   anything implementing [`ShardTransport`]), merges the
//!   [`ProgramReport`]s in frame order, and heals the fleet when a
//!   worker fails ([`supervisor`]). A conv [`InferenceJob`] travels as
//!   the one-stage program `[Stage::Conv { k, kernels }]`, so both job
//!   kinds share one shard type, one worker entry point
//!   ([`execute_program_shard`]) and one failure path.
//!
//! The [`tcp`] submodule holds the multi-host deployment pieces: the
//! [`TcpTransport`] coordinator side (connect/read timeouts, reconnect
//! with backoff, a connect-time [`wire::Handshake`]) and the
//! [`TcpWorker`] accept-loop daemon the `oisa_worker` binary wraps.
//!
//! # The determinism contract
//!
//! Any backend built from config `C` produces, across its lifetime of
//! `run_job` calls, a report stream **bit-identical** (outputs, energy,
//! timeline — every field) to one fresh accelerator built from `C`
//! running `convolve_frame_sequential` over the concatenated frames in
//! order; program jobs match [`crate::program::run_reference`] the
//! same way. Worker count, shard boundaries and transport move wall
//! clock, never physics. Three mechanisms carry the guarantee across
//! process boundaries:
//!
//! 1. **Epoch alignment** — frame `i` of the stream always computes
//!    under its own noise epochs: a program consumes
//!    [`epochs_per_frame`](crate::program::LayerProgram::epochs_per_frame)
//!    (one per optical stage) per frame, so a shard starting at job
//!    frame `i` carries `first_epoch = base + i · E` and the worker
//!    fast-forwards a fresh accelerator to it
//!    ([`OisaAccelerator::align_noise_epoch`]).
//! 2. **Fabric entry state** — ring-tuning and kernel-bank energies
//!    depend on what the fabric held *before* a frame, so a shard
//!    carries a [`FabricEntry`](wire::FabricEntry) the worker stages
//!    first. Program-job shards, and conv-job shards but the first,
//!    carry `WarmSelf`: the program's own steady state
//!    ([`OisaAccelerator::prewarm_program`]), exactly what the
//!    sequential loop's fabric holds mid-stream. A conv job's first
//!    shard replays what the previous job left staged — `Cold`,
//!    `WarmSelf` or `Warm` — because [`LocalBackend::run_job`] carries
//!    that history too.
//! 3. **Config fingerprinting** — every shard carries
//!    [`OisaConfig::fingerprint`]; a worker refuses shards from a
//!    coordinator whose physics differ.
//!
//! Because workers are *stateless per shard*, a failed job consumes no
//! coordinator state: a job only advances the epoch cursor after every
//! shard merged, so a retry re-executes identically. Before merging,
//! the coordinator checks every frame report of a reply against the
//! program (stage count and kinds, conv map count and size, dense and
//! final output lengths) and fails the job with
//! [`OisaError::Backend`] on any mismatch.
//!
//! One caveat bounds the contract: the coordinator reproduces fabric
//! history **one job deep** (the previous job's kernel set travels in
//! `FabricEntry::Warm`). Feature maps are always exact — noise
//! depends only on epochs — but if a job stages an arm that the
//! *immediately previous* job left untouched while some older job had
//! loaded it, that arm's tuning energy reads from a pristine operating
//! point instead of the deep history. Fixed or non-growing kernel sets
//! (every serving deployment: the kernel set is pinned at engine
//! construction) never hit this. After a program job the coordinator
//! records the program's kernel set as staged only when the program
//! has no dense stage (dense stages re-tune arms the entry states do
//! not model); otherwise the next conv job enters cold — the same
//! one-job-deep energy caveat, with feature maps exact either way.

use std::io::{Read, Write};

use crate::accelerator::{kernel_set_error, ConvolutionReport, OisaAccelerator, OisaConfig};
use crate::error::OisaError;
use crate::mapping::{ConvWorkload, MappingPlan};
use crate::program::{LayerProgram, ProgramFrameReport, Stage};
use crate::wire::{
    self, InferenceJob, ProgramJob, ProgramReport, ProgramShard, RefusalCode, ShardRefusal,
    WireMessage,
};
use crate::CoreError;
use oisa_sensor::frame::Frame;

pub mod supervisor;
pub mod tcp;

pub use supervisor::{FleetStatus, FleetSupervisor, QuarantineEvent, SupervisorOptions};
pub use tcp::{TcpTransport, TcpTransportConfig, TcpWorker, TcpWorkerHandle, WorkerOptions};

/// Result alias for backend operations.
pub type BackendResult<T> = std::result::Result<T, OisaError>;

/// Something that executes [`InferenceJob`]s — the seam between "submit
/// frames" and "who executes them".
///
/// See the module docs for the determinism contract implementations
/// must uphold.
///
/// # Examples
///
/// Code written against the trait runs unchanged on one host or a
/// fleet — here, the same job through both built-in backends:
///
/// ```
/// use oisa_core::backend::{ComputeBackend, FleetSupervisor, LocalBackend};
/// use oisa_core::wire::InferenceJob;
/// use oisa_core::OisaConfig;
/// use oisa_sensor::Frame;
///
/// fn run(backend: &mut dyn ComputeBackend) -> Result<usize, oisa_core::OisaError> {
///     let job = InferenceJob {
///         job_id: 1,
///         k: 3,
///         kernels: vec![vec![0.5f32; 9]],
///         frames: vec![Frame::constant(16, 16, 0.6)?],
///     };
///     Ok(backend.run_job(&job)?.len())
/// }
///
/// # fn main() -> Result<(), oisa_core::OisaError> {
/// let cfg = OisaConfig::small_test();
/// assert_eq!(run(&mut LocalBackend::new(cfg)?)?, 1);
/// assert_eq!(run(&mut FleetSupervisor::in_process(cfg, 2)?)?, 1);
/// # Ok(())
/// # }
/// ```
pub trait ComputeBackend: Send {
    /// The physics configuration this backend executes under.
    fn config(&self) -> &OisaConfig;

    /// Executes one job, returning one report per frame in frame order.
    ///
    /// # Errors
    ///
    /// [`OisaError`] on validation, substrate, wire or transport
    /// failure. Implementations must not advance observable state on
    /// error, so callers can retry.
    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>>;

    /// Executes one multi-stage [`ProgramJob`], returning one
    /// [`ProgramFrameReport`] per frame in frame order. Same
    /// determinism contract as [`ComputeBackend::run_job`], with the
    /// program semantics of the module docs.
    ///
    /// The provided implementation refuses: a backend must opt in to
    /// programs, so conv-only test doubles keep compiling
    /// and fail loudly rather than half-executing.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] from the provided implementation;
    /// validation, substrate, wire or transport failures from
    /// overrides. Implementations must not advance observable state on
    /// error, so callers can retry.
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        let _ = job;
        Err(OisaError::Backend(
            "this backend does not support layer programs".into(),
        ))
    }

    /// Frame dimensions (width, height) this backend accepts.
    fn frame_dims(&self) -> (usize, usize) {
        let imager = self.config().imager;
        (imager.width, imager.height)
    }

    /// Validates that a kernel set holds only finite weights and maps
    /// onto this backend's OPC and imager — the up-front check front
    /// ends run at construction so a workload no frame could run fails
    /// before the first frame arrives.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::Unmappable`]
    /// (wrapped in [`OisaError::Core`]) exactly as the execution path
    /// would report them.
    fn check_workload(&self, kernels: &[Vec<f32>], k: usize) -> BackendResult<()> {
        if let Some(reason) = kernel_set_error(kernels, k) {
            return Err(CoreError::InvalidParameter(reason).into());
        }
        let config = self.config();
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: config.imager.height,
            input_w: config.imager.width,
            stride: 1,
        };
        MappingPlan::compute(&workload, &config.opc)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// LocalBackend
// ---------------------------------------------------------------------

/// Single-host backend: one [`OisaAccelerator`] executing jobs through
/// the batched engine. Epochs and fabric state carry across jobs
/// naturally, because the same accelerator runs every one of them.
#[derive(Debug)]
pub struct LocalBackend {
    accel: OisaAccelerator,
}

impl LocalBackend {
    /// Builds a backend from a fresh accelerator.
    ///
    /// # Errors
    ///
    /// Propagates [`OisaAccelerator::new`] failures.
    pub fn new(config: OisaConfig) -> BackendResult<Self> {
        Ok(Self {
            accel: OisaAccelerator::new(config)?,
        })
    }

    /// Wraps an existing accelerator. The determinism contract (module
    /// docs) is stated from a *fresh* accelerator; wrapping one with
    /// history simply continues that history.
    #[must_use]
    pub fn from_accelerator(accel: OisaAccelerator) -> Self {
        Self { accel }
    }

    /// Shared view of the wrapped accelerator.
    #[must_use]
    pub fn accelerator(&self) -> &OisaAccelerator {
        &self.accel
    }

    /// Exclusive view of the wrapped accelerator (e.g. to run a
    /// non-job workload between jobs).
    pub fn accelerator_mut(&mut self) -> &mut OisaAccelerator {
        &mut self.accel
    }

    /// Hands the accelerator back (after a serving shutdown, in
    /// exactly the state the sequential loop would have left it).
    #[must_use]
    pub fn into_accelerator(self) -> OisaAccelerator {
        self.accel
    }
}

impl ComputeBackend for LocalBackend {
    fn config(&self) -> &OisaConfig {
        self.accel.config()
    }

    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        self.accel
            .convolve_frames(&job.frames, &job.kernels, job.k)
            .map_err(Into::into)
    }

    /// [`run_program_frames`](crate::accelerator::OisaAccelerator::run_program_frames):
    /// one prewarm (so reports are history-independent, matching the
    /// sequential reference and any sharded merge), then the
    /// stage-major program loop.
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        validate_job(self, &job.program, &job.frames)?;
        Ok(self.accel.run_program_frames(&job.program, &job.frames)?)
    }
}

/// Validation every job path runs before anything executes: frames
/// present, a first conv stage that maps onto the backend
/// ([`ComputeBackend::check_workload`], the conv-job checks), a program
/// shape-compatible with the imager, and imager-sized frames. Returns
/// the program's per-stage output lengths
/// ([`LayerProgram::output_lens`]).
fn validate_job(
    backend: &dyn ComputeBackend,
    program: &LayerProgram,
    frames: &[Frame],
) -> BackendResult<Vec<usize>> {
    if frames.is_empty() {
        return Err(CoreError::InvalidParameter("no frames supplied".into()).into());
    }
    if let Some(Stage::Conv { k, kernels }) = program.stages.first() {
        backend.check_workload(kernels, *k)?;
    }
    let (width, height) = backend.frame_dims();
    let lens = program.output_lens(width, height)?;
    if let Some(frame) = frames
        .iter()
        .find(|f| f.width() != width || f.height() != height)
    {
        return Err(CoreError::InvalidParameter(format!(
            "frame is {}x{} but the imager is {width}x{height}",
            frame.width(),
            frame.height()
        ))
        .into());
    }
    Ok(lens)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Executes one [`ProgramShard`] on a fresh accelerator — the
/// worker-side core both the in-process transport and the process
/// worker loop ([`serve_worker`]) share.
///
/// Statelessness is the point: everything the shard's physics needs is
/// in the message (plus the out-of-band `config`, guarded by the
/// fingerprint), so any worker can execute any shard of any job. The
/// worker aligns its noise epochs to the shard, makes the check every
/// program run makes (the program against the imager, every frame's
/// sensing and room on the counter for the shard's epochs; see
/// [`crate::program`]), stages the shard's
/// [`FabricEntry`](wire::FabricEntry) (module docs, mechanism 2) and
/// runs the stage-major loop of
/// [`run_program_frames`](OisaAccelerator::run_program_frames) over
/// the shard's frames, so the reports are bit-identical to the same
/// frames' slice of a sequential run.
///
/// # Errors
///
/// [`OisaError::FingerprintMismatch`] on a fingerprint mismatch;
/// otherwise the check's errors, before anything is staged, and
/// substrate errors.
pub fn execute_program_shard(
    config: &OisaConfig,
    shard: &ProgramShard,
) -> BackendResult<ProgramReport> {
    let expected = config.fingerprint();
    if shard.config_fingerprint != expected {
        return Err(OisaError::FingerprintMismatch {
            coordinator: shard.config_fingerprint,
            worker: expected,
        });
    }
    let mut accel = OisaAccelerator::new(*config)?;
    accel.align_noise_epoch(shard.first_epoch)?;
    let reports = accel.run_program_from(&shard.program, &shard.frames, &shard.entry)?;
    Ok(ProgramReport {
        job_id: shard.job_id,
        shard_index: shard.shard_index,
        first_frame: shard.first_frame,
        reports,
    })
}

/// Serves shards from a byte stream until clean EOF: the main loop of
/// a worker process. Each incoming [`ProgramShard`] is answered with a
/// [`ProgramReport`] on success or a typed [`ShardRefusal`] (never a
/// dropped connection) when the shard cannot run, and so is any
/// request that does not decode — one stamped with another schema
/// version included; a [`WireMessage::Ping`] is answered with a
/// [`WireMessage::Pong`] echoing the nonce and carrying this worker's
/// config fingerprint.
///
/// Returns the number of requests answered.
///
/// # Errors
///
/// Only transport-level failures ([`OisaError::Wire`]): an undecodable
/// *request* still gets a refusal reply, but a broken stream ends the
/// loop.
pub fn serve_worker<R: Read, W: Write>(
    config: &OisaConfig,
    reader: &mut R,
    writer: &mut W,
) -> BackendResult<u64> {
    let mut config = *config;
    serve_worker_configurable(&mut config, reader, writer, &mut |_| {}).map(|o| o.served)
}

/// What a worker connection did over its lifetime — returned by
/// [`serve_worker_configurable`] so daemons can log a status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Requests answered (shards, pings and config pushes alike).
    pub served: u64,
    /// [`Configure`](WireMessage::Configure) pushes applied.
    pub reconfigured: u64,
    /// Fingerprint of the config the connection ended under.
    pub final_fingerprint: u64,
}

/// The full worker loop behind [`serve_worker`], with config push and a
/// fault-injection hook.
///
/// A [`WireMessage::Configure`] replaces the working `config` (the push
/// was already re-validated during decode) and is answered with a
/// [`WireMessage::ConfigureAck`] echoing the nonce and carrying the
/// fingerprint recomputed from the **applied** config. Subsequent
/// shards and pings run under the pushed physics, and the caller keeps
/// the config the call ends under: a daemon per connection, so a
/// coordinator that reconnects must push again (which [`TcpTransport`]
/// does automatically when built with a config push), and an
/// [`InProcessWorker`] for its lifetime.
///
/// `before_shard` runs after a shard decodes and before it executes,
/// receiving the count of shards this call already answered. The
/// `oisa_worker` daemon's `--fail-after-shards` flag aborts the
/// process from this hook to simulate a worker dying mid-job;
/// [`serve_worker`] passes a no-op.
///
/// # Errors
///
/// As [`serve_worker`].
pub fn serve_worker_configurable<R: Read, W: Write>(
    config: &mut OisaConfig,
    reader: &mut R,
    writer: &mut W,
    before_shard: &mut dyn FnMut(u64),
) -> BackendResult<ServeOutcome> {
    let mut served = 0u64;
    let mut shards = 0u64;
    let mut reconfigured = 0u64;
    while let Some(payload) = wire::read_frame(reader)? {
        let reply = match wire::decode(&payload) {
            Ok(WireMessage::ProgramShard(shard)) => {
                before_shard(shards);
                shards += 1;
                match execute_program_shard(config, &shard) {
                    Ok(report) => WireMessage::ProgramReport(report),
                    Err(e) => WireMessage::Refusal(ShardRefusal {
                        job_id: shard.job_id,
                        shard_index: shard.shard_index,
                        code: refusal_code_for(&e),
                        reason: e.to_string(),
                    }),
                }
            }
            Ok(WireMessage::Ping(hs)) => WireMessage::Pong(wire::Handshake {
                nonce: hs.nonce,
                config_fingerprint: config.fingerprint(),
            }),
            Ok(WireMessage::Configure(push)) => {
                *config = push.config;
                reconfigured += 1;
                WireMessage::ConfigureAck(wire::Handshake {
                    nonce: push.nonce,
                    config_fingerprint: config.fingerprint(),
                })
            }
            Ok(other) => WireMessage::Refusal(ShardRefusal {
                job_id: 0,
                shard_index: 0,
                code: RefusalCode::Other,
                reason: format!(
                    "worker expected a ProgramShard, got {}",
                    message_name(&other)
                ),
            }),
            Err(e) => WireMessage::Refusal(ShardRefusal {
                job_id: 0,
                shard_index: 0,
                code: RefusalCode::Other,
                reason: format!("worker could not decode request: {e}"),
            }),
        };
        wire::send(writer, &reply)?;
        writer
            .flush()
            .map_err(|e| wire::WireError::Io(e.to_string()))?;
        served += 1;
    }
    Ok(ServeOutcome {
        served,
        reconfigured,
        final_fingerprint: config.fingerprint(),
    })
}

/// The machine-readable class a worker-side error travels under.
fn refusal_code_for(error: &OisaError) -> RefusalCode {
    match error {
        OisaError::FingerprintMismatch {
            coordinator,
            worker,
        } => RefusalCode::FingerprintMismatch {
            coordinator: *coordinator,
            worker: *worker,
        },
        _ => RefusalCode::Other,
    }
}

/// Coordinator-side inverse of [`refusal_code_for`]: a worker's typed
/// "no" becomes the matching [`OisaError`] variant. Codes without a
/// dedicated variant travel inside [`OisaError::ShardRefused`], which
/// renders them machine-readably.
fn refusal_to_error(refusal: ShardRefusal) -> OisaError {
    match refusal.code {
        RefusalCode::FingerprintMismatch {
            coordinator,
            worker,
        } => OisaError::FingerprintMismatch {
            coordinator,
            worker,
        },
        code => OisaError::ShardRefused {
            job_id: refusal.job_id,
            shard_index: refusal.shard_index,
            code,
            reason: refusal.reason,
        },
    }
}

fn message_name(message: &WireMessage) -> &'static str {
    match message {
        WireMessage::Refusal(_) => "ShardRefusal",
        WireMessage::Ping(_) => "Ping",
        WireMessage::Pong(_) => "Pong",
        WireMessage::Configure(_) => "Configure",
        WireMessage::ConfigureAck(_) => "ConfigureAck",
        WireMessage::ProgramShard(_) => "ProgramShard",
        WireMessage::ProgramReport(_) => "ProgramReport",
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// One worker as the coordinator sees it: a byte-message round trip.
/// The transport owns framing; the coordinator hands it one encoded
/// message and expects one encoded reply.
pub trait ShardTransport: Send {
    /// Sends one encoded wire message, returns the worker's encoded
    /// reply.
    ///
    /// # Errors
    ///
    /// [`OisaError`] when the transport breaks (worker death, stream
    /// failure). Protocol-level refusals travel *inside* the reply.
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>>;

    /// A human-readable name for the worker behind this transport
    /// (an address for TCP, a marker for in-process) — what the
    /// supervisor's quarantine log records.
    fn endpoint_label(&self) -> String {
        "unnamed-worker".to_string()
    }
}

/// An in-process worker: runs [`serve_worker`] over in-memory buffers,
/// so the full encode → frame → decode → execute → encode path is
/// exercised without spawning a process. This is what the bench
/// harness and the parity tests use; `examples/multi_node.rs` swaps in
/// a real child-process transport over the same trait. A
/// [`WireMessage::Configure`] push holds for every later round trip,
/// as it holds for a TCP daemon's connection.
#[derive(Debug, Clone)]
pub struct InProcessWorker {
    config: OisaConfig,
}

impl InProcessWorker {
    /// A worker that executes under `config` until a config push
    /// replaces it.
    #[must_use]
    pub fn new(config: OisaConfig) -> Self {
        Self { config }
    }
}

impl ShardTransport for InProcessWorker {
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
        let mut request = Vec::with_capacity(message.len() + 4);
        wire::write_frame(&mut request, message)?;
        let mut reader = std::io::Cursor::new(request);
        let mut reply_stream = Vec::new();
        serve_worker_configurable(
            &mut self.config,
            &mut reader,
            &mut reply_stream,
            &mut |_| {},
        )?;
        let mut cursor = std::io::Cursor::new(reply_stream);
        wire::read_frame(&mut cursor)?
            .ok_or_else(|| OisaError::Backend("in-process worker produced no reply".into()))
    }

    fn endpoint_label(&self) -> String {
        "in-process".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FabricEntry;
    use oisa_device::noise::NoiseConfig;
    use oisa_sensor::frame::Frame;

    fn cfg(seed: u64) -> OisaConfig {
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = seed;
        cfg
    }

    fn frames(count: usize) -> Vec<Frame> {
        (0..count)
            .map(|f| {
                let data: Vec<f64> = (0..256)
                    .map(|i| ((i * (f + 3)) % 17) as f64 / 17.0)
                    .collect();
                Frame::new(16, 16, data).unwrap()
            })
            .collect()
    }

    /// `job` as the one shard of its one-stage conv program, stamped
    /// with `fingerprint`.
    fn conv_shard(fingerprint: u64, job: &InferenceJob) -> ProgramShard {
        ProgramShard {
            job_id: job.job_id,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 0,
            config_fingerprint: fingerprint,
            entry: FabricEntry::Cold,
            program: LayerProgram {
                stages: vec![Stage::Conv {
                    k: job.k,
                    kernels: job.kernels.clone(),
                }],
            },
            frames: job.frames.clone(),
        }
    }

    #[test]
    fn local_backend_matches_direct_batch_calls() {
        let job = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: vec![vec![0.4f32; 9], vec![-0.2f32; 9]],
            frames: frames(3),
        };
        let mut backend = LocalBackend::new(cfg(5)).unwrap();
        let via_backend = backend.run_job(&job).unwrap();
        let mut direct = OisaAccelerator::new(cfg(5)).unwrap();
        let via_accel = direct
            .convolve_frames(&job.frames, &job.kernels, 3)
            .unwrap();
        assert_eq!(via_backend, via_accel);
    }

    #[test]
    fn fingerprint_mismatch_is_typed_and_names_both_fingerprints() {
        let mut worker_cfg = cfg(7);
        worker_cfg.seed = 8; // different physics
        let coordinator_fp = cfg(7).fingerprint();
        let worker_fp = worker_cfg.fingerprint();
        let job = InferenceJob {
            job_id: 3,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(1),
        };
        let shard = conv_shard(coordinator_fp, &job);
        let err = execute_program_shard(&worker_cfg, &shard).unwrap_err();
        assert_eq!(
            err,
            OisaError::FingerprintMismatch {
                coordinator: coordinator_fp,
                worker: worker_fp,
            }
        );
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Through a transport it comes back as a refusal whose code
        // carries both fingerprints...
        let mut transport = InProcessWorker::new(worker_cfg);
        let reply = transport
            .round_trip(&wire::encode(&WireMessage::ProgramShard(shard)))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Refusal(refusal) => {
                assert_eq!(refusal.job_id, 3);
                assert_eq!(
                    refusal.code,
                    RefusalCode::FingerprintMismatch {
                        coordinator: coordinator_fp,
                        worker: worker_fp,
                    }
                );
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // ...and the coordinator maps it back to the same typed error.
        let mut backend = FleetSupervisor::new(
            cfg(7),
            vec![Box::new(transport)],
            Vec::new(),
            SupervisorOptions::default(),
        )
        .unwrap();
        assert_eq!(
            backend.run_job(&job).unwrap_err(),
            OisaError::FingerprintMismatch {
                coordinator: coordinator_fp,
                worker: worker_fp,
            }
        );
    }

    #[test]
    fn in_process_worker_keeps_a_config_push() {
        // A worker of other physics adopts a pushed config and serves
        // the next shard under it instead of refusing it.
        let coordinator = cfg(7);
        let mut worker = InProcessWorker::new(cfg(8));
        let push = wire::encode(&WireMessage::Configure(wire::ConfigPush {
            nonce: 5,
            config: coordinator,
        }));
        match wire::decode(&worker.round_trip(&push).unwrap()).unwrap() {
            WireMessage::ConfigureAck(ack) => {
                assert_eq!(
                    (ack.nonce, ack.config_fingerprint),
                    (5, coordinator.fingerprint())
                );
            }
            other => panic!("expected a ConfigureAck, got {other:?}"),
        }
        let job = InferenceJob {
            job_id: 4,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(2),
        };
        let shard = conv_shard(coordinator.fingerprint(), &job);
        let expected = execute_program_shard(&coordinator, &shard).unwrap();
        let reply = worker
            .round_trip(&wire::encode(&WireMessage::ProgramShard(shard)))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::ProgramReport(report) => assert_eq!(report, expected),
            other => panic!("expected a ProgramReport, got {other:?}"),
        }
    }

    #[test]
    fn worker_answers_ping_with_a_nonce_echoing_pong() {
        let config = cfg(11);
        let mut transport = InProcessWorker::new(config);
        let reply = transport
            .round_trip(&wire::encode(&WireMessage::Ping(wire::Handshake {
                nonce: 0xC0FFEE,
                config_fingerprint: 0, // sender's fingerprint is informational
            })))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Pong(hs) => {
                assert_eq!(hs.nonce, 0xC0FFEE);
                assert_eq!(hs.config_fingerprint, config.fingerprint());
            }
            other => panic!("expected a pong, got {other:?}"),
        }
    }

    #[test]
    fn worker_answers_garbage_with_a_refusal_not_a_hangup() {
        let mut transport = InProcessWorker::new(cfg(8));
        // A syntactically valid frame holding an undecodable payload.
        let reply = transport.round_trip(&[0xDE, 0xAD]).unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Refusal(refusal) => {
                assert!(refusal.reason.contains("decode"), "{}", refusal.reason);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // A well-formed message of the wrong type is named in the
        // refusal.
        let reply = transport
            .round_trip(&wire::encode(&WireMessage::Pong(wire::Handshake {
                nonce: 1,
                config_fingerprint: 2,
            })))
            .unwrap();
        match wire::decode(&reply).unwrap() {
            WireMessage::Refusal(refusal) => {
                assert!(refusal.reason.contains("Pong"), "{}", refusal.reason);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn worker_answers_a_ping_of_another_schema_version_with_a_refusal() {
        let mut ping = wire::encode(&WireMessage::Ping(wire::Handshake {
            nonce: 5,
            config_fingerprint: 0,
        }));
        ping[2..4].copy_from_slice(&4u16.to_le_bytes());
        let mut request = Vec::new();
        wire::write_frame(&mut request, &ping).unwrap();
        let mut replies = Vec::new();
        let served = serve_worker(&cfg(12), &mut request.as_slice(), &mut replies).unwrap();
        assert_eq!(served, 1, "the stale ping is answered, not dropped");
        match wire::receive(&mut replies.as_slice()).unwrap() {
            Some(WireMessage::Refusal(refusal)) => {
                assert_eq!(refusal.code, RefusalCode::Other);
                assert!(
                    refusal.reason.contains("unsupported schema version 4"),
                    "{}",
                    refusal.reason
                );
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
}
