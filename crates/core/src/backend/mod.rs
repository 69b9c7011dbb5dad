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
//! * [`ShardedBackend`] — a coordinator that splits each job's frames
//!   into contiguous `(frame, epoch)` ranges, ships them as
//!   length-prefixed [`ProgramShard`] [`wire`] messages to workers
//!   (in-process for tests/bench, separate OS processes in
//!   `examples/multi_node.rs`, remote hosts over [`TcpTransport`] —
//!   anything implementing [`ShardTransport`]), and merges the
//!   [`ProgramReport`]s in frame order. A conv [`InferenceJob`] travels
//!   as the one-stage program `[Stage::Conv { k, kernels }]`, so both
//!   job kinds share one shard type, one worker entry point
//!   ([`execute_program_shard`]) and one recovery loop.
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
//!    carries a [`FabricEntry`] the worker stages first. Program-job
//!    shards, and conv-job shards but the first, carry
//!    [`FabricEntry::WarmSelf`]: the program's own steady state
//!    ([`OisaAccelerator::prewarm_program`]), exactly what the
//!    sequential loop's fabric holds mid-stream. A conv job's first
//!    shard replays what the previous job left staged —
//!    [`FabricEntry::Cold`], `WarmSelf` or [`FabricEntry::Warm`] —
//!    because [`LocalBackend::run_job`] carries that history too.
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
//! [`FabricEntry::Warm`]). Feature maps are always exact — noise
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

use crate::accelerator::{kernel_shape_error, ConvolutionReport, OisaAccelerator, OisaConfig};
use crate::error::OisaError;
use crate::mapping::{ConvWorkload, MappingPlan};
use crate::program::{LayerProgram, ProgramFrameReport, Stage, StageReport};
use crate::wire::{
    self, FabricEntry, InferenceJob, ProgramJob, ProgramReport, ProgramShard, ProgramShardRef,
    RefusalCode, ShardRefusal, WireMessage,
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
/// use oisa_core::backend::{ComputeBackend, LocalBackend, ShardedBackend};
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
/// assert_eq!(run(&mut ShardedBackend::in_process(cfg, 2)?)?, 1);
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

    /// Validates that a kernel set maps onto this backend's OPC and
    /// imager — the up-front check front ends run at construction so
    /// unmappable workloads fail before the first frame arrives.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::Unmappable`]
    /// (wrapped in [`OisaError::Core`]) exactly as the execution path
    /// would report them.
    fn check_workload(&self, kernels: &[Vec<f32>], k: usize) -> BackendResult<()> {
        if let Some(reason) = kernel_shape_error(kernels, k) {
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
    /// sequential reference and any sharded merge), then a per-frame
    /// loop.
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
/// worker aligns its noise epochs to the shard, stages the shard's
/// [`FabricEntry`] (module docs, mechanism 2) and runs the frame loop
/// of [`run_program_frames`](OisaAccelerator::run_program_frames), so
/// the reports are bit-identical to the same frames' slice of a
/// sequential run.
///
/// # Errors
///
/// [`OisaError::FingerprintMismatch`] on a fingerprint mismatch;
/// otherwise program validation and substrate errors.
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
    match &shard.entry {
        FabricEntry::WarmSelf => accel.prewarm_program(&shard.program)?,
        entry => {
            // `prewarm_program` checks the program's shapes against the
            // imager; entering any other way, check them here.
            shard
                .program
                .output_lens(config.imager.width, config.imager.height)?;
            if let FabricEntry::Warm { k, kernels } = entry {
                accel.prewarm(kernels, *k)?;
            }
        }
    }
    let reports = accel.program_frames(&shard.program, &shard.frames)?;
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
    serve_worker_configurable(*config, reader, writer, &mut |_| {}).map(|o| o.served)
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
/// A [`WireMessage::Configure`] replaces the connection's working
/// config (the push was already re-validated during decode) and is
/// answered with a [`WireMessage::ConfigureAck`] echoing the nonce and
/// carrying the fingerprint recomputed from the **applied** config.
/// Subsequent shards and pings run under the pushed physics; the
/// configuration is connection-local, so a coordinator that reconnects
/// must push again (which [`TcpTransport`] does automatically when
/// built with a config push).
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
    initial: OisaConfig,
    reader: &mut R,
    writer: &mut W,
    before_shard: &mut dyn FnMut(u64),
) -> BackendResult<ServeOutcome> {
    let mut config = initial;
    let mut served = 0u64;
    let mut shards = 0u64;
    let mut reconfigured = 0u64;
    while let Some(payload) = wire::read_frame(reader)? {
        let reply = match wire::decode(&payload) {
            Ok(WireMessage::ProgramShard(shard)) => {
                before_shard(shards);
                shards += 1;
                match execute_program_shard(&config, &shard) {
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
                config = push.config;
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
/// a real child-process transport over the same trait.
#[derive(Debug, Clone)]
pub struct InProcessWorker {
    config: OisaConfig,
}

impl InProcessWorker {
    /// A worker that executes under `config`.
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
        serve_worker(&self.config, &mut reader, &mut reply_stream)?;
        let mut cursor = std::io::Cursor::new(reply_stream);
        wire::read_frame(&mut cursor)?
            .ok_or_else(|| OisaError::Backend("in-process worker produced no reply".into()))
    }

    fn endpoint_label(&self) -> String {
        "in-process".to_string()
    }
}

// ---------------------------------------------------------------------
// ShardedBackend
// ---------------------------------------------------------------------

/// Coordinator backend: splits each job over a fleet of workers and
/// merges their shard reports bit-identically to one sequential loop
/// (module docs).
///
/// # Examples
///
/// ```
/// use oisa_core::backend::{ComputeBackend, ShardedBackend};
/// use oisa_core::wire::InferenceJob;
/// use oisa_core::OisaConfig;
/// use oisa_sensor::Frame;
///
/// # fn main() -> Result<(), oisa_core::OisaError> {
/// let cfg = OisaConfig::small_test();
/// let mut backend = ShardedBackend::in_process(cfg, 2)?;
/// let job = InferenceJob {
///     job_id: 1,
///     k: 3,
///     kernels: vec![vec![0.5f32; 9]],
///     frames: vec![Frame::constant(16, 16, 0.6)?, Frame::constant(16, 16, 0.4)?],
/// };
/// let reports = backend.run_job(&job)?;
/// assert_eq!(reports.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct ShardedBackend {
    config: OisaConfig,
    fingerprint: u64,
    workers: Vec<Box<dyn ShardTransport>>,
    /// Absolute epoch of the next job's first frame (frames executed so
    /// far across every job).
    next_epoch: u64,
    /// The kernel set the fabric "holds" between jobs — what a
    /// sequential host's fabric would hold — so the next job's first
    /// shard can reproduce its entry-state tuning cost.
    last_staged: Option<(usize, Vec<Vec<f32>>)>,
    jobs_run: u64,
}

impl std::fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("workers", &self.workers.len())
            .field("next_epoch", &self.next_epoch)
            .field("jobs_run", &self.jobs_run)
            .finish_non_exhaustive()
    }
}

impl ShardedBackend {
    /// Builds a coordinator over an explicit worker fleet.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] for an empty fleet.
    pub fn new(config: OisaConfig, workers: Vec<Box<dyn ShardTransport>>) -> BackendResult<Self> {
        if workers.is_empty() {
            return Err(OisaError::Backend(
                "a sharded backend needs at least one worker".into(),
            ));
        }
        Ok(Self {
            fingerprint: config.fingerprint(),
            config,
            workers,
            next_epoch: 0,
            last_staged: None,
            jobs_run: 0,
        })
    }

    /// Convenience fleet of `workers` in-process workers (tests,
    /// benches, single-host parallelism over the wire path).
    ///
    /// # Errors
    ///
    /// As [`ShardedBackend::new`].
    pub fn in_process(config: OisaConfig, workers: usize) -> BackendResult<Self> {
        let fleet: Vec<Box<dyn ShardTransport>> = (0..workers)
            .map(|_| Box::new(InProcessWorker::new(config)) as Box<dyn ShardTransport>)
            .collect();
        Self::new(config, fleet)
    }

    /// Number of workers in the fleet.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Swaps the worker at `index` for a replacement transport — the
    /// repair step after a [`OisaError::Transport`] failure (a worker
    /// died and its endpoint will not come back). Because `run_job`
    /// advances no coordinator state on failure, a job retried after
    /// the swap re-executes bit-identically, whatever the new fleet
    /// shape.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] when `index` is out of range.
    pub fn replace_worker(
        &mut self,
        index: usize,
        transport: Box<dyn ShardTransport>,
    ) -> BackendResult<()> {
        let fleet = self.workers.len();
        let slot = self.workers.get_mut(index).ok_or_else(|| {
            OisaError::Backend(format!("no worker {index} to replace (fleet has {fleet})"))
        })?;
        *slot = transport;
        Ok(())
    }

    /// Jobs merged so far.
    #[must_use]
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Removes the worker at `index` from the fleet and hands its
    /// transport back — the quarantine step of the self-healing ladder
    /// (see [`FleetSupervisor`]). The fleet
    /// must keep at least one worker.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] when `index` is out of range or the
    /// fleet would become empty.
    pub fn remove_worker(&mut self, index: usize) -> BackendResult<Box<dyn ShardTransport>> {
        let fleet = self.workers.len();
        if fleet <= 1 {
            return Err(OisaError::Backend(
                "cannot remove the last worker of a sharded backend".into(),
            ));
        }
        if index >= fleet {
            return Err(OisaError::Backend(format!(
                "no worker {index} to remove (fleet has {fleet})"
            )));
        }
        Ok(self.workers.remove(index))
    }

    /// Appends a worker to the fleet (e.g. a repaired endpoint
    /// returning to duty).
    pub fn add_worker(&mut self, transport: Box<dyn ShardTransport>) {
        self.workers.push(transport);
    }

    /// The [`ShardTransport::endpoint_label`] of worker `index`, or
    /// `None` when the index is out of range.
    #[must_use]
    pub fn worker_label(&self, index: usize) -> Option<String> {
        self.workers.get(index).map(|w| w.endpoint_label())
    }

    /// Sends a [`WireMessage::Ping`] to worker `index` and verifies the
    /// [`WireMessage::Pong`] echoes `nonce`; returns the fingerprint
    /// the worker reported. This is the health probe
    /// [`FleetSupervisor`] runs against idle
    /// workers between jobs.
    ///
    /// # Errors
    ///
    /// [`OisaError::Transport`] / transport failures from the round
    /// trip; [`OisaError::Backend`] for an out-of-range index, a
    /// non-Pong reply or a stale nonce.
    pub fn ping_worker(&mut self, index: usize, nonce: u64) -> BackendResult<u64> {
        let fleet = self.workers.len();
        let fingerprint = self.fingerprint;
        let worker = self.workers.get_mut(index).ok_or_else(|| {
            OisaError::Backend(format!("no worker {index} to ping (fleet has {fleet})"))
        })?;
        probe_transport(worker.as_mut(), fingerprint, nonce)
    }

    /// Pushes this coordinator's full [`OisaConfig`] to worker `index`
    /// as a [`WireMessage::Configure`] and verifies the
    /// [`WireMessage::ConfigureAck`]: nonce echoed, applied fingerprint
    /// equal to the coordinator's. After this, a worker started with
    /// different physics serves this coordinator's shards instead of
    /// refusing them.
    ///
    /// # Errors
    ///
    /// Transport failures from the round trip;
    /// [`OisaError::FingerprintMismatch`] when the acknowledged
    /// fingerprint still differs (the worker did not apply the push);
    /// [`OisaError::Backend`] for an out-of-range index or an
    /// unexpected reply; [`OisaError::ShardRefused`] when the worker
    /// refused the push.
    pub fn push_config_to_worker(&mut self, index: usize, nonce: u64) -> BackendResult<()> {
        let fleet = self.workers.len();
        let config = self.config;
        let worker = self.workers.get_mut(index).ok_or_else(|| {
            OisaError::Backend(format!(
                "no worker {index} to configure (fleet has {fleet})"
            ))
        })?;
        push_config_to_transport(worker.as_mut(), &config, nonce)
    }

    /// The fabric entry state of a conv job's first shard (module docs,
    /// mechanism 2): what the previous job left staged.
    fn entry_for(&self, job: &InferenceJob) -> FabricEntry {
        match &self.last_staged {
            None => FabricEntry::Cold,
            Some((k, kernels)) if *k == job.k && *kernels == job.kernels => FabricEntry::WarmSelf,
            Some((k, kernels)) => FabricEntry::Warm {
                k: *k,
                kernels: kernels.clone(),
            },
        }
    }

    /// The shard messages of a failure-free conv job, decoded — exactly
    /// what round one of [`ShardedBackend::run_job_with_recovery`]
    /// dispatches (same [`ShardPlan::shard`], same [`split_count`]) —
    /// so tests can inspect the partitioning.
    #[cfg(test)]
    fn plan_shards(&self, job: &InferenceJob) -> Vec<ProgramShard> {
        let program = conv_program(job);
        let plan = ShardPlan {
            job_id: job.job_id,
            program: &program,
            frames: &job.frames,
            entry: self.entry_for(job),
            base_epoch: self.next_epoch,
            fingerprint: self.fingerprint,
        };
        let n = job.frames.len();
        let splits = split_count(n, self.workers.len().min(n));
        let count = u32::try_from(splits.len()).expect("fleet fits u32");
        let mut start = 0usize;
        let mut shards = Vec::with_capacity(splits.len());
        for (index, len) in (0..).zip(splits) {
            let bytes = wire::encode_program_shard_ref(&plan.shard(start, len, index, count));
            match wire::decode(&bytes) {
                Ok(WireMessage::ProgramShard(shard)) => shards.push(shard),
                other => panic!("a planned shard must decode as one, got {other:?}"),
            }
            start += len;
        }
        shards
    }

    /// Dispatches pre-encoded shard messages concurrently, message `i`
    /// to worker `i` — one OS thread per engaged worker, each blocking
    /// on its transport's round trip. Replies come back in spawn order.
    fn dispatch_round(&mut self, messages: &[Vec<u8>]) -> Vec<BackendResult<Vec<u8>>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(messages)
                .map(|(worker, message)| scope.spawn(move || worker.round_trip(message)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(OisaError::Backend("shard dispatch thread panicked".into()))
                    })
                })
                .collect()
        })
    }

    /// [`ComputeBackend::run_job`] with a pluggable failure policy —
    /// the re-plan path of the self-healing fleet. The job runs as the
    /// one-stage program `[Stage::Conv { k, kernels }]` through
    /// [`ShardedBackend::run_program_with_recovery`]'s loop, its first
    /// shard entering the fabric state the previous job left (module
    /// docs, mechanism 2); each frame's conv stage report is returned.
    ///
    /// # Errors
    ///
    /// As [`ShardedBackend::run_program_with_recovery`].
    pub fn run_job_with_recovery(
        &mut self,
        job: &InferenceJob,
        on_failure: &mut dyn FnMut(&str, &OisaError) -> Recovery,
    ) -> BackendResult<Vec<ConvolutionReport>> {
        let program = conv_program(job);
        let lens = validate_job(self, &program, &job.frames)?;
        let plan = ShardPlan {
            job_id: job.job_id,
            program: &program,
            frames: &job.frames,
            entry: self.entry_for(job),
            base_epoch: self.next_epoch,
            fingerprint: self.fingerprint,
        };
        let merged = self.run_plan(&plan, &lens, on_failure)?;
        // `check_program_reports` let through only one conv stage per
        // frame.
        let reports = merged
            .into_iter()
            .map(|frame| match <[StageReport; 1]>::try_from(frame.stages) {
                Ok([StageReport::Conv(conv)]) => Ok(conv),
                _ => Err(OisaError::Backend(
                    "a conv job's frame report holds no conv stage".into(),
                )),
            })
            .collect::<BackendResult<Vec<_>>>()?;
        self.commit(&program, job.frames.len());
        Ok(reports)
    }

    /// [`ComputeBackend::run_program`] with a pluggable failure policy —
    /// the re-plan path of the self-healing fleet.
    ///
    /// Execution proceeds in rounds. Each round covers the not yet
    /// merged frame ranges with one shard per engaged worker and
    /// dispatches them concurrently. A shard whose transport fails
    /// ([`OisaError::Transport`]) consults `on_failure(worker_label,
    /// error)` — the label is the failed worker's
    /// [`ShardTransport::endpoint_label`]:
    ///
    /// * [`Recovery::Promote`] — swap the failed slot for the supplied
    ///   transport (a spare); the failed range re-runs on the new
    ///   fleet next round.
    /// * [`Recovery::Shrink`] — drop the failed worker and re-plan the
    ///   failed range across the survivors next round.
    /// * [`Recovery::Abort`] — give up and propagate the error.
    ///
    /// Because workers are stateless per shard and shard boundaries
    /// never affect results, the merged report stream is
    /// **bit-identical** whatever sequence of failures, promotions and
    /// re-plans occurred. Non-transport failures (refusals, fingerprint
    /// mismatches, protocol faults, replies of the wrong shape) abort
    /// immediately — retrying them cannot help. On error, no
    /// coordinator state advances, so the whole job can be retried.
    ///
    /// # Errors
    ///
    /// The aborting failure, or [`OisaError::Backend`] when the fleet
    /// is exhausted while frames remain.
    pub fn run_program_with_recovery(
        &mut self,
        job: &ProgramJob,
        on_failure: &mut dyn FnMut(&str, &OisaError) -> Recovery,
    ) -> BackendResult<Vec<ProgramFrameReport>> {
        let lens = validate_job(self, &job.program, &job.frames)?;
        let plan = ShardPlan {
            job_id: job.job_id,
            program: &job.program,
            frames: &job.frames,
            entry: FabricEntry::WarmSelf,
            base_epoch: self.next_epoch,
            fingerprint: self.fingerprint,
        };
        let merged = self.run_plan(&plan, &lens, on_failure)?;
        self.commit(&job.program, job.frames.len());
        Ok(merged)
    }

    /// Advances the coordinator past a merged job of `frames` frames
    /// through `program` — only ever after every shard merged, so a
    /// failed job consumes nothing and a retry re-executes identically.
    /// A program with no dense stage leaves its conv kernels staged;
    /// any other program leaves nothing the entry states model (module
    /// docs).
    fn commit(&mut self, program: &LayerProgram, frames: usize) {
        self.next_epoch += frames as u64 * program.epochs_per_frame();
        let has_dense = program
            .stages
            .iter()
            .any(|s| matches!(s, Stage::Dense { .. }));
        self.last_staged = match program.stages.first() {
            Some(Stage::Conv { k, kernels }) if !has_dense => Some((*k, kernels.clone())),
            _ => None,
        };
        self.jobs_run += 1;
    }

    /// The round/re-plan/merge engine behind both recovery entry
    /// points: cuts the pending frame ranges into shards of `plan`,
    /// dispatches them, settles every reply (echo fields, then shape
    /// against the program's output `lens`) and merges in frame order.
    /// Advances **no** coordinator state.
    fn run_plan(
        &mut self,
        plan: &ShardPlan<'_>,
        lens: &[usize],
        on_failure: &mut dyn FnMut(&str, &OisaError) -> Recovery,
    ) -> BackendResult<Vec<ProgramFrameReport>> {
        let n = plan.frames.len();
        let dims = self.frame_dims();
        // Frame ranges not yet merged, kept sorted and disjoint.
        let mut pending: Vec<(usize, usize)> = vec![(0, n)];
        let mut collected: Vec<(usize, Vec<ProgramFrameReport>)> = Vec::new();
        let mut shard_seq = 0u32;
        while !pending.is_empty() {
            // Cover the pending ranges with at most one shard per
            // worker: each range gets a worker share proportional to
            // its length (at least one), and splits contiguously.
            // Ranges beyond the fleet size wait for the next round.
            let fleet = self.workers.len();
            let mut leftover: Vec<(usize, usize)> = Vec::new();
            let round_ranges: Vec<(usize, usize)> = if pending.len() >= fleet {
                leftover = pending.split_off(fleet);
                pending.clone()
            } else {
                let mut shares = vec![1usize; pending.len()];
                let mut left = fleet - pending.len();
                while left > 0 {
                    let (widest, _) = shares
                        .iter()
                        .enumerate()
                        .max_by_key(|&(i, &s)| pending[i].1 / s)
                        .expect("pending is non-empty");
                    shares[widest] += 1;
                    left -= 1;
                }
                pending
                    .iter()
                    .zip(&shares)
                    .flat_map(|(&(start, len), &share)| {
                        let mut out = Vec::new();
                        let mut at = start;
                        for piece in split_count(len, share.min(len)) {
                            out.push((at, piece));
                            at += piece;
                        }
                        out
                    })
                    .collect()
            };
            let dispatched = u32::try_from(round_ranges.len()).expect("fleet fits u32");
            let round: Vec<(usize, usize, u32)> = round_ranges
                .iter()
                .map(|&(start, len)| {
                    let index = shard_seq;
                    shard_seq += 1;
                    (start, len, index)
                })
                .collect();
            let messages: Vec<Vec<u8>> = round
                .iter()
                .map(|&(start, len, index)| {
                    wire::encode_program_shard_ref(&plan.shard(start, len, index, dispatched))
                })
                .collect();
            let replies = self.dispatch_round(&messages);

            // Settle the round: successes merge, transport failures
            // consult the policy and their ranges go back to pending.
            // Failed slots are handled in descending index order so
            // removals cannot shift a slot that still needs handling.
            let mut failures: Vec<(usize, OisaError)> = Vec::new();
            for (slot, (&(start, len, index), reply)) in round.iter().zip(replies).enumerate() {
                let settled = reply
                    .and_then(|payload| settle_reply(plan.job_id, start, len, index, &payload))
                    .and_then(|reports| {
                        check_program_reports(plan.program, lens, dims, index, &reports)?;
                        Ok(reports)
                    });
                match settled {
                    Ok(reports) => collected.push((start, reports)),
                    Err(e @ OisaError::Transport { .. }) => failures.push((slot, e)),
                    Err(other) => return Err(other),
                }
            }
            let mut next_pending = leftover;
            for (slot, error) in failures.into_iter().rev() {
                let (start, len, _) = round[slot];
                let label = self.workers[slot].endpoint_label();
                match on_failure(&label, &error) {
                    Recovery::Promote(spare) => {
                        self.workers[slot] = spare;
                    }
                    Recovery::Shrink => {
                        if self.workers.len() <= 1 {
                            return Err(OisaError::Backend(format!(
                                "fleet exhausted with {len} frame(s) unexecuted: {error}"
                            )));
                        }
                        self.workers.remove(slot);
                    }
                    Recovery::Abort => return Err(error),
                }
                next_pending.push((start, len));
            }
            next_pending.sort_unstable();
            pending = next_pending;
        }

        // Merge in frame order and verify the cover is exact. The
        // planned start doubles as the merge key because `settle_reply`
        // verified each reply's first-frame echo against it.
        collected.sort_by_key(|(first, _)| *first);
        let mut merged = Vec::with_capacity(n);
        let mut expected_next = 0usize;
        for (first, reports) in collected {
            if first != expected_next {
                return Err(OisaError::Backend(format!(
                    "re-planned shards left a gap: expected frame {expected_next}, got {first}"
                )));
            }
            expected_next += reports.len();
            merged.extend(reports);
        }
        if merged.len() != n {
            return Err(OisaError::Backend(format!(
                "re-planned shards covered {} of {n} frames",
                merged.len()
            )));
        }
        Ok(merged)
    }
}

/// The one-stage program a conv job runs as.
fn conv_program(job: &InferenceJob) -> LayerProgram {
    LayerProgram {
        stages: vec![Stage::Conv {
            k: job.k,
            kernels: job.kernels.clone(),
        }],
    }
}

/// What every shard of one job shares, fixed before the first round —
/// the coordinator state enters as values, because the recovery loop
/// cuts shards while it mutates the fleet.
struct ShardPlan<'a> {
    job_id: u64,
    program: &'a LayerProgram,
    frames: &'a [Frame],
    /// Entry state of the shard that holds frame 0; every other shard
    /// enters [`FabricEntry::WarmSelf`].
    entry: FabricEntry,
    /// Absolute noise epoch of frame 0.
    base_epoch: u64,
    fingerprint: u64,
}

impl ShardPlan<'_> {
    /// The shard covering job frames `start..start + len`. Shard
    /// boundaries never affect results (module docs), so *any*
    /// contiguous cover of the job's frames merges bit-identically —
    /// the invariant the re-plan path stands on.
    fn shard(&self, start: usize, len: usize, index: u32, count: u32) -> ProgramShardRef<'_> {
        ProgramShardRef {
            job_id: self.job_id,
            shard_index: index,
            shard_count: count,
            first_frame: start as u64,
            first_epoch: self.base_epoch + start as u64 * self.program.epochs_per_frame(),
            config_fingerprint: self.fingerprint,
            entry: if start == 0 {
                &self.entry
            } else {
                &FabricEntry::WarmSelf
            },
            program: self.program,
            frames: &self.frames[start..start + len],
        }
    }
}

/// How [`ShardedBackend::run_program_with_recovery`] reacts to a worker
/// whose transport failed.
pub enum Recovery {
    /// Swap the failed slot for this transport (a promoted spare) and
    /// re-run the failed range on the repaired fleet.
    Promote(Box<dyn ShardTransport>),
    /// Drop the failed worker and re-plan the failed range across the
    /// surviving workers.
    Shrink,
    /// Propagate the failure to the caller.
    Abort,
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Promote(_) => f.write_str("Promote(..)"),
            Self::Shrink => f.write_str("Shrink"),
            Self::Abort => f.write_str("Abort"),
        }
    }
}

/// Splits `n` items into `parts` contiguous counts, largest first —
/// the partition both the initial plan and every re-plan use.
fn split_count(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// The [`WireMessage::Ping`]/[`WireMessage::Pong`] liveness probe over
/// any [`ShardTransport`]: verifies the nonce echo and returns the
/// fingerprint the worker reported. [`ShardedBackend::ping_worker`]
/// and the supervisor's spare-admission check both run through here.
///
/// # Errors
///
/// Transport failures from the round trip; [`OisaError::Backend`] for
/// a non-Pong reply or a stale nonce.
pub(crate) fn probe_transport(
    worker: &mut dyn ShardTransport,
    fingerprint: u64,
    nonce: u64,
) -> BackendResult<u64> {
    let ping = wire::encode(&WireMessage::Ping(wire::Handshake {
        nonce,
        config_fingerprint: fingerprint,
    }));
    let reply = worker.round_trip(&ping)?;
    match wire::decode(&reply)? {
        WireMessage::Pong(pong) if pong.nonce == nonce => Ok(pong.config_fingerprint),
        WireMessage::Pong(pong) => Err(OisaError::Backend(format!(
            "worker answered the ping with a stale nonce ({} ≠ {nonce})",
            pong.nonce
        ))),
        other => Err(OisaError::Backend(format!(
            "worker answered the ping with a {}",
            message_name(&other)
        ))),
    }
}

/// The [`WireMessage::Configure`] push over any
/// [`ShardTransport`]: sends `config` in full and verifies the
/// [`WireMessage::ConfigureAck`] echoes `nonce` and acknowledges the
/// fingerprint of the *applied* config.
///
/// # Errors
///
/// Transport failures from the round trip;
/// [`OisaError::FingerprintMismatch`] when the acknowledged
/// fingerprint differs (the worker did not apply the push);
/// [`OisaError::ShardRefused`] when the worker refused it;
/// [`OisaError::Backend`] for any other reply.
pub(crate) fn push_config_to_transport(
    worker: &mut dyn ShardTransport,
    config: &OisaConfig,
    nonce: u64,
) -> BackendResult<()> {
    let fingerprint = config.fingerprint();
    let push = wire::encode(&WireMessage::Configure(wire::ConfigPush {
        nonce,
        config: *config,
    }));
    let reply = worker.round_trip(&push)?;
    match wire::decode(&reply)? {
        WireMessage::ConfigureAck(ack) if ack.nonce != nonce => Err(OisaError::Backend(format!(
            "worker acknowledged the config push with a stale nonce ({} ≠ {nonce})",
            ack.nonce
        ))),
        WireMessage::ConfigureAck(ack) if ack.config_fingerprint != fingerprint => {
            Err(OisaError::FingerprintMismatch {
                coordinator: fingerprint,
                worker: ack.config_fingerprint,
            })
        }
        WireMessage::ConfigureAck(_) => Ok(()),
        WireMessage::Refusal(refusal) => Err(refusal_to_error(refusal)),
        other => Err(OisaError::Backend(format!(
            "worker answered the config push with a {}",
            message_name(&other)
        ))),
    }
}

/// Verifies one worker reply for the frame range `start..start + len`
/// of shard `index`: decodes it, maps refusals to typed errors and
/// checks every echo field against the planned range, so a misrouted
/// or stale reply cannot silently corrupt the merged stream.
fn settle_reply(
    job_id: u64,
    start: usize,
    len: usize,
    index: u32,
    payload: &[u8],
) -> BackendResult<Vec<ProgramFrameReport>> {
    let report = match wire::decode(payload)? {
        WireMessage::ProgramReport(report) => report,
        WireMessage::Refusal(refusal) => return Err(refusal_to_error(refusal)),
        other => {
            return Err(OisaError::Backend(format!(
                "worker answered shard {index} with a {}",
                message_name(&other)
            )));
        }
    };
    let first_frame = start as u64;
    if report.job_id != job_id || report.shard_index != index || report.first_frame != first_frame {
        return Err(OisaError::Backend(format!(
            "shard reply mismatch: expected job {job_id} shard {index} \
             first_frame {first_frame}, got job {} shard {} first_frame {}",
            report.job_id, report.shard_index, report.first_frame
        )));
    }
    if report.reports.len() != len {
        return Err(OisaError::Backend(format!(
            "shard {index} returned {} reports for {len} frames",
            report.reports.len()
        )));
    }
    Ok(report.reports)
}

/// Checks that every frame report of program shard `index`'s reply has
/// the shape `program` gives on `width × height` frames: one stage
/// report per stage, of that stage's kind; per conv stage one
/// `(height − k + 1) × (width − k + 1)` map per kernel; per dense stage
/// one output per row; and a final output as long as the last of
/// `lens` ([`LayerProgram::output_lens`]). A well-formed reply of any
/// other shape would otherwise merge into the caller's results.
fn check_program_reports(
    program: &LayerProgram,
    lens: &[usize],
    (width, height): (usize, usize),
    index: u32,
    reports: &[ProgramFrameReport],
) -> BackendResult<()> {
    let stage_fits = |stage: &Stage, got: &StageReport| match (stage, got) {
        (Stage::Conv { k, kernels }, StageReport::Conv(conv)) => {
            // `output_lens` checked that the kernel fits the frame.
            let (out_h, out_w) = (height + 1 - k, width + 1 - k);
            conv.out_h == out_h
                && conv.out_w == out_w
                && conv.output.len() == kernels.len()
                && conv.output.iter().all(|map| map.len() == out_h * out_w)
        }
        (Stage::Dense { rows, .. }, StageReport::Dense(dense)) => dense.output.len() == *rows,
        (Stage::Quantize(_), StageReport::Quantize)
        | (Stage::Activation(_), StageReport::Activation) => true,
        _ => false,
    };
    let fits = |report: &ProgramFrameReport| {
        report.stages.len() == program.stages.len()
            && report.output.len() == lens.last().copied().unwrap_or(0)
            && program
                .stages
                .iter()
                .zip(&report.stages)
                .all(|(stage, got)| stage_fits(stage, got))
    };
    match reports.iter().position(|report| !fits(report)) {
        Some(frame) => Err(OisaError::Backend(format!(
            "program shard {index} frame {frame} does not match the program's shape"
        ))),
        None => Ok(()),
    }
}

impl ComputeBackend for ShardedBackend {
    fn config(&self) -> &OisaConfig {
        &self.config
    }

    /// [`ShardedBackend::run_job_with_recovery`] under the
    /// no-recovery policy: the first transport failure aborts the job
    /// (the caller repairs the fleet and retries). Both paths share
    /// one planner, dispatcher and merge, so their results are
    /// bit-identical by construction.
    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        self.run_job_with_recovery(job, &mut |_label, _error| Recovery::Abort)
    }

    /// [`ShardedBackend::run_program_with_recovery`] under the
    /// no-recovery policy, exactly mirroring
    /// [`ComputeBackend::run_job`] above.
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        self.run_program_with_recovery(job, &mut |_label, _error| Recovery::Abort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn shard_planning_partitions_frames_epochs_and_entry_states() {
        let mut backend = ShardedBackend::in_process(cfg(6), 3).unwrap();
        let job = InferenceJob {
            job_id: 9,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(7),
        };
        let shards = backend.plan_shards(&job);
        assert_eq!(shards.len(), 3);
        // Every shard carries the job as the one-stage conv program.
        for shard in &shards {
            assert_eq!(shard.program, conv_program(&job));
        }
        // 7 frames over 3 workers: 3 + 2 + 2, contiguous.
        assert_eq!(
            shards.iter().map(|s| s.frames.len()).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        assert_eq!(
            shards.iter().map(|s| s.first_frame).collect::<Vec<_>>(),
            vec![0, 3, 5]
        );
        assert_eq!(
            shards.iter().map(|s| s.first_epoch).collect::<Vec<_>>(),
            vec![0, 3, 5]
        );
        // First shard of a fresh stream is cold; later shards are warm.
        assert_eq!(shards[0].entry, FabricEntry::Cold);
        assert_eq!(shards[1].entry, FabricEntry::WarmSelf);
        assert_eq!(shards[2].entry, FabricEntry::WarmSelf);
        // After a job, the first shard replays what it left staged:
        // the job's own kernels enter warm, other kernels enter from
        // the previous set. Epochs continue the stream.
        backend.commit(&conv_program(&job), job.frames.len());
        let again = backend.plan_shards(&job);
        assert_eq!(again[0].entry, FabricEntry::WarmSelf);
        assert_eq!(again[0].first_epoch, 7);
        let other = InferenceJob {
            kernels: vec![vec![-0.25f32; 9]; 2],
            ..job.clone()
        };
        let shards = backend.plan_shards(&other);
        assert_eq!(
            shards[0].entry,
            FabricEntry::Warm {
                k: 3,
                kernels: job.kernels.clone(),
            }
        );
        assert_eq!(shards[1].entry, FabricEntry::WarmSelf);
        // More workers than frames engages only as many as there are
        // frames.
        let tiny = InferenceJob {
            frames: frames(2),
            ..job
        };
        let shards = backend.plan_shards(&tiny);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].shard_count, 2);
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
        let shard = ProgramShard {
            job_id: 3,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 0,
            config_fingerprint: coordinator_fp,
            entry: FabricEntry::Cold,
            program: conv_program(&job),
            frames: frames(1),
        };
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
        let mut backend = ShardedBackend::new(cfg(7), vec![Box::new(transport)]).unwrap();
        assert_eq!(
            backend.run_job(&job).unwrap_err(),
            OisaError::FingerprintMismatch {
                coordinator: coordinator_fp,
                worker: worker_fp,
            }
        );
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

    #[test]
    fn empty_fleet_and_empty_job_are_rejected() {
        assert!(ShardedBackend::new(cfg(9), Vec::new()).is_err());
        let mut backend = ShardedBackend::in_process(cfg(9), 2).unwrap();
        let empty = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: Vec::new(),
        };
        assert!(backend.run_job(&empty).is_err());
        let wrong_dims = InferenceJob {
            job_id: 2,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: vec![Frame::constant(8, 8, 0.5).unwrap()],
        };
        assert!(backend.run_job(&wrong_dims).is_err());
        // Failed jobs consumed no epochs.
        assert_eq!(backend.next_epoch, 0);
    }
}
