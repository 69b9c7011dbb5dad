//! [`FleetSupervisor`] — the one coordinator: it shards each job over
//! a fleet of workers, merges their reports bit-identically to one
//! sequential loop, health-checks the fleet and heals it when a worker
//! fails.
//!
//! **Sharding.** Each job's frames split into contiguous `(frame,
//! epoch)` ranges, one [`ProgramShard`](crate::wire::ProgramShard) per
//! engaged worker, dispatched concurrently. Every reply is checked —
//! echo fields against the planned range, frame reports against the
//! program's shape — before anything merges, and the epoch cursor and
//! fabric entry state advance only after every shard merged (the
//! [backend module docs](super) state the determinism contract).
//!
//! **Failure.** The supervisor owns N **active** workers plus M
//! **spare** transports, and climbs one escalation ladder whenever a
//! worker's transport fails ([`OisaError::Transport`]) mid-job or a
//! worker fails its health probe:
//!
//! 1. **Quarantine** — the failed endpoint is recorded (label + error)
//!    and never dialed again by this supervisor.
//! 2. **Promote** — a spare is admission-checked (a liveness ping that
//!    must return the coordinator's config fingerprint) and swapped
//!    into the failed slot; the failed shard re-runs on it. A spare
//!    that fails admission is quarantined too. A worker started with
//!    other physics joins through
//!    [`TcpTransport::connect_with_config`](super::TcpTransport::connect_with_config),
//!    whose handshake pushes this config on every connection, so it
//!    answers the ping with this coordinator's fingerprint.
//! 3. **Re-plan** — with no admissible spare left, the failed worker is
//!    dropped and its frame range is re-split across the survivors; the
//!    *current job* continues on the shrunken fleet.
//!
//! The last worker has nowhere to go: it stays in the fleet, and the
//! caller gets its own typed error with no coordinator state advanced,
//! so the job can be retried on the same coordinator once the worker is
//! back (a daemon restarted at the same endpoint). Any other failure —
//! a refusal, a fingerprint mismatch, a reply of the wrong shape —
//! fails the job at once, because another worker would answer the same.
//!
//! The ladder never changes results: workers are stateless per shard
//! and shard boundaries never affect the merged stream, so a job that
//! survives any sequence of promotions and re-plans merges
//! **bit-identical** to a single-machine sequential run — the property
//! the tests below pin.
//!
//! Health checks run between jobs, not on a background thread:
//! transports are `Send` but the supervisor is driven from one
//! coordinator thread, so each job probes the active workers first
//! whenever [`SupervisorOptions::health_interval`] has elapsed, and
//! [`FleetSupervisor::health_check_now`] forces a sweep. A hung worker
//! (accepting but never replying) fails its probe within the
//! transport's bounded `attempts × io_timeout` budget and is
//! quarantined like a dead one.

use std::time::{Duration, Instant};

use crate::accelerator::{ConvolutionReport, OisaConfig};
use crate::error::OisaError;
use crate::program::{
    check_job, conv_job, JobPlan, LayerProgram, ProgramFrameReport, Stage, StageReport,
};
use crate::wire::{self, FabricEntry, InferenceJob, ProgramJob, ProgramShardRef, WireMessage};
use oisa_sensor::frame::Frame;

use super::{
    message_name, refusal_to_error, BackendResult, ComputeBackend, InProcessWorker, ShardTransport,
};

/// Operating knobs of a [`FleetSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Probe the active workers when at least this much time has passed
    /// since the last sweep (each job checks lazily before
    /// dispatching). `None` disables interval checks;
    /// [`FleetSupervisor::health_check_now`] still works.
    pub health_interval: Option<Duration>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            health_interval: Some(Duration::from_secs(10)),
        }
    }
}

/// One quarantined endpoint: who failed and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// The failed worker's [`ShardTransport::endpoint_label`].
    pub label: String,
    /// The rendered failure that triggered the quarantine.
    pub error: String,
}

/// A point-in-time summary of the supervised fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStatus {
    /// Workers currently serving shards.
    pub active: usize,
    /// Spares still available for promotion.
    pub spares: usize,
    /// Endpoints quarantined so far.
    pub quarantined: usize,
    /// Spares promoted into active duty so far.
    pub promotions: u64,
    /// Re-plans so far: each dropped a failed worker from the fleet.
    pub replans: u64,
}

/// The coordinator (module docs). It is a [`ComputeBackend`], so a
/// [`ServingEngine`](crate::serving::ServingEngine) can run on top of a
/// fleet unchanged.
///
/// # Examples
///
/// Supervise two in-process workers with one spare on the bench, run
/// a job and read the fleet counters:
///
/// ```
/// use oisa_core::backend::{
///     ComputeBackend, FleetSupervisor, InProcessWorker, ShardTransport, SupervisorOptions,
/// };
/// use oisa_core::wire::InferenceJob;
/// use oisa_core::OisaConfig;
/// use oisa_sensor::Frame;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = OisaConfig::small_test();
/// let worker = |_| Box::new(InProcessWorker::new(config)) as Box<dyn ShardTransport>;
/// let mut fleet = FleetSupervisor::new(
///     config,
///     (0..2).map(worker).collect(), // active
///     (0..1).map(worker).collect(), // spares
///     SupervisorOptions::default(),
/// )?;
///
/// let job = InferenceJob {
///     job_id: 1,
///     k: 3,
///     kernels: vec![vec![0.25f32; 9]],
///     frames: vec![Frame::constant(16, 16, 0.6)?; 4],
/// };
/// let reports = fleet.run_job(&job)?; // sharded over the active pair
/// assert_eq!(reports.len(), 4);
///
/// let status = fleet.status();
/// assert_eq!((status.active, status.spares), (2, 1)); // nothing failed
/// assert_eq!(status.promotions + status.replans, 0);
/// # Ok(())
/// # }
/// ```
pub struct FleetSupervisor {
    config: OisaConfig,
    fingerprint: u64,
    workers: Vec<Box<dyn ShardTransport>>,
    spares: Vec<Box<dyn ShardTransport>>,
    quarantined: Vec<QuarantineEvent>,
    promotions: u64,
    replans: u64,
    nonce: u64,
    /// Absolute epoch of the next job's first frame.
    next_epoch: u64,
    /// The kernel set the fabric "holds" between jobs — what a
    /// sequential host's fabric would hold — so the next conv job's
    /// first shard can reproduce its entry-state tuning cost.
    last_staged: Option<(usize, Vec<Vec<f32>>)>,
    jobs_run: u64,
    options: SupervisorOptions,
    last_sweep: Option<Instant>,
}

impl std::fmt::Debug for FleetSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSupervisor")
            .field("active", &self.workers.len())
            .field("spares", &self.spares.len())
            .field("quarantined", &self.quarantined)
            .field("promotions", &self.promotions)
            .field("replans", &self.replans)
            .field("next_epoch", &self.next_epoch)
            .field("jobs_run", &self.jobs_run)
            .finish_non_exhaustive()
    }
}

impl FleetSupervisor {
    /// Supervises `active` workers with `spares` on the bench, all
    /// executing under `config`.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] for an empty active fleet.
    pub fn new(
        config: OisaConfig,
        active: Vec<Box<dyn ShardTransport>>,
        spares: Vec<Box<dyn ShardTransport>>,
        options: SupervisorOptions,
    ) -> BackendResult<Self> {
        if active.is_empty() {
            return Err(OisaError::Backend(
                "a fleet needs at least one active worker".into(),
            ));
        }
        Ok(Self {
            config,
            fingerprint: config.fingerprint(),
            workers: active,
            spares,
            quarantined: Vec::new(),
            promotions: 0,
            replans: 0,
            nonce: 0,
            next_epoch: 0,
            last_staged: None,
            jobs_run: 0,
            options,
            last_sweep: None,
        })
    }

    /// A fleet of `workers` in-process workers and no spares, with the
    /// default options (tests, benches, single-host parallelism over
    /// the wire path).
    ///
    /// # Errors
    ///
    /// As [`FleetSupervisor::new`].
    pub fn in_process(config: OisaConfig, workers: usize) -> BackendResult<Self> {
        let fleet = (0..workers)
            .map(|_| Box::new(InProcessWorker::new(config)) as Box<dyn ShardTransport>)
            .collect();
        Self::new(config, fleet, Vec::new(), SupervisorOptions::default())
    }

    /// The current fleet shape and recovery counters.
    #[must_use]
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            active: self.workers.len(),
            spares: self.spares.len(),
            quarantined: self.quarantined.len(),
            promotions: self.promotions,
            replans: self.replans,
        }
    }

    /// Every quarantine recorded so far, oldest first.
    #[must_use]
    pub fn quarantine_log(&self) -> &[QuarantineEvent] {
        &self.quarantined
    }

    /// Jobs merged so far.
    #[must_use]
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Probes every active worker now (liveness ping + fingerprint
    /// check) and climbs the escalation ladder for each that fails.
    /// Returns how many workers failed this sweep.
    ///
    /// # Errors
    ///
    /// The last worker's own probe error when it fails with no
    /// admissible spare left; the worker stays in the fleet.
    pub fn health_check_now(&mut self) -> BackendResult<usize> {
        self.last_sweep = Some(Instant::now());
        let mut failed = 0usize;
        // Descending order: removals never shift a slot still waiting
        // to be probed.
        for slot in (0..self.workers.len()).rev() {
            let nonce = self.next_nonce();
            if let Err(error) =
                probe_transport(self.workers[slot].as_mut(), self.fingerprint, nonce)
            {
                failed += 1;
                self.escalate(slot, error)?;
            }
        }
        Ok(failed)
    }

    /// Runs the interval sweep if it is due.
    fn maybe_sweep(&mut self) -> BackendResult<()> {
        let Some(interval) = self.options.health_interval else {
            return Ok(());
        };
        let due = self.last_sweep.is_none_or(|at| at.elapsed() >= interval);
        if due {
            self.health_check_now()?;
        }
        Ok(())
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce = self.nonce.wrapping_add(1);
        self.nonce
    }

    /// Pops spares off the bench until one passes admission, a probe
    /// that must return this coordinator's fingerprint. A spare that
    /// fails admission is quarantined. `None` once the bench is empty.
    fn admit_spare(&mut self) -> Option<Box<dyn ShardTransport>> {
        while let Some(mut spare) = self.spares.pop() {
            let nonce = self.next_nonce();
            match probe_transport(spare.as_mut(), self.fingerprint, nonce) {
                Ok(()) => return Some(spare),
                Err(e) => self.quarantined.push(QuarantineEvent {
                    label: spare.endpoint_label(),
                    error: format!("spare failed admission: {e}"),
                }),
            }
        }
        None
    }

    /// The escalation ladder (module docs) for the worker in `slot`,
    /// which failed with `error`: an admissible spare takes the slot,
    /// or else the worker is dropped so the next round re-plans across
    /// the survivors; either way the worker is quarantined.
    ///
    /// # Errors
    ///
    /// `error` itself when the worker is the last one and no spare is
    /// admissible; the worker then stays in the fleet.
    fn escalate(&mut self, slot: usize, error: OisaError) -> BackendResult<()> {
        let event = QuarantineEvent {
            label: self.workers[slot].endpoint_label(),
            error: error.to_string(),
        };
        // The failed worker's event goes before any spare's.
        let at = self.quarantined.len();
        match self.admit_spare() {
            Some(spare) => {
                self.workers[slot] = spare;
                self.promotions += 1;
            }
            None if self.workers.len() > 1 => {
                self.workers.remove(slot);
                self.replans += 1;
            }
            None => return Err(error),
        }
        self.quarantined.insert(at, event);
        Ok(())
    }

    /// The fabric entry state of a conv job's first shard (backend
    /// module docs, mechanism 2): what the previous job left staged.
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

    /// Advances the coordinator past a merged job of `frames` frames
    /// through `program` — only ever after every shard merged, so a
    /// failed job consumes nothing and a retry re-executes identically.
    /// A program with no dense stage leaves its conv kernels staged;
    /// any other program leaves nothing the entry states model (backend
    /// module docs).
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

    /// The body both job kinds share: the job check every backend makes
    /// ([`check_job`]), before anything is sent, then any due health
    /// sweep, then rounds until every frame merged. Each round covers the
    /// frame ranges not yet merged with at most one shard per worker
    /// (shard `i` to worker `i`), dispatches them concurrently and
    /// settles every reply (echo fields, then shape against the
    /// program). A shard whose transport failed climbs the escalation
    /// ladder ([`FleetSupervisor::escalate`]) and its range rejoins the
    /// pending set for the next round; any other failure fails the job.
    /// Merges in frame order and advances **no** coordinator state.
    fn run_plan(
        &mut self,
        job_id: u64,
        program: &LayerProgram,
        frames: &[Frame],
        entry: FabricEntry,
    ) -> BackendResult<Vec<ProgramFrameReport>> {
        let checked = check_job(&self.config, program, frames)?;
        self.maybe_sweep()?;
        let plan = ShardPlan {
            job_id,
            program,
            frames,
            entry,
            base_epoch: self.next_epoch,
            fingerprint: self.fingerprint,
        };
        let n = frames.len();
        // Frame ranges not yet merged, kept sorted and disjoint.
        let mut pending: Vec<(usize, usize)> = vec![(0, n)];
        let mut collected: Vec<(usize, Vec<ProgramFrameReport>)> = Vec::new();
        let mut shard_seq = 0u32;
        while !pending.is_empty() {
            let round_ranges = cover(&mut pending, self.workers.len());
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
            // climb the ladder and their ranges go back to pending.
            // Failed slots are handled in descending index order so
            // removals cannot shift a slot that still needs handling.
            let mut failures: Vec<(usize, OisaError)> = Vec::new();
            for (slot, (&(start, len, index), reply)) in round.iter().zip(replies).enumerate() {
                let settled = reply
                    .and_then(|payload| settle_reply(job_id, start, len, index, &payload))
                    .and_then(|reports| {
                        check_program_reports(program, &checked, index, &reports)?;
                        Ok(reports)
                    });
                match settled {
                    Ok(reports) => collected.push((start, reports)),
                    Err(e @ OisaError::Transport { .. }) => failures.push((slot, e)),
                    Err(other) => return Err(other),
                }
            }
            for (slot, error) in failures.into_iter().rev() {
                let (start, len, _) = round[slot];
                self.escalate(slot, error)?;
                pending.push((start, len));
            }
            pending.sort_unstable();
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

impl ComputeBackend for FleetSupervisor {
    fn config(&self) -> &OisaConfig {
        &self.config
    }

    /// Runs the job as the one-stage program `[Stage::Conv { k, kernels }]`,
    /// its first shard entering the fabric state the previous job left
    /// (backend module docs, mechanism 2), and returns each frame's conv
    /// stage report. A worker lost mid-job is healed around (module
    /// docs), so the merged stream is bit-identical to the no-failure
    /// run.
    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        let program = conv_job(job.k, &job.kernels);
        let entry = self.entry_for(job);
        let merged = self.run_plan(job.job_id, &program, &job.frames, entry)?;
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

    /// Runs the program with every shard entering
    /// [`FabricEntry::WarmSelf`], behind the same escalation ladder as
    /// [`run_job`](ComputeBackend::run_job).
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        let merged = self.run_plan(job.job_id, &job.program, &job.frames, FabricEntry::WarmSelf)?;
        self.commit(&job.program, job.frames.len());
        Ok(merged)
    }
}

/// Cuts one round off the `pending` frame ranges for a fleet of
/// `fleet` workers: at most one shard per worker, each range getting a
/// worker share proportional to its length (at least one) and
/// splitting contiguously. Ranges beyond the fleet size stay in
/// `pending` for the next round.
fn cover(pending: &mut Vec<(usize, usize)>, fleet: usize) -> Vec<(usize, usize)> {
    if pending.len() >= fleet {
        let leftover = pending.split_off(fleet);
        return std::mem::replace(pending, leftover);
    }
    let mut shares = vec![1usize; pending.len()];
    for _ in pending.len()..fleet {
        let (widest, _) = shares
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| pending[i].1 / s)
            .expect("pending is non-empty");
        shares[widest] += 1;
    }
    pending
        .drain(..)
        .zip(shares)
        .flat_map(|((start, len), share)| {
            let mut at = start;
            split_count(len, share.min(len))
                .into_iter()
                .map(move |piece| {
                    at += piece;
                    (at - piece, piece)
                })
        })
        .collect()
}

/// What every shard of one job shares, fixed before the first round.
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
    /// boundaries never affect results (backend module docs), so *any*
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

/// Splits `n` items into `parts` contiguous counts, largest first —
/// the partition both the initial plan and every re-plan use.
fn split_count(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// The [`WireMessage::Ping`]/[`WireMessage::Pong`] probe over any
/// [`ShardTransport`] — the health sweep's check and a spare's
/// admission: the Pong must echo `nonce` and carry `fingerprint`, the
/// coordinator's physics.
///
/// # Errors
///
/// Transport failures from the round trip;
/// [`OisaError::FingerprintMismatch`] when the worker runs other
/// physics; [`OisaError::Backend`] for a non-Pong reply or a stale
/// nonce.
fn probe_transport(
    worker: &mut dyn ShardTransport,
    fingerprint: u64,
    nonce: u64,
) -> BackendResult<()> {
    let ping = wire::encode(&WireMessage::Ping(wire::Handshake {
        nonce,
        config_fingerprint: fingerprint,
    }));
    let reply = worker.round_trip(&ping)?;
    match wire::decode(&reply)? {
        WireMessage::Pong(pong) if pong.nonce != nonce => Err(OisaError::Backend(format!(
            "worker answered the ping with a stale nonce ({} ≠ {nonce})",
            pong.nonce
        ))),
        WireMessage::Pong(pong) if pong.config_fingerprint != fingerprint => {
            Err(OisaError::FingerprintMismatch {
                coordinator: fingerprint,
                worker: pong.config_fingerprint,
            })
        }
        WireMessage::Pong(_) => Ok(()),
        other => Err(OisaError::Backend(format!(
            "worker answered the ping with a {}",
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
/// the shape `program` gives under `plan`, its job check's: one stage
/// report per stage, of that stage's kind; per conv stage one map per
/// kernel of the planned size; per dense stage one output per row; and
/// a final output of the program's output length. A well-formed reply
/// of any other shape would otherwise merge into the caller's results.
fn check_program_reports(
    program: &LayerProgram,
    plan: &JobPlan,
    index: u32,
    reports: &[ProgramFrameReport],
) -> BackendResult<()> {
    let stage_fits = |stage: &Stage, got: &StageReport| match (stage, got) {
        (Stage::Conv { kernels, .. }, StageReport::Conv(conv)) => plan.conv().is_ok_and(|p| {
            (conv.out_h, conv.out_w) == (p.out_h, p.out_w)
                && conv.output.len() == kernels.len()
                && conv.output.iter().all(|map| map.len() == p.out_h * p.out_w)
        }),
        (Stage::Dense { rows, .. }, StageReport::Dense(dense)) => dense.output.len() == *rows,
        (Stage::Quantize(_), StageReport::Quantize)
        | (Stage::Activation(_), StageReport::Activation) => true,
        _ => false,
    };
    let fits = |report: &ProgramFrameReport| {
        report.stages.len() == program.stages.len()
            && report.output.len() == plan.output_len
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use crate::backend::tcp::{TcpTransport, TcpTransportConfig, TcpWorker};
    use crate::backend::LocalBackend;
    use crate::wire::ProgramShard;
    use oisa_device::noise::NoiseConfig;

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
                    .map(|i| ((i * (f + 5)) % 23) as f64 / 23.0)
                    .collect();
                Frame::new(16, 16, data).unwrap()
            })
            .collect()
    }

    fn job(frames_n: usize) -> InferenceJob {
        InferenceJob {
            job_id: 77,
            k: 3,
            kernels: vec![vec![0.5f32; 9], vec![-0.125f32; 9]],
            frames: frames(frames_n),
        }
    }

    /// A worker that serves correctly until it has accepted
    /// `shards_before_death` shards, then dies and stays dead — every
    /// later round trip (shards *and* pings) fails like a crashed
    /// process would.
    struct DoomedWorker {
        inner: InProcessWorker,
        shards_before_death: u64,
        served: u64,
        dead: bool,
        label: String,
    }

    impl DoomedWorker {
        fn new(config: OisaConfig, shards_before_death: u64, label: &str) -> Self {
            Self {
                inner: InProcessWorker::new(config),
                shards_before_death,
                served: 0,
                dead: false,
                label: label.to_string(),
            }
        }
    }

    impl ShardTransport for DoomedWorker {
        fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
            if !self.dead && matches!(wire::decode(message), Ok(WireMessage::ProgramShard(_))) {
                if self.served >= self.shards_before_death {
                    self.dead = true;
                } else {
                    self.served += 1;
                }
            }
            if self.dead {
                return Err(OisaError::Transport {
                    endpoint: self.label.clone(),
                    attempts: 1,
                    cause: "injected worker death".into(),
                });
            }
            self.inner.round_trip(message)
        }

        fn endpoint_label(&self) -> String {
            self.label.clone()
        }
    }

    fn oracle(config: OisaConfig, the_job: &InferenceJob) -> Vec<ConvolutionReport> {
        let mut local = LocalBackend::new(config).unwrap();
        local.run_job(the_job).unwrap()
    }

    fn program_job(frames_n: usize) -> ProgramJob {
        ProgramJob {
            job_id: 78,
            program: crate::program::LayerProgram::autoencoder(16, 16, 2, 4, 11).unwrap(),
            frames: frames(frames_n),
        }
    }

    /// The shard messages of a failure-free conv job, decoded — exactly
    /// what round one of [`FleetSupervisor::run_plan`] dispatches (same
    /// [`ShardPlan::shard`], same [`cover`]) — so tests can inspect the
    /// partitioning.
    fn plan_shards(fleet: &FleetSupervisor, job: &InferenceJob) -> Vec<ProgramShard> {
        let program = conv_job(job.k, &job.kernels);
        let plan = ShardPlan {
            job_id: job.job_id,
            program: &program,
            frames: &job.frames,
            entry: fleet.entry_for(job),
            base_epoch: fleet.next_epoch,
            fingerprint: fleet.fingerprint,
        };
        let round = cover(&mut vec![(0, job.frames.len())], fleet.workers.len());
        let count = u32::try_from(round.len()).unwrap();
        (0..)
            .zip(round)
            .map(|(index, (start, len))| {
                let bytes = wire::encode_program_shard_ref(&plan.shard(start, len, index, count));
                match wire::decode(&bytes) {
                    Ok(WireMessage::ProgramShard(shard)) => shard,
                    other => panic!("a planned shard must decode as one, got {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn shard_planning_partitions_frames_epochs_and_entry_states() {
        let mut fleet = FleetSupervisor::in_process(cfg(6), 3).unwrap();
        let job = InferenceJob {
            job_id: 9,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: frames(7),
        };
        let shards = plan_shards(&fleet, &job);
        assert_eq!(shards.len(), 3);
        // Every shard carries the job as the one-stage conv program.
        for shard in &shards {
            assert_eq!(shard.program, conv_job(job.k, &job.kernels));
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
        fleet.commit(&conv_job(job.k, &job.kernels), job.frames.len());
        let again = plan_shards(&fleet, &job);
        assert_eq!(again[0].entry, FabricEntry::WarmSelf);
        assert_eq!(again[0].first_epoch, 7);
        let other = InferenceJob {
            kernels: vec![vec![-0.25f32; 9]; 2],
            ..job.clone()
        };
        let shards = plan_shards(&fleet, &other);
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
        let shards = plan_shards(&fleet, &tiny);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].shard_count, 2);
    }

    #[test]
    fn empty_fleet_and_empty_job_are_rejected() {
        let options = SupervisorOptions::default();
        assert!(FleetSupervisor::new(cfg(9), Vec::new(), Vec::new(), options).is_err());
        let mut fleet = FleetSupervisor::in_process(cfg(9), 2).unwrap();
        let empty = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: Vec::new(),
        };
        assert!(fleet.run_job(&empty).is_err());
        let wrong_dims = InferenceJob {
            job_id: 2,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: vec![Frame::constant(8, 8, 0.5).unwrap()],
        };
        assert!(fleet.run_job(&wrong_dims).is_err());
        // Failed jobs consumed no epochs.
        assert_eq!(fleet.next_epoch, 0);
    }

    /// Layer programs ride the same escalation ladder as conv jobs: a
    /// worker death mid-program promotes the spare, a second death
    /// re-plans, and the merged per-frame reports stay bit-identical
    /// to a local sequential forward.
    #[test]
    fn program_failover_promotes_then_replans_bit_identically() {
        let config = cfg(45);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(DoomedWorker::new(config, 0, "doomed-prog")),
        ];
        // The spare pings fine but dies on its first program shard:
        // the ladder must climb promote → re-plan, like for conv jobs.
        let spares: Vec<Box<dyn ShardTransport>> =
            vec![Box::new(DoomedWorker::new(config, 0, "doomed-prog-spare"))];
        let mut supervisor =
            FleetSupervisor::new(config, active, spares, SupervisorOptions::default()).unwrap();
        let the_job = program_job(6);
        let reports = supervisor.run_program(&the_job).unwrap();
        let mut local = LocalBackend::new(config).unwrap();
        assert_eq!(
            reports,
            local.run_program(&the_job).unwrap(),
            "program failover must not change results"
        );
        let status = supervisor.status();
        assert_eq!(status.promotions, 1, "{status:?}");
        assert_eq!(status.replans, 1, "{status:?}");
        assert_eq!(status.quarantined, 2, "{status:?}");
    }

    #[test]
    fn worker_death_mid_job_promotes_a_spare_bit_identically() {
        let config = cfg(40);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(DoomedWorker::new(config, 0, "doomed-1")),
            Box::new(InProcessWorker::new(config)),
        ];
        let spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(InProcessWorker::new(config))];
        let mut supervisor =
            FleetSupervisor::new(config, active, spares, SupervisorOptions::default()).unwrap();
        let the_job = job(9);
        let reports = supervisor.run_job(&the_job).unwrap();
        assert_eq!(
            reports,
            oracle(config, &the_job),
            "failover must not change results"
        );
        let status = supervisor.status();
        assert_eq!(status.promotions, 1, "{status:?}");
        assert_eq!(status.replans, 0, "{status:?}");
        assert_eq!(status.active, 3, "spare took the dead slot: {status:?}");
        assert_eq!(status.spares, 0, "{status:?}");
        assert_eq!(supervisor.quarantine_log().len(), 1);
        assert_eq!(supervisor.quarantine_log()[0].label, "doomed-1");
    }

    #[test]
    fn spare_exhaustion_replans_across_survivors_bit_identically() {
        let config = cfg(41);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(DoomedWorker::new(config, 0, "doomed-a")),
            Box::new(DoomedWorker::new(config, 0, "doomed-b")),
        ];
        let mut supervisor =
            FleetSupervisor::new(config, active, Vec::new(), SupervisorOptions::default()).unwrap();
        let the_job = job(11);
        let reports = supervisor.run_job(&the_job).unwrap();
        assert_eq!(
            reports,
            oracle(config, &the_job),
            "re-plan must not change results"
        );
        let status = supervisor.status();
        assert_eq!(status.promotions, 0, "{status:?}");
        assert_eq!(status.replans, 2, "{status:?}");
        assert_eq!(status.active, 1, "two of three quarantined: {status:?}");
        assert_eq!(status.quarantined, 2, "{status:?}");
    }

    #[test]
    fn promotion_then_replan_when_the_spare_dies_too() {
        let config = cfg(42);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(DoomedWorker::new(config, 0, "doomed-active")),
        ];
        // The spare passes admission (pings fine) but dies on its
        // first shard: the ladder must climb promote → re-plan.
        let spares: Vec<Box<dyn ShardTransport>> =
            vec![Box::new(DoomedWorker::new(config, 0, "doomed-spare"))];
        let mut supervisor =
            FleetSupervisor::new(config, active, spares, SupervisorOptions::default()).unwrap();
        let the_job = job(6);
        let reports = supervisor.run_job(&the_job).unwrap();
        assert_eq!(reports, oracle(config, &the_job));
        let status = supervisor.status();
        assert_eq!(status.promotions, 1, "{status:?}");
        assert_eq!(status.replans, 1, "{status:?}");
        assert_eq!(status.active, 1, "{status:?}");
        assert_eq!(status.quarantined, 2, "{status:?}");
    }

    /// A worker that fails its next `outage` shard round trips, then
    /// serves again — a daemon restarted at the same endpoint.
    struct RestartedWorker {
        inner: InProcessWorker,
        outage: u64,
    }

    impl ShardTransport for RestartedWorker {
        fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
            if self.outage > 0 && matches!(wire::decode(message), Ok(WireMessage::ProgramShard(_)))
            {
                self.outage -= 1;
                return Err(OisaError::Transport {
                    endpoint: "restarted".into(),
                    attempts: 1,
                    cause: "injected daemon restart".into(),
                });
            }
            self.inner.round_trip(message)
        }

        fn endpoint_label(&self) -> String {
            "restarted".into()
        }
    }

    #[test]
    fn losing_every_worker_is_a_typed_error_and_a_retry_succeeds() {
        let config = cfg(43);
        // Both workers fail the job's first round: the doomed one for
        // good, the other only until its daemon restarts.
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(RestartedWorker {
                inner: InProcessWorker::new(config),
                outage: 1,
            }),
            Box::new(DoomedWorker::new(config, 0, "doomed")),
        ];
        let mut supervisor =
            FleetSupervisor::new(config, active, Vec::new(), SupervisorOptions::default()).unwrap();
        let the_job = job(4);
        let err = supervisor.run_job(&the_job).unwrap_err();
        // The doomed worker is re-planned away; the last worker stays
        // in the fleet and its own transport error comes back.
        assert!(
            matches!(err, OisaError::Transport { ref endpoint, .. } if endpoint == "restarted"),
            "{err}"
        );
        assert_eq!(supervisor.jobs_run(), 0);
        let status = supervisor.status();
        assert_eq!(status.active, 1, "{status:?}");
        assert_eq!(status.replans, 1, "only the drop counts: {status:?}");
        assert_eq!(status.quarantined, 1, "{status:?}");
        // No state advanced on failure: a retry on the same coordinator
        // merges bit-identically.
        assert_eq!(
            supervisor.run_job(&the_job).unwrap(),
            oracle(config, &the_job)
        );
        assert_eq!(supervisor.jobs_run(), 1);
    }

    /// A health sweep that fails the last worker has nowhere to
    /// escalate: the worker stays, unquarantined, and its own error
    /// comes back.
    #[test]
    fn a_health_sweep_that_fails_the_last_worker_returns_its_error() {
        let config = cfg(48);
        let dead = DoomedWorker {
            dead: true,
            ..DoomedWorker::new(config, 0, "dead")
        };
        let mut supervisor = FleetSupervisor::new(
            config,
            vec![Box::new(dead)],
            Vec::new(),
            SupervisorOptions::default(),
        )
        .unwrap();
        let err = supervisor.health_check_now().unwrap_err();
        assert!(
            matches!(err, OisaError::Transport { ref endpoint, .. } if endpoint == "dead"),
            "{err}"
        );
        let status = supervisor.status();
        assert_eq!(status.active, 1, "{status:?}");
        assert_eq!(
            status.quarantined + status.replans as usize,
            0,
            "{status:?}"
        );
    }

    /// Admission checks physics: a spare built from another seed
    /// answers the probe with its own fingerprint, fails admission and
    /// is quarantined, and the job re-plans onto the healthy worker
    /// bit-identically. A health sweep drops an active worker of other
    /// physics the same way.
    #[test]
    fn a_spare_of_other_physics_fails_admission_and_the_job_replans() {
        let config = cfg(49);
        let other = cfg(50);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(DoomedWorker::new(config, 0, "doomed")),
        ];
        let spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(InProcessWorker::new(other))];
        let mut supervisor =
            FleetSupervisor::new(config, active, spares, SupervisorOptions::default()).unwrap();
        let the_job = job(5);
        assert_eq!(
            supervisor.run_job(&the_job).unwrap(),
            oracle(config, &the_job)
        );
        let status = supervisor.status();
        assert_eq!(status.promotions, 0, "{status:?}");
        assert_eq!(status.replans, 1, "{status:?}");
        assert_eq!((status.active, status.spares), (1, 0), "{status:?}");
        let log = supervisor.quarantine_log();
        assert_eq!(log.len(), 2, "{log:?}");
        assert_eq!(log[0].label, "doomed");
        assert_eq!(log[1].label, "in-process");
        assert!(log[1].error.contains("fingerprint"), "{log:?}");

        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(InProcessWorker::new(other)),
        ];
        let mut supervisor =
            FleetSupervisor::new(config, active, Vec::new(), SupervisorOptions::default()).unwrap();
        assert_eq!(supervisor.health_check_now().unwrap(), 1);
        assert_eq!(supervisor.status().active, 1);
        assert!(
            supervisor.quarantine_log()[0].error.contains("fingerprint"),
            "{:?}",
            supervisor.quarantine_log()
        );
    }

    /// A failure that is not the transport's — here a worker of other
    /// physics refusing its shard — fails the job at once: no rung of
    /// the ladder is climbed and no coordinator state advances.
    #[test]
    fn a_refused_shard_fails_the_job_without_climbing_the_ladder() {
        let config = cfg(51);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(InProcessWorker::new(cfg(52))),
        ];
        let spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(InProcessWorker::new(config))];
        // No sweep, so the mismatch meets a shard, not a probe.
        let options = SupervisorOptions {
            health_interval: None,
        };
        let mut supervisor = FleetSupervisor::new(config, active, spares, options).unwrap();
        let err = supervisor.run_job(&job(4)).unwrap_err();
        assert!(
            matches!(err, OisaError::FingerprintMismatch { .. }),
            "{err}"
        );
        let status = supervisor.status();
        assert_eq!((status.active, status.spares), (2, 1), "{status:?}");
        assert_eq!(status.quarantined, 0, "{status:?}");
        assert_eq!(status.promotions + status.replans, 0, "{status:?}");
        assert_eq!((supervisor.jobs_run(), supervisor.next_epoch), (0, 0));
    }

    #[test]
    fn health_check_quarantines_a_hung_tcp_worker_within_a_time_bound() {
        let config = cfg(44);
        let live = TcpWorker::bind(config, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        // Accepts connections, never replies: a hung worker.
        let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let hung_addr = hung.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = hung.accept() {
                held.push(stream);
            }
        });
        let options = TcpTransportConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(Duration::from_millis(200)),
            attempts: 2,
            backoff: Duration::from_millis(5),
        };
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(
                TcpTransport::connect(live.endpoint(), config.fingerprint(), options).unwrap(),
            ),
            // Deferred, so the probe's own connection meets the hang in
            // its handshake.
            Box::new(TcpTransport::deferred(
                hung_addr.clone(),
                config.fingerprint(),
                options,
            )),
        ];
        let mut supervisor =
            FleetSupervisor::new(config, active, Vec::new(), SupervisorOptions::default()).unwrap();
        let started = std::time::Instant::now();
        let failed = supervisor.health_check_now().unwrap();
        let elapsed = started.elapsed();
        assert_eq!(failed, 1, "exactly the hung worker fails");
        assert!(
            elapsed < Duration::from_secs(5),
            "quarantine took {elapsed:?}, probe is not bounded"
        );
        let status = supervisor.status();
        assert_eq!(status.active, 1, "{status:?}");
        assert_eq!(status.quarantined, 1, "{status:?}");
        assert!(
            supervisor.quarantine_log()[0].label.contains(&hung_addr),
            "{:?}",
            supervisor.quarantine_log()
        );
    }

    /// A spare started with other physics joins through
    /// `connect_with_config`: its handshake pushes the coordinator's
    /// config, so it passes the fingerprint ping at admission and, once
    /// promoted, merges equal to the oracle.
    #[test]
    fn a_spare_of_other_physics_behind_connect_with_config_is_promoted() {
        let coordinator_cfg = cfg(45);
        let spare_cfg = cfg(46); // different physics on the spare
        assert_ne!(coordinator_cfg.fingerprint(), spare_cfg.fingerprint());
        let spare_daemon = TcpWorker::bind(spare_cfg, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        let spare = TcpTransport::connect_with_config(
            spare_daemon.endpoint(),
            coordinator_cfg,
            TcpTransportConfig::default(),
        )
        .unwrap();
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(coordinator_cfg)),
            Box::new(DoomedWorker::new(coordinator_cfg, 0, "doomed")),
        ];
        let mut supervisor = FleetSupervisor::new(
            coordinator_cfg,
            active,
            vec![Box::new(spare)],
            SupervisorOptions::default(),
        )
        .unwrap();
        let the_job = job(6);
        assert_eq!(
            supervisor.run_job(&the_job).unwrap(),
            oracle(coordinator_cfg, &the_job)
        );
        let status = supervisor.status();
        assert_eq!((status.promotions, status.replans), (1, 0), "{status:?}");
    }

    /// A worker daemon of `config`'s physics that answers each
    /// connection until its first shard, then drops the connection, as
    /// a daemon whose idle timeout fires between jobs would. Every
    /// connection starts from `config`, as a `TcpWorker`'s does.
    /// Returns the endpoint and the count of connections accepted.
    fn one_shard_per_connection(config: OisaConfig) -> (String, Arc<AtomicUsize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        let connections = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&connections);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                seen.fetch_add(1, Ordering::SeqCst);
                let mut worker = InProcessWorker::new(config);
                while let Ok(Some(request)) = wire::read_frame(&mut stream) {
                    let shard = matches!(wire::decode(&request), Ok(WireMessage::ProgramShard(_)));
                    let Ok(reply) = worker.round_trip(&request) else {
                        break;
                    };
                    if wire::write_frame(&mut stream, &reply).is_err() || shard {
                        break;
                    }
                }
            }
        });
        (endpoint, connections)
    }

    /// A worker of other physics behind `connect_with_config` keeps
    /// serving the coordinator's physics across a reconnect: the
    /// transport's handshake pushes the config again on every new
    /// connection, so the second job's shard never meets the daemon's
    /// own physics.
    #[test]
    fn connect_with_config_pushes_again_after_a_reconnect() {
        let coordinator_cfg = cfg(45);
        let (endpoint, connections) = one_shard_per_connection(cfg(46));
        let worker = TcpTransport::connect_with_config(
            endpoint,
            coordinator_cfg,
            TcpTransportConfig::default(),
        )
        .unwrap();
        let options = SupervisorOptions {
            health_interval: None,
        };
        let mut supervisor =
            FleetSupervisor::new(coordinator_cfg, vec![Box::new(worker)], Vec::new(), options)
                .unwrap();
        let mut local = LocalBackend::new(coordinator_cfg).unwrap();
        for the_job in [job(4), job(3)] {
            assert_eq!(
                supervisor.run_job(&the_job).unwrap(),
                local.run_job(&the_job).unwrap()
            );
        }
        assert!(connections.load(Ordering::SeqCst) >= 2);
        assert_eq!(supervisor.status().quarantined, 0);
    }
}
