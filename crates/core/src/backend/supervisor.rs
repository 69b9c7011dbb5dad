//! [`FleetSupervisor`] — hands-off operation of a sharded worker
//! fleet: health checks, automatic failover, and mid-job re-planning.
//!
//! The pre-supervisor deployment story required an operator in the
//! loop: a dead worker surfaced as [`OisaError::Transport`], a human
//! called
//! [`ShardedBackend::replace_worker`](super::ShardedBackend::replace_worker),
//! and the job was retried. The supervisor closes that loop. It owns
//! N **active** workers (inside a [`ShardedBackend`]) plus M **spare**
//! transports, and climbs an escalation ladder on every failure:
//!
//! 1. **Quarantine** — the failed endpoint is recorded (label + error)
//!    and never dialed again by this supervisor.
//! 2. **Promote** — a spare is admission-checked (liveness ping, or a
//!    config push when
//!    [`SupervisorOptions::push_config_to_spares`] is set) and swapped
//!    into the failed slot; the failed shard re-runs on it.
//! 3. **Re-plan** — with no admissible spare left, the failed shard's
//!    frame range is re-split across the surviving workers and the
//!    *current job* continues on the shrunken fleet.
//!
//! The ladder never changes results: workers are stateless per shard
//! and shard boundaries never affect the merged stream (see the
//! [backend module docs](super)), so a job that survives any sequence
//! of failovers and re-plans merges **bit-identical** to a
//! single-machine sequential run — the property the supervisor tests
//! pin.
//!
//! Health checks run between jobs, not on a background thread:
//! transports are `Send` but the supervisor is driven from one
//! coordinator thread, so [`FleetSupervisor::run_job`] probes idle
//! workers whenever [`SupervisorOptions::health_interval`] has
//! elapsed, and [`FleetSupervisor::health_check_now`] forces a sweep.
//! A hung worker (accepting but never replying) fails its probe within
//! the transport's bounded `attempts × io_timeout` budget and is
//! quarantined like a dead one.

use std::time::{Duration, Instant};

use crate::accelerator::{ConvolutionReport, OisaConfig};
use crate::error::OisaError;
use crate::program::ProgramFrameReport;
use crate::wire::{InferenceJob, ProgramJob};

use super::{
    probe_transport, push_config_to_transport, BackendResult, ComputeBackend, Recovery,
    ShardTransport, ShardedBackend,
};

/// Operating knobs of a [`FleetSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Probe idle workers when at least this much time has passed
    /// since the last sweep ([`FleetSupervisor::run_job`] checks
    /// lazily before dispatching). `None` disables interval checks;
    /// [`FleetSupervisor::health_check_now`] still works.
    pub health_interval: Option<Duration>,
    /// Admit spares (and newly supervised workers) with a config push
    /// instead of a fingerprint-checking ping — required for
    /// heterogeneous fleets whose spares were started with different
    /// physics.
    pub push_config_to_spares: bool,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            health_interval: Some(Duration::from_secs(10)),
            push_config_to_spares: false,
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
    /// Mid-job re-plans (fleet shrinks) so far.
    pub replans: u64,
}

/// Self-healing front end over a [`ShardedBackend`] (module docs). It
/// is itself a [`ComputeBackend`], so a
/// [`ServingEngine`](crate::serving::ServingEngine) can run on top of
/// a supervised fleet unchanged.
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
    backend: ShardedBackend,
    ladder: Ladder,
    options: SupervisorOptions,
    last_sweep: Option<Instant>,
}

impl std::fmt::Debug for FleetSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSupervisor")
            .field("active", &self.backend.worker_count())
            .field("spares", &self.ladder.spares.len())
            .field("quarantined", &self.ladder.quarantined)
            .field("promotions", &self.ladder.promotions)
            .field("replans", &self.ladder.replans)
            .finish_non_exhaustive()
    }
}

impl FleetSupervisor {
    /// Supervises `active` workers with `spares` on the bench, all
    /// executing under `config`. With
    /// [`SupervisorOptions::push_config_to_spares`] set, every active
    /// worker receives a config push up front, so a heterogeneous
    /// fleet converges at admission instead of refusing the first
    /// shard.
    ///
    /// # Errors
    ///
    /// As [`ShardedBackend::new`] (empty fleet, invalid config);
    /// admission-push failures from any active worker.
    pub fn new(
        config: OisaConfig,
        active: Vec<Box<dyn ShardTransport>>,
        spares: Vec<Box<dyn ShardTransport>>,
        options: SupervisorOptions,
    ) -> BackendResult<Self> {
        let backend = ShardedBackend::new(config, active)?;
        let mut supervisor = Self {
            backend,
            ladder: Ladder {
                spares,
                quarantined: Vec::new(),
                promotions: 0,
                replans: 0,
                nonce: 0,
                push_config: options.push_config_to_spares.then_some(config),
                fingerprint: config.fingerprint(),
            },
            options,
            last_sweep: None,
        };
        if options.push_config_to_spares {
            supervisor.push_config_to_fleet()?;
        }
        Ok(supervisor)
    }

    /// The current fleet shape and recovery counters.
    #[must_use]
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            active: self.backend.worker_count(),
            spares: self.ladder.spares.len(),
            quarantined: self.ladder.quarantined.len(),
            promotions: self.ladder.promotions,
            replans: self.ladder.replans,
        }
    }

    /// Every quarantine recorded so far, oldest first.
    #[must_use]
    pub fn quarantine_log(&self) -> &[QuarantineEvent] {
        &self.ladder.quarantined
    }

    /// Read access to the supervised backend (fleet shape, job
    /// counters).
    #[must_use]
    pub fn backend(&self) -> &ShardedBackend {
        &self.backend
    }

    /// Pushes the supervisor's config to every active worker — the
    /// between-jobs physics-update path. Workers rebuild their
    /// accelerators; the next job runs under the new physics on every
    /// node.
    ///
    /// # Errors
    ///
    /// The first failing push (transport, refusal, or a worker that
    /// acknowledged a different fingerprint).
    pub fn push_config_to_fleet(&mut self) -> BackendResult<()> {
        for index in 0..self.backend.worker_count() {
            let nonce = self.ladder.next_nonce();
            self.backend.push_config_to_worker(index, nonce)?;
        }
        Ok(())
    }

    /// Probes every active worker now (liveness ping + fingerprint
    /// echo), quarantining failures and back-filling from the spare
    /// bench. Returns how many workers failed this sweep.
    ///
    /// A probe failure is handled, not propagated: the worker is
    /// quarantined and (if possible) replaced. The only error case is
    /// a fleet reduced to zero healthy workers.
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] when every worker *and* every spare is
    /// gone — an empty fleet cannot serve.
    pub fn health_check_now(&mut self) -> BackendResult<usize> {
        self.last_sweep = Some(Instant::now());
        let mut failed = 0usize;
        // Descending order: removals never shift a slot still waiting
        // to be probed.
        for index in (0..self.backend.worker_count()).rev() {
            let nonce = self.ladder.next_nonce();
            let error = match self.backend.ping_worker(index, nonce) {
                Ok(_fingerprint) => continue,
                Err(e) => e,
            };
            failed += 1;
            let label = self
                .backend
                .worker_label(index)
                .unwrap_or_else(|| format!("worker-{index}"));
            match self.ladder.promote(&label, &error) {
                Some(spare) => self.backend.replace_worker(index, spare)?,
                None if self.backend.worker_count() > 1 => {
                    self.backend.remove_worker(index)?;
                }
                None => {
                    return Err(OisaError::Backend(format!(
                        "fleet exhausted: last worker failed its health check ({error})"
                    )));
                }
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

    /// Runs one job on the supervised backend after any due sweep,
    /// with the escalation ladder as its failure policy — the body
    /// both job kinds share. The ladder lives in its own field, so the
    /// recovery closure borrows it while `run` borrows the backend.
    fn run_supervised<T>(
        &mut self,
        run: impl FnOnce(
            &mut ShardedBackend,
            &mut dyn FnMut(&str, &OisaError) -> Recovery,
        ) -> BackendResult<T>,
    ) -> BackendResult<T> {
        self.maybe_sweep()?;
        let ladder = &mut self.ladder;
        run(&mut self.backend, &mut |label, error| {
            ladder.escalate(label, error)
        })
    }
}

impl ComputeBackend for FleetSupervisor {
    fn config(&self) -> &OisaConfig {
        self.backend.config()
    }

    /// [`ShardedBackend::run_job`] behind the escalation ladder: a
    /// worker lost mid-job is quarantined and its shard re-runs on a
    /// promoted spare, or — spares exhausted — its frame range is
    /// re-planned across the survivors. Either way the merged report
    /// stream is bit-identical to the no-failure run.
    fn run_job(&mut self, job: &InferenceJob) -> BackendResult<Vec<ConvolutionReport>> {
        self.run_supervised(|backend, on_failure| backend.run_job_with_recovery(job, on_failure))
    }

    /// [`ShardedBackend::run_program`](ComputeBackend::run_program)
    /// behind the same escalation ladder as [`run_job`].
    ///
    /// [`run_job`]: ComputeBackend::run_job
    fn run_program(&mut self, job: &ProgramJob) -> BackendResult<Vec<ProgramFrameReport>> {
        self.run_supervised(|backend, on_failure| {
            backend.run_program_with_recovery(job, on_failure)
        })
    }
}

/// The spare bench and the escalation ladder's bookkeeping, apart from
/// the backend so a recovery closure can hold it mid-job.
struct Ladder {
    spares: Vec<Box<dyn ShardTransport>>,
    quarantined: Vec<QuarantineEvent>,
    promotions: u64,
    replans: u64,
    nonce: u64,
    /// Admission: push this config to a spare when set
    /// ([`SupervisorOptions::push_config_to_spares`]), else ping it and
    /// require `fingerprint` back.
    push_config: Option<OisaConfig>,
    fingerprint: u64,
}

impl Ladder {
    fn next_nonce(&mut self) -> u64 {
        self.nonce = self.nonce.wrapping_add(1);
        self.nonce
    }

    /// Quarantines the failed endpoint `label` and promotes the next
    /// admissible spare off the bench: each candidate is pinged, or
    /// config-pushed per the options, and one that fails admission is
    /// quarantined too while the search continues. `None` once the
    /// bench is empty.
    fn promote(&mut self, label: &str, error: &OisaError) -> Option<Box<dyn ShardTransport>> {
        self.quarantined.push(QuarantineEvent {
            label: label.to_string(),
            error: error.to_string(),
        });
        while let Some(mut spare) = self.spares.pop() {
            let nonce = self.next_nonce();
            let admission = match &self.push_config {
                Some(config) => push_config_to_transport(spare.as_mut(), config, nonce),
                None => probe_transport(spare.as_mut(), self.fingerprint, nonce).map(|_| ()),
            };
            match admission {
                Ok(()) => {
                    self.promotions += 1;
                    return Some(spare);
                }
                Err(admission_error) => self.quarantined.push(QuarantineEvent {
                    label: spare.endpoint_label(),
                    error: format!("spare failed admission: {admission_error}"),
                }),
            }
        }
        None
    }

    /// The ladder a failed shard climbs: promote a spare into its slot
    /// or, with the bench empty, re-plan its range across the
    /// survivors.
    fn escalate(&mut self, label: &str, error: &OisaError) -> Recovery {
        match self.promote(label, error) {
            Some(spare) => Recovery::Promote(spare),
            None => {
                self.replans += 1;
                Recovery::Shrink
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tcp::{TcpTransport, TcpTransportConfig, TcpWorker};
    use crate::backend::{InProcessWorker, LocalBackend};
    use crate::wire::{self, WireMessage};
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

    #[test]
    fn losing_every_worker_is_a_typed_error_and_a_retry_succeeds() {
        let config = cfg(43);
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(DoomedWorker::new(config, 0, "doomed-a")),
            Box::new(DoomedWorker::new(config, 0, "doomed-b")),
        ];
        let mut supervisor =
            FleetSupervisor::new(config, active, Vec::new(), SupervisorOptions::default()).unwrap();
        let the_job = job(4);
        let err = supervisor.run_job(&the_job).unwrap_err();
        assert!(
            matches!(err, OisaError::Backend(ref what) if what.contains("fleet exhausted")),
            "{err}"
        );
        // No state advanced on failure; a repaired fleet retries the
        // job bit-identically.
        assert_eq!(supervisor.backend().jobs_run(), 0);
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
            handshake: false, // the health probe itself must find the hang
        };
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(
                TcpTransport::connect(live.endpoint(), config.fingerprint(), options).unwrap(),
            ),
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

    #[test]
    fn config_push_admits_a_mismatched_tcp_spare_bit_identically() {
        let coordinator_cfg = cfg(45);
        let spare_cfg = cfg(46); // different physics on the spare daemon
        assert_ne!(coordinator_cfg.fingerprint(), spare_cfg.fingerprint());
        let spare_daemon = TcpWorker::bind(spare_cfg, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        let options = TcpTransportConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(Duration::from_secs(10)),
            attempts: 2,
            backoff: Duration::from_millis(5),
            handshake: false, // admission happens via the supervisor's push
        };
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(coordinator_cfg)),
            Box::new(DoomedWorker::new(coordinator_cfg, 0, "doomed")),
        ];
        let spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(TcpTransport::deferred(
            spare_daemon.endpoint(),
            coordinator_cfg.fingerprint(),
            options,
        ))];
        let mut supervisor = FleetSupervisor::new(
            coordinator_cfg,
            active,
            spares,
            SupervisorOptions {
                push_config_to_spares: true,
                ..SupervisorOptions::default()
            },
        )
        .unwrap();
        let the_job = job(6);
        let reports = supervisor.run_job(&the_job).unwrap();
        assert_eq!(
            reports,
            oracle(coordinator_cfg, &the_job),
            "a config-pushed spare must serve the coordinator's physics"
        );
        let status = supervisor.status();
        assert_eq!(status.promotions, 1, "{status:?}");
        assert_eq!(status.replans, 0, "{status:?}");
    }

    #[test]
    fn push_config_to_fleet_reaches_every_active_worker() {
        let config = cfg(47);
        let daemons: Vec<_> = (0..2)
            .map(|_| {
                TcpWorker::bind(cfg(99), "127.0.0.1:0")
                    .unwrap()
                    .spawn()
                    .unwrap()
            })
            .collect();
        let options = TcpTransportConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(Duration::from_secs(10)),
            attempts: 2,
            backoff: Duration::from_millis(5),
            handshake: false,
        };
        let active: Vec<Box<dyn ShardTransport>> = daemons
            .iter()
            .map(|d| {
                Box::new(TcpTransport::deferred(
                    d.endpoint(),
                    config.fingerprint(),
                    options,
                )) as Box<dyn ShardTransport>
            })
            .collect();
        let mut supervisor =
            FleetSupervisor::new(config, active, Vec::new(), SupervisorOptions::default()).unwrap();
        // Both daemons run different physics; the between-jobs push
        // converges them, after which a job serves with parity.
        supervisor.push_config_to_fleet().unwrap();
        let the_job = job(4);
        let reports = supervisor.run_job(&the_job).unwrap();
        assert_eq!(reports, oracle(config, &the_job));
        assert_eq!(supervisor.status().quarantined, 0);
    }
}
