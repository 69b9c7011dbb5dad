//! Async serving front end over the [`ComputeBackend`] seam.
//!
//! The OISA paper positions the accelerator as the first stage of an
//! edge deployment: sensors capture frames continuously and the
//! in-sensor layer must keep up with the *stream*, not with one
//! `convolve_frame` call at a time. [`ServingEngine`] models exactly
//! that deployment boundary: callers submit captured [`Frame`]s from
//! any thread and get a [`FrameHandle`] back immediately; a dedicated
//! worker thread groups pending frames into [`InferenceJob`]s and runs
//! them through whatever [`ComputeBackend`] the engine fronts —
//! a [`LocalBackend`] (one accelerator, the work-stealing scheduler in
//! [`crate::scheduler`] underneath) by default, or a
//! [`FleetSupervisor`](crate::backend::FleetSupervisor) for multi-host
//! serving, via [`ServingEngine::with_backend`]. The served fleet is
//! *self-healing*: a worker dying mid-batch is quarantined and its
//! shard re-run on a promoted spare (or re-planned across the
//! survivors) inside the same job, so submitters never see the failure
//! — and the reports stay bit-identical.
//!
//! # Batching policy — the latency/throughput knobs
//!
//! A batch launches when the **first** of these fires:
//!
//! * **size** — [`ServingConfig::max_batch`] frames are pending
//!   (throughput-optimal: weight passes are staged once per batch);
//! * **deadline** — the oldest pending frame has waited
//!   [`ServingConfig::deadline`] (bounds tail latency under light
//!   traffic: a lone frame never waits longer than the deadline for
//!   company);
//! * **drain** — shutdown was requested, so everything still queued
//!   runs in final batches of at most `max_batch` frames.
//!
//! [`ServingConfig::queue_depth`] bounds the pending queue. When it is
//! full, [`ServingEngine::submit`] blocks (backpressure propagates to
//! the producer, as a real sensor pipeline would drop to a lower frame
//! rate) and [`ServingEngine::try_submit`] returns the frame back via
//! [`SubmitError::Backpressure`] so the caller can shed load instead.
//!
//! # Determinism
//!
//! Batching never changes the physics. Every accepted frame keys its
//! own noise epoch — reserved contiguously, in submission order, by the
//! checked [`reserve_epochs`](oisa_device::noise::NoiseSource::reserve_epochs)
//! inside `convolve_frames` — so the reports coming out of a serving
//! engine are **bit-identical** to calling
//! [`OisaAccelerator::convolve_frame_sequential`] once per frame, in
//! submission order, on the same accelerator. Batch boundaries (one
//! batch of 8, or 3 + 5, or 8 singles) are invisible in the results;
//! they move wall clock only. This is the same guarantee the batch
//! engine itself makes, inherited wholesale.
//!
//! Epoch exhaustion is a checked error: a serving process that
//! somehow burned through all 2⁶⁴ epochs gets `Err` reports, never a
//! silent collision with an earlier frame's noise streams.
//!
//! # When to prefer the serving engine over direct `convolve_frames`
//!
//! Call [`OisaAccelerator::convolve_frames`] directly when the batch
//! already exists (offline sweeps, accuracy studies). Use
//! [`ServingEngine`] when frames *arrive over time* and you want the
//! deadline/size trade-off handled for you — it is the seed of the
//! multi-host sharding deployment: a coordinator can front several
//! engines, one per node, because epoch keying makes every shard's
//! physics reproducible.
//!
//! # Example
//!
//! ```
//! use oisa_core::serving::{ServingConfig, ServingEngine};
//! use oisa_core::{OisaAccelerator, OisaConfig};
//! use oisa_sensor::Frame;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let accel = OisaAccelerator::new(OisaConfig::small_test())?;
//! let kernels = vec![vec![0.25f32; 9]];
//! let engine = ServingEngine::new(accel, kernels, 3, ServingConfig::default())?;
//! let handle = engine.submit(Frame::constant(16, 16, 0.8)?).map_err(Box::new)?;
//! let report = handle.wait()?;
//! assert_eq!(report.output.len(), 1);
//! let (backend, stats) = engine.shutdown();
//! let _accel = backend.into_accelerator();
//! assert_eq!(stats.frames_completed, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oisa_sensor::frame::Frame;

use crate::accelerator::{ConvolutionReport, OisaAccelerator};
use crate::backend::{ComputeBackend, LocalBackend};
use crate::error::OisaError;
use crate::wire::InferenceJob;
use crate::CoreError;

/// Knobs of the serving front end. See the module docs for how the
/// three interact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Largest batch handed to the engine in one call (≥ 1). Reaching
    /// this many pending frames launches a batch immediately.
    pub max_batch: usize,
    /// Longest the *oldest* pending frame waits before its batch
    /// launches anyway, however small. `Duration::MAX` disables the
    /// deadline (batches form only on size or drain), which requires
    /// `max_batch <= queue_depth` so a full queue can launch one.
    pub deadline: Duration,
    /// Bound on the pending queue (≥ 1, at most [`MAX_QUEUE_DEPTH`]).
    /// A full queue blocks [`ServingEngine::submit`] and bounces
    /// [`ServingEngine::try_submit`].
    pub queue_depth: usize,
}

/// The largest [`ServingConfig::queue_depth`] an engine accepts. The
/// engine allocates its queue and its batch-size histogram
/// ([`ServingStats::batch_size_histogram`]) for the full depth when it
/// is built, so the bound keeps construction from asking the allocator
/// for more than it can give: 65,536 pending frames is over a minute of
/// the paper's 1,000 frames/s sensor.
pub const MAX_QUEUE_DEPTH: usize = 1 << 16;

impl Default for ServingConfig {
    /// Frame-rate-friendly defaults: batches of 8, a 2 ms deadline and
    /// room for 64 pending frames.
    fn default() -> Self {
        Self {
            max_batch: 8,
            deadline: Duration::from_millis(2),
            queue_depth: 64,
        }
    }
}

/// Result alias for serving-path operations: everything surfaces the
/// unified [`OisaError`].
type ServeResult<T> = std::result::Result<T, OisaError>;

impl ServingConfig {
    /// Rejects degenerate configurations, a queue deeper than
    /// [`MAX_QUEUE_DEPTH`], and one that cannot serve:
    /// with no deadline and `max_batch` beyond `queue_depth`, no batch
    /// could launch before shutdown, so a blocking submit past the
    /// queue bound would wait forever.
    fn validate(&self) -> crate::Result<()> {
        if self.max_batch == 0 {
            return Err(CoreError::InvalidParameter(
                "serving max_batch must be at least 1".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(CoreError::InvalidParameter(
                "serving queue_depth must be at least 1".into(),
            ));
        }
        if self.queue_depth > MAX_QUEUE_DEPTH {
            return Err(CoreError::InvalidParameter(format!(
                "serving queue_depth {} exceeds MAX_QUEUE_DEPTH ({MAX_QUEUE_DEPTH})",
                self.queue_depth
            )));
        }
        if self.deadline == Duration::MAX && self.max_batch > self.queue_depth {
            return Err(CoreError::InvalidParameter(format!(
                "serving with no deadline needs max_batch ({}) <= queue_depth ({}), \
                 or no batch launches before shutdown",
                self.max_batch, self.queue_depth
            )));
        }
        Ok(())
    }
}

/// Why [`ServingEngine::submit`] / [`ServingEngine::try_submit`]
/// declined a frame. Variants that never enqueued the frame hand it
/// back so the caller can retry or shed it without a copy.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is at [`ServingConfig::queue_depth`]
    /// ([`ServingEngine::try_submit`] only — the blocking path waits).
    Backpressure(Frame),
    /// The engine is shutting down and accepts no new frames.
    ShutDown(Frame),
    /// The frame does not match the accelerator's imager.
    Rejected(CoreError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Backpressure(_) => write!(f, "serving queue full (backpressure)"),
            Self::ShutDown(_) => write!(f, "serving engine is shutting down"),
            Self::Rejected(e) => write!(f, "frame rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What launched a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchTrigger {
    Size,
    Deadline,
    Drain,
}

/// Completion handle for one submitted frame.
///
/// The handle resolves exactly once: either with the frame's
/// [`ConvolutionReport`] or with the error its batch hit. Every
/// accepted frame is resolved, including frames still queued when
/// [`ServingEngine::shutdown`] is called (the worker drains the queue
/// before exiting).
#[derive(Debug)]
pub struct FrameHandle {
    slot: Arc<Slot>,
    /// Set once [`FrameHandle::try_take`] has consumed the result, so a
    /// later [`FrameHandle::wait`] fails fast instead of parking on a
    /// condvar that will never fire again.
    taken: bool,
}

impl FrameHandle {
    /// Blocks until the frame's batch has run, then returns its report.
    ///
    /// # Errors
    ///
    /// The [`OisaError`] the frame's batch hit, if any, or
    /// [`CoreError::InvalidParameter`] (wrapped) when the result was
    /// already consumed through [`FrameHandle::try_take`].
    pub fn wait(self) -> ServeResult<ConvolutionReport> {
        if self.taken {
            return Err(CoreError::InvalidParameter(
                "serving result was already taken from this handle".into(),
            )
            .into());
        }
        let mut result = self
            .slot
            .result
            .lock()
            .expect("serving: poisoned result slot");
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            result = self
                .slot
                .ready
                .wait(result)
                .expect("serving: poisoned result slot");
        }
    }

    /// Takes the result if it is available, leaving the handle empty
    /// (non-blocking poll counterpart of [`FrameHandle::wait`]).
    pub fn try_take(&mut self) -> Option<ServeResult<ConvolutionReport>> {
        if self.taken {
            return None;
        }
        let result = self
            .slot
            .result
            .lock()
            .expect("serving: poisoned result slot")
            .take();
        self.taken = result.is_some();
        result
    }
}

/// One-shot mailbox a request's result lands in.
#[derive(Debug)]
struct Slot {
    result: Mutex<Option<ServeResult<ConvolutionReport>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfil(&self, r: ServeResult<ConvolutionReport>) {
        *self.result.lock().expect("serving: poisoned result slot") = Some(r);
        self.ready.notify_all();
    }
}

/// A pending frame: its payload, its mailbox and when it arrived.
#[derive(Debug)]
struct Request {
    frame: Frame,
    slot: Arc<Slot>,
    enqueued: Instant,
}

/// Queue state behind the submission mutex.
#[derive(Debug)]
struct QueueState {
    pending: VecDeque<Request>,
    shutting_down: bool,
}

/// Percentile samples kept per engine: beyond this many waits the
/// recorder becomes a ring buffer over the most recent window, so a
/// long-lived server never grows unboundedly. Sized so snapshotting
/// the window (a copy taken under the stats lock the worker shares)
/// stays a sub-millisecond memcpy.
const WAIT_WINDOW: usize = 1 << 16;

/// Accumulated counters behind the stats mutex.
#[derive(Debug)]
struct StatsInner {
    frames_completed: u64,
    batches_run: u64,
    deadline_batches: u64,
    size_batches: u64,
    drain_batches: u64,
    /// Index = batch size (0 unused), length one past the largest
    /// batch that can form.
    batch_size_counts: Vec<u64>,
    /// Ring buffer of observed queue waits in microseconds.
    waits_us: Vec<u64>,
    wait_cursor: usize,
    wait_max_us: u64,
    started: Option<Instant>,
    last_done: Option<Instant>,
}

impl StatsInner {
    fn new(largest_batch: usize) -> Self {
        Self {
            frames_completed: 0,
            batches_run: 0,
            deadline_batches: 0,
            size_batches: 0,
            drain_batches: 0,
            batch_size_counts: vec![0; largest_batch + 1],
            waits_us: Vec::new(),
            wait_cursor: 0,
            wait_max_us: 0,
            started: None,
            last_done: None,
        }
    }

    fn record_wait(&mut self, wait: Duration) {
        let us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
        self.wait_max_us = self.wait_max_us.max(us);
        if self.waits_us.len() < WAIT_WINDOW {
            self.waits_us.push(us);
        } else {
            self.waits_us[self.wait_cursor] = us;
            self.wait_cursor = (self.wait_cursor + 1) % WAIT_WINDOW;
        }
    }
}

/// Point-in-time snapshot of a [`ServingEngine`]'s behaviour, from
/// [`ServingEngine::stats`] (any time) or [`ServingEngine::shutdown`]
/// (final).
///
/// Queue-wait percentiles are exact over the most recent 2¹⁶ requests
/// (a sliding window, so week-old traffic does not mask a current
/// regression); `queue_wait_max_us` is exact over the engine's whole
/// lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Frames whose batches have completed (successfully or not).
    pub frames_completed: u64,
    /// Batches handed to the engine.
    pub batches_run: u64,
    /// Batches launched by the deadline elapsing.
    pub deadline_batches: u64,
    /// Batches launched by reaching `max_batch`.
    pub size_batches: u64,
    /// Batches launched by the shutdown drain.
    pub drain_batches: u64,
    /// `batch_size_histogram[s]` = number of batches of exactly `s`
    /// frames (index 0 unused); length is the largest batch that can
    /// form, `min(max_batch, queue_depth)`, plus one.
    pub batch_size_histogram: Vec<u64>,
    /// Median time a frame spent queued before its batch launched, µs.
    pub queue_wait_p50_us: f64,
    /// 99th-percentile queue wait, µs.
    pub queue_wait_p99_us: f64,
    /// Worst queue wait ever observed, µs.
    pub queue_wait_max_us: f64,
    /// Completed frames per second of serving wall clock (first batch
    /// launch → last batch completion); 0 until a batch completes.
    pub frames_per_sec: f64,
    /// Frames pending in the queue right now.
    pub queued: usize,
}

/// Exact nearest-rank percentile over an ascending-sorted sample
/// window — callers must sort first.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Everything the submitters and the worker share.
#[derive(Debug)]
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled on enqueue and on shutdown (worker wakes).
    submitted: Condvar,
    /// Signalled on dequeue and on shutdown (blocked submitters wake).
    space: Condvar,
    stats: Mutex<StatsInner>,
    config: ServingConfig,
}

/// The serving front end. See the module docs.
///
/// Generic over the [`ComputeBackend`] that executes the batches; the
/// engine owns the backend for its lifetime (the worker thread needs
/// `&mut` access) and [`ServingEngine::shutdown`] hands it back so
/// callers can verify or reuse its state (for a [`LocalBackend`],
/// [`LocalBackend::into_accelerator`] recovers the accelerator).
///
/// # Examples
///
/// Submit one frame, wait its handle, shut down cleanly:
///
/// ```
/// use oisa_core::serving::{ServingConfig, ServingEngine};
/// use oisa_core::{OisaAccelerator, OisaConfig};
/// use oisa_sensor::Frame;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let accel = OisaAccelerator::new(OisaConfig::small_test())?;
/// let kernels = vec![vec![0.25f32; 9], vec![-0.5f32; 9]];
/// let engine = ServingEngine::new(accel, kernels, 3, ServingConfig::default())?;
///
/// let handle = engine.submit(Frame::constant(16, 16, 0.8)?)?;
/// let report = handle.wait()?; // blocks until the frame's batch ran
/// assert_eq!(report.output.len(), 2); // one feature map per kernel
///
/// let (_backend, stats) = engine.shutdown();
/// assert_eq!(stats.frames_completed, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServingEngine<B: ComputeBackend + 'static = LocalBackend> {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<B>>,
    frame_width: usize,
    frame_height: usize,
}

impl ServingEngine<LocalBackend> {
    /// Spawns the worker thread and starts serving on this host —
    /// shorthand for [`ServingEngine::with_backend`] over a
    /// [`LocalBackend`] wrapping `accel`.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::with_backend`].
    pub fn new(
        accel: OisaAccelerator,
        kernels: Vec<Vec<f32>>,
        k: usize,
        config: ServingConfig,
    ) -> ServeResult<Self> {
        Self::with_backend(LocalBackend::from_accelerator(accel), kernels, k, config)
    }
}

impl<B: ComputeBackend + 'static> ServingEngine<B> {
    /// Spawns the worker thread and starts serving over `backend`.
    ///
    /// The kernel set is fixed for the engine's lifetime — a deployed
    /// first layer, in the paper's framing — so per-request work is
    /// frames only, weight staging amortises across whole batches, and
    /// a sharded backend's workers can reproduce fabric entry states
    /// without per-request coordination.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] (wrapped in [`OisaError`])
    ///   for a degenerate [`ServingConfig`], or for kernels that are
    ///   empty, ill-sized or hold a weight that is not finite.
    /// * [`CoreError::Unmappable`] when the kernels do not fit the
    ///   backend's OPC.
    ///
    /// Kernel errors come from [`ComputeBackend::check_workload`], so
    /// they fail at construction, not on the first submitted frame.
    pub fn with_backend(
        backend: B,
        kernels: Vec<Vec<f32>>,
        k: usize,
        config: ServingConfig,
    ) -> ServeResult<Self> {
        config.validate()?;
        backend.check_workload(&kernels, k)?;
        let (frame_width, frame_height) = backend.frame_dims();

        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                pending: VecDeque::with_capacity(config.queue_depth),
                shutting_down: false,
            }),
            submitted: Condvar::new(),
            space: Condvar::new(),
            // The queue never holds more than `queue_depth` frames, so
            // no batch is larger than that, whatever `max_batch` says.
            stats: Mutex::new(StatsInner::new(config.max_batch.min(config.queue_depth))),
            config,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("oisa-serving".into())
            .spawn(move || worker_loop(backend, kernels, k, &worker_shared))
            .map_err(|e| {
                OisaError::from(CoreError::InvalidParameter(format!(
                    "cannot spawn serving worker: {e}"
                )))
            })?;
        Ok(Self {
            shared,
            worker: Some(worker),
            frame_width,
            frame_height,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.shared.config
    }

    /// Submits a frame, blocking while the queue is at
    /// [`ServingConfig::queue_depth`] (backpressure).
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Rejected`] — frame/imager dimension mismatch.
    /// * [`SubmitError::ShutDown`] — the engine is shutting down.
    pub fn submit(&self, frame: Frame) -> std::result::Result<FrameHandle, SubmitError> {
        self.enqueue(frame, true)
    }

    /// Non-blocking [`ServingEngine::submit`]: a full queue returns the
    /// frame immediately via [`SubmitError::Backpressure`] so the
    /// caller can shed load.
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::submit`], plus [`SubmitError::Backpressure`].
    pub fn try_submit(&self, frame: Frame) -> std::result::Result<FrameHandle, SubmitError> {
        self.enqueue(frame, false)
    }

    fn enqueue(&self, frame: Frame, block: bool) -> std::result::Result<FrameHandle, SubmitError> {
        if frame.width() != self.frame_width || frame.height() != self.frame_height {
            return Err(SubmitError::Rejected(CoreError::InvalidParameter(format!(
                "frame is {}x{} but the imager is {}x{}",
                frame.width(),
                frame.height(),
                self.frame_width,
                self.frame_height
            ))));
        }
        // Allocate the slot before taking the queue mutex: the worker
        // contends on it for every batch, so the critical section
        // should only cover the push itself.
        let slot = Arc::new(Slot::new());
        let mut queue = self.shared.queue.lock().expect("serving: poisoned queue");
        loop {
            if queue.shutting_down {
                return Err(SubmitError::ShutDown(frame));
            }
            if queue.pending.len() < self.shared.config.queue_depth {
                break;
            }
            if !block {
                return Err(SubmitError::Backpressure(frame));
            }
            queue = self
                .shared
                .space
                .wait(queue)
                .expect("serving: poisoned queue");
        }
        queue.pending.push_back(Request {
            frame,
            slot: Arc::clone(&slot),
            enqueued: Instant::now(),
        });
        drop(queue);
        self.shared.submitted.notify_all();
        Ok(FrameHandle { slot, taken: false })
    }

    /// Snapshot of the engine's counters and latency distribution.
    #[must_use]
    pub fn stats(&self) -> ServingStats {
        let queued = self
            .shared
            .queue
            .lock()
            .expect("serving: poisoned queue")
            .pending
            .len();
        // Copy out under the lock, sort after releasing it: the worker
        // takes this mutex around every batch, and sorting a full 2²⁰
        // wait window while holding it would add the sort to served
        // frames' tail latency every time a monitor polls.
        let (mut waits, snapshot) = {
            let inner = self.shared.stats.lock().expect("serving: poisoned stats");
            let frames_per_sec = match (inner.started, inner.last_done) {
                (Some(start), Some(done)) if done > start => {
                    inner.frames_completed as f64 / (done - start).as_secs_f64()
                }
                _ => 0.0,
            };
            (
                inner.waits_us.clone(),
                ServingStats {
                    frames_completed: inner.frames_completed,
                    batches_run: inner.batches_run,
                    deadline_batches: inner.deadline_batches,
                    size_batches: inner.size_batches,
                    drain_batches: inner.drain_batches,
                    batch_size_histogram: inner.batch_size_counts.clone(),
                    queue_wait_p50_us: 0.0,
                    queue_wait_p99_us: 0.0,
                    queue_wait_max_us: inner.wait_max_us as f64,
                    frames_per_sec,
                    queued,
                },
            )
        };
        waits.sort_unstable();
        ServingStats {
            queue_wait_p50_us: percentile_us(&waits, 0.50),
            queue_wait_p99_us: percentile_us(&waits, 0.99),
            ..snapshot
        }
    }

    /// Stops accepting frames, drains every pending batch, joins the
    /// worker and returns the backend (a [`LocalBackend`] comes back
    /// with its accelerator in exactly the state a sequential per-frame
    /// loop over all served frames would leave it) together with the
    /// final stats.
    ///
    /// Handles for frames that were queued at shutdown resolve normally.
    #[must_use]
    pub fn shutdown(mut self) -> (B, ServingStats) {
        let backend = self
            .shutdown_inner()
            .expect("serving: worker already joined");
        let stats = self.stats();
        (backend, stats)
    }

    fn shutdown_inner(&mut self) -> Option<B> {
        let worker = self.worker.take()?;
        self.shared
            .queue
            .lock()
            .expect("serving: poisoned queue")
            .shutting_down = true;
        self.shared.submitted.notify_all();
        self.shared.space.notify_all();
        Some(worker.join().expect("serving: worker thread panicked"))
    }
}

impl<B: ComputeBackend + 'static> Drop for ServingEngine<B> {
    /// Dropping without [`ServingEngine::shutdown`] still drains the
    /// queue and resolves every outstanding handle.
    fn drop(&mut self) {
        drop(self.shutdown_inner());
    }
}

/// Blocks until a batch is ready (size, deadline or drain) and takes it
/// off the queue; `None` once the queue is empty and shut down.
fn next_batch(shared: &Shared) -> Option<(Vec<Request>, BatchTrigger)> {
    let config = &shared.config;
    let mut queue: MutexGuard<'_, QueueState> =
        shared.queue.lock().expect("serving: poisoned queue");
    loop {
        if queue.pending.is_empty() {
            if queue.shutting_down {
                return None;
            }
            queue = shared
                .submitted
                .wait(queue)
                .expect("serving: poisoned queue");
            continue;
        }
        // The oldest pending frame anchors the deadline; `checked_add`
        // turns `Duration::MAX` into "no deadline". The emptiness
        // re-check costs nothing and keeps this loop panic-free.
        let deadline = match queue.pending.front() {
            Some(oldest) => oldest.enqueued.checked_add(config.deadline),
            None => continue,
        };
        let trigger = loop {
            if queue.pending.len() >= config.max_batch {
                break BatchTrigger::Size;
            }
            if queue.shutting_down {
                break BatchTrigger::Drain;
            }
            match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        break BatchTrigger::Deadline;
                    }
                    let (guard, _) = shared
                        .submitted
                        .wait_timeout(queue, at - now)
                        .expect("serving: poisoned queue");
                    queue = guard;
                }
                None => {
                    queue = shared
                        .submitted
                        .wait(queue)
                        .expect("serving: poisoned queue");
                }
            }
        };
        let take = queue.pending.len().min(config.max_batch);
        let batch: Vec<Request> = queue.pending.drain(..take).collect();
        return Some((batch, trigger));
    }
}

/// The worker thread: form batch → build an [`InferenceJob`] → run it
/// through the backend → resolve handles → account, until drained and
/// shut down. Returns the backend so `shutdown` can hand it back.
fn worker_loop<B: ComputeBackend>(
    mut backend: B,
    kernels: Vec<Vec<f32>>,
    k: usize,
    shared: &Shared,
) -> B {
    let mut next_job_id = 0u64;
    // The deployed kernel set is moved into each batch's job and
    // reclaimed afterwards, so the latency-critical loop never deep-
    // clones the weights.
    let mut kernel_set = kernels;
    while let Some((batch, trigger)) = next_batch(shared) {
        // Space freed — wake blocked submitters before computing.
        shared.space.notify_all();
        let launched = Instant::now();
        let mut frames = Vec::with_capacity(batch.len());
        let mut slots = Vec::with_capacity(batch.len());
        {
            let mut stats = shared.stats.lock().expect("serving: poisoned stats");
            stats.started.get_or_insert(launched);
            stats.batches_run += 1;
            match trigger {
                BatchTrigger::Size => stats.size_batches += 1,
                BatchTrigger::Deadline => stats.deadline_batches += 1,
                BatchTrigger::Drain => stats.drain_batches += 1,
            }
            stats.batch_size_counts[batch.len()] += 1;
            for request in batch {
                stats.record_wait(launched.saturating_duration_since(request.enqueued));
                frames.push(request.frame);
                slots.push(request.slot);
            }
        }
        // The batch body runs under `catch_unwind`: a panic in the
        // backend or scheduler must not strand waiters on condvars
        // that would otherwise never fire again (a deployed server
        // would deadlock instead of surfacing the fault).
        let job = InferenceJob {
            job_id: next_job_id,
            k,
            kernels: std::mem::take(&mut kernel_set),
            frames,
        };
        next_job_id += 1;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.run_job(&job)));
        kernel_set = job.kernels;
        // A backend that answers with the wrong number of reports
        // cannot say which frame a report belongs to: that is a
        // batch-wide failure, and no handle is left unresolved.
        let outcome = outcome.map(|result| {
            result.and_then(|reports| {
                if reports.len() == slots.len() {
                    Ok(reports)
                } else {
                    Err(OisaError::Backend(format!(
                        "backend returned {} reports for a batch of {} frames",
                        reports.len(),
                        slots.len()
                    )))
                }
            })
        });
        match outcome {
            Ok(Ok(reports)) => {
                for (slot, report) in slots.iter().zip(reports) {
                    slot.fulfil(Ok(report));
                }
            }
            // A batch-wide failure (the frames were validated at
            // submit, so this is fabric-level or a miscounted reply)
            // resolves every handle with the same error rather than
            // leaving waiters hanging.
            Ok(Err(e)) => {
                for slot in &slots {
                    slot.fulfil(Err(e.clone()));
                }
            }
            // A panic poisons the engine: this batch and everything
            // still queued resolve with an error, new submissions are
            // refused, blocked submitters wake, and the worker exits
            // cleanly so `shutdown` can still join it.
            Err(_panic) => {
                let error = OisaError::from(CoreError::Substrate(
                    "serving worker panicked while running a batch; \
                     the engine refuses further work"
                        .into(),
                ));
                for slot in &slots {
                    slot.fulfil(Err(error.clone()));
                }
                let stranded: Vec<Request> = {
                    let mut queue = shared.queue.lock().expect("serving: poisoned queue");
                    queue.shutting_down = true;
                    queue.pending.drain(..).collect()
                };
                shared.space.notify_all();
                for request in &stranded {
                    request.slot.fulfil(Err(error.clone()));
                }
                let mut stats = shared.stats.lock().expect("serving: poisoned stats");
                stats.frames_completed += (slots.len() + stranded.len()) as u64;
                stats.last_done = Some(Instant::now());
                return backend;
            }
        }
        let mut stats = shared.stats.lock().expect("serving: poisoned stats");
        stats.frames_completed += slots.len() as u64;
        stats.last_done = Some(Instant::now());
    }
    backend
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::OisaConfig;
    use oisa_device::noise::NoiseConfig;

    fn engine_config(seed: u64) -> OisaConfig {
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = seed;
        cfg
    }

    fn frame_16(tag: u64) -> Frame {
        let data: Vec<f64> = (0..256)
            .map(|i| (0.5 + 0.5 * ((i as f64 * 0.31) + tag as f64 * 1.7).sin()).clamp(0.0, 1.0))
            .collect();
        Frame::new(16, 16, data).unwrap()
    }

    #[test]
    fn config_and_kernel_validation() {
        let kernels = vec![vec![0.5f32; 9]];
        let bad_batch = ServingConfig {
            max_batch: 0,
            ..ServingConfig::default()
        };
        let accel = OisaAccelerator::new(engine_config(1)).unwrap();
        assert!(ServingEngine::new(accel, kernels.clone(), 3, bad_batch).is_err());
        let bad_depth = ServingConfig {
            queue_depth: 0,
            ..ServingConfig::default()
        };
        let accel = OisaAccelerator::new(engine_config(1)).unwrap();
        assert!(ServingEngine::new(accel, kernels.clone(), 3, bad_depth).is_err());
        // A queue too deep to allocate is a typed error, not an
        // allocator panic inside the constructor — with a batch bound
        // as large too, whose histogram would overflow its `+ 1`.
        for max_batch in [8, usize::MAX] {
            let huge = ServingConfig {
                max_batch,
                queue_depth: usize::MAX,
                ..ServingConfig::default()
            };
            let accel = OisaAccelerator::new(engine_config(1)).unwrap();
            assert!(matches!(
                ServingEngine::new(accel, kernels.clone(), 3, huge),
                Err(OisaError::Core(CoreError::InvalidParameter(ref what)))
                    if what.contains("MAX_QUEUE_DEPTH")
            ));
        }
        let deepest = ServingConfig {
            queue_depth: MAX_QUEUE_DEPTH,
            ..ServingConfig::default()
        };
        let accel = OisaAccelerator::new(engine_config(1)).unwrap();
        let (_, stats) = ServingEngine::new(accel, kernels.clone(), 3, deepest)
            .unwrap()
            .shutdown();
        assert_eq!(stats.batch_size_histogram.len(), 9);
        let accel = OisaAccelerator::new(engine_config(1)).unwrap();
        assert!(ServingEngine::new(accel, vec![], 3, ServingConfig::default()).is_err());
        let accel = OisaAccelerator::new(engine_config(1)).unwrap();
        assert!(
            ServingEngine::new(accel, vec![vec![0.5f32; 8]], 3, ServingConfig::default()).is_err()
        );
        let accel = OisaAccelerator::new(engine_config(1)).unwrap();
        assert!(ServingEngine::new(accel, kernels, 4, ServingConfig::default()).is_err());
    }

    #[test]
    fn mismatched_frame_rejected_at_submit() {
        let accel = OisaAccelerator::new(engine_config(2)).unwrap();
        let engine =
            ServingEngine::new(accel, vec![vec![0.5f32; 9]], 3, ServingConfig::default()).unwrap();
        let wrong = Frame::constant(8, 8, 0.5).unwrap();
        assert!(matches!(
            engine.submit(wrong),
            Err(SubmitError::Rejected(_))
        ));
    }

    #[test]
    fn handle_polling_api() {
        let accel = OisaAccelerator::new(engine_config(3)).unwrap();
        let engine = ServingEngine::new(
            accel,
            vec![vec![0.5f32; 9]],
            3,
            ServingConfig {
                max_batch: 1,
                ..ServingConfig::default()
            },
        )
        .unwrap();
        let mut handle = engine.submit(frame_16(0)).unwrap();
        // Spin briefly; max_batch = 1 launches immediately.
        let deadline = Instant::now() + Duration::from_secs(10);
        let report = loop {
            if let Some(result) = handle.try_take() {
                break result.unwrap();
            }
            assert!(Instant::now() < deadline, "no result within 10 s");
            std::thread::yield_now();
        };
        assert_eq!(report.output.len(), 1);
        assert!(handle.try_take().is_none(), "result is taken exactly once");
        // Waiting on a consumed handle fails fast instead of parking on
        // a condvar that will never fire again.
        assert!(matches!(
            handle.wait(),
            Err(OisaError::Core(CoreError::InvalidParameter(_)))
        ));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        let waits: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&waits, 0.50), 50.0);
        assert_eq!(percentile_us(&waits, 0.99), 99.0);
        assert_eq!(percentile_us(&[7], 0.99), 7.0);
    }

    #[test]
    fn submit_after_shutdown_hands_frame_back() {
        let accel = OisaAccelerator::new(engine_config(4)).unwrap();
        let engine =
            ServingEngine::new(accel, vec![vec![0.5f32; 9]], 3, ServingConfig::default()).unwrap();
        let (_accel, stats) = engine.shutdown();
        assert_eq!(stats.frames_completed, 0);
        // A second engine on the same shared queue shape: shutting_down
        // rejections hand the frame back.
        let accel = OisaAccelerator::new(engine_config(4)).unwrap();
        let engine =
            ServingEngine::new(accel, vec![vec![0.5f32; 9]], 3, ServingConfig::default()).unwrap();
        engine.shared.queue.lock().unwrap().shutting_down = true;
        match engine.submit(frame_16(1)) {
            Err(SubmitError::ShutDown(frame)) => assert_eq!(frame, frame_16(1)),
            other => panic!("expected ShutDown, got {other:?}"),
        }
    }

    /// With no deadline, a `max_batch` the queue cannot hold would
    /// launch no batch before shutdown, and a blocking submit past the
    /// queue bound would wait forever: refused at construction.
    #[test]
    fn no_deadline_with_an_unfillable_batch_is_refused() {
        let unfillable = ServingConfig {
            max_batch: 8,
            deadline: Duration::MAX,
            queue_depth: 4,
        };
        let accel = OisaAccelerator::new(engine_config(5)).unwrap();
        let err = ServingEngine::new(accel, vec![vec![0.5f32; 9]], 3, unfillable).unwrap_err();
        assert!(
            matches!(err, OisaError::Core(CoreError::InvalidParameter(ref what)) if what.contains("deadline")),
            "{err}"
        );
        let fillable = ServingConfig {
            max_batch: 4,
            ..unfillable
        };
        let accel = OisaAccelerator::new(engine_config(5)).unwrap();
        assert!(ServingEngine::new(accel, vec![vec![0.5f32; 9]], 3, fillable).is_ok());
    }

    /// `max_batch: usize::MAX` (take whatever is queued) builds and
    /// serves: the histogram is sized by the largest batch that can
    /// form, which the queue bounds.
    #[test]
    fn an_unbounded_max_batch_sizes_the_histogram_by_the_queue() {
        let accel = OisaAccelerator::new(engine_config(6)).unwrap();
        let serving = ServingConfig {
            max_batch: usize::MAX,
            deadline: Duration::from_millis(1),
            queue_depth: 4,
        };
        let engine = ServingEngine::new(accel, vec![vec![0.5f32; 9]], 3, serving).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|t| engine.submit(frame_16(t)).unwrap())
            .collect();
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
        let (_backend, stats) = engine.shutdown();
        assert_eq!(stats.frames_completed, 3);
        assert_eq!(stats.batch_size_histogram.len(), 5);
        assert_eq!(
            stats.batch_size_histogram.iter().sum::<u64>(),
            stats.batches_run
        );
    }

    /// A backend that answers a batch with the wrong number of reports
    /// fails the whole batch: every handle resolves with an error
    /// instead of a slot past the short list waiting forever.
    #[test]
    fn a_miscounted_reply_resolves_every_handle_with_an_error() {
        /// Runs the job locally, then drops the last report.
        struct DropsLastReport(LocalBackend);

        impl ComputeBackend for DropsLastReport {
            fn config(&self) -> &OisaConfig {
                self.0.config()
            }

            fn run_job(&mut self, job: &InferenceJob) -> ServeResult<Vec<ConvolutionReport>> {
                let mut reports = self.0.run_job(job)?;
                reports.pop();
                Ok(reports)
            }
        }

        let backend = DropsLastReport(LocalBackend::new(engine_config(7)).unwrap());
        let serving = ServingConfig {
            max_batch: 2,
            deadline: Duration::MAX,
            queue_depth: 2,
        };
        let engine =
            ServingEngine::with_backend(backend, vec![vec![0.5f32; 9]], 3, serving).unwrap();
        let handles: Vec<_> = (0..2)
            .map(|t| engine.submit(frame_16(t)).unwrap())
            .collect();
        let (_backend, stats) = engine.shutdown();
        assert_eq!(stats.frames_completed, 2);
        for mut handle in handles {
            let err = handle
                .try_take()
                .expect("shutdown answers every handle")
                .unwrap_err();
            assert!(
                matches!(err, OisaError::Backend(ref what) if what.contains("1 reports for a batch of 2")),
                "{err}"
            );
        }
    }

    /// A serving engine fronting a [`FleetSupervisor`] self-heals: one
    /// worker dies on its very first shard, the supervisor promotes
    /// the spare inside the same job, and every submitter's report is
    /// bit-identical to a single-accelerator engine — the failure is
    /// invisible above the backend seam.
    #[test]
    fn supervised_engine_self_heals_under_worker_death() {
        use crate::backend::{FleetSupervisor, InProcessWorker, ShardTransport, SupervisorOptions};
        use crate::wire::WireMessage;

        /// Serves until `shards_before_death` shards, then fails every
        /// round trip like a crashed process (same shape as the
        /// supervisor unit tests' doomed worker).
        struct DyingWorker {
            inner: InProcessWorker,
            shards_before_death: u64,
            served: u64,
            dead: bool,
        }

        impl ShardTransport for DyingWorker {
            fn round_trip(&mut self, message: &[u8]) -> Result<Vec<u8>, OisaError> {
                if !self.dead
                    && matches!(
                        crate::wire::decode(message),
                        Ok(WireMessage::ProgramShard(_))
                    )
                {
                    if self.served >= self.shards_before_death {
                        self.dead = true;
                    } else {
                        self.served += 1;
                    }
                }
                if self.dead {
                    return Err(OisaError::Transport {
                        endpoint: "dying-worker".into(),
                        attempts: 1,
                        cause: "injected worker death".into(),
                    });
                }
                self.inner.round_trip(message)
            }

            fn endpoint_label(&self) -> String {
                "dying-worker".into()
            }
        }

        let config = engine_config(11);
        let kernels = vec![vec![0.5f32; 9], vec![-0.125f32; 9]];
        let active: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(InProcessWorker::new(config)),
            Box::new(DyingWorker {
                inner: InProcessWorker::new(config),
                shards_before_death: 0,
                served: 0,
                dead: false,
            }),
        ];
        let spares: Vec<Box<dyn ShardTransport>> = vec![Box::new(InProcessWorker::new(config))];
        let supervisor =
            FleetSupervisor::new(config, active, spares, SupervisorOptions::default()).unwrap();

        // Batch all 6 frames into one job so the dying worker's shard
        // failure happens mid-batch.
        let serving = ServingConfig {
            max_batch: 6,
            deadline: Duration::from_secs(5),
            queue_depth: 16,
        };
        let engine = ServingEngine::with_backend(supervisor, kernels.clone(), 3, serving).unwrap();
        let handles: Vec<_> = (0..6)
            .map(|t| engine.submit(frame_16(t)).expect("queue has room"))
            .collect();
        let reports: Vec<ConvolutionReport> =
            handles.into_iter().map(|h| h.wait().unwrap()).collect();
        let (backend, stats) = engine.shutdown();
        assert_eq!(stats.frames_completed, 6);
        let status = backend.status();
        assert_eq!(status.promotions, 1, "the spare must have been promoted");
        assert_eq!(status.quarantined, 1);

        // Oracle: the same frames through a plain local engine.
        let accel = OisaAccelerator::new(config).unwrap();
        let oracle = ServingEngine::new(accel, kernels, 3, serving).unwrap();
        let oracle_handles: Vec<_> = (0..6)
            .map(|t| oracle.submit(frame_16(t)).expect("queue has room"))
            .collect();
        let expected: Vec<ConvolutionReport> = oracle_handles
            .into_iter()
            .map(|h| h.wait().unwrap())
            .collect();
        let _ = oracle.shutdown();
        assert_eq!(
            reports, expected,
            "self-healed serving must be bit-identical to a local engine"
        );
    }
}
