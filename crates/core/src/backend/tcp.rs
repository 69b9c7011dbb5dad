//! The multi-host deployment pieces: a [`TcpStream`]-backed
//! [`ShardTransport`] and the accept-loop worker daemon behind the
//! `oisa_worker` binary.
//!
//! Everything here speaks the length-prefixed, schema-versioned
//! [`wire`] protocol; the in-process transport hands the same payloads
//! to the same request handler without the length prefix. The pieces:
//!
//! * [`TcpTransport`] — the coordinator's side of one worker
//!   connection. Connects with a timeout, performs a
//!   [`wire::Handshake`] (nonce echo + config-fingerprint check, so a
//!   mis-deployed fleet fails at connect time), and retries broken
//!   round trips by reconnecting with exponential backoff — jittered,
//!   so a fleet restarting together does not hammer a recovering
//!   worker in lock-step — and **resending the shard**, safe because
//!   workers are stateless per shard, so re-execution is idempotent.
//!   When every attempt fails the caller gets a typed
//!   [`OisaError::Transport`], never a hang: reads and writes carry
//!   [`TcpTransportConfig::io_timeout`]. With
//!   [`TcpTransport::connect_with_config`] the handshake becomes a
//!   config *push* instead of a fingerprint *check*: the full
//!   [`OisaConfig`] travels in a [`WireMessage::Configure`] and the
//!   worker rebuilds its accelerator to match, so heterogeneous fleets
//!   converge instead of refusing. The push repeats on every
//!   reconnect, because a worker's adopted config is
//!   connection-local.
//! * [`TcpWorker`] — the daemon: binds a port, accepts coordinator
//!   connections, and serves each on its own thread with one
//!   [`InProcessWorker`] — the worker state and its request handler —
//!   until the peer disconnects. Any number of coordinators may connect
//!   over the daemon's lifetime; every shard is self-contained and a
//!   config push holds for its connection only, so the daemon keeps no
//!   cross-connection state (beyond the fault-injection shard
//!   counter).
//!
//! # Failure model
//!
//! A worker daemon dying mid-shard surfaces to the coordinator as a
//! connection reset / EOF; [`TcpTransport`] retries against the same
//! endpoint (covering daemon restarts and transient network faults) and
//! then reports [`OisaError::Transport`]. The
//! [`FleetSupervisor`](super::FleetSupervisor) takes it from there: it
//! quarantines the endpoint and promotes a spare or re-plans the shard
//! across the surviving workers, so the job still merges
//! **bit-identically**. When the failed daemon was the last worker, the
//! job returns this error having advanced no coordinator state; the
//! transport stays in the fleet and redials on the next job, so a retry
//! after the daemon restarts at the same endpoint re-executes
//! bit-identically.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::accelerator::OisaConfig;
use crate::error::OisaError;
use crate::wire::{self, Handshake, WireError, WireMessage};

use super::{refusal_to_error, BackendResult, InProcessWorker, ShardTransport};

// ---------------------------------------------------------------------
// Coordinator side: TcpTransport
// ---------------------------------------------------------------------

/// Ceiling on the doubled reconnect backoff: however many attempts a
/// transport is configured for, no single sleep exceeds this.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Jitter adds at most this fraction (1/4) of the current backoff.
const JITTER_DENOM: u32 = 4;

/// The sleep before a reconnect attempt: the (capped) doubling backoff
/// plus a deterministic jitter in `[0, backoff / JITTER_DENOM]`,
/// derived from `salt` (per-transport) and `attempt` — so a fleet of
/// transports restarting together spreads its reconnects instead of
/// thundering in lock-step, while any single schedule stays
/// reproducible. Jitter only shifts *when* a resend happens; shard
/// results are bit-identical regardless (workers are stateless per
/// shard).
fn jittered_backoff(backoff: Duration, salt: u64, attempt: u32) -> Duration {
    let capped = backoff.min(MAX_BACKOFF);
    let span = capped / JITTER_DENOM;
    if span.is_zero() {
        return capped;
    }
    // FNV-1a over (salt, attempt): cheap, deterministic, well-spread.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in salt.to_le_bytes().into_iter().chain(attempt.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    #[allow(clippy::cast_possible_truncation)]
    let permille = (h % 1001) as u32;
    capped + span.mul_f64(f64::from(permille) / 1000.0)
}

/// FNV-1a over the endpoint string: the per-transport jitter salt, so
/// two transports dialing different workers never share a schedule.
fn endpoint_salt(endpoint: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in endpoint.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Connection-lifecycle knobs of a [`TcpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTransportConfig {
    /// Budget for one TCP connect attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout on the established stream. Must exceed the
    /// worst-case shard execution time — a reply that takes longer
    /// counts as a broken connection. `None` blocks indefinitely
    /// (surviving on the peer's death signal alone).
    pub io_timeout: Option<Duration>,
    /// Total attempts per [`ShardTransport::round_trip`] (first try
    /// plus reconnects). At least 1.
    pub attempts: u32,
    /// Backoff before the first reconnect; doubles per further attempt.
    pub backoff: Duration,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(30)),
            attempts: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One worker daemon as the coordinator sees it: a [`ShardTransport`]
/// over a [`TcpStream`], with reconnect-and-resend retry (module docs).
#[derive(Debug)]
pub struct TcpTransport {
    endpoint: String,
    /// The coordinator's config fingerprint, offered in the handshake
    /// and checked against the worker's.
    fingerprint: u64,
    /// When set, fresh connections open with a
    /// [`WireMessage::Configure`] push of this config instead of a
    /// fingerprint-checking ping (module docs).
    push_config: Option<OisaConfig>,
    options: TcpTransportConfig,
    stream: Option<TcpStream>,
    nonce: u64,
    /// Per-transport jitter salt (see [`jittered_backoff`]).
    salt: u64,
}

/// How one round-trip attempt failed.
enum AttemptError {
    /// Worth reconnecting and resending: connect failures, broken or
    /// timed-out streams, a peer that died mid-reply.
    Retry(String),
    /// Pointless to retry: protocol violations and config mismatches.
    Fatal(OisaError),
}

impl From<WireError> for AttemptError {
    fn from(e: WireError) -> Self {
        match e {
            // A dead or stalled stream may come back after a reconnect.
            WireError::Io(_) | WireError::Truncated { .. } => Self::Retry(e.to_string()),
            // Anything else decoded fine and is simply wrong.
            other => Self::Fatal(other.into()),
        }
    }
}

impl TcpTransport {
    /// Connects to a worker daemon eagerly, handshake included, so a
    /// bad endpoint or a mismatched config fails at fleet construction
    /// instead of on the first job.
    ///
    /// # Errors
    ///
    /// [`OisaError::Transport`] when the endpoint stays unreachable
    /// across every attempt; [`OisaError::FingerprintMismatch`] when
    /// the worker answers the handshake with different physics.
    pub fn connect(
        endpoint: impl Into<String>,
        fingerprint: u64,
        options: TcpTransportConfig,
    ) -> BackendResult<Self> {
        let mut transport = Self::deferred(endpoint, fingerprint, options);
        transport.with_retries(|t| t.ensure_connected())?;
        Ok(transport)
    }

    /// Like [`TcpTransport::connect`], but every fresh connection
    /// opens with a [`WireMessage::Configure`] carrying
    /// `config` in full: the worker rebuilds its accelerator from it
    /// and acknowledges with the fingerprint of what it *applied*. A
    /// worker started with different physics therefore serves this
    /// coordinator instead of refusing on fingerprint mismatch — the
    /// heterogeneous-fleet admission path. The push repeats on every
    /// reconnect (a worker's adopted config is connection-local), and
    /// a worker that refuses it surfaces here as
    /// [`OisaError::ShardRefused`].
    ///
    /// # Errors
    ///
    /// As [`TcpTransport::connect`], plus
    /// [`OisaError::FingerprintMismatch`] when the acknowledged
    /// fingerprint differs from `config`'s (the worker failed to apply
    /// the push).
    pub fn connect_with_config(
        endpoint: impl Into<String>,
        config: OisaConfig,
        options: TcpTransportConfig,
    ) -> BackendResult<Self> {
        let mut transport = Self::deferred(endpoint, config.fingerprint(), options);
        transport.push_config = Some(config);
        transport.with_retries(|t| t.ensure_connected())?;
        Ok(transport)
    }

    /// A transport that performs no I/O until its first
    /// [`round_trip`](ShardTransport::round_trip) — for workers that
    /// start after the coordinator.
    pub fn deferred(
        endpoint: impl Into<String>,
        fingerprint: u64,
        options: TcpTransportConfig,
    ) -> Self {
        let endpoint = endpoint.into();
        let salt = endpoint_salt(&endpoint);
        Self {
            endpoint,
            fingerprint,
            push_config: None,
            options,
            stream: None,
            nonce: 0,
            salt,
        }
    }

    /// The endpoint this transport dials.
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Runs `step` under the retry policy: transient failures drop the
    /// connection, back off (doubling, capped, jittered — see
    /// [`jittered_backoff`]), and try again; fatal ones and exhaustion
    /// return typed errors.
    fn with_retries<T>(
        &mut self,
        mut step: impl FnMut(&mut Self) -> Result<T, AttemptError>,
    ) -> BackendResult<T> {
        let attempts = self.options.attempts.max(1);
        let mut backoff = self.options.backoff;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(jittered_backoff(backoff, self.salt, attempt));
                backoff = backoff.saturating_mul(2);
            }
            match step(self) {
                Ok(value) => return Ok(value),
                Err(AttemptError::Fatal(e)) => {
                    self.stream = None;
                    return Err(e);
                }
                Err(AttemptError::Retry(cause)) => {
                    self.stream = None;
                    last = cause;
                }
            }
        }
        Err(OisaError::Transport {
            endpoint: self.endpoint.clone(),
            attempts,
            cause: last,
        })
    }

    /// Establishes (or reuses) the connection, handshaking on fresh
    /// ones.
    fn ensure_connected(&mut self) -> Result<(), AttemptError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let addrs = self
            .endpoint
            .to_socket_addrs()
            .map_err(|e| AttemptError::Retry(format!("cannot resolve endpoint: {e}")))?;
        let mut last = format!("endpoint {} resolves to no address", self.endpoint);
        let mut stream = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.options.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = format!("connect to {addr} failed: {e}"),
            }
        }
        let stream = stream.ok_or(AttemptError::Retry(last))?;
        let configure = |s: &TcpStream| -> std::io::Result<()> {
            s.set_nodelay(true)?;
            s.set_read_timeout(self.options.io_timeout)?;
            s.set_write_timeout(self.options.io_timeout)
        };
        configure(&stream)
            .map_err(|e| AttemptError::Retry(format!("socket configuration failed: {e}")))?;
        self.stream = Some(stream);
        if let Err(e) = self.handshake() {
            self.stream = None;
            return Err(e);
        }
        Ok(())
    }

    /// The connection-opening exchange: a ping/pong proving the peer
    /// speaks this schema version and runs the same physics — or, when
    /// built via [`TcpTransport::connect_with_config`], a config push
    /// making the peer *adopt* this physics. A reply stamped with
    /// another schema version, or a refusal (what a worker of another
    /// version answers), is fatal: reconnecting cannot change a peer's
    /// version.
    fn handshake(&mut self) -> Result<(), AttemptError> {
        self.nonce = self.nonce.wrapping_add(1);
        let request = match self.push_config {
            Some(config) => WireMessage::Configure(wire::ConfigPush {
                nonce: self.nonce,
                config,
            }),
            None => WireMessage::Ping(Handshake {
                nonce: self.nonce,
                config_fingerprint: self.fingerprint,
            }),
        };
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| AttemptError::Retry("connection dropped before the handshake".into()))?;
        wire::send(stream, &request).map_err(AttemptError::from)?;
        let payload = wire::read_frame(stream)
            .map_err(AttemptError::from)?
            .ok_or_else(|| {
                AttemptError::Retry("worker closed the connection during the handshake".into())
            })?;
        let reply = wire::decode(&payload).map_err(AttemptError::from)?;
        let echoed = match (&reply, self.push_config.is_some()) {
            (WireMessage::Pong(pong), false) => *pong,
            (WireMessage::ConfigureAck(ack), true) => *ack,
            (WireMessage::Refusal(refusal), _) => {
                // A worker that cannot decode the request refuses it
                // (typed) — fatal, not a reconnect-and-hope situation.
                return Err(AttemptError::Fatal(refusal_to_error(refusal.clone())));
            }
            (other, _) => {
                return Err(AttemptError::Fatal(OisaError::Backend(format!(
                    "worker answered the handshake with a {}",
                    super::message_name(other)
                ))));
            }
        };
        if echoed.nonce != self.nonce {
            return Err(AttemptError::Retry(format!(
                "stale handshake reply (nonce {} ≠ {})",
                echoed.nonce, self.nonce
            )));
        }
        if echoed.config_fingerprint != self.fingerprint {
            // On the ping path the worker *runs* other physics; on the
            // push path it failed to adopt ours. Either way the fleet
            // must not serve through this transport.
            return Err(AttemptError::Fatal(OisaError::FingerprintMismatch {
                coordinator: self.fingerprint,
                worker: echoed.config_fingerprint,
            }));
        }
        Ok(())
    }

    /// One send-and-receive over the current connection.
    fn attempt(&mut self, message: &[u8]) -> Result<Vec<u8>, AttemptError> {
        self.ensure_connected()?;
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| AttemptError::Retry("connection dropped before the exchange".into()))?;
        wire::write_frame(stream, message).map_err(AttemptError::from)?;
        wire::read_frame(stream)
            .map_err(AttemptError::from)?
            .ok_or_else(|| {
                AttemptError::Retry("worker closed the connection before replying".into())
            })
    }
}

impl ShardTransport for TcpTransport {
    fn round_trip(&mut self, message: &[u8]) -> BackendResult<Vec<u8>> {
        self.with_retries(|t| t.attempt(message))
    }

    fn endpoint_label(&self) -> String {
        self.endpoint.clone()
    }
}

// ---------------------------------------------------------------------
// Worker side: the accept-loop daemon
// ---------------------------------------------------------------------

/// Behavioural knobs of a [`TcpWorker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOptions {
    /// Read timeout per connection; an idle coordinator past this
    /// drops the connection (the daemon keeps accepting new ones).
    /// `None` waits indefinitely — a coordinator's clean disconnect
    /// (EOF) always ends the connection either way.
    pub io_timeout: Option<Duration>,
    /// **Fault-injection hook for daemon processes only**: after this
    /// many shards (across all connections), the next shard **aborts
    /// the whole process** before replying — simulating a worker dying
    /// mid-job. Never set this on a [`TcpWorker::spawn`]ed in-process
    /// worker; it would kill the host process.
    pub fail_after_shards: Option<u64>,
}

/// The worker daemon: an accept loop serving [`ProgramShard`]s (and
/// handshake pings) to any coordinator that connects. The `oisa_worker`
/// binary is a CLI wrapper around this; tests use
/// [`TcpWorker::spawn`] to run one on a background thread.
///
/// [`ProgramShard`]: crate::wire::ProgramShard
#[derive(Debug)]
pub struct TcpWorker {
    listener: TcpListener,
    config: OisaConfig,
    options: WorkerOptions,
    shards_served: Arc<AtomicU64>,
}

impl TcpWorker {
    /// Binds the daemon to `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port, `0.0.0.0:7401` for a fixed deployment port).
    ///
    /// # Errors
    ///
    /// [`OisaError::Transport`] when the address cannot be bound.
    pub fn bind(config: OisaConfig, addr: &str) -> BackendResult<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| OisaError::Transport {
            endpoint: addr.to_string(),
            attempts: 1,
            cause: format!("bind failed: {e}"),
        })?;
        Ok(Self {
            listener,
            config,
            options: WorkerOptions::default(),
            shards_served: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Replaces the daemon's options.
    #[must_use]
    pub fn with_options(mut self, options: WorkerOptions) -> Self {
        self.options = options;
        self
    }

    /// The bound address (resolves the port chosen for `:0` binds).
    ///
    /// # Errors
    ///
    /// [`OisaError::Backend`] when the OS cannot report the address.
    pub fn local_addr(&self) -> BackendResult<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| OisaError::Backend(format!("local_addr failed: {e}")))
    }

    /// Runs the accept loop on the calling thread, forever (the daemon
    /// main). Each connection is served on its own thread until the
    /// peer disconnects. Accept errors are logged to stderr and the
    /// loop continues (after a short pause, so transient fd-pressure
    /// faults like `EMFILE` cannot busy-spin) — a long-running daemon
    /// must outlive them.
    ///
    /// # Errors
    ///
    /// Never returns `Ok`; an `Err` means the listener itself is gone
    /// (a long unbroken run of accept failures with not one
    /// connection in between).
    pub fn serve(self) -> BackendResult<()> {
        /// Consecutive accept failures tolerated before the listener
        /// is declared dead. With the 100 ms pause per failure this
        /// rides out several seconds of fd exhaustion, while a truly
        /// broken listener (which fails instantly, forever) still
        /// terminates the daemon with a typed error.
        const MAX_CONSECUTIVE_ACCEPT_FAILURES: u32 = 64;
        let endpoint = self
            .local_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        let mut consecutive_failures = 0u32;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    consecutive_failures = 0;
                    let config = self.config;
                    let options = self.options;
                    let counter = Arc::clone(&self.shards_served);
                    std::thread::spawn(move || {
                        serve_worker_connection(config, stream, options, &counter);
                    });
                }
                Err(e) => {
                    consecutive_failures += 1;
                    if consecutive_failures >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
                        return Err(OisaError::Transport {
                            endpoint,
                            attempts: consecutive_failures,
                            cause: format!("accept kept failing, last: {e}"),
                        });
                    }
                    log_line(&format!(
                        "oisa worker {endpoint}: accept failed (continuing): {e}"
                    ));
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }

    /// Runs the accept loop on a background thread — the in-process
    /// daemon shape tests and benches use. The thread runs until the
    /// process exits (dropping the handle does not stop it).
    ///
    /// # Errors
    ///
    /// As [`TcpWorker::local_addr`].
    pub fn spawn(self) -> BackendResult<TcpWorkerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::Builder::new()
            .name(format!("oisa-worker-{addr}"))
            .spawn(move || {
                if let Err(e) = self.serve() {
                    log_line(&format!("oisa worker {addr}: accept loop ended: {e}"));
                }
            })
            .map_err(|e| OisaError::Backend(format!("worker thread spawn failed: {e}")))?;
        Ok(TcpWorkerHandle {
            addr,
            _thread: thread,
        })
    }
}

/// A running in-process [`TcpWorker`] (see [`TcpWorker::spawn`]).
#[derive(Debug)]
pub struct TcpWorkerHandle {
    addr: SocketAddr,
    _thread: std::thread::JoinHandle<()>,
}

impl TcpWorkerHandle {
    /// The daemon's bound address, ready to hand to
    /// [`TcpTransport::connect`].
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's endpoint as a dialable string.
    #[must_use]
    pub fn endpoint(&self) -> String {
        self.addr.to_string()
    }
}

/// Serves one coordinator connection with one [`InProcessWorker`]
/// until EOF or a stream fault: reads a frame, decodes it, applies
/// [`WorkerOptions::fail_after_shards`] to a decoded shard, hands the
/// request to the worker's handler and sends the reply. The worker
/// starts from the daemon's config, so a config push holds for this
/// connection only.
fn serve_worker_connection(
    config: OisaConfig,
    stream: TcpStream,
    options: WorkerOptions,
    shards_served: &AtomicU64,
) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let configure = |s: &TcpStream| -> std::io::Result<TcpStream> {
        s.set_nodelay(true)?;
        s.set_read_timeout(options.io_timeout)?;
        s.set_write_timeout(options.io_timeout)?;
        s.try_clone()
    };
    let mut reader = match configure(&stream) {
        Ok(clone) => clone,
        Err(e) => {
            log_line(&format!(
                "oisa worker: connection from {peer} unusable: {e}"
            ));
            return;
        }
    };
    let mut writer = stream;
    let mut worker = InProcessWorker::new(config);
    let (mut requests, mut shards, mut pushes) = (0u64, 0u64, 0u64);
    let ended = loop {
        let payload = match wire::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        let request = wire::decode(&payload);
        match &request {
            Ok(WireMessage::ProgramShard(_)) => {
                let total = shards_served.fetch_add(1, Ordering::SeqCst);
                if let Some(limit) = options.fail_after_shards {
                    if total >= limit {
                        // Fault injection: die mid-request, reply unsent —
                        // exactly what a crashed worker looks like on the wire.
                        log_line(&format!(
                            "oisa worker: fail-after-shards={limit} reached, aborting mid-shard"
                        ));
                        std::process::exit(17);
                    }
                }
                shards += 1;
            }
            Ok(WireMessage::Configure(_)) => pushes += 1,
            _ => {}
        }
        let reply = worker.serve_worker_request(request);
        let sent = wire::send(&mut writer, &reply)
            .and_then(|()| writer.flush().map_err(|e| WireError::Io(e.to_string())));
        if let Err(e) = sent {
            break Err(e);
        }
        requests += 1;
    };
    let fingerprint = worker.config.fingerprint();
    log_line(&close_line(
        &peer,
        &ended,
        requests,
        shards,
        pushes,
        fingerprint,
    ));
}

/// The line a worker connection logs as it ends: `closed:` with what it
/// answered after the peer's clean EOF, `ended:` with the stream fault
/// otherwise.
fn close_line(
    peer: &str,
    ended: &Result<(), WireError>,
    requests: u64,
    shards: u64,
    pushes: u64,
    fingerprint: u64,
) -> String {
    match ended {
        Ok(()) => format!(
            "oisa worker: connection from {peer} closed: {requests} request(s) answered, \
             {shards} shard(s), {pushes} config push(es), final fingerprint {fingerprint:#018x}"
        ),
        Err(e) => format!("oisa worker: connection from {peer} ended: {e}"),
    }
}

/// Writes one worker log line to stderr, newline included, with one
/// `write_all`, so daemons that share a stderr cannot tear each other's
/// lines: `eprintln!` writes a line's pieces one at a time. A line that
/// stderr refuses is dropped; the daemon has nowhere else to say so.
fn log_line(line: &str) {
    let _ = std::io::stderr().write_all(format!("{line}\n").as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ComputeBackend, FleetSupervisor, SupervisorOptions};
    use crate::wire::InferenceJob;
    use oisa_device::noise::NoiseConfig;
    use oisa_sensor::frame::Frame;

    fn cfg(seed: u64) -> OisaConfig {
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = seed;
        cfg
    }

    fn one_worker_fleet(config: OisaConfig, transport: TcpTransport) -> FleetSupervisor {
        let options = SupervisorOptions::default();
        FleetSupervisor::new(config, vec![Box::new(transport)], Vec::new(), options).unwrap()
    }

    fn fast() -> TcpTransportConfig {
        TcpTransportConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(Duration::from_secs(10)),
            attempts: 2,
            backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn transport_round_trips_a_job_through_a_spawned_daemon() {
        let config = cfg(1);
        let worker = TcpWorker::bind(config, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        let transport =
            TcpTransport::connect(worker.endpoint(), config.fingerprint(), fast()).unwrap();
        let mut backend = one_worker_fleet(config, transport);
        let job = InferenceJob {
            job_id: 1,
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
            frames: vec![Frame::constant(16, 16, 0.6).unwrap()],
        };
        let reports = backend.run_job(&job).unwrap();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn connect_to_a_dead_endpoint_is_a_typed_transport_error() {
        // Bind-then-drop guarantees an unused port on loopback.
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let err = TcpTransport::connect(format!("127.0.0.1:{port}"), 0, fast()).unwrap_err();
        match err {
            OisaError::Transport {
                endpoint, attempts, ..
            } => {
                assert!(endpoint.contains(&port.to_string()), "{endpoint}");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected a transport error, got {other}"),
        }
    }

    #[test]
    fn handshake_names_mismatched_fingerprints_at_connect_time() {
        let worker_cfg = cfg(2);
        let coordinator_cfg = cfg(3); // different physics
        let worker = TcpWorker::bind(worker_cfg, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        let err = TcpTransport::connect(worker.endpoint(), coordinator_cfg.fingerprint(), fast())
            .unwrap_err();
        assert_eq!(
            err,
            OisaError::FingerprintMismatch {
                coordinator: coordinator_cfg.fingerprint(),
                worker: worker_cfg.fingerprint(),
            }
        );
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        for base_ms in [1u64, 5, 50, 400, 1900] {
            let base = Duration::from_millis(base_ms);
            for salt in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                for attempt in 1..6u32 {
                    let slept = jittered_backoff(base, salt, attempt);
                    let capped = base.min(MAX_BACKOFF);
                    assert!(slept >= capped, "{base_ms}ms salt {salt} attempt {attempt}");
                    assert!(
                        slept <= capped + capped / JITTER_DENOM,
                        "jitter exceeded 1/{JITTER_DENOM} of the backoff: \
                         {slept:?} for base {base_ms}ms"
                    );
                    // Same inputs, same sleep: schedules are reproducible.
                    assert_eq!(slept, jittered_backoff(base, salt, attempt));
                }
            }
        }
        // The doubling is capped: even an absurd backoff sleeps ≤ 2.5 s.
        let huge = jittered_backoff(Duration::from_secs(3600), 42, 9);
        assert!(huge <= MAX_BACKOFF + MAX_BACKOFF / JITTER_DENOM, "{huge:?}");
        // Different endpoints spread out: at least one pair of salts
        // disagrees for the same base and attempt.
        let spread: Vec<Duration> = (0..16u64)
            .map(|salt| jittered_backoff(Duration::from_millis(400), salt, 1))
            .collect();
        assert!(
            spread.iter().any(|d| *d != spread[0]),
            "all 16 salts produced the same sleep: {spread:?}"
        );
    }

    #[test]
    fn config_push_makes_a_mismatched_worker_serve_with_parity() {
        let worker_cfg = cfg(20); // different seed ⇒ different physics
        let coordinator_cfg = cfg(21);
        assert_ne!(worker_cfg.fingerprint(), coordinator_cfg.fingerprint());
        let worker = TcpWorker::bind(worker_cfg, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();

        // Without the push, admission fails on the fingerprint check.
        let refused =
            TcpTransport::connect(worker.endpoint(), coordinator_cfg.fingerprint(), fast())
                .unwrap_err();
        assert!(matches!(refused, OisaError::FingerprintMismatch { .. }));

        // With the push, the same daemon adopts the coordinator's
        // physics and serves — bit-identical to a local run.
        let transport =
            TcpTransport::connect_with_config(worker.endpoint(), coordinator_cfg, fast()).unwrap();
        let mut backend = one_worker_fleet(coordinator_cfg, transport);
        let job = InferenceJob {
            job_id: 31,
            k: 3,
            kernels: vec![vec![0.5f32; 9], vec![-0.25f32; 9]],
            frames: (0..3)
                .map(|i| Frame::constant(16, 16, 0.2 + 0.1 * f64::from(i)).unwrap())
                .collect(),
        };
        let pushed = backend.run_job(&job).unwrap();
        let mut local = crate::backend::LocalBackend::new(coordinator_cfg).unwrap();
        let expected = local.run_job(&job).unwrap();
        assert_eq!(pushed, expected, "config-pushed fleet must match local");
    }

    #[test]
    fn close_line_pins_the_connection_end_text() {
        assert_eq!(
            close_line("127.0.0.1:9", &Ok(()), 4, 2, 1, 0xabc),
            "oisa worker: connection from 127.0.0.1:9 closed: 4 request(s) answered, \
             2 shard(s), 1 config push(es), final fingerprint 0x0000000000000abc"
        );
        let reset = Err(WireError::Io("reset".into()));
        assert_eq!(
            close_line("127.0.0.1:9", &reset, 4, 2, 1, 0xabc),
            "oisa worker: connection from 127.0.0.1:9 ended: stream error: reset"
        );
    }

    #[test]
    fn deferred_transport_connects_on_first_use() {
        let config = cfg(4);
        let worker = TcpWorker::bind(config, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        let transport = TcpTransport::deferred(worker.endpoint(), config.fingerprint(), fast());
        let mut backend = one_worker_fleet(config, transport);
        assert_eq!(backend.status().active, 1);
        let job = InferenceJob {
            job_id: 9,
            k: 3,
            kernels: vec![vec![0.25f32; 9]],
            frames: vec![Frame::constant(16, 16, 0.4).unwrap()],
        };
        assert_eq!(backend.run_job(&job).unwrap().len(), 1);
    }
}
