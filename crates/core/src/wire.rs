//! Versioned wire schema for distributed execution.
//!
//! The sharded backend splits every job into [`ProgramShard`]s, ships
//! each to a worker process and merges the returned [`ProgramReport`]s
//! ([`crate::backend`]). A conv [`InferenceJob`] travels as the
//! one-stage program `[Stage::Conv]`, a [`ProgramJob`] as its own
//! program, so one shard/report pair serves both. This module is the
//! protocol between those processes: a small, explicit, **versioned**
//! binary encoding with strict decode errors, so a coordinator and a
//! worker that disagree about anything fail loudly instead of silently
//! computing on garbage.
//!
//! # Framing and layout
//!
//! Messages travel over any byte stream (TCP sockets in the in-tree
//! transports) as length-prefixed frames; the in-process transport
//! hands over the bare payload:
//!
//! ```text
//! frame   := len:u32le payload
//! payload := magic:u16le version:u16le tag:u8 body
//! ```
//!
//! All integers are little-endian; `f64`/`f32` travel as their IEEE-754
//! bit patterns, so reports round-trip **bit-exactly** — a requirement,
//! not a nicety, because the sharding contract is bit-identical merges.
//! Collections are a `u32` count followed by the elements.
//!
//! # Versioning
//!
//! Every message travels stamped [`SCHEMA_VERSION`] (5), and decoding
//! accepts no other stamp: anything else is
//! [`WireError::UnsupportedVersion`]. A worker answers such a request
//! with a typed [`ShardRefusal`] rather than hanging up, and a TCP
//! coordinator's handshake reports it as a fatal error without
//! retrying. The complete byte-level layout of every message and the
//! refusal-code catalogue live in `docs/wire-format.md`, whose
//! examples are pinned by the doctest below.
//!
//! # Strictness
//!
//! Decoding rejects, with a typed [`WireError`] and never a panic:
//!
//! * a bad magic, a version other than [`SCHEMA_VERSION`] or an
//!   unknown message tag,
//! * truncated payloads and truncated length prefixes,
//! * trailing bytes after a complete message,
//! * length prefixes beyond [`MAX_MESSAGE_BYTES`] (a corrupt prefix
//!   must not become an allocation bomb),
//! * semantic violations the constructors enforce (e.g. frame pixels
//!   outside `[0, 1]`, a pushed config that fails
//!   [`OisaConfig`] builder validation, or a layer program that fails
//!   [`crate::program::LayerProgram::validate`]).
//!
//! The shim `serde` derive on these types is a forward-compatibility
//! marker only (the offline build has no real serde); this module is
//! the actual, tested serialization.
//!
//! # Examples
//!
//! This doctest pins the worked byte examples of `docs/wire-format.md`
//! — if the layout drifts, it fails before the spec lies:
//!
//! ```
//! use oisa_core::program::LayerProgram;
//! use oisa_core::wire::{
//!     self, FabricEntry, Handshake, ProgramShard, RefusalCode, ShardRefusal, WireMessage,
//! };
//! use oisa_sensor::Frame;
//!
//! // A Ping payload, byte for byte: magic "OW", version 5, tag 5,
//! // then the two u64le handshake fields.
//! let ping = WireMessage::Ping(Handshake {
//!     nonce: 7,
//!     config_fingerprint: 0x0123_4567_89AB_CDEF,
//! });
//! let payload = wire::encode(&ping);
//! assert_eq!(
//!     payload,
//!     [
//!         0x4F, 0x57, // magic "OW"
//!         0x05, 0x00, // version 5
//!         0x05, // tag 5 = Ping
//!         0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // nonce
//!         0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // fingerprint
//!     ]
//! );
//!
//! // Framing adds a u32le length prefix.
//! let mut framed = Vec::new();
//! wire::write_frame(&mut framed, &payload).unwrap();
//! assert_eq!(&framed[..4], &21u32.to_le_bytes());
//! assert_eq!(&framed[4..], &payload[..]);
//!
//! // A shard: header, then 40 bytes of ids, epoch and fingerprint,
//! // then the entry byte (1 = WarmSelf) and the program's stage count.
//! let shard = wire::encode(&WireMessage::ProgramShard(ProgramShard {
//!     job_id: 1,
//!     shard_index: 0,
//!     shard_count: 1,
//!     first_frame: 0,
//!     first_epoch: 0,
//!     config_fingerprint: 0,
//!     entry: FabricEntry::WarmSelf,
//!     program: LayerProgram::autoencoder(16, 16, 2, 4, 1).unwrap(),
//!     frames: vec![Frame::constant(16, 16, 0.5).unwrap()],
//! }));
//! assert_eq!(&shard[..5], &[0x4F, 0x57, 0x05, 0x00, 0x0A]);
//! assert_eq!(shard[45], 1);
//! assert_eq!(&shard[46..50], &4u32.to_le_bytes());
//!
//! // A refusal with the fingerprint-mismatch code.
//! let refusal = wire::encode(&WireMessage::Refusal(ShardRefusal {
//!     job_id: 9,
//!     shard_index: 2,
//!     code: RefusalCode::FingerprintMismatch {
//!         coordinator: 0xAAAA,
//!         worker: 0xBBBB,
//!     },
//!     reason: "no".into(),
//! }));
//! let mut expected = vec![0x4F, 0x57, 0x05, 0x00, 0x04]; // header
//! expected.extend_from_slice(&9u64.to_le_bytes()); // job_id
//! expected.extend_from_slice(&2u32.to_le_bytes()); // shard_index
//! expected.push(1); // code discriminant: fingerprint mismatch
//! expected.extend_from_slice(&0xAAAAu64.to_le_bytes());
//! expected.extend_from_slice(&0xBBBBu64.to_le_bytes());
//! expected.extend_from_slice(&2u32.to_le_bytes()); // reason length
//! expected.extend_from_slice(b"no");
//! assert_eq!(refusal, expected);
//!
//! // Round trip: decode returns the identical message; any other
//! // stamp is refused.
//! assert_eq!(wire::decode(&payload).unwrap(), ping);
//! let mut v4 = payload.clone();
//! v4[2] = 0x04;
//! assert_eq!(
//!     wire::decode(&v4),
//!     Err(wire::WireError::UnsupportedVersion { got: 4 })
//! );
//! ```

use std::io::{Read, Write};

use oisa_sensor::frame::Frame;
use oisa_sensor::imager::ImagerConfig;
use oisa_sensor::pixel::PixelDesign;
use oisa_sensor::vam::VamConfig;

use oisa_device::awc::AwcModel;
use oisa_device::mr::MrDesign;
use oisa_device::noise::NoiseConfig;
use oisa_device::photodiode::PhotodiodeParams;
use oisa_device::sense_amp::SenseAmpParams;
use oisa_device::vcsel::VcselParams;
use oisa_device::waveguide::LossBudget;

use oisa_optics::arm::ArmConfig;
use oisa_optics::opc::OpcConfig;
use oisa_optics::vom::VomConfig;

use crate::accelerator::{ConvolutionReport, EnergyReport, OisaConfig};
use crate::controller::{ControllerTiming, Timeline};
use crate::mapping::MappingPlan;
use oisa_units::{Ampere, Farad, Hertz, Joule, Kelvin, Meter, Ohm, Second, Volt, Watt};

/// Version of the message layout: the stamp every message carries and
/// the only one [`decode`] accepts. Bump on **any** layout change, so
/// a peer built against another layout is refused, never misparsed.
pub const SCHEMA_VERSION: u16 = 5;

/// Magic prefix of every payload (`"OW"`, OISA wire).
pub const MAGIC: u16 = u16::from_le_bytes(*b"OW");

/// Upper bound a frame's length prefix may claim. Generous for real
/// jobs (a 1024×1024 float frame is 8 MiB) while keeping a corrupt
/// prefix from looking like a 4 GiB allocation.
pub const MAX_MESSAGE_BYTES: u32 = 256 * 1024 * 1024;

// Tags 1–3 and 9 belonged to the retired conv-shard and job messages.
const TAG_REFUSAL: u8 = 4;
const TAG_PING: u8 = 5;
const TAG_PONG: u8 = 6;
const TAG_CONFIGURE: u8 = 7;
const TAG_CONFIGURE_ACK: u8 = 8;
const TAG_PROGRAM_SHARD: u8 = 10;
const TAG_PROGRAM_REPORT: u8 = 11;

/// Decode/framing failures. Every variant is a *protocol* fault — the
/// bytes were readable but wrong — except [`WireError::Io`], which
/// wraps transport failures so stream helpers return one error type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The payload does not start with [`MAGIC`].
    BadMagic(u16),
    /// The payload's schema version is not [`SCHEMA_VERSION`].
    UnsupportedVersion {
        /// The version the peer wrote.
        got: u16,
    },
    /// The message tag names no known message type.
    UnknownTag(u8),
    /// The payload ended before the layout was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// A complete message was followed by garbage.
    TrailingBytes(usize),
    /// A length prefix claimed more than [`MAX_MESSAGE_BYTES`].
    TooLarge(u32),
    /// The bytes decoded but violate a semantic invariant.
    Malformed(String),
    /// The underlying stream failed.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(got) => write!(f, "bad magic 0x{got:04x} (expected 0x{MAGIC:04x})"),
            Self::UnsupportedVersion { got } => write!(
                f,
                "unsupported schema version {got} (this build speaks only {SCHEMA_VERSION})"
            ),
            Self::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            Self::Truncated { needed, available } => write!(
                f,
                "truncated message: needed {needed} more byte(s), {available} available"
            ),
            Self::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            Self::TooLarge(n) => write!(
                f,
                "length prefix {n} exceeds the {MAX_MESSAGE_BYTES}-byte message bound"
            ),
            Self::Malformed(what) => write!(f, "malformed message: {what}"),
            Self::Io(what) => write!(f, "stream error: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wire-level result alias.
pub type Result<T> = std::result::Result<T, WireError>;

/// A batch of frames to convolve with a fixed kernel set — the conv
/// job a [`ComputeBackend`](crate::backend::ComputeBackend) executes.
/// Not itself a wire message: a sharded backend ships it as the
/// one-stage program `[Stage::Conv { k, kernels }]`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InferenceJob {
    /// Caller-chosen identifier, echoed in every shard and report.
    pub job_id: u64,
    /// Kernel side (3, 5 or 7).
    pub k: usize,
    /// One `k²`-weight plane per output channel.
    pub kernels: Vec<Vec<f32>>,
    /// The frames, in order; reports come back in the same order.
    pub frames: Vec<Frame>,
}

/// A batch of frames to run through a multi-stage
/// [`LayerProgram`](crate::program::LayerProgram) — the
/// program-capable counterpart of [`InferenceJob`]. Not itself a wire
/// message: a sharded backend ships it as [`ProgramShard`]s.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgramJob {
    /// Caller-chosen identifier, echoed in every shard and report.
    pub job_id: u64,
    /// The stages every frame passes through, in order.
    pub program: crate::program::LayerProgram,
    /// The frames, in order; reports come back in the same order.
    pub frames: Vec<Frame>,
}

/// A contiguous `(frame, epoch)` range of a job, assigned to one
/// worker — the one shard message. Self-contained: a stateless worker
/// can execute it from nothing but this message plus the out-of-band
/// deployment config (checked via [`ProgramShard::config_fingerprint`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgramShard {
    /// The job this shard belongs to.
    pub job_id: u64,
    /// Position of this shard in the job's split.
    pub shard_index: u32,
    /// Number of shards the job was split into.
    pub shard_count: u32,
    /// Index (within the job) of this shard's first frame.
    pub first_frame: u64,
    /// Absolute noise epoch of this shard's first frame. Programs
    /// consume [`epochs_per_frame`](crate::program::LayerProgram::epochs_per_frame)
    /// epochs per frame, so this is
    /// `job_base + first_frame · epochs_per_frame`.
    pub first_epoch: u64,
    /// Fingerprint of the coordinator's [`OisaConfig`]; a worker
    /// refuses shards whose fingerprint differs from its own config's.
    pub config_fingerprint: u64,
    /// The fabric state the shard's first frame must see.
    pub entry: FabricEntry,
    /// The stages every frame passes through, in order.
    pub program: crate::program::LayerProgram,
    /// This shard's frames, in job order.
    pub frames: Vec<Frame>,
}

/// A [`ProgramShard`] with its entry, program and frames borrowed,
/// which encodes to the owned shard's exact bytes.
pub(crate) struct ProgramShardRef<'a> {
    pub(crate) job_id: u64,
    pub(crate) shard_index: u32,
    pub(crate) shard_count: u32,
    pub(crate) first_frame: u64,
    pub(crate) first_epoch: u64,
    pub(crate) config_fingerprint: u64,
    pub(crate) entry: &'a FabricEntry,
    pub(crate) program: &'a crate::program::LayerProgram,
    pub(crate) frames: &'a [Frame],
}

impl ProgramShard {
    fn borrowed(&self) -> ProgramShardRef<'_> {
        ProgramShardRef {
            job_id: self.job_id,
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            first_frame: self.first_frame,
            first_epoch: self.first_epoch,
            config_fingerprint: self.config_fingerprint,
            entry: &self.entry,
            program: &self.program,
            frames: &self.frames,
        }
    }
}

/// One worker's results for one shard: per-frame
/// [`ProgramFrameReport`](crate::program::ProgramFrameReport)s in
/// frame order, merge-ready. A conv job's frame reports each hold one
/// [`StageReport::Conv`](crate::program::StageReport::Conv).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgramReport {
    /// Echo of [`ProgramShard::job_id`].
    pub job_id: u64,
    /// Echo of [`ProgramShard::shard_index`].
    pub shard_index: u32,
    /// Echo of [`ProgramShard::first_frame`].
    pub first_frame: u64,
    /// One report per shard frame, in order.
    pub reports: Vec<crate::program::ProgramFrameReport>,
}

/// The fabric state a shard's first frame must see, so tuning/memory
/// energies merge bit-identically (ring tuning cost depends on the
/// previous operating point).
#[derive(Debug, Clone, PartialEq)]
pub enum FabricEntry {
    /// Pristine fabric: nothing staged. A conv job whose first frame
    /// opens the coordinator's stream enters so, paying the cold-entry
    /// tuning cost a sequential host's first frame pays.
    Cold,
    /// Stage the shard program's own steady state once before
    /// computing
    /// ([`prewarm_program`](crate::accelerator::OisaAccelerator::prewarm_program))
    /// — the state a sequential loop reaches after any complete frame.
    /// Every program shard, and every conv shard but a job's first,
    /// enters so.
    WarmSelf,
    /// Stage *this* kernel set once before computing: the state a
    /// previous conv job (with different kernels) left the fabric in.
    Warm {
        /// Kernel side of the previous set.
        k: usize,
        /// The previous kernel planes.
        kernels: Vec<Vec<f32>>,
    },
}

/// Machine-readable class of a [`ShardRefusal`], so the coordinator can
/// map a worker's "no" onto a typed
/// [`OisaError`](crate::error::OisaError) variant instead of string
/// matching the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RefusalCode {
    /// Anything without a dedicated code; the reason string is the only
    /// detail.
    Other,
    /// The shard's config fingerprint does not match the worker's — the
    /// two ends were built from different physics. Carries both values
    /// so the coordinator can name them.
    FingerprintMismatch {
        /// Fingerprint the shard carried (the coordinator's config).
        coordinator: u64,
        /// Fingerprint of the worker's own config.
        worker: u64,
    },
}

impl std::fmt::Display for RefusalCode {
    /// The stable, log-greppable rendering supervisor logs use:
    /// `other` or
    /// `fingerprint-mismatch (coordinator 0x…, worker 0x…)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Other => write!(f, "other"),
            Self::FingerprintMismatch {
                coordinator,
                worker,
            } => write!(
                f,
                "fingerprint-mismatch (coordinator {coordinator:#018x}, worker {worker:#018x})"
            ),
        }
    }
}

/// A worker's typed "no": the shard could not run (fingerprint
/// mismatch, substrate failure, undecodable request). Travels instead
/// of a [`ProgramReport`] so coordinator-side errors carry the worker's
/// reason rather than a broken pipe.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardRefusal {
    /// Echo of the refused shard's job (0 when the request never
    /// decoded).
    pub job_id: u64,
    /// Echo of the refused shard's index (0 when the request never
    /// decoded).
    pub shard_index: u32,
    /// Machine-readable class of the refusal.
    pub code: RefusalCode,
    /// Human-readable cause.
    pub reason: String,
}

/// Ping/pong payload: a liveness + config-agreement probe. A TCP
/// coordinator sends [`WireMessage::Ping`] right after connecting; the
/// worker echoes the nonce in a [`WireMessage::Pong`] carrying its own
/// fingerprint, so a mis-deployed fleet fails at connect time instead
/// of on the first shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Handshake {
    /// Caller-chosen value the peer must echo (catches crossed or
    /// stale replies on a reused connection).
    pub nonce: u64,
    /// The sender's [`OisaConfig`
    /// fingerprint](crate::accelerator::OisaConfig::fingerprint).
    pub config_fingerprint: u64,
}

/// A configuration push: the coordinator's complete
/// [`OisaConfig`], serialized **field by field** — every pixel, ring,
/// detector, laser, timing and noise parameter — so a worker started
/// with different physics can rebuild its accelerator to match instead
/// of refusing every shard. The fingerprint itself never travels: it
/// hashes these same config bytes ([`OisaConfig::fingerprint`]), so
/// the receiving end recomputes it from the decoded config and any two
/// builds of one schema version agree on it.
///
/// Decoding re-runs the
/// [`OisaConfigBuilder`](crate::accelerator::OisaConfigBuilder)
/// validation, so a malformed push fails as a typed
/// [`WireError::Malformed`] before any accelerator is rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConfigPush {
    /// Caller-chosen value the worker must echo in its
    /// [`WireMessage::ConfigureAck`].
    pub nonce: u64,
    /// The configuration the worker must adopt.
    pub config: OisaConfig,
}

/// Every message the protocol speaks.
// `Configure` inlines a full `OisaConfig` (~600 B), dwarfing the other
// variants — acceptable because messages are built, encoded/decoded
// and dropped one at a time, never stored in bulk; boxing would only
// add a heap hop to every decode.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// A shard's typed failure (worker → coordinator).
    Refusal(ShardRefusal),
    /// Liveness/config probe (coordinator → worker).
    Ping(Handshake),
    /// Probe reply (worker → coordinator), nonce echoed.
    Pong(Handshake),
    /// A structured config push (coordinator → worker).
    Configure(ConfigPush),
    /// Config-push acknowledgement (worker → coordinator) — nonce
    /// echoed, `config_fingerprint` recomputed from the **applied**
    /// config, so the coordinator can verify the worker now runs its
    /// physics.
    ConfigureAck(Handshake),
    /// One shard of a job (coordinator → worker).
    ProgramShard(ProgramShard),
    /// A shard's results (worker → coordinator).
    ProgramReport(ProgramReport),
}

// ---------------------------------------------------------------------
// Primitive writer/reader
// ---------------------------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    /// Writes a collection length (`u32`); lengths beyond `u32::MAX`
    /// cannot occur for in-memory `Vec`s we build, but saturating would
    /// corrupt the stream, so this asserts the invariant.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("wire collection length exceeds u32"));
    }
    /// Appends `values` back to back, `N` bytes each, growing the
    /// buffer once.
    fn array<T: Copy, const N: usize>(&mut self, values: &[T], bytes: impl Fn(T) -> [u8; N]) {
        let start = self.0.len();
        self.0.resize(start + values.len() * N, 0);
        for (dst, &v) in self.0[start..].chunks_exact_mut(N).zip(values) {
            dst.copy_from_slice(&bytes(v));
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let available = self.buf.len() - self.pos;
        if n > available {
            return Err(WireError::Truncated {
                needed: n - available,
                available,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        )))
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// that could possibly back it (`min_elem_bytes` per element), so a
    /// corrupt count fails as [`WireError::Truncated`] instead of a
    /// huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let available = self.buf.len() - self.pos;
        let needed = n.saturating_mul(min_elem_bytes.max(1));
        if needed > available {
            return Err(WireError::Truncated {
                needed: needed - available,
                available,
            });
        }
        Ok(n)
    }

    /// Reads `n` values of `N` bytes each, checking the length once: a
    /// short payload fails as [`WireError::Truncated`] before anything
    /// is allocated.
    fn array<T, const N: usize>(
        &mut self,
        n: usize,
        value: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>> {
        let bytes = self.take(n.saturating_mul(N))?;
        Ok(bytes
            .chunks_exact(N)
            .map(|chunk| {
                let mut raw = [0u8; N];
                raw.copy_from_slice(chunk);
                value(raw)
            })
            .collect())
    }

    fn usize_from_u64(&mut self, what: &str) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| WireError::Malformed(format!("{what} {v} exceeds this host's usize")))
    }

    fn finish(&self) -> Result<()> {
        let trailing = self.buf.len() - self.pos;
        if trailing != 0 {
            return Err(WireError::TrailingBytes(trailing));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Composite codecs
// ---------------------------------------------------------------------

fn put_f32s(w: &mut Writer, values: &[f32]) {
    w.len(values.len());
    w.array(values, f32::to_le_bytes);
}

fn get_f32s(r: &mut Reader<'_>) -> Result<Vec<f32>> {
    let n = r.len(4)?;
    r.array(n, f32::from_le_bytes)
}

fn put_kernels(w: &mut Writer, kernels: &[Vec<f32>]) {
    w.len(kernels.len());
    for kernel in kernels {
        put_f32s(w, kernel);
    }
}

fn get_kernels(r: &mut Reader<'_>) -> Result<Vec<Vec<f32>>> {
    let n = r.len(4)?;
    (0..n).map(|_| get_f32s(r)).collect()
}

fn put_frame(w: &mut Writer, frame: &Frame) {
    w.u32(u32::try_from(frame.width()).expect("frame width exceeds u32"));
    w.u32(u32::try_from(frame.height()).expect("frame height exceeds u32"));
    w.array(frame.as_slice(), f64::to_le_bytes);
}

fn get_frame(r: &mut Reader<'_>) -> Result<Frame> {
    let width = r.u32()? as usize;
    let height = r.u32()? as usize;
    let pixels = width.checked_mul(height).ok_or_else(|| {
        WireError::Malformed(format!("frame {width}x{height} overflows a pixel count"))
    })?;
    let data = r.array(pixels, f64::from_le_bytes)?;
    Frame::new(width, height, data)
        .map_err(|e| WireError::Malformed(format!("frame rejected: {e}")))
}

fn put_frames(w: &mut Writer, frames: &[Frame]) {
    w.len(frames.len());
    for frame in frames {
        put_frame(w, frame);
    }
}

fn get_frames(r: &mut Reader<'_>) -> Result<Vec<Frame>> {
    let n = r.len(8)?;
    (0..n).map(|_| get_frame(r)).collect()
}

fn put_plan(w: &mut Writer, plan: &MappingPlan) {
    for field in [
        plan.kernel_size_class,
        plan.slots_per_pass,
        plan.passes,
        plan.planes_last_pass,
        plan.parallel_positions,
        plan.cycles_per_pass,
        plan.rings_per_pass,
        plan.tuning_iterations_per_pass,
        plan.macs_per_cycle,
    ] {
        w.u64(field as u64);
    }
}

fn get_plan(r: &mut Reader<'_>) -> Result<MappingPlan> {
    Ok(MappingPlan {
        kernel_size_class: r.usize_from_u64("plan.kernel_size_class")?,
        slots_per_pass: r.usize_from_u64("plan.slots_per_pass")?,
        passes: r.usize_from_u64("plan.passes")?,
        planes_last_pass: r.usize_from_u64("plan.planes_last_pass")?,
        parallel_positions: r.usize_from_u64("plan.parallel_positions")?,
        cycles_per_pass: r.usize_from_u64("plan.cycles_per_pass")?,
        rings_per_pass: r.usize_from_u64("plan.rings_per_pass")?,
        tuning_iterations_per_pass: r.usize_from_u64("plan.tuning_iterations_per_pass")?,
        macs_per_cycle: r.usize_from_u64("plan.macs_per_cycle")?,
    })
}

fn put_report(w: &mut Writer, report: &ConvolutionReport) {
    w.len(report.output.len());
    for map in &report.output {
        put_f32s(w, map);
    }
    w.u64(report.out_h as u64);
    w.u64(report.out_w as u64);
    put_plan(w, &report.plan);
    for t in [
        report.timeline.capture,
        report.timeline.mapping,
        report.timeline.compute,
        report.timeline.transmit,
        report.timeline.control,
    ] {
        w.f64(t.get());
    }
    for e in [
        report.energy.sensing,
        report.energy.encoding,
        report.energy.tuning,
        report.energy.compute,
        report.energy.aggregation,
        report.energy.memory,
    ] {
        w.f64(e.get());
    }
}

fn get_report(r: &mut Reader<'_>) -> Result<ConvolutionReport> {
    let maps = r.len(4)?;
    let output: Vec<Vec<f32>> = (0..maps).map(|_| get_f32s(r)).collect::<Result<_>>()?;
    let out_h = r.usize_from_u64("report.out_h")?;
    let out_w = r.usize_from_u64("report.out_w")?;
    let plan = get_plan(r)?;
    let timeline = Timeline {
        capture: Second::new(r.f64()?),
        mapping: Second::new(r.f64()?),
        compute: Second::new(r.f64()?),
        transmit: Second::new(r.f64()?),
        control: Second::new(r.f64()?),
    };
    let energy = EnergyReport {
        sensing: Joule::new(r.f64()?),
        encoding: Joule::new(r.f64()?),
        tuning: Joule::new(r.f64()?),
        compute: Joule::new(r.f64()?),
        aggregation: Joule::new(r.f64()?),
        memory: Joule::new(r.f64()?),
    };
    let positions = out_h.checked_mul(out_w).ok_or_else(|| {
        WireError::Malformed(format!(
            "report dimensions {out_h}x{out_w} overflow a position count"
        ))
    })?;
    for (map, name) in output.iter().zip(0..) {
        if map.len() != positions {
            return Err(WireError::Malformed(format!(
                "feature map {name} has {} values for a {out_h}x{out_w} output",
                map.len()
            )));
        }
    }
    Ok(ConvolutionReport {
        output,
        out_h,
        out_w,
        plan,
        timeline,
        energy,
    })
}

fn put_entry(w: &mut Writer, entry: &FabricEntry) {
    match entry {
        FabricEntry::Cold => w.u8(0),
        FabricEntry::WarmSelf => w.u8(1),
        FabricEntry::Warm { k, kernels } => {
            w.u8(2);
            w.u64(*k as u64);
            put_kernels(w, kernels);
        }
    }
}

fn get_entry(r: &mut Reader<'_>) -> Result<FabricEntry> {
    match r.u8()? {
        0 => Ok(FabricEntry::Cold),
        1 => Ok(FabricEntry::WarmSelf),
        2 => Ok(FabricEntry::Warm {
            k: r.usize_from_u64("entry.k")?,
            kernels: get_kernels(r)?,
        }),
        other => Err(WireError::Malformed(format!(
            "unknown fabric entry discriminant {other}"
        ))),
    }
}

fn put_stage(w: &mut Writer, stage: &crate::program::Stage) {
    use crate::program::{ActivationKind, QuantizeKind, Stage};
    match stage {
        Stage::Conv { k, kernels } => {
            w.u8(0);
            w.u64(*k as u64);
            put_kernels(w, kernels);
        }
        Stage::Quantize(QuantizeKind::Ternary) => {
            w.u8(1);
            w.u8(0);
        }
        Stage::Quantize(QuantizeKind::Levels { bits }) => {
            w.u8(1);
            w.u8(1);
            w.u8(*bits);
        }
        Stage::Dense { rows, matrix } => {
            w.u8(2);
            w.u64(*rows as u64);
            put_f32s(w, matrix);
        }
        Stage::Activation(ActivationKind::Relu) => {
            w.u8(3);
            w.u8(0);
        }
    }
}

fn get_stage(r: &mut Reader<'_>) -> Result<crate::program::Stage> {
    use crate::program::{ActivationKind, QuantizeKind, Stage};
    match r.u8()? {
        0 => Ok(Stage::Conv {
            k: r.usize_from_u64("stage.k")?,
            kernels: get_kernels(r)?,
        }),
        1 => match r.u8()? {
            0 => Ok(Stage::Quantize(QuantizeKind::Ternary)),
            1 => Ok(Stage::Quantize(QuantizeKind::Levels { bits: r.u8()? })),
            other => Err(WireError::Malformed(format!(
                "unknown quantize kind discriminant {other}"
            ))),
        },
        2 => Ok(Stage::Dense {
            rows: r.usize_from_u64("stage.rows")?,
            matrix: get_f32s(r)?,
        }),
        3 => match r.u8()? {
            0 => Ok(Stage::Activation(ActivationKind::Relu)),
            other => Err(WireError::Malformed(format!(
                "unknown activation kind discriminant {other}"
            ))),
        },
        other => Err(WireError::Malformed(format!(
            "unknown stage discriminant {other}"
        ))),
    }
}

fn put_program(w: &mut Writer, program: &crate::program::LayerProgram) {
    w.len(program.stages.len());
    for stage in &program.stages {
        put_stage(w, stage);
    }
}

/// Decodes a layer program and re-runs
/// [`crate::program::LayerProgram::validate`], so a structurally
/// invalid program is a typed [`WireError::Malformed`] before any
/// backend sees it.
fn get_program(r: &mut Reader<'_>) -> Result<crate::program::LayerProgram> {
    let n = r.len(2)?;
    let stages = (0..n).map(|_| get_stage(r)).collect::<Result<_>>()?;
    let program = crate::program::LayerProgram { stages };
    program
        .validate()
        .map_err(|e| WireError::Malformed(format!("layer program rejected: {e}")))?;
    Ok(program)
}

fn put_matvec_report(w: &mut Writer, report: &crate::mlp::MatVecReport) {
    put_f32s(w, &report.output);
    w.u64(report.chunks as u64);
    w.f64(report.energy.get());
    w.f64(report.latency.get());
}

fn get_matvec_report(r: &mut Reader<'_>) -> Result<crate::mlp::MatVecReport> {
    Ok(crate::mlp::MatVecReport {
        output: get_f32s(r)?,
        chunks: r.usize_from_u64("matvec.chunks")?,
        energy: Joule::new(r.f64()?),
        latency: Second::new(r.f64()?),
    })
}

fn put_stage_report(w: &mut Writer, report: &crate::program::StageReport) {
    use crate::program::StageReport;
    match report {
        StageReport::Conv(conv) => {
            w.u8(0);
            put_report(w, conv);
        }
        StageReport::Quantize => w.u8(1),
        StageReport::Dense(dense) => {
            w.u8(2);
            put_matvec_report(w, dense);
        }
        StageReport::Activation => w.u8(3),
    }
}

fn get_stage_report(r: &mut Reader<'_>) -> Result<crate::program::StageReport> {
    use crate::program::StageReport;
    match r.u8()? {
        0 => Ok(StageReport::Conv(get_report(r)?)),
        1 => Ok(StageReport::Quantize),
        2 => Ok(StageReport::Dense(get_matvec_report(r)?)),
        3 => Ok(StageReport::Activation),
        other => Err(WireError::Malformed(format!(
            "unknown stage report discriminant {other}"
        ))),
    }
}

/// Writes one frame report. A report whose last stage is a conv stage
/// omits `output`, which is then the concatenation of that stage's
/// maps: [`get_frame_report`] rebuilds it, so the maps travel once.
fn put_frame_report(w: &mut Writer, report: &crate::program::ProgramFrameReport) {
    use crate::program::StageReport;
    w.len(report.stages.len());
    for stage in &report.stages {
        put_stage_report(w, stage);
    }
    if !matches!(report.stages.last(), Some(StageReport::Conv(_))) {
        put_f32s(w, &report.output);
    }
}

fn get_frame_report(r: &mut Reader<'_>) -> Result<crate::program::ProgramFrameReport> {
    use crate::program::StageReport;
    let n = r.len(1)?;
    let stages: Vec<StageReport> = (0..n).map(|_| get_stage_report(r)).collect::<Result<_>>()?;
    let output = match stages.last() {
        Some(StageReport::Conv(conv)) => conv.output.concat(),
        _ => get_f32s(r)?,
    };
    Ok(crate::program::ProgramFrameReport { stages, output })
}

fn put_refusal_code(w: &mut Writer, code: &RefusalCode) {
    match code {
        RefusalCode::Other => w.u8(0),
        RefusalCode::FingerprintMismatch {
            coordinator,
            worker,
        } => {
            w.u8(1);
            w.u64(*coordinator);
            w.u64(*worker);
        }
    }
}

fn get_refusal_code(r: &mut Reader<'_>) -> Result<RefusalCode> {
    match r.u8()? {
        0 => Ok(RefusalCode::Other),
        1 => Ok(RefusalCode::FingerprintMismatch {
            coordinator: r.u64()?,
            worker: r.u64()?,
        }),
        other => Err(WireError::Malformed(format!(
            "unknown refusal code discriminant {other}"
        ))),
    }
}

fn put_string(w: &mut Writer, s: &str) {
    w.len(s.len());
    w.0.extend_from_slice(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String> {
    let n = r.len(1)?;
    let bytes = r.take(n)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|e| WireError::Malformed(format!("non-UTF-8 string: {e}")))
}

// ---------------------------------------------------------------------
// OisaConfig codec
// ---------------------------------------------------------------------

fn put_pixel(w: &mut Writer, p: &PixelDesign) {
    for v in [
        p.pd_capacitance.get(),
        p.full_scale_current.get(),
        p.exposure.get(),
        p.vdd.get(),
        p.swing.get(),
        p.pitch.get(),
        p.access_energy.get(),
    ] {
        w.f64(v);
    }
}

fn get_pixel(r: &mut Reader<'_>) -> Result<PixelDesign> {
    Ok(PixelDesign {
        pd_capacitance: Farad::new(r.f64()?),
        full_scale_current: Ampere::new(r.f64()?),
        exposure: Second::new(r.f64()?),
        vdd: Volt::new(r.f64()?),
        swing: Volt::new(r.f64()?),
        pitch: Meter::new(r.f64()?),
        access_energy: Joule::new(r.f64()?),
    })
}

fn put_mr(w: &mut Writer, m: &MrDesign) {
    for v in [
        m.radius.get(),
        m.waveguide_width.get(),
        m.resonance_wavelength.get(),
        m.q_factor,
        m.group_index,
        m.intrinsic_loss,
        m.to_efficiency_m_per_w,
        m.eo_range.get(),
        m.to_settle.get(),
        m.eo_settle.get(),
    ] {
        w.f64(v);
    }
}

fn get_mr(r: &mut Reader<'_>) -> Result<MrDesign> {
    Ok(MrDesign {
        radius: Meter::new(r.f64()?),
        waveguide_width: Meter::new(r.f64()?),
        resonance_wavelength: Meter::new(r.f64()?),
        q_factor: r.f64()?,
        group_index: r.f64()?,
        intrinsic_loss: r.f64()?,
        to_efficiency_m_per_w: r.f64()?,
        eo_range: Meter::new(r.f64()?),
        to_settle: Second::new(r.f64()?),
        eo_settle: Second::new(r.f64()?),
    })
}

fn put_photodiode(w: &mut Writer, p: &PhotodiodeParams) {
    for v in [
        p.responsivity_a_per_w,
        p.dark_current.get(),
        p.bandwidth.get(),
        p.load.get(),
        p.temperature.get(),
    ] {
        w.f64(v);
    }
}

fn get_photodiode(r: &mut Reader<'_>) -> Result<PhotodiodeParams> {
    Ok(PhotodiodeParams {
        responsivity_a_per_w: r.f64()?,
        dark_current: Ampere::new(r.f64()?),
        bandwidth: Hertz::new(r.f64()?),
        load: Ohm::new(r.f64()?),
        temperature: Kelvin::new(r.f64()?),
    })
}

fn put_sense_amp(w: &mut Writer, s: &SenseAmpParams) {
    for v in [
        s.reference.get(),
        s.offset_sigma.get(),
        s.noise_sigma.get(),
        s.energy_per_decision.get(),
        s.decision_time.get(),
    ] {
        w.f64(v);
    }
}

fn get_sense_amp(r: &mut Reader<'_>) -> Result<SenseAmpParams> {
    Ok(SenseAmpParams {
        reference: Volt::new(r.f64()?),
        offset_sigma: Volt::new(r.f64()?),
        noise_sigma: Volt::new(r.f64()?),
        energy_per_decision: Joule::new(r.f64()?),
        decision_time: Second::new(r.f64()?),
    })
}

fn put_vcsel(w: &mut Writer, v: &VcselParams) {
    for x in [
        v.threshold.get(),
        v.slope_efficiency_w_per_a,
        v.forward_voltage.get(),
        v.wavelength.get(),
        v.bias_floor.get(),
        v.warmup.get(),
        v.max_current.get(),
    ] {
        w.f64(x);
    }
}

fn get_vcsel(r: &mut Reader<'_>) -> Result<VcselParams> {
    Ok(VcselParams {
        threshold: Ampere::new(r.f64()?),
        slope_efficiency_w_per_a: r.f64()?,
        forward_voltage: Volt::new(r.f64()?),
        wavelength: Meter::new(r.f64()?),
        bias_floor: Ampere::new(r.f64()?),
        warmup: Second::new(r.f64()?),
        max_current: Ampere::new(r.f64()?),
    })
}

fn put_bool(w: &mut Writer, v: bool) {
    w.u8(u8::from(v));
}

fn get_bool(r: &mut Reader<'_>, what: &str) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::Malformed(format!(
            "{what} must be 0 or 1, got {other}"
        ))),
    }
}

fn put_config(w: &mut Writer, c: &OisaConfig) {
    // Imager.
    put_pixel(w, &c.imager.pixel);
    w.u64(c.imager.width as u64);
    w.u64(c.imager.height as u64);
    w.f64(c.imager.frame_rate_hz);
    // OPC structure + arm.
    w.u64(c.opc.banks as u64);
    w.u64(c.opc.columns as u64);
    w.u64(c.opc.awc_units as u64);
    put_mr(w, &c.opc.arm.ring);
    put_photodiode(w, &c.opc.arm.detector);
    for v in [
        c.opc.arm.losses.propagation_db_per_m,
        c.opc.arm.losses.per_ring_db,
        c.opc.arm.losses.splitter_db,
        c.opc.arm.losses.coupler_db,
        c.opc.arm.length.get(),
        c.opc.arm.channel_power.get(),
    ] {
        w.f64(v);
    }
    put_bool(w, c.opc.arm.crosstalk);
    // VAM / VOM.
    put_sense_amp(w, &c.vam.sa_low);
    put_sense_amp(w, &c.vam.sa_high);
    put_vcsel(w, &c.vam.vcsel);
    w.f64(c.vam.symbol_time.get());
    put_vcsel(w, &c.vom.vcsel);
    w.f64(c.vom.accumulate_energy.get());
    w.f64(c.vom.accumulate_time.get());
    w.f64(c.vom.symbol_time.get());
    // Controller timing.
    for v in [
        c.timing.cycle.get(),
        c.timing.tuning_iteration.get(),
        c.timing.exposure.get(),
        c.timing.transmit_word.get(),
        c.timing.decode.get(),
    ] {
        w.f64(v);
    }
    // Weight path, noise, seed.
    w.u8(c.weight_bits);
    match c.awc_model {
        AwcModel::Ideal => w.u8(0),
        AwcModel::Mismatch {
            leg_sigma,
            compression,
        } => {
            w.u8(1);
            w.f64(leg_sigma);
            w.f64(compression);
        }
    }
    w.f64(c.noise.vcsel_rin);
    w.f64(c.noise.mr_drift);
    w.f64(c.noise.detector);
    w.u64(c.seed);
}

/// The bytes a [`WireMessage::Configure`] push writes for `config`: what
/// [`OisaConfig::fingerprint`] hashes.
pub(crate) fn config_bytes(config: &OisaConfig) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    put_config(&mut w, config);
    w.0
}

fn get_config(r: &mut Reader<'_>) -> Result<OisaConfig> {
    let pixel = get_pixel(r)?;
    let imager = ImagerConfig {
        pixel,
        width: r.usize_from_u64("config.imager.width")?,
        height: r.usize_from_u64("config.imager.height")?,
        frame_rate_hz: r.f64()?,
    };
    let banks = r.usize_from_u64("config.opc.banks")?;
    let columns = r.usize_from_u64("config.opc.columns")?;
    let awc_units = r.usize_from_u64("config.opc.awc_units")?;
    let ring = get_mr(r)?;
    let detector = get_photodiode(r)?;
    let losses = LossBudget {
        propagation_db_per_m: r.f64()?,
        per_ring_db: r.f64()?,
        splitter_db: r.f64()?,
        coupler_db: r.f64()?,
    };
    let arm = ArmConfig {
        ring,
        detector,
        losses,
        length: Meter::new(r.f64()?),
        channel_power: Watt::new(r.f64()?),
        crosstalk: get_bool(r, "config.opc.arm.crosstalk")?,
    };
    let opc = OpcConfig {
        banks,
        columns,
        awc_units,
        arm,
    };
    let vam = VamConfig {
        sa_low: get_sense_amp(r)?,
        sa_high: get_sense_amp(r)?,
        vcsel: get_vcsel(r)?,
        symbol_time: Second::new(r.f64()?),
    };
    let vom = VomConfig {
        vcsel: get_vcsel(r)?,
        accumulate_energy: Joule::new(r.f64()?),
        accumulate_time: Second::new(r.f64()?),
        symbol_time: Second::new(r.f64()?),
    };
    let timing = ControllerTiming {
        cycle: Second::new(r.f64()?),
        tuning_iteration: Second::new(r.f64()?),
        exposure: Second::new(r.f64()?),
        transmit_word: Second::new(r.f64()?),
        decode: Second::new(r.f64()?),
    };
    let weight_bits = r.u8()?;
    let awc_model = match r.u8()? {
        0 => AwcModel::Ideal,
        1 => AwcModel::Mismatch {
            leg_sigma: r.f64()?,
            compression: r.f64()?,
        },
        other => {
            return Err(WireError::Malformed(format!(
                "unknown AWC model discriminant {other}"
            )))
        }
    };
    let noise = NoiseConfig {
        vcsel_rin: r.f64()?,
        mr_drift: r.f64()?,
        detector: r.f64()?,
    };
    let seed = r.u64()?;
    let config = OisaConfig {
        imager,
        opc,
        vam,
        vom,
        timing,
        weight_bits,
        awc_model,
        noise,
        seed,
    };
    // Re-run the builder validation so a config a worker would only
    // reject deep inside accelerator construction fails here, typed.
    config
        .validated()
        .map_err(|e| WireError::Malformed(format!("pushed config rejected: {e}")))
}

// ---------------------------------------------------------------------
// Message encode/decode
// ---------------------------------------------------------------------

/// The tag [`encode`] writes for `message`.
fn tag_for(message: &WireMessage) -> u8 {
    match message {
        WireMessage::Refusal(_) => TAG_REFUSAL,
        WireMessage::Ping(_) => TAG_PING,
        WireMessage::Pong(_) => TAG_PONG,
        WireMessage::Configure(_) => TAG_CONFIGURE,
        WireMessage::ConfigureAck(_) => TAG_CONFIGURE_ACK,
        WireMessage::ProgramShard(_) => TAG_PROGRAM_SHARD,
        WireMessage::ProgramReport(_) => TAG_PROGRAM_REPORT,
    }
}

/// A writer holding the 5-byte `magic version tag` header.
fn header(tag: u8) -> Writer {
    let mut w = Writer(Vec::with_capacity(64));
    w.u16(MAGIC);
    w.u16(SCHEMA_VERSION);
    w.u8(tag);
    w
}

/// Encodes one message as a versioned payload (no length prefix — see
/// [`write_frame`] for framing).
#[must_use]
pub fn encode(message: &WireMessage) -> Vec<u8> {
    let mut w = header(tag_for(message));
    match message {
        WireMessage::Refusal(refusal) => {
            w.u64(refusal.job_id);
            w.u32(refusal.shard_index);
            put_refusal_code(&mut w, &refusal.code);
            put_string(&mut w, &refusal.reason);
        }
        WireMessage::Ping(hs) | WireMessage::Pong(hs) | WireMessage::ConfigureAck(hs) => {
            w.u64(hs.nonce);
            w.u64(hs.config_fingerprint);
        }
        WireMessage::Configure(push) => {
            w.u64(push.nonce);
            put_config(&mut w, &push.config);
        }
        WireMessage::ProgramShard(shard) => put_program_shard_body(&mut w, &shard.borrowed()),
        WireMessage::ProgramReport(report) => {
            w.u64(report.job_id);
            w.u32(report.shard_index);
            w.u64(report.first_frame);
            w.len(report.reports.len());
            for r in &report.reports {
                put_frame_report(&mut w, r);
            }
        }
    }
    w.0
}

/// Body of a [`TAG_PROGRAM_SHARD`] message (everything after the tag
/// byte).
fn put_program_shard_body(w: &mut Writer, shard: &ProgramShardRef<'_>) {
    w.u64(shard.job_id);
    w.u32(shard.shard_index);
    w.u32(shard.shard_count);
    w.u64(shard.first_frame);
    w.u64(shard.first_epoch);
    w.u64(shard.config_fingerprint);
    put_entry(w, shard.entry);
    put_program(w, shard.program);
    put_frames(w, shard.frames);
}

/// [`encode`] for a [`ProgramShard`] over borrowed parts — the
/// coordinator's dispatch path, which encodes each shard straight from
/// the job instead of copying its program and frames into a
/// [`ProgramShard`] first.
pub(crate) fn encode_program_shard_ref(shard: &ProgramShardRef<'_>) -> Vec<u8> {
    let mut w = header(TAG_PROGRAM_SHARD);
    put_program_shard_body(&mut w, shard);
    w.0
}

/// Decodes one payload produced by [`encode`].
///
/// # Errors
///
/// Every malformation is a typed [`WireError`]; see the module docs for
/// the strictness contract.
pub fn decode(payload: &[u8]) -> Result<WireMessage> {
    let mut r = Reader::new(payload);
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != SCHEMA_VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let message = match r.u8()? {
        TAG_REFUSAL => WireMessage::Refusal(ShardRefusal {
            job_id: r.u64()?,
            shard_index: r.u32()?,
            code: get_refusal_code(&mut r)?,
            reason: get_string(&mut r)?,
        }),
        TAG_PING => WireMessage::Ping(Handshake {
            nonce: r.u64()?,
            config_fingerprint: r.u64()?,
        }),
        TAG_PONG => WireMessage::Pong(Handshake {
            nonce: r.u64()?,
            config_fingerprint: r.u64()?,
        }),
        TAG_CONFIGURE => WireMessage::Configure(ConfigPush {
            nonce: r.u64()?,
            config: get_config(&mut r)?,
        }),
        TAG_CONFIGURE_ACK => WireMessage::ConfigureAck(Handshake {
            nonce: r.u64()?,
            config_fingerprint: r.u64()?,
        }),
        TAG_PROGRAM_SHARD => WireMessage::ProgramShard(ProgramShard {
            job_id: r.u64()?,
            shard_index: r.u32()?,
            shard_count: r.u32()?,
            first_frame: r.u64()?,
            first_epoch: r.u64()?,
            config_fingerprint: r.u64()?,
            entry: get_entry(&mut r)?,
            program: get_program(&mut r)?,
            frames: get_frames(&mut r)?,
        }),
        TAG_PROGRAM_REPORT => {
            let job_id = r.u64()?;
            let shard_index = r.u32()?;
            let first_frame = r.u64()?;
            let n = r.len(1)?;
            let reports = (0..n)
                .map(|_| get_frame_report(&mut r))
                .collect::<Result<_>>()?;
            WireMessage::ProgramReport(ProgramReport {
                job_id,
                shard_index,
                first_frame,
                reports,
            })
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(message)
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure; [`WireError::TooLarge`]
/// when the payload exceeds [`MAX_MESSAGE_BYTES`] (nothing is written).
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<()> {
    // Report the payload's actual size (saturated past 4 GiB) so the
    // operator sees how far over the bound the message really was.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_MESSAGE_BYTES {
        return Err(WireError::TooLarge(len));
    }
    writer
        .write_all(&len.to_le_bytes())
        .and_then(|()| writer.write_all(payload))
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean end of
/// stream (EOF exactly at a frame boundary).
///
/// # Errors
///
/// * [`WireError::Truncated`] — EOF inside a length prefix or payload
///   (a half-written frame is a protocol fault, not a clean shutdown).
/// * [`WireError::TooLarge`] — the prefix exceeds
///   [`MAX_MESSAGE_BYTES`].
/// * [`WireError::Io`] — the stream failed.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match reader.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: prefix.len() - got,
                    available: got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_MESSAGE_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match reader.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: payload.len() - filled,
                    available: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(Some(payload))
}

/// [`encode`] + [`write_frame`] in one call.
///
/// # Errors
///
/// As [`write_frame`].
pub fn send<W: Write>(writer: &mut W, message: &WireMessage) -> Result<()> {
    write_frame(writer, &encode(message))
}

/// [`read_frame`] + [`decode`] in one call; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// As [`read_frame`] and [`decode`].
pub fn receive<R: Read>(reader: &mut R) -> Result<Option<WireMessage>> {
    match read_frame(reader)? {
        None => Ok(None),
        Some(payload) => decode(&payload).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramFrameReport, StageReport};

    fn sample_report() -> ConvolutionReport {
        ConvolutionReport {
            output: vec![vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE]],
            out_h: 2,
            out_w: 2,
            plan: MappingPlan {
                kernel_size_class: 3,
                slots_per_pass: 20,
                passes: 1,
                planes_last_pass: 2,
                parallel_positions: 10,
                cycles_per_pass: 4,
                rings_per_pass: 18,
                tuning_iterations_per_pass: 2,
                macs_per_cycle: 90,
            },
            timeline: Timeline {
                capture: Second::new(5e-5),
                mapping: Second::new(2e-9),
                compute: Second::new(2.232e-10),
                transmit: Second::new(4e-10),
                control: Second::new(4e-9),
            },
            energy: EnergyReport {
                sensing: Joule::new(1.25e-9),
                encoding: Joule::new(3.5e-12),
                tuning: Joule::new(7.75e-12),
                compute: Joule::new(9.5e-13),
                aggregation: Joule::new(0.0),
                memory: Joule::new(1.5e-12),
            },
        }
    }

    /// A conv job's frame report: the one conv stage, and as output
    /// the concatenation of its maps.
    fn conv_frame_report(conv: ConvolutionReport) -> ProgramFrameReport {
        let output = conv.output.concat();
        ProgramFrameReport {
            stages: vec![StageReport::Conv(conv)],
            output,
        }
    }

    fn sample_program_report(reports: Vec<ProgramFrameReport>) -> ProgramReport {
        ProgramReport {
            job_id: 11,
            shard_index: 1,
            first_frame: 2,
            reports,
        }
    }

    fn sample_program() -> crate::program::LayerProgram {
        use crate::program::{ActivationKind, QuantizeKind, Stage};
        crate::program::LayerProgram {
            stages: vec![
                Stage::Conv {
                    k: 3,
                    kernels: vec![vec![0.5f32; 9], vec![-0.25f32; 9]],
                },
                Stage::Quantize(QuantizeKind::Ternary),
                Stage::Dense {
                    rows: 2,
                    matrix: vec![0.125f32; 2 * 8],
                },
                Stage::Activation(ActivationKind::Relu),
            ],
        }
    }

    fn sample_program_shard() -> ProgramShard {
        ProgramShard {
            job_id: 11,
            shard_index: 1,
            shard_count: 2,
            first_frame: 2,
            first_epoch: 24,
            config_fingerprint: 0xCAFE,
            entry: FabricEntry::WarmSelf,
            program: sample_program(),
            frames: vec![Frame::constant(4, 4, 0.25).unwrap()],
        }
    }

    #[test]
    fn every_message_round_trips() {
        let entries = [
            FabricEntry::Cold,
            FabricEntry::WarmSelf,
            FabricEntry::Warm {
                k: 5,
                kernels: vec![vec![0.1f32; 25]],
            },
        ];
        let mut messages: Vec<WireMessage> = entries
            .into_iter()
            .map(|entry| {
                WireMessage::ProgramShard(ProgramShard {
                    entry,
                    ..sample_program_shard()
                })
            })
            .collect();
        messages.extend([
            WireMessage::Refusal(ShardRefusal {
                job_id: 9,
                shard_index: 0,
                code: RefusalCode::FingerprintMismatch {
                    coordinator: 0x1,
                    worker: 0x2,
                },
                reason: "fingerprint mismatch — coordinator 0x1, worker 0x2".into(),
            }),
            WireMessage::Refusal(ShardRefusal {
                job_id: 0,
                shard_index: 0,
                code: RefusalCode::Other,
                reason: "undecodable request".into(),
            }),
            WireMessage::Ping(Handshake {
                nonce: 0xFEED_F00D,
                config_fingerprint: 0xABCD,
            }),
            WireMessage::Pong(Handshake {
                nonce: u64::MAX,
                config_fingerprint: 0,
            }),
            WireMessage::Configure(ConfigPush {
                nonce: 41,
                config: OisaConfig::small_test(),
            }),
            WireMessage::Configure(ConfigPush {
                nonce: 42,
                config: OisaConfig::paper_default(32, 32),
            }),
            WireMessage::ConfigureAck(Handshake {
                nonce: 42,
                config_fingerprint: 0xBEEF,
            }),
            WireMessage::ProgramReport(sample_program_report(vec![conv_frame_report(
                sample_report(),
            )])),
            WireMessage::ProgramReport(sample_program_report(vec![ProgramFrameReport {
                stages: vec![
                    StageReport::Conv(sample_report()),
                    StageReport::Quantize,
                    StageReport::Dense(crate::mlp::MatVecReport {
                        output: vec![0.5f32, -1.25],
                        chunks: 6,
                        energy: Joule::new(3.5e-12),
                        latency: Second::new(2e-10),
                    }),
                    StageReport::Activation,
                ],
                output: vec![0.5f32, 0.0],
            }])),
        ]);
        for message in messages {
            let bytes = encode(&message);
            assert_eq!(decode(&bytes).unwrap(), message);
        }
    }

    #[test]
    fn conv_last_frame_reports_ship_their_maps_once() {
        let mut conv = sample_report();
        conv.output = vec![
            vec![-0.0f32, f32::from_bits(1), 3.0, f32::MAX],
            vec![f32::MIN, 0.5, -7.25, f32::EPSILON],
        ];
        let report = conv_frame_report(conv);
        let bytes = encode(&WireMessage::ProgramReport(sample_program_report(vec![
            report.clone(),
        ])));
        let Ok(WireMessage::ProgramReport(decoded)) = decode(&bytes) else {
            panic!("the report round-trips");
        };
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded.reports[0].output), bits(&report.output));
        assert_eq!(decoded.reports[0], report);
        // A trailing elementwise stage makes `output` travel: exactly
        // one discriminant byte, one count and the values more.
        let mut with_output = report.clone();
        with_output.stages.push(StageReport::Activation);
        let longer = encode(&WireMessage::ProgramReport(sample_program_report(vec![
            with_output,
        ])));
        assert_eq!(longer.len() - bytes.len(), 1 + 4 + 4 * report.output.len());
    }

    #[test]
    fn other_schema_stamps_are_unsupported() {
        let bytes = encode(&WireMessage::ProgramShard(sample_program_shard()));
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), SCHEMA_VERSION);
        for got in [4u16, 6] {
            let mut restamped = bytes.clone();
            restamped[2..4].copy_from_slice(&got.to_le_bytes());
            assert_eq!(
                decode(&restamped),
                Err(WireError::UnsupportedVersion { got })
            );
        }
    }

    #[test]
    fn configure_round_trips_every_structured_field() {
        // A config that differs from every library preset in every
        // enum arm it can reach: mismatch AWC, crosstalk on, odd seed.
        let mut config = OisaConfig::paper_default(24, 18);
        config.awc_model = oisa_device::awc::AwcModel::Mismatch {
            leg_sigma: 0.0625,
            compression: 0.03125,
        };
        config.opc.arm.crosstalk = true;
        config.seed = 0x5EED_CAFE;
        config.weight_bits = 2;
        let push = WireMessage::Configure(ConfigPush { nonce: 7, config });
        let decoded = decode(&encode(&push)).unwrap();
        assert_eq!(decoded, push);
        // The fingerprint recomputed from the decoded fields matches
        // the sender's — the property that replaces fingerprint refusal
        // with config push.
        match decoded {
            WireMessage::Configure(got) => {
                assert_eq!(got.config.fingerprint(), config.fingerprint());
            }
            other => panic!("expected a Configure, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_hashes_the_bytes_a_configure_push_writes() {
        // Header (magic, version, tag: 5 bytes) and nonce (8), then the
        // config: the fingerprint follows the wire layout, not how a
        // build renders the struct.
        let config = OisaConfig::paper_default(128, 128);
        let push = encode(&WireMessage::Configure(ConfigPush { nonce: 9, config }));
        assert_eq!(config_bytes(&config), push[13..]);
        assert_eq!(config.fingerprint(), 0xfad9_f583_eeda_6527);
    }

    #[test]
    fn invalid_program_is_rejected_on_decode() {
        // A structurally valid encoding of a semantically invalid
        // program (conv after stage 0) must fail decode, typed.
        let mut shard = sample_program_shard();
        let conv = shard.program.stages[0].clone();
        shard.program.stages.push(conv);
        let bytes = encode(&WireMessage::ProgramShard(shard));
        match decode(&bytes) {
            Err(WireError::Malformed(what)) => {
                assert!(what.contains("layer program rejected"), "{what}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn encode_program_shard_matches_the_owned_message_encoding() {
        let shard = ProgramShard {
            entry: FabricEntry::Warm {
                k: 3,
                kernels: vec![vec![0.75f32; 9]],
            },
            ..sample_program_shard()
        };
        let owned = encode(&WireMessage::ProgramShard(shard.clone()));
        // The coordinator's writer over parts borrowed from a job: the
        // frames are a sub-slice of a longer frame list.
        let other = Frame::constant(4, 4, 0.75).unwrap();
        let mut job_frames = vec![other.clone()];
        job_frames.extend(shard.frames.iter().cloned());
        job_frames.push(other);
        let borrowed = ProgramShardRef {
            job_id: shard.job_id,
            shard_index: shard.shard_index,
            shard_count: shard.shard_count,
            first_frame: shard.first_frame,
            first_epoch: shard.first_epoch,
            config_fingerprint: shard.config_fingerprint,
            entry: &shard.entry,
            program: &shard.program,
            frames: &job_frames[1..=shard.frames.len()],
        };
        assert_eq!(
            encode_program_shard_ref(&borrowed),
            owned,
            "encoding from borrowed parts must emit identical bytes"
        );
    }

    #[test]
    fn unknown_tag_is_rejected_before_body_parsing() {
        let mut bytes = encode(&WireMessage::Ping(Handshake {
            nonce: 1,
            config_fingerprint: 2,
        }));
        // The retired conv-shard and job tags included.
        for tag in [1, 2, 3, 9, 0xEE] {
            bytes[4] = tag;
            assert_eq!(decode(&bytes), Err(WireError::UnknownTag(tag)));
        }
    }

    #[test]
    fn pushed_config_is_revalidated_on_decode() {
        let mut config = OisaConfig::small_test();
        config.weight_bits = 9; // outside the 1–4 builder invariant
        let bytes = encode(&WireMessage::Configure(ConfigPush { nonce: 3, config }));
        match decode(&bytes) {
            Err(WireError::Malformed(what)) => {
                assert!(what.contains("weight_bits"), "{what}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_configure_bool_is_a_typed_error() {
        // Locate the crosstalk byte by diffing two encodings that
        // differ only in that field, then corrupt it.
        let mut config = OisaConfig::small_test();
        config.opc.arm.crosstalk = false;
        let off = encode(&WireMessage::Configure(ConfigPush { nonce: 5, config }));
        config.opc.arm.crosstalk = true;
        let on = encode(&WireMessage::Configure(ConfigPush { nonce: 5, config }));
        let flips: Vec<usize> = (0..off.len()).filter(|&i| off[i] != on[i]).collect();
        assert_eq!(flips.len(), 1, "crosstalk must be exactly one byte");
        let mut corrupt = off;
        corrupt[flips[0]] = 7;
        match decode(&corrupt) {
            Err(WireError::Malformed(what)) => {
                assert!(what.contains("crosstalk"), "{what}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn refusal_code_display_is_stable_and_greppable() {
        assert_eq!(RefusalCode::Other.to_string(), "other");
        let shown = RefusalCode::FingerprintMismatch {
            coordinator: 0xAB,
            worker: 0xCD,
        }
        .to_string();
        assert!(shown.contains("fingerprint-mismatch"), "{shown}");
        assert!(shown.contains("0x00000000000000ab"), "{shown}");
        assert!(shown.contains("0x00000000000000cd"), "{shown}");
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let shard = WireMessage::ProgramShard(sample_program_shard());
        let mut bytes = encode(&shard);
        // Payload layout: magic(2) version(2) tag(1) ...
        bytes[2] = 0xFF;
        bytes[3] = 0xFF;
        assert_eq!(
            decode(&bytes),
            Err(WireError::UnsupportedVersion { got: 0xFFFF })
        );
        let mut bad_magic = encode(&shard);
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(WireError::BadMagic(_))));
        let mut bad_tag = encode(&shard);
        bad_tag[4] = 0xEE;
        assert_eq!(decode(&bad_tag), Err(WireError::UnknownTag(0xEE)));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors_not_panics() {
        for message in [
            WireMessage::ProgramShard(sample_program_shard()),
            WireMessage::ProgramReport(sample_program_report(vec![conv_frame_report(
                sample_report(),
            )])),
            WireMessage::Configure(ConfigPush {
                nonce: 11,
                config: OisaConfig::paper_default(16, 16),
            }),
        ] {
            let bytes = encode(&message);
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).expect_err("truncation must fail");
                assert!(
                    matches!(err, WireError::Truncated { .. } | WireError::Malformed(_)),
                    "cut at {cut}: {err:?}"
                );
            }
            let mut trailing = bytes;
            trailing.push(0);
            assert_eq!(decode(&trailing), Err(WireError::TrailingBytes(1)));
        }
    }

    #[test]
    fn frame_pixels_outside_unit_range_are_rejected() {
        let mut bytes = encode(&WireMessage::ProgramShard(sample_program_shard()));
        // The last 8 bytes are the final pixel; overwrite with 2.0.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_refusal_code_is_a_typed_error() {
        let mut bytes = encode(&WireMessage::Refusal(ShardRefusal {
            job_id: 1,
            shard_index: 2,
            code: RefusalCode::Other,
            reason: "x".into(),
        }));
        // The code discriminant lives right after
        // magic+version+tag+job_id+shard_index = 2+2+1+8+4 = 17 bytes.
        bytes[17] = 0x7F;
        assert!(matches!(decode(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn framing_round_trips_and_rejects_truncation() {
        let payload = encode(&WireMessage::Refusal(ShardRefusal {
            job_id: 1,
            shard_index: 2,
            code: RefusalCode::Other,
            reason: "x".into(),
        }));
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        write_frame(&mut stream, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(stream.clone());
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
        // EOF inside the second frame's payload.
        let mut cut = std::io::Cursor::new(stream[..stream.len() - 3].to_vec());
        assert!(read_frame(&mut cut).unwrap().is_some());
        assert!(matches!(
            read_frame(&mut cut),
            Err(WireError::Truncated { .. })
        ));
        // EOF inside a length prefix.
        let mut half_prefix = std::io::Cursor::new(vec![3u8, 0]);
        assert!(matches!(
            read_frame(&mut half_prefix),
            Err(WireError::Truncated { .. })
        ));
        // A corrupt length prefix must not allocate.
        let mut huge = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert_eq!(read_frame(&mut huge), Err(WireError::TooLarge(u32::MAX)));
    }

    #[test]
    fn corrupt_collection_count_fails_before_allocating() {
        let mut bytes = encode(&WireMessage::ProgramShard(sample_program_shard()));
        // The stage count follows the 5-byte header, 40 bytes of ids,
        // epoch and fingerprint, and the 1-byte WarmSelf entry.
        bytes[46..50].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Truncated { .. })));
    }
}
