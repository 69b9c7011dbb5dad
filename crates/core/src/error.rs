//! `OisaError` — the one error type backend and serving callers handle.
//!
//! The execution stack grew errors layer by layer: [`CoreError`] from
//! the architecture, [`DeviceError`] from the
//! substrate, [`SubmitError`](crate::serving::SubmitError) from the
//! serving queue and [`WireError`] from the
//! sharding protocol. A caller driving a [`ComputeBackend`] through all
//! of them previously needed four `match` arms per call site;
//! [`OisaError`] folds them into one `#[non_exhaustive]` enum with
//! `From` impls, so `?` composes across every layer.
//!
//! [`ComputeBackend`]: crate::backend::ComputeBackend

use std::fmt;

use oisa_device::DeviceError;

use crate::wire::{RefusalCode, WireError};
use crate::CoreError;

/// Why a submission was declined, without the returned frame.
///
/// [`SubmitError`](crate::serving::SubmitError) hands the undelivered
/// frame back by value so callers can retry without a copy; once an
/// error is folded into [`OisaError`] the frame has been consumed, so
/// only the *kind* survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitKind {
    /// The serving queue was at capacity.
    Backpressure,
    /// The engine was shutting down.
    ShutDown,
}

/// Unified error of the execution stack (backend, serving, wire,
/// device, architecture).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OisaError {
    /// Architecture-layer failure ([`CoreError`]).
    Core(CoreError),
    /// Substrate device failure ([`DeviceError`]), kept distinct from
    /// [`OisaError::Core`] so epoch-exhaustion and range faults stay
    /// matchable.
    Device(DeviceError),
    /// Wire-protocol failure ([`WireError`]): decode errors, framing
    /// truncation, schema-version mismatches.
    Wire(WireError),
    /// A serving submission was declined (frame already handed back).
    Submit(SubmitKind),
    /// A configuration field failed validation
    /// ([`OisaConfigBuilder`](crate::accelerator::OisaConfigBuilder)).
    Config {
        /// The offending builder field.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// A distributed-backend fault that fits no dedicated variant
    /// (merge consistency violations, unexpected reply types, fleet
    /// misconfiguration).
    Backend(String),
    /// A transport to a worker broke and stayed broken: every connect /
    /// reconnect / resend attempt failed. The shard was **not**
    /// executed as far as the coordinator knows. Mid-job the
    /// [`FleetSupervisor`](crate::backend::FleetSupervisor) heals
    /// around it (promote a spare or re-plan across the survivors); a
    /// caller sees it only when the last worker failed, and because
    /// the coordinator advances state only after a full merge, the job
    /// can be retried once the worker is back and will re-execute
    /// identically.
    Transport {
        /// The worker endpoint (e.g. `127.0.0.1:7401`).
        endpoint: String,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The last attempt's failure.
        cause: String,
    },
    /// Coordinator and worker were built from different
    /// [`OisaConfig`](crate::accelerator::OisaConfig)s: the shard (or
    /// handshake) carried the coordinator's fingerprint and the worker
    /// refused it. Deployments must ship identical configs to every
    /// node.
    FingerprintMismatch {
        /// Fingerprint of the coordinator's config.
        coordinator: u64,
        /// Fingerprint of the worker's config.
        worker: u64,
    },
    /// A worker answered a shard with a typed
    /// [`ShardRefusal`](crate::wire::ShardRefusal) that maps to no
    /// dedicated error variant: the shard reached the worker but could
    /// not run. Carries the refusal's machine-readable
    /// [`RefusalCode`] so supervisor logs stay actionable without
    /// string matching the reason.
    ShardRefused {
        /// The refused shard's job.
        job_id: u64,
        /// The refused shard's index within the job.
        shard_index: u32,
        /// The worker's machine-readable refusal class.
        code: RefusalCode,
        /// The worker's reason.
        reason: String,
    },
}

impl fmt::Display for OisaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "{e}"),
            Self::Device(e) => write!(f, "device error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Submit(SubmitKind::Backpressure) => {
                write!(f, "submission declined: queue full (backpressure)")
            }
            Self::Submit(SubmitKind::ShutDown) => {
                write!(f, "submission declined: engine shutting down")
            }
            Self::Config { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            Self::Backend(what) => write!(f, "backend error: {what}"),
            Self::Transport {
                endpoint,
                attempts,
                cause,
            } => write!(
                f,
                "transport to worker {endpoint} failed after {attempts} attempt(s): {cause}"
            ),
            Self::FingerprintMismatch {
                coordinator,
                worker,
            } => write!(
                f,
                "config fingerprint mismatch: coordinator runs {coordinator:#018x}, worker runs \
                 {worker:#018x} — every node of a deployment must be built from the same OisaConfig"
            ),
            Self::ShardRefused {
                job_id,
                shard_index,
                code,
                reason,
            } => write!(
                f,
                "worker refused shard {shard_index} of job {job_id} [code: {code}]: {reason}"
            ),
        }
    }
}

impl std::error::Error for OisaError {}

impl From<CoreError> for OisaError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<DeviceError> for OisaError {
    fn from(e: DeviceError) -> Self {
        Self::Device(e)
    }
}

impl From<WireError> for OisaError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<oisa_sensor::SensorError> for OisaError {
    fn from(e: oisa_sensor::SensorError) -> Self {
        Self::Core(e.into())
    }
}

impl From<oisa_optics::OpticsError> for OisaError {
    fn from(e: oisa_optics::OpticsError) -> Self {
        Self::Core(e.into())
    }
}

impl From<oisa_memory::MemoryError> for OisaError {
    fn from(e: oisa_memory::MemoryError) -> Self {
        Self::Core(e.into())
    }
}

impl From<oisa_nn::NnError> for OisaError {
    fn from(e: oisa_nn::NnError) -> Self {
        Self::Core(e.into())
    }
}

impl From<crate::serving::SubmitError> for OisaError {
    /// Folds a submit error into the unified type. A
    /// [`Rejected`](crate::serving::SubmitError::Rejected) submission
    /// carries an architecture error and maps to [`OisaError::Core`];
    /// the queue-state variants keep their kind but drop the returned
    /// frame (it was available on the original error for zero-copy
    /// retry).
    fn from(e: crate::serving::SubmitError) -> Self {
        match e {
            crate::serving::SubmitError::Rejected(core) => Self::Core(core),
            crate::serving::SubmitError::Backpressure(_) => Self::Submit(SubmitKind::Backpressure),
            crate::serving::SubmitError::ShutDown(_) => Self::Submit(SubmitKind::ShutDown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_sensor::Frame;

    #[test]
    fn every_layer_folds_in() {
        let core: OisaError = CoreError::InvalidParameter("x".into()).into();
        assert!(matches!(core, OisaError::Core(_)));
        let device: OisaError = DeviceError::OutOfRange("epoch".into()).into();
        assert!(matches!(device, OisaError::Device(_)));
        let wire: OisaError = WireError::UnsupportedVersion { got: 9 }.into();
        assert!(matches!(wire, OisaError::Wire(_)));
        let frame = Frame::constant(2, 2, 0.5).unwrap();
        let submit: OisaError = crate::serving::SubmitError::Backpressure(frame).into();
        assert_eq!(submit, OisaError::Submit(SubmitKind::Backpressure));
        let rejected: OisaError =
            crate::serving::SubmitError::Rejected(CoreError::InvalidParameter("bad frame".into()))
                .into();
        assert!(
            matches!(rejected, OisaError::Core(_)),
            "Rejected keeps its cause"
        );
    }

    #[test]
    fn display_names_the_layer() {
        assert!(OisaError::from(DeviceError::OutOfRange("e".into()))
            .to_string()
            .starts_with("device error"));
        assert!(OisaError::from(WireError::UnsupportedVersion { got: 2 })
            .to_string()
            .starts_with("wire error"));
        let cfg = OisaError::Config {
            field: "imager",
            reason: "zero width".into(),
        };
        assert!(cfg.to_string().contains("imager"));
    }

    #[test]
    fn distributed_variants_name_their_evidence() {
        let transport = OisaError::Transport {
            endpoint: "127.0.0.1:7401".into(),
            attempts: 3,
            cause: "connection refused".into(),
        };
        let shown = transport.to_string();
        assert!(shown.contains("127.0.0.1:7401"), "{shown}");
        assert!(shown.contains("3 attempt(s)"), "{shown}");
        assert!(shown.contains("connection refused"), "{shown}");

        let mismatch = OisaError::FingerprintMismatch {
            coordinator: 0xAB,
            worker: 0xCD,
        };
        let shown = mismatch.to_string();
        assert!(shown.contains("0x00000000000000ab"), "{shown}");
        assert!(shown.contains("0x00000000000000cd"), "{shown}");

        let refused = OisaError::ShardRefused {
            job_id: 7,
            shard_index: 2,
            code: RefusalCode::Other,
            reason: "no fabric".into(),
        };
        let shown = refused.to_string();
        assert!(shown.contains("shard 2"), "{shown}");
        assert!(shown.contains("job 7"), "{shown}");
        // The machine-readable refusal class is rendered, not dropped.
        assert!(shown.contains("[code: other]"), "{shown}");

        let coded = OisaError::ShardRefused {
            job_id: 1,
            shard_index: 0,
            code: RefusalCode::FingerprintMismatch {
                coordinator: 0xAB,
                worker: 0xCD,
            },
            reason: "mismatch".into(),
        };
        let shown = coded.to_string();
        assert!(shown.contains("fingerprint-mismatch"), "{shown}");
        assert!(shown.contains("0x00000000000000ab"), "{shown}");
        assert!(shown.contains("0x00000000000000cd"), "{shown}");
    }
}
