//! # ironsafe-tee
//!
//! Software models of the two trusted-execution technologies IronSafe spans:
//!
//! * [`sgx`] — Intel SGX: user-level enclaves with measured launch, a
//!   size-limited Enclave Page Cache ([`sgx::EpcSimulator`]) whose
//!   evictions ("EPC paging") dominate host-side overhead in the paper,
//!   costed enclave transitions, sealing, and remote attestation quotes
//!   verified by an IAS/CAS-style [`sgx::AttestationService`].
//! * [`trustzone`] — ARM TrustZone: a secure/normal world split, secure
//!   boot producing a certificate chain rooted in the device ROTPK, a
//!   hardware-unique key (HUK), a replay-protected memory block
//!   ([`trustzone::Rpmb`]) and the two trusted applications the paper's
//!   storage system runs (attestation TA and secure-storage TA).
//!
//! The models are *behavioural*: they reproduce the protocols, state
//! machines, failure modes (tampered images, impersonation, rollback) and
//! cost drivers (EPC misses, world switches) of the real hardware, which is
//! exactly what the paper's evaluation exercises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod image;
pub mod sgx;
pub mod trustzone;

pub use flight::{FlightEvent, FlightRecorder};
pub use image::{Measurement, SoftwareImage};

/// Errors raised by the TEE models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// An attestation quote or boot certificate failed verification.
    AttestationFailed(&'static str),
    /// The platform refused an operation (e.g. enclave not initialized).
    InvalidState(&'static str),
    /// Sealed data failed authentication on unseal.
    UnsealFailed,
    /// RPMB authentication or replay check failed.
    RpmbViolation(&'static str),
    /// Secure boot refused an image.
    BootFailed(&'static str),
    /// Enclave entry aborted under EPC pressure (transient: re-entry
    /// after the backoff usually succeeds once residency drains).
    EpcPressure(&'static str),
    /// The RPMB device refused a write because it was busy (transient:
    /// the client recomputes the write counter and re-issues).
    RpmbBusy(&'static str),
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::AttestationFailed(m) => write!(f, "attestation failed: {m}"),
            TeeError::InvalidState(m) => write!(f, "invalid TEE state: {m}"),
            TeeError::UnsealFailed => write!(f, "unseal failed"),
            TeeError::RpmbViolation(m) => write!(f, "RPMB violation: {m}"),
            TeeError::BootFailed(m) => write!(f, "secure boot failed: {m}"),
            TeeError::EpcPressure(m) => write!(f, "EPC pressure: {m}"),
            TeeError::RpmbBusy(m) => write!(f, "RPMB busy: {m}"),
        }
    }
}

impl std::error::Error for TeeError {}

impl ironsafe_faults::Transient for TeeError {
    /// EPC pressure and a busy RPMB clear on their own; everything else
    /// (failed attestation, destroyed enclave, rollback detection,
    /// unseal failure) is a protocol event, not noise.
    fn is_transient(&self) -> bool {
        matches!(self, TeeError::EpcPressure(_) | TeeError::RpmbBusy(_))
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, TeeError>;
