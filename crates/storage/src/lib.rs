//! # ironsafe-storage
//!
//! The secure storage framework of IronSafe (§4.1 of the paper): protects
//! data at rest on an *untrusted* storage medium with confidentiality,
//! integrity and freshness.
//!
//! Layering (bottom-up):
//!
//! * [`blockdev`] — a simulated block device of 4 KiB blocks with I/O
//!   counters and attacker-facing raw access (tamper/rollback/clone) used
//!   by the security tests.
//! * [`codec`] — the per-page cryptographic format: `IV ‖ AES-CBC
//!   ciphertext ‖ HMAC`, mirroring SQLCipher's page layout the paper
//!   builds on.
//! * [`merkle`] — an incremental Merkle tree (configurable arity) over the
//!   page MACs, detecting displacement and suppression of pages.
//! * [`freshness`] — binds the Merkle root to the device RPMB with a
//!   HUK-derived key, defeating rollback and forking attacks.
//! * [`pager`] — the [`Pager`] abstraction the SQL engine
//!   reads and writes through, with a plaintext implementation
//!   ([`pager::PlainPager`]) and the full secure implementation
//!   ([`secure_pager::SecurePager`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockdev;
pub mod codec;
pub mod freshness;
pub mod merkle;
pub mod mvcc;
pub mod pager;
pub mod secure_pager;
pub mod view;
pub mod wal;

pub use blockdev::{BlockDevice, BLOCK_SIZE};
pub use codec::{PageCodec, PAGE_PAYLOAD};
pub use merkle::{MerkleTree, NodeCacheStats};
pub use mvcc::{MvccMetrics, SnapshotPin, Snapshots};
pub use pager::{PageId, Pager, PagerStats, PlainPager};
pub use secure_pager::SecurePager;
pub use view::{PageCache, PendingTxns, SharedPending, ViewPager};
pub use wal::{
    Checkpoint, CommitRecord, RecoveredState, RecoveryInfo, TailReport, TailVerdict, Wal,
    WalMedium, WalMetrics,
};

/// Errors raised by the storage stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Page id out of range.
    PageOutOfRange(u64),
    /// A page failed decryption or MAC verification (tampering).
    IntegrityViolation(&'static str),
    /// The Merkle root did not match the RPMB-protected value (rollback).
    FreshnessViolation(&'static str),
    /// Buffer of the wrong size handed to the pager.
    BadBufferSize {
        /// Required size.
        expected: usize,
        /// Provided size.
        got: usize,
    },
    /// Underlying TEE error (RPMB etc.).
    Tee(ironsafe_tee::TeeError),
    /// The block device failed an I/O request (torn read, bus reset).
    DeviceIo(&'static str),
    /// The write-ahead log ends in a partial frame (crash mid-append).
    /// Recovery discards the torn tail; the committed prefix is intact.
    WalTorn(&'static str),
    /// A write-ahead-log record failed chain-MAC verification or decode
    /// (offline tampering, or a truncation that removed committed state).
    WalCorrupt(&'static str),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageOutOfRange(p) => write!(f, "page {p} out of range"),
            StorageError::IntegrityViolation(m) => write!(f, "integrity violation: {m}"),
            StorageError::FreshnessViolation(m) => write!(f, "freshness violation: {m}"),
            StorageError::BadBufferSize { expected, got } => {
                write!(f, "bad buffer size: expected {expected}, got {got}")
            }
            StorageError::Tee(e) => write!(f, "TEE error: {e}"),
            StorageError::DeviceIo(m) => write!(f, "device I/O error: {m}"),
            StorageError::WalTorn(m) => write!(f, "WAL torn: {m}"),
            StorageError::WalCorrupt(m) => write!(f, "WAL corrupt: {m}"),
        }
    }
}

impl ironsafe_faults::Transient for StorageError {
    /// Device I/O errors and integrity violations are retried: a torn
    /// read or in-transit bit flip clears on a re-read of the pristine
    /// medium (persistent tampering keeps failing and surfaces once the
    /// retry budget is spent). Freshness violations are *never*
    /// transient — a stale root is a rollback/fork event the RPMB
    /// protocol exists to make permanent and loud. TEE errors delegate.
    fn is_transient(&self) -> bool {
        match self {
            StorageError::DeviceIo(_) | StorageError::IntegrityViolation(_) => true,
            StorageError::Tee(e) => e.is_transient(),
            // A torn WAL tail is a *crash artifact*, not a flaky bus:
            // retrying the append would duplicate the partial frame. The
            // recovery path, not the retry loop, owns these.
            StorageError::PageOutOfRange(_)
            | StorageError::FreshnessViolation(_)
            | StorageError::WalTorn(_)
            | StorageError::WalCorrupt(_)
            | StorageError::BadBufferSize { .. } => false,
        }
    }
}

impl std::error::Error for StorageError {}

impl From<ironsafe_tee::TeeError> for StorageError {
    fn from(e: ironsafe_tee::TeeError) -> Self {
        StorageError::Tee(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;
