//! # ironsafe-crypto
//!
//! From-scratch cryptographic primitives used throughout IronSafe.
//!
//! The paper's implementation leans on OpenSSL (via SQLCipher) for page
//! encryption and on vendor-provided attestation keys. To keep this
//! reproduction self-contained, every primitive the system needs is
//! implemented here:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4). Two back-ends — portable and
//!   x86-64 SHA-NI — selected per hasher by CPU feature detection.
//! * [`sha512`] / [`hmac512`] — SHA-512 and HMAC-SHA512; the paper's page
//!   MACs are HMAC-SHA512 (via SQLCipher), which the page codec stores
//!   truncated to 32 bytes. A batch of equal-length messages runs eight
//!   streams per pass in AVX-512 lanes where the CPU has AVX-512F/BW,
//!   selected once per key by CPU feature detection.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) used for Merkle nodes and
//!   RPMB authentication.
//! * [`hkdf`] — HKDF-SHA256 (RFC 5869) used to derive per-purpose keys from
//!   the hardware-unique key and session secrets.
//! * [`aes`] — AES-128 block cipher with [`modes`] CTR and CBC, used for
//!   page encryption (CBC + per-page IV, mirroring SQLCipher) and channel
//!   encryption (CTR). Two back-ends — portable T-tables and x86-64 AES-NI
//!   — selected once per key by CPU feature detection; CBC-decrypt and the
//!   CTR keystream run eight blocks in flight.
//! * [`bignum`] / [`group`] / [`schnorr`] — a little-endian big-unsigned
//!   integer at the API boundary, classic MODP groups, and Schnorr
//!   signatures used for attestation quotes, proofs of compliance and
//!   certificate chains; all arithmetic is fixed-width Montgomery
//!   (`mont`): a comb table for `g`, fixed windows for other bases.
//! * [`cert`] — a minimal X.509-like certificate chain model rooted in a
//!   manufacturer key (the TrustZone ROTPK) or an attestation service key.
//!
//! None of this code claims to resist side channels on real silicon — it
//! is a faithful, correct software model for a simulated platform — but
//! the algorithms themselves are the real ones, verified against published
//! test vectors in the unit tests. Within the model, three paths are built
//! to have an input-independent operation sequence: the AES-NI back-end,
//! the AVX-512 SHA-512 lanes (adds, rotates, shifts and `vpternlogq`), and
//! the Schnorr secret-exponent path (key generation and signing: the comb
//! for `g`, fixed 4-bit windows, masked table reads and masked final
//! subtractions, no branch on a limb of the key or the nonce — checked by
//! an operation-count test). The table-driven AES back-end and signature
//! verification (public inputs only) are variable-time.
//!
//! The crate denies `unsafe_code` rather than forbidding it so that three
//! modules, `aes::ni`, `sha256::ni` and `sha512::avx512` (intrinsics
//! only), can opt in; see DESIGN.md "Crypto backends" and
//! `tests/unsafe_budget.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod cert;
pub mod ct;
pub mod group;
pub mod hkdf;
pub mod hmac;
pub mod hmac512;
pub mod modes;
mod mont;
pub mod schnorr;
pub mod sha256;
pub mod sha512;

pub use aes::Aes128;
pub use bignum::BigUint;
pub use cert::{Certificate, CertificateChain, SubjectInfo};
pub use ct::ct_eq;
pub use group::Group;
pub use hkdf::hkdf_sha256;
pub use hmac::HmacSha256;
pub use hmac512::HmacSha512;
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
pub use sha256::Sha256;
pub use sha512::Sha512;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A MAC or signature failed verification.
    VerificationFailed,
    /// Ciphertext was malformed (wrong length, missing IV, bad padding...).
    MalformedCiphertext(&'static str),
    /// A key had the wrong length or was otherwise unusable.
    InvalidKey(&'static str),
    /// A certificate chain failed validation.
    InvalidCertificate(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::MalformedCiphertext(m) => write!(f, "malformed ciphertext: {m}"),
            CryptoError::InvalidKey(m) => write!(f, "invalid key: {m}"),
            CryptoError::InvalidCertificate(m) => write!(f, "invalid certificate: {m}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience alias for fallible crypto operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
