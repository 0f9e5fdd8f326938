//! Intel SGX model: enclaves, EPC paging, sealing, quotes, attestation
//! service.

pub mod attestation;
pub mod enclave;
pub mod epc;
pub mod seal;
pub mod supervisor;

pub use attestation::{AttestationService, Quote, QuoteVerification};
pub use enclave::{Enclave, EnclaveConfig, EnclaveCounters, SgxPlatform};
pub use epc::EpcSimulator;
pub use seal::SealedBlob;
pub use supervisor::EnclaveSupervisor;
