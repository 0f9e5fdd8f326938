//! SGX remote attestation: quotes and the attestation service.
//!
//! The paper relies on SCONE's Configuration and Attestation Service (CAS),
//! itself rooted in Intel IAS. We model the same trust structure:
//!
//! 1. Each genuine [`SgxPlatform`](crate::sgx::SgxPlatform) holds a
//!    quote-signing key derived from its fused secret.
//! 2. The [`AttestationService`] (IAS/CAS stand-in) knows which platform
//!    keys are genuine — registration models Intel's provisioning — and
//!    verifies quote signatures on behalf of relying parties.
//! 3. A [`Quote`] binds an enclave measurement and caller-chosen report
//!    data (e.g. a session public key) to a genuine platform.

use crate::image::Measurement;
use crate::sgx::enclave::{Enclave, SgxPlatform};
use crate::{Result, TeeError};
use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::{PublicKey, Signature};
use std::collections::HashMap;

/// A signed attestation quote.
#[derive(Debug, Clone)]
pub struct Quote {
    /// MRENCLAVE of the quoted enclave.
    pub measurement: Measurement,
    /// Version of the software inside the enclave.
    pub fw_version: u32,
    /// Identifier of the quoting platform.
    pub platform_id: [u8; 16],
    /// 64 bytes chosen by the enclave (typically a key commitment + nonce).
    pub report_data: Vec<u8>,
    /// Signature by the platform's quote key.
    pub signature: Signature,
}

impl Quote {
    fn signed_bytes(
        measurement: &Measurement,
        fw_version: u32,
        platform_id: &[u8; 16],
        report_data: &[u8],
    ) -> Vec<u8> {
        let mut msg = b"ironsafe-sgx-quote-v1".to_vec();
        msg.extend_from_slice(measurement.as_bytes());
        msg.extend_from_slice(&fw_version.to_be_bytes());
        msg.extend_from_slice(platform_id);
        msg.extend_from_slice(&(report_data.len() as u32).to_be_bytes());
        msg.extend_from_slice(report_data);
        msg
    }

    /// Produce a quote for `enclave` on `platform` with caller `report_data`.
    pub fn generate(
        platform: &SgxPlatform,
        enclave: &Enclave,
        report_data: &[u8],
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Quote {
        let measurement = enclave.measurement();
        let fw_version = enclave.image_version();
        let msg = Self::signed_bytes(&measurement, fw_version, &platform.platform_id, report_data);
        let signature = platform.quote_keys().secret.sign(&msg, rng);
        Quote {
            measurement,
            fw_version,
            platform_id: platform.platform_id,
            report_data: report_data.to_vec(),
            signature,
        }
    }
}

/// Outcome of a successful quote verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuoteVerification {
    /// The verified enclave measurement.
    pub measurement: Measurement,
    /// The verified firmware version.
    pub fw_version: u32,
    /// The platform that produced the quote.
    pub platform_id: [u8; 16],
}

/// IAS/CAS stand-in: the registry of genuine SGX platforms.
#[derive(Default)]
pub struct AttestationService {
    group: Option<Group>,
    platforms: HashMap<[u8; 16], PublicKey>,
}

impl AttestationService {
    /// Create an empty service for `group`.
    pub fn new(group: &Group) -> Self {
        AttestationService { group: Some(group.clone()), platforms: HashMap::new() }
    }

    /// Register a genuine platform (models Intel provisioning).
    pub fn register_platform(&mut self, platform: &SgxPlatform) {
        self.platforms.insert(platform.platform_id, platform.quote_keys().public.clone());
    }

    /// Verify a quote: the platform must be registered and the signature
    /// must check out. Returns the verified claims.
    pub fn verify_quote(&self, quote: &Quote) -> Result<QuoteVerification> {
        let group = self.group.as_ref().ok_or(TeeError::InvalidState("service not initialized"))?;
        let key = self
            .platforms
            .get(&quote.platform_id)
            .ok_or(TeeError::AttestationFailed("unknown platform"))?;
        let msg = Quote::signed_bytes(
            &quote.measurement,
            quote.fw_version,
            &quote.platform_id,
            &quote.report_data,
        );
        key.verify(group, &msg, &quote.signature)
            .map_err(|_| TeeError::AttestationFailed("bad quote signature"))?;
        Ok(QuoteVerification {
            measurement: quote.measurement,
            fw_version: quote.fw_version,
            platform_id: quote.platform_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SoftwareImage;
    use crate::sgx::enclave::EnclaveConfig;
    use rand::SeedableRng;

    fn setup() -> (Group, SgxPlatform, Enclave, AttestationService, rand::rngs::StdRng) {
        let group = Group::modp_1024();
        let platform = SgxPlatform::from_seed(&group, b"host-0");
        let enclave = platform.create_enclave(
            &SoftwareImage::new("host-engine", 7, b"code".to_vec()),
            EnclaveConfig::default(),
        );
        let mut ias = AttestationService::new(&group);
        ias.register_platform(&platform);
        (group, platform, enclave, ias, rand::rngs::StdRng::seed_from_u64(3))
    }

    #[test]
    fn genuine_quote_verifies() {
        let (_, platform, enclave, ias, mut rng) = setup();
        let quote = Quote::generate(&platform, &enclave, b"session-key-commitment", &mut rng);
        let v = ias.verify_quote(&quote).unwrap();
        assert_eq!(v.measurement, enclave.measurement());
        assert_eq!(v.fw_version, 7);
    }

    #[test]
    fn unknown_platform_rejected() {
        let (group, _, enclave, ias, mut rng) = setup();
        let rogue = SgxPlatform::from_seed(&group, b"rogue");
        let quote = Quote::generate(&rogue, &enclave, b"", &mut rng);
        assert_eq!(ias.verify_quote(&quote), Err(TeeError::AttestationFailed("unknown platform")));
    }

    #[test]
    fn tampered_measurement_rejected() {
        let (_, platform, enclave, ias, mut rng) = setup();
        let mut quote = Quote::generate(&platform, &enclave, b"", &mut rng);
        quote.measurement.0[0] ^= 1;
        assert!(ias.verify_quote(&quote).is_err());
    }

    #[test]
    fn tampered_report_data_rejected() {
        let (_, platform, enclave, ias, mut rng) = setup();
        let mut quote = Quote::generate(&platform, &enclave, b"honest data", &mut rng);
        quote.report_data = b"evil data!!".to_vec();
        assert!(ias.verify_quote(&quote).is_err());
    }

    #[test]
    fn fw_version_downgrade_rejected() {
        let (_, platform, enclave, ias, mut rng) = setup();
        let mut quote = Quote::generate(&platform, &enclave, b"", &mut rng);
        quote.fw_version = 99;
        assert!(ias.verify_quote(&quote).is_err());
    }

    #[test]
    fn platform_impersonation_rejected() {
        // A rogue platform replaying a genuine platform's id without its key.
        let (group, platform, enclave, ias, mut rng) = setup();
        let rogue = SgxPlatform::from_seed(&group, b"rogue");
        let mut quote = Quote::generate(&rogue, &enclave, b"", &mut rng);
        quote.platform_id = platform.platform_id;
        assert_eq!(ias.verify_quote(&quote), Err(TeeError::AttestationFailed("bad quote signature")));
    }
}
