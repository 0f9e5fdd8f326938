//! TrustZone devices and their manufacturer.
//!
//! The [`Manufacturer`] is the trust anchor for the storage side: it fuses
//! a hardware-unique key (HUK) into each device and certifies the device's
//! attestation key (derived from the HUK) with the manufacturer root — the
//! certificate plays the role of the ROTPK provisioning in the paper's
//! Figure 4(b).

use crate::trustzone::rpmb::Rpmb;
use ironsafe_crypto::cert::{Certificate, SubjectInfo};
use ironsafe_crypto::group::Group;
use ironsafe_crypto::hkdf;
use ironsafe_crypto::schnorr::KeyPair;

/// The device manufacturer: root of trust for all its devices.
pub struct Manufacturer {
    group: Group,
    root_keys: KeyPair,
}

impl Manufacturer {
    /// Create a manufacturer identity from a seed.
    pub fn from_seed(group: &Group, seed: &[u8]) -> Self {
        Manufacturer { group: group.clone(), root_keys: KeyPair::derive(group, seed, b"tz-manufacturer-root") }
    }

    /// The manufacturer root public key (what verifiers pin).
    pub fn root_public(&self) -> ironsafe_crypto::schnorr::PublicKey {
        self.root_keys.public.clone()
    }

    /// Fabricate a device: fuse a HUK, provision RPMB, certify the
    /// device attestation key.
    pub fn make_device(
        &self,
        device_id: &str,
        rpmb_blocks: usize,
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> TrustZoneDevice {
        let mut huk = [0u8; 32];
        rng.fill_bytes(&mut huk);
        let attestation_keys = KeyPair::derive(&self.group, &huk, b"tz-attestation-key");
        let device_cert = Certificate::issue(
            &self.group,
            &self.root_keys.secret,
            SubjectInfo {
                name: device_id.to_string(),
                role: "device".to_string(),
                fw_version: 0,
                measurement: Vec::new(),
            },
            attestation_keys.public.clone(),
            rng,
        );
        TrustZoneDevice {
            device_id: device_id.to_string(),
            group: self.group.clone(),
            huk,
            attestation_keys,
            device_cert,
            rpmb: Rpmb::new(rpmb_blocks),
        }
    }
}

/// A TrustZone-capable SoC plus its eMMC RPMB.
pub struct TrustZoneDevice {
    /// Stable device identifier.
    pub device_id: String,
    group: Group,
    huk: [u8; 32],
    attestation_keys: KeyPair,
    /// Manufacturer-issued certificate over the attestation public key.
    pub device_cert: Certificate,
    /// The replay-protected memory block.
    pub rpmb: Rpmb,
}

impl std::fmt::Debug for TrustZoneDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TrustZoneDevice({})", self.device_id)
    }
}

impl TrustZoneDevice {
    /// The group the device signs in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Derive a purpose-specific key from the HUK.
    ///
    /// Only secure-world code may call this on real hardware; in the model
    /// the [`crate::trustzone::ta`] module is the intended caller.
    pub(crate) fn derive_huk_key(&self, info: &[u8]) -> [u8; 32] {
        hkdf::derive_key_256(&self.huk, info)
    }

    /// The device's attestation keypair (HUK-derived, ROTPK-certified).
    pub(crate) fn attestation_keys(&self) -> &KeyPair {
        &self.attestation_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn device_cert_chains_to_manufacturer() {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dev = mfr.make_device("storage-0", 8, &mut rng);
        assert!(dev.device_cert.verify(&group, &mfr.root_public()).is_ok());
        assert_eq!(dev.device_cert.public_key, dev.attestation_keys().public);
    }

    #[test]
    fn other_manufacturer_cannot_certify() {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let other = Manufacturer::from_seed(&group, b"evil");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dev = other.make_device("storage-0", 8, &mut rng);
        assert!(dev.device_cert.verify(&group, &mfr.root_public()).is_err());
    }

    #[test]
    fn huk_derivations_are_stable_and_separated() {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dev = mfr.make_device("storage-0", 8, &mut rng);
        assert_eq!(dev.derive_huk_key(b"rpmb"), dev.derive_huk_key(b"rpmb"));
        assert_ne!(dev.derive_huk_key(b"rpmb"), dev.derive_huk_key(b"task"));
    }

    #[test]
    fn devices_have_distinct_huks() {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = mfr.make_device("a", 1, &mut rng);
        let b = mfr.make_device("b", 1, &mut rng);
        assert_ne!(a.derive_huk_key(b"x"), b.derive_huk_key(b"x"));
    }
}
