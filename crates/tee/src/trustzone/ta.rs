//! Trusted applications running in the secure world.
//!
//! The paper's storage system runs exactly two security-critical TAs
//! (§4.1): an **attestation TA** that answers the trusted monitor's
//! challenges (Figure 4b) and a **secure storage TA** that owns the
//! HUK-derived TA storage key (TASK), gates RPMB access, and keeps the
//! database encryption key across reboots.

use crate::image::Measurement;
use crate::sgx::seal::{SealKey, SealedBlob};
use crate::trustzone::boot::BootedSystem;
use crate::trustzone::device::TrustZoneDevice;
use crate::trustzone::rpmb::{RpmbClient, RPMB_BLOCK};
use crate::{Result, TeeError};
use ironsafe_crypto::cert::CertificateChain;
use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::Signature;

/// Response to an attestation challenge (Figure 4b, steps 2–4).
#[derive(Clone, Debug)]
pub struct AttestationResponse {
    /// The echoed challenge nonce.
    pub challenge: [u8; 32],
    /// Normal-world measurement taken at boot.
    pub nw_measurement: Measurement,
    /// Normal-world firmware version.
    pub nw_version: u32,
    /// Certificate chain from the manufacturer-certified device key down to
    /// the per-boot leaf key.
    pub chain: CertificateChain,
    /// Signature over `challenge ‖ nw_measurement ‖ nw_version` by the leaf
    /// (per-boot) key.
    pub signature: Signature,
}

impl AttestationResponse {
    /// The byte string the leaf key signs.
    pub fn signed_bytes(challenge: &[u8; 32], m: &Measurement, v: u32) -> Vec<u8> {
        let mut out = b"ironsafe-tz-attest-v1".to_vec();
        out.extend_from_slice(challenge);
        out.extend_from_slice(m.as_bytes());
        out.extend_from_slice(&v.to_be_bytes());
        out
    }
}

/// The attestation trusted application.
pub struct AttestationTa<'a> {
    booted: &'a BootedSystem,
}

impl<'a> AttestationTa<'a> {
    /// Instantiate over a booted system.
    pub fn new(booted: &'a BootedSystem) -> Self {
        AttestationTa { booted }
    }

    /// Answer a challenge from the trusted monitor.
    pub fn respond(&self, challenge: [u8; 32], rng: &mut (impl rand::Rng + ?Sized)) -> AttestationResponse {
        let msg = AttestationResponse::signed_bytes(
            &challenge,
            &self.booted.nw_measurement,
            self.booted.nw_version,
        );
        AttestationResponse {
            challenge,
            nw_measurement: self.booted.nw_measurement,
            nw_version: self.booted.nw_version,
            chain: self.booted.chain.clone(),
            signature: self.booted.attestation_signing.secret.sign(&msg, rng),
        }
    }
}

/// Verify an [`AttestationResponse`] against a pinned manufacturer root.
///
/// Returns the verified `(measurement, version)` claims. This is the
/// verifier half used by the trusted monitor.
pub fn verify_attestation(
    group: &Group,
    root: &ironsafe_crypto::schnorr::PublicKey,
    expected_challenge: &[u8; 32],
    resp: &AttestationResponse,
) -> Result<(Measurement, u32)> {
    if &resp.challenge != expected_challenge {
        return Err(TeeError::AttestationFailed("challenge mismatch"));
    }
    let leaf = resp
        .chain
        .verify(group, root)
        .map_err(|_| TeeError::AttestationFailed("certificate chain invalid"))?;
    if leaf.subject.role != "normal-world" {
        return Err(TeeError::AttestationFailed("leaf is not the normal-world cert"));
    }
    if leaf.subject.measurement != resp.nw_measurement.as_bytes().to_vec()
        || leaf.subject.fw_version != resp.nw_version
    {
        return Err(TeeError::AttestationFailed("claims disagree with boot chain"));
    }
    let msg = AttestationResponse::signed_bytes(&resp.challenge, &resp.nw_measurement, resp.nw_version);
    leaf.public_key
        .verify(group, &msg, &resp.signature)
        .map_err(|_| TeeError::AttestationFailed("challenge signature invalid"))?;
    Ok((resp.nw_measurement, resp.nw_version))
}

/// RPMB layout used by the secure storage TA.
const SLOT_MERKLE_ROOT: usize = 0;
const SLOT_DB_KEY: usize = 1;

/// The secure-storage trusted application.
///
/// Owns the TASK (TA storage key) derived from the HUK, and is the only
/// component allowed to drive the RPMB. It offers the two services the
/// secure storage framework needs: persisting the database encryption key
/// and persisting the freshness-protected Merkle-root MAC.
pub struct SecureStorageTa {
    /// Key authenticated against the RPMB.
    rpmb_client: RpmbClient,
    /// TASK: wraps data written into RPMB slots.
    task: [u8; 32],
}

impl SecureStorageTa {
    /// Initialize over a device: derives keys from the HUK and programs the
    /// RPMB authentication key on first use.
    pub fn init(device: &mut TrustZoneDevice) -> Result<Self> {
        let rpmb_key = device.derive_huk_key(b"rpmb-auth-key");
        if !device.rpmb.is_programmed() {
            device.rpmb.program_key(rpmb_key)?;
        }
        Ok(SecureStorageTa {
            rpmb_client: RpmbClient::new(rpmb_key),
            task: device.derive_huk_key(b"ta-storage-key"),
        })
    }

    /// The TASK, exposed to the trusted storage stack for key wrapping.
    pub fn task(&self) -> &[u8; 32] {
        &self.task
    }

    /// Persist the 32-byte Merkle-root MAC into RPMB.
    pub fn store_merkle_root(&self, device: &mut TrustZoneDevice, root_mac: &[u8; 32]) -> Result<()> {
        let mut block = [0u8; RPMB_BLOCK];
        block[..32].copy_from_slice(root_mac);
        self.rpmb_client.write(&mut device.rpmb, SLOT_MERKLE_ROOT, &block)
    }

    /// Persist the Merkle-root MAC *and* the WAL chain-head MAC in one
    /// authenticated RPMB write (group commit's batched bind): both marks
    /// share the Merkle-root slot's block, so committing N transactions
    /// costs a single RPMB round trip instead of one per mark. The root
    /// keeps its `[..32]` layout — [`SecureStorageTa::load_merkle_root`]
    /// reads a batched block unchanged.
    pub fn store_commit_marks(
        &self,
        device: &mut TrustZoneDevice,
        root_mac: &[u8; 32],
        wal_head_mac: &[u8; 32],
    ) -> Result<()> {
        let mut block = [0u8; RPMB_BLOCK];
        block[..32].copy_from_slice(root_mac);
        block[32..64].copy_from_slice(wal_head_mac);
        self.rpmb_client.write(&mut device.rpmb, SLOT_MERKLE_ROOT, &block)
    }

    /// Load both commit marks (root MAC, WAL chain-head MAC) in one
    /// authenticated RPMB read. A database committed without a WAL
    /// reports an all-zero WAL mark.
    pub fn load_commit_marks(
        &self,
        device: &TrustZoneDevice,
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<([u8; 32], [u8; 32])> {
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let block = self.rpmb_client.read(&device.rpmb, SLOT_MERKLE_ROOT, &nonce)?;
        let mut root = [0u8; 32];
        root.copy_from_slice(&block[..32]);
        let mut wal = [0u8; 32];
        wal.copy_from_slice(&block[32..64]);
        Ok((root, wal))
    }

    /// Load the Merkle-root MAC from RPMB.
    pub fn load_merkle_root(
        &self,
        device: &TrustZoneDevice,
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<[u8; 32]> {
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let block = self.rpmb_client.read(&device.rpmb, SLOT_MERKLE_ROOT, &nonce)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(&block[..32]);
        Ok(out)
    }

    /// Persist the database encryption key (wrapped under the TASK).
    pub fn store_db_key(
        &self,
        device: &mut TrustZoneDevice,
        db_key: &[u8; 16],
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<()> {
        let blob = SealKey::new(&self.task).seal(db_key, rng);
        let mut block = [0u8; RPMB_BLOCK];
        block[..16].copy_from_slice(&blob.iv);
        block[16..32].copy_from_slice(&blob.ciphertext);
        block[32..64].copy_from_slice(&blob.mac);
        self.rpmb_client.write(&mut device.rpmb, SLOT_DB_KEY, &block)
    }

    /// Load and unwrap the database encryption key.
    pub fn load_db_key(
        &self,
        device: &TrustZoneDevice,
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<[u8; 16]> {
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let block = self.rpmb_client.read(&device.rpmb, SLOT_DB_KEY, &nonce)?;
        let blob = SealedBlob {
            iv: block[..16].try_into().expect("16 bytes"),
            ciphertext: block[16..32].to_vec(),
            mac: block[32..64].try_into().expect("32 bytes"),
        };
        let plain = SealKey::new(&self.task).unseal(&blob)?;
        plain.try_into().map_err(|_| TeeError::UnsealFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SoftwareImage;
    use crate::trustzone::boot::{BootImages, SecureBoot, SignedImage};
    use crate::trustzone::device::Manufacturer;
    use ironsafe_crypto::schnorr::KeyPair;
    use rand::SeedableRng;

    struct Fixture {
        group: Group,
        mfr: Manufacturer,
        device: TrustZoneDevice,
        booted: BootedSystem,
        rng: rand::rngs::StdRng,
    }

    fn fixture() -> Fixture {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let device = mfr.make_device("storage-0", 8, &mut rng);
        let vendor = KeyPair::derive(&group, b"acme", b"tz-manufacturer-root");
        let images = BootImages {
            trusted_firmware: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("atf", 2, b"atf".to_vec()), &mut rng),
            trusted_os: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("optee", 34, b"optee".to_vec()), &mut rng),
            normal_world: SoftwareImage::new("nw", 5, b"kernel+engine".to_vec()),
        };
        let booted = SecureBoot::boot(&device, &mfr.root_public(), &images, &mut rng).unwrap();
        Fixture { group, mfr, device, booted, rng }
    }

    #[test]
    fn attestation_roundtrip() {
        let mut f = fixture();
        let ta = AttestationTa::new(&f.booted);
        let challenge = [0x55u8; 32];
        let resp = ta.respond(challenge, &mut f.rng);
        let (m, v) = verify_attestation(&f.group, &f.mfr.root_public(), &challenge, &resp).unwrap();
        assert_eq!(m, f.booted.nw_measurement);
        assert_eq!(v, 5);
    }

    #[test]
    fn replayed_response_with_wrong_challenge_rejected() {
        let mut f = fixture();
        let ta = AttestationTa::new(&f.booted);
        let resp = ta.respond([1u8; 32], &mut f.rng);
        assert!(verify_attestation(&f.group, &f.mfr.root_public(), &[2u8; 32], &resp).is_err());
    }

    #[test]
    fn lied_about_measurement_rejected() {
        let mut f = fixture();
        let ta = AttestationTa::new(&f.booted);
        let challenge = [3u8; 32];
        let mut resp = ta.respond(challenge, &mut f.rng);
        resp.nw_measurement.0[0] ^= 1;
        assert!(verify_attestation(&f.group, &f.mfr.root_public(), &challenge, &resp).is_err());
    }

    #[test]
    fn lied_about_version_rejected() {
        let mut f = fixture();
        let ta = AttestationTa::new(&f.booted);
        let challenge = [3u8; 32];
        let mut resp = ta.respond(challenge, &mut f.rng);
        resp.nw_version = 99;
        assert!(verify_attestation(&f.group, &f.mfr.root_public(), &challenge, &resp).is_err());
    }

    #[test]
    fn batched_commit_marks_roundtrip_and_keep_root_layout() {
        let mut f = fixture();
        let ta = SecureStorageTa::init(&mut f.device).unwrap();
        let root = [0x21u8; 32];
        let wal = [0x7eu8; 32];
        ta.store_commit_marks(&mut f.device, &root, &wal).unwrap();
        let (r, w) = ta.load_commit_marks(&f.device, &mut f.rng).unwrap();
        assert_eq!((r, w), (root, wal));
        // The plain root loader reads the batched block unchanged.
        assert_eq!(ta.load_merkle_root(&f.device, &mut f.rng).unwrap(), root);
        // A root-only store reports a zero WAL mark.
        ta.store_merkle_root(&mut f.device, &root).unwrap();
        let (_, w) = ta.load_commit_marks(&f.device, &mut f.rng).unwrap();
        assert_eq!(w, [0u8; 32]);
    }

    #[test]
    fn storage_ta_persists_merkle_root_across_instances() {
        let mut f = fixture();
        let ta = SecureStorageTa::init(&mut f.device).unwrap();
        let root = [0xabu8; 32];
        ta.store_merkle_root(&mut f.device, &root).unwrap();
        // A new TA instance (e.g. after reboot) reads the same value.
        let ta2 = SecureStorageTa::init(&mut f.device).unwrap();
        assert_eq!(ta2.load_merkle_root(&f.device, &mut f.rng).unwrap(), root);
    }

    #[test]
    fn db_key_roundtrips_and_is_device_bound() {
        let mut f = fixture();
        let ta = SecureStorageTa::init(&mut f.device).unwrap();
        let key = [0x77u8; 16];
        ta.store_db_key(&mut f.device, &key, &mut f.rng).unwrap();
        assert_eq!(ta.load_db_key(&f.device, &mut f.rng).unwrap(), key);

        // A different device (different TASK) cannot unwrap the key.
        let mut other = f.mfr.make_device("storage-1", 8, &mut f.rng);
        let other_ta = SecureStorageTa::init(&mut other).unwrap();
        assert!(other_ta.load_db_key(&other, &mut f.rng).is_err());
    }

    #[test]
    fn task_differs_between_devices() {
        let mut f = fixture();
        let ta0 = SecureStorageTa::init(&mut f.device).unwrap();
        let mut dev1 = f.mfr.make_device("storage-1", 8, &mut f.rng);
        let ta1 = SecureStorageTa::init(&mut dev1).unwrap();
        assert_ne!(ta0.task(), ta1.task());
    }
}
