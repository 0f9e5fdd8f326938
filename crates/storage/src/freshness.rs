//! Freshness protection: binding the Merkle root to the RPMB.
//!
//! The paper's scheme (§4.1): the secure-storage TA derives a key from the
//! device HUK, MACs the current Merkle root with it and writes the MAC to
//! the RPMB. On open, the root recomputed from the (untrusted) medium must
//! MAC to the stored value — otherwise the medium was rolled back to a
//! stale version or belongs to a forked replica.

use crate::merkle::NodeHash;
use crate::{Result, StorageError};
use ironsafe_crypto::hmac::HmacSha256;
use ironsafe_tee::trustzone::{SecureStorageTa, TrustZoneDevice};

/// Manages the RPMB-backed root MAC.
pub struct FreshnessManager {
    /// HMAC pre-keyed with the device-bound root-MAC key; cloned per root.
    root_mac: HmacSha256,
    /// Number of RPMB round-trips (cost-model input).
    pub rpmb_writes: u64,
    /// Number of RPMB reads (cost-model input).
    pub rpmb_reads: u64,
}

impl FreshnessManager {
    /// Build over the device's secure-storage TA: the root-MAC key derives
    /// from the TASK so it never leaves the device.
    pub fn new(ta: &SecureStorageTa) -> Self {
        let key = ironsafe_crypto::hkdf::derive_key_256(ta.task(), b"merkle-root-mac");
        FreshnessManager { root_mac: HmacSha256::new(&key), rpmb_writes: 0, rpmb_reads: 0 }
    }

    /// MAC a Merkle root with the device-bound key.
    pub fn root_mac(&self, root: &NodeHash) -> [u8; 32] {
        let mut mac = self.root_mac.clone();
        mac.update(b"fresh-root");
        mac.update(root);
        mac.finalize()
    }

    /// Commit `root` as the current authentic state (RPMB write).
    pub fn commit_root(
        &mut self,
        ta: &SecureStorageTa,
        device: &mut TrustZoneDevice,
        root: &NodeHash,
    ) -> Result<()> {
        let mac = self.root_mac(root);
        ta.store_merkle_root(device, &mac)?;
        self.rpmb_writes += 1;
        Ok(())
    }

    /// Commit `root` and the WAL chain-head MAC together in one batched
    /// authenticated RPMB write — the group-commit bind. N transactions
    /// flushed together pay this single RPMB round trip, versus one per
    /// statement on the unbatched path.
    pub fn commit_root_with_wal(
        &mut self,
        ta: &SecureStorageTa,
        device: &mut TrustZoneDevice,
        root: &NodeHash,
        wal_head_mac: &[u8; 32],
    ) -> Result<()> {
        let mac = self.root_mac(root);
        ta.store_commit_marks(device, &mac, wal_head_mac)?;
        self.rpmb_writes += 1;
        Ok(())
    }

    /// Read the committed WAL chain-head MAC (recovery: the last record
    /// whose chain MAC equals this value is the freshness-verified
    /// replay boundary). All-zero means no WAL bind was ever committed.
    pub fn committed_wal_head(
        &mut self,
        ta: &SecureStorageTa,
        device: &TrustZoneDevice,
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<[u8; 32]> {
        let (_, wal) = ta.load_commit_marks(device, rng)?;
        self.rpmb_reads += 1;
        Ok(wal)
    }

    /// Check that `root` matches the RPMB-committed state.
    pub fn verify_root(
        &mut self,
        ta: &SecureStorageTa,
        device: &TrustZoneDevice,
        root: &NodeHash,
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<()> {
        let stored = ta.load_merkle_root(device, rng)?;
        self.rpmb_reads += 1;
        let expect = self.root_mac(root);
        if !ironsafe_crypto::ct_eq(&expect, &stored) {
            return Err(StorageError::FreshnessViolation(
                "Merkle root does not match RPMB (rollback or fork)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_crypto::group::Group;
    use ironsafe_tee::trustzone::Manufacturer;
    use rand::SeedableRng;

    fn setup() -> (TrustZoneDevice, SecureStorageTa, FreshnessManager, rand::rngs::StdRng) {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut device = mfr.make_device("s0", 8, &mut rng);
        let ta = SecureStorageTa::init(&mut device).unwrap();
        let fm = FreshnessManager::new(&ta);
        (device, ta, fm, rng)
    }

    #[test]
    fn commit_then_verify_succeeds() {
        let (mut dev, ta, mut fm, mut rng) = setup();
        let root = [0x33u8; 32];
        fm.commit_root(&ta, &mut dev, &root).unwrap();
        fm.verify_root(&ta, &dev, &root, &mut rng).unwrap();
        assert_eq!((fm.rpmb_writes, fm.rpmb_reads), (1, 1));
    }

    #[test]
    fn stale_root_detected() {
        let (mut dev, ta, mut fm, mut rng) = setup();
        let old = [0x01u8; 32];
        let new = [0x02u8; 32];
        fm.commit_root(&ta, &mut dev, &old).unwrap();
        fm.commit_root(&ta, &mut dev, &new).unwrap();
        // Attacker rolled the medium back to `old`.
        assert_eq!(
            fm.verify_root(&ta, &dev, &old, &mut rng),
            Err(StorageError::FreshnessViolation("Merkle root does not match RPMB (rollback or fork)"))
        );
        fm.verify_root(&ta, &dev, &new, &mut rng).unwrap();
    }

    #[test]
    fn batched_wal_bind_costs_one_rpmb_write() {
        let (mut dev, ta, mut fm, mut rng) = setup();
        let root = [0x44u8; 32];
        let head = [0x9cu8; 32];
        fm.commit_root_with_wal(&ta, &mut dev, &root, &head).unwrap();
        assert_eq!(fm.rpmb_writes, 1, "root + WAL head bind in one RPMB op");
        fm.verify_root(&ta, &dev, &root, &mut rng).unwrap();
        assert_eq!(fm.committed_wal_head(&ta, &dev, &mut rng).unwrap(), head);
    }

    #[test]
    fn root_mac_is_device_bound() {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut d1 = mfr.make_device("a", 8, &mut rng);
        let mut d2 = mfr.make_device("b", 8, &mut rng);
        let ta1 = SecureStorageTa::init(&mut d1).unwrap();
        let ta2 = SecureStorageTa::init(&mut d2).unwrap();
        let fm1 = FreshnessManager::new(&ta1);
        let fm2 = FreshnessManager::new(&ta2);
        assert_ne!(fm1.root_mac(&[5; 32]), fm2.root_mac(&[5; 32]));
    }
}
