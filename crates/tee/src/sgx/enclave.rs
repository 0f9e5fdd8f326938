//! Enclave lifecycle and the SGX platform.
//!
//! An [`SgxPlatform`] stands in for one SGX-capable CPU: it owns the fused
//! root secret (from which sealing and quote-signing keys derive) and
//! creates [`Enclave`]s. An enclave records its launch-time
//! [`Measurement`], owns an [`EpcSimulator`] slice, and counts the
//! ECALL/OCALL transitions that the CSA cost model charges for.

use crate::image::{Measurement, SoftwareImage};
use crate::sgx::epc::EpcSimulator;
use crate::sgx::seal::{self, SealKey, SealedBlob};
use crate::{Result, TeeError};
use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_faults::{FaultPlan, FaultSite};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Enclave creation parameters.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// EPC bytes available to this enclave (paper setup: 96 MiB usable).
    pub epc_limit_bytes: usize,
    /// Maximum heap the shielded runtime may address (SCONE: 4 GiB).
    pub heap_limit_bytes: usize,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            epc_limit_bytes: 96 * 1024 * 1024,
            heap_limit_bytes: 4 * 1024 * 1024 * 1024,
        }
    }
}

/// Transition and paging counters exposed for the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnclaveCounters {
    /// Number of enclave entries (ECALLs).
    pub ecalls: u64,
    /// Number of enclave exits (OCALLs).
    pub ocalls: u64,
    /// EPC page faults.
    pub epc_faults: u64,
    /// EPC hits.
    pub epc_hits: u64,
}

/// One SGX-capable machine.
///
/// The platform secret plays the role of the fused keys: the sealing key,
/// the quote-signing key and the platform identity all derive from it.
pub struct SgxPlatform {
    /// Stable platform identifier (like a PPID).
    pub platform_id: [u8; 16],
    root_secret: [u8; 32],
    group: Group,
    quote_keys: KeyPair,
}

impl std::fmt::Debug for SgxPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SgxPlatform({:02x?})", &self.platform_id[..4])
    }
}

impl SgxPlatform {
    /// Manufacture a platform from a seed (deterministic for tests).
    pub fn from_seed(group: &Group, seed: &[u8]) -> Self {
        let root = ironsafe_crypto::hkdf::derive_key_256(seed, b"sgx-root-secret");
        let mut platform_id = [0u8; 16];
        platform_id.copy_from_slice(&ironsafe_crypto::hkdf::derive_key_128(seed, b"sgx-platform-id"));
        let quote_keys = KeyPair::derive(group, &root, b"sgx-quote-key");
        SgxPlatform { platform_id, root_secret: root, group: group.clone(), quote_keys }
    }

    /// The Schnorr group this platform signs in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The platform's quote-signing keypair (the EPID/DCAP stand-in).
    pub fn quote_keys(&self) -> &KeyPair {
        &self.quote_keys
    }

    /// Build and initialize an enclave from `image`, measuring it.
    pub fn create_enclave(&self, image: &SoftwareImage, config: EnclaveConfig) -> Enclave {
        self.create_enclave_with_faults(image, config, FaultPlan::none())
    }

    /// [`SgxPlatform::create_enclave`] with a fault plan wired into the
    /// enclave's entry path (`tee.enclave.crash`, `tee.epc.abort`).
    pub fn create_enclave_with_faults(
        &self,
        image: &SoftwareImage,
        config: EnclaveConfig,
        fault_plan: FaultPlan,
    ) -> Enclave {
        Enclave {
            measurement: image.measure(),
            image_name: image.name.clone(),
            image_version: image.version,
            config: config.clone(),
            epc: Mutex::new(EpcSimulator::new(config.epc_limit_bytes)),
            ecalls: AtomicU64::new(0),
            ocalls: AtomicU64::new(0),
            transitions: ironsafe_obs::Counter::new(),
            seal_key: SealKey::new(&seal::derive_seal_key(
                &self.root_secret,
                image.measure().as_bytes(),
            )),
            destroyed: AtomicU64::new(0),
            fault_plan,
        }
    }
}

/// A running enclave.
pub struct Enclave {
    measurement: Measurement,
    image_name: String,
    image_version: u32,
    config: EnclaveConfig,
    epc: Mutex<EpcSimulator>,
    ecalls: AtomicU64,
    ocalls: AtomicU64,
    transitions: ironsafe_obs::Counter,
    seal_key: SealKey,
    destroyed: AtomicU64,
    fault_plan: FaultPlan,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Enclave({} v{}, {:?})", self.image_name, self.image_version, self.measurement)
    }
}

impl Enclave {
    /// The launch measurement (MRENCLAVE).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Name of the loaded image.
    pub fn image_name(&self) -> &str {
        &self.image_name
    }

    /// Version of the loaded image.
    pub fn image_version(&self) -> u32 {
        self.image_version
    }

    /// Creation config.
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    fn check_alive(&self) -> Result<()> {
        if self.destroyed.load(Ordering::Relaxed) != 0 {
            Err(TeeError::InvalidState("enclave destroyed"))
        } else {
            Ok(())
        }
    }

    /// Record an enclave entry (ECALL).
    ///
    /// Under an active fault plan an entry can crash the enclave
    /// (`tee.enclave.crash` — the enclave is destroyed and must be
    /// rebuilt, e.g. by an
    /// [`EnclaveSupervisor`](crate::sgx::EnclaveSupervisor)) or abort
    /// transiently under EPC pressure (`tee.epc.abort`).
    pub fn enter(&self) -> Result<()> {
        self.check_alive()?;
        if self.fault_plan.should_fire(FaultSite::EnclaveCrash) {
            self.destroy();
            return Err(TeeError::InvalidState("enclave crashed (injected fault)"));
        }
        if self.fault_plan.should_fire(FaultSite::EpcAbort) {
            return Err(TeeError::EpcPressure("entry aborted (injected fault)"));
        }
        self.ecalls.fetch_add(1, Ordering::Relaxed);
        self.transitions.inc();
        Ok(())
    }

    /// Record an enclave exit (OCALL).
    pub fn exit(&self) -> Result<()> {
        self.check_alive()?;
        self.ocalls.fetch_add(1, Ordering::Relaxed);
        self.transitions.inc();
        Ok(())
    }

    /// Attach the enclave's telemetry counters to `registry`:
    /// `tee.enclave.transition` (ECALLs + OCALLs) and the EPC's
    /// `tee.epc.*` cells.
    pub fn register_metrics(&self, registry: &ironsafe_obs::Registry) {
        registry.register_counter("tee.enclave.transition", &self.transitions);
        self.epc.lock().register_metrics(registry);
    }

    /// Touch one abstract page of enclave memory; true on EPC fault.
    pub fn touch_page(&self, page: u64) -> bool {
        self.epc.lock().access(page)
    }

    /// Touch a run of pages; returns faults.
    pub fn touch_pages(&self, first: u64, count: u64) -> u64 {
        self.epc.lock().access_range(first, count)
    }

    /// Snapshot counters.
    pub fn counters(&self) -> EnclaveCounters {
        let epc = self.epc.lock();
        EnclaveCounters {
            ecalls: self.ecalls.load(Ordering::Relaxed),
            ocalls: self.ocalls.load(Ordering::Relaxed),
            epc_faults: epc.faults(),
            epc_hits: epc.hits(),
        }
    }

    /// Zero all counters (e.g. between benchmark runs).
    pub fn reset_counters(&self) {
        self.ecalls.store(0, Ordering::Relaxed);
        self.ocalls.store(0, Ordering::Relaxed);
        self.epc.lock().reset_counters();
    }

    /// Seal `data` so only an enclave with this measurement on this
    /// platform can recover it.
    pub fn seal(&self, data: &[u8], rng: &mut (impl rand::Rng + ?Sized)) -> SealedBlob {
        self.seal_key.seal(data, rng)
    }

    /// Unseal a blob sealed by [`Enclave::seal`].
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>> {
        self.seal_key.unseal(blob)
    }

    /// Tear down the enclave: wipes EPC residency and refuses further entry.
    pub fn destroy(&self) {
        self.destroyed.store(1, Ordering::Relaxed);
        self.epc.lock().clear();
    }
}

/// Shared handle to an enclave.
pub type EnclaveRef = Arc<Enclave>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn platform() -> SgxPlatform {
        SgxPlatform::from_seed(&Group::modp_1024(), b"host-0")
    }

    fn image() -> SoftwareImage {
        SoftwareImage::new("host-engine", 1, b"engine code".to_vec())
    }

    #[test]
    fn enclave_measurement_matches_image() {
        let e = platform().create_enclave(&image(), EnclaveConfig::default());
        assert_eq!(e.measurement(), image().measure());
    }

    #[test]
    fn transitions_are_counted() {
        let e = platform().create_enclave(&image(), EnclaveConfig::default());
        e.enter().unwrap();
        e.enter().unwrap();
        e.exit().unwrap();
        let c = e.counters();
        assert_eq!((c.ecalls, c.ocalls), (2, 1));
    }

    #[test]
    fn epc_faults_tracked_through_enclave() {
        let cfg = EnclaveConfig { epc_limit_bytes: 2 * 4096, heap_limit_bytes: 1 << 20 };
        let e = platform().create_enclave(&image(), cfg);
        assert_eq!(e.touch_pages(0, 3), 3);
        assert_eq!(e.touch_pages(0, 1), 1, "page 0 was evicted by LRU scan");
        assert_eq!(e.counters().epc_faults, 4);
    }

    #[test]
    fn seal_roundtrip_same_enclave() {
        let p = platform();
        let e = p.create_enclave(&image(), EnclaveConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let blob = e.seal(b"database master key", &mut rng);
        assert_eq!(e.unseal(&blob).unwrap(), b"database master key");
    }

    #[test]
    fn seal_is_bound_to_measurement_and_platform() {
        let p = platform();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let e1 = p.create_enclave(&image(), EnclaveConfig::default());
        let blob = e1.seal(b"secret", &mut rng);

        // Different code: unseal must fail.
        let other_image = SoftwareImage::new("host-engine", 2, b"patched".to_vec());
        let e2 = p.create_enclave(&other_image, EnclaveConfig::default());
        assert_eq!(e2.unseal(&blob), Err(TeeError::UnsealFailed));

        // Same code, different platform: unseal must fail.
        let p2 = SgxPlatform::from_seed(&Group::modp_1024(), b"host-1");
        let e3 = p2.create_enclave(&image(), EnclaveConfig::default());
        assert_eq!(e3.unseal(&blob), Err(TeeError::UnsealFailed));
    }

    #[test]
    fn destroyed_enclave_refuses_entry() {
        let e = platform().create_enclave(&image(), EnclaveConfig::default());
        e.destroy();
        assert!(e.enter().is_err());
        assert!(e.exit().is_err());
    }

    #[test]
    fn platform_identity_is_stable() {
        let a = SgxPlatform::from_seed(&Group::modp_1024(), b"host-0");
        let b = SgxPlatform::from_seed(&Group::modp_1024(), b"host-0");
        assert_eq!(a.platform_id, b.platform_id);
        assert_eq!(a.quote_keys().public, b.quote_keys().public);
    }
}
