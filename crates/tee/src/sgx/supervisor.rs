//! Enclave restart-on-crash supervision.
//!
//! Real confidential-analytics deployments treat enclave death as a
//! routine protocol event: the host runtime rebuilds the enclave from
//! the same measured image on the same platform and the new instance
//! unseals its persisted state (the seal key depends only on platform
//! secret + measurement, so it survives the restart). RPMB-backed
//! freshness state lives outside the enclave entirely, which is what
//! lets the restarted instance resume without trusting the host.
//!
//! [`EnclaveSupervisor`] packages that protocol: it owns the current
//! [`Enclave`] plus everything needed to rebuild it, and its
//! [`enter`](EnclaveSupervisor::enter) retries transient EPC-pressure
//! aborts and transparently restarts after a crash, reloading sealed
//! state. Restarts are counted (`tee.enclave.restart`) and recovery is
//! reported to the fault plan's `faults.recovered` metric.

use crate::image::SoftwareImage;
use crate::sgx::enclave::{Enclave, EnclaveConfig, SgxPlatform};
use crate::sgx::seal::SealedBlob;
use crate::{Result, TeeError};
use ironsafe_faults::{FaultPlan, RetryPolicy, Transient};
use ironsafe_obs::{Counter, Registry};
use std::sync::Arc;

/// Supervises one enclave: bounded retry on transient entry aborts,
/// restart + sealed-state reload on crash.
pub struct EnclaveSupervisor {
    platform: Arc<SgxPlatform>,
    image: SoftwareImage,
    config: EnclaveConfig,
    fault_plan: FaultPlan,
    enclave: Enclave,
    sealed_state: Option<SealedBlob>,
    state: Option<Vec<u8>>,
    restarts: Counter,
}

impl std::fmt::Debug for EnclaveSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EnclaveSupervisor({:?}, restarts={})", self.enclave, self.restarts.get())
    }
}

impl EnclaveSupervisor {
    /// Build the supervised enclave from `image` on `platform`.
    pub fn new(
        platform: Arc<SgxPlatform>,
        image: SoftwareImage,
        config: EnclaveConfig,
        fault_plan: FaultPlan,
    ) -> Self {
        let enclave =
            platform.create_enclave_with_faults(&image, config.clone(), fault_plan.clone());
        EnclaveSupervisor {
            platform,
            image,
            config,
            fault_plan,
            enclave,
            sealed_state: None,
            state: None,
            restarts: Counter::new(),
        }
    }

    /// The currently running enclave instance.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Seal `state` to the enclave and keep the blob for restarts. The
    /// plaintext is also cached as the supervisor's view of the running
    /// state (what [`EnclaveSupervisor::state`] returns).
    pub fn seal_state(&mut self, state: &[u8], rng: &mut (impl rand::Rng + ?Sized)) {
        self.sealed_state = Some(self.enclave.seal(state, rng));
        self.state = Some(state.to_vec());
    }

    /// The last sealed-then-(re)loaded state, if any.
    pub fn state(&self) -> Option<&[u8]> {
        self.state.as_deref()
    }

    /// How many times the enclave has been rebuilt after a crash.
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Attach `tee.enclave.restart` plus the current enclave's counters
    /// to `registry`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("tee.enclave.restart", &self.restarts);
        self.enclave.register_metrics(registry);
    }

    /// Rebuild the enclave from the measured image and reload sealed
    /// state into the new instance. Fails only if the sealed blob no
    /// longer authenticates (wrong platform/image — a real compromise,
    /// not a fault to retry).
    fn restart(&mut self) -> Result<()> {
        self.enclave = self.platform.create_enclave_with_faults(
            &self.image,
            self.config.clone(),
            self.fault_plan.clone(),
        );
        if let Some(blob) = &self.sealed_state {
            // Same platform + same measurement ⇒ same seal key.
            self.state = Some(self.enclave.unseal(blob)?);
        }
        self.restarts.inc();
        Ok(())
    }

    /// Enter the enclave, recovering from transient aborts (bounded
    /// retry with simulated backoff) and from crashes (restart + sealed
    /// state reload). Returns the first non-recoverable error.
    pub fn enter(&mut self) -> Result<()> {
        let policy = RetryPolicy::default();
        let budget = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match self.enclave.enter() {
                Ok(()) => {
                    if attempt > 0 {
                        self.fault_plan.note_recovered();
                    }
                    return Ok(());
                }
                // A destroyed enclave is restartable: rebuild and reload.
                Err(TeeError::InvalidState(_)) if attempt + 1 < budget => {
                    self.fault_plan.note_retried();
                    ironsafe_obs::span::add_sim_ns("other", policy.backoff_ns(attempt));
                    self.restart()?;
                    attempt += 1;
                }
                Err(e) if e.is_transient() && attempt + 1 < budget => {
                    self.fault_plan.note_retried();
                    ironsafe_obs::span::add_sim_ns("other", policy.backoff_ns(attempt));
                    attempt += 1;
                }
                Err(e) => {
                    if attempt > 0 {
                        self.fault_plan.note_exhausted();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Exit the enclave (OCALL). Exit faults are not injected; a crash
    /// between enter and exit shows up at the *next* enter.
    pub fn exit(&mut self) -> Result<()> {
        self.enclave.exit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_crypto::group::Group;
    use ironsafe_faults::FaultSite;
    use rand::SeedableRng;

    fn supervisor(plan: FaultPlan) -> EnclaveSupervisor {
        let platform = Arc::new(SgxPlatform::from_seed(&Group::modp_1024(), b"sup-host"));
        let image = SoftwareImage::new("host-engine", 1, b"engine".to_vec());
        EnclaveSupervisor::new(platform, image, EnclaveConfig::default(), plan)
    }

    #[test]
    fn crash_triggers_restart_and_state_reload() {
        let plan = FaultPlan::seeded(11).with_nth(FaultSite::EnclaveCrash, 2);
        let mut sup = supervisor(plan.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        sup.seal_state(b"session table v7", &mut rng);

        sup.enter().unwrap(); // arrival 1: fine
        sup.exit().unwrap();
        sup.enter().unwrap(); // arrival 2 crashes; supervisor restarts
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.state(), Some(&b"session table v7"[..]), "sealed state reloaded");
        assert_eq!(plan.metrics().recovered.get(), 1);
        assert!(plan.metrics().retried.get() >= 1);
    }

    #[test]
    fn epc_pressure_is_retried_without_restart() {
        let plan = FaultPlan::seeded(12).with_nth(FaultSite::EpcAbort, 1);
        let mut sup = supervisor(plan.clone());
        sup.enter().unwrap();
        assert_eq!(sup.restarts(), 0, "transient abort must not rebuild the enclave");
        assert_eq!(plan.metrics().recovered.get(), 1);
    }

    #[test]
    fn repeated_crashes_exhaust_the_budget_cleanly() {
        let plan = FaultPlan::seeded(13).with_rate(FaultSite::EnclaveCrash, 1.0);
        let mut sup = supervisor(plan.clone());
        let err = sup.enter().unwrap_err();
        assert!(matches!(err, TeeError::InvalidState(_)), "typed error, not a panic: {err}");
        assert_eq!(plan.metrics().exhausted.get(), 1);
        assert!(sup.restarts() >= 1, "it did try restarting");
    }

    #[test]
    fn restart_counter_is_exported() {
        let plan = FaultPlan::seeded(14).with_nth(FaultSite::EnclaveCrash, 1);
        let mut sup = supervisor(plan);
        let registry = Registry::new();
        sup.register_metrics(&registry);
        sup.enter().unwrap();
        assert_eq!(registry.snapshot().counter("tee.enclave.restart"), Some(1));
    }
}
