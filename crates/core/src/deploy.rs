//! End-to-end deployment: the Figure 2 workflow wired together.

use crate::{IronSafeError, Result};
use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_csa::{
    storage_pager, CostParams, CsaSystem, QueryReport, SharedCsaSystem, SystemConfig,
};
use ironsafe_monitor::monitor::{MonitorConfig, QueryRequest};
use ironsafe_monitor::{ProofOfCompliance, TrustedMonitor};
use ironsafe_policy::parse_policy;
use ironsafe_serve::{QueryServer, ServeConfig};
use ironsafe_sql::{Database, QueryResult};
use ironsafe_faults::FaultPlan;
use ironsafe_tee::image::SoftwareImage;
use ironsafe_tee::sgx::{AttestationService, EnclaveConfig, EnclaveSupervisor, Quote, SgxPlatform};
use ironsafe_tee::trustzone::{AttestationTa, BootImages, Manufacturer, SecureBoot, SignedImage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A data producer or consumer, identified by its key.
#[derive(Debug, Clone)]
pub struct Client {
    /// Identity key (the policy language's `sessionKeyIs` argument).
    pub key: String,
}

impl Client {
    /// A client with identity `key`.
    pub fn new(key: impl Into<String>) -> Self {
        Client { key: key.into() }
    }
}

/// The answer a client receives: results plus a proof of compliance.
#[derive(Debug)]
pub struct Response {
    /// Query results.
    pub result: QueryResult,
    /// Signed proof that the execution environment satisfied the policy.
    pub proof: ProofOfCompliance,
    /// Execution report (data movement, simulated cost).
    pub report: QueryReport,
    /// The query and policy the proof covers (for verification).
    query_text: String,
    policy_text: String,
}

impl Response {
    /// Verify the proof against the deployment's monitor key.
    pub fn verify_proof(&self, deployment: &Deployment) -> bool {
        self.proof.verify(
            &deployment.group,
            &deployment.monitor.public_key(),
            &self.query_text,
            &self.policy_text,
        )
    }
}

/// Builder for a [`Deployment`].
pub struct DeploymentBuilder {
    region: String,
    params: CostParams,
    seed: u64,
    host_fw: u32,
    storage_fw: u32,
    fault_plan: FaultPlan,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        DeploymentBuilder {
            region: "EU".into(),
            params: CostParams::default(),
            seed: 0x1705,
            host_fw: 5,
            storage_fw: 5,
            fault_plan: FaultPlan::none(),
        }
    }
}

impl DeploymentBuilder {
    /// Deploy host and storage in `region`.
    pub fn region(mut self, region: impl Into<String>) -> Self {
        self.region = region.into();
        self
    }

    /// Override cost-model parameters.
    pub fn cost_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Deterministic seed for all generated key material.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Firmware versions reported by the nodes.
    pub fn firmware(mut self, host: u32, storage: u32) -> Self {
        self.host_fw = host;
        self.storage_fw = storage;
        self
    }

    /// Install a deterministic fault-injection plan covering the whole
    /// deployment: the secure pager (device/page/freshness sites), the
    /// supervised host enclave (crash, EPC pressure) and the RPMB
    /// device. [`FaultPlan::none`] by default.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Manufacture the hardware, boot it, and attest everything.
    pub fn build(self) -> Result<Deployment> {
        let group = Group::modp_1024();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- Host: SGX platform + supervised host-engine enclave. ------
        let platform = Arc::new(SgxPlatform::from_seed(&group, b"ironsafe-host-platform"));
        let host_image = SoftwareImage::new("host-engine", self.host_fw, b"ironsafe host engine".to_vec());
        let mut supervisor = EnclaveSupervisor::new(
            Arc::clone(&platform),
            host_image.clone(),
            EnclaveConfig {
                epc_limit_bytes: self.params.epc_limit_bytes,
                ..EnclaveConfig::default()
            },
            self.fault_plan.clone(),
        );
        let mut ias = AttestationService::new(&group);
        ias.register_platform(&platform);

        // --- Storage: TrustZone device, secure boot. --------------------
        let mfr = Manufacturer::from_seed(&group, b"ironsafe-storage-vendor");
        let vendor = KeyPair::derive(&group, b"ironsafe-storage-vendor", b"tz-manufacturer-root");
        let device = mfr.make_device("storage-0", 8, &mut rng);
        let images = BootImages {
            trusted_firmware: SignedImage::sign(
                &group,
                &vendor.secret,
                SoftwareImage::new("atf", 2, b"arm trusted firmware".to_vec()),
                &mut rng,
            ),
            trusted_os: SignedImage::sign(
                &group,
                &vendor.secret,
                SoftwareImage::new("optee", 34, b"op-tee 3.4".to_vec()),
                &mut rng,
            ),
            normal_world: SoftwareImage::new(
                "storage-normal-world",
                self.storage_fw,
                b"linux + csa runtime + storage engine".to_vec(),
            ),
        };
        let booted = SecureBoot::boot(&device, &mfr.root_public(), &images, &mut rng)
            .map_err(|e| IronSafeError::Monitor(ironsafe_monitor::MonitorError::Attestation(e.to_string())))?;

        // --- Monitor: pin the trusted stack, attest both nodes. ---------
        let config = MonitorConfig {
            expected_host_measurement: host_image.measure(),
            expected_nw_measurement: booted.nw_measurement,
            latest_fw: self.host_fw.max(self.storage_fw),
        };
        let mut monitor = TrustedMonitor::new(&group, self.seed ^ 0x0170, ias, mfr.root_public(), config);
        let host_session_keys = KeyPair::generate(&group, &mut rng);
        let commitment = ironsafe_crypto::sha256::sha256(&host_session_keys.public.to_bytes(&group));
        let quote = Quote::generate(&platform, supervisor.enclave(), &commitment, &mut rng);
        let host_cert = monitor.attest_host("host-0", &self.region, &quote, &host_session_keys.public)?;
        let challenge = monitor.storage_challenge();
        let response = AttestationTa::new(&booted).respond(challenge, &mut rng);
        monitor.attest_storage("storage-0", &self.region, &response)?;

        // --- Query processing system (scs: split + secure). -------------
        let medium = (mfr.make_device("storage-0-medium", 8, &mut rng), self.seed);
        let storage_db = Database::with_shared(storage_pager(
            Some(medium),
            false,
            self.params.epc_limit_bytes,
        )?);
        let mut system = CsaSystem::from_database(SystemConfig::IronSafe, storage_db, self.params);
        system.set_fault_plan(self.fault_plan.clone());

        // Seal the deployment identity into the supervisor: after an
        // injected enclave crash, the restarted instance reloads this
        // blob (same platform seal key, same measurement) and the
        // deployment keeps serving without re-attestation.
        supervisor.seal_state(format!("ironsafe-deployment/{}", self.region).as_bytes(), &mut rng);

        let _ = host_cert;
        Ok(Deployment { group, monitor, system, supervisor, clock: 0 })
    }
}

/// A fully attested IronSafe deployment.
pub struct Deployment {
    group: Group,
    monitor: TrustedMonitor,
    system: CsaSystem,
    /// The supervised host enclave: crash → restart + sealed-state
    /// reload, EPC pressure → bounded retry.
    supervisor: EnclaveSupervisor,
    clock: i64,
}

impl Deployment {
    /// Start building a deployment.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// The trusted monitor (regulator interface, attestation state).
    pub fn monitor(&self) -> &TrustedMonitor {
        &self.monitor
    }

    /// The CSA system (cost model, counters).
    pub fn system(&self) -> &CsaSystem {
        &self.system
    }

    /// Mutable CSA system access (benchmark harnesses).
    pub fn system_mut(&mut self) -> &mut CsaSystem {
        &mut self.system
    }

    /// The supervised host enclave (restart counter, sealed state).
    pub fn supervisor(&self) -> &EnclaveSupervisor {
        &self.supervisor
    }

    /// Register a database and its owner access policy with the monitor.
    ///
    /// Panics on unparsable policy text — policies are deployment inputs,
    /// not runtime data.
    pub fn create_database(&mut self, name: &str, access_policy: &str) {
        let policy = parse_policy(access_policy).expect("valid access policy");
        self.monitor.register_database(name, policy);
    }

    /// Bind a client identity to its reuse-bitmap bit.
    pub fn register_service_bit(&mut self, client: &Client, bit: u32) {
        self.monitor.register_service_bit(&client.key, bit);
    }

    /// Advance the logical clock (the `T` of `le(T, TIMESTAMP)`).
    pub fn set_time(&mut self, t: i64) {
        self.clock = t;
    }

    /// Current logical time.
    pub fn time(&self) -> i64 {
        self.clock
    }

    /// The paper's step 1–5 workflow: submit a query with an execution
    /// policy, get results plus a proof of compliance.
    pub fn submit(
        &mut self,
        client: &Client,
        database: &str,
        sql: &str,
        exec_policy: &str,
    ) -> Result<Response> {
        let request = QueryRequest {
            client_key: client.key.clone(),
            database: database.to_string(),
            sql: sql.to_string(),
            exec_policy: exec_policy.to_string(),
            access_time: self.clock,
        };
        let auth = self.monitor.authorize(&request)?;
        // The host engine runs inside the supervised enclave: entry is
        // where injected crashes and EPC pressure surface, and where
        // the supervisor transparently restarts (reloading its sealed
        // state) or retries before the query executes.
        self.supervisor.enter()?;
        self.system.set_session_key(auth.session_key);
        let report = match self.system.run_statement(&auth.statement) {
            Ok(report) => {
                self.supervisor.exit()?;
                report
            }
            Err(e) => {
                let _ = self.supervisor.exit();
                return Err(e.into());
            }
        };
        self.monitor.cleanup_session(auth.session_id)?;
        Ok(Response {
            result: report.result.clone(),
            proof: auth.proof,
            report,
            query_text: sql.to_string(),
            policy_text: exec_policy.to_string(),
        })
    }

    /// Turn this deployment into a running multi-session query server.
    ///
    /// The monitor and the CSA system move behind shared ownership: one
    /// system, one dataset, any number of concurrent sessions (see
    /// `ironsafe-serve`). The single-client [`submit`](Deployment::submit)
    /// workflow is what each admitted request runs through — policy
    /// check, rewrite, per-query session key, audit — just scheduled by
    /// the server's worker pool instead of the caller's thread.
    pub fn serve(self, config: ServeConfig) -> QueryServer {
        QueryServer::start(
            Arc::new(SharedCsaSystem::new(self.system)),
            Arc::new(parking_lot::Mutex::new(self.monitor)),
            config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> Deployment {
        let mut dep = Deployment::builder().build().unwrap();
        dep.create_database(
            "db",
            "read :- sessionKeyIs(alice) | sessionKeyIs(bob)\nwrite :- sessionKeyIs(alice)",
        );
        dep
    }

    #[test]
    fn end_to_end_insert_and_select() {
        let mut dep = deployment();
        let alice = Client::new("alice");
        dep.submit(&alice, "db", "CREATE TABLE t (a INT, b TEXT)", "").unwrap();
        dep.submit(&alice, "db", "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')", "").unwrap();
        let bob = Client::new("bob");
        let resp = dep.submit(&bob, "db", "SELECT b FROM t WHERE a >= 2 ORDER BY a", "").unwrap();
        assert_eq!(resp.result.rows().len(), 2);
        assert!(resp.verify_proof(&dep));
    }

    /// The storage pager's verified-node cache and flight ring live in
    /// the storage TEE, so the enclave budget a deployment is built with
    /// sizes them, as it does for a `CsaSystem` or a shard.
    #[test]
    fn the_storage_pager_is_sized_by_the_enclave_budget() {
        use ironsafe_faults::{FaultPlan, FaultSite};
        let build = |epc_limit_bytes| {
            let params = CostParams { epc_limit_bytes, ..CostParams::default() };
            Deployment::builder().cost_params(params).build().unwrap()
        };
        // 64 bytes an event: 8 KiB keep the last 128 failed attempts, the
        // default 96 MiB keep all of a few hundred.
        let events_kept = |dep: &Deployment| {
            let mut pager = dep.system().storage_db().pager().lock();
            pager.set_fault_plan(FaultPlan::seeded(1).with_rate(FaultSite::DeviceRead, 1.0));
            let mut page = vec![0u8; pager.payload_size()];
            let attempts = (0..300).filter(|_| pager.read_page(0, &mut page).is_err()).count();
            assert_eq!(attempts, 300);
            pager.take_flight_dump().len()
        };
        assert_eq!(events_kept(&build(8 * 1024)), 128);
        assert!(events_kept(&build(CostParams::default().epc_limit_bytes)) >= 300);

        // 16 bytes a verified node, floored at 1 024: reading back 1 500
        // pages overflows a 16 KiB budget's cache (which then evicts
        // wholesale) and not the default one.
        let evictions = |dep: &Deployment| {
            let registry = ironsafe_obs::Registry::new();
            let mut pager = dep.system().storage_db().pager().lock();
            pager.register_metrics(&registry);
            let page = vec![7u8; pager.payload_size()];
            let ids: Vec<u64> = (0..1_500).map(|_| pager.allocate_page().unwrap()).collect();
            ids.iter().for_each(|id| pager.write_page(*id, &page).unwrap());
            let mut out = vec![0u8; page.len()];
            ids.iter().for_each(|id| pager.read_page(*id, &mut out).unwrap());
            registry.snapshot().counter("storage.merkle.cache.evict").unwrap()
        };
        assert!(evictions(&build(16 * 1024)) > 0);
        assert_eq!(evictions(&build(CostParams::default().epc_limit_bytes)), 0);
    }

    #[test]
    fn writes_denied_for_readers() {
        let mut dep = deployment();
        let alice = Client::new("alice");
        dep.submit(&alice, "db", "CREATE TABLE t (a INT)", "").unwrap();
        let bob = Client::new("bob");
        assert!(dep.submit(&bob, "db", "INSERT INTO t VALUES (1)", "").is_err());
        assert!(dep.submit(&Client::new("mallory"), "db", "SELECT a FROM t", "").is_err());
    }

    #[test]
    fn audit_log_records_the_workflow() {
        let mut dep = deployment();
        let alice = Client::new("alice");
        dep.submit(&alice, "db", "CREATE TABLE t (a INT)", "").unwrap();
        let _ = dep.submit(&Client::new("mallory"), "db", "SELECT a FROM t", "");
        let audit = dep.monitor().audit();
        assert!(audit.verify());
        assert!(audit.entries().iter().any(|e| e.message.contains("host attested")));
        assert!(audit.entries().iter().any(|e| e.message.contains("storage attested")));
        assert!(audit.entries().iter().any(|e| e.message.starts_with("GRANT")));
        assert!(audit.entries().iter().any(|e| e.message.starts_with("DENY")));
    }

    #[test]
    fn deployment_serves_concurrent_clients() {
        let mut dep = deployment();
        let alice = Client::new("alice");
        dep.submit(&alice, "db", "CREATE TABLE t (a INT, b TEXT)", "").unwrap();
        dep.submit(&alice, "db", "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')", "").unwrap();

        let server = dep.serve(ServeConfig::default());
        let a = server.open_session("alice", "db");
        let b = server.open_session("bob", "db");
        let tickets: Vec<_> = (0..4)
            .flat_map(|_| {
                [
                    server
                        .submit(a.id, ironsafe_serve::Job::Sql("SELECT a FROM t WHERE a >= 2".into()))
                        .unwrap(),
                    server
                        .submit(b.id, ironsafe_serve::Job::Sql("SELECT b FROM t ORDER BY a".into()))
                        .unwrap(),
                ]
            })
            .collect();
        for t in tickets {
            let resp = t.wait();
            let report = resp.outcome.expect("served query succeeds");
            assert!(!report.result.rows().is_empty());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.admitted.get(), 8);
        assert_eq!(metrics.completed.get(), 8);
    }

    #[test]
    fn injected_enclave_crash_is_recovered_by_the_supervisor() {
        use ironsafe_faults::{FaultPlan, FaultSite};

        // The third enclave entry crashes; the supervisor restarts the
        // enclave, reloads its sealed deployment state and the query
        // stream continues uninterrupted.
        let mut dep = Deployment::builder()
            .fault_plan(FaultPlan::seeded(11).with_nth(FaultSite::EnclaveCrash, 3))
            .build()
            .unwrap();
        dep.create_database("db", "read :- sessionKeyIs(alice)\nwrite :- sessionKeyIs(alice)");
        let alice = Client::new("alice");
        dep.submit(&alice, "db", "CREATE TABLE t (a INT)", "").unwrap();
        dep.submit(&alice, "db", "INSERT INTO t VALUES (1), (2)", "").unwrap();
        let resp = dep.submit(&alice, "db", "SELECT a FROM t ORDER BY a", "").unwrap();
        assert_eq!(resp.result.rows().len(), 2);
        assert!(resp.verify_proof(&dep));
        assert!(dep.supervisor().restarts() >= 1, "the crash must have forced a restart");
        assert_eq!(
            dep.supervisor().state(),
            Some(&b"ironsafe-deployment/EU"[..]),
            "sealed state survives the restart"
        );
    }

    #[test]
    fn exec_policy_is_enforced() {
        let mut dep = deployment();
        let alice = Client::new("alice");
        dep.submit(&alice, "db", "CREATE TABLE t (a INT)", "").unwrap();
        // EU deployment satisfies an EU policy, not a US one.
        assert!(dep.submit(&alice, "db", "SELECT a FROM t", "exec :- hostLocIs(EU)").is_ok());
        assert!(dep.submit(&alice, "db", "SELECT a FROM t", "exec :- hostLocIs(US)").is_err());
    }
}
