//! The trusted monitor proper.

use crate::audit::AuditLog;
use crate::proof::ProofOfCompliance;
use crate::{MonitorError, Result};
use ironsafe_crypto::cert::{Certificate, SubjectInfo};
use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::{KeyPair, PublicKey};
use ironsafe_obs::{Counter, Registry, Span};
use ironsafe_policy::eval::{evaluate, EvalContext, Obligation};
use ironsafe_policy::rewrite::{rewrite_statement, RewriteContext};
use ironsafe_policy::{parse_policy, Perm, PolicySet};
use ironsafe_sql::ast::Statement;
use ironsafe_tee::image::Measurement;
use ironsafe_tee::sgx::{AttestationService, Quote};
use ironsafe_tee::trustzone::ta::verify_attestation;
use ironsafe_tee::trustzone::AttestationResponse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// What the monitor pins as the trusted software stack.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Expected MRENCLAVE of the host engine.
    pub expected_host_measurement: Measurement,
    /// Expected normal-world measurement of the storage system.
    pub expected_nw_measurement: Measurement,
    /// Highest firmware version known (resolves `fwVersion...(latest)`).
    pub latest_fw: u32,
}

/// An attested node.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Node identifier.
    pub id: String,
    /// Deployment region (e.g. `"EU"`).
    pub location: String,
    /// Attested firmware version.
    pub fw_version: u32,
    /// Attested measurement.
    pub measurement: Measurement,
}

/// Where the query may run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Split execution between an attested host and storage node.
    HostAndStorage {
        /// Host node id.
        host: String,
        /// Storage node id.
        storage: String,
    },
    /// Host-only (no storage node satisfied the execution policy).
    HostOnly {
        /// Host node id.
        host: String,
    },
}

/// A granted query authorization.
#[derive(Debug, Clone)]
pub struct Authorization {
    /// The policy-rewritten statement the engines must execute.
    pub statement: Statement,
    /// Compliant node placement.
    pub placement: Placement,
    /// Session identifier (for cleanup/revocation).
    pub session_id: u64,
    /// Session key for the host↔storage secure channel.
    pub session_key: [u8; 32],
    /// Signed proof of compliance for the client.
    pub proof: ProofOfCompliance,
    /// Obligations that were discharged (informational).
    pub obligations: Vec<Obligation>,
}

/// A client query request, as forwarded by the host (Figure 5).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Client identity key.
    pub client_key: String,
    /// Target database (selects the owner's access policy).
    pub database: String,
    /// The SQL text.
    pub sql: String,
    /// The client's execution policy (may be empty).
    pub exec_policy: String,
    /// Logical access time `T`.
    pub access_time: i64,
}

/// Lifecycle state of a monitor session (open → active use →
/// revoked/expired). Closed sessions are kept until `cleanup_session`
/// so refusals can name the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Usable: queries under this session are admitted.
    Active,
    /// Administratively revoked; every further use is refused.
    Revoked,
    /// Idle-timeout fired; every further use is refused.
    Expired,
}

struct Session {
    #[allow(dead_code)]
    key: [u8; 32],
    client: String,
    state: SessionState,
    last_used: i64,
}

/// The trusted monitor service.
pub struct TrustedMonitor {
    group: Group,
    keys: KeyPair,
    ias: AttestationService,
    tz_root: PublicKey,
    config: MonitorConfig,
    hosts: Vec<NodeInfo>,
    storages: Vec<NodeInfo>,
    policies: HashMap<String, PolicySet>,
    service_bits: HashMap<String, u32>,
    pending_challenges: Vec<[u8; 32]>,
    sessions: HashMap<u64, Session>,
    next_session: u64,
    audit: AuditLog,
    rng: StdRng,
    grants: Counter,
    denies: Counter,
}

impl TrustedMonitor {
    /// Boot a monitor with its trust anchors.
    pub fn new(
        group: &Group,
        seed: u64,
        ias: AttestationService,
        tz_root: PublicKey,
        config: MonitorConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(group, &mut rng);
        TrustedMonitor {
            group: group.clone(),
            keys,
            ias,
            tz_root,
            config,
            hosts: Vec::new(),
            storages: Vec::new(),
            policies: HashMap::new(),
            service_bits: HashMap::new(),
            pending_challenges: Vec::new(),
            sessions: HashMap::new(),
            next_session: 1,
            audit: AuditLog::new(),
            rng,
            grants: Counter::new(),
            denies: Counter::new(),
        }
    }

    /// Attach the monitor's decision counters to `registry` as
    /// `monitor.query.grant` / `monitor.query.deny`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("monitor.query.grant", &self.grants);
        registry.register_counter("monitor.query.deny", &self.denies);
    }

    /// The monitor's public key (what clients and regulators pin).
    pub fn public_key(&self) -> PublicKey {
        self.keys.public.clone()
    }

    /// Figure 4a: verify a host quote and certify its session public key.
    ///
    /// The quote's report data must commit to `host_session_key`
    /// (hash of its serialized form), binding the certified key to the
    /// attested enclave.
    pub fn attest_host(
        &mut self,
        id: &str,
        location: &str,
        quote: &Quote,
        host_session_key: &PublicKey,
    ) -> Result<Certificate> {
        // Wall-time span feeding the Table 4 attestation-phase timings.
        let _span = Span::enter("monitor/attest_host");
        let verification = self
            .ias
            .verify_quote(quote)
            .map_err(|e| MonitorError::Attestation(format!("host quote: {e}")))?;
        if verification.measurement != self.config.expected_host_measurement {
            self.audit.append(0, "monitor", id, "host attestation REJECTED: unexpected measurement");
            return Err(MonitorError::Attestation("host measurement not trusted".into()));
        }
        let commitment =
            ironsafe_crypto::sha256::sha256(&host_session_key.to_bytes(&self.group));
        if quote.report_data != commitment {
            self.audit.append(0, "monitor", id, "host attestation REJECTED: key commitment mismatch");
            return Err(MonitorError::Attestation("report data does not commit to session key".into()));
        }
        self.hosts.retain(|h| h.id != id);
        self.hosts.push(NodeInfo {
            id: id.to_string(),
            location: location.to_string(),
            fw_version: verification.fw_version,
            measurement: verification.measurement,
        });
        self.audit.append(0, "monitor", id, "host attested");
        Ok(Certificate::issue(
            &self.group,
            &self.keys.secret,
            SubjectInfo {
                name: id.to_string(),
                role: "host-engine".to_string(),
                fw_version: verification.fw_version,
                measurement: verification.measurement.as_bytes().to_vec(),
            },
            host_session_key.clone(),
            &mut self.rng,
        ))
    }

    /// Figure 4b step 1: create a fresh challenge for a storage node.
    pub fn storage_challenge(&mut self) -> [u8; 32] {
        let _span = Span::enter("monitor/storage_challenge");
        let mut c = [0u8; 32];
        self.rng.fill(&mut c);
        self.pending_challenges.push(c);
        c
    }

    /// Figure 4b steps 2–4: verify the storage node's response.
    pub fn attest_storage(
        &mut self,
        id: &str,
        location: &str,
        response: &AttestationResponse,
    ) -> Result<()> {
        let _span = Span::enter("monitor/attest_storage");
        let pos = self
            .pending_challenges
            .iter()
            .position(|c| *c == response.challenge)
            .ok_or_else(|| MonitorError::Attestation("unknown or replayed challenge".into()))?;
        self.pending_challenges.remove(pos);
        let (measurement, fw) =
            verify_attestation(&self.group, &self.tz_root, &response.challenge, response)
                .map_err(|e| MonitorError::Attestation(format!("storage: {e}")))?;
        if measurement != self.config.expected_nw_measurement {
            self.audit.append(0, "monitor", id, "storage attestation REJECTED: untrusted normal world");
            return Err(MonitorError::Attestation("storage normal world not trusted".into()));
        }
        self.storages.retain(|s| s.id != id);
        self.storages.push(NodeInfo {
            id: id.to_string(),
            location: location.to_string(),
            fw_version: fw,
            measurement,
        });
        self.audit.append(0, "monitor", id, "storage attested");
        Ok(())
    }

    /// Attested nodes (hosts, storages).
    pub fn attested_nodes(&self) -> (&[NodeInfo], &[NodeInfo]) {
        (&self.hosts, &self.storages)
    }

    /// Install (or replace) the owner's access policy for a database.
    pub fn register_database(&mut self, database: &str, access_policy: PolicySet) {
        self.policies.insert(database.to_string(), access_policy);
    }

    /// Bind a client identity to its bit in reuse bitmaps.
    pub fn register_service_bit(&mut self, client_key: &str, bit: u32) {
        self.service_bits.insert(client_key.to_string(), bit);
    }

    fn eval_context(&self, client: &str, host: &NodeInfo, storage: Option<&NodeInfo>) -> EvalContext {
        EvalContext {
            session_key: client.to_string(),
            host_loc: host.location.clone(),
            storage_loc: storage.map(|s| s.location.clone()),
            fw_host: host.fw_version,
            fw_storage: storage.map(|s| s.fw_version),
            latest_fw: self.config.latest_fw,
        }
    }

    /// Record a refused request in the audit trail and count it.
    fn refuse(&self, req: &QueryRequest, message: &str) {
        self.audit.append(req.access_time, "monitor", &req.client_key, message);
        self.denies.inc();
    }

    /// Figure 5: authorize (and rewrite) a client query.
    pub fn authorize(&mut self, req: &QueryRequest) -> Result<Authorization> {
        let _span = Span::enter("monitor/authorize");
        let mut statement = match ironsafe_sql::parser::parse_statement(&req.sql) {
            Ok(s) => s,
            Err(e) => {
                // Crafted/malformed queries are recorded before rejection.
                self.refuse(req, &format!("REJECTED malformed query: {}", req.sql));
                return Err(MonitorError::Sql(e));
            }
        };
        let exec_policy = parse_policy(&req.exec_policy)?;

        // 1. Find a compliant placement: prefer host+storage, fall back to
        //    host-only when no storage node satisfies the exec policy.
        let mut placement: Option<(usize, Option<usize>)> = None;
        'outer: for (hi, host) in self.hosts.iter().enumerate() {
            for (si, storage) in self.storages.iter().enumerate() {
                let ctx = self.eval_context(&req.client_key, host, Some(storage));
                if !exec_policy.mentions(Perm::Exec)
                    || evaluate(&exec_policy, Perm::Exec, &ctx).allowed
                {
                    placement = Some((hi, Some(si)));
                    break 'outer;
                }
            }
        }
        if placement.is_none() {
            for (hi, host) in self.hosts.iter().enumerate() {
                let ctx = self.eval_context(&req.client_key, host, None);
                if !exec_policy.mentions(Perm::Exec)
                    || evaluate(&exec_policy, Perm::Exec, &ctx).allowed
                {
                    placement = Some((hi, None));
                    break;
                }
            }
        }
        let (hi, si) = placement.ok_or_else(|| {
            self.refuse(req, "DENY: no attested node satisfies the execution policy");
            MonitorError::PolicyViolation("no compliant execution environment".into())
        })?;
        let host = self.hosts[hi].clone();
        let storage = si.map(|i| self.storages[i].clone());

        // 2. Owner access policy.
        let access_policy = self
            .policies
            .get(&req.database)
            .ok_or_else(|| MonitorError::Unknown(format!("database `{}`", req.database)))?
            .clone();
        let perm = match &statement {
            Statement::Select(_) => Perm::Read,
            _ => Perm::Write,
        };
        let ctx = self.eval_context(&req.client_key, &host, storage.as_ref());
        let decision = evaluate(&access_policy, perm, &ctx);
        if !decision.allowed {
            self.refuse(req, &format!("DENY {perm}: {}", req.sql));
            return Err(MonitorError::PolicyViolation(format!(
                "client `{}` lacks {perm} permission on `{}`",
                req.client_key, req.database
            )));
        }

        // 3. Rewrite the query to discharge data obligations. A reuse
        //    filter admits the rows that opted in to the client's own
        //    service bit: a client without one fails closed.
        let service_bit = self.service_bits.get(&req.client_key).copied();
        if service_bit.is_none() && decision.obligations.contains(&Obligation::ReuseFilter) {
            self.refuse(req, &format!("DENY {perm}: no service bit registered: {}", req.sql));
            return Err(MonitorError::PolicyViolation(format!(
                "client `{}` has no service bit for the reuse filter on `{}`",
                req.client_key, req.database
            )));
        }
        let service_bit = service_bit.unwrap_or(0);
        let rw_ctx = RewriteContext { access_time: req.access_time, service_bit };
        rewrite_statement(&mut statement, &decision.obligations, &rw_ctx, 365, 0)?;

        // 4. Discharge log obligations.
        for ob in &decision.obligations {
            if let Obligation::Log { log } = ob {
                self.audit.append(req.access_time, log, &req.client_key, &req.sql);
            }
        }
        self.audit.append(
            req.access_time,
            "monitor",
            &req.client_key,
            &format!("GRANT {perm}: {}", req.sql),
        );
        self.grants.inc();

        // 5. Session key management.
        let mut session_key = [0u8; 32];
        self.rng.fill(&mut session_key);
        let session_id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            session_id,
            Session {
                key: session_key,
                client: req.client_key.clone(),
                state: SessionState::Active,
                last_used: req.access_time,
            },
        );

        // 6. Proof of compliance.
        let storage_id = storage.as_ref().map(|s| s.id.clone()).unwrap_or_default();
        let proof = ProofOfCompliance::issue(
            &self.keys.secret,
            &req.sql,
            &req.exec_policy,
            &host.id,
            &storage_id,
            req.access_time,
            self.audit.head(),
            &mut self.rng,
        );

        let placement = match storage {
            Some(s) => Placement::HostAndStorage { host: host.id, storage: s.id },
            None => Placement::HostOnly { host: host.id },
        };
        Ok(Authorization {
            statement,
            placement,
            session_id,
            session_key,
            proof,
            obligations: decision.obligations,
        })
    }

    /// Open a long-lived serving session for `client`, returning the
    /// session id and its channel key. Unlike the per-query sessions
    /// minted inside [`authorize`](TrustedMonitor::authorize), these are
    /// the front-door sessions the serving layer tracks across many
    /// queries; they stay usable until revoked or idle-expired.
    pub fn open_session(&mut self, client: &str, now: i64) -> (u64, [u8; 32]) {
        let mut key = [0u8; 32];
        self.rng.fill(&mut key);
        let session_id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            session_id,
            Session {
                key,
                client: client.to_string(),
                state: SessionState::Active,
                last_used: now,
            },
        );
        self.audit.append(now, "monitor", client, &format!("session {session_id} opened"));
        (session_id, key)
    }

    /// Record use of a session at logical time `now`, refusing closed
    /// sessions. The serving layer calls this before every query so a
    /// revoked or idle-expired session yields a clean per-request error.
    pub fn touch_session(&mut self, session_id: u64, now: i64) -> Result<()> {
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or_else(|| MonitorError::Unknown(format!("session {session_id}")))?;
        match session.state {
            SessionState::Active => {
                session.last_used = now;
                Ok(())
            }
            SessionState::Revoked => Err(MonitorError::SessionClosed { session_id, reason: "revoked" }),
            SessionState::Expired => Err(MonitorError::SessionClosed { session_id, reason: "expired" }),
        }
    }

    /// Administratively revoke a session (key compromise, policy change).
    /// Later uses are refused with [`MonitorError::SessionClosed`].
    pub fn revoke_session(&mut self, session_id: u64, now: i64) -> Result<()> {
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or_else(|| MonitorError::Unknown(format!("session {session_id}")))?;
        session.state = SessionState::Revoked;
        let client = session.client.clone();
        self.audit.append(now, "monitor", &client, &format!("session {session_id} revoked"));
        Ok(())
    }

    /// Expire every active session idle for at least `idle_timeout`
    /// logical ticks; returns the expired ids. The serving layer runs
    /// this as its idle-timeout sweep.
    pub fn expire_idle_sessions(&mut self, now: i64, idle_timeout: i64) -> Vec<u64> {
        let mut expired = Vec::new();
        for (id, session) in self.sessions.iter_mut() {
            if session.state == SessionState::Active && now - session.last_used >= idle_timeout {
                session.state = SessionState::Expired;
                expired.push(*id);
            }
        }
        expired.sort_unstable();
        for id in &expired {
            let client = self.sessions[id].client.clone();
            self.audit.append(now, "monitor", &client, &format!("session {id} expired (idle)"));
        }
        expired
    }

    /// Revoke a session's key and log the cleanup (the paper's session
    /// cleanup protocol deletes host/storage temporaries).
    pub fn cleanup_session(&mut self, session_id: u64) -> Result<()> {
        let session = self
            .sessions
            .remove(&session_id)
            .ok_or_else(|| MonitorError::Unknown(format!("session {session_id}")))?;
        self.audit.append(0, "monitor", &session.client, &format!("session {session_id} cleaned up"));
        Ok(())
    }

    /// Is the session present and active (not revoked/expired)?
    pub fn session_active(&self, session_id: u64) -> bool {
        matches!(self.sessions.get(&session_id), Some(s) if s.state == SessionState::Active)
    }

    /// The session's lifecycle state, if it exists.
    pub fn session_state(&self, session_id: u64) -> Option<SessionState> {
        self.sessions.get(&session_id).map(|s| s.state)
    }

    /// The audit log (regulator interface).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_tee::image::SoftwareImage;
    use ironsafe_tee::sgx::{EnclaveConfig, SgxPlatform};
    use ironsafe_tee::trustzone::{
        AttestationTa, BootImages, Manufacturer, SecureBoot, SignedImage,
    };

    struct Fixture {
        monitor: TrustedMonitor,
        platform: SgxPlatform,
        enclave: ironsafe_tee::sgx::Enclave,
        host_keys: KeyPair,
        booted: ironsafe_tee::trustzone::BootedSystem,
        rng: StdRng,
        group: Group,
    }

    fn fixture() -> Fixture {
        let group = Group::modp_1024();
        let mut rng = StdRng::seed_from_u64(31);

        // Host side.
        let platform = SgxPlatform::from_seed(&group, b"host-platform");
        let host_image = SoftwareImage::new("host-engine", 5, b"engine".to_vec());
        let enclave = platform.create_enclave(&host_image, EnclaveConfig::default());
        let mut ias = AttestationService::new(&group);
        ias.register_platform(&platform);

        // Storage side.
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let device = mfr.make_device("storage-0", 8, &mut rng);
        let vendor = KeyPair::derive(&group, b"acme", b"tz-manufacturer-root");
        let images = BootImages {
            trusted_firmware: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("atf", 2, b"atf".to_vec()), &mut rng),
            trusted_os: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("optee", 34, b"optee".to_vec()), &mut rng),
            normal_world: SoftwareImage::new("nw", 3, b"kernel+engine".to_vec()),
        };
        let booted = SecureBoot::boot(&device, &mfr.root_public(), &images, &mut rng).unwrap();

        let config = MonitorConfig {
            expected_host_measurement: host_image.measure(),
            expected_nw_measurement: booted.nw_measurement,
            latest_fw: 5,
        };
        let monitor = TrustedMonitor::new(&group, 77, ias, mfr.root_public(), config);
        let host_keys = KeyPair::generate(&group, &mut rng);
        Fixture { monitor, platform, enclave, host_keys, booted, rng, group }
    }

    fn attest_both(f: &mut Fixture) {
        let commitment = ironsafe_crypto::sha256::sha256(&f.host_keys.public.to_bytes(&f.group));
        let quote = Quote::generate(&f.platform, &f.enclave, &commitment, &mut f.rng);
        f.monitor.attest_host("host-0", "EU", &quote, &f.host_keys.public).unwrap();
        let challenge = f.monitor.storage_challenge();
        let resp = AttestationTa::new(&f.booted).respond(challenge, &mut f.rng);
        f.monitor.attest_storage("storage-0", "EU", &resp).unwrap();
    }

    fn basic_policy() -> PolicySet {
        parse_policy("read :- sessionKeyIs(Ka) | sessionKeyIs(Kb)\nwrite :- sessionKeyIs(Ka)").unwrap()
    }

    fn request(client: &str, sql: &str, exec: &str) -> QueryRequest {
        QueryRequest {
            client_key: client.into(),
            database: "db".into(),
            sql: sql.into(),
            exec_policy: exec.into(),
            access_time: 100,
        }
    }

    #[test]
    fn full_attestation_and_grant_flow() {
        let mut f = fixture();
        attest_both(&mut f);
        f.monitor.register_database("db", basic_policy());
        let auth = f.monitor.authorize(&request("Ka", "SELECT 1", "")).unwrap();
        assert_eq!(
            auth.placement,
            Placement::HostAndStorage { host: "host-0".into(), storage: "storage-0".into() }
        );
        assert!(auth.proof.verify(&f.group, &f.monitor.public_key(), "SELECT 1", ""));
        assert!(f.monitor.session_active(auth.session_id));
        f.monitor.cleanup_session(auth.session_id).unwrap();
        assert!(!f.monitor.session_active(auth.session_id));
        assert!(f.monitor.audit().verify());
    }

    #[test]
    fn host_certificate_chains_to_monitor() {
        let mut f = fixture();
        let commitment = ironsafe_crypto::sha256::sha256(&f.host_keys.public.to_bytes(&f.group));
        let quote = Quote::generate(&f.platform, &f.enclave, &commitment, &mut f.rng);
        let cert = f.monitor.attest_host("host-0", "EU", &quote, &f.host_keys.public).unwrap();
        assert!(cert.verify(&f.group, &f.monitor.public_key()).is_ok());
        assert_eq!(cert.subject.role, "host-engine");
    }

    #[test]
    fn wrong_key_commitment_rejected() {
        let mut f = fixture();
        let quote = Quote::generate(&f.platform, &f.enclave, b"not-a-commitment", &mut f.rng);
        assert!(matches!(
            f.monitor.attest_host("host-0", "EU", &quote, &f.host_keys.public),
            Err(MonitorError::Attestation(_))
        ));
    }

    #[test]
    fn tampered_host_engine_rejected() {
        let mut f = fixture();
        let evil = f.platform.create_enclave(
            &SoftwareImage::new("host-engine", 5, b"backdoored".to_vec()),
            EnclaveConfig::default(),
        );
        let commitment = ironsafe_crypto::sha256::sha256(&f.host_keys.public.to_bytes(&f.group));
        let quote = Quote::generate(&f.platform, &evil, &commitment, &mut f.rng);
        assert!(f.monitor.attest_host("host-0", "EU", &quote, &f.host_keys.public).is_err());
    }

    #[test]
    fn replayed_storage_challenge_rejected() {
        let mut f = fixture();
        let challenge = f.monitor.storage_challenge();
        let resp = AttestationTa::new(&f.booted).respond(challenge, &mut f.rng);
        f.monitor.attest_storage("storage-0", "EU", &resp).unwrap();
        // Replay of the same response: the challenge was consumed.
        assert!(matches!(
            f.monitor.attest_storage("storage-0", "EU", &resp),
            Err(MonitorError::Attestation(_))
        ));
    }

    #[test]
    fn access_policy_enforced_per_permission() {
        let mut f = fixture();
        attest_both(&mut f);
        f.monitor.register_database("db", basic_policy());
        // Kb can read but not write.
        assert!(f.monitor.authorize(&request("Kb", "SELECT 1", "")).is_ok());
        assert!(matches!(
            f.monitor.authorize(&request("Kb", "DELETE FROM t", "")),
            Err(MonitorError::PolicyViolation(_))
        ));
        // Unknown client denied everything, and the denial is logged.
        assert!(f.monitor.authorize(&request("Kz", "SELECT 1", "")).is_err());
        let denies = f
            .monitor
            .audit()
            .entries()
            .into_iter()
            .filter(|e| e.message.starts_with("DENY"))
            .count();
        assert_eq!(denies, 2);
    }

    #[test]
    fn exec_policy_forces_host_only_fallback() {
        let mut f = fixture();
        attest_both(&mut f);
        f.monitor.register_database("db", basic_policy());
        // Storage is in EU; the client demands US storage. No storage node
        // complies, so the monitor falls back to host-only execution.
        let auth = f
            .monitor
            .authorize(&request("Ka", "SELECT 1", "exec :- storageLocIs(US) & hostLocIs(EU)"))
            .unwrap();
        assert_eq!(auth.placement, Placement::HostOnly { host: "host-0".into() });
    }

    #[test]
    fn exec_policy_unsatisfiable_rejected() {
        let mut f = fixture();
        attest_both(&mut f);
        f.monitor.register_database("db", basic_policy());
        assert!(matches!(
            f.monitor.authorize(&request("Ka", "SELECT 1", "exec :- hostLocIs(MARS)")),
            Err(MonitorError::PolicyViolation(_))
        ));
    }

    #[test]
    fn expiry_obligation_rewrites_query() {
        let mut f = fixture();
        attest_both(&mut f);
        let policy = parse_policy("read :- sessionKeyIs(Kb) & le(T, TIMESTAMP)").unwrap();
        f.monitor.register_database("db", policy);
        let auth = f.monitor.authorize(&request("Kb", "SELECT p_name FROM people", "")).unwrap();
        match &auth.statement {
            Statement::Select(sel) => {
                let w = ironsafe_sql::ast::expr_to_sql(sel.where_clause.as_ref().unwrap());
                assert!(w.contains("__expiry >= 100"), "{w}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn log_obligation_lands_in_named_stream() {
        let mut f = fixture();
        attest_both(&mut f);
        let policy = parse_policy("read :- logUpdate(sharing, K, Q)").unwrap();
        f.monitor.register_database("db", policy);
        f.monitor.authorize(&request("Kb", "SELECT p_arrival FROM people", "")).unwrap();
        let shared = f.monitor.audit().stream("sharing");
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].client_key, "Kb");
        assert!(shared[0].message.contains("p_arrival"));
    }

    #[test]
    fn malformed_query_logged_and_rejected() {
        let mut f = fixture();
        attest_both(&mut f);
        f.monitor.register_database("db", basic_policy());
        let r = f.monitor.authorize(&request("Ka", "SELECT ' FROM -- injection", ""));
        assert!(r.is_err());
        assert!(f
            .monitor
            .audit()
            .entries()
            .iter()
            .any(|e| e.message.contains("REJECTED malformed")));
        assert!(f.monitor.audit().verify());
    }

    #[test]
    fn no_attested_nodes_means_no_authorization() {
        let mut f = fixture();
        f.monitor.register_database("db", basic_policy());
        assert!(f.monitor.authorize(&request("Ka", "SELECT 1", "")).is_err());
    }

    #[test]
    fn unknown_database_rejected() {
        let mut f = fixture();
        attest_both(&mut f);
        assert!(matches!(
            f.monitor.authorize(&request("Ka", "SELECT 1", "")),
            Err(MonitorError::Unknown(_))
        ));
    }

    #[test]
    fn placement_picks_the_policy_compliant_storage_node() {
        // Two storage nodes in different regions; the exec policy selects
        // the EU one even though the US one attested first.
        let mut f = fixture();
        attest_both(&mut f); // host-0 + storage-0 in EU
        // Attest a second storage node in US (same trusted stack).
        let challenge = f.monitor.storage_challenge();
        let resp = AttestationTa::new(&f.booted).respond(challenge, &mut f.rng);
        f.monitor.attest_storage("storage-us", "US", &resp).unwrap();
        f.monitor.register_database("db", basic_policy());

        let auth = f
            .monitor
            .authorize(&request("Ka", "SELECT 1", "exec :- storageLocIs(US)"))
            .unwrap();
        assert_eq!(
            auth.placement,
            Placement::HostAndStorage { host: "host-0".into(), storage: "storage-us".into() }
        );
        let auth = f
            .monitor
            .authorize(&request("Ka", "SELECT 1", "exec :- storageLocIs(EU)"))
            .unwrap();
        assert_eq!(
            auth.placement,
            Placement::HostAndStorage { host: "host-0".into(), storage: "storage-0".into() }
        );
    }

    #[test]
    fn reattestation_replaces_node_facts() {
        let mut f = fixture();
        attest_both(&mut f);
        // The same node re-attests from a new location (migration).
        let challenge = f.monitor.storage_challenge();
        let resp = AttestationTa::new(&f.booted).respond(challenge, &mut f.rng);
        f.monitor.attest_storage("storage-0", "US", &resp).unwrap();
        let (_, storages) = f.monitor.attested_nodes();
        assert_eq!(storages.len(), 1, "re-attestation replaces, not duplicates");
        assert_eq!(storages[0].location, "US");
    }

    #[test]
    fn revoked_session_refused_with_reason() {
        let mut f = fixture();
        let (id, _key) = f.monitor.open_session("Ka", 10);
        assert!(f.monitor.session_active(id));
        f.monitor.touch_session(id, 11).unwrap();
        f.monitor.revoke_session(id, 12).unwrap();
        assert!(!f.monitor.session_active(id));
        assert_eq!(f.monitor.session_state(id), Some(SessionState::Revoked));
        assert!(matches!(
            f.monitor.touch_session(id, 13),
            Err(MonitorError::SessionClosed { reason: "revoked", .. })
        ));
        assert!(f.monitor.audit().entries().iter().any(|e| e.message.contains("revoked")));
        assert!(f.monitor.audit().verify());
    }

    #[test]
    fn idle_sessions_expire_and_are_refused() {
        let mut f = fixture();
        let (idle, _) = f.monitor.open_session("Ka", 0);
        let (busy, _) = f.monitor.open_session("Kb", 0);
        f.monitor.touch_session(busy, 90).unwrap();
        let expired = f.monitor.expire_idle_sessions(100, 50);
        assert_eq!(expired, vec![idle]);
        assert_eq!(f.monitor.session_state(idle), Some(SessionState::Expired));
        assert!(f.monitor.session_active(busy));
        assert!(matches!(
            f.monitor.touch_session(idle, 101),
            Err(MonitorError::SessionClosed { reason: "expired", .. })
        ));
        // Touching keeps a session alive across later sweeps.
        f.monitor.touch_session(busy, 120).unwrap();
        assert!(f.monitor.expire_idle_sessions(140, 50).is_empty());
        assert!(f.monitor.audit().entries().iter().any(|e| e.message.contains("expired (idle)")));
    }

    #[test]
    fn unknown_session_operations_are_clean_errors() {
        let mut f = fixture();
        assert!(matches!(f.monitor.touch_session(999, 0), Err(MonitorError::Unknown(_))));
        assert!(matches!(f.monitor.revoke_session(999, 0), Err(MonitorError::Unknown(_))));
        assert_eq!(f.monitor.session_state(999), None);
    }

    #[test]
    fn session_keys_are_unique() {
        let mut f = fixture();
        attest_both(&mut f);
        f.monitor.register_database("db", basic_policy());
        let a = f.monitor.authorize(&request("Ka", "SELECT 1", "")).unwrap();
        let b = f.monitor.authorize(&request("Ka", "SELECT 1", "")).unwrap();
        assert_ne!(a.session_key, b.session_key);
        assert_ne!(a.session_id, b.session_id);
    }
}
