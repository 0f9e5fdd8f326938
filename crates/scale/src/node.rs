//! One simulated storage node: its own pager stack, trust root and
//! fault plan.
//!
//! Every node in the federation gets its pager where a single-node
//! [`CsaSystem`](ironsafe_csa::CsaSystem) gets its storage side's
//! ([`storage_pager`]) — secure configurations on a fresh TrustZone
//! device from a per-federation manufacturer (own HUK, own RPMB, own
//! device certificate) with its own Merkle tree; the non-secure
//! baselines on a plain pager. A node's attestation
//! record is the verification of its device certificate against the
//! manufacturer root, checked at build time and re-checked before a
//! replica is promoted.

use crate::Result;
use ironsafe_crypto::group::Group;
use ironsafe_csa::{storage_pager, CostParams};
use ironsafe_faults::FaultPlan;
use ironsafe_sql::db::Database;
use ironsafe_sql::schema::Schema;
use ironsafe_sql::value::Value;
use ironsafe_sql::EncodedRows;
use ironsafe_storage::pager::PagerStats;
use ironsafe_storage::SecurePager;
use ironsafe_tee::trustzone::Manufacturer;
use parking_lot::Mutex;
use rand::SeedableRng;
use std::sync::Arc;

/// Outcome of verifying a node's device certificate against the
/// federation's pinned manufacturer root.
#[derive(Debug, Clone)]
pub struct AttestationRecord {
    /// The attested device identity.
    pub device_id: String,
    /// Whether the certificate chain verified.
    pub verified: bool,
}

/// One storage node holding one shard's partition (primary or replica).
pub struct ShardNode {
    /// Node identity (also the TrustZone device id).
    pub id: String,
    /// Shard this node serves.
    pub shard: usize,
    /// Position in the shard's failover chain (0 = primary).
    pub replica: usize,
    db: Mutex<Database>,
    /// The node's pager as a [`SecurePager`] (`None` on a plain node).
    secure: Option<Arc<Mutex<SecurePager>>>,
    attestation: Mutex<AttestationRecord>,
    /// Expected row count per table, pinned at load time — what a
    /// promoted replica is re-verified against.
    pub row_counts: Vec<(String, u64)>,
}

impl ShardNode {
    /// Build and load a node. `tables` holds the shard's gid-augmented
    /// partition of every table, in load order, already encoded — every
    /// replica of a shard appends the same records.
    pub fn build(
        shard: usize,
        replica: usize,
        secure: bool,
        params: &CostParams,
        tables: &[(String, Schema, EncodedRows)],
    ) -> Result<ShardNode> {
        let id = format!("shard{shard}-node{replica}");
        let seed = 0x5CA1_E000u64 + (shard as u64) * 64 + replica as u64;
        let mut attestation = AttestationRecord { device_id: id.clone(), verified: true };
        let medium = secure.then(|| {
            let group = Group::modp_1024();
            let mfr = Manufacturer::from_seed(&group, b"ironsafe-scale-vendor");
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let device = mfr.make_device(&id, 8, &mut rng);
            attestation.device_id = device.device_id.clone();
            attestation.verified = device.device_cert.verify(&group, &mfr.root_public()).is_ok();
            (device, seed)
        });
        let (pager, secure) = storage_pager(medium, params.epc_limit_bytes)?;
        let mut db = Database::with_shared(pager);
        let mut row_counts = Vec::with_capacity(tables.len());
        for (name, schema, rows) in tables {
            db.create_table(name, schema.clone())?;
            db.insert_encoded(name, rows.as_slice())?;
            row_counts.push((name.clone(), rows.len() as u64));
        }
        db.reset_pager_stats();
        Ok(ShardNode {
            id,
            shard,
            replica,
            db: Mutex::new(db),
            secure,
            attestation: Mutex::new(attestation),
            row_counts,
        })
    }

    /// Run `f` against the node's database.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.lock())
    }

    /// Current pager counters.
    pub fn stats(&self) -> PagerStats {
        self.db.lock().pager_stats()
    }

    /// Whether the node's device certificate verified against the
    /// manufacturer root.
    pub fn attested(&self) -> bool {
        self.attestation.lock().verified
    }

    /// A copy of the attestation record.
    pub fn attestation(&self) -> AttestationRecord {
        self.attestation.lock().clone()
    }

    /// Mark the node's attestation as failed (test hook: simulates a
    /// device whose certificate no longer verifies).
    pub fn poison_attestation(&self) {
        self.attestation.lock().verified = false;
    }

    /// Install a fault plan on the node's pager (device, page-integrity
    /// and freshness fault sites).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        if let Some(pager) = &self.secure {
            pager.lock().set_fault_plan(plan);
        }
    }

    /// Drain the node's TEE-resident flight recorder.
    pub fn take_flight_dump(&self) -> Vec<String> {
        self.secure.as_ref().map_or_else(Vec::new, |pager| pager.lock().take_flight_dump())
    }

    /// Re-verify the node's partition by scanning every table through
    /// its (secure) read path and comparing row counts against the
    /// pinned load-time counts. Returns the pages read doing so, or the
    /// failure reason.
    pub fn reverify(&self) -> std::result::Result<u64, String> {
        let mut db = self.db.lock();
        let before = db.pager_stats();
        for (table, expected) in &self.row_counts {
            let result = db
                .execute(&format!("SELECT COUNT(*) FROM {table}"))
                .map_err(|e| format!("re-verification scan of {table} failed: {e}"))?;
            let got = match result.rows().first().and_then(|r| r.first()) {
                Some(Value::Int(n)) => *n as u64,
                other => return Err(format!("re-verification of {table}: bad count {other:?}")),
            };
            if got != *expected {
                return Err(format!(
                    "re-verification of {table}: {got} rows, expected {expected}"
                ));
            }
        }
        Ok(db.pager_stats().page_reads - before.page_reads)
    }
}
