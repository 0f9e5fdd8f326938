//! `policy_point`: one client sends point and short-range `SELECT`s on a
//! small policy-protected table through the paper's Figure 2 path
//! ([`Deployment::submit`]): the monitor parses and evaluates the client's
//! execution policy and the owner's access policy, rewrites the query
//! (expiry and reuse filters), logs it, mints a session key and signs a
//! proof of compliance; the host enclave is entered and left; the query
//! runs split. The table is one page, so pages barely matter and
//! `monitor`, `policy` and Schnorr signing dominate.
//!
//! The issue sketched this workload on `Job::Sql` through the server, but
//! `QueryResponse` does not carry the proof; `Deployment::submit` is the
//! one public path that hands the proof to the client, and every proof is
//! verified here.

use crate::workload::{
    digest, encoded_bytes, plain_database, shuffle, time_ms, tpch_user_bytes, ExitReport, Instance,
    OpCounts, PassResult, ProbeInput, RunConfig, Workload, DATA_SEED,
};
use ironsafe::{Client, Deployment};
use ironsafe_obs::{Registry, Span};
use ironsafe_sql::{Database, Row};
use ironsafe_storage::BLOCK_SIZE;
use ironsafe_tpch::gdpr::{gen_people_with_policy, PEOPLE_DDL_POLICY};
use ironsafe_tpch::TpchData;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Owner access policy: identity check plus all three obligations
/// (expiry filter, reuse filter, sharing log).
pub const ACCESS_POLICY: &str = "read :- sessionKeyIs(Kb) & le(T, TIMESTAMP) & reuseMap(m) \
     & logUpdate(sharing, K, Q)\nwrite :- sessionKeyIs(Ka)";

/// Client execution policy, sent with every request.
pub const EXEC_POLICY: &str =
    "exec :- hostLocIs(EU) & storageLocIs(EU) & fwVersionHost(3) & fwVersionStorage(3)";

/// The consumer's bit in the reuse bitmap.
const SERVICE_BIT: u32 = 2;

/// The workload.
pub struct PolicyPoint;

struct Request {
    sql: String,
    /// The same question with the monitor's obligations written out by
    /// hand, for the plain oracle (which has no monitor).
    oracle_sql: String,
}

struct PolicyPointInstance {
    data: TpchData,
    people: Vec<Row>,
    dep: Deployment,
    consumer: Client,
    requests: Vec<Request>,
    names: Vec<String>,
    registry: Registry,
    oracle: Option<Database>,
}

impl Workload for PolicyPoint {
    fn nominal_pass_s(&self) -> f64 {
        0.16
    }

    fn setup(&self, cfg: &RunConfig) -> Box<dyn Instance> {
        let (rows, positions) = if cfg.smoke { (16, 12) } else { (32, 120) };
        let data = cfg.data();
        let people = gen_people_with_policy(rows, DATA_SEED);
        let mut dep = Deployment::builder()
            .seed(cfg.seed)
            .build()
            .expect("attestation succeeds");
        dep.create_database("gdpr", ACCESS_POLICY);
        let consumer = Client::new("Kb");
        dep.register_service_bit(&consumer, SERVICE_BIT);
        ironsafe_tpch::load_into(dep.system_mut().storage_db_mut(), &data).expect("secure load");
        dep.submit(&Client::new("Ka"), "gdpr", PEOPLE_DDL_POLICY, "")
            .expect("owner creates table");
        dep.system_mut()
            .storage_db_mut()
            .insert_rows("people", people.clone())
            .expect("people load");
        dep.system().storage_db().reset_pager_stats();
        // Expiries run 10..10+rows: at this time half the records expired.
        let now = 10 + rows as i64 / 2;
        dep.set_time(now);

        let obligations = format!(
            "__expiry >= {now} AND (__reuse / {}) % 2 = 1",
            1 << SERVICE_BIT
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x901c);
        // Every fifth request a range, whatever the seed, and the keys are
        // dealt, not drawn: the point reads go round every row equally
        // often and the ranges start at distinct rows, in seeded order. A
        // request that finds a visible row ships it, which the cost model
        // prices at 4 % of the request; with drawn keys the number of such
        // requests, and with it `sim_ms_per_op`, moved 0.3 % between seeds.
        let ranges = positions / 5;
        let mut point_keys: Vec<i64> = (0..positions - ranges).map(|i| (i % rows) as i64).collect();
        let mut range_starts: Vec<i64> = (0..rows as i64 - 7).collect();
        shuffle(&mut point_keys, &mut rng);
        shuffle(&mut range_starts, &mut rng);
        let requests: Vec<Request> = (0..positions)
            .map(|i| {
                if i % 5 != 4 {
                    let k = point_keys[i - i / 5];
                    let q =
                        format!("SELECT p_name, p_email, p_country FROM people WHERE p_id = {k}");
                    Request {
                        oracle_sql: format!("{q} AND {obligations}"),
                        sql: q,
                    }
                } else {
                    let k = range_starts[i / 5];
                    let q = format!(
                        "SELECT p_id, p_income, p_flight FROM people WHERE p_id BETWEEN {k} AND {}",
                        k + 7
                    );
                    Request {
                        oracle_sql: format!("{q} AND {obligations} ORDER BY p_id"),
                        sql: format!("{q} ORDER BY p_id"),
                    }
                }
            })
            .collect();
        let names = (0..positions)
            .map(|i| format!("policy_point/r{i}"))
            .collect();

        let registry = Registry::new();
        dep.system().storage_db().register_metrics(&registry);
        dep.monitor().register_metrics(&registry);
        dep.supervisor().register_metrics(&registry);
        dep.supervisor().enclave().register_metrics(&registry);
        Box::new(PolicyPointInstance {
            data,
            people,
            dep,
            consumer,
            requests,
            names,
            registry,
            oracle: None,
        })
    }
}

impl Instance for PolicyPointInstance {
    fn positions(&self) -> &[String] {
        &self.names
    }

    fn oracle_pass(&mut self) -> Vec<u64> {
        let db = self.oracle.get_or_insert_with(|| {
            let mut db = plain_database(&self.data);
            db.execute(PEOPLE_DDL_POLICY).expect("plain ddl");
            db.insert_rows("people", self.people.clone())
                .expect("plain people");
            db
        });
        self.requests
            .iter()
            .map(|r| digest(&db.execute(&r.oracle_sql).expect("plain run")))
            .collect()
    }

    fn run_pass(&mut self, expected: &[u64]) -> PassResult {
        let mut pass = PassResult::default();
        for (i, req) in self.requests.iter().enumerate() {
            let span = Span::enter(&self.names[i]);
            let (res, ms) = time_ms(|| {
                self.dep
                    .submit(&self.consumer, "gdpr", &req.sql, EXEC_POLICY)
            });
            drop(span);
            // The client's own work — checking the answer and the proof
            // — is outside the request latency.
            let verdict = res
                .map(|resp| {
                    let ok = digest(&resp.result) == expected[i] && resp.verify_proof(&self.dep);
                    (OpCounts::of(&resp.report, &self.dep.system().params), ok)
                })
                .map_err(|e| e.to_string());
            pass.record(&self.names[i], ms, verdict);
        }
        pass
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            data: &self.data,
            pager: self.dep.system().storage_db().pager().clone(),
            catalog: self.dep.system().storage_db().catalog().clone(),
            sql: self.requests.iter().map(|r| r.sql.clone()).collect(),
            params: self.dep.system().params.clone(),
            view_per_request: false,
            probe_federation: false,
        }
    }

    fn stored_bytes(&self) -> u64 {
        self.dep.system().storage_db().pager().lock().num_pages() * BLOCK_SIZE as u64
    }

    fn user_bytes(&self) -> u64 {
        tpch_user_bytes(&self.data) + encoded_bytes(&self.people)
    }

    fn finish(self: Box<Self>) -> ExitReport {
        // The audit trail a regulator would pull must still verify.
        let audit_ok = self.dep.monitor().audit().verify();
        ExitReport {
            checks: 1,
            failed_checks: u64::from(!audit_ok),
            recover_ms: 0.0,
        }
    }
}
