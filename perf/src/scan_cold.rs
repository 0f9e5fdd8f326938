//! `scan_cold`: one caller runs Q1, Q6, Q12, Q14 and Q19 straight on a
//! [`CsaSystem`] in the IronSafe configuration. There is no shared page
//! cache on this path, so every page of `lineitem` is read from the
//! device, decrypted, MAC-checked and Merkle-verified on every request:
//! the one workload where `crypto` and the `storage` read path dominate.

use crate::workload::{
    digest, plain_database, shuffle, time_ms, tpch_user_bytes, ExitReport, Instance, OpCounts,
    PassResult, ProbeInput, RunConfig, Workload,
};
use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_obs::{Registry, Span};
use ironsafe_sql::Database;
use ironsafe_storage::BLOCK_SIZE;
use ironsafe_tpch::{PaperQuery, QueryStage, TpchData};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The five single-table (or lineitem-led) scans of the paper's set.
const QUERY_IDS: [u8; 5] = [1, 6, 12, 14, 19];

/// The workload.
pub struct ScanCold;

struct ScanColdInstance {
    data: TpchData,
    sys: CsaSystem,
    queries: Vec<PaperQuery>,
    names: Vec<String>,
    registry: Registry,
    oracle: Option<Database>,
}

/// Seeded range scans a pass adds to the five paper queries.
const SEEDED_SCANS: usize = 5;

/// Q6 with parameters drawn from `rng`: a ship-date window, a discount band
/// of ±0.01 and a quantity limit, as the TPC-H specification varies them —
/// but one month of dates, not one year. Every draw reads every page of
/// `lineitem`; what moves with the draw is how many rows qualify, and a
/// month holds that to a few rows, so `sim_ms_per_op` stays within its
/// 0.1 % across seeds.
pub fn seeded_q6(id: u8, rng: &mut StdRng) -> PaperQuery {
    let (year, month) = (rng.gen_range(1993..1998), rng.gen_range(1..12));
    let discount = rng.gen_range(2..10);
    let quantity = rng.gen_range(24..26);
    PaperQuery {
        id,
        name: "seeded forecasting revenue change",
        stages: vec![QueryStage {
            sql: format!(
                "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                 WHERE l_shipdate >= '{year}-{month:02}-01' AND l_shipdate < '{year}-{:02}-01' \
                 AND l_discount BETWEEN 0.0{} AND 0.{:02} AND l_quantity < {quantity}",
                month + 1,
                discount - 1,
                discount + 1
            ),
            into: None,
        }],
    }
}

impl Workload for ScanCold {
    fn nominal_pass_s(&self) -> f64 {
        1.1
    }

    fn setup(&self, cfg: &RunConfig) -> Box<dyn Instance> {
        let data = cfg.data();
        let sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
            .expect("secure system builds");
        let mut queries: Vec<PaperQuery> = QUERY_IDS
            .iter()
            .map(|id| ironsafe_tpch::queries::query(*id).expect("paper query"))
            .collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5ca9);
        queries.extend((0..SEEDED_SCANS).map(|i| seeded_q6(101 + i as u8, &mut rng)));
        shuffle(&mut queries, &mut rng);
        let names = queries
            .iter()
            .map(|q| format!("scan_cold/q{}", q.id))
            .collect();
        let registry = Registry::new();
        sys.storage_db().register_metrics(&registry);
        Box::new(ScanColdInstance {
            data,
            sys,
            queries,
            names,
            registry,
            oracle: None,
        })
    }
}

impl Instance for ScanColdInstance {
    fn positions(&self) -> &[String] {
        &self.names
    }

    fn oracle_pass(&mut self) -> Vec<u64> {
        let db = self
            .oracle
            .get_or_insert_with(|| plain_database(&self.data));
        self.queries
            .iter()
            .map(|q| digest(&ironsafe_tpch::queries::run_query(db, q).expect("plain run")))
            .collect()
    }

    fn run_pass(&mut self, expected: &[u64]) -> PassResult {
        let mut pass = PassResult::default();
        for (i, q) in self.queries.iter().enumerate() {
            let _span = Span::enter(&self.names[i]);
            let (res, ms) = time_ms(|| self.sys.run_query(q));
            let verdict = res
                .map(|r| {
                    (
                        OpCounts::of(&r, &self.sys.params),
                        digest(&r.result) == expected[i],
                    )
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
            pager: self.sys.storage_db().pager().clone(),
            catalog: self.sys.storage_db().catalog().clone(),
            sql: self
                .queries
                .iter()
                .flat_map(|q| q.stages.iter().map(|s| s.sql.clone()))
                .collect(),
            params: self.sys.params.clone(),
            view_per_request: false,
            probe_federation: true,
        }
    }

    fn stored_bytes(&self) -> u64 {
        self.sys.storage_db().pager().lock().num_pages() * BLOCK_SIZE as u64
    }

    fn user_bytes(&self) -> u64 {
        tpch_user_bytes(&self.data)
    }

    fn finish(self: Box<Self>) -> ExitReport {
        ExitReport::default()
    }
}
