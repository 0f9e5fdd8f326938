//! Golden parity for the batch scan kernel across DOP.
//!
//! Parallelism is a pure execution change, so a DOP-4 run must preserve
//! *everything* its DOP-1 twin produces: rows, cost breakdowns, shipped
//! rows/bytes and summed per-shard pager deltas, at any shard count.

use ironsafe_csa::system::SystemConfig;
use ironsafe_scale::{FederatedCsaSystem, FederatedReport, FederationConfig};
use ironsafe_tpch::queries::{paper_queries, PaperQuery};

const SF: f64 = 0.002;
const SEED: u64 = 42;
const KEY: [u8; 32] = [7u8; 32];

const ALL_CONFIGS: [SystemConfig; 5] = [
    SystemConfig::HostOnlyNonSecure,
    SystemConfig::HostOnlySecure,
    SystemConfig::VanillaCs,
    SystemConfig::IronSafe,
    SystemConfig::StorageOnlySecure,
];

fn queries() -> Vec<PaperQuery> {
    paper_queries().into_iter().filter(|q| q.id == 1 || q.id == 6).collect()
}

fn summed(report: &FederatedReport) -> (u64, u64, u64, u64) {
    report.per_shard.iter().fold((0, 0, 0, 0), |acc, d| {
        (
            acc.0 + d.stats.page_reads,
            acc.1 + d.stats.page_writes,
            acc.2 + d.stats.decrypts,
            acc.3 + d.stats.encrypts,
        )
    })
}

/// Run `queries()` × `dops` on one federation in a fixed order so
/// cross-query node state (Merkle caches) evolves identically on every
/// federation being compared.
fn run_suite(fed: &FederatedCsaSystem, dops: [usize; 2]) -> Vec<FederatedReport> {
    let mut out = Vec::new();
    for q in &queries() {
        for dop in dops {
            let (report, _) = fed.run_query_federated(q, KEY, dop).unwrap();
            out.push(report);
        }
    }
    out
}

fn check_config(config: SystemConfig) {
    let data = ironsafe_tpch::generate(SF, SEED);
    let base = {
        let fed = FederatedCsaSystem::build(FederationConfig::new(1, config), &data).unwrap();
        run_suite(&fed, [1, 4])
    };

    // The same suite with the DOPs swapped puts a DOP-4 run where the
    // baseline ran DOP 1 (same node state, other DOP) and vice versa;
    // every observable is bit-identical, at 1 and 2 shards.
    for shards in [1usize, 2] {
        let cfg = FederationConfig::new(shards, config);
        let fed = FederatedCsaSystem::build(cfg, &data).unwrap();
        for (run, b) in run_suite(&fed, [4, 1]).iter().zip(&base) {
            let label = format!("{config:?} q{} dop-swapped shards={shards}", run.query_id);
            assert_eq!(run.result, b.result, "{label}: rows diverged");
            assert_eq!(run.breakdown, b.breakdown, "{label}: breakdown diverged");
            assert_eq!(run.rows_shipped, b.rows_shipped, "{label}: rows_shipped diverged");
            assert_eq!(run.bytes_shipped, b.bytes_shipped, "{label}: bytes diverged");
            assert_eq!(summed(run), summed(b), "{label}: pager deltas diverged");
        }
    }
}

/// Deep check on the paper's own configuration.
#[test]
fn ironsafe_vector_parity() {
    check_config(SystemConfig::IronSafe);
}

/// Every other Table 2 configuration holds the same invariants.
#[test]
fn all_configs_hold_vector_parity() {
    for config in ALL_CONFIGS {
        if config == SystemConfig::IronSafe {
            continue; // covered by the deep test
        }
        check_config(config);
    }
}
