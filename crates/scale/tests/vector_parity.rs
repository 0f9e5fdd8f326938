//! Golden parity for the batch scan kernel across DOP × compression,
//! and for the compress-before-encrypt page store.
//!
//! Parallelism is a pure execution change, so a DOP-4 run must preserve
//! *everything* its DOP-1 twin produces: rows, cost breakdowns, shipped
//! rows/bytes and summed per-shard pager deltas, at any shard count.
//! Compression is a physical-layout change, so it must
//! preserve the *answer* (rows bit-identical at any DOP and shard
//! count) while honestly shrinking the physical counters: strictly
//! fewer page reads everywhere, strictly fewer decrypts/MAC checks on
//! secure configurations, and counters that do not depend on DOP.

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

    // Axis 1 — DOP, raw pages: the same suite with the DOPs swapped puts
    // a DOP-4 run where the baseline ran DOP 1 (same node state, other
    // DOP) and vice versa; every observable is bit-identical, at 1 and 2
    // shards.
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

    // Axis 2 — compressed pages: the answer is untouched, the physical
    // counters shrink honestly and are DOP-independent.
    let mut comp_at_1 = Vec::new();
    for shards in [1usize, 2] {
        let cfg = FederationConfig::new(shards, config).with_compressed(true);
        let fed = FederatedCsaSystem::build(cfg, &data).unwrap();
        let runs = run_suite(&fed, [1, 4]);
        for (run, b) in runs.iter().zip(&base) {
            let label = format!("{config:?} q{} comp shards={shards}", run.query_id);
            assert_eq!(run.result, b.result, "{label}: rows diverged");
            assert_eq!(run.rows_shipped, b.rows_shipped, "{label}: rows_shipped diverged");
            let (reads, _, decrypts, _) = summed(run);
            let (b_reads, _, b_decrypts, _) = summed(b);
            assert!(
                reads < b_reads,
                "{label}: compressed scan should read fewer physical blocks ({reads} vs {b_reads})"
            );
            if b_decrypts > 0 {
                assert!(
                    decrypts < b_decrypts,
                    "{label}: compression must cut decrypt/MAC work ({decrypts} vs {b_decrypts})"
                );
            }
        }
        // DOP 1 vs DOP 4 of the same query hit identical physical pages:
        // the suite interleaves them, so compare pairwise per query.
        for pair in runs.chunks(2) {
            assert_eq!(
                summed(&pair[0]),
                summed(&pair[1]),
                "{config:?} q{} shards={shards}: compressed counters depend on DOP",
                pair[0].query_id
            );
        }
        if shards == 1 {
            comp_at_1 = runs;
        } else {
            // Sharding a compressed store re-compresses each partition
            // independently; the totals stay in a tight envelope of the
            // single-node compressed totals even though exact block
            // boundaries shift.
            for (run, one) in runs.iter().zip(&comp_at_1) {
                let (reads, writes, ..) = summed(run);
                let (o_reads, o_writes, ..) = summed(one);
                let label = format!("{config:?} q{} comp", run.query_id);
                assert!(
                    (reads as f64 - o_reads as f64).abs() <= o_reads as f64 * 0.15 + 4.0,
                    "{label}: 2-shard reads {reads} far from 1-shard {o_reads}"
                );
                assert!(
                    (writes as f64 - o_writes as f64).abs() <= o_writes as f64 * 0.15 + 4.0,
                    "{label}: 2-shard writes {writes} far from 1-shard {o_writes}"
                );
            }
        }
    }
}

/// Deep check on the paper's own configuration.
#[test]
fn ironsafe_vector_and_compression_parity() {
    check_config(SystemConfig::IronSafe);
}

/// Every other Table 2 configuration holds the same invariants.
#[test]
fn all_configs_hold_vector_and_compression_parity() {
    for config in ALL_CONFIGS {
        if config == SystemConfig::IronSafe {
            continue; // covered by the deep test
        }
        check_config(config);
    }
}
