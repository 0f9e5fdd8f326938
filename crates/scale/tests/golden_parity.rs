//! Golden parity: a federated query is bit-identical at any shard count
//! and any DOP — rows, cost breakdowns, and (under range partitioning)
//! summed per-shard pager deltas.

use ironsafe_csa::cost::CostParams;
use ironsafe_csa::system::{CsaSystem, SystemConfig};
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

fn summed(report: &FederatedReport) -> (u64, u64, u64, u64, u64, u64) {
    report.per_shard.iter().fold((0, 0, 0, 0, 0, 0), |acc, d| {
        (
            acc.0 + d.stats.page_reads,
            acc.1 + d.stats.page_writes,
            acc.2 + d.stats.decrypts,
            acc.3 + d.stats.encrypts,
            acc.4 + d.stats.merkle_nodes,
            acc.5 + d.stats.rpmb_ops,
        )
    })
}

/// Run `queries()` × DOP {1, 4} on one federation, in a fixed order so
/// cross-query node state (Merkle caches) evolves identically on every
/// federation being compared.
fn run_suite(fed: &FederatedCsaSystem) -> Vec<FederatedReport> {
    let mut out = Vec::new();
    for q in &queries() {
        for dop in [1usize, 4] {
            let (report, _) = fed.run_query_federated(q, KEY, dop).unwrap();
            out.push(report);
        }
    }
    out
}

fn assert_parity(config: SystemConfig, shard_counts: &[usize]) {
    let data = ironsafe_tpch::generate(SF, SEED);
    let baseline = {
        let fed = FederatedCsaSystem::build(FederationConfig::new(1, config), &data).unwrap();
        run_suite(&fed)
    };

    // The merged stream recovers canonical scan order, so federated rows
    // must equal what the non-federated single-node system produces.
    let mut plain = CsaSystem::build(config, &data, CostParams::default()).unwrap();
    for (i, q) in queries().iter().enumerate() {
        let report = plain.run_query(q).unwrap();
        assert_eq!(
            baseline[i * 2].result, report.result,
            "{config:?} q{}: federated(1) rows != single-node rows",
            q.id
        );
    }

    for &shards in shard_counts {
        let fed = FederatedCsaSystem::build(FederationConfig::new(shards, config), &data).unwrap();
        let runs = run_suite(&fed);
        for (run, base) in runs.iter().zip(&baseline) {
            let label = format!("{config:?} q{} shards={shards}", run.query_id);
            assert_eq!(run.result, base.result, "{label}: rows diverged");
            assert_eq!(run.breakdown, base.breakdown, "{label}: breakdown diverged");
            assert_eq!(run.rows_shipped, base.rows_shipped, "{label}: rows_shipped diverged");
            assert_eq!(run.bytes_shipped, base.bytes_shipped, "{label}: bytes diverged");

            // Page-aligned range partitioning conserves the physical
            // page work exactly. Merkle/RPMB work is *not* conserved
            // (per-shard trees are shallower but verified-node cache hit
            // patterns differ), so it only gets an envelope: within 5%
            // of, and usually below, the single tree's work.
            let (reads, writes, decrypts, encrypts, merkle, rpmb) = summed(run);
            let (b_reads, b_writes, b_decrypts, b_encrypts, b_merkle, b_rpmb) = summed(base);
            assert_eq!(reads, b_reads, "{label}: page reads not conserved");
            assert_eq!(writes, b_writes, "{label}: page writes not conserved");
            assert_eq!(decrypts, b_decrypts, "{label}: decrypts not conserved");
            assert_eq!(encrypts, b_encrypts, "{label}: encrypts not conserved");
            assert!(
                merkle as f64 <= b_merkle as f64 * 1.05,
                "{label}: merkle work grew past envelope ({merkle} vs {b_merkle})"
            );
            assert!(
                rpmb as f64 <= b_rpmb as f64 * 1.05,
                "{label}: rpmb work grew past envelope ({rpmb} vs {b_rpmb})"
            );
        }
    }
}

/// Deep sweep on the paper's own system: 1/2/4 shards, DOP 1/4.
#[test]
fn ironsafe_parity_deep() {
    assert_parity(SystemConfig::IronSafe, &[2, 4]);
}

/// Every Table 2 configuration holds parity at 2 and 4 shards.
#[test]
fn all_configs_hold_parity() {
    for config in ALL_CONFIGS {
        if config == SystemConfig::IronSafe {
            continue; // covered by the deep test
        }
        assert_parity(config, &[2, 4]);
    }
}

/// A one-shard federation answers every paper query exactly as the
/// single-node scs system does, at DOP 1 and 4.
#[test]
fn federated_rows_match_single_node_rows_on_every_paper_query() {
    let data = ironsafe_tpch::generate(SF, SEED);
    let fed = FederatedCsaSystem::build(FederationConfig::new(1, SystemConfig::IronSafe), &data)
        .unwrap();
    let mut plain = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default()).unwrap();
    for dop in [1usize, 4] {
        plain.set_dop(dop);
        for q in &paper_queries() {
            let (federated, _) = fed.run_query_federated(q, KEY, dop).unwrap();
            let single = plain.run_query(q).unwrap();
            assert_eq!(federated.result, single.result, "q{} dop {dop}", q.id);
        }
    }
}

/// Per paper query on scs (BENCH_7's inputs: SF 0.002, seed 2022, key
/// 0x5C): rows shipped, bytes shipped, simulated total and a digest of
/// the result — the same at 1 and 4 shards.
const PINNED: [(u8, u64, u64, f64, &str); 17] = [
    (1, 11884, 748848, 21176061.04, "923ce278427e36b0"),
    (2, 1648, 31729, 6253406.67, "a0d27561477a6c3a"),
    (3, 7623, 319054, 21135314.419999998, "4c1753df89ccb03a"),
    (4, 7650, 298344, 18967261.12, "29cb10b2154534c1"),
    (5, 12719, 450907, 36354983.61000001, "966026715dc39d30"),
    (6, 252, 10636, 8293740.28, "1fb61ff4789734c1"),
    (7, 6889, 224826, 21495013.98, "c84ee74a804ff26d"),
    (8, 12913, 559683, 34331388.089999996, "d8850c7c0e3d9b3c"),
    (9, 16544, 758636, 44837270.279999994, "0944778e4e46c7ac"),
    (10, 6374, 226674, 21011677.02, "526a04b6091a5983"),
    (12, 3063, 71203, 13374357.69, "018b0da24bb4e0c6"),
    (13, 2991, 142762, 6332177.26, "d4134bb430ace623"),
    (14, 571, 21123, 9419299.290000001, "849f076b8f4a17ff"),
    (16, 1648, 31616, 3854197.6799999997, "f52ff898fd7f4af2"),
    (18, 15184, 349772, 32791757.560000002, "35a060cac1635e3d"),
    (19, 1274, 71984, 10226198.32, "a86cc30b73cc3302"),
    (21, 10549, 407615, 27307044.45, "c5d3dcbf3b429250"),
];

fn digest(result: &ironsafe_sql::QueryResult) -> String {
    let hash = ironsafe_crypto::sha256::sha256(format!("{result:?}").as_bytes());
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_paper_query_is_pinned_at_one_and_four_shards() {
    let data = ironsafe_tpch::generate(SF, 2022);
    for shards in [1usize, 4] {
        let cfg = FederationConfig::new(shards, SystemConfig::IronSafe);
        let fed = FederatedCsaSystem::build(cfg, &data).unwrap();
        let got: Vec<(u8, u64, u64, f64, String)> = paper_queries()
            .iter()
            .map(|q| {
                let (r, _) = fed.run_query_federated(q, [0x5C; 32], 1).unwrap();
                (q.id, r.rows_shipped, r.bytes_shipped, r.total_ns(), digest(&r.result))
            })
            .collect();
        let rendered: Vec<String> =
            got.iter().map(|(q, r, b, t, d)| format!("({q}, {r}, {b}, {t:?}, \"{d}\"),")).collect();
        assert_eq!(got.len(), PINNED.len(), "shards={shards}:\n{}", rendered.join("\n"));
        for (g, p) in got.iter().zip(&PINNED) {
            let pinned = (p.0, p.1, p.2, p.3, p.4.to_string());
            assert_eq!(*g, pinned, "shards={shards} (query, rows, bytes, total_ns, digest)");
        }
    }
}
