//! TPC-H correctness across configurations: every paper query must return
//! byte-identical results whether it runs host-only, split, or
//! storage-only, secure or not — the security and offloading machinery
//! must never change answers.

use ironsafe::csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe::sql::QueryResult;
use ironsafe::tpch::queries::paper_queries;
use ironsafe::tpch::{generate, TpchData};

fn data() -> TpchData {
    generate(0.0015, 7)
}

fn run_all(config: SystemConfig, data: &TpchData) -> Vec<(u8, QueryResult)> {
    let mut sys = CsaSystem::build(config, data, CostParams::default()).unwrap();
    paper_queries()
        .iter()
        .map(|q| (q.id, sys.run_query(q).unwrap_or_else(|e| panic!("{} Q{}: {e}", config.abbrev(), q.id)).result))
        .collect()
}

#[test]
fn all_configs_agree_on_all_queries() {
    let d = data();
    let reference = run_all(SystemConfig::HostOnlyNonSecure, &d);
    for config in [
        SystemConfig::HostOnlySecure,
        SystemConfig::VanillaCs,
        SystemConfig::IronSafe,
        SystemConfig::StorageOnlySecure,
    ] {
        let results = run_all(config, &d);
        for ((id_a, a), (id_b, b)) in reference.iter().zip(results.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(a, b, "Q{id_a} differs under {}", config.abbrev());
        }
    }
}

#[test]
fn queries_produce_plausible_shapes() {
    let d = data();
    let results = run_all(SystemConfig::VanillaCs, &d);
    let get = |id: u8| &results.iter().find(|(q, _)| *q == id).unwrap().1;

    // Q1: at most 4 (returnflag, linestatus) groups, all aggregates set.
    let q1 = get(1);
    assert!(!q1.rows().is_empty() && q1.rows().len() <= 4);
    // Q3: obeys LIMIT 10 and descends by revenue.
    let q3 = get(3);
    assert!(q3.rows().len() <= 10);
    let revenues: Vec<f64> = q3.rows().iter().map(|r| r[1].as_f64().unwrap()).collect();
    assert!(revenues.windows(2).all(|w| w[0] >= w[1]), "{revenues:?}");
    // Q4: order priorities sorted ascending.
    let q4 = get(4);
    let prios: Vec<&str> = q4.rows().iter().map(|r| r[0].as_str().unwrap()).collect();
    let mut sorted = prios.clone();
    sorted.sort();
    assert_eq!(prios, sorted);
    // Q6: one row, positive revenue.
    let q6 = get(6);
    assert_eq!(q6.rows().len(), 1);
    assert!(q6.rows()[0][0].as_f64().unwrap() > 0.0);
    // Q12: exactly the two ship modes MAIL and SHIP.
    let q12 = get(12);
    assert!(q12.rows().len() <= 2);
    for r in q12.rows() {
        assert!(["MAIL", "SHIP"].contains(&r[0].as_str().unwrap()));
    }
    // Q14: promo revenue is a percentage.
    let q14 = get(14);
    let pct = q14.rows()[0][0].as_f64().unwrap();
    assert!((0.0..=100.0).contains(&pct), "promo {pct}%");
}

#[test]
fn io_reduction_tracks_selectivity() {
    // Q6 (brutal filter) must reduce shipped data far more than Q13's
    // stage-1 (NOT LIKE keeps nearly all of orders) — this correlation is
    // the paper's Figure 7 ⇄ Figure 6 story.
    let d = data();
    let mut hons = CsaSystem::build(SystemConfig::HostOnlyNonSecure, &d, CostParams::default()).unwrap();
    let mut vcs = CsaSystem::build(SystemConfig::VanillaCs, &d, CostParams::default()).unwrap();
    let queries = paper_queries();
    let q6 = queries.iter().find(|q| q.id == 6).unwrap();
    let q13 = queries.iter().find(|q| q.id == 13).unwrap();

    let red = |hons_r: &ironsafe::csa::QueryReport, vcs_r: &ironsafe::csa::QueryReport| {
        hons_r.pages_shipped.max(1) as f64 / vcs_r.pages_shipped.max(1) as f64
    };
    let q6_red = red(&hons.run_query(q6).unwrap(), &vcs.run_query(q6).unwrap());
    let q13_red = red(&hons.run_query(q13).unwrap(), &vcs.run_query(q13).unwrap());
    assert!(q6_red > q13_red, "Q6 reduction {q6_red:.1} vs Q13 {q13_red:.1}");
}

#[test]
fn secure_overhead_is_bounded() {
    // IronSafe costs more than vanilla CS, but within an order of
    // magnitude (the paper's Figure 8 shows freshness-dominated but
    // bounded overheads).
    let d = data();
    let mut vcs = CsaSystem::build(SystemConfig::VanillaCs, &d, CostParams::default()).unwrap();
    let mut scs = CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
    for q in paper_queries() {
        let t_vcs = vcs.run_query(&q).unwrap().total_ns();
        let t_scs = scs.run_query(&q).unwrap().total_ns();
        assert!(t_scs >= t_vcs, "Q{}: security is never free", q.id);
        assert!(t_scs < t_vcs * 20.0, "Q{}: overhead {}x", q.id, t_scs / t_vcs);
    }
}

/// SHA-256 over each paper query's encoded result rows (SF 0.0015, seed
/// 7). Captured on a pristine clone of the parent commit (PR 19,
/// `8c17294`) before any `sql::exec` change of the batch-operator PR, so
/// a join that emits in a different order — which would move float sums
/// on *both* sides of every configuration-vs-configuration comparison
/// above — fails here. Q5 selects no row at this scale.
const PINNED_RESULTS: [(u8, &str); 17] = [
    (1, "834a9ca51e108657c7d1b1180458de81652958bbf67b289c525d44089c168d14"),
    (2, "eed7019e31c270be93f1bd18dc8a9a4faf7fd9be7a1ee42c00e6ae9d2aea8822"),
    (3, "db2c875f41f8ff62ffd11bb994886449496e1b2bbf2d914a6d2d144c1d9cef26"),
    (4, "ecd8f9134646f32b800c18f9a53e424f04818adad87a2b139b6c8ca2debcfea8"),
    (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (6, "42af51ef01a3dceb43d2d9ca28768dc63490fad614c4ecefc0a4de08a6bfe0f6"),
    (7, "9cd7272d374aa1b81102f867a443bfa1a664177f093e310d702b98c7ecdf2471"),
    (8, "cec9189f6ea6c77479d43c094b31928b728107e6f9e5cc1b4c67665713445cec"),
    (9, "b62a7eb4035258a759512400645f0e1d27ea4a83d60bab9fd2fcfbf4acb11aa4"),
    (10, "3528c9824ad6805440a7bd2a1cc07e33c9c55f6ad62c246a2ad1a109d65de754"),
    (12, "130b4ada95aafc21684ab3256e8f4da9527487a937272be6d702e0330fa2e1af"),
    (13, "f180bcb104cbef0963bd9e331c3879ec672e3e5febce002909ec5764a1058b78"),
    (14, "4808bc9bec7ef1bc1ad99c6d3ee067e9b8f09c2b4ae75bb8357fcbd341e84132"),
    (16, "618992e0de6cb1436b750bbba1a1368ece19b2b2a957117e52940a005c4c5189"),
    (18, "034c767b5d5c4c0eebdb2c599bcccf1edcf5f89d4e09737a156d00c0076406d8"),
    (19, "992b1bfb17153c863b0189c8904cb95afa193906896aa0f903692d908e6dfe14"),
    (21, "ecb8449aab0b1b339ce655b935610ec4e051a0dd44ce5829f019c5fb847af32d"),
];

fn result_digest(result: &QueryResult) -> String {
    let encoded = ironsafe::sql::EncodedRows::from_rows(result.rows());
    let hash = ironsafe::crypto::sha256::sha256(encoded.as_slice().bytes());
    hash.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn paper_query_results_are_pinned() {
    let d = data();
    let queries = paper_queries();
    assert_eq!(queries.len(), PINNED_RESULTS.len());
    for config in [SystemConfig::IronSafe, SystemConfig::HostOnlyNonSecure] {
        for dop in [1, 4] {
            let mut sys = CsaSystem::build(config, &d, CostParams::default()).unwrap();
            sys.set_dop(dop);
            for (q, (id, pinned)) in queries.iter().zip(PINNED_RESULTS) {
                assert_eq!(q.id, id);
                let result = sys.run_query(q).unwrap().result;
                assert_eq!(result_digest(&result), pinned, "Q{id} under {} at dop {dop}", config.abbrev());
            }
        }
    }
}
