//! Shard pushdown depth changes traffic, never answers.
//!
//! `PushdownDepth::PartialAggregate` (the default) lets shards return
//! partial aggregation states when the query shape allows it;
//! `PushdownDepth::Rows` makes them return qualifying rows and the
//! fan-in re-aggregate. The merged result must be bit-identical at
//! either depth and any shard count, and the rows depth must ship at
//! least as many rows as the partial-aggregate depth.

use ironsafe_csa::{system::SystemConfig, PushdownDepth};
use ironsafe_scale::{FederatedCsaSystem, FederationConfig};
use ironsafe_tpch::queries::{paper_queries, PaperQuery, QueryStage};

const SF: f64 = 0.002;
const SEED: u64 = 42;
const KEY: [u8; 32] = [7u8; 32];

fn queries() -> Vec<PaperQuery> {
    paper_queries().into_iter().filter(|q| q.id == 1 || q.id == 6).collect()
}

#[test]
fn rows_depth_matches_partial_aggregate_answers() {
    let data = ironsafe_tpch::generate(SF, SEED);
    for shards in [1usize, 2, 3] {
        let agg = FederatedCsaSystem::build(
            FederationConfig::new(shards, SystemConfig::IronSafe),
            &data,
        )
        .unwrap();
        let rows = FederatedCsaSystem::build(
            FederationConfig::new(shards, SystemConfig::IronSafe)
                .with_pushdown(PushdownDepth::Rows),
            &data,
        )
        .unwrap();
        for q in &queries() {
            for dop in [1usize, 4] {
                let (a, _) = agg.run_query_federated(q, KEY, dop).unwrap();
                let (r, _) = rows.run_query_federated(q, KEY, dop).unwrap();
                let label = format!("q{} shards={shards} dop={dop}", q.id);
                assert_eq!(a.result, r.result, "{label}: depth changed the answer");
                assert!(
                    r.rows_shipped >= a.rows_shipped,
                    "{label}: rows depth shipped fewer rows ({} vs {})",
                    r.rows_shipped,
                    a.rows_shipped
                );
            }
        }
    }
}

#[test]
fn depth_is_observable_through_the_partial_tuple_counter() {
    // At the default depth Q1's aggregation is evaluated shard-side
    // (partial tuples cross the fan-in); at `Rows` depth the shards ship
    // qualifying fragment rows and no partial tuple ever exists.
    let data = ironsafe_tpch::generate(SF, SEED);
    let q1 = paper_queries().into_iter().find(|q| q.id == 1).unwrap();
    let tuples_for = |depth: PushdownDepth| {
        let fed = FederatedCsaSystem::build(
            FederationConfig::new(2, SystemConfig::IronSafe).with_pushdown(depth),
            &data,
        )
        .unwrap();
        let registry = ironsafe_obs::Registry::new();
        fed.register_metrics(&registry);
        fed.run_query_federated(&q1, KEY, 1).unwrap();
        registry.snapshot().counter("scale.partial.tuples").unwrap_or(0)
    };
    assert!(
        tuples_for(PushdownDepth::PartialAggregate) > 0,
        "default depth must aggregate shard-side"
    );
    assert_eq!(
        tuples_for(PushdownDepth::Rows),
        0,
        "rows depth must not create partial tuples"
    );
}

/// An all-integer `SUM` whose exact total leaves i64 is an error through
/// a two-shard fan-in too (two i64::MAX region rows), at either depth and
/// DOP; one whose running sum leaves i64 but whose total does not is the
/// exact total.
#[test]
fn integer_sum_overflow_is_an_error_across_shards() {
    let data = ironsafe_tpch::generate(SF, SEED);
    let query = |sql: &str| PaperQuery {
        id: 0,
        name: "overflow",
        stages: vec![QueryStage { sql: sql.to_string(), into: None }],
    };
    let overflow = query("SELECT SUM(CASE WHEN r_regionkey < 2 THEN 9223372036854775807 ELSE 0 END) FROM region");
    let fits = query(
        "SELECT SUM(CASE WHEN r_regionkey = 0 THEN 9223372036854775807 WHEN r_regionkey = 1 THEN 1 \
         WHEN r_regionkey = 2 THEN -1 ELSE 0 END) FROM region",
    );
    for depth in [PushdownDepth::PartialAggregate, PushdownDepth::Rows] {
        let fed =
            FederatedCsaSystem::build(FederationConfig::new(2, SystemConfig::IronSafe).with_pushdown(depth), &data)
                .unwrap();
        for dop in [1usize, 4] {
            let err = fed.run_query_federated(&overflow, KEY, dop).unwrap_err();
            assert!(err.to_string().contains("integer overflow"), "{depth:?} dop {dop}: {err}");
            let (report, _) = fed.run_query_federated(&fits, KEY, dop).unwrap();
            assert_eq!(report.result.rows()[0][0], ironsafe_sql::Value::Int(i64::MAX), "{depth:?} dop {dop}");
        }
    }
}
