//! Shards push filter + projection down and ship qualifying rows; the
//! fan-in host aggregates them. Errors the host's aggregate raises reach
//! the caller through the fan-in unchanged.

use ironsafe_csa::system::SystemConfig;
use ironsafe_scale::{FederatedCsaSystem, FederationConfig};
use ironsafe_tpch::queries::{PaperQuery, QueryStage};

const SF: f64 = 0.002;
const SEED: u64 = 42;
const KEY: [u8; 32] = [7u8; 32];

/// An all-integer `SUM` whose exact total leaves i64 is an error through
/// a two-shard fan-in too (two i64::MAX region rows), at any DOP; one
/// whose running sum leaves i64 but whose total does not is the exact
/// total.
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
    let fed =
        FederatedCsaSystem::build(FederationConfig::new(2, SystemConfig::IronSafe), &data).unwrap();
    for dop in [1usize, 4] {
        let err = fed.run_query_federated(&overflow, KEY, dop).unwrap_err();
        assert!(err.to_string().contains("integer overflow"), "dop {dop}: {err}");
        let (report, _) = fed.run_query_federated(&fits, KEY, dop).unwrap();
        assert_eq!(report.result.rows()[0][0], ironsafe_sql::Value::Int(i64::MAX), "dop {dop}");
    }
}
