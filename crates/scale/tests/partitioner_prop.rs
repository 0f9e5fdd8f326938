//! Partitioner properties: every row lands on exactly one shard (sorted
//! or not, duplicate keys or not), and the binary-search router always
//! agrees with a brute-force oracle — including exactly on boundary keys.

use ironsafe_scale::{ShardSpec, TablePartition, GID_COLUMN};
use ironsafe_sql::schema::{Column, Schema};
use ironsafe_sql::value::{DataType, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![Column::new("k", DataType::Int), Column::new("payload", DataType::Text)])
}

fn rows_from(keys: &[i64]) -> Vec<Vec<Value>> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| vec![Value::Int(*k), Value::Text(format!("row{i}"))])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-one-shard: the gid multisets of the shard partitions are
    /// a disjoint cover of 0..n, for arbitrary (possibly duplicated,
    /// possibly unsorted) keys.
    #[test]
    fn every_row_lands_on_exactly_one_shard(
        keys in proptest::collection::vec(-1000i64..1000, 1..400),
        shards in 1usize..9,
        sort in any::<bool>(),
    ) {
        let mut keys = keys;
        if sort {
            keys.sort_unstable();
        }
        let part =
            TablePartition::build("t", &schema(), &rows_from(&keys), "k", shards).unwrap();
        prop_assert_eq!(part.shard_rows.len(), shards);
        let gid_col = part.schema.resolve(GID_COLUMN).is_ok();
        prop_assert!(!gid_col, "base schema must stay gid-free");

        let mut seen: Vec<i64> = part
            .shard_rows
            .iter()
            .flat_map(|rows| rows.iter().map(|r| match r.last() {
                Some(Value::Int(g)) => *g,
                other => panic!("bad gid {other:?}"),
            }))
            .collect();
        seen.sort_unstable();
        let expect: Vec<i64> = (0..keys.len() as i64).collect();
        prop_assert_eq!(seen, expect, "gids must cover 0..n exactly once");

        // Rows were routed by the spec they claim to be routed by.
        for (shard, rows) in part.shard_rows.iter().enumerate() {
            for r in rows {
                prop_assert_eq!(part.spec.shard_of(&r[part.key_index]), shard);
            }
        }
    }

    /// The binary-search router agrees with the linear oracle for every
    /// probe, including probes equal to the boundary keys themselves.
    #[test]
    fn router_matches_brute_force_oracle(
        boundaries in proptest::collection::vec(-500i64..500, 0..8),
        probes in proptest::collection::vec(-600i64..600, 1..100),
    ) {
        let mut sorted = boundaries;
        sorted.sort_unstable();
        sorted.dedup();
        let spec = ShardSpec {
            boundaries: sorted
                .iter()
                .map(|b| ironsafe_scale::RangeBound::Key(Value::Int(*b)))
                .collect(),
        };
        for p in probes.iter().chain(sorted.iter()) {
            let key = Value::Int(*p);
            prop_assert_eq!(spec.shard_of(&key), spec.shard_of_oracle(&key));
        }
    }
}
