//! The `paperbench shards` harness: federation scaling sweep across
//! shard counts, exported as the `BENCH_7.json` snapshot.
//!
//! Each cell holds only quantities the federation pins bit-identical at
//! any shard count — simulated total, shipped rows/bytes, summed pages
//! read, a result digest — plus the N-dependent `fanout_overhead_ns`.
//! Wall-clock serving rates are `perf/`'s job
//! (`scale.q6_{1,4}shard_ms`).

use crate::digest;
use crate::figures::SEED;
use crate::table::{row, Col, Snapshot, Table};
use ironsafe_csa::SystemConfig;
use ironsafe_scale::{FederatedCsaSystem, FederationConfig};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::query;

/// Default scale factor for the shards gate.
pub const SHARDS_SF: f64 = 0.002;

/// Shard counts the sweep covers.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const KEY: [u8; 32] = [0x5Cu8; 32];

/// Run the sweep: every query id at every shard count on IronSafe (scs)
/// federations, asserting the determinism contract as it goes.
pub fn shards_sweep(sf: f64, counts: &[usize], ids: &[u8]) -> Snapshot {
    let data = generate(sf, SEED);
    let mut t = Table::new(vec![
        Col::query("query_id"),
        Col::new("N", "shards", 3),
        Col::new("total (sim)", "total_ns", 14).fixed(0, "ns"),
        Col::new("fanout ovh", "fanout_overhead_ns", 12).fixed(0, "ns"),
        Col::new("rows", "rows_shipped", 9),
        Col::new("bytes", "bytes_shipped", 10),
        Col::new("pages", "pages_read", 10),
        Col::new("result digest", "result_digest", 18),
    ]);
    for &n in counts {
        let fed = FederatedCsaSystem::build(FederationConfig::new(n, SystemConfig::IronSafe), &data)
            .expect("federation builds");
        for &id in ids {
            let q = query(id).expect("known query");
            let (report, _) =
                fed.run_query_federated(&q, KEY, 1).unwrap_or_else(|e| panic!("shards={n} Q{id}: {e}"));
            t.push(row![
                id,
                n,
                report.breakdown.total_ns(),
                report.fanout_overhead_ns,
                report.rows_shipped,
                report.bytes_shipped,
                report.pages_read_storage,
                digest(&report.result)
            ]);
        }
    }

    // Enforce the contract inside the harness too: every cell matches
    // its cell at the first shard count except for fanout overhead.
    for r in ids.len()..t.len() {
        for key in ["total_ns", "result_digest", "pages_read"] {
            let (q, n) = (t.get(r, "query_id"), t.get(r, "shards"));
            assert_eq!(t.get(r, key), t.get(r % ids.len(), key), "Q{q} at N={n}: {key} drifted");
        }
    }
    Snapshot::invariants(sf).rows("cells", t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::assert_deterministic_and_gated;

    #[test]
    fn invariants_block_is_deterministic_and_gate_compatible() {
        assert_deterministic_and_gated(|| shards_sweep(SHARDS_SF, &[1, 2], &[6]));
    }
}
