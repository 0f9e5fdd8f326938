//! The `paperbench shards` harness: federation scaling sweep across
//! shard counts, exported as the `BENCH_7.json` snapshot.
//!
//! The snapshot's `"invariants"` block holds only quantities the
//! federation pins bit-identical at any shard count — simulated total,
//! shipped rows/bytes, summed pages read, a result digest — plus the
//! N-dependent `fanout_overhead_ns` reported per shard count. It is
//! byte-deterministic, so `--check` regenerates it and compares it
//! byte for byte against the committed file (the federation regression
//! gate). Wall-clock serving rates are `perf/`'s job
//! (`scale.q6_{1,4}shard_ms`).

use crate::digest;
use crate::figures::SEED;
use ironsafe_csa::SystemConfig;
use ironsafe_scale::{FederatedCsaSystem, FederationConfig};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::query;

/// Default scale factor for the shards gate.
pub const SHARDS_SF: f64 = 0.002;

/// Shard counts the sweep covers.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const KEY: [u8; 32] = [0x5Cu8; 32];

/// Shard-count-invariant facts for one (query, N) cell, plus the one
/// honestly N-dependent number (`fanout_overhead_ns`).
#[derive(Debug, Clone)]
pub struct ShardInvariant {
    /// TPC-H query id.
    pub query_id: u8,
    /// Shard count the cell ran at.
    pub shards: usize,
    /// Simulated total (bit-identical across shard counts).
    pub total_ns: f64,
    /// N-dependent coordination cost, kept out of `total_ns`.
    pub fanout_overhead_ns: f64,
    /// Rows shipped shard→coordinator.
    pub rows_shipped: u64,
    /// Bytes through the canonical channel.
    pub bytes_shipped: u64,
    /// Summed pages read across serving nodes (conserved under range
    /// partitioning).
    pub pages_read: u64,
    /// SHA-256 (truncated) over the rendered result rows.
    pub result_digest: String,
}

/// Run the sweep: every query id at every shard count on IronSafe
/// (scs) federations, asserting the determinism contract as it goes.
pub fn shards_sweep(sf: f64, counts: &[usize], ids: &[u8]) -> Vec<ShardInvariant> {
    let data = generate(sf, SEED);
    let mut invariants = Vec::new();
    for &n in counts {
        let fed = FederatedCsaSystem::build(
            FederationConfig::new(n, SystemConfig::IronSafe),
            &data,
        )
        .expect("federation builds");
        for &id in ids {
            let q = query(id).expect("known query");
            let (report, _) = fed
                .run_query_federated(&q, KEY, 1)
                .unwrap_or_else(|e| panic!("shards={n} Q{id}: {e}"));
            invariants.push(ShardInvariant {
                query_id: id,
                shards: n,
                total_ns: report.breakdown.total_ns(),
                fanout_overhead_ns: report.fanout_overhead_ns,
                rows_shipped: report.rows_shipped,
                bytes_shipped: report.bytes_shipped,
                pages_read: report.pages_read_storage,
                result_digest: digest(&report.result),
            });
        }
    }

    // Enforce the contract inside the harness too: every invariant cell
    // must match its 1-shard row except fanout overhead.
    for inv in &invariants {
        let base = invariants
            .iter()
            .find(|b| b.query_id == inv.query_id && b.shards == counts[0])
            .expect("baseline cell");
        assert_eq!(inv.total_ns, base.total_ns, "Q{} total drifted", inv.query_id);
        assert_eq!(inv.result_digest, base.result_digest, "Q{} rows drifted", inv.query_id);
        assert_eq!(inv.pages_read, base.pages_read, "Q{} page reads drifted", inv.query_id);
    }
    invariants
}

/// The byte-deterministic `"invariants"` JSON block — what the `--check`
/// gate compares and `BENCH_7.json` wraps.
pub fn shards_invariants_json(sf: f64, invariants: &[ShardInvariant]) -> String {
    let mut s = String::from("  \"invariants\": {\n");
    s.push_str(&format!("    \"sf\": {sf},\n    \"seed\": {SEED},\n    \"cells\": [\n"));
    for (i, inv) in invariants.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"query_id\":{},\"shards\":{},\"total_ns\":{},\"fanout_overhead_ns\":{},\
             \"rows_shipped\":{},\"bytes_shipped\":{},\"pages_read\":{},\"result_digest\":\"{}\"}}{}\n",
            inv.query_id,
            inv.shards,
            inv.total_ns,
            inv.fanout_overhead_ns,
            inv.rows_shipped,
            inv.bytes_shipped,
            inv.pages_read,
            inv.result_digest,
            if i + 1 == invariants.len() { "" } else { "," }
        ));
    }
    s.push_str("    ]\n  }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_obs::export::looks_like_valid_json;

    #[test]
    fn invariants_block_is_deterministic_and_gate_compatible() {
        let a = shards_invariants_json(SHARDS_SF, &shards_sweep(SHARDS_SF, &[1, 2], &[6]));
        let b = shards_invariants_json(SHARDS_SF, &shards_sweep(SHARDS_SF, &[1, 2], &[6]));
        assert_eq!(a, b, "invariants block must be byte-deterministic");
        let full = crate::snapshot_json(&a);
        assert!(looks_like_valid_json(&full), "{full}");
    }
}
