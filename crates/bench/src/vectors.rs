//! The `paperbench vectors` harness: the batch scan kernel × page
//! compression sweep, exported as the `BENCH_8.json` snapshot.
//!
//! One cell per (query, storage format) holds the simulated total,
//! physical pager counters and a result digest — the digest is identical
//! across storage formats (compression never changes the answer), and
//! every cell is run at DOP 1 and DOP 4 and must agree on all of them
//! (parallelism never changes what is read or charged). The
//! `"reductions"` array derives the compress-before-encrypt dividend per
//! query: encrypted bytes and MAC verifications saved on the scan path.
//! Wall-clock scan rates are `perf/`'s job (`scan_cold`).

use crate::digest;
use crate::figures::SEED;
use crate::table::{row, Cell, Col, Snapshot, Table};
use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::query;

/// Default scale factor for the deterministic invariants sweep.
pub const VECTORS_SF: f64 = 0.002;

/// Run the deterministic sweep on IronSafe (scs): every query id over
/// {raw, compressed} pages at DOP 1 and DOP 4, asserting the parity
/// contract as it goes, and derive the per-query compression dividend.
pub fn vectors_sweep(sf: f64, ids: &[u8]) -> Snapshot {
    let data = generate(sf, SEED);
    let payload = ironsafe_storage::PAGE_PAYLOAD as u64;
    let run = |compressed: bool, dop: usize| -> Vec<Vec<Cell>> {
        let mut sys =
            CsaSystem::build_with_compression(SystemConfig::IronSafe, &data, CostParams::default(), compressed)
                .expect("system builds");
        sys.set_dop(dop);
        ids.iter()
            .map(|&id| {
                let before = sys.storage_db().pager_stats();
                let report = sys
                    .run_query(&query(id).expect("known query"))
                    .unwrap_or_else(|e| panic!("Q{id} dop={dop} compressed={compressed}: {e}"));
                let after = sys.storage_db().pager_stats();
                row![
                    id,
                    compressed,
                    report.breakdown.total_ns(),
                    after.page_reads - before.page_reads,
                    after.decrypts - before.decrypts,
                    after.merkle_nodes - before.merkle_nodes,
                    report.result.rows().len(),
                    digest(&report.result)
                ]
            })
            .collect()
    };
    // The contract, enforced inside the harness: DOP twins agree on
    // every field; one digest per query across storage formats.
    let mut cells = Table::new(vec![
        Col::query("query_id"),
        Col::new("pages", "compressed", 6).flag("comp", "raw"),
        Col::new("total (sim)", "total_ns", 14).fixed(0, "ns"),
        Col::new("reads", "pages_read", 8),
        Col::new("decrypts", "decrypts", 9),
        Col::new("merkle", "merkle_nodes", 8),
        Col::new("rows", "rows", 6),
        Col::new("result digest", "result_digest", 18),
    ]);
    for compressed in [false, true] {
        let serial = run(compressed, 1);
        assert_eq!(run(compressed, 4), serial, "compressed={compressed}: DOP 4 drifted from DOP 1");
        serial.into_iter().for_each(|r| cells.push(r));
    }
    let mut reductions = Table::new(vec![
        Col::query("query_id"),
        Col::new("enc bytes raw", "encrypted_bytes_raw", 16),
        Col::new("enc bytes comp", "encrypted_bytes_compressed", 16),
        Col::new("MACs saved", "mac_reduction_pct", 12).fixed(1, "%").json_prec(2),
    ]);
    for (raw, &id) in ids.iter().enumerate() {
        let comp = ids.len() + raw;
        assert_eq!(cells.get(comp, "result_digest"), cells.get(raw, "result_digest"), "Q{id}: result drifted across formats");
        let (raw, comp) = (cells.int(raw, "decrypts"), cells.int(comp, "decrypts"));
        let reduction = 100.0 * (1.0 - comp as f64 / raw.max(1) as f64);
        assert!(reduction >= 30.0, "Q{id}: compression saved only {reduction:.1}% of MACs (need >= 30%)");
        reductions.push(row![id, raw * payload, comp * payload, reduction]);
    }
    Snapshot::invariants(sf).rows("cells", cells).rows("reductions", reductions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::assert_deterministic_and_gated;

    #[test]
    fn invariants_block_is_deterministic_and_gate_compatible() {
        assert_deterministic_and_gated(|| vectors_sweep(VECTORS_SF, &[6]));
    }
}
