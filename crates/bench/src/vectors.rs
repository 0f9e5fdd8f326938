//! The `paperbench vectors` harness: the batch scan kernel × page
//! compression sweep, exported as the `BENCH_8.json` snapshot.
//!
//! The snapshot's `"invariants"` block holds only quantities the
//! engine pins deterministically: one cell per (query, storage
//! format) with the simulated total, physical pager counters and a
//! result digest — the digest is identical across storage formats
//! (compression never changes the answer), and every cell is run at DOP
//! 1 and DOP 4 and must agree on all of them (parallelism never changes
//! what is read or charged). A `"reductions"` array derives the
//! compress-before-encrypt dividend per query: encrypted bytes and MAC
//! verifications saved on the scan path. It is byte-deterministic, so
//! `--check` regenerates it and compares it byte for byte against the
//! committed file (the scan-kernel regression gate). Wall-clock scan
//! rates are `perf/`'s job (`scan_cold`).

use crate::digest;
use crate::figures::SEED;
use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::query;

/// Default scale factor for the deterministic invariants sweep.
pub const VECTORS_SF: f64 = 0.002;

/// One (query, storage format) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorCell {
    /// TPC-H query id.
    pub query_id: u8,
    /// Compress-before-encrypt pages, or the raw page store.
    pub compressed: bool,
    /// Simulated total (identical at any DOP).
    pub total_ns: f64,
    /// Physical page reads during the query.
    pub pages_read: u64,
    /// Physical decrypt+MAC-verify operations during the query.
    pub decrypts: u64,
    /// Merkle nodes visited during the query.
    pub merkle_nodes: u64,
    /// Result rows.
    pub rows: u64,
    /// SHA-256 (truncated) over the rendered result rows.
    pub result_digest: String,
}

/// The compress-before-encrypt dividend for one query's scan path.
#[derive(Debug, Clone)]
pub struct CompressionDividend {
    /// TPC-H query id.
    pub query_id: u8,
    /// Encrypted bytes read (decrypts × physical payload), raw pages.
    pub encrypted_bytes_raw: u64,
    /// Encrypted bytes read, compressed pages.
    pub encrypted_bytes_compressed: u64,
    /// Percentage of MAC verifications (and encrypted bytes — same
    /// physical block size) saved by compression.
    pub mac_reduction_pct: f64,
}

/// Run the deterministic sweep on IronSafe (scs): every query id over
/// {raw, compressed} pages at DOP 1 and DOP 4, asserting the parity
/// contract as it goes, and derive the per-query compression dividend.
pub fn vectors_sweep(sf: f64, ids: &[u8]) -> (Vec<VectorCell>, Vec<CompressionDividend>) {
    let data = generate(sf, SEED);
    let payload = ironsafe_storage::PAGE_PAYLOAD as u64;
    let run = |compressed: bool, dop: usize| -> Vec<VectorCell> {
        let mut sys = CsaSystem::build_with_compression(
            SystemConfig::IronSafe,
            &data,
            CostParams::default(),
            compressed,
        )
        .expect("system builds");
        sys.set_dop(dop);
        ids.iter()
            .map(|&id| {
                let before = sys.storage_db().pager_stats();
                let report = sys
                    .run_query(&query(id).expect("known query"))
                    .unwrap_or_else(|e| panic!("Q{id} dop={dop} compressed={compressed}: {e}"));
                let after = sys.storage_db().pager_stats();
                VectorCell {
                    query_id: id,
                    compressed,
                    total_ns: report.breakdown.total_ns(),
                    pages_read: after.page_reads - before.page_reads,
                    decrypts: after.decrypts - before.decrypts,
                    merkle_nodes: after.merkle_nodes - before.merkle_nodes,
                    rows: report.result.rows().len() as u64,
                    result_digest: digest(&report.result),
                }
            })
            .collect()
    };
    // The contract, enforced inside the harness: DOP twins agree on
    // every field; one digest per query across storage formats.
    let mut cells = Vec::new();
    for compressed in [false, true] {
        let serial = run(compressed, 1);
        assert_eq!(run(compressed, 4), serial, "compressed={compressed}: DOP 4 drifted from DOP 1");
        cells.extend(serial);
    }
    let mut dividends = Vec::new();
    for &id in ids {
        let of = |compressed: bool| {
            cells.iter().find(|c| c.query_id == id && c.compressed == compressed).expect("cell")
        };
        let (raw, comp) = (of(false), of(true));
        assert_eq!(comp.result_digest, raw.result_digest, "Q{id}: result drifted across formats");
        let reduction = 100.0 * (1.0 - comp.decrypts as f64 / raw.decrypts.max(1) as f64);
        assert!(
            reduction >= 30.0,
            "Q{id}: compression saved only {reduction:.1}% of MACs (need >= 30%)"
        );
        dividends.push(CompressionDividend {
            query_id: id,
            encrypted_bytes_raw: raw.decrypts * payload,
            encrypted_bytes_compressed: comp.decrypts * payload,
            mac_reduction_pct: reduction,
        });
    }
    (cells, dividends)
}

/// The byte-deterministic `"invariants"` JSON block — what the `--check`
/// gate compares and `BENCH_8.json` wraps.
pub fn vectors_invariants_json(
    sf: f64,
    cells: &[VectorCell],
    dividends: &[CompressionDividend],
) -> String {
    let mut s = String::from("  \"invariants\": {\n");
    s.push_str(&format!("    \"sf\": {sf},\n    \"seed\": {SEED},\n    \"cells\": [\n"));
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"query_id\":{},\"compressed\":{},\"total_ns\":{},\
             \"pages_read\":{},\"decrypts\":{},\"merkle_nodes\":{},\"rows\":{},\"result_digest\":\"{}\"}}{}\n",
            c.query_id,
            c.compressed,
            c.total_ns,
            c.pages_read,
            c.decrypts,
            c.merkle_nodes,
            c.rows,
            c.result_digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("    ],\n    \"reductions\": [\n");
    for (i, d) in dividends.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"query_id\":{},\"encrypted_bytes_raw\":{},\"encrypted_bytes_compressed\":{},\
             \"mac_reduction_pct\":{:.2}}}{}\n",
            d.query_id,
            d.encrypted_bytes_raw,
            d.encrypted_bytes_compressed,
            d.mac_reduction_pct,
            if i + 1 == dividends.len() { "" } else { "," }
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
        let (cells_a, div_a) = vectors_sweep(VECTORS_SF, &[6]);
        let (cells_b, div_b) = vectors_sweep(VECTORS_SF, &[6]);
        let a = vectors_invariants_json(VECTORS_SF, &cells_a, &div_a);
        let b = vectors_invariants_json(VECTORS_SF, &cells_b, &div_b);
        assert_eq!(a, b, "invariants block must be byte-deterministic");
        let full = crate::snapshot_json(&a);
        assert!(looks_like_valid_json(&full), "{full}");
    }
}
