//! The `paperbench vectors` harness: the batch scan kernel's
//! invariants, exported as the `BENCH_8.json` snapshot.
//!
//! One cell per query holds the simulated total, physical pager
//! counters and a result digest; every cell is run at DOP 1 and DOP 4
//! and must agree on all of them (parallelism never changes what is
//! read or charged). Wall-clock scan rates are `perf/`'s job
//! (`scan_cold`).

use crate::digest;
use crate::figures::SEED;
use crate::table::{row, Cell, Col, Snapshot, Table};
use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::query;

/// Default scale factor for the deterministic invariants sweep.
pub const VECTORS_SF: f64 = 0.002;

/// Run the deterministic sweep on IronSafe (scs): every query id at
/// DOP 1 and DOP 4, asserting the parity contract as it goes.
pub fn vectors_sweep(sf: f64, ids: &[u8]) -> Snapshot {
    let data = generate(sf, SEED);
    let run = |dop: usize| -> Vec<Vec<Cell>> {
        let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
            .expect("system builds");
        sys.set_dop(dop);
        ids.iter()
            .map(|&id| {
                let before = sys.storage_db().pager_stats();
                let report = sys
                    .run_query(&query(id).expect("known query"))
                    .unwrap_or_else(|e| panic!("Q{id} dop={dop}: {e}"));
                let after = sys.storage_db().pager_stats();
                row![
                    id,
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
    // every field.
    let mut cells = Table::new(vec![
        Col::query("query_id"),
        Col::new("total (sim)", "total_ns", 14).fixed(0, "ns"),
        Col::new("reads", "pages_read", 8),
        Col::new("decrypts", "decrypts", 9),
        Col::new("merkle", "merkle_nodes", 8),
        Col::new("rows", "rows", 6),
        Col::new("result digest", "result_digest", 18),
    ]);
    let serial = run(1);
    assert_eq!(run(4), serial, "DOP 4 drifted from DOP 1");
    serial.into_iter().for_each(|r| cells.push(r));
    Snapshot::invariants(sf).rows("cells", cells)
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
