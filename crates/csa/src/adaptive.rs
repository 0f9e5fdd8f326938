//! Offload pricing, kept only for the wall-clock benchmark's
//! `csa.adaptive_choose_us` probe (`perf/src/layers.rs`); nothing in the
//! workspace calls it. Split runs always offload — the paper's static
//! rule — and the next change to the benchmark deletes this module with
//! its probe.

use crate::cost::CostParams;
use crate::net::{RECORD_OVERHEAD_BYTES, ROWS_PER_RECORD};

/// Snapshot of the host enclave's EPC at pricing time.
#[derive(Debug, Clone, Copy)]
pub struct EpcView {
    /// Pages currently resident.
    pub occupied_pages: u64,
    /// Total EPC capacity in pages.
    pub capacity_pages: u64,
}

impl EpcView {
    /// A view of an empty EPC with `capacity_bytes` of enclave memory.
    pub fn empty(capacity_bytes: usize) -> EpcView {
        EpcView {
            occupied_pages: 0,
            capacity_pages: (capacity_bytes / 4096).max(1) as u64,
        }
    }
}

/// Everything the cost rule needs to price one fragment's placement.
#[derive(Debug, Clone, Copy)]
pub struct FragmentStats {
    /// Rows in the fragment's base table.
    pub table_rows: u64,
    /// Heap pages of the base table.
    pub table_pages: u64,
    /// Estimated selectivity of the pushed predicate (1.0 if none).
    pub selectivity: f64,
    /// Serialized bytes per shipped row (pre-record-overhead).
    pub row_wire_bytes: f64,
    /// Host temp-table density (rows per page) for the projection.
    pub temp_rows_per_page: f64,
    /// Host-side operator complexity the shipped rows flow through.
    pub host_ops: u64,
    /// Does the configuration pay enclave costs (scs)?
    pub secure: bool,
}

fn temp_pages(rows: u64, rows_per_page: f64) -> u64 {
    if rows == 0 {
        0
    } else {
        (rows as f64 / rows_per_page.max(1.0)).ceil() as u64
    }
}

/// EPC cost of landing `temp` fresh pages in the host enclave: each
/// cold-faults once, and if they push the resident set past capacity
/// the background working set is cyclically evicted and re-faulted in
/// full — the LRU paging cliff of Figure 9a.
fn epc_cost_ns(temp: u64, epc: &EpcView, p: &CostParams) -> f64 {
    let cold = temp as f64 * p.epc_fault_ns as f64;
    let thrash = if epc.occupied_pages + temp > epc.capacity_pages {
        epc.occupied_pages as f64 * p.epc_fault_ns as f64
    } else {
        0.0
    };
    cold + thrash
}

/// Simulated cost of *offloading* the fragment (push filter +
/// projection down; serialize and seal the surviving rows through the
/// secure channel). Only terms that differ between the two placements
/// are included — shared terms (fragment scan, device I/O, fragment
/// setup) cancel in the comparison.
fn offload_cost_ns(f: &FragmentStats, epc: &EpcView, p: &CostParams) -> f64 {
    let rows = (f.table_rows as f64 * f.selectivity.clamp(0.0, 1.0)).round() as u64;
    let records = rows.div_ceil(ROWS_PER_RECORD);
    let wire_bytes = rows as f64 * f.row_wire_bytes + (records * RECORD_OVERHEAD_BYTES) as f64;
    let mut ns = rows as f64 * p.serialize_row_ns as f64 * p.storage_cpu_factor
        / p.storage_parallel();
    ns += p.net_ns(wire_bytes as u64, records.max(1));
    ns += p.host_compute_ns(rows, f.host_ops.max(1));
    ns += p.storage_compute_ns(f.table_rows, 1) * (p.storage_mem_penalty(wire_bytes as u64) - 1.0);
    if f.secure {
        ns += (records * 2 * p.enclave_transition_ns) as f64;
        ns += epc_cost_ns(temp_pages(rows, f.temp_rows_per_page), epc, p);
        ns += wire_bytes * 0.05;
    }
    ns
}

/// Simulated cost of *shipping raw pages* (withdraw the pushdown; the
/// host filters every row itself). Same term selection as
/// [`offload_cost_ns`].
fn ship_pages_cost_ns(f: &FragmentStats, epc: &EpcView, p: &CostParams) -> f64 {
    let bytes = f.table_pages * 4096;
    let mut ns = p.net_ns(bytes, 1);
    ns += p.host_compute_ns(f.table_rows, f.host_ops.max(1));
    ns += p.storage_compute_ns(f.table_rows, 1) * (p.storage_mem_penalty(bytes) - 1.0);
    if f.secure {
        ns += epc_cost_ns(temp_pages(f.table_rows, f.temp_rows_per_page), epc, p);
        ns += bytes as f64 * 0.05;
    }
    ns
}

/// The decision rule: evaluate both placements; `true` when offloading
/// is no dearer (ties offload, the static partitioner's preference).
pub fn choose(f: &FragmentStats, epc: &EpcView, p: &CostParams) -> bool {
    offload_cost_ns(f, epc, p) <= ship_pages_cost_ns(f, epc, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(selectivity: f64) -> FragmentStats {
        FragmentStats {
            table_rows: 12_000,
            table_pages: 440,
            selectivity,
            row_wire_bytes: 24.0,
            temp_rows_per_page: 70.0,
            host_ops: 2,
            secure: true,
        }
    }

    #[test]
    fn selective_fragments_offload_weak_ones_ship() {
        let p = CostParams::default();
        let epc = EpcView::empty(p.epc_limit_bytes);
        assert!(choose(&stats(0.01), &epc, &p));
        let (off, ship) = (offload_cost_ns(&stats(1.0), &epc, &p), ship_pages_cost_ns(&stats(1.0), &epc, &p));
        assert!(!choose(&stats(1.0), &epc, &p));
        assert!(ship < off, "serialize + per-row wire beats page wire at sel=1: {off} vs {ship}");
    }

    #[test]
    fn epc_pressure_flips_the_decision_toward_offload() {
        let p = CostParams::default();
        // At sel=0.9 with a calm EPC, shipping raw pages wins…
        let calm = EpcView::empty(p.epc_limit_bytes);
        let f = stats(0.9);
        assert!(!choose(&f, &calm, &p));
        // …but near-full occupancy makes the larger raw working set
        // cross the paging cliff the filtered one avoids.
        let cap = calm.capacity_pages;
        let pressured = EpcView {
            occupied_pages: cap - temp_pages(f.table_rows, f.temp_rows_per_page) + 10,
            capacity_pages: cap,
        };
        assert!(choose(&f, &pressured, &p));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn any_interconnect() -> impl Strategy<Value = crate::cost::Interconnect> {
            prop_oneof![
                Just(crate::cost::Interconnect::NvmePcie),
                Just(crate::cost::Interconnect::NvmeOf),
                Just(crate::cost::Interconnect::TcpTls),
            ]
        }

        proptest! {
            #[test]
            fn adaptive_choice_never_worse_than_both_static_policies(
                selectivity in 0.0f64..=1.0,
                occupied in 0u64..30_000,
                rows in 1u64..200_000,
                secure in any::<bool>(),
                interconnect in any_interconnect(),
            ) {
                // For ANY (selectivity, EPC occupancy, interconnect)
                // point the chosen placement's cost is ≤ both.
                let p = CostParams::default().with_interconnect(interconnect);
                let epc = EpcView { occupied_pages: occupied, capacity_pages: 24_576 };
                let f = FragmentStats {
                    table_rows: rows,
                    table_pages: (rows / 27).max(1),
                    selectivity,
                    row_wire_bytes: 24.0,
                    temp_rows_per_page: 70.0,
                    host_ops: 2,
                    secure,
                };
                let (off, ship) = (offload_cost_ns(&f, &epc, &p), ship_pages_cost_ns(&f, &epc, &p));
                let chosen = if choose(&f, &epc, &p) { off } else { ship };
                prop_assert!(chosen <= off && chosen <= ship);
                prop_assert!(chosen.is_finite() && chosen >= 0.0);
            }

            #[test]
            fn offload_cost_monotone_in_selectivity(
                lo in 0.0f64..=1.0,
                hi in 0.0f64..=1.0,
                occupied in 0u64..30_000,
            ) {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                let p = CostParams::default();
                let epc = EpcView { occupied_pages: occupied, capacity_pages: 24_576 };
                let mk = |s| FragmentStats {
                    table_rows: 50_000,
                    table_pages: 1_800,
                    selectivity: s,
                    row_wire_bytes: 24.0,
                    temp_rows_per_page: 70.0,
                    host_ops: 2,
                    secure: true,
                };
                prop_assert!(offload_cost_ns(&mk(lo), &epc, &p) <= offload_cost_ns(&mk(hi), &epc, &p));
                // Ship-pages cost ignores selectivity entirely.
                prop_assert_eq!(
                    ship_pages_cost_ns(&mk(lo), &epc, &p),
                    ship_pages_cost_ns(&mk(hi), &epc, &p)
                );
            }
        }
    }
}
