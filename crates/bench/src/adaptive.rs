//! The `paperbench adaptive` harness: the telemetry-driven offload
//! optimizer against both static placement policies, exported as the
//! `BENCH_10.json` snapshot.
//!
//! The sweep covers a selectivity × EPC-pressure grid on the IronSafe
//! (scs) configuration. At every grid point three policies run the same
//! Q1 selectivity variant on identically prepared systems:
//!
//! * **all-host** (`Pinned(ShipPages)`) — every fragment ships
//!   raw pages to the host;
//! * **all-offload** (`Pinned(Offload)`) — the paper's static
//!   partitioner, pushing every select down to storage;
//! * **adaptive** (`PlacementPolicy::CostBased`) — the cost-based
//!   planner, primed by one prior offload run so its EWMA estimates
//!   carry the observed selectivity, wire width and temp density.
//!
//! Every policy runs the query twice (prime + measured, second run
//! reported) so Merkle-cache warm-up is identical, and the harness
//! asserts the contract the optimizer must keep: result digests
//! bit-identical across all three policies, and the adaptive total no
//! worse than the better static policy at *every* point, beating each
//! static policy by ≥20% somewhere on the grid.
//!
//! A separate demo deliberately mis-pins the adaptive planner's
//! estimate (selectivity 1% against an actual ~100%) and runs once with
//! mid-flight re-planning enabled and once without: the re-planned run
//! must be no slower, must charge exactly the re-plans it committed,
//! and must return bit-identical rows.
//!
//! Everything reported is simulated nanoseconds from the calibrated
//! cost model, so the whole snapshot is byte-deterministic and `--check`
//! compares it against the committed `BENCH_10.json` byte for byte (the
//! optimizer regression gate).

use crate::digest;
use crate::figures::{q1_with_selectivity, SEED};
use ironsafe_csa::{
    CostParams, CsaSystem, Estimate, OffloadDecision, PlacementPolicy, QueryReport, ReplanPolicy,
    SystemConfig,
};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::{PaperQuery, QueryStage};
use ironsafe_tpch::TpchData;

/// Default scale factor for the adaptive gate.
pub const ADAPTIVE_SF: f64 = 0.002;

/// Selectivity grid (percent of lineitem rows each variant keeps).
pub const ADAPTIVE_SELECTIVITIES: [u32; 6] = [1, 10, 25, 50, 75, 100];

/// EPC background pressure grid, in resident 4 KiB pages preloaded
/// (and re-touched between stages) by a simulated co-tenant: none,
/// near the LRU paging cliff (query temp pages still fit), and at it
/// (the wider temp working sets evict the tenant, whose cyclic
/// re-touch then faults its whole set — Figure 9a's wall). The default
/// EPC budget is 96 MiB = 24576 pages.
pub const ADAPTIVE_PRESSURES: [u64; 3] = [0, 24_000, 24_420];

/// Storage-side core grid (the paper's Figure 10 axis): the default
/// 8-way scan parallelism, and a constrained 2-core device where
/// serialization quadruples and pushdown stops paying much earlier.
pub const ADAPTIVE_STORAGE_CORES: [u32; 2] = [8, 2];

/// The two query shapes the grid sweeps — the crossovers sit on
/// opposite ends of the placement space:
///
/// * `"agg"` — the Q1 aggregation variant: narrow projection, heavy
///   host reduction. Pushdown wins almost everywhere; raw pages win
///   only once the filter keeps everything.
/// * `"wide"` — a full-detail export: every lineitem column, no
///   reduction. Serialized rows outweigh raw pages early, so the
///   static pushdown regresses exactly as the paper's
///   weakly-selective CS case.
pub const ADAPTIVE_SHAPES: [&str; 2] = ["agg", "wide"];

/// The `"wide"` shape: Q1's quantity filter over the full 16-column
/// lineitem row, with no host-side reduction.
pub fn q1_wide_with_selectivity(selectivity_pct: u32) -> PaperQuery {
    let cut = (selectivity_pct as f64 / 100.0 * 50.0).round().max(1.0) as i64;
    PaperQuery {
        id: 1,
        name: "Q1 wide-export variant",
        stages: vec![QueryStage {
            sql: format!(
                "SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, \
                 l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, \
                 l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct, l_shipmode, \
                 l_comment FROM lineitem WHERE l_quantity <= {cut}"
            ),
            into: None,
        }],
    }
}

fn shape_query(shape: &str, sel: u32) -> PaperQuery {
    match shape {
        "agg" => q1_with_selectivity(sel),
        _ => q1_wide_with_selectivity(sel),
    }
}

/// One (shape, selectivity, pressure) grid point: simulated totals for
/// the three policies plus the placement the optimizer settled on.
#[derive(Debug, Clone)]
pub struct AdaptiveCell {
    /// Query shape (`"agg"` or `"wide"`).
    pub shape: &'static str,
    /// Storage-side cores the device scans and serializes with.
    pub storage_cores: u32,
    /// Selectivity of the variant, percent.
    pub selectivity_pct: u32,
    /// Background EPC pressure, pages.
    pub pressure_pages: u64,
    /// Simulated total, every fragment shipped as raw pages.
    pub allhost_ns: f64,
    /// Simulated total, every fragment pushed down (static partitioner).
    pub offload_ns: f64,
    /// Simulated total for the primed adaptive planner.
    pub adaptive_ns: f64,
    /// Placement the adaptive plan reproduced bit-identically:
    /// `"offload"`, `"ship_pages"`, or `"mixed"`.
    pub chosen: &'static str,
    /// SHA-256 (truncated) over the rendered rows — identical across
    /// all three policies, asserted by the sweep.
    pub result_digest: String,
}

/// The mis-estimate recovery demo: one deliberately wrong pin, with and
/// without mid-flight re-planning.
#[derive(Debug, Clone)]
pub struct ReplanDemo {
    /// Pinned selectivity estimate fed to the planner.
    pub pinned_selectivity: f64,
    /// Actual selectivity of the query, percent.
    pub actual_pct: u32,
    /// Simulated total with re-planning disabled (the stubborn run).
    pub stubborn_ns: f64,
    /// Simulated total with the morsel-driver divergence check armed.
    pub replanned_ns: f64,
    /// `plan.replan` commits charged during the re-planned run.
    pub replans: u64,
    /// Result digest (identical for both runs, asserted).
    pub result_digest: String,
}

fn params(storage_cores: u32) -> CostParams {
    CostParams { storage_cores, ..CostParams::default() }
}

fn build(data: &TpchData, storage_cores: u32) -> CsaSystem {
    CsaSystem::build(SystemConfig::IronSafe, data, params(storage_cores))
        .expect("system builds")
}

/// Prime-then-measure one static policy at one grid point.
fn run_static(
    data: &TpchData,
    q: &PaperQuery,
    pin: OffloadDecision,
    cores: u32,
    pressure: u64,
) -> QueryReport {
    let mut sys = build(data, cores);
    sys.set_placement(PlacementPolicy::Pinned(pin));
    sys.set_epc_pressure(pressure);
    sys.run_query(q).expect("prime run");
    sys.run_query(q).expect("measured run")
}

/// Prime the adaptive planner with one offload run (feeding observed
/// selectivity/width/density into the EWMA store), then measure the
/// cost-based plan.
fn run_adaptive(data: &TpchData, q: &PaperQuery, cores: u32, pressure: u64) -> QueryReport {
    let mut sys = build(data, cores);
    sys.set_epc_pressure(pressure);
    sys.run_query(q).expect("priming run");
    sys.set_placement(PlacementPolicy::CostBased);
    sys.run_query(q).expect("adaptive run")
}

/// Run the grid: three policies per (selectivity, pressure) point,
/// asserting digest parity and adaptive dominance as it goes, then the
/// mis-estimate re-planning demo.
pub fn adaptive_sweep(sf: f64) -> (Vec<AdaptiveCell>, ReplanDemo) {
    let data = generate(sf, SEED);
    let mut cells = Vec::new();
    for &shape in &ADAPTIVE_SHAPES {
        for &cores in &ADAPTIVE_STORAGE_CORES {
            for &pressure in &ADAPTIVE_PRESSURES {
                for &sel in &ADAPTIVE_SELECTIVITIES {
                    let q = shape_query(shape, sel);
                    let allhost =
                        run_static(&data, &q, OffloadDecision::ShipPages, cores, pressure);
                    let offload =
                        run_static(&data, &q, OffloadDecision::Offload, cores, pressure);
                    let adaptive = run_adaptive(&data, &q, cores, pressure);
                    let label = format!("{shape} cores={cores} sel={sel}% pressure={pressure}");
                    assert_eq!(digest(&allhost.result), digest(&offload.result), "{label}: static digests");
                    assert_eq!(digest(&allhost.result), digest(&adaptive.result), "{label}: adaptive digest");
                    let chosen = if adaptive.breakdown == offload.breakdown {
                        "offload"
                    } else if adaptive.breakdown == allhost.breakdown {
                        "ship_pages"
                    } else {
                        "mixed"
                    };
                    let floor = offload.total_ns().min(allhost.total_ns());
                    assert!(
                        adaptive.total_ns() <= floor * (1.0 + 1e-9),
                        "{label}: adaptive ({:.0}ns) worse than best static ({:.0}ns)",
                        adaptive.total_ns(),
                        floor
                    );
                    cells.push(AdaptiveCell {
                        shape,
                        storage_cores: cores,
                        selectivity_pct: sel,
                        pressure_pages: pressure,
                        allhost_ns: allhost.total_ns(),
                        offload_ns: offload.total_ns(),
                        adaptive_ns: adaptive.total_ns(),
                        chosen,
                        result_digest: digest(&adaptive.result),
                    });
                }
            }
        }
    }

    // Somewhere on the grid the optimizer must beat *each* static
    // policy by ≥20%, or adaptivity is not paying for itself.
    let beats_allhost =
        cells.iter().any(|c| c.adaptive_ns <= 0.8 * c.allhost_ns);
    let beats_offload =
        cells.iter().any(|c| c.adaptive_ns <= 0.8 * c.offload_ns);
    if std::env::var_os("IRONSAFE_ADAPTIVE_DEBUG").is_some() {
        for c in &cells {
            eprintln!("{c:?}");
        }
    }
    assert!(beats_allhost, "no grid region beats all-host by >=20%");
    assert!(beats_offload, "no grid region beats all-offload by >=20%");

    (cells, replan_demo(&data))
}

/// Mis-pin the planner (1% estimate against an actual ~100% predicate)
/// and compare a stubborn run against one with the morsel-driver
/// divergence check armed.
fn replan_demo(data: &TpchData) -> ReplanDemo {
    let pinned = Estimate {
        selectivity: 0.01,
        row_wire_bytes: 84.0,
        temp_rows_per_page: 64.0,
        observations: 4,
    };
    let actual_pct = 100u32;
    let q = q1_with_selectivity(actual_pct);
    let run = |replan: Option<ReplanPolicy>| {
        let mut sys = build(data, 8);
        sys.set_placement(PlacementPolicy::CostBased);
        sys.pin_table_estimate("lineitem", pinned.clone());
        sys.set_replan(replan);
        let registry = ironsafe_obs::Registry::new();
        sys.register_plan_metrics(&registry);
        let report = sys.run_query(&q).expect("replan demo run");
        let replans = registry.snapshot().counter("plan.replan").unwrap_or(0);
        (report, replans)
    };
    let (stubborn, stubborn_replans) = run(None);
    let (replanned, replans) = run(Some(ReplanPolicy::default()));
    assert_eq!(stubborn_replans, 0, "re-planning disabled must charge no re-plans");
    assert!(replans >= 1, "the mis-estimate must trip at least one re-plan");
    assert_eq!(
        digest(&stubborn.result),
        digest(&replanned.result),
        "re-planning must never change the answer"
    );
    assert!(
        replanned.total_ns() <= stubborn.total_ns(),
        "re-planned run ({:.0}ns) slower than the stubborn one ({:.0}ns)",
        replanned.total_ns(),
        stubborn.total_ns()
    );
    ReplanDemo {
        pinned_selectivity: pinned.selectivity,
        actual_pct,
        stubborn_ns: stubborn.total_ns(),
        replanned_ns: replanned.total_ns(),
        replans,
        result_digest: digest(&replanned.result),
    }
}

/// The byte-deterministic `"invariants"` JSON block (also embedded
/// verbatim in `BENCH_10.json`) — what the `--check` gate compares.
pub fn adaptive_invariants_json(sf: f64, cells: &[AdaptiveCell], demo: &ReplanDemo) -> String {
    let mut s = String::from("  \"invariants\": {\n");
    s.push_str(&format!("    \"sf\": {sf},\n    \"seed\": {SEED},\n    \"cells\": [\n"));
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"shape\":\"{}\",\"storage_cores\":{},\"selectivity_pct\":{},\
             \"pressure_pages\":{},\"allhost_ns\":{},\
             \"offload_ns\":{},\"adaptive_ns\":{},\"chosen\":\"{}\",\"result_digest\":\"{}\"}}{}\n",
            c.shape,
            c.storage_cores,
            c.selectivity_pct,
            c.pressure_pages,
            c.allhost_ns,
            c.offload_ns,
            c.adaptive_ns,
            c.chosen,
            c.result_digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"replan\": {{\"pinned_selectivity\":{},\"actual_pct\":{},\"stubborn_ns\":{},\
         \"replanned_ns\":{},\"replans\":{},\"result_digest\":\"{}\"}}\n",
        demo.pinned_selectivity,
        demo.actual_pct,
        demo.stubborn_ns,
        demo.replanned_ns,
        demo.replans,
        demo.result_digest
    ));
    s.push_str("  }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_obs::export::looks_like_valid_json;

    #[test]
    fn sweep_corner_is_deterministic_and_gate_compatible() {
        // A reduced grid exercising both crossover ends and a pressure
        // point; the full grid runs under `paperbench adaptive`.
        let data = generate(ADAPTIVE_SF, SEED);
        let mut cells = Vec::new();
        for &(shape, cores, sel, pressure) in
            &[("agg", 8u32, 1u32, 0u64), ("wide", 2, 100, 0), ("agg", 8, 50, 24_420)]
        {
            let q = shape_query(shape, sel);
            let allhost = run_static(&data, &q, OffloadDecision::ShipPages, cores, pressure);
            let offload = run_static(&data, &q, OffloadDecision::Offload, cores, pressure);
            let adaptive = run_adaptive(&data, &q, cores, pressure);
            assert_eq!(digest(&allhost.result), digest(&adaptive.result), "{shape} sel={sel}");
            assert_eq!(digest(&offload.result), digest(&adaptive.result), "{shape} sel={sel}");
            assert!(
                adaptive.total_ns()
                    <= offload.total_ns().min(allhost.total_ns()) * (1.0 + 1e-9),
                "{shape} cores={cores} sel={sel} pressure={pressure}"
            );
            cells.push(AdaptiveCell {
                shape,
                storage_cores: cores,
                selectivity_pct: sel,
                pressure_pages: pressure,
                allhost_ns: allhost.total_ns(),
                offload_ns: offload.total_ns(),
                adaptive_ns: adaptive.total_ns(),
                chosen: "offload",
                result_digest: digest(&adaptive.result),
            });
        }
        let demo = replan_demo(&data);
        let a = adaptive_invariants_json(ADAPTIVE_SF, &cells, &demo);
        let demo_b = replan_demo(&data);
        let b = adaptive_invariants_json(ADAPTIVE_SF, &cells, &demo_b);
        assert_eq!(a, b, "invariants block must be byte-deterministic");
        let full = crate::snapshot_json(&a);
        assert!(looks_like_valid_json(&full), "{full}");
        assert!(full.contains(&a), "snapshot must embed the invariants block verbatim");
    }
}
