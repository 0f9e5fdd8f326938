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
//! cost model, so the whole snapshot is byte-deterministic.

use crate::digest;
use crate::figures::{q1_with_selectivity, quantity_cut, system, SEED};
use crate::table::{row, Col, Snapshot, Table};
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
const SELECTIVITIES: [u32; 6] = [1, 10, 25, 50, 75, 100];

/// EPC background pressure grid, in resident 4 KiB pages preloaded
/// (and re-touched between stages) by a simulated co-tenant: none,
/// near the LRU paging cliff (query temp pages still fit), and at it
/// (the wider temp working sets evict the tenant, whose cyclic
/// re-touch then faults its whole set — Figure 9a's wall). The default
/// EPC budget is 96 MiB = 24576 pages.
const PRESSURES: [u64; 3] = [0, 24_000, 24_420];

/// Storage-side core grid (the paper's Figure 10 axis): the default
/// 8-way scan parallelism, and a constrained 2-core device where
/// serialization quadruples and pushdown stops paying much earlier.
const STORAGE_CORES: [u32; 2] = [8, 2];

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
const SHAPES: [&str; 2] = ["agg", "wide"];

/// One grid point: (shape, storage cores, selectivity %, EPC pressure
/// pages).
pub type GridPoint = (&'static str, u32, u32, u64);

/// The full grid, in snapshot order: shape, then cores, then pressure,
/// then selectivity.
pub fn adaptive_grid() -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for shape in SHAPES {
        for cores in STORAGE_CORES {
            for pressure in PRESSURES {
                grid.extend(SELECTIVITIES.map(|sel| (shape, cores, sel, pressure)));
            }
        }
    }
    grid
}

/// The `"wide"` shape: Q1's quantity filter over the full 16-column
/// lineitem row, with no host-side reduction.
pub fn q1_wide_with_selectivity(selectivity_pct: u32) -> PaperQuery {
    let cut = quantity_cut(selectivity_pct);
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

fn build(data: &TpchData, storage_cores: u32) -> CsaSystem {
    system(SystemConfig::IronSafe, data, CostParams { storage_cores, ..CostParams::default() })
}

/// Prime-then-measure one static policy at one grid point.
fn run_static(data: &TpchData, q: &PaperQuery, pin: OffloadDecision, cores: u32, pressure: u64) -> QueryReport {
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

/// Run the three policies at every `grid` point, asserting digest parity
/// and adaptive dominance as it goes, then the mis-estimate re-planning
/// demo.
pub fn adaptive_sweep(sf: f64, grid: &[GridPoint]) -> Snapshot {
    let data = generate(sf, SEED);
    let mut cells = Table::new(vec![
        Col::new("shape", "shape", 5),
        Col::new("cores", "storage_cores", 5),
        Col::new("sel%", "selectivity_pct", 5),
        Col::new("pressure", "pressure_pages", 9),
        Col::new("all-host", "allhost_ns", 13).fixed(0, "ns"),
        Col::new("all-offload", "offload_ns", 13).fixed(0, "ns"),
        Col::new("adaptive", "adaptive_ns", 13).fixed(0, "ns"),
        Col::new("chosen", "chosen", 11),
        Col::new("result digest", "result_digest", 18),
    ]);
    for &(shape, cores, sel, pressure) in grid {
        let q = shape_query(shape, sel);
        let allhost = run_static(&data, &q, OffloadDecision::ShipPages, cores, pressure);
        let offload = run_static(&data, &q, OffloadDecision::Offload, cores, pressure);
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
        cells.push(row![
            shape,
            cores,
            sel,
            pressure,
            allhost.total_ns(),
            offload.total_ns(),
            adaptive.total_ns(),
            chosen,
            digest(&adaptive.result)
        ]);
    }

    // Somewhere on the grid the optimizer must beat *each* static
    // policy by ≥20%, or adaptivity is not paying for itself.
    let beats = |key| (0..cells.len()).any(|r| cells.num(r, "adaptive_ns") <= 0.8 * cells.num(r, key));
    assert!(beats("allhost_ns"), "no grid region beats all-host by >=20%");
    assert!(beats("offload_ns"), "no grid region beats all-offload by >=20%");

    Snapshot::invariants(sf).rows("cells", cells).object("replan", replan_demo(&data))
}

/// Mis-pin the planner (1% estimate against an actual ~100% predicate)
/// and compare a stubborn run against one with the morsel-driver
/// divergence check armed.
fn replan_demo(data: &TpchData) -> Table {
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
    let mut t = Table::new(
        ["pinned_selectivity", "actual_pct", "stubborn_ns", "replanned_ns", "replans", "result_digest"]
            .map(Col::field)
            .to_vec(),
    );
    t.push(row![
        pinned.selectivity,
        actual_pct,
        stubborn.total_ns(),
        replanned.total_ns(),
        replans,
        digest(&replanned.result)
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::assert_deterministic_and_gated;

    #[test]
    fn sweep_corner_is_deterministic_and_gate_compatible() {
        // Both crossover ends and a pressure point; the full grid runs
        // under `paperbench adaptive`.
        assert_deterministic_and_gated(|| {
            adaptive_sweep(ADAPTIVE_SF, &[("agg", 8, 1, 0), ("wide", 2, 100, 0), ("agg", 8, 50, 24_420)])
        });
    }
}
