//! Adaptive, telemetry-driven offload planning.
//!
//! The static partitioner ([`crate::partition`]) always pushes filters
//! down; the paper's own Figures 6 and 9 show the best host/storage
//! split flips with selectivity and enclave memory pressure. This
//! module makes placement a *cost-based* decision evaluated against
//! observed statistics:
//!
//! * **Estimates** ([`AdaptiveState`]) — per-(table, predicate)
//!   selectivity, wire bytes per shipped row and host temp-table
//!   density, seeded from catalog-shape priors
//!   ([`prior_selectivity`]) and refined by an EWMA feedback loop fed
//!   from [`QueryProfile`](crate::QueryProfile) row counts after every
//!   split run.
//! * **Cost rule** ([`offload_cost_ns`] / [`ship_pages_cost_ns`] /
//!   [`choose`]) — pure functions mirroring, term by term, exactly the
//!   charges [`CsaSystem`](crate::CsaSystem)'s split runner attributes
//!   to each placement, so with exact estimates the model's argmin *is*
//!   the cheaper real execution.
//! * **Re-planning** ([`ReplanPolicy`] / [`divergence_trip`]) — the
//!   morsel driver records per-morsel `(rows_in, rows_out)` through a
//!   [`ScanWatch`](ironsafe_sql::exec::ScanWatch); when cumulative
//!   observed selectivity diverges from the estimate past a hysteresis
//!   band, the remaining morsels are re-placed and the switch is
//!   charged honestly (`plan/replan` span, `plan.replan` counter).
//!
//! Everything here is deterministic and side-effect-free: placement
//! changes cost, never answers.

use crate::cost::CostParams;
use crate::net::{RECORD_OVERHEAD_BYTES, ROWS_PER_RECORD};
use crate::partition::OffloadDecision;
use ironsafe_obs::{Counter, Registry};
use ironsafe_sql::ast::{BinOp, Expr, UnaryOp};
use std::collections::BTreeMap;

/// Shape-based selectivity prior for a pushed-down predicate — the
/// "catalog statistics" seed used before any observation exists.
/// Classic System-R style constants: equality is selective, ranges keep
/// a third, negations keep the complement.
pub fn prior_selectivity(pred: &Expr) -> f64 {
    match pred {
        Expr::Binary { op, left, right } => match op {
            BinOp::And => prior_selectivity(left) * prior_selectivity(right),
            BinOp::Or => {
                let (a, b) = (prior_selectivity(left), prior_selectivity(right));
                (a + b - a * b).min(1.0)
            }
            BinOp::Eq => 0.1,
            BinOp::NotEq => 0.9,
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 1.0 / 3.0,
            // Arithmetic in boolean position: no information.
            _ => 0.5,
        },
        Expr::Between { negated, .. } => {
            // Two range bounds.
            let base = 1.0 / 9.0;
            if *negated { 1.0 - base } else { base }
        }
        Expr::Like { negated, .. } => {
            if *negated { 0.9 } else { 0.25 }
        }
        Expr::IsNull { negated, .. } => {
            if *negated { 0.95 } else { 0.05 }
        }
        Expr::InList { list, negated, .. } => {
            let base = (0.1 * list.len() as f64).min(1.0);
            if *negated { 1.0 - base } else { base }
        }
        Expr::Unary { op: UnaryOp::Not, expr } => 1.0 - prior_selectivity(expr),
        _ => 0.5,
    }
}

/// One refined statistic set for a (table, predicate) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Fraction of the table's rows the pushed predicate keeps.
    pub selectivity: f64,
    /// Serialized bytes per shipped row on the secure channel
    /// (pre-record-overhead).
    pub row_wire_bytes: f64,
    /// Host temp-table heap density (rows per 4 KiB page) for the
    /// fragment's projection.
    pub temp_rows_per_page: f64,
    /// Observations folded into this estimate.
    pub observations: u64,
}

/// EWMA-refined estimate store keyed by `"{table}|{predicate_sql}"`,
/// with a `"{table}|*"` fallback for table-level pins.
///
/// The first observation for a key *sets* the estimate exactly; later
/// observations blend with weight `alpha` — so a primed second run of
/// the same query plans against exact statistics.
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    estimates: BTreeMap<String, Estimate>,
    /// EWMA blend weight for observations after the first.
    pub alpha: f64,
}

impl Default for AdaptiveState {
    fn default() -> Self {
        AdaptiveState { estimates: BTreeMap::new(), alpha: 0.5 }
    }
}

fn key_of(table: &str, predicate_sql: Option<&str>) -> String {
    match predicate_sql {
        Some(p) => format!("{table}|{p}"),
        None => format!("{table}|*"),
    }
}

impl AdaptiveState {
    /// Empty store with the default blend weight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the refined estimate for `table` under `predicate_sql`,
    /// falling back to the table-level (`*`) entry.
    pub fn lookup(&self, table: &str, predicate_sql: Option<&str>) -> Option<&Estimate> {
        if let Some(p) = predicate_sql {
            if let Some(e) = self.estimates.get(&key_of(table, Some(p))) {
                return Some(e);
            }
        }
        self.estimates.get(&key_of(table, None))
    }

    /// Fold one observed fragment outcome into the store. Returns `true`
    /// when an existing estimate was refined (vs. freshly seeded).
    pub fn observe(
        &mut self,
        table: &str,
        predicate_sql: Option<&str>,
        selectivity: f64,
        row_wire_bytes: f64,
        temp_rows_per_page: f64,
    ) -> bool {
        let alpha = self.alpha;
        let entry = self.estimates.entry(key_of(table, predicate_sql));
        match entry {
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.selectivity = alpha * selectivity + (1.0 - alpha) * e.selectivity;
                e.row_wire_bytes = alpha * row_wire_bytes + (1.0 - alpha) * e.row_wire_bytes;
                e.temp_rows_per_page =
                    alpha * temp_rows_per_page + (1.0 - alpha) * e.temp_rows_per_page;
                e.observations += 1;
                true
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(Estimate {
                    selectivity,
                    row_wire_bytes,
                    temp_rows_per_page,
                    observations: 1,
                });
                false
            }
        }
    }

    /// Pin a table-level estimate (used by benches and the parity guard
    /// to plan against known-wrong or known-exact statistics).
    pub fn pin_table(&mut self, table: &str, estimate: Estimate) {
        self.estimates.insert(key_of(table, None), estimate);
    }

    /// Number of keys in the store.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Is the store empty (no observations or pins yet)?
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }
}

/// Snapshot of the host enclave's EPC at planning time, sampled from
/// [`ironsafe_tee::sgx::EpcSimulator`].
#[derive(Debug, Clone, Copy)]
pub struct EpcView {
    /// Pages currently resident (background working set + earlier
    /// stages' temp pages).
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
pub fn epc_cost_ns(temp: u64, epc: &EpcView, p: &CostParams) -> f64 {
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
pub fn offload_cost_ns(f: &FragmentStats, epc: &EpcView, p: &CostParams) -> f64 {
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
pub fn ship_pages_cost_ns(f: &FragmentStats, epc: &EpcView, p: &CostParams) -> f64 {
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

/// The decision rule: evaluate both placements and take the cheaper
/// one (ties offload, matching the static partitioner's preference).
/// Returns the decision with both candidate costs, so callers can log
/// the margin.
pub fn choose(f: &FragmentStats, epc: &EpcView, p: &CostParams) -> (OffloadDecision, f64, f64) {
    let off = offload_cost_ns(f, epc, p);
    let ship = ship_pages_cost_ns(f, epc, p);
    let decision =
        if off <= ship { OffloadDecision::Offload } else { OffloadDecision::ShipPages };
    (decision, off, ship)
}

/// Mid-flight re-planning policy: how far observed selectivity may
/// drift from the estimate before the remaining morsels are re-placed.
#[derive(Debug, Clone, Copy)]
pub struct ReplanPolicy {
    /// Absolute divergence band; inside it, never re-plan (hysteresis —
    /// an estimate oscillating within the band causes zero flapping).
    pub hysteresis: f64,
    /// Minimum rows observed before the divergence test is applied
    /// (early morsels are too noisy to act on).
    pub min_rows: u64,
    /// Morsels between divergence checkpoints.
    pub check_every: usize,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy { hysteresis: 0.2, min_rows: 256, check_every: 4 }
    }
}

/// Deterministic divergence detector over per-morsel `(rows_in,
/// rows_out)` slots (from a [`ScanWatch`](ironsafe_sql::exec::ScanWatch),
/// which records by morsel index — the result is identical at any DOP).
///
/// Walks the morsels in order, and at each checkpoint compares the
/// *cumulative* observed selectivity against `estimated`. Returns the
/// first `(switch_morsel, observed_selectivity)` where divergence
/// exceeds the hysteresis band — the re-plan point: morsels
/// `[0, switch_morsel)` ran under the original placement, the rest are
/// re-placed. Latches once; returns `None` when the estimate holds.
pub fn divergence_trip(
    slots: &[(u64, u64)],
    estimated: f64,
    policy: &ReplanPolicy,
) -> Option<(usize, f64)> {
    let mut cum_in = 0u64;
    let mut cum_out = 0u64;
    for (i, &(rows_in, rows_out)) in slots.iter().enumerate() {
        cum_in += rows_in;
        cum_out += rows_out;
        let at_checkpoint = (i + 1) % policy.check_every.max(1) == 0;
        if !at_checkpoint || cum_in < policy.min_rows {
            continue;
        }
        let observed = cum_out as f64 / cum_in as f64;
        if (observed - estimated).abs() > policy.hysteresis {
            // Never "re-plan" after the last morsel — there is nothing
            // left to re-place.
            if i + 1 < slots.len() {
                return Some((i + 1, observed));
            }
            return None;
        }
    }
    None
}

/// Live `plan.*` counters for the adaptive planner.
#[derive(Debug, Clone, Default)]
pub struct PlanMetrics {
    /// Fragments the cost rule offloaded (`plan.decide.offload`).
    pub decide_offload: Counter,
    /// Fragments the cost rule kept on the host (`plan.decide.ship_pages`).
    pub decide_ship_pages: Counter,
    /// EWMA estimates refined by observed row counts
    /// (`plan.estimate.refined`).
    pub estimate_refined: Counter,
    /// Mid-flight re-plans committed (`plan.replan`).
    pub replans: Counter,
}

impl PlanMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach every cell to `registry` under its `plan.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("plan.decide.offload", &self.decide_offload);
        registry.register_counter("plan.decide.ship_pages", &self.decide_ship_pages);
        registry.register_counter("plan.estimate.refined", &self.estimate_refined);
        registry.register_counter("plan.replan", &self.replans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_sql::parser::parse_expression;

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
    fn priors_follow_predicate_shape() {
        let sel = |s: &str| prior_selectivity(&parse_expression(s).unwrap());
        assert!(sel("a = 1") < sel("a < 1"));
        assert!(sel("a < 1") < sel("a <> 1"));
        assert!(sel("a < 1 AND b < 1") < sel("a < 1"));
        assert!(sel("a < 1 OR b < 1") > sel("a < 1"));
        assert!(sel("a NOT LIKE '%x%'") > 0.8, "weak NOT LIKE keeps most rows");
        assert!(sel("a BETWEEN 1 AND 2") < sel("a < 1"));
        // Q6's conjunct stack is extremely selective a priori.
        let q6 = sel(
            "l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
             AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        );
        assert!(q6 < 0.02, "q6 prior {q6}");
    }

    #[test]
    fn ewma_first_observation_sets_exactly_then_blends() {
        let mut s = AdaptiveState::new();
        assert!(!s.observe("lineitem", Some("l_quantity < 24"), 0.4, 30.0, 64.0));
        let e = s.lookup("lineitem", Some("l_quantity < 24")).unwrap();
        assert_eq!(e.selectivity, 0.4);
        assert_eq!(e.observations, 1);
        assert!(s.observe("lineitem", Some("l_quantity < 24"), 0.8, 30.0, 64.0));
        let e = s.lookup("lineitem", Some("l_quantity < 24")).unwrap();
        assert!((e.selectivity - 0.6).abs() < 1e-12, "alpha=0.5 blend");
        assert_eq!(e.observations, 2);
    }

    #[test]
    fn table_pin_is_the_fallback() {
        let mut s = AdaptiveState::new();
        s.pin_table(
            "lineitem",
            Estimate {
                selectivity: 0.01,
                row_wire_bytes: 24.0,
                temp_rows_per_page: 70.0,
                observations: 100,
            },
        );
        assert_eq!(s.lookup("lineitem", Some("anything")).unwrap().selectivity, 0.01);
        assert!(s.lookup("orders", None).is_none());
    }

    #[test]
    fn selective_fragments_offload_weak_ones_ship() {
        let p = CostParams::default();
        let epc = EpcView::empty(p.epc_limit_bytes);
        let (d, off, ship) = choose(&stats(0.01), &epc, &p);
        assert_eq!(d, OffloadDecision::Offload);
        assert!(off < ship);
        let (d, off, ship) = choose(&stats(1.0), &epc, &p);
        assert_eq!(d, OffloadDecision::ShipPages);
        assert!(ship < off, "serialize + per-row wire beats page wire at sel=1: {off} vs {ship}");
    }

    #[test]
    fn epc_pressure_flips_the_decision_toward_offload() {
        let p = CostParams::default();
        // At sel=1.0 with a calm EPC, shipping raw pages wins…
        let calm = EpcView::empty(p.epc_limit_bytes);
        let f = stats(0.9);
        let (d, ..) = choose(&f, &calm, &p);
        assert_eq!(d, OffloadDecision::ShipPages);
        // …but near-full occupancy makes the larger raw working set
        // cross the paging cliff the filtered one avoids.
        let cap = calm.capacity_pages;
        let pressured = EpcView {
            occupied_pages: cap - temp_pages(f.table_rows, f.temp_rows_per_page) + 10,
            capacity_pages: cap,
        };
        let (d, off, ship) = choose(&f, &pressured, &p);
        assert_eq!(d, OffloadDecision::Offload, "off {off} ship {ship}");
    }

    #[test]
    fn divergence_trips_once_past_the_band_and_never_inside_it() {
        let policy = ReplanPolicy { hysteresis: 0.2, min_rows: 100, check_every: 2 };
        // Observed ≈ estimate: no trip.
        let calm: Vec<(u64, u64)> = (0..10).map(|_| (100, 50)).collect();
        assert_eq!(divergence_trip(&calm, 0.5, &policy), None);
        // Observed selectivity 1.0 against estimate 0.1: trips at the
        // first eligible checkpoint (morsel index 1 → switch at 2).
        let hot: Vec<(u64, u64)> = (0..10).map(|_| (100, 100)).collect();
        assert_eq!(divergence_trip(&hot, 0.1, &policy), Some((2, 1.0)));
    }

    #[test]
    fn divergence_never_trips_after_the_last_morsel() {
        let policy = ReplanPolicy { hysteresis: 0.1, min_rows: 10_000, check_every: 2 };
        // min_rows so high the first eligible checkpoint is the final
        // morsel — nothing left to re-place, so no trip.
        let slots: Vec<(u64, u64)> = (0..6).map(|_| (2000, 2000)).collect();
        assert_eq!(divergence_trip(&slots, 0.0, &policy), None);
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
                // The adaptive rule picks min(offload, ship): for ANY
                // (selectivity, EPC occupancy, interconnect) point its
                // cost is ≤ both static policies' costs.
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
                let (_, off, ship) = choose(&f, &epc, &p);
                let chosen = off.min(ship);
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

            #[test]
            fn no_flapping_inside_the_hysteresis_band(
                estimate in 0.1f64..=0.9,
                wobble in 0.0f64..0.049,
                morsels in 4usize..40,
            ) {
                // Observed selectivity oscillates ±wobble around the
                // estimate, well inside the 0.2 band: never re-plans.
                let policy = ReplanPolicy::default();
                let slots: Vec<(u64, u64)> = (0..morsels)
                    .map(|i| {
                        let s = if i % 2 == 0 { estimate + wobble } else { estimate - wobble };
                        (1000, (1000.0 * s.clamp(0.0, 1.0)).round() as u64)
                    })
                    .collect();
                prop_assert_eq!(divergence_trip(&slots, estimate, &policy), None);
            }

            #[test]
            fn priors_are_probabilities(pick in 0usize..13) {
                const SHAPES: [&str; 13] = [
                    "a = 1", "a < 1", "a <> 1", "NOT a < 1",
                    "a BETWEEN 1 AND 2", "a NOT BETWEEN 1 AND 2",
                    "a LIKE '%x%'", "a NOT LIKE '%x%'",
                    "a IS NULL", "a IS NOT NULL",
                    "a IN (1, 2, 3)", "a NOT IN (1, 2)",
                    "a < 1 AND b = 2 OR c <> 3",
                ];
                let seed = SHAPES[pick];
                let e = parse_expression(seed).unwrap();
                let s = prior_selectivity(&e);
                prop_assert!((0.0..=1.0).contains(&s), "{seed}: {s}");
            }
        }
    }
}
