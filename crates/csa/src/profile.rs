//! Query profiles: the `EXPLAIN ANALYZE` upgrade.
//!
//! A [`QueryProfile`] is assembled by
//! [`CsaSystem::profile_query`](crate::CsaSystem::profile_query) from the same
//! telemetry a normal run already produces — the span tree, the pager
//! counter deltas and the per-operator row counts captured from every
//! drained plan. Nothing in here is estimated: the breakdown is
//! re-derived from the trace with [`CostBreakdown::from_trace`] and the
//! pager delta is measured around the run, so the golden-parity test
//! (`csa/tests/profile_parity.rs`) can pin the profile bit-identical to
//! the [`CostBreakdown`]/[`PagerStats`] the figures are built from.
//!
//! The profile renders as an annotated plan (for `EXPLAIN ANALYZE`
//! output) and exports as stable hand-written JSON (for the
//! `paperbench profile` regression gate).

use crate::cost::CostBreakdown;
use crate::system::SystemConfig;
use ironsafe_obs::export::escape_json;
use ironsafe_sql::exec::OperatorProfile;
use ironsafe_storage::pager::PagerStats;
use std::fmt::Write as _;

/// One accounting span's directly-attributed simulated time (a cost
/// term such as `storage/device_io` or `tee/epc_paging`), in
/// span-creation order.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTerm {
    /// Span name as charged by the runner.
    pub name: String,
    /// Simulated nanoseconds attributed directly to the span.
    pub sim_ns: f64,
}

/// Where one executed plan ran, and in what transfer mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Host engine (host-only stages, or the join/aggregate of a split).
    Host,
    /// Storage engine, whole stage (`sos`).
    Storage,
    /// Storage fragment with the filter pushed down; surviving rows are
    /// serialized and sealed through the channel.
    StorageOffload,
}

impl Placement {
    /// Stable lowercase name used in `render()` and `to_json()`.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            Placement::Host => "host",
            Placement::Storage => "storage",
            Placement::StorageOffload => "storage-offload",
        }
    }
}

/// Per-operator row counts for one executed plan (a stage, a storage
/// fragment, or the host-side join/aggregate of a split run).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    /// Where in the run this plan executed, e.g. `stage0/fragment/lineitem`.
    pub label: String,
    /// Where the plan ran (host, storage, and the transfer mode).
    pub placement: Placement,
    /// The pushed-down predicate, rendered as SQL (offloaded fragments
    /// with a WHERE clause only).
    pub pushdown_filter: Option<String>,
    /// Selectivity actually observed for the pushed predicate.
    pub observed_selectivity: Option<f64>,
    /// Preorder operator profiles captured after the plan drained.
    pub operators: Vec<OperatorProfile>,
}

impl PlanProfile {
    /// A plain profile with no pushdown annotations.
    pub(crate) fn new(label: String, placement: Placement, operators: Vec<OperatorProfile>) -> Self {
        PlanProfile {
            label,
            placement,
            pushdown_filter: None,
            observed_selectivity: None,
            operators,
        }
    }
}

/// Enclave-side observations a run records beyond the pager counters:
/// transition counts, EPC faults and per-stage EPC occupancy samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileExtras {
    /// Enclave transitions (ECALL/OCALL pairs) the run charged for.
    pub enclave_transitions: u64,
    /// EPC page faults observed by the host enclave's EPC simulator
    /// (split configurations only).
    pub epc_faults: u64,
    /// EPC resident-page samples, one per executed stage (split secure
    /// configurations only).
    pub epc_occupancy_pages: Vec<u64>,
}

/// Full per-query execution profile: the span tree's cost terms, the
/// measured pager delta, per-operator row counts, and the enclave
/// counters — everything `EXPLAIN ANALYZE` annotates and everything the
/// regression gate pins.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Configuration the query ran under.
    pub config: SystemConfig,
    /// TPC-H query number (0 for ad-hoc statements).
    pub query_id: u8,
    /// Degree of parallelism the run used.
    pub dop: usize,
    /// Simulated-time breakdown re-derived from the run's trace — the
    /// parity test asserts it equals the report's breakdown bit-for-bit.
    pub breakdown: CostBreakdown,
    /// Pager counter delta measured around the run.
    pub pager: PagerStats,
    /// Pages read from the medium near the data (from the report).
    pub pages_read_storage: u64,
    /// Page-equivalents moved between storage and host.
    pub pages_shipped: u64,
    /// Rows shipped storage→host.
    pub rows_shipped: u64,
    /// Bytes moved across the interconnect.
    pub bytes_shipped: u64,
    /// Page MACs verified (`storage.page.hmac_verify` delta).
    pub macs_verified: u64,
    /// Verified-node cache hits (`storage.merkle.cache.hit` delta).
    pub merkle_cache_hits: u64,
    /// Verified-node cache misses (`storage.merkle.cache.miss` delta).
    pub merkle_cache_misses: u64,
    /// Enclave transitions the run charged for.
    pub enclave_transitions: u64,
    /// EPC faults observed by the host enclave's simulator.
    pub epc_faults: u64,
    /// Per-stage EPC resident-page samples.
    pub epc_occupancy_pages: Vec<u64>,
    /// Accounting spans with nonzero attributed simulated time, in
    /// span-creation order.
    pub cost_terms: Vec<CostTerm>,
    /// Per-operator row counts for every plan the run drained.
    pub plans: Vec<PlanProfile>,
    /// Total spans in the run's trace.
    pub span_count: usize,
    /// Spans tagged with an error (faulted attempts that rolled back).
    pub error_span_count: usize,
}

impl QueryProfile {
    /// Render the annotated plan: per-operator rows and selectivity,
    /// the simulated-time breakdown, cost terms and counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Q{} profile — config={} dop={}",
            self.query_id,
            self.config.abbrev(),
            self.dop
        );
        let b = &self.breakdown;
        let _ = writeln!(out, "simulated total: {:.0} ns", b.total_ns());
        let _ = writeln!(
            out,
            "  ndp={:.0} freshness={:.0} crypto={:.0} transitions={:.0} epc={:.0} other={:.0}",
            b.ndp_ns, b.freshness_ns, b.crypto_ns, b.transitions_ns, b.epc_ns, b.other_ns
        );
        for plan in &self.plans {
            let _ = write!(out, "plan {} [placement={}", plan.label, plan.placement.as_str());
            if let Some(f) = &plan.pushdown_filter {
                let _ = write!(out, ", pushdown {f}");
            }
            out.push_str("]:\n");
            for op in &plan.operators {
                for _ in 0..op.depth {
                    out.push_str("  ");
                }
                out.push_str("  ");
                out.push_str(&op.describe);
                if op.leaf {
                    let _ = write!(out, " (rows out={})", op.rows_out);
                } else {
                    let _ = write!(out, " (rows in={} out={})", op.rows_in, op.rows_out);
                }
                if let Some(sel) = op.selectivity() {
                    let _ = write!(out, " [sel={sel:.4}]");
                }
                out.push('\n');
            }
        }
        out.push_str("cost terms:\n");
        for t in &self.cost_terms {
            let _ = writeln!(out, "  {:<28} {:.0} ns", t.name, t.sim_ns);
        }
        let p = &self.pager;
        let _ = writeln!(
            out,
            "pager: reads={} writes={} decrypts={} encrypts={} merkle_nodes={} rpmb={}",
            p.page_reads, p.page_writes, p.decrypts, p.encrypts, p.merkle_nodes, p.rpmb_ops
        );
        let _ = writeln!(
            out,
            "secure: macs_verified={} merkle_cache hit={} miss={} transitions={} epc_faults={}",
            self.macs_verified,
            self.merkle_cache_hits,
            self.merkle_cache_misses,
            self.enclave_transitions,
            self.epc_faults
        );
        let _ = writeln!(
            out,
            "shipped: pages={} rows={} bytes={} | spans={} errors={}",
            self.pages_shipped,
            self.rows_shipped,
            self.bytes_shipped,
            self.span_count,
            self.error_span_count
        );
        out
    }

    /// Stable hand-written JSON export (keys in a fixed order), consumed
    /// by the `paperbench profile` regression gate.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let b = &self.breakdown;
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"query_id\":{},\"dop\":{}",
            self.config.abbrev(),
            self.query_id,
            self.dop
        );
        let _ = write!(
            out,
            ",\"breakdown\":{{\"ndp_ns\":{:.0},\"freshness_ns\":{:.0},\"crypto_ns\":{:.0},\"transitions_ns\":{:.0},\"epc_ns\":{:.0},\"other_ns\":{:.0},\"total_ns\":{:.0}}}",
            b.ndp_ns, b.freshness_ns, b.crypto_ns, b.transitions_ns, b.epc_ns, b.other_ns, b.total_ns()
        );
        let p = &self.pager;
        let _ = write!(
            out,
            ",\"pager\":{{\"page_reads\":{},\"page_writes\":{},\"decrypts\":{},\"encrypts\":{},\"merkle_nodes\":{},\"rpmb_ops\":{}}}",
            p.page_reads, p.page_writes, p.decrypts, p.encrypts, p.merkle_nodes, p.rpmb_ops
        );
        let _ = write!(
            out,
            ",\"pages_read_storage\":{},\"pages_shipped\":{},\"rows_shipped\":{},\"bytes_shipped\":{}",
            self.pages_read_storage, self.pages_shipped, self.rows_shipped, self.bytes_shipped
        );
        let _ = write!(
            out,
            ",\"macs_verified\":{},\"merkle_cache_hits\":{},\"merkle_cache_misses\":{},\"enclave_transitions\":{},\"epc_faults\":{}",
            self.macs_verified,
            self.merkle_cache_hits,
            self.merkle_cache_misses,
            self.enclave_transitions,
            self.epc_faults
        );
        out.push_str(",\"epc_occupancy_pages\":[");
        for (i, v) in self.epc_occupancy_pages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("],\"cost_terms\":[");
        for (i, t) in self.cost_terms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"sim_ns\":{:.0}}}", escape_json(&t.name), t.sim_ns);
        }
        out.push_str("],\"plans\":[");
        for (i, plan) in self.plans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"placement\":\"{}\"",
                escape_json(&plan.label),
                plan.placement.as_str()
            );
            match &plan.pushdown_filter {
                Some(f) => {
                    let _ = write!(out, ",\"pushdown_filter\":\"{}\"", escape_json(f));
                }
                None => out.push_str(",\"pushdown_filter\":null"),
            }
            match plan.observed_selectivity {
                Some(v) => {
                    let _ = write!(out, ",\"observed_selectivity\":{v:.6}");
                }
                None => out.push_str(",\"observed_selectivity\":null"),
            }
            out.push_str(",\"operators\":[");
            for (j, op) in plan.operators.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"depth\":{},\"describe\":\"{}\",\"rows_in\":{},\"rows_out\":{},\"leaf\":{}}}",
                    op.depth,
                    escape_json(&op.describe),
                    op.rows_in,
                    op.rows_out,
                    op.leaf
                );
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"span_count\":{},\"error_span_count\":{}}}",
            self.span_count, self.error_span_count
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        QueryProfile {
            config: SystemConfig::IronSafe,
            query_id: 6,
            dop: 1,
            breakdown: CostBreakdown {
                ndp_ns: 100.0,
                freshness_ns: 20.0,
                crypto_ns: 30.0,
                transitions_ns: 5.0,
                epc_ns: 1.0,
                other_ns: 2.0,
            },
            pager: PagerStats { page_reads: 9, decrypts: 9, merkle_nodes: 40, ..Default::default() },
            pages_read_storage: 9,
            pages_shipped: 1,
            rows_shipped: 12,
            bytes_shipped: 512,
            macs_verified: 9,
            merkle_cache_hits: 30,
            merkle_cache_misses: 10,
            enclave_transitions: 2,
            epc_faults: 0,
            epc_occupancy_pages: vec![3],
            cost_terms: vec![CostTerm { name: "storage/device_io".into(), sim_ns: 100.0 }],
            plans: vec![PlanProfile {
                label: "stage0/fragment/lineitem".into(),
                placement: Placement::StorageOffload,
                pushdown_filter: Some("x > 1".into()),
                observed_selectivity: Some(0.12),
                operators: vec![
                    OperatorProfile {
                        depth: 0,
                        describe: "Filter: x > 1".into(),
                        rows_in: 100,
                        rows_out: 12,
                        leaf: false,
                    },
                    OperatorProfile {
                        depth: 1,
                        describe: "Values (16 columns)".into(),
                        rows_in: 0,
                        rows_out: 100,
                        leaf: true,
                    },
                ],
            }],
            span_count: 7,
            error_span_count: 0,
        }
    }

    #[test]
    fn render_annotates_rows_and_selectivity() {
        let text = sample().render();
        assert!(text.contains("Q6 profile — config=scs dop=1"));
        assert!(text.contains("Filter: x > 1 (rows in=100 out=12) [sel=0.1200]"));
        assert!(text.contains("Values (16 columns) (rows out=100)"));
        assert!(text.contains("macs_verified=9"));
        assert!(text.contains("storage/device_io"));
        assert!(text.contains("placement=storage-offload, pushdown x > 1]"), "{text}");
    }

    #[test]
    fn json_is_valid_and_stable() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b, "same profile must serialize identically");
        assert!(ironsafe_obs::export::looks_like_valid_json(&a), "{a}");
        assert!(a.contains("\"query_id\":6"));
        assert!(a.contains("\"macs_verified\":9"));
        assert!(a.contains("\"describe\":\"Values (16 columns)\""));
        assert!(a.contains("\"placement\":\"storage-offload\""), "{a}");
        assert!(a.contains("\"pushdown_filter\":\"x > 1\""));
        assert!(a.contains("\"observed_selectivity\":0.120000"));
    }
}
