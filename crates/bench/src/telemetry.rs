//! Trace export for `paperbench --metrics-out`.
//!
//! Runs every paper query on the full IronSafe configuration, collects
//! the per-query span trees the cost model records, and merges them into
//! one Chrome `trace_event` file (one `pid` lane per query, loadable in
//! Perfetto or `chrome://tracing`). Live subsystem counters (secure
//! pager, enclave, network channel) ride along as a JSON-lines sidecar.

use crate::figures::{system, SEED};
use ironsafe_csa::{CostParams, SystemConfig};
use ironsafe_obs::export::{metrics_to_jsonl, spans_to_chrome_trace};
use ironsafe_obs::Registry;
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::paper_queries;

/// Output of [`collect_traces`]: the merged Chrome trace plus a metrics
/// snapshot rendered as JSON lines.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Chrome `trace_event` JSON (an array of complete events).
    pub chrome_trace: String,
    /// `metrics_to_jsonl` dump of every registered counter after the run.
    pub metrics_jsonl: String,
    /// Number of queries traced.
    pub queries: usize,
    /// Total spans across all traces.
    pub spans: usize,
}

/// Run all paper queries under IronSafe at `sf` and bundle their traces.
pub fn collect_traces(sf: f64) -> TraceBundle {
    let data = generate(sf, SEED);
    let mut sys = system(SystemConfig::IronSafe, &data, CostParams::default());
    let registry = Registry::new();
    sys.storage_db().register_metrics(&registry);
    sys.register_exec_metrics(&registry);
    // A zero-rate plan: injects nothing, but exports the `faults.*`
    // counters so dashboards see the recovery path even when idle.
    let fault_plan = ironsafe_faults::FaultPlan::seeded(SEED);
    sys.set_fault_plan(fault_plan.clone());
    fault_plan.register_metrics(&registry);

    let mut merged = String::from("[");
    let mut first = true;
    let mut queries = 0usize;
    let mut spans = 0usize;
    for q in paper_queries() {
        sys.run_query(&q).unwrap_or_else(|e| panic!("scs Q{}: {e}", q.id));
        let trace = sys.last_trace().expect("run_query records a trace");
        // One pid lane per query so Perfetto shows them side by side.
        let events = spans_to_chrome_trace(trace, q.id as u64, 1);
        let inner = events.trim().trim_start_matches('[').trim_end_matches(']').trim();
        if !inner.is_empty() {
            if !first {
                merged.push(',');
            }
            first = false;
            merged.push('\n');
            merged.push_str(inner);
        }
        queries += 1;
        spans += trace.spans.len();
    }
    merged.push_str("\n]\n");

    TraceBundle {
        chrome_trace: merged,
        metrics_jsonl: metrics_to_jsonl(&registry.snapshot()),
        queries,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_obs::export::looks_like_valid_json;

    #[test]
    fn merged_chrome_trace_is_valid_json() {
        let bundle = collect_traces(0.001);
        assert!(looks_like_valid_json(&bundle.chrome_trace), "{}", bundle.chrome_trace);
        assert!(bundle.chrome_trace.trim_start().starts_with('['));
        assert!(bundle.chrome_trace.contains("\"name\":\"query/q1\""));
        assert!(bundle.queries >= 5);
        assert!(bundle.spans > bundle.queries, "each query has stage spans");
        // Counters from the secure pager made it into the sidecar.
        assert!(bundle.metrics_jsonl.contains("storage.page.read"));
        // The fault-injection counters export too (zero under a
        // zero-rate plan, but present for dashboards).
        for name in ["faults.injected", "faults.retried", "faults.recovered", "faults.exhausted"] {
            assert!(bundle.metrics_jsonl.contains(name), "missing {name}");
        }
        for line in bundle.metrics_jsonl.lines() {
            assert!(looks_like_valid_json(line), "{line}");
        }
    }
}
