//! The `paperbench profile` harness: end-to-end `EXPLAIN ANALYZE`
//! profiles for Q1/Q6 across every Table 2 configuration, exported as
//! the `BENCH_6.json` snapshot and byte-compared against the committed
//! baseline as a deterministic regression gate.
//!
//! Every number in the snapshot is derived from the simulated cost
//! model and the deterministic pager/TEE counters — never wall-clock —
//! so the same toolchain, scale factor and seed always reproduce the
//! file byte for byte. A counter that drifts (an extra page read, a
//! lost MAC verification, a perturbed cost term) fails the gate before
//! it reaches `main`.

use crate::figures::{system, SEED};
use crate::table::Snapshot;
use ironsafe_csa::{CostParams, QueryProfile, SystemConfig};
use ironsafe_tpch::generate;

/// Default scale factor for the profile gate: small enough that the
/// whole sweep (10 profiled runs) finishes in seconds.
pub const PROFILE_SF: f64 = 0.002;

/// Profile each query id under each configuration, on a fresh system
/// per configuration (queries share the system, so Merkle-cache warm-up
/// order is part of the pinned baseline).
pub fn profile_matrix(sf: f64, configs: &[SystemConfig], query_ids: &[u8]) -> Vec<QueryProfile> {
    let data = generate(sf, SEED);
    let mut out = Vec::new();
    for &config in configs {
        let mut sys = system(config, &data, CostParams::default());
        for &id in query_ids {
            let q = ironsafe_tpch::queries::query(id).expect("known query");
            let (_, profile) = sys
                .profile_query(&q)
                .unwrap_or_else(|e| panic!("{} Q{id}: {e}", config.abbrev()));
            out.push(profile);
        }
    }
    out
}

/// The `BENCH_6.json` snapshot: each profile's own stable JSON.
pub fn profiles_snapshot(sf: f64, profiles: &[QueryProfile]) -> Snapshot {
    Snapshot::top_level(sf).raw("profiles", profiles.iter().map(QueryProfile::to_json).collect())
}

/// Compare a freshly generated snapshot against the committed baseline,
/// byte for byte. Returns a human-readable report of the first few
/// diverging lines (empty = pass).
pub fn diff_snapshots(baseline: &str, current: &str) -> Vec<String> {
    if baseline == current {
        return Vec::new();
    }
    let mut report = Vec::new();
    let base_lines: Vec<&str> = baseline.lines().collect();
    let cur_lines: Vec<&str> = current.lines().collect();
    if base_lines.len() != cur_lines.len() {
        report.push(format!(
            "line count differs: baseline {} vs current {}",
            base_lines.len(),
            cur_lines.len()
        ));
    }
    for (n, (b, c)) in base_lines.iter().zip(&cur_lines).enumerate() {
        if b != c {
            report.push(format!("line {}:\n  baseline: {b}\n  current:  {c}", n + 1));
            if report.len() >= 5 {
                report.push("... (further differences elided)".to_string());
                break;
            }
        }
    }
    if report.is_empty() {
        // Same shared prefix but different trailing bytes/newlines.
        report.push("files differ only in trailing content".to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::assert_deterministic_and_gated;

    #[test]
    fn profile_snapshot_is_deterministic_valid_json() {
        let json = assert_deterministic_and_gated(|| {
            profiles_snapshot(PROFILE_SF, &profile_matrix(PROFILE_SF, &[SystemConfig::IronSafe], &[6]))
        });
        assert!(json.contains("\"config\":\"scs\""));
    }

    #[test]
    fn diff_reports_first_divergence() {
        let base = "{\n  \"x\": 1,\n  \"y\": 2\n}\n";
        let cur = "{\n  \"x\": 1,\n  \"y\": 3\n}\n";
        let report = diff_snapshots(base, cur);
        assert!(!report.is_empty());
        assert!(report[0].contains("line 3"), "{report:?}");
        assert!(diff_snapshots(base, base).is_empty());
    }
}
