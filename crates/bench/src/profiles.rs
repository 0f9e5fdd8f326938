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

use crate::figures::SEED;
use ironsafe_csa::{CostParams, CsaSystem, QueryProfile, SystemConfig};
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
        let mut sys =
            CsaSystem::build(config, &data, CostParams::default()).expect("system builds");
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

/// Serialize a profile sweep as the `BENCH_6.json` snapshot: a
/// deterministic envelope around each profile's own stable JSON.
pub fn profiles_json(sf: f64, profiles: &[QueryProfile]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"sf\": {sf},\n  \"seed\": {SEED},\n  \"profiles\": [\n"));
    for (i, p) in profiles.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&p.to_json());
        s.push_str(if i + 1 == profiles.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A `BENCH_7…10.json` snapshot: nothing but the gated, byte-deterministic
/// `"invariants"` block (wall-clock numbers live in `perf/`).
pub fn snapshot_json(invariants_block: &str) -> String {
    format!("{{\n{invariants_block}\n}}\n")
}

/// Regression gate: compare a freshly generated snapshot against the
/// committed baseline, byte for byte. Returns a human-readable report
/// of the first few diverging lines (empty = pass).
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
    use ironsafe_obs::export::looks_like_valid_json;

    #[test]
    fn profile_snapshot_is_deterministic_valid_json() {
        let configs = [SystemConfig::IronSafe];
        let a = profiles_json(PROFILE_SF, &profile_matrix(PROFILE_SF, &configs, &[6]));
        let b = profiles_json(PROFILE_SF, &profile_matrix(PROFILE_SF, &configs, &[6]));
        assert_eq!(a, b, "snapshot must be byte-deterministic");
        assert!(looks_like_valid_json(&a), "{a}");
        assert!(a.contains("\"config\":\"scs\""));
        assert!(diff_snapshots(&a, &b).is_empty());
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
