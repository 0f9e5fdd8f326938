//! Noise tooling. `perf sweep` runs every workload N times at the declared
//! run length, each run a fresh process, with the seeds 1..=N — the same
//! list in every sweep, so two sweeps differ by the machine alone.
//! `perf compare` judges two sweeps three ways:
//!
//! * the driver's rule: a set's quartile distance as a share of its median
//!   stays within the metric's bound, and the second set's median is not
//!   worse than the first's by more than the bound;
//! * the issue's steadiness criterion: the quartile distance is at most
//!   [`STEADY_IQR`] of the median, with at most one run further than
//!   [`OUTLIER`] from it;
//! * the [`EXACT`] metrics read the same in both sweeps, seed by seed.

use crate::json::{self, Json};
use crate::metrics::{definition, EndToEnd};
use crate::report::Outcome;
use crate::stats::{max, median, min, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// `values[workload][metric]` over the runs of one sweep, in seed order.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Metrics that are functions of `--seed` alone: any difference between
/// two runs of one seed is a change of the reproduction, not noise.
pub const EXACT: [&str; 2] = ["sim_ms_per_op", "space_amp"];

/// Largest quartile distance ÷ median a steady metric shows within a set.
pub const STEADY_IQR: f64 = 0.05;
/// A run further than this share from its set's median is an outlier.
pub const OUTLIER: f64 = 0.10;

/// Run every workload `runs` times, each in a child process of this
/// executable, and return the sweep file's text.
pub fn sweep(runs: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let def = definition();
    let seconds = def.run_seconds;
    let mut doc = format!("{{\"seconds\": {seconds}, \"runs\": {{");
    for (wi, name) in def.workloads.iter().enumerate() {
        let _ = write!(
            doc,
            "{}\n  {}: [",
            if wi > 0 { "," } else { "" },
            json::quote(name)
        );
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !out.status.success() {
                return Err(format!(
                    "{name} seed {seed}: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let outcome =
                Outcome::from_line(line).map_err(|e| format!("{name} seed {seed}: {e}"))?;
            if !outcome.correct {
                return Err(format!(
                    "{name} seed {seed}: {} of {} failed",
                    outcome.failed, outcome.attempted
                ));
            }
            eprintln!("{name} seed {seed}:\n{stdout}");
            let metrics: Vec<String> = outcome
                .metrics
                .iter()
                .map(|(n, v, _)| format!("{}: {v}", json::quote(n)))
                .collect();
            let _ = write!(
                doc,
                "{}\n    {{\"seed\": {seed}, {}}}",
                if seed > 1 { "," } else { "" },
                metrics.join(", ")
            );
        }
        doc.push_str("\n  ]");
    }
    doc.push_str("\n}}\n");
    Ok(doc)
}

/// Read a sweep file back. The seeds come back as the metric `seed`.
pub fn parse_set(text: &str) -> Result<Set, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_obj)
        .ok_or("sweep file has no `runs`")?;
    let mut set = Set::new();
    for (workload, list) in runs {
        let per_metric = set.entry(workload.clone()).or_default();
        for run in list.as_arr().ok_or("`runs` entries are arrays")? {
            for (name, value) in run.as_obj().ok_or("a run is an object")? {
                per_metric
                    .entry(name.clone())
                    .or_default()
                    .push(value.as_f64().ok_or("metric value")?);
            }
        }
    }
    Ok(set)
}

/// Spread of one metric over one set.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 − q1) ÷ median`: what the driver holds against the bound.
    pub iqr_share: f64,
    /// `(max − min) ÷ median`.
    pub range_share: f64,
    /// Runs further than [`OUTLIER`] from the median.
    pub outliers: usize,
}

impl Spread {
    /// The issue's criterion for a metric that repeats.
    pub fn steady(&self) -> bool {
        self.iqr_share <= STEADY_IQR && self.outliers <= 1
    }
}

/// Spread of `values` (at least two).
pub fn spread(values: &[f64]) -> Spread {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    Spread {
        median: med,
        q1,
        q3,
        iqr_share: (q3 - q1) / med,
        range_share: (max(values) - min(values)) / med,
        outliers: values
            .iter()
            .filter(|v| ((*v - med) / med).abs() > OUTLIER)
            .count(),
    }
}

/// By how much of `first` the median `second` is worse (negative: better).
pub fn worsening(metric: &EndToEnd, first: f64, second: f64) -> f64 {
    if metric.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// One set as a table: per workload × metric, median, quartiles, spreads
/// and PASS/FAIL of the quartile distance against the bound.
pub fn render_set(set: &Set) -> String {
    let mut out = String::from(
        "| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | beyond 10% | bound | |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let def = definition();
    for w in &def.workloads {
        for m in &def.end_to_end {
            let Some(values) = set.get(w).and_then(|per| per.get(&m.name)) else {
                continue;
            };
            let s = spread(values);
            let _ = writeln!(
                out,
                "| {w} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} | {} | {} |",
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.iqr_share,
                s.range_share,
                s.outliers,
                m.bound,
                if m.name == "setup_s" || s.iqr_share <= m.bound {
                    "PASS"
                } else {
                    "FAIL"
                }
            );
        }
    }
    out
}

/// Two sets side by side; returns the table and whether every row passed
/// the driver's rule and every [`EXACT`] metric repeated seed by seed.
/// The steadiness criterion is reported in its own column and does not
/// decide the exit code: a bound is the benchmark's, the criterion is the
/// issue's, and a table that says "not steady" is a finding, not an error.
pub fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut out = String::from(
        "| workload | metric | median A | median B | B worse by | (q3-q1)/median A | B | (max-min)/median A | B | beyond 10% A | B | steady | bound | |\n|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut all_pass = true;
    let def = definition();
    for w in &def.workloads {
        for m in &def.end_to_end {
            let pick = |set: &'_ Set, name: &str| set.get(w).and_then(|per| per.get(name)).cloned();
            let (Some(va), Some(vb)) = (pick(a, &m.name), pick(b, &m.name)) else {
                continue;
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let worse = worsening(m, sa.median, sb.median);
            // The driver exempts setup_s from the spread rule only.
            let spread_ok =
                m.name == "setup_s" || (sa.iqr_share <= m.bound && sb.iqr_share <= m.bound);
            let exact_ok = !EXACT.contains(&m.name.as_str())
                || (pick(a, "seed") == pick(b, "seed") && va == vb);
            let pass = spread_ok && worse <= m.bound && exact_ok;
            all_pass &= pass;
            let _ = writeln!(
                out,
                "| {w} | {} | {:.4} | {:.4} | {:+.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} | {} | {} | {} | {} |",
                m.name,
                sa.median,
                sb.median,
                worse,
                sa.iqr_share,
                sb.iqr_share,
                sa.range_share,
                sb.range_share,
                sa.outliers,
                sb.outliers,
                if sa.steady() && sb.steady() { "yes" } else { "NO" },
                m.bound,
                match (pass, exact_ok) {
                    (true, _) => "PASS",
                    (false, false) => "FAIL: differs at the same seed",
                    (false, true) => "FAIL",
                }
            );
        }
    }
    (out, all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(values: &[f64]) -> Set {
        let def = definition();
        let mut per: BTreeMap<String, Vec<f64>> = def
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), values.to_vec()))
            .collect();
        per.insert(
            "seed".into(),
            (1..=values.len()).map(|s| s as f64).collect(),
        );
        def.workloads
            .iter()
            .map(|w| (w.clone(), per.clone()))
            .collect()
    }

    /// Within a thousandth of the median: inside even the tightest bound.
    const TIGHT: [f64; 5] = [100.0, 100.02, 99.98, 100.01, 99.99];

    #[test]
    fn tight_sets_pass_and_a_shifted_set_fails() {
        let def = definition();
        let a = set_of(&TIGHT);
        let (table, ok) = compare(&a, &a);
        assert!(ok, "{table}");
        assert_eq!(
            table.lines().count(),
            2 + def.workloads.len() * def.end_to_end.len()
        );
        assert!(!table.contains("NO"), "{table}");
        // 30 % higher: worse for every lower-is-better metric.
        let b = set_of(&TIGHT.map(|v| v * 1.3));
        let (table, ok) = compare(&a, &b);
        assert!(!ok);
        let row = |metric: &str| {
            let head = format!("| scan_cold | {metric} |");
            table.lines().find(|l| l.starts_with(&head)).unwrap()
        };
        assert!(row("lat_p50_ms").ends_with("| FAIL |"));
        // ... and better for ops_per_s, which therefore still passes.
        assert!(row("ops_per_s").ends_with("| PASS |"));
        // A metric that must repeat seed by seed fails on any difference.
        let mut c = a.clone();
        c.get_mut("scan_cold")
            .unwrap()
            .get_mut("space_amp")
            .unwrap()[2] += 1e-9;
        let (table, ok) = compare(&a, &c);
        assert!(!ok);
        assert_eq!(table.matches("differs at the same seed").count(), 1);
    }

    #[test]
    fn a_wide_set_fails_its_own_spread() {
        let wide = set_of(&[100.0, 140.0, 60.0, 120.0, 80.0]);
        assert!(render_set(&wide).contains("FAIL"));
        let (table, ok) = compare(&wide, &wide);
        assert!(!ok && table.contains("| NO |"));
        let s = spread(&[100.0, 140.0, 60.0, 120.0, 80.0]);
        assert_eq!((s.outliers, s.steady()), (4, false));
        // One run of ten off by more than a tenth is allowed, two are not.
        let mut runs = [100.0; 10];
        runs[9] = 120.0;
        assert!(spread(&runs).steady());
        runs[0] = 85.0;
        assert!(!spread(&runs).steady());
    }

    #[test]
    fn sweep_files_parse_back() {
        let text = "{\"seconds\": 20, \"runs\": {\n  \"scan_cold\": [\n    {\"seed\": 1, \"ops_per_s\": 9.5, \"setup_s\": 0.2},\n    {\"seed\": 2, \"ops_per_s\": 9.7, \"setup_s\": 0.3}\n  ]\n}}\n";
        let set = parse_set(text).unwrap();
        assert_eq!(set["scan_cold"]["ops_per_s"], vec![9.5, 9.7]);
        assert_eq!(set["scan_cold"]["setup_s"], vec![0.2, 0.3]);
        assert_eq!(set["scan_cold"]["seed"], vec![1.0, 2.0]);
        let s = spread(&set["scan_cold"]["ops_per_s"]);
        assert!((s.median - 9.6).abs() < 1e-12 && s.range_share > 0.0);
    }
}
