//! Chaos experiment harness for `paperbench chaos`.
//!
//! Sweeps seeded fault plans across injection rates on the full IronSafe
//! configuration and reports, per rate: how many runs recovered to rows
//! bit-identical to the fault-free baseline, how many surfaced a clean
//! typed error, and the fault counters (`faults.injected` / `retried` /
//! `recovered` / `exhausted`) aggregated across the sweep. A second
//! stage demonstrates one recovered transient fault on each injectable
//! surface — device, secure channel, enclave, RPMB — with the recovery
//! visible in the exported counters.

use ironsafe::deploy::{Client, Deployment};
use ironsafe_csa::{CostParams, CsaSystem, SharedCsaSystem, SystemConfig};
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_obs::export::metrics_to_jsonl;
use ironsafe_obs::{Counter, Registry};
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::{QueryResult, Row, Value};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::query;

use crate::figures::{system, SEED};
use crate::table::{row, Cell, Col, Table};

/// Everything `paperbench chaos` prints and exports.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The rate sweep, one row per rate: query runs (seeds × queries),
    /// runs bit-identical to the fault-free baseline, runs that surfaced
    /// a typed error, and the faults injected / retried / recovered /
    /// exhausted across them.
    pub rates: Table,
    /// One scheduled transient fault per surface: injected, recovered,
    /// and whether the run finished with correct results (`ok`).
    pub surfaces: Table,
    /// Crash-during-commit storms, one row per write-path fault site:
    /// storms run, storms that poisoned the system mid-commit (recovered
    /// from the WAL), storms whose transient faults were retried away
    /// in-run, faults fired, commit records replayed and unbound/torn
    /// tail records discarded across the recoveries.
    pub commits: Table,
    /// Seed × rate combinations swept.
    pub combos: u32,
    /// `metrics_to_jsonl` dump including the aggregated `faults.*`
    /// counters (for `--metrics-out`).
    pub metrics_jsonl: String,
}

const FAULT_COUNTERS: [&str; 4] = ["injected", "retried", "recovered", "exhausted"];

/// A plan injecting on every surface a read-only split query crosses.
fn storm_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_rate(FaultSite::DeviceRead, rate)
        .with_rate(FaultSite::PageBitFlip, rate)
        .with_rate(FaultSite::PageMacCorrupt, rate)
        .with_rate(FaultSite::FreshnessStale, rate)
        .with_rate(FaultSite::ChannelDrop, rate)
        .with_rate(FaultSite::ChannelCorrupt, rate)
        .with_rate(FaultSite::ChannelReorder, rate)
}

/// Run the chaos sweep at `sf` over `seeds` × `rates`.
///
/// Panics if any query run panics (that is the point of the harness:
/// faults must surface as recoveries or typed errors, never panics).
pub fn run_chaos(sf: f64, seeds: &[u64], rates: &[f64]) -> ChaosReport {
    let data = generate(sf, SEED);
    let mut sys = system(SystemConfig::IronSafe, &data, CostParams::default());
    let queries = [1, 6].map(|id| query(id).expect("known query"));
    let baselines: Vec<Vec<Row>> = queries
        .iter()
        .map(|q| sys.run_query(q).expect("fault-free baseline").result.rows().to_vec())
        .collect();

    let mut sweep = Table::new(vec![
        Col::new("rate", "rate", 8).pct(2),
        Col::new("runs", "runs", 6),
        Col::new("identical", "identical", 10),
        Col::new("errors", "typed_errors", 8),
        Col::new("injected", "injected", 9),
        Col::new("retried", "retried", 8),
        Col::new("recovered", "recovered", 10),
        Col::new("exhausted", "exhausted", 10),
    ]);
    let mut combos = 0u32;
    for (r, &rate) in rates.iter().enumerate() {
        sweep.push(row![rate, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64]);
        for &seed in seeds {
            combos += 1;
            let plan = storm_plan(seed, rate);
            sys.set_fault_plan(plan.clone());
            for (q, baseline) in queries.iter().zip(&baselines) {
                sweep.add(r, "runs", 1);
                match sys.run_query(q) {
                    Ok(report) => {
                        assert_eq!(
                            report.result.rows(),
                            &baseline[..],
                            "seed {seed} rate {rate}: recovered rows must be bit-identical"
                        );
                        sweep.add(r, "identical", 1);
                    }
                    Err(_) => sweep.add(r, "typed_errors", 1),
                }
            }
            let m = plan.metrics();
            for (key, counter) in FAULT_COUNTERS.iter().zip([&m.injected, &m.retried, &m.recovered, &m.exhausted]) {
                sweep.add(r, key, counter.get());
            }
        }
    }
    sys.set_fault_plan(FaultPlan::none());

    let mut surfaces = Table::new(["surface", "injected", "recovered", "ok"].map(Col::field).to_vec());
    surfaces.push(device_recovery(&mut sys, &baselines[1]));
    surfaces.push(channel_recovery(&mut sys, &baselines[1]));
    surfaces.push(enclave_recovery());
    surfaces.push(rpmb_recovery());

    let commits = commit_storms(sf, seeds);

    // Export: sweep totals under the canonical `faults.*` names, plus
    // per-surface recovery counters.
    let registry = Registry::new();
    for key in FAULT_COUNTERS {
        let total = Counter::new();
        total.add((0..sweep.len()).map(|r| sweep.int(r, key)).sum());
        registry.register_counter(&format!("faults.{key}"), &total);
    }
    for s in 0..surfaces.len() {
        for key in ["injected", "recovered"] {
            let counter = Counter::new();
            counter.add(surfaces.int(s, key));
            registry.register_counter(&format!("faults.surface.{}.{key}", surfaces.text(s, "surface")), &counter);
        }
    }

    ChaosReport { rates: sweep, surfaces, commits, combos, metrics_jsonl: metrics_to_jsonl(&registry.snapshot()) }
}

/// Read the storm table back as an ordered value vector.
fn storm_contents(shared: &SharedCsaSystem, key: [u8; 32]) -> Vec<i64> {
    let sel = parse_statement("SELECT a FROM storm ORDER BY a").expect("valid select");
    let (report, _) = shared.run_statement(&sel, key).expect("recovered system serves reads");
    match report.result {
        QueryResult::Rows { rows, .. } => rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(n) => n,
                ref other => panic!("expected int, got {other:?}"),
            })
            .collect(),
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Crash-during-commit storms over the three write-path fault sites:
/// `CrashCommit` (power cut mid-apply or between the WAL append and the
/// RPMB bind), `WalTear` (torn frame on the log medium) and `WalAppend`
/// (transient device error, retried in-run). Each storm INSERTs through
/// the group-commit write path, then powers the system off and recovers
/// from the surviving TrustZone device + WAL medium; the recovered
/// table must sit exactly on a transaction boundary — the acknowledged
/// prefix, or at most the one in-flight statement more.
///
/// Panics on any violated invariant: that is the harness's job.
pub fn commit_storms(sf: f64, seeds: &[u64]) -> Table {
    let data = generate(sf, SEED);
    let shared = SharedCsaSystem::new(system(SystemConfig::StorageOnlySecure, &data, CostParams::default()));
    let key = [0x5cu8; 32];
    shared
        .run_statement(&parse_statement("CREATE TABLE storm (a INT)").expect("valid ddl"), key)
        .expect("storm table creates");
    shared.attach_wal(0x9e1).expect("secure base journals");
    let mut shared = shared;

    let sites: [(&'static str, FaultSite); 3] = [
        ("crash-commit", FaultSite::CrashCommit),
        ("wal-tear", FaultSite::WalTear),
        ("wal-append", FaultSite::WalAppend),
    ];
    let mut t = Table::new(vec![
        Col::new("site", "site", 13).left(),
        Col::new("storms", "storms", 6),
        Col::new("crashed", "crashed", 8),
        Col::new("absorbed", "absorbed", 9),
        Col::new("injected", "injected", 9),
        Col::new("replayed", "replayed", 9),
        Col::new("discarded", "discarded", 10),
    ]);
    for (site, _) in &sites {
        t.push(row![*site, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64]);
    }

    let mut acked: Vec<i64> = Vec::new();
    let mut next = 0i64;
    for &seed in seeds {
        for (si, (_, site)) in sites.iter().enumerate() {
            t.add(si, "storms", 1);
            let plan = FaultPlan::seeded(seed).with_nth(*site, 1 + seed % 3);
            shared.set_fault_plan(plan.clone());

            let mut in_flight: Option<i64> = None;
            for _ in 0..3 {
                let ins = parse_statement(&format!("INSERT INTO storm (a) VALUES ({next})")).expect("valid insert");
                match shared.run_statement(&ins, key) {
                    Ok(_) => {
                        acked.push(next);
                        next += 1;
                    }
                    Err(e) => {
                        assert!(!e.to_string().is_empty(), "typed error, never a panic");
                        assert!(shared.is_poisoned(), "a failed group commit must poison");
                        in_flight = Some(next);
                        next += 1;
                        break;
                    }
                }
            }
            t.add(si, "injected", plan.metrics().injected.get());

            // Power off and recover from the log.
            let (parts, medium) = shared.teardown();
            let (tz, _lost) = parts.expect("secure base tears down to hardware");
            let medium = medium.expect("WAL attached");
            let (recovered, report) = SharedCsaSystem::recover(
                SystemConfig::StorageOnlySecure,
                CostParams::default(),
                tz,
                &medium,
                seed.wrapping_mul(11),
                seed.wrapping_mul(13),
                1,
            )
            .expect("every storm recovers");
            shared = recovered;
            t.add(si, "replayed", report.replayed as u64);
            t.add(si, "discarded", report.discarded as u64);

            let got = storm_contents(&shared, key);
            match in_flight {
                Some(burned) => {
                    t.add(si, "crashed", 1);
                    let mut with_in_flight = acked.clone();
                    with_in_flight.push(burned);
                    assert!(
                        got == acked || got == with_in_flight,
                        "recovered state must sit on a transaction boundary"
                    );
                    acked = got;
                }
                None => {
                    t.add(si, "absorbed", 1);
                    assert_eq!(got, acked, "clean storm must replay every acknowledged row");
                }
            }
        }
    }
    t
}

/// A surface row: what `plan` injected and recovered, and whether the
/// run ended with correct results.
fn surface(name: &str, plan: &FaultPlan, ok: bool) -> Vec<Cell> {
    let m = plan.metrics();
    row![name, m.injected.get(), m.recovered.get(), ok]
}

/// Run Q6 under `plan` on `sys`; true if its rows equal `baseline`.
fn q6_under(sys: &mut CsaSystem, plan: &FaultPlan, baseline: &[Row]) -> bool {
    sys.set_fault_plan(plan.clone());
    let ok = sys.run_query(&query(6).expect("known query")).is_ok_and(|r| r.result.rows() == baseline);
    sys.set_fault_plan(FaultPlan::none());
    ok
}

/// One transient device-read error, absorbed by the pager's retry.
fn device_recovery(sys: &mut CsaSystem, baseline: &[Row]) -> Vec<Cell> {
    let plan = FaultPlan::seeded(SEED).with_nth(FaultSite::DeviceRead, 2);
    surface("device", &plan, q6_under(sys, &plan, baseline))
}

/// One record dropped in transit, recovered by retransmission.
fn channel_recovery(sys: &mut CsaSystem, baseline: &[Row]) -> Vec<Cell> {
    let plan = FaultPlan::seeded(SEED).with_nth(FaultSite::ChannelDrop, 1);
    surface("channel", &plan, q6_under(sys, &plan, baseline))
}

/// One enclave crash, recovered by supervisor restart + sealed-state
/// reload.
fn enclave_recovery() -> Vec<Cell> {
    let plan = FaultPlan::seeded(SEED).with_nth(FaultSite::EnclaveCrash, 2);
    let ok = deployment_roundtrip(plan.clone()).is_some_and(|restarts| restarts >= 1);
    surface("enclave", &plan, ok)
}

/// One RPMB write refused busy, recovered by re-issuing the write.
fn rpmb_recovery() -> Vec<Cell> {
    let plan = FaultPlan::seeded(SEED).with_nth(FaultSite::RpmbWrite, 1);
    let ok = deployment_roundtrip(plan.clone()).is_some();
    surface("rpmb", &plan, ok)
}

/// Build a faulted deployment, run a tiny write+read workload, return
/// the supervisor's restart count on success.
fn deployment_roundtrip(plan: FaultPlan) -> Option<u64> {
    let mut dep = Deployment::builder().fault_plan(plan).build().ok()?;
    dep.create_database("db", "read :- sessionKeyIs(chaos)\nwrite :- sessionKeyIs(chaos)");
    let client = Client::new("chaos");
    dep.submit(&client, "db", "CREATE TABLE t (a INT)", "").ok()?;
    dep.submit(&client, "db", "INSERT INTO t VALUES (1), (2), (3)", "").ok()?;
    let resp = dep.submit(&client, "db", "SELECT a FROM t ORDER BY a", "").ok()?;
    if resp.result.rows().len() == 3 {
        Some(dep.supervisor().restarts())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_report_covers_every_surface_and_exports_fault_counters() {
        let report = run_chaos(0.001, &[1, 2], &[0.002, 0.05]);
        assert_eq!(report.combos, 4);
        let rates = &report.rates;
        assert_eq!(rates.len(), 2);
        for r in 0..rates.len() {
            assert_eq!(
                rates.int(r, "runs"),
                rates.int(r, "identical") + rates.int(r, "typed_errors"),
                "no run may vanish"
            );
        }
        let surfaces = &report.surfaces;
        assert_eq!(surfaces.len(), 4);
        for s in 0..surfaces.len() {
            let name = surfaces.text(s, "surface");
            assert_eq!(surfaces.get(s, "ok"), &Cell::Bool(true), "surface {name} must recover");
            assert!(surfaces.int(s, "injected") >= 1, "surface {name} must inject");
            assert!(surfaces.int(s, "recovered") >= 1, "surface {name} must recover the fault");
        }
        assert!(report.metrics_jsonl.contains("faults.injected"));
        assert!(report.metrics_jsonl.contains("faults.recovered"));
        assert!(report.metrics_jsonl.contains("faults.surface.rpmb.recovered"));

        // The crash-during-commit stage covers all three write-path
        // sites; the permanent sites must actually crash commits and the
        // transient one must be absorbed, with every recovery asserted
        // prefix-consistent inside `commit_storms`.
        let commits = &report.commits;
        assert_eq!(commits.len(), 3);
        for c in 0..commits.len() {
            let storms = commits.int(c, "storms");
            assert_eq!(storms, 2, "one storm per seed per site");
            assert_eq!(commits.int(c, "crashed") + commits.int(c, "absorbed"), storms, "no storm may vanish");
            assert!(commits.int(c, "injected") >= 1, "site {} must inject", commits.text(c, "site"));
        }
        let site = |name: &str, key: &str| commits.int(commits.find("site", name), key);
        assert!(site("crash-commit", "crashed") > 0, "crash-commit storms must crash");
        assert!(site("wal-tear", "crashed") > 0, "torn appends must crash the commit");
        assert!(site("wal-append", "absorbed") > 0, "transient appends must be retried away");
    }
}
