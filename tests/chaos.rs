//! Chaos harness: sweep seeded fault plans across rates and assert the
//! system degrades gracefully — every query either returns rows
//! bit-identical to the fault-free run (the fault was absorbed by a
//! retry/restart) or a clean typed error. Never a panic, never silently
//! wrong rows.
//!
//! The sweep reuses one loaded system and swaps the fault plan between
//! combos: `FaultPlan` state (arrival counters, metrics) lives in the
//! plan, not the system, so each combo starts fresh.

use ironsafe::csa::cost::CostParams;
use ironsafe::csa::{CsaSystem, SystemConfig};
use ironsafe::deploy::{Client, Deployment};
use ironsafe::tpch::queries::{paper_queries, PaperQuery};
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_sql::Row;

const SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
const RATES: [f64; 5] = [0.0005, 0.002, 0.01, 0.05, 0.2];

fn query(id: u8) -> PaperQuery {
    paper_queries().into_iter().find(|q| q.id == id).unwrap()
}

/// A plan firing on every injectable surface a read-only split query
/// crosses: device, page integrity, freshness, and the secure channel.
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

#[test]
fn fault_storm_sweep_yields_identical_rows_or_typed_errors() {
    let data = ironsafe::tpch::generate(0.002, 42);
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    let queries = [query(1), query(6)];
    let baselines: Vec<Vec<Row>> = queries
        .iter()
        .map(|q| sys.run_query(q).expect("fault-free run").result.rows().to_vec())
        .collect();

    let mut combos = 0u32;
    let mut clean_runs = 0u32;
    let mut typed_errors = 0u32;
    for seed in SEEDS {
        for rate in RATES {
            combos += 1;
            let plan = storm_plan(seed, rate);
            sys.set_fault_plan(plan.clone());
            for (q, baseline) in queries.iter().zip(&baselines) {
                // A panic anywhere in here fails the test: graceful
                // degradation means every outcome is one of these two.
                match sys.run_query(q) {
                    Ok(report) => {
                        assert_eq!(
                            report.result.rows(),
                            &baseline[..],
                            "seed {seed} rate {rate}: recovered run must be bit-identical"
                        );
                        clean_runs += 1;
                    }
                    Err(e) => {
                        // Typed, displayable, and classified.
                        use ironsafe_faults::Transient;
                        let _ = e.is_transient();
                        assert!(!e.to_string().is_empty());
                        typed_errors += 1;
                    }
                }
            }
        }
    }
    assert_eq!(combos, 50, "acceptance floor: at least 50 seed x rate combos");
    // Low rates must mostly be absorbed; high rates must actually bite —
    // otherwise the storm is not exercising the recovery paths at all.
    assert!(clean_runs > 0, "some runs must recover to identical rows");
    assert!(typed_errors > 0, "some runs must surface typed errors");

    // The system itself is undamaged: clear the plan and re-verify.
    sys.set_fault_plan(FaultPlan::none());
    for (q, baseline) in queries.iter().zip(&baselines) {
        let report = sys.run_query(q).expect("post-storm fault-free run");
        assert_eq!(report.result.rows(), &baseline[..]);
    }
}

#[test]
fn storms_are_reproducible_for_a_given_seed() {
    let data = ironsafe::tpch::generate(0.002, 42);
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    let q = query(6);

    let mut outcomes = Vec::new();
    for round in 0..2 {
        let _ = round;
        let plan = storm_plan(3, 0.05);
        sys.set_fault_plan(plan.clone());
        let outcome = match sys.run_query(&q) {
            Ok(r) => Ok(r.result.rows().to_vec()),
            Err(e) => Err(e.to_string()),
        };
        let m = plan.metrics();
        outcomes.push((outcome, m.injected.get(), m.retried.get(), m.recovered.get()));
    }
    assert_eq!(outcomes[0], outcomes[1], "same seed, same plan: same faults, same outcome");
}

/// The freshness fast path is not a chaos hole: storms hitting a system
/// whose verified-node cache is already warm (and, in a second sweep, an
/// undersized cache in constant eviction churn) still degrade exactly as
/// the cold system does — identical rows or a typed error, and a clean
/// fault-free run afterwards.
#[test]
fn warm_cache_storms_still_detect_and_recover() {
    let data = ironsafe::tpch::generate(0.002, 42);
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    let queries = [query(1), query(6)];
    let baselines: Vec<Vec<Row>> = queries
        .iter()
        .map(|q| sys.run_query(q).expect("fault-free run").result.rows().to_vec())
        .collect();
    // Re-run clean: the second pass rides the warm cache bit-identically.
    for (q, baseline) in queries.iter().zip(&baselines) {
        let again = sys.run_query(q).expect("warm fault-free run");
        assert_eq!(again.result.rows(), &baseline[..], "warm rerun is bit-identical");
    }

    let sweep = |sys: &mut CsaSystem, label: &str| {
        let mut typed_errors = 0u32;
        let mut clean_runs = 0u32;
        for seed in SEEDS {
            for rate in [0.0005, 0.05] {
                sys.set_fault_plan(storm_plan(seed, rate));
                for (q, baseline) in queries.iter().zip(&baselines) {
                    match sys.run_query(q) {
                        Ok(report) => {
                            assert_eq!(
                                report.result.rows(),
                                &baseline[..],
                                "{label}: seed {seed} rate {rate}: recovered run identical"
                            );
                            clean_runs += 1;
                        }
                        Err(e) => {
                            use ironsafe_faults::Transient;
                            let _ = e.is_transient();
                            assert!(!e.to_string().is_empty());
                            typed_errors += 1;
                        }
                    }
                }
            }
        }
        assert!(clean_runs > 0, "{label}: some storms must be absorbed");
        assert!(typed_errors > 0, "{label}: corruption/staleness must still be detected");
        // The system is undamaged: a clean run still matches.
        sys.set_fault_plan(FaultPlan::none());
        for (q, baseline) in queries.iter().zip(&baselines) {
            let report = sys.run_query(q).expect("post-storm fault-free run");
            assert_eq!(report.result.rows(), &baseline[..]);
        }
    };
    sweep(&mut sys, "warm cache");

    // Undersized cache: an enclave budget that leaves the verified-node
    // cache at its 1 024-node floor, so wholesale eviction fires mid-scan.
    let tiny = CostParams { epc_limit_bytes: 16 * 1024, ..CostParams::default() };
    let mut small = CsaSystem::build(SystemConfig::IronSafe, &data, tiny).expect("system builds");
    let registry = ironsafe_obs::Registry::new();
    small.storage_db().register_metrics(&registry);
    sweep(&mut small, "evicting cache");
    let evicted = registry.snapshot().counter("storage.merkle.cache.evict").unwrap();
    assert!(evicted > 0, "the undersized cache must churn");
}

#[test]
fn device_read_fault_recovers_with_visible_metrics() {
    let data = ironsafe::tpch::generate(0.002, 42);
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    let baseline = sys.run_query(&query(6)).unwrap().result.rows().to_vec();

    let plan = FaultPlan::seeded(1)
        .with_nth(FaultSite::DeviceRead, 2)
        .with_nth(FaultSite::DeviceRead, 9);
    sys.set_fault_plan(plan.clone());
    let report = sys.run_query(&query(6)).expect("both transient faults are absorbed");
    assert_eq!(report.result.rows(), &baseline[..]);
    assert_eq!(plan.metrics().injected.get(), 2);
    assert!(plan.metrics().recovered.get() >= 1);
    assert_eq!(plan.metrics().exhausted.get(), 0);
}

#[test]
fn channel_drop_fault_recovers_with_visible_metrics() {
    let data = ironsafe::tpch::generate(0.002, 42);
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    let baseline = sys.run_query(&query(6)).unwrap().result.rows().to_vec();

    // Q6 offloads its filtered rows through the secure channel; drop the
    // first record in transit and let the retransmit carry it through.
    let plan = FaultPlan::seeded(1).with_nth(FaultSite::ChannelDrop, 1);
    sys.set_fault_plan(plan.clone());
    let report = sys.run_query(&query(6)).expect("dropped record is retransmitted");
    assert_eq!(report.result.rows(), &baseline[..]);
    assert!(plan.metrics().injected.get() >= 1);
    assert!(plan.metrics().recovered.get() >= 1);
    assert_eq!(plan.metrics().exhausted.get(), 0);
}

#[test]
fn enclave_crash_and_rpmb_failures_recover_end_to_end() {
    // Whole-deployment plan: the second enclave entry crashes (restart +
    // sealed-state reload) and the first RPMB write is refused busy
    // (retried with a recomputed counter).
    let plan = FaultPlan::seeded(23)
        .with_nth(FaultSite::EnclaveCrash, 2)
        .with_nth(FaultSite::RpmbWrite, 1);
    let mut dep = Deployment::builder().fault_plan(plan.clone()).build().unwrap();
    dep.create_database("db", "read :- sessionKeyIs(alice)\nwrite :- sessionKeyIs(alice)");
    let alice = Client::new("alice");
    dep.submit(&alice, "db", "CREATE TABLE t (a INT)", "").unwrap();
    dep.submit(&alice, "db", "INSERT INTO t VALUES (7), (8), (9)", "").unwrap();
    let resp = dep.submit(&alice, "db", "SELECT a FROM t ORDER BY a", "").unwrap();
    assert_eq!(resp.result.rows().len(), 3);
    assert!(resp.verify_proof(&dep));
    assert!(dep.supervisor().restarts() >= 1, "crash forced an enclave restart");
    assert!(plan.metrics().injected.get() >= 2, "both scheduled faults fired");
    assert!(plan.metrics().recovered.get() >= 2, "both were recovered");
    assert_eq!(plan.metrics().exhausted.get(), 0);
}

/// Crash-during-commit storms: 50 seeded storms fire the write-path
/// fault sites — `WalAppend` (transient device error before anything
/// lands), `WalTear` (crash mid-append, torn frame on the medium) and
/// `CrashCommit` (power cut during the apply, or between the WAL append
/// and the RPMB bind) — at varying points in an INSERT sequence. Every
/// storm ends in a power-off teardown and WAL recovery, and the
/// recovered table is bit-identical to a transaction boundary: exactly
/// the acknowledged prefix, or at most the one in-flight statement more.
/// Never a torn fraction of a group, never a panic, and a poisoned
/// system fails closed until recovered. Each recovery's report is
/// appended to a monitor audit stream whose hash chain must verify.
#[test]
fn crash_commit_storms_recover_to_acknowledged_prefix() {
    use ironsafe::csa::{RecoveryReport, SharedCsaSystem};
    use ironsafe::monitor::AuditLog;
    use ironsafe::storage::TailVerdict;
    use ironsafe_sql::parser::parse_statement;
    use ironsafe_sql::{QueryResult, Value};

    let data = ironsafe::tpch::generate(0.002, 42);
    let sys = CsaSystem::build(SystemConfig::StorageOnlySecure, &data, CostParams::default())
        .expect("system builds");
    let shared = SharedCsaSystem::new(sys);
    let key = [8u8; 32];
    shared
        .run_statement(&parse_statement("CREATE TABLE storm (a INT)").unwrap(), key)
        .expect("table creates");
    shared.attach_wal(0x571).expect("secure base journals");
    let mut shared = shared;

    fn contents(shared: &SharedCsaSystem, key: [u8; 32]) -> Vec<i64> {
        let sel = parse_statement("SELECT a FROM storm ORDER BY a").unwrap();
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

    let audit = AuditLog::new();
    // Rows the system *acknowledged* (statement returned Ok). The
    // recovered state must always be this prefix — plus, at most, the
    // single statement that was in flight when the crash hit.
    let mut acked: Vec<i64> = Vec::new();
    let mut next = 0i64;
    let (mut storms, mut crashed_storms, mut absorbed_storms) = (0u32, 0u32, 0u32);

    for seed in 1u64..=50 {
        storms += 1;
        // Rotate the three write-path sites across the sweep; vary the
        // arrival index so crashes land mid-apply, between append and
        // bind, and on different statements of the sequence.
        let plan = match seed % 3 {
            0 => FaultPlan::seeded(seed).with_nth(FaultSite::CrashCommit, 1 + seed % 3),
            1 => FaultPlan::seeded(seed).with_nth(FaultSite::WalTear, 1 + seed % 2),
            _ => FaultPlan::seeded(seed).with_nth(FaultSite::WalAppend, 1 + seed % 2),
        };
        shared.set_fault_plan(plan);

        let mut in_flight: Option<i64> = None;
        let mut acked_this_storm = 0usize;
        for _ in 0..4 {
            let ins =
                parse_statement(&format!("INSERT INTO storm (a) VALUES ({next})")).unwrap();
            match shared.run_statement(&ins, key) {
                Ok(_) => {
                    acked.push(next);
                    acked_this_storm += 1;
                    next += 1;
                }
                Err(e) => {
                    // Typed and displayable, never a panic; a failed
                    // group commit poisons the system, which then fails
                    // closed instead of serving doubtful state.
                    use ironsafe_faults::Transient;
                    let _ = e.is_transient();
                    assert!(!e.to_string().is_empty(), "seed {seed}: typed error");
                    assert!(shared.is_poisoned(), "seed {seed}: failed flush must poison");
                    assert!(
                        shared.run_statement(&ins, key).is_err(),
                        "seed {seed}: poisoned system must fail closed"
                    );
                    in_flight = Some(next);
                    next += 1; // the value is burned whether or not it committed
                    break;
                }
            }
        }

        // Power off (the crash, or the end of a clean storm) and
        // recover from the surviving TrustZone device + WAL medium.
        let (parts, medium) = shared.teardown();
        let (tz, _lost_medium) = parts.expect("secure base tears down to hardware");
        let medium = medium.expect("WAL attached");
        let (recovered, report): (SharedCsaSystem, RecoveryReport) = SharedCsaSystem::recover(
            SystemConfig::StorageOnlySecure,
            CostParams::default(),
            tz,
            &medium,
            seed.wrapping_mul(31),
            seed.wrapping_mul(37),
            1,
        )
        .expect("every seed recovers");
        shared = recovered;
        audit.append(seed as i64, "recovery", "chaos-harness", &report.audit_line());

        let got = contents(&shared, key);
        match in_flight {
            Some(burned) => {
                crashed_storms += 1;
                let mut with_in_flight = acked.clone();
                with_in_flight.push(burned);
                assert!(
                    got == acked || got == with_in_flight,
                    "seed {seed}: recovered state must sit on a transaction boundary \
                     (acked prefix or acked + the in-flight statement), got {got:?}"
                );
                acked = got; // resync to what the log actually committed
            }
            None => {
                absorbed_storms += 1;
                assert_eq!(
                    got, acked,
                    "seed {seed}: clean storm must replay every acknowledged row"
                );
                assert_eq!(
                    report.replayed, acked_this_storm,
                    "seed {seed}: one commit record per acknowledged statement"
                );
                assert_eq!(report.verdict, TailVerdict::Clean);
            }
        }
    }

    assert_eq!(storms, 50, "acceptance floor: 50 seeded crash storms");
    assert!(crashed_storms > 0, "some storms must actually crash a commit");
    assert!(absorbed_storms > 0, "transient WAL faults must be absorbed by retries");
    // The recovery trail is audit-grade: one entry per storm, chain intact.
    assert_eq!(audit.stream("recovery").len(), 50);
    assert!(audit.verify(), "recovery audit chain verifies");
    // The survivor still serves consistent reads.
    assert_eq!(contents(&shared, key), acked);
}

#[test]
fn persistent_faults_exhaust_cleanly_into_typed_errors() {
    let data = ironsafe::tpch::generate(0.002, 42);
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    let plan = FaultPlan::seeded(9).with_rate(FaultSite::DeviceRead, 1.0);
    sys.set_fault_plan(plan.clone());
    let err = sys.run_query(&query(6)).expect_err("every attempt fails");
    assert!(err.to_string().contains("device I/O"), "typed device error, got {err}");
    assert!(plan.metrics().exhausted.get() >= 1, "the retry budget was spent and reported");
}
