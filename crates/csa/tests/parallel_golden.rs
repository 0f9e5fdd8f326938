//! Golden parity: parallel execution must be invisible in every
//! simulated observable.
//!
//! For each Table 2 configuration, running the same queries at DOP 1 and
//! DOP 4 must produce bit-identical rows, bit-identical simulated
//! [`CostBreakdown`]s, and field-wise identical `PagerStats` deltas.
//! Parallelism buys wall-clock time only.

use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_tpch::queries::query;

#[test]
fn dop4_matches_dop1_for_all_configs() {
    let data = ironsafe_tpch::generate(0.002, 42);
    for config in SystemConfig::all() {
        for qid in [1u8, 6] {
            let q = query(qid).unwrap();

            let mut serial = CsaSystem::build(config, &data, CostParams::default()).unwrap();
            let before = serial.storage_db().pager_stats();
            let serial_report = serial.run_query(&q).unwrap();
            let serial_delta = serial.storage_db().pager_stats() - before;

            let mut parallel = CsaSystem::build(config, &data, CostParams::default()).unwrap();
            parallel.set_dop(4);
            let before = parallel.storage_db().pager_stats();
            let parallel_report = parallel.run_query(&q).unwrap();
            let parallel_delta = parallel.storage_db().pager_stats() - before;

            let tag = format!("{} q{qid}", config.abbrev());
            assert_eq!(
                parallel_report.result, serial_report.result,
                "{tag}: rows must be bit-identical"
            );
            assert_eq!(
                parallel_report.breakdown, serial_report.breakdown,
                "{tag}: simulated cost breakdown must be bit-identical"
            );
            assert_eq!(parallel_delta, serial_delta, "{tag}: pager-stats delta must be identical");
            assert_eq!(
                parallel_report.pages_read_storage, serial_report.pages_read_storage,
                "{tag}: pages read"
            );
            assert_eq!(
                parallel_report.bytes_shipped, serial_report.bytes_shipped,
                "{tag}: bytes shipped"
            );
        }
    }
}

#[test]
fn morsel_counters_tick_at_every_dop() {
    // One scan kernel at every DOP: the `exec.morsel.*` counters describe
    // the same work whether one thread or a pool did it.
    let data = ironsafe_tpch::generate(0.002, 42);
    let q = query(6).unwrap();
    let mut counts = Vec::new();
    for dop in [1, 4] {
        let mut sys =
            CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default()).unwrap();
        sys.set_dop(dop);
        sys.run_query(&q).unwrap();
        let m = &sys.exec_options().metrics;
        assert!(m.scans.get() > 0, "dop {dop} started no scans");
        assert!(m.morsels.get() > 0, "dop {dop} read no morsels");
        assert!(m.rows.get() > 0, "dop {dop} decoded no rows");
        counts.push((m.scans.get(), m.morsels.get(), m.rows.get()));
    }
    assert_eq!(counts[0], counts[1], "morsel counters are DOP-invariant");
}
