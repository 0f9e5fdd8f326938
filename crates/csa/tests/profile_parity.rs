//! Golden parity: the `EXPLAIN ANALYZE` profile can never drift from
//! the cost model.
//!
//! For Q1 and Q6, across all five Table 2 configurations at DOP 1 and
//! DOP 4, a [`QueryProfile`] assembled by `profile_query` must carry a
//! [`CostBreakdown`] and a [`PagerStats`] delta bit-identical to the
//! ones a plain `run_query` produces on an identically-prepared system.
//! Profiling is observation, not perturbation.

use ironsafe_csa::{CostParams, CsaSystem, OffloadDecision, PlacementPolicy, SystemConfig};
use ironsafe_obs::export::looks_like_valid_json;
use ironsafe_tpch::queries::query;
use ironsafe_tpch::TpchData;

fn data() -> TpchData {
    ironsafe_tpch::generate(0.002, 42)
}

#[test]
fn profile_counters_match_cost_model_for_q1_q6_all_configs_both_dops() {
    let d = data();
    for config in SystemConfig::all() {
        for dop in [1usize, 4] {
            // Reference system: plain runs, measuring the stats delta
            // by hand. Profiled system: identical build, profiled runs.
            // Both execute Q1 then Q6 so cache warm-up states match.
            let mut reference = CsaSystem::build(config, &d, CostParams::default()).unwrap();
            let mut profiled = CsaSystem::build(config, &d, CostParams::default()).unwrap();
            reference.set_dop(dop);
            profiled.set_dop(dop);
            for qid in [1u8, 6] {
                let q = query(qid).unwrap();
                let before = reference.storage_db().pager_stats();
                let want = reference.run_query(&q).unwrap();
                let after = reference.storage_db().pager_stats();

                let (got, profile) = profiled.profile_query(&q).unwrap();
                let tag = format!("{} q{qid} dop{dop}", config.abbrev());

                assert_eq!(got.result, want.result, "{tag}: results diverge");
                assert_eq!(
                    profile.breakdown, want.breakdown,
                    "{tag}: profile breakdown must be bit-identical to the cost model"
                );
                assert_eq!(
                    (profile.pager.page_reads, profile.pager.page_writes),
                    (after.page_reads - before.page_reads, after.page_writes - before.page_writes),
                    "{tag}: profile pager I/O delta"
                );
                assert_eq!(
                    (profile.pager.decrypts, profile.pager.encrypts),
                    (after.decrypts - before.decrypts, after.encrypts - before.encrypts),
                    "{tag}: profile pager crypto delta"
                );
                assert_eq!(
                    (profile.pager.merkle_nodes, profile.pager.rpmb_ops),
                    (after.merkle_nodes - before.merkle_nodes, after.rpmb_ops - before.rpmb_ops),
                    "{tag}: profile pager freshness delta"
                );
                assert_eq!(profile.pages_read_storage, want.pages_read_storage, "{tag}");
                assert_eq!(profile.pages_shipped, want.pages_shipped, "{tag}");
                assert_eq!(profile.rows_shipped, want.rows_shipped, "{tag}");
                assert_eq!(profile.bytes_shipped, want.bytes_shipped, "{tag}");
                assert_eq!(profile.query_id, qid, "{tag}");
                assert_eq!(profile.dop, dop, "{tag}");
                assert!(!profile.plans.is_empty(), "{tag}: a drained plan was captured");
                assert!(profile.span_count > 0, "{tag}");
                assert_eq!(profile.error_span_count, 0, "{tag}: clean run has no error spans");
                if config.secure() {
                    assert!(profile.macs_verified > 0, "{tag}: secure reads verify MACs");
                }
            }
        }
    }
}

#[test]
fn profile_counters_are_dop_invariant() {
    let d = data();
    let profile_at = |dop: usize| {
        let mut sys =
            CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
        sys.set_dop(dop);
        sys.profile_query(&query(6).unwrap()).unwrap().1
    };
    let p1 = profile_at(1);
    let p4 = profile_at(4);
    assert_eq!(p1.breakdown, p4.breakdown, "breakdown is DOP-invariant");
    assert_eq!(p1.pager, p4.pager, "pager delta is DOP-invariant");
    assert_eq!(p1.macs_verified, p4.macs_verified);
    // The verified-node cache classifies a batch's hits and misses as
    // single reads would, so even its counters are DOP-invariant.
    assert_eq!(
        (p1.merkle_cache_hits, p1.merkle_cache_misses),
        (p4.merkle_cache_hits, p4.merkle_cache_misses)
    );
    assert_eq!(p1.enclave_transitions, p4.enclave_transitions);
    assert_eq!(p1.epc_faults, p4.epc_faults);
    assert_eq!(p1.epc_occupancy_pages, p4.epc_occupancy_pages);
    assert_eq!(
        (p1.rows_shipped, p1.bytes_shipped, p1.pages_shipped),
        (p4.rows_shipped, p4.bytes_shipped, p4.pages_shipped)
    );
    assert_eq!(p1.cost_terms, p4.cost_terms, "charge order is pinned");
}

#[test]
fn profile_json_and_render_are_deterministic() {
    let d = data();
    let run = || {
        let mut sys =
            CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
        let (_, profile) = sys.profile_query(&query(6).unwrap()).unwrap();
        (profile.to_json(), profile.render())
    };
    let (json_a, text_a) = run();
    let (json_b, text_b) = run();
    assert_eq!(json_a, json_b, "profile JSON is byte-deterministic");
    assert_eq!(text_a, text_b);
    assert!(looks_like_valid_json(&json_a), "{json_a}");
    assert!(json_a.contains("\"config\":\"scs\""));
    assert!(json_a.contains("\"breakdown\""));
    assert!(json_a.contains("\"plans\""));
    assert!(text_a.contains("Q6 profile"));
    assert!(text_a.contains("(rows in="), "scans report rows decoded and emitted: {text_a}");
}

/// `(config, pin, query, total_ns, rows_shipped, bytes_shipped,
/// pages_shipped, page_reads, merkle_nodes)` of the two static
/// partitioners, captured on the commit before they became pins of the
/// one planner (q1 then q6 on one system, SF 0.002, seed 42).
type PinnedGolden = (SystemConfig, OffloadDecision, u8, f64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const PINNED_GOLDEN: [PinnedGolden; 8] = [
    (SystemConfig::VanillaCs, OffloadDecision::Offload, 1, 12300295.12, 11956, 753384, 184, 573, 0),
    (SystemConfig::VanillaCs, OffloadDecision::Offload, 6, 2152483.92, 226, 9544, 3, 573, 0),
    (SystemConfig::VanillaCs, OffloadDecision::ShipPages, 1, 11231331.44, 11956, 2347008, 573, 573, 0),
    (SystemConfig::VanillaCs, OffloadDecision::ShipPages, 6, 9079251.44, 11956, 2347008, 573, 573, 0),
    (SystemConfig::IronSafe, OffloadDecision::Offload, 1, 18653214.319999997, 11956, 753384, 184, 573, 2305),
    (SystemConfig::IronSafe, OffloadDecision::Offload, 6, 4552411.12, 226, 9544, 3, 573, 573),
    (SystemConfig::IronSafe, OffloadDecision::ShipPages, 1, 17615931.839999996, 11956, 2347008, 573, 573, 2305),
    (SystemConfig::IronSafe, OffloadDecision::ShipPages, 6, 13470051.84, 11956, 2347008, 573, 573, 573),
];

/// Golden-parity guard for the placement policy: a pinned decision must
/// reproduce the static plan it replaced *bit-identically* — cost,
/// shipped counters, pager delta — at any DOP and whatever the estimate
/// store holds. Placement is a planning change, never an execution
/// change.
#[test]
fn pinned_adaptive_reproduces_static_plans_bit_identically() {
    let d = data();
    for dop in [1usize, 4] {
        // One system per (config, pin): its q1 row, then its q6 row.
        for runs in PINNED_GOLDEN.chunks(2) {
            let (config, pin, ..) = runs[0];
            let mut sys = CsaSystem::build(config, &d, CostParams::default()).unwrap();
            sys.set_placement(PlacementPolicy::Pinned(pin));
            sys.set_dop(dop);
            for &(_, _, qid, total_ns, rows, bytes, pages, reads, merkle) in runs {
                let before = sys.storage_db().pager_stats();
                let got = sys.run_query(&query(qid).unwrap()).unwrap();
                let delta = sys.storage_db().pager_stats() - before;
                let tag = format!("{} q{qid} dop{dop} pin={pin:?}", config.abbrev());
                assert_eq!(got.total_ns(), total_ns, "{tag}: simulated cost");
                assert_eq!(
                    (got.rows_shipped, got.bytes_shipped, got.pages_shipped),
                    (rows, bytes, pages),
                    "{tag}: shipped counters"
                );
                assert_eq!(
                    (delta.page_reads, delta.merkle_nodes),
                    (reads, merkle),
                    "{tag}: pager delta"
                );
            }
        }
    }
}

/// With estimates pinned to the truth (a primed run), the cost-based
/// adaptive pass picks one of the two static placements and its report
/// is bit-identical to that static run — never a third behavior.
#[test]
fn primed_adaptive_equals_one_static_policy_bit_identically() {
    let d = data();
    for qid in [1u8, 6] {
        let q = query(qid).unwrap();
        let run_static = |pin: OffloadDecision| {
            let mut sys =
                CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
            sys.set_placement(PlacementPolicy::Pinned(pin));
            sys.run_query(&q).unwrap(); // warm-up run (Merkle caches)
            sys.run_query(&q).unwrap()
        };
        let offload = run_static(OffloadDecision::Offload);
        let allhost = run_static(OffloadDecision::ShipPages);
        let adaptive = {
            let mut sys =
                CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
            // Prime: a static offload run feeds exact observed statistics
            // into the shared EWMA store (same warm-up schedule as above).
            sys.run_query(&q).unwrap();
            sys.set_placement(PlacementPolicy::CostBased);
            sys.run_query(&q).unwrap()
        };
        let matches_offload = adaptive.breakdown == offload.breakdown
            && adaptive.bytes_shipped == offload.bytes_shipped;
        let matches_allhost = adaptive.breakdown == allhost.breakdown
            && adaptive.bytes_shipped == allhost.bytes_shipped;
        assert!(
            matches_offload || matches_allhost,
            "q{qid}: adaptive must equal one static policy exactly \
             (adaptive {:.0} vs offload {:.0} / allhost {:.0})",
            adaptive.total_ns(),
            offload.total_ns(),
            allhost.total_ns()
        );
        assert_eq!(adaptive.result, offload.result, "q{qid}: answers never change");
        assert_eq!(adaptive.result, allhost.result, "q{qid}: answers never change");
    }
}

#[test]
fn profile_captures_causal_span_tree() {
    // The trace behind the profile carries TraceCtx on every span:
    // query-rooted, refined with page-batch ids inside the pager.
    let d = data();
    let mut sys = CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
    let (_, _) = sys.profile_query(&query(6).unwrap()).unwrap();
    let trace = sys.last_trace().expect("trace recorded");
    assert!(trace.is_well_formed(), "clean run yields a well-formed tree");
    assert!(
        trace.spans.iter().all(|s| s.ctx.map(|c| c.query_id) == Some(6)),
        "every span is stitched to query 6"
    );
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.name.starts_with("pager/") && s.ctx.and_then(|c| c.page_batch_id).is_some()),
        "pager spans carry page-batch ids"
    );
}
