//! All four workloads end to end in `--smoke` size: answers, proofs and
//! the recovery check pass, every metric the mode promises is printed, and
//! the same seed gives the same requests and the same counts.

use perf::harness::{self, Measured, RunArgs};
use perf::metrics::definition;
use perf::noise::EXACT;
use perf::report::Outcome;
use perf::workload::{self, RunConfig};

fn smoke(workload: &str, seed: u64, trace: bool) -> Measured {
    let args = RunArgs {
        workload: workload.into(),
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
    };
    harness::run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_answers_correctly_and_prints_every_end_to_end_metric() {
    let def = definition();
    for w in &def.workloads {
        let measured = smoke(w, 7, false);
        let outcome = measured.outcome(false);
        assert!(
            outcome.correct,
            "{w}: {} of {} failed",
            outcome.failed, outcome.attempted
        );
        assert_eq!(outcome.failed, 0);
        // Warm-up plus two timed passes, plus any exit checks.
        assert!(outcome.attempted >= 3 * measured.positions as u64);
        // Every end-to-end metric, by the name the estimators give it.
        assert_eq!(outcome.metrics.len(), def.end_to_end.len());
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }
        // The printed line parses back to the same outcome (metrics come
        // back sorted by name).
        let back = Outcome::from_line(&outcome.to_line()).unwrap();
        assert_eq!(
            (back.correct, back.attempted, back.failed),
            (true, outcome.attempted, 0)
        );
        for (name, value, _) in &outcome.metrics {
            assert_eq!(back.value(name), Some(*value));
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_attribute_the_floor() {
    let def = definition();
    for w in &def.workloads {
        let measured = smoke(w, 7, true);
        let outcome = measured.outcome(true);
        assert!(outcome.correct, "{w}: {} failed", outcome.failed);
        // What the layers measured and what BENCHMARK.json declares are
        // the same names: nothing printed as a silent 0, nothing dropped.
        let declared: Vec<&str> = def.per_layer.iter().map(|m| m.name.as_str()).collect();
        for name in measured.layers.keys() {
            assert!(declared.contains(name), "{w}: `{name}` is not declared");
        }
        for name in &declared {
            let on_path = measured.layers.contains_key(name);
            assert!(
                on_path || name.starts_with("serve.") || name.starts_with("scale."),
                "{w}: `{name}` is declared and never measured"
            );
        }
        assert!(outcome.metrics.iter().all(|(_, v, _)| v.is_finite()));
        let shares: f64 = outcome
            .metrics
            .iter()
            .filter(|(n, _, _)| n.starts_with("attr."))
            .map(|(_, v, _)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{w}: shares sum to {shares}");
        for probe in [
            "crypto.cbc_decrypt_mb_s",
            "storage.read_page_us",
            "monitor.authorize_us",
            "sql.exec_plain_ms",
        ] {
            assert!(outcome.value(probe).unwrap() > 0.0, "{w}: {probe}");
        }
        let writes = outcome.value("write_p50_ms").unwrap();
        assert_eq!(
            writes > 0.0,
            w == "write_mix",
            "{w}: write_p50_ms = {writes}"
        );
        assert_eq!(
            outcome.value("storage.recover_ms").unwrap() > 0.0,
            w == "write_mix"
        );
        let spans = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{spans}/{w}-7.trace.json");
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(perf::json::parse(&text)
            .unwrap()
            .as_arr()
            .is_some_and(|a| !a.is_empty()));
    }
}

#[test]
fn the_same_seed_gives_the_same_requests_and_counts() {
    let exact_layers = [
        "storage.pages_read_per_op",
        "storage.decrypts_per_op",
        "storage.merkle_nodes_per_op",
        "storage.wal_bytes_per_txn",
        "storage.pages_written_per_write",
        "tee.transitions_per_op",
        "csa.rows_shipped_per_op",
        "csa.bytes_shipped_per_op",
        "write_amp",
    ];
    for w in &definition().workloads {
        let requests = |seed: u64| -> Vec<String> {
            let workload = workload::by_name(w).expect("declared workloads exist");
            let inst = workload.setup(&RunConfig { seed, smoke: true });
            let sql = inst.positions().to_vec();
            let sql = [sql, inst.probe_input().sql].concat();
            inst.discard();
            sql
        };
        assert_eq!(requests(3), requests(3), "{w}: same seed, same requests");
        assert_ne!(requests(3), requests(4), "{w}: the seed picks the requests");

        let (a, b) = (
            smoke(w, 3, false).outcome(false),
            smoke(w, 3, false).outcome(false),
        );
        for name in EXACT {
            assert_eq!(
                a.value(name),
                b.value(name),
                "{w}: {name} must repeat exactly"
            );
        }
        let (a, b) = (
            smoke(w, 3, true).outcome(true),
            smoke(w, 3, true).outcome(true),
        );
        for name in exact_layers {
            assert_eq!(
                a.value(name),
                b.value(name),
                "{w}: {name} must repeat exactly"
            );
        }
    }
}
