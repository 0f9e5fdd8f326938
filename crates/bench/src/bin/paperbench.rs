//! Regenerate every table and figure of the paper's evaluation:
//! `paperbench [<subcommand>|all] [--sf <f>] [--json] [--check] [--metrics-out <path>]`.
//!
//! The subcommands are the entries of [`SUBCOMMANDS`]. One with a
//! snapshot file regenerates the whole `BENCH_*.json`: `--check`
//! byte-compares it with the committed file and exits 1 on any drift,
//! `--json` rewrites it. `--metrics-out <path>` then runs every paper
//! query under IronSafe and writes the merged span timeline as Chrome
//! `trace_event` JSON to `<path>` (open in Perfetto) and the live
//! counters as JSON lines to `<path>.metrics.jsonl`.

#![forbid(unsafe_code)]

use ironsafe_bench::*;
use ironsafe_csa::SystemConfig;

/// What a subcommand runs with.
struct Ctx {
    /// `--sf`, else the subcommand's default, else [`DEFAULT_SF`].
    sf: f64,
    /// Running as part of `all`.
    all: bool,
    /// `--metrics-out`; a subcommand that writes its own sidecar takes it.
    metrics_out: Option<String>,
}

/// Prints its tables; returns the snapshot it regenerated, if any.
type Runner = fn(&mut Ctx) -> Option<Snapshot>;

/// `(name, default SF, part of all, runner, snapshot file)`.
type Subcommand = (&'static str, Option<f64>, bool, Runner, Option<&'static str>);

const SUBCOMMANDS: &[Subcommand] = &[
    // Figure 6: hons/vcs and hos/scs speedup per paper query.
    ("fig6", None, true, run_fig6, None),
    // Figure 7: host<->storage page reduction, hons/vcs.
    ("fig7", None, true, |c| figure("== Figure 7: host<->storage I/O reduction (pages, hons/vcs) ==", &fig7(c.sf), ""), None),
    // Figure 8: scs cost breakdown per query.
    ("fig8", None, true, |c| figure("== Figure 8: IronSafe (scs) cost breakdown per query ==", &fig8(c.sf), ""), None),
    // Figure 9a: Q1 latency vs input size, hos/scs/sos.
    ("fig9a", None, true, |c| {
        let t = fig9a(&[c.sf, c.sf * 4.0 / 3.0, c.sf * 5.0 / 3.0]);
        figure("== Figure 9a: Q1 latency vs input size (simulated s, lower is better) ==", &t, "")
    }, None),
    // Figure 9b: Q1 latency vs selectivity.
    ("fig9b", None, true, |c| {
        figure("== Figure 9b: Q1 latency vs selectivity (simulated s) ==", &fig9b(c.sf, &[10, 20, 40, 60, 80, 100]), "")
    }, None),
    // Figure 9c: sos secure-storage breakdown of Q2 and Q9.
    ("fig9c", None, true, |c| figure("== Figure 9c: sos secure-storage breakdown (Q2, Q9) ==", &fig9c(c.sf, &[2, 9]), ""), None),
    // Figure 10: hos/scs speedup vs storage CPUs.
    ("fig10", None, true, |c| figure("== Figure 10: hos/scs speedup vs storage CPUs ==", &fig10(c.sf, &[1, 2, 4, 8, 16]), ""), None),
    // Figure 11: scs speedup vs storage memory.
    ("fig11", None, true, |c| {
        let t = fig11(c.sf, &[128 * 1024, 256 * 1024, 2 * 1024 * 1024]);
        let title = "== Figure 11: scs speedup vs storage memory (vs smallest budget) ==";
        figure(title, &t, "   (paper: 128MiB/256MiB/2GiB, scaled 1/1024)")
    }, None),
    // Figure 12: N sessions on one shared system (wall-clock).
    ("fig12", None, true, |c| {
        let t = fig12(c.sf.min(0.002), &[1, 2, 4, 8, 16], &[1, 6, 12, 13]);
        let title = "== Figure 12: serving scalability — N sessions, one shared system (wall-clock vs ideal) ==";
        figure(title, &t, "   (≈1.00 = linear scaling)")
    }, None),
    // Offered load vs queue wait; run alone, also the mixed read/write
    // snapshot sweep (BENCH_9).
    ("saturation", Some(WRITES_SF), true, run_saturation, Some("BENCH_9.json")),
    // Table 3: GDPR anti-patterns, non-secure vs IronSafe (wall-clock).
    ("table3", None, true, |_| {
        figure("== Table 3: GDPR anti-patterns, non-secure vs IronSafe (wall-clock ms) ==", &table3(20_000), "")
    }, None),
    // Static vs adaptive partitioner on scs.
    ("ablation", None, true, |c| {
        figure("== Ablation: static vs adaptive partitioner (scs, simulated ms) ==", &partitioner_ablation(c.sf), "")
    }, None),
    // Table 4: attestation latency breakdown (wall-clock).
    ("table4", None, true, run_table4, None),
    // Morsel-driven Q1/Q6 across DOP 1/2/4/8 (wall-clock speedup).
    ("parallel", Some(0.01), false, run_parallel, None),
    // Seeded fault storms, per-surface recovery and crash-during-commit
    // storms; `--metrics-out` writes the `faults.*` counters.
    ("chaos", Some(0.002), false, run_chaos, None),
    // Merkle freshness fast path: per-page vs batched vs cached.
    ("freshness", None, false, run_freshness, Some("BENCH_5.json")),
    // Sharded federation across N = 1/2/4/8 storage nodes.
    ("shards", Some(SHARDS_SF), false, run_shards, Some("BENCH_7.json")),
    // Batch scan kernel x page compression at DOP 1 and 4.
    ("vectors", Some(VECTORS_SF), false, run_vectors, Some("BENCH_8.json")),
    // Adaptive offload optimizer grid and re-planning demo.
    ("adaptive", Some(ADAPTIVE_SF), false, run_adaptive, Some("BENCH_10.json")),
    // EXPLAIN ANALYZE profiles of Q1/Q6 under every configuration.
    ("profile", Some(PROFILE_SF), false, run_profile, Some("BENCH_6.json")),
];

/// Print `title` (if any), `table` with `header_note` after its header,
/// then `after` and a newline.
fn print_table(title: &str, table: &Table, header_note: &str, after: &str) {
    if !title.is_empty() {
        println!("{title}");
    }
    println!("{}{header_note}", table.header());
    for r in 0..table.len() {
        println!("{}", table.line(r));
    }
    println!("{after}");
}

/// A figure: `title`, the table, a blank line; no snapshot.
fn figure(title: &str, table: &Table, header_note: &str) -> Option<Snapshot> {
    print_table(title, table, header_note, "");
    None
}

fn run_fig6(ctx: &mut Ctx) -> Option<Snapshot> {
    let t = fig6(ctx.sf);
    let mean = |key: &str| (0..t.len()).map(|r| t.num(r, key)).product::<f64>().powf(1.0 / t.len() as f64);
    let (secure, nonsecure) = (mean("speedup_secure"), mean("speedup_nonsecure"));
    let title = "== Figure 6: query speedup from CS execution (higher is better) ==";
    print_table(title, &t, "", &format!("{:>5} {nonsecure:>17.2}x {secure:>17.2}x  (geometric mean)\n", "avg"));
    None
}

fn run_saturation(ctx: &mut Ctx) -> Option<Snapshot> {
    let t = saturation(ctx.sf.min(0.002), 4, &[0.25, 0.5, 0.75, 0.9, 1.1, 1.5], 2000);
    print_table("== Saturation: offered load vs queue wait (4-worker pool, simulated time) ==", &t, "", "");
    if ctx.all {
        return None;
    }
    let snapshot = mixed_sweep(ctx.sf, &WRITE_BURSTS);
    print_table(
        &format!("== Mixed read/write: snapshot reads under a group-commit writer (SF {}) ==\n", ctx.sf),
        snapshot.table("cells"),
        "",
        "(snapshot digest+cost bit-identical to the quiesced run at the pinned epoch)\n",
    );
    let a = snapshot.table("amortization");
    let v = |key| a.get(0, key);
    println!(
        "group-commit amortization over {} txns: WAL records {} -> {}, WAL bytes {} -> {}, \
         RPMB binds {} -> {} (group size 1 -> 4)\n",
        v("txns"),
        v("appends_g1"),
        v("appends_g4"),
        v("bytes_g1"),
        v("bytes_g4"),
        v("rpmb_g1"),
        v("rpmb_g4")
    );
    Some(snapshot)
}

fn run_table4(_: &mut Ctx) -> Option<Snapshot> {
    println!("== Table 4: attestation latency breakdown (wall-clock) ==");
    let paper = ["(paper reference)", "(140 ms)", "(453 ms)", "( 54 ms)", "( 42 ms)", "(689 ms)"];
    for (line, reference) in table4().render().lines().zip(paper) {
        println!("{line}   {reference}");
    }
    println!();
    None
}

fn run_parallel(ctx: &mut Ctx) -> Option<Snapshot> {
    print_table(
        &format!("== Morsel-driven parallel execution (wall-clock, SF {}) ==", ctx.sf),
        &parallel(ctx.sf, &[1, 2, 4, 8]),
        "",
        "(rows verified bit-identical to serial at every DOP)\n",
    );
    None
}

fn run_chaos(ctx: &mut Ctx) -> Option<Snapshot> {
    // Seeds × rates = 50 combos, the acceptance floor for the sweep.
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
    let rates = [0.0005, 0.002, 0.01, 0.05, 0.2];
    let report = chaos::run_chaos(ctx.sf, &seeds, &rates);
    let title = format!(
        "== Chaos: seeded fault storms on scs (SF {}, {} seeds x {} rates) ==",
        ctx.sf,
        seeds.len(),
        rates.len()
    );
    print_table(&title, &report.rates, "", "");
    println!("per-surface recovery (one scheduled transient fault each):");
    let s = &report.surfaces;
    for r in 0..s.len() {
        let ok = if s.get(r, "ok") == &Cell::Bool(true) { "OK" } else { "FAILED" };
        println!("  {:<8} injected {:>2}, recovered {:>2}  {ok}", s.text(r, "surface"), s.get(r, "injected"), s.get(r, "recovered"));
    }
    println!("\ncrash-during-commit storms (group-commit WAL, power-off + recovery per storm):");
    for line in report.commits.render().lines() {
        println!("  {line}");
    }
    println!("  (every recovery asserted prefix-consistent: acked rows, never a torn transaction)");
    println!("\n{} seed x rate combos; every run: identical rows or a typed error, no panics\n", report.combos);
    if let Some(path) = ctx.metrics_out.take() {
        let sidecar = format!("{path}.metrics.jsonl");
        std::fs::write(&sidecar, &report.metrics_jsonl).expect("write chaos metrics sidecar");
        println!("chaos: wrote fault counters to {sidecar}");
    }
    None
}

fn run_freshness(ctx: &mut Ctx) -> Option<Snapshot> {
    let snapshot = freshness_snapshot(ctx.sf, 4096, &[1, 6, 18]);
    print_table(
        "== Freshness fast path: Merkle node visits, three verification modes ==",
        snapshot.table("merkle_sweep"),
        "",
        "",
    );
    print_table(
        &format!("== Whole-query effect (scs, SF {}, cold start) ==", ctx.sf),
        snapshot.table("queries"),
        "",
        "(rows verified identical with the cache on and off at every point)\n",
    );
    Some(snapshot)
}

fn run_shards(ctx: &mut Ctx) -> Option<Snapshot> {
    let snapshot = shards_sweep(ctx.sf, &SHARD_COUNTS, &[1, 6]);
    print_table(
        &format!("== Sharded federation: Q1/Q6 on scs across N storage nodes (SF {}) ==\n", ctx.sf),
        snapshot.table("cells"),
        "",
        "(total/rows/bytes/pages/digest bit-identical at every N — asserted above)\n",
    );
    Some(snapshot)
}

fn run_vectors(ctx: &mut Ctx) -> Option<Snapshot> {
    let snapshot = vectors_sweep(ctx.sf, &[1, 6]);
    print_table(
        &format!("== Batch scan kernel x page compression: Q1/Q6 on scs (SF {}) ==\n", ctx.sf),
        snapshot.table("cells"),
        "",
        "(digests identical across formats; every cell identical at DOP 1 and DOP 4)\n",
    );
    print_table("", snapshot.table("reductions"), "   (compress-before-encrypt dividend)", "");
    Some(snapshot)
}

fn run_adaptive(ctx: &mut Ctx) -> Option<Snapshot> {
    let snapshot = adaptive_sweep(ctx.sf, &adaptive_grid());
    print_table(
        &format!(
            "== Adaptive offload optimizer: shape x cores x selectivity x EPC pressure grid on scs (SF {}) ==\n",
            ctx.sf
        ),
        snapshot.table("cells"),
        "",
        "(digests bit-identical across policies; adaptive <= best static at every point — asserted)\n",
    );
    let demo = snapshot.table("replan");
    let replans = demo.int(0, "replans");
    println!(
        "re-planning demo: pinned sel {:.0}% vs actual {}% — stubborn {:.0}ns, \
         re-planned {:.0}ns ({replans} re-plan{}, rows identical)\n",
        demo.num(0, "pinned_selectivity") * 100.0,
        demo.get(0, "actual_pct"),
        demo.num(0, "stubborn_ns"),
        demo.num(0, "replanned_ns"),
        if replans == 1 { "" } else { "s" }
    );
    Some(snapshot)
}

fn run_profile(ctx: &mut Ctx) -> Option<Snapshot> {
    println!("== End-to-end query profiler: EXPLAIN ANALYZE, Q1/Q6 x 5 configs (SF {}) ==\n", ctx.sf);
    let profiles = profile_matrix(ctx.sf, &SystemConfig::all(), &[1, 6]);
    for p in &profiles {
        if p.config == SystemConfig::IronSafe {
            // Full annotated plan for the paper's headline config.
            println!("{}", p.render());
        } else {
            println!(
                "Q{} {:<4} total={:>12.0}ns pages_read={:<5} macs={:<5} spans={}",
                p.query_id,
                p.config.abbrev(),
                p.breakdown.total_ns(),
                p.pager.page_reads,
                p.macs_verified,
                p.span_count
            );
        }
    }
    println!();
    Some(profiles_snapshot(ctx.sf, &profiles))
}

/// `--check`: the committed `file` must equal the regenerated snapshot
/// byte for byte; `--json`: rewrite `file` with it.
fn gate(name: &str, file: &str, snapshot: &Snapshot, check: bool, json_out: bool) {
    let json = snapshot.json();
    assert!(ironsafe_obs::export::looks_like_valid_json(&json), "{name} snapshot failed JSON self-check");
    if check {
        let baseline = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("{name} --check needs the committed {file} baseline: {e}"));
        let drift = snapshot.drift(&baseline);
        if !drift.is_empty() {
            eprintln!("{name}: snapshot DIVERGES from {file}:");
            for d in &drift {
                eprintln!("{d}");
            }
            eprintln!("(regenerate with `paperbench {name} --json` if the change is intended)");
            std::process::exit(1);
        }
        println!("{name}: snapshot matches {file} byte for byte (gate passes)");
    }
    if json_out {
        std::fs::write(file, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("{name}: wrote snapshot to {file}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = "all".to_string();
    let mut sf_flag: Option<f64> = None;
    let mut metrics_out: Option<String> = None;
    let mut json_out = false;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            "--check" => check = true,
            "--sf" => {
                i += 1;
                sf_flag = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SF));
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = args.get(i).cloned();
                if metrics_out.is_none() {
                    eprintln!("--metrics-out requires a path");
                    std::process::exit(2);
                }
            }
            other => what = other.to_string(),
        }
        i += 1;
    }
    let all = what == "all";
    let sf = sf_flag.unwrap_or(DEFAULT_SF);

    println!("IronSafe paper-evaluation harness (TPC-H SF {sf} ≈ paper SF {} ÷ 1000)", sf * 1000.0);
    println!("Table 2 configurations: hons, hos, vcs, scs (IronSafe), sos\n");

    for &(name, default_sf, in_all, run, file) in SUBCOMMANDS {
        if name != what && !(all && in_all) {
            continue;
        }
        let mut ctx = Ctx { sf: sf_flag.or(default_sf).unwrap_or(DEFAULT_SF), all, metrics_out: metrics_out.take() };
        let snapshot = run(&mut ctx);
        metrics_out = ctx.metrics_out;
        if let (Some(snapshot), Some(file)) = (snapshot, file) {
            gate(name, file, &snapshot, check, json_out);
            return;
        }
    }

    if let Some(path) = metrics_out {
        let bundle = telemetry::collect_traces(sf);
        assert!(
            ironsafe_obs::export::looks_like_valid_json(&bundle.chrome_trace),
            "exported Chrome trace failed self-check"
        );
        std::fs::write(&path, &bundle.chrome_trace).expect("write trace file");
        let sidecar = format!("{path}.metrics.jsonl");
        std::fs::write(&sidecar, &bundle.metrics_jsonl).expect("write metrics sidecar");
        println!(
            "telemetry: wrote {} spans from {} queries to {path} (counters: {sidecar})",
            bundle.spans, bundle.queries
        );
    }
}
