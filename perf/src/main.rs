//! Command line of the benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perf sweep --runs <n> --out <file>
//! perf compare <a.json> <b.json>
//! ```

use perf::harness::{self, RunArgs};
use perf::{noise, stats};
use std::process::ExitCode;

const USAGE: &str =
    "usage:\n  perf --workload <scan_cold|serve_warm|policy_point|write_mix> --seed <n> \
     --seconds <s> --trace <0|1> [--smoke]\n  perf sweep --runs <n> --out <file>\n  \
     perf compare <a.json> <b.json>";

/// `--name value` pairs and bare flags of `args`.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("bad value `{v}` for {name}"))
            })
            .transpose()
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn run(flags: &Flags<'_>) -> Result<(), String> {
    let args = RunArgs {
        workload: flags
            .value("--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        seconds: flags.parsed("--seconds")?.ok_or("--seconds is required")?,
        trace: match flags.value("--trace") {
            Some("0") => false,
            Some("1") => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        smoke: flags.has("--smoke"),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let measured = harness::run(&args)?;
    println!(
        "{}: {} positions x {} passes, {} threads available",
        args.workload,
        measured.positions,
        measured.passes.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let rounded = |v: &[f64]| {
        v.iter()
            .map(|ms| format!("{ms:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("set-ups ms: {}", rounded(&measured.setup_ms));
    println!("passes ms: {}", rounded(&measured.pass_wall_ms));
    let pooled: Vec<f64> = measured
        .passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    println!(
        "pooled raw latencies, which no metric uses: p50 {:.3} ms, p90 {:.3} ms",
        stats::percentile(&pooled, 50.0),
        stats::percentile(&pooled, 90.0)
    );
    println!("{}", measured.outcome(args.trace).to_line());
    Ok(())
}

fn sweep(flags: &Flags<'_>) -> Result<(), String> {
    let runs: usize = flags.parsed("--runs")?.ok_or("--runs is required")?;
    let out = flags.value("--out").ok_or("--out is required")?;
    if runs < 2 {
        return Err("--runs must be at least 2 (quartiles need two values)".into());
    }
    let doc = noise::sweep(runs)?;
    std::fs::write(out, &doc).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", noise::render_set(&noise::parse_set(&doc)?));
    Ok(())
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err(USAGE.into());
    };
    let read = |p: &String| -> Result<noise::Set, String> {
        noise::parse_set(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
    };
    let (table, pass) = noise::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep(&Flags(&args[1..])).map(|()| true),
        Some("compare") => compare(&args[1..]),
        Some(_) => run(&Flags(&args)).map(|()| true),
        None => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
