//! One run: set up, replay the request list K times, print the metrics.
//!
//! The timing method is what makes the numbers repeat on a shared 2-core
//! VM. A pass is a fixed, seed-generated request list; after one untimed
//! warm-up pass it is replayed K ≥ 12 times and each *position* keeps the
//! minimum latency it showed (its floor). Every timing metric is computed
//! from position floors. The set-up is timed the same way: ten complete
//! set-ups, five before the passes and five after them, the fastest is
//! `setup_s`. K is a function of `--seconds` and a
//! per-workload constant only, so every commit does the same work and
//! every count repeats exactly; space and memory are read when timed pass
//! [`MIN_PASSES`] ends, which every run reaches, so they do not depend on
//! K at all.

use crate::layers;
use crate::metrics::definition;
use crate::report::Outcome;
use crate::stats::{max, median, min, percentile, position_floors};
use crate::workload::{self, time_ms, ExitReport, Instance, OpCounts, PassResult, RunConfig};
use ironsafe_obs::{Span, Trace};
use std::collections::BTreeMap;

/// Fewest timed passes a full run makes.
pub const MIN_PASSES: usize = 12;
/// Complete set-ups a full run makes before its passes and again after
/// them; `setup_s` is the fastest of all. Two bursts, because a set-up is
/// short: a neighbour busy for two seconds sat on all nine set-ups of one
/// run in twenty and nearly doubled its `setup_s`; it cannot sit on both
/// ends of a run.
pub const SETUPS_PER_BURST: usize = 5;

/// Command-line inputs of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed passes are sized for.
    pub seconds: f64,
    /// Traced run: print per-layer metrics and write spans.
    pub trace: bool,
    /// Tiny scale factor, two passes, one set-up.
    pub smoke: bool,
}

/// Timed passes for a run of `seconds`.
pub fn passes_for(seconds: f64, nominal_pass_s: f64, smoke: bool) -> usize {
    if smoke {
        2
    } else {
        ((seconds / nominal_pass_s) as usize).max(MIN_PASSES)
    }
}

/// Everything one run measured, before it is cut down to the metrics the
/// mode prints.
pub struct Measured {
    /// Every complete set-up, milliseconds; `setup_s` is the fastest.
    pub setup_ms: Vec<f64>,
    /// The timed passes, in order.
    pub passes: Vec<PassResult>,
    /// Wall time of each timed pass, untimed answer checks included, ms.
    pub pass_wall_ms: Vec<f64>,
    /// Requests per pass.
    pub positions: usize,
    /// Requests issued, warm-up included, plus exit checks.
    pub attempted: u64,
    /// Requests and exit checks that failed.
    pub failed: u64,
    /// `VmHWM` in MiB when timed pass [`MIN_PASSES`] ended: set-ups,
    /// oracle, warm-up and twelve passes. Not later: `write_mix` never
    /// truncates its WAL, so memory and space would grow with K; and not at
    /// exit: recovery rebuilds the device from the WAL, and those transient
    /// copies are the harness's doing, not the served system's.
    pub peak_rss_mb: f64,
    /// Bytes on the block device and the WAL medium at that same moment.
    pub stored_bytes: u64,
    /// Encoded bytes of every user row stored.
    pub user_bytes: u64,
    /// What the exit checks found.
    pub exit: ExitReport,
    /// Closed-loop sessions running side by side (1 unless `serve_warm`);
    /// positions are laid out session by session.
    pub sessions: usize,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A traced run alternates untraced and traced passes, so that both sets
/// of floors see the same machine.
pub fn traced_pass(trace: bool, pass_no: usize) -> bool {
    trace && pass_no % 2 == 1
}

/// Position floors over `passes`.
pub fn floors_of<'a>(passes: impl Iterator<Item = &'a PassResult>) -> Vec<f64> {
    let lat: Vec<Vec<f64>> = passes.map(|p| p.lat_ms.clone()).collect();
    position_floors(&lat)
}

impl Measured {
    /// Position floors over every timed pass.
    pub fn floors(&self) -> Vec<f64> {
        floors_of(self.passes.iter())
    }

    /// Sum of the per-request counts of the timed passes.
    pub fn counts(&self) -> OpCounts {
        let mut total = OpCounts::default();
        self.passes.iter().for_each(|p| total.add(&p.counts));
        total
    }

    /// The end-to-end metrics, by name.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let floors = self.floors();
        let requests = (self.passes.len() * self.positions) as f64;
        // One caller: every request at its own floor. Sessions side by
        // side: the fastest pass that really ran, a pass lasting as long
        // as its slowest session. Position floors there would each come
        // from the pass where that request contended least, and add up to
        // a pass without the contention this workload exists to show.
        let busy_ms = if self.sessions == 1 {
            floors.iter().sum()
        } else {
            let per_session = self.positions / self.sessions;
            let pass_ms = self.passes.iter().map(|p| {
                p.lat_ms
                    .chunks(per_session)
                    .map(|session| session.iter().sum::<f64>())
                    .fold(0.0, f64::max)
            });
            pass_ms.fold(f64::INFINITY, f64::min)
        };
        BTreeMap::from([
            ("ops_per_s", self.positions as f64 / (busy_ms / 1e3)),
            ("lat_p50_ms", median(&floors)),
            ("lat_p90_ms", percentile(&floors, 90.0)),
            ("lat_max_ms", max(&floors)),
            ("sim_ms_per_op", self.counts().sim_ns / requests / 1e6),
            ("peak_rss_mb", self.peak_rss_mb),
            (
                "space_amp",
                self.stored_bytes as f64 / self.user_bytes as f64,
            ),
            ("setup_s", min(&self.setup_ms) / 1e3),
        ])
    }

    /// The result line of this run.
    pub fn outcome(&self, trace: bool) -> Outcome {
        let def = definition();
        let metrics = if trace {
            def.per_layer
                .iter()
                .map(|m| {
                    let value = self.layers.get(m.name.as_str()).copied().unwrap_or(0.0);
                    (m.name.clone(), value, m.unit.clone())
                })
                .collect()
        } else {
            let values = self.end_to_end();
            def.end_to_end
                .iter()
                .map(|m| (m.name.clone(), values[m.name.as_str()], m.unit.clone()))
                .collect()
        };
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> Result<Measured, String> {
    let workload = workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let cfg = RunConfig {
        seed: args.seed,
        smoke: args.smoke,
    };

    // The first burst of set-ups; its last instance is the one measured.
    let mut setup_ms = Vec::new();
    let mut instance: Option<Box<dyn Instance>> = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS_PER_BURST } {
        if let Some(old) = instance.take() {
            old.discard();
        }
        let (inst, ms) = time_ms(|| workload.setup(&cfg));
        setup_ms.push(ms);
        instance = Some(inst);
    }
    let mut inst = instance.expect("at least one set-up");
    let positions = inst.positions().len();

    // Expected digests from the plain oracle: for the warm-up pass (fresh
    // state) and for every later pass (the state a pass leaves behind),
    // which must be a fixed point.
    let expect_warm = inst.oracle_pass();
    let (expect, plain_a) = time_ms(|| inst.oracle_pass());
    let (again, plain_b) = time_ms(|| inst.oracle_pass());
    if expect != again {
        return Err("the request list does not restore its own state".into());
    }

    let k = passes_for(args.seconds, workload.nominal_pass_s(), args.smoke);
    let trace = Trace::new();
    let warm = inst.run_pass(&expect_warm);
    let mut crypto = layers::CryptoSampler::new(inst.as_ref());
    let counters_before = layers::CounterMark::take(inst.as_ref());
    let mut passes = Vec::with_capacity(k);
    let mut at_min_passes = (0.0, 0);
    let mut pass_wall_ms = Vec::with_capacity(k);
    for pass_no in 0..k {
        let (pass, wall_ms) = if traced_pass(args.trace, pass_no) {
            let _installed = trace.install();
            let _span = Span::enter(&format!("{}/pass{pass_no}", args.workload));
            time_ms(|| inst.run_pass(&expect))
        } else {
            time_ms(|| inst.run_pass(&expect))
        };
        passes.push(pass);
        pass_wall_ms.push(wall_ms);
        if args.trace {
            crypto.sample();
        }
        if passes.len() == MIN_PASSES.min(k) {
            at_min_passes = (peak_rss_mb(), inst.stored_bytes());
        }
    }
    let counters = counters_before.delta(inst.as_ref());
    for why in warm
        .failures
        .iter()
        .chain(passes.iter().flat_map(|p| &p.failures))
        .take(20)
    {
        eprintln!("failed: {why}");
    }

    let mut measured = Measured {
        setup_ms,
        attempted: (positions * (k + 1)) as u64,
        failed: (warm.failures.len() + passes.iter().map(|p| p.failures.len()).sum::<usize>())
            as u64,
        passes,
        pass_wall_ms,
        positions,
        peak_rss_mb: at_min_passes.0,
        stored_bytes: at_min_passes.1,
        user_bytes: inst.user_bytes(),
        exit: ExitReport::default(),
        sessions: inst.sessions(),
        layers: BTreeMap::new(),
    };
    let spans = trace.snapshot();
    if args.trace {
        let raw_total_ms: f64 = warm
            .lat_ms
            .iter()
            .chain(measured.passes.iter().flat_map(|p| &p.lat_ms))
            .sum();
        measured.layers = layers::measure(&layers::Inputs {
            measured: &measured,
            inst: inst.as_ref(),
            counters: &counters,
            trace: &spans,
            plain_pass_ms: plain_a.min(plain_b),
            raw_total_ms,
            cfg: &cfg,
            crypto: crypto.costs(),
        });
    }
    measured.exit = inst.finish();
    measured.attempted += measured.exit.checks;
    measured.failed += measured.exit.failed_checks;
    if !args.smoke {
        for _ in 0..SETUPS_PER_BURST {
            let (again, ms) = time_ms(|| workload.setup(&cfg));
            again.discard();
            measured.setup_ms.push(ms);
        }
    }
    if args.trace {
        measured
            .layers
            .insert("storage.recover_ms", measured.exit.recover_ms);
        layers::write_spans(&spans, &args.workload, args.seed)?;
    }
    Ok(measured)
}
