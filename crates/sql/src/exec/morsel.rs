//! Morsel-driven execution: options, page partitioning and the worker
//! pool around the scan kernel ([`crate::exec::scan`]).
//!
//! A heap's page list is split into fixed-size **morsels**. At DOP 1 the
//! scan kernel pulls them one at a time, in page order, on the calling
//! thread. At DOP > 1 a pool of worker threads (bounded by [`Dop`] and
//! the machine's hardware parallelism) claims morsels off a shared
//! atomic cursor and `run_ordered` hands each morsel's result to the
//! consumer in morsel order — which *is* page order, which *is* the
//! serial row order.
//!
//! **Determinism invariant**: parallel execution buys wall-clock time
//! only — `QueryResult` rows, `CostBreakdown`s and `PagerStats` deltas
//! are bit-identical at any DOP. Scans preserve row order by
//! construction. Aggregation is the subtle part: float accumulation is
//! not associative and group order is first-seen, so workers only
//! *pre-evaluate* per-row expressions; the single-threaded consumer
//! replays the exact serial `GroupAcc` state machine in row order.
//! Page-level counters commute, so batched out-of-order reads leave
//! every stats delta unchanged.

use crate::Result;
use ironsafe_obs::{Counter, Registry, Span, Trace, TraceCtx};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Pages per morsel when [`ExecOptions::morsel_pages`] is not overridden.
pub const DEFAULT_MORSEL_PAGES: usize = 16;

/// Degree of parallelism for morsel execution. `Dop::new(1)` (the
/// default) runs the scan kernel on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dop(usize);

impl Dop {
    /// Clamp `n` to at least 1.
    pub fn new(n: usize) -> Self {
        Dop(n.max(1))
    }

    /// Worker count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Dop {
    fn default() -> Self {
        Dop(1)
    }
}

/// Live `exec.morsel.*` counters bumped by the scan kernel.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Scans started (`exec.morsel.scans`).
    pub scans: Counter,
    /// Morsels read (`exec.morsel.dispatched`).
    pub morsels: Counter,
    /// Rows decoded, pre-filter (`exec.morsel.rows`).
    pub rows: Counter,
}

impl ExecMetrics {
    /// Attach every cell to `registry` under its `exec.morsel.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("exec.morsel.scans", &self.scans);
        registry.register_counter("exec.morsel.dispatched", &self.morsels);
        registry.register_counter("exec.morsel.rows", &self.rows);
    }
}

/// Knobs for morsel execution, threaded from the session/system down to
/// the planner.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker count; 1 pulls morsels lazily on the calling thread.
    pub dop: Dop,
    /// Pages per morsel.
    pub morsel_pages: usize,
    /// Spawn exactly `dop` workers even beyond the machine's available
    /// parallelism. Off by default: the pool is additionally capped at
    /// the machine's hardware parallelism, because surplus threads on
    /// saturated cores cost context switches without buying any
    /// wall-clock time. Tests force it on to exercise cross-thread
    /// determinism regardless of the host's core count.
    pub oversubscribe: bool,
    /// Live counters shared by every scan run under these options.
    pub metrics: ExecMetrics,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            dop: Dop::default(),
            morsel_pages: DEFAULT_MORSEL_PAGES,
            oversubscribe: false,
            metrics: ExecMetrics::default(),
        }
    }
}

impl ExecOptions {
    /// Serial execution (the default).
    pub fn serial() -> Self {
        Self::default()
    }

    /// Parallel execution with `dop` workers.
    pub fn with_dop(dop: usize) -> Self {
        ExecOptions { dop: Dop::new(dop), ..Self::default() }
    }

    /// Threads a scan over `morsels` morsels runs on. DOP 1 answers
    /// without consulting the machine: `available_parallelism()` reads
    /// cgroup files (12–15 µs), which a 32-row point select would pay
    /// on every statement — so the pool's cap is resolved once per
    /// process, and never on the serial path.
    pub(crate) fn workers(&self, morsels: usize) -> usize {
        static HARDWARE: OnceLock<usize> = OnceLock::new();
        let dop = self.dop.get().min(morsels);
        if dop <= 1 || self.oversubscribe {
            return dop.max(1);
        }
        dop.min(*HARDWARE.get_or_init(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }))
    }
}

/// A contiguous run of heap page indexes, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First page index.
    pub start: usize,
    /// One past the last page index.
    pub end: usize,
}

/// Split `num_pages` heap pages into fixed-size morsels. Every page
/// index in `0..num_pages` lands in exactly one morsel; concatenating
/// the morsels in order yields `0..num_pages`.
pub fn partition_pages(num_pages: usize, morsel_pages: usize) -> Vec<Morsel> {
    let size = morsel_pages.max(1);
    let mut morsels = Vec::with_capacity(num_pages.div_ceil(size));
    let mut start = 0;
    while start < num_pages {
        let end = (start + size).min(num_pages);
        morsels.push(Morsel { start, end });
        start = end;
    }
    morsels
}

/// Run `work(i, state)` for every `i` in `0..n` on `nworkers` threads
/// claiming indexes off a shared cursor (each thread owns one reusable
/// `S`), and hand the results to `consume` **in index order** on the
/// calling thread while the workers are still running — so the consumer
/// holds at most the results that completed out of order, not all `n`.
/// The first error by index order is returned; workers stop claiming
/// once it is seen.
pub(crate) fn run_ordered<S: Default, M: Send>(
    n: usize,
    nworkers: usize,
    work: impl Fn(usize, &mut S) -> Result<M> + Sync,
    mut consume: impl FnMut(M) -> Result<()>,
) -> Result<()> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<M>)>();
    let trace = Trace::current();
    // The trace ctx is thread-local: capture the query's ctx here and
    // re-install it inside each worker so morsel spans stitch into the
    // same query id across threads.
    let ctx = TraceCtx::current();
    crossbeam::thread::scope(|s| {
        for w in 0..nworkers {
            let (tx, trace) = (tx.clone(), trace.clone());
            let (cursor, stop, work) = (&cursor, &stop, &work);
            s.spawn(move |_| {
                // Workers join the parent's trace so their spans land in
                // the same timeline; they attribute no simulated time
                // (parallelism buys wall-clock, not simulated time).
                let _guard = trace.as_ref().map(|t| t.install());
                let _ctx_guard = ctx.map(|c| c.install());
                let _span = Span::enter(&format!("exec/morsel_worker{w}"));
                let mut state = S::default();
                while !stop.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, work(i, &mut state))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut parked: Vec<Option<Result<M>>> = (0..n).map(|_| None).collect();
        let mut next = 0;
        let mut outcome = Ok(());
        for (i, result) in rx {
            parked[i] = Some(result);
            while let Some(result) = parked.get_mut(next).and_then(Option::take) {
                next += 1;
                if outcome.is_ok() {
                    outcome = result.and_then(&mut consume);
                    if outcome.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        outcome
    })
    .expect("morsel workers do not panic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggFunc;
    use crate::exec::{collect, oracle, AggSpec, Scan, ScanAggregate, ScanSource};
    use crate::heap::{shared, HeapFile};
    use crate::parser::parse_expression;
    use crate::schema::{Column, Schema};
    use crate::value::{DataType, Value};
    use crate::SqlError;
    use ironsafe_storage::pager::{PagerStats, PlainPager};
    use proptest::prelude::*;

    fn fixture(nrows: i64) -> ScanSource {
        let pager = shared(PlainPager::new());
        let mut heap = HeapFile::new();
        let row = |i| {
            vec![Value::Int(i), Value::Text(format!("grp{}", i % 7)), Value::Float(i as f64 * 0.25)]
        };
        heap.append_rows(&pager, (0..nrows).map(row).collect()).unwrap();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("g", DataType::Text),
            Column::new("x", DataType::Float),
        ]);
        ScanSource { schema, heap, pager, pred: None, cols: vec![true; 3] }
    }

    fn opts(dop: usize, morsel_pages: usize) -> ExecOptions {
        ExecOptions { morsel_pages, oversubscribe: true, ..ExecOptions::with_dop(dop) }
    }

    /// Run `f` and return its result with the pager-stats delta it cost.
    fn with_stats<T>(source: &ScanSource, f: impl FnOnce() -> T) -> (T, PagerStats) {
        source.pager.lock().reset_stats();
        let out = f();
        (out, source.pager.lock().stats())
    }

    fn spec(func: AggFunc, arg: Option<&str>, distinct: bool, name: &str) -> AggSpec {
        AggSpec {
            func,
            arg: arg.map(|a| parse_expression(a).unwrap()),
            distinct,
            name: name.into(),
        }
    }

    #[test]
    fn parallel_scan_matches_serial_scan_rows_and_stats() {
        let mut source = fixture(2000);
        source.pred = Some(parse_expression("a % 3 = 0").unwrap());
        let (serial, serial_stats) = with_stats(&source, || oracle::scan_all(&source).unwrap());
        for dop in [1, 2, 4, 8] {
            let o = opts(dop, 3);
            let scan = Scan::columns(source.clone(), o.clone()).unwrap();
            let (parallel, stats) = with_stats(&source, || collect(Box::new(scan)).unwrap().1);
            assert_eq!(parallel, serial, "dop {dop}: row stream must be order-identical");
            assert_eq!(stats, serial_stats, "dop {dop}: stats delta must be identical");
            assert_eq!(o.metrics.scans.get(), 1);
            assert!(o.metrics.morsels.get() > 1);
            assert_eq!(o.metrics.rows.get(), 2000, "rows counter counts pre-filter lanes");
        }
    }

    #[test]
    fn parallel_aggregate_matches_serial_bit_for_bit() {
        let source = fixture(3000);
        let group_exprs = vec![parse_expression("g").unwrap()];
        let aggs = vec![
            spec(AggFunc::Count, None, false, "cnt"),
            spec(AggFunc::Sum, Some("x * 1.1"), false, "s"),
            spec(AggFunc::Avg, Some("x"), false, "m"),
            spec(AggFunc::Count, Some("a % 11"), true, "d"),
        ];
        let serial = oracle::aggregate(&source, &group_exprs, &aggs).unwrap();
        for dop in [1, 2, 4, 8] {
            let agg = ScanAggregate::new(
                source.clone(),
                opts(dop, 2),
                group_exprs.clone(),
                vec!["g".into()],
                aggs.clone(),
            )
            .unwrap();
            let (schema, rows) = collect(Box::new(agg)).unwrap();
            assert_eq!(rows, serial, "dop {dop} drifted from serial");
            let names: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["g", "cnt", "s", "m", "d"]);
        }
    }

    #[test]
    fn vectorized_scan_matches_serial_rows_and_stats() {
        // Compound predicate, computed projection, and a column mask
        // that prunes the one column (`g`) the statement never reads.
        let mut source = fixture(2000);
        source.pred = Some(parse_expression("a % 3 = 0 AND x < 300.0").unwrap());
        source.cols = vec![true, false, true];
        let exprs = [parse_expression("x * 2.0").unwrap(), parse_expression("a").unwrap()];
        let out = Schema::new(vec![
            Column::new("twice", DataType::Float),
            Column::new("a", DataType::Int),
        ]);
        let (serial, serial_stats) = with_stats(&source, || oracle::scan(&source, &exprs).unwrap());
        assert!(!serial.is_empty());
        for dop in [1, 4] {
            let scan = Scan::new(source.clone(), &exprs, out.clone(), opts(dop, 3)).unwrap();
            let (got, stats) = with_stats(&source, || collect(Box::new(scan)).unwrap().1);
            assert_eq!(got, serial, "dop {dop}: row stream must be order-identical");
            assert_eq!(stats, serial_stats, "dop {dop}: stats delta must be identical");
        }
    }

    #[test]
    fn vectorized_aggregate_matches_serial_bit_for_bit() {
        let mut source = fixture(3000);
        source.pred = Some(parse_expression("x BETWEEN 10.0 AND 600.0").unwrap());
        let group_exprs = vec![parse_expression("g").unwrap()];
        let aggs = vec![
            spec(AggFunc::Count, None, false, "cnt"),
            spec(AggFunc::Sum, Some("x * 1.1"), false, "s"),
            spec(AggFunc::Avg, Some("x"), false, "m"),
            spec(AggFunc::Min, Some("a"), false, "lo"),
        ];
        let serial = oracle::aggregate(&source, &group_exprs, &aggs).unwrap();
        for dop in [1, 4] {
            let agg = ScanAggregate::new(
                source.clone(),
                opts(dop, 2),
                group_exprs.clone(),
                vec!["g".into()],
                aggs.clone(),
            )
            .unwrap();
            assert_eq!(collect(Box::new(agg)).unwrap().1, serial, "dop {dop} drifted from serial");
        }
    }

    #[test]
    fn empty_heap_parallel_global_aggregate_yields_one_row() {
        let source = ScanSource { heap: HeapFile::new(), ..fixture(0) };
        let agg = ScanAggregate::new(
            source,
            ExecOptions::with_dop(4),
            vec![],
            vec![],
            vec![spec(AggFunc::Count, None, false, "c")],
        )
        .unwrap();
        let (_, rows) = collect(Box::new(agg)).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn run_ordered_consumes_in_index_order_and_reports_the_first_error() {
        let mut seen = Vec::new();
        run_ordered(
            50,
            4,
            |i, calls: &mut usize| {
                *calls += 1;
                Ok(i * 2)
            },
            |v| {
                seen.push(v);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..50).map(|i| i * 2).collect::<Vec<_>>());

        let mut consumed = 0;
        let err = run_ordered(
            50,
            4,
            |i, _: &mut ()| {
                if i == 7 || i == 30 {
                    Err(SqlError::Eval(format!("morsel {i}")))
                } else {
                    Ok(i)
                }
            },
            |_| {
                consumed += 1;
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, SqlError::Eval("morsel 7".into()), "first error by index order");
        assert_eq!(consumed, 7, "nothing past the failed index is consumed");
    }

    #[test]
    fn serial_scans_never_size_a_pool() {
        assert_eq!(ExecOptions::serial().workers(1000), 1);
        assert_eq!(ExecOptions::with_dop(8).workers(0), 1);
        assert_eq!(ExecOptions::with_dop(8).workers(1), 1);
        let forced = ExecOptions { oversubscribe: true, ..ExecOptions::with_dop(8) };
        assert_eq!(forced.workers(1000), 8);
        assert_eq!(forced.workers(3), 3);
        assert!(ExecOptions::with_dop(8).workers(1000) >= 1);
    }

    proptest! {
        #[test]
        fn partitioner_covers_every_page_exactly_once(
            num_pages in 0usize..5000,
            morsel_pages in 0usize..130,
        ) {
            let morsels = partition_pages(num_pages, morsel_pages);
            // Concatenated, the morsels are exactly 0..num_pages: no
            // gaps, no overlaps, order preserved.
            let mut covered = Vec::with_capacity(num_pages);
            for m in &morsels {
                prop_assert!(m.start < m.end, "empty morsel {m:?}");
                prop_assert!(m.end - m.start <= morsel_pages.max(1));
                covered.extend(m.start..m.end);
            }
            prop_assert_eq!(covered, (0..num_pages).collect::<Vec<_>>());
        }
    }
}
