//! The scan kernel: the one way rows leave a heap.
//!
//! Every plan reads its base tables through [`Kernel::run`], one morsel
//! at a time: a batched `read_pages` into a reused byte buffer (one
//! pager lock per morsel; on a secure pager the morsel shares one Merkle
//! climb), a columnar decode of **only the columns the statement
//! references** into a reused [`ColumnBatch`] (every other cell is still
//! validated, never copied), the bound predicate over the batch
//! ([`filter_vec`]), and a *sink* that builds owned values for the
//! surviving lanes only — output rows for [`Scan`], group keys and
//! aggregate inputs for [`ScanAggregate`]. Text is copied twice at most:
//! page → column arena for referenced columns, arena → `String` for
//! lanes that survive the predicate and reach the output. A [`Scan`]
//! drained through [`Operator::drain_encoded`] skips the second copy's
//! `String` too: surviving lanes are written straight from the batch
//! into one [`EncodedRows`] buffer, no `Value` per cell.
//!
//! At DOP 1 a [`Scan`] pulls morsels lazily in page order, so it holds
//! one morsel of rows and stops reading when its parent stops pulling
//! (with one-page morsels, which is how `LIMIT` plans are built, it
//! reads exactly the pages a page-at-a-time scan would). At DOP > 1 the
//! same kernel runs on the worker pool ([`run_ordered`]) and results
//! are consumed in morsel order.

use crate::ast::{expr_to_sql, Expr};
use crate::batch::ColumnBatch;
use crate::encoded::EncodedRows;
use crate::exec::aggregate::{agg_output_schema, AggSpec, GroupAcc};
use crate::exec::morsel::{partition_pages, run_ordered, ExecOptions, Morsel};
use crate::exec::Operator;
use crate::expr::{bind, eval_vec, filter_vec, BoundExpr, VecScratch};
use crate::heap::{scan_page_columns, HeapFile, SharedPager};
use crate::schema::{Row, Schema};
use crate::value::{RawValue, Value};
use crate::{Result, SqlError};
use ironsafe_obs::{Span, TraceCtx};
use std::sync::atomic::{AtomicU64, Ordering};

/// One base-table scan: the table's heap, the pager it lives on, its
/// schema, the pushed-down predicate and the set of columns the
/// statement references (`cols[c]` set ⇒ column `c` is decoded; the
/// predicate and every output expression may only touch those).
#[derive(Clone)]
pub struct ScanSource {
    /// The table's columns.
    pub schema: Schema,
    /// The table's page list.
    pub heap: HeapFile,
    /// Pager the pages live on.
    pub pager: SharedPager,
    /// Pushed-down filter, evaluated on the batch.
    pub pred: Option<Expr>,
    /// Referenced-column mask, one flag per schema column.
    pub cols: Vec<bool>,
}

/// Per-worker buffers the kernel reuses from morsel to morsel.
#[derive(Default)]
struct MorselBuf {
    bytes: Vec<u8>,
    batch: ColumnBatch,
    sel: Vec<bool>,
    scratch: VecScratch,
}

/// What a scan does with a filtered morsel: append to `M` whatever it
/// builds from the batch's live lanes.
trait Sink<M>: Fn(&ColumnBatch, &[bool], &mut VecScratch, &mut M) -> Result<()> {}
impl<M, F: Fn(&ColumnBatch, &[bool], &mut VecScratch, &mut M) -> Result<()>> Sink<M> for F {}

/// A [`ScanSource`] bound for execution.
struct Kernel {
    source: ScanSource,
    pred: Option<BoundExpr>,
    morsels: Vec<Morsel>,
    opts: ExecOptions,
    /// Rows decoded so far (pre-filter), for `EXPLAIN ANALYZE`.
    scanned: AtomicU64,
}

impl Kernel {
    fn new(source: ScanSource, opts: ExecOptions) -> Result<Self> {
        debug_assert_eq!(source.cols.len(), source.schema.len());
        let pred = source.pred.as_ref().map(|p| bind(p, &source.schema)).transpose()?;
        let morsels = partition_pages(source.heap.pages.len(), opts.morsel_pages);
        Ok(Kernel { source, pred, morsels, opts, scanned: AtomicU64::new(0) })
    }

    fn workers(&self) -> usize {
        self.opts.workers(self.morsels.len())
    }

    /// Read, decode and filter morsel `i` into `buf`, then let `sink`
    /// append the morsel's output, built from the surviving lanes, to
    /// `out` (skipped when none survive). The morsel refines the
    /// ambient [`TraceCtx`] with its index and runs inside its own span;
    /// a failed morsel (fault exhaustion, violation) tags the span
    /// before it closes, so chaos traces stay well-formed trees.
    fn run<M>(&self, i: usize, buf: &mut MorselBuf, sink: &impl Sink<M>, out: &mut M) -> Result<()> {
        let _ctx = TraceCtx::current().map(|c| c.with_morsel(i as u64).install());
        let span = Span::enter("exec/morsel");
        let result = self.run_in_span(i, buf, sink, out);
        if result.is_err() {
            span.fail("exec.morsel.failed");
        }
        result
    }

    fn run_in_span<M>(
        &self,
        i: usize,
        buf: &mut MorselBuf,
        sink: &impl Sink<M>,
        out: &mut M,
    ) -> Result<()> {
        let Morsel { start, end } = self.morsels[i];
        let ids = &self.source.heap.pages[start..end];
        let payload = {
            let mut pager = self.source.pager.lock();
            let payload = pager.payload_size();
            buf.bytes.resize(ids.len() * payload, 0);
            pager.read_pages(ids, &mut buf.bytes).map_err(SqlError::from)?;
            payload
        };
        self.opts.metrics.morsels.inc();
        let cols = &self.source.cols;
        if buf.batch.width() != cols.len() {
            buf.batch = ColumnBatch::new(cols.len());
        }
        buf.batch.clear();
        for page in buf.bytes.chunks_exact(payload) {
            scan_page_columns(page, cols, &mut buf.batch)?;
        }
        let rows = buf.batch.len();
        self.opts.metrics.rows.add(rows as u64);
        self.scanned.fetch_add(rows as u64, Ordering::Relaxed);
        buf.sel.clear();
        buf.sel.resize(rows, true);
        if let Some(pred) = &self.pred {
            filter_vec(pred, &buf.batch, &mut buf.sel, &mut buf.scratch)?;
        }
        if let Some(watch) = &self.opts.watch {
            let kept = buf.sel.iter().filter(|live| **live).count();
            watch.record(i, rows as u64, kept as u64);
        }
        if !buf.sel.contains(&true) {
            return Ok(());
        }
        sink(&buf.batch, &buf.sel, &mut buf.scratch, out)
    }

    /// Run every morsel and hand the per-morsel outputs to `consume` in
    /// morsel order — on this thread at DOP 1, on the worker pool above.
    fn drive<M: Default + Send>(
        &self,
        sink: impl Sink<M> + Sync,
        mut consume: impl FnMut(M) -> Result<()>,
    ) -> Result<()> {
        self.opts.metrics.scans.inc();
        let morsel = |i, buf: &mut MorselBuf| {
            let mut out = M::default();
            self.run(i, buf, &sink, &mut out)?;
            Ok(out)
        };
        let workers = self.workers();
        if workers <= 1 {
            let mut buf = MorselBuf::default();
            return (0..self.morsels.len()).try_for_each(|i| consume(morsel(i, &mut buf)?));
        }
        run_ordered(self.morsels.len(), workers, morsel, consume)
    }

    fn describe(&self) -> String {
        let s = &self.source;
        let mut out = format!(
            "{} pages, {} rows, {}/{} cols, dop {}",
            s.heap.page_count(),
            s.heap.row_count,
            s.cols.iter().filter(|c| **c).count(),
            s.cols.len(),
            self.opts.dop.get()
        );
        if let Some(p) = &s.pred {
            out.push_str(&format!(", filter {}", expr_to_sql(p)));
        }
        out
    }
}

/// Output expressions bound against the table schema. Column references
/// read batch lanes directly (no intermediate vector, no text copy until
/// the output needs the value); computed expressions evaluate once per
/// morsel over the surviving selection.
enum Slot {
    Col(usize),
    /// `COUNT(*)` input: counts rows.
    One,
    Expr(BoundExpr),
}

impl Slot {
    fn bind(e: &Expr, schema: &Schema) -> Result<Slot> {
        Ok(match bind(e, schema)? {
            BoundExpr::Col(i) => Slot::Col(i),
            e => Slot::Expr(e),
        })
    }
}

/// Evaluate the computed slots over the batch's live lanes.
fn eval_slots(
    slots: &[Slot],
    batch: &ColumnBatch,
    sel: &[bool],
    scratch: &mut VecScratch,
) -> Result<Vec<Vec<Value>>> {
    slots
        .iter()
        .map(|s| match s {
            Slot::Expr(e) => eval_vec(e, batch, sel, scratch),
            _ => Ok(Vec::new()),
        })
        .collect()
}

/// Owned value of slot `k` for `lane` (moves computed values out).
fn slot_value(
    slots: &[Slot],
    vecs: &mut [Vec<Value>],
    k: usize,
    batch: &ColumnBatch,
    lane: usize,
) -> Value {
    match &slots[k] {
        Slot::Col(c) => batch.value_at(*c, lane),
        Slot::One => Value::Int(1),
        Slot::Expr(_) => std::mem::replace(&mut vecs[k][lane], Value::Null),
    }
}

fn live_lanes(sel: &[bool]) -> impl Iterator<Item = usize> + '_ {
    sel.iter().enumerate().filter_map(|(lane, live)| live.then_some(lane))
}

/// Table scan with the pushed-down filter and the projection fused in:
/// emits one output row per surviving lane, in heap order.
pub struct Scan {
    kernel: Kernel,
    slots: Vec<Slot>,
    schema: Schema,
    buf: MorselBuf,
    /// Next morsel to pull (DOP 1); `None` before the first pull.
    cursor: Option<usize>,
    rows: std::vec::IntoIter<Row>,
    emitted: u64,
}

impl Scan {
    /// Scan `source`, computing `exprs` (bound against the table schema,
    /// named per `schema`) for every row that passes its predicate.
    pub fn new(source: ScanSource, exprs: &[Expr], schema: Schema, opts: ExecOptions) -> Result<Self> {
        debug_assert_eq!(exprs.len(), schema.len());
        let slots = exprs.iter().map(|e| Slot::bind(e, &source.schema)).collect::<Result<_>>()?;
        Ok(Scan {
            kernel: Kernel::new(source, opts)?,
            slots,
            schema,
            buf: MorselBuf::default(),
            cursor: None,
            rows: Vec::new().into_iter(),
            emitted: 0,
        })
    }

    /// Scan `source` emitting its referenced columns (`source.cols`), in
    /// table order, under their own names.
    pub fn columns(source: ScanSource, opts: ExecOptions) -> Result<Self> {
        let kept = || source.schema.columns.iter().zip(&source.cols).filter(|(_, keep)| **keep);
        let exprs: Vec<Expr> = kept().map(|(c, _)| Expr::Column(c.name.clone())).collect();
        let schema = Schema::new(kept().map(|(c, _)| c.clone()).collect());
        Scan::new(source, &exprs, schema, opts)
    }

    /// Load the next batch of output rows; `false` when exhausted.
    fn fill(&mut self) -> Result<bool> {
        let Scan { kernel, slots, buf, cursor, rows, .. } = self;
        let sink = |batch: &ColumnBatch, sel: &[bool], scratch: &mut VecScratch, out: &mut Vec<Row>| {
            let mut vecs = eval_slots(slots, batch, sel, scratch)?;
            out.extend(live_lanes(sel).map(|lane| {
                (0..slots.len()).map(|k| slot_value(slots, &mut vecs, k, batch, lane)).collect()
            }));
            Ok(())
        };
        let mut out = Vec::new();
        let next = match *cursor {
            Some(next) => next,
            None if kernel.workers() > 1 => {
                kernel.drive(sink, |mut morsel_rows: Vec<Row>| {
                    out.append(&mut morsel_rows);
                    Ok(())
                })?;
                *cursor = Some(kernel.morsels.len());
                *rows = out.into_iter();
                return Ok(true);
            }
            None => {
                kernel.opts.metrics.scans.inc();
                0
            }
        };
        if next >= kernel.morsels.len() {
            return Ok(false);
        }
        *cursor = Some(next + 1);
        kernel.run(next, buf, &sink, &mut out)?;
        *rows = out.into_iter();
        Ok(true)
    }
}

impl Operator for Scan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let names: Vec<&str> = self.schema.columns.iter().map(|c| c.name.as_str()).collect();
        format!("Scan ({}, project {})", self.kernel.describe(), names.join(", "))
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn rows_scanned(&self) -> Option<u64> {
        Some(self.kernel.scanned.load(Ordering::Relaxed))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.rows.next() {
                self.emitted += 1;
                return Ok(Some(row));
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// Surviving lanes and computed slots go from the batch straight
    /// into `out`: the same cells, in the same order, [`Scan::next`]
    /// would have produced as owned rows.
    fn drain_encoded(&mut self, out: &mut EncodedRows) -> Result<()> {
        let before = out.len();
        let Scan { kernel, slots, buf, cursor, rows, .. } = self;
        rows.for_each(|row| out.push_row(&row));
        let sink = |batch: &ColumnBatch, sel: &[bool], scratch: &mut VecScratch, out: &mut EncodedRows| {
            let vecs = eval_slots(slots, batch, sel, scratch)?;
            for lane in live_lanes(sel) {
                for (slot, computed) in slots.iter().zip(&vecs) {
                    out.push_cell(match slot {
                        Slot::Col(c) => batch.lane(*c, lane).raw(),
                        Slot::One => RawValue::Int(1),
                        Slot::Expr(_) => RawValue::of(&computed[lane]),
                    });
                }
                out.finish_row();
            }
            Ok(())
        };
        match *cursor {
            None if kernel.workers() > 1 => kernel.drive(sink, |morsel_rows: EncodedRows| {
                out.append(&morsel_rows);
                Ok(())
            })?,
            from => {
                if from.is_none() {
                    kernel.opts.metrics.scans.inc();
                }
                for i in from.unwrap_or(0)..kernel.morsels.len() {
                    kernel.run(i, buf, &sink, out)?;
                }
            }
        }
        *cursor = Some(kernel.morsels.len());
        self.emitted += (out.len() - before) as u64;
        Ok(())
    }
}

/// One morsel's pre-evaluated aggregation inputs, stored flat: group-key
/// encodings concatenated in `keys` (row boundaries in `key_ends`) and
/// evaluated values row-major in `vals` (group values then aggregate
/// inputs, fixed width per row).
#[derive(Default)]
struct TupleArena {
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    vals: Vec<Value>,
}

/// Hash aggregation fused onto a table scan.
///
/// The kernel pre-evaluates the expensive per-row work — page decode,
/// predicate, group-key encoding, aggregate inputs — per morsel (on the
/// worker pool at DOP > 1), and each morsel is folded into the serial
/// [`GroupAcc`] state machine as it arrives, in row order. Group
/// first-seen order, DISTINCT dedup, NULL gating and float accumulation
/// order are therefore identical to [`HashAggregate`]
/// (`crate::exec::HashAggregate`) at any DOP.
pub struct ScanAggregate {
    kernel: Kernel,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    slots: Vec<Slot>,
    schema: Schema,
    output: Option<std::vec::IntoIter<Row>>,
    emitted: u64,
}

impl ScanAggregate {
    /// Build the operator; mirrors `HashAggregate::new` but reads its
    /// input through the scan kernel instead of a child operator.
    pub fn new(
        source: ScanSource,
        opts: ExecOptions,
        group_exprs: Vec<Expr>,
        group_names: Vec<String>,
        aggs: Vec<AggSpec>,
    ) -> Result<Self> {
        assert_eq!(group_exprs.len(), group_names.len());
        let table = &source.schema;
        let slots = group_exprs
            .iter()
            .map(|e| Slot::bind(e, table))
            .chain(aggs.iter().map(|a| a.arg.as_ref().map_or(Ok(Slot::One), |e| Slot::bind(e, table))))
            .collect::<Result<_>>()?;
        let schema = agg_output_schema(&group_names, &aggs);
        let kernel = Kernel::new(source, opts)?;
        Ok(ScanAggregate { kernel, group_exprs, aggs, slots, schema, output: None, emitted: 0 })
    }

    fn materialize(&self) -> Result<Vec<Row>> {
        let (slots, aggs) = (&self.slots, &self.aggs);
        let ngroups = self.group_exprs.len();
        let mut acc = GroupAcc::new(aggs, ngroups == 0);
        self.kernel.drive(
            |batch: &ColumnBatch, sel: &[bool], scratch: &mut VecScratch, arena: &mut TupleArena| {
                let mut vecs = eval_slots(slots, batch, sel, scratch)?;
                for lane in live_lanes(sel) {
                    for k in 0..slots.len() {
                        let v = slot_value(slots, &mut vecs, k, batch, lane);
                        if k < ngroups {
                            v.key_bytes(&mut arena.keys);
                        }
                        arena.vals.push(v);
                    }
                    arena.key_ends.push(arena.keys.len());
                }
                Ok(())
            },
            // Replay the serial accumulator in row order.
            |arena: TupleArena| {
                let mut start = 0;
                for (vals, &end) in arena.vals.chunks_exact(slots.len()).zip(&arena.key_ends) {
                    acc.update(aggs, &arena.keys[start..end], &vals[..ngroups], &vals[ngroups..])?;
                    start = end;
                }
                Ok(())
            },
        )?;
        Ok(acc.finish())
    }
}

impl Operator for ScanAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let groups: Vec<String> = self.group_exprs.iter().map(expr_to_sql).collect();
        let aggs: Vec<&str> = self.aggs.iter().map(|a| a.name.as_str()).collect();
        format!(
            "ScanAggregate: group by [{}], compute [{}] ({})",
            groups.join(", "),
            aggs.join(", "),
            self.kernel.describe()
        )
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn rows_scanned(&self) -> Option<u64> {
        Some(self.kernel.scanned.load(Ordering::Relaxed))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.output.is_none() {
            self.output = Some(self.materialize()?.into_iter());
        }
        let row = self.output.as_mut().and_then(Iterator::next);
        self.emitted += row.is_some() as u64;
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, oracle};
    use crate::heap::shared;
    use crate::parser::parse_expression;
    use crate::schema::Column;
    use crate::value::{encode_value, DataType};
    use ironsafe_storage::pager::PlainPager;
    use proptest::prelude::*;

    fn source(schema: Schema, rows: Vec<Row>) -> ScanSource {
        let pager = shared(PlainPager::new());
        let mut heap = HeapFile::new();
        heap.append_rows(&pager, rows).unwrap();
        let cols = vec![true; schema.len()];
        ScanSource { schema, heap, pager, pred: None, cols }
    }

    #[test]
    fn scan_streams_all_pages() {
        let schema =
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("pad", DataType::Text)]);
        let rows: Vec<Row> =
            (0..300).map(|i| vec![Value::Int(i), Value::Text("p".repeat(100))]).collect();
        let src = source(schema, rows.clone());
        let pages = src.heap.page_count();
        assert!(pages > 2);
        let pager = src.pager.clone();

        // Pulled lazily: the first row costs one morsel, not the table.
        let opts = ExecOptions { morsel_pages: 2, ..ExecOptions::serial() };
        let mut scan = Scan::columns(src, opts).unwrap();
        assert_eq!(scan.next().unwrap(), Some(rows[0].clone()));
        assert_eq!(pager.lock().stats().page_reads, 2, "one morsel read so far");

        let mut got = vec![rows[0].clone()];
        while let Some(r) = scan.next().unwrap() {
            got.push(r);
        }
        assert_eq!(got, rows);
        assert_eq!(pager.lock().stats().page_reads, pages, "every page read exactly once");
        assert_eq!(scan.rows_scanned(), Some(300));
    }

    #[test]
    fn empty_heap_yields_nothing() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        for dop in [1, 4] {
            let mut scan = Scan::columns(source(schema.clone(), vec![]), ExecOptions::with_dop(dop))
                .unwrap();
            assert!(scan.next().unwrap().is_none());
            assert!(scan.next().unwrap().is_none(), "stays exhausted");
        }
    }

    #[test]
    fn bind_errors_surface_when_the_scan_is_built() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let mut src = source(schema.clone(), vec![vec![Value::Int(1)]]);
        src.pred = Some(parse_expression("SUM(a) > 1").unwrap());
        assert!(Scan::columns(src, ExecOptions::serial()).is_err());
        let src = source(schema.clone(), vec![]);
        let missing = [parse_expression("nope + 1").unwrap()];
        assert!(Scan::new(src, &missing, schema, ExecOptions::serial()).is_err());
    }

    fn prop_schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("n", DataType::Int),
            Column::new("m", DataType::Text),
        ])
    }

    /// One row: nullable int, nullable float, nullable (sometimes long,
    /// so tables span pages) text, a mostly-NULL int and a column whose
    /// type varies from row to row (`Mixed` in the batch).
    fn row_strategy() -> impl Strategy<Value = Row> {
        let text = |i: usize| {
            let words = ["", "a", "hel", "hello", "1995-06-17", "zz"];
            Value::Text(format!("{}{}", words[i], "-".repeat(i * 90)))
        };
        (
            prop_oneof![Just(Value::Null), (-20i64..20).prop_map(Value::Int)],
            prop_oneof![Just(Value::Null), (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5))],
            prop_oneof![Just(Value::Null), (0usize..6).prop_map(text)],
            prop_oneof![Just(Value::Null), Just(Value::Null), (0i64..3).prop_map(Value::Int)],
            prop_oneof![
                Just(Value::Null),
                (0i64..5).prop_map(Value::Int),
                (0i64..5).prop_map(|i| Value::Text(format!("t{i}"))),
            ],
        )
            .prop_map(|(a, b, s, n, m)| vec![a, b, s, n, m])
    }

    /// Predicates and projections over [`prop_schema`], covering the
    /// truth kernels, computed operands, the row fallback, and forms
    /// that error on some rows (division by zero, incomparable types).
    const PREDS: &[&str] = &[
        "a > 3",
        "a % 3 = 0 AND b < 2.0",
        "s LIKE 'hel%' OR n IS NOT NULL",
        "b BETWEEN -1.0 AND 2.5",
        "a IN (1, 2, 3, 10)",
        "m IN (1, 't2')",
        "m = 't1'",
        "m > 2",
        "n IS NULL AND s >= 'a'",
        "10 / a > 1",
        "a <> 0 AND 10 / a > 1",
        "CASE WHEN a > 0 THEN b ELSE n END > 0",
        "LENGTH(s) > 3",
        "a > 100",
    ];
    const PROJS: &[&str] = &[
        "a",
        "s",
        "a + 1",
        "b * 2.0 - a",
        "m",
        "n IS NULL",
        "SUBSTR(s, 1, 3)",
        "CASE WHEN n = 1 THEN s ELSE 'none' END",
        "a / n",
        "7",
    ];

    fn bits(rows: &[Row]) -> Vec<u8> {
        // `Value`'s `PartialEq` is group equality (NULL == NULL, NaN !=
        // NaN); compare encodings bit for bit instead.
        let mut out = Vec::new();
        rows.iter().flatten().for_each(|v| encode_value(v, &mut out));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any column mask ⊇ the referenced set yields exactly the rows
        /// (or the error) of the full decode and of the row oracle.
        #[test]
        fn any_superset_column_mask_matches_full_decode_and_oracle(
            rows in proptest::collection::vec(row_strategy(), 0..60),
            pred in 0..PREDS.len() + 2,
            projs in proptest::collection::vec(0..PROJS.len(), 1..4),
            extra in proptest::collection::vec(any::<bool>(), 5),
            dop in prop_oneof![Just(1usize), Just(3usize)],
        ) {
            let schema = prop_schema();
            let mut src = source(schema.clone(), rows);
            src.pred = PREDS.get(pred).map(|p| parse_expression(p).unwrap());
            let exprs: Vec<Expr> =
                projs.iter().map(|p| parse_expression(PROJS[*p]).unwrap()).collect();
            let out_schema = Schema::new(
                (0..exprs.len()).map(|i| Column::new(format!("c{i}"), DataType::Text)).collect(),
            );
            let mut names = Vec::new();
            exprs.iter().chain(&src.pred).for_each(|e| e.referenced_columns(&mut names));
            let referenced: Vec<bool> = schema
                .columns
                .iter()
                .map(|c| names.iter().any(|n| n.eq_ignore_ascii_case(&c.name)))
                .collect();

            let want = oracle::scan(&src, &exprs);
            let opts =
                ExecOptions { morsel_pages: 2, oversubscribe: true, ..ExecOptions::with_dop(dop) };
            let masks = [
                referenced.clone(),
                referenced.iter().zip(&extra).map(|(r, e)| *r || *e).collect(),
                vec![true; schema.len()],
            ];
            for cols in masks {
                let scan = || {
                    Scan::new(
                        ScanSource { cols: cols.clone(), ..src.clone() },
                        &exprs,
                        out_schema.clone(),
                        opts.clone(),
                    )
                    .unwrap()
                };
                // The encoded drain writes the bytes the owned rows
                // encode to — from the start, or after a few row pulls.
                for pulled in [0, 3] {
                    let (mut scan, mut encoded) = (scan(), EncodedRows::new());
                    let drained = (0..pulled)
                        .try_for_each(|_| scan.next().map(|row| row.iter().for_each(|r| encoded.push_row(r))))
                        .and_then(|()| scan.drain_encoded(&mut encoded));
                    match (drained, &want) {
                        (Ok(()), Ok(want)) => {
                            prop_assert_eq!(&encoded, &EncodedRows::from_rows(want), "mask {:?}", cols);
                            prop_assert_eq!(scan.rows_out(), want.len() as u64);
                        }
                        (Err(_), Err(_)) => {}
                        (got, want) => prop_assert!(false, "encoded {:?} vs oracle {:?}", got, want),
                    }
                }
                match (collect(Box::new(scan())), &want) {
                    (Ok((_, got)), Ok(want)) => {
                        prop_assert_eq!(bits(&got), bits(want), "mask {:?}", cols)
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => prop_assert!(
                        false,
                        "mask {:?}: kernel {:?} vs oracle {:?}",
                        cols,
                        got.map(|r| r.1),
                        want
                    ),
                }
            }
        }
    }
}
