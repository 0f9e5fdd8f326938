//! The scan kernel: the one way rows leave a heap, and the one way they
//! are rewritten.
//!
//! Every plan reads its base tables through [`Kernel::run`], one morsel
//! at a time: a batched `read_pages` into a reused byte buffer (one
//! pager lock per morsel; on a secure pager the morsel shares one Merkle
//! climb), one walk of its pages ([`scan_page_columns`]) that checks
//! every cell, turns **only the predicate's columns** into lanes of a
//! reused [`ColumnBatch`] and records where every cell lies (a
//! [`CellTable`]), the bound predicate over those lanes ([`filter_vec`]),
//! and — for a consumer that wants lanes — the statement's other
//! referenced columns decoded from the offset table for the surviving
//! lanes only (with no predicate every lane survives, and such a
//! consumer gets all of them in the walk). What survives is handed on
//! as a batch plus its selection — output columns for [`Scan`], group
//! keys and aggregate inputs folded straight into the accumulator for
//! [`ScanAggregate`] — or as bytes: a [`Scan`] whose outputs are all
//! plain columns, drained encoded ([`Operator::drain_encoded`]: every
//! CSA fragment), copies each survivor's output cells from the page, and
//! `UPDATE` / `DELETE`
//! ([`rewrite_records`]) copy every record they do not change whole.
//! Text is copied once, page → column arena, for the columns that become
//! lanes; a [`Scan`] *lends* its decoded columns to its parent (they are
//! swapped into its output batch and back, never copied), and a second
//! copy happens only where an operator above keeps a lane (a join's
//! build side, a sort) or the root turns one into an owned or encoded
//! row.
//!
//! At DOP 1 a [`Scan`] pulls morsels lazily in page order, so it holds
//! one morsel of lanes and stops reading when its parent stops pulling
//! (with one-page morsels, which is how `LIMIT` plans are built, it
//! reads exactly the pages a page-at-a-time scan would). At DOP > 1 the
//! same kernel runs on the worker pool ([`run_ordered`]), each morsel's
//! survivors are compacted into a batch of their own, and the batches
//! are consumed in morsel order.

use crate::ast::{expr_to_sql, Expr};
use crate::batch::ColumnBatch;
use crate::encoded::EncodedRows;
use crate::exec::aggregate::{agg_output_schema, bind_agg_inputs, AggSpec, GroupAcc};
use crate::exec::morsel::{partition_pages, run_ordered, ExecOptions, Morsel};
use crate::exec::{
    bind_all, count_live, encode_lanes, live_lanes, project_into, select_all, Batch, Operator, Values,
};
use crate::expr::{bind, eval_vec, filter_vec, BoundExpr, VecScratch};
use crate::heap::{scan_page_columns, CellTable, HeapFile, SharedPager};
use crate::schema::Schema;
use crate::value::{decode_value_raw, RawValue};
use crate::{Result, SqlError};
use ironsafe_obs::{Span, TraceCtx};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// One base-table scan: the table's heap, the pager it lives on, its
/// schema, the pushed-down predicate and the set of columns the
/// statement references (`cols[c]` set ⇒ column `c` may be read from the
/// scan's batches; the predicate and every output expression may only
/// touch those).
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

/// The columns of `schema` that `exprs` name. A name that does not
/// resolve marks nothing: binding the expression reports it.
pub(crate) fn column_mask<'a>(schema: &Schema, exprs: impl IntoIterator<Item = &'a Expr>) -> Vec<bool> {
    let mut names = Vec::new();
    exprs.into_iter().for_each(|e| e.referenced_columns(&mut names));
    let mut mask = vec![false; schema.len()];
    names.iter().filter_map(|n| schema.resolve(n).ok()).for_each(|c| mask[c] = true);
    mask
}

/// Per-worker buffers the kernel reuses from morsel to morsel.
#[derive(Default)]
struct MorselBuf {
    bytes: Vec<u8>,
    batch: ColumnBatch,
    cells: CellTable,
    sel: Vec<bool>,
    scratch: VecScratch,
    lanes: Vec<u32>,
}

impl MorselBuf {
    /// Columns `cols` (adjacent) of lane `lane`, as the bytes they are on
    /// the page.
    fn cells(&self, lane: usize, cols: Range<usize>) -> &[u8] {
        &self.bytes[self.cells.range(lane, cols)]
    }

    /// Decode columns `cols` of the live lanes from the offset table into
    /// their (empty) batch columns; a dead lane gets a NULL nothing reads,
    /// so lane `i` is row `i` in every column.
    fn decode_survivors(&mut self, cols: &[usize]) {
        let MorselBuf { bytes, batch, cells, sel, .. } = self;
        for &c in cols {
            let column = batch.column_mut(c);
            for (lane, live) in sel.iter().enumerate() {
                column.push(if *live {
                    let mut at = cells.range(lane, c..c + 1).start;
                    decode_value_raw(bytes, &mut at).expect("the page walk checked every cell")
                } else {
                    RawValue::Null
                });
            }
        }
    }

    /// Append each live lane's columns `cols` (in output order) to `out`
    /// as one row, each cell copied from the page: the byte-range sink.
    fn copy_survivors(&self, cols: &[usize], out: &mut EncodedRows) {
        for lane in live_lanes(&self.sel) {
            cols.iter().for_each(|c| out.push_cells(self.cells(lane, *c..*c + 1)));
            out.finish_row();
        }
    }
}

/// Who takes a morsel's survivors, which decides the columns that become
/// lanes.
#[derive(Clone, Copy)]
enum Sink {
    /// A consumer that reads lanes: `Kernel::walk` in the page walk,
    /// `Kernel::late` for the lanes the filter kept.
    Lanes,
    /// The byte-range sink: the predicate's columns, nothing more.
    Bytes,
}

/// A [`ScanSource`] bound for execution.
struct Kernel {
    source: ScanSource,
    pred: Option<BoundExpr>,
    /// For [`Sink::Lanes`]: the columns the walk makes lanes of — the
    /// predicate's, or with no predicate (every lane survives) every
    /// referenced one — and the other referenced ones, decoded for the
    /// survivors.
    walk: Vec<bool>,
    late: Vec<usize>,
    /// The predicate's columns: all [`Sink::Bytes`] makes lanes of.
    pred_cols: Vec<bool>,
    morsels: Vec<Morsel>,
    opts: ExecOptions,
    /// Rows decoded so far (pre-filter), for `EXPLAIN ANALYZE`.
    scanned: AtomicU64,
}

impl Kernel {
    fn new(source: ScanSource, opts: ExecOptions) -> Result<Self> {
        debug_assert_eq!(source.cols.len(), source.schema.len());
        let pred = source.pred.as_ref().map(|p| bind(p, &source.schema)).transpose()?;
        let pred_cols = column_mask(&source.schema, &source.pred);
        let (walk, late) = match pred {
            None => (source.cols.clone(), Vec::new()),
            Some(_) => {
                let late = (0..pred_cols.len()).filter(|c| source.cols[*c] && !pred_cols[*c]).collect();
                (pred_cols.clone(), late)
            }
        };
        let morsels = partition_pages(source.heap.pages.len(), opts.morsel_pages);
        Ok(Kernel { source, pred, walk, late, pred_cols, morsels, opts, scanned: AtomicU64::new(0) })
    }

    fn workers(&self) -> usize {
        self.opts.workers(self.morsels.len())
    }

    /// Read, walk and filter morsel `i` into `buf`, turning the columns
    /// `sink` needs into lanes; returns how many lanes survive. The morsel
    /// refines the ambient [`TraceCtx`] with its index and runs inside its
    /// own span; a failed morsel (fault exhaustion, violation) tags the
    /// span before it closes, so chaos traces stay well-formed trees.
    fn run(&self, i: usize, buf: &mut MorselBuf, sink: Sink) -> Result<usize> {
        let _ctx = TraceCtx::current().map(|c| c.with_morsel(i as u64).install());
        let span = Span::enter("exec/morsel");
        let result = self.run_in_span(i, buf, sink);
        if result.is_err() {
            span.fail("exec.morsel.failed");
        }
        result
    }

    fn run_in_span(&self, i: usize, buf: &mut MorselBuf, sink: Sink) -> Result<usize> {
        let (walk, late) = match sink {
            Sink::Lanes => (&self.walk, &self.late[..]),
            Sink::Bytes => (&self.pred_cols, &[][..]),
        };
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
        if buf.batch.width() != walk.len() {
            buf.batch = ColumnBatch::new(walk.len());
        }
        buf.batch.clear();
        buf.cells.clear();
        scan_page_columns(&buf.bytes, payload, walk, &mut buf.batch, &mut buf.cells)?;
        let rows = buf.batch.len();
        self.opts.metrics.rows.add(rows as u64);
        self.scanned.fetch_add(rows as u64, Ordering::Relaxed);
        select_all(&mut buf.sel, rows);
        if let Some(pred) = &self.pred {
            filter_vec(pred, &buf.batch, &mut buf.sel, &mut buf.scratch)?;
        }
        let kept = count_live(&buf.sel);
        if let Some(watch) = &self.opts.watch {
            watch.record(i, rows as u64, kept as u64);
        }
        if kept > 0 {
            buf.decode_survivors(late);
        }
        Ok(kept)
    }

    /// On the calling thread: run morsels from `*next` on for `sink`
    /// until one has survivors and return how many, or 0 once the morsels
    /// run out.
    fn pull(&self, next: &mut usize, buf: &mut MorselBuf, sink: Sink) -> Result<usize> {
        while *next < self.morsels.len() {
            *next += 1;
            let kept = self.run(*next - 1, buf, sink)?;
            if kept > 0 {
                return Ok(kept);
            }
        }
        Ok(0)
    }

    /// Run every morsel on the worker pool for `sink`, turn each one that
    /// has survivors into a `T` with `make`, and hand those to `consume`
    /// in morsel order.
    fn drive<T: Send>(
        &self,
        sink: Sink,
        make: impl Fn(&mut MorselBuf) -> Result<T> + Sync,
        mut consume: impl FnMut(T) -> Result<()>,
    ) -> Result<()> {
        let morsel = |i, buf: &mut MorselBuf| match self.run(i, buf, sink)? {
            0 => Ok(None),
            _ => make(buf).map(Some),
        };
        run_ordered(self.morsels.len(), self.workers(), morsel, |out: Option<T>| {
            out.map_or(Ok(()), &mut consume)
        })
    }

    /// [`Kernel::drive`] compacting each morsel's survivors through
    /// `exprs` into a batch of its own (one column per expression).
    fn drive_compacted(
        &self,
        exprs: &[BoundExpr],
        consume: impl FnMut(ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        let compact = |buf: &mut MorselBuf| {
            let mut out = ColumnBatch::new(exprs.len());
            let input = Batch { cols: &buf.batch, sel: &buf.sel };
            project_into(exprs, input, &mut buf.scratch, &mut buf.lanes, &mut out)?;
            Ok(out)
        };
        self.drive(Sink::Lanes, compact, consume)
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

/// `UPDATE` / `DELETE` on the kernel: run `source` (the
/// statement's `WHERE` as its predicate, the columns it and the `SET`
/// expressions read as its column set) morsel by morsel and append to
/// `out`, as encoded records in heap order, the rows the table holds
/// after the statement — for a `DELETE` (`sets` is `None`) every lane the
/// predicate did not select, for an `UPDATE` every lane, a selected one
/// with its assigned cells (`(column, value)`, the last assignment to a
/// column winning) replaced by the `SET` expressions' values. Those are
/// evaluated over the selected lanes only and all read the *old* row.
/// Every other record, and every other cell of a changed one, is copied
/// from the page as it lies. Returns how many lanes the predicate
/// selected; nothing is written — the caller re-packs `out` once every
/// page has been read. Morsels are the default size, in page order on the
/// calling thread: every pager charges a batch of pages what it charges
/// the same pages read one by one, so the statement's counters are those
/// of the page-at-a-time read this replaced.
pub(crate) fn rewrite_records(
    source: ScanSource,
    sets: Option<&[(usize, BoundExpr)]>,
    out: &mut EncodedRows,
) -> Result<u64> {
    let ncols = source.schema.len();
    // Which `SET` writes each column, if any.
    let assigned: Vec<Option<usize>> = (0..ncols)
        .map(|c| sets.and_then(|sets| sets.iter().rposition(|(at, _)| *at == c)))
        .collect();
    let kernel = Kernel::new(source, ExecOptions::serial())?;
    let mut buf = MorselBuf::default();
    let mut selected = 0;
    for i in 0..kernel.morsels.len() {
        let hits = kernel.run(i, &mut buf, Sink::Lanes)?;
        selected += hits as u64;
        let values = match sets {
            Some(sets) if hits > 0 => sets
                .iter()
                .map(|(_, e)| eval_vec(e, &buf.batch, &buf.sel, &mut buf.scratch))
                .collect::<Result<Vec<_>>>()?,
            _ => Vec::new(),
        };
        for (lane, hit) in buf.sel.iter().enumerate() {
            if !hit {
                out.push_encoded(buf.cells(lane, 0..ncols));
            } else if sets.is_some() {
                for (col, set) in assigned.iter().enumerate() {
                    match set {
                        Some(k) => out.push_cell(RawValue::of(&values[*k][lane])),
                        None => out.push_cells(buf.cells(lane, col..col + 1)),
                    }
                }
                out.finish_row();
            }
        }
    }
    Ok(selected)
}

/// Table scan with the pushed-down filter and the projection fused in:
/// emits one lane per surviving row, in heap order.
pub struct Scan {
    kernel: Kernel,
    /// Output expressions, bound against the table schema.
    exprs: Vec<BoundExpr>,
    /// `lend[k]` names the table column output `k` is lent from: the
    /// first output that is exactly that column. Every other output is
    /// computed into a column of its own.
    lend: Vec<Option<usize>>,
    /// When every output is a plain column: those columns, in output
    /// order — what the byte-range sink copies per surviving row.
    plain: Option<Vec<usize>>,
    schema: Schema,
    buf: MorselBuf,
    /// The batch lent to the parent; shares `buf.sel`.
    out: ColumnBatch,
    /// `buf.batch`'s lent columns currently sit in `out`.
    lent: bool,
    /// The first pull has happened ([`Scan::start`]).
    started: bool,
    /// Next morsel to pull on the calling thread ([`Kernel::pull`]).
    next: usize,
    /// Compacted morsels still to hand over (DOP > 1).
    ready: std::vec::IntoIter<ColumnBatch>,
    emitted: u64,
}

impl Scan {
    /// Scan `source`, computing `exprs` (bound against the table schema,
    /// named per `schema`) for every row that passes its predicate.
    pub fn new(source: ScanSource, exprs: &[Expr], schema: Schema, opts: ExecOptions) -> Result<Self> {
        debug_assert_eq!(exprs.len(), schema.len());
        let exprs = bind_all(exprs, &source.schema)?;
        let column = |e: &BoundExpr| match e {
            BoundExpr::Col(c) => Some(*c),
            _ => None,
        };
        let lend = (0..exprs.len())
            .map(|k| column(&exprs[k]).filter(|c| !exprs[..k].iter().any(|e| column(e) == Some(*c))))
            .collect();
        let plain = exprs.iter().map(column).collect();
        Ok(Scan {
            kernel: Kernel::new(source, opts)?,
            out: ColumnBatch::new(exprs.len()),
            exprs,
            lend,
            plain,
            schema,
            buf: MorselBuf::default(),
            lent: false,
            started: false,
            next: 0,
            ready: Vec::new().into_iter(),
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

    /// The first pull's start-up, whichever way the scan is drained:
    /// count the scan and say whether it runs on the worker pool — every
    /// morsel at once, leaving none for [`Kernel::pull`] — rather than
    /// morsel by morsel on the calling thread. `false` after the first.
    fn start(&mut self) -> bool {
        if self.started {
            return false;
        }
        self.started = true;
        self.kernel.opts.metrics.scans.inc();
        let pooled = self.kernel.workers() > 1;
        if pooled {
            self.next = self.kernel.morsels.len();
        }
        pooled
    }

    /// Exchange the lent columns between the morsel batch and `out`.
    fn swap_lent(&mut self) {
        for (k, col) in self.lend.iter().enumerate() {
            if let Some(col) = col {
                self.out.swap_column(k, &mut self.buf.batch, *col);
            }
        }
        self.lent = !self.lent;
    }

    /// Turn the filtered morsel in `buf` into `out`: computed outputs are
    /// evaluated into their own columns, lane for lane, then the plain
    /// columns are swapped in.
    fn lend_morsel(&mut self) -> Result<()> {
        let Scan { exprs, lend, buf, out, .. } = self;
        for (k, e) in exprs.iter().enumerate().filter(|(k, _)| lend[*k].is_none()) {
            let vals = eval_vec(e, &buf.batch, &buf.sel, &mut buf.scratch)?;
            let col = out.column_mut(k);
            vals.iter().for_each(|v| col.push(RawValue::of(v)));
        }
        self.swap_lent();
        self.out.set_len(self.buf.sel.len());
        Ok(())
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

    fn next_batch(&mut self) -> Result<bool> {
        if self.start() {
            let mut ready = Vec::new();
            self.kernel.drive_compacted(&self.exprs, |out| {
                ready.push(out);
                Ok(())
            })?;
            self.ready = ready.into_iter();
        }
        if let Some(out) = self.ready.next() {
            select_all(&mut self.buf.sel, out.len());
            self.emitted += out.len() as u64;
            self.out = out;
            return Ok(true);
        }
        if self.lent {
            self.swap_lent();
        }
        self.out.clear();
        let kept = self.kernel.pull(&mut self.next, &mut self.buf, Sink::Lanes)?;
        if kept == 0 {
            return Ok(false);
        }
        self.lend_morsel()?;
        self.emitted += kept as u64;
        Ok(true)
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: &self.out, sel: &self.buf.sel }
    }

    /// The byte-range sink, when every output is a plain column: each
    /// survivor's output cells are copied from the page with no lane
    /// built beyond the predicate's, at any DOP. Batches already
    /// compacted by an earlier pull go out lane by lane.
    fn drain_encoded(&mut self, out: &mut EncodedRows) -> Result<()> {
        if self.plain.is_none() {
            return encode_lanes(self, out);
        }
        if self.lent {
            self.swap_lent();
        }
        for batch in self.ready.by_ref() {
            (0..batch.len()).for_each(|lane| out.push_lane(&batch, lane));
            self.emitted += batch.len() as u64;
        }
        let pooled = self.start();
        let Scan { kernel, plain: Some(cols), buf, next, emitted, .. } = self else {
            unreachable!("checked above")
        };
        if pooled {
            // A worker's page buffer holds its next morsel as soon as this
            // one is done, so its survivors leave as rows of their own,
            // appended to `out` in morsel order while the pool reads on.
            let copy = |buf: &mut MorselBuf| {
                let mut rows = EncodedRows::new();
                buf.copy_survivors(cols, &mut rows);
                Ok(rows)
            };
            return kernel.drive(Sink::Bytes, copy, |rows| {
                out.append(&rows);
                *emitted += rows.len() as u64;
                Ok(())
            });
        }
        while let kept @ 1.. = kernel.pull(next, buf, Sink::Bytes)? {
            buf.copy_survivors(cols, out);
            *emitted += kept as u64;
        }
        Ok(())
    }
}

/// Hash aggregation fused onto a table scan.
///
/// Each morsel's group keys and aggregate inputs are evaluated as
/// vectors and folded into the serial [`GroupAcc`] in row order — at
/// DOP 1 straight from the decoded batch, at DOP > 1 from the compacted
/// tuple batch a worker pre-evaluated, consumed in morsel order. Group
/// first-seen order, DISTINCT dedup, NULL gating and float accumulation
/// order are therefore identical to [`HashAggregate`]
/// (`crate::exec::HashAggregate`), which runs the same fold, at any DOP.
pub struct ScanAggregate {
    kernel: Kernel,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    /// Group keys then aggregate inputs, bound against the table schema.
    inputs: Vec<BoundExpr>,
    schema: Schema,
    output: Option<Values>,
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
        let inputs = bind_agg_inputs(&group_exprs, &aggs, &source.schema)?;
        let schema = agg_output_schema(&group_names, &aggs);
        let kernel = Kernel::new(source, opts)?;
        Ok(ScanAggregate { kernel, group_exprs, aggs, inputs, schema, output: None })
    }

    fn materialize(&self) -> Result<Values> {
        let mut acc = GroupAcc::new(&self.aggs, self.group_exprs.len());
        self.kernel.opts.metrics.scans.inc();
        if self.kernel.workers() > 1 {
            // Workers pre-evaluate; the fold replays in morsel order.
            self.kernel.drive_compacted(&self.inputs, |tuples| acc.fold_tuples(&tuples))?;
        } else {
            let (mut buf, mut next) = (MorselBuf::default(), 0);
            while self.kernel.pull(&mut next, &mut buf, Sink::Lanes)? > 0 {
                let morsel = Batch { cols: &buf.batch, sel: &buf.sel };
                acc.fold_batch(&self.inputs, morsel, &mut buf.scratch)?;
            }
        }
        Ok(Values::new(self.schema.clone(), acc.finish()?))
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
        self.output.as_ref().map_or(0, Values::rows_out)
    }

    fn rows_scanned(&self) -> Option<u64> {
        Some(self.kernel.scanned.load(Ordering::Relaxed))
    }

    fn next_batch(&mut self) -> Result<bool> {
        if self.output.is_none() {
            self.output = Some(self.materialize()?);
        }
        self.output.as_mut().expect("materialized above").next_batch()
    }

    fn batch(&self) -> Batch<'_> {
        self.output.as_ref().expect("a batch was produced").batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::EncodedRows;
    use crate::exec::{collect, oracle, RowCursor};
    use crate::heap::shared;
    use crate::parser::parse_expression;
    use crate::schema::{Column, Row};
    use crate::value::{encode_value, DataType, Value};
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
        let mut scan = RowCursor::new(Box::new(Scan::columns(src, opts).unwrap()));
        assert_eq!(scan.next_row().unwrap(), Some(rows[0].clone()));
        assert_eq!(pager.lock().stats().page_reads, 2, "one morsel read so far");

        let mut got = vec![rows[0].clone()];
        while let Some(r) = scan.next_row().unwrap() {
            got.push(r);
        }
        assert_eq!(got, rows);
        assert_eq!(pager.lock().stats().page_reads, pages, "every page read exactly once");
        assert_eq!(scan.op().rows_scanned(), Some(300));
    }

    #[test]
    fn empty_heap_yields_nothing() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        for dop in [1, 4] {
            let mut scan = Scan::columns(source(schema.clone(), vec![]), ExecOptions::with_dop(dop))
                .unwrap();
            assert!(!scan.next_batch().unwrap());
            assert!(!scan.next_batch().unwrap(), "stays exhausted");
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
                    Box::new(
                        Scan::new(
                            ScanSource { cols: cols.clone(), ..src.clone() },
                            &exprs,
                            out_schema.clone(),
                            opts.clone(),
                        )
                        .unwrap(),
                    )
                };
                // The encoded drain writes the bytes the owned rows
                // encode to — from the start, or after a few row pulls.
                for pulled in [0, 3] {
                    let (mut scan, mut encoded) = (RowCursor::new(scan()), EncodedRows::new());
                    let drained = (0..pulled)
                        .try_for_each(|_| scan.next_row().map(|row| row.iter().for_each(|r| encoded.push_row(r))))
                        .and_then(|()| scan.drain_encoded(&mut encoded));
                    match (drained, &want) {
                        (Ok(()), Ok(want)) => {
                            prop_assert_eq!(&encoded, &EncodedRows::from_rows(want), "mask {:?}", cols);
                            prop_assert_eq!(scan.op().rows_out(), want.len() as u64);
                        }
                        (Err(_), Err(_)) => {}
                        (got, want) => prop_assert!(false, "encoded {:?} vs oracle {:?}", got, want),
                    }
                }
                match (collect(scan()), &want) {
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

    /// A cell of a column of `kind` — int, float, text (ASCII or not, up
    /// to a seventh of a page, so six of them still fit one) or a type
    /// that varies by row — from one random draw; NULL one time in four.
    fn random_cell(kind: u8, (null, i, n, wide): (u8, i64, usize, bool)) -> Value {
        match kind {
            _ if null == 0 => Value::Null,
            0 => Value::Int(i),
            1 => Value::Float(i as f64 * 0.75),
            2 => Value::Text(if wide { "\u{e9}t\u{e9}" } else { "ab" }.repeat(n * 10)),
            _ if wide => Value::Text(format!("m{n}")),
            _ => Value::Int(i),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The byte-range sink — a plain-column scan drained encoded
        /// copies its survivors' cells from the page — writes the bytes
        /// the lane sink (`push_lane`, what the scan writes behind any
        /// other root) does, at DOP 1 and 4, with the same row count.
        #[test]
        fn byte_range_sink_writes_what_the_lane_sink_does(
            kinds in proptest::collection::vec(0u8..4, 1..7),
            draws in proptest::collection::vec(
                proptest::collection::vec((0u8..4, -50i64..50, 0usize..12, any::<bool>()), 6),
                0..90,
            ),
            picks in proptest::collection::vec(0usize..64, 1..7),
            pred in 0usize..64 * 3,
            dop in prop_oneof![Just(1usize), Just(4usize)],
        ) {
            let types = [DataType::Int, DataType::Float, DataType::Text, DataType::Int];
            let schema = Schema::new(
                kinds.iter().enumerate().map(|(i, k)| Column::new(format!("c{i}"), types[*k as usize])).collect(),
            );
            let rows: Vec<Row> = draws
                .iter()
                .map(|draw| kinds.iter().zip(draw).map(|(k, d)| random_cell(*k, *d)).collect())
                .collect();
            let col = |i: usize| format!("c{}", i % kinds.len());
            let exprs: Vec<Expr> = picks.iter().map(|p| Expr::Column(col(*p))).collect();
            let test = ["", " IS NOT NULL", " IS NULL"][pred % 3];
            let pred = (!test.is_empty()).then(|| parse_expression(&(col(pred / 3) + test)).unwrap());
            let src = ScanSource { pred, ..source(schema, rows) };
            let names: Vec<Column> = exprs.iter().enumerate().map(|(i, _)| Column::new(format!("o{i}"), DataType::Int)).collect();
            let opts = ExecOptions { morsel_pages: 2, oversubscribe: true, ..ExecOptions::with_dop(dop) };
            let scan = || Box::new(Scan::new(src.clone(), &exprs, Schema::new(names.clone()), opts.clone()).unwrap());

            let (mut bytes, mut by_bytes) = (EncodedRows::new(), RowCursor::new(scan()));
            by_bytes.drain_encoded(&mut bytes).unwrap();
            // Behind a `Limit` the root is no scan: the cursor encodes lane
            // by lane.
            let mut by_lanes = RowCursor::new(Box::new(crate::exec::Limit::new(scan(), u64::MAX)));
            let mut lanes = EncodedRows::new();
            by_lanes.drain_encoded(&mut lanes).unwrap();
            prop_assert_eq!(&bytes, &lanes);
            prop_assert_eq!(by_bytes.op().rows_out(), lanes.len() as u64);
            prop_assert_eq!(by_bytes.op().rows_scanned(), by_lanes.op().children()[0].rows_scanned());
        }
    }
}
