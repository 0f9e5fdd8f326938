//! Physical operators: batches above the scan.
//!
//! Operators exchange [`ColumnBatch`]es, never rows. A parent pulls with
//! [`Operator::next_batch`] and reads what the child then *lends* through
//! [`Operator::batch`]: a batch plus a selection bitmap over its lanes,
//! valid until the next pull. Base tables are read by the one scan kernel
//! ([`scan`]), a morsel at a time with filter and projection fused in;
//! [`Filter`] narrows the selection it was lent and lends the same
//! columns on; operators that must keep lanes (hash-join build side,
//! sort, the compacted output of a join or projection) gather them into a
//! batch of their own; pipeline breakers (sort, hash aggregate, join
//! build side) materialize on first pull. Owned [`Row`]s are built in
//! exactly one place, the [`RowCursor`] at the root. An operator that
//! evaluates expressions binds them against its input schema when it is
//! built — its constructor returns the unknown-column error — and runs
//! them through the vector kernels (`crate::expr::filter_vec` /
//! `crate::expr::eval_vec`) from then on.

pub mod aggregate;
mod hash;
pub mod join;
pub mod morsel;
#[cfg(test)]
pub(crate) mod oracle;
pub mod scan;
pub mod sort;

pub use aggregate::{AggSpec, HashAggregate};
pub use join::{HashJoin, NestedLoopJoin};
pub use morsel::{partition_pages, Dop, ExecMetrics, ExecOptions, Morsel, ScanWatch};
pub use scan::{Scan, ScanAggregate, ScanSource};
pub use sort::Sort;

use crate::ast::Expr;
use crate::batch::ColumnBatch;
use crate::encoded::EncodedRows;
use crate::expr::{bind, filter_vec, BoundExpr, VecOp, VecScratch};
use crate::schema::{Row, Schema};
use crate::Result;

/// Lanes per batch an operator builds for itself (join and sort output).
/// A scan's batches are a morsel long instead.
pub(crate) const BATCH_ROWS: usize = 1024;

/// What an operator lends its parent: columns and the lanes of them that
/// are live. `sel.len() == cols.len()`.
#[derive(Clone, Copy)]
pub struct Batch<'a> {
    /// The columns, one per schema column.
    pub cols: &'a ColumnBatch,
    /// `sel[i]` is true while lane `i` is part of the result.
    pub sel: &'a [bool],
}

/// A pull-based physical operator.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next batch; `false` when exhausted (and on every call
    /// after that). A batch has at least one live lane.
    fn next_batch(&mut self) -> Result<bool>;
    /// The batch the last [`Operator::next_batch`] produced, lent until
    /// the next one. Only meaningful after a call that returned `true`.
    fn batch(&self) -> Batch<'_>;
    /// One-line description for `EXPLAIN`.
    fn describe(&self) -> String;
    /// Child operators (for `EXPLAIN`), when still attached.
    fn children(&self) -> Vec<&BoxOp> {
        Vec::new()
    }
    /// Lanes this operator has emitted so far (fuels `EXPLAIN ANALYZE`).
    fn rows_out(&self) -> u64 {
        0
    }
    /// Rows a scan has decoded so far, before its fused filter — the
    /// `rows in` of an operator whose input is pages, not a child.
    fn rows_scanned(&self) -> Option<u64> {
        None
    }
    /// Append every remaining output row to `out` in encoded form: by
    /// default batch by batch, each live lane through
    /// [`EncodedRows::push_lane`] ([`encode_lanes`]). A [`Scan`] whose
    /// outputs are all plain columns copies its survivors' cells from the
    /// page instead — the same bytes, the encoding being canonical.
    fn drain_encoded(&mut self, out: &mut EncodedRows) -> Result<()> {
        encode_lanes(self, out)
    }
}

/// [`Operator::drain_encoded`]'s lane sink: pull every remaining batch of
/// `op` and encode its live lanes into `out`.
pub(crate) fn encode_lanes(op: &mut (impl Operator + ?Sized), out: &mut EncodedRows) -> Result<()> {
    while op.next_batch()? {
        let batch = op.batch();
        live_lanes(batch.sel).for_each(|lane| out.push_lane(batch.cols, lane));
    }
    Ok(())
}

/// Render an operator tree as an indented `EXPLAIN` listing.
pub fn explain(op: &BoxOp) -> String {
    fn walk(op: &BoxOp, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&op.describe());
        out.push('\n');
        for c in op.children() {
            walk(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(op, 0, &mut out);
    out
}

/// One operator's observed execution facts, captured from a drained plan
/// (fuels `EXPLAIN ANALYZE` and the CSA-level `QueryProfile`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProfile {
    /// Depth in the plan tree (root = 0).
    pub depth: usize,
    /// The operator's `describe()` line.
    pub describe: String,
    /// Rows pulled from children (sum of the children's `rows_out`), or
    /// rows decoded from pages for a scan; 0 for other leaves.
    pub rows_in: u64,
    /// Rows this operator emitted.
    pub rows_out: u64,
    /// True for leaf operators without a row input (`Values`) —
    /// renderers print only `rows out` for these.
    pub leaf: bool,
}

impl OperatorProfile {
    /// Observed selectivity `rows_out / rows_in` (`None` for leaves and
    /// operators that pulled no rows).
    pub fn selectivity(&self) -> Option<f64> {
        (!self.leaf && self.rows_in > 0).then(|| self.rows_out as f64 / self.rows_in as f64)
    }
}

/// Capture per-operator profiles from a drained plan, preorder (the same
/// order `EXPLAIN` prints). Counts reflect rows pulled so far, so drain
/// the tree first.
pub fn operator_profiles(op: &BoxOp) -> Vec<OperatorProfile> {
    fn walk(op: &BoxOp, depth: usize, out: &mut Vec<OperatorProfile>) {
        let children = op.children();
        let scanned = op.rows_scanned();
        out.push(OperatorProfile {
            depth,
            describe: op.describe(),
            rows_in: scanned.unwrap_or_else(|| children.iter().map(|c| c.rows_out()).sum()),
            rows_out: op.rows_out(),
            leaf: children.is_empty() && scanned.is_none(),
        });
        for c in children {
            walk(c, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(op, 0, &mut out);
    out
}

/// Render an *executed* operator tree with per-operator row counts:
/// each line is `describe() (rows in=I out=O)`, where `in` is the sum of
/// the children's emitted rows. Drain the tree first — counts reflect
/// rows pulled so far.
pub fn explain_analyze(op: &BoxOp) -> String {
    let mut out = String::new();
    for p in operator_profiles(op) {
        for _ in 0..p.depth {
            out.push_str("  ");
        }
        out.push_str(&p.describe);
        if p.leaf {
            out.push_str(&format!(" (rows out={})", p.rows_out));
        } else {
            out.push_str(&format!(" (rows in={} out={})", p.rows_in, p.rows_out));
        }
        out.push('\n');
    }
    out
}

/// Boxed operator (the tree's edge type).
pub type BoxOp = Box<dyn Operator + Send>;

/// [`bind`] each of `exprs` against `schema`.
pub(crate) fn bind_all<'a>(
    exprs: impl IntoIterator<Item = &'a Expr>,
    schema: &Schema,
) -> Result<Vec<BoundExpr>> {
    exprs.into_iter().map(|e| bind(e, schema)).collect()
}

/// Indexes of the live lanes of `sel`.
pub(crate) fn live_lanes(sel: &[bool]) -> impl Iterator<Item = usize> + '_ {
    sel.iter().enumerate().filter_map(|(lane, live)| live.then_some(lane))
}

/// How many lanes of `sel` are live.
pub(crate) fn count_live(sel: &[bool]) -> usize {
    sel.iter().filter(|live| **live).count()
}

/// Make `sel` select all of `lanes` lanes (what a compacted batch is lent
/// under).
pub(crate) fn select_all(sel: &mut Vec<bool>, lanes: usize) {
    sel.clear();
    sel.resize(lanes, true);
}

/// The live lanes of `sel` as gather indexes, written over `out`.
pub(crate) fn gather_list(sel: &[bool], out: &mut Vec<u32>) {
    out.clear();
    out.extend(live_lanes(sel).map(|lane| lane as u32));
}

/// Evaluate `exprs` over the live lanes of `input` and append the results,
/// compacted, to `out`, one column per expression.
pub(crate) fn project_into(
    exprs: &[BoundExpr],
    input: Batch<'_>,
    scratch: &mut VecScratch,
    lanes: &mut Vec<u32>,
    out: &mut ColumnBatch,
) -> Result<()> {
    gather_list(input.sel, lanes);
    for (k, e) in exprs.iter().enumerate() {
        VecOp::resolve(e, input.cols, input.sel, scratch)?.gather_into(out.column_mut(k), lanes);
    }
    out.set_len(out.len() + lanes.len());
    Ok(())
}

/// Materialized input rows (policy tests, the federation's replayed
/// groups, an aggregate's output), pivoted into one batch when built.
pub struct Values {
    schema: Schema,
    batch: ColumnBatch,
    sel: Vec<bool>,
    done: bool,
}

impl Values {
    /// Wrap rows with their schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        let mut batch = ColumnBatch::new(schema.len());
        rows.iter().for_each(|row| batch.push_row(row));
        let sel = vec![true; batch.len()];
        Values { schema, batch, sel, done: false }
    }
}

impl Operator for Values {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<bool> {
        let first = !std::mem::replace(&mut self.done, true);
        Ok(first && !self.batch.is_empty())
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: &self.batch, sel: &self.sel }
    }

    fn describe(&self) -> String {
        format!("Values ({} columns)", self.schema.len())
    }

    fn rows_out(&self) -> u64 {
        if self.done {
            self.batch.len() as u64
        } else {
            0
        }
    }
}

/// Filter: keeps the lanes whose predicate is truthy, lending its input's
/// columns on under a narrower selection.
pub struct Filter {
    input: BoxOp,
    /// As written, for `describe`.
    predicate: Expr,
    bound: BoundExpr,
    sel: Vec<bool>,
    scratch: VecScratch,
    emitted: u64,
}

impl Filter {
    /// Wrap `input` with `predicate`, bound against `input`'s schema.
    pub fn new(input: BoxOp, predicate: Expr) -> Result<Self> {
        let bound = bind(&predicate, input.schema())?;
        Ok(Filter { input, predicate, bound, sel: Vec::new(), scratch: VecScratch::default(), emitted: 0 })
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn describe(&self) -> String {
        format!("Filter: {}", crate::ast::expr_to_sql(&self.predicate))
    }

    fn children(&self) -> Vec<&BoxOp> {
        vec![&self.input]
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next_batch(&mut self) -> Result<bool> {
        while self.input.next_batch()? {
            let input = self.input.batch();
            self.sel.clear();
            self.sel.extend_from_slice(input.sel);
            filter_vec(&self.bound, input.cols, &mut self.sel, &mut self.scratch)?;
            let kept = count_live(&self.sel);
            if kept > 0 {
                self.emitted += kept as u64;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: self.input.batch().cols, sel: &self.sel }
    }
}

/// Projection: computes output expressions over each input batch's live
/// lanes into a compacted batch of its own.
pub struct Project {
    input: BoxOp,
    exprs: Vec<BoundExpr>,
    schema: Schema,
    out: ColumnBatch,
    sel: Vec<bool>,
    lanes: Vec<u32>,
    scratch: VecScratch,
    emitted: u64,
}

impl Project {
    /// Project `exprs` (bound against `input`'s schema) out of `input`,
    /// naming outputs per `schema`.
    pub fn new(input: BoxOp, exprs: &[Expr], schema: Schema) -> Result<Self> {
        debug_assert_eq!(exprs.len(), schema.len());
        let exprs = bind_all(exprs, input.schema())?;
        let out = ColumnBatch::new(exprs.len());
        Ok(Project {
            input,
            exprs,
            schema,
            out,
            sel: Vec::new(),
            lanes: Vec::new(),
            scratch: VecScratch::default(),
            emitted: 0,
        })
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let cols: Vec<String> = self.schema.columns.iter().map(|c| c.name.clone()).collect();
        format!("Project: {}", cols.join(", "))
    }

    fn children(&self) -> Vec<&BoxOp> {
        vec![&self.input]
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next_batch(&mut self) -> Result<bool> {
        if !self.input.next_batch()? {
            return Ok(false);
        }
        let Project { input, exprs, out, sel, lanes, scratch, emitted, .. } = self;
        out.clear();
        project_into(exprs, input.batch(), scratch, lanes, out)?;
        select_all(sel, lanes.len());
        *emitted += lanes.len() as u64;
        Ok(true)
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: &self.out, sel: &self.sel }
    }
}

/// Limit: stops after `n` lanes.
pub struct Limit {
    input: BoxOp,
    limit: u64,
    sel: Vec<bool>,
    emitted: u64,
}

impl Limit {
    /// Pass at most `n` rows of `input`.
    pub fn new(input: BoxOp, n: u64) -> Self {
        Limit { input, limit: n, sel: Vec::new(), emitted: 0 }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn describe(&self) -> String {
        format!("Limit: {}", self.limit)
    }

    fn children(&self) -> Vec<&BoxOp> {
        vec![&self.input]
    }

    fn next_batch(&mut self) -> Result<bool> {
        if self.emitted == self.limit || !self.input.next_batch()? {
            return Ok(false);
        }
        self.sel.clear();
        self.sel.extend_from_slice(self.input.batch().sel);
        for live in self.sel.iter_mut().filter(|live| **live) {
            if self.emitted == self.limit {
                *live = false;
            } else {
                self.emitted += 1;
            }
        }
        Ok(true)
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: self.input.batch().cols, sel: &self.sel }
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }
}

/// The result cursor at the root of a plan: pulls batches and builds one
/// owned row (or one encoded row) per live lane — the only place above
/// the scans where a lane becomes a [`Row`].
pub struct RowCursor {
    op: BoxOp,
    /// Next lane of the current batch; `None` when no batch is current.
    lane: Option<usize>,
}

impl RowCursor {
    /// A cursor over the rows `op` produces.
    pub fn new(op: BoxOp) -> Self {
        RowCursor { op, lane: None }
    }

    /// The plan being drained (for its schema and `EXPLAIN ANALYZE`).
    pub fn op(&self) -> &BoxOp {
        &self.op
    }

    /// Hand `visit` the live lanes the current batch has left, if a batch
    /// is current.
    fn finish_batch(&mut self, mut visit: impl FnMut(&ColumnBatch, usize)) {
        if let Some(from) = self.lane.take() {
            let batch = self.op.batch();
            (from..batch.sel.len()).filter(|lane| batch.sel[*lane]).for_each(|lane| visit(batch.cols, lane));
        }
    }

    /// The next row, or `None` when the plan is exhausted. Pulls a batch
    /// only when the current one has no live lane left.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            let Some(from) = self.lane else {
                if !self.op.next_batch()? {
                    return Ok(None);
                }
                self.lane = Some(0);
                continue;
            };
            let batch = self.op.batch();
            self.lane = (from..batch.sel.len()).find(|lane| batch.sel[*lane]).map(|lane| lane + 1);
            if let Some(next) = self.lane {
                return Ok(Some(row_at(batch.cols, next - 1)));
            }
        }
    }

    /// Every remaining row, owned.
    pub fn drain_rows(&mut self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        self.finish_batch(|cols, lane| rows.push(row_at(cols, lane)));
        while self.op.next_batch()? {
            let batch = self.op.batch();
            rows.extend(live_lanes(batch.sel).map(|lane| row_at(batch.cols, lane)));
        }
        Ok(rows)
    }

    /// Append every remaining row to `out` in encoded form: the rest of
    /// the current batch lane by lane ([`EncodedRows::push_lane`]), then
    /// whatever the plan's root writes ([`Operator::drain_encoded`]).
    pub fn drain_encoded(&mut self, out: &mut EncodedRows) -> Result<()> {
        self.finish_batch(|cols, lane| out.push_lane(cols, lane));
        self.op.drain_encoded(out)
    }
}

fn row_at(cols: &ColumnBatch, lane: usize) -> Row {
    let mut row = Row::with_capacity(cols.width());
    cols.read_row(lane, &mut row);
    row
}

/// Drain an operator into a row vector.
pub fn collect(op: BoxOp) -> Result<(Schema, Vec<Row>)> {
    let schema = op.schema().clone();
    Ok((schema, RowCursor::new(op).drain_rows()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    pub(crate) fn test_schema() -> Schema {
        Schema::new(vec![Column::new("a", DataType::Int), Column::new("b", DataType::Text)])
    }

    pub(crate) fn test_rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i), Value::Text(format!("s{i}"))]).collect()
    }

    #[test]
    fn values_streams_rows() {
        let (_, rows) = collect(Box::new(Values::new(test_schema(), test_rows(5)))).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn filter_keeps_matching() {
        let v = Box::new(Values::new(test_schema(), test_rows(10)));
        let f = Box::new(Filter::new(v, parse_expression("a >= 7").unwrap()).unwrap());
        let (_, rows) = collect(f).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(7));
    }

    #[test]
    fn project_computes_expressions() {
        let v = Box::new(Values::new(test_schema(), test_rows(3)));
        let out_schema = Schema::new(vec![Column::new("double_a", DataType::Int)]);
        let p =
            Box::new(Project::new(v, &[parse_expression("a * 2").unwrap()], out_schema).unwrap());
        let (schema, rows) = collect(p).unwrap();
        assert_eq!(schema.columns[0].name, "double_a");
        assert_eq!(rows[2][0], Value::Int(4));
    }

    #[test]
    fn limit_truncates() {
        let v = Box::new(Values::new(test_schema(), test_rows(10)));
        let (_, rows) = collect(Box::new(Limit::new(v, 4))).unwrap();
        assert_eq!(rows.len(), 4);
        let v = Box::new(Values::new(test_schema(), test_rows(2)));
        let (_, rows) = collect(Box::new(Limit::new(v, 100))).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn limit_describes_itself_as_written_and_stops_pulling() {
        let v = Box::new(Values::new(test_schema(), test_rows(10)));
        let mut cursor = RowCursor::new(Box::new(Limit::new(v, 4)));
        assert_eq!(cursor.op().describe(), "Limit: 4");
        assert_eq!(cursor.drain_rows().unwrap().len(), 4);
        assert_eq!(cursor.op().describe(), "Limit: 4", "not the countdown");
        assert_eq!(explain_analyze(cursor.op()), "Limit: 4 (rows in=10 out=4)\n  Values (2 columns) (rows out=10)\n");
        // A limit of nothing never pulls its input.
        let v = Box::new(Values::new(test_schema(), test_rows(3)));
        let mut cursor = RowCursor::new(Box::new(Limit::new(v, 0)));
        assert!(cursor.next_row().unwrap().is_none());
        assert_eq!(explain_analyze(cursor.op()), "Limit: 0 (rows in=0 out=0)\n  Values (2 columns) (rows out=0)\n");
    }

    #[test]
    fn cursor_encodes_what_it_would_have_returned_as_rows() {
        let rows = test_rows(7);
        let plan = || {
            let v = Box::new(Values::new(test_schema(), rows.clone()));
            Box::new(Filter::new(v, parse_expression("a <> 2").unwrap()).unwrap())
        };
        let mut cursor = RowCursor::new(plan());
        let mut encoded = EncodedRows::new();
        encoded.push_row(&cursor.next_row().unwrap().unwrap());
        encoded.push_row(&cursor.next_row().unwrap().unwrap());
        cursor.drain_encoded(&mut encoded).unwrap();
        assert!(cursor.next_row().unwrap().is_none());
        assert_eq!(encoded, EncodedRows::from_rows(&collect(plan()).unwrap().1));
        assert_eq!(encoded.len(), 6);
    }
}
