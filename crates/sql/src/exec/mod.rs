//! Physical operators (volcano iterators).
//!
//! Every operator pulls rows from its child via [`Operator::next`]. Base
//! tables are read by the one scan kernel ([`scan`]), a morsel at a time
//! with filter and projection fused in; pipeline breakers (sort, hash
//! aggregate, hash-join build side) materialize on first pull. An
//! operator that evaluates expressions binds them against its input
//! schema when it is built — its constructor returns the unknown-column
//! error — and reads columns by index from then on.

pub mod aggregate;
pub mod join;
pub mod morsel;
#[cfg(test)]
pub(crate) mod oracle;
pub mod partial;
pub mod scan;
pub mod sort;

pub use aggregate::{AggSpec, HashAggregate};
pub use join::{HashJoin, NestedLoopJoin};
pub use morsel::{partition_pages, Dop, ExecMetrics, ExecOptions, Morsel, ScanWatch};
pub use partial::AggPlan;
pub use scan::{Scan, ScanAggregate, ScanSource};
pub use sort::Sort;

use crate::ast::Expr;
use crate::encoded::EncodedRows;
use crate::expr::{bind, eval_bound, BoundExpr};
use crate::schema::{Row, Schema};
use crate::Result;

/// A pull-based physical operator.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;
    /// One-line description for `EXPLAIN`.
    fn describe(&self) -> String;
    /// Child operators (for `EXPLAIN`), when still attached.
    fn children(&self) -> Vec<&BoxOp> {
        Vec::new()
    }
    /// Rows this operator has emitted so far (fuels `EXPLAIN ANALYZE`).
    fn rows_out(&self) -> u64 {
        0
    }
    /// Rows a scan has decoded so far, before its fused filter — the
    /// `rows in` of an operator whose input is pages, not a child.
    fn rows_scanned(&self) -> Option<u64> {
        None
    }
    /// Drain every remaining row into `out` in encoded form. A fused
    /// [`Scan`] overrides this to skip the owned rows altogether.
    fn drain_encoded(&mut self, out: &mut EncodedRows) -> Result<()> {
        while let Some(row) = self.next()? {
            out.push_row(&row);
        }
        Ok(())
    }
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

/// Materialized input rows (used for policy tests and for tables shipped
/// from the storage engine to the host).
pub struct Values {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
    emitted: u64,
}

impl Values {
    /// Wrap rows with their schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        Values { schema, rows: rows.into_iter(), emitted: 0 }
    }
}

impl Operator for Values {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let row = self.rows.next();
        self.emitted += row.is_some() as u64;
        Ok(row)
    }

    fn describe(&self) -> String {
        format!("Values ({} columns)", self.schema.len())
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }
}

/// Filter: passes rows whose predicate is truthy.
pub struct Filter {
    input: BoxOp,
    /// As written, for `describe`.
    predicate: Expr,
    bound: BoundExpr,
    emitted: u64,
}

impl Filter {
    /// Wrap `input` with `predicate`, bound against `input`'s schema.
    pub fn new(input: BoxOp, predicate: Expr) -> Result<Self> {
        let bound = bind(&predicate, input.schema())?;
        Ok(Filter { input, predicate, bound, emitted: 0 })
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

    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            if eval_bound(&self.bound, &row)?.is_truthy() {
                self.emitted += 1;
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Projection: computes output expressions per row.
pub struct Project {
    input: BoxOp,
    exprs: Vec<BoundExpr>,
    schema: Schema,
    emitted: u64,
}

impl Project {
    /// Project `exprs` (bound against `input`'s schema) out of `input`,
    /// naming outputs per `schema`.
    pub fn new(input: BoxOp, exprs: &[Expr], schema: Schema) -> Result<Self> {
        debug_assert_eq!(exprs.len(), schema.len());
        let exprs = bind_all(exprs, input.schema())?;
        Ok(Project { input, exprs, schema, emitted: 0 })
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

    fn next(&mut self) -> Result<Option<Row>> {
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(eval_bound(e, &row)?);
                }
                self.emitted += 1;
                Ok(Some(out))
            }
        }
    }
}

/// Limit: stops after `n` rows.
pub struct Limit {
    input: BoxOp,
    remaining: u64,
    emitted: u64,
}

impl Limit {
    /// Pass at most `n` rows of `input`.
    pub fn new(input: BoxOp, n: u64) -> Self {
        Limit { input, remaining: n, emitted: 0 }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn describe(&self) -> String {
        format!("Limit: {}", self.remaining)
    }

    fn children(&self) -> Vec<&BoxOp> {
        vec![&self.input]
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(row) => {
                self.remaining -= 1;
                self.emitted += 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }
}

/// Drain an operator into a row vector.
pub fn collect(mut op: BoxOp) -> Result<(Schema, Vec<Row>)> {
    let schema = op.schema().clone();
    let mut rows = Vec::new();
    while let Some(r) = op.next()? {
        rows.push(r);
    }
    Ok((schema, rows))
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
}
