//! Distributed partial aggregation: pre-evaluate per-row aggregate
//! inputs anywhere, replay the serial accumulator in one place.
//!
//! The morsel-parallel aggregate already splits aggregation into two
//! halves: workers *pre-evaluate* each row (group-key bytes, group
//! values, aggregate inputs) and a single-threaded merge replays the
//! serial [`GroupAcc`](super::aggregate::GroupAcc) state machine in row
//! order, which is what keeps parallel results bit-identical to serial
//! (group first-seen order, NULL gating, DISTINCT dedup and the
//! non-associative float accumulation order are all properties of the
//! replay order). This module exposes that same split across *process
//! boundaries*: a storage shard evaluates [`AggPlan::eval_partial`] over
//! its local rows and ships the resulting tuples; the coordinator feeds
//! every shard's tuples — merged back into canonical row order — through
//! [`AggPlan::finish`], which replays the accumulator and applies the
//! post-aggregation pipeline (HAVING → ORDER BY → projection → LIMIT)
//! exactly as the single-node planner would.
//!
//! Because the replay consumes raw per-row inputs rather than merged
//! per-shard partial states, the result is bit-identical to a
//! single-node run at any shard count — floating-point sums are applied
//! in the same order, DISTINCT sets dedup globally, and group output
//! order is the global first-seen order.

use crate::ast::{Expr, SelectStmt};
use crate::exec::aggregate::{agg_output_schema, GroupAcc};
use crate::exec::{collect, AggSpec, BoxOp, Filter, Limit, Project, Sort, Values};
use crate::plan::{collect_aggs, expand_projections, output_schema, rewrite_post_agg};
use crate::schema::{Column, Row, Schema};
use crate::value::{DataType, Value};
use crate::Result;

/// A single-table aggregation decomposed for distributed execution.
///
/// Built from the statement a coordinator would otherwise run over one
/// shipped intermediate table; shards evaluate tuples against the
/// fragment's output schema, the coordinator replays them.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Group-by expressions, evaluated against the fragment schema.
    group_by: Vec<Expr>,
    /// One spec per distinct aggregate node, named `__agg{i}`.
    specs: Vec<AggSpec>,
    /// The original aggregate nodes, for post-agg rewriting.
    agg_nodes: Vec<Expr>,
    /// Residual row filter (predicates the partitioner left on the
    /// coordinator statement), applied before tuple evaluation.
    residual: Option<Expr>,
    /// Final projection expressions (pre-rewrite).
    proj_exprs: Vec<Expr>,
    /// Final projection output names.
    proj_names: Vec<String>,
    /// HAVING predicate (pre-rewrite).
    having: Option<Expr>,
    /// ORDER BY keys with descending flags (pre-rewrite, aliases
    /// already substituted).
    order_keys: Vec<(Expr, bool)>,
    /// LIMIT row count.
    limit: Option<u64>,
}

impl AggPlan {
    /// Decompose `stmt` for distributed aggregation, or `None` when the
    /// statement is not a single-table aggregation fully resolvable
    /// against `input` (the fragment's output schema) — callers fall
    /// back to shipping raw rows.
    pub fn from_select(stmt: &SelectStmt, input: &Schema) -> Result<Option<AggPlan>> {
        if stmt.from.len() != 1 {
            return Ok(None);
        }
        let proj_items = expand_projections(stmt, input)?;
        let has_agg = !stmt.group_by.is_empty()
            || proj_items.iter().any(|(e, _)| e.contains_aggregate())
            || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());
        if !has_agg {
            return Ok(None);
        }
        let (proj_exprs, proj_names): (Vec<Expr>, Vec<String>) = proj_items.into_iter().unzip();
        // ORDER BY may reference projection aliases: substitute them the
        // way the planner does.
        let mut order_keys: Vec<(Expr, bool)> = stmt.order_by.clone();
        for (e, _) in &mut order_keys {
            if let Expr::Column(name) = e {
                if let Some(i) = proj_names.iter().position(|n| n == name) {
                    if input.resolve(name).is_err() {
                        *e = proj_exprs[i].clone();
                    }
                }
            }
        }
        // Every referenced column must resolve against the fragment
        // schema, or the shards cannot evaluate the tuples.
        let mut cols = Vec::new();
        for e in proj_exprs
            .iter()
            .chain(stmt.group_by.iter())
            .chain(stmt.having.iter())
            .chain(stmt.where_clause.iter())
            .chain(order_keys.iter().map(|(e, _)| e))
        {
            e.referenced_columns(&mut cols);
        }
        for c in &cols {
            if input.resolve(c).is_err() {
                return Ok(None);
            }
        }
        let mut agg_nodes: Vec<Expr> = Vec::new();
        for e in proj_exprs.iter().chain(stmt.having.iter()).chain(order_keys.iter().map(|(e, _)| e)) {
            collect_aggs(e, &mut agg_nodes);
        }
        let specs: Vec<AggSpec> = agg_nodes
            .iter()
            .enumerate()
            .map(|(i, e)| match e {
                Expr::Agg { func, arg, distinct } => AggSpec {
                    func: *func,
                    arg: arg.as_deref().cloned(),
                    distinct: *distinct,
                    name: format!("__agg{i}"),
                },
                _ => unreachable!("collect_aggs yields Agg nodes"),
            })
            .collect();
        Ok(Some(AggPlan {
            group_by: stmt.group_by.clone(),
            specs,
            agg_nodes,
            residual: stmt.where_clause.clone(),
            proj_exprs,
            proj_names,
            having: stmt.having.clone(),
            order_keys,
            limit: stmt.limit,
        }))
    }

    /// Number of group-by expressions (tuple prefix width).
    pub fn group_width(&self) -> usize {
        self.group_by.len()
    }

    /// Number of aggregate input values (tuple suffix width).
    pub fn agg_width(&self) -> usize {
        self.specs.len()
    }

    /// Schema of the shipped partial tuples: the evaluated group keys
    /// followed by the evaluated aggregate inputs. Declared types are
    /// metadata only (values carry their own tags on the wire).
    pub fn partial_schema(&self) -> Schema {
        let mut columns = Vec::with_capacity(self.group_by.len() + self.specs.len());
        for i in 0..self.group_by.len() {
            columns.push(Column::new(format!("__grp{i}"), DataType::Text));
        }
        for (i, _) in self.specs.iter().enumerate() {
            columns.push(Column::new(format!("__aggin{i}"), DataType::Float));
        }
        Schema::new(columns)
    }

    /// Shard-side half: evaluate a slice of fragment rows into partial
    /// tuples `[group values..., aggregate inputs...]`. Rows are pivoted
    /// into a [`ColumnBatch`](crate::batch::ColumnBatch), the residual
    /// filter runs vector-at-a-time over a selection bitmap, and group
    /// keys / aggregate inputs evaluate once per expression per batch
    /// with pre-bound column indexes. Slot `i` of the output is `None`
    /// where the residual filter rejects `rows[i]`; `COUNT(*)` inputs
    /// materialize as `Int(1)`, mirroring the serial operator.
    pub fn eval_partial_batch(&self, schema: &Schema, rows: &[Row]) -> Result<Vec<Option<Row>>> {
        use crate::batch::ColumnBatch;
        use crate::expr::{bind, eval_vec, filter_vec, BoundExpr, VecScratch};
        use crate::value::RawValue;

        let residual = self.residual.as_ref().map(|p| bind(p, schema)).transpose()?;
        let groups: Vec<BoundExpr> =
            self.group_by.iter().map(|e| bind(e, schema)).collect::<Result<_>>()?;
        let args: Vec<Option<BoundExpr>> = self
            .specs
            .iter()
            .map(|spec| spec.arg.as_ref().map(|e| bind(e, schema)).transpose())
            .collect::<Result<_>>()?;

        let mut batch = ColumnBatch::new(schema.len());
        for row in rows {
            for (c, v) in row.iter().enumerate() {
                batch.push_cell(c, RawValue::of(v));
            }
            batch.finish_row()?;
        }
        let mut sel = vec![true; batch.len()];
        let mut scratch = VecScratch::default();
        if let Some(p) = &residual {
            filter_vec(p, &batch, &mut sel, &mut scratch)?;
        }
        let mut vecs: Vec<Vec<Value>> = Vec::with_capacity(groups.len() + args.len());
        for e in &groups {
            vecs.push(eval_vec(e, &batch, &sel, &mut scratch)?);
        }
        for arg in &args {
            vecs.push(match arg {
                None => vec![Value::Int(1); batch.len()], // COUNT(*) counts rows
                Some(e) => eval_vec(e, &batch, &sel, &mut scratch)?,
            });
        }
        let mut out = Vec::with_capacity(batch.len());
        for (lane, live) in sel.iter().enumerate() {
            if !*live {
                out.push(None);
                continue;
            }
            out.push(Some(
                vecs.iter_mut()
                    .map(|v| std::mem::replace(&mut v[lane], Value::Null))
                    .collect(),
            ));
        }
        Ok(out)
    }

    /// Coordinator-side half: replay partial tuples *in canonical row
    /// order* through the serial accumulator, then apply HAVING, ORDER
    /// BY, projection and LIMIT. Returns the final output schema and
    /// rows — bit-identical to running the original statement over the
    /// undivided table.
    pub fn finish(&self, tuples: impl IntoIterator<Item = Row>) -> Result<(Schema, Vec<Row>)> {
        let gw = self.group_by.len();
        let mut acc = GroupAcc::new(&self.specs, gw == 0);
        let mut key = Vec::new();
        for tuple in tuples {
            key.clear();
            for v in &tuple[..gw] {
                v.key_bytes(&mut key);
            }
            acc.update(&self.specs, &key, &tuple[..gw], &tuple[gw..])?;
        }
        let group_names: Vec<String> = (0..gw).map(|i| format!("__grp{i}")).collect();
        let grouped_schema = agg_output_schema(&group_names, &self.specs);
        let mut current: BoxOp = Box::new(Values::new(grouped_schema, acc.finish()));
        let rw = |e: &Expr| rewrite_post_agg(e, &self.group_by, &self.agg_nodes);
        if let Some(h) = &self.having {
            current = Box::new(Filter::new(current, rw(h)));
        }
        if !self.order_keys.is_empty() {
            let keys = self.order_keys.iter().map(|(e, d)| (rw(e), *d)).collect();
            current = Box::new(Sort::new(current, keys));
        }
        let exprs: Vec<Expr> = self.proj_exprs.iter().map(rw).collect();
        let schema = output_schema(&exprs, &self.proj_names, current.schema());
        current = Box::new(Project::new(current, exprs, schema));
        if let Some(n) = self.limit {
            current = Box::new(Limit::new(current, n));
        }
        collect(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::expr::eval;
    use crate::parser::parse_statement;

    impl AggPlan {
    /// Row-at-a-time oracle for [`AggPlan::eval_partial_batch`]: evaluate
        /// one fragment row into a partial tuple `[group values...,
        /// aggregate inputs...]`, or `None` when the residual filter rejects
        /// the row. `COUNT(*)` inputs materialize as `Int(1)`, mirroring the
        /// serial operator.
        pub fn eval_partial(&self, schema: &Schema, row: &Row) -> Result<Option<Row>> {
            if let Some(p) = &self.residual {
                if !eval(p, schema, row)?.is_truthy() {
                    return Ok(None);
                }
            }
            let mut tuple = Vec::with_capacity(self.group_by.len() + self.specs.len());
            for e in &self.group_by {
                tuple.push(eval(e, schema, row)?);
            }
            for spec in &self.specs {
                tuple.push(match &spec.arg {
                    None => Value::Int(1),
                    Some(e) => eval(e, schema, row)?,
                });
            }
            Ok(Some(tuple))
        }
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn fragment_schema() -> Schema {
        Schema::new(vec![
            Column::new("g", DataType::Text),
            Column::new("x", DataType::Int),
            Column::new("y", DataType::Float),
        ])
    }

    fn fragment_rows() -> Vec<Row> {
        vec![
            vec![Value::Text("a".into()), Value::Int(1), Value::Float(0.5)],
            vec![Value::Text("b".into()), Value::Int(10), Value::Float(1.5)],
            vec![Value::Text("a".into()), Value::Int(2), Value::Float(2.5)],
            vec![Value::Text("b".into()), Value::Int(20), Value::Float(3.5)],
            vec![Value::Text("a".into()), Value::Int(3), Value::Null],
        ]
    }

    /// Run the serial planner end to end as the oracle.
    fn oracle(sql: &str) -> (Schema, Vec<Row>) {
        let mut db = crate::Database::new(ironsafe_storage::pager::PlainPager::new());
        db.create_table("t", fragment_schema()).unwrap();
        db.insert_rows("t", fragment_rows()).unwrap();
        match db.execute(sql).unwrap() {
            crate::QueryResult::Rows { schema, rows } => (schema, rows),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn replayed(sql: &str, split_at: usize) -> (Schema, Vec<Row>) {
        let stmt = select(sql);
        let schema = fragment_schema();
        let plan = AggPlan::from_select(&stmt, &schema).unwrap().expect("aggregation shape");
        // Split rows across two "shards", evaluate each side separately,
        // then replay in original row order.
        let rows = fragment_rows();
        let (left, right) = rows.split_at(split_at);
        let mut tuples = Vec::new();
        for row in left.iter().chain(right.iter()) {
            if let Some(t) = plan.eval_partial(&schema, row).unwrap() {
                tuples.push(t);
            }
        }
        plan.finish(tuples).unwrap()
    }

    #[test]
    fn grouped_replay_matches_serial_planner() {
        let sql = "SELECT g, COUNT(*) AS cnt, SUM(y) AS total, AVG(x) AS mean \
                   FROM t GROUP BY g ORDER BY g";
        let (oschema, orows) = oracle(sql);
        for split in 0..=5 {
            let (schema, rows) = replayed(sql, split);
            assert_eq!(schema.columns.len(), oschema.columns.len());
            assert_eq!(rows, orows, "split at {split} diverged");
        }
    }

    #[test]
    fn global_aggregate_with_filter_matches() {
        let sql = "SELECT SUM(x * 2) AS s, COUNT(*) AS n FROM t WHERE x < 15";
        let (_, orows) = oracle(sql);
        let (_, rows) = replayed(sql, 2);
        assert_eq!(rows, orows);
    }

    #[test]
    fn having_and_limit_survive_replay() {
        let sql = "SELECT g, SUM(x) AS s FROM t GROUP BY g HAVING SUM(x) > 5 \
                   ORDER BY s DESC LIMIT 1";
        let (_, orows) = oracle(sql);
        let (_, rows) = replayed(sql, 3);
        assert_eq!(rows, orows);
    }

    #[test]
    fn distinct_dedups_globally_across_shards() {
        let sql = "SELECT COUNT(DISTINCT x) AS d FROM t";
        let (_, orows) = oracle(sql);
        // Duplicate values land on both sides of the split; the replay
        // must still count each distinct value once.
        let (_, rows) = replayed(sql, 1);
        assert_eq!(rows, orows);
    }

    #[test]
    fn batch_partial_matches_row_partial() {
        let schema = fragment_schema();
        let rows = fragment_rows();
        for sql in [
            "SELECT g, COUNT(*) AS c, SUM(y * 1.1) AS s FROM t GROUP BY g",
            "SELECT SUM(x * 2) AS s, COUNT(*) AS n FROM t WHERE x < 15",
            "SELECT g, AVG(x) AS m FROM t WHERE y IS NOT NULL GROUP BY g",
        ] {
            let plan =
                AggPlan::from_select(&select(sql), &schema).unwrap().expect("aggregation shape");
            let row_tuples: Vec<Option<Row>> =
                rows.iter().map(|r| plan.eval_partial(&schema, r).unwrap()).collect();
            let batch_tuples = plan.eval_partial_batch(&schema, &rows).unwrap();
            assert_eq!(batch_tuples, row_tuples, "`{sql}` diverged");
        }
    }

    #[test]
    fn non_aggregate_statements_are_rejected() {
        let stmt = select("SELECT g, x FROM t");
        assert!(AggPlan::from_select(&stmt, &fragment_schema()).unwrap().is_none());
        let stmt = select("SELECT a.g, SUM(b.x) FROM a, b GROUP BY a.g");
        assert!(AggPlan::from_select(&stmt, &fragment_schema()).unwrap().is_none());
    }

    #[test]
    fn unresolvable_columns_fall_back() {
        let stmt = select("SELECT missing, SUM(x) FROM t GROUP BY missing");
        assert!(AggPlan::from_select(&stmt, &fragment_schema()).unwrap().is_none());
    }
}
