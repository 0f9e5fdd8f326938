//! Distributed partial aggregation: pre-evaluate per-row aggregate
//! inputs anywhere, replay the serial accumulator in one place.
//!
//! The morsel-parallel aggregate already splits aggregation into two
//! halves: workers *pre-evaluate* each row (group values, aggregate
//! inputs) and a single-threaded merge folds them into the serial
//! [`GroupAcc`](super::aggregate::GroupAcc) state machine in row
//! order, which is what keeps parallel results bit-identical to serial
//! (group first-seen order, NULL gating, DISTINCT dedup and the
//! non-associative float accumulation order are all properties of the
//! replay order). This module exposes that same split across *process
//! boundaries*: a storage shard evaluates [`AggPlan::eval_partial_batch`]
//! over its local rows and ships the resulting tuples; the coordinator
//! feeds every shard's tuples — merged back into canonical row order —
//! through [`AggPlan::finish`], which replays the accumulator and puts
//! the single-node planner's own post-aggregation pipeline
//! (`plan::Tail`: HAVING → ORDER BY → projection → LIMIT) on top.
//!
//! Because the replay consumes raw per-row inputs rather than merged
//! per-shard partial states, the result is bit-identical to a
//! single-node run at any shard count — floating-point sums are applied
//! in the same order, DISTINCT sets dedup globally, and group output
//! order is the global first-seen order.

use crate::ast::{Expr, SelectStmt};
use crate::batch::ColumnBatch;
use crate::exec::aggregate::{agg_output_schema, GroupAcc};
use crate::exec::{bind_all, collect, Values, BATCH_ROWS};
use crate::plan::{group_name, Aggregation, Tail};
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
    /// Group keys and aggregate specs, evaluated against the fragment
    /// schema.
    agg: Aggregation,
    /// Residual row filter (predicates the partitioner left on the
    /// coordinator statement), applied before tuple evaluation.
    residual: Option<Expr>,
    /// Everything above the aggregation, as the planner planned it.
    tail: Tail,
}

impl AggPlan {
    /// Decompose `stmt` for distributed aggregation, or `None` when the
    /// statement is not a single-table aggregation fully resolvable
    /// against `input` (the fragment's output schema) — callers fall
    /// back to shipping raw rows, and the host plan that path runs
    /// reports the name that did not resolve.
    pub fn from_select(stmt: &SelectStmt, input: &Schema) -> Result<Option<AggPlan>> {
        if stmt.from.len() != 1 {
            return Ok(None);
        }
        let (Some(agg), tail) = Tail::plan(stmt, input)? else {
            return Ok(None);
        };
        // What the shards evaluate must bind against what they are sent.
        let args = agg.specs.iter().filter_map(|spec| spec.arg.as_ref());
        if bind_all(agg.group_by.iter().chain(args).chain(&stmt.where_clause), input).is_err() {
            return Ok(None);
        }
        Ok(Some(AggPlan { agg, residual: stmt.where_clause.clone(), tail }))
    }

    /// Number of group-by expressions (tuple prefix width).
    pub fn group_width(&self) -> usize {
        self.agg.group_by.len()
    }

    /// Number of aggregate input values (tuple suffix width).
    pub fn agg_width(&self) -> usize {
        self.agg.specs.len()
    }

    /// Schema of the shipped partial tuples: the evaluated group keys
    /// followed by the evaluated aggregate inputs. Declared types are
    /// metadata only (values carry their own tags on the wire).
    pub fn partial_schema(&self) -> Schema {
        let groups = (0..self.group_width()).map(|i| Column::new(group_name(i), DataType::Text));
        let inputs =
            (0..self.agg_width()).map(|i| Column::new(format!("__aggin{i}"), DataType::Float));
        Schema::new(groups.chain(inputs).collect())
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
        use crate::expr::{bind, eval_vec, filter_vec, BoundExpr, VecScratch};

        let residual = self.residual.as_ref().map(|p| bind(p, schema)).transpose()?;
        let groups: Vec<BoundExpr> = bind_all(&self.agg.group_by, schema)?;
        let args: Vec<Option<BoundExpr>> = self
            .agg
            .specs
            .iter()
            .map(|spec| spec.arg.as_ref().map(|e| bind(e, schema)).transpose())
            .collect::<Result<_>>()?;

        let mut batch = ColumnBatch::new(schema.len());
        rows.iter().for_each(|row| batch.push_row(row));
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
        let specs = &self.agg.specs;
        let mut acc = GroupAcc::new(specs, self.group_width());
        let mut batch = ColumnBatch::new(self.group_width() + self.agg_width());
        for tuple in tuples {
            batch.push_row(&tuple);
            if batch.len() == BATCH_ROWS {
                acc.fold_tuples(&batch)?;
                batch.clear();
            }
        }
        acc.fold_tuples(&batch)?;
        let grouped = agg_output_schema(&self.agg.group_names(), specs);
        collect(self.tail.clone().over(Box::new(Values::new(grouped, acc.finish()?)))?)
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
            let mut tuple = Vec::with_capacity(self.group_width() + self.agg_width());
            for e in &self.agg.group_by {
                tuple.push(eval(e, schema, row)?);
            }
            for spec in &self.agg.specs {
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
