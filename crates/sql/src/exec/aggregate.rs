//! Hash aggregation: the serial accumulator every aggregating plan folds
//! its batches into, and the operator that does so over a child.

use crate::ast::{AggFunc, Expr};
use crate::batch::{ColumnBatch, LaneVal};
use crate::exec::hash::{ChainIndex, KeyLane, HASH_SEED, NIL};
use crate::exec::{bind_all, live_lanes, Batch, BoxOp, Operator, Values};
use crate::expr::{bind, BoundExpr, VecOp, VecScratch};
use crate::schema::{Column, Row, Schema};
use crate::value::{DataType, Value};
use crate::{Result, SqlError};
use std::cmp::Ordering;
use std::collections::HashSet;

/// One aggregate to compute.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input expression (`None` for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Output column name.
    pub name: String,
}

/// Accumulator for one aggregate in one group.
enum AggState {
    Count(i64),
    /// `int` is exact: an i128 cannot overflow on fewer than 2^64 rows.
    Sum { int: i128, float: f64, all_int: bool, seen: bool },
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum { int: 0, float: 0.0, all_int: true, seen: false },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one non-NULL input.
    fn update(&mut self, v: LaneVal<'_>) -> Result<()> {
        let beats = |cur: &Option<Value>, wins: Ordering| {
            cur.as_ref().is_none_or(|c| v.sort_cmp(LaneVal::of(c)) == wins)
        };
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum { int, float, all_int, seen } => {
                *seen = true;
                match v {
                    LaneVal::Int(i) => {
                        *int += i as i128;
                        *float += i as f64;
                    }
                    _ => {
                        *all_int = false;
                        *float += v.as_f64()?;
                    }
                }
            }
            AggState::Avg { sum, count } => {
                *sum += v.as_f64()?;
                *count += 1;
            }
            AggState::Min(cur) => {
                if beats(cur, Ordering::Less) {
                    *cur = Some(v.to_value());
                }
            }
            AggState::Max(cur) => {
                if beats(cur, Ordering::Greater) {
                    *cur = Some(v.to_value());
                }
            }
        }
        Ok(())
    }

    /// The aggregate's value. An all-integer `SUM` whose exact total does
    /// not fit i64 is SQLite's `integer overflow` error — decided by the
    /// total alone, so by no row order (SQLite checks each partial sum).
    fn finish(self) -> Result<Value> {
        Ok(match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum { int, float, all_int, seen } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(i64::try_from(int).map_err(|_| SqlError::Eval("integer overflow".into()))?)
                } else {
                    Value::Float(float)
                }
            }
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        })
    }
}

/// Output schema of an aggregation: the group columns followed by the
/// aggregate columns. Shared by [`HashAggregate`] and the scan-fused
/// aggregate so both plans expose identical schemas.
pub(crate) fn agg_output_schema(group_names: &[String], aggs: &[AggSpec]) -> Schema {
    let mut columns = Vec::with_capacity(group_names.len() + aggs.len());
    for name in group_names {
        // Output types are dynamic; Text is a safe declared default.
        columns.push(Column::new(name.clone(), DataType::Text));
    }
    for a in aggs {
        let ty = match a.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            _ => DataType::Float,
        };
        columns.push(Column::new(a.name.clone(), ty));
    }
    Schema::new(columns)
}

struct Group {
    /// The group's key values, as its first row had them.
    keys: Row,
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<Vec<u8>>>>,
}

/// Grouping accumulator: the single-threaded core of hash aggregation,
/// fed batches in input order and folding their live lanes in lane order.
/// Every aggregating plan — over a child, fused onto a scan at any DOP,
/// or the federation's replay — drives this same state machine, which is
/// what makes them bit-identical: group first-seen order, NULL gating,
/// DISTINCT dedup order and the exact (non-associative) float
/// accumulation order are all decided here.
///
/// Groups live in a `Vec` in first-seen order under a [`ChainIndex`]: one
/// lookup per row, hashed and compared from the lanes against the key
/// values the group already holds for its output row — no key is encoded
/// or stored twice. With no group keys there is nothing to look up: every
/// row folds into group 0.
pub(crate) struct GroupAcc {
    /// Per aggregate: the function and whether it dedups its inputs.
    funcs: Vec<(AggFunc, bool)>,
    nkeys: usize,
    groups: Vec<Group>,
    index: ChainIndex,
    /// Scratch for a DISTINCT input's key encoding.
    distinct_key: Vec<u8>,
}

impl GroupAcc {
    /// An accumulator for `aggs` under `nkeys` group keys; none (no GROUP
    /// BY) pre-seeds the single output group so empty input still yields
    /// one row.
    pub(crate) fn new(aggs: &[AggSpec], nkeys: usize) -> Self {
        let funcs = aggs.iter().map(|a| (a.func, a.distinct)).collect();
        let mut acc =
            GroupAcc { funcs, nkeys, groups: Vec::new(), index: ChainIndex::default(), distinct_key: Vec::new() };
        if nkeys == 0 {
            acc.groups.push(acc.new_group(Vec::new()));
        }
        acc
    }

    fn new_group(&self, keys: Row) -> Group {
        Group {
            keys,
            states: self.funcs.iter().map(|(func, _)| AggState::new(*func)).collect(),
            distinct_seen: self.funcs.iter().map(|(_, distinct)| distinct.then(HashSet::new)).collect(),
        }
    }

    /// Fold the live lanes of `sel`, in lane order: `inputs` holds one
    /// operand per group key, then one per aggregate (`COUNT(*)` reads a
    /// constant 1). NULL inputs are skipped, NULL keys group together.
    fn fold(&mut self, inputs: &[VecOp<'_>], sel: &[bool]) -> Result<()> {
        let (keys, args) = inputs.split_at(self.nkeys);
        for lane in live_lanes(sel) {
            let group = if keys.is_empty() { 0 } else { self.group_of(keys, lane) };
            let group = &mut self.groups[group];
            for (i, arg) in args.iter().enumerate() {
                let v = arg.lane(lane);
                if v.is_null() {
                    continue;
                }
                if let Some(seen) = &mut group.distinct_seen[i] {
                    self.distinct_key.clear();
                    KeyLane::of(v).write(&mut self.distinct_key);
                    if seen.contains(&self.distinct_key) {
                        continue;
                    }
                    seen.insert(self.distinct_key.clone());
                }
                group.states[i].update(v)?;
            }
        }
        Ok(())
    }

    /// The group `lane`'s keys belong to, created on first sight.
    fn group_of(&mut self, keys: &[VecOp<'_>], lane: usize) -> usize {
        let h = keys.iter().fold(HASH_SEED, |h, k| KeyLane::of(k.lane(lane)).hash(h));
        let mut e = self.index.matching(self.index.first(h), h);
        while e != NIL {
            let held = &self.groups[e as usize].keys;
            if keys.iter().zip(held).all(|(k, v)| KeyLane::of(k.lane(lane)) == KeyLane::of(LaneVal::of(v))) {
                return e as usize;
            }
            e = self.index.matching(self.index.next(e), h);
        }
        self.index.insert(h);
        self.groups.push(self.new_group(keys.iter().map(|k| k.lane(lane).to_value()).collect()));
        self.groups.len() - 1
    }

    /// Evaluate `exprs` ([`bind_agg_inputs`]) over `input` and fold its
    /// live lanes.
    pub(crate) fn fold_batch(&mut self, exprs: &[BoundExpr], input: Batch<'_>, scratch: &mut VecScratch) -> Result<()> {
        let inputs = exprs
            .iter()
            .map(|e| VecOp::resolve(e, input.cols, input.sel, scratch))
            .collect::<Result<Vec<_>>>()?;
        self.fold(&inputs, input.sel)
    }

    /// [`GroupAcc::fold`] over pre-evaluated tuples: a batch whose
    /// columns are the group keys then the aggregate inputs, every lane
    /// live.
    pub(crate) fn fold_tuples(&mut self, tuples: &ColumnBatch) -> Result<()> {
        let inputs: Vec<VecOp<'_>> = tuples.columns().iter().map(VecOp::Col).collect();
        self.fold(&inputs, &vec![true; tuples.len()])
    }

    /// Emit one output row per group, in first-seen order.
    pub(crate) fn finish(self) -> Result<Vec<Row>> {
        let row = |g: Group| -> Result<Row> {
            let values = g.states.into_iter().map(AggState::finish).collect::<Result<Vec<_>>>()?;
            Ok(g.keys.into_iter().chain(values).collect())
        };
        self.groups.into_iter().map(row).collect()
    }
}

/// What an aggregating operator evaluates per input batch: the group keys
/// then the aggregate inputs, bound against the input schema. A
/// `COUNT(*)` input is the constant 1, so every aggregate has one.
pub(crate) fn bind_agg_inputs(group_exprs: &[Expr], aggs: &[AggSpec], input: &Schema) -> Result<Vec<BoundExpr>> {
    let mut exprs = bind_all(group_exprs, input)?;
    for a in aggs {
        exprs.push(match &a.arg {
            Some(e) => bind(e, input)?,
            None => BoundExpr::Literal(Value::Int(1)),
        });
    }
    Ok(exprs)
}

/// Hash aggregate: groups by `group_exprs`, computes `aggs` per group.
///
/// Output schema: the group expressions (named `g0..gN` unless overridden)
/// followed by the aggregates (named per spec). With no group expressions,
/// exactly one output row is produced even for empty input (SQL global
/// aggregate semantics).
pub struct HashAggregate {
    input: Option<BoxOp>,
    /// Group keys as written, for `describe`.
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    /// Group keys then aggregate inputs, bound against the input schema.
    inputs: Vec<BoundExpr>,
    schema: Schema,
    output: Option<Values>,
}

impl HashAggregate {
    /// Build the operator, binding group keys and aggregate inputs
    /// against `input`'s schema. `group_names` label the group-by outputs.
    pub fn new(
        input: BoxOp,
        group_exprs: Vec<Expr>,
        group_names: Vec<String>,
        aggs: Vec<AggSpec>,
    ) -> Result<Self> {
        assert_eq!(group_exprs.len(), group_names.len());
        let inputs = bind_agg_inputs(&group_exprs, &aggs, input.schema())?;
        let schema = agg_output_schema(&group_names, &aggs);
        Ok(HashAggregate { input: Some(input), group_exprs, aggs, inputs, schema, output: None })
    }

    fn materialize(&mut self, mut input: BoxOp) -> Result<Values> {
        let mut acc = GroupAcc::new(&self.aggs, self.group_exprs.len());
        let mut scratch = VecScratch::default();
        while input.next_batch()? {
            acc.fold_batch(&self.inputs, input.batch(), &mut scratch)?;
        }
        Ok(Values::new(self.schema.clone(), acc.finish()?))
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let groups: Vec<String> = self.group_exprs.iter().map(crate::ast::expr_to_sql).collect();
        let aggs: Vec<String> = self.aggs.iter().map(|a| a.name.clone()).collect();
        format!(
            "HashAggregate: group by [{}], compute [{}]",
            groups.join(", "),
            aggs.join(", ")
        )
    }

    fn children(&self) -> Vec<&BoxOp> {
        self.input.as_ref().map(|i| vec![i]).unwrap_or_default()
    }

    fn rows_out(&self) -> u64 {
        self.output.as_ref().map_or(0, Values::rows_out)
    }

    fn next_batch(&mut self) -> Result<bool> {
        if let Some(input) = self.input.take() {
            self.output = Some(self.materialize(input)?);
        }
        self.output.as_mut().map_or(Ok(false), Values::next_batch)
    }

    fn batch(&self) -> Batch<'_> {
        self.output.as_ref().expect("a batch was produced").batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::parser::parse_expression;

    fn input() -> BoxOp {
        let schema = Schema::new(vec![
            Column::new("grp", DataType::Text),
            Column::new("x", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Text("a".into()), Value::Int(1)],
            vec![Value::Text("b".into()), Value::Int(10)],
            vec![Value::Text("a".into()), Value::Int(2)],
            vec![Value::Text("b".into()), Value::Int(20)],
            vec![Value::Text("a".into()), Value::Int(3)],
            vec![Value::Text("a".into()), Value::Null],
        ];
        Box::new(Values::new(schema, rows))
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
    fn grouped_aggregates() {
        let agg = HashAggregate::new(
            input(),
            vec![parse_expression("grp").unwrap()],
            vec!["grp".into()],
            vec![
                spec(AggFunc::Count, None, false, "cnt"),
                spec(AggFunc::Sum, Some("x"), false, "total"),
                spec(AggFunc::Avg, Some("x"), false, "mean"),
                spec(AggFunc::Min, Some("x"), false, "lo"),
                spec(AggFunc::Max, Some("x"), false, "hi"),
            ],
        );
        let (schema, rows) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(schema.columns.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(), vec!["grp", "cnt", "total", "mean", "lo", "hi"]);
        assert_eq!(rows.len(), 2);
        // First-seen order: a then b.
        assert_eq!(rows[0][0].as_str().unwrap(), "a");
        assert_eq!(rows[0][1], Value::Int(4), "COUNT(*) counts the NULL row");
        assert_eq!(rows[0][2], Value::Int(6), "SUM skips NULL");
        assert_eq!(rows[0][3], Value::Float(2.0), "AVG skips NULL");
        assert_eq!(rows[0][4], Value::Int(1));
        assert_eq!(rows[0][5], Value::Int(3));
        assert_eq!(rows[1][2], Value::Int(30));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let empty = Box::new(Values::new(schema, vec![]));
        let agg = HashAggregate::new(
            empty,
            vec![],
            vec![],
            vec![spec(AggFunc::Count, None, false, "cnt"), spec(AggFunc::Sum, Some("x"), false, "s")],
        );
        let (_, rows) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(rows.len(), 1, "global aggregate always yields one row");
        assert_eq!(rows[0][0], Value::Int(0));
        assert!(rows[0][1].is_null(), "SUM of nothing is NULL");
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_nothing() {
        let schema = Schema::new(vec![Column::new("g", DataType::Int), Column::new("x", DataType::Int)]);
        let empty = Box::new(Values::new(schema, vec![]));
        let agg = HashAggregate::new(
            empty,
            vec![parse_expression("g").unwrap()],
            vec!["g".into()],
            vec![spec(AggFunc::Count, None, false, "cnt")],
        );
        let (_, rows) = collect(Box::new(agg.unwrap())).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn count_distinct() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Null],
        ];
        let v = Box::new(Values::new(schema, rows));
        let agg = HashAggregate::new(
            v,
            vec![],
            vec![],
            vec![
                spec(AggFunc::Count, Some("x"), true, "distinct_x"),
                spec(AggFunc::Count, Some("x"), false, "all_x"),
            ],
        );
        let (_, out) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(out[0][0], Value::Int(2));
        assert_eq!(out[0][1], Value::Int(3), "plain COUNT(x) skips NULL");
    }

    #[test]
    fn sum_over_expression() {
        let agg = HashAggregate::new(
            input(),
            vec![],
            vec![],
            vec![spec(AggFunc::Sum, Some("x * 2"), false, "s")],
        );
        let (_, rows) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(rows[0][0], Value::Int(72));
    }

    #[test]
    fn sum_promotes_to_float_on_mixed() {
        let schema = Schema::new(vec![Column::new("x", DataType::Float)]);
        let rows = vec![vec![Value::Int(1)], vec![Value::Float(2.5)]];
        let v = Box::new(Values::new(schema, rows));
        let agg = HashAggregate::new(v, vec![], vec![], vec![spec(AggFunc::Sum, Some("x"), false, "s")]);
        let (_, out) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(out[0][0], Value::Float(3.5));
    }

    #[test]
    fn min_max_on_text() {
        let schema = Schema::new(vec![Column::new("d", DataType::Text)]);
        let rows = vec![
            vec![Value::Text("1995-03-15".into())],
            vec![Value::Text("1994-01-01".into())],
            vec![Value::Text("1996-06-30".into())],
        ];
        let v = Box::new(Values::new(schema, rows));
        let agg = HashAggregate::new(
            v,
            vec![],
            vec![],
            vec![spec(AggFunc::Min, Some("d"), false, "lo"), spec(AggFunc::Max, Some("d"), false, "hi")],
        );
        let (_, out) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(out[0][0].as_str().unwrap(), "1994-01-01");
        assert_eq!(out[0][1].as_str().unwrap(), "1996-06-30");
    }

    #[test]
    fn null_group_keys_group_together() {
        let schema = Schema::new(vec![Column::new("g", DataType::Int)]);
        let rows = vec![vec![Value::Null], vec![Value::Null], vec![Value::Int(1)]];
        let v = Box::new(Values::new(schema, rows));
        let agg = HashAggregate::new(
            v,
            vec![parse_expression("g").unwrap()],
            vec!["g".into()],
            vec![spec(AggFunc::Count, None, false, "cnt")],
        );
        let (_, out) = collect(Box::new(agg.unwrap())).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][1], Value::Int(2), "two NULL-keyed rows in one group");
    }
}
