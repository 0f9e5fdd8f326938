//! Hash aggregation.

use crate::ast::{AggFunc, Expr};
use crate::exec::{bind_all, BoxOp, Operator};
use crate::expr::{bind, eval_bound, BoundExpr};
use crate::schema::{Column, Row, Schema};
use crate::value::{DataType, Value};
use crate::Result;
use std::collections::{HashMap, HashSet};

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

/// Accumulator for one aggregate in one group. `pub(crate)` so the
/// morsel-parallel aggregate replays the exact same state machine.
pub(crate) enum AggState {
    Count(i64),
    Sum { int: i64, float: f64, all_int: bool, seen: bool },
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum { int: 0, float: 0.0, all_int: true, seen: false },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    pub(crate) fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(()); // aggregates skip NULLs
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum { int, float, all_int, seen } => {
                *seen = true;
                match v {
                    Value::Int(i) => {
                        *int = int.wrapping_add(*i);
                        *float += *i as f64;
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
                if cur.as_ref().is_none_or(|c| v.sort_cmp(c) == std::cmp::Ordering::Less) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v.sort_cmp(c) == std::cmp::Ordering::Greater) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum { int, float, all_int, seen } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(int)
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
        }
    }
}

/// Output schema of an aggregation: the group columns followed by the
/// aggregate columns. Shared by [`HashAggregate`] and the morsel-parallel
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
    keys: Row,
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<Vec<u8>>>>,
}

/// Grouping accumulator: the single-threaded core of hash aggregation,
/// fed one row at a time in input order. Both the serial operator and
/// the morsel-parallel merge drive this same state machine, which is
/// what makes parallel aggregation bit-identical to serial — group
/// first-seen order, NULL gating, DISTINCT dedup order and the exact
/// (non-associative) float accumulation order are all decided here.
pub(crate) struct GroupAcc {
    groups: HashMap<Vec<u8>, Group>,
    order: Vec<Vec<u8>>, // first-seen group order
}

impl GroupAcc {
    /// `global` (no GROUP BY) pre-seeds the single output group so empty
    /// input still yields one row.
    pub(crate) fn new(aggs: &[AggSpec], global: bool) -> Self {
        let mut acc = GroupAcc { groups: HashMap::new(), order: Vec::new() };
        if global {
            acc.groups.insert(
                Vec::new(),
                Group {
                    keys: Vec::new(),
                    states: aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    distinct_seen: aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
                },
            );
            acc.order.push(Vec::new());
        }
        acc
    }

    /// Fold one input row: `key` is the concatenated group-key encoding,
    /// `key_vals` the evaluated group expressions (cloned on first sight
    /// of the group only), `agg_vals` one evaluated input per aggregate
    /// (`COUNT(*)` rows pass `Int(1)`).
    pub(crate) fn update(
        &mut self,
        aggs: &[AggSpec],
        key: &[u8],
        key_vals: &[Value],
        agg_vals: &[Value],
    ) -> Result<()> {
        if !self.groups.contains_key(key) {
            self.order.push(key.to_vec());
            self.groups.insert(
                key.to_vec(),
                Group {
                    keys: key_vals.to_vec(),
                    states: aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    distinct_seen: aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
                },
            );
        }
        let group = self.groups.get_mut(key).expect("just ensured");
        for (i, spec) in aggs.iter().enumerate() {
            let v = &agg_vals[i];
            if spec.arg.is_none() || !v.is_null() {
                if let Some(seen) = &mut group.distinct_seen[i] {
                    let mut kb = Vec::new();
                    v.key_bytes(&mut kb);
                    if !seen.insert(kb) {
                        continue;
                    }
                }
                group.states[i].update(v)?;
            }
        }
        Ok(())
    }

    /// Emit one output row per group, in first-seen order.
    pub(crate) fn finish(mut self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.order.len());
        for key in self.order {
            let g = self.groups.remove(&key).expect("tracked key");
            let mut row = g.keys;
            for s in g.states {
                row.push(s.finish());
            }
            rows.push(row);
        }
        rows
    }
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
    /// Group keys and aggregate inputs (`None` for `COUNT(*)`), bound
    /// against the input schema.
    group_bound: Vec<BoundExpr>,
    arg_bound: Vec<Option<BoundExpr>>,
    schema: Schema,
    output: std::vec::IntoIter<Row>,
    emitted: u64,
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
        let group_bound = bind_all(&group_exprs, input.schema())?;
        let arg_bound = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| bind(e, input.schema())).transpose())
            .collect::<Result<_>>()?;
        let schema = agg_output_schema(&group_names, &aggs);
        Ok(HashAggregate {
            input: Some(input),
            group_exprs,
            aggs,
            group_bound,
            arg_bound,
            schema,
            output: Vec::new().into_iter(),
            emitted: 0,
        })
    }

    fn materialize(&mut self) -> Result<()> {
        let mut input = self.input.take().expect("materialize called once");
        let mut acc = GroupAcc::new(&self.aggs, self.group_exprs.is_empty());
        let mut agg_vals = Vec::with_capacity(self.aggs.len());
        let mut key = Vec::new();
        let mut key_vals = Vec::with_capacity(self.group_exprs.len());
        while let Some(row) = input.next()? {
            key.clear();
            key_vals.clear();
            for e in &self.group_bound {
                let v = eval_bound(e, &row)?;
                v.key_bytes(&mut key);
                key_vals.push(v);
            }
            agg_vals.clear();
            for arg in &self.arg_bound {
                agg_vals.push(match arg {
                    None => Value::Int(1), // COUNT(*) counts rows
                    Some(e) => eval_bound(e, &row)?,
                });
            }
            acc.update(&self.aggs, &key, &key_vals, &agg_vals)?;
        }
        self.output = acc.finish().into_iter();
        Ok(())
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
        self.emitted
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.input.is_some() {
            self.materialize()?;
        }
        let row = self.output.next();
        self.emitted += row.is_some() as u64;
        Ok(row)
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
