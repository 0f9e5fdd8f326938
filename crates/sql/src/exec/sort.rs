//! Sort operator.

use crate::ast::Expr;
use crate::exec::{bind_all, BoxOp, Operator};
use crate::expr::{eval_bound, BoundExpr};
use crate::schema::{Row, Schema};
use crate::Result;
use std::cmp::Ordering;

/// Materializing sort over expression keys.
pub struct Sort {
    input: Option<BoxOp>,
    schema: Schema,
    /// Keys as written (`true` = descending); the expressions are kept
    /// for `describe` only.
    keys: Vec<(Expr, bool)>,
    bound: Vec<BoundExpr>,
    sorted: std::vec::IntoIter<Row>,
    emitted: u64,
}

impl Sort {
    /// Sort `input` by `keys` (`true` = descending), bound against
    /// `input`'s schema.
    pub fn new(input: BoxOp, keys: Vec<(Expr, bool)>) -> Result<Self> {
        let schema = input.schema().clone();
        let bound = bind_all(keys.iter().map(|(e, _)| e), &schema)?;
        let sorted = Vec::new().into_iter();
        Ok(Sort { input: Some(input), schema, keys, bound, sorted, emitted: 0 })
    }

    fn materialize(&mut self) -> Result<()> {
        let mut input = self.input.take().expect("materialize called once");
        let mut rows = Vec::new();
        while let Some(r) = input.next()? {
            rows.push(r);
        }
        // Precompute key values per row, then sort stably.
        let mut keyed: Vec<(Vec<crate::value::Value>, Row)> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut kv = Vec::with_capacity(self.bound.len());
            for e in &self.bound {
                kv.push(eval_bound(e, &row)?);
            }
            keyed.push((kv, row));
        }
        let descs: Vec<bool> = self.keys.iter().map(|(_, d)| *d).collect();
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, desc) in descs.iter().enumerate() {
                let ord = ka[i].sort_cmp(&kb[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        self.sorted = keyed.into_iter().map(|(_, r)| r).collect::<Vec<_>>().into_iter();
        Ok(())
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let keys: Vec<String> = self
            .keys
            .iter()
            .map(|(e, d)| format!("{}{}", crate::ast::expr_to_sql(e), if *d { " DESC" } else { "" }))
            .collect();
        format!("Sort: {}", keys.join(", "))
    }

    fn children(&self) -> Vec<&crate::exec::BoxOp> {
        self.input.as_ref().map(|i| vec![i]).unwrap_or_default()
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.input.is_some() {
            self.materialize()?;
        }
        let row = self.sorted.next();
        self.emitted += row.is_some() as u64;
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::parser::parse_expression;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn input(rows: Vec<Row>) -> BoxOp {
        let schema = Schema::new(vec![Column::new("a", DataType::Int), Column::new("b", DataType::Text)]);
        Box::new(Values::new(schema, rows))
    }

    fn row(a: i64, b: &str) -> Row {
        vec![Value::Int(a), Value::Text(b.into())]
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let rows = vec![row(3, "c"), row(1, "a"), row(2, "b")];
        let s = Box::new(Sort::new(input(rows.clone()), vec![(parse_expression("a").unwrap(), false)]).unwrap());
        let (_, got) = collect(s).unwrap();
        assert_eq!(got, vec![row(1, "a"), row(2, "b"), row(3, "c")]);

        let s = Box::new(Sort::new(input(rows), vec![(parse_expression("a").unwrap(), true)]).unwrap());
        let (_, got) = collect(s).unwrap();
        assert_eq!(got[0], row(3, "c"));
    }

    #[test]
    fn multi_key_with_mixed_direction() {
        let rows = vec![row(1, "z"), row(1, "a"), row(2, "m")];
        let keys = vec![
            (parse_expression("a").unwrap(), true),
            (parse_expression("b").unwrap(), false),
        ];
        let (_, got) = collect(Box::new(Sort::new(input(rows), keys).unwrap())).unwrap();
        assert_eq!(got, vec![row(2, "m"), row(1, "a"), row(1, "z")]);
    }

    #[test]
    fn sorts_by_expression() {
        let rows = vec![row(5, "x"), row(-10, "y"), row(2, "z")];
        // Sort by a*a: 4, 25, 100.
        let keys = vec![(parse_expression("a * a").unwrap(), false)];
        let (_, got) = collect(Box::new(Sort::new(input(rows), keys).unwrap())).unwrap();
        assert_eq!(got.iter().map(|r| r[0].as_i64().unwrap()).collect::<Vec<_>>(), vec![2, 5, -10]);
    }

    #[test]
    fn nulls_sort_first() {
        let rows = vec![row(2, "b"), vec![Value::Null, Value::Text("n".into())], row(1, "a")];
        let keys = vec![(parse_expression("a").unwrap(), false)];
        let (_, got) = collect(Box::new(Sort::new(input(rows), keys).unwrap())).unwrap();
        assert!(got[0][0].is_null());
    }

    #[test]
    fn empty_input() {
        let keys = vec![(parse_expression("a").unwrap(), false)];
        let (_, got) = collect(Box::new(Sort::new(input(vec![]), keys).unwrap())).unwrap();
        assert!(got.is_empty());
    }
}
