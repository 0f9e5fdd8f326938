//! Sort operator.

use crate::ast::Expr;
use crate::batch::ColumnBatch;
use crate::exec::{bind_all, gather_list, select_all, Batch, BoxOp, Operator, BATCH_ROWS};
use crate::expr::{BoundExpr, VecOp, VecScratch};
use crate::schema::Schema;
use crate::Result;
use std::cmp::Ordering;

/// Materializing sort over expression keys: the input's live lanes are
/// gathered into one column arena, the keys evaluated over it as
/// vectors, a permutation of the lanes sorted **stably** by them, and the
/// arena gathered back out through the permutation, [`BATCH_ROWS`] lanes
/// at a time.
pub struct Sort {
    input: Option<BoxOp>,
    schema: Schema,
    /// Keys as written (`true` = descending); the expressions are kept
    /// for `describe` only.
    keys: Vec<(Expr, bool)>,
    bound: Vec<BoundExpr>,
    arena: ColumnBatch,
    /// Arena lanes in output order, and how many have been emitted.
    order: Vec<u32>,
    emitted: usize,
    out: ColumnBatch,
    sel: Vec<bool>,
}

impl Sort {
    /// Sort `input` by `keys` (`true` = descending), bound against
    /// `input`'s schema.
    pub fn new(input: BoxOp, keys: Vec<(Expr, bool)>) -> Result<Self> {
        let schema = input.schema().clone();
        let bound = bind_all(keys.iter().map(|(e, _)| e), &schema)?;
        let (arena, out) = (ColumnBatch::new(schema.len()), ColumnBatch::new(schema.len()));
        Ok(Sort {
            input: Some(input),
            schema,
            keys,
            bound,
            arena,
            order: Vec::new(),
            emitted: 0,
            out,
            sel: Vec::new(),
        })
    }

    fn materialize(&mut self, mut input: BoxOp) -> Result<()> {
        let mut lanes = Vec::new();
        while input.next_batch()? {
            let batch = input.batch();
            gather_list(batch.sel, &mut lanes);
            self.arena.gather_columns(0, batch.cols, &lanes);
            self.arena.set_len(self.arena.len() + lanes.len());
        }
        let all = vec![true; self.arena.len()];
        let scratch = &mut VecScratch::default();
        let keys = self
            .bound
            .iter()
            .map(|e| VecOp::resolve(e, &self.arena, &all, scratch))
            .collect::<Result<Vec<_>>>()?;
        self.order = (0..self.arena.len() as u32).collect();
        self.order.sort_by(|a, b| {
            let by_key = |(key, (_, desc)): (&VecOp<'_>, &(Expr, bool))| {
                let ord = key.lane(*a as usize).sort_cmp(key.lane(*b as usize));
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            };
            keys.iter().zip(&self.keys).map(by_key).find(|ord| *ord != Ordering::Equal).unwrap_or(Ordering::Equal)
        });
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
        self.emitted as u64
    }

    fn next_batch(&mut self) -> Result<bool> {
        if let Some(input) = self.input.take() {
            self.materialize(input)?;
        }
        let chunk = &self.order[self.emitted..self.order.len().min(self.emitted + BATCH_ROWS)];
        let lanes = chunk.len();
        self.out.clear();
        self.out.gather_columns(0, &self.arena, chunk);
        self.out.set_len(lanes);
        select_all(&mut self.sel, lanes);
        self.emitted += lanes;
        Ok(lanes > 0)
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: &self.out, sel: &self.sel }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::parser::parse_expression;
    use crate::schema::{Column, Row};
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

    #[test]
    fn equal_keys_keep_input_order_across_output_batches() {
        // 3 000 rows under three key values: each key's rows come out in
        // the order they went in (the sort is stable), over three batches.
        let rows: Vec<Row> = (0..3000).map(|i| row(i % 3, &format!("{i:04}"))).collect();
        let keys = vec![(parse_expression("a").unwrap(), true)];
        let mut cursor = crate::exec::RowCursor::new(Box::new(Sort::new(input(rows), keys).unwrap()));
        let got = cursor.drain_rows().unwrap();
        let want: Vec<Row> =
            [2, 1, 0].iter().flat_map(|k| (0..3000).filter(move |i| i % 3 == *k).map(|i| row(i % 3, &format!("{i:04}")))).collect();
        assert_eq!(got, want);
        assert_eq!(cursor.op().rows_out(), 3000);
        assert!(cursor.op().children().is_empty(), "the drained input is gone");
    }
}
