//! Join operators: hash join (equi) and nested-loop join (general).

use crate::ast::Expr;
use crate::exec::{bind_all, BoxOp, Operator};
use crate::expr::{bind, eval_bound, BoundExpr};
use crate::schema::{Row, Schema};
use crate::Result;
use std::collections::HashMap;

/// Inner hash join on equality keys.
///
/// Builds a hash table over the left input, then streams the right input,
/// emitting `left ‖ right` rows for every key match. NULL keys never match
/// (SQL semantics).
pub struct HashJoin {
    left: Option<BoxOp>,
    right: BoxOp,
    /// Keys as written, for `describe`.
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    /// The same keys, each side bound against its own input.
    left_bound: Vec<BoundExpr>,
    right_bound: Vec<BoundExpr>,
    schema: Schema,
    table: HashMap<Vec<u8>, Vec<Row>>,
    /// Matches pending for the current probe row.
    pending: Vec<Row>,
    pending_right: Option<Row>,
    emitted: u64,
}

impl HashJoin {
    /// Join `left` and `right` on `left_keys[i] = right_keys[i]`; each
    /// side's keys are bound against that side's schema.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
    ) -> Result<Self> {
        assert_eq!(left_keys.len(), right_keys.len());
        assert!(!left_keys.is_empty(), "hash join needs at least one key");
        let left_bound = bind_all(&left_keys, left.schema())?;
        let right_bound = bind_all(&right_keys, right.schema())?;
        let schema = left.schema().join(right.schema());
        Ok(HashJoin {
            left: Some(left),
            right,
            left_keys,
            right_keys,
            left_bound,
            right_bound,
            schema,
            table: HashMap::new(),
            pending: Vec::new(),
            pending_right: None,
            emitted: 0,
        })
    }

    /// Compute the hash key; `None` when any key value is NULL.
    fn key_of(exprs: &[BoundExpr], row: &Row) -> Result<Option<Vec<u8>>> {
        let mut key = Vec::with_capacity(exprs.len() * 9);
        for e in exprs {
            let v = eval_bound(e, row)?;
            if v.is_null() {
                return Ok(None);
            }
            v.key_bytes(&mut key);
        }
        Ok(Some(key))
    }

    fn build(&mut self) -> Result<()> {
        let mut left = self.left.take().expect("build called once");
        while let Some(row) = left.next()? {
            if let Some(key) = Self::key_of(&self.left_bound, &row)? {
                self.table.entry(key).or_default().push(row);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let keys: Vec<String> = self
            .left_keys
            .iter()
            .zip(self.right_keys.iter())
            .map(|(l, r)| format!("{} = {}", crate::ast::expr_to_sql(l), crate::ast::expr_to_sql(r)))
            .collect();
        format!("HashJoin: {}", keys.join(" AND "))
    }

    fn children(&self) -> Vec<&BoxOp> {
        let mut out = Vec::new();
        if let Some(l) = &self.left {
            out.push(l);
        }
        out.push(&self.right);
        out
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.left.is_some() {
            self.build()?;
        }
        loop {
            if let Some(l) = self.pending.pop() {
                let r = self.pending_right.as_ref().expect("pending implies probe row");
                let mut out = l;
                out.extend(r.iter().cloned());
                self.emitted += 1;
                return Ok(Some(out));
            }
            match self.right.next()? {
                None => return Ok(None),
                Some(r) => {
                    if let Some(key) = Self::key_of(&self.right_bound, &r)? {
                        if let Some(matches) = self.table.get(&key) {
                            self.pending = matches.clone();
                            self.pending_right = Some(r);
                        }
                    }
                }
            }
        }
    }
}

/// Nested-loop join with an arbitrary predicate (`None` = cross join).
///
/// Materializes the right input; used for the rare non-equi joins.
pub struct NestedLoopJoin {
    left: BoxOp,
    right_rows: Vec<Row>,
    schema: Schema,
    /// As written, for `describe`.
    predicate: Option<Expr>,
    bound: Option<BoundExpr>,
    current_left: Option<Row>,
    right_index: usize,
    emitted: u64,
}

impl NestedLoopJoin {
    /// Join `left` against materialized `right` under `predicate`, bound
    /// against the joined schema.
    pub fn new(left: BoxOp, mut right: BoxOp, predicate: Option<Expr>) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let bound = predicate.as_ref().map(|p| bind(p, &schema)).transpose()?;
        let mut right_rows = Vec::new();
        while let Some(r) = right.next()? {
            right_rows.push(r);
        }
        Ok(NestedLoopJoin {
            left,
            right_rows,
            schema,
            predicate,
            bound,
            current_left: None,
            right_index: 0,
            emitted: 0,
        })
    }
}

impl Operator for NestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        match &self.predicate {
            Some(p) => format!("NestedLoopJoin: {}", crate::ast::expr_to_sql(p)),
            None => format!("NestedLoopJoin: cross ({} right rows)", self.right_rows.len()),
        }
    }

    fn children(&self) -> Vec<&BoxOp> {
        vec![&self.left]
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if self.current_left.is_none() {
                self.current_left = self.left.next()?;
                self.right_index = 0;
                if self.current_left.is_none() {
                    return Ok(None);
                }
            }
            let l = self.current_left.as_ref().expect("set above");
            while self.right_index < self.right_rows.len() {
                let r = &self.right_rows[self.right_index];
                self.right_index += 1;
                let mut out = l.clone();
                out.extend(r.iter().cloned());
                let keep = match &self.bound {
                    None => true,
                    Some(p) => eval_bound(p, &out)?.is_truthy(),
                };
                if keep {
                    self.emitted += 1;
                    return Ok(Some(out));
                }
            }
            self.current_left = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::parser::parse_expression;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn orders() -> BoxOp {
        let schema = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_cust", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(3), Value::Int(10)],
            vec![Value::Int(4), Value::Null],
        ];
        Box::new(Values::new(schema, rows))
    }

    fn customers() -> BoxOp {
        let schema = Schema::new(vec![
            Column::new("c_id", DataType::Int),
            Column::new("c_name", DataType::Text),
        ]);
        let rows = vec![
            vec![Value::Int(10), Value::Text("alice".into())],
            vec![Value::Int(20), Value::Text("bob".into())],
            vec![Value::Int(30), Value::Text("carol".into())],
            vec![Value::Null, Value::Text("nobody".into())],
        ];
        Box::new(Values::new(schema, rows))
    }

    #[test]
    fn hash_join_matches_keys() {
        let j = HashJoin::new(
            customers(),
            orders(),
            vec![parse_expression("c_id").unwrap()],
            vec![parse_expression("o_cust").unwrap()],
        )
        .unwrap();
        let (schema, rows) = collect(Box::new(j)).unwrap();
        assert_eq!(schema.len(), 4);
        // alice matches orders 1 and 3; bob matches order 2; carol none.
        assert_eq!(rows.len(), 3);
        let mut names: Vec<String> = rows.iter().map(|r| r[1].as_str().unwrap().to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["alice", "alice", "bob"]);
    }

    #[test]
    fn null_keys_never_match() {
        let j = HashJoin::new(
            customers(),
            orders(),
            vec![parse_expression("c_id").unwrap()],
            vec![parse_expression("o_cust").unwrap()],
        )
        .unwrap();
        let (_, rows) = collect(Box::new(j)).unwrap();
        assert!(rows.iter().all(|r| !r[0].is_null() && !r[3].is_null()));
    }

    #[test]
    fn hash_join_empty_sides() {
        let empty_schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let empty = || Box::new(Values::new(empty_schema.clone(), vec![])) as BoxOp;
        let j = HashJoin::new(empty(), orders(), vec![parse_expression("x").unwrap()], vec![parse_expression("o_cust").unwrap()]).unwrap();
        assert!(collect(Box::new(j)).unwrap().1.is_empty());
        let j = HashJoin::new(customers(), empty(), vec![parse_expression("c_id").unwrap()], vec![parse_expression("x").unwrap()]).unwrap();
        assert!(collect(Box::new(j)).unwrap().1.is_empty());
    }

    #[test]
    fn nested_loop_cross_join() {
        let j = NestedLoopJoin::new(customers(), orders(), None).unwrap();
        let (_, rows) = collect(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 16);
    }

    #[test]
    fn nested_loop_with_inequality() {
        let pred = parse_expression("c_id < o_cust").unwrap();
        let j = NestedLoopJoin::new(customers(), orders(), Some(pred)).unwrap();
        let (_, rows) = collect(Box::new(j)).unwrap();
        // c_id=10 < o_cust=20 is the only pair (NULLs never compare).
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1].as_str().unwrap(), "alice");
    }

    #[test]
    fn composite_join_keys() {
        let s1 = Schema::new(vec![Column::new("a1", DataType::Int), Column::new("b1", DataType::Text)]);
        let s2 = Schema::new(vec![Column::new("a2", DataType::Int), Column::new("b2", DataType::Text)]);
        let l = Box::new(Values::new(
            s1,
            vec![
                vec![Value::Int(1), Value::Text("x".into())],
                vec![Value::Int(1), Value::Text("y".into())],
            ],
        ));
        let r = Box::new(Values::new(
            s2,
            vec![
                vec![Value::Int(1), Value::Text("x".into())],
                vec![Value::Int(2), Value::Text("x".into())],
            ],
        ));
        let j = HashJoin::new(
            l,
            r,
            vec![parse_expression("a1").unwrap(), parse_expression("b1").unwrap()],
            vec![parse_expression("a2").unwrap(), parse_expression("b2").unwrap()],
        )
        .unwrap();
        let (_, rows) = collect(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 1, "only (1, x) pairs");
    }
}
