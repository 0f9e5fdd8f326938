//! Join operators: hash join (equi) and nested-loop join (general), both
//! over column batches.

use crate::ast::Expr;
use crate::batch::{ColumnBatch, LaneVal};
use crate::exec::hash::{ChainIndex, KeyLane, HASH_SEED, NIL};
use crate::exec::{
    bind_all, count_live, gather_list, live_lanes, select_all, Batch, BoxOp, Operator, BATCH_ROWS,
};
use crate::expr::{bind, eval_vec, filter_vec, BoundExpr, VecScratch};
use crate::schema::Schema;
use crate::value::{RawValue, Value};
use crate::Result;

/// One side's join keys over one batch: a plain column reference reads
/// its lanes in place, anything else is evaluated once per batch.
struct KeyLanes {
    exprs: Vec<BoundExpr>,
    /// Per key: the evaluated vector, or empty for a column reference.
    computed: Vec<Vec<Value>>,
}

impl KeyLanes {
    fn new(exprs: Vec<BoundExpr>) -> Self {
        let computed = exprs.iter().map(|_| Vec::new()).collect();
        KeyLanes { exprs, computed }
    }

    /// Evaluate the computed keys over `input`.
    fn eval(&mut self, input: Batch<'_>, scratch: &mut VecScratch) -> Result<()> {
        for (e, vals) in self.exprs.iter().zip(&mut self.computed) {
            if !matches!(e, BoundExpr::Col(_)) {
                *vals = eval_vec(e, input.cols, input.sel, scratch)?;
            }
        }
        Ok(())
    }

    /// Key `k` of `lane` of the batch last [`KeyLanes::eval`]uated.
    fn lane<'a>(&'a self, cols: &'a ColumnBatch, k: usize, lane: usize) -> LaneVal<'a> {
        match &self.exprs[k] {
            BoundExpr::Col(c) => cols.lane(*c, lane),
            _ => LaneVal::of(&self.computed[k][lane]),
        }
    }

    /// The hash of `lane`'s keys, or `None` when one of them is NULL.
    fn hash(&self, cols: &ColumnBatch, lane: usize) -> Option<u64> {
        (0..self.exprs.len()).try_fold(HASH_SEED, |h, k| {
            let key = self.lane(cols, k, lane);
            (!key.is_null()).then(|| KeyLane::of(key).hash(h))
        })
    }
}

/// Inner hash join on equality keys.
///
/// The left input is the build side: on first pull its live lanes with
/// non-NULL keys are gathered into one column arena (its columns, then
/// one more per key that is not simply one of them, so a probe compares
/// lanes with lanes) under a [`ChainIndex`]. The right input is then
/// probed a batch at a time: every match is a (build row, probe lane)
/// pair, and the pairs of up to [`BATCH_ROWS`] matches are gathered,
/// column by column, into the `left ‖ right` output batch. NULL keys never match (SQL semantics);
/// key equality is that of `Value::key_bytes` (see [`KeyLane`]).
///
/// Output order is probe order and, per probe lane, build rows
/// newest-first. The next probe batch is pulled only once every match of
/// the current one has been emitted.
pub struct HashJoin {
    left: Option<BoxOp>,
    right: BoxOp,
    /// Keys as written, for `describe`.
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    /// The same keys, each side bound against its own input.
    build_keys: KeyLanes,
    probe_keys: KeyLanes,
    schema: Schema,
    /// Build rows: the left schema's columns, then the computed keys.
    arena: ColumnBatch,
    /// The arena column holding each build key.
    key_cols: Vec<usize>,
    index: ChainIndex,
    /// Where the probe of the current right batch resumes: the next lane,
    /// and the build row to continue that lane's chain from.
    probing: Option<(usize, u32)>,
    /// Matched (build row, probe lane) pairs of the batch being built.
    build_rows: Vec<u32>,
    probe_lanes: Vec<u32>,
    out: ColumnBatch,
    sel: Vec<bool>,
    scratch: VecScratch,
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
        let build_keys = KeyLanes::new(bind_all(&left_keys, left.schema())?);
        let probe_keys = KeyLanes::new(bind_all(&right_keys, right.schema())?);
        let schema = left.schema().join(right.schema());
        let mut arena_width = left.schema().len();
        let key_cols = build_keys
            .exprs
            .iter()
            .map(|e| match e {
                BoundExpr::Col(c) => *c,
                _ => {
                    arena_width += 1;
                    arena_width - 1
                }
            })
            .collect();
        Ok(HashJoin {
            arena: ColumnBatch::new(arena_width),
            key_cols,
            out: ColumnBatch::new(schema.len()),
            left: Some(left),
            right,
            left_keys,
            right_keys,
            build_keys,
            probe_keys,
            schema,
            index: ChainIndex::default(),
            probing: None,
            build_rows: Vec::new(),
            probe_lanes: Vec::new(),
            sel: Vec::new(),
            scratch: VecScratch::default(),
            emitted: 0,
        })
    }

    fn build(&mut self, mut left: BoxOp) -> Result<()> {
        let (keys, lanes) = (&mut self.build_keys, &mut self.probe_lanes);
        while left.next_batch()? {
            let input = left.batch();
            keys.eval(input, &mut self.scratch)?;
            lanes.clear();
            for lane in live_lanes(input.sel) {
                if let Some(h) = keys.hash(input.cols, lane) {
                    self.index.insert(h);
                    lanes.push(lane as u32);
                }
            }
            self.arena.gather_columns(0, input.cols, lanes);
            for (k, col) in self.key_cols.iter().enumerate() {
                if !matches!(keys.exprs[k], BoundExpr::Col(_)) {
                    let col = self.arena.column_mut(*col);
                    lanes.iter().for_each(|l| col.push(RawValue::of(&keys.computed[k][*l as usize])));
                }
            }
            self.arena.set_len(self.index.len());
        }
        Ok(())
    }

    /// Match lanes of the current probe batch, from where the last call
    /// stopped, until the batch is exhausted or the output batch is full.
    fn probe(&mut self, mut lane: usize, mut row: u32) {
        let input = self.right.batch();
        let keys = &self.probe_keys;
        let equal = |row: u32, lane: usize| {
            self.key_cols.iter().enumerate().all(|(k, col)| {
                KeyLane::of(self.arena.lane(*col, row as usize))
                    == KeyLane::of(keys.lane(input.cols, k, lane))
            })
        };
        self.build_rows.clear();
        self.probe_lanes.clear();
        self.probing = None;
        while lane < input.sel.len() {
            let hash = if input.sel[lane] { keys.hash(input.cols, lane) } else { None };
            if let Some(h) = hash {
                if row == NIL {
                    row = self.index.first(h);
                }
                loop {
                    row = self.index.matching(row, h);
                    if row == NIL {
                        break;
                    }
                    if self.build_rows.len() == BATCH_ROWS {
                        self.probing = Some((lane, row));
                        return;
                    }
                    if equal(row, lane) {
                        self.build_rows.push(row);
                        self.probe_lanes.push(lane as u32);
                    }
                    row = self.index.next(row);
                }
            }
            lane += 1;
            row = NIL;
        }
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

    fn next_batch(&mut self) -> Result<bool> {
        if let Some(left) = self.left.take() {
            self.build(left)?;
        }
        loop {
            let (lane, row) = match self.probing {
                Some(resume) => resume,
                None if self.right.next_batch()? => {
                    self.probe_keys.eval(self.right.batch(), &mut self.scratch)?;
                    (0, NIL)
                }
                None => return Ok(false),
            };
            self.probe(lane, row);
            if self.build_rows.is_empty() {
                continue;
            }
            let width = self.schema.len() - self.right.schema().len();
            self.out.clear();
            for c in 0..width {
                self.out.column_mut(c).gather(self.arena.column(c), &self.build_rows);
            }
            self.out.gather_columns(width, self.right.batch().cols, &self.probe_lanes);
            self.out.set_len(self.build_rows.len());
            select_all(&mut self.sel, self.build_rows.len());
            self.emitted += self.build_rows.len() as u64;
            return Ok(true);
        }
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: &self.out, sel: &self.sel }
    }
}

/// Nested-loop join with an arbitrary predicate (`None` = cross join).
///
/// Materializes the right input into a column arena on first pull; used
/// for the rare non-equi joins. Each output batch pairs one left lane
/// with a run of right rows, and the predicate (bound against the joined
/// schema) narrows its selection — so output order is left order and,
/// per left lane, right order.
pub struct NestedLoopJoin {
    left: BoxOp,
    /// The right input until it has been drained into `arena`.
    right: Option<BoxOp>,
    arena: ColumnBatch,
    schema: Schema,
    /// As written, for `describe`.
    predicate: Option<Expr>,
    bound: Option<BoundExpr>,
    /// Where pairing resumes: a lane of the current left batch and the
    /// next right row for it.
    pairing: Option<(usize, usize)>,
    lanes: Vec<u32>,
    out: ColumnBatch,
    sel: Vec<bool>,
    scratch: VecScratch,
    emitted: u64,
}

impl NestedLoopJoin {
    /// Join `left` against `right` (materialized when the join first
    /// runs) under `predicate`, bound against the joined schema.
    pub fn new(left: BoxOp, right: BoxOp, predicate: Option<Expr>) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let bound = predicate.as_ref().map(|p| bind(p, &schema)).transpose()?;
        Ok(NestedLoopJoin {
            arena: ColumnBatch::new(right.schema().len()),
            out: ColumnBatch::new(schema.len()),
            left,
            right: Some(right),
            schema,
            predicate,
            bound,
            pairing: None,
            lanes: Vec::new(),
            sel: Vec::new(),
            scratch: VecScratch::default(),
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
            None => "NestedLoopJoin: cross".to_string(),
        }
    }

    fn children(&self) -> Vec<&BoxOp> {
        std::iter::once(&self.left).chain(&self.right).collect()
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next_batch(&mut self) -> Result<bool> {
        if let Some(mut right) = self.right.take() {
            while right.next_batch()? {
                let input = right.batch();
                gather_list(input.sel, &mut self.lanes);
                self.arena.gather_columns(0, input.cols, &self.lanes);
                self.arena.set_len(self.arena.len() + self.lanes.len());
            }
        }
        let left_width = self.left.schema().len();
        loop {
            let (lane, from) = match self.pairing {
                Some(resume) => resume,
                None if self.left.next_batch()? => (0, 0),
                None => return Ok(false),
            };
            let input = self.left.batch();
            let Some(lane) = (lane..input.sel.len()).find(|l| input.sel[*l]) else {
                self.pairing = None;
                continue;
            };
            // Pair `lane` with the next run of right rows.
            let to = self.arena.len().min(from + BATCH_ROWS);
            self.pairing = Some(if to == self.arena.len() { (lane + 1, 0) } else { (lane, to) });
            self.out.clear();
            self.lanes.clear();
            self.lanes.resize(to - from, lane as u32);
            self.out.gather_columns(0, input.cols, &self.lanes);
            self.lanes.clear();
            self.lanes.extend(from as u32..to as u32);
            self.out.gather_columns(left_width, &self.arena, &self.lanes);
            self.out.set_len(to - from);
            select_all(&mut self.sel, to - from);
            if let Some(p) = &self.bound {
                filter_vec(p, &self.out, &mut self.sel, &mut self.scratch)?;
            }
            let kept = count_live(&self.sel);
            if kept > 0 {
                self.emitted += kept as u64;
                return Ok(true);
            }
        }
    }

    fn batch(&self) -> Batch<'_> {
        Batch { cols: &self.out, sel: &self.sel }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, RowCursor, Values};
    use crate::parser::parse_expression;
    use crate::schema::{Column, Row};
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

    fn one_column(name: &str, values: Vec<Value>) -> BoxOp {
        let schema = Schema::new(vec![Column::new(name, DataType::Int), Column::new(format!("{name}_row"), DataType::Int)]);
        let rows = values.into_iter().enumerate().map(|(i, v)| vec![v, Value::Int(i as i64)]).collect();
        Box::new(Values::new(schema, rows))
    }

    fn on(l: &str, r: &str) -> (Vec<Expr>, Vec<Expr>) {
        (vec![parse_expression(l).unwrap()], vec![parse_expression(r).unwrap()])
    }

    #[test]
    fn emits_in_probe_order_and_newest_build_row_first() {
        let build = one_column("b", [7, 3, 7, 9, 7, 3].map(Value::Int).to_vec());
        let probe = one_column("p", [3, 8, 7, 3].map(Value::Int).to_vec());
        let (l, r) = on("b", "p");
        let mut cursor = RowCursor::new(Box::new(HashJoin::new(build, probe, l, r).unwrap()));
        assert_eq!(cursor.op().children().len(), 2, "both inputs attached before the first pull");
        let pairs: Vec<(i64, i64)> = cursor
            .drain_rows()
            .unwrap()
            .iter()
            .map(|row| (row[3].as_i64().unwrap(), row[1].as_i64().unwrap()))
            .collect();
        // (probe row, build row): probe rows in order, and for each the
        // matching build rows from the last inserted to the first.
        assert_eq!(pairs, [(0, 5), (0, 1), (2, 4), (2, 2), (2, 0), (3, 5), (3, 1)]);
        assert_eq!(cursor.op().rows_out(), 7);
        assert_eq!(cursor.op().children().len(), 1, "the drained build side is gone");
    }

    #[test]
    fn key_equality_is_that_of_key_bytes() {
        let text = |s: &str| Value::Text(s.into());
        let build = vec![Value::Int(7), Value::Float(7.5), text("7"), Value::Null, Value::Float(-0.0), Value::Float(f64::NAN)];
        let probe = vec![Value::Float(7.0), Value::Int(7), text("7"), Value::Null, Value::Int(0), Value::Float(f64::NAN), Value::Float(7.5)];
        let (l, r) = on("b", "p");
        let j = HashJoin::new(one_column("b", build), one_column("p", probe), l, r).unwrap();
        let (_, rows) = collect(Box::new(j)).unwrap();
        let pairs: Vec<(i64, i64)> =
            rows.iter().map(|row| (row[3].as_i64().unwrap(), row[1].as_i64().unwrap())).collect();
        // 7.0 and 7 meet Int 7 (never the text '7'), text meets text,
        // NULL meets nothing, 0 meets -0.0, NaN meets the NaN of the same
        // bits, 7.5 meets 7.5: no pair raises a comparison error.
        assert_eq!(pairs, [(0, 0), (1, 0), (2, 2), (4, 4), (5, 5), (6, 1)]);
    }

    #[test]
    fn computed_keys_and_many_batches() {
        // 3 000 probe rows against 2 500 build rows on `b + 1 = p * 2`,
        // computed on both sides: every odd build row b meets probe row
        // (b + 1) / 2, and the 1 250 matches span two output batches.
        let build = one_column("b", (0..2500).map(Value::Int).collect());
        let probe = one_column("p", (0..3000).map(Value::Int).collect());
        let (l, r) = on("b + 1", "p * 2");
        let (_, rows) = collect(Box::new(HashJoin::new(build, probe, l, r).unwrap())).unwrap();
        assert_eq!(rows.len(), 1250);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!((&row[2], &row[0]), (&Value::Int(i as i64 + 1), &Value::Int(2 * i as i64 + 1)));
        }
    }

    #[test]
    fn nested_loop_pairs_across_batch_boundaries_in_left_then_right_order() {
        // 3 left rows against 2 500 right rows: each left row's pairs
        // span three output batches.
        let left = || one_column("l", [10, 20, 30].map(Value::Int).to_vec());
        let right = || one_column("r", (0..2500).map(Value::Int).collect());
        let (_, all) = collect(Box::new(NestedLoopJoin::new(left(), right(), None).unwrap())).unwrap();
        assert_eq!(all.len(), 7500);
        let want = |i: usize| -> Row {
            vec![Value::Int(10 * (i as i64 / 2500 + 1)), Value::Int(i as i64 / 2500), Value::Int(i as i64 % 2500), Value::Int(i as i64 % 2500)]
        };
        assert!(all.iter().enumerate().all(|(i, row)| *row == want(i)));
        let pred = parse_expression("l + 2000 < r OR r = l").unwrap();
        let mut cursor = RowCursor::new(Box::new(NestedLoopJoin::new(left(), right(), Some(pred)).unwrap()));
        assert_eq!(cursor.op().children().len(), 2, "the right input is not drained when the join is built");
        let kept = cursor.drain_rows().unwrap();
        let filtered: Vec<Row> =
            (0..7500).map(want).filter(|r| r[0].as_i64().unwrap() + 2000 < r[2].as_i64().unwrap() || r[0] == r[2]).collect();
        assert_eq!(kept, filtered);
        assert_eq!(cursor.op().rows_out(), 3 + 489 + 479 + 469);
        assert_eq!(cursor.op().children().len(), 1);
    }
}
