//! Test oracle for the executor: deliberately naive operators over
//! `Vec<Row>` — a page-at-a-time scan decoding every column of every row
//! into owned values, a nested-loop join, a linear-search group and a
//! stable sort — with every expression evaluated row-at-a-time by *name*
//! through unbound [`eval`]. Compiled under `#[cfg(test)]` only; the
//! batch operators' rows (float bits and order included), errors and
//! `PagerStats` deltas are checked against it (the role
//! `aes/bytewise.rs` plays for the cipher).
//!
//! The join and group here *define* the order contract the batch
//! operators keep: a join emits `build ‖ probe` rows in probe order and,
//! per probe row, build rows newest-first; groups come out in first-seen
//! order; the sort is stable.

use crate::ast::{AggFunc, Expr};
use crate::exec::{AggSpec, ScanSource};
use crate::expr::eval;
use crate::schema::{Row, Schema};
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;

/// Rows of `source` passing its predicate, projected through `exprs`.
pub(crate) fn scan(source: &ScanSource, exprs: &[Expr]) -> Result<Vec<Row>> {
    let schema = &source.schema;
    let mut out = Vec::new();
    for page in 0..source.heap.pages.len() {
        for row in source.heap.read_page_rows(&source.pager, page, schema.len())? {
            if let Some(p) = &source.pred {
                if !eval(p, schema, &row)?.is_truthy() {
                    continue;
                }
            }
            out.push(exprs.iter().map(|e| eval(e, schema, &row)).collect::<Result<_>>()?);
        }
    }
    Ok(out)
}

/// Every column of every row of `source` passing its predicate.
pub(crate) fn scan_all(source: &ScanSource) -> Result<Vec<Row>> {
    let all: Vec<Expr> =
        source.schema.columns.iter().map(|c| Expr::Column(c.name.clone())).collect();
    scan(source, &all)
}

/// Serial aggregation over [`scan_all`].
pub(crate) fn aggregate(
    source: &ScanSource,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
) -> Result<Vec<Row>> {
    group(&Rel { schema: source.schema.clone(), rows: scan_all(source)? }, group_exprs, aggs)
}

/// Rows under a schema.
#[derive(Debug, Clone)]
pub(crate) struct Rel {
    pub(crate) schema: Schema,
    pub(crate) rows: Vec<Row>,
}

fn key_bytes(exprs: &[&Expr], schema: &Schema, row: &Row) -> Result<Option<Vec<u8>>> {
    let mut key = Vec::new();
    for e in exprs {
        let v = eval(e, schema, row)?;
        if v.is_null() {
            return Ok(None);
        }
        v.key_bytes(&mut key);
    }
    Ok(Some(key))
}

/// Inner equi-join of `build` and `probe` on `keys` (pairs of a build-side
/// and a probe-side expression): for every probe row in order, every build
/// row **newest first** whose `Value::key_bytes` equal the probe row's —
/// NULL keys never match — as a `build ‖ probe` row.
pub(crate) fn join(build: &Rel, probe: &Rel, keys: &[(Expr, Expr)]) -> Result<Rel> {
    let (build_keys, probe_keys): (Vec<&Expr>, Vec<&Expr>) = keys.iter().map(|(b, p)| (b, p)).unzip();
    let mut rows = Vec::new();
    for p in &probe.rows {
        let Some(want) = key_bytes(&probe_keys, &probe.schema, p)? else { continue };
        for b in build.rows.iter().rev() {
            if key_bytes(&build_keys, &build.schema, b)?.as_ref() == Some(&want) {
                rows.push(b.iter().chain(p).cloned().collect());
            }
        }
    }
    // A key that cannot be evaluated fails the join even if the other
    // side is empty, as it does an operator that evaluates keys per batch.
    for b in &build.rows {
        key_bytes(&build_keys, &build.schema, b)?;
    }
    Ok(Rel { schema: build.schema.join(&probe.schema), rows })
}

/// Cross product, `left ‖ right`, in left order then right order.
pub(crate) fn cross(left: &Rel, right: &Rel) -> Rel {
    let pair = |l: &Row| right.rows.iter().map(|r| l.iter().chain(r).cloned().collect::<Row>()).collect::<Vec<_>>();
    Rel { schema: left.schema.join(&right.schema), rows: left.rows.iter().flat_map(pair).collect() }
}

/// The rows of `rel` on which `pred` is truthy.
pub(crate) fn filter(rel: &Rel, pred: &Expr) -> Result<Rel> {
    let mut rows = Vec::new();
    for row in &rel.rows {
        if eval(pred, &rel.schema, row)?.is_truthy() {
            rows.push(row.clone());
        }
    }
    Ok(Rel { schema: rel.schema.clone(), rows })
}

/// `exprs` evaluated on every row.
pub(crate) fn project(rel: &Rel, exprs: &[Expr]) -> Result<Vec<Row>> {
    rel.rows.iter().map(|row| exprs.iter().map(|e| eval(e, &rel.schema, row)).collect()).collect()
}

/// Stable sort by `keys` (`true` = descending) under `Value::sort_cmp`.
pub(crate) fn sort(rel: &mut Rel, keys: &[(Expr, bool)]) -> Result<()> {
    let mut keyed = Vec::new();
    for row in std::mem::take(&mut rel.rows) {
        let key: Vec<Value> = keys.iter().map(|(e, _)| eval(e, &rel.schema, &row)).collect::<Result<_>>()?;
        keyed.push((key, row));
    }
    keyed.sort_by(|(a, _), (b, _)| {
        let by_key = |(i, (_, desc)): (usize, &(Expr, bool))| {
            let ord = a[i].sort_cmp(&b[i]);
            if *desc {
                ord.reverse()
            } else {
                ord
            }
        };
        keys.iter().enumerate().map(by_key).find(|o| *o != Ordering::Equal).unwrap_or(Ordering::Equal)
    });
    rel.rows = keyed.into_iter().map(|(_, row)| row).collect();
    Ok(())
}

/// Group `rel` by `group_exprs` (groups found by linear search on their
/// key bytes, emitted in first-seen order; none = one global group even
/// over no rows) and compute `aggs` over each group's rows in row order.
pub(crate) fn group(rel: &Rel, group_exprs: &[Expr], aggs: &[AggSpec]) -> Result<Vec<Row>> {
    let mut groups: Vec<(Vec<u8>, Row, Vec<&Row>)> = Vec::new();
    if group_exprs.is_empty() {
        groups.push((Vec::new(), Vec::new(), Vec::new()));
    }
    for row in &rel.rows {
        let vals: Row = group_exprs.iter().map(|e| eval(e, &rel.schema, row)).collect::<Result<_>>()?;
        let mut key = Vec::new();
        vals.iter().for_each(|v| v.key_bytes(&mut key));
        match groups.iter_mut().find(|g| g.0 == key) {
            Some(g) => g.2.push(row),
            None => groups.push((key, vals, vec![row])),
        }
    }
    let mut out = Vec::new();
    for (_, mut row, members) in groups {
        for spec in aggs {
            row.push(aggregate_one(spec, &rel.schema, &members)?);
        }
        out.push(row);
    }
    Ok(out)
}

/// One aggregate over one group's rows: its non-NULL inputs in row order
/// (`COUNT(*)` counts rows), DISTINCT keeping the first of each key.
fn aggregate_one(spec: &AggSpec, schema: &Schema, rows: &[&Row]) -> Result<Value> {
    let mut inputs: Vec<Value> = Vec::new();
    let mut seen: Vec<Vec<u8>> = Vec::new();
    for row in rows {
        let v = match &spec.arg {
            None => Value::Int(1),
            Some(e) => eval(e, schema, row)?,
        };
        if v.is_null() {
            continue;
        }
        if spec.distinct {
            let mut key = Vec::new();
            v.key_bytes(&mut key);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
        }
        inputs.push(v);
    }
    let float_sum = || inputs.iter().try_fold(0.0, |sum, v| Ok::<_, crate::SqlError>(sum + v.as_f64()?));
    let extreme = |wins: Ordering| {
        let mut best: Option<&Value> = None;
        for v in &inputs {
            if best.is_none_or(|b| v.sort_cmp(b) == wins) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Value::Null)
    };
    Ok(match spec.func {
        AggFunc::Count => Value::Int(inputs.len() as i64),
        AggFunc::Sum if inputs.is_empty() => Value::Null,
        AggFunc::Sum if inputs.iter().all(|v| matches!(v, Value::Int(_))) => {
            let total: i128 = inputs.iter().map(|v| v.as_i64().expect("int") as i128).sum();
            Value::Int(i64::try_from(total).map_err(|_| crate::SqlError::Eval("integer overflow".into()))?)
        }
        AggFunc::Sum => Value::Float(float_sum()?),
        AggFunc::Avg if inputs.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(float_sum()? / inputs.len() as f64),
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::db::Database;
    use crate::encoded::EncodedRows;
    use crate::exec::morsel::DEFAULT_MORSEL_PAGES;
    use crate::exec::ExecOptions;
    use crate::parser::{parse_expression, parse_statement};
    use crate::schema::Column;
    use crate::value::DataType;
    use ironsafe_storage::pager::PlainPager;
    use proptest::prelude::*;

    fn expr(src: &str) -> Expr {
        parse_expression(src).unwrap()
    }

    fn exprs(srcs: &[&str]) -> Vec<Expr> {
        srcs.iter().map(|s| expr(s)).collect()
    }

    fn keys(pairs: &[(&str, &str)]) -> Vec<(Expr, Expr)> {
        pairs.iter().map(|(b, p)| (expr(b), expr(p))).collect()
    }

    fn spec(func: AggFunc, arg: Option<&str>, distinct: bool) -> AggSpec {
        AggSpec { func, arg: arg.map(expr), distinct, name: String::new() }
    }

    /// Three tables whose rows span several pages (a ~250-byte pad), with
    /// small key domains so both sides of a join hold duplicates:
    /// `a(ak INT, at TEXT, am mixed, av FLOAT)`, `b(bk FLOAT, bt TEXT, bm
    /// mixed, bv FLOAT)` — `bk` is integral or `.5`, so `ak = bk` unifies
    /// Int with integral Float — and `c(ck INT, ct TEXT, cv INT)`. Every
    /// key column is sometimes NULL; `am` / `bm` hold Int, Text or NULL
    /// from row to row, so they degrade to `Mixed` in a batch.
    fn schemas() -> [(&'static str, Schema); 3] {
        let table = |cols: &[(&str, DataType)]| {
            Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
        };
        use DataType::*;
        [
            ("a", table(&[("ak", Int), ("at", Text), ("am", Text), ("av", Float), ("apad", Text)])),
            ("b", table(&[("bk", Float), ("bt", Text), ("bm", Text), ("bv", Float), ("bpad", Text)])),
            ("c", table(&[("ck", Int), ("ct", Text), ("cv", Int), ("cpad", Text)])),
        ]
    }

    /// `s`, or NULL one time in four.
    fn nullable(s: impl Strategy<Value = Value>) -> impl Strategy<Value = Value> {
        (0u8..4, s).prop_map(|(null, v)| if null == 0 { Value::Null } else { v })
    }

    fn text_key() -> impl Strategy<Value = Value> {
        nullable((0usize..4).prop_map(|i| Value::Text(["", "x", "yy", "x "][i].to_string())))
    }

    fn mixed() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0i64..3).prop_map(Value::Int),
            (0i64..3).prop_map(|i| Value::Text(i.to_string())),
        ]
    }

    fn quarter() -> impl Strategy<Value = Value> {
        (-6i64..12).prop_map(|i| Value::Float(i as f64 * 0.25 + 0.1))
    }

    fn pad() -> Value {
        Value::Text("p".repeat(250))
    }

    fn a_row() -> impl Strategy<Value = Row> {
        (nullable((0i64..5).prop_map(Value::Int)), text_key(), mixed(), quarter())
            .prop_map(|(k, t, m, v)| vec![k, t, m, v, pad()])
    }

    fn b_row() -> impl Strategy<Value = Row> {
        (nullable((0i64..10).prop_map(|i| Value::Float(i as f64 * 0.5))), text_key(), mixed(), quarter())
            .prop_map(|(k, t, m, v)| vec![k, t, m, v, pad()])
    }

    fn c_row() -> impl Strategy<Value = Row> {
        (nullable((0i64..5).prop_map(Value::Int)), text_key(), (0i64..100).prop_map(Value::Int))
            .prop_map(|(k, t, v)| vec![k, t, v, pad()])
    }

    /// What the oracle computes for one statement shape, from the three
    /// base relations.
    type Reference = fn(&Rel, &Rel, &Rel) -> Result<Vec<Row>>;

    /// Statements and their references. The planner joins left-deep in
    /// FROM order, building over each newly joined table and probing with
    /// the running intermediate — so `FROM a, b` is `join(b, a)`.
    fn cases() -> Vec<(&'static str, Reference)> {
        vec![
            ("SELECT ak, bk, av, bv FROM a, b WHERE ak = bk", |a, b, _| {
                project(&join(b, a, &keys(&[("bk", "ak")]))?, &exprs(&["ak", "bk", "av", "bv"]))
            }),
            ("SELECT at, bt, ak, bv FROM a, b WHERE at = bt AND ak = bk", |a, b, _| {
                let j = join(b, a, &keys(&[("bt", "at"), ("bk", "ak")]))?;
                project(&j, &exprs(&["at", "bt", "ak", "bv"]))
            }),
            ("SELECT ak, am, bm, bv FROM a, b WHERE am = bm", |a, b, _| {
                project(&join(b, a, &keys(&[("bm", "am")]))?, &exprs(&["ak", "am", "bm", "bv"]))
            }),
            ("SELECT ak, bk FROM a, b WHERE ak = bk AND av < bv AND am <> bm", |a, b, _| {
                let j = join(b, a, &keys(&[("bk", "ak")]))?;
                project(&filter(&j, &expr("av < bv AND am <> bm"))?, &exprs(&["ak", "bk"]))
            }),
            ("SELECT ak, bk FROM a, b WHERE ak + 1 = bk * 2 AND av > 0.5 AND bt IS NOT NULL", |a, b, _| {
                let (a, b) = (filter(a, &expr("av > 0.5"))?, filter(b, &expr("bt IS NOT NULL"))?);
                project(&join(&b, &a, &keys(&[("bk * 2", "ak + 1")]))?, &exprs(&["ak", "bk"]))
            }),
            (
                "SELECT at, COUNT(*), SUM(av * bv), MIN(bt), AVG(bv), COUNT(DISTINCT bm) \
                 FROM a, b WHERE ak = bk GROUP BY at",
                |a, b, _| {
                    let aggs = [
                        spec(AggFunc::Count, None, false),
                        spec(AggFunc::Sum, Some("av * bv"), false),
                        spec(AggFunc::Min, Some("bt"), false),
                        spec(AggFunc::Avg, Some("bv"), false),
                        spec(AggFunc::Count, Some("bm"), true),
                    ];
                    group(&join(b, a, &keys(&[("bk", "ak")]))?, &exprs(&["at"]), &aggs)
                },
            ),
            ("SELECT SUM(av + bv), MAX(am) FROM a, b WHERE at = bt", |a, b, _| {
                let aggs = [spec(AggFunc::Sum, Some("av + bv"), false), spec(AggFunc::Max, Some("am"), false)];
                group(&join(b, a, &keys(&[("bt", "at")]))?, &[], &aggs)
            }),
            ("SELECT ak, ck, cv, bv FROM a, b, c WHERE ak = bk AND bt = ct", |a, b, c| {
                let j = join(c, &join(b, a, &keys(&[("bk", "ak")]))?, &keys(&[("ct", "bt")]))?;
                project(&j, &exprs(&["ak", "ck", "cv", "bv"]))
            }),
            (
                "SELECT ct, SUM(av) AS s, COUNT(DISTINCT bk) FROM a, b, c \
                 WHERE ak = bk AND ak = ck GROUP BY ct ORDER BY s DESC, ct",
                |a, b, c| {
                    let j = join(c, &join(b, a, &keys(&[("bk", "ak")]))?, &keys(&[("ck", "ak")]))?;
                    let aggs = [spec(AggFunc::Sum, Some("av"), false), spec(AggFunc::Count, Some("bk"), true)];
                    let grouped = group(&j, &exprs(&["ct"]), &aggs)?;
                    let schema = Schema::new(
                        ["ct", "s", "d"].iter().map(|n| Column::new(*n, DataType::Text)).collect(),
                    );
                    let mut rel = Rel { schema, rows: grouped };
                    sort(&mut rel, &[(expr("s"), true), (expr("ct"), false)])?;
                    Ok(rel.rows)
                },
            ),
            ("SELECT ak, ck, cv FROM a, c WHERE ak < ck AND cv > 20", |a, _, c| {
                let j = cross(a, &filter(c, &expr("cv > 20"))?);
                project(&filter(&j, &expr("ak < ck"))?, &exprs(&["ak", "ck", "cv"]))
            }),
            ("SELECT ak, bv FROM a, b WHERE ak = bk ORDER BY bv DESC, ak LIMIT 5", |a, b, _| {
                let mut j = join(b, a, &keys(&[("bk", "ak")]))?;
                sort(&mut j, &[(expr("bv"), true), (expr("ak"), false)])?;
                j.rows.truncate(5);
                project(&j, &exprs(&["ak", "bv"]))
            }),
            ("SELECT ak, bk, bt FROM a, b WHERE ak = bk LIMIT 3", |a, b, _| {
                let mut j = join(b, a, &keys(&[("bk", "ak")]))?;
                j.rows.truncate(3);
                project(&j, &exprs(&["ak", "bk", "bt"]))
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Planned statements over random two- and three-table inputs
        /// return exactly the oracle's rows — values bit for bit, in the
        /// oracle's order — or fail where it fails, whatever the morsel
        /// size and DOP (so both join inputs span many batches, or one).
        #[test]
        fn planned_joins_groups_and_sorts_match_the_naive_oracle(
            a in proptest::collection::vec(a_row(), 0..40),
            b in proptest::collection::vec(b_row(), 0..40),
            c in proptest::collection::vec(c_row(), 0..25),
        ) {
            let mut db = Database::new(PlainPager::new());
            let mut rels = Vec::new();
            for ((name, schema), rows) in schemas().into_iter().zip([a, b, c]) {
                db.create_table(name, schema.clone()).unwrap();
                db.insert_rows(name, rows.clone()).unwrap();
                rels.push(Rel { schema, rows });
            }
            for (sql, reference) in cases() {
                let Statement::Select(sel) = parse_statement(sql).unwrap() else { unreachable!() };
                let want = reference(&rels[0], &rels[1], &rels[2]);
                for morsel_pages in [1, DEFAULT_MORSEL_PAGES] {
                    for dop in [1, 3] {
                        let opts = ExecOptions { morsel_pages, oversubscribe: true, ..ExecOptions::with_dop(dop) };
                        match (db.select_with(&sel, &opts), &want) {
                            (Ok(got), Ok(want)) => prop_assert!(
                                EncodedRows::from_rows(got.rows()) == EncodedRows::from_rows(want),
                                "`{}` at {} pages/morsel, dop {}: {:?} vs oracle {:?}", sql, morsel_pages, dop, got.rows(), want
                            ),
                            (Err(_), Err(_)) => {}
                            (got, want) => prop_assert!(
                                false, "`{}` at {} pages/morsel, dop {}: {:?} vs oracle {:?}", sql, morsel_pages, dop, got, want
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_probe_row_matching_more_build_rows_than_a_batch_holds_sums_in_oracle_order() {
        // 5 000 build rows under one key: the probe row's matches span
        // five output batches, and the float SUM over them — not
        // associative — must add up in the oracle's order, newest first.
        let schema_d = Schema::new(vec![Column::new("dk", DataType::Int), Column::new("x", DataType::Float)]);
        let schema_p = Schema::new(vec![Column::new("pk", DataType::Int), Column::new("y", DataType::Float)]);
        let d: Vec<Row> = (0..5000)
            .map(|i| vec![Value::Int(1 + (i % 50 == 7) as i64), Value::Float(0.37 + i as f64 * 0.1)])
            .collect();
        let p: Vec<Row> = vec![
            vec![Value::Int(0), Value::Float(9.0)],
            vec![Value::Int(1), Value::Float(1.0 / 3.0)],
            vec![Value::Null, Value::Float(2.0)],
            vec![Value::Int(2), Value::Float(0.7)],
        ];
        let mut db = Database::new(PlainPager::new());
        db.create_table("d", schema_d.clone()).unwrap();
        db.create_table("p", schema_p.clone()).unwrap();
        db.insert_rows("d", d.clone()).unwrap();
        db.insert_rows("p", p.clone()).unwrap();
        let got = db.execute("SELECT SUM(x * y), COUNT(*) FROM p, d WHERE pk = dk").unwrap();

        let joined = join(&Rel { schema: schema_d, rows: d }, &Rel { schema: schema_p, rows: p }, &keys(&[("dk", "pk")])).unwrap();
        assert_eq!(joined.rows.len(), 5000);
        let aggs = [spec(AggFunc::Sum, Some("x * y"), false), spec(AggFunc::Count, None, false)];
        let want = group(&joined, &[], &aggs).unwrap();
        assert_eq!(EncodedRows::from_rows(got.rows()), EncodedRows::from_rows(&want));
        // The order matters: summed oldest-first the bits differ.
        let mut oldest_first = joined.clone();
        oldest_first.rows.reverse();
        let reversed = group(&oldest_first, &[], &aggs).unwrap();
        assert_ne!(EncodedRows::from_rows(&reversed), EncodedRows::from_rows(&want));
    }
}
