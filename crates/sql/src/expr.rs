//! Expression evaluation.
//!
//! [`bind`] looks every column name up once, against the schema of
//! whatever feeds the expression, and product code runs one evaluator
//! over the resulting [`BoundExpr`]: [`eval_vec`] / [`eval_truth_vec`] /
//! [`filter_vec`], a column batch at a time — the scan kernel, every
//! operator above it and every DML statement, each binding its
//! expressions when it is built (`INSERT … VALUES` constants are a
//! one-lane batch with no columns).
//!
//! The row-at-a-time evaluators — one over a [`BoundExpr`], one over the
//! parsed [`Expr`] with names resolved per row — are compiled for tests
//! only (`mod scalar`, at the bottom), as the oracle for the vector
//! kernels. Operator semantics (arithmetic promotion,
//! built-in functions, `LIKE`, what a comparison operator holds for)
//! live in helpers both share.

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::schema::Schema;
use crate::value::Value;
use crate::{Result, SqlError};
use std::cmp::Ordering;

/// An [`Expr`] with every column reference pre-resolved to its row
/// index. Built by [`bind`], evaluated by [`eval_vec`].
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Column reference, resolved to a row index.
    Col(usize),
    /// Literal value.
    Literal(Value),
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<BoundExpr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound (inclusive).
        low: Box<BoundExpr>,
        /// Upper bound (inclusive).
        high: Box<BoundExpr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] IN (list…)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<BoundExpr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// The pattern (`%`/`_` wildcards).
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `CASE WHEN … THEN … [ELSE …] END`.
    Case {
        /// `(condition, result)` arms, tried in order.
        when_then: Vec<(BoundExpr, BoundExpr)>,
        /// `ELSE` result; `NULL` when absent.
        else_expr: Option<Box<BoundExpr>>,
    },
    /// Built-in scalar function call.
    Func {
        /// Function name (upper-case).
        name: String,
        /// Argument expressions.
        args: Vec<BoundExpr>,
    },
}

/// Resolve every column reference in `expr` against `schema`, producing
/// a [`BoundExpr`] that evaluates without per-row name lookups.
///
/// Errors on unknown or ambiguous columns and on aggregate calls, so a
/// bad name is rejected when the plan is built, whatever the data.
pub fn bind(expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Column(name) => BoundExpr::Col(schema.resolve(name)?),
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Unary { op, expr } => {
            BoundExpr::Unary { op: *op, expr: Box::new(bind(expr, schema)?) }
        }
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(bind(left, schema)?),
            right: Box::new(bind(right, schema)?),
        },
        Expr::Between { expr, low, high, negated } => BoundExpr::Between {
            expr: Box::new(bind(expr, schema)?),
            low: Box::new(bind(low, schema)?),
            high: Box::new(bind(high, schema)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(bind(expr, schema)?),
            list: list.iter().map(|e| bind(e, schema)).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => BoundExpr::Like {
            expr: Box::new(bind(expr, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(bind(expr, schema)?), negated: *negated }
        }
        Expr::Case { when_then, else_expr } => BoundExpr::Case {
            when_then: when_then
                .iter()
                .map(|(c, v)| Ok((bind(c, schema)?, bind(v, schema)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind(e, schema)?)),
                None => None,
            },
        },
        Expr::Func { name, args } => BoundExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| bind(a, schema)).collect::<Result<_>>()?,
        },
        Expr::Agg { .. } => {
            return Err(SqlError::Eval("aggregate outside aggregation context".into()))
        }
    })
}

/// Apply a unary operator to an already-evaluated operand.
fn unary_value(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            // -i64::MIN does not fit: REAL, as SQLite does.
            Value::Int(i) => Ok(i.checked_neg().map_or(Value::Float(-(i as f64)), Value::Int)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Eval(format!("cannot negate {other:?}"))),
        },
        UnaryOp::Not => {
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(!v.is_truthy() as i64))
            }
        }
    }
}

/// Does comparison operator `op` hold for ordering `ord`? Shared by the
/// vectorized comparison kernels and the test-only row evaluators, so the
/// two cannot disagree.
fn cmp_holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison operator"),
    }
}

/// Arithmetic over two non-NULL operands, viewed in place.
fn arith(op: BinOp, l: LaneVal<'_>, r: LaneVal<'_>) -> Result<Value> {
    // Int op Int stays Int (except division, which is exact only when
    // even). A result outside i64 is REAL, as in SQLite — never a wrapped
    // integer.
    if let (LaneVal::Int(a), LaneVal::Int(b)) = (l, r) {
        let (exact, approx) = match op {
            BinOp::Add => (a.checked_add(b), a as f64 + b as f64),
            BinOp::Sub => (a.checked_sub(b), a as f64 - b as f64),
            BinOp::Mul => (a.checked_mul(b), a as f64 * b as f64),
            BinOp::Div => {
                if b == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                // Not exact unless even; i64::MIN / -1 does not fit.
                (a.checked_rem(b).filter(|&r| r == 0).and_then(|_| a.checked_div(b)), a as f64 / b as f64)
            }
            BinOp::Mod => {
                if b == 0 {
                    return Err(SqlError::Eval("modulo by zero".into()));
                }
                // i64::MIN % -1 is 0, which fits.
                (Some(a.wrapping_rem(b)), 0.0)
            }
            _ => unreachable!(),
        };
        return Ok(exact.map_or(Value::Float(approx), Value::Int));
    }
    let a = l.as_f64()?;
    let b = r.as_f64()?;
    match op {
        BinOp::Add => Ok(Value::Float(a + b)),
        BinOp::Sub => Ok(Value::Float(a - b)),
        BinOp::Mul => Ok(Value::Float(a * b)),
        BinOp::Div => {
            if b == 0.0 {
                Err(SqlError::Eval("division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Err(SqlError::Eval("modulo by zero".into()))
            } else {
                Ok(Value::Float(a % b))
            }
        }
        _ => unreachable!(),
    }
}

/// Evaluate a built-in scalar function over already-evaluated arguments,
/// viewed in place (an owned value, a batch lane or a computed vector's
/// cell alike).
fn eval_func(name: &str, args: &[LaneVal<'_>]) -> Result<Value> {
    // NULL in, NULL out for every built-in.
    if args.iter().any(|a| a.is_null()) {
        return Ok(Value::Null);
    }
    match name {
        "SUBSTR" => {
            // SUBSTR(s, start [, len]) — 1-based start, char-wise.
            if args.len() != 2 && args.len() != 3 {
                return Err(SqlError::Eval("SUBSTR takes 2 or 3 arguments".into()));
            }
            let s = args[0].as_str()?;
            let start = args[1].as_i64()?.max(1) as usize - 1;
            let chars: Vec<char> = s.chars().collect();
            let end = match args.get(2) {
                Some(l) => (start + l.as_i64()?.max(0) as usize).min(chars.len()),
                None => chars.len(),
            };
            let start = start.min(chars.len());
            Ok(Value::Text(chars[start..end].iter().collect()))
        }
        "LENGTH" => {
            if args.len() != 1 {
                return Err(SqlError::Eval("LENGTH takes 1 argument".into()));
            }
            Ok(Value::Int(args[0].as_str()?.chars().count() as i64))
        }
        "YEAR" => {
            // YEAR('YYYY-MM-DD') — the four leading digits as an integer.
            if args.len() != 1 {
                return Err(SqlError::Eval("YEAR takes 1 argument".into()));
            }
            let s = args[0].as_str()?;
            let y: i64 = s
                .get(..4)
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| SqlError::Eval(format!("YEAR: `{s}` is not an ISO date")))?;
            Ok(Value::Int(y))
        }
        "ABS" => {
            if args.len() != 1 {
                return Err(SqlError::Eval("ABS takes 1 argument".into()));
            }
            match args[0] {
                LaneVal::Int(i) => Ok(Value::Int(i.abs())),
                v => Ok(Value::Float(v.as_f64()?.abs())),
            }
        }
        "ROUND" => {
            // ROUND(x [, digits])
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::Eval("ROUND takes 1 or 2 arguments".into()));
            }
            let x = args[0].as_f64()?;
            let digits = match args.get(1) {
                Some(d) => d.as_i64()?,
                None => 0,
            };
            let m = 10f64.powi(digits as i32);
            Ok(Value::Float((x * m).round() / m))
        }
        other => Err(SqlError::Eval(format!("unknown function `{other}`"))),
    }
}

/// SQL `LIKE` matcher: `%` matches any run, `_` matches one character.
/// Walks both strings in place (no per-call buffers: the scan kernel
/// calls this once per lane).
pub fn like_match(pattern: &str, text: &str) -> bool {
    like_rec(pattern.chars(), text.chars())
}

fn like_rec(mut p: std::str::Chars<'_>, mut t: std::str::Chars<'_>) -> bool {
    loop {
        match p.next() {
            None => return t.next().is_none(),
            Some('%') => {
                if p.as_str().is_empty() {
                    return true;
                }
                // Try the rest of the pattern at every suffix of the text.
                loop {
                    if like_rec(p.clone(), t.clone()) {
                        return true;
                    }
                    if t.next().is_none() {
                        return false;
                    }
                }
            }
            Some('_') => {
                if t.next().is_none() {
                    return false;
                }
            }
            Some(c) => {
                if t.next() != Some(c) {
                    return false;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized evaluation over column batches.
//
// [`eval_vec`] / [`eval_truth_vec`] run a [`BoundExpr`] over a whole
// [`ColumnBatch`] at a time, visiting only the lanes an `active` bitmap
// keeps live. Comparisons, BETWEEN, LIKE, IS NULL and IN over literals
// read column lanes in place (no `String` clone per text cell); AND/OR,
// `CASE` arms and `IN` items propagate shrinking active sets, so a
// sub-expression is only evaluated on the lanes where a row-at-a-time
// evaluator would have evaluated it and an error can only come from a
// lane that raises it there too; function arguments are evaluated as
// vectors and the built-in applied per lane to views of them — no row is
// materialized. Semantic helpers ([`cmp_holds`], [`unary_value`],
// [`arith`], `LaneVal::compare` ≡ `Value::compare`) are shared with the
// test-only row evaluators (`mod scalar`), so all of them agree
// value-for-value.

use crate::batch::{ColumnBatch, ColumnData, LaneVal};

/// Truth-vector byte: predicate is false for the lane.
pub const T_FALSE: u8 = 0;
/// Truth-vector byte: predicate is true for the lane.
pub const T_TRUE: u8 = 1;
/// Truth-vector byte: predicate is NULL (unknown) for the lane.
pub const T_NULL: u8 = 2;

fn truth_of(v: &Value) -> u8 {
    if v.is_null() {
        T_NULL
    } else if v.is_truthy() {
        T_TRUE
    } else {
        T_FALSE
    }
}

fn truth_if(holds: bool) -> u8 {
    if holds {
        T_TRUE
    } else {
        T_FALSE
    }
}

/// Free lists of the buffers the truth kernels work in. A scan keeps one
/// per worker and threads it through every morsel, so a predicate made
/// of comparisons, BETWEEN, LIKE, IS NULL, IN and AND/OR over columns
/// and literals allocates nothing once the lists are warm (computed
/// operands such as `a % 3` still build a value vector per morsel).
#[derive(Debug, Default)]
pub struct VecScratch {
    truth: Vec<Vec<u8>>,
    masks: Vec<Vec<bool>>,
}

impl VecScratch {
    /// A truth vector of `n` [`T_FALSE`] lanes.
    fn take_truth(&mut self, n: usize) -> Vec<u8> {
        let mut v = self.truth.pop().unwrap_or_default();
        v.clear();
        v.resize(n, T_FALSE);
        v
    }

    /// Hand a truth vector back once its lanes have been consumed.
    pub fn give_truth(&mut self, v: Vec<u8>) {
        self.truth.push(v);
    }
}

/// A resolved operand of a vectorized kernel: a borrowed column, a
/// broadcast constant, or a computed sub-expression vector. Operators
/// resolve their bound expressions to these once per batch and read
/// lanes through [`VecOp::lane`], so a plain column reference never
/// becomes a vector of owned values.
pub(crate) enum VecOp<'a> {
    Col(&'a ColumnData),
    Const(&'a Value),
    Owned(Vec<Value>),
}

impl<'a> VecOp<'a> {
    pub(crate) fn resolve(
        e: &'a BoundExpr,
        batch: &'a ColumnBatch,
        active: &[bool],
        scratch: &mut VecScratch,
    ) -> Result<VecOp<'a>> {
        Ok(match e {
            BoundExpr::Col(i) => VecOp::Col(batch.column(*i)),
            BoundExpr::Literal(v) => VecOp::Const(v),
            _ => VecOp::Owned(eval_vec(e, batch, active, scratch)?),
        })
    }

    pub(crate) fn lane(&self, i: usize) -> LaneVal<'_> {
        match self {
            VecOp::Col(c) => c.lane(i),
            VecOp::Const(v) => LaneVal::of(v),
            VecOp::Owned(v) => LaneVal::of(&v[i]),
        }
    }

    /// Append this operand's cells at `lanes` to `dst`.
    pub(crate) fn gather_into(&self, dst: &mut ColumnData, lanes: &[u32]) {
        match self {
            VecOp::Col(c) => dst.gather(c, lanes),
            _ => lanes.iter().for_each(|l| dst.push(self.lane(*l as usize).raw())),
        }
    }
}

fn incomparable(a: LaneVal<'_>, b: LaneVal<'_>) -> SqlError {
    SqlError::Eval(format!("cannot compare {:?} and {:?}", a.to_value(), b.to_value()))
}

/// Evaluate `e` as a predicate over `batch`, producing one truth byte
/// ([`T_FALSE`]/[`T_TRUE`]/[`T_NULL`]) per lane. Only lanes with
/// `active[i]` set are evaluated (inactive lanes report [`T_FALSE`] and
/// can never raise an error) — exactly the rows the scalar filter would
/// have reached. The returned vector comes from `scratch`; hand it back
/// with [`VecScratch::give_truth`] to keep the kernels allocation-free.
pub fn eval_truth_vec(
    e: &BoundExpr,
    batch: &ColumnBatch,
    active: &[bool],
    scratch: &mut VecScratch,
) -> Result<Vec<u8>> {
    let n = batch.len();
    debug_assert_eq!(active.len(), n);
    match e {
        BoundExpr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
            // The scalar evaluator skips the rhs only when the lhs
            // already decides the result (false for AND, true for OR);
            // replicate that with a shrunk active set so rhs errors
            // surface on exactly the same lanes.
            let decided = if *op == BinOp::And { T_FALSE } else { T_TRUE };
            let mut l = eval_truth_vec(left, batch, active, scratch)?;
            let mut rhs_active = scratch.masks.pop().unwrap_or_default();
            rhs_active.clear();
            rhs_active.extend((0..n).map(|i| active[i] && l[i] != decided));
            let r = eval_truth_vec(right, batch, &rhs_active, scratch);
            scratch.masks.push(rhs_active);
            let r = r?;
            for i in 0..n {
                l[i] = if !active[i] {
                    T_FALSE
                } else if l[i] == decided || r[i] == decided {
                    decided
                } else if l[i] == T_NULL || r[i] == T_NULL {
                    T_NULL
                } else {
                    T_TRUE - decided
                };
            }
            scratch.give_truth(r);
            Ok(l)
        }
        BoundExpr::Binary {
            op:
                op @ (BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq),
            left,
            right,
        } => {
            let l = VecOp::resolve(left, batch, active, scratch)?;
            let r = VecOp::resolve(right, batch, active, scratch)?;
            let mut out = scratch.take_truth(n);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                let (a, b) = (l.lane(i), r.lane(i));
                out[i] = if a.is_null() || b.is_null() {
                    T_NULL
                } else {
                    truth_if(cmp_holds(*op, a.compare(b).ok_or_else(|| incomparable(a, b))?))
                };
            }
            Ok(out)
        }
        BoundExpr::Between { expr, low, high, negated } => {
            let v = VecOp::resolve(expr, batch, active, scratch)?;
            let lo = VecOp::resolve(low, batch, active, scratch)?;
            let hi = VecOp::resolve(high, batch, active, scratch)?;
            let mut out = scratch.take_truth(n);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                let a = v.lane(i);
                // `between_values` semantics: NULL (never an error) when
                // either comparison is undefined.
                out[i] = match (a.compare(lo.lane(i)), a.compare(hi.lane(i))) {
                    (Some(x), Some(y)) => {
                        truth_if((x != Ordering::Less && y != Ordering::Greater) ^ negated)
                    }
                    _ => T_NULL,
                };
            }
            Ok(out)
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = VecOp::resolve(expr, batch, active, scratch)?;
            let mut out = scratch.take_truth(n);
            for i in 0..n {
                if active[i] && (v.lane(i).is_null() ^ negated) {
                    out[i] = T_TRUE;
                }
            }
            Ok(out)
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let v = VecOp::resolve(expr, batch, active, scratch)?;
            let mut out = scratch.take_truth(n);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                out[i] = match v.lane(i) {
                    LaneVal::Null => T_NULL,
                    LaneVal::Str(s) => truth_if(like_match(pattern, s) ^ negated),
                    other => {
                        return Err(SqlError::Eval(format!(
                            "LIKE needs text, got {:?}",
                            other.to_value()
                        )))
                    }
                };
            }
            Ok(out)
        }
        // `x IN (literal, …)` — `in_list_with` semantics without a value
        // per lane: NULL in, NULL out; incomparable items never match.
        BoundExpr::InList { expr, list, negated }
            if list.iter().all(|item| matches!(item, BoundExpr::Literal(_))) =>
        {
            let v = VecOp::resolve(expr, batch, active, scratch)?;
            let mut out = scratch.take_truth(n);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                let a = v.lane(i);
                out[i] = if a.is_null() {
                    T_NULL
                } else {
                    let found = list.iter().any(|item| match item {
                        BoundExpr::Literal(lit) => {
                            a.compare(LaneVal::of(lit)) == Some(Ordering::Equal)
                        }
                        _ => false,
                    });
                    truth_if(found ^ negated)
                };
            }
            Ok(out)
        }
        _ => {
            let vals = eval_vec(e, batch, active, scratch)?;
            let mut out = scratch.take_truth(n);
            for i in (0..n).filter(|i| active[*i]) {
                out[i] = truth_of(&vals[i]);
            }
            Ok(out)
        }
    }
}

/// Evaluate `e` to one [`Value`] per lane of `batch`, visiting only
/// `active` lanes (inactive lanes hold unspecified filler and must not
/// be read). Lane `i`'s value — and whether evaluation errors — is
/// identical to the test-only row evaluator's on row `i`.
pub fn eval_vec(
    e: &BoundExpr,
    batch: &ColumnBatch,
    active: &[bool],
    scratch: &mut VecScratch,
) -> Result<Vec<Value>> {
    let n = batch.len();
    debug_assert_eq!(active.len(), n);
    match e {
        BoundExpr::Col(idx) => Ok((0..n)
            .map(|i| if active[i] { batch.value_at(*idx, i) } else { Value::Null })
            .collect()),
        BoundExpr::Literal(v) => Ok(vec![v.clone(); n]),
        BoundExpr::Unary { op, expr } => {
            let mut vals = eval_vec(expr, batch, active, scratch)?;
            for (i, v) in vals.iter_mut().enumerate() {
                if active[i] {
                    *v = unary_value(*op, std::mem::replace(v, Value::Null))?;
                }
            }
            Ok(vals)
        }
        BoundExpr::Binary {
            op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod),
            left,
            right,
        } => {
            let l = VecOp::resolve(left, batch, active, scratch)?;
            let r = VecOp::resolve(right, batch, active, scratch)?;
            let mut out = vec![Value::Null; n];
            for (i, slot) in out.iter_mut().enumerate() {
                if !active[i] {
                    continue;
                }
                let (a, b) = (l.lane(i), r.lane(i));
                if !a.is_null() && !b.is_null() {
                    *slot = arith(*op, a, b)?;
                }
            }
            Ok(out)
        }
        // Predicate forms produce Int(0/1)/NULL — route through the
        // truth kernel and widen.
        BoundExpr::Binary { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::IsNull { .. }
        | BoundExpr::Like { .. } => {
            let truth = eval_truth_vec(e, batch, active, scratch)?;
            let out = truth
                .iter()
                .map(|&t| if t == T_NULL { Value::Null } else { Value::Int(t as i64) })
                .collect();
            scratch.give_truth(truth);
            Ok(out)
        }
        // `in_list_with` semantics: a NULL operand is NULL without looking
        // at the list, and an item is evaluated only on the lanes no
        // earlier item matched.
        BoundExpr::InList { expr, list, negated } => {
            let v = VecOp::resolve(expr, batch, active, scratch)?;
            let mut pending: Vec<bool> = (0..n).map(|i| active[i] && !v.lane(i).is_null()).collect();
            let mut out: Vec<Value> =
                pending.iter().map(|p| if *p { Value::Int(*negated as i64) } else { Value::Null }).collect();
            for item in list {
                let iv = VecOp::resolve(item, batch, &pending, scratch)?;
                for i in 0..n {
                    if pending[i] && v.lane(i).compare(iv.lane(i)) == Some(Ordering::Equal) {
                        pending[i] = false;
                        out[i] = Value::Int(!*negated as i64);
                    }
                }
            }
            Ok(out)
        }
        // `case_with` semantics: an arm's condition is evaluated on the
        // lanes no earlier arm took, its result on the lanes it takes.
        BoundExpr::Case { when_then, else_expr } => {
            let mut out = vec![Value::Null; n];
            let mut rest = active.to_vec();
            let mut take = vec![false; n];
            for (cond, val) in when_then {
                let truth = eval_truth_vec(cond, batch, &rest, scratch)?;
                for i in 0..n {
                    take[i] = rest[i] && truth[i] == T_TRUE;
                    rest[i] &= !take[i];
                }
                scratch.give_truth(truth);
                move_lanes(eval_vec(val, batch, &take, scratch)?, &take, &mut out);
            }
            if let Some(e) = else_expr {
                move_lanes(eval_vec(e, batch, &rest, scratch)?, &rest, &mut out);
            }
            Ok(out)
        }
        BoundExpr::Func { name, args } => {
            let ops = args
                .iter()
                .map(|a| VecOp::resolve(a, batch, active, scratch))
                .collect::<Result<Vec<_>>>()?;
            let mut out = vec![Value::Null; n];
            let mut lanes = Vec::with_capacity(ops.len());
            for (i, slot) in out.iter_mut().enumerate() {
                if active[i] {
                    lanes.clear();
                    lanes.extend(ops.iter().map(|op| op.lane(i)));
                    *slot = eval_func(name, &lanes)?;
                }
            }
            Ok(out)
        }
    }
}

/// Move the `lanes` of `from` into `out`.
fn move_lanes(from: Vec<Value>, lanes: &[bool], out: &mut [Value]) {
    for ((v, slot), _) in from.into_iter().zip(out).zip(lanes).filter(|(_, take)| **take) {
        *slot = v;
    }
}

/// Apply predicate `pred` to `batch`, clearing every selection lane the
/// predicate does not evaluate to true on (NULL drops the row, matching
/// the scalar filter's `is_truthy` test).
pub fn filter_vec(
    pred: &BoundExpr,
    batch: &ColumnBatch,
    sel: &mut [bool],
    scratch: &mut VecScratch,
) -> Result<()> {
    let truth = eval_truth_vec(pred, batch, sel, scratch)?;
    for (s, t) in sel.iter_mut().zip(&truth) {
        *s = *s && *t == T_TRUE;
    }
    scratch.give_truth(truth);
    Ok(())
}

#[cfg(test)]
pub(crate) use scalar::{eval, eval_bound};

/// The row-at-a-time evaluators, compiled for tests only: the reference
/// [`eval_vec`] and [`filter_vec`] are property-tested against (and what
/// the DML oracle, `crate::db::oracle`, runs). They share `unary_value`,
/// `arith`, `cmp_holds`, `eval_func` and `like_match` with the vector
/// kernels, so what they check is the kernels' lane bookkeeping — active
/// sets, short-circuits, which lane an error belongs to.
#[cfg(test)]
mod scalar {
    use super::*;
    use crate::schema::Row;

    /// Evaluate a [`BoundExpr`] against `row`: a column is `row[idx]`, no
    /// name is looked up.
    pub(crate) fn eval_bound(expr: &BoundExpr, row: &Row) -> Result<Value> {
        let ev = |e: &BoundExpr| eval_bound(e, row);
        match expr {
            BoundExpr::Col(idx) => Ok(row[*idx].clone()),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Unary { op, expr } => unary_value(*op, ev(expr)?),
            BoundExpr::Binary { op, left, right } => eval_binary_with(*op, &**left, &**right, &ev),
            BoundExpr::Between { expr, low, high, negated } => {
                Ok(between_values(ev(expr)?, ev(low)?, ev(high)?, *negated))
            }
            BoundExpr::InList { expr, list, negated } => in_list_with(ev(expr)?, list, *negated, &ev),
            BoundExpr::Like { expr, pattern, negated } => like_value(ev(expr)?, pattern, *negated),
            BoundExpr::IsNull { expr, negated } => {
                Ok(Value::Int((ev(expr)?.is_null() ^ negated) as i64))
            }
            BoundExpr::Case { when_then, else_expr } => {
                case_with(when_then, else_expr.as_deref(), &ev)
            }
            BoundExpr::Func { name, args } => {
                eval_func_owned(name, &args.iter().map(ev).collect::<Result<Vec<_>>>()?)
            }
        }
    }

    /// Binary operator over lazily-evaluated operands — `AND`/`OR` apply SQL
    /// three-valued logic with short-circuiting; everything else evaluates
    /// both sides and defers to [`binary_values`]. Generic over the node
    /// type so [`eval_bound`] and the unbound test oracle share one
    /// implementation.
    fn eval_binary_with<E>(
        op: BinOp,
        left: &E,
        right: &E,
        ev: &impl Fn(&E) -> Result<Value>,
    ) -> Result<Value> {
        match op {
            BinOp::And => {
                let l = ev(left)?;
                if !l.is_null() && !l.is_truthy() {
                    return Ok(Value::Int(0));
                }
                let r = ev(right)?;
                if !r.is_null() && !r.is_truthy() {
                    return Ok(Value::Int(0));
                }
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(1))
            }
            BinOp::Or => {
                let l = ev(left)?;
                if !l.is_null() && l.is_truthy() {
                    return Ok(Value::Int(1));
                }
                let r = ev(right)?;
                if !r.is_null() && r.is_truthy() {
                    return Ok(Value::Int(1));
                }
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(0))
            }
            _ => binary_values(op, ev(left)?, ev(right)?),
        }
    }

    /// Non-logical binary operator over already-evaluated operands.
    fn binary_values(op: BinOp, l: Value, r: Value) -> Result<Value> {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                arith(op, LaneVal::of(&l), LaneVal::of(&r))
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let ord = l
                    .compare(&r)
                    .ok_or_else(|| SqlError::Eval(format!("cannot compare {l:?} and {r:?}")))?;
                Ok(Value::Int(cmp_holds(op, ord) as i64))
            }
            BinOp::And | BinOp::Or => unreachable!("short-circuited by eval_binary_with"),
        }
    }

    /// `BETWEEN` over already-evaluated operands (NULL if any side is
    /// incomparable).
    fn between_values(v: Value, lo: Value, hi: Value, negated: bool) -> Value {
        match (v.compare(&lo), v.compare(&hi)) {
            (Some(a), Some(b)) => {
                let inside = a != Ordering::Less && b != Ordering::Greater;
                Value::Int((inside ^ negated) as i64)
            }
            _ => Value::Null,
        }
    }

    /// `IN (list…)` with short-circuit on the first match; generic over the
    /// node type for the same reason as [`eval_binary_with`].
    fn in_list_with<E>(
        v: Value,
        list: &[E],
        negated: bool,
        ev: &impl Fn(&E) -> Result<Value>,
    ) -> Result<Value> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        let mut found = false;
        for item in list {
            let iv = ev(item)?;
            if v.compare(&iv) == Some(Ordering::Equal) {
                found = true;
                break;
            }
        }
        Ok(Value::Int((found ^ negated) as i64))
    }

    /// `LIKE` over an already-evaluated operand.
    fn like_value(v: Value, pattern: &str, negated: bool) -> Result<Value> {
        match v {
            Value::Null => Ok(Value::Null),
            Value::Text(s) => Ok(Value::Int((like_match(pattern, &s) ^ negated) as i64)),
            other => Err(SqlError::Eval(format!("LIKE needs text, got {other:?}"))),
        }
    }

    /// `CASE` with lazily-evaluated arms.
    fn case_with<E>(
        when_then: &[(E, E)],
        else_expr: Option<&E>,
        ev: &impl Fn(&E) -> Result<Value>,
    ) -> Result<Value> {
        for (cond, val) in when_then {
            if ev(cond)?.is_truthy() {
                return ev(val);
            }
        }
        match else_expr {
            Some(e) => ev(e),
            None => Ok(Value::Null),
        }
    }

    /// [`eval_func`] over owned arguments (the row evaluators).
    fn eval_func_owned(name: &str, args: &[Value]) -> Result<Value> {
        eval_func(name, &args.iter().map(LaneVal::of).collect::<Vec<_>>())
    }

    /// Evaluate the unbound `expr` against `row`, resolving column names
    /// through `schema` on every call. Aggregate calls are not valid here,
    /// as in [`bind`].
    pub(crate) fn eval(expr: &Expr, schema: &Schema, row: &Row) -> Result<Value> {
        let ev = |e: &Expr| eval(e, schema, row);
        match expr {
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(row[idx].clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Unary { op, expr } => unary_value(*op, ev(expr)?),
            Expr::Binary { op, left, right } => eval_binary_with(*op, &**left, &**right, &ev),
            Expr::Between { expr, low, high, negated } => {
                Ok(between_values(ev(expr)?, ev(low)?, ev(high)?, *negated))
            }
            Expr::InList { expr, list, negated } => in_list_with(ev(expr)?, list, *negated, &ev),
            Expr::Like { expr, pattern, negated } => like_value(ev(expr)?, pattern, *negated),
            Expr::IsNull { expr, negated } => Ok(Value::Int((ev(expr)?.is_null() ^ negated) as i64)),
            Expr::Case { when_then, else_expr } => case_with(when_then, else_expr.as_deref(), &ev),
            Expr::Func { name, args } => {
                eval_func_owned(name, &args.iter().map(ev).collect::<Result<Vec<_>>>()?)
            }
            Expr::Agg { .. } => Err(SqlError::Eval("aggregate outside aggregation context".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use crate::schema::{Column, Row};
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("n", DataType::Int),
        ])
    }

    fn row() -> Row {
        vec![Value::Int(10), Value::Float(2.5), Value::Text("hello".into()), Value::Null]
    }

    fn run(src: &str) -> Value {
        eval(&parse_expression(src).unwrap(), &schema(), &row()).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("a + 5"), Value::Int(15));
        assert_eq!(run("a * b"), Value::Float(25.0));
        assert_eq!(run("a / 4"), Value::Float(2.5));
        assert_eq!(run("a / 5"), Value::Int(2));
        assert_eq!(run("a % 3"), Value::Int(1));
        assert_eq!(run("-a"), Value::Int(-10));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = parse_expression("a / 0").unwrap();
        assert!(eval(&e, &schema(), &row()).is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(run("a = 10"), Value::Int(1));
        assert_eq!(run("a <> 10"), Value::Int(0));
        assert_eq!(run("b < 3"), Value::Int(1));
        assert_eq!(run("s = 'hello'"), Value::Int(1));
        assert_eq!(run("s < 'world'"), Value::Int(1));
    }

    #[test]
    fn null_propagation() {
        assert!(run("n + 1").is_null());
        assert!(run("n = n").is_null());
        assert!(run("NOT n").is_null());
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
        assert_eq!(run("n = 1 AND a = 99"), Value::Int(0));
        assert!(run("n = 1 AND a = 10").is_null());
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
        assert_eq!(run("n = 1 OR a = 10"), Value::Int(1));
        assert!(run("n = 1 OR a = 99").is_null());
    }

    #[test]
    fn between_in() {
        assert_eq!(run("a BETWEEN 5 AND 15"), Value::Int(1));
        assert_eq!(run("a BETWEEN 11 AND 15"), Value::Int(0));
        assert_eq!(run("a NOT BETWEEN 11 AND 15"), Value::Int(1));
        assert_eq!(run("a IN (1, 10, 100)"), Value::Int(1));
        assert_eq!(run("a NOT IN (1, 10, 100)"), Value::Int(0));
        assert_eq!(run("s IN ('x', 'hello')"), Value::Int(1));
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(run("n IS NULL"), Value::Int(1));
        assert_eq!(run("n IS NOT NULL"), Value::Int(0));
        assert_eq!(run("a IS NULL"), Value::Int(0));
    }

    #[test]
    fn case_expr() {
        assert_eq!(run("CASE WHEN a = 10 THEN 'ten' ELSE 'other' END"), Value::Text("ten".into()));
        assert_eq!(run("CASE WHEN a = 11 THEN 'x' END"), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("h%", "hello"));
        assert!(like_match("%llo", "hello"));
        assert!(like_match("%ell%", "hello"));
        assert!(like_match("h_llo", "hello"));
        assert!(like_match("%", ""));
        assert!(!like_match("h_llo", "hllo"));
        assert!(!like_match("hello", "hell"));
        assert!(!like_match("", "x"));
        assert!(like_match("%%x%%", "aaxbb"));
    }

    #[test]
    fn like_in_sql() {
        assert_eq!(run("s LIKE 'hel%'"), Value::Int(1));
        assert_eq!(run("s NOT LIKE '%z%'"), Value::Int(1));
    }

    #[test]
    fn aggregate_outside_context_errors() {
        let e = parse_expression("SUM(a)").unwrap();
        assert!(eval(&e, &schema(), &row()).is_err());
    }

    #[test]
    fn date_comparison_as_text() {
        let schema = Schema::new(vec![Column::new("d", DataType::Text)]);
        let row = vec![Value::Text("1995-06-17".into())];
        let e = parse_expression("d BETWEEN '1995-01-01' AND '1995-12-31'").unwrap();
        assert_eq!(eval(&e, &schema, &row).unwrap(), Value::Int(1));
    }

    /// The two test-only row evaluators agree — which is what lets
    /// either serve as the reference for `eval_vec`, the one evaluator
    /// the release build ships (`vec_tests`).
    #[test]
    fn bound_eval_matches_tree_eval_on_every_form() {
        // One expression per variant family, evaluated both ways over
        // rows covering NULLs, negatives and text.
        let exprs = [
            "a + 5 * b - 2",
            "-a % 3",
            "a / 4",
            "n + 1",
            "NOT (a = 10)",
            "n = 1 AND a = 10",
            "n = 1 OR a = 99",
            "a BETWEEN 5 AND 15",
            "n BETWEEN 1 AND 2",
            "a NOT IN (1, 10, 100)",
            "n IN (1, 2)",
            "s LIKE 'hel%'",
            "s NOT LIKE '%z%'",
            "n IS NULL",
            "s IS NOT NULL",
            "CASE WHEN a > 5 THEN s ELSE 'small' END",
            "CASE WHEN a > 99 THEN 'big' END",
            "SUBSTR(s, 2, 3)",
            "LENGTH(s)",
            "ABS(0 - a)",
            "ROUND(b * 1.337, 2)",
        ];
        let schema = schema();
        let rows = [
            row(),
            vec![Value::Int(-3), Value::Float(0.0), Value::Text("zz".into()), Value::Int(7)],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ];
        for src in exprs {
            let e = parse_expression(src).unwrap();
            let b = bind(&e, &schema).unwrap();
            for r in &rows {
                let tree = eval(&e, &schema, r);
                let bound = eval_bound(&b, r);
                match (tree, bound) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "`{src}` diverged on {r:?}"),
                    (Err(_), Err(_)) => {}
                    (t, b) => panic!("`{src}` on {r:?}: tree {t:?} vs bound {b:?}"),
                }
            }
        }
    }

    #[test]
    fn bind_rejects_unknown_columns_and_aggregates() {
        let schema = schema();
        assert!(bind(&parse_expression("missing + 1").unwrap(), &schema).is_err());
        assert!(bind(&parse_expression("SUM(a)").unwrap(), &schema).is_err());
    }
}

#[cfg(test)]
mod func_tests {
    use super::*;
    use crate::parser::parse_expression;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn run(src: &str) -> Value {
        let schema = Schema::new(vec![Column::new("d", DataType::Text), Column::new("x", DataType::Float)]);
        let row = vec![Value::Text("1995-06-17".into()), Value::Float(-2.7173)];
        eval(&parse_expression(src).unwrap(), &schema, &row).unwrap()
    }

    #[test]
    fn year_extracts_leading_digits() {
        assert_eq!(run("YEAR(d)"), Value::Int(1995));
    }

    #[test]
    fn substr_is_one_based_and_clamped() {
        assert_eq!(run("SUBSTR(d, 1, 4)"), Value::Text("1995".into()));
        assert_eq!(run("SUBSTR(d, 6, 2)"), Value::Text("06".into()));
        assert_eq!(run("SUBSTR(d, 9)"), Value::Text("17".into()));
        assert_eq!(run("SUBSTR(d, 100, 5)"), Value::Text(String::new()));
    }

    #[test]
    fn length_abs_round() {
        assert_eq!(run("LENGTH(d)"), Value::Int(10));
        assert_eq!(run("ABS(x)"), Value::Float(2.7173));
        assert_eq!(run("ROUND(x, 2)"), Value::Float(-2.72));
        assert_eq!(run("ROUND(x)"), Value::Float(-3.0));
        assert_eq!(run("ABS(0 - 5)"), Value::Int(5));
    }

    #[test]
    fn null_propagates_through_functions() {
        let schema = Schema::new(vec![Column::new("n", DataType::Text)]);
        let row = vec![Value::Null];
        let v = eval(&parse_expression("YEAR(n)").unwrap(), &schema, &row).unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn unknown_function_rejected_at_parse() {
        // Unknown names parse as column refs and fail resolution later;
        // known-but-misused arities fail at eval.
        let schema = Schema::new(vec![Column::new("d", DataType::Text)]);
        let row = vec![Value::Text("x".into())];
        assert!(eval(&parse_expression("SUBSTR(d)").unwrap(), &schema, &row).is_err());
    }

    #[test]
    fn functions_inside_aggregates_via_db() {
        use crate::db::Database;
        use ironsafe_storage::pager::PlainPager;
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (d DATE, v FLOAT)").unwrap();
        db.execute("INSERT INTO t VALUES ('1995-01-01', 10.0), ('1995-06-01', 20.0), ('1996-01-01', 40.0)").unwrap();
        let r = db
            .execute("SELECT YEAR(d) AS y, SUM(v) FROM t GROUP BY YEAR(d) ORDER BY y")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][0], Value::Int(1995));
        assert_eq!(r.rows()[0][1], Value::Float(30.0));
    }
}

#[cfg(test)]
mod vec_tests {
    use super::*;
    use crate::batch::ColumnBatch;
    use crate::parser::parse_expression;
    use crate::schema::{Column, Row, Schema};
    use crate::value::{encode_value, DataType};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("n", DataType::Int),
        ])
    }

    /// Expressions covering every `BoundExpr` form, including ones that
    /// can error (division by zero, LIKE on non-text, incomparable
    /// types) on some rows.
    const EXPRS: &[&str] = &[
        "a + 5 * b - 2",
        "-a % 3",
        "a / 4",
        "a / n",
        "b * b",
        "n + 1",
        "NOT (a = 10)",
        "a = 10",
        "s <> 'hello'",
        "a < b OR s = 'zz'",
        "n = 1 AND a = 10",
        "n = 1 AND s = 'nope'",
        "n = 1 OR a = 99",
        "a > 0 AND 10 / a > 0",
        "a = 0 OR 10 / a > 0",
        "s = a",
        "a BETWEEN 5 AND 15",
        "b BETWEEN n AND 100",
        "s BETWEEN 'a' AND 'm'",
        "a NOT BETWEEN 11 AND 15",
        "a IN (1, 10, 100)",
        "s IN ('x', 'hello')",
        "n NOT IN (1, 2)",
        "s LIKE 'hel%'",
        "s NOT LIKE '%z%'",
        "b LIKE 'x%'",
        "n IS NULL",
        "s IS NOT NULL",
        "CASE WHEN a > 5 THEN s ELSE 'small' END",
        "CASE WHEN a > 99 THEN 'big' END",
        "SUBSTR(s, 2, 3)",
        "LENGTH(s)",
        "ABS(0 - a)",
        "ROUND(b * 1.337, 2)",
        "YEAR(s)",
        // Functions, CASE and IN over computed arguments, some of which
        // fail on some rows.
        "ABS(10 / a)",
        "ROUND(b / n, 1)",
        "SUBSTR(s, a % 3, 10 / n)",
        "YEAR(SUBSTR(s, 1, 4))",
        "LENGTH(CASE WHEN a > 0 THEN s ELSE b END)",
        "CASE WHEN 10 / a > 1 THEN s WHEN n IS NULL THEN LENGTH(s) ELSE 10 / n END",
        "CASE WHEN n IS NULL THEN 0 WHEN a > 0 THEN 10 / n ELSE YEAR(s) END",
        "CASE WHEN s LIKE 'h%' THEN a / 2 END + 1",
        "a IN (n, 10 / a, 3)",
        "b NOT IN (a, n / a)",
    ];

    fn batch_of(rows: &[Row]) -> ColumnBatch {
        let mut payload = Vec::new();
        let mut batch = ColumnBatch::new(4);
        for row in rows {
            payload.clear();
            for v in row {
                encode_value(v, &mut payload);
            }
            let mut pos = 0;
            for c in 0..row.len() {
                let raw = crate::value::decode_value_raw(&payload, &mut pos).unwrap();
                batch.push_cell(c, raw);
            }
            batch.finish_row().unwrap();
        }
        batch
    }

    fn bits(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        out
    }

    /// Core equivalence check: on every active lane, `eval_vec` must
    /// produce the bit-identical value `eval_bound` produces on the
    /// materialized row — and if any active lane errors under the
    /// scalar evaluator, the vectorized call must error too. An error
    /// belongs to its lane: evaluating a lane alone fails exactly when
    /// the scalar evaluator fails on that row.
    fn assert_vec_matches_scalar(src: &str, rows: &[Row], active: &[bool]) {
        let bound = bind(&parse_expression(src).unwrap(), &schema()).unwrap();
        let batch = batch_of(rows);
        let scalar: Vec<Result<Value>> =
            rows.iter().map(|r| eval_bound(&bound, r)).collect();
        for (lane, want) in scalar.iter().enumerate() {
            let alone: Vec<bool> = (0..rows.len()).map(|i| i == lane).collect();
            let got = eval_vec(&bound, &batch, &alone, &mut VecScratch::default());
            assert_eq!(got.is_err(), want.is_err(), "`{src}` lane {lane} of {rows:?}: {got:?} vs {want:?}");
        }
        let scalar_err =
            scalar.iter().zip(active).any(|(r, a)| *a && r.is_err());
        let scratch = &mut VecScratch::default();
        match eval_vec(&bound, &batch, active, scratch) {
            Err(_) => assert!(
                scalar_err,
                "`{src}` errored vectorized but not scalar on {rows:?} ({active:?})"
            ),
            Ok(vals) => {
                assert!(
                    !scalar_err,
                    "`{src}` errored scalar but not vectorized on {rows:?} ({active:?})"
                );
                for (i, on) in active.iter().enumerate() {
                    if !on {
                        continue;
                    }
                    let want = scalar[i].as_ref().unwrap();
                    assert_eq!(
                        bits(&vals[i]),
                        bits(want),
                        "`{src}` lane {i}: vec {:?} vs scalar {want:?}",
                        vals[i]
                    );
                }
                // And the truth kernel must agree with scalar truthiness.
                if let Ok(truth) = eval_truth_vec(&bound, &batch, active, scratch) {
                    for (i, on) in active.iter().enumerate() {
                        if !on {
                            continue;
                        }
                        let want = truth_of(scalar[i].as_ref().unwrap());
                        assert_eq!(truth[i], want, "`{src}` truth lane {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_vec_matches_eval_bound_on_fixed_rows() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(10), Value::Float(2.5), Value::Text("hello".into()), Value::Null],
            vec![Value::Int(-3), Value::Float(0.0), Value::Text("zz".into()), Value::Int(7)],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![Value::Int(0), Value::Float(-1.5), Value::Text("1995-06-17".into()), Value::Int(1)],
        ];
        let all = vec![true; rows.len()];
        for src in EXPRS {
            assert_vec_matches_scalar(src, &rows, &all);
        }
    }

    #[test]
    fn inactive_lanes_are_never_evaluated() {
        // Lane 1 divides by zero; masking it must mask the error, just
        // as the scalar filter never reaches a row upstream dropped.
        let rows: Vec<Row> = vec![
            vec![Value::Int(10), Value::Float(1.0), Value::Text("x".into()), Value::Int(2)],
            vec![Value::Int(5), Value::Float(1.0), Value::Text("x".into()), Value::Int(0)],
        ];
        let bound = bind(&parse_expression("a / n").unwrap(), &schema()).unwrap();
        let batch = batch_of(&rows);
        let scratch = &mut VecScratch::default();
        assert!(eval_vec(&bound, &batch, &[true, true], scratch).is_err());
        let vals = eval_vec(&bound, &batch, &[true, false], scratch).unwrap();
        assert_eq!(vals[0], Value::Int(5));
    }

    #[test]
    fn and_or_short_circuit_masks_rhs_errors() {
        // Scalar AND skips the rhs when the lhs is false — `a = 0 AND
        // 10 / a > 0` never divides by zero. The vectorized path must
        // shrink the rhs active set the same way.
        let rows: Vec<Row> = vec![
            vec![Value::Int(0), Value::Float(1.0), Value::Text("x".into()), Value::Int(1)],
            vec![Value::Int(2), Value::Float(1.0), Value::Text("x".into()), Value::Int(1)],
        ];
        let all = [true, true];
        assert_vec_matches_scalar("a = 0 AND 10 / a > 0", &rows, &all);
        assert_vec_matches_scalar("a <> 0 OR 10 / a > 0", &rows, &all);
    }

    #[test]
    fn filter_vec_matches_scalar_filter() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(10), Value::Float(2.5), Value::Text("hello".into()), Value::Null],
            vec![Value::Int(4), Value::Float(9.0), Value::Text("world".into()), Value::Int(1)],
            vec![Value::Null, Value::Float(1.0), Value::Text("hell".into()), Value::Int(2)],
        ];
        let src = "a > 5 AND s LIKE 'hel%'";
        let bound = bind(&parse_expression(src).unwrap(), &schema()).unwrap();
        let batch = batch_of(&rows);
        let mut sel = vec![true; rows.len()];
        filter_vec(&bound, &batch, &mut sel, &mut VecScratch::default()).unwrap();
        let want: Vec<bool> =
            rows.iter().map(|r| eval_bound(&bound, r).unwrap().is_truthy()).collect();
        assert_eq!(sel, want);
    }

    /// `INSERT … VALUES` evaluates its constants over one lane of a batch
    /// with no columns: same value, or same error, as the row evaluator
    /// over an empty row.
    #[test]
    fn constants_over_one_lane_of_no_columns_match_the_row_evaluator() {
        let (no_columns, mut one_lane) = (Schema::default(), ColumnBatch::new(0));
        one_lane.finish_row().unwrap();
        for src in [
            "-5",
            "1 + 2 * 3",
            "7 / 2",
            "NULL",
            "CASE WHEN 1 < 2 THEN 'a' ELSE 'b' END",
            "SUBSTR('abcdef', 2, 3)",
            "ROUND(2.5)",
            "ABS(-3)",
            "1 / 0",
            "-'x'",
        ] {
            let bound = bind(&parse_expression(src).unwrap(), &no_columns).unwrap();
            let lane = eval_vec(&bound, &one_lane, &[true], &mut VecScratch::default());
            match (lane, eval_bound(&bound, &Row::new())) {
                (Ok(lane), Ok(want)) => {
                    assert_eq!(lane.len(), 1, "`{src}`");
                    assert_eq!(bits(&lane[0]), bits(&want), "`{src}`: {:?} vs {want:?}", lane[0]);
                }
                (Err(got), Err(want)) => assert_eq!(got, want, "`{src}`"),
                (got, want) => panic!("`{src}`: vector {got:?} vs row {want:?}"),
            }
        }
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-20i64..20).prop_map(Value::Int),
            (-4i64..4).prop_map(|i| Value::Float(i as f64 * 0.5)),
            (0usize..7).prop_map(|i| {
                let words = ["", "a", "zz", "hel", "hello", "world", "1995-06-17"];
                Value::Text(words[i].to_string())
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `eval_vec` ≡ `eval_bound` on arbitrary batches and
        /// selections, for every expression form. `eval_vec` is the only
        /// evaluator in the release build — scans, operators and DML all
        /// run it — and this comparison against the row-at-a-time
        /// reference is what keeps it honest.
        #[test]
        fn prop_eval_vec_equals_eval_bound(
            cells in proptest::collection::vec((value_strategy(), value_strategy(), value_strategy(), value_strategy()), 1..12),
            mask in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let rows: Vec<Row> = cells
                .into_iter()
                .map(|(a, b, s, n)| vec![a, b, s, n])
                .collect();
            let active: Vec<bool> = (0..rows.len()).map(|i| mask[i]).collect();
            for src in EXPRS {
                assert_vec_matches_scalar(src, &rows, &active);
            }
        }
    }
}
