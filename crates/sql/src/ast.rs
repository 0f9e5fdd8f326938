//! Abstract syntax tree.

use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row value expressions.
        values: Vec<Vec<Expr>>,
    },
    /// `SELECT ...`
    Select(SelectStmt),
    /// `UPDATE name SET col = expr, ... [WHERE ...]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Optional predicate.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        where_clause: Option<Expr>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Target table.
        name: String,
    },
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// Tables in the `FROM` clause (comma join syntax).
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys with `desc` flags.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

/// One projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Alias (defaults to the name).
    pub alias: String,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `NOT`
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (possibly qualified, e.g. `l.l_quantity`).
    Column(String),
    /// A literal.
    Literal(Value),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern with `%` and `_` wildcards.
        pattern: String,
        /// Negated?
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negated (`IS NOT NULL`)?
        negated: bool,
    },
    /// `CASE WHEN c THEN v ... [ELSE e] END`
    Case {
        /// `(condition, result)` arms.
        when_then: Vec<(Expr, Expr)>,
        /// `ELSE` result.
        else_expr: Option<Box<Expr>>,
    },
    /// Scalar function call, e.g. `SUBSTR(s, 1, 4)` or `YEAR(d)`.
    Func {
        /// Function name (uppercase).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Aggregate call, e.g. `SUM(expr)` or `COUNT(*)` (arg = `None`).
    Agg {
        /// The function.
        func: AggFunc,
        /// Argument (`None` for `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// `DISTINCT` flag.
        distinct: bool,
    },
}

/// Call `$f` on every direct child of `$e`, in source order — the one
/// place that knows which variant holds which sub-expressions. A macro
/// so the same `match` serves `&Expr` and `&mut Expr`: the bindings are
/// references of whichever kind `$e` is.
macro_rules! each_child {
    ($e:expr, $f:expr) => {
        match $e {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => {
                $f(expr)
            }
            Expr::Binary { left, right, .. } => {
                $f(left);
                $f(right);
            }
            Expr::Between { expr, low, high, .. } => {
                $f(expr);
                $f(low);
                $f(high);
            }
            Expr::InList { expr, list, .. } => {
                $f(expr);
                for e in list {
                    $f(e);
                }
            }
            Expr::Case { when_then, else_expr } => {
                for (c, v) in when_then {
                    $f(c);
                    $f(v);
                }
                if let Some(e) = else_expr {
                    $f(e);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    $f(a);
                }
            }
        }
    };
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Shorthand for a string literal.
    pub fn text(v: &str) -> Expr {
        Expr::Literal(Value::Text(v.to_string()))
    }

    /// Shorthand for a binary expression.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// Call `f` on every direct child of this node, in source order.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        each_child!(self, f)
    }

    /// [`Expr::for_each_child`] with the children handed out mutably, to
    /// rewrite an expression in place.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        each_child!(self, f)
    }

    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, Expr::Agg { .. });
        self.for_each_child(&mut |c| found = found || c.contains_aggregate());
        found
    }

    /// Collect the names of all referenced columns.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        if let Expr::Column(c) = self {
            out.push(c.clone());
        }
        self.for_each_child(&mut |c| c.referenced_columns(out));
    }
}

/// Render an expression back to SQL text (used by the policy rewriter and
/// the query partitioner to ship query fragments to the storage engine).
pub fn expr_to_sql(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.clone(),
        Expr::Literal(Value::Null) => "NULL".into(),
        Expr::Literal(Value::Int(i)) => i.to_string(),
        Expr::Literal(Value::Float(f)) => format!("{f:?}"),
        Expr::Literal(Value::Text(s)) => format!("'{}'", s.replace('\'', "''")),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => format!("(-{})", expr_to_sql(expr)),
            UnaryOp::Not => format!("(NOT {})", expr_to_sql(expr)),
        },
        Expr::Binary { op, left, right } => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "=",
                BinOp::NotEq => "<>",
                BinOp::Lt => "<",
                BinOp::LtEq => "<=",
                BinOp::Gt => ">",
                BinOp::GtEq => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
            };
            format!("({} {} {})", expr_to_sql(left), o, expr_to_sql(right))
        }
        Expr::Between { expr, low, high, negated } => format!(
            "({} {}BETWEEN {} AND {})",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" },
            expr_to_sql(low),
            expr_to_sql(high)
        ),
        Expr::InList { expr, list, negated } => format!(
            "({} {}IN ({}))",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" },
            list.iter().map(expr_to_sql).collect::<Vec<_>>().join(", ")
        ),
        Expr::Like { expr, pattern, negated } => format!(
            "({} {}LIKE '{}')",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" },
            pattern.replace('\'', "''")
        ),
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            expr_to_sql(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Case { when_then, else_expr } => {
            let mut s = String::from("CASE");
            for (c, v) in when_then {
                s.push_str(&format!(" WHEN {} THEN {}", expr_to_sql(c), expr_to_sql(v)));
            }
            if let Some(e) = else_expr {
                s.push_str(&format!(" ELSE {}", expr_to_sql(e)));
            }
            s.push_str(" END");
            s
        }
        Expr::Func { name, args } => {
            format!("{name}({})", args.iter().map(expr_to_sql).collect::<Vec<_>>().join(", "))
        }
        Expr::Agg { func, arg, distinct } => {
            let f = match func {
                AggFunc::Count => "COUNT",
                AggFunc::Sum => "SUM",
                AggFunc::Avg => "AVG",
                AggFunc::Min => "MIN",
                AggFunc::Max => "MAX",
            };
            match arg {
                None => format!("{f}(*)"),
                Some(a) => format!("{f}({}{})", if *distinct { "DISTINCT " } else { "" }, expr_to_sql(a)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One expression per variant, each holding column `c` and an
    /// aggregate over `g` in its *last* child, so a walker that skips a
    /// variant or stops early misses them.
    fn every_variant() -> Vec<Expr> {
        [
            "-(c + SUM(g))",
            "1 * (c + SUM(g))",
            "0 BETWEEN 1 AND c + SUM(g)",
            "0 IN (1, c + SUM(g))",
            "(c + SUM(g)) LIKE 'x%'",
            "(c + SUM(g)) IS NULL",
            "CASE WHEN 1 THEN 2 WHEN c + SUM(g) THEN 3 END",
            "CASE WHEN 1 THEN 2 ELSE c + SUM(g) END",
            "ROUND(1, c + SUM(g))",
        ]
        .iter()
        .map(|src| crate::parser::parse_expression(src).unwrap())
        .collect()
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::int(1),
            Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::col("x"))), distinct: false },
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        assert!(every_variant().iter().all(Expr::contains_aggregate));
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::bin(BinOp::Mul, Expr::col("a"), Expr::bin(BinOp::Sub, Expr::int(1), Expr::col("b")));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
        // The visitor reaches every child of every variant, inside
        // aggregates too, in source order; the in-place one reaches the
        // same children and leaves the rest of the node alone.
        fn rename(e: &mut Expr) {
            if let Expr::Column(n) = e {
                n.push('2');
            }
            e.for_each_child_mut(&mut rename);
        }
        for mut e in every_variant() {
            let mut cols = Vec::new();
            e.referenced_columns(&mut cols);
            assert_eq!(cols, ["c", "g"], "{e:?}");
            let sql = expr_to_sql(&e);
            rename(&mut e);
            assert_eq!(expr_to_sql(&e), sql.replace("c +", "c2 +").replace("(g)", "(g2)"));
        }
    }

    #[test]
    fn expr_to_sql_roundtrips_through_parser() {
        use crate::parser::parse_expression;
        let cases = [
            "(a + 1)",
            "((a * b) >= 10)",
            "(a BETWEEN 1 AND 2)",
            "(x IN (1, 2, 3))",
            "(name LIKE 'a%b_c')",
            "(d IS NOT NULL)",
            "CASE WHEN (a = 1) THEN 2 ELSE 3 END",
            "SUM((price * (1 - disc)))",
        ];
        for c in cases {
            let e = parse_expression(c).unwrap();
            let rendered = expr_to_sql(&e);
            let reparsed = parse_expression(&rendered).unwrap();
            assert_eq!(e, reparsed, "case `{c}` rendered `{rendered}`");
        }
    }

    #[test]
    fn string_literal_escaping() {
        let e = Expr::text("it's");
        assert_eq!(expr_to_sql(&e), "'it''s'");
    }
}
