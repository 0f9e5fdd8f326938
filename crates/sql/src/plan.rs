//! Logical planning: translate a [`SelectStmt`] into an operator tree.
//!
//! The plan shape is the classic textbook pipeline the paper's engine
//! (SQLite) also follows for these queries:
//!
//! ```text
//! scans (filter + column pruning fused) → hash joins (equi) → residual
//!       filter → hash aggregate → having → sort → project → limit
//! ```
//!
//! Single-table predicates are pushed into the scans — the same pushdown
//! the CSA partitioner exploits to ship filters to the storage engine —
//! and a single-table statement fuses its projection or aggregation
//! into the scan as well.

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt, TableRef};
use crate::catalog::Catalog;
use crate::exec::{
    AggSpec, BoxOp, ExecOptions, Filter, HashAggregate, HashJoin, Limit, NestedLoopJoin, Project,
    Scan, ScanAggregate, ScanSource, Sort,
};
use crate::heap::SharedPager;
use crate::schema::{Column, Schema};
use crate::value::DataType;
use crate::{Result, SqlError};

/// Split an expression on top-level `AND`s.
pub fn split_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary { op: BinOp::And, left, right } = expr {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(expr.clone());
    }
}

/// Re-join conjuncts with `AND`.
pub fn join_conjuncts(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut acc = conjuncts.pop()?;
    while let Some(c) = conjuncts.pop() {
        acc = Expr::bin(BinOp::And, c, acc);
    }
    Some(acc)
}

/// The column of FROM entry `tref` (whose columns are `schema`) that the
/// reference `name` denotes, or `None` when the entry does not own it: a
/// qualified `q.c` belongs only to the entry whose name or alias is `q`,
/// a bare `c` to every entry whose schema has it. The one place a
/// qualifier is interpreted — the planner and the CSA partitioner both
/// decide "whose column is this" here.
pub fn owned_column(name: &str, tref: &TableRef, schema: &Schema) -> Option<usize> {
    if let Some((q, _)) = name.rsplit_once('.') {
        if !q.eq_ignore_ascii_case(&tref.alias) && !q.eq_ignore_ascii_case(&tref.name) {
            return None;
        }
    }
    schema.resolve(name).ok()
}

/// The FROM entries (ascending indexes into `from`, whose columns are
/// `schemas`) that own the columns of `expr`. Every column must have
/// exactly one owner: none is an unknown column, two an ambiguous one.
pub fn tables_of(expr: &Expr, from: &[TableRef], schemas: &[Schema]) -> Result<Vec<usize>> {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    let mut tabs = Vec::new();
    for c in &cols {
        let mut owners =
            (0..from.len()).filter(|&t| owned_column(c, &from[t], &schemas[t]).is_some());
        let Some(t) = owners.next() else {
            return Err(SqlError::Plan(format!("unknown column `{c}`")));
        };
        if owners.next().is_some() {
            return Err(SqlError::Plan(format!("ambiguous column `{c}`")));
        }
        if !tabs.contains(&t) {
            tabs.push(t);
        }
    }
    tabs.sort_unstable();
    Ok(tabs)
}

/// A classified predicate.
enum Pred {
    /// Touches at most one table.
    Single { table: usize, expr: Expr },
    /// `left_col = right_col` across two tables.
    EquiJoin { left_table: usize, right_table: usize, left: Expr, right: Expr },
    /// Anything else: applied after all joins.
    Residual(Expr),
}

fn classify(expr: Expr, from: &[TableRef], schemas: &[Schema]) -> Result<Pred> {
    let tabs = tables_of(&expr, from, schemas)?;
    match tabs.len() {
        0 => Ok(Pred::Single { table: 0, expr }),
        1 => Ok(Pred::Single { table: tabs[0], expr }),
        2 => {
            if let Expr::Binary { op: BinOp::Eq, left, right } = &expr {
                let lt = tables_of(left, from, schemas)?;
                let rt = tables_of(right, from, schemas)?;
                if lt.len() == 1 && rt.len() == 1 && lt[0] != rt[0] {
                    return Ok(Pred::EquiJoin {
                        left_table: lt[0],
                        right_table: rt[0],
                        left: (**left).clone(),
                        right: (**right).clone(),
                    });
                }
            }
            Ok(Pred::Residual(expr))
        }
        _ => Ok(Pred::Residual(expr)),
    }
}

/// Plan a `SELECT` into an executable operator tree (serial execution).
pub fn plan_select(catalog: &Catalog, pager: &SharedPager, stmt: &SelectStmt) -> Result<BoxOp> {
    plan_select_with(catalog, pager, stmt, &ExecOptions::serial())
}

/// Per base table, the columns `stmt` references anywhere — projections,
/// predicates, join keys, GROUP BY, HAVING, ORDER BY; `*` references
/// everything. A name marks every FROM entry that owns it
/// ([`owned_column`]; a superset of what evaluation touches is always
/// safe). The scan kernel decodes only these, so a qualified name no
/// entry owns is rejected here: the binder above the scans drops the
/// qualifier and would read a column that was never decoded.
fn referenced_columns(stmt: &SelectStmt, schemas: &[Schema]) -> Result<Vec<Vec<bool>>> {
    let star = stmt.projections.iter().any(|p| matches!(p, SelectItem::Star));
    let mut masks: Vec<Vec<bool>> = schemas.iter().map(|s| vec![star; s.len()]).collect();
    let mut names = Vec::new();
    let projected = stmt.projections.iter().filter_map(|p| match p {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Star => None,
    });
    for e in projected
        .chain(&stmt.where_clause)
        .chain(&stmt.group_by)
        .chain(&stmt.having)
        .chain(stmt.order_by.iter().map(|(e, _)| e))
    {
        e.referenced_columns(&mut names);
    }
    for name in &names {
        let mut owned = false;
        for ((tref, schema), mask) in stmt.from.iter().zip(schemas).zip(&mut masks) {
            if let Some(i) = owned_column(name, tref, schema) {
                mask[i] = true;
                owned = true;
            }
        }
        if !owned && name.contains('.') {
            return Err(SqlError::Plan(format!("unknown column `{name}`")));
        }
    }
    Ok(masks)
}

/// What sits below a statement's projection/aggregation.
enum Below {
    /// One base table, not yet turned into an operator: its scan can
    /// fuse the projection or the aggregation.
    Table(ScanSource),
    /// Joined scans (plus any residual filter).
    Plan(BoxOp),
}

/// Column-pruned scans of `sources` under a greedy left-deep join order
/// following FROM order, with `residual` filtered on top.
fn plan_joins(
    sources: Vec<ScanSource>,
    equi: Vec<(usize, usize, Expr, Expr)>,
    mut residual: Vec<Expr>,
    opts: &ExecOptions,
) -> Result<BoxOp> {
    let mut scans: Vec<Option<BoxOp>> = sources
        .into_iter()
        .map(|source| Ok(Some(Box::new(Scan::columns(source, opts.clone())?) as BoxOp)))
        .collect::<Result<_>>()?;
    let mut joined = vec![false; scans.len()];
    let mut scan = |t: usize| scans[t].take().expect("each table joins once");
    let mut current = scan(0);
    joined[0] = true;
    let mut used = vec![false; equi.len()];
    for _ in 1..joined.len() {
        // Find the first unjoined table connected by an equi predicate.
        let pick = (0..joined.len()).find(|&t| {
            !joined[t]
                && equi.iter().enumerate().any(|(k, (a, b, _, _))| {
                    !used[k] && ((joined[*a] && *b == t) || (joined[*b] && *a == t))
                })
        });
        match pick {
            Some(t) => {
                // Gather all usable keys between the joined set and t.
                let mut cur_keys = Vec::new();
                let mut new_keys = Vec::new();
                for (k, (a, b, l, r)) in equi.iter().enumerate() {
                    if used[k] {
                        continue;
                    }
                    if joined[*a] && *b == t {
                        cur_keys.push(l.clone());
                        new_keys.push(r.clone());
                        used[k] = true;
                    } else if joined[*b] && *a == t {
                        cur_keys.push(r.clone());
                        new_keys.push(l.clone());
                        used[k] = true;
                    }
                }
                // Build over the newly joined (usually smaller, filtered)
                // table; probe with the running intermediate.
                current = Box::new(HashJoin::new(scan(t), current, new_keys, cur_keys)?);
                joined[t] = true;
            }
            None => {
                // No connector: cross join the next unjoined table.
                let t = joined.iter().position(|d| !d).expect("tables remain");
                current = Box::new(NestedLoopJoin::new(current, scan(t), None)?);
                joined[t] = true;
            }
        }
    }

    // Equi predicates that never connected (e.g. both tables already
    // joined via another path) become residual filters.
    for (k, (_, _, l, r)) in equi.iter().enumerate() {
        if !used[k] {
            residual.push(Expr::bin(BinOp::Eq, l.clone(), r.clone()));
        }
    }
    Ok(match join_conjuncts(residual) {
        Some(p) => Box::new(Filter::new(current, p)?),
        None => current,
    })
}

/// Plan a `SELECT` under explicit execution options.
///
/// Every base table is read by the one scan kernel
/// ([`crate::exec::scan`]) with its single-table predicates pushed in
/// and only its referenced columns decoded. A single-table statement
/// additionally fuses its projection (or its aggregation) into the
/// scan. Every operator binds its expressions as it is built, so a name
/// that does not resolve fails here, whatever the tables hold. Rows and
/// `PagerStats` deltas are bit-identical at any DOP.
pub fn plan_select_with(
    catalog: &Catalog,
    pager: &SharedPager,
    stmt: &SelectStmt,
    opts: &ExecOptions,
) -> Result<BoxOp> {
    if stmt.from.is_empty() {
        return plan_projection_only(stmt);
    }

    // 1. Table metadata.
    let mut schemas = Vec::with_capacity(stmt.from.len());
    let mut heaps = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let info = catalog.table(&tref.name)?;
        schemas.push(info.schema.clone());
        heaps.push(info.heap.clone());
    }

    // 2. Classify predicates.
    let mut single: Vec<Vec<Expr>> = vec![Vec::new(); stmt.from.len()];
    let mut equi: Vec<(usize, usize, Expr, Expr)> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        let mut conjuncts = Vec::new();
        split_conjuncts(w, &mut conjuncts);
        for c in conjuncts {
            match classify(c, &stmt.from, &schemas)? {
                Pred::Single { table, expr } => single[table].push(expr),
                Pred::EquiJoin { left_table, right_table, left, right } => {
                    equi.push((left_table, right_table, left, right));
                }
                Pred::Residual(e) => residual.push(e),
            }
        }
    }

    // A LIMIT with no pipeline breaker below it stops pulling mid-scan.
    // One-page morsels on one worker make the scans under it read exactly
    // the pages a page-at-a-time scan would.
    let streaming_limit = stmt.limit.is_some() && !aggregates(stmt) && stmt.order_by.is_empty();
    let scan_opts = if streaming_limit {
        ExecOptions { dop: Default::default(), morsel_pages: 1, ..opts.clone() }
    } else {
        opts.clone()
    };

    // 3. Scan sources: pushed predicate + referenced columns per table.
    let masks = referenced_columns(stmt, &schemas)?;
    let mut sources: Vec<ScanSource> = (schemas.into_iter().zip(heaps).zip(masks))
        .zip(single)
        .map(|(((schema, heap), cols), preds)| ScanSource {
            schema,
            heap,
            pager: pager.clone(),
            pred: join_conjuncts(preds),
            cols,
        })
        .collect();

    // 4. A lone table keeps its source so the scan can fuse what sits on
    // top of it; several tables become column-pruned scans under joins.
    let below = match sources.len() {
        1 => Below::Table(sources.pop().expect("one source")),
        _ => Below::Plan(plan_joins(sources, equi, residual, &scan_opts)?),
    };
    // What the rest of the statement resolves against: the lone table's
    // full schema, or the joined, pruned columns.
    let input = match &below {
        Below::Table(source) => &source.schema,
        Below::Plan(op) => op.schema(),
    };

    // 5. Aggregation, then HAVING → Sort → Project → Limit.
    let (agg, tail) = Tail::plan(stmt, input)?;
    let rows: BoxOp = match (agg, below) {
        // Single-table aggregation (the TPC-H Q1/Q6 shape): the scan
        // kernel pre-evaluates group keys and aggregate inputs per
        // morsel and the serial accumulator folds them in row order.
        (Some(agg), Below::Table(source)) => {
            let names = agg.group_names();
            Box::new(ScanAggregate::new(source, scan_opts, agg.group_by, names, agg.specs)?)
        }
        (Some(agg), Below::Plan(op)) => {
            let names = agg.group_names();
            Box::new(HashAggregate::new(op, agg.group_by, names, agg.specs)?)
        }
        // Nothing sits between a lone scan and its projection: fuse
        // it, so output rows are built straight from batch lanes.
        (None, Below::Table(source)) if tail.order_keys.is_empty() => {
            let schema = output_schema(&tail.proj_exprs, &tail.proj_names, &source.schema);
            let scan = Scan::new(source, &tail.proj_exprs, schema, scan_opts)?;
            return Ok(limited(Box::new(scan), tail.limit));
        }
        (None, Below::Table(source)) => Box::new(Scan::columns(source, scan_opts)?),
        (None, Below::Plan(op)) => op,
    };
    tail.over(rows)
}

/// `SELECT 1 + 1` style statements without FROM.
fn plan_projection_only(stmt: &SelectStmt) -> Result<BoxOp> {
    let items = expand_projections(stmt, &Schema::default())?;
    let (exprs, names): (Vec<Expr>, Vec<String>) = items.into_iter().unzip();
    let schema = output_schema(&exprs, &names, &Schema::default());
    let one_row: BoxOp = Box::new(crate::exec::Values::new(Schema::default(), vec![Vec::new()]));
    Ok(Box::new(Project::new(one_row, &exprs, schema)?))
}

/// Does `stmt` aggregate — a GROUP BY, or an aggregate call in its
/// projections or HAVING?
fn aggregates(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || stmt.projections.iter().any(
            |p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
        )
}

/// Output column of the aggregate operator holding group key `i`.
pub(crate) fn group_name(i: usize) -> String {
    format!("__grp{i}")
}

/// Output column of the aggregate operator holding aggregate `i`.
fn agg_name(i: usize) -> String {
    format!("__agg{i}")
}

/// What a statement's aggregate operator computes over its input.
#[derive(Debug, Clone)]
pub(crate) struct Aggregation {
    /// Group-by expressions; output columns [`group_name`]`(i)`.
    pub(crate) group_by: Vec<Expr>,
    /// One spec per distinct aggregate call in the statement, named
    /// `__agg{i}`.
    pub(crate) specs: Vec<AggSpec>,
}

impl Aggregation {
    /// Names of the group-key output columns.
    pub(crate) fn group_names(&self) -> Vec<String> {
        (0..self.group_by.len()).map(group_name).collect()
    }
}

/// What a statement does with the rows its FROM/WHERE (and aggregation,
/// when it has one) produce: `HAVING → Sort → Project → Limit`, put over
/// the aggregate operator or straight over the scan.
#[derive(Debug)]
pub(crate) struct Tail {
    having: Option<Expr>,
    /// ORDER BY keys (`true` = descending), aliases substituted.
    order_keys: Vec<(Expr, bool)>,
    proj_exprs: Vec<Expr>,
    proj_names: Vec<String>,
    limit: Option<u64>,
}

impl Tail {
    /// Plan everything above `stmt`'s FROM/WHERE against `input`, the
    /// schema those produce. For an aggregating statement the
    /// [`Aggregation`] comes back beside the tail, and the tail's
    /// expressions are rewritten to read the aggregate's output columns.
    /// Names are checked when [`Tail::over`] binds them.
    pub(crate) fn plan(stmt: &SelectStmt, input: &Schema) -> Result<(Option<Aggregation>, Tail)> {
        let (mut proj_exprs, proj_names): (Vec<Expr>, Vec<String>) =
            expand_projections(stmt, input)?.into_iter().unzip();
        // ORDER BY may reference projection aliases: substitute them.
        let mut order_keys: Vec<(Expr, bool)> = stmt.order_by.clone();
        for (e, _) in &mut order_keys {
            if let Expr::Column(name) = e {
                if let Some(i) = proj_names.iter().position(|n| n == name) {
                    if input.resolve(name).is_err() {
                        *e = proj_exprs[i].clone();
                    }
                }
            }
        }
        let mut having = stmt.having.clone();

        let agg = if aggregates(stmt) {
            // Collect aggregates from every post-grouping expression,
            // then point those expressions at the aggregate's output.
            let mut post: Vec<&mut Expr> = proj_exprs
                .iter_mut()
                .chain(&mut having)
                .chain(order_keys.iter_mut().map(|(e, _)| e))
                .collect();
            let mut agg_nodes: Vec<Expr> = Vec::new();
            post.iter().for_each(|e| collect_aggs(e, &mut agg_nodes));
            post.iter_mut().for_each(|e| rewrite_post_agg(e, &stmt.group_by, &agg_nodes));
            let specs = agg_nodes
                .into_iter()
                .enumerate()
                .map(|(i, e)| match e {
                    Expr::Agg { func, arg, distinct } => {
                        AggSpec { func, arg: arg.map(|a| *a), distinct, name: agg_name(i) }
                    }
                    _ => unreachable!("collect_aggs yields Agg nodes"),
                })
                .collect();
            Some(Aggregation { group_by: stmt.group_by.clone(), specs })
        } else if having.is_some() {
            return Err(SqlError::Plan("HAVING without aggregation".into()));
        } else {
            None
        };
        Ok((agg, Tail { having, order_keys, proj_exprs, proj_names, limit: stmt.limit }))
    }

    /// Build the tail's operators over `rows`, binding each against the
    /// schema below it.
    pub(crate) fn over(self, rows: BoxOp) -> Result<BoxOp> {
        let mut current = rows;
        if let Some(h) = self.having {
            current = Box::new(Filter::new(current, h)?);
        }
        if !self.order_keys.is_empty() {
            current = Box::new(Sort::new(current, self.order_keys)?);
        }
        let schema = output_schema(&self.proj_exprs, &self.proj_names, current.schema());
        current = Box::new(Project::new(current, &self.proj_exprs, schema)?);
        Ok(limited(current, self.limit))
    }
}

/// `op` under the statement's `LIMIT`, when it has one.
fn limited(op: BoxOp, limit: Option<u64>) -> BoxOp {
    match limit {
        Some(n) => Box::new(Limit::new(op, n)),
        None => op,
    }
}

/// Expand `*` and derive output names.
fn expand_projections(stmt: &SelectStmt, input: &Schema) -> Result<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for (i, item) in stmt.projections.iter().enumerate() {
        match item {
            SelectItem::Star => {
                if input.is_empty() {
                    return Err(SqlError::Plan("SELECT * without FROM".into()));
                }
                for c in &input.columns {
                    out.push((Expr::Column(c.name.clone()), c.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column(c) => c.rsplit('.').next().expect("non-empty").to_string(),
                        _ => format!("col{i}"),
                    },
                };
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

/// Collect distinct aggregate calls (structural equality), outermost
/// first; an aggregate's own argument is not searched.
fn collect_aggs(expr: &Expr, out: &mut Vec<Expr>) {
    if !matches!(expr, Expr::Agg { .. }) {
        expr.for_each_child(&mut |c| collect_aggs(c, out));
    } else if !out.contains(expr) {
        out.push(expr.clone());
    }
}

/// Rewrite a post-grouping expression, in place, against the aggregate's
/// output: group-by expressions become `__grpN`, aggregate nodes `__aggN`.
fn rewrite_post_agg(expr: &mut Expr, group_by: &[Expr], aggs: &[Expr]) {
    if let Some(i) = group_by.iter().position(|g| g == expr) {
        *expr = Expr::Column(group_name(i));
    } else if let Some(i) = aggs.iter().position(|a| a == expr) {
        *expr = Expr::Column(agg_name(i));
    } else {
        expr.for_each_child_mut(&mut |c| rewrite_post_agg(c, group_by, aggs));
    }
}

/// Derive the projected output schema (types are best-effort metadata).
fn output_schema(exprs: &[Expr], names: &[String], input: &Schema) -> Schema {
    let columns = exprs
        .iter()
        .zip(names.iter())
        .map(|(e, n)| {
            let ty = infer_type(e, input);
            Column::new(n.clone(), ty)
        })
        .collect();
    Schema::new(columns)
}

fn infer_type(expr: &Expr, input: &Schema) -> DataType {
    match expr {
        Expr::Column(c) => input
            .resolve(c)
            .map(|i| input.columns[i].ty)
            .unwrap_or(DataType::Text),
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Binary { op, left, .. } => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                infer_type(left, input)
            }
            _ => DataType::Int,
        },
        Expr::Unary { expr, .. } => infer_type(expr, input),
        Expr::Agg { func, .. } => match func {
            crate::ast::AggFunc::Count => DataType::Int,
            _ => DataType::Float,
        },
        Expr::Func { name, .. } => match name.as_str() {
            "YEAR" | "LENGTH" => DataType::Int,
            "ABS" | "ROUND" => DataType::Float,
            _ => DataType::Text,
        },
        _ => DataType::Text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    #[test]
    fn split_and_rejoin_conjuncts() {
        let e = parse_expression("a = 1 AND b = 2 AND c = 3").unwrap();
        let mut parts = Vec::new();
        split_conjuncts(&e, &mut parts);
        assert_eq!(parts.len(), 3);
        let rejoined = join_conjuncts(parts).unwrap();
        let mut reparts = Vec::new();
        split_conjuncts(&rejoined, &mut reparts);
        assert_eq!(reparts.len(), 3);
    }

    #[test]
    fn or_is_not_split() {
        let e = parse_expression("a = 1 OR b = 2").unwrap();
        let mut parts = Vec::new();
        split_conjuncts(&e, &mut parts);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn rewrite_replaces_group_and_agg_nodes() {
        let group = vec![parse_expression("flag").unwrap()];
        let aggs = vec![parse_expression("SUM(qty)").unwrap()];
        let rw = |src: &str| {
            let mut e = parse_expression(src).unwrap();
            rewrite_post_agg(&mut e, &group, &aggs);
            e
        };
        assert_eq!(rw("SUM(qty) / 2 + 1"), parse_expression("__agg0 / 2 + 1").unwrap());
        assert_eq!(rw("flag"), parse_expression("__grp0").unwrap());
    }

    // End-to-end planning is exercised through `Database` tests in `db`.
}
