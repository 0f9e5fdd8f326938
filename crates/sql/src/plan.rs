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

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt};
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

/// Which of `schemas` can resolve every column of `expr`? Returns the set
/// of table indices whose schemas own at least one referenced column.
fn tables_of(expr: &Expr, schemas: &[Schema]) -> Result<Vec<usize>> {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    let mut tabs = Vec::new();
    for c in &cols {
        let mut found = false;
        for (i, s) in schemas.iter().enumerate() {
            if s.resolve(c).is_ok() {
                if !tabs.contains(&i) {
                    tabs.push(i);
                }
                found = true;
                break;
            }
        }
        if !found {
            return Err(SqlError::Plan(format!("unknown column `{c}`")));
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

fn classify(expr: Expr, schemas: &[Schema]) -> Result<Pred> {
    let tabs = tables_of(&expr, schemas)?;
    match tabs.len() {
        0 => Ok(Pred::Single { table: 0, expr }),
        1 => Ok(Pred::Single { table: tabs[0], expr }),
        2 => {
            if let Expr::Binary { op: BinOp::Eq, left, right } = &expr {
                let lt = tables_of(left, schemas)?;
                let rt = tables_of(right, schemas)?;
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
/// everything. A name marks every table that resolves it (a superset of
/// what evaluation touches is always safe). The scan kernel decodes only
/// these.
fn referenced_columns(stmt: &SelectStmt, schemas: &[Schema]) -> Vec<Vec<bool>> {
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
        for (schema, mask) in schemas.iter().zip(&mut masks) {
            if let Ok(i) = schema.resolve(name) {
                mask[i] = true;
            }
        }
    }
    masks
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
                current = Box::new(HashJoin::new(scan(t), current, new_keys, cur_keys));
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
        Some(p) => Box::new(Filter::new(current, p)),
        None => current,
    })
}

/// Plan a `SELECT` under explicit execution options.
///
/// Every base table is read by the one scan kernel
/// ([`crate::exec::scan`]) with its single-table predicates pushed in
/// and only its referenced columns decoded. A single-table statement
/// additionally fuses its projection (or its aggregation) into the
/// scan. Rows and `PagerStats` deltas are bit-identical at any DOP.
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
            match classify(c, &schemas)? {
                Pred::Single { table, expr } => single[table].push(expr),
                Pred::EquiJoin { left_table, right_table, left, right } => {
                    equi.push((left_table, right_table, left, right));
                }
                Pred::Residual(e) => residual.push(e),
            }
        }
    }

    let has_agg = !stmt.group_by.is_empty()
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || stmt.projections.iter().any(
            |p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
        );
    // A LIMIT with no pipeline breaker below it stops pulling mid-scan.
    // One-page morsels on one worker make the scans under it read exactly
    // the pages a page-at-a-time scan would (per-morsel telemetry keeps
    // its `morsel_pages` granularity by sitting such a scan out).
    let streaming_limit = stmt.limit.is_some() && !has_agg && stmt.order_by.is_empty();
    let scan_opts = if streaming_limit {
        ExecOptions { dop: Default::default(), morsel_pages: 1, watch: None, ..opts.clone() }
    } else {
        opts.clone()
    };

    // 3. Scan sources: pushed predicate + referenced columns per table.
    let masks = referenced_columns(stmt, &schemas);
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
        Below::Table(source) => source.schema.clone(),
        Below::Plan(op) => op.schema().clone(),
    };

    // 5. Projections, aggregation, ordering.
    let proj_items = expand_projections(stmt, &input)?;
    let (proj_exprs, proj_names): (Vec<Expr>, Vec<String>) = proj_items.into_iter().unzip();
    let mut order_keys: Vec<(Expr, bool)> = stmt.order_by.clone();
    // ORDER BY may reference projection aliases: substitute them.
    for (e, _) in &mut order_keys {
        if let Expr::Column(name) = e {
            if let Some(i) = proj_names.iter().position(|n| n == name) {
                if input.resolve(name).is_err() {
                    *e = proj_exprs[i].clone();
                }
            }
        }
    }

    // Validate that every referenced column resolves against the input
    // schema (cheap, and turns silent empty results into plan errors).
    {
        let mut cols = Vec::new();
        for e in proj_exprs
            .iter()
            .chain(stmt.group_by.iter())
            .chain(stmt.having.iter())
            .chain(order_keys.iter().map(|(e, _)| e))
        {
            e.referenced_columns(&mut cols);
        }
        for c in cols {
            input.resolve(&c)?;
        }
    }

    let mut current: BoxOp;
    if has_agg {
        // Collect aggregates from every post-grouping expression.
        let mut agg_nodes: Vec<Expr> = Vec::new();
        for e in proj_exprs.iter().chain(stmt.having.iter()).chain(order_keys.iter().map(|(e, _)| e)) {
            collect_aggs(e, &mut agg_nodes);
        }
        let specs: Vec<AggSpec> = agg_nodes
            .iter()
            .enumerate()
            .map(|(i, e)| match e {
                Expr::Agg { func, arg, distinct } => AggSpec {
                    func: *func,
                    arg: arg.as_deref().cloned(),
                    distinct: *distinct,
                    name: format!("__agg{i}"),
                },
                _ => unreachable!("collect_aggs yields Agg nodes"),
            })
            .collect();
        let group_names: Vec<String> = (0..stmt.group_by.len()).map(|i| format!("__grp{i}")).collect();
        current = match below {
            // Single-table aggregation (the TPC-H Q1/Q6 shape): the scan
            // kernel pre-evaluates group keys and aggregate inputs per
            // morsel and the serial accumulator folds them in row order.
            Below::Table(source) => Box::new(ScanAggregate::new(
                source,
                scan_opts,
                stmt.group_by.clone(),
                group_names,
                specs,
            )?),
            Below::Plan(op) => {
                Box::new(HashAggregate::new(op, stmt.group_by.clone(), group_names, specs))
            }
        };

        let rw = |e: &Expr| rewrite_post_agg(e, &stmt.group_by, &agg_nodes);
        if let Some(h) = &stmt.having {
            current = Box::new(Filter::new(current, rw(h)));
        }
        if !order_keys.is_empty() {
            let keys = order_keys.iter().map(|(e, d)| (rw(e), *d)).collect();
            current = Box::new(Sort::new(current, keys));
        }
        let exprs: Vec<Expr> = proj_exprs.iter().map(rw).collect();
        let schema = output_schema(&exprs, &proj_names, current.schema());
        current = Box::new(Project::new(current, exprs, schema));
    } else {
        if stmt.having.is_some() {
            return Err(SqlError::Plan("HAVING without aggregation".into()));
        }
        let schema = output_schema(&proj_exprs, &proj_names, &input);
        current = match below {
            // Nothing sits between a lone scan and its projection: fuse
            // it, so output rows are built straight from batch lanes.
            Below::Table(source) if order_keys.is_empty() => {
                Box::new(Scan::new(source, &proj_exprs, schema, scan_opts)?)
            }
            below => {
                let mut op: BoxOp = match below {
                    Below::Table(source) => Box::new(Scan::columns(source, scan_opts)?),
                    Below::Plan(op) => op,
                };
                if !order_keys.is_empty() {
                    op = Box::new(Sort::new(op, order_keys));
                }
                Box::new(Project::new(op, proj_exprs, schema))
            }
        };
    }

    if let Some(n) = stmt.limit {
        current = Box::new(Limit::new(current, n));
    }
    Ok(current)
}

/// `SELECT 1 + 1` style statements without FROM.
fn plan_projection_only(stmt: &SelectStmt) -> Result<BoxOp> {
    let items = expand_projections(stmt, &Schema::default())?;
    let (exprs, names): (Vec<Expr>, Vec<String>) = items.into_iter().unzip();
    let schema = output_schema(&exprs, &names, &Schema::default());
    let one_row: BoxOp = Box::new(crate::exec::Values::new(Schema::default(), vec![Vec::new()]));
    Ok(Box::new(Project::new(one_row, exprs, schema)))
}

/// Expand `*` and derive output names.
pub(crate) fn expand_projections(stmt: &SelectStmt, input: &Schema) -> Result<Vec<(Expr, String)>> {
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

/// Collect distinct aggregate nodes (structural equality).
pub(crate) fn collect_aggs(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { .. } => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Column(_) | Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => {
            collect_aggs(expr, out)
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggs(expr, out);
            collect_aggs(low, out);
            collect_aggs(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for e in list {
                collect_aggs(e, out);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        Expr::Case { when_then, else_expr } => {
            for (c, v) in when_then {
                collect_aggs(c, out);
                collect_aggs(v, out);
            }
            if let Some(e) = else_expr {
                collect_aggs(e, out);
            }
        }
    }
}

/// Rewrite a post-grouping expression against the aggregate's output:
/// group-by expressions become `__grpN`, aggregate nodes become `__aggN`.
pub(crate) fn rewrite_post_agg(expr: &Expr, group_by: &[Expr], aggs: &[Expr]) -> Expr {
    if let Some(i) = group_by.iter().position(|g| g == expr) {
        return Expr::Column(format!("__grp{i}"));
    }
    if let Some(i) = aggs.iter().position(|a| a == expr) {
        return Expr::Column(format!("__agg{i}"));
    }
    match expr {
        Expr::Column(_) | Expr::Literal(_) => expr.clone(),
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: Box::new(rewrite_post_agg(expr, group_by, aggs)) },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(left, group_by, aggs)),
            right: Box::new(rewrite_post_agg(right, group_by, aggs)),
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)),
            low: Box::new(rewrite_post_agg(low, group_by, aggs)),
            high: Box::new(rewrite_post_agg(high, group_by, aggs)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)),
            list: list.iter().map(|e| rewrite_post_agg(e, group_by, aggs)).collect(),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)),
            negated: *negated,
        },
        Expr::Case { when_then, else_expr } => Expr::Case {
            when_then: when_then
                .iter()
                .map(|(c, v)| (rewrite_post_agg(c, group_by, aggs), rewrite_post_agg(v, group_by, aggs)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(rewrite_post_agg(e, group_by, aggs))),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_post_agg(a, group_by, aggs)).collect(),
        },
        Expr::Agg { .. } => expr.clone(), // unmatched aggregate: caught at eval
    }
}

/// Derive the projected output schema (types are best-effort metadata).
pub(crate) fn output_schema(exprs: &[Expr], names: &[String], input: &Schema) -> Schema {
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
        let e = parse_expression("SUM(qty) / 2 + 1").unwrap();
        let rw = rewrite_post_agg(&e, &group, &aggs);
        let expect = parse_expression("__agg0 / 2 + 1").unwrap();
        assert_eq!(rw, expect);
        let e = parse_expression("flag").unwrap();
        assert_eq!(rewrite_post_agg(&e, &group, &aggs), parse_expression("__grp0").unwrap());
    }

    // End-to-end planning is exercised through `Database` tests in `db`.
}
