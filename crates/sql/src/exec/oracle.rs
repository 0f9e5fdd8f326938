//! Test oracle for the scan kernel: the deliberately naive scan — one
//! page at a time, every column of every row decoded into owned values,
//! predicate and projections evaluated row-at-a-time by *name* through
//! unbound [`eval`]. Compiled under `#[cfg(test)]` only; the kernel's
//! rows, errors and `PagerStats` deltas are checked against it (the role
//! `aes/bytewise.rs` plays for the cipher).

use crate::ast::Expr;
use crate::exec::{collect, AggSpec, HashAggregate, ScanSource, Values};
use crate::expr::eval;
use crate::schema::Row;
use crate::Result;

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

/// Serial hash aggregation over [`scan_all`].
pub(crate) fn aggregate(
    source: &ScanSource,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
) -> Result<Vec<Row>> {
    let input = Values::new(source.schema.clone(), scan_all(source)?);
    let names = (0..group_exprs.len()).map(|i| format!("g{i}")).collect();
    let agg = HashAggregate::new(Box::new(input), group_exprs.to_vec(), names, aggs.to_vec())?;
    Ok(collect(Box::new(agg))?.1)
}
