//! Vectorization microbenches: Q1/Q6-style predicate evaluation over a
//! column batch.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ironsafe_sql::batch::ColumnBatch;
use ironsafe_sql::expr::{bind, filter_vec, VecScratch};
use ironsafe_sql::parser::parse_expression;
use ironsafe_sql::schema::{Column, Schema};
use ironsafe_sql::value::{DataType, RawValue, Value};
use ironsafe_sql::Row;

const ROWS: usize = 4096;

/// A lineitem-shaped slice: the columns Q1 and Q6 actually touch.
fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Column::new("l_quantity", DataType::Float),
        Column::new("l_extendedprice", DataType::Float),
        Column::new("l_discount", DataType::Float),
        Column::new("l_shipdate", DataType::Text),
        Column::new("l_returnflag", DataType::Text),
    ])
}

fn lineitem_rows() -> Vec<Row> {
    (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Float((i % 50) as f64 + 1.0),
                Value::Float(900.0 + (i % 1000) as f64),
                Value::Float((i % 11) as f64 * 0.01),
                Value::Text(format!("199{}-{:02}-{:02}", i % 6 + 2, i % 12 + 1, i % 28 + 1)),
                Value::Text(["A", "N", "R"][(i % 3) as usize].to_string()),
            ]
        })
        .collect()
}

fn batch_of(rows: &[Row]) -> ColumnBatch {
    let mut batch = ColumnBatch::new(rows[0].len());
    for row in rows {
        for (c, v) in row.iter().enumerate() {
            batch.push_cell(c, RawValue::of(v));
        }
        batch.finish_row().unwrap();
    }
    batch
}

fn bench_predicates(c: &mut Criterion) {
    let schema = lineitem_schema();
    let rows = lineitem_rows();
    let batch = batch_of(&rows);
    let preds = [
        ("q1_shipdate", "l_shipdate <= '1998-09-02'"),
        (
            "q6_conjunction",
            "l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
             AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        ),
    ];
    let mut g = c.benchmark_group("vector_predicates");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (name, sql) in preds {
        let bound = bind(&parse_expression(sql).unwrap(), &schema).unwrap();
        let mut scratch = VecScratch::default();
        g.bench_function(format!("{name}/vector"), |b| {
            b.iter(|| {
                let mut sel = vec![true; batch.len()];
                filter_vec(&bound, &batch, &mut sel, &mut scratch).unwrap();
                black_box(sel.iter().filter(|s| **s).count())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_predicates);
criterion_main!(benches);
