//! SQL engine operator benchmarks: scan, filter, hash join, aggregate,
//! one-row DML, the storage-side fragments of a split query and the
//! end-to-end partitioner.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ironsafe_csa::net::{validate_frame, ROWS_PER_RECORD};
use ironsafe_csa::partition::partition_select;
use ironsafe_sql::ast::Statement;
use ironsafe_sql::exec::ExecOptions;
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::{Database, EncodedRows, Schema, Value};
use ironsafe_storage::pager::PlainPager;
use ironsafe_tpch::queries::query;
use ironsafe_tpch::{generate, load_into};

fn loaded_db() -> Database {
    let data = generate(0.002, 9);
    let mut db = Database::new(PlainPager::new());
    load_into(&mut db, &data).unwrap();
    db
}

fn bench_operators(c: &mut Criterion) {
    let mut db = loaded_db();
    let rows = db.catalog().table("lineitem").unwrap().heap.row_count;
    let mut g = c.benchmark_group("sql");
    g.sample_size(20);
    g.throughput(Throughput::Elements(rows));

    g.bench_function("scan_lineitem", |b| {
        b.iter(|| db.execute("SELECT COUNT(*) FROM lineitem").unwrap())
    });
    g.bench_function("filter_lineitem", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM lineitem WHERE l_shipdate < '1995-01-01' AND l_discount > 0.05")
                .unwrap()
        })
    });
    g.bench_function("agg_group_by", |b| {
        b.iter(|| {
            db.execute("SELECT l_returnflag, SUM(l_quantity), AVG(l_extendedprice) FROM lineitem GROUP BY l_returnflag")
                .unwrap()
        })
    });
    // The same scan and count with and without a group key: a global
    // aggregate must not cost more than a grouped one.
    g.bench_function("global_count", |b| {
        b.iter(|| db.execute("SELECT COUNT(*) FROM lineitem").unwrap())
    });
    g.bench_function("count_group_by", |b| {
        b.iter(|| {
            db.execute("SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag").unwrap()
        })
    });
    g.bench_function("hash_join_orders", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey")
                .unwrap()
        })
    });
    g.bench_function("hash_join_text_composite_key", |b| {
        b.iter(|| {
            db.execute(
                "SELECT COUNT(*) FROM orders, lineitem \
                 WHERE o_orderstatus = l_linestatus AND o_orderkey = l_orderkey",
            )
            .unwrap()
        })
    });
    // Q9's shape without its `part` filter: lineitem through four joins,
    // a computed group key and a float sum on top.
    g.bench_function("hash_join_five_way_q9", |b| {
        b.iter(|| {
            db.execute(
                "SELECT n_name, YEAR(o_orderdate), \
                   SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) \
                 FROM supplier, lineitem, partsupp, orders, nation \
                 WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey \
                   AND ps_partkey = l_partkey AND o_orderkey = l_orderkey \
                   AND s_nationkey = n_nationkey \
                 GROUP BY n_name, YEAR(o_orderdate)",
            )
            .unwrap()
        })
    });
    g.bench_function("sort_limit", |b| {
        b.iter(|| {
            db.execute("SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10")
                .unwrap()
        })
    });
    g.finish();
}

/// One-row `UPDATE` / `DELETE` over tables of 10 / 100 / 1 000 pages.
/// Both rewrite the whole table today, so they are linear in pages: the
/// baseline for ROADMAP item 3 ("DML touches the pages it changes").
fn bench_dml(c: &mut Criterion) {
    // 31 rows of 127 bytes fill one 4 048-byte page.
    const ROWS_PER_PAGE: i64 = 31;
    let row = |k: i64| vec![Value::Int(k), Value::Int(k % 97), Value::Text("p".repeat(100))];
    let mut g = c.benchmark_group("dml");
    g.sample_size(20);
    for pages in [10i64, 100, 1_000] {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (k INT, v INT, pad TEXT)").unwrap();
        db.insert_rows("t", (0..pages * ROWS_PER_PAGE).map(row).collect()).unwrap();
        assert_eq!(db.catalog().table("t").unwrap().heap.page_count(), pages as u64);
        let mid = pages * ROWS_PER_PAGE / 2;
        g.bench_function(format!("update_one_row/{pages}_pages"), |b| {
            b.iter(|| db.execute(&format!("UPDATE t SET v = v + 1 WHERE k = {mid}")).unwrap())
        });
        // The deleted row is put back, untimed, at the tail.
        let db = std::cell::RefCell::new(db);
        g.bench_function(format!("delete_one_row/{pages}_pages"), |b| {
            b.iter_batched(
                || db.borrow_mut().insert_rows("t", vec![row(-1)]).unwrap(),
                |_| db.borrow_mut().execute("DELETE FROM t WHERE k = -1").unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// The storage side of a split query: the partitioner's `lineitem`
/// fragments of TPC-H Q1 and Q6 (`SELECT needed_cols FROM lineitem WHERE
/// pushed`) drained encoded, as a storage node ships them, and the
/// receiver's validation of one full frame of Q1's fragment rows.
fn bench_fragments(c: &mut Criterion) {
    let mut db = loaded_db();
    let rows = db.catalog().table("lineitem").unwrap().heap.row_count;
    let lookup = |name: &str| db.catalog().table(name).ok().map(|t| t.schema.clone());
    let fragment = |q: u8| {
        let Statement::Select(sel) = parse_statement(&query(q).unwrap().stages[0].sql).unwrap() else {
            unreachable!("Q{q} is a SELECT")
        };
        let parts = partition_select(&sel, &lookup);
        parts.storage.into_iter().find(|f| f.table == "lineitem").expect("a lineitem fragment").stmt
    };
    let (q1, q6) = (fragment(1), fragment(6));
    let opts = ExecOptions::serial();
    let mut g = c.benchmark_group("fragment");
    g.sample_size(20);
    g.throughput(Throughput::Elements(rows));
    let mut out = EncodedRows::new();
    for (name, frag) in [("fragment_q1_encoded", &q1), ("fragment_q6_encoded", &q6)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                out.clear();
                db.select_encoded(frag, &opts, &mut out).unwrap();
                out.len()
            })
        });
    }

    out.clear();
    let (schema, _) = db.select_encoded(&q1, &opts, &mut out).unwrap();
    let n = out.len().min(ROWS_PER_RECORD as usize);
    let mut plain = (schema.len() as u32).to_be_bytes().to_vec();
    plain.extend_from_slice(&(n as u64).to_be_bytes());
    plain.extend_from_slice(out.slice(0..n).bytes());
    let mut ends = Vec::new();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("frame_validate", |b| {
        b.iter(|| validate_frame(std::hint::black_box(&plain), schema.len(), &mut ends).unwrap())
    });
    g.finish();
}

fn bench_parse_and_partition(c: &mut Criterion) {
    let q3 = "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
              o_orderdate, o_shippriority FROM customer, orders, lineitem \
              WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
              AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' \
              AND l_shipdate > '1995-03-15' \
              GROUP BY l_orderkey, o_orderdate, o_shippriority \
              ORDER BY revenue DESC, o_orderdate LIMIT 10";
    c.bench_function("parse_q3", |b| b.iter(|| parse_statement(std::hint::black_box(q3)).unwrap()));

    let db = loaded_db();
    let sel = match parse_statement(q3).unwrap() {
        Statement::Select(s) => s,
        _ => unreachable!(),
    };
    let lookup = |name: &str| -> Option<Schema> {
        db.catalog().table(name).ok().map(|t| t.schema.clone())
    };
    c.bench_function("partition_q3", |b| {
        b.iter(|| partition_select(std::hint::black_box(&sel), &lookup))
    });
}

criterion_group!(benches, bench_operators, bench_dml, bench_fragments, bench_parse_and_partition);
criterion_main!(benches);
