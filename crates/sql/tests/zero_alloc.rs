//! Proves the scan kernel allocates nothing per morsel — whether it
//! rejects every row or ships its survivors' bytes — a hash-join probe
//! nothing per batch, and a one-row `UPDATE` nothing per row, in steady
//! state.
//!
//! Uses a counting global allocator (the pattern of
//! `crates/storage/tests/zero_alloc.rs`) that counts per thread, and only
//! inside a measured window: the test harness's own main thread allocates
//! a few times while it waits, at a moment that can fall inside the
//! window, and the tests here run side by side.

use ironsafe_sql::ast::Statement;
use ironsafe_sql::exec::{ExecOptions, RowCursor};
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::plan::plan_select_with;
use ironsafe_sql::{Database, EncodedRows, QueryResult, Value};
use ironsafe_storage::pager::PlainPager;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// This thread's allocations inside its measured window; `None`
    /// outside one (const-initialised and without a destructor, so
    /// touching it never allocates).
    static MEASURED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = MEASURED.try_with(|m| m.set(m.get().map(|n| n + 1)));
}

/// Run `work` and return what it returned with how often it allocated.
fn measured<T>(work: impl FnOnce() -> T) -> (T, u64) {
    MEASURED.set(Some(0));
    let out = work();
    (out, MEASURED.replace(None).expect("window open"))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A table of `rows` fixed-width rows (every morsel decodes the same
/// number of lanes, so buffers sized by the first morsel fit the rest).
fn table(rows: i64) -> Database {
    let mut db = Database::new(PlainPager::new());
    db.execute("CREATE TABLE t (k INT, day TEXT, price FLOAT, note TEXT, pos INT)").unwrap();
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Text(format!("1995-{:02}-{:02}", i % 12 + 1, i % 28 + 1)),
                Value::Float(i as f64 * 0.25),
                Value::Text("x".repeat(60)),
                Value::Int(i % 50),
            ]
        })
        .collect();
    db.insert_rows("t", rows).unwrap();
    db
}

/// Plan (outside the count) and drain (inside it) a scan whose predicate
/// rejects every row; returns (allocations while draining, morsels read).
fn drain_rejecting_scan(db: &Database) -> (u64, u64) {
    let sql = "SELECT k, note FROM t \
               WHERE day >= '1996-01-01' AND price BETWEEN 1.0 AND 2.0 AND k IN (1, 2) \
               OR note LIKE 'y%' OR day IS NULL";
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { unreachable!() };
    let opts = ExecOptions { morsel_pages: 4, ..ExecOptions::serial() };
    let mut plan = plan_select_with(db.catalog(), db.pager(), &sel, &opts).unwrap();
    let (drained, allocations) = measured(|| plan.next_batch());
    assert!(!drained.unwrap(), "the predicate rejects every row");
    (allocations, opts.metrics.morsels.get())
}

#[test]
fn a_scan_that_rejects_every_row_allocates_nothing_per_morsel_after_the_first() {
    let (small, large) = (table(2_000), table(20_000));
    let (small_allocs, small_morsels) = drain_rejecting_scan(&small);
    let (large_allocs, large_morsels) = drain_rejecting_scan(&large);
    assert!(small_morsels >= 2 && large_morsels >= 8 * small_morsels);
    // The first morsel sizes the page buffer, the column batch, the
    // selection bitmap and the truth-kernel scratch; every later morsel
    // reuses them — ten times the morsels, not one allocation more.
    assert_eq!(
        large_allocs, small_allocs,
        "{large_morsels} morsels allocated {large_allocs} times, {small_morsels} morsels {small_allocs}"
    );
    assert!(small_allocs > 0, "the counting allocator is live");
}

/// A `rows`-row table shaped like TPC-H `lineitem` — sixteen columns of
/// keys, prices, one-letter flags, dates and short text — every row the
/// same width.
fn lineitem(rows: i64) -> Database {
    let mut db = Database::new(PlainPager::new());
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_suppkey INT, l_linenumber INT, \
         l_quantity FLOAT, l_extendedprice FLOAT, l_discount FLOAT, l_tax FLOAT, l_returnflag TEXT, \
         l_linestatus TEXT, l_shipdate TEXT, l_commitdate TEXT, l_receiptdate TEXT, \
         l_shipinstruct TEXT, l_shipmode TEXT, l_comment TEXT)",
    )
    .unwrap();
    let date = |i: i64| Value::Text(format!("199{}-{:02}-{:02}", i % 7 + 2, i % 12 + 1, i % 28 + 1));
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i / 4),
                Value::Int(i % 200),
                Value::Int(i % 10),
                Value::Int(i % 4 + 1),
                Value::Float((i % 50 + 1) as f64),
                Value::Float(i as f64 * 1.5),
                Value::Float((i % 11) as f64 / 100.0),
                Value::Float((i % 9) as f64 / 100.0),
                Value::Text(["A", "N", "R"][i as usize % 3].into()),
                Value::Text(["F", "O"][i as usize % 2].into()),
                date(i),
                date(i + 3),
                date(i + 5),
                Value::Text("DELIVER IN PERSON".into()),
                Value::Text("TRUCK".into()),
                Value::Text(format!("comment {:05} of lineitem", i % 100_000)),
            ]
        })
        .collect();
    db.insert_rows("lineitem", rows).unwrap();
    db
}

/// Drain the partitioner's `lineitem` fragment of TPC-H Q1 (plain
/// columns, in its order, under its pushed predicate) encoded into an
/// `out` already grown by one drain of the same fragment, planned outside
/// the count; returns (allocations while draining, morsels read, rows).
fn drain_fragment(db: &Database) -> (u64, u64, usize) {
    let sql = "SELECT l_discount, l_extendedprice, l_linestatus, l_quantity, l_returnflag, \
               l_shipdate, l_tax FROM lineitem WHERE l_shipdate <= '1998-09-02'";
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { unreachable!() };
    let opts = ExecOptions { morsel_pages: 4, ..ExecOptions::serial() };
    let plan = || RowCursor::new(plan_select_with(db.catalog(), db.pager(), &sel, &opts).unwrap());
    let mut out = EncodedRows::new();
    plan().drain_encoded(&mut out).unwrap();
    let rows = out.len();
    out.clear();
    opts.metrics.morsels.reset();
    let mut cursor = plan();
    let (drained, allocations) = measured(|| cursor.drain_encoded(&mut out));
    drained.unwrap();
    assert_eq!(out.len(), rows, "the same rows, twice");
    (allocations, opts.metrics.morsels.get(), rows)
}

#[test]
fn an_encoded_fragment_allocates_nothing_per_morsel_after_the_first() {
    let (small, large) = (lineitem(2_000), lineitem(20_000));
    let (small_allocs, small_morsels, small_rows) = drain_fragment(&small);
    let (large_allocs, large_morsels, large_rows) = drain_fragment(&large);
    assert!(small_morsels >= 2 && large_morsels >= 8 * small_morsels);
    assert!(small_rows > 0 && large_rows > 8 * small_rows, "{small_rows} / {large_rows} rows kept");
    // The first morsel sizes the page buffer, the offset table, the
    // predicate's lanes, the selection and the truth-kernel scratch;
    // every survivor's cells are copied from the page into `out`, whose
    // buffers the first drain grew — ten times the morsels, not one
    // allocation more.
    assert_eq!(
        large_allocs, small_allocs,
        "{large_morsels} morsels allocated {large_allocs} times, {small_morsels} morsels {small_allocs}"
    );
    assert!(small_allocs > 0, "the counting allocator is live");
}

/// Plan (outside the count) and drain (inside it) a join that probes
/// `t` — every row of which meets exactly one of the 50 build rows — and
/// projects both sides; returns (allocations while draining, lanes out).
fn drain_join(db: &mut Database) -> (u64, u64) {
    if db.catalog().table("dim").is_err() {
        db.execute("CREATE TABLE dim (d_k INT, d_name TEXT)").unwrap();
        let dims = (0..50).map(|i| vec![Value::Int(i), Value::Text(format!("dim-{i:04}"))]).collect();
        db.insert_rows("dim", dims).unwrap();
    }
    let sql = "SELECT price, day, d_name FROM t, dim WHERE pos = d_k";
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { unreachable!() };
    let opts = ExecOptions { morsel_pages: 4, ..ExecOptions::serial() };
    let mut plan = plan_select_with(db.catalog(), db.pager(), &sel, &opts).unwrap();
    let (drained, allocations) = measured(|| {
        let mut more = Ok(true);
        while matches!(more, Ok(true)) {
            more = plan.next_batch();
        }
        more
    });
    drained.unwrap();
    (allocations, plan.rows_out())
}

#[test]
fn a_join_probe_allocates_nothing_per_batch_once_its_buffers_are_warm() {
    let (mut small, mut large) = (table(3_000), table(30_000));
    let (small_allocs, small_rows) = drain_join(&mut small);
    let (large_allocs, large_rows) = drain_join(&mut large);
    assert_eq!((small_rows, large_rows), (3_000, 30_000));
    // The build side (arena, index), the first probe morsel (page buffer,
    // batch, selection), the first full output batch (pair lists, output
    // columns and text arenas) and the projection over it size every
    // buffer; after that a probe batch is hashed from its lanes, matched
    // along `u32` chains and gathered into the same vectors — ten times
    // the probe rows, not one allocation more.
    assert_eq!(
        large_allocs, small_allocs,
        "{large_rows} probe rows allocated {large_allocs} times, {small_rows} rows {small_allocs}"
    );
    assert!(small_allocs > 0, "the counting allocator is live");
}

#[test]
fn a_one_row_update_allocates_nothing_per_row_or_per_text_cell() {
    let (mut small, mut large) = (table(2_000), table(20_000));
    let update = "UPDATE t SET pos = pos + 1 WHERE k = 17";
    let (small_result, small_allocs) = measured(|| small.execute(update));
    let (large_result, large_allocs) = measured(|| large.execute(update));
    assert_eq!(small_result.unwrap(), QueryResult::Count(1));
    assert_eq!(large_result.unwrap(), QueryResult::Count(1));
    // Parsing, binding, the first morsel's buffers, one `SET` vector for
    // the one morsel with a hit and one page image to pack into are paid
    // once whatever the table's size; every row is decoded into the same
    // column batch and re-encoded into one `EncodedRows`. Ten times the
    // rows only double three vectors (its bytes, its row ends, the page
    // list) a few more times each: log2(10) < 4.
    assert!(
        large_allocs <= small_allocs + 3 * 4,
        "20 000 rows allocated {large_allocs} times, 2 000 rows {small_allocs}"
    );
    assert!(small_allocs > 0, "the counting allocator is live");
}
