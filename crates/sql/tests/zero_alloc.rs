//! Proves the scan kernel allocates nothing per morsel in steady state.
//!
//! Uses a counting global allocator (the pattern of
//! `crates/storage/tests/zero_alloc.rs`) that counts only the measuring
//! thread: the test harness's own main thread allocates a few times while
//! it waits, at a moment that can fall inside the measured window.

use ironsafe_sql::ast::Statement;
use ironsafe_sql::exec::ExecOptions;
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::plan::plan_select_with;
use ironsafe_sql::{Database, Value};
use ironsafe_storage::pager::PlainPager;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside the measured window (const-initialised
    /// and without a destructor, so touching it never allocates).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
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
    db.execute("CREATE TABLE t (k INT, day TEXT, price FLOAT, note TEXT)").unwrap();
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Text(format!("1995-{:02}-{:02}", i % 12 + 1, i % 28 + 1)),
                Value::Float(i as f64 * 0.25),
                Value::Text("x".repeat(60)),
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
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.set(true);
    let drained = plan.next();
    MEASURING.set(false);
    assert!(drained.unwrap().is_none(), "the predicate rejects every row");
    (ALLOCATIONS.load(Ordering::SeqCst) - before, opts.metrics.morsels.get())
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
