//! Proves the row shipper allocates per result, not per record.
//!
//! Uses a counting global allocator (the pattern of
//! `crates/storage/tests/zero_alloc.rs`, counting only the measuring
//! thread); this file holds a single test.

use ironsafe_csa::net::{RowLink, ROWS_PER_RECORD};
use ironsafe_sql::{EncodedRows, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`allocations_during`] (const-initialised
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.set(true);
    f();
    MEASURING.set(false);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// `n` fixed-width rows (every full record is the same size, so buffers
/// sized by the first one fit the rest).
fn rows(n: u64) -> EncodedRows {
    let mut out = EncodedRows::new();
    for i in 0..n as i64 {
        out.push_row(&[
            Value::Int(i),
            Value::Float(i as f64 * 0.25),
            Value::Text(format!("1995-{:02}-{:02}", i % 12 + 1, i % 28 + 1)),
            Value::Null,
        ]);
    }
    out
}

/// Allocations made shipping `rows` (seal, transit, authenticate, decrypt,
/// validate, deliver) and the rows delivered.
fn ship(rows: &EncodedRows) -> (u64, usize) {
    let mut link = RowLink::new(&[0x5a; 32]);
    let mut delivered = 0;
    let allocs = allocations_during(|| {
        link.ship(4, rows, rows.len(), |frame| {
            delivered += frame.len();
            Ok(())
        })
        .unwrap()
    });
    assert_eq!(link.tx.messages, (rows.len() as u64).div_ceil(ROWS_PER_RECORD));
    (allocs, delivered)
}

#[test]
fn shipping_ten_records_allocates_no_more_than_shipping_one() {
    let (one, ten) = (rows(ROWS_PER_RECORD), rows(10 * ROWS_PER_RECORD));
    let (one_allocs, one_rows) = ship(&one);
    let (ten_allocs, ten_rows) = ship(&ten);
    assert_eq!((one_rows, ten_rows), (one.len(), ten.len()));
    // The first record sizes the wire buffer and the row-end scratch;
    // every later record is sealed, opened and validated in them.
    assert_eq!(ten_allocs, one_allocs, "40 960 rows allocated {ten_allocs} times, 4 096 rows {one_allocs}");
    assert!(one_allocs > 0, "the counting allocator is live");
}
