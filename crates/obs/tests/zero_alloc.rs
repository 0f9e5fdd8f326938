//! Proves the telemetry hot path allocates nothing.
//!
//! Uses a counting global allocator that counts only the measuring
//! thread: the test harness's own main thread allocates a few times while
//! it waits, at a moment that can fall inside the measured window.

use ironsafe_obs::metrics::{Counter, Registry};
use ironsafe_obs::span::{add_sim_ns, Span, TraceCtx};
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.set(true);
    f();
    MEASURING.set(false);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn disabled_telemetry_hot_path_is_allocation_free() {
    // Set-up may allocate: registry, name interning, handle clones.
    let registry = Registry::new();
    let reads = registry.counter("storage.page.read");
    let verifies = registry.counter("storage.page.hmac_verify");
    let owned = Counter::new();
    let histogram = registry.histogram("storage.merkle.path_len");

    // Warm the thread-local span slot outside the measured region.
    drop(Span::enter("warmup"));

    // The secure-pager read path with telemetry disabled (no installed
    // trace): counter bumps, histogram record, span enter/exit, sim-time
    // attribution. None of it may heap-allocate.
    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            let ctx = TraceCtx::query(i).with_morsel(i).with_page_batch(i).install();
            let span = Span::enter("storage/page_read");
            reads.inc();
            verifies.inc();
            owned.add(2);
            histogram.record(i & 0xff);
            span.add_sim_ns("crypto", 100.0);
            span.fail("storage.device.read");
            add_sim_ns("ndp", 50.0);
            drop(span);
            drop(ctx);
        }
    });
    assert_eq!(allocs, 0, "telemetry hot path allocated {allocs} times");
    let live = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(live > 0, "the counting allocator is live");

    assert_eq!(reads.get(), 10_000);
    assert_eq!(histogram.count(), 10_000);
}
