//! Proves `Group::pow_g` does its arithmetic without the heap: the only
//! allocation is the `BigUint` it returns, whatever the exponent.
//!
//! Uses a counting global allocator that counts only the measuring
//! thread: the test harness's own main thread allocates a few times while
//! it waits, at a moment that can fall inside the measured window.

use ironsafe_crypto::bignum::BigUint;
use ironsafe_crypto::group::Group;
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
fn pow_g_allocates_only_its_result() {
    for group in [Group::modp_1024(), Group::tiny_test()] {
        // Set-up may allocate: the group's constants and comb, exponents.
        let q = group.q().clone();
        let q_minus_1 = BigUint::from_bytes_be(&{
            let mut b = q.to_bytes_be();
            *b.last_mut().unwrap() -= 1; // q is odd
            b
        });
        let exponents = [
            BigUint::zero(),
            BigUint::one(),
            q_minus_1,
            q,
            BigUint::from_bytes_be(&[0xa5; 20]),
            BigUint::from_bytes_be(&[0xff; 64]),
        ];
        for exp in &exponents {
            let mut out = None;
            let allocs = allocations_during(|| out = Some(group.pow_g(std::hint::black_box(exp))));
            assert_eq!(allocs, 1, "pow_g({exp:?}) allocated {allocs} times: only the result may");
            drop(out);
        }
    }
    let live = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(live > 0, "the counting allocator is live");
}
