//! Proves the secure read path allocates nothing in steady state.
//!
//! Uses a counting global allocator (the pattern of
//! `crates/obs/tests/zero_alloc.rs`) that counts only the measuring
//! thread: the test harness's own main thread allocates a few times while
//! it waits, at a moment that can fall inside the measured window.

use ironsafe_crypto::group::Group;
use ironsafe_storage::{Pager, SecurePager, PAGE_PAYLOAD};
use ironsafe_tee::trustzone::Manufacturer;
use rand::SeedableRng;
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

const PAGES: u64 = 24;
/// Batch sizes read back to back: a 16-page morsel, 16 plus a 3-page
/// tail, one full pass of lanes, a short group of 3 and lone pages (each
/// size also leaves a shorter tail window of the 24 pages).
const BATCHES: [usize; 5] = [16, 19, 8, 3, 1];

#[test]
fn steady_state_secure_reads_are_allocation_free() {
    // Set-up may allocate: device, keys, Merkle levels, the medium.
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"zero-alloc");
    let tz = mfr.make_device("zero-alloc", 8, &mut rand::rngs::StdRng::seed_from_u64(3));
    let mut pager = SecurePager::create(tz, 9).unwrap();
    let mut page = vec![0u8; PAGE_PAYLOAD];
    for id in 0..PAGES {
        assert_eq!(pager.allocate_page().unwrap(), id);
        page.fill(id as u8 + 1);
        pager.write_page(id, &page).unwrap();
    }
    pager.commit().unwrap();

    let ids: Vec<u64> = (0..PAGES).collect();
    let mut batch = vec![0u8; PAGES as usize * PAGE_PAYLOAD];
    let mut read_everything = |pager: &mut SecurePager| {
        for id in 0..PAGES {
            pager.read_page(id, &mut page).unwrap();
            assert_eq!(page[0], id as u8 + 1);
        }
        for size in BATCHES {
            for window in ids.chunks(size) {
                let out = &mut batch[..window.len() * PAGE_PAYLOAD];
                pager.read_pages(window, out).unwrap();
                let last = window.len() - 1;
                assert_eq!(out[last * PAGE_PAYLOAD], window[last] as u8 + 1);
            }
        }
    };

    // Warm-up: the first pass authenticates every Merkle path into the
    // verified-node cache and sizes the pager's batch scratch buffers.
    read_everything(&mut pager);

    // Steady state: device read, MAC check (in lanes or scalar), CBC
    // decrypt and the freshness check of every page, single and batched —
    // no heap traffic.
    let allocs = allocations_during(|| {
        for _ in 0..20 {
            read_everything(&mut pager);
        }
    });
    assert_eq!(allocs, 0, "secure read path allocated {allocs} times");
    let live = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(live > 0, "the counting allocator is live");
}
