//! Enclave Page Cache (EPC) simulator.
//!
//! SGX machines of the paper's generation expose ~96 MiB of usable EPC.
//! When an enclave's working set exceeds it, the kernel transparently
//! encrypts/evicts pages ("EPC paging"), which the paper identifies as the
//! dominant host-side cost for large inputs (Figure 9a). This module models
//! the EPC as an exact LRU cache over 4 KiB page identifiers and counts
//! hits and faults; the CSA cost model later converts faults into time.

use ironsafe_obs::{Counter, Registry};
use std::collections::HashMap;

/// Page size used across IronSafe (matches the paper's 4 KiB units).
pub const PAGE_SIZE: usize = 4096;

const NIL: usize = usize::MAX;

/// An exact-LRU simulator over abstract page identifiers.
///
/// Implemented as a hash map into an intrusive doubly-linked list stored in
/// a slab, giving O(1) access and eviction.
#[derive(Debug)]
pub struct EpcSimulator {
    capacity_pages: usize,
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    faults: u64,
    evictions: u64,
    metrics: EpcMetrics,
}

/// Live telemetry counters mirroring the simulator's hit/fault/eviction
/// tallies, attachable to a [`Registry`] under `tee.epc.*`.
#[derive(Debug, Clone, Default)]
pub struct EpcMetrics {
    /// Resident-page touches (`tee.epc.hit`).
    pub hits: Counter,
    /// Page faults (`tee.epc.fault`).
    pub faults: Counter,
    /// LRU evictions (`tee.epc.eviction`).
    pub evictions: Counter,
}

impl EpcMetrics {
    /// Attach every cell to `registry` under its `tee.epc.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("tee.epc.hit", &self.hits);
        registry.register_counter("tee.epc.fault", &self.faults);
        registry.register_counter("tee.epc.eviction", &self.evictions);
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    page: u64,
    prev: usize,
    next: usize,
}

impl EpcSimulator {
    /// Create an EPC of `capacity_bytes` (rounded down to whole pages).
    pub fn new(capacity_bytes: usize) -> Self {
        let capacity_pages = (capacity_bytes / PAGE_SIZE).max(1);
        EpcSimulator {
            capacity_pages,
            map: HashMap::with_capacity(capacity_pages),
            nodes: Vec::with_capacity(capacity_pages),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            faults: 0,
            evictions: 0,
            metrics: EpcMetrics::default(),
        }
    }

    /// Handles onto the live telemetry counters.
    pub fn metrics(&self) -> &EpcMetrics {
        &self.metrics
    }

    /// Attach the simulator's counters to `registry` (`tee.epc.*`).
    pub fn register_metrics(&self, registry: &Registry) {
        self.metrics.register(registry);
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.map.len()
    }

    /// Fraction of the EPC currently occupied, in `[0.0, 1.0]`: a
    /// side-effect-free snapshot (no LRU mutation, no counter bumps).
    pub fn occupancy_ratio(&self) -> f64 {
        self.map.len() as f64 / self.capacity_pages as f64
    }

    /// Pages that can still be faulted in before the LRU must evict.
    pub fn headroom_pages(&self) -> usize {
        self.capacity_pages - self.map.len()
    }

    /// Touch `page`; returns `true` on a fault (page was not resident).
    pub fn access(&mut self, page: u64) -> bool {
        if let Some(&idx) = self.map.get(&page) {
            self.hits += 1;
            self.metrics.hits.inc();
            self.move_to_front(idx);
            return false;
        }
        self.faults += 1;
        self.metrics.faults.inc();
        if self.map.len() == self.capacity_pages {
            self.evict_lru();
        }
        let idx = self.alloc_node(page);
        self.push_front(idx);
        self.map.insert(page, idx);
        true
    }

    /// Touch a contiguous run of pages; returns the number of faults.
    pub fn access_range(&mut self, first_page: u64, count: u64) -> u64 {
        let mut f = 0;
        for p in first_page..first_page + count {
            if self.access(p) {
                f += 1;
            }
        }
        f
    }

    /// Remove a page (e.g. enclave frees memory).
    pub fn invalidate(&mut self, page: u64) {
        if let Some(idx) = self.map.remove(&page) {
            self.unlink(idx);
            self.free.push(idx);
        }
    }

    /// Drop everything (enclave teardown).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Total faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Reset counters, keeping residency.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.faults = 0;
        self.evictions = 0;
    }

    fn alloc_node(&mut self, page: u64) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node { page, prev: NIL, next: NIL };
            idx
        } else {
            self.nodes.push(Node { page, prev: NIL, next: NIL });
            self.nodes.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL);
        let page = self.nodes[idx].page;
        self.unlink(idx);
        self.map.remove(&page);
        self.free.push(idx);
        self.evictions += 1;
        self.metrics.evictions.inc();
    }
}

/// Enclave-memory budget of one verified-Merkle-node cache entry: a
/// `(level, index)` coordinate plus hash-set overhead, rounded up to 16
/// bytes. The cache stores coordinates, not hashes — the node hashes
/// themselves stay in the (untrusted-resident, but integrity-chained)
/// tree levels.
pub const VERIFIED_NODE_ENTRY_BYTES: usize = 16;

/// Size the secure pager's verified-node cache against the EPC budget:
/// the cache may use at most the enclave memory the paper's generation
/// exposes, one [`VERIFIED_NODE_ENTRY_BYTES`] per node, floored at 1024
/// entries so pathological budgets still leave a working cache.
///
/// At the default 96 MiB EPC this yields ~6.3 M entries — far above the
/// node count of any bench-scale tree, so eviction (which is wholesale
/// and would make visit totals order-dependent) never triggers outside
/// the dedicated eviction tests.
pub fn verified_node_cache_capacity(epc_limit_bytes: u64) -> usize {
    ((epc_limit_bytes as usize) / VERIFIED_NODE_ENTRY_BYTES).max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_epc_no_refaults() {
        let mut epc = EpcSimulator::new(8 * PAGE_SIZE);
        assert_eq!(epc.access_range(0, 8), 8, "cold faults");
        assert_eq!(epc.access_range(0, 8), 0, "warm hits");
        assert_eq!(epc.faults(), 8);
        assert_eq!(epc.hits(), 8);
        assert_eq!(epc.evictions(), 0);
    }

    #[test]
    fn sequential_scan_larger_than_epc_thrashes() {
        // Classic LRU pathological case: scanning N+1 pages through an
        // N-page cache faults on every access — exactly the paper's
        // "EPC paging" cliff.
        let mut epc = EpcSimulator::new(4 * PAGE_SIZE);
        for _ in 0..3 {
            epc.access_range(0, 5);
        }
        assert_eq!(epc.faults(), 15);
        assert_eq!(epc.hits(), 0);
    }

    #[test]
    fn lru_order_is_respected() {
        let mut epc = EpcSimulator::new(2 * PAGE_SIZE);
        epc.access(1);
        epc.access(2);
        epc.access(1); // 1 is now MRU; 2 is LRU
        epc.access(3); // evicts 2
        assert!(!epc.access(1), "1 still resident");
        assert!(epc.access(2), "2 was evicted");
    }

    #[test]
    fn invalidate_frees_slot() {
        let mut epc = EpcSimulator::new(2 * PAGE_SIZE);
        epc.access(1);
        epc.access(2);
        epc.invalidate(1);
        assert_eq!(epc.resident_pages(), 1);
        epc.access(3);
        assert_eq!(epc.evictions(), 0, "no eviction needed after invalidate");
        assert!(!epc.access(2));
        assert!(!epc.access(3));
    }

    #[test]
    fn minimum_capacity_is_one_page() {
        let mut epc = EpcSimulator::new(10); // less than a page
        assert_eq!(epc.capacity_pages(), 1);
        epc.access(1);
        epc.access(2);
        assert_eq!(epc.evictions(), 1);
    }

    #[test]
    fn clear_resets_residency() {
        let mut epc = EpcSimulator::new(4 * PAGE_SIZE);
        epc.access_range(0, 4);
        epc.clear();
        assert_eq!(epc.resident_pages(), 0);
        assert_eq!(epc.access_range(0, 4), 4);
    }

    #[test]
    fn occupancy_ratio_reflects_residency_without_side_effects() {
        let mut epc = EpcSimulator::new(8 * PAGE_SIZE);
        assert_eq!(epc.occupancy_ratio(), 0.0);
        assert_eq!(epc.headroom_pages(), 8);
        epc.access_range(0, 4);
        assert_eq!(epc.occupancy_ratio(), 0.5);
        assert_eq!(epc.headroom_pages(), 4);
        let (h, f) = (epc.hits(), epc.faults());
        let _ = epc.occupancy_ratio();
        let _ = epc.headroom_pages();
        assert_eq!((epc.hits(), epc.faults()), (h, f), "reads are pure");
    }

    #[test]
    fn verified_node_cache_capacity_tracks_epc_budget() {
        // Default 96 MiB EPC: millions of entries — no eviction at bench
        // scale (a SF 0.003 tree has a few thousand nodes).
        let cap = verified_node_cache_capacity(96 * 1024 * 1024);
        assert_eq!(cap, 96 * 1024 * 1024 / VERIFIED_NODE_ENTRY_BYTES);
        assert!(cap > 1_000_000);
        // Tiny budgets floor at a working minimum.
        assert_eq!(verified_node_cache_capacity(0), 1024);
        assert_eq!(verified_node_cache_capacity(1), 1024);
        // Monotone in the budget.
        assert!(
            verified_node_cache_capacity(32 * 1024 * 1024)
                <= verified_node_cache_capacity(96 * 1024 * 1024)
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn residency_never_exceeds_capacity(
                cap_pages in 1usize..16,
                accesses in proptest::collection::vec(0u64..64, 0..512),
            ) {
                let mut epc = EpcSimulator::new(cap_pages * PAGE_SIZE);
                for a in accesses {
                    epc.access(a);
                    prop_assert!(epc.resident_pages() <= cap_pages);
                }
                prop_assert_eq!(epc.faults() , epc.evictions() + epc.resident_pages() as u64);
            }

            #[test]
            fn repeat_access_within_capacity_always_hits(
                cap_pages in 2usize..32,
                page in 0u64..1000,
            ) {
                let mut epc = EpcSimulator::new(cap_pages * PAGE_SIZE);
                epc.access(page);
                prop_assert!(!epc.access(page));
            }

            #[test]
            fn faults_monotone_in_working_set_size(
                cap_pages in 1usize..16,
                working_set in 1u64..48,
                rounds in 1u64..6,
            ) {
                // For a fixed cyclic-scan trace shape, growing the working
                // set can never reduce the fault count.
                let run = |pages: u64| {
                    let mut epc = EpcSimulator::new(cap_pages * PAGE_SIZE);
                    for _ in 0..rounds {
                        epc.access_range(0, pages);
                    }
                    epc.faults()
                };
                prop_assert!(run(working_set) <= run(working_set + 1));
            }

            #[test]
            fn lru_inclusion_property(
                cap_pages in 1usize..12,
                accesses in proptest::collection::vec(0u64..32, 1..256),
            ) {
                // LRU is a stack algorithm: on any trace, a larger EPC
                // never faults more than a smaller one.
                let run = |cap: usize| {
                    let mut epc = EpcSimulator::new(cap * PAGE_SIZE);
                    for &a in &accesses {
                        epc.access(a);
                    }
                    epc.faults()
                };
                prop_assert!(run(cap_pages) >= run(cap_pages + 1));
            }

            #[test]
            fn zero_refaults_when_trace_fits_epc(
                cap_pages in 1usize..32,
                rounds in 2u64..6,
            ) {
                // A working set that fits pays only its cold faults —
                // every later round hits; nothing is ever evicted.
                let pages = cap_pages as u64;
                let mut epc = EpcSimulator::new(cap_pages * PAGE_SIZE);
                for _ in 0..rounds {
                    epc.access_range(0, pages);
                }
                prop_assert_eq!(epc.faults(), pages, "cold faults only");
                prop_assert_eq!(epc.evictions(), 0);
                prop_assert_eq!(epc.hits(), (rounds - 1) * pages);
            }
        }
    }
}
