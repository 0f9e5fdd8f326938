//! Copy-on-write read views over a shared pager.
//!
//! The serving layer runs many queries concurrently against **one**
//! storage-resident database. Two problems stand in the way of doing
//! that with the plain [`Pager`] stack:
//!
//! 1. *Isolation*: multi-stage queries materialize temporary tables, and
//!    the catalog checkpoint path rewrites meta pages. Letting every
//!    session write into the shared store would corrupt it (and make
//!    page allocation order — hence Merkle paths, hence simulated cost —
//!    depend on thread interleaving).
//! 2. *Accounting*: [`PagerStats`] live inside the shared pager, so a
//!    before/after delta taken by one query would absorb the reads of
//!    every query running next to it.
//!
//! [`ViewPager`] solves both. Reads of base pages fall through to the
//! shared pager; **all** writes (temporary tables, catalog chains,
//! copy-on-write updates of base pages) land in a private overlay that
//! dies with the view. Cost counters are kept per view: on a cache miss
//! the base pager's counter delta is captured *under the base pager's
//! own lock*, stored next to the decrypted payload in the shared
//! [`PageCache`], and replayed on every later hit. A page therefore
//! charges the same decrypt/Merkle work to every query that reads it, no
//! matter which query happened to decrypt it first — simulated costs
//! stay bit-identical run-to-run while the wall clock benefits from
//! decrypt-once sharing.
//!
//! For the same reason, the serving layer disables the base pager's
//! verified-node cache (see
//! [`SecurePager::set_merkle_cache_enabled`](crate::SecurePager::set_merkle_cache_enabled)) and
//! view batch reads fall through to per-page base reads on misses: the
//! replayed first-read delta must not depend on which pages some *other*
//! session's scan already authenticated or on how a batch happened to be
//! composed. Single-session systems keep the freshness fast path.

use crate::codec::PAGE_PAYLOAD;
use crate::mvcc::SnapshotPin;
use crate::pager::{PageId, Pager, PagerStats};
use crate::{Result, StorageError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The dynamically-typed shared pager handle the SQL engine uses
/// (mirrors `ironsafe_sql::heap::SharedPager`, which this crate cannot
/// name without a dependency cycle).
pub type SharedDynPager = Arc<Mutex<dyn Pager + Send>>;

/// One decrypted base page plus the counter delta its first read cost.
#[derive(Debug)]
struct CachedPage {
    payload: Box<[u8]>,
    delta: PagerStats,
}

#[derive(Debug, Default)]
struct CacheState {
    pages: HashMap<PageId, CachedPage>,
    /// `(num_pages, page_writes)` of the base pager the cached payloads
    /// were read from; any change means the base mutated underneath us.
    mark: Option<(u64, u64)>,
}

/// Shared decrypted-page cache, validity-checked against base writes.
///
/// One cache is attached to one base pager; every [`ViewPager`] over
/// that base clones the same `Arc<PageCache>`. The cache is cleared
/// whenever a view is created after the base pager was written to
/// (exclusive-path DML, bulk loads) — readers never see stale payloads
/// because view creation and base writes are serialized by the caller
/// (a `RwLock` in the CSA layer).
#[derive(Debug, Default)]
pub struct PageCache {
    inner: Mutex<CacheState>,
}

impl PageCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached pages (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached page.
    pub fn clear(&self) {
        let mut st = self.inner.lock();
        st.pages.clear();
        st.mark = None;
    }

    /// Invalidate the cache if the base pager changed since it was
    /// filled (detected via its page/write counters).
    fn sync(&self, mark: (u64, u64)) {
        let mut st = self.inner.lock();
        if st.mark != Some(mark) {
            st.pages.clear();
            st.mark = Some(mark);
        }
    }

    /// Drop one page (the writer flush invalidates exactly the pages a
    /// commit overwrote, instead of clearing the whole cache).
    pub fn invalidate(&self, id: PageId) {
        self.inner.lock().pages.remove(&id);
    }

    /// Clone out a cached payload with its recorded first-read delta.
    /// The writer flush uses this as the retained MVCC pre-image when
    /// available, saving a base re-read.
    pub fn entry(&self, id: PageId) -> Option<(Vec<u8>, PagerStats)> {
        self.inner.lock().pages.get(&id).map(|p| (p.payload.to_vec(), p.delta))
    }

    /// Copy a cached payload straight into `buf`; returns the recorded
    /// first-read delta on a hit.
    fn copy_into(&self, id: PageId, buf: &mut [u8]) -> Option<PagerStats> {
        let st = self.inner.lock();
        let page = st.pages.get(&id)?;
        buf.copy_from_slice(&page.payload);
        Some(page.delta)
    }

    fn put(&self, id: PageId, page: CachedPage) {
        self.inner.lock().pages.entry(id).or_insert(page);
    }
}

/// Transactions a writer has applied to its group-commit buffer but not
/// yet flushed to the base pager: later statements in the same group
/// read through this layer so they see their predecessors' effects.
#[derive(Default)]
pub struct PendingTxns {
    pages: HashMap<PageId, Vec<u8>>,
    next_id: u64,
}

impl PendingTxns {
    /// Fold one transaction's overlay into the buffer.
    pub fn merge(&mut self, overlay: HashMap<PageId, Vec<u8>>, next_id: u64) {
        self.pages.extend(overlay);
        self.next_id = self.next_id.max(next_id);
    }

    /// The buffered image of page `id`, if any.
    pub fn get(&self, id: PageId) -> Option<&Vec<u8>> {
        self.pages.get(&id)
    }

    /// First id past the buffered allocations (0 when empty).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Buffered page count.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no transaction is buffered.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Drain the buffer for a flush, in deterministic apply order:
    /// in-place writes (ascending id) before appends (ascending id).
    pub fn drain_sorted(&mut self) -> Vec<(PageId, Vec<u8>)> {
        let mut pages: Vec<(PageId, Vec<u8>)> = self.pages.drain().collect();
        pages.sort_by_key(|(id, _)| *id);
        self.next_id = 0;
        pages
    }
}

/// Shared handle to a writer group's pending-transaction buffer.
pub type SharedPending = Arc<Mutex<PendingTxns>>;

/// How a [`ViewPager`] resolves base pages (see constructor docs).
enum ViewMode {
    /// Legacy single-writer mode: the cache is sync'd against base
    /// mutation marks at open; base reads fall straight through.
    Exclusive,
    /// MVCC snapshot reader: pinned to the epoch current at open; pages
    /// overwritten since are served from the retained pre-images.
    Pinned(SnapshotPin),
    /// The writer's view: sees the committed state plus the group's
    /// buffered-but-unflushed transactions.
    Writer(SharedPending),
}

/// A per-query copy-on-write pager over a shared base pager.
///
/// *Reads* of base pages go through the shared [`PageCache`]; *writes*
/// and fresh allocations live in a private overlay (plain host memory —
/// they model per-session temporaries, which never touch the secure
/// medium and pay no page crypto). The view's [`PagerStats`] count only
/// this view's work, deterministically (see module docs).
pub struct ViewPager {
    base: SharedDynPager,
    cache: Arc<PageCache>,
    /// Pages `< base_pages` belong to the shared base store.
    base_pages: u64,
    overlay: HashMap<PageId, Vec<u8>>,
    next_id: u64,
    stats: PagerStats,
    mode: ViewMode,
}

impl ViewPager {
    /// Open a view over `base`, sharing `cache` with sibling views.
    ///
    /// Must be called while base writes are excluded (the CSA layer
    /// holds a read lock on the owning system for the view's lifetime).
    pub fn over(base: SharedDynPager, cache: Arc<PageCache>) -> Self {
        let (base_pages, mark) = {
            let b = base.lock();
            (b.num_pages(), (b.num_pages(), b.stats().page_writes))
        };
        cache.sync(mark);
        ViewPager {
            base,
            cache,
            base_pages,
            overlay: HashMap::new(),
            next_id: base_pages,
            stats: PagerStats::default(),
            mode: ViewMode::Exclusive,
        }
    }

    /// Open an MVCC snapshot view pinned to `pin`'s epoch: the id space
    /// is bounded to the pinned state's page count, pages overwritten by
    /// later commits are served from the retained pre-images, and the
    /// shared cache is used *without* the mark sync (the writer keeps it
    /// coherent by invalidating exactly the pages each flush touches).
    pub fn over_pinned(base: SharedDynPager, cache: Arc<PageCache>, pin: SnapshotPin) -> Self {
        let base_pages = pin.base_pages();
        ViewPager {
            base,
            cache,
            base_pages,
            overlay: HashMap::new(),
            next_id: base_pages,
            stats: PagerStats::default(),
            mode: ViewMode::Pinned(pin),
        }
    }

    /// Open the writer's view: the committed base state plus the
    /// group-commit buffer in `pending` (earlier transactions of the
    /// same group that have not been flushed yet). Writes land in the
    /// private overlay as usual; the caller extracts them with
    /// [`ViewPager::take_txn`] when the statement commits.
    pub fn over_writer(base: SharedDynPager, cache: Arc<PageCache>, pending: SharedPending) -> Self {
        let base_pages = base.lock().num_pages();
        let next_id = base_pages.max(pending.lock().next_id());
        ViewPager {
            base,
            cache,
            base_pages,
            overlay: HashMap::new(),
            next_id,
            stats: PagerStats::default(),
            mode: ViewMode::Writer(pending),
        }
    }

    /// Extract the transaction this (writer) view accumulated: the
    /// overlay pages and the id watermark past its allocations. The
    /// overlay is left empty; the view can keep executing (the caller
    /// has merged the pages into the pending buffer it reads through).
    pub fn take_txn(&mut self) -> (HashMap<PageId, Vec<u8>>, u64) {
        (std::mem::take(&mut self.overlay), self.next_id)
    }

    /// Serve a base-page read in pinned mode (see `read_page`).
    fn read_base_pinned(&mut self, pin_buf: &mut [u8], id: PageId) -> Result<PagerStats> {
        let (epoch, snaps) = match &self.mode {
            ViewMode::Pinned(pin) => (pin.epoch(), pin.snapshots().clone()),
            _ => unreachable!("pinned read path"),
        };
        // Fast path: a retained pre-image (page overwritten after the
        // pin) — immutable once stored, so no base lock needed.
        if let Some((img, delta)) = snaps.lookup(id, epoch) {
            pin_buf.copy_from_slice(&img);
            return Ok(delta);
        }
        if let Some(delta) = self.cache.copy_into(id, pin_buf) {
            return Ok(delta);
        }
        // Miss: under the base lock, re-check the retained store (a
        // flush that beat us to the lock retained before overwriting),
        // then read through. The cache insertion happens under the same
        // lock: a flush invalidates overwritten pages while holding the
        // base lock, so a put after release could resurrect a stale
        // image the flush already invalidated.
        let mut b = self.base.lock();
        if let Some((img, delta)) = snaps.lookup(id, epoch) {
            pin_buf.copy_from_slice(&img);
            return Ok(delta);
        }
        let before = b.stats();
        b.read_page(id, pin_buf)?;
        let delta = b.stats() - before;
        self.cache.put(id, CachedPage { payload: pin_buf.to_vec().into_boxed_slice(), delta });
        Ok(delta)
    }
}

impl Pager for ViewPager {
    fn num_pages(&self) -> u64 {
        self.next_id
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let id = self.next_id;
        self.next_id += 1;
        self.overlay.insert(id, vec![0u8; PAGE_PAYLOAD]);
        Ok(id)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize { expected: PAGE_PAYLOAD, got: buf.len() });
        }
        if let Some(data) = self.overlay.get(&id) {
            buf.copy_from_slice(data);
            self.stats.page_reads += 1;
            return Ok(());
        }
        // Writer mode: earlier transactions of the same commit group
        // shadow the base (including appends past the committed range).
        let pending = match &self.mode {
            ViewMode::Writer(p) => Some(Arc::clone(p)),
            _ => None,
        };
        if let Some(p) = pending {
            if let Some(data) = p.lock().get(id) {
                buf.copy_from_slice(data);
                self.stats.page_reads += 1;
                return Ok(());
            }
        }
        if id >= self.base_pages {
            return Err(StorageError::PageOutOfRange(id));
        }
        if matches!(self.mode, ViewMode::Pinned(_)) {
            let delta = self.read_base_pinned(buf, id)?;
            self.stats += delta;
            return Ok(());
        }
        if let Some(delta) = self.cache.copy_into(id, buf) {
            self.stats += delta;
            return Ok(());
        }
        // Miss: read through the base pager, capturing its counter delta
        // under its own lock so concurrent readers cannot pollute it.
        let delta = {
            let mut b = self.base.lock();
            let before = b.stats();
            b.read_page(id, buf)?;
            b.stats() - before
        };
        self.cache.put(id, CachedPage { payload: buf.to_vec().into_boxed_slice(), delta });
        self.stats += delta;
        Ok(())
    }

    /// Batched read: overlay and cache hits are served in place; all
    /// misses are read through the base pager under **one** lock
    /// acquisition (the readahead path of the morsel scanner), each
    /// landing in the shared [`PageCache`]. Per-page deltas are still
    /// captured individually — Merkle path lengths differ per page — so
    /// later cache hits replay exactly what each page cost, and the
    /// view's stats delta is identical to looped single-page reads.
    ///
    /// The batch is atomic with respect to the view's stats and the
    /// shared cache: every delta and cache insertion is staged locally
    /// and committed only after the whole batch succeeded, so a
    /// mid-batch base failure leaves no partial counts and no
    /// partially-populated cache behind (a retried batch would
    /// otherwise double-charge the already-served prefix).
    fn read_pages(&mut self, ids: &[PageId], out: &mut [u8]) -> Result<()> {
        if out.len() != ids.len() * PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize {
                expected: ids.len() * PAGE_PAYLOAD,
                got: out.len(),
            });
        }
        // Pinned/writer modes loop the single-page path (each page may
        // resolve to a different layer: pending buffer, retained version,
        // cache, base). Stats stay batch-atomic via restore-on-error;
        // pages served before a failure were individually complete, so
        // their cache entries are valid and kept.
        if !matches!(self.mode, ViewMode::Exclusive) {
            let before = self.stats;
            for (&id, chunk) in ids.iter().zip(out.chunks_exact_mut(PAGE_PAYLOAD)) {
                if let Err(e) = self.read_page(id, chunk) {
                    self.stats = before;
                    return Err(e);
                }
            }
            return Ok(());
        }
        let mut staged = PagerStats::default();
        let mut misses: Vec<(usize, PageId)> = Vec::new();
        for (i, (&id, chunk)) in
            ids.iter().zip(out.chunks_exact_mut(PAGE_PAYLOAD)).enumerate()
        {
            if let Some(data) = self.overlay.get(&id) {
                chunk.copy_from_slice(data);
                staged.page_reads += 1;
            } else if id >= self.base_pages {
                return Err(StorageError::PageOutOfRange(id));
            } else if let Some(delta) = self.cache.copy_into(id, chunk) {
                staged += delta;
            } else {
                misses.push((i, id));
            }
        }
        let mut puts: Vec<(PageId, CachedPage)> = Vec::with_capacity(misses.len());
        if !misses.is_empty() {
            let mut b = self.base.lock();
            for (i, id) in misses {
                let chunk = &mut out[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD];
                let before = b.stats();
                b.read_page(id, chunk)?;
                let delta = b.stats() - before;
                puts.push((id, CachedPage { payload: chunk.to_vec().into_boxed_slice(), delta }));
                staged += delta;
            }
        }
        // Commit point: the whole batch succeeded.
        self.stats += staged;
        for (id, page) in puts {
            self.cache.put(id, page);
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() != PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize { expected: PAGE_PAYLOAD, got: data.len() });
        }
        if id >= self.next_id {
            return Err(StorageError::PageOutOfRange(id));
        }
        self.overlay.insert(id, data.to_vec());
        self.stats.page_writes += 1;
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        // Overlay pages are per-session scratch; there is nothing durable
        // to flush and the shared base must not observe view commits.
        Ok(())
    }

    fn stats(&self) -> PagerStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PagerStats::default();
    }

    /// The base pager's current block behind page `id`; `None` for a
    /// page this view holds in memory (its overlay, or a writer's pending
    /// buffer) and for ids past its base range, which have no block on
    /// the medium. A pinned view answers with the base's *current*
    /// block, which a commit after the pin may have replaced.
    fn export_block(&self, id: PageId) -> Option<Vec<u8>> {
        let pending = match &self.mode {
            ViewMode::Writer(p) => p.lock().get(id).is_some(),
            _ => false,
        };
        if pending || id >= self.base_pages || self.overlay.contains_key(&id) {
            return None;
        }
        self.base.lock().export_block(id)
    }

    /// A view keeps no telemetry cells: its work is counted in its own
    /// [`PagerStats`], and the base pager's cells see the misses.
    fn register_metrics(&self, _registry: &ironsafe_obs::Registry) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PlainPager;

    impl ViewPager {
        /// The pinned epoch of a snapshot view (`None` for other modes).
        fn pinned_epoch(&self) -> Option<u64> {
            match &self.mode {
                ViewMode::Pinned(pin) => Some(pin.epoch()),
                _ => None,
            }
        }
    }

    fn base_with_pages(n: u64) -> SharedDynPager {
        let mut p = PlainPager::new();
        for i in 0..n {
            let id = p.allocate_page().unwrap();
            let data = vec![i as u8; PAGE_PAYLOAD];
            p.write_page(id, &data).unwrap();
        }
        Arc::new(Mutex::new(p))
    }

    #[test]
    fn reads_fall_through_and_count_locally() {
        let base = base_with_pages(3);
        let cache = Arc::new(PageCache::new());
        let mut v = ViewPager::over(base.clone(), cache);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        v.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        assert_eq!(v.stats().page_reads, 1);
    }

    #[test]
    fn writes_stay_in_the_overlay() {
        let base = base_with_pages(2);
        let cache = Arc::new(PageCache::new());
        let mut v = ViewPager::over(base.clone(), cache.clone());
        let payload = PAGE_PAYLOAD;
        // Copy-on-write of a base page.
        v.write_page(0, &vec![9u8; payload]).unwrap();
        // Fresh allocation.
        let id = v.allocate_page().unwrap();
        assert_eq!(id, 2);
        v.write_page(id, &vec![7u8; payload]).unwrap();
        let mut buf = vec![0u8; payload];
        v.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 9), "view sees its own write");
        v.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        // The base is untouched.
        let mut b = base.lock();
        assert_eq!(b.num_pages(), 2);
        b.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "base page survives COW");
    }

    #[test]
    fn export_block_is_the_base_block_unless_overlaid() {
        let base = base_with_pages(3);
        let mut v = ViewPager::over(base.clone(), Arc::new(PageCache::new()));
        v.write_page(0, &vec![9u8; PAGE_PAYLOAD]).unwrap();
        let fresh = v.allocate_page().unwrap();
        assert_eq!(v.export_block(1), base.lock().export_block(1), "untouched: the base block");
        assert!(v.export_block(1).is_some());
        assert_eq!(v.export_block(0), None, "copy-on-write page lives in the overlay");
        assert_eq!(v.export_block(fresh), None, "fresh page lives in the overlay");
        assert_eq!(v.stats(), PagerStats { page_writes: 1, ..PagerStats::default() });
    }

    #[test]
    fn cache_hits_replay_the_recorded_delta() {
        let base = base_with_pages(4);
        let cache = Arc::new(PageCache::new());
        let mut cold = ViewPager::over(base.clone(), cache.clone());
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        cold.read_page(2, &mut buf).unwrap();
        let cold_stats = cold.stats();
        // A second view hits the cache but must report identical costs.
        let mut warm = ViewPager::over(base, cache.clone());
        warm.read_page(2, &mut buf).unwrap();
        assert_eq!(warm.stats(), cold_stats, "hit and miss charge the same");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn base_writes_invalidate_the_cache() {
        let base = base_with_pages(2);
        let cache = Arc::new(PageCache::new());
        let mut v = ViewPager::over(base.clone(), cache.clone());
        let payload = PAGE_PAYLOAD;
        let mut buf = vec![0u8; payload];
        v.read_page(0, &mut buf).unwrap();
        assert_eq!(cache.len(), 1);
        base.lock().write_page(0, &vec![5u8; payload]).unwrap();
        let mut v2 = ViewPager::over(base, cache.clone());
        assert_eq!(cache.len(), 0, "stale payloads dropped");
        v2.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 5), "fresh read after invalidation");
    }

    #[test]
    fn batched_view_reads_mix_overlay_cache_and_base() {
        let base = base_with_pages(4);
        let cache = Arc::new(PageCache::new());
        let mut v = ViewPager::over(base.clone(), cache.clone());
        let payload = PAGE_PAYLOAD;
        // Warm page 1 into the cache, add an overlay page.
        let mut buf = vec![0u8; payload];
        v.read_page(1, &mut buf).unwrap();
        let ov = v.allocate_page().unwrap();
        v.write_page(ov, &vec![8u8; payload]).unwrap();
        let serial_stats = {
            let mut w = ViewPager::over(base.clone(), cache.clone());
            let wo = w.allocate_page().unwrap();
            w.write_page(wo, &vec![8u8; payload]).unwrap();
            w.reset_stats();
            for id in [3u64, 1, wo, 0] {
                w.read_page(id, &mut buf).unwrap();
            }
            w.stats()
        };
        v.reset_stats();
        let ids = [3u64, 1, ov, 0];
        let mut out = vec![0u8; ids.len() * payload];
        v.read_pages(&ids, &mut out).unwrap();
        assert_eq!(v.stats(), serial_stats, "batched delta equals looped delta");
        for (i, want) in [3u8, 1, 8, 0].iter().enumerate() {
            assert!(out[i * payload..(i + 1) * payload].iter().all(|b| b == want));
        }
        // Misses were cached for later hits (readahead).
        assert!(cache.len() >= 3);
    }

    /// Satellite regression: a mid-batch base failure must leave the
    /// view's stats and the shared cache untouched — no partial counts,
    /// no partially-populated cache.
    #[test]
    fn failed_batch_leaves_stats_and_cache_untouched() {
        use crate::secure_pager::SecurePager;
        use ironsafe_crypto::group::Group;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;

        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let tz = mfr.make_device("view-fault", 8, &mut rng);
        let mut pager = SecurePager::create(tz, 5).unwrap();
        let payload = PAGE_PAYLOAD;
        for i in 0..4u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &vec![i; payload]).unwrap();
        }
        // Page 3 is tampered: a batch [0, 1, 2, 3] serves three pages
        // before dying on the fourth.
        pager.device_mut().raw_tamper(3, 100, 0xff);
        let base: SharedDynPager = Arc::new(Mutex::new(pager));
        let cache = Arc::new(PageCache::new());
        let mut v = ViewPager::over(base, cache.clone());
        let ids = [0u64, 1, 2, 3];
        let mut out = vec![0u8; ids.len() * payload];
        assert!(matches!(
            v.read_pages(&ids, &mut out),
            Err(StorageError::IntegrityViolation(_))
        ));
        assert_eq!(v.stats(), PagerStats::default(), "no partial stats from a failed batch");
        assert!(cache.is_empty(), "no partial cache population from a failed batch");
        // The good pages are still individually readable and charge
        // exactly one read each afterwards.
        let mut buf = vec![0u8; payload];
        v.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        assert_eq!(v.stats().page_reads, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pinned_view_serves_retained_pre_image() {
        use crate::mvcc::Snapshots;

        let base = base_with_pages(3);
        let cache = Arc::new(PageCache::new());
        let snaps = Snapshots::new();
        snaps.publish(1, 3);
        let payload = PAGE_PAYLOAD;
        // Cold read records the first-read delta (and warms the cache).
        let mut probe = ViewPager::over_pinned(base.clone(), cache.clone(), snaps.pin());
        let mut buf = vec![0u8; payload];
        probe.read_page(1, &mut buf).unwrap();
        let cold = probe.stats();
        drop(probe);

        let pin = snaps.pin();
        assert_eq!(pin.epoch(), 1);
        // Writer flush: retain the pre-image (from the cache entry),
        // invalidate the cache, overwrite the base, publish epoch 2.
        let (img, delta) = cache.entry(1).unwrap();
        snaps.retain(1, img.into(), delta, 2);
        cache.invalidate(1);
        base.lock().write_page(1, &vec![0xee; payload]).unwrap();
        snaps.publish(2, 3);

        let mut v = ViewPager::over_pinned(base.clone(), cache.clone(), pin);
        assert_eq!(v.pinned_epoch(), Some(1));
        v.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1), "pinned view sees the pre-image");
        assert_eq!(v.stats(), cold, "retained read replays the first-read delta");
        assert_eq!(snaps.metrics().retained_reads.get(), 1);
        // A fresh pin at the new epoch reads the new image from the base.
        let mut cur = ViewPager::over_pinned(base, cache, snaps.pin());
        cur.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xee));
    }

    #[test]
    fn pinned_view_id_space_is_frozen_at_pin_time() {
        use crate::mvcc::Snapshots;

        let base = base_with_pages(2);
        let cache = Arc::new(PageCache::new());
        let snaps = Snapshots::new();
        snaps.publish(1, 2);
        let pin = snaps.pin();
        // A later commit appends page 2 and publishes epoch 2.
        let payload = PAGE_PAYLOAD;
        {
            let mut b = base.lock();
            let id = b.allocate_page().unwrap();
            b.write_page(id, &vec![3u8; payload]).unwrap();
        }
        snaps.publish(2, 3);
        let mut v = ViewPager::over_pinned(base, cache, pin);
        let mut buf = vec![0u8; payload];
        assert!(
            matches!(v.read_page(2, &mut buf), Err(StorageError::PageOutOfRange(2))),
            "post-pin allocations are invisible to the snapshot"
        );
        // Batch with the invisible page restores the stats wholesale.
        v.read_page(0, &mut buf).unwrap();
        let before = v.stats();
        let ids = [1u64, 2];
        let mut out = vec![0u8; ids.len() * payload];
        assert!(v.read_pages(&ids, &mut out).is_err());
        assert_eq!(v.stats(), before, "failed pinned batch charges nothing");
    }

    #[test]
    fn writer_view_reads_group_pending() {
        let base = base_with_pages(2);
        let cache = Arc::new(PageCache::new());
        let pending: SharedPending = Arc::new(Mutex::new(PendingTxns::default()));
        let payload = PAGE_PAYLOAD;

        // Txn A: overwrite page 0, append page 2, park in the buffer.
        let mut a = ViewPager::over_writer(base.clone(), cache.clone(), pending.clone());
        a.write_page(0, &vec![0xaa; payload]).unwrap();
        let id = a.allocate_page().unwrap();
        assert_eq!(id, 2);
        a.write_page(id, &vec![0xbb; payload]).unwrap();
        let (overlay, next_id) = a.take_txn();
        assert!(a.overlay.is_empty(), "take_txn drains the overlay");
        pending.lock().merge(overlay, next_id);
        drop(a);

        // Txn B (same group) sees A's pages, including the append past
        // the committed base range.
        let mut b = ViewPager::over_writer(base.clone(), cache, pending.clone());
        assert_eq!(b.num_pages(), 3, "id watermark continues past the buffer");
        let mut buf = vec![0u8; payload];
        b.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xaa));
        b.read_page(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xbb));
        assert_eq!(b.stats().page_reads, 2);
        // The base is untouched until the group flushes.
        assert_eq!(base.lock().num_pages(), 2);
        // Drain order: in-place write first, then the append.
        let drained = pending.lock().drain_sorted();
        let ids: Vec<u64> = drained.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(pending.lock().next_id(), 0, "drain resets the watermark");
    }

    #[test]
    fn out_of_range_rejected() {
        let base = base_with_pages(1);
        let cache = Arc::new(PageCache::new());
        let mut v = ViewPager::over(base, cache);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(v.read_page(9, &mut buf), Err(StorageError::PageOutOfRange(9))));
        assert!(matches!(v.write_page(9, &buf), Err(StorageError::PageOutOfRange(9))));
    }
}
