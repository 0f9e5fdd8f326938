//! Compress-before-encrypt page store.
//!
//! [`CompressedPager`] wraps any [`Pager`] and presents *logical* pages
//! [`COMPRESSED_PAGE_FACTOR`]× larger than the inner pager's physical
//! payload. Each logical page is compressed (RLE, dictionary, or raw
//! fallback — chosen per page, see [`crate::codec::compress_page`]) and
//! the framed result is striped over however many physical pages it
//! needs. Over a [`crate::SecurePager`] this is exactly the paper's
//! compress-before-encrypt pipeline: compression happens on plaintext,
//! *then* each physical block is encrypted, MACed and enrolled as a
//! Merkle leaf — so a page that compresses 4:1 costs one quarter of the
//! encrypted bytes, MACs, Merkle leaves and device I/O, and every one
//! of those savings shows up honestly in the inner pager's
//! [`PagerStats`] (the wrapper reports the inner counters verbatim).
//!
//! The logical→physical block map is deterministic: writes reuse a
//! page's existing blocks in order, allocate extra blocks at the inner
//! tail only when the page grew, and orphan surplus blocks (never
//! reused, never read) when it shrank. A read batch of logical pages
//! issues a single inner `read_pages` over all their stripes, so the
//! secure pager MACs the whole batch in SIMD lanes and the verified-node
//! Merkle cache collapses the freshness climb as it does for morsels.

use crate::codec::{compress_page, decompress_page, Compression, COMPRESS_HEADER};
use crate::pager::{PageId, Pager, PagerStats};
use crate::{Result, StorageError};
use ironsafe_obs::{Counter, Gauge, Registry};

/// Physical pages backing one logical page when stored raw. The raw
/// fallback (header + verbatim payload) fills exactly this many inner
/// pages, so compression can never cost more blocks than no compression.
pub const COMPRESSED_PAGE_FACTOR: usize = 8;

/// Live telemetry cells for the compression layer (`storage.compress.*`).
#[derive(Debug, Clone, Default)]
pub struct CompressMetrics {
    /// Pages stored verbatim (`storage.compress.pages_raw`).
    pub pages_raw: Counter,
    /// Pages stored run-length encoded (`storage.compress.pages_rle`).
    pub pages_rle: Counter,
    /// Pages stored dictionary-coded (`storage.compress.pages_dict`).
    pub pages_dict: Counter,
    /// Stored physical bytes as a percentage of logical bytes across all
    /// page stores (`storage.compress.ratio_pct`).
    pub ratio_pct: Gauge,
}

impl CompressMetrics {
    /// Attach every cell to `registry` under its `storage.compress.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("storage.compress.pages_raw", &self.pages_raw);
        registry.register_counter("storage.compress.pages_rle", &self.pages_rle);
        registry.register_counter("storage.compress.pages_dict", &self.pages_dict);
        registry.register_gauge("storage.compress.ratio_pct", &self.ratio_pct);
    }
}

/// A pager that compresses logical pages before handing physical blocks
/// to the wrapped pager (see the module docs for the layout contract).
pub struct CompressedPager<P: Pager> {
    inner: P,
    /// Logical payload size presented upward.
    payload: usize,
    /// Physical payload size of the wrapped pager.
    inner_payload: usize,
    /// Logical page id → physical block ids, in stripe order.
    map: Vec<Vec<PageId>>,
    /// Staging buffer for physical stripes (reused across calls).
    scratch: Vec<u8>,
    /// The physical block ids of one read batch (reused across calls).
    stripes: Vec<PageId>,
    metrics: CompressMetrics,
    /// Cumulative logical bytes stored (for the ratio gauge).
    logical_bytes: u64,
    /// Cumulative physical bytes occupied by stores (block granular).
    physical_bytes: u64,
}

impl<P: Pager> CompressedPager<P> {
    /// Wrap `inner`, presenting logical pages of
    /// `COMPRESSED_PAGE_FACTOR * inner.payload_size() - COMPRESS_HEADER`
    /// bytes. The wrapped pager must be empty: the block map is built
    /// by this wrapper's own allocations.
    pub fn new(inner: P) -> Self {
        let inner_payload = inner.payload_size();
        CompressedPager {
            payload: COMPRESSED_PAGE_FACTOR * inner_payload - COMPRESS_HEADER,
            inner_payload,
            inner,
            map: Vec::new(),
            scratch: Vec::new(),
            stripes: Vec::new(),
            metrics: CompressMetrics::default(),
            logical_bytes: 0,
            physical_bytes: 0,
        }
    }

    /// The wrapped pager (counter inspection, attacker interfaces).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped pager.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Physical blocks currently backing logical page `id`.
    pub fn blocks_of(&self, id: PageId) -> Result<&[PageId]> {
        self.map
            .get(id as usize)
            .map(|v| v.as_slice())
            .ok_or(StorageError::PageOutOfRange(id))
    }

    /// Total physical blocks currently mapped (orphaned blocks excluded).
    pub fn mapped_blocks(&self) -> u64 {
        self.map.iter().map(|b| b.len() as u64).sum()
    }

    /// The live compression telemetry cells.
    pub fn compress_metrics(&self) -> &CompressMetrics {
        &self.metrics
    }

    /// Compress `data` and stripe it over page `id`'s blocks, growing or
    /// shrinking the block list as the framed size dictates.
    fn store(&mut self, id: usize, data: &[u8]) -> Result<()> {
        let (codec, framed) = compress_page(data);
        match codec {
            Compression::Raw => self.metrics.pages_raw.inc(),
            Compression::Rle => self.metrics.pages_rle.inc(),
            Compression::Dict => self.metrics.pages_dict.inc(),
        }
        let needed = framed.len().div_ceil(self.inner_payload);
        debug_assert!(needed <= COMPRESSED_PAGE_FACTOR);
        let blocks = &mut self.map[id];
        while blocks.len() < needed {
            blocks.push(self.inner.allocate_page()?);
        }
        // A shrinking page orphans its surplus tail blocks: they stay
        // allocated (and Merkle-enrolled) but are never read again.
        blocks.truncate(needed);
        self.scratch.clear();
        self.scratch.extend_from_slice(&framed);
        self.scratch.resize(needed * self.inner_payload, 0);
        for (i, block) in self.map[id].clone().into_iter().enumerate() {
            self.inner
                .write_page(block, &self.scratch[i * self.inner_payload..(i + 1) * self.inner_payload])?;
        }
        self.logical_bytes += data.len() as u64;
        self.physical_bytes += (needed * self.inner_payload) as u64;
        if let Some(pct) = (self.physical_bytes * 100).checked_div(self.logical_bytes) {
            self.metrics.ratio_pct.set(pct as i64);
        }
        Ok(())
    }
}

impl<P: Pager> Pager for CompressedPager<P> {
    fn payload_size(&self) -> usize {
        self.payload
    }

    fn num_pages(&self) -> u64 {
        self.map.len() as u64
    }

    fn set_fault_plan(&mut self, plan: ironsafe_faults::FaultPlan) {
        self.inner.set_fault_plan(plan);
    }

    fn set_retry_policy(&mut self, policy: ironsafe_faults::RetryPolicy) {
        self.inner.set_retry_policy(policy);
    }

    fn set_merkle_cache_enabled(&mut self, enabled: bool) {
        self.inner.set_merkle_cache_enabled(enabled);
    }

    fn set_merkle_cache_capacity(&mut self, capacity: usize) {
        self.inner.set_merkle_cache_capacity(capacity);
    }

    fn set_flight_budget(&mut self, budget_bytes: u64) {
        self.inner.set_flight_budget(budget_bytes);
    }

    fn take_flight_dump(&mut self) -> Vec<String> {
        self.inner.take_flight_dump()
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let id = self.map.len();
        self.map.push(Vec::new());
        // A fresh logical page must read back zeroed, so store the
        // compressed zero page now (RLE shrinks it to a single block).
        let zeros = vec![0u8; self.payload];
        self.store(id, &zeros)?;
        Ok(id as PageId)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.read_pages(&[id], buf)
    }

    /// One inner `read_pages` over the stripes of the whole batch, in
    /// order, then each logical page decompressed from its own stripe.
    fn read_pages(&mut self, ids: &[PageId], out: &mut [u8]) -> Result<()> {
        if out.len() != ids.len() * self.payload {
            return Err(StorageError::BadBufferSize {
                expected: ids.len() * self.payload,
                got: out.len(),
            });
        }
        self.stripes.clear();
        for &id in ids {
            let blocks = self.map.get(id as usize).ok_or(StorageError::PageOutOfRange(id))?;
            self.stripes.extend_from_slice(blocks);
        }
        self.scratch.clear();
        self.scratch.resize(self.stripes.len() * self.inner_payload, 0);
        self.inner.read_pages(&self.stripes, &mut self.scratch)?;
        let mut stripe = self.scratch.as_slice();
        for (&id, buf) in ids.iter().zip(out.chunks_exact_mut(self.payload)) {
            let (framed, rest) = stripe.split_at(self.map[id as usize].len() * self.inner_payload);
            buf.copy_from_slice(&decompress_page(framed, self.payload)?);
            stripe = rest;
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() != self.payload {
            return Err(StorageError::BadBufferSize { expected: self.payload, got: data.len() });
        }
        if id as usize >= self.map.len() {
            return Err(StorageError::PageOutOfRange(id));
        }
        self.store(id as usize, data)
    }

    fn commit(&mut self) -> Result<()> {
        self.inner.commit()
    }

    fn commit_bound(&mut self, wal_head_mac: &[u8; 32]) -> Result<()> {
        self.inner.commit_bound(wal_head_mac)
    }

    // `export_block` and `make_wal` deliberately stay at the trait
    // defaults (`None`): the wrapper's page ids are logical, the inner
    // medium's are physical, and journaling across that mapping would
    // hand the WAL blocks that are not what a raw medium scan would see.

    fn current_root(&self) -> [u8; 32] {
        self.inner.current_root()
    }

    fn take_parts(
        &mut self,
    ) -> Option<(ironsafe_tee::trustzone::TrustZoneDevice, crate::blockdev::BlockDevice)> {
        self.inner.take_parts()
    }

    /// The wrapper adds no accounting of its own: every counter is the
    /// wrapped pager's *physical* tally, so fewer stored blocks mean
    /// honestly fewer reads, decrypts, MACs and Merkle visits.
    fn stats(&self) -> PagerStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn register_metrics(&self, registry: &Registry) {
        self.inner.register_metrics(registry);
        self.metrics.register(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PlainPager;
    use crate::SecurePager;
    use ironsafe_crypto::group::Group;
    use ironsafe_tee::trustzone::Manufacturer;
    use rand::SeedableRng;

    fn secure() -> SecurePager {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dev = mfr.make_device("s0", 8, &mut rng);
        SecurePager::create(dev, 42).unwrap()
    }

    #[test]
    fn logical_payload_is_factor_sized() {
        let p = CompressedPager::new(PlainPager::new());
        assert_eq!(
            p.payload_size(),
            COMPRESSED_PAGE_FACTOR * crate::PAGE_PAYLOAD - COMPRESS_HEADER
        );
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut p = CompressedPager::new(PlainPager::new());
        let id = p.allocate_page().unwrap();
        let payload = p.payload_size();
        let mut data = vec![0u8; payload];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 7) as u8;
        }
        p.write_page(id, &data).unwrap();
        let mut back = vec![0u8; payload];
        p.read_page(id, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn fresh_page_reads_zeroed_from_one_block() {
        let mut p = CompressedPager::new(PlainPager::new());
        let id = p.allocate_page().unwrap();
        assert_eq!(p.blocks_of(id).unwrap().len(), 1, "zero page RLEs to one block");
        let mut buf = vec![0xffu8; p.payload_size()];
        p.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn incompressible_page_occupies_the_full_stripe() {
        let mut p = CompressedPager::new(PlainPager::new());
        let id = p.allocate_page().unwrap();
        let mut data = vec![0u8; p.payload_size()];
        let mut x = 0x9E3779B97F4A7C15u64;
        for b in data.iter_mut() {
            // xorshift noise: no runs, no window matches.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        p.write_page(id, &data).unwrap();
        assert_eq!(p.blocks_of(id).unwrap().len(), COMPRESSED_PAGE_FACTOR);
        let mut back = vec![0u8; p.payload_size()];
        p.read_page(id, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn shrinking_page_orphans_blocks_deterministically() {
        let mut p = CompressedPager::new(PlainPager::new());
        let id = p.allocate_page().unwrap();
        let mut big = vec![0u8; p.payload_size()];
        let mut x = 1u64;
        for b in big.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 56) as u8;
        }
        p.write_page(id, &big).unwrap();
        let grown = p.blocks_of(id).unwrap().len();
        assert!(grown > 1);
        let inner_pages = p.inner().num_pages();
        p.write_page(id, &vec![0u8; p.payload_size()]).unwrap();
        assert_eq!(p.blocks_of(id).unwrap().len(), 1);
        assert_eq!(p.inner().num_pages(), inner_pages, "orphans stay allocated");
        // Growing again reuses the kept head block then allocates fresh.
        p.write_page(id, &big).unwrap();
        let mut back = vec![0u8; p.payload_size()];
        p.read_page(id, &mut back).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn physical_crypto_costs_drop_with_compression() {
        let mut p = CompressedPager::new(secure());
        let id = p.allocate_page().unwrap();
        // A repetitive page: compresses far below the raw stripe.
        let payload = p.payload_size();
        let data: Vec<u8> = (0..payload).map(|i| b"abcdefgh"[(i / 64) % 8]).collect();
        p.write_page(id, &data).unwrap();
        let blocks = p.blocks_of(id).unwrap().len();
        assert!(blocks < COMPRESSED_PAGE_FACTOR / 2, "{blocks} blocks");
        p.reset_stats();
        let mut back = vec![0u8; payload];
        p.read_page(id, &mut back).unwrap();
        assert_eq!(back, data);
        let stats = p.stats();
        assert_eq!(stats.decrypts, blocks as u64, "decrypts are per physical block");
        assert_eq!(stats.page_reads, blocks as u64);
    }

    /// A batch of logical pages is one inner batch over all their stripes:
    /// same bytes and same counters as reading the pages one by one, in
    /// any order and with repeats, and an unknown page anywhere in the
    /// batch is refused before anything is read.
    #[test]
    fn batched_reads_match_looped_reads_and_charge_the_same() {
        let fill = |p: &mut CompressedPager<SecurePager>| {
            let payload = p.payload_size();
            for k in 0..5usize {
                let id = p.allocate_page().unwrap();
                // A noisy head of (k + 1) sixths of the page, then zeros:
                // stripes of two to seven blocks.
                let noisy = (k + 1) * payload / 6;
                let mut x = k as u64 + 1;
                let data: Vec<u8> = (0..payload)
                    .map(|i| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if i < noisy {
                            (x >> 56) as u8
                        } else {
                            0
                        }
                    })
                    .collect();
                p.write_page(id, &data).unwrap();
            }
            p.reset_stats();
        };
        let mut batched = CompressedPager::new(secure());
        let mut looped = CompressedPager::new(secure());
        fill(&mut batched);
        fill(&mut looped);
        let payload = batched.payload_size();
        let ids = [4, 0, 2, 2, 1, 3];
        let mut out = vec![0u8; ids.len() * payload];
        batched.read_pages(&ids, &mut out).unwrap();
        let mut one = vec![0u8; payload];
        for (&id, want) in ids.iter().zip(out.chunks_exact(payload)) {
            looped.read_page(id, &mut one).unwrap();
            assert_eq!(one, want, "page {id}");
        }
        assert_eq!(batched.stats(), looped.stats());
        assert!(batched.stats().page_reads > ids.len() as u64, "multi-block stripes");

        let before = batched.stats();
        let unknown = batched.read_pages(&[1, 9, 2], &mut out[..3 * payload]);
        assert_eq!(unknown, Err(StorageError::PageOutOfRange(9)));
        assert_eq!(batched.stats(), before);
    }

    #[test]
    fn metrics_register_and_count() {
        let mut p = CompressedPager::new(PlainPager::new());
        let reg = Registry::new();
        p.register_metrics(&reg);
        let id = p.allocate_page().unwrap();
        let payload = p.payload_size();
        p.write_page(id, &vec![0u8; payload]).unwrap();
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(get("storage.compress.pages_rle") + get("storage.compress.pages_dict") >= 2);
        let ratio = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "storage.compress.ratio_pct")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(ratio < 50, "zero pages must compress well, got {ratio}%");
        assert!(ironsafe_obs::manifest::unlisted_names(&snap).is_empty());
    }

    #[test]
    fn bad_sizes_and_unknown_pages_rejected() {
        let mut p = CompressedPager::new(PlainPager::new());
        let mut small = vec![0u8; 8];
        assert!(matches!(p.read_page(0, &mut small), Err(StorageError::BadBufferSize { .. })));
        assert!(matches!(p.write_page(0, &small), Err(StorageError::BadBufferSize { .. })));
        let mut buf = vec![0u8; p.payload_size()];
        assert_eq!(p.read_page(3, &mut buf), Err(StorageError::PageOutOfRange(3)));
        assert!(p.write_page(3, &buf).is_err());
    }

    #[test]
    fn works_under_a_view_pager_cache() {
        use crate::view::{PageCache, ViewPager};
        use parking_lot::Mutex;
        use std::sync::Arc;
        let mut base = CompressedPager::new(secure());
        let a = base.allocate_page().unwrap();
        let payload = base.payload_size();
        let data: Vec<u8> = (0..payload).map(|i| (i % 11) as u8).collect();
        base.write_page(a, &data).unwrap();
        base.reset_stats();
        let shared: Arc<Mutex<dyn Pager + Send>> = Arc::new(Mutex::new(base));
        let cache = Arc::new(PageCache::new());
        let mut v1 = ViewPager::over(shared.clone(), cache.clone());
        let mut v2 = ViewPager::over(shared.clone(), cache);
        let mut b1 = vec![0u8; payload];
        v1.read_page(a, &mut b1).unwrap();
        let mut b2 = vec![0u8; payload];
        v2.read_page(a, &mut b2).unwrap();
        assert_eq!(b1, data);
        assert_eq!(b2, data);
        // Cache hit replayed the physical delta without re-reading.
        assert_eq!(v1.stats().decrypts, v2.stats().decrypts);
    }
}
