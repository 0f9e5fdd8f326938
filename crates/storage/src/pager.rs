//! The pager abstraction the SQL engine sits on.
//!
//! The engine reads and writes fixed-size page payloads by [`PageId`];
//! whether those payloads live in plaintext blocks ([`PlainPager`]) or in
//! the encrypted + Merkle-protected secure store
//! ([`crate::secure_pager::SecurePager`]) is invisible above this trait —
//! mirroring how the paper hooks SQLCipher under SQLite's page layer.

use crate::blockdev::{BlockDevice, BLOCK_SIZE};
use crate::codec::PAGE_PAYLOAD;
use crate::{Result, StorageError};

/// Identifier of a logical database page.
pub type PageId = u64;

/// Counters every pager exposes for the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Logical page reads.
    pub page_reads: u64,
    /// Logical page writes.
    pub page_writes: u64,
    /// Page decryptions (0 for plaintext pagers).
    pub decrypts: u64,
    /// Page encryptions (0 for plaintext pagers).
    pub encrypts: u64,
    /// Merkle nodes visited for freshness verification.
    pub merkle_nodes: u64,
    /// RPMB round trips.
    pub rpmb_ops: u64,
}

impl PagerStats {
    fn zip(self, o: PagerStats, f: impl Fn(u64, u64) -> u64) -> PagerStats {
        PagerStats {
            page_reads: f(self.page_reads, o.page_reads),
            page_writes: f(self.page_writes, o.page_writes),
            decrypts: f(self.decrypts, o.decrypts),
            encrypts: f(self.encrypts, o.encrypts),
            merkle_nodes: f(self.merkle_nodes, o.merkle_nodes),
            rpmb_ops: f(self.rpmb_ops, o.rpmb_ops),
        }
    }
}

impl std::ops::Add for PagerStats {
    type Output = PagerStats;
    fn add(self, d: PagerStats) -> PagerStats {
        self.zip(d, |a, b| a + b)
    }
}

impl std::ops::AddAssign for PagerStats {
    fn add_assign(&mut self, d: PagerStats) {
        *self = *self + d;
    }
}

/// `after - before`: the work done between two readings of one pager's
/// (monotonic) counters.
impl std::ops::Sub for PagerStats {
    type Output = PagerStats;
    fn sub(self, before: PagerStats) -> PagerStats {
        self.zip(before, |a, b| a - b)
    }
}

/// A page-granular storage interface.
pub trait Pager {
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// Install a fault-injection plan. Pagers without fault hooks (the
    /// plaintext pager, views over an already-hooked base) ignore it.
    fn set_fault_plan(&mut self, _plan: ironsafe_faults::FaultPlan) {}

    /// Set the retry budget used to recover from injected transient
    /// faults. Pagers without fault hooks ignore it.
    fn set_retry_policy(&mut self, _policy: ironsafe_faults::RetryPolicy) {}

    /// Enable/disable the TEE-resident verified-node cache that lets the
    /// freshness check skip re-hashing already-authenticated Merkle
    /// subpaths. Pagers without a Merkle tree ignore it. The serving
    /// layer disables it on the shared base pager: the page cache there
    /// replays per-page stats deltas captured on first read, and a warm
    /// node cache would make those deltas depend on session interleaving.
    fn set_merkle_cache_enabled(&mut self, _enabled: bool) {}

    /// Bound the verified-node cache to `capacity` nodes (sized against
    /// the enclave memory budget). Pagers without a Merkle tree ignore it.
    fn set_merkle_cache_capacity(&mut self, _capacity: usize) {}

    /// Size the TEE-resident flight recorder against `budget_bytes` of
    /// enclave memory (see `ironsafe_tee::flight_recorder_capacity`).
    /// Pagers without a flight recorder ignore it.
    fn set_flight_budget(&mut self, _budget_bytes: u64) {}

    /// Drain the flight recorder into its deterministic dump lines
    /// (oldest first). Called by the serving layer on fault exhaustion
    /// or an integrity/freshness violation, so the forensic window lands
    /// in the monitor audit trail. Pagers without a recorder return
    /// nothing.
    fn take_flight_dump(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Allocate a fresh zeroed page; returns its id.
    fn allocate_page(&mut self) -> Result<PageId>;

    /// Read page `id` into `buf` (must be exactly [`PAGE_PAYLOAD`] bytes).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Read a batch of pages into `out`, which must hold exactly
    /// `ids.len() * PAGE_PAYLOAD` bytes; page `ids[i]` lands at
    /// `out[i * PAGE_PAYLOAD..]`.
    ///
    /// The default implementation loops [`Pager::read_page`]; secure
    /// implementations override it to pipeline device I/O, decryption
    /// and Merkle verification across the whole batch (sharing one
    /// Merkle climb across the batch via shared-path verification).
    /// `merkle_nodes` counts the hashing actually performed; per-epoch
    /// totals are order- and batching-independent (with the
    /// verified-node cache disabled a batch climbs page by page), so
    /// batched and looped reads of the same pages always produce the
    /// same [`PagerStats`] delta.
    fn read_pages(&mut self, ids: &[PageId], out: &mut [u8]) -> Result<()> {
        if out.len() != ids.len() * PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize {
                expected: ids.len() * PAGE_PAYLOAD,
                got: out.len(),
            });
        }
        for (id, chunk) in ids.iter().zip(out.chunks_exact_mut(PAGE_PAYLOAD)) {
            self.read_page(*id, chunk)?;
        }
        Ok(())
    }

    /// Write `data` (exactly [`PAGE_PAYLOAD`] bytes) to page `id`.
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()>;

    /// Commit outstanding state (e.g. freshness root to RPMB).
    fn commit(&mut self) -> Result<()>;

    /// Commit outstanding state *and* bind `wal_head_mac` (the WAL
    /// chain-head MAC) in the same authenticated RPMB write — the group
    /// commit's batched bind. Pagers without an RPMB ignore the mark.
    fn commit_bound(&mut self, wal_head_mac: &[u8; 32]) -> Result<()> {
        let _ = wal_head_mac;
        self.commit()
    }

    /// Export the raw on-medium block backing page `id` (ciphertext on
    /// secure pagers) without touching stats or fault hooks. The WAL's
    /// commit records store these physical images so crash recovery can
    /// replay them bit-identically. `None` for pagers without a raw
    /// block representation.
    fn export_block(&self, id: PageId) -> Option<Vec<u8>> {
        let _ = id;
        None
    }

    /// Simulate a power-off: tear the pager down to its surviving
    /// hardware `(trustzone device, medium)`, leaving a poisoned husk
    /// behind. Crash harnesses call this through the shared handle
    /// (where by-value teardown is impossible), then run recovery over
    /// the parts. `None` for pagers without TEE-backed hardware.
    fn take_parts(&mut self) -> Option<(ironsafe_tee::trustzone::TrustZoneDevice, BlockDevice)> {
        None
    }

    /// Build a [`Wal`](crate::wal::Wal) keyed from this pager's database
    /// key (the WAL's encryption/MAC keys derive from it, so the log is
    /// exactly as confidential as the pages it journals). `None` for
    /// pagers that cannot journal physical post-images (plaintext
    /// pagers).
    fn make_wal(&self, rng_seed: u64) -> Option<crate::wal::Wal> {
        let _ = rng_seed;
        None
    }

    /// The current trusted Merkle root (all-zero for pagers without a
    /// freshness tree). WAL records carry this so recovery can
    /// cross-check the rebuilt medium against the RPMB-attested state.
    fn current_root(&self) -> [u8; 32] {
        [0u8; 32]
    }

    /// Extract the accumulated copy-on-write transaction from a write
    /// view: `(overlay pages, id watermark)`. `None` for pagers that are
    /// not views (the write path calls this through the `dyn Pager`
    /// handle the SQL engine hands back).
    fn take_txn_pages(&mut self) -> Option<(std::collections::HashMap<PageId, Vec<u8>>, u64)> {
        None
    }

    /// Counter snapshot.
    fn stats(&self) -> PagerStats;

    /// Zero the counters.
    fn reset_stats(&mut self);

    /// Attach this pager's live telemetry counters to `registry` (under
    /// `storage.*` names). Default: the pager exposes none.
    fn register_metrics(&self, _registry: &ironsafe_obs::Registry) {}
}

/// A plaintext pager over a [`BlockDevice`] (the non-secure baseline).
pub struct PlainPager {
    device: BlockDevice,
    stats: PagerStats,
}

impl PlainPager {
    /// A pager over a fresh device.
    pub fn new() -> Self {
        PlainPager { device: BlockDevice::new(), stats: PagerStats::default() }
    }

    /// The underlying device (e.g. for I/O counters).
    pub fn device(&self) -> &BlockDevice {
        &self.device
    }

    /// Mutable device access (attacker interface passthrough).
    pub fn device_mut(&mut self) -> &mut BlockDevice {
        &mut self.device
    }
}

impl Default for PlainPager {
    fn default() -> Self {
        Self::new()
    }
}

impl Pager for PlainPager {
    fn num_pages(&self) -> u64 {
        self.device.num_blocks()
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        Ok(self.device.append_block())
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize { expected: PAGE_PAYLOAD, got: buf.len() });
        }
        let mut block = [0u8; BLOCK_SIZE];
        self.device.read_block(id, &mut block)?;
        buf.copy_from_slice(&block[..PAGE_PAYLOAD]);
        self.stats.page_reads += 1;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() != PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize { expected: PAGE_PAYLOAD, got: data.len() });
        }
        let mut block = [0u8; BLOCK_SIZE];
        block[..PAGE_PAYLOAD].copy_from_slice(data);
        self.device.write_block(id, &block)?;
        self.stats.page_writes += 1;
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> PagerStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PagerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read() {
        let mut p = PlainPager::new();
        let id = p.allocate_page().unwrap();
        let mut data = vec![0u8; PAGE_PAYLOAD];
        data[0] = 0x5a;
        p.write_page(id, &data).unwrap();
        let mut back = vec![0u8; PAGE_PAYLOAD];
        p.read_page(id, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(p.stats().page_reads, 1);
        assert_eq!(p.stats().page_writes, 1);
        assert_eq!(p.stats().decrypts, 0);
    }

    #[test]
    fn stats_deltas_add_back() {
        let of = |r, w, d, e, m, o| PagerStats {
            page_reads: r,
            page_writes: w,
            decrypts: d,
            encrypts: e,
            merkle_nodes: m,
            rpmb_ops: o,
        };
        let (a, b) = (of(7, 1, 7, 1, 40, 2), of(3, 5, 2, 5, 9, 1));
        assert_eq!(a + b, of(10, 6, 9, 6, 49, 3));
        assert_eq!((a + b) - b, a);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, a + b);
    }

    #[test]
    fn fresh_page_is_zeroed() {
        let mut p = PlainPager::new();
        let id = p.allocate_page().unwrap();
        let mut buf = vec![0xffu8; PAGE_PAYLOAD];
        p.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_buffer_size_rejected() {
        let mut p = PlainPager::new();
        let id = p.allocate_page().unwrap();
        let mut small = vec![0u8; 8];
        assert!(matches!(p.read_page(id, &mut small), Err(StorageError::BadBufferSize { .. })));
        assert!(matches!(p.write_page(id, &small), Err(StorageError::BadBufferSize { .. })));
    }

    #[test]
    fn batch_read_matches_looped_reads() {
        let mut p = PlainPager::new();
        for i in 0..5u8 {
            let id = p.allocate_page().unwrap();
            p.write_page(id, &vec![i; PAGE_PAYLOAD]).unwrap();
        }
        p.reset_stats();
        let ids = [4u64, 0, 2];
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        p.read_pages(&ids, &mut out).unwrap();
        assert_eq!(p.stats().page_reads, 3);
        for (i, id) in ids.iter().enumerate() {
            assert!(out[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD]
                .iter()
                .all(|&b| b == *id as u8));
        }
        // Wrong buffer size is rejected up front.
        let mut short = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(
            p.read_pages(&ids, &mut short),
            Err(StorageError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn unknown_page_rejected() {
        let mut p = PlainPager::new();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert_eq!(p.read_page(3, &mut buf), Err(StorageError::PageOutOfRange(3)));
    }
}
