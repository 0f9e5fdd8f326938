//! The secure pager: encrypted, integrity- and freshness-protected pages.
//!
//! Composition of the whole §4.1 stack: every page write encrypts + MACs
//! the payload ([`crate::codec`]), folds the MAC into the Merkle tree
//! ([`crate::merkle`]) and (on [`Pager::commit`]) re-binds the root to the
//! RPMB ([`crate::freshness`]). Every page read decrypts, verifies the
//! page MAC *and* verifies the Merkle path against the trusted root — the
//! per-read freshness check that dominates the paper's overhead breakdowns
//! (Figures 8 and 9c).

use crate::blockdev::{BlockDevice, BLOCK_SIZE};
use crate::codec::{PageCodec, PAGE_PAYLOAD};
use crate::freshness::FreshnessManager;
use crate::merkle::{MerkleTree, NodeHash};
use crate::pager::{PageId, Pager, PagerStats};
use crate::{Result, StorageError};
use ironsafe_faults::{retry_with, FaultPlan, FaultSite, RetryPolicy, Transient};
use ironsafe_obs::span::{Span, TraceCtx};
use ironsafe_obs::{Counter, Registry};
use ironsafe_tee::trustzone::{Manufacturer, SecureStorageTa, TrustZoneDevice};
use ironsafe_tee::FlightRecorder;
use rand::SeedableRng;

/// Root value committed while the database is still empty.
const EMPTY_ROOT: NodeHash = [0u8; 32];

/// Static error tag a failed read attempt stamps onto its span (the
/// span still closes normally, so fault-storm traces stay well-formed
/// trees; the tag rides into the Chrome trace as an `error` arg).
fn error_site(e: &StorageError) -> &'static str {
    match e {
        StorageError::DeviceIo(_) => "storage.device.read",
        StorageError::IntegrityViolation(_) => "storage.page.integrity",
        StorageError::FreshnessViolation(_) => "storage.freshness.stale",
        StorageError::Tee(_) => "tee.rpmb",
        StorageError::PageOutOfRange(_) => "storage.page.out_of_range",
        StorageError::BadBufferSize { .. } => "storage.bad_buffer",
        StorageError::WalTorn(_) => "storage.wal.torn",
        StorageError::WalCorrupt(_) => "storage.wal.corrupt",
    }
}

/// Live telemetry counters for the secure-pager hot path.
///
/// The pager owns the cells and bumps them with relaxed atomic adds (no
/// heap traffic, no locks); [`PagerMetrics::register`] attaches the same
/// cells to a [`Registry`] so snapshots observe the pager's work without
/// touching its fast path.
#[derive(Clone, Default)]
pub struct PagerMetrics {
    /// Logical page reads served (`storage.page.read`).
    pub page_reads: Counter,
    /// Logical page writes (`storage.page.write`).
    pub page_writes: Counter,
    /// Page decryptions (`storage.page.decrypt`).
    pub decrypts: Counter,
    /// Page encryptions (`storage.page.encrypt`).
    pub encrypts: Counter,
    /// Per-read Merkle path verifications (`storage.page.hmac_verify`).
    pub hmac_verifies: Counter,
    /// RPMB root commits (`storage.rpmb.write`).
    pub rpmb_writes: Counter,
    /// Verified-node-cache hits (`storage.merkle.cache.hit`): reads whose
    /// freshness check was served by an already-authenticated leaf.
    pub cache_hits: Counter,
    /// Verified-node-cache misses (`storage.merkle.cache.miss`).
    pub cache_misses: Counter,
    /// Verified-node-cache evictions (`storage.merkle.cache.evict`).
    pub cache_evicts: Counter,
}

impl PagerMetrics {
    /// Attach every cell to `registry` under its `storage.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("storage.page.read", &self.page_reads);
        registry.register_counter("storage.page.write", &self.page_writes);
        registry.register_counter("storage.page.decrypt", &self.decrypts);
        registry.register_counter("storage.page.encrypt", &self.encrypts);
        registry.register_counter("storage.page.hmac_verify", &self.hmac_verifies);
        registry.register_counter("storage.rpmb.write", &self.rpmb_writes);
        registry.register_counter("storage.merkle.cache.hit", &self.cache_hits);
        registry.register_counter("storage.merkle.cache.miss", &self.cache_misses);
        registry.register_counter("storage.merkle.cache.evict", &self.cache_evicts);
    }
}

/// The secure pager.
pub struct SecurePager {
    tz: TrustZoneDevice,
    ta: SecureStorageTa,
    device: BlockDevice,
    codec: PageCodec,
    /// The database key, kept TEE-resident for deriving the WAL's
    /// encryption/MAC keys (see [`Pager::make_wal`]).
    db_key: [u8; 16],
    merkle: MerkleTree,
    freshness: FreshnessManager,
    trusted_root: NodeHash,
    rng: rand::rngs::StdRng,
    page_reads: u64,
    page_writes: u64,
    metrics: PagerMetrics,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    /// Reusable batch-read scratch: block staging area and MAC collection,
    /// hoisted onto the pager so fault-retried batches do not re-allocate
    /// per attempt.
    scratch_blocks: Vec<u8>,
    scratch_macs: Vec<[u8; 32]>,
    /// Monotone id assigned to every logical read (single or batch);
    /// refines the ambient [`TraceCtx`] so the spans of one page batch
    /// stitch into the query's trace tree.
    batch_seq: u64,
    /// TEE-resident post-mortem ring (see [`ironsafe_tee::FlightRecorder`]):
    /// every failed read attempt — injected fault or real violation —
    /// is recorded; the serving layer drains it into the audit trail.
    flight: FlightRecorder,
}

impl SecurePager {
    /// Create a brand-new secure database on `tz`'s device: generates the
    /// database key, stores it in RPMB, and commits the empty root.
    pub fn create(mut tz: TrustZoneDevice, rng_seed: u64) -> Result<Self> {
        let ta = SecureStorageTa::init(&mut tz)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        let mut db_key = [0u8; 16];
        rand::Rng::fill(&mut rng, &mut db_key);
        ta.store_db_key(&mut tz, &db_key, &mut rng)?;
        let codec = PageCodec::from_db_key(&db_key);
        let merkle_key = ironsafe_crypto::hkdf::derive_key_256(&db_key, b"merkle-key");
        let mut merkle = MerkleTree::binary(merkle_key);
        // The verified-node cache lives inside the TEE and is root-epoch
        // keyed, so it is always safe to enable on the secure pager.
        merkle.set_cache_enabled(true);
        let mut freshness = FreshnessManager::new(&ta);
        freshness.commit_root(&ta, &mut tz, &EMPTY_ROOT)?;
        Ok(SecurePager {
            tz,
            ta,
            device: BlockDevice::new(),
            codec,
            db_key,
            merkle,
            freshness,
            trusted_root: EMPTY_ROOT,
            rng,
            page_reads: 0,
            page_writes: 0,
            metrics: PagerMetrics::default(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            scratch_blocks: Vec::new(),
            scratch_macs: Vec::new(),
            batch_seq: 0,
            flight: FlightRecorder::with_budget(0),
        })
    }

    /// Reopen an existing database from its (untrusted) medium: unwraps the
    /// database key from RPMB, rebuilds the Merkle tree from the stored
    /// page MACs, and verifies the root against the RPMB value — detecting
    /// rollback and forking before a single page is served.
    pub fn open(mut tz: TrustZoneDevice, mut device: BlockDevice, rng_seed: u64) -> Result<Self> {
        let ta = SecureStorageTa::init(&mut tz)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        let db_key = ta.load_db_key(&tz, &mut rng)?;
        let codec = PageCodec::from_db_key(&db_key);
        let merkle_key = ironsafe_crypto::hkdf::derive_key_256(&db_key, b"merkle-key");

        // Recompute every page MAC from the medium and rebuild the tree.
        let n = device.num_blocks();
        let mut macs = Vec::with_capacity(n as usize);
        let mut block = [0u8; BLOCK_SIZE];
        for id in 0..n {
            device.read_block(id, &mut block)?;
            // The stored trailer must match the recomputed MAC, otherwise
            // the block was tampered with offline.
            let mac = codec.page_mac(id, &block);
            if !ironsafe_crypto::ct_eq(&mac, &block[BLOCK_SIZE - 32..]) {
                return Err(StorageError::IntegrityViolation("stored page MAC mismatch on open"));
            }
            macs.push(mac);
        }
        let mut merkle = MerkleTree::rebuild_from_macs(merkle_key, 2, &macs);
        merkle.set_cache_enabled(true);
        let root = merkle.root().unwrap_or(EMPTY_ROOT);
        let mut freshness = FreshnessManager::new(&ta);
        freshness.verify_root(&ta, &tz, &root, &mut rng)?;
        Ok(SecurePager {
            tz,
            ta,
            device,
            codec,
            db_key,
            merkle,
            freshness,
            trusted_root: root,
            rng,
            page_reads: 0,
            page_writes: 0,
            metrics: PagerMetrics::default(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            scratch_blocks: Vec::new(),
            scratch_macs: Vec::new(),
            batch_seq: 0,
            flight: FlightRecorder::with_budget(0),
        })
    }

    /// Tear down into `(trustzone device, medium)` — simulates a power-off;
    /// reopen with [`SecurePager::open`].
    pub fn into_parts(self) -> (TrustZoneDevice, BlockDevice) {
        (self.tz, self.device)
    }

    /// Crash recovery: rebuild the database from the WAL `medium` and the
    /// surviving TrustZone device, ignoring whatever state the crashed
    /// block medium was left in. The RPMB-bound chain-head MAC picks the
    /// committed replay boundary; everything past it — torn frames,
    /// tampered bytes, appended-but-unbound records — is discarded and
    /// reported, never replayed. The rebuilt medium then goes through the
    /// full [`SecurePager::open`] path, so its Merkle root is re-verified
    /// against the RPMB before a single page is served.
    pub fn recover(
        mut tz: TrustZoneDevice,
        medium: &crate::wal::WalMedium,
        rng_seed: u64,
    ) -> Result<(SecurePager, crate::wal::RecoveryInfo)> {
        let ta = SecureStorageTa::init(&mut tz)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        let db_key = ta.load_db_key(&tz, &mut rng)?;
        let mut freshness = FreshnessManager::new(&ta);
        let head = freshness.committed_wal_head(&ta, &tz, &mut rng)?;
        let state = crate::wal::Wal::recover_medium(&db_key, medium, &head)?;
        let pager = SecurePager::open(tz, state.device, rng_seed)?;
        // open() verified the rebuilt root against the RPMB; cross-check
        // it also matches what the committed record claimed, closing the
        // loop between log and freshness store.
        if pager.trusted_root != state.root {
            return Err(StorageError::WalCorrupt(
                "recovered medium root does not match the committed WAL record",
            ));
        }
        let info = crate::wal::RecoveryInfo {
            epoch: state.epoch,
            catalog: state.catalog,
            replayed: state.replayed,
            tail: state.tail,
        };
        Ok((pager, info))
    }

    /// The untrusted medium (attacker interface).
    pub fn device_mut(&mut self) -> &mut BlockDevice {
        &mut self.device
    }

    /// The untrusted medium, read-only.
    pub fn device(&self) -> &BlockDevice {
        &self.device
    }

    /// Current trusted Merkle root.
    pub fn trusted_root(&self) -> NodeHash {
        self.trusted_root
    }

    /// Handles onto the live telemetry counters.
    pub fn metrics(&self) -> &PagerMetrics {
        &self.metrics
    }

    /// Run `f`, rolling the crypto/Merkle work counters back to their
    /// pre-call snapshot on failure. This is what makes batch reads
    /// stats-atomic: a mid-batch decrypt or freshness failure leaves no
    /// partial counts behind, so a retried attempt is not
    /// double-counted and an aborted query charges nothing.
    fn with_stats_rollback<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let decrypts = self.codec.decrypt_count;
        let encrypts = self.codec.encrypt_count;
        let merkle_visits = self.merkle.node_visits();
        // Verified-node-cache insertions are staged the same way: nodes are
        // only ever cached by a *successful* verification (the last step of
        // an attempt), but the journal makes that explicit — a failed
        // attempt commits neither counters nor cache state.
        let cache_cp = self.merkle.cache_checkpoint();
        match f(self) {
            ok @ Ok(_) => {
                self.merkle.cache_commit();
                ok
            }
            Err(e) => {
                self.codec.decrypt_count = decrypts;
                self.codec.encrypt_count = encrypts;
                self.merkle.restore_node_visits(merkle_visits);
                self.merkle.cache_rollback(cache_cp);
                Err(e)
            }
        }
    }

    /// One read attempt for a single page, with fault hooks. Injected
    /// corruption flips bytes in the *local* block copy — the medium
    /// keeps the pristine block, so a retry genuinely recovers.
    ///
    /// Each attempt runs inside its own span; a failed attempt tags the
    /// span with its error site *before* the stats rollback, so chaos
    /// traces keep one closed, error-tagged span per rolled-back attempt
    /// instead of a dangling open node. The failure is also recorded in
    /// the flight ring (which, unlike the stats, deliberately survives
    /// the rollback — it exists to remember failed attempts).
    fn try_read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let span = Span::enter("pager/read_page");
        let result = self.try_read_page_inner(id, buf);
        if let Err(e) = &result {
            span.fail(error_site(e));
            let kind = if e.is_transient() { "fault" } else { "violation" };
            self.flight.record(kind, format!("read page={id}: {e}"));
        }
        result
    }

    fn try_read_page_inner(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if self.fault_plan.should_fire(FaultSite::DeviceRead) {
            return Err(StorageError::DeviceIo("injected device read error"));
        }
        let mut block = [0u8; BLOCK_SIZE];
        self.device.read_block(id, &mut block)?;
        if self.fault_plan.should_fire(FaultSite::PageBitFlip) {
            block[17] ^= 0x01;
        }
        if self.fault_plan.should_fire(FaultSite::PageMacCorrupt) {
            block[BLOCK_SIZE - 1] ^= 0x01;
        }
        let mac = self.codec.decrypt_page(id, &block, buf)?;
        if self.fault_plan.should_fire(FaultSite::FreshnessStale) {
            return Err(StorageError::FreshnessViolation("stale page observed (injected rollback)"));
        }
        if !self.merkle.verify(id, &mac, &self.trusted_root) {
            return Err(StorageError::FreshnessViolation("Merkle path mismatch on read"));
        }
        Ok(())
    }

    /// One attempt at the pipelined batch read (see [`Pager::read_pages`]).
    /// The scratch buffers are taken off the pager for the duration of the
    /// attempt and restored afterwards — retried batches reuse the same
    /// allocations instead of churning the allocator.
    fn try_read_pages(&mut self, ids: &[PageId], out: &mut [u8]) -> Result<()> {
        let span = Span::enter("pager/read_batch");
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        let mut macs = std::mem::take(&mut self.scratch_macs);
        blocks.clear();
        blocks.resize(ids.len() * BLOCK_SIZE, 0);
        macs.clear();
        macs.resize(ids.len(), [0; 32]);
        let result = self.try_read_pages_inner(ids, out, &mut blocks, &mut macs);
        self.scratch_blocks = blocks;
        self.scratch_macs = macs;
        if let Err(e) = &result {
            // Tag-then-close (via drop): a faulted, rolled-back attempt
            // still leaves a well-formed trace tree behind.
            span.fail(error_site(e));
            let kind = if e.is_transient() { "fault" } else { "violation" };
            self.flight
                .record(kind, format!("read batch={} pages={}: {e}", self.batch_seq, ids.len()));
        }
        result
    }

    fn try_read_pages_inner(
        &mut self,
        ids: &[PageId],
        out: &mut [u8],
        blocks: &mut [u8],
        macs: &mut [[u8; 32]],
    ) -> Result<()> {
        // Pass 1: device I/O.
        for (id, block) in ids.iter().zip(blocks.chunks_exact_mut(BLOCK_SIZE)) {
            if self.fault_plan.should_fire(FaultSite::DeviceRead) {
                return Err(StorageError::DeviceIo("injected device read error"));
            }
            self.device.read_block(*id, block.try_into().expect("BLOCK_SIZE chunk"))?;
            if self.fault_plan.should_fire(FaultSite::PageBitFlip) {
                block[17] ^= 0x01;
            }
            if self.fault_plan.should_fire(FaultSite::PageMacCorrupt) {
                block[BLOCK_SIZE - 1] ^= 0x01;
            }
        }
        // Pass 2: every page MAC of the batch at once, then each page's
        // tag check and decryption (the MACs are kept for verification).
        self.codec.decrypt_pages(ids, blocks, out, macs)?;
        // Pass 3: shared-path freshness verification against the trusted
        // root. The per-page stale-read faults are drawn up front (one per
        // entry, exactly as the per-page loop drew them) so seeded fault
        // plans stay bit-aligned with the pre-batched behavior, then the
        // whole batch climbs the tree once via `verify_batch`. With the
        // verified-node cache disabled a shared climb would make the
        // visit count depend on how the batch was composed, so each page
        // climbs alone: cache on or off, a batch charges exactly what
        // the same pages read one by one would.
        for _ in ids {
            if self.fault_plan.should_fire(FaultSite::FreshnessStale) {
                return Err(StorageError::FreshnessViolation(
                    "stale page observed (injected rollback)",
                ));
            }
        }
        let root = self.trusted_root;
        let fresh = if self.merkle.cache_enabled() {
            self.merkle.verify_batch(ids, macs, &root)
        } else {
            ids.iter().zip(macs.iter()).all(|(id, mac)| self.merkle.verify(*id, mac, &root))
        };
        if !fresh {
            return Err(StorageError::FreshnessViolation("Merkle path mismatch on read"));
        }
        Ok(())
    }

    /// One write attempt for a single page. The fault draw comes first
    /// (a faulted attempt consumes no IV bytes, keeping the ciphertext
    /// stream seed-stable across retries), then encryption, then the
    /// device write; the Merkle update and trusted-root advance are the
    /// final, infallible steps — no faulted sub-step can leave the tree
    /// ahead of the medium or vice versa.
    fn try_write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        if self.fault_plan.should_fire(FaultSite::DeviceWrite) {
            let e = StorageError::DeviceIo("injected device write error");
            self.flight.record("fault", format!("write page={id}: {e}"));
            return Err(e);
        }
        let (block, mac) = self.codec.encrypt_page(id, data, &mut self.rng)?;
        self.device.write_block(id, &block)?;
        self.merkle.update(id, &mac);
        self.trusted_root = self.merkle.root().expect("non-empty");
        Ok(())
    }

    /// One allocation attempt: encrypt the zero page *before* growing the
    /// device, so a faulted attempt appends no block and the Merkle tree
    /// never holds a leaf for a page the medium does not have.
    fn try_allocate_page(&mut self) -> Result<PageId> {
        if self.fault_plan.should_fire(FaultSite::DeviceWrite) {
            let e = StorageError::DeviceIo("injected device write error");
            self.flight.record("fault", format!("allocate page: {e}"));
            return Err(e);
        }
        let id = self.device.num_blocks();
        // Materialize an encrypted zero page so the medium never holds
        // plaintext and the Merkle tree covers every allocated page.
        let zeros = vec![0u8; PAGE_PAYLOAD];
        let (block, mac) = self.codec.encrypt_page(id, &zeros, &mut self.rng)?;
        let appended = self.device.append_block();
        debug_assert_eq!(appended, id);
        self.device.write_block(id, &block)?;
        let leaf = self.merkle.append(&mac);
        debug_assert_eq!(leaf, id);
        self.trusted_root = self.merkle.root().expect("non-empty");
        Ok(id)
    }

    /// Commit the cache tallies accumulated since `before` to the live
    /// telemetry counters (called only after a fully successful read, so
    /// rolled-back attempts never surface).
    fn commit_cache_metrics(&mut self, before: crate::merkle::NodeCacheStats) {
        let after = self.merkle.cache_stats();
        self.metrics.cache_hits.add(after.hits - before.hits);
        self.metrics.cache_misses.add(after.misses - before.misses);
        self.metrics.cache_evicts.add(after.evicts - before.evicts);
    }
}

impl Pager for SecurePager {
    fn num_pages(&self) -> u64 {
        self.device.num_blocks()
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        // Staged like the read paths: the fault draw and the encryption
        // happen before the device or the Merkle tree is touched, and the
        // crypto counter rolls back on a faulted attempt — a failed
        // allocation leaves no appended block, no orphan leaf, no stats.
        let plan = self.fault_plan.clone();
        let policy = self.retry;
        let id = retry_with(&plan, &policy, || {
            self.with_stats_rollback(|p| p.try_allocate_page())
        })?;
        self.metrics.encrypts.inc();
        Ok(id)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        // A single read is its own (one-page) batch for trace purposes:
        // refine the ambient ctx so every attempt span carries the id.
        self.batch_seq += 1;
        let _ctx = TraceCtx::current().map(|c| c.with_page_batch(self.batch_seq).install());
        let plan = self.fault_plan.clone();
        let policy = self.retry;
        let cache_before = self.merkle.cache_stats();
        retry_with(&plan, &policy, || {
            self.with_stats_rollback(|p| p.try_read_page(id, buf))
        })?;
        // Stats and telemetry commit only once the read fully succeeded,
        // so failed/retried attempts charge nothing.
        self.page_reads += 1;
        self.metrics.page_reads.inc();
        self.metrics.decrypts.inc();
        self.metrics.hmac_verifies.inc();
        self.commit_cache_metrics(cache_before);
        Ok(())
    }

    /// Pipelined batch read: one pass of device I/O for the whole batch,
    /// one pass of decryption, one pass of Merkle verification, with the
    /// telemetry counters bumped once per pass instead of once per page.
    /// The batch is **stats-atomic**: either the whole batch succeeds
    /// and charges exactly `ids.len()` single-page reads' worth of
    /// counters, or it fails and charges nothing — a mid-batch
    /// decrypt/MAC/freshness failure (or a retried transient fault)
    /// never leaves partial or double counts behind.
    fn read_pages(&mut self, ids: &[PageId], out: &mut [u8]) -> Result<()> {
        if out.len() != ids.len() * PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize {
                expected: ids.len() * PAGE_PAYLOAD,
                got: out.len(),
            });
        }
        // Reject out-of-range ids with a typed error before any device
        // I/O, fault draws, or stats work — a malformed batch must not
        // consume retry budget or perturb seeded fault plans.
        let num_pages = self.device.num_blocks();
        if let Some(&bad) = ids.iter().find(|&&id| id >= num_pages) {
            return Err(StorageError::PageOutOfRange(bad));
        }
        let n = ids.len() as u64;
        // One batch id per logical batch (not per attempt): a retried
        // batch's attempt spans all carry the same id, so a chaos trace
        // shows the retries of one batch grouped together.
        self.batch_seq += 1;
        let _ctx = TraceCtx::current().map(|c| c.with_page_batch(self.batch_seq).install());
        let plan = self.fault_plan.clone();
        let policy = self.retry;
        let cache_before = self.merkle.cache_stats();
        retry_with(&plan, &policy, || {
            self.with_stats_rollback(|p| p.try_read_pages(ids, out))
        })?;
        self.page_reads += n;
        self.metrics.page_reads.add(n);
        self.metrics.decrypts.add(n);
        self.metrics.hmac_verifies.add(n);
        self.commit_cache_metrics(cache_before);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        if id >= self.device.num_blocks() {
            return Err(StorageError::PageOutOfRange(id));
        }
        // Staged commit, mirroring `read_pages`: every fallible sub-step
        // (fault draw, encryption, device write) runs before the Merkle
        // mutation, inside the stats journal — a faulted attempt rolls
        // the crypto counters back and leaves the tree and trusted root
        // untouched, so a bounded retry starts from a clean slate.
        let plan = self.fault_plan.clone();
        let policy = self.retry;
        retry_with(&plan, &policy, || {
            self.with_stats_rollback(|p| p.try_write_page(id, data))
        })?;
        // Counters commit only once the write fully succeeded.
        self.page_writes += 1;
        self.metrics.page_writes.inc();
        self.metrics.encrypts.inc();
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        let root = self.trusted_root;
        let plan = self.fault_plan.clone();
        let policy = self.retry;
        // An injected `tee.rpmb.write_fail` surfaces as a transient
        // `RpmbBusy`; the client recomputes the write counter on each
        // attempt, so the retried commit authenticates cleanly.
        retry_with(&plan, &policy, || {
            self.freshness.commit_root(&self.ta, &mut self.tz, &root)
        })?;
        // Counted only once the root actually landed in the RPMB.
        self.metrics.rpmb_writes.inc();
        Ok(())
    }

    fn commit_bound(&mut self, wal_head_mac: &[u8; 32]) -> Result<()> {
        let root = self.trusted_root;
        let plan = self.fault_plan.clone();
        let policy = self.retry;
        // The group-commit bind: root MAC and WAL chain head land in one
        // authenticated RPMB write, so N batched transactions pay a
        // single RPMB round trip between them.
        retry_with(&plan, &policy, || {
            self.freshness.commit_root_with_wal(&self.ta, &mut self.tz, &root, wal_head_mac)
        })?;
        self.metrics.rpmb_writes.inc();
        Ok(())
    }

    fn export_block(&self, id: PageId) -> Option<Vec<u8>> {
        self.device.raw_read(id).map(|b| b.to_vec())
    }

    fn take_parts(&mut self) -> Option<(TrustZoneDevice, BlockDevice)> {
        // Leave a husk behind whose TrustZone device shares no keys with
        // the real one: the TA's RPMB frames no longer authenticate, so
        // anything still holding this pager fail-stops with typed TEE
        // errors instead of silently serving a dead store.
        let group = ironsafe_crypto::group::Group::modp_1024();
        let husk = Manufacturer::from_seed(&group, b"torn-down-husk")
            .make_device("torn-down-husk", 1, &mut self.rng);
        let tz = std::mem::replace(&mut self.tz, husk);
        let device = std::mem::take(&mut self.device);
        Some((tz, device))
    }

    fn make_wal(&self, rng_seed: u64) -> Option<crate::wal::Wal> {
        // The WAL's keys derive from the same database key as the pages,
        // so the journal is exactly as confidential as what it journals.
        Some(crate::wal::Wal::new(&self.db_key, rng_seed))
    }

    fn current_root(&self) -> [u8; 32] {
        self.trusted_root
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.tz.rpmb.set_fault_plan(plan.clone());
        self.fault_plan = plan;
    }

    fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    fn set_merkle_cache_enabled(&mut self, enabled: bool) {
        self.merkle.set_cache_enabled(enabled);
    }

    fn set_merkle_cache_capacity(&mut self, capacity: usize) {
        self.merkle.set_cache_capacity(capacity);
    }

    fn set_flight_budget(&mut self, budget_bytes: u64) {
        self.flight = FlightRecorder::with_budget(budget_bytes);
    }

    fn take_flight_dump(&mut self) -> Vec<String> {
        self.flight.dump()
    }

    fn stats(&self) -> PagerStats {
        PagerStats {
            page_reads: self.page_reads,
            page_writes: self.page_writes,
            decrypts: self.codec.decrypt_count,
            encrypts: self.codec.encrypt_count,
            merkle_nodes: self.merkle.node_visits(),
            rpmb_ops: self.freshness.rpmb_reads + self.freshness.rpmb_writes,
        }
    }

    fn register_metrics(&self, registry: &Registry) {
        self.metrics.register(registry);
    }

    fn reset_stats(&mut self) {
        self.page_reads = 0;
        self.page_writes = 0;
        self.codec.decrypt_count = 0;
        self.codec.encrypt_count = 0;
        self.merkle.reset_counters();
        self.freshness.rpmb_reads = 0;
        self.freshness.rpmb_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_crypto::group::Group;
    use ironsafe_tee::trustzone::Manufacturer;

    fn fresh_device(name: &str) -> TrustZoneDevice {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        mfr.make_device(name, 8, &mut rng)
    }

    fn payload(tag: u8) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_PAYLOAD];
        p[0] = tag;
        p[PAGE_PAYLOAD - 1] = tag;
        p
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let a = pager.allocate_page().unwrap();
        let b = pager.allocate_page().unwrap();
        pager.write_page(a, &payload(1)).unwrap();
        pager.write_page(b, &payload(2)).unwrap();
        pager.commit().unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, payload(1));
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, payload(2));
    }

    #[test]
    fn medium_never_holds_plaintext() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        let data = payload(0xcd);
        pager.write_page(id, &data).unwrap();
        let raw = pager.device().raw_read(id).unwrap();
        // The distinctive plaintext byte must not appear at its position.
        assert_ne!(raw[16], 0xcd, "first payload byte is encrypted");
        let zeros = raw.iter().filter(|&&b| b == 0).count();
        assert!(zeros < BLOCK_SIZE / 8, "ciphertext looks random");
    }

    #[test]
    fn offline_tamper_detected_on_read() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(7)).unwrap();
        pager.device_mut().raw_tamper(id, 100, 0xff);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(
            pager.read_page(id, &mut buf),
            Err(StorageError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn displaced_page_detected() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let a = pager.allocate_page().unwrap();
        let b = pager.allocate_page().unwrap();
        pager.write_page(a, &payload(1)).unwrap();
        pager.write_page(b, &payload(2)).unwrap();
        pager.device_mut().raw_displace(a, b);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert!(pager.read_page(b, &mut buf).is_err(), "page id bound into MAC");
    }

    #[test]
    fn rollback_across_reboot_detected() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        pager.commit().unwrap();
        let stale = pager.device().raw_snapshot();

        pager.write_page(id, &payload(2)).unwrap();
        pager.commit().unwrap();

        // Power off; attacker restores the stale medium; reboot.
        let (tz, mut medium) = pager.into_parts();
        medium.raw_restore(stale);
        assert!(matches!(
            SecurePager::open(tz, medium, 2),
            Err(StorageError::FreshnessViolation(_))
        ));
    }

    #[test]
    fn clean_reboot_reopens_and_serves() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(9)).unwrap();
        pager.commit().unwrap();
        let (tz, medium) = pager.into_parts();
        let mut pager = SecurePager::open(tz, medium, 2).unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(9));
    }

    #[test]
    fn uncommitted_writes_lost_to_rollback_are_detected() {
        // Write without commit, snapshot, write more, restore snapshot:
        // reopen must fail because RPMB holds the older committed root.
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        pager.commit().unwrap();
        pager.write_page(id, &payload(2)).unwrap();
        // No commit. Reboot with the medium as-is: root mismatch.
        let (tz, medium) = pager.into_parts();
        assert!(matches!(
            SecurePager::open(tz, medium, 3),
            Err(StorageError::FreshnessViolation(_))
        ));
    }

    #[test]
    fn forked_replica_detected() {
        // A fork: copy the medium to a second "replica" and advance the
        // original. The replica then fails to open against the RPMB state.
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        pager.commit().unwrap();
        let fork = pager.device().clone();
        pager.write_page(id, &payload(2)).unwrap();
        pager.commit().unwrap();
        let (tz, _current) = pager.into_parts();
        assert!(matches!(
            SecurePager::open(tz, fork, 4),
            Err(StorageError::FreshnessViolation(_))
        ));
    }

    #[test]
    fn stats_reflect_crypto_work() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.reset_stats();
        pager.write_page(id, &payload(1)).unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        let s = pager.stats();
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.encrypts, 1);
        assert_eq!(s.decrypts, 1);
        assert!(s.merkle_nodes > 0, "freshness verification visited nodes");
    }

    #[test]
    fn batched_reads_match_looped_reads_bit_for_bit() {
        let mut a = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let mut b = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let n = 6u64;
        for i in 0..n {
            let ida = a.allocate_page().unwrap();
            let idb = b.allocate_page().unwrap();
            a.write_page(ida, &payload(i as u8)).unwrap();
            b.write_page(idb, &payload(i as u8)).unwrap();
        }
        a.reset_stats();
        b.reset_stats();
        let ids: Vec<PageId> = (0..n).rev().collect();
        let mut batched = vec![0u8; ids.len() * PAGE_PAYLOAD];
        a.read_pages(&ids, &mut batched).unwrap();
        let mut looped = vec![0u8; ids.len() * PAGE_PAYLOAD];
        for (i, id) in ids.iter().enumerate() {
            b.read_page(*id, &mut looped[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD]).unwrap();
        }
        assert_eq!(batched, looped);
        assert_eq!(a.stats(), b.stats(), "pipelined batch must charge identical work");
        assert_eq!(a.metrics().decrypts.get(), b.metrics().decrypts.get());
        assert_eq!(a.metrics().hmac_verifies.get(), b.metrics().hmac_verifies.get());
        assert_eq!(a.metrics().page_reads.get(), b.metrics().page_reads.get());
    }

    #[test]
    fn batched_read_detects_tamper() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..4u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        pager.device_mut().raw_tamper(2, 100, 0xff);
        let ids: Vec<PageId> = (0..4).collect();
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        assert!(matches!(
            pager.read_pages(&ids, &mut out),
            Err(StorageError::IntegrityViolation(_))
        ));
    }

    /// Every byte of a stored block × three flips, on the batched path:
    /// every byte of the page in lane 0 of an 8-page batch, and a sampled
    /// byte in each lane 0..8. Each case is a typed `IntegrityViolation`
    /// (IV, ciphertext and trailer are all under the MAC), never a panic,
    /// and charges nothing.
    #[test]
    fn every_flipped_byte_of_a_batched_page_is_a_typed_violation() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..8u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        pager.commit().unwrap();
        let ids: Vec<PageId> = (0..8).collect();
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        pager.read_pages(&ids, &mut out).unwrap();
        let (stats, decrypts) = (pager.stats(), pager.metrics().decrypts.get());
        let cases = (0..BLOCK_SIZE)
            .map(|at| (0, at))
            .chain((0..8).map(|lane| (lane, (lane as usize * 1543 + 7) % BLOCK_SIZE)));
        for (lane, at) in cases {
            for flip in [0x01u8, 0x80, 0xff] {
                pager.device_mut().raw_tamper(lane, at, flip);
                let result = pager.read_pages(&ids, &mut out);
                pager.device_mut().raw_tamper(lane, at, flip);
                assert_eq!(
                    result,
                    Err(StorageError::IntegrityViolation("page MAC mismatch")),
                    "lane {lane}, byte {at}, flip {flip:#04x}"
                );
                assert_eq!(pager.stats(), stats, "lane {lane}, byte {at}: no charge");
            }
        }
        assert_eq!(pager.metrics().decrypts.get(), decrypts);
        pager.read_pages(&ids, &mut out).unwrap();
    }

    #[test]
    fn write_to_unallocated_page_rejected() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        assert_eq!(pager.write_page(0, &payload(1)), Err(StorageError::PageOutOfRange(0)));
    }

    /// Satellite regression: a mid-batch failure must not leave stats
    /// counters partially bumped (which would double-count on retry and
    /// diverge `PagerStats` from the obs counters).
    #[test]
    fn failed_batch_read_charges_no_stats() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..4u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        // Tamper page 2: pages 0 and 1 decrypt fine before the batch dies.
        pager.device_mut().raw_tamper(2, 100, 0xff);
        pager.reset_stats();
        let before_obs = pager.metrics().decrypts.get();
        let ids: Vec<PageId> = (0..4).collect();
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        assert!(matches!(
            pager.read_pages(&ids, &mut out),
            Err(StorageError::IntegrityViolation(_))
        ));
        let s = pager.stats();
        assert_eq!(s.page_reads, 0, "failed batch must not count page reads");
        assert_eq!(s.decrypts, 0, "partial decrypts must be rolled back");
        assert_eq!(s.merkle_nodes, 0, "partial Merkle work must be rolled back");
        assert_eq!(pager.metrics().decrypts.get(), before_obs, "obs counter unchanged");
        // Undo the XOR tamper; a subsequent clean read charges exactly
        // its own work on top of the zeroed counters.
        pager.device_mut().raw_tamper(2, 100, 0xff);
        let mut single = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(0, &mut single).unwrap();
        assert_eq!(pager.stats().page_reads, 1);
        assert_eq!(pager.stats().decrypts, 1);
    }

    #[test]
    fn failed_single_read_charges_no_stats() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(7)).unwrap();
        pager.device_mut().raw_tamper(id, 100, 0xff);
        pager.reset_stats();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert!(pager.read_page(id, &mut buf).is_err());
        assert_eq!(pager.stats(), PagerStats::default(), "failed read charges nothing");
    }

    #[test]
    fn injected_device_read_fault_recovers_via_retry() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(5)).unwrap();
        let plan = FaultPlan::seeded(21).with_nth(FaultSite::DeviceRead, 1);
        pager.set_fault_plan(plan.clone());
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(5), "retried read returns correct data");
        assert_eq!(plan.metrics().injected.get(), 1);
        assert_eq!(plan.metrics().recovered.get(), 1);
        assert_eq!(pager.stats().page_reads, 1, "retry does not double-count");
    }

    #[test]
    fn injected_bitflip_is_detected_then_recovered() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(9)).unwrap();
        pager.reset_stats();
        let plan = FaultPlan::seeded(22).with_nth(FaultSite::PageBitFlip, 1);
        pager.set_fault_plan(plan.clone());
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(9), "medium was pristine; re-read recovers");
        assert_eq!(plan.metrics().recovered.get(), 1);
        assert_eq!(pager.stats().decrypts, 1, "failed decrypt attempt rolled back");
    }

    #[test]
    fn injected_stale_page_is_a_clean_permanent_error() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(3)).unwrap();
        let plan = FaultPlan::seeded(23).with_nth(FaultSite::FreshnessStale, 1);
        pager.set_fault_plan(plan.clone());
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(
            pager.read_page(id, &mut buf),
            Err(StorageError::FreshnessViolation(_))
        ));
        assert_eq!(plan.metrics().retried.get(), 0, "freshness violations are never retried");
    }

    #[test]
    fn injected_rpmb_write_failure_recovers_on_commit() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        let plan = FaultPlan::seeded(24).with_nth(FaultSite::RpmbWrite, 1);
        pager.set_fault_plan(plan.clone());
        pager.commit().unwrap();
        assert_eq!(plan.metrics().injected.get(), 1);
        assert_eq!(plan.metrics().recovered.get(), 1);
        assert_eq!(pager.metrics().rpmb_writes.get(), 1, "one commit counted once");
        // The committed root survives a reboot (freshness state intact).
        let (tz, medium) = pager.into_parts();
        assert!(SecurePager::open(tz, medium, 9).is_ok());
    }

    /// Satellite: duplicate `PageId`s in one batch are well-defined — each
    /// duplicate is charged as its own logical read (counters identical to
    /// the looped equivalent) and every output slot holds its page's bytes,
    /// even though `verify_batch` dedups the shared climb.
    #[test]
    fn batched_read_with_duplicate_ids_is_well_defined() {
        let mut a = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let mut b = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..4u64 {
            let ida = a.allocate_page().unwrap();
            let idb = b.allocate_page().unwrap();
            a.write_page(ida, &payload(i as u8)).unwrap();
            b.write_page(idb, &payload(i as u8)).unwrap();
        }
        a.reset_stats();
        b.reset_stats();
        let ids: Vec<PageId> = vec![2, 0, 2, 2, 3, 0];
        let mut batched = vec![0u8; ids.len() * PAGE_PAYLOAD];
        a.read_pages(&ids, &mut batched).unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                &batched[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD],
                &payload(*id as u8)[..],
                "slot {i} holds page {id}'s payload"
            );
        }
        let mut looped = vec![0u8; ids.len() * PAGE_PAYLOAD];
        for (i, id) in ids.iter().enumerate() {
            b.read_page(*id, &mut looped[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD]).unwrap();
        }
        assert_eq!(batched, looped);
        assert_eq!(a.stats(), b.stats(), "duplicates charge like their looped equivalent");
        assert_eq!(a.stats().page_reads, ids.len() as u64);
    }

    /// Satellite: an id beyond `num_pages` in a batch is a typed error
    /// raised before any I/O — no stats, no retry budget, no fault draws.
    #[test]
    fn batched_read_with_out_of_range_id_is_typed_and_chargeless() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..3u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        pager.reset_stats();
        // A fault plan that would fire on the very first device read: the
        // malformed batch must be rejected before the plan is consulted.
        let plan = FaultPlan::seeded(31).with_rate(FaultSite::DeviceRead, 1.0);
        pager.set_fault_plan(plan.clone());
        let ids: Vec<PageId> = vec![0, 1, 7];
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        assert_eq!(pager.read_pages(&ids, &mut out), Err(StorageError::PageOutOfRange(7)));
        assert_eq!(pager.stats(), PagerStats::default(), "no work charged");
        assert_eq!(plan.metrics().injected.get(), 0, "no fault draws consumed");
    }

    /// The verified-node cache is not a security hole: after a warm scan,
    /// page tampering and MAC corruption are still detected (the per-read
    /// leaf-hash compare never goes away).
    #[test]
    fn post_warm_corruption_still_detected() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..6u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        // Warm: full batched scan, then a repeat that hits the cache.
        let ids: Vec<PageId> = (0..6).collect();
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        pager.read_pages(&ids, &mut out).unwrap();
        let hits_before = pager.metrics().cache_hits.get();
        pager.read_pages(&ids, &mut out).unwrap();
        assert!(pager.metrics().cache_hits.get() > hits_before, "repeat scan hits the cache");
        // Tamper a page body post-warm: detected (stored MAC mismatch).
        pager.device_mut().raw_tamper(2, 100, 0xff);
        assert!(pager.read_pages(&ids, &mut out).is_err(), "post-warm tamper detected");
        let mut single = vec![0u8; PAGE_PAYLOAD];
        assert!(pager.read_page(2, &mut single).is_err());
        pager.device_mut().raw_tamper(2, 100, 0xff); // undo
        // Corrupt the stored MAC trailer post-warm: detected.
        pager.device_mut().raw_tamper(3, BLOCK_SIZE - 1, 0x01);
        assert!(pager.read_pages(&ids, &mut out).is_err(), "post-warm MAC corruption detected");
        pager.device_mut().raw_tamper(3, BLOCK_SIZE - 1, 0x01); // undo
        pager.read_pages(&ids, &mut out).unwrap();
    }

    /// Post-warm stale-root rollback is still detected: warming the cache
    /// against one root, then rolling the medium back across a reboot,
    /// must fail exactly as it did without the cache.
    #[test]
    fn post_warm_rollback_across_reboot_detected() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        pager.commit().unwrap();
        let stale = pager.device().raw_snapshot();
        pager.write_page(id, &payload(2)).unwrap();
        pager.commit().unwrap();
        // Warm the cache against the current (newer) root.
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        pager.read_page(id, &mut buf).unwrap();
        let (tz, mut medium) = pager.into_parts();
        medium.raw_restore(stale);
        assert!(matches!(
            SecurePager::open(tz, medium, 8),
            Err(StorageError::FreshnessViolation(_))
        ));
    }

    /// A write between warm scans bumps the root epoch: the next read
    /// re-verifies from scratch against the new root and repopulates.
    #[test]
    fn write_invalidates_warm_cache_and_reads_reverify() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..4u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        let ids: Vec<PageId> = (0..4).collect();
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        pager.read_pages(&ids, &mut out).unwrap();
        pager.read_pages(&ids, &mut out).unwrap();
        let misses_before = pager.metrics().cache_misses.get();
        pager.write_page(1, &payload(0xaa)).unwrap();
        pager.read_pages(&ids, &mut out).unwrap();
        // Nothing survives the epoch bump: both sibling pairs climb again
        // (one miss per pair, as four single reads would count them).
        assert_eq!(
            pager.metrics().cache_misses.get(),
            misses_before + ids.len() as u64 / 2,
            "every page re-verified after the epoch bump"
        );
        assert_eq!(&out[PAGE_PAYLOAD..2 * PAGE_PAYLOAD], &payload(0xaa)[..]);
    }

    /// A fault-failed batch attempt must not leave cache state or cache
    /// telemetry behind (rollback covers the verified-node cache too).
    #[test]
    fn failed_attempt_rolls_back_cache_state_and_metrics() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..4u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        // Freshness faults are permanent (never retried): the failed batch
        // must charge nothing, including cache counters.
        let plan = FaultPlan::seeded(41).with_nth(FaultSite::FreshnessStale, 1);
        pager.set_fault_plan(plan);
        pager.reset_stats();
        let ids: Vec<PageId> = (0..4).collect();
        let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
        assert!(matches!(
            pager.read_pages(&ids, &mut out),
            Err(StorageError::FreshnessViolation(_))
        ));
        assert_eq!(pager.stats(), PagerStats::default());
        assert_eq!(pager.metrics().cache_hits.get(), 0);
        assert_eq!(pager.metrics().cache_misses.get(), 0);
        // Clean run afterwards: both sibling pairs miss (nothing was
        // cached by the failed attempt), then all four pages hit.
        pager.set_fault_plan(FaultPlan::none());
        pager.read_pages(&ids, &mut out).unwrap();
        assert_eq!((pager.metrics().cache_misses.get(), pager.metrics().cache_hits.get()), (2, 2));
        pager.read_pages(&ids, &mut out).unwrap();
        assert_eq!((pager.metrics().cache_misses.get(), pager.metrics().cache_hits.get()), (2, 6));
    }

    /// Satellite regression: under a fault storm, every span opened by a
    /// read attempt — including attempts that faulted and rolled back —
    /// must close, tagged with its error site, so the trace is a
    /// well-formed tree a Chrome-trace viewer can render.
    #[test]
    fn fault_storm_traces_are_well_formed_trees() {
        use ironsafe_obs::span::Trace;

        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        for i in 0..6u8 {
            let id = pager.allocate_page().unwrap();
            pager.write_page(id, &payload(i)).unwrap();
        }
        let plan = FaultPlan::seeded(97)
            .with_rate(FaultSite::DeviceRead, 0.25)
            .with_rate(FaultSite::PageBitFlip, 0.15)
            .with_rate(FaultSite::FreshnessStale, 0.05);
        pager.set_fault_plan(plan);

        let trace = Trace::new();
        {
            let _g = trace.install();
            let _ctx = TraceCtx::query(1).install();
            let ids: Vec<PageId> = (0..6).collect();
            let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
            let mut single = vec![0u8; PAGE_PAYLOAD];
            for _ in 0..20 {
                // Both outcomes are fine — exhausted batches included;
                // the tree must be well-formed either way.
                let _ = pager.read_pages(&ids, &mut out);
                let _ = pager.read_page(3, &mut single);
            }
        }
        let snap = trace.snapshot();
        assert!(snap.is_well_formed(), "every span closed, parents before children");
        let errors = snap.error_spans();
        assert!(!errors.is_empty(), "the storm produced error-tagged spans");
        for span in &errors {
            let ctx = span.ctx.expect("attempt spans carry the refined ctx");
            assert_eq!(ctx.query_id, 1);
            assert!(ctx.page_batch_id.is_some(), "batch id refined onto {}", span.name);
        }
    }

    /// Tentpole regression: the flight-recorder dump for a given chaos
    /// seed is byte-identical run to run, and failed attempts survive
    /// the stats rollback (that forensic window is the recorder's job).
    #[test]
    fn flight_dump_is_byte_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
            for i in 0..6u8 {
                let id = pager.allocate_page().unwrap();
                pager.write_page(id, &payload(i)).unwrap();
            }
            pager.set_flight_budget(4096);
            let plan = FaultPlan::seeded(seed)
                .with_rate(FaultSite::DeviceRead, 0.3)
                .with_rate(FaultSite::FreshnessStale, 0.1);
            pager.set_fault_plan(plan);
            let ids: Vec<PageId> = (0..6).collect();
            let mut out = vec![0u8; ids.len() * PAGE_PAYLOAD];
            for _ in 0..15 {
                let _ = pager.read_pages(&ids, &mut out);
            }
            pager.take_flight_dump()
        };
        let a = run(9);
        assert!(!a.is_empty(), "the storm recorded events");
        assert_eq!(a, run(9), "same seed, byte-identical dump");
        assert_ne!(a, run(10), "different seed, different forensic window");
        assert!(
            a.iter().any(|l| l.contains("fault") || l.contains("violation")),
            "dump names the event kinds: {a:?}"
        );
    }

    /// Clean reads record nothing; the budget knob resizes the ring the
    /// same way the verified-node cache is sized from the EPC budget.
    #[test]
    fn flight_recorder_stays_quiet_on_clean_reads() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        assert!(pager.take_flight_dump().is_empty(), "no failures, no events");
    }

    /// Satellite regression (partial-write hazard): a write whose every
    /// attempt faults must leave *no* trace — same trusted root, same
    /// medium bytes, same stats — so the pager is never caught between
    /// "medium updated" and "tree updated".
    #[test]
    fn exhausted_write_leaves_root_medium_and_stats_untouched() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(1)).unwrap();
        pager.commit().unwrap();
        pager.reset_stats();
        let root_before = pager.trusted_root();
        let raw_before = pager.device().raw_read(id).unwrap().to_vec();
        let obs_writes_before = pager.metrics().page_writes.get();
        pager.set_fault_plan(FaultPlan::seeded(61).with_rate(FaultSite::DeviceWrite, 1.0));
        assert!(matches!(pager.write_page(id, &payload(2)), Err(StorageError::DeviceIo(_))));
        assert_eq!(pager.trusted_root(), root_before, "tree never ran ahead of the medium");
        assert_eq!(pager.device().raw_read(id).unwrap().to_vec(), raw_before);
        assert_eq!(pager.stats(), PagerStats::default(), "failed write charges nothing");
        assert_eq!(pager.metrics().page_writes.get(), obs_writes_before, "obs counter unchanged");
        // The old committed state still reads and still reopens.
        pager.set_fault_plan(FaultPlan::none());
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(1));
        let (tz, medium) = pager.into_parts();
        assert!(SecurePager::open(tz, medium, 5).is_ok());
    }

    /// Satellite regression: a faulted allocation appends no block and
    /// inserts no Merkle leaf — the next clean allocation gets the id the
    /// faulted one would have had.
    #[test]
    fn exhausted_allocation_leaves_no_orphan_block_or_leaf() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let a = pager.allocate_page().unwrap();
        pager.write_page(a, &payload(1)).unwrap();
        pager.reset_stats();
        let root_before = pager.trusted_root();
        pager.set_fault_plan(FaultPlan::seeded(62).with_rate(FaultSite::DeviceWrite, 1.0));
        assert!(matches!(pager.allocate_page(), Err(StorageError::DeviceIo(_))));
        assert_eq!(pager.num_pages(), 1, "no block appended by the faulted attempt");
        assert_eq!(pager.trusted_root(), root_before, "no orphan leaf in the tree");
        assert_eq!(pager.stats(), PagerStats::default(), "failed allocation charges nothing");
        pager.set_fault_plan(FaultPlan::none());
        let b = pager.allocate_page().unwrap();
        assert_eq!(b, 1, "clean retry gets the same id");
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    /// The fault draw precedes encryption, so a retried write consumes no
    /// IV bytes: the medium ends up byte-identical to a never-faulted run
    /// with the same pager seed.
    #[test]
    fn retried_write_keeps_ciphertext_seed_stable() {
        let mut clean = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let mut faulted = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let ca = clean.allocate_page().unwrap();
        let fa = faulted.allocate_page().unwrap();
        faulted.set_fault_plan(FaultPlan::seeded(63).with_nth(FaultSite::DeviceWrite, 1));
        clean.write_page(ca, &payload(4)).unwrap();
        faulted.write_page(fa, &payload(4)).unwrap();
        assert_eq!(
            clean.device().raw_read(ca).unwrap().to_vec(),
            faulted.device().raw_read(fa).unwrap().to_vec(),
            "retry rewrites the identical ciphertext"
        );
        assert_eq!(clean.trusted_root(), faulted.trusted_root());
    }

    /// `commit_bound` lands root + WAL head in one RPMB write and the
    /// bound state survives a reboot exactly like a plain commit.
    #[test]
    fn commit_bound_is_one_rpmb_write_and_reopens() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(6)).unwrap();
        pager.reset_stats();
        pager.commit_bound(&[0xabu8; 32]).unwrap();
        assert_eq!(pager.stats().rpmb_ops, 1, "batched bind pays one RPMB op");
        assert_eq!(pager.metrics().rpmb_writes.get(), 1);
        let (tz, medium) = pager.into_parts();
        let mut pager = SecurePager::open(tz, medium, 6).unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(6));
    }

    /// `export_block` hands out the raw on-medium ciphertext (what the WAL
    /// journals) without charging any stats.
    #[test]
    fn export_block_is_raw_and_chargeless() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(2)).unwrap();
        pager.reset_stats();
        let exported = pager.export_block(id).unwrap();
        assert_eq!(exported, pager.device().raw_read(id).unwrap().to_vec());
        assert_eq!(exported.len(), BLOCK_SIZE);
        assert!(pager.export_block(99).is_none());
        assert_eq!(pager.stats(), PagerStats::default(), "export is not a logical read");
    }

    /// `take_parts` is the shared-handle power-off: the returned hardware
    /// reopens like `into_parts`, while the husk left behind fail-stops
    /// with typed errors instead of serving.
    #[test]
    fn take_parts_returns_live_hardware_and_poisons_the_husk() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(8)).unwrap();
        pager.commit().unwrap();
        let (tz, medium) = pager.take_parts().unwrap();
        // The husk: no pages, and commits no longer authenticate.
        assert_eq!(pager.num_pages(), 0);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(pager.read_page(id, &mut buf), Err(StorageError::PageOutOfRange(_))));
        assert!(pager.commit().is_err(), "husk RPMB shares no keys with the real device");
        // The parts: a clean reboot serves the committed state.
        let mut reopened = SecurePager::open(tz, medium, 7).unwrap();
        reopened.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(8));
    }

    /// End-to-end crash recovery: checkpoint + one committed group in the
    /// WAL, power-off discarding the medium entirely, then
    /// `SecurePager::recover` rebuilds a bit-identical committed state
    /// from log + RPMB alone.
    #[test]
    fn recover_rebuilds_committed_state_from_wal_and_rpmb() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id0 = pager.allocate_page().unwrap();
        pager.write_page(id0, &payload(3)).unwrap();
        pager.commit().unwrap();

        let mut wal = pager.make_wal(11).expect("secure pager journals");
        let cp = crate::wal::Checkpoint {
            epoch: 1,
            root: pager.current_root(),
            blocks: (0..pager.num_pages())
                .map(|id| pager.export_block(id).unwrap())
                .collect(),
            catalog: b"cat-v1".to_vec(),
        };
        let head = wal.append_checkpoint(&cp).unwrap();
        pager.commit_bound(&head).unwrap();

        // One committed group: overwrite page 0, append page 1.
        pager.write_page(id0, &payload(4)).unwrap();
        let id1 = pager.allocate_page().unwrap();
        pager.write_page(id1, &payload(5)).unwrap();
        let rec = crate::wal::CommitRecord {
            epoch: 2,
            root: pager.current_root(),
            writes: vec![
                (id0, pager.export_block(id0).unwrap()),
                (id1, pager.export_block(id1).unwrap()),
            ],
            catalog: b"cat-v2".to_vec(),
        };
        let head = wal.append_commit(&rec).unwrap();
        pager.commit_bound(&head).unwrap();

        // Power-off: the block medium is lost; only TZ + WAL survive.
        let (tz, _lost_medium) = pager.into_parts();
        let medium = wal.into_medium();
        let (mut recovered, info) = SecurePager::recover(tz, &medium, 21).unwrap();
        assert_eq!(info.epoch, 2);
        assert_eq!(info.catalog, b"cat-v2");
        assert_eq!(info.replayed, 1);
        assert_eq!(info.tail.verdict, crate::wal::TailVerdict::Clean);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        recovered.read_page(id0, &mut buf).unwrap();
        assert_eq!(buf, payload(4));
        recovered.read_page(id1, &mut buf).unwrap();
        assert_eq!(buf, payload(5));
    }

    /// A crash *between* WAL append and the RPMB bind leaves a chain-valid
    /// but uncommitted tail; recovery discards it and lands on the bound
    /// state, never between.
    #[test]
    fn recover_discards_appended_but_unbound_tail() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id0 = pager.allocate_page().unwrap();
        pager.write_page(id0, &payload(6)).unwrap();
        pager.commit().unwrap();

        let mut wal = pager.make_wal(12).expect("secure pager journals");
        let cp = crate::wal::Checkpoint {
            epoch: 1,
            root: pager.current_root(),
            blocks: vec![pager.export_block(id0).unwrap()],
            catalog: b"cat-v1".to_vec(),
        };
        let head = wal.append_checkpoint(&cp).unwrap();
        pager.commit_bound(&head).unwrap();

        // Append a commit record but crash before `commit_bound`.
        pager.write_page(id0, &payload(7)).unwrap();
        let rec = crate::wal::CommitRecord {
            epoch: 2,
            root: pager.current_root(),
            writes: vec![(id0, pager.export_block(id0).unwrap())],
            catalog: b"cat-v2".to_vec(),
        };
        wal.append_commit(&rec).unwrap();

        let (tz, _lost_medium) = pager.into_parts();
        let medium = wal.into_medium();
        let (mut recovered, info) = SecurePager::recover(tz, &medium, 22).unwrap();
        assert_eq!(info.epoch, 1, "unbound record never commits");
        assert_eq!(info.catalog, b"cat-v1");
        assert_eq!(info.tail.uncommitted, 1);
        assert_eq!(info.tail.verdict, crate::wal::TailVerdict::Uncommitted);
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        recovered.read_page(id0, &mut buf).unwrap();
        assert_eq!(buf, payload(6), "pre-commit image, not the torn write");
    }

    #[test]
    fn injected_device_write_fault_recovers() {
        let mut pager = SecurePager::create(fresh_device("s0"), 1).unwrap();
        let id = pager.allocate_page().unwrap();
        let plan = FaultPlan::seeded(25).with_nth(FaultSite::DeviceWrite, 1);
        pager.set_fault_plan(plan.clone());
        pager.write_page(id, &payload(8)).unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        pager.set_fault_plan(FaultPlan::none());
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(8));
        assert_eq!(plan.metrics().recovered.get(), 1);
    }
}
