//! Shared ownership of one [`CsaSystem`] across concurrent sessions.
//!
//! The serving layer (`ironsafe-serve`) runs many sessions against a
//! single system and a single loaded dataset — the paper's Fig. 12
//! setting, minus the N private copies. [`SharedCsaSystem`] is the
//! concurrency boundary that makes that safe, and since the MVCC rework
//! it is *non-blocking*: readers never queue behind a writer.
//!
//! * **Reads** (`SELECT`, paper queries) pin the committed epoch and
//!   execute on a throwaway snapshot view
//!   (`CsaSystem::read_view_at`). Pages a later flush overwrites are
//!   served from the MVCC retained-version store, so the view keeps
//!   reading the state it opened at while writers commit the next one —
//!   with bit-identical results and
//!   [`CostBreakdown`](crate::CostBreakdown)s to a quiesced run.
//! * **Writes** (DML/DDL) serialize among themselves on the write-path
//!   lock, execute on a copy-on-write writer view, and land in a
//!   group-commit buffer. Every `group_size` transactions the buffer is
//!   flushed: pre-images are retained for pinned readers, the pages are
//!   applied to the base store, journaled in the encrypted WAL (when
//!   attached), and the Merkle root + WAL chain head are bound in **one**
//!   RPMB write for the whole group.
//!
//! The only lock a reader takes that a writer also takes is the brief
//! `published` mutex protecting the (epoch, catalog) pair — never held
//! across I/O. The `inner` `RwLock` is now read-locked by *both* paths;
//! its write side is reserved for [`SharedCsaSystem::with_system_mut`]
//! (loaders, experiments).
//!
//! Crash safety: a flush that fails mid-way — injected
//! [`FaultSite::CrashCommit`], WAL tear, RPMB failure — **poisons** the
//! system (fail-stop with typed errors; in-flight pinned readers finish
//! consistently on their retained snapshots). Recovery is a fresh
//! [`SharedCsaSystem::recover`] over the surviving TrustZone device and
//! WAL medium: the committed prefix is replayed, torn/unbound tails are
//! discarded, and the rebuilt state is freshness-verified against the
//! RPMB before serving.
//!
//! Lock order (outermost first): `write` → `inner` → `published` →
//! snapshot registry → base pager.

use crate::cost::{self, CostParams, Run, Work};
use crate::system::{CsaSystem, QueryReport, SystemConfig};
use crate::{CsaError, Result};
use ironsafe_faults::{retry_with, FaultPlan, FaultSite, RetryPolicy};
use ironsafe_obs::{Registry, TraceSnapshot};
use ironsafe_sql::ast::Statement;
use ironsafe_sql::catalog::Catalog;
use ironsafe_sql::Database;
use ironsafe_storage::wal::{Checkpoint, CommitRecord, Wal, WalMedium};
use ironsafe_storage::{
    BlockDevice, PendingTxns, SecurePager, SharedPending, Snapshots, StorageError, TailVerdict,
    PAGE_PAYLOAD,
};
use ironsafe_tee::trustzone::TrustZoneDevice;
use ironsafe_tpch::queries::PaperQuery;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The reader-visible committed state: epoch and catalog move together,
/// atomically with the snapshot registry's publish.
struct Published {
    catalog: Catalog,
    epoch: u64,
}

/// The single-writer group-commit state.
struct WritePath {
    /// Accepted-but-unflushed transactions (writer views read through
    /// this, so statement N+1 sees statement N before the flush).
    pending: SharedPending,
    /// Transactions buffered since the last flush.
    buffered: usize,
    /// Flush every N transactions (1 = flush per statement).
    group_size: usize,
    /// The write path's running catalog — ahead of the published one by
    /// the buffered transactions.
    catalog: Catalog,
    /// The encrypted write-ahead log, once attached.
    wal: Option<Wal>,
    /// IV seed the WAL was attached with (reused when the log is
    /// re-checkpointed after `with_system_mut`).
    wal_seed: u64,
}

/// What [`SharedCsaSystem::recover`] found in the log.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Committed epoch the system resumed at.
    pub epoch: u64,
    /// Commit records replayed onto the rebuilt store.
    pub replayed: usize,
    /// Chain-valid records past the RPMB bind, discarded whole.
    pub discarded: usize,
    /// How the log's tail ended (clean / uncommitted / torn / corrupt).
    pub verdict: TailVerdict,
}

impl RecoveryReport {
    /// Deterministic one-line rendering for the monitor audit trail
    /// (`recovery` stream). Recovery is a security-relevant event: the
    /// line attests which committed prefix the system resumed from and
    /// what it threw away, hash-chained like every other audit entry.
    pub fn audit_line(&self) -> String {
        format!(
            "wal recovery: epoch={} replayed={} discarded={} tail={:?}",
            self.epoch, self.replayed, self.discarded, self.verdict
        )
    }
}

/// A [`CsaSystem`] shared across threads via `Arc`, with MVCC snapshot
/// reads and a group-commit write path (see module docs).
pub struct SharedCsaSystem {
    inner: RwLock<CsaSystem>,
    published: Mutex<Published>,
    snapshots: Snapshots,
    write: Mutex<WritePath>,
    /// Set when a flush died mid-way: the base store may hold a partial
    /// group, so everything fail-stops until recovery.
    poisoned: AtomicBool,
}

impl SharedCsaSystem {
    /// Wrap an already-built system for shared use.
    ///
    /// Disables the base pager's verified-node cache: the shared
    /// decrypted-page cache records each page's first-read pager-stats
    /// delta and replays it on later hits, so per-page deltas must be
    /// independent of which session happened to read first — a warm
    /// Merkle-node cache would make them interleaving-dependent. The
    /// serving layer trades the freshness fast path for deterministic
    /// per-session accounting (single-session systems keep it on).
    pub fn new(system: CsaSystem) -> Self {
        system.storage_db().pager().lock().set_merkle_cache_enabled(false);
        let catalog = system.storage_db().catalog().clone();
        let pages = system.storage_db().pager().lock().num_pages();
        let snapshots = Snapshots::new();
        snapshots.publish(1, pages);
        SharedCsaSystem {
            inner: RwLock::new(system),
            published: Mutex::new(Published { catalog: catalog.clone(), epoch: 1 }),
            snapshots,
            write: Mutex::new(WritePath {
                pending: Arc::new(Mutex::new(PendingTxns::default())),
                buffered: 0,
                group_size: 1,
                catalog,
                wal: None,
                wal_seed: 0,
            }),
            poisoned: AtomicBool::new(false),
        }
    }

    fn check_poison(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(CsaError::Storage(StorageError::DeviceIo(
                "system poisoned by a failed group-commit flush (recover from the WAL)",
            )));
        }
        Ok(())
    }

    /// True once a failed flush fail-stopped the system.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The committed epoch readers currently pin.
    pub fn committed_epoch(&self) -> u64 {
        self.published.lock().epoch
    }

    /// Flush every `n` accepted transactions (clamped to ≥ 1). The
    /// default of 1 flushes per statement — the pre-WAL behavior every
    /// existing visibility test assumes.
    pub fn set_group_size(&self, n: usize) {
        self.write.lock().group_size = n.max(1);
    }

    /// Run a paper query on an isolated snapshot view, under a
    /// per-request session key. Returns the report plus the run's
    /// telemetry trace. Never blocks on concurrent writers.
    pub fn run_query(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
    ) -> Result<(QueryReport, Option<TraceSnapshot>)> {
        self.run_query_with_dop(q, session_key, 1)
    }

    /// [`SharedCsaSystem::run_query`] at an explicit degree of
    /// parallelism. DOP > 1 runs the view's read-only fragments on the
    /// morsel worker pool; reports stay bit-identical to DOP 1.
    pub(crate) fn run_query_with_dop(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(QueryReport, Option<TraceSnapshot>)> {
        self.check_poison()?;
        let guard = self.inner.read();
        let mut view = self.open_snapshot_view(&guard);
        view.set_session_key(session_key);
        view.set_dop(dop);
        let report = view.run_query(q)?;
        Ok((report, view.take_last_trace()))
    }

    /// Pin the committed epoch and open a snapshot view on it. The pin
    /// and the catalog are taken under one `published` lock, so the pair
    /// is always a consistent commit.
    fn open_snapshot_view(&self, guard: &CsaSystem) -> CsaSystem {
        let (pin, catalog) = {
            let p = self.published.lock();
            (self.snapshots.pin(), p.catalog.clone())
        };
        guard.read_view_at(pin, catalog)
    }

    /// Pin the current committed epoch and hand back a long-lived
    /// snapshot view on it. The view keeps serving that epoch — rows and
    /// simulated costs bit-identical to a quiesced run — across any
    /// number of later commits; dropping it releases the retained page
    /// versions.
    pub fn pin_read_view(&self) -> Result<CsaSystem> {
        self.check_poison()?;
        let guard = self.inner.read();
        Ok(self.open_snapshot_view(&guard))
    }

    /// Run one statement: `SELECT`s execute concurrently on snapshot
    /// views; DML/DDL serialize on the write path, execute on a writer
    /// view, and commit through the group buffer.
    pub fn run_statement(
        &self,
        stmt: &Statement,
        session_key: [u8; 32],
    ) -> Result<(QueryReport, Option<TraceSnapshot>)> {
        self.run_statement_with_dop(stmt, session_key, 1)
    }

    /// [`SharedCsaSystem::run_statement`] at an explicit degree of
    /// parallelism (`SELECT`s only; writes always run serially).
    pub(crate) fn run_statement_with_dop(
        &self,
        stmt: &Statement,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(QueryReport, Option<TraceSnapshot>)> {
        self.check_poison()?;
        if matches!(stmt, Statement::Select(_)) {
            let guard = self.inner.read();
            let mut view = self.open_snapshot_view(&guard);
            view.set_session_key(session_key);
            view.set_dop(dop);
            let report = view.run_statement(stmt)?;
            return Ok((report, view.take_last_trace()));
        }
        // The write path: readers keep running under `inner.read()`; only
        // other writers wait here.
        let mut w = self.write.lock();
        let guard = self.inner.read();
        let mut view = guard.write_view(w.pending.clone(), w.catalog.clone());
        view.set_session_key(session_key);
        // A failed statement dies with its overlay — the group buffer
        // never sees a partial transaction.
        let mut report = view.run_statement(stmt)?;
        let trace = view.take_last_trace();
        let (pages, next_id) = view
            .storage_db()
            .pager()
            .lock()
            .take_txn_pages()
            .expect("writer views always carry an overlay");
        w.catalog = view.storage_db().catalog().clone();
        w.pending.lock().merge(pages, next_id);
        w.buffered += 1;
        if w.buffered >= w.group_size {
            self.flush_locked(&mut w, &guard, Some(&mut report))?;
        }
        Ok((report, trace))
    }

    /// Install a fault plan on the base system *and* the attached WAL
    /// (chaos harnesses drive the `storage.wal.*` / `storage.commit.crash`
    /// sites through here). Unlike [`SharedCsaSystem::with_system_mut`],
    /// this neither flushes nor re-checkpoints — the plan simply governs
    /// whatever runs next.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut w = self.write.lock();
        if let Some(wal) = w.wal.as_mut() {
            wal.set_fault_plan(plan.clone());
        }
        self.inner.write().set_fault_plan(plan);
    }

    /// Force the group buffer out now (drain hooks, shutdown). A no-op
    /// when nothing is buffered.
    pub fn flush(&self) -> Result<()> {
        self.check_poison()?;
        let mut w = self.write.lock();
        let guard = self.inner.read();
        self.flush_locked(&mut w, &guard, None)
    }

    /// Flush the buffered group: retain pre-images for pinned readers,
    /// apply to the base store, journal in the WAL, bind root + WAL head
    /// in one RPMB write, publish the next epoch. Any failure poisons
    /// the system (the base may hold a partial group; recovery replays
    /// the WAL's committed prefix instead).
    fn flush_locked(
        &self,
        w: &mut WritePath,
        sys: &CsaSystem,
        report: Option<&mut QueryReport>,
    ) -> Result<()> {
        if w.buffered == 0 {
            return Ok(());
        }
        let res = self.flush_apply(w, sys, report);
        if res.is_err() {
            self.poisoned.store(true, Ordering::Release);
        }
        res
    }

    fn flush_apply(
        &self,
        w: &mut WritePath,
        sys: &CsaSystem,
        report: Option<&mut QueryReport>,
    ) -> Result<()> {
        let writes = w.pending.lock().drain_sorted();
        let txns = w.buffered as u64;
        w.buffered = 0;
        let next_epoch = self.published.lock().epoch + 1;
        let plan = sys.fault_plan().clone();
        let retry = RetryPolicy::default();
        let cache = sys.read_cache();
        let pager = sys.storage_db().pager();
        let journal = w.wal.is_some();
        let wal_bytes_before = w.wal.as_ref().map_or(0, |wal| wal.metrics().bytes.get());

        let stats_before;
        let mut post: Vec<(u64, Vec<u8>)> = Vec::with_capacity(writes.len());
        {
            // One base-lock critical section for the whole apply: pinned
            // readers either see the pre-flush base (their pre-images are
            // retained before each overwrite) or wait out the group —
            // never a half-applied page.
            let mut b = pager.lock();
            stats_before = b.stats();
            let mut num = b.num_pages();
            for (id, data) in &writes {
                if plan.should_fire(FaultSite::CrashCommit) {
                    return Err(CsaError::Storage(StorageError::DeviceIo(
                        "injected crash during group-commit apply",
                    )));
                }
                if *id < num {
                    // Retain the pre-image (and its first-read cost) for
                    // every pin below the epoch this flush publishes.
                    if let Some((img, delta)) = cache.entry(*id) {
                        self.snapshots.retain(*id, img.into(), delta, next_epoch);
                    } else {
                        let mut buf = vec![0u8; PAGE_PAYLOAD];
                        let before = b.stats();
                        b.read_page(*id, &mut buf)?;
                        let delta = b.stats() - before;
                        self.snapshots.retain(*id, buf.into(), delta, next_epoch);
                    }
                    cache.invalidate(*id);
                    b.write_page(*id, data)?;
                } else {
                    let got = b.allocate_page()?;
                    debug_assert_eq!(got, *id, "group buffer allocates densely past the base");
                    num = got + 1;
                    b.write_page(*id, data)?;
                }
                if journal {
                    post.push((*id, b.export_block(*id).expect("journaling base exports blocks")));
                }
            }
        }

        if let Some(wal) = w.wal.as_mut() {
            let rec = CommitRecord {
                epoch: next_epoch,
                root: pager.lock().current_root(),
                writes: post,
                catalog: ironsafe_sql::meta::encode_catalog(&w.catalog),
            };
            let head = retry_with(&plan, &retry, || wal.append_commit(&rec))
                .map_err(CsaError::Storage)?;
            if plan.should_fire(FaultSite::CrashCommit) {
                return Err(CsaError::Storage(StorageError::DeviceIo(
                    "injected crash between WAL append and RPMB bind",
                )));
            }
            // The commit point: root MAC + WAL chain head in ONE RPMB
            // write for the whole group.
            pager.lock().commit_bound(&head).map_err(CsaError::Storage)?;
            wal.metrics().group_commits.inc();
            wal.metrics().txns.add(txns);
        } else {
            if plan.should_fire(FaultSite::CrashCommit) {
                return Err(CsaError::Storage(StorageError::DeviceIo(
                    "injected crash before commit",
                )));
            }
            pager.lock().commit().map_err(CsaError::Storage)?;
        }

        // Publish: new pins land on the next epoch; versions nobody
        // pinned are collected immediately.
        {
            let pages = pager.lock().num_pages();
            let mut p = self.published.lock();
            p.catalog = w.catalog.clone();
            p.epoch = next_epoch;
            self.snapshots.publish(next_epoch, pages);
        }

        // Price the deferred device work into the triggering statement's
        // report — the flush's base-pager I/O, crypto and freshness costs
        // plus the WAL append, amortized over the group by construction.
        if let Some(report) = report {
            let work = Work {
                pages: pager.lock().stats() - stats_before,
                wal_bytes: w.wal.as_ref().map_or(0, |wal| wal.metrics().bytes.get())
                    - wal_bytes_before,
                ..Work::default()
            };
            report.breakdown.add_terms(&cost::price(Run::Write, &work, &sys.params));
        }
        Ok(())
    }

    /// Attach an encrypted group-commit WAL: flushes anything buffered,
    /// then writes a checkpoint record (the full medium image the log's
    /// deltas hang off) and binds its chain head in the RPMB. Requires a
    /// base pager with a database key (the secure pager).
    pub fn attach_wal(&self, rng_seed: u64) -> Result<()> {
        self.check_poison()?;
        let mut w = self.write.lock();
        let guard = self.inner.read();
        self.flush_locked(&mut w, &guard, None)?;
        let res = self.checkpoint_wal_locked(&mut w, &guard, rng_seed);
        if res.is_err() {
            self.poisoned.store(true, Ordering::Release);
        }
        res
    }

    fn checkpoint_wal_locked(
        &self,
        w: &mut WritePath,
        sys: &CsaSystem,
        rng_seed: u64,
    ) -> Result<()> {
        let pager = sys.storage_db().pager();
        let mut wal = pager.lock().make_wal(rng_seed).ok_or(CsaError::Storage(
            StorageError::DeviceIo("base pager has no database key to derive WAL keys from"),
        ))?;
        wal.set_fault_plan(sys.fault_plan().clone());
        let (blocks, root) = {
            let b = pager.lock();
            let blocks = (0..b.num_pages())
                .map(|id| b.export_block(id).expect("journaling base exports blocks"))
                .collect();
            (blocks, b.current_root())
        };
        let cp = Checkpoint {
            epoch: self.published.lock().epoch,
            root,
            blocks,
            catalog: ironsafe_sql::meta::encode_catalog(&w.catalog),
        };
        let plan = sys.fault_plan().clone();
        let retry = RetryPolicy::default();
        let head =
            retry_with(&plan, &retry, || wal.append_checkpoint(&cp)).map_err(CsaError::Storage)?;
        pager.lock().commit_bound(&head).map_err(CsaError::Storage)?;
        w.wal = Some(wal);
        w.wal_seed = rng_seed;
        Ok(())
    }

    /// Attach the `mvcc.*` and (when a WAL is attached) `wal.*` counters
    /// to `registry`. Call after [`SharedCsaSystem::attach_wal`].
    pub fn register_wal_metrics(&self, registry: &Registry) {
        self.snapshots.metrics().register(registry);
        if let Some(wal) = self.write.lock().wal.as_ref() {
            wal.metrics().register(registry);
        }
    }

    /// Power-off simulation for crash harnesses: flush *nothing* (the
    /// crash takes the buffer with it), tear the base pager down to its
    /// surviving hardware, and surrender the WAL medium. Recover with
    /// [`SharedCsaSystem::recover`].
    pub fn teardown(self) -> (Option<(TrustZoneDevice, BlockDevice)>, Option<WalMedium>) {
        let SharedCsaSystem { inner, write, .. } = self;
        let mut w = write.into_inner();
        let medium = w.wal.take().map(Wal::into_medium);
        let sys = inner.into_inner();
        let parts = sys.storage_db().pager().lock().take_parts();
        (parts, medium)
    }

    /// Crash recovery: rebuild a serving system from the surviving
    /// TrustZone device and WAL medium. The log's committed prefix (up
    /// to the RPMB-bound chain head) is replayed bit-identically;
    /// torn/unbound/corrupt tails are discarded and reported. The
    /// recovered system gets a fresh WAL with a new checkpoint
    /// (checkpoint-on-recovery), so the old log can be retired.
    pub fn recover(
        config: SystemConfig,
        params: CostParams,
        tz: TrustZoneDevice,
        medium: &WalMedium,
        rng_seed: u64,
        wal_seed: u64,
        group_size: usize,
    ) -> Result<(Self, RecoveryReport)> {
        let (pager, info) = SecurePager::recover(tz, medium, rng_seed).map_err(CsaError::Storage)?;
        let catalog = ironsafe_sql::meta::decode_catalog(&info.catalog)?;
        let db = Database::from_parts(ironsafe_sql::heap::shared(pager), catalog);
        let sys = CsaSystem::from_database(config, db, params);
        let shared = SharedCsaSystem::new(sys);
        // Resume the recovered epoch sequence (new() published epoch 1).
        {
            let pages = shared.inner.read().storage_db().pager().lock().num_pages();
            let mut p = shared.published.lock();
            p.epoch = p.epoch.max(info.epoch);
            shared.snapshots.publish(p.epoch, pages);
        }
        shared.set_group_size(group_size);
        shared.attach_wal(wal_seed)?;
        // Surface what recovery did on the fresh log's counters, so a
        // registry attached post-recovery reports the replay/discard tallies.
        if let Some(wal) = shared.write.lock().wal.as_ref() {
            wal.metrics().replayed.add(info.replayed as u64);
            wal.metrics().discarded.add(info.tail.uncommitted as u64);
        }
        let report = RecoveryReport {
            epoch: shared.committed_epoch(),
            replayed: info.replayed,
            discarded: info.tail.uncommitted,
            verdict: info.tail.verdict,
        };
        Ok((shared, report))
    }

    /// Drain the base pager's TEE-resident flight recorder: the
    /// deterministic forensic event lines recorded by faulted or
    /// violating page accesses, including ones taken through read
    /// views (views delegate their recorder to the shared base). The
    /// serving layer appends these to the monitor audit trail when an
    /// execution fails.
    pub fn take_flight_dump(&self) -> Vec<String> {
        self.inner.read().storage_db().pager().lock().take_flight_dump()
    }

    /// Inspect the underlying system (catalog walks, config checks).
    /// Sees the *published* state plus whatever the group buffer holds —
    /// callers that need transactional consistency should read through
    /// [`SharedCsaSystem::run_statement`] instead.
    pub fn with_system<R>(&self, f: impl FnOnce(&CsaSystem) -> R) -> R {
        f(&self.inner.read())
    }

    /// Exclusive access for loaders and experiments. Buffered
    /// transactions are flushed first so `f` sees fully-applied state;
    /// afterwards the published catalog/epoch are reseeded from whatever
    /// `f` left behind, the page cache is cleared, and an attached WAL
    /// is re-checkpointed (the old log no longer describes the store).
    pub fn with_system_mut<R>(&self, f: impl FnOnce(&mut CsaSystem) -> R) -> R {
        let mut w = self.write.lock();
        if w.buffered > 0 && !self.is_poisoned() {
            let guard = self.inner.read();
            let _ = self.flush_locked(&mut w, &guard, None);
        }
        let r = {
            let mut guard = self.inner.write();
            let r = f(&mut guard);
            let catalog = guard.storage_db().catalog().clone();
            let pages = guard.storage_db().pager().lock().num_pages();
            guard.read_cache().clear();
            {
                let mut p = self.published.lock();
                p.epoch += 1;
                p.catalog = catalog.clone();
                self.snapshots.publish(p.epoch, pages);
            }
            w.catalog = catalog;
            *w.pending.lock() = PendingTxns::default();
            w.buffered = 0;
            r
        };
        if w.wal.is_some() && !self.is_poisoned() {
            let seed = w.wal_seed;
            let guard = self.inner.read();
            if self.checkpoint_wal_locked(&mut w, &guard, seed).is_err() {
                self.poisoned.store(true, Ordering::Release);
            }
        }
        r
    }

    /// Unwrap back into the owned system (flushing the group buffer).
    #[cfg(test)]
    pub(crate) fn into_inner(self) -> CsaSystem {
        {
            let mut w = self.write.lock();
            if w.buffered > 0 && !self.is_poisoned() {
                let guard = self.inner.read();
                let _ = self.flush_locked(&mut w, &guard, None);
            }
        }
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostParams;
    use crate::system::SystemConfig;
    use ironsafe_tpch::queries::paper_queries;
    use std::sync::Arc;

    fn small_system(config: SystemConfig) -> SharedCsaSystem {
        let data = ironsafe_tpch::generate(0.002, 42);
        SharedCsaSystem::new(CsaSystem::build(config, &data, CostParams::default()).unwrap())
    }

    #[test]
    fn view_runs_match_serial_runs() {
        let shared = small_system(SystemConfig::StorageOnlySecure);
        let queries = paper_queries();
        let q = queries.iter().find(|q| q.id == 6).unwrap();
        let key = [7u8; 32];
        let (first, _) = shared.run_query(q, key).unwrap();
        let (second, _) = shared.run_query(q, key).unwrap();
        assert_eq!(first.result, second.result);
        assert_eq!(first.breakdown, second.breakdown);
        // Serial execution on the owned system agrees bit-for-bit.
        let mut owned = shared.into_inner();
        owned.set_session_key(key);
        let serial = owned.run_query(q).unwrap();
        assert_eq!(serial.result, first.result);
        assert_eq!(serial.breakdown, first.breakdown);
    }

    #[test]
    fn concurrent_views_are_deterministic() {
        let shared = Arc::new(small_system(SystemConfig::IronSafe));
        let queries = paper_queries();
        let ids = [1u8, 6, 12];
        let baseline: Vec<_> = ids
            .iter()
            .map(|id| {
                let q = queries.iter().find(|q| q.id == *id).unwrap();
                shared.run_query(q, [9u8; 32]).unwrap().0
            })
            .collect();
        crossbeam::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..3 {
                for id in ids {
                    let shared = Arc::clone(&shared);
                    let q = queries.iter().find(|q| q.id == id).unwrap();
                    handles.push(s.spawn(move |_| (id, shared.run_query(q, [9u8; 32]).unwrap().0)));
                }
            }
            for h in handles {
                let (id, report) = h.join().unwrap();
                let expect = &baseline[ids.iter().position(|i| *i == id).unwrap()];
                assert_eq!(report.result, expect.result, "q{id} result drifted");
                assert_eq!(report.breakdown, expect.breakdown, "q{id} costs drifted");
            }
        })
        .unwrap();
    }

    #[test]
    fn writes_invalidate_reader_state() {
        let shared = small_system(SystemConfig::StorageOnlySecure);
        let before = shared.with_system(|sys| {
            sys.storage_db().catalog().table("region").unwrap().heap.row_count
        });
        let stmt =
            ironsafe_sql::parser::parse_statement("DELETE FROM region WHERE r_regionkey = 0")
                .unwrap();
        shared.run_statement(&stmt, [1u8; 32]).unwrap();
        // A read view created after the write sees the new row count.
        let sel = ironsafe_sql::parser::parse_statement("SELECT COUNT(*) FROM region").unwrap();
        let (report, _) = shared.run_statement(&sel, [1u8; 32]).unwrap();
        match report.result {
            ironsafe_sql::QueryResult::Rows { rows, .. } => {
                assert_eq!(
                    rows[0][0],
                    ironsafe_sql::Value::Int(before as i64 - 1),
                    "view must see committed delete"
                );
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// A reader pinned before a committed write keeps serving the old
    /// epoch; a reader pinned after sees the new one. The pinned run's
    /// rows and costs are bit-identical to a quiesced run of the same
    /// query at that epoch.
    #[test]
    fn pinned_reader_is_isolated_from_interleaved_writes() {
        let shared = small_system(SystemConfig::StorageOnlySecure);
        let sel = ironsafe_sql::parser::parse_statement("SELECT COUNT(*) FROM region").unwrap();
        let key = [4u8; 32];
        // Quiesced baseline at the initial epoch.
        let (baseline, _) = shared.run_statement(&sel, key).unwrap();

        // Pin a view *before* the write commits.
        let guard = shared.inner.read();
        let mut pinned = shared.open_snapshot_view(&guard);
        pinned.set_session_key(key);
        drop(guard);

        let del = ironsafe_sql::parser::parse_statement("DELETE FROM region").unwrap();
        shared.run_statement(&del, key).unwrap();

        // The pinned view still serves the pre-write epoch, rows and
        // costs bit-identical to the quiesced baseline.
        let pinned_report = pinned.run_statement(&sel).unwrap();
        assert_eq!(pinned_report.result, baseline.result, "snapshot rows drifted");
        assert_eq!(pinned_report.breakdown, baseline.breakdown, "snapshot costs drifted");

        // A fresh reader sees the committed delete.
        let (after, _) = shared.run_statement(&sel, key).unwrap();
        match after.result {
            ironsafe_sql::QueryResult::Rows { rows, .. } => {
                assert_eq!(rows[0][0], ironsafe_sql::Value::Int(0));
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// Group commit: with `group_size` N, statements buffer until the
    /// Nth, readers see nothing until the flush, then everything at once.
    #[test]
    fn group_commit_defers_visibility_until_flush() {
        let shared = small_system(SystemConfig::StorageOnlySecure);
        shared.set_group_size(3);
        let key = [2u8; 32];
        let sel = ironsafe_sql::parser::parse_statement("SELECT COUNT(*) FROM region").unwrap();
        let rows_of = |r: &QueryReport| match &r.result {
            ironsafe_sql::QueryResult::Rows { rows, .. } => match rows[0][0] {
                ironsafe_sql::Value::Int(n) => n,
                ref other => panic!("expected int, got {other:?}"),
            },
            other => panic!("expected rows, got {other:?}"),
        };
        let before = rows_of(&shared.run_statement(&sel, key).unwrap().0);
        let epoch0 = shared.committed_epoch();
        for k in 0..2 {
            let del = ironsafe_sql::parser::parse_statement(&format!(
                "DELETE FROM region WHERE r_regionkey = {k}"
            ))
            .unwrap();
            shared.run_statement(&del, key).unwrap();
            // Buffered, not committed: readers still see everything.
            assert_eq!(rows_of(&shared.run_statement(&sel, key).unwrap().0), before);
            assert_eq!(shared.committed_epoch(), epoch0, "no epoch before the flush");
        }
        // Third statement fills the group and flushes it.
        let del =
            ironsafe_sql::parser::parse_statement("DELETE FROM region WHERE r_regionkey = 2")
                .unwrap();
        shared.run_statement(&del, key).unwrap();
        assert_eq!(shared.committed_epoch(), epoch0 + 1, "one epoch for the whole group");
        assert_eq!(rows_of(&shared.run_statement(&sel, key).unwrap().0), before - 3);
    }

    /// Writer statements inside one group see their predecessors through
    /// the pending buffer (read-your-group-writes).
    #[test]
    fn writer_sees_buffered_predecessors() {
        let shared = small_system(SystemConfig::StorageOnlySecure);
        shared.set_group_size(10);
        let key = [3u8; 32];
        shared
            .run_statement(
                &ironsafe_sql::parser::parse_statement("CREATE TABLE t (a INT)").unwrap(),
                key,
            )
            .unwrap();
        shared
            .run_statement(
                &ironsafe_sql::parser::parse_statement("INSERT INTO t (a) VALUES (1)").unwrap(),
                key,
            )
            .unwrap();
        // UPDATE must observe the buffered INSERT.
        let (report, _) = shared
            .run_statement(
                &ironsafe_sql::parser::parse_statement("UPDATE t SET a = 2 WHERE a = 1").unwrap(),
                key,
            )
            .unwrap();
        match report.result {
            ironsafe_sql::QueryResult::Count(n) => assert_eq!(n, 1, "buffered row not visible"),
            other => panic!("expected affected count, got {other:?}"),
        }
        shared.flush().unwrap();
        let (after, _) = shared
            .run_statement(
                &ironsafe_sql::parser::parse_statement("SELECT COUNT(*) FROM t WHERE a = 2")
                    .unwrap(),
                key,
            )
            .unwrap();
        match after.result {
            ironsafe_sql::QueryResult::Rows { rows, .. } => {
                assert_eq!(rows[0][0], ironsafe_sql::Value::Int(1));
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// The WAL round trip at the system level: attach, commit groups,
    /// crash (teardown without flushing), recover, and the recovered
    /// system answers queries over exactly the committed state.
    #[test]
    fn wal_recovery_restores_committed_state() {
        let shared = small_system(SystemConfig::StorageOnlySecure);
        shared.attach_wal(77).unwrap();
        let key = [6u8; 32];
        let del =
            ironsafe_sql::parser::parse_statement("DELETE FROM region WHERE r_regionkey = 0")
                .unwrap();
        shared.run_statement(&del, key).unwrap();
        let sel = ironsafe_sql::parser::parse_statement("SELECT COUNT(*) FROM region").unwrap();
        let (committed, _) = shared.run_statement(&sel, key).unwrap();

        let (parts, medium) = shared.teardown();
        let (tz, _lost_medium) = parts.expect("secure base tears down");
        let medium = medium.expect("WAL attached");
        let (recovered, report) = SharedCsaSystem::recover(
            SystemConfig::StorageOnlySecure,
            CostParams::default(),
            tz,
            &medium,
            91,
            92,
            1,
        )
        .unwrap();
        assert_eq!(report.replayed, 1, "one committed group to replay");
        assert_eq!(report.verdict, TailVerdict::Clean);
        let (after, _) = recovered.run_statement(&sel, key).unwrap();
        assert_eq!(after.result, committed.result, "recovered rows drifted");
    }
}
