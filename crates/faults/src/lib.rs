//! Deterministic fault injection and bounded-retry recovery.
//!
//! IronSafe's security argument is *fail-detectably*: a query either
//! completes with end-to-end confidentiality/integrity/freshness or it
//! returns a typed error. This crate makes that claim testable. A
//! [`FaultPlan`] is a seeded, fully reproducible description of which
//! faults fire at which named [`FaultSite`]s — either with a fixed
//! probability per arrival or on an exact schedule ("the 3rd RPMB write
//! fails"). Components throughout the workspace carry a plan handle
//! (default [`FaultPlan::none`], a single branch on the hot path) and
//! consult it at their hook points:
//!
//! | surface  | sites |
//! |----------|-------|
//! | storage  | `storage.device.read`, `storage.device.write`, `storage.page.bitflip`, `storage.page.mac`, `storage.freshness.stale`, `storage.wal.append`, `storage.wal.tear`, `storage.commit.crash` |
//! | channel  | `csa.net.drop`, `csa.net.corrupt`, `csa.net.reorder` |
//! | tee      | `tee.enclave.crash`, `tee.epc.abort`, `tee.rpmb.write_fail` |
//!
//! Recovery rides on two pieces: the [`Transient`] classification trait
//! implemented by every error enum in the workspace, and [`retry_with`],
//! a bounded retry loop with simulated-time exponential backoff (charged
//! to the `"other"` cost category of the installed
//! [`ironsafe_obs`] trace, so recovery time shows up in
//! `CostBreakdown`s). The plan owns the `faults.*` counters
//! (`faults.injected` / `faults.retried` / `faults.recovered` /
//! `faults.exhausted`) so chaos harnesses can assert that injected
//! faults were actually recovered.
//!
//! Determinism: whether a fault fires depends only on `(seed, site,
//! arrival index)` via a SplitMix64-style mixer — no global RNG, no wall
//! clock — so a failing chaos combination replays exactly from its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ironsafe_obs::{Counter, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Named injection points compiled into the production types.
///
/// The `as_str` names are what chaos tooling prints and what the
/// DESIGN.md fault-site table documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Block-device read returns an I/O error before touching the medium.
    DeviceRead,
    /// Block-device write returns an I/O error before touching the medium.
    DeviceWrite,
    /// A bit flips in the ciphertext block *in transit* (the medium keeps
    /// the pristine block, so a re-read recovers).
    PageBitFlip,
    /// The stored MAC is corrupted in transit (detected as an integrity
    /// violation; recoverable by re-read).
    PageMacCorrupt,
    /// The freshness check observes a stale root (rollback); permanent,
    /// never retried.
    FreshnessStale,
    /// A sealed channel record is lost in transit.
    ChannelDrop,
    /// A sealed channel record is corrupted in transit.
    ChannelCorrupt,
    /// A sealed channel record arrives out of order.
    ChannelReorder,
    /// The enclave crashes on entry (destroyed; needs a restart).
    EnclaveCrash,
    /// Enclave entry aborts under EPC pressure (transient).
    EpcAbort,
    /// An authenticated RPMB write fails (device busy; transient).
    RpmbWrite,
    /// A WAL record append fails with an I/O error before any log byte
    /// reaches the medium (transient; a retry rewrites the same tail).
    WalAppend,
    /// A WAL record append tears: only a prefix of the record's blocks
    /// lands on the medium. The in-memory tail does not advance, so a
    /// retry overwrites the torn bytes; a crash instead leaves them for
    /// recovery to discard as a typed torn-tail error.
    WalTear,
    /// The system dies mid group-commit (between commit sub-steps). The
    /// write path fail-stops; the harness power-cycles and recovers via
    /// WAL replay.
    CrashCommit,
}

/// Number of distinct fault sites.
pub const NUM_SITES: usize = 14;

/// All sites, in `FaultSite as usize` order.
pub const ALL_SITES: [FaultSite; NUM_SITES] = [
    FaultSite::DeviceRead,
    FaultSite::DeviceWrite,
    FaultSite::PageBitFlip,
    FaultSite::PageMacCorrupt,
    FaultSite::FreshnessStale,
    FaultSite::ChannelDrop,
    FaultSite::ChannelCorrupt,
    FaultSite::ChannelReorder,
    FaultSite::EnclaveCrash,
    FaultSite::EpcAbort,
    FaultSite::RpmbWrite,
    FaultSite::WalAppend,
    FaultSite::WalTear,
    FaultSite::CrashCommit,
];

impl FaultSite {
    /// Stable dotted name used in telemetry and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::DeviceRead => "storage.device.read",
            FaultSite::DeviceWrite => "storage.device.write",
            FaultSite::PageBitFlip => "storage.page.bitflip",
            FaultSite::PageMacCorrupt => "storage.page.mac",
            FaultSite::FreshnessStale => "storage.freshness.stale",
            FaultSite::ChannelDrop => "csa.net.drop",
            FaultSite::ChannelCorrupt => "csa.net.corrupt",
            FaultSite::ChannelReorder => "csa.net.reorder",
            FaultSite::EnclaveCrash => "tee.enclave.crash",
            FaultSite::EpcAbort => "tee.epc.abort",
            FaultSite::RpmbWrite => "tee.rpmb.write_fail",
            FaultSite::WalAppend => "storage.wal.append",
            FaultSite::WalTear => "storage.wal.tear",
            FaultSite::CrashCommit => "storage.commit.crash",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::DeviceRead => 0,
            FaultSite::DeviceWrite => 1,
            FaultSite::PageBitFlip => 2,
            FaultSite::PageMacCorrupt => 3,
            FaultSite::FreshnessStale => 4,
            FaultSite::ChannelDrop => 5,
            FaultSite::ChannelCorrupt => 6,
            FaultSite::ChannelReorder => 7,
            FaultSite::EnclaveCrash => 8,
            FaultSite::EpcAbort => 9,
            FaultSite::RpmbWrite => 10,
            FaultSite::WalAppend => 11,
            FaultSite::WalTear => 12,
            FaultSite::CrashCommit => 13,
        }
    }
}

/// The `faults.*` counter cells a plan carries. Shared (same cells) by
/// every component holding a clone of the plan, so one registration per
/// registry suffices.
#[derive(Debug, Clone, Default)]
pub struct FaultMetrics {
    /// Faults the plan decided to fire.
    pub injected: Counter,
    /// Retry attempts made after a transient failure.
    pub retried: Counter,
    /// Operations that ultimately succeeded after at least one retry
    /// (or an enclave restart).
    pub recovered: Counter,
    /// Operations that kept failing until the retry budget ran out.
    pub exhausted: Counter,
}

impl FaultMetrics {
    /// Register all four cells under their `faults.*` names.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("faults.injected", &self.injected);
        registry.register_counter("faults.retried", &self.retried);
        registry.register_counter("faults.recovered", &self.recovered);
        registry.register_counter("faults.exhausted", &self.exhausted);
    }
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    /// Firing threshold per site in u64 space (`rate * 2^64`).
    thresholds: [u64; NUM_SITES],
    /// Sorted 1-based arrival indices at which a site fires regardless
    /// of its rate.
    schedules: [Vec<u64>; NUM_SITES],
    /// Per-site arrival counters (how many times the site was reached).
    arrivals: [AtomicU64; NUM_SITES],
    metrics: FaultMetrics,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, reproducible description of which faults fire where.
///
/// Cloning is cheap (an `Arc` bump) and clones share arrival counters
/// and metrics — exactly what you want when one plan is pushed into the
/// pager, the channels, and the TEE of a single system.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
    active: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    fn empty_inner(seed: u64) -> PlanInner {
        PlanInner {
            seed,
            thresholds: [0; NUM_SITES],
            schedules: Default::default(),
            arrivals: Default::default(),
            metrics: FaultMetrics::default(),
        }
    }

    /// The production default: never fires. [`FaultPlan::should_fire`]
    /// is a single branch on an inline bool — no atomics touched.
    pub fn none() -> Self {
        FaultPlan { inner: Arc::new(Self::empty_inner(0)), active: false }
    }

    /// An active plan with no faults configured yet; add sites with
    /// [`FaultPlan::with_rate`] / [`FaultPlan::with_nth`]. Two plans
    /// built from the same seed and configuration make identical firing
    /// decisions at identical arrival sequences.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { inner: Arc::new(Self::empty_inner(seed)), active: true }
    }

    /// Fire `site` independently with probability `rate` per arrival.
    ///
    /// # Panics
    /// If called after the plan has been cloned/shared (configure
    /// first, then distribute).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        let inner = Arc::get_mut(&mut self.inner).expect("configure FaultPlan before sharing it");
        inner.thresholds[site.index()] = (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        self
    }

    /// Fire `site` deterministically on its `n`-th arrival (1-based).
    ///
    /// # Panics
    /// If called after the plan has been cloned/shared.
    pub fn with_nth(mut self, site: FaultSite, n: u64) -> Self {
        let inner = Arc::get_mut(&mut self.inner).expect("configure FaultPlan before sharing it");
        let sched = &mut inner.schedules[site.index()];
        sched.push(n);
        sched.sort_unstable();
        self
    }

    /// The seed this plan was built from (0 for an inactive plan).
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Consult the plan at a hook point. Ticks the site's arrival
    /// counter and returns whether the fault fires this time; bumps
    /// `faults.injected` when it does.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        if !self.active {
            return false;
        }
        let i = site.index();
        let inner = &*self.inner;
        let arrival = inner.arrivals[i].fetch_add(1, Ordering::Relaxed) + 1;
        let fired = inner.schedules[i].binary_search(&arrival).is_ok()
            || (inner.thresholds[i] > 0
                && mix64(
                    inner
                        .seed
                        .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .wrapping_add(arrival.wrapping_mul(0xd134_2543_de82_ef95)),
                ) < inner.thresholds[i]);
        if fired {
            inner.metrics.injected.inc();
        }
        fired
    }

    /// How many times `site` has been reached so far.
    pub fn arrivals(&self, site: FaultSite) -> u64 {
        self.inner.arrivals[site.index()].load(Ordering::Relaxed)
    }

    /// The plan's `faults.*` counter cells.
    pub fn metrics(&self) -> &FaultMetrics {
        &self.inner.metrics
    }

    /// Register the plan's `faults.*` counters with `registry`.
    pub fn register_metrics(&self, registry: &Registry) {
        self.inner.metrics.register(registry);
    }

    /// Note a retry attempt (recovery layers call this; no-op metrics
    /// still count so retries against real — uninjected — faults are
    /// observable too).
    pub fn note_retried(&self) {
        self.inner.metrics.retried.inc();
    }

    /// Note an operation that succeeded after at least one retry or a
    /// restart.
    pub fn note_recovered(&self) {
        self.inner.metrics.recovered.inc();
    }

    /// Note an operation that failed even after the retry budget.
    pub fn note_exhausted(&self) {
        self.inner.metrics.exhausted.inc();
    }
}

/// Error classification: can a failed operation be retried as-is?
///
/// Implemented by every error enum in the workspace. Transient means
/// the failure is plausibly environmental (torn read, busy device,
/// in-transit corruption) and an identical re-issue may succeed;
/// non-transient failures (policy violations, rollback detection, bad
/// arguments) propagate immediately.
pub trait Transient {
    /// True if retrying the identical operation may succeed.
    fn is_transient(&self) -> bool;
}

/// Bounded-retry parameters with simulated-time exponential backoff.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts including the first (minimum 1).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_ns: 20_000.0, multiplier: 2.0 }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `retry` (0-based).
    pub fn backoff_ns(&self, retry: u32) -> f64 {
        self.base_backoff_ns * self.multiplier.powi(retry as i32)
    }
}

/// Run `f`, retrying transient failures up to the policy's budget.
///
/// Each retry charges its exponential backoff to the `"other"` category
/// of the installed trace (a no-op without one), so recovery cost is
/// visible in `CostBreakdown`s. Retries happen whether or not `plan` is
/// active — real transient faults deserve the same treatment as
/// injected ones — and the plan's metrics record what happened.
pub fn retry_with<T, E: Transient>(
    plan: &FaultPlan,
    policy: &RetryPolicy,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let budget = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => {
                if attempt > 0 {
                    plan.note_recovered();
                }
                return Ok(v);
            }
            Err(e) if e.is_transient() && attempt + 1 < budget => {
                plan.note_retried();
                ironsafe_obs::span::add_sim_ns("other", policy.backoff_ns(attempt));
                attempt += 1;
            }
            Err(e) => {
                if attempt > 0 {
                    plan.note_exhausted();
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum TestErr {
        Flaky,
        Fatal,
    }

    impl Transient for TestErr {
        fn is_transient(&self) -> bool {
            matches!(self, TestErr::Flaky)
        }
    }

    #[test]
    fn none_never_fires_and_ticks_nothing() {
        let plan = FaultPlan::none();
        for site in ALL_SITES {
            for _ in 0..1000 {
                assert!(!plan.should_fire(site));
            }
            assert_eq!(plan.arrivals(site), 0, "inactive plan must not tick counters");
        }
        assert_eq!(plan.metrics().injected.get(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let build = || {
            FaultPlan::seeded(0xDEAD_BEEF)
                .with_rate(FaultSite::DeviceRead, 0.1)
                .with_rate(FaultSite::ChannelDrop, 0.35)
        };
        let a = build();
        let b = build();
        for _ in 0..5000 {
            assert_eq!(a.should_fire(FaultSite::DeviceRead), b.should_fire(FaultSite::DeviceRead));
            assert_eq!(
                a.should_fire(FaultSite::ChannelDrop),
                b.should_fire(FaultSite::ChannelDrop)
            );
        }
        assert_eq!(a.metrics().injected.get(), b.metrics().injected.get());
        assert!(a.metrics().injected.get() > 0, "rates this high must fire in 5000 arrivals");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1).with_rate(FaultSite::DeviceRead, 0.2);
        let b = FaultPlan::seeded(2).with_rate(FaultSite::DeviceRead, 0.2);
        let fire_a: Vec<bool> = (0..500).map(|_| a.should_fire(FaultSite::DeviceRead)).collect();
        let fire_b: Vec<bool> = (0..500).map(|_| b.should_fire(FaultSite::DeviceRead)).collect();
        assert_ne!(fire_a, fire_b, "different seeds should give different firing patterns");
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::seeded(42).with_rate(FaultSite::PageBitFlip, 0.25);
        let n = 20_000;
        let fired = (0..n).filter(|_| plan.should_fire(FaultSite::PageBitFlip)).count();
        let frac = fired as f64 / n as f64;
        assert!((0.22..0.28).contains(&frac), "empirical rate {frac} far from 0.25");
    }

    #[test]
    fn schedule_fires_exactly_on_nth_arrival() {
        let plan = FaultPlan::seeded(7)
            .with_nth(FaultSite::RpmbWrite, 3)
            .with_nth(FaultSite::RpmbWrite, 5);
        let fires: Vec<bool> = (0..8).map(|_| plan.should_fire(FaultSite::RpmbWrite)).collect();
        assert_eq!(fires, [false, false, true, false, true, false, false, false]);
        assert_eq!(plan.metrics().injected.get(), 2);
    }

    #[test]
    fn clones_share_arrivals_and_metrics() {
        let plan = FaultPlan::seeded(9).with_nth(FaultSite::DeviceWrite, 2);
        let clone = plan.clone();
        assert!(!plan.should_fire(FaultSite::DeviceWrite));
        assert!(clone.should_fire(FaultSite::DeviceWrite), "clone sees arrival #2");
        assert_eq!(plan.arrivals(FaultSite::DeviceWrite), 2);
        assert_eq!(plan.metrics().injected.get(), 1);
    }

    #[test]
    fn retry_recovers_transient_failures() {
        let plan = FaultPlan::seeded(1);
        let policy = RetryPolicy::default();
        let mut left = 2;
        let out = retry_with(&plan, &policy, || {
            if left > 0 {
                left -= 1;
                Err(TestErr::Flaky)
            } else {
                Ok(99)
            }
        });
        assert_eq!(out, Ok(99));
        assert_eq!(plan.metrics().retried.get(), 2);
        assert_eq!(plan.metrics().recovered.get(), 1);
        assert_eq!(plan.metrics().exhausted.get(), 0);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let plan = FaultPlan::seeded(1);
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut calls = 0;
        let out: Result<(), TestErr> = retry_with(&plan, &policy, || {
            calls += 1;
            Err(TestErr::Flaky)
        });
        assert_eq!(out, Err(TestErr::Flaky));
        assert_eq!(calls, 3, "max_attempts bounds total calls");
        assert_eq!(plan.metrics().retried.get(), 2);
        assert_eq!(plan.metrics().exhausted.get(), 1);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let plan = FaultPlan::seeded(1);
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<(), TestErr> = retry_with(&plan, &policy, || {
            calls += 1;
            Err(TestErr::Fatal)
        });
        assert_eq!(out, Err(TestErr::Fatal));
        assert_eq!(calls, 1);
        assert_eq!(plan.metrics().retried.get(), 0);
    }

    #[test]
    fn backoff_is_exponential_and_charged_to_other() {
        let policy = RetryPolicy { max_attempts: 4, base_backoff_ns: 100.0, multiplier: 2.0 };
        assert_eq!(policy.backoff_ns(0), 100.0);
        assert_eq!(policy.backoff_ns(1), 200.0);
        assert_eq!(policy.backoff_ns(2), 400.0);
        // With a trace installed, retries show up as simulated time.
        let trace = ironsafe_obs::span::Trace::new();
        let guard = trace.install();
        {
            let _s = ironsafe_obs::span::Span::enter("retry");
            let plan = FaultPlan::seeded(3);
            let mut left = 2;
            let _ = retry_with(&plan, &policy, || {
                if left > 0 {
                    left -= 1;
                    Err(TestErr::Flaky)
                } else {
                    Ok(())
                }
            });
        }
        drop(guard);
        let snap = trace.snapshot();
        let other_ns: f64 = snap
            .category_totals()
            .iter()
            .filter(|(cat, _)| *cat == "other")
            .map(|(_, ns)| *ns)
            .sum();
        assert_eq!(other_ns, 300.0, "two retries charge 100 + 200 ns");
    }

    #[test]
    fn metrics_register_under_faults_names() {
        let plan = FaultPlan::seeded(5).with_nth(FaultSite::DeviceRead, 1);
        let registry = Registry::new();
        plan.register_metrics(&registry);
        assert!(plan.should_fire(FaultSite::DeviceRead));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("faults.injected"), Some(1));
        assert_eq!(snap.counter("faults.retried"), Some(0));
        assert_eq!(snap.counter("faults.recovered"), Some(0));
        assert_eq!(snap.counter("faults.exhausted"), Some(0));
    }

    #[test]
    fn site_names_are_stable() {
        let names: Vec<&str> = ALL_SITES.iter().map(|s| s.as_str()).collect();
        assert_eq!(names.len(), NUM_SITES);
        for (i, site) in ALL_SITES.iter().enumerate() {
            assert_eq!(site.index(), i, "ALL_SITES order must match index()");
        }
        assert!(names.contains(&"storage.device.read"));
        assert!(names.contains(&"tee.rpmb.write_fail"));
        assert!(names.contains(&"storage.wal.append"));
        assert!(names.contains(&"storage.wal.tear"));
        assert!(names.contains(&"storage.commit.crash"));
    }
}
