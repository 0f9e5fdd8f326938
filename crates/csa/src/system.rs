//! The five evaluated system configurations and the query runner.
//!
//! A [`CsaSystem`] owns the storage-resident database (plaintext for the
//! non-secure baselines, the full encrypted + Merkle + RPMB stack for the
//! secure ones) and executes the paper's (multi-stage) queries under one
//! of the Table 2 configurations, producing a [`QueryReport`] with the
//! simulated-time breakdown and data-movement counters every figure is
//! built from.

use crate::adaptive::{
    choose, divergence_trip, prior_selectivity, AdaptiveState, EpcView, FragmentStats,
    PlanMetrics, ReplanPolicy,
};
use crate::cost::{self, complexity, CostBreakdown, CostParams, Run, Work};
use crate::federation::{FragmentSource, TableShape};
use crate::net::{RowLink, RECORD_OVERHEAD_BYTES, ROWS_PER_RECORD};
use crate::partition::{
    partition_select_strategic, OffloadDecision, Partition, PlacementPolicy, StorageQuery,
};
use crate::profile::{CostTerm, Placement, PlanProfile, ProfileExtras, QueryProfile, ReplanEvent};
use crate::Result;
use ironsafe_crypto::group::Group;
use ironsafe_faults::{FaultPlan, RetryPolicy};
use ironsafe_obs::{Span, Trace, TraceCtx, TraceSnapshot};
use ironsafe_sql::ast::{expr_to_sql, SelectItem, SelectStmt, Statement};
use ironsafe_sql::catalog::Catalog;
use ironsafe_sql::exec::{ExecOptions, ScanWatch};
use ironsafe_sql::heap::{shared, SharedPager};
use ironsafe_sql::{Database, EncodedRows, QueryResult};
use ironsafe_storage::pager::PlainPager;
use ironsafe_storage::{
    CompressedPager, PageCache, SecurePager, SharedPending, SnapshotPin, ViewPager,
};
use ironsafe_tee::sgx::epc::{verified_node_cache_capacity, EpcSimulator};
use ironsafe_tee::trustzone::{Manufacturer, TrustZoneDevice};
use ironsafe_tpch::queries::PaperQuery;
use ironsafe_tpch::TpchData;
use parking_lot::Mutex;
use rand::SeedableRng;
use std::sync::Arc;

/// The Table 2 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemConfig {
    /// `hons`: host-only, non-secure (NFS-attached storage).
    HostOnlyNonSecure,
    /// `hos`: host-only, secure (SGX enclave + host-side page crypto).
    HostOnlySecure,
    /// `vcs`: vanilla computational storage (split, non-secure).
    VanillaCs,
    /// `scs`: IronSafe (split, secure).
    IronSafe,
    /// `sos`: storage-only, secure.
    StorageOnlySecure,
}

impl SystemConfig {
    /// Paper abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            SystemConfig::HostOnlyNonSecure => "hons",
            SystemConfig::HostOnlySecure => "hos",
            SystemConfig::VanillaCs => "vcs",
            SystemConfig::IronSafe => "scs",
            SystemConfig::StorageOnlySecure => "sos",
        }
    }

    /// Does this configuration run the secure storage stack?
    pub fn secure(&self) -> bool {
        matches!(
            self,
            SystemConfig::HostOnlySecure | SystemConfig::IronSafe | SystemConfig::StorageOnlySecure
        )
    }

    /// How the cost model prices a query under this configuration.
    pub(crate) fn run(&self) -> Run {
        match self {
            SystemConfig::HostOnlyNonSecure => Run::HostOnly { secure: false },
            SystemConfig::HostOnlySecure => Run::HostOnly { secure: true },
            SystemConfig::VanillaCs => Run::Split { secure: false, canonical_pages: None },
            SystemConfig::IronSafe => Run::Split { secure: true, canonical_pages: None },
            SystemConfig::StorageOnlySecure => Run::StorageOnly,
        }
    }

    /// All five, paper order.
    pub fn all() -> [SystemConfig; 5] {
        [
            SystemConfig::HostOnlyNonSecure,
            SystemConfig::HostOnlySecure,
            SystemConfig::VanillaCs,
            SystemConfig::IronSafe,
            SystemConfig::StorageOnlySecure,
        ]
    }
}

/// Outcome of one query run.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Configuration used.
    pub config: SystemConfig,
    /// TPC-H query number.
    pub query_id: u8,
    /// The actual query result (identical across configurations).
    pub result: QueryResult,
    /// Simulated-time breakdown.
    pub breakdown: CostBreakdown,
    /// Pages read from the medium near the data.
    pub pages_read_storage: u64,
    /// Page-equivalents moved between storage and host.
    pub pages_shipped: u64,
    /// Rows shipped storage→host (0 for non-split configs' row count view).
    pub rows_shipped: u64,
    /// Bytes moved across the interconnect.
    pub bytes_shipped: u64,
}

impl QueryReport {
    /// Total simulated time.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }
}

/// What a view inherits from the system it is opened on.
#[derive(Clone)]
struct Settings {
    /// How split configurations place each table's filter.
    placement: PlacementPolicy,
    session_key: [u8; 32],
    /// Shared decrypted-page cache: sibling views decrypt each base page
    /// once while still charging identical per-view costs.
    read_cache: Arc<PageCache>,
    /// Morsel-execution options for read-only fragments. Parallelism
    /// changes wall-clock only: reports, breakdowns and pager-stats
    /// deltas stay bit-identical to serial execution at any DOP.
    exec: ExecOptions,
    /// Deterministic fault-injection plan, pushed into the storage pager
    /// and the secure channel. [`FaultPlan::none`] by default.
    fault_plan: FaultPlan,
    /// Retry budget used when recovering from injected transient faults
    /// on the channel path.
    retry: RetryPolicy,
    /// Shared EWMA estimate store feeding the cost-based planner:
    /// observations made inside a view refine the base system's
    /// estimates.
    adaptive: Arc<Mutex<AdaptiveState>>,
    /// Live `plan.*` counters (decisions, refinements, re-plans).
    plan_metrics: PlanMetrics,
    /// Mid-flight re-planning policy (`None` = disabled).
    replan: Option<ReplanPolicy>,
    /// Simulated background enclave working set (pages) held resident by
    /// concurrent tenants; 0 = calm EPC. Applied identically under every
    /// placement — pressure is environment, not policy.
    epc_pressure_pages: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            placement: PlacementPolicy::default(),
            session_key: [0x5e; 32],
            read_cache: Arc::new(PageCache::new()),
            exec: ExecOptions::serial(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            adaptive: Arc::new(Mutex::new(AdaptiveState::new())),
            plan_metrics: PlanMetrics::new(),
            replan: None,
            epc_pressure_pages: 0,
        }
    }
}

/// A storage node's pager stack under an enclave budget of
/// `epc_limit_bytes`: a [`SecurePager`] on `medium` — a TrustZone device
/// and the seed its database key is drawn from — or, without one, a
/// plain pager; `compressed` layers per-page compression *under* the
/// page crypto (compress, then encrypt + MAC). The verified-node cache
/// and the flight-recorder ring are TEE-resident and compete with the
/// query working set for EPC, so both are bounded by the budget the cost
/// model assumes. Everything that builds a storage node — [`CsaSystem`],
/// a shard, a `Deployment` — gets its pager here.
pub fn storage_pager(
    medium: Option<(TrustZoneDevice, u64)>,
    compressed: bool,
    epc_limit_bytes: usize,
) -> Result<SharedPager> {
    let secure = medium
        .map(|(device, seed)| SecurePager::create(device, seed))
        .transpose()
        .map_err(crate::CsaError::Storage)?;
    let pager = match (secure, compressed) {
        (Some(secure), true) => shared(CompressedPager::new(secure)),
        (Some(secure), false) => shared(secure),
        (None, true) => shared(CompressedPager::new(PlainPager::new())),
        (None, false) => shared(PlainPager::new()),
    };
    {
        let (mut tee_resident, budget) = (pager.lock(), epc_limit_bytes as u64);
        tee_resident.set_merkle_cache_capacity(verified_node_cache_capacity(budget));
        tee_resident.set_flight_budget(budget);
    }
    Ok(pager)
}

/// A host+storage deployment in one configuration.
pub struct CsaSystem {
    /// Active configuration.
    pub config: SystemConfig,
    /// Cost-model parameters.
    pub params: CostParams,
    storage_db: Database,
    set: Settings,
    last_trace: Option<TraceSnapshot>,
    /// Per-plan operator profiles captured from every plan the most
    /// recent run drained (stages, fragments, host joins).
    last_plans: Vec<PlanProfile>,
    /// Enclave-side observations of the most recent run (transitions,
    /// EPC faults, occupancy samples).
    last_extras: ProfileExtras,
}

/// What a run body leaves for the shared epilogue.
struct Ran {
    result: Option<QueryResult>,
    pages_read: u64,
    rows_shipped: u64,
    bytes_shipped: u64,
    plans: Vec<PlanProfile>,
    extras: ProfileExtras,
}

impl CsaSystem {
    /// Build a system in `config`, loading `data` into its storage node.
    pub fn build(config: SystemConfig, data: &TpchData, params: CostParams) -> Result<CsaSystem> {
        Self::build_with_compression(config, data, params, false)
    }

    /// [`CsaSystem::build`] with per-page compression optionally layered
    /// under the page crypto: pages are compressed *before* encrypt+MAC
    /// (and decompressed after decrypt+verify), so compressible data
    /// spends fewer physical blocks — and therefore fewer encryptions,
    /// MACs and Merkle leaves. The reduction is honest: `PagerStats`
    /// report physical-block work, and the cost model charges exactly
    /// those counters.
    pub fn build_with_compression(
        config: SystemConfig,
        data: &TpchData,
        params: CostParams,
        compressed: bool,
    ) -> Result<CsaSystem> {
        let medium = config.secure().then(|| {
            let group = Group::modp_1024();
            let mfr = Manufacturer::from_seed(&group, b"ironsafe-storage-vendor");
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5A);
            (mfr.make_device("storage-0", 8, &mut rng), 0xC5A)
        });
        let mut storage_db =
            Database::with_shared(storage_pager(medium, compressed, params.epc_limit_bytes)?);
        ironsafe_tpch::load_into(&mut storage_db, data)?;
        storage_db.reset_pager_stats();
        Ok(Self::from_database(config, storage_db, params))
    }

    /// Build over an already-populated database (e.g. the GDPR workload).
    pub fn from_database(config: SystemConfig, storage_db: Database, params: CostParams) -> Self {
        Self::assemble(config, params, storage_db, Settings::default())
    }

    fn assemble(
        config: SystemConfig,
        params: CostParams,
        storage_db: Database,
        set: Settings,
    ) -> CsaSystem {
        CsaSystem {
            config,
            params,
            storage_db,
            set,
            last_trace: None,
            last_plans: Vec::new(),
            last_extras: ProfileExtras::default(),
        }
    }

    /// A full `CsaSystem` over `pager` — a copy-on-write [`ViewPager`] on
    /// this system's pages — with this system's settings. Temporary
    /// tables, catalog checkpoints and any other writes stay private to
    /// the view; pager stats start at zero and count only the view's own
    /// work, so concurrent views produce bit-identical
    /// [`CostBreakdown`]s to serial execution.
    fn view(&self, pager: ViewPager, catalog: Catalog) -> CsaSystem {
        let db = Database::from_parts(ironsafe_sql::heap::shared(pager), catalog);
        Self::assemble(self.config, self.params.clone(), db, self.set.clone())
    }

    /// Open an isolated read view of this system for one query run:
    /// reads go through the shared decrypted-page cache, writes are
    /// discarded when it drops.
    ///
    /// The caller must exclude base writes for the view's lifetime.
    pub fn read_view(&self) -> CsaSystem {
        let pager = ViewPager::over(self.storage_db.pager().clone(), self.set.read_cache.clone());
        self.view(pager, self.storage_db.catalog().clone())
    }

    /// Open a *snapshot* read view pinned to the epoch captured in `pin`,
    /// with the catalog published at that epoch.
    ///
    /// Unlike [`CsaSystem::read_view`], the caller does **not** need to
    /// exclude base writes: pages a later flush overwrites are served
    /// from the MVCC retained-version store
    /// ([`ironsafe_storage::Snapshots`]), so the view keeps reading the
    /// epoch it opened at while writers commit the next one.
    pub fn read_view_at(&self, pin: SnapshotPin, catalog: Catalog) -> CsaSystem {
        let base = self.storage_db.pager().clone();
        self.view(ViewPager::over_pinned(base, self.set.read_cache.clone(), pin), catalog)
    }

    /// Open a *writer* view: a copy-on-write view whose reads additionally
    /// see `pending` — the group-commit buffer of transactions already
    /// accepted but not yet flushed to the base — and whose `catalog` is
    /// the write path's running catalog (ahead of the published one by
    /// the buffered transactions). The accumulated overlay is harvested
    /// with `take_txn_pages` after a successful statement.
    pub fn write_view(&self, pending: SharedPending, catalog: Catalog) -> CsaSystem {
        let base = self.storage_db.pager().clone();
        self.view(ViewPager::over_writer(base, self.set.read_cache.clone(), pending), catalog)
    }

    /// The shared decrypted-page cache (the serving layer clears it when
    /// `with_system_mut` reseeds the store underneath it).
    pub(crate) fn read_cache(&self) -> &Arc<PageCache> {
        &self.set.read_cache
    }

    /// The active retry budget (the group-commit flush reuses it for the
    /// WAL append).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.set.retry
    }

    /// Install a deterministic fault-injection plan on this system.
    ///
    /// The plan is pushed into the storage pager (device, page-integrity
    /// and freshness fault sites) and cloned into the secure channel of
    /// every subsequent split-query run, so one seeded plan governs the
    /// whole query path. Views opened via [`CsaSystem::read_view`] after
    /// this call inherit the plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.storage_db.pager().lock().set_fault_plan(plan.clone());
        self.set.fault_plan = plan;
    }

    /// The active fault-injection plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.set.fault_plan
    }

    /// Set the retry budget used to recover from injected transient faults.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.set.retry = policy;
        self.storage_db.pager().lock().set_retry_policy(policy);
    }

    /// Telemetry trace of the most recent `run_query`/`run_statement`
    /// call: the span tree whose category totals *are* the reported
    /// [`CostBreakdown`], exportable via `ironsafe_obs::export`.
    pub fn last_trace(&self) -> Option<&TraceSnapshot> {
        self.last_trace.as_ref()
    }

    /// Take ownership of the most recent trace (used by the serving
    /// layer to hand a per-query trace back without cloning).
    pub fn take_last_trace(&mut self) -> Option<TraceSnapshot> {
        self.last_trace.take()
    }

    /// Per-plan operator profiles captured by the most recent
    /// `run_query`/`run_statement` call, in execution order.
    pub fn last_plans(&self) -> &[PlanProfile] {
        &self.last_plans
    }

    /// Enclave-side observations (transitions, EPC faults, occupancy
    /// samples) of the most recent run.
    pub fn last_extras(&self) -> &ProfileExtras {
        &self.last_extras
    }

    /// Drain the storage pager's TEE-resident flight recorder:
    /// deterministic forensic event lines describing faulted or
    /// violating page accesses (empty for plaintext pagers and clean
    /// runs). The serving layer appends these to the monitor audit
    /// trail when a query fails.
    pub fn take_flight_dump(&mut self) -> Vec<String> {
        self.storage_db.pager().lock().take_flight_dump()
    }

    /// Run `q` and assemble its [`QueryProfile`] alongside the normal
    /// report.
    ///
    /// Everything in the profile is measured, not copied from the
    /// report: the breakdown is re-derived from the recorded trace, the
    /// pager delta and secure counters are measured around the run, and
    /// the operator rows come from the drained plans — so the parity
    /// test can assert the profile agrees with the cost model
    /// bit-for-bit.
    pub fn profile_query(&mut self, q: &PaperQuery) -> Result<(QueryReport, QueryProfile)> {
        let registry = ironsafe_obs::Registry::new();
        self.storage_db.register_metrics(&registry);
        let counters_before = registry.snapshot();
        let stats_before = self.storage_db.pager_stats();
        let report = self.run_query(q)?;
        let pager = self.storage_db.pager_stats() - stats_before;
        let counters_after = registry.snapshot();
        let delta = |name: &str| -> u64 {
            counters_after.counter(name).unwrap_or(0) - counters_before.counter(name).unwrap_or(0)
        };
        let trace = self.last_trace.as_ref().expect("run_query records a trace");
        let profile = QueryProfile {
            config: self.config,
            query_id: q.id,
            dop: self.set.exec.dop.get(),
            breakdown: CostBreakdown::from_trace(trace),
            pager,
            pages_read_storage: report.pages_read_storage,
            pages_shipped: report.pages_shipped,
            rows_shipped: report.rows_shipped,
            bytes_shipped: report.bytes_shipped,
            macs_verified: delta("storage.page.hmac_verify"),
            merkle_cache_hits: delta("storage.merkle.cache.hit"),
            merkle_cache_misses: delta("storage.merkle.cache.miss"),
            enclave_transitions: self.last_extras.enclave_transitions,
            epc_faults: self.last_extras.epc_faults,
            epc_occupancy_pages: self.last_extras.epc_occupancy_pages.clone(),
            cost_terms: trace
                .spans
                .iter()
                .filter(|s| s.sim_ns > 0.0)
                .map(|s| CostTerm { name: s.name.clone(), sim_ns: s.sim_ns })
                .collect(),
            plans: self.last_plans.clone(),
            replan_events: self.last_extras.replans.clone(),
            span_count: trace.spans.len(),
            error_span_count: trace.error_spans().len(),
        };
        Ok((report, profile))
    }

    /// The storage-resident database (e.g. to inspect the catalog).
    pub fn storage_db(&self) -> &Database {
        &self.storage_db
    }

    /// Mutable access (loaders, policy experiments).
    pub fn storage_db_mut(&mut self) -> &mut Database {
        &mut self.storage_db
    }

    /// Install the per-request session key (from the trusted monitor).
    pub fn set_session_key(&mut self, key: [u8; 32]) {
        self.set.session_key = key;
    }

    /// Set the degree of parallelism for read-only query execution.
    ///
    /// DOP > 1 runs the scan kernel on the morsel worker pool; results,
    /// breakdowns and stats deltas stay bit-identical to DOP 1
    /// (parallelism buys wall-clock only).
    pub fn set_dop(&mut self, dop: usize) {
        self.set.exec.dop = ironsafe_sql::exec::Dop::new(dop);
    }

    /// Current morsel-execution options.
    pub fn exec_options(&self) -> &ExecOptions {
        &self.set.exec
    }

    /// Attach the morsel-execution counters (`exec.morsel.*`) to
    /// `registry`, alongside [`Database::register_metrics`] for the
    /// pager counters.
    pub fn register_exec_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.set.exec.metrics.register(registry);
    }

    /// Select how split configurations place each table's filter. A
    /// pinned policy must reproduce the same plan whatever the estimate
    /// store holds — the golden-parity guard asserts exactly this.
    pub fn set_placement(&mut self, policy: PlacementPolicy) {
        self.set.placement = policy;
    }

    /// Pin a table-level estimate, overriding priors for every fragment
    /// on `table` that has no predicate-specific observation yet (used
    /// to model stale or deliberately wrong catalog statistics).
    pub fn pin_table_estimate(&mut self, table: &str, est: crate::adaptive::Estimate) {
        self.set.adaptive.lock().pin_table(table, est);
    }

    /// Enable (`Some`) or disable (`None`, the default) mid-flight
    /// re-planning for cost-based offloaded fragments.
    pub fn set_replan(&mut self, policy: Option<ReplanPolicy>) {
        self.set.replan = policy;
    }

    /// Simulate background EPC pressure: `pages` enclave pages held
    /// resident by concurrent tenants for the whole run. Applied under
    /// every placement (pressure is environment, not policy); 0 disables.
    pub fn set_epc_pressure(&mut self, pages: u64) {
        self.set.epc_pressure_pages = pages;
    }

    /// Attach the planner counters (`plan.*`) to `registry`.
    pub fn register_plan_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.set.plan_metrics.register(registry);
    }

    /// Run a single (possibly monitor-rewritten) statement.
    ///
    /// `SELECT`s go through the configuration's normal execution path;
    /// DML and DDL run directly on the storage-resident database (writes
    /// always land next to the data).
    pub fn run_statement(&mut self, stmt: &Statement) -> Result<QueryReport> {
        match stmt {
            Statement::Select(sel) => {
                let sql = crate::partition::render_select(sel);
                let q = PaperQuery {
                    id: 0,
                    name: "ad-hoc",
                    stages: vec![ironsafe_tpch::QueryStage { sql, into: None }],
                };
                self.run_query(&q)
            }
            other => self.traced(0, "statement/dml", |sys| sys.whole(Run::Write, &[(other, None)])),
        }
    }

    /// Run a paper query, producing its report.
    pub fn run_query(&mut self, q: &PaperQuery) -> Result<QueryReport> {
        let root = format!("query/q{}", q.id);
        match self.config.run() {
            run @ Run::Split { .. } => self.traced(q.id, &root, |sys| {
                Self::split(&sys.set, &sys.params, q, run, &mut sys.storage_db)
            }),
            run => {
                let parsed = q
                    .stages
                    .iter()
                    .map(|s| ironsafe_sql::parser::parse_statement(&s.sql))
                    .collect::<ironsafe_sql::Result<Vec<_>>>()?;
                let stages: Vec<_> =
                    parsed.iter().zip(&q.stages).map(|(s, st)| (s, st.into.as_deref())).collect();
                self.traced(q.id, &root, |sys| sys.whole(run, &stages))
            }
        }
    }

    /// Run `q` split with its fragments on `source` instead of this
    /// system's storage database, priced as `run` (a [`Run::Split`]). A
    /// sharded federation's coordinator runs every query this way.
    pub fn run_split(
        &mut self,
        q: &PaperQuery,
        run: Run,
        source: &mut dyn FragmentSource,
    ) -> Result<QueryReport> {
        let root = format!("query/q{}", q.id);
        self.traced(q.id, &root, |sys| Self::split(&sys.set, &sys.params, q, run, source))
    }

    /// The prologue and epilogue every run shares: reset the per-run
    /// observations, execute `body` under a fresh trace rooted at `root`,
    /// derive the breakdown from what it charged, keep the trace.
    fn traced(
        &mut self,
        query_id: u8,
        root: &str,
        body: impl FnOnce(&mut Self) -> Result<Ran>,
    ) -> Result<QueryReport> {
        self.last_plans.clear();
        self.last_extras = ProfileExtras::default();
        let trace = Trace::new();
        let ran = {
            let _active = trace.install();
            let _ctx = TraceCtx::query(query_id as u64).install();
            let _root_span = Span::enter(root);
            body(self)?
        };
        let snapshot = trace.snapshot();
        let breakdown = CostBreakdown::from_trace(&snapshot);
        self.last_trace = Some(snapshot);
        self.last_plans = ran.plans;
        self.last_extras = ran.extras;
        let result = ran.result.ok_or_else(|| {
            ironsafe_sql::SqlError::Plan("query has no output stage".to_string())
        })?;
        Ok(QueryReport {
            config: self.config,
            query_id,
            result,
            breakdown,
            pages_read_storage: ran.pages_read,
            pages_shipped: ran.bytes_shipped.div_ceil(4096),
            rows_shipped: ran.rows_shipped,
            bytes_shipped: ran.bytes_shipped,
        })
    }

    /// The unsplit runner: every stage executes on the storage-resident
    /// database, and `run` says whose CPU that models — `sos` (the whole
    /// query next to the data, on the weak CPU), `hons`/`hos` (all pages
    /// cross the network and the host does everything; `hos` additionally
    /// pays enclave transitions, host-side page crypto + Merkle freshness
    /// and EPC paging), or DML/DDL (writes always land next to the data).
    fn whole(&mut self, run: Run, stages: &[(&Statement, Option<&str>)]) -> Result<Ran> {
        let (site, placement) = match run {
            Run::HostOnly { .. } => ("host_exec", Placement::Host),
            _ => ("storage_exec", Placement::Storage),
        };
        let exec = self.set.exec.clone();
        let before = self.storage_db.pager_stats();
        // Total pages of all base tables (Merkle leaf count).
        let db_pages: u64 =
            self.storage_db.catalog().tables().map(|t| t.heap.pages.len() as u64).sum();
        let mut scanned_rows = 0u64;
        let mut ops_total = 0u64;
        let mut probe_requests = 0u64;
        let mut temps: Vec<&str> = Vec::new();
        let mut staged = EncodedRows::new();
        let mut plans = Vec::new();
        let outcome = (|| -> Result<Option<QueryResult>> {
            let mut result = None;
            for (stage_no, (stmt, into)) in stages.iter().enumerate() {
                let label = match run {
                    Run::Write => "storage/execute".to_string(),
                    _ => format!("stage{stage_no}/{site}"),
                };
                let _stage_span = Span::enter(&label);
                match stmt {
                    Statement::Select(sel) => {
                        let mut stage_rows = 0u64;
                        for t in &sel.from {
                            if let Ok(info) = self.storage_db.catalog().table(&t.name) {
                                stage_rows += info.heap.row_count;
                            }
                        }
                        scanned_rows += stage_rows;
                        ops_total += complexity(sel);
                        // Join probes re-request inner pages through the
                        // (SQLCipher-style) pager of whichever side runs
                        // the query.
                        if sel.from.len() > 1 {
                            probe_requests += stage_rows;
                        }
                        let ops = match *into {
                            // A staged result lands in its temp table as
                            // the plan's root encoded it.
                            Some(name) => {
                                staged.clear();
                                let (schema, ops) =
                                    self.storage_db.select_encoded(sel, &exec, &mut staged)?;
                                self.storage_db.create_table(name, schema)?;
                                temps.push(name);
                                self.storage_db.insert_encoded(name, staged.as_slice())?;
                                ops
                            }
                            None => {
                                let (r, ops) = self.storage_db.select_with_profile(sel, &exec)?;
                                result = Some(r);
                                ops
                            }
                        };
                        plans.push(PlanProfile::new(label, placement, ops));
                    }
                    other => result = Some(self.storage_db.execute_statement(other)?),
                }
            }
            Ok(result)
        })();
        // Stage temporaries live in the base catalog of an exclusive
        // system: they go whether or not the stages succeeded, or the
        // next run of the same query could not create them.
        let mut dropped = Ok(());
        for t in temps {
            if let Err(e) = self.storage_db.execute(&format!("DROP TABLE {t}")) {
                dropped = Err(e);
            }
        }
        let result = outcome?;
        dropped?;
        let delta = self.storage_db.pager_stats() - before;
        let mut work = Work { pages: delta, probe_requests, db_pages, ..Work::default() };
        let mut ran = Ran {
            result,
            pages_read: delta.page_reads,
            rows_shipped: 0,
            bytes_shipped: 0,
            plans,
            extras: ProfileExtras::default(),
        };
        match run {
            Run::HostOnly { secure } => {
                work.host_rows = scanned_rows;
                work.host_ops = ops_total;
                work.bytes = delta.page_reads * 4096;
                if secure {
                    // One OCALL round per page batch fetched into the enclave.
                    work.transitions = delta.page_reads * 2;
                    ran.extras.enclave_transitions = work.transitions;
                }
                ran.rows_shipped = scanned_rows;
                ran.bytes_shipped = work.bytes;
            }
            _ => {
                work.storage_rows = scanned_rows;
                work.storage_ops = ops_total;
            }
        }
        cost::charge_run(run, &work, &self.params);
        Ok(ran)
    }

    // ---------------------------------------------------------------
    // vcs / scs: per-table filter fragments run near the data — on
    // `source` — and their filtered rows ship to the host, which
    // joins/aggregates them.
    // ---------------------------------------------------------------
    fn split(
        set: &Settings,
        p: &CostParams,
        q: &PaperQuery,
        run: Run,
        source: &mut dyn FragmentSource,
    ) -> Result<Ran> {
        let secure = matches!(run, Run::Split { secure: true, .. });
        let exec = set.exec.clone();
        let before = source.pager_work();
        let mut host_db = Database::new(PlainPager::new());
        let mut epc = EpcSimulator::new(p.epc_limit_bytes);
        if secure && set.epc_pressure_pages > 0 {
            // Concurrent tenants hold a resident working set before
            // the query's first temp page lands. Applied under every
            // placement: pressure is environment, not policy.
            epc.preload_background(set.epc_pressure_pages);
        }
        let mut link = RowLink::new(&set.session_key).with_faults(set.fault_plan.clone(), set.retry);
        let mut plans = Vec::new();
        let mut extras = ProfileExtras::default();

        let mut scanned_rows = 0u64;
        let mut rows_shipped = 0u64;
        let mut rows_serialized = 0u64;
        let mut page_transfer_bytes = 0u64;
        let mut host_input_rows = 0u64;
        let mut host_ops = 0u64;
        let mut fragments = 0u64;
        let mut result = None;

        for (stage_no, stage) in q.stages.iter().enumerate() {
            let _stage_span = Span::enter(&format!("stage{stage_no}/split_exec"));
            let stmt = ironsafe_sql::parser::parse_statement(&stage.sql)?;
            let sel = match stmt {
                Statement::Select(s) => s,
                other => {
                    // Non-SELECT stages run on the host.
                    host_db.execute_statement(&other)?;
                    continue;
                }
            };
            let catalog_lookup = |name: &str| source.schema(name);
            let host_ops_est = complexity(&sel);
            let adaptive_live = set.placement == PlacementPolicy::CostBased;
            let Partition { storage, host } = match set.placement {
                PlacementPolicy::Pinned(pin) => {
                    partition_select_strategic(&sel, &catalog_lookup, &|_, _| pin)
                }
                PlacementPolicy::CostBased => {
                    let state = set.adaptive.lock();
                    // Occupancy at planning time: background pressure
                    // plus earlier stages' temp pages — so later stages
                    // adapt to a filling EPC.
                    let view = EpcView {
                        occupied_pages: epc.resident_pages() as u64,
                        capacity_pages: epc.capacity_pages() as u64,
                    };
                    let metrics = &set.plan_metrics;
                    partition_select_strategic(&sel, &catalog_lookup, &|table, frag| {
                        let Ok(shape) = source.shape(table) else {
                            return OffloadDecision::Offload;
                        };
                        let f = fragment_stats(&state, table, frag, shape, host_ops_est, secure);
                        let (decision, _, _) = choose(&f, &view, p);
                        match decision {
                            OffloadDecision::Offload => metrics.decide_offload.inc(),
                            OffloadDecision::ShipPages => metrics.decide_ship_pages.inc(),
                        }
                        decision
                    })
                }
            };

            // Run fragments near the data, ship results.
            let mut shipped_tables = Vec::new();
            // One fragment's output, still encoded: reused from
            // fragment to fragment, released before the host plan
            // builds its own working set.
            let mut rows = EncodedRows::new();
            for StorageQuery { table, stmt, mode } in &storage {
                let _frag_span = Span::enter(&format!("fragment/{table}"));
                let shape = source.shape(table)?;
                let TableShape { rows: table_rows, pages: table_pages, .. } = shape;
                scanned_rows += table_rows;
                let est_sel = (adaptive_live && stmt.where_clause.is_some()).then(|| {
                    let state = set.adaptive.lock();
                    fragment_stats(&state, table, stmt, shape, host_ops_est, secure)
                        .selectivity
                });
                // Watch per-morsel row counts when this fragment may
                // re-plan mid-flight (telemetry only).
                let watch = (adaptive_live
                    && set.replan.is_some()
                    && *mode == OffloadDecision::Offload
                    && est_sel.is_some())
                .then(|| Arc::new(ScanWatch::new()));
                let frag_exec = match &watch {
                    Some(w) => exec.clone().with_watch(w.clone()),
                    None => exec.clone(),
                };
                rows.clear();
                let (schema, frag_ops) = source.run_fragment(stmt, &frag_exec, &mut rows)?;
                let pushdown_sql = stmt.where_clause.as_ref().map(expr_to_sql);
                let frag_rows = rows.len();
                rows_shipped += frag_rows as u64;
                fragments += 1;
                let observed_sel = (table_rows > 0 && stmt.where_clause.is_some())
                    .then(|| frag_rows as f64 / table_rows as f64);
                plans.push(PlanProfile {
                    label: format!("stage{stage_no}/fragment/{table}"),
                    placement: match mode {
                        OffloadDecision::Offload => Placement::StorageOffload,
                        OffloadDecision::ShipPages => Placement::StorageShipPages,
                    },
                    pushdown_filter: pushdown_sql.clone(),
                    estimated_selectivity: est_sel,
                    observed_selectivity: observed_sel,
                    operators: frag_ops,
                });

                let bytes_before = link.tx.bytes_sent;
                let mut sealed_rows = frag_rows;
                match mode {
                    OffloadDecision::ShipPages => {
                        // Raw page transfer: no storage-side serialization,
                        // whole pages cross the wire.
                        page_transfer_bytes += table_pages * 4096;
                        sealed_rows = 0;
                    }
                    OffloadDecision::Offload => {
                        // Mid-flight re-planning: if the cumulative
                        // per-morsel selectivity diverged from the
                        // estimate past the hysteresis band *and* the
                        // cost rule flips at the observed value, the
                        // remaining morsels abandon the pushdown —
                        // their raw pages cross the wire and the host
                        // filters them itself. Answers are unchanged;
                        // only the cost accounting moves.
                        if let (Some(w), Some(policy)) = (&watch, set.replan) {
                            let slots = w.take();
                            let est = est_sel.unwrap_or(1.0);
                            if let Some((m, obs)) = divergence_trip(&slots, est, &policy) {
                                let mut f = {
                                    let state = set.adaptive.lock();
                                    fragment_stats(
                                        &state, table, stmt, shape, host_ops_est, secure,
                                    )
                                };
                                f.selectivity = obs;
                                let view = EpcView {
                                    occupied_pages: epc.resident_pages() as u64,
                                    capacity_pages: epc.capacity_pages() as u64,
                                };
                                let (rechoice, _, _) = choose(&f, &view, p);
                                if rechoice == OffloadDecision::ShipPages {
                                    let pre_filtered: u64 =
                                        slots[..m].iter().map(|(_, out)| *out).sum();
                                    let post_raw: u64 =
                                        slots[m..].iter().map(|(inp, _)| *inp).sum();
                                    let post_filtered: u64 =
                                        slots[m..].iter().map(|(_, out)| *out).sum();
                                    sealed_rows = pre_filtered as usize;
                                    let covered = (m * exec.morsel_pages) as u64;
                                    page_transfer_bytes +=
                                        table_pages.saturating_sub(covered) * 4096;
                                    // The host filters the raw remainder
                                    // itself…
                                    host_input_rows += post_raw - post_filtered;
                                    if secure {
                                        // …and its enclave touches the
                                        // extra temp pages those raw rows
                                        // occupy before filtering.
                                        let density = f.temp_rows_per_page.max(1.0);
                                        let extra_pages = ((post_raw - post_filtered)
                                            as f64
                                            / density)
                                            .ceil()
                                            as u64;
                                        epc.access_range(
                                            2_000_000_000 + fragments * 1_000_000,
                                            extra_pages,
                                        );
                                    }
                                    cost::charge_replan(p);
                                    set.plan_metrics.replans.inc();
                                    extras.replans.push(ReplanEvent {
                                        label: format!("stage{stage_no}/fragment/{table}"),
                                        from: Placement::StorageOffload,
                                        to: Placement::StorageShipPages,
                                        at_morsel: m,
                                        estimated: est,
                                        observed: obs,
                                    });
                                }
                            }
                        }
                        rows_serialized += sealed_rows as u64;
                    }
                }
                // The sealed prefix crosses the channel and lands in
                // the host's temp table from the received frames; the
                // rest stands for pages that crossed raw.
                link.ship_table(&mut host_db, table, schema, &rows, sealed_rows)?;
                shipped_tables.push(table.clone());

                // Feedback: fold the fragment's observed statistics
                // into the shared EWMA store (under every strategy —
                // static runs prime the adaptive planner too).
                if *mode == OffloadDecision::Offload
                    && stmt.where_clause.is_some()
                    && sealed_rows > 0
                {
                    let obs = frag_rows as f64 / table_rows.max(1) as f64;
                    let records = (sealed_rows as u64).div_ceil(ROWS_PER_RECORD);
                    let wire = link.tx.bytes_sent - bytes_before;
                    let per_row = wire.saturating_sub(records * RECORD_OVERHEAD_BYTES)
                        as f64
                        / sealed_rows as f64;
                    let temp_pages = host_db
                        .catalog()
                        .table(table)
                        .map(|i| i.heap.pages.len())
                        .unwrap_or(1)
                        .max(1);
                    let density = frag_rows as f64 / temp_pages as f64;
                    let refined = set.adaptive.lock().observe(
                        table,
                        pushdown_sql.as_deref(),
                        obs,
                        per_row,
                        density,
                    );
                    if refined {
                        set.plan_metrics.estimate_refined.inc();
                    }
                }
            }

            drop(rows);

            // Host-side execution over the shipped intermediates.
            host_input_rows += shipped_tables
                .iter()
                .map(|t| host_db.catalog().table(t).map(|i| i.heap.row_count).unwrap_or(0))
                .sum::<u64>();
            host_ops += complexity(&host);
            if secure {
                // The host engine's enclave touches every temp page.
                for t in &shipped_tables {
                    if let Ok(info) = host_db.catalog().table(t) {
                        for &page in &info.heap.pages {
                            epc.access(1_000_000 + page);
                        }
                    }
                }
                // Sample EPC occupancy once per stage, after the
                // stage's working set landed.
                extras.epc_occupancy_pages.push(epc.resident_pages() as u64);
                // The background tenants re-touch their working set
                // while the host stage computes; against a full EPC
                // this faults (and cascades) deterministically.
                if set.epc_pressure_pages > 0 {
                    epc.touch_background(set.epc_pressure_pages);
                }
            }
            let host_span = Span::enter("host/join_aggregate");
            let (staged, host_ops_profile) = match &stage.into {
                Some(_) => {
                    let mut rows = EncodedRows::new();
                    let (schema, ops) = host_db.select_encoded(&host, &exec, &mut rows)?;
                    (Some((schema, rows)), ops)
                }
                None => {
                    let (r, ops) = host_db.select_with_profile(&host, &exec)?;
                    result = Some(r);
                    (None, ops)
                }
            };
            drop(host_span);
            plans.push(PlanProfile::new(
                format!("stage{stage_no}/host"),
                Placement::Host,
                host_ops_profile,
            ));
            if let (Some(name), Some((schema, rows))) = (&stage.into, staged) {
                host_db.create_table(name, schema)?;
                host_db.insert_encoded(name, rows.as_slice())?;
            }
            for t in shipped_tables {
                host_db.execute(&format!("DROP TABLE {t}"))?;
            }
        }

        let delta = source.pager_work() - before;
        let tx = &link.tx;
        let bytes = tx.bytes_sent + page_transfer_bytes;
        extras.epc_faults = epc.faults();
        // Two transitions per shipped record batch.
        let transitions = if secure { tx.messages * 2 } else { 0 };
        extras.enclave_transitions = transitions;
        let work = Work {
            pages: delta,
            storage_rows: scanned_rows,
            host_rows: host_input_rows,
            host_ops,
            rows_serialized,
            fragments,
            bytes,
            messages: tx.messages,
            transitions,
            epc_faults: epc.faults(),
            ..Work::default()
        };
        cost::charge_run(run, &work, p);
        Ok(Ran {
            result,
            pages_read: delta.page_reads,
            rows_shipped,
            bytes_shipped: bytes,
            plans,
            extras,
        })
    }
}

/// Assemble the planner's view of one storage fragment: EWMA-refined
/// estimates from the shared store when the fragment has been observed
/// before, predicate-shape priors and catalog statistics otherwise.
/// Pure — no page reads, no pager-stat perturbation.
fn fragment_stats(
    state: &AdaptiveState,
    table: &str,
    frag: &SelectStmt,
    shape: TableShape,
    host_ops: u64,
    secure: bool,
) -> FragmentStats {
    let TableShape { rows: table_rows, pages: table_pages, cols: table_cols } = shape;
    let where_sql = frag.where_clause.as_ref().map(expr_to_sql);
    let est = state.lookup(table, where_sql.as_deref());
    let selectivity = est.map(|e| e.selectivity).unwrap_or_else(|| {
        frag.where_clause.as_ref().map(prior_selectivity).unwrap_or(1.0)
    });
    let needed_cols = if frag.projections.iter().any(|i| matches!(i, SelectItem::Star)) {
        table_cols
    } else {
        frag.projections.len()
    }
    .max(1);
    let density_prior = if table_pages == 0 {
        64.0
    } else {
        (table_rows as f64 / table_pages as f64).max(1.0)
    };
    FragmentStats {
        table_rows,
        table_pages,
        selectivity,
        row_wire_bytes: est.map(|e| e.row_wire_bytes).unwrap_or(12.0 * needed_cols as f64),
        temp_rows_per_page: est.map(|e| e.temp_rows_per_page).unwrap_or(density_prior),
        host_ops,
        secure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_tee::sgx::epc::PAGE_SIZE;
    use ironsafe_tpch::queries::{paper_queries, query};

    fn data() -> TpchData {
        ironsafe_tpch::generate(0.002, 42)
    }

    fn run(config: SystemConfig, qid: u8, data: &TpchData) -> QueryReport {
        let mut sys = CsaSystem::build(config, data, CostParams::default()).unwrap();
        sys.run_query(&query(qid).unwrap()).unwrap()
    }

    #[test]
    fn q6_results_identical_across_all_configs() {
        let d = data();
        let reference = run(SystemConfig::HostOnlyNonSecure, 6, &d).result;
        for config in SystemConfig::all().into_iter().skip(1) {
            let r = run(config, 6, &d);
            assert_eq!(r.result, reference, "{}", config.abbrev());
        }
    }

    #[test]
    fn q3_results_identical_across_all_configs() {
        let d = data();
        let reference = run(SystemConfig::HostOnlyNonSecure, 3, &d).result;
        for config in SystemConfig::all().into_iter().skip(1) {
            let r = run(config, 3, &d);
            assert_eq!(r.result, reference, "{}", config.abbrev());
        }
    }

    #[test]
    fn split_ships_fewer_bytes_than_host_only() {
        let d = data();
        let hons = run(SystemConfig::HostOnlyNonSecure, 6, &d);
        let vcs = run(SystemConfig::VanillaCs, 6, &d);
        assert!(
            vcs.bytes_shipped < hons.bytes_shipped / 2,
            "Q6 filters hard: vcs {} vs hons {}",
            vcs.bytes_shipped,
            hons.bytes_shipped
        );
        assert!(vcs.pages_shipped < hons.pages_shipped);
    }

    #[test]
    fn secure_costs_more_than_non_secure() {
        let d = data();
        let hons = run(SystemConfig::HostOnlyNonSecure, 6, &d);
        let hos = run(SystemConfig::HostOnlySecure, 6, &d);
        assert!(hos.total_ns() > hons.total_ns());
        assert!(hos.breakdown.freshness_ns > 0.0);
        assert!(hos.breakdown.crypto_ns > 0.0);
        let vcs = run(SystemConfig::VanillaCs, 6, &d);
        let scs = run(SystemConfig::IronSafe, 6, &d);
        assert!(scs.total_ns() > vcs.total_ns());
    }

    #[test]
    fn ironsafe_beats_host_only_secure_on_selective_queries() {
        let d = data();
        let hos = run(SystemConfig::HostOnlySecure, 6, &d);
        let scs = run(SystemConfig::IronSafe, 6, &d);
        assert!(
            scs.total_ns() < hos.total_ns(),
            "scs {} should beat hos {}",
            scs.total_ns(),
            hos.total_ns()
        );
    }

    #[test]
    fn all_paper_queries_run_in_scs() {
        let d = data();
        let mut sys = CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
        for q in paper_queries() {
            let r = sys.run_query(&q).unwrap_or_else(|e| panic!("Q{}: {e}", q.id));
            assert!(r.total_ns() > 0.0);
        }
    }

    #[test]
    fn split_runs_never_push_a_predicate_to_a_table_it_does_not_name() {
        use ironsafe_sql::{parser::parse_statement, Value};
        let d = data();
        for config in [SystemConfig::VanillaCs, SystemConfig::IronSafe] {
            let mut sys = CsaSystem::build(config, &d, CostParams::default()).unwrap();
            let db = sys.storage_db_mut();
            db.execute("CREATE TABLE a (x INT, k INT); CREATE TABLE b (x INT, k INT)").unwrap();
            db.execute("INSERT INTO a VALUES (1, 1), (5, 2)").unwrap();
            db.execute("INSERT INTO b VALUES (9, 1), (0, 2)").unwrap();
            let run = |sys: &mut CsaSystem, sql: &str| {
                let report = sys.run_statement(&parse_statement(sql).unwrap())?;
                Ok::<_, crate::CsaError>(report.result.rows()[0][0].clone())
            };
            let join = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";
            assert_eq!(run(&mut sys, join).unwrap(), Value::Int(2), "{}", config.abbrev());
            let filtered = format!("{join} AND b.x > 1");
            assert_eq!(run(&mut sys, &filtered).unwrap(), Value::Int(1), "{}", config.abbrev());
            let pushed = |sys: &CsaSystem, table: &str| {
                let label = format!("stage0/fragment/{table}");
                let plan = sys.last_plans().iter().find(|p| p.label == label).unwrap();
                plan.pushdown_filter.clone()
            };
            assert_eq!(pushed(&sys, "a"), None, "nothing names a alone");
            assert_eq!(pushed(&sys, "b").as_deref(), Some("(b.x > 1)"));
            let ambiguous = run(&mut sys, &format!("{join} AND x > 1"));
            assert!(
                matches!(&ambiguous, Err(crate::CsaError::Sql(ironsafe_sql::SqlError::Plan(_)))),
                "{ambiguous:?}"
            );
        }
    }

    /// An exclusive system writes straight to its base pager — no writer
    /// view to discard — so a statement that fails while re-packing must
    /// itself leave the table as it found it.
    #[test]
    fn a_write_that_fails_in_the_repack_leaves_an_exclusive_systems_table_as_it_was() {
        use ironsafe_sql::{parser::parse_statement, Value};
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"ironsafe-storage-vendor");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let medium = (mfr.make_device("storage-0", 8, &mut rng), 3);
        let params = CostParams::default();
        let pager = storage_pager(Some(medium), false, params.epc_limit_bytes).unwrap();
        let mut db = Database::with_shared(pager);
        db.execute("CREATE TABLE u (a INT, s TEXT)").unwrap();
        let rows = (0..40).map(|a| vec![Value::Int(a), Value::Text("r".repeat(480))]).collect();
        db.insert_rows("u", rows).unwrap();
        let mut sys = CsaSystem::from_database(SystemConfig::IronSafe, db, params);
        let run = |sys: &mut CsaSystem, sql: &str| {
            sys.run_statement(&parse_statement(sql).unwrap()).map(|report| report.result)
        };
        let heap = |sys: &CsaSystem| sys.storage_db().catalog().table("u").unwrap().heap.clone();
        let before = heap(&sys);
        assert_eq!((before.pages.len(), before.row_count), (5, 40));
        let big = "x".repeat(5000);
        for sql in [
            format!("UPDATE u SET s = '{big}' WHERE a = 10"),
            format!("INSERT INTO u VALUES (2, 'ok'), (3, '{big}')"),
        ] {
            let err = run(&mut sys, &sql).unwrap_err().to_string();
            assert!(err.contains("exceeds page payload"), "{err}");
            assert_eq!(heap(&sys), before, "{sql:.40}");
            let totals = run(&mut sys, "SELECT COUNT(*), SUM(a) FROM u").unwrap();
            assert_eq!(totals.rows()[0], [Value::Int(40), Value::Int(780)], "{sql:.40}");
        }
        let next = run(&mut sys, "UPDATE u SET s = 'short' WHERE a = 10").unwrap();
        assert_eq!(next, QueryResult::Count(1));
    }

    #[test]
    fn storage_cores_speed_up_split_execution() {
        let d = data();
        let p1 = CostParams { storage_cores: 1, ..CostParams::default() };
        let mut sys1 = CsaSystem::build(SystemConfig::IronSafe, &d, p1).unwrap();
        let r1 = sys1.run_query(&query(6).unwrap()).unwrap();
        let p8 = CostParams { storage_cores: 8, ..CostParams::default() };
        let mut sys8 = CsaSystem::build(SystemConfig::IronSafe, &d, p8).unwrap();
        let r8 = sys8.run_query(&query(6).unwrap()).unwrap();
        assert!(r8.total_ns() < r1.total_ns());
    }

    #[test]
    fn tiny_epc_causes_paging_in_hos() {
        let d = data();
        let p = CostParams { epc_limit_bytes: 8 * PAGE_SIZE, ..CostParams::default() };
        let mut sys = CsaSystem::build(SystemConfig::HostOnlySecure, &d, p).unwrap();
        let r = sys.run_query(&query(1).unwrap()).unwrap();
        assert!(r.breakdown.epc_ns > 0.0, "thrashing EPC must fault");
    }

    #[test]
    fn sos_pays_weak_cpu_but_no_network() {
        let d = data();
        let r = run(SystemConfig::StorageOnlySecure, 1, &d);
        assert_eq!(r.bytes_shipped, 0);
        assert!(r.breakdown.ndp_ns > 0.0);
        assert!(r.breakdown.freshness_ns > 0.0);
    }

    /// A whole-query run that dies after an earlier stage materialised
    /// its temp table must not leave it in the base catalog: the next run
    /// of the same query would fail with "table already exists".
    #[test]
    fn failed_whole_query_run_drops_its_temp_tables() {
        use ironsafe_faults::FaultSite;
        let d = data();
        let q = query(18).unwrap();
        assert!(q.stages[0].into.is_some(), "q18 materialises a stage");
        for config in [SystemConfig::StorageOnlySecure, SystemConfig::HostOnlySecure] {
            let build = || {
                let sys = CsaSystem::build(config, &d, CostParams::default()).unwrap();
                // A run that died one read short of the end has verified
                // fewer Merkle nodes than one that finished: compare with
                // the verified-node cache off.
                sys.storage_db().pager().lock().set_merkle_cache_enabled(false);
                sys
            };
            // Count the device reads of a clean run, then fail the last
            // one (in the final stage) on every attempt of the retry budget.
            let mut clean = build();
            clean.set_fault_plan(FaultPlan::seeded(1));
            clean.run_query(&q).unwrap();
            let last = clean.fault_plan().arrivals(FaultSite::DeviceRead);
            let mut sys = build();
            let plan = (0..4).fold(FaultPlan::seeded(1), |plan, retry| {
                plan.with_nth(FaultSite::DeviceRead, last + retry)
            });
            sys.set_fault_plan(plan);
            sys.run_query(&q).expect_err("retry budget exhausted in the last stage");
            sys.set_fault_plan(FaultPlan::none());
            let rerun = sys.run_query(&q).unwrap_or_else(|e| panic!("{}: {e}", config.abbrev()));
            // Dropped temps keep their pager pages, so a second run's
            // temps sit deeper in the Merkle tree than a first run's: the
            // reference is the second run of the system that never failed.
            let second = clean.run_query(&q).unwrap();
            assert_eq!(rerun.result, second.result, "{}", config.abbrev());
            assert_eq!(rerun.breakdown, second.breakdown, "{}", config.abbrev());
        }
    }

    #[test]
    fn query_without_an_output_stage_is_a_typed_error() {
        let d = data();
        let q = PaperQuery {
            id: 0,
            name: "all-into",
            stages: vec![ironsafe_tpch::QueryStage {
                sql: "SELECT r_name FROM region".to_string(),
                into: Some("only_stage".to_string()),
            }],
        };
        for config in SystemConfig::all() {
            let mut sys = CsaSystem::build(config, &d, CostParams::default()).unwrap();
            for _ in 0..2 {
                let err = sys.run_query(&q).expect_err("no stage returns rows");
                let crate::CsaError::Sql(ironsafe_sql::SqlError::Plan(m)) = &err else {
                    panic!("{}: {err}", config.abbrev());
                };
                assert!(m.contains("output stage"), "{m}");
            }
        }
    }

    #[test]
    fn multi_stage_query_runs_split() {
        let d = data();
        let r = run(SystemConfig::IronSafe, 18, &d);
        let reference = run(SystemConfig::HostOnlyNonSecure, 18, &d);
        assert_eq!(r.result, reference.result);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use ironsafe_tpch::queries::query;

    fn data() -> TpchData {
        ironsafe_tpch::generate(0.002, 42)
    }

    const STATIC: PlacementPolicy = PlacementPolicy::Pinned(OffloadDecision::Offload);
    const ADAPTIVE: PlacementPolicy = PlacementPolicy::CostBased;

    fn run_with(placement: PlacementPolicy, qid: u8, data: &TpchData) -> QueryReport {
        let mut sys = CsaSystem::build(SystemConfig::IronSafe, data, CostParams::default()).unwrap();
        sys.set_placement(placement);
        sys.run_query(&query(qid).unwrap()).unwrap()
    }

    #[test]
    fn adaptive_matches_static_results() {
        let d = data();
        for qid in [1u8, 3, 6, 13, 18] {
            let a = run_with(STATIC, qid, &d);
            let b = run_with(ADAPTIVE, qid, &d);
            assert_eq!(a.result, b.result, "Q{qid}: strategy must never change answers");
        }
    }

    #[test]
    fn adaptive_keeps_selective_pushdowns() {
        // Q6's filter is brutal: the adaptive partitioner must keep it.
        let d = data();
        let a = run_with(ADAPTIVE, 6, &d);
        let s = run_with(STATIC, 6, &d);
        assert_eq!(a.bytes_shipped, s.bytes_shipped, "Q6 still offloads fully");
    }

    #[test]
    fn adaptive_withdraws_weak_pushdowns() {
        // Q13's NOT LIKE keeps nearly every order: the adaptive strategy
        // withdraws the pushdown; the host applies the filter instead.
        let d = data();
        let a = run_with(ADAPTIVE, 13, &d);
        let s = run_with(STATIC, 13, &d);
        assert!(
            a.rows_shipped >= s.rows_shipped,
            "withdrawn pushdown ships at least as many rows ({} vs {})",
            a.rows_shipped,
            s.rows_shipped
        );
        assert_eq!(a.result, s.result);
    }
}
