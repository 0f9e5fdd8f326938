//! The federation coordinator: shard-parallel fan-out, deterministic
//! merge, canonical cost accounting and replica failover.
//!
//! A federated query runs through the same split runner as a single
//! storage node ([`CsaSystem::run_split`]): the coordinator is a
//! [`CsaSystem`] over the schema-only catalog, and the federation is the
//! [`FragmentSource`] its stage loop runs fragments on. Parsing,
//! placement, shipping, the host stage and the priced work are the
//! runner's; the fan-out, failover, gid merge and per-shard accounting
//! are this module's.
//!
//! ## Determinism contract
//!
//! Result rows are bit-identical at any shard count and any DOP because
//! every fragment projects the hidden `__gid` column and the coordinator
//! k-way merges shard streams by ascending gid — recovering the exact
//! row order a single node would have produced — before anything
//! order-sensitive happens (channel serialization, host temp-table
//! load). The rows stay encoded from the shard's scan to the host's temp
//! table; the merge reads each row's trailing gid cell and strips it.
//!
//! [`CostBreakdown`]s are bit-identical
//! across shard counts because the coordinator charges the cost model
//! **only from conserved quantities**: total scanned rows, the merged
//! (placement-invariant) shipped stream sealed once through one
//! canonical channel, summed per-shard pager deltas (conserved under
//! page-aligned range partitioning), logical fragment count, and a
//! canonical Merkle depth computed from the single-node page count.
//! Genuinely N-dependent costs (extra per-shard fragment
//! instantiations, extra sessions, failover re-verification) are
//! reported separately as [`FederatedReport::fanout_overhead_ns`], never
//! folded into the breakdown. Note the freshness charge uses the
//! *canonical* tree depth: real per-shard trees are shallower (that is
//! the sharding dividend), so the model is conservative at N > 1;
//! observed per-shard `merkle_nodes`/`rpmb_ops` are still reported
//! truthfully in [`ShardDelta`].
//!
//! ## Failover protocol
//!
//! Fragments fan out one thread per shard with per-shard seeded fault
//! plans (shared plan state across threads would be racy). Failures are
//! resolved *after* the join, serially in shard order, so quarantine
//! audit entries land in a deterministic order: quarantine the active
//! node (counter + audit chain, and the attached monitor's chain),
//! promote the next replica after checking its attestation record and
//! re-verifying its partition row counts through the secure read path,
//! then re-run the fragment. An exhausted chain returns
//! [`ScaleError::ShardUnavailable`]; nothing in this path panics.

use crate::config::FederationConfig;
use crate::metrics::ScaleMetrics;
use crate::node::ShardNode;
use crate::partitioner::{gid_schema, TablePartition, GID_COLUMN};
use crate::{Result, ScaleError};
use ironsafe_csa::cost::{CostBreakdown, Run};
use ironsafe_csa::partition::render_select;
use ironsafe_csa::{CsaError, CsaSystem, FragmentSource, QueryReport, SystemConfig};
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_monitor::{AuditLog, TrustedMonitor};
use ironsafe_obs::TraceSnapshot;
use ironsafe_sql::ast::{Expr, SelectItem, SelectStmt, Statement};
use ironsafe_sql::exec::{ExecOptions, OperatorProfile};
use ironsafe_sql::schema::Schema;
use ironsafe_sql::{Database, EncodedRows, QueryResult};
use ironsafe_storage::pager::{PagerStats, PlainPager};
use ironsafe_tpch::queries::{PaperQuery, QueryStage};
use ironsafe_tpch::TpchData;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Observed per-shard execution facts for one query.
#[derive(Debug, Clone)]
pub struct ShardDelta {
    /// Shard index.
    pub shard: usize,
    /// The node that ended the query serving this shard.
    pub node: String,
    /// The serving node's pager-stats delta for this query.
    pub stats: PagerStats,
    /// Rows this shard contributed to the merged streams.
    pub rows_shipped: u64,
}

/// A federated query's result and accounting.
#[derive(Debug, Clone)]
pub struct FederatedReport {
    /// Per-node system configuration.
    pub config: SystemConfig,
    /// TPC-H query number (0 for ad-hoc statements).
    pub query_id: u8,
    /// Shard count the query ran at.
    pub shards: usize,
    /// The result (bit-identical at any shard count).
    pub result: QueryResult,
    /// Canonical simulated-time breakdown (bit-identical at any shard
    /// count and DOP).
    pub breakdown: CostBreakdown,
    /// N-dependent coordination cost kept out of the breakdown: extra
    /// per-shard fragment instantiations beyond the logical fragments,
    /// extra per-shard channel sessions, and failover re-verification.
    pub fanout_overhead_ns: f64,
    /// Per-shard observed facts (pager deltas sum to the single-node
    /// delta under range partitioning; Merkle/RPMB counts shrink with N
    /// — the sharding dividend).
    pub per_shard: Vec<ShardDelta>,
    /// Summed pages read across serving nodes.
    pub pages_read_storage: u64,
    /// Rows shipped shard→coordinator (merged stream length).
    pub rows_shipped: u64,
    /// Bytes through the canonical channel.
    pub bytes_shipped: u64,
}

impl FederatedReport {
    /// Total simulated time excluding fan-out overhead.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }

    /// Collapse into the single-node report shape the serving layer and
    /// benchmarks consume.
    pub fn to_query_report(&self) -> QueryReport {
        QueryReport {
            config: self.config,
            query_id: self.query_id,
            result: self.result.clone(),
            breakdown: self.breakdown,
            pages_read_storage: self.pages_read_storage,
            pages_shipped: self.bytes_shipped.div_ceil(4096),
            rows_shipped: self.rows_shipped,
            bytes_shipped: self.bytes_shipped,
        }
    }
}

/// A federation of shard-partitioned, independently attested storage
/// nodes behind one coordinator.
pub struct FederatedCsaSystem {
    config: FederationConfig,
    /// Routing specs (shard row vectors are dropped after node load).
    partitions: Vec<TablePartition>,
    /// `nodes[shard]` is that shard's failover chain (0 = primary).
    nodes: Vec<Vec<ShardNode>>,
    /// Index of each shard's currently serving node.
    active: Vec<AtomicUsize>,
    /// Coordinator-side per-shard fault plans (crash injection).
    shard_plans: Vec<Mutex<FaultPlan>>,
    /// Heap pages of the gid-augmented data set packed on one node —
    /// the N-invariant input to the canonical freshness charge.
    canonical_pages: u64,
    audit: AuditLog,
    monitor: Mutex<Option<Arc<Mutex<TrustedMonitor>>>>,
    metrics: ScaleMetrics,
    /// Logical audit clock (monotonic across queries).
    clock: AtomicI64,
    /// The split runner over the schema-only catalog. Its lock
    /// serializes queries, so per-query pager-stat deltas are exact.
    coordinator: Mutex<CsaSystem>,
}

impl FederatedCsaSystem {
    /// Validate `config`, partition `data`, and build every shard's
    /// replica chain. All topology errors surface before any node I/O.
    pub fn build(config: FederationConfig, data: &TpchData) -> Result<FederatedCsaSystem> {
        config.validate()?;
        // Schemas come from DDL alone so key validation precedes I/O.
        let mut scratch = Database::new(PlainPager::new());
        for ddl in ironsafe_tpch::schema::DDL {
            scratch.execute(ddl)?;
        }
        let loaded = data.tables();
        for table in config.partition_keys.keys() {
            if !loaded.iter().any(|(n, _)| n == table) {
                return Err(ScaleError::UnknownTable(table.clone()));
            }
        }
        let mut schemas = Vec::with_capacity(loaded.len());
        for (name, _) in &loaded {
            let schema = scratch.catalog().table(name)?.schema.clone();
            let key = config.partition_keys.get(*name).ok_or_else(|| {
                ScaleError::MissingPartitionKey {
                    table: name.to_string(),
                    key: "(none configured)".to_string(),
                }
            })?;
            if schema.resolve(key).is_err() {
                return Err(ScaleError::MissingPartitionKey {
                    table: name.to_string(),
                    key: key.clone(),
                });
            }
            schemas.push(schema);
        }

        let mut partitions = Vec::with_capacity(loaded.len());
        for ((name, rows), schema) in loaded.iter().zip(&schemas) {
            let key = &config.partition_keys[*name];
            partitions.push(TablePartition::build(name, schema, rows, key, config.shards)?);
        }
        let canonical_pages = partitions.iter().map(|p| p.canonical_pages).sum();

        let secure = config.system.secure();
        let mut nodes = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            // Encoded once per shard; every replica appends the same records.
            let tables: Vec<(String, Schema, EncodedRows)> = partitions
                .iter()
                .map(|part| {
                    let rows = EncodedRows::from_rows(&part.shard_rows[shard]);
                    (part.table.clone(), gid_schema(&part.schema), rows)
                })
                .collect();
            let mut chain = Vec::with_capacity(config.replicas + 1);
            for replica in 0..=config.replicas {
                chain.push(ShardNode::build(shard, replica, secure, &config.params, &tables)?);
            }
            nodes.push(chain);
        }
        for part in &mut partitions {
            part.shard_rows = Vec::new();
        }

        let shards = config.shards;
        let coordinator = CsaSystem::from_database(config.system, scratch, config.params.clone());
        Ok(FederatedCsaSystem {
            active: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            shard_plans: (0..shards).map(|_| Mutex::new(FaultPlan::none())).collect(),
            config,
            partitions,
            nodes,
            canonical_pages,
            audit: AuditLog::new(),
            monitor: Mutex::new(None),
            metrics: ScaleMetrics::new(),
            clock: AtomicI64::new(0),
            coordinator: Mutex::new(coordinator),
        })
    }

    /// The federation's configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The coordinator's own tamper-evident audit chain (quarantine and
    /// promotion events).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Live federation counters.
    pub fn metrics(&self) -> &ScaleMetrics {
        &self.metrics
    }

    /// Mirror quarantine/promotion audit events into `monitor`'s chain.
    pub fn attach_monitor(&self, monitor: Arc<Mutex<TrustedMonitor>>) {
        *self.monitor.lock() = Some(monitor);
    }

    /// Attach the federation counters to `registry`.
    pub fn register_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.metrics.register(registry);
    }

    /// Index of the node currently serving `shard`.
    pub fn active_replica(&self, shard: usize) -> usize {
        self.active[shard].load(Ordering::SeqCst)
    }

    /// A shard-chain node (primary = replica 0).
    pub fn node(&self, shard: usize, replica: usize) -> &ShardNode {
        &self.nodes[shard][replica]
    }

    /// Install a coordinator-side fault plan for `shard` (crash
    /// injection) and mirror it onto the shard's *currently serving*
    /// node's pager (device/integrity/freshness sites). Replicas keep
    /// clean plans, so promotion actually recovers.
    pub fn set_shard_fault_plan(&self, shard: usize, plan: FaultPlan) {
        self.active_node(shard).set_fault_plan(plan.clone());
        *self.shard_plans[shard].lock() = plan;
    }

    /// Drain every serving node's TEE-resident flight recorder, shard
    /// order.
    pub fn take_flight_dump(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in 0..self.config.shards {
            out.extend(self.active_node(shard).take_flight_dump());
        }
        out
    }

    fn active_node(&self, shard: usize) -> &ShardNode {
        &self.nodes[shard][self.active[shard].load(Ordering::SeqCst)]
    }

    fn partition(&self, table: &str) -> Result<&TablePartition> {
        self.partitions
            .iter()
            .find(|p| p.table == table)
            .ok_or_else(|| ScaleError::UnknownTable(table.to_string()))
    }

    fn audit_event(&self, message: &str) {
        let ts = self.clock.fetch_add(1, Ordering::SeqCst);
        self.audit.append(ts, "federation", "coordinator", message);
        if let Some(mon) = self.monitor.lock().as_ref() {
            mon.lock().audit().append(ts, "federation", "coordinator", message);
        }
    }

    fn quarantine(&self, shard: usize, replica: usize, reason: &str) {
        self.metrics.shard_quarantined.inc();
        let node_id = self.nodes[shard][replica].id.clone();
        self.audit_event(&format!("shard {shard}: quarantined {node_id} ({reason})"));
    }

    /// Run one paper query across the federation.
    pub fn run_query_federated(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(FederatedReport, TraceSnapshot)> {
        let mut coordinator = self.coordinator.lock();
        coordinator.set_session_key(session_key);
        coordinator.set_dop(dop);
        let run = Run::Split {
            secure: self.config.system.secure(),
            canonical_pages: Some(self.canonical_pages),
        };
        let mut source = Shards::new(self);
        let ran = coordinator.run_split(q, run, &mut source);
        let report = ran.map_err(|e| source.failure.take().unwrap_or(ScaleError::Csa(e)))?;
        let trace = coordinator.take_last_trace().expect("a finished run keeps its trace");

        let p = &self.config.params;
        let shards = self.config.shards;
        let fanout_overhead_ns = source.physical.saturating_sub(source.logical) as f64
            * p.fragment_setup_ns as f64
            + shards.saturating_sub(1) as f64 * p.session_setup_ns as f64
            + source.reverified as f64 * p.device_read_ns_per_page;
        let per_shard = (0..shards)
            .map(|s| ShardDelta {
                shard: s,
                node: self.active_node(s).id.clone(),
                stats: source.deltas[s],
                rows_shipped: source.rows[s],
            })
            .collect();
        let federated = FederatedReport {
            config: self.config.system,
            query_id: q.id,
            shards,
            result: report.result,
            breakdown: report.breakdown,
            fanout_overhead_ns,
            per_shard,
            pages_read_storage: report.pages_read_storage,
            rows_shipped: report.rows_shipped,
            bytes_shipped: report.bytes_shipped,
        };
        Ok((federated, trace))
    }

    /// Run one ad-hoc statement (`SELECT` only — federated DML/DDL is
    /// unsupported and returns a typed error).
    pub fn run_statement_federated(
        &self,
        stmt: &Statement,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(FederatedReport, TraceSnapshot)> {
        match stmt {
            Statement::Select(sel) => {
                let q = PaperQuery {
                    id: 0,
                    name: "ad-hoc",
                    stages: vec![QueryStage { sql: render_select(sel), into: None }],
                };
                self.run_query_federated(&q, session_key, dop)
            }
            _ => Err(ScaleError::Unsupported("federated DML/DDL")),
        }
    }

    /// Run one fragment on `shard`'s serving node: the output schema and
    /// the rows, gid last, or the failure reason for the failover path.
    fn serve_fragment(&self, shard: usize, frag_stmt: &SelectStmt, exec: &ExecOptions) -> Served {
        if self.shard_plans[shard].lock().should_fire(FaultSite::EnclaveCrash) {
            return Err("injected enclave crash".to_string());
        }
        let node = self.active_node(shard);
        if !node.attested() {
            return Err(format!("{}: attestation rejected", node.id));
        }
        let mut rows = EncodedRows::new();
        let (schema, _) = node
            .with_db(|db| db.select_encoded(frag_stmt, exec, &mut rows))
            .map_err(|e| e.to_string())?;
        Ok((schema, rows))
    }
}

/// One shard's answer to a fragment, or why it gave none.
type Served = std::result::Result<(Schema, EncodedRows), String>;

/// The federation as the split runner's [`FragmentSource`] for one
/// query: a fragment fans out to every shard's serving node, failed
/// shards fail over down their replica chains, and the shard streams
/// merge back into single-node row order. It keeps the query's
/// per-shard accounting.
struct Shards<'a> {
    fed: &'a FederatedCsaSystem,
    /// Each serving node's pager counters when last read.
    base: Vec<PagerStats>,
    /// Each shard's pager work so far.
    deltas: Vec<PagerStats>,
    /// Rows each shard contributed so far.
    rows: Vec<u64>,
    /// Fragments the runner asked for.
    logical: u64,
    /// Fragment executions on nodes, re-runs after failover included.
    physical: u64,
    /// Pages re-read verifying promoted replicas.
    reverified: u64,
    /// The typed error behind a failed fragment (the runner carries it
    /// rendered, as a `CsaError`).
    failure: Option<ScaleError>,
}

impl<'a> Shards<'a> {
    fn new(fed: &'a FederatedCsaSystem) -> Self {
        let shards = fed.config.shards;
        Shards {
            fed,
            base: (0..shards).map(|s| fed.active_node(s).stats()).collect(),
            deltas: vec![PagerStats::default(); shards],
            rows: vec![0; shards],
            logical: 0,
            physical: 0,
            reverified: 0,
            failure: None,
        }
    }

    /// Fan `stmt` out with the hidden gid projected, fail over what
    /// failed, account each serving node's work, and merge the streams
    /// into `out`. Returns the fragment's schema (gid-less).
    fn fan_out(
        &mut self,
        stmt: &SelectStmt,
        exec: &ExecOptions,
        out: &mut EncodedRows,
    ) -> Result<Schema> {
        let fed = self.fed;
        let shards = fed.config.shards;
        let mut frag = stmt.clone();
        frag.projections
            .push(SelectItem::Expr { expr: Expr::Column(GID_COLUMN.to_string()), alias: None });
        let frag = &frag;
        self.logical += 1;
        let outcomes: Vec<Served> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| s.spawn(move |_| fed.serve_fragment(shard, frag, exec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("shard thread panicked".to_string())))
                .collect()
        })
        .unwrap_or_else(|_| (0..shards).map(|_| Err("shard scope panicked".to_string())).collect());
        self.physical += shards as u64;
        fed.metrics.shard_fragments.add(shards as u64);

        // Failover: resolved after the join, serially in shard order, so
        // quarantine audit order is deterministic.
        let mut schema = None;
        let mut streams = Vec::with_capacity(shards);
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            let (shard_schema, rows) = self.fail_over(shard, outcome, frag, exec)?;
            self.rows[shard] += rows.len() as u64;
            schema.get_or_insert(shard_schema);
            streams.push(rows);
        }
        for shard in 0..shards {
            let cur = fed.active_node(shard).stats();
            self.deltas[shard] += cur - self.base[shard];
            self.base[shard] = cur;
        }

        let before = out.len();
        merge_by_gid(&streams, out)?;
        fed.metrics.merge_rows.add((out.len() - before) as u64);
        let mut schema = schema.ok_or(ScaleError::NoShards)?;
        schema.columns.pop(); // the hidden gid
        Ok(schema)
    }

    /// Settle `shard`'s `outcome`: on failure quarantine the serving
    /// node, promote the next replica that attests and re-verifies, and
    /// re-serve the fragment there, until a node answers or the chain
    /// runs out.
    fn fail_over(
        &mut self,
        shard: usize,
        mut outcome: Served,
        frag: &SelectStmt,
        exec: &ExecOptions,
    ) -> Result<(Schema, EncodedRows)> {
        let fed = self.fed;
        loop {
            let reason = match outcome {
                Ok(served) => return Ok(served),
                Err(reason) => reason,
            };
            let failed = fed.active[shard].load(Ordering::SeqCst);
            fed.quarantine(shard, failed, &reason);
            let next = failed + 1;
            if next >= fed.nodes[shard].len() {
                return Err(ScaleError::ShardUnavailable { shard, reason });
            }
            fed.active[shard].store(next, Ordering::SeqCst);
            let cand = &fed.nodes[shard][next];
            if !cand.attested() {
                outcome = Err(format!("{}: attestation rejected", cand.id));
                continue;
            }
            outcome = match cand.reverify() {
                Err(r) => Err(r),
                Ok(pages) => {
                    self.reverified += pages;
                    fed.metrics.failover_promoted.inc();
                    fed.metrics.failover_reverified_pages.add(pages);
                    fed.audit_event(&format!(
                        "shard {shard}: promoted {} after re-verifying {} tables ({pages} pages)",
                        cand.id,
                        cand.row_counts.len()
                    ));
                    self.base[shard] = cand.stats();
                    self.physical += 1;
                    fed.metrics.shard_fragments.inc();
                    fed.serve_fragment(shard, frag, exec)
                }
            };
        }
    }
}

impl FragmentSource for Shards<'_> {
    fn schema(&self, table: &str) -> Option<Schema> {
        self.fed.partition(table).ok().map(|p| p.schema.clone())
    }

    fn rows(&self, table: &str) -> ironsafe_csa::Result<u64> {
        Ok(self.fed.partition(table)?.total_rows)
    }

    fn run_fragment(
        &mut self,
        stmt: &SelectStmt,
        exec: &ExecOptions,
        out: &mut EncodedRows,
    ) -> ironsafe_csa::Result<(Schema, Vec<OperatorProfile>)> {
        match self.fan_out(stmt, exec, out) {
            Ok(schema) => Ok((schema, Vec::new())),
            Err(e) => {
                let rendered = CsaError::Federation(e.to_string());
                self.failure = Some(e);
                Err(rendered)
            }
        }
    }

    fn pager_work(&self) -> PagerStats {
        self.deltas.iter().fold(PagerStats::default(), |acc, d| acc + *d)
    }
}

/// K-way merge of per-shard fragment streams by ascending trailing gid,
/// appending each row to `out` without its gid cell. Each stream is
/// already gid-ascending (shard-local scan order), so this recovers the
/// single-node row order exactly.
fn merge_by_gid(streams: &[EncodedRows], out: &mut EncodedRows) -> Result<()> {
    let mut heads: Vec<_> =
        streams.iter().map(|s| s.as_slice().rows().enumerate().peekable()).collect();
    loop {
        let mut best: Option<(usize, i64, &[u8])> = None;
        for (shard, rows) in heads.iter_mut().enumerate() {
            if let Some(&(row, bytes)) = rows.peek() {
                let (cells, gid) = split_gid(bytes).ok_or(ScaleError::MissingGid { shard, row })?;
                if best.is_none_or(|(_, g, _)| gid < g) {
                    best = Some((shard, gid, cells));
                }
            }
        }
        let Some((shard, _, cells)) = best else { return Ok(()) };
        out.push_encoded(cells);
        heads[shard].next();
    }
}

/// A fragment row's cells before its trailing gid, and the gid. Every
/// fragment projects the gid last, so it is the row's last 9 bytes: an
/// encoded `Int` (tag 1, then 8 big-endian bytes). `None` when the row
/// is shorter or its tail is not so tagged.
fn split_gid(row: &[u8]) -> Option<(&[u8], i64)> {
    let (cells, tail) = row.split_at(row.len().checked_sub(9)?);
    match tail {
        [1, gid @ ..] => Some((cells, i64::from_be_bytes(gid.try_into().ok()?))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_sql::schema::Row;
    use ironsafe_sql::value::Value;
    use proptest::prelude::*;

    /// The `Vec<Row>` merge the byte merge replaced, kept as its oracle.
    fn merge_rows_by_gid(mut streams: Vec<Vec<Row>>) -> Vec<Row> {
        let gid_of = |row: &Row| match row.last() {
            Some(Value::Int(g)) => *g,
            other => panic!("fragment rows carry a trailing Int gid, got {other:?}"),
        };
        let mut idx = vec![0usize; streams.len()];
        let mut out = Vec::new();
        loop {
            let mut best: Option<(usize, i64)> = None;
            for (s, rows) in streams.iter().enumerate() {
                if idx[s] < rows.len() {
                    let g = gid_of(&rows[idx[s]]);
                    if best.is_none_or(|(_, bg)| g < bg) {
                        best = Some((s, g));
                    }
                }
            }
            let Some((s, _)) = best else { return out };
            out.push(std::mem::take(&mut streams[s][idx[s]]));
            idx[s] += 1;
        }
    }

    #[test]
    fn a_row_without_a_trailing_gid_is_a_typed_error() {
        let good = EncodedRows::from_rows(&[vec![Value::Int(5), Value::Int(0)]]);
        let gid_only = EncodedRows::from_rows(&[vec![Value::Int(1)]]);
        let mut truncated = EncodedRows::new();
        truncated.push_encoded(&gid_only.as_slice().bytes()[..5]);
        let text_tailed =
            EncodedRows::from_rows(&[vec![Value::Int(1), Value::Text("no gid here".into())]]);
        for (bad, what) in [(truncated, "truncated"), (text_tailed, "text-tailed")] {
            let err = merge_by_gid(&[good.clone(), bad], &mut EncodedRows::new()).unwrap_err();
            assert!(matches!(err, ScaleError::MissingGid { shard: 1, row: 0 }), "{what}: {err}");
        }
    }

    fn cell() -> impl Strategy<Value = Value> {
        let text = proptest::collection::vec(prop_oneof![Just('a'), Just('é'), Just(' ')], 0..12)
            .prop_map(|cs| Value::Text(cs.into_iter().collect()));
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            (-1e9f64..1e9).prop_map(Value::Float),
            text,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The byte merge emits exactly the bytes the row merge's popped
        /// rows encode to, for random tables dealt to 1–3 shards (empty
        /// shards included).
        #[test]
        fn byte_merge_equals_the_row_merge(
            table in proptest::collection::vec((cell(), cell(), cell(), 0usize..3), 0..40),
            shards in 1usize..4,
        ) {
            let mut dealt: Vec<Vec<Row>> = vec![Vec::new(); shards];
            for (gid, (a, b, c, owner)) in table.into_iter().enumerate() {
                dealt[owner % shards].push(vec![a, b, c, Value::Int(gid as i64)]);
            }
            let streams: Vec<EncodedRows> = dealt.iter().map(|s| EncodedRows::from_rows(s)).collect();
            let mut merged = EncodedRows::new();
            merge_by_gid(&streams, &mut merged).unwrap();

            let mut rows = merge_rows_by_gid(dealt);
            rows.iter_mut().for_each(|r| { r.pop(); });
            prop_assert_eq!(merged, EncodedRows::from_rows(&rows));
        }
    }
}
