//! Federation seam: the execution interface the serving layer binds to.
//!
//! The paper evaluates one host against one computational-storage
//! device; scaling past a single Merkle tree and a single TrustZone
//! root means the serving layer must not care *what* executes a query —
//! one [`SharedCsaSystem`], or a sharded federation of independently
//! attested storage nodes (`ironsafe-scale`). [`QueryBackend`] is that
//! seam: exactly the three operations `ironsafe-serve` performs against
//! an execution engine, object-safe so a server can hold
//! `Arc<dyn QueryBackend>` and swap a federation in without touching
//! session management, admission control or audit plumbing.
//!
//! Every implementation must uphold the repo-wide determinism contract:
//! identical requests produce bit-identical rows and
//! [`CostBreakdown`](crate::CostBreakdown)s regardless of concurrency,
//! DOP, or (for federations) shard count.
//!
//! [`FragmentSource`] is the seam one level down: *where* a split
//! query's storage fragments run. One stage loop
//! ([`CsaSystem::run_split`](crate::CsaSystem::run_split)) drives either
//! source — a storage node's own [`Database`], or a federation's fan-out
//! over its shards.

use crate::system::QueryReport;
use crate::Result;
use ironsafe_obs::TraceSnapshot;
use ironsafe_sql::ast::{SelectStmt, Statement};
use ironsafe_sql::exec::{ExecOptions, OperatorProfile};
use ironsafe_sql::{Database, EncodedRows, Schema};
use ironsafe_storage::pager::PagerStats;
use ironsafe_tpch::queries::PaperQuery;

/// Where a split query's storage fragments run. The stage loop owns
/// everything else — parsing, partitioning, shipping, the host stage,
/// `INTO` tables, temp drops, EPC touches and the priced work.
pub trait FragmentSource {
    /// `table`'s schema, or `None` when the source does not hold it.
    fn schema(&self, table: &str) -> Option<Schema>;

    /// `table`'s row count.
    fn rows(&self, table: &str) -> Result<u64>;

    /// Run one fragment, appending its rows to `out` in the order one
    /// node scanning the whole table emits them. Returns their schema
    /// and the operator profiles of the plan that produced them.
    fn run_fragment(
        &mut self,
        stmt: &SelectStmt,
        exec: &ExecOptions,
        out: &mut EncodedRows,
    ) -> Result<(Schema, Vec<OperatorProfile>)>;

    /// Pager counters of the work done so far.
    fn pager_work(&self) -> PagerStats;
}

impl FragmentSource for Database {
    fn schema(&self, table: &str) -> Option<Schema> {
        self.catalog().table(table).ok().map(|t| t.schema.clone())
    }

    fn rows(&self, table: &str) -> Result<u64> {
        Ok(self.catalog().table(table)?.heap.row_count)
    }

    fn run_fragment(
        &mut self,
        stmt: &SelectStmt,
        exec: &ExecOptions,
        out: &mut EncodedRows,
    ) -> Result<(Schema, Vec<OperatorProfile>)> {
        Ok(self.select_encoded(stmt, exec, out)?)
    }

    fn pager_work(&self) -> PagerStats {
        self.pager_stats()
    }
}

/// An execution engine the serving layer can run queries against.
pub trait QueryBackend: Send + Sync {
    /// Run one paper query under a per-request session key at the given
    /// degree of parallelism. Reports must be bit-identical at any DOP.
    fn run_query_with_dop(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(QueryReport, Option<TraceSnapshot>)>;

    /// Run one ad-hoc statement (`SELECT`s concurrently, DML/DDL
    /// serialized) under a per-request session key.
    fn run_statement_with_dop(
        &self,
        stmt: &Statement,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(QueryReport, Option<TraceSnapshot>)>;

    /// Drain the TEE-resident flight recorder(s): forensic event lines
    /// recorded by faulted or violating accesses, appended by the
    /// serving layer to the monitor audit trail on failure.
    fn take_flight_dump(&self) -> Vec<String>;

    /// Force any buffered (group-commit) transactions out to durable
    /// storage. The serving layer calls this on drain/shutdown so a
    /// partially-filled group is not left waiting for a flush trigger
    /// that will never come. Backends without a write buffer no-op.
    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

impl QueryBackend for crate::SharedCsaSystem {
    fn run_query_with_dop(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(QueryReport, Option<TraceSnapshot>)> {
        SharedCsaSystem::run_query_with_dop(self, q, session_key, dop)
    }

    fn run_statement_with_dop(
        &self,
        stmt: &Statement,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(QueryReport, Option<TraceSnapshot>)> {
        SharedCsaSystem::run_statement_with_dop(self, stmt, session_key, dop)
    }

    fn take_flight_dump(&self) -> Vec<String> {
        SharedCsaSystem::take_flight_dump(self)
    }

    fn flush(&self) -> Result<()> {
        SharedCsaSystem::flush(self)
    }
}

use crate::SharedCsaSystem;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostParams;
    use crate::system::{CsaSystem, SystemConfig};
    use ironsafe_tpch::queries::paper_queries;
    use std::sync::Arc;

    #[test]
    fn shared_system_serves_through_the_trait_object() {
        let data = ironsafe_tpch::generate(0.002, 42);
        let sys =
            CsaSystem::build(SystemConfig::VanillaCs, &data, CostParams::default()).unwrap();
        let shared = Arc::new(SharedCsaSystem::new(sys));
        let backend: Arc<dyn QueryBackend> = Arc::clone(&shared) as Arc<dyn QueryBackend>;
        let queries = paper_queries();
        let q = queries.iter().find(|q| q.id == 6).unwrap();
        let (direct, _) = shared.run_query(q, [3u8; 32]).unwrap();
        let (via_trait, _) = backend.run_query_with_dop(q, [3u8; 32], 1).unwrap();
        assert_eq!(direct.result, via_trait.result);
        assert_eq!(direct.breakdown, via_trait.breakdown);
    }
}
