//! # ironsafe-csa
//!
//! The computational-storage architecture: host engine, storage engine,
//! query partitioner, secure channel and the analytic cost model that
//! turns *measured work* (pages read, rows shipped, Merkle nodes visited,
//! EPC faults...) into *simulated time* for the paper's five system
//! configurations (Table 2):
//!
//! | abbrev | system            | split | secure |
//! |--------|-------------------|-------|--------|
//! | `hons` | host-only         | no    | no     |
//! | `hos`  | host-only         | no    | yes    |
//! | `vcs`  | vanilla CS        | yes   | no     |
//! | `scs`  | IronSafe          | yes   | yes    |
//! | `sos`  | storage-only      | no    | yes    |
//!
//! Queries really execute — on real generated data through the real
//! (secure) storage stack — and the cost model only converts the observed
//! operation counts into nanoseconds using parameters calibrated to the
//! paper's testbed (i9-10900K host, 16×A72 storage server, NVMe, 40 GbE).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cost;
pub mod federation;
pub mod net;
pub mod partition;
pub mod profile;
pub mod shared;
pub mod system;

pub use cost::{CostBreakdown, CostParams, Interconnect};
pub use federation::{FragmentSource, QueryBackend};
pub use net::SecureChannel;
pub use profile::{CostTerm, Placement, PlanProfile, ProfileExtras, QueryProfile};
pub use shared::{RecoveryReport, SharedCsaSystem};
pub use partition::{partition_select, Partition, StorageQuery};
pub use system::{storage_pager, CsaSystem, QueryReport, SystemConfig};

/// Errors raised by the CSA layer.
#[derive(Debug)]
pub enum CsaError {
    /// SQL-level failure.
    Sql(ironsafe_sql::SqlError),
    /// Monitor refused the operation.
    Monitor(ironsafe_monitor::MonitorError),
    /// Channel-level failure (MAC mismatch etc.).
    Channel(&'static str),
    /// Storage-level failure.
    Storage(ironsafe_storage::StorageError),
    /// Federation-level failure (shard exhaustion, degenerate sharding
    /// config, unsupported federated operation). Carried as a rendered
    /// string so the CSA layer does not depend on `ironsafe-scale`.
    Federation(String),
}

impl std::fmt::Display for CsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsaError::Sql(e) => write!(f, "sql: {e}"),
            CsaError::Monitor(e) => write!(f, "monitor: {e}"),
            CsaError::Channel(m) => write!(f, "channel: {m}"),
            CsaError::Storage(e) => write!(f, "storage: {e}"),
            CsaError::Federation(m) => write!(f, "federation: {m}"),
        }
    }
}

impl std::error::Error for CsaError {}

impl ironsafe_faults::Transient for CsaError {
    /// Channel faults (drop/corrupt/reorder) clear on retransmission;
    /// storage faults delegate to [`ironsafe_storage::StorageError`]
    /// (including ones the SQL engine wrapped while driving the pager).
    /// SQL and monitor errors are deterministic decisions, never noise.
    fn is_transient(&self) -> bool {
        match self {
            CsaError::Channel(_) => true,
            CsaError::Storage(e) => e.is_transient(),
            CsaError::Sql(ironsafe_sql::SqlError::Storage(e)) => e.is_transient(),
            CsaError::Sql(_) | CsaError::Monitor(_) | CsaError::Federation(_) => false,
        }
    }
}

impl From<ironsafe_sql::SqlError> for CsaError {
    fn from(e: ironsafe_sql::SqlError) -> Self {
        CsaError::Sql(e)
    }
}

impl From<ironsafe_monitor::MonitorError> for CsaError {
    fn from(e: ironsafe_monitor::MonitorError) -> Self {
        CsaError::Monitor(e)
    }
}

impl From<ironsafe_storage::StorageError> for CsaError {
    fn from(e: ironsafe_storage::StorageError) -> Self {
        CsaError::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CsaError>;
