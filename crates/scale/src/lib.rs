//! # ironsafe-scale
//!
//! The paper evaluates one host against one computational-storage device
//! (§9); this crate scales that architecture out: TPC-H tables split
//! across N simulated storage nodes (range partitioning layered on the
//! `csa` partitioner's filter+project fragments), each node owning
//! its **own** `SecurePager`, Merkle tree, RPMB root, attestation record
//! and fault plan. The host fans fragments out shard-parallel and merges
//! the qualifying rows in deterministic global row order, so result rows
//! and `CostBreakdown`s stay bit-identical at any shard count and any DOP.
//!
//! Failover: a node that fails attestation, freshness verification, or
//! crashes under an `ironsafe-faults` storm is quarantined (audited,
//! counted), its partition is re-verified and re-served from the next
//! replica in the chain, and the in-flight query either completes
//! bit-identically or returns one typed [`ScaleError`] — never a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod federation;
pub mod metrics;
pub mod node;
pub mod partitioner;
pub mod shared;

pub use config::{tpch_partition_keys, FederationConfig};
pub use federation::{FederatedCsaSystem, FederatedReport, ShardDelta};
pub use metrics::ScaleMetrics;
pub use node::{AttestationRecord, ShardNode};
pub use partitioner::{RangeBound, ShardSpec, TablePartition, GID_COLUMN};

use ironsafe_csa::CsaError;

/// Errors raised by the federation layer.
#[derive(Debug)]
pub enum ScaleError {
    /// A federation of zero shards is degenerate.
    NoShards,
    /// More replicas per shard than nodes in the cluster: every
    /// partition would have to be stored more times than there are
    /// distinct nodes to hold it.
    TooManyReplicas {
        /// Configured replica count (extra copies per shard).
        replicas: usize,
        /// Configured shard count.
        shards: usize,
    },
    /// A table's configured partition-key column does not exist in its
    /// schema (rejected before any node I/O happens).
    MissingPartitionKey {
        /// The offending table.
        table: String,
        /// The configured key column.
        key: String,
    },
    /// A table named in the partition-key map is not part of the loaded
    /// data set.
    UnknownTable(String),
    /// A shard exhausted its replica chain: every node serving the
    /// partition was quarantined.
    ShardUnavailable {
        /// The shard whose replica chain is exhausted.
        shard: usize,
        /// The last node's failure reason.
        reason: String,
    },
    /// A fragment row from `shard` does not end in the hidden integer gid
    /// the merge orders by.
    MissingGid {
        /// The shard that sent the row.
        shard: usize,
        /// The row's position in that shard's stream.
        row: usize,
    },
    /// The federation does not support this operation.
    Unsupported(&'static str),
    /// An underlying CSA-layer failure.
    Csa(CsaError),
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::NoShards => write!(f, "shard count must be at least 1"),
            ScaleError::TooManyReplicas { replicas, shards } => write!(
                f,
                "replica count {replicas} must be smaller than shard count {shards}"
            ),
            ScaleError::MissingPartitionKey { table, key } => {
                write!(f, "table {table} has no partition-key column {key}")
            }
            ScaleError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ScaleError::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard} unavailable: replica chain exhausted ({reason})")
            }
            ScaleError::MissingGid { shard, row } => {
                write!(f, "shard {shard}: fragment row {row} does not end in an integer gid")
            }
            ScaleError::Unsupported(what) => write!(f, "unsupported in federation: {what}"),
            ScaleError::Csa(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScaleError {}

impl From<CsaError> for ScaleError {
    fn from(e: CsaError) -> Self {
        ScaleError::Csa(e)
    }
}

impl From<ironsafe_sql::SqlError> for ScaleError {
    fn from(e: ironsafe_sql::SqlError) -> Self {
        ScaleError::Csa(CsaError::Sql(e))
    }
}

impl From<ironsafe_storage::StorageError> for ScaleError {
    fn from(e: ironsafe_storage::StorageError) -> Self {
        ScaleError::Csa(CsaError::Storage(e))
    }
}

impl From<ScaleError> for CsaError {
    /// Collapse into the CSA error space so the federation can sit
    /// behind [`ironsafe_csa::QueryBackend`]. CSA-originated errors pass
    /// through unwrapped; federation-specific ones are carried as
    /// [`CsaError::Federation`].
    fn from(e: ScaleError) -> Self {
        match e {
            ScaleError::Csa(inner) => inner,
            other => CsaError::Federation(other.to_string()),
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ScaleError>;
