//! Federation topology and partitioning configuration.

use crate::{Result, ScaleError};
use ironsafe_csa::{CostParams, SystemConfig};
use std::collections::HashMap;

/// Configuration for a [`FederatedCsaSystem`](crate::FederatedCsaSystem).
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of shards (primary storage nodes).
    pub shards: usize,
    /// Extra replicas per shard (failover chain length is
    /// `replicas + 1`). Must be smaller than `shards`: a cluster of
    /// `shards` nodes cannot hold more copies of a partition than it
    /// has distinct nodes.
    pub replicas: usize,
    /// Per-node system configuration (Table 2 row). Secure
    /// configurations give every node its own `SecurePager`, Merkle
    /// tree, RPMB root and attestation record.
    pub system: SystemConfig,
    /// Cost-model parameters (shared by every node and the coordinator).
    pub params: CostParams,
    /// Partition-key column per table.
    pub partition_keys: HashMap<String, String>,
    /// Store every node's pages compressed before encrypt+MAC. Result
    /// rows are unchanged; physical page/crypto counters drop with the
    /// achieved compression ratio (honest accounting).
    pub compressed: bool,
}

impl FederationConfig {
    /// A federation of `shards` nodes in `system`, range-partitioned on
    /// the TPC-H primary keys, no replicas.
    pub fn new(shards: usize, system: SystemConfig) -> Self {
        FederationConfig {
            shards,
            replicas: 0,
            system,
            params: CostParams::default(),
            partition_keys: tpch_partition_keys(),
            compressed: false,
        }
    }

    /// Store every node's pages compressed before encrypt+MAC.
    pub fn with_compressed(mut self, on: bool) -> Self {
        self.compressed = on;
        self
    }

    /// Set the replica count (extra copies per shard).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Reject degenerate topologies. Pure — called before any node is
    /// built or any page is written, so a bad config costs no I/O.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(ScaleError::NoShards);
        }
        if self.replicas >= self.shards {
            return Err(ScaleError::TooManyReplicas {
                replicas: self.replicas,
                shards: self.shards,
            });
        }
        Ok(())
    }
}

/// Default partition keys: each TPC-H table's generation-order key (the
/// generator emits rows in ascending key order, which is what lets the
/// partitioner snap shard boundaries to canonical page starts).
pub fn tpch_partition_keys() -> HashMap<String, String> {
    [
        ("region", "r_regionkey"),
        ("nation", "n_nationkey"),
        ("supplier", "s_suppkey"),
        ("customer", "c_custkey"),
        ("part", "p_partkey"),
        ("partsupp", "ps_partkey"),
        ("orders", "o_orderkey"),
        ("lineitem", "l_orderkey"),
    ]
    .into_iter()
    .map(|(t, k)| (t.to_string(), k.to_string()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_rejected() {
        let cfg = FederationConfig::new(0, SystemConfig::IronSafe);
        assert!(matches!(cfg.validate(), Err(ScaleError::NoShards)));
    }

    #[test]
    fn replica_count_must_be_below_shard_count() {
        let cfg = FederationConfig::new(2, SystemConfig::IronSafe).with_replicas(2);
        assert!(matches!(
            cfg.validate(),
            Err(ScaleError::TooManyReplicas { replicas: 2, shards: 2 })
        ));
        let cfg = FederationConfig::new(2, SystemConfig::IronSafe).with_replicas(1);
        assert!(cfg.validate().is_ok());
    }
}
