//! Live federation counters (attachable to an `ironsafe-obs` registry).

use ironsafe_obs::{Counter, Registry};

/// Counters the federation coordinator maintains across queries.
#[derive(Debug, Clone, Default)]
pub struct ScaleMetrics {
    /// Replica promotions completed after a quarantine.
    pub failover_promoted: Counter,
    /// Pages re-read while re-verifying a promoted replica's partition.
    pub failover_reverified_pages: Counter,
    /// Rows fed through the deterministic gid merge.
    pub merge_rows: Counter,
    /// Physical fragment executions (logical fragments × serving shards).
    pub shard_fragments: Counter,
    /// Nodes quarantined (attestation, freshness or crash failures).
    pub shard_quarantined: Counter,
}

impl ScaleMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ScaleMetrics::default()
    }

    /// Attach every counter to `registry` under its manifest name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("scale.failover.promoted", &self.failover_promoted);
        registry
            .register_counter("scale.failover.reverified_pages", &self.failover_reverified_pages);
        registry.register_counter("scale.merge.rows", &self.merge_rows);
        registry.register_counter("scale.shard.fragments", &self.shard_fragments);
        registry.register_counter("scale.shard.quarantined", &self.shard_quarantined);
    }
}
