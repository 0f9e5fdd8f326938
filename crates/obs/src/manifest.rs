//! The metric-name manifest: one const registry of every counter,
//! gauge and histogram name the workspace exports.
//!
//! Components register their cells under `subsystem.object.event`
//! names scattered across crates; a typo'd or orphaned name silently
//! produces a counter nobody reads. The manifest pins the full set:
//! `tests/metrics_manifest.rs` (workspace root) registers every
//! subsystem into one [`crate::Registry`] and asserts the exported
//! names are exactly covered, and the DESIGN.md metric table is
//! generated from [`design_table`] so docs cannot drift either.

use crate::metrics::MetricsSnapshot;

/// Declaration of one exported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted `subsystem.object.event` name.
    pub name: &'static str,
    /// Cell kind: `"counter"`, `"gauge"` or `"histogram"`.
    pub kind: &'static str,
    /// One-line description (rendered into the DESIGN.md table).
    pub help: &'static str,
}

const fn m(name: &'static str, kind: &'static str, help: &'static str) -> MetricDef {
    MetricDef { name, kind, help }
}

/// Every metric name the workspace exports, sorted by name.
///
/// Keep this sorted — [`manifest_contains`] binary-searches it, and a
/// unit test enforces order and uniqueness.
pub const METRIC_MANIFEST: &[MetricDef] = &[
    m("csa.net.bytes", "counter", "Bytes moved over the host↔storage secure channel"),
    m("csa.net.messages", "counter", "Sealed records sent over the secure channel"),
    m("exec.morsel.dispatched", "counter", "Morsels claimed by parallel workers"),
    m("exec.morsel.rows", "counter", "Rows decoded by morsel workers"),
    m("exec.morsel.scans", "counter", "Parallel morsel scans started"),
    m("faults.exhausted", "counter", "Operations that failed after the full retry budget"),
    m("faults.injected", "counter", "Faults the plan decided to fire"),
    m("faults.recovered", "counter", "Operations that succeeded after at least one retry"),
    m("faults.retried", "counter", "Retry attempts after transient failures"),
    m("faults.surface.channel.injected", "counter", "Chaos demo: channel faults injected"),
    m("faults.surface.channel.recovered", "counter", "Chaos demo: channel faults recovered"),
    m("faults.surface.device.injected", "counter", "Chaos demo: device faults injected"),
    m("faults.surface.device.recovered", "counter", "Chaos demo: device faults recovered"),
    m("faults.surface.enclave.injected", "counter", "Chaos demo: enclave faults injected"),
    m("faults.surface.enclave.recovered", "counter", "Chaos demo: enclave faults recovered"),
    m("faults.surface.rpmb.injected", "counter", "Chaos demo: RPMB faults injected"),
    m("faults.surface.rpmb.recovered", "counter", "Chaos demo: RPMB faults recovered"),
    m("monitor.query.deny", "counter", "Statements the trusted monitor refused"),
    m("monitor.query.grant", "counter", "Statements the trusted monitor authorized"),
    m("mvcc.gc", "counter", "Retained page versions garbage-collected once unpinned"),
    m("mvcc.pin", "counter", "Snapshot epochs pinned by read views"),
    m("mvcc.read.retained", "counter", "Pinned reads served from retained pre-images"),
    m("mvcc.retain", "counter", "Pre-images retained for pinned readers at flush"),
    m("scale.failover.promoted", "counter", "Replica promotions completed after a quarantine"),
    m("scale.failover.reverified_pages", "counter", "Pages re-read verifying a promoted replica's partition"),
    m("scale.merge.rows", "counter", "Rows fed through the deterministic gid merge"),
    m("scale.shard.fragments", "counter", "Physical fragment executions (logical fragments × shards)"),
    m("scale.shard.quarantined", "counter", "Shard nodes quarantined after attestation/crash/freshness failures"),
    m("serve.flight.dumps", "counter", "Flight-recorder dumps appended to the audit trail"),
    m("serve.query.admitted", "counter", "Requests accepted into a session queue"),
    m("serve.query.completed", "counter", "Requests executed and replied to"),
    m("serve.query.rejected", "counter", "Requests refused by admission control"),
    m("serve.queue.depth", "gauge", "Total queued requests across sessions"),
    m("serve.sessions.active", "gauge", "Open (non-revoked, non-expired) sessions"),
    m("serve.slo.queue_wait_ns", "histogram", "Wall-clock ns a request waited in its queue"),
    m("serve.slo.service_ns", "histogram", "Wall-clock ns a worker spent executing a request"),
    m("serve.violations.audited", "counter", "Integrity/freshness violations appended to the audit log"),
    m("storage.merkle.cache.evict", "counter", "Verified-node cache wholesale evictions"),
    m("storage.merkle.cache.hit", "counter", "Freshness checks resolved from the verified-node cache"),
    m("storage.merkle.cache.miss", "counter", "Freshness checks that climbed past the cache"),
    m("storage.page.decrypt", "counter", "Page payload decryptions"),
    m("storage.page.encrypt", "counter", "Page payload encryptions"),
    m("storage.page.hmac_verify", "counter", "Per-page MAC verifications on the read path"),
    m("storage.page.read", "counter", "Logical page reads through the secure pager"),
    m("storage.page.write", "counter", "Logical page writes through the secure pager"),
    m("storage.rpmb.write", "counter", "Freshness-root commits to RPMB"),
    m("tee.enclave.restart", "counter", "Enclave crash-recovery restarts"),
    m("tee.enclave.transition", "counter", "ECALL/OCALL enclave transitions"),
    m("tee.epc.eviction", "counter", "EPC LRU evictions"),
    m("tee.epc.fault", "counter", "EPC page faults"),
    m("tee.epc.hit", "counter", "EPC resident-page touches"),
    m("tee.rpmb.read", "counter", "Authenticated RPMB reads"),
    m("tee.rpmb.write", "counter", "Authenticated RPMB writes"),
    m("wal.append", "counter", "Records appended to the encrypted write-ahead log"),
    m("wal.append.bytes", "counter", "Bytes appended to the WAL, frame overhead included"),
    m("wal.group_commit", "counter", "Group-commit flushes (one batched RPMB bind each)"),
    m("wal.recover.discarded", "counter", "Tail records discarded by crash recovery"),
    m("wal.recover.replayed", "counter", "Commit records replayed by crash recovery"),
    m("wal.txn", "counter", "Transactions folded into group commits"),
];

/// True when `name` is declared in [`METRIC_MANIFEST`].
pub fn manifest_contains(name: &str) -> bool {
    METRIC_MANIFEST.binary_search_by(|d| d.name.cmp(name)).is_ok()
}

/// Names exported in `snapshot` that the manifest does not declare
/// (empty when the snapshot is fully covered).
pub fn unlisted_names(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut missing = Vec::new();
    let mut check = |name: &str| {
        if !manifest_contains(name) {
            missing.push(name.to_string());
        }
    };
    for (name, _) in &snapshot.counters {
        check(name);
    }
    for (name, _) in &snapshot.gauges {
        check(name);
    }
    for (name, _) in &snapshot.histograms {
        check(name);
    }
    missing
}

/// Render the manifest as the markdown table embedded in DESIGN.md.
/// A workspace test pins the committed table to this output, so the
/// docs regenerate (rather than rot) when the manifest changes.
pub fn design_table() -> String {
    let mut out = String::from("| metric | kind | meaning |\n|---|---|---|\n");
    for d in METRIC_MANIFEST {
        out.push_str(&format!("| `{}` | {} | {} |\n", d.name, d.kind, d.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_sorted_and_unique() {
        for pair in METRIC_MANIFEST.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "manifest must be sorted/unique: {} then {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn lookup_and_coverage() {
        assert!(manifest_contains("storage.page.read"));
        assert!(manifest_contains("serve.slo.queue_wait_ns"));
        assert!(!manifest_contains("storage.page.reed"));

        let registry = crate::Registry::new();
        registry.counter("storage.page.read").inc();
        registry.counter("storage.page.reed").inc(); // the typo the manifest exists to catch
        let missing = unlisted_names(&registry.snapshot());
        assert_eq!(missing, vec!["storage.page.reed".to_string()]);
    }

    #[test]
    fn kinds_are_valid_and_table_renders() {
        for d in METRIC_MANIFEST {
            assert!(
                matches!(d.kind, "counter" | "gauge" | "histogram"),
                "bad kind for {}",
                d.name
            );
            assert!(!d.help.is_empty());
        }
        let table = design_table();
        assert!(table.contains("| `storage.page.hmac_verify` | counter |"));
        assert!(table.contains("| `serve.slo.service_ns` | histogram |"));
    }
}
