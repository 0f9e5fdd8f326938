//! Workspace metric-name coverage: every counter, gauge and histogram
//! any subsystem exports must be declared in `ironsafe_obs::manifest`,
//! and every declared name must actually be exported by some subsystem.
//! A typo'd registration or an orphaned manifest row fails here, and
//! the DESIGN.md metric table is pinned to the generated one so the
//! docs regenerate instead of rotting.

use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_csa::{CostParams, CsaSystem, SecureChannel, SystemConfig};
use ironsafe_faults::FaultPlan;
use ironsafe_monitor::{MonitorConfig, TrustedMonitor};
use ironsafe_obs::manifest::{design_table, manifest_contains, unlisted_names, METRIC_MANIFEST};
use ironsafe_obs::{Counter, Registry};
use ironsafe_serve::ServeMetrics;
use ironsafe_tee::image::SoftwareImage;
use ironsafe_tee::sgx::{AttestationService, EnclaveConfig, EnclaveSupervisor, SgxPlatform};
use ironsafe_tee::trustzone::Rpmb;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Register every subsystem's metrics into one registry, the way a
/// fully assembled deployment would.
fn register_workspace(registry: &Registry) {
    // Storage + morsel execution: a real secure system registers the
    // pager's `storage.*` cells and the executor's `exec.morsel.*`.
    let data = ironsafe_tpch::generate(0.002, 42);
    let sys = CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default())
        .expect("system builds");
    sys.storage_db().register_metrics(registry);
    sys.register_exec_metrics(registry);

    // MVCC snapshot registry + encrypted group-commit WAL (a shared
    // serving deployment registers these via
    // `SharedCsaSystem::register_wal_metrics`).
    ironsafe_storage::Snapshots::new().metrics().register(registry);
    ironsafe_storage::Wal::new(&[0u8; 16], 0).metrics().register(registry);

    // Serving layer.
    ServeMetrics::new().register(registry);

    // Federation coordinator counters (`scale.*`).
    ironsafe_scale::ScaleMetrics::new().register(registry);

    // Trusted monitor decision counters.
    let group = Group::modp_1024();
    let mut rng = StdRng::seed_from_u64(7);
    let image = SoftwareImage::new("host-engine", 5, b"engine".to_vec());
    let monitor = TrustedMonitor::new(
        &group,
        7,
        AttestationService::new(&group),
        KeyPair::generate(&group, &mut rng).public,
        MonitorConfig {
            expected_host_measurement: image.measure(),
            expected_nw_measurement: image.measure(),
            latest_fw: 5,
        },
    );
    monitor.register_metrics(registry);

    // TEE: supervised enclave (transitions, restarts, EPC) and RPMB.
    let platform = Arc::new(SgxPlatform::from_seed(&group, b"coverage-platform"));
    let supervisor =
        EnclaveSupervisor::new(platform, image, EnclaveConfig::default(), FaultPlan::none());
    supervisor.register_metrics(registry);
    Rpmb::new(8).register_metrics(registry);

    // Host<->storage secure channel.
    SecureChannel::new(&[0u8; 32]).register_metrics(registry);

    // Fault plan sweep counters plus the chaos harness's per-surface
    // recovery counters (exported under `faults.surface.*`).
    FaultPlan::none().register_metrics(registry);
    for surface in ["channel", "device", "enclave", "rpmb"] {
        for event in ["injected", "recovered"] {
            registry.register_counter(&format!("faults.surface.{surface}.{event}"), &Counter::new());
        }
    }
}

#[test]
fn every_exported_metric_is_declared_and_vice_versa() {
    let registry = Registry::new();
    register_workspace(&registry);
    let snapshot = registry.snapshot();

    // Direction 1: nothing escapes the manifest.
    let missing = unlisted_names(&snapshot);
    assert!(missing.is_empty(), "exported metrics not in the manifest: {missing:?}");

    // Direction 2: no orphaned manifest rows — every declared name is
    // exported by some subsystem registered above.
    let exported = |name: &str| {
        snapshot.counters.iter().map(|(n, _)| n.as_str()).any(|n| n == name)
            || snapshot.gauges.iter().map(|(n, _)| n.as_str()).any(|n| n == name)
            || snapshot.histograms.iter().map(|(n, _)| n.as_str()).any(|n| n == name)
    };
    let orphans: Vec<&str> =
        METRIC_MANIFEST.iter().map(|d| d.name).filter(|n| !exported(n)).collect();
    assert!(orphans.is_empty(), "manifest rows no subsystem exports: {orphans:?}");
    assert!(manifest_contains("serve.slo.service_ns"));
}

#[test]
fn design_doc_metric_table_matches_generated_one() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the workspace root");
    let table = design_table();
    assert!(
        design.contains(&table),
        "DESIGN.md metric table is stale — paste the output of \
         `ironsafe_obs::manifest::design_table()` into the Telemetry section"
    );
}
