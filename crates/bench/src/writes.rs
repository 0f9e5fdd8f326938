//! The mixed read/write `paperbench saturation` harness, exported as
//! the `BENCH_9.json` snapshot.
//!
//! One cell per writer burst holds the snapshot read's result digest and
//! simulated cost — asserted bit-identical to the quiesced run at the
//! pinned epoch while the writer commits — plus the fresh reader's digest
//! tracking the committed state. The `"amortization"` object journals
//! the same transaction stream at group size 1 vs 4: WAL appends and
//! RPMB binds divide by the group size; that is the write-amplification
//! dividend. Wall-clock read latency under a writer stream is `perf/`'s
//! job (`write_mix`).

use crate::digest;
use crate::figures::{system, SEED};
use crate::table::{row, Col, Snapshot, Table};
use ironsafe_csa::{CostParams, SharedCsaSystem, SystemConfig};
use ironsafe_obs::Registry;
use ironsafe_sql::parser::parse_statement;
use ironsafe_tpch::generate;

/// Default scale factor for the deterministic invariants sweep.
pub const WRITES_SF: f64 = 0.002;

/// Writer-burst sizes (committed transactions between snapshot reads).
pub const WRITE_BURSTS: [usize; 4] = [1, 2, 4, 8];

fn shared_system(sf: f64) -> SharedCsaSystem {
    SharedCsaSystem::new(system(SystemConfig::StorageOnlySecure, &generate(sf, SEED), CostParams::default()))
}

const KEY: [u8; 32] = [0x9au8; 32];

/// The read whose answer changes with every committed update — a
/// snapshot that leaked a writer's progress would change digest.
fn read_stmt() -> ironsafe_sql::ast::Statement {
    parse_statement("SELECT n_regionkey FROM nation ORDER BY n_nationkey").expect("valid select")
}

/// The k-th writer transaction: a non-allocating in-place update.
fn update_stmt(k: usize) -> ironsafe_sql::ast::Statement {
    parse_statement(&format!(
        "UPDATE nation SET n_regionkey = {} WHERE n_nationkey = {}",
        (k * 7 + 3) % 5,
        k % 25
    ))
    .expect("valid update")
}

/// The deterministic sweep: for each burst size, pin a snapshot view,
/// commit the burst through the group-commit WAL, and assert the pinned
/// read reproduces the quiesced pre-burst run bit for bit — rows *and*
/// simulated `CostBreakdown` — while a fresh read tracks the committed
/// state. Then journal the same transaction stream at group size 1 and
/// 4 and record the WAL/RPMB amortization.
pub fn mixed_sweep(sf: f64, bursts: &[usize]) -> Snapshot {
    let shared = shared_system(sf);
    shared.set_group_size(1);
    shared.attach_wal(0xB9).expect("secure base journals");
    let sel = read_stmt();

    let mut cells = Table::new(vec![
        Col::new("burst", "writer_txns", 6),
        Col::new("epoch", "epoch", 6),
        Col::new("snapshot digest", "read_digest", 18),
        Col::new("read (sim)", "read_total_ns", 14).fixed(0, "ns"),
        Col::new("fresh digest", "fresh_digest", 18),
    ]);
    let mut k = 0usize;
    for &burst in bursts {
        // Quiesced baseline at the epoch about to be pinned.
        let (pre, _) = shared.run_statement(&sel, KEY).expect("quiesced read");
        let mut pinned = shared.pin_read_view().expect("pin");
        pinned.set_session_key(KEY);

        for _ in 0..burst {
            shared.run_statement(&update_stmt(k), KEY).expect("writer commit");
            k += 1;
        }

        let snap = pinned.run_statement(&sel).expect("pinned read");
        assert_eq!(
            digest(&snap.result),
            digest(&pre.result),
            "burst {burst}: snapshot rows drifted from the quiesced run"
        );
        assert_eq!(snap.breakdown, pre.breakdown, "burst {burst}: snapshot costs drifted from the quiesced run");
        let (fresh, _) = shared.run_statement(&sel, KEY).expect("fresh read");
        cells.push(row![
            burst,
            shared.committed_epoch(),
            digest(&snap.result),
            snap.breakdown.total_ns(),
            digest(&fresh.result)
        ]);
    }

    Snapshot::invariants(sf).rows("cells", cells).object("amortization", amortization(sf, k as u64))
}

/// Journal `txns` identical update transactions at group size 1 and 4;
/// the commit-record and RPMB-bind counts divide by the group size.
fn amortization(sf: f64, txns: u64) -> Table {
    let run = |group_size: usize| -> (u64, u64, u64) {
        let shared = shared_system(sf);
        shared.set_group_size(group_size);
        shared.attach_wal(0xA9).expect("secure base journals");
        let registry = Registry::new();
        shared.register_wal_metrics(&registry);
        let rpmb_before = shared.with_system(|s| s.storage_db().pager_stats().rpmb_ops);
        let before = registry.snapshot();
        for k in 0..txns as usize {
            shared.run_statement(&update_stmt(k), KEY).expect("writer commit");
        }
        shared.flush().expect("drain the tail group");
        let after = registry.snapshot();
        let rpmb_after = shared.with_system(|s| s.storage_db().pager_stats().rpmb_ops);
        let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
        (delta("wal.append"), delta("wal.append.bytes"), rpmb_after - rpmb_before)
    };
    let (appends_g1, bytes_g1, rpmb_g1) = run(1);
    let (appends_g4, bytes_g4, rpmb_g4) = run(4);
    assert_eq!(appends_g1, txns, "group size 1 commits every transaction alone");
    assert!(
        appends_g4 < appends_g1 && appends_g4 <= txns / 4 + 1 && rpmb_g4 < rpmb_g1,
        "group commit must amortize WAL appends and RPMB binds"
    );
    assert!(bytes_g4 < bytes_g1, "fewer records, less frame overhead");
    let mut t = Table::new(
        ["txns", "appends_g1", "appends_g4", "bytes_g1", "bytes_g4", "rpmb_g1", "rpmb_g4"].map(Col::field).to_vec(),
    );
    t.push(row![txns, appends_g1, appends_g4, bytes_g1, bytes_g4, rpmb_g1, rpmb_g4]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::assert_deterministic_and_gated;

    #[test]
    fn invariants_block_is_deterministic_and_gate_compatible() {
        // `mixed_sweep` itself asserts that group commit amortizes WAL
        // appends and RPMB binds.
        assert_deterministic_and_gated(|| mixed_sweep(WRITES_SF, &[1, 2]));
    }
}
