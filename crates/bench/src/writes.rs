//! The mixed read/write `paperbench saturation` harness, exported as
//! the `BENCH_9.json` snapshot.
//!
//! The `"invariants"` block holds only engine-pinned quantities:
//! one cell per writer burst with the snapshot read's result digest and
//! simulated cost — asserted bit-identical to the quiesced run at the
//! pinned epoch while the writer commits — plus the fresh reader's
//! digest tracking the committed state, and a group-commit amortization
//! block (same transaction stream at group size 1 vs 4: WAL appends and
//! RPMB binds divide by the group size; that is the write-amplification
//! dividend). It is byte-deterministic, so `--check` regenerates it and
//! compares byte for byte against the committed file (the write-path
//! regression gate). Wall-clock read latency under a writer stream is
//! `perf/`'s job (`write_mix`).

use crate::digest;
use crate::figures::SEED;
use ironsafe_csa::{CostParams, CsaSystem, SharedCsaSystem, SystemConfig};
use ironsafe_obs::Registry;
use ironsafe_sql::parser::parse_statement;
use ironsafe_tpch::generate;

/// Default scale factor for the deterministic invariants sweep.
pub const WRITES_SF: f64 = 0.002;

/// Writer-burst sizes (committed transactions between snapshot reads).
pub const WRITE_BURSTS: [usize; 4] = [1, 2, 4, 8];

/// One writer-burst cell of the deterministic sweep.
#[derive(Debug, Clone)]
pub struct MixedCell {
    /// Transactions the writer committed while the read view was pinned.
    pub writer_txns: usize,
    /// Committed epoch after the burst.
    pub epoch: u64,
    /// Digest of the pinned snapshot read — asserted identical to the
    /// quiesced read at the pin epoch.
    pub read_digest: String,
    /// Simulated cost of the snapshot read — asserted identical to the
    /// quiesced run (retained pre-images charge their first-read cost).
    pub read_total_ns: f64,
    /// Digest of a fresh read after the burst (tracks committed state).
    pub fresh_digest: String,
}

/// Group-commit amortization: the same transaction stream journaled at
/// group size 1 vs 4.
#[derive(Debug, Clone)]
pub struct Amortization {
    /// Transactions in the stream.
    pub txns: u64,
    /// WAL commit records at group size 1 (= txns).
    pub appends_g1: u64,
    /// WAL commit records at group size 4.
    pub appends_g4: u64,
    /// WAL bytes at group size 1.
    pub bytes_g1: u64,
    /// WAL bytes at group size 4.
    pub bytes_g4: u64,
    /// RPMB binds at group size 1.
    pub rpmb_g1: u64,
    /// RPMB binds at group size 4.
    pub rpmb_g4: u64,
}

fn shared_system(sf: f64) -> SharedCsaSystem {
    let data = generate(sf, SEED);
    SharedCsaSystem::new(
        CsaSystem::build(SystemConfig::StorageOnlySecure, &data, CostParams::default())
            .expect("system builds"),
    )
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
pub fn mixed_sweep(sf: f64, bursts: &[usize]) -> (Vec<MixedCell>, Amortization) {
    let shared = shared_system(sf);
    shared.set_group_size(1);
    shared.attach_wal(0xB9).expect("secure base journals");
    let sel = read_stmt();

    let mut cells = Vec::new();
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
        assert_eq!(
            snap.breakdown, pre.breakdown,
            "burst {burst}: snapshot costs drifted from the quiesced run"
        );
        let (fresh, _) = shared.run_statement(&sel, KEY).expect("fresh read");
        cells.push(MixedCell {
            writer_txns: burst,
            epoch: shared.committed_epoch(),
            read_digest: digest(&snap.result),
            read_total_ns: snap.breakdown.total_ns(),
            fresh_digest: digest(&fresh.result),
        });
    }

    (cells, amortization(sf, k as u64))
}

/// Journal `txns` identical update transactions at group size 1 and 4;
/// the commit-record and RPMB-bind counts divide by the group size.
fn amortization(sf: f64, txns: u64) -> Amortization {
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
    assert!(
        appends_g4 < appends_g1 && rpmb_g4 < rpmb_g1,
        "group commit must amortize WAL appends and RPMB binds"
    );
    Amortization { txns, appends_g1, appends_g4, bytes_g1, bytes_g4, rpmb_g1, rpmb_g4 }
}

/// The byte-deterministic `"invariants"` JSON block — what the `--check`
/// gate compares and `BENCH_9.json` wraps.
pub fn writes_invariants_json(sf: f64, cells: &[MixedCell], amort: &Amortization) -> String {
    let mut s = String::from("  \"invariants\": {\n");
    s.push_str(&format!("    \"sf\": {sf},\n    \"seed\": {SEED},\n    \"cells\": [\n"));
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"writer_txns\":{},\"epoch\":{},\"read_digest\":\"{}\",\
             \"read_total_ns\":{},\"fresh_digest\":\"{}\"}}{}\n",
            c.writer_txns,
            c.epoch,
            c.read_digest,
            c.read_total_ns,
            c.fresh_digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"amortization\": {{\"txns\":{},\"appends_g1\":{},\"appends_g4\":{},\
         \"bytes_g1\":{},\"bytes_g4\":{},\"rpmb_g1\":{},\"rpmb_g4\":{}}}\n",
        amort.txns,
        amort.appends_g1,
        amort.appends_g4,
        amort.bytes_g1,
        amort.bytes_g4,
        amort.rpmb_g1,
        amort.rpmb_g4
    ));
    s.push_str("  }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_obs::export::looks_like_valid_json;

    #[test]
    fn invariants_block_is_deterministic_and_gate_compatible() {
        let (cells_a, amort_a) = mixed_sweep(WRITES_SF, &[1, 2]);
        let (cells_b, amort_b) = mixed_sweep(WRITES_SF, &[1, 2]);
        let a = writes_invariants_json(WRITES_SF, &cells_a, &amort_a);
        let b = writes_invariants_json(WRITES_SF, &cells_b, &amort_b);
        assert_eq!(a, b, "invariants block must be byte-deterministic");

        // Group commit divides the per-transaction WAL/RPMB cost.
        assert_eq!(amort_a.appends_g1, amort_a.txns);
        assert!(amort_a.appends_g4 <= amort_a.txns / 4 + 1);
        assert!(amort_a.rpmb_g4 < amort_a.rpmb_g1);
        assert!(amort_a.bytes_g4 < amort_a.bytes_g1, "fewer records, less frame overhead");

        let full = crate::snapshot_json(&a);
        assert!(looks_like_valid_json(&full), "{full}");
    }
}
