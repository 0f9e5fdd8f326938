//! # ironsafe-bench
//!
//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§6). Every harness returns its results as a
//! [`Table`]; the `paperbench` binary prints them in paper-shaped tables,
//! writes and gates the `BENCH_*.json` [`Snapshot`]s, and
//! `benches/paper_figures.rs` wires them into Criterion.
//!
//! Scale note: the paper's testbed runs TPC-H at scale factors 3–5 on
//! real hardware; this reproduction runs at SF/1000 (0.003–0.005) and
//! scales size-dependent resources (EPC, storage memory) by the same
//! factor, so ratios, crossovers and breakdown shapes are preserved while
//! a laptop finishes in minutes. Absolute times are *simulated
//! nanoseconds* from the calibrated cost model, except where a harness
//! explicitly measures wall-clock time (Figure 12, Tables 3 and 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chaos;
pub mod figures;
pub mod profiles;
pub mod shards;
pub mod table;
pub mod telemetry;
pub mod vectors;
pub mod writes;

pub use adaptive::{adaptive_grid, adaptive_sweep, q1_wide_with_selectivity, ADAPTIVE_SF};
pub use figures::*;
pub use profiles::{profile_matrix, profiles_snapshot, PROFILE_SF};
pub use shards::{shards_sweep, SHARDS_SF, SHARD_COUNTS};
pub use table::{Cell, Col, Snapshot, Table};
pub use vectors::{vectors_sweep, VECTORS_SF};
pub use writes::{mixed_sweep, WRITES_SF, WRITE_BURSTS};

/// The result digest the `BENCH_*.json` snapshots pin: SHA-256 over the
/// rendered result, first 8 bytes in hex.
pub fn digest(result: &ironsafe_sql::QueryResult) -> String {
    let hash = ironsafe_crypto::sha256::sha256(format!("{result:?}").as_bytes());
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}
