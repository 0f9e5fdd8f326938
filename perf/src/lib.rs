//! The repository's benchmark: four workloads over the IronSafe stack,
//! timed by per-position floors, printing the metrics `BENCHMARK.json`
//! names. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod noise;
pub mod policy_point;
pub mod report;
pub mod scan_cold;
pub mod serve_warm;
pub mod stats;
pub mod workload;
pub mod write_mix;
