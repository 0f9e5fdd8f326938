//! The benchmark's definition: `BENCHMARK.json` at the repository root is
//! the single list of workloads, metrics, units and bounds. It is compiled
//! in and parsed once; the run output, `perf sweep` and `perf compare` all
//! read it from here.

use crate::json::{self, Json};
use std::sync::OnceLock;

/// One end-to-end metric: printed by every untraced run of every workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Name in the result line.
    pub name: String,
    /// Unit in the result line.
    pub unit: String,
    /// Larger is better (else smaller is).
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric: printed by every traced run of every workload
/// (0 where the layer is not on the workload's path).
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Name in the result line; the prefix is the layer (crate).
    pub name: String,
    /// Unit in the result line.
    pub unit: String,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Definition {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in output order.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics, in output order.
    pub per_layer: Vec<PerLayer>,
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
}

/// The parsed `BENCHMARK.json`.
pub fn definition() -> &'static Definition {
    static DEFINITION: OnceLock<Definition> = OnceLock::new();
    DEFINITION.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        Definition {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: `run_seconds` missing") as u64,
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name").to_string())
                .collect(),
            end_to_end: list(&doc, "end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: text(m, "name").to_string(),
                    unit: text(m, "unit").to_string(),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .expect("BENCHMARK.json: `bound` missing"),
                })
                .collect(),
            per_layer: list(&doc, "per_layer")
                .iter()
                .map(|m| PerLayer {
                    name: text(m, "name").to_string(),
                    unit: text(m, "unit").to_string(),
                })
                .collect(),
        }
    })
}
