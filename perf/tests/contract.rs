//! `BENCHMARK.json` at the repository root must stay inside the limits the
//! benchmark driver checks before it makes a single run, and name only
//! workloads that exist.

use perf::json::{self, Json};
use perf::metrics::definition;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).expect("a list")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_stays_inside_the_driver_limits() {
    let doc = benchmark();
    let def = definition();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!((1..=60).contains(&def.run_seconds));
    assert!((2..=8).contains(&def.workloads.len()));
    assert!((1..=16).contains(&def.end_to_end.len()));
    assert!((1..=128).contains(&def.per_layer.len()));
    // 4 + 22 runs per workload must fit the driver's 3420 s with room for
    // set-up, exit checks and two builds.
    assert!((4 + 22 * def.workloads.len() as u64) * (def.run_seconds + 10) + 2 * 120 <= 3420);

    for w in list(&doc, "workloads") {
        assert_eq!(keys(w), ["name", "why"]);
        let (name, why) = (str_of(w, "name"), str_of(w, "why"));
        assert!(
            perf::workload::by_name(name).is_some(),
            "no workload {name}"
        );
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of at most 200"
        );
    }
    for m in list(&doc, "end_to_end") {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
    }
    for m in list(&doc, "per_layer") {
        assert_eq!(keys(m), ["better", "name", "unit"]);
    }
    for m in list(&doc, "end_to_end")
        .iter()
        .chain(list(&doc, "per_layer"))
    {
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
        assert!(valid_unit(str_of(m, "unit")), "{}", str_of(m, "unit"));
    }

    let mut names: Vec<&str> = def.workloads.iter().map(String::as_str).collect();
    names.extend(def.end_to_end.iter().map(|m| m.name.as_str()));
    names.extend(def.per_layer.iter().map(|m| m.name.as_str()));
    for name in &names {
        assert!(valid_name(name), "bad name {name}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");

    assert!(def.end_to_end.iter().all(|m| m.bound > 0.0));
    let setup = def
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    assert!(
        setup.bound <= 0.25 && def.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound, at most a quarter"
    );

    let command = list(&doc, "command");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert_eq!(list(&doc, "paths"), [Json::Str("perf".into())]);
}
