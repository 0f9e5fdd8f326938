//! The one result type every harness returns, and the one snapshot
//! writer.
//!
//! A [`Col`] carries how its cells print (label, width, precision,
//! suffix) and how they are snapshotted (JSON key and precision), so a
//! harness fills a [`Table`] once and `paperbench` renders the same rows
//! to stdout and, inside a [`Snapshot`], to the `BENCH_*.json` file its
//! `--check` gate regenerates whole and byte-compares.

use crate::figures::SEED;
use crate::profiles::diff_snapshots;
use std::fmt;

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count or an id.
    Int(u64),
    /// A measurement.
    Num(f64),
    /// A name or a digest; quoted in JSON.
    Text(String),
    /// A yes/no fact.
    Bool(bool),
}

macro_rules! int_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::Int(v as u64)
            }
        }
    )*};
}
int_cells!(u8, u32, u64, usize);

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Cell {
        Cell::Bool(v)
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Text(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Text(v.to_string())
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => fmt::Display::fmt(v, f),
            Cell::Num(v) => fmt::Display::fmt(v, f),
            Cell::Text(v) => fmt::Display::fmt(v, f),
            Cell::Bool(v) => fmt::Display::fmt(v, f),
        }
    }
}

/// One table row: `row![a, b, c]` converts each value into a [`Cell`].
macro_rules! row {
    ($($v:expr),* $(,)?) => { vec![$($crate::table::Cell::from($v)),*] };
}
pub(crate) use row;

/// One column: how its cells print and how they are snapshotted.
#[derive(Debug, Clone, PartialEq)]
pub struct Col {
    label: String,
    key: String,
    width: usize,
    left: bool,
    prec: Option<usize>,
    scale: f64,
    prefix: &'static str,
    suffix: &'static str,
    json_prec: Option<usize>,
}

impl Col {
    /// A right-aligned column headed `label` in `width` characters, read
    /// and snapshotted under `key`; numbers print with `Display`.
    pub fn new(label: impl Into<String>, key: impl Into<String>, width: usize) -> Col {
        Col {
            label: label.into(),
            key: key.into(),
            width,
            left: false,
            prec: None,
            scale: 1.0,
            prefix: "",
            suffix: "",
            json_prec: None,
        }
    }

    /// The query-id column: `#6` under `query`, snapshotted as `6`.
    pub fn query(key: &str) -> Col {
        Col { prefix: "#", ..Col::new("query", key, 5) }
    }

    /// A field that is only snapshotted or quoted in prose, never printed
    /// as a column.
    pub fn field(key: &str) -> Col {
        Col::new("", key, 0)
    }

    /// Left-align label and cells.
    pub fn left(self) -> Col {
        Col { left: true, ..self }
    }

    /// Print numbers with `prec` decimals, followed by `suffix`.
    pub fn fixed(self, prec: usize, suffix: &'static str) -> Col {
        Col { prec: Some(prec), suffix, ..self }
    }

    /// Print a fraction as a percentage with `prec` decimals; the snapshot
    /// keeps the fraction.
    pub fn pct(self, prec: usize) -> Col {
        Col { scale: 100.0, ..self.fixed(prec, "%") }
    }

    /// Snapshot numbers with `prec` decimals instead of `Display`.
    pub fn json_prec(self, prec: usize) -> Col {
        Col { json_prec: Some(prec), ..self }
    }

    fn pad(&self, text: &str) -> String {
        let width = self.width;
        if self.left {
            format!("{text:<width$}")
        } else {
            format!("{text:>width$}")
        }
    }

    fn show(&self, cell: &Cell) -> String {
        let body = match (cell, self.prec) {
            (Cell::Num(x), Some(p)) => format!("{:.p$}", x * self.scale),
            (Cell::Num(x), None) => (x * self.scale).to_string(),
            (other, _) => other.to_string(),
        };
        self.pad(&format!("{}{body}{}", self.prefix, self.suffix))
    }

    fn json(&self, cell: &Cell) -> String {
        match (cell, self.json_prec) {
            (Cell::Num(x), Some(p)) => format!("{x:.p$}"),
            (Cell::Text(t), _) => format!("\"{t}\""),
            (other, _) => other.to_string(),
        }
    }
}

/// Rows of [`Cell`]s under [`Col`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with these columns.
    pub fn new(cols: Vec<Col>) -> Table {
        Table { cols, rows: Vec::new() }
    }

    /// Append a row, one cell per column.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.cols.len(), "one cell per column");
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn col(&self, key: &str) -> usize {
        self.cols.iter().position(|c| c.key == key).unwrap_or_else(|| panic!("no column `{key}`"))
    }

    /// The cell of `row` under `key`.
    pub fn get(&self, row: usize, key: &str) -> &Cell {
        &self.rows[row][self.col(key)]
    }

    /// A numeric cell as `f64`.
    pub fn num(&self, row: usize, key: &str) -> f64 {
        match self.get(row, key) {
            Cell::Int(v) => *v as f64,
            Cell::Num(v) => *v,
            other => panic!("`{key}` holds {other:?}, not a number"),
        }
    }

    /// A count cell.
    pub fn int(&self, row: usize, key: &str) -> u64 {
        match self.get(row, key) {
            Cell::Int(v) => *v,
            other => panic!("`{key}` holds {other:?}, not a count"),
        }
    }

    /// A text cell.
    pub fn text(&self, row: usize, key: &str) -> &str {
        match self.get(row, key) {
            Cell::Text(v) => v,
            other => panic!("`{key}` holds {other:?}, not text"),
        }
    }

    /// Add `n` to the count of `row` under `key`.
    pub fn add(&mut self, row: usize, key: &str, n: u64) {
        let col = self.col(key);
        match &mut self.rows[row][col] {
            Cell::Int(v) => *v += n,
            other => panic!("`{key}` holds {other:?}, not a count"),
        }
    }

    /// The first row whose `key` cell equals `value`.
    pub fn find(&self, key: &str, value: impl Into<Cell>) -> usize {
        let value = value.into();
        (0..self.len())
            .find(|&r| *self.get(r, key) == value)
            .unwrap_or_else(|| panic!("no row with `{key}` = {value}"))
    }

    /// The header line.
    pub fn header(&self) -> String {
        self.cols.iter().map(|c| c.pad(&c.label)).collect::<Vec<_>>().join(" ")
    }

    /// Row `row` as a printed line.
    pub fn line(&self, row: usize) -> String {
        self.cols.iter().zip(&self.rows[row]).map(|(c, v)| c.show(v)).collect::<Vec<_>>().join(" ")
    }

    /// The header and every row, one line each.
    pub fn render(&self) -> String {
        let mut s = self.header() + "\n";
        for r in 0..self.len() {
            s += &self.line(r);
            s.push('\n');
        }
        s
    }

    /// Row `row` as one JSON object: `"key":value` when `compact`, else
    /// `"key": value`.
    fn json_object(&self, row: usize, compact: bool) -> String {
        let (colon, comma) = if compact { (":", ",") } else { (": ", ", ") };
        let fields: Vec<String> = self
            .cols
            .iter()
            .zip(&self.rows[row])
            .map(|(c, v)| format!("\"{}\"{colon}{}", c.key, c.json(v)))
            .collect();
        format!("{{{}}}", fields.join(comma))
    }
}

#[derive(Debug, Clone)]
enum Part {
    Rows(Table),
    Object(Table),
    Raw(Vec<String>),
}

/// One `BENCH_*.json` file: `sf`, `seed` and named parts, rendered by one
/// writer so the gate can regenerate the whole file and byte-compare it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    invariants: bool,
    sf: f64,
    parts: Vec<(&'static str, Part)>,
}

impl Snapshot {
    /// The `BENCH_5`/`BENCH_6` layout: `sf`, `seed` and every part at the
    /// top level, fields as `"key": value`.
    pub fn top_level(sf: f64) -> Snapshot {
        Snapshot { invariants: false, sf, parts: Vec::new() }
    }

    /// The `BENCH_7…10` layout: everything under `"invariants"`, fields as
    /// `"key":value`.
    pub fn invariants(sf: f64) -> Snapshot {
        Snapshot { invariants: true, ..Snapshot::top_level(sf) }
    }

    /// Add `table` as the array `name`, one object per row.
    pub fn rows(mut self, name: &'static str, table: Table) -> Snapshot {
        self.parts.push((name, Part::Rows(table)));
        self
    }

    /// Add the one-row `table` as the object `name`.
    pub fn object(mut self, name: &'static str, table: Table) -> Snapshot {
        assert_eq!(table.len(), 1, "`{name}` is one object");
        self.parts.push((name, Part::Object(table)));
        self
    }

    /// Add already-rendered JSON values as the array `name`.
    pub fn raw(mut self, name: &'static str, items: Vec<String>) -> Snapshot {
        self.parts.push((name, Part::Raw(items)));
        self
    }

    /// The table added under `name`.
    pub fn table(&self, name: &str) -> &Table {
        self.parts
            .iter()
            .find_map(|(n, p)| match p {
                Part::Rows(t) | Part::Object(t) if *n == name => Some(t),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no table `{name}`"))
    }

    /// The file's bytes.
    pub fn json(&self) -> String {
        let ind = if self.invariants { "    " } else { "  " };
        let mut s = String::from("{\n");
        if self.invariants {
            s.push_str("  \"invariants\": {\n");
        }
        s.push_str(&format!("{ind}\"sf\": {},\n{ind}\"seed\": {SEED}", self.sf));
        for (name, part) in &self.parts {
            s.push_str(&format!(",\n{ind}\"{name}\": "));
            let items: Vec<String> = match part {
                Part::Object(t) => {
                    s.push_str(&t.json_object(0, self.invariants));
                    continue;
                }
                Part::Rows(t) => (0..t.len()).map(|r| t.json_object(r, self.invariants)).collect(),
                Part::Raw(items) => items.clone(),
            };
            s.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                let comma = if i + 1 == items.len() { "" } else { "," };
                s.push_str(&format!("{ind}  {item}{comma}\n"));
            }
            s.push_str(&format!("{ind}]"));
        }
        s.push_str(if self.invariants { "\n  }\n}\n" } else { "\n}\n" });
        s
    }

    /// The `--check` gate: how the committed `baseline` file differs from
    /// this snapshot regenerated whole (empty when they match byte for
    /// byte).
    pub fn drift(&self, baseline: &str) -> Vec<String> {
        diff_snapshots(baseline, &self.json())
    }
}

/// Make a snapshot twice and check that the bytes are identical, valid
/// JSON, and pass the whole-file gate against themselves. Returns the
/// JSON for harness-specific checks.
#[cfg(test)]
pub(crate) fn assert_deterministic_and_gated(make: impl Fn() -> Snapshot) -> String {
    let (a, b) = (make(), make());
    let json = a.json();
    assert_eq!(json, b.json(), "snapshot must be byte-deterministic");
    assert!(ironsafe_obs::export::looks_like_valid_json(&json), "{json}");
    assert!(b.drift(&json).is_empty(), "a regenerated snapshot must pass the gate");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut t = Table::new(vec![
            Col::query("query_id"),
            Col::new("total", "total_ns", 12).fixed(0, "ns"),
            Col::new("ok", "ok", 6),
            Col::new("saved", "pct", 7).fixed(1, "%").json_prec(2),
            Col::new("digest", "digest", 8),
        ]);
        t.push(row![6u8, 4549530.28, true, 50.526, "1fb61ff4"]);
        let mut amort = Table::new(vec![Col::field("txns")]);
        amort.push(row![15u64]);
        Snapshot::invariants(0.002).rows("cells", t).object("amortization", amort)
    }

    #[test]
    fn one_table_prints_and_snapshots() {
        let s = sample();
        assert_eq!(
            s.table("cells").render(),
            "query        total     ok   saved   digest\n   #6    4549530ns   true   50.5% 1fb61ff4\n"
        );
        assert_eq!(
            s.json(),
            "{\n  \"invariants\": {\n    \"sf\": 0.002,\n    \"seed\": 2022,\n    \"cells\": [\n      \
             {\"query_id\":6,\"total_ns\":4549530.28,\"ok\":true,\"pct\":50.53,\"digest\":\"1fb61ff4\"}\n    \
             ],\n    \"amortization\": {\"txns\":15}\n  }\n}\n"
        );
    }

    #[test]
    fn gate_reports_an_extra_key_or_a_trailing_byte_as_drift() {
        let s = sample();
        let json = s.json();
        assert!(s.drift(&json).is_empty());
        // Both baselines still contain the regenerated invariants block
        // verbatim; only a whole-file comparison sees the difference.
        let extra_key = json.replacen("{\n", "{\n  \"wall_ms\": 1.5,\n", 1);
        let trailing = format!("{json} ");
        for baseline in [extra_key, trailing] {
            assert!(!s.drift(&baseline).is_empty(), "drift not reported:\n{baseline}");
        }
    }
}
