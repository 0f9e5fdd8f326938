//! Column-major batches: the scan kernel's working set.
//!
//! A [`ColumnBatch`] holds one morsel's rows decoded **once** from heap
//! pages into typed column vectors: integers and floats land in flat
//! `Vec`s, text lands in a shared arena with per-cell offsets — no
//! `String` or `Value` allocation per cell. The scan kernel
//! (`crate::exec::scan`) decodes only the columns a statement references
//! (every other column stays empty and must not be read), evaluates
//! predicates and expressions column-at-a-time over these vectors (see
//! `crate::expr::filter_vec` / `crate::expr::eval_vec`) under a
//! selection bitmap, and [`ColumnBatch::clear`]s the batch for the next
//! morsel, keeping its allocations.
//!
//! The batch is a *view*, not a format: pages are decoded through the
//! same record codec as the row decode (`crate::heap::for_each_record`),
//! and [`ColumnBatch::value_at`] reconstructs each cell bit-identically
//! to it — which is what lets the kernel feed the exact serial
//! `GroupAcc` replay.

use crate::schema::Row;
use crate::value::{RawValue, Value};

/// Selection bitmap over a batch's lanes: `sel[i]` is true while row
/// `i` is still live. Predicates clear lanes; downstream operators skip
/// dead lanes without compacting.
pub type Selection = Vec<bool>;

/// A cell viewed in place, without owning text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneVal<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed UTF-8 text.
    Str(&'a str),
}

impl<'a> LaneVal<'a> {
    /// Owned [`Value`] with the same content (bit-exact).
    pub fn to_value(self) -> Value {
        match self {
            LaneVal::Null => Value::Null,
            LaneVal::Int(i) => Value::Int(i),
            LaneVal::Float(f) => Value::Float(f),
            LaneVal::Str(s) => Value::Text(s.to_string()),
        }
    }

    /// View of an owned [`Value`].
    pub fn of(v: &'a Value) -> Self {
        match v {
            Value::Null => LaneVal::Null,
            Value::Int(i) => LaneVal::Int(*i),
            Value::Float(f) => LaneVal::Float(*f),
            Value::Text(s) => LaneVal::Str(s),
        }
    }

    /// True when the lane is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, LaneVal::Null)
    }

    /// The same cell as the record codec's borrowed value.
    pub fn raw(self) -> RawValue<'a> {
        match self {
            LaneVal::Null => RawValue::Null,
            LaneVal::Int(i) => RawValue::Int(i),
            LaneVal::Float(f) => RawValue::Float(f),
            LaneVal::Str(s) => RawValue::Text(s),
        }
    }

    /// [`Value::compare`] semantics without constructing values: `None`
    /// for NULLs and type-incomparable pairs, numeric cross-type
    /// comparison, byte-lexicographic text.
    pub fn compare(self, other: LaneVal<'_>) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (LaneVal::Null, _) | (_, LaneVal::Null) => None,
            (LaneVal::Int(a), LaneVal::Int(b)) => Some(a.cmp(&b)),
            (LaneVal::Float(a), LaneVal::Float(b)) => a.partial_cmp(&b),
            (LaneVal::Int(a), LaneVal::Float(b)) => (a as f64).partial_cmp(&b),
            (LaneVal::Float(a), LaneVal::Int(b)) => a.partial_cmp(&(b as f64)),
            (LaneVal::Str(a), LaneVal::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

/// One column of a batch. Columns adopt the type of their first
/// non-null cell; a heterogenous column (legal in this dynamically
/// typed engine) degrades to the `Mixed` representation, preserving
/// exact values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Only NULLs seen so far; `0` cells typed.
    Pending {
        /// Lane count (all NULL).
        len: usize,
    },
    /// Integer column; `nulls[i]` masks `data[i]`.
    Int {
        /// Cell values (0 where NULL).
        data: Vec<i64>,
        /// NULL mask.
        nulls: Vec<bool>,
    },
    /// Float column; `nulls[i]` masks `data[i]`.
    Float {
        /// Cell values (0.0 where NULL).
        data: Vec<f64>,
        /// NULL mask.
        nulls: Vec<bool>,
    },
    /// Text column: one shared arena, cell `i` spans
    /// `bytes[offsets[i]..offsets[i+1]]`.
    Text {
        /// UTF-8 arena (a `String`, so slicing a cell re-checks two
        /// char boundaries instead of re-validating its bytes).
        bytes: String,
        /// Cell boundaries; `offsets.len() == len + 1`.
        offsets: Vec<u32>,
        /// NULL mask.
        nulls: Vec<bool>,
    },
    /// Fallback for mixed-type columns: owned values per cell.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn new() -> Self {
        ColumnData::Pending { len: 0 }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Pending { len } => *len,
            ColumnData::Int { data, .. } => data.len(),
            ColumnData::Float { data, .. } => data.len(),
            ColumnData::Text { nulls, .. } => nulls.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// View cell `i` in place.
    pub fn lane(&self, i: usize) -> LaneVal<'_> {
        match self {
            ColumnData::Pending { len } => {
                debug_assert!(i < *len, "read of a column the scan did not decode");
                LaneVal::Null
            }
            ColumnData::Int { data, nulls } => {
                if nulls[i] {
                    LaneVal::Null
                } else {
                    LaneVal::Int(data[i])
                }
            }
            ColumnData::Float { data, nulls } => {
                if nulls[i] {
                    LaneVal::Null
                } else {
                    LaneVal::Float(data[i])
                }
            }
            ColumnData::Text { bytes, offsets, nulls } => {
                if nulls[i] {
                    LaneVal::Null
                } else {
                    LaneVal::Str(&bytes[offsets[i] as usize..offsets[i + 1] as usize])
                }
            }
            ColumnData::Mixed(v) => LaneVal::of(&v[i]),
        }
    }

    /// Degrade to the `Mixed` representation, preserving every cell.
    fn degrade(&mut self) {
        let values: Vec<Value> = (0..self.len()).map(|i| self.lane(i).to_value()).collect();
        *self = ColumnData::Mixed(values);
    }

    /// Drop every cell, keeping the typed vectors' allocations.
    fn clear(&mut self) {
        match self {
            ColumnData::Pending { len } => *len = 0,
            ColumnData::Int { data, nulls } => {
                data.clear();
                nulls.clear();
            }
            ColumnData::Float { data, nulls } => {
                data.clear();
                nulls.clear();
            }
            ColumnData::Text { bytes, offsets, nulls } => {
                bytes.clear();
                offsets.truncate(1);
                nulls.clear();
            }
            ColumnData::Mixed(_) => *self = ColumnData::new(),
        }
    }

    fn push(&mut self, raw: RawValue<'_>) {
        match (&mut *self, raw) {
            (ColumnData::Pending { len }, RawValue::Null) => *len += 1,
            (ColumnData::Pending { len }, typed) => {
                let n = *len;
                *self = match typed {
                    RawValue::Int(i) => {
                        let mut data = vec![0i64; n];
                        data.push(i);
                        let mut nulls = vec![true; n];
                        nulls.push(false);
                        ColumnData::Int { data, nulls }
                    }
                    RawValue::Float(f) => {
                        let mut data = vec![0f64; n];
                        data.push(f);
                        let mut nulls = vec![true; n];
                        nulls.push(false);
                        ColumnData::Float { data, nulls }
                    }
                    RawValue::Text(s) => {
                        let mut offsets = vec![0u32; n + 1];
                        let bytes = s.to_string();
                        offsets.push(bytes.len() as u32);
                        let mut nulls = vec![true; n];
                        nulls.push(false);
                        ColumnData::Text { bytes, offsets, nulls }
                    }
                    RawValue::Null => unreachable!("handled above"),
                };
            }
            (ColumnData::Int { data, nulls }, RawValue::Int(i)) => {
                data.push(i);
                nulls.push(false);
            }
            (ColumnData::Int { data, nulls }, RawValue::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnData::Float { data, nulls }, RawValue::Float(f)) => {
                data.push(f);
                nulls.push(false);
            }
            (ColumnData::Float { data, nulls }, RawValue::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (ColumnData::Text { bytes, offsets, nulls }, RawValue::Text(s)) => {
                bytes.push_str(s);
                offsets.push(bytes.len() as u32);
                nulls.push(false);
            }
            (ColumnData::Text { bytes, offsets, nulls }, RawValue::Null) => {
                offsets.push(bytes.len() as u32);
                nulls.push(true);
            }
            (ColumnData::Mixed(values), raw) => values.push(raw.to_value()),
            // Type switch: an emptied column (reused across morsels)
            // re-types; mid-column it degrades and retries as Mixed.
            (col, raw) => {
                if col.len() == 0 {
                    *col = ColumnData::new();
                } else {
                    col.degrade();
                }
                self.push(raw);
            }
        }
    }
}

/// A morsel's rows, column-major. Built by
/// [`crate::heap::scan_page_columns`]; pages append in order, so lane
/// order *is* serial row order. Columns outside the scan's column set
/// are never pushed to: they stay empty, and reading one is a bug
/// (caught by a debug assertion).
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    columns: Vec<ColumnData>,
    len: usize,
}

impl ColumnBatch {
    /// An empty batch of `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        ColumnBatch { columns: (0..ncols).map(|_| ColumnData::new()).collect(), len: 0 }
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Row (lane) count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Column `col` (panics when out of range, like slice indexing).
    pub fn column(&self, col: usize) -> &ColumnData {
        &self.columns[col]
    }

    /// Append one cell of the row being built (cells arrive in column
    /// order; see [`crate::heap::scan_page_columns`]).
    pub fn push_cell(&mut self, col: usize, raw: RawValue<'_>) {
        self.columns[col].push(raw);
    }

    /// Seal the row currently being built.
    pub fn finish_row(&mut self) -> crate::Result<()> {
        self.len += 1;
        debug_assert!(self.columns.iter().all(|c| c.len() == self.len || c.len() == 0));
        Ok(())
    }

    /// Drop every row, keeping the column vectors' allocations for the
    /// next morsel.
    pub fn clear(&mut self) {
        self.columns.iter_mut().for_each(ColumnData::clear);
        self.len = 0;
    }

    /// View cell (`col`, `lane`) in place.
    pub fn lane(&self, col: usize, lane: usize) -> LaneVal<'_> {
        self.columns[col].lane(lane)
    }

    /// Owned cell value, bit-identical to what the row decode produces.
    pub fn value_at(&self, col: usize, lane: usize) -> Value {
        self.lane(col, lane).to_value()
    }

    /// Materialize lane `lane` into `row` (cleared first) — the bridge
    /// back to row-at-a-time fallback evaluation. Columns the scan did
    /// not decode read as NULL; nothing bound against the scan's column
    /// set looks at them.
    pub fn read_row(&self, lane: usize, row: &mut Row) {
        row.clear();
        row.extend(self.columns.iter().map(|c| match c {
            ColumnData::Pending { .. } => Value::Null,
            c => c.lane(lane).to_value(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_row(batch: &mut ColumnBatch, row: &[Value]) {
        for (c, v) in row.iter().enumerate() {
            batch.push_cell(c, LaneVal::of(v).raw());
        }
        batch.finish_row().unwrap();
    }

    #[test]
    fn typed_columns_roundtrip_values() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(0.5), Value::Text("ab".into()), Value::Null],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![Value::Int(-7), Value::Float(f64::NAN), Value::Text(String::new()), Value::Int(3)],
        ];
        let mut batch = ColumnBatch::new(4);
        for r in &rows {
            push_row(&mut batch, r);
        }
        assert_eq!(batch.len(), 3);
        for (i, r) in rows.iter().enumerate() {
            let mut got = Row::new();
            batch.read_row(i, &mut got);
            // Value's PartialEq is group-eq (NULL == NULL there, NaN != NaN),
            // so compare the encodings bit for bit instead.
            let mut a = Vec::new();
            let mut b = Vec::new();
            got.iter().for_each(|v| crate::value::encode_value(v, &mut a));
            r.iter().for_each(|v| crate::value::encode_value(v, &mut b));
            assert_eq!(a, b, "row {i}");
        }
        // Leading NULLs then an Int typed the last column as Int.
        assert!(matches!(batch.column(3), ColumnData::Int { .. }));
        assert!(matches!(batch.column(2), ColumnData::Text { .. }));
    }

    #[test]
    fn mixed_type_column_degrades_losslessly() {
        let mut batch = ColumnBatch::new(1);
        push_row(&mut batch, &[Value::Int(5)]);
        push_row(&mut batch, &[Value::Text("five".into())]);
        push_row(&mut batch, &[Value::Null]);
        assert!(matches!(batch.column(0), ColumnData::Mixed(_)));
        assert_eq!(batch.value_at(0, 0), Value::Int(5));
        assert_eq!(batch.value_at(0, 1), Value::Text("five".into()));
        assert!(batch.value_at(0, 2).is_null());
    }

    #[test]
    fn lane_compare_matches_value_compare() {
        let vals = [
            Value::Null,
            Value::Int(2),
            Value::Int(-2),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Text("a".into()),
            Value::Text("b".into()),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    LaneVal::of(a).compare(LaneVal::of(b)),
                    a.compare(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}
