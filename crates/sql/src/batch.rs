//! Column-major batches: what every operator hands the next.
//!
//! A [`ColumnBatch`] holds rows as typed column vectors: integers and
//! floats land in flat `Vec`s, text lands in a shared arena with per-cell
//! offsets — no `String` or `Value` allocation per cell. The scan kernel
//! (`crate::exec::scan`) decodes a morsel's pages **once** into one,
//! copying only the columns a statement references — the predicate's for
//! every row, the others for the rows that pass it, a NULL standing in
//! for each row that did not (every other column stays empty and must
//! not be read); every operator above it consumes a
//! batch plus a selection bitmap and lends one in turn (see
//! `crate::exec::Operator`), evaluating predicates and expressions
//! column-at-a-time (`crate::expr::filter_vec` / `crate::expr::eval_vec`).
//! An operator that must keep lanes — join build side, sort, the compacted
//! output of a join or a projection — [`gather`](ColumnData::gather)s them
//! into a batch of its own; [`ColumnBatch::clear`] keeps the allocations
//! for the next fill.
//!
//! The batch is a *view*, not a format: pages are decoded through the
//! record codec (`crate::heap::for_each_record`) the test-only row decode
//! shares, and [`ColumnBatch::value_at`] reconstructs each cell
//! bit-identically to it — which is what lets batch operators return the
//! rows, and DML write the records, float bits included, that
//! row-at-a-time evaluation would.

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

    /// [`Value::as_f64`] on the lane (and its error for a non-number).
    pub fn as_f64(self) -> crate::Result<f64> {
        match self {
            LaneVal::Int(i) => Ok(i as f64),
            LaneVal::Float(f) => Ok(f),
            other => other.to_value().as_f64(),
        }
    }

    /// [`Value::as_i64`] on the lane.
    pub fn as_i64(self) -> crate::Result<i64> {
        match self {
            LaneVal::Int(i) => Ok(i),
            LaneVal::Float(f) => Ok(f as i64),
            other => other.to_value().as_i64(),
        }
    }

    /// [`Value::as_str`] on the lane.
    pub fn as_str(self) -> crate::Result<&'a str> {
        match self {
            LaneVal::Str(s) => Ok(s),
            other => Err(other.to_value().as_str().expect_err("not text")),
        }
    }

    /// [`Value::sort_cmp`] semantics: NULLs first, incomparable pairs
    /// equal.
    pub fn sort_cmp(self, other: LaneVal<'_>) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.compare(other).unwrap_or(Ordering::Equal),
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

    /// Append the cells of `src` at `lanes`, in that order. Same-typed
    /// columns copy vector to vector (text arena to arena); anything else
    /// — a NULL-only or mixed source, a type switch — goes cell by cell
    /// through [`ColumnData::push`], which re-types or degrades as a
    /// decode would.
    pub(crate) fn gather(&mut self, src: &ColumnData, lanes: &[u32]) {
        if self.len() == 0 {
            self.retype_like(src);
        }
        let at = |l: &u32| *l as usize;
        match (&mut *self, src) {
            (ColumnData::Int { data, nulls }, ColumnData::Int { data: sd, nulls: sn }) => {
                data.extend(lanes.iter().map(|l| sd[at(l)]));
                nulls.extend(lanes.iter().map(|l| sn[at(l)]));
            }
            (ColumnData::Float { data, nulls }, ColumnData::Float { data: sd, nulls: sn }) => {
                data.extend(lanes.iter().map(|l| sd[at(l)]));
                nulls.extend(lanes.iter().map(|l| sn[at(l)]));
            }
            (
                ColumnData::Text { bytes, offsets, nulls },
                ColumnData::Text { bytes: sb, offsets: so, nulls: sn },
            ) => {
                for l in lanes.iter().map(at) {
                    bytes.push_str(&sb[so[l] as usize..so[l + 1] as usize]);
                    offsets.push(bytes.len() as u32);
                }
                nulls.extend(lanes.iter().map(|l| sn[at(l)]));
                assert!(bytes.len() <= u32::MAX as usize, "text column arena exceeds 4 GiB");
            }
            (dst, src) => lanes.iter().for_each(|l| dst.push(src.lane(at(l)).raw())),
        }
    }

    /// Give an empty column `src`'s representation, keeping the vectors
    /// it already has when the type does not change.
    fn retype_like(&mut self, src: &ColumnData) {
        if std::mem::discriminant(self) == std::mem::discriminant(src) {
            return;
        }
        *self = match src {
            ColumnData::Int { .. } => ColumnData::Int { data: Vec::new(), nulls: Vec::new() },
            ColumnData::Float { .. } => ColumnData::Float { data: Vec::new(), nulls: Vec::new() },
            ColumnData::Text { .. } => {
                ColumnData::Text { bytes: String::new(), offsets: vec![0], nulls: Vec::new() }
            }
            ColumnData::Pending { .. } | ColumnData::Mixed(_) => return,
        };
    }

    /// Append one cell, typing, re-typing or degrading the column as
    /// needed.
    pub(crate) fn push(&mut self, raw: RawValue<'_>) {
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

    /// Column `col`, to fill column-wise ([`ColumnData::gather`],
    /// [`ColumnData::push`]); [`ColumnBatch::set_len`] seals the lanes.
    pub(crate) fn column_mut(&mut self, col: usize) -> &mut ColumnData {
        &mut self.columns[col]
    }

    /// Exchange column `col` with column `other_col` of `other` — how a
    /// scan lends a decoded column, allocation and all, without copying it
    /// (and takes it back before the next morsel).
    pub(crate) fn swap_column(&mut self, col: usize, other: &mut ColumnBatch, other_col: usize) {
        std::mem::swap(&mut self.columns[col], &mut other.columns[other_col]);
    }

    /// Declare the lane count after the columns were filled column-wise.
    pub(crate) fn set_len(&mut self, len: usize) {
        self.len = len;
        debug_assert!(self.columns.iter().all(|c| c.len() == len || c.len() == 0));
    }

    /// Append the `lanes` of `src` (all its columns) to the columns of
    /// `self` starting at `first_col`; the caller seals the lanes with
    /// [`ColumnBatch::set_len`] once every column has its cells.
    pub(crate) fn gather_columns(&mut self, first_col: usize, src: &ColumnBatch, lanes: &[u32]) {
        for (dst, src) in self.columns[first_col..].iter_mut().zip(&src.columns) {
            dst.gather(src, lanes);
        }
    }

    /// Append one row of owned values.
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(RawValue::of(v));
        }
        self.len += 1;
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

    /// Owned cell value, bit-identical to what a row decode of the same
    /// record produces.
    pub fn value_at(&self, col: usize, lane: usize) -> Value {
        self.lane(col, lane).to_value()
    }

    /// Materialize lane `lane` into `row` (cleared first) — how the
    /// result cursor turns a lane into an owned row. A NULL-only column
    /// reads as NULL.
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
