//! Flat encoded rows: the form rows have between a scan and a heap page.
//!
//! A row's cells in [`encode_value`](crate::value::encode_value) form,
//! back to back, are at once a heap record's body
//! ([`crate::heap::for_each_record`]) and a wire row of the CSA channel.
//! [`EncodedRows`] holds many such rows in one byte buffer plus their end
//! offsets — two allocations however many rows — so a fragment's output
//! can leave the scan kernel, cross the channel and land in the host's
//! temp-table pages without ever becoming a `Vec<Value>`.

use crate::batch::ColumnBatch;
use crate::schema::Row;
use crate::value::{RawValue, Value};
use std::ops::Range;

/// Rows as one buffer of encoded cells; row `i` ends at `ends[i]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedRows {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl EncodedRows {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `rows`.
    pub fn from_rows(rows: &[Row]) -> Self {
        let mut out = Self::new();
        rows.iter().for_each(|r| out.push_row(r));
        out
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Drop every row, keeping both allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Append one cell of the row being built.
    pub fn push_cell(&mut self, cell: RawValue<'_>) {
        cell.encode(&mut self.bytes);
    }

    /// Append cells of the row being built that are already encoded —
    /// checked cells copied as they lie on a page.
    #[inline]
    pub fn push_cells(&mut self, cells: &[u8]) {
        self.bytes.extend_from_slice(cells);
    }

    /// Seal the row being built.
    pub fn finish_row(&mut self) {
        self.ends.push(self.bytes.len());
    }

    /// Append lane `lane` of `cols` as one row, cells written straight
    /// from the lanes: the bytes the owned row would encode to. The sink
    /// for computed outputs, aggregates and joins; a scan that only
    /// projects columns copies its rows' bytes instead
    /// (`crate::exec::Operator::drain_encoded`).
    pub fn push_lane(&mut self, cols: &ColumnBatch, lane: usize) {
        cols.columns().iter().for_each(|col| self.push_cell(col.lane(lane).raw()));
        self.finish_row();
    }

    /// Append one row of owned values.
    pub fn push_row(&mut self, row: &[Value]) {
        row.iter().for_each(|v| self.push_cell(RawValue::of(v)));
        self.finish_row();
    }

    /// Append one row whose cells are already encoded.
    pub fn push_encoded(&mut self, cells: &[u8]) {
        self.push_cells(cells);
        self.finish_row();
    }

    /// Append every row of `other`.
    pub fn append(&mut self, other: &EncodedRows) {
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&other.bytes);
        self.ends.extend(other.ends.iter().map(|e| base + e));
    }

    /// The rows in `range`, borrowed.
    pub fn slice(&self, range: Range<usize>) -> EncodedSlice<'_> {
        let first = if range.start == 0 { 0 } else { self.ends[range.start - 1] };
        EncodedSlice { bytes: &self.bytes, first, ends: &self.ends[range] }
    }

    /// Every row, borrowed.
    pub fn as_slice(&self) -> EncodedSlice<'_> {
        self.slice(0..self.len())
    }
}

/// A borrowed run of encoded rows inside a larger buffer (an
/// [`EncodedRows`], or a received channel frame): row `i` spans
/// `bytes[ends[i - 1]..ends[i]]`, the first one starting at `first`.
#[derive(Debug, Clone, Copy)]
pub struct EncodedSlice<'a> {
    bytes: &'a [u8],
    first: usize,
    ends: &'a [usize],
}

impl<'a> EncodedSlice<'a> {
    /// View rows of `bytes`: the first starts at `first`, row `i` ends
    /// at `ends[i]` (ascending, within `bytes`).
    pub fn new(bytes: &'a [u8], first: usize, ends: &'a [usize]) -> Self {
        debug_assert!(ends.is_sorted() && ends.first().is_none_or(|e| *e >= first));
        debug_assert!(ends.last().is_none_or(|e| *e <= bytes.len()));
        EncodedSlice { bytes, first, ends }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the slice holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// All the rows' bytes, contiguous.
    pub fn bytes(&self) -> &'a [u8] {
        &self.bytes[self.first..self.ends.last().copied().unwrap_or(self.first)]
    }

    /// Each row's encoded cells, in order.
    pub fn rows(&self) -> impl Iterator<Item = &'a [u8]> + Clone + 'a {
        let (bytes, mut start) = (self.bytes, self.first);
        self.ends.iter().map(move |&end| {
            let row = &bytes[start..end];
            start = end;
            row
        })
    }
}
