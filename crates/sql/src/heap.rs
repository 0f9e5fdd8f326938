//! Heap-file row storage on fixed-size pages.
//!
//! Each table is a list of page ids. A page payload holds a small header
//! (`u32` used bytes, `u16` row count) followed by length-prefixed encoded
//! rows. Bulk loads buffer whole pages in memory before writing — one page
//! write per filled page — while single-row appends read-modify-write the
//! tail page, like SQLite's append path.
//!
//! Pages are read back by one walk ([`scan_page_columns`]): every cell of
//! every record passes the strict cell walk (`crate::value::walk_cell`),
//! the cells of the columns a caller asks for become column lanes, and a
//! cell-offset table records where every cell lies — so the scan kernel
//! can decode a surviving row's other cells later, or copy them onward as
//! the bytes they already are.

use crate::batch::ColumnBatch;
use crate::schema::Row;
use crate::value::{encode_value, walk_cell, RawValue};
use crate::{Result, SqlError};
use ironsafe_storage::pager::{PageId, Pager};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Shared, lockable pager handle used across operators.
pub type SharedPager = Arc<Mutex<dyn Pager + Send>>;

/// Wrap a pager for shared use.
pub fn shared<P: Pager + Send + 'static>(pager: P) -> SharedPager {
    Arc::new(Mutex::new(pager))
}

const HEADER: usize = 6; // u32 used + u16 nrows

/// A table's page list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapFile {
    /// Pages owned by this heap, in order.
    pub pages: Vec<PageId>,
    /// Total rows stored.
    pub row_count: u64,
}

fn encode_row(row: &Row) -> Vec<u8> {
    let mut buf = Vec::with_capacity(row.len() * 12);
    for v in row {
        encode_value(v, &mut buf);
    }
    buf
}

/// Walk the encoded records of a heap-page payload, handing each
/// record's offset in the payload and its encoded bytes to `visit`. This
/// is the **one** page codec: the scan kernel's page walk
/// ([`scan_page_columns`]) — the only decode the release build has — and
/// the test-only row decode share these bounds checks. The header is
/// attacker-controlled on a tampered medium, so every field is bounded
/// before any slicing; corruption is an error, never a panic.
pub fn for_each_record(payload: &[u8], mut visit: impl FnMut(usize, &[u8]) -> Result<()>) -> Result<()> {
    if payload.len() < HEADER {
        return Err(SqlError::Eval("corrupt heap page: shorter than header".into()));
    }
    let used = u32::from_be_bytes(payload[0..4].try_into().expect("4")) as usize;
    let nrows = u16::from_be_bytes(payload[4..6].try_into().expect("2")) as usize;
    if used < HEADER || used > payload.len() {
        return Err(SqlError::Eval("corrupt heap page: used bytes out of bounds".into()));
    }
    let mut pos = HEADER;
    for _ in 0..nrows {
        if pos + 4 > used {
            return Err(SqlError::Eval("corrupt heap page: truncated record header".into()));
        }
        let len = u32::from_be_bytes(payload[pos..pos + 4].try_into().expect("4")) as usize;
        pos += 4;
        let end = pos + len;
        if end > used {
            return Err(SqlError::Eval("corrupt heap page: record overruns page".into()));
        }
        visit(pos, &payload[pos..end])?;
        pos = end;
    }
    Ok(())
}

/// Walk one encoded record of `keep.len()` cells through the strict cell
/// walk ([`walk_cell`] — tag, bounds and UTF-8 checks), handing `cell`
/// each cell's column, its offset in the record and, for a column with
/// `keep[c]` set, its value; and reject trailing bytes (a record that
/// walks short or long is corrupt). Every cell is checked whether or not
/// the caller keeps it.
#[inline]
fn walk_record<'a>(
    record: &'a [u8],
    keep: &[bool],
    mut cell: impl FnMut(usize, usize, Option<RawValue<'a>>),
) -> Result<()> {
    let mut pos = 0;
    for (col, keep) in keep.iter().enumerate() {
        let (end, value) =
            walk_cell(record, pos, *keep).ok_or_else(|| SqlError::Eval("corrupt value encoding".into()))?;
        cell(col, pos, value);
        pos = end;
    }
    if pos != record.len() {
        return Err(SqlError::Eval("corrupt heap page: record length mismatch".into()));
    }
    Ok(())
}

/// Where every cell of the rows [`scan_page_columns`] walked lies in the
/// buffer it walked: per row, where each of its cells starts and then
/// where its record ends (one `u32` a cell, one a row), so any run of
/// adjacent columns is one byte range. Every cell it points at passed
/// the strict walk, so it may be read or copied without another check.
/// [`CellTable::clear`] keeps the allocation for the next morsel.
#[derive(Debug, Clone, Default)]
pub struct CellTable {
    offsets: Vec<u32>,
    stride: usize,
}

impl CellTable {
    /// Forget every row, keeping the allocation.
    pub fn clear(&mut self) {
        self.offsets.clear();
    }

    /// The bytes of columns `cols` (adjacent, in table order) of row
    /// `row`, as a range of the walked buffer.
    #[inline]
    pub fn range(&self, row: usize, cols: Range<usize>) -> Range<usize> {
        let at = row * self.stride;
        self.offsets[at + cols.start] as usize..self.offsets[at + cols.end] as usize
    }
}

/// The page walk: append every row of `pages` — whole heap-page payloads
/// of `payload` bytes each, back to back (a morsel's read buffer) — to
/// `batch`, copying only the cells of columns with `cols[c]` set into
/// their typed column vectors (text goes straight into the column's
/// arena, no per-cell `String`), and to `cells` where each of its cells
/// lies in `pages`. A skipped cell is still checked by the strict walk —
/// pruning decides what is *copied*, never what is *checked* — so a
/// pruned and a full decode agree on `Ok`/`Err` for any payload.
pub fn scan_page_columns(
    pages: &[u8],
    payload: usize,
    cols: &[bool],
    batch: &mut ColumnBatch,
    cells: &mut CellTable,
) -> Result<()> {
    debug_assert_eq!(batch.width(), cols.len());
    assert!(pages.len() <= u32::MAX as usize, "cell offsets are u32: a morsel holds at most 4 GiB");
    debug_assert!(cells.offsets.is_empty() || cells.stride == cols.len() + 1);
    cells.stride = cols.len() + 1;
    for (i, page) in pages.chunks_exact(payload).enumerate() {
        for_each_record(page, |start, record| {
            let at = i * payload + start;
            walk_record(record, cols, |col, start, value| {
                cells.offsets.push((at + start) as u32);
                if let Some(value) = value {
                    batch.push_cell(col, value);
                }
            })?;
            cells.offsets.push((at + record.len()) as u32);
            batch.finish_row()
        })?;
    }
    Ok(())
}

impl HeapFile {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Append owned rows — the load boundary, where rows arrive from
    /// outside the engine: each is encoded, packed and dropped in turn,
    /// once all of them are known to fit.
    pub fn append_rows(&mut self, pager: &SharedPager, rows: Vec<Row>) -> Result<()> {
        let len = |row: &Row| row.iter().map(|v| RawValue::of(v).encoded_len()).sum();
        let lens: Vec<usize> = rows.iter().map(len).collect();
        self.pack(pager, lens, rows.into_iter().map(|row| encode_row(&row)), std::iter::empty())
    }

    /// Append records that are already encoded (each one row's cells in
    /// [`encode_value`] form), continuing on the tail page. All or
    /// nothing: a record too large for a page fails the call before any
    /// page is written.
    pub fn append_encoded<R: AsRef<[u8]>>(
        &mut self,
        pager: &SharedPager,
        records: impl IntoIterator<Item = R, IntoIter: Clone>,
    ) -> Result<()> {
        let records = records.into_iter();
        self.pack(pager, records.clone().map(|r| r.as_ref().len()), records, std::iter::empty())
    }

    /// Replace the heap's contents with `records`, reusing its pages in
    /// order (leftover ones are zeroed so stale rows are unreachable).
    /// All or nothing, like [`HeapFile::append_encoded`]: on a record
    /// that fits no page the heap and its pages are as they were.
    pub fn rewrite<R: AsRef<[u8]>>(
        &mut self,
        pager: &SharedPager,
        records: impl IntoIterator<Item = R, IntoIter: Clone>,
    ) -> Result<()> {
        let (records, mut packed) = (records.into_iter(), HeapFile::new());
        let lens = records.clone().map(|r| r.as_ref().len());
        packed.pack(pager, lens, records, self.pages.iter().copied())?;
        *self = packed;
        Ok(())
    }

    /// The one writer of the page layout, whether records come from owned
    /// rows or arrive already encoded (the cost model prices temp pages,
    /// so which record lands on which page is a golden). Continues on the
    /// tail page, if the heap has one (read-modify-write, like SQLite's
    /// append); new pages are drawn from `spare` before any is allocated,
    /// and whatever is left of `spare` is zeroed. `lens` — every record's
    /// length, ahead of the records themselves — is checked against the
    /// page payload before the first page is touched, and `pages` /
    /// `row_count` change only when the whole call succeeded.
    fn pack<R: AsRef<[u8]>>(
        &mut self,
        pager: &SharedPager,
        lens: impl IntoIterator<Item = usize>,
        records: impl Iterator<Item = R>,
        mut spare: impl Iterator<Item = PageId>,
    ) -> Result<()> {
        let mut pager = pager.lock();
        let mut page = vec![0u8; pager.payload_size()];
        let fits = page.len() - HEADER - 4;
        if let Some(len) = lens.into_iter().find(|len| *len > fits) {
            return Err(SqlError::Eval(format!("row of {len} bytes exceeds page payload")));
        }
        let (mut used, mut nrows) = (HEADER, 0u16);
        let mut cur = self.pages.last().copied();
        if let Some(tail) = cur {
            pager.read_page(tail, &mut page)?;
            used = u32::from_be_bytes(page[0..4].try_into().expect("4")) as usize;
            nrows = u16::from_be_bytes(page[4..6].try_into().expect("2"));
        }
        let flush = |pager: &mut dyn Pager, page: &mut [u8], cur, used: usize, nrows: u16| {
            let Some(id) = cur else { return Ok(()) };
            page[0..4].copy_from_slice(&(used as u32).to_be_bytes());
            page[4..6].copy_from_slice(&nrows.to_be_bytes());
            pager.write_page(id, page)
        };
        let (mut drawn, mut added) = (Vec::new(), 0u64);
        for record in records {
            let record = record.as_ref();
            let need = 4 + record.len();
            debug_assert!(record.len() <= fits, "`lens` vouched for every record");
            if cur.is_none() || used + need > page.len() || nrows == u16::MAX {
                flush(&mut *pager, &mut page, cur, used, nrows)?;
                let id = match spare.next() {
                    Some(id) => id,
                    None => pager.allocate_page()?,
                };
                drawn.push(id);
                cur = Some(id);
                page.fill(0);
                (used, nrows) = (HEADER, 0);
            }
            page[used..used + 4].copy_from_slice(&(record.len() as u32).to_be_bytes());
            page[used + 4..used + need].copy_from_slice(record);
            used += need;
            nrows += 1;
            added += 1;
        }
        flush(&mut *pager, &mut page, cur, used, nrows)?;
        for id in spare {
            page.fill(0);
            pager.write_page(id, &page)?;
        }
        self.pages.extend(drawn);
        self.row_count += added;
        Ok(())
    }
}

/// Decode every row of an encoded heap-page payload into freshly
/// allocated rows: the naive full-width decode, kept for tests as the
/// reference the columnar decode, the scan kernel and DML are compared
/// against. The release build has no `Vec<Row>` page reader.
#[cfg(test)]
pub fn decode_page_rows(payload: &[u8], ncols: usize) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for_each_record(payload, |_, record| {
        let mut row = Vec::with_capacity(ncols);
        walk_record(record, &vec![true; ncols], |_, _, value| row.extend(value.map(RawValue::to_value)))?;
        rows.push(row);
        Ok(())
    })?;
    Ok(rows)
}

/// Row-at-a-time heap access, for tests and the oracles only.
#[cfg(test)]
impl HeapFile {
    /// Append one row.
    pub fn append_row(&mut self, pager: &SharedPager, row: Row) -> Result<()> {
        self.append_rows(pager, vec![row])
    }

    /// Read every row of one page.
    pub fn read_page_rows(&self, pager: &SharedPager, page_index: usize, ncols: usize) -> Result<Vec<Row>> {
        let id = *self
            .pages
            .get(page_index)
            .ok_or_else(|| SqlError::Eval(format!("heap page index {page_index} out of range")))?;
        let mut pager = pager.lock();
        let mut payload = vec![0u8; pager.payload_size()];
        pager.read_page(id, &mut payload)?;
        decode_page_rows(&payload, ncols)
    }

    /// Materialize all rows.
    pub fn all_rows(&self, pager: &SharedPager, ncols: usize) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.row_count as usize);
        for i in 0..self.pages.len() {
            out.extend(self.read_page_rows(pager, i, ncols)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::EncodedRows;
    use crate::value::Value;
    use ironsafe_storage::pager::PlainPager;

    fn pager() -> SharedPager {
        shared(PlainPager::new())
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Text(format!("row-{i}")), Value::Float(i as f64 / 2.0)]
    }

    fn rows(ids: std::ops::Range<i64>, make: impl Fn(i64) -> Row) -> Vec<Row> {
        ids.map(make).collect()
    }

    #[test]
    fn append_and_scan_roundtrip() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, rows(0..100, row)).unwrap();
        assert_eq!(heap.row_count, 100);
        let rows = heap.all_rows(&p, 3).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42], row(42));
    }

    #[test]
    fn spans_multiple_pages() {
        let p = pager();
        let mut heap = HeapFile::new();
        // Rows with ~500-byte strings force several per-page boundaries.
        let big = |i: i64| vec![Value::Int(i), Value::Text("x".repeat(500))];
        heap.append_rows(&p, rows(0..50, big)).unwrap();
        assert!(heap.page_count() > 1, "got {} pages", heap.page_count());
        let rows = heap.all_rows(&p, 2).unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[49][0], Value::Int(49));
    }

    #[test]
    fn single_row_appends_continue_tail_page() {
        let p = pager();
        let mut heap = HeapFile::new();
        for i in 0..10 {
            heap.append_row(&p, row(i)).unwrap();
        }
        assert_eq!(heap.page_count(), 1, "small rows share one page");
        assert_eq!(heap.all_rows(&p, 3).unwrap().len(), 10);
    }

    #[test]
    fn oversized_row_rejected() {
        let p = pager();
        let mut heap = HeapFile::new();
        let huge = vec![Value::Text("y".repeat(10_000))];
        assert!(heap.append_row(&p, huge).is_err());
    }

    #[test]
    fn rewrite_shrinks_and_reuses_pages() {
        let p = pager();
        let mut heap = HeapFile::new();
        let big = |i: i64| vec![Value::Int(i), Value::Text("x".repeat(500))];
        heap.append_rows(&p, rows(0..50, big)).unwrap();
        let pages_before = p.lock().num_pages();

        // Delete all but 3 rows.
        heap.rewrite(&p, EncodedRows::from_rows(&rows(0..3, big)).as_slice().rows()).unwrap();
        assert_eq!(heap.row_count, 3);
        assert_eq!(heap.all_rows(&p, 2).unwrap().len(), 3);
        assert_eq!(p.lock().num_pages(), pages_before, "no new pages allocated");
    }

    #[test]
    fn rewrite_grows_when_needed() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, rows(0..5, row)).unwrap();
        let big = |i: i64| vec![Value::Int(i), Value::Text("x".repeat(500))];
        heap.rewrite(&p, EncodedRows::from_rows(&rows(0..100, big)).as_slice().rows()).unwrap();
        assert_eq!(heap.all_rows(&p, 2).unwrap().len(), 100);
        assert!(heap.page_count() > 1);
    }

    #[test]
    fn encoded_appends_lay_out_pages_exactly_like_one_row_append() {
        // One packer: rows appended whole, and the same rows arriving
        // already encoded in several batches (each resuming the tail
        // page, one of them empty), fill byte-identical pages.
        let big = |i: i64| vec![Value::Int(i), Value::Text("x".repeat((i as usize * 37) % 700)), Value::Null];
        let rows: Vec<Row> = (0..300).map(big).collect();
        let (by_rows, by_bytes) = (pager(), pager());
        let (mut a, mut b) = (HeapFile::new(), HeapFile::new());
        a.append_rows(&by_rows, rows.clone()).unwrap();
        let encoded = EncodedRows::from_rows(&rows);
        for range in [0..1, 1..1, 1..130, 130..300] {
            b.append_encoded(&by_bytes, encoded.slice(range).rows()).unwrap();
        }
        assert_eq!(a, b, "same page list, same row count");
        assert!(a.page_count() > 10);
        let payload = by_rows.lock().payload_size();
        let (mut pa, mut pb) = (vec![0u8; payload], vec![0u8; payload]);
        for &id in &a.pages {
            by_rows.lock().read_page(id, &mut pa).unwrap();
            by_bytes.lock().read_page(id, &mut pb).unwrap();
            assert_eq!(pa, pb, "page {id}");
        }
        assert_eq!(b.all_rows(&by_bytes, 3).unwrap().len(), 300);
        // An oversized record is refused on this path too.
        assert!(b.append_encoded(&by_bytes, [vec![3u8; 5000]]).is_err());
    }

    #[test]
    fn empty_heap_scans_empty() {
        let p = pager();
        let heap = HeapFile::new();
        assert!(heap.all_rows(&p, 3).unwrap().is_empty());
    }

    #[test]
    fn null_values_roundtrip() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_row(&p, vec![Value::Null, Value::Int(1), Value::Null]).unwrap();
        let rows = heap.all_rows(&p, 3).unwrap();
        assert!(rows[0][0].is_null());
        assert!(rows[0][2].is_null());
    }

    #[test]
    fn corrupt_used_field_is_an_error_not_a_panic() {
        // `used` far beyond the page must error cleanly, not slice-panic.
        let mut payload = vec![0u8; 256];
        payload[0..4].copy_from_slice(&100_000u32.to_be_bytes());
        payload[4..6].copy_from_slice(&5u16.to_be_bytes());
        assert!(matches!(decode_page_rows(&payload, 3), Err(SqlError::Eval(_))));
        // `used` smaller than the header is equally invalid.
        payload[0..4].copy_from_slice(&2u32.to_be_bytes());
        assert!(matches!(decode_page_rows(&payload, 3), Err(SqlError::Eval(_))));
        // A payload shorter than the header cannot be decoded at all.
        assert!(matches!(decode_page_rows(&[0u8; 3], 1), Err(SqlError::Eval(_))));
    }

    #[test]
    fn scratch_scan_visits_same_rows_as_decode() {
        let p = pager();
        let mut heap = HeapFile::new();
        heap.append_rows(&p, rows(0..40, row)).unwrap();
        let mut payload = vec![0u8; p.lock().payload_size()];
        p.lock().read_page(heap.pages[0], &mut payload).unwrap();
        let decoded = decode_page_rows(&payload, 3).unwrap();
        // The columnar view, fully unmasked and reused across calls,
        // reconstructs exactly the rows the row decode yields.
        let (mut batch, mut cells) = (ColumnBatch::new(3), CellTable::default());
        for _ in 0..2 {
            batch.clear();
            cells.clear();
            scan_page_columns(&payload, payload.len(), &[true; 3], &mut batch, &mut cells).unwrap();
            let mut visited = Vec::new();
            let mut scratch = Vec::new();
            for lane in 0..batch.len() {
                batch.read_row(lane, &mut scratch);
                visited.push(scratch.clone());
            }
            assert_eq!(visited, decoded);
        }
    }

    /// Walk `page` keeping `cols` and check it against `want`, the full
    /// row decode of the same page: the same `Ok`/`Err`, and on `Ok` the
    /// kept lanes, every cell read back from the offset table (how the
    /// kernel decodes a survivor's other columns) and every cell's and
    /// every whole row's byte range (what the byte-range sink copies)
    /// against the owned values' encoding.
    fn assert_walk_agrees(page: &[u8], cols: &[bool], want: &Result<Vec<Row>>, ctx: &str) {
        let (mut batch, mut cells) = (ColumnBatch::new(cols.len()), CellTable::default());
        let walked = scan_page_columns(page, page.len(), cols, &mut batch, &mut cells);
        assert_eq!(walked.is_ok(), want.is_ok(), "{ctx} mask {cols:?}: walk {walked:?}");
        let Ok(want) = want else { return };
        assert_eq!(batch.len(), want.len(), "{ctx} mask {cols:?}");
        let encoded = |v: &Value| {
            let mut out = Vec::new();
            encode_value(v, &mut out);
            out
        };
        for (r, row) in want.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                let cell = &page[cells.range(r, c..c + 1)];
                assert_eq!(cell, encoded(v), "{ctx} row {r} col {c}");
                let read = crate::value::decode_value_raw(cell, &mut 0).unwrap().to_value();
                assert_eq!(encoded(&read), encoded(v), "{ctx}");
                if cols[c] {
                    assert_eq!(encoded(&batch.value_at(c, r)), encoded(v), "{ctx} lane {r} col {c}");
                }
            }
            let whole: Vec<u8> = row.iter().flat_map(encoded).collect();
            assert_eq!(page[cells.range(r, 0..row.len())], whole[..], "{ctx} row {r}");
        }
    }

    #[test]
    fn pruned_and_full_decode_agree_on_every_mutant() {
        // A skipped column is still checked: flipping any byte of a page
        // (header, record lengths, tags, text lengths, UTF-8) yields the
        // `Ok`/`Err` of the full row decode whether the walk keeps every
        // column, the predicate's, the predicate's and a projected one,
        // or none — and, when `Ok`, the kept lanes, the offset table's
        // cells and its byte ranges all match that decode. Corruption is
        // an error, never a panic.
        let p = pager();
        let mut heap = HeapFile::new();
        let rows = rows(0..12, |i| {
            vec![Value::Int(i), Value::Text(format!("r\u{e9}sum\u{e9}-{i}")), Value::Null, Value::Float(0.5)]
        });
        heap.append_rows(&p, rows).unwrap();
        let mut page = vec![0u8; p.lock().payload_size()];
        p.lock().read_page(heap.pages[0], &mut page).unwrap();
        let used = u32::from_be_bytes(page[0..4].try_into().unwrap()) as usize;

        let masks = [
            [true; 4],
            [true, false, false, false],
            [true, false, false, true],
            [false, true, false, false],
            [false; 4],
        ];
        let (mut accepted, mut rejected) = (0, 0);
        for pos in 0..used {
            for flip in [0x01u8, 0x80, 0xff] {
                page[pos] ^= flip;
                let want = decode_page_rows(&page, 4);
                for cols in &masks {
                    assert_walk_agrees(&page, cols, &want, &format!("byte {pos} ^ {flip:#x}"));
                }
                match want {
                    Ok(_) => accepted += 1,
                    Err(_) => rejected += 1,
                }
                page[pos] ^= flip;
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn unreferenced_text_is_still_utf8_checked() {
        // One record: a kept INT, then a text column no mask keeps but
        // the first, holding the bytes under test.
        let page = |text: &[u8]| {
            let mut record = Vec::new();
            encode_value(&Value::Int(7), &mut record);
            record.push(3);
            record.extend_from_slice(&(text.len() as u32).to_be_bytes());
            record.extend_from_slice(text);
            let used = HEADER + 4 + record.len();
            let mut page = vec![0u8; 128];
            page[0..4].copy_from_slice(&(used as u32).to_be_bytes());
            page[4..6].copy_from_slice(&1u16.to_be_bytes());
            page[6..10].copy_from_slice(&(record.len() as u32).to_be_bytes());
            page[10..used].copy_from_slice(&record);
            page
        };
        let cases: [(&[u8], bool); 8] = [
            (b"plain", true),
            ("\u{e9}".as_bytes(), true),
            ("\u{20ac}".as_bytes(), true),
            ("\u{1f600}".as_bytes(), true),
            (b"a\x80b", false),
            (b"\xc0\x80", false),
            (b"\xed\xa0\x80", false),
            (b"ok\xe2\x82", false),
        ];
        for (text, valid) in cases {
            let page = page(text);
            let want = decode_page_rows(&page, 2);
            assert_eq!(want.is_ok(), valid, "{text:x?}");
            for cols in [[true, true], [true, false], [false, false]] {
                assert_walk_agrees(&page, &cols, &want, &format!("{text:x?}"));
            }
        }
    }

    #[test]
    fn works_over_secure_pager() {
        use ironsafe_crypto::group::Group;
        use ironsafe_storage::SecurePager;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dev = mfr.make_device("s0", 8, &mut rng);
        let p = shared(SecurePager::create(dev, 42).unwrap());
        let mut heap = HeapFile::new();
        heap.append_rows(&p, rows(0..200, row)).unwrap();
        let rows = heap.all_rows(&p, 3).unwrap();
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[123], row(123));
        let stats = p.lock().stats();
        assert!(stats.encrypts > 0);
        assert!(stats.decrypts > 0);
    }
}
