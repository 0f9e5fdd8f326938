//! Runtime values and data types.

use crate::{Result, SqlError};
use std::cmp::Ordering;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text (also used for ISO dates).
    Text,
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(String),
}

impl Value {
    /// The value's type, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int promoted to Float).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(SqlError::Eval(format!("expected number, got {other:?}"))),
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            other => Err(SqlError::Eval(format!("expected integer, got {other:?}"))),
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(SqlError::Eval(format!("expected text, got {other:?}"))),
        }
    }

    /// Truthiness for WHERE clauses: NULL and zero are false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Text(s) => !s.is_empty(),
        }
    }

    /// SQL comparison; `None` when either side is NULL or types are
    /// incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting: NULLs first, then by value; mixed numeric
    /// types compare numerically.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.compare(other).unwrap_or(Ordering::Equal),
        }
    }

    /// Equality for grouping/joining keys (NULL groups with NULL, unlike
    /// SQL comparison semantics — matching standard GROUP BY behaviour).
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.compare(other) == Some(Ordering::Equal),
        }
    }

    /// A stable byte key for hashing in joins/aggregations.
    pub fn key_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Float(f) => {
                // Normalize: integral floats hash like ints so Int/Float
                // join keys agree with `compare`.
                if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    out.push(1);
                    out.extend_from_slice(&(*f as i64).to_be_bytes());
                } else {
                    out.push(2);
                    out.extend_from_slice(&f.to_bits().to_be_bytes());
                }
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}

/// Serialize a value into `out` (length-prefixed, self-describing).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    RawValue::of(v).encode(out);
}

/// A decoded value borrowing its text from the page buffer. The
/// columnar decode path appends these straight into typed column
/// vectors without allocating a `String` per text cell;
/// [`RawValue::to_value`] converts to an owned value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawValue<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (bit-exact roundtrip).
    Float(f64),
    /// UTF-8 text, borrowed from the encoded buffer.
    Text(&'a str),
}

impl<'a> RawValue<'a> {
    /// Borrowing view of an owned [`Value`] — lets already-materialized
    /// rows feed the columnar decode path without re-encoding.
    pub fn of(v: &'a Value) -> Self {
        match v {
            Value::Null => RawValue::Null,
            Value::Int(i) => RawValue::Int(*i),
            Value::Float(f) => RawValue::Float(*f),
            Value::Text(s) => RawValue::Text(s),
        }
    }

    /// Convert to an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            RawValue::Null => Value::Null,
            RawValue::Int(i) => Value::Int(i),
            RawValue::Float(f) => Value::Float(f),
            RawValue::Text(s) => Value::Text(s.to_string()),
        }
    }

    /// How many bytes [`RawValue::encode`] writes.
    pub fn encoded_len(self) -> usize {
        match self {
            RawValue::Null => 1,
            RawValue::Int(_) | RawValue::Float(_) => 9,
            RawValue::Text(s) => 5 + s.len(),
        }
    }

    /// Serialize into `out` — the one cell encoding of heap records and
    /// wire rows alike; [`decode_value_raw`] is its inverse. The encoding
    /// is canonical: a cell [`walk_cell`] accepts re-encodes to its own
    /// bytes, so copying a cell and decoding then encoding it write the
    /// same bytes.
    pub fn encode(self, out: &mut Vec<u8>) {
        match self {
            RawValue::Null => out.push(0),
            RawValue::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_be_bytes());
            }
            RawValue::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_be_bytes());
            }
            RawValue::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// The one strict cell walk: check the cell that starts at `pos` in
/// `buf` — a known tag, a body that lies inside `buf`, a text body that
/// is UTF-8 — and return where it ends and, when `keep` is set, its value
/// (text borrowed in place); `None` when the cell is corrupt. Every cell
/// that arrives from outside the engine goes through it whether or not
/// the caller keeps it: the heap page walk
/// (`crate::heap::scan_page_columns`), channel frame validation and
/// [`decode_value_raw`]. Only a kept cell becomes a
/// value: a kept text body is checked by the `from_utf8` that borrows it,
/// a skipped one passes on an ASCII test (`is_ascii_at`) or, failing
/// that, on `from_utf8` — so the same cells pass either way.
#[inline(always)]
pub fn walk_cell(buf: &[u8], pos: usize, keep: bool) -> Option<(usize, Option<RawValue<'_>>)> {
    let body = pos + 1;
    match *buf.get(pos)? {
        0 => Some((body, keep.then_some(RawValue::Null))),
        tag @ (1 | 2) if keep => {
            let word = u64::from_be_bytes(buf.get(body..body + 8)?.try_into().ok()?);
            let value = if tag == 1 { RawValue::Int(word as i64) } else { RawValue::Float(f64::from_bits(word)) };
            Some((body + 8, Some(value)))
        }
        1 | 2 => (body + 8 <= buf.len()).then_some((body + 8, None)),
        3 => {
            let len = u32::from_be_bytes(buf.get(body..body + 4)?.try_into().ok()?) as usize;
            let (start, end) = (body + 4, body + 4 + len);
            let text = buf.get(start..end)?;
            if keep {
                Some((end, Some(RawValue::Text(std::str::from_utf8(text).ok()?))))
            } else {
                (is_ascii_at(buf, start, end) || std::str::from_utf8(text).is_ok()).then_some((end, None))
            }
        }
        _ => None,
    }
}

/// Is `buf[start..end]` ASCII? Sixteen bytes a word, each word loaded
/// from `buf` around the text where it can and the bytes that are not
/// the text's masked off, so a cell of up to sixteen bytes — the flags,
/// dates and names of a heap record — costs one load. In the page walk
/// `<[u8]>::is_ascii` on those cells cost `serve_warm` about an eighth
/// of its throughput (EXPERIMENTS.md, "The fragment scan on
/// `serve_warm`").
#[inline(always)]
fn is_ascii_at(buf: &[u8], start: usize, end: usize) -> bool {
    const HIGH_BITS: u128 = u128::from_ne_bytes([0x80; 16]);
    let word = |at: usize| u128::from_le_bytes(buf[at..at + 16].try_into().expect("16 bytes"));
    let len = end - start;
    if len >= 16 {
        // Whole words, the last one ending where the text ends.
        let mut at = start;
        while at + 16 < end {
            if word(at) & HIGH_BITS != 0 {
                return false;
            }
            at += 16;
        }
        word(end - 16) & HIGH_BITS == 0
    } else if len == 0 {
        true
    } else if start + 16 <= buf.len() {
        word(start) & HIGH_BITS & (u128::MAX >> ((16 - len) * 8)) == 0
    } else if end >= 16 {
        word(end - 16) & HIGH_BITS & (u128::MAX << ((16 - len) * 8)) == 0
    } else {
        buf[start..end].is_ascii()
    }
}

/// Decode one value from `buf` at `pos`, borrowing text in place: the
/// strict walk ([`walk_cell`]) keeping the cell.
pub fn decode_value_raw<'a>(buf: &'a [u8], pos: &mut usize) -> Result<RawValue<'a>> {
    match walk_cell(buf, *pos, true) {
        Some((end, Some(value))) => {
            *pos = end;
            Ok(value)
        }
        _ => Err(SqlError::Eval("corrupt value encoding".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deserialize one value from `buf` at `pos`, advancing `pos`.
    fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
        Ok(decode_value_raw(buf, pos)?.to_value())
    }

    #[test]
    fn compare_numeric_cross_type() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(3.0).compare(&Value::Int(2)), Some(Ordering::Greater));
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn text_dates_order_correctly() {
        // ISO dates compare lexicographically.
        let a = Value::Text("1994-01-01".into());
        let b = Value::Text("1995-12-31".into());
        assert_eq!(a.compare(&b), Some(Ordering::Less));
    }

    #[test]
    fn sort_cmp_puts_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1].as_i64().unwrap(), 1);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let vals = [
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::Text(String::new()),
            Value::Text("hello world — ünïcödé".into()),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            let before = buf.len();
            encode_value(v, &mut buf);
            assert_eq!(RawValue::of(v).encoded_len(), buf.len() - before, "{v:?}");
        }
        let mut pos = 0;
        for v in &vals {
            let d = decode_value(&buf, &mut pos).unwrap();
            match (v, &d) {
                (Value::Null, Value::Null) => {}
                _ => assert_eq!(v, &d),
            }
        }
        assert_eq!(pos, buf.len());
    }

    /// The decoder before the strict walk: `from_utf8` on every text
    /// cell, a value built for every cell.
    fn reference_decode<'a>(buf: &'a [u8], pos: &mut usize) -> Option<RawValue<'a>> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        let mut take = |n: usize| {
            let bytes = buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(bytes)
        };
        let word = |b: &[u8]| u64::from_be_bytes(b.try_into().unwrap());
        match tag {
            0 => Some(RawValue::Null),
            1 => Some(RawValue::Int(word(take(8)?) as i64)),
            2 => Some(RawValue::Float(f64::from_bits(word(take(8)?)))),
            3 => {
                let len = u32::from_be_bytes(take(4)?.try_into().unwrap()) as usize;
                Some(RawValue::Text(std::str::from_utf8(take(len)?).ok()?))
            }
            _ => None,
        }
    }

    #[test]
    fn strict_walk_accepts_exactly_what_a_full_decode_does() {
        // Every byte of a run of cells × three flips, each cell start
        // walked: the walk ends where the reference decode ends, fails
        // where it fails, and the value read back is the reference's.
        let vals = [
            Value::Text("plain ascii".into()),
            Value::Null,
            Value::Text("\u{e9}\u{20ac}\u{1f600}".into()),
            Value::Int(-3),
            Value::Text(String::new()),
            Value::Float(2.5),
        ];
        let mut buf = Vec::new();
        let starts: Vec<usize> = vals
            .iter()
            .map(|v| {
                let at = buf.len();
                encode_value(v, &mut buf);
                at
            })
            .collect();
        let (mut accepted, mut rejected) = (0, 0);
        for pos in 0..buf.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                buf[pos] ^= flip;
                for &start in &starts {
                    let mut end = start;
                    let want = reference_decode(&buf, &mut end);
                    let skipped = walk_cell(&buf, start, false).map(|(end, _)| end);
                    assert_eq!(skipped, want.map(|_| end), "byte {pos} ^ {flip:#x} cell {start}");
                    let mut at = start;
                    match (decode_value_raw(&buf, &mut at), want) {
                        (Ok(got), Some(want)) => {
                            assert_eq!((format!("{got:?}"), at), (format!("{want:?}"), end));
                            accepted += 1;
                        }
                        (Err(_), None) => rejected += 1,
                        (got, want) => panic!("byte {pos} ^ {flip:#x}: {got:?} vs {want:?}"),
                    }
                }
                buf[pos] ^= flip;
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
        assert!(walk_cell(&buf, buf.len(), false).is_none(), "past the end");
    }

    #[test]
    fn word_ascii_test_matches_is_ascii_wherever_the_text_lies() {
        // Texts of 0..=40 bytes, ASCII or with one high byte at any
        // position, at every offset of buffers with up to 20 bytes of
        // high-bit padding on either side: the masked word test answers
        // what `is_ascii` does, whichever words it can load.
        for len in 0..=40 {
            for high in (0..len).map(Some).chain([None]) {
                let mut text = vec![b'a'; len];
                if let Some(at) = high {
                    text[at] = 0xc3;
                }
                for (before, after) in [(0, 0), (0, 20), (20, 0), (3, 5), (15, 1), (1, 15), (20, 20)] {
                    let buf: Vec<u8> = [vec![0xff; before], text.clone(), vec![0xff; after]].concat();
                    assert_eq!(
                        is_ascii_at(&buf, before, before + len),
                        text.is_ascii(),
                        "len {len} high {high:?} padding {before}/{after}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_truncated_fails() {
        let mut buf = Vec::new();
        encode_value(&Value::Text("hello".into()), &mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(decode_value(&buf, &mut pos).is_err());
    }

    #[test]
    fn key_bytes_unify_int_and_integral_float() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(7).key_bytes(&mut a);
        Value::Float(7.0).key_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn key_bytes_distinguish_types_and_values() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Text("1".into()).key_bytes(&mut a);
        Value::Int(1).key_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert!(Value::Text("x".into()).is_truthy());
        assert!(!Value::Text(String::new()).is_truthy());
    }
}
