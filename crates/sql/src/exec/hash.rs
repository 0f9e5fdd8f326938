//! Join and group keys read from lanes: equality, hashing and the flat
//! chained index both operators keep their entries in.
//!
//! Key equality is exactly that of [`Value::key_bytes`](crate::value::Value::key_bytes)
//! — `Int` and integral `Float` unify, NULL equals only NULL (a join
//! never looks a NULL key up), text never equals a number, two NaNs of
//! the same bits are one key — but a lookup encodes nothing: [`KeyLane`]
//! is the value `key_bytes` would have written, compared and hashed in
//! place. Chains compare full keys, so a poor hash costs time, never an
//! answer.

use crate::batch::LaneVal;

/// What `Value::key_bytes` distinguishes about a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyLane<'a> {
    Null,
    /// An integer, or a float with the same integral value.
    Int(i64),
    /// Any other float, by its bits.
    Bits(u64),
    Str(&'a str),
}

impl<'a> KeyLane<'a> {
    pub(crate) fn of(lane: LaneVal<'a>) -> Self {
        match lane {
            LaneVal::Null => KeyLane::Null,
            LaneVal::Int(i) => KeyLane::Int(i),
            LaneVal::Float(f) => {
                let integral = f.fract() == 0.0
                    && f.is_finite()
                    && f >= i64::MIN as f64
                    && f <= i64::MAX as f64;
                if integral {
                    KeyLane::Int(f as i64)
                } else {
                    KeyLane::Bits(f.to_bits())
                }
            }
            LaneVal::Str(s) => KeyLane::Str(s),
        }
    }

    /// Append an encoding under which two cells are equal exactly when
    /// their bytes are (what a DISTINCT set stores).
    pub(crate) fn write(self, out: &mut Vec<u8>) {
        match self {
            KeyLane::Null => out.push(0),
            KeyLane::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_be_bytes());
            }
            KeyLane::Bits(b) => {
                out.push(2);
                out.extend_from_slice(&b.to_be_bytes());
            }
            KeyLane::Str(s) => {
                out.push(3);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Fold this cell into the running key hash `h`.
    pub(crate) fn hash(self, h: u64) -> u64 {
        match self {
            KeyLane::Null => mix(h, 0x6e75_6c6c),
            KeyLane::Int(i) => mix(h, i as u64),
            KeyLane::Bits(b) => mix(h ^ 0x66, b),
            KeyLane::Str(s) => {
                let mut chunks = s.as_bytes().chunks_exact(8);
                let mut h = mix(h ^ 0x73, s.len() as u64);
                for c in &mut chunks {
                    h = mix(h, u64::from_le_bytes(c.try_into().expect("8 bytes")));
                }
                let mut tail = [0u8; 8];
                tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
                mix(h, u64::from_le_bytes(tail))
            }
        }
    }
}

/// Seed of every key hash.
pub(crate) const HASH_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// One multiply-mix round: the 128-bit product of the two words, folded.
fn mix(h: u64, x: u64) -> u64 {
    let wide = u128::from(h ^ 0x9e37_79b9_7f4a_7c15) * u128::from(x ^ 0xd1b5_4a32_d192_ed03);
    (wide as u64) ^ (wide >> 64) as u64
}

/// End of a chain.
pub(crate) const NIL: u32 = u32::MAX;

/// A flat chained hash index over entries `0..len` that live elsewhere (a
/// join's build arena, an aggregate's group list): a power-of-two table of
/// `u32` bucket heads plus one `next` link and the hash per entry — no
/// `Vec` per key or bucket. A new entry is *prepended* to its bucket, so
/// walking a chain visits entries newest first.
#[derive(Debug, Default)]
pub(crate) struct ChainIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl ChainIndex {
    /// Entries indexed so far.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    /// Index the next entry (number [`ChainIndex::len`]) under hash `h`.
    pub(crate) fn insert(&mut self, h: u64) {
        let entry = u32::try_from(self.next.len()).ok().filter(|e| *e != NIL);
        let entry = entry.expect("hash index holds fewer than 2^32 - 1 entries");
        self.hashes.push(h);
        if self.hashes.len() * 2 > self.heads.len() {
            // Re-link every entry, oldest first, into a table twice the
            // size: chains stay newest-first.
            self.heads.clear();
            self.heads.resize((self.hashes.len() * 4).next_power_of_two().max(16), NIL);
            self.next.clear();
            for e in 0..self.hashes.len() {
                self.link(e as u32);
            }
        } else {
            self.link(entry);
        }
    }

    fn link(&mut self, entry: u32) {
        let bucket = self.hashes[entry as usize] as usize & (self.heads.len() - 1);
        self.next.push(self.heads[bucket]);
        self.heads[bucket] = entry;
    }

    /// Newest entry of the bucket `h` falls in, or [`NIL`].
    pub(crate) fn first(&self, h: u64) -> u32 {
        match self.heads.len() {
            0 => NIL,
            n => self.heads[h as usize & (n - 1)],
        }
    }

    /// Newest entry at or after `entry` on its chain whose hash is `h`, or
    /// [`NIL`] — the candidates a lookup compares keys with.
    pub(crate) fn matching(&self, mut entry: u32, h: u64) -> u32 {
        while entry != NIL && self.hashes[entry as usize] != h {
            entry = self.next[entry as usize];
        }
        entry
    }

    /// The entry linked before `entry` in its bucket, or [`NIL`].
    pub(crate) fn next(&self, entry: u32) -> u32 {
        self.next[entry as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn hash_of(v: &Value) -> u64 {
        KeyLane::of(LaneVal::of(v)).hash(HASH_SEED)
    }

    #[test]
    fn key_equality_and_hash_agree_with_key_bytes_on_every_pair() {
        let grid = [
            Value::Null,
            Value::Int(0),
            Value::Int(7),
            Value::Int(-7),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(7.0),
            Value::Float(7.5),
            Value::Float(-7.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(i64::MAX as f64),
            Value::Float(1e300),
            Value::Text(String::new()),
            Value::Text("7".into()),
            Value::Text("7.0".into()),
            Value::Text("abcdefgh".into()),
            Value::Text("abcdefghi".into()),
            Value::Text("abcdefgh\0".into()),
        ];
        let bytes = |v: &Value| {
            let mut out = Vec::new();
            v.key_bytes(&mut out);
            out
        };
        let mut equal_pairs = 0;
        for a in &grid {
            for b in &grid {
                let same_bytes = bytes(a) == bytes(b);
                let same_key = KeyLane::of(LaneVal::of(a)) == KeyLane::of(LaneVal::of(b));
                assert_eq!(same_key, same_bytes, "{a:?} vs {b:?}");
                if same_key {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
                    equal_pairs += 1;
                }
            }
        }
        // The diagonal plus 0 / 0.0 / -0.0, 7 / 7.0, -7 / -7.0 and
        // i64::MAX / 2^63 (which `key_bytes` saturates onto it).
        assert_eq!(equal_pairs, grid.len() + 6 + 2 + 2 + 2);
        // Composite keys hash in order.
        let two = |a: &Value, b: &Value| KeyLane::of(LaneVal::of(b)).hash(hash_of(a));
        assert_ne!(two(&grid[1], &grid[2]), two(&grid[2], &grid[1]));
    }

    #[test]
    fn chains_walk_newest_first_across_growth() {
        let mut index = ChainIndex::default();
        assert_eq!(index.first(3), NIL);
        // 100 entries under three hashes that share their low bits, so
        // they stay chained together however far the table grows.
        let hashes = [5u64, 5 + (1 << 40), 5 + (2 << 40)];
        for e in 0..100 {
            index.insert(hashes[e % 3]);
        }
        assert_eq!(index.len(), 100);
        for (k, h) in hashes.iter().enumerate() {
            let mut seen = Vec::new();
            let mut e = index.matching(index.first(*h), *h);
            while e != NIL {
                seen.push(e as usize);
                e = index.matching(index.next(e), *h);
            }
            let want: Vec<usize> = (0..100).rev().filter(|e| e % 3 == k).collect();
            assert_eq!(seen, want);
        }
        assert_eq!(index.matching(index.first(6), 6), NIL);
    }
}
