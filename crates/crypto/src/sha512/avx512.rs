//! x86-64 AVX-512 back-end: the SHA-512 compression function over eight
//! independent streams at once, one stream per 64-bit lane of a `zmm`
//! register. x86 has no SHA-512 instruction, so the parallelism comes from
//! the messages: a batch of page MACs is eight streams of the same length.
//!
//! With `aes::ni` and `sha256::ni` this is one of the three modules in the
//! workspace allowed to contain `unsafe` (`tests/unsafe_budget.rs` holds
//! everyone to that). It contains intrinsics only: staging, padding and
//! the length suffix stay in safe code in [`super::Sha512::finalize_lanes`].
//! Every `unsafe` block is one of two kinds:
//!
//! * an unaligned 64-byte load/store through a pointer derived from a
//!   reference to 64 bytes, inside a function that enables `avx512f`;
//! * the call to the `#[target_feature]` function, reachable only through
//!   a [`Detected`] value, and [`Detected::get`] — the sole constructor —
//!   returns `None` unless the CPU reports every feature the function
//!   enables.
//!
//! Constant time: the rounds and the message schedule use only 64-bit
//! adds, rotates, shifts and `vpternlogq`. Loading a block adds fixed
//! permutes (the lane transpose) and one `vpshufb` with a fixed mask (the
//! big-endian byte swap). Nothing branches on data, and every address is a
//! lane's block, the state, or a round constant at a public index.

use super::{BLOCK_LEN, K, LANES};
use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_loadu_si512, _mm512_permutex2var_epi64, _mm512_ror_epi64,
    _mm512_set1_epi64, _mm512_setr_epi64, _mm512_shuffle_epi8, _mm512_srli_epi64,
    _mm512_storeu_si512, _mm512_ternarylogic_epi64, _mm512_unpackhi_epi64, _mm512_unpacklo_epi64,
};

/// Eight chaining states, word-major: lane `l` of `state[w]` is word `w`
/// of stream `l`, so each word loads as one register.
pub(super) type States = [[u64; LANES]; 8];

/// Proof that this CPU has AVX-512F (and AVX-512BW, for the byte swap).
#[derive(Clone, Copy)]
pub(crate) struct Detected(());

impl Detected {
    /// `Some` iff this CPU reports `avx512f` and `avx512bw`.
    pub(super) fn get() -> Option<Detected> {
        (std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw"))
        .then_some(Detected(()))
    }

    /// Fold one block of every stream into `state` (FIPS 180-4 §6.4.2,
    /// once per lane): `blocks[l]` belongs to stream `l`.
    pub(super) fn compress(self, state: &mut States, blocks: [&[u8; BLOCK_LEN]; LANES]) {
        // SAFETY: `self` exists, so `Detected::get` saw `avx512f` and
        // `avx512bw` — everything `compress_lanes` enables.
        unsafe { compress_lanes(state, blocks) }
    }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn load_bytes(bytes: &[u8; 64]) -> __m512i {
    // SAFETY: `bytes` is a live reference to 64 readable bytes, and
    // `_mm512_loadu_si512` has no alignment requirement.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn load_words(words: &[u64; LANES]) -> __m512i {
    // SAFETY: `words` is a live reference to 64 readable bytes, and
    // `_mm512_loadu_si512` has no alignment requirement.
    unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store_words(words: &mut [u64; LANES], v: __m512i) {
    // SAFETY: `words` is a live exclusive reference to 64 writable bytes,
    // and `_mm512_storeu_si512` has no alignment requirement.
    unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), v) }
}

/// Transpose eight rows of eight words: `rows[l][w]` → `out[w][l]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(rows: [__m512i; 8]) -> [__m512i; 8] {
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    // Pairs of rows, even and odd words: [r0w0 r1w0 r0w2 r1w2 …].
    let (e01, o01) = (_mm512_unpacklo_epi64(r0, r1), _mm512_unpackhi_epi64(r0, r1));
    let (e23, o23) = (_mm512_unpacklo_epi64(r2, r3), _mm512_unpackhi_epi64(r2, r3));
    let (e45, o45) = (_mm512_unpacklo_epi64(r4, r5), _mm512_unpackhi_epi64(r4, r5));
    let (e67, o67) = (_mm512_unpacklo_epi64(r6, r7), _mm512_unpackhi_epi64(r6, r7));
    // Quads of rows: words {w, w + 4} of four rows each.
    let lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    let hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    let q0 = _mm512_permutex2var_epi64(e01, lo, e23); // w0 | w4 of rows 0–3
    let q2 = _mm512_permutex2var_epi64(e01, hi, e23); // w2 | w6
    let q1 = _mm512_permutex2var_epi64(o01, lo, o23); // w1 | w5
    let q3 = _mm512_permutex2var_epi64(o01, hi, o23); // w3 | w7
    let p0 = _mm512_permutex2var_epi64(e45, lo, e67); // the same, rows 4–7
    let p2 = _mm512_permutex2var_epi64(e45, hi, e67);
    let p1 = _mm512_permutex2var_epi64(o45, lo, o67);
    let p3 = _mm512_permutex2var_epi64(o45, hi, o67);
    // All eight rows: low halves give words 0–3, high halves words 4–7.
    let first = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    let last = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    [
        _mm512_permutex2var_epi64(q0, first, p0),
        _mm512_permutex2var_epi64(q1, first, p1),
        _mm512_permutex2var_epi64(q2, first, p2),
        _mm512_permutex2var_epi64(q3, first, p3),
        _mm512_permutex2var_epi64(q0, last, p0),
        _mm512_permutex2var_epi64(q1, last, p1),
        _mm512_permutex2var_epi64(q2, last, p2),
        _mm512_permutex2var_epi64(q3, last, p3),
    ]
}

#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi64(a, b)
}

/// `a ^ b ^ c`.
#[inline]
#[target_feature(enable = "avx512f")]
fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
    _mm512_ternarylogic_epi64::<0x96>(a, b, c)
}

/// Σ0 / Σ1 of the rounds, σ0 / σ1 of the message schedule.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma0(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi64::<28>(x), _mm512_ror_epi64::<34>(x), _mm512_ror_epi64::<39>(x))
}

#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma1(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi64::<14>(x), _mm512_ror_epi64::<18>(x), _mm512_ror_epi64::<41>(x))
}

#[inline]
#[target_feature(enable = "avx512f")]
fn small_sigma0(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi64::<1>(x), _mm512_ror_epi64::<8>(x), _mm512_srli_epi64::<7>(x))
}

#[inline]
#[target_feature(enable = "avx512f")]
fn small_sigma1(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi64::<19>(x), _mm512_ror_epi64::<61>(x), _mm512_srli_epi64::<6>(x))
}

#[target_feature(enable = "avx512f,avx512bw")]
fn compress_lanes(state: &mut States, blocks: [&[u8; BLOCK_LEN]; LANES]) {
    // Big-endian words → little-endian lanes, within each 128-bit lane.
    let byte_swap = _mm512_setr_epi64(
        0x0001_0203_0405_0607,
        0x0809_0a0b_0c0d_0e0f,
        0x0001_0203_0405_0607,
        0x0809_0a0b_0c0d_0e0f,
        0x0001_0203_0405_0607,
        0x0809_0a0b_0c0d_0e0f,
        0x0001_0203_0405_0607,
        0x0809_0a0b_0c0d_0e0f,
    );
    // W[0..16] with one lane per stream: each half-block is a row of
    // eight words, transposed into eight word registers.
    let half = |h: usize| {
        transpose(blocks.map(|block| {
            let (halves, _) = block.as_chunks::<64>();
            _mm512_shuffle_epi8(load_bytes(&halves[h]), byte_swap)
        }))
    };
    let (first, second) = (half(0), half(1));
    let mut w: [__m512i; 16] =
        core::array::from_fn(|i| if i < 8 { first[i] } else { second[i - 8] });

    let start = state.each_ref().map(|words| load_words(words));
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = start;

    // One round; the caller rotates the names instead of the values.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {{
            let kw = add(w[$t % 16], _mm512_set1_epi64(K[$t] as i64));
            let ch = _mm512_ternarylogic_epi64::<0xCA>($e, $f, $g);
            let t1 = add(add($h, big_sigma1($e)), add(ch, kw));
            let maj = _mm512_ternarylogic_epi64::<0xE8>($a, $b, $c);
            $d = add($d, t1);
            $h = add(t1, add(big_sigma0($a), maj));
        }};
    }
    for r in 0..5 {
        if r > 0 {
            // W[16r..16r+16] in place over W[16(r-1)..]: each word reads
            // W[t-16], W[t-15], W[t-7] and W[t-2], old or just rewritten.
            for j in 0..16 {
                w[j] = add(
                    add(w[j], small_sigma0(w[(j + 1) % 16])),
                    add(w[(j + 9) % 16], small_sigma1(w[(j + 14) % 16])),
                );
            }
        }
        let t = 16 * r;
        round!(a, b, c, d, e, f, g, h, t);
        round!(h, a, b, c, d, e, f, g, t + 1);
        round!(g, h, a, b, c, d, e, f, t + 2);
        round!(f, g, h, a, b, c, d, e, t + 3);
        round!(e, f, g, h, a, b, c, d, t + 4);
        round!(d, e, f, g, h, a, b, c, t + 5);
        round!(c, d, e, f, g, h, a, b, t + 6);
        round!(b, c, d, e, f, g, h, a, t + 7);
        round!(a, b, c, d, e, f, g, h, t + 8);
        round!(h, a, b, c, d, e, f, g, t + 9);
        round!(g, h, a, b, c, d, e, f, t + 10);
        round!(f, g, h, a, b, c, d, e, t + 11);
        round!(e, f, g, h, a, b, c, d, t + 12);
        round!(d, e, f, g, h, a, b, c, t + 13);
        round!(c, d, e, f, g, h, a, b, t + 14);
        round!(b, c, d, e, f, g, h, a, t + 15);
    }

    for ((words, s), v) in state.iter_mut().zip(start).zip([a, b, c, d, e, f, g, h]) {
        store_words(words, add(s, v));
    }
}
