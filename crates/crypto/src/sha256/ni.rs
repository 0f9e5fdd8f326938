//! x86-64 SHA-NI back-end: the SHA-256 compression function over a run of
//! blocks, four rounds per `sha256rnds2` pair, the message schedule on
//! `sha256msg1`/`sha256msg2`, the chaining state held in two registers
//! from the first block to the last.
//!
//! With `aes::ni` this is one of the two modules in the workspace allowed
//! to contain `unsafe` (`tests/unsafe_budget.rs` holds everyone to that).
//! It contains intrinsics only: buffering, padding and the length suffix
//! stay in safe code in [`super::Sha256`]. Every `unsafe` block is one of
//! two kinds:
//!
//! * an unaligned 16-byte load/store through a pointer derived from a
//!   reference to 16 bytes (SSE2, part of the x86-64 baseline);
//! * the call to the `#[target_feature]` function, reachable only through
//!   a [`Detected`] value, and [`Detected::get`] — the sole constructor —
//!   returns `None` unless the CPU reports every feature the function
//!   enables.
//!
//! The instructions take a data-independent number of cycles and touch no
//! secret-indexed memory.

use super::{BLOCK_LEN, K};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that this CPU has the SHA extensions (and the SSSE3 / SSE4.1
/// shuffles the kernel uses around them).
#[derive(Clone, Copy)]
pub(super) struct Detected(());

impl Detected {
    /// `Some` iff this CPU reports `sha`, `ssse3` and `sse4.1`.
    pub(super) fn get() -> Option<Detected> {
        (std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1"))
        .then_some(Detected(()))
    }

    /// Fold `blocks` into `state` (FIPS 180-4 §6.2.2, once per block).
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // SAFETY: `self` exists, so `Detected::get` saw `sha`, `ssse3`
        // and `sse4.1` — everything `compress_blocks` enables.
        unsafe { compress_blocks(state, blocks) }
    }
}

#[inline(always)]
fn load_words(words: &[u32; 4]) -> __m128i {
    // SAFETY: `words` is a live reference to 16 readable bytes, and
    // `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

#[inline(always)]
fn load_bytes(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a live reference to 16 readable bytes, and
    // `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

#[inline(always)]
fn store_words(words: &mut [u32; 4], v: __m128i) {
    // SAFETY: `words` is a live exclusive reference to 16 writable bytes,
    // and `_mm_storeu_si128` has no alignment requirement.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    // Big-endian message words → little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let (lo, hi) = state.split_at_mut(4);
    let lo: &mut [u32; 4] = lo.try_into().expect("4 words");
    let hi: &mut [u32; 4] = hi.try_into().expect("4 words");
    // `sha256rnds2` wants the state as ABEF / CDGH.
    let cdab = _mm_shuffle_epi32(load_words(lo), 0xB1);
    let efgh = _mm_shuffle_epi32(load_words(hi), 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quads, _) = block.as_chunks::<16>();
        let mut w0 = _mm_shuffle_epi8(load_bytes(&quads[0]), byte_swap);
        let mut w1 = _mm_shuffle_epi8(load_bytes(&quads[1]), byte_swap);
        let mut w2 = _mm_shuffle_epi8(load_bytes(&quads[2]), byte_swap);
        let mut w3 = _mm_shuffle_epi8(load_bytes(&quads[3]), byte_swap);

        // Four rounds on the schedule words in `$w` (W[4g..4g+4]).
        macro_rules! rounds4 {
            ($g:expr, $w:ident) => {{
                let k: &[u32; 4] = K[4 * $g..4 * $g + 4].try_into().expect("4 constants");
                let wk = _mm_add_epi32($w, load_words(k));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // The same, then replace `$a` = W[4g..] with W[4(g+4)..], built
        // from the three quads after it: σ0 terms from `$a`/`$b`, W[t-7]
        // straddling `$c`/`$d`, σ1 terms from `$d` and the new words.
        macro_rules! rounds4_schedule {
            ($g:expr, $a:ident, $b:ident, $c:ident, $d:ident) => {{
                rounds4!($g, $a);
                let sigma0 = _mm_sha256msg1_epu32($a, $b);
                let w_t7 = _mm_alignr_epi8($d, $c, 4);
                $a = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_t7), $d);
            }};
        }
        rounds4_schedule!(0, w0, w1, w2, w3);
        rounds4_schedule!(1, w1, w2, w3, w0);
        rounds4_schedule!(2, w2, w3, w0, w1);
        rounds4_schedule!(3, w3, w0, w1, w2);
        rounds4_schedule!(4, w0, w1, w2, w3);
        rounds4_schedule!(5, w1, w2, w3, w0);
        rounds4_schedule!(6, w2, w3, w0, w1);
        rounds4_schedule!(7, w3, w0, w1, w2);
        rounds4_schedule!(8, w0, w1, w2, w3);
        rounds4_schedule!(9, w1, w2, w3, w0);
        rounds4_schedule!(10, w2, w3, w0, w1);
        rounds4_schedule!(11, w3, w0, w1, w2);
        rounds4!(12, w0);
        rounds4!(13, w1);
        rounds4!(14, w2);
        rounds4!(15, w3);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF / CDGH → DCBA / HGFE in memory order.
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    store_words(lo, _mm_blend_epi16(feba, dchg, 0xF0));
    store_words(hi, _mm_alignr_epi8(dchg, feba, 8));
}
