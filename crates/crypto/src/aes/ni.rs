//! x86-64 AES-NI back-end: one `aesenc`/`aesdec` per round per block, eight
//! independent blocks interleaved so the unit's latency is hidden.
//!
//! With `sha256::ni` this is one of the two modules in the workspace
//! allowed to contain `unsafe` (`tests/unsafe_budget.rs` holds everyone to
//! that). It contains intrinsics only: no chaining, no padding, no
//! counters — those stay in safe code in [`crate::modes`]. Every `unsafe`
//! block is one of two kinds:
//!
//! * an unaligned 16-byte load/store through a pointer derived from a
//!   `&[u8; 16]` / `&mut [u8; 16]` (SSE2, part of the x86-64 baseline);
//! * a call to a `#[target_feature(enable = "aes")]` function, reachable
//!   only through a [`Keys`] value, and [`Keys::new`] — the sole
//!   constructor — returns `None` unless the CPU reports AES-NI.
//!
//! The instructions take a data-independent number of cycles and touch no
//! secret-indexed memory: this path is constant-time.

use super::{RoundKeys, BLOCK, ROUNDS};
use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks kept in flight per batch (half of the sixteen XMM registers).
const LANES: usize = 8;

type Schedule = [__m128i; ROUNDS + 1];

/// Encryption schedule and `aesdec`-ready decryption schedule. Holding a
/// `Keys` is the proof that AES-NI was detected.
#[derive(Clone)]
pub(super) struct Keys {
    enc: Schedule,
    dec: Schedule,
}

#[inline(always)]
fn load(block: &[u8; BLOCK]) -> __m128i {
    // SAFETY: `block` is a live reference to 16 readable bytes, and
    // `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline(always)]
fn store(block: &mut [u8; BLOCK], v: __m128i) {
    // SAFETY: `block` is a live exclusive reference to 16 writable bytes,
    // and `_mm_storeu_si128` has no alignment requirement.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
}

impl Keys {
    /// `Some` iff this CPU has AES-NI.
    pub(super) fn new(round_keys: &RoundKeys) -> Option<Keys> {
        if !std::arch::is_x86_feature_detected!("aes") {
            return None;
        }
        let enc = round_keys.map(|rk| load(&rk));
        // SAFETY: the `aes` feature was detected just above.
        let dec = unsafe { decryption_schedule(&enc) };
        Some(Keys { enc, dec })
    }

    pub(super) fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK]]) {
        // SAFETY: `self` exists, so `Keys::new` detected the `aes` feature.
        unsafe { encrypt_blocks(&self.enc, blocks) }
    }

    pub(super) fn decrypt_blocks(&self, blocks: &mut [[u8; BLOCK]]) {
        // SAFETY: `self` exists, so `Keys::new` detected the `aes` feature.
        unsafe { decrypt_blocks(&self.dec, blocks) }
    }
}

/// The equivalent-inverse-cipher schedule `aesdec` expects: the encryption
/// round keys in reverse, InvMixColumns applied to the nine inner ones.
#[target_feature(enable = "aes")]
fn decryption_schedule(enc: &Schedule) -> Schedule {
    let mut dec = *enc;
    dec.reverse();
    for k in &mut dec[1..ROUNDS] {
        *k = _mm_aesimc_si128(*k);
    }
    dec
}

/// Generates a function running all of `blocks` through `rk` with the given
/// round instructions, `LANES` blocks at a time and a shorter last batch.
macro_rules! block_pipeline {
    ($name:ident, $round:ident, $last:ident) => {
        #[target_feature(enable = "aes")]
        fn $name(rk: &Schedule, blocks: &mut [[u8; BLOCK]]) {
            for batch in blocks.chunks_mut(LANES) {
                let n = batch.len();
                // Lanes past `n` are initialised but never advanced or stored.
                let mut s = [rk[0]; LANES];
                for (lane, block) in s.iter_mut().zip(batch.iter()) {
                    *lane = _mm_xor_si128(load(block), rk[0]);
                }
                if n == LANES {
                    for k in &rk[1..ROUNDS] {
                        for lane in &mut s {
                            *lane = $round(*lane, *k);
                        }
                    }
                    for lane in &mut s {
                        *lane = $last(*lane, rk[ROUNDS]);
                    }
                } else {
                    for lane in &mut s[..n] {
                        for k in &rk[1..ROUNDS] {
                            *lane = $round(*lane, *k);
                        }
                        *lane = $last(*lane, rk[ROUNDS]);
                    }
                }
                for (block, lane) in batch.iter_mut().zip(s) {
                    store(block, lane);
                }
            }
        }
    };
}

block_pipeline!(encrypt_blocks, _mm_aesenc_si128, _mm_aesenclast_si128);
block_pipeline!(decrypt_blocks, _mm_aesdec_si128, _mm_aesdeclast_si128);
