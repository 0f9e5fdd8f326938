//! Portable AES-128: the classic word-sliced T-table formulation.
//!
//! A round of SubBytes + ShiftRows + MixColumns on one column is four
//! table lookups and four XORs: `TE[j][x]` is column `j` of the MixColumns
//! matrix times `SBOX[x]`, packed big-endian into a `u32`, so XOR-ing the
//! four lookups of a column's (shifted) input bytes yields the output
//! column. Decryption uses the equivalent inverse cipher (FIPS 197 §5.3.5):
//! the same round shape over `TD` tables, with InvMixColumns folded into
//! round keys 1..=9 once at key set-up.
//!
//! Side channels: like the bytewise S-box code this replaces, the lookups
//! are indexed by secret bytes, so the code is not constant-time with
//! respect to the data cache. The simulated platform does not model that
//! attacker; on hardware that matters, the AES-NI back-end is selected.

use super::{xtime, RoundKeys, BLOCK, INV_SBOX, ROUNDS, SBOX};

const fn mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// `[T0, T1, T2, T3]` where `T0[x]` packs `coeffs · sbox[x]` big-endian
/// and `Tj` is `T0` rotated right by `8·j` bits.
const fn tables(sbox: &[u8; 256], coeffs: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let w = u32::from_be_bytes([
            mul(s, coeffs[0]),
            mul(s, coeffs[1]),
            mul(s, coeffs[2]),
            mul(s, coeffs[3]),
        ]);
        let mut j = 0;
        while j < 4 {
            t[j][x] = w.rotate_right(8 * j as u32);
            j += 1;
        }
        x += 1;
    }
    t
}

// Statics, not consts: 4 KiB each, referenced by address from the rounds.
static TE: [[u32; 256]; 4] = tables(&SBOX, [2, 1, 1, 3]);
static TD: [[u32; 256]; 4] = tables(&INV_SBOX, [14, 9, 13, 11]);

type Words = [[u32; 4]; ROUNDS + 1];

/// Encryption and (pre-transformed) decryption schedules as big-endian
/// column words.
#[derive(Clone)]
pub(super) struct Keys {
    enc: Words,
    dec: Words,
}

#[inline(always)]
fn byte(w: u32, shift: u32) -> usize {
    ((w >> shift) & 0xff) as usize
}

/// InvMixColumns of one column word, via `TD[j][SBOX[x]] = coeffs · x`.
fn inv_mix_column(w: u32) -> u32 {
    TD[0][SBOX[byte(w, 24)] as usize]
        ^ TD[1][SBOX[byte(w, 16)] as usize]
        ^ TD[2][SBOX[byte(w, 8)] as usize]
        ^ TD[3][SBOX[byte(w, 0)] as usize]
}

impl Keys {
    pub(super) fn new(round_keys: &RoundKeys) -> Keys {
        let mut enc = [[0u32; 4]; ROUNDS + 1];
        for (words, rk) in enc.iter_mut().zip(round_keys) {
            for (w, col) in words.iter_mut().zip(rk.chunks_exact(4)) {
                *w = u32::from_be_bytes(col.try_into().expect("4-byte column"));
            }
        }
        let mut dec = [[0u32; 4]; ROUNDS + 1];
        for (r, words) in dec.iter_mut().enumerate() {
            *words = enc[ROUNDS - r];
            if r != 0 && r != ROUNDS {
                for w in words.iter_mut() {
                    *w = inv_mix_column(*w);
                }
            }
        }
        Keys { enc, dec }
    }

    pub(super) fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK]]) {
        for block in blocks {
            // ShiftRows: output column c takes row r from column c + r.
            crypt(block, &self.enc, &TE, &SBOX, [0, 1, 2, 3]);
        }
    }

    pub(super) fn decrypt_blocks(&self, blocks: &mut [[u8; BLOCK]]) {
        for block in blocks {
            // InvShiftRows: output column c takes row r from column c − r.
            crypt(block, &self.dec, &TD, &INV_SBOX, [0, 3, 2, 1]);
        }
    }
}

/// One block through ten table rounds. `rot[r]` is the column offset row
/// `r` is read from — the only thing besides the tables that differs
/// between the cipher and the equivalent inverse cipher.
#[inline(always)]
fn crypt(
    block: &mut [u8; BLOCK],
    rk: &Words,
    t: &[[u32; 256]; 4],
    last: &[u8; 256],
    rot: [usize; 4],
) {
    let mut s = [0u32; 4];
    for (c, w) in s.iter_mut().enumerate() {
        *w = u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4-byte column"))
            ^ rk[0][c];
    }
    for k in &rk[1..ROUNDS] {
        let mut n = [0u32; 4];
        for (c, w) in n.iter_mut().enumerate() {
            *w = t[0][byte(s[(c + rot[0]) % 4], 24)]
                ^ t[1][byte(s[(c + rot[1]) % 4], 16)]
                ^ t[2][byte(s[(c + rot[2]) % 4], 8)]
                ^ t[3][byte(s[(c + rot[3]) % 4], 0)]
                ^ k[c];
        }
        s = n;
    }
    // Last round: no MixColumns, so plain S-box bytes.
    for c in 0..4 {
        let w = u32::from_be_bytes([
            last[byte(s[(c + rot[0]) % 4], 24)],
            last[byte(s[(c + rot[1]) % 4], 16)],
            last[byte(s[(c + rot[2]) % 4], 8)],
            last[byte(s[(c + rot[3]) % 4], 0)],
        ]) ^ rk[ROUNDS][c];
        block[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
    }
}
