//! The byte-at-a-time AES-128 this crate shipped first (S-box lookups,
//! `xtime` MixColumns, bit-loop GF(2^8) multiply in InvMixColumns), kept
//! as the test oracle the production back-ends are compared against. It
//! follows FIPS 197 step by step and shares only constants (the S-boxes,
//! `RCON`) and `xtime` with them — not the key expansion, not a round.

use super::{xtime, BLOCK, INV_SBOX, KEY_LEN, RCON, ROUNDS, SBOX};

#[inline]
fn mul(a: u8, mut b: u8) -> u8 {
    // GF(2^8) multiply, used only in InvMixColumns (small constants).
    let mut acc = 0u8;
    let mut a = a;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// An expanded AES-128 key, bytewise reference implementation.
pub struct Bytewise {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl Bytewise {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Bytewise { round_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..ROUNDS {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[ROUNDS]);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK]) {
        add_round_key(block, &self.round_keys[ROUNDS]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for r in (1..ROUNDS).rev() {
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: state[4*c + r] is row r, column c (column-major, as FIPS 197).
#[inline]
pub(super) fn shift_rows(s: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = s[1];
    s[1] = s[5];
    s[5] = s[9];
    s[9] = s[13];
    s[13] = t;
    // Row 2: shift left by 2.
    s.swap(2, 10);
    s.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = s[15];
    s[15] = s[11];
    s[11] = s[7];
    s[7] = s[3];
    s[3] = t;
}

#[inline]
pub(super) fn inv_shift_rows(s: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = s[13];
    s[13] = s[9];
    s[9] = s[5];
    s[5] = s[1];
    s[1] = t;
    // Row 2: shift right by 2.
    s.swap(2, 10);
    s.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = s[3];
    s[3] = s[7];
    s[7] = s[11];
    s[11] = s[15];
    s[15] = t;
}

#[inline]
pub(super) fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        s[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
        s[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
        s[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
        s[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
    }
}

#[inline]
pub(super) fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = mul(col[0], 14) ^ mul(col[1], 11) ^ mul(col[2], 13) ^ mul(col[3], 9);
        s[4 * c + 1] = mul(col[0], 9) ^ mul(col[1], 14) ^ mul(col[2], 11) ^ mul(col[3], 13);
        s[4 * c + 2] = mul(col[0], 13) ^ mul(col[1], 9) ^ mul(col[2], 14) ^ mul(col[3], 11);
        s[4 * c + 3] = mul(col[0], 11) ^ mul(col[1], 13) ^ mul(col[2], 9) ^ mul(col[3], 14);
    }
}
