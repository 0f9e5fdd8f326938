//! AES-128 block cipher (FIPS 197).
//!
//! Two back-ends compute the same function:
//!
//! * [`soft`] — safe, word-oriented T-table code (four 1 KiB tables per
//!   direction, built in `const`; decryption runs the equivalent inverse
//!   cipher over a pre-transformed key schedule). Runs everywhere.
//! * [`ni`] — x86-64 AES-NI, eight independent blocks in flight.
//!
//! [`Aes128::new`] picks the back-end once, from what the CPU reports;
//! nothing else in the workspace can choose. The bytewise implementation
//! this module started as survives under `#[cfg(test)]` as the oracle both
//! back-ends are property-tested against.
//!
//! IronSafe encrypts 4 KiB database pages in CBC mode and network records
//! in CTR mode on top of this block primitive — see [`crate::modes`], which
//! owns all chaining and feeds the multi-block entry points with blocks
//! that do not depend on one another (CBC-decrypt inputs, CTR counters).

#[cfg(test)]
mod bytewise;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;
mod soft;

/// AES block size in bytes.
pub const BLOCK: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;
const ROUNDS: usize = 10;

/// The eleven round keys in FIPS 197 byte order.
type RoundKeys = [[u8; BLOCK]; ROUNDS + 1];

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

// Inverse S-box, computed at compile time from SBOX.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// FIPS 197 §5.2 key expansion, shared by every back-end.
fn expand_key(key: &[u8; KEY_LEN]) -> RoundKeys {
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
    let mut round_keys = [[0u8; BLOCK]; ROUNDS + 1];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    round_keys
}

#[derive(Clone)]
enum Backend {
    Soft(soft::Keys),
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Keys),
}

/// An expanded AES-128 key ready for encryption and decryption.
#[derive(Clone)]
pub struct Aes128 {
    backend: Backend,
}

impl Aes128 {
    /// Expand a 16-byte key (encryption and decryption schedules) for the
    /// fastest back-end this CPU supports.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let round_keys = expand_key(key);
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = ni::Keys::new(&round_keys) {
            return Aes128 { backend: Backend::Ni(keys) };
        }
        Aes128 { backend: Backend::Soft(soft::Keys::new(&round_keys)) }
    }

    /// The portable back-end regardless of what the CPU offers, so tests
    /// cover it on AES-NI machines too.
    #[cfg(test)]
    pub(crate) fn new_portable(key: &[u8; KEY_LEN]) -> Self {
        Aes128 { backend: Backend::Soft(soft::Keys::new(&expand_key(key))) }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK]) {
        self.encrypt_blocks(std::slice::from_mut(block));
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK]) {
        self.decrypt_blocks(std::slice::from_mut(block));
    }

    /// Encrypt every block of `blocks` in place, each independently of the
    /// others (ECB); back-ends overlap the work of neighbouring blocks.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK]]) {
        match &self.backend {
            Backend::Soft(keys) => keys.encrypt_blocks(blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(keys) => keys.encrypt_blocks(blocks),
        }
    }

    /// Decrypt every block of `blocks` in place, each independently of the
    /// others.
    pub fn decrypt_blocks(&self, blocks: &mut [[u8; BLOCK]]) {
        match &self.backend {
            Backend::Soft(keys) => keys.decrypt_blocks(blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(keys) => keys.decrypt_blocks(blocks),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    pub(crate) use super::bytewise::Bytewise;
    use super::bytewise::{inv_mix_columns, inv_shift_rows, mix_columns, shift_rows};
    use super::*;
    use proptest::prelude::*;

    /// Every back-end this machine can run, labelled: the portable one
    /// always, plus whatever `Aes128::new` selects when that differs.
    pub(crate) fn backends(key: &[u8; KEY_LEN]) -> Vec<(&'static str, Aes128)> {
        let mut all = vec![("portable", Aes128::new_portable(key))];
        let detected = Aes128::new(key);
        if !matches!(detected.backend, Backend::Soft(_)) {
            all.push(("detected", detected));
        }
        all
    }

    const FIPS_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    #[test]
    fn fips197_appendix_b() {
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        for (name, aes) in backends(&FIPS_KEY) {
            let mut block = plain;
            aes.encrypt_block(&mut block);
            assert_eq!(block, expected, "{name}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain, "{name}");
        }
        // The oracle is held to the same vector it judges the others by.
        let oracle = Bytewise::new(&FIPS_KEY);
        let mut block = plain;
        oracle.encrypt_block(&mut block);
        assert_eq!(block, expected);
        oracle.decrypt_block(&mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = std::array::from_fn(|i| i as u8 * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        for (name, aes) in backends(&key) {
            let mut block = plain;
            aes.encrypt_block(&mut block);
            assert_eq!(block, expected, "{name}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain, "{name}");
        }
    }

    #[test]
    fn roundtrip_random_blocks() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..64 {
            let key: [u8; 16] = rng.gen();
            let plain: [u8; 16] = rng.gen();
            for (name, aes) in backends(&key) {
                let mut block = plain;
                aes.encrypt_block(&mut block);
                assert_ne!(block, plain, "{name}: encryption must change the block");
                aes.decrypt_block(&mut block);
                assert_eq!(block, plain, "{name}");
            }
        }
    }

    #[test]
    fn inv_sbox_is_inverse() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn mix_columns_roundtrip() {
        let mut s: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(3));
        let orig = s;
        mix_columns(&mut s);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn shift_rows_roundtrip() {
        let mut s: [u8; 16] = std::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn expanded_key_matches_fips197_appendix_a1() {
        let rk = expand_key(&FIPS_KEY);
        assert_eq!(rk[0], FIPS_KEY);
        // w[40..44], the last round key of the Appendix A.1 walk-through.
        assert_eq!(
            rk[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ]
        );
    }

    proptest! {
        /// Single blocks: every back-end equals the bytewise oracle in
        /// both directions.
        #[test]
        fn single_blocks_match_the_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let oracle = Bytewise::new(&key);
            let (mut enc, mut dec) = (block, block);
            oracle.encrypt_block(&mut enc);
            oracle.decrypt_block(&mut dec);
            for (name, aes) in backends(&key) {
                let (mut e, mut d) = (block, block);
                aes.encrypt_block(&mut e);
                aes.decrypt_block(&mut d);
                prop_assert_eq!(e, enc, "{} encrypt", name);
                prop_assert_eq!(d, dec, "{} decrypt", name);
            }
        }

        /// Multi-block calls of every length around the 8-block pipeline
        /// width equal block-at-a-time oracle calls.
        #[test]
        fn block_runs_match_the_oracle(key in any::<[u8; 16]>(), seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let oracle = Bytewise::new(&key);
            for n in 0..=19usize {
                let blocks: Vec<[u8; 16]> = (0..n).map(|_| rng.gen()).collect();
                let mut enc = blocks.clone();
                let mut dec = blocks.clone();
                enc.iter_mut().for_each(|b| oracle.encrypt_block(b));
                dec.iter_mut().for_each(|b| oracle.decrypt_block(b));
                for (name, aes) in backends(&key) {
                    let (mut e, mut d) = (blocks.clone(), blocks.clone());
                    aes.encrypt_blocks(&mut e);
                    aes.decrypt_blocks(&mut d);
                    prop_assert_eq!(&e, &enc, "{} encrypt, {} blocks", name, n);
                    prop_assert_eq!(&d, &dec, "{} decrypt, {} blocks", name, n);
                }
            }
        }
    }
}
