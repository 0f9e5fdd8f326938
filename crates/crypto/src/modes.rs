//! Block-cipher modes of operation: CTR and CBC (with PKCS#7 padding).
//!
//! * **CBC + HMAC (encrypt-then-MAC)** is used for database pages, matching
//!   the SQLCipher layout the paper adopts: each 4 KiB page carries a random
//!   IV and an HMAC over `IV || ciphertext`.
//! * **CTR** is used for network records where random access and exact-size
//!   ciphertexts matter.
//!
//! All chaining lives here, in safe code, on top of [`Aes128`]'s multi-block
//! calls. CBC decryption and the CTR keystream have no dependency between
//! blocks, so they hand the cipher [`PIPELINE`] blocks at a time; CBC
//! encryption feeds each ciphertext block into the next and stays serial.

use crate::aes::{Aes128, BLOCK};
use crate::{CryptoError, Result};

/// Independent blocks handed to the cipher per call: as many as the
/// AES-NI back-end keeps in flight.
const PIPELINE: usize = 8;

#[inline(always)]
fn xor_block(block: &mut [u8; BLOCK], mask: &[u8; BLOCK]) {
    for (b, m) in block.iter_mut().zip(mask) {
        *b ^= m;
    }
}

/// Encrypt or decrypt `data` in place with AES-128-CTR.
///
/// The 16-byte `nonce` is used as the initial counter block; the low 32 bits
/// are incremented per block (big-endian), as in NIST SP 800-38A.
pub fn ctr_xor(aes: &Aes128, nonce: &[u8; BLOCK], data: &mut [u8]) {
    let low = u32::from_be_bytes(nonce[12..].try_into().expect("4-byte counter word"));
    // Counters wrap within the low word only, so block `i` of the message
    // uses `low + i (mod 2^32)` wherever in a batch the wrap falls.
    let mut index = 0u32;
    for chunk in data.chunks_mut(PIPELINE * BLOCK) {
        let blocks = chunk.len().div_ceil(BLOCK);
        let mut keystream = [*nonce; PIPELINE];
        for counter in &mut keystream[..blocks] {
            counter[12..].copy_from_slice(&low.wrapping_add(index).to_be_bytes());
            index = index.wrapping_add(1);
        }
        aes.encrypt_blocks(&mut keystream[..blocks]);
        for (b, k) in chunk.iter_mut().zip(keystream.as_flattened()) {
            *b ^= k;
        }
    }
}

fn cbc_encrypt_blocks(aes: &Aes128, iv: &[u8; BLOCK], blocks: &mut [[u8; BLOCK]]) {
    let mut prev = *iv;
    for block in blocks {
        xor_block(block, &prev);
        aes.encrypt_block(block);
        prev = *block;
    }
}

fn cbc_decrypt_blocks(aes: &Aes128, iv: &[u8; BLOCK], blocks: &mut [[u8; BLOCK]]) {
    let mut prev = *iv;
    for batch in blocks.chunks_mut(PIPELINE) {
        // Plaintext i = D(ciphertext i) ^ ciphertext i-1: keep the batch's
        // ciphertext while the cipher overwrites it in place.
        let mut cipher = [[0u8; BLOCK]; PIPELINE];
        let cipher = &mut cipher[..batch.len()];
        cipher.copy_from_slice(batch);
        aes.decrypt_blocks(batch);
        xor_block(&mut batch[0], &prev);
        for (block, before) in batch[1..].iter_mut().zip(cipher.iter()) {
            xor_block(block, before);
        }
        prev = cipher[cipher.len() - 1];
    }
}

/// `data` as whole blocks; `None` unless its length is a block multiple.
fn as_blocks(data: &mut [u8]) -> Option<&mut [[u8; BLOCK]]> {
    let (blocks, rest) = data.as_chunks_mut::<BLOCK>();
    rest.is_empty().then_some(blocks)
}

/// Encrypt `plain` with AES-128-CBC and PKCS#7 padding.
///
/// Output length is `plain.len()` rounded up to the next multiple of 16
/// (a full padding block is added when the input is already aligned).
pub fn cbc_encrypt(aes: &Aes128, iv: &[u8; BLOCK], plain: &[u8]) -> Vec<u8> {
    let pad = BLOCK - plain.len() % BLOCK;
    let mut out = Vec::with_capacity(plain.len() + pad);
    out.extend_from_slice(plain);
    out.resize(plain.len() + pad, pad as u8);
    cbc_encrypt_blocks(aes, iv, as_blocks(&mut out).expect("padded to a block multiple"));
    out
}

/// Decrypt AES-128-CBC ciphertext and strip PKCS#7 padding.
pub fn cbc_decrypt(aes: &Aes128, iv: &[u8; BLOCK], cipher: &[u8]) -> Result<Vec<u8>> {
    if cipher.is_empty() {
        return Err(CryptoError::MalformedCiphertext("CBC length not block-aligned"));
    }
    let mut out = cipher.to_vec();
    cbc_decrypt_aligned(aes, iv, &mut out)?;
    let pad = *out.last().expect("non-empty") as usize;
    if pad == 0 || pad > BLOCK || pad > out.len() {
        return Err(CryptoError::MalformedCiphertext("bad PKCS#7 padding length"));
    }
    if !out[out.len() - pad..].iter().all(|&b| b as usize == pad) {
        return Err(CryptoError::MalformedCiphertext("bad PKCS#7 padding bytes"));
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

/// Encrypt a fixed-size buffer with AES-128-CBC *without* padding.
///
/// Database pages are always an exact multiple of the block size, so the
/// secure pager uses this unpadded variant to keep ciphertext the same size
/// as plaintext. Panics if `data` is not block-aligned.
pub fn cbc_encrypt_aligned(aes: &Aes128, iv: &[u8; BLOCK], data: &mut [u8]) {
    let blocks = as_blocks(data).expect("aligned CBC requires block-multiple input");
    cbc_encrypt_blocks(aes, iv, blocks);
}

/// Inverse of [`cbc_encrypt_aligned`].
pub fn cbc_decrypt_aligned(aes: &Aes128, iv: &[u8; BLOCK], data: &mut [u8]) -> Result<()> {
    let blocks =
        as_blocks(data).ok_or(CryptoError::MalformedCiphertext("CBC length not block-aligned"))?;
    cbc_decrypt_blocks(aes, iv, blocks);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::tests::{backends, Bytewise};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn aes() -> Aes128 {
        Aes128::new(&[7u8; 16])
    }

    /// The serial, block-at-a-time modes this module used to be, over the
    /// bytewise cipher: the reference the pipelined code must equal.
    mod oracle {
        use super::{Bytewise, BLOCK};

        pub fn increment_counter(counter: &mut [u8; BLOCK]) {
            for i in (12..BLOCK).rev() {
                counter[i] = counter[i].wrapping_add(1);
                if counter[i] != 0 {
                    return;
                }
            }
        }

        pub fn ctr_xor(aes: &Bytewise, nonce: &[u8; BLOCK], data: &mut [u8]) {
            let mut counter = *nonce;
            for chunk in data.chunks_mut(BLOCK) {
                let mut keystream = counter;
                aes.encrypt_block(&mut keystream);
                for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                    *b ^= k;
                }
                increment_counter(&mut counter);
            }
        }

        pub fn cbc_encrypt_aligned(aes: &Bytewise, iv: &[u8; BLOCK], data: &mut [u8]) {
            let mut prev = *iv;
            for chunk in data.chunks_mut(BLOCK) {
                let block: &mut [u8; BLOCK] = chunk.try_into().expect("aligned");
                for (b, p) in block.iter_mut().zip(prev.iter()) {
                    *b ^= p;
                }
                aes.encrypt_block(block);
                prev = *block;
            }
        }

        pub fn cbc_decrypt_aligned(aes: &Bytewise, iv: &[u8; BLOCK], data: &mut [u8]) {
            let mut prev = *iv;
            for chunk in data.chunks_mut(BLOCK) {
                let block: &mut [u8; BLOCK] = chunk.try_into().expect("aligned");
                let saved = *block;
                aes.decrypt_block(block);
                for (b, p) in block.iter_mut().zip(prev.iter()) {
                    *b ^= p;
                }
                prev = saved;
            }
        }

        pub fn cbc_encrypt(aes: &Bytewise, iv: &[u8; BLOCK], plain: &[u8]) -> Vec<u8> {
            let pad = BLOCK - plain.len() % BLOCK;
            let mut out = plain.to_vec();
            out.resize(plain.len() + pad, pad as u8);
            cbc_encrypt_aligned(aes, iv, &mut out);
            out
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    // NIST SP 800-38A, Appendix F: the AES-128 key and the four-block
    // plaintext every mode example shares.
    const NIST_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const NIST_PLAIN: &str = "6bc1bee22e409f96e93d7e117393172a ae2d8a571e03ac9c9eb76fac45af8e51
                              30c81c46a35ce411e5fbc1191a0a52ef f69f2445df4f9b17ad2b417be66c3710";

    #[test]
    fn ctr_roundtrip_and_symmetry() {
        let cipher = aes();
        let nonce = [1u8; 16];
        let plain = b"the quick brown fox jumps over the lazy dog".to_vec();
        let mut data = plain.clone();
        ctr_xor(&cipher, &nonce, &mut data);
        assert_ne!(data, plain);
        ctr_xor(&cipher, &nonce, &mut data);
        assert_eq!(data, plain);
    }

    /// F.5.1 CTR-AES128.Encrypt and F.5.2 CTR-AES128.Decrypt, all four
    /// blocks.
    #[test]
    fn ctr_nist_sp800_38a_f51() {
        let ctr: [u8; 16] = std::array::from_fn(|i| 0xf0 + i as u8);
        let plain = unhex(NIST_PLAIN);
        let cipher = unhex(
            "874d6191b620e3261bef6864990db6ce 9806f66b7970fdff8617187bb9fffdff
             5ae4df3edbd5d35e5b4f09020db03eab 1e031dda2fbe03d1792170a0f3009cee",
        );
        for (name, aes) in backends(&NIST_KEY) {
            let mut data = plain.clone();
            ctr_xor(&aes, &ctr, &mut data);
            assert_eq!(data, cipher, "{name} F.5.1");
            ctr_xor(&aes, &ctr, &mut data);
            assert_eq!(data, plain, "{name} F.5.2");
        }
    }

    /// F.2.1 CBC-AES128.Encrypt and F.2.2 CBC-AES128.Decrypt, all four
    /// blocks, through both the aligned and the padded entry points.
    #[test]
    fn cbc_nist_sp800_38a_f21_f22() {
        let iv: [u8; 16] = std::array::from_fn(|i| i as u8);
        let plain = unhex(NIST_PLAIN);
        let cipher = unhex(
            "7649abac8119b246cee98e9b12e9197d 5086cb9b507219ee95db113a917678b2
             73bed6b8e3c1743b7116e69e22229516 3ff1caa1681fac09120eca307586e1a7",
        );
        for (name, aes) in backends(&NIST_KEY) {
            let mut data = plain.clone();
            cbc_encrypt_aligned(&aes, &iv, &mut data);
            assert_eq!(data, cipher, "{name} F.2.1");
            cbc_decrypt_aligned(&aes, &iv, &mut data).unwrap();
            assert_eq!(data, plain, "{name} F.2.2");
            // Padded: the same four blocks, then one block of padding.
            let padded = cbc_encrypt(&aes, &iv, &plain);
            assert_eq!(padded[..64], cipher[..], "{name} padded");
            assert_eq!(cbc_decrypt(&aes, &iv, &padded).unwrap(), plain, "{name} padded");
        }
    }

    #[test]
    fn ctr_counter_wraps_within_low_word() {
        let mut c = [0xffu8; 16];
        oracle::increment_counter(&mut c);
        // Low 32 bits wrap to zero; upper bytes untouched.
        assert_eq!(&c[..12], &[0xff; 12]);
        assert_eq!(&c[12..], &[0, 0, 0, 0]);
        // The production keystream agrees: block 1 under an all-ones nonce
        // is the encryption of that wrapped counter.
        for (name, aes) in backends(&[7u8; 16]) {
            let mut data = [0u8; 32];
            ctr_xor(&aes, &[0xff; 16], &mut data);
            let mut expect = c;
            aes.encrypt_block(&mut expect);
            assert_eq!(data[16..], expect, "{name}");
        }
    }

    /// Every length from empty to a page plus a block, a fresh random key
    /// and IV per length: the pipelined modes on every back-end equal the
    /// serial modes over the bytewise oracle. Covers 1–7-block tails after
    /// full batches and partial last CTR blocks.
    #[test]
    fn every_length_matches_the_serial_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut message = vec![0u8; 4112];
        for len in 0..=4112usize {
            let key: [u8; 16] = rng.gen();
            let iv: [u8; 16] = rng.gen();
            rng.fill(&mut message[..len]);
            let message = &message[..len];
            let reference = Bytewise::new(&key);

            let mut ctr = message.to_vec();
            oracle::ctr_xor(&reference, &iv, &mut ctr);
            let padded = oracle::cbc_encrypt(&reference, &iv, message);
            let aligned = len % BLOCK == 0;
            let (mut enc, mut dec) = (message.to_vec(), message.to_vec());
            if aligned {
                oracle::cbc_encrypt_aligned(&reference, &iv, &mut enc);
                oracle::cbc_decrypt_aligned(&reference, &iv, &mut dec);
            }

            for (name, aes) in backends(&key) {
                let mut data = message.to_vec();
                ctr_xor(&aes, &iv, &mut data);
                assert_eq!(data, ctr, "{name} ctr_xor, {len} bytes");
                assert_eq!(cbc_encrypt(&aes, &iv, message), padded, "{name} cbc_encrypt, {len}");
                assert_eq!(
                    cbc_decrypt(&aes, &iv, &padded).unwrap(),
                    message,
                    "{name} cbc_decrypt, {len}"
                );
                let mut data = message.to_vec();
                if aligned {
                    cbc_encrypt_aligned(&aes, &iv, &mut data);
                    assert_eq!(data, enc, "{name} cbc_encrypt_aligned, {len}");
                    let mut data = message.to_vec();
                    cbc_decrypt_aligned(&aes, &iv, &mut data).unwrap();
                    assert_eq!(data, dec, "{name} cbc_decrypt_aligned, {len}");
                } else {
                    assert!(cbc_decrypt_aligned(&aes, &iv, &mut data).is_err(), "{name} {len}");
                }
            }
        }
    }

    proptest! {
        /// The low counter word wraps somewhere inside the first three
        /// 8-block batches, at every offset within a batch.
        #[test]
        fn ctr_wrap_inside_a_batch_matches_the_oracle(
            key in any::<[u8; 16]>(),
            high in any::<[u8; 12]>(),
            blocks_before_wrap in 0u32..24,
            len in 0usize..600,
        ) {
            let mut nonce = [0u8; 16];
            nonce[..12].copy_from_slice(&high);
            nonce[12..].copy_from_slice(&0u32.wrapping_sub(blocks_before_wrap).to_be_bytes());
            let mut expect = vec![0xa5u8; len];
            oracle::ctr_xor(&Bytewise::new(&key), &nonce, &mut expect);
            for (name, aes) in backends(&key) {
                let mut data = vec![0xa5u8; len];
                ctr_xor(&aes, &nonce, &mut data);
                prop_assert_eq!(&data, &expect, "{}", name);
            }
        }
    }

    #[test]
    fn cbc_padded_roundtrip_all_lengths() {
        let cipher = aes();
        let iv = [9u8; 16];
        for len in 0..48 {
            let plain: Vec<u8> = (0..len as u8).collect();
            let ct = cbc_encrypt(&cipher, &iv, &plain);
            assert_eq!(ct.len() % 16, 0);
            assert!(ct.len() > plain.len(), "padding always adds bytes");
            let back = cbc_decrypt(&cipher, &iv, &ct).unwrap();
            assert_eq!(back, plain, "len {len}");
        }
    }

    #[test]
    fn cbc_rejects_tampered_padding() {
        let cipher = aes();
        let iv = [0u8; 16];
        let mut ct = cbc_encrypt(&cipher, &iv, b"hello");
        let last = ct.len() - 1;
        ct[last] ^= 0xff;
        // Either padding error or garbage output — but for a single-block
        // message tampering the last byte corrupts padding detection.
        assert!(cbc_decrypt(&cipher, &iv, &ct).is_err());
    }

    #[test]
    fn cbc_rejects_unaligned() {
        let cipher = aes();
        assert!(cbc_decrypt(&cipher, &[0; 16], &[0u8; 15]).is_err());
        assert!(cbc_decrypt(&cipher, &[0; 16], &[]).is_err());
    }

    #[test]
    fn aligned_cbc_roundtrip_page_sized() {
        let cipher = aes();
        let iv = [3u8; 16];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let plain: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        let mut data = plain.clone();
        cbc_encrypt_aligned(&cipher, &iv, &mut data);
        assert_eq!(data.len(), plain.len());
        assert_ne!(data, plain);
        cbc_decrypt_aligned(&cipher, &iv, &mut data).unwrap();
        assert_eq!(data, plain);
    }

    #[test]
    fn different_ivs_give_different_ciphertexts() {
        let cipher = aes();
        let plain = [0u8; 64];
        let mut a = plain;
        let mut b = plain;
        cbc_encrypt_aligned(&cipher, &[1; 16], &mut a);
        cbc_encrypt_aligned(&cipher, &[2; 16], &mut b);
        assert_ne!(a, b);
    }
}
