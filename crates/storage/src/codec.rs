//! Per-page authenticated encryption.
//!
//! Mirrors the SQLCipher layout the paper adopts: each stored 4 KiB block
//! holds a random IV, the AES-128-CBC ciphertext of the page payload, and
//! an HMAC-SHA512 (truncated to its 32-byte trailer slot) over
//! `page_id ‖ IV ‖ ciphertext` — the paper's exact MAC construction.
//! Binding the page id into the MAC stops an attacker from swapping two
//! well-formed pages (the Merkle tree additionally catches suppression and
//! whole-medium rollback).

use crate::blockdev::BLOCK_SIZE;
use crate::{Result, StorageError};
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::hmac512::HmacSha512;
use ironsafe_crypto::modes::{cbc_decrypt_aligned, cbc_encrypt_aligned};

/// IV bytes at the head of each stored block.
const IV_LEN: usize = 16;
/// MAC bytes at the tail of each stored block.
const MAC_LEN: usize = 32;
/// Usable plaintext payload per page.
pub const PAGE_PAYLOAD: usize = BLOCK_SIZE - IV_LEN - MAC_LEN;

/// Encrypts/decrypts pages and computes their MACs.
pub struct PageCodec {
    aes: Aes128,
    /// HMAC-SHA512 pre-keyed with the page MAC key; cloned per page.
    mac: HmacSha512,
    /// Number of page encryptions performed (for the cost model).
    pub encrypt_count: u64,
    /// Number of page decryptions performed (for the cost model).
    pub decrypt_count: u64,
}

impl PageCodec {
    /// Build a codec from a 16-byte encryption key and 32-byte MAC key.
    pub fn new(enc_key: &[u8; 16], mac_key: &[u8; 32]) -> Self {
        PageCodec {
            aes: Aes128::new(enc_key),
            mac: HmacSha512::new(mac_key),
            encrypt_count: 0,
            decrypt_count: 0,
        }
    }

    /// Derive both keys from a single 16-byte database key (as SQLCipher
    /// derives its page keys from the user key).
    pub fn from_db_key(db_key: &[u8; 16]) -> Self {
        let enc = ironsafe_crypto::hkdf::derive_key_128(db_key, b"page-enc");
        let mac = ironsafe_crypto::hkdf::derive_key_256(db_key, b"page-mac");
        Self::new(&enc, &mac)
    }

    /// Encrypt `payload` (exactly [`PAGE_PAYLOAD`] bytes) for page
    /// `page_id`, producing a stored block and its MAC.
    pub fn encrypt_page(
        &mut self,
        page_id: u64,
        payload: &[u8],
        rng: &mut (impl rand::Rng + ?Sized),
    ) -> Result<([u8; BLOCK_SIZE], [u8; 32])> {
        if payload.len() != PAGE_PAYLOAD {
            return Err(StorageError::BadBufferSize { expected: PAGE_PAYLOAD, got: payload.len() });
        }
        let mut block = [0u8; BLOCK_SIZE];
        let mut iv = [0u8; IV_LEN];
        rng.fill(&mut iv);
        block[..IV_LEN].copy_from_slice(&iv);
        block[IV_LEN..IV_LEN + PAGE_PAYLOAD].copy_from_slice(payload);
        cbc_encrypt_aligned(&self.aes, &iv, &mut block[IV_LEN..IV_LEN + PAGE_PAYLOAD]);
        let mac = self.page_mac(page_id, &block);
        block[IV_LEN + PAGE_PAYLOAD..].copy_from_slice(&mac);
        self.encrypt_count += 1;
        Ok((block, mac))
    }

    /// Verify and decrypt a stored block into `out` (exactly
    /// [`PAGE_PAYLOAD`] bytes). Returns the page MAC for Merkle checking.
    /// This is the batch decrypt the secure pager's `read_pages` runs, on
    /// a batch of one.
    pub fn decrypt_page(
        &mut self,
        page_id: u64,
        block: &[u8; BLOCK_SIZE],
        out: &mut [u8],
    ) -> Result<[u8; 32]> {
        let mut mac = [[0u8; 32]];
        self.decrypt_pages(&[page_id], block, out, &mut mac)?;
        Ok(mac[0])
    }

    /// Verify and decrypt a batch: `blocks` holds the stored blocks of
    /// `ids` back to back, `out` receives their payloads the same way, and
    /// `macs[i]` the MAC of page `ids[i]` for Merkle checking. Every MAC is
    /// computed first, in one [`HmacSha512::tags_trunc256`] call; then each
    /// page's stored tag is compared in constant time before its CBC
    /// decrypt. The first mismatch stops the batch; pages before it are
    /// decrypted and counted, as a caller that rolls back expects.
    pub(crate) fn decrypt_pages(
        &mut self,
        ids: &[u64],
        blocks: &[u8],
        out: &mut [u8],
        macs: &mut [[u8; 32]],
    ) -> Result<()> {
        let n = ids.len();
        for (expected, got) in
            [(n * BLOCK_SIZE, blocks.len()), (n * PAGE_PAYLOAD, out.len()), (n, macs.len())]
        {
            if got != expected {
                return Err(StorageError::BadBufferSize { expected, got });
            }
        }
        let (blocks, _) = blocks.as_chunks::<BLOCK_SIZE>();
        self.page_macs(ids, blocks, macs);
        let pages = blocks.iter().zip(&*macs).zip(out.chunks_exact_mut(PAGE_PAYLOAD));
        for ((block, mac), buf) in pages {
            if !ironsafe_crypto::ct_eq(mac, &block[IV_LEN + PAGE_PAYLOAD..]) {
                return Err(StorageError::IntegrityViolation("page MAC mismatch"));
            }
            let iv: [u8; IV_LEN] = block[..IV_LEN].try_into().expect("fixed split");
            buf.copy_from_slice(&block[IV_LEN..IV_LEN + PAGE_PAYLOAD]);
            cbc_decrypt_aligned(&self.aes, &iv, buf)
                .map_err(|_| StorageError::IntegrityViolation("page decryption failed"))?;
            self.decrypt_count += 1;
        }
        Ok(())
    }

    /// HMAC-SHA512/256 over `page_id ‖ IV ‖ ciphertext`.
    pub(crate) fn page_mac(&self, page_id: u64, block: &[u8; BLOCK_SIZE]) -> [u8; 32] {
        let mut mac = [[0u8; 32]];
        self.page_macs(&[page_id], std::slice::from_ref(block), &mut mac);
        mac[0]
    }

    /// [`PageCodec::page_mac`] of every `(ids[i], blocks[i])`, in one
    /// batch: `"page" ‖ page_id` is built per page, `IV ‖ ciphertext` is
    /// hashed where it lies in the stored block.
    fn page_macs(&self, ids: &[u64], blocks: &[[u8; BLOCK_SIZE]], macs: &mut [[u8; 32]]) {
        let head = |id: u64| {
            let mut head = [0u8; 12];
            head[..4].copy_from_slice(b"page");
            head[4..].copy_from_slice(&id.to_be_bytes());
            head
        };
        self.mac.tags_trunc256(|i| (head(ids[i]), &blocks[i][..IV_LEN + PAGE_PAYLOAD]), macs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn codec() -> PageCodec {
        PageCodec::from_db_key(&[0x11; 16])
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2)
    }

    #[test]
    fn roundtrip() {
        let mut c = codec();
        let mut r = rng();
        let payload: Vec<u8> = (0..PAGE_PAYLOAD).map(|i| (i % 251) as u8).collect();
        let (block, _) = c.encrypt_page(42, &payload, &mut r).unwrap();
        let mut out = vec![0u8; PAGE_PAYLOAD];
        c.decrypt_page(42, &block, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!((c.encrypt_count, c.decrypt_count), (1, 1));
    }

    #[test]
    fn wrong_page_id_rejected() {
        // Prevents the displacement attack at the codec level.
        let mut c = codec();
        let mut r = rng();
        let payload = vec![7u8; PAGE_PAYLOAD];
        let (block, _) = c.encrypt_page(1, &payload, &mut r).unwrap();
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert_eq!(
            c.decrypt_page(2, &block, &mut out),
            Err(StorageError::IntegrityViolation("page MAC mismatch"))
        );
    }

    #[test]
    fn ciphertext_tamper_rejected() {
        let mut c = codec();
        let mut r = rng();
        let payload = vec![7u8; PAGE_PAYLOAD];
        let (mut block, _) = c.encrypt_page(1, &payload, &mut r).unwrap();
        block[100] ^= 1;
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert!(c.decrypt_page(1, &block, &mut out).is_err());
    }

    #[test]
    fn iv_tamper_rejected() {
        let mut c = codec();
        let mut r = rng();
        let (mut block, _) = c.encrypt_page(1, &vec![0u8; PAGE_PAYLOAD], &mut r).unwrap();
        block[0] ^= 1;
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert!(c.decrypt_page(1, &block, &mut out).is_err());
    }

    #[test]
    fn mac_tamper_rejected() {
        let mut c = codec();
        let mut r = rng();
        let (mut block, _) = c.encrypt_page(1, &vec![0u8; PAGE_PAYLOAD], &mut r).unwrap();
        block[BLOCK_SIZE - 1] ^= 1;
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert!(c.decrypt_page(1, &block, &mut out).is_err());
    }

    #[test]
    fn same_payload_distinct_ciphertext() {
        let mut c = codec();
        let mut r = rng();
        let payload = vec![0u8; PAGE_PAYLOAD];
        let (b1, m1) = c.encrypt_page(1, &payload, &mut r).unwrap();
        let (b2, m2) = c.encrypt_page(1, &payload, &mut r).unwrap();
        assert_ne!(b1[..], b2[..], "random IVs");
        assert_ne!(m1, m2);
    }

    #[test]
    fn wrong_key_cannot_decrypt() {
        let mut c1 = PageCodec::from_db_key(&[1; 16]);
        let mut c2 = PageCodec::from_db_key(&[2; 16]);
        let mut r = rng();
        let (block, _) = c1.encrypt_page(0, &vec![9u8; PAGE_PAYLOAD], &mut r).unwrap();
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert!(c2.decrypt_page(0, &block, &mut out).is_err());
    }

    #[test]
    fn bad_sizes_rejected() {
        let mut c = codec();
        let mut r = rng();
        assert!(matches!(
            c.encrypt_page(0, &[0u8; 10], &mut r),
            Err(StorageError::BadBufferSize { .. })
        ));
        let (block, _) = c.encrypt_page(0, &vec![0u8; PAGE_PAYLOAD], &mut r).unwrap();
        let mut small = vec![0u8; 10];
        assert!(matches!(
            c.decrypt_page(0, &block, &mut small),
            Err(StorageError::BadBufferSize { .. })
        ));
    }

    /// A batch of any size decrypts to what its pages decrypt to one by
    /// one, with the same MACs (`page_mac`, as the Merkle leaves hold) and
    /// the same decrypt count.
    #[test]
    fn batch_decrypt_equals_page_by_page() {
        let mut c = codec();
        let mut r = rng();
        let pages: Vec<(u64, [u8; BLOCK_SIZE])> = (0..17u64)
            .map(|id| {
                let payload: Vec<u8> =
                    (0..PAGE_PAYLOAD).map(|i| (i as u64 * 7 + id) as u8).collect();
                (id * 3, c.encrypt_page(id * 3, &payload, &mut r).unwrap().0)
            })
            .collect();
        for n in 0..=pages.len() {
            let ids: Vec<u64> = pages[..n].iter().map(|(id, _)| *id).collect();
            let blocks: Vec<u8> = pages[..n].iter().flat_map(|(_, b)| b.iter().copied()).collect();
            let mut out = vec![0u8; n * PAGE_PAYLOAD];
            let mut macs = vec![[0u8; 32]; n];
            let before = c.decrypt_count;
            c.decrypt_pages(&ids, &blocks, &mut out, &mut macs).unwrap();
            assert_eq!(c.decrypt_count - before, n as u64);
            for (i, (id, block)) in pages[..n].iter().enumerate() {
                let mut one = vec![0u8; PAGE_PAYLOAD];
                assert_eq!(c.decrypt_page(*id, block, &mut one).unwrap(), macs[i], "{n} pages");
                assert_eq!(macs[i], c.page_mac(*id, block));
                assert_eq!(out[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD], one[..], "{n} pages");
            }
        }
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(
            c.decrypt_pages(&[0], &pages[0].1, &mut out, &mut []),
            Err(StorageError::BadBufferSize { expected: 1, got: 0 })
        ));
    }

    #[test]
    fn payload_is_block_aligned_for_cbc() {
        assert_eq!(PAGE_PAYLOAD % 16, 0);
    }
}
