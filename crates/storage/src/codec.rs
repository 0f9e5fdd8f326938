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
    /// This is [`PageCodec::decrypt_pages`] on a batch of one.
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
    pub fn decrypt_pages(
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
    pub fn page_mac(&self, page_id: u64, block: &[u8; BLOCK_SIZE]) -> [u8; 32] {
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

// ---------------------------------------------------------------------------
// Page compression (applied to the plaintext payload *before* encrypt+MAC)
// ---------------------------------------------------------------------------

/// Version tag in the compressed-page header. Bump on any format change:
/// the decoder rejects unknown versions instead of misreading them.
pub const COMPRESS_VERSION: u8 = 1;
/// Magic bytes at the head of every compressed page.
pub const COMPRESS_MAGIC: [u8; 2] = *b"IZ";
/// Fixed header: magic(2) ‖ version(1) ‖ codec(1) ‖ compressed_len(u32 BE)
/// ‖ logical_len(u32 BE) ‖ reserved(4).
pub const COMPRESS_HEADER: usize = 16;

/// Per-page compression codec, chosen independently for every page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Stored verbatim (incompressible page).
    Raw,
    /// Byte run-length encoding: `(run_len-1, byte)` pairs. Wins on
    /// zeroed/fresh pages and long constant tails.
    Rle,
    /// Windowed dictionary coding (LZ77-style): back-references into the
    /// already-emitted page bytes. Wins on heap pages, whose row records
    /// repeat value tags, zero-padded integers and shared text prefixes.
    Dict,
}

impl Compression {
    fn tag(self) -> u8 {
        match self {
            Compression::Raw => 0,
            Compression::Rle => 1,
            Compression::Dict => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Compression::Raw),
            1 => Ok(Compression::Rle),
            2 => Ok(Compression::Dict),
            _ => Err(StorageError::IntegrityViolation("unknown compression codec tag")),
        }
    }
}

/// RLE-compress `input` as `(run_len-1, byte)` pairs.
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4);
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        let mut run = 1usize;
        while run < 256 && i + run < input.len() && input[i + run] == b {
            run += 1;
        }
        out.push((run - 1) as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Invert [`rle_compress`]. `logical_len` bounds the output.
pub fn rle_decompress(body: &[u8], logical_len: usize) -> Result<Vec<u8>> {
    if !body.len().is_multiple_of(2) {
        return Err(StorageError::IntegrityViolation("rle body truncated"));
    }
    let mut out = Vec::with_capacity(logical_len);
    for pair in body.chunks_exact(2) {
        let run = pair[0] as usize + 1;
        if out.len() + run > logical_len {
            return Err(StorageError::IntegrityViolation("rle run overflows page"));
        }
        out.resize(out.len() + run, pair[1]);
    }
    if out.len() != logical_len {
        return Err(StorageError::IntegrityViolation("rle body short of page"));
    }
    Ok(out)
}

/// Dict-codec parameters. Matches are 4..=131 bytes at offsets
/// 1..=65535 back; literals run 1..=128 bytes per token.
const DICT_MIN_MATCH: usize = 4;
const DICT_MAX_MATCH: usize = 131;
const DICT_MAX_LITERAL: usize = 128;
const DICT_HASH_BITS: u32 = 13;

fn dict_hash(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(2654435761) >> (32 - DICT_HASH_BITS)) as usize
}

fn dict_emit_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for chunk in lits.chunks(DICT_MAX_LITERAL) {
        out.push((chunk.len() - 1) as u8);
        out.extend_from_slice(chunk);
    }
}

/// Dictionary-compress `input`: greedy hash-table matching against the
/// page's own history window.
pub fn dict_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2);
    let mut htab = vec![usize::MAX; 1 << DICT_HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + DICT_MIN_MATCH <= input.len() {
        let h = dict_hash(&input[i..]);
        let cand = htab[h];
        htab[h] = i;
        let hit = cand != usize::MAX
            && i - cand <= u16::MAX as usize
            && input[cand..cand + DICT_MIN_MATCH] == input[i..i + DICT_MIN_MATCH];
        if hit {
            let mut len = DICT_MIN_MATCH;
            let max = DICT_MAX_MATCH.min(input.len() - i);
            while len < max && input[cand + len] == input[i + len] {
                len += 1;
            }
            dict_emit_literals(&mut out, &input[lit_start..i]);
            out.push(0x80 | (len - DICT_MIN_MATCH) as u8);
            out.extend_from_slice(&((i - cand) as u16).to_be_bytes());
            // Seed the table across the matched span so later repeats of
            // its interior still find a reference.
            let end = (i + len).min(input.len() - DICT_MIN_MATCH + 1);
            let mut j = i + 1;
            while j < end {
                htab[dict_hash(&input[j..])] = j;
                j += 1;
            }
            i += len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    dict_emit_literals(&mut out, &input[lit_start..]);
    out
}

/// Invert [`dict_compress`]. `logical_len` bounds the output.
pub fn dict_decompress(body: &[u8], logical_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(logical_len);
    let mut i = 0usize;
    while i < body.len() {
        let ctrl = body[i];
        i += 1;
        if ctrl & 0x80 != 0 {
            let len = (ctrl & 0x7f) as usize + DICT_MIN_MATCH;
            if i + 2 > body.len() {
                return Err(StorageError::IntegrityViolation("dict match truncated"));
            }
            let off = u16::from_be_bytes([body[i], body[i + 1]]) as usize;
            i += 2;
            if off == 0 || off > out.len() || out.len() + len > logical_len {
                return Err(StorageError::IntegrityViolation("dict match out of window"));
            }
            // Byte-at-a-time: overlapping matches (offset < len) replicate.
            let start = out.len() - off;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let len = ctrl as usize + 1;
            if i + len > body.len() || out.len() + len > logical_len {
                return Err(StorageError::IntegrityViolation("dict literal overflows page"));
            }
            out.extend_from_slice(&body[i..i + len]);
            i += len;
        }
    }
    if out.len() != logical_len {
        return Err(StorageError::IntegrityViolation("dict body short of page"));
    }
    Ok(out)
}

/// Compress `payload` with whichever codec yields the smallest framed
/// page, raw fallback included. Returns the codec chosen and the full
/// framed bytes (versioned header + body).
pub fn compress_page(payload: &[u8]) -> (Compression, Vec<u8>) {
    let rle = rle_compress(payload);
    let dict = dict_compress(payload);
    let (codec, body) = if dict.len() < payload.len() && dict.len() <= rle.len() {
        (Compression::Dict, dict)
    } else if rle.len() < payload.len() {
        (Compression::Rle, rle)
    } else {
        (Compression::Raw, payload.to_vec())
    };
    let mut framed = Vec::with_capacity(COMPRESS_HEADER + body.len());
    framed.extend_from_slice(&COMPRESS_MAGIC);
    framed.push(COMPRESS_VERSION);
    framed.push(codec.tag());
    framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(&[0u8; 4]);
    framed.extend_from_slice(&body);
    (codec, framed)
}

/// Decode a framed compressed page (as produced by [`compress_page`];
/// trailing padding after the body is ignored). `expected_len` is the
/// logical payload size the caller requires.
pub fn decompress_page(framed: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    if framed.len() < COMPRESS_HEADER {
        return Err(StorageError::IntegrityViolation("compressed page shorter than header"));
    }
    if framed[0..2] != COMPRESS_MAGIC {
        return Err(StorageError::IntegrityViolation("compressed page bad magic"));
    }
    if framed[2] != COMPRESS_VERSION {
        return Err(StorageError::IntegrityViolation("compressed page unknown version"));
    }
    let codec = Compression::from_tag(framed[3])?;
    let clen = u32::from_be_bytes(framed[4..8].try_into().expect("4")) as usize;
    let llen = u32::from_be_bytes(framed[8..12].try_into().expect("4")) as usize;
    if llen != expected_len {
        return Err(StorageError::BadBufferSize { expected: expected_len, got: llen });
    }
    if COMPRESS_HEADER + clen > framed.len() {
        return Err(StorageError::IntegrityViolation("compressed body overruns page"));
    }
    let body = &framed[COMPRESS_HEADER..COMPRESS_HEADER + clen];
    match codec {
        Compression::Raw => {
            if body.len() != llen {
                return Err(StorageError::IntegrityViolation("raw body length mismatch"));
            }
            Ok(body.to_vec())
        }
        Compression::Rle => rle_decompress(body, llen),
        Compression::Dict => dict_decompress(body, llen),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_crypto::hmac512::hmac_sha512_trunc256;
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

    fn roundtrip_compressed(payload: &[u8]) -> Compression {
        let (codec, framed) = compress_page(payload);
        let back = decompress_page(&framed, payload.len()).unwrap();
        assert_eq!(back, payload, "roundtrip under {codec:?}");
        codec
    }

    #[test]
    fn zero_page_compresses_to_a_sliver() {
        let payload = vec![0u8; 4 * PAGE_PAYLOAD];
        let (codec, framed) = compress_page(&payload);
        assert_ne!(codec, Compression::Raw);
        assert!(framed.len() < payload.len() / 16, "{} bytes", framed.len());
        assert_eq!(decompress_page(&framed, payload.len()).unwrap(), payload);
    }

    #[test]
    fn incompressible_page_falls_back_to_raw() {
        // A keyed PRF stream has no runs and no repeats the window finds.
        let mut payload = Vec::new();
        let mut i = 0u64;
        while payload.len() < PAGE_PAYLOAD {
            payload
                .extend_from_slice(&hmac_sha512_trunc256(&[0x5a; 32], &[&i.to_be_bytes()])[..]);
            i += 1;
        }
        payload.truncate(PAGE_PAYLOAD);
        let codec = roundtrip_compressed(&payload);
        assert_eq!(codec, Compression::Raw);
        let (_, framed) = compress_page(&payload);
        assert_eq!(framed.len(), COMPRESS_HEADER + payload.len());
    }

    #[test]
    fn repetitive_page_picks_dict() {
        let record = b"\x01\x00\x00\x00\x00\x00\x00\x00\x2a\x03\x00\x00\x00\x0a1994-01-01";
        let mut payload = Vec::new();
        while payload.len() + record.len() <= PAGE_PAYLOAD {
            payload.extend_from_slice(record);
        }
        payload.resize(PAGE_PAYLOAD, 0);
        let codec = roundtrip_compressed(&payload);
        assert_eq!(codec, Compression::Dict);
        let (_, framed) = compress_page(&payload);
        assert!(framed.len() * 3 < payload.len(), "{} bytes", framed.len());
    }

    #[test]
    fn overlapping_matches_replicate() {
        // "abcabcabc…" forces offset < length back-references.
        let payload: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        roundtrip_compressed(&payload);
    }

    #[test]
    fn corrupt_compressed_pages_error_cleanly() {
        let payload = vec![7u8; 512];
        let (_, mut framed) = compress_page(&payload);
        assert!(decompress_page(&framed[..8], 512).is_err(), "truncated header");
        assert!(decompress_page(&framed, 513).is_err(), "wrong expected length");
        framed[0] ^= 1;
        assert!(decompress_page(&framed, 512).is_err(), "bad magic");
        framed[0] ^= 1;
        framed[2] = 99;
        assert!(decompress_page(&framed, 512).is_err(), "unknown version");
        framed[2] = COMPRESS_VERSION;
        framed[3] = 7;
        assert!(decompress_page(&framed, 512).is_err(), "unknown codec tag");
        framed[3] = Compression::Rle.tag();
        framed[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decompress_page(&framed, 512).is_err(), "body overruns page");
    }

    #[test]
    fn trailing_padding_after_body_is_ignored() {
        let payload = vec![9u8; 300];
        let (_, mut framed) = compress_page(&payload);
        framed.resize(framed.len() + 100, 0);
        assert_eq!(decompress_page(&framed, 300).unwrap(), payload);
    }
}
