//! HMAC-SHA512 (RFC 2104), the MAC the paper's SQLCipher configuration
//! uses for page authentication.
//!
//! The secure page codec stores a 32-byte truncation of this tag
//! (truncation per RFC 2104 §5: take the leftmost bytes), and verifies a
//! read batch's pages with one [`HmacSha512::tags_trunc256`] call.

use crate::ct::ct_eq;
#[cfg(target_arch = "x86_64")]
use crate::sha512::{Avx512, LANES};
use crate::sha512::{Backend, Sha512, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA512.
///
/// Keying absorbs the ipad and opad blocks into two hash states once;
/// `clone()` of a freshly keyed instance is therefore a pre-keyed MAC that
/// skips both pad compressions — hot paths hold one and clone it per
/// message, or hand a whole batch to [`HmacSha512::tags_trunc256`].
#[derive(Clone)]
pub struct HmacSha512 {
    /// State after `key ^ ipad`; absorbs the message.
    inner: Sha512,
    /// State after `key ^ opad`; absorbs the inner digest at the end.
    outer: Sha512,
    /// How a batch is hashed, detected once per key.
    backend: Backend,
}

impl HmacSha512 {
    /// Create an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        Self::with_backend(key, Backend::detect())
    }

    /// The scalar batch path regardless of what the CPU offers, so tests
    /// cover it on AVX-512 machines too.
    #[cfg(test)]
    pub(crate) fn new_portable(key: &[u8]) -> Self {
        Self::with_backend(key, Backend::Scalar)
    }

    fn with_backend(key: &[u8], backend: Backend) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha512::sha512(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha512::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha512::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha512 { inner, outer, backend }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 64-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Produce the tag truncated to its leftmost 32 bytes — the page
    /// codec's trailer format.
    pub fn finalize_trunc256(self) -> [u8; 32] {
        let full = self.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&full[..32]);
        out
    }

    /// Verify `tag` (full or truncated ≥ 16 bytes) in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        if tag.len() < 16 || tag.len() > DIGEST_LEN {
            return false;
        }
        let computed = self.finalize();
        ct_eq(&computed[..tag.len()], tag)
    }

    /// The truncated tags of a batch: `tags[i]` is what `clone()`,
    /// `update(head)`, `update(body)` and [`finalize_trunc256`] give for
    /// `(head, body) = msg(i)`, for every `i < tags.len()`.
    ///
    /// Messages of equal length go eight per pass where the CPU has a
    /// multi-buffer back-end; the idle lanes of a short group repeat a live
    /// lane and their tags are dropped. A lone message of its length runs
    /// scalar, as does everything on other CPUs. Nothing is allocated.
    ///
    /// [`finalize_trunc256`]: HmacSha512::finalize_trunc256
    pub fn tags_trunc256<'a, H: AsRef<[u8]>>(
        &self,
        msg: impl Fn(usize) -> (H, &'a [u8]),
        tags: &mut [[u8; 32]],
    ) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(simd) if self.inner.on_block_boundary() => {
                self.tags_in_lanes(simd, &msg, tags)
            }
            _ => {
                for (i, tag) in tags.iter_mut().enumerate() {
                    *tag = self.tag_of(msg(i));
                }
            }
        }
    }

    /// One message's truncated tag, on the scalar path.
    fn tag_of(&self, (head, body): (impl AsRef<[u8]>, &[u8])) -> [u8; 32] {
        let mut mac = self.clone();
        mac.update(head.as_ref());
        mac.update(body);
        mac.finalize_trunc256()
    }

    /// [`HmacSha512::tags_trunc256`] on AVX-512: each length is hashed when
    /// its first message comes up, in groups of up to [`LANES`] messages of
    /// that length.
    #[cfg(target_arch = "x86_64")]
    fn tags_in_lanes<'a, H: AsRef<[u8]>>(
        &self,
        simd: Avx512,
        msg: &impl Fn(usize) -> (H, &'a [u8]),
        tags: &mut [[u8; 32]],
    ) {
        let len_of = |i: usize| {
            let (head, body) = msg(i);
            head.as_ref().len() + body.len()
        };
        for first in 0..tags.len() {
            let len = len_of(first);
            if (0..first).any(|i| len_of(i) == len) {
                continue;
            }
            let mut same = (first..tags.len()).filter(|&i| len_of(i) == len);
            loop {
                let mut group = [first; LANES];
                let mut live = 0;
                for (slot, i) in group.iter_mut().zip(same.by_ref()) {
                    *slot = i;
                    live += 1;
                }
                match live {
                    0 => break,
                    1 => tags[group[0]] = self.tag_of(msg(group[0])),
                    _ => {
                        let lead = group[0];
                        group[live..].fill(lead);
                        let msgs = group.map(msg);
                        let parts = std::array::from_fn(|l| [msgs[l].0.as_ref(), msgs[l].1]);
                        let inner = self.inner.finalize_lanes(simd, &parts);
                        let digests = inner.each_ref().map(|d| [&d[..], &[][..]]);
                        let outer = self.outer.finalize_lanes(simd, &digests);
                        for (&i, full) in group[..live].iter().zip(&outer) {
                            tags[i].copy_from_slice(&full[..32]);
                        }
                    }
                }
            }
        }
    }
}

/// One-shot HMAC-SHA512.
pub fn hmac_sha512(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha512::new(key);
    h.update(data);
    h.finalize()
}

/// One-shot HMAC-SHA512 over concatenated parts, truncated to 32 bytes —
/// the page codec's trailer format.
pub fn hmac_sha512_trunc256(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut h = HmacSha512::new(key);
    for p in parts {
        h.update(p);
    }
    h.finalize_trunc256()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors (SHA-512 column).
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha512(&key, b"Hi There")),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha512(b"Jefe", b"what do ya want for nothing?")),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
             9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn rfc4231_case3_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha512(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f352\
             6b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn truncated_tag_verifies() {
        let tag = hmac_sha512_trunc256(b"key", &[b"page", b"data"]);
        let mut h = HmacSha512::new(b"key");
        h.update(b"pagedata");
        assert!(h.verify(&tag));

        let mut bad = tag;
        bad[0] ^= 1;
        let mut h = HmacSha512::new(b"key");
        h.update(b"pagedata");
        assert!(!h.verify(&bad));
    }

    #[test]
    fn prekeyed_clone_equals_fresh_keying() {
        let keyed = HmacSha512::new(b"page-mac-key");
        for msg in [b"".as_slice(), b"page", &[0x5a; 300]] {
            let mut h = keyed.clone();
            h.update(msg);
            assert_eq!(h.finalize_trunc256(), hmac_sha512_trunc256(b"page-mac-key", &[msg]));
        }
    }

    #[test]
    fn absurd_tag_lengths_rejected() {
        let mut h = HmacSha512::new(b"key");
        h.update(b"m");
        assert!(!h.verify(&[0u8; 8]), "too-short tags are not acceptable");
        let h = HmacSha512::new(b"key");
        assert!(!h.verify(&[0u8; 65]), "over-long tags are malformed");
    }

    #[test]
    fn differs_from_sha256_hmac() {
        let a = hmac_sha512_trunc256(b"k", &[b"m"]);
        let b = crate::hmac::hmac_sha256(b"k", b"m");
        assert_ne!(a, b);
    }

    /// A pre-keyed MAC per batch back-end: always the scalar one, plus
    /// AVX-512 where the CPU has it (a printed note where not).
    fn backends(key: &[u8]) -> Vec<(&'static str, HmacSha512)> {
        let mut all = vec![("scalar", HmacSha512::new_portable(key))];
        match HmacSha512::new(key).backend {
            Backend::Scalar => eprintln!("note: no AVX-512F/BW on this CPU, hardware half skipped"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => all.push(("avx512", HmacSha512::new(key))),
        }
        all
    }

    /// `len` bytes of a keyed stream, different for every `seed`.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (seed.wrapping_mul(0x9e37_79b9).wrapping_add(i * 2654435761) >> 13) as u8)
            .collect()
    }

    /// The oracle — `clone()`, two `update`s, `finalize_trunc256` per
    /// message — against one `tags_trunc256` call, on every back-end.
    fn assert_batch_matches(key: &[u8], msgs: &[(Vec<u8>, Vec<u8>)], what: &str) {
        for (name, mac) in backends(key) {
            let want: Vec<[u8; 32]> = msgs
                .iter()
                .map(|(head, body)| {
                    let mut h = mac.clone();
                    h.update(head);
                    h.update(body);
                    h.finalize_trunc256()
                })
                .collect();
            let mut got = vec![[0u8; 32]; msgs.len()];
            mac.tags_trunc256(|i| (&msgs[i].0, &msgs[i].1[..]), &mut got);
            assert_eq!(got, want, "{name}: {what}");
        }
    }

    /// Every batch size 0..=17 (empty, lone, short tail groups, one and two
    /// full passes and a lone ninth or seventeenth) at every padding shape:
    /// lengths ≡ 111, 112, 127, 0 and 1 mod 128, short and multi-block,
    /// plus the page MAC's 4 076 bytes. Heads split each message at a
    /// different point, so the staged block moves between lanes.
    #[test]
    fn batch_equals_one_by_one_at_every_size_and_padding_shape() {
        let lengths = [0, 1, 12, 111, 112, 127, 128, 129, 239, 240, 255, 256, 257, 4076];
        for len in lengths {
            for n in 0..=17 {
                let msgs: Vec<_> = (0..n as u64)
                    .map(|i| {
                        let data = bytes(i, len);
                        let split = [12, 0, 5, 128, 130, len][i as usize % 6].min(len);
                        (data[..split].to_vec(), data[split..].to_vec())
                    })
                    .collect();
                assert_batch_matches(b"page-mac-key", &msgs, &format!("{n} × {len} bytes"));
            }
        }
    }

    /// Mixed lengths in one call: groups form per length whatever the
    /// order, a length that occurs once runs alone, and a length that
    /// occurs nine times fills a pass and leaves a lone ninth.
    #[test]
    fn mixed_length_batches_equal_one_by_one() {
        let patterns: [&[usize]; 4] = [
            &[4076, 100, 4076, 129, 4076, 100, 128, 4076, 4076],
            &[4076; 9],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
            &[111, 112, 111, 112, 111, 112, 111, 112, 111, 112, 111, 112, 111, 112, 111, 112, 111],
        ];
        for (p, lens) in patterns.iter().enumerate() {
            let msgs: Vec<_> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (b"page".to_vec(), bytes(i as u64 + 100, len)))
                .collect();
            assert_batch_matches(b"k", &msgs, &format!("pattern {p}"));
        }
    }

    /// A MAC that has already absorbed bytes continues from them: off a
    /// block boundary the batch falls back to scalar, on one it stays in
    /// lanes with the absorbed length in the padding.
    #[test]
    fn batch_continues_an_updated_mac() {
        let bodies: Vec<_> = (0..5).map(|i| bytes(i, 300)).collect();
        for prefix in [1usize, 128, 200, 256] {
            for (name, mut mac) in backends(&[0x42; 200]) {
                mac.update(&bytes(99, prefix));
                let mut got = vec![[0u8; 32]; bodies.len()];
                mac.tags_trunc256(|i| ([], &bodies[i][..]), &mut got);
                for (body, tag) in bodies.iter().zip(&got) {
                    let mut h = mac.clone();
                    h.update(body);
                    assert_eq!(*tag, h.finalize_trunc256(), "{name}, prefix {prefix}");
                }
            }
        }
    }
}
