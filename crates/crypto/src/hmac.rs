//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC is the workhorse MAC of IronSafe: it authenticates encrypted pages,
//! forms Merkle-tree nodes, binds the Merkle root to the RPMB, and keys the
//! simulated hardware attestation responses.

use crate::ct::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA256.
///
/// Keying absorbs the ipad and opad blocks into two hash states once;
/// `clone()` of a freshly keyed instance is therefore a pre-keyed MAC that
/// skips both pad compressions — hot paths hold one and clone it per
/// message.
#[derive(Clone)]
pub struct HmacSha256 {
    /// State after `key ^ ipad`; absorbs the message.
    inner: Sha256,
    /// State after `key ^ opad`; absorbs the inner digest at the end.
    outer: Sha256,
}

impl HmacSha256 {
    /// Create an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::new())
    }

    /// Keyed on the portable SHA-256 back-end regardless of the CPU, so
    /// tests cover it on SHA-NI machines too.
    #[cfg(test)]
    pub(crate) fn new_portable(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::new_portable())
    }

    /// Key over clones of `fresh`, an empty hasher.
    fn keyed(key: &[u8], fresh: Sha256) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            k[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = fresh.clone();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = fresh;
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Verify `tag` against the absorbed message in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        let computed = self.finalize();
        tag.len() == DIGEST_LEN && ct_eq(&computed, tag)
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    h.update(data);
    h.finalize()
}

/// One-shot HMAC over the concatenation of `parts`.
pub fn hmac_sha256_concat(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_correct_and_rejects_wrong() {
        let tag = hmac_sha256(b"k", b"msg");
        let mut h = HmacSha256::new(b"k");
        h.update(b"msg");
        assert!(h.verify(&tag));

        let mut bad = tag;
        bad[0] ^= 1;
        let mut h = HmacSha256::new(b"k");
        h.update(b"msg");
        assert!(!h.verify(&bad));

        let mut h = HmacSha256::new(b"k");
        h.update(b"msg");
        assert!(!h.verify(&tag[..31]), "short tag must be rejected");
    }

    #[test]
    fn prekeyed_clone_equals_fresh_keying() {
        // On whichever back-end the CPU selects and on the portable one:
        // a clone of a keyed instance is that key's MAC, for short and
        // hashed-down (> block) keys alike, and both back-ends agree.
        for key in [b"merkle-key".as_slice(), &[0xaa; 131]] {
            let keyed = [HmacSha256::new(key), HmacSha256::new_portable(key)];
            for msg in [b"".as_slice(), b"leaf", &[0x5a; 200], &[0x17; 4136]] {
                for keyed in &keyed {
                    let mut h = keyed.clone();
                    h.update(msg);
                    assert_eq!(h.finalize(), hmac_sha256(key, msg));
                }
            }
        }
    }

    #[test]
    fn rfc4231_vectors_hold_on_the_portable_backend() {
        let tag = |key: &[u8], msg: &[u8]| {
            let mut h = HmacSha256::new_portable(key);
            h.update(msg);
            hex(&h.finalize())
        };
        assert_eq!(
            tag(&[0x0b; 20], b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            tag(&[0xaa; 131], b"Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn concat_equals_contiguous() {
        assert_eq!(
            hmac_sha256_concat(b"key", &[b"ab", b"cd"]),
            hmac_sha256(b"key", b"abcd")
        );
    }
}
