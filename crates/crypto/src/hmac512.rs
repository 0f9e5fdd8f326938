//! HMAC-SHA512 (RFC 2104), the MAC the paper's SQLCipher configuration
//! uses for page authentication.
//!
//! The secure page codec stores a 32-byte truncation of this tag
//! (truncation per RFC 2104 §5: take the leftmost bytes).

use crate::ct::ct_eq;
use crate::sha512::{Sha512, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA512.
///
/// Keying absorbs the ipad and opad blocks into two hash states once;
/// `clone()` of a freshly keyed instance is therefore a pre-keyed MAC that
/// skips both pad compressions — hot paths hold one and clone it per
/// message.
#[derive(Clone)]
pub struct HmacSha512 {
    /// State after `key ^ ipad`; absorbs the message.
    inner: Sha512,
    /// State after `key ^ opad`; absorbs the inner digest at the end.
    outer: Sha512,
}

impl HmacSha512 {
    /// Create an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
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
        HmacSha512 { inner, outer }
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
}
