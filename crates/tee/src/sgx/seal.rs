//! SGX data sealing: authenticated encryption bound to the platform root
//! secret and the enclave measurement.
//!
//! Layout mirrors the SDK's `sgx_seal_data`: a random IV, AES-CTR
//! ciphertext and an HMAC over `IV ‖ ciphertext` with a key derived from
//! `(platform root, MRENCLAVE)` — so neither other code on the same CPU nor
//! the same code on another CPU can unseal.

use crate::{Result, TeeError};
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::hkdf;
use ironsafe_crypto::hmac::HmacSha256;
use ironsafe_crypto::modes::ctr_xor;

/// A sealed ciphertext blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// Random CTR nonce.
    pub iv: [u8; 16],
    /// AES-128-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 over `iv ‖ ciphertext`.
    pub mac: [u8; 32],
}

/// Derive the seal key for `(platform root secret, measurement)`.
pub fn derive_seal_key(root_secret: &[u8; 32], measurement: &[u8; 32]) -> [u8; 32] {
    let mut info = b"sgx-seal-key".to_vec();
    info.extend_from_slice(measurement);
    hkdf::derive_key_256(root_secret, &info)
}

/// A seal key expanded for use: the AES-128-CTR schedule of its first half
/// and an HMAC-SHA256 pre-keyed with its second, derived once so sealing a
/// blob costs no key set-up.
#[derive(Clone)]
pub struct SealKey {
    aes: Aes128,
    mac: HmacSha256,
}

impl SealKey {
    /// Expand a 32-byte seal key (see [`derive_seal_key`]).
    pub fn new(seal_key: &[u8; 32]) -> Self {
        let enc_key: [u8; 16] = seal_key[..16].try_into().expect("seal key is 32 bytes");
        SealKey { aes: Aes128::new(&enc_key), mac: HmacSha256::new(&seal_key[16..]) }
    }

    /// HMAC over `iv ‖ ciphertext`.
    fn blob_mac(&self, iv: &[u8; 16], ciphertext: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(iv);
        mac.update(ciphertext);
        mac.finalize()
    }

    /// Seal `data` under this key.
    pub fn seal(&self, data: &[u8], rng: &mut (impl rand::Rng + ?Sized)) -> SealedBlob {
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        let mut ciphertext = data.to_vec();
        ctr_xor(&self.aes, &iv, &mut ciphertext);
        let mac = self.blob_mac(&iv, &ciphertext);
        SealedBlob { iv, ciphertext, mac }
    }

    /// Unseal and authenticate a [`SealedBlob`].
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>> {
        let expect = self.blob_mac(&blob.iv, &blob.ciphertext);
        if !ironsafe_crypto::ct_eq(&expect, &blob.mac) {
            return Err(TeeError::UnsealFailed);
        }
        let mut plain = blob.ciphertext.clone();
        ctr_xor(&self.aes, &blob.iv, &mut plain);
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn roundtrip() {
        let key = SealKey::new(&derive_seal_key(&[1; 32], &[2; 32]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let blob = key.seal(b"hello", &mut rng);
        assert_eq!(key.unseal(&blob).unwrap(), b"hello");
    }

    #[test]
    fn tampering_detected() {
        let key = SealKey::new(&derive_seal_key(&[1; 32], &[2; 32]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut blob = key.seal(b"hello", &mut rng);
        blob.ciphertext[0] ^= 1;
        assert_eq!(key.unseal(&blob), Err(TeeError::UnsealFailed));
    }

    #[test]
    fn iv_tampering_detected() {
        let key = SealKey::new(&derive_seal_key(&[1; 32], &[2; 32]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut blob = key.seal(b"hello", &mut rng);
        blob.iv[0] ^= 1;
        assert_eq!(key.unseal(&blob), Err(TeeError::UnsealFailed));
    }

    #[test]
    fn seal_keys_differ_per_measurement_and_platform() {
        assert_ne!(derive_seal_key(&[1; 32], &[2; 32]), derive_seal_key(&[1; 32], &[3; 32]));
        assert_ne!(derive_seal_key(&[1; 32], &[2; 32]), derive_seal_key(&[9; 32], &[2; 32]));
    }

    #[test]
    fn sealing_twice_uses_fresh_ivs() {
        let key = SealKey::new(&derive_seal_key(&[1; 32], &[2; 32]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = key.seal(b"x", &mut rng);
        let b = key.seal(b"x", &mut rng);
        assert_ne!(a.iv, b.iv);
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    /// Captured before the cipher back-ends changed: sealing is a pure
    /// function of key, data and IV draw, and must stay one.
    #[test]
    fn sealed_blob_bytes_are_pinned() {
        let key = SealKey::new(&derive_seal_key(&[1; 32], &[2; 32]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..150u8).collect();
        let blob = key.seal(&data, &mut rng);
        let mut wire = blob.iv.to_vec();
        wire.extend_from_slice(&blob.ciphertext);
        wire.extend_from_slice(&blob.mac);
        let digest: String =
            ironsafe_crypto::sha256::sha256(&wire).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(digest, "da896b18dc2335ec55d9addfeb87a10cf4aea93681cc68936fa89da90c0fdfde");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let key = SealKey::new(&derive_seal_key(&[0; 32], &[0; 32]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let blob = key.seal(b"", &mut rng);
        assert_eq!(key.unseal(&blob).unwrap(), b"");
    }
}
