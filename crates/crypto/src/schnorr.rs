//! Schnorr signatures over a [`Group`].
//!
//! Classic scheme: for secret `x` and public `y = g^x`,
//! a signature on `m` is `(R, s)` with `R = g^k`, `e = H(R ‖ y ‖ m) mod q`,
//! `s = k + e·x mod q`; verification checks `g^s == R · y^e (mod p)`.
//!
//! The secret exponents — the key `x` and the nonce `k` — only meet the
//! comb and fixed-width scalar arithmetic of [`crate::mont`], which run
//! one operation sequence whatever their value. Verification handles
//! public values only and takes the faster variable-time path.
//!
//! These signatures back IronSafe's attestation quotes (signed by the
//! simulated hardware keys), the trusted monitor's proofs of compliance,
//! and the certificate chains produced during secure boot.

use crate::bignum::BigUint;
use crate::ct;
use crate::group::Group;
use crate::mont::Scalar;
use crate::sha256::sha256_concat;
use crate::{CryptoError, Result};

/// A Schnorr secret key: scalar `x` in `[1, q)`, with its public `y = g^x`
/// computed once.
#[derive(Clone)]
pub struct SecretKey {
    group: Group,
    x: Scalar,
    y: BigUint,
}

/// A Schnorr public key: group element `y = g^x`.
#[derive(Clone, PartialEq, Eq)]
pub struct PublicKey {
    y: BigUint,
}

/// A signature `(R, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    r: BigUint,
    s: BigUint,
}

/// A keypair.
#[derive(Clone)]
pub struct KeyPair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.y.to_bytes_be();
        let show = &b[..b.len().min(6)];
        write!(f, "PublicKey({})", show.iter().map(|x| format!("{x:02x}")).collect::<String>())
    }
}

impl KeyPair {
    /// Generate a keypair in `group` from `rng`.
    pub fn generate<R: rand::Rng + ?Sized>(group: &Group, rng: &mut R) -> Self {
        Self::from_secret(group, group.random_nonzero(rng))
    }

    /// Deterministically derive a keypair from seed material.
    ///
    /// Used to turn the simulated hardware-unique key (HUK) or ROTPK seed
    /// into a stable signing identity for a device.
    pub fn derive(group: &Group, seed: &[u8], info: &[u8]) -> Self {
        let material = crate::hkdf::hkdf_sha256(seed, b"ironsafe-keypair", info, group.scalar_len() * 2);
        let mut x = group.scalar_from_be(&material);
        // A zero scalar becomes one, by mask rather than by branch.
        x[0] |= ct::mask_eq(x.iter().fold(0, |acc, l| acc | l), 0) & 1;
        Self::from_secret(group, x)
    }

    fn from_secret(group: &Group, x: Scalar) -> Self {
        let y = group.pow_g_scalar(&x);
        KeyPair { public: PublicKey { y: y.clone() }, secret: SecretKey { group: group.clone(), x, y } }
    }
}

fn challenge(group: &Group, r: &BigUint, y: &BigUint, msg: &[u8]) -> Scalar {
    let elen = group.element_len();
    let digest = sha256_concat(&[
        b"ironsafe-schnorr-v1",
        &r.to_bytes_be_padded(elen),
        &y.to_bytes_be_padded(elen),
        msg,
    ]);
    group.scalar_from_be(&digest)
}

impl SecretKey {
    /// Sign `msg` using randomness from `rng`.
    pub fn sign<R: rand::Rng + ?Sized>(&self, msg: &[u8], rng: &mut R) -> Signature {
        self.sign_with_nonce(&self.group.random_nonzero(rng), msg)
    }

    /// `R = g^k`, `s = k + e·x mod q`: the comb and fixed-width scalar
    /// arithmetic, the same operation sequence for every `k` and `x`.
    fn sign_with_nonce(&self, k: &Scalar, msg: &[u8]) -> Signature {
        let g = &self.group;
        let r = g.pow_g_scalar(k);
        let e = challenge(g, &r, &self.y, msg);
        let s = g.scalar_mul_add(k, &e, &self.x);
        Signature { r, s: BigUint::from_limbs(&s) }
    }

    /// The corresponding public key.
    pub fn public(&self) -> PublicKey {
        PublicKey { y: self.y.clone() }
    }
}

impl PublicKey {
    /// Verify `sig` over `msg`.
    ///
    /// Checks `g^s · y^(q−e) == R` in one simultaneous pass instead of
    /// `g^s == R · y^e` plus a membership test `R^q == 1`. Both are the
    /// same test: `y` lies in the order-`q` subgroup (every `PublicKey` is
    /// `g^x` or passed [`Group::is_element`] in [`PublicKey::from_bytes`]),
    /// so `y^(q−e) = y^(−e)` and the equations differ by the invertible
    /// factor `y^e`. And the left-hand side is a product of subgroup
    /// elements, so it lies in the subgroup; an `R` equal to it does too,
    /// and one outside it (say `p − 1`, of order 2) can never match. So
    /// only the range `1 ≤ R < p` needs checking up front.
    pub fn verify(&self, group: &Group, msg: &[u8], sig: &Signature) -> Result<()> {
        use std::cmp::Ordering::Less;
        if sig.r.is_zero() || sig.r.cmp_mag(group.p()) != Less || sig.s.cmp_mag(group.q()) != Less {
            return Err(CryptoError::VerificationFailed);
        }
        let e = challenge(group, &sig.r, &self.y, msg);
        if group.pow_g_mul_inverse(&group.scalar(&sig.s), &self.y, &e) == sig.r {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }

    /// Serialize (fixed width for the group).
    pub fn to_bytes(&self, group: &Group) -> Vec<u8> {
        self.y.to_bytes_be_padded(group.element_len())
    }

    /// Deserialize and validate group membership.
    pub fn from_bytes(group: &Group, bytes: &[u8]) -> Result<Self> {
        let y = BigUint::from_bytes_be(bytes);
        if group.is_element(&y) {
            Ok(PublicKey { y })
        } else {
            Err(CryptoError::InvalidKey("not a group element"))
        }
    }
}

impl Signature {
    /// Serialize as `R ‖ s` with fixed widths.
    pub fn to_bytes(&self, group: &Group) -> Vec<u8> {
        let mut out = self.r.to_bytes_be_padded(group.element_len());
        out.extend_from_slice(&self.s.to_bytes_be_padded(group.scalar_len()));
        out
    }

    /// Deserialize; length must be exactly `element_len + scalar_len`.
    pub fn from_bytes(group: &Group, bytes: &[u8]) -> Result<Self> {
        let want = group.element_len() + group.scalar_len();
        if bytes.len() != want {
            return Err(CryptoError::MalformedCiphertext("bad signature length"));
        }
        let (rb, sb) = bytes.split_at(group.element_len());
        Ok(Signature { r: BigUint::from_bytes_be(rb), s: BigUint::from_bytes_be(sb) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::oracle::OracleGroup;
    use crate::mont::counts;
    use rand::{RngCore, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let g = Group::modp_1024();
        let mut r = rng();
        let kp = KeyPair::generate(&g, &mut r);
        let sig = kp.secret.sign(b"attestation quote", &mut r);
        assert!(kp.public.verify(&g, b"attestation quote", &sig).is_ok());
    }

    #[test]
    fn wrong_message_rejected() {
        let g = Group::modp_1024();
        let mut r = rng();
        let kp = KeyPair::generate(&g, &mut r);
        let sig = kp.secret.sign(b"msg", &mut r);
        assert_eq!(kp.public.verify(&g, b"other", &sig), Err(CryptoError::VerificationFailed));
    }

    #[test]
    fn wrong_key_rejected() {
        let g = Group::modp_1024();
        let mut r = rng();
        let kp1 = KeyPair::generate(&g, &mut r);
        let kp2 = KeyPair::generate(&g, &mut r);
        let sig = kp1.secret.sign(b"msg", &mut r);
        assert!(kp2.public.verify(&g, b"msg", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let g = Group::modp_1024();
        let mut r = rng();
        let kp = KeyPair::generate(&g, &mut r);
        let sig = kp.secret.sign(b"msg", &mut r);
        let mut bytes = sig.to_bytes(&g);
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let bad = Signature::from_bytes(&g, &bytes).unwrap();
        assert!(kp.public.verify(&g, b"msg", &bad).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let g = Group::modp_1024();
        let mut r = rng();
        let kp = KeyPair::generate(&g, &mut r);
        let sig = kp.secret.sign(b"m", &mut r);
        let sig2 = Signature::from_bytes(&g, &sig.to_bytes(&g)).unwrap();
        assert_eq!(sig, sig2);
        let pk2 = PublicKey::from_bytes(&g, &kp.public.to_bytes(&g)).unwrap();
        assert_eq!(kp.public, pk2);
    }

    #[test]
    fn derived_keys_are_stable_and_domain_separated() {
        let g = Group::modp_1024();
        let a1 = KeyPair::derive(&g, b"huk-device-1", b"attest");
        let a2 = KeyPair::derive(&g, b"huk-device-1", b"attest");
        let b = KeyPair::derive(&g, b"huk-device-1", b"storage");
        let c = KeyPair::derive(&g, b"huk-device-2", b"attest");
        assert_eq!(a1.public, a2.public);
        assert_ne!(a1.public, b.public);
        assert_ne!(a1.public, c.public);
    }

    #[test]
    fn signature_wrong_length_rejected() {
        let g = Group::modp_1024();
        assert!(Signature::from_bytes(&g, &[0u8; 10]).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Captured at the parent commit `1986c8c` (square-and-multiply on
    /// `Vec` limbs): seed 2026, `KeyPair::generate`, then `sign`.
    #[test]
    fn signatures_match_the_parent_golden() {
        const SIG_1024: &str = "0e7fef42ed46b8a5cb4ea80a748e65eaae9e648d5a0faecf5bc72aa8c4de160a\
            dc7b62b3ea9d70a1cfdce3ed95bacf7f8e3e23e55598d18de581dbeae25ca412\
            e59f2d89af49a404c4c5422de477480b7c06ce46835fae2555a7e272d417b1ed\
            e514378d6a56dbcf644c676819186a31b905500729f0cb6b1340e2db1627a14c\
            3168989a855dc11884b57619ed2840d147ecce16";
        const PK_1024: &str = "70c91b0e6164e3443288c5a2b87aadd28de7eeb6681bf69473d1c98c17a9b62d\
            eb3d5c560abfc54152ce5a875c8e5d6a7ddf789fa9de08cee6f8d42a1dea288f\
            d7b888844cf41b793d9105434fd23ba3498c4fe0d56ac359f126b1edd3f47dfb\
            74766fcd4c8083b7e0fe769a8c4628269554ce40c51ee7d99a6f5ae355eacb25";
        const SIG_TINY: &str = "42e7be6839bec4cd631dc565";
        let strip = |s: &str| s.split_whitespace().collect::<String>();
        for (g, sig_hex, pk_hex) in
            [(Group::modp_1024(), strip(SIG_1024), Some(strip(PK_1024))), (Group::tiny_test(), strip(SIG_TINY), None)]
        {
            let mut r = rand::rngs::StdRng::seed_from_u64(2026);
            let kp = KeyPair::generate(&g, &mut r);
            let sig = kp.secret.sign(b"ironsafe-pr26-golden", &mut r);
            assert_eq!(hex(&sig.to_bytes(&g)), sig_hex);
            if let Some(pk_hex) = pk_hex {
                assert_eq!(hex(&kp.public.to_bytes(&g)), pk_hex);
            }
            assert!(kp.public.verify(&g, b"ironsafe-pr26-golden", &sig).is_ok());
        }
    }

    /// 256 seeds × messages of 0 / 1 / 160 / 1 000 bytes × both groups,
    /// each side fed its own copy of one `StdRng` stream: the parent's
    /// algorithms and the fixed-width ones draw the same bytes and produce
    /// the same keys, scalars and signature bytes.
    #[test]
    fn keys_scalars_and_signatures_match_the_oracle_byte_for_byte() {
        for g in [Group::modp_1024(), Group::tiny_test()] {
            let o = OracleGroup::of(&g);
            for seed in 0..256u64 {
                for len in [0usize, 1, 160, 1000] {
                    let msg: Vec<u8> = (0..len).map(|i| (seed as usize * 31 + i * 7) as u8).collect();
                    let mut ours = rand::rngs::StdRng::seed_from_u64(seed << 16 | len as u64);
                    let mut theirs = ours.clone();

                    let kp = KeyPair::generate(&g, &mut ours);
                    let (x, y) = o.generate(&mut theirs);
                    assert_eq!((BigUint::from_limbs(&kp.secret.x), &kp.public.y), (x.clone(), &y), "generate, seed {seed}");
                    assert_eq!(kp.secret.public(), kp.public);

                    let sig = kp.secret.sign(&msg, &mut ours);
                    assert_eq!(sig.to_bytes(&g), o.sign(&x, &msg, &mut theirs), "sign, seed {seed}, {len} bytes");

                    assert_eq!(g.random_scalar(&mut ours), o.random_scalar(&mut theirs), "random_scalar, seed {seed}");
                    assert_eq!(ours.next_u64(), theirs.next_u64(), "rng state, seed {seed}");

                    let derived = KeyPair::derive(&g, &seed.to_be_bytes(), &msg);
                    assert_eq!(derived.public.y, o.derive(&seed.to_be_bytes(), &msg).1, "derive, seed {seed}");
                }
            }
        }
    }

    /// The secret-exponent paths run one sequence of Montgomery
    /// multiplications and masked table reads whatever the nonce or key.
    #[test]
    fn secret_paths_run_one_operation_sequence() {
        let g = Group::modp_1024();
        let kp = KeyPair::derive(&g, b"ct", b"sign");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let one: Scalar = [1, 0, 0, 0];
        let q_minus_1 = g.scalar(&g.q().sub(&BigUint::one()));
        let mut nonces: Vec<Scalar> = (0..64).map(|_| g.random_nonzero(&mut rng)).collect();
        nonces.extend([one, q_minus_1]);
        let sign_counts: Vec<(u64, u64)> = nonces
            .iter()
            .map(|k| counts::during(|| drop(kp.secret.sign_with_nonce(k, b"proof of compliance"))))
            .collect();
        let draw_counts: Vec<(u64, u64)> = (0..64u64)
            .map(|seed| {
                counts::during(|| {
                    std::hint::black_box(g.random_nonzero(&mut rand::rngs::StdRng::seed_from_u64(seed)));
                })
            })
            .collect();
        let derive_counts: Vec<(u64, u64)> = (0..64u64)
            .map(|seed| counts::during(|| drop(KeyPair::derive(&g, &seed.to_be_bytes(), b"ct"))))
            .collect();
        for (what, seen) in [("sign", &sign_counts), ("nonce draw", &draw_counts), ("derive", &derive_counts)] {
            assert!(seen.iter().all(|c| *c == seen[0]), "{what}: {seen:?}");
            println!("{what}: {} runs, each {} montmuls + {} masked table reads", seen.len(), seen[0].0, seen[0].1);
        }
        // The comb is one read per nibble of q (40) and one multiplication
        // fewer (39), plus the conversions around it.
        assert_eq!(sign_counts[0].1, 40);
        assert_eq!(derive_counts[0].1, 40);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[test]
            fn roundtrip_any_message(msg in proptest::collection::vec(any::<u8>(), 0..256), seed in any::<u64>()) {
                let g = Group::tiny_test();
                let mut r = rand::rngs::StdRng::seed_from_u64(seed);
                let kp = KeyPair::generate(&g, &mut r);
                let sig = kp.secret.sign(&msg, &mut r);
                prop_assert!(kp.public.verify(&g, &msg, &sig).is_ok());
            }

            #[test]
            fn flipped_message_bit_rejected(mut msg in proptest::collection::vec(any::<u8>(), 1..64), seed in any::<u64>(), idx in any::<usize>()) {
                let g = Group::tiny_test();
                let mut r = rand::rngs::StdRng::seed_from_u64(seed);
                let kp = KeyPair::generate(&g, &mut r);
                let sig = kp.secret.sign(&msg, &mut r);
                let i = idx % msg.len();
                msg[i] ^= 1;
                prop_assert!(kp.public.verify(&g, &msg, &sig).is_err());
            }
        }

        /// `Ok` / `Err` of the one-pass verify equals the parent's
        /// three-exponentiation verify on a valid signature, on every
        /// single-byte flip of its bytes, on a non-subgroup `R = p − 1`,
        /// on `R` of 0 and `p`, and on `s` of `q` and above.
        fn verify_agrees_with_the_oracle(g: &Group, seed: u64, msg: &[u8], mask: u8) -> std::result::Result<(), TestCaseError> {
            let o = OracleGroup::of(g);
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let kp = KeyPair::generate(g, &mut r);
            let bytes = kp.secret.sign(msg, &mut r).to_bytes(g);
            let check = |bytes: &[u8]| -> std::result::Result<(), TestCaseError> {
                let ours = kp.public.verify(g, msg, &Signature::from_bytes(g, bytes).unwrap()).is_ok();
                prop_assert_eq!(ours, o.verify(&kp.public.y, msg, bytes), "signature {}", hex(bytes));
                Ok(())
            };
            check(&bytes)?;
            prop_assert!(kp.public.verify(g, msg, &Signature::from_bytes(g, &bytes).unwrap()).is_ok());
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                check(&flipped)?;
            }
            let (elen, slen) = (g.element_len(), g.scalar_len());
            let p_minus_1 = g.p().sub(&BigUint::one());
            for r_val in [p_minus_1, BigUint::zero(), g.p().clone(), BigUint::one()] {
                let mut forged = r_val.to_bytes_be_padded(elen);
                forged.extend_from_slice(&bytes[elen..]);
                check(&forged)?;
            }
            let max_s = BigUint::from_bytes_be(&vec![0xff; slen]);
            for s_val in [g.q().clone(), g.q().add(&BigUint::one()), max_s] {
                let mut forged = bytes[..elen].to_vec();
                forged.extend_from_slice(&s_val.to_bytes_be_padded(slen));
                check(&forged)?;
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn verify_matches_the_oracle_tiny(msg in proptest::collection::vec(any::<u8>(), 0..64), seed in any::<u64>(), mask in 1u8..=255) {
                verify_agrees_with_the_oracle(&Group::tiny_test(), seed, &msg, mask)?;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]
            #[test]
            fn verify_matches_the_oracle_1024(msg in proptest::collection::vec(any::<u8>(), 0..64), seed in any::<u64>(), mask in 1u8..=255) {
                verify_agrees_with_the_oracle(&Group::modp_1024(), seed, &msg, mask)?;
            }
        }
    }
}
