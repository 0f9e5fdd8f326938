//! Arbitrary-precision unsigned integers: the serialization and API
//! boundary type of the Schnorr code.
//!
//! Little-endian `u64` limbs, always normalized (no trailing zero limbs;
//! zero is the empty limb vector). All arithmetic happens in fixed-width
//! limbs (the private `mont` module); a `BigUint` only carries values across the
//! public API and to and from bytes. The parent's allocating arithmetic
//! survives under `#[cfg(test)]` as the oracle (`bignum::oracle`).

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized.
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.limbs.is_empty() {
            write!(f, "0")?;
        } else {
            for (i, l) in self.limbs.iter().rev().enumerate() {
                if i == 0 {
                    write!(f, "{l:x}")?;
                } else {
                    write!(f, "{l:016x}")?;
                }
            }
        }
        write!(f, ")")
    }
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Parse big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize as big-endian bytes without leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.limbs.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serialize as exactly `len` big-endian bytes (left-padded with zeros).
    ///
    /// Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parse a hexadecimal string (whitespace allowed).
    pub fn from_hex(s: &str) -> Self {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(clean.chars().all(|c| c.is_ascii_hexdigit()), "invalid hex");
        let padded = if clean.len() % 2 == 1 { format!("0{clean}") } else { clean };
        let bytes: Vec<u8> = (0..padded.len() / 2)
            .map(|i| u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("checked hexdigit"))
            .collect();
        Self::from_bytes_be(&bytes)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The `i`-th bit (LSB = bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Compare magnitudes.
    pub fn cmp_mag(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// The little-endian limbs (normalized: empty for zero).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// From little-endian limbs (any trailing zeros are dropped).
    pub(crate) fn from_limbs(limbs: &[u64]) -> Self {
        let mut n = BigUint { limbs: limbs.to_vec() };
        n.normalize();
        n
    }
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::Montgomery;
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn roundtrip_bytes() {
        for v in [0u64, 1, 255, 256, u64::MAX] {
            let b = n(v);
            assert_eq!(BigUint::from_bytes_be(&b.to_bytes_be()), b);
        }
        let big = BigUint::from_hex("0123456789abcdef0123456789abcdef01");
        assert_eq!(BigUint::from_bytes_be(&big.to_bytes_be()), big);
    }

    #[test]
    fn padded_serialization() {
        let v = BigUint::from_u64(0x1234);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(u64::MAX).add(&n(1)).to_bytes_be(), vec![1, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(1).sub(&n(2));
    }

    #[test]
    fn mul_crosses_limbs() {
        let a = BigUint::from_hex("ffffffffffffffff");
        let b = BigUint::from_hex("ffffffffffffffff");
        assert_eq!(a.mul(&b), BigUint::from_hex("fffffffffffffffe0000000000000001"));
    }

    #[test]
    fn div_rem_matches_u128() {
        let cases: &[(u128, u128)] = &[
            (12345678901234567890, 97),
            (u128::MAX, 0xdeadbeefcafebabe),
            (1, 2),
            (100, 100),
            (0, 5),
        ];
        for &(a, b) in cases {
            let big_a = BigUint::from_bytes_be(&a.to_be_bytes());
            let big_b = BigUint::from_bytes_be(&b.to_be_bytes());
            let (q, r) = big_a.div_rem(&big_b);
            assert_eq!(q, BigUint::from_bytes_be(&(a / b).to_be_bytes()), "q for {a}/{b}");
            assert_eq!(r, BigUint::from_bytes_be(&(a % b).to_be_bytes()), "r for {a}%{b}");
        }
    }

    #[test]
    fn mod_exp_small_values() {
        // 3^7 mod 11 = 2187 mod 11 = 9
        assert_eq!(n(3).mod_exp(&n(7), &n(11)), n(9));
        // Fermat: a^(p-1) = 1 mod p for prime p.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 65537, 999999999] {
            assert_eq!(n(a).mod_exp(&p.sub(&n(1)), &p), n(1), "a={a}");
        }
        // base^0 = 1
        assert_eq!(n(5).mod_exp(&n(0), &n(7)), n(1));
    }

    #[test]
    fn mod_exp_multi_limb() {
        // 2^255 mod (2^127 - 1) — Mersenne prime M127. 2^127 ≡ 1, so
        // 2^255 = 2^(127*2+1) ≡ 2.
        let m127 = BigUint::from_hex("7fffffffffffffffffffffffffffffff");
        assert_eq!(n(2).mod_exp(&n(255), &m127), n(2));
    }

    #[test]
    fn montgomery_mul_matches_naive() {
        let m = BigUint::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdf1");
        let ctx = Montgomery::new(&m);
        let a = BigUint::from_hex("abcdef0123456789abcdef0123456789");
        let b = BigUint::from_hex("123456789abcdef0123456789abcdef11234");
        assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn mod_add_wraps() {
        let m = n(10);
        assert_eq!(n(7).mod_add(&n(8), &m), n(5));
        assert_eq!(n(2).mod_add(&n(3), &m), n(5));
    }

    #[test]
    fn hex_parse_oddlen_and_whitespace() {
        assert_eq!(BigUint::from_hex("f"), n(15));
        assert_eq!(BigUint::from_hex("ff ff"), n(0xffff));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_biguint() -> impl Strategy<Value = BigUint> {
            proptest::collection::vec(any::<u8>(), 0..40).prop_map(|v| BigUint::from_bytes_be(&v))
        }

        proptest! {
            #[test]
            fn add_commutes(a in arb_biguint(), b in arb_biguint()) {
                prop_assert_eq!(a.add(&b), b.add(&a));
            }

            #[test]
            fn add_then_sub_roundtrips(a in arb_biguint(), b in arb_biguint()) {
                prop_assert_eq!(a.add(&b).sub(&b), a);
            }

            #[test]
            fn mul_commutes(a in arb_biguint(), b in arb_biguint()) {
                prop_assert_eq!(a.mul(&b), b.mul(&a));
            }

            #[test]
            fn div_rem_reconstructs(a in arb_biguint(), b in arb_biguint()) {
                prop_assume!(!b.is_zero());
                let (q, r) = a.div_rem(&b);
                prop_assert!(r.cmp_mag(&b) == std::cmp::Ordering::Less);
                prop_assert_eq!(q.mul(&b).add(&r), a);
            }

            #[test]
            fn bytes_roundtrip(a in arb_biguint()) {
                prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
            }

            #[test]
            fn montgomery_matches_naive(a in arb_biguint(), b in arb_biguint(), mut mbytes in proptest::collection::vec(any::<u8>(), 1..32)) {
                // Force odd, nonzero modulus > 1.
                let last = mbytes.len() - 1;
                mbytes[last] |= 1;
                let m = BigUint::from_bytes_be(&mbytes);
                prop_assume!(m.cmp_mag(&BigUint::one()) == std::cmp::Ordering::Greater);
                let ctx = Montgomery::new(&m);
                prop_assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
            }

            #[test]
            fn pow_small_exponent_matches_repeated_mul(a in arb_biguint(), e in 0u32..16, mut mbytes in proptest::collection::vec(any::<u8>(), 1..16)) {
                let last = mbytes.len() - 1;
                mbytes[last] |= 1;
                let m = BigUint::from_bytes_be(&mbytes);
                prop_assume!(m.cmp_mag(&BigUint::one()) == std::cmp::Ordering::Greater);
                let ctx = Montgomery::new(&m);
                let got = ctx.pow(&a, &BigUint::from_u64(e as u64));
                let mut expect = BigUint::one().rem(&m);
                for _ in 0..e {
                    expect = expect.mod_mul(&a, &m);
                }
                prop_assert_eq!(got, expect);
            }
        }
    }
}
