//! The parent's big-integer arithmetic and Schnorr algorithms, kept as the
//! test oracle every fixed-width routine is compared against.
//!
//! Copied from commit `1986c8c` (the parent of the fixed-width Montgomery
//! change): `BigUint`'s allocating `add`/`sub`/`mul`/`shl1`/`div_rem`/
//! `rem`/`mod_*`, the `Vec`-limb [`Montgomery`] context with its
//! left-to-right square-and-multiply `pow`, Miller–Rabin, and — over the
//! same group parameters — the parent's `Group` operations, key generation,
//! `SecretKey::sign` and `PublicKey::verify` ([`OracleGroup`]). With the
//! same RNG stream these produce the parent's bytes, which is what the
//! golden and differential tests pin the release code to.

use super::BigUint;
use crate::group::Group;
use crate::sha256::sha256_concat;
use std::cmp::Ordering;

impl BigUint {
    /// `self + other`.
    pub(crate) fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; panics on underflow.
    pub(crate) fn sub(&self, other: &Self) -> Self {
        assert!(self.cmp_mag(other) != Ordering::Less, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Schoolbook multiplication.
    pub(crate) fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by one bit.
    pub(crate) fn shl1(&self) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in &self.limbs {
            out.push((l << 1) | carry);
            carry = l >> 63;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Binary long division: returns `(quotient, remainder)`.
    pub(crate) fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_mag(divisor) == Ordering::Less {
            return (Self::zero(), self.clone());
        }
        let bits = self.bit_len();
        let mut quotient_limbs = vec![0u64; self.limbs.len()];
        let mut rem = Self::zero();
        for i in (0..bits).rev() {
            rem = rem.shl1();
            if self.bit(i) {
                if rem.limbs.is_empty() {
                    rem.limbs.push(1);
                } else {
                    rem.limbs[0] |= 1;
                }
            }
            if rem.cmp_mag(divisor) != Ordering::Less {
                rem = rem.sub(divisor);
                quotient_limbs[i / 64] |= 1u64 << (i % 64);
            }
        }
        let mut q = BigUint { limbs: quotient_limbs };
        q.normalize();
        (q, rem)
    }

    /// `self mod m`.
    pub(crate) fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `(self + other) mod m`; inputs must already be `< m`.
    pub(crate) fn mod_add(&self, other: &Self, m: &Self) -> Self {
        debug_assert!(self.cmp_mag(m) == Ordering::Less && other.cmp_mag(m) == Ordering::Less);
        let s = self.add(other);
        if s.cmp_mag(m) == Ordering::Less {
            s
        } else {
            s.sub(m)
        }
    }

    /// `(self * other) mod m` via full multiply + reduce.
    pub(crate) fn mod_mul(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m` using Montgomery multiplication (m must be odd).
    pub(crate) fn mod_exp(&self, exp: &Self, m: &Self) -> Self {
        let ctx = Montgomery::new(m);
        ctx.pow(&self.rem(m), exp)
    }
}

/// Montgomery-multiplication context for a fixed odd modulus.
pub(crate) struct Montgomery {
    n: Vec<u64>,
    n0_inv_neg: u64,
    /// R^2 mod n, where R = 2^(64·len).
    r2: Vec<u64>,
    modulus: BigUint,
}

impl Montgomery {
    /// Build a context; panics if the modulus is even or zero.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_zero(), "Montgomery modulus must be nonzero");
        assert!(modulus.limbs[0] & 1 == 1, "Montgomery modulus must be odd");
        let n = modulus.limbs.clone();
        let n0 = n[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv_neg = inv.wrapping_neg();
        let len = n.len();
        let mut r2 = BigUint::one();
        for _ in 0..(2 * 64 * len) {
            r2 = r2.shl1();
            if r2.cmp_mag(modulus) != Ordering::Less {
                r2 = r2.sub(modulus);
            }
        }
        let mut r2_limbs = r2.limbs;
        r2_limbs.resize(len, 0);
        Montgomery { n, n0_inv_neg, r2: r2_limbs, modulus: modulus.clone() }
    }

    fn montmul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let len = self.n.len();
        let mut t = vec![0u64; len + 2];
        for &ai in a.iter() {
            let mut carry = 0u128;
            for j in 0..len {
                let v = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = v as u64;
                carry = v >> 64;
            }
            let v = t[len] as u128 + carry;
            t[len] = v as u64;
            t[len + 1] = (v >> 64) as u64;

            let m = t[0].wrapping_mul(self.n0_inv_neg);
            let v = t[0] as u128 + m as u128 * self.n[0] as u128;
            let mut carry = v >> 64;
            for j in 1..len {
                let v = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = t[len] as u128 + carry;
            t[len - 1] = v as u64;
            t[len] = t[len + 1] + ((v >> 64) as u64);
            t[len + 1] = 0;
        }
        t.truncate(len + 1);
        let mut result = BigUint { limbs: t };
        result.normalize();
        if result.cmp_mag(&self.modulus) != Ordering::Less {
            result = result.sub(&self.modulus);
        }
        let mut limbs = result.limbs;
        limbs.resize(len, 0);
        limbs
    }

    fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let mut limbs = a.rem(&self.modulus).limbs;
        limbs.resize(self.n.len(), 0);
        self.montmul(&limbs, &self.r2)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, a: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.n.len()];
        one[0] = 1;
        let mut out = BigUint { limbs: self.montmul(a, &one) };
        out.normalize();
        out
    }

    /// `base^exp mod n` (left-to-right square and multiply).
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let base_m = self.to_mont(base);
        let mut acc = base_m.clone();
        let bits = exp.bit_len();
        for i in (0..bits - 1).rev() {
            acc = self.montmul(&acc, &acc);
            if exp.bit(i) {
                acc = self.montmul(&acc, &base_m);
            }
        }
        self.from_mont(&acc)
    }

    /// `(a * b) mod n` through Montgomery representation.
    pub(crate) fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.montmul(&am, &bm))
    }
}

/// Miller–Rabin probabilistic primality test with the given witness bases.
pub(crate) fn miller_rabin(n: &BigUint, bases: &[u64]) -> bool {
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    if n.cmp_mag(&two) == Ordering::Less {
        return false;
    }
    if !n.bit(0) {
        return *n == two;
    }
    let n_minus_1 = n.sub(&one);
    let mut s = 0usize;
    while !n_minus_1.bit(s) {
        s += 1;
    }
    let mut d = n_minus_1.clone();
    for _ in 0..s {
        let (q, _) = d.div_rem(&two);
        d = q;
    }
    'base: for &b in bases {
        let a = BigUint::from_u64(b).rem(n);
        if a.is_zero() || a == one {
            continue;
        }
        let mut x = a.mod_exp(&d, n);
        if x == one || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = x.mod_mul(&x, n);
            if x == n_minus_1 {
                continue 'base;
            }
        }
        return false;
    }
    true
}

/// The parent's `Group` + `schnorr` algorithms over `group`'s parameters.
pub(crate) struct OracleGroup {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    mont: Montgomery,
    element_len: usize,
    scalar_len: usize,
}

impl OracleGroup {
    /// The oracle over the same `p`, `q`, `g` as `group`.
    pub(crate) fn of(group: &Group) -> Self {
        OracleGroup {
            p: group.p().clone(),
            q: group.q().clone(),
            g: group.g().clone(),
            mont: Montgomery::new(group.p()),
            element_len: group.element_len(),
            scalar_len: group.scalar_len(),
        }
    }

    /// Parent `Group::pow`.
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mont.pow(base, exp)
    }

    /// Parent `Group::pow_g`.
    pub(crate) fn pow_g(&self, exp: &BigUint) -> BigUint {
        self.pow(&self.g, exp)
    }

    /// Parent `Group::mul`.
    pub(crate) fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont.mul(a, b)
    }

    /// Parent `Group::reduce_scalar`.
    pub(crate) fn reduce_scalar(&self, s: &BigUint) -> BigUint {
        s.rem(&self.q)
    }

    /// Parent `Group::random_scalar`.
    pub(crate) fn random_scalar<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let mut bytes = vec![0u8; self.scalar_len * 2];
        loop {
            rng.fill_bytes(&mut bytes);
            let s = BigUint::from_bytes_be(&bytes).rem(&self.q);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Parent `Group::is_element`.
    pub(crate) fn is_element(&self, x: &BigUint) -> bool {
        !x.is_zero() && x.cmp_mag(&self.p) == Ordering::Less && self.pow(x, &self.q) == BigUint::one()
    }

    /// Parent `KeyPair::generate`: `(x, y)`.
    pub(crate) fn generate<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> (BigUint, BigUint) {
        let x = self.random_scalar(rng);
        let y = self.pow_g(&x);
        (x, y)
    }

    /// Parent `KeyPair::derive`: `(x, y)`.
    pub(crate) fn derive(&self, seed: &[u8], info: &[u8]) -> (BigUint, BigUint) {
        let material = crate::hkdf::hkdf_sha256(seed, b"ironsafe-keypair", info, self.scalar_len * 2);
        let x = self.reduce_scalar(&BigUint::from_bytes_be(&material));
        let x = if x.is_zero() { BigUint::one() } else { x };
        let y = self.pow_g(&x);
        (x, y)
    }

    fn challenge(&self, r: &BigUint, y: &BigUint, msg: &[u8]) -> BigUint {
        let digest = sha256_concat(&[
            b"ironsafe-schnorr-v1",
            &r.to_bytes_be_padded(self.element_len),
            &y.to_bytes_be_padded(self.element_len),
            msg,
        ]);
        self.reduce_scalar(&BigUint::from_bytes_be(&digest))
    }

    /// Parent `SecretKey::sign`, serialized as `Signature::to_bytes` does.
    pub(crate) fn sign<R: rand::Rng + ?Sized>(&self, x: &BigUint, msg: &[u8], rng: &mut R) -> Vec<u8> {
        let k = self.random_scalar(rng);
        let r = self.pow_g(&k);
        let e = self.challenge(&r, &self.pow_g(x), msg);
        let s = k.mod_add(&self.reduce_scalar(&e.mul(x)), &self.q);
        let mut out = r.to_bytes_be_padded(self.element_len);
        out.extend_from_slice(&s.to_bytes_be_padded(self.scalar_len));
        out
    }

    /// Parent `PublicKey::verify` over a serialized signature `R ‖ s`.
    pub(crate) fn verify(&self, y: &BigUint, msg: &[u8], sig: &[u8]) -> bool {
        let (rb, sb) = sig.split_at(self.element_len);
        let (r, s) = (BigUint::from_bytes_be(rb), BigUint::from_bytes_be(sb));
        if !self.is_element(&r) || s.cmp_mag(&self.q) != Ordering::Less {
            return false;
        }
        let e = self.challenge(&r, y, msg);
        self.pow_g(&s) == self.mul(&r, &self.pow(y, &e))
    }
}
