//! Multiplicative Schnorr groups: a prime modulus `p` with a generator `g`
//! of a prime-order-`q` subgroup of `Z_p^*`.
//!
//! The default group ([`Group::modp_1024`]) is a 1024-bit modulus with a
//! 160-bit subgroup order (DSA-style parameters, generated offline and
//! verified prime with Miller–Rabin; a verification test lives in this
//! module). Short 160-bit exponents keep signing fast even in debug builds.
//! Each group is built once per process and holds its Montgomery constants
//! and `g`'s comb table; all arithmetic is the fixed-width code in
//! the private `mont` module.
//! [`Group::tiny_test`] is a deliberately small group for exhaustive
//! property tests — never use it for anything security-relevant.

use crate::bignum::BigUint;
use crate::mont::{self, Comb, Modulus, Scalar, ELEMENT_LIMBS, SCALAR_LIMBS};
use std::sync::{Arc, OnceLock};

/// 1024-bit prime modulus (hex). `P = Q·r + 1` with `Q` prime.
const P_1024: &str = "862832b7a2783d6f40580e02ac5fb20f396d344c107ea27bc222d7cc1675e783\
630679d54d8511268ab38365c578edfb4e079a2ae1b436687c47a186e6ba3698\
43cadd772297316b5b7ee9634e0bbce247651e09624bdb7ab4f449ed38478a10\
449772cec88ee5101c785d269525cb0bfbd56f4a72be025e93a052d56722c049";
/// 160-bit prime subgroup order.
const Q_160: &str = "a015b21ec4814e195b2ae491a60aef788045e333";
/// Generator of the order-`Q` subgroup.
const G_1024: &str = "232889ff03cbeefaacd94f4bd59743ae329a0cc741d8bbe4ccdca9b2f41309b4\
2307bec366e5cdfe98a7ccc3f6e8bddc383d5f2feb6cf558ced3f52a5b969397\
d02684298493848dbf414fb527d67b97671899a3905e2afe5b97642076ef9c9c\
12e2699b1f08dadb08fedcd399b01c87c70e876e4387c1cc0cfc1bee38554c8b";

/// Tiny test group (64-bit p, 32-bit q): for property tests only.
const P_TINY: &str = "833b01447422d9e1";
const Q_TINY: &str = "8c4bfced";
const G_TINY: &str = "5f3839d5426de26e";

/// A Schnorr group (shared, cheap to clone).
#[derive(Clone)]
pub struct Group {
    inner: Arc<GroupInner>,
}

struct GroupInner {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    /// Arithmetic mod `p`.
    fp: Modulus<ELEMENT_LIMBS>,
    /// Arithmetic mod `q`.
    fq: Modulus<SCALAR_LIMBS>,
    /// `g`'s comb: ⌈bits(q) / 4⌉ rows (40 × 16 × 128 B = 80 KiB for
    /// MODP-1024), so `g^e` for any `e < q` is one row read per nibble.
    comb: Comb<ELEMENT_LIMBS>,
    /// Serialized size of a group element in bytes.
    element_len: usize,
    /// Serialized size of a scalar in bytes.
    scalar_len: usize,
}

impl Group {
    fn from_hex(p: &str, q: &str, g: &str) -> Self {
        let p = BigUint::from_hex(p);
        let q = BigUint::from_hex(q);
        let g = BigUint::from_hex(g);
        let fp = Modulus::new(p.limbs());
        let fq = Modulus::new(q.limbs());
        let comb = Comb::new(&fp, &fp.to_mont(g.limbs()), q.bit_len().div_ceil(4));
        let element_len = p.bit_len().div_ceil(8);
        let scalar_len = q.bit_len().div_ceil(8);
        Group { inner: Arc::new(GroupInner { p, q, g, fp, fq, comb, element_len, scalar_len }) }
    }

    /// The default 1024/160-bit production group: built once per process
    /// (constants and comb table), then shared.
    pub fn modp_1024() -> Self {
        static GROUP: OnceLock<Group> = OnceLock::new();
        GROUP.get_or_init(|| Self::from_hex(P_1024, Q_160, G_1024)).clone()
    }

    /// A tiny 64/32-bit group for fast property testing. **Insecure.**
    pub fn tiny_test() -> Self {
        static GROUP: OnceLock<Group> = OnceLock::new();
        GROUP.get_or_init(|| Self::from_hex(P_TINY, Q_TINY, G_TINY)).clone()
    }

    /// Modulus `p`.
    pub fn p(&self) -> &BigUint {
        &self.inner.p
    }

    /// Subgroup order `q`.
    pub fn q(&self) -> &BigUint {
        &self.inner.q
    }

    /// Generator `g`.
    pub fn g(&self) -> &BigUint {
        &self.inner.g
    }

    /// Bytes needed to serialize a group element.
    pub fn element_len(&self) -> usize {
        self.inner.element_len
    }

    /// Bytes needed to serialize a scalar (mod q).
    pub fn scalar_len(&self) -> usize {
        self.inner.scalar_len
    }

    /// `base^exp mod p` (4-bit fixed windows; the window count follows
    /// the bit length of `exp`).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let fp = &self.inner.fp;
        self.element(&fp.pow(&fp.to_mont(base.limbs()), exp.limbs(), exp.bit_len().div_ceil(4)))
    }

    /// `g^exp mod p`, as `g^(exp mod q)` through the comb (`g` has order
    /// `q`).
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        self.pow_g_scalar(&self.inner.fq.reduce(exp.limbs()))
    }

    /// `(a * b) mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let fp = &self.inner.fp;
        self.element(&fp.mul(&fp.to_mont(a.limbs()), &fp.to_mont(b.limbs())))
    }

    /// Reduce a scalar mod `q`.
    pub fn reduce_scalar(&self, s: &BigUint) -> BigUint {
        BigUint::from_limbs(&self.scalar(s))
    }

    /// Sample a uniformly random nonzero scalar in `[1, q)`.
    pub fn random_scalar<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        BigUint::from_limbs(&self.random_nonzero(rng))
    }

    /// Membership check: `x` in `[1, p)` and `x^q == 1 (mod p)`. Variable
    /// time in nothing secret: `x` is a public key or a received value.
    pub fn is_element(&self, x: &BigUint) -> bool {
        !x.is_zero()
            && x.cmp_mag(&self.inner.p) == std::cmp::Ordering::Less
            && self.pow(x, &self.inner.q) == BigUint::one()
    }

    /// A uniformly random nonzero scalar: twice the scalar width drawn
    /// from `rng` and reduced (the bias is 2^-160 — negligible, and this
    /// is a simulated platform anyway). Zero, with probability 1/q, is
    /// the only branch: it draws again.
    pub(crate) fn random_nonzero<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        let mut buf = [0u8; 16 * SCALAR_LIMBS];
        let bytes = &mut buf[..2 * self.inner.scalar_len];
        loop {
            rng.fill_bytes(bytes);
            let s = self.scalar_from_be(bytes);
            if s != [0; SCALAR_LIMBS] {
                return s;
            }
        }
    }

    /// Big-endian bytes (at most 64) reduced mod `q`, always through the
    /// same two chunks.
    pub(crate) fn scalar_from_be(&self, bytes: &[u8]) -> Scalar {
        self.inner.fq.reduce(&mont::limbs_from_be::<{ 2 * SCALAR_LIMBS }>(bytes))
    }

    /// `k + e·x mod q`.
    pub(crate) fn scalar_mul_add(&self, k: &Scalar, e: &Scalar, x: &Scalar) -> Scalar {
        let fq = &self.inner.fq;
        fq.add(k, &fq.mul_plain(e, x))
    }

    /// `g^e mod p` for a scalar `e < q`: the comb, then out of Montgomery
    /// form.
    pub(crate) fn pow_g_scalar(&self, e: &Scalar) -> BigUint {
        self.element(&self.inner.comb.pow(&self.inner.fp, e))
    }

    /// `g^s · y^(q − e) mod p` in one simultaneous sliding-window pass.
    /// Variable time: verification inputs are all public.
    pub(crate) fn pow_g_mul_inverse(&self, s: &Scalar, y: &BigUint, e: &Scalar) -> BigUint {
        let fp = &self.inner.fp;
        let y_powers = fp.powers(&fp.to_mont(y.limbs()));
        let q_minus_e = self.inner.fq.neg(e);
        self.element(&fp.pow2_vartime(self.inner.comb.base_powers(), s, &y_powers, &q_minus_e))
    }

    /// `s mod q` as fixed limbs.
    pub(crate) fn scalar(&self, s: &BigUint) -> Scalar {
        self.inner.fq.reduce(s.limbs())
    }

    /// A Montgomery-form element mod `p` as a `BigUint`.
    fn element(&self, a: &[u64; ELEMENT_LIMBS]) -> BigUint {
        BigUint::from_limbs(&self.inner.fp.redc(a))
    }
}

impl std::fmt::Debug for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Group(p: {} bits, q: {} bits)", self.inner.p.bit_len(), self.inner.q.bit_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::oracle::{miller_rabin, OracleGroup};

    #[test]
    fn tiny_group_parameters_are_prime_and_consistent() {
        let g = Group::tiny_test();
        assert!(miller_rabin(g.p(), &[2, 3, 5, 7, 11, 13, 17, 19, 23]));
        assert!(miller_rabin(g.q(), &[2, 3, 5, 7, 11, 13, 17, 19, 23]));
        // q | p - 1
        let (_, r) = g.p().sub(&BigUint::one()).div_rem(g.q());
        assert!(r.is_zero());
        // g has order q (through the variable-base path: `pow_g` reduces
        // its exponent mod q, which is only sound because of this)
        assert_eq!(g.pow(g.g(), g.q()), BigUint::one());
        assert_ne!(*g.g(), BigUint::one());
        assert!(g.is_element(g.g()));
    }

    #[test]
    fn production_group_parameters_are_prime_and_consistent() {
        let g = Group::modp_1024();
        assert!(miller_rabin(g.p(), &[2, 3, 5]));
        assert!(miller_rabin(g.q(), &[2, 3, 5, 7, 11]));
        let (_, r) = g.p().sub(&BigUint::one()).div_rem(g.q());
        assert!(r.is_zero());
        assert_eq!(g.pow(g.g(), g.q()), BigUint::one());
        assert_ne!(*g.g(), BigUint::one());
    }

    #[test]
    fn each_group_is_built_once_per_process() {
        for (a, b) in [(Group::modp_1024(), Group::modp_1024()), (Group::tiny_test(), Group::tiny_test())] {
            assert!(Arc::ptr_eq(&a.inner, &b.inner), "two calls share one GroupInner");
        }
        assert!(!Arc::ptr_eq(&Group::modp_1024().inner, &Group::tiny_test().inner));
        // 40 rows of 16 entries of 128 bytes: the comb is 80 KiB.
        assert_eq!(Group::modp_1024().inner.comb.rows(), 40);
        assert_eq!(Group::tiny_test().inner.comb.rows(), 8);
    }

    /// Exponents 0, 1, q − 1, q, q + 1, p − 1 and bases 0, 1, p − 1, g, p,
    /// p + 1 through every public operation, against the parent's code.
    #[test]
    fn edge_values_match_the_oracle() {
        for g in [Group::modp_1024(), Group::tiny_test()] {
            let o = OracleGroup::of(&g);
            let one = BigUint::one();
            let (p, q) = (g.p().clone(), g.q().clone());
            let exps = [BigUint::zero(), one.clone(), q.sub(&one), q.clone(), q.add(&one), p.sub(&one)];
            let bases = [BigUint::zero(), one.clone(), p.sub(&one), g.g().clone(), p.clone(), p.add(&one)];
            for e in &exps {
                assert_eq!(g.pow_g(e), o.pow_g(e), "g^{e:?}");
                assert_eq!(g.reduce_scalar(e), o.reduce_scalar(e));
                for b in &bases {
                    assert_eq!(g.pow(b, e), o.pow(b, e), "{b:?}^{e:?}");
                    assert_eq!(g.mul(b, e), o.mul(b, e), "{b:?}·{e:?}");
                }
            }
            for b in &bases {
                assert_eq!(g.is_element(b), o.is_element(b), "{b:?}");
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_big(max_bytes: usize) -> impl Strategy<Value = BigUint> {
            proptest::collection::vec(any::<u8>(), 0..max_bytes).prop_map(|v| BigUint::from_bytes_be(&v))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn comb_matches_the_oracle(e in arb_big(48), tiny in any::<bool>()) {
                let g = if tiny { Group::tiny_test() } else { Group::modp_1024() };
                let o = OracleGroup::of(&g);
                prop_assert_eq!(g.pow_g(&e), o.pow_g(&e));
                let s = g.scalar(&e);
                prop_assert_eq!(g.pow_g_scalar(&s), o.pow_g(&e));
                prop_assert_eq!(BigUint::from_limbs(&s), o.reduce_scalar(&e));
            }

            #[test]
            fn variable_base_and_scalar_ops_match_the_oracle(b in arb_big(140), e in arb_big(24), k in arb_big(40), x in arb_big(40), tiny in any::<bool>()) {
                let g = if tiny { Group::tiny_test() } else { Group::modp_1024() };
                let o = OracleGroup::of(&g);
                prop_assert_eq!(g.pow(&b, &e), o.pow(&b, &e));
                prop_assert_eq!(g.mul(&b, &e), o.mul(&b, &e));
                let (ks, es, xs) = (g.scalar(&k), g.scalar(&e), g.scalar(&x));
                let want = o.reduce_scalar(&k).mod_add(&o.reduce_scalar(&e.mul(&x)), g.q());
                prop_assert_eq!(BigUint::from_limbs(&g.scalar_mul_add(&ks, &es, &xs)), want);
                let bytes = k.to_bytes_be();
                prop_assert_eq!(BigUint::from_limbs(&g.scalar_from_be(&bytes)), o.reduce_scalar(&k));
            }

            #[test]
            fn straus_matches_two_oracle_pows(s in arb_big(24), e in arb_big(24), x in arb_big(24), tiny in any::<bool>()) {
                let g = if tiny { Group::tiny_test() } else { Group::modp_1024() };
                let o = OracleGroup::of(&g);
                let y = o.pow_g(&x);
                let (ss, es) = (g.scalar(&s), g.scalar(&e));
                let q_minus_e = g.q().sub(&o.reduce_scalar(&e));
                let want = o.mul(&o.pow_g(&s), &o.pow(&y, &q_minus_e));
                prop_assert_eq!(g.pow_g_mul_inverse(&ss, &y, &es), want);
            }
        }
    }

    #[test]
    fn exponent_laws_hold() {
        let g = Group::tiny_test();
        let a = BigUint::from_u64(12345);
        let b = BigUint::from_u64(6789);
        // g^(a+b) == g^a * g^b
        let lhs = g.pow_g(&a.add(&b));
        let rhs = g.mul(&g.pow_g(&a), &g.pow_g(&b));
        assert_eq!(lhs, rhs);
        // exponents work mod q
        let a_red = g.reduce_scalar(&a.add(g.q()));
        assert_eq!(g.pow_g(&a_red), g.pow_g(&g.reduce_scalar(&a)));
    }

    #[test]
    fn random_scalars_in_range_and_distinct() {
        use rand::SeedableRng;
        let g = Group::modp_1024();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = g.random_scalar(&mut rng);
        let b = g.random_scalar(&mut rng);
        assert_ne!(a, b);
        assert!(!a.is_zero());
        assert!(a.cmp_mag(g.q()) == std::cmp::Ordering::Less);
    }

    #[test]
    fn non_elements_rejected() {
        let g = Group::tiny_test();
        assert!(!g.is_element(&BigUint::zero()));
        assert!(!g.is_element(g.p()));
        // p-1 has order 2, not q.
        let p_minus_1 = g.p().sub(&BigUint::one());
        assert!(!g.is_element(&p_minus_1));
    }

    #[test]
    fn miller_rabin_classifies_small_numbers() {
        let primes = [2u64, 3, 5, 7, 11, 101, 65537, 1_000_000_007];
        let composites = [1u64, 4, 9, 15, 561 /* Carmichael */, 65536, 1_000_000_008];
        for p in primes {
            assert!(miller_rabin(&BigUint::from_u64(p), &[2, 3, 5, 7, 11, 13]), "{p} is prime");
        }
        for c in composites {
            assert!(!miller_rabin(&BigUint::from_u64(c), &[2, 3, 5, 7, 11, 13]), "{c} is composite");
        }
    }
}
