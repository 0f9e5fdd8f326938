//! Fixed-width Montgomery arithmetic: the only big-number arithmetic the
//! release build runs.
//!
//! Every value is a `[u64; N]` on the stack — no allocation, no
//! normalisation, no length-dependent loop. Multiplication is CIOS
//! (coarsely integrated operand scanning) with the product and the
//! reduction fused in one pass and one masked final subtraction; CIOS only
//! needs `n < R = 2^(64N)`, so one width serves every group
//! ([`ELEMENT_LIMBS`] for elements mod `p`, [`SCALAR_LIMBS`] for scalars
//! mod `q`). On top of it:
//!
//! * [`Comb`]: a fixed-base table for the generator, one masked row read
//!   and one multiplication per 4 exponent bits;
//! * [`Modulus::pow`]: 4-bit fixed windows for any other base, one masked
//!   table read per window;
//! * [`Modulus::pow2_vartime`]: a simultaneous (Straus/Shamir)
//!   sliding-window `a^e · b^f` for verification, where every input is
//!   public.
//!
//! The first two — the ones secret exponents go through — run the same
//! sequence of multiplications and table reads for every exponent of a
//! given width, and read every table entry under a mask (`crate::ct`).
//! The parent's `Vec`-limb code is the oracle in `bignum::oracle`.

use crate::ct;

/// Limbs of a group element: 1024 bits, for every group.
pub(crate) const ELEMENT_LIMBS: usize = 16;
/// Limbs of a scalar mod `q`: room for a 256-bit subgroup order.
pub(crate) const SCALAR_LIMBS: usize = 4;
/// A scalar mod `q`, little-endian, always fully reduced.
pub(crate) type Scalar = [u64; SCALAR_LIMBS];
/// A window table: `[b^0, b^1, …, b^15]` in Montgomery form.
pub(crate) type Powers<const N: usize> = [[u64; N]; 16];

/// An odd modulus `n > 1` of at most `N` limbs, with its Montgomery
/// constants for `R = 2^(64N)`.
pub(crate) struct Modulus<const N: usize> {
    n: [u64; N],
    /// `-n⁻¹ mod 2^64`.
    n0_inv_neg: u64,
    /// `R mod n`: one, in Montgomery form.
    one: [u64; N],
    /// `R² mod n`.
    r2: [u64; N],
}

impl<const N: usize> Modulus<N> {
    /// Constants for the modulus with little-endian limbs `modulus`.
    /// Panics unless it is odd, greater than one and at most `N` limbs.
    pub(crate) fn new(modulus: &[u64]) -> Self {
        assert!(modulus.len() <= N, "modulus wider than {N} limbs");
        let mut n = [0u64; N];
        n[..modulus.len()].copy_from_slice(modulus);
        let mut unit = [0u64; N];
        unit[0] = 1;
        assert!(n[0] & 1 == 1 && n != unit, "modulus must be odd and > 1");
        // Newton iteration for n0⁻¹ mod 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let mut m = Modulus { n, n0_inv_neg: inv.wrapping_neg(), one: [0; N], r2: [0; N] };
        // 2^k mod n by doubling from 1 (once per modulus): k = 64N is R,
        // k = 128N is R².
        let mut x = [0u64; N];
        x[0] = 1;
        for k in 1..=128 * N {
            x = m.add(&x, &x);
            if k == 64 * N {
                m.one = x;
            }
        }
        m.r2 = x;
        m
    }

    /// `a · b · R⁻¹ mod n`, fully reduced, for `a < R` and `b < n` (or the
    /// other way round).
    pub(crate) fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        #[cfg(test)]
        counts::mul();
        let mut t = [0u64; N];
        // t[N]: the running value is below 2n < 2R, so this is 0 or 1.
        let mut hi = 0u64;
        for &ai in a {
            let v = t[0] as u128 + ai as u128 * b[0] as u128;
            let mut c1 = (v >> 64) as u64;
            let m = (v as u64).wrapping_mul(self.n0_inv_neg);
            // The low word of this sum is zero by the choice of m.
            let mut c2 = ((v as u64 as u128 + m as u128 * self.n[0] as u128) >> 64) as u64;
            for j in 1..N {
                let v = t[j] as u128 + ai as u128 * b[j] as u128 + c1 as u128;
                c1 = (v >> 64) as u64;
                let v = v as u64 as u128 + m as u128 * self.n[j] as u128 + c2 as u128;
                c2 = (v >> 64) as u64;
                t[j - 1] = v as u64;
            }
            let v = hi as u128 + c1 as u128 + c2 as u128;
            t[N - 1] = v as u64;
            hi = (v >> 64) as u64;
        }
        self.subtract_once(&t, hi)
    }

    /// `(a + b) mod n` for `a, b < n`.
    pub(crate) fn add(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut s = [0u64; N];
        let mut carry = 0u64;
        for i in 0..N {
            let v = a[i] as u128 + b[i] as u128 + carry as u128;
            s[i] = v as u64;
            carry = (v >> 64) as u64;
        }
        self.subtract_once(&s, carry)
    }

    /// `n - a` for `a < n` (so `n` itself for zero): a public negation.
    pub(crate) fn neg(&self, a: &[u64; N]) -> [u64; N] {
        let mut d = [0u64; N];
        let mut borrow = 0u64;
        for i in 0..N {
            let v = (self.n[i] as u128).wrapping_sub(a[i] as u128 + borrow as u128);
            d[i] = v as u64;
            borrow = (v >> 127) as u64;
        }
        d
    }

    /// `t + hi·R`, less `n` when that is at least `n`; the input must be
    /// below `2n`. Both differences are computed and one is kept by mask.
    fn subtract_once(&self, t: &[u64; N], hi: u64) -> [u64; N] {
        let mut d = [0u64; N];
        let mut borrow = 0u64;
        for i in 0..N {
            let v = (t[i] as u128).wrapping_sub(self.n[i] as u128 + borrow as u128);
            d[i] = v as u64;
            borrow = (v >> 127) as u64;
        }
        // t + hi·R ≥ n exactly when the top carry is set or nothing borrowed.
        ct::select(ct::mask(hi | (borrow ^ 1)), &d, t)
    }

    /// `x · R mod n` for a little-endian `x` of any length: Horner over
    /// `N`-limb chunks, two multiplications and one addition per chunk.
    pub(crate) fn to_mont(&self, x: &[u64]) -> [u64; N] {
        let mut acc = [0u64; N];
        for chunk in x.chunks(N).rev() {
            let mut c = [0u64; N];
            c[..chunk.len()].copy_from_slice(chunk);
            acc = self.add(&self.mul(&acc, &self.r2), &self.mul(&c, &self.r2));
        }
        acc
    }

    /// `a · R⁻¹ mod n` (Montgomery reduction): out of Montgomery form.
    pub(crate) fn redc(&self, a: &[u64; N]) -> [u64; N] {
        let mut unit = [0u64; N];
        unit[0] = 1;
        self.mul(a, &unit)
    }

    /// `x mod n` for a little-endian `x` of any length.
    pub(crate) fn reduce(&self, x: &[u64]) -> [u64; N] {
        self.redc(&self.to_mont(x))
    }

    /// `a · b mod n` for plain (not Montgomery-form) `a, b < n`.
    pub(crate) fn mul_plain(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        self.mul(&self.mul(a, b), &self.r2)
    }

    /// `[b^0, …, b^15]` for a Montgomery-form `b`: fourteen multiplications.
    pub(crate) fn powers(&self, b: &[u64; N]) -> Powers<N> {
        let mut table = [self.one; 16];
        table[1] = *b;
        for j in 2..16 {
            table[j] = self.mul(&table[j - 1], b);
        }
        table
    }

    /// `b^e` for a Montgomery-form `b`, over the low `windows` nibbles of
    /// `e`: per window four squarings, one masked table read and one
    /// multiplication, whatever the nibble. Only the window count — the
    /// caller's choice — shapes the sequence.
    pub(crate) fn pow(&self, b: &[u64; N], e: &[u64], windows: usize) -> [u64; N] {
        let Some(top) = windows.checked_sub(1) else { return self.one };
        let table = self.powers(b);
        let mut acc = select(&table, nibble(e, top));
        for w in (0..top).rev() {
            for _ in 0..4 {
                acc = self.mul(&acc, &acc);
            }
            acc = self.mul(&acc, &select(&table, nibble(e, w)));
        }
        acc
    }

    /// `a^e · b^f` from the window tables of `a` and `b`: one squaring
    /// chain over both exponents, each multiplying in its odd 4-bit
    /// sliding windows where they end. **Variable time** — it skips zero
    /// bits and indexes the tables directly — so public inputs only.
    pub(crate) fn pow2_vartime(&self, a: &Powers<N>, e: &Scalar, b: &Powers<N>, f: &Scalar) -> [u64; N] {
        let (de, df) = (sliding_windows(e), sliding_windows(f));
        let mut acc = self.one;
        for i in (0..bit_len(e).max(bit_len(f))).rev() {
            acc = self.mul(&acc, &acc);
            if de[i] != 0 {
                acc = self.mul(&acc, &a[de[i] as usize]);
            }
            if df[i] != 0 {
                acc = self.mul(&acc, &b[df[i] as usize]);
            }
        }
        acc
    }
}

/// Fixed-base comb for one base `g`: row `i` is the window table of
/// `g^(16^i)`, so `g^e` for `e < 16^rows` is one masked read per row and
/// `rows − 1` multiplications — no squarings.
pub(crate) struct Comb<const N: usize> {
    rows: Vec<Powers<N>>,
}

impl<const N: usize> Comb<N> {
    /// Build `rows` rows for the Montgomery-form base `g` (once per group).
    pub(crate) fn new(m: &Modulus<N>, g: &[u64; N], rows: usize) -> Self {
        let mut base = *g;
        let rows = (0..rows)
            .map(|_| {
                let row = m.powers(&base);
                base = m.mul(&row[15], &base);
                row
            })
            .collect();
        Comb { rows }
    }

    /// Number of rows (nibbles of exponent covered).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Row 0: `[g^0, …, g^15]`.
    pub(crate) fn base_powers(&self) -> &Powers<N> {
        &self.rows[0]
    }

    /// `g^e` in Montgomery form, `e < 16^rows`.
    pub(crate) fn pow(&self, m: &Modulus<N>, e: &[u64]) -> [u64; N] {
        debug_assert!(bit_len(e) <= 4 * self.rows.len(), "exponent wider than the comb");
        let mut acc = select(&self.rows[0], nibble(e, 0));
        for (i, row) in self.rows.iter().enumerate().skip(1) {
            acc = m.mul(&acc, &select(row, nibble(e, i)));
        }
        acc
    }
}

/// `table[idx]`, reading every entry and keeping one under a mask.
fn select<const N: usize>(table: &Powers<N>, idx: u64) -> [u64; N] {
    #[cfg(test)]
    counts::select();
    let mut out = [0u64; N];
    for (j, entry) in table.iter().enumerate() {
        let m = ct::mask_eq(j as u64, idx);
        for (o, &l) in out.iter_mut().zip(entry) {
            *o |= l & m;
        }
    }
    out
}

/// Nibble `i` of little-endian limbs (zero past the end).
fn nibble(e: &[u64], i: usize) -> u64 {
    e.get(i / 16).map_or(0, |l| (l >> (4 * (i % 16))) & 15)
}

/// Significant bits of little-endian limbs.
fn bit_len(e: &[u64]) -> usize {
    e.iter().rposition(|&l| l != 0).map_or(0, |i| 64 * i + 64 - e[i].leading_zeros() as usize)
}

/// Sliding 4-bit windows of `e`, scanned from the top: entry `i` is the
/// odd value of the window whose lowest bit is bit `i`, or 0.
fn sliding_windows(e: &Scalar) -> [u8; 64 * SCALAR_LIMBS] {
    let bit = |i: usize| (e[i / 64] >> (i % 64)) & 1;
    let mut digits = [0u8; 64 * SCALAR_LIMBS];
    let mut top = bit_len(e);
    while top > 0 {
        if bit(top - 1) == 0 {
            top -= 1;
            continue;
        }
        let mut low = top.saturating_sub(4);
        while bit(low) == 0 {
            low += 1;
        }
        digits[low] = (low..top).rev().fold(0, |d, i| (d << 1) | bit(i) as u8);
        top = low;
    }
    digits
}

/// Big-endian `bytes` as `M` little-endian limbs; panics if they do not fit.
pub(crate) fn limbs_from_be<const M: usize>(bytes: &[u8]) -> [u64; M] {
    assert!(bytes.len() <= 8 * M, "{} bytes do not fit {M} limbs", bytes.len());
    let mut out = [0u64; M];
    for (limb, chunk) in out.iter_mut().zip(bytes.rchunks(8)) {
        *limb = chunk.iter().fold(0, |l, &b| (l << 8) | b as u64);
    }
    out
}

/// Per-thread counts of Montgomery multiplications and masked table reads:
/// the operation sequence the constant-time tests compare across secrets.
#[cfg(test)]
pub(crate) mod counts {
    use std::cell::Cell;

    thread_local! {
        static MULS: Cell<u64> = const { Cell::new(0) };
        static SELECTS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn mul() {
        MULS.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn select() {
        SELECTS.with(|c| c.set(c.get() + 1));
    }

    /// `(multiplications, table reads)` that `f` ran on this thread.
    pub(crate) fn during(f: impl FnOnce()) -> (u64, u64) {
        let before = (MULS.with(Cell::get), SELECTS.with(Cell::get));
        f();
        (MULS.with(Cell::get) - before.0, SELECTS.with(Cell::get) - before.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::oracle::Montgomery;
    use crate::bignum::BigUint;
    use crate::group::Group;
    use proptest::prelude::*;

    type Fp = Modulus<ELEMENT_LIMBS>;

    fn big(limbs: &[u64]) -> BigUint {
        BigUint::from_limbs(limbs)
    }

    /// `x` as `N` limbs.
    fn fixed<const N: usize>(x: &BigUint) -> [u64; N] {
        let mut out = [0u64; N];
        out[..x.limbs().len()].copy_from_slice(x.limbs());
        out
    }

    /// `x mod n` by the oracle, as `N` limbs.
    fn oracle_rem<const N: usize>(x: &BigUint, n: &BigUint) -> [u64; N] {
        fixed(&x.rem(n))
    }

    /// The moduli every property runs over: both groups' `p` and `q`.
    fn moduli() -> Vec<BigUint> {
        let (big_g, tiny) = (Group::modp_1024(), Group::tiny_test());
        vec![big_g.p().clone(), tiny.p().clone(), big_g.q().clone(), tiny.q().clone()]
    }

    /// 0, 1, n − 1, n, n + 1 and R − 1 for `n`, plus `extra`.
    fn edges(n: &BigUint, extra: &[BigUint]) -> Vec<BigUint> {
        let one = BigUint::one();
        let mut v = vec![BigUint::zero(), one.clone(), n.sub(&one), n.clone(), n.add(&one), big(&[u64::MAX; 16])];
        v.extend_from_slice(extra);
        v
    }

    fn arb_big(max_bytes: usize) -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u8>(), 0..max_bytes).prop_map(|v| BigUint::from_bytes_be(&v))
    }

    #[test]
    fn constants_match_the_oracle() {
        for n in moduli() {
            let m = Fp::new(n.limbs());
            let r = BigUint::one();
            let r = (0..64 * ELEMENT_LIMBS).fold(r, |r, _| r.shl1());
            assert_eq!(big(&m.one), r.rem(&n));
            assert_eq!(big(&m.r2), r.mul(&r).rem(&n));
            assert_eq!(m.n0_inv_neg.wrapping_mul(n.limbs()[0]), u64::MAX, "n0 · (−n0⁻¹) = −1");
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = Fp::new(&[10]);
    }

    #[test]
    fn edge_values_multiply_and_reduce_like_the_oracle() {
        for n in moduli() {
            let m = Fp::new(n.limbs());
            let values = edges(&n, &[BigUint::from_hex("deadbeef"), n.mul(&n).add(&BigUint::from_u64(3))]);
            for a in &values {
                assert_eq!(big(&m.reduce(a.limbs())), a.rem(&n), "reduce {a:?} mod {n:?}");
                for b in &values {
                    let got = m.redc(&m.mul(&m.to_mont(a.limbs()), &m.to_mont(b.limbs())));
                    assert_eq!(big(&got), a.mod_mul(b, &n), "{a:?} · {b:?} mod {n:?}");
                }
            }
        }
    }

    #[test]
    fn exponent_and_base_edges_match_the_oracle() {
        for group in [Group::modp_1024(), Group::tiny_test()] {
            let (p, q) = (group.p(), group.q());
            let oracle = Montgomery::new(p);
            let m = Fp::new(p.limbs());
            let one = BigUint::one();
            let exps = [BigUint::zero(), one.clone(), q.sub(&one), q.clone(), q.add(&one), p.sub(&one)];
            let bases = [BigUint::zero(), one.clone(), p.sub(&one), group.g().clone(), BigUint::from_u64(2), p.add(&one)];
            for b in &bases {
                for e in &exps {
                    let got = m.redc(&m.pow(&m.to_mont(b.limbs()), e.limbs(), e.bit_len().div_ceil(4)));
                    assert_eq!(big(&got), oracle.pow(b, e), "{b:?}^{e:?}");
                }
            }
        }
    }

    #[test]
    fn limbs_from_be_matches_from_bytes_be() {
        for len in 0..=64 {
            let bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37).wrapping_add(1)).collect();
            assert_eq!(big(&limbs_from_be::<8>(&bytes)), BigUint::from_bytes_be(&bytes), "{len} bytes");
        }
    }

    #[test]
    fn sliding_windows_reconstruct_the_exponent() {
        let q = Group::modp_1024().q().clone();
        let mut cases = vec![[0u64; 4], [1, 0, 0, 0], [0xf, 0, 0, 0], [u64::MAX; 4], [0, 1 << 63, 0, 0]];
        cases.push(fixed(&q.sub(&BigUint::one())));
        for e in cases {
            let digits = sliding_windows(&e);
            let mut sum = BigUint::zero();
            for (i, &d) in digits.iter().enumerate().rev() {
                assert!(d == 0 || (d % 2 == 1 && d < 16), "digit {d} at {i}");
                let shifted = (0..i).fold(BigUint::from_u64(d as u64), |v, _| v.shl1());
                sum = sum.add(&shifted);
            }
            assert_eq!(sum, big(&e));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn montmul_matches_the_oracle(a in arb_big(160), b in arb_big(160), which in 0usize..4) {
            let n = &moduli()[which];
            let m = Fp::new(n.limbs());
            let (am, bm) = (m.to_mont(a.limbs()), m.to_mont(b.limbs()));
            prop_assert_eq!(big(&m.redc(&m.mul(&am, &bm))), a.mod_mul(&b, n));
            prop_assert_eq!(big(&m.reduce(a.limbs())), a.rem(n));
            let (ar, br) = (oracle_rem::<ELEMENT_LIMBS>(&a, n), oracle_rem::<ELEMENT_LIMBS>(&b, n));
            prop_assert_eq!(big(&m.add(&ar, &br)), a.rem(n).mod_add(&b.rem(n), n));
            prop_assert_eq!(big(&m.mul_plain(&ar, &br)), a.mod_mul(&b, n));
        }

        #[test]
        fn montmul_matches_on_random_odd_moduli(a in arb_big(130), b in arb_big(130), mut nb in proptest::collection::vec(any::<u8>(), 1..129)) {
            let last = nb.len() - 1;
            nb[last] |= 1;
            let n = BigUint::from_bytes_be(&nb);
            prop_assume!(n.cmp_mag(&BigUint::one()) == std::cmp::Ordering::Greater);
            let m = Fp::new(n.limbs());
            let got = m.redc(&m.mul(&m.to_mont(a.limbs()), &m.to_mont(b.limbs())));
            prop_assert_eq!(big(&got), Montgomery::new(&n).mul(&a, &b));
        }

        #[test]
        fn scalar_width_matches_the_oracle(a in arb_big(64), b in arb_big(64), which in 2usize..4) {
            let q = &moduli()[which];
            let m = Modulus::<SCALAR_LIMBS>::new(q.limbs());
            let (ar, br) = (oracle_rem::<SCALAR_LIMBS>(&a, q), oracle_rem::<SCALAR_LIMBS>(&b, q));
            prop_assert_eq!(big(&m.reduce(a.limbs())), a.rem(q));
            prop_assert_eq!(big(&m.mul_plain(&ar, &br)), a.mod_mul(&b, q));
            prop_assert_eq!(big(&m.add(&ar, &m.mul_plain(&ar, &br))), a.rem(q).mod_add(&a.mod_mul(&b, q), q));
            prop_assert_eq!(big(&m.neg(&ar)), q.sub(&a.rem(q)));
        }

        #[test]
        fn fixed_window_pow_matches_the_oracle(b in arb_big(140), e in arb_big(24), which in 0usize..2) {
            let p = &moduli()[which];
            let m = Fp::new(p.limbs());
            let got = m.redc(&m.pow(&m.to_mont(b.limbs()), e.limbs(), e.bit_len().div_ceil(4)));
            prop_assert_eq!(big(&got), Montgomery::new(p).pow(&b, &e));
        }

        #[test]
        fn straus_matches_two_oracle_pows(a in arb_big(140), b in arb_big(140), e in arb_big(32), f in arb_big(32), which in 0usize..2) {
            let p = &moduli()[which];
            let (m, oracle) = (Fp::new(p.limbs()), Montgomery::new(p));
            let (ef, ff): (Scalar, Scalar) = (fixed(&e), fixed(&f));
            let ta = m.powers(&m.to_mont(a.limbs()));
            let tb = m.powers(&m.to_mont(b.limbs()));
            let got = m.redc(&m.pow2_vartime(&ta, &ef, &tb, &ff));
            let want = oracle.mul(&oracle.pow(&a, &big(&ef)), &oracle.pow(&b, &big(&ff)));
            prop_assert_eq!(big(&got), want);
        }
    }
}
