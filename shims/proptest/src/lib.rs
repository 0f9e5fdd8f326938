//! Minimal `proptest` shim.
//!
//! Source-compatible with the subset of proptest 1.x this workspace
//! uses: the `proptest!` macro (with optional
//! `#![proptest_config(...)]`), `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`/`prop_oneof!`, `any::<T>()`, range/tuple/`Just`/
//! mapped strategies, and `proptest::collection::vec`.
//!
//! Differences from the real crate: cases are generated from a
//! deterministic RNG seeded by the test's module path + name, there is
//! **no shrinking**, no failure persistence, and no forking. A failing
//! case panics with the generated values' `Debug` output where the
//! assertion message includes them.

#![forbid(unsafe_code)]

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::{Rng, SampleUniform};
    use std::ops::{Range, RangeInclusive};

    /// A source of random values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform produced values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of its value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed strategies (built by `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from a non-empty list of arms.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.gen_range(0..self.arms.len());
            self.arms[idx].generate(rng)
        }
    }

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_half_open(rng, self.start, self.end)
        }
    }

    impl<T: SampleUniform> Strategy for RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_closed(rng, *self.start(), *self.end())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$i:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A/0);
    impl_tuple_strategy!(A/0, B/1);
    impl_tuple_strategy!(A/0, B/1, C/2);
    impl_tuple_strategy!(A/0, B/1, C/2, D/3);
    impl_tuple_strategy!(A/0, B/1, C/2, D/3, E/4);
}

/// `any::<T>()` and the `Arbitrary` trait.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Produce one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_via_random {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )+};
    }
    impl_arbitrary_via_random!(
        u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool
    );

    // Note: unlike real proptest, floats are uniform in [0, 1) rather
    // than arbitrary bit patterns (no NaN/inf). The workspace only
    // draws floats from explicit ranges.
    impl_arbitrary_via_random!(f32, f64);

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Strategy producing any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Create a strategy for vectors of values from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test runner plumbing: config, RNG, case errors.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Per-block configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic RNG used to generate test cases.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// RNG seeded from the test's fully qualified name (FNV-1a).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl RngCore for TestRng {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest)
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// Assertion failure — aborts the whole test.
        Fail(String),
        /// `prop_assume!` rejection — the case is skipped and retried.
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Build a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
            }
        }
    }
}

/// Everything a `proptest!` block needs in scope.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Define property tests. Accepts an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(20).saturating_add(1000),
                    "proptest: too many prop_assume! rejections in {}",
                    stringify!($name),
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let case: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match case {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest case {} of {} failed: {}", accepted + 1, stringify!($name), msg);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)+)),
            ));
        }
    }};
}

/// Skip the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (i64, bool)> {
        (0i64..100, any::<bool>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in -5i64..5, f in 0.0f64..1.0, n in 1usize..=4) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!((0.0..1.0).contains(&f), "f = {}", f);
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn vec_respects_size(v in crate::collection::vec(any::<u8>(), 2..10)) {
            prop_assert!(v.len() >= 2 && v.len() < 10, "len {}", v.len());
        }

        #[test]
        fn tuples_and_map(p in arb_pair().prop_map(|(a, b)| if b { a } else { -a })) {
            prop_assert!((-99..100).contains(&p));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), 3u8..10]) {
            prop_assert!((1..10).contains(&v));
            prop_assert_eq!(v, v);
        }

        #[test]
        fn assume_rejects(mut x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            x += 2;
            prop_assert_eq!(x % 2, 0, "x = {}", x);
            if x > 1000 { return Ok(()); }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_test("same-name");
        let mut b = TestRng::for_test("same-name");
        let s = crate::collection::vec(any::<u64>(), 3..4);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
