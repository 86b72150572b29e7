//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use:
//!
//! - range strategies (`-10.0..10.0f64`, `1usize..16`), tuples of
//!   strategies, `proptest::collection::vec(strategy, len_or_range)`,
//!   and [`Strategy::prop_filter`];
//! - the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header;
//! - `prop_assert!` (maps to `assert!`).
//!
//! Sampling is deterministic (fixed seed per test body, advanced per
//! case) so failures reproduce; there is **no shrinking** — a failing
//! case panics with the assert message directly. That trades debugging
//! convenience for zero dependencies, which is the right trade while
//! crates.io is unreachable.

use std::ops::Range;

/// Test-runner configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic test RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Fixed-seed RNG; every test run samples the same cases.
    pub fn deterministic() -> Self {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty bound");
        let zone = u64::MAX - (u64::MAX % bound as u64);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % bound as u64) as usize;
            }
        }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Keep only values satisfying `pred` (rejection sampling, bounded).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as usize;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_strategy!(usize, u64, u32, u16, u8, i32);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Filtered strategy (result of [`Strategy::prop_filter`]).
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "strategy filter rejected 1000 consecutive cases: {}",
            self.whence
        );
    }
}

/// Mapped strategy (result of [`Strategy::prop_map`]).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification: a fixed size or a range of sizes.
    pub trait SizeSpec {
        /// Draw a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeSpec for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeSpec for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + rng.below(self.end - self.start)
        }
    }

    /// Strategy for vectors of `element` values with `size` entries.
    pub fn vec<S: Strategy, L: SizeSpec>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// Vector strategy (result of [`vec()`]).
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeSpec> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The glob-import module mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRng};
}

/// Assert inside a property (maps to `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        #[test]
        fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic();
            for case in 0..config.cases {
                $( let $arg = $crate::Strategy::sample(&($strat), &mut rng); )+
                let run = || -> () { $body };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                if let Err(payload) = result {
                    eprintln!(
                        "proptest case {}/{} failed in `{}`",
                        case + 1,
                        config.cases,
                        stringify!($name),
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in -3.0..7.0f64, n in 1usize..9) {
            prop_assert!((-3.0..7.0).contains(&x));
            prop_assert!((1..9).contains(&n));
        }

        #[test]
        fn vec_strategy_obeys_lengths(v in crate::collection::vec(0.0..1.0f64, 5)) {
            prop_assert_eq!(v.len(), 5);
        }

        #[test]
        fn vec_strategy_with_ranged_lengths(
            v in crate::collection::vec(0u32..10, 1..4)
        ) {
            prop_assert!((1..4).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn filters_apply(x in (0.0..1.0f64).prop_filter("nonzero", |v| *v > 0.5)) {
            prop_assert!(x > 0.5);
        }

        #[test]
        fn tuples_sample_componentwise((k, t) in (0usize..5, -1.0..1.0f64)) {
            prop_assert!(k < 5);
            prop_assert!((-1.0..1.0).contains(&t));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = TestRng::deterministic();
        let mut b = TestRng::deterministic();
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
