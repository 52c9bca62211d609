//! Offline stand-in for `proptest` (API subset used by this workspace).
//!
//! Supported surface: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` header), `prop_assert!` /
//! `prop_assert_eq!` / `prop_assert_ne!`, [`Strategy`] with `prop_map`,
//! `prop_flat_map` and `prop_filter`, [`Just`], integer/float range
//! strategies, tuple strategies, and `prop::collection::vec`.
//!
//! Differences from upstream: cases are generated from a seed derived
//! deterministically from the test name (fully reproducible runs), and
//! there is **no shrinking** — a failure reports the case number and the
//! assertion message only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG handed to strategies.
pub type TestRng = StdRng;

/// Per-test configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
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
        ProptestConfig { cases: 64 }
    }
}

/// A failed property case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

/// Deterministic RNG for one case of one named test.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x5bd1_e995))
}

/// Generates values of `Self::Value`.
pub trait Strategy {
    /// The produced value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generates an intermediate value, then a value from the strategy it
    /// maps to.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }

    /// Rejects values failing `pred` (regenerates; gives up after 1000
    /// consecutive rejections).
    fn prop_filter<F>(self, whence: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { base: self, whence: whence.into(), pred }
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, O, F> Strategy for Map<B, F>
where
    B: Strategy,
    F: Fn(B::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<B, F> {
    base: B,
    f: F,
}

impl<B, S, F> Strategy for FlatMap<B, F>
where
    B: Strategy,
    S: Strategy,
    F: Fn(B::Value) -> S,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<B, F> {
    base: B,
    whence: String,
    pred: F,
}

impl<B, F> Strategy for Filter<B, F>
where
    B: Strategy,
    F: Fn(&B::Value) -> bool,
{
    type Value = B::Value;
    fn generate(&self, rng: &mut TestRng) -> B::Value {
        for _ in 0..1000 {
            let v = self.base.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}` rejected 1000 consecutive values", self.whence);
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for ::core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for ::core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

impl Strategy for ::core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.random_range(self.clone())
    }
}

impl Strategy for ::core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        rng.random_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

/// Collection strategies (`prop::collection::*`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Inclusive-exclusive size specification for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<::core::ops::Range<usize>> for SizeRange {
        fn from(r: ::core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<::core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: ::core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::prelude`-style namespace: `prop::collection::vec(...)`.
pub mod prop {
    pub use crate::collection;
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = $left;
        let __right = $right;
        if !(__left == __right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __left,
                __right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __left = $left;
        let __right = $right;
        if !(__left == __right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = $left;
        let __right = $right;
        if __left == __right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __left
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __left = $left;
        let __right = $right;
        if __left == __right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __strategies = ( $($strat,)* );
            for __case in 0..__config.cases {
                let mut __rng = $crate::case_rng(stringify!($name), __case);
                let ( $($pat,)* ) =
                    $crate::Strategy::generate(&__strategies, &mut __rng);
                let __outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__e) = __outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}:\n{}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        __e.0
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(v in 5usize..10, f in -1.0..1.0f64) {
            prop_assert!((5..10).contains(&v));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_sizes_respect_spec(v in prop::collection::vec(0usize..3, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 3));
        }

        #[test]
        fn flat_map_threads_values(pair in (1usize..5).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0usize..10, n))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn config_header_is_accepted(x in 0usize..100) {
            prop_assert!(x < 100);
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let mut a = crate::case_rng("t", 3);
        let mut b = crate::case_rng("t", 3);
        let s = 0usize..1000;
        assert_eq!(s.generate(&mut a), (0usize..1000).generate(&mut b));
    }
}
