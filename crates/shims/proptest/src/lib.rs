//! Offline stand-in for the parts of `proptest 1` this workspace uses.
//!
//! See `crates/shims/README.md` for scope and caveats. The [`proptest!`]
//! macro runs each property as a plain `#[test]` over
//! [`ProptestConfig::cases`] deterministically sampled inputs. There is no
//! shrinking: a failing case reports the sampled values through the
//! assertion message instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Per-property configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` inputs per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// The deterministic generator driving a property run.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator whose stream is fixed by the property's name, so every
    /// run of the suite exercises the same inputs.
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name gives a stable per-property seed.
        let mut seed = 0xCBF2_9CE4_8422_2325u64;
        for byte in name.bytes() {
            seed ^= u64::from(byte);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64, same core as the workspace `rand` shim.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A source of values for one property argument.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end as i128) - (self.start as i128);
                let offset = (rng.next_u64() as i128).rem_euclid(width);
                (self.start as i128 + offset) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let width = (end as i128) - (start as i128) + 1;
                let offset = (rng.next_u64() as i128).rem_euclid(width);
                (start as i128 + offset) as $t
            }
        }

        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

/// Types with a full-domain strategy, used by [`any`].
pub trait Arbitrary {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy over the whole domain of `T` (`any::<i32>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for collection strategies.
    ///
    /// Like the real crate, this is a concrete conversion target (rather
    /// than a generic `Strategy<Value = usize>` bound) so unsuffixed range
    /// literals such as `0..300` infer as `usize`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty size range");
            Self {
                min: range.start,
                max_inclusive: range.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            assert!(range.start() <= range.end(), "empty size range");
            Self {
                min: *range.start(),
                max_inclusive: *range.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            Self {
                min: len,
                max_inclusive: len,
            }
        }
    }

    /// Strategy producing vectors of `element` values with a length drawn
    /// from `size`.
    pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<E> {
        element: E,
        size: SizeRange,
    }

    impl<E: Strategy> Strategy for VecStrategy<E> {
        type Value = Vec<E::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<E::Value> {
            let len = Strategy::sample(&(self.size.min..=self.size.max_inclusive), rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares deterministic property tests.
///
/// Each `fn name(arg in strategy, ..) { body }` item expands to a plain test
/// that samples its arguments [`ProptestConfig::cases`] times and runs the
/// body on each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr) $($(#[$attr:meta])* fn $name:ident(
        $($arg:ident in $strategy:expr),* $(,)?
    ) $body:block)*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)*
                $body
            }
        }
    )*};
}

/// `assert!` under proptest's spelling; panics with the sampled inputs in
/// the message via the normal assertion formatting.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// `assert_eq!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_within_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let v = Strategy::sample(&(-5i64..7), &mut rng);
            assert!((-5..7).contains(&v));
            let w = Strategy::sample(&(0u32..=16), &mut rng);
            assert!(w <= 16);
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = TestRng::deterministic("lengths");
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(0i32..10, 3usize..6), &mut rng);
            assert!((3..6).contains(&v.len()));
            assert!(v.iter().all(|x| (0..10).contains(x)));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let once: Vec<i64> = {
            let mut rng = TestRng::deterministic("repeat");
            (0..32)
                .map(|_| Strategy::sample(&(0i64..1000), &mut rng))
                .collect()
        };
        let again: Vec<i64> = {
            let mut rng = TestRng::deterministic("repeat");
            (0..32)
                .map(|_| Strategy::sample(&(0i64..1000), &mut rng))
                .collect()
        };
        assert_eq!(once, again);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_samples_all_argument_forms(
            a in -100i64..100,
            b in 0u32..=8,
            c in any::<i16>(),
            v in prop::collection::vec(0i32..5, 0usize..4),
        ) {
            prop_assert!((-100..100).contains(&a));
            prop_assert!(b <= 8);
            let _ = c;
            prop_assert!(v.len() < 4);
            prop_assert_eq!(v.iter().filter(|x| **x >= 5).count(), 0);
        }
    }
}
