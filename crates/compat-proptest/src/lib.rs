//! Offline drop-in subset of the
//! [`proptest`](https://crates.io/crates/proptest) API.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so the external `proptest` dev-dependency is replaced by this
//! local implementation of the surface the workspace's property tests
//! use:
//!
//! * the [`proptest!`] macro wrapping `#[test]` functions whose arguments
//!   are drawn from strategies (`arg in strategy`);
//! * [`Strategy`] implementations for integer ranges, string
//!   character-class patterns (`"[a-z0-9]{0,20}"`), [`collection::vec`]
//!   and [`any`];
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`];
//! * [`ProptestConfig::with_cases`] to control the number of cases.
//!
//! Unlike upstream proptest there is no shrinking: a failing case panics
//! with the ordinary assertion message. Case generation is deterministic
//! (derived from the case index), so failures reproduce across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Per-block configuration consumed by [`proptest!`]'s
/// `#![proptest_config(...)]` inner attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic test-case RNG (SplitMix64 over the case index).
pub mod test_runner {
    /// The RNG handed to strategies while generating one test case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the `case`-th iteration of a property test.
        pub fn for_case(case: u64) -> Self {
            TestRng {
                state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03,
            }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

use test_runner::TestRng;

/// A generator of random values for one [`proptest!`] argument.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u64 + 1;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

/// String strategies: a `&str` is interpreted as a character-class pattern
/// of the form `[chars]{lo,hi}` (a subset of proptest's regex strategies —
/// the subset this workspace's tests use). Unparseable patterns fall back
/// to short printable-ASCII strings.
impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        match parse_class_pattern(self) {
            Some((alphabet, lo, hi)) => {
                let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                (0..len)
                    .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                    .collect()
            }
            None => {
                let len = rng.below(32) as usize;
                (0..len)
                    .map(|_| (b' ' + rng.below(95) as u8) as char)
                    .collect()
            }
        }
    }
}

/// Parses `[a-z0-9 #\n]{lo,hi}` into (alphabet, lo, hi).
fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let (class, tail) = rest.split_at(close);
    let tail = tail.strip_prefix(']')?;
    let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = counts.split_once(',')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    if lo > hi {
        return None;
    }

    let mut alphabet = Vec::new();
    let mut chars = class.chars().peekable();
    while let Some(c) = chars.next() {
        let start = if c == '\\' {
            match chars.next()? {
                'n' => '\n',
                't' => '\t',
                other => other,
            }
        } else {
            c
        };
        if chars.peek() == Some(&'-') {
            let mut look = chars.clone();
            look.next(); // consume '-'
            if let Some(&end) = look.peek() {
                if end != ']' {
                    chars = look;
                    chars.next();
                    for code in start as u32..=end as u32 {
                        alphabet.extend(char::from_u32(code));
                    }
                    continue;
                }
            }
        }
        alphabet.push(start);
    }
    if alphabet.is_empty() {
        return None;
    }
    Some((alphabet, lo, hi))
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Types with a canonical [`any`] strategy.
pub trait Arbitrary: Debug + Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<bool>()`, ...).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::Range;

    /// Strategy generating `Vec`s; see [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element`-generated values with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// inside the block runs its body for every generated case.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..u64::from(__config.cases) {
                let mut __rng = $crate::test_runner::TestRng::for_case(__case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::TestRng;

    #[test]
    fn class_pattern_parses() {
        let (alphabet, lo, hi) = super::parse_class_pattern("[a-c0-1 #\\n]{0,20}").unwrap();
        assert_eq!(lo, 0);
        assert_eq!(hi, 20);
        for c in ['a', 'b', 'c', '0', '1', ' ', '#', '\n'] {
            assert!(alphabet.contains(&c), "missing {c:?}");
        }
        assert_eq!(alphabet.len(), 8);
    }

    #[test]
    fn string_strategy_respects_pattern() {
        let mut rng = TestRng::for_case(3);
        for _ in 0..50 {
            let s = Strategy::sample(&"[a-z]{1,4}", &mut rng);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro wires strategies to arguments.
        #[test]
        fn macro_generates_in_range(x in 2usize..9, v in crate::collection::vec(-3i8..4, 0..6), b in any::<bool>()) {
            prop_assert!((2..9).contains(&x));
            prop_assert!(v.len() < 6);
            for e in &v {
                prop_assert!((-3..4).contains(e));
            }
            let _ = b;
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }
}
