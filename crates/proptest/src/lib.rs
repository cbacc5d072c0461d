//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this local crate
//! reimplements the subset of proptest the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`,
//!   `ident: Type` and `pattern in strategy` parameters),
//! * the [`Strategy`] trait with [`Strategy::prop_map`] /
//!   [`Strategy::prop_flat_map`], implemented for integer ranges, tuples,
//!   and [`Just`],
//! * [`collection::vec`], [`option::weighted`], [`any`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//! * [`ProptestConfig::with_cases`].
//!
//! Unlike real proptest there is **no shrinking**: a failing case reports
//! the generated input verbatim. Generation is deterministic (SplitMix64
//! seeded per case index), so failures reproduce across runs.

use std::fmt;

pub mod collection;
pub mod option;

/// Deterministic generator used for all value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniform bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the input; try another one.
    Reject(String),
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
    /// Maximum rejected inputs tolerated before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns for
    /// it (dependent generation).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (type erasure).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate(rng)
    }
}

/// Strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over the whole domain of `T`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Runs `cases` successful executions of `test` on values drawn from
/// `strategy`. Rejections (via [`prop_assume!`]) retry with fresh input.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) on the first failing case,
/// reporting the generated input, or when the rejection budget is spent.
pub fn run<S, F>(config: &ProptestConfig, strategy: &S, mut test: F)
where
    S: Strategy,
    S::Value: Clone + fmt::Debug,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    let mut successes = 0u32;
    let mut rejects = 0u32;
    let mut attempt = 0u64;
    while successes < config.cases {
        // Seed per attempt index: deterministic across runs, independent
        // across cases.
        let mut rng = TestRng::new(0xA076_1D64_78BD_642F ^ attempt.wrapping_mul(0x9E37_79B9));
        attempt += 1;
        let value = strategy.generate(&mut rng);
        match test(value.clone()) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                if rejects > config.max_global_rejects {
                    panic!(
                        "proptest: too many rejected inputs ({rejects}) after {successes} passing cases"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest: case #{successes} failed: {msg}\n  input: {value:?}");
            }
        }
    }
}

/// The proptest prelude: everything the `proptest!` macro and its bodies
/// need in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a `proptest!` body, reporting the generated
/// input on failure (instead of panicking mid-case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects the current input (retried with a fresh one).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond).to_string()));
        }
    };
}

/// The property-test declaration macro.
///
/// Supports the proptest surface syntax used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]  // optional
///
///     #[test]
///     fn my_prop(a: u64, width in 1u32..=64) { ... }
/// }
/// ```
///
/// `ident: Type` parameters draw from [`any::<Type>()`]; `pat in strategy`
/// parameters draw from the given strategy expression.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg); $($rest)*);
    };
    (@fns ($cfg:expr); ) => {};
    (@fns ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident ( $($params:tt)* ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::proptest!(@munch ($cfg) [] [] $($params)*, @end $body);
        }
        $crate::proptest!(@fns ($cfg); $($rest)*);
    };
    // -- parameter munchers: accumulate [patterns] [strategies] --
    // typed form `ident: Type`
    (@munch ($cfg:expr) [$($pats:tt)*] [$($strats:tt)*] $i:ident : $t:ty, $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) [$($pats)* ($i)] [$($strats)* ($crate::any::<$t>())] $($rest)*);
    };
    // strategy form `pat in expr`
    (@munch ($cfg:expr) [$($pats:tt)*] [$($strats:tt)*] $p:pat in $s:expr, $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) [$($pats)* ($p)] [$($strats)* ($s)] $($rest)*);
    };
    // a trailing comma in the parameter list leaves `,, @end` behind;
    // absorb the extra comma instead of falling into the entry arm (which
    // would recurse forever)
    (@munch ($cfg:expr) [$($pats:tt)*] [$($strats:tt)*] , @end $body:block) => {
        $crate::proptest!(@munch ($cfg) [$($pats)*] [$($strats)*] @end $body);
    };
    // done: build the tuple strategy and run
    (@munch ($cfg:expr) [$(($pat:pat))+] [$(($strat:expr))+] @end $body:block) => {{
        let config: $crate::ProptestConfig = $cfg;
        let strategy = ($($strat,)+);
        $crate::run(&config, &strategy, |($($pat,)+)| {
            $body
            Ok(())
        });
    }};
    // entry without a config header
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone)]
    struct Pair {
        a: u32,
        b: u32,
    }

    fn pair() -> impl Strategy<Value = Pair> {
        (0u32..100).prop_flat_map(|a| (0u32..=a, 10u32..12).prop_map(move |(b, _)| Pair { a, b }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn typed_and_strategy_params(x: u64, w in 1u32..=64, flag: bool) {
            let masked = if w == 64 { x } else { x & ((1u64 << w) - 1) };
            prop_assert!(w == 64 || masked < (1u64 << w));
            if flag {
                prop_assert_eq!(masked, masked);
            }
        }

        #[test]
        fn flat_map_dependencies_hold(p in pair()) {
            prop_assert!(p.b <= p.a || p.a == 0);
        }

        #[test]
        fn assume_rejects(v in 0u32..10) {
            prop_assume!(v != 3);
            prop_assert_ne!(v, 3);
        }

        #[test]
        fn collections_and_options(xs in crate::collection::vec(0i64..5, 2..=6),
                                   o in crate::option::weighted(0.5, 1u32..4)) {
            prop_assert!(xs.len() >= 2 && xs.len() <= 6);
            prop_assert!(xs.iter().all(|&x| (0..5).contains(&x)));
            if let Some(v) = o {
                prop_assert!((1..4).contains(&v));
            }
        }
    }

    #[test]
    fn determinism() {
        let s = (0u32..1000, any::<u64>());
        let mut r1 = crate::TestRng::new(5);
        let mut r2 = crate::TestRng::new(5);
        for _ in 0..50 {
            assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "proptest: case #")]
    fn failures_report_input() {
        crate::run(&ProptestConfig::with_cases(8), &(0u32..10), |v| {
            prop_assert!(v < 100, "bad {v}");
            prop_assert!(v > 100, "forced failure on {v}");
            Ok(())
        });
    }
}
