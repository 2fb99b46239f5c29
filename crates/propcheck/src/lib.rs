//! In-tree stand-in for `proptest`: the slice of its API this workspace's
//! `tests/proptests.rs` files use (they import it under that name).
//! Inputs come from a generator seeded by the test's name, so every run
//! draws the same cases. A failing case is shrunk by halving: cases are
//! re-drawn under a size budget halved again and again (integer spans
//! toward the range start, collection lengths toward their minimum) until
//! no smaller failing case turns up, and the failure prints the smallest
//! failing inputs next to the original ones.
//!
//! Covered: `proptest!` (with `#![proptest_config(..)]`), `prop_assert!`,
//! `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`, `prop_oneof!`,
//! `any::<T>()` for integers / `bool` / arrays, integer and `f64` ranges,
//! tuples, `Just`, `prop_map`, `collection::vec`, `option::of`, and
//! `&str` patterns made of literals and `[classes]` with `{m,n}` / `*` /
//! `+` / `?` repetition.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeFrom, RangeInclusive};

/// splitmix64 seeded from the test's name. `halvings` is the shrinker's
/// size budget: every span drawn through [`TestRng::below`] is divided by
/// `2^halvings` (zero while cases are first drawn).
pub struct TestRng {
    state: u64,
    halvings: u32,
}

impl TestRng {
    pub fn from_name(name: &str) -> TestRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        TestRng {
            state: h,
            halvings: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`, shrunk toward 0 under a halved budget;
    /// `n == 0` means the whole `u64` range.
    pub fn below(&mut self, n: u64) -> u64 {
        let max = n.wrapping_sub(1).checked_shr(self.halvings).unwrap_or(0);
        match max.checked_add(1) {
            Some(span) => self.next_u64() % span,
            None => self.next_u64(),
        }
    }

    /// Uniform in `[0, 1)`, shrunk toward 0 under a halved budget.
    pub fn unit_f64(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit / 2f64.powi(self.halvings as i32)
    }
}

pub trait Strategy {
    type Value: Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Debug + Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// What `prop_oneof!` builds: one of the arms, chosen uniformly.
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let arm = rng.below(self.0.len() as u64) as usize;
        self.0[arm].generate(rng)
    }
}

pub trait Arbitrary: Debug + Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.below(2) == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.below((<$t>::MAX as u64).wrapping_add(1)) as $t
            }
        }
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() - *self.start()) as u64;
                *self.start() + rng.below(span.wrapping_add(1)) as $t
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                (self.start..=<$t>::MAX).generate(rng)
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// A pattern string is a strategy for the strings it matches.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        string::generate(self, rng)
    }
}

mod string {
    use super::TestRng;

    /// Cap for the open-ended `*` and `+`.
    const OPEN_MAX: u64 = 8;

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let set = atom(pattern, &chars, &mut i);
            let (lo, hi) = repetition(pattern, &chars, &mut i);
            for _ in 0..lo + rng.below(hi - lo + 1) {
                out.push(set[rng.below(set.len() as u64) as usize]);
            }
        }
        out
    }

    fn atom(pattern: &str, chars: &[char], i: &mut usize) -> Vec<char> {
        let c = chars[*i];
        *i += 1;
        match c {
            '[' => {
                let mut set = Vec::new();
                loop {
                    let c = *chars
                        .get(*i)
                        .unwrap_or_else(|| panic!("unclosed class in {pattern:?}"));
                    *i += 1;
                    let lo = match c {
                        ']' => break,
                        '\\' => {
                            *i += 1;
                            chars[*i - 1]
                        }
                        c => c,
                    };
                    if chars.get(*i) == Some(&'-') && chars.get(*i + 1) != Some(&']') {
                        let hi = chars[*i + 1];
                        *i += 2;
                        set.extend(lo..=hi);
                    } else {
                        set.push(lo);
                    }
                }
                assert!(!set.is_empty(), "empty class in {pattern:?}");
                set
            }
            '\\' => {
                *i += 1;
                vec![chars[*i - 1]]
            }
            '(' | ')' | '|' | '.' | '^' | '$' => {
                panic!("pattern syntax {c:?} of {pattern:?} is beyond this stand-in")
            }
            c => vec![c],
        }
    }

    fn repetition(pattern: &str, chars: &[char], i: &mut usize) -> (u64, u64) {
        match chars.get(*i) {
            Some('*') => {
                *i += 1;
                (0, OPEN_MAX)
            }
            Some('+') => {
                *i += 1;
                (1, OPEN_MAX)
            }
            Some('?') => {
                *i += 1;
                (0, 1)
            }
            Some('{') => {
                let close = chars[*i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unclosed repetition in {pattern:?}"));
                let spec: String = chars[*i + 1..*i + close].iter().collect();
                *i += close + 1;
                let num = |s: &str| -> u64 {
                    s.parse()
                        .unwrap_or_else(|_| panic!("bad repetition {spec:?} in {pattern:?}"))
                };
                match spec.split_once(',') {
                    Some((lo, "")) => (num(lo), num(lo) + OPEN_MAX),
                    Some((lo, hi)) => (num(lo), num(hi)),
                    None => (num(&spec), num(&spec)),
                }
            }
            _ => (1, 1),
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds of a generated collection.
    pub struct SizeRange(usize, usize);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange(n, n)
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange(r.start, r.end - 1)
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange(*r.start(), *r.end())
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let SizeRange(lo, hi) = self.size;
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    pub struct OptionStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            (rng.below(4) != 0).then(|| self.0.generate(rng))
        }
    }
}

pub mod test_runner {
    /// `ProptestConfig`: only the case count is honored.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` did not hold: draw another case.
        Reject,
        Fail(String),
    }

    /// Run `case` until `config.cases` draws passed. A failure is shrunk
    /// (see [`shrink`]) and panics with the smallest failing inputs found
    /// and the original ones.
    pub fn run(
        name: &str,
        config: &Config,
        mut case: impl FnMut(&mut super::TestRng) -> (String, Result<(), TestCaseError>),
    ) {
        let mut rng = super::TestRng::from_name(name);
        let (mut passed, mut rejected) = (0u32, 0u32);
        while passed < config.cases {
            match case(&mut rng) {
                (_, Ok(())) => passed += 1,
                (_, Err(TestCaseError::Reject)) => {
                    rejected += 1;
                    assert!(
                        rejected <= config.cases.saturating_mul(16).max(1024),
                        "{name}: too many rejected cases"
                    );
                }
                (inputs, Err(TestCaseError::Fail(why))) => {
                    let (smallest, why) =
                        shrink(&mut rng, config.cases, &mut case).unwrap_or((inputs.clone(), why));
                    panic!(
                        "{name} failed after {passed} passing cases: {why}\n  \
                         smallest failing inputs: {smallest}\n  \
                         original failing inputs: {inputs}"
                    )
                }
            }
        }
    }

    /// Shrink by halving: draw up to `attempts` cases under a size budget
    /// halved once more each round, keep a round's first failure, and stop
    /// at the first round that finds none (or finds the same inputs again).
    /// Returns the last failure's inputs and message.
    fn shrink(
        rng: &mut super::TestRng,
        attempts: u32,
        case: &mut impl FnMut(&mut super::TestRng) -> (String, Result<(), TestCaseError>),
    ) -> Option<(String, String)> {
        let mut smallest: Option<(String, String)> = None;
        for halvings in 1..=u64::BITS {
            rng.halvings = halvings;
            let failure = (0..attempts).find_map(|_| match case(rng) {
                (inputs, Err(TestCaseError::Fail(why))) => Some((inputs, why)),
                _ => None,
            });
            match failure {
                Some(f) if smallest.as_ref().map(|s| &s.0) != Some(&f.0) => smallest = Some(f),
                _ => break,
            }
        }
        smallest
    }
}

/// The states `from` reaches along `edges`, `from` first (a path takes at
/// most `edges.len()` edges): the walk `TRANSITIONS` tables are tested by.
pub fn reachable<S: Copy + PartialEq>(edges: &[(S, S)], from: S) -> Vec<S> {
    let mut reached = vec![from];
    for _ in edges {
        for &(a, b) in edges {
            if reached.contains(&a) && !reached.contains(&b) {
                reached.push(b);
            }
        }
    }
    reached
}

pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($config) $($rest)*);
    };
    (@with ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            $crate::test_runner::run(stringify!($name), &config, |rng| {
                $(let $arg = $crate::Strategy::generate(&$strategy, rng);)*
                let inputs = [$(format!("{} = {:?}", stringify!($arg), &$arg)),*].join(", ");
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                })();
                (inputs, outcome)
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "{} == {}", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), left, right
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "{} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    // Properties that do not hold, for the runner to fail on.
    proptest! {
        fn small_numbers_only(x in 0u32..1000) {
            prop_assert!(x < 10);
        }

        fn short_vectors_only(v in crate::collection::vec(any::<u8>(), 1..40)) {
            prop_assert!(v.len() < 5);
        }

        fn never_satisfied(x in any::<u8>()) {
            prop_assume!(u16::from(x) > 255);
        }
    }

    /// The text after `label` on the failure message's line that has it.
    fn reported(property: fn(), label: &str) -> String {
        let payload = std::panic::catch_unwind(property).expect_err("the property must fail");
        let message = payload
            .downcast_ref::<String>()
            .expect("the runner panics with a formatted message");
        let line = message.lines().find_map(|l| l.trim().strip_prefix(label));
        line.unwrap_or_else(|| panic!("no {label:?} line in {message:?}"))
            .to_string()
    }

    #[test]
    fn integer_failure_shrinks_to_within_twice_the_threshold() {
        let smallest = reported(small_numbers_only, "smallest failing inputs: x = ");
        let x: u32 = smallest.parse().expect("an integer input");
        assert!((10..=19).contains(&x), "reported x = {x}");
        let original = reported(small_numbers_only, "original failing inputs: x = ");
        assert!(original.parse::<u32>().expect("an integer input") >= x);
    }

    #[test]
    fn vec_failure_shrinks_to_within_twice_the_minimal_length() {
        let smallest = reported(short_vectors_only, "smallest failing inputs: v = ");
        let len = smallest.split(',').count();
        assert!((5..=10).contains(&len), "reported {smallest}");
    }

    #[test]
    #[should_panic(expected = "never_satisfied: too many rejected cases")]
    fn assume_exhaustion_names_the_test() {
        never_satisfied();
    }

    #[test]
    fn class_repetition_honours_its_bounds() {
        let mut rng = TestRng::from_name("class_repetition");
        for round in 0..400 {
            rng.halvings = round / 100;
            let s = "x[a-c]{2,5}".generate(&mut rng);
            let tail = s.strip_prefix('x').expect("the literal comes first");
            assert!((2..=5).contains(&tail.len()), "{s:?}");
            assert!(tail.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn same_name_draws_the_same_cases() {
        let strategy = (any::<u64>(), crate::collection::vec(0u16..500, 0..9));
        let draw = |name: &str| {
            let mut rng = TestRng::from_name(name);
            (0..50)
                .map(|_| strategy.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw("a_test"), draw("a_test"));
        assert_ne!(draw("a_test"), draw("another_test"));
    }
}
