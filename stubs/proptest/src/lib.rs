//! Offline functional mini-proptest: enough of the `proptest 1` API to
//! compile and *run* the workspace's property tests under the offline
//! harness. Strategies generate uniformly at random (no shrinking); the
//! `proptest!` macro expands to plain `#[test]` functions running
//! `PROPTEST_CASES` cases (default 16).

use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 case generator.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

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

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end);
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi);
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                *self.start() + (rng.next_f64() as $t) * (*self.end() - *self.start())
            }
        }
    )*};
}
float_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// `any::<T>()` support.
pub trait ArbitraryStub: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl ArbitraryStub for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryStub for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryStub for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_f64()
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryStub> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: ArbitraryStub>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end);
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
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
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let n = self.size.lo + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Cases per property: `PROPTEST_CASES` when set (as the real crate reads
/// it), else 16.
///
/// # Panics
///
/// Panics if `PROPTEST_CASES` is set but is not a case count.
pub fn cases() -> u32 {
    match std::env::var("PROPTEST_CASES") {
        Ok(value) => value
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES={value:?} is not a case count")),
        Err(_) => 16,
    }
}

/// Expands each property into a plain `#[test]` running [`cases`] random
/// cases from one fixed seed, so the first 16 cases of a longer run are
/// the default run's.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut prop_rng = $crate::TestRng::new(0x0ADC_5EED);
            for _case in 0..$crate::cases() {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut prop_rng);)*
                $body
            }
        }
    )*};
}

pub mod prelude {
    pub use crate::collection::vec;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
}
