//! Value-generation strategies: the composable core of the vendored
//! proptest surface.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::sync::Arc;

/// A recipe for generating random values of one type.
///
/// Unlike upstream proptest there is no value tree / shrinking: a
/// strategy is just a deterministic function of the runner's RNG
/// stream.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { source: self, map }
    }

    /// Type-erase the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(move |rng: &mut TestRng| self.sample(rng)))
    }

    /// Recursive strategies: `self` generates the leaves, and `expand`
    /// wraps an inner strategy into one layer of branches. Matches the
    /// upstream signature `(depth, desired_size, expected_branch_size,
    /// expand)`; the middle two are accepted for compatibility but
    /// only `depth` bounds the vendored construction.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        expand: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaves = self.boxed();
        let mut current = leaves.clone();
        for _ in 0..depth {
            let deeper = expand(current).boxed();
            // Mix leaves back in so sampled trees vary in depth
            // instead of always bottoming out at `depth`.
            current = Union::new(vec![leaves.clone(), deeper]).boxed();
        }
        current
    }
}

/// Type-erased strategy; clones share the underlying generator.
pub struct BoxedStrategy<T>(Arc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.map)(self.source.sample(rng))
    }
}

/// Uniform choice among same-typed strategies (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            options: self.options.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let pick = rng.below(self.options.len() as u64) as usize;
        self.options[pick].sample(rng)
    }
}

macro_rules! impl_strategy_for_int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_strategy_for_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_for_tuples {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

impl_strategy_for_tuples! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// Types with a canonical strategy (`any::<T>()`).
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

/// Strategy for any [`Arbitrary`] type.
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Length bound for `collection::vec`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Inclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            lo: exact,
            hi: exact,
        }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(range: core::ops::Range<usize>) -> Self {
        assert!(range.start < range.end, "empty vec size range");
        SizeRange {
            lo: range.start,
            hi: range.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(range: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *range.start(),
            hi: *range.end(),
        }
    }
}

/// `proptest::collection::vec(element, size)`.
#[derive(Clone, Debug)]
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

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tuples_maps_compose() {
        let mut rng = TestRng::for_test("compose");
        let strat = (0..3usize, 1..=2i64).prop_map(|(a, b)| a as i64 + b);
        for _ in 0..128 {
            let v = strat.sample(&mut rng);
            assert!((1..=4).contains(&v));
        }
    }

    #[test]
    fn union_draws_every_arm() {
        let mut rng = TestRng::for_test("union");
        let strat = Union::new(vec![Just(1i64).boxed(), Just(2i64).boxed()]);
        let mut seen = [false; 2];
        for _ in 0..64 {
            seen[(strat.sample(&mut rng) - 1) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn recursive_strategies_terminate_and_vary() {
        #[derive(Debug)]
        enum Tree {
            #[allow(dead_code)]
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let leaf = (0..4i64).prop_map(Tree::Leaf);
        let strat = leaf.prop_recursive(3, 24, 2, |inner| {
            (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
        });
        let mut rng = TestRng::for_test("recursive");
        let mut max_depth = 0;
        for _ in 0..256 {
            max_depth = max_depth.max(depth(&strat.sample(&mut rng)));
        }
        assert!(max_depth >= 1, "recursion never fired");
        assert!(max_depth <= 3, "depth bound exceeded");
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let mut rng = TestRng::for_test("vec");
        let strat = vec(0..5i64, 0..4);
        for _ in 0..128 {
            let v = strat.sample(&mut rng);
            assert!(v.len() < 4);
            assert!(v.iter().all(|x| (0..5).contains(x)));
        }
    }
}
