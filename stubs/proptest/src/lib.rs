//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this workspace
//! vendors the *API subset* of proptest that its test suites use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_recursive` / `boxed`,
//! integer-range and tuple strategies, [`Just`](strategy::Just), `any::<T>()`,
//! `prop_oneof!`, `collection::vec`, and the `proptest!` /
//! `prop_assert*!` / `prop_assume!` macros.
//!
//! Semantics: each `#[test]` inside `proptest! { .. }` runs
//! `ProptestConfig::cases` random cases drawn from a deterministic
//! per-test generator (seeded from the test's name, so failures are
//! reproducible run-to-run). There is **no shrinking** — a failing
//! case reports the case number and assertion message only. That is a
//! deliberate simplification: the workspace needs reproducible random
//! coverage, not minimal counterexamples.

pub mod strategy;
pub mod test_runner;

pub mod arbitrary {
    pub use crate::strategy::{any, Any, Arbitrary};
}

pub mod collection {
    pub use crate::strategy::{vec, SizeRange, VecStrategy};
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// One random case: either passes, fails with a message, or is
/// rejected (filtered out by `prop_assume!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`\n{}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)+);
    }};
}

/// Reject the current case without failing the test (the runner just
/// moves on to the next case).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// The test-block macro: expands each `fn name(pat in strategy, ..)`
/// into a plain test running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@block ($cfg) $($rest)*);
    };
    (@block ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner_rng =
                    $crate::test_runner::TestRng::for_test(stringify!($name));
                for case_index in 0..config.cases {
                    let outcome: ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        let ($($arg,)*) = ($(
                            $crate::strategy::Strategy::sample(&($strat), &mut runner_rng),
                        )*);
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(message),
                        ) => {
                            panic!(
                                "proptest `{}` failed at case {}/{}: {}",
                                stringify!($name),
                                case_index + 1,
                                config.cases,
                                message
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@block ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}
