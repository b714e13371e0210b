//! A minimal, std-only, in-repo stand-in for the `proptest` crate.
//!
//! This workspace must build and test with **no network access** (the
//! tier-1 gate is `cargo build --release && cargo test -q` in an offline
//! container), and Cargo resolves *every* registry dependency into the
//! lockfile — even optional or dev-only ones — so the only way to keep the
//! property tests is to vendor the subset of the proptest API they use.
//!
//! Scope: deterministic random-input testing, **no shrinking**. Each
//! `proptest!`-generated test derives its RNG seed from the test's module
//! path and name, so failures reproduce across runs and machines. The
//! supported strategy surface is exactly what this workspace's tests use:
//!
//! - `any::<T>()` for the integer types and `bool`;
//! - integer range strategies (`lo..hi`, `lo..=hi`, `lo..`);
//! - `proptest::collection::vec(strategy, size)` with a fixed size or a
//!   size range;
//! - `proptest::array::uniform16(strategy)`;
//! - tuples of strategies (arity 2–4), `Just(value)`, and `prop_oneof!`;
//! - `Strategy::prop_map` for derived values;
//! - `ProptestConfig::with_cases(n)` via `#![proptest_config(..)]`.
//!
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!` map to the plain
//! `assert!` family: a failing case panics with the case number in the
//! panic message (via [`test_runner::TestRng`] bookkeeping) instead of
//! shrinking to a minimal input.

#![forbid(unsafe_code)]

pub mod array;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The common imports: macros, [`strategy::Strategy`], [`strategy::any`],
/// [`strategy::Just`], and [`test_runner::ProptestConfig`].
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body for `ProptestConfig::cases`
/// random inputs (default 256, override with `#![proptest_config(..)]`).
/// A `return` in the body ends that case, not the test.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)+
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)+);
    };
    (
        $(#[$meta:meta])*
        fn $($rest:tt)+
    ) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default())
            $(#[$meta])* fn $($rest)+
        );
    };
    (
        @with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let proptest_shim_config: $crate::test_runner::ProptestConfig = $cfg;
                let mut proptest_shim_rng = $crate::test_runner::TestRng::for_test(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for proptest_shim_case in 0..proptest_shim_config.cases {
                    proptest_shim_rng.set_case(proptest_shim_case);
                    let ($($arg,)+) = ($(
                        $crate::strategy::Strategy::generate(&$strat, &mut proptest_shim_rng),
                    )+);
                    // The body runs in its own closure so that a `return`
                    // ends this case only, as it does in proptest.
                    #[allow(clippy::redundant_closure_call)]
                    (|| $body)();
                }
            }
        )+
    };
}

/// `assert!` under proptest's historical name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under proptest's historical name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under proptest's historical name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Picks uniformly among the listed strategies (all must yield the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static STARTED: AtomicU32 = AtomicU32::new(0);
    static FINISHED: AtomicU32 = AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        fn returns_early_on_odd_inputs(x in 0u32..1000) {
            STARTED.fetch_add(1, Ordering::SeqCst);
            if x % 2 == 1 {
                return;
            }
            FINISHED.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_return_ends_only_its_case() {
        returns_early_on_odd_inputs();
        let (started, finished) = (
            STARTED.load(Ordering::SeqCst),
            FINISHED.load(Ordering::SeqCst),
        );
        assert_eq!(started, 32, "every case runs after an early return");
        assert!(
            finished > 0 && finished < started,
            "{finished} of {started} cases ran to the end"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(a in 3u32..10, b in 1usize..=4, c in 250u8..) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!(c >= 250);
        }

        #[test]
        fn vec_sizes_respected(v in crate::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn fixed_vec_size(v in crate::collection::vec(any::<u32>(), 7)) {
            prop_assert_eq!(v.len(), 7);
        }

        #[test]
        fn arrays_and_tuples(arr in crate::array::uniform16(any::<u32>()),
                             pair in (0u8..4, 0u64..64)) {
            prop_assert_eq!(arr.len(), 16);
            prop_assert!(pair.0 < 4 && pair.1 < 64);
        }

        #[test]
        fn oneof_picks_each_side(x in prop_oneof![Just(7u32), 100u32..200]) {
            prop_assert!(x == 7 || (100..200).contains(&x));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("seed::name");
        let mut b = crate::test_runner::TestRng::for_test("seed::name");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
