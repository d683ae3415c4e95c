//! The case runner and the `proptest!` / assertion macros.

use std::fmt;

use crate::TestRng;

/// Per-test configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property is violated; fails the test.
    Fail(String),
    /// The inputs were uninteresting (`prop_assume!`); the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failing case with the given reason.
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(reason.into())
    }

    /// A rejected (skipped) case with the given reason.
    pub fn reject(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
            TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Drive one property: run `case` with fresh deterministic RNGs until
/// `config.cases` cases pass, panicking on the first failure.
///
/// The per-case seed is derived from the test name and the case index, so
/// failures are reproducible run-to-run; set `PROPTEST_SEED` to an integer
/// to shift the whole sequence when hunting for new counterexamples.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let mut passed: u32 = 0;
    let mut attempt: u64 = 0;
    let max_attempts = (config.cases as u64).saturating_mul(16).max(1024);
    while passed < config.cases {
        let seed = fnv1a(name.as_bytes()) ^ base.wrapping_add(attempt).wrapping_mul(0x9E37_79B9);
        let mut rng = TestRng::new(seed);
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(reason)) => {
                panic!(
                    "proptest `{name}` failed at case {passed} (attempt {attempt}, seed \
                     {seed:#x}): {reason}"
                );
            }
        }
        attempt += 1;
        if attempt > max_attempts {
            panic!(
                "proptest `{name}`: too many rejected cases ({} passed of {} wanted after {} \
                 attempts)",
                passed, config.cases, attempt
            );
        }
    }
}

/// `proptest! { ... }` — declare property tests (subset of the real macro:
/// an optional `#![proptest_config(...)]` header followed by `#[test]`
/// functions whose arguments are `pattern in strategy` bindings).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            // Build each strategy once; generate per case.
            let __strategies = ($($strat,)+);
            $crate::test_runner::run_cases(__config, stringify!($name), move |__rng| {
                let ($($pat,)+) =
                    $crate::strategy::Strategy::generate(&__strategies, __rng);
                let __out: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code, reason = "a body may return early")]
                        Ok(())
                    })();
                __out
            });
        }
    )*};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)` — fail the
/// current case (in any function returning `Result<_, TestCaseError>`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional trailing format context.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?}` == `{:?}`",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?}` == `{:?}`: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assert_ne!(a, b)` with optional trailing format context.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{:?}` != `{:?}`",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{:?}` != `{:?}`: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assume!(cond)` — skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}
