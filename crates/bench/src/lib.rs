//! Shared harness for the `repro` binary and the workspace's tests:
//! corpus setup for each experiment, view registration per storage
//! method, and the experiment runners that regenerate the paper's tables
//! and figures.

pub mod experiments;
pub mod setup;

use std::time::{Duration, Instant};

/// Time `f` once after `warmup` warm-up runs, then return the best of
/// `reps` timed runs (minimum is the standard low-noise estimator for
/// CPU-bound work).
pub fn time_best<F: FnMut()>(mut f: F, warmup: usize, reps: usize) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

/// Milliseconds with two decimals for table output.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}
