//! `fsdm-obs`: the measurement substrate for the FSDM stack.
//!
//! A zero-external-dependency metrics core — everything is built on
//! `std::sync::atomic` so hot-path recording is a single relaxed atomic
//! RMW, with no locks anywhere on the record path:
//!
//! * [`Counter`] — monotonically increasing `u64`.
//! * [`Gauge`] — instantaneous `i64` level.
//! * [`Histogram`] — log₂-bucketed distribution of `u64` samples
//!   (nanosecond latencies, byte sizes), with `p50`/`p99` estimation.
//!
//! Metrics live in a [`MetricsRegistry`]. Instrumented crates use the
//! process-global registry ([`global`]) through the [`counter!`],
//! [`gauge!`] and [`histogram!`] macros, which cache the interned handle
//! in a local `OnceLock` so steady-state recording never touches the
//! registry lock. Tests and embedders can also construct private
//! registries.
//!
//! Metric names follow `<crate>.<subsystem>.<name>`, e.g.
//! `oson.dict.probes` or `sqljson.lookback.hit`.
//!
//! # Disable / no-op mode
//!
//! [`set_enabled`]`(false)` turns every recording operation into a single
//! relaxed atomic load (the check) — benches use this to quantify
//! instrumentation overhead. Snapshots still work; they simply stop
//! advancing. The flag is process-global and defaults to enabled.
//!
//! # Locks
//!
//! [`lock`] is how the workspace takes a mutex: it recovers from
//! poisoning and, in debug builds, enforces the one lock-order rule (see
//! its documentation). Root `clippy.toml` disallows `Mutex::lock`
//! everywhere else.

pub mod catalog;
pub mod trace;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// The global metrics on/off gate. A handshake: [`set_enabled`] stores
/// `Release`, every recording site loads `Acquire`.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable all metric recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Release);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Acquire)
}

/// A monotonically increasing counter. Like [`Gauge`] and [`Histogram`]
/// it is a statistic no other memory hangs off, so every operation on it
/// is `Relaxed`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous level; can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Relaxed);
        }
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.0.fetch_add(delta, Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i - 1]`. Quantiles are estimated as the upper bound of
/// the bucket containing the requested rank, so they are exact to within
/// a factor of 2 — plenty for order-of-magnitude latency/size tracking.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub const fn new() -> Histogram {
        #[allow(
            clippy::declare_interior_mutable_const,
            reason = "a const initializer copied into each bucket, never shared"
        )]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram { buckets: [ZERO; NUM_BUCKETS], count: AtomicU64::new(0), sum: AtomicU64::new(0) }
    }

    /// Bucket index for a sample value.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket.
    pub fn bucket_upper_bound(ix: usize) -> u64 {
        match ix {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[Self::bucket_index(v)].fetch_add(1, Relaxed);
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Read the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (i, bucket) in self.buckets.iter().enumerate() {
            buckets[i] = bucket.load(Relaxed);
        }
        HistogramSnapshot { count: self.count.load(Relaxed), sum: self.sum.load(Relaxed), buckets }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`Histogram`] for bounds).
    pub buckets: [u64; NUM_BUCKETS],
}

impl HistogramSnapshot {
    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of that rank. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference `self - before` (saturating).
    pub fn diff(&self, before: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(before.buckets[i]);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            buckets,
        }
    }
}

thread_local! {
    /// Leaf guards this thread holds; only debug builds count them.
    static LEAVES_HELD: Cell<usize> = const { Cell::new(0) };
}

/// Lock a **leaf** mutex, recovering the guard if an earlier holder
/// panicked.
///
/// Every mutex in the workspace has one of two roles, and they are the
/// whole lock-order rule:
///
/// * a **leaf** guards a short critical section that reaches no other
///   lock — the metrics registry map, the trace sink, the slow-query
///   ring, and the failpoint registry (which `fsdm-fault` locks itself,
///   uncounted). Leaves never nest, so no two leaves can wait on each
///   other. In debug builds this function counts the leaf guards each
///   thread holds and panics if it is entered while one is held;
///   `run_morsels` panics the same way, so no leaf is held while the
///   executor runs. Every `cargo test` checks every acquisition it
///   executes.
/// * a **serializer** — the trace session lock, the failpoint scope
///   lock, a test's turn lock — is taken first and held across a whole
///   statement or test by design. A serializer calls `Mutex::lock`
///   directly, under an `#[expect(clippy::disallowed_methods)]` that
///   names its role; it is not counted.
///
/// Poison recovery is sound because every leaf critical section leaves
/// its data valid at each step (an interned handle is inserted whole, a
/// span batch is appended whole, a ring entry is pushed whole), so a
/// panic under a leaf cannot break a later holder.
///
/// ```
/// let m = std::sync::Mutex::new(1);
/// *fsdm_obs::lock(&m) += 1;
/// assert_eq!(*fsdm_obs::lock(&m), 2);
/// ```
#[expect(clippy::disallowed_methods, reason = "the one place a leaf mutex is locked")]
pub fn lock<T>(m: &Mutex<T>) -> LeafGuard<'_, T> {
    debug_assert_eq!(leaf_locks_held(), 0, "leaf locks never nest");
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    #[cfg(debug_assertions)]
    LEAVES_HELD.with(|n| n.set(n.get() + 1));
    LeafGuard(guard)
}

/// Leaf guards this thread holds right now. Only debug builds count;
/// a release build, which keeps no count, reports 0.
pub fn leaf_locks_held() -> usize {
    if cfg!(debug_assertions) {
        LEAVES_HELD.with(Cell::get)
    } else {
        0
    }
}

/// The guard [`lock`] returns. A release build compiles it to the bare
/// `MutexGuard`; a debug build also uncounts the leaf when it drops.
pub struct LeafGuard<'a, T>(MutexGuard<'a, T>);

impl<T> Deref for LeafGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for LeafGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for LeafGuard<'_, T> {
    fn drop(&mut self) {
        LEAVES_HELD.with(|n| n.set(n.get() - 1));
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static Histogram>,
}

/// A named collection of metrics.
///
/// Registration (name → handle) takes a lock; recording through a handle
/// is lock-free. Handles are interned with `'static` lifetime so callers
/// can cache them in `OnceLock` statics — that is what the [`counter!`]
/// family of macros does.
///
/// The registry map is a leaf lock ([`lock`]): a panic elsewhere while
/// it is held cannot brick the registry, because an interned handle is
/// either fully inserted or absent.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut g = lock(&self.inner);
        if let Some(c) = g.counters.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        g.counters.insert(name.to_string(), c);
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut g = lock(&self.inner);
        if let Some(c) = g.gauges.get(name) {
            return c;
        }
        let c: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        g.gauges.insert(name.to_string(), c);
        c
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut g = lock(&self.inner);
        if let Some(c) = g.histograms.get(name) {
            return c;
        }
        let c: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        g.histograms.insert(name.to_string(), c);
        c
    }

    /// Point-in-time copy of every metric in this registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = lock(&self.inner);
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: g.gauges.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            histograms: g.histograms.iter().map(|(k, c)| (k.clone(), c.snapshot())).collect(),
        }
    }
}

/// The process-global registry used by all instrumented fsdm crates.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Snapshot of the global registry (shorthand for
/// `global().snapshot()`).
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Point-in-time copy of a whole registry. Ordered maps so exports are
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Difference `self - before`: counters and histograms subtract
    /// (saturating; metrics absent from `before` count from zero), gauges
    /// keep their current level since a gauge delta is rarely meaningful.
    pub fn diff(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        let empty_hist = HistogramSnapshot { count: 0, sum: 0, buckets: [0; NUM_BUCKETS] };
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(before.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.diff(before.histograms.get(k).unwrap_or(&empty_hist))))
                .collect(),
        }
    }

    /// Export as a JSON object (hand-rolled; metric names are simple
    /// dotted identifiers but quotes/backslashes are escaped anyway).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", esc(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", esc(k), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                esc(k),
                h.count,
                h.sum,
                h.p50(),
                h.p99()
            );
            let mut first = true;
            for (ix, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{},{}]", Histogram::bucket_upper_bound(ix), c);
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Export as an aligned, human-readable table.
    pub fn to_table(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<width$}  {:>14}", "counter", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<width$}  {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<width$}  {:>14}", "gauge", "value");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "{k:<width$}  {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<width$}  {:>10} {:>14} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p99"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{k:<width$}  {:>10} {:>14.1} {:>12} {:>12}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p99()
                );
            }
        }
        out
    }
}

/// Intern a global counter once and cache the handle in a local static.
/// The name is a path to a [`catalog`] constant:
///
/// ```
/// fsdm_obs::counter!(fsdm_obs::catalog::OSON_DICT_PROBES).inc();
/// ```
///
/// and nothing else, so a string literal does not match the macro:
///
/// ```compile_fail
/// fsdm_obs::counter!("oson.dict.probes").inc();
/// ```
///
/// [`gauge!`] and [`histogram!`] take their names the same way.
#[macro_export]
macro_rules! counter {
    ($name:path) => {{
        static __METRIC: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__METRIC.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Intern a global gauge once and cache the handle in a local static.
#[macro_export]
macro_rules! gauge {
    ($name:path) => {{
        static __METRIC: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__METRIC.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Intern a global histogram once and cache the handle in a local static.
#[macro_export]
macro_rules! histogram {
    ($name:path) => {{
        static __METRIC: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__METRIC.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // every value lands in a bucket whose bounds contain it
        for v in [0u64, 1, 2, 5, 16, 100, 1 << 40, u64::MAX] {
            let ix = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(ix));
            if ix > 0 {
                assert!(v > Histogram::bucket_upper_bound(ix - 1));
            }
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // rank 50 falls in [32, 63], rank 99 in [64, 127]
        assert_eq!(s.p50(), 63);
        assert_eq!(s.p99(), 127);
        assert_eq!(s.quantile(0.0), 1); // rank clamps to 1 → first bucket
        assert_eq!(s.quantile(1.0), 127);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // empty histogram
        assert_eq!(Histogram::new().snapshot().p50(), 0);
    }

    #[test]
    fn snapshot_diff() {
        let r = MetricsRegistry::new();
        r.counter("a.b.c").add(5);
        r.gauge("a.b.level").set(7);
        r.histogram("a.b.ns").record(100);
        let before = r.snapshot();
        r.counter("a.b.c").add(3);
        r.counter("a.b.new").inc();
        r.histogram("a.b.ns").record(200);
        r.gauge("a.b.level").set(9);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("a.b.c"), 3);
        assert_eq!(d.counter("a.b.new"), 1);
        assert_eq!(d.gauge("a.b.level"), 9); // gauges keep current level
        assert_eq!(d.histograms["a.b.ns"].count, 1);
        assert_eq!(d.histograms["a.b.ns"].sum, 200);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let r = MetricsRegistry::new();
        let c = r.counter("t.concurrent.count");
        let h = r.histogram("t.concurrent.hist");
        let g = r.gauge("t.concurrent.gauge");
        #[expect(clippy::disallowed_methods, reason = "concurrent recording is the subject")]
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 1000);
                        g.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(r.snapshot().histograms["t.concurrent.hist"].count, 80_000);
        assert_eq!(r.snapshot().gauge("t.concurrent.gauge"), 80_000);
    }

    #[test]
    fn a_poisoned_leaf_lock_yields_its_data() {
        let m = Mutex::new(7);
        #[expect(clippy::disallowed_methods, reason = "poisoning the mutex needs an unwind")]
        let _ = std::panic::catch_unwind(|| {
            let _guard = lock(&m);
            panic!("unwind with the guard held");
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
        assert_eq!(leaf_locks_held(), 0, "the unwound guard was uncounted");
    }

    // the leaf count only exists where it can panic
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaf locks never nest")]
    fn nested_leaf_locks_panic() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let _a = lock(&a);
        let _b = lock(&b);
    }

    #[test]
    fn registry_interns_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.y.z") as *const Counter;
        let b = r.counter("x.y.z") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn json_and_table_exports() {
        let r = MetricsRegistry::new();
        r.counter("e.x.count").add(2);
        r.gauge("e.x.level").set(-4);
        r.histogram("e.x.bytes").record(10);
        let s = r.snapshot();
        let j = s.to_json();
        assert!(j.contains("\"e.x.count\":2"), "{j}");
        assert!(j.contains("\"e.x.level\":-4"), "{j}");
        assert!(j.contains("\"count\":1"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
        let t = s.to_table();
        assert!(t.contains("e.x.count"));
        assert!(t.contains("e.x.bytes"));
    }
}
