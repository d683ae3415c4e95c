//! `fsdm-obs`: the measurement substrate for the FSDM stack.
//!
//! A zero-external-dependency metrics core with no locks anywhere on the
//! record path:
//!
//! * [`Counter`] — monotonically increasing `u64`. Recording is a plain
//!   add into the calling thread's own buffer; the thread [`publish`]es
//!   the buffer into the process totals, and into a statement's [`Tally`],
//!   at a few fixed points (see [`publish`]).
//! * [`Gauge`] — instantaneous `i64` level.
//! * [`Histogram`] — log₂-bucketed distribution of `u64` samples
//!   (nanosecond latencies, byte sizes), with `p50`/`p99` estimation.
//!
//! Gauges and histograms are recorded per morsel or per statement, never
//! per node, so each of their records is one relaxed atomic RMW.
//!
//! Every metric is a cell that [`catalog`] declares with its kind,
//! beside the `&str` constant of its name: a recording site names
//! the cell (`catalog::metric::OSON_DICT_PROBES.inc()`), so a metric the
//! catalog does not declare, or one recorded as another kind, does not
//! compile. [`snapshot`] walks the catalog.
//!
//! Metric names follow `<crate>.<subsystem>.<name>`, e.g.
//! `oson.dict.probes` or `sqljson.lookback.hit`.
//!
//! # Locks
//!
//! [`lock`] is how the workspace takes a mutex: it recovers from
//! poisoning and, in debug builds, enforces the one lock-order rule (see
//! its documentation). Root `clippy.toml` disallows `Mutex::lock`
//! everywhere else.

pub mod catalog;
pub mod trace;

pub use catalog::snapshot;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::trace::json_escape;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// A monotonically increasing counter: one slot of the calling thread's
/// buffer and of the process totals.
///
/// [`Counter::add`] is a plain add into this thread's slot, with no
/// atomic and no lock; the count reaches the totals when the thread
/// [`publish`]es. [`Counter::get`] publishes the reader's own thread
/// first, so a thread always reads its own counts.
#[derive(Debug)]
pub struct Counter {
    slot: usize,
}

/// Totals published by every thread, one cell per catalog counter.
static TOTALS: [AtomicU64; catalog::COUNTERS] = [const { AtomicU64::new(0) }; catalog::COUNTERS];

thread_local! {
    /// This thread's counts since it last published, one slot per
    /// catalog counter. Const-initialized and without a destructor, so an
    /// add reaches it with no lazy-initialization check.
    static LOCAL: [Cell<u64>; catalog::COUNTERS] =
        const { [const { Cell::new(0) }; catalog::COUNTERS] };
}

impl Counter {
    /// The counter of catalog slot `slot`; only the catalog makes them.
    pub(crate) const fn new(slot: usize) -> Counter {
        Counter { slot }
    }

    // `always`: a debug build, which the test suite runs, inlines no
    // plain `#[inline]` call, and these sit on every path evaluation

    /// Add one.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to this thread's count.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        LOCAL.with(|local| {
            let cell = &local[self.slot];
            cell.set(cell.get() + n);
        });
    }

    /// The published total, after publishing this thread's own counts.
    pub fn get(&self) -> u64 {
        publish(None);
        self.published()
    }

    /// The published total as it stands.
    pub(crate) fn published(&self) -> u64 {
        TOTALS[self.slot].load(Relaxed)
    }
}

/// Move this thread's counts into the process totals and, when given,
/// into a statement's `tally`: one relaxed `fetch_add` per counter this
/// thread moved since it last published, and the buffer is zero again.
///
/// The executor publishes at fixed points: each morsel worker as it
/// exits, and a statement's own thread as the statement starts (into the
/// totals only: those counts are not the statement's) and as it ends. A
/// reader's own thread publishes at [`snapshot`] and [`Counter::get`]. A
/// count another thread makes outside a statement reaches the totals at
/// that thread's next publication; one it never publishes is lost when it
/// exits.
pub fn publish(tally: Option<&Tally>) {
    LOCAL.with(|local| {
        for (slot, cell) in local.iter().enumerate() {
            let n = cell.replace(0);
            if n != 0 {
                TOTALS[slot].fetch_add(n, Relaxed);
                if let Some(tally) = tally {
                    tally.0[slot].fetch_add(n, Relaxed);
                }
            }
        }
    });
}

/// One statement's own counts: what the threads that worked for it
/// published into it (see [`publish`]).
#[derive(Debug)]
pub struct Tally([AtomicU64; catalog::COUNTERS]);

impl Default for Tally {
    /// A tally at zero.
    fn default() -> Tally {
        Tally([const { AtomicU64::new(0) }; catalog::COUNTERS])
    }
}

impl Tally {
    /// The counters off zero with their counts, in catalog order.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        catalog::COUNTER_NAMES
            .iter()
            .zip(&self.0)
            .map(|(&name, n)| (name, n.load(Relaxed)))
            .filter(|&(_, n)| n != 0)
            .collect()
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
        self.0.store(v, Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Relaxed);
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
        self.buckets[Self::bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
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
///   lock — the trace sink, the slow-query ring, and the failpoint
///   registry (which `fsdm-fault` locks itself, uncounted). Leaves never
///   nest, so no two leaves can wait on each other. In debug builds this
///   function counts the leaf guards each thread holds and panics if it
///   is entered while one is held; `run_morsels` panics the same way, so
///   no leaf is held while the executor runs. Every `cargo test` checks
///   every acquisition it executes.
/// * a **serializer** — the trace session lock, the failpoint scope
///   lock, a test's turn lock — is taken first and held across a whole
///   statement or test by design. A serializer calls `Mutex::lock`
///   directly, under an `#[expect(clippy::disallowed_methods)]` that
///   names its role; it is not counted.
///
/// Poison recovery is sound because every leaf critical section leaves
/// its data valid at each step (a span batch is appended whole, a ring
/// entry is pushed whole), so a
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

/// Point-in-time copy of the metrics, keyed by catalog name. Ordered
/// maps so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
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
                .map(|(&k, &v)| (k, v.saturating_sub(before.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, v)| (k, v.diff(before.histograms.get(k).unwrap_or(&empty_hist))))
                .collect(),
        }
    }

    /// The metrics that have moved off zero: what the exports print.
    fn nonzero(&self) -> MetricsSnapshot {
        let mut s = self.clone();
        s.counters.retain(|_, v| *v != 0);
        s.gauges.retain(|_, v| *v != 0);
        s.histograms.retain(|_, h| h.count != 0);
        s
    }

    /// Export the metrics off zero as a JSON object.
    pub fn to_json(&self) -> String {
        let s = self.nonzero();
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in s.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in s.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in s.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                json_escape(k),
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

    /// Export the metrics off zero as an aligned, human-readable table.
    pub fn to_table(&self) -> String {
        let s = self.nonzero();
        let width = s
            .counters
            .keys()
            .chain(s.gauges.keys())
            .chain(s.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        if !s.counters.is_empty() {
            let _ = writeln!(out, "{:<width$}  {:>14}", "counter", "value");
            for (k, v) in &s.counters {
                let _ = writeln!(out, "{k:<width$}  {v:>14}");
            }
        }
        if !s.gauges.is_empty() {
            let _ = writeln!(out, "{:<width$}  {:>14}", "gauge", "value");
            for (k, v) in &s.gauges {
                let _ = writeln!(out, "{k:<width$}  {v:>14}");
            }
        }
        if !s.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<width$}  {:>10} {:>14} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p99"
            );
            for (k, h) in &s.histograms {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, metric};

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

    /// A snapshot of a counter value and two local cells, as the
    /// catalog's walk reads them.
    fn snapshot_of(c: u64, g: &Gauge, h: &Histogram) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [("a.b.c", c)].into(),
            gauges: [("a.b.level", g.get())].into(),
            histograms: [("a.b.ns", h.snapshot())].into(),
        }
    }

    #[test]
    fn snapshot_diff() {
        let (g, h) = (Gauge::new(), Histogram::new());
        g.set(7);
        h.record(100);
        let before = snapshot_of(5, &g, &h);
        h.record(200);
        g.set(9);
        let mut after = snapshot_of(8, &g, &h);
        after.counters.insert("a.b.new", 1);
        let d = after.diff(&before);
        assert_eq!(d.counter("a.b.c"), 3);
        assert_eq!(d.counter("a.b.new"), 1);
        assert_eq!(d.gauge("a.b.level"), 9); // gauges keep current level
        assert_eq!(d.histograms["a.b.ns"].count, 1);
        assert_eq!(d.histograms["a.b.ns"].sum, 200);
    }

    // Each counter below is recorded by one test of this crate only, so
    // its deltas are exact while the tests share the process.

    #[test]
    fn concurrent_recording_is_exact() {
        let c = &metric::SLOWLOG_EVICTED;
        let (g, h) = (Gauge::new(), Histogram::new());
        let before = c.get();
        let tally = Tally::default();
        #[expect(clippy::disallowed_methods, reason = "concurrent recording is the subject")]
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 1000);
                        g.add(1);
                    }
                    publish(Some(&tally));
                });
            }
        });
        assert_eq!(c.get() - before, 80_000);
        assert_eq!(tally.counts(), vec![(catalog::SLOWLOG_EVICTED, 80_000)]);
        assert_eq!(h.count(), 80_000);
        assert_eq!(g.get(), 80_000);
    }

    #[test]
    fn a_thread_reads_its_own_counts_without_publishing() {
        let before = snapshot().counter(catalog::OSON_UPDATE_REENCODE);
        metric::OSON_UPDATE_REENCODE.add(3);
        assert_eq!(snapshot().counter(catalog::OSON_UPDATE_REENCODE), before + 3);
        metric::OSON_UPDATE_REENCODE.inc();
        assert_eq!(metric::OSON_UPDATE_REENCODE.get(), before + 4);
    }

    #[test]
    fn a_spawned_thread_counts_once_it_publishes_and_is_joined() {
        let c = &metric::OSON_UPDATE_IN_PLACE;
        let before = c.get();
        #[expect(clippy::disallowed_methods, reason = "a second thread is the subject")]
        std::thread::scope(|s| {
            s.spawn(|| {
                c.add(5);
                // still buffered: the totals do not have it yet
                assert_eq!(c.published(), before);
                publish(None);
            });
        });
        assert_eq!(c.get(), before + 5);
        // a thread that never publishes keeps its counts to itself
        #[expect(clippy::disallowed_methods, reason = "a second thread is the subject")]
        std::thread::scope(|s| {
            s.spawn(|| c.add(7));
        });
        assert_eq!(c.get(), before + 5);
    }

    #[test]
    fn a_tally_lists_the_counters_off_zero_in_catalog_order() {
        publish(None); // whatever this thread counted before is not the tally's
        let tally = Tally::default();
        metric::PLANCK_WARNINGS.add(2);
        metric::ANALYZE_DIAG_INFOS.inc();
        publish(Some(&tally));
        assert_eq!(
            tally.counts(),
            vec![(catalog::ANALYZE_DIAG_INFOS, 1), (catalog::PLANCK_WARNINGS, 2)]
        );
        // published once: a second publication adds nothing
        publish(Some(&tally));
        assert_eq!(tally.counts().len(), 2);
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
    fn json_and_table_exports() {
        let (g, h) = (Gauge::new(), Histogram::new());
        g.set(-4);
        h.record(10);
        let mut s = snapshot_of(2, &g, &h);
        s.counters.insert("a.b.untouched", 0);
        let j = s.to_json();
        assert!(j.contains("\"a.b.c\":2"), "{j}");
        assert!(j.contains("\"a.b.level\":-4"), "{j}");
        assert!(j.contains("\"count\":1"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
        let t = s.to_table();
        assert!(t.contains("a.b.c"));
        assert!(t.contains("a.b.ns"));
        // a metric still at zero is left out of both exports
        assert!(!j.contains("a.b.untouched") && !t.contains("a.b.untouched"), "{j}\n{t}");
    }
}
