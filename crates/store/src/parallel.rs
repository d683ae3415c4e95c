//! Morsel-driven parallel execution (the scaffolding under
//! [`crate::Database`]'s batch executor).
//!
//! The executor splits every data-parallel operator into fixed-size
//! **morsels** — contiguous [`RowRange`]s of the operator's input — and
//! runs them on `std::thread::scope` workers that claim morsel indices
//! from a shared atomic counter. Results come back **in morsel-index
//! order**, so the concatenated output is identical at every degree
//! (including `degree = 1`, which runs inline on the calling thread with
//! no spawn at all). Each worker owns an [`EvalScratch`], the per-worker
//! evaluator state that replaced the old `RefCell<PathEvaluator>` interior
//! mutability: compiled paths live immutably in the plan, cursors and
//! look-back caches live here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fsdm_obs::catalog::metric;
use fsdm_obs::{trace, Tally};

use crate::expr::EvalScratch;
use crate::govern::QueryGovernor;
use crate::table::{CancelReason, ErrorKind, StoreError};

/// Default morsel size in rows. Large enough to amortize claim/dispatch
/// overhead, small enough that a NOBENCH-scale scan yields many units of
/// work per core.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// A half-open range of row positions `[start, end)` — one morsel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First row position in the morsel.
    pub start: usize,
    /// One past the last row position.
    pub end: usize,
}

impl RowRange {
    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the range covers no rows.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Chunk `total` rows into morsels of (at most) `target_rows` each.
/// The chunking depends only on `total` and `target_rows` — never on the
/// degree — so the morsel structure (and with it every morsel-ordered
/// reassembly) is identical no matter how many workers run.
pub fn morsels(total: usize, target_rows: usize) -> impl Iterator<Item = RowRange> {
    let step = target_rows.max(1);
    (0..total).step_by(step).map(move |start| RowRange { start, end: (start + step).min(total) })
}

/// Per-execution settings the executor threads through every operator.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Maximum number of worker threads a data-parallel pipeline may use.
    pub degree: usize,
    /// Target rows per morsel.
    pub morsel_rows: usize,
    /// The statement's governance bundle (cancel token, deadline, memory
    /// budget), shared by every worker of every pipeline.
    pub governor: Arc<QueryGovernor>,
    /// The statement's own counts: each worker publishes into it as it
    /// exits, the statement's thread as the statement ends.
    pub counts: Arc<Tally>,
}

impl ExecContext {
    /// A strictly serial context (degree 1) — today's single-threaded
    /// behavior, used by callers that must not spawn.
    pub fn serial() -> ExecContext {
        ExecContext {
            degree: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            governor: Arc::new(QueryGovernor::unlimited()),
            counts: Arc::default(),
        }
    }
}

/// What a pipeline actually used, reported into `QueryProfile` rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParStats {
    /// Peak worker count across the operator's parallel pipelines.
    pub workers: usize,
    /// Total morsels dispatched by the operator.
    pub morsels: usize,
}

/// The process-wide default degree: `FSDM_THREADS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
pub fn default_degree() -> usize {
    static DEGREE: OnceLock<usize> = OnceLock::new();
    *DEGREE.get_or_init(|| {
        std::env::var("FSDM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Run `f` over every morsel of `total` rows and return the per-morsel
/// results **in morsel-index order**.
///
/// With an effective worker count of 1 (degree 1, or fewer morsels than
/// workers would need) everything runs inline on the calling thread —
/// no spawn, no atomics on the data path — reproducing strictly serial
/// execution. Otherwise `min(degree, morsel_count)` scoped workers claim
/// morsel indices via `fetch_add` until the supply is exhausted; each
/// worker carries one [`EvalScratch`] across all the morsels it claims so
/// compiled-path look-back caches warm up per worker.
///
/// **Governance.** The context's [`QueryGovernor`] is checkpointed before
/// every morsel, so a cancellation, deadline, or budget kill stops the
/// pipeline within one morsel of work per worker and surfaces as a typed
/// [`StoreError`].
///
/// **Panic isolation.** A panic inside `f` is caught (on the serial path
/// too), converted into a typed [`ErrorKind::WorkerPanic`] error carrying
/// the failing morsel index, and published to the sibling workers as a
/// peer-panic cancellation so they wind down at their next checkpoint.
/// The caller gets an ordinary `Err`; no worker unwinds across the scope,
/// so the `Database` stays fully usable afterwards.
///
/// **Errors are deterministic.** The error returned is the one from the
/// lowest-indexed failing morsel (the same morsel — and row — a serial
/// run would have stopped at), with one refinement: *governance* failures
/// (cancel / deadline / budget) are echoes of a kill, so a primary error
/// — a real evaluation failure or an isolated panic — wins over any
/// governance error regardless of morsel order. Which worker observed a
/// cancellation first can race; which morsel first produced a primary
/// error cannot.
pub fn run_morsels<T, F>(
    ctx: &ExecContext,
    total: usize,
    stats: &mut ParStats,
    f: F,
) -> Result<Vec<T>, StoreError>
where
    T: Send,
    F: Fn(RowRange, &mut EvalScratch) -> Result<T, StoreError> + Sync,
{
    // the coordinator waits for its workers, so a leaf held here would
    // deadlock any worker that takes it (see `fsdm_obs::lock`);
    // serializers are outermost by design
    debug_assert_eq!(fsdm_obs::leaf_locks_held(), 0, "run_morsels entered under a leaf lock");
    let ranges: Vec<RowRange> = morsels(total, ctx.morsel_rows).collect();
    let workers = ctx.degree.min(ranges.len()).max(1);
    stats.workers = stats.workers.max(workers);
    stats.morsels += ranges.len();
    metric::EXEC_MORSEL_COUNT.add(ranges.len() as u64);
    let mut pipeline = trace::span(fsdm_obs::catalog::SPAN_EXEC_PIPELINE);
    pipeline.record_args(|| format!("workers={workers} morsels={}", ranges.len()));
    if workers == 1 {
        let mut scratch = EvalScratch::new();
        let mut out = Vec::with_capacity(ranges.len());
        for (i, range) in ranges.into_iter().enumerate() {
            ctx.governor.checkpoint()?;
            let t = Instant::now();
            let v = run_guarded(&ctx.governor, i, range, &mut scratch, &f);
            record_morsel(range, t);
            out.push(v?);
        }
        return Ok(out);
    }
    let pipeline_id = pipeline.id();
    // the morsel ticket dispenser: each index is handed out once by
    // `fetch_add` and publishes nothing else, so `Relaxed`
    let next = AtomicUsize::new(0);
    let sentry = oracle::RaceOracle::new(ranges.len());
    #[expect(clippy::disallowed_methods, reason = "the one production spawn site")]
    let per_worker: Vec<Vec<(usize, Result<T, StoreError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    sentry.worker_enter();
                    let busy = Instant::now();
                    // explicit cross-thread parent: this lane's spans hang
                    // under the pipeline span on the coordinating thread
                    let worker =
                        trace::span_with_parent(fsdm_obs::catalog::SPAN_EXEC_WORKER, pipeline_id);
                    let mut scratch = EvalScratch::new();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = ranges.get(i).copied() else { break };
                        sentry.claim(i);
                        if let Err(e) = ctx.governor.checkpoint() {
                            // a kill echo, recorded so the claimed morsel
                            // still has a slot; the drain ranks it below
                            // any primary error
                            local.push((i, Err(e)));
                            break;
                        }
                        let t = Instant::now();
                        let v = run_guarded(&ctx.governor, i, range, &mut scratch, &f);
                        record_morsel(range, t);
                        let failed = v.is_err();
                        local.push((i, v));
                        if failed {
                            break;
                        }
                    }
                    metric::EXEC_WORKER_BUSY_NS.record(busy.elapsed().as_nanos() as u64);
                    sentry.worker_exit();
                    // close the worker span, then push this lane's buffered
                    // spans into the session sink and its counts into the
                    // totals and the statement's tally: the scope join
                    // orders the closure, not this thread's TLS destructors,
                    // so a session finishing (or a statement reporting)
                    // right after the join must not race a deferred flush
                    drop(worker);
                    trace::flush_local();
                    fsdm_obs::publish(Some(&ctx.counts));
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    // reassemble in morsel-index order — the determinism barrier
    let mut slots: Vec<Option<Result<T, StoreError>>> = Vec::with_capacity(ranges.len());
    slots.resize_with(ranges.len(), || None);
    for (i, v) in per_worker.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(v);
        }
    }
    // error election before any merge: the lowest-indexed *primary* error
    // wins; governance kill echoes only surface when nothing primary
    // failed. Electing over the full slot set (rather than draining to
    // the first error) is what keeps the result deterministic when a
    // cancellation races a real failure.
    let mut primary: Option<StoreError> = None;
    let mut governance: Option<StoreError> = None;
    for slot in &slots {
        if let Some(Err(e)) = slot {
            let elected = if e.is_governance() { &mut governance } else { &mut primary };
            if elected.is_none() {
                *elected = Some(e.clone());
            }
        }
    }
    if let Some(e) = primary.or(governance) {
        return Err(e);
    }
    let mut out = Vec::with_capacity(ranges.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(v) => {
                sentry.merge(i);
                out.push(v?);
            }
            // unreachable in practice: a morsel is only left unclaimed when
            // every worker stopped on an error at a lower index, and the
            // election above already returned that error
            None => {
                return Err(StoreError::new("parallel pipeline lost a morsel result"));
            }
        }
    }
    sentry.finish();
    Ok(out)
}

/// Run one morsel with panic isolation: a panic inside `f` is caught,
/// published to sibling workers as a peer-panic cancellation, and
/// converted into a typed [`ErrorKind::WorkerPanic`] error carrying the
/// morsel index and the panic message.
///
/// `AssertUnwindSafe` is sound here: on a caught panic the worker's
/// `EvalScratch` is abandoned (the worker records the error and stops
/// claiming), the morsel's partial result is dropped, and the pipeline
/// fails the whole statement — no state that a half-run closure touched
/// is ever observed by later work.
fn run_guarded<T, F>(
    governor: &QueryGovernor,
    index: usize,
    range: RowRange,
    scratch: &mut EvalScratch,
    f: &F,
) -> Result<T, StoreError>
where
    F: Fn(RowRange, &mut EvalScratch) -> Result<T, StoreError> + Sync,
{
    #[expect(clippy::disallowed_methods, reason = "the one production panic boundary")]
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut morsel = trace::span(fsdm_obs::catalog::SPAN_EXEC_MORSEL);
        morsel.record_args(|| format!("rows={}..{}", range.start, range.end));
        f(range, scratch)
    }));
    match caught {
        Ok(v) => v,
        Err(payload) => {
            governor.cancel_token().cancel(CancelReason::PeerPanic);
            metric::GOVERN_WORKER_PANIC.inc();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Err(StoreError::with_kind(
                format!("worker panicked at morsel {index}: {msg}"),
                ErrorKind::WorkerPanic { morsel: index },
            ))
        }
    }
}

/// Debug-build **race oracle**: a runtime witness of the three
/// invariants the morsel dispatcher's correctness argument rests on,
/// checked on every parallel pipeline while tests run.
///
/// 1. **Disjoint, exhaustive claims** — every morsel index is claimed by
///    exactly one worker (disjointness is asserted at claim time; on the
///    success path, exhaustiveness at [`RaceOracle::finish`]).
/// 2. **Ordered merge** — the reassembly drain consumes slots strictly
///    in morsel-index order, which is the determinism barrier that makes
///    every degree byte-identical.
/// 3. **No worker outlives the scope** — the live-worker count returns
///    to zero before the pipeline reports success.
///
/// The `claims`/`active_workers` handshakes use `AcqRel`/`Acquire`
/// orderings so a violated invariant is observed with the offending
/// morsel's writes visible; `merged` advances only on the coordinating
/// thread and stays `Relaxed`. Release builds compile against the no-op
/// shim below: same API, zero cost.
#[cfg(debug_assertions)]
mod oracle {
    use std::sync::atomic::{
        AtomicUsize,
        Ordering::{AcqRel, Acquire, Relaxed},
    };

    pub(super) struct RaceOracle {
        /// One slot per morsel; must go 0 → 1 exactly once.
        claims: Vec<AtomicUsize>,
        /// Workers inside the scope right now.
        active_workers: AtomicUsize,
        /// Morsels merged so far; merges must arrive in index order.
        merged: AtomicUsize,
    }

    impl RaceOracle {
        pub(super) fn new(morsels: usize) -> RaceOracle {
            RaceOracle {
                claims: (0..morsels).map(|_| AtomicUsize::new(0)).collect(),
                active_workers: AtomicUsize::new(0),
                merged: AtomicUsize::new(0),
            }
        }

        pub(super) fn worker_enter(&self) {
            self.active_workers.fetch_add(1, AcqRel);
        }

        pub(super) fn worker_exit(&self) {
            let live = self.active_workers.fetch_sub(1, AcqRel);
            assert!(live > 0, "race oracle: worker exited more often than it entered");
        }

        pub(super) fn claim(&self, i: usize) {
            let prev = self.claims[i].fetch_add(1, AcqRel);
            assert_eq!(prev, 0, "race oracle: morsel {i} claimed by two workers");
        }

        pub(super) fn merge(&self, i: usize) {
            let prev = self.merged.fetch_add(1, Relaxed);
            assert_eq!(prev, i, "race oracle: morsel {i} merged out of order (expected {prev})");
        }

        /// Success-path check: every morsel claimed exactly once and
        /// merged, and no worker still live.
        pub(super) fn finish(&self) {
            assert_eq!(
                self.active_workers.load(Acquire),
                0,
                "race oracle: a worker outlived its scope"
            );
            assert_eq!(
                self.merged.load(Relaxed),
                self.claims.len(),
                "race oracle: pipeline finished without merging every morsel"
            );
            for (i, claim) in self.claims.iter().enumerate() {
                assert_eq!(claim.load(Acquire), 1, "race oracle: morsel {i} never claimed");
            }
        }
    }
}

/// Release-build shim: the oracle vanishes entirely.
#[cfg(not(debug_assertions))]
mod oracle {
    pub(super) struct RaceOracle;

    impl RaceOracle {
        #[inline]
        pub(super) fn new(_morsels: usize) -> RaceOracle {
            RaceOracle
        }
        #[inline]
        pub(super) fn worker_enter(&self) {}
        #[inline]
        pub(super) fn worker_exit(&self) {}
        #[inline]
        pub(super) fn claim(&self, _i: usize) {}
        #[inline]
        pub(super) fn merge(&self, _i: usize) {}
        #[inline]
        pub(super) fn finish(&self) {}
    }
}

fn record_morsel(range: RowRange, started: Instant) {
    metric::EXEC_MORSEL_NS.record(started.elapsed().as_nanos() as u64);
    metric::EXEC_MORSEL_ROWS.record(range.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(degree: usize, morsel_rows: usize) -> ExecContext {
        ExecContext { degree, morsel_rows, ..ExecContext::serial() }
    }

    #[test]
    fn morsels_cover_exactly_once() {
        let ranges: Vec<RowRange> = morsels(10, 3).collect();
        assert_eq!(
            ranges,
            vec![
                RowRange { start: 0, end: 3 },
                RowRange { start: 3, end: 6 },
                RowRange { start: 6, end: 9 },
                RowRange { start: 9, end: 10 },
            ]
        );
        assert_eq!(morsels(0, 3).count(), 0);
        assert_eq!(morsels(3, 1024).count(), 1);
        // a zero target is clamped rather than looping forever
        assert_eq!(morsels(2, 0).count(), 2);
    }

    #[test]
    fn run_morsels_is_order_deterministic_at_every_degree() {
        let total = 1000;
        let expected: Vec<usize> = morsels(total, 7).map(|r| r.start).collect();
        for degree in [1, 2, 8] {
            let mut stats = ParStats::default();
            let out = run_morsels(&ctx(degree, 7), total, &mut stats, |r, _| Ok(r.start)).unwrap();
            assert_eq!(out, expected, "degree {degree}");
            assert!(stats.workers <= degree.max(1));
            assert_eq!(stats.morsels, expected.len());
        }
    }

    #[test]
    fn run_morsels_reports_lowest_failing_morsel() {
        for degree in [1, 4] {
            let mut stats = ParStats::default();
            let err = run_morsels(&ctx(degree, 10), 100, &mut stats, |r, _| {
                if r.start >= 30 {
                    Err(StoreError::new(format!("boom at {}", r.start)))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert!(err.to_string().ends_with("boom at 30"), "degree {degree}: {err}");
        }
    }

    #[test]
    fn worker_panic_becomes_a_typed_error_and_the_pipeline_stays_usable() {
        fsdm_fault::silence_failpoint_panics();
        for degree in [1, 4] {
            let c = ctx(degree, 10);
            let mut stats = ParStats::default();
            let err = run_morsels(&c, 100, &mut stats, |r, _| {
                if r.start == 50 {
                    panic!("failpoint `test` injected panic");
                }
                Ok(r.start)
            })
            .unwrap_err();
            assert_eq!(err.kind, ErrorKind::WorkerPanic { morsel: 5 }, "degree {degree}: {err}");
            assert!(err.message.contains("worker panicked at morsel 5"), "degree {degree}: {err}");
            // the peer-panic cancellation is transient: cleared, the same
            // context runs clean again
            c.governor.cancel_token().clear_transient();
            let expected: Vec<usize> = morsels(100, 10).map(|r| r.start).collect();
            let out = run_morsels(&c, 100, &mut stats, |r, _| Ok(r.start)).unwrap();
            assert_eq!(out, expected, "degree {degree}: rerun after panic");
        }
    }

    #[test]
    fn primary_error_outranks_racing_governance_echoes() {
        for degree in [1, 4] {
            let c = ctx(degree, 10);
            let mut stats = ParStats::default();
            let err = run_morsels(&c, 100, &mut stats, |r, _| {
                if r.start == 30 {
                    // fail and simultaneously cancel the statement: peers
                    // may echo the kill at lower morsel indices, but the
                    // primary failure must still win the election
                    c.governor.cancel_token().cancel(CancelReason::User);
                    return Err(StoreError::new("real failure at 30"));
                }
                Ok(())
            })
            .unwrap_err();
            assert_eq!(err.kind, ErrorKind::Generic, "degree {degree}: {err}");
            assert!(err.message.contains("real failure at 30"), "degree {degree}: {err}");
        }
    }

    #[test]
    fn cancelled_context_reports_a_typed_cancellation() {
        let c = ctx(4, 10);
        c.governor.cancel_token().cancel(CancelReason::User);
        let mut stats = ParStats::default();
        let err = run_morsels(&c, 100, &mut stats, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Cancelled(CancelReason::User));
        assert_eq!(err.message, "statement cancelled (user)");
    }

    // the leaf count only exists where it can panic
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "run_morsels entered under a leaf lock")]
    fn run_morsels_under_a_leaf_lock_panics() {
        let ring = std::sync::Mutex::new(());
        let _held = fsdm_obs::lock(&ring);
        let _ = run_morsels(&ctx(4, 10), 100, &mut ParStats::default(), |r, _| Ok(r.start));
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let mut stats = ParStats::default();
        let out = run_morsels(&ctx(8, 16), 0, &mut stats, |r, _| Ok(r.len())).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.morsels, 0);
    }

    // the oracle is compiled out in release builds, so its violation
    // tests only exist where it can actually panic
    #[cfg(debug_assertions)]
    mod oracle_violations {
        use super::super::oracle::RaceOracle;

        #[expect(clippy::disallowed_methods, reason = "a violation is a panic by design")]
        fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
            std::panic::catch_unwind(f).is_err()
        }

        #[test]
        fn a_clean_pipeline_passes() {
            let o = RaceOracle::new(3);
            o.worker_enter();
            o.claim(0);
            o.claim(1);
            o.claim(2);
            o.worker_exit();
            o.merge(0);
            o.merge(1);
            o.merge(2);
            o.finish();
        }

        #[test]
        fn double_claim_is_caught() {
            let o = RaceOracle::new(2);
            o.claim(0);
            assert!(panics(move || o.claim(0)));
        }

        #[test]
        fn out_of_order_merge_is_caught() {
            let o = RaceOracle::new(2);
            o.claim(0);
            o.claim(1);
            assert!(panics(move || o.merge(1)));
        }

        #[test]
        fn unclaimed_morsel_is_caught_at_finish() {
            let o = RaceOracle::new(2);
            o.claim(0);
            o.merge(0);
            o.merge(1);
            assert!(panics(move || o.finish()));
        }

        #[test]
        fn a_worker_that_never_exits_is_caught() {
            let o = RaceOracle::new(1);
            o.worker_enter();
            o.claim(0);
            o.merge(0);
            assert!(panics(move || o.finish()));
        }
    }
}
