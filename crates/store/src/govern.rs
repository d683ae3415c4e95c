//! Query governance: cooperative cancellation, statement deadlines, and
//! memory budgets, threaded through the executor as a [`QueryGovernor`].
//!
//! The governor is built fresh per statement by `Database::exec_context`
//! and shared (via `Arc`) by every morsel worker. Workers call
//! [`QueryGovernor::checkpoint`] at each morsel boundary and
//! [`QueryGovernor::check_rows`] every [`ROWS_PER_CHECK`] rows inside
//! fused columnar loops; memory-hungry operators call
//! [`QueryGovernor::charge`] as they materialize state. All three degrade
//! into a *typed* [`StoreError`] — a governance kill is an ordinary error
//! the caller can match on, never an abort.
//!
//! The cancel token is a single atomic word holding the packed
//! [`CancelReason`] (0 = live). It is a publish/consume handshake: the
//! first `cancel` wins via an `AcqRel` compare-exchange, and workers
//! observe it with `Acquire` loads. Deadlines deliberately do *not* write the token —
//! each checkpoint compares its own clock against the shared deadline, so
//! an expired statement can never leave a stale cancellation behind for
//! the session's next statement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsdm_obs::catalog::metric;

use crate::table::{CancelReason, ErrorKind, StoreError};

/// Rows a fused columnar loop may process between cancellation checks.
pub const ROWS_PER_CHECK: usize = 4096;

const LIVE: u64 = 0;

fn encode(reason: CancelReason) -> u64 {
    match reason {
        CancelReason::User => 1,
        CancelReason::Deadline => 2,
        CancelReason::Budget => 3,
        CancelReason::PeerPanic => 4,
    }
}

fn decode(word: u64) -> Option<CancelReason> {
    match word {
        1 => Some(CancelReason::User),
        2 => Some(CancelReason::Deadline),
        3 => Some(CancelReason::Budget),
        4 => Some(CancelReason::PeerPanic),
        _ => None,
    }
}

/// A shared, reusable cancellation flag. One token lives in the
/// `Database` for its whole lifetime; each statement resets it on entry
/// (sessions are `&mut` per statement, so no concurrent statement can
/// observe the reset).
#[derive(Debug, Default)]
pub struct CancelToken {
    /// Packed [`CancelReason`] (0 = live). Handshake discipline: a
    /// nonzero value published here gates how workers wind down.
    cancel_reason: AtomicU64,
}

impl CancelToken {
    /// A live (uncancelled) token.
    pub fn new() -> CancelToken {
        CancelToken { cancel_reason: AtomicU64::new(LIVE) }
    }

    /// The published cancel reason, if any.
    #[inline]
    pub fn check(&self) -> Option<CancelReason> {
        decode(self.cancel_reason.load(Ordering::Acquire))
    }

    /// Publish `reason`; the first cancel wins. Returns whether this call
    /// was the one that cancelled the token.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        let raced = self.cancel_reason.compare_exchange(
            LIVE,
            encode(reason),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        raced.is_ok()
    }

    /// Make the token live again (statement entry through `&mut Session`).
    pub fn reset(&self) {
        self.cancel_reason.store(LIVE, Ordering::Release);
    }

    /// Clear a leftover peer-panic cancellation only, preserving a
    /// pending user cancel. Used by `Database::exec_context` (`&self`
    /// path) where a full reset could swallow a concurrent user cancel.
    pub fn clear_transient(&self) {
        let peer = encode(CancelReason::PeerPanic);
        let _ =
            self.cancel_reason.compare_exchange(peer, LIVE, Ordering::AcqRel, Ordering::Acquire);
    }
}

/// Cross-thread cancellation handle for the session's current (and
/// future) statements; clone of the database's token.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    token: Arc<CancelToken>,
}

impl CancelHandle {
    /// Wrap a shared token.
    pub fn new(token: Arc<CancelToken>) -> CancelHandle {
        CancelHandle { token }
    }

    /// Request cancellation of the running statement. Returns whether
    /// this call was the first to cancel.
    pub fn cancel(&self) -> bool {
        self.token.cancel(CancelReason::User)
    }

    /// Whether a cancellation is currently published.
    pub fn is_cancelled(&self) -> bool {
        self.token.check().is_some()
    }
}

/// Per-statement memory accounting: `used` is what the statement holds
/// right now (operator state is charged and kept; a morsel's transient
/// columns are released with the morsel), `high` the most it ever held.
/// Both are plain tallies, `Relaxed`: the limit comparison needs no
/// ordering.
#[derive(Debug, Default)]
struct MemBudget {
    limit: Option<u64>,
    used: AtomicU64,
    high: AtomicU64,
}

/// The per-statement governance bundle shared by every worker: cancel
/// token, optional deadline, and optional memory budget.
#[derive(Debug)]
pub struct QueryGovernor {
    cancel: Arc<CancelToken>,
    deadline: Option<Instant>,
    timeout_ms: Option<u64>,
    budget: MemBudget,
}

impl QueryGovernor {
    /// A governor with no limits and a fresh private token — the default
    /// for contexts built outside a session (tests, benches).
    pub fn unlimited() -> QueryGovernor {
        QueryGovernor {
            cancel: Arc::new(CancelToken::new()),
            deadline: None,
            timeout_ms: None,
            budget: MemBudget::default(),
        }
    }

    /// A governor for one statement: shared token, deadline computed from
    /// `timeout_ms` at statement start, memory limit in bytes.
    pub fn for_statement(
        cancel: Arc<CancelToken>,
        timeout_ms: Option<u64>,
        mem_limit: Option<u64>,
    ) -> QueryGovernor {
        QueryGovernor {
            cancel,
            deadline: timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            timeout_ms,
            budget: MemBudget { limit: mem_limit, ..MemBudget::default() },
        }
    }

    /// The shared cancel token.
    pub fn cancel_token(&self) -> &Arc<CancelToken> {
        &self.cancel
    }

    /// Cooperative kill check: called at every morsel boundary. Maps a
    /// published cancellation or an expired deadline to its typed error.
    /// Messages carry no racy values, so which worker loses first cannot
    /// change the reported error.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        if let Some(reason) = self.cancel.check() {
            return Err(self.cancel_error(reason));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.deadline_error());
            }
        }
        Ok(())
    }

    /// Row-granular kill check for fused loops that process many rows per
    /// morsel: accumulates into `acc` and runs a [`checkpoint`] every
    /// [`ROWS_PER_CHECK`] rows.
    ///
    /// [`checkpoint`]: QueryGovernor::checkpoint
    #[inline]
    pub fn check_rows(&self, acc: &mut usize, rows: usize) -> Result<(), StoreError> {
        *acc += rows;
        if *acc < ROWS_PER_CHECK {
            return Ok(());
        }
        *acc = 0;
        self.checkpoint()
    }

    /// Charge `bytes` against the statement memory budget. Over-budget
    /// degrades into a typed [`ErrorKind::BudgetExceeded`] error; a failed
    /// charge is not rolled back (the high-water mark records what the
    /// statement tried to use).
    pub fn charge(&self, bytes: u64) -> Result<(), StoreError> {
        let total = self.budget.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.budget.high.fetch_max(total, Ordering::Relaxed);
        match self.budget.limit {
            Some(limit) if total > limit => Err(StoreError::with_kind(
                format!("memory budget exceeded (limit {limit} bytes)"),
                ErrorKind::BudgetExceeded,
            )),
            _ => Ok(()),
        }
    }

    /// Hand back `bytes` charged earlier for memory that is now freed
    /// (morsel-local buffers; operator state lives to the statement's end
    /// and is never released).
    pub fn release(&self, bytes: u64) {
        self.budget.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The most the statement held charged at once — its memory
    /// high-water mark.
    pub fn mem_highwater(&self) -> u64 {
        self.budget.high.load(Ordering::Relaxed)
    }

    /// The configured statement timeout, if any.
    pub fn timeout_ms(&self) -> Option<u64> {
        self.timeout_ms
    }

    fn deadline_error(&self) -> StoreError {
        StoreError::with_kind(
            format!(
                "statement deadline exceeded (timeout {} ms)",
                self.timeout_ms.unwrap_or_default()
            ),
            ErrorKind::DeadlineExceeded,
        )
    }

    fn cancel_error(&self, reason: CancelReason) -> StoreError {
        match reason {
            CancelReason::Deadline => self.deadline_error(),
            CancelReason::Budget => StoreError::with_kind(
                "memory budget exceeded".to_string(),
                ErrorKind::BudgetExceeded,
            ),
            _ => StoreError::with_kind(
                format!("statement cancelled ({})", reason.label()),
                ErrorKind::Cancelled(reason),
            ),
        }
    }
}

/// Convert an injected fault into an ordinary store error, counting the
/// injection. Call sites fire failpoints as
/// `fsdm_fault::fire(FP_X).map_err(fault_err)?`.
pub fn fault_err(e: fsdm_fault::FaultError) -> StoreError {
    metric::FAULT_INJECTED.inc();
    StoreError::new(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_first_cancel_wins_and_reset_revives() {
        let t = CancelToken::new();
        assert_eq!(t.check(), None);
        assert!(t.cancel(CancelReason::User));
        assert!(!t.cancel(CancelReason::Deadline), "second cancel must lose");
        assert_eq!(t.check(), Some(CancelReason::User));
        t.reset();
        assert_eq!(t.check(), None);
    }

    #[test]
    fn clear_transient_only_clears_peer_panic() {
        let t = CancelToken::new();
        t.cancel(CancelReason::PeerPanic);
        t.clear_transient();
        assert_eq!(t.check(), None);
        t.cancel(CancelReason::User);
        t.clear_transient();
        assert_eq!(t.check(), Some(CancelReason::User), "user cancel must survive");
    }

    #[test]
    fn checkpoint_maps_reasons_to_typed_errors() {
        let g = QueryGovernor::unlimited();
        assert!(g.checkpoint().is_ok());
        g.cancel_token().cancel(CancelReason::User);
        let err = g.checkpoint().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Cancelled(CancelReason::User));
        assert_eq!(err.message, "statement cancelled (user)");
    }

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let g = QueryGovernor::for_statement(Arc::new(CancelToken::new()), Some(0), None);
        let err = g.checkpoint().unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        assert_eq!(err.message, "statement deadline exceeded (timeout 0 ms)");
    }

    #[test]
    fn budget_charges_accumulate_into_a_typed_error() {
        let g = QueryGovernor::for_statement(Arc::new(CancelToken::new()), None, Some(100));
        assert!(g.charge(60).is_ok());
        let err = g.charge(60).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BudgetExceeded);
        assert_eq!(err.message, "memory budget exceeded (limit 100 bytes)");
        assert_eq!(g.mem_highwater(), 120, "high-water records the attempted usage");
    }

    #[test]
    fn released_bytes_are_chargeable_again_and_leave_the_high_water_mark() {
        let g = QueryGovernor::for_statement(Arc::new(CancelToken::new()), None, Some(100));
        for _ in 0..10 {
            g.charge(80).expect("live memory never exceeds 80 bytes");
            g.release(80);
        }
        assert_eq!(g.mem_highwater(), 80);
        g.charge(80).unwrap();
        assert_eq!(g.charge(80).unwrap_err().kind, ErrorKind::BudgetExceeded);
    }

    #[test]
    fn check_rows_only_checkpoints_at_the_interval() {
        let g = QueryGovernor::unlimited();
        g.cancel_token().cancel(CancelReason::User);
        let mut acc = 0;
        assert!(g.check_rows(&mut acc, ROWS_PER_CHECK - 1).is_ok(), "below interval: no check");
        assert!(g.check_rows(&mut acc, 1).is_err(), "interval reached: cancellation observed");
        assert_eq!(acc, 0, "accumulator resets after a checkpoint");
    }
}
