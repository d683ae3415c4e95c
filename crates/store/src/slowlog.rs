//! Slow-query ring log: a fixed-size ring of the most recent queries
//! whose wall time crossed a configurable threshold.
//!
//! The log is owned by [`crate::Database`] and disarmed by default — an
//! unarmed log costs one relaxed atomic load per query. When armed (see
//! [`crate::Database::set_slow_log`]), every statement offers itself at
//! the one statement exit of [`crate::Database::run`], and entries over
//! the threshold are pushed into the ring: SQL text (when the caller
//! passed it), the statement's report ([`QueryProfile`]), and the trace
//! summary when the statement ran traced. The ring holds the last `cap`
//! entries; older ones are evicted and counted (`slowlog.evicted`). Dump
//! the ring as JSON with [`crate::Database::slow_log_json`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use fsdm_json::ser::write_escaped;
use fsdm_obs::catalog::metric;

use crate::profile::QueryProfile;

/// One slow query captured by the ring.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Monotonic capture sequence number (survives eviction, so dumps
    /// show how many slow queries came before the ring's window).
    pub seq: u64,
    /// SQL text, or a plan label when the query bypassed the SQL layer.
    pub source: String,
    /// End-to-end wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// Parallel degree the query ran with.
    pub threads: usize,
    /// The statement's report (without its span tree); `None` for a
    /// killed statement.
    pub profile: Option<QueryProfile>,
    /// Trace summary (`spans=… dropped=… names[…]`), when the query ran
    /// traced.
    pub trace_summary: Option<String>,
    /// Governance kill reason (`"user"`, `"deadline"`, `"budget"`) when
    /// the query was cancelled rather than finishing; `None` for queries
    /// that ran to completion.
    pub cancel_reason: Option<&'static str>,
}

#[derive(Debug, Default)]
struct Ring {
    cap: usize,
    next_seq: u64,
    entries: Vec<SlowEntry>,
}

/// The ring log itself. Uses a `Mutex` for the ring (armed-path only);
/// the armed/threshold check on the query hot path is a single relaxed
/// atomic load.
#[derive(Debug, Default)]
pub struct SlowLog {
    /// Threshold in nanoseconds; 0 means disarmed. `Relaxed`: the ring it
    /// gates is mutex-protected, so the load needs no ordering.
    threshold_ns: AtomicU64,
    /// A leaf lock ([`fsdm_obs::lock`]): no metric is bumped under it.
    ring: Mutex<Ring>,
}

impl SlowLog {
    /// Disarmed log.
    pub fn new() -> SlowLog {
        SlowLog::default()
    }

    /// Arm with a threshold (`0` captures every query) and ring capacity,
    /// clearing any previous contents. A capacity of 0 disarms.
    pub fn arm(&self, threshold_ns: u64, cap: usize) {
        self.with_ring(|ring| {
            ring.cap = cap;
            ring.entries.clear();
            ring.next_seq = 0;
            // threshold 0 must still arm, so the flag value is threshold+1
            let flag = if cap == 0 { 0 } else { threshold_ns.saturating_add(1) };
            self.threshold_ns.store(flag, Relaxed);
        });
        metric::SLOWLOG_ENTRIES.set(0);
    }

    /// Disarm and clear.
    pub fn disarm(&self) {
        self.arm(0, 0);
    }

    /// Whether queries should be measured against the log at all — the
    /// one check on the un-armed hot path.
    #[inline]
    pub fn armed(&self) -> bool {
        self.threshold_ns.load(Relaxed) != 0
    }

    /// The armed threshold in nanoseconds, if armed.
    pub fn threshold_ns(&self) -> Option<u64> {
        match self.threshold_ns.load(Relaxed) {
            0 => None,
            t => Some(t - 1),
        }
    }

    /// Record a finished query; a no-op unless armed and `elapsed_ns`
    /// reaches the threshold.
    pub fn record(
        &self,
        source: &str,
        elapsed_ns: u64,
        threads: usize,
        profile: Option<&QueryProfile>,
        trace_summary: Option<String>,
    ) {
        let Some(threshold) = self.threshold_ns() else { return };
        if elapsed_ns < threshold {
            return;
        }
        self.push(source, elapsed_ns, threads, profile, trace_summary, None);
    }

    /// Record a governance-killed query with its cancel reason. Killed
    /// queries bypass the threshold: a statement that died to a deadline
    /// or budget is interesting regardless of how long it ran.
    pub fn record_killed(
        &self,
        source: &str,
        elapsed_ns: u64,
        threads: usize,
        reason: &'static str,
    ) {
        if !self.armed() {
            return;
        }
        self.push(source, elapsed_ns, threads, None, None, Some(reason));
    }

    fn push(
        &self,
        source: &str,
        elapsed_ns: u64,
        threads: usize,
        profile: Option<&QueryProfile>,
        trace_summary: Option<String>,
        cancel_reason: Option<&'static str>,
    ) {
        let pushed = self.with_ring(|ring| {
            if ring.cap == 0 {
                return None;
            }
            let seq = ring.next_seq;
            ring.next_seq += 1;
            let evicted = ring.entries.len() == ring.cap;
            if evicted {
                ring.entries.remove(0);
            }
            ring.entries.push(SlowEntry {
                seq,
                source: source.to_string(),
                elapsed_ns,
                threads,
                profile: profile.cloned(),
                trace_summary,
                cancel_reason,
            });
            Some((evicted, ring.entries.len()))
        });
        let Some((evicted, len)) = pushed else { return };
        if evicted {
            metric::SLOWLOG_EVICTED.inc();
        }
        metric::SLOWLOG_ENTRIES.set(len as i64);
    }

    /// Snapshot of the ring's current entries, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.with_ring(|ring| ring.entries.clone())
    }

    /// Dump the ring as a JSON document:
    /// `{"threshold_ns":…,"captured":…,"entries":[…]}` where `captured`
    /// counts every recorded entry including evicted ones.
    pub fn to_json(&self) -> String {
        let threshold = self.threshold_ns();
        self.with_ring(|ring| ring_json(ring, threshold))
    }

    /// Run `f` on the ring under its lock. A query that panicked
    /// mid-record leaves at worst a consistent-but-stale ring (every write
    /// touches one entry at a time), and losing the slow log would be a
    /// poor trade for one panicked query, so a poisoned ring is used as
    /// is. Such recoveries are counted (`slowlog.poisoned`) once the
    /// guard is released, so an unstable workload is visible in the
    /// metrics.
    fn with_ring<R>(&self, f: impl FnOnce(&mut Ring) -> R) -> R {
        let poisoned = self.ring.is_poisoned();
        let out = f(&mut fsdm_obs::lock(&self.ring));
        if poisoned {
            metric::SLOWLOG_POISONED.inc();
        }
        out
    }
}

/// The ring as the JSON document [`SlowLog::to_json`] returns.
fn ring_json(ring: &Ring, threshold: Option<u64>) -> String {
    let mut out = String::from("{\"threshold_ns\":");
    match threshold {
        Some(t) => {
            let _ = write!(out, "{t}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"captured\":{},\"entries\":[", ring.next_seq);
    for (i, e) in ring.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{},\"source\":", e.seq);
        write_escaped(&e.source, &mut out);
        let _ = write!(out, ",\"elapsed_ns\":{},\"threads\":{}", e.elapsed_ns, e.threads);
        match &e.profile {
            Some(p) => {
                let _ = write!(out, ",\"profile\":{}", p.to_json());
            }
            None => out.push_str(",\"profile\":null"),
        }
        match &e.trace_summary {
            Some(t) => {
                out.push_str(",\"trace\":");
                write_escaped(t, &mut out);
            }
            None => out.push_str(",\"trace\":null"),
        }
        match e.cancel_reason {
            Some(r) => {
                let _ = write!(out, ",\"cancel_reason\":\"{r}\"");
            }
            None => out.push_str(",\"cancel_reason\":null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_log_records_nothing() {
        let log = SlowLog::new();
        assert!(!log.armed());
        log.record("SELECT 1", 1_000_000, 1, None, None);
        assert!(log.entries().is_empty());
    }

    #[test]
    fn threshold_filters_and_ring_evicts() {
        let log = SlowLog::new();
        log.arm(1000, 2);
        assert_eq!(log.threshold_ns(), Some(1000));
        log.record("fast", 999, 1, None, None);
        log.record("slow1", 1000, 1, None, None);
        log.record("slow2", 5000, 2, None, Some("spans=3 dropped=0 names[a=3]".into()));
        log.record("slow3", 9000, 4, None, None);
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "ring holds the last two");
        assert_eq!(entries[0].source, "slow2");
        assert_eq!(entries[1].source, "slow3");
        assert_eq!(entries[1].seq, 2, "seq counts all captured entries");
        let json = log.to_json();
        assert!(json.contains("\"captured\":3"), "{json}");
        assert!(json.contains("\"source\":\"slow3\""), "{json}");
        assert!(json.contains("\"trace\":null"), "{json}");
    }

    #[test]
    fn poisoned_ring_is_recovered_and_counted() {
        let log = SlowLog::new();
        log.arm(0, 4);
        log.record("before", 1, 1, None, None);
        let before = metric::SLOWLOG_POISONED.get();
        // poison the ring the only way it can happen: a panic unwinding
        // while the guard is held
        #[expect(clippy::disallowed_methods, reason = "poisoning the ring needs an unwind")]
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = log.ring.lock().unwrap();
            panic!("unwind with the ring held");
        }));
        assert!(log.ring.is_poisoned());
        log.record("after", 1, 1, None, None);
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "the ring keeps working after poisoning");
        assert_eq!(entries[1].source, "after");
        assert!(metric::SLOWLOG_POISONED.get() > before, "recoveries must be counted");
    }

    #[test]
    fn killed_queries_bypass_the_threshold_and_carry_their_reason() {
        let log = SlowLog::new();
        log.arm(1_000_000, 4);
        log.record_killed("SELECT sleep", 5, 4, "deadline");
        let entries = log.entries();
        assert_eq!(entries.len(), 1, "killed entries skip the threshold filter");
        assert_eq!(entries[0].cancel_reason, Some("deadline"));
        let json = log.to_json();
        assert!(json.contains("\"cancel_reason\":\"deadline\""), "{json}");
        log.record("slow", 2_000_000, 1, None, None);
        assert_eq!(log.entries()[1].cancel_reason, None);
        assert!(log.to_json().contains("\"cancel_reason\":null"));
        log.disarm();
        log.record_killed("after disarm", 5, 1, "user");
        assert!(log.entries().is_empty(), "disarmed log ignores kills too");
    }

    #[test]
    fn threshold_zero_captures_everything_when_armed() {
        let log = SlowLog::new();
        log.arm(0, 4);
        assert!(log.armed());
        assert_eq!(log.threshold_ns(), Some(0));
        log.record("q", 1, 1, None, None);
        assert_eq!(log.entries().len(), 1);
        log.disarm();
        assert!(!log.armed());
        assert!(log.entries().is_empty());
    }
}
