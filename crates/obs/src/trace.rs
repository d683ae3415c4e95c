//! Structured tracing: span trees across threads, with Chrome-trace and
//! collapsed-stack (flamegraph) export.
//!
//! A span ([`SpanRecord`]) is one timed region of work — an executor
//! operator, a morsel, one SQL/JSON path evaluation — carrying a
//! catalog-declared name (a [`SpanName`]), a lane id for
//! the recording thread, its parent span, and monotonic start/end
//! nanoseconds. Spans are created through the RAII [`span`]/
//! [`span_args`]/[`span_with_parent`] entry points and recorded when
//! their [`SpanGuard`] drops.
//!
//! # Recording model
//!
//! Tracing is **off by default**. While off, every entry point is a
//! single relaxed atomic load — cheap enough to leave in the hottest
//! decode loops (the same contract as the metrics layer's disable flag,
//! asserted by `tests/disarmed_overhead.rs`). A [`TraceSession`] arms the
//! collector; spans then append to **per-thread buffers** (no lock on
//! the record path; buffers flush into the shared sink in chunks, on an
//! explicit [`flush_local`] — executor workers flush before they return,
//! since joining a thread does not order its TLS destructors — and as a
//! backstop on thread exit). A hard span cap bounds memory: once
//! the budget is spent, further spans are counted in
//! [`Trace::dropped`] instead of being recorded, so a hostile query can
//! not OOM the tracer.
//!
//! Sessions are process-global and serialized by a mutex: concurrent
//! [`TraceSession::begin`] calls queue up rather than interleave. Each
//! session bumps an epoch; records from a previous epoch that are still
//! sitting in a live thread's local buffer are discarded rather than
//! leaking into the next session's trace.
//!
//! # Exports
//!
//! * [`Trace::to_chrome_json`] — Chrome trace-event JSON (`ph: "X"`
//!   complete events, microsecond timestamps, one lane per recording
//!   thread). Loads directly in Perfetto / `chrome://tracing`.
//! * [`Trace::to_collapsed`] — collapsed-stack text (`frame;frame N`,
//!   exclusive nanoseconds), the input format of `flamegraph.pl`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU32, AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::catalog::{metric, SpanName};

/// Default maximum number of spans one session keeps (≈ 24 MB of
/// records). Beyond it spans are dropped and counted, never allocated.
pub const DEFAULT_SPAN_CAP: usize = 1 << 18;

/// Per-thread buffer size that triggers a flush into the shared sink.
const FLUSH_CHUNK: usize = 256;

/// The global tracing on/off gate. A handshake: sessions store
/// `Release`, span entry points load `Acquire`.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether a trace session is currently collecting. This is the one
/// relaxed load every disabled span entry point performs.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Acquire)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Session-unique span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root span.
    pub parent: u64,
    /// True when the parent was passed explicitly across threads
    /// (executor workers parent under the spawning pipeline span).
    pub explicit_parent: bool,
    /// Small dense lane id of the recording thread.
    pub tid: u32,
    /// Catalog span name.
    pub name: SpanName,
    /// Optional free-form annotation (operator label, look-back stats).
    pub args: Option<Box<str>>,
    /// Start offset in nanoseconds from the trace origin.
    pub start_ns: u64,
    /// End offset in nanoseconds from the trace origin.
    pub end_ns: u64,
}

/// The shared collector state behind all sessions. Only `epoch` orders
/// other memory; the rest are tallies and id dispensers, all `Relaxed`.
struct Collector {
    /// Session generation; stale thread-local records are discarded. A
    /// handshake: a session bumps it `AcqRel`, and a buffer flushes into
    /// the sink only after an `Acquire` load sees its own epoch.
    epoch: AtomicU64,
    /// Remaining span budget for the active session (goes negative once
    /// exhausted — the sign is the "dropped" signal).
    budget: AtomicI64,
    /// Spans dropped by the cap in the active session.
    dropped: AtomicU64,
    /// Next span id.
    next_id: AtomicU64,
    /// Next thread lane id.
    next_tid: AtomicU32,
    /// Flushed records of the active session (a leaf lock).
    sink: Mutex<Vec<SpanRecord>>,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        epoch: AtomicU64::new(0),
        budget: AtomicI64::new(0),
        dropped: AtomicU64::new(0),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU32::new(1),
        sink: Mutex::new(Vec::new()),
    })
}

/// The monotonic origin all span timestamps are measured from.
fn origin() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Per-thread recording state: the open-span stack and the local record
/// buffer. Flushes into the collector sink when full, on an explicit
/// [`flush_local`], and (backstop only) on thread exit.
struct LocalBuf {
    epoch: u64,
    tid: u32,
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        LocalBuf {
            epoch: 0,
            tid: collector().next_tid.fetch_add(1, Relaxed),
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Reset to the current epoch, discarding anything stale.
    fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.stack.clear();
            self.buf.clear();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let c = collector();
        if self.epoch == c.epoch.load(Acquire) {
            crate::lock(&c.sink).append(&mut self.buf);
        } else {
            self.buf.clear();
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// Flush this thread's buffered spans into the shared sink now.
///
/// Exiting worker threads must call this before returning: joining a
/// thread (including via `std::thread::scope`) only guarantees its
/// closure has finished — its thread-local destructors, where the
/// buffer would otherwise flush, are allowed to run *after* the join.
/// Without the explicit flush, a session could `finish` between the two
/// and lose the worker's spans.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| {
        if let Ok(mut l) = l.try_borrow_mut() {
            l.flush();
        }
    });
}

/// Live half of a [`SpanGuard`]: everything captured at span entry.
struct ActiveSpan {
    id: u64,
    parent: u64,
    explicit_parent: bool,
    epoch: u64,
    tid: u32,
    name: SpanName,
    args: Option<Box<str>>,
    start_ns: u64,
}

/// RAII guard for one span: records the span when dropped. Inert (and
/// close to free) when tracing is disabled or the session's span cap is
/// exhausted.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// The span id for cross-thread parenting, or 0 when inert.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }

    /// Whether this guard will record a span.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attach an annotation, computing it only when the span is live
    /// (disabled traces never pay for the `format!`).
    pub fn record_args<F: FnOnce() -> String>(&mut self, f: F) {
        if let Some(a) = self.0.as_mut() {
            a.args = Some(f().into_boxed_str());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let end_ns = now_ns();
        let record = SpanRecord {
            id: a.id,
            parent: a.parent,
            explicit_parent: a.explicit_parent,
            tid: a.tid,
            name: a.name,
            args: a.args,
            start_ns: a.start_ns,
            end_ns,
        };
        // a thread-local can be unavailable during thread teardown; a
        // span that late is simply not recorded
        let _ = LOCAL.try_with(|l| {
            if let Ok(mut l) = l.try_borrow_mut() {
                if l.epoch == a.epoch {
                    if l.stack.last() == Some(&a.id) {
                        l.stack.pop();
                    }
                    l.buf.push(record);
                    metric::TRACE_SPAN_RECORDED.inc();
                    if l.buf.len() >= FLUSH_CHUNK {
                        l.flush();
                    }
                }
            }
        });
    }
}

/// Open a span. The parent is the innermost open span on this thread.
///
/// ```
/// let _guard = fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_EXEC_OP);
/// ```
///
/// The name is a [`SpanName`], which only the catalog declares, so a
/// string literal does not compile:
///
/// ```compile_fail,E0308
/// let _guard = fsdm_obs::trace::span("exec.op");
/// ```
#[inline]
pub fn span(name: SpanName) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard(None);
    }
    enter(name, None)
}

/// Open a span annotated up front (the closure runs only when live).
#[inline]
pub fn span_args<F: FnOnce() -> String>(name: SpanName, args: F) -> SpanGuard {
    let mut g = span(name);
    g.record_args(args);
    g
}

/// Open a span whose parent is passed explicitly — used when work hops
/// threads (executor workers parent under the pipeline span that spawned
/// them). `parent` of 0 makes the span a root.
#[inline]
pub fn span_with_parent(name: SpanName, parent: u64) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard(None);
    }
    enter(name, Some(parent))
}

fn enter(name: SpanName, explicit_parent: Option<u64>) -> SpanGuard {
    let c = collector();
    if c.budget.fetch_sub(1, Relaxed) <= 0 {
        c.dropped.fetch_add(1, Relaxed);
        metric::TRACE_SPAN_DROPPED.inc();
        return SpanGuard(None);
    }
    let epoch = c.epoch.load(Acquire);
    let id = c.next_id.fetch_add(1, Relaxed);
    let active = LOCAL.try_with(|l| {
        let Ok(mut l) = l.try_borrow_mut() else { return None };
        l.sync_epoch(epoch);
        let parent = match explicit_parent {
            Some(p) => p,
            None => l.stack.last().copied().unwrap_or(0),
        };
        l.stack.push(id);
        Some(ActiveSpan {
            id,
            parent,
            explicit_parent: explicit_parent.is_some(),
            epoch,
            tid: l.tid,
            name,
            args: None,
            start_ns: now_ns(),
        })
    });
    match active {
        Ok(Some(a)) => SpanGuard(Some(a)),
        _ => SpanGuard(None),
    }
}

static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Take [`SESSION_LOCK`], recovering it if a session's holder panicked
/// (the lock guards no data).
#[expect(
    clippy::disallowed_methods,
    reason = "SESSION_LOCK is a serializer: held across a whole traced statement"
)]
fn serialize_sessions() -> MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An armed trace-collection window. Only one session runs at a time
/// (concurrent `begin` calls block); dropping the session without
/// [`TraceSession::finish`] disarms tracing and discards the records.
pub struct TraceSession {
    _serial: MutexGuard<'static, ()>,
    finished: bool,
}

impl TraceSession {
    /// Arm tracing with the default span cap.
    pub fn begin() -> TraceSession {
        TraceSession::with_capacity(DEFAULT_SPAN_CAP)
    }

    /// Arm tracing, keeping at most `cap` spans (further spans are
    /// dropped and counted).
    pub fn with_capacity(cap: usize) -> TraceSession {
        let serial = serialize_sessions();
        let c = collector();
        c.epoch.fetch_add(1, AcqRel);
        c.dropped.store(0, Relaxed);
        crate::lock(&c.sink).clear();
        c.budget.store(i64::try_from(cap.max(1)).unwrap_or(i64::MAX), Relaxed);
        TRACING.store(true, Release);
        TraceSession { _serial: serial, finished: false }
    }

    /// Disarm tracing and collect the trace: every recorded span, sorted
    /// by start time, with timestamps rebased so the earliest span starts
    /// at 0.
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        TRACING.store(false, Release);
        let c = collector();
        // flush this thread's buffer; scoped executor workers flushed
        // when they were joined
        let _ = LOCAL.try_with(|l| {
            if let Ok(mut l) = l.try_borrow_mut() {
                l.flush();
            }
        });
        let mut spans = std::mem::take(&mut *crate::lock(&c.sink));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let t0 = spans.first().map_or(0, |s| s.start_ns);
        for s in &mut spans {
            s.start_ns -= t0;
            s.end_ns = s.end_ns.saturating_sub(t0);
        }
        let dropped = c.dropped.load(Relaxed);
        let bytes: usize = spans
            .iter()
            .map(|s| std::mem::size_of::<SpanRecord>() + s.args.as_ref().map_or(0, |a| a.len()))
            .sum();
        metric::TRACE_SESSION_BYTES.set(bytes.min(i64::MAX as usize) as i64);
        Trace { spans, dropped }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            TRACING.store(false, Release);
            let c = collector();
            c.epoch.fetch_add(1, AcqRel);
            crate::lock(&c.sink).clear();
        }
    }
}

/// A finished trace: the span tree of one collection window.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Recorded spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Spans suppressed by the session's hard cap.
    pub dropped: u64,
}

impl Trace {
    /// Number of spans with the given catalog name.
    pub fn count(&self, name: SpanName) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Structural well-formedness check, the invariant the exporters and
    /// tests rely on:
    ///
    /// * every span is balanced (`end ≥ start`);
    /// * a recorded parent's interval encloses the child's;
    /// * implicit (same-thread-stack) parents are on the child's thread —
    ///   only explicit cross-thread parenting may change lanes.
    ///
    /// A parent id that was itself dropped by the cap is tolerated: the
    /// child simply renders as a root.
    pub fn validate(&self) -> Result<(), String> {
        let by_id: BTreeMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) is unbalanced: end < start", s.id, s.name));
            }
            if s.parent == s.id {
                return Err(format!("span {} ({}) is its own parent", s.id, s.name));
            }
            if let Some(p) = by_id.get(&s.parent) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
                    ));
                }
                if !s.explicit_parent && s.tid != p.tid {
                    return Err(format!(
                        "span {} ({}) on lane {} has implicit parent {} on lane {}",
                        s.id, s.name, s.tid, p.id, p.tid
                    ));
                }
            }
        }
        Ok(())
    }

    /// One-line summary for logs and slow-query entries:
    /// `spans=N dropped=D names[a=1,b=2,...]`.
    pub fn summary(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.name.name()).or_default() += 1;
        }
        let mut out = format!("spans={} dropped={} names[", self.spans.len(), self.dropped);
        for (i, (name, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{name}={n}");
        }
        out.push(']');
        out
    }

    /// Chrome trace-event JSON: `ph: "X"` complete events with
    /// microsecond timestamps, one `tid` lane per recording thread.
    /// Loads in Perfetto and `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"fsdm\",\"ph\":\"X\",\"ts\":{}.{:03},\
                 \"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
                json_escape(s.name.name()),
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.tid,
                s.id,
                s.parent
            );
            if let Some(args) = &s.args {
                let _ = write!(out, ",\"detail\":\"{}\"", json_escape(args));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Collapsed-stack text (the `flamegraph.pl` input format): one
    /// `frame;frame;frame value` line per distinct stack, where the value
    /// is the stack's **exclusive** time in nanoseconds (self time minus
    /// recorded children). Frames render as `name(args)` when annotated.
    pub fn to_collapsed(&self) -> String {
        let by_id: BTreeMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if by_id.contains_key(&s.parent) {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let mut frames = vec![frame_label(s)];
            let mut cursor = s;
            let mut depth = 0;
            while let Some(p) = by_id.get(&cursor.parent) {
                frames.push(frame_label(p));
                cursor = p;
                depth += 1;
                if depth > self.spans.len() {
                    break; // defensive: a malformed parent cycle
                }
            }
            frames.reverse();
            *stacks.entry(frames.join(";")).or_default() += own;
        }
        let mut out = String::new();
        for (stack, ns) in stacks {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }
}

fn frame_label(s: &SpanRecord) -> String {
    match &s.args {
        // semicolons and spaces are structural in the collapsed format
        Some(a) => format!("{}({})", s.name, a.replace([';', ' '], "_")),
        None => s.name.to_string(),
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn disabled_span_records_nothing_and_is_inert() {
        // holding the session lock guarantees no session is armed, so
        // this exercises the true disabled path even with other trace
        // tests running concurrently
        let serial = serialize_sessions();
        assert!(!tracing_enabled());
        {
            let mut g = span(catalog::SPAN_STORE_QUERY);
            assert!(!g.is_recording());
            assert_eq!(g.id(), 0);
            g.record_args(|| unreachable!("args must not be computed while disabled"));
        }
        drop(serial);
        let s = TraceSession::begin();
        let t = s.finish();
        assert!(t.spans.is_empty(), "disabled span leaked into the next session: {t:?}");
    }

    #[test]
    fn session_records_nested_spans() {
        let session = TraceSession::begin();
        {
            let mut root = span(catalog::SPAN_STORE_QUERY);
            root.record_args(|| "Q1".to_string());
            assert!(root.is_recording());
            let _child = span(catalog::SPAN_EXEC_OP);
            let _grandchild = span(catalog::SPAN_OSON_GET_FIELD);
        }
        let t = session.finish();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.dropped, 0);
        t.validate().unwrap();
        let root = t.spans.iter().find(|s| s.name == catalog::SPAN_STORE_QUERY).unwrap();
        let child = t.spans.iter().find(|s| s.name == catalog::SPAN_EXEC_OP).unwrap();
        let leaf = t.spans.iter().find(|s| s.name == catalog::SPAN_OSON_GET_FIELD).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(leaf.parent, child.id);
        assert_eq!(root.args.as_deref(), Some("Q1"));
        assert!(t.summary().contains("spans=3"), "{}", t.summary());
    }

    #[test]
    fn poisoned_sink_does_not_kill_tracing() {
        // poison the shared sink the only way it can happen: a panic
        // unwinding while the flush guard is held
        #[expect(clippy::disallowed_methods, reason = "poisoning the sink needs an unwind")]
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = collector().sink.lock().unwrap();
            panic!("unwind with the sink held");
        }));
        assert!(collector().sink.is_poisoned());
        let session = TraceSession::begin();
        {
            let _g = span(catalog::SPAN_STORE_QUERY);
        }
        let t = session.finish();
        assert_eq!(t.spans.len(), 1, "flush must recover the poisoned sink");
        t.validate().unwrap();
    }

    #[test]
    fn cap_drops_spans_instead_of_growing() {
        let session = TraceSession::with_capacity(4);
        for _ in 0..10 {
            let _g = span(catalog::SPAN_EXEC_MORSEL);
        }
        let t = session.finish();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.dropped, 6);
        t.validate().unwrap();
    }

    #[test]
    fn cross_thread_parenting_is_explicit() {
        let session = TraceSession::begin();
        {
            let pipeline = span(catalog::SPAN_EXEC_PIPELINE);
            let pid = pipeline.id();
            #[expect(clippy::disallowed_methods, reason = "a lane change is the subject")]
            std::thread::scope(|s| {
                s.spawn(|| {
                    let w = span_with_parent(catalog::SPAN_EXEC_WORKER, pid);
                    let m = span(catalog::SPAN_EXEC_MORSEL);
                    drop(m);
                    drop(w);
                    // Joining only orders the closure, not this thread's
                    // TLS destructors — flush before returning so the
                    // session can't finish without these spans.
                    flush_local();
                });
            });
        }
        let t = session.finish();
        t.validate().unwrap();
        assert_eq!(t.spans.len(), 3);
        let pipeline = t.spans.iter().find(|s| s.name == catalog::SPAN_EXEC_PIPELINE).unwrap();
        let worker = t.spans.iter().find(|s| s.name == catalog::SPAN_EXEC_WORKER).unwrap();
        let morsel = t.spans.iter().find(|s| s.name == catalog::SPAN_EXEC_MORSEL).unwrap();
        assert_eq!(worker.parent, pipeline.id);
        assert!(worker.explicit_parent);
        assert_ne!(worker.tid, pipeline.tid, "worker ran on its own lane");
        assert_eq!(morsel.parent, worker.id);
        assert_eq!(morsel.tid, worker.tid);
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let span_at = |id, parent, tid, start, end| SpanRecord {
            id,
            parent,
            explicit_parent: false,
            tid,
            name: catalog::SPAN_EXEC_OP,
            args: None,
            start_ns: start,
            end_ns: end,
        };
        let escape =
            Trace { spans: vec![span_at(1, 0, 1, 10, 20), span_at(2, 1, 1, 5, 15)], dropped: 0 };
        assert!(escape.validate().unwrap_err().contains("escapes parent"));
        let lanes =
            Trace { spans: vec![span_at(1, 0, 1, 0, 50), span_at(2, 1, 2, 10, 20)], dropped: 0 };
        assert!(lanes.validate().unwrap_err().contains("implicit parent"));
        let unbalanced = Trace { spans: vec![span_at(1, 0, 1, 20, 10)], dropped: 0 };
        assert!(unbalanced.validate().unwrap_err().contains("unbalanced"));
    }

    #[test]
    fn chrome_export_shape() {
        let session = TraceSession::begin();
        {
            let mut g = span(catalog::SPAN_STORE_QUERY);
            g.record_args(|| "Scan(\"po\")".to_string());
            let _inner = span(catalog::SPAN_EXEC_OP);
        }
        let t = session.finish();
        let j = t.to_chrome_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"traceEvents\":["), "{j}");
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"name\":\"store.query\""), "{j}");
        assert!(j.contains("Scan(\\\"po\\\")"), "escaped args: {j}");
    }

    #[test]
    fn collapsed_export_aggregates_stacks() {
        let session = TraceSession::begin();
        for _ in 0..3 {
            let _root = span(catalog::SPAN_STORE_QUERY);
            let _leaf = span(catalog::SPAN_EXEC_OP);
        }
        let t = session.finish();
        let c = t.to_collapsed();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 2, "two distinct stacks: {c}");
        assert!(lines.iter().any(|l| l.starts_with("store.query ")), "{c}");
        assert!(lines.iter().any(|l| l.starts_with("store.query;exec.op ")), "{c}");
        for line in lines {
            let (_, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<u64>().is_ok(), "collapsed value must be integer ns: {line}");
        }
    }
}
