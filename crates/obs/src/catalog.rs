//! Central catalog of every metric and span name recorded through
//! `fsdm-obs`, and the registry of the metrics themselves.
//!
//! Each name lives here exactly once, in the one `catalog!` list below,
//! with its kind: `counter`, `gauge`, `histogram` or `span`. For a metric
//! the list declares the `&str` constant of its name and, under the same
//! name in [`metric`], the one cell a recording site names:
//!
//! ```
//! use fsdm_obs::catalog::{self, metric};
//! metric::OSON_DICT_PROBES.inc();
//! assert!(fsdm_obs::snapshot().counter(catalog::OSON_DICT_PROBES) >= 1);
//! ```
//!
//! A name the catalog does not declare does not compile:
//!
//! ```compile_fail,E0425
//! fsdm_obs::catalog::metric::OSON_DICT_PROBE.inc();
//! ```
//!
//! nor does a declared counter recorded as a histogram:
//!
//! ```compile_fail,E0599
//! fsdm_obs::catalog::metric::OSON_DICT_PROBES.record(3);
//! ```
//!
//! A gauge's or histogram's cell is a `static` of atomics. A counter's
//! cell is a `const` slot: its rank among the list's counters, which each
//! recording site compiles in. An `inc` or `add` is a plain add into the
//! calling thread's buffer at that slot; [`crate::publish`] moves a thread's buffer into the process
//! totals, and into a statement's [`crate::Tally`], with one atomic add
//! per counter the thread moved. [`snapshot`] and `Counter::get` publish
//! the reader's own thread first, so a thread always reads its own
//! counts, and another thread's once that thread has published.
//!
//! A span constant is a [`SpanName`], which only this module constructs,
//! so the catalog is the complete, documented inventory of what the stack
//! can emit, and [`crate::snapshot`] reads every metric in it. Entries are
//! in ascending order of name, whose uniqueness and order the unit tests
//! below assert.
//!
//! Naming convention: `<crate>.<subsystem>.<name>`.

use std::fmt;

use crate::MetricsSnapshot;

/// A declared span name: the one argument type of the
/// [`crate::trace`] entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(&'static str);

impl SpanName {
    /// The dotted name, as traces and exports spell it.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Declares, from one list, each name constant, each metric's cell in
/// [`metric`], [`ALL`] and the catalog's [`snapshot`]. A counter's cell
/// is its slot: its rank among the list's counters ([`slot_of`]).
macro_rules! catalog {
    (@const $(#[$doc:meta])* span $name:ident $value:literal) => {
        $(#[$doc])* pub const $name: SpanName = SpanName($value);
    };
    (@const $(#[$doc:meta])* $kind:ident $name:ident $value:literal) => {
        $(#[$doc])* pub const $name: &str = $value;
    };
    (@cell $(#[$doc:meta])* span $name:ident $value:literal) => {};
    (@cell $(#[$doc:meta])* counter $name:ident $value:literal) => {
        $(#[$doc])* pub const $name: Counter = Counter::new(super::slot_of($value));
    };
    (@cell $(#[$doc:meta])* gauge $name:ident $value:literal) => {
        $(#[$doc])* pub static $name: Gauge = Gauge::new();
    };
    (@cell $(#[$doc:meta])* histogram $name:ident $value:literal) => {
        $(#[$doc])* pub static $name: Histogram = Histogram::new();
    };
    (@read $s:ident span $name:ident $value:literal) => {};
    (@read $s:ident counter $name:ident $value:literal) => {
        $s.counters.insert($value, metric::$name.published());
    };
    (@read $s:ident gauge $name:ident $value:literal) => {
        $s.gauges.insert($value, metric::$name.get());
    };
    (@read $s:ident histogram $name:ident $value:literal) => {
        $s.histograms.insert($value, metric::$name.snapshot());
    };
    ($($(#[$doc:meta])* $kind:ident $name:ident = $value:literal;)*) => {
        $(catalog!(@const $(#[$doc])* $kind $name $value);)*

        /// The cell of every declared metric, named as its name constant.
        pub mod metric {
            use crate::{Counter, Gauge, Histogram};

            $(catalog!(@cell $(#[$doc])* $kind $name $value);)*
        }

        /// Every name in the catalog with its declared kind (`counter`,
        /// `gauge`, `histogram` or `span`), in declaration (= sorted)
        /// order.
        pub const ALL: &[(&str, &str)] = &[$(($value, stringify!($kind)),)*];

        /// Every declared metric's current value, under its kind: the
        /// published counter totals, after publishing this thread's own
        /// counts (see [`crate::publish`]).
        pub fn snapshot() -> MetricsSnapshot {
            crate::publish(None);
            let mut s = MetricsSnapshot::default();
            $(catalog!(@read s $kind $name $value);)*
            s
        }
    };
}

/// Whether two strings are equal, in a const context.
const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Whether catalog entry `i` is a counter.
const fn is_counter(i: usize) -> bool {
    same(ALL[i].1, "counter")
}

/// The slot of counter `name`: how many counters precede it in [`ALL`].
const fn slot_of(name: &str) -> usize {
    let (mut i, mut slot) = (0, 0);
    while !same(ALL[i].0, name) {
        slot += is_counter(i) as usize;
        i += 1;
    }
    slot
}

/// Number of counters the catalog declares: the length of each thread's
/// buffer, of the totals and of a [`crate::Tally`].
pub(crate) const COUNTERS: usize = {
    let (mut i, mut n) = (0, 0);
    while i < ALL.len() {
        n += is_counter(i) as usize;
        i += 1;
    }
    n
};

/// Each counter's name, by slot: the counters of [`ALL`], in its order.
pub(crate) const COUNTER_NAMES: [&str; COUNTERS] = {
    let mut names = [""; COUNTERS];
    let (mut i, mut slot) = (0, 0);
    while i < ALL.len() {
        if is_counter(i) {
            names[slot] = ALL[i].0;
            slot += 1;
        }
        i += 1;
    }
    names
};

catalog! {
    // --- analyze ------------------------------------------------------------

    /// Error-severity diagnostics emitted by the semantic analyzer.
    counter ANALYZE_DIAG_ERRORS = "analyze.diag.errors";
    /// Info-severity diagnostics emitted by the semantic analyzer.
    counter ANALYZE_DIAG_INFOS = "analyze.diag.infos";
    /// Warning-severity diagnostics emitted by the semantic analyzer.
    counter ANALYZE_DIAG_WARNINGS = "analyze.diag.warnings";
    /// SQL/JSON paths checked against a DataGuide.
    counter ANALYZE_PATHS_CHECKED = "analyze.paths.checked";
    /// Scans rewritten to empty because a JSON predicate is provably dead.
    counter ANALYZE_PRUNE_DEAD_PREDICATES = "analyze.prune.dead_predicates";

    // --- dataguide ----------------------------------------------------------

    /// Inserts that changed the DataGuide.
    counter DATAGUIDE_INSERT_CHANGED = "dataguide.insert.changed";
    /// Inserts fully covered by the existing DataGuide.
    counter DATAGUIDE_INSERT_UNCHANGED = "dataguide.insert.unchanged";
    /// Distinct paths currently known to the DataGuide.
    gauge DATAGUIDE_PATHS = "dataguide.paths";

    // --- exec ---------------------------------------------------------------

    /// Per-batch columnar pipeline time in nanoseconds — kernel evaluation plus
    /// late materialization of the selected rows.
    histogram EXEC_BATCH_NS = "exec.batch.ns";
    /// Rows selected by each columnar batch after kernel filtering — the
    /// observed selectivity, against [`EXEC_MORSEL_ROWS`] as denominator.
    histogram EXEC_BATCH_ROWS = "exec.batch.rows";
    /// Parallel degree the executor resolved for the last query.
    gauge EXEC_DEGREE = "exec.degree.configured";
    /// Rows rebuilt from vectors/heap at a columnar pipeline breaker — the
    /// late-materialization volume.
    counter EXEC_LATE_MATERIALIZE_ROWS = "exec.late_materialize.rows";
    /// High-water mark of bytes charged against the last statement's memory
    /// budget.
    gauge EXEC_MEM_HIGHWATER = "exec.mem.highwater";
    /// One morsel executed by a pipeline worker.
    span SPAN_EXEC_MORSEL = "exec.morsel";
    /// Morsels dispatched across all parallel pipelines.
    counter EXEC_MORSEL_COUNT = "exec.morsel.count";
    /// Per-morsel execution time in nanoseconds.
    histogram EXEC_MORSEL_NS = "exec.morsel.ns";
    /// Rows covered by each dispatched morsel.
    histogram EXEC_MORSEL_ROWS = "exec.morsel.rows";
    /// One executor operator evaluation; args carry the operator label.
    span SPAN_EXEC_OP = "exec.op";
    /// One morsel-parallel pipeline: the fork/join region of `run_morsels`.
    span SPAN_EXEC_PIPELINE = "exec.pipeline";
    /// Transient columns extracted by fused scans, one per column per morsel
    /// that needed it.
    counter EXEC_TRANSIENT_COLS = "exec.transient.cols";
    /// Row slots filled by transient-column extraction: extracted columns times
    /// the rows still selected when they were needed.
    counter EXEC_TRANSIENT_ROWS = "exec.transient.rows";
    /// One worker thread's lifetime within a parallel pipeline; parented
    /// explicitly under the spawning pipeline span.
    span SPAN_EXEC_WORKER = "exec.worker";
    /// Per-worker busy time in nanoseconds across a parallel pipeline.
    histogram EXEC_WORKER_BUSY_NS = "exec.worker.busy_ns";

    // --- fault --------------------------------------------------------------

    /// Armed failpoints that actually injected a fault into the executor.
    counter FAULT_INJECTED = "fault.injected";

    // --- govern -------------------------------------------------------------

    /// Statements killed by the memory budget.
    counter GOVERN_BUDGET_EXCEEDED = "govern.budget_exceeded";
    /// Statements killed by an explicit user cancellation.
    counter GOVERN_CANCELLED = "govern.cancelled";
    /// Statements killed by the statement timeout.
    counter GOVERN_DEADLINE_EXCEEDED = "govern.deadline_exceeded";
    /// Worker panics caught and isolated by the parallel executor.
    counter GOVERN_WORKER_PANIC = "govern.worker_panic";

    // --- imc ----------------------------------------------------------------

    /// Per-batch predicate-kernel evaluation time over IMC column vectors in
    /// nanoseconds.
    histogram IMC_KERNEL_NS = "imc.kernel.ns";
    /// OSON-IMC members a path group answered without opening them: the
    /// member lacks a field-step name of every path of the group (one add
    /// per extraction of a morsel).
    counter IMC_OSON_MEMBERS_SKIPPED = "imc.oson.members_skipped";
    /// Per-stage transient-column extraction time in nanoseconds: opening the
    /// selected rows' documents and running the stage's paths.
    histogram IMC_TRANSIENT_EXTRACT_NS = "imc.transient.extract.ns";

    // --- index --------------------------------------------------------------

    /// Payload bytes of the search index last built in bulk: paths, term
    /// dictionaries and postings. Set by `create_search_index` only: puts into
    /// an indexed collection do not refresh it — read
    /// `SearchIndex::size_bytes()` for a live figure.
    gauge INDEX_BYTES = "index.bytes";
    /// Documents added to the inverted index.
    counter INDEX_INSERT_DOCS = "index.insert.docs";
    /// One inverted-index probe; args carry the probe kind.
    span SPAN_INDEX_LOOKUP = "index.lookup";
    /// Path-existence index probes.
    counter INDEX_LOOKUP_PATH = "index.lookup.path";
    /// Exact typed (path, scalar) index probes.
    counter INDEX_LOOKUP_SCALAR = "index.lookup.scalar";
    /// Full-text keyword probes.
    counter INDEX_LOOKUP_TEXT = "index.lookup.text";
    /// (path, value) index probes.
    counter INDEX_LOOKUP_VALUE = "index.lookup.value";
    /// Postings appended across all insertions.
    counter INDEX_POSTINGS_ADDED = "index.postings.added";

    // --- ingest -------------------------------------------------------------

    /// OSON/BSON encoding of one validated document in `Table::insert`.
    span SPAN_INGEST_ENCODE = "ingest.encode";
    /// Structure signature plus the table's `$DG` maintenance in
    /// `Table::insert`.
    span SPAN_INGEST_GUIDE = "ingest.guide";
    /// IS JSON validation — the parse — of one document in `Table::insert`.
    span SPAN_INGEST_PARSE = "ingest.parse";
    /// Search-index maintenance (the posting walk and the index's `$DG`) in
    /// `Table::insert`.
    span SPAN_INGEST_POSTINGS = "ingest.postings";

    // --- oson ---------------------------------------------------------------

    /// One full OSON document decode: validate + materialize.
    span SPAN_OSON_DECODE = "oson.decode";
    /// Documents fully decoded from OSON bytes.
    counter OSON_DECODE_DOCS = "oson.decode.docs";
    /// Field-name → field-id dictionary resolutions.
    counter OSON_DICT_LOOKUPS = "oson.dict.lookups";
    /// Binary-search probes spent resolving field ids.
    counter OSON_DICT_PROBES = "oson.dict.probes";
    /// Encoded document size in bytes.
    histogram OSON_ENCODE_BYTES = "oson.encode.bytes";
    /// Documents encoded to OSON bytes.
    counter OSON_ENCODE_DOCS = "oson.encode.docs";
    /// One navigational field lookup on an OSON tree node.
    span SPAN_OSON_GET_FIELD = "oson.get_field";
    /// Object-child lookups by field id.
    counter OSON_NODE_LOOKUPS = "oson.node.lookups";
    /// Binary-search probes spent in object-child lookups.
    counter OSON_NODE_PROBES = "oson.node.probes";
    /// Bytes written to the field-id-name dictionary segment.
    counter OSON_SEGMENT_DICTIONARY_BYTES = "oson.segment.dictionary_bytes";
    /// Bytes written to the tree-node navigation segment.
    counter OSON_SEGMENT_TREE_BYTES = "oson.segment.tree_bytes";
    /// Bytes written to the leaf-scalar-value segment.
    counter OSON_SEGMENT_VALUES_BYTES = "oson.segment.values_bytes";
    /// Partial updates applied in place.
    counter OSON_UPDATE_IN_PLACE = "oson.update.in_place";
    /// Partial updates that required a document re-encode.
    counter OSON_UPDATE_REENCODE = "oson.update.reencode";
    /// Buffers rejected by the deep structural verifier.
    counter OSON_VALIDATE_FAILURES = "oson.validate.failures";

    // --- planck -------------------------------------------------------------

    /// Plans put through the planck type/schema checker.
    counter PLANCK_CHECKS = "planck.checks";
    /// Error-severity planck findings.
    counter PLANCK_ERRORS = "planck.errors";
    /// Wall time of one plan inference + validation pass, ns.
    histogram PLANCK_INFER_NS = "planck.infer.ns";
    /// Warning-severity planck findings.
    counter PLANCK_WARNINGS = "planck.warnings";

    // --- slowlog ------------------------------------------------------------

    /// Queries currently held by the slow-query ring log.
    gauge SLOWLOG_ENTRIES = "slowlog.entries";
    /// Slow-log entries evicted by the ring's fixed capacity.
    counter SLOWLOG_EVICTED = "slowlog.evicted";
    /// Poisoned slow-log ring guards recovered after a panicking query.
    counter SLOWLOG_POISONED = "slowlog.poisoned";

    // --- sqljson ------------------------------------------------------------

    /// One SQL/JSON path evaluation; args carry look-back hit/miss deltas.
    span SPAN_SQLJSON_EVAL = "sqljson.eval";
    /// Context nodes visited across all path steps.
    counter SQLJSON_EVAL_NODES_VISITED = "sqljson.eval.nodes_visited";
    /// Path evaluations started.
    counter SQLJSON_EVAL_PATHS = "sqljson.eval.paths";
    /// Field resolutions where the name was absent from the dictionary.
    counter SQLJSON_LOOKBACK_ABSENT = "sqljson.lookback.absent";
    /// Field resolutions served from the look-back cache.
    counter SQLJSON_LOOKBACK_HIT = "sqljson.lookback.hit";
    /// Field resolutions that consulted the instance dictionary.
    counter SQLJSON_LOOKBACK_MISS = "sqljson.lookback.miss";
    /// Paths a text pass over checked text settled as "no match" without
    /// scanning, a field name of theirs being absent from the text.
    counter SQLJSON_TEXT_ABSENT = "sqljson.text.absent";

    // --- store --------------------------------------------------------------

    /// Whole-statement wall time of a completed statement in nanoseconds,
    /// optimize included, from the plan's arrival to the statement exit.
    histogram STORE_EXEC_NS = "store.exec.ns";
    /// Statements completed.
    counter STORE_EXEC_QUERIES = "store.exec.queries";
    /// Inserts that took the unchanged-DataGuide fast path.
    counter STORE_INSERT_GUIDE_FAST_PATH = "store.insert.guide_fast_path";
    /// One end-to-end query execution: the root span of a query's trace; args
    /// carry the SQL text or plan label.
    span SPAN_STORE_QUERY = "store.query";

    // --- trace --------------------------------------------------------------

    /// Bytes retained by the spans of the last finished trace session.
    gauge TRACE_SESSION_BYTES = "trace.session.bytes";
    /// Spans suppressed by a trace session's hard cap.
    counter TRACE_SPAN_DROPPED = "trace.span.dropped";
    /// Spans recorded into trace sessions.
    counter TRACE_SPAN_RECORDED = "trace.span.recorded";
}

#[cfg(test)]
mod tests {
    use super::{metric, ALL};

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in ALL {
            assert!(seen.insert(*name), "duplicate catalog entry {name}");
        }
    }

    #[test]
    fn names_are_sorted() {
        for pair in ALL.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} must sort before {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn names_follow_the_dotted_convention() {
        for (name, _) in ALL {
            let parts: Vec<&str> = name.split('.').collect();
            assert!(parts.len() >= 2, "{name} must be at least <crate>.<name>");
            for p in &parts {
                assert!(!p.is_empty(), "{name} has an empty path component");
                assert!(
                    p.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{name}: component {p} must be lower_snake_case"
                );
            }
        }
    }

    #[test]
    fn each_counter_has_its_own_slot_in_catalog_order() {
        let counters: Vec<&str> =
            ALL.iter().filter(|(_, kind)| *kind == "counter").map(|(name, _)| *name).collect();
        assert_eq!(counters, super::COUNTER_NAMES);
        for (slot, name) in counters.iter().enumerate() {
            assert_eq!(super::slot_of(name), slot, "{name}");
        }
    }

    #[test]
    fn snapshot_lists_every_metric_under_its_kind() {
        let s = crate::snapshot();
        let mut metrics = 0;
        for &(name, kind) in ALL {
            let listed = [
                s.counters.contains_key(name),
                s.gauges.contains_key(name),
                s.histograms.contains_key(name),
            ];
            let expected = match kind {
                "counter" => [true, false, false],
                "gauge" => [false, true, false],
                "histogram" => [false, false, true],
                "span" => [false, false, false],
                other => panic!("{name}: unknown kind {other}"),
            };
            assert_eq!(listed, expected, "{name} is declared a {kind}");
            metrics += usize::from(kind != "span");
        }
        assert_eq!(s.counters.len() + s.gauges.len() + s.histograms.len(), metrics);
        // nothing in this crate's tests records a worker panic
        assert_eq!(metric::GOVERN_WORKER_PANIC.get(), 0);
        assert_eq!(s.counter(super::GOVERN_WORKER_PANIC), 0);
    }
}
