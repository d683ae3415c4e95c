//! Central catalog of every metric name recorded through `fsdm-obs`.
//!
//! Each name lives here exactly once as a `pub const`; instrumented
//! crates record through these constants instead of string literals
//! (`fsdm_obs::counter!(fsdm_obs::catalog::OSON_DICT_PROBES)`).
//! `fsdm-check` enforces the discipline: a string-literal metric name at
//! a `counter!`/`gauge!`/`histogram!` call site anywhere outside this
//! crate is an error (rule `metric-literal`), so the catalog is the
//! complete, documented inventory of what the stack can emit. Constants
//! are declared in ascending order of metric name; every one must be
//! listed in the `ALL` inventory (rule `catalog`), whose order and
//! uniqueness the unit tests below assert.
//!
//! Naming convention: `<crate>.<subsystem>.<name>`.

// --- analyze ------------------------------------------------------------

/// Error-severity diagnostics emitted by the semantic analyzer (counter).
pub const ANALYZE_DIAG_ERRORS: &str = "analyze.diag.errors";
/// Info-severity diagnostics emitted by the semantic analyzer (counter).
pub const ANALYZE_DIAG_INFOS: &str = "analyze.diag.infos";
/// Warning-severity diagnostics emitted by the semantic analyzer
/// (counter).
pub const ANALYZE_DIAG_WARNINGS: &str = "analyze.diag.warnings";
/// SQL/JSON paths checked against a DataGuide (counter).
pub const ANALYZE_PATHS_CHECKED: &str = "analyze.paths.checked";
/// Scans rewritten to empty because a JSON predicate is provably dead
/// (counter).
pub const ANALYZE_PRUNE_DEAD_PREDICATES: &str = "analyze.prune.dead_predicates";

// --- dataguide ----------------------------------------------------------

/// Inserts that changed the DataGuide (counter).
pub const DATAGUIDE_INSERT_CHANGED: &str = "dataguide.insert.changed";
/// Inserts fully covered by the existing DataGuide (counter).
pub const DATAGUIDE_INSERT_UNCHANGED: &str = "dataguide.insert.unchanged";
/// Distinct paths currently known to the DataGuide (gauge).
pub const DATAGUIDE_PATHS: &str = "dataguide.paths";

// --- exec ---------------------------------------------------------------

/// Per-batch columnar pipeline time in nanoseconds — kernel evaluation
/// plus late materialization of the selected rows (histogram).
pub const EXEC_BATCH_NS: &str = "exec.batch.ns";
/// Rows selected by each columnar batch after kernel filtering — the
/// observed selectivity, against [`EXEC_MORSEL_ROWS`] as denominator
/// (histogram).
pub const EXEC_BATCH_ROWS: &str = "exec.batch.rows";
/// Parallel degree the executor resolved for the last query (gauge).
pub const EXEC_DEGREE: &str = "exec.degree.configured";
/// Rows rebuilt from vectors/heap at a columnar pipeline breaker — the
/// late-materialization volume (counter).
pub const EXEC_LATE_MATERIALIZE_ROWS: &str = "exec.late_materialize.rows";
/// High-water mark of bytes charged against the last statement's memory
/// budget (gauge).
pub const EXEC_MEM_HIGHWATER: &str = "exec.mem.highwater";
/// One morsel executed by a pipeline worker (span).
pub const SPAN_EXEC_MORSEL: &str = "exec.morsel";
/// Morsels dispatched across all parallel pipelines (counter).
pub const EXEC_MORSEL_COUNT: &str = "exec.morsel.count";
/// Per-morsel execution time in nanoseconds (histogram).
pub const EXEC_MORSEL_NS: &str = "exec.morsel.ns";
/// Rows covered by each dispatched morsel (histogram).
pub const EXEC_MORSEL_ROWS: &str = "exec.morsel.rows";
/// One executor operator evaluation; args carry the operator label
/// (span).
pub const SPAN_EXEC_OP: &str = "exec.op";
/// One morsel-parallel pipeline: the fork/join region of `run_morsels`
/// (span).
pub const SPAN_EXEC_PIPELINE: &str = "exec.pipeline";
/// Transient columns extracted by fused scans, one per column per
/// morsel that needed it (counter).
pub const EXEC_TRANSIENT_COLS: &str = "exec.transient.cols";
/// Row slots filled by transient-column extraction: extracted columns
/// times the rows still selected when they were needed (counter).
pub const EXEC_TRANSIENT_ROWS: &str = "exec.transient.rows";
/// One worker thread's lifetime within a parallel pipeline; parented
/// explicitly under the spawning pipeline span (span).
pub const SPAN_EXEC_WORKER: &str = "exec.worker";
/// Per-worker busy time in nanoseconds across a parallel pipeline
/// (histogram).
pub const EXEC_WORKER_BUSY_NS: &str = "exec.worker.busy_ns";

// --- fault --------------------------------------------------------------

/// Armed failpoints that actually injected a fault into the executor
/// (counter).
pub const FAULT_INJECTED: &str = "fault.injected";

// --- govern -------------------------------------------------------------

/// Statements killed by the memory budget (counter).
pub const GOVERN_BUDGET_EXCEEDED: &str = "govern.budget_exceeded";
/// Statements killed by an explicit user cancellation (counter).
pub const GOVERN_CANCELLED: &str = "govern.cancelled";
/// Statements killed by the statement timeout (counter).
pub const GOVERN_DEADLINE_EXCEEDED: &str = "govern.deadline_exceeded";
/// Worker panics caught and isolated by the parallel executor (counter).
pub const GOVERN_WORKER_PANIC: &str = "govern.worker_panic";

// --- imc ----------------------------------------------------------------

/// Per-batch predicate-kernel evaluation time over IMC column vectors in
/// nanoseconds (histogram).
pub const IMC_KERNEL_NS: &str = "imc.kernel.ns";
/// Per-stage transient-column extraction time in nanoseconds: opening the
/// selected rows' documents and running the stage's paths (histogram).
pub const IMC_TRANSIENT_EXTRACT_NS: &str = "imc.transient.extract.ns";

// --- index --------------------------------------------------------------

/// Payload bytes of the search index last built in bulk: paths, term
/// dictionaries and postings (gauge). Set by `create_search_index` only:
/// puts into an indexed collection do not refresh it — read
/// `SearchIndex::size_bytes()` for a live figure.
pub const INDEX_BYTES: &str = "index.bytes";
/// Documents added to the inverted index (counter).
pub const INDEX_INSERT_DOCS: &str = "index.insert.docs";
/// One inverted-index probe; args carry the probe kind (span).
pub const SPAN_INDEX_LOOKUP: &str = "index.lookup";
/// Path-existence index probes (counter).
pub const INDEX_LOOKUP_PATH: &str = "index.lookup.path";
/// Exact typed (path, scalar) index probes (counter).
pub const INDEX_LOOKUP_SCALAR: &str = "index.lookup.scalar";
/// Full-text keyword probes (counter).
pub const INDEX_LOOKUP_TEXT: &str = "index.lookup.text";
/// (path, value) index probes (counter).
pub const INDEX_LOOKUP_VALUE: &str = "index.lookup.value";
/// Postings appended across all insertions (counter).
pub const INDEX_POSTINGS_ADDED: &str = "index.postings.added";

// --- ingest -------------------------------------------------------------

/// OSON/BSON encoding of one validated document in `Table::insert`
/// (span).
pub const SPAN_INGEST_ENCODE: &str = "ingest.encode";
/// Structure signature plus the table's `$DG` maintenance in
/// `Table::insert` (span).
pub const SPAN_INGEST_GUIDE: &str = "ingest.guide";
/// IS JSON validation — the parse — of one document in `Table::insert`
/// (span).
pub const SPAN_INGEST_PARSE: &str = "ingest.parse";
/// Search-index maintenance (the posting walk and the index's `$DG`) in
/// `Table::insert` (span).
pub const SPAN_INGEST_POSTINGS: &str = "ingest.postings";

// --- oson ---------------------------------------------------------------

/// One full OSON document decode: validate + materialize (span).
pub const SPAN_OSON_DECODE: &str = "oson.decode";
/// Documents fully decoded from OSON bytes (counter).
pub const OSON_DECODE_DOCS: &str = "oson.decode.docs";
/// Field-name → field-id dictionary resolutions (counter).
pub const OSON_DICT_LOOKUPS: &str = "oson.dict.lookups";
/// Binary-search probes spent resolving field ids (counter).
pub const OSON_DICT_PROBES: &str = "oson.dict.probes";
/// Encoded document size in bytes (histogram).
pub const OSON_ENCODE_BYTES: &str = "oson.encode.bytes";
/// Documents encoded to OSON bytes (counter).
pub const OSON_ENCODE_DOCS: &str = "oson.encode.docs";
/// One navigational field lookup on an OSON tree node (span).
pub const SPAN_OSON_GET_FIELD: &str = "oson.get_field";
/// Object-child lookups by field id (counter).
pub const OSON_NODE_LOOKUPS: &str = "oson.node.lookups";
/// Binary-search probes spent in object-child lookups (counter).
pub const OSON_NODE_PROBES: &str = "oson.node.probes";
/// Bytes written to the field-id-name dictionary segment (counter).
pub const OSON_SEGMENT_DICTIONARY_BYTES: &str = "oson.segment.dictionary_bytes";
/// Bytes written to the tree-node navigation segment (counter).
pub const OSON_SEGMENT_TREE_BYTES: &str = "oson.segment.tree_bytes";
/// Bytes written to the leaf-scalar-value segment (counter).
pub const OSON_SEGMENT_VALUES_BYTES: &str = "oson.segment.values_bytes";
/// Partial updates applied in place (counter).
pub const OSON_UPDATE_IN_PLACE: &str = "oson.update.in_place";
/// Partial updates that required a document re-encode (counter).
pub const OSON_UPDATE_REENCODE: &str = "oson.update.reencode";
/// Buffers rejected by the deep structural verifier (counter).
pub const OSON_VALIDATE_FAILURES: &str = "oson.validate.failures";

// --- planck -------------------------------------------------------------

/// Plans put through the planck type/schema checker (counter).
pub const PLANCK_CHECKS: &str = "planck.checks";
/// Error-severity planck findings (counter).
pub const PLANCK_ERRORS: &str = "planck.errors";
/// Wall time of one plan inference + validation pass, ns (histogram).
pub const PLANCK_INFER_NS: &str = "planck.infer.ns";
/// Warning-severity planck findings (counter).
pub const PLANCK_WARNINGS: &str = "planck.warnings";

// --- slowlog ------------------------------------------------------------

/// Queries currently held by the slow-query ring log (gauge).
pub const SLOWLOG_ENTRIES: &str = "slowlog.entries";
/// Slow-log entries evicted by the ring's fixed capacity (counter).
pub const SLOWLOG_EVICTED: &str = "slowlog.evicted";
/// Poisoned slow-log ring guards recovered after a panicking query
/// (counter).
pub const SLOWLOG_POISONED: &str = "slowlog.poisoned";

// --- sqljson ------------------------------------------------------------

/// One SQL/JSON path evaluation; args carry look-back hit/miss deltas
/// (span).
pub const SPAN_SQLJSON_EVAL: &str = "sqljson.eval";
/// Context nodes visited across all path steps (counter).
pub const SQLJSON_EVAL_NODES_VISITED: &str = "sqljson.eval.nodes_visited";
/// Path evaluations started (counter).
pub const SQLJSON_EVAL_PATHS: &str = "sqljson.eval.paths";
/// Field resolutions where the name was absent from the dictionary
/// (counter).
pub const SQLJSON_LOOKBACK_ABSENT: &str = "sqljson.lookback.absent";
/// Field resolutions served from the look-back cache (counter).
pub const SQLJSON_LOOKBACK_HIT: &str = "sqljson.lookback.hit";
/// Field resolutions that consulted the instance dictionary (counter).
pub const SQLJSON_LOOKBACK_MISS: &str = "sqljson.lookback.miss";

// --- store --------------------------------------------------------------

/// Whole-statement wall time of a completed statement in nanoseconds,
/// optimize included, from the plan's arrival to the statement exit
/// (histogram).
pub const STORE_EXEC_NS: &str = "store.exec.ns";
/// Statements completed (counter).
pub const STORE_EXEC_QUERIES: &str = "store.exec.queries";
/// Inserts that took the unchanged-DataGuide fast path (counter).
pub const STORE_INSERT_GUIDE_FAST_PATH: &str = "store.insert.guide_fast_path";
/// One end-to-end query execution: the root span of a query's trace;
/// args carry the SQL text or plan label (span).
pub const SPAN_STORE_QUERY: &str = "store.query";

// --- trace --------------------------------------------------------------

/// Bytes retained by the spans of the last finished trace session
/// (gauge).
pub const TRACE_SESSION_BYTES: &str = "trace.session.bytes";
/// Spans suppressed by a trace session's hard cap (counter).
pub const TRACE_SPAN_DROPPED: &str = "trace.span.dropped";
/// Spans recorded into trace sessions (counter).
pub const TRACE_SPAN_RECORDED: &str = "trace.span.recorded";

/// Every metric name in the catalog, in declaration (= sorted) order,
/// for exhaustiveness checks and documentation tooling.
pub const ALL: &[&str] = &[
    ANALYZE_DIAG_ERRORS,
    ANALYZE_DIAG_INFOS,
    ANALYZE_DIAG_WARNINGS,
    ANALYZE_PATHS_CHECKED,
    ANALYZE_PRUNE_DEAD_PREDICATES,
    DATAGUIDE_INSERT_CHANGED,
    DATAGUIDE_INSERT_UNCHANGED,
    DATAGUIDE_PATHS,
    EXEC_BATCH_NS,
    EXEC_BATCH_ROWS,
    EXEC_DEGREE,
    EXEC_LATE_MATERIALIZE_ROWS,
    EXEC_MEM_HIGHWATER,
    SPAN_EXEC_MORSEL,
    EXEC_MORSEL_COUNT,
    EXEC_MORSEL_NS,
    EXEC_MORSEL_ROWS,
    SPAN_EXEC_OP,
    SPAN_EXEC_PIPELINE,
    EXEC_TRANSIENT_COLS,
    EXEC_TRANSIENT_ROWS,
    SPAN_EXEC_WORKER,
    EXEC_WORKER_BUSY_NS,
    FAULT_INJECTED,
    GOVERN_BUDGET_EXCEEDED,
    GOVERN_CANCELLED,
    GOVERN_DEADLINE_EXCEEDED,
    GOVERN_WORKER_PANIC,
    IMC_KERNEL_NS,
    IMC_TRANSIENT_EXTRACT_NS,
    INDEX_BYTES,
    INDEX_INSERT_DOCS,
    SPAN_INDEX_LOOKUP,
    INDEX_LOOKUP_PATH,
    INDEX_LOOKUP_SCALAR,
    INDEX_LOOKUP_TEXT,
    INDEX_LOOKUP_VALUE,
    INDEX_POSTINGS_ADDED,
    SPAN_INGEST_ENCODE,
    SPAN_INGEST_GUIDE,
    SPAN_INGEST_PARSE,
    SPAN_INGEST_POSTINGS,
    SPAN_OSON_DECODE,
    OSON_DECODE_DOCS,
    OSON_DICT_LOOKUPS,
    OSON_DICT_PROBES,
    OSON_ENCODE_BYTES,
    OSON_ENCODE_DOCS,
    SPAN_OSON_GET_FIELD,
    OSON_NODE_LOOKUPS,
    OSON_NODE_PROBES,
    OSON_SEGMENT_DICTIONARY_BYTES,
    OSON_SEGMENT_TREE_BYTES,
    OSON_SEGMENT_VALUES_BYTES,
    OSON_UPDATE_IN_PLACE,
    OSON_UPDATE_REENCODE,
    OSON_VALIDATE_FAILURES,
    PLANCK_CHECKS,
    PLANCK_ERRORS,
    PLANCK_INFER_NS,
    PLANCK_WARNINGS,
    SLOWLOG_ENTRIES,
    SLOWLOG_EVICTED,
    SLOWLOG_POISONED,
    SPAN_SQLJSON_EVAL,
    SQLJSON_EVAL_NODES_VISITED,
    SQLJSON_EVAL_PATHS,
    SQLJSON_LOOKBACK_ABSENT,
    SQLJSON_LOOKBACK_HIT,
    SQLJSON_LOOKBACK_MISS,
    STORE_EXEC_NS,
    STORE_EXEC_QUERIES,
    STORE_INSERT_GUIDE_FAST_PATH,
    SPAN_STORE_QUERY,
    TRACE_SESSION_BYTES,
    TRACE_SPAN_DROPPED,
    TRACE_SPAN_RECORDED,
];

/// The subset of [`ALL`] that names trace spans rather than metrics, in
/// the same order. [`crate::trace`] asserts (in debug builds) that every
/// span name comes from this inventory, and `fsdm-check` bans string
/// literals at span call sites outside `crates/obs/` (rule
/// `span-name-from-catalog`).
pub const SPANS: &[&str] = &[
    SPAN_EXEC_MORSEL,
    SPAN_EXEC_OP,
    SPAN_EXEC_PIPELINE,
    SPAN_EXEC_WORKER,
    SPAN_INDEX_LOOKUP,
    SPAN_INGEST_ENCODE,
    SPAN_INGEST_GUIDE,
    SPAN_INGEST_PARSE,
    SPAN_INGEST_POSTINGS,
    SPAN_OSON_DECODE,
    SPAN_OSON_GET_FIELD,
    SPAN_SQLJSON_EVAL,
    SPAN_STORE_QUERY,
];

/// The declared lock hierarchy: every `Mutex`/`RwLock` in the workspace,
/// by field or static name, with its rank. A thread may only acquire a
/// lock of *strictly higher* rank than any lock it already holds;
/// `fsdm-check` proves this statically (rule SN002) over the
/// workspace call graph, which makes cyclic waits impossible. Ranks are
/// spaced by 10 so a new lock can slot between existing ones without
/// renumbering.
pub const LOCKS: &[(&str, u32)] = &[
    // trace.rs: serializes whole trace sessions; outermost by nature
    ("SESSION_LOCK", 10),
    // slowlog.rs: the slow-query ring; held while recording one entry
    ("ring", 20),
    // trace.rs: the session's span sink; held during per-thread flushes
    ("sink", 30),
    // obs lib.rs: the metrics registry map; innermost — `counter!` and
    // `gauge!` reach it from under the slow-log ring
    ("inner", 40),
];

/// Which memory-ordering discipline an atomic follows. `fsdm-check`
/// checks every atomic operation against the discipline declared for it
/// in [`ATOMICS`] (rule SN005).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicDiscipline {
    /// A plain statistic or id/ticket dispenser: no other memory hangs
    /// off its value, so every operation must stay `Relaxed` — anything
    /// stronger buys nothing and taxes the hot path.
    Monotonic,
    /// A publish/consume handshake: its value gates access to other
    /// memory, so stores must be `Release`, loads `Acquire`, and
    /// read-modify-writes `AcqRel` (or `SeqCst`).
    Handshake,
}

/// The declared discipline of every atomic in the workspace, by field,
/// static, or — for the tuple-struct wrappers `Counter`/`Gauge` — type
/// name. An atomic operation on a name missing from this inventory is
/// itself a sentinel error, so the registry stays complete.
pub const ATOMICS: &[(&str, AtomicDiscipline)] = &[
    // --- handshakes -----------------------------------------------------
    // obs lib.rs: global metrics on/off gate
    ("ENABLED", AtomicDiscipline::Handshake),
    // trace.rs: global tracing on/off gate
    ("TRACING", AtomicDiscipline::Handshake),
    // store/parallel.rs race oracle: live-worker count, must be zero
    // after the scope closes
    ("active_workers", AtomicDiscipline::Handshake),
    // store/govern.rs: the cancel token's packed reason word; a nonzero
    // value publishes the reason to every worker that observes it
    ("cancel_reason", AtomicDiscipline::Handshake),
    // store/parallel.rs race oracle: per-morsel claim slots (`claim` is
    // one element of `claims`, as bound by iteration)
    ("claim", AtomicDiscipline::Handshake),
    ("claims", AtomicDiscipline::Handshake),
    // trace.rs: session generation; stale-epoch buffers must observe
    // the bump before touching the new session's sink
    ("epoch", AtomicDiscipline::Handshake),
    // --- monotonic counters and dispensers ------------------------------
    // fault lib.rs: the armed fast-path gate; the registry mutex carries
    // the ordering, the flag only short-circuits the disarmed path
    ("ARMED", AtomicDiscipline::Monotonic),
    // obs lib.rs: the Counter/Gauge tuple structs and Histogram fields
    ("Counter", AtomicDiscipline::Monotonic),
    ("Gauge", AtomicDiscipline::Monotonic),
    // fault lib.rs: registry-consultation tally
    ("HITS", AtomicDiscipline::Monotonic),
    // one element of `buckets`, as bound by iteration
    ("bucket", AtomicDiscipline::Monotonic),
    ("buckets", AtomicDiscipline::Monotonic),
    // trace.rs: span budget countdown and drop tally
    ("budget", AtomicDiscipline::Monotonic),
    ("count", AtomicDiscipline::Monotonic),
    ("dropped", AtomicDiscipline::Monotonic),
    // store/govern.rs: the most `used` ever reached (a `fetch_max`)
    ("high", AtomicDiscipline::Monotonic),
    // store/parallel.rs race oracle: merge cursor, coordinator-only
    ("merged", AtomicDiscipline::Monotonic),
    // store/parallel.rs: the morsel ticket dispenser
    ("next", AtomicDiscipline::Monotonic),
    // trace.rs: span/thread id dispensers
    ("next_id", AtomicDiscipline::Monotonic),
    ("next_tid", AtomicDiscipline::Monotonic),
    ("sum", AtomicDiscipline::Monotonic),
    // slowlog.rs: the slow-query threshold (0 = disabled); the ring it
    // gates is Mutex-protected, so the load needs no ordering
    ("threshold_ns", AtomicDiscipline::Monotonic),
    // store/govern.rs: bytes currently charged against the statement
    // memory budget (morsel-local buffers are released); a plain tally,
    // the limit comparison needs no ordering
    ("used", AtomicDiscipline::Monotonic),
];

#[cfg(test)]
mod tests {
    use super::{ALL, ATOMICS, LOCKS, SPANS};

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate catalog entry {name}");
        }
    }

    #[test]
    fn names_are_sorted() {
        for pair in ALL.windows(2) {
            assert!(pair[0] < pair[1], "{} must sort before {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn spans_are_a_sorted_subset_of_the_catalog() {
        for pair in SPANS.windows(2) {
            assert!(pair[0] < pair[1], "{} must sort before {}", pair[0], pair[1]);
        }
        for name in SPANS {
            assert!(ALL.contains(name), "span {name} missing from ALL");
        }
    }

    #[test]
    fn lock_hierarchy_ranks_are_unique_and_ascending() {
        for pair in LOCKS.windows(2) {
            assert!(
                pair[0].1 < pair[1].1,
                "lock {} (rank {}) must rank below {} ({})",
                pair[0].0,
                pair[0].1,
                pair[1].0,
                pair[1].1
            );
        }
        let mut names = std::collections::HashSet::new();
        for (name, _) in LOCKS {
            assert!(names.insert(*name), "duplicate lock {name}");
        }
    }

    #[test]
    fn atomic_registry_is_sorted_within_each_discipline() {
        let mut names = std::collections::HashSet::new();
        for (name, _) in ATOMICS {
            assert!(names.insert(*name), "duplicate atomic {name}");
        }
        // grouped handshakes-then-monotonic, each group name-sorted, so
        // a reader can scan the inventory the way the doc comment reads
        for pair in ATOMICS.windows(2) {
            if pair[0].1 == pair[1].1 {
                assert!(pair[0].0 < pair[1].0, "{} before {}", pair[0].0, pair[1].0);
            }
        }
    }

    #[test]
    fn names_follow_the_dotted_convention() {
        for name in ALL {
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
}
