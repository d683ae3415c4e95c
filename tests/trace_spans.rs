//! Integration test: structured tracing produces well-formed span trees
//! for every workload query — NOBENCH Q1–Q11 and the OLAP Table-13 set —
//! at executor degree 1 and 4. "Well-formed" is the full contract:
//! every span is balanced (`end >= start`), children nest inside their
//! parents, implicit parents share the child's thread lane (only the
//! executor's explicit cross-thread handoff may change lanes), the
//! morsel span count matches what `QueryProfile` measured, and both
//! exporters (Chrome trace-event JSON, collapsed stacks) emit output the
//! in-repo parsers accept.

use fsdm::obs::catalog::{
    SPAN_EXEC_MORSEL, SPAN_EXEC_OP, SPAN_EXEC_PIPELINE, SPAN_EXEC_WORKER, SPAN_SQLJSON_EVAL,
    SPAN_STORE_QUERY,
};
use fsdm::obs::trace::Trace;
use fsdm::store::{QueryProfile, Run};
use fsdm_bench::setup::{
    bind_datum, nobench_db, nobench_q11_plan, nobench_q5_bind, olap_db, olap_queries, StorageMethod,
};

const DEGREES: [usize; 2] = [1, 4];

/// The per-trace contract every workload query must satisfy; the trace
/// is the one the statement's report carries. Returns its worker spans.
fn check_trace(label: &str, degree: usize, profile: &QueryProfile) -> usize {
    let trace = profile.trace.as_ref().unwrap_or_else(|| panic!("{label}: traced, no trace"));
    assert_eq!(profile.degree, degree, "{label}");
    trace.validate().unwrap_or_else(|e| panic!("{label} at degree {degree}: {e}"));
    assert!(
        trace.count(SPAN_STORE_QUERY) >= 1,
        "{label} at degree {degree}: no root store.query span"
    );
    let ops = profile.ops().len();
    assert!(
        trace.count(SPAN_EXEC_OP) >= ops,
        "{label} at degree {degree}: {} exec.op spans for {ops} profiled operators",
        trace.count(SPAN_EXEC_OP)
    );
    assert_eq!(
        trace.count(SPAN_EXEC_MORSEL),
        profile.total_morsels(),
        "{label} at degree {degree}: morsel spans must match the profile's morsel count"
    );
    if degree == 1 {
        // the serial path runs morsels inline on the caller's thread:
        // no worker spans, and pipelines only where morsels ran
        assert_eq!(
            trace.count(SPAN_EXEC_WORKER),
            0,
            "{label}: serial execution must not spawn worker spans"
        );
    }
    if profile.total_morsels() > 0 {
        assert!(
            trace.count(SPAN_EXEC_PIPELINE) >= 1,
            "{label} at degree {degree}: morsels ran without a pipeline span"
        );
    }
    check_exports(label, degree, trace);
    trace.count(SPAN_EXEC_WORKER)
}

/// Both exporters must produce output the in-repo parsers accept.
fn check_exports(label: &str, degree: usize, trace: &Trace) {
    let chrome = trace.to_chrome_json();
    fsdm::json::parse(&chrome)
        .unwrap_or_else(|e| panic!("{label} at degree {degree}: Chrome JSON re-parse: {e}"));
    assert!(chrome.contains("\"traceEvents\""), "{label}: missing traceEvents array");
    let events = chrome.matches("\"ph\":\"X\"").count();
    assert_eq!(
        events,
        trace.spans.len(),
        "{label} at degree {degree}: one X event per recorded span"
    );

    let collapsed = trace.to_collapsed();
    if !trace.spans.is_empty() {
        assert!(!collapsed.is_empty(), "{label}: spans recorded but collapsed export empty");
    }
    for line in collapsed.lines() {
        let (stack, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{label}: collapsed line without a value: {line}"));
        assert!(!stack.is_empty(), "{label}: empty collapsed stack");
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("{label}: non-numeric collapsed value: {line}"));
    }
}

#[test]
fn nobench_traces_are_well_formed_at_every_degree() {
    let n = 400;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(64); // force multi-morsel scans at small scale
    session.db.set_slow_log(0, 16); // threshold 0: every traced statement qualifies
    let q11 = nobench_q11_plan(n, false);
    let mut sources = Vec::new();
    for degree in DEGREES {
        session.set_parallelism(degree);
        let mut worker_spans = 0;
        for q in 1..=10 {
            let sql = fsdm::workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            let (_, report) = session.report(&sql, &binds, true).unwrap();
            let report = report.unwrap_or_else(|| panic!("Q{q}: a SELECT without a report"));
            worker_spans += check_trace(&format!("Q{q}"), degree, &report);
            sources.push(sql);
            if q == 8 {
                // Q1–Q7 rewrite to materialized DMDV column reads (no
                // per-row path evaluation — the trace honestly shows
                // none); Q8's array predicate cannot, but over the
                // collection's `IS JSON` text both of its filters compare
                // `@` with a literal, so the text pass tests them on
                // tokens and no DOM evaluator runs
                assert_eq!(
                    report.trace.map(|t| t.count(SPAN_SQLJSON_EVAL)),
                    Some(0),
                    "Q8 streams its filters over checked text: no sqljson.eval span"
                );
            }
        }
        // the plan exactly as given goes through the same statement exit
        let as_given = Run { optimize: false, trace: true, ..Run::default() };
        let (_, report) = session.db.run(&q11, &as_given).unwrap();
        worker_spans += check_trace("Q11", degree, &report);
        sources.push(report.source);
        if degree > 1 {
            assert!(
                worker_spans > 0,
                "degree {degree} ran the whole NOBENCH set without a single worker span"
            );
        }
    }
    // the ring's dump nests the statement's report and its trace summary
    // in every entry; the in-repo parser must accept all of it
    let slow = fsdm::json::parse(&session.db.slow_log_json()).expect("slow-log JSON re-parses");
    let entries = slow.get("entries").and_then(|e| e.as_array()).expect("an entries array");
    // every statement entered the ring, whichever way it was run, under
    // its SQL text (Q11, a hand-built plan, under its root's label)
    let ring_sources: Vec<_> =
        entries.iter().map(|e| e.get("source").and_then(|s| s.as_str()).unwrap()).collect();
    assert_eq!(ring_sources, sources[sources.len() - 16..], "the ring holds the last 16");
    assert_eq!(ring_sources[15], "GroupBy");
    for (e, source) in entries.iter().zip(&ring_sources) {
        let report = e.get("profile").expect("entry report");
        assert_eq!(report.get("source").and_then(|s| s.as_str()), Some(*source));
        assert!(report.get("root").is_some_and(|r| r.as_object().is_some()), "operator tree");
        assert!(e.get("trace").is_some_and(|t| t.as_str().is_some()), "entry trace summary");
    }
}

#[test]
fn olap_traces_are_well_formed_at_every_degree() {
    let n = 200;
    let queries = olap_queries(n);
    for method in [StorageMethod::Oson, StorageMethod::Rel] {
        let mut session = olap_db(method, n);
        session.db.set_morsel_rows(32);
        for degree in DEGREES {
            session.set_parallelism(degree);
            for (i, q) in queries.iter().enumerate() {
                let binds: Vec<_> = q.binds.iter().map(|b| bind_datum(b)).collect();
                let label = format!("{} OLAP Q{}", method.label(), i + 1);
                let (_, report) = session.report(&q.sql, &binds, true).unwrap();
                let report = report.unwrap_or_else(|| panic!("{label}: a SELECT without a report"));
                check_trace(&label, degree, &report);
            }
        }
    }
}
