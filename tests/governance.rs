//! Integration test: query governance and fault injection keep their
//! contracts end-to-end.
//!
//! The governance bargain (DESIGN.md §15) has two sides. Generous
//! limits must be invisible: with a one-minute deadline and a terabyte
//! budget armed, every workload query returns byte-identical results at
//! every degree. Tight limits must be *deterministic typed errors*: a
//! zero timeout, a pre-cancelled handle, or a tiny memory budget each
//! produce one exact error message — never a panic, never a racy
//! variant — and an injected worker panic is isolated into a typed
//! error after which the same `Database` answers the same query with
//! the same bytes.
//!
//! Failpoint arming is process-global, so every test here that runs
//! queries holds a [`FailScope`] (armed or disarmed) — the scope's
//! internal lock serializes them against each other; tests in *other*
//! files never arm failpoints.

use fsdm::fault::{catalog, FailMode, FailScope};
use fsdm::sqljson::Datum;
use fsdm::store::{CancelReason, ErrorKind, Query, QueryResult, Run};
use fsdm_bench::setup::{
    add_nobench_columnar_vcs, bind_datum, nobench_db, nobench_q11_plan, nobench_q5_bind, olap_db,
    olap_queries, StorageMethod,
};

const DEGREES: [usize; 2] = [1, 4];

/// The transient DataGuide of the whole collection: `GroupBy(Scan)`.
const GUIDE: &str = "select json_dataguideagg(jdoc) from nobench";

/// NoBench Q1–Q10 as (sql, binds) plus the Q11 plan.
fn workload(n: usize) -> (Vec<(String, Vec<Datum>)>, Query) {
    let sqls = (1..=10)
        .map(|q| {
            let sql = fsdm::workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            (sql, binds)
        })
        .collect();
    (sqls, nobench_q11_plan(n, false))
}

#[test]
fn generous_limits_are_invisible_at_every_degree() {
    let _scope = FailScope::disarmed();
    let n = 400;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(64); // many morsels: checkpoints actually run
    let (sqls, q11) = workload(n);

    // reference: no governance at all
    let mut reference: Vec<QueryResult> = sqls
        .iter()
        .map(|(sql, binds)| session.execute_with(sql, binds).expect("ungoverned query runs"))
        .collect();
    reference.push(session.db.execute(&q11).expect("ungoverned Q11 runs"));

    session.set_statement_timeout(Some(60_000));
    session.set_mem_limit(Some(1 << 40));
    for degree in DEGREES {
        session.db.set_parallelism(degree);
        for (i, (sql, binds)) in sqls.iter().enumerate() {
            let r = session.execute_with(sql, binds).expect("governed query runs");
            assert_eq!(r, reference[i], "Q{} governed at degree {degree}", i + 1);
        }
        let r = session.db.execute(&q11).expect("governed Q11 runs");
        assert_eq!(r, reference[10], "Q11 governed at degree {degree}");
    }
}

#[test]
fn a_zero_timeout_is_a_deterministic_deadline_error() {
    let _scope = FailScope::disarmed();
    let n = 300;
    let mut session = nobench_db(n);
    // the ring is armed with an unreachable threshold: only governance
    // kills may enter, proving `record_killed` bypasses the threshold
    session.db.set_slow_log(u64::MAX, 8);
    session.set_statement_timeout(Some(0));
    let sql = fsdm::workloads::nobench::query_sql(1, n);
    for degree in DEGREES {
        session.db.set_parallelism(degree);
        let err = session.execute(&sql).expect_err("a zero deadline must kill the statement");
        assert_eq!(err.message, "statement deadline exceeded (timeout 0 ms)", "degree {degree}");
    }
    let entries = session.db.slow_log().entries();
    assert_eq!(entries.len(), DEGREES.len(), "every killed statement enters the ring");
    for e in &entries {
        assert_eq!(e.cancel_reason, Some("deadline"));
        assert_eq!(e.source, sql);
    }
    assert!(
        session.db.slow_log_json().contains("\"cancel_reason\":\"deadline\""),
        "the ring dump must carry the kill reason"
    );
    // the deadline leaves nothing behind: clearing it revives the session
    session.set_statement_timeout(None);
    session.execute(&sql).expect("clearing the timeout revives the session");
}

#[test]
fn a_pre_cancelled_handle_is_a_deterministic_cancel_error() {
    let _scope = FailScope::disarmed();
    let n = 300;
    let mut session = nobench_db(n);
    let handle = session.cancel_handle();
    // Q2, and the transient DataGuide: an aggregate like any other
    for sql in [&fsdm::workloads::nobench::query_sql(2, n), GUIDE] {
        let plan = session.plan(sql, &[]).unwrap();
        for degree in DEGREES {
            session.db.set_parallelism(degree);
            assert!(handle.cancel(), "first cancel wins");
            assert!(handle.is_cancelled());
            // `Database::execute` honors a pending cross-thread cancel; the
            // session's `&mut` entry points reset it at statement entry
            let err =
                session.db.execute(&plan).expect_err("a cancelled token must kill the statement");
            assert_eq!(err.kind, ErrorKind::Cancelled(CancelReason::User), "degree {degree}");
            assert_eq!(err.message, "statement cancelled (user)", "degree {degree}");
            // a fresh statement through the session resets the token
            session.execute_with(sql, &[]).expect("the next session statement runs clean");
            assert!(!handle.is_cancelled(), "statement entry resets the token");
        }
    }
}

#[test]
fn a_tiny_memory_budget_is_a_deterministic_budget_error() {
    let _scope = FailScope::disarmed();
    let n = 300;
    let mut session = nobench_db(n);
    // an unfiltered group-by: the first morsel partial alone charges
    // (1 key + 1 agg) x 32 bytes x 300 rows ≈ 19 KiB against the budget
    let sql = "select json_value(jdoc, '$.thousandth' returning number) t, count(*) \
               from nobench group by json_value(jdoc, '$.thousandth' returning number)";
    // the transient DataGuide gathers every document as text on top
    for sql in [sql, GUIDE] {
        session.set_mem_limit(Some(1024));
        let plan = session.plan(sql, &[]).unwrap();
        for degree in DEGREES {
            session.db.set_parallelism(degree);
            let err = session.db.execute(&plan).expect_err("a 1 KiB budget must kill the group-by");
            assert_eq!(err.kind, ErrorKind::BudgetExceeded, "degree {degree}");
            assert_eq!(err.message, "memory budget exceeded (limit 1024 bytes)", "degree {degree}");
        }
        session.set_mem_limit(None);
        session.db.execute(&plan).expect("clearing the budget revives the session");
    }
}

/// The fused scan is governed like every other pipeline. A Q4-shaped
/// statement — one resident and one transient leaf in the filter, one of
/// each in the projection — over the OSON-IMC dies with the same typed
/// error at degree 1 and 4 under a zero deadline, a pending cancel, a
/// budget smaller than one morsel's transient column (while a budget
/// that covers the morsels in flight lets the whole table through), and
/// a panic or an error injected into the extraction and gather stages;
/// afterwards the same database answers with the same bytes.
#[test]
fn a_q4_shaped_statement_is_governed_on_the_transient_path() {
    fsdm::fault::silence_failpoint_panics();
    let scope = FailScope::disarmed();
    let n = 400;
    let mut session = nobench_db(n);
    session.db.table_mut("nobench").unwrap().populate_oson_imc().unwrap();
    add_nobench_columnar_vcs(&mut session);
    session.db.set_morsel_rows(64);
    let plan = session.plan(&fsdm::workloads::nobench::query_sql(4, n), &[]).unwrap();
    let explain =
        session.db.explain_modes(&fsdm::store::optimizer::optimize(&session.db, plan.clone()));
    assert!(explain.contains("transient=[JSON_EXISTS(col#1, '$.sparse_220')"), "{explain}");
    let baseline = session.db.execute(&plan).expect("ungoverned baseline runs");
    let handle = session.cancel_handle();
    for degree in DEGREES {
        session.db.set_parallelism(degree);

        session.set_statement_timeout(Some(0));
        let err = session.db.execute(&plan).expect_err("a zero deadline kills the statement");
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "degree {degree}");
        assert_eq!(err.message, "statement deadline exceeded (timeout 0 ms)", "degree {degree}");
        session.set_statement_timeout(None);

        assert!(handle.cancel());
        let err = session.db.execute(&plan).expect_err("a pending cancel kills the statement");
        assert_eq!(err.kind, ErrorKind::Cancelled(CancelReason::User), "degree {degree}");
        session.db.cancel_token().reset();

        // one morsel's `$.sparse_220` column charges 64 rows x 32 bytes
        session.set_mem_limit(Some(1024));
        let err = session.db.execute(&plan).expect_err("a 1 KiB budget kills the extraction");
        assert_eq!(err.kind, ErrorKind::BudgetExceeded, "degree {degree}");
        assert_eq!(err.message, "memory budget exceeded (limit 1024 bytes)", "degree {degree}");
        // the budget bills the morsels in flight, not the table: 25
        // morsels of at most two 16-row columns (1 KiB live per worker;
        // 12.5 KiB for the filter column alone if nothing were handed
        // back) pass under 4 KiB at either degree
        session.db.set_morsel_rows(16);
        session.set_mem_limit(Some(4 * 1024));
        let (governed, report) =
            session.db.run(&plan, &Run::default()).expect("live transient memory fits 4 KiB");
        assert_eq!(governed, baseline, "degree {degree}: budgeted run diverged");
        assert!((1..=4096).contains(&report.mem_highwater), "{}", report.render());
        assert_eq!(report.degree, degree);
        session.db.set_morsel_rows(64);
        session.set_mem_limit(None);

        // extraction fires `expr.eval`, gathering fires `vector.batch`
        scope.also(catalog::FP_EXPR_EVAL, FailMode::Panic);
        let err = session.db.execute(&plan).expect_err("an armed panic surfaces as an error");
        assert_eq!(err.kind, ErrorKind::WorkerPanic { morsel: 0 }, "degree {degree}: {err}");
        fsdm::fault::reset();
        scope.also(catalog::FP_VECTOR_BATCH, FailMode::Error);
        let err = session.db.execute(&plan).expect_err("an injected gather fault surfaces");
        assert_eq!(err.kind, ErrorKind::Generic, "degree {degree}: {err}");
        assert!(err.message.contains(catalog::FP_VECTOR_BATCH.name()), "degree {degree}: {err}");
        fsdm::fault::reset();

        let rerun = session.db.execute(&plan).expect("the database survives every kill");
        assert_eq!(rerun, baseline, "degree {degree}: post-kill rerun diverged");
    }
}

/// `JSON_TABLE` on the spine is governed like the fused scan under it.
/// T9 — every line item of every order through `po_item_dmdv`, seven
/// columns — dies with the same typed error at degree 1 and 4 under a
/// budget smaller than one morsel's expanded columns (while a budget that
/// covers the morsels in flight, a quarter of what the whole expansion
/// holds, lets it through), under a deadline that passes while a morsel is
/// being expanded, and under a fault injected into the expansion or the
/// gathers above it; afterwards the same database answers with the same
/// bytes.
#[test]
fn a_full_expansion_is_governed_on_the_spine() {
    fsdm::fault::silence_failpoint_panics();
    let scope = FailScope::disarmed();
    let n = 1000;
    let mut session = olap_db(StorageMethod::Oson, n);
    let t9 = &olap_queries(n)[8];
    let binds: Vec<Datum> = t9.binds.iter().map(|b| bind_datum(b)).collect();
    let plan = session.plan(&t9.sql, &binds).unwrap();
    let explain =
        session.db.explain_modes(&fsdm::store::optimizer::optimize(&session.db, plan.clone()));
    assert!(explain.contains("JsonTable(col#1, '$.purchaseOrder')  mode=columnar"), "{explain}");
    let baseline = session.db.execute(&plan).expect("ungoverned baseline runs");
    assert!(baseline.rows.len() > fsdm::store::ROWS_PER_CHECK, "one morsel spans a row check");
    for degree in DEGREES {
        session.db.set_parallelism(degree);

        // a 64-document morsel expands to ~320 rows: 36 bytes of parent
        // and context each, then 32 per row for each of seven columns
        session.db.set_morsel_rows(64);
        session.set_mem_limit(Some(32 * 1024));
        let err = session.db.execute(&plan).expect_err("a 32 KiB budget kills the expansion");
        assert_eq!(err.kind, ErrorKind::BudgetExceeded, "degree {degree}");
        assert_eq!(err.message, "memory budget exceeded (limit 32768 bytes)", "degree {degree}");
        // billed per morsel in flight (~22 KiB each at 16 documents), not
        // for the ~1.2 MiB the whole expansion would hold
        session.db.set_morsel_rows(16);
        session.set_mem_limit(Some(128 * 1024));
        let governed = session.db.execute(&plan).expect("the morsels in flight fit 128 KiB");
        assert_eq!(governed, baseline, "degree {degree}: budgeted run diverged");
        session.set_mem_limit(None);

        // one morsel: the deadline passes inside it, after the boundary
        // checkpoint, and the per-row checks of the expansion see it
        session.db.set_morsel_rows(4096);
        session.set_statement_timeout(Some(20));
        scope.also(catalog::FP_EXEC_JSONTABLE_ROW, FailMode::Delay(60));
        let err = session.db.execute(&plan).expect_err("the deadline passes mid-expansion");
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "degree {degree}");
        assert_eq!(err.message, "statement deadline exceeded (timeout 20 ms)", "degree {degree}");
        fsdm::fault::reset();
        session.set_statement_timeout(None);

        // the expansion fires `exec.jsontable.row` once per morsel, the
        // gathers above it `vector.batch`
        for point in [catalog::FP_EXEC_JSONTABLE_ROW, catalog::FP_VECTOR_BATCH] {
            scope.also(point, FailMode::Error);
            let err = session.db.execute(&plan).expect_err("an injected fault surfaces");
            assert_eq!(err.kind, ErrorKind::Generic, "degree {degree}: {err}");
            assert!(err.message.contains(point.name()), "degree {degree}: {err}");
            fsdm::fault::reset();
        }
        scope.also(catalog::FP_EXEC_JSONTABLE_ROW, FailMode::Panic);
        let err = session.db.execute(&plan).expect_err("an armed panic surfaces as an error");
        assert_eq!(err.kind, ErrorKind::WorkerPanic { morsel: 0 }, "degree {degree}: {err}");
        fsdm::fault::reset();

        let rerun = session.db.execute(&plan).expect("the database survives every kill");
        assert_eq!(rerun, baseline, "degree {degree}: post-kill rerun diverged");
    }
}

#[test]
fn an_injected_worker_panic_is_isolated_and_the_rerun_is_identical() {
    fsdm::fault::silence_failpoint_panics();
    let scope = FailScope::disarmed();
    let n = 400;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(32);
    let plan = session.plan(&fsdm::workloads::nobench::query_sql(3, n), &[]).unwrap();
    let baseline = session.db.execute(&plan).expect("disarmed baseline runs");
    for degree in DEGREES {
        session.db.set_parallelism(degree);
        scope.also(catalog::FP_EXEC_MORSEL, FailMode::Panic);
        let err = session.db.execute(&plan).expect_err("an armed panic must surface as an error");
        assert_eq!(
            err.kind,
            ErrorKind::WorkerPanic { morsel: 0 },
            "degree {degree}: the first morsel's panic wins the election"
        );
        assert!(err.message.contains("worker panicked at morsel 0"), "degree {degree}: {err}");
        fsdm::fault::reset();
        // the panic left no residue: same database, same plan, same bytes
        let rerun = session.db.execute(&plan).expect("the database survives a worker panic");
        assert_eq!(rerun, baseline, "degree {degree}: post-panic rerun diverged");
    }
}

/// The error-election pin (see `run_morsels`): with panic mode armed on
/// every morsel at degree 4, workers panic concurrently and the sibling
/// cancellation (peer-panic) races the failures — yet the reported
/// error must come from morsel 0 on every repetition, because primary
/// errors outrank governance echoes and the lowest failing index wins.
#[test]
fn the_lowest_failing_morsel_wins_even_when_cancellation_races() {
    fsdm::fault::silence_failpoint_panics();
    let scope = FailScope::disarmed();
    let n = 500;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(16); // 32 morsels: plenty of racing peers
    session.db.set_parallelism(4);
    let plan = session.plan(&fsdm::workloads::nobench::query_sql(1, n), &[]).unwrap();
    for rep in 0..20 {
        scope.also(catalog::FP_EXEC_MORSEL, FailMode::Panic);
        let err = session.db.execute(&plan).expect_err("armed panic fails the pipeline");
        assert_eq!(err.kind, ErrorKind::WorkerPanic { morsel: 0 }, "rep {rep}: {err}");
        fsdm::fault::reset();
    }
}

#[test]
fn a_disarmed_run_never_consults_the_failpoint_registry() {
    let _scope = FailScope::disarmed();
    let n = 300;
    let mut session = nobench_db(n);
    let (sqls, q11) = workload(n);
    for (sql, binds) in &sqls {
        session.execute_with(sql, binds).expect("disarmed query runs");
    }
    session.db.execute(&q11).expect("disarmed Q11 runs");
    // the write side too: loading the corpus above fired `ingest.put`
    // once per row, and so does every put
    let mut db = fsdm::FsdmDatabase::new();
    db.create_collection("c", fsdm::CollectionOptions::default()).unwrap();
    db.create_search_index("c").unwrap();
    db.put("c", r#"{"a":[1,"two"]}"#).expect("disarmed put runs");
    assert_eq!(
        fsdm::fault::total_hits(),
        0,
        "the whole workload must stay on the one-relaxed-load fast path"
    );
}

/// A fault injected into a `put` is a typed error that leaves the
/// collection exactly as it was; disarmed, the same `put` goes in.
#[test]
fn an_injected_put_failure_leaves_the_collection_unchanged() {
    let scope = FailScope::disarmed();
    let mut db = fsdm::FsdmDatabase::new();
    db.create_collection("c", fsdm::CollectionOptions::default()).unwrap();
    db.create_search_index("c").unwrap();
    db.put("c", r#"{"tag":"red fox"}"#).unwrap();
    let rows = db.dataguide("c").unwrap().rows();

    scope.also(catalog::FP_INGEST_PUT, FailMode::Error);
    let err = db.put("c", r#"{"tag":"arctic fox","fresh":true}"#).expect_err("armed put fails");
    assert!(err.to_string().contains("failpoint `ingest.put` injected error"), "{err}");
    assert_eq!(fsdm::fault::point_hits(catalog::FP_INGEST_PUT), Some(1));
    fsdm::fault::reset();

    assert_eq!(db.count("c"), 1);
    assert_eq!(db.dataguide("c").unwrap().rows(), rows);
    assert_eq!(db.text_contains("c", "$.tag", "fox").unwrap(), vec![0]);
    assert_eq!(db.put("c", r#"{"tag":"arctic fox","fresh":true}"#).unwrap(), 1);
    assert_eq!(db.text_contains("c", "$.tag", "fox").unwrap(), vec![0, 1]);
}
