//! Tier-1: the analyzer ↔ optimizer handshake. FA001 (unknown path) is
//! the optimizer's proof obligation for the dead-predicate scan rewrite,
//! so the rewrite must never change any result — it only replaces row
//! loops that cannot match with a constant-false scan — and EXPLAIN must
//! show both the diagnostic and the rewritten plan.

use fsdm::store::Run;
use fsdm_sql::Session;
use fsdm_workloads::nobench;

use fsdm_bench::setup::{nobench_guided_db, nobench_q5_bind};

const N: usize = 400;

/// Row counts for the NOBENCH query set plus two statements whose JSON
/// predicates are provably dead against the corpus, through the optimizer
/// or with the plan exactly as written.
fn results_for(session: &Session, optimize: bool) -> Vec<(String, usize)> {
    let dead = [
        ("dead-exists", "select did from nobench where json_exists(jdoc, '$.persno')"),
        ("dead-value", "select did from nobench where json_value(jdoc, '$.persno') = 'x'"),
    ];
    let workload = (1..=10).map(|q| (format!("Q{q}"), nobench::query_sql(q, N)));
    let statements = workload.chain(dead.map(|(label, sql)| (label.to_string(), sql.to_string())));
    statements
        .map(|(label, sql)| {
            let binds = if label == "Q5" { vec![nobench_q5_bind(N)] } else { vec![] };
            let plan = session.plan(&sql, &binds).unwrap();
            let (result, _) = session.db.run(&plan, &Run { optimize, ..Run::default() }).unwrap();
            (label, result.rows.len())
        })
        .collect()
}

#[test]
fn pruning_is_result_identical_over_nobench() {
    let session = nobench_guided_db(N);
    let off = results_for(&session, false);
    let on = results_for(&session, true);
    assert_eq!(off, on, "dead-path pruning changed a result");
    // the workload queries actually return rows, and the dead statements
    // actually return none — the comparison is not vacuous
    assert!(off.iter().any(|(_, rows)| *rows > 0), "{off:?}");
    assert!(off.iter().rev().take(2).all(|(_, rows)| *rows == 0), "{off:?}");
}

#[test]
fn explain_shows_the_diagnostic_and_the_rewrite() {
    let session = nobench_guided_db(N);
    let sql = "select did from nobench where json_exists(jdoc, '$.persno')";
    let explain = session.explain(sql, &[]).unwrap();
    assert!(explain.contains("FA001"), "{explain}");
    assert!(explain.contains("plan:"), "{explain}");
    assert!(explain.contains("JSON_EXISTS"), "the pre-rewrite plan keeps the predicate: {explain}");
    assert!(explain.contains("optimized:"), "{explain}");
    assert!(explain.contains("Filter pred=false"), "the rewrite is visible: {explain}");
    // a SELECT the planner rejects says why; only a statement that is no
    // SELECT at all (DDL) does not plan
    let unknown = session.explain("select nosuch from nobench", &[]).unwrap();
    assert!(unknown.contains("plan: error: "), "{unknown}");
    assert!(unknown.contains("nosuch"), "the planner's message is kept: {unknown}");
    let ddl = session.explain("create table t (a number)", &[]).unwrap();
    assert!(ddl.contains("plan: (statement does not plan"), "{ddl}");
}

#[test]
fn live_predicates_survive_pruning_untouched() {
    let mut session = nobench_guided_db(N);
    let sql = "select did from nobench where json_exists(jdoc, '$.sparse_110')";
    let explain = session.explain(sql, &[]).unwrap();
    assert!(!explain.contains("pred=false"), "{explain}");
    let rows = session.execute(sql).unwrap().rows.len();
    assert!(rows > 0, "sparse_110 exists in ~1% of {N} docs");
}
