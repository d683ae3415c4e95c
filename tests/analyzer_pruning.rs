//! Tier-1: the analyzer ↔ optimizer handshake. FA001 (unknown path) is
//! the optimizer's proof obligation for the dead-predicate scan rewrite,
//! so enabling pruning must never change any result — it only replaces
//! row loops that cannot match with a constant-false scan — and EXPLAIN
//! must show both the diagnostic and the rewritten plan.

use fsdm_sql::Session;
use fsdm_workloads::nobench;

use fsdm_bench::setup::{nobench_guided_db, nobench_q5_bind};

const N: usize = 400;

/// Row counts for the NOBENCH query set plus two statements whose JSON
/// predicates are provably dead against the corpus.
fn results_for(session: &mut Session, pruning: bool) -> Vec<(String, usize)> {
    session.db.set_dead_path_pruning(pruning);
    let mut out = Vec::new();
    for q in 1..=10 {
        let sql = nobench::query_sql(q, N);
        let binds = if q == 5 { vec![nobench_q5_bind(N)] } else { vec![] };
        let rows = session.execute_with(&sql, &binds).unwrap().rows.len();
        out.push((format!("Q{q}"), rows));
    }
    for (label, sql) in [
        ("dead-exists", "select did from nobench where json_exists(jdoc, '$.persno')"),
        ("dead-value", "select did from nobench where json_value(jdoc, '$.persno') = 'x'"),
    ] {
        out.push((label.to_string(), session.execute(sql).unwrap().rows.len()));
    }
    out
}

#[test]
fn pruning_is_result_identical_over_nobench() {
    let mut session = nobench_guided_db(N);
    let off = results_for(&mut session, false);
    let on = results_for(&mut session, true);
    assert_eq!(off, on, "dead-path pruning changed a result");
    // the workload queries actually return rows, and the dead statements
    // actually return none — the comparison is not vacuous
    assert!(off.iter().any(|(_, rows)| *rows > 0), "{off:?}");
    assert!(off.iter().rev().take(2).all(|(_, rows)| *rows == 0), "{off:?}");
}

#[test]
fn explain_shows_the_diagnostic_and_the_rewrite() {
    let mut session = nobench_guided_db(N);
    session.db.set_dead_path_pruning(true);
    let sql = "select did from nobench where json_exists(jdoc, '$.persno')";
    let explain = session.explain(sql, &[]).unwrap();
    assert!(explain.contains("FA001"), "{explain}");
    assert!(explain.contains("plan:"), "{explain}");
    assert!(explain.contains("JSON_EXISTS"), "the pre-rewrite plan keeps the predicate: {explain}");
    assert!(explain.contains("optimized:"), "{explain}");
    assert!(explain.contains("filter=false"), "the rewrite is visible: {explain}");
    // with pruning off the optimized plan keeps the live predicate
    session.db.set_dead_path_pruning(false);
    let explain_off = session.explain(sql, &[]).unwrap();
    assert!(!explain_off.contains("filter=false"), "{explain_off}");
    assert!(explain_off.contains("FA001"), "diagnostics do not depend on the flag: {explain_off}");
    // a SELECT the planner rejects says why; only a statement that is no
    // plan at all (DDL, JSON_DATAGUIDEAGG) says so
    let unknown = session.explain("select nosuch from nobench", &[]).unwrap();
    assert!(unknown.contains("plan: error: "), "{unknown}");
    assert!(unknown.contains("nosuch"), "the planner's message is kept: {unknown}");
    for not_a_plan in ["create table t (a number)", "select json_dataguideagg(jdoc) from nobench"] {
        let explain = session.explain(not_a_plan, &[]).unwrap();
        assert!(explain.contains("plan: (statement does not plan"), "{not_a_plan}: {explain}");
    }
}

#[test]
fn live_predicates_survive_pruning_untouched() {
    let mut session = nobench_guided_db(N);
    session.db.set_dead_path_pruning(true);
    let sql = "select did from nobench where json_exists(jdoc, '$.sparse_110')";
    let explain = session.explain(sql, &[]).unwrap();
    assert!(!explain.contains("filter=false"), "{explain}");
    let rows = session.execute(sql).unwrap().rows.len();
    assert!(rows > 0, "sparse_110 exists in ~1% of {N} docs");
}
