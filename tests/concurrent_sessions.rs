//! Integration test: many sessions, one database. N OS threads share a
//! single `&Database` and each replays the full workload — NOBENCH Q1–Q11
//! and the OLAP Table-13 set — while the executor itself fans every query
//! out across its own morsel workers. Every thread must see results
//! byte-identical to a serial (degree 1) baseline, and in debug builds the
//! `RaceOracle` in `run_morsels` asserts the claim/merge protocol on every
//! one of those concurrent queries: morsel claims stay disjoint and
//! exhaustive, merges happen in morsel-index order, and no worker outlives
//! its scope. A tiny morsel size keeps the oracle busy even at small n.

use fsdm::sqljson::Datum;
use fsdm::store::{Query, QueryResult, Run};
use fsdm_bench::setup::{
    bind_datum, nobench_db, nobench_q11_plan, nobench_q5_bind, olap_db, olap_queries, StorageMethod,
};

/// Threads sharing the database. Intentionally larger than the morsel
/// degree so inter-query and intra-query parallelism overlap.
const SESSIONS: usize = 4;

/// Executor degrees the oracle must survive: serial fallback and the
/// real fan-out.
const DEGREES: [usize; 2] = [1, 4];

/// Run every plan once on `db`, in order: the results, and the memory
/// high-water each statement's report carries.
fn run_all(db: &fsdm::store::Database, plans: &[Query]) -> (Vec<QueryResult>, Vec<u64>) {
    let reports = plans.iter().map(|p| db.run(p, &Run::default()).unwrap());
    reports.map(|(result, report)| (result, report.mem_highwater)).unzip()
}

#[test]
fn concurrent_nobench_sessions_match_serial_baseline() {
    let n = 500;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(64); // many morsels per scan: real seams

    // Precompile once; `Database::execute(&Query)` is the `&self` path
    // every thread shares.
    let mut plans: Vec<Query> = (1..=10)
        .map(|q| {
            let sql = fsdm::workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            session.plan(&sql, &binds).unwrap()
        })
        .collect();
    plans.push(nobench_q11_plan(n, false));

    session.set_parallelism(1);
    let (baseline, serial_mem) = run_all(&session.db, &plans);
    assert!(serial_mem.iter().any(|&bytes| bytes > 0), "some statement charges its governor");

    for degree in DEGREES {
        session.set_parallelism(degree);
        let db = &session.db;
        #[expect(clippy::disallowed_methods, reason = "concurrent sessions are the subject")]
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..SESSIONS).map(|_| scope.spawn(|| run_all(db, &plans))).collect();
            for (tid, worker) in workers.into_iter().enumerate() {
                let (results, mem) = worker.join().expect("session thread panicked");
                assert_eq!(
                    results, baseline,
                    "session {tid} at degree {degree} diverged from serial"
                );
                // a statement's high-water is its own: what it charged
                // alone, however many sessions run beside it (the shared
                // `exec.mem.highwater` gauge holds only the last writer's)
                if degree == 1 {
                    assert_eq!(mem, serial_mem, "session {tid} saw another session's memory");
                }
            }
        });
    }
}

#[test]
fn concurrent_olap_sessions_match_serial_baseline() {
    let n = 300;
    let queries = olap_queries(n);
    for method in [StorageMethod::Oson, StorageMethod::Rel] {
        let mut session = olap_db(method, n);
        session.db.set_morsel_rows(32);

        let plans: Vec<Query> = queries
            .iter()
            .map(|q| {
                let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
                session.plan(&q.sql, &binds).unwrap()
            })
            .collect();

        session.set_parallelism(1);
        let (baseline, _) = run_all(&session.db, &plans);

        for degree in DEGREES {
            session.set_parallelism(degree);
            let db = &session.db;
            #[expect(clippy::disallowed_methods, reason = "concurrent sessions are the subject")]
            std::thread::scope(|scope| {
                let workers: Vec<_> =
                    (0..SESSIONS).map(|_| scope.spawn(|| run_all(db, &plans))).collect();
                for (tid, worker) in workers.into_iter().enumerate() {
                    let (results, _) = worker.join().expect("session thread panicked");
                    assert_eq!(
                        results,
                        baseline,
                        "{}: session {tid} at degree {degree} diverged",
                        method.label()
                    );
                }
            });
        }
    }
}
