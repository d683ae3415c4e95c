//! A statement's `QueryProfile::counts` are its own. Four sessions share
//! one NOBENCH database with the OSON-IMC populated and each runs Q4, Q8,
//! Q9 and Q11; every statement must report exactly the counts it makes when
//! it runs alone, at degree 1 and at degree 4, and two solo runs must
//! agree exactly. Each thread that works for a statement publishes its
//! counts into the statement's tally alone, so nothing a concurrent
//! session counts can reach it.
//!
//! Most counts do not depend on which worker ran which morsel. The
//! look-back cache and the dictionary searches behind its misses do: each
//! worker's `EvalScratch` resolves a name once, so at degree 4 their split
//! follows how many workers claimed morsels, which races. For those the
//! test holds what is fixed: hits plus misses (every field resolution is
//! one of the two) exactly, and each of the others between the solo
//! degree-1 count and that many times the degree.
//!
//! `imc.oson.members_skipped` is one of the exact counts: Q4 and Q9 skip
//! every member their sparse names' lists leave out, and Q8 and Q11,
//! which read dense names, skip none.

use fsdm::obs::catalog;
use fsdm::store::{Database, Query, Run};
use fsdm_bench::setup::{nobench_db, nobench_plans};

const SCALE: usize = 300;
const SESSIONS: usize = 4;
const DEGREES: [usize; 2] = [1, 4];
/// Rows per morsel: five morsels per scan, so degree 4 fans out.
const MORSEL_ROWS: usize = 64;

/// Counts that follow the split of morsels between workers.
const PER_WORKER: [&str; 5] = [
    catalog::OSON_DICT_LOOKUPS,
    catalog::OSON_DICT_PROBES,
    catalog::SQLJSON_LOOKBACK_ABSENT,
    catalog::SQLJSON_LOOKBACK_HIT,
    catalog::SQLJSON_LOOKBACK_MISS,
];

type Counts = Vec<(&'static str, u64)>;

/// Each plan's label and the counts its report carries.
fn counts_of(db: &Database, plans: &[(String, Query)]) -> Vec<(String, Counts)> {
    plans
        .iter()
        .map(|(label, plan)| {
            let (_, report) = db.run(plan, &Run::default()).expect("NOBENCH query runs");
            (label.clone(), report.counts)
        })
        .collect()
}

fn count(counts: &Counts, name: &str) -> u64 {
    counts.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
}

/// The counts the split of morsels cannot move: all but [`PER_WORKER`],
/// and the look-back's resolutions.
fn settled(counts: &Counts) -> Counts {
    let mut out: Counts = counts.iter().filter(|(n, _)| !PER_WORKER.contains(n)).copied().collect();
    let resolutions = count(counts, catalog::SQLJSON_LOOKBACK_HIT)
        + count(counts, catalog::SQLJSON_LOOKBACK_MISS);
    out.push(("lookback hits + misses", resolutions));
    out
}

#[test]
fn each_statement_reports_its_own_counts_beside_concurrent_sessions() {
    let mut session = nobench_db(SCALE);
    session.db.table_mut("nobench").unwrap().populate_oson_imc().unwrap();
    session.db.set_morsel_rows(MORSEL_ROWS);
    let plans: Vec<(String, Query)> = nobench_plans(&session, SCALE)
        .into_iter()
        .filter(|(label, _)| matches!(label.as_str(), "Q4" | "Q8" | "Q9" | "Q11"))
        .collect();
    assert_eq!(plans.len(), 4);

    // the members each statement opens: those its sparse names' lists hold
    let set = session.db.table("nobench").unwrap().imc.oson_set().unwrap();
    let users = |name: &str| set.members_with(name).expect("a sparse name keeps its list");
    let mut q4: Vec<u32> = [users("sparse_110"), users("sparse_220")].concat();
    q4.sort_unstable();
    q4.dedup();
    let skipped = |opened: usize| (SCALE - opened) as u64;
    let want_skipped = [skipped(q4.len()), 0, skipped(users("sparse_550").len()), 0];
    assert!(want_skipped[0] > 0 && want_skipped[2] > 0);

    session.set_parallelism(1);
    let solo = counts_of(&session.db, &plans);
    assert_eq!(counts_of(&session.db, &plans), solo, "two solo runs agree exactly");
    for ((label, counts), want) in solo.iter().zip(want_skipped) {
        assert_eq!(count(counts, catalog::IMC_OSON_MEMBERS_SKIPPED), want, "{label} skips");
        assert!(count(counts, catalog::SQLJSON_EVAL_PATHS) > 0, "{label} evaluates paths");
        assert!(count(counts, catalog::OSON_NODE_LOOKUPS) > 0, "{label} reads the OSON-IMC");
        assert_eq!(count(counts, catalog::STORE_EXEC_QUERIES), 1, "{label} is one statement");
    }

    for degree in DEGREES {
        session.set_parallelism(degree);
        let db = &session.db;
        #[expect(clippy::disallowed_methods, reason = "concurrent sessions are the subject")]
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..SESSIONS).map(|_| scope.spawn(|| counts_of(db, &plans))).collect();
            for (tid, worker) in workers.into_iter().enumerate() {
                let got = worker.join().expect("session thread panicked");
                for ((label, counts), (_, alone)) in got.iter().zip(&solo) {
                    let at = format!("{label} in session {tid} at degree {degree}");
                    if degree == 1 {
                        assert_eq!(counts, alone, "{at}");
                        continue;
                    }
                    assert_eq!(settled(counts), settled(alone), "{at}");
                    // a worker's first resolution of each name misses;
                    // the hits are what the exact sum leaves
                    for name in
                        PER_WORKER.into_iter().filter(|&n| n != catalog::SQLJSON_LOOKBACK_HIT)
                    {
                        let (n, one) = (count(counts, name), count(alone, name));
                        let most = one * degree as u64;
                        assert!(
                            (one..=most).contains(&n),
                            "{at}: {name} {n} not in {one}..={most}"
                        );
                    }
                }
            }
        });
    }
}
