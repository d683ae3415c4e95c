//! Integration test: the morsel-driven parallel executor is invisible in
//! results. Every workload query — NOBENCH Q1–Q11 and the OLAP Table-13
//! set — must return byte-identical `QueryResult`s at degree 1, 2 and 8,
//! including the row order produced by Sort ties and Window/LAG over a
//! tie-heavy key. A tiny morsel size forces many morsels per operator so
//! the cross-morsel reassembly actually gets exercised at small scales.

use fsdm::sqljson::Datum;
use fsdm_bench::setup::{
    add_nobench_columnar_vcs, bind_datum, nobench_db, nobench_q11_plan, nobench_q5_bind, olap_db,
    olap_queries, StorageMethod,
};

const DEGREES: [usize; 3] = [1, 2, 8];

#[test]
fn nobench_results_identical_at_every_degree() {
    let n = 500;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(64); // ~8 morsels per scan even at n=500
    let mut queries: Vec<(String, Vec<Datum>)> = (1..=10)
        .map(|q| {
            let sql = fsdm::workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            (sql, binds)
        })
        .collect();
    // the transient DataGuide: keyless, sampled, and one guide per key
    for guide in [
        "from nobench",
        "from nobench sample (50)",
        ", json_value(jdoc, '$.bool') from nobench group by json_value(jdoc, '$.bool')",
    ] {
        queries.push((format!("select json_dataguideagg(jdoc) {guide}"), vec![]));
    }
    queries.push((String::new(), vec![])); // placeholder slot for Q11 below
    let q11 = nobench_q11_plan(n, false);

    let mut baseline = None;
    for degree in DEGREES {
        session.set_parallelism(degree);
        let mut results = Vec::new();
        for (sql, binds) in &queries {
            if sql.is_empty() {
                results.push(session.db.execute(&q11).unwrap());
            } else {
                results.push(session.execute_with(sql, binds).unwrap());
            }
        }
        match &baseline {
            None => baseline = Some(results),
            Some(b) => assert_eq!(&results, b, "degree {degree} diverged from degree 1"),
        }
    }
}

/// The fused scan's transient columns are morsel-local, so the degree
/// must be invisible there too: with the OSON-IMC and the `nbq$*`
/// vectors resident, the statements that still read a vector-less path
/// (Q4, Q7–Q11: resident and transient leaves in one pipeline, a fused
/// keyed group-by, both sides of the join) agree at every degree, across
/// morsel seams of 16 rows.
#[test]
fn transient_columns_identical_at_every_degree() {
    let n = 500;
    let mut session = nobench_db(n);
    session.db.table_mut("nobench").unwrap().populate_oson_imc().unwrap();
    add_nobench_columnar_vcs(&mut session);
    session.db.set_morsel_rows(16);
    let q11 = nobench_q11_plan(n, false);
    let mut baseline = None;
    for degree in DEGREES {
        session.set_parallelism(degree);
        let mut results: Vec<_> = [4, 7, 8, 9, 10]
            .iter()
            .map(|q| session.execute(&fsdm::workloads::nobench::query_sql(*q, n)).unwrap())
            .collect();
        results.push(session.db.execute(&q11).unwrap());
        match &baseline {
            None => baseline = Some(results),
            Some(b) => assert_eq!(&results, b, "degree {degree} diverged from degree 1"),
        }
    }
}

#[test]
fn olap_results_identical_at_every_degree() {
    let n = 300;
    let queries = olap_queries(n);
    for method in [StorageMethod::Oson, StorageMethod::Rel] {
        let mut session = olap_db(method, n);
        session.db.set_morsel_rows(32);
        let mut baseline = None;
        for degree in DEGREES {
            session.set_parallelism(degree);
            let results: Vec<_> = queries
                .iter()
                .map(|q| {
                    let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
                    session.execute_with(&q.sql, &binds).unwrap()
                })
                .collect();
            match &baseline {
                None => baseline = Some(results),
                Some(b) => {
                    assert_eq!(&results, b, "{}: degree {degree} diverged", method.label())
                }
            }
        }
    }
}

/// Sort on a two-valued key (`$.bool`) makes almost every row a tie, and
/// LAG over the same ordering reads its neighbor across morsel borders:
/// the stable tie order (input order) must survive any degree.
#[test]
fn tie_heavy_sort_and_lag_keep_deterministic_order() {
    let n = 400;
    let mut session = nobench_db(n);
    session.db.set_morsel_rows(16); // 25 morsels: plenty of seams
    let sort_sql = "SELECT did, JSON_VALUE(jdoc, '$.bool') b FROM nobench \
                    ORDER BY JSON_VALUE(jdoc, '$.bool')";
    let lag_sql = "SELECT did, LAG(did, 1, did) OVER (ORDER BY JSON_VALUE(jdoc, '$.bool')) p \
                   FROM nobench";
    let mut baseline = None;
    for degree in DEGREES {
        session.set_parallelism(degree);
        let sorted = session.execute(sort_sql).unwrap();
        let lagged = session.execute(lag_sql).unwrap();
        assert_eq!(sorted.rows.len(), n);
        match &baseline {
            None => baseline = Some((sorted, lagged)),
            Some((s, l)) => {
                assert_eq!(&sorted, s, "sort ties broke at degree {degree}");
                assert_eq!(&lagged, l, "LAG broke at degree {degree}");
            }
        }
    }
}
