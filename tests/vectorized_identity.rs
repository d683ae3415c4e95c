//! Integration test: the batch spine and the optimizer are invisible in
//! results. With the NOBENCH Q1–Q3 virtual columns materialized into the
//! VC-IMC, every workload query — NOBENCH Q1–Q11 and the OLAP Table-13
//! set — must return `Debug`-identical `QueryResult`s with the spine on and
//! off (off = the row evaluator, the oracle) and the optimizer on and off,
//! at degree 1 and 4, under a tiny morsel size that forces many batches
//! per scan. The statements that read a
//! path with no vector (Q4, Q7–Q11) are additionally held identical
//! across IMC states and storage formats, and a hand-built corpus pins
//! the corner cases of transient columns. On top of identity, every
//! scan-rooted operator must actually *take* the spine (EXPLAIN shows
//! `mode=columnar`, and names the transient columns it ran on).

use fsdm::sql::Session;
use fsdm::sqljson::Datum;
use fsdm::store::{
    Cell, ColType, ColumnSpec, ConstraintMode, Database, InsertValue, JsonStorage, Query,
    QueryResult, Run, Table, TableSchema,
};
use fsdm_bench::setup::{
    add_nobench_columnar_vcs, bind_datum, nobench_db, nobench_q11_plan, nobench_q5_bind, olap_db,
    olap_queries, rowwise_plans, scan_rooted_row_operators, StorageMethod,
};
use fsdm_store::optimizer::optimize;
use fsdm_store::{infer, rewrite_violations};

const DEGREES: [usize; 2] = [1, 4];

/// `plan` run through [`Database::run`] with the optimizer on or off: the
/// result, or the error's text.
fn run(db: &Database, plan: &Query, optimize: bool) -> Result<QueryResult, String> {
    let how = Run { optimize, ..Run::default() };
    db.run(plan, &how).map(|(result, _)| result).map_err(|e| e.to_string())
}

/// `sql` planned by `session`, then [`run`].
fn run_sql(
    session: &Session,
    sql: &str,
    binds: &[Datum],
    optimize: bool,
) -> Result<QueryResult, String> {
    let plan = session.plan(sql, binds).map_err(|e| e.to_string())?;
    run(&session.db, &plan, optimize)
}

#[test]
fn nobench_columnar_identical_to_row_at_every_degree() {
    let n = 500;
    let mut session = nobench_db(n);
    add_nobench_columnar_vcs(&mut session);
    session.db.set_morsel_rows(64); // ~8 batches per scan even at n=500
    let queries: Vec<(String, Vec<Datum>)> = (1..=10)
        .map(|q| {
            let sql = fsdm::workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            (sql, binds)
        })
        .collect();
    let q11 = nobench_q11_plan(n, false);
    let results = on_off_identical(&mut session, &|session, optimize| {
        let mut results: Vec<_> =
            queries.iter().map(|(sql, binds)| run_sql(session, sql, binds, optimize)).collect();
        results.push(run(&session.db, &q11, optimize));
        results.iter().map(|r| format!("{r:?}")).collect()
    });
    assert!(results.iter().all(|r| r.starts_with("Ok")), "{results:#?}");
}

/// T1–T9 through `po_mv` and `po_item_dmdv` — `JSON_TABLE` with the
/// view's consumers fused on top — return `Debug`-identical rows in
/// identical order with the spine on and off and the optimizer on and off,
/// at degree 1 and 4, over text, BSON and OSON storage alike (and,
/// separately, over the relational decomposition). The §6.3 pushdown
/// still prunes: the ablation's statement expands no document.
#[test]
fn olap_columnar_identical_to_row_at_every_degree() {
    let n = 300;
    let queries = olap_queries(n);
    let mut across_storages = None;
    for method in StorageMethod::ALL {
        let mut session = olap_db(method, n);
        session.db.set_morsel_rows(32);
        let results = on_off_identical(&mut session, &|session, optimize| {
            let results = queries.iter().map(|q| {
                let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
                format!("{:?}", run_sql(session, &q.sql, &binds, optimize))
            });
            results.collect()
        });
        assert!(results.iter().all(|r| r.starts_with("Ok")), "{}: {results:#?}", method.label());
        if method != StorageMethod::Rel {
            match &across_storages {
                None => across_storages = Some(results),
                Some(first) => assert_eq!(&results, first, "{}", method.label()),
            }
        }
    }
    let session = olap_db(StorageMethod::Oson, n);
    let sql = "select count(*) from po_item_dmdv where partno = 'no-such-part'";
    let plan = session.plan(sql, &[]).unwrap();
    let (_, report) = session.db.run(&plan, &Run::default()).unwrap();
    let probe = &report.find("JsonTable").unwrap().children[0];
    let scan = &probe.children[0];
    assert_eq!((probe.op.as_str(), probe.rows_out), ("Filter", 0), "{}", report.render());
    assert_eq!((scan.op.as_str(), scan.rows_out), ("Scan(po)", n), "{}", report.render());
}

/// A `(did, jdoc)` collection named `name` holding `docs` in `storage`
/// under `constraint`.
fn collection(
    name: &str,
    docs: &[String],
    storage: JsonStorage,
    constraint: ConstraintMode,
) -> Session {
    let mut t = Table::new(TableSchema::new(
        name,
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", storage, constraint),
        ],
    ));
    for (i, d) in docs.iter().enumerate() {
        t.insert(vec![(i as i64).into(), InsertValue::Json(d.clone())]).unwrap();
    }
    let mut session = Session::new();
    session.db.add_table(t);
    session
}

/// Every statement at degree {1,4} with the spine off and on, and with
/// the optimizer (the argument `run` is handed) off and on; all eight runs
/// must agree to the `Debug` rendering, and the agreed results are
/// returned.
fn on_off_identical<T: std::fmt::Debug>(
    session: &mut Session,
    run: &dyn Fn(&Session, bool) -> Vec<T>,
) -> Vec<T> {
    let mut baseline: Option<Vec<T>> = None;
    for degree in DEGREES {
        session.set_parallelism(degree);
        for columnar in [false, true] {
            session.db.set_columnar(columnar);
            for optimize in [false, true] {
                let results = run(session, optimize);
                match &baseline {
                    None => baseline = Some(results),
                    Some(b) => assert_eq!(
                        format!("{results:?}"),
                        format!("{b:?}"),
                        "columnar={columnar} optimize={optimize} degree={degree} diverged"
                    ),
                }
            }
        }
    }
    session.db.set_columnar(true);
    baseline.expect("at least one run")
}

/// The transient DataGuide as an aggregate of the plan: keyless on the
/// spine, over a `SAMPLE` (which keeps it on the row evaluator), and one
/// guide per key. The accumulation replays in row order, so the guide's
/// text is the same at every degree — and, the documents being the same,
/// over every storage.
const GUIDES: [&str; 3] = [
    "select json_dataguideagg(jdoc) from nobench",
    "select json_dataguideagg(jdoc) from nobench sample (50)",
    "select json_dataguideagg(jdoc), json_value(jdoc, '$.bool') from nobench \
     group by json_value(jdoc, '$.bool')",
];

/// The statements `nobench.path` and `nobench.text` watch — Q1, Q3, Q4,
/// Q6–Q11 — are identical across spine on/off × degree {1,4} × {no IMC,
/// OSON-IMC, OSON-IMC + `nbq$*` vectors} × storage {checked text (`IS
/// JSON`), validating text (no constraint), BSON, OSON}: transient columns
/// extract from OSON-IMC set members or stored cells alike, and a text pass that
/// ends early over checked text answers as one that reads it all.
/// So are the [`GUIDES`] and the row-wise corpus ([`rowwise_plans`]: every
/// kind of expression no kernel expresses, lowered row-wise on the spine
/// over leaves that read the vectors where they exist, computed from the
/// documents by the oracle), `Debug`-identical and errors included — with
/// the optimizer on and off.
#[test]
fn path_queries_identical_across_imc_states_and_storages() {
    let n = 400;
    let text = nobench_db(n);
    let docs: Vec<String> = text
        .db
        .table("nobench")
        .unwrap()
        .rows()
        .iter()
        .map(|r| match &r[1] {
            Cell::J(j) => j.decode_to_text(),
            Cell::D(_) => unreachable!("jdoc is the JSON column"),
        })
        .collect();
    let q11 = nobench_q11_plan(n, false);
    let mut expected: Option<Vec<String>> = None;
    let stores = [
        (JsonStorage::Text, ConstraintMode::IsJson),
        (JsonStorage::Text, ConstraintMode::None),
        (JsonStorage::Bson, ConstraintMode::IsJson),
        (JsonStorage::Oson, ConstraintMode::IsJson),
    ];
    for (storage, constraint) in stores {
        let mut session = collection("nobench", &docs, storage, constraint);
        session.db.set_morsel_rows(48);
        let rowwise = rowwise_plans(&mut session);
        let statements = |session: &Session, optimize| -> Vec<String> {
            let sql = |q| fsdm::workloads::nobench::query_sql(q, n);
            let mut out: Vec<_> = [1, 3, 4, 6, 7, 8, 9, 10]
                .iter()
                .map(|q| run_sql(session, &sql(*q), &[], optimize))
                .collect();
            out.push(run(&session.db, &q11, optimize));
            out.extend(GUIDES.iter().map(|sql| run_sql(session, sql, &[], optimize)));
            out.extend(rowwise.iter().map(|(_, plan)| run(&session.db, plan, optimize)));
            out.iter().map(|r| format!("{r:?}")).collect()
        };
        for imc in ["none", "oson", "oson+vectors"] {
            match imc {
                "oson" => {
                    let table = session.db.table_mut("nobench").unwrap();
                    table.populate_oson_imc().unwrap();
                    // past 256 names, members write two-byte field ids:
                    // those are on the compared path
                    let names = table.imc.oson_set().unwrap().dictionary().len();
                    assert!(names > 256, "the set's dictionary holds {names} names");
                }
                "oson+vectors" => add_nobench_columnar_vcs(&mut session),
                _ => {}
            }
            let got = on_off_identical(&mut session, &statements);
            match &expected {
                None => expected = Some(got),
                Some(e) => assert_eq!(
                    &got, e,
                    "{storage:?} ({constraint:?}) with IMC {imc} diverged from checked text"
                ),
            }
        }
    }
    // every statement selects something, but for the row-wise corpus's
    // two over a computed view column: no row reaches the one, every row
    // errs in the other
    let empty = |r: &&String| r.starts_with("Err") || r.contains("rows: []");
    let odd: Vec<&String> = expected.as_ref().unwrap().iter().filter(empty).collect();
    assert_eq!(odd.len(), 2, "{odd:#?}");
    assert!(odd[1].contains("JSON_VALUE on non-JSON column"), "{}", odd[1]);
}

/// The corner cases of transient columns on a corpus built for them:
/// a type-varying field under `RETURNING number` (NULL on error, exactly
/// as the row path), a path absent from whole morsels, lax array
/// unwrapping under a filter step, `OR` over one resident and one
/// transient leaf with Kleene unknowns, a filter nothing survives, a
/// slot two outputs read (the gather moves a value out only for a slot's
/// one reader), and a document cell rendered where the result row is
/// built. Resident vectors change no answer: every statement returns the
/// same rows before the vectors are populated and after, among them
/// numbers past `i64` and past `f64`'s digits under a vector, and a
/// `RETURNING any` column whose values mix kinds.
#[test]
fn transient_column_corner_cases_match_the_row_evaluator() {
    let mut docs: Vec<String> = (0..96)
        .map(|i| {
            // number in even docs, string in odd; every 8th string numeric
            let dyn1 = match i % 2 {
                0 => i.to_string(),
                _ if i % 8 == 1 => format!("\"{i}\""),
                _ => format!("\"s{i}\""),
            };
            // an array, a bare scalar (lax wraps it), or missing
            let arr = match i % 3 {
                0 => format!(",\"arr\":[\"b{i}\",\"a{i}\"]"),
                1 => ",\"arr\":\"apple\"".to_string(),
                _ => String::new(),
            };
            // `rare` is absent from the first two 32-row morsels; `a` and
            // `b` are NULL on different rows
            let rare = if i >= 64 { ",\"rare\":true" } else { "" };
            let a = if i % 4 == 0 { String::new() } else { format!(",\"a\":{}", i % 10) };
            let b = if i % 5 == 0 { String::new() } else { format!(",\"b\":{}", i % 7) };
            format!("{{\"dyn1\":{dyn1}{arr}{rare}{a}{b}}}")
        })
        .collect();
    // numbers a vector must hold exactly, and `m` of three kinds
    docs.extend(
        [
            r#"{"a":12345678901234567891,"m":5}"#,
            r#"{"a":12345678901234567890,"m":"abc"}"#,
            r#"{"a":0.12345678901234567891,"m":true}"#,
            r#"{"a":0.12345678901234567890}"#,
        ]
        .map(String::from),
    );
    let statements = [
        "select did, json_value(jdoc, '$.dyn1' returning number) from t",
        "select json_value(jdoc, '$.dyn1') from t \
         where json_value(jdoc, '$.dyn1' returning number) between 10 and 60",
        "select did from t where json_exists(jdoc, '$.rare')",
        "select did from t where json_exists(jdoc, '$.arr?(@ starts with \"a\")')",
        "select did from t where json_value(jdoc, '$.a' returning number) > 5 \
         or json_value(jdoc, '$.b' returning number) > 2",
        "select did from t where not (json_value(jdoc, '$.a' returning number) > 5 \
         or json_value(jdoc, '$.b' returning number) > 2)",
        "select json_value(jdoc, '$.dyn1') from t where json_exists(jdoc, '$.nowhere')",
        // one slot, two readers: neither gather may move its values out
        "select json_value(jdoc, '$.dyn1'), json_value(jdoc, '$.dyn1') from t",
        "select json_value(jdoc, '$.b' returning number), \
         json_value(jdoc, '$.b' returning number) * 2 from t",
        // a document cell, rendered as text where the row is built
        "select did, jdoc from t where json_exists(jdoc, '$.rare')",
        // exact numbers under the vector of `$.a`
        "select did, json_value(jdoc, '$.a' returning number) from t where did >= 96",
        "select did from t where json_value(jdoc, '$.a' returning number) = 12345678901234567891",
        "select count(*) from t where json_value(jdoc, '$.a' returning number) \
         > 0.12345678901234567890 and json_value(jdoc, '$.a' returning number) < 1",
        // a `RETURNING any` column of mixed kinds: each value is itself,
        // and `5 < '10'` compares numbers
        "select did, \"t$m\" from t where did >= 96",
        "select did from t where \"t$m\" < '10'",
    ];
    let run_all = |session: &Session, optimize| -> Vec<QueryResult> {
        statements.iter().map(|sql| run_sql(session, sql, &[], optimize).unwrap()).collect()
    };
    let mut expected: Option<Vec<QueryResult>> = None;
    for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
        let mut session = collection("t", &docs, storage, ConstraintMode::IsJson);
        session.db.set_morsel_rows(32);
        let t = session.db.table_mut("t").unwrap();
        t.populate_oson_imc().unwrap();
        let path = |p: &str| fsdm::sqljson::parse_path(p).unwrap();
        let vc = |p, ty| fsdm::store::Expr::json_value(1, path(p), ty);
        t.add_virtual_column("t$a", vc("$.a", fsdm::sqljson::SqlType::Number));
        t.add_virtual_column("t$m", vc("$.m", fsdm::sqljson::SqlType::Any));
        // a document renders in its own format's member order (OSON's is
        // its dictionary's): checked here, then left out of the
        // comparison across storages
        let run_all = |session: &mut Session| {
            let mut got = on_off_identical(session, &run_all);
            for row in &mut got[9].rows {
                let text = row.pop();
                assert!(
                    matches!(&text, Some(Datum::Str(t)) if t.contains("\"rare\":true")),
                    "{storage:?}: {text:?}"
                );
            }
            got
        };
        let without = run_all(&mut session);
        // `$.a` and `$.m` get resident vectors, `$.b` stays transient
        let t = session.db.table_mut("t").unwrap();
        t.populate_vc_imc(&["t$a", "t$m"]).unwrap();
        let plan = session.plan(statements[7], &[]).unwrap();
        let explain = session.db.explain_modes(&plan);
        assert_eq!(explain.matches("JSON_VALUE(").count(), 1, "one shared slot: {explain}");
        let got = run_all(&mut session);
        assert_eq!(format!("{got:?}"), format!("{without:?}"), "{storage:?}: a vector changed");
        // BSON keeps a number no double holds as a decimal128, so the
        // exact numbers answer alike in every storage
        match &expected {
            None => expected = Some(got),
            Some(e) => {
                for (i, (got, e)) in got.iter().zip(e).enumerate() {
                    assert_eq!(got, e, "{storage:?} diverged from text on statement {i}");
                }
            }
        }
    }
    let r = expected.unwrap();
    // RETURNING number over the type-varying field: numbers and numeric
    // strings convert, every other string is NULL on error
    let num = |i: usize| &r[0].rows[i][1];
    assert_eq!((num(4), num(9), num(3)), (&Datum::from(4i64), &Datum::from(9i64), &Datum::Null));
    // 26 even numbers in 10..=60, and the numeric strings 17,25,…,57
    assert_eq!(r[1].rows.len(), 26 + 6);
    assert_eq!(r[2].rows.len(), 32, "`rare` lives in the last morsel only");
    // arrays hold "a{i}" (i % 3 == 0), bare "apple" is wrapped (i % 3 == 1)
    assert_eq!(r[3].rows.len(), 64);
    // OR keeps a row when either side is true even if the other is
    // unknown; NOT rejects the rows whose OR is unknown
    let (or, nor) = (r[4].rows.len(), r[5].rows.len());
    let unknown = (0..96usize)
        .filter(|i| {
            let a = (i % 4 != 0).then_some(i % 10 > 5);
            let b = (i % 5 != 0).then_some(i % 7 > 2);
            a != Some(true) && b != Some(true) && (a.is_none() || b.is_none())
        })
        .count();
    // the last four: two `$.a` above 5, two below it with no `$.b`
    let unknown = unknown + 2;
    assert!(unknown > 2 && or + nor + unknown == 100, "{or} + {nor} + {unknown} rows");
    assert!(r[6].rows.is_empty());
    // both readers of a shared slot see every value
    for shared in [&r[7], &r[8]] {
        assert_eq!(shared.rows.len(), 100);
        assert!(shared.rows.iter().any(|row| !row[0].is_null()));
    }
    assert!(r[7].rows.iter().all(|row| row[0] == row[1]));
    assert_eq!(r[8].rows[1][1], Datum::from(2i64), "$.b of document 1 is 1");
    assert_eq!(r[9].rows.len(), 32);
    // the numbers as written, none rounded to a neighbour
    let exact = |s: &str| Datum::Num(fsdm::json::JsonNumber::from_literal(s).unwrap());
    let a = ["12345678901234567891", "12345678901234567890", "0.12345678901234567891"];
    for (row, a) in r[10].rows.iter().zip(a) {
        assert_eq!(format!("{:?}", row[1]), format!("{:?}", exact(a)), "{a}");
    }
    assert_eq!(r[11].rows, [[Datum::from(96i64)]]);
    assert_eq!(r[12].rows, [[Datum::from(1i64)]]);
    let m = [Datum::from(5i64), Datum::from("abc"), Datum::Bool(true), Datum::Null];
    assert_eq!(r[13].rows.iter().map(|row| row[1].clone()).collect::<Vec<_>>(), m);
    assert_eq!(r[14].rows, [[Datum::from(96i64)]]);
}

/// The acceptance gate on pipeline *selection*: every scan-rooted
/// operator runs on the spine — over resident vectors where a virtual
/// column materializes the statement's expression (no annotation), over
/// transient columns otherwise (named in EXPLAIN) — and with the spine
/// switched off the same plans report `mode=row`.
#[test]
fn explain_marks_scan_rooted_operators_columnar() {
    let n = 200;
    let mut session = nobench_db(n);
    add_nobench_columnar_vcs(&mut session);
    for q in 1..=3 {
        let sql = fsdm::workloads::nobench::query_sql(q, n);
        let text = session.explain(&sql, &[]).unwrap();
        assert!(text.contains("mode=columnar"), "Q{q} not columnar:\n{text}");
        assert!(!text.contains("transient="), "Q{q} reads resident vectors only:\n{text}");
        assert!(!text.contains("mode=row"), "Q{q}:\n{text}");

        let plan = session.plan(&sql, &[]).unwrap();
        let mode = |db: &Database| db.run(&plan, &Run::default()).unwrap().1.root.mode;
        assert_eq!(mode(&session.db), "columnar", "Q{q}");
        session.db.set_columnar(false);
        assert_eq!(mode(&session.db), "row", "Q{q} with the spine off");
        session.db.set_columnar(true);
    }
    // a path no vector covers becomes a transient column, by name
    let text = session.explain(&fsdm::workloads::nobench::query_sql(8, n), &[]).unwrap();
    assert!(text.contains("mode=columnar  transient=[JSON_EXISTS(col#1, "), "Q8:\n{text}");
    // an expression no kernel expresses runs row-wise on the spine, and
    // EXPLAIN says which
    let text = session
        .explain(
            "select did from nobench where substr(json_value(jdoc, '$.str1'), 1, 1) = 'a'",
            &[],
        )
        .unwrap();
    assert!(text.contains("mode=columnar  rowwise=[(Substr[JSON_VALUE("), "{text}");
    // the row-wise corpus runs row-wise on the spine — all of it but the
    // SQL/JSON operator through a view's renaming (R9), which binds a path
    // — and no operator of a scan-rooted chain runs on the row evaluator,
    // by the report or by EXPLAIN
    for (label, plan) in rowwise_plans(&mut session) {
        let explain = session.db.explain_modes(&optimize(&session.db, plan.clone()));
        assert_eq!(explain.contains("rowwise=["), label != "R9", "{label}:\n{explain}");
        let rows = explain.matches("mode=row").count();
        match session.db.run(&plan, &Run::default()) {
            Ok((_, report)) => {
                let stray = scan_rooted_row_operators(&report.root);
                assert!(stray.is_empty(), "{label}: {stray:?}\n{explain}");
                assert_eq!(report.ops().iter().filter(|o| o.mode == "row").count(), rows);
            }
            Err(_) => assert_eq!(rows, 0, "{label}:\n{explain}"),
        }
    }
}

/// Planck soundness with resident vectors present: the optimized plan's
/// inferred schema matches the original's, with no rewrite violations,
/// for the whole workload set.
#[test]
fn optimized_plans_stay_translation_valid_with_resident_vectors() {
    let n = 200;
    let mut session = nobench_db(n);
    add_nobench_columnar_vcs(&mut session);
    for q in 1..=10 {
        let sql = fsdm::workloads::nobench::query_sql(q, n);
        let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
        let plan = session.plan(&sql, &binds).unwrap();
        let optimized = optimize(&session.db, plan.clone());
        let violations = rewrite_violations(&session.db, &plan, &optimized);
        assert!(violations.is_empty(), "Q{q}: {violations:?}");
        assert_eq!(
            infer(&session.db, &plan).schema.render(),
            infer(&session.db, &optimized).schema.render(),
            "Q{q} schema drifted"
        );
    }
    let q11 = nobench_q11_plan(n, false);
    let optimized = optimize(&session.db, q11.clone());
    let violations = rewrite_violations(&session.db, &q11, &optimized);
    assert!(violations.is_empty(), "Q11: {violations:?}");
}
