//! Integration test for the §6.3 predicate pushdown: the optimizer must
//! never change results, only cost.

use fsdm_bench::setup::{bind_datum, olap_db, olap_queries, StorageMethod};
use fsdm_sqljson::Datum;

#[test]
fn pushdown_preserves_every_olap_result() {
    let n = 300;
    let queries = olap_queries(n);
    for method in [StorageMethod::Json, StorageMethod::Oson] {
        let mut session = olap_db(method, n);
        for q in &queries {
            let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
            // optimized path (execute applies the rewrites)
            let optimized = session.execute_with(&q.sql, &binds).unwrap();
            // unoptimized path: plan then execute verbatim
            let plan = session.plan(&q.sql, &binds).unwrap();
            let raw = session.db.execute_unoptimized(&plan).unwrap();
            let mut a = optimized.rows.clone();
            let mut b = raw.rows.clone();
            let key =
                |r: &Vec<Datum>| r.iter().map(|d| d.to_text()).collect::<Vec<_>>().join("\u{1}");
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "Q{} under {:?}", q.id, method);
        }
    }
}

#[test]
fn pushdown_handles_between_and_in() {
    let n = 200;
    let mut session = olap_db(StorageMethod::Oson, n);
    // BETWEEN splits into two pushable conjuncts
    let r1 = session
        .execute("select count(*) from po_item_dmdv where quantity between 3 and 7")
        .unwrap();
    let plan = session
        .plan("select count(*) from po_item_dmdv where quantity between 3 and 7", &[])
        .unwrap();
    let r2 = session.db.execute_unoptimized(&plan).unwrap();
    assert_eq!(r1, r2);
    assert!(r1.rows[0][0].as_num().unwrap().to_i64().unwrap() > 0);
    // IN over strings
    let q = olap_queries(n).into_iter().find(|q| q.id == 5).unwrap();
    let r3 = session.execute(&q.sql).unwrap();
    let plan = session.plan(&q.sql, &[]).unwrap();
    let r4 = session.db.execute_unoptimized(&plan).unwrap();
    assert_eq!(r3.rows.len(), r4.rows.len());
}

#[test]
fn pushdown_is_a_real_speedup_on_selective_predicates() {
    // not a strict perf assertion — just that the pre-filter drops most
    // documents before expansion (observable through timing at this scale
    // would be flaky; instead verify plan shape)
    let n = 50;
    let session = olap_db(StorageMethod::Oson, n);
    let plan = session.plan("select count(*) from po_item_dmdv where partno = 'XYZ'", &[]).unwrap();
    let optimized = fsdm::store::optimizer::optimize(&session.db, plan);
    let txt = format!("{optimized:?}");
    assert!(txt.contains("JSON_EXISTS"), "prefilter missing: {txt}");
    assert!(txt.contains("partno"), "{txt}");
}

/// The documents of the hand corpus, `(did, text)`: type-varying values
/// under one field, so that every conversion SQL makes between a JSON item
/// and a column is exercised, and a wildcard member step.
const CORPUS: [(i64, &str); 8] = [
    (1, r#"{"items":[{"p":"5","q":"7"}]}"#),
    (2, r#"{"items":[{"p":5,"q":7}]}"#),
    (3, r#"{"items":[{"p":true,"q":"seven"}],"a":{"k":{"x":1}}}"#),
    (4, r#"{"items":[{"p":"true","q":[7]}],"a":{"k":{"x":"1"},"l":{"x":2}}}"#),
    (5, r#"{"items":{"p":" 5","q":"7.0"},"a":{"k":[{"x":1}]}}"#),
    (6, r#"{"items":[{"p":5.0,"q":7e0},{"p":"6","q":null}]}"#),
    (7, r#"{"items":[{"p":"5.0","q":{"v":7}}],"a":{"x":1}}"#),
    (8, r#"{"items":[{"p":"x","q":8}],"a":[]}"#),
];

/// `(statement, the dids the plan as written returns)`, where a known
/// answer pins the statement. The first five lost rows to the pushdown
/// once: `.*` rendered as `[*]`, and probes that compared the item's type
/// where SQL converts it (a number's text is canonical: `5.0` reads as
/// `'5'`; a number column reads `"7"` as 7, a string compared with a
/// number is read as one).
const STATEMENTS: [(&str, Option<&[i64]>); 20] = [
    ("select did from t, json_table(jdoc, '$.a.*' columns (x number path '$.x')) jt where x = 1", Some(&[3, 4, 5])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p = '5'", Some(&[1, 2, 6])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p = 5", Some(&[1, 2, 5, 6, 7])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where q = 7", Some(&[1, 2, 5, 6])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where q in (7, 8)", Some(&[1, 2, 5, 6, 8])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p = 'true'", Some(&[3, 4])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p in ('5.0', '6')", Some(&[6, 7])),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p > 4", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p < '6'", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where p <> '5'", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where q > '6'", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where q <> 7", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where q = 'seven'", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where 6 < q", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (q varchar2(8) path '$.q')) jt where q = '7'", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (n for ordinality, p varchar2(8) path '$.p')) jt where n = 2 and p = '6'", Some(&[6])),
    ("select did from t, json_table(jdoc, 'strict $.items[*]' columns (p varchar2(8) path '$.p')) jt where p = '5'", None),
    ("select did from t, json_table(jdoc, '$' columns (nested path '$.items[*]' columns (p varchar2(8) path '$.p', q number path '$.q'))) jt where p = '5' and q >= 7", None),
    ("select did from t, json_table(jdoc, '$.a' columns (x number path '$.*.x')) jt where x = 1", None),
    ("select did from t, json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt where did > 2 and p = '5'", None),
];

/// Every statement of the hand corpus gives the same rows with the
/// optimizer on and off, and with the batch spine on and off, over text
/// and OSON under `IS JSON` — and the known answers come out.
#[test]
fn pushdown_keeps_every_row_sql_converts_to_a_match() {
    use fsdm::store::Run;
    let mut answers: Option<Vec<String>> = None;
    for storage in ["text", "oson"] {
        let mut s = fsdm_sql::Session::new();
        s.set_parallelism(1);
        s.execute(&format!("create table t (did number, jdoc json store as {storage})")).unwrap();
        for (did, doc) in CORPUS {
            s.execute_with("insert into t values (?, ?)", &[did.into(), doc.into()]).unwrap();
        }
        let mut got = Vec::new();
        for (sql, expected) in STATEMENTS {
            let plan = s.plan(sql, &[]).unwrap();
            let mut runs = Vec::new();
            for optimize in [false, true] {
                for columnar in [false, true] {
                    s.db.set_columnar(columnar);
                    let out = s.db.run(&plan, &Run { optimize, ..Run::default() });
                    runs.push(format!("{:?}", out.map(|(result, _)| result)));
                }
            }
            assert!(runs.iter().all(|r| *r == runs[0]), "{storage}: {sql}\n{runs:#?}");
            if let Some(dids) = expected {
                let rows = s.db.execute_unoptimized(&plan).unwrap().rows;
                let want: Vec<Vec<Datum>> = dids.iter().map(|d| vec![Datum::from(*d)]).collect();
                assert_eq!(rows, want, "{storage}: {sql}");
            }
            got.push(runs.swap_remove(0));
        }
        match &answers {
            None => answers = Some(got),
            Some(text) => assert_eq!(&got, text, "OSON diverged from text"),
        }
    }
}
