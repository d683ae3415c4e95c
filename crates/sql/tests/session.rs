//! End-to-end SQL session tests: the paper's query shapes running through
//! parse → plan → execute.

use fsdm_sql::Session;
use fsdm_sqljson::Datum;

fn seeded_session() -> Session {
    let mut s = Session::new();
    s.execute("create table po (did number, jdoc json store as oson with dataguide)").unwrap();
    let docs = [
        (
            1,
            r#"{"reference":"ABC-1","costcenter":"A1","requestor":"alice",
               "items":[{"itemno":1,"partno":"P100","description":"phone","quantity":2,"unitprice":100},
                        {"itemno":2,"partno":"P200","description":"ipad","quantity":3,"unitprice":350.86}]}"#,
        ),
        (
            2,
            r#"{"reference":"ABC-2","costcenter":"B2","requestor":"bob",
               "items":[{"itemno":1,"partno":"P100","description":"phone","quantity":1,"unitprice":100}]}"#,
        ),
        (
            3,
            r#"{"reference":"XYZ-3","costcenter":"A1","requestor":"alice",
               "items":[{"itemno":1,"partno":"P300","description":"tv","quantity":5,"unitprice":500}]}"#,
        ),
    ];
    for (id, doc) in docs {
        let sql = format!("insert into po values ({id}, '{}')", doc.replace('\n', " "));
        s.execute(&sql).unwrap();
    }
    s
}

fn dmdv(s: &mut Session) {
    s.execute(
        "create view po_item_dmdv as select p.did, jt.* from po p, \
         json_table(p.jdoc, '$' columns ( \
            reference varchar2(16) path '$.reference', \
            costcenter varchar2(8) path '$.costcenter', \
            requestor varchar2(16) path '$.requestor', \
            nested path '$.items[*]' columns ( \
               itemno number path '$.itemno', \
               partno varchar2(8) path '$.partno', \
               description varchar2(16) path '$.description', \
               quantity number path '$.quantity', \
               unitprice number path '$.unitprice'))) jt",
    )
    .unwrap();
}

#[test]
fn create_insert_select_roundtrip() {
    let mut s = seeded_session();
    let r = s.execute("select did from po where did >= 2 order by did desc").unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Datum::from(3i64));
}

#[test]
fn json_value_predicates() {
    let mut s = seeded_session();
    let r = s
        .execute("select did from po where json_value(jdoc, '$.costcenter') = 'A1' order by did")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r2 = s
        .execute(
            "select count(*) from po where json_exists(jdoc, '$.items[*]?(@.unitprice > 400)')",
        )
        .unwrap();
    assert_eq!(r2.rows[0][0], Datum::from(1i64));
}

#[test]
fn q1_count_with_bind() {
    let mut s = seeded_session();
    let r = s
        .execute_with(
            "select count(*) from po p where json_value(p.jdoc, '$.reference') = ?",
            &[Datum::from("ABC-1")],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::from(1i64));
}

#[test]
fn q2_group_by_costcenter_order_by_ordinal() {
    let mut s = seeded_session();
    let r = s
        .execute(
            "select json_value(jdoc, '$.costcenter') cc, count(*) from po \
             group by json_value(jdoc, '$.costcenter') order by 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Datum::from("A1"));
    assert_eq!(r.rows[0][1], Datum::from(2i64));
}

#[test]
fn dmdv_view_and_q3() {
    let mut s = seeded_session();
    dmdv(&mut s);
    let r = s.execute("select * from po_item_dmdv").unwrap();
    assert_eq!(r.rows.len(), 4, "2 + 1 + 1 items");
    // Q3: group over the view with a filter
    let q3 = s
        .execute(
            "select costcenter, count(*) from po_item_dmdv where partno = 'P100' \
             group by costcenter order by 1",
        )
        .unwrap();
    assert_eq!(q3.rows.len(), 2);
    assert_eq!(q3.rows[0][1], Datum::from(1i64));
}

#[test]
fn q7_sum_of_products() {
    let mut s = seeded_session();
    dmdv(&mut s);
    let r = s
        .execute(
            "select sum(quantity * unitprice) from po_item_dmdv group by costcenter order by 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // A1: 2*100 + 3*350.86 + 5*500 = 3752.58 ; B2: 100
    let mut sums: Vec<f64> = r.rows.iter().map(|x| x[0].as_num().unwrap().to_f64()).collect();
    sums.sort_by(f64::total_cmp);
    assert!((sums[0] - 100.0).abs() < 1e-9);
    assert!((sums[1] - 3752.58).abs() < 1e-9);
}

#[test]
fn q6_lag_window() {
    let mut s = seeded_session();
    dmdv(&mut s);
    let r = s
        .execute(
            "select partno, reference, quantity, \
             quantity - LAG(quantity, 1, quantity) over (order by substr(reference, instr(reference, '-') + 1)) as difference \
             from po_item_dmdv where partno = 'P100' \
             order by substr(reference, instr(reference, '-') + 1) desc",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // order within window: ref suffixes "1" then "2"; differences: 0, -1;
    // final order desc → row for ABC-2 first with difference -1
    assert_eq!(r.cell(0, "reference"), Some(&Datum::from("ABC-2")));
    assert_eq!(r.cell(0, "difference"), Some(&Datum::from(-1i64)));
    assert_eq!(r.cell(1, "difference"), Some(&Datum::from(0i64)));
}

#[test]
fn q5_in_list() {
    let mut s = seeded_session();
    dmdv(&mut s);
    let r = s
        .execute(
            "select reference, itemno, partno, description from po_item_dmdv \
             where partno in ('P200', 'P300')",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn comma_join_master_detail() {
    let mut s = Session::new();
    s.execute("create table m (id number, cc varchar2(4))").unwrap();
    s.execute("create table d (mid number, price number)").unwrap();
    s.execute("insert into m values (1, 'A'), (2, 'B')").unwrap();
    s.execute("insert into d values (1, 10), (1, 20), (2, 30), (9, 99)").unwrap();
    let r = s
        .execute(
            "select m.cc, d.price from m, d where m.id = d.mid and d.price > 15 order by d.price",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Datum::from("A"), Datum::from(20i64)]);
    assert_eq!(r.rows[1], vec![Datum::from("B"), Datum::from(30i64)]);
}

/// `JSON_DATAGUIDEAGG` is an aggregate of the plan algebra: it plans,
/// reports, explains, composes with keys, `SAMPLE`, `WHERE` and views
/// like `COUNT` does.
#[test]
fn dataguide_agg_statement() {
    let mut s = seeded_session();
    let plain = "select json_dataguideagg(jdoc) from po";
    let r = s.execute(plain).unwrap();
    assert_eq!((r.columns.as_slice(), r.rows.len()), (&["json_dataguideagg".to_string()][..], 1));
    let guide_text = r.rows[0][0].to_text();
    let guide = fsdm_json::parse(&guide_text).unwrap();
    let rows = guide.as_array().unwrap();
    assert!(rows.iter().any(|g| g.get("o:path").unwrap().as_str() == Some("$.items.partno")));
    // the (path, type) rows of the guide the table maintains per insert
    // (whose statistics differ by design: a structure it has seen before
    // takes the signature fast path)
    let path_types = |guide: &fsdm_json::JsonValue| -> Vec<(String, String)> {
        let text =
            |row: &fsdm_json::JsonValue, k| row.get(k).unwrap().as_str().unwrap().to_string();
        guide.as_array().unwrap().iter().map(|r| (text(r, "o:path"), text(r, "type"))).collect()
    };
    let maintained = &s.db.table("po").unwrap().dataguide;
    let maintained = fsdm_dataguide::hierarchical::to_flat_json(maintained);
    assert_eq!(path_types(&guide), path_types(&maintained));

    // a plan, a report on the batch spine, both plans in EXPLAIN
    assert!(s.plan(plain, &[]).unwrap().render().starts_with("Project"));
    let (_, report) = s.report(plain, &[], false).unwrap();
    let group = report.expect("every SELECT reports");
    let group = group.find("GroupBy").expect("an aggregate of the plan");
    assert_eq!((group.mode, group.rows_out), ("columnar", 1));
    let explain = s.explain(plain, &[]).unwrap();
    assert!(explain.contains("plan:") && explain.contains("optimized:"), "{explain}");

    // the select list is what comes back: keys only when selected
    let by_key = "from po group by json_value(jdoc, '$.costcenter')";
    let r = s.execute(&format!("select json_dataguideagg(jdoc) {by_key}")).unwrap();
    assert_eq!((r.columns.len(), r.rows.len()), (1, 2));
    let keyed =
        format!("select json_dataguideagg(jdoc), json_value(jdoc, '$.costcenter') {by_key}");
    let r = s.execute(&keyed).unwrap();
    assert_eq!(r.rows.iter().map(|row| row[1].to_text()).collect::<Vec<_>>(), ["A1", "B2"]);
    let (_, report) = s.report(&keyed, &[], false).unwrap();
    assert_eq!(report.unwrap().find("GroupBy").unwrap().mode, "columnar");

    // SAMPLE applies to the table, WHERE to the sample — as in every other
    // SELECT: the aggregate sees what `count(*)` counts
    let sampled = "from po sample (50) where did >= 2";
    let counted = s.execute(&format!("select count(*) {sampled}")).unwrap().rows[0][0].clone();
    let (r2, report) =
        s.report(&format!("select json_dataguideagg(jdoc) {sampled}"), &[], false).unwrap();
    assert_eq!(r2.rows.len(), 1);
    let report = report.unwrap();
    assert_eq!(report.find("GroupBy").unwrap().mode, "row", "Sample is no scan-rooted chain");
    assert_eq!(Datum::from(report.find("Filter").unwrap().rows_out as i64), counted);

    // a view over it executes
    s.execute("create view g as select json_dataguideagg(jdoc) from po").unwrap();
    assert_eq!(s.execute("select * from g").unwrap().rows[0][0].to_text(), guide_text);

    // over a number it can never see a document, and the check says so
    let inf = s.typecheck("select json_dataguideagg(did) from po").unwrap();
    assert_eq!(inf.errors(), 1, "{:?}", inf.diagnostics);
    assert_eq!(
        s.execute("select json_dataguideagg(did) from po").unwrap().rows[0][0].to_text(),
        "[]"
    );
}

/// A view that passes a JSON column through hands on the documents
/// themselves: a SQL/JSON operator over the view's column and a JSON_TABLE
/// joined to the view read them on the batch spine and on the row
/// evaluator alike, and the type check sees a JSON column.
#[test]
fn a_json_column_projected_through_a_view_stays_json() {
    let mut s = Session::new();
    s.execute("create table t (did number, jdoc json)").unwrap();
    s.execute(
        r#"insert into t values (1, '{"a":1,"items":[{"p":"x"},{"p":"y"}]}'), (2, '{"a":2.5}')"#,
    )
    .unwrap();
    s.execute("create view v as select did, jdoc from t").unwrap();
    let value = "select json_value(jdoc, '$.a' returning number) from v";
    let table = "select v.did, jt.p from v, \
                 json_table(jdoc, '$.items[*]' columns (p varchar2(8) path '$.p')) jt";
    for sql in [value, table] {
        let inf = s.typecheck(sql).unwrap();
        assert_eq!(inf.errors(), 0, "{sql}: {:?}", inf.diagnostics);
    }
    let render = |r: fsdm_store::QueryResult| -> Vec<String> {
        let line = |row: Vec<Datum>| row.iter().map(Datum::to_text).collect::<Vec<_>>().join("|");
        r.rows.into_iter().map(line).collect()
    };
    for columnar in [true, false] {
        s.db.set_columnar(columnar);
        assert_eq!(render(s.execute(value).unwrap()), ["1", "2.5"], "columnar={columnar}");
        let rows = render(s.execute(table).unwrap());
        assert_eq!(rows, ["1|x", "1|y", "2|"], "columnar={columnar}");
    }
}

#[test]
fn insert_validation_via_sql() {
    let mut s = Session::new();
    s.execute("create table t (j json)").unwrap();
    assert!(s.execute("insert into t values ('{bad json')").is_err());
    assert!(s.execute("insert into t values ('{\"ok\":1}')").is_ok());
}

#[test]
fn select_wildcards_and_aliases() {
    let mut s = seeded_session();
    let r = s.execute("select p.* from po p where p.did = 1").unwrap();
    assert_eq!(r.columns, vec!["did", "jdoc"]);
    assert_eq!(r.rows.len(), 1);
    // JSON columns render as text in results
    assert!(
        r.rows[0][1].to_text().contains("purchase") || r.rows[0][1].to_text().contains("reference")
    );
}

#[test]
fn limit_and_fetch_first() {
    let mut s = seeded_session();
    let r = s.execute("select did from po order by did limit 2").unwrap();
    assert_eq!(r.rows.len(), 2);
    let r2 = s.execute("select did from po order by did fetch first 1 rows only").unwrap();
    assert_eq!(r2.rows.len(), 1);
}

#[test]
fn errors_are_reported() {
    let mut s = seeded_session();
    assert!(s.execute("select nope from po").is_err());
    assert!(s.execute("select * from missing_table").is_err());
    assert!(s.execute("select did from po where json_value(did, '$.x') = 1").is_err());
    // an aggregate without its argument is an error, not a panic
    assert!(s.execute("select json_dataguideagg() from po").is_err());
    assert!(s.execute("select sum() from po").is_err());
}

/// A `ConstraintMode::None` text column holds whatever was inserted. A
/// document nested deeper than `MAX_DEPTH` fails to scan whatever the
/// path — a streamed `$.a` as much as a filtered `$.a?(@ > 0)`, which
/// parses — so both are NULL, and only an exists path decided before the
/// failure (at its first match) is true. Row evaluator and batch spine
/// agree, and nothing panics.
#[test]
fn a_document_deeper_than_max_depth_fails_every_path_alike() {
    let mut s = Session::new();
    s.execute("create table raw (id number, j json store as text without validation)").unwrap();
    let deep = format!(r#"{{"a":1,"d":{}{}}}"#, "[".repeat(600), "]".repeat(600));
    for (id, doc) in [(1, r#"{"a":1,"d":[[]]}"#.to_string()), (2, deep), (3, "{\"a\":1,".into())] {
        s.execute_with("insert into raw values (?, ?)", &[Datum::from(id as i64), Datum::Str(doc)])
            .unwrap();
    }
    let values = "select id, json_value(j, '$.a' returning number), \
                  json_value(j, '$.a?(@ > 0)' returning number) from raw order by id";
    let filtered = "select id from raw where json_exists(j, '$.a?(@ > 0)') order by id";
    let streamed = "select id from raw where json_exists(j, '$.a') order by id";
    for columnar in [true, false] {
        s.db.set_columnar(columnar);
        let r = s.execute(values).unwrap();
        let one = Datum::from(1i64);
        assert_eq!(r.rows[0], [Datum::from(1i64), one.clone(), one], "columnar={columnar}");
        for row in &r.rows[1..] {
            assert_eq!(row[1..], [Datum::Null, Datum::Null], "columnar={columnar}: {row:?}");
        }
        let mut ids = |sql: &str| -> Vec<Datum> {
            s.execute(sql).unwrap().rows.into_iter().map(|r| r[0].clone()).collect()
        };
        assert_eq!(ids(filtered), [Datum::from(1i64)], "columnar={columnar}");
        let all = [1i64, 2, 3].map(Datum::from);
        assert_eq!(ids(streamed), all, "columnar={columnar}: decided at the match");
    }
}

/// Lax mode unwraps an array operand of a filter comparison, one level
/// deep, whether the documents are stored as text or as OSON; strict mode
/// does not.
#[test]
fn a_lax_filter_comparison_unwraps_an_array_operand() {
    let docs = [r#"{"a":[1,2]}"#, r#"{"a":1}"#, r#"{"a":[[1]]}"#, r#"{"a":[3]}"#];
    for storage in ["text", "oson"] {
        let mut s = Session::new();
        s.execute(&format!("create table t (id number, jdoc json store as {storage})")).unwrap();
        for (id, doc) in (1i64..).zip(docs) {
            s.execute_with("insert into t values (?, ?)", &[Datum::from(id), Datum::from(doc)])
                .unwrap();
        }
        for columnar in [true, false] {
            s.db.set_columnar(columnar);
            let mut count = |path: &str| -> Datum {
                let sql = format!("select count(*) from t where json_exists(jdoc, '{path}')");
                s.execute(&sql).unwrap().rows[0][0].clone()
            };
            let at = format!("{storage}, columnar={columnar}");
            assert_eq!(count("$?(@.a == 1)"), Datum::from(2i64), "{at}");
            assert_eq!(count("lax $?(@.a > 2)"), Datum::from(1i64), "{at}");
            assert_eq!(count("strict $?(@.a == 1)"), Datum::from(1i64), "{at}");
        }
    }
}

/// A number literal beyond the `f64` range is no JSON number: inserting a
/// document holding one is refused over text, OSON and BSON storage alike,
/// and what is stored reads back as valid JSON. Arithmetic whose result
/// leaves the range is a "numeric overflow" error in both executors.
#[test]
fn a_number_beyond_the_f64_range_is_refused() {
    let big = r#"{"a":1.7976931348623157e308,"b":1e300}"#;
    for storage in ["text", "oson", "bson"] {
        let mut s = Session::new();
        s.execute(&format!("create table t (id number, jdoc json store as {storage})")).unwrap();
        for doc in [r#"{"a":1e400}"#, r#"{"a":-1e400}"#, r#"{"a":[1,{"b":2e308}]}"#] {
            let insert = s.execute_with(
                "insert into t values (?, ?)",
                &[Datum::from(1i64), Datum::from(doc)],
            );
            let err = insert.expect_err(doc).to_string();
            assert!(err.contains("out of range"), "{storage}: {doc}: {err}");
        }
        s.execute_with("insert into t values (?, ?)", &[Datum::from(2i64), Datum::from(big)])
            .unwrap();
        let rows = s.execute("select jdoc from t").unwrap().rows;
        assert_eq!(rows.len(), 1, "{storage}");
        let text = rows[0][0].to_text();
        assert!(fsdm_json::parse(&text).is_ok(), "{storage}: {text} is no JSON");
        for columnar in [true, false] {
            s.db.set_columnar(columnar);
            let at = format!("{storage}, columnar={columnar}");
            let value = "json_value(jdoc, '$.b' returning number)";
            let fits = s.execute(&format!("select {value} * 1000 from t")).unwrap();
            assert_eq!(fits.rows[0][0].as_num().map(|n| n.to_f64()), Some(1e303), "{at}");
            let err = s.execute(&format!("select {value} * {value} from t")).unwrap_err();
            assert!(err.to_string().contains("numeric overflow"), "{at}: {err}");
        }
    }
}

/// A negative number literal is one literal with every digit of its text:
/// `=` and `IN` find the document and the row holding exactly that number,
/// with the spine on and off; an insert stores it whole; and `did = -1`
/// lowers to a kernel, with nothing left row-wise.
#[test]
fn a_negative_number_literal_keeps_its_digits() {
    let big = "-12345678901234567891";
    let mut s = Session::new();
    s.execute("create table t (did number, jdoc json store as text)").unwrap();
    s.execute(&format!(r#"insert into t values ({big}, '{{"a":{big}}}')"#)).unwrap();
    // the nearest f64 of `big`, which a literal folded through f64 becomes
    s.execute(r#"insert into t values (-1, '{"a":-12345678901234567168}')"#).unwrap();
    let dids = s.execute("select did from t order by did").unwrap().rows;
    assert_eq!(dids[0][0].to_text(), big, "stored whole");
    let value = "json_value(jdoc, '$.a' returning number)";
    for columnar in [true, false] {
        s.db.set_columnar(columnar);
        for filter in [
            format!("{value} = {big}"),
            format!("{value} in (-5, {big})"),
            format!("did = {big}"),
            format!("did in ({big}, -5)"),
        ] {
            let r = s.execute(&format!("select did from t where {filter}")).unwrap();
            assert_eq!(r.rows.len(), 1, "{filter}, columnar={columnar}");
            assert_eq!(r.rows[0][0].to_text(), big, "{filter}, columnar={columnar}");
        }
        let r = s.execute("select jdoc from t where did = -1").unwrap();
        assert_eq!(r.rows.len(), 1, "columnar={columnar}");
    }
    s.db.set_columnar(true);
    let explain = s.explain("select jdoc from t where did = -1", &[]).unwrap();
    assert!(explain.contains("mode=columnar") && !explain.contains("rowwise="), "{explain}");
}

/// Only text an `IS JSON` constraint parsed may end its scan early: in a
/// column without one, a document torn after the member a path reads
/// fails to scan, so `$.a` is NULL on the spine and on the row evaluator.
#[test]
fn torn_text_without_is_json_is_read_to_its_end() {
    let mut s = Session::new();
    s.execute("create table raw (id number, j json store as text without validation)").unwrap();
    for (id, doc) in [(1i64, r#"{"a":1,"b":true}"#), (2, r#"{"a":1,"b":tru"#)] {
        s.execute_with("insert into raw values (?, ?)", &[Datum::from(id), Datum::from(doc)])
            .unwrap();
    }
    let value = "select id, json_value(j, '$.a' returning number) from raw";
    let filtered = "select id from raw where json_value(j, '$.a' returning number) = 1";
    let explain = s.explain(value, &[]).unwrap();
    assert!(explain.contains("mode=columnar  transient=[JSON_VALUE("), "{explain}");
    for columnar in [true, false] {
        s.db.set_columnar(columnar);
        let r = s.execute(value).unwrap();
        let expected = [[Datum::from(1i64), Datum::from(1i64)], [Datum::from(2i64), Datum::Null]];
        assert_eq!(r.rows, expected, "columnar={columnar}");
        assert_eq!(s.execute(filtered).unwrap().rows, [[Datum::from(1i64)]], "columnar={columnar}");
    }
}

/// A view with a WHERE queried with a WHERE is one pipeline on the spine,
/// and its filters run bottom-up: the view's rejects the row the query's
/// would divide by zero on, though the query's reads a resident vector
/// and the view's a path. The same rows optimized or not, on the spine or
/// not.
#[test]
fn a_where_over_a_view_never_sees_a_row_the_views_where_rejected() {
    let mut s = Session::new();
    s.execute("create table t (did number, jdoc json store as oson)").unwrap();
    for i in 1..=6i64 {
        let doc = format!(r#"{{"v":{i},"w":{i}}}"#);
        s.execute_with("insert into t values (?, ?)", &[Datum::from(i), Datum::from(doc)]).unwrap();
    }
    let t = s.db.table_mut("t").unwrap();
    let v = fsdm_sqljson::parse_path("$.v").unwrap();
    t.add_virtual_column("v", fsdm_store::Expr::json_value(1, v, fsdm_sqljson::SqlType::Number));
    t.populate_vc_imc(&["v"]).unwrap();
    s.execute(
        "create view nz as select * from t where json_value(jdoc, '$.w' returning number) + 0 <> 3",
    )
    .unwrap();
    let sql = "select did from nz where 1 / (v - 3) > 0";
    let explain = s.explain(sql, &[]).unwrap();
    assert!(!explain.contains("mode=row"), "{explain}");
    let plan = s.plan(sql, &[]).unwrap();
    for columnar in [true, false] {
        s.db.set_columnar(columnar);
        for optimize in [true, false] {
            let run = fsdm_store::Run { optimize, ..fsdm_store::Run::default() };
            let (r, _) = s.db.run(&plan, &run).unwrap();
            assert_eq!(r.rows, [4i64, 5, 6].map(|i| [Datum::from(i)]), "{columnar} {optimize}");
        }
    }
}
