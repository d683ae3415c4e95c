//! Integration test: `JSON_TABLE` on the batch spine, on a corpus built
//! for its corner cases. One test function, because it reads a
//! process-global counter: this file is its own process, and nothing else
//! runs in it.
//!
//! Every statement must return `Debug`-identical rows in identical order
//! with the spine on and off (off = the row evaluator over the same
//! expansion routine's row API) and the optimizer on and off (the §6.3
//! probes below the expansion), at degree 1 and 4, over text, BSON and
//! OSON storage, under a morsel size that splits the corpus; the rows
//! themselves are pinned for the shapes that matter: sibling NESTED PATHs
//! (union join, never a cross product), NESTED inside NESTED, empty and
//! missing arrays, a row path matching zero and several nodes,
//! `FOR ORDINALITY` and `EXISTS PATH` columns, a filter on a master column
//! only, a filter nothing survives, and no demanded column at all.

use fsdm::sql::Session;
use fsdm::sqljson::Datum;
use fsdm::store::{
    ColType, ColumnSpec, ConstraintMode, InsertValue, JsonStorage, QueryResult, Run, Table,
    TableSchema,
};

const DOCS: [&str; 7] = [
    r#"{"m":"A","v":1,"items":[{"n":"x","q":1,"parts":[{"p":"p1"},{"p":"p2"}]},
        {"n":"y","q":20,"parts":[]}],"disc":[{"d":"d1"}]}"#,
    r#"{"m":"B","v":2,"items":[]}"#,
    r#"{"m":"A","v":3}"#,
    r#"{"m":"C","v":4,"items":[{"n":"z","q":30}],"disc":[{"d":"d2"},{"d":"d3"}]}"#,
    r#"{"m":"B","v":5,"items":{"n":"w","q":7}}"#,
    r#"{"other":[1,2]}"#,
    r#"{"m":"C","v":7,"items":[{"n":"u","q":40,"parts":[{"p":"p3"}]}]}"#,
];

/// Master columns, two sibling NESTED PATHs, one of them with a NESTED
/// PATH of its own; 10 columns.
const DEEP: &str = "json_table(jdoc, '$' columns ( \
    m varchar2(4) path '$.m', v number path '$.v', has_items exists path '$.items', \
    nested path '$.items[*]' columns ( \
        seq for ordinality, n varchar2(4) path '$.n', q number path '$.q', \
        nested path '$.parts[*]' columns (pseq for ordinality, p varchar2(4) path '$.p')), \
    nested path '$.disc[*]' columns (dseq for ordinality, d varchar2(4) path '$.d'))) jt";

/// A row path that matches no node, one node or several.
const ITEMS: &str = "json_table(jdoc, '$.items[*]' columns ( \
    seq for ordinality, n varchar2(4) path '$.n', has_parts exists path '$.parts')) jt";

fn session(storage: JsonStorage) -> Session {
    let mut t = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", storage, ConstraintMode::IsJson),
        ],
    ));
    for (i, d) in DOCS.iter().enumerate() {
        t.insert(vec![(i as i64).into(), InsertValue::Json(d.to_string())]).unwrap();
    }
    let mut session = Session::new();
    session.db.add_table(t);
    session.db.set_morsel_rows(3);
    session
}

fn render(r: &QueryResult) -> Vec<String> {
    let line = |row: &Vec<Datum>| row.iter().map(Datum::to_string).collect::<Vec<_>>().join("|");
    r.rows.iter().map(line).collect()
}

fn transient_cols() -> u64 {
    fsdm::obs::catalog::metric::EXEC_TRANSIENT_COLS.get()
}

#[test]
fn json_table_corner_cases_match_the_row_evaluator() {
    let statements = [
        format!("select did, jt.* from t, {DEEP}"),
        format!("select did, jt.* from t, {ITEMS}"),
        // a master column only; an ordinality; an EXISTS column
        format!("select did, n, p, d from t, {DEEP} where m = 'A'"),
        format!("select did, n from t, {DEEP} where seq = 2 or dseq = 2"),
        format!("select did, m from t, {DEEP} where has_items = 0"),
        // nothing survives; nothing is demanded
        format!("select did, n, p from t, {DEEP} where q > 100"),
        format!("select count(*) from t, {DEEP}"),
        format!("select m, sum(q), count(*) from t, {DEEP} group by m"),
        // a consumer no kernel expresses: row-wise, inside the pipeline
        format!("select upper(n), v from t, {DEEP} where substr(m, 1, 1) <> 'B'"),
    ];
    let mut expected: Option<Vec<QueryResult>> = None;
    for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
        let mut session = session(storage);
        for degree in [1, 4] {
            session.set_parallelism(degree);
            for (columnar, optimize) in [(false, false), (false, true), (true, false), (true, true)]
            {
                session.db.set_columnar(columnar);
                let how = Run { optimize, ..Run::default() };
                let run = |sql: &String| session.db.run(&session.plan(sql, &[]).unwrap(), &how);
                let got: Vec<QueryResult> =
                    statements.iter().map(|sql| run(sql).unwrap().0).collect();
                match &expected {
                    None => expected = Some(got),
                    Some(e) => assert_eq!(
                        format!("{got:?}"),
                        format!("{e:?}"),
                        "{storage:?} degree={degree} columnar={columnar} optimize={optimize}"
                    ),
                }
            }
        }
    }
    let r = expected.unwrap();
    assert_eq!(
        render(&r[0]),
        [
            // items × parts, then the sibling's rows: a union, no product
            "0|A|1|1|1|x|1|1|p1|NULL|NULL",
            "0|A|1|1|1|x|1|2|p2|NULL|NULL",
            "0|A|1|1|2|y|20|NULL|NULL|NULL|NULL",
            "0|A|1|1|NULL|NULL|NULL|NULL|NULL|1|d1",
            // empty and missing arrays: the master row survives
            "1|B|2|1|NULL|NULL|NULL|NULL|NULL|NULL|NULL",
            "2|A|3|0|NULL|NULL|NULL|NULL|NULL|NULL|NULL",
            "3|C|4|1|1|z|30|NULL|NULL|NULL|NULL",
            "3|C|4|1|NULL|NULL|NULL|NULL|NULL|1|d2",
            "3|C|4|1|NULL|NULL|NULL|NULL|NULL|2|d3",
            // lax: a non-array is a one-element array
            "4|B|5|1|1|w|7|NULL|NULL|NULL|NULL",
            "5|NULL|NULL|0|NULL|NULL|NULL|NULL|NULL|NULL|NULL",
            "6|C|7|1|1|u|40|1|p3|NULL|NULL",
        ]
    );
    assert_eq!(
        render(&r[1]),
        // no row node: the document's row survives, all columns NULL
        [
            "0|1|x|1",
            "0|2|y|1",
            "1|NULL|NULL|NULL",
            "2|NULL|NULL|NULL",
            "3|1|z|0",
            "4|1|w|0",
            "5|NULL|NULL|NULL",
            "6|1|u|1"
        ]
    );
    assert_eq!(
        render(&r[2]),
        ["0|x|p1|NULL", "0|x|p2|NULL", "0|y|NULL|NULL", "0|NULL|NULL|d1", "2|NULL|NULL|NULL"]
    );
    assert_eq!(render(&r[3]), ["0|y", "3|NULL"]);
    assert_eq!(render(&r[4]), ["2|A", "5|NULL"]);
    assert!(r[5].rows.is_empty());
    assert_eq!(render(&r[6]), ["12"]);
    assert_eq!(render(&r[7]), ["A|22|5", "B|7|2", "C|70|4", "NULL|NULL|1"]);
    assert_eq!(r[8].rows.len(), 9);

    // what the spine extracted for the last two corner cases, by count: the
    // filter column once per morsel and no output column when every
    // expanded row is rejected; nothing at all when nothing is demanded
    let mut session = session(JsonStorage::Oson);
    session.set_parallelism(1);
    let morsels = DOCS.len().div_ceil(3) as u64;
    let before = transient_cols();
    session.execute(&statements[5]).unwrap();
    assert_eq!(transient_cols() - before, morsels, "`q` alone, once per morsel");
    let before = transient_cols();
    session.execute(&statements[6]).unwrap();
    assert_eq!(transient_cols() - before, 0, "count(*) counts rows and extracts nothing");
    let explain = session.explain(&statements[6], &[]).unwrap();
    assert!(explain.contains("mode=columnar  expand=[] of 10"), "{explain}");
    let explain = session.explain(&statements[8], &[]).unwrap();
    assert!(explain.contains("mode=columnar  rowwise=[(Substr[col#2"), "{explain}");
    assert!(explain.contains("mode=columnar  expand=[m, v, n] of 10"), "{explain}");
}
