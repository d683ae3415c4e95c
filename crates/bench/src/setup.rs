//! Corpus + database setup for the experiments.

use fsdm_json::JsonValue;
use fsdm_sql::Session;
use fsdm_sqljson::json_table::{ColumnDef, JsonTableDef, NestedDef};
use fsdm_sqljson::{parse_path, Datum, SqlType};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    ColType, ColumnSpec, ConstraintMode, Expr, JsonStorage, Query, Table, TableSchema,
};
use fsdm_workloads::{nobench, olap, rng_for};

/// The four §6.3 storage methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMethod {
    /// JSON text in a varchar column.
    Json,
    /// BSON in a raw column.
    Bson,
    /// OSON in a raw column.
    Oson,
    /// Relational decomposition into master + detail tables.
    Rel,
}

impl StorageMethod {
    /// All four, in Figure 3/4 order.
    pub const ALL: [StorageMethod; 4] =
        [StorageMethod::Json, StorageMethod::Bson, StorageMethod::Oson, StorageMethod::Rel];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            StorageMethod::Json => "JSON",
            StorageMethod::Bson => "BSON",
            StorageMethod::Oson => "OSON",
            StorageMethod::Rel => "REL",
        }
    }
}

/// The purchaseOrder master/detail JSON_TABLE definition used by the
/// generated views (shared by all three self-contained storages).
pub fn po_dmdv_def() -> JsonTableDef {
    let p = |s: &str| parse_path(s).unwrap();
    JsonTableDef {
        row_path: p("$.purchaseOrder"),
        columns: vec![
            ColumnDef::value("reference", SqlType::Varchar2(32), p("$.reference")),
            ColumnDef::value("requestor", SqlType::Varchar2(32), p("$.requestor")),
            ColumnDef::value("costcenter", SqlType::Varchar2(8), p("$.costcenter")),
            ColumnDef::value("instructions", SqlType::Varchar2(128), p("$.instructions")),
        ],
        nested: vec![NestedDef {
            path: p("$.items[*]"),
            columns: vec![
                ColumnDef::value("itemno", SqlType::Number, p("$.itemno")),
                ColumnDef::value("partno", SqlType::Varchar2(16), p("$.partno")),
                ColumnDef::value("description", SqlType::Varchar2(64), p("$.description")),
                ColumnDef::value("quantity", SqlType::Number, p("$.quantity")),
                ColumnDef::value("unitprice", SqlType::Number, p("$.unitprice")),
            ],
            nested: vec![],
        }],
    }
}

/// Build the §6.3 database for one storage method: the corpus loaded into
/// the physical layout plus the `po_mv` and `po_item_dmdv` views over it.
pub fn olap_db(method: StorageMethod, n: usize) -> Session {
    let mut rng = rng_for("olap-corpus", 7);
    let docs = olap::corpus(&mut rng, n);
    let mut session = Session::new();
    match method {
        StorageMethod::Rel => setup_rel(&mut session, &docs),
        _ => {
            let storage = match method {
                StorageMethod::Json => JsonStorage::Text,
                StorageMethod::Bson => JsonStorage::Bson,
                StorageMethod::Oson => JsonStorage::Oson,
                StorageMethod::Rel => unreachable!(),
            };
            let mut t = Table::new(TableSchema::new(
                "po",
                vec![
                    ColumnSpec::new("did", ColType::Number),
                    ColumnSpec::json("jdoc", storage, ConstraintMode::IsJson),
                ],
            ));
            for (i, d) in docs.iter().enumerate() {
                t.insert(vec![(i as i64).into(), InsertValue::Json(fsdm_json::to_string(d))])
                    .unwrap();
            }
            session.db.add_table(t);
            register_json_views(&mut session);
        }
    }
    session
}

/// The same deterministic corpus the databases were loaded with.
pub fn olap_corpus(n: usize) -> Vec<JsonValue> {
    let mut rng = rng_for("olap-corpus", 7);
    olap::corpus(&mut rng, n)
}

/// The Table 13 query set bound to this corpus.
pub fn olap_queries(n: usize) -> Vec<olap::OlapQuery> {
    let docs = olap_corpus(n);
    let mut rng = rng_for("olap-queries", 11);
    olap::queries(&mut rng, &docs)
}

/// Convert an OLAP bind to a datum (numeric if it parses as a number).
pub fn bind_datum(s: &str) -> Datum {
    match fsdm_json::JsonNumber::from_literal(s) {
        Ok(n) => Datum::Num(n),
        Err(_) => Datum::Str(s.to_string()),
    }
}

fn register_json_views(session: &mut Session) {
    let p = |s: &str| parse_path(s).unwrap();
    // po_mv: singleton scalars via JSON_VALUE
    let mv = Query::Project {
        input: Box::new(Query::scan("po")),
        exprs: vec![
            ("did".to_string(), Expr::Col(0)),
            (
                "reference".to_string(),
                Expr::json_value(1, p("$.purchaseOrder.reference"), SqlType::Varchar2(32)),
            ),
            (
                "requestor".to_string(),
                Expr::json_value(1, p("$.purchaseOrder.requestor"), SqlType::Varchar2(32)),
            ),
            (
                "costcenter".to_string(),
                Expr::json_value(1, p("$.purchaseOrder.costcenter"), SqlType::Varchar2(8)),
            ),
            (
                "podate".to_string(),
                Expr::json_value(1, p("$.purchaseOrder.podate"), SqlType::Varchar2(16)),
            ),
        ],
    };
    session.db.create_view("po_mv", mv);
    // po_item_dmdv: master repeated per detail via JSON_TABLE
    let def = po_dmdv_def();
    let names = def.column_names();
    let jt = Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def };
    // hide the raw jdoc column: project did + JSON_TABLE outputs
    let mut exprs = vec![("did".to_string(), Expr::Col(0))];
    for (i, n) in names.iter().enumerate() {
        exprs.push((n.clone(), Expr::Col(2 + i)));
    }
    session.db.create_view("po_item_dmdv", Query::Project { input: Box::new(jt), exprs });
}

/// REL storage: shred into purchase_master_tab + lineitem_detail_tab with
/// key indexes, and define the views as projections / a hash join.
fn setup_rel(session: &mut Session, docs: &[JsonValue]) {
    let mut master = Table::new(TableSchema::new(
        "purchase_master_tab",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::new("reference", ColType::Varchar2(32)),
            ColumnSpec::new("requestor", ColType::Varchar2(32)),
            ColumnSpec::new("costcenter", ColType::Varchar2(8)),
            ColumnSpec::new("podate", ColType::Varchar2(16)),
            ColumnSpec::new("instructions", ColType::Varchar2(128)),
        ],
    ));
    let mut detail = Table::new(TableSchema::new(
        "lineitem_detail_tab",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::new("itemno", ColType::Number),
            ColumnSpec::new("partno", ColType::Varchar2(16)),
            ColumnSpec::new("description", ColType::Varchar2(64)),
            ColumnSpec::new("quantity", ColType::Number),
            ColumnSpec::new("unitprice", ColType::Number),
        ],
    ));
    let s = |v: Option<&JsonValue>| -> InsertValue {
        InsertValue::Datum(match v {
            Some(JsonValue::String(x)) => Datum::Str(x.clone()),
            Some(JsonValue::Number(n)) => Datum::Num(*n),
            _ => Datum::Null,
        })
    };
    for (i, d) in docs.iter().enumerate() {
        let po = d.get("purchaseOrder").unwrap();
        master
            .insert(vec![
                (i as i64).into(),
                s(po.get("reference")),
                s(po.get("requestor")),
                s(po.get("costcenter")),
                s(po.get("podate")),
                s(po.get("instructions")),
            ])
            .unwrap();
        if let Some(items) = po.get("items").and_then(|x| x.as_array()) {
            for it in items {
                detail
                    .insert(vec![
                        (i as i64).into(),
                        s(it.get("itemno")),
                        s(it.get("partno")),
                        s(it.get("description")),
                        s(it.get("quantity")),
                        s(it.get("unitprice")),
                    ])
                    .unwrap();
            }
        }
    }
    master.create_key_index("did").unwrap();
    detail.create_key_index("did").unwrap();
    session.db.add_table(master);
    session.db.add_table(detail);
    // po_mv over the master table
    let mv = Query::Project {
        input: Box::new(Query::scan("purchase_master_tab")),
        exprs: ["did", "reference", "requestor", "costcenter", "podate"]
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), Expr::Col(i)))
            .collect(),
    };
    session.db.create_view("po_mv", mv);
    // po_item_dmdv = master ⋈ detail with the same output columns as the
    // JSON views (master fields repeated per detail row)
    let join = Query::HashJoin {
        left: Box::new(Query::scan("purchase_master_tab")),
        right: Box::new(Query::scan("lineitem_detail_tab")),
        left_key: 0,
        right_key: 0,
    };
    let exprs = vec![
        ("did".to_string(), Expr::Col(0)),
        ("reference".to_string(), Expr::Col(1)),
        ("requestor".to_string(), Expr::Col(2)),
        ("costcenter".to_string(), Expr::Col(3)),
        ("instructions".to_string(), Expr::Col(5)),
        ("itemno".to_string(), Expr::Col(7)),
        ("partno".to_string(), Expr::Col(8)),
        ("description".to_string(), Expr::Col(9)),
        ("quantity".to_string(), Expr::Col(10)),
        ("unitprice".to_string(), Expr::Col(11)),
    ];
    session.db.create_view("po_item_dmdv", Query::Project { input: Box::new(join), exprs });
}

/// Total stored bytes for a storage method's database (Figure 4).
pub fn storage_size(session: &Session, method: StorageMethod) -> usize {
    match method {
        StorageMethod::Rel => {
            session.db.table("purchase_master_tab").map(|t| t.storage_size()).unwrap_or(0)
                + session.db.table("lineitem_detail_tab").map(|t| t.storage_size()).unwrap_or(0)
        }
        _ => session.db.table("po").map(|t| t.storage_size()).unwrap_or(0),
    }
}

/// Build the NOBENCH database: text storage (the Fig 5 setup stores text
/// on disk), IS JSON, no index.
pub fn nobench_db(n: usize) -> Session {
    let mut session = Session::new();
    let mut t = Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJson),
        ],
    ));
    let mut rng = rng_for("nobench-corpus", 5);
    for i in 0..n {
        let d = nobench::doc(&mut rng, i);
        t.insert(vec![(i as i64).into(), InsertValue::Json(fsdm_json::to_string(&d))]).unwrap();
    }
    session.db.add_table(t);
    session
}

/// The NOBENCH database with DataGuide maintenance on. The Figure 5
/// benchmark table deliberately skips the guide; the lint gate needs it
/// to resolve every query path against the observed corpus.
pub fn nobench_guided_db(n: usize) -> Session {
    let mut session = Session::new();
    let mut t = Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJsonWithDataGuide),
        ],
    ));
    let mut rng = rng_for("nobench-corpus", 5);
    for i in 0..n {
        let d = nobench::doc(&mut rng, i);
        t.insert(vec![(i as i64).into(), InsertValue::Json(fsdm_json::to_string(&d))]).unwrap();
    }
    session.db.add_table(t);
    session
}

/// The §6.3 OSON database with DataGuide maintenance on, plus the same
/// `po_mv` / `po_item_dmdv` views `olap_db` registers. Used by the lint
/// gate, which checks the view-definition paths against the guide.
pub fn olap_guided_db(n: usize) -> Session {
    let mut rng = rng_for("olap-corpus", 7);
    let docs = olap::corpus(&mut rng, n);
    let mut session = Session::new();
    let mut t = Table::new(TableSchema::new(
        "po",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Oson, ConstraintMode::IsJsonWithDataGuide),
        ],
    ));
    for (i, d) in docs.iter().enumerate() {
        t.insert(vec![(i as i64).into(), InsertValue::Json(fsdm_json::to_string(d))]).unwrap();
    }
    session.db.add_table(t);
    register_json_views(&mut session);
    session
}

/// Register the three Figure 6 virtual columns (`$.str1`, `$.num`,
/// `$.dyn1`) on the NOBENCH table.
pub fn add_nobench_vcs(session: &mut Session) {
    let p = |s: &str| parse_path(s).unwrap();
    let t = session.db.table_mut("nobench").unwrap();
    if t.scan_col_index("nb$str1").is_none() {
        t.add_virtual_column("nb$str1", Expr::json_value(1, p("$.str1"), SqlType::Varchar2(32)));
        t.add_virtual_column("nb$num", Expr::json_value(1, p("$.num"), SqlType::Number));
        t.add_virtual_column("nb$dyn1", Expr::json_value(1, p("$.dyn1"), SqlType::Number));
    }
}

/// Register and populate virtual columns whose defining expressions match
/// the planner's lowering of NOBENCH Q1–Q3 **exactly** (default
/// `RETURNING` type included), so the optimizer's IMC substitution pass
/// rewrites those queries onto column vectors and the executor runs them
/// on the columnar pipeline.
pub fn add_nobench_columnar_vcs(session: &mut Session) {
    let p = |s: &str| parse_path(s).unwrap();
    let t = session.db.table_mut("nobench").unwrap();
    if t.scan_col_index("nbq$str1").is_none() {
        // the planner's default RETURNING is Varchar2(4000); the VC
        // definitions must match its Debug rendering verbatim or the
        // substitution pass won't recognize them
        let vc = SqlType::Varchar2(4000);
        t.add_virtual_column("nbq$str1", Expr::json_value(1, p("$.str1"), vc));
        t.add_virtual_column("nbq$num", Expr::json_value(1, p("$.num"), SqlType::Number));
        t.add_virtual_column("nbq$nstr", Expr::json_value(1, p("$.nested_obj.str"), vc));
        t.add_virtual_column(
            "nbq$nnum",
            Expr::json_value(1, p("$.nested_obj.num"), SqlType::Number),
        );
        t.add_virtual_column("nbq$s110", Expr::json_value(1, p("$.sparse_110"), vc));
        t.add_virtual_column("nbq$s119", Expr::json_value(1, p("$.sparse_119"), vc));
        t.add_virtual_column("nbq$x110", Expr::json_exists(1, p("$.sparse_110")));
    }
    t.populate_vc_imc(&[
        "nbq$str1", "nbq$num", "nbq$nstr", "nbq$nnum", "nbq$s110", "nbq$s119", "nbq$x110",
    ])
    .unwrap();
}

/// A bind value for NOBENCH Q5: the str1 of a mid-corpus document.
pub fn nobench_q5_bind(n: usize) -> Datum {
    let mut rng = rng_for("nobench-corpus", 5);
    let mut value = Datum::Null;
    for i in 0..n {
        let d = nobench::doc(&mut rng, i);
        if i == n / 2 {
            value = Datum::Str(d.get("str1").unwrap().as_str().unwrap().to_string());
        }
    }
    value
}

/// NOBENCH Q11 as a plan (json_value-keyed self equi-join), per mode:
/// `vc = true` joins on the materialized virtual columns instead.
pub fn nobench_q11_plan(n: usize, vc: bool) -> Query {
    let p = |s: &str| parse_path(s).unwrap();
    let lo = (n / 2) as i64;
    let hi = lo + (n / 1000 + 2) as i64;
    let (astr, anum, bstr): (Expr, Expr, Expr) = if vc {
        // scan columns: did, jdoc, nb$str1, nb$num, nb$dyn1
        (
            Expr::json_value(1, p("$.nested_obj.str"), SqlType::Varchar2(32)),
            Expr::Col(3),
            Expr::Col(2),
        )
    } else {
        (
            Expr::json_value(1, p("$.nested_obj.str"), SqlType::Varchar2(32)),
            Expr::json_value(1, p("$.num"), SqlType::Number),
            Expr::json_value(1, p("$.str1"), SqlType::Varchar2(32)),
        )
    };
    // filter in the scan, BEFORE computing the join key: under VC-IMC the
    // range predicate runs vectorized over the nb$num column and the
    // (expensive) nested_obj.str extraction touches only survivors
    let range = Expr::And(
        Box::new(Expr::cmp(anum.clone(), fsdm_store::CmpOp::Ge, Expr::Lit(Datum::from(lo)))),
        Box::new(Expr::cmp(anum.clone(), fsdm_store::CmpOp::Le, Expr::Lit(Datum::from(hi)))),
    );
    let left = Query::Project {
        input: Box::new(Query::scan_where("nobench", range)),
        exprs: vec![("astr".to_string(), astr), ("anum".to_string(), anum)],
    };
    let right = Query::Project {
        input: Box::new(Query::scan("nobench")),
        exprs: vec![("bstr".to_string(), bstr)],
    };
    Query::GroupBy {
        input: Box::new(Query::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_key: 0,
            right_key: 0,
        }),
        keys: vec![],
        aggs: vec![fsdm_store::query::AggSpec::count_star("n")],
    }
}

/// Plan the full NOBENCH query set against an existing session: Q1–Q10
/// through the SQL front end (Q5 with its bind) plus the Q11 plan.
pub fn nobench_plans(session: &Session, n: usize) -> Vec<(String, Query)> {
    let mut plans = Vec::new();
    for q in 1..=10 {
        let sql = nobench::query_sql(q, n);
        let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
        let plan = session.plan(&sql, &binds).expect("NOBENCH query plans");
        plans.push((format!("Q{q}"), plan));
    }
    plans.push(("Q11".to_string(), nobench_q11_plan(n, false)));
    plans
}

/// The operators of a report rooted at `op` that are part of a
/// scan-rooted chain — `Project` / `Filter` down to a `Scan` or to a
/// `JsonTable` over `Filter`s over a `Scan`, under at most a `GroupBy` —
/// and yet report `mode=row`. With the batch spine on there are none.
pub fn scan_rooted_row_operators(op: &fsdm_store::OpProfile) -> Vec<String> {
    fn chain(op: &fsdm_store::OpProfile, expanded: bool) -> bool {
        let child = |expanded| op.children.first().is_some_and(|c| chain(c, expanded));
        match op.op.as_str() {
            "Filter" => child(expanded),
            "Project" if !expanded => child(false),
            "JsonTable" if !expanded => child(true),
            label => label.starts_with("Scan("),
        }
    }
    let rooted = chain(op, false)
        || (op.op == "GroupBy" && op.children.first().is_some_and(|c| chain(c, false)));
    let own = (rooted && op.mode == "row").then(|| op.op.clone());
    own.into_iter().chain(op.children.iter().flat_map(scan_rooted_row_operators)).collect()
}

/// The views [`rowwise_plans`] reads: one passes `jdoc` through, one
/// computes a column from it.
const ROWWISE_VIEWS: [&str; 2] = [
    "create view nb_docs as select did, jdoc from nobench",
    "create view nb_upper as select did, upper(jdoc) ujdoc from nobench",
];

/// One NOBENCH statement per kind of expression no kernel expresses, each
/// lowered row-wise inside its pipeline: every scalar function in WHERE,
/// in SELECT and in GROUP BY (keys and aggregate arguments),
/// column-vs-column comparisons (unknown on most rows, which a filter
/// rejects), `JSON_EXISTS` as a value, `LIKE` over a number, and a
/// SQL/JSON operator over a view's computed column (no row reaches it in
/// R7; every row errs in R8, as on the row evaluator) — then one through a
/// view's renaming (R9), which binds a path.
const ROWWISE_SQL: [&str; 9] = [
    "select did from nobench where json_value(jdoc, '$.num' returning number) < 300 \
     and substr(json_value(jdoc, '$.str1'), 1, 1) < 'q' \
     and instr(json_value(jdoc, '$.str1'), 'zz') = 0 \
     and upper(json_value(jdoc, '$.str2')) <> 'X' and lower(json_value(jdoc, '$.str2')) <> 'x' \
     and length(json_value(jdoc, '$.nested_obj.str')) > 1 \
     and concat(json_value(jdoc, '$.str1'), json_value(jdoc, '$.str2')) like '%' \
     and abs(json_value(jdoc, '$.num' returning number) - 100) > 10 \
     and nvl(json_value(jdoc, '$.sparse_110'), 'none') = 'none'",
    "select did, substr(json_value(jdoc, '$.str1'), 2, 3), instr(json_value(jdoc, '$.str2'), 'a'), \
     upper(json_value(jdoc, '$.nested_obj.str')), lower(json_value(jdoc, '$.str1')), \
     length(json_value(jdoc, '$.str2')), json_value(jdoc, '$.str1') || '-' || json_value(jdoc, '$.dyn2'), \
     abs(json_value(jdoc, '$.dyn1' returning number) - 250), \
     nvl(json_value(jdoc, '$.sparse_110'), json_value(jdoc, '$.str1')) \
     from nobench where json_value(jdoc, '$.num' returning number) between 100 and 140",
    "select length(json_value(jdoc, '$.str1')), upper(substr(json_value(jdoc, '$.str2'), 1, 1)), \
     count(*), max(lower(json_value(jdoc, '$.str1'))), \
     sum(abs(json_value(jdoc, '$.num' returning number) - 200)), \
     min(nvl(json_value(jdoc, '$.sparse_110'), concat('n', json_value(jdoc, '$.str2')))), \
     max(instr(json_value(jdoc, '$.str1'), 'e')) from nobench \
     group by length(json_value(jdoc, '$.str1')), upper(substr(json_value(jdoc, '$.str2'), 1, 1))",
    "select did from nobench where did = json_value(jdoc, '$.dyn1' returning number) \
     and json_value(jdoc, '$.thousandth' returning number) \
     < json_value(jdoc, '$.nested_obj.num' returning number) \
     and (json_value(jdoc, '$.sparse_110') <> json_value(jdoc, '$.str2') or did < 100)",
    "select json_exists(jdoc, '$.sparse_110'), not json_exists(jdoc, '$.sparse_220'), count(*) \
     from nobench group by json_exists(jdoc, '$.sparse_110'), not json_exists(jdoc, '$.sparse_220')",
    "select did from nobench where json_value(jdoc, '$.num' returning number) like '1%'",
    "select did, json_value(ujdoc, '$.STR1') from nb_upper where did < 0",
    "select json_value(ujdoc, '$.STR1') from nb_upper where did < 40",
    "select did, json_value(jdoc, '$.str1') from nb_docs \
     where json_value(jdoc, '$.num' returning number) < 50",
];

/// The row-wise corpus R1–R10 over the NOBENCH table of `session`, as
/// labelled plans: the statements above, once their views exist, and R10,
/// `RETURNING any` (which only a plan spells) as a filter and as outputs.
pub fn rowwise_plans(session: &mut Session) -> Vec<(String, Query)> {
    for view in ROWWISE_VIEWS {
        session.execute(view).expect("row-wise corpus view");
    }
    let mut plans: Vec<(String, Query)> = ROWWISE_SQL
        .iter()
        .enumerate()
        .map(|(i, sql)| (format!("R{}", i + 1), session.plan(sql, &[]).expect("row-wise plan")))
        .collect();
    let any = |path: &str| Expr::json_value(1, parse_path(path).unwrap(), SqlType::Any);
    let below = Expr::cmp(any("$.dyn1"), fsdm_store::CmpOp::Lt, Expr::Lit(Datum::from(200i64)));
    let plan = Query::scan_where("nobench", below).project(vec![
        ("did", Expr::Col(0)),
        ("dyn1", any("$.dyn1")),
        ("arr", any("$.nested_arr")),
    ]);
    plans.push((format!("R{}", plans.len() + 1), plan));
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olap_dbs_agree_across_storages() {
        let n = 200;
        let queries = olap_queries(n);
        let mut baseline: Option<Vec<usize>> = None;
        for method in StorageMethod::ALL {
            let mut s = olap_db(method, n);
            let counts: Vec<usize> = queries
                .iter()
                .map(|q| {
                    let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
                    s.execute_with(&q.sql, &binds).unwrap().rows.len()
                })
                .collect();
            match &baseline {
                None => baseline = Some(counts),
                Some(b) => {
                    assert_eq!(&counts, b, "{} row counts differ", method.label())
                }
            }
        }
    }

    #[test]
    fn rel_views_have_same_columns_as_json_views() {
        let a = olap_db(StorageMethod::Oson, 20);
        let b = olap_db(StorageMethod::Rel, 20);
        let qa = a.db.plan_columns(a.db.view("po_item_dmdv").unwrap()).unwrap();
        let qb = b.db.plan_columns(b.db.view("po_item_dmdv").unwrap()).unwrap();
        assert_eq!(qa, qb);
    }

    #[test]
    fn nobench_queries_run_in_all_modes() {
        let n = 500;
        let mut s = nobench_db(n);
        // text mode
        let mut results_text = Vec::new();
        for q in 1..=10 {
            let sql = fsdm_workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            results_text.push(s.execute_with(&sql, &binds).unwrap().rows.len());
        }
        let q11_text = s.db.execute(&nobench_q11_plan(n, false)).unwrap();
        // oson-imc mode: identical results
        s.db.table_mut("nobench").unwrap().populate_oson_imc().unwrap();
        for q in 1..=10 {
            let sql = fsdm_workloads::nobench::query_sql(q, n);
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { vec![] };
            assert_eq!(
                s.execute_with(&sql, &binds).unwrap().rows.len(),
                results_text[q - 1],
                "Q{q} differs under OSON-IMC"
            );
        }
        assert_eq!(s.db.execute(&nobench_q11_plan(n, false)).unwrap(), q11_text);
        // vc-imc mode for the Fig 6 queries
        add_nobench_vcs(&mut s);
        s.db.table_mut("nobench")
            .unwrap()
            .populate_vc_imc(&["nb$str1", "nb$num", "nb$dyn1"])
            .unwrap();
        let q6_vc = s
            .execute(&format!(
                "select \"nb$num\" from nobench where \"nb$num\" between {} and {}",
                n / 2,
                n / 2 + n / 10
            ))
            .unwrap();
        assert_eq!(q6_vc.rows.len(), results_text[5], "Q6 differs under VC-IMC");
        let q11_vc = s.db.execute(&nobench_q11_plan(n, true)).unwrap();
        assert_eq!(q11_vc, q11_text, "Q11 differs under VC-IMC");
    }

    #[test]
    fn q6_selectivity_is_about_ten_percent() {
        let n = 1000;
        let mut s = nobench_db(n);
        let r = s.execute(&fsdm_workloads::nobench::query_sql(6, n)).unwrap();
        let frac = r.rows.len() as f64 / n as f64;
        assert!((0.08..=0.12).contains(&frac), "selectivity {frac}");
    }
}
