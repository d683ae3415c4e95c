//! The statements, plans and schema objects the workloads submit, vendored
//! beside the generators for the same reason: they are benchmark input.

use fsdm_sqljson::json_table::{ColumnDef, JsonTableDef, NestedDef};
use fsdm_sqljson::{parse_path, Datum, JsonPath, SqlType};
use fsdm_store::query::AggSpec;
use fsdm_store::{CmpOp, Expr, Query, Table};

use crate::gen::{Corpus, NoBenchFacts, PoFacts, Rng};

fn path(text: &str) -> JsonPath {
    parse_path(text).expect("vendored path parses")
}

/// One operation of a query workload: SQL text with binds, or a plan.
#[derive(Debug, Clone)]
pub enum Statement {
    Sql {
        text: String,
        binds: Vec<Datum>,
    },
    /// Submitted in plan form: this kind's latency starts at the optimizer.
    Plan(Query),
}

/// NOBENCH Q1–Q11 over a collection table `nobench(did, jdoc)` of `n`
/// documents; index 0 is Q1. Q6/Q7/Q10 select ≈ 10 %, Q11's outer side
/// ≈ 0.1 %, Q5 binds the `str1` of the middle document.
pub fn nobench_statements(corpus: &Corpus<NoBenchFacts>) -> Vec<Statement> {
    let n = corpus.docs.len();
    let lo = n / 2;
    let hi = lo + n / 10;
    let sql = |text: String| Statement::Sql { text, binds: Vec::new() };
    vec![
        sql("select json_value(jdoc, '$.str1'), json_value(jdoc, '$.num' returning number) \
             from nobench"
            .into()),
        sql("select json_value(jdoc, '$.nested_obj.str'), \
             json_value(jdoc, '$.nested_obj.num' returning number) from nobench"
            .into()),
        sql("select json_value(jdoc, '$.sparse_110'), json_value(jdoc, '$.sparse_119') \
             from nobench where json_exists(jdoc, '$.sparse_110')"
            .into()),
        sql("select json_value(jdoc, '$.sparse_110'), json_value(jdoc, '$.sparse_220') \
             from nobench where json_exists(jdoc, '$.sparse_110') or \
             json_exists(jdoc, '$.sparse_220')"
            .into()),
        Statement::Sql {
            text: "select did, jdoc from nobench where json_value(jdoc, '$.str1') = ?".into(),
            binds: vec![Datum::Str(corpus.facts[n / 2].str1.clone())],
        },
        sql(format!(
            "select json_value(jdoc, '$.num' returning number) from nobench \
             where json_value(jdoc, '$.num' returning number) between {lo} and {hi}"
        )),
        sql(format!(
            "select json_value(jdoc, '$.dyn1') from nobench \
             where json_value(jdoc, '$.dyn1' returning number) between {lo} and {hi}"
        )),
        sql("select did from nobench where \
             json_exists(jdoc, '$.nested_arr?(@ == \"notpresent\")') \
             or json_exists(jdoc, '$.nested_arr?(@ starts with \"a\")')"
            .into()),
        sql("select did from nobench where json_value(jdoc, '$.sparse_550') is not null".into()),
        sql(format!(
            "select json_value(jdoc, '$.thousandth' returning number), count(*) from nobench \
             where json_value(jdoc, '$.num' returning number) between {lo} and {hi} \
             group by json_value(jdoc, '$.thousandth' returning number)"
        )),
        Statement::Plan(nobench_q11_plan(n)),
    ]
}

/// NOBENCH Q11, `select count(*) from nobench a, nobench b where a.nested_obj.str
/// = b.str1 and a.num between lo and hi`, as the join plan the repo has
/// always run it as: the range filter sits in the outer scan, before the
/// join key is extracted.
fn nobench_q11_plan(n: usize) -> Query {
    let lo = (n / 2) as i64;
    let hi = lo + (n / 1000 + 2) as i64;
    let num = Expr::json_value(1, path("$.num"), SqlType::Number);
    let range = Expr::And(
        Box::new(Expr::cmp(num.clone(), CmpOp::Ge, Expr::Lit(Datum::from(lo)))),
        Box::new(Expr::cmp(num.clone(), CmpOp::Le, Expr::Lit(Datum::from(hi)))),
    );
    let outer = Query::Project {
        input: Box::new(Query::scan_where("nobench", range)),
        exprs: vec![
            (
                "astr".to_string(),
                Expr::json_value(1, path("$.nested_obj.str"), SqlType::Varchar2(32)),
            ),
            ("anum".to_string(), num),
        ],
    };
    let inner = Query::Project {
        input: Box::new(Query::scan("nobench")),
        exprs: vec![(
            "bstr".to_string(),
            Expr::json_value(1, path("$.str1"), SqlType::Varchar2(32)),
        )],
    };
    Query::GroupBy {
        input: Box::new(Query::HashJoin {
            left: Box::new(outer),
            right: Box::new(inner),
            left_key: 0,
            right_key: 0,
        }),
        keys: vec![],
        aggs: vec![AggSpec::count_star("n")],
    }
}

/// The `nbq$*` virtual columns. Their defining expressions equal the
/// planner's lowering of Q1–Q3, Q5 and Q6 (default `RETURNING
/// varchar2(4000)` included), which is what lets the optimizer substitute
/// resident vectors for those statements.
pub const NBQ_COLUMNS: [&str; 7] =
    ["nbq$str1", "nbq$num", "nbq$nstr", "nbq$nnum", "nbq$s110", "nbq$s119", "nbq$x110"];

/// Register the `nbq$*` columns on a `(did, jdoc)` table.
pub fn add_nbq_columns(table: &mut Table) {
    let text = SqlType::Varchar2(4000);
    table.add_virtual_column("nbq$str1", Expr::json_value(1, path("$.str1"), text));
    table.add_virtual_column("nbq$num", Expr::json_value(1, path("$.num"), SqlType::Number));
    table.add_virtual_column("nbq$nstr", Expr::json_value(1, path("$.nested_obj.str"), text));
    table.add_virtual_column(
        "nbq$nnum",
        Expr::json_value(1, path("$.nested_obj.num"), SqlType::Number),
    );
    table.add_virtual_column("nbq$s110", Expr::json_value(1, path("$.sparse_110"), text));
    table.add_virtual_column("nbq$s119", Expr::json_value(1, path("$.sparse_119"), text));
    table.add_virtual_column("nbq$x110", Expr::json_exists(1, path("$.sparse_110")));
}

/// The purchaseOrder master/detail `JSON_TABLE` behind `po_item_dmdv`.
pub fn po_dmdv_def() -> JsonTableDef {
    JsonTableDef {
        row_path: path("$.purchaseOrder"),
        columns: vec![
            ColumnDef::value("reference", SqlType::Varchar2(32), path("$.reference")),
            ColumnDef::value("requestor", SqlType::Varchar2(32), path("$.requestor")),
            ColumnDef::value("costcenter", SqlType::Varchar2(8), path("$.costcenter")),
            ColumnDef::value("instructions", SqlType::Varchar2(128), path("$.instructions")),
        ],
        nested: vec![NestedDef {
            path: path("$.items[*]"),
            columns: vec![
                ColumnDef::value("itemno", SqlType::Number, path("$.itemno")),
                ColumnDef::value("partno", SqlType::Varchar2(16), path("$.partno")),
                ColumnDef::value("description", SqlType::Varchar2(64), path("$.description")),
                ColumnDef::value("quantity", SqlType::Number, path("$.quantity")),
                ColumnDef::value("unitprice", SqlType::Number, path("$.unitprice")),
            ],
            nested: vec![],
        }],
    }
}

/// A `JSON_TABLE` over the NOBENCH shape, for the `sqljson.json_table_us`
/// probe on the workloads whose corpus is not purchaseOrders.
pub fn nobench_table_def() -> JsonTableDef {
    JsonTableDef {
        row_path: path("$"),
        columns: vec![
            ColumnDef::value("str1", SqlType::Varchar2(32), path("$.str1")),
            ColumnDef::value("num", SqlType::Number, path("$.num")),
        ],
        nested: vec![NestedDef {
            path: path("$.nested_arr[*]"),
            columns: vec![ColumnDef::value("word", SqlType::Varchar2(16), path("$"))],
            nested: vec![],
        }],
    }
}

/// `po_mv` (singleton scalars through `JSON_VALUE`) and `po_item_dmdv`
/// (master repeated per line item through `JSON_TABLE`) over `po(did, jdoc)`.
pub fn po_views() -> [(&'static str, Query); 2] {
    let value = |p: &str, len: usize| Expr::json_value(1, path(p), SqlType::Varchar2(len));
    let mv = Query::Project {
        input: Box::new(Query::scan("po")),
        exprs: vec![
            ("did".to_string(), Expr::Col(0)),
            ("reference".to_string(), value("$.purchaseOrder.reference", 32)),
            ("requestor".to_string(), value("$.purchaseOrder.requestor", 32)),
            ("costcenter".to_string(), value("$.purchaseOrder.costcenter", 8)),
            ("podate".to_string(), value("$.purchaseOrder.podate", 16)),
        ],
    };
    let def = po_dmdv_def();
    // did, then the JSON_TABLE outputs; the raw jdoc column stays hidden
    let mut exprs = vec![("did".to_string(), Expr::Col(0))];
    for (i, name) in def.column_names().into_iter().enumerate() {
        exprs.push((name, Expr::Col(2 + i)));
    }
    let table = Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def };
    [("po_mv", mv), ("po_item_dmdv", Query::Project { input: Box::new(table), exprs })]
}

/// The nine Table-13 statements over the two views; index 0 is Q1. Binds
/// are values that occur in the corpus.
pub fn olap_statements(corpus: &Corpus<PoFacts>, seed: u64) -> Vec<Statement> {
    let mut rng = Rng::for_stream("olap-binds", seed);
    let mut pick = || &corpus.facts[rng.index(corpus.facts.len())];
    let reference = pick().reference.clone();
    let requestor = pick().requestor.clone();
    let [p1, p2, p3, p4] = [(); 4].map(|()| pick().first_partno.clone());
    let num = |v: i64| Datum::from(v);
    let sql = |text: &str, binds: Vec<Datum>| Statement::Sql { text: text.to_string(), binds };
    const ITEM_COLUMNS: &str =
        "reference, instructions, itemno, partno, description, quantity, unitprice";
    vec![
        sql("select count(*) from po_mv p where p.reference = ?", vec![Datum::Str(reference)]),
        sql("select costcenter, count(*) from po_mv group by costcenter order by 1", vec![]),
        sql(
            &format!(
                "select costcenter, count(*) from po_item_dmdv where partno = '{p1}' \
                 group by costcenter"
            ),
            vec![],
        ),
        sql(
            &format!(
                "select {ITEM_COLUMNS} from po_item_dmdv d where d.requestor = ? \
                 and d.quantity > ? and d.unitprice > ?"
            ),
            vec![Datum::Str(requestor), num(5), num(100)],
        ),
        sql(
            &format!(
                "select l.reference, l.itemno, l.partno, l.description from po_item_dmdv l \
                 where l.partno in ('{p2}', '{p3}', '{p4}')"
            ),
            vec![],
        ),
        sql(
            &format!(
                "select partno, reference, quantity, quantity - LAG(quantity, 1, quantity) \
                 over (order by substr(reference, instr(reference, '-') + 1)) as difference \
                 from po_item_dmdv where partno = '{p1}' \
                 order by substr(reference, instr(reference, '-') + 1) desc"
            ),
            vec![],
        ),
        sql(
            "select sum(quantity * unitprice) from po_item_dmdv group by costcenter order by 1",
            vec![],
        ),
        sql(
            &format!(
                "select {ITEM_COLUMNS} from po_item_dmdv where quantity > ? and unitprice > ?"
            ),
            vec![num(15), num(700)],
        ),
        sql(&format!("select {ITEM_COLUMNS} from po_item_dmdv"), vec![]),
    ]
}
