//! Over the OSON-IMC, a field name resolves once per statement, not once
//! per document: the members of one set share its dictionary, so an
//! evaluator that resolved a name in one member reuses the answer —
//! absence included — in every other without a dictionary search. At
//! degree 1 a statement's `oson.dict.lookups` is the number of distinct
//! names each of its SQL/JSON operators reads, summed over its distinct
//! operators, whatever the number of documents — or none, when the
//! set's member lists leave no member to open.
//!
//! Its own test binary, holding one test: metrics are process-global, so
//! no other statement may run while this one diffs them.

use fsdm_sqljson::{parse_path, SqlType};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    query::AggSpec, CmpOp, ColType, ColumnSpec, ConstraintMode, Database, Datum, Expr, JsonStorage,
    Query, Table, TableSchema,
};
use fsdm_workloads::nobench;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `n` NOBENCH documents as the checked text column of table `nobench`,
/// with the OSON-IMC populated, run at degree 1.
fn nobench_imc(n: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(42);
    let mut t = Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJson),
        ],
    ));
    for i in 0..n {
        let text = fsdm_json::to_string(&nobench::doc(&mut rng, i));
        t.insert(vec![(i as i64).into(), InsertValue::Json(text)]).unwrap();
    }
    t.populate_oson_imc().unwrap();
    let mut db = Database::new();
    db.add_table(t);
    db.set_parallelism(1);
    db
}

fn value(path: &str, ty: SqlType) -> Expr {
    Expr::json_value(1, parse_path(path).unwrap(), ty)
}

fn exists(path: &str) -> Expr {
    Expr::json_exists(1, parse_path(path).unwrap())
}

/// Statements shaped as NOBENCH's path queries, each with the dictionary
/// lookups it takes: one per name per distinct operator.
fn statements(n: usize) -> Vec<(&'static str, Query, u64)> {
    let between = |e: Expr| {
        let lo = Expr::cmp(e.clone(), CmpOp::Ge, Expr::Lit(Datum::from((n / 2) as i64)));
        let hi = Expr::cmp(e, CmpOp::Le, Expr::Lit(Datum::from((n / 2 + n / 10) as i64)));
        Expr::And(Box::new(lo), Box::new(hi))
    };
    let text = SqlType::Varchar2(64);
    vec![
        (
            // JSON_EXISTS and JSON_VALUE of a name are two operators
            "Q4",
            Query::scan_where(
                "nobench",
                Expr::Or(Box::new(exists("$.sparse_110")), Box::new(exists("$.sparse_220"))),
            )
            .project(vec![("a", value("$.sparse_110", text)), ("b", value("$.sparse_220", text))]),
            4,
        ),
        (
            "Q8",
            Query::scan_where(
                "nobench",
                Expr::Or(
                    Box::new(exists(r#"$.nested_arr?(@ == "notpresent")"#)),
                    Box::new(exists(r#"$.nested_arr?(@ starts with "a")"#)),
                ),
            )
            .project(vec![("did", Expr::Col(0))]),
            2,
        ),
        (
            "Q10",
            Query::scan_where("nobench", between(value("$.num", SqlType::Number))).group_by(
                vec![("k", value("$.thousandth", SqlType::Number))],
                vec![AggSpec::count_star("n")],
            ),
            2,
        ),
        (
            "nested members",
            Query::scan("nobench").project(vec![
                ("s", value("$.nested_obj.str", text)),
                ("n", value("$.nested_obj.num", SqlType::Number)),
            ]),
            4,
        ),
        (
            // a step name the set does not hold: its member list is empty,
            // so no member is opened and no name resolved
            "absent name",
            Query::scan_where("nobench", exists("$.no_such_name"))
                .project(vec![("did", Expr::Col(0))]),
            0,
        ),
        (
            // a filter operand is no step: every member is opened, and the
            // name the set does not hold is settled once too
            "absent filter operand",
            Query::scan_where("nobench", exists("$.nested_obj?(exists(@.no_such_name))"))
                .project(vec![("did", Expr::Col(0))]),
            2,
        ),
    ]
}

#[test]
fn each_name_resolves_once_per_statement_over_the_set() {
    let mut seen: Vec<Vec<u64>> = Vec::new();
    for n in [400, 2000] {
        let db = nobench_imc(n);
        let mut lookups = Vec::new();
        for (label, plan, want) in statements(n) {
            let before = fsdm_obs::snapshot();
            let r = db.execute(&plan).unwrap();
            let delta = fsdm_obs::snapshot().diff(&before);
            let got = delta.counter(fsdm_obs::catalog::OSON_DICT_LOOKUPS);
            assert_eq!(got, want, "{label} at {n} documents ({} rows)", r.rows.len());
            lookups.push(got);
        }
        seen.push(lookups);
    }
    assert_eq!(seen[0], seen[1], "the same at 400 and 2000 documents");
}
