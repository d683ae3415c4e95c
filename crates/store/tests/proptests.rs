//! Property-based tests for the relational engine: executor results
//! match a naive reference implementation on random data, across storage
//! formats and IMC modes.

use fsdm_json::JsonNumber;
use fsdm_sqljson::{parse_path, Datum, SqlType};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    query::AggSpec, AggFun, CmpOp, ColType, ColumnSpec, ConstraintMode, Database, Expr,
    JsonStorage, Query, Table, TableSchema,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct DocRow {
    group: u8,
    value: i32,
    flag: bool,
}

fn arb_rows() -> impl Strategy<Value = Vec<DocRow>> {
    prop::collection::vec(
        (0u8..5, -1000i32..1000, any::<bool>()).prop_map(|(group, value, flag)| DocRow {
            group,
            value,
            flag,
        }),
        0..60,
    )
}

fn load(rows: &[DocRow], storage: JsonStorage) -> Database {
    let mut t = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("id", ColType::Number),
            ColumnSpec::json("j", storage, ConstraintMode::IsJson),
        ],
    ));
    for (i, r) in rows.iter().enumerate() {
        let doc = format!(r#"{{"group":"g{}","value":{},"flag":{}}}"#, r.group, r.value, r.flag);
        t.insert(vec![(i as i64).into(), InsertValue::Json(doc)]).unwrap();
    }
    let mut db = Database::new();
    db.add_table(t);
    db
}

fn value_expr() -> Expr {
    Expr::json_value(1, parse_path("$.value").unwrap(), SqlType::Number)
}

fn group_expr() -> Expr {
    Expr::json_value(1, parse_path("$.group").unwrap(), SqlType::Varchar2(8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter counts agree with a direct computation, for every storage.
    #[test]
    fn filter_counts_match_reference(rows in arb_rows(), threshold in -1000i32..1000) {
        let expected = rows.iter().filter(|r| r.value > threshold).count();
        for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
            let db = load(&rows, storage);
            let q = Query::scan("t")
                .filter(Expr::cmp(
                    value_expr(),
                    CmpOp::Gt,
                    Expr::Lit(Datum::Num(JsonNumber::Int(threshold as i64))),
                ))
                .group_by(vec![], vec![AggSpec::count_star("n")]);
            let r = db.execute(&q).unwrap();
            prop_assert_eq!(
                r.rows[0][0].as_num().unwrap().to_i64().unwrap() as usize,
                expected,
                "{:?}",
                storage
            );
        }
    }

    /// Group-by sums agree with a reference fold, and are unaffected by
    /// populating the OSON-IMC cache.
    #[test]
    fn group_sums_match_reference(rows in arb_rows()) {
        let mut expected: std::collections::BTreeMap<u8, i64> = Default::default();
        for r in &rows {
            *expected.entry(r.group).or_default() += r.value as i64;
        }
        let mut db = load(&rows, JsonStorage::Text);
        let q = Query::scan("t").group_by(
            vec![("g", group_expr())],
            vec![AggSpec::of("s", AggFun::Sum, value_expr())],
        );
        let check = |r: &fsdm_store::QueryResult| -> std::result::Result<(), TestCaseError> {
            prop_assert_eq!(r.rows.len(), expected.len());
            for row in &r.rows {
                let g: u8 = row[0].to_text().trim_start_matches('g').parse().unwrap();
                let s = row[1].as_num().unwrap().to_i64().unwrap();
                prop_assert_eq!(s, expected[&g], "group {}", g);
            }
            Ok(())
        };
        let before = db.execute(&q).unwrap();
        check(&before)?;
        db.table_mut("t").unwrap().populate_oson_imc().unwrap();
        let after = db.execute(&q).unwrap();
        check(&after)?;
    }

    /// The vectorized IMC path returns exactly what row-at-a-time does.
    #[test]
    fn vectorized_filter_equals_row_filter(rows in arb_rows(), lo in -1000i32..1000) {
        let mut db = load(&rows, JsonStorage::Text);
        {
            let t = db.table_mut("t").unwrap();
            t.add_virtual_column("j$value", value_expr());
            t.populate_vc_imc(&["j$value"]).unwrap();
        }
        let vc_col = db.table("t").unwrap().scan_col_index("j$value").unwrap();
        let pred = Expr::cmp(
            Expr::Col(vc_col),
            CmpOp::Ge,
            Expr::Lit(Datum::Num(JsonNumber::Int(lo as i64))),
        );
        // the spine runs the filter as a kernel over the vector; the row
        // evaluator, its oracle, row by row
        let q = Query::scan("t").filter(pred.clone()).project(vec![("id", Expr::Col(0))]);
        let fast = db.execute(&q).unwrap();
        db.set_columnar(false);
        let slow = db.execute(&q).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Sort is total and stable with NULLs last.
    #[test]
    fn sort_order_holds(rows in arb_rows()) {
        let db = load(&rows, JsonStorage::Oson);
        let q = Query::scan("t")
            .project(vec![("v", value_expr())])
            .sort(vec![fsdm_store::SortKey::asc(Expr::Col(0))]);
        let r = db.execute(&q).unwrap();
        for w in r.rows.windows(2) {
            prop_assert!(w[0][0].order_key_cmp(&w[1][0]).is_le());
        }
    }
}
