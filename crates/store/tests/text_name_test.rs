//! The text pass's name test seen from a statement: over an `IS JSON`
//! text column, a document that lacks a field name of a path is settled
//! for that path without being scanned, and `sqljson.text.absent` counts
//! it; over a column no constraint checked, every document is scanned.
//!
//! Its own test binary, holding one test: metrics are process-global, so
//! no other statement may run while this one diffs them.

use fsdm_json::JsonValue;
use fsdm_sqljson::parse_path;
use fsdm_store::table::InsertValue;
use fsdm_store::{
    query::AggSpec, ColType, ColumnSpec, ConstraintMode, Database, Expr, JsonStorage, Query, Table,
    TableSchema,
};
use fsdm_workloads::nobench;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `docs` as the text column of table `nobench`, under `constraint`.
fn load(docs: &[JsonValue], constraint: ConstraintMode) -> Database {
    let mut t = Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, constraint),
        ],
    ));
    for (i, d) in docs.iter().enumerate() {
        t.insert(vec![(i as i64).into(), InsertValue::Json(fsdm_json::to_string(d))]).unwrap();
    }
    let mut db = Database::new();
    db.add_table(t);
    db
}

#[test]
fn the_name_test_settles_each_document_lacking_the_name() {
    let n = 2000;
    let mut rng = StdRng::seed_from_u64(42);
    let docs: Vec<JsonValue> = (0..n).map(|i| nobench::doc(&mut rng, i)).collect();
    let holding = docs.iter().filter(|d| d.get("sparse_110").is_some()).count();
    assert!(holding > 0 && holding < n, "{holding} of {n} documents hold sparse_110");
    // NOBENCH Q3's predicate, counted
    let q3 = Query::scan("nobench")
        .filter(Expr::json_exists(1, parse_path("$.sparse_110").unwrap()))
        .group_by(vec![], vec![AggSpec::count_star("n")]);
    for (constraint, settled) in [(ConstraintMode::IsJson, n - holding), (ConstraintMode::None, 0)]
    {
        let db = load(&docs, constraint);
        let before = fsdm_obs::snapshot();
        let r = db.execute(&q3).unwrap();
        let delta = fsdm_obs::snapshot().diff(&before);
        let count = r.rows[0][0].as_num().and_then(|x| x.to_i64());
        assert_eq!(count, Some(holding as i64), "{constraint:?}");
        assert_eq!(
            delta.counter(fsdm_obs::catalog::SQLJSON_TEXT_ABSENT),
            settled as u64,
            "{constraint:?}"
        );
    }
}
