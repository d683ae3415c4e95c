//! Plan rewrites. The one that matters for the paper's evaluation is the
//! §6.3 pushdown: "The WHERE predicates on the views are pushed down as
//! JSON_EXISTS() with JSON path predicates to be filtered."
//!
//! A filter over a JSON_TABLE expansion is augmented with a document-level
//! `JSON_EXISTS` pre-filter on the base scan: documents that cannot
//! produce any qualifying row are skipped *before* the (expensive)
//! master-detail expansion. The original row-level filter is kept, so the
//! rewrite never changes results — any document admitted by the exists
//! probe still has its rows checked exactly.
//!
//! The second rewrite is the `fsdm-analyze` handshake: a scan-filter
//! conjunct probing a JSON path the table's DataGuide proves empty can
//! never accept a row — `JSON_EXISTS` is false everywhere, and a
//! comparison over `JSON_VALUE` only ever sees SQL NULL — so the scan
//! collapses to a constant-false scan the executor answers without
//! touching a single row.

use fsdm_sqljson::json_table::{ColKind, ColumnDef, JsonTableDef, NestedDef};
use fsdm_sqljson::parse_path;
use fsdm_sqljson::path::{ArraySel, IndexExpr, JsonPath, Step};
use fsdm_sqljson::Datum;

use crate::database::Database;
use crate::expr::{CmpOp, Expr};
use crate::query::Query;
use crate::schema::{ColType, ConstraintMode};

/// Apply all rewrites bottom-up. `db` supplies schema information (scan
/// widths) and view expansion.
///
/// Debug builds run the `typecheck` translation validator on every
/// call (and, through the recursion, on every rewritten subtree): the
/// output plan must be schema-equivalent to the input — same columns,
/// same types, nullability no looser — with its determinism and
/// parallel-safety classes preserved.
pub fn optimize(db: &Database, plan: Query) -> Query {
    #[cfg(debug_assertions)]
    let before = plan.clone();
    let optimized = optimize_inner(db, plan);
    #[cfg(debug_assertions)]
    {
        let violations = crate::typecheck::rewrite_violations(db, &before, &optimized);
        debug_assert!(
            violations.is_empty(),
            "optimizer rewrite is not translation-valid: {violations:?}\nbefore:\n{}after:\n{}",
            before.render(),
            optimized.render()
        );
    }
    optimized
}

fn optimize_inner(db: &Database, plan: Query) -> Query {
    let plan = map_children(db, plan);
    let plan = match plan {
        Query::Filter { input, pred } => match *input {
            // merge into the scan so the executor's vectorized path can
            // evaluate the predicate over IMC column vectors (§5.2.1)
            Query::Scan { table, filter } => {
                let merged = match filter {
                    None => pred,
                    Some(f) => Expr::And(Box::new(f), Box::new(pred)),
                };
                Query::Scan { table, filter: Some(merged) }
            }
            other => try_pushdown(db, other, pred),
        },
        other => other,
    };
    prune_dead_scan(db, plan)
}

/// The analyzer handshake: rewrite `Scan{filter}` to a constant-false
/// scan when one of the filter's conjuncts is provably false against the
/// table's DataGuide. Sound only when the guide covers every stored row,
/// which is checked here (the insert pipeline maintains exactly that for
/// `IsJsonWithDataGuide` columns).
fn prune_dead_scan(db: &Database, plan: Query) -> Query {
    let Query::Scan { table, filter: Some(pred) } = plan else { return plan };
    if pred.conjuncts().iter().any(|c| conjunct_provably_false(db, &table, c)) {
        fsdm_obs::counter!(fsdm_obs::catalog::ANALYZE_PRUNE_DEAD_PREDICATES).inc();
        Query::Scan { table, filter: Some(Expr::Lit(Datum::Bool(false))) }
    } else {
        Query::Scan { table, filter: Some(pred) }
    }
}

/// A conjunct that cannot accept any row: `JSON_EXISTS` over a provably
/// empty path, or a comparison where one operand is `JSON_VALUE` of a
/// provably empty path (always SQL NULL, so the comparison is never
/// true under three-valued logic).
fn conjunct_provably_false(db: &Database, table: &str, c: &Expr) -> bool {
    match c {
        Expr::JsonExists { col, path, .. } => json_path_dead(db, table, *col, path.as_ref()),
        Expr::Cmp(a, _, b) => operand_dead(db, table, a) || operand_dead(db, table, b),
        _ => false,
    }
}

fn operand_dead(db: &Database, table: &str, e: &Expr) -> bool {
    match e {
        Expr::JsonValue { col, path, .. } => json_path_dead(db, table, *col, path.as_ref()),
        _ => false,
    }
}

fn json_path_dead(db: &Database, table: &str, col: usize, path: &JsonPath) -> bool {
    let Some(t) = db.table(table) else { return false };
    let Some(spec) = t.schema.columns.get(col) else { return false };
    if spec.constraint != ConstraintMode::IsJsonWithDataGuide
        || !matches!(spec.ty, ColType::Json(_))
    {
        return false;
    }
    // full coverage check: every stored row contributed to the guide
    // (a second guided JSON column would overcount and disable pruning,
    // which errs on the safe side)
    if t.dataguide.doc_count != t.rows.len() as u64 {
        return false;
    }
    fsdm_analyze::path_provably_empty(&t.dataguide, path)
}

fn map_children(db: &Database, plan: Query) -> Query {
    match plan {
        Query::Filter { input, pred } => {
            Query::Filter { input: Box::new(optimize(db, *input)), pred }
        }
        Query::Project { input, exprs } => {
            Query::Project { input: Box::new(optimize(db, *input)), exprs }
        }
        Query::JsonTable { input, json_col, def } => {
            Query::JsonTable { input: Box::new(optimize(db, *input)), json_col, def }
        }
        Query::HashJoin { left, right, left_key, right_key } => Query::HashJoin {
            left: Box::new(optimize(db, *left)),
            right: Box::new(optimize(db, *right)),
            left_key,
            right_key,
        },
        Query::GroupBy { input, keys, aggs } => {
            Query::GroupBy { input: Box::new(optimize(db, *input)), keys, aggs }
        }
        Query::Sort { input, keys } => Query::Sort { input: Box::new(optimize(db, *input)), keys },
        Query::Window { input, name, fun, order } => {
            Query::Window { input: Box::new(optimize(db, *input)), name, fun, order }
        }
        Query::Limit { input, n } => Query::Limit { input: Box::new(optimize(db, *input)), n },
        Query::Sample { input, pct } => {
            Query::Sample { input: Box::new(optimize(db, *input)), pct }
        }
        // expand views so pushdown sees through them
        Query::ViewScan { view } => match db.view(&view) {
            Some(plan) => optimize(db, plan.clone()),
            None => Query::ViewScan { view },
        },
        leaf @ Query::Scan { .. } => leaf,
    }
}

/// `Filter(pred)` over `[Project?] → JsonTable → Scan`: derive a
/// JSON_EXISTS scan pre-filter from the pushable conjuncts.
fn try_pushdown(db: &Database, input: Query, pred: Expr) -> Query {
    // peel an optional pure-column projection, tracking column mapping
    let (proj, jt) = match input {
        Query::Project { input: inner, exprs } => {
            if exprs.iter().all(|(_, e)| matches!(e, Expr::Col(_))) {
                (Some(exprs), *inner)
            } else {
                return Query::Filter {
                    input: Box::new(Query::Project { input: inner, exprs }),
                    pred,
                };
            }
        }
        other => (None, other),
    };
    let Query::JsonTable { input: jt_input, json_col, def } = jt else {
        // not a JSON_TABLE pipeline: restore and bail
        let restored = match proj {
            Some(exprs) => Query::Project { input: Box::new(jt), exprs },
            None => jt,
        };
        return Query::Filter { input: Box::new(restored), pred };
    };
    let Query::Scan { table, filter } = *jt_input else {
        let restored = rebuild(proj, Query::JsonTable { input: jt_input, json_col, def });
        return Query::Filter { input: Box::new(restored), pred };
    };
    let scan_width = db.table(&table).map(|t| t.scan_column_names().len()).unwrap_or(0);
    let conjuncts = pred.conjuncts();
    let col_paths = column_exists_paths(&def);
    let mut exists_exprs: Vec<Expr> = Vec::new();
    // resolve a column reference through the optional projection to a
    // JSON_TABLE column's exists-path parts
    let resolve = |col: usize| -> Option<&(String, String)> {
        let jt_pos = match &proj {
            Some(exprs) => match exprs.get(col) {
                Some((_, Expr::Col(j))) => *j,
                _ => return None,
            },
            None => col,
        };
        if jt_pos < scan_width {
            return None; // predicate on a base column: not a JT pushdown
        }
        col_paths.get(jt_pos - scan_width)?.as_ref()
    };
    for c in &conjuncts {
        match c {
            Expr::Cmp(l, op, r) => {
                let (col, lit, op) = match (&**l, &**r) {
                    (Expr::Col(i), Expr::Lit(d)) => (*i, d, *op),
                    (Expr::Lit(d), Expr::Col(i)) => (*i, d, flip(*op)),
                    _ => continue,
                };
                let Some(parts) = resolve(col) else { continue };
                if let Some(path_text) = exists_path(parts, op, lit) {
                    if let Ok(p) = parse_path(&path_text) {
                        exists_exprs.push(Expr::json_exists(json_col, p));
                    }
                }
            }
            // `col IN (a, b, c)` → one exists probe with an OR-chain filter
            Expr::InList(inner, list) => {
                let Expr::Col(col) = &**inner else { continue };
                let Some((prefix, sub)) = resolve(*col) else { continue };
                let mut terms = Vec::with_capacity(list.len());
                let mut ok = true;
                for d in list {
                    match render_literal(d) {
                        Some(t) => terms.push(format!("@{sub} == {t}")),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && !terms.is_empty() {
                    let path_text = format!("${prefix}?({})", terms.join(" || "));
                    if let Ok(p) = parse_path(&path_text) {
                        exists_exprs.push(Expr::json_exists(json_col, p));
                    }
                }
            }
            _ => {}
        }
    }
    // dedupe against probes already on the scan filter: the row-level
    // filter is kept above, so a second optimize() pass re-derives the
    // same exists probes — re-ANDing them would break idempotence
    let existing: Vec<String> =
        filter.iter().flat_map(Expr::conjuncts).map(|e| format!("{e:?}")).collect();
    let mut scan_filter = filter;
    for e in exists_exprs {
        if existing.contains(&format!("{e:?}")) {
            continue;
        }
        scan_filter = Some(match scan_filter {
            None => e,
            Some(f) => Expr::And(Box::new(f), Box::new(e)),
        });
    }
    let rebuilt = rebuild(
        proj,
        Query::JsonTable {
            input: Box::new(Query::Scan { table, filter: scan_filter }),
            json_col,
            def,
        },
    );
    Query::Filter { input: Box::new(rebuilt), pred }
}

fn rebuild(proj: Option<Vec<(String, Expr)>>, inner: Query) -> Query {
    match proj {
        Some(exprs) => Query::Project { input: Box::new(inner), exprs },
        None => inner,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// For each JSON_TABLE output column (in `column_names()` order): the
/// (container path text, column sub-path text) to build an exists probe,
/// or `None` when the column is not a simple value column.
fn column_exists_paths(def: &JsonTableDef) -> Vec<Option<(String, String)>> {
    let mut out = Vec::new();
    let root = steps_text(&def.row_path.steps);
    collect_paths(&def.columns, &def.nested, &root, &mut out);
    out
}

fn collect_paths(
    cols: &[ColumnDef],
    nested: &[NestedDef],
    prefix: &str,
    out: &mut Vec<Option<(String, String)>>,
) {
    for c in cols {
        if c.kind == ColKind::Value {
            match simple_sub_path(&c.path.steps) {
                Some(sub) => out.push(Some((prefix.to_string(), sub))),
                None => out.push(None),
            }
        } else {
            out.push(None);
        }
    }
    for n in nested {
        let np = format!("{prefix}{}", steps_text(&n.path.steps));
        collect_paths(&n.columns, &n.nested, &np, out);
    }
}

/// Render steps as path text (fields and `[*]` only; anything else makes
/// the column non-pushable).
fn steps_text(steps: &[Step]) -> String {
    let mut s = String::new();
    for step in steps {
        match step {
            Step::Field { name, .. } => s.push_str(&fsdm_sqljson::path::path_step_text(name)),
            Step::ArrayWildcard => s.push_str("[*]"),
            Step::Array(sels) => {
                if let [ArraySel::Index(IndexExpr::At(i))] = sels.as_slice() {
                    s.push_str(&format!("[{i}]"));
                } else {
                    s.push_str("[*]");
                }
            }
            _ => s.push_str("[*]"), // conservative
        }
    }
    s
}

fn simple_sub_path(steps: &[Step]) -> Option<String> {
    let mut s = String::new();
    for step in steps {
        match step {
            Step::Field { name, .. } => s.push_str(&fsdm_sqljson::path::path_step_text(name)),
            _ => return None,
        }
    }
    Some(s)
}

/// Render a datum as a path literal (`None` when it cannot appear safely
/// inside path text).
fn render_literal(lit: &Datum) -> Option<String> {
    match lit {
        Datum::Num(n) => Some(n.to_literal()),
        Datum::Str(s) if !s.contains(['"', '\'', '\\']) => Some(format!("\"{s}\"")),
        Datum::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// `$<container>?(@<sub> <op> <literal>)` when the literal is renderable.
fn exists_path((prefix, sub): &(String, String), op: CmpOp, lit: &Datum) -> Option<String> {
    let op_text = match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    };
    let lit_text = render_literal(lit)?;
    // a column directly at the row node (`sub` empty) probes `@` itself
    Some(format!("${prefix}?(@{sub} {op_text} {lit_text})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_sqljson::json_table::ColumnDef as CD;
    use fsdm_sqljson::SqlType;

    fn sample_def() -> JsonTableDef {
        let p = |s: &str| parse_path(s).unwrap();
        JsonTableDef {
            row_path: p("$.purchaseOrder"),
            columns: vec![CD::value("reference", SqlType::Varchar2(32), p("$.reference"))],
            nested: vec![NestedDef {
                path: p("$.items[*]"),
                columns: vec![
                    CD::value("partno", SqlType::Varchar2(16), p("$.partno")),
                    CD::value("quantity", SqlType::Number, p("$.quantity")),
                ],
                nested: vec![],
            }],
        }
    }

    #[test]
    fn derives_exists_paths_per_column() {
        let paths = column_exists_paths(&sample_def());
        assert_eq!(paths.len(), 3);
        assert_eq!(
            paths[0].as_ref().unwrap(),
            &(".purchaseOrder".to_string(), ".reference".to_string())
        );
        assert_eq!(
            paths[1].as_ref().unwrap(),
            &(".purchaseOrder.items[*]".to_string(), ".partno".to_string())
        );
    }

    #[test]
    fn exists_path_rendering() {
        let p = (".purchaseOrder.items[*]".to_string(), ".partno".to_string());
        assert_eq!(
            exists_path(&p, CmpOp::Eq, &Datum::from("P100")).unwrap(),
            "$.purchaseOrder.items[*]?(@.partno == \"P100\")"
        );
        assert_eq!(
            exists_path(&p, CmpOp::Gt, &Datum::from(5i64)).unwrap(),
            "$.purchaseOrder.items[*]?(@.partno > 5)"
        );
        assert!(exists_path(&p, CmpOp::Eq, &Datum::Null).is_none());
        assert!(exists_path(&p, CmpOp::Eq, &Datum::from("a\"b")).is_none());
    }

    fn po_db() -> Database {
        use crate::jsonaccess::JsonStorage;
        use crate::schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
        use crate::table::Table;
        let mut db = Database::new();
        db.add_table(Table::new(TableSchema::new(
            "po",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJson),
            ],
        )));
        db
    }

    #[test]
    fn pushdown_adds_scan_prefilter_and_keeps_filter() {
        let def = sample_def();
        let plan = Query::Filter {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def,
            }),
            pred: Expr::cmp(Expr::Col(3), CmpOp::Eq, Expr::Lit(Datum::from("P100"))),
        };
        let opt = optimize(&po_db(), plan);
        match &opt {
            Query::Filter { input, .. } => match &**input {
                Query::JsonTable { input, .. } => match &**input {
                    Query::Scan { filter: Some(f), .. } => {
                        let s = format!("{f:?}");
                        assert!(s.contains("JSON_EXISTS"), "{s}");
                        assert!(s.contains("partno"), "{s}");
                    }
                    other => panic!("expected filtered scan, got {other:?}"),
                },
                other => panic!("expected JsonTable, got {other:?}"),
            },
            other => panic!("expected Filter kept on top, got {other:?}"),
        }
    }

    #[test]
    fn optimize_is_idempotent_on_pushdown_plans() {
        let db = po_db();
        let plan = Query::Filter {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: sample_def(),
            }),
            pred: Expr::And(
                Box::new(Expr::cmp(Expr::Col(3), CmpOp::Eq, Expr::Lit(Datum::from("P100")))),
                Box::new(Expr::InList(
                    Box::new(Expr::Col(4)),
                    vec![Datum::from(1i64), Datum::from(2i64)],
                )),
            ),
        };
        let once = optimize(&db, plan);
        let twice = optimize(&db, once.clone());
        assert_eq!(
            format!("{once:?}"),
            format!("{twice:?}"),
            "a second optimize pass re-fired a rewrite:\n{}vs\n{}",
            once.render(),
            twice.render()
        );
        // the derived probes are still there, exactly once each
        let text = format!("{twice:?}");
        assert_eq!(text.matches("JSON_EXISTS").count(), 2, "{text}");
    }

    fn guided_db() -> Database {
        use crate::jsonaccess::JsonStorage;
        use crate::schema::{ColType, ColumnSpec, TableSchema};
        use crate::table::{InsertValue, Table};
        let mut t = Table::new(TableSchema::new(
            "po",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", JsonStorage::Oson, ConstraintMode::IsJsonWithDataGuide),
            ],
        ));
        for i in 0..3i64 {
            t.insert(vec![i.into(), InsertValue::Json(format!(r#"{{"price":{i}}}"#))]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    #[test]
    fn dead_json_exists_prunes() {
        let dead =
            || Query::scan("po").filter(Expr::json_exists(1, parse_path("$.persno").unwrap()));
        let db = guided_db();
        let plan = optimize(&db, dead());
        assert!(
            matches!(&plan, Query::Scan { filter: Some(Expr::Lit(Datum::Bool(false))), .. }),
            "{plan:?}"
        );
        // the rewrite is visible in EXPLAIN renderings, and execution
        // still returns the (empty) result the live filter would
        assert!(plan.render().contains("filter=false"), "{}", plan.render());
        assert!(db.execute(&dead()).unwrap().rows.is_empty());
    }

    #[test]
    fn dead_json_value_comparison_prunes() {
        let db = guided_db();
        let dead = Query::scan("po").filter(Expr::cmp(
            Expr::json_value(1, parse_path("$.persno").unwrap(), SqlType::Number),
            CmpOp::Eq,
            Expr::Lit(Datum::from(7i64)),
        ));
        let plan = optimize(&db, dead);
        assert!(
            matches!(&plan, Query::Scan { filter: Some(Expr::Lit(Datum::Bool(false))), .. }),
            "{plan:?}"
        );
    }

    #[test]
    fn live_paths_and_unguided_tables_never_prune() {
        let db = guided_db();
        // live path: the guide has seen `price`
        let live = Query::scan("po").filter(Expr::json_exists(1, parse_path("$.price").unwrap()));
        match optimize(&db, live) {
            Query::Scan { filter: Some(f), .. } => {
                assert!(format!("{f:?}").contains("JSON_EXISTS"), "{f:?}");
            }
            other => panic!("{other:?}"),
        }
        // unguided table (plain IS JSON): no proof available, no rewrite
        let db = po_db();
        let dead = Query::scan("po").filter(Expr::json_exists(1, parse_path("$.zz").unwrap()));
        match optimize(&db, dead) {
            Query::Scan { filter: Some(f), .. } => {
                assert!(format!("{f:?}").contains("JSON_EXISTS"), "{f:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_pushable_predicates_left_alone() {
        let def = sample_def();
        let plan = Query::Filter {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def,
            }),
            pred: Expr::IsNull(Box::new(Expr::Col(3))),
        };
        let opt = optimize(&po_db(), plan);
        match &opt {
            Query::Filter { input, .. } => match &**input {
                Query::JsonTable { input, .. } => {
                    assert!(matches!(&**input, Query::Scan { filter: None, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
