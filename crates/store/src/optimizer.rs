//! Plan rewrites: exactly two, each a proof obligation of the
//! translation validator.
//!
//! The first is the §6.3 pushdown: "The WHERE predicates on the views are
//! pushed down as JSON_EXISTS() with JSON path predicates to be
//! filtered." A filter over a JSON_TABLE expansion gains a document-level
//! `JSON_EXISTS` pre-filter below the expansion, `JsonTable(Filter(Scan))`:
//! documents that cannot produce any qualifying row are skipped *before*
//! the (expensive) master-detail expansion. The probe is the column's own
//! document path filtered on `@`, and keeps every item whose SQL value —
//! after SQL's conversions — could satisfy the comparison. The row-level
//! filter is kept, so the rewrite never changes results: any document
//! the probe admits still has its rows checked exactly.
//!
//! The second is the `fsdm-analyze` handshake: a conjunct of a filter over
//! a scan that probes a JSON path the table's DataGuide proves empty can
//! never accept a row — `JSON_EXISTS` is false everywhere, and a
//! comparison over `JSON_VALUE` only ever sees SQL NULL — so the filter's
//! predicate collapses to constant false, and the executor answers
//! without touching a single row.

use fsdm_obs::catalog::metric;
use fsdm_sqljson::json_table::ColKind;
use fsdm_sqljson::path::JsonPath;
use fsdm_sqljson::{parse_path, Datum, SqlType};

use crate::database::Database;
use crate::expr::{CmpOp, Expr};
use crate::query::Query;
use crate::schema::{ColType, ConstraintMode};

/// Apply both rewrites bottom-up. `db` supplies schema information (scan
/// widths) and the DataGuides.
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
    match map_children(db, plan) {
        Query::Filter { input, pred } => match *input {
            Query::Scan { table } => prune_dead(db, table, pred),
            input => pushdown(db, input, pred),
        },
        plan => plan,
    }
}

/// The analyzer handshake: `Filter(pred)` over `Scan(table)`, with `pred`
/// replaced by constant false when one of its conjuncts is provably false
/// against the table's DataGuide. Sound only when the guide covers every
/// stored row, which is checked here (the insert pipeline maintains
/// exactly that for `IsJsonWithDataGuide` columns).
fn prune_dead(db: &Database, table: String, pred: Expr) -> Query {
    if pred.conjuncts().iter().any(|c| conjunct_provably_false(db, &table, c)) {
        metric::ANALYZE_PRUNE_DEAD_PREDICATES.inc();
        return Query::scan_where(table, Expr::Lit(Datum::Bool(false)));
    }
    Query::scan_where(table, pred)
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
    let opt = |input: Box<Query>| Box::new(optimize(db, *input));
    match plan {
        Query::Filter { input, pred } => Query::Filter { input: opt(input), pred },
        Query::Project { input, exprs } => Query::Project { input: opt(input), exprs },
        Query::JsonTable { input, json_col, def } => {
            Query::JsonTable { input: opt(input), json_col, def }
        }
        Query::HashJoin { left, right, left_key, right_key } => {
            Query::HashJoin { left: opt(left), right: opt(right), left_key, right_key }
        }
        Query::GroupBy { input, keys, aggs } => Query::GroupBy { input: opt(input), keys, aggs },
        Query::Sort { input, keys } => Query::Sort { input: opt(input), keys },
        Query::Window { input, name, fun, order } => {
            Query::Window { input: opt(input), name, fun, order }
        }
        Query::Limit { input, n } => Query::Limit { input: opt(input), n },
        Query::Sample { input, pct } => Query::Sample { input: opt(input), pct },
        leaf @ Query::Scan { .. } => leaf,
    }
}

/// The §6.3 pushdown: `Filter(pred)` over `[Project] → JsonTable → Scan`
/// gains the probes of `pred`'s pushable conjuncts in a `Filter` over the
/// `Scan` — joining, deduplicated, the one an earlier pass put there.
fn pushdown(db: &Database, input: Query, pred: Expr) -> Query {
    let probes = probes(db, &input, &pred);
    let input = if probes.is_empty() { input } else { below_expansion(db, input, probes) };
    Query::Filter { input: Box::new(input), pred }
}

/// One `JSON_EXISTS` probe per pushable conjunct of `pred`, in conjunct
/// order: a comparison or `IN` list of literals over a JSON_TABLE value
/// column of `input` — a `JsonTable` whose source is a `Scan`, or the
/// `Filter` over it that earlier probes sit in, under an optional
/// projection.
fn probes(db: &Database, input: &Query, pred: &Expr) -> Vec<Expr> {
    let (renaming, expansion) = match input {
        Query::Project { input, exprs } => (Some(exprs), &**input),
        input => (None, input),
    };
    let Query::JsonTable { input: source, json_col, def } = expansion else { return Vec::new() };
    let scan = match &**source {
        Query::Filter { input, .. } => &**input,
        source => source,
    };
    let Query::Scan { table } = scan else { return Vec::new() };
    let width = db.table(table).map_or(0, |t| t.scan_width());
    let (cols, paths) = (def.flat_columns(), def.column_paths());
    // a column of the filter's input as the JSON_TABLE value column it
    // names: its type and its document path
    let column = |c: usize| {
        let c = match renaming.map(|exprs| exprs.get(c)) {
            Some(Some((_, Expr::Col(c)))) => *c,
            Some(_) => return None,
            None => c,
        };
        let i = c.checked_sub(width)?;
        let path = paths.get(i)?.as_ref()?;
        (cols[i].kind == ColKind::Value).then_some((cols[i].ty, path))
    };
    let mut out = Vec::new();
    for c in pred.conjuncts() {
        let (col, op, lits) = match c {
            Expr::Cmp(l, op, r) => match (&**l, &**r) {
                (Expr::Col(c), Expr::Lit(d)) => (*c, *op, std::slice::from_ref(d)),
                (Expr::Lit(d), Expr::Col(c)) => (*c, flip(*op), std::slice::from_ref(d)),
                _ => continue,
            },
            Expr::InList(e, list) => match &**e {
                Expr::Col(c) => (*c, CmpOp::Eq, list.as_slice()),
                _ => continue,
            },
            _ => continue,
        };
        let Some((ty, path)) = column(col) else { continue };
        let mut terms = Vec::new();
        if lits.iter().all(|lit| probe_terms(ty, op, lit, &mut terms)) && !terms.is_empty() {
            // lax, whatever the row path's mode: a superset of the items
            let (_, steps) = path.text().split_once('$').unwrap_or_default();
            if let Ok(p) = parse_path(&format!("${steps}?({})", terms.join(" || "))) {
                out.push(Expr::json_exists(*json_col, p));
            }
        }
    }
    out
}

/// Add to `terms` the filter terms on `@` that keep every item a column of
/// type `ty` turns into a SQL value satisfying `value op lit` — false
/// when there is no such filter:
/// * a number, or a string literal against a `number` column that
///   [`Datum::as_num`] converts, compares numerically; every string item
///   is kept besides (`@ >= ""`), since SQL may convert it to a match;
/// * a string literal against a `varchar2` or `any` column under `=` is
///   matched as the string, and as the number or boolean it spells: the
///   only non-strings whose text (or value) can equal it;
/// * nothing else: boolean columns or literals, text `<`, `>` and `<>`,
///   and strings path text cannot spell.
fn probe_terms(ty: SqlType, op: CmpOp, lit: &Datum, terms: &mut Vec<String>) -> bool {
    let mut push = |term: String| {
        if !terms.contains(&term) {
            terms.push(term);
        }
    };
    let num = match (lit, ty) {
        (_, SqlType::Boolean) => return false,
        (Datum::Num(n), _) => Some(*n),
        (Datum::Str(_), SqlType::Number) => match lit.as_num() {
            Some(n) => Some(n),
            None => return false,
        },
        (Datum::Str(_), _) => None,
        _ => return false,
    };
    if let Some(n) = num {
        push(format!("@ {} {}", op_text(op), n.to_literal()));
        push("@ >= \"\"".to_string());
        return true;
    }
    let Datum::Str(s) = lit else { return false };
    if op != CmpOp::Eq || s.contains(['"', '\'', '\\']) {
        return false;
    }
    push(format!("@ == \"{s}\""));
    if let Some(n) = lit.as_num() {
        push(format!("@ == {}", n.to_literal()));
    }
    if s == "true" || s == "false" {
        push(format!("@ == {s}"));
    }
    true
}

fn op_text(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
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

/// `input` — the shape [`probes`] read — with `probes` in the `Filter`
/// over its `Scan`, pruned as any such filter is, so that a second pass
/// finds nothing to do. Deduplicated: the row-level filter is kept above,
/// so a second pass re-derives the same probes, and re-ANDing them would
/// break idempotence.
fn below_expansion(db: &Database, input: Query, probes: Vec<Expr>) -> Query {
    match input {
        Query::Project { input, exprs } => {
            Query::Project { input: Box::new(below_expansion(db, *input, probes)), exprs }
        }
        Query::JsonTable { input, json_col, def } => {
            let (scan, mut pred) = match *input {
                Query::Filter { input, pred } => (*input, Some(pred)),
                scan => (scan, None),
            };
            let seen: Vec<String> =
                pred.iter().flat_map(Expr::conjuncts).map(|e| format!("{e:?}")).collect();
            for probe in probes.into_iter().filter(|p| !seen.contains(&format!("{p:?}"))) {
                pred = Some(match pred {
                    None => probe,
                    Some(f) => Expr::And(Box::new(f), Box::new(probe)),
                });
            }
            let source = match (scan, pred) {
                (Query::Scan { table }, Some(pred)) => prune_dead(db, table, pred),
                (scan, _) => scan,
            };
            Query::JsonTable { input: Box::new(source), json_col, def }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_sqljson::json_table::{ColumnDef as CD, JsonTableDef, NestedDef};

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

    /// `Filter(pred)` over the sample expansion of `po`.
    fn over_items(pred: Expr) -> Query {
        Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: sample_def() }
            .filter(pred)
    }

    /// The probe texts `optimize` derives for `pred` over the sample
    /// expansion, in order.
    fn probe_texts(pred: Expr) -> Vec<String> {
        let plan = over_items(pred);
        let Query::Filter { input, pred } = &plan else { unreachable!() };
        let texts = probes(&po_db(), input, pred).into_iter().map(|e| match e {
            Expr::JsonExists { path, .. } => path.text().to_string(),
            other => panic!("{other:?}"),
        });
        texts.collect()
    }

    fn cmp(col: usize, op: CmpOp, lit: impl Into<Datum>) -> Expr {
        Expr::cmp(Expr::Col(col), op, Expr::Lit(lit.into()))
    }

    #[test]
    fn a_probe_is_the_columns_path_filtered_on_the_item() {
        // columns after did, jdoc: reference, partno, quantity
        assert_eq!(
            probe_texts(cmp(3, CmpOp::Eq, "P100")),
            [r#"$.purchaseOrder.items[*].partno?(@ == "P100")"#]
        );
        // a string that spells a number matches the number too
        assert_eq!(
            probe_texts(cmp(3, CmpOp::Eq, "5")),
            [r#"$.purchaseOrder.items[*].partno?(@ == "5" || @ == 5)"#]
        );
        assert_eq!(
            probe_texts(cmp(2, CmpOp::Eq, "true")),
            [r#"$.purchaseOrder.reference?(@ == "true" || @ == true)"#]
        );
        // a numeric comparison keeps every string, which SQL may convert
        assert_eq!(
            probe_texts(cmp(4, CmpOp::Gt, 15i64)),
            [r#"$.purchaseOrder.items[*].quantity?(@ > 15 || @ >= "")"#]
        );
        assert_eq!(
            probe_texts(cmp(4, CmpOp::Lt, "7")),
            [r#"$.purchaseOrder.items[*].quantity?(@ < 7 || @ >= "")"#]
        );
        assert_eq!(
            probe_texts(Expr::InList(Box::new(Expr::Col(4)), vec![7i64.into(), 8i64.into()])),
            [r#"$.purchaseOrder.items[*].quantity?(@ == 7 || @ >= "" || @ == 8)"#]
        );
        // a literal on the left flips the comparison
        let flipped = Expr::cmp(Expr::Lit(Datum::from(3i64)), CmpOp::Lt, Expr::Col(4));
        assert_eq!(
            probe_texts(flipped),
            [r#"$.purchaseOrder.items[*].quantity?(@ > 3 || @ >= "")"#]
        );
    }

    #[test]
    fn no_probe_where_path_text_cannot_keep_every_match() {
        let none = [
            // text order and inequality: no path filter spells SQL's
            cmp(3, CmpOp::Lt, "P100"),
            cmp(3, CmpOp::Ne, "P100"),
            // a string a number column cannot convert never matches
            cmp(4, CmpOp::Eq, "many"),
            // booleans, NULL, and strings path text cannot spell
            cmp(3, CmpOp::Eq, Datum::Bool(true)),
            cmp(3, CmpOp::Eq, Datum::Null),
            cmp(3, CmpOp::Eq, "a\"b"),
            Expr::InList(Box::new(Expr::Col(3)), vec!["a".into(), Datum::Null]),
            // a base column, and what is not a column against a literal
            cmp(0, CmpOp::Eq, 1i64),
            Expr::IsNull(Box::new(Expr::Col(3))),
        ];
        for pred in none {
            assert!(probe_texts(pred.clone()).is_empty(), "{pred:?}");
        }
    }

    #[test]
    fn pushdown_adds_a_filter_below_the_expansion_and_keeps_the_row_filter() {
        let opt = optimize(&po_db(), over_items(cmp(3, CmpOp::Eq, "P100")));
        let Query::Filter { input, .. } = &opt else { panic!("{}", opt.render()) };
        let Query::JsonTable { input, .. } = &**input else { panic!("{}", opt.render()) };
        let Query::Filter { input, pred } = &**input else { panic!("{}", opt.render()) };
        assert!(matches!(&**input, Query::Scan { .. }), "{}", opt.render());
        let s = format!("{pred:?}");
        assert!(s.contains("JSON_EXISTS") && s.contains("partno"), "{s}");
    }

    #[test]
    fn optimize_is_idempotent_on_pushdown_plans() {
        let db = po_db();
        let plan = over_items(Expr::And(
            Box::new(cmp(3, CmpOp::Eq, "P100")),
            Box::new(Expr::InList(Box::new(Expr::Col(4)), vec![1i64.into(), 2i64.into()])),
        ));
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
        use crate::schema::{ColumnSpec, TableSchema};
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

    fn pruned(plan: &Query) -> bool {
        matches!(plan, Query::Filter { pred: Expr::Lit(Datum::Bool(false)), input }
            if matches!(**input, Query::Scan { .. }))
    }

    #[test]
    fn dead_json_exists_prunes() {
        let dead =
            || Query::scan("po").filter(Expr::json_exists(1, parse_path("$.persno").unwrap()));
        let db = guided_db();
        let plan = optimize(&db, dead());
        assert!(pruned(&plan), "{plan:?}");
        // the rewrite is visible in EXPLAIN renderings, and execution
        // still returns the (empty) result the live filter would
        assert!(plan.render().contains("Filter pred=false"), "{}", plan.render());
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
        assert!(pruned(&optimize(&db, dead)));
    }

    #[test]
    fn live_paths_and_unguided_tables_never_prune() {
        // live path: the guide has seen `price`; unguided table (plain IS
        // JSON): no proof available
        let live = Query::scan("po").filter(Expr::json_exists(1, parse_path("$.price").unwrap()));
        let dead = Query::scan("po").filter(Expr::json_exists(1, parse_path("$.zz").unwrap()));
        for (db, plan) in [(guided_db(), live), (po_db(), dead)] {
            let opt = optimize(&db, plan.clone());
            assert_eq!(format!("{opt:?}"), format!("{plan:?}"));
        }
    }

    #[test]
    fn non_pushable_predicates_left_alone() {
        let plan = over_items(Expr::IsNull(Box::new(Expr::Col(3))));
        let opt = optimize(&po_db(), plan.clone());
        assert_eq!(format!("{opt:?}"), format!("{plan:?}"));
    }
}
