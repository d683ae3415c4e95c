//! Statement-level semantic analysis: the prepare-time hook of
//! `fsdm-analyze`.
//!
//! The path-level checks live in the `fsdm-analyze` crate; this module
//! contributes what only the SQL layer knows — *which* table and JSON
//! column each embedded path probes. A parsed `SELECT` is walked for
//! every `JSON_VALUE` / `JSON_EXISTS` call (select list, WHERE, GROUP
//! BY, ORDER BY, LAG arguments) and every `JSON_TABLE` in the FROM
//! clause (row path plus each column sub-path composed onto it, through
//! `NESTED PATH` blocks), each path is resolved to its base table, and
//! [`fsdm_analyze::analyze_path`] runs against that table's DataGuide.
//!
//! Findings surface in three places: [`Session::analyze`] (the lint
//! binary's entry point), [`Session::explain`] (diagnostics + the plan
//! before and after optimization), and the statement report
//! ([`fsdm_store::QueryProfile`]) returned by [`Session::report`].

use std::collections::BTreeSet;

use fsdm_analyze::{analyze_path, normalized_field_path, AnalyzerConfig, Diagnostic};
use fsdm_sqljson::{parse_path, Datum};
use fsdm_store::{ColType, Database, Expr, JsonStorage, Table};

use crate::ast::{FromSource, JtColumn, Select, SelectItem, SqlExpr, Statement};
use crate::parser::parse_sql;
use crate::planner::{dataguide_agg_target, Session};
use crate::{Result, SqlError};

impl Session {
    /// Prepare-time semantic lint: parse `sql` and run the `fsdm-analyze`
    /// checks on every embedded SQL/JSON path, each against the DataGuide
    /// of the table it probes. Statements without embedded paths, and
    /// paths over guide-less columns, produce no findings. Path text that
    /// fails to parse is an error here too — it could never execute.
    pub fn analyze(&self, sql: &str) -> Result<Vec<Diagnostic>> {
        self.analyze_statement(&parse_sql(sql)?)
    }

    fn analyze_statement(&self, stmt: &Statement) -> Result<Vec<Diagnostic>> {
        match stmt {
            Statement::Select(sel) | Statement::CreateView { select: sel, .. } => {
                analyze_select(&self.db, sel)
            }
            _ => Ok(Vec::new()),
        }
    }

    /// `EXPLAIN`: the analyzer's findings plus the logical plan before
    /// and after optimization, so the §6.3 pushdown and the (opt-in)
    /// dead-path pruning rewrite are both visible.
    pub fn explain(&self, sql: &str, binds: &[Datum]) -> Result<String> {
        let stmt = parse_sql(sql)?;
        let diags = self.analyze_statement(&stmt)?;
        let mut out = String::new();
        if diags.is_empty() {
            out.push_str("diagnostics: none\n");
        } else {
            out.push_str("diagnostics:\n");
            for line in fsdm_analyze::render_text(&diags).lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        // DDL/DML and the session-driven JSON_DATAGUIDEAGG never produce a
        // volcano plan; the diagnostics alone are the output
        let plan = match &stmt {
            Statement::Select(sel) if dataguide_agg_target(sel).is_none() => {
                Some(self.plan_select(sel, binds))
            }
            _ => None,
        };
        match plan {
            Some(Ok(plan)) => {
                push_tree(&mut out, "plan:", &plan.render());
                let optimized = fsdm_store::optimizer::optimize(&self.db, plan.clone());
                // annotated with the executor's pipeline selection:
                // `mode=columnar` on operators that run vectorized kernels
                push_tree(&mut out, "optimized:", &self.db.explain_modes(&optimized));
                // the planck verdict: inferred output schema plus any
                // PK findings (type errors, unstable keys, rewrite drift)
                let inf = self.typecheck_plan(&plan);
                out.push_str("schema: ");
                out.push_str(&inf.schema.render());
                out.push('\n');
                if inf.diagnostics.is_empty() {
                    out.push_str("typecheck: ok\n");
                } else {
                    out.push_str("typecheck:\n");
                    for line in fsdm_analyze::render_text(&inf.diagnostics).lines() {
                        out.push_str("  ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
            }
            Some(Err(e)) => out.push_str(&format!("plan: error: {}\n", e.message)),
            None => out.push_str("plan: (statement does not plan to the query algebra)\n"),
        }
        Ok(out)
    }
}

fn push_tree(out: &mut String, header: &str, tree: &str) {
    out.push_str(header);
    out.push('\n');
    for line in tree.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
}

/// Analyze one parsed SELECT against the database's tables.
pub fn analyze_select(db: &Database, sel: &Select) -> Result<Vec<Diagnostic>> {
    fsdm_obs::counter!(fsdm_obs::catalog::ANALYZE_STMTS_ANALYZED).inc();
    // alias → table map from the FROM clause (views have no DataGuide of
    // their own and are skipped; their base paths were linted when the
    // view was created)
    let mut tables: Vec<(String, String)> = Vec::new();
    for src in &sel.from {
        if let FromSource::Table { name, alias } = src {
            if db.table(name).is_some() {
                tables.push((alias.clone().unwrap_or_else(|| name.clone()), name.clone()));
            }
        }
    }
    // collect (json column reference, path text) sites
    let mut sites: Vec<(&SqlExpr, String)> = Vec::new();
    for src in &sel.from {
        if let FromSource::JsonTable { column, row_path, columns, .. } = src {
            let mut paths = vec![row_path.clone()];
            collect_jt_paths(row_path, columns, &mut paths);
            for p in paths {
                sites.push((column, p));
            }
        }
    }
    let mut expr_sites: Vec<(&SqlExpr, &str)> = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr(e, _) = item {
            walk_expr(e, &mut expr_sites);
        }
    }
    if let Some(w) = &sel.where_clause {
        walk_expr(w, &mut expr_sites);
    }
    for g in &sel.group_by {
        walk_expr(g, &mut expr_sites);
    }
    for o in &sel.order_by {
        walk_expr(&o.expr, &mut expr_sites);
    }
    sites.extend(expr_sites.into_iter().map(|(c, p)| (c, p.to_string())));

    let mut out = Vec::new();
    for (colref, path_text) in sites {
        let Some((table, col)) = resolve_json_col(db, &tables, colref) else { continue };
        let path = parse_path(&path_text)
            .map_err(|e| SqlError::new(format!("bad JSON path '{path_text}': {e}")))?;
        out.extend(analyze_path(&table.dataguide, &path, &config_for(table, col)));
    }
    Ok(out)
}

/// Resolve a (possibly qualified) identifier to a base table's JSON
/// column, scanning FROM sources in order like the planner's scope does.
fn resolve_json_col<'a>(
    db: &'a Database,
    tables: &[(String, String)],
    e: &SqlExpr,
) -> Option<(&'a Table, usize)> {
    let SqlExpr::Ident(q, name) = e else { return None };
    for (alias, tname) in tables {
        if let Some(q) = q {
            if !q.eq_ignore_ascii_case(alias) {
                continue;
            }
        }
        let t = db.table(tname)?;
        if let Some(i) = t.schema.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name)) {
            if matches!(t.schema.columns[i].ty, ColType::Json(_)) {
                return Some((t, i));
            }
        }
    }
    None
}

/// Build the analyzer configuration the table implies: TEXT storage
/// enables the streamability check, and virtual columns over this JSON
/// column suppress FA007 for their (already materialized) paths.
fn config_for(table: &Table, col: usize) -> AnalyzerConfig {
    let text_storage = matches!(table.schema.columns[col].ty, ColType::Json(JsonStorage::Text));
    let mut materialized_vc_paths = BTreeSet::new();
    for vc in &table.virtual_columns {
        if let Expr::JsonValue { col: c, path, .. } = &vc.expr {
            if *c == col {
                if let Some(n) = normalized_field_path(path.as_ref()) {
                    materialized_vc_paths.insert(n);
                }
            }
        }
    }
    AnalyzerConfig { text_storage, materialized_vc_paths, ..Default::default() }
}

/// Every `JSON_VALUE` / `JSON_EXISTS` site inside an expression tree, as
/// (column reference, path text) pairs.
fn walk_expr<'a>(e: &'a SqlExpr, out: &mut Vec<(&'a SqlExpr, &'a str)>) {
    match e {
        SqlExpr::JsonValue(col, path, _) => out.push((col, path)),
        SqlExpr::JsonExists(col, path) => out.push((col, path)),
        SqlExpr::Binary(l, _, r) => {
            walk_expr(l, out);
            walk_expr(r, out);
        }
        SqlExpr::Not(x) | SqlExpr::IsNull(x, _) | SqlExpr::Like(x, _) => walk_expr(x, out),
        SqlExpr::DataGuideAgg(x) => walk_expr(x, out),
        SqlExpr::InList(x, list, _) => {
            walk_expr(x, out);
            for v in list {
                walk_expr(v, out);
            }
        }
        SqlExpr::Between(x, lo, hi) => {
            walk_expr(x, out);
            walk_expr(lo, out);
            walk_expr(hi, out);
        }
        SqlExpr::Call(_, args) => {
            for a in args {
                walk_expr(a, out);
            }
        }
        SqlExpr::Lag { expr, default, order, .. } => {
            walk_expr(expr, out);
            if let Some(d) = default {
                walk_expr(d, out);
            }
            for o in order {
                walk_expr(&o.expr, out);
            }
        }
        SqlExpr::Ident(..)
        | SqlExpr::NumLit(_)
        | SqlExpr::StrLit(_)
        | SqlExpr::Null
        | SqlExpr::Bind
        | SqlExpr::CountStar => {}
    }
}

/// Compose the full document path each JSON_TABLE column reads:
/// `$.items[*]` + `$.partno` → `$.items[*].partno`. A mode keyword on
/// the sub-path is dropped (the row path's mode governs evaluation).
fn compose(row: &str, sub: &str) -> Option<String> {
    let sub = sub.trim();
    let sub = sub
        .strip_prefix("strict")
        .or_else(|| sub.strip_prefix("lax"))
        .map(str::trim_start)
        .unwrap_or(sub);
    let rest = sub.strip_prefix('$')?;
    Some(format!("{}{rest}", row.trim_end()))
}

fn collect_jt_paths(prefix: &str, cols: &[JtColumn], out: &mut Vec<String>) {
    for c in cols {
        match c {
            JtColumn::Value { path, .. } | JtColumn::Exists { path, .. } => {
                if let Some(p) = compose(prefix, path) {
                    out.push(p);
                }
            }
            JtColumn::Ordinality { .. } => {}
            JtColumn::Nested { path, columns } => {
                if let Some(p) = compose(prefix, path) {
                    out.push(p.clone());
                    collect_jt_paths(&p, columns, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_analyze::{Code, Severity};

    /// A session with a guided OSON table and a guided TEXT table, both
    /// populated with the same small purchase-order corpus.
    fn session() -> Session {
        let mut s = Session::new();
        s.execute("create table po (did number, jdoc json store as oson with dataguide)").unwrap();
        s.execute("create table pt (did number, jdoc json store as text with dataguide)").unwrap();
        for t in ["po", "pt"] {
            for i in 0..4 {
                let doc = format!(
                    r#"{{"reference":"R-{i}","total":{i},"items":[{{"partno":"P{i}","quantity":{i}}}]}}"#
                );
                s.execute_with(
                    &format!("insert into {t} values (?, ?)"),
                    &[Datum::from(i as i64), Datum::Str(doc)],
                )
                .unwrap();
            }
        }
        s
    }

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|x| x.code.id()).collect()
    }

    #[test]
    fn unknown_path_in_where_clause_is_flagged() {
        let s = session();
        let d = s.analyze("select did from po where json_exists(jdoc, '$.persno')").unwrap();
        assert!(codes(&d).contains(&Code::UnknownPath.id()), "{d:?}");
        // the same query over a known path is clean of errors
        let d = s.analyze("select did from po where json_exists(jdoc, '$.reference')").unwrap();
        assert!(d.iter().all(|x| x.severity < Severity::Error), "{d:?}");
    }

    #[test]
    fn json_value_sites_resolve_through_aliases() {
        let s = session();
        let d = s.analyze("select json_value(a.jdoc, '$.nosuch') from po a").unwrap();
        assert_eq!(codes(&d), vec![Code::UnknownPath.id()], "{d:?}");
        // a wrong alias resolves nowhere: no guide, no findings
        let d = s.analyze("select json_value(b.jdoc, '$.nosuch') from po a").unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn json_table_columns_compose_onto_the_row_path() {
        let s = session();
        let sql = "select jt.partno from po, json_table(jdoc, '$.items[*]' columns \
                   (partno varchar2(8) path '$.partno', bogus number path '$.bogus')) jt";
        let d = s.analyze(sql).unwrap();
        // `$.items[*].bogus` is unknown; `$.items[*].partno` is fine
        assert!(codes(&d).contains(&Code::UnknownPath.id()), "{d:?}");
        assert!(d.iter().any(|x| x.path.contains("$.items[*].bogus")), "{d:?}");
        assert!(
            !d.iter().any(|x| x.code == Code::UnknownPath && x.path.contains("partno")),
            "{d:?}"
        );
    }

    #[test]
    fn text_storage_drives_the_streamability_check() {
        let s = session();
        let sql = "select did from pt where json_exists(jdoc, '$.items[*]?(@.quantity > 1)')";
        let d = s.analyze(sql).unwrap();
        assert!(codes(&d).contains(&Code::UnstreamablePath.id()), "{d:?}");
        // same query against the OSON table: no FA006
        let sql = "select did from po where json_exists(jdoc, '$.items[*]?(@.quantity > 1)')";
        let d = s.analyze(sql).unwrap();
        assert!(!codes(&d).contains(&Code::UnstreamablePath.id()), "{d:?}");
    }

    #[test]
    fn ddl_and_guideless_tables_are_silent() {
        let mut s = Session::new();
        assert!(s.analyze("create table t (a number)").unwrap().is_empty());
        s.execute("create table t (a number, j json store as oson)").unwrap();
        s.execute_with("insert into t values (1, ?)", &[Datum::Str("{\"x\":1}".into())]).unwrap();
        // no DataGuide on the column: nothing provable, nothing reported
        let d = s.analyze("select a from t where json_exists(j, '$.zz')").unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn explain_shows_diagnostics_and_both_plans() {
        let mut s = session();
        s.db.set_dead_path_pruning(true);
        let sql = "select did from po where json_exists(jdoc, '$.persno')";
        let text = s.explain(sql, &[]).unwrap();
        let banner = format!("{} error [{}]", Code::UnknownPath.id(), Code::UnknownPath.slug());
        assert!(text.contains(&banner), "{text}");
        assert!(text.contains("plan:"), "{text}");
        assert!(text.contains("Filter pred=JSON_EXISTS"), "{text}");
        assert!(text.contains("optimized:"), "{text}");
        assert!(text.contains("filter=false"), "pruned scan shown: {text}");
        // pruning on/off must not change results
        let pruned = s.execute(sql).unwrap();
        s.db.set_dead_path_pruning(false);
        assert_eq!(pruned, s.execute(sql).unwrap());
        assert!(pruned.rows.is_empty());
    }

    #[test]
    fn profile_attaches_diagnostics() {
        let mut s = session();
        let (_, profile) =
            s.report("select did from po where json_exists(jdoc, '$.persno')", &[], false).unwrap();
        let p = profile.expect("SELECT reports");
        assert!(codes(&p.diagnostics).contains(&Code::UnknownPath.id()), "{:?}", p.diagnostics);
        assert!(p.render().contains(Code::UnknownPath.id()), "{}", p.render());
        // a clean statement carries no findings
        let (_, profile) = s.report("select did from po", &[], false).unwrap();
        assert!(profile.unwrap().diagnostics.is_empty());
    }

    #[test]
    fn vc_materialization_suppresses_fa007() {
        let mut s = session();
        let d = s.analyze("select json_value(jdoc, '$.reference') from po").unwrap();
        assert!(codes(&d).contains(&Code::VcCandidate.id()), "{d:?}");
        // materialize the path as a virtual column, same query goes quiet
        let t = s.db.table_mut("po").unwrap();
        let path = parse_path("$.reference").unwrap();
        t.virtual_columns.push(fsdm_store::table::VirtualColumn {
            name: "ref_vc".into(),
            expr: Expr::json_value(1, path, fsdm_sqljson::SqlType::Varchar2(16)),
        });
        let d = s.analyze("select json_value(jdoc, '$.reference') from po").unwrap();
        assert!(!codes(&d).contains(&Code::VcCandidate.id()), "{d:?}");
    }
}
