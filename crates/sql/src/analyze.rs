//! `EXPLAIN`: one statement's prepare-time picture — the findings of the
//! plan-level check, the logical plan before and after optimization, the
//! inferred output schema.
//!
//! There is one analysis, and it reads the plan: [`Session::typecheck_plan`]
//! (`fsdm_store::typecheck::check_plan`) walks the planned statement —
//! view bodies included — types it (PK codes) and puts every SQL/JSON
//! path it evaluates (`JSON_VALUE` / `JSON_EXISTS` wherever they sit,
//! each `JSON_TABLE` row path and column path composed onto it through
//! `NESTED PATH` blocks) through [`fsdm_analyze::analyze_path`] against
//! the DataGuide of the table the JSON column is scanned from (FA
//! codes). Findings surface here, in [`Session::typecheck`] and in the
//! statement report ([`fsdm_store::QueryProfile`]) of [`Session::report`].

use fsdm_sqljson::Datum;

use crate::ast::Statement;
use crate::parser::parse_sql;
use crate::planner::Session;
use crate::Result;

impl Session {
    /// `EXPLAIN`: the statement's findings (FA path lint and PK plan
    /// typecheck, one block), the logical plan before and after
    /// optimization — so the §6.3 pushdown and the dead-path pruning
    /// rewrite are both visible — and the inferred output schema.
    pub fn explain(&self, sql: &str, binds: &[Datum]) -> Result<String> {
        // DDL/DML never produce a volcano plan
        let Statement::Select(sel) = parse_sql(sql)? else {
            return Ok("plan: (statement does not plan to the query algebra)\n".to_string());
        };
        let plan = match self.plan_select(&sel, binds) {
            Ok(plan) => plan,
            Err(e) => return Ok(format!("plan: error: {}\n", e.message)),
        };
        let inf = self.typecheck_plan(&plan);
        let mut out = String::new();
        if inf.diagnostics.is_empty() {
            out.push_str("diagnostics: none\n");
        } else {
            push_tree(&mut out, "diagnostics:", &fsdm_analyze::render_text(&inf.diagnostics));
        }
        push_tree(&mut out, "plan:", &plan.render());
        let optimized = fsdm_store::optimizer::optimize(&self.db, plan);
        // annotated with the executor's pipeline selection:
        // `mode=columnar` on operators that run vectorized kernels
        push_tree(&mut out, "optimized:", &self.db.explain_modes(&optimized));
        out.push_str(&format!("schema: {}\n", inf.schema.render()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_analyze::{Code, Diagnostic, Severity};
    use fsdm_sqljson::parse_path;
    use fsdm_store::Expr;

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

    /// The findings of the plan-level check of `sql`.
    fn check(s: &Session, sql: &str) -> Vec<Diagnostic> {
        s.typecheck(sql).unwrap().diagnostics
    }

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|x| x.code.id()).collect()
    }

    #[test]
    fn unknown_path_in_where_clause_is_flagged() {
        let s = session();
        let sql = "select did from po where json_exists(jdoc, '$.persno')";
        let d = check(&s, sql);
        assert!(codes(&d).contains(&Code::UnknownPath.id()), "{d:?}");
        // the lint rides `check_plan`'s walk only: plain inference — what
        // the optimizer's debug-build validator runs — stays type-only
        let plan = s.plan(sql, &[]).unwrap();
        assert!(fsdm_store::infer(&s.db, &plan).diagnostics.is_empty());
        // the same query over a known path is clean of errors
        let d = check(&s, "select did from po where json_exists(jdoc, '$.reference')");
        assert!(d.iter().all(|x| x.severity < Severity::Error), "{d:?}");
    }

    #[test]
    fn json_value_sites_resolve_through_aliases() {
        let s = session();
        let d = check(&s, "select json_value(a.jdoc, '$.nosuch') from po a");
        assert_eq!(codes(&d), vec![Code::UnknownPath.id()], "{d:?}");
        // a wrong alias does not plan: the statement could never execute
        assert!(s.typecheck("select json_value(b.jdoc, '$.nosuch') from po a").is_err());
    }

    #[test]
    fn json_table_columns_compose_onto_the_row_path() {
        let s = session();
        let sql = "select jt.partno from po, json_table(jdoc, '$.items[*]' columns \
                   (partno varchar2(8) path '$.partno', bogus number path '$.bogus')) jt";
        let d = check(&s, sql);
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
        let d = check(&s, sql);
        let fa006 = d.iter().find(|x| x.code == Code::UnstreamablePath).expect("unstreamable");
        // it points at the filter, and names the prefix that streams
        assert_eq!(fa006.span.slice(&fa006.path), "?(@.quantity > 1)", "{fa006:?}");
        assert!(fa006.message.contains("`$.items[*]`"), "{fa006:?}");
        // a streamable path over text is clean of it
        let d = check(&s, "select did from pt where json_exists(jdoc, '$.items[*].quantity')");
        assert!(!codes(&d).contains(&Code::UnstreamablePath.id()), "{d:?}");
        // same query against the OSON table: no FA006
        let sql = "select did from po where json_exists(jdoc, '$.items[*]?(@.quantity > 1)')";
        let d = check(&s, sql);
        assert!(!codes(&d).contains(&Code::UnstreamablePath.id()), "{d:?}");
    }

    #[test]
    fn guideless_tables_are_silent() {
        let mut s = Session::new();
        s.execute("create table t (a number, j json store as oson)").unwrap();
        s.execute_with("insert into t values (1, ?)", &[Datum::Str("{\"x\":1}".into())]).unwrap();
        // no DataGuide on the column: nothing provable, nothing reported
        let d = check(&s, "select a from t where json_exists(j, '$.zz')");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn explain_shows_diagnostics_and_both_plans() {
        let mut s = session();
        let sql = "select did from po where json_exists(jdoc, '$.persno')";
        let text = s.explain(sql, &[]).unwrap();
        let banner = format!("{} error [{}]", Code::UnknownPath.id(), Code::UnknownPath.slug());
        assert!(text.contains(&banner), "{text}");
        assert_eq!(text.matches("diagnostics:").count(), 1, "one block: {text}");
        assert!(text.contains("plan:"), "{text}");
        assert!(text.contains("Filter pred=JSON_EXISTS"), "{text}");
        assert!(text.contains("optimized:"), "{text}");
        assert!(text.contains("Filter pred=false"), "pruned filter shown: {text}");
        // the pruned plan returns what the plan as written returns
        let pruned = s.execute(sql).unwrap();
        assert_eq!(pruned, s.db.execute_unoptimized(&s.plan(sql, &[]).unwrap()).unwrap());
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
    fn a_statement_over_a_view_carries_the_view_bodys_findings() {
        let mut s = session();
        s.execute("create view v as select did from po where json_exists(jdoc, '$.persno')")
            .unwrap();
        let (_, profile) = s.report("select * from v", &[], false).unwrap();
        let d = profile.expect("SELECT reports").diagnostics;
        assert!(codes(&d).contains(&Code::UnknownPath.id()), "{d:?}");
        assert!(d.iter().any(|x| x.path == "$.persno"), "{d:?}");
    }

    #[test]
    fn vc_materialization_suppresses_fa007() {
        let mut s = session();
        let d = check(&s, "select json_value(jdoc, '$.reference') from po");
        assert!(codes(&d).contains(&Code::VcCandidate.id()), "{d:?}");
        // materialize the path as a virtual column, same query goes quiet
        let t = s.db.table_mut("po").unwrap();
        let path = parse_path("$.reference").unwrap();
        t.virtual_columns.push(fsdm_store::table::VirtualColumn {
            name: "ref_vc".into(),
            expr: Expr::json_value(1, path, fsdm_sqljson::SqlType::Varchar2(16)),
        });
        let d = check(&s, "select json_value(jdoc, '$.reference') from po");
        assert!(!codes(&d).contains(&Code::VcCandidate.id()), "{d:?}");
    }
}
