//! The statement-level half of `fsdm-check`: the `workload` path lint
//! and the `plan` type-check over the paper's two workloads.
//!
//! Each workload's database is rebuilt with DataGuide maintenance on
//! (the benchmark tables skip it) and is shared by both passes.
//! `workload` runs every query the paper issues through the semantic
//! analyzer (FA codes); the OLAP queries go through views, so the JSON
//! paths buried in the view definitions are linted against the `po`
//! guide as well. `plan` plans every query and puts it through
//! `Session::typecheck` — plan-level schema/type inference plus the
//! optimizer translation validator (PK codes); NoBench Q11 and the OLAP
//! view bodies have no SQL text of their own, so their plans are checked
//! directly.

use fsdm_analyze::{analyze_path, AnalyzerConfig, Diagnostic};
use fsdm_bench::setup::{
    add_nobench_vcs, bind_datum, nobench_guided_db, nobench_q11_plan, nobench_q5_bind,
    olap_guided_db, olap_queries, po_dmdv_def,
};
use fsdm_sql::{Session, SqlError};
use fsdm_sqljson::parse_path;
use fsdm_store::Query;
use fsdm_workloads::nobench;

use crate::{Finding, Report, PLAN, WORKLOAD};

/// Statement findings under one label, counted as one checked item.
pub fn record(report: &mut Report, label: &str, diagnostics: Vec<Diagnostic>) {
    report.checked += 1;
    for diagnostic in diagnostics {
        report.findings.push(Finding { site: label.to_string(), line: 0, diagnostic });
    }
}

/// Run the passes named by `series` ([`WORKLOAD`], [`PLAN`]) over
/// `workload` (`nobench`, `olap` or `both`) at corpus scale `n`,
/// building each guided database once.
pub fn check_workloads(workload: &str, n: usize, series: &[&str]) -> Result<Report, SqlError> {
    let (lint, plans) = (series.contains(&WORKLOAD), series.contains(&PLAN));
    let mut report = Report::default();
    if workload != "olap" {
        let mut session = nobench_guided_db(n);
        if lint {
            lint_nobench(&session, n, &mut report)?;
        }
        if plans {
            // after the lint (FA007 reports what is *not* materialized):
            // the VC variant of Q11 needs the nb$ virtual columns
            add_nobench_vcs(&mut session);
            plan_nobench(&session, n, &mut report)?;
        }
    }
    if workload != "nobench" {
        let session = olap_guided_db(n);
        if lint {
            lint_olap(&session, n, &mut report)?;
        }
        if plans {
            plan_olap(&session, n, &mut report)?;
        }
    }
    Ok(report)
}

/// Lint the NOBENCH Q1–Q10 SQL against a guide built from the same
/// deterministic corpus the benchmarks load.
fn lint_nobench(session: &Session, n: usize, report: &mut Report) -> Result<(), SqlError> {
    for q in 1..=10 {
        record(report, &format!("nobench:Q{q}"), session.analyze(&nobench::query_sql(q, n))?);
    }
    Ok(())
}

/// Lint the Table 13 OLAP SQL, then the JSON paths inside the `po_mv` /
/// `po_item_dmdv` view definitions (the queries themselves only touch
/// views, so the paths are where the guide has something to say).
fn lint_olap(session: &Session, n: usize, report: &mut Report) -> Result<(), SqlError> {
    for q in olap_queries(n) {
        record(report, &format!("olap:Q{}", q.id), session.analyze(&q.sql)?);
    }
    let Some(t) = session.db.table("po") else { return Ok(()) };
    let cfg = AnalyzerConfig::default();
    for (label, text) in view_paths() {
        let path =
            parse_path(&text).map_err(|e| SqlError::new(format!("bad view path '{text}': {e}")))?;
        record(report, &label, analyze_path(&t.dataguide, &path, &cfg));
    }
    Ok(())
}

/// Lint `;`-separated SQL statements against a workload's database
/// (the `--sql FILE` mode). Line comments (`--`) are stripped.
pub fn lint_sql_text(session: &Session, source: &str) -> Result<Report, SqlError> {
    let stripped: String = source
        .lines()
        .map(|l| l.split_once("--").map(|(code, _)| code).unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n");
    let mut report = Report::default();
    for (i, stmt) in stripped.split(';').map(str::trim).filter(|s| !s.is_empty()).enumerate() {
        record(&mut report, &format!("sql:{}", i + 1), session.analyze(stmt)?);
    }
    Ok(report)
}

/// Every JSON path a generated view evaluates, with the nested-column
/// paths composed onto their row paths.
fn view_paths() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for f in ["reference", "requestor", "costcenter", "podate"] {
        out.push((format!("view:po_mv.{f}"), format!("$.purchaseOrder.{f}")));
    }
    let def = po_dmdv_def();
    let row = def.row_path.text();
    for c in &def.columns {
        out.push((format!("view:po_item_dmdv.{}", c.name), compose(row, c.path.text())));
    }
    for nd in &def.nested {
        let nrow = compose(row, nd.path.text());
        for c in &nd.columns {
            out.push((format!("view:po_item_dmdv.{}", c.name), compose(&nrow, c.path.text())));
        }
    }
    out
}

/// `$.purchaseOrder` + `$.items[*]` → `$.purchaseOrder.items[*]`.
fn compose(row: &str, sub: &str) -> String {
    format!("{}{}", row, sub.strip_prefix('$').unwrap_or(sub))
}

/// Type-check NoBench Q1–Q10 (SQL) and Q11 (plan-level, both the
/// json_value and virtual-column join variants).
fn plan_nobench(session: &Session, n: usize, report: &mut Report) -> Result<(), SqlError> {
    for q in 1..=10 {
        let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { Vec::new() };
        let inf = session.typecheck_with(&nobench::query_sql(q, n), &binds)?;
        record(report, &format!("nobench:Q{q}"), inf.diagnostics);
    }
    for (suffix, vc) in [("", false), ("vc", true)] {
        let inf = session.typecheck_plan(&nobench_q11_plan(n, vc));
        record(report, &format!("nobench:Q11{suffix}"), inf.diagnostics);
    }
    Ok(())
}

/// Type-check the Table 13 OLAP SQL, then the `po_mv` / `po_item_dmdv`
/// view bodies themselves (every query goes through them, so a type
/// defect inside a view surfaces once, under its own label).
fn plan_olap(session: &Session, n: usize, report: &mut Report) -> Result<(), SqlError> {
    for q in olap_queries(n) {
        let binds: Vec<_> = q.binds.iter().map(|s| bind_datum(s)).collect();
        let inf = session.typecheck_with(&q.sql, &binds)?;
        record(report, &format!("olap:Q{}", q.id), inf.diagnostics);
    }
    for view in ["po_mv", "po_item_dmdv"] {
        let inf = session.typecheck_plan(&Query::view(view));
        record(report, &format!("view:{view}"), inf.diagnostics);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_analyze::Code;

    fn sites(report: &Report) -> Vec<&str> {
        report.findings.iter().map(|f| f.site.as_str()).collect()
    }

    #[test]
    fn nobench_lint_is_error_free_and_sees_sparse_paths() {
        let report = check_workloads("nobench", 300, &[WORKLOAD]).unwrap();
        assert_eq!(report.checked, 10);
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        // the sparse_XXX paths sit at ~1% frequency: FA005 warnings
        assert!(report.warnings() > 0, "{}", report.render_text());
        assert!(report.findings.iter().any(|f| f.diagnostic.code == Code::LowFrequencyPath));
    }

    #[test]
    fn olap_lint_is_error_free_and_covers_view_paths() {
        let report = check_workloads("olap", 200, &[WORKLOAD]).unwrap();
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        assert!(sites(&report).contains(&"view:po_mv.reference"), "{}", report.render_text());
        let labels: Vec<String> = view_paths().into_iter().map(|(label, _)| label).collect();
        assert!(labels.contains(&"view:po_item_dmdv.partno".to_string()), "{labels:?}");
        let partno = view_paths().into_iter().find(|(l, _)| l == "view:po_item_dmdv.partno");
        assert_eq!(partno.unwrap().1, "$.purchaseOrder.items[*].partno");
    }

    #[test]
    fn sql_file_mode_flags_unknown_paths() {
        let session = nobench_guided_db(100);
        let src = "-- a stale query\nselect did from nobench \
                   where json_exists(jdoc, '$.persno');\n\
                   select json_value(jdoc, '$.str1') from nobench;";
        let report = lint_sql_text(&session, src).unwrap();
        assert_eq!(report.checked, 2);
        assert_eq!(report.errors(), 1, "{}", report.render_text());
        let unknown = report.findings.iter().find(|f| f.diagnostic.code == Code::UnknownPath);
        assert_eq!(unknown.map(|f| f.site.as_str()), Some("sql:1"));
        assert!(report.render_json().contains("\"errors\": 1"));
    }

    #[test]
    fn plans_typecheck_error_free_and_cover_q11_and_the_views() {
        let report = check_workloads("both", 200, &[PLAN]).unwrap();
        // NoBench Q1-Q10 + both Q11 variants, OLAP Q1-Q9 + both view bodies
        assert_eq!(report.checked, 23, "{}", report.render_text());
        assert_eq!(report.errors(), 0, "{}", report.render_text());
    }

    #[test]
    fn both_passes_share_one_database_without_changing_the_lint() {
        let lint = check_workloads("both", 120, &[WORKLOAD]).unwrap();
        let plans = check_workloads("both", 120, &[PLAN]).unwrap();
        let both = check_workloads("both", 120, &[WORKLOAD, PLAN]).unwrap();
        assert_eq!(both.checked, lint.checked + plans.checked);
        let mut separate: Vec<Finding> = lint.findings;
        separate.extend(plans.findings);
        let key = |f: &Finding| (f.site.clone(), f.diagnostic.code);
        let mut a: Vec<_> = both.findings.iter().map(key).collect();
        let mut b: Vec<_> = separate.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
