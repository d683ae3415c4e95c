//! The statement-level half of `fsdm-check`: the `workload` path lint
//! and the `plan` type-check over the paper's two workloads.
//!
//! Each workload's database is rebuilt with DataGuide maintenance on
//! (the benchmark tables skip it). Every statement the paper issues is
//! planned and walked **once**, by `Session::typecheck_plan`: one
//! `Inference` carries the findings of both series, and the series a
//! run asked for select from it by code — `workload` the FA codes (each
//! SQL/JSON path the plan evaluates against the DataGuide of the table
//! it probes), `plan` the PK codes (schema/type inference plus the
//! optimizer translation validator). A statement's findings include
//! those of the view bodies it runs; NoBench Q11 and the `po_mv` /
//! `po_item_dmdv` view bodies have no SQL text of their own, so their
//! plans are checked directly, each under its own label.

use fsdm_analyze::Diagnostic;
use fsdm_bench::setup::{
    add_nobench_vcs, bind_datum, nobench_guided_db, nobench_q11_plan, nobench_q5_bind,
    olap_guided_db, olap_queries,
};
use fsdm_sql::{Session, SqlError};
use fsdm_store::Query;
use fsdm_workloads::nobench;

use crate::{Finding, Report, WORKLOAD};

/// Statement findings under one label, counted as one checked item.
pub fn record(report: &mut Report, label: &str, diagnostics: Vec<Diagnostic>) {
    report.checked += 1;
    for diagnostic in diagnostics {
        report.findings.push(Finding { site: label.to_string(), line: 0, diagnostic });
    }
}

/// Check `plan` once and record, under `label`, the findings whose code
/// belongs to one of `series` ([`WORKLOAD`], [`crate::PLAN`]).
fn check(report: &mut Report, session: &Session, label: &str, plan: &Query, series: &[&str]) {
    let mut found = session.typecheck_plan(plan).diagnostics;
    found.retain(|d| series.iter().any(|s| d.code.id().starts_with(s)));
    record(report, label, found);
}

/// Run the passes named by `series` over `workload` (`nobench`, `olap`
/// or `both`) at corpus scale `n`: NoBench Q1–Q10 (SQL) and Q11
/// (plan-level, both the json_value and virtual-column join variants),
/// the Table 13 OLAP SQL, then the `po_mv` / `po_item_dmdv` view bodies
/// themselves (every OLAP query goes through them, so a defect inside a
/// view also surfaces once under its own label). A statement that does
/// not plan is an error: it could never execute.
pub fn check_workloads(workload: &str, n: usize, series: &[&str]) -> Result<Report, SqlError> {
    let mut report = Report::default();
    if workload != "olap" {
        let mut session = nobench_guided_db(n);
        for q in 1..=10 {
            let binds = if q == 5 { vec![nobench_q5_bind(n)] } else { Vec::new() };
            let plan = session.plan(&nobench::query_sql(q, n), &binds)?;
            check(&mut report, &session, &format!("nobench:Q{q}"), &plan, series);
        }
        // after Q1–Q10 (FA007 reports what is *not* materialized): the VC
        // variant of Q11 needs the nb$ virtual columns
        add_nobench_vcs(&mut session);
        for (suffix, vc) in [("", false), ("vc", true)] {
            let label = format!("nobench:Q11{suffix}");
            check(&mut report, &session, &label, &nobench_q11_plan(n, vc), series);
        }
    }
    if workload != "nobench" {
        let session = olap_guided_db(n);
        for q in olap_queries(n) {
            let binds: Vec<_> = q.binds.iter().map(|s| bind_datum(s)).collect();
            let plan = session.plan(&q.sql, &binds)?;
            check(&mut report, &session, &format!("olap:Q{}", q.id), &plan, series);
        }
        for view in ["po_mv", "po_item_dmdv"] {
            check(&mut report, &session, &format!("view:{view}"), &Query::view(view), series);
        }
    }
    Ok(report)
}

/// Lint `;`-separated SELECT statements against a workload's database
/// (the `--sql FILE` mode). Line comments (`--`) are stripped.
pub fn lint_sql_text(session: &Session, source: &str) -> Result<Report, SqlError> {
    let stripped: String = source
        .lines()
        .map(|l| l.split_once("--").map(|(code, _)| code).unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n");
    let mut report = Report::default();
    for (i, stmt) in stripped.split(';').map(str::trim).filter(|s| !s.is_empty()).enumerate() {
        let plan = session.plan(stmt, &[])?;
        check(&mut report, session, &format!("sql:{}", i + 1), &plan, &[WORKLOAD]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PLAN;
    use fsdm_analyze::Code;

    fn sites(report: &Report) -> Vec<&str> {
        report.findings.iter().map(|f| f.site.as_str()).collect()
    }

    #[test]
    fn nobench_lint_is_error_free_and_sees_sparse_paths() {
        let report = check_workloads("nobench", 300, &[WORKLOAD]).unwrap();
        assert_eq!(report.checked, 12, "Q1-Q10 and both Q11 variants");
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        // the sparse_XXX paths sit at ~1% frequency: FA005 warnings
        assert!(report.warnings() > 0, "{}", report.render_text());
        assert!(report.findings.iter().any(|f| f.diagnostic.code == Code::LowFrequencyPath));
    }

    #[test]
    fn olap_lint_is_error_free_and_covers_view_paths() {
        let report = check_workloads("olap", 200, &[WORKLOAD]).unwrap();
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        // the view bodies' paths are linted under the views' own labels,
        // JSON_TABLE columns composed onto their row path ...
        let under = |site: &str, path: &str| {
            report.findings.iter().any(|f| f.site == site && f.diagnostic.path == path)
        };
        assert!(under("view:po_mv", "$.purchaseOrder.reference"), "{}", report.render_text());
        assert!(
            under("view:po_item_dmdv", "$.purchaseOrder.costcenter"),
            "{}",
            report.render_text()
        );
        // ... and every statement carries the findings of the views it runs
        assert!(sites(&report).contains(&"olap:Q1"), "{}", report.render_text());
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
        // a statement that does not plan could never execute: an error
        assert!(lint_sql_text(&session, "select nosuch from nobench").is_err());
    }

    #[test]
    fn plans_typecheck_error_free_and_cover_q11_and_the_views() {
        let report = check_workloads("both", 200, &[PLAN]).unwrap();
        // NoBench Q1-Q10 + both Q11 variants, OLAP Q1-Q9 + both view bodies
        assert_eq!(report.checked, 23, "{}", report.render_text());
        assert_eq!(report.errors(), 0, "{}", report.render_text());
    }

    #[test]
    fn one_walk_serves_both_series() {
        let lint = check_workloads("both", 120, &[WORKLOAD]).unwrap();
        let plans = check_workloads("both", 120, &[PLAN]).unwrap();
        let both = check_workloads("both", 120, &[WORKLOAD, PLAN]).unwrap();
        // each statement is planned and walked once, whatever is asked of it
        assert_eq!((lint.checked, plans.checked, both.checked), (23, 23, 23));
        assert!(lint.findings.iter().all(|f| f.diagnostic.code.id().starts_with(WORKLOAD)));
        assert!(plans.findings.iter().all(|f| f.diagnostic.code.id().starts_with(PLAN)));
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
