//! The seeded violation corpus: the before/after oracle of the
//! consolidation that produced `fsdm-check`.
//!
//! `corpus/crates/*/src` is a fixture tree with one planted violation per
//! concurrency code and per retired source rule, `corpus/workload.sql`
//! plants one finding per FA code, and [`pk_fixtures`] one per PK code.
//! `corpus/golden.txt` lists the `(slug, file|label, line)` triples the
//! four replaced tools reported for them at the parent commit; the one
//! binary must report exactly that list, minus the lines marked
//! `retired:` (rules deleted since, each with the lint, type or test that
//! enforces it now).

use std::process::Command;

use fsdm_analyze::Code;
use fsdm_check::workload::record;
use fsdm_check::Report;
use fsdm_store::schema::{ColumnSpec, ConstraintMode, TableSchema};
use fsdm_store::table::Table;
use fsdm_store::typecheck::{check_plan, rewrite_violations};
use fsdm_store::{CmpOp, ColType, Database, Datum, Expr, JsonStorage, Query};

type Triple = (String, String, usize);

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");

/// Run the real binary, check its exit status, and return the
/// `(slug, site, line)` triples of its `--json` report.
fn run(args: &[&str], expect_exit: i32) -> Vec<Triple> {
    let out = Command::new(env!("CARGO_BIN_EXE_fsdm-check"))
        .args(args)
        .arg("--json")
        .output()
        .expect("fsdm-check runs");
    assert_eq!(out.status.code(), Some(expect_exit), "{args:?}: {out:?}");
    let json = fsdm_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("the report parses");
    let findings = json.get("findings").and_then(|f| f.as_array()).expect("findings[]");
    findings
        .iter()
        .map(|f| {
            let field = |v: &fsdm_json::JsonValue, k: &str| {
                v.get(k).and_then(|s| s.as_str()).expect("a string field").to_string()
            };
            let line = f.get("line").and_then(|l| l.as_i64()).expect("line") as usize;
            (field(f.get("diagnostic").expect("diagnostic"), "name"), field(f, "site"), line)
        })
        .collect()
}

fn triples(report: &Report) -> Vec<Triple> {
    report
        .findings
        .iter()
        .map(|f| (f.diagnostic.code.slug().to_string(), f.site.clone(), f.line))
        .collect()
}

/// `t(n NUMBER, s VARCHAR2, b BOOLEAN, j JSON)` and one plan per PK
/// code — the shapes `fsdm_store::typecheck`'s unit tests plant. PK006
/// needs a hand-broken rewrite (the real optimizer has none), so its
/// fixture is a before/after pair for the translation validator.
fn pk_fixtures() -> (Database, Vec<(&'static str, Query)>, (Query, Query)) {
    let mut db = Database::new();
    db.add_table(Table::new(TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("n", ColType::Number),
            ColumnSpec::new("s", ColType::Varchar2(32)),
            ColumnSpec::new("b", ColType::Boolean),
            ColumnSpec::json("j", JsonStorage::Text, ConstraintMode::IsJson),
        ],
    )));
    let project =
        |exprs: Vec<(String, Expr)>| Query::Project { input: Box::new(Query::scan("t")), exprs };
    let plans = vec![
        ("plan:unknown-column", project(vec![("x".into(), Expr::Col(9))])),
        (
            "plan:plan-type-mismatch",
            Query::scan("t").filter(Expr::cmp(Expr::Col(2), CmpOp::Eq, Expr::Lit(7i64.into()))),
        ),
        (
            "plan:null-comparison",
            Query::scan("t").filter(Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Datum::Null))),
        ),
        (
            "plan:arity-or-duplicate",
            project(vec![("x".into(), Expr::Col(0)), ("x".into(), Expr::Col(1))]),
        ),
        (
            "plan:unstable-order-key",
            Query::Sort { input: Box::new(Query::scan("t")), keys: vec![] },
        ),
    ];
    let before = project(vec![("a".into(), Expr::Col(0)), ("b".into(), Expr::Col(1))]);
    let narrowed = project(vec![("a".into(), Expr::Col(0))]);
    (db, plans, (before, narrowed))
}

#[test]
fn fsdm_check_reports_exactly_the_parent_captured_golden_list() {
    let mut expected: Vec<Triple> = Vec::new();
    let mut retired: Vec<Triple> = Vec::new();
    for line in include_str!("corpus/golden.txt").lines().filter(|l| !l.starts_with('#')) {
        let (entry, gate) = match line.split_once(" retired: ") {
            Some((entry, gate)) => (entry, Some(gate)),
            None => (line, None),
        };
        let mut parts = entry.split(' ');
        let (Some(slug), Some(site), Some(n)) = (parts.next(), parts.next(), parts.next()) else {
            panic!("malformed golden line: {line}");
        };
        let triple = (slug.to_string(), site.to_string(), n.parse().expect("a line number"));
        match gate {
            Some(gate) => {
                assert!(!gate.is_empty(), "a retired rule names its replacement gate: {line}");
                retired.push(triple);
            }
            None => expected.push(triple),
        }
    }

    // concurrency over the fixture tree, through the real binary (exit 1:
    // the corpus is all errors); FA through `workload --sql`
    let mut actual = run(&["concurrency", "--root", CORPUS], 1);
    let sql = format!("{CORPUS}/workload.sql");
    actual.extend(run(&["workload", "--workload", "nobench", "--scale", "200", "--sql", &sql], 1));
    // PK through the shared Finding/Report
    let (db, plans, (before, after)) = pk_fixtures();
    let mut report = Report::default();
    for (label, plan) in plans {
        record(&mut report, label, check_plan(&db, &plan).diagnostics);
    }
    actual.extend(triples(&report));
    if !rewrite_violations(&db, &before, &after).is_empty() {
        let slug = Code::RewriteDivergence.slug().to_string();
        actual.push((slug, "plan:rewrite-divergence".to_string(), 0));
    }

    for triple in &retired {
        assert!(!actual.contains(triple), "a retired rule still fires: {triple:?}");
    }
    actual.sort();
    expected.sort();
    assert_eq!(actual, expected);

    // every code of the three series is planted at least once
    for code in Code::ALL {
        assert!(expected.iter().any(|(slug, _, _)| slug == code.slug()), "{code:?} is not planted");
    }
}

#[test]
fn exit_codes_follow_the_contract() {
    let bin = env!("CARGO_BIN_EXE_fsdm-check");
    let status = |args: &[&str]| Command::new(bin).args(args).output().expect("runs").status.code();
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    assert_eq!(status(&["concurrency", "--root", workspace]), Some(0));
    assert_eq!(status(&["concurrency", "--root", CORPUS]), Some(1));
    assert_eq!(status(&[]), Some(2), "no subcommand is a usage error");
    assert_eq!(status(&["tidy"]), Some(2), "an unknown subcommand is a usage error");
    assert_eq!(status(&["src"]), Some(2), "the retired source pass is unknown");
    assert_eq!(status(&["concurrency", "--fix"]), Some(2), "an unknown flag is a usage error");
    assert_eq!(
        status(&["concurrency", "--root", "/nonexistent"]),
        Some(2),
        "an unreadable root is I/O"
    );
    assert_eq!(status(&["plan", "--sql", "x.sql"]), Some(2), "--sql is workload-only");
}
