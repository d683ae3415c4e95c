//! `fsdm-check`: run the workspace's verification passes.
//!
//! ```text
//! fsdm-check all                               # every pass: the CI gate
//! fsdm-check concurrency [--root DIR]          # lock/atomic/spawn discipline
//! fsdm-check workload [--workload nobench|olap|both] [--scale N]
//! fsdm-check workload --sql queries.sql        # lint a file of statements
//! fsdm-check plan [--workload nobench|olap|both] [--scale N]
//! fsdm-check <subcommand> --json               # schema fsdm-check-v2
//! ```
//!
//! `--sql` lints the file's `;`-separated statements against the
//! selected workload's database (default NOBENCH), so table and column
//! names must match that schema.
//!
//! Exit status: 0 when no error-severity finding remains, 1 when one
//! does (the text report then goes to stderr), 2 on a usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use fsdm_bench::setup::{nobench_guided_db, olap_guided_db};
use fsdm_check::source::{check_sources, read_sources};
use fsdm_check::workload::{check_workloads, lint_sql_text};
use fsdm_check::{Report, CONCURRENCY, PLAN, WORKLOAD};

const USAGE: &str = "usage: fsdm-check all|concurrency|workload|plan [--root DIR] \
                     [--workload nobench|olap|both] [--scale N] [--sql FILE] [--json]";

struct Options {
    subcommand: String,
    series: &'static [&'static str],
    root: PathBuf,
    workload: String,
    scale: usize,
    sql: Option<String>,
    json: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let subcommand = args.next().ok_or(USAGE)?;
    let series: &[&str] = match subcommand.as_str() {
        "all" => &[CONCURRENCY, WORKLOAD, PLAN],
        "concurrency" => &[CONCURRENCY],
        "workload" => &[WORKLOAD],
        "plan" => &[PLAN],
        _ => return Err(USAGE.to_string()),
    };
    let mut opts = Options {
        subcommand,
        series,
        root: PathBuf::from("."),
        workload: "both".to_string(),
        scale: 1000,
        sql: None,
        json: false,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--json" => opts.json = true,
            "--root" => opts.root = PathBuf::from(value()?),
            "--sql" => opts.sql = Some(value()?),
            "--scale" => {
                opts.scale =
                    value()?.parse().map_err(|_| format!("--scale needs a number\n{USAGE}"))?;
            }
            "--workload" => match value()?.as_str() {
                w @ ("nobench" | "olap" | "both") => opts.workload = w.to_string(),
                _ => return Err(format!("--workload needs nobench|olap|both\n{USAGE}")),
            },
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.sql.is_some() && opts.subcommand != "workload" {
        return Err(format!("--sql applies to the workload subcommand only\n{USAGE}"));
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report { subcommand: opts.subcommand.clone(), ..Report::default() };
    if let Some(file) = &opts.sql {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let session = match opts.workload.as_str() {
            "olap" => olap_guided_db(opts.scale),
            _ => nobench_guided_db(opts.scale),
        };
        report.merge(lint_sql_text(&session, &source).map_err(|e| e.to_string())?);
        return Ok(report);
    }
    if opts.series.contains(&CONCURRENCY) {
        let sources = read_sources(&opts.root)
            .map_err(|e| format!("cannot read {}/crates: {e}", opts.root.display()))?;
        if sources.is_empty() {
            return Err(format!("no sources found under {}/crates", opts.root.display()));
        }
        report.merge(check_sources(&sources));
    }
    if opts.series.contains(&WORKLOAD) || opts.series.contains(&PLAN) {
        report.merge(
            check_workloads(&opts.workload, opts.scale, opts.series).map_err(|e| e.to_string())?,
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    let outcome =
        parse_args(std::env::args().skip(1)).and_then(|opts| Ok((run(&opts)?, opts.json)));
    let (report, json) = match outcome {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("fsdm-check: {msg}");
            return ExitCode::from(2);
        }
    };
    let failed = report.errors() > 0;
    if json {
        print!("{}", report.render_json());
    } else if failed {
        eprint!("{}", report.render_text());
    } else {
        print!("{}", report.render_text());
    }
    ExitCode::from(u8::from(failed))
}
