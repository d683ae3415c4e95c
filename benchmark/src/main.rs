//! The repo's benchmark: five FSDM workloads, each in a process of its own,
//! closed loop, one client, executor degree 1. See `README.md` beside the
//! manifest for the metric and workload glossary.
//!
//! ```text
//! fsdm-benchmark                          the whole set, untraced and traced
//! fsdm-benchmark --repeat 5               the set five times: the noise table
//! fsdm-benchmark --smoke                  a tenth of the sizes, 1 s each
//! fsdm-benchmark --workload nobench.path --seed 42 --seconds 10 --trace 0
//! ```

mod gen;
mod harness;
mod ingest;
mod inputs;
mod layers;
mod query;
mod report;
mod run;
mod set;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::{Scale, WORKLOADS};
use run::RunConfig;
use set::SetConfig;

const USAGE: &str = "usage: fsdm-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--repeat N] [--inject-mismatch]";

/// Default measuring time per run; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    inject_mismatch: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}")).cloned();
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = Some(value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is not in (0, 3600]"));
                }
                out.seconds = Some(s);
            }
            "--repeat" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat 0 runs nothing".to_string());
                }
                out.repeat = Some(n);
            }
            // the driver passes `--trace 0|1`; by hand a bare `--trace` reads better
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            "--inject-mismatch" => out.inject_mismatch = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if out.workload.is_none() && (out.trace || out.inject_mismatch) {
        return Err("--trace and --inject-mismatch need --workload".to_string());
    }
    if out.workload.is_some() && out.repeat.is_some() {
        return Err("--repeat runs the whole set: leave out --workload".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(42);
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let failed = match args.workload {
        Some(workload) => run::run(&RunConfig {
            workload,
            seed,
            seconds,
            trace: args.trace,
            scale: if args.smoke { Scale::SMOKE } else { Scale::FULL },
            inject_mismatch: args.inject_mismatch,
        }),
        None => set::run_set(&SetConfig {
            seed,
            seconds,
            smoke: args.smoke,
            repeat: args.repeat.unwrap_or(1),
        }),
    };
    match failed {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload nobench.vc --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("nobench.vc"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        assert!(!args("--workload olap.oson --trace 0 --seed 1").expect("parses").trace);
        assert!(args("--workload olap.oson --trace --seed 1").expect("parses").trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seconds 0",
            "--seconds x",
            "--repeat 0",
            "--seed",
            "--trace 1",
            "--workload olap.oson --repeat 2",
            "--frobnicate",
        ] {
            assert!(args(line).is_err(), "{line}");
        }
    }
}
