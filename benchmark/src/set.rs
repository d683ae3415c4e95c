//! The whole set: every workload in a process of its own, untraced then
//! traced, and `--repeat N` for the noise table the bounds come from.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::harness::WORKLOADS;
use crate::stats::{median, quartiles};

/// Arguments of a run of the whole set.
#[derive(Debug, Clone)]
pub struct SetConfig {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub repeat: usize,
}

/// The parsed result line of one child.
struct ChildResult {
    attempted: u64,
    failed: u64,
    /// name → (value, unit), in the order printed.
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let v = fsdm_json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let count = |key: &str| {
        v.get(key).and_then(|x| x.as_i64()).map(|x| x as u64).ok_or(format!("no {key} in result"))
    };
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("no metrics in result")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(|x| x.as_number()).map(|n| n.to_f64());
            let unit = m.get("unit").and_then(|u| u.as_str());
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.to_string(), value, unit.to_string())),
                _ => Err(format!("metric {name} has no value or unit")),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildResult { attempted: count("attempted")?, failed: count("failed")?, metrics })
}

/// Run one workload in a child process, echoing its report.
fn run_child(
    cfg: &SetConfig,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // output() waits for the child to end
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or(format!("{workload} printed nothing"))?;
    let result = parse_result(last)?;
    if !out.status.success() && result.failed == 0 {
        return Err(format!("{workload} exited with {} and no failed operation", out.status));
    }
    Ok(result)
}

/// Run the set `repeat` times, each with another seed as the driver does.
/// Returns the number of failed operations.
pub fn run_set(cfg: &SetConfig) -> Result<u64, String> {
    let (mut attempted, mut failed) = (0, 0);
    // (workload, metric) → (unit, one value per repetition)
    let mut cells: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    for rep in 0..cfg.repeat {
        let seed = cfg.seed + rep as u64;
        for (w, workload) in WORKLOADS.iter().enumerate() {
            // the traced run is diagnostic: once per set, not per repetition
            for trace in [false, true].into_iter().take(if rep == 0 { 2 } else { 1 }) {
                let result = run_child(cfg, workload, seed, trace)?;
                attempted += result.attempted;
                failed += result.failed;
                for (name, value, unit) in result.metrics {
                    cells.entry((w, name)).or_insert((unit, Vec::new())).1.push(value);
                }
            }
        }
    }

    println!();
    println!(
        "summary: {} repetition(s), seeds {}..={}",
        cfg.repeat,
        cfg.seed,
        cfg.seed + cfg.repeat as u64 - 1
    );
    println!(
        "{:<14} {:<30} {:>14} {:<6} {:>12} {:>12}",
        "workload", "metric", "median", "unit", "(max-min)/med", "IQR/med"
    );
    for ((w, name), (unit, values)) in &cells {
        let med = median(values);
        let (range, iqr) = if values.len() >= 2 && med != 0.0 {
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let (q1, q3) = quartiles(values);
            (format!("{:.4}", (hi - lo) / med), format!("{:.4}", (q3 - q1) / med))
        } else {
            ("-".to_string(), "-".to_string())
        };
        println!(
            "{:<14} {:<30} {:>14.6} {:<6} {:>12} {:>12}",
            WORKLOADS[*w], name, med, unit, range, iqr
        );
    }
    println!(
        r#"{{"workloads": {}, "repetitions": {}, "attempted": {attempted}, "failed": {failed}, "correct": {}, "claim": null}}"#,
        WORKLOADS.len(),
        cfg.repeat,
        failed == 0
    );
    Ok(failed)
}
