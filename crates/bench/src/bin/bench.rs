//! `bench`: micro-benchmark entry points that do not belong in the
//! paper-reproduction `repro` binary.
//!
//! ```text
//! bench concurrency [--scale small|N] [--threads a,b,c] [--reps N] [--smoke]
//!                   [--json FILE]
//! bench experiments [--scale small|N] [--threads a,b,c] [--reps N] [--json FILE]
//! bench imc [--scale small|N] [--reps N] [--smoke] [--json FILE]
//! bench trace-overhead [--scale N] [--smoke]
//! ```
//!
//! `concurrency` measures NOBENCH throughput vs thread count over one
//! shared corpus (see `fsdm_bench::concurrency`). `--smoke` is the CI
//! mode: it exits non-zero if the 4-thread full-set wall time is more
//! than 10% slower than 1-thread — parallelism must never cost a
//! workload meaningful time, even at small scales where it cannot win.
//! `--json FILE` additionally writes the run in the stable
//! `fsdm-bench-concurrency-v1` schema (`{git_rev, scale, threads,
//! per_query: {ms, qps}, speedup}`) so results accumulate into a perf
//! trajectory across revisions; `experiments` is the trajectory-first
//! alias (same run, JSON written by default to `BENCH_concurrency.json`).
//!
//! `imc` times the NOBENCH set twice over one corpus with the Q1–Q3
//! virtual columns materialized into the VC-IMC, then the OLAP set T1–T9
//! over OSON storage: once on the row pipeline, once on the vectorized
//! columnar pipeline (see `fsdm_bench::imc`). `--smoke` is the CI mode: it
//! exits non-zero if the columnar wall time of a gated subset (Q1–3,
//! Q4,7–10, T7–9) exceeds its row-path wall time — the spine must never
//! lose on the pipelines it runs.
//! `--json FILE` writes the stable `fsdm-bench-imc-v1` schema.
//!
//! `trace-overhead` verifies the tracing layer's disabled-mode contract:
//! the estimated cost of every span entry point executed by a NoBench
//! Q1–Q3 pass must stay within 2% of the measured wall time (see
//! `fsdm_bench::traceov`). `--smoke` exits non-zero on budget overrun.
//!
//! `chaos` runs seeded failpoint schedules over the combined NoBench +
//! OLAP workload at degree 1 and 4 (see `fsdm_bench::chaos`): every
//! armed query must come back baseline-identical or as a typed error,
//! and its post-fault clean rerun must be byte-identical. It exits
//! non-zero on any contract violation, and additionally gates the
//! *disarmed* governance overhead (see `fsdm_bench::governov`) at ≤ 2%
//! of the NoBench Q1–Q3 wall. `--smoke` is the reduced CI shape;
//! `--json FILE` writes the stable `fsdm-bench-chaos-v1` schema.

use fsdm_bench::{chaos, concurrency, governov, imc, traceov};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("concurrency") => run_concurrency(&args, None),
        Some("experiments") => {
            let json = flag_value(&args, "--json").unwrap_or("BENCH_concurrency.json");
            run_concurrency(&args, Some(json));
        }
        Some("imc") => run_imc(&args),
        Some("trace-overhead") => run_trace_overhead(&args),
        Some("chaos") => run_chaos(&args),
        other => {
            eprintln!(
                "unknown command {other:?}; supported: chaos, concurrency, experiments, imc, \
                 trace-overhead"
            );
            std::process::exit(2);
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
}

fn run_concurrency(args: &[String], default_json: Option<&str>) {
    let scale = match flag_value(args, "--scale") {
        Some("small") => 2_000,
        Some(s) => s.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--scale expects `small` or a document count, got {s}");
            std::process::exit(2);
        }),
        None => 20_000,
    };
    let threads: Vec<usize> = match flag_value(args, "--threads") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim().parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("--threads expects a comma-separated list, got {list}");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => vec![1, 2, 4],
    };
    let reps = flag_value(args, "--reps").and_then(|s| s.parse::<usize>().ok()).unwrap_or(3);
    let smoke = args.iter().any(|a| a == "--smoke");

    let rows = concurrency::run(scale, &threads, 1, reps);
    print!("{}", concurrency::render(scale, &rows));

    if let Some(path) = flag_value(args, "--json").or(default_json) {
        let json = concurrency::to_json(scale, &rows);
        match std::fs::write(path, &json) {
            Ok(()) => println!("trajectory written to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if smoke {
        let (Some(one), Some(four)) =
            (rows.iter().find(|r| r.threads == 1), rows.iter().find(|r| r.threads == 4))
        else {
            eprintln!("--smoke needs both 1 and 4 in --threads");
            std::process::exit(2);
        };
        let t1 = one.total().as_secs_f64();
        let t4 = four.total().as_secs_f64();
        // On a single-core box the 4-thread run cannot win — it pays pure
        // scheduler overhead — so the regression margin widens there; the
        // strict 10% gate only means something with real parallelism.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let tol = if cores >= 2 { 1.1 } else { 1.35 };
        if t4 > t1 * tol {
            eprintln!(
                "SMOKE FAIL: 4-thread NOBENCH wall {:.1}ms exceeds {tol}x the \
                 1-thread wall {:.1}ms ({cores} core(s))",
                t4 * 1e3,
                t1 * 1e3
            );
            std::process::exit(1);
        }
        println!(
            "smoke ok: 4-thread wall {:.1}ms <= {tol}x 1-thread wall {:.1}ms ({cores} core(s))",
            t4 * 1e3,
            t1 * 1e3
        );
    }
}

fn run_imc(args: &[String]) {
    let scale = match flag_value(args, "--scale") {
        Some("small") => 2_000,
        Some(s) => s.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--scale expects `small` or a document count, got {s}");
            std::process::exit(2);
        }),
        None => 20_000,
    };
    let reps = flag_value(args, "--reps").and_then(|s| s.parse::<usize>().ok()).unwrap_or(3);
    let smoke = args.iter().any(|a| a == "--smoke");

    let run = imc::run(scale, 1, reps);
    print!("{}", imc::render(&run));

    if let Some(path) = flag_value(args, "--json") {
        let json = imc::to_json(&run);
        match std::fs::write(path, &json) {
            Ok(()) => println!("trajectory written to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if smoke {
        for (name, labels) in imc::SUBSETS {
            let (row, col) = run.subtotal(labels);
            let (row, col) = (row.as_secs_f64() * 1e3, col.as_secs_f64() * 1e3);
            if col > row {
                eprintln!(
                    "SMOKE FAIL: columnar {name} wall {col:.1}ms exceeds the row-path wall {row:.1}ms"
                );
                std::process::exit(1);
            }
            println!("smoke ok: columnar {name} wall {col:.1}ms <= row-path wall {row:.1}ms");
        }
        // vectors may only help, also where the row evaluator is all
        // there is; 5% covers the jitter of one ~10 ms statement
        let bare = run.fallback_bare.as_secs_f64() * 1e3;
        let resident = run.fallback_resident.as_secs_f64() * 1e3;
        if resident > bare * 1.05 {
            eprintln!(
                "SMOKE FAIL: the row-evaluator fallback takes {resident:.1}ms with vectors \
                 resident, {bare:.1}ms without"
            );
            std::process::exit(1);
        }
        println!("smoke ok: fallback with vectors {resident:.1}ms <= without {bare:.1}ms");
    }
}

fn run_chaos(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut cfg = if smoke { chaos::ChaosConfig::smoke() } else { chaos::ChaosConfig::full() };
    if let Some(n) = flag_value(args, "--schedules").and_then(|s| s.parse::<usize>().ok()) {
        cfg.schedules = n;
    }
    if let Some(n) = flag_value(args, "--scale").and_then(|s| s.parse::<usize>().ok()) {
        cfg.scale = n;
        cfg.olap_scale = (n / 2).max(20);
    }
    if let Some(n) = flag_value(args, "--seed").and_then(|s| s.parse::<u64>().ok()) {
        cfg.seed = n;
    }

    let report = chaos::run(&cfg);
    print!("{}", report.render());
    if let Some(path) = flag_value(args, "--json") {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("chaos report written to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let violations = report.violations().len();
    if violations > 0 {
        eprintln!("CHAOS FAIL: {violations} contract violation(s); see the report above");
        std::process::exit(1);
    }

    // the other half of the contract: all of this must be ~free disarmed
    let o = governov::run(if smoke { 300 } else { 2_000 });
    print!("{}", o.render());
    if o.overhead_fraction() > 0.02 {
        eprintln!(
            "CHAOS FAIL: disarmed governance estimated at {:.3}% of Q1-Q3 wall (budget 2%)",
            o.overhead_fraction() * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "chaos ok: {} schedule(s), 0 violations, disarmed overhead within the 2% budget",
        report.outcomes.len()
    );
}

fn run_trace_overhead(args: &[String]) {
    let scale = flag_value(args, "--scale").and_then(|s| s.parse::<usize>().ok()).unwrap_or(2_000);
    let smoke = args.iter().any(|a| a == "--smoke");
    println!("== bench trace-overhead: NOBENCH Q1-Q3 (n = {scale}) ==");
    let o = traceov::run(scale);
    print!("{}", o.render());
    if o.overhead_fraction() > 0.02 {
        eprintln!(
            "TRACE-OVERHEAD FAIL: estimated {:.3}% of Q1-Q3 wall exceeds the 2% budget",
            o.overhead_fraction() * 100.0
        );
        if smoke {
            std::process::exit(1);
        }
    } else {
        println!("trace-overhead ok: within the 2% budget");
    }
}
