//! `repro`: regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                 # everything at default scale
//! repro table10 [--scale N] # sizes (Table 10)
//! repro table11             # OSON segment ratios (Table 11)
//! repro table12             # DataGuide statistics (Table 12)
//! repro fig3 [--scale N]    # OLAP queries across 4 storages (Figure 3)
//! repro fig4                # storage sizes (Figure 4)
//! repro fig5 [--scale N]    # NOBENCH TEXT vs OSON-IMC (Figure 5; exits 1 if their answers differ: rows by hash, Q5's by count)
//! repro fig6                # VC-IMC on Q6/Q7/Q10/Q11 (Figure 6; exits 1 if OSON-IMC and VC-IMC answers differ, by hash)
//! repro fig7 [--scale N]    # insertion constraint modes (Figure 7)
//! repro fig8                # homogeneous vs heterogeneous (Figure 8)
//! repro fig9 [--scale N]    # transient vs persistent DataGuide (Figure 9)
//! repro ablations           # design choices on vs off (§6.3, §4.2.1, §7)
//! ```
//!
//! Absolute numbers depend on the host; what must match the paper is the
//! *shape* — who wins, by roughly what factor (see EXPERIMENTS.md). Every
//! run starts with one line naming the host's `available_parallelism`,
//! the executor degree and the scale, so a captured record carries them.
//!
//! The command comes first; without one (or with a flag first) it is
//! `all`. Flags:
//!
//! * `--scale N` — document count for every experiment of the run, in
//!   place of each experiment's default.
//! * `--threads N` — pins the parallel executor's degree for every
//!   experiment (equivalent to running with `FSDM_THREADS=N`); without
//!   it the degree defaults to the machine's available parallelism.
//!   `repro fig5 --threads 1` against `--threads 2` is the thread-scaling
//!   record.
//! * `--no-metrics` — every run finishes by printing the engine-wide
//!   metrics snapshot (`oson.*`, `sqljson.*`, `dataguide.*`, `index.*`,
//!   `store.*` — see README's Observability section) and writing it as
//!   JSON to `repro-metrics.json` for offline diffing; this skips both.
//!
//! A malformed value, an unknown flag or an unknown command exits 2.
//!
//! The engine's own environment applies to the run:
//! `FSDM_FAILPOINTS=name=mode;...` arms cataloged failpoints — see
//! README's Query governance section.

use fsdm_bench::experiments::*;
use fsdm_bench::ms;
use fsdm_bench::setup::StorageMethod;
use fsdm_obs::catalog::metric;

/// Report a usage error and exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("repro: {msg}; see the module docs");
    std::process::exit(2);
}

/// The count following `flag`; a missing or malformed value is a usage
/// error that quotes the offending text.
fn flag_value(flag: &str, value: Option<&String>) -> usize {
    let Some(text) = value else { usage(&format!("{flag} expects a value")) };
    text.parse().unwrap_or_else(|_| usage(&format!("{flag} expects a number, got `{text}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut scale, mut threads, mut metrics) = (None, None, true);
    let mut cmd = "all";
    let mut rest = args.iter().enumerate();
    while let Some((i, arg)) = rest.next() {
        match arg.as_str() {
            "--scale" => scale = Some(flag_value(arg, rest.next().map(|(_, v)| v))),
            "--threads" => threads = Some(flag_value(arg, rest.next().map(|(_, v)| v))),
            "--no-metrics" => metrics = false,
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            first if i == 0 => cmd = first,
            extra => usage(&format!("unexpected argument `{extra}`")),
        }
    }
    // --threads N pins the executor degree for every experiment in this
    // run. It must happen before any query executes: the process-wide
    // default is resolved once, from FSDM_THREADS, on first use.
    if let Some(n) = threads {
        std::env::set_var("FSDM_THREADS", n.to_string());
    }
    match fsdm_fault::init_from_env() {
        Ok(0) => {}
        Ok(n) => {
            // injected panics are expected and caught by the executor;
            // keep their default backtrace spew out of the report
            fsdm_fault::silence_failpoint_panics();
            println!("{n} failpoint(s) armed from FSDM_FAILPOINTS");
        }
        Err(e) => {
            eprintln!("FSDM_FAILPOINTS: {e}");
            std::process::exit(2);
        }
    }
    let reps = 3;
    // resolved before anything is printed, so an unknown command leaves
    // no half-written record
    let run: &dyn Fn() = match cmd {
        "table10" => &|| table10(scale.unwrap_or(300)),
        "table11" => &|| table11(scale.unwrap_or(300)),
        "table12" => &|| table12(scale.unwrap_or(300)),
        "fig3" => &|| fig3_fig4(scale.unwrap_or(20_000), reps, true, false),
        "fig4" => &|| fig3_fig4(scale.unwrap_or(20_000), 1, false, true),
        "fig5" => &|| fig5_fig6(scale.unwrap_or(20_000), reps, true, false),
        "fig6" => &|| fig5_fig6(scale.unwrap_or(20_000), reps, false, true),
        "fig7" => &|| fig7(scale.unwrap_or(10_000)),
        "fig8" => &|| fig8(scale.unwrap_or(10_000)),
        "fig9" => &|| fig9(scale.unwrap_or(50_000)),
        "ablations" => &|| ablations(scale.unwrap_or(2_000), reps),
        "all" => &|| {
            table10(scale.unwrap_or(300));
            table11(scale.unwrap_or(300));
            table12(scale.unwrap_or(300));
            fig3_fig4(scale.unwrap_or(20_000), reps, true, true);
            fig5_fig6(scale.unwrap_or(20_000), reps, true, true);
            fig7(scale.unwrap_or(10_000));
            fig8(scale.unwrap_or(10_000));
            fig9(scale.unwrap_or(50_000));
            ablations(scale.unwrap_or(2_000), reps);
        },
        other => usage(&format!("unknown command `{other}`")),
    };
    println!(
        "host available_parallelism = {}, executor degree = {}, scale = {}",
        std::thread::available_parallelism().map_or(1, usize::from),
        fsdm_store::parallel::default_degree(),
        scale.map_or("default".to_string(), |n| n.to_string()),
    );
    run();
    if metrics {
        dump_metrics();
    }
}

/// Print the engine-wide metrics accumulated while regenerating the
/// tables/figures and persist them as JSON next to the results.
fn dump_metrics() {
    let snap = fsdm_obs::snapshot();
    println!("\n== Engine metrics (cumulative over this run) ==");
    print!("{}", snap.to_table());
    let path = "repro-metrics.json";
    match std::fs::write(path, snap.to_json()) {
        Ok(()) => println!("metrics snapshot written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn table10(scale: usize) {
    println!("\n== Table 10: average encoded size per document (bytes) ==");
    println!("{:<20} {:>6} {:>12} {:>12} {:>12}", "collection", "docs", "JSON", "BSON", "OSON");
    let (rows, _) = run_size_stats(scale);
    for r in rows {
        println!("{:<20} {:>6} {:>12} {:>12} {:>12}", r.collection, r.docs, r.json, r.bson, r.oson);
    }
}

fn table11(scale: usize) {
    println!("\n== Table 11: OSON three-segment size shares (%) ==");
    println!("{:<20} {:>10} {:>10} {:>10}", "collection", "dict", "tree", "values");
    let (_, rows) = run_size_stats(scale);
    for r in rows {
        println!(
            "{:<20} {:>9.2}% {:>9.2}% {:>9.2}%",
            r.collection, r.dict_pct, r.tree_pct, r.value_pct
        );
    }
}

fn table12(scale: usize) {
    println!("\n== Table 12: JSON DataGuide statistics ==");
    println!(
        "{:<20} {:>15} {:>14} {:>14}",
        "collection", "distinct paths", "DMDV columns", "DMDV fan-out"
    );
    for r in run_guide_stats(scale) {
        println!(
            "{:<20} {:>15} {:>14} {:>14.1}",
            r.collection, r.distinct_paths, r.dmdv_columns, r.fan_out
        );
    }
}

fn fig3_fig4(n: usize, reps: usize, show_queries: bool, show_sizes: bool) {
    let (cells, sizes) = run_olap(n, reps);
    if show_queries {
        println!("\n== Figure 3: OLAP query time (ms), {n} purchaseOrder docs ==");
        print!("{:<6}", "query");
        for m in StorageMethod::ALL {
            print!(" {:>10}", m.label());
        }
        println!(" {:>8}", "rows");
        for q in 1..=9 {
            print!("Q{q:<5}");
            let mut rows = 0;
            for m in StorageMethod::ALL {
                let c = cells.iter().find(|c| c.query == q && c.method == m).unwrap();
                print!(" {:>10}", ms(c.time));
                rows = c.rows;
            }
            println!(" {rows:>8}");
        }
    }
    if show_sizes {
        println!("\n== Figure 4: storage size (bytes), {n} purchaseOrder docs ==");
        for (m, bytes) in sizes {
            println!("{:<6} {:>12}", m.label(), bytes);
        }
    }
}

fn fig5_fig6(n: usize, reps: usize, show5: bool, show6: bool) {
    let cells = run_nobench(n, reps);
    let cell = |q, mode| cell(&cells, q, mode);
    if show5 {
        println!("\n== Figure 5: NOBENCH query time (ms), {n} docs: TEXT vs OSON-IMC ==");
        println!("{:<6} {:>10} {:>10} {:>8} {:>8}", "query", "TEXT", "OSON-IMC", "speedup", "rows");
        for q in 1..=11 {
            let (t, o) = (cell(q, "TEXT"), cell(q, "OSON-IMC"));
            println!(
                "Q{:<5} {:>10} {:>10} {:>7.1}x {:>8}",
                q,
                ms(t.time),
                ms(o.time),
                t.time.as_secs_f64() / o.time.as_secs_f64(),
                t.rows
            );
        }
        // Q5 projects the document: compared by row count only
        same_answers(&cells, 1..=11, &[5], "TEXT", "OSON-IMC");
    }
    if show6 {
        println!("\n== Figure 6: Q6/Q7/Q10/Q11 (ms): OSON-IMC vs VC-IMC ==");
        println!(
            "{:<6} {:>10} {:>10} {:>8} {:>8}",
            "query", "OSON-IMC", "VC-IMC", "speedup", "rows"
        );
        for q in [6, 7, 10, 11] {
            let (o, v) = (cell(q, "OSON-IMC"), cell(q, "VC-IMC"));
            println!(
                "Q{:<5} {:>10} {:>10} {:>7.1}x {:>8}",
                q,
                ms(o.time),
                ms(v.time),
                o.time.as_secs_f64() / v.time.as_secs_f64(),
                o.rows
            );
        }
        same_answers(&cells, [6, 7, 10, 11], &[], "OSON-IMC", "VC-IMC");
    }
}

/// The cell `run_nobench` timed query `q` in `mode` in.
fn cell<'c>(cells: &'c [NobenchCell], q: usize, mode: &str) -> &'c NobenchCell {
    cells.iter().find(|c| c.query == q && c.mode == mode).unwrap()
}

/// Exit 1 unless modes `a` and `b` answered each of `queries` alike: the
/// same rows by hash, or as many rows for the statements in `count_only`,
/// which project a document (each storage renders one in its own member
/// order). A timing over different answers is no comparison.
fn same_answers(
    cells: &[NobenchCell],
    queries: impl IntoIterator<Item = usize>,
    count_only: &[usize],
    a: &str,
    b: &str,
) {
    let answer = |q, mode| {
        let c = cell(cells, q, mode);
        (c.rows, if count_only.contains(&q) { 0 } else { c.hash })
    };
    let differ: Vec<String> = queries
        .into_iter()
        .filter(|&q| answer(q, a) != answer(q, b))
        .map(|q| {
            let ((ra, ha), (rb, hb)) = (answer(q, a), answer(q, b));
            format!("Q{q} ({ra} {a} rows hashing {ha:016x}, {rb} {b} rows hashing {hb:016x})")
        })
        .collect();
    if !differ.is_empty() {
        eprintln!("repro: {a} and {b} disagree on {}", differ.join(", "));
        std::process::exit(1);
    }
}

fn fig7(n: usize) {
    println!("\n== Figure 7: insertion time (ms), {n} homogeneous docs ==");
    let cells = run_insertion_modes(n);
    let base = cells[0].time.as_secs_f64();
    for c in &cells {
        println!(
            "{:<28} {:>10}  (+{:.1}% vs no-constraint)",
            c.mode,
            ms(c.time),
            (c.time.as_secs_f64() / base - 1.0) * 100.0
        );
    }
}

fn fig8(n: usize) {
    println!("\n== Figure 8: insertion time (ms) with DataGuide, {n} docs ==");
    let cells = run_homo_hetero(n);
    let homo = cells[0].time.as_secs_f64();
    for c in &cells {
        println!("{:<28} {:>10}  ({:.2}x homo)", c.mode, ms(c.time), c.time.as_secs_f64() / homo);
    }
}

fn fig9(n: usize) {
    println!("\n== Figure 9: transient DataGuide aggregation vs persistent index, {n} docs ==");
    let cells = run_transient_vs_persistent(n);
    for c in &cells {
        println!("{:<28} {:>10}", c.label, ms(c.time));
    }
    // the last two cells: the 99 % aggregate and the index build; the
    // gauge is set by that bulk build (later puts do not refresh it)
    if let [.., transient, persistent] = cells.as_slice() {
        println!(
            "persistent / transient 99% = {:.2}x; index.bytes as built = {}",
            persistent.time.as_secs_f64() / transient.time.as_secs_f64(),
            metric::INDEX_BYTES.get(),
        );
    }
}

fn ablations(n: usize, reps: usize) {
    println!("\n== Ablations: design choices on vs off, {n} purchaseOrder docs ==");
    println!("{:<44} {:>6} {:>12} {:>12} {:>8}", "mechanism", "unit", "on", "off", "off/on");
    for r in run_ablations(n, reps) {
        let digits = if r.unit == "bytes" { 0 } else { 3 };
        println!(
            "{:<44} {:>6} {:>12.digits$} {:>12.digits$} {:>7.2}x",
            r.label,
            r.unit,
            r.on,
            r.off,
            r.off / r.on
        );
    }
}
