//! `repro`: regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                 # everything at default scale
//! repro table10 [--scale N] # sizes (Table 10)
//! repro table11             # OSON segment ratios (Table 11)
//! repro table12             # DataGuide statistics (Table 12)
//! repro fig3 [--scale N]    # OLAP queries across 4 storages (Figure 3)
//! repro fig4                # storage sizes (Figure 4)
//! repro fig5 [--scale N]    # NOBENCH TEXT vs OSON-IMC (Figure 5)
//! repro fig6                # VC-IMC on Q6/Q7/Q10/Q11 (Figure 6)
//! repro fig7 [--scale N]    # insertion constraint modes (Figure 7)
//! repro fig8                # homogeneous vs heterogeneous (Figure 8)
//! repro fig9 [--scale N]    # transient vs persistent DataGuide (Figure 9)
//! ```
//!
//! Absolute numbers depend on the host; what must match the paper is the
//! *shape* — who wins, by roughly what factor (see EXPERIMENTS.md).
//!
//! `--threads N` pins the parallel executor's degree for every
//! experiment (equivalent to running with `FSDM_THREADS=N`); without it
//! the degree defaults to the machine's available parallelism.
//!
//! Every run finishes by printing the engine-wide metrics snapshot
//! (`oson.*`, `sqljson.*`, `dataguide.*`, `index.*`, `store.*` — see
//! README's Observability section) and writing it as JSON to
//! `repro-metrics.json` for offline diffing. Pass `--no-metrics` to skip
//! both.
//!
//! `--timeout-ms N` arms a statement deadline for every query of the
//! run (a statement that runs past it dies with a typed deadline
//! error); `FSDM_FAILPOINTS=name=mode;...` arms cataloged failpoints
//! for the whole run — see README's Query governance section.
//!
//! `--trace FILE` (optionally with `--slow-log FILE`) switches to the
//! tracing demo instead of the experiments: it runs the full NOBENCH set
//! (Q1–Q11, default `--scale 500`) under an armed trace session per
//! query, validates every span tree, and writes one merged Chrome
//! trace-event JSON to FILE — load it in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`. `--slow-log FILE` additionally arms the
//! slow-query ring log for the same run and dumps it as JSON. Both
//! files are re-parsed before the run is declared good; any malformed
//! trace exits non-zero.

use fsdm_bench::experiments::*;
use fsdm_bench::ms;
use fsdm_bench::setup::StorageMethod;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // --threads N pins the executor degree for every experiment in this
    // run. It must happen before any query executes: the process-wide
    // default is resolved once, from FSDM_THREADS, on first use.
    if let Some(n) = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
    {
        std::env::set_var("FSDM_THREADS", n.to_string());
    }
    // --timeout-ms N arms a statement deadline for every query of this
    // run; same resolve-once discipline as --threads
    if let Some(n) = args
        .iter()
        .position(|a| a == "--timeout-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
    {
        std::env::set_var("FSDM_TIMEOUT_MS", n.to_string());
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
    let cmd = match args.first().map(|s| s.as_str()) {
        // a leading flag means "everything, with options"
        Some(s) if s.starts_with("--") => "all",
        Some(s) => s,
        None => "all",
    };
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok());
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
    };
    let (trace_path, slow_path) = (flag("--trace"), flag("--slow-log"));
    if trace_path.is_some() || slow_path.is_some() {
        // the tracing demo replaces the experiment run: tracing the full
        // default-scale evaluation would produce gigabytes of spans
        run_trace_demo(scale.unwrap_or(500), trace_path, slow_path);
        return;
    }
    let reps = 3;
    match cmd {
        "table10" => table10(scale.unwrap_or(300)),
        "table11" => table11(scale.unwrap_or(300)),
        "table12" => table12(scale.unwrap_or(300)),
        "fig3" => fig3_fig4(scale.unwrap_or(20_000), reps, true, false),
        "fig4" => fig3_fig4(scale.unwrap_or(20_000), 1, false, true),
        "fig5" => fig5_fig6(scale.unwrap_or(20_000), reps, true, false),
        "fig6" => fig5_fig6(scale.unwrap_or(20_000), reps, false, true),
        "fig7" => fig7(scale.unwrap_or(10_000)),
        "fig8" => fig8(scale.unwrap_or(10_000)),
        "fig9" => fig9(scale.unwrap_or(50_000)),
        "all" => {
            let s = scale;
            table10(s.unwrap_or(300));
            table11(s.unwrap_or(300));
            table12(s.unwrap_or(300));
            fig3_fig4(s.unwrap_or(20_000), reps, true, true);
            fig5_fig6(s.unwrap_or(20_000), reps, true, true);
            fig7(s.unwrap_or(10_000));
            fig8(s.unwrap_or(10_000));
            fig9(s.unwrap_or(50_000));
        }
        other => {
            eprintln!("unknown command {other}; see the module docs");
            std::process::exit(2);
        }
    }
    if !args.iter().any(|a| a == "--no-metrics") {
        dump_metrics();
    }
}

/// `repro --trace FILE [--slow-log FILE]`: trace the NOBENCH set query
/// by query, validate every span tree, and persist the merged Chrome
/// trace (plus the slow-query ring dump when asked).
fn run_trace_demo(scale: usize, trace_path: Option<&str>, slow_path: Option<&str>) {
    use fsdm_bench::setup::{nobench_db, nobench_q11_plan, nobench_q5_bind};
    use fsdm_obs::catalog::{SPAN_EXEC_MORSEL, SPAN_EXEC_OP};
    use fsdm_obs::trace::Trace;

    let fail = |msg: &str| -> ! {
        eprintln!("TRACE DEMO FAIL: {msg}");
        std::process::exit(1);
    };

    println!("== repro --trace: NOBENCH Q1-Q11 under the span recorder (n = {scale}) ==");
    let mut session = nobench_db(scale);
    if slow_path.is_some() {
        // threshold 0: every traced query qualifies, so the ring shows
        // the demo's slowest survivors
        session.db.set_slow_log(0, 16);
    }

    // trace each query in its own session, then splice the sessions
    // one after another onto a single timeline (span ids are globally
    // unique, so the merged tree stays well-formed)
    let mut merged = Trace { spans: Vec::new(), dropped: 0 };
    let mut cursor_ns = 0u64;
    println!("{:<6} {:>8} {:>8} {:>10} {:>9}", "query", "rows", "spans", "morsels", "ops");
    for q in 1..=11 {
        let (rows, profile, trace) = if q == 11 {
            let plan = nobench_q11_plan(scale, false);
            let (result, profile, trace) = session
                .db
                .execute_traced(&plan)
                .unwrap_or_else(|e| fail(&format!("Q11 failed: {e}")));
            (result.rows.len(), Some(profile), trace)
        } else {
            let sql = fsdm_workloads::nobench::query_sql(q, scale);
            let binds = if q == 5 { vec![nobench_q5_bind(scale)] } else { vec![] };
            let (result, profile, trace) = session
                .trace_with(&sql, &binds)
                .unwrap_or_else(|e| fail(&format!("Q{q} failed: {e}")));
            (result.rows.len(), profile, trace)
        };
        if let Err(e) = trace.validate() {
            fail(&format!("Q{q} produced a malformed trace: {e}"));
        }
        let profile = profile.unwrap_or_else(|| fail(&format!("Q{q} returned no profile")));
        let ops = profile.ops().len();
        if trace.count(SPAN_EXEC_OP) < ops {
            fail(&format!(
                "Q{q}: {} exec.op spans for {ops} profiled operators",
                trace.count(SPAN_EXEC_OP)
            ));
        }
        if trace.count(SPAN_EXEC_MORSEL) != profile.total_morsels() {
            fail(&format!(
                "Q{q}: {} morsel spans vs {} profiled morsels",
                trace.count(SPAN_EXEC_MORSEL),
                profile.total_morsels()
            ));
        }
        println!(
            "Q{:<5} {:>8} {:>8} {:>10} {:>9}",
            q,
            rows,
            trace.spans.len(),
            profile.total_morsels(),
            ops
        );
        let span_end = trace.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        merged.dropped += trace.dropped;
        merged.spans.extend(trace.spans.into_iter().map(|mut s| {
            s.start_ns += cursor_ns;
            s.end_ns += cursor_ns;
            s
        }));
        cursor_ns += span_end + 1_000; // 1 µs gap between queries on the timeline
    }

    if let Err(e) = merged.validate() {
        fail(&format!("merged trace is malformed: {e}"));
    }
    if let Some(path) = trace_path {
        let json = merged.to_chrome_json();
        if let Err(e) = std::fs::write(path, &json) {
            fail(&format!("could not write {path}: {e}"));
        }
        if let Err(e) = fsdm_json::parse(&json) {
            fail(&format!("{path} is not valid JSON: {e}"));
        }
        println!(
            "trace ok: {} spans ({} dropped) written to {path} — open in Perfetto",
            merged.spans.len(),
            merged.dropped
        );
    }
    if let Some(path) = slow_path {
        let json = session.db.slow_log_json();
        if let Err(e) = std::fs::write(path, &json) {
            fail(&format!("could not write {path}: {e}"));
        }
        if let Err(e) = fsdm_json::parse(&json) {
            fail(&format!("{path} is not valid JSON: {e}"));
        }
        let captured = session.db.slow_log().entries().len();
        println!("slow-log ok: {captured} ring entries written to {path}");
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
    if show5 {
        println!("\n== Figure 5: NOBENCH query time (ms), {n} docs: TEXT vs OSON-IMC ==");
        println!("{:<6} {:>10} {:>10} {:>8} {:>8}", "query", "TEXT", "OSON-IMC", "speedup", "rows");
        for q in 1..=11 {
            let t = cells.iter().find(|c| c.query == q && c.mode == "TEXT").unwrap();
            let o = cells.iter().find(|c| c.query == q && c.mode == "OSON-IMC").unwrap();
            println!(
                "Q{:<5} {:>10} {:>10} {:>7.1}x {:>8}",
                q,
                ms(t.time),
                ms(o.time),
                t.time.as_secs_f64() / o.time.as_secs_f64(),
                t.rows
            );
        }
    }
    if show6 {
        println!("\n== Figure 6: Q6/Q7/Q10/Q11 (ms): OSON-IMC vs VC-IMC ==");
        println!("{:<6} {:>10} {:>10} {:>8}", "query", "OSON-IMC", "VC-IMC", "speedup");
        for q in [6, 7, 10, 11] {
            let o = cells.iter().find(|c| c.query == q && c.mode == "OSON-IMC").unwrap();
            let v = cells.iter().find(|c| c.query == q && c.mode == "VC-IMC").unwrap();
            println!(
                "Q{:<5} {:>10} {:>10} {:>7.1}x",
                q,
                ms(o.time),
                ms(v.time),
                o.time.as_secs_f64() / v.time.as_secs_f64()
            );
        }
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
            "persistent / transient 99% = {:.2}x; index.bytes as built = {}; host available_parallelism {}",
            persistent.time.as_secs_f64() / transient.time.as_secs_f64(),
            fsdm_obs::gauge!(fsdm_obs::catalog::INDEX_BYTES).get(),
            std::thread::available_parallelism().map_or(1, usize::from),
        );
    }
}
