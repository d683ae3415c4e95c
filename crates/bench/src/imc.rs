//! `bench imc`: row vs columnar execution over the VC-IMC.
//!
//! The vectorized executor's bargain is that batch kernels over column
//! vectors beat row-at-a-time evaluation *on the same data*. This runner
//! holds everything else fixed — one NOBENCH corpus, the Q1–Q3 virtual
//! columns materialized into the IMC, the same optimized plans — and
//! times each query twice through [`Database::set_columnar`]: once on
//! the scratch-based row path, once on the batch pipeline. Results are
//! byte-identical either way (`tests/vectorized_identity.rs` asserts
//! it); only wall-clock time may change, and columnar must never lose:
//! neither on Q1–Q3, which read resident vectors only, nor on Q4 and
//! Q7–Q10, whose paths have no vector and run on transient columns.
//!
//! The same switch is then thrown over the OLAP set (T1–T9 through
//! `po_mv` and `po_item_dmdv`, OSON storage): with the spine on,
//! `JSON_TABLE` expands column-major inside the fused pipeline, the view's
//! consumers composed on top; off, the row evaluator runs the same
//! expansion routine through its row API. The spine must not lose on the
//! full expansions T7, T8 and T9.
//!
//! A statement no kernel expresses ([`FALLBACK_SQL`]) stays on the row
//! evaluator whatever the switch says. For it the run holds the pipeline
//! fixed and varies the data instead: the OSON-IMC alone, then with the
//! vectors resident too. Vectors must not lose there either — the row
//! evaluator reads the vector its expression spells out and gathers no
//! other.
//!
//! [`Database::set_columnar`]: fsdm_store::Database::set_columnar

use std::time::Duration;

use fsdm_sql::Session;
use fsdm_store::Query;

use crate::concurrency::nobench_plans;
use crate::setup::{
    add_nobench_columnar_vcs, bind_datum, nobench_db, olap_db, olap_queries, StorageMethod,
};

/// Row-path and columnar-path best wall times for one query.
pub struct ImcTiming {
    /// Query label (`Q1` … `Q11`).
    pub label: String,
    /// Best observed wall time on the row pipeline.
    pub row: Duration,
    /// Best observed wall time on the columnar pipeline.
    pub columnar: Duration,
}

/// One full run: per-query timings over a shared corpus.
pub struct ImcRun {
    /// Corpus size the run measured.
    pub scale: usize,
    /// Per-query timings, in workload order Q1–Q11.
    pub per_query: Vec<ImcTiming>,
    /// The OLAP set T1–T9 over OSON storage, same corpus size.
    pub olap: Vec<ImcTiming>,
    /// Best wall time of [`FALLBACK_SQL`] over the OSON-IMC alone.
    pub fallback_bare: Duration,
    /// The same with the Q1–Q3 vectors resident as well.
    pub fallback_resident: Duration,
}

/// A statement whose filter no kernel expresses (`SUBSTR`), over a path
/// the Q1–Q3 virtual columns materialize: it runs on the row evaluator.
pub const FALLBACK_SQL: &str =
    "select did from nobench where substr(json_value(jdoc, '$.str1'), 1, 1) = 'a'";

/// The queries every column of which is a resident vector.
pub const SCAN_HEAVY: [&str; 3] = ["Q1", "Q2", "Q3"];
/// The scan-rooted queries that read a path with no vector.
pub const PATH_HEAVY: [&str; 5] = ["Q4", "Q7", "Q8", "Q9", "Q10"];
/// The OLAP statements that expand every (or nearly every) document.
pub const EXPANSION_HEAVY: [&str; 3] = ["T7", "T8", "T9"];

impl ImcRun {
    /// Summed best row-path time of the kernel-covered subset Q1–Q3.
    pub fn scan_heavy_row(&self) -> Duration {
        self.subtotal(&SCAN_HEAVY).0
    }

    /// Summed best columnar time of the kernel-covered subset Q1–Q3.
    pub fn scan_heavy_columnar(&self) -> Duration {
        self.subtotal(&SCAN_HEAVY).1
    }

    /// Summed best (row, columnar) times of the queries labelled `labels`.
    pub fn subtotal(&self, labels: &[&str]) -> (Duration, Duration) {
        let of = |f: fn(&ImcTiming) -> Duration| {
            let all = self.per_query.iter().chain(&self.olap);
            all.filter(|t| labels.contains(&t.label.as_str())).map(f).sum()
        };
        (of(|t| t.row), of(|t| t.columnar))
    }
}

/// Best wall time of every plan with the spine off, then on.
fn time_both(
    session: &mut Session,
    plans: &[(String, Query)],
    warmup: usize,
    reps: usize,
) -> Vec<ImcTiming> {
    let mut timings = Vec::with_capacity(plans.len());
    for (label, plan) in plans {
        let mut best = |columnar: bool| {
            session.db.set_columnar(columnar);
            let run = || {
                session.db.execute(plan).expect("the statement executes on either pipeline");
            };
            crate::time_best(run, warmup, reps)
        };
        let (row, columnar) = (best(false), best(true));
        timings.push(ImcTiming { label: label.clone(), row, columnar });
    }
    session.db.set_columnar(true);
    timings
}

/// Time the NOBENCH set on both pipelines over one corpus of `scale`
/// documents with the Q1–Q3 virtual columns in the IMC, then the OLAP set
/// over `scale` purchaseOrders in OSON storage. `warmup`/`reps` feed
/// [`crate::time_best`] per (query, pipeline) pair.
pub fn run(scale: usize, warmup: usize, reps: usize) -> ImcRun {
    let mut session = nobench_db(scale);
    add_nobench_columnar_vcs(&mut session);
    let plans = nobench_plans(&session, scale);
    let per_query = time_both(&mut session, &plans, warmup, reps);

    let mut session = olap_db(StorageMethod::Oson, scale);
    let plan = |(i, q): (usize, &fsdm_workloads::olap::OlapQuery)| {
        let binds: Vec<_> = q.binds.iter().map(|b| bind_datum(b)).collect();
        (format!("T{}", i + 1), session.plan(&q.sql, &binds).expect("OLAP statement plans"))
    };
    let plans: Vec<(String, Query)> = olap_queries(scale).iter().enumerate().map(plan).collect();
    let olap = time_both(&mut session, &plans, warmup, reps);

    let mut session = nobench_db(scale);
    session.db.table_mut("nobench").expect("corpus table").populate_oson_imc().expect("OSON-IMC");
    let plan = session.plan(FALLBACK_SQL, &[]).expect("the fallback statement plans");
    let time = |session: &fsdm_sql::Session| {
        let run = || {
            session.db.execute(&plan).expect("the fallback statement executes");
        };
        crate::time_best(run, warmup, reps)
    };
    let fallback_bare = time(&session);
    add_nobench_columnar_vcs(&mut session);
    let fallback_resident = time(&session);
    ImcRun { scale, per_query, olap, fallback_bare, fallback_resident }
}

/// The subsets the smoke gate holds columnar to the row path on: display
/// name, JSON key, labels.
pub const SUBSETS: [(&str, &[&str]); 3] =
    [("Q1-3", &SCAN_HEAVY), ("Q4,7-10", &PATH_HEAVY), ("T7-9", &EXPANSION_HEAVY)];

/// Table rendering: one row per query with both pipelines' ms and the
/// columnar speedup, plus the Q1–Q3 subtotal line the smoke gate checks.
pub fn render(run: &ImcRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== bench imc: NOBENCH row vs columnar (n = {}) ==", run.scale);
    let _ = writeln!(out, "{:<8} {:>10} {:>12} {:>9}", "query", "row ms", "columnar ms", "speedup");
    for t in run.per_query.iter().chain(&run.olap) {
        let speedup = t.row.as_secs_f64() / t.columnar.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>12} {:>8.2}x",
            t.label,
            crate::ms(t.row),
            crate::ms(t.columnar),
            speedup
        );
    }
    for (name, labels) in SUBSETS {
        let (r, c) = run.subtotal(labels);
        let _ = writeln!(
            out,
            "{name} subtotal: row {} ms, columnar {} ms ({:.2}x)",
            crate::ms(r),
            crate::ms(c),
            r.as_secs_f64() / c.as_secs_f64().max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "row-evaluator fallback: OSON-IMC {} ms, with vectors {} ms ({:.2}x)",
        crate::ms(run.fallback_bare),
        crate::ms(run.fallback_resident),
        run.fallback_bare.as_secs_f64() / run.fallback_resident.as_secs_f64().max(1e-9)
    );
    out
}

/// Machine-readable rendering of an IMC run, schema `fsdm-bench-imc-v1`:
///
/// ```json
/// {"schema":"fsdm-bench-imc-v1","git_rev":"abc1234","scale":4000,
///  "per_query":{"Q1":{"row_ms":1.23,"columnar_ms":0.41,"speedup":3.0},…,"T9":{…}},
///  "scan_heavy":{"row_ms":…,"columnar_ms":…,"speedup":…},
///  "path_heavy":{"row_ms":…,"columnar_ms":…,"speedup":…},
///  "expansion_heavy":{"row_ms":…,"columnar_ms":…,"speedup":…},
///  "fallback":{"bare_ms":…,"resident_ms":…,"speedup":…}}
/// ```
///
/// The schema is stable: additions may append fields, never rename or
/// re-type existing ones, so `BENCH_imc.json` files accumulate into a
/// comparable perf trajectory across revisions.
pub fn to_json(run: &ImcRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"schema\":\"fsdm-bench-imc-v1\"");
    let _ = write!(
        out,
        ",\"git_rev\":\"{}\",\"scale\":{},\"per_query\":{{",
        crate::concurrency::git_rev(),
        run.scale
    );
    for (i, t) in run.per_query.iter().chain(&run.olap).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (row, col) = (t.row.as_secs_f64() * 1e3, t.columnar.as_secs_f64() * 1e3);
        let _ = write!(
            out,
            "\"{}\":{{\"row_ms\":{row:.3},\"columnar_ms\":{col:.3},\"speedup\":{:.3}}}",
            t.label,
            row / col.max(1e-9)
        );
    }
    out.push('}');
    let keys = ["scan_heavy", "path_heavy", "expansion_heavy"];
    for (key, (_, labels)) in keys.iter().zip(SUBSETS) {
        let (r, c) = run.subtotal(labels);
        let _ = write!(
            out,
            ",\"{key}\":{{\"row_ms\":{:.3},\"columnar_ms\":{:.3},\"speedup\":{:.3}}}",
            r.as_secs_f64() * 1e3,
            c.as_secs_f64() * 1e3,
            r.as_secs_f64() / c.as_secs_f64().max(1e-9)
        );
    }
    let (bare, resident) = (run.fallback_bare.as_secs_f64(), run.fallback_resident.as_secs_f64());
    let _ = write!(
        out,
        ",\"fallback\":{{\"bare_ms\":{:.3},\"resident_ms\":{:.3},\"speedup\":{:.3}}}",
        bare * 1e3,
        resident * 1e3,
        bare / resident.max(1e-9)
    );
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_follows_the_stable_schema() {
        let run = run(80, 0, 1);
        let json = to_json(&run);
        assert!(json.contains("\"schema\":\"fsdm-bench-imc-v1\""), "{json}");
        assert!(json.contains("\"git_rev\":\""), "{json}");
        assert!(json.contains("\"scale\":80"), "{json}");
        assert!(json.contains("\"Q1\":{\"row_ms\":"), "{json}");
        assert!(json.contains("\"scan_heavy\":{\"row_ms\":"), "{json}");
        assert!(json.contains("\"path_heavy\":{\"row_ms\":"), "{json}");
        assert!(json.contains("\"T9\":{\"row_ms\":"), "{json}");
        assert!(json.contains("\"expansion_heavy\":{\"row_ms\":"), "{json}");
        assert!(json.contains("\"fallback\":{\"bare_ms\":"), "{json}");
        // must parse with the in-repo JSON parser
        fsdm_json::parse(&json).expect("bench JSON parses");
    }

    #[test]
    fn run_times_both_pipelines_and_renders() {
        let r = run(120, 0, 1);
        assert_eq!(r.per_query.len(), 11, "Q1..Q11");
        assert_eq!(r.olap.len(), 9, "T1..T9");
        assert!(r.scan_heavy_row() > Duration::ZERO);
        assert!(r.scan_heavy_columnar() > Duration::ZERO);
        let text = render(&r);
        assert!(text.contains("columnar ms"), "{text}");
        assert!(text.contains("Q1-3 subtotal"), "{text}");
        assert!(text.contains("T7-9 subtotal"), "{text}");
        assert!(r.fallback_bare > Duration::ZERO && r.fallback_resident > Duration::ZERO);
        assert!(text.contains("row-evaluator fallback"), "{text}");
    }
}
