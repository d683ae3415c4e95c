//! One workload in this process: set-up, oracle, warm-up, timed passes,
//! and in a traced run the spans, counters and layer probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fsdm_obs::catalog;

use crate::gen::corpus_hash;
use crate::harness::{PassLog, PlanShape, Ready, Scale, Tally, Workload, DEGREE};
use crate::ingest::{setup_ingest, PUT_BATCH};
use crate::layers::{probe, LayerTimes};
use crate::query::{setup_nobench, setup_olap};
use crate::report::{result_line, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, peak_rss_mb, tail_percentile};
use crate::trace::{self, Recorder, Span};

/// Untimed passes before measuring: caches fill and lazy set-up finishes.
const WARMUP_PASSES: usize = 2;
/// A traced run makes at least this many passes of each sort.
const MIN_TRACE_PASSES: usize = 3;
/// Spans of the staged statement execution; together they are its wall.
const QUERY_STAGES: [&str; 3] = ["sql.plan", "store.optimize", "store.exec"];
/// Engine counters a traced run reports per pass. With one client at
/// degree 1 each must come out the same in every pass.
const PASS_COUNTERS: [&str; 3] =
    [catalog::SQLJSON_EVAL_PATHS, catalog::OSON_NODE_LOOKUPS, catalog::OSON_NODE_PROBES];

/// Arguments of a single-workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub inject_mismatch: bool,
}

fn setup(cfg: &RunConfig) -> Result<Ready, String> {
    match cfg.workload.as_str() {
        name @ ("nobench.text" | "nobench.path" | "nobench.vc") => {
            setup_nobench(name, cfg.seed, cfg.scale)
        }
        "olap.oson" => setup_olap(cfg.seed, cfg.scale),
        "ingest.index" => setup_ingest(cfg.seed, cfg.scale),
        other => Err(format!("unknown workload {other}")),
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// One pass, its failures moved into `tally`. A traced pass also records
/// what it added to `PASS_COUNTERS`.
fn one_pass(workload: &mut dyn Workload, rec: Option<&mut Recorder>, tally: &mut Tally) -> PassLog {
    let mut log = PassLog::default();
    let before = rec.is_some().then(fsdm_obs::snapshot);
    workload.pass(rec, &mut log);
    if let Some(before) = before {
        let added = fsdm_obs::snapshot().diff(&before);
        log.counters = PASS_COUNTERS.iter().map(|c| added.counter(c)).collect();
    }
    tally.absorb(std::mem::take(&mut log.tally));
    log
}

/// Latency samples of each kind, in kind order, across passes.
fn samples_by_kind(kinds: usize, logs: &[PassLog]) -> Vec<Vec<f64>> {
    let mut by_kind = vec![Vec::new(); kinds];
    for (kind, ns) in logs.iter().flat_map(|l| &l.samples) {
        by_kind[*kind].push(*ns as f64);
    }
    by_kind
}

fn pass_ms(logs: &[PassLog]) -> f64 {
    ms(median(&logs.iter().map(|l| l.wall_ns() as f64).collect::<Vec<_>>()))
}

fn print_kinds(kinds: &[&'static str], by_kind: &[Vec<f64>]) {
    for (kind, samples) in kinds.iter().zip(by_kind) {
        let tail = match tail_percentile(samples) {
            Some((p, v)) => format!("p{p} {:.4} ms", ms(v)),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        println!(
            "  kind {kind}: median {:.4} ms, {tail}, n={}",
            ms(median(samples)),
            samples.len()
        );
    }
}

/// Run one workload and print its report; the last line is the result
/// object. Returns the number of failed operations.
pub fn run(cfg: &RunConfig) -> Result<u64, String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} {:?}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale
    );
    println!("host available_parallelism {cores}; 1 client, closed loop; executor degree {DEGREE}");

    let Ready { mut workload, setup_s, imc_populate_ms, oracle } = setup(cfg)?;
    let mut tally = Tally::default();
    let docs = workload.probe_input().docs;
    println!("corpus {} documents, hash {:016x}", docs.len(), corpus_hash(docs));
    println!("oracle: {} checks, {} failed", oracle.attempted, oracle.failures.len());
    tally.absorb(oracle);
    if cfg.inject_mismatch {
        workload.corrupt_expected();
    }
    for _ in 0..WARMUP_PASSES {
        one_pass(workload.as_mut(), None, &mut tally);
    }

    // whole passes until --seconds has elapsed
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (table, values) = if cfg.trace {
        // untraced and traced passes alternate, so that a slow spell of
        // the host falls on both sides of every comparison between them
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut rec = Recorder::default();
        while traced.len() < MIN_TRACE_PASSES || start.elapsed() < budget {
            plain.push(one_pass(workload.as_mut(), None, &mut tally));
            traced.push(one_pass(workload.as_mut(), Some(&mut rec), &mut tally));
        }
        let repeat = traced.iter().all(|l| l.counters == traced[0].counters);
        tally.check((!repeat).then(|| format!("{PASS_COUNTERS:?} differ between traced passes")));
        let layers = probe(&workload.probe_input())?;
        let shape = workload.plan_shape()?;
        let run = TracedRun {
            kinds: workload.kinds(),
            plain: &plain,
            traced: &traced,
            spans: rec.spans(),
            layers: &layers,
            shape,
            imc_populate_ms,
        };
        let values = run.per_layer()?;
        write_trace(cfg, rec.spans())?;
        (&PER_LAYER[..], values)
    } else {
        let mut logs = Vec::new();
        while logs.is_empty() || start.elapsed() < budget {
            logs.push(one_pass(workload.as_mut(), None, &mut tally));
        }
        let by_kind = samples_by_kind(workload.kinds().len(), &logs);
        println!("passes {} (after {WARMUP_PASSES} warm-up)", logs.len());
        print_kinds(workload.kinds(), &by_kind);
        let medians: Vec<f64> = by_kind.iter().map(|s| ms(median(s))).collect();
        let (stored, text) = workload.space();
        let values = vec![
            ("setup_s", median(&setup_s)),
            ("pass_ms", pass_ms(&logs)),
            ("lat_geomean_ms", geomean(&medians)),
            ("peak_rss_mb", peak_rss_mb()?),
            ("space_amp", stored as f64 / text as f64),
        ];
        (&END_TO_END[..], values)
    };

    for ((name, value), (_, unit)) in values.iter().zip(table) {
        println!("  metric {name} = {value} {unit}");
    }
    for failure in tally.failures.iter().take(20) {
        println!("  FAILED {failure}");
    }
    let failed = tally.failures.len() as u64;
    println!("{}", result_line(tally.attempted, failed, table, &values)?);
    Ok(failed)
}

/// Everything a traced run gathered.
struct TracedRun<'a> {
    kinds: &'a [&'static str],
    plain: &'a [PassLog],
    traced: &'a [PassLog],
    spans: &'a [Span],
    layers: &'a LayerTimes,
    shape: PlanShape,
    imc_populate_ms: Option<f64>,
}

impl TracedRun<'_> {
    /// Median over the traced passes of one stage's spans summed per pass.
    /// Every traced pass records the same spans in the same order, so
    /// equal chunks of the span list are the passes.
    fn stage_us(&self, name: &str) -> f64 {
        let per_pass = (self.spans.len() / self.traced.len()).max(1);
        let sums: Vec<f64> = self
            .spans
            .chunks(per_pass)
            .map(|pass| {
                pass.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).sum()
            })
            .collect();
        median(&sums) / 1e3
    }

    /// Share of each kind's untraced median wall that its stages cover; the
    /// least of them. Statements have the three `QUERY_STAGES`; `put.index`
    /// has the five-stage replay; the other kinds are one public call each
    /// and have nothing to split.
    fn attributed_share(&self, plain_by_kind: &[Vec<f64>]) -> Result<f64, String> {
        // kind → per stage, nanoseconds summed over all traced passes
        let mut staged: BTreeMap<&str, [f64; 3]> = BTreeMap::new();
        for s in self.spans {
            if let Some(stage) = QUERY_STAGES.iter().position(|name| *name == s.name) {
                let parent = s.parent.ok_or("a stage span without a parent")?;
                staged.entry(self.spans[parent].name).or_default()[stage] += s.duration_ns() as f64;
            }
        }
        let mut least = f64::INFINITY;
        for (kind, samples) in self.kinds.iter().zip(plain_by_kind) {
            let wall = median(samples);
            let covered = if let Some(stages) = staged.get(kind) {
                let [plan, optimize, exec] = stages.map(|total| total / self.traced.len() as f64);
                println!(
                    "  stages {kind}: sql.plan {:.4} ms, store.optimize {:.4} ms, store.exec {:.4} ms",
                    ms(plan),
                    ms(optimize),
                    ms(exec)
                );
                plan + optimize + exec
            } else if *kind == "put.index" {
                self.layers.put_replay_us * 1e3 * PUT_BATCH as f64
            } else {
                continue;
            };
            let share = covered / wall;
            println!(
                "  attribution {kind}: {:.4} ms of {:.4} ms untraced = {:.1} %, unattributed {:.1} %",
                ms(covered),
                ms(wall),
                share * 100.0,
                (1.0 - share) * 100.0
            );
            least = least.min(share);
        }
        Ok(if least.is_finite() { least } else { 0.0 })
    }

    /// The metrics of `PER_LAYER`, in its order.
    fn per_layer(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let (layers, shape) = (self.layers, self.shape);
        let plain_by_kind = samples_by_kind(self.kinds.len(), self.plain);
        println!(
            "passes {} untraced and {} traced, alternating",
            self.plain.len(),
            self.traced.len()
        );
        print_kinds(self.kinds, &plain_by_kind);
        println!("self time per span name over the traced passes:");
        for (name, ns) in trace::self_times_ns(self.spans, 0) {
            println!("  span {name}: self {:.3} ms", ms(ns as f64));
        }
        let attributed = self.attributed_share(&plain_by_kind)?;
        println!(
            "plan shape: {} of {} operators columnar; {} rows examined for {} returned",
            shape.columnar_operators, shape.operators, shape.rows_examined, shape.rows_returned
        );
        println!(
            "put replay over {} documents, us per document: json.parse {:.3}, oson.encode {:.3}, \
             dataguide.signature {:.3}, dataguide.add {:.3} on {:.1} % of them, index.insert {:.3}; \
             total {:.3}",
            layers.docs,
            layers.json_parse_us,
            layers.oson_encode_us,
            layers.signature_us,
            layers.guide_add_us,
            (1.0 - layers.guide_fast_path_ratio) * 100.0,
            layers.index_insert_us,
            layers.put_replay_us
        );

        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let [eval_paths, node_lookups, node_probes] = self.traced[0].counters[..] else {
            return Err("a traced pass without its counters".to_string());
        };
        // populated once per pass where a pass populates, else in set-up
        let populate_ms = match self.kinds.iter().position(|k| *k == "imc.populate") {
            Some(kind) => ms(median(&plain_by_kind[kind])),
            None => self.imc_populate_ms.unwrap_or(0.0),
        };
        Ok(vec![
            ("sql.parse_us", shape.parse_us),
            // Session::plan parses the text itself: the planner's share is the rest
            ("sql.plan_us", self.stage_us("sql.plan") - shape.parse_us),
            ("store.optimize_us", self.stage_us("store.optimize")),
            ("store.exec_ms", self.stage_us("store.exec") / 1e3),
            ("store.columnar_op_share", ratio(shape.columnar_operators, shape.operators)),
            ("store.rows_examined_per_row", ratio(shape.rows_examined, shape.rows_returned)),
            ("store.imc_populate_ms", populate_ms),
            ("sqljson.stream_us", layers.stream_us),
            ("sqljson.oson_eval_us", layers.oson_eval_us),
            ("sqljson.lookback_hit_ratio", layers.lookback_hit_ratio),
            ("sqljson.json_table_us", layers.json_table_us),
            ("sqljson.eval.paths", eval_paths as f64),
            ("oson.encode_us", layers.oson_encode_us),
            ("oson.decode_us", layers.oson_decode_us),
            ("oson.node.lookups", node_lookups as f64),
            ("oson.node.probes_per_lookup", ratio(node_probes, node_lookups)),
            ("json.parse_us", layers.json_parse_us),
            ("json.parse_mb_s", layers.json_parse_mb_s),
            ("dataguide.signature_us", layers.signature_us),
            ("dataguide.add_us", layers.guide_add_us),
            ("dataguide.fast_path_ratio", layers.guide_fast_path_ratio),
            ("index.insert_us", layers.index_insert_us),
            ("index.postings_per_doc", layers.index_postings_per_doc),
            ("index.lookup_us", layers.index_lookup_us),
            ("trace.attributed_share", attributed),
            ("trace.unattributed_share", 1.0 - attributed),
            ("trace.overhead_ratio", pass_ms(self.traced) / pass_ms(self.plain)),
        ])
    }
}

/// Spans go to `out/` beside the package's manifest when the run ends.
fn write_trace(cfg: &RunConfig, spans: &[Span]) -> Result<(), String> {
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| std::path::PathBuf::from("benchmark"), std::path::PathBuf::from)
        .join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = dir.join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
    std::fs::write(&file, trace::to_json(spans))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{} spans written to {}", spans.len(), file.display());
    Ok(())
}
