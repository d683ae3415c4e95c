//! What the five workloads share: sizes, the pass log, result hashing and
//! the interface the run loop drives.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use fsdm_json::JsonValue;
use fsdm_sqljson::json_table::JsonTableDef;
use fsdm_store::table::InsertValue;
use fsdm_store::{
    ColType, ColumnSpec, ConstraintMode, JsonStorage, QueryResult, Table, TableSchema,
};

use crate::gen::{fnv1a, fnv1a_extend};
use crate::trace::Recorder;

/// The workloads, in the order the full set runs them.
pub const WORKLOADS: [&str; 5] =
    ["nobench.text", "nobench.path", "nobench.vc", "olap.oson", "ingest.index"];

/// Executor degree of every session: the host has two shared cores, results
/// are byte-identical at any degree, and with one client nothing contends.
pub const DEGREE: usize = 1;

/// Collection sizes. The full sizes are those of EXPERIMENTS.md, so the
/// numbers can be read beside its tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub nobench_docs: usize,
    pub po_docs: usize,
    pub ingest_docs: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { nobench_docs: 20_000, po_docs: 5_000, ingest_docs: 5_000 };
    /// A tenth of everything: checks the plumbing and the oracle, measures
    /// nothing.
    pub const SMOKE: Scale = Scale { nobench_docs: 2_000, po_docs: 500, ingest_docs: 500 };

    /// Whether this run is the one whose result sizes are pinned in the
    /// source: `--seed 42` at full size. A generator or engine change that
    /// alters what the operations return shows there first.
    pub fn is_pinned(self, seed: u64) -> bool {
        seed == 42 && self == Scale::FULL
    }
}

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `problem` says why it failed, if it did.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.failures.extend(problem);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// One pass: a latency sample per operation, tagged with its kind's index.
#[derive(Debug, Default)]
pub struct PassLog {
    pub samples: Vec<(usize, u64)>,
    pub tally: Tally,
    /// What the pass added to the engine counters a traced run reports.
    pub counters: Vec<u64>,
}

impl PassLog {
    /// Wall of the pass: the sum of its operations, without the harness's
    /// own result hashing between them.
    pub fn wall_ns(&self) -> u64 {
        self.samples.iter().map(|(_, ns)| ns).sum()
    }
}

/// What the layer probes of a traced run evaluate on a workload's corpus.
pub struct ProbeSpec {
    /// A path most documents have and one none has.
    pub hit_path: &'static str,
    pub miss_path: &'static str,
    pub table_def: JsonTableDef,
    /// Path and keywords for search-index probes; every keyword occurs.
    pub keyword_path: &'static str,
    pub keywords: Vec<String>,
}

/// The corpus (as JSON texts) and what to probe it with.
pub struct ProbeInput<'a> {
    pub docs: &'a [String],
    pub spec: &'a ProbeSpec,
}

/// What a traced run learns about the statements of one pass outside the
/// passes: operator counts from `QueryProfile`, and the parser on its own.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PlanShape {
    pub operators: u64,
    pub columnar_operators: u64,
    pub rows_examined: u64,
    pub rows_returned: u64,
    /// `parse_sql` alone, summed over the SQL texts of one pass.
    pub parse_us: f64,
}

/// A workload after set-up.
pub trait Workload {
    /// Operation kinds; `PassLog` samples index into this.
    fn kinds(&self) -> &[&'static str];
    /// Run the fixed operation list once, verifying every output. With a
    /// recorder, run it stage by stage under spans.
    fn pass(&mut self, rec: Option<&mut Recorder>, log: &mut PassLog);
    /// `(Table::storage_size() summed, bytes of JSON text ingested)`.
    fn space(&self) -> (usize, usize);
    fn probe_input(&self) -> ProbeInput<'_>;
    fn plan_shape(&mut self) -> Result<PlanShape, String>;
    /// Make one expected output wrong, to show a mismatch is caught.
    fn corrupt_expected(&mut self);
}

/// A workload ready to run, with what set-up measured and checked.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    /// Wall of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// IMC population inside set-up, where the workload populates one.
    pub imc_populate_ms: Option<f64>,
    pub oracle: Tally,
}

/// Repetitions of the timed set-up.
const SETUP_REPS: usize = 5;

/// Build a workload's state `SETUP_REPS` times and time each; keep the
/// first. That one was built on the untouched heap of a new process, so what
/// the timed passes read lies in memory the same way in every run; built
/// after others had come and gone it would sit in their holes, and Q4 of
/// `nobench.path` then ran 15 to 21 ms from one process to the next.
pub fn timed_setups<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = build()?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept.get_or_insert(built);
    }
    Ok((kept.expect("SETUP_REPS > 0"), setup_s))
}

/// Load texts into a fresh `(did, jdoc)` table, as an application would.
pub fn load_table(
    name: &str,
    docs: &[String],
    storage: JsonStorage,
    constraint: ConstraintMode,
) -> Result<Table, String> {
    let mut table = Table::new(TableSchema::new(
        name,
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", storage, constraint),
        ],
    ));
    for (i, d) in docs.iter().enumerate() {
        table
            .insert(vec![(i as i64).into(), InsertValue::Json(d.clone())])
            .map_err(|e| format!("insert into {name}: {e}"))?;
    }
    Ok(table)
}

/// `std::hash::Hasher` over FNV-1a, so results hash through the engine's
/// own `Hash for Datum`, which agrees with its equality by contract.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }
}

/// Hash and row count an operation must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub hash: u64,
    pub rows: usize,
}

/// JSON text with object members sorted by name, recursively. A document
/// selected whole comes back in its storage's member order (OSON sorts by
/// field id), which SQL/JSON does not distinguish.
fn canonical_json(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Object(o) => {
            let mut members: Vec<_> = o.iter().collect();
            members.sort_by(|a, b| a.0.cmp(b.0));
            out.push('{');
            for (i, (k, v)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                fsdm_json::ser::write_escaped(k, out);
                out.push(':');
                canonical_json(v, out);
            }
            out.push('}');
        }
        JsonValue::Array(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical_json(v, out);
            }
            out.push(']');
        }
        scalar => out.push_str(&fsdm_json::to_string(scalar)),
    }
}

/// Order-sensitive hash of a materialized result; a cell holding a JSON
/// object hashes in canonical member order.
pub fn result_fingerprint(result: &QueryResult) -> Expected {
    let mut h = Fnv(fnv1a(b"result"));
    for cell in result.rows.iter().flatten() {
        let object = cell.as_str().filter(|s| s.starts_with('{')).map(fsdm_json::parse);
        match object {
            Some(Ok(doc)) => {
                let mut text = String::new();
                canonical_json(&doc, &mut text);
                text.hash(&mut h);
            }
            _ => cell.hash(&mut h),
        }
    }
    Expected { hash: h.finish(), rows: result.rows.len() }
}

/// Fingerprint of any list of ids (index lookups).
pub fn ids_fingerprint(ids: &[u64]) -> u64 {
    let mut h = Fnv(fnv1a(b"ids"));
    ids.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_sqljson::Datum;

    #[test]
    fn fingerprint_sees_values_order_and_count() {
        let result = |rows: Vec<Vec<Datum>>| QueryResult { columns: vec!["c".into()], rows };
        let a = result(vec![vec![Datum::from(1i64)], vec![Datum::from("x")]]);
        let same = result(vec![vec![Datum::from(1i64)], vec![Datum::from("x")]]);
        let swapped = result(vec![vec![Datum::from("x")], vec![Datum::from(1i64)]]);
        let other = result(vec![vec![Datum::from(2i64)], vec![Datum::from("x")]]);
        assert_eq!(result_fingerprint(&a), result_fingerprint(&same));
        assert_ne!(result_fingerprint(&a).hash, result_fingerprint(&swapped).hash);
        assert_ne!(result_fingerprint(&a).hash, result_fingerprint(&other).hash);
        assert_eq!(result_fingerprint(&a).rows, 2);
        assert_ne!(ids_fingerprint(&[1, 2]), ids_fingerprint(&[2, 1]));
    }

    #[test]
    fn fingerprint_ignores_member_order_of_a_selected_document() {
        let doc = |text: &str| QueryResult {
            columns: vec!["jdoc".into()],
            rows: vec![vec![Datum::from(text)]],
        };
        let a = doc(r#"{"a":1,"b":{"x":[1,{"p":1,"q":2}],"y":"s"}}"#);
        let reordered = doc(r#"{"b":{"y":"s","x":[1,{"q":2,"p":1}]},"a":1}"#);
        let array_reordered = doc(r#"{"a":1,"b":{"x":[{"p":1,"q":2},1],"y":"s"}}"#);
        assert_eq!(result_fingerprint(&a), result_fingerprint(&reordered));
        assert_ne!(result_fingerprint(&a), result_fingerprint(&array_reordered));
        // not JSON after all: hashed as the string it is
        assert_ne!(result_fingerprint(&doc("{oops")), result_fingerprint(&doc("{oopz")));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(None);
        t.check(Some("Q3: hash differs".into()));
        assert_eq!((t.attempted, t.failures.len()), (2, 1));
    }
}
