//! The four read workloads: `nobench.text`, `nobench.path`, `nobench.vc`
//! and `olap.oson`. They differ in corpus, statements and access path; the
//! run loop, the staged traced execution and the checks are the same.

use std::hint::black_box;
use std::time::Instant;

use fsdm_sql::{parse_sql, Session};
use fsdm_store::{ConstraintMode, JsonStorage, Query, QueryResult};

use crate::gen::{nobench_corpus, po_corpus, Corpus, NoBenchFacts, PoFacts};
use crate::harness::{
    load_table, result_fingerprint, timed_setups, Expected, PassLog, PlanShape, ProbeInput,
    ProbeSpec, Ready, Scale, Tally, Workload, DEGREE,
};
use crate::inputs::{
    add_nbq_columns, nobench_statements, nobench_table_def, olap_statements, po_dmdv_def, po_views,
    Statement, NBQ_COLUMNS,
};
use crate::layers::PROBE_DOCS;
use crate::stats::median;
use crate::trace::Recorder;

const NOBENCH_KINDS: [&str; 11] =
    ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11"];
const PARSE_REPS: usize = 25;
const OLAP_KINDS: [&str; 9] = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"];

/// Statements (1-based) each NOBENCH workload runs. `nobench.path` takes
/// the ones that touch a path with no resident vector, `nobench.vc` the
/// ones every column of which is a resident vector.
const TEXT_QUERIES: [usize; 5] = [1, 3, 6, 8, 10];
const PATH_QUERIES: [usize; 6] = [4, 7, 8, 9, 10, 11];
const VC_QUERIES: [usize; 5] = [1, 2, 3, 5, 6];

/// Result row counts of the pinned run (`Scale::is_pinned`).
const PINNED_NOBENCH_ROWS: [usize; 11] =
    [20_000, 20_000, 200, 400, 1, 2_001, 2_001, 2_537, 200, 1_000, 1];
const PINNED_OLAP_ROWS: [usize; 9] = [1, 39, 1, 2, 4, 1, 39, 1_154, 25_164];

struct Op {
    statement: Statement,
    expected: Expected,
}

/// A loaded database and the operations of one pass over it.
pub struct QueryWorkload {
    session: Session,
    /// One kind per operation, in pass order.
    kinds: Vec<&'static str>,
    ops: Vec<Op>,
    table: &'static str,
    docs: Vec<String>,
    probe: ProbeSpec,
}

fn execute(session: &mut Session, statement: &Statement) -> Result<QueryResult, String> {
    match statement {
        Statement::Sql { text, binds } => {
            session.execute_with(text, binds).map_err(|e| e.to_string())
        }
        Statement::Plan(plan) => session.db.execute(plan).map_err(|e| e.to_string()),
    }
}

/// What `Session::execute_with` and `Database::execute` do, one public
/// call per layer, each under its span. `Session::plan` parses inside; the
/// parser alone is timed apart, in [`parse_alone_us`].
fn execute_staged(
    session: &mut Session,
    statement: &Statement,
    rec: &mut Recorder,
) -> Result<QueryResult, String> {
    let planned;
    let plan = match statement {
        Statement::Sql { text, binds } => {
            planned =
                rec.span("sql.plan", |_| session.plan(text, binds)).map_err(|e| e.to_string())?;
            &planned
        }
        Statement::Plan(plan) => plan,
    };
    // `Database::execute` optimizes a clone of the plan it was given
    let optimized =
        rec.span("store.optimize", |_| fsdm_store::optimizer::optimize(&session.db, plan.clone()));
    rec.span("store.exec", |_| session.db.execute_unoptimized(&optimized))
        .map_err(|e| e.to_string())
}

/// Median microseconds `parse_sql` takes on one statement text, warm.
fn parse_alone_us(text: &str) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..PARSE_REPS {
        let start = Instant::now();
        black_box(parse_sql(black_box(text))).map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&samples))
}

fn verify(kind: &str, result: Result<QueryResult, String>, expected: Expected) -> Option<String> {
    match result.map(|r| result_fingerprint(&r)) {
        Err(e) => Some(format!("{kind}: {e}")),
        Ok(got) if got != expected => Some(format!(
            "{kind}: result {:016x}/{} rows, expected {:016x}/{} rows",
            got.hash, got.rows, expected.hash, expected.rows
        )),
        Ok(_) => None,
    }
}

impl Workload for QueryWorkload {
    fn kinds(&self) -> &[&'static str] {
        &self.kinds
    }

    fn pass(&mut self, mut rec: Option<&mut Recorder>, log: &mut PassLog) {
        for (k, (op, kind)) in self.ops.iter().zip(&self.kinds).enumerate() {
            let start = Instant::now();
            let result = match rec.as_deref_mut() {
                None => execute(&mut self.session, &op.statement),
                Some(rec) => {
                    rec.next_op();
                    rec.span(kind, |rec| execute_staged(&mut self.session, &op.statement, rec))
                }
            };
            log.samples.push((k, start.elapsed().as_nanos() as u64));
            log.tally.check(verify(kind, result, op.expected));
        }
    }

    fn space(&self) -> (usize, usize) {
        let stored = self.session.db.table(self.table).map_or(0, |t| t.storage_size());
        (stored, self.docs.iter().map(String::len).sum())
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput { docs: &self.docs, spec: &self.probe }
    }

    fn plan_shape(&mut self) -> Result<PlanShape, String> {
        let mut shape = PlanShape::default();
        for op in &self.ops {
            let plan: Query = match &op.statement {
                Statement::Sql { text, binds } => {
                    shape.parse_us += parse_alone_us(text)?;
                    self.session.plan(text, binds).map_err(|e| e.to_string())?
                }
                Statement::Plan(plan) => plan.clone(),
            };
            let (result, profile) =
                self.session.db.execute_profiled(&plan).map_err(|e| e.to_string())?;
            shape.rows_returned += result.rows.len() as u64;
            for operator in profile.ops() {
                shape.operators += 1;
                shape.columnar_operators += u64::from(operator.mode == "columnar");
                // a scan examines its whole table however few rows it emits
                if let Some(args) = operator.op.strip_prefix("Scan(") {
                    let table = args.split([',', ')']).next().unwrap_or_default();
                    shape.rows_examined +=
                        self.session.db.table(table).map_or(0, |t| t.len()) as u64;
                }
            }
        }
        Ok(shape)
    }

    fn corrupt_expected(&mut self) {
        self.ops[0].expected.hash ^= 1;
    }
}

fn new_session() -> Session {
    let mut session = Session::new();
    session.set_parallelism(DEGREE);
    session
}

/// Run every statement; `None` where one failed (already tallied).
fn run_all(
    session: &mut Session,
    kinds: &[&'static str],
    statements: &[Statement],
    label: &str,
    tally: &mut Tally,
) -> Vec<Option<Expected>> {
    statements
        .iter()
        .zip(kinds)
        .map(|(s, kind)| match execute(session, s) {
            Ok(r) => {
                tally.check(None);
                Some(result_fingerprint(&r))
            }
            Err(e) => {
                tally.check(Some(format!("oracle {kind} over {label}: {e}")));
                None
            }
        })
        .collect()
}

fn compare(
    kinds: &[&'static str],
    reference: &[Option<Expected>],
    got: &[Option<Expected>],
    label: &str,
    tally: &mut Tally,
) {
    for ((kind, want), got) in kinds.iter().zip(reference).zip(got) {
        let same = matches!((want, got), (Some(a), Some(b)) if a == b);
        tally
            .check((!same).then(|| format!("oracle {kind}: {label} differs: {got:?} vs {want:?}")));
    }
}

fn check_pinned(
    kinds: &[&'static str],
    expected: &[Option<Expected>],
    pinned: &[usize],
    tally: &mut Tally,
) {
    for ((kind, got), want) in kinds.iter().zip(expected).zip(pinned) {
        let rows = got.map(|e| e.rows);
        tally.check(
            (rows != Some(*want))
                .then(|| format!("oracle {kind}: {rows:?} rows, pinned {want} for seed 42")),
        );
    }
}

/// The resident-vector part of NOBENCH set-up: OSON-IMC, then the `nbq$*`
/// vectors.
fn populate_nobench(session: &mut Session) -> Result<(), String> {
    let table = session.db.table_mut("nobench").ok_or("no nobench table")?;
    table.populate_oson_imc().map_err(|e| e.to_string())?;
    add_nbq_columns(table);
    table.populate_vc_imc(&NBQ_COLUMNS).map_err(|e| e.to_string())
}

/// All 11 statements must hash the same over JSON text, over the OSON-IMC
/// and with the `nbq$*` vectors resident; the text results are what the
/// timed passes are then held to.
fn nobench_oracle(
    docs: &[String],
    statements: &[Statement],
    pinned: bool,
    tally: &mut Tally,
) -> Result<Vec<Option<Expected>>, String> {
    let mut session = new_session();
    session.db.add_table(load_table("nobench", docs, JsonStorage::Text, ConstraintMode::IsJson)?);
    let text = run_all(&mut session, &NOBENCH_KINDS, statements, "text", tally);
    let table = session.db.table_mut("nobench").ok_or("no nobench table")?;
    table.populate_oson_imc().map_err(|e| e.to_string())?;
    let oson = run_all(&mut session, &NOBENCH_KINDS, statements, "OSON-IMC", tally);
    compare(&NOBENCH_KINDS, &text, &oson, "OSON-IMC vs text", tally);
    let table = session.db.table_mut("nobench").ok_or("no nobench table")?;
    add_nbq_columns(table);
    table.populate_vc_imc(&NBQ_COLUMNS).map_err(|e| e.to_string())?;
    let vc = run_all(&mut session, &NOBENCH_KINDS, statements, "VC-IMC", tally);
    compare(&NOBENCH_KINDS, &text, &vc, "VC-IMC vs text", tally);
    if pinned {
        check_pinned(&NOBENCH_KINDS, &text, &PINNED_NOBENCH_ROWS, tally);
    }
    Ok(text)
}

/// Keywords of documents the layer probes index, so every one is found.
fn probe_keywords<F>(facts: &[F], word: fn(&F) -> &String) -> Vec<String> {
    facts.iter().take(PROBE_DOCS).step_by(7).map(|f| word(f).clone()).collect()
}

/// Probe targets on the NOBENCH shape; `keywords` are `str1` values.
pub fn nobench_probe(corpus: &Corpus<NoBenchFacts>) -> ProbeSpec {
    ProbeSpec {
        hit_path: "$.nested_obj.str",
        miss_path: "$.sparse_1000",
        table_def: nobench_table_def(),
        keyword_path: "$.str1",
        keywords: probe_keywords(&corpus.facts, |f| &f.str1),
    }
}

fn po_probe(corpus: &Corpus<PoFacts>) -> ProbeSpec {
    ProbeSpec {
        hit_path: "$.purchaseOrder.reference",
        miss_path: "$.purchaseOrder.cancelled",
        table_def: po_dmdv_def(),
        keyword_path: "$.purchaseOrder.requestor",
        keywords: probe_keywords(&corpus.facts, |f| &f.requestor),
    }
}

fn ops_for(
    queries: &[usize],
    statements: &[Statement],
    expected: &[Option<Expected>],
) -> Result<Vec<Op>, String> {
    queries
        .iter()
        .map(|q| {
            let expected = expected[q - 1].ok_or("the oracle has no result to compare against")?;
            Ok(Op { statement: statements[q - 1].clone(), expected })
        })
        .collect()
}

/// Set up `nobench.text` (`resident = false`) or `nobench.path` /
/// `nobench.vc`, which share a database and differ in their statements.
pub fn setup_nobench(name: &str, seed: u64, scale: Scale) -> Result<Ready, String> {
    let (queries, resident): (&[usize], bool) = match name {
        "nobench.text" => (&TEXT_QUERIES, false),
        "nobench.path" => (&PATH_QUERIES, true),
        _ => (&VC_QUERIES, true),
    };
    let mut populate_ms = Vec::new();
    let ((corpus, session), setup_s) = timed_setups(|| {
        let corpus = nobench_corpus(seed, scale.nobench_docs);
        let mut session = new_session();
        session.db.add_table(load_table(
            "nobench",
            &corpus.docs,
            JsonStorage::Text,
            ConstraintMode::IsJson,
        )?);
        if resident {
            let populate = Instant::now();
            populate_nobench(&mut session)?;
            populate_ms.push(populate.elapsed().as_secs_f64() * 1e3);
        }
        Ok((corpus, session))
    })?;
    let statements = nobench_statements(&corpus);
    let mut oracle = Tally::default();
    let expected = nobench_oracle(&corpus.docs, &statements, scale.is_pinned(seed), &mut oracle)?;
    let workload = QueryWorkload {
        session,
        kinds: queries.iter().map(|q| NOBENCH_KINDS[q - 1]).collect(),
        ops: ops_for(queries, &statements, &expected)?,
        table: "nobench",
        probe: nobench_probe(&corpus),
        docs: corpus.docs,
    };
    Ok(Ready {
        workload: Box::new(workload),
        setup_s,
        imc_populate_ms: resident.then(|| median(&populate_ms)),
        oracle,
    })
}

fn olap_session(docs: &[String], storage: JsonStorage) -> Result<Session, String> {
    let mut session = new_session();
    session.db.add_table(load_table("po", docs, storage, ConstraintMode::IsJson)?);
    for (name, plan) in po_views() {
        session.db.create_view(name, plan);
    }
    Ok(session)
}

/// Set up `olap.oson`: purchaseOrders in OSON storage behind the two
/// views; the expected results come from the same views over text storage.
pub fn setup_olap(seed: u64, scale: Scale) -> Result<Ready, String> {
    let ((corpus, session), setup_s) = timed_setups(|| {
        let corpus = po_corpus(seed, scale.po_docs);
        let session = olap_session(&corpus.docs, JsonStorage::Oson)?;
        Ok((corpus, session))
    })?;
    let statements = olap_statements(&corpus, seed);
    let mut oracle = Tally::default();
    let mut text_session = olap_session(&corpus.docs, JsonStorage::Text)?;
    let expected = run_all(&mut text_session, &OLAP_KINDS, &statements, "text", &mut oracle);
    drop(text_session);
    if scale.is_pinned(seed) {
        check_pinned(&OLAP_KINDS, &expected, &PINNED_OLAP_ROWS, &mut oracle);
    }
    let queries: Vec<usize> = (1..=OLAP_KINDS.len()).collect();
    let workload = QueryWorkload {
        session,
        kinds: OLAP_KINDS.to_vec(),
        ops: ops_for(&queries, &statements, &expected)?,
        table: "po",
        probe: po_probe(&corpus),
        docs: corpus.docs,
    };
    Ok(Ready { workload: Box::new(workload), setup_s, imc_populate_ms: None, oracle })
}
