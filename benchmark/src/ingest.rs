//! `ingest.index`: writes beside reads. Every pass loads fresh collections,
//! so `json` parse, `oson` encode, `dataguide` and `index` dominate and the
//! executor does little.

use std::time::Instant;

use fsdm_core::{CollectionOptions, FsdmDatabase};
use fsdm_dataguide::hierarchical::to_flat_json;
use fsdm_json::JsonValue;
use fsdm_store::JsonStorage;

use crate::gen::{fnv1a, ingest_corpus, Corpus, NoBenchFacts, Rng};
use crate::harness::{
    ids_fingerprint, timed_setups, PassLog, PlanShape, ProbeInput, ProbeSpec, Ready, Scale, Tally,
    Workload, DEGREE,
};
use crate::inputs::{add_nbq_columns, NBQ_COLUMNS};
use crate::query::nobench_probe;
use crate::trace::Recorder;

const KINDS: [&str; 6] =
    ["put.index", "put.plain", "index.build", "dataguide.agg", "imc.populate", "index.lookup"];
const PUT_INDEX: usize = 0;
const PUT_PLAIN: usize = 1;
const INDEX_BUILD: usize = 2;
const DATAGUIDE_AGG: usize = 3;
const IMC_POPULATE: usize = 4;
const INDEX_LOOKUP: usize = 5;

/// Every this-many-th document carries a field no earlier one had.
const NEW_FIELD_EVERY: usize = 50;
/// Documents per `put.*` latency sample: one `put` is too short to time.
pub const PUT_BATCH: usize = 100;
/// Probes per `index.lookup` sample, and samples per pass.
const LOOKUP_BATCH: usize = 100;
const LOOKUP_SAMPLES: usize = 10;

const INDEXED: &str = "c_idx";
const PLAIN: &str = "c_plain";
const AGG_SQL: &str = "select json_dataguideagg(jdoc) from c_plain";

/// `$DG` rows and indexed paths of the pinned run (`Scale::is_pinned`).
const PINNED_GUIDE_ROWS: usize = 1_112;
const PINNED_INDEX_PATHS: usize = 1_112;

/// One search-index probe.
#[derive(Debug, Clone)]
enum Lookup {
    Keyword { path: &'static str, keyword: String },
    Value { path: &'static str, value: String },
}

impl Lookup {
    fn run(&self, db: &FsdmDatabase) -> Result<Vec<u64>, String> {
        match self {
            Lookup::Keyword { path, keyword } => {
                db.text_contains(INDEXED, path, keyword).map_err(|e| e.to_string())
            }
            Lookup::Value { path, value } => {
                let index = db
                    .engine()
                    .table(INDEXED)
                    .and_then(|t| t.search_index.as_ref())
                    .ok_or("c_idx has no search index")?;
                Ok(index.docs_with_value(path, value))
            }
        }
    }

    /// The answer by scanning what the generator knows of every document.
    fn brute_force(&self, facts: &[NoBenchFacts]) -> Vec<u64> {
        let ids = |keep: &dyn Fn(usize, &NoBenchFacts) -> bool| {
            facts
                .iter()
                .enumerate()
                .filter(|(i, f)| keep(*i, f))
                .map(|(i, _)| i as u64)
                .collect::<Vec<u64>>()
        };
        let number = |value: &str| value.parse::<usize>().ok();
        match self {
            Lookup::Keyword { path: "$.str1", keyword } => ids(&|_, f| f.str1 == *keyword),
            Lookup::Keyword { keyword, .. } => ids(&|_, f| f.nested_arr.contains(keyword)),
            Lookup::Value { path: "$.num", value } => ids(&|i, _| Some(i) == number(value)),
            Lookup::Value { value, .. } => ids(&|i, _| Some(i % 1000) == number(value)),
        }
    }
}

fn lookups(corpus: &Corpus<NoBenchFacts>, seed: u64) -> Vec<Vec<Lookup>> {
    let mut rng = Rng::for_stream("ingest-lookups", seed);
    let mut sample = || {
        (0..LOOKUP_BATCH)
            .map(|k| {
                let doc = rng.index(corpus.facts.len());
                let facts = &corpus.facts[doc];
                match k % 4 {
                    0 => Lookup::Keyword {
                        path: "$.nested_arr",
                        keyword: facts.nested_arr[rng.index(facts.nested_arr.len())].clone(),
                    },
                    1 => Lookup::Keyword { path: "$.str1", keyword: facts.str1.clone() },
                    2 => Lookup::Value { path: "$.thousandth", value: (doc % 1000).to_string() },
                    _ => Lookup::Value { path: "$.num", value: doc.to_string() },
                }
            })
            .collect()
    };
    (0..LOOKUP_SAMPLES).map(|_| sample()).collect()
}

/// The `(o:path, type)` pairs of a flat-form DataGuide, in row order.
fn path_types(flat: &JsonValue) -> Vec<(Option<&str>, Option<&str>)> {
    fn column<'a>(row: &'a JsonValue, name: &str) -> Option<&'a str> {
        row.get(name)?.as_str()
    }
    flat.as_array()
        .map(|rows| rows.iter().map(|r| (column(r, "o:path"), column(r, "type"))).collect())
        .unwrap_or_default()
}

fn new_database() -> FsdmDatabase {
    let mut db = FsdmDatabase::new();
    db.engine_mut().set_parallelism(DEGREE);
    db
}

/// OSON storage, DataGuide on, search index attached while empty: every
/// `put` then pays parse, encode, signature, guide and postings.
fn create_indexed(db: &mut FsdmDatabase) -> Result<(), String> {
    db.create_collection(INDEXED, CollectionOptions::default()).map_err(|e| e.to_string())?;
    db.create_search_index(INDEXED).map_err(|e| e.to_string())
}

/// Text storage, IS JSON only.
fn create_plain(db: &mut FsdmDatabase) -> Result<(), String> {
    let options =
        CollectionOptions { storage: JsonStorage::Text, dataguide: false, validate: true };
    db.create_collection(PLAIN, options).map_err(|e| e.to_string())
}

/// `put` one batch; the ids must continue the collection's sequence.
fn put_batch(
    db: &mut FsdmDatabase,
    collection: &str,
    first_id: usize,
    docs: &[String],
) -> Result<(), String> {
    for (i, d) in docs.iter().enumerate() {
        let id = db.put(collection, d).map_err(|e| e.to_string())?;
        if id != (first_id + i) as u64 {
            return Err(format!("put returned id {id}, expected {}", first_id + i));
        }
    }
    Ok(())
}

/// What every pass must reproduce.
struct ExpectedIngest {
    guide_hash: u64,
    index_paths: usize,
    lookup_hashes: Vec<u64>,
}

pub struct IngestWorkload {
    corpus: Corpus<NoBenchFacts>,
    lookups: Vec<Vec<Lookup>>,
    expected: ExpectedIngest,
    probe: ProbeSpec,
    /// `storage_size()` of the two collections after the latest pass.
    stored: usize,
}

/// Time `f` as one sample of `kind`, under a span when tracing; a failure
/// is tallied against the operation.
fn timed(
    kind: usize,
    rec: &mut Option<&mut Recorder>,
    log: &mut PassLog,
    f: impl FnOnce() -> Result<(), String>,
) {
    let start = Instant::now();
    let out = match rec.as_deref_mut() {
        None => f(),
        Some(rec) => {
            rec.next_op();
            rec.span(KINDS[kind], |_| f())
        }
    };
    log.samples.push((kind, start.elapsed().as_nanos() as u64));
    log.tally.check(out.err().map(|e| format!("{}: {e}", KINDS[kind])));
}

impl IngestWorkload {
    fn run_pass(
        &mut self,
        mut rec: Option<&mut Recorder>,
        log: &mut PassLog,
    ) -> Result<(), String> {
        let mut db = new_database();
        create_indexed(&mut db)?;
        create_plain(&mut db)?;
        for (kind, collection) in [(PUT_INDEX, INDEXED), (PUT_PLAIN, PLAIN)] {
            for (b, batch) in self.corpus.docs.chunks(PUT_BATCH).enumerate() {
                timed(kind, &mut rec, log, || put_batch(&mut db, collection, b * PUT_BATCH, batch));
            }
        }

        timed(INDEX_BUILD, &mut rec, log, || {
            db.create_search_index(PLAIN).map_err(|e| e.to_string())
        });
        let built = db.engine().table(PLAIN).and_then(|t| t.search_index.as_ref());
        let paths = built.map(|ix| ix.path_count());
        log.tally.check((paths != Some(self.expected.index_paths)).then(|| {
            format!("index.build: {paths:?} paths, expected {}", self.expected.index_paths)
        }));

        let mut agg = None;
        timed(DATAGUIDE_AGG, &mut rec, log, || {
            agg = Some(db.sql(AGG_SQL).map_err(|e| e.to_string())?);
            Ok(())
        });
        let hash = agg
            .as_ref()
            .and_then(|r| r.rows.first()?.first()?.as_str())
            .map(|text| fnv1a(text.as_bytes()));
        log.tally.check((hash != Some(self.expected.guide_hash)).then(|| {
            "dataguide.agg: DataGuide differs from the one set-up aggregated".to_string()
        }));

        add_nbq_columns(db.engine_mut().table_mut(PLAIN).ok_or("no c_plain")?);
        timed(IMC_POPULATE, &mut rec, log, || {
            db.populate_oson_imc(PLAIN).map_err(|e| e.to_string())?;
            db.populate_vc_imc(PLAIN, &NBQ_COLUMNS).map_err(|e| e.to_string())
        });
        let imc = &db.engine().table(PLAIN).ok_or("no c_plain")?.imc;
        let resident = imc.vectors.len() == NBQ_COLUMNS.len() && imc.oson_bytes() > 0;
        log.tally.check((!resident).then(|| "imc.populate: vectors not resident".to_string()));

        for (sample, want) in self.lookups.iter().zip(&self.expected.lookup_hashes) {
            let mut ids = Vec::new();
            timed(INDEX_LOOKUP, &mut rec, log, || {
                for probe in sample {
                    ids.extend(probe.run(&db)?);
                }
                Ok(())
            });
            log.tally.check(
                (ids_fingerprint(&ids) != *want)
                    .then(|| "index.lookup: ids differ from the brute-force scan".to_string()),
            );
        }

        self.stored = [INDEXED, PLAIN]
            .iter()
            .filter_map(|c| db.engine().table(c))
            .map(|t| t.storage_size())
            .sum();
        Ok(())
    }
}

impl Workload for IngestWorkload {
    fn kinds(&self) -> &[&'static str] {
        &KINDS
    }

    fn pass(&mut self, rec: Option<&mut Recorder>, log: &mut PassLog) {
        if let Err(e) = self.run_pass(rec, log) {
            log.tally.check(Some(format!("pass aborted: {e}")));
        }
    }

    fn space(&self) -> (usize, usize) {
        // both collections ingest the whole corpus
        (self.stored, 2 * self.corpus.text_bytes())
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput { docs: &self.corpus.docs, spec: &self.probe }
    }

    fn plan_shape(&mut self) -> Result<PlanShape, String> {
        // json_dataguideagg is driven by the session, not the plan executor:
        // no statement of this workload is staged or profiled
        Ok(PlanShape::default())
    }

    fn corrupt_expected(&mut self) {
        self.expected.guide_hash ^= 1;
    }
}

/// Untimed checks on the reference collection set-up loaded.
fn oracle(
    reference: &FsdmDatabase,
    corpus: &Corpus<NoBenchFacts>,
    lookups: &[Vec<Lookup>],
    pinned: bool,
    tally: &mut Tally,
) -> Result<ExpectedIngest, String> {
    // get(put(x)) parses equal to x
    for (id, text) in corpus.docs.iter().enumerate().step_by(37) {
        let sent = fsdm_json::parse(text).map_err(|e| e.to_string())?;
        let stored = reference.get(INDEXED, id as u64).and_then(|t| fsdm_json::parse(&t).ok());
        let same = stored.is_some_and(|s| s.eq_unordered(&sent));
        tally.check((!same).then(|| format!("oracle: get(put(doc {id})) differs from doc {id}")));
    }

    // three ways to one DataGuide: maintained per put, built with the bulk
    // index, and aggregated by json_dataguideagg. The first two take the
    // structure-signature fast path and agree in every column; the aggregate
    // visits every document, so its statistics columns differ by design and
    // the comparison is on the (path, type) rows.
    let incremental = &reference.engine().table(INDEXED).ok_or("no c_idx")?.dataguide;
    let mut bulk_db = new_database();
    create_plain(&mut bulk_db)?;
    put_batch(&mut bulk_db, PLAIN, 0, &corpus.docs)?;
    bulk_db.create_search_index(PLAIN).map_err(|e| e.to_string())?;
    let agg = bulk_db.sql(AGG_SQL).map_err(|e| e.to_string())?;
    let bulk_index = bulk_db
        .engine()
        .table(PLAIN)
        .and_then(|t| t.search_index.as_ref())
        .ok_or("c_plain has no search index")?;
    tally.check(
        (incremental.rows() != bulk_index.dataguide().rows())
            .then(|| "oracle: bulk-index $DG rows differ from the incremental ones".to_string()),
    );
    let agg_text = agg.rows.first().and_then(|r| r.first()?.as_str()).unwrap_or_default();
    let agg_rows = fsdm_json::parse(agg_text).map_err(|e| e.to_string())?;
    let incremental_rows = to_flat_json(incremental);
    tally.check(
        (path_types(&agg_rows) != path_types(&incremental_rows))
            .then(|| "oracle: json_dataguideagg rows differ from the incremental $DG".to_string()),
    );
    if pinned {
        let got = (incremental.rows().len(), bulk_index.path_count());
        tally.check((got != (PINNED_GUIDE_ROWS, PINNED_INDEX_PATHS)).then(|| {
            format!(
                "oracle: {got:?} ($DG rows, indexed paths), pinned for seed 42: {:?}",
                (PINNED_GUIDE_ROWS, PINNED_INDEX_PATHS)
            )
        }));
    }

    // every probe of the pass against a brute-force scan
    let mut lookup_hashes = Vec::new();
    for sample in lookups {
        let mut all = Vec::new();
        for probe in sample {
            let want = probe.brute_force(&corpus.facts);
            let got = probe.run(reference)?;
            tally.check((got != want).then(|| format!("oracle: {probe:?}: {got:?} vs {want:?}")));
            all.extend(want);
        }
        lookup_hashes.push(ids_fingerprint(&all));
    }
    Ok(ExpectedIngest {
        guide_hash: fnv1a(agg_text.as_bytes()),
        index_paths: bulk_index.path_count(),
        lookup_hashes,
    })
}

/// Set-up generates the corpus and loads the reference collection the
/// oracle and the expected outputs come from.
pub fn setup_ingest(seed: u64, scale: Scale) -> Result<Ready, String> {
    let ((corpus, reference), setup_s) = timed_setups(|| {
        let corpus = ingest_corpus(seed, scale.ingest_docs, NEW_FIELD_EVERY);
        let mut reference = new_database();
        create_indexed(&mut reference)?;
        put_batch(&mut reference, INDEXED, 0, &corpus.docs)?;
        Ok((corpus, reference))
    })?;
    let lookups = lookups(&corpus, seed);
    let mut tally = Tally::default();
    let expected = oracle(&reference, &corpus, &lookups, scale.is_pinned(seed), &mut tally)?;
    drop(reference);
    let workload =
        IngestWorkload { probe: nobench_probe(&corpus), corpus, lookups, expected, stored: 0 };
    Ok(Ready { workload: Box::new(workload), setup_s, imc_populate_ms: None, oracle: tally })
}
