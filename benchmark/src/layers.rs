//! Per-layer probes of a traced run: each layer's public functions timed
//! from outside over the workload's own corpus, and the stage-by-stage
//! replay of `put` into an indexed collection.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fsdm_dataguide::{structure_signature, DataGuide};
use fsdm_index::SearchIndex;
use fsdm_obs::catalog;
use fsdm_oson::OsonDoc;
use fsdm_sqljson::{parse_path, streaming, PathEvaluator};
use fsdm_store::JsonCell;

use crate::harness::ProbeInput;
use crate::stats::median;

/// Documents probed: the whole `ingest.index` corpus, a quarter of NOBENCH.
pub const PROBE_DOCS: usize = 5_000;
const REPS: usize = 3;

/// Median over the repetitions, per document unless said otherwise.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub docs: usize,
    pub json_parse_us: f64,
    pub json_parse_mb_s: f64,
    pub oson_encode_us: f64,
    pub oson_decode_us: f64,
    pub signature_us: f64,
    /// Per document the signature fast path did not skip.
    pub guide_add_us: f64,
    /// Share of documents whose structure had been seen.
    pub guide_fast_path_ratio: f64,
    pub index_insert_us: f64,
    /// Exact count.
    pub index_postings_per_doc: f64,
    /// Per keyword probe.
    pub index_lookup_us: f64,
    /// Mean of a path most documents have and one none has.
    pub stream_us: f64,
    pub oson_eval_us: f64,
    pub lookback_hit_ratio: f64,
    pub json_table_us: f64,
    /// The five `put` stages summed: what one indexed `put` should cost.
    pub put_replay_us: f64,
}

/// Accumulated nanoseconds of the five stages of one indexed `put`.
#[derive(Debug, Default, Clone, Copy)]
struct PutStages {
    parse: u64,
    encode: u64,
    signature: u64,
    guide_add: u64,
    guide_added: u64,
    index_insert: u64,
}

fn lap(start: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*start).as_nanos() as u64;
    *start = now;
    ns
}

/// One replay: the stage times, and what it built for the other probes.
struct Replay {
    stages: PutStages,
    encoded: Vec<Arc<Vec<u8>>>,
    index: SearchIndex,
}

/// What `Table::insert` does for an OSON collection with DataGuide and
/// search index, one public call at a time, documents in arrival order.
fn replay_put(docs: &[String]) -> Result<Replay, String> {
    let mut stages = PutStages::default();
    let mut encoded = Vec::with_capacity(docs.len());
    let mut seen = HashSet::new();
    let mut guide = DataGuide::new();
    let mut index = SearchIndex::new();
    for (id, text) in docs.iter().enumerate() {
        let mut t = Instant::now();
        let doc = fsdm_json::parse(text).map_err(|e| e.to_string())?;
        stages.parse += lap(&mut t);
        let bytes = fsdm_oson::encode(&doc).map_err(|e| e.to_string())?;
        stages.encode += lap(&mut t);
        let new_structure = seen.insert(structure_signature(&doc));
        stages.signature += lap(&mut t);
        if new_structure {
            guide.add_document(&doc);
            stages.guide_add += lap(&mut t);
            stages.guide_added += 1;
        }
        index.insert(id as u64, &doc);
        stages.index_insert += lap(&mut t);
        encoded.push(Arc::new(bytes));
    }
    black_box(&guide);
    Ok(Replay { stages, encoded, index })
}

fn counter(name: &str) -> u64 {
    fsdm_obs::snapshot().counter(name)
}

/// Run every probe `REPS` times over the first `PROBE_DOCS` documents.
pub fn probe(input: &ProbeInput<'_>) -> Result<LayerTimes, String> {
    let docs = &input.docs[..input.docs.len().min(PROBE_DOCS)];
    let n = docs.len() as f64;
    let bytes: usize = docs.iter().map(String::len).sum();
    let spec = input.spec;
    let hit = parse_path(spec.hit_path).map_err(|e| e.message)?;
    let miss = parse_path(spec.miss_path).map_err(|e| e.message)?;
    let per_doc_us = |samples: &[u64]| {
        median(&samples.iter().map(|ns| *ns as f64 / 1e3 / n).collect::<Vec<_>>())
    };

    let mut out = LayerTimes { docs: docs.len(), ..LayerTimes::default() };
    let mut stage_runs = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let (postings, inserted) =
            (counter(catalog::INDEX_POSTINGS_ADDED), counter(catalog::INDEX_INSERT_DOCS));
        let Replay { stages, encoded, index } = replay_put(docs)?;
        out.index_postings_per_doc = (counter(catalog::INDEX_POSTINGS_ADDED) - postings) as f64
            / (counter(catalog::INDEX_INSERT_DOCS) - inserted) as f64;
        stage_runs.push(stages);
        last = Some((encoded, index));
    }
    let (encoded, index) = last.expect("REPS > 0");
    let stage =
        |f: fn(&PutStages) -> u64| per_doc_us(&stage_runs.iter().map(f).collect::<Vec<_>>());
    out.json_parse_us = stage(|s| s.parse);
    out.json_parse_mb_s = bytes as f64 / n / out.json_parse_us;
    out.oson_encode_us = stage(|s| s.encode);
    out.signature_us = stage(|s| s.signature);
    out.index_insert_us = stage(|s| s.index_insert);
    let added = stage_runs[0].guide_added as f64;
    out.guide_add_us = stage(|s| s.guide_add) * n / added;
    out.guide_fast_path_ratio = 1.0 - added / n;
    out.put_replay_us = stage(|s| s.parse + s.encode + s.signature + s.guide_add + s.index_insert);

    let time_all = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let mut runs = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            f()?;
            runs.push(start.elapsed().as_nanos() as u64);
        }
        Ok(per_doc_us(&runs))
    };

    out.oson_decode_us = time_all(&mut || {
        for b in &encoded {
            black_box(fsdm_oson::decode(b).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    let stream_hit = time_all(&mut || {
        for d in docs {
            black_box(streaming::eval_text(d, &hit).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    let stream_miss = time_all(&mut || {
        for d in docs {
            black_box(streaming::eval_text(d, &miss).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    out.stream_us = (stream_hit + stream_miss) / 2.0;

    let (hits, misses) =
        (counter(catalog::SQLJSON_LOOKBACK_HIT), counter(catalog::SQLJSON_LOOKBACK_MISS));
    out.oson_eval_us = time_all(&mut || {
        // one evaluator across documents, as a scan holds one per worker
        let mut evaluator = PathEvaluator::new(hit.clone());
        for b in &encoded {
            let doc = OsonDoc::new(b).map_err(|e| e.to_string())?;
            black_box(evaluator.evaluate(&doc));
        }
        Ok(())
    })?;
    let hits = counter(catalog::SQLJSON_LOOKBACK_HIT) - hits;
    let misses = counter(catalog::SQLJSON_LOOKBACK_MISS) - misses;
    out.lookback_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    out.json_table_us = time_all(&mut || {
        for b in &encoded {
            black_box(JsonCell::Oson(b.clone()).json_table_rows(&spec.table_def));
        }
        Ok(())
    })?;

    let mut found = 0;
    let lookup_us = time_all(&mut || {
        found = 0;
        for k in &spec.keywords {
            found += index.docs_text_contains(spec.keyword_path, k).len();
        }
        Ok(())
    })?;
    if found == 0 {
        return Err(format!("no {} keyword found in the probe index", spec.keyword_path));
    }
    out.index_lookup_us = lookup_us * n / spec.keywords.len() as f64;
    Ok(out)
}
