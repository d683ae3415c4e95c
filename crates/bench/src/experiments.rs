//! Experiment runners: one function per table/figure of the paper.

use std::time::Duration;

use fsdm_dataguide::views::create_view_on_path;
use fsdm_dataguide::DataGuide;
use fsdm_json::{JsonValue, ValueDom};
use fsdm_oson::{OsonDoc, OsonSet, SegmentStats};
use fsdm_sqljson::{parse_path, Datum, PathEvaluator};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    ColType, ColumnSpec, ConstraintMode, JsonStorage, QueryResult, Table, TableSchema,
};
use fsdm_workloads::{generate, nobench, rng_for, Collection};

use crate::setup::{
    add_nobench_vcs, bind_datum, nobench_db, nobench_q11_plan, nobench_q5_bind, olap_corpus,
    olap_db, olap_queries, storage_size, StorageMethod,
};
use crate::time_best;

/// Table 10 row: average encoded sizes per collection.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Collection name.
    pub collection: &'static str,
    /// Documents measured.
    pub docs: usize,
    /// Average compact JSON text bytes.
    pub json: usize,
    /// Average BSON bytes.
    pub bson: usize,
    /// Average OSON bytes.
    pub oson: usize,
}

/// Table 11 row: OSON segment shares.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Collection name.
    pub collection: &'static str,
    /// Field-id-name dictionary share (%).
    pub dict_pct: f64,
    /// Tree-node navigation share (%).
    pub tree_pct: f64,
    /// Leaf-scalar-value share (%).
    pub value_pct: f64,
}

/// Table 12 row: DataGuide statistics.
#[derive(Debug, Clone)]
pub struct GuideRow {
    /// Collection name.
    pub collection: &'static str,
    /// `$DG` row count.
    pub distinct_paths: usize,
    /// Root-to-leaf scalar paths (DMDV column count).
    pub dmdv_columns: usize,
    /// DMDV rows ÷ document count.
    pub fan_out: f64,
}

/// Generate a collection's corpus (few documents for the giant archives).
pub fn corpus_for(c: Collection, scale: usize) -> Vec<JsonValue> {
    let count = match c {
        Collection::TwitterMsgArchive => 2,
        Collection::SensorData => 1,
        _ => scale,
    };
    let mut rng = rng_for(c.name(), 2024);
    (0..count).map(|i| generate(c, &mut rng, i)).collect()
}

/// Tables 10 + 11 in one pass over the twelve collections.
pub fn run_size_stats(scale: usize) -> (Vec<SizeRow>, Vec<SegmentRow>) {
    let mut sizes = Vec::new();
    let mut segments = Vec::new();
    for c in Collection::ALL {
        let docs = corpus_for(c, scale);
        let mut tj = 0usize;
        let mut tb = 0usize;
        let mut to = 0usize;
        let (mut dp, mut tp, mut vp) = (0.0f64, 0.0f64, 0.0f64);
        for d in &docs {
            let text = fsdm_json::to_string(d);
            tj += text.len();
            tb += fsdm_bson::encode(d).map(|b| b.len()).unwrap_or(0);
            let oson = fsdm_oson::encode(d).unwrap();
            to += oson.len();
            let st = SegmentStats::of(&oson).unwrap();
            dp += st.dictionary_ratio();
            tp += st.tree_ratio();
            vp += st.values_ratio();
        }
        let n = docs.len();
        sizes.push(SizeRow {
            collection: c.name(),
            docs: n,
            json: tj / n,
            bson: tb / n,
            oson: to / n,
        });
        segments.push(SegmentRow {
            collection: c.name(),
            dict_pct: dp / n as f64 * 100.0,
            tree_pct: tp / n as f64 * 100.0,
            value_pct: vp / n as f64 * 100.0,
        });
    }
    (sizes, segments)
}

/// Table 12: DataGuide statistics per collection.
pub fn run_guide_stats(scale: usize) -> Vec<GuideRow> {
    let mut out = Vec::new();
    for c in Collection::ALL {
        let docs = corpus_for(c, scale);
        let mut guide = DataGuide::new();
        for d in &docs {
            guide.add_document(d);
        }
        let view = create_view_on_path(&guide, "$", "J", "V", 0, &Default::default())
            .expect("non-empty guide");
        let mut rows = 0usize;
        for d in &docs {
            let dom = ValueDom::new(d);
            rows += view.table_def.rows(&dom).len();
        }
        out.push(GuideRow {
            collection: c.name(),
            distinct_paths: guide.distinct_paths(),
            dmdv_columns: guide.leaf_paths(),
            fan_out: rows as f64 / docs.len() as f64,
        });
    }
    out
}

/// Figure 3 cell: one query's time under one storage method.
#[derive(Debug, Clone)]
pub struct OlapCell {
    /// Query id (1..=9).
    pub query: usize,
    /// Storage method.
    pub method: StorageMethod,
    /// Best-of-runs execution time.
    pub time: Duration,
    /// Result row count (sanity: equal across methods).
    pub rows: usize,
}

/// Figure 3: the nine OLAP queries across the four storages.
/// Figure 4 falls out of the same setup via [`storage_size`].
pub fn run_olap(n: usize, reps: usize) -> (Vec<OlapCell>, Vec<(StorageMethod, usize)>) {
    let queries = olap_queries(n);
    let mut cells = Vec::new();
    let mut sizes = Vec::new();
    for method in StorageMethod::ALL {
        let mut session = olap_db(method, n);
        sizes.push((method, storage_size(&session, method)));
        for q in &queries {
            let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
            let mut rows = 0usize;
            let time = time_best(
                || {
                    rows = session.execute_with(&q.sql, &binds).unwrap().rows.len();
                },
                1,
                reps,
            );
            cells.push(OlapCell { query: q.id, method, time, rows });
        }
    }
    (cells, sizes)
}

/// Figure 5/6 cell: one NOBENCH query in one execution mode.
#[derive(Debug, Clone)]
pub struct NobenchCell {
    /// Query id (1..=11).
    pub query: usize,
    /// Mode label ("TEXT", "OSON-IMC", "VC-IMC").
    pub mode: &'static str,
    /// Best-of-runs execution time.
    pub time: Duration,
    /// Result row count.
    pub rows: usize,
    /// FNV-1a hash of the result's `Debug` rows: two modes that answered
    /// alike hash alike.
    pub hash: u64,
}

/// The 64-bit FNV-1a hash of what is written to it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// The cell of query `q` in `mode`: the best of `reps` runs of `run`,
/// with the answer of the last.
fn nobench_cell(
    q: usize,
    mode: &'static str,
    reps: usize,
    mut run: impl FnMut() -> QueryResult,
) -> NobenchCell {
    let mut last = None;
    let time = time_best(|| last = Some(run()), 1, reps);
    let rows = last.expect("time_best runs at least once").rows;
    let mut fnv = Fnv(0xcbf29ce484222325);
    std::fmt::Write::write_fmt(&mut fnv, format_args!("{rows:?}")).expect("hashing cannot fail");
    NobenchCell { query: q, mode, time, rows: rows.len(), hash: fnv.0 }
}

/// Figures 5 and 6: the eleven NOBENCH queries under TEXT-MODE and
/// OSON-IMC-MODE, plus the four VC queries under VC-IMC-MODE, each
/// answering what its OSON-IMC statement answers.
pub fn run_nobench(n: usize, reps: usize) -> Vec<NobenchCell> {
    let mut session = nobench_db(n);
    let q5_bind = nobench_q5_bind(n);
    let mut cells = Vec::new();
    let run_all =
        |session: &mut fsdm_sql::Session, mode: &'static str, cells: &mut Vec<NobenchCell>| {
            for q in 1..=11usize {
                cells.push(if q == 11 {
                    let plan = nobench_q11_plan(n, false);
                    nobench_cell(q, mode, reps, || session.db.execute(&plan).unwrap())
                } else {
                    let sql = nobench::query_sql(q, n);
                    let binds = if q == 5 { vec![q5_bind.clone()] } else { vec![] };
                    nobench_cell(q, mode, reps, || session.execute_with(&sql, &binds).unwrap())
                });
            }
        };
    run_all(&mut session, "TEXT", &mut cells);
    session.db.table_mut("nobench").unwrap().populate_oson_imc().unwrap();
    run_all(&mut session, "OSON-IMC", &mut cells);
    // Figure 6: the VC queries against materialized columns
    add_nobench_vcs(&mut session);
    session
        .db
        .table_mut("nobench")
        .unwrap()
        .populate_vc_imc(&["nb$str1", "nb$num", "nb$dyn1"])
        .unwrap();
    let lo = n / 2;
    let hi = lo + n / 10;
    let vc_sql: [(usize, String); 3] = [
        (6, format!("select \"nb$num\" from nobench where \"nb$num\" between {lo} and {hi}")),
        // Q7 projects `$.dyn1` as text, which `nb$dyn1` (a number) is not
        (
            7,
            format!(
                "select json_value(jdoc, '$.dyn1') from nobench \
                 where \"nb$dyn1\" between {lo} and {hi}"
            ),
        ),
        (
            10,
            format!(
                "select json_value(jdoc, '$.thousandth' returning number), count(*) from nobench \
             where \"nb$num\" between {lo} and {hi} \
             group by json_value(jdoc, '$.thousandth' returning number)"
            ),
        ),
    ];
    for (q, sql) in &vc_sql {
        cells.push(nobench_cell(*q, "VC-IMC", reps, || session.execute(sql).unwrap()));
    }
    let plan = nobench_q11_plan(n, true);
    cells.push(nobench_cell(11, "VC-IMC", reps, || session.db.execute(&plan).unwrap()));
    cells
}

/// Figure 7/8 result: insert time per mode.
#[derive(Debug, Clone)]
pub struct InsertCell {
    /// Mode label.
    pub mode: &'static str,
    /// Wall time to insert the batch.
    pub time: Duration,
    /// Documents inserted.
    pub docs: usize,
}

fn insert_batch(mode: ConstraintMode, docs: &[String]) -> Duration {
    let mut t = Table::new(TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, mode),
        ],
    ));
    let start = std::time::Instant::now();
    for (i, d) in docs.iter().enumerate() {
        t.insert(vec![(i as i64).into(), InsertValue::Json(d.clone())]).unwrap();
    }
    start.elapsed()
}

/// Figure 7: insert 10 000 structurally identical documents in the three
/// constraint modes.
pub fn run_insertion_modes(n: usize) -> Vec<InsertCell> {
    let mut rng = rng_for("fig7", 3);
    // identical structure: only values vary
    let docs: Vec<String> = (0..n)
        .map(|i| {
            let d = nobench::doc(&mut rng, 0); // fixed cluster => same shape
            let mut d = d;
            if let Some(o) = d.as_object_mut() {
                o.insert("num", JsonValue::from(i as i64));
            }
            fsdm_json::to_string(&d)
        })
        .collect();
    vec![
        InsertCell {
            mode: "no-json-constraint",
            time: insert_batch(ConstraintMode::None, &docs),
            docs: n,
        },
        InsertCell {
            mode: "json-constraint",
            time: insert_batch(ConstraintMode::IsJson, &docs),
            docs: n,
        },
        InsertCell {
            mode: "json-constraint-dataguide",
            time: insert_batch(ConstraintMode::IsJsonWithDataGuide, &docs),
            docs: n,
        },
    ]
}

/// Figure 8: homogeneous vs heterogeneous inserts with DataGuide on.
pub fn run_homo_hetero(n: usize) -> Vec<InsertCell> {
    let mut rng = rng_for("fig8", 4);
    let homo: Vec<String> =
        (0..n).map(|_| fsdm_json::to_string(&nobench::doc(&mut rng, 0))).collect();
    let hetero: Vec<String> = (0..n)
        .map(|i| {
            let mut d = nobench::doc(&mut rng, 0);
            if let Some(o) = d.as_object_mut() {
                // every document contributes one brand-new path
                o.push(format!("unique_field_{i}"), JsonValue::from(i as i64));
            }
            fsdm_json::to_string(&d)
        })
        .collect();
    vec![
        InsertCell {
            mode: "homo",
            time: insert_batch(ConstraintMode::IsJsonWithDataGuide, &homo),
            docs: n,
        },
        InsertCell {
            mode: "hetero",
            time: insert_batch(ConstraintMode::IsJsonWithDataGuide, &hetero),
            docs: n,
        },
    ]
}

/// Figure 9 result: transient aggregation at each sampling rate plus
/// persistent index creation.
#[derive(Debug, Clone)]
pub struct AggCell {
    /// Label ("sample 25%", …, "persistent index").
    pub label: String,
    /// Wall time.
    pub time: Duration,
}

/// Figure 9: `JSON_DATAGUIDEAGG` at 25/50/75/99 % sampling vs creating
/// the JSON search index (which computes the persistent DataGuide).
pub fn run_transient_vs_persistent(n: usize) -> Vec<AggCell> {
    let mut session = nobench_db(n);
    let mut out = Vec::new();
    for pct in [25.0, 50.0, 75.0, 99.0] {
        let sql = format!("select json_dataguideagg(jdoc) from nobench sample ({pct})");
        let time = time_best(
            || {
                session.execute(&sql).unwrap();
            },
            0,
            1,
        );
        out.push(AggCell { label: format!("transient sample {pct}%"), time });
    }
    let t = std::time::Instant::now();
    session.db.table_mut("nobench").unwrap().create_search_index().unwrap();
    out.push(AggCell { label: "persistent index creation".to_string(), time: t.elapsed() });
    out
}

/// One design-choice ablation: the same work with the mechanism on and
/// with it off.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The mechanism, with the paper section that describes it.
    pub label: &'static str,
    /// Unit of `on` and `off`.
    pub unit: &'static str,
    /// Cost with the mechanism.
    pub on: f64,
    /// Cost without it.
    pub off: f64,
}

/// The design-choice ablations EXPERIMENTS.md quotes, over `n`
/// purchaseOrders: the §6.3 `JSON_EXISTS` pushdown, the §4.2.1 field-id
/// look-back cache, and the §7 set encoding's memory.
pub fn run_ablations(n: usize, reps: usize) -> Vec<AblationRow> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    // a selective DMDV filter, planned once, run with and without the
    // optimizer's rewrite
    let session = olap_db(StorageMethod::Oson, n);
    let sql = "select count(*) from po_item_dmdv where partno = 'no-such-part'";
    let plan = session.plan(sql, &[]).expect("ablation query plans");
    let optimized = fsdm_store::optimizer::optimize(&session.db, plan.clone());
    let run_plan = |p: &fsdm_store::Query| {
        let run = || {
            session.db.execute_unoptimized(p).expect("ablation query executes");
        };
        ms(time_best(run, 1, reps))
    };
    let pushdown = AblationRow {
        label: "§6.3 JSON_EXISTS pushdown",
        unit: "ms",
        on: run_plan(&optimized),
        off: run_plan(&plan),
    };

    // one path over every document: an evaluator shared across documents
    // resolves field ids from its look-back cache, a fresh one per
    // document resolves them again
    let docs = olap_corpus(n);
    let encoded: Vec<Vec<u8>> = docs.iter().map(|d| fsdm_oson::encode(d).unwrap()).collect();
    let path = parse_path("$.purchaseOrder.items[*].unitprice").unwrap();
    let mut shared = PathEvaluator::new(path.clone());
    let mut scan = |fresh: bool| {
        let pass = || {
            for bytes in &encoded {
                let doc = OsonDoc::new(bytes).unwrap();
                let hits = if fresh {
                    PathEvaluator::new(path.clone()).evaluate(&doc).len()
                } else {
                    shared.evaluate(&doc).len()
                };
                std::hint::black_box(hits);
            }
        };
        ms(time_best(pass, 1, reps))
    };
    let lookback = AblationRow {
        label: "§4.2.1 look-back cache (shared evaluator)",
        unit: "ms",
        on: scan(false),
        off: scan(true),
    };

    // one dictionary for the whole set against one per instance: the
    // heap bytes each holds, the buffers' entries included
    let per_instance = encoded.capacity() * std::mem::size_of::<Vec<u8>>()
        + encoded.iter().map(Vec::capacity).sum::<usize>();
    let mut set = OsonSet::new();
    for d in &docs {
        set.push(d).expect("set encodes");
    }
    for i in 0..set.len() {
        set.doc(i).and_then(|doc| doc.validate()).expect("set member validates");
    }
    let set_encoding = AblationRow {
        label: "§7 set encoding (shared dictionary)",
        unit: "bytes",
        on: set.heap_size() as f64,
        off: per_instance as f64,
    };
    vec![pushdown, lookback, set_encoding]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_stats_shapes_match_paper() {
        let (sizes, segments) = run_size_stats(40);
        assert_eq!(sizes.len(), 12);
        let by_name = |n: &str| sizes.iter().find(|r| r.collection == n).unwrap();
        // small docs: formats are within ~2x of each other
        let po = by_name("purchaseOrder");
        assert!(po.oson < po.json * 2 && po.json < po.oson * 2);
        // the archive compresses markedly under OSON (repeated names)
        let ar = by_name("TwitterMsgArchive");
        assert!(
            (ar.oson as f64) < ar.json as f64 * 0.75,
            "archive OSON {} vs JSON {}",
            ar.oson,
            ar.json
        );
        // dictionary share: large for LoanNotes, negligible for archives
        let seg = |n: &str| segments.iter().find(|r| r.collection == n).unwrap();
        assert!(seg("LoanNotes").dict_pct > 35.0);
        assert!(seg("TwitterMsgArchive").dict_pct < 2.0);
        assert!(seg("SensorData").tree_pct > 50.0);
        assert!(seg("YCSBDoc").value_pct > 60.0);
    }

    #[test]
    fn guide_stats_reasonable() {
        let rows = run_guide_stats(40);
        let g = |n: &str| rows.iter().find(|r| r.collection == n).unwrap();
        assert!(g("NOBENCHDoc").distinct_paths > 350, "sparse universe at scale 40");
        assert_eq!(g("YCSBDoc").distinct_paths, 11);
        assert!(g("purchaseOrder").fan_out > 3.0);
        assert!(g("SensorData").fan_out > 10_000.0);
        for r in &rows {
            assert!(r.dmdv_columns <= r.distinct_paths, "{}", r.collection);
        }
    }

    #[test]
    fn olap_runs_small() {
        let (cells, sizes) = run_olap(60, 1);
        assert_eq!(cells.len(), 9 * 4);
        assert_eq!(sizes.len(), 4);
        // row counts agree across methods per query
        for q in 1..=9 {
            let counts: Vec<usize> =
                cells.iter().filter(|c| c.query == q).map(|c| c.rows).collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "Q{q}: {counts:?}");
        }
    }

    #[test]
    fn nobench_runs_small() {
        let cells = run_nobench(300, 1);
        // 11 TEXT + 11 OSON-IMC + 4 VC-IMC
        assert_eq!(cells.len(), 26);
        for q in 1..=11 {
            let text = cells.iter().find(|c| c.query == q && c.mode == "TEXT").unwrap();
            let oson = cells.iter().find(|c| c.query == q && c.mode == "OSON-IMC").unwrap();
            assert_eq!(text.rows, oson.rows, "Q{q}");
        }
    }

    #[test]
    fn insertion_modes_ordered() {
        let cells = run_insertion_modes(800);
        assert_eq!(cells.len(), 3);
        // constraint adds cost over no-constraint; dataguide adds over
        // constraint (allowing generous noise at this tiny scale)
        assert!(cells[0].time <= cells[2].time * 3);
    }

    #[test]
    fn transient_vs_persistent_runs() {
        let cells = run_transient_vs_persistent(400);
        assert_eq!(cells.len(), 5);
    }

    #[test]
    fn ablations_run_small() {
        let rows = run_ablations(60, 1);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.on > 0.0 && r.off > 0.0), "{rows:?}");
        // the shared dictionary must be the smaller encoding
        assert!(rows[2].on < rows[2].off, "{:?}", rows[2]);
    }
}
