//! A written database answers as a freshly loaded one. Inserts and
//! in-place updates (`Table::set_json_cell`) reach the persistent
//! DataGuide, the search index and the IMC through one write step, so
//! after any sequence of writes and IMC populations every statement, every
//! index lookup and the `$DG` agree with a database bulk-loaded from the
//! final documents (the `$DG` may hold more: it only grows).

use std::collections::BTreeSet;
use std::sync::Arc;

use fsdm::json::{field_hash, JsonDom, JsonValue};
use fsdm::oson::{OsonDoc, UpdateOutcome};
use fsdm::sql::Session;
use fsdm::sqljson::{parse_path, Datum};
use fsdm::store::optimizer::optimize;
use fsdm::store::query::AggSpec;
use fsdm::store::{
    Cell, ColType, ColumnSpec, ConstraintMode, Expr, InsertValue, JsonCell, JsonStorage, Query,
    Table, TableSchema,
};
use fsdm::{CollectionOptions, FsdmDatabase};
use fsdm_bench::setup::{add_nobench_columnar_vcs, nobench_q11_plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `count(*)` of the rows of `c` that hold `path`.
fn count_holding(path: &str) -> Query {
    let holds = Expr::json_exists(1, parse_path(path).unwrap());
    Query::scan_where("c", holds).group_by(vec![], vec![AggSpec::count_star("n")])
}

#[test]
fn an_update_reaches_the_guide_and_the_index() {
    let mut db = FsdmDatabase::new();
    db.create_collection("c", CollectionOptions::default()).unwrap();
    db.put("c", r#"{"a":1}"#).unwrap();
    db.put("c", r#"{"a":2}"#).unwrap();
    db.create_search_index("c").unwrap();
    let b = fsdm::oson::encode(&fsdm::json::parse(r#"{"b":"x"}"#).unwrap()).unwrap();
    let table = db.engine_mut().table_mut("c").unwrap();
    table.set_json_cell(0, 1, JsonCell::Oson(Arc::new(b))).unwrap();

    let one = vec![vec![Datum::from(1i64)]];
    let sql = db.sql("select count(*) from c where json_exists(jdoc, '$.b')").unwrap();
    assert_eq!(sql.rows, one, "optimized SQL");
    let engine = db.engine();
    assert_eq!(engine.execute(&count_holding("$.b")).unwrap().rows, one, "optimized");
    assert_eq!(engine.execute_unoptimized(&count_holding("$.b")).unwrap().rows, one);
    let value = db.sql("select json_value(jdoc, '$.b') from c where did = 0").unwrap();
    assert_eq!(value.rows, vec![vec![Datum::from("x")]]);

    let ix = db.engine().table("c").unwrap().search_index.as_ref().unwrap();
    assert_eq!(ix.docs_with_path("$.b"), vec![0]);
    assert_eq!(ix.docs_with_path("$.a"), vec![1]);
    assert_eq!(ix.docs_with_value("$.b", "x"), vec![0]);

    // dead-path pruning still fires, and only for a path no document held
    let engine = db.engine();
    let dead = optimize(engine, count_holding("$.never")).render();
    assert!(dead.contains("pred=false"), "{dead}");
    assert_eq!(engine.execute(&count_holding("$.never")).unwrap().rows, vec![vec![0i64.into()]]);
    for live in ["$.a", "$.b"] {
        let plan = optimize(engine, count_holding(live)).render();
        assert!(!plan.contains("pred=false"), "{live}: {plan}");
    }
}

/// A path only whole-document updates write.
const UPDATED_ONLY: &str = "upd_only";

/// The written database: a NOBENCH table `nobench (did, jdoc)` over
/// `storage` with a DataGuide, and the generator of its documents.
struct Written {
    session: Session,
    storage: JsonStorage,
    rng: StdRng,
    docs: StdRng,
    next: usize,
}

impl Written {
    fn new(storage: JsonStorage, seed: u64) -> Self {
        let mut session = Session::new();
        session.db.add_table(nobench_table(storage));
        let docs = fsdm::workloads::rng_for("nobench", seed);
        Written { session, storage, rng: StdRng::seed_from_u64(seed), docs, next: 0 }
    }

    fn table(&mut self) -> &mut Table {
        self.session.db.table_mut("nobench").unwrap()
    }

    fn put(&mut self) {
        let doc = fsdm::workloads::nobench::doc(&mut self.docs, self.next);
        let row = vec![(self.next as i64).into(), InsertValue::Json(fsdm::json::to_string(&doc))];
        assert_eq!(self.table().insert(row), Ok(self.next));
        self.next += 1;
    }

    /// Replace a random row's document with a new one that carries
    /// [`UPDATED_ONLY`], encoded whole.
    fn update_whole(&mut self) {
        let row = self.rng.gen_range(0..self.next);
        let k = self.rng.gen_range(0..self.next);
        let mut doc = fsdm::workloads::nobench::doc(&mut self.docs, k);
        doc.as_object_mut().unwrap().push(UPDATED_ONLY, JsonValue::from(row as i64));
        self.store(row, &doc);
    }

    /// Set a random row's `$.num` to another number: in place over OSON
    /// when the new value fits its slot, else by re-encoding the document.
    fn update_leaf(&mut self) {
        let row = self.rng.gen_range(0..self.next);
        let num = JsonValue::from(self.rng.gen_range(0..self.next) as i64);
        let Cell::J(cell) = self.table().rows()[row][1].clone() else { panic!("a JSON cell") };
        if let JsonCell::Oson(bytes) = &cell {
            let mut buf = bytes.as_ref().clone();
            let doc = OsonDoc::new(&buf).unwrap();
            let at = doc.get_field(doc.root(), "num", field_hash("num")).unwrap();
            if fsdm::oson::update_scalar(&mut buf, at, &num).unwrap() == UpdateOutcome::Updated {
                self.table().set_json_cell(row, 1, JsonCell::Oson(Arc::new(buf))).unwrap();
                return;
            }
        }
        let mut doc = cell.decode().unwrap();
        *doc.as_object_mut().unwrap().get_mut("num").unwrap() = num;
        self.store(row, &doc);
    }

    fn store(&mut self, row: usize, doc: &JsonValue) {
        let mut encoder = fsdm::oson::Encoder::new();
        let cell = JsonCell::encode(doc, self.storage, &mut encoder).unwrap();
        self.table().set_json_cell(row, 1, cell).unwrap();
    }

    fn populate_vectors(&mut self) {
        add_nobench_columnar_vcs(&mut self.session);
    }

    /// A seeded sequence of puts, updates of both kinds and IMC
    /// populations, with the search index built a quarter of the way in.
    fn run(&mut self, steps: usize) {
        for step in 0..steps {
            if step == steps / 4 {
                self.table().create_search_index().unwrap();
            }
            match if self.next < 8 { 0 } else { self.rng.gen_range(0..20) } {
                0..=9 => self.put(),
                10..=12 => self.update_whole(),
                13..=15 => self.update_leaf(),
                16 | 17 => self.table().populate_oson_imc().unwrap(),
                _ => self.populate_vectors(),
            }
        }
    }
}

fn nobench_table(storage: JsonStorage) -> Table {
    Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", storage, ConstraintMode::IsJsonWithDataGuide),
        ],
    ))
}

/// A fresh database holding `written`'s final documents, loaded in row
/// order, with a search index and no IMC.
fn loaded(written: &Session, storage: JsonStorage) -> Session {
    let mut table = nobench_table(storage);
    for row in written.db.table("nobench").unwrap().rows() {
        let [Cell::D(did), Cell::J(doc)] = &row[..] else { panic!("a NOBENCH row") };
        let values = vec![InsertValue::Datum(did.clone()), InsertValue::Json(doc.decode_to_text())];
        table.insert(values).unwrap();
    }
    table.create_search_index().unwrap();
    let mut session = Session::new();
    session.db.add_table(table);
    session
}

/// Every statement's `Debug` rendering, errors included, at `degree`.
fn answers(session: &mut Session, n: usize, degree: usize) -> Vec<String> {
    session.set_parallelism(degree);
    session.db.set_morsel_rows(16);
    let table = session.db.table("nobench").unwrap();
    let Cell::J(mid) = &table.rows()[n / 2][1] else { panic!("a JSON cell") };
    let str1 = mid.decode().unwrap().get("str1").and_then(JsonValue::as_str).map(Datum::from);
    let mut out = Vec::new();
    for q in 1..=10 {
        let sql = fsdm::workloads::nobench::query_sql(q, n);
        let binds = if q == 5 { vec![str1.clone().unwrap()] } else { vec![] };
        out.push(format!("Q{q} {:?}", session.execute_with(&sql, &binds)));
    }
    out.push(format!("Q11 {:?}", session.db.execute(&nobench_q11_plan(n, false))));
    for sql in [
        format!("select did from nobench where json_exists(jdoc, '$.{UPDATED_ONLY}')"),
        format!("select json_value(jdoc, '$.{UPDATED_ONLY}' returning number) from nobench"),
    ] {
        out.push(format!("{sql} {:?}", session.execute(&sql)));
    }
    out
}

/// `written` answers as the database loaded from its final documents.
fn assert_answers_as_loaded(written: &mut Session, storage: JsonStorage, label: &str) {
    let mut fresh = loaded(written, storage);
    let n = fresh.db.table("nobench").unwrap().len();
    for degree in [1, 4] {
        let (w, f) = (answers(written, n, degree), answers(&mut fresh, n, degree));
        for (w, f) in w.iter().zip(&f) {
            assert_eq!(w, f, "{label}, degree {degree}");
        }
    }
    let probe = format!("select did from nobench where json_exists(jdoc, '$.{UPDATED_ONLY}')");
    assert!(!fresh.execute(&probe).unwrap().rows.is_empty(), "{label}: updates were made");

    let (w, f) = (written.db.table("nobench").unwrap(), fresh.db.table("nobench").unwrap());
    let (wi, fi) = (w.search_index.as_ref().unwrap(), f.search_index.as_ref().unwrap());
    let paths: BTreeSet<&str> = wi.paths().chain(fi.paths()).collect();
    for path in paths {
        assert_eq!(wi.docs_with_path(path), fi.docs_with_path(path), "{label}: {path}");
    }
    for row in f.rows() {
        let Cell::J(doc) = &row[1] else { panic!("a JSON cell") };
        let doc = doc.decode().unwrap();
        for field in ["str1", "num", UPDATED_ONLY] {
            let Some(value) = doc.get(field) else { continue };
            let value = value.as_str().map_or_else(|| fsdm::json::to_string(value), str::to_string);
            let path = format!("$.{field}");
            let (w, f) = (wi.docs_with_value(&path, &value), fi.docs_with_value(&path, &value));
            assert_eq!(w, f, "{label}: {path} = {value}");
        }
    }

    let kinds = |t: &Table| -> BTreeSet<(String, String)> {
        t.dataguide.rows().into_iter().map(|r| (r.path, r.type_str)).collect()
    };
    let missing: Vec<_> = kinds(f).difference(&kinds(w)).cloned().collect();
    assert!(missing.is_empty(), "{label}: the written $DG lacks {missing:?}");
}

#[test]
fn a_written_database_answers_as_a_loaded_one() {
    for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
        for seed in [1, 2] {
            let label = format!("{storage:?} seed {seed}");
            let mut written = Written::new(storage, seed);
            written.run(240);
            // members for some rows, none for the written ones; no vectors
            written.table().populate_oson_imc().unwrap();
            written.populate_vectors();
            written.update_leaf();
            written.update_whole();
            assert!(written.table().imc.vectors.is_empty(), "{label}: a write drops vectors");
            assert_answers_as_loaded(&mut written.session, storage, &label);
            // the vectors resident
            written.populate_vectors();
            assert_answers_as_loaded(&mut written.session, storage, &format!("{label}, vectors"));
        }
    }
}
