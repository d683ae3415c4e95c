//! `fsdm-core`: the Flexible Schema Data Management facade.
//!
//! This is the user-visible paradigm of the paper (§1, §3.3): **"write
//! without schema, read with schema."** Applications store JSON documents
//! into a collection with no upfront schema definition; the engine
//! continuously derives a [`fsdm_dataguide::DataGuide`] soft
//! schema, from which it can project a *virtual relational schema* —
//! `JSON_VALUE` virtual columns for singleton scalars and a de-normalized
//! master-detail view (DMDV) for nested arrays — that SQL queries then
//! treat exactly like physically shredded tables.
//!
//! ```
//! use fsdm_core::{FsdmDatabase, CollectionOptions};
//!
//! let mut db = FsdmDatabase::new();
//! db.create_collection("po", CollectionOptions::default()).unwrap();
//! db.put("po", r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08",
//!     "items":[{"name":"phone","price":100,"quantity":2}]}}"#).unwrap();
//!
//! // schema was never declared, yet it is queryable relationally:
//! db.infer_relational_schema("po").unwrap();
//! let r = db.sql("select * from po_dmdv").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```

use fsdm_dataguide::views::{add_vc, create_view_on_path};
use fsdm_dataguide::DataGuide;
use fsdm_sql::{Session, SqlError};
use fsdm_sqljson::{parse_path, Datum};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    Cell, ColType, ColumnSpec, ConstraintMode, Expr, JsonStorage, Query, QueryResult, Table,
    TableSchema,
};

pub use fsdm_store::Database;

/// Error type of the facade.
pub type FsdmError = SqlError;

/// Result alias.
pub type Result<T> = std::result::Result<T, FsdmError>;

/// Options for a new JSON collection.
#[derive(Debug, Clone, Copy)]
pub struct CollectionOptions {
    /// Physical JSON storage.
    pub storage: JsonStorage,
    /// Maintain the persistent DataGuide on insert (§3.2).
    pub dataguide: bool,
    /// Validate documents with the IS JSON constraint.
    pub validate: bool,
}

impl Default for CollectionOptions {
    fn default() -> Self {
        CollectionOptions { storage: JsonStorage::Oson, dataguide: true, validate: true }
    }
}

/// The FSDM database: JSON collections + relational tables + SQL, with
/// DataGuide-driven schema inference.
pub struct FsdmDatabase {
    session: Session,
}

impl Default for FsdmDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl FsdmDatabase {
    /// Fresh database.
    pub fn new() -> Self {
        FsdmDatabase { session: Session::new() }
    }

    /// Access the underlying engine.
    pub fn engine(&self) -> &Database {
        &self.session.db
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Database {
        &mut self.session.db
    }

    /// Create a JSON collection: a table `(did number, jdoc json)`. A name
    /// already taken is an error and leaves the existing table alone.
    pub fn create_collection(&mut self, name: &str, opts: CollectionOptions) -> Result<()> {
        if self.session.db.table(name).is_some() {
            return Err(SqlError::new(format!("collection {name} already exists")));
        }
        let mode = match (opts.validate, opts.dataguide) {
            (_, true) => ConstraintMode::IsJsonWithDataGuide,
            (true, false) => ConstraintMode::IsJson,
            (false, false) => ConstraintMode::None,
        };
        let schema = TableSchema::new(
            name,
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", opts.storage, mode),
            ],
        );
        self.session.db.add_table(Table::new(schema));
        Ok(())
    }

    /// Store a JSON document; returns its document id. No schema is
    /// declared or checked beyond well-formedness — "schema-less for
    /// write".
    pub fn put(&mut self, collection: &str, json_text: &str) -> Result<u64> {
        let table = self
            .session
            .db
            .table_mut(collection)
            .ok_or_else(|| SqlError::new(format!("no collection {collection}")))?;
        let id = table.len() as u64;
        table
            .insert(vec![
                InsertValue::Datum(Datum::from(id as i64)),
                InsertValue::Json(json_text.to_string()),
            ])
            .map_err(SqlError::from)?;
        Ok(id)
    }

    /// Fetch a document back as JSON text.
    pub fn get(&self, collection: &str, id: u64) -> Option<String> {
        let table = self.session.db.table(collection)?;
        let row = table.rows().get(id as usize)?;
        match row.get(1) {
            Some(Cell::J(j)) => Some(j.decode_to_text()),
            _ => None,
        }
    }

    /// Number of documents in a collection.
    pub fn count(&self, collection: &str) -> usize {
        self.session.db.table(collection).map(|t| t.len()).unwrap_or(0)
    }

    /// The collection's persistent DataGuide (§3.2) — the continuously
    /// maintained soft schema.
    pub fn dataguide(&self, collection: &str) -> Option<&DataGuide> {
        self.session.db.table(collection).map(|t| &*t.dataguide)
    }

    /// The DataGuide in hierarchical JSON form (`getDataGuide()` of
    /// §3.2.2).
    pub fn dataguide_json(&self, collection: &str) -> Option<String> {
        self.dataguide(collection)
            .map(|g| fsdm_json::to_string(&fsdm_dataguide::hierarchical::to_hierarchical_json(g)))
    }

    /// "Read with schema": derive the virtual relational schema from the
    /// DataGuide. Registers:
    ///
    /// * `JSON_VALUE` virtual columns on the base table for every
    ///   singleton scalar (`AddVC()` of §3.3.1), and a `<name>_mv` view
    ///   projecting them;
    /// * the full de-normalized master-detail view `<name>_dmdv`
    ///   (`CreateViewOnPath('$')` of §3.3.2).
    pub fn infer_relational_schema(&mut self, collection: &str) -> Result<InferredSchema> {
        let table = self
            .session
            .db
            .table(collection)
            .ok_or_else(|| SqlError::new(format!("no collection {collection}")))?;
        let guide = table.dataguide.clone();
        let json_col_name = "jdoc";
        let json_col = table
            .schema
            .col_index(json_col_name)
            .ok_or_else(|| SqlError::new("collection has no jdoc column"))?;
        // virtual columns
        let vcs = add_vc(&guide, json_col_name, 0);
        let table = self.session.db.table_mut(collection).expect("checked");
        for vc in &vcs {
            if table.scan_col_index(&vc.name).is_none() {
                let path = parse_path(&vc.path).map_err(|e| SqlError::new(e.message))?;
                table.add_virtual_column(&vc.name, Expr::json_value(json_col, path, vc.ty));
            }
        }
        // <name>_mv: did + the virtual columns, each wherever it sits — one
        // an earlier inference registered keeps its place, a new one is
        // appended after it
        let mut mv_exprs: Vec<(String, Expr)> = vec![("did".to_string(), Expr::Col(0))];
        for vc in &vcs {
            let col = table.scan_col_index(&vc.name).expect("registered above");
            mv_exprs.push((vc.name.clone(), Expr::Col(col)));
        }
        let mv_plan = Query::Project { input: Box::new(Query::scan(collection)), exprs: mv_exprs };
        self.session.db.create_view(format!("{collection}_mv"), mv_plan);
        // <name>_dmdv
        let view = create_view_on_path(
            &guide,
            "$",
            json_col_name,
            &format!("{collection}_dmdv"),
            0,
            &Default::default(),
        )
        .ok_or_else(|| SqlError::new("empty DataGuide: insert documents first"))?;
        let columns = view.table_def.column_names();
        let dmdv_plan = Query::Project {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan(collection)),
                json_col,
                def: view.table_def.clone(),
            }),
            exprs: {
                // expose did + the JSON_TABLE columns, hiding the raw jdoc
                let mut exprs: Vec<(String, Expr)> = vec![("did".to_string(), Expr::Col(0))];
                let vc_count =
                    self.session.db.table(collection).map(|t| t.virtual_columns.len()).unwrap_or(0);
                let jt_base = 2 + vc_count; // did, jdoc, VCs…, then JT cols
                for (i, c) in columns.iter().enumerate() {
                    exprs.push((c.clone(), Expr::Col(jt_base + i)));
                }
                exprs
            },
        };
        self.session.db.create_view(format!("{collection}_dmdv"), dmdv_plan);
        Ok(InferredSchema {
            virtual_columns: vcs.iter().map(|v| v.name.clone()).collect(),
            mv_view: format!("{collection}_mv"),
            dmdv_view: format!("{collection}_dmdv"),
            dmdv_columns: columns,
            view_sql: view.sql,
        })
    }

    /// Run SQL.
    pub fn sql(&mut self, sql: &str) -> Result<QueryResult> {
        self.session.execute(sql)
    }

    /// Run SQL and return the statement's report with the rows: for a
    /// SELECT a [`fsdm_store::QueryProfile`] — degree, optimize and
    /// execute time, memory high-water, every operator with its output
    /// rows, inclusive wall time and pipeline mode, the prepare-time
    /// findings (path lint and plan typecheck, view bodies included) —
    /// and, with `trace`, the full span tree of the execution
    /// (see [`fsdm_obs::trace`]; export with
    /// [`fsdm_obs::trace::Trace::to_chrome_json`] for Perfetto or
    /// `to_collapsed` for flamegraph.pl). DDL/DML report `None`.
    pub fn report_sql(
        &mut self,
        sql: &str,
        binds: &[Datum],
        trace: bool,
    ) -> Result<(QueryResult, Option<fsdm_store::QueryProfile>)> {
        self.session.report(sql, binds, trace)
    }

    /// Arm the slow-query ring log (see [`fsdm_store::SlowLog`]): keep
    /// the last `cap` queries at or over `threshold_ns`, each captured
    /// with its SQL text, elapsed time, degree, and report.
    /// `cap = 0` disarms.
    pub fn set_slow_log(&mut self, threshold_ns: u64, cap: usize) {
        self.session.db.set_slow_log(threshold_ns, cap);
    }

    /// The slow-query ring as JSON (empty `entries` until armed).
    pub fn slow_log_json(&self) -> String {
        self.session.db.slow_log_json()
    }

    /// Snapshot of every metric the [`fsdm_obs::catalog`] declares
    /// (`oson.*`, `sqljson.*`, `dataguide.*`, `index.*`, `store.*`, …).
    /// Use [`fsdm_obs::MetricsSnapshot::diff`] against an earlier
    /// snapshot to isolate one workload's activity.
    pub fn metrics_snapshot(&self) -> fsdm_obs::MetricsSnapshot {
        fsdm_obs::snapshot()
    }

    /// Build the schema-agnostic search index on a collection (§3.2).
    pub fn create_search_index(&mut self, collection: &str) -> Result<()> {
        self.session
            .db
            .table_mut(collection)
            .ok_or_else(|| SqlError::new(format!("no collection {collection}")))?
            .create_search_index()
            .map_err(SqlError::from)
    }

    /// `JSON_TEXTCONTAINS`: full-text keyword search through the index.
    pub fn text_contains(&self, collection: &str, path: &str, keyword: &str) -> Result<Vec<u64>> {
        let table = self
            .session
            .db
            .table(collection)
            .ok_or_else(|| SqlError::new(format!("no collection {collection}")))?;
        let ix = table
            .search_index
            .as_ref()
            .ok_or_else(|| SqlError::new("no search index; call create_search_index"))?;
        Ok(ix.docs_text_contains(path, keyword))
    }

    /// Load the collection's OSON-IMC (§5.2.2): its documents as one §7
    /// OSON set in memory, which serves its queries; storage is unchanged.
    pub fn populate_oson_imc(&mut self, collection: &str) -> Result<()> {
        self.session
            .db
            .table_mut(collection)
            .ok_or_else(|| SqlError::new(format!("no collection {collection}")))?
            .populate_oson_imc()
            .map_err(SqlError::from)
    }

    /// Materialize virtual columns into IMC vectors (§5.2.1).
    pub fn populate_vc_imc(&mut self, collection: &str, columns: &[&str]) -> Result<()> {
        self.session
            .db
            .table_mut(collection)
            .ok_or_else(|| SqlError::new(format!("no collection {collection}")))?
            .populate_vc_imc(columns)
            .map_err(SqlError::from)
    }
}

/// What [`FsdmDatabase::infer_relational_schema`] produced.
#[derive(Debug, Clone)]
pub struct InferredSchema {
    /// Names of the registered virtual columns.
    pub virtual_columns: Vec<String>,
    /// Name of the singleton-scalar view.
    pub mv_view: String,
    /// Name of the DMDV view.
    pub dmdv_view: String,
    /// DMDV output columns.
    pub dmdv_columns: Vec<String>,
    /// The Table 8–style SQL text of the generated view.
    pub view_sql: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    const PO_DOCS: [&str; 3] = [
        r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
            {"name":"phone","price":100,"quantity":2},
            {"name":"ipad","price":350.86,"quantity":3}]}}"#,
        r#"{"purchaseOrder":{"id":2,"podate":"2015-03-04","items":[
            {"name":"table","price":52.78,"quantity":2}]}}"#,
        r#"{"purchaseOrder":{"id":3,"podate":"2015-06-03","foreign_id":"CDEG35","items":[
            {"name":"TV","price":345.55,"quantity":1,
             "parts":[{"partName":"remoteCon","partQuantity":"1"}]}]}}"#,
    ];

    fn seeded() -> FsdmDatabase {
        let mut db = FsdmDatabase::new();
        db.create_collection("po", CollectionOptions::default()).unwrap();
        for d in PO_DOCS {
            db.put("po", d).unwrap();
        }
        db
    }

    #[test]
    fn put_get_roundtrip() {
        let db = seeded();
        assert_eq!(db.count("po"), 3);
        let text = db.get("po", 0).unwrap();
        let v = fsdm_json::parse(&text).unwrap();
        assert_eq!(v.get("purchaseOrder").unwrap().get("id").unwrap().as_i64(), Some(1));
        assert!(db.get("po", 99).is_none());
    }

    #[test]
    fn dataguide_grows_with_documents() {
        let db = seeded();
        let g = db.dataguide("po").unwrap();
        assert_eq!(g.doc_count, 3);
        assert!(g.rows().iter().any(|r| r.path == "$.purchaseOrder.items.parts.partName"));
        let json = db.dataguide_json("po").unwrap();
        assert!(json.contains("purchaseOrder"));
    }

    #[test]
    fn write_without_schema_read_with_schema() {
        let mut db = seeded();
        let schema = db.infer_relational_schema("po").unwrap();
        assert!(schema.virtual_columns.contains(&"jdoc$id".to_string()));
        // singleton view
        let mv = db.sql(&format!("select * from {}", schema.mv_view)).unwrap();
        assert_eq!(mv.rows.len(), 3);
        // DMDV: 2 + 1 + 1 item rows
        let dmdv = db.sql(&format!("select * from {}", schema.dmdv_view)).unwrap();
        assert_eq!(dmdv.rows.len(), 4);
        // SQL analytics over the inferred schema
        let r = db.sql("select count(*) from po_dmdv where \"jdoc$price\" > 100").unwrap();
        assert_eq!(r.rows[0][0], Datum::from(2i64));
        assert!(schema.view_sql.contains("JSON_TABLE"));
    }

    #[test]
    fn find_with_paths() {
        let mut db = seeded();
        let hits = db
            .sql(
                "select did, name from po, json_table(jdoc, '$.purchaseOrder.items[*]' \
                 columns (name varchar2(16) path '$.name', price number path '$.price')) jt \
                 where price > 300",
            )
            .unwrap();
        let ipad = vec![Datum::from(0i64), Datum::from("ipad")];
        assert_eq!(hits.rows, vec![ipad, vec![Datum::from(2i64), Datum::from("TV")]]);
    }

    #[test]
    fn search_index_text_contains() {
        let mut db = FsdmDatabase::new();
        db.create_collection("notes", CollectionOptions::default()).unwrap();
        db.put("notes", r#"{"note":"expedited shipping requested"}"#).unwrap();
        db.put("notes", r#"{"note":"gift wrap"}"#).unwrap();
        db.create_search_index("notes").unwrap();
        assert_eq!(db.text_contains("notes", "$.note", "shipping").unwrap(), vec![0]);
    }

    #[test]
    fn search_index_sees_puts_after_its_build_with_or_without_a_dataguide() {
        for dataguide in [true, false] {
            let mut db = FsdmDatabase::new();
            let options = CollectionOptions { dataguide, ..Default::default() };
            db.create_collection("notes", options).unwrap();
            db.put("notes", r#"{"note":"alpha"}"#).unwrap();
            db.create_search_index("notes").unwrap();
            db.put("notes", r#"{"note":"beta"}"#).unwrap();
            let hits = db.text_contains("notes", "$.note", "beta").unwrap();
            assert_eq!(hits, vec![1], "dataguide: {dataguide}");
        }
        // text stored without IS JSON is never parsed, so it cannot be indexed
        let mut db = FsdmDatabase::new();
        let options =
            CollectionOptions { storage: JsonStorage::Text, dataguide: false, validate: false };
        db.create_collection("raw", options).unwrap();
        assert!(db.create_search_index("raw").is_err());
    }

    #[test]
    fn imc_modes_preserve_results() {
        let mut db = FsdmDatabase::new();
        db.create_collection(
            "po",
            CollectionOptions { storage: JsonStorage::Text, ..Default::default() },
        )
        .unwrap();
        for d in PO_DOCS {
            db.put("po", d).unwrap();
        }
        db.infer_relational_schema("po").unwrap();
        let q = "select count(*) from po where json_value(jdoc, '$.purchaseOrder.id' returning number) >= 2";
        let before = db.sql(q).unwrap();
        db.populate_oson_imc("po").unwrap();
        let after = db.sql(q).unwrap();
        assert_eq!(before, after);
        db.populate_vc_imc("po", &["jdoc$id"]).unwrap();
        let vc = db.sql("select count(*) from po where \"jdoc$id\" >= 2").unwrap();
        assert_eq!(vc.rows[0][0], before.rows[0][0]);
    }

    #[test]
    fn report_sql_reports_operator_tree() {
        let mut db = seeded();
        db.infer_relational_schema("po").unwrap();
        db.set_slow_log(0, 4);
        let sql = "select count(*) from po_dmdv where \"jdoc$price\" > 100";
        let (r, report) = db.report_sql(sql, &[], false).unwrap();
        assert_eq!(r.rows[0][0], Datum::from(2i64));
        let p = report.expect("SELECT yields a report");
        assert!(p.elapsed_ns() > 0 && p.trace.is_none());
        assert_eq!((p.source.as_str(), p.degree), (sql, db.engine().parallelism()));
        // untraced, the ring names the statement by its SQL text all the same
        assert_eq!(db.engine().slow_log().entries()[0].source, sql);
        // the DMDV view expands to a JSON_TABLE pipeline over the scan;
        // the profile mirrors the *optimized* plan, where the §6.3
        // pushdown's filter below the expansion keeps the 2 qualifying
        // documents
        let probe = &p.find("JsonTable").unwrap().children[0];
        assert_eq!((probe.op.as_str(), probe.rows_out), ("Filter", 2));
        assert_eq!(probe.children[0].op, "Scan(po)");
        assert_eq!(p.find("JsonTable").unwrap().rows_out, 3, "2 + 1 items survive");
        assert_eq!(p.find("Filter").unwrap().rows_out, 2, "items with price > 100");
        assert_eq!(p.find("GroupBy").unwrap().rows_out, 1);
        // DDL does not run through the volcano executor
        let (_, none) = db.report_sql("create table x (a number)", &[], false).unwrap();
        assert!(none.is_none());
        // asked for, the span tree comes back inside the report
        let (_, traced) = db.report_sql(sql, &[], true).unwrap();
        let trace = traced.and_then(|p| p.trace).expect("traced, so kept");
        trace.validate().unwrap();
        assert!(trace.count(fsdm_obs::catalog::SPAN_STORE_QUERY) >= 1);
    }

    /// Documents that arrive after the first inference bring new singleton
    /// scalars: the second inference appends their virtual columns after
    /// the existing ones, and `<name>_mv` must find each by name.
    #[test]
    fn a_second_inference_keeps_mv_columns_on_their_values() {
        let mut db = FsdmDatabase::new();
        db.create_collection("c", CollectionOptions::default()).unwrap();
        db.put("c", r#"{"a":"A1","b":"B1"}"#).unwrap();
        db.infer_relational_schema("c").unwrap();
        db.put("c", r#"{"a":"A2","aa":"AA2","b":"B2"}"#).unwrap();
        db.infer_relational_schema("c").unwrap();
        let mv = db.sql("select * from c_mv").unwrap();
        assert_eq!(mv.columns, ["did", "jdoc$a", "jdoc$aa", "jdoc$b"]);
        let row = |did: i64, a: &str, aa: Datum, b: &str| {
            vec![Datum::from(did), Datum::from(a), aa, Datum::from(b)]
        };
        assert_eq!(
            mv.rows,
            [row(0, "A1", Datum::Null, "B1"), row(1, "A2", Datum::from("AA2"), "B2")]
        );
    }

    #[test]
    fn creating_a_collection_twice_is_refused() {
        let mut db = seeded();
        let err = db.create_collection("po", CollectionOptions::default()).unwrap_err();
        assert_eq!(err.message, "collection po already exists");
        assert_eq!(db.count("po"), 3, "the first collection keeps its documents");
    }

    #[test]
    fn metrics_snapshot_observes_activity() {
        let mut db = FsdmDatabase::new();
        let before = db.metrics_snapshot();
        db.create_collection("m", CollectionOptions::default()).unwrap();
        for i in 0..5 {
            db.put("m", &format!(r#"{{"a":{i},"b":"x"}}"#)).unwrap();
        }
        let sql = "select count(*) from m where json_value(jdoc, '$.a' returning number) >= 0";
        let report = db.report_sql(sql, &[], false).unwrap().1.expect("a SELECT");
        let delta = db.metrics_snapshot().diff(&before);
        // whole-statement wall, optimize included, whichever door ran it
        let exec_ns = delta.histograms["store.exec.ns"].sum;
        assert!(exec_ns >= report.optimize_ns + report.elapsed_ns(), "{exec_ns}: {report:?}");
        // OSON encodes on insert; the DataGuide takes the signature fast
        // path for 4 of the 5 identically-shaped docs; the query runs
        // through the instrumented executor and path evaluator.
        assert!(delta.counter("oson.encode.docs") >= 5);
        assert!(delta.counter("dataguide.insert.changed") >= 1);
        assert!(delta.counter("store.insert.guide_fast_path") >= 4);
        assert!(delta.counter("store.exec.queries") >= 1);
        assert!(delta.counter("sqljson.eval.paths") >= 5);
    }

    #[test]
    fn a_traced_put_shows_its_four_stages() {
        use fsdm_obs::catalog::{
            SPAN_INGEST_ENCODE, SPAN_INGEST_GUIDE, SPAN_INGEST_PARSE, SPAN_INGEST_POSTINGS,
        };
        let mut db = FsdmDatabase::new();
        db.create_collection("c", CollectionOptions::default()).unwrap();
        db.create_search_index("c").unwrap();
        let session = fsdm_obs::trace::TraceSession::begin();
        db.put("c", r#"{"a":[1,"two"]}"#).unwrap();
        assert!(db.put("c", "{oops").is_err());
        let trace = session.finish();
        trace.validate().unwrap();
        // the rejected put got as far as the parse
        assert_eq!(trace.count(SPAN_INGEST_PARSE), 2);
        for stage in [SPAN_INGEST_ENCODE, SPAN_INGEST_GUIDE, SPAN_INGEST_POSTINGS] {
            assert_eq!(trace.count(stage), 1, "{stage}");
        }
    }

    #[test]
    fn invalid_documents_rejected() {
        let mut db = FsdmDatabase::new();
        db.create_collection("c", CollectionOptions::default()).unwrap();
        assert!(db.put("c", "{oops").is_err());
        assert_eq!(db.count("c"), 0);
    }

    #[test]
    fn mixed_sql_and_collections() {
        let mut db = seeded();
        db.sql("create table dept (id number, name varchar2(16))").unwrap();
        db.sql("insert into dept values (1, 'electronics')").unwrap();
        db.infer_relational_schema("po").unwrap();
        // relational table and JSON view in one query engine
        let r = db.sql("select name from dept").unwrap();
        assert_eq!(r.rows[0][0], Datum::from("electronics"));
    }
}
