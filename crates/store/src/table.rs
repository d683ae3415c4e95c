//! Tables: rows, the insert pipeline with IS JSON validation and
//! DataGuide/search-index maintenance, virtual columns, and key indexes.

use std::collections::HashMap;
use std::fmt;

use fsdm_dataguide::{structure_signature, GuideMaintainer};
use fsdm_fault::catalog::FP_INGEST_PUT;
use fsdm_index::SearchIndex;
use fsdm_json::JsonValue;
use fsdm_obs::catalog::{
    metric, SPAN_INGEST_ENCODE, SPAN_INGEST_GUIDE, SPAN_INGEST_PARSE, SPAN_INGEST_POSTINGS,
};
use fsdm_obs::trace::span;
use fsdm_sqljson::Datum;

use crate::expr::Expr;
use crate::imc::ImcStore;
use crate::jsonaccess::{JsonCell, JsonStorage};
use crate::schema::{ColType, ConstraintMode, TableSchema};

/// Why a statement was cancelled (the payload of
/// [`ErrorKind::Cancelled`] and the cancel token's published reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// An explicit cross-thread `CancelHandle::cancel`.
    User,
    /// The statement deadline passed.
    Deadline,
    /// The statement memory budget was exhausted.
    Budget,
    /// A sibling morsel worker panicked; this worker stopped early.
    PeerPanic,
}

impl CancelReason {
    /// Stable lowercase label, used in error text and the slow-query log.
    pub fn label(self) -> &'static str {
        match self {
            CancelReason::User => "user",
            CancelReason::Deadline => "deadline",
            CancelReason::Budget => "budget",
            CancelReason::PeerPanic => "peer-panic",
        }
    }
}

/// Typed classification of a [`StoreError`]. `Generic` covers ordinary
/// evaluation failures (and injected faults); the governance kinds let
/// callers distinguish a killed statement from a wrong one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Ordinary evaluation failure.
    Generic,
    /// The statement was cancelled for the given reason.
    Cancelled(CancelReason),
    /// The statement ran past its deadline.
    DeadlineExceeded,
    /// The statement memory budget was exhausted.
    BudgetExceeded,
    /// A morsel worker panicked; the panic was isolated and converted.
    WorkerPanic {
        /// Index of the morsel whose closure panicked.
        morsel: usize,
    },
}

/// Storage engine error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// Description of the failure.
    pub message: String,
    /// Typed classification (governance kills, isolated panics, …).
    pub kind: ErrorKind,
}

impl StoreError {
    /// Build an ordinary ([`ErrorKind::Generic`]) error.
    pub fn new(message: impl Into<String>) -> Self {
        StoreError { message: message.into(), kind: ErrorKind::Generic }
    }

    /// Build an error with an explicit typed kind.
    pub fn with_kind(message: impl Into<String>, kind: ErrorKind) -> Self {
        StoreError { message: message.into(), kind }
    }

    /// True for governance kills (cancel / deadline / budget): failures a
    /// peer's fault or the user's own limit caused, which yield to any
    /// co-occurring primary error when the executor picks what to report.
    pub fn is_governance(&self) -> bool {
        matches!(
            self.kind,
            ErrorKind::Cancelled(_) | ErrorKind::DeadlineExceeded | ErrorKind::BudgetExceeded
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

/// One stored cell: a SQL scalar or a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Scalar.
    D(Datum),
    /// JSON document in its physical storage form.
    J(JsonCell),
}

impl Cell {
    /// The cell as a result datum: a JSON document renders as text.
    pub fn into_datum(self) -> Datum {
        match self {
            Cell::D(d) => d,
            Cell::J(j) => Datum::Str(j.decode_to_text()),
        }
    }
}

/// A table row.
pub type Row = Vec<Cell>;

/// A value supplied to `insert`: scalars as datums, JSON as text (the wire
/// form an application sends).
#[derive(Debug, Clone)]
pub enum InsertValue {
    /// Scalar value.
    Datum(Datum),
    /// JSON document text.
    Json(String),
}

impl From<Datum> for InsertValue {
    fn from(d: Datum) -> Self {
        InsertValue::Datum(d)
    }
}
impl From<i64> for InsertValue {
    fn from(v: i64) -> Self {
        InsertValue::Datum(Datum::from(v))
    }
}
impl From<&str> for InsertValue {
    fn from(v: &str) -> Self {
        InsertValue::Datum(Datum::from(v))
    }
}

/// A named virtual column defined by an expression over the base row
/// (§3.3.1 / §5.2.1 — typically `JSON_VALUE(jcol, path)`).
#[derive(Debug, Clone)]
pub struct VirtualColumn {
    /// Column name.
    pub name: String,
    /// Defining expression (over base columns).
    pub expr: Expr,
}

/// A document a write hands to the derived state: the parsed value,
/// whether its column keeps a DataGuide, and whether the search index
/// covers its column.
type Written = (JsonValue, bool, bool);

/// A heap table.
pub struct Table {
    /// Schema.
    pub schema: TableSchema,
    /// Row storage, written only through [`Table::insert`] and
    /// [`Table::set_json_cell`], so a JSON cell always satisfies its
    /// column's constraint.
    pub(crate) rows: Vec<Row>,
    /// Virtual columns appended after base columns in scan output.
    pub virtual_columns: Vec<VirtualColumn>,
    /// Persistent DataGuide (maintained when a JSON column has
    /// `IsJsonWithDataGuide`), kept through the §3.2.1 signature fast path.
    pub dataguide: GuideMaintainer,
    /// Updates the `$DG` observed: with one guided column, its
    /// `doc_count` is the row count plus these.
    pub(crate) guide_updates: u64,
    /// Optional full search index (JSON search index of §3.2).
    pub search_index: Option<SearchIndex>,
    /// Equality indexes: column position → value → row ids.
    pub key_indexes: HashMap<usize, HashMap<Datum, Vec<usize>>>,
    /// In-memory store (§5.2).
    pub imc: ImcStore,
    /// The OSON encoder of every row written: field names are interned
    /// once per table, segment buffers reused from row to row.
    pub(crate) oson_encoder: fsdm_oson::Encoder,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            virtual_columns: Vec::new(),
            dataguide: GuideMaintainer::default(),
            guide_updates: 0,
            search_index: None,
            key_indexes: HashMap::new(),
            imc: ImcStore::default(),
            oson_encoder: fsdm_oson::Encoder::new(),
        }
    }

    /// The stored rows, by row id: what [`Table::insert`] and
    /// [`Table::set_json_cell`] last wrote, whatever the IMC holds.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total stored bytes (Figure 4's storage-size comparison): scalar
    /// cells cost their textual width, JSON cells their encoded size.
    pub fn storage_size(&self) -> usize {
        let data: usize = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|c| match c {
                        Cell::D(d) => d.to_text().len().max(1),
                        Cell::J(j) => j.stored_size(),
                    })
                    .sum::<usize>()
            })
            .sum();
        // key indexes cost roughly one entry (value + row id) per row
        let index: usize = self
            .key_indexes
            .values()
            .map(|ix| ix.values().map(|v| v.len() * 16).sum::<usize>())
            .sum();
        data + index
    }

    /// Insert a row. JSON columns go through the §3.2.1 pipeline:
    /// validation per the column's [`ConstraintMode`], then DataGuide /
    /// search-index maintenance. A rejected row changes nothing.
    pub fn insert(&mut self, values: Vec<InsertValue>) -> Result<usize, StoreError> {
        fsdm_fault::fire(FP_INGEST_PUT).map_err(crate::govern::fault_err)?;
        if values.len() != self.schema.width() {
            return Err(StoreError::new(format!(
                "expected {} values, got {}",
                self.schema.width(),
                values.len()
            )));
        }
        let mut row = Vec::with_capacity(values.len());
        // the parsed documents the DataGuide or the search index takes, each
        // with whether its column keeps a DataGuide and whether the index
        // covers it: the index covers the first JSON column, which
        // `create_search_index` only accepts when it is parsed here
        let mut docs: Vec<Written> = Vec::new();
        let mut indexed = self.search_index.is_some();
        for (spec, value) in self.schema.columns.iter().zip(values) {
            match (&spec.ty, value) {
                // no IS JSON check: bytes stored as-is; only valid for
                // text storage (binary formats require a parse by
                // construction)
                (ColType::Json(JsonStorage::Text), InsertValue::Json(text))
                    if spec.constraint == ConstraintMode::None =>
                {
                    row.push(Cell::J(JsonCell::raw_text(text)));
                }
                (ColType::Json(storage), InsertValue::Json(text)) => {
                    let doc = {
                        let _span = span(SPAN_INGEST_PARSE);
                        fsdm_json::parse(&text).map_err(|e| match spec.constraint {
                            ConstraintMode::None => StoreError::new(e.to_string()),
                            _ => StoreError::new(format!("IS JSON violated: {e}")),
                        })?
                    };
                    let cell = {
                        let _span = span(SPAN_INGEST_ENCODE);
                        match storage {
                            // text storage keeps the application's bytes (the
                            // paper stores minified text as received)
                            JsonStorage::Text => JsonCell::Text(text.into()),
                            binary => JsonCell::encode(&doc, *binary, &mut self.oson_encoder)?,
                        }
                    };
                    row.push(Cell::J(cell));
                    let guided = spec.constraint == ConstraintMode::IsJsonWithDataGuide;
                    if guided || indexed {
                        docs.push((doc, guided, indexed));
                    }
                    indexed = false;
                }
                (ColType::Json(_), InsertValue::Datum(_)) => {
                    return Err(StoreError::new(format!(
                        "column {} requires a JSON value",
                        spec.name
                    )))
                }
                (_, InsertValue::Json(_)) => {
                    return Err(StoreError::new(format!(
                        "column {} is not a JSON column",
                        spec.name
                    )))
                }
                (ty, InsertValue::Datum(d)) => {
                    let sql_ty = ty.sql_type().expect("scalar type");
                    let coerced = d.coerce(sql_ty).ok_or_else(|| {
                        StoreError::new(format!("value does not fit column {}", spec.name))
                    })?;
                    row.push(Cell::D(coerced));
                }
            }
        }
        // every check has passed: from here on the row goes in
        let row_id = self.rows.len();
        for (col, index) in self.key_indexes.iter_mut() {
            if let Some(Cell::D(d)) = row.get(*col) {
                index.entry(d.clone()).or_default().push(row_id);
            }
        }
        self.derive(row_id, &docs, None);
        self.rows.push(row);
        Ok(row_id)
    }

    /// The one step both writers take once their checks have passed, so
    /// what the table derives from a row never depends on which writer
    /// wrote it. Each written document goes, with one structure
    /// signature, to the `$DG` when its column keeps one, and to the
    /// search index when the index covers its column — after the index
    /// drops the postings of `replaced`, the document the row held there.
    /// Then the IMC forgets the row (see [`ImcStore::forget`]).
    fn derive(&mut self, row_id: usize, docs: &[Written], replaced: Option<&JsonValue>) {
        for (doc, guided, indexed) in docs {
            let signature = {
                let _span = span(SPAN_INGEST_GUIDE);
                let signature = structure_signature(doc);
                if *guided && self.dataguide.observe(doc, signature) {
                    metric::STORE_INSERT_GUIDE_FAST_PATH.inc();
                }
                signature
            };
            if let Some(ix) = self.search_index.as_mut().filter(|_| *indexed) {
                let _span = span(SPAN_INGEST_POSTINGS);
                if let Some(old) = replaced {
                    ix.remove(row_id as u64, old);
                }
                ix.insert_signed(row_id as u64, doc, signature);
            }
        }
        self.imc.forget(row_id);
    }

    /// Replace the JSON cell at `(row, col)` — an in-place update of a
    /// stored document — refusing a cell the column would not have
    /// stored: one of another storage, binary bytes that fail their
    /// format's validation, or, under `IS JSON`, text that does not parse.
    /// A refused cell changes nothing. A stored one reaches the `$DG` and
    /// the search index as an inserted document does; the row's OSON-IMC
    /// member and every resident vector are dropped. The `$DG` only grows:
    /// the paths of the replaced document stay in it, which keeps it a
    /// sound over-approximation of the column.
    pub fn set_json_cell(
        &mut self,
        row: usize,
        col: usize,
        cell: JsonCell,
    ) -> Result<(), StoreError> {
        let spec = self
            .schema
            .columns
            .get(col)
            .ok_or_else(|| StoreError::new(format!("no column at {col}")))?;
        let valid = match (&spec.ty, &cell) {
            (ColType::Json(JsonStorage::Text), JsonCell::Text(_))
                if spec.constraint == ConstraintMode::None =>
            {
                Ok(())
            }
            (ColType::Json(JsonStorage::Text), JsonCell::Text(text)) => {
                fsdm_json::parse(text).map(drop).map_err(|e| e.to_string())
            }
            (ColType::Json(JsonStorage::Oson), JsonCell::Oson(bytes)) => {
                let doc = fsdm_oson::OsonDoc::new(bytes);
                doc.and_then(|d| d.validate()).map_err(|e| e.to_string())
            }
            (ColType::Json(JsonStorage::Bson), JsonCell::Bson(bytes)) => {
                let doc = fsdm_bson::BsonDoc::new(bytes);
                doc.and_then(|d| d.validate()).map_err(|e| e.to_string())
            }
            _ => Err("a cell of another type".to_string()),
        };
        valid.map_err(|e| StoreError::new(format!("column {} refuses: {e}", spec.name)))?;
        let old = self
            .rows
            .get(row)
            .and_then(|r| r.get(col))
            .ok_or_else(|| StoreError::new(format!("no row {row}")))?;
        // what the derived state takes, decoded before anything changes
        let guided = spec.constraint == ConstraintMode::IsJsonWithDataGuide;
        let indexed = self.search_index.is_some() && self.json_col() == Some(col);
        let replaced = match old {
            Cell::J(old) if indexed => Some(old.decode()?),
            _ => None,
        };
        let docs = if guided || indexed { vec![(cell.decode()?, guided, indexed)] } else { vec![] };
        self.rows[row][col] = Cell::J(cell);
        self.guide_updates += u64::from(guided);
        self.derive(row, &docs, replaced.as_ref());
        Ok(())
    }

    /// Create an equality index on a scalar column (PK/FK acceleration for
    /// the relational baseline).
    pub fn create_key_index(&mut self, column: &str) -> Result<(), StoreError> {
        let col = self
            .schema
            .col_index(column)
            .ok_or_else(|| StoreError::new(format!("no column {column}")))?;
        let mut index: HashMap<Datum, Vec<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(Cell::D(d)) = row.get(col) {
                index.entry(d.clone()).or_default().push(i);
            }
        }
        self.key_indexes.insert(col, index);
        Ok(())
    }

    /// Position of the first JSON column: the one the search index and
    /// the OSON-IMC cover.
    pub(crate) fn json_col(&self) -> Option<usize> {
        self.schema.columns.iter().position(|c| matches!(c.ty, ColType::Json(_)))
    }

    /// Attach (and build) a JSON search index over the first JSON column,
    /// which every later write then posts to. A text column without an
    /// `IS JSON` constraint is refused: its inserts are never parsed.
    pub fn create_search_index(&mut self) -> Result<(), StoreError> {
        let col = self.json_col().ok_or_else(|| StoreError::new("no JSON column to index"))?;
        let spec = &self.schema.columns[col];
        if spec.ty == ColType::Json(JsonStorage::Text) && spec.constraint == ConstraintMode::None {
            return Err(StoreError::new(format!(
                "column {} has no IS JSON constraint to index under",
                spec.name
            )));
        }
        // row ids ascend, so every posting list is born sorted
        let mut ix = SearchIndex::new();
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(Cell::J(j)) = row.get(col) {
                let doc = j.decode()?;
                ix.insert(i as u64, &doc);
            }
        }
        metric::INDEX_BYTES.set(ix.size_bytes() as i64);
        self.search_index = Some(ix);
        Ok(())
    }

    /// Register a virtual column (appears after base columns in scans).
    pub fn add_virtual_column(&mut self, name: impl Into<String>, expr: Expr) {
        self.virtual_columns.push(VirtualColumn { name: name.into(), expr });
    }

    /// Number of columns a scan puts out (base + virtual).
    pub fn scan_width(&self) -> usize {
        self.schema.width() + self.virtual_columns.len()
    }

    /// Output column names of a scan (base + virtual).
    pub fn scan_column_names(&self) -> Vec<String> {
        self.schema
            .columns
            .iter()
            .map(|c| c.name.clone())
            .chain(self.virtual_columns.iter().map(|v| v.name.clone()))
            .collect()
    }

    /// Position of a scan output column (base or virtual).
    pub fn scan_col_index(&self, name: &str) -> Option<usize> {
        self.schema.col_index(name).or_else(|| {
            self.virtual_columns
                .iter()
                .position(|v| v.name == name)
                .map(|i| self.schema.width() + i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSpec;

    fn po_schema(storage: JsonStorage, mode: ConstraintMode) -> TableSchema {
        TableSchema::new(
            "po",
            vec![ColumnSpec::new("did", ColType::Number), ColumnSpec::json("jdoc", storage, mode)],
        )
    }

    #[test]
    fn insert_and_validate() {
        let mut t = Table::new(po_schema(JsonStorage::Text, ConstraintMode::IsJson));
        t.insert(vec![1i64.into(), InsertValue::Json(r#"{"a":1}"#.into())]).unwrap();
        assert_eq!(t.len(), 1);
        // malformed JSON rejected by IS JSON
        let err = t.insert(vec![2i64.into(), InsertValue::Json("{oops".into())]).unwrap_err();
        assert!(err.message.contains("IS JSON"));
    }

    #[test]
    fn no_constraint_stores_anything() {
        let mut t = Table::new(po_schema(JsonStorage::Text, ConstraintMode::None));
        t.insert(vec![1i64.into(), InsertValue::Json("{not json".into())]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn dataguide_maintenance_with_fast_path() {
        let mut t = Table::new(po_schema(JsonStorage::Text, ConstraintMode::IsJsonWithDataGuide));
        for i in 0..50 {
            t.insert(vec![(i as i64).into(), InsertValue::Json(format!(r#"{{"a":{i},"b":"x"}}"#))])
                .unwrap();
        }
        assert_eq!(t.dataguide.doc_count, 50);
        assert_eq!(t.dataguide.fast_path_hits, 49);
        // heterogeneous doc grows the guide
        t.insert(vec![99i64.into(), InsertValue::Json(r#"{"a":1,"new_field":true}"#.into())])
            .unwrap();
        assert!(t.dataguide.rows().iter().any(|r| r.path == "$.new_field"));
    }

    #[test]
    fn binary_storages_reencode() {
        for storage in [JsonStorage::Bson, JsonStorage::Oson] {
            let mut t = Table::new(po_schema(storage, ConstraintMode::IsJson));
            t.insert(vec![1i64.into(), InsertValue::Json(r#"{"k":[1,2,3]}"#.into())]).unwrap();
            match &t.rows[0][1] {
                Cell::J(j) => {
                    let v = j.decode().unwrap();
                    assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 3);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn set_json_cell_refuses_what_insert_would() {
        let garbage = || std::sync::Arc::new(vec![0xff; 16]);
        for (storage, bad) in [
            (JsonStorage::Oson, JsonCell::Oson(garbage())),
            (JsonStorage::Bson, JsonCell::Bson(garbage())),
        ] {
            let mut t = Table::new(po_schema(storage, ConstraintMode::IsJsonWithDataGuide));
            t.insert(vec![1i64.into(), InsertValue::Json(r#"{"a":1}"#.into())]).unwrap();
            t.create_search_index().unwrap();
            t.populate_oson_imc().unwrap();
            let state = |t: &Table| {
                let ix = t.search_index.as_ref().unwrap();
                let set = t.imc.oson_set().map(|s| (s.len(), s.heap_size()));
                (
                    t.rows().to_vec(),
                    t.dataguide.rows(),
                    t.guide_updates,
                    set,
                    ix.docs_with_path("$.a"),
                )
            };
            let before = state(&t);
            let Cell::J(good) = t.rows()[0][1].clone() else { panic!("a JSON cell") };
            assert!(t.set_json_cell(0, 1, bad).is_err(), "{storage:?}: invalid bytes");
            let text = JsonCell::raw_text(r#"{"a":2}"#);
            assert!(t.set_json_cell(0, 1, text).is_err(), "{storage:?}: another storage");
            assert!(t.set_json_cell(0, 0, good.clone()).is_err(), "not a JSON column");
            assert!(t.set_json_cell(1, 1, good.clone()).is_err(), "no such row");
            assert_eq!(state(&t), before, "a refused cell changes nothing");
            t.set_json_cell(0, 1, good).unwrap();
            assert!(t.imc.oson_set().is_some(), "the set outlives an update");
            assert_eq!((t.dataguide.doc_count, t.guide_updates), (2, 1), "the update is observed");
        }
        // text is parsed under IS JSON, stored as is without it
        for (mode, stored) in [(ConstraintMode::IsJson, false), (ConstraintMode::None, true)] {
            let mut t = Table::new(po_schema(JsonStorage::Text, mode));
            t.insert(vec![1i64.into(), InsertValue::Json("{}".into())]).unwrap();
            let torn = JsonCell::raw_text("{oops");
            assert_eq!(t.set_json_cell(0, 1, torn).is_ok(), stored, "{mode:?}");
        }
    }

    #[test]
    fn scalar_type_enforcement() {
        let mut t =
            Table::new(TableSchema::new("t", vec![ColumnSpec::new("s", ColType::Varchar2(3))]));
        assert!(t.insert(vec!["abc".into()]).is_ok());
        assert!(t.insert(vec!["abcd".into()]).is_err());
        assert!(t.insert(vec![InsertValue::Json("{}".into())]).is_err());
    }

    #[test]
    fn key_index_maintenance() {
        let mut t = Table::new(TableSchema::new("t", vec![ColumnSpec::new("k", ColType::Number)]));
        t.insert(vec![5i64.into()]).unwrap();
        t.create_key_index("k").unwrap();
        t.insert(vec![5i64.into()]).unwrap();
        t.insert(vec![6i64.into()]).unwrap();
        let ix = &t.key_indexes[&0];
        assert_eq!(ix[&Datum::from(5i64)], vec![0, 1]);
        assert_eq!(ix[&Datum::from(6i64)], vec![2]);
    }

    #[test]
    fn search_index_built_from_existing_rows() {
        let mut t = Table::new(po_schema(JsonStorage::Oson, ConstraintMode::IsJson));
        t.insert(vec![1i64.into(), InsertValue::Json(r#"{"tag":"red"}"#.into())]).unwrap();
        t.insert(vec![2i64.into(), InsertValue::Json(r#"{"tag":"blue"}"#.into())]).unwrap();
        t.create_search_index().unwrap();
        let ix = t.search_index.as_ref().unwrap();
        assert_eq!(ix.docs_with_value("$.tag", "blue"), vec![1]);
    }

    #[test]
    fn a_rejected_put_changes_nothing() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("k", ColType::Number),
                ColumnSpec::json("a", JsonStorage::Oson, ConstraintMode::IsJsonWithDataGuide),
                ColumnSpec::json("b", JsonStorage::Text, ConstraintMode::IsJson),
            ],
        ));
        t.create_key_index("k").unwrap();
        t.create_search_index().unwrap();
        let json = |text: &str| InsertValue::Json(text.into());
        t.insert(vec![1i64.into(), json(r#"{"tag":"red fox","n":1}"#), json("{}")]).unwrap();

        let state = |t: &Table| {
            let ix = t.search_index.as_ref().unwrap();
            (
                (t.len(), t.dataguide.rows(), t.dataguide.doc_count, t.key_indexes[&0].len()),
                (ix.path_count(), ix.dataguide().rows(), ix.dataguide().doc_count),
                (ix.docs_with_path("$.tag"), ix.docs_with_value("$.n", "1")),
                (ix.docs_text_contains("$.tag", "fox"), ix.docs_with_path("$.fresh")),
            )
        };
        let before = state(&t);
        // rejected by IS JSON on the first JSON column
        let err = t.insert(vec![2i64.into(), json("{oops"), json("{}")]).unwrap_err();
        assert!(err.message.contains("IS JSON"), "{err}");
        // rejected on the second, after the first parsed and encoded: its
        // new path and terms must not have reached the guide or the index
        let fresh = json(r#"{"tag":"arctic fox","fresh":true,"n":1}"#);
        let err = t.insert(vec![2i64.into(), fresh.clone(), json("[1,")]).unwrap_err();
        assert!(err.message.contains("IS JSON"), "{err}");
        assert!(t.insert(vec![2i64.into(), fresh.clone()]).is_err(), "a value short");
        assert_eq!(state(&t), before);

        assert_eq!(t.insert(vec![2i64.into(), fresh, json("[1]")]).unwrap(), 1);
        let ix = t.search_index.as_ref().unwrap();
        assert_eq!(ix.docs_text_contains("$.tag", "fox"), vec![0, 1]);
        assert_eq!(ix.docs_with_path("$.fresh"), vec![1]);
        assert_eq!(ix.dataguide().rows(), t.dataguide.rows(), "one signature, two equal guides");
    }

    #[test]
    fn virtual_columns_in_scan_schema() {
        use fsdm_sqljson::{parse_path, SqlType};
        let mut t = Table::new(po_schema(JsonStorage::Text, ConstraintMode::IsJson));
        t.add_virtual_column(
            "jdoc$a",
            Expr::json_value(1, parse_path("$.a").unwrap(), SqlType::Number),
        );
        assert_eq!(t.scan_column_names(), vec!["did", "jdoc", "jdoc$a"]);
        assert_eq!(t.scan_col_index("jdoc$a"), Some(2));
    }
}
