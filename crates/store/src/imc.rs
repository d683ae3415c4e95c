//! The in-memory store (§5.2).
//!
//! Two complementary caches per table:
//!
//! * **OSON-IMC** (§5.2.2): for a JSON column stored as *text* on disk, a
//!   hidden OSON encoding of every document is kept in memory; scans
//!   transparently substitute the binary for the text so "SQL/JSON queries
//!   over the JSON textual column are transparently rewritten to access
//!   the OSON virtual column instead".
//! * **VC-IMC** (§5.2.1): virtual columns (typically
//!   `JSON_VALUE(jcol, path)`) are materialized into typed column vectors
//!   — numbers as `f64` with a null slot, strings dictionary-encoded — so
//!   predicates, aggregations and projections on those columns never touch
//!   the JSON at all.

use std::collections::HashMap;
use std::sync::Arc;

use fsdm_sqljson::Datum;

use crate::jsonaccess::{JsonCell, OpenDoc};
use crate::schema::ConstraintMode;
use crate::table::{Cell, StoreError, Table};

/// A typed in-memory column vector.
#[derive(Debug, Clone)]
pub enum ColumnVector {
    /// Numeric column (`None` = SQL NULL).
    Numbers(Vec<Option<f64>>),
    /// Dictionary-encoded string column. The dictionary is sorted, so
    /// code order is string order: range kernels compare codes directly
    /// and equality probes binary-search the dictionary.
    Strings {
        /// Distinct values, ascending.
        dict: Vec<String>,
        /// Per-row dictionary codes.
        codes: Vec<Option<u32>>,
    },
    /// Boolean column.
    Bools(Vec<Option<bool>>),
}

/// A borrowed view of one vector slot: what [`ColumnVector::get`] returns
/// without the owned `Datum` (and, for dictionary entries, without the
/// `String` clone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorSlot<'a> {
    /// SQL NULL.
    Null,
    /// A numeric value.
    Num(f64),
    /// A dictionary entry, borrowed from the vector.
    Str(&'a str),
    /// A boolean value.
    Bool(bool),
}

impl VectorSlot<'_> {
    /// Materialize the slot as an owned datum.
    pub fn to_datum(self) -> Datum {
        match self {
            VectorSlot::Null => Datum::Null,
            VectorSlot::Num(x) => Datum::from(x),
            VectorSlot::Str(s) => Datum::Str(s.to_string()),
            VectorSlot::Bool(b) => Datum::Bool(b),
        }
    }
}

impl ColumnVector {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Numbers(v) => v.len(),
            ColumnVector::Strings { codes, .. } => codes.len(),
            ColumnVector::Bools(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one row back as a datum (owned; allocates for dictionary
    /// entries — scan-path callers prefer [`ColumnVector::slot`]).
    pub fn get(&self, row: usize) -> Datum {
        self.slot(row).to_datum()
    }

    /// Borrowed accessor: read one row without materializing a `Datum`.
    pub fn slot(&self, row: usize) -> VectorSlot<'_> {
        match self {
            ColumnVector::Numbers(v) => match v[row] {
                Some(x) => VectorSlot::Num(x),
                None => VectorSlot::Null,
            },
            ColumnVector::Strings { dict, codes } => match codes[row] {
                Some(c) => VectorSlot::Str(&dict[c as usize]),
                None => VectorSlot::Null,
            },
            ColumnVector::Bools(v) => match v[row] {
                Some(b) => VectorSlot::Bool(b),
                None => VectorSlot::Null,
            },
        }
    }

    /// Build from a sequence of datums, choosing the densest representation
    /// for the observed values.
    pub fn from_datums(values: &[Datum]) -> ColumnVector {
        let mut any_num = false;
        let mut any_str = false;
        let mut any_bool = false;
        for v in values {
            match v {
                Datum::Num(_) => any_num = true,
                Datum::Str(_) => any_str = true,
                Datum::Bool(_) => any_bool = true,
                Datum::Null => {}
            }
        }
        if any_str || (!any_num && !any_bool) {
            // sorted dictionary: code order == string order, which is what
            // lets range kernels compare codes and equality probes
            // binary-search instead of scanning
            let mut dict: Vec<String> =
                values.iter().filter(|v| !v.is_null()).map(|v| v.to_text()).collect();
            dict.sort();
            dict.dedup();
            let codes = values
                .iter()
                .map(|v| {
                    if v.is_null() {
                        None
                    } else {
                        let s = v.to_text();
                        Some(dict.binary_search(&s).expect("dict covers all values") as u32)
                    }
                })
                .collect();
            ColumnVector::Strings { dict, codes }
        } else if any_num {
            ColumnVector::Numbers(values.iter().map(|v| v.as_num().map(|n| n.to_f64())).collect())
        } else {
            ColumnVector::Bools(values.iter().map(|v| v.as_bool()).collect())
        }
    }
}

/// Per-table in-memory store state.
#[derive(Debug, Default)]
pub struct ImcStore {
    /// OSON bytes per row for one JSON column (`oson_col`).
    pub oson: Option<Vec<Option<Arc<Vec<u8>>>>>,
    /// Which column the OSON cache shadows.
    pub oson_col: Option<usize>,
    /// Materialized (virtual) column vectors, keyed by scan column index.
    /// Shared (`Arc`) so batch pipelines can borrow columns without
    /// holding the table borrow across kernel boundaries.
    pub vectors: HashMap<usize, Arc<ColumnVector>>,
    /// For each *virtual* column in `vectors`: the `Debug` rendering of
    /// its defining expression when the vector was populated, and its scan
    /// column index. An expression that renders the same computes the
    /// same value, so it may read the vector.
    pub vc_defs: Vec<(String, usize)>,
}

impl ImcStore {
    /// Drop all cached state (back to pure disk/TEXT mode).
    pub fn clear(&mut self) {
        self.oson = None;
        self.oson_col = None;
        self.vectors.clear();
        self.vc_defs.clear();
    }

    /// Total bytes held by the OSON cache.
    pub fn oson_bytes(&self) -> usize {
        self.oson.as_ref().map(|v| v.iter().flatten().map(|b| b.len()).sum()).unwrap_or(0)
    }
}

impl Table {
    /// Populate the hidden OSON column cache for the first JSON column
    /// (OSON-IMC mode). Text rows are parsed and encoded once here — the
    /// implicit `OSON()` constructor invocation of §5.2.2 at load time.
    pub fn populate_oson_imc(&mut self) -> Result<(), StoreError> {
        let col = self
            .schema
            .columns
            .iter()
            .position(|c| matches!(c.ty, crate::schema::ColType::Json(_)))
            .ok_or_else(|| StoreError::new("no JSON column"))?;
        let mut cache: Vec<Option<Arc<Vec<u8>>>> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            match row.get(col) {
                Some(Cell::J(JsonCell::Oson(b))) => cache.push(Some(b.clone())),
                Some(Cell::J(j)) => {
                    let doc = j.decode()?;
                    let bytes = self
                        .oson_encoder
                        .encode(&doc)
                        .map_err(|e| StoreError::new(e.to_string()))?;
                    cache.push(Some(Arc::new(bytes)));
                }
                _ => cache.push(None),
            }
        }
        self.imc.oson = Some(cache);
        self.imc.oson_col = Some(col);
        Ok(())
    }

    /// Materialize the listed scan columns (base or virtual) into IMC
    /// column vectors (VC-IMC mode).
    pub fn populate_vc_imc(&mut self, columns: &[&str]) -> Result<(), StoreError> {
        for name in columns {
            let idx = self
                .scan_col_index(name)
                .ok_or_else(|| StoreError::new(format!("no column {name}")))?;
            let width = self.schema.width();
            let mut vals = Vec::with_capacity(self.rows.len());
            // one scratch across the whole population pass: compiled-path
            // look-back caches stay warm from row to row
            let mut scratch = crate::expr::EvalScratch::new();
            for (i, row) in self.rows.iter().enumerate() {
                let d = if idx < width {
                    match &row[idx] {
                        Cell::D(d) => d.clone(),
                        Cell::J(j) => Datum::Str(j.decode_to_text()),
                    }
                } else {
                    let vc = &self.virtual_columns[idx - width];
                    // evaluate against the IMC-substituted row so VC
                    // population itself benefits from the OSON cache
                    vc.expr.eval_with(&self.imc_row(i), &mut scratch)?
                };
                vals.push(d);
            }
            self.imc.vectors.insert(idx, Arc::new(ColumnVector::from_datums(&vals)));
            if idx >= width {
                let def = format!("{:?}", self.virtual_columns[idx - width].expr);
                self.imc.vc_defs.retain(|(_, col)| *col != idx);
                self.imc.vc_defs.push((def, idx));
            }
        }
        Ok(())
    }

    /// The vector of scan column `col`, if materialized and covering every
    /// current row (`len == nrows` guards against inserts after
    /// [`Table::populate_vc_imc`]).
    pub(crate) fn vector(&self, col: usize) -> Option<&Arc<ColumnVector>> {
        self.imc.vectors.get(&col).filter(|v| v.len() == self.rows.len())
    }

    /// Every virtual column with a usable vector, as (rendering of its
    /// defining expression, scan column index, vector): what makes a
    /// resident vector a transparent accelerator for any statement that
    /// spells out its expression, whichever evaluator runs it.
    pub(crate) fn resident_vcs(&self) -> impl Iterator<Item = (&str, usize, &Arc<ColumnVector>)> {
        let defs = self.imc.vc_defs.iter();
        defs.filter_map(|(def, col)| Some((def.as_str(), *col, self.vector(*col)?)))
    }

    /// The OSON-IMC bytes shadowing `(row_id, col)`, when that column is
    /// cached and the row has an entry.
    fn imc_bytes(&self, row_id: usize, col: usize) -> Option<&Arc<Vec<u8>>> {
        let cache = self.imc.oson.as_ref().filter(|_| self.imc.oson_col == Some(col))?;
        cache.get(row_id)?.as_ref()
    }

    /// The cell a scan sees at `(row_id, col)`: the §5.2.2 transparent
    /// rewrite substitutes cached OSON bytes for the stored JSON cell.
    pub(crate) fn scan_cell(&self, row_id: usize, col: usize) -> Cell {
        match self.imc_bytes(row_id, col) {
            Some(bytes) => Cell::J(JsonCell::Oson(bytes.clone())),
            None => self.rows[row_id][col].clone(),
        }
    }

    /// The document a scan evaluates SQL/JSON operators against at
    /// `(row_id, col)`, opened once; `None` when the cell is not JSON.
    /// Text is checked when the column's `IS JSON` constraint parsed it
    /// at insert.
    pub(crate) fn open_doc(&self, row_id: usize, col: usize) -> Option<OpenDoc<'_>> {
        match self.imc_bytes(row_id, col) {
            Some(bytes) => Some(OpenDoc::oson(bytes)),
            None => match self.rows[row_id].get(col)? {
                Cell::J(JsonCell::Text(text)) => {
                    let checked = self.schema.columns[col].constraint != ConstraintMode::None;
                    Some(OpenDoc::Text { text, checked })
                }
                Cell::J(j) => Some(j.open()),
                Cell::D(_) => None,
            },
        }
    }

    /// The base row a scan of the row evaluator sees at `row_id` (every
    /// cell through [`Table::scan_cell`], so a shadowed JSON cell is never
    /// cloned), with room for every virtual column: pushing them never
    /// reallocates.
    pub fn imc_row(&self, row_id: usize) -> crate::table::Row {
        let width = self.schema.width();
        let mut out = Vec::with_capacity(width + self.virtual_columns.len());
        out.extend((0..width).map(|col| self.scan_cell(row_id, col)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonaccess::JsonStorage;
    use crate::schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
    use crate::table::InsertValue;
    use fsdm_sqljson::{parse_path, SqlType};

    fn text_table(n: usize) -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::json("j", JsonStorage::Text, ConstraintMode::IsJson),
            ],
        ));
        for i in 0..n {
            t.insert(vec![
                (i as i64).into(),
                InsertValue::Json(format!(r#"{{"v":{i},"s":"row{i}"}}"#)),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn oson_imc_population() {
        let mut t = text_table(10);
        assert_eq!(t.imc.oson_bytes(), 0);
        t.populate_oson_imc().unwrap();
        assert!(t.imc.oson_bytes() > 0);
        // rows on disk remain text; the substitution happens per scan row
        assert!(matches!(&t.rows[0][1], Cell::J(JsonCell::Text(_))));
        let sub = t.imc_row(0);
        assert!(matches!(&sub[1], Cell::J(JsonCell::Oson(_))));
        // sized for the scan's width up front: virtual cells never regrow it
        t.add_virtual_column("v", crate::expr::Expr::Lit(Datum::Null));
        assert_eq!((t.imc_row(0).len(), t.imc_row(0).capacity()), (2, 3));
        t.imc.clear();
        assert_eq!(t.imc.oson_bytes(), 0);
    }

    #[test]
    fn vc_imc_vectors() {
        let mut t = text_table(20);
        t.add_virtual_column(
            "j$v",
            crate::expr::Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number),
        );
        t.add_virtual_column(
            "j$s",
            crate::expr::Expr::json_value(1, parse_path("$.s").unwrap(), SqlType::Varchar2(16)),
        );
        t.populate_vc_imc(&["j$v", "j$s"]).unwrap();
        let vi = t.scan_col_index("j$v").unwrap();
        let si = t.scan_col_index("j$s").unwrap();
        match &*t.imc.vectors[&vi] {
            ColumnVector::Numbers(v) => {
                assert_eq!(v.len(), 20);
                assert_eq!(v[7], Some(7.0));
            }
            other => panic!("{other:?}"),
        }
        match &*t.imc.vectors[&si] {
            ColumnVector::Strings { dict, codes } => {
                assert_eq!(codes.len(), 20);
                assert_eq!(dict.len(), 20);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.imc.vectors[&vi].get(3), Datum::from(3.0));
    }

    #[test]
    fn dictionaries_are_sorted_and_codes_remapped() {
        let vals: Vec<Datum> =
            ["pear", "apple", "plum", "apple", "fig"].iter().map(|&s| Datum::from(s)).collect();
        match ColumnVector::from_datums(&vals) {
            ColumnVector::Strings { dict, codes } => {
                assert_eq!(dict, vec!["apple", "fig", "pear", "plum"]);
                let decoded: Vec<&str> =
                    codes.iter().map(|c| dict[c.unwrap() as usize].as_str()).collect();
                assert_eq!(decoded, vec!["pear", "apple", "plum", "apple", "fig"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn borrowed_slot_matches_owned_get() {
        let v = ColumnVector::from_datums(&[Datum::from("b"), Datum::Null, Datum::from("a")]);
        assert_eq!(v.slot(0), VectorSlot::Str("b"));
        assert_eq!(v.slot(1), VectorSlot::Null);
        for i in 0..3 {
            assert_eq!(v.slot(i).to_datum(), v.get(i), "row {i}");
        }
        let n = ColumnVector::from_datums(&[Datum::from(2i64), Datum::Null]);
        assert_eq!(n.slot(0), VectorSlot::Num(2.0));
        assert_eq!(n.slot(0).to_datum(), Datum::from(2i64));
    }

    #[test]
    fn vector_type_inference() {
        let nums = ColumnVector::from_datums(&[Datum::from(1i64), Datum::Null]);
        assert!(matches!(nums, ColumnVector::Numbers(_)));
        let mixed = ColumnVector::from_datums(&[Datum::from(1i64), Datum::from("x")]);
        assert!(matches!(mixed, ColumnVector::Strings { .. }));
        let bools = ColumnVector::from_datums(&[Datum::Bool(true), Datum::Null]);
        assert!(matches!(bools, ColumnVector::Bools(_)));
        assert_eq!(bools.get(1), Datum::Null);
    }

    #[test]
    fn dictionary_encoding_dedups() {
        let vals: Vec<Datum> =
            (0..100).map(|i| Datum::from(if i % 2 == 0 { "a" } else { "b" })).collect();
        match ColumnVector::from_datums(&vals) {
            ColumnVector::Strings { dict, .. } => assert_eq!(dict.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
