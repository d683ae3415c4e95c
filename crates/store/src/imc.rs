//! The in-memory store (§5.2).
//!
//! Two complementary caches per table:
//!
//! * **OSON-IMC** (§5.2.2): for a JSON column, every document is kept in
//!   memory as a member of one [`OsonSet`] (§7's set encoding: the
//!   column's field names are held once, in the set's dictionary, and a
//!   member's field ids index it). `Table::open_doc` — the one place
//!   the fused scan opens a document — substitutes the member for the
//!   stored cell, so "SQL/JSON queries over the JSON textual column are
//!   transparently rewritten to access the OSON virtual column instead".
//!   A row has no member when its cell is SQL NULL, its text does not
//!   parse, its document would take the set past its 65 535 names, or it
//!   was written after population: it reads its stored cell. The row
//!   evaluator always reads stored cells, so it stays an oracle that does
//!   not depend on the IMC.
//! * **VC-IMC** (§5.2.1): base and virtual columns (typically
//!   `JSON_VALUE(jcol, path)`) are materialized into column vectors that
//!   hold exactly the datums the column produces — exact numbers, strings
//!   dictionary-encoded, a column whose values mix kinds held whole — so
//!   predicates, aggregations and projections on those columns never touch
//!   the JSON at all, and reading a vector changes no answer. Virtual
//!   columns are computed by the spine, hence through `Table::open_doc`
//!   too.

use std::collections::HashMap;
use std::sync::Arc;

use fsdm_json::JsonNumber;
use fsdm_oson::{OsonDoc, OsonSet};
use fsdm_sqljson::Datum;

use crate::expr::EvalScratch;
use crate::govern::QueryGovernor;
use crate::jsonaccess::{JsonCell, OpenDoc};
use crate::parallel::RowRange;
use crate::schema::ConstraintMode;
use crate::table::{Cell, Row, StoreError, Table};
use crate::transient::{Lowering, MorselCols, Rows};
use crate::vector::Batch;

/// A typed in-memory column vector: exactly the datums its column
/// produced, so reading it back changes no answer.
#[derive(Debug, Clone)]
pub enum ColumnVector {
    /// Numeric column (`None` = SQL NULL), as exact as the row path's
    /// [`JsonNumber`]s.
    Numbers(Vec<Option<JsonNumber>>),
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
    /// A column whose values mix kinds, held whole (`Datum::Null` for
    /// NULL): read back exactly and bound by no comparison kernel, like a
    /// transient `RETURNING any` column.
    Any(Vec<Datum>),
}

impl ColumnVector {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Numbers(v) => v.len(),
            ColumnVector::Strings { codes, .. } => codes.len(),
            ColumnVector::Bools(v) => v.len(),
            ColumnVector::Any(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot at `row` as an owned datum.
    pub fn datum(&self, row: usize) -> Datum {
        match self {
            ColumnVector::Numbers(v) => v[row].map_or(Datum::Null, Datum::Num),
            ColumnVector::Strings { dict, codes } => {
                codes[row].map_or(Datum::Null, |c| Datum::Str(dict[c as usize].clone()))
            }
            ColumnVector::Bools(v) => v[row].map_or(Datum::Null, Datum::Bool),
            ColumnVector::Any(v) => v[row].clone(),
        }
    }

    /// True when the slot at `row` is SQL NULL.
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            ColumnVector::Numbers(v) => v[row].is_none(),
            ColumnVector::Strings { codes, .. } => codes[row].is_none(),
            ColumnVector::Bools(v) => v[row].is_none(),
            ColumnVector::Any(v) => v[row].is_null(),
        }
    }

    /// Build from a column's datums: typed when every non-null value has
    /// one kind (an all-NULL column is an empty dictionary), whole when
    /// they mix kinds.
    pub fn from_datums(values: Vec<Datum>) -> ColumnVector {
        let first = values.iter().find(|v| !v.is_null());
        let kind = first.map(std::mem::discriminant);
        if values.iter().any(|v| !v.is_null() && Some(std::mem::discriminant(v)) != kind) {
            return ColumnVector::Any(values);
        }
        let vals = values.iter();
        match first {
            Some(Datum::Num(_)) => ColumnVector::Numbers(vals.map(Datum::as_num).collect()),
            Some(Datum::Bool(_)) => ColumnVector::Bools(vals.map(Datum::as_bool).collect()),
            _ => {
                // sorted dictionary: code order == string order, which is
                // what lets range kernels compare codes and equality probes
                // binary-search instead of scanning
                let mut dict: Vec<String> =
                    values.iter().filter_map(Datum::as_str).map(str::to_owned).collect();
                dict.sort();
                dict.dedup();
                let code = |s: &str| dict.binary_search_by(|d| d.as_str().cmp(s));
                let codes = values
                    .iter()
                    .map(|v| Some(code(v.as_str()?).expect("dict covers all values") as u32))
                    .collect();
                ColumnVector::Strings { dict, codes }
            }
        }
    }
}

/// The OSON-IMC of one JSON column: the documents of its rows as the
/// members of one [`OsonSet`].
#[derive(Debug)]
pub(crate) struct OsonImc {
    /// The JSON column the set shadows.
    col: usize,
    /// The documents, in row order.
    set: OsonSet,
    /// Per row at population: its member in `set`, or [`NO_MEMBER`] (also
    /// once a write has changed the row).
    member: Vec<u32>,
}

/// A row of [`OsonImc::member`] whose document is not in the set.
pub(crate) const NO_MEMBER: u32 = u32::MAX;

/// Per-table in-memory store state.
#[derive(Debug, Default)]
pub struct ImcStore {
    /// The OSON-IMC, once populated.
    pub(crate) oson: Option<OsonImc>,
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
    /// Forget what the store derived from `row`, which a write has just
    /// added or changed: its member, so the row reads its stored cell (a
    /// row added after population has none to forget), and every vector,
    /// since each is a whole column. The set itself stays.
    pub(crate) fn forget(&mut self, row: usize) {
        if let Some(m) = self.oson.as_mut().and_then(|imc| imc.member.get_mut(row)) {
            *m = NO_MEMBER;
        }
        if !self.vectors.is_empty() {
            self.vectors.clear();
            self.vc_defs.clear();
        }
    }

    /// Heap bytes held by the OSON-IMC: [`OsonSet::heap_size`], which
    /// counts every byte the set holds — members, their entries, the
    /// shared dictionary with its index and the set's encoder buffers.
    pub fn oson_bytes(&self) -> usize {
        self.oson.as_ref().map_or(0, |imc| imc.set.heap_size())
    }

    /// The OSON-IMC's set, once populated.
    pub fn oson_set(&self) -> Option<&OsonSet> {
        self.oson.as_ref().map(|imc| &imc.set)
    }

    /// The OSON-IMC's set and, per row, its member in it ([`NO_MEMBER`]
    /// for none), when column `col` is the one cached. Members ascend with
    /// their rows: population hands them out in row order, and a write
    /// only clears a row's.
    pub(crate) fn members(&self, col: usize) -> Option<(&OsonSet, &[u32])> {
        let imc = self.oson.as_ref().filter(|imc| imc.col == col)?;
        Some((&imc.set, &imc.member))
    }

    /// The member standing in for the cell at `(row, col)`, opened; `None`
    /// when the column is not cached or the row has no member.
    fn member(&self, row: usize, col: usize) -> Option<fsdm_oson::Result<OsonDoc<'_>>> {
        let imc = self.oson.as_ref().filter(|imc| imc.col == col)?;
        let m = *imc.member.get(row)?;
        (m != NO_MEMBER).then(|| imc.set.doc(m as usize))
    }
}

impl Table {
    /// Populate the OSON-IMC for the first JSON column: each row's
    /// document is pushed into one [`OsonSet`] — the implicit `OSON()`
    /// constructor invocation of §5.2.2 at load time, with §7's shared
    /// dictionary. A row whose cell is SQL NULL, whose text does not
    /// parse, or whose document the set refuses (its 65 535-name limit)
    /// gets no member and is read from its stored cell.
    pub fn populate_oson_imc(&mut self) -> Result<(), StoreError> {
        let col = self.json_col().ok_or_else(|| StoreError::new("no JSON column"))?;
        let mut set = OsonSet::new();
        let member = self
            .rows
            .iter()
            .map(|row| {
                let Some(Cell::J(cell)) = row.get(col) else { return NO_MEMBER };
                let doc = cell.decode().ok();
                match doc.map(|doc| set.push(&doc)) {
                    Some(Ok(())) => u32::try_from(set.len() - 1).unwrap_or(NO_MEMBER),
                    _ => NO_MEMBER,
                }
            })
            .collect();
        self.imc.oson = Some(OsonImc { col, set, member });
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
            let vals: Vec<Datum> = if idx < width {
                self.rows.iter().map(|row| row[idx].clone().into_datum()).collect()
            } else {
                self.virtual_values(idx)?
            };
            self.imc.vectors.insert(idx, Arc::new(ColumnVector::from_datums(vals)));
            if idx >= width {
                let def = format!("{:?}", self.virtual_columns[idx - width].expr);
                self.imc.vc_defs.retain(|(_, col)| *col != idx);
                self.imc.vc_defs.push((def, idx));
            }
        }
        Ok(())
    }

    /// Virtual column `idx` of every row, computed as the spine gathers a
    /// projection over one morsel spanning the table: its definition
    /// lowered to a gather kernel, whose SQL/JSON leaves open each
    /// document through [`Table::open_doc`] — so population reads the
    /// OSON-IMC when it is there.
    fn virtual_values(&self, idx: usize) -> Result<Vec<Datum>, StoreError> {
        let mut lw = Lowering::new(self);
        let kernel = lw
            .defining(idx, |lw, def| def.compile_value(lw))
            .ok_or_else(|| StoreError::new(format!("no virtual column at {idx}")))?;
        let slots = lw.take_touched();
        let range = RowRange { start: 0, end: self.rows.len() };
        let governor = QueryGovernor::unlimited();
        let mut cols = MorselCols::new(range, lw.leaves.len(), &governor);
        let batch = Batch::all(range);
        let mut scratch = EvalScratch::new();
        cols.extract(&Rows::Table(self), &lw.leaves, &slots, &batch.sel, &mut scratch)?;
        batch.gather(&kernel, &cols)
    }

    /// The vector of scan column `col`, if materialized: a write drops
    /// every vector, so one that is there covers every row.
    pub(crate) fn vector(&self, col: usize) -> Option<&Arc<ColumnVector>> {
        self.imc.vectors.get(&col)
    }

    /// Every virtual column with a usable vector, as (rendering of its
    /// defining expression, scan column index, vector): what makes a
    /// resident vector a transparent accelerator for any statement that
    /// spells out its expression, whichever evaluator runs it.
    pub(crate) fn resident_vcs(&self) -> impl Iterator<Item = (&str, usize, &Arc<ColumnVector>)> {
        let defs = self.imc.vc_defs.iter();
        defs.filter_map(|(def, col)| Some((def.as_str(), *col, self.vector(*col)?)))
    }

    /// The document a scan evaluates SQL/JSON operators against at
    /// `(row_id, col)`, opened once; `None` when the cell is not JSON.
    /// The one place the OSON-IMC substitutes for a stored cell: a row
    /// with a member reads it. Text is checked when the column's `IS
    /// JSON` constraint parsed it at insert.
    pub(crate) fn open_doc(&self, row_id: usize, col: usize) -> Option<OpenDoc<'_>> {
        if let Some(member) = self.imc.member(row_id, col) {
            return Some(member.map_or(OpenDoc::Invalid, OpenDoc::Oson));
        }
        match self.rows[row_id].get(col)? {
            Cell::J(JsonCell::Text(text)) => {
                let checked = self.schema.columns[col].constraint != ConstraintMode::None;
                Some(OpenDoc::Text { text, checked })
            }
            Cell::J(j) => Some(j.open()),
            Cell::D(_) => None,
        }
    }

    /// The base row the row evaluator's scan sees at `row_id`: the stored
    /// cells, never the OSON-IMC's, with room for every virtual column:
    /// pushing them never reallocates.
    pub fn imc_row(&self, row_id: usize) -> Row {
        let mut out = Vec::with_capacity(self.schema.width() + self.virtual_columns.len());
        out.extend_from_slice(&self.rows[row_id]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::expr::{ArithOp, CmpOp, Expr};
    use crate::jsonaccess::JsonStorage;
    use crate::query::Query;
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
        let set = t.imc.oson_set().unwrap();
        assert_eq!((set.len(), set.dictionary().len()), (10, 2), "one name each, held once");
        // the scan opens the member; the row evaluator reads the stored text
        let Some(OpenDoc::Oson(doc)) = t.open_doc(3, 1) else { panic!("a member") };
        assert_eq!(doc.as_bytes(), set.doc(3).unwrap().as_bytes());
        assert!(matches!(&t.imc_row(3)[1], Cell::J(JsonCell::Text(_))));
        assert!(matches!(&t.rows[3][1], Cell::J(JsonCell::Text(_))));
        // sized for the scan's width up front: virtual cells never regrow it
        t.add_virtual_column("v", crate::expr::Expr::Lit(Datum::Null));
        assert_eq!((t.imc_row(0).len(), t.imc_row(0).capacity()), (2, 3));
        // a written row reads its stored cell; the set stays
        let bytes = t.imc.oson_bytes();
        t.set_json_cell(3, 1, JsonCell::raw_text(r#"{"v":30}"#)).unwrap();
        assert_eq!(t.imc.oson_bytes(), bytes);
        assert!(matches!(t.open_doc(3, 1), Some(OpenDoc::Text { checked: true, .. })));
    }

    /// `plan` over `t` on the spine and on the row evaluator, which must
    /// agree: the answer.
    fn spine_and_rows(t: Table, plan: &Query) -> Vec<Vec<Datum>> {
        let mut db = Database::new();
        db.add_table(t);
        let spine = db.execute(plan).unwrap();
        db.set_columnar(false);
        assert_eq!(db.execute(plan).unwrap(), spine, "the row evaluator disagrees");
        spine.rows
    }

    /// `$.v` and `$.s` of every row of `t`, with its id.
    fn v_and_s() -> Query {
        Query::scan("t").project(vec![
            ("id", Expr::Col(0)),
            ("v", Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number)),
            ("s", Expr::json_exists(1, parse_path("$.s").unwrap())),
        ])
    }

    fn has_member(t: &Table, row: usize) -> bool {
        t.imc.member(row, 1).is_some()
    }

    #[test]
    fn a_sql_null_cell_gets_no_member() {
        // no insert stores SQL NULL in a JSON column; population skips it
        let table = || {
            let mut t = text_table(3);
            t.rows.push(vec![Cell::D(Datum::from(3i64)), Cell::D(Datum::Null)]);
            t.populate_oson_imc().unwrap();
            t
        };
        let t = table();
        assert_eq!((has_member(&t, 2), has_member(&t, 3)), (true, false));
        assert!(t.open_doc(3, 1).is_none(), "no document to open");
        let whole = spine_and_rows(t, &Query::scan("t"));
        assert_eq!(whole[3], [Datum::from(3i64), Datum::Null]);
        // a SQL/JSON operator over the NULL cell errs on either executor
        let not_null = Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Lit(Datum::from(3i64)));
        let plan = Query::scan_where("t", not_null)
            .project(vec![("v", Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number))]);
        assert_eq!(spine_and_rows(table(), &plan).len(), 3);
    }

    #[test]
    fn text_that_does_not_parse_gets_no_member() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::json("j", JsonStorage::Text, ConstraintMode::None),
            ],
        ));
        for (i, text) in [r#"{"v":1,"s":"a"}"#, r#"{"v":2,"s":"#, r#"{"v":3}"#].iter().enumerate() {
            t.insert(vec![(i as i64).into(), InsertValue::Json(text.to_string())]).unwrap();
        }
        t.populate_oson_imc().unwrap();
        assert_eq!((0..3).map(|r| has_member(&t, r)).collect::<Vec<_>>(), [true, false, true]);
        assert!(matches!(t.open_doc(1, 1), Some(OpenDoc::Text { checked: false, .. })));
        let rows = spine_and_rows(t, &v_and_s());
        assert_eq!(rows[0][1..], [Datum::from(1i64), Datum::Bool(true)]);
        assert_eq!(rows[2][1..], [Datum::from(3i64), Datum::Bool(false)]);
    }

    #[test]
    fn a_document_past_the_name_limit_gets_no_member() {
        let wide = |names: std::ops::Range<usize>| {
            let fields: Vec<String> = names.map(|i| format!(r#""f{i}":{i}"#)).collect();
            format!(r#"{{"v":0,{}}}"#, fields.join(","))
        };
        let mut t = text_table(0);
        for (i, text) in [wide(0..65_000), wide(65_000..66_000), r#"{"v":2,"s":"x"}"#.into()]
            .into_iter()
            .enumerate()
        {
            t.insert(vec![(i as i64).into(), InsertValue::Json(text)]).unwrap();
        }
        t.populate_oson_imc().unwrap();
        assert_eq!((0..3).map(|r| has_member(&t, r)).collect::<Vec<_>>(), [true, false, true]);
        let set = t.imc.oson_set().unwrap();
        assert_eq!((set.len(), set.dictionary().len()), (2, 65_002), "the refusal left nothing");
        let plan = Query::scan("t").project(vec![
            ("f", Expr::json_value(1, parse_path("$.f65500").unwrap(), SqlType::Number)),
            ("s", Expr::json_value(1, parse_path("$.s").unwrap(), SqlType::Varchar2(4))),
        ]);
        let rows = spine_and_rows(t, &plan);
        assert_eq!(rows[1], [Datum::from(65_500i64), Datum::Null]);
        assert_eq!(rows[2], [Datum::Null, Datum::from("x")]);
    }

    #[test]
    fn a_row_written_after_population_gets_no_member() {
        let mut t = text_table(4);
        t.populate_oson_imc().unwrap();
        t.insert(vec![4i64.into(), InsertValue::Json(r#"{"v":40,"s":"late"}"#.into())]).unwrap();
        t.set_json_cell(1, 1, JsonCell::raw_text(r#"{"v":10}"#)).unwrap();
        let members: Vec<bool> = (0..5).map(|r| has_member(&t, r)).collect();
        assert_eq!(members, [true, false, true, true, false], "only the written rows");
        assert_eq!(t.imc.oson_set().map(OsonSet::len), Some(4), "the set stays");
        assert!(matches!(t.open_doc(4, 1), Some(OpenDoc::Text { checked: true, .. })));
        let rows = spine_and_rows(t, &v_and_s());
        assert_eq!(rows[1], [Datum::from(1i64), Datum::from(10i64), Datum::Bool(false)]);
        assert_eq!(rows[4], [Datum::from(4i64), Datum::from(40i64), Datum::Bool(true)]);
    }

    #[test]
    fn a_write_drops_every_vector() {
        let mut t = text_table(3);
        t.add_virtual_column("v", Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number));
        let written: [fn(&mut Table); 2] = [
            |t| {
                assert_eq!(
                    t.insert(vec![9i64.into(), InsertValue::Json(r#"{"v":9}"#.into())]),
                    Ok(3)
                )
            },
            |t| t.set_json_cell(0, 1, JsonCell::raw_text(r#"{"v":7}"#)).unwrap(),
        ];
        for write in written {
            t.populate_vc_imc(&["id", "v"]).unwrap();
            assert_eq!((t.imc.vectors.len(), t.imc.vc_defs.len()), (2, 1));
            write(&mut t);
            assert!(t.imc.vectors.is_empty() && t.imc.vc_defs.is_empty());
        }
        // a refused write changes nothing
        t.populate_vc_imc(&["v"]).unwrap();
        assert!(t.set_json_cell(0, 1, JsonCell::raw_text("{oops")).is_err());
        assert_eq!(t.imc.vectors.len(), 1);
        let rows = spine_and_rows(t, &Query::scan("t"));
        assert_eq!(rows[0], [Datum::from(0i64), Datum::from(r#"{"v":7}"#), Datum::from(7i64)]);
    }

    #[test]
    fn the_set_holds_nobench_in_fewer_bytes_than_instances() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let docs: Vec<_> = (0..2000).map(|i| fsdm_workloads::nobench::doc(&mut rng, i)).collect();
        let mut t = text_table(0);
        for (i, d) in docs.iter().enumerate() {
            t.insert(vec![(i as i64).into(), InsertValue::Json(fsdm_json::to_string(d))]).unwrap();
        }
        t.populate_oson_imc().unwrap();
        let instances: usize = docs.iter().map(|d| fsdm_oson::encode(d).unwrap().len()).sum();
        let set = t.imc.oson_bytes();
        assert!(
            set as f64 <= 0.93 * instances as f64,
            "the set holds {set} bytes, per-row instances {instances}"
        );
    }

    #[test]
    fn vectors_read_members_and_hold_what_the_row_evaluator_computes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut t = text_table(0);
        for i in 0..300 {
            let text = fsdm_json::to_string(&fsdm_workloads::nobench::doc(&mut rng, i));
            t.insert(vec![(i as i64).into(), InsertValue::Json(text)]).unwrap();
        }
        let p = |s: &str| parse_path(s).unwrap();
        let text = SqlType::Varchar2(4000);
        let defs = [
            ("num", Expr::json_value(1, p("$.num"), SqlType::Number)),
            // a number in even documents, a string in odd ones
            ("dyn1", Expr::json_value(1, p("$.dyn1"), SqlType::Number)),
            ("dyn1s", Expr::json_value(1, p("$.dyn1"), text)),
            ("nstr", Expr::json_value(1, p("$.nested_obj.str"), text)),
            ("x110", Expr::json_exists(1, p("$.sparse_110"))),
            ("twice", Expr::Arith(Box::new(Expr::Col(2)), ArithOp::Mul, Box::new(Expr::Col(2)))),
        ];
        for (name, e) in &defs {
            t.add_virtual_column(*name, e.clone());
        }
        t.populate_oson_imc().unwrap();
        let names: Vec<&str> = defs.iter().map(|(n, _)| *n).collect();
        t.populate_vc_imc(&names).unwrap();
        assert_eq!(t.imc.vectors.len(), defs.len());
        let width = t.schema.width();
        for (k, (name, e)) in defs.iter().enumerate() {
            let mut oracle = Vec::new();
            for i in 0..t.len() {
                let mut row = t.imc_row(i);
                for vc in &t.virtual_columns[..k] {
                    let value = vc.expr.eval(&row).unwrap();
                    row.push(Cell::D(value));
                }
                oracle.push(e.eval(&row).unwrap());
            }
            // slot by slot: a lossy encoding cannot hide behind itself
            let v = &t.imc.vectors[&(width + k)];
            for (i, want) in oracle.iter().enumerate() {
                assert_eq!(format!("{:?}", v.datum(i)), format!("{want:?}"), "{name} row {i}");
                assert_eq!(v.is_null(i), want.is_null(), "{name} row {i}");
            }
        }
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
                assert_eq!(v[7], Some(JsonNumber::Int(7)));
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
        assert_eq!(t.imc.vectors[&vi].datum(3), Datum::from(3i64));
    }

    #[test]
    fn dictionaries_are_sorted_and_codes_remapped() {
        let vals: Vec<Datum> =
            ["pear", "apple", "plum", "apple", "fig"].iter().map(|&s| Datum::from(s)).collect();
        match ColumnVector::from_datums(vals) {
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
    fn datum_and_is_null_read_back_every_slot() {
        let v = ColumnVector::from_datums(vec![Datum::from("b"), Datum::Null, Datum::from("a")]);
        assert_eq!(
            (v.datum(0), v.datum(1), v.datum(2)),
            (Datum::from("b"), Datum::Null, "a".into())
        );
        assert_eq!((v.is_null(0), v.is_null(1)), (false, true));
        // numbers stay the row path's: beyond i64 and past f64's digits
        let exact = |s: &str| Datum::Num(JsonNumber::from_literal(s).unwrap());
        let nums = [exact("12345678901234567891"), exact("0.12345678901234567891"), Datum::Null];
        let n = ColumnVector::from_datums(nums.to_vec());
        for (i, want) in nums.iter().enumerate() {
            assert_eq!(format!("{:?}", n.datum(i)), format!("{want:?}"), "row {i}");
        }
        assert!(n.is_null(2));
    }

    #[test]
    fn vector_type_inference() {
        let nums = ColumnVector::from_datums(vec![Datum::from(1i64), Datum::Null]);
        assert!(matches!(nums, ColumnVector::Numbers(_)));
        // mixed kinds are held whole, not rendered to text
        let values = vec![Datum::from(5i64), Datum::from("abc"), Datum::Bool(true), Datum::Null];
        let mixed = ColumnVector::from_datums(values.clone());
        assert!(matches!(mixed, ColumnVector::Any(_)));
        assert_eq!((0..4).map(|i| mixed.datum(i)).collect::<Vec<_>>(), values);
        assert!(mixed.is_null(3));
        let bools = ColumnVector::from_datums(vec![Datum::Bool(true), Datum::Null]);
        assert!(matches!(bools, ColumnVector::Bools(_)));
        assert_eq!(bools.datum(1), Datum::Null);
        let nulls = ColumnVector::from_datums(vec![Datum::Null; 2]);
        assert!(matches!(nulls, ColumnVector::Strings { ref dict, .. } if dict.is_empty()));
    }

    #[test]
    fn dictionary_encoding_dedups() {
        let vals: Vec<Datum> =
            (0..100).map(|i| Datum::from(if i % 2 == 0 { "a" } else { "b" })).collect();
        match ColumnVector::from_datums(vals) {
            ColumnVector::Strings { dict, .. } => assert_eq!(dict.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
