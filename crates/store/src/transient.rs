//! Transient columns: the morsel-local column source of the fused scan.
//!
//! A resident IMC vector exists before the statement starts. Everything
//! else a scan-rooted pipeline reads — a `JSON_VALUE` / `JSON_EXISTS`
//! leaf with no virtual-column vector, a base column straight off the
//! heap — is a **transient column**: registered once per statement in
//! [`Leaves`] when the expression is lowered (structurally equal leaves
//! share one slot), and extracted per morsel into a typed
//! [`TransientVec`] that the ordinary kernels of [`crate::vector`] then
//! read like any other vector. Nothing here outlives its morsel.
//!
//! Extraction is **selection-driven and row-major**: a pipeline stage
//! asks for the slots it is about to read and the rows still selected;
//! each of those rows is opened once ([`OpenDoc`]) and every pending
//! path of the stage runs against that one document through its own
//! slot-indexed [`fsdm_sqljson::PathEvaluator`] (so look-back caches stay
//! warm from row to row). Rows outside the selection keep a NULL slot
//! that no kernel result is ever read from, because every stage
//! intersects its mask with the selection it was extracted for.

use std::sync::Arc;
use std::time::Instant;

use fsdm_fault::catalog::FP_EXPR_EVAL;
use fsdm_json::JsonNumber;
use fsdm_sqljson::path::JsonPath;
use fsdm_sqljson::{Datum, SqlType};

use crate::expr::{EvalScratch, Expr};
use crate::govern::{fault_err, QueryGovernor};
use crate::imc::ColumnVector;
use crate::jsonaccess::OpenDoc;
use crate::parallel::RowRange;
use crate::schema::ColType;
use crate::table::{StoreError, Table};
use crate::vector::{Col, SelVec};

/// Bytes the memory budget charges per extracted slot (the width of an
/// `Option<JsonNumber>` or `Option<String>` header).
const BUDGET_BYTES_PER_SLOT: u64 = 32;

/// The slot type of a column, resident or transient: decides which
/// kernels can bind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// Numbers (`RETURNING number`, NUMBER base columns).
    Nums,
    /// Strings (`RETURNING varchar2`, VARCHAR2 base columns, JSON text).
    Strs,
    /// Booleans (`JSON_EXISTS`, `RETURNING boolean`, BOOLEAN columns).
    Bools,
}

/// What a transient column is extracted from.
#[derive(Debug, Clone)]
pub(crate) enum LeafSource {
    /// `JSON_VALUE(col, path RETURNING ty)`.
    Value { col: usize, path: Arc<JsonPath>, ty: SqlType },
    /// `JSON_EXISTS(col, path)`.
    Exists { col: usize, path: Arc<JsonPath> },
    /// A base column off the heap, as `Expr::Col` yields it: a scalar
    /// cell's datum, a JSON cell's text.
    Heap { col: usize },
}

#[derive(Debug)]
struct Leaf {
    /// `Debug` rendering of the source expression: the structural
    /// identity leaves are shared by, and their name in EXPLAIN.
    key: String,
    source: LeafSource,
    kind: ColKind,
}

/// The statement's transient-column registry, filled while its
/// expressions are lowered to kernels. A slot is an index into it.
#[derive(Debug, Default)]
pub(crate) struct Leaves {
    entries: Vec<Leaf>,
}

impl Leaves {
    /// The slot of the leaf rendered as `key`, registering it on first
    /// sight. Two expressions with the same rendering are the same
    /// column whatever `Arc` their compiled paths sit behind.
    pub(crate) fn register(&mut self, key: String, source: LeafSource, kind: ColKind) -> usize {
        if let Some(slot) = self.entries.iter().position(|l| l.key == key) {
            return slot;
        }
        self.entries.push(Leaf { key, source, kind });
        self.entries.len() - 1
    }

    /// Number of registered leaves.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `transient=[…]` annotation naming every leaf, empty without any.
    pub(crate) fn note(&self) -> String {
        if self.entries.is_empty() {
            return String::new();
        }
        let keys: Vec<&str> = self.entries.iter().map(|l| l.key.as_str()).collect();
        format!("transient=[{}]", keys.join(", "))
    }

    /// The compiled path of a path leaf (`None` for heap leaves).
    pub(crate) fn path(&self, slot: usize) -> Option<&JsonPath> {
        match &self.entries[slot].source {
            LeafSource::Value { path, .. } | LeafSource::Exists { path, .. } => Some(path),
            LeafSource::Heap { .. } => None,
        }
    }
}

/// The state one scan-rooted pipeline is lowered against: the table
/// (schema, virtual-column definitions, resident vectors) and the
/// transient columns registered so far.
pub(crate) struct Lowering<'a> {
    table: &'a Table,
    /// The transient columns the lowered kernels read, by slot.
    pub(crate) leaves: Leaves,
    /// Slots bound since the last [`Lowering::take_touched`].
    touched: Vec<usize>,
    /// Column references must stay below this index: the scan's width at
    /// the top level; inside a virtual column's definition, that column's
    /// own index (definitions see earlier columns only, as in the row
    /// evaluator, which also rules out cycles).
    limit: usize,
}

impl<'a> Lowering<'a> {
    /// Start lowering expressions over `table`'s scan schema.
    pub(crate) fn new(table: &'a Table) -> Lowering<'a> {
        let limit = table.schema.width() + table.virtual_columns.len();
        Lowering { table, leaves: Leaves::default(), touched: Vec::new(), limit }
    }

    /// The transient slots bound since the last call, each once: what
    /// the kernels lowered in between read.
    pub(crate) fn take_touched(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.touched)
    }

    /// The usable vector of scan column `col`, if this scope may see it.
    fn vector(&self, col: usize) -> Option<Arc<ColumnVector>> {
        self.table.vector(col).filter(|_| col < self.limit).cloned()
    }

    /// The vector of a virtual column defined by exactly `e` (by `Debug`
    /// rendering, the structural equality the optimizer's dedupe uses):
    /// what makes a resident vector a transparent accelerator for every
    /// statement that spells out its expression.
    pub(crate) fn materialized(&self, e: &Expr) -> Option<Arc<ColumnVector>> {
        e.resident_vc(self.table).map(|(_, v)| v.clone())
    }

    /// A resident vector as the column a kernel leaf reads.
    pub(crate) fn resident(v: Arc<ColumnVector>) -> (Col, ColKind) {
        let kind = match &*v {
            ColumnVector::Numbers(_) => ColKind::Nums,
            ColumnVector::Strings { .. } => ColKind::Strs,
            ColumnVector::Bools(_) => ColKind::Bools,
        };
        (Col::Resident(v), kind)
    }

    fn transient(&mut self, e: &Expr, source: LeafSource, kind: ColKind) -> (Col, ColKind) {
        let slot = self.leaves.register(format!("{e:?}"), source, kind);
        if !self.touched.contains(&slot) {
            self.touched.push(slot);
        }
        (Col::Transient(slot), kind)
    }

    /// Bind `e` — a column reference or a SQL/JSON operator over a JSON
    /// base column — as the column a kernel leaf reads. `as_value` marks
    /// a gather: it may not read a normalized base-column vector, and it
    /// may select a JSON column as text.
    pub(crate) fn bind(&mut self, e: &Expr, as_value: bool) -> Result<(Col, ColKind), String> {
        let not_lowered = || Err(format!("{e:?}"));
        let resident = |v| Ok(Self::resident(v));
        if let Some(v) = self.materialized(e) {
            return resident(v);
        }
        let table = self.table;
        let width = table.schema.width();
        let json_col = |col: usize| {
            table.schema.columns.get(col).is_some_and(|c| matches!(c.ty, ColType::Json(_)))
        };
        match e {
            Expr::Col(i) if *i >= self.limit => not_lowered(),
            Expr::Col(i) if *i >= width => match self.vector(*i) {
                Some(v) => resident(v),
                // no usable vector: lower the defining expression
                None => {
                    let outer = std::mem::replace(&mut self.limit, *i);
                    let bound = self.bind(&table.virtual_columns[*i - width].expr, as_value);
                    self.limit = outer;
                    bound
                }
            },
            Expr::Col(i) => match self.vector(*i).filter(|_| !as_value) {
                Some(v) => resident(v),
                None => {
                    let kind = match table.schema.columns[*i].ty {
                        ColType::Number => ColKind::Nums,
                        ColType::Varchar2(_) => ColKind::Strs,
                        ColType::Boolean => ColKind::Bools,
                        // a JSON column is selected as text, never compared
                        ColType::Json(_) if as_value => ColKind::Strs,
                        ColType::Json(_) => return not_lowered(),
                    };
                    Ok(self.transient(e, LeafSource::Heap { col: *i }, kind))
                }
            },
            Expr::JsonValue { col, path, ty } if json_col(*col) => {
                let kind = match ty {
                    SqlType::Number => ColKind::Nums,
                    SqlType::Varchar2(_) => ColKind::Strs,
                    SqlType::Boolean => ColKind::Bools,
                    // pass-through values have no single slot type
                    SqlType::Any => return not_lowered(),
                };
                Ok(self.transient(
                    e,
                    LeafSource::Value { col: *col, path: path.clone(), ty: *ty },
                    kind,
                ))
            }
            Expr::JsonExists { col, path } if json_col(*col) => {
                let source = LeafSource::Exists { col: *col, path: path.clone() };
                Ok(self.transient(e, source, ColKind::Bools))
            }
            _ => not_lowered(),
        }
    }
}

/// One morsel's values of one transient column, indexed by offset from
/// the morsel start. Numbers stay exact ([`JsonNumber`], not `f64`), so a
/// gathered value is the datum the row evaluator would have produced.
#[derive(Debug, Clone)]
pub enum TransientVec {
    /// Numeric slots.
    Nums(Vec<Option<JsonNumber>>),
    /// String slots (no dictionary: the vector lives for one morsel).
    Strs(Vec<Option<String>>),
    /// Boolean slots.
    Bools(Vec<Option<bool>>),
}

impl TransientVec {
    fn nulls(kind: ColKind, len: usize) -> TransientVec {
        match kind {
            ColKind::Nums => TransientVec::Nums(vec![None; len]),
            ColKind::Strs => TransientVec::Strs(vec![None; len]),
            ColKind::Bools => TransientVec::Bools(vec![None; len]),
        }
    }

    /// Store `d` at `off`. `RETURNING` coercion and the insert pipeline
    /// guarantee the datum's type; a mismatch is a corrupted table.
    fn set(&mut self, off: usize, d: Datum) -> Result<(), StoreError> {
        match (self, d) {
            (_, Datum::Null) => {}
            (TransientVec::Nums(v), Datum::Num(n)) => v[off] = Some(n),
            (TransientVec::Strs(v), Datum::Str(s)) => v[off] = Some(s),
            (TransientVec::Bools(v), Datum::Bool(b)) => v[off] = Some(b),
            (_, other) => {
                return Err(StoreError::new(format!(
                    "transient column: value {other} does not fit the column's type"
                )))
            }
        }
        Ok(())
    }

    /// The slot at `off` as an owned datum.
    pub fn datum(&self, off: usize) -> Datum {
        match self {
            TransientVec::Nums(v) => v[off].map_or(Datum::Null, Datum::Num),
            TransientVec::Strs(v) => v[off].clone().map_or(Datum::Null, Datum::Str),
            TransientVec::Bools(v) => v[off].map_or(Datum::Null, Datum::Bool),
        }
    }

    /// True when the slot at `off` is SQL NULL.
    pub fn is_null(&self, off: usize) -> bool {
        match self {
            TransientVec::Nums(v) => v[off].is_none(),
            TransientVec::Strs(v) => v[off].is_none(),
            TransientVec::Bools(v) => v[off].is_none(),
        }
    }
}

/// The transient columns of one morsel: one optional vector per slot of
/// the statement's [`Leaves`], filled by [`MorselCols::extract`] as the
/// pipeline's stages ask for them and dropped with the morsel — at which
/// point their memory-budget charge is handed back, so a statement is
/// billed for the morsels in flight, not for the table.
#[derive(Debug)]
pub struct MorselCols<'g> {
    range: RowRange,
    vecs: Vec<Option<TransientVec>>,
    /// `check_rows` accumulator across this morsel's extraction loops.
    checked: usize,
    governor: &'g QueryGovernor,
    /// Bytes charged to `governor` for `vecs`.
    charged: u64,
}

impl Drop for MorselCols<'_> {
    fn drop(&mut self) {
        self.governor.release(self.charged);
    }
}

impl<'g> MorselCols<'g> {
    /// No column extracted yet; `slots` is the registry's length (0 for
    /// pipelines that read resident vectors only).
    pub fn new(range: RowRange, slots: usize, governor: &'g QueryGovernor) -> MorselCols<'g> {
        let vecs = (0..slots).map(|_| None).collect();
        MorselCols { range, vecs, checked: 0, governor, charged: 0 }
    }

    /// The extracted vector of `slot`. Kernels only run after the stage
    /// that reads them has extracted their slots.
    pub fn vec(&self, slot: usize) -> &TransientVec {
        self.vecs[slot].as_ref().expect("a stage extracts its slots before its kernels run")
    }

    /// Extract the not yet extracted columns among `slots` for the rows
    /// of `sel`, one pass over the rows, one opened document per row.
    pub(crate) fn extract(
        &mut self,
        table: &Table,
        leaves: &Leaves,
        slots: &[usize],
        sel: &SelVec,
        scratch: &mut EvalScratch,
    ) -> Result<(), StoreError> {
        let mut pending: Vec<usize> = Vec::with_capacity(slots.len());
        for &s in slots {
            if self.vecs[s].is_none() && !pending.contains(&s) {
                pending.push(s);
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        fsdm_fault::fire(FP_EXPR_EVAL).map_err(fault_err)?;
        let start = Instant::now();
        let bytes = pending.len() as u64 * self.range.len() as u64 * BUDGET_BYTES_PER_SLOT;
        // booked before the charge: a refused charge is released too
        self.charged += bytes;
        self.governor.charge(bytes)?;
        for &s in &pending {
            self.vecs[s] = Some(TransientVec::nulls(leaves.entries[s].kind, self.range.len()));
        }
        let evaluators = scratch.slot_evaluators(leaves);
        for i in sel.iter() {
            self.governor.check_rows(&mut self.checked, 1)?;
            let mut doc = None;
            for &s in &pending {
                let value = match &leaves.entries[s].source {
                    LeafSource::Heap { col } => table.scan_cell(i, *col).into_datum(),
                    source @ (LeafSource::Value { col, .. } | LeafSource::Exists { col, .. }) => {
                        let doc = shared_doc(&mut doc, table, i, *col)?;
                        let ev = evaluators[s].as_mut().expect("path leaves own an evaluator");
                        match source {
                            LeafSource::Value { ty, .. } => doc.json_value(ev, *ty),
                            _ => Datum::Bool(doc.json_exists(ev)),
                        }
                    }
                };
                self.vecs[s].as_mut().expect("allocated above").set(i - self.range.start, value)?;
            }
        }
        fsdm_obs::counter!(fsdm_obs::catalog::EXEC_TRANSIENT_COLS).add(pending.len() as u64);
        fsdm_obs::counter!(fsdm_obs::catalog::EXEC_TRANSIENT_ROWS)
            .add((pending.len() * sel.len()) as u64);
        fsdm_obs::histogram!(fsdm_obs::catalog::IMC_TRANSIENT_EXTRACT_NS)
            .record(start.elapsed().as_nanos() as u64);
        Ok(())
    }
}

/// The document at `(row, col)`: opened by the first path of the row that
/// needs it, shared by the rest.
fn shared_doc<'d, 't>(
    doc: &'d mut Option<(usize, OpenDoc<'t>)>,
    table: &'t Table,
    row: usize,
    col: usize,
) -> Result<&'d OpenDoc<'t>, StoreError> {
    if !matches!(doc, Some((c, _)) if *c == col) {
        let opened = table
            .open_doc(row, col)
            .ok_or_else(|| StoreError::new("SQL/JSON operator on non-JSON column"))?;
        *doc = Some((col, opened));
    }
    Ok(&doc.as_ref().expect("opened above").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::jsonaccess::JsonStorage;
    use crate::schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
    use crate::table::InsertValue;
    use fsdm_sqljson::parse_path;

    fn table(n: usize) -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::json("j", JsonStorage::Oson, ConstraintMode::IsJson),
            ],
        ));
        for i in 0..n {
            let doc = format!(r#"{{"v":{i},"s":"row{i}"}}"#);
            t.insert(vec![(i as i64).into(), InsertValue::Json(doc)]).unwrap();
        }
        t
    }

    fn value_leaf(path: &str, ty: SqlType) -> (String, LeafSource) {
        let e = Expr::json_value(1, parse_path(path).unwrap(), ty);
        let Expr::JsonValue { col, path, ty } = &e else { unreachable!() };
        (format!("{e:?}"), LeafSource::Value { col: *col, path: path.clone(), ty: *ty })
    }

    #[test]
    fn equal_paths_behind_different_arcs_share_one_lookback_cache() {
        let t = table(10);
        let mut leaves = Leaves::default();
        // two separately parsed (hence separately `Arc`ed) equal leaves
        let (k1, s1) = value_leaf("$.v", SqlType::Number);
        let (k2, s2) = value_leaf("$.v", SqlType::Number);
        let a = leaves.register(k1, s1, ColKind::Nums);
        let b = leaves.register(k2, s2, ColKind::Nums);
        assert_eq!((a, b, leaves.len()), (0, 0, 1), "structural identity, not Arc identity");

        let range = RowRange { start: 0, end: 10 };
        let gov = QueryGovernor::unlimited();
        let mut cols = MorselCols::new(range, leaves.len(), &gov);
        let mut scratch = EvalScratch::new();
        cols.extract(&t, &leaves, &[a, b], &SelVec::All(range), &mut scratch).unwrap();
        assert_eq!(cols.vec(0).datum(7), Datum::from(7i64));
        // one evaluator saw all ten documents: nine look-back hits
        let ev = scratch.slot_evaluators(&leaves)[0].as_ref().unwrap();
        assert_eq!((ev.lookback_hits, ev.lookback_misses), (9, 1));
    }

    #[test]
    fn extraction_follows_the_selection_and_runs_once_per_slot() {
        let t = table(8);
        let mut leaves = Leaves::default();
        let (k, s) = value_leaf("$.s", SqlType::Varchar2(16));
        let slot = leaves.register(k, s, ColKind::Strs);
        let base = leaves.register("col#0".into(), LeafSource::Heap { col: 0 }, ColKind::Nums);
        let range = RowRange { start: 4, end: 8 };
        let gov = QueryGovernor::unlimited();
        let mut cols = MorselCols::new(range, leaves.len(), &gov);
        let mut scratch = EvalScratch::new();
        let sel = SelVec::Ids(vec![5, 7]);
        cols.extract(&t, &leaves, &[slot, base], &sel, &mut scratch).unwrap();
        assert_eq!(cols.vec(slot).datum(1), Datum::from("row5"));
        assert_eq!(cols.vec(base).datum(3), Datum::from(7i64));
        assert!(cols.vec(slot).is_null(0), "row 4 was not selected, so never opened");
        // a later stage over a narrower selection reuses the vectors
        let ev_hits = |s: &mut EvalScratch| {
            let ev = s.slot_evaluators(&leaves)[slot].as_ref().unwrap();
            ev.lookback_hits + ev.lookback_misses
        };
        let before = ev_hits(&mut scratch);
        cols.extract(&t, &leaves, &[slot], &SelVec::Ids(vec![7]), &mut scratch).unwrap();
        assert_eq!(ev_hits(&mut scratch), before, "no second evaluation");
    }

    #[test]
    fn extraction_charges_the_budget_for_the_life_of_the_morsel() {
        let t = table(8);
        let mut leaves = Leaves::default();
        let (k, s) = value_leaf("$.v", SqlType::Number);
        let slot = leaves.register(k, s, ColKind::Nums);
        // room for one 4-row column (4 x 32 bytes), not for two
        let gov = QueryGovernor::for_statement(Default::default(), None, Some(200));
        let mut scratch = EvalScratch::new();
        for start in [0, 4] {
            let range = RowRange { start, end: start + 4 };
            let mut cols = MorselCols::new(range, 1, &gov);
            cols.extract(&t, &leaves, &[slot], &SelVec::All(range), &mut scratch)
                .expect("the previous morsel's charge was released with it");
        }
        assert_eq!(gov.mem_highwater(), 128, "one morsel live at a time");
        let range = RowRange { start: 0, end: 8 };
        let err = MorselCols::new(range, 1, &gov)
            .extract(&t, &leaves, &[slot], &SelVec::All(range), &mut scratch)
            .unwrap_err();
        assert_eq!(err.kind, crate::table::ErrorKind::BudgetExceeded);
    }
}
