//! Transient columns: the morsel-local column source of the fused scan.
//!
//! A resident IMC vector exists before the statement starts. Everything
//! else a scan-rooted pipeline reads — a `JSON_VALUE` / `JSON_EXISTS`
//! leaf with no virtual-column vector, a base column straight off the
//! heap — is a **transient column**: registered once per statement in
//! `Leaves` when the expression is lowered (structurally equal leaves
//! share one slot), and extracted per morsel into a typed
//! [`TransientVec`] that the ordinary kernels of [`crate::vector`] then
//! read like any other vector. Nothing here outlives its morsel.
//!
//! Extraction is **selection-driven and row-major**: a pipeline stage
//! asks for the slots it is about to read and the rows still selected;
//! each of those rows is opened once, by `Table::open_doc` — the one
//! place an OSON-IMC member stands in for the stored cell — and every
//! pending path of the stage over that column is answered from that one
//! document (`PathSlots`): a binary document through each slot's own
//! [`fsdm_sqljson::PathEvaluator`] (so look-back caches stay warm from
//! row to row, and over set members each name resolves once), a text
//! document in **one** [`TextPass`] for all of them. A heap leaf reads
//! the stored cell.
//! Rows outside the selection keep a NULL slot that no kernel result is
//! ever read from, because every stage intersects its mask with the
//! selection it was extracted for.
//!
//! A pipeline whose source is a `JsonTable` has a second row space:
//! the surviving documents of a morsel are expanded (`Expanded`) into
//! one row per (master node, detail node, …), each remembering its parent
//! document and the context node of every definition block on its path.
//! Transient columns over that space are extracted the same way, stage by
//! stage, for the expanded rows still selected — a JSON_TABLE column from
//! its block's context node, anything of the scan's from the parent.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fsdm_fault::catalog::FP_EXPR_EVAL;
use fsdm_json::{JsonNumber, JsonValue};
use fsdm_obs::catalog::metric;
use fsdm_sqljson::json_table::{ColKind as TableColKind, ColumnDef, Ctx, JsonTableCursor};
use fsdm_sqljson::path::JsonPath;
use fsdm_sqljson::streaming::{TextPass, Want};
use fsdm_sqljson::{Datum, JsonTableDef, PathEvaluator, SqlType};

use crate::expr::{EvalScratch, Expr};
use crate::govern::{fault_err, QueryGovernor};
use crate::imc::ColumnVector;
use crate::jsonaccess::{with_dom, Dom, OpenDoc};
use crate::parallel::RowRange;
use crate::schema::ColType;
use crate::table::{StoreError, Table};
use crate::vector::{Col, SelVec, ValKernel};

/// Bytes the memory budget charges per extracted slot (the width of an
/// `Option<JsonNumber>` or `Option<String>` header).
const BUDGET_BYTES_PER_SLOT: u64 = 32;
/// Bytes the memory budget charges per byte of a text document held
/// parsed for a morsel visit (the value tree plus its DOM index; coarse,
/// but monotone in the real footprint).
const BUDGET_PARSE_BYTES_PER_TEXT_BYTE: u64 = 4;

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
    /// Any datum (`RETURNING any`): read back whole, bound by no
    /// comparison kernel.
    Any,
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
    /// Column `col` (by position) of the JSON_TABLE the pipeline expands.
    JsonTable { col: usize },
    /// A resident vector, read through the parent of an expanded row (a
    /// kernel over expanded rows cannot index it by row id).
    Resident(Arc<ColumnVector>),
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

    /// `transient=[…]` annotation naming every leaf extracted from the
    /// table (JSON_TABLE columns are reported on their own operator),
    /// empty without any.
    pub(crate) fn note(&self) -> String {
        let scan = |l: &&Leaf| !matches!(l.source, LeafSource::JsonTable { .. });
        let keys: Vec<&str> = self.entries.iter().filter(scan).map(|l| l.key.as_str()).collect();
        if keys.is_empty() {
            return String::new();
        }
        format!("transient=[{}]", keys.join(", "))
    }

    /// The JSON_TABLE columns among the leaves, by position, ascending:
    /// the expansion's column demand.
    pub(crate) fn table_cols(&self) -> Vec<usize> {
        let col = |l: &Leaf| match l.source {
            LeafSource::JsonTable { col } => Some(col),
            _ => None,
        };
        let mut cols: Vec<usize> = self.entries.iter().filter_map(col).collect();
        cols.sort_unstable();
        cols
    }

    /// The compiled path of a path leaf and what it answers (`None` for
    /// the others).
    pub(crate) fn path(&self, slot: usize) -> Option<(&JsonPath, Want)> {
        match &self.entries[slot].source {
            LeafSource::Value { path, ty, .. } => Some((path, Want::Value(*ty))),
            LeafSource::Exists { path, .. } => Some((path, Want::Exists)),
            _ => None,
        }
    }

    /// The path leaves among `slots`, grouped by the JSON column they
    /// read, in first-seen order: a row answers each group from one open
    /// document.
    fn path_groups(&self, slots: &[usize]) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for &s in slots {
            let (LeafSource::Value { col, .. } | LeafSource::Exists { col, .. }) =
                self.entries[s].source
            else {
                continue;
            };
            match groups.iter_mut().find(|(c, _)| *c == col) {
                Some((_, group)) => group.push(s),
                None => groups.push((col, vec![s])),
            }
        }
        groups
    }
}

/// One worker's evaluation state for a statement's path leaves, built on
/// first use: a DOM evaluator per slot, for binary documents, and a
/// [`TextPass`] per group of slots a stage reads together from one text
/// column — so a stage scans a text document once, whatever the number
/// of its paths (§5.1).
#[derive(Default)]
pub(crate) struct PathSlots {
    /// One evaluator per slot (`None` for a leaf that is not a path).
    pub(crate) evaluators: Vec<Option<PathEvaluator>>,
    /// Text passes, by the slots they answer.
    passes: Vec<(Vec<usize>, TextPass<'static>)>,
}

impl PathSlots {
    /// Build the evaluators for `leaves`, if not yet built.
    pub(crate) fn ready(&mut self, leaves: &Leaves) {
        if self.evaluators.is_empty() {
            self.evaluators = (0..leaves.len())
                .map(|s| leaves.path(s).map(|(p, _)| PathEvaluator::new(p.clone())))
                .collect();
        }
    }

    /// The value of each path leaf of `group` (all over the column `doc`
    /// was opened at), handed to `put` with its slot.
    fn answer(
        &mut self,
        doc: &OpenDoc<'_>,
        leaves: &Leaves,
        group: &[usize],
        mut put: impl FnMut(usize, Datum) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        if let OpenDoc::Text { text, checked } = *doc {
            let pass = match self.passes.iter().position(|(g, _)| g == group) {
                Some(i) => &mut self.passes[i].1,
                None => {
                    let paths = group.iter().filter_map(|&s| leaves.path(s));
                    let pass = TextPass::new(paths.map(|(p, want)| (Cow::Owned(p.clone()), want)));
                    self.passes.push((group.to_vec(), pass));
                    &mut self.passes.last_mut().expect("pushed above").1
                }
            };
            // a text that fails to scan leaves the answers its verdicts
            let _ = pass.run(text, checked);
            return group.iter().enumerate().try_for_each(|(i, &s)| put(s, pass.take(i)));
        }
        for &s in group {
            let ev = self.evaluators[s].as_mut().expect("path leaves own an evaluator");
            put(
                s,
                match leaves.path(s) {
                    Some((_, Want::Value(ty))) => doc.json_value(ev, ty),
                    _ => Datum::Bool(doc.json_exists(ev)),
                },
            )?;
        }
        Ok(())
    }
}

/// The state one scan-rooted pipeline is lowered against: the table
/// (schema, virtual-column definitions, resident vectors), the columns of
/// the JSON_TABLE it expands, if any (they follow the scan's, as in
/// `JsonTable`'s output), the values of the chain a SQL/JSON operator
/// reads, and the transient columns registered so far.
pub(crate) struct Lowering<'a> {
    table: &'a Table,
    /// `Some`: kernels run over the rows of an expansion with these
    /// columns (see [`Lowering::expanding`]).
    expand: Option<Vec<&'a ColumnDef>>,
    /// The transient columns the lowered kernels read, by slot.
    pub(crate) leaves: Leaves,
    /// Slots bound since the last [`Lowering::take_touched`].
    touched: Vec<usize>,
    /// Column references must stay below this index: the source's width
    /// at the top level; inside a virtual column's definition, that
    /// column's own index (definitions see earlier columns only, as in the
    /// row evaluator, which also rules out cycles).
    limit: usize,
    /// Values the chain computes that a SQL/JSON operator reads: the
    /// `k`-th is column `limit + k` (see [`Lowering::operand`]).
    computed: Vec<Expr>,
    /// The expressions lowered row-wise, rendered: `rowwise=[…]`.
    pub(crate) rowwise: Vec<String>,
}

impl<'a> Lowering<'a> {
    /// Start lowering expressions over `table`'s scan schema: kernels run
    /// over the table's rows until [`Lowering::expanding`].
    pub(crate) fn new(table: &'a Table) -> Lowering<'a> {
        Lowering {
            table,
            expand: None,
            leaves: Leaves::default(),
            touched: Vec::new(),
            limit: table.scan_width(),
            computed: Vec::new(),
            rowwise: Vec::new(),
        }
    }

    /// Run `lower`, forgetting every leaf it bound if it fails: a kernel
    /// that did not come about reads nothing.
    pub(crate) fn attempt<T>(&mut self, lower: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let (leaves, touched) = (self.leaves.entries.len(), self.touched.len());
        let lowered = lower(self);
        if lowered.is_none() {
            self.leaves.entries.truncate(leaves);
            self.touched.truncate(touched);
        }
        lowered
    }

    /// The column a SQL/JSON operator over column `col` of `cols` reads
    /// once composed over the source: the source column a renaming names,
    /// else a column computing the value (`usize::MAX` when there is no
    /// such column: the row evaluator's error).
    pub(crate) fn operand(&mut self, cols: &[Expr], col: usize) -> usize {
        match cols.get(col) {
            Some(Expr::Col(c)) => *c,
            Some(value) => {
                self.computed.push(value.clone());
                self.limit + self.computed.len() - 1
            }
            None => usize::MAX,
        }
    }

    /// The value kernel of column `col` of the rows the kernels run over,
    /// a source column or a computed one.
    pub(crate) fn column(&mut self, col: usize) -> ValKernel {
        let computed = col.checked_sub(self.limit).and_then(|k| self.computed.get(k)).cloned();
        computed.unwrap_or(Expr::Col(col)).compile_value(self)
    }

    /// From here on kernels run over the rows of `def`'s expansion, whose
    /// columns follow the scan's. What was lowered before — the filters
    /// below the `JsonTable` — keeps reading the table.
    pub(crate) fn expanding(&mut self, def: &'a JsonTableDef) {
        let columns = def.flat_columns();
        self.limit = self.table.scan_width() + columns.len();
        self.expand = Some(columns);
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

    /// The resident vector `v` of `e` as the column a kernel leaf reads:
    /// itself over the table's rows, a transient copy through the parent
    /// over expanded rows.
    pub(crate) fn resident(&mut self, e: &Expr, v: Arc<ColumnVector>) -> (Col, ColKind) {
        let kind = match &*v {
            ColumnVector::Numbers(_) => ColKind::Nums,
            ColumnVector::Strings { .. } => ColKind::Strs,
            ColumnVector::Bools(_) => ColKind::Bools,
            ColumnVector::Any(_) => ColKind::Any,
        };
        match self.expand {
            None => (Col::Resident(v), kind),
            Some(_) => self.transient(e, LeafSource::Resident(v), kind),
        }
    }

    fn transient(&mut self, e: &Expr, source: LeafSource, kind: ColKind) -> (Col, ColKind) {
        let slot = self.leaves.register(format!("{e:?}"), source, kind);
        if !self.touched.contains(&slot) {
            self.touched.push(slot);
        }
        (Col::Transient(slot), kind)
    }

    /// `lower` run on the definition of virtual column `col`, in the scope
    /// that definition sees (the columns before it); `None` when `col` is
    /// no virtual column of this scope.
    pub(crate) fn defining<T>(
        &mut self,
        col: usize,
        lower: impl FnOnce(&mut Self, &Expr) -> T,
    ) -> Option<T> {
        let table = self.table;
        let def = &table.virtual_columns.get(col.checked_sub(table.schema.width())?)?.expr;
        if col >= self.limit {
            return None;
        }
        let outer = std::mem::replace(&mut self.limit, col);
        let lowered = lower(self, def);
        self.limit = outer;
        Some(lowered)
    }

    /// Bind `e` — a column reference or a SQL/JSON operator over a JSON
    /// base column — as the column a kernel leaf reads: a column's vector
    /// when it has one, base or virtual, over either row space. `as_value`
    /// marks a gather, which may select a JSON column as text.
    pub(crate) fn bind(&mut self, e: &Expr, as_value: bool) -> Option<(Col, ColKind)> {
        if let Some(v) = self.materialized(e) {
            return Some(self.resident(e, v));
        }
        let table = self.table;
        let width = table.schema.width();
        let json_col = |col: usize| {
            table.schema.columns.get(col).is_some_and(|c| matches!(c.ty, ColType::Json(_)))
        };
        match e {
            Expr::Col(i) if *i >= self.limit => None,
            Expr::Col(i) if *i >= table.scan_width() => {
                let col = *i - table.scan_width();
                let kind = match self.expand.as_ref()?.get(col).map(|d| (d.kind, d.ty))? {
                    (TableColKind::Value, ty) => returning(ty),
                    (TableColKind::Exists | TableColKind::Ordinality, _) => ColKind::Nums,
                };
                Some(self.transient(e, LeafSource::JsonTable { col }, kind))
            }
            Expr::Col(i) => match self.vector(*i) {
                Some(v) => Some(self.resident(e, v)),
                // no usable vector: lower the defining expression
                None if *i >= width => {
                    self.defining(*i, |lw, def| lw.bind(def, as_value)).flatten()
                }
                None => {
                    let kind = match table.schema.columns[*i].ty {
                        ColType::Number => ColKind::Nums,
                        ColType::Varchar2(_) => ColKind::Strs,
                        ColType::Boolean => ColKind::Bools,
                        // a JSON column is selected as text, never compared
                        ColType::Json(_) if as_value => ColKind::Strs,
                        ColType::Json(_) => return None,
                    };
                    Some(self.transient(e, LeafSource::Heap { col: *i }, kind))
                }
            },
            Expr::JsonValue { col, path, ty } if json_col(*col) => {
                let source = LeafSource::Value { col: *col, path: path.clone(), ty: *ty };
                Some(self.transient(e, source, returning(*ty)))
            }
            Expr::JsonExists { col, path } if json_col(*col) => {
                let source = LeafSource::Exists { col: *col, path: path.clone() };
                Some(self.transient(e, source, ColKind::Bools))
            }
            _ => None,
        }
    }
}

/// The slot type of a `RETURNING` clause.
fn returning(ty: SqlType) -> ColKind {
    match ty {
        SqlType::Number => ColKind::Nums,
        SqlType::Varchar2(_) => ColKind::Strs,
        SqlType::Boolean => ColKind::Bools,
        SqlType::Any => ColKind::Any,
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
    /// Slots of any type (`Datum::Null` for NULL).
    Any(Vec<Datum>),
}

impl TransientVec {
    fn nulls(kind: ColKind, len: usize) -> TransientVec {
        match kind {
            ColKind::Nums => TransientVec::Nums(vec![None; len]),
            ColKind::Strs => TransientVec::Strs(vec![None; len]),
            ColKind::Bools => TransientVec::Bools(vec![None; len]),
            ColKind::Any => TransientVec::Any(vec![Datum::Null; len]),
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
            (TransientVec::Any(v), d) => v[off] = d,
            (_, other) => {
                return Err(StoreError::new(format!(
                    "transient column: value {other} does not fit the column's type"
                )))
            }
        }
        Ok(())
    }

    /// Store at `to` what is stored at `from`.
    fn repeat(&mut self, from: usize, to: usize) {
        match self {
            TransientVec::Nums(v) => v[to] = v[from],
            TransientVec::Strs(v) => v[to] = v[from].clone(),
            TransientVec::Bools(v) => v[to] = v[from],
            TransientVec::Any(v) => v[to] = v[from].clone(),
        }
    }

    /// The slot at `off` as an owned datum.
    pub fn datum(&self, off: usize) -> Datum {
        match self {
            TransientVec::Nums(v) => v[off].map_or(Datum::Null, Datum::Num),
            TransientVec::Strs(v) => v[off].clone().map_or(Datum::Null, Datum::Str),
            TransientVec::Bools(v) => v[off].map_or(Datum::Null, Datum::Bool),
            TransientVec::Any(v) => v[off].clone(),
        }
    }

    /// The slot at `off` as an owned datum, moved out: the slot reads
    /// NULL afterwards.
    pub(crate) fn take(&mut self, off: usize) -> Datum {
        match self {
            TransientVec::Strs(v) => v[off].take().map_or(Datum::Null, Datum::Str),
            TransientVec::Any(v) => std::mem::replace(&mut v[off], Datum::Null),
            TransientVec::Nums(_) | TransientVec::Bools(_) => self.datum(off),
        }
    }

    /// True when the slot at `off` is SQL NULL.
    pub fn is_null(&self, off: usize) -> bool {
        match self {
            TransientVec::Nums(v) => v[off].is_none(),
            TransientVec::Strs(v) => v[off].is_none(),
            TransientVec::Bools(v) => v[off].is_none(),
            TransientVec::Any(v) => v[off].is_null(),
        }
    }
}

/// One morsel's JSON_TABLE expansion: the row space the pipeline's stages
/// run over once its source is a `JsonTable`. Holds no column value —
/// only where each expanded row came from, so that a column is extracted
/// when a stage asks for it, for the rows still selected then.
pub(crate) struct Expanded<'t> {
    table: &'t Table,
    /// The expanded documents, each opened once for the morsel visit:
    /// row id, and its DOM (`None`: no JSON document to walk).
    docs: Vec<(usize, Option<Dom<'t>>)>,
    /// Per expanded row, its document's index in `docs`.
    parent: Vec<u32>,
    /// Per definition block, each expanded row's context in it; left
    /// empty for a block no demanded column sits in.
    ctx: Vec<Vec<Ctx>>,
}

/// The parses of one morsel's text documents, each filled at most once —
/// so a document is parsed once per morsel visit, whatever the number of
/// stages that read it. Owned by the caller of [`Expanded::new`], because a
/// DOM over a parse borrows it.
pub(crate) struct Parses(Vec<OnceLock<JsonValue>>);

impl Parses {
    /// Room for the parses of `docs` documents.
    pub(crate) fn new(docs: usize) -> Parses {
        Parses((0..docs).map(|_| OnceLock::new()).collect())
    }
}

impl<'t> Expanded<'t> {
    /// Expand the rows of `sel` (the scan's column `json_col`), in order:
    /// one expanded row per output row of `cursor` — and one, all
    /// JSON_TABLE columns NULL, for a row whose document yields none (the
    /// lateral join is outer). Each document is opened here, once for the
    /// morsel visit, its parse — if it is text — kept in `parses`.
    ///
    /// Returns the expansion with the (still empty) transient columns over
    /// its rows, which are billed, document by document, for what the
    /// expansion itself holds.
    pub(crate) fn new<'g>(
        table: &'t Table,
        json_col: usize,
        sel: &SelVec,
        parses: &'t Parses,
        leaves: &Leaves,
        cursor: &mut JsonTableCursor,
        governor: &'g QueryGovernor,
    ) -> Result<(Expanded<'t>, MorselCols<'g>), StoreError> {
        let mut cols = MorselCols::new(RowRange { start: 0, end: 0 }, leaves.len(), governor);
        let off_path = vec![Ctx::NONE; cursor.blocks()];
        let mut stored = vec![false; cursor.blocks()];
        leaves.table_cols().iter().for_each(|c| stored[cursor.block_of(*c)] = true);
        let row_bytes = std::mem::size_of::<u32>()
            + stored.iter().filter(|s| **s).count() * std::mem::size_of::<Ctx>();
        let mut ctx: Vec<Vec<Ctx>> = vec![Vec::new(); cursor.blocks()];
        let mut parent: Vec<u32> = Vec::new();
        let mut push = |k: u32, path: &[Ctx]| {
            parent.push(k);
            for ((col, c), stored) in ctx.iter_mut().zip(path).zip(&stored) {
                if *stored {
                    col.push(*c);
                }
            }
        };
        debug_assert_eq!(parses.0.len(), sel.len(), "one parse slot per document");
        let mut docs = Vec::with_capacity(sel.len());
        for ((k, i), parse) in (0u32..).zip(sel.iter()).zip(&parses.0) {
            let doc = table.open_doc(i, json_col);
            let parsed = doc.as_ref().and_then(OpenDoc::parse_text);
            let parsed = parsed.map(|v| parse.get_or_init(|| v));
            let parse_bytes = match &doc {
                Some(OpenDoc::Text { text, .. }) => {
                    text.len() as u64 * BUDGET_PARSE_BYTES_PER_TEXT_BYTE
                }
                _ => 0,
            };
            let dom = doc.and_then(|d| d.into_dom(parsed));
            let mut rows = 0;
            if let Some(dom) = &dom {
                let mut row = |path: &[Ctx]| {
                    push(k, path);
                    rows += 1;
                };
                with_dom!(dom, d => cursor.expand(d, &mut row));
            }
            if rows == 0 {
                push(k, &off_path);
                rows = 1;
            }
            governor.check_rows(&mut cols.checked, rows)?;
            cols.charge(parse_bytes + (rows * row_bytes) as u64)?;
            docs.push((i, dom));
        }
        cols.range.end = parent.len();
        Ok((Expanded { table, docs, parent, ctx }, cols))
    }

    /// Number of expanded rows.
    pub(crate) fn len(&self) -> usize {
        self.parent.len()
    }
}

/// The row space a stage runs over, and what its columns come from.
pub(crate) enum Rows<'a> {
    /// The table's rows, by row id.
    Table(&'a Table),
    /// A morsel's expanded rows, by position.
    Expanded(&'a Expanded<'a>),
}

impl Rows<'_> {
    /// The stored cell of base column `col` for row `i` (an expanded row
    /// has its parent's).
    pub(crate) fn cell(&self, i: usize, col: usize) -> crate::table::Cell {
        match self {
            Rows::Table(t) => t.rows[i][col].clone(),
            Rows::Expanded(x) => x.table.rows[x.docs[x.parent[i] as usize].0][col].clone(),
        }
    }
}

/// The transient columns of one morsel: one optional vector per slot of
/// the statement's `Leaves`, filled by `MorselCols::extract` as the
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

    /// The extracted vector of `slot`, to move values out of.
    pub(crate) fn vec_mut(&mut self, slot: usize) -> &mut TransientVec {
        self.vecs[slot].as_mut().expect("a stage extracts its slots before its kernels run")
    }

    /// Charge `bytes` held for the life of this morsel to the budget.
    pub(crate) fn charge(&mut self, bytes: u64) -> Result<(), StoreError> {
        // booked before the charge: a refused charge is released too
        self.charged += bytes;
        self.governor.charge(bytes)
    }

    /// Extract the not yet extracted columns among `slots` for the rows
    /// of `sel`, one pass over the rows, one opened document per table
    /// row. Over expanded rows a value is computed once per run of rows
    /// it is the same for: a master-level column once per master node,
    /// anything of the parent's once per document.
    pub(crate) fn extract(
        &mut self,
        rows: &Rows<'_>,
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
        self.charge(pending.len() as u64 * self.range.len() as u64 * BUDGET_BYTES_PER_SLOT)?;
        for &s in &pending {
            self.vecs[s] = Some(TransientVec::nulls(leaves.entries[s].kind, self.range.len()));
        }
        let (paths, cursor) = scratch.spine(leaves);
        match rows {
            Rows::Table(table) => self.fill(&pending, leaves, sel, paths, table)?,
            Rows::Expanded(x) => {
                let cursor = cursor.expect("the expansion built the cursor");
                self.fill_expanded(&pending, leaves, sel, paths, x, cursor)?
            }
        }
        metric::EXEC_TRANSIENT_COLS.add(pending.len() as u64);
        metric::EXEC_TRANSIENT_ROWS.add((pending.len() * sel.len()) as u64);
        metric::IMC_TRANSIENT_EXTRACT_NS.record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// [`MorselCols::extract`] over the table's rows: per row, one opened
    /// document per column, answering all of the column's pending paths.
    fn fill(
        &mut self,
        pending: &[usize],
        leaves: &Leaves,
        sel: &SelVec,
        paths: &mut PathSlots,
        table: &Table,
    ) -> Result<(), StoreError> {
        let groups = leaves.path_groups(pending);
        let mut heap = Vec::new();
        for &s in pending {
            match leaves.entries[s].source {
                LeafSource::Heap { col } => heap.push((s, col)),
                LeafSource::Value { .. } | LeafSource::Exists { .. } => {}
                LeafSource::JsonTable { .. } | LeafSource::Resident(_) => {
                    return Err(StoreError::new("a leaf of expanded rows in a table scan"))
                }
            }
        }
        for i in sel.iter() {
            self.governor.check_rows(&mut self.checked, 1)?;
            let off = i - self.range.start;
            for (col, group) in &groups {
                let doc = table
                    .open_doc(i, *col)
                    .ok_or_else(|| StoreError::new("SQL/JSON operator on non-JSON column"))?;
                paths.answer(&doc, leaves, group, |s, value| {
                    self.vecs[s].as_mut().expect("allocated above").set(off, value)
                })?;
            }
            for &(s, col) in &heap {
                let value = table.rows[i][col].clone().into_datum();
                self.vecs[s].as_mut().expect("allocated above").set(off, value)?;
            }
        }
        Ok(())
    }

    /// [`MorselCols::extract`] over expanded rows: a JSON_TABLE column
    /// from its block's context node in the parent's open DOM, a path of
    /// the scan's from the parent's table row (its column's paths answered
    /// together, once per document), anything else of the scan's from
    /// that row too.
    fn fill_expanded(
        &mut self,
        pending: &[usize],
        leaves: &Leaves,
        sel: &SelVec,
        paths: &mut PathSlots,
        x: &Expanded<'_>,
        cursor: &mut JsonTableCursor,
    ) -> Result<(), StoreError> {
        // per pending slot: the JSON_TABLE column it is with that column's
        // block; the run of rows its last computed value holds for, and
        // where that value sits
        let table_col = |s: &usize| match leaves.entries[*s].source {
            LeafSource::JsonTable { col } => Some((col, cursor.block_of(col))),
            _ => None,
        };
        let table_cols: Vec<Option<(usize, usize)>> = pending.iter().map(table_col).collect();
        let mut last: Vec<Option<((usize, Ctx), usize)>> = vec![None; pending.len()];
        // the scan's path values for the current document, by slot
        let groups = leaves.path_groups(pending);
        let mut at_doc = vec![Datum::Null; leaves.len()];
        let mut doc_of = usize::MAX;
        for i in sel.iter() {
            self.governor.check_rows(&mut self.checked, 1)?;
            let (k, off) = (x.parent[i] as usize, i - self.range.start);
            let (row, dom) = &x.docs[k];
            if doc_of != k {
                doc_of = k;
                for (col, group) in &groups {
                    let doc = x
                        .table
                        .open_doc(*row, *col)
                        .ok_or_else(|| StoreError::new("SQL/JSON operator on non-JSON column"))?;
                    paths.answer(&doc, leaves, group, |s, value| {
                        at_doc[s] = value;
                        Ok(())
                    })?;
                }
            }
            for ((&s, jt), last) in pending.iter().zip(&table_cols).zip(&mut last) {
                let slot = self.vecs[s].as_mut().expect("allocated above");
                // equal for two expanded rows, equal value: one context for
                // a JSON_TABLE column, one parent for anything of the scan's
                let run = (k, jt.map_or(Ctx::NONE, |(_, b)| x.ctx[b][i]));
                if let Some((_, from)) = last.filter(|(of, _)| *of == run) {
                    slot.repeat(from, off);
                    continue;
                }
                *last = Some((run, off));
                let value = match (jt, dom, &leaves.entries[s].source) {
                    (Some((col, _)), Some(dom), _) => {
                        with_dom!(dom, d => cursor.cell(d, *col, run.1))
                    }
                    (Some(_), None, _) => Datum::Null,
                    // computed for this document above, read once: the run
                    // of a scan leaf is the document
                    (None, _, LeafSource::Value { .. } | LeafSource::Exists { .. }) => {
                        std::mem::replace(&mut at_doc[s], Datum::Null)
                    }
                    (None, _, source) => scan_value(x.table, *row, source)?,
                };
                slot.set(off, value)?;
            }
        }
        Ok(())
    }
}

/// The value, for an expanded row, of a leaf of the table's own that is
/// no path — a heap cell or a resident vector's slot — at its parent's
/// table row `row`.
fn scan_value(table: &Table, row: usize, source: &LeafSource) -> Result<Datum, StoreError> {
    Ok(match source {
        LeafSource::Heap { col } => table.rows[row][*col].clone().into_datum(),
        LeafSource::Resident(v) => v.datum(row),
        LeafSource::Value { .. } | LeafSource::Exists { .. } => {
            return Err(StoreError::new("a path leaf outside its document's pass"))
        }
        LeafSource::JsonTable { .. } => {
            return Err(StoreError::new("JSON_TABLE column outside an expansion"))
        }
    })
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
        cols.extract(&Rows::Table(&t), &leaves, &[a, b], &SelVec::All(range), &mut scratch)
            .unwrap();
        assert_eq!(cols.vec(0).datum(7), Datum::from(7i64));
        // one evaluator saw all ten documents: nine look-back hits
        let ev = scratch.spine(&leaves).0.evaluators[0].as_ref().unwrap();
        assert_eq!((ev.lookback_hits(), ev.lookback_misses()), (9, 1));
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
        cols.extract(&Rows::Table(&t), &leaves, &[slot, base], &sel, &mut scratch).unwrap();
        assert_eq!(cols.vec(slot).datum(1), Datum::from("row5"));
        assert_eq!(cols.vec(base).datum(3), Datum::from(7i64));
        assert!(cols.vec(slot).is_null(0), "row 4 was not selected, so never opened");
        // a later stage over a narrower selection reuses the vectors
        let ev_hits = |s: &mut EvalScratch| {
            let ev = s.spine(&leaves).0.evaluators[slot].as_ref().unwrap();
            ev.lookback_hits() + ev.lookback_misses()
        };
        let before = ev_hits(&mut scratch);
        cols.extract(&Rows::Table(&t), &leaves, &[slot], &SelVec::Ids(vec![7]), &mut scratch)
            .unwrap();
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
            cols.extract(&Rows::Table(&t), &leaves, &[slot], &SelVec::All(range), &mut scratch)
                .expect("the previous morsel's charge was released with it");
        }
        assert_eq!(gov.mem_highwater(), 128, "one morsel live at a time");
        let range = RowRange { start: 0, end: 8 };
        let err = MorselCols::new(range, 1, &gov)
            .extract(&Rows::Table(&t), &leaves, &[slot], &SelVec::All(range), &mut scratch)
            .unwrap_err();
        assert_eq!(err.kind, crate::table::ErrorKind::BudgetExceeded);
    }
}
