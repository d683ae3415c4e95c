//! Row expressions: column references, literals, comparisons, arithmetic,
//! scalar functions, and the SQL/JSON operators.
//!
//! Expression trees are **immutable and `Send + Sync`**: the SQL/JSON
//! operators carry only their compiled [`JsonPath`] (behind an `Arc`, so
//! clones share it). All mutable evaluation state — the per-path
//! [`PathEvaluator`] cursors with their §4.2.1 look-back caches, and the
//! JSON_TABLE cursor — lives in an [`EvalScratch`] that each executor
//! worker owns and passes by `&mut`. That split is what lets one plan tree
//! be shared across morsel workers (see [`crate::parallel`]).

use std::collections::HashMap;
use std::sync::Arc;

use fsdm_sqljson::json_table::{JsonTableCursor, JsonTableDef};
use fsdm_sqljson::path::JsonPath;
use fsdm_sqljson::{Datum, PathEvaluator, SqlType};

use crate::imc::ColumnVector;
use crate::table::{Cell, Row, StoreError, Table};
use crate::transient::{ColKind, Leaves, Lowering, PathSlots};
use crate::vector::{Col, PredKernel, StrTest, Tri, ValKernel};

/// Per-worker evaluation state. The fused scan addresses its path
/// evaluators and text passes by dense transient-column slot; the row
/// evaluator (the identity-test oracle) looks its own up by address.
/// Either way the look-back field-id caches persist across the rows a
/// worker processes — exactly the state the expression tree itself used
/// to hold in `RefCell`s before the executor went parallel.
#[derive(Default)]
pub struct EvalScratch {
    /// The evaluation state of the transient path columns of the fused
    /// scan this scratch serves. A scratch lives for one `run_morsels`
    /// call, hence one registry.
    paths: PathSlots,
    /// Row evaluator only: one evaluator per distinct compiled path
    /// (keyed by `Arc` address: expression clones share the path, hence
    /// the evaluator).
    evaluators: HashMap<usize, PathEvaluator>,
    /// The cursor of the one JSON_TABLE that `run_morsels` call expands —
    /// its row, nested and column path evaluators, warm across documents
    /// and morsels — with the address of the definition it was built for.
    cursor: Option<(usize, JsonTableCursor)>,
}

impl EvalScratch {
    /// Fresh, empty scratch. Cheap: caches fill lazily on first use.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Everything a transient-column extraction evaluates with: the path
    /// state for `leaves`, built on first use, and the JSON_TABLE cursor
    /// once [`EvalScratch::cursor`] has built it.
    pub(crate) fn spine(
        &mut self,
        leaves: &Leaves,
    ) -> (&mut PathSlots, Option<&mut JsonTableCursor>) {
        self.paths.ready(leaves);
        (&mut self.paths, self.cursor.as_mut().map(|(_, cursor)| cursor))
    }

    /// The row evaluator's reusable evaluator for `path`, created on
    /// first use.
    pub(crate) fn evaluator(&mut self, path: &Arc<JsonPath>) -> &mut PathEvaluator {
        self.evaluators
            .entry(Arc::as_ptr(path) as usize)
            .or_insert_with(|| PathEvaluator::new((**path).clone()))
    }

    /// The reusable JSON_TABLE cursor for `def`, created on first use. A
    /// scratch serves one `run_morsels` call, which expands one JSON_TABLE,
    /// so every call names the same `def`; one that did not would get a
    /// cursor of its own, never another definition's paths.
    pub(crate) fn cursor(&mut self, def: &JsonTableDef) -> &mut JsonTableCursor {
        let of = std::ptr::from_ref(def) as usize;
        if !matches!(&self.cursor, Some((built_for, _)) if *built_for == of) {
            self.cursor = Some((of, JsonTableCursor::new(def)));
        }
        &mut self.cursor.as_mut().expect("built above").1
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Built-in scalar functions (the subset the paper's queries use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFun {
    /// `SUBSTR(s, pos [, len])` — 1-based as in Oracle.
    Substr,
    /// `INSTR(s, sub)` — 1-based position, 0 when absent.
    Instr,
    /// `UPPER(s)`.
    Upper,
    /// `LOWER(s)`.
    Lower,
    /// `LENGTH(s)`.
    Length,
    /// `CONCAT(a, b)` / `||`.
    Concat,
    /// `ABS(n)`.
    Abs,
    /// `NVL(a, b)`.
    Nvl,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFun {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(expr)` (non-null values).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `JSON_DATAGUIDEAGG(json)`: the transient DataGuide (§3.4) of the
    /// documents the argument yields as text, rendered flat.
    DataGuide,
}

/// A row expression tree.
#[derive(Clone)]
pub enum Expr {
    /// Column reference by position in the input row.
    Col(usize),
    /// Constant.
    Lit(Datum),
    /// Comparison (SQL three-valued logic; unknown is treated as false by
    /// filters).
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IN (v1, v2, …)`.
    InList(Box<Expr>, Vec<Datum>),
    /// `a LIKE 'pat%'` (supports `%` and `_`).
    Like(Box<Expr>, String),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Scalar function call.
    Fun(ScalarFun, Vec<Expr>),
    /// `JSON_VALUE(col, path RETURNING ty)`. The evaluation cursor (whose
    /// look-back field-id cache persists across rows) lives in the
    /// caller's [`EvalScratch`], keyed by the shared compiled path.
    JsonValue {
        /// JSON column position.
        col: usize,
        /// Compiled path (shared by clones, so they share one cursor per
        /// scratch).
        path: Arc<JsonPath>,
        /// RETURNING type.
        ty: SqlType,
    },
    /// `JSON_EXISTS(col, path)`.
    JsonExists {
        /// JSON column position.
        col: usize,
        /// Compiled path.
        path: Arc<JsonPath>,
    },
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "col#{i}"),
            Expr::Lit(d) => write!(f, "{d}"),
            Expr::Cmp(a, op, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Expr::Not(a) => write!(f, "NOT {a:?}"),
            Expr::IsNull(a) => write!(f, "{a:?} IS NULL"),
            Expr::InList(a, l) => write!(f, "{a:?} IN {l:?}"),
            Expr::Like(a, p) => write!(f, "{a:?} LIKE {p:?}"),
            Expr::Arith(a, op, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::Fun(fun, args) => write!(f, "{fun:?}{args:?}"),
            Expr::JsonValue { col, path, ty, .. } => {
                write!(f, "JSON_VALUE(col#{col}, '{}' RET {ty})", path.text())
            }
            Expr::JsonExists { col, path, .. } => {
                write!(f, "JSON_EXISTS(col#{col}, '{}')", path.text())
            }
        }
    }
}

impl Expr {
    /// Convenience constructor: `JSON_VALUE`.
    pub fn json_value(col: usize, path: JsonPath, ty: SqlType) -> Expr {
        Expr::JsonValue { col, path: Arc::new(path), ty }
    }

    /// Convenience constructor: `JSON_EXISTS`.
    pub fn json_exists(col: usize, path: JsonPath) -> Expr {
        Expr::JsonExists { col, path: Arc::new(path) }
    }

    /// Convenience constructor: comparison with a literal.
    pub fn cmp(lhs: Expr, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(lhs), op, Box::new(rhs))
    }

    /// Evaluate against a row with a throwaway scratch. Convenience for
    /// cold paths (planning, tests); hot loops should hold one
    /// [`EvalScratch`] per worker and call [`Expr::eval_with`] so path
    /// cursors and their look-back caches persist across rows.
    pub fn eval(&self, row: &Row) -> Result<Datum, StoreError> {
        self.eval_with(row, &mut EvalScratch::new())
    }

    /// Evaluate against a row, drawing cursor state from `scratch`.
    pub fn eval_with(&self, row: &Row, scratch: &mut EvalScratch) -> Result<Datum, StoreError> {
        Ok(match self {
            Expr::Col(i) => match row.get(*i) {
                Some(Cell::D(d)) => d.clone(),
                Some(Cell::J(j)) => Datum::Str(j.decode_to_text()),
                None => return Err(StoreError::new(format!("column {i} out of range"))),
            },
            Expr::Lit(d) => d.clone(),
            Expr::Cmp(a, op, b) => {
                let (x, y) = (a.eval_with(row, scratch)?, b.eval_with(row, scratch)?);
                match x.sql_cmp(&y) {
                    None => Datum::Null, // unknown
                    Some(ord) => Datum::Bool(match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                    }),
                }
            }
            Expr::And(a, b) => {
                three_valued_and(a.eval_with(row, scratch)?, b.eval_with(row, scratch)?)
            }
            Expr::Or(a, b) => {
                three_valued_or(a.eval_with(row, scratch)?, b.eval_with(row, scratch)?)
            }
            Expr::Not(a) => match a.eval_with(row, scratch)? {
                Datum::Bool(v) => Datum::Bool(!v),
                Datum::Null => Datum::Null,
                _ => return Err(StoreError::new("NOT applied to non-boolean")),
            },
            Expr::IsNull(a) => Datum::Bool(a.eval_with(row, scratch)?.is_null()),
            Expr::InList(a, list) => {
                let v = a.eval_with(row, scratch)?;
                if v.is_null() {
                    Datum::Null
                } else {
                    Datum::Bool(
                        list.iter().any(|d| v.sql_cmp(d).map(|o| o.is_eq()).unwrap_or(false)),
                    )
                }
            }
            Expr::Like(a, pat) => {
                let v = a.eval_with(row, scratch)?;
                match v {
                    Datum::Null => Datum::Null,
                    other => Datum::Bool(like_match(&other.to_text(), pat)),
                }
            }
            Expr::Arith(a, op, b) => {
                let (x, y) = (a.eval_with(row, scratch)?, b.eval_with(row, scratch)?);
                arith_datums(&x, *op, &y)?
            }
            Expr::Fun(fun, args) => eval_fun(*fun, args, row, scratch)?,
            Expr::JsonValue { col, path, ty } => match row.get(*col) {
                Some(Cell::J(j)) => j.json_value(scratch.evaluator(path), *ty),
                Some(Cell::D(_)) | None => {
                    return Err(StoreError::new("JSON_VALUE on non-JSON column"))
                }
            },
            Expr::JsonExists { col, path } => match row.get(*col) {
                Some(Cell::J(j)) => Datum::Bool(j.json_exists(scratch.evaluator(path))),
                Some(Cell::D(_)) | None => {
                    return Err(StoreError::new("JSON_EXISTS on non-JSON column"))
                }
            },
        })
    }

    /// Predicate evaluation: SQL WHERE semantics (NULL/unknown = reject).
    /// Throwaway-scratch convenience, like [`Expr::eval`].
    pub fn matches(&self, row: &Row) -> Result<bool, StoreError> {
        self.matches_with(row, &mut EvalScratch::new())
    }

    /// [`Expr::matches`] drawing cursor state from `scratch`.
    pub fn matches_with(&self, row: &Row, scratch: &mut EvalScratch) -> Result<bool, StoreError> {
        fsdm_fault::fire(fsdm_fault::catalog::FP_EXPR_EVAL).map_err(crate::govern::fault_err)?;
        Ok(matches!(self.eval_with(row, scratch)?, Datum::Bool(true)))
    }

    /// The top-level conjuncts of this predicate (itself, when it is not
    /// an `AND`).
    pub(crate) fn conjuncts(&self) -> Vec<&Expr> {
        fn split<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            match e {
                Expr::And(a, b) => {
                    split(a, out);
                    split(b, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        split(self, &mut out);
        out
    }

    /// The resident vector materializing a virtual column of `table` that
    /// is defined by exactly this expression (by `Debug` rendering, the
    /// structural equality the optimizer's dedupe uses), with that
    /// column's scan index.
    pub(crate) fn resident_vc<'t>(
        &self,
        table: &'t Table,
    ) -> Option<(usize, &'t Arc<ColumnVector>)> {
        if matches!(self, Expr::Col(_) | Expr::Lit(_)) {
            return None;
        }
        let mut vcs = table.resident_vcs().peekable();
        vcs.peek()?; // nothing resident: nothing is rendered
        let key = format!("{self:?}");
        vcs.find(|(def, ..)| *def == key).map(|(_, col, v)| (col, v))
    }

    /// This node with every operand replaced by `f` of it (a column, a
    /// literal or a SQL/JSON operator is cloned).
    fn map(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut sub = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Cmp(a, op, b) => Expr::Cmp(sub(a), *op, sub(b)),
            Expr::And(a, b) => Expr::And(sub(a), sub(b)),
            Expr::Or(a, b) => Expr::Or(sub(a), sub(b)),
            Expr::Not(a) => Expr::Not(sub(a)),
            Expr::IsNull(a) => Expr::IsNull(sub(a)),
            Expr::InList(a, list) => Expr::InList(sub(a), list.clone()),
            Expr::Like(a, pat) => Expr::Like(sub(a), pat.clone()),
            Expr::Arith(a, op, b) => Expr::Arith(sub(a), *op, sub(b)),
            Expr::Fun(fun, args) => Expr::Fun(*fun, args.iter().map(|a| *sub(a)).collect()),
            leaf => leaf.clone(),
        }
    }

    /// This expression over an input whose columns are themselves the
    /// expressions `cols` over a source: every column reference replaced
    /// by what it stands for — how a chain of `Project` / `Filter` /
    /// `GroupBy` composes into one predicate and one output list over its
    /// source. A SQL/JSON operator composes through a renaming; over a
    /// computed value it reads a column `lw` computes, which no kernel
    /// binds, so it is lowered row-wise over that value — as the row
    /// evaluator judges it.
    pub(crate) fn over(&self, cols: &[Expr], lw: &mut Lowering<'_>) -> Expr {
        match self {
            // no such column: the row evaluator's error
            Expr::Col(i) => cols.get(*i).cloned().unwrap_or(Expr::Col(usize::MAX)),
            Expr::JsonValue { col, path, ty } => {
                Expr::JsonValue { col: lw.operand(cols, *col), path: path.clone(), ty: *ty }
            }
            Expr::JsonExists { col, path } => {
                Expr::JsonExists { col: lw.operand(cols, *col), path: path.clone() }
            }
            other => other.map(|e| e.over(cols, lw)),
        }
    }

    /// Lower this scan predicate to a kernel. A leaf binds a resident
    /// vector when one covers its column — or materializes its very
    /// expression as a virtual column — and registers a transient column
    /// with `lw` otherwise. `None` when no kernel expresses it exactly; the
    /// caller then lowers it row-wise ([`Expr::compile_value`]), under
    /// [`Lowering::attempt`] so the failed kernel leaves nothing bound.
    pub(crate) fn compile_predicate(&self, lw: &mut Lowering<'_>) -> Option<PredKernel> {
        // a boolean column — bare, JSON_EXISTS, or a virtual column that
        // materializes this very predicate — used as the filter
        let truth = |bound: (Col, ColKind)| match bound {
            (col, ColKind::Bools) => Some(PredKernel::Truth { col }),
            _ => None,
        };
        if let Some(v) = lw.materialized(self) {
            return truth(lw.resident(self, v));
        }
        match self {
            Expr::And(a, b) => Some(PredKernel::And(
                Box::new(a.compile_predicate(lw)?),
                Box::new(b.compile_predicate(lw)?),
            )),
            Expr::Or(a, b) => Some(PredKernel::Or(
                Box::new(a.compile_predicate(lw)?),
                Box::new(b.compile_predicate(lw)?),
            )),
            Expr::Not(a) => Some(PredKernel::Not(Box::new(a.compile_predicate(lw)?))),
            Expr::Cmp(a, op, b) => {
                let (col, op, lit) = match (&**a, &**b) {
                    (col, Expr::Lit(d)) => (col, *op, d),
                    (Expr::Lit(d), col) => (col, flip_cmp(*op), d),
                    _ => return None,
                };
                let (col, kind) = lw.bind(col, false)?;
                compile_cmp(col, kind, op, lit)
            }
            Expr::IsNull(a) => Some(PredKernel::IsNull { col: lw.bind(a, false)?.0 }),
            Expr::InList(a, list) => match lw.bind(a, false)? {
                // non-coercible list entries can never match a Num operand
                // (`sql_cmp` returns unknown → IN's `unwrap_or(false)`), so
                // they drop out of the compiled list entirely
                (col, ColKind::Nums) => Some(PredKernel::NumIn {
                    col,
                    list: list.iter().filter_map(|d| d.as_num()).collect(),
                }),
                (col, ColKind::Strs) => Some(str_kernel(col, StrTest::In(list.as_slice().into()))),
                _ => None,
            },
            Expr::Like(a, pat) => match lw.bind(a, false)? {
                (col, ColKind::Strs) => Some(str_kernel(col, StrTest::Like(pat.clone()))),
                _ => None,
            },
            _ => truth(lw.bind(self, false)?),
        }
    }

    /// Lower a projection / group key / aggregate-argument expression — or
    /// a filter conjunct no predicate kernel expresses — to a gather
    /// kernel. Total: what no kernel expresses becomes a
    /// [`ValKernel::Row`], its largest sub-expressions that do lower its
    /// leaves.
    pub(crate) fn compile_value(&self, lw: &mut Lowering<'_>) -> ValKernel {
        if let Some(kernel) = lw.attempt(|lw| self.value_kernel(lw)) {
            return kernel;
        }
        let rendered = format!("{self:?}");
        if !lw.rowwise.contains(&rendered) {
            lw.rowwise.push(rendered);
        }
        let mut leaves = Vec::new();
        let expr = self.rowwise(lw, &mut leaves);
        ValKernel::Row { expr, leaves }
    }

    /// This expression as a gather kernel, if one expresses it.
    fn value_kernel(&self, lw: &mut Lowering<'_>) -> Option<ValKernel> {
        let col = match (lw.materialized(self), self) {
            (Some(v), _) => lw.resident(self, v).0,
            (None, Expr::Lit(d)) => return Some(ValKernel::Lit(d.clone())),
            (None, Expr::Arith(a, op, b)) => {
                return Some(ValKernel::Arith {
                    l: Box::new(a.value_kernel(lw)?),
                    op: *op,
                    r: Box::new(b.value_kernel(lw)?),
                })
            }
            (None, _) => lw.bind(self, true)?.0,
        };
        Some(match col {
            Col::Resident(v) => ValKernel::Col(v),
            Col::Transient(slot) => ValKernel::Transient(slot),
        })
    }

    /// This expression with its largest sub-expressions that lower pushed
    /// onto `leaves`, each replaced by `Col(k)` of its position there: the
    /// remainder the row evaluator runs over a row of the leaves' values.
    fn rowwise(&self, lw: &mut Lowering<'_>, leaves: &mut Vec<ValKernel>) -> Expr {
        let kernel = match self {
            Expr::Lit(_) => return self.clone(),
            _ => lw.attempt(|lw| self.value_kernel(lw)),
        };
        let mut leaf = |kernel: ValKernel| {
            leaves.push(kernel);
            leaves.len() - 1
        };
        match (kernel, self) {
            (Some(kernel), _) => Expr::Col(leaf(kernel)),
            // the operand of a SQL/JSON operator no leaf binds is the value
            // the row evaluator's operator would see: not a document
            (None, Expr::JsonValue { col, path, ty }) => {
                Expr::JsonValue { col: leaf(lw.column(*col)), path: path.clone(), ty: *ty }
            }
            (None, Expr::JsonExists { col, path }) => {
                Expr::JsonExists { col: leaf(lw.column(*col)), path: path.clone() }
            }
            // a virtual column whose definition binds no leaf is that
            // definition; any other column is one the input does not have
            (None, Expr::Col(i)) => {
                let def = lw.defining(*i, |lw, def| def.rowwise(lw, leaves));
                def.unwrap_or(Expr::Col(usize::MAX))
            }
            (None, other) => other.map(|e| e.rowwise(lw, leaves)),
        }
    }
}

/// Mirror a comparison so the column is always on the left.
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// A [`StrTest`] over a string column: one verdict per dictionary entry
/// for a resident vector, one per row for a transient column.
fn str_kernel(col: Col, test: StrTest) -> PredKernel {
    match col {
        Col::Resident(v) => {
            let ColumnVector::Strings { dict, .. } = &*v else {
                unreachable!("string kernel bound to {v:?}")
            };
            let verdicts: Arc<[Tri]> = dict.iter().map(|d| test.tri(d)).collect();
            PredKernel::StrVerdict { col: v, verdicts }
        }
        Col::Transient(slot) => PredKernel::StrRow { slot, test },
    }
}

/// Lower `col <op> lit` against the column's representation; `None` when
/// the literal's type makes the comparison unknown on every row.
fn compile_cmp(col: Col, kind: ColKind, op: CmpOp, lit: &Datum) -> Option<PredKernel> {
    match (kind, lit) {
        // `as_num` applies the same Str-side coercion `sql_cmp` uses, and
        // rejects Bool/Null literals (which compare unknown — fall back)
        (ColKind::Nums, _) => Some(PredKernel::NumCmp { col, op, lit: lit.as_num()? }),
        (ColKind::Bools, Datum::Bool(b)) => Some(PredKernel::BoolCmp { col, op, lit: *b }),
        (ColKind::Strs, Datum::Str(s)) => Some(match col {
            // the dictionary is sorted: equality is a binary-search probe,
            // a range a partition-point threshold, both over codes
            Col::Resident(v) => {
                let ColumnVector::Strings { dict, .. } = &*v else {
                    unreachable!("string kernel bound to {v:?}")
                };
                let codes = match op {
                    CmpOp::Eq | CmpOp::Ne => match dict.binary_search(s) {
                        Ok(c) => c as u32..c as u32 + 1,
                        Err(_) => 0..0,
                    },
                    CmpOp::Lt => 0..dict.partition_point(|d| d < s) as u32,
                    CmpOp::Le => 0..dict.partition_point(|d| d <= s) as u32,
                    CmpOp::Gt => dict.partition_point(|d| d <= s) as u32..u32::MAX,
                    CmpOp::Ge => dict.partition_point(|d| d < s) as u32..u32::MAX,
                };
                PredKernel::StrCodes { col: v.clone(), codes, negate: op == CmpOp::Ne }
            }
            col => str_kernel(col, StrTest::Cmp(op, lit.clone())),
        }),
        // a numeric literal coerces each string as `sql_cmp` does: one
        // test per dictionary entry (resident) or per row (transient)
        (ColKind::Strs, Datum::Num(_)) => Some(str_kernel(col, StrTest::Cmp(op, lit.clone()))),
        _ => None,
    }
}

fn three_valued_and(a: Datum, b: Datum) -> Datum {
    match (a, b) {
        (Datum::Bool(false), _) | (_, Datum::Bool(false)) => Datum::Bool(false),
        (Datum::Bool(true), Datum::Bool(true)) => Datum::Bool(true),
        _ => Datum::Null,
    }
}

fn three_valued_or(a: Datum, b: Datum) -> Datum {
    match (a, b) {
        (Datum::Bool(true), _) | (_, Datum::Bool(true)) => Datum::Bool(true),
        (Datum::Bool(false), Datum::Bool(false)) => Datum::Bool(false),
        _ => Datum::Null,
    }
}

fn eval_fun(
    fun: ScalarFun,
    args: &[Expr],
    row: &Row,
    scratch: &mut EvalScratch,
) -> Result<Datum, StoreError> {
    let vals: Vec<Datum> =
        args.iter().map(|a| a.eval_with(row, scratch)).collect::<Result<_, _>>()?;
    let s = |i: usize| -> Option<String> {
        vals.get(i).and_then(|d| if d.is_null() { None } else { Some(d.to_text()) })
    };
    Ok(match fun {
        ScalarFun::Upper => match s(0) {
            Some(x) => Datum::Str(x.to_uppercase()),
            None => Datum::Null,
        },
        ScalarFun::Lower => match s(0) {
            Some(x) => Datum::Str(x.to_lowercase()),
            None => Datum::Null,
        },
        ScalarFun::Length => match s(0) {
            Some(x) => Datum::from(x.chars().count() as i64),
            None => Datum::Null,
        },
        ScalarFun::Concat => match (s(0), s(1)) {
            (Some(a), Some(b)) => Datum::Str(a + &b),
            _ => Datum::Null,
        },
        ScalarFun::Abs => match vals.first().and_then(|d| d.as_num()) {
            Some(n) => Datum::from(n.to_f64().abs()),
            None => Datum::Null,
        },
        ScalarFun::Nvl => {
            let first = vals.first().cloned().unwrap_or(Datum::Null);
            if first.is_null() {
                vals.get(1).cloned().unwrap_or(Datum::Null)
            } else {
                first
            }
        }
        ScalarFun::Instr => match (s(0), s(1)) {
            (Some(hay), Some(needle)) => {
                // 1-based character position, 0 when absent (Oracle INSTR)
                match hay.find(&needle) {
                    Some(byte_pos) => Datum::from(hay[..byte_pos].chars().count() as i64 + 1),
                    None => Datum::from(0i64),
                }
            }
            _ => Datum::Null,
        },
        ScalarFun::Substr => {
            let text = match s(0) {
                Some(t) => t,
                None => return Ok(Datum::Null),
            };
            let pos = vals
                .get(1)
                .and_then(|d| d.as_num())
                .and_then(|n| n.to_i64())
                .ok_or_else(|| StoreError::new("SUBSTR position must be an integer"))?;
            let chars: Vec<char> = text.chars().collect();
            // Oracle SUBSTR: 1-based; 0 treated as 1; negative counts from
            // the end
            let start = if pos > 0 {
                (pos - 1) as usize
            } else if pos == 0 {
                0
            } else {
                chars.len().saturating_sub(pos.unsigned_abs() as usize)
            };
            let len = match vals.get(2) {
                None => chars.len().saturating_sub(start),
                Some(d) => match d.as_num().and_then(|n| n.to_i64()) {
                    Some(l) if l > 0 => l as usize,
                    _ => return Ok(Datum::Null),
                },
            };
            let out: String = chars.iter().skip(start).take(len).collect();
            Datum::Str(out)
        }
    })
}

/// Numeric arithmetic with SQL NULL propagation — the single definition
/// shared by the row evaluator above and the vectorized
/// [`crate::vector::ValKernel`], so both paths agree bit-for-bit on
/// nulls, coercion failures, division by zero, and a result beyond the
/// `f64` range, which no number stands for.
pub(crate) fn arith_datums(x: &Datum, op: ArithOp, y: &Datum) -> Result<Datum, StoreError> {
    if x.is_null() || y.is_null() {
        return Ok(Datum::Null);
    }
    let (nx, ny) = match (x.as_num(), y.as_num()) {
        (Some(nx), Some(ny)) => (nx.to_f64(), ny.to_f64()),
        _ => return Err(StoreError::new("arithmetic on non-numeric value")),
    };
    let r = match op {
        ArithOp::Add => nx + ny,
        ArithOp::Sub => nx - ny,
        ArithOp::Mul => nx * ny,
        ArithOp::Div => {
            if ny == 0.0 {
                return Err(StoreError::new("division by zero"));
            }
            nx / ny
        }
    };
    if !r.is_finite() {
        return Err(StoreError::new("numeric overflow"));
    }
    Ok(Datum::from(r))
}

/// SQL LIKE with `%` and `_` wildcards.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| rec(&t[k..], &p[1..])),
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonaccess::{JsonCell, JsonStorage};
    use fsdm_sqljson::parse_path;

    fn row() -> Row {
        let doc = fsdm_json::parse(r#"{"id":5,"name":"phone-x","price":99.5}"#).unwrap();
        vec![
            Cell::D(Datum::from(1i64)),
            Cell::D(Datum::from("REF-2021-77")),
            Cell::J(
                JsonCell::encode(&doc, JsonStorage::Oson, &mut fsdm_oson::Encoder::new()).unwrap(),
            ),
            Cell::D(Datum::Null),
        ]
    }

    #[test]
    fn comparisons_and_logic() {
        let r = row();
        let e = Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Datum::from(1i64)));
        assert!(e.matches(&r).unwrap());
        let f = Expr::And(
            Box::new(Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Datum::from(1i64)))),
            Box::new(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Col(0)))))),
        );
        assert!(f.matches(&r).unwrap());
        // NULL comparisons are unknown, and filters reject unknown
        let g = Expr::cmp(Expr::Col(3), CmpOp::Eq, Expr::Lit(Datum::Null));
        assert!(!g.matches(&r).unwrap());
    }

    #[test]
    fn in_list_and_like() {
        let r = row();
        let e = Expr::InList(Box::new(Expr::Col(0)), vec![Datum::from(7i64), Datum::from(1i64)]);
        assert!(e.matches(&r).unwrap());
        let l = Expr::Like(Box::new(Expr::Col(1)), "REF-%".into());
        assert!(l.matches(&r).unwrap());
        let l2 = Expr::Like(Box::new(Expr::Col(1)), "REF-____-77".into());
        assert!(l2.matches(&r).unwrap());
        let l3 = Expr::Like(Box::new(Expr::Col(1)), "XYZ%".into());
        assert!(!l3.matches(&r).unwrap());
    }

    #[test]
    fn arithmetic() {
        let r = row();
        let e = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Add,
            Box::new(Expr::Lit(Datum::from(2i64))),
        );
        assert_eq!(e.eval(&r).unwrap(), Datum::from(3i64));
        let div0 = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Div,
            Box::new(Expr::Lit(Datum::from(0i64))),
        );
        assert!(div0.eval(&r).is_err());
        // NULL propagates
        let n = Expr::Arith(Box::new(Expr::Col(3)), ArithOp::Mul, Box::new(Expr::Col(0)));
        assert!(n.eval(&r).unwrap().is_null());
    }

    #[test]
    fn q6_style_substr_instr() {
        let r = row();
        // SUBSTR(ref, INSTR(ref, '-') + 1) → "2021-77"
        let instr = Expr::Fun(ScalarFun::Instr, vec![Expr::Col(1), Expr::Lit(Datum::from("-"))]);
        let sub = Expr::Fun(
            ScalarFun::Substr,
            vec![
                Expr::Col(1),
                Expr::Arith(Box::new(instr), ArithOp::Add, Box::new(Expr::Lit(Datum::from(1i64)))),
            ],
        );
        assert_eq!(sub.eval(&r).unwrap(), Datum::from("2021-77"));
    }

    #[test]
    fn substr_variants() {
        let r = vec![Cell::D(Datum::from("abcdef"))];
        let sub = |pos: i64, len: Option<i64>| {
            let mut args = vec![Expr::Col(0), Expr::Lit(Datum::from(pos))];
            if let Some(l) = len {
                args.push(Expr::Lit(Datum::from(l)));
            }
            Expr::Fun(ScalarFun::Substr, args).eval(&r).unwrap()
        };
        assert_eq!(sub(2, None), Datum::from("bcdef"));
        assert_eq!(sub(2, Some(3)), Datum::from("bcd"));
        assert_eq!(sub(-2, None), Datum::from("ef"));
        assert_eq!(sub(0, Some(2)), Datum::from("ab"));
        // a position past either end: the whole string, or nothing
        assert_eq!(sub(i64::MIN, None), Datum::from("abcdef"));
        assert_eq!(sub(i64::MAX, None), Datum::from(""));
    }

    #[test]
    fn json_exprs_on_rows() {
        let r = row();
        let jv = Expr::json_value(2, parse_path("$.price").unwrap(), SqlType::Number);
        assert_eq!(jv.eval(&r).unwrap(), Datum::from(99.5));
        let je = Expr::json_exists(2, parse_path("$?(@.id == 5)").unwrap());
        assert_eq!(je.eval(&r).unwrap(), Datum::Bool(true));
        // JSON op on a scalar column is a planning error
        let bad = Expr::json_value(0, parse_path("$.x").unwrap(), SqlType::Any);
        assert!(bad.eval(&r).is_err());
    }

    #[test]
    fn nvl_and_concat() {
        let r = row();
        let e = Expr::Fun(ScalarFun::Nvl, vec![Expr::Col(3), Expr::Lit(Datum::from("dflt"))]);
        assert_eq!(e.eval(&r).unwrap(), Datum::from("dflt"));
        let c = Expr::Fun(
            ScalarFun::Concat,
            vec![Expr::Lit(Datum::from("a")), Expr::Lit(Datum::from("b"))],
        );
        assert_eq!(c.eval(&r).unwrap(), Datum::from("ab"));
    }

    #[test]
    fn clone_preserves_behaviour() {
        let r = row();
        let jv = Expr::json_value(2, parse_path("$.id").unwrap(), SqlType::Number);
        let jv2 = jv.clone();
        assert_eq!(jv.eval(&r).unwrap(), jv2.eval(&r).unwrap());
    }

    #[test]
    fn clones_share_scratch_slots() {
        let r = row();
        let jv = Expr::json_value(2, parse_path("$.price").unwrap(), SqlType::Number);
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            assert_eq!(jv.eval_with(&r, &mut scratch).unwrap(), Datum::from(99.5));
        }
        // the clone shares the compiled path, hence the evaluator slot
        let jv2 = jv.clone();
        assert_eq!(jv2.eval_with(&r, &mut scratch).unwrap(), Datum::from(99.5));
        assert_eq!(scratch.evaluators.len(), 1, "one evaluator per distinct path");
        // a distinct path gets its own slot
        let other = Expr::json_value(2, parse_path("$.id").unwrap(), SqlType::Number);
        other.eval_with(&r, &mut scratch).unwrap();
        assert_eq!(scratch.evaluators.len(), 2);
    }
}
