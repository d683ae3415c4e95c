//! Vectorized batch pipelines over the IMC (§5.2/§6.5).
//!
//! The IMC stores typed [`ColumnVector`]s; this module keeps execution
//! columnar *through* the operators instead of de-columnarizing at the
//! scan. A [`Batch`] is one morsel's position state — a row range plus a
//! [`SelVec`] selection vector — and flows through compiled kernels:
//!
//! * [`PredKernel`] evaluates a predicate over the vectors into a
//!   null-aware tri-state [`Mask`] (SQL three-valued logic; filters keep
//!   only [`Tri::True`] rows). Numeric comparisons go through
//!   [`JsonNumber`] total order so they match the row path's `sql_cmp`
//!   bit-for-bit; string comparisons run on dictionary *codes* (the
//!   dictionary is sorted, so equality is a binary-search probe and
//!   ranges are code-threshold tests).
//! * [`ValKernel`] gathers projection/aggregate inputs for selected rows
//!   only — **late materialization**: rows are rebuilt from vectors at
//!   pipeline breakers (final result, aggregate merge), never before.
//!
//! A kernel leaf reads its column from one of two sources ([`Col`]): a
//! **resident** IMC vector, indexed by absolute row id, or a **transient**
//! column the fused scan extracted for this morsel
//! ([`crate::transient`]), indexed by offset from the morsel start.
//!
//! Compilation from [`crate::expr::Expr`] lives in `expr.rs`
//! ([`crate::expr::Expr::compile_predicate`] /
//! [`crate::expr::Expr::compile_value`]). What no kernel expresses is
//! still lowered: [`ValKernel::Row`] gathers the largest sub-expressions
//! that do lower and runs the row evaluator's own `eval` over them, once
//! per selected row.

use std::sync::Arc;

use fsdm_json::JsonNumber;
use fsdm_sqljson::Datum;

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::imc::ColumnVector;
use crate::parallel::RowRange;
use crate::table::{Cell, Row, StoreError};
use crate::transient::{MorselCols, TransientVec};

/// SQL three-valued truth for one row of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Definitely false.
    False,
    /// Definitely true.
    True,
    /// NULL / unknown (rejected by WHERE, propagated by NOT).
    Unknown,
}

/// Kleene AND over two row verdicts (false dominates).
fn tri_and(a: Tri, b: Tri) -> Tri {
    match (a, b) {
        (Tri::False, _) | (_, Tri::False) => Tri::False,
        (Tri::True, Tri::True) => Tri::True,
        _ => Tri::Unknown,
    }
}

/// Kleene OR over two row verdicts (true dominates).
fn tri_or(a: Tri, b: Tri) -> Tri {
    match (a, b) {
        (Tri::True, _) | (_, Tri::True) => Tri::True,
        (Tri::False, Tri::False) => Tri::False,
        _ => Tri::Unknown,
    }
}

/// A predicate's verdicts over one morsel range, with collapsed
/// constant forms so AND/OR chains can short-circuit whole batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mask {
    /// Every row in the range is true.
    AllTrue,
    /// Every row in the range is false (or the range is empty).
    AllFalse,
    /// Per-row verdicts, indexed by offset from the range start.
    Mixed(Vec<Tri>),
}

impl Mask {
    /// Build from per-row verdicts, collapsing the constant cases.
    pub fn from_tris(tris: Vec<Tri>) -> Mask {
        if tris.iter().all(|t| *t == Tri::False) {
            return Mask::AllFalse; // also the empty range
        }
        if tris.iter().all(|t| *t == Tri::True) {
            return Mask::AllTrue;
        }
        Mask::Mixed(tris)
    }

    /// The verdict at `offset` from the range start.
    pub fn tri(&self, offset: usize) -> Tri {
        match self {
            Mask::AllTrue => Tri::True,
            Mask::AllFalse => Tri::False,
            Mask::Mixed(v) => v[offset],
        }
    }

    /// Kleene AND of two masks over the same range.
    pub fn and(self, rhs: Mask) -> Mask {
        match (self, rhs) {
            (Mask::AllFalse, _) | (_, Mask::AllFalse) => Mask::AllFalse,
            (Mask::AllTrue, m) | (m, Mask::AllTrue) => m,
            (Mask::Mixed(a), Mask::Mixed(b)) => {
                Mask::from_tris(a.into_iter().zip(b).map(|(x, y)| tri_and(x, y)).collect())
            }
        }
    }

    /// Kleene OR of two masks over the same range.
    pub fn or(self, rhs: Mask) -> Mask {
        match (self, rhs) {
            (Mask::AllTrue, _) | (_, Mask::AllTrue) => Mask::AllTrue,
            (Mask::AllFalse, m) | (m, Mask::AllFalse) => m,
            (Mask::Mixed(a), Mask::Mixed(b)) => {
                Mask::from_tris(a.into_iter().zip(b).map(|(x, y)| tri_or(x, y)).collect())
            }
        }
    }
}

impl std::ops::Not for Mask {
    type Output = Mask;

    /// Kleene NOT (unknown stays unknown).
    fn not(self) -> Mask {
        match self {
            Mask::AllTrue => Mask::AllFalse,
            Mask::AllFalse => Mask::AllTrue,
            Mask::Mixed(v) => Mask::from_tris(
                v.into_iter()
                    .map(|t| match t {
                        Tri::True => Tri::False,
                        Tri::False => Tri::True,
                        Tri::Unknown => Tri::Unknown,
                    })
                    .collect(),
            ),
        }
    }
}

/// A selection vector: which rows of a morsel are still alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelVec {
    /// Every row in the range (the unfiltered fast path).
    All(RowRange),
    /// Ascending absolute row ids within the range.
    Ids(Vec<usize>),
}

impl SelVec {
    /// Selected rows where the mask is [`Tri::True`] (WHERE semantics:
    /// unknown is rejected).
    pub fn from_mask(range: RowRange, mask: &Mask) -> SelVec {
        match mask {
            Mask::AllTrue => SelVec::All(range),
            Mask::AllFalse => SelVec::Ids(Vec::new()),
            Mask::Mixed(v) => SelVec::Ids(
                (range.start..range.end).filter(|i| v[i - range.start] == Tri::True).collect(),
            ),
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            SelVec::All(r) => r.len(),
            SelVec::Ids(ids) => ids.len(),
        }
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absolute row ids, ascending, with an exact size hint: a gather
    /// collects them into a vector sized once.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (range, ids) = match self {
            SelVec::All(r) => (r.start..r.end, &[][..]),
            SelVec::Ids(ids) => (0..0, &ids[..]),
        };
        range.chain(ids.iter().copied())
    }
}

/// One morsel flowing through a columnar pipeline: the covered row range
/// plus the selection vector. The column data itself rides inside the
/// compiled kernels as shared [`Arc<ColumnVector>`] handles, so a batch
/// is pure position state and stages never copy values to pass it on.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The morsel's row range.
    pub range: RowRange,
    /// Rows still selected.
    pub sel: SelVec,
}

impl Batch {
    /// A fresh batch selecting the whole morsel.
    pub fn all(range: RowRange) -> Batch {
        Batch { range, sel: SelVec::All(range) }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when no rows survive.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Apply a predicate kernel, intersecting its mask with the current
    /// selection (AND semantics across pipeline stages).
    pub fn filter(self, kernel: &PredKernel, cols: &MorselCols) -> Batch {
        let mask = kernel.eval(self.range, cols);
        let sel = match self.sel {
            SelVec::All(range) => SelVec::from_mask(range, &mask),
            SelVec::Ids(ids) => SelVec::Ids(
                ids.into_iter().filter(|i| mask.tri(i - self.range.start) == Tri::True).collect(),
            ),
        };
        Batch { range: self.range, sel }
    }

    /// Keep the selected rows for which a value kernel yields `TRUE` —
    /// the row evaluator's `matches`: FALSE and NULL reject alike.
    pub fn keep(self, kernel: &ValKernel, cols: &MorselCols) -> Result<Batch, StoreError> {
        let verdicts = self.gather(kernel, cols)?;
        let kept = self.sel.iter().zip(verdicts).filter(|(_, v)| *v == Datum::Bool(true));
        Ok(Batch { range: self.range, sel: SelVec::Ids(kept.map(|(i, _)| i).collect()) })
    }

    /// Gather a value kernel's output for the selected rows (the late
    /// materialization point).
    pub fn gather(&self, kernel: &ValKernel, cols: &MorselCols) -> Result<Vec<Datum>, StoreError> {
        fsdm_fault::fire(fsdm_fault::catalog::FP_VECTOR_BATCH).map_err(crate::govern::fault_err)?;
        kernel.gather(self, cols)
    }

    /// Gather transient column `slot` for the selected rows by moving
    /// each value out of its slot: the gather of an output that is the
    /// slot's only reader, so nothing reads the emptied slots after it.
    pub(crate) fn take(
        &self,
        slot: usize,
        cols: &mut MorselCols,
    ) -> Result<Vec<Datum>, StoreError> {
        fsdm_fault::fire(fsdm_fault::catalog::FP_VECTOR_BATCH).map_err(crate::govern::fault_err)?;
        let v = cols.vec_mut(slot);
        Ok(self.sel.iter().map(|i| v.take(i - self.range.start)).collect())
    }
}

/// Where a kernel leaf reads its column.
#[derive(Debug, Clone)]
pub enum Col {
    /// A resident IMC vector, indexed by absolute row id.
    Resident(Arc<ColumnVector>),
    /// Slot of a transient column in the morsel's [`MorselCols`],
    /// indexed by offset from the morsel start.
    Transient(usize),
}

/// A single-string test, the per-value half of every string predicate:
/// run once per dictionary entry for resident strings
/// ([`PredKernel::StrVerdict`]) and once per row for transient ones
/// ([`PredKernel::StrRow`]).
#[derive(Debug, Clone)]
pub enum StrTest {
    /// `s <op> literal` under `sql_cmp` (a numeric literal coerces `s`).
    Cmp(CmpOp, Datum),
    /// `s IN (…)`: any list entry compares equal.
    In(Arc<[Datum]>),
    /// `s LIKE pattern`.
    Like(String),
}

impl StrTest {
    /// The verdict for a non-null string.
    pub fn tri(&self, s: &str) -> Tri {
        // `Datum::sql_cmp` with a `Str` on the left, without owning it
        let sql_cmp = |d: &Datum| match d {
            Datum::Str(lit) => Some(s.cmp(lit.as_str())),
            Datum::Num(lit) => JsonNumber::from_literal(s.trim()).ok().map(|n| n.total_cmp(lit)),
            Datum::Bool(_) | Datum::Null => None,
        };
        match self {
            StrTest::Cmp(op, lit) => cmp_tri(sql_cmp(lit), *op),
            StrTest::In(list) => {
                Tri::from(list.iter().any(|d| sql_cmp(d).is_some_and(|o| o.is_eq())))
            }
            StrTest::Like(pat) => Tri::from(crate::expr::like_match(s, pat)),
        }
    }
}

impl From<bool> for Tri {
    fn from(hit: bool) -> Tri {
        if hit {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// A compiled, column-bound predicate. Each leaf holds the [`Col`] it
/// reads, so evaluation is a tight typed loop with no per-row dispatch
/// beyond the column's own representation.
#[derive(Debug, Clone)]
pub enum PredKernel {
    /// `numbers <op> literal`, compared in [`JsonNumber`] total order —
    /// exactly the row path's `sql_cmp`.
    NumCmp {
        /// The numeric column.
        col: Col,
        /// Comparison operator.
        op: CmpOp,
        /// The (pre-coerced) numeric literal.
        lit: JsonNumber,
    },
    /// `strings <op> string literal` as a dictionary-code range test:
    /// the dictionary is sorted, so the literal was binary-searched at
    /// compile time (`=`/`<>`: the one-code range of its entry, empty when
    /// absent) or became a partition-point threshold (code order ==
    /// string order); rows compare codes only, never string bytes.
    StrCodes {
        /// The `Strings` vector.
        col: Arc<ColumnVector>,
        /// Matching codes, half-open.
        codes: std::ops::Range<u32>,
        /// True for `<>`: codes outside the range match.
        negate: bool,
    },
    /// A [`StrTest`] over a resident string column, pre-evaluated once
    /// per dictionary entry (numeric-literal coercions, IN lists, LIKE).
    StrVerdict {
        /// The `Strings` vector.
        col: Arc<ColumnVector>,
        /// Verdict per dictionary code.
        verdicts: Arc<[Tri]>,
    },
    /// A [`StrTest`] over a transient string column, evaluated per row.
    StrRow {
        /// The transient slot.
        slot: usize,
        /// The test.
        test: StrTest,
    },
    /// `bools <op> literal` (`false < true`, as in `sql_cmp`).
    BoolCmp {
        /// The boolean column.
        col: Col,
        /// Comparison operator.
        op: CmpOp,
        /// The boolean literal.
        lit: bool,
    },
    /// A bare boolean column used as the predicate.
    Truth {
        /// The boolean column.
        col: Col,
    },
    /// `col IS NULL` (never unknown).
    IsNull {
        /// Any column.
        col: Col,
    },
    /// `numbers IN (…)` against a pre-coerced literal list.
    NumIn {
        /// The numeric column.
        col: Col,
        /// Numeric views of the coercible list literals.
        list: Arc<[JsonNumber]>,
    },
    /// Kleene negation.
    Not(Box<PredKernel>),
    /// Kleene conjunction; skips the right side when the left batch is
    /// already all-false.
    And(Box<PredKernel>, Box<PredKernel>),
    /// Kleene disjunction; skips the right side when the left batch is
    /// already all-true.
    Or(Box<PredKernel>, Box<PredKernel>),
}

/// Read a comparison verdict out of an optional ordering (SQL: `None`
/// means unknown). Shared with the `expr.rs` compile step, which uses it
/// to pre-evaluate per-dictionary-entry verdicts.
pub(crate) fn cmp_tri(ord: Option<std::cmp::Ordering>, op: CmpOp) -> Tri {
    match ord {
        None => Tri::Unknown,
        Some(ord) => Tri::from(match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }),
    }
}

/// Run a per-row closure over the range, collapsing constant outcomes.
fn scan_leaf(range: RowRange, f: impl Fn(usize) -> Tri) -> Mask {
    Mask::from_tris((range.start..range.end).map(f).collect())
}

/// `f` of each slot's value, NULL unknown: the one scan every leaf over
/// an element slice runs.
fn slice_leaf<T: Copy>(vals: &[Option<T>], f: impl Fn(T) -> Tri) -> Mask {
    Mask::from_tris(vals.iter().map(|v| v.map_or(Tri::Unknown, &f)).collect())
}

/// A numeric leaf over either source; NULL is unknown.
fn num_leaf(col: &Col, range: RowRange, cols: &MorselCols, f: impl Fn(JsonNumber) -> Tri) -> Mask {
    let vals = match col {
        Col::Resident(v) => match &**v {
            ColumnVector::Numbers(vals) => &vals[range.start..range.end],
            other => unreachable!("numeric kernel bound to {other:?}"),
        },
        Col::Transient(slot) => match cols.vec(*slot) {
            TransientVec::Nums(vals) => &vals[..],
            other => unreachable!("numeric kernel bound to {other:?}"),
        },
    };
    slice_leaf(vals, f)
}

/// A boolean leaf over either source; NULL is unknown.
fn bool_leaf(col: &Col, range: RowRange, cols: &MorselCols, f: impl Fn(bool) -> Tri) -> Mask {
    let vals = match col {
        Col::Resident(v) => match &**v {
            ColumnVector::Bools(vals) => &vals[range.start..range.end],
            other => unreachable!("boolean kernel bound to {other:?}"),
        },
        Col::Transient(slot) => match cols.vec(*slot) {
            TransientVec::Bools(vals) => &vals[..],
            other => unreachable!("boolean kernel bound to {other:?}"),
        },
    };
    slice_leaf(vals, f)
}

/// A dictionary-code leaf over a resident string vector.
fn code_leaf(col: &ColumnVector, range: RowRange, f: impl Fn(u32) -> Tri) -> Mask {
    match col {
        ColumnVector::Strings { codes, .. } => slice_leaf(&codes[range.start..range.end], f),
        other => unreachable!("dictionary kernel bound to {other:?}"),
    }
}

impl PredKernel {
    /// Evaluate over one morsel range; `cols` holds the morsel's
    /// transient columns (every slot this kernel reads already extracted
    /// for the rows still selected).
    pub fn eval(&self, range: RowRange, cols: &MorselCols) -> Mask {
        match self {
            PredKernel::NumCmp { col, op, lit } => {
                num_leaf(col, range, cols, |n| cmp_tri(Some(n.total_cmp(lit)), *op))
            }
            PredKernel::StrCodes { col, codes, negate } => {
                code_leaf(col, range, |c| Tri::from(codes.contains(&c) != *negate))
            }
            PredKernel::StrVerdict { col, verdicts } => {
                code_leaf(col, range, |c| verdicts[c as usize])
            }
            PredKernel::StrRow { slot, test } => match cols.vec(*slot) {
                TransientVec::Strs(vals) => scan_leaf(range, |i| {
                    vals[i - range.start].as_deref().map_or(Tri::Unknown, |s| test.tri(s))
                }),
                other => unreachable!("StrRow bound to {other:?}"),
            },
            PredKernel::BoolCmp { col, op, lit } => {
                bool_leaf(col, range, cols, |b| cmp_tri(Some(b.cmp(lit)), *op))
            }
            PredKernel::Truth { col } => bool_leaf(col, range, cols, Tri::from),
            PredKernel::IsNull { col } => match col {
                Col::Resident(v) => scan_leaf(range, |i| Tri::from(v.is_null(i))),
                Col::Transient(slot) => {
                    let v = cols.vec(*slot);
                    scan_leaf(range, |i| Tri::from(v.is_null(i - range.start)))
                }
            },
            PredKernel::NumIn { col, list } => num_leaf(col, range, cols, |n| {
                Tri::from(list.iter().any(|x| n.total_cmp(x).is_eq()))
            }),
            PredKernel::Not(inner) => !inner.eval(range, cols),
            PredKernel::And(a, b) => {
                let left = a.eval(range, cols);
                if left == Mask::AllFalse {
                    return Mask::AllFalse; // skip the right side entirely
                }
                left.and(b.eval(range, cols))
            }
            PredKernel::Or(a, b) => {
                let left = a.eval(range, cols);
                if left == Mask::AllTrue {
                    return Mask::AllTrue; // skip the right side entirely
                }
                left.or(b.eval(range, cols))
            }
        }
    }
}

/// A compiled, column-bound value expression for projections and
/// aggregate arguments.
#[derive(Debug, Clone)]
pub enum ValKernel {
    /// Read a resident column vector back: the datums its column
    /// produced.
    Col(Arc<ColumnVector>),
    /// Read a transient column back.
    Transient(usize),
    /// A constant.
    Lit(Datum),
    /// Numeric arithmetic over two kernels, with the row path's exact
    /// NULL-propagation and error semantics.
    Arith {
        /// Left operand.
        l: Box<ValKernel>,
        /// Operator.
        op: ArithOp,
        /// Right operand.
        r: Box<ValKernel>,
    },
    /// An expression no kernel expresses: its `leaves` are gathered, then
    /// `expr` — the remainder, reading leaf `k` as `Col(k)` — runs on the
    /// row evaluator once per selected row.
    Row {
        /// The expression over the leaves.
        expr: Expr,
        /// The largest sub-expressions that lower to kernels.
        leaves: Vec<ValKernel>,
    },
}

impl ValKernel {
    /// Count in `reads`, per transient slot, the leaves of this kernel
    /// that read it.
    pub(crate) fn count_reads(&self, reads: &mut [usize]) {
        match self {
            ValKernel::Transient(slot) => reads[*slot] += 1,
            ValKernel::Arith { l, r, .. } => {
                l.count_reads(reads);
                r.count_reads(reads);
            }
            ValKernel::Row { leaves, .. } => leaves.iter().for_each(|l| l.count_reads(reads)),
            ValKernel::Col(_) | ValKernel::Lit(_) => {}
        }
    }

    /// Materialize this kernel's value for every selected row of `batch`.
    pub fn gather(&self, batch: &Batch, cols: &MorselCols) -> Result<Vec<Datum>, StoreError> {
        let sel = &batch.sel;
        match self {
            ValKernel::Col(v) => Ok(sel.iter().map(|i| v.datum(i)).collect()),
            ValKernel::Transient(slot) => {
                let v = cols.vec(*slot);
                Ok(sel.iter().map(|i| v.datum(i - batch.range.start)).collect())
            }
            ValKernel::Lit(d) => Ok(vec![d.clone(); sel.len()]),
            ValKernel::Arith { l, op, r } => {
                let (xs, ys) = (l.gather(batch, cols)?, r.gather(batch, cols)?);
                xs.into_iter()
                    .zip(ys)
                    .map(|(x, y)| crate::expr::arith_datums(&x, *op, &y))
                    .collect()
            }
            ValKernel::Row { expr, leaves } => {
                let leaves = leaves.iter().map(|l| l.gather(batch, cols).map(Vec::into_iter));
                let mut leaves: Vec<_> = leaves.collect::<Result<_, _>>()?;
                // one row buffer, refilled from the leaves for every row
                let mut row: Row = Vec::with_capacity(leaves.len());
                (0..sel.len())
                    .map(|_| {
                        row.clear();
                        row.extend(leaves.iter_mut().filter_map(Iterator::next).map(Cell::D));
                        expr.eval(&row)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::QueryGovernor;

    fn range(start: usize, end: usize) -> RowRange {
        RowRange { start, end }
    }

    /// Evaluate a kernel that reads resident vectors only.
    fn eval(k: &PredKernel, r: RowRange) -> Mask {
        k.eval(r, &MorselCols::new(r, 0, &QueryGovernor::unlimited()))
    }

    fn nums(vals: &[Option<i64>]) -> Arc<ColumnVector> {
        Arc::new(ColumnVector::Numbers(vals.iter().map(|v| v.map(JsonNumber::Int)).collect()))
    }

    fn strings(vals: &[Option<&str>]) -> Arc<ColumnVector> {
        let datums: Vec<Datum> =
            vals.iter().map(|v| v.map(Datum::from).unwrap_or(Datum::Null)).collect();
        Arc::new(ColumnVector::from_datums(datums))
    }

    #[test]
    fn num_cmp_is_null_aware() {
        let col = nums(&[Some(1), None, Some(3), Some(2)]);
        let k =
            PredKernel::NumCmp { col: Col::Resident(col), op: CmpOp::Ge, lit: JsonNumber::Int(2) };
        let m = eval(&k, range(0, 4));
        assert_eq!(m.tri(0), Tri::False);
        assert_eq!(m.tri(1), Tri::Unknown, "NULL compares unknown");
        assert_eq!(m.tri(2), Tri::True);
        assert_eq!(m.tri(3), Tri::True);
    }

    #[test]
    fn all_true_and_all_false_collapse() {
        let col = nums(&[Some(1), Some(2), Some(3)]);
        let lo = PredKernel::NumCmp {
            col: Col::Resident(col.clone()),
            op: CmpOp::Gt,
            lit: JsonNumber::Int(0),
        };
        let hi = PredKernel::NumCmp {
            col: Col::Resident(col.clone()),
            op: CmpOp::Gt,
            lit: JsonNumber::Int(9),
        };
        assert_eq!(eval(&lo, range(0, 3)), Mask::AllTrue);
        assert_eq!(eval(&hi, range(0, 3)), Mask::AllFalse);
        // AND short-circuits: an impossible left side wins immediately
        let and = PredKernel::And(Box::new(hi), Box::new(lo.clone()));
        assert_eq!(eval(&and, range(0, 3)), Mask::AllFalse);
        let or =
            PredKernel::Or(Box::new(lo), Box::new(PredKernel::IsNull { col: Col::Resident(col) }));
        assert_eq!(eval(&or, range(0, 3)), Mask::AllTrue);
    }

    #[test]
    fn empty_range_collapses_to_all_false() {
        let col = nums(&[Some(1)]);
        let k =
            PredKernel::NumCmp { col: Col::Resident(col), op: CmpOp::Eq, lit: JsonNumber::Int(1) };
        assert_eq!(eval(&k, range(1, 1)), Mask::AllFalse);
        let sel = SelVec::from_mask(range(1, 1), &Mask::AllFalse);
        assert!(sel.is_empty());
    }

    #[test]
    fn kleene_not_keeps_unknown() {
        let col = nums(&[Some(5), None]);
        let k = PredKernel::Not(Box::new(PredKernel::NumCmp {
            col: Col::Resident(col),
            op: CmpOp::Lt,
            lit: JsonNumber::Int(3),
        }));
        let m = eval(&k, range(0, 2));
        assert_eq!(m.tri(0), Tri::True, "NOT(5 < 3)");
        assert_eq!(m.tri(1), Tri::Unknown, "NOT(unknown) stays unknown");
    }

    #[test]
    fn string_eq_probes_codes_and_ranges_use_thresholds() {
        let col = strings(&[Some("pear"), Some("apple"), None, Some("plum"), Some("fig")]);
        let ColumnVector::Strings { dict, .. } = &*col else { panic!() };
        // sorted dict: apple fig pear plum
        let code = dict.binary_search(&"pear".to_string()).unwrap() as u32;
        let eq = PredKernel::StrCodes { col: col.clone(), codes: code..code + 1, negate: false };
        let m = eval(&eq, range(0, 5));
        assert_eq!(
            (m.tri(0), m.tri(1), m.tri(2), m.tri(3), m.tri(4)),
            (Tri::True, Tri::False, Tri::Unknown, Tri::False, Tri::False)
        );
        // strings < "pear": apple, fig
        let bound = dict.partition_point(|d| d.as_str() < "pear") as u32;
        let lt = PredKernel::StrCodes { col: col.clone(), codes: 0..bound, negate: false };
        let m = eval(&lt, range(0, 5));
        assert_eq!(
            (m.tri(0), m.tri(1), m.tri(2), m.tri(3), m.tri(4)),
            (Tri::False, Tri::True, Tri::Unknown, Tri::False, Tri::True)
        );
        // >= "pear" is the complement over non-null rows
        let ge = PredKernel::StrCodes { col, codes: bound..u32::MAX, negate: false };
        let m = eval(&ge, range(0, 5));
        assert_eq!((m.tri(0), m.tri(2), m.tri(4)), (Tri::True, Tri::Unknown, Tri::False));
    }

    #[test]
    fn selection_intersection_and_gather() {
        let col = nums(&[Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let ge1 = PredKernel::NumCmp {
            col: Col::Resident(col.clone()),
            op: CmpOp::Ge,
            lit: JsonNumber::Int(1),
        };
        let le3 = PredKernel::NumCmp {
            col: Col::Resident(col.clone()),
            op: CmpOp::Le,
            lit: JsonNumber::Int(3),
        };
        let gov = QueryGovernor::unlimited();
        let cols = MorselCols::new(range(0, 5), 0, &gov);
        let batch = Batch::all(range(0, 5)).filter(&ge1, &cols).filter(&le3, &cols);
        assert_eq!(batch.len(), 3);
        let got = batch.gather(&ValKernel::Col(col), &cols).unwrap();
        assert_eq!(got, vec![Datum::from(1i64), Datum::from(2i64), Datum::from(3i64)]);
        // arithmetic matches the row path (integral results stay exact)
        let double = ValKernel::Arith {
            l: Box::new(ValKernel::Col(nums(&[Some(0), Some(1), Some(2), Some(3), Some(4)]))),
            op: ArithOp::Mul,
            r: Box::new(ValKernel::Lit(Datum::from(2i64))),
        };
        let doubled = batch.gather(&double, &cols).unwrap();
        assert_eq!(doubled, vec![Datum::from(2i64), Datum::from(4i64), Datum::from(6i64)]);
    }

    #[test]
    fn gather_on_empty_selection_is_empty() {
        let col = nums(&[Some(1), Some(2)]);
        let none = PredKernel::NumCmp {
            col: Col::Resident(col.clone()),
            op: CmpOp::Gt,
            lit: JsonNumber::Int(9),
        };
        let gov = QueryGovernor::unlimited();
        let cols = MorselCols::new(range(0, 2), 0, &gov);
        let batch = Batch::all(range(0, 2)).filter(&none, &cols);
        assert!(batch.is_empty());
        assert_eq!(batch.gather(&ValKernel::Col(col), &cols).unwrap(), Vec::<Datum>::new());
    }

    #[test]
    fn null_arith_propagates_and_div0_errors() {
        let col = nums(&[Some(4), None]);
        let k = ValKernel::Arith {
            l: Box::new(ValKernel::Col(col.clone())),
            op: ArithOp::Add,
            r: Box::new(ValKernel::Lit(Datum::from(1i64))),
        };
        let gov = QueryGovernor::unlimited();
        let cols = MorselCols::new(range(0, 2), 0, &gov);
        let out = k.gather(&Batch::all(range(0, 2)), &cols).unwrap();
        assert_eq!(out, vec![Datum::from(5i64), Datum::Null]);
        let div = ValKernel::Arith {
            l: Box::new(ValKernel::Col(col)),
            op: ArithOp::Div,
            r: Box::new(ValKernel::Lit(Datum::from(0i64))),
        };
        let first = Batch { range: range(0, 2), sel: SelVec::Ids(vec![0]) };
        let err = div.gather(&first, &cols).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn str_test_matches_sql_cmp_on_a_string_operand() {
        let cmp = |op, lit: Datum| StrTest::Cmp(op, lit);
        assert_eq!(cmp(CmpOp::Lt, Datum::from("b")).tri("a"), Tri::True);
        // a numeric literal coerces the string; a non-numeric string is unknown
        assert_eq!(cmp(CmpOp::Eq, Datum::from(7i64)).tri(" 7 "), Tri::True);
        assert_eq!(cmp(CmpOp::Eq, Datum::from(7i64)).tri("seven"), Tri::Unknown);
        let list: Arc<[Datum]> =
            vec![Datum::from("x"), Datum::from(3i64), Datum::Bool(true)].into();
        assert_eq!(StrTest::In(list.clone()).tri("3.0"), Tri::True);
        assert_eq!(StrTest::In(list).tri("true"), Tri::False, "no string/boolean coercion");
        assert_eq!(StrTest::Like("a_c%".into()).tri("abcd"), Tri::True);
    }
}
