//! The database: named tables, registered views, and the morsel-driven
//! parallel batch executor for [`Query`] plans.
//!
//! Every data-parallel operator (scan, filter, project, JSON_TABLE, the
//! hash-join build/probe, group-by evaluation, sort/window key
//! evaluation) runs per-morsel on scoped workers (see
//! [`crate::parallel`]); order-sensitive reassembly always happens in
//! morsel-index order, so results are byte-identical at every degree —
//! and `degree = 1` executes strictly serially on the calling thread.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fsdm_dataguide::hierarchical::to_flat_json;
use fsdm_dataguide::DataGuide;
use fsdm_sqljson::{Datum, JsonTableDef};

use fsdm_fault::catalog::{
    FP_EXEC_GROUPBY_PARTIAL, FP_EXEC_JOIN_BUILD, FP_EXEC_JSONTABLE_ROW, FP_EXEC_MORSEL,
    FP_EXEC_SORT_PERMUTE,
};
use fsdm_obs::catalog::metric;
use fsdm_obs::trace::{self, Trace, TraceSession};

use crate::expr::{AggFun, EvalScratch, Expr};
use crate::govern::{fault_err, CancelHandle, CancelToken, QueryGovernor};
use crate::parallel::{
    default_degree, run_morsels, ExecContext, ParStats, RowRange, DEFAULT_MORSEL_ROWS,
};
use crate::profile::{OpProfile, QueryProfile};
use crate::query::{AggSpec, Query, QueryResult, SortKey, WindowFun};
use crate::slowlog::SlowLog;
use crate::table::{Cell, ErrorKind, Row, StoreError, Table};
use crate::transient::{Expanded, Leaves, Lowering, MorselCols, Parses, Rows};
use crate::vector::{Batch, PredKernel, ValKernel};

/// Rough per-entry byte estimates the memory budget charges for operator
/// state. Deliberately coarse — the budget is a governor, not an
/// allocator — but monotone in the real footprint, so a limit always
/// trips before memory grows unboundedly past it.
const BUDGET_BYTES_PER_JOIN_ENTRY: u64 = 48;
/// Per evaluated datum held by group-by partials and sort key tuples.
const BUDGET_BYTES_PER_DATUM: u64 = 32;
/// Per cell of a JSON_TABLE output row buffer.
const BUDGET_BYTES_PER_CELL: u64 = 32;

/// One output column of a fused scan.
enum ScanCol {
    /// The stored cell of a base column.
    Cell(usize),
    /// A value kernel's datum.
    Val(ValKernel),
    /// A transient column no other output reads: its values are moved
    /// out of the morsel's column, not cloned.
    Take(usize),
}

/// The value of the rows an operator hands up: a [`Cell`] for an operator
/// above it, which may still read a JSON document as one, and a
/// [`Datum`] at the statement's root, where a document is rendered as
/// text — so each row is written once, in the form its consumer takes.
trait RowValue: Send + Sized {
    /// A stored cell.
    fn of_cell(cell: Cell) -> Self;
    /// A computed value.
    fn of_datum(d: Datum) -> Self;
    /// A gathered column.
    fn of_datums(ds: Vec<Datum>) -> Vec<Self> {
        ds.into_iter().map(Self::of_datum).collect()
    }
    /// The row evaluator's rows.
    fn of_rows(rows: Vec<Row>) -> Vec<Vec<Self>>;
}

impl RowValue for Cell {
    fn of_cell(cell: Cell) -> Cell {
        cell
    }

    fn of_datum(d: Datum) -> Cell {
        Cell::D(d)
    }

    fn of_rows(rows: Vec<Row>) -> Vec<Row> {
        rows
    }
}

impl RowValue for Datum {
    fn of_cell(cell: Cell) -> Datum {
        cell.into_datum()
    }

    fn of_datum(d: Datum) -> Datum {
        d
    }

    fn of_datums(ds: Vec<Datum>) -> Vec<Datum> {
        ds
    }

    /// Converted in place: the one root whose rows are built first and
    /// converted after is a row-evaluator operator (a join, a sort, a
    /// window…).
    fn of_rows(rows: Vec<Row>) -> Vec<Vec<Datum>> {
        rows.into_iter().map(|r| r.into_iter().map(Cell::into_datum).collect()).collect()
    }
}

/// One top-level conjunct of a `Filter` of the pipeline and the transient
/// columns it reads: a pipeline stage, so that a column is only extracted
/// for the rows the earlier stages kept.
struct Conjunct {
    test: Test,
    slots: Vec<usize>,
    /// How many of the pipeline's `Filter`s sit below the one it came from.
    filter: usize,
}

impl Conjunct {
    /// The stage order. Kernel stages run first, those over resident
    /// vectors only before those with transient columns: a kernel never
    /// errs, so running one early only removes rows. Row-wise stages run
    /// after them Filter by Filter from the bottom up, slot-less ones first
    /// within one: a row-wise stage never sees a row a `Filter` below its
    /// own rejected.
    fn order(&self) -> (bool, usize, bool) {
        let row = matches!(self.test, Test::Row(_));
        (row, if row { self.filter } else { 0 }, !self.slots.is_empty())
    }
}

/// How a stage decides which rows it keeps.
enum Test {
    /// A predicate kernel's mask.
    Kernel(PredKernel),
    /// Row by row, for the rows still selected: what no predicate kernel
    /// expresses, kept where it is `TRUE`.
    Row(ValKernel),
}

/// A scan-rooted pipeline lowered to kernels: the single unit the batch
/// spine executes. Its source is a `Scan`, or a `JsonTable` over a `Scan`
/// with any `Filter`s in between; above the source sits any chain of
/// `Project` / `Filter`, optionally topped by a `GroupBy`, **composed by
/// substitution** ([`Expr::over`]) into predicates and one output list
/// over the source's columns — a pure-column view `Project` is a
/// renaming, a `Filter` over it a predicate over the positions
/// underneath. No plan is rewritten: the operators keep their profile
/// rows and spans ([`FusedScan::below`]).
struct FusedScan<'q> {
    table: &'q Table,
    /// The `Filter` directly over the `Scan` is a constant other than
    /// TRUE (what the dead-path pruning rewrite writes): no morsel runs.
    empty: bool,
    /// Stages over the table's rows: every `Filter` below the expansion,
    /// or all of them when there is none; in [`Conjunct::order`].
    table_stages: Vec<Conjunct>,
    /// `JsonTable` source: the JSON column and the definition the rows
    /// surviving `table_stages` are expanded by.
    expand: Option<(usize, &'q JsonTableDef)>,
    /// Stages over the expanded rows: every `Filter` above the expansion,
    /// in the same order.
    expanded_stages: Vec<Conjunct>,
    outs: Vec<ScanCol>,
    /// Transient columns the outputs read.
    out_slots: Vec<usize>,
    leaves: Leaves,
    /// The expressions lowered row-wise, rendered.
    rowwise: Vec<String>,
    /// The plan operators fused below the pipeline's root, top-down; the
    /// last is the `Scan` (empty when the root is the scan itself).
    below: Vec<&'q Query>,
}

/// Rows a fused pipeline's stages put out, per morsel or summed.
#[derive(Clone, Copy, Default)]
struct StageRows {
    /// Table rows: what the `Scan` emits.
    scanned: usize,
    /// Table rows past the table stages: what a `Filter` below the
    /// expansion emits.
    filtered: usize,
    /// Rows of the expansion (`filtered`, without one).
    expanded: usize,
    /// Rows past every stage: what the pipeline emits.
    kept: usize,
}

impl<'q> FusedScan<'q> {
    /// Lower the pipeline `chain` — operators top-down from the root to
    /// the `Scan` of `table`. Total: a conjunct no predicate kernel
    /// expresses becomes a row-wise stage, an output no value kernel
    /// expresses a [`ValKernel::Row`].
    fn lower(
        table: &'q Table,
        expand: Option<(usize, &'q JsonTableDef)>,
        chain: &[&'q Query],
    ) -> FusedScan<'q> {
        let mut lw = Lowering::new(table);
        // compose the operators bottom-up: `cols` is what the operator
        // below hands up, over the source's columns (`None`: those)
        let (mut cols, mut values): (Option<Vec<Expr>>, Option<Vec<Expr>>) = (None, None);
        let (mut empty, mut filters, mut expanded) = (false, 0, false);
        let (mut table_stages, mut expanded_stages) = (Vec::new(), Vec::new());
        for (i, op) in chain[..chain.len() - 1].iter().enumerate().rev() {
            let over = |lw: &mut Lowering<'_>, e: &Expr| match &cols {
                Some(cols) => e.over(cols, lw),
                None => e.clone(),
            };
            match op {
                Query::Filter { pred: Expr::Lit(d), .. } if i == chain.len() - 2 => {
                    empty = *d != Datum::Bool(true)
                }
                Query::Filter { pred, .. } => {
                    let pred = over(&mut lw, pred);
                    let stages = if expanded { &mut expanded_stages } else { &mut table_stages };
                    for c in pred.conjuncts() {
                        let test = match lw.attempt(|lw| c.compile_predicate(lw)) {
                            Some(kernel) => Test::Kernel(kernel),
                            None => Test::Row(c.compile_value(&mut lw)),
                        };
                        stages.push(Conjunct { test, slots: lw.take_touched(), filter: filters });
                    }
                    filters += 1;
                }
                // a filter below it ran over the table's rows; everything
                // lowered from here on reads the source's
                Query::JsonTable { def, .. } => {
                    lw.expanding(def);
                    expanded = true;
                }
                Query::Project { exprs, .. } => {
                    cols = Some(exprs.iter().map(|(_, e)| over(&mut lw, e)).collect())
                }
                Query::GroupBy { keys, aggs, .. } => {
                    values = Some(group_reads(keys, aggs).map(|e| over(&mut lw, e)).collect())
                }
                _ => unreachable!("lower_scan admits Project, Filter, JsonTable and a top GroupBy"),
            }
        }
        table_stages.sort_by_key(Conjunct::order);
        expanded_stages.sort_by_key(Conjunct::order);
        let outs: Vec<ScanCol> = match values {
            // a group-by's keys and arguments are values, gathered per morsel
            Some(values) => values.iter().map(|e| ScanCol::Val(e.compile_value(&mut lw))).collect(),
            // rows: without a projection, the source's own columns; a base
            // column hands its stored cell on, so a JSON document stays one
            None => {
                let source = table.scan_width() + expand.map_or(0, |(_, def)| def.width());
                let cols = cols.unwrap_or_else(|| (0..source).map(Expr::Col).collect());
                let out = |e: &Expr| match e {
                    Expr::Col(c) if *c < table.schema.width() => ScanCol::Cell(*c),
                    e => ScanCol::Val(e.compile_value(&mut lw)),
                };
                cols.iter().map(out).collect()
            }
        };
        let out_slots = lw.take_touched();
        // an output that is a slot's only reader moves its values out
        let mut reads = vec![0; lw.leaves.len()];
        for out in &outs {
            if let ScanCol::Val(v) = out {
                v.count_reads(&mut reads);
            }
        }
        let outs = outs
            .into_iter()
            .map(|out| match out {
                ScanCol::Val(ValKernel::Transient(slot)) if reads[slot] == 1 => ScanCol::Take(slot),
                out => out,
            })
            .collect();
        let (leaves, rowwise, below) = (lw.leaves, lw.rowwise, chain[1..].to_vec());
        FusedScan {
            table,
            empty,
            table_stages,
            expand,
            expanded_stages,
            outs,
            out_slots,
            leaves,
            rowwise,
            below,
        }
    }

    /// Run the filter stages `conjuncts` over the rows `batch` selects of
    /// one row space: each extracts the transient columns it reads for the
    /// rows still selected, then narrows the selection.
    fn stages(
        &self,
        conjuncts: &[Conjunct],
        rows: &Rows<'_>,
        cols: &mut MorselCols<'_>,
        mut batch: Batch,
        scratch: &mut EvalScratch,
    ) -> Result<Batch, StoreError> {
        for c in conjuncts {
            if batch.is_empty() {
                break;
            }
            cols.extract(rows, &self.leaves, &c.slots, &batch.sel, scratch)?;
            let kernel_start = Instant::now();
            batch = match &c.test {
                Test::Kernel(kernel) => batch.filter(kernel, cols),
                Test::Row(value) => batch.keep(value, cols)?,
            };
            metric::IMC_KERNEL_NS.record(kernel_start.elapsed().as_nanos() as u64);
        }
        Ok(batch)
    }

    /// Gather every output column for the rows `batch` still selects —
    /// the late materialization point — as the values its consumer takes.
    fn gather<V: RowValue>(
        &self,
        rows: &Rows<'_>,
        cols: &mut MorselCols<'_>,
        batch: &Batch,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Vec<V>>, StoreError> {
        metric::EXEC_BATCH_ROWS.record(batch.len() as u64);
        let mut out: Vec<Vec<V>> = self.outs.iter().map(|_| Vec::new()).collect();
        // nothing selected: no output column is extracted or gathered
        if !batch.is_empty() {
            cols.extract(rows, &self.leaves, &self.out_slots, &batch.sel, scratch)?;
            for (col, out) in self.outs.iter().zip(&mut out) {
                *out = match col {
                    ScanCol::Cell(c) => {
                        batch.sel.iter().map(|i| V::of_cell(rows.cell(i, *c))).collect()
                    }
                    ScanCol::Val(v) => V::of_datums(batch.gather(v, cols)?),
                    ScanCol::Take(slot) => V::of_datums(batch.take(*slot, cols)?),
                };
            }
        }
        Ok(out)
    }

    /// The annotation of `op`, an operator of this pipeline: the
    /// transient columns the pipeline runs on and the expressions it
    /// evaluates row-wise (reported on its root), the column demand of the
    /// expansion (on the `JsonTable`).
    fn note(&self, op: &Query, root: bool) -> String {
        let mut notes = Vec::new();
        if root && !self.leaves.note().is_empty() {
            notes.push(self.leaves.note());
        }
        let skip = if root { self.leaves.skip_note(self.table) } else { String::new() };
        if !skip.is_empty() {
            notes.push(skip);
        }
        if root && !self.rowwise.is_empty() {
            notes.push(format!("rowwise=[{}]", self.rowwise.join(", ")));
        }
        if let (Query::JsonTable { def, .. }, Some(_)) = (op, self.expand) {
            let names = def.column_names();
            let demanded: Vec<&str> =
                self.leaves.table_cols().into_iter().map(|c| names[c].as_str()).collect();
            notes.push(format!("expand=[{}] of {}", demanded.join(", "), names.len()));
        }
        notes.join("  ")
    }
}

/// How [`Database::run`] runs a statement: the three distinctions a
/// caller can select.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The SQL text the plan came from: names the statement in its report
    /// and in the slow-query ring (`None`: the plan root's label does).
    pub source: Option<&'a str>,
    /// Run the plan through the optimizer first.
    pub optimize: bool,
    /// Run under a [`TraceSession`] and keep the span tree in the report.
    pub trace: bool,
}

impl Default for Run<'_> {
    /// No SQL text, optimized, untraced.
    fn default() -> Self {
        Run { source: None, optimize: true, trace: false }
    }
}

/// An embedded database instance.
pub struct Database {
    tables: HashMap<String, Table>,
    views: HashMap<String, Query>,
    /// Configured parallel degree; 0 means "resolve the process default"
    /// (`FSDM_THREADS`, else `available_parallelism`).
    parallelism: usize,
    /// Configured morsel size in rows; 0 means [`DEFAULT_MORSEL_ROWS`].
    morsel_rows: usize,
    /// Slow-query ring log; disarmed by default.
    slow_log: SlowLog,
    /// Whether the executor may select vectorized columnar pipelines.
    columnar: bool,
    /// Statement timeout in milliseconds; `None` = unlimited.
    statement_timeout_ms: Option<u64>,
    /// Per-statement memory budget in bytes; `None` = unlimited.
    mem_limit: Option<u64>,
    /// The shared cancel token every statement of this database runs
    /// under; handed out to [`CancelHandle`]s for cross-thread kills.
    cancel: Arc<CancelToken>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            views: HashMap::new(),
            parallelism: 0,
            morsel_rows: 0,
            slow_log: SlowLog::default(),
            // the batch spine is on by default: it only runs where kernels
            // reproduce row semantics exactly
            columnar: true,
            statement_timeout_ms: None,
            mem_limit: None,
            cancel: Arc::new(CancelToken::new()),
        }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable the batch spine (on by default). With it off,
    /// every operator runs on the scratch-based row evaluator, which is
    /// kept as the oracle of the identity tests. Results are
    /// byte-identical either way.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }

    /// Whether columnar pipeline selection is enabled.
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Pin the executor's parallel degree for this database. `1` forces
    /// strictly serial execution; values are clamped to at least 1. The
    /// default (until this is called) comes from the `FSDM_THREADS`
    /// environment variable, falling back to
    /// [`std::thread::available_parallelism`].
    pub fn set_parallelism(&mut self, degree: usize) {
        self.parallelism = degree.max(1);
    }

    /// The effective parallel degree queries will run with.
    pub fn parallelism(&self) -> usize {
        if self.parallelism == 0 {
            default_degree()
        } else {
            self.parallelism
        }
    }

    /// Override the morsel size in rows (mainly for tests and benchmarks;
    /// results are identical for any morsel size — only scheduling
    /// granularity changes). Clamped to at least 1.
    pub fn set_morsel_rows(&mut self, rows: usize) {
        self.morsel_rows = rows.max(1);
    }

    /// Set (or clear) the statement timeout: every subsequent statement
    /// gets a deadline of `now + ms` at execution start and dies with a
    /// typed deadline error when it runs past it.
    pub fn set_statement_timeout(&mut self, ms: Option<u64>) {
        self.statement_timeout_ms = ms;
    }

    /// The configured statement timeout in milliseconds, if any.
    pub fn statement_timeout(&self) -> Option<u64> {
        self.statement_timeout_ms
    }

    /// Set (or clear) the per-statement memory budget in bytes. Operators
    /// that materialize state (hash-join builds, group-by partials, sort
    /// key tuples, JSON_TABLE row buffers) charge against it and degrade
    /// into a typed budget error when it is exhausted.
    pub fn set_mem_limit(&mut self, bytes: Option<u64>) {
        self.mem_limit = bytes;
    }

    /// The configured per-statement memory budget in bytes, if any.
    pub fn mem_limit(&self) -> Option<u64> {
        self.mem_limit
    }

    /// A cross-thread handle that can kill this database's running
    /// statement (and, until the next statement starts, mark the token
    /// cancelled). The handle stays valid for the database's lifetime.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle::new(Arc::clone(&self.cancel))
    }

    /// The shared cancel token (statement entry points reset it).
    pub fn cancel_token(&self) -> &Arc<CancelToken> {
        &self.cancel
    }

    /// The execution context every operator of one query shares.
    fn exec_context(&self) -> ExecContext {
        // a caught worker panic leaves a peer-panic cancellation behind;
        // it is transient by design — clear it so the database stays
        // usable through `&self` surfaces (a pending *user* cancel is
        // preserved; `Session`'s `&mut` entry points do the full reset)
        self.cancel.clear_transient();
        ExecContext {
            degree: self.parallelism(),
            morsel_rows: if self.morsel_rows == 0 { DEFAULT_MORSEL_ROWS } else { self.morsel_rows },
            governor: Arc::new(QueryGovernor::for_statement(
                Arc::clone(&self.cancel),
                self.statement_timeout_ms,
                self.mem_limit,
            )),
            counts: Arc::default(),
        }
    }

    /// Register a table. If a table with the same name already exists it
    /// is replaced and the old table is returned, so callers can detect
    /// (and refuse, or log) accidental overwrites instead of silently
    /// losing data.
    pub fn add_table(&mut self, table: Table) -> Option<Table> {
        self.tables.insert(table.schema.name.clone(), table)
    }

    /// Access a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Register a named view over a plan (DataGuide-generated DMDVs land
    /// here).
    pub fn create_view(&mut self, name: impl Into<String>, plan: Query) {
        self.views.insert(name.into(), plan);
    }

    /// Look up a view plan.
    pub fn view(&self, name: &str) -> Option<&Query> {
        self.views.get(name)
    }

    /// Output column names of a plan without executing it (the SQL planner
    /// resolves identifiers against this).
    pub fn plan_columns(&self, plan: &Query) -> Result<Vec<String>, StoreError> {
        Ok(match plan {
            Query::Scan { table, .. } => self
                .tables
                .get(table)
                .ok_or_else(|| StoreError::new(format!("no table {table}")))?
                .scan_column_names(),
            Query::Filter { input, .. }
            | Query::Limit { input, .. }
            | Query::Sort { input, .. }
            | Query::Sample { input, .. } => self.plan_columns(input)?,
            Query::Project { exprs, .. } => exprs.iter().map(|(n, _)| n.clone()).collect(),
            Query::JsonTable { input, def, .. } => {
                let mut cols = self.plan_columns(input)?;
                cols.extend(def.column_names());
                cols
            }
            Query::HashJoin { left, right, .. } => {
                let mut cols = self.plan_columns(left)?;
                cols.extend(self.plan_columns(right)?);
                cols
            }
            Query::GroupBy { keys, aggs, .. } => keys
                .iter()
                .map(|(n, _)| n.clone())
                .chain(aggs.iter().map(|a| a.name.clone()))
                .collect(),
            Query::Window { input, name, .. } => {
                let mut cols = self.plan_columns(input)?;
                cols.push(name.clone());
                cols
            }
        })
    }

    /// Run one statement: **the one statement body.** Optimizes `plan`
    /// (unless `how` says not to), executes it under a fresh governor and
    /// returns the materialized result with the statement's report — the
    /// executor always keeps it. Every statement leaves through the same
    /// exit: the memory high-water gauge, the governance-kill counters,
    /// `store.exec.queries` / `store.exec.ns` and the slow-query ring (a
    /// killed statement enters it threshold-exempt, with its reason) are
    /// fed here and nowhere else. Every count the statement made is
    /// published before it returns, and the report lists them
    /// ([`QueryProfile::counts`]).
    pub fn run(
        &self,
        plan: &Query,
        how: &Run<'_>,
    ) -> Result<(QueryResult, QueryProfile), StoreError> {
        // what this thread counted before the statement is not its own
        fsdm_obs::publish(None);
        // sessions are process-global: concurrent traced statements
        // serialize here, before the clock starts
        let session = how.trace.then(TraceSession::begin);
        let start = Instant::now();
        let optimized = how.optimize.then(|| crate::optimizer::optimize(self, plan.clone()));
        let optimize_ns = start.elapsed().as_nanos() as u64;
        let ctx = self.exec_context();
        metric::EXEC_DEGREE.set(ctx.degree as i64);
        let mut root_span = trace::span(fsdm_obs::catalog::SPAN_STORE_QUERY);
        root_span.record_args(|| op_label(plan));
        let mut ops = Vec::new();
        let out = self.exec::<Datum>(optimized.as_ref().unwrap_or(plan), &mut ops, &ctx);
        // the executor hands up rows; the plan names them
        let out = out.and_then(|rows| Ok((self.plan_columns(plan)?, rows)));
        drop(root_span);
        let trace = session.map(TraceSession::finish);

        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let mem_highwater = ctx.governor.mem_highwater();
        metric::EXEC_MEM_HIGHWATER.set(mem_highwater as i64);
        let source = how.source.map_or_else(|| op_label(plan), str::to_string);
        let (columns, rows) = match out {
            Ok(out) => out,
            Err(e) => {
                if let Some(reason) = count_kill(e.kind) {
                    self.slow_log.record_killed(&source, elapsed_ns, ctx.degree, reason);
                }
                fsdm_obs::publish(Some(&ctx.counts));
                return Err(e);
            }
        };
        metric::STORE_EXEC_QUERIES.inc();
        metric::STORE_EXEC_NS.record(elapsed_ns);
        // the workers published as they exited; this thread's share last
        fsdm_obs::publish(Some(&ctx.counts));
        let mut report = QueryProfile {
            source,
            degree: ctx.degree,
            optimize_ns,
            mem_highwater,
            root: ops.pop().expect("the executor reports its root operator"),
            counts: ctx.counts.counts(),
            trace: None,
            diagnostics: Vec::new(),
        };
        // the ring keeps the report with the trace reduced to its summary
        let summary = trace.as_ref().map(Trace::summary);
        self.slow_log.record(&report.source, elapsed_ns, ctx.degree, Some(&report), summary);
        // an eviction the ring just counted is published with the rest
        fsdm_obs::publish(None);
        report.trace = trace;
        Ok((QueryResult { columns, rows }, report))
    }

    /// [`Database::run`] with [`Run::default`] (optimized — notably the
    /// §6.3 JSON_EXISTS pushdown into JSON_TABLE pipelines — untraced, no
    /// SQL text), result only.
    pub fn execute(&self, plan: &Query) -> Result<QueryResult, StoreError> {
        self.run(plan, &Run::default()).map(|(result, _)| result)
    }

    /// [`Database::run`] with `Run { optimize: false, .. }`, result only:
    /// the plan exactly as given — used by tests and by the ablation that
    /// measures the pushdown's effect.
    pub fn execute_unoptimized(&self, plan: &Query) -> Result<QueryResult, StoreError> {
        self.run(plan, &Run { optimize: false, ..Run::default() }).map(|(result, _)| result)
    }

    /// [`Database::run`] with [`Run::default`], result and report (which
    /// mirrors the *optimized* plan shape).
    pub fn execute_profiled(
        &self,
        plan: &Query,
    ) -> Result<(QueryResult, QueryProfile), StoreError> {
        self.run(plan, &Run::default())
    }

    /// Arm the slow-query ring log: statements whose wall time reaches
    /// `threshold_ns` (0 captures everything) are kept in a ring of the
    /// last `cap` entries, each with its SQL text ([`Run::source`], else
    /// the plan root's label), its report and its trace summary. A `cap`
    /// of 0 disarms. Re-arming clears previous contents.
    pub fn set_slow_log(&self, threshold_ns: u64, cap: usize) {
        self.slow_log.arm(threshold_ns, cap);
    }

    /// The slow-query ring log.
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// JSON dump of the slow-query ring log (see [`SlowLog::to_json`]).
    pub fn slow_log_json(&self) -> String {
        self.slow_log.to_json()
    }

    /// Recursive entry point of the volcano executor: run `plan` on the
    /// batch spine when it roots a scan-rooted pipeline
    /// ([`Database::lower_scan`], **the single mode decision**), else on
    /// the row evaluator. Its rows are handed up as the consumer takes
    /// them ([`RowValue`]). The operator's output row count and inclusive
    /// elapsed time are pushed into `prof`, its children collected in a
    /// sink of their own: a cost per operator, never per row or morsel.
    fn exec<V: RowValue>(
        &self,
        plan: &Query,
        prof: &mut Vec<OpProfile>,
        ctx: &ExecContext,
    ) -> Result<Vec<Vec<V>>, StoreError> {
        let mut op_span = trace::span(fsdm_obs::catalog::SPAN_EXEC_OP);
        op_span.record_args(|| op_label(plan));
        let mut stats = ParStats::default();
        let start = Instant::now();
        let mut children = Vec::new();
        // the lowering that is reported is the lowering that runs
        let (mode, note, rows) = match self.lower_scan(plan) {
            Some(fused) => {
                let out = self.run_fused(plan, &fused, &mut children, ctx, &mut stats)?;
                ("columnar", fused.note(plan, true), out)
            }
            None => {
                let rows = self.exec_row(plan, &mut children, ctx, &mut stats)?;
                ("row", String::new(), V::of_rows(rows))
            }
        };
        prof.push(OpProfile {
            op: op_label(plan),
            rows_out: rows.len(),
            elapsed_ns: start.elapsed().as_nanos() as u64,
            workers: stats.workers.max(1),
            morsels: stats.morsels,
            mode,
            note,
            children,
        });
        Ok(rows)
    }

    /// Run one operator on the row evaluator: the operators that consume
    /// rows by nature (join, sort, window, limit, sample) and what sits
    /// above them — and, with the spine off, every operator, as the
    /// oracle of the identity tests.
    fn exec_row(
        &self,
        plan: &Query,
        prof: &mut Vec<OpProfile>,
        ctx: &ExecContext,
        stats: &mut ParStats,
    ) -> Result<Vec<Row>, StoreError> {
        match plan {
            Query::Scan { table } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| StoreError::new(format!("no table {table}")))?;
                // materialize per-morsel; morsel-order concatenation keeps
                // row order identical to a serial scan
                let chunks = run_morsels(ctx, t.rows.len(), stats, |range, scratch| {
                    fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
                    let mut out = Vec::with_capacity(range.len());
                    let mut acc = 0;
                    for i in range.start..range.end {
                        ctx.governor.check_rows(&mut acc, 1)?;
                        out.push(scan_row(t, i, scratch)?);
                    }
                    Ok(out)
                })?;
                Ok(concat(chunks))
            }
            Query::Filter { input, pred } => {
                let rows = self.exec(input, prof, ctx)?;
                // parallel predicate evaluation into per-morsel boolean
                // masks; the move-filter over owned rows stays serial
                let masks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                    fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
                    rows[range.start..range.end]
                        .iter()
                        .map(|r| pred.matches_with(r, scratch))
                        .collect::<Result<Vec<bool>, _>>()
                })?;
                let keep = concat(masks);
                Ok(rows.into_iter().zip(keep).filter_map(|(r, k)| k.then_some(r)).collect())
            }
            Query::Project { input, exprs } => {
                let rows: Vec<Row> = self.exec(input, prof, ctx)?;
                let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                    let mut out = Vec::with_capacity(range.len());
                    for r in &rows[range.start..range.end] {
                        let mut o = Vec::with_capacity(exprs.len());
                        for (_, e) in exprs {
                            // a bare column hands its cell on: a JSON
                            // document stays one
                            o.push(match e {
                                Expr::Col(i) if *i < r.len() => r[*i].clone(),
                                e => Cell::D(e.eval_with(r, scratch)?),
                            });
                        }
                        out.push(o);
                    }
                    Ok(out)
                })?;
                Ok(concat(chunks))
            }
            Query::JsonTable { input, json_col, def } => {
                let rows = self.exec(input, prof, ctx)?;
                let width = def.width();
                // the row API of the one expansion routine, reached with
                // the spine off (the identity oracle) or when the pipeline
                // did not lower; one cursor per worker, held across all the
                // documents that worker expands
                let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                    fsdm_fault::fire(FP_EXEC_JSONTABLE_ROW).map_err(fault_err)?;
                    let mut out = Vec::new();
                    for r in &rows[range.start..range.end] {
                        let jt_rows = match r.get(*json_col) {
                            Some(Cell::J(j)) => j.open().table_rows(scratch.cursor(def)),
                            _ => Vec::new(),
                        };
                        if jt_rows.is_empty() {
                            let mut padded = r.clone();
                            padded.extend(std::iter::repeat_n(Cell::D(Datum::Null), width));
                            out.push(padded);
                        } else {
                            for jt in jt_rows {
                                let mut combined = r.clone();
                                combined.extend(jt.into_iter().map(Cell::D));
                                out.push(combined);
                            }
                        }
                    }
                    // the expanded buffer is this operator's memory bill:
                    // every output row holds the input row plus `width`
                    // JSON_TABLE columns
                    ctx.governor
                        .charge(out.len() as u64 * (width as u64 + 1) * BUDGET_BYTES_PER_CELL)?;
                    Ok(out)
                })?;
                Ok(concat(chunks))
            }
            Query::HashJoin { left, right, left_key, right_key } => {
                let lrows = self.exec(left, prof, ctx)?;
                let rrows = self.exec(right, prof, ctx)?;
                // build: per-morsel partial tables merged at a barrier in
                // morsel order. Each partial holds ascending, disjoint row
                // ids, so per-key concatenation reproduces the serial
                // insertion order exactly.
                let partials = run_morsels(ctx, lrows.len(), stats, |range, _| {
                    fsdm_fault::fire(FP_EXEC_JOIN_BUILD).map_err(fault_err)?;
                    let mut m: HashMap<Datum, Vec<usize>> = HashMap::new();
                    let mut entries = 0u64;
                    for (off, r) in lrows[range.start..range.end].iter().enumerate() {
                        if let Some(d) = join_key(r, *left_key) {
                            if !d.is_null() {
                                m.entry(d.into_owned()).or_default().push(range.start + off);
                                entries += 1;
                            }
                        }
                    }
                    ctx.governor.charge(entries * BUDGET_BYTES_PER_JOIN_ENTRY)?;
                    Ok(m)
                })?;
                let mut build: HashMap<Datum, Vec<usize>> = HashMap::new();
                for m in partials {
                    for (k, v) in m {
                        build.entry(k).or_default().extend(v);
                    }
                }
                // probe: per-morsel over the right input, morsel-ordered
                let chunks = run_morsels(ctx, rrows.len(), stats, |range, _| {
                    let mut out = Vec::new();
                    for r in &rrows[range.start..range.end] {
                        if let Some(d) = join_key(r, *right_key) {
                            if let Some(matches) = build.get(&*d) {
                                for &li in matches {
                                    let mut combined = lrows[li].clone();
                                    combined.extend(r.iter().cloned());
                                    out.push(combined);
                                }
                            }
                        }
                    }
                    Ok(out)
                })?;
                Ok(concat(chunks))
            }
            Query::GroupBy { input, keys, aggs } => {
                let rows = self.exec(input, prof, ctx)?;
                group_by(rows, keys, aggs, ctx, stats)
            }
            Query::Sort { input, keys } => {
                let rows = self.exec(input, prof, ctx)?;
                sort_rows(rows, keys, ctx, stats)
            }
            Query::Window { input, fun, order, .. } => {
                let rows = self.exec(input, prof, ctx)?;
                let mut rows = sort_rows(rows, order, ctx, stats)?;
                match fun {
                    WindowFun::Lag { expr, offset, default } => {
                        // parallel: evaluate the lagged expression per-morsel
                        let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                            rows[range.start..range.end]
                                .iter()
                                .map(|r| expr.eval_with(r, scratch))
                                .collect::<Result<Vec<Datum>, _>>()
                        })?;
                        let vals = concat(chunks);
                        // serial tail: stitch lagged values back in order
                        let mut scratch = EvalScratch::new();
                        for i in 0..rows.len() {
                            let cell = if i >= *offset {
                                vals[i - *offset].clone()
                            } else {
                                match default {
                                    Some(d) => d.eval_with(&rows[i], &mut scratch)?,
                                    None => Datum::Null,
                                }
                            };
                            rows[i].push(Cell::D(cell));
                        }
                    }
                }
                Ok(rows)
            }
            Query::Limit { input, n } => {
                let mut rows = self.exec(input, prof, ctx)?;
                rows.truncate(*n);
                Ok(rows)
            }
            Query::Sample { input, pct } => {
                let rows = self.exec(input, prof, ctx)?;
                let keep = |i: usize| -> bool {
                    let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
                    ((h % 10_000) as f64) < pct * 100.0
                };
                Ok(rows.into_iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, r)| r).collect())
            }
        }
    }

    /// **The single mode decision**, from plan shape alone: the pipeline
    /// `plan` roots — a chain of `Project` / `Filter`, optionally topped
    /// by a `GroupBy`, down to a `Scan` or to a `JsonTable` over a `Scan`
    /// with only `Filter`s in between — lowered to kernels; `None` when
    /// `plan` roots none, or with the spine off.
    /// The executor runs what this returns and reports it;
    /// [`Database::explain_modes`] asks here too, so report and execution
    /// cannot disagree.
    fn lower_scan<'q>(&'q self, plan: &'q Query) -> Option<FusedScan<'q>> {
        if !self.columnar {
            return None;
        }
        let (mut chain, mut expand) = (vec![plan], None);
        let table = loop {
            match chain[chain.len() - 1] {
                Query::Scan { table } => break table,
                Query::Filter { input, .. } => chain.push(input),
                Query::Project { input, .. } if expand.is_none() => chain.push(input),
                Query::GroupBy { input, .. } if chain.len() == 1 => chain.push(input),
                Query::JsonTable { input, json_col, def } if expand.is_none() => {
                    expand = Some((*json_col, def));
                    chain.push(input)
                }
                _ => return None,
            }
        };
        Some(FusedScan::lower(self.tables.get(table)?, expand, &chain))
    }

    /// **The single fused-scan entry.** Runs the lowered pipeline and
    /// hands its output to the consumer: rows of the values it takes,
    /// built once inside the morsel — or, for a `GroupBy`, per-morsel
    /// group partials built straight from the gathered columns, no row
    /// in between.
    fn run_fused<V: RowValue>(
        &self,
        plan: &Query,
        fused: &FusedScan<'_>,
        prof: &mut Vec<OpProfile>,
        ctx: &ExecContext,
        stats: &mut ParStats,
    ) -> Result<Vec<Vec<V>>, StoreError> {
        // a fused operator is an operator of the plan all the same: each
        // keeps its span and its profile row
        let mut spans: Vec<_> = fused
            .below
            .iter()
            .map(|op| {
                let mut span = trace::span(fsdm_obs::catalog::SPAN_EXEC_OP);
                span.record_args(|| op_label(op));
                span
            })
            .collect();
        let start = Instant::now();
        let mut scan_stats = ParStats::default();
        let (rows, stage_rows) = match plan {
            Query::GroupBy { keys, aggs, .. } => {
                let finish = |n, mut cols: Vec<Vec<Datum>>| {
                    // the pipeline emitted [keys…, aggregate arguments…]
                    let mut gathered = cols.split_off(keys.len()).into_iter();
                    let args = aggs.iter().map(|a| a.arg.as_ref().and_then(|_| gathered.next()));
                    GroupPartial::new(ctx, n, cols, args.collect())
                };
                let (partials, rows) = self.scan_batches(fused, ctx, &mut scan_stats, finish)?;
                (merge_groups(partials, keys.len(), aggs), rows)
            }
            _ => {
                let finish = |n, cols: Vec<Vec<V>>| {
                    // transpose, moving each value exactly once: the first
                    // and only point rows exist in the pipeline
                    let width = cols.len();
                    let mut cols: Vec<_> = cols.into_iter().map(Vec::into_iter).collect();
                    let row = |_| {
                        let mut row = Vec::with_capacity(width);
                        row.extend(cols.iter_mut().filter_map(Iterator::next));
                        row
                    };
                    Ok((0..n).map(row).collect::<Vec<_>>())
                };
                let (chunks, rows) = self.scan_batches(fused, ctx, &mut scan_stats, finish)?;
                (concat(chunks), rows)
            }
        };
        while spans.pop().is_some() {} // innermost first
        if fused.below.is_empty() {
            *stats = scan_stats; // the scan is the operator itself
        } else {
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            let (mut child, mut rows_out, mut expanded) = (None, 0, false);
            for op in fused.below.iter().rev() {
                rows_out = match op {
                    Query::Scan { .. } => stage_rows.scanned,
                    Query::JsonTable { .. } => {
                        expanded = true;
                        stage_rows.expanded
                    }
                    Query::Filter { .. } if expanded => stage_rows.kept,
                    Query::Filter { .. } => stage_rows.filtered,
                    _ => rows_out,
                };
                // the one `run_morsels` call is booked on the scan
                let ran = child.is_none();
                child = Some(OpProfile {
                    op: op_label(op),
                    rows_out,
                    elapsed_ns,
                    workers: if ran { scan_stats.workers.max(1) } else { 1 },
                    morsels: if ran { scan_stats.morsels } else { 0 },
                    mode: "columnar",
                    note: fused.note(op, false),
                    children: child.into_iter().collect(),
                });
            }
            prof.extend(child);
        }
        Ok(rows)
    }

    /// The per-morsel body of the fused pipeline: filter stages narrow the
    /// selection (each extracting the transient columns it reads for the
    /// rows still selected) — over the table's rows and then, for a
    /// `JsonTable` source, over the expansion of the survivors —
    /// then every output column is gathered for the surviving rows only —
    /// late materialization — and `finish` turns the `n` selected rows'
    /// columns into the consumer's unit of work.
    fn scan_batches<C: RowValue, T: Send>(
        &self,
        fused: &FusedScan<'_>,
        ctx: &ExecContext,
        stats: &mut ParStats,
        finish: impl Fn(usize, Vec<Vec<C>>) -> Result<T, StoreError> + Sync,
    ) -> Result<(Vec<T>, StageRows), StoreError> {
        let t = fused.table;
        let slots = fused.leaves.len();
        let total = if fused.empty { 0 } else { t.rows.len() };
        let chunks = run_morsels(ctx, total, stats, |range, scratch| {
            fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
            let start = Instant::now();
            let mut cols = MorselCols::new(range, slots, &ctx.governor);
            let table = Rows::Table(t);
            let all = Batch::all(range);
            let mut rows = StageRows { scanned: all.len(), ..StageRows::default() };
            let batch = fused.stages(&fused.table_stages, &table, &mut cols, all, scratch)?;
            rows.filtered = batch.len();
            let out = match fused.expand {
                None => {
                    (rows.expanded, rows.kept) = (rows.filtered, rows.filtered);
                    fused.gather(&table, &mut cols, &batch, scratch)?
                }
                Some((json_col, def)) => {
                    drop(cols); // expanded: the documents' own columns are dead
                    fsdm_fault::fire(FP_EXEC_JSONTABLE_ROW).map_err(fault_err)?;
                    let parses = Parses::new(batch.len());
                    let (expanded, mut cols) = Expanded::new(
                        t,
                        json_col,
                        &batch.sel,
                        &parses,
                        &fused.leaves,
                        scratch.cursor(def),
                        &ctx.governor,
                    )?;
                    let all = Batch::all(RowRange { start: 0, end: expanded.len() });
                    rows.expanded = all.len();
                    let expanded = Rows::Expanded(&expanded);
                    let batch =
                        fused.stages(&fused.expanded_stages, &expanded, &mut cols, all, scratch)?;
                    rows.kept = batch.len();
                    fused.gather(&expanded, &mut cols, &batch, scratch)?
                }
            };
            let done = finish(rows.kept, out)?;
            metric::EXEC_LATE_MATERIALIZE_ROWS.add(rows.kept as u64);
            metric::EXEC_BATCH_NS.record(start.elapsed().as_nanos() as u64);
            Ok((done, rows))
        })?;
        let mut total = StageRows::default();
        for (_, rows) in &chunks {
            total.scanned += rows.scanned;
            total.filtered += rows.filtered;
            total.expanded += rows.expanded;
            total.kept += rows.kept;
        }
        Ok((chunks.into_iter().map(|(done, _)| done).collect(), total))
    }

    /// [`Query::render`] of an (already optimized) plan with the
    /// executor's pipeline selection appended to every line:
    /// `… mode=columnar|row`, then the operator's annotation (see
    /// [`OpProfile::note`]). The operators a columnar operator fuses below
    /// itself are part of that pipeline and annotate columnar as well.
    pub fn explain_modes(&self, plan: &Query) -> String {
        let mut modes = Vec::new();
        self.collect_modes(plan, &mut modes);
        let rendered = plan.render();
        let lines = rendered.lines().zip(modes).map(|(line, (mode, note))| {
            let gap = if note.is_empty() { "" } else { "  " };
            format!("{line}  mode={mode}{gap}{note}\n")
        });
        lines.collect()
    }

    /// Pre-order mode walk mirroring [`Query::render`]'s line order.
    fn collect_modes(&self, plan: &Query, out: &mut Vec<(&'static str, String)>) {
        if let Some(fused) = self.lower_scan(plan) {
            out.push(("columnar", fused.note(plan, true)));
            out.extend(fused.below.iter().map(|op| ("columnar", fused.note(op, false))));
            return;
        }
        out.push(("row", String::new()));
        match plan {
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::JsonTable { input, .. }
            | Query::GroupBy { input, .. }
            | Query::Sort { input, .. }
            | Query::Window { input, .. }
            | Query::Limit { input, .. }
            | Query::Sample { input, .. } => self.collect_modes(input, out),
            Query::HashJoin { left, right, .. } => {
                self.collect_modes(left, out);
                self.collect_modes(right, out);
            }
            Query::Scan { .. } => {}
        }
    }
}

/// The row evaluator's scan row: the stored cells — the OSON-IMC is the
/// spine's alone, so the row evaluator is an oracle that does not depend
/// on it — then every virtual column, from its IMC vector when
/// materialized, computed on the fly otherwise.
fn scan_row(t: &Table, i: usize, scratch: &mut EvalScratch) -> Result<Row, StoreError> {
    let mut r = t.imc_row(i);
    for vc in &t.virtual_columns {
        let value = match t.vector(r.len()) {
            Some(vector) => vector.datum(i),
            None => vc.expr.eval_with(&r, scratch)?,
        };
        r.push(Cell::D(value));
    }
    Ok(r)
}

/// One morsel's contribution to a group-by, column-major: its distinct
/// keys in first-seen order, each input row's group, and the evaluated
/// aggregate arguments per input row. Keeping raw arguments (instead of
/// partial [`Acc`]s) lets the merge replay the exact serial accumulation
/// sequence, so non-associative float SUM/AVG come out bit-identical at
/// every degree.
struct GroupPartial {
    /// Input rows of the morsel.
    rows: usize,
    /// Distinct keys, first-seen order.
    order: Vec<Vec<Datum>>,
    /// Per input row, the index of its key in `order`; empty for a
    /// keyless aggregate (one group).
    group_of: Vec<u32>,
    /// Per aggregate, its argument per input row (`None`: `COUNT(*)`).
    args: Vec<Option<Vec<Datum>>>,
}

impl GroupPartial {
    /// Build from `rows` evaluated input rows: one column per key, one
    /// optional column per aggregate.
    fn new(
        ctx: &ExecContext,
        rows: usize,
        keys: Vec<Vec<Datum>>,
        args: Vec<Option<Vec<Datum>>>,
    ) -> Result<GroupPartial, StoreError> {
        fsdm_fault::fire(FP_EXEC_GROUPBY_PARTIAL).map_err(fault_err)?;
        // the partial holds one evaluated datum per key and aggregate
        // argument for every input row of the morsel
        ctx.governor
            .charge((keys.len() + args.len()) as u64 * BUDGET_BYTES_PER_DATUM * rows as u64)?;
        let (mut order, mut group_of) = (Vec::new(), Vec::new());
        if !keys.is_empty() {
            let mut index: HashMap<Vec<Datum>, u32> = HashMap::new();
            let mut keys: Vec<_> = keys.into_iter().map(Vec::into_iter).collect();
            group_of.reserve(rows);
            for _ in 0..rows {
                let key: Vec<Datum> = keys.iter_mut().filter_map(Iterator::next).collect();
                let next = order.len() as u32;
                group_of.push(*index.entry(key).or_insert_with_key(|key| {
                    order.push(key.clone());
                    next
                }));
            }
        }
        Ok(GroupPartial { rows, order, group_of, args })
    }
}

/// What a group-by reads of its input: its keys, then its aggregate
/// arguments.
fn group_reads<'q>(
    keys: &'q [(String, Expr)],
    aggs: &'q [AggSpec],
) -> impl Iterator<Item = &'q Expr> {
    keys.iter().map(|(_, e)| e).chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
}

/// A join key as the row evaluator reads a column: a JSON document as
/// its text.
fn join_key(r: &Row, col: usize) -> Option<Cow<'_, Datum>> {
    Some(match r.get(col)? {
        Cell::D(d) => Cow::Borrowed(d),
        Cell::J(j) => Cow::Owned(Datum::Str(j.decode_to_text())),
    })
}

/// The row evaluator's group-by: keys and aggregate arguments are
/// evaluated per input row, per morsel, into [`GroupPartial`]s.
fn group_by(
    rows: Vec<Row>,
    keys: &[(String, Expr)],
    aggs: &[AggSpec],
    ctx: &ExecContext,
    stats: &mut ParStats,
) -> Result<Vec<Row>, StoreError> {
    let partials = run_morsels(ctx, rows.len(), stats, |range, scratch| {
        let mut key_cols: Vec<Vec<Datum>> = keys.iter().map(|_| Vec::new()).collect();
        let mut arg_cols: Vec<Option<Vec<Datum>>> =
            aggs.iter().map(|a| a.arg.as_ref().map(|_| Vec::new())).collect();
        for r in &rows[range.start..range.end] {
            for (col, (_, e)) in key_cols.iter_mut().zip(keys) {
                col.push(e.eval_with(r, scratch)?);
            }
            for (col, spec) in arg_cols.iter_mut().zip(aggs) {
                if let (Some(col), Some(e)) = (col, &spec.arg) {
                    col.push(e.eval_with(r, scratch)?);
                }
            }
        }
        GroupPartial::new(ctx, range.len(), key_cols, arg_cols)
    })?;
    Ok(merge_groups(partials, keys.len(), aggs))
}

/// The serial merge barrier of every group-by. Partials arrive in morsel
/// order, and each holds its rows in input order, so replaying them here
/// feeds every group's accumulators exactly the update sequence a serial
/// run would; likewise first-seen key order across morsels in morsel
/// order equals serial first-seen order.
fn merge_groups<V: RowValue>(
    partials: Vec<GroupPartial>,
    nkeys: usize,
    aggs: &[AggSpec],
) -> Vec<Vec<V>> {
    let fresh = || aggs.iter().map(|a| Acc::new(a.fun)).collect::<Vec<Acc>>();
    let mut index: HashMap<Vec<Datum>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Datum>, Vec<Acc>)> = Vec::new();
    if nkeys == 0 {
        // no keys: SQL returns one row of aggregates even over no input
        groups.push((Vec::new(), fresh()));
    }
    for p in partials {
        // this partial's group numbers in terms of the merged table
        let global: Vec<usize> = p
            .order
            .into_iter()
            .map(|key| {
                *index.entry(key).or_insert_with_key(|key| {
                    groups.push((key.clone(), fresh()));
                    groups.len() - 1
                })
            })
            .collect();
        let mut args: Vec<_> = p.args.into_iter().map(|c| c.map(Vec::into_iter)).collect();
        for row in 0..p.rows {
            let group = p.group_of.get(row).map_or(0, |g| global[*g as usize]);
            for (acc, col) in groups[group].1.iter_mut().zip(&mut args) {
                acc.update(col.as_mut().and_then(Iterator::next));
            }
        }
    }
    groups
        .into_iter()
        .map(|(key, accs)| {
            key.into_iter().chain(accs.into_iter().map(Acc::finish)).map(V::of_datum).collect()
        })
        .collect()
}

/// Per-morsel outputs concatenated in morsel order, into one vector
/// sized once.
fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for mut chunk in chunks {
        out.append(&mut chunk);
    }
    out
}

/// Count a governance kill by reason; `None` for an error that is not
/// one.
fn count_kill(kind: ErrorKind) -> Option<&'static str> {
    match kind {
        ErrorKind::Cancelled(r) => {
            metric::GOVERN_CANCELLED.inc();
            Some(r.label())
        }
        ErrorKind::DeadlineExceeded => {
            metric::GOVERN_DEADLINE_EXCEEDED.inc();
            Some("deadline")
        }
        ErrorKind::BudgetExceeded => {
            metric::GOVERN_BUDGET_EXCEEDED.inc();
            Some("budget")
        }
        // worker panics are counted at the catch site in `run_morsels`
        ErrorKind::WorkerPanic { .. } | ErrorKind::Generic => None,
    }
}

/// Display label of a plan node for [`QueryProfile`] output.
fn op_label(plan: &Query) -> String {
    match plan {
        Query::Scan { table } => format!("Scan({table})"),
        Query::Filter { .. } => "Filter".to_string(),
        Query::Project { .. } => "Project".to_string(),
        Query::JsonTable { .. } => "JsonTable".to_string(),
        Query::HashJoin { .. } => "HashJoin".to_string(),
        Query::GroupBy { .. } => "GroupBy".to_string(),
        Query::Sort { .. } => "Sort".to_string(),
        Query::Window { name, .. } => format!("Window({name})"),
        Query::Limit { n, .. } => format!("Limit({n})"),
        Query::Sample { pct, .. } => format!("Sample({pct})"),
    }
}

fn sort_rows(
    rows: Vec<Row>,
    keys: &[SortKey],
    ctx: &ExecContext,
    stats: &mut ParStats,
) -> Result<Vec<Row>, StoreError> {
    if rows.len() <= 1 {
        return Ok(rows);
    }
    // precompute key tuples per-morsel (expressions may be JSON ops —
    // evaluate once, in parallel); the sort itself is the serial tail
    let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
        // the sort's memory bill is the precomputed key-tuple table
        ctx.governor.charge(keys.len() as u64 * BUDGET_BYTES_PER_DATUM * range.len() as u64)?;
        rows[range.start..range.end]
            .iter()
            .map(|r| {
                keys.iter().map(|s| s.expr.eval_with(r, scratch)).collect::<Result<Vec<Datum>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let keyed = concat(chunks);
    // fired once, serially, before the permutation is applied — a fault
    // here proves the sort tail cleans up owned rows mid-operator
    fsdm_fault::fire(FP_EXEC_SORT_PERMUTE).map_err(fault_err)?;
    // stable permutation sort over indices: ties keep input order
    let mut perm: Vec<usize> = (0..rows.len()).collect();
    perm.sort_by(|&x, &y| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = keyed[x][i].order_key_cmp(&keyed[y][i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    // apply the permutation by moving each owned row once — no per-row
    // clone (the previous implementation duplicated the whole row set)
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(slots.len());
    for src in perm {
        out.push(slots[src].take().expect("each source row moves exactly once"));
    }
    Ok(out)
}

/// Aggregate accumulator.
enum Acc {
    Count(u64),
    CountNonNull(u64),
    Sum { total: f64, any: bool },
    Avg { total: f64, n: u64 },
    Min(Option<Datum>),
    Max(Option<Datum>),
    DataGuide(Box<DataGuide>),
}

impl Acc {
    fn new(fun: AggFun) -> Acc {
        match fun {
            AggFun::CountStar => Acc::Count(0),
            AggFun::Count => Acc::CountNonNull(0),
            AggFun::Sum => Acc::Sum { total: 0.0, any: false },
            AggFun::Avg => Acc::Avg { total: 0.0, n: 0 },
            AggFun::Min => Acc::Min(None),
            AggFun::Max => Acc::Max(None),
            AggFun::DataGuide => Acc::DataGuide(Box::default()),
        }
    }

    fn update(&mut self, arg: Option<Datum>) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::CountNonNull(n) => {
                if matches!(&arg, Some(d) if !d.is_null()) {
                    *n += 1;
                }
            }
            Acc::Sum { total, any } => {
                if let Some(v) = arg.as_ref().and_then(|d| d.as_num()) {
                    *total += v.to_f64();
                    *any = true;
                }
            }
            Acc::Avg { total, n } => {
                if let Some(v) = arg.as_ref().and_then(|d| d.as_num()) {
                    *total += v.to_f64();
                    *n += 1;
                }
            }
            Acc::Min(cur) => {
                if let Some(d) = arg {
                    if !d.is_null()
                        && cur.as_ref().map(|c| d.order_key_cmp(c).is_lt()).unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(d) = arg {
                    if !d.is_null()
                        && cur.as_ref().map(|c| d.order_key_cmp(c).is_gt()).unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
            }
            // the argument is the document as text; text that does not
            // parse (and any non-text value) contributes nothing
            Acc::DataGuide(guide) => {
                if let Some(Datum::Str(text)) = &arg {
                    if let Ok(doc) = fsdm_json::parse(text) {
                        guide.add_document(&doc);
                    }
                }
            }
        }
    }

    fn finish(self) -> Datum {
        match self {
            Acc::Count(n) | Acc::CountNonNull(n) => Datum::from(n as i64),
            Acc::Sum { total, any } => {
                if any {
                    Datum::from(total)
                } else {
                    Datum::Null
                }
            }
            Acc::Avg { total, n } => {
                if n > 0 {
                    Datum::from(total / n as f64)
                } else {
                    Datum::Null
                }
            }
            Acc::Min(d) | Acc::Max(d) => d.unwrap_or(Datum::Null),
            Acc::DataGuide(guide) => Datum::Str(fsdm_json::to_string(&to_flat_json(&guide))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::jsonaccess::JsonStorage;
    use crate::schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
    use crate::table::InsertValue;
    use fsdm_sqljson::json_table::{ColumnDef, JsonTableDef};
    use fsdm_sqljson::{parse_path, SqlType};

    fn sample_db(storage: JsonStorage) -> Database {
        let mut t = Table::new(TableSchema::new(
            "po",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", storage, ConstraintMode::IsJson),
            ],
        ));
        for (i, (cc, items)) in [
            ("A", vec![("phone", 100.0, 2), ("case", 15.0, 1)]),
            ("B", vec![("ipad", 350.86, 3)]),
            ("A", vec![("tv", 500.0, 1), ("mount", 40.0, 2), ("cable", 5.0, 3)]),
        ]
        .iter()
        .enumerate()
        {
            let items_json: Vec<String> = items
                .iter()
                .map(|(n, p, q)| format!(r#"{{"name":"{n}","price":{p},"quantity":{q}}}"#))
                .collect();
            let doc = format!(
                r#"{{"costcenter":"{cc}","reference":"R-{i}","items":[{}]}}"#,
                items_json.join(",")
            );
            t.insert(vec![(i as i64).into(), InsertValue::Json(doc)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn items_def() -> JsonTableDef {
        JsonTableDef {
            row_path: parse_path("$.items[*]").unwrap(),
            columns: vec![
                ColumnDef::value("name", SqlType::Varchar2(16), parse_path("$.name").unwrap()),
                ColumnDef::value("price", SqlType::Number, parse_path("$.price").unwrap()),
                ColumnDef::value("quantity", SqlType::Number, parse_path("$.quantity").unwrap()),
            ],
            nested: vec![],
        }
    }

    #[test]
    fn scan_filter_project() {
        for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
            let db = sample_db(storage);
            let q = Query::scan("po")
                .filter(Expr::cmp(
                    Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4)),
                    CmpOp::Eq,
                    Expr::Lit(Datum::from("A")),
                ))
                .project(vec![("did", Expr::Col(0))]);
            let r = db.execute(&q).unwrap();
            assert_eq!(r.rows.len(), 2, "{storage:?}");
        }
    }

    #[test]
    fn json_table_lateral_expansion() {
        let db = sample_db(JsonStorage::Oson);
        let q =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() };
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 6, "2 + 1 + 3 items");
        assert_eq!(r.columns, vec!["did", "jdoc", "name", "price", "quantity"]);
    }

    #[test]
    fn group_by_aggregates() {
        let db = sample_db(JsonStorage::Oson);
        // revenue per costcenter over the un-nested items
        let q = Query::GroupBy {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: items_def(),
            }),
            keys: vec![(
                "cc".to_string(),
                Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4)),
            )],
            aggs: vec![
                AggSpec::count_star("n"),
                AggSpec::of(
                    "revenue",
                    AggFun::Sum,
                    Expr::Arith(
                        Box::new(Expr::Col(3)),
                        crate::expr::ArithOp::Mul,
                        Box::new(Expr::Col(4)),
                    ),
                ),
                AggSpec::of("maxp", AggFun::Max, Expr::Col(3)),
                AggSpec::of("avgq", AggFun::Avg, Expr::Col(4)),
            ],
        };
        let mut r = db.execute(&q).unwrap();
        r.rows.sort_by(|a, b| a[0].order_key_cmp(&b[0]));
        assert_eq!(r.rows.len(), 2);
        // A: phone 100*2 + case 15*1 + tv 500 + mount 80 + cable 15 = 810
        assert_eq!(r.cell(0, "cc"), Some(&Datum::from("A")));
        assert_eq!(r.cell(0, "revenue"), Some(&Datum::from(810.0)));
        assert_eq!(r.cell(0, "n"), Some(&Datum::from(5i64)));
        assert_eq!(r.cell(0, "maxp"), Some(&Datum::from(500.0)));
        // B: 350.86 * 3
        assert_eq!(r.cell(1, "revenue"), Some(&Datum::from(1052.58)));
    }

    #[test]
    fn sort_and_limit() {
        let db = sample_db(JsonStorage::Text);
        let q =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() }
                .sort(vec![SortKey::desc(Expr::Col(3))])
                .limit(2);
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.cell(0, "name"), Some(&Datum::from("tv")));
        assert_eq!(r.cell(1, "name"), Some(&Datum::from("ipad")));
    }

    #[test]
    fn window_lag() {
        let db = sample_db(JsonStorage::Oson);
        let q = Query::Window {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: items_def(),
            }),
            name: "prev_price".to_string(),
            fun: WindowFun::Lag { expr: Expr::Col(3), offset: 1, default: Some(Expr::Col(3)) },
            order: vec![SortKey::asc(Expr::Col(3))],
        };
        let r = db.execute(&q).unwrap();
        // sorted by price asc: 5,15,40,100,350.86,500
        assert_eq!(r.cell(0, "prev_price"), Some(&Datum::from(5.0)), "default = own value");
        assert_eq!(r.cell(1, "prev_price"), Some(&Datum::from(5.0)));
        assert_eq!(r.cell(5, "prev_price"), Some(&Datum::from(350.86)));
    }

    #[test]
    fn hash_join() {
        // relational master/detail join
        let mut master = Table::new(TableSchema::new(
            "m",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::new("cc", ColType::Varchar2(4)),
            ],
        ));
        master.insert(vec![1i64.into(), "A".into()]).unwrap();
        master.insert(vec![2i64.into(), "B".into()]).unwrap();
        let mut detail = Table::new(TableSchema::new(
            "d",
            vec![
                ColumnSpec::new("mid", ColType::Number),
                ColumnSpec::new("price", ColType::Number),
            ],
        ));
        detail.insert(vec![1i64.into(), InsertValue::Datum(Datum::from(10i64))]).unwrap();
        detail.insert(vec![1i64.into(), InsertValue::Datum(Datum::from(20i64))]).unwrap();
        detail.insert(vec![2i64.into(), InsertValue::Datum(Datum::from(30i64))]).unwrap();
        detail.insert(vec![9i64.into(), InsertValue::Datum(Datum::from(99i64))]).unwrap();
        let mut db = Database::new();
        db.add_table(master);
        db.add_table(detail);
        let q = Query::HashJoin {
            left: Box::new(Query::scan("m")),
            right: Box::new(Query::scan("d")),
            left_key: 0,
            right_key: 0,
        };
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 3, "unmatched detail row drops");
        assert_eq!(r.columns, vec!["id", "cc", "mid", "price"]);
    }

    #[test]
    fn empty_group_by_returns_single_row() {
        let db = sample_db(JsonStorage::Text);
        let q = Query::scan_where(
            "po",
            Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Datum::from(999i64))),
        )
        .group_by(vec![], vec![AggSpec::count_star("n")]);
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.cell(0, "n"), Some(&Datum::from(0i64)));
    }

    #[test]
    fn execute_profiled_reports_per_operator_rows_and_time() {
        let db = sample_db(JsonStorage::Oson);
        let q =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() }
                .sort(vec![SortKey::desc(Expr::Col(3))])
                .limit(2);
        let (result, profile) = db.execute_profiled(&q).unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result, db.execute(&q).unwrap(), "profiling must not change results");
        // operator tree mirrors the plan: Limit -> Sort -> JsonTable -> Scan
        let labels: Vec<&str> = profile.ops().iter().map(|o| o.op.as_str()).collect();
        assert_eq!(labels, vec!["Limit(2)", "Sort", "JsonTable", "Scan(po)"]);
        assert_eq!(profile.find("Limit").unwrap().rows_out, 2);
        assert_eq!(profile.find("Sort").unwrap().rows_out, 6);
        assert_eq!(profile.find("JsonTable").unwrap().rows_out, 6, "2 + 1 + 3 items");
        assert_eq!(profile.find("Scan").unwrap().rows_out, 3);
        // inclusive timing: every parent covers its children
        assert!(profile.elapsed_ns() > 0);
        assert!(
            profile.find("Limit").unwrap().elapsed_ns >= profile.find("Sort").unwrap().elapsed_ns
        );
        assert!(
            profile.find("JsonTable").unwrap().elapsed_ns
                >= profile.find("Scan").unwrap().elapsed_ns
        );
        let rendered = profile.render();
        assert!(rendered.contains("JsonTable  rows=6"), "{rendered}");
        // fused or not, an operator reports what it handed up: the scan
        // under a chain's filter its own rows, not the filter's survivors
        let cc = Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4));
        let q = Query::scan("po")
            .project(vec![("did", Expr::Col(0)), ("cc", cc)])
            .filter(Expr::cmp(Expr::Col(1), CmpOp::Eq, Expr::Lit(Datum::from("A"))));
        let mut db = db;
        for columnar in [true, false] {
            db.set_columnar(columnar);
            let (_, profile) = db.execute_profiled(&q).unwrap();
            let rows: Vec<(&str, usize)> =
                profile.ops().iter().map(|o| (o.op.as_str(), o.rows_out)).collect();
            assert_eq!(rows, [("Filter", 2), ("Project", 3), ("Scan(po)", 3)], "{columnar}");
        }
    }

    /// `Filter[1 / (v - 3) > 0]` over `Filter[(w + 0) <> 3]` over six rows
    /// with `v = w = 1…6`, `v` a resident vector: the upper filter's
    /// row-wise stage reads no transient column, the lower one's does, and
    /// still the lower filter runs first — it rejects the row the upper one
    /// would divide by zero on. Optimized or not, on the spine or not.
    #[test]
    fn a_filter_never_sees_a_row_a_filter_below_it_rejected() {
        use crate::expr::ArithOp;
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::json("jdoc", JsonStorage::Oson, ConstraintMode::IsJson),
            ],
        ));
        for i in 1..=6i64 {
            t.insert(vec![i.into(), InsertValue::Json(format!(r#"{{"v":{i},"w":{i}}}"#))]).unwrap();
        }
        let path = |p: &str| Expr::json_value(1, parse_path(p).unwrap(), SqlType::Number);
        t.add_virtual_column("v", path("$.v"));
        t.populate_vc_imc(&["v"]).unwrap();
        let mut db = Database::new();
        db.add_table(t);
        let lit = |n: i64| Box::new(Expr::Lit(Datum::from(n)));
        let arith = |a: Box<Expr>, op, b: Box<Expr>| Box::new(Expr::Arith(a, op, b));
        let w = arith(Box::new(path("$.w")), ArithOp::Add, lit(0));
        let inverse =
            arith(lit(1), ArithOp::Div, arith(Box::new(Expr::Col(2)), ArithOp::Sub, lit(3)));
        let plan = Query::scan("t").filter(Expr::Cmp(w, CmpOp::Ne, lit(3))).filter(Expr::Cmp(
            inverse,
            CmpOp::Gt,
            lit(0),
        ));
        for columnar in [false, true] {
            db.set_columnar(columnar);
            for optimize in [false, true] {
                let (r, _) = db.run(&plan, &Run { optimize, ..Run::default() }).unwrap();
                let ids: Vec<Datum> = r.rows.into_iter().map(|mut r| r.remove(0)).collect();
                assert_eq!(ids, [4i64, 5, 6].map(Datum::from), "{columnar} {optimize}");
            }
        }
    }

    #[test]
    fn add_table_returns_replaced_table() {
        let mut db = Database::new();
        let mut t1 = Table::new(TableSchema::new("t", vec![ColumnSpec::new("a", ColType::Number)]));
        t1.insert(vec![1i64.into()]).unwrap();
        assert!(db.add_table(t1).is_none(), "first registration replaces nothing");
        let t2 = Table::new(TableSchema::new("t", vec![ColumnSpec::new("a", ColType::Number)]));
        let replaced = db.add_table(t2).expect("same-name registration returns old table");
        assert_eq!(replaced.rows.len(), 1, "the displaced table is handed back intact");
        assert_eq!(db.table("t").unwrap().rows.len(), 0);
    }

    /// `(id, jdoc)` with `{"v": i}` everywhere and `"late"` only from
    /// row 8 on, under 4-row morsels.
    fn sparse_db() -> Database {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::json("jdoc", JsonStorage::Oson, ConstraintMode::IsJson),
            ],
        ));
        for i in 0..12 {
            let late = if i >= 8 { r#","late":"x""# } else { "" };
            t.insert(vec![(i as i64).into(), InsertValue::Json(format!(r#"{{"v":{i}{late}}}"#))])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db.set_morsel_rows(4);
        db.set_parallelism(1);
        db
    }

    #[test]
    fn fused_scan_extracts_only_what_the_selection_demands() {
        let db = sparse_db();
        let late = Expr::json_exists(1, parse_path("$.late").unwrap());
        let v = Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number);
        let plan = Query::scan_where("t", late).project(vec![("v", v)]);
        let fused = db.lower_scan(&plan).expect("scan-rooted");
        assert_eq!(fused.outs.len(), 1, "the consumer gets the demanded column, no more");
        assert_eq!(fused.leaves.len(), 2);
        // a path absent from every row of a morsel collapses its mask
        let range = crate::parallel::RowRange { start: 0, end: 4 };
        let ctx = db.exec_context();
        let mut cols = MorselCols::new(range, fused.leaves.len(), &ctx.governor);
        let filter = &fused.table_stages[0];
        let Test::Kernel(kernel) = &filter.test else { panic!("JSON_EXISTS is a kernel") };
        let all = crate::vector::SelVec::All(range);
        let mut scratch = EvalScratch::new();
        cols.extract(&Rows::Table(fused.table), &fused.leaves, &filter.slots, &all, &mut scratch)
            .unwrap();
        assert_eq!(kernel.eval(range, &cols), crate::vector::Mask::AllFalse);
        // end to end: only the morsel with survivors extracts the
        // projected column next to the filter column — an empty selection
        // extracts nothing — and every morsel hands its charge back
        let ctx = db.exec_context();
        let (sizes, _) = db
            .scan_batches(&fused, &ctx, &mut ParStats::default(), |n, _: Vec<Vec<Cell>>| Ok(n))
            .unwrap();
        assert_eq!(sizes, vec![0, 0, 4]);
        assert_eq!(ctx.governor.mem_highwater(), 2 * 4 * 32, "one morsel, two columns");
        assert_eq!(db.execute(&plan).unwrap().rows.len(), 4);
    }

    #[test]
    fn fused_group_by_matches_the_row_evaluator() {
        let mut db = sparse_db();
        let v = || Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number);
        let late = Expr::json_value(1, parse_path("$.late").unwrap(), SqlType::Varchar2(4));
        let keyed = Query::scan("t").group_by(
            vec![("late", late)],
            vec![AggSpec::count_star("n"), AggSpec::of("s", AggFun::Sum, v())],
        );
        let keyless =
            Query::scan_where("t", Expr::cmp(v(), CmpOp::Gt, Expr::Lit(Datum::from(99i64))))
                .group_by(
                    vec![],
                    vec![AggSpec::count_star("n"), AggSpec::of("m", AggFun::Max, v())],
                );
        for plan in [keyed, keyless] {
            let (fused, report) = db.execute_profiled(&plan).unwrap();
            assert_eq!(report.root.mode, "columnar");
            db.set_columnar(false);
            let (oracle, report) = db.execute_profiled(&plan).unwrap();
            assert_eq!(report.root.mode, "row");
            assert_eq!(oracle, fused);
            db.set_columnar(true);
        }
    }

    /// The chain above a source composes into one predicate and one output
    /// list, so the source extracts what the statement reads and no more:
    /// a `sum(quantity * unitprice) … group by costcenter` over a
    /// nine-column master/detail view (T7's shape) reads 3 of 9, a
    /// `count(*) … where reference = ?` over a five-expression `po_mv`
    /// (T1's) reads one path — and every plan operator keeps its row.
    #[test]
    fn fused_chains_extract_only_what_the_statement_reads() {
        use crate::expr::ArithOp;
        use fsdm_sqljson::json_table::NestedDef;
        let mut db = sample_db(JsonStorage::Oson);
        let value =
            |name: &str, path: &str, ty| ColumnDef::value(name, ty, parse_path(path).unwrap());
        let (text, number) = (SqlType::Varchar2(32), SqlType::Number);
        let def = JsonTableDef {
            row_path: parse_path("$").unwrap(),
            columns: vec![
                value("reference", "$.reference", text),
                value("requestor", "$.requestor", text),
                value("costcenter", "$.costcenter", text),
                value("instructions", "$.instructions", text),
            ],
            nested: vec![NestedDef {
                path: parse_path("$.items[*]").unwrap(),
                columns: vec![
                    value("itemno", "$.itemno", number),
                    value("partno", "$.partno", text),
                    value("description", "$.name", text),
                    value("quantity", "$.quantity", number),
                    value("unitprice", "$.price", number),
                ],
                nested: vec![],
            }],
        };
        // did, then the JSON_TABLE outputs; the raw jdoc column stays hidden
        let mut exprs = vec![("did".to_string(), Expr::Col(0))];
        exprs.extend(def.column_names().into_iter().zip((2..).map(Expr::Col)));
        let table = Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def };
        let dmdv = Query::Project { input: Box::new(table), exprs };
        let revenue = Expr::Arith(Box::new(Expr::Col(8)), ArithOp::Mul, Box::new(Expr::Col(9)));
        let t7 = dmdv
            .group_by(vec![("k0", Expr::Col(3))], vec![AggSpec::of("a0", AggFun::Sum, revenue)]);
        let explain = db.explain_modes(&t7);
        let want =
            "JsonTable(col#1, '$')  mode=columnar  expand=[costcenter, quantity, unitprice] of 9";
        assert!(explain.contains(want), "{explain}");
        assert!(!explain.contains("mode=row") && !explain.contains("transient="), "{explain}");
        let (fused, profile) = db.execute_profiled(&t7).unwrap();
        let rows: Vec<_> =
            profile.ops().iter().map(|o| (o.op.as_str(), o.rows_out, o.mode)).collect();
        let columnar = |op, rows| (op, rows, "columnar");
        let want = [
            columnar("GroupBy", 2),
            columnar("Project", 6),
            columnar("JsonTable", 6),
            columnar("Scan(po)", 3),
        ];
        assert_eq!(rows, want);

        let path = |p: &str| Expr::json_value(1, parse_path(p).unwrap(), SqlType::Varchar2(32));
        let mv = Query::scan("po").project(vec![
            ("did", Expr::Col(0)),
            ("reference", path("$.reference")),
            ("requestor", path("$.requestor")),
            ("costcenter", path("$.costcenter")),
            ("podate", path("$.podate")),
        ]);
        let t1 = mv
            .filter(Expr::cmp(Expr::Col(1), CmpOp::Eq, Expr::Lit(Datum::from("R-1"))))
            .group_by(vec![], vec![AggSpec::count_star("n")]);
        let explain = db.explain_modes(&t1);
        let want = "mode=columnar  transient=[JSON_VALUE(col#1, '$.reference' RET varchar2(32))]\n";
        assert!(explain.contains(want) && !explain.contains("mode=row"), "{explain}");
        let counted = db.execute(&t1).unwrap();
        assert_eq!(counted.rows, vec![vec![Datum::from(1i64)]]);

        db.set_columnar(false);
        assert_eq!(db.execute(&t7).unwrap(), fused, "T7's shape on the row evaluator");
        assert_eq!(db.execute(&t1).unwrap(), counted, "T1's shape on the row evaluator");
    }

    /// What no kernel expresses runs row-wise inside the pipeline, over
    /// leaves that read resident vectors: `abs(json_value(jdoc, '$.v'))`
    /// with `t$v` resident evaluates no path, as a filter, an output and a
    /// group key alike. A planted vector that disagrees with the documents
    /// proves who reads what: the spine reads it, the oracle computes from
    /// the documents.
    #[test]
    fn row_wise_stages_read_resident_vectors() {
        use crate::expr::ScalarFun;
        let mut db = sparse_db();
        let v = || Expr::json_value(1, parse_path("$.v").unwrap(), SqlType::Number);
        let abs = |e: Expr| Expr::Fun(ScalarFun::Abs, vec![e]);
        let is_seven = Expr::cmp(abs(v()), CmpOp::Eq, Expr::Lit(Datum::from(7i64)));
        let plans = [
            Query::scan_where("t", is_seven.clone()).project(vec![("id", Expr::Col(0))]),
            Query::scan("t").project(vec![("a", abs(v()))]),
            Query::scan("t").group_by(vec![("a", abs(v()))], vec![AggSpec::count_star("n")]),
        ];
        let before: Vec<_> = plans.iter().map(|p| db.execute(p).unwrap()).collect();
        assert_eq!(before[0].rows, vec![vec![Datum::from(7i64)]]);
        let t = db.table_mut("t").unwrap();
        t.add_virtual_column("t$v", v());
        t.populate_vc_imc(&["t$v"]).unwrap();
        let rowwise = [is_seven, abs(v()), abs(v())];
        for ((plan, before), rowwise) in plans.iter().zip(&before).zip(&rowwise) {
            let fused = db.lower_scan(plan).expect("every chain lowers");
            assert_eq!(fused.rowwise, [format!("{rowwise:?}")]);
            assert!((0..fused.leaves.len()).all(|s| fused.leaves.path(s).is_none()), "no path");
            assert_eq!(&db.execute(plan).unwrap(), before, "vectors never change results");
        }
        let explain = db.explain_modes(&plans[0]);
        assert!(explain.contains("mode=columnar  rowwise=[(Abs[JSON_VALUE("), "{explain}");
        assert!(!explain.contains("mode=row"), "{explain}");
        let sevens = vec![Datum::from(7i64); 12];
        let t = db.table_mut("t").unwrap();
        t.imc.vectors.insert(2, Arc::new(crate::imc::ColumnVector::from_datums(sevens)));
        assert_eq!(db.execute(&plans[0]).unwrap().rows.len(), 12, "the spine reads the vector");
        db.set_columnar(false);
        assert_eq!(db.execute(&plans[0]).unwrap(), before[0], "the oracle reads the documents");
    }

    #[test]
    fn json_table_pipelines_read_resident_vectors_on_either_side_of_the_expansion() {
        let cc = || Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4));
        let is_a = |e: Expr| Expr::cmp(e, CmpOp::Eq, Expr::Lit(Datum::from("A")));
        let from_1 = || Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Datum::from(1i64)));
        let items =
            |scan: Query| Query::JsonTable { input: Box::new(scan), json_col: 1, def: items_def() };
        // scan columns: did, jdoc, po$cc; then name, price, quantity
        let out = |q: Query| q.project(vec![("did", Expr::Col(0)), ("name", Expr::Col(3))]);
        let plans = [
            // below the expansion, over the table's rows: the vector of a
            // virtual column by reference and by its spelled-out
            // definition, and of a base column
            out(items(Query::scan_where("po", is_a(Expr::Col(2))))),
            out(items(Query::scan_where("po", is_a(cc())))),
            out(items(Query::scan_where("po", from_1()))),
            // above it, over expanded rows: each through the row's parent
            out(items(Query::scan("po")).filter(is_a(Expr::Col(2)))),
            out(items(Query::scan("po")).filter(is_a(cc()))),
            out(items(Query::scan("po")).filter(from_1())),
            items(Query::scan("po")).project(vec![("cc", Expr::Col(2)), ("name", Expr::Col(3))]),
        ];
        for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
            let mut db = sample_db(storage);
            let t = db.table_mut("po").unwrap();
            t.add_virtual_column("po$cc", cc());
            t.populate_vc_imc(&["did", "po$cc"]).unwrap();
            for plan in &plans {
                let fused = db.lower_scan(plan).expect("a pipeline");
                let paths = (0..fused.leaves.len()).filter_map(|s| fused.leaves.path(s));
                assert_eq!(paths.count(), 0, "`$.costcenter` is never evaluated");
                db.set_columnar(false);
                let row = db.execute(plan).unwrap();
                db.set_columnar(true);
                let columnar = db.execute(plan).unwrap();
                // `Debug` too: 1 and 1.0 are equal numbers, not equal bytes
                assert_eq!(format!("{columnar:?}"), format!("{row:?}"), "{storage:?} {plan:?}");
                assert_eq!(columnar, row);
                assert!(!columnar.rows.is_empty());
            }
            // a vector that disagrees with the documents proves it is read
            let zs = vec![Datum::from("Z"); 3];
            let t = db.table_mut("po").unwrap();
            t.imc.vectors.insert(2, Arc::new(crate::imc::ColumnVector::from_datums(zs)));
            assert!(db.execute(&plans[3]).unwrap().rows.is_empty());
            let all = db.execute(&plans[6]).unwrap();
            assert_eq!(all.rows.len(), 6);
            assert!(all.rows.iter().all(|r| r[0] == Datum::from("Z")));
            // … and one for a base column, read the same way: `did >= 1`
            // over expanded rows keeps every item
            let nines = vec![Datum::from(9i64); 3];
            let t = db.table_mut("po").unwrap();
            t.imc.vectors.insert(0, Arc::new(crate::imc::ColumnVector::from_datums(nines)));
            assert_eq!(db.execute(&plans[5]).unwrap().rows.len(), 6);
        }
    }

    #[test]
    fn an_expansion_is_billed_for_the_text_documents_it_holds_parsed() {
        let count =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() }
                .group_by(vec![], vec![AggSpec::count_star("n")]);
        // no column demanded: six parent offsets over OSON, which is walked
        // in place; the three ~150-byte text documents on top of them
        for (storage, fits) in [(JsonStorage::Oson, true), (JsonStorage::Text, false)] {
            let mut db = sample_db(storage);
            db.set_mem_limit(Some(1024));
            match db.execute(&count) {
                Ok(r) => assert!(fits && r.rows == [[Datum::from(6i64)]], "{storage:?}"),
                Err(e) => assert!(!fits && e.kind == ErrorKind::BudgetExceeded, "{storage:?} {e}"),
            }
        }
    }

    #[test]
    fn oson_imc_transparent_rewrite() {
        let mut db = sample_db(JsonStorage::Text);
        let q = Query::scan("po").project(vec![(
            "cc",
            Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4)),
        )]);
        let before = db.execute(&q).unwrap();
        db.table_mut("po").unwrap().populate_oson_imc().unwrap();
        let after = db.execute(&q).unwrap();
        assert_eq!(before, after, "IMC must not change results");
    }
}
