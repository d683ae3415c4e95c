//! Planner: SQL AST → `fsdm-store` query plans, plus DDL/DML execution.

use fsdm_json::JsonNumber;
use fsdm_sqljson::json_table::{ColumnDef, JsonTableDef, NestedDef};
use fsdm_sqljson::{parse_path, Datum, SqlType};
use fsdm_store::table::InsertValue;
use fsdm_store::{
    AggFun, CmpOp, ColType, ColumnSpec, ConstraintMode, Database, Expr, JsonStorage, Query,
    QueryProfile, QueryResult, Run, ScalarFun, SortKey, Table, TableSchema, WindowFun,
};

use crate::ast::*;
use crate::parser::parse_sql;
use crate::{Result, SqlError};

/// A SQL session bound to a database.
pub struct Session {
    /// The underlying engine.
    pub db: Database,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Session over a fresh database.
    pub fn new() -> Self {
        Session { db: Database::new() }
    }

    /// Session over an existing database.
    pub fn with_db(db: Database) -> Self {
        Session { db }
    }

    /// Pin the executor's parallel degree for every statement this
    /// session runs (see [`Database::set_parallelism`]); `1` forces
    /// strictly serial execution. Results are byte-identical at any
    /// degree — only wall-clock time changes.
    pub fn set_parallelism(&mut self, degree: usize) {
        self.db.set_parallelism(degree);
    }

    /// Set (or clear) the statement timeout in milliseconds: every
    /// subsequent statement gets a deadline of `now + ms` at execution
    /// start and dies with a typed deadline error when it runs past it
    /// (see [`Database::set_statement_timeout`]).
    pub fn set_statement_timeout(&mut self, ms: Option<u64>) {
        self.db.set_statement_timeout(ms);
    }

    /// Set (or clear) the per-statement memory budget in bytes (see
    /// [`Database::set_mem_limit`]).
    pub fn set_mem_limit(&mut self, bytes: Option<u64>) {
        self.db.set_mem_limit(bytes);
    }

    /// A cross-thread handle that cancels this session's currently
    /// running statement. Statement entry points reset the underlying
    /// token, so a cancel only ever affects the statement that was (or
    /// is about to be) running when it was requested.
    pub fn cancel_handle(&self) -> fsdm_store::CancelHandle {
        self.db.cancel_handle()
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_with(sql, &[])
    }

    /// Parse and execute with positional `?` bind values.
    pub fn execute_with(&mut self, sql: &str, binds: &[Datum]) -> Result<QueryResult> {
        // `&mut self` guarantees no statement is running: a leftover
        // cancellation (user or governance) must not leak into this one
        self.db.cancel_token().reset();
        match parse_sql(sql)? {
            Statement::Select(sel) => Ok(self.run_select(sql, &sel, binds, false)?.1),
            Statement::CreateTable { name, columns } => {
                self.create_table(&name, &columns)?;
                Ok(empty_result("created"))
            }
            Statement::Insert { name, rows } => {
                let n = self.run_insert(&name, &rows, binds)?;
                Ok(QueryResult {
                    columns: vec!["inserted".to_string()],
                    rows: vec![vec![Datum::from(n as i64)]],
                })
            }
            Statement::CreateView { name, select } => {
                let plan = self.plan_select(&select, binds)?;
                self.db.create_view(name, plan);
                Ok(empty_result("created"))
            }
        }
    }

    /// Parse and execute one statement (positional `?` binds) and return
    /// its report with the rows: the [`QueryProfile`] of
    /// [`Database::run`] with the prepare-time findings
    /// ([`Session::typecheck_plan`]: FA path lint and PK plan typecheck,
    /// view bodies included) attached, and — with `trace` — the span tree
    /// of the execution (tracing is process-global, so concurrent traced
    /// statements queue up). Every SELECT reports; DDL/DML do not run
    /// through the executor: they execute normally and report `None`.
    pub fn report(
        &mut self,
        sql: &str,
        binds: &[Datum],
        trace: bool,
    ) -> Result<(QueryResult, Option<QueryProfile>)> {
        self.db.cancel_token().reset();
        let Statement::Select(sel) = parse_sql(sql)? else {
            return Ok((self.execute_with(sql, binds)?, None));
        };
        let (plan, result, mut report) = self.run_select(sql, &sel, binds, trace)?;
        report.diagnostics = self.typecheck_plan(&plan).diagnostics;
        Ok((result, Some(report)))
    }

    /// Plan (without executing) a SELECT — used to register views and by
    /// the benchmark harness to pre-plan hot queries.
    pub fn plan(&self, sql: &str, binds: &[Datum]) -> Result<Query> {
        match parse_sql(sql)? {
            Statement::Select(sel) => self.plan_select(&sel, binds),
            _ => Err(SqlError::new("plan() expects a SELECT")),
        }
    }

    /// Plan a SELECT and run it under its SQL text, which names the
    /// statement in its report and in the slow-query ring.
    fn run_select(
        &self,
        sql: &str,
        sel: &Select,
        binds: &[Datum],
        trace: bool,
    ) -> Result<(Query, QueryResult, QueryProfile)> {
        let plan = self.plan_select(sel, binds)?;
        let (result, report) =
            self.db.run(&plan, &Run { source: Some(sql), trace, ..Run::default() })?;
        Ok((plan, result, report))
    }

    fn create_table(&mut self, name: &str, columns: &[CreateColumn]) -> Result<()> {
        let mut specs = Vec::new();
        for c in columns {
            match &c.ty {
                CreateColType::Scalar(t) => {
                    specs.push(ColumnSpec::new(c.name.clone(), scalar_coltype(*t)));
                }
                CreateColType::Json { storage, is_json, dataguide } => {
                    let st = match storage.as_str() {
                        "text" => JsonStorage::Text,
                        "bson" => JsonStorage::Bson,
                        "oson" => JsonStorage::Oson,
                        other => {
                            return Err(SqlError::new(format!("unknown JSON storage {other}")))
                        }
                    };
                    let mode = match (is_json, dataguide) {
                        (_, true) => ConstraintMode::IsJsonWithDataGuide,
                        (true, false) => ConstraintMode::IsJson,
                        (false, false) => ConstraintMode::None,
                    };
                    specs.push(ColumnSpec::json(c.name.clone(), st, mode));
                }
            }
        }
        if self.db.table(name).is_some() {
            return Err(SqlError::new(format!("table {name} already exists")));
        }
        self.db.add_table(Table::new(TableSchema::new(name, specs)));
        Ok(())
    }

    fn run_insert(&mut self, name: &str, rows: &[Vec<SqlExpr>], binds: &[Datum]) -> Result<usize> {
        let table = self.db.table(name).ok_or_else(|| SqlError::new(format!("no table {name}")))?;
        let types: Vec<ColType> = table.schema.columns.iter().map(|c| c.ty).collect();
        let mut bind_pos = 0usize;
        let mut converted: Vec<Vec<InsertValue>> = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != types.len() {
                return Err(SqlError::new(format!(
                    "insert arity mismatch: {} values for {} columns",
                    row.len(),
                    types.len()
                )));
            }
            let mut vals = Vec::with_capacity(row.len());
            for (e, ty) in row.iter().zip(&types) {
                let d = match e {
                    SqlExpr::Bind => {
                        let d = binds
                            .get(bind_pos)
                            .cloned()
                            .ok_or_else(|| SqlError::new("missing bind value"))?;
                        bind_pos += 1;
                        d
                    }
                    other => literal_datum(other)?,
                };
                let v = match ty {
                    ColType::Json(_) => InsertValue::Json(d.to_text()),
                    _ => InsertValue::Datum(d),
                };
                vals.push(v);
            }
            converted.push(vals);
        }
        let table = self.db.table_mut(name).expect("checked above");
        let n = converted.len();
        for vals in converted {
            table.insert(vals).map_err(SqlError::from)?;
        }
        Ok(n)
    }

    /// The plan of a FROM-clause name: a table's scan, or a view's body —
    /// inlined here, so that every statement over a view is planned whole.
    fn source(&self, name: &str) -> Result<Query> {
        if self.db.table(name).is_some() {
            Ok(Query::scan(name))
        } else if let Some(body) = self.db.view(name) {
            Ok(body.clone())
        } else {
            Err(SqlError::new(format!("no table or view {name}")))
        }
    }

    /// Resolve the FROM clause into a base plan plus a naming scope.
    fn base_scope(&self, sel: &Select, binds: &[Datum]) -> Result<Scope> {
        if sel.from.is_empty() {
            return Err(SqlError::new("FROM clause required"));
        }
        // first source must be a table or view
        let (first_plan, first_alias, first_cols) = match &sel.from[0] {
            FromSource::Table { name, alias } => {
                let plan = self.source(name)?;
                let cols = self.db.plan_columns(&plan)?;
                (plan, alias.clone().unwrap_or_else(|| name.clone()), cols)
            }
            FromSource::JsonTable { .. } => {
                return Err(SqlError::new("JSON_TABLE must follow a base table"))
            }
        };
        let mut scope = Scope {
            plan: first_plan,
            segments: vec![(first_alias, first_cols)],
            binds: binds.to_vec(),
            bind_cursor: std::cell::Cell::new(0),
            lag_columns: Vec::new(),
            pending_join: None,
        };
        for src in &sel.from[1..] {
            match src {
                FromSource::JsonTable { column, row_path, columns, alias } => {
                    let json_col = match scope.resolve_ident(column)? {
                        Expr::Col(i) => i,
                        _ => return Err(SqlError::new("JSON_TABLE column must be a column")),
                    };
                    let def = build_jt_def(row_path, columns)?;
                    let names = def.column_names();
                    scope.plan =
                        Query::JsonTable { input: Box::new(scope.plan.clone()), json_col, def };
                    scope.segments.push((alias.clone().unwrap_or_else(|| "jt".to_string()), names));
                }
                FromSource::Table { name, alias } => {
                    // comma join: require an equi-join condition in WHERE
                    let plan = self.source(name)?;
                    let cols = self.db.plan_columns(&plan)?;
                    scope.pending_join = Some(PendingJoin {
                        plan,
                        alias: alias.clone().unwrap_or_else(|| name.clone()),
                        cols,
                    });
                }
            }
        }
        Ok(scope)
    }

    pub(crate) fn plan_select(&self, sel: &Select, binds: &[Datum]) -> Result<Query> {
        let mut scope = self.base_scope(sel, binds)?;
        let mut residual: Option<Expr> = None;
        // resolve a pending comma join using the WHERE clause
        if let Some(join) = scope.pending_join.take() {
            let w = sel
                .where_clause
                .as_ref()
                .ok_or_else(|| SqlError::new("comma join requires a join predicate"))?;
            let mut conjuncts = Vec::new();
            split_conjuncts(w, &mut conjuncts);
            let left_width: usize = scope.segments.iter().map(|(_, c)| c.len()).sum();
            let mut join_keys: Option<(usize, usize)> = None;
            let mut rest: Vec<&SqlExpr> = Vec::new();
            for c in conjuncts {
                if join_keys.is_none() {
                    if let SqlExpr::Binary(l, op, r) = c {
                        if op == "=" {
                            let lk = scope.try_resolve(l);
                            let rk = join_resolve(&join, r);
                            if let (Some(Expr::Col(li)), Some(ri)) = (&lk, rk) {
                                join_keys = Some((*li, ri));
                                continue;
                            }
                            let lk2 = join_resolve(&join, l);
                            let rk2 = scope.try_resolve(r);
                            if let (Some(li), Some(Expr::Col(ri))) = (lk2, &rk2) {
                                join_keys = Some((*ri, li));
                                continue;
                            }
                        }
                    }
                }
                rest.push(c);
            }
            let (lkey, rkey) = join_keys
                .ok_or_else(|| SqlError::new("no equi-join condition found for comma join"))?;
            let _ = left_width;
            scope.plan = Query::HashJoin {
                left: Box::new(scope.plan.clone()),
                right: Box::new(join.plan),
                left_key: lkey,
                right_key: rkey,
            };
            scope.segments.push((join.alias, join.cols));
            // re-resolve remaining conjuncts over the joined scope
            let mut pred: Option<Expr> = None;
            for c in rest {
                let e = scope.translate(c)?;
                pred = Some(match pred {
                    None => e,
                    Some(p) => Expr::And(Box::new(p), Box::new(e)),
                });
            }
            residual = pred;
        } else if let Some(w) = &sel.where_clause {
            residual = Some(scope.translate(w)?);
        }
        let mut plan = scope.plan.clone();
        if let Some(pct) = sel.sample_pct {
            plan = Query::Sample { input: Box::new(plan), pct };
        }
        if let Some(pred) = residual {
            plan = plan.filter(pred);
        }

        let has_group = !sel.group_by.is_empty() || select_has_aggregate(sel);
        if has_group {
            return self.plan_aggregate(sel, &mut scope, plan);
        }

        // window functions: append a column per LAG in the select list
        let mut lag_cols: Vec<(SqlExpr, usize)> = Vec::new(); // (LAG expr, col idx)
        let mut width: usize = scope.segments.iter().map(|(_, c)| c.len()).sum();
        for item in &sel.items {
            if let SelectItem::Expr(e, _) = item {
                for (full, (value, offset, default, order)) in find_lags(e) {
                    let name = format!("__lag{}", lag_cols.len());
                    let lag_expr = scope.translate(value)?;
                    let default = match default {
                        Some(d) => Some(scope.translate(d)?),
                        None => None,
                    };
                    let order = order
                        .iter()
                        .map(|o| Ok(SortKey { expr: scope.translate(&o.expr)?, desc: o.desc }))
                        .collect::<Result<Vec<_>>>()?;
                    plan = Query::Window {
                        input: Box::new(plan),
                        name,
                        fun: WindowFun::Lag { expr: lag_expr, offset, default },
                        order,
                    };
                    lag_cols.push((full.clone(), width));
                    width += 1;
                }
            }
        }
        scope.lag_columns = lag_cols;

        // ORDER BY non-ordinal keys are resolved against the pre-projection
        // scope, so sort first
        let ordinal_only =
            !sel.order_by.is_empty() && sel.order_by.iter().all(|o| ordinal_of(&o.expr).is_some());
        if !sel.order_by.is_empty() && !ordinal_only {
            let keys = sel
                .order_by
                .iter()
                .map(|o| Ok(SortKey { expr: scope.translate(&o.expr)?, desc: o.desc }))
                .collect::<Result<Vec<_>>>()?;
            plan = Query::Sort { input: Box::new(plan), keys };
        }
        // projection
        let exprs = self.select_exprs(sel, &scope)?;
        plan = Query::Project { input: Box::new(plan), exprs };
        if ordinal_only {
            let keys = sel
                .order_by
                .iter()
                .map(|o| {
                    let i = ordinal_of(&o.expr).unwrap();
                    SortKey { expr: Expr::Col(i - 1), desc: o.desc }
                })
                .collect();
            plan = Query::Sort { input: Box::new(plan), keys };
        }
        if let Some(n) = sel.limit {
            plan = plan.limit(n);
        }
        Ok(plan)
    }

    fn plan_aggregate(&self, sel: &Select, scope: &mut Scope, input: Query) -> Result<Query> {
        use fsdm_store::query::AggSpec;
        // group keys
        let mut keys = Vec::new();
        for (i, g) in sel.group_by.iter().enumerate() {
            keys.push((format!("k{i}"), scope.translate(g)?));
        }
        // aggregates discovered in the select list and ORDER BY
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut agg_sources: Vec<SqlExpr> = Vec::new();
        for item in &sel.items {
            if let SelectItem::Expr(e, _) = item {
                collect_aggs(e, &mut agg_sources);
            }
        }
        for o in &sel.order_by {
            collect_aggs(&o.expr, &mut agg_sources);
        }
        for (i, a) in agg_sources.iter().enumerate() {
            let name = format!("a{i}");
            let spec = match a {
                SqlExpr::CountStar => AggSpec::count_star(&name),
                SqlExpr::Call(f, args) => {
                    let fun = agg_fun(f).expect("collected aggregates only");
                    let arg = args
                        .first()
                        .ok_or_else(|| SqlError::new(format!("{f} needs an argument")))?;
                    AggSpec::of(&name, fun, scope.translate(arg)?)
                }
                _ => unreachable!(),
            };
            aggs.push(spec);
        }
        let plan = Query::GroupBy {
            input: Box::new(input),
            keys: keys.iter().map(|(n, e)| (n.clone(), e.clone())).collect(),
            aggs,
        };
        // post-aggregation scope: group keys then aggregates
        let group_exprs: Vec<&SqlExpr> = sel.group_by.iter().collect();
        let resolve_post =
            |e: &SqlExpr| -> Result<Expr> { resolve_over_aggregate(e, &group_exprs, &agg_sources) };
        // projection in select-list order
        let mut exprs = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Expr(e, alias) => {
                    let name = match alias {
                        Some(a) => a.clone(),
                        None => dedupe_name(display_name(e, i), &exprs),
                    };
                    exprs.push((name, resolve_post(e)?));
                }
                _ => return Err(SqlError::new("* not supported with GROUP BY")),
            }
        }
        let mut plan = Query::Project { input: Box::new(plan), exprs };
        if !sel.order_by.is_empty() {
            let keys = sel
                .order_by
                .iter()
                .map(|o| {
                    if let Some(i) = ordinal_of(&o.expr) {
                        Ok(SortKey { expr: Expr::Col(i - 1), desc: o.desc })
                    } else {
                        // match against select items first
                        for (j, item) in sel.items.iter().enumerate() {
                            if let SelectItem::Expr(e, _) = item {
                                if e == &o.expr {
                                    return Ok(SortKey { expr: Expr::Col(j), desc: o.desc });
                                }
                            }
                        }
                        Err(SqlError::new(
                            "ORDER BY in aggregate query must reference the select list",
                        ))
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            plan = Query::Sort { input: Box::new(plan), keys };
        }
        if let Some(n) = sel.limit {
            plan = plan.limit(n);
        }
        Ok(plan)
    }

    fn select_exprs(&self, sel: &Select, scope: &Scope) -> Result<Vec<(String, Expr)>> {
        let mut out = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    let mut idx = 0usize;
                    for (_, cols) in &scope.segments {
                        for c in cols {
                            out.push((c.clone(), Expr::Col(idx)));
                            idx += 1;
                        }
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    let mut idx = 0usize;
                    let mut found = false;
                    for (seg_alias, cols) in &scope.segments {
                        if seg_alias.eq_ignore_ascii_case(alias) {
                            for c in cols {
                                out.push((c.clone(), Expr::Col(idx)));
                                idx += 1;
                            }
                            found = true;
                        } else {
                            idx += cols.len();
                        }
                    }
                    if !found {
                        return Err(SqlError::new(format!("unknown alias {alias}")));
                    }
                }
                SelectItem::Expr(e, alias) => {
                    let name = match alias {
                        Some(a) => a.clone(),
                        None => dedupe_name(display_name(e, i), &out),
                    };
                    out.push((name, scope.translate(e)?));
                }
            }
        }
        Ok(out)
    }
}

/// A pending right side of a comma join.
struct PendingJoin {
    plan: Query,
    alias: String,
    cols: Vec<String>,
}

/// Name-resolution scope: the current plan plus per-source column
/// segments.
struct Scope {
    plan: Query,
    segments: Vec<(String, Vec<String>)>,
    binds: Vec<Datum>,
    bind_cursor: std::cell::Cell<usize>,
    /// LAG columns appended by Window nodes: (source expr, absolute index).
    lag_columns: Vec<(SqlExpr, usize)>,
    pending_join: Option<PendingJoin>,
}

impl Scope {
    fn next_bind(&self) -> Result<Datum> {
        let i = self.bind_cursor.get();
        let d = self.binds.get(i).cloned().ok_or_else(|| SqlError::new("missing bind value"))?;
        self.bind_cursor.set(i + 1);
        Ok(d)
    }

    fn col_index(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        let mut base = 0usize;
        for (alias, cols) in &self.segments {
            if qualifier.map(|q| q.eq_ignore_ascii_case(alias)).unwrap_or(true) {
                if let Some(i) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    return Some(base + i);
                }
            }
            base += cols.len();
        }
        None
    }

    fn resolve_ident(&self, e: &SqlExpr) -> Result<Expr> {
        match e {
            SqlExpr::Ident(q, n) => self
                .col_index(q.as_deref(), n)
                .map(Expr::Col)
                .ok_or_else(|| SqlError::new(format!("unknown column {n}"))),
            _ => Err(SqlError::new("expected a column reference")),
        }
    }

    fn try_resolve(&self, e: &SqlExpr) -> Option<Expr> {
        self.translate(e).ok()
    }

    fn translate(&self, e: &SqlExpr) -> Result<Expr> {
        Ok(match e {
            SqlExpr::Ident(q, n) => self
                .col_index(q.as_deref(), n)
                .map(Expr::Col)
                .ok_or_else(|| SqlError::new(format!("unknown column {n}")))?,
            SqlExpr::NumLit(s) => Expr::Lit(Datum::Num(
                JsonNumber::from_literal(s).map_err(|e| SqlError::new(e.message))?,
            )),
            SqlExpr::StrLit(s) => Expr::Lit(Datum::Str(s.clone())),
            SqlExpr::Null => Expr::Lit(Datum::Null),
            SqlExpr::Bind => Expr::Lit(self.next_bind()?),
            SqlExpr::Binary(l, op, r) => {
                let (a, b) = (self.translate(l)?, self.translate(r)?);
                match op.as_str() {
                    "AND" => Expr::And(Box::new(a), Box::new(b)),
                    "OR" => Expr::Or(Box::new(a), Box::new(b)),
                    "=" => Expr::cmp(a, CmpOp::Eq, b),
                    "<>" => Expr::cmp(a, CmpOp::Ne, b),
                    "<" => Expr::cmp(a, CmpOp::Lt, b),
                    "<=" => Expr::cmp(a, CmpOp::Le, b),
                    ">" => Expr::cmp(a, CmpOp::Gt, b),
                    ">=" => Expr::cmp(a, CmpOp::Ge, b),
                    "+" => arith(a, fsdm_store::expr::ArithOp::Add, b),
                    "-" => arith(a, fsdm_store::expr::ArithOp::Sub, b),
                    "*" => arith(a, fsdm_store::expr::ArithOp::Mul, b),
                    "/" => arith(a, fsdm_store::expr::ArithOp::Div, b),
                    "||" => Expr::Fun(ScalarFun::Concat, vec![a, b]),
                    other => return Err(SqlError::new(format!("unknown operator {other}"))),
                }
            }
            SqlExpr::Not(x) => Expr::Not(Box::new(self.translate(x)?)),
            SqlExpr::IsNull(x, negated) => {
                let inner = Expr::IsNull(Box::new(self.translate(x)?));
                if *negated {
                    Expr::Not(Box::new(inner))
                } else {
                    inner
                }
            }
            SqlExpr::InList(x, list, negated) => {
                let vals = list
                    .iter()
                    .map(|v| match v {
                        SqlExpr::Bind => self.next_bind(),
                        other => literal_datum(other),
                    })
                    .collect::<Result<Vec<_>>>()?;
                let inner = Expr::InList(Box::new(self.translate(x)?), vals);
                if *negated {
                    Expr::Not(Box::new(inner))
                } else {
                    inner
                }
            }
            SqlExpr::Like(x, pat) => Expr::Like(Box::new(self.translate(x)?), pat.clone()),
            SqlExpr::Between(x, lo, hi) => {
                let xe = self.translate(x)?;
                Expr::And(
                    Box::new(Expr::cmp(xe.clone(), CmpOp::Ge, self.translate(lo)?)),
                    Box::new(Expr::cmp(xe, CmpOp::Le, self.translate(hi)?)),
                )
            }
            SqlExpr::Call(name, args) => {
                let fun = match name.as_str() {
                    "SUBSTR" => ScalarFun::Substr,
                    "INSTR" => ScalarFun::Instr,
                    "UPPER" => ScalarFun::Upper,
                    "LOWER" => ScalarFun::Lower,
                    "LENGTH" => ScalarFun::Length,
                    "CONCAT" => ScalarFun::Concat,
                    "ABS" => ScalarFun::Abs,
                    "NVL" => ScalarFun::Nvl,
                    other => {
                        return Err(SqlError::new(format!(
                            "unknown function {other} (aggregates belong in GROUP BY queries)"
                        )))
                    }
                };
                let xs = args.iter().map(|a| self.translate(a)).collect::<Result<Vec<_>>>()?;
                Expr::Fun(fun, xs)
            }
            SqlExpr::CountStar => return Err(SqlError::new("COUNT(*) outside an aggregate query")),
            SqlExpr::JsonValue(col, path, ret) => {
                let c = match self.resolve_ident(col)? {
                    Expr::Col(i) => i,
                    _ => unreachable!(),
                };
                let p = parse_path(path).map_err(|e| SqlError::new(e.message))?;
                let ty = match ret {
                    Some(SqlTypeName::Number) => SqlType::Number,
                    Some(SqlTypeName::Varchar2(n)) => SqlType::Varchar2(*n),
                    Some(SqlTypeName::Boolean) => SqlType::Boolean,
                    None => SqlType::Varchar2(4000),
                };
                Expr::json_value(c, p, ty)
            }
            SqlExpr::JsonExists(col, path) => {
                let c = match self.resolve_ident(col)? {
                    Expr::Col(i) => i,
                    _ => unreachable!(),
                };
                let p = parse_path(path).map_err(|e| SqlError::new(e.message))?;
                Expr::json_exists(c, p)
            }
            SqlExpr::Lag { .. } => {
                // resolved to the window column appended by the planner
                let (_, idx) = self
                    .lag_columns
                    .iter()
                    .find(|(src, _)| src == e)
                    .ok_or_else(|| SqlError::new("LAG outside SELECT list"))?;
                Expr::Col(*idx)
            }
        })
    }
}

fn arith(a: Expr, op: fsdm_store::expr::ArithOp, b: Expr) -> Expr {
    Expr::Arith(Box::new(a), op, Box::new(b))
}

fn literal_datum(e: &SqlExpr) -> Result<Datum> {
    Ok(match e {
        SqlExpr::NumLit(s) => {
            Datum::Num(JsonNumber::from_literal(s).map_err(|e| SqlError::new(e.message))?)
        }
        SqlExpr::StrLit(s) => Datum::Str(s.clone()),
        SqlExpr::Null => Datum::Null,
        other => return Err(SqlError::new(format!("expected a literal, found {other:?}"))),
    })
}

fn scalar_coltype(t: SqlTypeName) -> ColType {
    match t {
        SqlTypeName::Number => ColType::Number,
        SqlTypeName::Varchar2(n) => ColType::Varchar2(n),
        SqlTypeName::Boolean => ColType::Boolean,
    }
}

fn build_jt_def(row_path: &str, cols: &[JtColumn]) -> Result<JsonTableDef> {
    let (columns, nested) = build_jt_cols(cols)?;
    Ok(JsonTableDef {
        row_path: parse_path(row_path).map_err(|e| SqlError::new(e.message))?,
        columns,
        nested,
    })
}

fn build_jt_cols(cols: &[JtColumn]) -> Result<(Vec<ColumnDef>, Vec<NestedDef>)> {
    let mut columns = Vec::new();
    let mut nested = Vec::new();
    for c in cols {
        match c {
            JtColumn::Value { name, ty, path } => {
                let sql_ty = match ty {
                    SqlTypeName::Number => SqlType::Number,
                    SqlTypeName::Varchar2(n) => SqlType::Varchar2(*n),
                    SqlTypeName::Boolean => SqlType::Boolean,
                };
                columns.push(ColumnDef::value(
                    name.clone(),
                    sql_ty,
                    parse_path(path).map_err(|e| SqlError::new(e.message))?,
                ));
            }
            JtColumn::Ordinality { name } => columns.push(ColumnDef::ordinality(name.clone())),
            JtColumn::Exists { name, path } => columns.push(ColumnDef::exists(
                name.clone(),
                parse_path(path).map_err(|e| SqlError::new(e.message))?,
            )),
            JtColumn::Nested { path, columns: inner } => {
                let (ic, inested) = build_jt_cols(inner)?;
                nested.push(NestedDef {
                    path: parse_path(path).map_err(|e| SqlError::new(e.message))?,
                    columns: ic,
                    nested: inested,
                });
            }
        }
    }
    Ok((columns, nested))
}

fn split_conjuncts<'a>(e: &'a SqlExpr, out: &mut Vec<&'a SqlExpr>) {
    if let SqlExpr::Binary(l, op, r) = e {
        if op == "AND" {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
            return;
        }
    }
    out.push(e);
}

fn join_resolve(join: &PendingJoin, e: &SqlExpr) -> Option<usize> {
    match e {
        SqlExpr::Ident(q, n) => {
            if let Some(q) = q {
                if !q.eq_ignore_ascii_case(&join.alias) {
                    return None;
                }
            }
            join.cols.iter().position(|c| c.eq_ignore_ascii_case(n))
        }
        _ => None,
    }
}

fn select_has_aggregate(sel: &Select) -> bool {
    sel.items.iter().any(|i| match i {
        SelectItem::Expr(e, _) => has_aggregate(e),
        _ => false,
    })
}

fn has_aggregate(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::CountStar => true,
        SqlExpr::Call(f, _) => agg_fun(f).is_some(),
        SqlExpr::Binary(l, _, r) => has_aggregate(l) || has_aggregate(r),
        SqlExpr::Not(x) | SqlExpr::IsNull(x, _) => has_aggregate(x),
        _ => false,
    }
}

fn agg_fun(name: &str) -> Option<AggFun> {
    Some(match name {
        "COUNT" => AggFun::Count,
        "SUM" => AggFun::Sum,
        "AVG" => AggFun::Avg,
        "MIN" => AggFun::Min,
        "MAX" => AggFun::Max,
        "JSON_DATAGUIDEAGG" => AggFun::DataGuide,
        _ => return None,
    })
}

fn collect_aggs(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::CountStar if !out.contains(e) => out.push(e.clone()),
        SqlExpr::Call(f, _) if agg_fun(f).is_some() && !out.contains(e) => out.push(e.clone()),
        SqlExpr::Binary(l, _, r) => {
            collect_aggs(l, out);
            collect_aggs(r, out);
        }
        SqlExpr::Not(x) | SqlExpr::IsNull(x, _) => collect_aggs(x, out),
        _ => {}
    }
}

/// Resolve an expression over the GroupBy output (keys then aggregates).
fn resolve_over_aggregate(
    e: &SqlExpr,
    group_exprs: &[&SqlExpr],
    agg_sources: &[SqlExpr],
) -> Result<Expr> {
    // exact aggregate match
    if let Some(i) = agg_sources.iter().position(|a| a == e) {
        return Ok(Expr::Col(group_exprs.len() + i));
    }
    // exact group-key match
    if let Some(i) = group_exprs.iter().position(|g| *g == e) {
        return Ok(Expr::Col(i));
    }
    match e {
        SqlExpr::Binary(l, op, r) => {
            let a = resolve_over_aggregate(l, group_exprs, agg_sources)?;
            let b = resolve_over_aggregate(r, group_exprs, agg_sources)?;
            Ok(match op.as_str() {
                "+" => arith(a, fsdm_store::expr::ArithOp::Add, b),
                "-" => arith(a, fsdm_store::expr::ArithOp::Sub, b),
                "*" => arith(a, fsdm_store::expr::ArithOp::Mul, b),
                "/" => arith(a, fsdm_store::expr::ArithOp::Div, b),
                other => return Err(SqlError::new(format!("operator {other} over aggregates"))),
            })
        }
        other => Err(SqlError::new(format!("{other:?} is neither a group key nor an aggregate"))),
    }
}

/// LAG occurrences: (value expr, offset, default, order items).
type LagParts<'a> = (&'a SqlExpr, usize, Option<&'a SqlExpr>, &'a [OrderItem]);

/// Find LAG calls, returning the whole call node plus its parts.
fn find_lags(e: &SqlExpr) -> Vec<(&SqlExpr, LagParts<'_>)> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a SqlExpr, out: &mut Vec<(&'a SqlExpr, LagParts<'a>)>) {
        match e {
            SqlExpr::Lag { expr, offset, default, order } => {
                out.push((e, (expr, *offset, default.as_deref(), order)));
            }
            SqlExpr::Binary(l, _, r) => {
                walk(l, out);
                walk(r, out);
            }
            SqlExpr::Not(x) | SqlExpr::IsNull(x, _) => walk(x, out),
            _ => {}
        }
    }
    walk(e, &mut out);
    out
}

fn ordinal_of(e: &SqlExpr) -> Option<usize> {
    match e {
        SqlExpr::NumLit(s) => s.parse::<usize>().ok().filter(|&n| n >= 1),
        _ => None,
    }
}

/// Default (unaliased) output names can repeat — `SELECT
/// JSON_VALUE(jdoc, '$.a'), JSON_VALUE(jdoc, '$.b')` would name both
/// columns `json_value`. Number later occurrences (`json_value_2`, …)
/// so every output column name is unique, the way engines number
/// unaliased expression columns. Explicit aliases are never rewritten:
/// a user-written duplicate is a PK004 finding, not a rename.
fn dedupe_name(name: String, taken: &[(String, Expr)]) -> String {
    if !taken.iter().any(|(n, _)| n == &name) {
        return name;
    }
    let mut k = 2usize;
    loop {
        let candidate = format!("{name}_{k}");
        if !taken.iter().any(|(n, _)| n == &candidate) {
            return candidate;
        }
        k += 1;
    }
}

fn display_name(e: &SqlExpr, position: usize) -> String {
    match e {
        SqlExpr::Ident(_, n) => n.clone(),
        SqlExpr::CountStar => "count(*)".to_string(),
        SqlExpr::Call(f, _) => f.to_lowercase(),
        SqlExpr::JsonValue(..) => "json_value".to_string(),
        SqlExpr::JsonExists(..) => "json_exists".to_string(),
        _ => format!("col{}", position + 1),
    }
}

fn empty_result(tag: &str) -> QueryResult {
    QueryResult { columns: vec![tag.to_string()], rows: vec![] }
}
