//! Logical query plans: the algebra the executor runs.
//!
//! Plans are built programmatically (by the SQL front end in `fsdm-sql`,
//! by the DataGuide's generated views, and by the benchmark harness) and
//! executed by [`crate::database::Database::execute`].

use fsdm_sqljson::json_table::JsonTableDef;
use fsdm_sqljson::Datum;

use crate::expr::{AggFun, Expr};

/// Sort key: expression + direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Key expression over the input row.
    pub expr: Expr,
    /// Descending order when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(expr: Expr) -> Self {
        SortKey { expr, desc: false }
    }

    /// Descending key.
    pub fn desc(expr: Expr) -> Self {
        SortKey { expr, desc: true }
    }
}

/// Window functions (the subset used by the paper's Q6).
#[derive(Debug, Clone)]
pub enum WindowFun {
    /// `LAG(expr, offset, default) OVER (ORDER BY …)`.
    Lag {
        /// Value expression.
        expr: Expr,
        /// How many rows back.
        offset: usize,
        /// Value when no preceding row exists.
        default: Option<Expr>,
    },
}

/// An aggregate output: name, function, argument (None for `COUNT(*)`).
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Output column name.
    pub name: String,
    /// Aggregate function.
    pub fun: AggFun,
    /// Argument expression.
    pub arg: Option<Expr>,
}

/// A logical query plan node.
#[allow(
    clippy::large_enum_variant,
    reason = "plan nodes are built once per query, not per row, so the size skew between \
              variants (JsonTable carries a whole column-def tree) is moot"
)]
#[derive(Debug, Clone)]
pub enum Query {
    /// Scan a base table (emits base columns then virtual columns; its
    /// SQL/JSON operators read the OSON-IMC transparently when populated).
    Scan {
        /// Table name.
        table: String,
    },
    /// Filter rows.
    Filter {
        /// Input plan.
        input: Box<Query>,
        /// Predicate.
        pred: Expr,
    },
    /// Compute output expressions.
    Project {
        /// Input plan.
        input: Box<Query>,
        /// (name, expression) pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Lateral JSON_TABLE: for each input row, expand the JSON document in
    /// `json_col` through `def`; output = input columns ++ JSON_TABLE
    /// columns (NULL-padded when the document yields no rows — outer
    /// semantics, matching the generated views).
    JsonTable {
        /// Input plan.
        input: Box<Query>,
        /// Position of the JSON column in the input row.
        json_col: usize,
        /// Table function definition.
        def: JsonTableDef,
    },
    /// Hash equi-join (inner) on one column from each side; output = left
    /// columns ++ right columns.
    HashJoin {
        /// Left input (build side).
        left: Box<Query>,
        /// Right input (probe side).
        right: Box<Query>,
        /// Join key position in left rows.
        left_key: usize,
        /// Join key position in right rows.
        right_key: usize,
    },
    /// Hash aggregation.
    GroupBy {
        /// Input plan.
        input: Box<Query>,
        /// Grouping key expressions (named for the output).
        keys: Vec<(String, Expr)>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<Query>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Append a window-function column (computed over the given ordering).
    Window {
        /// Input plan.
        input: Box<Query>,
        /// Output column name.
        name: String,
        /// Window function.
        fun: WindowFun,
        /// ORDER BY of the window.
        order: Vec<SortKey>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<Query>,
        /// Row cap.
        n: usize,
    },
    /// Deterministic Bernoulli sampling (`SAMPLE (pct)`): keeps roughly
    /// `pct` percent of input rows, chosen by a position hash so repeated
    /// runs see the same sample.
    Sample {
        /// Input plan.
        input: Box<Query>,
        /// Percentage in (0, 100].
        pct: f64,
    },
}

impl Query {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> Query {
        Query::Scan { table: table.into() }
    }

    /// A filtered scan: `Filter(Scan)`.
    pub fn scan_where(table: impl Into<String>, filter: Expr) -> Query {
        Query::scan(table).filter(filter)
    }

    /// Wrap in a filter.
    pub fn filter(self, pred: Expr) -> Query {
        Query::Filter { input: Box::new(self), pred }
    }

    /// Wrap in a projection.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Query {
        Query::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
        }
    }

    /// Wrap in a group-by.
    pub fn group_by(self, keys: Vec<(&str, Expr)>, aggs: Vec<AggSpec>) -> Query {
        Query::GroupBy {
            input: Box::new(self),
            keys: keys.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
            aggs,
        }
    }

    /// Wrap in a sort.
    pub fn sort(self, keys: Vec<SortKey>) -> Query {
        Query::Sort { input: Box::new(self), keys }
    }

    /// Wrap in a limit.
    pub fn limit(self, n: usize) -> Query {
        Query::Limit { input: Box::new(self), n }
    }

    /// Indented plan-tree rendering (the `EXPLAIN` surface — also used to
    /// show the optimizer's before/after shapes): one operator per line,
    /// predicates and expressions in their `Debug` form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        fn walk(q: &Query, depth: usize, out: &mut String) {
            let _ = write!(out, "{:indent$}", "", indent = depth * 2);
            let _ = match q {
                Query::Scan { table } => writeln!(out, "Scan({table})"),
                Query::Filter { pred, .. } => writeln!(out, "Filter pred={pred:?}"),
                Query::Project { exprs, .. } => {
                    let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                    writeln!(out, "Project [{}]", names.join(", "))
                }
                Query::JsonTable { json_col, def, .. } => {
                    writeln!(out, "JsonTable(col#{json_col}, '{}')", def.row_path.text())
                }
                Query::HashJoin { left_key, right_key, .. } => {
                    writeln!(out, "HashJoin(left#{left_key} = right#{right_key})")
                }
                Query::GroupBy { keys, aggs, .. } => {
                    let names: Vec<&str> = keys
                        .iter()
                        .map(|(n, _)| n.as_str())
                        .chain(aggs.iter().map(|a| a.name.as_str()))
                        .collect();
                    writeln!(out, "GroupBy [{}]", names.join(", "))
                }
                Query::Sort { keys, .. } => writeln!(out, "Sort ({} keys)", keys.len()),
                Query::Window { name, .. } => writeln!(out, "Window({name})"),
                Query::Limit { n, .. } => writeln!(out, "Limit({n})"),
                Query::Sample { pct, .. } => writeln!(out, "Sample({pct})"),
            };
            match q {
                Query::Filter { input, .. }
                | Query::Project { input, .. }
                | Query::JsonTable { input, .. }
                | Query::GroupBy { input, .. }
                | Query::Sort { input, .. }
                | Query::Window { input, .. }
                | Query::Limit { input, .. }
                | Query::Sample { input, .. } => walk(input, depth + 1, out),
                Query::HashJoin { left, right, .. } => {
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
                Query::Scan { .. } => {}
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

impl AggSpec {
    /// `COUNT(*)`.
    pub fn count_star(name: &str) -> AggSpec {
        AggSpec { name: name.to_string(), fun: AggFun::CountStar, arg: None }
    }

    /// An aggregate over an expression.
    pub fn of(name: &str, fun: AggFun, arg: Expr) -> AggSpec {
        AggSpec { name: name.to_string(), fun, arg: Some(arg) }
    }
}

/// A fully-materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows of datums (JSON cells rendered as text).
    pub rows: Vec<Vec<Datum>>,
}

impl QueryResult {
    /// Position of an output column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Single-cell convenience accessor.
    pub fn cell(&self, row: usize, col: &str) -> Option<&Datum> {
        let c = self.col(col)?;
        self.rows.get(row)?.get(c)
    }
}
