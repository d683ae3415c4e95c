//! `fsdm-sql`: a SQL front end for the FSDM engine.
//!
//! The paper's thesis is that SQL stays the declarative inter-document
//! query language while SQL/JSON paths handle intra-document navigation
//! (§1). This crate implements the SQL subset exercised by the paper's
//! workloads — Table 13's OLAP queries and the NOBENCH query set — over
//! the `fsdm-store` engine:
//!
//! * `SELECT` with expressions, `WHERE`, `GROUP BY`, `ORDER BY` (including
//!   ordinals), `FETCH FIRST n ROWS ONLY` / `LIMIT`;
//! * scalar functions `SUBSTR`, `INSTR`, `UPPER`, `LOWER`, `LENGTH`,
//!   `NVL`, `ABS`; aggregates `COUNT/SUM/AVG/MIN/MAX` and
//!   `JSON_DATAGUIDEAGG` (§3.4); `LAG(…) OVER (ORDER BY …)`;
//! * the SQL/JSON operators `JSON_VALUE(col, 'path' [RETURNING type])`
//!   and `JSON_EXISTS(col, 'path')`;
//! * `FROM table, JSON_TABLE(col, 'path' COLUMNS …) jt` laterals with
//!   `NESTED PATH`;
//! * two-table joins (`FROM a, b WHERE a.x = b.y`), views, `CREATE
//!   TABLE`, `INSERT INTO … VALUES`.
//!
//! The planner is the only reader of the SQL AST: every SELECT becomes a
//! `fsdm-store` plan, and execution, EXPLAIN, the statement report and
//! the prepare-time checks (path lint and plan typecheck) all work on
//! that plan.

pub mod analyze;
pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod typecheck;

pub use ast::Statement;
pub use lexer::{tokenize, Token};
pub use parser::parse_sql;
pub use planner::Session;

pub use fsdm_analyze::{Diagnostic, Severity};
pub use fsdm_store::{OpProfile, QueryProfile};

use std::fmt;

/// SQL front-end error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// Description of the failure.
    pub message: String,
}

impl SqlError {
    /// Build an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        SqlError { message: message.into() }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error: {}", self.message)
    }
}

impl std::error::Error for SqlError {}

impl From<fsdm_store::StoreError> for SqlError {
    fn from(e: fsdm_store::StoreError) -> Self {
        SqlError::new(e.message)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SqlError>;
