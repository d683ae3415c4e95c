//! SQL abstract syntax.

/// A scalar expression in SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Possibly-qualified identifier (`col` or `alias.col`).
    Ident(Option<String>, String),
    /// Numeric literal.
    NumLit(String),
    /// String literal.
    StrLit(String),
    /// NULL literal.
    Null,
    /// `?` bind placeholder (resolved positionally at execution).
    Bind,
    /// Binary operation (`+ - * / = <> < <= > >= AND OR ||`).
    Binary(Box<SqlExpr>, String, Box<SqlExpr>),
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull(Box<SqlExpr>, bool),
    /// `expr [NOT] IN (v, …)`.
    InList(Box<SqlExpr>, Vec<SqlExpr>, bool),
    /// `expr LIKE 'pat'`.
    Like(Box<SqlExpr>, String),
    /// `expr BETWEEN lo AND hi`.
    Between(Box<SqlExpr>, Box<SqlExpr>, Box<SqlExpr>),
    /// Function call (scalar or aggregate; resolved by the planner).
    Call(String, Vec<SqlExpr>),
    /// `COUNT(*)`.
    CountStar,
    /// `JSON_VALUE(col, 'path' [RETURNING type])`.
    JsonValue(Box<SqlExpr>, String, Option<SqlTypeName>),
    /// `JSON_EXISTS(col, 'path')`.
    JsonExists(Box<SqlExpr>, String),
    /// `LAG(expr [, offset [, default]]) OVER (ORDER BY keys)`.
    Lag {
        /// Value expression.
        expr: Box<SqlExpr>,
        /// Row offset (default 1).
        offset: usize,
        /// Default expression.
        default: Option<Box<SqlExpr>>,
        /// OVER (ORDER BY …).
        order: Vec<OrderItem>,
    },
}

/// Parsed SQL type name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlTypeName {
    /// `NUMBER`.
    Number,
    /// `VARCHAR2(n)`.
    Varchar2(usize),
    /// `BOOLEAN`.
    Boolean,
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Key expression (or ordinal when it is a plain integer literal).
    pub expr: SqlExpr,
    /// Descending flag.
    pub desc: bool,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr(SqlExpr, Option<String>),
}

/// A JSON_TABLE column in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum JtColumn {
    /// `name type PATH 'p'`.
    Value {
        /// Column name.
        name: String,
        /// Declared type.
        ty: SqlTypeName,
        /// Column path.
        path: String,
    },
    /// `name FOR ORDINALITY`.
    Ordinality {
        /// Column name.
        name: String,
    },
    /// `name EXISTS PATH 'p'`.
    Exists {
        /// Column name.
        name: String,
        /// Path.
        path: String,
    },
    /// `NESTED PATH 'p' COLUMNS (…)`.
    Nested {
        /// Row path of the nested block.
        path: String,
        /// Columns of the block.
        columns: Vec<JtColumn>,
    },
}

/// A FROM-clause source.
#[derive(Debug, Clone, PartialEq)]
pub enum FromSource {
    /// Table or view reference with optional alias.
    Table {
        /// Object name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// `JSON_TABLE(col, 'rowpath' COLUMNS (…)) alias` — lateral over the
    /// preceding table.
    JsonTable {
        /// JSON column the function reads (possibly qualified).
        column: SqlExpr,
        /// Row path.
        row_path: String,
        /// Column definitions.
        columns: Vec<JtColumn>,
        /// Alias.
        alias: Option<String>,
    },
}

/// `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM sources (a second table implies a comma join; a JSON_TABLE is
    /// a lateral).
    pub from: Vec<FromSource>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY keys.
    pub group_by: Vec<SqlExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderItem>,
    /// Row limit (`FETCH FIRST n ROWS ONLY` / `LIMIT n`).
    pub limit: Option<usize>,
    /// `SAMPLE (pct)` on the (single) base table — Table 9's Q1.
    pub sample_pct: Option<f64>,
}

/// A column in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateColumn {
    /// Column name.
    pub name: String,
    /// Type: scalar, or JSON with a storage clause.
    pub ty: CreateColType,
}

/// CREATE TABLE column types.
#[derive(Debug, Clone, PartialEq)]
pub enum CreateColType {
    /// Scalar column.
    Scalar(SqlTypeName),
    /// JSON column: storage (`TEXT` default, `BSON`, `OSON`) and whether
    /// the IS JSON check / DataGuide are enabled.
    Json {
        /// Physical storage.
        storage: String,
        /// `CHECK (col IS JSON)` present.
        is_json: bool,
        /// `WITH DATAGUIDE` present.
        dataguide: bool,
    },
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select(Select),
    /// `CREATE TABLE name (cols…)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns.
        columns: Vec<CreateColumn>,
    },
    /// `INSERT INTO name VALUES (…)` (multiple tuples allowed).
    Insert {
        /// Table name.
        name: String,
        /// Value tuples.
        rows: Vec<Vec<SqlExpr>>,
    },
    /// `CREATE VIEW name AS SELECT …`.
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        select: Select,
    },
}
