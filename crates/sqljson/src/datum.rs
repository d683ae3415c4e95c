//! SQL scalar values exchanged between the JSON world and the SQL world.
//!
//! `JSON_VALUE` and `JSON_TABLE` columns produce typed SQL scalars; the
//! relational engine consumes and compares them. Numbers ride on
//! [`JsonNumber`] (whose exact decimal form is the Oracle NUMBER encoding
//! shared with OSON leaves — design criterion 3 of §4.1).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use fsdm_json::{JsonNumber, JsonValue};

/// SQL column types available to `RETURNING` clauses and view columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlType {
    /// Variable-length string with a maximum byte length.
    Varchar2(usize),
    /// Oracle-style NUMBER.
    Number,
    /// Boolean.
    Boolean,
    /// Pass-through: whatever scalar the path produced.
    Any,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlType::Varchar2(n) => write!(f, "varchar2({n})"),
            SqlType::Number => write!(f, "number"),
            SqlType::Boolean => write!(f, "boolean"),
            SqlType::Any => write!(f, "any"),
        }
    }
}

/// A (nullable) SQL scalar.
#[derive(Debug, Clone)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// Numeric value.
    Num(JsonNumber),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl Datum {
    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Numeric view (with string→number coercion as Oracle would apply in
    /// numeric context).
    pub fn as_num(&self) -> Option<JsonNumber> {
        match self {
            Datum::Num(n) => Some(*n),
            Datum::Str(s) => JsonNumber::from_literal(s.trim()).ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render as text (for display and string context).
    pub fn to_text(&self) -> String {
        match self {
            Datum::Null => String::new(),
            Datum::Num(n) => n.to_literal(),
            Datum::Str(s) => s.clone(),
            Datum::Bool(b) => b.to_string(),
        }
    }

    /// Convert a JSON scalar value into a datum (containers are not SQL
    /// scalars and yield `None`).
    pub fn from_json_scalar(v: &JsonValue) -> Option<Datum> {
        match v {
            JsonValue::Null => Some(Datum::Null),
            JsonValue::Bool(b) => Some(Datum::Bool(*b)),
            JsonValue::Number(n) => Some(Datum::Num(*n)),
            JsonValue::String(s) => Some(Datum::Str(s.clone())),
            _ => None,
        }
    }

    /// Coerce to a SQL type per RETURNING semantics. `None` = conversion
    /// error (caller applies ON ERROR handling).
    pub fn coerce(self, ty: SqlType) -> Option<Datum> {
        if self.is_null() {
            return Some(Datum::Null);
        }
        match ty {
            SqlType::Any => Some(self),
            SqlType::Number => self.as_num().map(Datum::Num),
            SqlType::Boolean => match self {
                Datum::Bool(b) => Some(Datum::Bool(b)),
                Datum::Str(s) => match s.to_ascii_lowercase().as_str() {
                    "true" => Some(Datum::Bool(true)),
                    "false" => Some(Datum::Bool(false)),
                    _ => None,
                },
                _ => None,
            },
            SqlType::Varchar2(maxlen) => {
                // a string is checked in place, not copied through `to_text`
                let s = match self {
                    Datum::Str(s) => s,
                    other => other.to_text(),
                };
                // exceeding the declared length is a conversion error
                (s.len() <= maxlen).then_some(Datum::Str(s))
            }
        }
    }

    /// SQL comparison: NULL compares as unknown (`None`); cross-type
    /// numeric/string comparisons coerce strings to numbers when the other
    /// side is numeric.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Num(a), Datum::Num(b)) => Some(a.total_cmp(b)),
            (Datum::Str(a), Datum::Str(b)) => Some(a.cmp(b)),
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Num(a), Datum::Str(_)) => other.as_num().map(|b| a.total_cmp(&b)),
            (Datum::Str(_), Datum::Num(b)) => self.as_num().map(|a| a.total_cmp(b)),
            _ => None,
        }
    }

    /// Total order for ORDER BY / grouping: NULLs sort last, then by kind.
    pub fn order_key_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Bool(_) => 0,
                Datum::Num(_) => 1,
                Datum::Str(_) => 2,
                Datum::Null => 3,
            }
        }
        match (self, other) {
            (Datum::Num(a), Datum::Num(b)) => a.total_cmp(b),
            (Datum::Str(a), Datum::Str(b)) => a.cmp(b),
            (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        // group-by equality: NULL groups with NULL (unlike predicate
        // equality, which callers express through sql_cmp)
        match (self, other) {
            (Datum::Null, Datum::Null) => true,
            (Datum::Num(a), Datum::Num(b)) => a == b,
            (Datum::Str(a), Datum::Str(b)) => a == b,
            (Datum::Bool(a), Datum::Bool(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Datum {}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Datum::Null => 0u8.hash(state),
            Datum::Num(n) => {
                1u8.hash(state);
                n.hash(state);
            }
            Datum::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Datum::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => f.write_str("NULL"),
            other => f.write_str(&other.to_text()),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Num(JsonNumber::Int(v))
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Num(JsonNumber::from(v))
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Str(v.to_string())
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(v)
    }
}
impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercion_rules() {
        assert_eq!(Datum::from("42").coerce(SqlType::Number), Some(Datum::from(42i64)));
        assert_eq!(Datum::from("x").coerce(SqlType::Number), None);
        assert_eq!(Datum::from(7i64).coerce(SqlType::Varchar2(10)), Some(Datum::from("7")));
        assert_eq!(Datum::from("too long!!").coerce(SqlType::Varchar2(3)), None);
        assert_eq!(Datum::from("TRUE").coerce(SqlType::Boolean), Some(Datum::Bool(true)));
        assert_eq!(Datum::Null.coerce(SqlType::Number), Some(Datum::Null));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::from(1i64)), None);
        assert_eq!(Datum::from(1i64).sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_string_coercion() {
        assert_eq!(Datum::from("10").sql_cmp(&Datum::from(9i64)), Some(Ordering::Greater));
        assert_eq!(Datum::from("abc").sql_cmp(&Datum::from(9i64)), None);
    }

    #[test]
    fn group_equality_includes_null() {
        assert_eq!(Datum::Null, Datum::Null);
        assert_ne!(Datum::Null, Datum::from(0i64));
    }

    #[test]
    fn order_key_total() {
        let mut v = vec![
            Datum::Null,
            Datum::from("b"),
            Datum::from(2i64),
            Datum::from("a"),
            Datum::from(1i64),
            Datum::Bool(false),
        ];
        v.sort_by(|a, b| a.order_key_cmp(b));
        assert_eq!(
            v,
            vec![
                Datum::Bool(false),
                Datum::from(1i64),
                Datum::from(2i64),
                Datum::from("a"),
                Datum::from("b"),
                Datum::Null,
            ]
        );
    }

    #[test]
    fn display() {
        assert_eq!(Datum::Null.to_string(), "NULL");
        assert_eq!(Datum::from(2.5).to_string(), "2.5");
    }
}
