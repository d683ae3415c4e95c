//! The SQL/JSON operators: `JSON_VALUE`, `JSON_QUERY`, `JSON_EXISTS`.

// hot path over stored text no constraint checked: corrupted input returns
// `Err` or a total fallback, never a panic (DESIGN.md §8)
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use fsdm_json::{JsonDom, JsonValue, NodeKind, ScalarRef};

use crate::datum::{Datum, SqlType};
use crate::engine::{PathEvaluator, PathOutput};

/// ON ERROR / ON EMPTY behaviour for `JSON_VALUE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnError {
    /// `NULL ON ERROR` (Oracle's default).
    #[default]
    Null,
    /// `ERROR ON ERROR`: surface the failure.
    Error,
}

/// Wrapper behaviour for `JSON_QUERY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapperMode {
    /// `WITHOUT WRAPPER`: the single matched container is returned as-is.
    #[default]
    Without,
    /// `WITH WRAPPER`: all matches are wrapped in an array.
    With,
    /// `WITH CONDITIONAL WRAPPER`: wrap unless exactly one container
    /// matched.
    Conditional,
}

/// Operator evaluation error (only surfaced under `ERROR ON ERROR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsError {
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for OpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL/JSON error: {}", self.message)
    }
}

impl std::error::Error for OpsError {}

fn err(message: &str) -> OpsError {
    OpsError { message: message.to_string() }
}

/// `JSON_EXISTS(doc, path)`.
pub fn json_exists<D: JsonDom>(dom: &D, ev: &mut PathEvaluator) -> bool {
    ev.exists(dom)
}

/// `JSON_VALUE(doc, path RETURNING ty … ON ERROR)`: the path must select
/// exactly one scalar; the scalar is coerced to the requested SQL type.
pub fn json_value<D: JsonDom>(
    dom: &D,
    ev: &mut PathEvaluator,
    ty: SqlType,
    on_error: OnError,
) -> Result<Datum, OpsError> {
    json_value_at(dom, dom.root(), ev, ty, on_error)
}

/// [`json_value`] with `$` bound to the context node `start` (a
/// JSON_TABLE column path is relative to its row node).
pub fn json_value_at<D: JsonDom>(
    dom: &D,
    start: fsdm_json::NodeRef,
    ev: &mut PathEvaluator,
    ty: SqlType,
    on_error: OnError,
) -> Result<Datum, OpsError> {
    let (count, first) = ev.count_first(dom, start);
    value_rule(count, || first.and_then(|o| output_datum(dom, &o)), ty, on_error)
}

/// `JSON_VALUE`'s rule, whichever engine selected the items: of `count`
/// items, exactly one scalar — `first` computes the first item's, `None`
/// for a container — coerced to `ty`; no item is NULL (ON EMPTY), anything
/// else an error handled per `on_error`.
#[inline]
pub(crate) fn value_rule(
    count: usize,
    first: impl FnOnce() -> Option<Datum>,
    ty: SqlType,
    on_error: OnError,
) -> Result<Datum, OpsError> {
    let fail = |m: &str| -> Result<Datum, OpsError> {
        match on_error {
            OnError::Null => Ok(Datum::Null),
            OnError::Error => Err(err(m)),
        }
    };
    match count {
        0 => Ok(Datum::Null), // ON EMPTY default
        1 => match first() {
            None => fail("JSON_VALUE selected a non-scalar"),
            Some(d) => match d.coerce(ty) {
                Some(c) => Ok(c),
                None => fail("RETURNING type conversion failed"),
            },
        },
        _ => fail("JSON_VALUE matched more than one item"),
    }
}

/// The scalar one path output is, `None` for a container.
#[inline]
pub(crate) fn output_datum<D: JsonDom>(dom: &D, out: &PathOutput) -> Option<Datum> {
    match out {
        // straight from the leaf: a string is copied once, into the
        // datum, not through an intermediate `JsonValue`
        PathOutput::Node(n) => match dom.kind(*n) {
            NodeKind::Scalar => Some(match dom.scalar(*n) {
                ScalarRef::Str(s) => Datum::Str(s.to_string()),
                ScalarRef::Num(x) => Datum::Num(x),
                ScalarRef::Bool(b) => Datum::Bool(b),
                ScalarRef::Null => Datum::Null,
            }),
            _ => None,
        },
        PathOutput::Computed(v) => Datum::from_json_scalar(v),
    }
}

/// `JSON_QUERY(doc, path … WRAPPER)`: returns a JSON fragment.
pub fn json_query<D: JsonDom>(
    dom: &D,
    ev: &mut PathEvaluator,
    wrapper: WrapperMode,
    on_error: OnError,
) -> Result<Option<JsonValue>, OpsError> {
    let outs = ev.evaluate(dom);
    let materialize = |o: &PathOutput| -> JsonValue {
        match o {
            PathOutput::Node(n) => dom.materialize(*n),
            PathOutput::Computed(v) => v.clone(),
        }
    };
    let fail = |m: &str| -> Result<Option<JsonValue>, OpsError> {
        match on_error {
            OnError::Null => Ok(None),
            OnError::Error => Err(err(m)),
        }
    };
    match wrapper {
        WrapperMode::With => {
            if outs.is_empty() {
                return Ok(None);
            }
            Ok(Some(JsonValue::Array(outs.iter().map(materialize).collect())))
        }
        WrapperMode::Conditional => match outs.as_slice() {
            [] => Ok(None),
            [single] => {
                let v = materialize(single);
                if v.is_scalar() {
                    Ok(Some(JsonValue::Array(vec![v])))
                } else {
                    Ok(Some(v))
                }
            }
            _ => Ok(Some(JsonValue::Array(outs.iter().map(materialize).collect()))),
        },
        WrapperMode::Without => match outs.as_slice() {
            [] => Ok(None),
            [single] => {
                let v = materialize(single);
                if v.is_scalar() {
                    fail("JSON_QUERY selected a scalar without a wrapper")
                } else {
                    Ok(Some(v))
                }
            }
            _ => fail("JSON_QUERY matched more than one item without a wrapper"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;
    use fsdm_json::{parse, ValueDom};

    const PO: &str = r#"{"purchaseOrder":{"id":7,"podate":"2014-09-08","items":[
        {"name":"phone","price":100},{"name":"ipad","price":350.86}]}}"#;

    fn ev(path: &str) -> PathEvaluator {
        PathEvaluator::new(parse_path(path).unwrap())
    }

    #[test]
    fn json_value_scalar() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        let d = json_value(&dom, &mut ev("$.purchaseOrder.id"), SqlType::Number, OnError::Null)
            .unwrap();
        assert_eq!(d, Datum::from(7i64));
        let s = json_value(
            &dom,
            &mut ev("$.purchaseOrder.podate"),
            SqlType::Varchar2(16),
            OnError::Null,
        )
        .unwrap();
        assert_eq!(s, Datum::from("2014-09-08"));
    }

    #[test]
    fn json_value_empty_is_null() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        let d = json_value(&dom, &mut ev("$.nothing"), SqlType::Any, OnError::Error).unwrap();
        assert!(d.is_null());
    }

    #[test]
    fn json_value_multi_match_error_modes() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        let p = "$.purchaseOrder.items[*].price";
        assert!(json_value(&dom, &mut ev(p), SqlType::Number, OnError::Null).unwrap().is_null());
        assert!(json_value(&dom, &mut ev(p), SqlType::Number, OnError::Error).is_err());
    }

    #[test]
    fn json_value_non_scalar_errors() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        assert!(json_value(&dom, &mut ev("$.purchaseOrder.items"), SqlType::Any, OnError::Error)
            .is_err());
    }

    #[test]
    fn json_value_conversion_failure() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        let p = "$.purchaseOrder.podate";
        assert!(json_value(&dom, &mut ev(p), SqlType::Number, OnError::Null).unwrap().is_null());
        assert!(json_value(&dom, &mut ev(p), SqlType::Number, OnError::Error).is_err());
    }

    #[test]
    fn json_query_fragments() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        let frag =
            json_query(&dom, &mut ev("$.purchaseOrder.items"), WrapperMode::Without, OnError::Null)
                .unwrap()
                .unwrap();
        assert_eq!(frag.as_array().unwrap().len(), 2);
        // scalar without wrapper: error → None
        assert!(json_query(
            &dom,
            &mut ev("$.purchaseOrder.id"),
            WrapperMode::Without,
            OnError::Null
        )
        .unwrap()
        .is_none());
        // with wrapper: all prices in one array
        let w = json_query(
            &dom,
            &mut ev("$.purchaseOrder.items[*].price"),
            WrapperMode::With,
            OnError::Null,
        )
        .unwrap()
        .unwrap();
        assert_eq!(w.as_array().unwrap().len(), 2);
        // conditional: single container unwrapped, single scalar wrapped
        let c = json_query(
            &dom,
            &mut ev("$.purchaseOrder.id"),
            WrapperMode::Conditional,
            OnError::Null,
        )
        .unwrap()
        .unwrap();
        assert_eq!(c, parse("[7]").unwrap());
    }

    #[test]
    fn json_exists_basic() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        assert!(json_exists(&dom, &mut ev("$.purchaseOrder.items[*]?(@.price > 300)")));
        assert!(!json_exists(&dom, &mut ev("$.purchaseOrder.items[*]?(@.price > 999)")));
    }
}
