//! Strict-mode path semantics: no implicit array wrapping/unwrapping —
//! over the DOM and over text, which must agree on every case.

use fsdm_json::{parse, JsonValue, ValueDom};
use fsdm_sqljson::streaming::{eval_text, exists_text};
use fsdm_sqljson::{parse_path, PathEvaluator};

/// The items `path` selects in `doc`, checked to be the same through the
/// DOM engine and through a text pass (whose exists answer must agree).
fn eval(doc: &str, path: &str) -> Vec<JsonValue> {
    let v = parse(doc).unwrap();
    let dom = ValueDom::new(&v);
    let jp = parse_path(path).unwrap();
    let via_dom = PathEvaluator::new(jp.clone()).evaluate_values(&dom);
    assert_eq!(eval_text(doc, &jp).unwrap(), via_dom, "{path}: text vs DOM");
    assert_eq!(exists_text(doc, &jp).unwrap(), !via_dom.is_empty(), "{path}: exists");
    via_dom
}

const DOC: &str = r#"{"a":{"b":1},"items":[{"p":1},{"p":2}],"s":5}"#;

#[test]
fn strict_no_unwrap_for_field_steps() {
    // lax: field step over an array unwraps; strict: empty
    assert_eq!(eval(DOC, "$.items.p").len(), 2);
    assert_eq!(eval(DOC, "strict $.items.p").len(), 0);
    assert_eq!(eval(DOC, "strict $.items[*].p").len(), 2);
}

#[test]
fn strict_no_wrap_for_array_steps() {
    assert_eq!(eval(DOC, "$.s[0]").len(), 1);
    assert_eq!(eval(DOC, "strict $.s[0]").len(), 0);
    assert_eq!(eval(DOC, "$.s[*]").len(), 1);
    assert_eq!(eval(DOC, "strict $.s[*]").len(), 0);
}

#[test]
fn strict_plain_navigation_still_works() {
    assert_eq!(eval(DOC, "strict $.a.b"), vec![parse("1").unwrap()]);
    assert_eq!(eval(DOC, "strict $.items[1].p"), vec![parse("2").unwrap()]);
    assert_eq!(eval(DOC, "strict $.items[0 to 1].p").len(), 2);
}

#[test]
fn strict_field_steps_never_reach_through_arrays() {
    assert!(eval(r#"{"a":[{"b":1}]}"#, "strict $.a.b").is_empty());
    assert!(eval(r#"{"a":{"b":1}}"#, "strict $.a[0].b").is_empty());
    assert_eq!(eval(r#"{"a":[{"b":1}]}"#, "lax $.a.b"), vec![parse("1").unwrap()]);
    assert_eq!(eval(r#"{"a":{"b":1}}"#, "lax $.a[0].b"), vec![parse("1").unwrap()]);
    assert!(eval(DOC, "strict $.items.*").is_empty());
    assert_eq!(eval(DOC, "strict $.items[*]?(@.p > 1).p.size()"), vec![parse("1").unwrap()]);
}

#[test]
fn strict_wildcards_on_matching_kinds() {
    assert_eq!(eval(DOC, "strict $.*").len(), 3);
    assert_eq!(eval(DOC, "strict $.items[*]").len(), 2);
}
