//! Property-based tests for the SQL/JSON layer: text-pass/DOM engine
//! agreement (one path and several per pass, duplicate keys, keys spelled
//! with escapes, strict mode, suffixes, filters on tokens, malformed
//! text), OSON/BSON backend agreement, the DOM engine's narrow answers,
//! and parser totality.

use std::borrow::Cow;

use fsdm_json::{JsonDom, JsonNumber, JsonValue, Object, ValueDom};
use fsdm_sqljson::ops::{json_value, OnError};
use fsdm_sqljson::streaming::{self, TextPass, Want};
use fsdm_sqljson::{parse_path, Datum, JsonPath, PathEvaluator, SqlType};
use proptest::prelude::*;

/// The field names documents and paths share.
const FIELDS: [&str; 5] = ["a", "b", "items", "name", "price"];

/// Documents shaped like realistic collections: bounded depth, fields
/// drawn from a small vocabulary so paths actually hit — and may repeat
/// within one object, as JSON text allows; string leaves are sometimes
/// those names, so that a name appears in the text as a value.
fn arb_doc() -> impl Strategy<Value = JsonValue> {
    let field = (0..FIELDS.len()).prop_map(|i| FIELDS[i].to_string());
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-100i64..100).prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        "[a-z]{0,6}".prop_map(JsonValue::String),
        (0..FIELDS.len()).prop_map(|i| JsonValue::String(FIELDS[i].to_string())),
    ];
    leaf.prop_recursive(3, 40, 5, move |inner| {
        let field = field.clone();
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(JsonValue::Array),
            prop::collection::vec((field, inner), 0..5).prop_map(|pairs| {
                let mut o = Object::new();
                for (k, v) in pairs {
                    o.push(k, v);
                }
                JsonValue::Object(o)
            }),
        ]
    })
}

/// `doc` as JSON text with the first character of every `every`-th key
/// (counted through the document; none for 0) spelled as a `\uXXXX`
/// escape, as a writer may spell any character.
fn text_of(doc: &JsonValue, every: usize) -> String {
    fn write(v: &JsonValue, every: usize, keys: &mut usize, out: &mut String) {
        match v {
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, every, keys, out);
                }
                out.push(']');
            }
            JsonValue::Object(o) => {
                out.push('{');
                for (i, (k, item)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    *keys += 1;
                    let key = fsdm_json::to_string(&JsonValue::String(k.to_string()));
                    match k.chars().next() {
                        Some(c) if every > 0 && keys.is_multiple_of(every) => {
                            out.push_str(&format!("\"\\u{:04x}", u32::from(c)));
                            out.push_str(&key[1 + c.len_utf8()..]);
                        }
                        _ => out.push_str(&key),
                    }
                    out.push(':');
                    write(item, every, keys, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&fsdm_json::to_string(scalar)),
        }
    }
    let mut out = String::new();
    write(doc, every, &mut 0, &mut out);
    out
}

/// Paths over the same vocabulary: a streamable body, optionally in
/// strict mode, optionally ending in a step that needs a DOM — among them
/// filters whose comparisons meet array operands, mismatched types, item
/// methods, boolean connectives and `@.a.b` member chains — or in a
/// filter comparing `@` with literals, which lax mode streams.
fn arb_streamable_path() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        Just(".a".to_string()),
        Just(".b".to_string()),
        Just(".items".to_string()),
        Just(".name".to_string()),
        Just(".price".to_string()),
        Just(".*".to_string()),
        Just("[*]".to_string()),
        Just("[0]".to_string()),
        Just("[1]".to_string()),
        Just("[0 to 2]".to_string()),
    ];
    let mode = prop_oneof![Just(""), Just("strict ")];
    let suffix = prop_oneof![
        Just(""),
        Just(""),
        Just(""),
        Just("?(@.price >= 0)"),
        Just("?(@ == \"ab\")"),
        Just("?(@ starts with \"a\")"),
        Just("?(@.name != 3)"),
        Just("?(@.a == null)"),
        Just("?(exists(@.b) && !(@.price < 0))"),
        Just("?(@.size() >= 2)"),
        Just("?(@.items == 1)"),
        // member chains: one hop, two, across arrays and scalars
        Just("?(@.a > 0)"),
        Just("?(@.a.b == \"ab\")"),
        Just("?(exists(@.a.b))"),
        Just("?(@.a != @.b)"),
        Just("?(@.price == 1 || @.price == 2 || @.price == 3)"),
        // `@` against literals: on tokens in lax mode, over nested arrays
        Just("?(@ == \"name\")"),
        Just("?(\"a\" == @ || @ == 1)"),
        Just("?(@ starts with \"i\" && !(@ == \"items\"))"),
        Just("?(@ != \"b\")"),
        Just("?(@ > 0 && @ <= 50)"),
        Just("?(@ == true || @ == null)"),
        Just("[*]?(@ < 0)"),
        Just("[*]?(@ == \"price\")"),
        Just(".size()"),
        Just("[last]"),
    ];
    (mode, prop::collection::vec(step, 1..5), suffix)
        .prop_map(|(mode, steps, suffix)| format!("{mode}${}{suffix}", steps.concat()))
}

fn arb_want() -> impl Strategy<Value = Want> {
    prop_oneof![
        Just(Want::Items),
        Just(Want::Exists),
        Just(Want::Value(SqlType::Any)),
        Just(Want::Value(SqlType::Number)),
    ]
}

/// The DOM engine's answer for `want`.
fn dom_answer(doc: &JsonValue, jp: &JsonPath, want: Want) -> (Datum, Vec<JsonValue>) {
    let dom = ValueDom::new(doc);
    let mut ev = PathEvaluator::new(jp.clone());
    match want {
        Want::Items => (Datum::Null, ev.evaluate_values(&dom)),
        Want::Exists => (Datum::Bool(ev.exists(&dom)), Vec::new()),
        Want::Value(ty) => {
            (json_value(&dom, &mut ev, ty, OnError::Null).unwrap_or(Datum::Null), Vec::new())
        }
    }
}

/// `exists` and `count_first` over `dom` answer as `evaluate_from` does.
fn narrow_answers_hold<D: JsonDom>(dom: &D, jp: &JsonPath) -> Result<(), TestCaseError> {
    let mut ev = PathEvaluator::new(jp.clone());
    let all = ev.evaluate_from(dom, dom.root());
    prop_assert_eq!(ev.count_first(dom, dom.root()), (all.len(), all.first().cloned()), "{}", jp);
    prop_assert_eq!(ev.exists(dom), !all.is_empty(), "{}", jp);
    Ok(())
}

/// One pass of `paths` over `text` (`checked`: known to be well formed):
/// each path's answer, and whether the text scanned.
fn one_pass(
    text: &str,
    paths: &[(JsonPath, Want)],
    checked: bool,
) -> (Vec<(Datum, Vec<JsonValue>)>, bool) {
    let mut pass = TextPass::new(paths.iter().map(|(p, w)| (Cow::Borrowed(p), *w)));
    let scanned = pass.run(text, checked).is_ok();
    let answers = (0..paths.len()).map(|i| (pass.take(i), pass.take_items(i))).collect();
    (answers, scanned)
}

/// The verdict decision 1 gives a path over text that may not scan: the
/// DOM's when it parses; else NULL for a value, false for an exists path
/// with a suffix (over unchecked text any filter is one), the one-path
/// pass's (decided at its first match) for one without, and nothing for
/// items.
fn verdict(text: &str, jp: &JsonPath, want: Want) -> (Datum, Vec<JsonValue>) {
    match fsdm_json::parse(text) {
        Ok(doc) => dom_answer(&doc, jp, want),
        Err(_) => match want {
            Want::Exists if jp.text_prefix(false) == jp.steps.len() => {
                (Datum::Bool(streaming::exists_text(text, jp).unwrap_or(false)), Vec::new())
            }
            Want::Exists => (Datum::Bool(false), Vec::new()),
            Want::Value(_) | Want::Items => (Datum::Null, Vec::new()),
        },
    }
}

/// Cut `text` at `cut` (a fraction) and flip bit `bit` of byte `at`,
/// staying ASCII so the result is still a `str`.
fn damage(text: &str, cut: f64, at: usize, bit: u8) -> (String, String) {
    let end = ((text.len() as f64) * cut) as usize;
    let truncated = text.get(..end).unwrap_or(text).to_string();
    let mut bytes = text.as_bytes().to_vec();
    if let Some(b) = bytes.get_mut(at % text.len().max(1)) {
        if b.is_ascii() {
            *b ^= 1 << (bit % 7);
        }
    }
    (truncated, String::from_utf8(bytes).unwrap_or_else(|_| text.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A one-path text pass == DOM evaluation, for every path on every
    /// document.
    #[test]
    fn streaming_agrees_with_dom(doc in arb_doc(), path in arb_streamable_path()) {
        let jp = parse_path(&path).unwrap();
        let text = fsdm_json::to_string(&doc);
        let streamed = streaming::eval_text(&text, &jp).unwrap();
        let (_, via_dom) = dom_answer(&doc, &jp, Want::Items);
        prop_assert_eq!(&streamed, &via_dom, "path {} on {}", path, text);
        // existence agrees too
        prop_assert_eq!(streaming::exists_text(&text, &jp).unwrap(), !via_dom.is_empty());
    }

    /// One pass answers 1–4 paths over one document, checked (the scan
    /// may end early, or not start for a path whose name the text lacks)
    /// and validating alike, over text that may spell keys with escapes:
    /// each answer is the DOM engine's, and an exists answer is "items are
    /// non-empty".
    #[test]
    fn one_pass_answers_each_path_as_the_dom_does(
        doc in arb_doc(),
        paths in prop::collection::vec((arb_streamable_path(), arb_want()), 1..5),
        every in 0usize..4,
    ) {
        let text = text_of(&doc, every);
        prop_assert_eq!(&fsdm_json::parse(&text).unwrap(), &doc);
        let compiled: Vec<(JsonPath, Want)> =
            paths.iter().map(|(p, w)| (parse_path(p).unwrap(), *w)).collect();
        for checked in [false, true] {
            let (answers, scanned) = one_pass(&text, &compiled, checked);
            prop_assert!(scanned);
            for ((jp, want), answer) in compiled.iter().zip(&answers) {
                prop_assert_eq!(
                    answer, &dom_answer(&doc, jp, *want),
                    "{} ({:?}, checked={}) on {}", jp, want, checked, text
                );
                if *want == Want::Exists {
                    let (_, items) = dom_answer(&doc, jp, Want::Items);
                    prop_assert_eq!(&answer.0, &Datum::Bool(!items.is_empty()));
                }
            }
        }
    }

    /// Truncated and bit-flipped texts never panic a pass, and each path
    /// gets decision 1's verdict.
    #[test]
    fn damaged_text_gets_the_malformed_verdicts(
        doc in arb_doc(),
        paths in prop::collection::vec((arb_streamable_path(), arb_want()), 1..5),
        cut in 0.0f64..1.0,
        at in any::<usize>(),
        bit in any::<u8>(),
    ) {
        let text = fsdm_json::to_string(&doc);
        let compiled: Vec<(JsonPath, Want)> =
            paths.iter().map(|(p, w)| (parse_path(p).unwrap(), *w)).collect();
        let (truncated, flipped) = damage(&text, cut, at, bit);
        for damaged in [&truncated, &flipped] {
            let (answers, scanned) = one_pass(damaged, &compiled, false);
            let parses = fsdm_json::parse(damaged).is_ok();
            let early = compiled.iter().all(|(p, w)| {
                *w == Want::Exists && p.text_prefix(false) == p.steps.len()
            });
            prop_assert!(scanned == parses || (early && scanned), "{}", damaged);
            for ((jp, want), answer) in compiled.iter().zip(&answers) {
                prop_assert_eq!(answer, &verdict(damaged, jp, *want), "{} ({:?}) on {}", jp, want, damaged);
            }
        }
        // a match seen before the cut is a match of the whole document
        for (jp, _) in &compiled {
            if streaming::exists_text(&truncated, jp).unwrap_or(false) {
                prop_assert!(streaming::exists_text(&text, jp).unwrap(), "{} on {}", jp, truncated);
            }
        }
    }

    /// OSON and BSON backends agree with the in-memory DOM for all paths,
    /// including filters.
    #[test]
    fn binary_backends_agree(doc in arb_doc(), path in arb_streamable_path()) {
        // only object-rooted docs encode to BSON; OSON orders an object's
        // members by field id, so `.*` yields them in another order
        prop_assume!(doc.is_object() && !path.contains(".*"));
        let full = format!("{path}?(@.price >= 0)");
        for p in [path.as_str(), full.as_str()] {
            // `.size()?(…)` is no path: a method must come last
            let Ok(jp) = parse_path(p) else { continue };
            let dom = ValueDom::new(&doc);
            let mut e0 = PathEvaluator::new(jp.clone());
            let expected = e0.evaluate_values(&dom);

            let oson = fsdm_oson::encode(&doc).unwrap();
            let od = fsdm_oson::OsonDoc::new(&oson).unwrap();
            let mut e1 = PathEvaluator::new(jp.clone());
            let got = e1.evaluate_values(&od);
            prop_assert_eq!(expected.len(), got.len(), "oson {}", p);
            for (a, b) in expected.iter().zip(&got) {
                prop_assert!(a.eq_unordered(b), "oson {}: {} vs {}", p, a, b);
            }

            let bson = fsdm_bson::encode(&doc).unwrap();
            let bd = fsdm_bson::BsonDoc::new(&bson).unwrap();
            let mut e2 = PathEvaluator::new(jp.clone());
            let got_b = e2.evaluate_values(&bd);
            prop_assert_eq!(expected.len(), got_b.len(), "bson {}", p);
        }
    }

    /// The narrow answers are the full one's: `exists` is "some item",
    /// `count_first` the item count and the first item, on every backend.
    #[test]
    fn narrow_answers_agree_with_evaluate(doc in arb_doc(), path in arb_streamable_path()) {
        let jp = parse_path(&path).unwrap();
        narrow_answers_hold(&ValueDom::new(&doc), &jp)?;
        let oson = fsdm_oson::encode(&doc).unwrap();
        narrow_answers_hold(&fsdm_oson::OsonDoc::new(&oson).unwrap(), &jp)?;
        // only object-rooted docs encode to BSON
        if doc.is_object() {
            let bson = fsdm_bson::encode(&doc).unwrap();
            narrow_answers_hold(&fsdm_bson::BsonDoc::new(&bson).unwrap(), &jp)?;
        }
    }

    /// The path parser is total (never panics) on arbitrary input.
    #[test]
    fn path_parser_total(input in "\\PC{0,40}") {
        let _ = parse_path(&input);
    }

    /// Any parsed path's text round-trips through Display.
    #[test]
    fn path_text_roundtrip(path in arb_streamable_path()) {
        let jp = parse_path(&path).unwrap();
        let again = parse_path(jp.text()).unwrap();
        prop_assert_eq!(jp.steps, again.steps);
    }
}
