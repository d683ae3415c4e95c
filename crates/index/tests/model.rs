//! Model-based test of the search index: random documents are inserted,
//! some removed and replaced, and every lookup is compared with a scan of
//! the documents that are live. The scan builds path strings and value
//! keys its own way, so it shares no code with the index's walk.

use std::collections::{BTreeMap, BTreeSet};

use fsdm_dataguide::{path_step_text, structure_signature, DataGuide, GuideMaintainer};
use fsdm_index::{DocId, SearchIndex};
use fsdm_json::{JsonValue, Object, OraNum};
use proptest::prelude::*;

/// Simple names, names that need quoting, and two that render alike.
const FIELDS: [&str; 9] =
    ["a", "b", "items", "foreign id", "9lives", "q\"t", "qt\"", "Straße", "x"];

/// Numbers in several spellings (`1e200` is beyond NUMBER's range), and
/// strings that look like numbers, booleans and null.
const SCALARS: [&str; 26] = [
    "null",
    "true",
    "false",
    "1",
    "1.0",
    "1e0",
    "10",
    "1e1",
    "-0.5",
    "-5e-1",
    "2.50",
    "1e200",
    "1.0e200",
    "\"1\"",
    "\"1.0\"",
    "\"true\"",
    "\"null\"",
    "\"\"",
    "\"hello\"",
    "\"Hello World\"",
    "\"Ground shipping, signature required\"",
    "\"AIR shipping\"",
    "\"Straße\"",
    "\"İstanbul\"",
    "\"ΟΔΟΣ x1\"",
    "\"a-b_c\"",
];

/// Keywords probed: case variants, a prefix, and words no document has.
const KEYWORDS: [&str; 16] = [
    "shipping",
    "SHIPPING",
    "ship",
    "hello",
    "World",
    "straße",
    "STRASSE",
    "İstanbul",
    "i̇stanbul",
    "istanbul",
    "οδος",
    "ΟΔΟΣ",
    "οδοσ",
    "x1",
    "1",
    "absent",
];

fn pick(pool: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

fn arb_doc() -> impl Strategy<Value = JsonValue> {
    let leaf = pick(&SCALARS).prop_map(|text| fsdm_json::parse(text).expect("scalar literal"));
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            // duplicate keys are kept: JSON permits them
            prop::collection::vec((pick(&FIELDS), inner), 0..5).prop_map(|members| {
                let mut o = Object::new();
                for (k, v) in members {
                    o.push(k, v);
                }
                JsonValue::Object(o)
            }),
        ]
    })
}

/// Every (path, node) of a document, arrays transparent.
fn nodes<'a>(v: &'a JsonValue, path: String, out: &mut Vec<(String, &'a JsonValue)>) {
    out.push((path.clone(), v));
    match v {
        JsonValue::Object(o) => {
            for (k, c) in o.iter() {
                nodes(c, format!("{path}{}", path_step_text(k)), out);
            }
        }
        JsonValue::Array(a) => {
            for e in a {
                nodes(e, path.clone(), out);
            }
        }
        _ => {}
    }
}

fn nodes_of(doc: &JsonValue) -> Vec<(String, &JsonValue)> {
    let mut out = Vec::new();
    nodes(doc, "$".to_string(), &mut out);
    out
}

fn same_scalar(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Number(x), JsonValue::Number(y)) => x == y,
        (JsonValue::Object(_) | JsonValue::Array(_), _) => false,
        _ => a == b,
    }
}

/// `docs_with_value` semantics: numeric-looking text matches numbers of
/// that value, `true`/`false`/`null` their scalars, any text the string.
fn matches_text(v: &JsonValue, text: &str) -> bool {
    let number = OraNum::from_decimal_str(text).ok();
    match v {
        JsonValue::String(s) => s == text,
        JsonValue::Number(n) => number.is_some() && n.to_oranum() == number,
        JsonValue::Bool(b) => text == if *b { "true" } else { "false" },
        JsonValue::Null => text == "null",
        _ => false,
    }
}

fn has_keyword(v: &JsonValue, keyword: &str) -> bool {
    let JsonValue::String(s) = v else {
        return false;
    };
    let wanted = keyword.to_lowercase();
    s.split(|c: char| !c.is_alphanumeric()).any(|w| !w.is_empty() && w.to_lowercase() == wanted)
}

/// Live documents with a node at `path` that `keep` accepts.
fn scan(
    live: &BTreeMap<DocId, JsonValue>,
    path: &str,
    keep: impl Fn(&JsonValue) -> bool,
) -> Vec<DocId> {
    live.iter()
        .filter(|(_, d)| nodes_of(d).iter().any(|(p, v)| p == path && keep(v)))
        .map(|(id, _)| *id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn lookups_equal_a_scan_of_the_live_documents(
        ops in prop::collection::vec((0u8..5, arb_doc(), 0usize..16), 0..14),
    ) {
        let mut index = SearchIndex::new();
        let mut guide = GuideMaintainer::default();
        let mut full_guide = DataGuide::new();
        let mut live: BTreeMap<DocId, JsonValue> = BTreeMap::new();
        let mut paths: BTreeSet<String> = BTreeSet::new();
        let mut next_id: DocId = 0;
        for (op, doc, victim) in ops {
            let victim = live.keys().nth(victim % live.len().max(1)).copied();
            match (op, victim) {
                (3, Some(id)) => {
                    let old = live.remove(&id).expect("a live id");
                    index.remove(id, &old);
                    continue;
                }
                (4, Some(id)) => {
                    let old = live.insert(id, doc.clone()).expect("a live id");
                    // an update, as `Table` makes one: unpost, then post
                    index.remove(id, &old);
                    index.insert(id, &doc);
                }
                _ => {
                    index.insert(next_id, &doc);
                    live.insert(next_id, doc.clone());
                    next_id += 1;
                }
            }
            // paths and the DataGuide are additive: removal retracts neither
            guide.observe(&doc, structure_signature(&doc));
            full_guide.add_document(&doc);
            paths.extend(nodes_of(&doc).into_iter().map(|(p, _)| p));
        }

        prop_assert_eq!(index.paths().collect::<Vec<_>>(), paths.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(index.path_count(), paths.len());
        prop_assert_eq!(index.dataguide().rows(), guide.rows());
        prop_assert_eq!(index.dataguide().doc_count, guide.doc_count);
        // a document the fast path skipped would have added no row
        let shape = |g: &DataGuide| -> Vec<(String, String)> {
            g.rows().into_iter().map(|r| (r.path, r.type_str)).collect()
        };
        prop_assert_eq!(shape(index.dataguide()), shape(&full_guide));
        // the index and $DG render every path alike
        let guide_paths: BTreeSet<String> = guide.rows().into_iter().map(|r| r.path).collect();
        let below_root: BTreeSet<String> = paths.iter().filter(|p| *p != "$").cloned().collect();
        prop_assert_eq!(guide_paths, below_root);

        let probes: Vec<JsonValue> =
            SCALARS.iter().map(|t| fsdm_json::parse(t).expect("scalar literal")).collect();
        for path in paths.iter().map(String::as_str).chain(["$.never.seen"]) {
            prop_assert_eq!(index.docs_with_path(path), scan(&live, path, |_| true));
            for probe in &probes {
                prop_assert_eq!(
                    index.docs_with_scalar(path, probe),
                    scan(&live, path, |v| same_scalar(v, probe)),
                    "scalar {:?} at {}", probe, path
                );
            }
            for text in SCALARS.iter().map(|t| t.trim_matches('"')).chain(["7", "Hello"]) {
                prop_assert_eq!(
                    index.docs_with_value(path, text),
                    scan(&live, path, |v| matches_text(v, text)),
                    "value {:?} at {}", text, path
                );
            }
            for keyword in KEYWORDS {
                prop_assert_eq!(
                    index.docs_text_contains(path, keyword),
                    scan(&live, path, |v| has_keyword(v, keyword)),
                    "keyword {:?} at {}", keyword, path
                );
            }
        }
    }
}
