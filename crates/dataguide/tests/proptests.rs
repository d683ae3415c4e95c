//! Property-based tests for the DataGuide: merge algebra, signature
//! consistency, extremes of mixed kinds and independence of member order
//! over random documents.

use std::collections::BTreeMap;

use fsdm_dataguide::hierarchical::{to_flat_json, to_hierarchical_json};
use fsdm_dataguide::{path_step_text, structure_signature, DataGuide};
use fsdm_json::{JsonNumber, JsonValue, Object};
use proptest::prelude::*;

/// A decimal with two places, `m / 100`, negative when `m` is.
fn decimal(m: i64) -> JsonValue {
    let sign = if m < 0 { "-" } else { "" };
    let text = format!("{sign}{}.{:02}", m.abs() / 100, m.abs() % 100);
    JsonValue::Number(JsonNumber::from_literal(&text).expect("a decimal literal"))
}

fn arb_doc() -> impl Strategy<Value = JsonValue> {
    let field = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("items".to_string()),
    ];
    // every kind at every path: negative and decimal numbers, and
    // strings that read as numbers, so extremes of two kinds meet
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-50i64..50).prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        (-5000i64..5000).prop_map(decimal),
        "[a-z]{0,5}".prop_map(JsonValue::String),
        (-50i64..50).prop_map(|v| JsonValue::String(v.to_string())),
        (-5000i64..5000).prop_map(|m| JsonValue::String(fsdm_json::to_string(&decimal(m)))),
    ];
    leaf.prop_recursive(3, 30, 4, move |inner| {
        let field = field.clone();
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::vec((field, inner), 0..4).prop_map(|pairs| {
                let mut o = Object::new();
                let mut seen = std::collections::HashSet::new();
                for (k, v) in pairs {
                    if seen.insert(k.clone()) {
                        o.push(k, v);
                    }
                }
                JsonValue::Object(o)
            }),
        ]
    })
}

fn guide_of(docs: &[JsonValue]) -> DataGuide {
    let mut g = DataGuide::new();
    for d in docs {
        g.add_document(d);
    }
    g
}

fn shape(g: &DataGuide) -> Vec<(String, String, u64)> {
    g.rows().into_iter().map(|r| (r.path, r.type_str, r.doc_count)).collect()
}

/// Every non-null scalar of `v` under the `$DG` path it counts at, in
/// the order the guide walks them (arrays are transparent).
fn scalars_by_path(v: &JsonValue, path: &str, out: &mut BTreeMap<String, Vec<JsonValue>>) {
    match v {
        JsonValue::Object(o) => {
            for (k, c) in o.iter() {
                scalars_by_path(c, &format!("{path}{}", path_step_text(k)), out);
            }
        }
        JsonValue::Array(a) => a.iter().for_each(|e| scalars_by_path(e, path, out)),
        JsonValue::Null => {}
        scalar => out.entry(path.to_string()).or_default().push(scalar.clone()),
    }
}

/// The extremes comparison the guide used before kinds were ranked:
/// values of one kind by value, of two kinds by their JSON text.
fn textual_cmp(a: &JsonValue, b: &JsonValue) -> std::cmp::Ordering {
    match (a, b) {
        (JsonValue::Number(x), JsonValue::Number(y)) => x.total_cmp(y),
        (JsonValue::String(x), JsonValue::String(y)) => x.cmp(y),
        (JsonValue::Bool(x), JsonValue::Bool(y)) => x.cmp(y),
        _ => fsdm_json::to_string(a).cmp(&fsdm_json::to_string(b)),
    }
}

/// The first value no later one is strictly beyond, as the guide keeps it.
fn extreme(values: &[JsonValue], beyond: std::cmp::Ordering) -> Option<String> {
    let mut best: Option<&JsonValue> = None;
    for v in values {
        if best.is_none_or(|b| textual_cmp(v, b) == beyond) {
            best = Some(v);
        }
    }
    best.map(fsdm_json::to_string)
}

/// `v` with the members of each of its objects in the order of a
/// permutation drawn from `seed`.
fn permuted(v: &JsonValue, seed: &mut u64) -> JsonValue {
    match v {
        JsonValue::Object(o) => {
            let mut members: Vec<(&str, &JsonValue)> = o.iter().collect();
            for i in (1..members.len()).rev() {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                members.swap(i, (*seed >> 33) as usize % (i + 1));
            }
            let mut out = Object::new();
            for (k, c) in members {
                out.push(k, permuted(c, seed));
            }
            JsonValue::Object(out)
        }
        JsonValue::Array(a) => JsonValue::Array(a.iter().map(|e| permuted(e, seed)).collect()),
        scalar => scalar.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging partial guides equals building one guide over the union —
    /// for any split point (the SQL aggregate's combine correctness).
    #[test]
    fn merge_equals_single_pass(
        docs in prop::collection::vec(arb_doc(), 0..12),
        split in 0usize..12,
    ) {
        let split = split.min(docs.len());
        let whole = guide_of(&docs);
        let mut left = guide_of(&docs[..split]);
        let right = guide_of(&docs[split..]);
        left.merge(&right);
        prop_assert_eq!(shape(&left), shape(&whole));
    }

    /// Adding documents never removes *paths* (the guide is additive,
    /// §3.4). Type strings may change — scalar types generalize — so only
    /// the path set is monotone.
    #[test]
    fn guide_is_monotone(docs in prop::collection::vec(arb_doc(), 1..10)) {
        let mut g = DataGuide::new();
        let mut prev: std::collections::HashSet<String> = Default::default();
        for d in &docs {
            g.add_document(d);
            let now: std::collections::HashSet<String> =
                g.rows().into_iter().map(|r| r.path).collect();
            prop_assert!(prev.is_subset(&now), "{:?} ⊄ {:?}", prev, now);
            prev = now;
        }
    }

    /// Equal structure signatures imply equal guide contributions: adding
    /// a same-signature document never adds rows.
    #[test]
    fn signature_soundness(doc in arb_doc(), other in arb_doc()) {
        let mut g = DataGuide::new();
        g.add_document(&doc);
        let rows_before = g.distinct_paths();
        if structure_signature(&doc) == structure_signature(&other) {
            g.add_document(&other);
            prop_assert_eq!(g.distinct_paths(), rows_before);
        }
    }

    /// doc_count totals track the number of documents.
    #[test]
    fn doc_counts_bounded(docs in prop::collection::vec(arb_doc(), 1..10)) {
        let g = guide_of(&docs);
        prop_assert_eq!(g.doc_count, docs.len() as u64);
        for r in g.rows() {
            prop_assert!(r.doc_count <= g.doc_count, "{} counted {} of {}", r.path, r.doc_count, g.doc_count);
        }
    }

    /// Each scalar row's low and high values are what comparing values of
    /// two kinds by their JSON text picks.
    #[test]
    fn extremes_match_the_textual_comparison(docs in prop::collection::vec(arb_doc(), 1..10)) {
        let g = guide_of(&docs);
        let mut values = BTreeMap::new();
        for d in &docs {
            scalars_by_path(d, "$", &mut values);
        }
        for r in g.rows() {
            let kind = r.type_str.trim_start_matches("array of ");
            if !["string", "number", "boolean", "null"].contains(&kind) {
                continue;
            }
            let at = values.get(&r.path).map_or(&[][..], Vec::as_slice);
            let low = r.min.as_ref().map(fsdm_json::to_string);
            let high = r.max.as_ref().map(fsdm_json::to_string);
            prop_assert_eq!(low, extreme(at, std::cmp::Ordering::Less), "min at {}", r.path);
            prop_assert_eq!(high, extreme(at, std::cmp::Ordering::Greater), "max at {}", r.path);
        }
    }

    /// The rows and both rendered forms do not depend on the order of
    /// any object's members: no hash order leaks into the output.
    #[test]
    fn output_ignores_member_order(docs in prop::collection::vec(arb_doc(), 1..10), seed in any::<u64>()) {
        let mut seed = seed;
        let shuffled: Vec<JsonValue> = docs.iter().map(|d| permuted(d, &mut seed)).collect();
        let (g, h) = (guide_of(&docs), guide_of(&shuffled));
        prop_assert_eq!(g.rows(), h.rows());
        prop_assert_eq!(fsdm_json::to_string(&to_flat_json(&g)), fsdm_json::to_string(&to_flat_json(&h)));
        prop_assert_eq!(
            fsdm_json::to_string(&to_hierarchical_json(&g)),
            fsdm_json::to_string(&to_hierarchical_json(&h))
        );
    }
}
