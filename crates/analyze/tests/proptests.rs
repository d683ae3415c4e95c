//! Property-based tests for the semantic analyzer: total over arbitrary
//! corpus/path combinations, and FA001 findings are *sound* — a path the
//! analyzer calls unknown really matches nothing in any ingested
//! document.

use std::collections::BTreeSet;

use fsdm_analyze::{analyze_path, path_provably_empty, AnalyzerConfig, Code};
use fsdm_dataguide::{structure_signature, DataGuide};
use fsdm_json::{JsonNumber, JsonValue, Object, ValueDom};
use fsdm_sqljson::{parse_path, PathEvaluator};
use proptest::prelude::*;

/// Documents over the same small field vocabulary the paths draw from,
/// so known and unknown paths both occur with useful probability.
fn arb_doc() -> impl Strategy<Value = JsonValue> {
    let field = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("items".to_string()),
    ];
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-50i64..50).prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        "[a-z]{0,5}".prop_map(JsonValue::String),
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

/// Syntactically valid path text: field steps (including two fields no
/// document ever has), array steps, filters, and an optional trailing
/// item method, in lax or strict mode.
fn arb_path() -> impl Strategy<Value = String> {
    let field = prop_oneof![
        Just("a"),
        Just("b"),
        Just("c"),
        Just("items"),
        Just("ghost"),
        Just("phantom"),
    ];
    let step = prop_oneof![
        field.clone().prop_map(|f| format!(".{f}")),
        Just("[*]".to_string()),
        Just("[0]".to_string()),
        Just("[last]".to_string()),
        Just("[0 to 1]".to_string()),
        field.prop_map(|f| format!("?(@.{f} == 1)")),
        Just("?(@ > 2)".to_string()),
        Just("?(exists(@.a))".to_string()),
    ];
    let method = prop_oneof![Just(""), Just(".number()"), Just(".upper()"), Just(".string()")];
    (any::<bool>(), prop::collection::vec(step, 0..5), method).prop_map(
        |(strict, steps, method)| {
            let mode = if strict { "strict " } else { "" };
            format!("{mode}${}{method}", steps.concat())
        },
    )
}

/// Build a guide the way [`fsdm_store::Table`] does when `fast_path` is
/// set: only structurally novel documents are walked, the rest bump
/// `doc_count`. Analyzer claims must stay sound under both regimes.
fn guide_of(docs: &[JsonValue], fast_path: bool) -> DataGuide {
    let mut g = DataGuide::new();
    let mut seen = std::collections::HashSet::new();
    for d in docs {
        if !fast_path || seen.insert(structure_signature(d)) {
            g.add_document(d);
        } else {
            g.doc_count += 1;
        }
    }
    g
}

fn configs() -> Vec<AnalyzerConfig> {
    vec![
        AnalyzerConfig::default(),
        AnalyzerConfig { text_storage: true, ..Default::default() },
        AnalyzerConfig { vc_frequency_pct: 0, ..Default::default() },
        AnalyzerConfig {
            materialized_vc_paths: BTreeSet::from(["$.a".to_string()]),
            ..Default::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The analyzer is total: any corpus and any well-formed path produce
    /// diagnostics without panicking, every span stays inside the path
    /// text, and the renderer handles every finding.
    #[test]
    fn analyzer_is_total(
        docs in prop::collection::vec(arb_doc(), 0..8),
        path_text in arb_path(),
        fast_path in any::<bool>(),
    ) {
        let parsed = parse_path(&path_text);
        prop_assert!(parsed.is_ok(), "generator emitted unparseable `{path_text}`: {parsed:?}");
        let Ok(path) = parsed else { return Ok(()) };
        let guide = guide_of(&docs, fast_path);
        for cfg in configs() {
            for d in analyze_path(&guide, &path, &cfg) {
                prop_assert!(d.span.start <= d.span.end, "{d:?}");
                prop_assert!(d.span.end <= path_text.len(), "{d:?} vs {path_text}");
                let _ = d.snippet();
                prop_assert!(!d.to_string().is_empty());
            }
        }
    }

    /// FA001 soundness: when the analyzer reports an unknown path (or the
    /// optimizer's `path_provably_empty` obligation holds), evaluating
    /// that path against every ingested document yields nothing. This is
    /// exactly what licenses the dead-predicate scan rewrite.
    #[test]
    fn fa001_paths_really_match_nothing(
        docs in prop::collection::vec(arb_doc(), 1..8),
        path_text in arb_path(),
        fast_path in any::<bool>(),
    ) {
        let parsed = parse_path(&path_text);
        prop_assert!(parsed.is_ok(), "generator emitted unparseable `{path_text}`: {parsed:?}");
        let Ok(path) = parsed else { return Ok(()) };
        let guide = guide_of(&docs, fast_path);
        let diags = analyze_path(&guide, &path, &AnalyzerConfig::default());
        let unknown = diags.iter().any(|d| d.code == Code::UnknownPath);
        let provably_empty = path_provably_empty(&guide, &path);
        if unknown || provably_empty {
            for doc in &docs {
                let values =
                    PathEvaluator::new(path.clone()).evaluate_values(&ValueDom::new(doc));
                prop_assert!(
                    values.is_empty(),
                    "analyzer said `{path_text}` is unknown (FA001={unknown}, \
                     provably_empty={provably_empty}) but it matched {values:?} in {doc:?}"
                );
            }
        }
    }
}
