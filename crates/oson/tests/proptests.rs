//! Property-based tests for the OSON codec: round-tripping against the
//! value model, navigation agreement with the in-memory DOM, and partial
//! update safety — for self-contained instances and for members of a §7
//! set, which the same reader opens through the set's dictionary.

use fsdm_json::{field_hash, JsonDom, JsonNumber, JsonValue, Object, ValueDom};
use fsdm_oson::{decode, encode, update_scalar, OsonDoc, OsonSet, SegmentStats, UpdateOutcome};
use proptest::prelude::*;

/// The documents pushed into one set, in order.
fn set_of(docs: &[JsonValue]) -> OsonSet {
    let mut set = OsonSet::new();
    for d in docs {
        set.push(d).unwrap();
    }
    set
}

fn arb_json() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        (-100_000i64..100_000, 0u32..1000).prop_map(|(i, f)| JsonValue::Number(
            JsonNumber::from_literal(&format!("{i}.{f:03}")).unwrap()
        )),
        "[a-zA-Z0-9 _\u{e9}]{0,24}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            prop::collection::vec(("[a-z][a-z0-9_]{0,10}", inner), 0..6).prop_map(|pairs| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode preserves the JSON data model (object member order
    /// is insignificant, per the data model).
    #[test]
    fn oson_roundtrip(v in arb_json()) {
        let bytes = encode(&v).unwrap();
        prop_assert!(decode(&bytes).unwrap().eq_unordered(&v));
    }

    /// Segment statistics always sum to the buffer size.
    #[test]
    fn segment_stats_exhaustive(v in arb_json()) {
        let bytes = encode(&v).unwrap();
        let s = SegmentStats::of(&bytes).unwrap();
        prop_assert_eq!(s.total(), bytes.len());
    }

    /// Every field reachable in the in-memory DOM resolves identically in
    /// the serialized OSON DOM (name → same scalar / same container sizes),
    /// as an instance and as a member of a set of all the documents.
    #[test]
    fn navigation_agrees_with_value_dom(docs in prop::collection::vec(arb_json(), 1..5)) {
        let set = set_of(&docs);
        for (i, v) in docs.iter().enumerate() {
            let dom = ValueDom::new(v);
            let bytes = encode(v).unwrap();
            let oson = OsonDoc::new(&bytes).unwrap();
            check_agree(&dom, dom.root(), &oson, oson.root())?;
            let member = set.doc(i).unwrap();
            check_agree(&dom, dom.root(), &member, member.root())?;
        }
    }

    /// Every encoder-produced buffer passes the deep structural verifier,
    /// instance or set member.
    #[test]
    fn encoded_documents_validate(docs in prop::collection::vec(arb_json(), 1..5)) {
        let set = set_of(&docs);
        for (i, v) in docs.iter().enumerate() {
            let bytes = encode(v).unwrap();
            prop_assert!(OsonDoc::new(&bytes).unwrap().validate().is_ok());
            prop_assert!(set.doc(i).unwrap().validate().is_ok());
        }
    }

    /// Flipping a single byte of a valid buffer yields `Err` or a value —
    /// never a panic. No `catch_unwind`: the decode path is total.
    #[test]
    fn decoder_total_on_single_byte_flip(
        v in arb_json(),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut bytes = encode(&v).unwrap();
        let n = bytes.len();
        bytes[pos % n] ^= 1 << bit;
        let _ = decode(&bytes);
    }

    /// The decoder stays total under heavier damage: multiple flips and a
    /// truncation, of an instance and of a set member.
    #[test]
    fn decoder_total_on_bitflips(
        v in arb_json(),
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..8),
        cut in 0usize..4096,
    ) {
        let set = set_of(std::slice::from_ref(&v));
        let member = set.doc(0).unwrap().as_bytes().to_vec();
        for mut bytes in [encode(&v).unwrap(), member] {
            for &(pos, bit) in &flips {
                let n = bytes.len();
                bytes[pos % n] ^= 1 << bit;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = decode(&bytes);
            if let Ok(doc) = OsonDoc::member(&bytes, set.dictionary()) {
                if doc.validate().is_ok() {
                    let _ = doc.materialize(doc.root());
                }
            }
        }
    }

    /// Partial number updates preserve every other leaf.
    #[test]
    // non-negative single-base-100-digit ints encode in ≤ 2 OraNum bytes,
    // matching the original slot of `1`; negatives carry a terminator byte
    // and would legitimately need a re-encode
    fn partial_update_isolation(seed_val in 0i64..100) {
        let v = fsdm_json::parse(
            r#"{"a":1,"b":{"c":2,"d":"txt"},"e":[3,4,5]}"#
        ).unwrap();
        let mut bytes = encode(&v).unwrap();
        let doc = OsonDoc::new(&bytes).unwrap();
        let a = doc.get_field(doc.root(), "a", field_hash("a")).unwrap();
        let new = JsonValue::from(seed_val % 100); // short int always fits
        let out = update_scalar(&mut bytes, a, &new).unwrap();
        prop_assert_eq!(out, UpdateOutcome::Updated);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back.get("a").unwrap().as_i64(), new.as_i64());
        prop_assert_eq!(back.get("b").unwrap().get("d").unwrap().as_str(), Some("txt"));
        prop_assert_eq!(back.get("e").unwrap().at(2).unwrap().as_i64(), Some(5));
    }
}

fn check_agree(
    dom: &ValueDom<'_>,
    dn: fsdm_json::NodeRef,
    oson: &OsonDoc<'_>,
    on: fsdm_json::NodeRef,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dom.kind(dn), oson.kind(on));
    match dom.kind(dn) {
        fsdm_json::NodeKind::Scalar => {
            prop_assert_eq!(dom.scalar(dn).to_value(), oson.scalar(on).to_value());
        }
        fsdm_json::NodeKind::Array => {
            prop_assert_eq!(dom.array_len(dn), oson.array_len(on));
            for i in 0..dom.array_len(dn) {
                check_agree(dom, dom.array_element(dn, i), oson, oson.array_element(on, i))?;
            }
        }
        fsdm_json::NodeKind::Object => {
            prop_assert_eq!(dom.object_len(dn), oson.object_len(on));
            for i in 0..dom.object_len(dn) {
                let (name, child) = dom.object_entry(dn, i);
                let h = field_hash(name);
                let ochild = oson.get_field(on, name, h);
                prop_assert!(ochild.is_some(), "field {} missing in OSON", name);
                check_agree(dom, child, oson, ochild.unwrap())?;
            }
            // members listed in id order name the same fields
            let n = dom.object_len(dn);
            let mut want: Vec<&str> = (0..n).map(|i| dom.object_entry(dn, i).0).collect();
            let mut got: Vec<&str> = (0..n).map(|i| oson.object_entry(on, i).0).collect();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(want, got);
        }
    }
    Ok(())
}
