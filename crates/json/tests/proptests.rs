//! Property-based tests for the JSON substrate: text round-tripping,
//! OraNum order preservation, and parser/event-stream agreement — the
//! events, `skip_value` and `parse_value` accept exactly what the DOM
//! parser accepts.

use fsdm_json::{parse, to_string, Event, EventParser, JsonNumber, JsonValue, Object, OraNum};
use proptest::prelude::*;

/// Generator for arbitrary JSON values of bounded depth/size.
fn arb_json() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        (-1_000_000i64..1_000_000, 0u32..10_000).prop_map(|(i, f)| JsonValue::Number(
            JsonNumber::from_literal(&format!("{i}.{f:04}")).unwrap()
        )),
        "[a-zA-Z0-9 _\\-\u{e9}\u{1F600}]{0,20}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..8).prop_map(JsonValue::Array),
            prop::collection::vec(("[a-zA-Z_][a-zA-Z0-9_]{0,12}", inner), 0..8).prop_map(|pairs| {
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

/// The verdicts of the three ways to scan `bytes` whole: drain the
/// events; skip the root container after its start event; parse it.
fn scanner_verdicts(bytes: &[u8]) -> [bool; 3] {
    let drained = EventParser::from_bytes(bytes).collect_events().is_ok();
    let whole = |parse: bool| {
        let mut ev = EventParser::from_bytes(bytes);
        let first = ev.next_event()?;
        if matches!(first, Some(Event::StartObject | Event::StartArray)) {
            if parse {
                ev.parse_value()?;
            } else {
                ev.skip_value()?;
            }
        }
        while ev.next_event()?.is_some() {}
        Ok::<(), fsdm_json::JsonError>(())
    };
    [drained, whole(false).is_ok(), whole(true).is_ok()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Damaged documents: every scanner gives the DOM parser's verdict.
    #[test]
    fn scanners_agree_with_the_dom_parser(
        v in arb_json(),
        cut in 0.0f64..1.0,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let text = to_string(&v);
        let bytes = text.as_bytes();
        let end = ((bytes.len() as f64) * cut) as usize;
        let mut flipped = bytes.to_vec();
        let i = at % flipped.len().max(1);
        if let Some(b) = flipped.get_mut(i) {
            *b = byte;
        }
        for input in [bytes, &bytes[..end], &flipped[..]] {
            let ok = fsdm_json::parse_bytes(input).is_ok();
            prop_assert_eq!(scanner_verdicts(input), [ok; 3], "{:?}", String::from_utf8_lossy(input));
        }
    }

    /// serialize → parse is the identity on the value model.
    #[test]
    fn text_roundtrip(v in arb_json()) {
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The event stream is balanced and contains one scalar/Start event per
    /// value node of the DOM.
    #[test]
    fn event_stream_agrees_with_dom(v in arb_json()) {
        let text = to_string(&v);
        let events = EventParser::new(&text).collect_events().unwrap();
        let mut depth: i64 = 0;
        let mut value_nodes = 0usize;
        for e in &events {
            match e {
                Event::StartObject | Event::StartArray => { value_nodes += 1; depth += 1; }
                Event::EndObject | Event::EndArray => { depth -= 1; prop_assert!(depth >= 0); }
                Event::Key(_) => {}
                _ => value_nodes += 1,
            }
        }
        prop_assert_eq!(depth, 0);
        prop_assert_eq!(value_nodes, v.node_count());
    }

    /// OraNum byte order equals numeric order over random i64 pairs.
    #[test]
    fn oranum_i64_order(a in any::<i64>(), b in any::<i64>()) {
        let (na, nb) = (OraNum::from_i64(a), OraNum::from_i64(b));
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
    }

    /// OraNum i64 encoding round-trips exactly.
    #[test]
    fn oranum_i64_roundtrip(a in any::<i64>()) {
        prop_assert_eq!(OraNum::from_i64(a).to_i64(), Some(a));
    }

    /// OraNum byte order equals numeric order over random decimals.
    #[test]
    fn oranum_decimal_order(
        (ai, af) in (-1_000_000i64..1_000_000, 0u32..1_000_000),
        (bi, bf) in (-1_000_000i64..1_000_000, 0u32..1_000_000),
    ) {
        // build decimals with explicit sign handling: value = i + sign*0.f
        let mk = |i: i64, f: u32| -> (f64, OraNum) {
            let s = if i < 0 {
                format!("-{}.{:06}", i.unsigned_abs(), f)
            } else {
                format!("{i}.{f:06}")
            };
            (s.parse::<f64>().unwrap(), OraNum::from_decimal_str(&s).unwrap())
        };
        let (fa, na) = mk(ai, af);
        let (fb, nb) = mk(bi, bf);
        prop_assert_eq!(na.cmp(&nb), fa.partial_cmp(&fb).unwrap());
    }

    /// Canonical decimal strings re-parse to an equal OraNum.
    #[test]
    fn oranum_string_roundtrip(i in -10_000_000i64..10_000_000, f in 0u32..100_000) {
        let s = if i < 0 {
            format!("-{}.{:05}", i.unsigned_abs(), f)
        } else {
            format!("{i}.{f:05}")
        };
        let n = OraNum::from_decimal_str(&s).unwrap();
        let n2 = OraNum::from_decimal_str(&n.to_decimal_string()).unwrap();
        prop_assert_eq!(n, n2);
    }

    /// from_bytes accepts exactly what as_bytes produced.
    #[test]
    fn oranum_bytes_roundtrip(a in any::<i64>()) {
        let n = OraNum::from_i64(a);
        prop_assert_eq!(OraNum::from_bytes(n.as_bytes()).unwrap(), n);
    }

    /// Parser and scanners never panic on arbitrary input bytes, and
    /// agree on it.
    #[test]
    fn parser_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let ok = fsdm_json::parse_bytes(&bytes).is_ok();
        prop_assert_eq!(scanner_verdicts(&bytes), [ok; 3]);
    }
}
