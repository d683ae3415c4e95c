//! Corpus of malformed BSON buffers: every entry must make [`decode`]
//! return `Err` — never panic. Cases start from real encoder output and
//! break one framing invariant at a time (lengths, NULs, terminators,
//! tags, canonical array keys, decimal128 values), plus hand-built
//! buffers for shapes the encoder cannot produce (overdeep nesting).

use fsdm_bson::{decode, encode, ErrorKind};
use fsdm_json::parse;

fn enc(text: &str) -> Vec<u8> {
    encode(&parse(text).expect("corpus JSON parses")).expect("corpus JSON encodes")
}

fn assert_rejected(name: &str, bytes: &[u8]) {
    match decode(bytes) {
        Err(_) => {}
        Ok(v) => panic!("{name}: corrupted buffer decoded to {v}"),
    }
}

fn assert_kind(name: &str, bytes: &[u8], kind: ErrorKind) {
    match decode(bytes) {
        Err(e) => assert_eq!(e.kind, kind, "{name}: wrong kind: {e}"),
        Ok(v) => panic!("{name}: corrupted buffer decoded to {v}"),
    }
}

// --- framing -------------------------------------------------------------

#[test]
fn empty_buffer() {
    assert_rejected("empty", &[]);
}

#[test]
fn shorter_than_minimum() {
    assert_rejected("4 bytes", &[4, 0, 0, 0]);
    assert_rejected("len 5, 4 bytes", &[5, 0, 0, 0]);
}

#[test]
fn negative_root_length() {
    let mut b = enc(r#"{"a":1}"#);
    b[0..4].copy_from_slice(&(-1i32).to_le_bytes());
    assert_rejected("negative len", &b);
}

#[test]
fn root_length_mismatch() {
    let mut b = enc(r#"{"a":1}"#);
    let lied = i32::try_from(b.len()).unwrap() + 1;
    b[0..4].copy_from_slice(&lied.to_le_bytes());
    assert_kind("len+1", &b, ErrorKind::Corrupt);
}

#[test]
fn missing_final_terminator() {
    let mut b = enc(r#"{"a":1}"#);
    let last = b.len() - 1;
    b[last] = 1;
    assert_rejected("no terminator", &b);
}

#[test]
fn truncated_everywhere() {
    let b = enc(r#"{"a":[1,"two",3.5],"b":{"c":null,"d":true},"e":9999999999}"#);
    for cut in 0..b.len() {
        assert_rejected("prefix", &b[..cut]);
    }
}

#[test]
fn trailing_garbage() {
    let mut b = enc(r#"{"a":1}"#);
    b.push(0);
    assert_rejected("trailing byte", &b);
}

// --- elements ------------------------------------------------------------

#[test]
fn unknown_type_tag() {
    let mut b = enc(r#"{"a":1}"#);
    b[4] = 0x7F;
    assert_kind("tag 0x7F", &b, ErrorKind::UnsupportedTag);
}

#[test]
fn deprecated_tag_is_unsupported() {
    let mut b = enc(r#"{"a":1}"#);
    b[4] = 0x0E; // symbol (deprecated in the spec, outside the subset)
    assert_kind("tag 0x0E", &b, ErrorKind::UnsupportedTag);
}

#[test]
fn element_name_missing_nul() {
    // {"a":1}: the name's NUL at offset 6 becomes printable, so the
    // cstring scan runs into the value bytes and framing falls apart
    let mut b = enc(r#"{"a":1}"#);
    assert_eq!(b[6], 0);
    b[6] = b'x';
    assert_rejected("name nul", &b);
}

#[test]
fn element_name_not_utf8() {
    let mut b = enc(r#"{"a":1}"#);
    assert_eq!(b[5], b'a');
    b[5] = 0xFF;
    assert_kind("name utf8", &b, ErrorKind::Corrupt);
}

#[test]
fn premature_terminator_tag() {
    // {"a":1,"b":2}: the second element's tag byte becomes 0x00 — the
    // terminator value is not a legal element tag mid-list
    let b0 = enc(r#"{"a":1}"#);
    let mut b = enc(r#"{"a":1,"b":2}"#);
    let second_tag = b0.len() - 1; // right after the first element
    assert_eq!(b[second_tag], 0x10);
    b[second_tag] = 0x00;
    assert_kind("early terminator", &b, ErrorKind::UnsupportedTag);
}

#[test]
fn bool_byte_out_of_domain() {
    let mut b = enc(r#"{"b":true}"#);
    let last_val = b.len() - 2; // value byte sits before the terminator
    assert_eq!(b[last_val], 1);
    b[last_val] = 2;
    assert_kind("bool 2", &b, ErrorKind::Corrupt);
}

// --- strings -------------------------------------------------------------

#[test]
fn string_length_zero() {
    // a BSON string length counts its NUL, so 0 is always invalid
    let mut b = enc(r#"{"s":"x"}"#);
    b[7..11].copy_from_slice(&0i32.to_le_bytes());
    assert_rejected("sl 0", &b);
}

#[test]
fn string_length_negative() {
    let mut b = enc(r#"{"s":"x"}"#);
    b[7..11].copy_from_slice(&(-2i32).to_le_bytes());
    assert_rejected("sl negative", &b);
}

#[test]
fn string_length_escapes_document() {
    let mut b = enc(r#"{"s":"x"}"#);
    b[7..11].copy_from_slice(&1000i32.to_le_bytes());
    assert_kind("sl escape", &b, ErrorKind::Truncated);
}

#[test]
fn string_missing_nul() {
    let mut b = enc(r#"{"s":"x"}"#);
    let nul = b.len() - 2;
    assert_eq!(b[nul], 0);
    b[nul] = b'y';
    assert_kind("string nul", &b, ErrorKind::Corrupt);
}

#[test]
fn string_body_not_utf8() {
    let mut b = enc(r#"{"s":"xy"}"#);
    b[11] = 0xFF;
    assert_kind("string utf8", &b, ErrorKind::Corrupt);
}

// --- containers ----------------------------------------------------------

#[test]
fn nested_document_length_escapes_parent() {
    let mut b = enc(r#"{"o":{"a":1}}"#);
    // inner document length starts after tag(1) + "o\0"(2) + outer len(4)
    let inner = 7;
    let lied = i32::from_le_bytes([b[inner], b[inner + 1], b[inner + 2], b[inner + 3]]) + 8;
    b[inner..inner + 4].copy_from_slice(&lied.to_le_bytes());
    assert_rejected("inner escape", &b);
}

#[test]
fn nested_document_length_shrunk() {
    let mut b = enc(r#"{"o":{"a":1}}"#);
    let inner = 7;
    b[inner..inner + 4].copy_from_slice(&5i32.to_le_bytes());
    assert_rejected("inner shrunk", &b);
}

#[test]
fn array_keys_must_be_canonical() {
    let mut b = enc(r#"{"a":[true,false]}"#);
    // element names inside the array are "0" and "1"; break the second
    let pos = b.iter().position(|&c| c == b'1').expect("key 1 present");
    b[pos] = b'7';
    assert_kind("array key", &b, ErrorKind::Corrupt);
}

#[test]
fn array_keys_must_be_in_order() {
    let mut b = enc(r#"{"a":[true,false]}"#);
    let p0 = b.iter().position(|&c| c == b'0').expect("key 0 present");
    b[p0] = b'1'; // keys become "1", "1"
    assert_kind("array order", &b, ErrorKind::Corrupt);
}

// --- decimal128 ------------------------------------------------------------

/// `{"a":12345678901234567891}`: a decimal128 (tag 0x13) whose 16 value
/// bytes sit at offsets 7..23.
fn decimal_doc() -> Vec<u8> {
    let b = enc(r#"{"a":12345678901234567891}"#);
    assert_eq!(b[4], 0x13, "a number past i64 and f64 is a decimal128");
    assert_eq!(b.len(), 24);
    b
}

fn set_value(b: &mut [u8], bits: u128) {
    b[7..23].copy_from_slice(&bits.to_le_bytes());
}

#[test]
fn decimal128_truncated_anywhere() {
    let b = decimal_doc();
    assert!(decode(&b).is_ok(), "the control decodes");
    for cut in 0..b.len() {
        assert_rejected("decimal prefix", &b[..cut]);
    }
    // a length word that ends the document inside the value
    let mut short = b[..15].to_vec();
    short[0..4].copy_from_slice(&16i32.to_le_bytes());
    short.push(0);
    assert_rejected("decimal inside a 16-byte document", &short);
}

#[test]
fn decimal128_that_is_no_json_number() {
    let infinity = 0x78u128 << 120;
    let nan = 0x7cu128 << 120;
    let mut b = decimal_doc();
    for (name, bits) in [
        ("infinity", infinity),
        ("NaN", nan),
        ("coefficient of 10^34", 6176u128 << 113 | 10u128.pow(34)),
        ("beyond a double", 0x2fffu128 << 113 | 1),
    ] {
        set_value(&mut b, bits);
        assert_kind(name, &b, ErrorKind::Corrupt);
    }
}

#[test]
fn decimal128_bitflips_never_panic() {
    // every single-bit flip of the value either reads as some number or
    // is refused; the sign bit and a low coefficient bit read back
    let b = decimal_doc();
    for bit in 0..128 {
        let mut flipped = b.clone();
        flipped[7 + bit / 8] ^= 1 << (bit % 8);
        let _ = decode(&flipped);
    }
    let mut negative = b.clone();
    negative[22] ^= 0x80;
    let v = decode(&negative).expect("the sign bit flips the sign");
    assert_eq!(fsdm_json::to_string(&v), r#"{"a":-12345678901234567891}"#);
}

// --- hand-built ----------------------------------------------------------

/// An array element wrapping `child`, keyed "0", as a full document.
fn wrap_in_array_doc(child: &[u8]) -> Vec<u8> {
    let total = 4 + 1 + 2 + child.len() + 1;
    let mut b = Vec::with_capacity(total);
    b.extend_from_slice(&i32::try_from(total).unwrap().to_le_bytes());
    b.push(0x04); // array
    b.extend_from_slice(b"0\0");
    b.extend_from_slice(child);
    b.push(0);
    b
}

#[test]
fn hand_built_control_decodes() {
    // positive control: {} and {"0":[]} assembled from the spec
    assert_eq!(decode(&[5, 0, 0, 0, 0]).expect("{} decodes"), parse("{}").unwrap());
    let one = wrap_in_array_doc(&[5, 0, 0, 0, 0]);
    assert_eq!(decode(&one).expect("nested decodes"), parse(r#"{"0":[]}"#).unwrap());
}

#[test]
fn nesting_beyond_max_depth() {
    // 600 nested arrays — deeper than the shared MAX_DEPTH (512), which
    // the encoder can never produce; only a hostile buffer looks like
    // this, and it must be rejected without exhausting the call stack
    let mut doc: Vec<u8> = vec![5, 0, 0, 0, 0];
    for _ in 0..600 {
        doc = wrap_in_array_doc(&doc);
    }
    assert_kind("depth", &doc, ErrorKind::Limit);
}
