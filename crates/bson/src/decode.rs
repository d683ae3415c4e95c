//! BSON reader: full decode to [`JsonValue`] plus a zero-copy [`BsonDoc`]
//! that implements [`JsonDom`] with BSON's native *sequential* access
//! semantics (skip navigation only — the contrast the paper draws against
//! OSON's jump navigation, §4.1).
//!
//! # Safety discipline
//!
//! Mirrors `fsdm-oson`: the [`JsonDom`] accessors are total — every read
//! is bounds-checked and a read that falls outside the buffer yields a
//! neutral value instead of panicking — while [`BsonDoc::validate`] is
//! the deep verifier that untrusted buffers must pass (and [`decode`]
//! runs unconditionally) before the bytes are treated as meaningful.

// hot-path decode of untrusted bytes: corrupted input returns `Err`, never
// a panic, and offset arithmetic never truncates silently (DESIGN.md §8);
// `forbid`, so no waiver is possible
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::as_conversions
    )
)]

use fsdm_json::{JsonDom, JsonNumber, JsonValue, NodeKind, NodeRef, Object, ScalarRef};

use crate::decimal128::{BIAS, COEFFICIENT_LIMIT, EXPONENT_SHIFT};
use crate::{tag, BsonError, ErrorKind, Result};

/// Maximum container nesting accepted by the structural verifier;
/// matches the JSON parser's bound.
pub const MAX_DEPTH: usize = fsdm_json::parse::MAX_DEPTH;

/// Fully decode a BSON document into the JSON value model.
///
/// This is the **untrusted-input** entry point: the buffer is run through
/// the deep structural verifier ([`BsonDoc::validate`]) first, so
/// corrupted or truncated input returns `Err` — it can never panic.
pub fn decode(bytes: &[u8]) -> Result<JsonValue> {
    let doc = BsonDoc::new(bytes)?;
    doc.validate()?;
    Ok(doc.materialize(doc.root()))
}

/// A read-only view over serialized BSON bytes.
///
/// `NodeRef` packing: `(value_offset << 8) | type_tag`. The root is the
/// whole document (`offset 0`, tag DOCUMENT).
pub struct BsonDoc<'a> {
    bytes: &'a [u8],
}

fn pack(offset: usize, t: u8) -> NodeRef {
    (u64::try_from(offset).unwrap_or(u64::MAX) << 8) | u64::from(t)
}

fn unpack(r: NodeRef) -> (usize, u8) {
    let off = usize::try_from(r >> 8).unwrap_or(usize::MAX);
    let t = u8::try_from(r & 0xFF).unwrap_or(0);
    (off, t)
}

impl<'a> BsonDoc<'a> {
    /// Wrap a BSON document, checking the outer framing only (length word
    /// matches the buffer, final terminator byte present). Use
    /// [`BsonDoc::validate`] for the deep structural check.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < 5 {
            return Err(BsonError::truncated("document too short"));
        }
        let len = i32::from_le_bytes([
            *bytes.first().unwrap_or(&0),
            *bytes.get(1).unwrap_or(&0),
            *bytes.get(2).unwrap_or(&0),
            *bytes.get(3).unwrap_or(&0),
        ]);
        if usize::try_from(len).ok() != Some(bytes.len()) {
            return Err(BsonError::corrupt(format!(
                "length header {} != buffer size {}",
                len,
                bytes.len()
            )));
        }
        if bytes.last().copied() != Some(0) {
            return Err(BsonError::corrupt("missing document terminator"));
        }
        Ok(BsonDoc { bytes })
    }

    /// Underlying bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    fn read_u8(&self, off: usize) -> Option<u8> {
        self.bytes.get(off).copied()
    }

    fn read_i32(&self, off: usize) -> Option<i32> {
        let b = self.bytes.get(off..off.checked_add(4)?)?;
        Some(i32::from_le_bytes(b.try_into().ok()?))
    }

    fn read_i64(&self, off: usize) -> Option<i64> {
        let b = self.bytes.get(off..off.checked_add(8)?)?;
        Some(i64::from_le_bytes(b.try_into().ok()?))
    }

    fn read_f64(&self, off: usize) -> Option<f64> {
        let b = self.bytes.get(off..off.checked_add(8)?)?;
        Some(f64::from_le_bytes(b.try_into().ok()?))
    }

    fn read_u128(&self, off: usize) -> Option<u128> {
        let b = self.bytes.get(off..off.checked_add(16)?)?;
        Some(u128::from_le_bytes(b.try_into().ok()?))
    }

    /// Size in bytes of the value of type `t` starting at `off` — this is
    /// the "skip" operation BSON's leading length words enable. `None`
    /// for unknown tags or lengths that do not fit the buffer.
    fn value_size(&self, t: u8, off: usize) -> Option<usize> {
        match t {
            tag::DOUBLE | tag::INT64 => Some(8),
            tag::DECIMAL128 => Some(16),
            tag::STRING => usize::try_from(self.read_i32(off)?).ok()?.checked_add(4),
            tag::DOCUMENT | tag::ARRAY => usize::try_from(self.read_i32(off)?).ok(),
            tag::BOOL => Some(1),
            tag::NULL => Some(0),
            tag::INT32 => Some(4),
            _ => None,
        }
    }

    /// Iterate elements of the document/array whose *value* begins at
    /// `doc_off`. Yields (name, type, value_offset). On damaged framing
    /// the iterator simply ends early — [`BsonDoc::validate`] is the
    /// place where damage becomes an `Err`.
    fn elements(&self, doc_off: usize) -> ElementIter<'a, '_> {
        let len = self.read_i32(doc_off).and_then(|l| usize::try_from(l).ok()).unwrap_or(0);
        let end =
            doc_off.checked_add(len.saturating_sub(1)).unwrap_or(doc_off).min(self.bytes.len());
        ElementIter { doc: self, pos: doc_off.saturating_add(4), end }
    }

    /// Deep structural verifier.
    ///
    /// Walks the whole element tree and checks, beyond the outer framing
    /// of [`BsonDoc::new`]: every length word is non-negative and lies
    /// inside its parent, element names are NUL-terminated UTF-8, array
    /// keys are the canonical decimal indices `"0", "1", …`, strings
    /// carry their promised NUL and valid UTF-8, booleans are `0`/`1`,
    /// every type tag belongs to the supported JSON subset, each
    /// document's element list ends exactly at its terminator, and
    /// nesting stays within [`MAX_DEPTH`]. Runs in O(buffer size).
    pub fn validate(&self) -> Result<()> {
        let total = self.validate_doc(0, 0, false)?;
        if total != self.bytes.len() {
            return Err(BsonError::corrupt("root document does not fill the buffer"));
        }
        Ok(())
    }

    /// Validate the document/array whose length word starts at `off`;
    /// returns its total size in bytes.
    fn validate_doc(&self, off: usize, depth: usize, is_array: bool) -> Result<usize> {
        if depth > MAX_DEPTH {
            return Err(BsonError::limit(format!("nesting exceeds MAX_DEPTH ({MAX_DEPTH})")));
        }
        let len_raw =
            self.read_i32(off).ok_or_else(|| BsonError::truncated("document length word"))?;
        let len = usize::try_from(len_raw)
            .map_err(|_| BsonError::corrupt(format!("negative document length {len_raw}")))?;
        if len < 5 {
            return Err(BsonError::corrupt(format!("document length {len} < 5")));
        }
        let total_end =
            off.checked_add(len).ok_or_else(|| BsonError::corrupt("document length overflows"))?;
        if total_end > self.bytes.len() {
            return Err(BsonError::truncated(format!(
                "document at {off} promises {len} bytes past the buffer"
            )));
        }
        if self.read_u8(total_end - 1) != Some(0) {
            return Err(BsonError::corrupt(format!(
                "document at {off} missing its terminator byte"
            )));
        }
        let end = total_end - 1;
        let mut pos = off + 4;
        let mut index: u64 = 0;
        while pos < end {
            let t = self.read_u8(pos).ok_or_else(|| BsonError::truncated("element tag"))?;
            let name_start = pos + 1;
            let hay = self
                .bytes
                .get(name_start..end)
                .ok_or_else(|| BsonError::truncated("element name"))?;
            let rel = hay
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| BsonError::corrupt("unterminated element name"))?;
            let name = std::str::from_utf8(hay.get(..rel).unwrap_or(&[]))
                .map_err(|_| BsonError::corrupt("element name is not UTF-8"))?;
            if is_array && name != index.to_string() {
                return Err(BsonError::corrupt(format!(
                    "array key {name:?} is not the canonical index {index}"
                )));
            }
            index += 1;
            let val_off = name_start + rel + 1;
            let size = match t {
                tag::DOUBLE | tag::INT64 => 8,
                tag::INT32 => 4,
                tag::NULL => 0,
                tag::DECIMAL128 => {
                    let bits = self
                        .read_u128(val_off)
                        .ok_or_else(|| BsonError::truncated("decimal128 value"))?;
                    decimal128_number(bits)?;
                    16
                }
                tag::BOOL => {
                    let b = self
                        .read_u8(val_off)
                        .ok_or_else(|| BsonError::truncated("boolean value"))?;
                    if b > 1 {
                        return Err(BsonError::corrupt(format!(
                            "non-canonical boolean byte {b:#04x}"
                        )));
                    }
                    1
                }
                tag::STRING => {
                    let sl_raw = self
                        .read_i32(val_off)
                        .ok_or_else(|| BsonError::truncated("string length"))?;
                    let sl = usize::try_from(sl_raw).map_err(|_| {
                        BsonError::corrupt(format!("negative string length {sl_raw}"))
                    })?;
                    if sl < 1 {
                        return Err(BsonError::corrupt("string length < 1 (no room for NUL)"));
                    }
                    let body_end = val_off
                        .checked_add(4)
                        .and_then(|p| p.checked_add(sl))
                        .ok_or_else(|| BsonError::corrupt("string length overflows"))?;
                    if body_end > end {
                        return Err(BsonError::truncated("string body escapes its document"));
                    }
                    if self.read_u8(body_end - 1) != Some(0) {
                        return Err(BsonError::corrupt("string missing its NUL terminator"));
                    }
                    let body = self.bytes.get(val_off + 4..body_end - 1).unwrap_or(&[]);
                    if std::str::from_utf8(body).is_err() {
                        return Err(BsonError::corrupt("string body is not UTF-8"));
                    }
                    4 + sl
                }
                tag::DOCUMENT | tag::ARRAY => {
                    let inner = self.validate_doc(val_off, depth + 1, t == tag::ARRAY)?;
                    let inner_end = val_off
                        .checked_add(inner)
                        .ok_or_else(|| BsonError::corrupt("nested document overflows"))?;
                    if inner_end > end {
                        return Err(BsonError::truncated("nested document escapes its parent"));
                    }
                    inner
                }
                other => {
                    return Err(BsonError::with_kind(
                        ErrorKind::UnsupportedTag,
                        format!("unsupported BSON tag {other:#04x}"),
                    ));
                }
            };
            pos = val_off
                .checked_add(size)
                .ok_or_else(|| BsonError::corrupt("element size overflows"))?;
            if pos > end {
                return Err(BsonError::truncated("element value escapes its document"));
            }
        }
        if pos != end {
            return Err(BsonError::corrupt(
                "element list does not end exactly at the document terminator",
            ));
        }
        Ok(len)
    }
}

/// The number a decimal128 (see [`crate::decimal128`]) holds, read as
/// the JSON literal `{coefficient}e{exponent}` reads: exactly, as
/// [`JsonNumber::Dec`], unless it is an `i64`.
fn decimal128_number(bits: u128) -> Result<JsonNumber> {
    if (bits >> 125) & 0b11 == 0b11 {
        return Err(BsonError::corrupt("decimal128 infinity, NaN or non-canonical coefficient"));
    }
    let coefficient = bits & ((1u128 << EXPONENT_SHIFT) - 1);
    if coefficient >= COEFFICIENT_LIMIT {
        return Err(BsonError::corrupt("decimal128 coefficient beyond 34 digits"));
    }
    let biased = i32::try_from((bits >> EXPONENT_SHIFT) & 0x3fff)
        .map_err(|_| BsonError::corrupt("decimal128 exponent"))?;
    let exponent = biased - BIAS;
    let sign = if bits >> 127 == 1 { "-" } else { "" };
    let text = format!("{sign}{coefficient}e{exponent}");
    JsonNumber::from_literal(&text)
        .map_err(|e| BsonError::corrupt(format!("decimal128 {text} is not a JSON number: {e}")))
}

struct ElementIter<'a, 'd> {
    doc: &'d BsonDoc<'a>,
    pos: usize,
    end: usize,
}

impl<'a> Iterator for ElementIter<'a, '_> {
    type Item = (&'a str, u8, usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.end {
            return None;
        }
        let t = self.doc.read_u8(self.pos)?;
        // scan for the NUL terminating the name: the byte scan the paper
        // calls out as a BSON access cost
        let name_start = self.pos.checked_add(1)?;
        let hay = self.doc.bytes.get(name_start..self.end)?;
        let rel = hay.iter().position(|&b| b == 0)?;
        let name = std::str::from_utf8(hay.get(..rel)?).unwrap_or("");
        let val_off = name_start.checked_add(rel)?.checked_add(1)?;
        let size = self.doc.value_size(t, val_off)?;
        self.pos = val_off.checked_add(size)?;
        Some((name, t, val_off))
    }
}

impl JsonDom for BsonDoc<'_> {
    fn root(&self) -> NodeRef {
        pack(0, tag::DOCUMENT)
    }

    fn kind(&self, node: NodeRef) -> NodeKind {
        match unpack(node).1 {
            tag::DOCUMENT => NodeKind::Object,
            tag::ARRAY => NodeKind::Array,
            _ => NodeKind::Scalar,
        }
    }

    fn object_len(&self, node: NodeRef) -> usize {
        let (off, _) = unpack(node);
        self.elements(off).count()
    }

    fn object_entry(&self, node: NodeRef, i: usize) -> (&str, NodeRef) {
        let (off, _) = unpack(node);
        match self.elements(off).nth(i) {
            Some((name, t, voff)) => (name, pack(voff, t)),
            None => {
                debug_assert!(false, "object_entry index out of range");
                ("", pack(0, tag::NULL))
            }
        }
    }

    fn array_len(&self, node: NodeRef) -> usize {
        let (off, _) = unpack(node);
        self.elements(off).count()
    }

    fn array_element(&self, node: NodeRef, i: usize) -> NodeRef {
        let (off, _) = unpack(node);
        match self.elements(off).nth(i) {
            Some((_, t, voff)) => pack(voff, t),
            None => {
                debug_assert!(false, "array_element index out of range");
                pack(0, tag::NULL)
            }
        }
    }

    fn scalar(&self, node: NodeRef) -> ScalarRef<'_> {
        let (off, t) = unpack(node);
        match t {
            tag::DOUBLE => ScalarRef::Num(JsonNumber::from(self.read_f64(off).unwrap_or(0.0))),
            tag::STRING => {
                let s = self
                    .read_i32(off)
                    .and_then(|l| usize::try_from(l).ok())
                    .filter(|&l| l >= 1)
                    .and_then(|l| {
                        let start = off.checked_add(4)?;
                        self.bytes.get(start..start.checked_add(l)?.checked_sub(1)?)
                    })
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .unwrap_or("");
                ScalarRef::Str(s)
            }
            tag::BOOL => ScalarRef::Bool(self.read_u8(off).unwrap_or(0) != 0),
            tag::NULL => ScalarRef::Null,
            tag::INT32 => {
                ScalarRef::Num(JsonNumber::Int(i64::from(self.read_i32(off).unwrap_or(0))))
            }
            tag::INT64 => ScalarRef::Num(JsonNumber::Int(self.read_i64(off).unwrap_or(0))),
            tag::DECIMAL128 => ScalarRef::Num(
                self.read_u128(off)
                    .and_then(|bits| decimal128_number(bits).ok())
                    .unwrap_or(JsonNumber::Int(0)),
            ),
            _ => {
                debug_assert!(
                    t != tag::DOCUMENT && t != tag::ARRAY,
                    "scalar() on container tag {t:#04x}"
                );
                ScalarRef::Null
            }
        }
    }

    /// Field lookup is a *sequential scan with value skipping* — BSON has
    /// no sorted directory to binary-search.
    fn get_field(&self, node: NodeRef, name: &str, _hash: u32) -> Option<NodeRef> {
        let (off, t) = unpack(node);
        if t != tag::DOCUMENT {
            return None;
        }
        self.elements(off).find(|(n, _, _)| *n == name).map(|(_, t, voff)| pack(voff, t))
    }
}

/// Decode helper used by tests: materialize with object semantics.
pub fn to_object(bytes: &[u8]) -> Result<Object> {
    match decode(bytes)? {
        JsonValue::Object(o) => Ok(o),
        _ => Err(BsonError::new("not an object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use fsdm_json::{field_hash, parse};

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn roundtrip(text: &str) -> std::result::Result<JsonValue, Box<dyn std::error::Error>> {
        Ok(decode(&encode(&parse(text)?)?)?)
    }

    #[test]
    fn roundtrips_document() -> TestResult {
        let doc = r#"{"id":1,"name":"phone","price":350.86,"ok":true,"n":null,
                      "tags":["a","b"],"nested":{"x":[1,2,3]}}"#;
        let v = parse(doc)?;
        assert_eq!(roundtrip(doc)?, v);
        Ok(())
    }

    #[test]
    fn roundtrips_int64() -> TestResult {
        let v = roundtrip(r#"{"big":5000000000}"#)?;
        assert_eq!(v.get("big").and_then(|b| b.as_i64()), Some(5_000_000_000));
        Ok(())
    }

    #[test]
    fn numbers_read_back_exactly() -> TestResult {
        // a double where it reads back as the number, a decimal128 where
        // it would not: either way the number written is the one read
        for text in ["0.1", "-350.86", "12345678901234567891", "0.12345678901234567891", "-1e-100"]
        {
            let v = roundtrip(&format!(r#"{{"d":{text}}}"#))?;
            let want = parse(text)?;
            let got = v.get("d").map(fsdm_json::to_string);
            assert_eq!(got, Some(fsdm_json::to_string(&want)), "{text}");
        }
        let big = roundtrip(r#"{"d":12345678901234567891}"#)?;
        assert!(matches!(big.get("d"), Some(JsonValue::Number(JsonNumber::Dec(_)))), "{big}");
        Ok(())
    }

    #[test]
    fn dom_navigation() -> TestResult {
        let v = parse(r#"{"a":{"b":[10,"x"]},"c":false}"#)?;
        let bytes = encode(&v)?;
        let doc = BsonDoc::new(&bytes)?;
        let root = doc.root();
        assert_eq!(doc.kind(root), NodeKind::Object);
        assert_eq!(doc.object_len(root), 2);
        let a = doc.get_field(root, "a", field_hash("a")).ok_or("field a missing")?;
        let b = doc.get_field(a, "b", field_hash("b")).ok_or("field b missing")?;
        assert_eq!(doc.kind(b), NodeKind::Array);
        assert_eq!(doc.array_len(b), 2);
        assert_eq!(doc.scalar(doc.array_element(b, 0)), ScalarRef::Num(JsonNumber::Int(10)));
        assert_eq!(doc.scalar(doc.array_element(b, 1)), ScalarRef::Str("x"));
        let (name, c) = doc.object_entry(root, 1);
        assert_eq!(name, "c");
        assert_eq!(doc.scalar(c), ScalarRef::Bool(false));
        assert!(doc.get_field(root, "zzz", 0).is_none());
        Ok(())
    }

    #[test]
    fn validates_framing() -> TestResult {
        assert!(BsonDoc::new(b"").is_err());
        assert!(BsonDoc::new(b"\x06\x00\x00\x00\x00").is_err()); // bad length
        let good = encode(&parse("{}")?)?;
        let mut bad = good.clone();
        if let Some(last) = bad.last_mut() {
            *last = 1; // clobber terminator
        }
        assert!(BsonDoc::new(&bad).is_err());
        Ok(())
    }

    #[test]
    fn validate_accepts_encoder_output() -> TestResult {
        let texts = [
            "{}",
            r#"{"a":1}"#,
            r#"{"a":{"b":[10,"x",null,true]},"c":false,"big":5000000000,"d":1.5}"#,
            r#"{"x":[[],[[]]]}"#,
        ];
        for t in texts {
            let bytes = encode(&parse(t)?)?;
            BsonDoc::new(&bytes)?.validate()?;
        }
        Ok(())
    }

    #[test]
    fn error_kinds_distinguish_failures() -> TestResult {
        assert_eq!(BsonDoc::new(b"").err().map(|e| e.kind), Some(crate::ErrorKind::Truncated));
        let good = encode(&parse(r#"{"a":1}"#)?)?;
        let mut bad = good.clone();
        if let Some(t) = bad.get_mut(4) {
            *t = 0x7F; // unknown element tag
        }
        let doc = BsonDoc::new(&bad)?;
        assert_eq!(doc.validate().err().map(|e| e.kind), Some(crate::ErrorKind::UnsupportedTag));
        Ok(())
    }

    #[test]
    fn empty_object_roundtrip() -> TestResult {
        assert_eq!(roundtrip("{}")?, parse("{}")?);
        Ok(())
    }

    #[test]
    fn unicode_strings() -> TestResult {
        let v = roundtrip(r#"{"s":"héllo 😀"}"#)?;
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("héllo 😀"));
        Ok(())
    }
}
