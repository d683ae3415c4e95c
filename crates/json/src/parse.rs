//! Recursive-descent DOM parser for JSON text (RFC 8259).
//!
//! This is the "costly text parse" path of the paper's TEXT mode (§5.1):
//! evaluating SQL/JSON over textual storage pays this parse per document
//! per query, which is exactly the overhead OSON eliminates.

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

use crate::error::{JsonError, Result};
use crate::number::{JsonNumber, OUT_OF_RANGE};
use crate::value::{JsonValue, Object};

/// Maximum nesting depth accepted (guards against stack exhaustion on
/// adversarial inputs).
pub const MAX_DEPTH: usize = 512;

/// Parse a complete JSON document from a string slice.
pub fn parse(text: &str) -> Result<JsonValue> {
    finish(Parser::from_text(text))
}

/// Parse a complete JSON document from UTF-8 bytes.
pub fn parse_bytes(bytes: &[u8]) -> Result<JsonValue> {
    finish(Parser::new(bytes))
}

fn finish(mut p: Parser<'_>) -> Result<JsonValue> {
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(JsonError::at("trailing characters after document", p.pos));
    }
    Ok(v)
}

/// Low-level parser state; exposed so the event parser can share scanning
/// primitives.
pub struct Parser<'a> {
    pub(crate) input: &'a [u8],
    /// `input` as the `str` it is known to be, if it is: string tokens
    /// then need no UTF-8 check of their own.
    text: Option<&'a str>,
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    /// New parser over raw input bytes.
    pub fn new(input: &'a [u8]) -> Self {
        Parser { input, text: None, pos: 0 }
    }

    /// New parser over a text.
    pub fn from_text(text: &'a str) -> Self {
        Parser { input: text.as_bytes(), text: Some(text), pos: 0 }
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(&c) = self.input.get(self.pos) {
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn require(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected {:?}", c as char), self.pos))
        }
    }

    /// Parse one JSON value at the current position.
    pub fn parse_value(&mut self, depth: usize) -> Result<JsonValue> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("maximum nesting depth exceeded", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => {
                self.keyword(b"true")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.keyword(b"false")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.keyword(b"null")?;
                Ok(JsonValue::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Ok(JsonValue::Number(self.parse_number()?))
            }
            Some(c) => Err(unexpected(c, self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    /// Consume one JSON value at nesting `depth` without building it,
    /// checking everything [`Parser::parse_value`] checks (the depth
    /// limit included). `stack` is the caller's reusable depth stack
    /// (`true` for an object): skipping allocates nothing once it has
    /// grown to the deepest subtree seen.
    pub(crate) fn skip_value(&mut self, depth: usize, stack: &mut Vec<bool>) -> Result<()> {
        stack.clear();
        self.skip(depth, stack, false)
    }

    /// Consume the rest of an open container at nesting `depth`, through
    /// its closing bracket, the cursor just past one of its values;
    /// checked as [`Parser::skip_value`] checks.
    pub(crate) fn skip_rest(
        &mut self,
        depth: usize,
        object: bool,
        stack: &mut Vec<bool>,
    ) -> Result<()> {
        stack.clear();
        stack.push(object);
        self.skip(depth, stack, true)
    }

    /// The skipping loop: values and the containers on `stack` (the
    /// outermost at `depth`), starting at a value, or just past one.
    fn skip(&mut self, depth: usize, stack: &mut Vec<bool>, mut ended: bool) -> Result<()> {
        loop {
            if std::mem::take(&mut ended) {
                // a value ended here: close containers until one continues
                loop {
                    let Some(&object) = stack.last() else { return Ok(()) };
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            if object {
                                self.skip_ws();
                                self.skip_member_key()?;
                            }
                            break;
                        }
                        Some(b'}') if object => {
                            self.pos += 1;
                            stack.pop();
                        }
                        Some(b']') if !object => {
                            self.pos += 1;
                            stack.pop();
                        }
                        _ => {
                            let what =
                                if object { "expected ',' or '}'" } else { "expected ',' or ']'" };
                            return Err(JsonError::at(what, self.pos));
                        }
                    }
                }
            }
            // a value starts here
            if depth + stack.len() > MAX_DEPTH {
                return Err(JsonError::at("maximum nesting depth exceeded", self.pos));
            }
            self.skip_ws();
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    self.pos += 1;
                    self.skip_ws();
                    let object = open == b'{';
                    let close = if object { b'}' } else { b']' };
                    if self.peek() == Some(close) {
                        self.pos += 1;
                    } else {
                        stack.push(object);
                        if object {
                            self.skip_member_key()?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.scan_string()?;
                }
                Some(b't') => self.keyword(b"true")?,
                Some(b'f') => self.keyword(b"false")?,
                Some(b'n') => self.keyword(b"null")?,
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    self.scan_number()?;
                }
                Some(c) => return Err(unexpected(c, self.pos)),
                None => return Err(JsonError::at("unexpected end of input", self.pos)),
            }
            ended = true;
        }
    }

    /// A member's key and its `:` (the value is the caller's).
    fn skip_member_key(&mut self) -> Result<()> {
        self.scan_string()?;
        self.skip_ws();
        self.require(b':')
    }

    fn keyword(&mut self, kw: &[u8]) -> Result<()> {
        if self.input.get(self.pos..).is_some_and(|rest| rest.starts_with(kw)) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError::at("invalid literal", self.pos))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue> {
        self.require(b'{')?;
        let mut obj = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(obj));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.require(b':')?;
            let val = self.parse_value(depth + 1)?;
            obj.push(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(obj));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue> {
        self.require(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(arr));
        }
        loop {
            let val = self.parse_value(depth + 1)?;
            arr.push(val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(arr));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    /// Parse a quoted string at the current position.
    pub(crate) fn parse_string(&mut self) -> Result<String> {
        let (raw, escaped) = self.scan_string()?;
        if escaped {
            unescape(raw)
        } else {
            Ok(raw.to_string())
        }
    }

    /// Scan a quoted string at the current position without decoding it:
    /// its raw text between the quotes, and whether that holds an escape.
    /// Checks everything decoding would — control characters, escapes,
    /// surrogate pairs, UTF-8 — so [`unescape`] of the result cannot fail.
    pub(crate) fn scan_string(&mut self) -> Result<(&'a str, bool)> {
        self.require(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            // to the next byte that is not plain string content
            let rest = self.input.get(self.pos..).unwrap_or_default();
            self.pos += special_byte(rest).unwrap_or(rest.len());
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    self.escape()?;
                }
                Some(_) => return Err(JsonError::at("unescaped control character", self.pos)),
            }
        }
        let raw = self.str_at(start, "invalid UTF-8 in string")?;
        self.pos += 1;
        Ok((raw, escaped))
    }

    /// The input from `start` to the cursor as a `str`: sliced from the
    /// text when the input is one, else checked.
    fn str_at(&self, start: usize, what: &str) -> Result<&'a str> {
        let raw = match self.text {
            // both ends sit at ASCII delimiters, hence at char boundaries
            Some(text) => text.get(start..self.pos),
            None => self.input.get(start..self.pos).and_then(|b| std::str::from_utf8(b).ok()),
        };
        raw.ok_or_else(|| JsonError::at(what, start))
    }

    /// The character an escape stands for, the cursor just past its
    /// backslash.
    fn escape(&mut self) -> Result<char> {
        let esc = self.peek().ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // high surrogate: require a following \uXXXX low surrogate
                    if self.input.get(self.pos..self.pos + 2) != Some(b"\\u".as_slice()) {
                        return Err(JsonError::at("lone high surrogate", self.pos));
                    }
                    self.pos += 2;
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(JsonError::at("invalid low surrogate", self.pos));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(c)
                        .ok_or_else(|| JsonError::at("bad surrogate pair", self.pos))?
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(JsonError::at("lone low surrogate", self.pos));
                } else {
                    char::from_u32(cp).ok_or_else(|| JsonError::at("bad code point", self.pos))?
                }
            }
            _ => return Err(JsonError::at("invalid escape", self.pos - 1)),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let digits = self
            .input
            .get(self.pos..end)
            .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
        let mut v = 0u32;
        for &c in digits {
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err(JsonError::at("invalid hex digit", self.pos)),
            };
            v = v * 16 + d as u32;
        }
        self.pos = end;
        Ok(v)
    }

    /// Parse a numeric literal at the current position.
    pub(crate) fn parse_number(&mut self) -> Result<JsonNumber> {
        let start = self.pos;
        let lit = self.scan_number()?;
        JsonNumber::from_literal(lit).map_err(|e| JsonError::at(e.message, start))
    }

    /// Scan a numeric literal at the current position, checking its
    /// syntax and its range: the literal, which [`JsonNumber::from_literal`]
    /// converts without failing. A magnitude beyond the `f64` range has no
    /// JSON number to become, and is an error at the literal's offset.
    pub(crate) fn scan_number(&mut self) -> Result<&'a str> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // integer part
        let int_start = self.pos;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => self.skip_digits(),
            _ => return Err(JsonError::at("invalid number", self.pos)),
        }
        let int_digits = self.pos - int_start;
        let mut exponent = false;
        // fraction
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(JsonError::at("digit required after '.'", self.pos));
            }
            self.skip_digits();
        }
        // exponent
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(JsonError::at("digit required in exponent", self.pos));
            }
            self.skip_digits();
            exponent = true;
        }
        // ASCII by construction
        let lit = self.str_at(start, "invalid number")?;
        // below 10^308 without an exponent: inside the range by its length
        if (exponent || int_digits > 308) && !lit.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(JsonError::at(OUT_OF_RANGE, start));
        }
        Ok(lit)
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }
}

/// Offset of the first `"`, `\\` or control character in `bytes`, eight
/// bytes at a time: in a word, the lowest byte flagged by any of the
/// three zero/less-than tests is exact (a false flag only ever sits above
/// a true one, where a borrow carried it).
fn special_byte(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let zero = |v: u64| v.wrapping_sub(ONES) & !v;
    let mut chunks = bytes.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let x = u64::from_le_bytes(word);
        let quote = zero(x ^ (ONES * u64::from(b'"')));
        let backslash = zero(x ^ (ONES * u64::from(b'\\')));
        let control = x.wrapping_sub(ONES * 0x20) & !x;
        let found = (quote | backslash | control) & HIGHS;
        if found != 0 {
            return Some(offset + (found.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    let rest = chunks.remainder().iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
    rest.map(|i| offset + i)
}

/// Decode the raw text of a string [`Parser::scan_string`] accepted.
pub(crate) fn unescape(raw: &str) -> Result<String> {
    let mut p = Parser::new(raw.as_bytes());
    let mut out = String::with_capacity(raw.len());
    let mut run = 0;
    while let Some(c) = p.peek() {
        p.pos += 1;
        if c == b'\\' {
            // escapes are ASCII, so both ends of a run are char boundaries
            out.push_str(raw.get(run..p.pos - 1).unwrap_or_default());
            out.push(p.escape()?);
            run = p.pos;
        }
    }
    out.push_str(raw.get(run..).unwrap_or_default());
    Ok(out)
}

fn unexpected(c: u8, pos: usize) -> JsonError {
    JsonError::at(format!("unexpected character {:?}", c as char), pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse("-7.5").unwrap().as_f64(), Some(-7.5));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"purchaseOrder": {"id": 1, "podate": "2014-09-08",
            "items": [{"name":"phone","price":100,"quantity":2},
                      {"name":"ipad","price":350.86,"quantity":3}]}}"#;
        let v = parse(doc).unwrap();
        let po = v.get("purchaseOrder").unwrap();
        assert_eq!(po.get("id").unwrap().as_i64(), Some(1));
        let items = po.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("price").unwrap().as_f64(), Some(350.86));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""q\"q""#).unwrap().as_str(), Some("q\"q"));
        assert_eq!(parse(r#""\\\/""#).unwrap().as_str(), Some("\\/"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"a",
            "\"\\q\"",
            "{\"a\":1} extra",
            "[1 2]",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(Object::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse(" [ { } , [ ] ] ").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn depth_limit_enforced() {
        let mut s = String::new();
        for _ in 0..(MAX_DEPTH + 2) {
            s.push('[');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse(" {\n\t\"a\" :\r 1 } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn duplicate_keys_preserved() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert_eq!(v.get("k").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn special_bytes_are_found_word_at_a_time() {
        let naive = |b: &[u8]| b.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
        let mut cases: Vec<Vec<u8>> = vec![b"".to_vec(), b"plain text, no end".to_vec()];
        for special in [b'"', b'\\', 0x00, 0x1F] {
            for at in 0..20 {
                for fill in [b'a', 0xC3, 0x7F, 0x20, 0x80, 0xFF, 0x21] {
                    let mut v = vec![fill; 20];
                    v[at] = special;
                    cases.push(v.clone());
                    // a second special above the first
                    if at + 3 < 20 {
                        v[at + 3] = b'"';
                        cases.push(v);
                    }
                }
            }
        }
        for c in &cases {
            assert_eq!(special_byte(c), naive(c), "{c:?}");
        }
    }

    #[test]
    fn big_numbers() {
        assert!(matches!(
            parse("12345678901234567890123").unwrap(),
            JsonValue::Number(JsonNumber::Dec(_))
        ));
        assert!(matches!(parse("1e308").unwrap(), JsonValue::Number(JsonNumber::Dbl(_))));
    }
}
