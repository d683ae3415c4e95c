//! Streaming (SAX-style) event parser.
//!
//! §5.1 of the paper: "we developed a JSON path engine that operates in a
//! streaming fashion, using a series of events produced by the JSON text
//! parser". This module produces that event stream; the streaming path
//! engine in `fsdm-sqljson` consumes it to evaluate paths without
//! materializing a DOM.
//!
//! Events borrow from the text: a key or a string is its raw slice plus
//! an "escaped" flag ([`RawStr`]), a number its checked literal
//! ([`RawNum`]); each is validated as it is scanned and decoded only by
//! a consumer that keeps it. A consumer that needs nothing inside a
//! container calls [`EventParser::skip_value`] (or
//! [`EventParser::parse_value`] when it needs the whole of it) right after
//! the container's start event, and no event inside it is produced.

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

use std::borrow::Cow;

use crate::error::{JsonError, Result};
use crate::number::JsonNumber;
use crate::parse::{unescape, Parser, MAX_DEPTH};
use crate::value::JsonValue;

/// A string token: its raw text between the quotes, already checked
/// (control characters, escapes, surrogate pairs, UTF-8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The text between the quotes, escapes undecoded.
    pub fn raw(&self) -> &'a str {
        self.raw
    }

    /// True when the raw text holds an escape sequence.
    pub fn is_escaped(&self) -> bool {
        self.escaped
    }

    /// The decoded string: borrowed unless it holds an escape.
    pub fn decode(&self) -> Result<Cow<'a, str>> {
        if self.escaped {
            unescape(self.raw).map(Cow::Owned)
        } else {
            Ok(Cow::Borrowed(self.raw))
        }
    }

    /// True when the decoded string is `s`: a byte comparison unless the
    /// token holds an escape.
    pub fn is(&self, s: &str) -> bool {
        if self.escaped {
            self.decode().is_ok_and(|d| d == s)
        } else {
            self.raw == s
        }
    }
}

/// A number token: its literal, syntax already checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawNum<'a>(&'a str);

impl<'a> RawNum<'a> {
    /// The literal as written.
    pub fn literal(&self) -> &'a str {
        self.0
    }

    /// The number (a checked literal always converts).
    pub fn to_number(&self) -> Result<JsonNumber> {
        JsonNumber::from_literal(self.0)
    }
}

/// One parse event, borrowing from the text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// `{`
    StartObject,
    /// `}`
    EndObject,
    /// `[`
    StartArray,
    /// `]`
    EndArray,
    /// An object member key (always followed by the member's value events).
    Key(RawStr<'a>),
    /// String scalar.
    String(RawStr<'a>),
    /// Number scalar.
    Number(RawNum<'a>),
    /// Boolean scalar.
    Bool(bool),
    /// Null scalar.
    Null,
}

impl Event<'_> {
    /// True for the scalar-value events.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Event::String(_) | Event::Number(_) | Event::Bool(_) | Event::Null)
    }

    /// A scalar event as an owned value (`None` for the others).
    pub fn to_value(&self) -> Result<Option<JsonValue>> {
        Ok(Some(match self {
            Event::String(s) => JsonValue::String(s.decode()?.into_owned()),
            Event::Number(n) => JsonValue::Number(n.to_number()?),
            Event::Bool(b) => JsonValue::Bool(*b),
            Event::Null => JsonValue::Null,
            _ => return Ok(None),
        }))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    /// In an object; `true` once at least one member has been emitted.
    Object(bool),
    /// In an array; `true` once at least one element has been emitted.
    Array(bool),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    Value,    // a value is required next (document start, after ':' or ',')
    KeyOrEnd, // inside object: expecting key or '}'
    CommaOrEnd,
    Done,
}

/// The reusable buffers of an [`EventParser`] — its container stack and
/// [`EventParser::skip_value`]'s depth stack. Handed from one document's
/// parser to the next ([`EventParser::with_stacks`] /
/// [`EventParser::into_stacks`]), they make a steady-state scan
/// allocation-free.
#[derive(Debug, Default)]
pub struct Stacks {
    frames: Vec<Frame>,
    skip: Vec<bool>,
}

/// Pull-based streaming parser: call [`EventParser::next_event`] until it
/// returns `Ok(None)`. Enforces [`MAX_DEPTH`] as the DOM parser does.
pub struct EventParser<'a> {
    p: Parser<'a>,
    stacks: Stacks,
    state: Pending,
    /// Byte offset of the first byte of the last value event's value.
    start: usize,
    /// The last event opened a container (what [`EventParser::skip_value`]
    /// and [`EventParser::parse_value`] consume).
    opened: bool,
}

impl<'a> EventParser<'a> {
    /// Stream events from a JSON text.
    pub fn new(text: &'a str) -> Self {
        Self::with_stacks(text, Stacks::default())
    }

    /// Stream events from bytes, which must be UTF-8 for the stream to
    /// be well-formed.
    pub fn from_bytes(bytes: &'a [u8]) -> Self {
        Self::over(Parser::new(bytes), Stacks::default())
    }

    /// Stream events from a JSON text, reusing an earlier parser's
    /// buffers.
    pub fn with_stacks(text: &'a str, stacks: Stacks) -> Self {
        Self::over(Parser::from_text(text), stacks)
    }

    fn over(p: Parser<'a>, mut stacks: Stacks) -> Self {
        stacks.frames.clear();
        EventParser { p, stacks, state: Pending::Value, start: 0, opened: false }
    }

    /// Give the buffers back, for the next document's parser.
    pub fn into_stacks(self) -> Stacks {
        self.stacks
    }

    /// Current nesting depth (containers currently open).
    pub fn depth(&self) -> usize {
        self.stacks.frames.len()
    }

    /// Byte offset of the parse cursor.
    pub fn offset(&self) -> usize {
        self.p.pos
    }

    /// Byte offset where the last value event's value begins (for a
    /// container: its opening bracket; it ends at [`EventParser::offset`]
    /// after the matching end event).
    pub fn value_start(&self) -> usize {
        self.start
    }

    /// Produce the next event, `Ok(None)` at end of a well-formed document.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>> {
        self.opened = false;
        loop {
            self.p.skip_ws();
            match self.state {
                Pending::Done => {
                    if self.p.pos != self.p.input.len() {
                        return Err(JsonError::at("trailing characters", self.p.pos));
                    }
                    return Ok(None);
                }
                Pending::Value => return self.parse_value_event().map(Some),
                Pending::KeyOrEnd => match self.p.peek() {
                    Some(b'}') => {
                        self.p.pos += 1;
                        self.pop_container();
                        return Ok(Some(Event::EndObject));
                    }
                    Some(b'"') => {
                        let (raw, escaped) = self.p.scan_string()?;
                        self.p.skip_ws();
                        if self.p.peek() != Some(b':') {
                            return Err(JsonError::at("expected ':'", self.p.pos));
                        }
                        self.p.pos += 1;
                        if let Some(Frame::Object(seen)) = self.stacks.frames.last_mut() {
                            *seen = true;
                        }
                        self.state = Pending::Value;
                        return Ok(Some(Event::Key(RawStr { raw, escaped })));
                    }
                    _ => return Err(JsonError::at("expected key or '}'", self.p.pos)),
                },
                Pending::CommaOrEnd => match (self.stacks.frames.last(), self.p.peek()) {
                    (Some(Frame::Object(_)), Some(b',')) => {
                        self.p.pos += 1;
                        self.p.skip_ws();
                        if self.p.peek() != Some(b'"') {
                            return Err(JsonError::at("expected key after ','", self.p.pos));
                        }
                        self.state = Pending::KeyOrEnd;
                    }
                    (Some(Frame::Object(_)), Some(b'}')) => {
                        self.p.pos += 1;
                        self.pop_container();
                        return Ok(Some(Event::EndObject));
                    }
                    (Some(Frame::Array(_)), Some(b',')) => {
                        self.p.pos += 1;
                        self.state = Pending::Value;
                    }
                    (Some(Frame::Array(_)), Some(b']')) => {
                        self.p.pos += 1;
                        self.pop_container();
                        return Ok(Some(Event::EndArray));
                    }
                    _ => return Err(JsonError::at("expected ',' or container end", self.p.pos)),
                },
            }
        }
    }

    /// Consume the value at hand — the container whose start event was
    /// just returned, or the value due next (a member's, after its key)
    /// — producing none of its events but checking everything they would
    /// have checked (the depth limit included). A no-op anywhere else.
    pub fn skip_value(&mut self) -> Result<()> {
        let due = self.state == Pending::Value
            && self.stacks.frames.last().is_some_and(|f| matches!(f, Frame::Object(_)));
        if self.rewind() || due {
            let depth = self.depth();
            self.p.skip_value(depth, &mut self.stacks.skip)?;
            self.after_value();
        }
        Ok(())
    }

    /// Consume the rest of the innermost open container, through its
    /// end — whose event is then not produced — checking everything its
    /// events would have checked. Valid just past a value of the
    /// container (a member's or an element's); returns false, consuming
    /// nothing, anywhere else.
    pub fn skip_rest(&mut self) -> Result<bool> {
        let Some(&frame) = self.stacks.frames.last() else { return Ok(false) };
        if self.state != Pending::CommaOrEnd {
            return Ok(false);
        }
        let depth = self.depth() - 1;
        let object = matches!(frame, Frame::Object(_));
        self.p.skip_rest(depth, object, &mut self.stacks.skip)?;
        self.pop_container();
        Ok(true)
    }

    /// Parse the container whose start event was just returned into a
    /// value, producing none of its events. `None` after any other event.
    pub fn parse_value(&mut self) -> Result<Option<JsonValue>> {
        if !self.rewind() {
            return Ok(None);
        }
        let depth = self.depth();
        let v = self.p.parse_value(depth)?;
        self.after_value();
        Ok(Some(v))
    }

    /// Back to the opening bracket of the container just started, its
    /// frame popped; false when the last event started no container.
    fn rewind(&mut self) -> bool {
        if !std::mem::take(&mut self.opened) {
            return false;
        }
        self.stacks.frames.pop();
        self.p.pos = self.start;
        true
    }

    fn pop_container(&mut self) {
        self.stacks.frames.pop();
        self.state =
            if self.stacks.frames.is_empty() { Pending::Done } else { Pending::CommaOrEnd };
    }

    fn parse_value_event(&mut self) -> Result<Event<'a>> {
        if self.p.peek() == Some(b']') && self.stacks.frames.last() == Some(&Frame::Array(false)) {
            // empty array close
            self.p.pos += 1;
            self.pop_container();
            return Ok(Event::EndArray);
        }
        // the DOM parser's limit: no value below MAX_DEPTH open containers
        if self.depth() > MAX_DEPTH {
            return Err(JsonError::at("maximum nesting depth exceeded", self.p.pos));
        }
        self.start = self.p.pos;
        let event = match self.p.peek() {
            Some(open @ (b'{' | b'[')) => {
                self.p.pos += 1;
                if let Some(Frame::Array(seen)) = self.stacks.frames.last_mut() {
                    *seen = true;
                }
                let (frame, state, event) = if open == b'{' {
                    (Frame::Object(false), Pending::KeyOrEnd, Event::StartObject)
                } else {
                    (Frame::Array(false), Pending::Value, Event::StartArray)
                };
                self.stacks.frames.push(frame);
                self.state = state;
                self.opened = true;
                return Ok(event);
            }
            Some(b'"') => {
                let (raw, escaped) = self.p.scan_string()?;
                Event::String(RawStr { raw, escaped })
            }
            Some(b't') => {
                self.expect_kw(b"true")?;
                Event::Bool(true)
            }
            Some(b'f') => {
                self.expect_kw(b"false")?;
                Event::Bool(false)
            }
            Some(b'n') => {
                self.expect_kw(b"null")?;
                Event::Null
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Event::Number(RawNum(self.p.scan_number()?))
            }
            Some(c) => {
                return Err(JsonError::at(
                    format!("unexpected character {:?}", c as char),
                    self.p.pos,
                ))
            }
            None => return Err(JsonError::at("unexpected end of input", self.p.pos)),
        };
        self.after_value();
        Ok(event)
    }

    /// State after a complete value: a scalar, or a container consumed
    /// whole.
    fn after_value(&mut self) {
        if let Some(Frame::Array(seen)) = self.stacks.frames.last_mut() {
            *seen = true;
        }
        self.state =
            if self.stacks.frames.is_empty() { Pending::Done } else { Pending::CommaOrEnd };
    }

    fn expect_kw(&mut self, kw: &[u8]) -> Result<()> {
        if self.p.input.get(self.p.pos..).is_some_and(|rest| rest.starts_with(kw)) {
            self.p.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError::at("invalid literal", self.p.pos))
        }
    }

    /// Drain all remaining events (testing convenience).
    pub fn collect_events(mut self) -> Result<Vec<Event<'a>>> {
        let mut out = Vec::new();
        while let Some(e) = self.next_event()? {
            out.push(e);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<Event<'_>> {
        EventParser::new(s).collect_events().unwrap()
    }

    fn string(e: &Event<'_>) -> Option<String> {
        match e {
            Event::Key(s) | Event::String(s) => Some(s.decode().unwrap().into_owned()),
            _ => None,
        }
    }

    #[test]
    fn scalar_document() {
        assert_eq!(events("42"), vec![Event::Number(RawNum("42"))]);
        assert_eq!(events("\"x\"").iter().map(string).collect::<Vec<_>>(), [Some("x".into())]);
        assert_eq!(events("null"), vec![Event::Null]);
    }

    #[test]
    fn tokens_borrow_and_decode_on_demand() {
        let evs = events(r#"{"a\u00e9":"q\"q","b":-1.5e3}"#);
        let Event::Key(k) = evs[1] else { panic!("{evs:?}") };
        assert!(k.is_escaped());
        assert_eq!(k.raw(), r"a\u00e9");
        assert!(k.is("aé") && !k.is(r"a\u00e9"));
        assert_eq!(string(&evs[2]).as_deref(), Some("q\"q"));
        let Event::Key(b) = evs[3] else { panic!("{evs:?}") };
        assert!(!b.is_escaped() && b.is("b"));
        let Event::Number(n) = evs[4] else { panic!("{evs:?}") };
        assert_eq!(n.literal(), "-1.5e3");
        assert_eq!(n.to_number().unwrap().to_f64(), -1500.0);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(events("{}"), vec![Event::StartObject, Event::EndObject]);
        assert_eq!(events("[]"), vec![Event::StartArray, Event::EndArray]);
        assert_eq!(
            events("[[],{}]"),
            vec![
                Event::StartArray,
                Event::StartArray,
                Event::EndArray,
                Event::StartObject,
                Event::EndObject,
                Event::EndArray
            ]
        );
    }

    #[test]
    fn object_members() {
        let evs = events(r#"{"a":1,"b":[true,null]}"#);
        assert_eq!(evs.len(), 9);
        assert_eq!(string(&evs[1]).as_deref(), Some("a"));
        assert_eq!(evs[2], Event::Number(RawNum("1")));
        assert_eq!(string(&evs[3]).as_deref(), Some("b"));
        assert_eq!(
            evs[4..],
            [Event::StartArray, Event::Bool(true), Event::Null, Event::EndArray, Event::EndObject]
        );
    }

    #[test]
    fn stream_matches_dom_shape() {
        let doc = r#"{"purchaseOrder":{"id":1,"items":[{"name":"phone","price":100}]}}"#;
        let evs = events(doc);
        let starts =
            evs.iter().filter(|e| matches!(e, Event::StartObject | Event::StartArray)).count();
        let ends = evs.iter().filter(|e| matches!(e, Event::EndObject | Event::EndArray)).count();
        assert_eq!(starts, ends);
        assert_eq!(starts, 4);
        let keys: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Key(k) => Some(k.raw()),
                _ => None,
            })
            .collect();
        assert_eq!(keys, ["purchaseOrder", "id", "items", "name", "price"]);
    }

    #[test]
    fn rejects_malformed_streams() {
        for bad in ["{", "[1,", "{\"a\"}", "{\"a\":1,}", "[1]extra", "{,}", "[\"\\x\"]", "[01]"] {
            assert!(EventParser::new(bad).collect_events().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_tracking() {
        let mut p = EventParser::new(r#"{"a":[{"b":1}]}"#);
        let mut max = 0;
        while let Some(_e) = p.next_event().unwrap() {
            max = max.max(p.depth());
        }
        assert_eq!(max, 3);
        assert_eq!(p.depth(), 0);
    }

    /// Drain `text`, skipping (or parsing) every container at `depth`.
    fn drain(text: &str, depth: usize, parse: bool) -> Result<Vec<JsonValue>> {
        let mut p = EventParser::new(text);
        let mut parsed = Vec::new();
        while let Some(e) = p.next_event()? {
            if matches!(e, Event::StartObject | Event::StartArray) && p.depth() == depth {
                if parse {
                    parsed.extend(p.parse_value()?);
                } else {
                    p.skip_value()?;
                }
            }
        }
        Ok(parsed)
    }

    #[test]
    fn skipping_and_parsing_a_container_resume_the_stream() {
        let doc = r#"{"a":{"x":[1,{"y":"z"}]},"b":[[],{}],"c":true}"#;
        assert!(drain(doc, 2, false).is_ok());
        let parsed = drain(doc, 2, true).unwrap();
        assert_eq!(
            parsed,
            [crate::parse(r#"{"x":[1,{"y":"z"}]}"#).unwrap(), crate::parse("[[],{}]").unwrap()]
        );
        // the root itself
        assert_eq!(drain(doc, 1, true).unwrap(), [crate::parse(doc).unwrap()]);
        // a skipped subtree is still checked
        for bad in [
            r#"{"a":{"x":[1,}]}}"#,
            r#"{"a":{"x":"\ud800"}}"#,
            r#"{"a":[1 2]}"#,
            r#"{"a":{"x":01}}"#,
            r#"{"a":[nul]}"#,
            r#"{"a":{"x" 1}}"#,
            r#"{"a":[}"#,
            r#"{"a":[1]]"#,
        ] {
            assert!(drain(bad, 2, false).is_err(), "skip must reject {bad:?}");
            assert!(drain(bad, 2, true).is_err(), "parse must reject {bad:?}");
        }
    }

    /// A literal beyond the `f64` range is the same error at the same
    /// offset whether it is parsed, streamed or skipped; the largest double
    /// and an underflowing literal are numbers.
    #[test]
    fn a_number_beyond_the_f64_range_fails_every_reader_alike() {
        let out_of_range =
            |offset| crate::error::JsonError::at(crate::number::OUT_OF_RANGE, offset);
        for (doc, offset) in [
            (r#"{"a":1e400}"#, 5),
            (r#"{"a":{"b":[-1e400]}}"#, 11),
            (r#"{"a":{"b":[2e308]}}"#, 11),
            (&format!(r#"{{"a":[{}]}}"#, "9".repeat(400)), 6),
        ] {
            assert_eq!(crate::parse(doc), Err(out_of_range(offset)), "parse {doc}");
            let streamed = EventParser::new(doc).collect_events();
            assert_eq!(streamed, Err(out_of_range(offset)), "events {doc}");
            assert_eq!(drain(doc, 2, false), Err(out_of_range(offset)), "skip {doc}");
        }
        for doc in [r#"{"a":[1.7976931348623157e308]}"#, r#"{"a":[-1e-400]}"#, "[1e+308]"] {
            assert!(crate::parse(doc).is_ok(), "{doc}");
            assert!(drain(doc, 2, false).is_ok(), "{doc}");
        }
    }

    #[test]
    fn the_depth_limit_holds_for_events_and_skips() {
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        // the scalar sits under n arrays and the root object
        for (n, ok) in [(MAX_DEPTH - 1, true), (MAX_DEPTH, false), (MAX_DEPTH + 80, false)] {
            let doc = format!(r#"{{"a":1,"d":{}}}"#, nest(n));
            assert_eq!(crate::parse(&doc).is_ok(), ok, "parse, depth {n}");
            assert_eq!(EventParser::new(&doc).collect_events().is_ok(), ok, "events, depth {n}");
            assert_eq!(drain(&doc, 1, false).is_ok(), ok, "skip, depth {n}");
            assert_eq!(drain(&doc, 2, false).is_ok(), ok, "skip below the root, depth {n}");
        }
    }
}
