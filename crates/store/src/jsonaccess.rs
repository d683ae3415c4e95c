//! Physical JSON storage formats and format-dispatched SQL/JSON
//! evaluation.
//!
//! This module is where the §6.3 comparison lives: the *same* SQL/JSON
//! operator runs against a `Text` cell (the streaming text pass),
//! a `Bson` cell (skip navigation), or an `Oson` cell (jump navigation) —
//! the query layer is storage-agnostic, exactly like the views in the
//! paper that "hide the underlying physical data storage model
//! differences".

use std::borrow::Cow;

use fsdm_json::{JsonValue, ValueDom};
use fsdm_sqljson::json_table::{JsonTableCursor, JsonTableDef};
use fsdm_sqljson::ops::{json_value, OnError};
use fsdm_sqljson::streaming::{TextPass, Want};
use fsdm_sqljson::{Datum, JsonPath, PathEvaluator, SqlType};

use crate::table::StoreError;

/// Physical storage of a JSON column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonStorage {
    /// Compact JSON text (the paper's varchar2 storage).
    Text,
    /// BSON bytes (raw storage).
    Bson,
    /// OSON bytes (raw storage).
    Oson,
}

/// One stored JSON document. Payloads are reference-counted so a scan
/// can hand a stored document to many rows without copying it.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonCell {
    /// JSON text (shared: scans hand the same buffer to many rows).
    Text(std::sync::Arc<str>),
    /// BSON-encoded bytes.
    Bson(std::sync::Arc<Vec<u8>>),
    /// OSON-encoded bytes.
    Oson(std::sync::Arc<Vec<u8>>),
}

impl JsonCell {
    /// Encode a document for the given storage; `oson` is the OSON
    /// encoder the caller keeps across documents.
    pub fn encode(
        doc: &JsonValue,
        storage: JsonStorage,
        oson: &mut fsdm_oson::Encoder,
    ) -> Result<JsonCell, StoreError> {
        Ok(match storage {
            JsonStorage::Text => JsonCell::Text(fsdm_json::to_string(doc).into()),
            JsonStorage::Bson => JsonCell::Bson(std::sync::Arc::new(
                fsdm_bson::encode(doc).map_err(|e| StoreError::new(e.to_string()))?,
            )),
            JsonStorage::Oson => JsonCell::Oson(std::sync::Arc::new(
                oson.encode(doc).map_err(|e| StoreError::new(e.to_string()))?,
            )),
        })
    }

    /// Store already-serialized JSON text without re-encoding (used by the
    /// no-constraint insert mode, which must not even parse).
    pub fn raw_text(text: impl Into<String>) -> JsonCell {
        JsonCell::Text(text.into().into())
    }

    /// Size in bytes as stored.
    pub fn stored_size(&self) -> usize {
        match self {
            JsonCell::Text(s) => s.len(),
            JsonCell::Bson(b) | JsonCell::Oson(b) => b.len(),
        }
    }

    /// Fully decode to the value model (used by DataGuide maintenance and
    /// re-encoding, not by queries).
    pub fn decode(&self) -> Result<JsonValue, StoreError> {
        match self {
            JsonCell::Text(s) => fsdm_json::parse(s).map_err(|e| StoreError::new(e.to_string())),
            JsonCell::Bson(b) => fsdm_bson::decode(b).map_err(|e| StoreError::new(e.to_string())),
            JsonCell::Oson(b) => fsdm_oson::decode(b).map_err(|e| StoreError::new(e.to_string())),
        }
    }

    /// Render as JSON text (selecting a raw JSON column in a query).
    pub fn decode_to_text(&self) -> String {
        match self {
            JsonCell::Text(s) => s.to_string(),
            other => match other.decode() {
                Ok(v) => fsdm_json::to_string(&v),
                Err(_) => String::new(),
            },
        }
    }

    /// Open the document once, so several operators over the same row
    /// share the format's header check. Text opens unchecked: the row
    /// evaluator, the oracle, reads every text to its end.
    pub(crate) fn open(&self) -> OpenDoc<'_> {
        match self {
            JsonCell::Text(text) => OpenDoc::Text { text, checked: false },
            JsonCell::Bson(b) => fsdm_bson::BsonDoc::new(b).map_or(OpenDoc::Invalid, OpenDoc::Bson),
            JsonCell::Oson(b) => OpenDoc::oson(b),
        }
    }

    /// `JSON_VALUE` against this cell, paying each format's native access
    /// cost (text: parse / stream; BSON: sequential scan; OSON: jump).
    pub fn json_value(&self, ev: &mut PathEvaluator, ty: SqlType) -> Datum {
        self.open().json_value(ev, ty)
    }

    /// `JSON_EXISTS` against this cell.
    pub fn json_exists(&self, ev: &mut PathEvaluator) -> bool {
        self.open().json_exists(ev)
    }

    /// Run a JSON_TABLE definition against this cell: every row, every
    /// column (one-shot — the executor expands through the batch spine,
    /// holding one cursor per worker).
    pub fn json_table_rows(&self, def: &JsonTableDef) -> Vec<Vec<Datum>> {
        self.open().table_rows(&mut JsonTableCursor::new(def))
    }
}

/// A document opened as the [`fsdm_json::JsonDom`] JSON_TABLE walks.
pub(crate) enum Dom<'a> {
    /// Parsed JSON text.
    Value(ValueDom<'a>),
    /// A BSON buffer.
    Bson(fsdm_bson::BsonDoc<'a>),
    /// An OSON instance.
    Oson(fsdm_oson::OsonDoc<'a>),
}

/// Evaluate `$body` with `$d` bound to the `&impl JsonDom` in a `&Dom`.
macro_rules! with_dom {
    ($dom:expr, $d:ident => $body:expr) => {
        match $dom {
            $crate::jsonaccess::Dom::Value($d) => $body,
            $crate::jsonaccess::Dom::Bson($d) => $body,
            $crate::jsonaccess::Dom::Oson($d) => $body,
        }
    };
}
pub(crate) use with_dom;

/// One stored document opened for evaluation. The fused scan opens each
/// row once and runs every path of the statement against it; the row
/// evaluator opens per operator through [`JsonCell::json_value`].
pub(crate) enum OpenDoc<'a> {
    /// JSON text: every text pass scans it again. `checked`: an `IS JSON`
    /// column's, parsed when it was stored, so a pass may leave the rest
    /// of the document unread once no answer can change.
    Text { text: &'a str, checked: bool },
    /// A BSON buffer past its header check.
    Bson(fsdm_bson::BsonDoc<'a>),
    /// An OSON instance past its header check.
    Oson(fsdm_oson::OsonDoc<'a>),
    /// Bytes that failed their format's header check: nothing matches.
    Invalid,
}

impl<'a> OpenDoc<'a> {
    /// Open a stored cell's OSON bytes.
    pub(crate) fn oson(bytes: &'a [u8]) -> OpenDoc<'a> {
        fsdm_oson::OsonDoc::new(bytes).map_or(OpenDoc::Invalid, OpenDoc::Oson)
    }

    /// `JSON_VALUE … RETURNING ty NULL ON ERROR`.
    pub(crate) fn json_value(&self, ev: &mut PathEvaluator, ty: SqlType) -> Datum {
        match self {
            OpenDoc::Text { text, .. } => text_answer(text, ev.path(), Want::Value(ty)),
            OpenDoc::Bson(doc) => json_value(doc, ev, ty, OnError::Null).unwrap_or(Datum::Null),
            OpenDoc::Oson(doc) => json_value(doc, ev, ty, OnError::Null).unwrap_or(Datum::Null),
            OpenDoc::Invalid => Datum::Null,
        }
    }

    /// `JSON_EXISTS`.
    pub(crate) fn json_exists(&self, ev: &mut PathEvaluator) -> bool {
        match self {
            OpenDoc::Text { text, .. } => {
                text_answer(text, ev.path(), Want::Exists) == Datum::Bool(true)
            }
            OpenDoc::Bson(doc) => ev.exists(doc),
            OpenDoc::Oson(doc) => ev.exists(doc),
            OpenDoc::Invalid => false,
        }
    }

    /// The parse a text document needs before it can be walked as a DOM;
    /// `None` for the binary formats (and for text that does not parse).
    pub(crate) fn parse_text(&self) -> Option<JsonValue> {
        match self {
            OpenDoc::Text { text, .. } => fsdm_json::parse(text).ok(),
            _ => None,
        }
    }

    /// This document as a DOM, `parsed` being its [`OpenDoc::parse_text`];
    /// `None` when there is no valid document.
    pub(crate) fn into_dom(self, parsed: Option<&'a JsonValue>) -> Option<Dom<'a>> {
        match self {
            OpenDoc::Text { .. } => parsed.map(|v| Dom::Value(ValueDom::new(v))),
            OpenDoc::Bson(doc) => Some(Dom::Bson(doc)),
            OpenDoc::Oson(doc) => Some(Dom::Oson(doc)),
            OpenDoc::Invalid => None,
        }
    }

    /// Every JSON_TABLE row of this document, through a caller-owned
    /// cursor (compiled paths and look-back caches persist across
    /// documents): the row API, which the row evaluator's `JsonTable`
    /// operator runs on.
    pub(crate) fn table_rows(self, cursor: &mut JsonTableCursor) -> Vec<Vec<Datum>> {
        let parsed = self.parse_text();
        match self.into_dom(parsed.as_ref()) {
            Some(dom) => with_dom!(&dom, d => cursor.rows(d)),
            None => Vec::new(),
        }
    }
}

/// One path over JSON text (§5.1): the same [`TextPass`] the fused scan
/// runs per stage, with one path. Text that fails to scan leaves the
/// pass's verdict.
fn text_answer(text: &str, path: &JsonPath, want: Want) -> Datum {
    let mut pass = TextPass::new([(Cow::Borrowed(path), want)]);
    let _ = pass.run(text, false);
    pass.take(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;
    use fsdm_sqljson::parse_path;

    const DOC: &str = r#"{"po":{"id":4,"items":[{"p":10},{"p":20}]}}"#;

    fn cells() -> Vec<JsonCell> {
        cells_of(DOC)
    }

    /// `doc` in each of the three storages.
    fn cells_of(doc: &str) -> Vec<JsonCell> {
        let v = parse(doc).unwrap();
        let oson = &mut fsdm_oson::Encoder::new();
        [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson]
            .map(|storage| JsonCell::encode(&v, storage, oson).unwrap())
            .to_vec()
    }

    #[test]
    fn json_value_agrees_across_storages() {
        for cell in cells() {
            let mut ev = PathEvaluator::new(parse_path("$.po.id").unwrap());
            assert_eq!(cell.json_value(&mut ev, SqlType::Number), Datum::from(4i64));
        }
        // (document, path, JSON_VALUE, JSON_EXISTS): a field step takes
        // the first member of its name; strict mode neither unwraps an
        // array for a field step nor wraps a non-array for an array step
        let one = Datum::from(1i64);
        let cases = [
            (r#"{"a":1,"a":2}"#, "$.a", one.clone(), true),
            (r#"{"a":1,"a":{"x":2}}"#, "$.a", one.clone(), true),
            (r#"{"a":1,"a":{"x":2}}"#, "$.a.x", Datum::Null, false),
            (r#"{"a":[{"b":1}]}"#, "strict $.a.b", Datum::Null, false),
            (r#"{"a":[{"b":1}]}"#, "lax $.a.b", one.clone(), true),
            (r#"{"a":{"b":1}}"#, "strict $.a[0].b", Datum::Null, false),
            (r#"{"a":{"b":1}}"#, "lax $.a[0].b", one, true),
        ];
        for (doc, path, value, exists) in cases {
            for cell in cells_of(doc) {
                let mut ev = PathEvaluator::new(parse_path(path).unwrap());
                let got = cell.json_value(&mut ev, SqlType::Number);
                assert_eq!(got, value, "JSON_VALUE {path} over {doc} as {cell:?}");
                assert_eq!(
                    cell.json_exists(&mut ev),
                    exists,
                    "JSON_EXISTS {path} over {doc} as {cell:?}"
                );
            }
        }
    }

    #[test]
    fn json_exists_agrees_across_storages() {
        for cell in cells() {
            let mut yes = PathEvaluator::new(parse_path("$.po.items[*]?(@.p > 15)").unwrap());
            let mut no = PathEvaluator::new(parse_path("$.po.items[*]?(@.p > 99)").unwrap());
            assert!(cell.json_exists(&mut yes));
            assert!(!cell.json_exists(&mut no));
        }
    }

    #[test]
    fn decode_roundtrips() {
        let v = parse(DOC).unwrap();
        for cell in cells() {
            assert!(cell.decode().unwrap().eq_unordered(&v));
        }
    }

    #[test]
    fn stored_sizes_differ_by_format() {
        let sizes: Vec<usize> = cells().iter().map(|c| c.stored_size()).collect();
        assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn multi_match_json_value_is_null() {
        for cell in cells() {
            let mut ev = PathEvaluator::new(parse_path("$.po.items[*].p").unwrap());
            assert!(cell.json_value(&mut ev, SqlType::Number).is_null());
        }
    }
}
