//! `fsdm-sqljson`: the SQL/JSON path language and its two evaluation
//! engines, plus the SQL/JSON operators (§5.1 of the paper).
//!
//! * [`path`] — the path language (`$.a.b[2 to 4].c?(@.x > 1)`) with
//!   compile-time pre-hashing of every field name reference, so execution
//!   never hashes a name (§4.2.1).
//! * [`engine`] — the DOM path engine, generic over
//!   [`fsdm_json::JsonDom`]: the same evaluator runs over an in-memory
//!   tree, a serialized OSON instance (jump navigation), or a BSON buffer
//!   (skip navigation). It carries the cross-instance field-id look-back
//!   cache.
//! * [`streaming`] — the streaming engine over text parse events: one
//!   pass per document answers a set of paths, streaming each path's
//!   simple prefix and parsing only the items a filter, item method or
//!   `last` needs — the trade-off §5.1 describes.
//! * [`ops`] — `JSON_VALUE`, `JSON_QUERY`, `JSON_EXISTS` with RETURNING
//!   types and ON ERROR semantics.
//! * [`json_table`] — the `JSON_TABLE()` virtual-table row source with
//!   NESTED PATH: left-outer-join un-nesting for child hierarchies and
//!   union joins for sibling hierarchies (§3.3.2), implemented with the
//!   start/fetch/close row-source shape of §5.1.

pub mod datum;
pub mod engine;
pub mod json_table;
pub mod ops;
pub mod path;
pub mod streaming;

pub use datum::{Datum, SqlType};
pub use engine::{PathEvaluator, PathOutput};
pub use json_table::{ColumnDef, JsonTableCursor, JsonTableDef, NestedDef};
pub use ops::{json_exists, json_query, json_value, OnError, WrapperMode};
pub use path::{parse_path, JsonPath, PathError, Predicate, Span, Step};
