//! `fsdm-json`: the JSON substrate for the FSDM stack.
//!
//! Provides the in-memory JSON data model ([`JsonValue`]), an Oracle
//! NUMBER–style decimal encoding ([`OraNum`]) shared with the SQL side of
//! the engine, a DOM text parser, a streaming (SAX-like) event parser used
//! by the text-mode path engine, and compact/pretty serializers.
//!
//! The JSON data model follows the paper (§3.1): three node kinds —
//! objects, arrays, scalars — where scalars are strings, numbers,
//! booleans, or null.

pub mod dom;
pub mod error;
pub mod events;
pub mod number;
pub mod parse;
pub mod ser;
pub mod value;

pub use dom::{field_hash, FieldId, JsonDom, NodeKind, NodeRef, ScalarRef, ValueDom};
pub use error::{JsonError, Result};
pub use events::{Event, EventParser, RawNum, RawStr, Stacks};
pub use number::{JsonNumber, OraNum};
pub use parse::{parse, parse_bytes, Parser};
pub use ser::{to_string, to_string_pretty};
pub use value::{JsonValue, Object};
