//! `fsdm-bson`: a BSON codec implementing the subset of
//! <http://bsonspec.org> needed for JSON document storage.
//!
//! BSON is the baseline binary format in the paper's evaluation (Tables 10,
//! Figures 3–4). Its characteristic trade-offs, reproduced here, are:
//!
//! * field names are stored inline at every object level and repeated for
//!   every element of an array of objects — no dictionary sharing;
//! * names are NUL-terminated C strings, so a name comparison requires a
//!   byte scan;
//! * containers carry leading length words, so an unneeded child can be
//!   *skipped*, but reaching the N-th field or element still requires a
//!   sequential walk — there is no random access.
//!
//! Numbers keep their value: an integer is an int32 or int64, any other
//! number a double when the double reads back as the same number, and a
//! decimal128 when it does not (`12345678901234567891`,
//! `0.12345678901234567891`), so a query answers alike over BSON, text
//! and OSON. A number of more than 34 significant digits has no BSON
//! form and is refused ([`ErrorKind::Limit`]).
//!
//! The [`BsonDoc`] reader implements [`fsdm_json::JsonDom`] directly over
//! the serialized bytes with exactly those sequential-access semantics, so
//! the shared path engine measures BSON's true navigation cost.

pub mod decode;
pub mod encode;

pub use decode::{decode, BsonDoc};
pub use encode::encode;

use std::fmt;

/// What went wrong while decoding or validating a BSON buffer — the
/// typed half of [`BsonError`], so callers can distinguish a short read
/// from structural damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The buffer ends before the structure it promises.
    Truncated,
    /// A framing invariant is violated (bad lengths, missing NULs, …).
    Corrupt,
    /// An element carries a type tag outside the supported JSON subset.
    UnsupportedTag,
    /// A documented format limit was exceeded (e.g. nesting depth).
    Limit,
    /// The API was used against its contract.
    Usage,
}

impl ErrorKind {
    fn label(self) -> &'static str {
        match self {
            ErrorKind::Truncated => "truncated",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::UnsupportedTag => "unsupported tag",
            ErrorKind::Limit => "limit",
            ErrorKind::Usage => "usage",
        }
    }
}

/// Errors produced by the BSON codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsonError {
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// Description of the failure.
    pub message: String,
}

impl BsonError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        BsonError { kind: ErrorKind::Usage, message: message.into() }
    }

    pub(crate) fn with_kind(kind: ErrorKind, message: impl Into<String>) -> Self {
        BsonError { kind, message: message.into() }
    }

    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        BsonError::with_kind(ErrorKind::Corrupt, message)
    }

    pub(crate) fn truncated(message: impl Into<String>) -> Self {
        BsonError::with_kind(ErrorKind::Truncated, message)
    }

    pub(crate) fn limit(message: impl Into<String>) -> Self {
        BsonError::with_kind(ErrorKind::Limit, message)
    }
}

impl fmt::Display for BsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BSON error ({}): {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for BsonError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, BsonError>;

/// BSON element type tags (the subset used by JSON data).
pub mod tag {
    /// 64-bit IEEE double.
    pub const DOUBLE: u8 = 0x01;
    /// UTF-8 string with int32 length prefix and NUL terminator.
    pub const STRING: u8 = 0x02;
    /// Embedded document.
    pub const DOCUMENT: u8 = 0x03;
    /// Array (a document with keys "0", "1", …).
    pub const ARRAY: u8 = 0x04;
    /// Boolean.
    pub const BOOL: u8 = 0x08;
    /// Null.
    pub const NULL: u8 = 0x0A;
    /// 32-bit integer.
    pub const INT32: u8 = 0x10;
    /// 64-bit integer.
    pub const INT64: u8 = 0x12;
    /// IEEE 754-2008 decimal128, binary integer decimal layout.
    pub const DECIMAL128: u8 = 0x13;
}

/// The layout of a BSON decimal128: a sign bit, a 14-bit exponent biased
/// by 6 176 and a 113-bit coefficient of at most 34 decimal digits, read
/// as `coefficient × 10^exponent` (the coefficient-first form of IEEE
/// 754-2008 BID; the other form, infinities and NaNs are not numbers
/// JSON can hold).
pub(crate) mod decimal128 {
    /// Added to an exponent to store it.
    pub const BIAS: i32 = 6176;
    /// Largest stored exponent.
    pub const MAX_BIASED: i32 = 0x2fff;
    /// Bit position of the exponent.
    pub const EXPONENT_SHIFT: u32 = 113;
    /// The most decimal digits a coefficient holds.
    pub const DIGITS: usize = 34;
    /// One past the largest coefficient.
    pub const COEFFICIENT_LIMIT: u128 = 10u128.pow(DIGITS as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    #[test]
    fn matches_bsonspec_hello_world() {
        // The canonical example from bsonspec.org:
        // {"hello": "world"} ->
        // \x16\x00\x00\x00\x02hello\x00\x06\x00\x00\x00world\x00\x00
        let v = parse(r#"{"hello":"world"}"#).unwrap();
        let bytes = encode(&v).unwrap();
        assert_eq!(bytes, b"\x16\x00\x00\x00\x02hello\x00\x06\x00\x00\x00world\x00\x00");
    }

    #[test]
    fn error_display() {
        assert_eq!(BsonError::new("x").to_string(), "BSON error (usage): x");
        assert_eq!(BsonError::truncated("y").to_string(), "BSON error (truncated): y");
    }
}
