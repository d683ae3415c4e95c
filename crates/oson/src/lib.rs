//! `fsdm-oson`: the OSON binary JSON format (§4 of the paper).
//!
//! OSON is a **self-contained**, compact binary encoding of a JSON
//! document designed for rapid SQL/JSON path navigation without a central
//! schema. An encoded instance has three segments (§4.2):
//!
//! 1. **Field-id-name dictionary segment** — every distinct field name is
//!    stored once; names are hashed, the (hash, name) entries are sorted
//!    by hash, and the *ordinal position* of an entry is that name's field
//!    id. Repeated names in nested arrays of objects cost nothing beyond
//!    their id references.
//! 2. **Tree-node navigation segment** — the structural skeleton. Nodes
//!    are addressed by byte offset. An object node stores its children's
//!    field ids in **sorted order** next to their offsets, so child lookup
//!    is a binary search over small integers. An array node stores child
//!    offsets positionally, so the N-th element is one indexed read.
//! 3. **Leaf-scalar-value segment** — concatenated scalar bytes. Numbers
//!    use the Oracle NUMBER encoding ([`fsdm_json::OraNum`]) so values
//!    cross into SQL without conversion (design criterion 3); a number
//!    beyond NUMBER's range is an IEEE double.
//!
//! [`OsonDoc`] implements [`fsdm_json::JsonDom`] *directly over the
//! serialized bytes* — the "DOM read operations against the serialized
//! instance" of §5.1 — including instance field-id resolution and the
//! id check behind the cross-document look-back cache of §4.2.1.
//! Partial updates of existing leaf scalar values are supported in place
//! (§4.2.3's stated update trade-off).
//!
//! [`OsonSet`] is §7's set encoding: its members are the same instances
//! with an empty dictionary segment, their field ids indexing one shared
//! [`Dictionary`], and [`OsonSet::doc`] reads one as an [`OsonDoc`]; it
//! is the form of the store's in-memory OSON column (OSON-IMC). The
//! crate has one tree writer ([`Encoder`]) and one reader.

pub mod doc;
pub mod encoder;
pub mod set;
pub mod stats;
pub mod update;
mod wire;

pub use doc::OsonDoc;
pub use encoder::{encode, Encoder};
pub use set::{Dictionary, OsonSet};
pub use stats::SegmentStats;
pub use update::{update_scalar, UpdateOutcome};

use std::fmt;

use fsdm_obs::catalog::metric;

/// What went wrong while decoding or validating an OSON buffer —
/// the typed half of [`OsonError`], so callers can distinguish "not
/// OSON at all" from "OSON that has been damaged".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The buffer ends before the structure it promises.
    Truncated,
    /// The magic bytes do not spell `OSON`.
    BadMagic,
    /// The version byte names a format this crate does not speak.
    UnsupportedVersion,
    /// A structural invariant of the three-segment layout is violated.
    Corrupt,
    /// A documented format limit was exceeded (dictionary size, nesting
    /// depth, name length).
    Limit,
    /// The API was used against its contract (e.g. a partial update
    /// aimed at a container node).
    Usage,
}

impl ErrorKind {
    fn label(self) -> &'static str {
        match self {
            ErrorKind::Truncated => "truncated",
            ErrorKind::BadMagic => "bad magic",
            ErrorKind::UnsupportedVersion => "unsupported version",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Limit => "limit",
            ErrorKind::Usage => "usage",
        }
    }
}

/// Errors produced by the OSON codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsonError {
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// Description of the failure.
    pub message: String,
}

impl OsonError {
    pub(crate) fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        OsonError { kind, message: message.into() }
    }

    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        OsonError::new(ErrorKind::Corrupt, message)
    }

    pub(crate) fn truncated(message: impl Into<String>) -> Self {
        OsonError::new(ErrorKind::Truncated, message)
    }

    pub(crate) fn limit(message: impl Into<String>) -> Self {
        OsonError::new(ErrorKind::Limit, message)
    }

    pub(crate) fn usage(message: impl Into<String>) -> Self {
        OsonError::new(ErrorKind::Usage, message)
    }
}

impl fmt::Display for OsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OSON error ({}): {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for OsonError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, OsonError>;

/// Decode an OSON buffer back into the JSON value model.
///
/// This is the **untrusted-input** entry point: the buffer is run through
/// the deep structural verifier ([`OsonDoc::validate`]) before any tree
/// walk, so corrupted or truncated input returns `Err` — it can never
/// panic or hand garbage to the materializer. Trusted in-process buffers
/// (e.g. rows the store itself encoded) can skip the verifier by
/// constructing an [`OsonDoc`] directly.
pub fn decode(bytes: &[u8]) -> Result<fsdm_json::JsonValue> {
    use fsdm_json::JsonDom;
    let mut decode_span = fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_OSON_DECODE);
    decode_span.record_args(|| format!("bytes={}", bytes.len()));
    let doc = OsonDoc::new(bytes)?;
    doc.validate()?;
    metric::OSON_DECODE_DOCS.inc();
    Ok(doc.materialize(doc.root()))
}
