//! Partial in-place update of leaf scalar values (§4.2.3).
//!
//! OSON maximizes path-query efficiency, so "partial update support is
//! limited to changes of existing leaf scalar values": a new value may be
//! written over an existing string or number leaf *when its encoding fits
//! in the existing slot*; otherwise the caller must re-encode the whole
//! document. Booleans and nulls are encoded in the node header itself and
//! cannot be patched without altering tree-segment layout, so they also
//! report [`UpdateOutcome::NeedsReencode`].
//!
//! Like the reader, the updater is panic-free: every buffer position it
//! writes through is re-derived with checked arithmetic and `get_mut`,
//! so a caller handing it a corrupted buffer gets an `Err`, not a crash.

// hot-path decode of untrusted bytes: corrupted input returns `Err`, never
// a panic, and offset arithmetic never truncates silently (DESIGN.md §8)
#![cfg_attr(
    not(test),
    deny(
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

use fsdm_json::{JsonDom, JsonValue, NodeRef};
use fsdm_obs::catalog::metric;

use crate::doc::OsonDoc;
use crate::wire::{self, NodeTag};
use crate::{OsonError, Result};

/// Result of attempting a partial update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The new value was written in place.
    Updated,
    /// The new value does not fit the existing slot (or the node kind does
    /// not support patching); the document must be re-encoded.
    NeedsReencode,
}

/// Overwrite the scalar leaf at `node` with `new_value`, in place, when the
/// encodings are compatible and the new bytes fit. `buf` must contain a
/// valid OSON document (as produced by [`crate::encode`]).
pub fn update_scalar(
    buf: &mut [u8],
    node: NodeRef,
    new_value: &JsonValue,
) -> Result<UpdateOutcome> {
    let out = update_scalar_inner(buf, node, new_value)?;
    // §4.3 piggyback-vs-rewrite accounting
    match out {
        UpdateOutcome::Updated => metric::OSON_UPDATE_IN_PLACE.inc(),
        UpdateOutcome::NeedsReencode => metric::OSON_UPDATE_REENCODE.inc(),
    }
    Ok(out)
}

fn corrupt_slot() -> OsonError {
    OsonError::corrupt("scalar slot out of buffer bounds")
}

fn update_scalar_inner(
    buf: &mut [u8],
    node: NodeRef,
    new_value: &JsonValue,
) -> Result<UpdateOutcome> {
    let doc = OsonDoc::new(buf)?;
    if doc.kind(node) != fsdm_json::NodeKind::Scalar {
        return Err(OsonError::usage("update target is not a scalar leaf"));
    }
    let header = wire::read_u8(buf, doc.tree_abs(node)).ok_or_else(corrupt_slot)?;
    let tag = NodeTag::from_byte(header);
    let plan = match (tag, new_value) {
        (NodeTag::Str, JsonValue::String(s)) => {
            let (body, old_len) = doc.scalar_value_span(node).ok_or_else(corrupt_slot)?;
            if s.len() > old_len {
                return Ok(UpdateOutcome::NeedsReencode);
            }
            // shorter strings are allowed only if the varint length prefix
            // width is unchanged (one byte covers < 128)
            if varint_width(s.len()) != varint_width(old_len) {
                return Ok(UpdateOutcome::NeedsReencode);
            }
            Plan::Str { body, new: s.as_bytes().to_vec(), old_len }
        }
        (NodeTag::NumOra, JsonValue::Number(n)) => {
            let d = match n.to_oranum() {
                Some(d) => d,
                None => return Ok(UpdateOutcome::NeedsReencode),
            };
            let (body, old_len) = doc.scalar_value_span(node).ok_or_else(corrupt_slot)?;
            if d.as_bytes().len() > old_len {
                return Ok(UpdateOutcome::NeedsReencode);
            }
            Plan::Num { body, new: d.as_bytes().to_vec(), old_len }
        }
        (NodeTag::NumDouble, JsonValue::Number(n)) => {
            let (body, _) = doc.scalar_value_span(node).ok_or_else(corrupt_slot)?;
            Plan::Dbl { body, new: n.to_f64() }
        }
        _ => return Ok(UpdateOutcome::NeedsReencode),
    };
    match plan {
        Plan::Str { body, new, old_len } => {
            // rewrite the one-byte-compatible varint length, body, and pad
            // the remainder with spaces (kept inside the old slot)
            let len_pos = body.checked_sub(varint_width(old_len)).ok_or_else(corrupt_slot)?;
            debug_assert_eq!(varint_width(new.len()), varint_width(old_len));
            write_varint_exact(buf.get_mut(len_pos..body).ok_or_else(corrupt_slot)?, new.len());
            let end = body.checked_add(new.len()).ok_or_else(corrupt_slot)?;
            buf.get_mut(body..end).ok_or_else(corrupt_slot)?.copy_from_slice(&new);
            let slot_end = body.checked_add(old_len).ok_or_else(corrupt_slot)?;
            for b in buf.get_mut(end..slot_end).ok_or_else(corrupt_slot)? {
                *b = b' ';
            }
        }
        Plan::Num { body, new, old_len } => {
            let len_pos = body.checked_sub(1).ok_or_else(corrupt_slot)?;
            let len_byte = u8::try_from(new.len())
                .map_err(|_| OsonError::usage("number encoding longer than 255 bytes"))?;
            *buf.get_mut(len_pos).ok_or_else(corrupt_slot)? = len_byte;
            let end = body.checked_add(new.len()).ok_or_else(corrupt_slot)?;
            buf.get_mut(body..end).ok_or_else(corrupt_slot)?.copy_from_slice(&new);
            // slack bytes after a shorter number are dead; zero them
            let slot_end = body.checked_add(old_len).ok_or_else(corrupt_slot)?;
            for b in buf.get_mut(end..slot_end).ok_or_else(corrupt_slot)? {
                *b = 0;
            }
        }
        Plan::Dbl { body, new } => {
            let end = body.checked_add(8).ok_or_else(corrupt_slot)?;
            buf.get_mut(body..end).ok_or_else(corrupt_slot)?.copy_from_slice(&new.to_le_bytes());
        }
    }
    Ok(UpdateOutcome::Updated)
}

enum Plan {
    Str { body: usize, new: Vec<u8>, old_len: usize },
    Num { body: usize, new: Vec<u8>, old_len: usize },
    Dbl { body: usize, new: f64 },
}

fn varint_width(len: usize) -> usize {
    let mut v = wire::as_u64(len);
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Write `v` as a varint that fills `slot` exactly (the caller has already
/// checked the widths match).
fn write_varint_exact(slot: &mut [u8], mut v: usize) {
    let n = slot.len();
    for (i, out) in slot.iter_mut().enumerate() {
        let b = u8::try_from(v & 0x7F).unwrap_or(0x7F);
        v >>= 7;
        *out = if i + 1 == n { b } else { b | 0x80 };
    }
    debug_assert_eq!(v, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode;
    use fsdm_json::{field_hash, parse, JsonDom};

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn field_node(
        bytes: &[u8],
        name: &str,
    ) -> std::result::Result<NodeRef, Box<dyn std::error::Error>> {
        let d = OsonDoc::new(bytes)?;
        d.get_field(d.root(), name, field_hash(name))
            .ok_or_else(|| format!("field {name} missing").into())
    }

    #[test]
    fn update_number_in_place() -> TestResult {
        let v = parse(r#"{"price":350.86,"name":"ipad"}"#)?;
        let mut bytes = encode(&v)?;
        let node = field_node(&bytes, "price")?;
        let out = update_scalar(&mut bytes, node, &parse("99.5")?)?;
        assert_eq!(out, UpdateOutcome::Updated);
        let back = crate::decode(&bytes)?;
        assert_eq!(back.get("price").and_then(|p| p.as_f64()), Some(99.5));
        assert_eq!(back.get("name").and_then(|n| n.as_str()), Some("ipad"));
        Ok(())
    }

    #[test]
    fn update_string_same_or_shorter() -> TestResult {
        let v = parse(r#"{"s":"hello"}"#)?;
        let mut bytes = encode(&v)?;
        let node = field_node(&bytes, "s")?;
        assert_eq!(update_scalar(&mut bytes, node, &parse("\"world\"")?)?, UpdateOutcome::Updated);
        assert_eq!(crate::decode(&bytes)?.get("s").and_then(|s| s.as_str()), Some("world"));
        let node = field_node(&bytes, "s")?;
        assert_eq!(update_scalar(&mut bytes, node, &parse("\"hi\"")?)?, UpdateOutcome::Updated);
        assert_eq!(crate::decode(&bytes)?.get("s").and_then(|s| s.as_str()), Some("hi"));
        Ok(())
    }

    #[test]
    fn updated_buffer_still_validates() -> TestResult {
        let v = parse(r#"{"s":"hello","n":123.25}"#)?;
        let mut bytes = encode(&v)?;
        let s = field_node(&bytes, "s")?;
        update_scalar(&mut bytes, s, &parse("\"abc\"")?)?;
        let n = field_node(&bytes, "n")?;
        update_scalar(&mut bytes, n, &parse("7")?)?;
        OsonDoc::new(&bytes)?.validate()?;
        Ok(())
    }

    #[test]
    fn longer_string_needs_reencode() -> TestResult {
        let v = parse(r#"{"s":"ab"}"#)?;
        let mut bytes = encode(&v)?;
        let before = bytes.clone();
        let node = field_node(&bytes, "s")?;
        assert_eq!(
            update_scalar(&mut bytes, node, &parse("\"abcdef\"")?)?,
            UpdateOutcome::NeedsReencode
        );
        assert_eq!(bytes, before, "buffer untouched on refusal");
        Ok(())
    }

    #[test]
    fn type_change_needs_reencode() -> TestResult {
        let v = parse(r#"{"s":"ab","n":5}"#)?;
        let mut bytes = encode(&v)?;
        let s = field_node(&bytes, "s")?;
        assert_eq!(update_scalar(&mut bytes, s, &parse("42")?)?, UpdateOutcome::NeedsReencode);
        let n = field_node(&bytes, "n")?;
        assert_eq!(update_scalar(&mut bytes, n, &parse("true")?)?, UpdateOutcome::NeedsReencode);
        Ok(())
    }

    #[test]
    fn container_target_is_an_error() -> TestResult {
        let v = parse(r#"{"a":[1]}"#)?;
        let mut bytes = encode(&v)?;
        let a = field_node(&bytes, "a")?;
        assert!(update_scalar(&mut bytes, a, &parse("1")?).is_err());
        Ok(())
    }

    #[test]
    fn shorter_number_zero_pads() -> TestResult {
        let v = parse(r#"{"n":123456789.25}"#)?;
        let mut bytes = encode(&v)?;
        let n = field_node(&bytes, "n")?;
        assert_eq!(update_scalar(&mut bytes, n, &parse("7")?)?, UpdateOutcome::Updated);
        assert_eq!(crate::decode(&bytes)?.get("n").and_then(|n| n.as_i64()), Some(7));
        Ok(())
    }
}
