//! Wire-level constants and primitives shared by the OSON encoder and
//! decoder.
//!
//! Header layout (all multi-byte integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "OSON"
//! 4       1     version (1)
//! 5       1     flags: bit0 = wide offsets (u32, else u16)
//!                      bit1 = wide field ids (u16, else u8)
//! 6       2     nfields (number of dictionary entries)
//! 8       w     root node offset (within tree segment)
//! 8+w     w     names blob length
//! 8+2w    w     tree segment length
//! 8+3w    w     value segment length
//! ```
//!
//! followed by: the hash-id array (`nfields` entries of
//! `hash:u32, name_off:w, name_len:(1|2)`), the names blob, the tree
//! segment, and the value segment. `w` is 2 or 4 per flag bit 0.
//!
//! Every read primitive in this module is **checked**: out-of-range
//! positions return `None` instead of panicking, and offset/length
//! arithmetic goes through the widening helpers below rather than bare
//! `as` casts, so a corrupted buffer can never take down the process.
//! The lint attribute below enforces this discipline for this file, as
//! its siblings do for the other decode hot paths.

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

pub const MAGIC: [u8; 4] = *b"OSON";
pub const VERSION: u8 = 1;

pub const FLAG_WIDE_OFFSETS: u8 = 0b01;
pub const FLAG_WIDE_FIELD_IDS: u8 = 0b10;

/// Node-type tags carried in the low 3 bits of each tree-node header byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTag {
    Object = 0,
    Array = 1,
    Str = 2,
    NumOra = 3,
    NumDouble = 4,
    True = 5,
    False = 6,
    Null = 7,
}

impl NodeTag {
    /// Decode a node header byte. Total: the tag occupies the low 3 bits,
    /// so all 8 values are meaningful.
    pub fn from_byte(b: u8) -> NodeTag {
        match b & 0x07 {
            0 => NodeTag::Object,
            1 => NodeTag::Array,
            2 => NodeTag::Str,
            3 => NodeTag::NumOra,
            4 => NodeTag::NumDouble,
            5 => NodeTag::True,
            6 => NodeTag::False,
            _ => NodeTag::Null,
        }
    }

    /// The header byte value of this tag (inverse of [`NodeTag::from_byte`]).
    pub fn to_byte(self) -> u8 {
        match self {
            NodeTag::Object => 0,
            NodeTag::Array => 1,
            NodeTag::Str => 2,
            NodeTag::NumOra => 3,
            NodeTag::NumDouble => 4,
            NodeTag::True => 5,
            NodeTag::False => 6,
            NodeTag::Null => 7,
        }
    }
}

/// Widen a wire offset to an index. Infallible on every supported target
/// (`usize` is at least 32 bits); the saturation arm keeps the function
/// total without a panic path.
#[inline]
pub(crate) fn idx(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Widen a length to the u64 domain used by varints and metrics.
#[inline]
pub(crate) fn as_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Checked single-byte read.
#[inline]
pub(crate) fn read_u8(buf: &[u8], pos: usize) -> Option<u8> {
    buf.get(pos).copied()
}

/// Checked little-endian u16 read.
#[inline]
pub(crate) fn read_u16_le(buf: &[u8], pos: usize) -> Option<u16> {
    let b = buf.get(pos..pos.checked_add(2)?)?;
    Some(u16::from_le_bytes(b.try_into().ok()?))
}

/// Checked little-endian u32 read.
#[inline]
pub(crate) fn read_u32_le(buf: &[u8], pos: usize) -> Option<u32> {
    let b = buf.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

/// Checked little-endian f64 read.
#[inline]
pub(crate) fn read_f64_le(buf: &[u8], pos: usize) -> Option<f64> {
    let b = buf.get(pos..pos.checked_add(8)?)?;
    Some(f64::from_le_bytes(b.try_into().ok()?))
}

/// Checked sub-slice `buf[pos..pos + len]`.
#[inline]
pub(crate) fn slice(buf: &[u8], pos: usize, len: usize) -> Option<&[u8]> {
    buf.get(pos..pos.checked_add(len)?)
}

/// Append a LEB128 varint (used for container child counts, which are
/// usually < 128 and thus one byte).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = u8::try_from(v & 0x7F).unwrap_or(0x7F);
        v >>= 7;
        if v == 0 {
            buf.push(b);
            break;
        }
        buf.push(b | 0x80);
    }
}

/// Read a LEB128 varint; returns (value, bytes consumed).
pub fn read_varint(buf: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0;
    let mut n = 0;
    loop {
        let b = *buf.get(pos.checked_add(n)?)?;
        v |= u64::from(b & 0x7F) << shift;
        n += 1;
        if b & 0x80 == 0 {
            return Some((v, n));
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() -> Result<(), String> {
        for v in [0u64, 1, 127, 128, 255, 300, 65535, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, n) = read_varint(&buf, 0).ok_or("varint must read back")?;
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
        Ok(())
    }

    #[test]
    fn varint_is_compact_for_small_counts() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 12);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn varint_rejects_truncation() {
        assert!(read_varint(&[0x80], 0).is_none());
        assert!(read_varint(&[], 0).is_none());
    }

    #[test]
    fn varint_position_overflow_is_none() {
        assert!(read_varint(&[0x01], usize::MAX).is_none());
    }

    #[test]
    fn node_tags_roundtrip() {
        for t in [
            NodeTag::Object,
            NodeTag::Array,
            NodeTag::Str,
            NodeTag::NumOra,
            NodeTag::NumDouble,
            NodeTag::True,
            NodeTag::False,
            NodeTag::Null,
        ] {
            assert_eq!(NodeTag::from_byte(t.to_byte()), t);
        }
        // high bits are ignored
        assert_eq!(NodeTag::from_byte(0xF8 | 2), NodeTag::Str);
    }

    #[test]
    fn checked_reads_reject_out_of_range() {
        let buf = [1u8, 2, 3];
        assert_eq!(read_u8(&buf, 2), Some(3));
        assert_eq!(read_u8(&buf, 3), None);
        assert_eq!(read_u16_le(&buf, 1), Some(0x0302));
        assert_eq!(read_u16_le(&buf, 2), None);
        assert_eq!(read_u32_le(&buf, 0), None);
        assert_eq!(read_f64_le(&buf, 0), None);
        assert_eq!(slice(&buf, 1, 2), Some(&buf[1..3]));
        assert_eq!(slice(&buf, 1, 3), None);
        // position arithmetic can never wrap
        assert_eq!(read_u16_le(&buf, usize::MAX), None);
        assert_eq!(slice(&buf, usize::MAX, 2), None);
    }
}
