//! OSON encoder: [`JsonValue`] → three-segment binary instance.
//!
//! One [`Encoder`] serves a run of documents: it interns every field name
//! it meets (name, hash) once in a [`Dictionary`] and keeps its segment
//! buffers, so encoding a document whose names it has seen allocates the
//! output and nothing else. Each document is walked twice: once to
//! collect its names — the field ids are their ranks by (hash, name) —
//! and once to serialize, with compact 2-byte offsets. The wide (4-byte)
//! layout differs from the compact one by exactly two bytes per offset
//! written, so whether a document needs it is decided by arithmetic, and
//! only such documents are serialized again.
//!
//! A set's encoder ([`crate::OsonSet`]) writes members instead: the same
//! tree, with an empty dictionary segment and the names' positions in the
//! never-cleared intern table as field ids.

use std::mem::size_of;

use fsdm_json::JsonValue;
use fsdm_obs::catalog::metric;

use crate::set::Dictionary;
use crate::wire::{write_varint, NodeTag, FLAG_WIDE_FIELD_IDS, FLAG_WIDE_OFFSETS, MAGIC, VERSION};
use crate::{OsonError, Result};

/// Encode one document with a fresh [`Encoder`].
pub fn encode(v: &JsonValue) -> Result<Vec<u8>> {
    Encoder::new().encode(v)
}

/// A segment this long or longer forces the wide layout.
const NARROW_LIMIT: usize = 0xFFF0;

/// Names an [`Encoder`] keeps interned before it starts over, so a
/// collection of ever-new field names cannot grow it without bound.
const MAX_INTERNED: usize = 1 << 16;

/// What a first use reserves: room for the names and the segments of a
/// typical small document.
const SMALL_DOC_NAMES: usize = 32;
const SMALL_DOC_SEGMENT: usize = 256;

/// Offset/id width configuration for one encode.
#[derive(Debug, Clone, Copy)]
struct Layout {
    wide_offsets: bool,
    wide_ids: bool,
}

impl Layout {
    fn off_w(&self) -> usize {
        if self.wide_offsets {
            4
        } else {
            2
        }
    }

    /// In the narrow layout `v` may not fit: the width decision is made
    /// after the pass, and an overflowing narrow pass is discarded.
    fn push_off(&self, buf: &mut Vec<u8>, v: u32) {
        if self.wide_offsets {
            buf.extend_from_slice(&v.to_le_bytes());
        } else {
            buf.extend_from_slice(&(v as u16).to_le_bytes());
        }
    }

    fn push_id(&self, buf: &mut Vec<u8>, v: u32) {
        if self.wide_ids {
            buf.extend_from_slice(&(v as u16).to_le_bytes());
        } else {
            debug_assert!(v <= u8::MAX as u32);
            buf.push(v as u8);
        }
    }
}

/// A reusable OSON encoder; see the module documentation.
#[derive(Debug, Default)]
pub struct Encoder {
    /// Every name met.
    names: Dictionary,
    /// A set's encoder: names are never forgotten, a name's field id is
    /// its position, and documents carry no dictionary segment.
    member: bool,
    /// Documents encoded so far.
    epoch: u64,
    /// The current document's distinct names (positions in `names`); once
    /// collected, an instance sorts them by (hash, name), so the index is
    /// the field id.
    dictionary: Vec<u32>,
    /// A set's encoder: the last member's distinct names, in first-seen
    /// order (a member stores no dictionary segment).
    member_names: Vec<u32>,
    /// The name of every object member, in walk order.
    members: Vec<u32>,
    /// How far into `members` the serialization has read.
    cursor: usize,
    tree: Vec<u8>,
    values: Vec<u8>,
    /// Offsets written into `tree` so far: what the wide layout adds two
    /// bytes each to.
    offsets: usize,
    /// (field id, offset) of the children of every container being
    /// written, innermost last.
    kids: Vec<(u32, u32)>,
}

impl Encoder {
    /// An encoder that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoder of an [`crate::OsonSet`]: see the module documentation.
    pub(crate) fn for_set() -> Self {
        Encoder { names: Dictionary::for_set(), member: true, ..Self::default() }
    }

    /// The names met, in first-seen order.
    pub(crate) fn names(&self) -> &Dictionary {
        &self.names
    }

    /// The distinct names, at any depth, of the member last encoded by a
    /// set's encoder, as positions in [`Encoder::names`].
    pub(crate) fn member_names(&self) -> &[u32] {
        &self.member_names
    }

    /// Heap bytes held: the names and every buffer.
    pub(crate) fn heap_size(&self) -> usize {
        self.names.heap_size()
            + (self.dictionary.capacity() + self.member_names.capacity() + self.members.capacity())
                * size_of::<u32>()
            + self.tree.capacity()
            + self.values.capacity()
            + self.kids.capacity() * size_of::<(u32, u32)>()
    }

    /// Encode one document. Numbers are Oracle NUMBERs (§4.2.3), exact
    /// decimals; one beyond NUMBER's range is an IEEE double.
    pub fn encode(&mut self, v: &JsonValue) -> Result<Vec<u8>> {
        if !self.member && self.names.len() > MAX_INTERNED {
            self.names.truncate(0);
        }
        self.epoch += 1;
        self.dictionary.clear();
        self.members.clear();
        // a first use skips the doubling steps a small document would
        // walk every buffer through; afterwards these cost nothing
        if self.names.is_empty() {
            self.names.reserve(SMALL_DOC_NAMES);
        }
        self.dictionary.reserve(SMALL_DOC_NAMES);
        self.members.reserve(SMALL_DOC_NAMES);
        let known = self.names.len();
        if let Err(e) = self.collect_names(v) {
            // a refused member must not leave its names to the set
            if self.member {
                self.names.truncate(known);
            }
            return Err(e);
        }
        // field ids span 0..id_span
        let id_span = if self.member {
            // a member's ids are positions, and it stores no dictionary:
            // its names are kept for the set instead
            let span = self.dictionary.iter().max().map_or(0, |&n| n as usize + 1);
            std::mem::swap(&mut self.dictionary, &mut self.member_names);
            self.dictionary.clear();
            span
        } else {
            self.dictionary.len()
        };
        let nfields = self.dictionary.len();
        if nfields > u16::MAX as usize {
            return Err(OsonError::limit("too many distinct field names (max 65535)"));
        }
        let names = &mut self.names.entries;
        self.dictionary.sort_unstable_by(|&a, &b| {
            let (a, b) = (&names[a as usize], &names[b as usize]);
            a.hash.cmp(&b.hash).then_with(|| a.text.cmp(&b.text))
        });
        let (mut names_len, mut longest) = (0, 0);
        for (id, &n) in self.dictionary.iter().enumerate() {
            let name = &mut names[n as usize];
            name.id = id as u32;
            names_len += name.text.len();
            longest = longest.max(name.text.len());
        }

        // the narrow header holds a name length in one byte
        let narrow = nfields <= 255 && names_len < NARROW_LIMIT && longest <= u8::MAX as usize;
        let wide_ids = id_span > 256;
        let small = Layout { wide_offsets: false, wide_ids };
        let wide = Layout { wide_offsets: true, wide_ids };
        let (layout, root) = match narrow.then(|| self.write_segments(v, small)).flatten() {
            Some(root) => (small, root),
            None => (wide, self.write_segments(v, wide).expect("wide offsets always fit")),
        };
        let out = self.assemble(layout, names_len, root);
        // the deep structural verifier must accept everything we emit; in
        // debug builds every encode proves it
        debug_assert!(
            if self.member {
                crate::doc::OsonDoc::member(&out, &self.names)
            } else {
                crate::doc::OsonDoc::new(&out)
            }
            .and_then(|d| d.validate())
            .is_ok(),
            "encoder produced an OSON document the verifier rejects"
        );
        // per-segment byte accounting (§4 / Table 11)
        let entry = 4 + layout.off_w() + if layout.wide_offsets { 2 } else { 1 };
        metric::OSON_ENCODE_DOCS.inc();
        metric::OSON_ENCODE_BYTES.record(out.len() as u64);
        metric::OSON_SEGMENT_DICTIONARY_BYTES.add((nfields * entry + names_len) as u64);
        metric::OSON_SEGMENT_TREE_BYTES.add(self.tree.len() as u64);
        metric::OSON_SEGMENT_VALUES_BYTES.add(self.values.len() as u64);
        Ok(out)
    }

    /// Fill `dictionary` and `members` from the document, interning names
    /// not met before.
    fn collect_names(&mut self, v: &JsonValue) -> Result<()> {
        match v {
            JsonValue::Object(o) => {
                for (k, c) in o.iter() {
                    if k.len() > u16::MAX as usize {
                        return Err(OsonError::limit("field name longer than 65535 bytes"));
                    }
                    let n = self.names.intern(k)?;
                    if self.member && n >= u32::from(u16::MAX) {
                        return Err(OsonError::limit("a set holds at most 65535 field names"));
                    }
                    let name = &mut self.names.entries[n as usize];
                    if name.stamp != self.epoch {
                        name.stamp = self.epoch;
                        self.dictionary.push(n);
                    }
                    self.members.push(n);
                    self.collect_names(c)?;
                }
            }
            JsonValue::Array(a) => {
                for c in a {
                    self.collect_names(c)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Serialize the tree and value segments; returns the root's offset,
    /// or `None` when the narrow layout turns out too small.
    fn write_segments(&mut self, root: &JsonValue, layout: Layout) -> Option<u32> {
        self.tree.clear();
        self.values.clear();
        self.kids.clear();
        self.tree.reserve(SMALL_DOC_SEGMENT);
        self.values.reserve(SMALL_DOC_SEGMENT);
        self.kids.reserve(SMALL_DOC_NAMES);
        self.cursor = 0;
        self.offsets = 0;
        self.write_node(root, layout)
    }

    /// Post-order serialization: children are written before their parent
    /// so the parent can embed their offsets.
    fn write_node(&mut self, v: &JsonValue, layout: Layout) -> Option<u32> {
        let first = self.kids.len();
        match v {
            JsonValue::Array(a) => {
                for c in a {
                    let off = self.write_node(c, layout)?;
                    self.kids.push((0, off));
                }
            }
            JsonValue::Object(o) => {
                for (_, c) in o.iter() {
                    let id = self.names.entries[self.members[self.cursor] as usize].id;
                    self.cursor += 1;
                    let off = self.write_node(c, layout)?;
                    self.kids.push((id, off));
                }
                // sorted by field id to enable binary search in the reader;
                // offsets ascend in document order, so duplicate keys keep
                // that order among themselves
                self.kids[first..].sort_unstable();
            }
            _ => {}
        }
        let off = self.tree.len() as u32;
        match v {
            JsonValue::Null => self.tree.push(NodeTag::Null as u8),
            JsonValue::Bool(true) => self.tree.push(NodeTag::True as u8),
            JsonValue::Bool(false) => self.tree.push(NodeTag::False as u8),
            JsonValue::String(s) => {
                let voff = self.values.len() as u32;
                write_varint(&mut self.values, s.len() as u64);
                self.values.extend_from_slice(s.as_bytes());
                self.tree.push(NodeTag::Str as u8);
                layout.push_off(&mut self.tree, voff);
                self.offsets += 1;
            }
            JsonValue::Number(n) => {
                // numbers are inlined in the tree node (no value-segment
                // indirection): a scalar read is one jump, and number-dense
                // documents become tree-segment-dominated, matching Table 11's
                // SensorData profile
                match n.to_oranum() {
                    Some(d) => {
                        let b = d.as_bytes();
                        self.tree.push(NodeTag::NumOra as u8);
                        self.tree.push(b.len() as u8);
                        self.tree.extend_from_slice(b);
                    }
                    // out of NUMBER range
                    None => {
                        self.tree.push(NodeTag::NumDouble as u8);
                        self.tree.extend_from_slice(&n.to_f64().to_le_bytes());
                    }
                }
            }
            JsonValue::Array(a) => {
                self.tree.push(NodeTag::Array as u8);
                write_varint(&mut self.tree, a.len() as u64);
                self.push_kid_offsets(first, layout);
            }
            JsonValue::Object(o) => {
                self.tree.push(NodeTag::Object as u8);
                write_varint(&mut self.tree, o.len() as u64);
                for &(id, _) in &self.kids[first..] {
                    layout.push_id(&mut self.tree, id);
                }
                self.push_kid_offsets(first, layout);
            }
        }
        // A document is narrow while its wide tree — two bytes more per
        // offset — and its value segment both stay below the limit; a
        // narrow pass that has outgrown that stops here.
        let fits = layout.wide_offsets
            || (self.tree.len() + 2 * self.offsets < NARROW_LIMIT
                && self.values.len() < NARROW_LIMIT);
        fits.then_some(off)
    }

    /// Write the offsets of `kids[first..]` and pop them.
    fn push_kid_offsets(&mut self, first: usize, layout: Layout) {
        for &(_, off) in &self.kids[first..] {
            layout.push_off(&mut self.tree, off);
        }
        self.offsets += self.kids.len() - first;
        self.kids.truncate(first);
    }

    /// Glue header + dictionary + tree + values into the final buffer.
    fn assemble(&self, layout: Layout, names_len: usize, root: u32) -> Vec<u8> {
        let w = layout.off_w();
        let nlen_w = if layout.wide_offsets { 2 } else { 1 }; // name_len width
        let nfields = self.dictionary.len();
        let cap = 8
            + 4 * w
            + nfields * (4 + w + nlen_w)
            + names_len
            + self.tree.len()
            + self.values.len();
        let mut out = Vec::with_capacity(cap);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        let mut flags = 0u8;
        if layout.wide_offsets {
            flags |= FLAG_WIDE_OFFSETS;
        }
        if layout.wide_ids {
            flags |= FLAG_WIDE_FIELD_IDS;
        }
        out.push(flags);
        out.extend_from_slice(&(nfields as u16).to_le_bytes());
        layout.push_off(&mut out, root);
        layout.push_off(&mut out, names_len as u32);
        layout.push_off(&mut out, self.tree.len() as u32);
        layout.push_off(&mut out, self.values.len() as u32);
        let names = self.dictionary.iter().map(|&n| &self.names.entries[n as usize]);
        let mut noff = 0u32;
        for name in names.clone() {
            out.extend_from_slice(&name.hash.to_le_bytes());
            layout.push_off(&mut out, noff);
            if layout.wide_offsets {
                out.extend_from_slice(&(name.text.len() as u16).to_le_bytes());
            } else {
                out.push(name.text.len() as u8);
            }
            noff += name.text.len() as u32;
        }
        for name in names {
            out.extend_from_slice(name.text.as_bytes());
        }
        out.extend_from_slice(&self.tree);
        out.extend_from_slice(&self.values);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    #[test]
    fn header_magic_and_version() {
        let b = encode(&parse(r#"{"a":1}"#).unwrap()).unwrap();
        assert_eq!(&b[0..4], b"OSON");
        assert_eq!(b[4], VERSION);
        assert_eq!(b[5] & FLAG_WIDE_OFFSETS, 0, "small doc uses narrow offsets");
    }

    #[test]
    fn field_names_stored_once() {
        // 100 objects with the same two field names: the names appear once
        let doc = format!(
            "[{}]",
            (0..100)
                .map(|i| format!(r#"{{"name":"x","price":{i}}}"#))
                .collect::<Vec<_>>()
                .join(",")
        );
        let v = parse(&doc).unwrap();
        let b = encode(&v).unwrap();
        let hay = b.windows(4).filter(|w| w == b"name").count();
        assert_eq!(hay, 1, "repeated field name must be deduplicated");
    }

    #[test]
    fn scalars_only_document() {
        for t in ["null", "true", "false", "42", "\"s\"", "3.5"] {
            let v = parse(t).unwrap();
            assert!(encode(&v).is_ok(), "scalar root {t}");
        }
    }

    #[test]
    fn a_number_beyond_oracle_number_range_is_an_ieee_double() {
        // NUMBER's exponent stops near 1e126: beyond it the node is the
        // tag and eight bytes of double (within it: the tag, a length and
        // the NUMBER's bytes), and either decodes to the same number
        for (text, tree) in [("1e200", 1 + 8), ("-1e200", 1 + 8), ("1.5", 1 + 1 + 3)] {
            let v = parse(text).unwrap();
            let bytes = encode(&v).unwrap();
            assert_eq!(crate::SegmentStats::of(&bytes).unwrap().tree, tree, "{text}");
            assert_eq!(crate::decode(&bytes).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn large_document_switches_to_wide_offsets() {
        let big: String = format!(r#"{{"k":"{}"}}"#, "x".repeat(70_000));
        let b = encode(&parse(&big).unwrap()).unwrap();
        assert_ne!(b[5] & FLAG_WIDE_OFFSETS, 0);
    }

    fn object_of(n: usize, prefix: &str) -> JsonValue {
        let mut o = fsdm_json::Object::new();
        for i in 0..n {
            o.push(format!("{prefix}{i}"), JsonValue::Null);
        }
        JsonValue::Object(o)
    }

    /// An array whose wide tree segment is exactly `wide_tree` bytes:
    /// nulls cost 1 + 4 and zeros 3 + 4 of them, the array node 3.
    fn array_with_wide_tree(wide_tree: usize) -> JsonValue {
        let rest = wide_tree - 3;
        let zeros = (0..5).find(|z| (rest - 7 * z).is_multiple_of(5)).unwrap();
        let mut items = vec![JsonValue::Null; (rest - 7 * zeros) / 5];
        items.extend((0..zeros).map(|_| JsonValue::from(0i64)));
        JsonValue::Array(items)
    }

    /// Flags bytes recorded from the two-pass encoder this one replaced,
    /// which serialized wide first and tested those lengths.
    #[test]
    fn width_decision_at_the_boundaries() {
        let flags = |v: &JsonValue| encode(v).unwrap()[5];
        // value segment 0xFFEF / 0xFFF0 / 0xFFF1 (3-byte varint + string)
        for (len, want) in [(65_516, 0), (65_517, FLAG_WIDE_OFFSETS), (65_518, FLAG_WIDE_OFFSETS)] {
            let v = JsonValue::object([("k", "x".repeat(len).into())]);
            assert_eq!(flags(&v), want, "string of {len}");
        }
        for (tree, want) in [(0xFFEF, 0), (0xFFF0, FLAG_WIDE_OFFSETS), (0xFFF1, FLAG_WIDE_OFFSETS)]
        {
            let v = array_with_wide_tree(tree);
            let bytes = encode(&v).unwrap();
            assert_eq!(bytes[5], want, "wide tree of {tree:#x}");
            let stats = crate::SegmentStats::of(&bytes).unwrap();
            let narrowed = if want == 0 { 2 * v.as_array().unwrap().len() } else { 0 };
            assert_eq!(stats.tree, tree - narrowed);
        }
        for (names, want) in
            [(255, 0), (256, FLAG_WIDE_OFFSETS), (257, FLAG_WIDE_OFFSETS | FLAG_WIDE_FIELD_IDS)]
        {
            assert_eq!(flags(&object_of(names, "f")), want, "{names} names");
        }
    }

    #[test]
    fn a_name_too_long_for_the_narrow_header_goes_wide() {
        for (len, want) in [(255, 0), (256, FLAG_WIDE_OFFSETS)] {
            let v = JsonValue::object([("pad", JsonValue::Null)]);
            let mut o = v.as_object().unwrap().clone();
            o.push("n".repeat(len), JsonValue::from(1i64));
            let v = JsonValue::Object(o);
            let bytes = encode(&v).unwrap();
            assert_eq!(bytes[5], want, "name of {len} bytes");
            assert_eq!(crate::decode(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn a_reused_encoder_equals_fresh_ones() {
        let small_a = parse(r#"{"a":1,"b":{"c":[true,null,"x"],"a":"again"},"a":2}"#).unwrap();
        let small_b = parse(r#"{"z":{"b":[{"q":1},{"q":2,"a":3}]},"c":"y"}"#).unwrap();
        let wide = JsonValue::object([("a", "x".repeat(70_000).into()), ("w", 1i64.into())]);
        let many_names = object_of(300, "b");
        let mut encoder = Encoder::new();
        for v in [&small_a, &small_b, &small_a, &wide, &small_b, &many_names, &small_a] {
            assert_eq!(encoder.encode(v).unwrap(), encode(v).unwrap());
        }
    }

    #[test]
    fn an_encoder_forgets_names_rather_than_grow_without_bound() {
        let small = parse(r#"{"b7":1,"other":2}"#).unwrap();
        let mut encoder = Encoder::new();
        for prefix in ["a", "b"] {
            let v = object_of(40_000, prefix);
            assert_eq!(encoder.encode(&v).unwrap(), encode(&v).unwrap());
        }
        assert!(encoder.names.len() > MAX_INTERNED);
        assert_eq!(encoder.encode(&small).unwrap(), encode(&small).unwrap());
        assert_eq!(encoder.names.len(), 2);
    }
}
