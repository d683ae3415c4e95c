//! [`OsonDoc`]: zero-copy reader over an encoded OSON instance,
//! implementing [`JsonDom`] with the jump-navigation semantics of §4.2.
//!
//! A tree-node address is the node's byte offset within the tree-node
//! navigation segment, "used in lieu of machine pointer dereferences"
//! (§5.1). Child lookup in an object is a binary search over the node's
//! sorted field-id array; array indexing is a single positional read.
//!
//! # Safety discipline
//!
//! The navigation accessors are **infallible by trait contract**
//! ([`JsonDom`]) but **total by implementation**: every byte read goes
//! through the checked primitives in [`crate::wire`], and a read that
//! falls outside the buffer yields a neutral value (`Null`, `""`, `0`)
//! instead of panicking. That keeps the hot path free of bounds-check
//! branching beyond what the reads themselves need, while guaranteeing a
//! corrupted buffer can never take the process down. Callers that hold
//! *untrusted* bytes should run [`OsonDoc::validate`] first — the deep
//! structural verifier — after which the neutral-value fallbacks are
//! unreachable and navigation is exact.
//!
//! The same reader opens a member of an [`crate::OsonSet`]
//! ([`OsonDoc::member`]): its field ids index the set's [`Dictionary`]
//! instead of the instance's own dictionary segment, which is empty.

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

use fsdm_json::{field_hash, FieldId, JsonDom, JsonNumber, NodeKind, NodeRef, OraNum, ScalarRef};
use fsdm_obs::catalog::metric;

use crate::set::Dictionary;
use crate::wire::{
    self, read_varint, NodeTag, FLAG_WIDE_FIELD_IDS, FLAG_WIDE_OFFSETS, MAGIC, VERSION,
};
use crate::{ErrorKind, OsonError, Result};

/// Maximum container nesting accepted by the structural verifier;
/// matches the parser's bound so that any document the codec accepts can
/// also be materialized and re-parsed.
pub const MAX_DEPTH: usize = fsdm_json::parse::MAX_DEPTH;

fn sum(a: usize, b: usize) -> Result<usize> {
    a.checked_add(b).ok_or_else(|| OsonError::corrupt("segment arithmetic overflow"))
}

fn prod(a: usize, b: usize) -> Result<usize> {
    a.checked_mul(b).ok_or_else(|| OsonError::corrupt("segment arithmetic overflow"))
}

/// Read-only OSON instance view.
pub struct OsonDoc<'a> {
    bytes: &'a [u8],
    wide_offsets: bool,
    wide_ids: bool,
    nfields: usize,
    root: u32,
    /// absolute offset of the hash-id array (= header length)
    pub(crate) hash_arr: usize,
    /// absolute offset of the names blob
    names: usize,
    /// absolute offset of the tree segment
    pub(crate) tree: usize,
    /// absolute offset of the value segment
    pub(crate) values: usize,
    /// the set dictionary a member's field ids index; `None` for a
    /// self-contained instance
    set: Option<&'a Dictionary>,
}

impl<'a> OsonDoc<'a> {
    /// Wrap an encoded buffer, checking the header and segment geometry.
    ///
    /// This is the cheap O(1) gate: magic, version, and that the four
    /// declared segment lengths tile the buffer exactly. It does **not**
    /// walk the tree — use [`OsonDoc::validate`] for the deep check.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let magic = bytes.get(0..4).ok_or_else(|| {
            OsonError::new(ErrorKind::BadMagic, "buffer shorter than the 4-byte magic")
        })?;
        if magic != MAGIC {
            return Err(OsonError::new(ErrorKind::BadMagic, "bad magic"));
        }
        let version =
            wire::read_u8(bytes, 4).ok_or_else(|| OsonError::truncated("missing version byte"))?;
        if version != VERSION {
            return Err(OsonError::new(
                ErrorKind::UnsupportedVersion,
                format!("unsupported version {version}"),
            ));
        }
        let flags =
            wire::read_u8(bytes, 5).ok_or_else(|| OsonError::truncated("missing flags byte"))?;
        let wide_offsets = flags & FLAG_WIDE_OFFSETS != 0;
        let wide_ids = flags & FLAG_WIDE_FIELD_IDS != 0;
        let nfields = usize::from(
            wire::read_u16_le(bytes, 6)
                .ok_or_else(|| OsonError::truncated("missing field count"))?,
        );
        let w: usize = if wide_offsets { 4 } else { 2 };
        let nlen_w: usize = if wide_offsets { 2 } else { 1 };
        let rd = |pos: usize| -> Result<u32> {
            let v = if wide_offsets {
                wire::read_u32_le(bytes, pos)
            } else {
                wire::read_u16_le(bytes, pos).map(u32::from)
            };
            v.ok_or_else(|| OsonError::truncated("truncated header"))
        };
        let root = rd(8)?;
        let names_len = wire::idx(rd(sum(8, w)?)?);
        let tree_len = wire::idx(rd(sum(8, prod(2, w)?)?)?);
        let values_len = wire::idx(rd(sum(8, prod(3, w)?)?)?);
        let entry = 4 + w + nlen_w;
        let hash_arr = 8 + 4 * w;
        let names = sum(hash_arr, prod(nfields, entry)?)?;
        let tree = sum(names, names_len)?;
        let values = sum(tree, tree_len)?;
        let total = sum(values, values_len)?;
        if total != bytes.len() {
            return Err(OsonError::corrupt(format!(
                "segment lengths inconsistent with buffer size ({} != {})",
                total,
                bytes.len()
            )));
        }
        if wire::idx(root) >= tree_len.max(1) {
            return Err(OsonError::corrupt("root offset out of tree segment"));
        }
        Ok(OsonDoc {
            bytes,
            wide_offsets,
            wide_ids,
            nfields,
            root,
            hash_arr,
            names,
            tree,
            values,
            set: None,
        })
    }

    /// Wrap a member of an [`crate::OsonSet`] whose dictionary is `set`:
    /// the checks of [`OsonDoc::new`], and an empty dictionary segment.
    pub fn member(bytes: &'a [u8], set: &'a Dictionary) -> Result<Self> {
        let doc = Self::new(bytes)?;
        if doc.nfields != 0 {
            return Err(OsonError::corrupt("a set member carries a dictionary segment"));
        }
        Ok(OsonDoc { set: Some(set), ..doc })
    }

    /// Underlying encoded bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of distinct field names its field ids index: the instance
    /// dictionary's, or a member's set's.
    pub fn num_fields(&self) -> usize {
        self.set.map_or(self.nfields, Dictionary::len)
    }

    fn off_w(&self) -> usize {
        if self.wide_offsets {
            4
        } else {
            2
        }
    }

    fn id_w(&self) -> usize {
        if self.wide_ids {
            2
        } else {
            1
        }
    }

    fn nlen_w(&self) -> usize {
        if self.wide_offsets {
            2
        } else {
            1
        }
    }

    fn entry_size(&self) -> usize {
        4 + self.off_w() + self.nlen_w()
    }

    fn read_off_checked(&self, pos: usize) -> Option<u32> {
        if self.wide_offsets {
            wire::read_u32_le(self.bytes, pos)
        } else {
            wire::read_u16_le(self.bytes, pos).map(u32::from)
        }
    }

    fn read_off(&self, pos: usize) -> u32 {
        self.read_off_checked(pos).unwrap_or(0)
    }

    fn read_id_checked(&self, pos: usize) -> Option<u32> {
        if self.wide_ids {
            wire::read_u16_le(self.bytes, pos).map(u32::from)
        } else {
            wire::read_u8(self.bytes, pos).map(u32::from)
        }
    }

    fn read_id(&self, pos: usize) -> u32 {
        self.read_id_checked(pos).unwrap_or(0)
    }

    /// Dictionary entry `i` as `(hash, name_off, name_len)`, or `None`
    /// if the entry does not fit in the buffer.
    fn dict_entry(&self, i: usize) -> Option<(u32, usize, usize)> {
        let pos = self.hash_arr.checked_add(i.checked_mul(self.entry_size())?)?;
        let hash = wire::read_u32_le(self.bytes, pos)?;
        let noff = wire::idx(self.read_off_checked(pos.checked_add(4)?)?);
        let npos = pos.checked_add(4)?.checked_add(self.off_w())?;
        let nlen = if self.wide_offsets {
            usize::from(wire::read_u16_le(self.bytes, npos)?)
        } else {
            usize::from(wire::read_u8(self.bytes, npos)?)
        };
        Some((hash, noff, nlen))
    }

    /// Hash of dictionary entry `i` (entries sorted by hash).
    fn entry_hash(&self, i: usize) -> u32 {
        self.dict_entry(i).map(|(h, _, _)| h).unwrap_or(0)
    }

    fn field_name_checked(&self, id: FieldId) -> Option<&'a str> {
        if let Some(set) = self.set {
            return set.name(id);
        }
        let i = usize::try_from(id).ok()?;
        if i >= self.nfields {
            return None;
        }
        let (_, noff, nlen) = self.dict_entry(i)?;
        let start = self.names.checked_add(noff)?;
        let b = wire::slice(self.bytes, start, nlen)?;
        std::str::from_utf8(b).ok()
    }

    /// Field name of dictionary entry (= field id) `i`.
    pub fn field_name(&self, id: FieldId) -> &'a str {
        self.field_name_checked(id).unwrap_or("")
    }

    /// Resolve a field name to its field id: binary search on the hash-id
    /// array, then name comparison to resolve hash collisions (§4.2.1); a
    /// member asks its set's dictionary.
    pub fn lookup_field_id(&self, name: &str, hash: u32) -> Option<FieldId> {
        let (found, probes) = match self.set {
            Some(set) => set.find(name, hash),
            None => self.search_dictionary(name, hash),
        };
        metric::OSON_DICT_LOOKUPS.inc();
        metric::OSON_DICT_PROBES.add(probes);
        found
    }

    /// The instance dictionary's id for `name`, and the entries probed.
    fn search_dictionary(&self, name: &str, hash: u32) -> (Option<FieldId>, u64) {
        let (mut lo, mut hi) = (0usize, self.nfields);
        let mut probes: u64 = 0;
        while lo < hi {
            probes += 1;
            let mid = (lo + hi) / 2;
            if self.entry_hash(mid) < hash {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut found = None;
        let mut i = lo;
        while i < self.nfields && self.entry_hash(i) == hash {
            probes += 1;
            // nfields < 2^16, so the widening is exact
            let id = FieldId::try_from(i).unwrap_or(FieldId::MAX);
            if self.field_name(id) == name {
                found = Some(id);
                break;
            }
            i += 1;
        }
        (found, probes)
    }

    /// Absolute buffer position of the node's header byte. Saturates on
    /// nonsense refs; the reads downstream are all checked.
    fn node_pos(&self, node: NodeRef) -> usize {
        usize::try_from(node).ok().and_then(|n| self.tree.checked_add(n)).unwrap_or(usize::MAX)
    }

    /// Decode the node header at tree-relative offset `node`:
    /// (tag, payload absolute position).
    fn node_tag(&self, node: NodeRef) -> (NodeTag, usize) {
        let pos = self.node_pos(node);
        let b = wire::read_u8(self.bytes, pos).unwrap_or(NodeTag::Null.to_byte());
        (NodeTag::from_byte(b), pos.saturating_add(1))
    }

    /// For container nodes: (child count, absolute offset of first id/off).
    ///
    /// The count is clamped to the number of bytes left in the tree
    /// segment — a corrupted count can therefore never drive a loop past
    /// the buffer (each child costs at least one tree byte).
    fn container_header(&self, node: NodeRef) -> (NodeTag, usize, usize) {
        let (tag, p) = self.node_tag(node);
        match read_varint(self.bytes, p) {
            Some((count, n)) => {
                let base = p.saturating_add(n);
                let cap = self.values.saturating_sub(base);
                (tag, usize::try_from(count).unwrap_or(cap).min(cap), base)
            }
            None => (tag, 0, p),
        }
    }

    /// Bytes of the scalar value of a string/number node within the value
    /// segment, as (absolute offset of the body, body length). Used by the
    /// partial updater.
    pub(crate) fn scalar_value_span(&self, node: NodeRef) -> Option<(usize, usize)> {
        let (tag, p) = self.node_tag(node);
        match tag {
            NodeTag::Str => {
                let voff = wire::idx(self.read_off_checked(p)?);
                let vpos = self.values.checked_add(voff)?;
                let (len, n) = read_varint(self.bytes, vpos)?;
                Some((vpos.checked_add(n)?, usize::try_from(len).ok()?))
            }
            // numbers are inlined in the tree node
            NodeTag::NumOra => {
                let len = usize::from(wire::read_u8(self.bytes, p)?);
                Some((p.checked_add(1)?, len))
            }
            NodeTag::NumDouble => Some((p, 8)),
            _ => None,
        }
    }

    /// Absolute buffer position of a node's header byte (updater use).
    pub(crate) fn tree_abs(&self, node: NodeRef) -> usize {
        self.node_pos(node)
    }

    /// Deep structural verifier of the three-segment layout.
    ///
    /// Checks, beyond the O(1) geometry of [`OsonDoc::new`]:
    ///
    /// * the field-id dictionary is sorted by `(hash, name)`, free of
    ///   duplicates, every name span lies inside the names blob, every
    ///   name is UTF-8, and every stored hash matches
    ///   [`fsdm_json::field_hash`] of its name (a member's is empty);
    /// * every tree node reachable from the root has a canonical header
    ///   (no stray high bits), lies inside the tree segment, and nesting
    ///   stays within [`MAX_DEPTH`];
    /// * object children carry sorted (non-decreasing) in-range field
    ///   ids — equal consecutive ids are permitted, because RFC 8259
    ///   documents may repeat a name and the encoder preserves such
    ///   members in document order ([`JsonDom::get_field`] resolves to
    ///   the first occurrence, matching `Object::get`);
    /// * all child offsets point strictly **backwards** (post-order
    ///   encoding), which rules out cycles, and no tree node is
    ///   referenced by more than one parent — the instance is a strict
    ///   tree, not a DAG, so the walk makes at most one visit per tree
    ///   byte and a post-validate [`JsonDom::materialize`] is linear;
    /// * string leaves reference varint-framed UTF-8 extents fully inside
    ///   the value segment, and no two distinct extents overlap;
    /// * inlined numbers decode under the Oracle NUMBER grammar and
    ///   doubles have their full 8 bytes.
    ///
    /// Runs in O(size of the document): distinct node offsets are tracked
    /// in a bitset and a re-visited offset is rejected outright, so the
    /// traversal is bounded by the tree segment length even on hostile
    /// buffers. The encoder asserts it on every
    /// document in debug builds; [`crate::decode`] runs it on every
    /// buffer, which is what makes the corpus of corrupted inputs return
    /// `Err` instead of panicking.
    pub fn validate(&self) -> Result<()> {
        match self.validate_inner() {
            Ok(()) => Ok(()),
            Err(e) => {
                metric::OSON_VALIDATE_FAILURES.inc();
                Err(e)
            }
        }
    }

    fn validate_inner(&self) -> Result<()> {
        self.validate_dictionary()?;
        let tree_len = self.values - self.tree;
        let mut extents: Vec<(usize, usize)> = Vec::new();
        // iterative DFS with an explicit work stack: a hostile buffer can
        // nest up to MAX_DEPTH levels, and the verifier must not answer
        // adversarial input with call-stack exhaustion
        let mut work: Vec<(u32, usize)> = vec![(self.root, 0)];
        // one bit per tree byte: the strictly-backwards child rule rules
        // out cycles but not DAG sharing, and a few hundred nodes whose
        // child offsets converge on earlier nodes would otherwise drive
        // exponentially many visits. Every node header occupies a distinct
        // tree byte, so "each offset at most once" caps the whole walk at
        // tree_len visits.
        let mut visited = vec![0u64; tree_len / 64 + 1];
        while let Some((node, depth)) = work.pop() {
            let npos = wire::idx(node);
            // an out-of-bounds offset is left for validate_node to report;
            // in-bounds offsets always land inside the bitset
            if let Some(word) = visited.get_mut(npos / 64) {
                let bit = 1u64 << (npos % 64);
                if npos < tree_len {
                    if *word & bit != 0 {
                        return Err(OsonError::corrupt(format!(
                            "node at {node} referenced by more than one parent \
                             (shared subtree; the instance is not a tree)"
                        )));
                    }
                    *word |= bit;
                }
            }
            self.validate_node(node, depth, &mut extents, &mut work)?;
        }
        extents.sort_unstable();
        extents.dedup();
        for pair in extents.windows(2) {
            if let [(_, end_a), (start_b, _)] = pair {
                if end_a > start_b {
                    return Err(OsonError::corrupt(
                        "overlapping leaf extents in the value segment",
                    ));
                }
            }
        }
        Ok(())
    }

    fn validate_dictionary(&self) -> Result<()> {
        let names_len = self.tree - self.names;
        let mut prev: Option<(u32, &str)> = None;
        for i in 0..self.nfields {
            let (hash, noff, nlen) = self.dict_entry(i).ok_or_else(|| {
                OsonError::truncated(format!("dictionary entry {i} out of bounds"))
            })?;
            let end = sum(noff, nlen)?;
            if end > names_len {
                return Err(OsonError::corrupt(format!(
                    "dictionary entry {i}: name span {noff}+{nlen} escapes the \
                     names blob ({names_len} bytes)"
                )));
            }
            let start = sum(self.names, noff)?;
            let b = wire::slice(self.bytes, start, nlen)
                .ok_or_else(|| OsonError::truncated(format!("dictionary entry {i} name")))?;
            let name = std::str::from_utf8(b).map_err(|_| {
                OsonError::corrupt(format!("dictionary entry {i}: name is not UTF-8"))
            })?;
            if hash != field_hash(name) {
                return Err(OsonError::corrupt(format!(
                    "dictionary entry {i}: stored hash {hash:#x} does not match \
                     field_hash({name:?})"
                )));
            }
            if let Some(p) = prev {
                if p >= (hash, name) {
                    return Err(OsonError::corrupt(format!(
                        "dictionary not sorted/deduplicated at entry {i}"
                    )));
                }
            }
            prev = Some((hash, name));
        }
        Ok(())
    }

    /// Validate the node at tree-relative offset `node`; `extents`
    /// accumulates (start, end) spans of string bodies in the value
    /// segment for the global overlap check, and `work` receives the
    /// node's children for the caller's DFS loop.
    fn validate_node(
        &self,
        node: u32,
        depth: usize,
        extents: &mut Vec<(usize, usize)>,
        work: &mut Vec<(u32, usize)>,
    ) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(OsonError::limit(format!("tree nesting exceeds MAX_DEPTH ({MAX_DEPTH})")));
        }
        let tree_len = self.values - self.tree;
        let npos = wire::idx(node);
        if npos >= tree_len {
            return Err(OsonError::corrupt(format!(
                "node offset {node} out of tree segment ({tree_len} bytes)"
            )));
        }
        let abs = sum(self.tree, npos)?;
        let header =
            wire::read_u8(self.bytes, abs).ok_or_else(|| OsonError::truncated("node header"))?;
        if header >> 3 != 0 {
            return Err(OsonError::corrupt(format!(
                "node at {node}: non-canonical header byte {header:#04x}"
            )));
        }
        let tag = NodeTag::from_byte(header);
        let p = abs + 1;
        match tag {
            NodeTag::Object | NodeTag::Array => {
                let (count_raw, n) = read_varint(self.bytes, p)
                    .ok_or_else(|| OsonError::truncated("container child count"))?;
                let count = usize::try_from(count_raw)
                    .map_err(|_| OsonError::corrupt("container child count overflows"))?;
                let base = sum(p, n)?;
                let id_w = if tag == NodeTag::Object { self.id_w() } else { 0 };
                let body = sum(prod(count, id_w)?, prod(count, self.off_w())?)?;
                if sum(base, body)? > self.values {
                    return Err(OsonError::truncated(format!(
                        "container at {node}: {count} children escape the tree segment"
                    )));
                }
                let offs_base = sum(base, prod(count, id_w)?)?;
                let mut prev_id: Option<u32> = None;
                for i in 0..count {
                    if tag == NodeTag::Object {
                        let id = self
                            .read_id_checked(base + i * id_w)
                            .ok_or_else(|| OsonError::truncated("object field id"))?;
                        if wire::idx(id) >= self.num_fields() {
                            return Err(OsonError::corrupt(format!(
                                "object at {node}: field id {id} out of dictionary \
                                 range ({} entries)",
                                self.num_fields()
                            )));
                        }
                        if let Some(prev) = prev_id {
                            // non-decreasing, not strictly increasing:
                            // RFC 8259 documents may repeat a name, the
                            // encoder keeps such members (stable sort,
                            // document order), and lookups resolve to the
                            // first occurrence
                            if prev > id {
                                return Err(OsonError::corrupt(format!(
                                    "object at {node}: field ids not sorted"
                                )));
                            }
                        }
                        prev_id = Some(id);
                    }
                    let child = self
                        .read_off_checked(offs_base + i * self.off_w())
                        .ok_or_else(|| OsonError::truncated("container child offset"))?;
                    if child >= node {
                        return Err(OsonError::corrupt(format!(
                            "container at {node}: child offset {child} is not \
                             strictly backwards (cycle or forward reference)"
                        )));
                    }
                    work.push((child, depth + 1));
                }
            }
            NodeTag::Str => {
                if sum(p, self.off_w())? > self.values {
                    return Err(OsonError::truncated("string value offset"));
                }
                let voff = wire::idx(
                    self.read_off_checked(p)
                        .ok_or_else(|| OsonError::truncated("string value offset"))?,
                );
                let values_len = self.bytes.len() - self.values;
                if voff >= values_len.max(1) {
                    return Err(OsonError::corrupt(format!(
                        "string at {node}: value offset {voff} out of value \
                         segment ({values_len} bytes)"
                    )));
                }
                let vpos = sum(self.values, voff)?;
                let (len_raw, n) = read_varint(self.bytes, vpos)
                    .ok_or_else(|| OsonError::truncated("string length varint"))?;
                let len = usize::try_from(len_raw)
                    .map_err(|_| OsonError::corrupt("string length overflows"))?;
                let start = sum(vpos, n)?;
                if sum(start, len)? > self.bytes.len() {
                    return Err(OsonError::truncated(format!(
                        "string at {node}: body escapes the value segment"
                    )));
                }
                let b = wire::slice(self.bytes, start, len)
                    .ok_or_else(|| OsonError::truncated("string body"))?;
                if std::str::from_utf8(b).is_err() {
                    return Err(OsonError::corrupt(format!("string at {node}: body is not UTF-8")));
                }
                extents.push((vpos, start + len));
            }
            NodeTag::NumOra => {
                let len = usize::from(
                    wire::read_u8(self.bytes, p)
                        .ok_or_else(|| OsonError::truncated("number length byte"))?,
                );
                let start = sum(p, 1)?;
                if sum(start, len)? > self.values {
                    return Err(OsonError::truncated(format!(
                        "number at {node}: body escapes the tree segment"
                    )));
                }
                let b = wire::slice(self.bytes, start, len)
                    .ok_or_else(|| OsonError::truncated("number body"))?;
                if OraNum::from_bytes(b).is_err() {
                    return Err(OsonError::corrupt(format!(
                        "number at {node}: invalid Oracle NUMBER encoding"
                    )));
                }
            }
            NodeTag::NumDouble => {
                if sum(p, 8)? > self.values {
                    return Err(OsonError::truncated(format!(
                        "double at {node}: 8-byte body escapes the tree segment"
                    )));
                }
            }
            NodeTag::True | NodeTag::False | NodeTag::Null => {}
        }
        Ok(())
    }
}

impl JsonDom for OsonDoc<'_> {
    fn root(&self) -> NodeRef {
        NodeRef::from(self.root)
    }

    fn kind(&self, node: NodeRef) -> NodeKind {
        match self.node_tag(node).0 {
            NodeTag::Object => NodeKind::Object,
            NodeTag::Array => NodeKind::Array,
            _ => NodeKind::Scalar,
        }
    }

    fn object_len(&self, node: NodeRef) -> usize {
        let (tag, count, _) = self.container_header(node);
        debug_assert_eq!(tag, NodeTag::Object);
        count
    }

    fn object_entry(&self, node: NodeRef, i: usize) -> (&str, NodeRef) {
        let (_, count, base) = self.container_header(node);
        debug_assert!(i < count);
        let id = self.read_id(base.saturating_add(i * self.id_w()));
        let offs = base.saturating_add(count * self.id_w());
        let child = self.read_off(offs.saturating_add(i * self.off_w()));
        (self.field_name(id), NodeRef::from(child))
    }

    fn array_len(&self, node: NodeRef) -> usize {
        let (tag, count, _) = self.container_header(node);
        debug_assert_eq!(tag, NodeTag::Array);
        count
    }

    fn array_element(&self, node: NodeRef, i: usize) -> NodeRef {
        let (_, count, base) = self.container_header(node);
        debug_assert!(i < count);
        NodeRef::from(self.read_off(base.saturating_add(i * self.off_w())))
    }

    fn scalar(&self, node: NodeRef) -> ScalarRef<'_> {
        let (tag, p) = self.node_tag(node);
        match tag {
            NodeTag::Null => ScalarRef::Null,
            NodeTag::True => ScalarRef::Bool(true),
            NodeTag::False => ScalarRef::Bool(false),
            NodeTag::Str => {
                let s = self
                    .scalar_value_span(node)
                    .and_then(|(start, len)| wire::slice(self.bytes, start, len))
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .unwrap_or("");
                ScalarRef::Str(s)
            }
            NodeTag::NumOra => {
                // inlined in the tree node: length byte then OraNum bytes
                let d = self
                    .scalar_value_span(node)
                    .and_then(|(start, len)| wire::slice(self.bytes, start, len))
                    .and_then(|b| OraNum::from_bytes(b).ok());
                match d {
                    Some(d) => ScalarRef::Num(match d.to_i64() {
                        Some(i) => JsonNumber::Int(i),
                        None => JsonNumber::Dec(d),
                    }),
                    None => ScalarRef::Null,
                }
            }
            NodeTag::NumDouble => {
                let v = wire::read_f64_le(self.bytes, p).unwrap_or(0.0);
                ScalarRef::Num(JsonNumber::from(v))
            }
            NodeTag::Object | NodeTag::Array => {
                debug_assert!(false, "scalar() on container node");
                ScalarRef::Null
            }
        }
    }

    /// `JsonDomGetFieldValue`: resolve the name to an instance field id,
    /// then binary-search the object's sorted id array (§4.2.1–4.2.2).
    fn get_field(&self, node: NodeRef, name: &str, hash: u32) -> Option<NodeRef> {
        let _span = fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_OSON_GET_FIELD);
        let id = self.lookup_field_id(name, hash)?;
        self.get_field_by_id(node, id)
    }

    fn field_id(&self, name: &str, hash: u32) -> Option<FieldId> {
        self.lookup_field_id(name, hash)
    }

    fn has_field_ids(&self) -> bool {
        true
    }

    fn shared_names(&self) -> Option<(u64, usize)> {
        self.set.map(Dictionary::identity)
    }

    fn verify_field_id(&self, id: FieldId, name: &str, hash: u32) -> bool {
        if let Some(set) = self.set {
            return set.entry(id).is_some_and(|e| e.hash == hash && *e.text == *name);
        }
        wire::idx(id) < self.nfields
            && self.entry_hash(wire::idx(id)) == hash
            && self.field_name(id) == name
    }

    /// Lower-bound binary search: if the object repeats a field id
    /// (duplicate keys in the source document), this lands on the *first*
    /// occurrence in document order — the same member `Object::get`
    /// returns on the owned-value side.
    fn get_field_by_id(&self, node: NodeRef, id: FieldId) -> Option<NodeRef> {
        let (tag, count, base) = self.container_header(node);
        if tag != NodeTag::Object {
            return None;
        }
        let id_w = self.id_w();
        let (mut lo, mut hi) = (0usize, count);
        let mut probes: u64 = 1;
        while lo < hi {
            probes += 1;
            let mid = (lo + hi) / 2;
            if self.read_id(base + mid * id_w) < id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        metric::OSON_NODE_LOOKUPS.inc();
        metric::OSON_NODE_PROBES.add(probes);
        if lo < count && self.read_id(base + lo * id_w) == id {
            let offs = base + count * id_w;
            Some(NodeRef::from(self.read_off(offs + lo * self.off_w())))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode;
    use fsdm_json::parse;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn doc_of(
        text: &str,
    ) -> std::result::Result<(Vec<u8>, fsdm_json::JsonValue), Box<dyn std::error::Error>> {
        let v = parse(text)?;
        let bytes = encode(&v)?;
        Ok((bytes, v))
    }

    #[test]
    fn materialize_roundtrip() -> TestResult {
        let texts = [
            r#"{"a":1,"b":"s","c":true,"d":null,"e":[1,2,{"f":3.5}],"g":{}}"#,
            r#"{}"#,
            r#"{"x":[[],[[]]]}"#,
            r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
                {"name":"phone","price":100,"quantity":2},
                {"name":"ipad","price":350.86,"quantity":3}]}}"#,
        ];
        for t in texts {
            let (bytes, v) = doc_of(t)?;
            assert!(crate::decode(&bytes)?.eq_unordered(&v), "roundtrip {t}");
        }
        Ok(())
    }

    #[test]
    fn validate_accepts_encoder_output() -> TestResult {
        let texts = [
            r#"{}"#,
            r#"{"a":1}"#,
            r#"{"a":{"b":[10,20,30]},"z":"end","n":null,"t":true,"d":1.5e300}"#,
            r#"{"x":[[],[[]],{"deep":{"deeper":"v"}}]}"#,
        ];
        for t in texts {
            let (bytes, _) = doc_of(t)?;
            OsonDoc::new(&bytes)?.validate()?;
        }
        Ok(())
    }

    #[test]
    fn jump_navigation() -> TestResult {
        let (bytes, _) = doc_of(r#"{"a":{"b":[10,20,30]},"z":"end"}"#)?;
        let d = OsonDoc::new(&bytes)?;
        let root = d.root();
        assert_eq!(d.kind(root), NodeKind::Object);
        let a = d.get_field(root, "a", field_hash("a")).ok_or("field a missing")?;
        let b = d.get_field(a, "b", field_hash("b")).ok_or("field b missing")?;
        assert_eq!(d.array_len(b), 3);
        // positional jump to the 3rd element without touching the others
        let e2 = d.array_element(b, 2);
        assert_eq!(d.scalar(e2), ScalarRef::Num(JsonNumber::Int(30)));
        assert!(d.get_field(root, "missing", field_hash("missing")).is_none());
        Ok(())
    }

    #[test]
    fn field_ids_are_dictionary_ordinals() -> TestResult {
        let (bytes, _) = doc_of(r#"{"alpha":1,"beta":2,"gamma":3}"#)?;
        let d = OsonDoc::new(&bytes)?;
        assert_eq!(d.num_fields(), 3);
        // every name resolves, ids are dense 0..n
        let mut ids = Vec::new();
        for n in ["alpha", "beta", "gamma"] {
            ids.push(d.lookup_field_id(n, field_hash(n)).ok_or("unresolved name")?);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        // and ids map back to their names
        for n in ["alpha", "beta", "gamma"] {
            let id = d.lookup_field_id(n, field_hash(n)).ok_or("unresolved name")?;
            assert_eq!(d.field_name(id), n);
        }
        Ok(())
    }

    #[test]
    fn get_field_by_id_binary_search() -> TestResult {
        let (bytes, v) =
            doc_of(r#"{"f1":1,"f2":2,"f3":3,"f4":4,"f5":5,"f6":6,"f7":7,"f8":8,"f9":9}"#)?;
        let d = OsonDoc::new(&bytes)?;
        for (k, expected) in v.as_object().ok_or("not an object")?.iter() {
            let id = d.field_id(k, field_hash(k)).ok_or("unresolved name")?;
            let node = d.get_field_by_id(d.root(), id).ok_or("child missing")?;
            let n = *expected.as_number().ok_or("not a number")?;
            assert_eq!(d.scalar(node), ScalarRef::Num(n));
        }
        Ok(())
    }

    #[test]
    fn a_reader_is_shared_across_threads() {
        fn sync<T: Sync>() {}
        sync::<OsonDoc<'_>>();
    }

    #[test]
    fn a_member_needs_its_set_and_an_instance_is_not_a_member() -> TestResult {
        let mut set = crate::OsonSet::new();
        set.push(&parse(r#"{"a":{"b":1}}"#)?)?;
        let member = set.doc(0)?.as_bytes();
        // alone, its field ids index nothing
        let alone = OsonDoc::new(member)?;
        assert_eq!(alone.validate().map_err(|e| e.kind), Err(ErrorKind::Corrupt));
        let (instance, _) = doc_of(r#"{"a":1}"#)?;
        let refused = OsonDoc::member(&instance, set.dictionary()).map(|_| ());
        assert_eq!(refused.map_err(|e| e.kind), Err(ErrorKind::Corrupt));
        Ok(())
    }

    #[test]
    fn object_entry_names() -> TestResult {
        let (bytes, _) = doc_of(r#"{"b":1,"a":2}"#)?;
        let d = OsonDoc::new(&bytes)?;
        let mut names: Vec<&str> = (0..2).map(|i| d.object_entry(d.root(), i).0).collect();
        names.sort_unstable();
        assert_eq!(names, ["a", "b"]);
        Ok(())
    }

    #[test]
    fn rejects_corrupt_buffers() -> TestResult {
        assert!(OsonDoc::new(b"").is_err());
        assert!(OsonDoc::new(b"NOPE\x01\x00").is_err());
        let (mut bytes, _) = doc_of(r#"{"a":1}"#)?;
        bytes.truncate(bytes.len() - 1);
        assert!(OsonDoc::new(&bytes).is_err());
        let (mut bytes2, _) = doc_of(r#"{"a":1}"#)?;
        if let Some(v) = bytes2.get_mut(4) {
            *v = 99; // version
        }
        assert!(OsonDoc::new(&bytes2).is_err());
        Ok(())
    }

    #[test]
    fn error_kinds_distinguish_failures() -> TestResult {
        let bad_magic = OsonDoc::new(b"NOPE\x01\x00\x00\x00").map(|_| ());
        assert_eq!(bad_magic.err().map(|e| e.kind), Some(ErrorKind::BadMagic));
        let (mut bytes, _) = doc_of(r#"{"a":1}"#)?;
        if let Some(v) = bytes.get_mut(4) {
            *v = 99;
        }
        let bad_version = OsonDoc::new(&bytes).map(|_| ());
        assert_eq!(bad_version.err().map(|e| e.kind), Some(ErrorKind::UnsupportedVersion));
        Ok(())
    }

    #[test]
    fn numbers_preserve_decimal_exactness() -> TestResult {
        let (bytes, _) = doc_of(r#"{"d":350.86}"#)?;
        let d = OsonDoc::new(&bytes)?;
        let n = d.get_field(d.root(), "d", field_hash("d")).ok_or("field d missing")?;
        match d.scalar(n) {
            ScalarRef::Num(JsonNumber::Dec(x)) => {
                assert_eq!(x.to_decimal_string(), "350.86");
                Ok(())
            }
            other => Err(format!("expected exact decimal, got {other:?}").into()),
        }
    }

    #[test]
    fn duplicate_keys_survive() -> TestResult {
        let v = parse(r#"{"k":1,"k":2}"#)?;
        let bytes = encode(&v)?;
        OsonDoc::new(&bytes)?.validate()?;
        let back = crate::decode(&bytes)?;
        let o = back.as_object().ok_or("not an object")?;
        assert_eq!(o.len(), 2);
        Ok(())
    }

    #[test]
    fn duplicate_keys_lookup_first_wins() -> TestResult {
        // get_field on a repeated name must resolve to the first member in
        // document order, mirroring Object::get
        let v = parse(r#"{"k":1,"k":2,"z":3}"#)?;
        let bytes = encode(&v)?;
        let d = OsonDoc::new(&bytes)?;
        d.validate()?;
        let k = d.get_field(d.root(), "k", field_hash("k")).ok_or("field k missing")?;
        match d.scalar(k) {
            ScalarRef::Num(JsonNumber::Int(1)) => Ok(()),
            other => Err(format!("expected first occurrence (1), got {other:?}").into()),
        }
    }
}
