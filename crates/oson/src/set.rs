//! OSON **set encoding** — the paper's §7 future-work direction: "the
//! common field-id-name dictionary segments can be extracted from each
//! OSON instance and merged into a single dictionary in the in-memory
//! store. This would reduce memory consumption and improve query
//! performance because field name to id mapping can be done once for the
//! entire in-memory store."
//!
//! A member of an [`OsonSet`] is the ordinary instance [`Encoder`] writes,
//! with an empty dictionary segment: its field ids index the set's
//! [`Dictionary`], which is the set's encoder's intern table. Ids are
//! positions in first-seen order and the table is never cleared, so
//! appending a document never renumbers an earlier member. An
//! [`OsonDoc`] opened on a member with [`OsonDoc::member`] resolves names
//! through that dictionary; every other read is the instance reader's.
//!
//! The set also records, once for the set, which members use each name:
//! per name an ascending list of the members that hold it at any depth
//! ([`OsonSet::members_with`]). A list is dropped once it would hold more
//! than `max(64, members / 8)` ids — a dense name narrows nothing worth
//! its bytes — and is never rebuilt, so a list that exists is complete.
//! A path with a field step whose name a member lacks selects nothing in
//! that member: a reader may answer it without opening the member (the
//! IMC's storage-index pruning, at member grain).
//!
//! Unlike Dremel's columnar encoding, every member keeps its own tree, so
//! fully **heterogeneous** collections are fine: a field may be a string
//! in one document, a number in the next, an object or array in a third
//! (§7's explicit requirement). Only the name→id mapping is shared.
//!
//! Per the paper's closing vision: the on-disk format stays the
//! self-contained instance (`fsdm_oson::encode`); a set is the
//! non-self-contained, query-friendly **in-memory** companion — the
//! store's OSON-IMC holds a JSON column as one set. Names are only
//! appended, so a dictionary's identity (a number of its own) and its
//! length, which a member reports through
//! [`fsdm_json::JsonDom::shared_names`], tell a reader when a name it
//! resolved in one member is resolved for every member: the path engine
//! then resolves each name once per worker's evaluator instead of once
//! per document.

// the dictionary is read on the decode hot path of every member: a
// lookup is total, and index arithmetic never truncates silently
// (DESIGN.md §8)
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

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use fsdm_json::{field_hash, FieldId, JsonValue};

use crate::encoder::Encoder;
use crate::wire::idx;
use crate::{OsonDoc, OsonError, Result};

/// A field name held by a [`Dictionary`].
#[derive(Debug)]
pub(crate) struct Name {
    pub(crate) text: Box<str>,
    pub(crate) hash: u32,
    /// The last document (by the encoder's epoch) that used the name.
    pub(crate) stamp: u64,
    /// Its field id in that document; a set's ids are positions.
    pub(crate) id: u32,
}

/// Field names in first-seen order, each stored once, with a hash index
/// over them. An [`Encoder`]'s intern table; a set's encoder never clears
/// it, and then it is the set's dictionary: a name's position is its id.
#[derive(Debug, Default)]
pub struct Dictionary {
    pub(crate) entries: Vec<Name>,
    /// Open-addressed index over `entries`, probed linearly from a name's
    /// hash: a slot holds a position plus one, 0 when empty. At most half
    /// full, so every probe ends at an empty slot.
    slots: Vec<u32>,
    /// A set's dictionary: a number no other set's has; 0 for an
    /// encoder's own table, which no reader shares.
    serial: u64,
}

impl Dictionary {
    /// A set's dictionary, numbered apart from every other.
    pub(crate) fn for_set() -> Self {
        static SETS: AtomicU64 = AtomicU64::new(1);
        Dictionary { serial: SETS.fetch_add(1, Ordering::Relaxed), ..Self::default() }
    }

    /// This dictionary's identity and number of names. Names are only
    /// appended and never renumbered, so two readers that see the same
    /// pair see the same names at the same ids.
    pub(crate) fn identity(&self) -> (u64, usize) {
        (self.serial, self.len())
    }

    /// Number of distinct field names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no names are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The name at position `id`.
    pub fn name(&self, id: FieldId) -> Option<&str> {
        self.entry(id).map(|n| &*n.text)
    }

    pub(crate) fn entry(&self, id: FieldId) -> Option<&Name> {
        self.entries.get(idx(id))
    }

    /// The position of `name` (whose [`field_hash`] is `hash`), with the
    /// slots probed to find it or its absence.
    pub(crate) fn find(&self, name: &str, hash: u32) -> (Option<FieldId>, u64) {
        let (found, probes) = self.probe(name, hash);
        (found.ok(), probes)
    }

    /// `Ok(position)` of `name`, or `Err(slot)`: the empty slot it would
    /// take.
    fn probe(&self, name: &str, hash: u32) -> (std::result::Result<FieldId, usize>, u64) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut slot = idx(hash) & mask;
        let mut probes = 1;
        loop {
            let Some(n) = self.slots.get(slot).and_then(|s| s.checked_sub(1)) else {
                return (Err(slot), probes);
            };
            if self.entry(n).is_some_and(|e| e.hash == hash && *e.text == *name) {
                return (Ok(n), probes);
            }
            slot = slot.wrapping_add(1) & mask;
            probes += 1;
        }
    }

    /// The position of `name`, which is appended if new.
    pub(crate) fn intern(&mut self, name: &str) -> Result<u32> {
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.reindex((2 * self.slots.len()).max(16));
        }
        let hash = field_hash(name);
        match self.probe(name, hash).0 {
            Ok(n) => Ok(n),
            Err(slot) => {
                let n = u32::try_from(self.entries.len())
                    .map_err(|_| OsonError::limit("too many field names"))?;
                let cell = self
                    .slots
                    .get_mut(slot)
                    .ok_or_else(|| OsonError::usage("dictionary index full"))?;
                *cell = n + 1;
                self.entries.push(Name { text: name.into(), hash, stamp: 0, id: n });
                Ok(n)
            }
        }
    }

    /// Make room for `additional` more names.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        if 2 * self.entries.capacity() > self.slots.len() {
            self.reindex((2 * self.entries.capacity()).next_power_of_two());
        }
    }

    /// Keep the first `len` names only.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
        self.reindex(self.slots.len());
    }

    /// Rebuild the index over `slots` slots, a power of two.
    fn reindex(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, 0);
        let mask = slots.wrapping_sub(1);
        for (n, name) in (1u32..).zip(&self.entries) {
            let mut slot = idx(name.hash) & mask;
            while let Some(cell) = self.slots.get_mut(slot) {
                if *cell == 0 {
                    *cell = n;
                    break;
                }
                slot = slot.wrapping_add(1) & mask;
            }
        }
    }

    /// Heap bytes held: the names, their entries and the index.
    pub(crate) fn heap_size(&self) -> usize {
        self.entries.capacity() * size_of::<Name>()
            + self.entries.iter().map(|n| n.text.len()).sum::<usize>()
            + self.slots.capacity() * size_of::<u32>()
    }
}

/// A set-encoded in-memory collection: members share one [`Dictionary`].
#[derive(Debug)]
pub struct OsonSet {
    /// Writes the members; its intern table is the set's dictionary.
    encoder: Encoder,
    /// Each member at its exact length.
    members: Vec<Box<[u8]>>,
    /// Per name, by id: the members that use it at any depth, ascending;
    /// `None` once dropped for holding too many (see the module doc).
    users: Vec<Option<Vec<u32>>>,
}

impl Default for OsonSet {
    fn default() -> Self {
        OsonSet { encoder: Encoder::for_set(), members: Vec::new(), users: Vec::new() }
    }
}

/// The most ids a name's member list holds in a set of `members`: one id
/// more drops it.
fn list_cap(members: usize) -> usize {
    (members / 8).max(64)
}

impl OsonSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a document. Its new names join the dictionary after every
    /// name met before, so no earlier member changes. A set holds at most
    /// 65 535 distinct names (member field ids are 16-bit); a document
    /// that would exceed it is refused with [`crate::ErrorKind::Limit`]
    /// and leaves the set as it was.
    pub fn push(&mut self, v: &JsonValue) -> Result<()> {
        let id = u32::try_from(self.members.len())
            .map_err(|_| OsonError::limit("a set holds fewer than 2^32 members"))?;
        let bytes = self.encoder.encode(v)?;
        self.members.push(bytes.into_boxed_slice());
        let cap = list_cap(self.members.len());
        self.users.resize_with(self.encoder.names().len(), || Some(Vec::new()));
        for &n in self.encoder.member_names() {
            let Some(users) = self.users.get_mut(idx(n)) else { continue };
            match users {
                Some(list) if list.len() < cap => list.push(id),
                _ => *users = None,
            }
        }
        Ok(())
    }

    /// The members that use `name` at any depth, ascending: `Some(&[])`
    /// for a name no member uses, `None` when its list was dropped (the
    /// name is too common to narrow anything).
    pub fn members_with(&self, name: &str) -> Option<&[u32]> {
        match self.dictionary().find(name, field_hash(name)).0 {
            None => Some(&[]),
            Some(id) => self.users.get(idx(id))?.as_deref(),
        }
    }

    /// The shared dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        self.encoder.names()
    }

    /// Number of documents in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the set holds no documents.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The reader over member `i`.
    pub fn doc(&self, i: usize) -> Result<OsonDoc<'_>> {
        let bytes = self
            .members
            .get(i)
            .ok_or_else(|| OsonError::usage(format!("no member {i} in a set of {}", self.len())))?;
        OsonDoc::member(bytes, self.dictionary())
    }

    /// Every heap byte the set holds: the members, their entries, the
    /// dictionary with its index, the member lists and the encoder's
    /// buffers. Compare it with the bytes self-contained instances hold to
    /// see §7's saving.
    pub fn heap_size(&self) -> usize {
        self.members.capacity() * size_of::<Box<[u8]>>()
            + self.members.iter().map(|m| m.len()).sum::<usize>()
            + self.users.capacity() * size_of::<Option<Vec<u32>>>()
            + self.users.iter().flatten().map(|l| l.capacity() * size_of::<u32>()).sum::<usize>()
            + self.encoder.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorKind;
    use fsdm_json::{parse, JsonDom};

    fn build(texts: &[&str]) -> OsonSet {
        let mut set = OsonSet::new();
        for t in texts {
            set.push(&parse(t).unwrap()).unwrap();
        }
        set
    }

    #[test]
    fn roundtrip_per_document() {
        let texts = [
            r#"{"name":"a","price":1.5,"tags":["x","y"]}"#,
            r#"{"name":"b","price":2,"nested":{"deep":[true,null]}}"#,
            r#"{"other":42}"#,
        ];
        let set = build(&texts);
        assert_eq!(set.len(), 3);
        for (i, t) in texts.iter().enumerate() {
            let doc = set.doc(i).unwrap();
            doc.validate().unwrap();
            let back = doc.materialize(doc.root());
            assert!(back.eq_unordered(&parse(t).unwrap()), "doc {i}");
        }
        assert!(set.doc(3).is_err());
    }

    #[test]
    fn members_store_no_dictionary_and_ids_are_first_seen_positions() {
        let set = build(&[r#"{"zeta":1,"alpha":{"zeta":2}}"#, r#"{"beta":3,"alpha":4}"#]);
        let names: Vec<_> = (0..3).map(|id| set.dictionary().name(id).unwrap()).collect();
        assert_eq!(names, ["zeta", "alpha", "beta"]);
        for i in 0..set.len() {
            let doc = set.doc(i).unwrap();
            assert_eq!(crate::SegmentStats::of(doc.as_bytes()).unwrap().dictionary, 0);
            assert_eq!(doc.field_id("beta", field_hash("beta")), Some(2));
        }
    }

    #[test]
    fn heterogeneous_types_per_field_are_fine() {
        // §7: "field 'name' is a string … an integer … a nested object …
        // an array" — the per-instance trees make this trivial
        let set = build(&[
            r#"{"name":"s"}"#,
            r#"{"name":7}"#,
            r#"{"name":{"inner":1}}"#,
            r#"{"name":[1,2]}"#,
        ]);
        use fsdm_json::NodeKind::*;
        let kinds: Vec<_> = (0..4)
            .map(|i| {
                let d = set.doc(i).unwrap();
                let n = d.get_field(d.root(), "name", field_hash("name")).unwrap();
                d.kind(n)
            })
            .collect();
        assert_eq!(kinds, vec![Scalar, Scalar, Object, Array]);
    }

    #[test]
    fn shared_dictionary_saves_memory_on_homogeneous_sets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let docs: Vec<JsonValue> = (0..200)
            .map(|i| {
                let text = format!(
                    r#"{{"customer_reference":"c{}","shipping_priority":{},"order_total_amount":{}.{:02},
                        "warehouse_location":"w{}","delivery_instructions":"leave at door {}"}}"#,
                    i,
                    rng.gen_range(0..5),
                    rng.gen_range(1..999),
                    rng.gen_range(0..99),
                    rng.gen_range(0..50),
                    i
                );
                parse(&text).unwrap()
            })
            .collect();
        let individual: usize = docs.iter().map(|d| crate::encode(d).unwrap().len()).sum();
        let mut set = OsonSet::new();
        for d in &docs {
            set.push(d).unwrap();
        }
        let shared = set.heap_size();
        assert!(
            (shared as f64) < individual as f64 * 0.85,
            "set {shared} vs individual {individual}"
        );
    }

    #[test]
    fn lookback_always_hits_across_the_set() {
        // the engine's verify step: resolve once, reuse on every doc
        let set = build(&[r#"{"a":1,"b":2}"#, r#"{"a":3}"#, r#"{"b":4,"a":5}"#]);
        let h = field_hash("a");
        let id = set.doc(0).unwrap().field_id("a", h).unwrap();
        for i in 0..set.len() {
            let doc = set.doc(i).unwrap();
            assert!(doc.verify_field_id(id, "a", h), "doc {i}");
            assert!(!doc.verify_field_id(id, "b", field_hash("b")), "doc {i}");
        }
    }

    #[test]
    fn new_names_leave_earlier_members_unchanged() {
        let texts = [r#"{"a":1,"b":{"c":[true,"x"]}}"#, r#"{"c":2,"a":{"b":null}}"#];
        let mut set = build(&texts);
        let before: Vec<Vec<u8>> =
            (0..2).map(|i| set.doc(i).unwrap().as_bytes().to_vec()).collect();
        let ids: Vec<_> =
            ["a", "b", "c"].iter().map(|n| set.dictionary().find(n, field_hash(n)).0).collect();
        // enough new names that later members need two-byte field ids
        let mut wide = fsdm_json::Object::new();
        for i in 0..300 {
            wide.push(format!("n{i}"), JsonValue::from(i as i64));
        }
        wide.push("a", JsonValue::from(7i64));
        set.push(&JsonValue::Object(wide)).unwrap();
        set.doc(2).unwrap().validate().unwrap();
        for (i, t) in texts.iter().enumerate() {
            let doc = set.doc(i).unwrap();
            assert_eq!(doc.as_bytes(), before[i], "member {i}");
            doc.validate().unwrap();
            assert!(doc.materialize(doc.root()).eq_unordered(&parse(t).unwrap()), "member {i}");
        }
        for (n, id) in ["a", "b", "c"].iter().zip(ids) {
            assert_eq!(set.dictionary().find(n, field_hash(n)).0, id, "{n}");
        }
    }

    #[test]
    fn the_65536th_distinct_name_is_a_limit() {
        let object_of = |range: std::ops::Range<usize>| {
            let mut o = fsdm_json::Object::new();
            for i in range {
                o.push(format!("f{i}"), JsonValue::Null);
            }
            JsonValue::Object(o)
        };
        let mut set = OsonSet::new();
        set.push(&object_of(0..65_000)).unwrap();
        set.push(&object_of(64_000..65_535)).unwrap();
        assert_eq!(set.dictionary().len(), 65_535);
        let lists = set.users.clone();
        let heap = set.heap_size();
        let err = set.push(&object_of(65_530..65_536)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Limit);
        // the refused document left nothing behind
        assert_eq!((set.len(), set.dictionary().len()), (2, 65_535));
        assert_eq!(set.dictionary().find("f65535", field_hash("f65535")).0, None);
        assert_eq!(set.users, lists, "every member list unchanged");
        assert_eq!(set.heap_size(), heap);
        assert_eq!(set.members_with("f65534"), Some(&[1][..]));
        assert_eq!(set.members_with("f65535"), Some(&[][..]));
        set.push(&object_of(65_530..65_535)).unwrap();
        let last = set.doc(2).unwrap();
        last.validate().unwrap();
        let id = last.field_id("f65534", field_hash("f65534")).unwrap();
        assert_eq!(id, 65_534);
        assert!(last.get_field_by_id(last.root(), id).is_some());
    }

    /// Every name `v` uses at any depth.
    fn names_in(v: &JsonValue, out: &mut std::collections::BTreeSet<String>) {
        match v {
            JsonValue::Object(o) => {
                for (k, c) in o.iter() {
                    out.insert(k.to_string());
                    names_in(c, out);
                }
            }
            JsonValue::Array(a) => a.iter().for_each(|c| names_in(c, out)),
            _ => {}
        }
    }

    #[test]
    fn member_lists_equal_a_scan_of_the_members() {
        let texts = [
            r#"{"a":1,"b":{"nested":2}}"#,
            r#"[{"in_array":1},{"a":[{"deeper":null}]}]"#,
            r#"{"b":3,"b":4}"#,
            r#"7"#,
            r#"{"c":{"nested":{"in_array":[{"deeper":1}]}}}"#,
            r#"{}"#,
            r#"{"a":{"a":{"a":1}},"e":""}"#,
        ];
        let set = build(&texts);
        for id in 0..set.dictionary().len() {
            let name = set.dictionary().name(id as FieldId).unwrap();
            let brute: Vec<u32> = (0..set.len())
                .filter(|&i| {
                    let doc = set.doc(i).unwrap();
                    let mut names = Default::default();
                    names_in(&doc.materialize(doc.root()), &mut names);
                    names.contains(name)
                })
                .map(|i| i as u32)
                .collect();
            assert_eq!(set.members_with(name), Some(&brute[..]), "{name}");
        }
        assert_eq!(set.members_with("deeper"), Some(&[1, 4][..]), "nested and in arrays");
        assert_eq!(set.members_with("in_array"), Some(&[1, 4][..]));
        assert_eq!(set.members_with("absent"), Some(&[][..]), "no member uses it");
    }

    #[test]
    fn a_dense_names_list_is_dropped_and_a_rare_ones_kept() {
        let mut set = OsonSet::new();
        let doc = |i: usize| {
            let rare = if i.is_multiple_of(50) { r#","rare":1"# } else { "" };
            parse(&format!(r#"{{"dense":{i}{rare}}}"#)).unwrap()
        };
        for i in 0..64 {
            set.push(&doc(i)).unwrap();
        }
        // at the cap: 64 ids in a set of 64
        assert_eq!(set.members_with("dense").map(<[u32]>::len), Some(64));
        set.push(&doc(64)).unwrap();
        assert_eq!(set.members_with("dense"), None, "a 65th id would pass max(64, 65 / 8)");
        for i in 65..1000 {
            set.push(&doc(i)).unwrap();
        }
        assert_eq!(set.members_with("dense"), None, "a dropped list is never rebuilt");
        let rare: Vec<u32> = (0..1000).step_by(50).collect();
        assert_eq!(set.members_with("rare"), Some(&rare[..]));
    }

    #[test]
    fn heap_size_counts_the_member_lists() {
        let mut set = build(&[r#"{"a":1,"b":[{"c":2}]}"#, r#"{"a":2,"d":3}"#]);
        let with = set.heap_size();
        let lists = set.users.capacity() * size_of::<Option<Vec<u32>>>()
            + set.users.iter().flatten().map(|l| l.capacity() * size_of::<u32>()).sum::<usize>();
        assert!(lists >= 4 * (size_of::<Option<Vec<u32>>>() + size_of::<u32>()), "{lists}");
        set.users = Vec::new();
        assert_eq!(set.heap_size(), with - lists);
    }

    #[test]
    fn empty_and_unknown_names() {
        let set = build(&[r#"{}"#]);
        let d = set.doc(0).unwrap();
        assert_eq!(d.object_len(d.root()), 0);
        assert!(d.get_field(d.root(), "zz", field_hash("zz")).is_none());
        assert!(set.dictionary().is_empty());
    }
}
