//! Structure signatures: the fast no-change path for persistent DataGuide
//! maintenance (§3.2.1).
//!
//! "In the common case where a new JSON instance doesn't result in any new
//! path structures or scalar node changes, the DataGuide processing
//! terminates without the need to call any persistent DataGuide processing
//! module." The insert pipeline hashes the instance *skeleton* (field
//! names, container shape, scalar types — not scalar values); a signature
//! already seen means the instance cannot add rows to `$DG`, so the guide
//! walk is skipped entirely.

use std::cell::RefCell;
use std::ops::Deref;

use fsdm_json::{JsonValue, SeededSet};

use crate::guide::DataGuide;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Hash of the document's structural skeleton. Two documents with the
/// same field names, nesting shape, and scalar types (lengths excluded)
/// produce the same signature.
pub fn structure_signature(doc: &JsonValue) -> u64 {
    let mut h = FNV_OFFSET;
    walk(doc, &mut h);
    h
}

/// A persistent DataGuide kept current document by document through the
/// signature fast path: a structure seen before only counts toward
/// `doc_count`, a new one is walked into the guide. Reads as the guide it
/// maintains; the guide changes through [`GuideMaintainer::observe`] only,
/// so "signature seen" always implies "structure merged".
#[derive(Debug, Default)]
pub struct GuideMaintainer {
    guide: DataGuide,
    seen: SeededSet<u64>,
    /// Documents whose guide walk the fast path skipped.
    pub fast_path_hits: u64,
}

impl GuideMaintainer {
    /// Count one document whose [`structure_signature`] is `signature`.
    /// Returns `true` when the fast path applied (no `$DG` work done).
    pub fn observe(&mut self, doc: &JsonValue, signature: u64) -> bool {
        if self.seen.insert(signature) {
            self.guide.add_document(doc);
            false
        } else {
            // the instance still counts toward frequency statistics
            self.guide.doc_count += 1;
            self.fast_path_hits += 1;
            true
        }
    }
}

impl Deref for GuideMaintainer {
    type Target = DataGuide;

    fn deref(&self) -> &DataGuide {
        &self.guide
    }
}

fn mix_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn mix(h: &mut u64, b: u8) {
    *h ^= b as u64;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// Buffers the walk orders members and deduplicates element hashes in,
/// reused across documents so that a walk allocates only while they grow
/// to the largest container the thread has met. Each container works on
/// the tail it pushed and truncates it before returning, so the walk
/// below it can push above.
#[derive(Default)]
struct Scratch {
    /// Member indices of the objects being walked, sorted per object.
    members: Vec<usize>,
    /// Distinct element hashes of the arrays being walked.
    elements: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

fn walk(v: &JsonValue, h: &mut u64) {
    SCRATCH.with(|scratch| walk_in(v, h, &mut scratch.borrow_mut()));
}

fn walk_in(v: &JsonValue, h: &mut u64, scratch: &mut Scratch) {
    match v {
        JsonValue::Object(o) => {
            mix(h, b'{');
            // sort member names so field order does not change the
            // signature (the guide is order-insensitive too); duplicate
            // names keep document order, and an unstable sort allocates
            // nothing
            let base = scratch.members.len();
            scratch.members.extend(0..o.len());
            let name = |i: usize| o.entry_at(i).map_or("", |(k, _)| k);
            scratch.members[base..].sort_unstable_by(|&a, &b| name(a).cmp(name(b)).then(a.cmp(&b)));
            for at in base..base + o.len() {
                if let Some((k, c)) = o.entry_at(scratch.members[at]) {
                    mix_bytes(h, k.as_bytes());
                    mix(h, b':');
                    walk_in(c, h, scratch);
                }
            }
            scratch.members.truncate(base);
            mix(h, b'}');
        }
        JsonValue::Array(a) => {
            mix(h, b'[');
            // element skeletons are deduplicated: an array of 2 vs 3
            // identically-shaped objects has identical guide impact
            let base = scratch.elements.len();
            for e in a {
                let mut eh = FNV_OFFSET;
                walk_in(e, &mut eh, scratch);
                if !scratch.elements[base..].contains(&eh) {
                    scratch.elements.push(eh);
                }
            }
            scratch.elements[base..].sort_unstable();
            for eh in &scratch.elements[base..] {
                mix_bytes(h, &eh.to_le_bytes());
            }
            scratch.elements.truncate(base);
            mix(h, b']');
        }
        JsonValue::String(_) => mix(h, b's'),
        JsonValue::Number(_) => mix(h, b'n'),
        JsonValue::Bool(_) => mix(h, b'b'),
        JsonValue::Null => mix(h, b'0'),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    fn sig(s: &str) -> u64 {
        structure_signature(&parse(s).unwrap())
    }

    #[test]
    fn value_changes_do_not_change_signature() {
        assert_eq!(sig(r#"{"a":1,"b":"x"}"#), sig(r#"{"a":999,"b":"yyyy"}"#));
    }

    #[test]
    fn field_order_is_insignificant() {
        assert_eq!(sig(r#"{"a":1,"b":2}"#), sig(r#"{"b":5,"a":7}"#));
    }

    #[test]
    fn new_field_changes_signature() {
        assert_ne!(sig(r#"{"a":1}"#), sig(r#"{"a":1,"b":2}"#));
    }

    #[test]
    fn scalar_type_change_changes_signature() {
        assert_ne!(sig(r#"{"a":1}"#), sig(r#"{"a":"1"}"#));
        assert_ne!(sig(r#"{"a":true}"#), sig(r#"{"a":null}"#));
    }

    #[test]
    fn array_cardinality_of_same_shape_is_insignificant() {
        assert_eq!(
            sig(r#"{"items":[{"p":1},{"p":2}]}"#),
            sig(r#"{"items":[{"p":9},{"p":8},{"p":7}]}"#)
        );
        assert_ne!(sig(r#"{"items":[{"p":1}]}"#), sig(r#"{"items":[{"p":1},{"q":2}]}"#));
    }

    #[test]
    fn arrays_of_many_shapes_dedup_in_any_order() {
        let shapes = r#"1,"s",true,null,{"a":1},{"b":1},[1],[[1]]"#;
        let reversed = r#"[[1]],[1],{"b":2},{"a":2},null,false,"t",2"#;
        assert_eq!(sig(&format!("[{shapes}]")), sig(&format!("[{reversed},{shapes}]")));
        assert_ne!(sig(&format!("[{shapes}]")), sig(&format!("[{shapes},{{\"c\":1}}]")));
    }

    #[test]
    fn nesting_shape_matters() {
        assert_ne!(sig(r#"{"a":{"b":1}}"#), sig(r#"{"a":[{"b":1}]}"#));
        assert_ne!(sig(r#"{"a":[1]}"#), sig(r#"{"a":[[1]]}"#));
    }

    const KEYS: [&str; 16] = [
        "a",
        "b",
        "d",
        "e",
        "g",
        "id",
        "tag",
        "qty",
        "name",
        "num",
        "str1",
        "str2",
        "bool",
        "dyn1",
        "nested_obj",
        "foreign id",
    ];
    const SCALARS: [&str; 4] = ["\"s\"", "1", "true", "null"];

    #[test]
    fn swapping_the_types_of_two_fields_changes_the_signature() {
        for (i, k1) in KEYS.iter().enumerate() {
            for k2 in &KEYS[i + 1..] {
                for (j, t1) in SCALARS.iter().enumerate() {
                    for t2 in &SCALARS[j + 1..] {
                        let one = format!(r#"{{"{k1}":{t1},"{k2}":{t2}}}"#);
                        let other = format!(r#"{{"{k1}":{t2},"{k2}":{t1}}}"#);
                        assert_ne!(sig(&one), sig(&other), "{one} vs {other}");
                        // the same swap between the elements of an array
                        let one = format!(r#"[{{"{k1}":{t1}}},{{"{k2}":{t2}}}]"#);
                        let other = format!(r#"[{{"{k1}":{t2}}},{{"{k2}":{t1}}}]"#);
                        assert_ne!(sig(&one), sig(&other), "{one} vs {other}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_maintained_guide_equals_a_full_one_when_fields_swap_types() {
        let mut maintained = GuideMaintainer::default();
        let mut full = DataGuide::new();
        for (k1, k2) in KEYS.iter().zip(&KEYS[1..]) {
            for (t1, t2) in [("\"s\"", "1"), ("1", "\"s\""), ("null", "1"), ("1", "null")] {
                let doc = parse(&format!(r#"{{"{k1}":{t1},"{k2}":{t2}}}"#)).unwrap();
                maintained.observe(&doc, structure_signature(&doc));
                full.add_document(&doc);
            }
        }
        assert_eq!(maintained.rows(), full.rows());
        assert_eq!(maintained.doc_count, full.doc_count);
    }

    #[test]
    fn signature_stability_matches_guide_equality() {
        // same-signature docs must merge into the guide without adding rows
        use crate::guide::DataGuide;
        let d1 = parse(r#"{"x":{"y":[{"z":1}]}}"#).unwrap();
        let d2 = parse(r#"{"x":{"y":[{"z":42},{"z":7}]}}"#).unwrap();
        assert_eq!(structure_signature(&d1), structure_signature(&d2));
        let mut g = DataGuide::new();
        g.add_document(&d1);
        let rows = g.distinct_paths();
        g.add_document(&d2);
        assert_eq!(g.distinct_paths(), rows);
    }
}
