//! The abstract JSON DOM interface of §5.1.
//!
//! The paper's DOM path engine evaluates SQL/JSON path steps through four
//! read operations (`JsonDomGetNodeType`, `JsonDomGetFieldValue`,
//! `JsonDomGetArrayElement`, `JsonDomGetScalarInfo`) so the same engine can
//! run over an in-memory DOM tree or directly over a serialized OSON
//! instance, where node addresses are byte offsets instead of machine
//! pointers. [`JsonDom`] is that interface; [`ValueDom`] adapts the
//! in-memory [`JsonValue`] tree to it, and `fsdm-oson` implements it over
//! serialized bytes.

use crate::number::JsonNumber;
use crate::value::JsonValue;

/// Abstract tree-node address. For [`ValueDom`] this is a dense node index;
/// for OSON it is the byte offset of the node within the tree-node
/// navigation segment.
pub type NodeRef = u64;

/// Instance-scoped field name identifier (OSON: ordinal in the hash-sorted
/// field-id-name dictionary).
pub type FieldId = u32;

/// The three JSON tree-node kinds of the paper's data model (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Key/value structure.
    Object,
    /// Ordered list.
    Array,
    /// Leaf value.
    Scalar,
}

/// A borrowed view of a scalar leaf (what `JsonDomGetScalarInfo` returns).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarRef<'a> {
    /// String leaf.
    Str(&'a str),
    /// Numeric leaf.
    Num(JsonNumber),
    /// Boolean leaf.
    Bool(bool),
    /// Null leaf.
    Null,
}

impl ScalarRef<'_> {
    /// Materialize as an owned [`JsonValue`].
    pub fn to_value(&self) -> JsonValue {
        match self {
            ScalarRef::Str(s) => JsonValue::String((*s).to_string()),
            ScalarRef::Num(n) => JsonValue::Number(*n),
            ScalarRef::Bool(b) => JsonValue::Bool(*b),
            ScalarRef::Null => JsonValue::Null,
        }
    }
}

/// The shared 32-bit FNV-1a hash used for field names. SQL/JSON path
/// compilation pre-computes this per path step (§4.2.1) so execution never
/// re-hashes names; the OSON encoder uses the identical function to build
/// its field-id-name dictionary.
pub fn field_hash(name: &str) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in name.as_bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// Read-only DOM access, implementable over in-memory trees and serialized
/// binary instances alike.
pub trait JsonDom {
    /// Address of the document root node.
    fn root(&self) -> NodeRef;

    /// `JsonDomGetNodeType`.
    fn kind(&self, node: NodeRef) -> NodeKind;

    /// Number of members of an object node.
    fn object_len(&self, node: NodeRef) -> usize;

    /// Member at position `i` of an object node, in storage order.
    /// (Wildcard steps iterate with this.)
    fn object_entry(&self, node: NodeRef, i: usize) -> (&str, NodeRef);

    /// Number of elements of an array node.
    fn array_len(&self, node: NodeRef) -> usize;

    /// `JsonDomGetArrayElement` for one index.
    fn array_element(&self, node: NodeRef, i: usize) -> NodeRef;

    /// `JsonDomGetScalarInfo`.
    fn scalar(&self, node: NodeRef) -> ScalarRef<'_>;

    /// `JsonDomGetFieldValue` by name: find the child of an object node.
    /// `hash` is the pre-computed [`field_hash`] of `name`.
    fn get_field(&self, node: NodeRef, name: &str, hash: u32) -> Option<NodeRef>;

    /// Resolve a field name to this instance's [`FieldId`], if the
    /// implementation has an instance dictionary (OSON does; a plain DOM
    /// does not). Enables the cross-instance look-back cache of §4.2.1.
    fn field_id(&self, name: &str, hash: u32) -> Option<FieldId> {
        let _ = (name, hash);
        None
    }

    /// Child lookup by a [`FieldId`] previously returned by
    /// [`JsonDom::field_id`] on this instance, or one that
    /// [`JsonDom::verify_field_id`] accepts here.
    fn get_field_by_id(&self, node: NodeRef, id: FieldId) -> Option<NodeRef> {
        let _ = (node, id);
        None
    }

    /// True when this implementation resolves fields through an instance
    /// dictionary (i.e. [`JsonDom::field_id`] is meaningful).
    fn has_field_ids(&self) -> bool {
        false
    }

    /// The identity and number of names of the dictionary this DOM's
    /// field ids index, when that dictionary is shared with other
    /// documents (an OSON set member's); `None` when it is the instance's
    /// own. Two documents reporting the same pair map every name to the
    /// same id, or both lack it, so a name resolved in one is resolved in
    /// the other without [`JsonDom::verify_field_id`].
    fn shared_names(&self) -> Option<(u64, usize)> {
        None
    }

    /// O(1) validation that `id` maps to `name` *in this instance's*
    /// dictionary — the cheap form of the §4.2.1 single-row look-back: a
    /// field id cached from the previous document is reused iff this
    /// document's dictionary assigns the same name to it.
    fn verify_field_id(&self, id: FieldId, name: &str, hash: u32) -> bool {
        let _ = (id, name, hash);
        false
    }

    /// Materialize the subtree at `node` as an owned [`JsonValue`].
    ///
    /// Panics (rather than overflowing the stack) if the structure is
    /// deeper than [`crate::parse::MAX_DEPTH`] — which can only happen on
    /// a corrupt binary instance whose node references form a cycle.
    fn materialize(&self, node: NodeRef) -> JsonValue {
        self.materialize_depth(node, 0)
    }

    /// Depth-tracked materialization (see [`JsonDom::materialize`]).
    fn materialize_depth(&self, node: NodeRef, depth: usize) -> JsonValue {
        assert!(
            depth <= crate::parse::MAX_DEPTH,
            "materialize: structure exceeds maximum depth (corrupt instance?)"
        );
        match self.kind(node) {
            NodeKind::Scalar => self.scalar(node).to_value(),
            NodeKind::Array => {
                let n = self.array_len(node);
                let mut out = Vec::with_capacity(n.min(1024));
                for i in 0..n {
                    out.push(self.materialize_depth(self.array_element(node, i), depth + 1));
                }
                JsonValue::Array(out)
            }
            NodeKind::Object => {
                let n = self.object_len(node);
                let mut o = crate::value::Object::with_capacity(n.min(1024));
                for i in 0..n {
                    let (k, c) = self.object_entry(node, i);
                    let key = k.to_string();
                    let child = self.materialize_depth(c, depth + 1);
                    o.push(key, child);
                }
                JsonValue::Object(o)
            }
        }
    }
}

/// Flattened index over an in-memory [`JsonValue`] tree implementing
/// [`JsonDom`]. Node addresses are dense pre-order indices.
pub struct ValueDom<'a> {
    nodes: Vec<&'a JsonValue>,
    /// (start, len) into `children` for container nodes.
    spans: Vec<(u32, u32)>,
    children: Vec<u32>,
}

impl<'a> ValueDom<'a> {
    /// Build the index (one pass over the tree).
    pub fn new(root: &'a JsonValue) -> Self {
        let n = root.node_count();
        let mut dom = ValueDom {
            nodes: Vec::with_capacity(n),
            spans: Vec::with_capacity(n),
            children: Vec::with_capacity(n.saturating_sub(1)),
        };
        dom.add(root);
        dom
    }

    fn add(&mut self, v: &'a JsonValue) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(v);
        self.spans.push((0, 0));
        let kids: Vec<u32> = match v {
            JsonValue::Object(o) => o.iter().map(|(_, c)| self.add(c)).collect(),
            JsonValue::Array(a) => a.iter().map(|c| self.add(c)).collect(),
            _ => Vec::new(),
        };
        let start = self.children.len() as u32;
        let len = kids.len() as u32;
        self.children.extend_from_slice(&kids);
        self.spans[idx as usize] = (start, len);
        idx
    }

    fn node(&self, r: NodeRef) -> &'a JsonValue {
        self.nodes[r as usize]
    }

    fn kids(&self, r: NodeRef) -> &[u32] {
        let (start, len) = self.spans[r as usize];
        &self.children[start as usize..(start + len) as usize]
    }
}

impl JsonDom for ValueDom<'_> {
    fn root(&self) -> NodeRef {
        0
    }

    fn kind(&self, node: NodeRef) -> NodeKind {
        match self.node(node) {
            JsonValue::Object(_) => NodeKind::Object,
            JsonValue::Array(_) => NodeKind::Array,
            _ => NodeKind::Scalar,
        }
    }

    fn object_len(&self, node: NodeRef) -> usize {
        self.node(node).as_object().map_or(0, |o| o.len())
    }

    fn object_entry(&self, node: NodeRef, i: usize) -> (&str, NodeRef) {
        let o = self.node(node).as_object().expect("object node");
        let (k, _) = o.entry_at(i).expect("in range");
        (k, self.kids(node)[i] as NodeRef)
    }

    fn array_len(&self, node: NodeRef) -> usize {
        self.node(node).as_array().map_or(0, |a| a.len())
    }

    fn array_element(&self, node: NodeRef, i: usize) -> NodeRef {
        self.kids(node)[i] as NodeRef
    }

    fn scalar(&self, node: NodeRef) -> ScalarRef<'_> {
        match self.node(node) {
            JsonValue::String(s) => ScalarRef::Str(s),
            JsonValue::Number(n) => ScalarRef::Num(*n),
            JsonValue::Bool(b) => ScalarRef::Bool(*b),
            JsonValue::Null => ScalarRef::Null,
            _ => panic!("scalar() called on container node"),
        }
    }

    fn get_field(&self, node: NodeRef, name: &str, _hash: u32) -> Option<NodeRef> {
        let o = self.node(node).as_object()?;
        for (i, (k, _)) in o.iter().enumerate() {
            if k == name {
                return Some(self.kids(node)[i] as NodeRef);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn field_hash_is_stable_fnv1a() {
        assert_eq!(field_hash(""), 0x811c9dc5);
        assert_eq!(field_hash("a"), 0xe40c292c);
        assert_ne!(field_hash("name"), field_hash("Name"));
    }

    #[test]
    fn value_dom_navigation() {
        let v = parse(r#"{"a":{"b":[1,"x",true]},"c":null}"#).unwrap();
        let dom = ValueDom::new(&v);
        let root = dom.root();
        assert_eq!(dom.kind(root), NodeKind::Object);
        assert_eq!(dom.object_len(root), 2);

        let a = dom.get_field(root, "a", field_hash("a")).unwrap();
        assert_eq!(dom.kind(a), NodeKind::Object);
        let b = dom.get_field(a, "b", field_hash("b")).unwrap();
        assert_eq!(dom.kind(b), NodeKind::Array);
        assert_eq!(dom.array_len(b), 3);
        assert_eq!(dom.scalar(dom.array_element(b, 0)), ScalarRef::Num(JsonNumber::Int(1)));
        assert_eq!(dom.scalar(dom.array_element(b, 1)), ScalarRef::Str("x"));
        assert_eq!(dom.scalar(dom.array_element(b, 2)), ScalarRef::Bool(true));

        let c = dom.get_field(root, "c", field_hash("c")).unwrap();
        assert_eq!(dom.scalar(c), ScalarRef::Null);
        assert!(dom.get_field(root, "zz", field_hash("zz")).is_none());
    }

    #[test]
    fn object_entry_iteration() {
        let v = parse(r#"{"x":1,"y":2}"#).unwrap();
        let dom = ValueDom::new(&v);
        let (k0, n0) = dom.object_entry(dom.root(), 0);
        let (k1, _) = dom.object_entry(dom.root(), 1);
        assert_eq!((k0, k1), ("x", "y"));
        assert_eq!(dom.scalar(n0), ScalarRef::Num(JsonNumber::Int(1)));
    }

    #[test]
    fn materialize_roundtrip() {
        let v = parse(r#"{"a":[{"b":1},{"b":2}],"s":"t","n":3.5,"f":false,"z":null}"#).unwrap();
        let dom = ValueDom::new(&v);
        assert_eq!(dom.materialize(dom.root()), v);
    }

    #[test]
    fn default_field_id_is_none() {
        let v = parse("{}").unwrap();
        let dom = ValueDom::new(&v);
        assert!(dom.field_id("a", field_hash("a")).is_none());
    }
}
