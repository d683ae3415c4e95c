//! The DataGuide tree: instance extraction, merge, and the flat `$DG`
//! row form.
//!
//! A node's children are hashed by name (under the process-keyed
//! [`fsdm_json::SeededState`]: names come from documents) and sorted only
//! where output is produced — the `$DG` rows, the hierarchical form, the
//! generated views — so the walk of a document whose paths are all known
//! allocates nothing.

use std::collections::BTreeMap;

use fsdm_json::{JsonValue, SeededMap};
use fsdm_obs::catalog::metric;

/// Scalar leaf types tracked by the guide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScalarKind {
    /// JSON string.
    String,
    /// JSON number.
    Number,
    /// JSON boolean.
    Boolean,
    /// JSON null.
    Null,
}

impl ScalarKind {
    /// Type name as reported in `$DG`.
    pub fn name(&self) -> &'static str {
        match self {
            ScalarKind::String => "string",
            ScalarKind::Number => "number",
            ScalarKind::Boolean => "boolean",
            ScalarKind::Null => "null",
        }
    }
}

/// Occurrence statistics for one (path, node-kind).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindStats {
    /// Number of documents in which this (path, kind) occurs.
    pub doc_count: u64,
    /// Total occurrences (can exceed doc_count under arrays).
    pub occurrences: u64,
    /// True if any occurrence sits below an array on its path — this is
    /// what prefixes the reported type with "array of".
    pub under_array: bool,
    /// Internal: id of the last document counted (dedups doc_count).
    last_doc: u64,
}

impl KindStats {
    fn hit(&mut self, doc_id: u64, under_array: bool) {
        self.occurrences += 1;
        self.under_array |= under_array;
        if self.last_doc != doc_id {
            self.last_doc = doc_id;
            self.doc_count += 1;
        }
    }

    fn merge(&mut self, other: &KindStats) {
        self.doc_count += other.doc_count;
        self.occurrences += other.occurrences;
        self.under_array |= other.under_array;
    }

    /// True once at least one occurrence was recorded.
    pub fn seen(&self) -> bool {
        self.occurrences > 0
    }
}

/// Statistics for scalar occurrences at one path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalarStats {
    /// Occurrences of *any* scalar at this path (documents counted once
    /// even when a document holds several scalar types here).
    pub any: KindStats,
    /// Per-scalar-type occurrence stats.
    pub kinds: BTreeMap<ScalarKind, KindStats>,
    /// Maximum value byte length observed (strings: byte length; numbers:
    /// literal length).
    pub max_len: usize,
    /// Minimum scalar value observed (numbers compare numerically).
    pub min: Option<JsonValue>,
    /// Maximum scalar value observed.
    pub max: Option<JsonValue>,
    /// Count of JSON null occurrences.
    pub null_count: u64,
}

impl ScalarStats {
    fn observe(&mut self, v: &JsonValue, doc_id: u64, under_array: bool) {
        let kind = match v {
            JsonValue::String(s) => {
                self.max_len = self.max_len.max(s.len());
                ScalarKind::String
            }
            JsonValue::Number(n) => {
                self.max_len = self.max_len.max(n.literal_len());
                ScalarKind::Number
            }
            JsonValue::Bool(_) => {
                self.max_len = self.max_len.max(5);
                ScalarKind::Boolean
            }
            JsonValue::Null => {
                self.null_count += 1;
                ScalarKind::Null
            }
            _ => unreachable!("scalar expected"),
        };
        self.any.hit(doc_id, under_array);
        self.kinds.entry(kind).or_default().hit(doc_id, under_array);
        if !v.is_null() {
            let lower = scalar_lt(v, self.min.as_ref());
            if lower {
                self.min = Some(v.clone());
            }
            let higher = scalar_gt(v, self.max.as_ref());
            if higher {
                self.max = Some(v.clone());
            }
        }
    }

    fn merge(&mut self, other: &ScalarStats) {
        self.any.merge(&other.any);
        for (k, s) in &other.kinds {
            self.kinds.entry(*k).or_default().merge(s);
        }
        self.max_len = self.max_len.max(other.max_len);
        self.null_count += other.null_count;
        if let Some(m) = &other.min {
            if scalar_lt(m, self.min.as_ref()) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if scalar_gt(m, self.max.as_ref()) {
                self.max = Some(m.clone());
            }
        }
    }

    /// The generalized scalar type after merge (§3.1): a single non-null
    /// type stands; conflicting non-null types generalize to `string`;
    /// only-null stays `null`.
    pub fn generalized(&self) -> ScalarKind {
        let mut non_null: Vec<ScalarKind> = self
            .kinds
            .iter()
            .filter(|(k, s)| **k != ScalarKind::Null && s.seen())
            .map(|(k, _)| *k)
            .collect();
        non_null.dedup();
        match non_null.len() {
            0 => ScalarKind::Null,
            1 => non_null[0],
            _ => ScalarKind::String,
        }
    }

    /// True if any scalar occurrence at this path sat under an array.
    pub fn any_under_array(&self) -> bool {
        self.any.under_array
    }

    /// Documents containing a scalar at this path (each document counted
    /// once, even when it contributes several scalar types).
    pub fn doc_count(&self) -> u64 {
        self.any.doc_count
    }

    /// True when `kind` was ever observed at this path.
    pub fn has_kind(&self, kind: ScalarKind) -> bool {
        self.kinds.get(&kind).is_some_and(KindStats::seen)
    }

    /// The scalar kinds observed at this path, in `ScalarKind` order.
    pub fn observed_kinds(&self) -> Vec<ScalarKind> {
        self.kinds.iter().filter(|(_, s)| s.seen()).map(|(k, _)| *k).collect()
    }
}

fn scalar_lt(v: &JsonValue, cur: Option<&JsonValue>) -> bool {
    match cur {
        None => true,
        Some(c) => cmp_scalars(v, c) == std::cmp::Ordering::Less,
    }
}

fn scalar_gt(v: &JsonValue, cur: Option<&JsonValue>) -> bool {
    match cur {
        None => true,
        Some(c) => cmp_scalars(v, c) == std::cmp::Ordering::Greater,
    }
}

fn cmp_scalars(a: &JsonValue, b: &JsonValue) -> std::cmp::Ordering {
    match (a, b) {
        (JsonValue::Number(x), JsonValue::Number(y)) => x.total_cmp(y),
        (JsonValue::String(x), JsonValue::String(y)) => x.cmp(y),
        (JsonValue::Bool(x), JsonValue::Bool(y)) => x.cmp(y),
        // cross-kind extremes (mixed types) order by kind
        _ => kind_rank(a).cmp(&kind_rank(b)),
    }
}

/// The order of extremes of different kinds. It is the order of their
/// JSON texts' first bytes — `"` for a string, `-` or a digit for a
/// number, `f`/`t` for a boolean — so it agrees with comparing the texts;
/// a null is never an extreme.
fn kind_rank(v: &JsonValue) -> u8 {
    match v {
        JsonValue::String(_) => 0,
        JsonValue::Number(_) => 1,
        JsonValue::Bool(_) => 2,
        JsonValue::Null | JsonValue::Object(_) | JsonValue::Array(_) => 3,
    }
}

/// One node of the guide tree = one field path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuideNode {
    /// Occurrences of this path as an object.
    pub object: KindStats,
    /// Occurrences of this path as an array (the outer array itself).
    pub array: KindStats,
    /// Scalar occurrences at this path.
    pub scalars: ScalarStats,
    /// Child fields (reached through objects, including object elements of
    /// arrays at this path), hashed by name: [`GuideNode::children()`] lists
    /// them in name order.
    children: SeededMap<Box<str>, GuideNode>,
}

impl GuideNode {
    /// Absorb one value occurring at this path. Arrays recurse into their
    /// elements at the *same* path with `under_array = true` (this is what
    /// produces "array of …" types and lets object elements contribute
    /// child paths).
    ///
    /// Returns the number of guide nodes (distinct paths) this value
    /// created — 0 means the document's structure was already fully
    /// covered by the guide.
    fn observe(&mut self, v: &JsonValue, doc_id: u64, under_array: bool) -> u64 {
        let mut new_paths = 0u64;
        match v {
            JsonValue::Object(o) => {
                self.object.hit(doc_id, under_array);
                for (k, c) in o.iter() {
                    new_paths += self.observe_member(k, c, doc_id, under_array);
                }
            }
            JsonValue::Array(a) => {
                self.array.hit(doc_id, under_array);
                for e in a {
                    match e {
                        // object elements contribute child paths only —
                        // Table 2 reports `items` as "array", not
                        // "array of object"
                        JsonValue::Object(o) => {
                            for (k, c) in o.iter() {
                                new_paths += self.observe_member(k, c, doc_id, true);
                            }
                        }
                        // a nested array is recorded at the same path with
                        // the under-array flag → "array of array" (Table 4)
                        JsonValue::Array(_) => new_paths += self.observe(e, doc_id, true),
                        scalar => self.scalars.observe(scalar, doc_id, true),
                    }
                }
            }
            scalar => self.scalars.observe(scalar, doc_id, under_array),
        }
        new_paths
    }

    /// [`GuideNode::observe`] of member `name`'s value at the child path,
    /// which is created — the one allocation of its name — when new.
    fn observe_member(&mut self, name: &str, v: &JsonValue, doc_id: u64, under_array: bool) -> u64 {
        match self.children.get_mut(name) {
            Some(child) => child.observe(v, doc_id, under_array),
            None => {
                let mut child = GuideNode::default();
                let new_paths = 1 + child.observe(v, doc_id, under_array);
                self.children.insert(name.into(), child);
                new_paths
            }
        }
    }

    fn merge(&mut self, other: &GuideNode) {
        self.object.merge(&other.object);
        self.array.merge(&other.array);
        self.scalars.merge(&other.scalars);
        for (k, c) in &other.children {
            self.children.entry(k.clone()).or_default().merge(c);
        }
    }

    /// True when this path only ever holds a scalar not under any array —
    /// i.e. a one-to-one "singleton" eligible for a virtual column (§3.3.1).
    pub fn is_singleton_scalar(&self) -> bool {
        !self.object.seen()
            && !self.array.seen()
            && !self.scalars.kinds.is_empty()
            && !self.scalars.any_under_array()
    }

    /// Child node for `name`, for step-by-step walks of compiled paths.
    pub fn child(&self, name: &str) -> Option<&GuideNode> {
        self.children.get(name)
    }

    /// The child fields in name order (sorted on each call: for output,
    /// not for walks).
    pub fn children(&self) -> impl Iterator<Item = (&str, &GuideNode)> {
        let mut sorted: Vec<(&str, &GuideNode)> =
            self.children.iter().map(|(k, c)| (&**k, c)).collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        sorted.into_iter()
    }

    /// True when anything — object, array, or scalar — was ever observed
    /// at this path.
    pub fn seen(&self) -> bool {
        self.object.seen() || self.array.seen() || !self.scalars.kinds.is_empty()
    }

    /// Documents known to contain this path, as a lower bound: per-kind
    /// document sets are tracked separately, so a document holding the
    /// path as several kinds counts once per kind and we return the
    /// largest single-kind count.
    pub fn doc_count_at_least(&self) -> u64 {
        self.object.doc_count.max(self.array.doc_count).max(self.scalars.doc_count())
    }

    /// Observed frequency of this path as an integer percentage of
    /// `total_docs` (a lower bound, per [`GuideNode::doc_count_at_least`]).
    pub fn frequency_pct(&self, total_docs: u64) -> i64 {
        crate::hierarchical::frequency_pct(self.doc_count_at_least(), total_docs)
    }
}

/// One row of the flat (`$DG`) form.
#[derive(Debug, Clone, PartialEq)]
pub struct DgRow {
    /// JSON path from the root (`$.a.b`).
    pub path: String,
    /// Reported type ("object", "array", "string", "array of number", …).
    pub type_str: String,
    /// Documents containing this (path, kind).
    pub doc_count: u64,
    /// Total occurrences.
    pub occurrences: u64,
    /// Maximum leaf length (scalar rows).
    pub max_len: usize,
    /// Minimum scalar value (scalar rows).
    pub min: Option<JsonValue>,
    /// Maximum scalar value (scalar rows).
    pub max: Option<JsonValue>,
    /// Null occurrences (scalar rows).
    pub nulls: u64,
}

/// The JSON DataGuide for a collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataGuide {
    /// Root guide node (the `$` path).
    pub root: GuideNode,
    /// Documents merged into this guide.
    pub doc_count: u64,
    /// Documents actually walked ([`DataGuide::add_document`] calls);
    /// see [`DataGuide::sampled_docs`].
    walked_docs: u64,
}

impl DataGuide {
    /// Empty guide.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge one document instance into the guide (instance extraction +
    /// merge-union in a single walk). Returns how many previously-unseen
    /// paths the document contributed — 0 means the guide was unchanged.
    pub fn add_document(&mut self, doc: &JsonValue) -> u64 {
        self.doc_count += 1;
        self.walked_docs += 1;
        let new_paths = self.root.observe(doc, self.doc_count, false);
        if new_paths > 0 {
            metric::DATAGUIDE_INSERT_CHANGED.inc();
            metric::DATAGUIDE_PATHS.add(new_paths as i64);
        } else {
            metric::DATAGUIDE_INSERT_UNCHANGED.inc();
        }
        new_paths
    }

    /// Merge another guide (used by the SQL aggregate's combine phase).
    pub fn merge(&mut self, other: &DataGuide) {
        self.doc_count += other.doc_count;
        self.walked_docs += other.walked_docs;
        self.root.merge(&other.root);
    }

    /// Number of documents actually walked into the tree. The store's
    /// structure-signature insert fast path counts repeated structures
    /// in [`DataGuide::doc_count`] without re-walking them, so per-node
    /// statistics are relative to this sample, not to `doc_count`.
    pub fn sampled_docs(&self) -> u64 {
        self.walked_docs
    }

    /// The flat `$DG` rows, in path order. Each distinct (path, node-kind)
    /// is one row; scalar kinds are generalized per §3.1.
    pub fn rows(&self) -> Vec<DgRow> {
        let mut out = Vec::new();
        emit_rows(&self.root, "$", true, &mut out);
        out
    }

    /// Number of distinct paths — the "Number of Distinct Paths" column of
    /// Table 12 (row count of `$DG`).
    pub fn distinct_paths(&self) -> usize {
        self.rows().len()
    }

    /// Number of root-to-leaf scalar paths — the "DMDV number of columns"
    /// statistic of Table 12.
    pub fn leaf_paths(&self) -> usize {
        self.rows()
            .iter()
            .filter(|r| !r.type_str.ends_with("object") && !r.type_str.ends_with("array"))
            .count()
    }

    /// Navigate to the guide node for a path like `$.a.b` (fields only).
    pub fn node_at(&self, path: &str) -> Option<&GuideNode> {
        let mut node = &self.root;
        let trimmed = path.trim();
        if !trimmed.starts_with('$') {
            return None;
        }
        let rest = &trimmed[1..];
        if rest.is_empty() {
            return Some(node);
        }
        for step in parse_dotted(rest)? {
            node = node.child(&step)?;
        }
        Some(node)
    }
}

/// Split `.a.b."c d"` into field names.
fn parse_dotted(s: &str) -> Option<Vec<String>> {
    let b = s.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        if b[i] != b'.' {
            return None;
        }
        i += 1;
        if i < b.len() && b[i] == b'"' {
            i += 1;
            let start = i;
            while i < b.len() && b[i] != b'"' {
                i += 1;
            }
            if i == b.len() {
                return None;
            }
            out.push(s[start..i].to_string());
            i += 1;
        } else {
            let start = i;
            while i < b.len() && b[i] != b'.' {
                i += 1;
            }
            if start == i {
                return None;
            }
            out.push(s[start..i].to_string());
        }
    }
    Some(out)
}

fn emit_rows(node: &GuideNode, path: &str, is_root: bool, out: &mut Vec<DgRow>) {
    if !is_root {
        if node.object.seen() {
            out.push(DgRow {
                path: path.to_string(),
                type_str: typed("object", node.object.under_array),
                doc_count: node.object.doc_count,
                occurrences: node.object.occurrences,
                max_len: 0,
                min: None,
                max: None,
                nulls: 0,
            });
        }
        if node.array.seen() {
            out.push(DgRow {
                path: path.to_string(),
                type_str: typed("array", node.array.under_array),
                doc_count: node.array.doc_count,
                occurrences: node.array.occurrences,
                max_len: 0,
                min: None,
                max: None,
                nulls: 0,
            });
        }
        if !node.scalars.kinds.is_empty() {
            let g = node.scalars.generalized();
            out.push(DgRow {
                path: path.to_string(),
                type_str: typed(g.name(), node.scalars.any_under_array()),
                doc_count: node.scalars.doc_count(),
                occurrences: node.scalars.any.occurrences,
                max_len: node.scalars.max_len,
                min: node.scalars.min.clone(),
                max: node.scalars.max.clone(),
                nulls: node.scalars.null_count,
            });
        }
    }
    for (name, child) in node.children() {
        let step = fsdm_sqljson::path::path_step_text(name);
        let child_path = format!("{path}{step}");
        emit_rows(child, &child_path, false, out);
    }
}

fn typed(kind: &str, under_array: bool) -> String {
    if under_array {
        format!("array of {kind}")
    } else {
        kind.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    fn guide_of(docs: &[&str]) -> DataGuide {
        let mut g = DataGuide::new();
        for d in docs {
            g.add_document(&parse(d).unwrap());
        }
        g
    }

    fn row<'a>(rows: &'a [DgRow], path: &str, ty: &str) -> &'a DgRow {
        rows.iter()
            .find(|r| r.path == path && r.type_str == ty)
            .unwrap_or_else(|| panic!("missing row ({path}, {ty}); have {rows:#?}"))
    }

    /// The Table 1 + Table 2 example: two purchase orders produce exactly
    /// the seven $DG rows of the paper.
    #[test]
    fn table2_rows() {
        let g = guide_of(&[
            r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
                {"name":"phone","price":100,"quantity":2},
                {"name":"ipad","price":350.86,"quantity":3}]}}"#,
            r#"{"purchaseOrder":{"id":2,"podate":"2015-03-04","items":[
                {"name":"table","price":52.78,"quantity":2},
                {"name":"chair","price":35.24,"quantity":4}]}}"#,
        ]);
        let rows = g.rows();
        assert_eq!(rows.len(), 7, "{rows:#?}");
        row(&rows, "$.purchaseOrder", "object");
        row(&rows, "$.purchaseOrder.id", "number");
        row(&rows, "$.purchaseOrder.podate", "string");
        row(&rows, "$.purchaseOrder.items", "array");
        row(&rows, "$.purchaseOrder.items.name", "array of string");
        row(&rows, "$.purchaseOrder.items.price", "array of number");
        row(&rows, "$.purchaseOrder.items.quantity", "array of number");
    }

    /// Table 3 + Table 4: a deeper child hierarchy adds exactly 4 rows.
    #[test]
    fn table4_growth_deeper() {
        let mut g = guide_of(&[r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
                {"name":"phone","price":100,"quantity":2}]}}"#]);
        let before = g.distinct_paths();
        g.add_document(
            &parse(
                r#"{"purchaseOrder":{"id":2,"podate":"2015-06-03","foreign_id":"CDEG35",
               "items":[{"name":"TV","price":345.55,"quantity":1,
                 "parts":[{"partName":"remoteCon","partQuantity":"1"}]}]}}"#,
            )
            .unwrap(),
        );
        let rows = g.rows();
        assert_eq!(rows.len(), before + 4, "{rows:#?}");
        row(&rows, "$.purchaseOrder.items.parts", "array of array");
        row(&rows, "$.purchaseOrder.items.parts.partName", "array of string");
        row(&rows, "$.purchaseOrder.items.parts.partQuantity", "array of string");
        row(&rows, "$.purchaseOrder.foreign_id", "string");
    }

    /// §3.1: same path as scalar in one doc and object in another keeps
    /// both rows; conflicting scalar types generalize to string.
    #[test]
    fn merge_rules() {
        let g = guide_of(&[r#"{"a":{"b":1}}"#, r#"{"a":{"b":{"c":true}}}"#]);
        let rows = g.rows();
        row(&rows, "$.a.b", "number");
        row(&rows, "$.a.b", "object");
        row(&rows, "$.a.b.c", "boolean");

        let g2 = guide_of(&[r#"{"x":1}"#, r#"{"x":"s"}"#]);
        let rows2 = g2.rows();
        row(&rows2, "$.x", "string");
        assert_eq!(row(&rows2, "$.x", "string").doc_count, 2);
    }

    #[test]
    fn scalar_array_reports_both_rows() {
        let g = guide_of(&[r#"{"tags":["a","bb","ccc"]}"#]);
        let rows = g.rows();
        row(&rows, "$.tags", "array");
        let s = row(&rows, "$.tags", "array of string");
        assert_eq!(s.max_len, 3);
        assert_eq!(s.occurrences, 3);
    }

    #[test]
    fn statistics_track_min_max_nulls_len() {
        let g = guide_of(&[
            r#"{"v":5,"s":"hello"}"#,
            r#"{"v":-3,"s":"hi"}"#,
            r#"{"v":null,"s":"world!!"}"#,
        ]);
        let rows = g.rows();
        let v = row(&rows, "$.v", "number");
        assert_eq!(v.min, Some(parse("-3").unwrap()));
        assert_eq!(v.max, Some(parse("5").unwrap()));
        assert_eq!(v.nulls, 1);
        assert_eq!(v.doc_count, 3);
        let s = row(&rows, "$.s", "string");
        assert_eq!(s.max_len, 7);
    }

    #[test]
    fn merge_of_guides_equals_single_pass() {
        let docs = [
            r#"{"a":1,"b":[{"c":2}]}"#,
            r#"{"a":"x","d":true}"#,
            r#"{"b":[{"c":"y"},{"e":null}]}"#,
        ];
        let whole = guide_of(&docs);
        let mut left = guide_of(&docs[..1]);
        let right = guide_of(&docs[1..]);
        left.merge(&right);
        assert_eq!(left.rows(), whole.rows());
        assert_eq!(left.doc_count, whole.doc_count);
    }

    #[test]
    fn singleton_detection() {
        let g = guide_of(&[r#"{"purchaseOrder":{"id":1,"items":[{"name":"x"}]}}"#]);
        let po = g.node_at("$.purchaseOrder").unwrap();
        assert!(!po.is_singleton_scalar());
        assert!(g.node_at("$.purchaseOrder.id").unwrap().is_singleton_scalar());
        assert!(!g.node_at("$.purchaseOrder.items.name").unwrap().is_singleton_scalar());
    }

    #[test]
    fn node_at_paths() {
        let g = guide_of(&[r#"{"a":{"b c":{"d":1}}}"#]);
        assert!(g.node_at("$").is_some());
        assert!(g.node_at("$.a").is_some());
        assert!(g.node_at("$.a.\"b c\".d").is_some());
        assert!(g.node_at("$.zz").is_none());
        assert!(g.node_at("a.b").is_none());
    }

    #[test]
    fn distinct_vs_leaf_paths() {
        let g = guide_of(&[r#"{"purchaseOrder":{"id":1,"podate":"x","items":[
                {"name":"a","price":1,"quantity":1}]}}"#]);
        // rows: purchaseOrder(object), id, podate, items(array), name,
        // price, quantity = 7; leaves = 5
        assert_eq!(g.distinct_paths(), 7);
        assert_eq!(g.leaf_paths(), 5);
    }

    #[test]
    fn kind_and_frequency_helpers() {
        let g = guide_of(&[
            r#"{"a":1,"b":[true],"c":{"d":"x"}}"#,
            r#"{"a":"two"}"#,
            r#"{"a":3}"#,
            r#"{"a":4}"#,
        ]);
        let a = g.node_at("$.a").unwrap();
        assert!(a.scalars.has_kind(ScalarKind::Number));
        assert!(a.scalars.has_kind(ScalarKind::String));
        assert!(!a.scalars.has_kind(ScalarKind::Boolean));
        assert_eq!(a.scalars.observed_kinds(), vec![ScalarKind::String, ScalarKind::Number]);
        assert!(a.seen());
        assert_eq!(a.doc_count_at_least(), 4);
        assert_eq!(a.frequency_pct(g.doc_count), 100);
        let b = g.node_at("$.b").unwrap();
        assert_eq!(b.frequency_pct(g.doc_count), 25);
        let c = g.node_at("$.c").unwrap();
        assert_eq!(c.child("d").map(|n| n.scalars.doc_count()), Some(1));
        assert!(c.child("zz").is_none());
        assert!(!GuideNode::default().seen());
    }

    #[test]
    fn sampled_docs_tracks_walked_documents_only() {
        let mut g = guide_of(&[r#"{"a":1}"#, r#"[1,2]"#, r#""scalar""#]);
        assert_eq!(g.sampled_docs(), 3);
        assert_eq!(g.sampled_docs(), g.doc_count);
        // the store's structure-signature fast path bumps doc_count
        // without walking: the sample stays at what was observed
        g.doc_count += 5;
        assert_eq!(g.sampled_docs(), 3);
        assert_eq!(DataGuide::new().sampled_docs(), 0);
    }

    #[test]
    fn persistent_guide_is_additive() {
        // §3.4: deletions do not remove paths — the guide has no removal
        // API at all; adding more docs only grows or keeps rows
        let mut g = guide_of(&[r#"{"a":1}"#]);
        let before = g.distinct_paths();
        g.add_document(&parse(r#"{"b":2}"#).unwrap());
        assert!(g.distinct_paths() > before);
    }
}
