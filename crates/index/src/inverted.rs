//! The inverted index and its embedded `$DG` persistent DataGuide.
//!
//! Paths are interned once per index, terms once per path. A path is a
//! node of a trie keyed by field name (arrays transparent); the document
//! walk carries a `PathId` cursor and never builds a path string. Value
//! terms are typed — strings probed by borrowed `&str`, numbers by their
//! canonical [`OraNum`] bytes, `true`/`false`/`null` in fixed slots — so
//! a document whose paths and terms have all been seen allocates nothing
//! but posting-list growth. The trie's edges and the term dictionaries
//! hash under the process-keyed [`fsdm_json::SeededState`]: their keys
//! come from documents.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::hash::Hash;

use fsdm_dataguide::{path_step_text, structure_signature, DataGuide, GuideMaintainer};
use fsdm_json::{JsonValue, OraNum, SeededMap};
use fsdm_obs::catalog::{metric, SPAN_INDEX_LOOKUP};
use fsdm_obs::trace::SpanGuard;

/// Document identifier within an indexed collection.
pub type DocId = u64;

/// Position of a path in [`SearchIndex::paths`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathId(u32);

const ROOT: PathId = PathId(0);

/// A number term: `1`, `1.0` and `1e0` share one canonical NUMBER
/// encoding; magnitudes beyond NUMBER's range keep their double.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NumKey {
    Ora(OraNum),
    Dbl(u64),
}

/// A scalar value as the index keys it, so `"7"` never meets `7`.
enum Term<'a> {
    Str(&'a str),
    Num(NumKey),
    /// Slot in [`PathNode::fixed`].
    Fixed(usize),
}

const TRUE: usize = 0;
const FALSE: usize = 1;
const NULL: usize = 2;

impl<'a> Term<'a> {
    fn of(v: &'a JsonValue) -> Option<Term<'a>> {
        Some(match v {
            JsonValue::String(s) => Term::Str(s),
            JsonValue::Number(n) => Term::Num(match n.to_oranum() {
                Some(d) => NumKey::Ora(d),
                None => NumKey::Dbl(n.to_f64().to_bits()),
            }),
            JsonValue::Bool(true) => Term::Fixed(TRUE),
            JsonValue::Bool(false) => Term::Fixed(FALSE),
            JsonValue::Null => Term::Fixed(NULL),
            JsonValue::Object(_) | JsonValue::Array(_) => return None,
        })
    }

    /// What a value given as text most specifically denotes.
    fn from_text(text: &'a str) -> Term<'a> {
        match (OraNum::from_decimal_str(text), text) {
            (Ok(d), _) => Term::Num(NumKey::Ora(d)),
            (_, "true") => Term::Fixed(TRUE),
            (_, "false") => Term::Fixed(FALSE),
            (_, "null") => Term::Fixed(NULL),
            _ => Term::Str(text),
        }
    }
}

/// The documents of one posting list, in posting order: 16 bytes. A
/// list of one document is held inline — on the benchmark's
/// `ingest.index` corpus that is 98.9 % of the lists and 61 % of the
/// postings (38 per document) — and the 1.1 % of longer lists sit behind
/// one more pointer, so an unused list costs no 24-byte `Vec` header.
#[derive(Debug, Default)]
#[expect(
    clippy::box_collection,
    reason = "a `Vec` inline would make every list 32 bytes; boxed, only the 1.1 % \
              longer than one document pay its pointer"
)]
enum Postings {
    #[default]
    None,
    One(DocId),
    Many(Box<Vec<DocId>>),
}

impl Postings {
    fn docs(&self) -> &[DocId] {
        match self {
            Postings::None => &[],
            Postings::One(id) => std::slice::from_ref(id),
            Postings::Many(ids) => ids,
        }
    }
}

/// A string term of one path: exact leaf values and (lower-cased)
/// keywords share a dictionary, so a one-word value is interned once.
/// With its `Box<str>` key a dictionary entry is 48 bytes.
#[derive(Debug, Default)]
struct StringTerm {
    value: Postings,
    keyword: Postings,
}

/// One trie node: a JSON path, its children and its postings.
#[derive(Debug, Default)]
struct PathNode {
    /// `$.a."b c"`, rendered when the node is created.
    text: String,
    /// Field name → child path. Names that render alike share a child.
    children: SeededMap<String, PathId>,
    /// Documents in which the path occurs at all.
    presence: Postings,
    strings: SeededMap<Box<str>, StringTerm>,
    numbers: SeededMap<NumKey, Postings>,
    fixed: [Postings; 3],
}

impl PathNode {
    /// Documents whose leaf at this path is exactly `term`.
    fn docs(&self, term: &Term<'_>) -> &[DocId] {
        match term {
            Term::Str(s) => self.strings.get(*s).map_or(&[], |t| t.value.docs()),
            Term::Num(k) => self.numbers.get(k).map_or(&[], Postings::docs),
            Term::Fixed(slot) => self.fixed[*slot].docs(),
        }
    }
}

/// What the document walk does with each posting list it reaches:
/// insert, remove and bulk build are one routine with different sinks.
trait Sink {
    /// Whether paths and terms not seen before are created or skipped.
    const CREATES: bool;
    fn apply(list: &mut Postings, id: DocId);
}

struct Post;
struct Unpost;

impl Sink for Post {
    const CREATES: bool = true;
    fn apply(list: &mut Postings, id: DocId) {
        // a path or term met twice in one document posts once; ids arrive
        // ascending, except a replaced document's, which goes to its place
        match list {
            Postings::None => *list = Postings::One(id),
            Postings::One(only) if *only == id => {}
            Postings::One(only) => {
                let (lo, hi) = (id.min(*only), id.max(*only));
                *list = Postings::Many(Box::new(vec![lo, hi]));
            }
            Postings::Many(ids) => match ids.last() {
                Some(&last) if last < id => ids.push(id),
                _ => {
                    if let Err(at) = ids.binary_search(&id) {
                        ids.insert(at, id);
                    }
                }
            },
        }
    }
}

impl Sink for Unpost {
    const CREATES: bool = false;
    fn apply(list: &mut Postings, id: DocId) {
        match list {
            Postings::One(only) if *only == id => *list = Postings::None,
            Postings::Many(ids) => ids.retain(|&d| d != id),
            _ => {}
        }
    }
}

/// Run `f` on the entry of `term`, which a creating sink adds if missing.
fn edit<S: Sink, K, Q, V: Default>(terms: &mut SeededMap<K, V>, term: &Q, f: impl FnOnce(&mut V))
where
    K: Borrow<Q> + Hash + Eq + From<Q::Owned>,
    Q: ToOwned + Hash + Eq + ?Sized,
{
    match terms.get_mut(term) {
        Some(entry) => f(entry),
        None if S::CREATES => {
            let mut entry = V::default();
            f(&mut entry);
            terms.insert(K::from(term.to_owned()), entry);
        }
        None => {}
    }
}

/// Each keyword of a string leaf: words split at non-alphanumerics,
/// lower-cased as `str::to_lowercase` does. ASCII words fold in `buf`,
/// or are borrowed as they stand when already lower-case.
fn for_each_keyword(s: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    for w in s.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
        if !w.is_ascii() {
            f(&w.to_lowercase());
        } else if w.bytes().any(|b| b.is_ascii_uppercase()) {
            buf.clear();
            buf.push_str(w);
            buf.make_ascii_lowercase();
            f(buf);
        } else {
            f(w);
        }
    }
}

/// The schema-agnostic JSON search index.
#[derive(Debug, Default)]
pub struct SearchIndex {
    /// The trie, root first; empty until the first insert.
    paths: Vec<PathNode>,
    /// Rendered path → node, for lookups and the sorted listing; written
    /// only when a path is first seen.
    by_text: BTreeMap<String, PathId>,
    /// The persistent DataGuide ($DG component of the index).
    guide: GuideMaintainer,
    /// Scratch for keyword case folding.
    lower: String,
}

impl SearchIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index one document. Returns `true` when the DataGuide fast path
    /// applied (structure already known — no `$DG` work done).
    pub fn insert(&mut self, id: DocId, doc: &JsonValue) -> bool {
        self.insert_signed(id, doc, structure_signature(doc))
    }

    /// [`SearchIndex::insert`] for a caller that already holds the
    /// document's [`structure_signature`].
    pub fn insert_signed(&mut self, id: DocId, doc: &JsonValue, signature: u64) -> bool {
        if self.paths.is_empty() {
            self.paths.push(PathNode { text: "$".to_string(), ..PathNode::default() });
            self.by_text.insert("$".to_string(), ROOT);
        }
        let posted = self.walk::<Post>(doc, ROOT, id);
        metric::INDEX_POSTINGS_ADDED.add(posted);
        metric::INDEX_INSERT_DOCS.inc();
        // §3.2.1: DataGuide maintenance rides on document processing, with
        // a short-circuit when no schema change is possible
        self.guide.observe(doc, signature)
    }

    /// Remove a document from the postings; `old_doc` is the document
    /// `id` was indexed with, from which the walk re-derives what to
    /// unpost. The DataGuide is additive (§3.4): paths contributed by
    /// removed documents are *not* retracted.
    pub fn remove(&mut self, id: DocId, old_doc: &JsonValue) {
        if !self.paths.is_empty() {
            self.walk::<Unpost>(old_doc, ROOT, id);
        }
    }

    /// Apply `S` to every posting list `v` reaches from path `at`;
    /// returns how many it reached.
    fn walk<S: Sink>(&mut self, v: &JsonValue, at: PathId, id: DocId) -> u64 {
        let node = &mut self.paths[at.0 as usize];
        S::apply(&mut node.presence, id);
        let mut reached = 1;
        match Term::of(v) {
            None => match v {
                JsonValue::Object(o) => {
                    for (k, c) in o.iter() {
                        if let Some(child) = self.child::<S>(at, k) {
                            reached += self.walk::<S>(c, child, id);
                        }
                    }
                }
                JsonValue::Array(a) => {
                    for e in a {
                        reached += self.walk::<S>(e, at, id);
                    }
                }
                _ => unreachable!("a scalar has a term"),
            },
            Some(Term::Str(s)) => {
                edit::<S, _, _, _>(&mut node.strings, s, |t| S::apply(&mut t.value, id));
                reached += 1;
                for_each_keyword(s, &mut self.lower, |w| {
                    edit::<S, _, _, _>(&mut node.strings, w, |t| S::apply(&mut t.keyword, id));
                    reached += 1;
                });
            }
            Some(Term::Num(k)) => {
                edit::<S, _, _, _>(&mut node.numbers, &k, |list| S::apply(list, id));
                reached += 1;
            }
            Some(Term::Fixed(slot)) => {
                S::apply(&mut node.fixed[slot], id);
                reached += 1;
            }
        }
        reached
    }

    /// The path one field below `at`, created on first sight.
    fn child<S: Sink>(&mut self, at: PathId, name: &str) -> Option<PathId> {
        let parent = &self.paths[at.0 as usize];
        if let Some(&child) = parent.children.get(name) {
            return Some(child);
        }
        if !S::CREATES {
            return None;
        }
        let text = format!("{}{}", parent.text, path_step_text(name));
        let child = match self.by_text.get(&text) {
            Some(&same_rendering) => same_rendering,
            None => {
                let id = PathId(u32::try_from(self.paths.len()).expect("fewer than 2^32 paths"));
                self.paths.push(PathNode { text: text.clone(), ..PathNode::default() });
                self.by_text.insert(text, id);
                id
            }
        };
        self.paths[at.0 as usize].children.insert(name.to_string(), child);
        Some(child)
    }

    /// Open the `index.lookup` span of one probe, count it, and find the
    /// node of `path`.
    fn probe(
        &self,
        kind: &str,
        path: &str,
        count: &fsdm_obs::Counter,
    ) -> (SpanGuard, Option<&PathNode>) {
        let mut span = fsdm_obs::trace::span(SPAN_INDEX_LOOKUP);
        span.record_args(|| format!("{kind} {path}"));
        count.inc();
        (span, self.by_text.get(path).map(|id| &self.paths[id.0 as usize]))
    }

    /// Documents containing the given path (`$.a.b`, arrays transparent).
    pub fn docs_with_path(&self, path: &str) -> Vec<DocId> {
        let (_span, node) = self.probe("path", path, &metric::INDEX_LOOKUP_PATH);
        node.map(|n| n.presence.docs().to_vec()).unwrap_or_default()
    }

    /// Documents where the path holds exactly this scalar value. The
    /// value is given as text, which cannot distinguish the JSON string
    /// `"7"` from the number `7` — so numeric-looking input probes both
    /// the numeric and the string postings (union, document order).
    pub fn docs_with_value(&self, path: &str, value: &str) -> Vec<DocId> {
        let (_span, node) = self.probe("value", path, &metric::INDEX_LOOKUP_VALUE);
        let Some(node) = node else {
            return Vec::new();
        };
        let typed = Term::from_text(value);
        let mut out = node.docs(&typed).to_vec();
        if !matches!(typed, Term::Str(_)) {
            out.extend_from_slice(node.docs(&Term::Str(value)));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exact typed lookup (no text ambiguity); a container matches nothing.
    pub fn docs_with_scalar(&self, path: &str, value: &JsonValue) -> Vec<DocId> {
        let (_span, node) = self.probe("scalar", path, &metric::INDEX_LOOKUP_SCALAR);
        match (node, Term::of(value)) {
            (Some(node), Some(term)) => node.docs(&term).to_vec(),
            _ => Vec::new(),
        }
    }

    /// `JSON_TEXTCONTAINS`: documents whose string leaf at `path` contains
    /// the keyword (case-insensitive full word).
    pub fn docs_text_contains(&self, path: &str, keyword: &str) -> Vec<DocId> {
        let (_span, node) = self.probe("text", path, &metric::INDEX_LOOKUP_TEXT);
        node.and_then(|n| n.strings.get(keyword.to_lowercase().as_str()))
            .map(|t| t.keyword.docs().to_vec())
            .unwrap_or_default()
    }

    /// The persistent DataGuide hosted by this index.
    pub fn dataguide(&self) -> &DataGuide {
        &self.guide
    }

    /// Inserts that skipped guide processing via the signature fast path
    /// (observability for the Figure 7/8 experiments).
    pub fn guide_fast_path_hits(&self) -> u64 {
        self.guide.fast_path_hits
    }

    /// All indexed paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.by_text.keys().map(|s| s.as_str())
    }

    /// Number of distinct (path → postings) entries.
    pub fn path_count(&self) -> usize {
        self.by_text.len()
    }

    /// Payload bytes of the index: path texts and trie edges, the term
    /// dictionaries, and eight bytes per posting (allocator and hash-table
    /// overhead not counted).
    pub fn size_bytes(&self) -> usize {
        let edge = std::mem::size_of::<PathId>();
        let number = std::mem::size_of::<NumKey>();
        let posted = |list: &Postings| 8 * list.docs().len();
        self.paths
            .iter()
            .map(|n| {
                // the rendering is held by the node and by `by_text`
                2 * n.text.len()
                    + n.children.keys().map(|k| k.len() + edge).sum::<usize>()
                    + posted(&n.presence)
                    + n.fixed.iter().map(posted).sum::<usize>()
                    + n.numbers.values().map(|list| number + posted(list)).sum::<usize>()
                    + n.strings
                        .iter()
                        .map(|(s, t)| s.len() + posted(&t.value) + posted(&t.keyword))
                        .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    fn index(docs: &[&str]) -> SearchIndex {
        let mut ix = SearchIndex::new();
        for (i, d) in docs.iter().enumerate() {
            ix.insert(i as DocId + 1, &parse(d).unwrap());
        }
        ix
    }

    #[test]
    fn presence_postings() {
        let ix = index(&[r#"{"a":{"b":1}}"#, r#"{"a":{"c":2}}"#, r#"{"a":{"b":3,"c":4}}"#]);
        assert_eq!(ix.docs_with_path("$.a.b"), vec![1, 3]);
        assert_eq!(ix.docs_with_path("$.a.c"), vec![2, 3]);
        assert_eq!(ix.docs_with_path("$.a"), vec![1, 2, 3]);
        assert!(ix.docs_with_path("$.zz").is_empty());
    }

    #[test]
    fn value_postings_with_numeric_canonicalization() {
        let ix = index(&[r#"{"v":1}"#, r#"{"v":1.0}"#, r#"{"v":2}"#]);
        assert_eq!(ix.docs_with_value("$.v", "1"), vec![1, 2]);
        assert_eq!(ix.docs_with_value("$.v", "1.00"), vec![1, 2]);
        assert_eq!(ix.docs_with_value("$.v", "2"), vec![3]);
    }

    #[test]
    fn keyword_postings() {
        let ix = index(&[
            r#"{"note":"Ground shipping, signature required"}"#,
            r#"{"note":"AIR shipping"}"#,
        ]);
        assert_eq!(ix.docs_text_contains("$.note", "shipping"), vec![1, 2]);
        assert_eq!(ix.docs_text_contains("$.note", "SIGNATURE"), vec![1]);
        assert!(ix.docs_text_contains("$.note", "ship").is_empty(), "whole words only");
    }

    #[test]
    fn arrays_are_transparent_in_paths() {
        let ix = index(&[r#"{"items":[{"name":"tv"},{"name":"pc"}]}"#]);
        assert_eq!(ix.docs_with_path("$.items.name"), vec![1]);
        assert_eq!(ix.docs_with_value("$.items.name", "pc"), vec![1]);
    }

    #[test]
    fn removal_is_precise() {
        let first = parse(r#"{"a":1,"s":"hello world"}"#).unwrap();
        let mut ix = index(&[r#"{"a":1,"s":"hello world"}"#, r#"{"a":1}"#]);
        ix.remove(1, &first);
        assert_eq!(ix.docs_with_value("$.a", "1"), vec![2]);
        assert!(ix.docs_text_contains("$.s", "hello").is_empty());
        // dataguide remains additive: path $.s still known
        assert!(ix.dataguide().rows().iter().any(|r| r.path == "$.s"));
    }

    #[test]
    fn replace_updates_postings() {
        let mut ix = index(&[r#"{"v":"old"}"#]);
        ix.remove(1, &parse(r#"{"v":"old"}"#).unwrap());
        ix.insert(1, &parse(r#"{"v":"new"}"#).unwrap());
        assert!(ix.docs_with_value("$.v", "old").is_empty());
        assert_eq!(ix.docs_with_value("$.v", "new"), vec![1]);
        // a replaced document keeps its place in every list
        let mut ix = index(&[r#"{"v":1}"#, r#"{"v":1}"#, r#"{"v":1}"#]);
        for id in [1, 2] {
            ix.remove(id, &parse(r#"{"v":1}"#).unwrap());
            ix.insert(id, &parse(r#"{"v":1}"#).unwrap());
        }
        assert_eq!(
            (ix.docs_with_path("$.v"), ix.docs_with_value("$.v", "1")),
            (vec![1, 2, 3], vec![1, 2, 3])
        );
    }

    #[test]
    fn signature_fast_path_counts() {
        let mut ix = SearchIndex::new();
        for i in 0..100 {
            ix.insert(i, &parse(&format!(r#"{{"a":{i},"b":"x{i}"}}"#)).unwrap());
        }
        assert_eq!(ix.guide_fast_path_hits(), 99, "only the first doc does guide work");
        assert_eq!(ix.dataguide().doc_count, 100);
        // heterogeneous inserts bypass the fast path
        ix.insert(1000, &parse(r#"{"a":1,"b":"x","unique_new":true}"#).unwrap());
        assert_eq!(ix.guide_fast_path_hits(), 99);
        assert!(ix.dataguide().rows().iter().any(|r| r.path == "$.unique_new"));
    }

    #[test]
    fn duplicate_values_in_one_doc_post_once() {
        let ix = index(&[r#"{"xs":[5,5,5]}"#]);
        assert_eq!(ix.docs_with_value("$.xs", "5"), vec![1]);
    }

    #[test]
    fn non_simple_names_render_as_in_the_dataguide() {
        let ix = index(&[r#"{"foreign id":1,"9lives":{"q\"t":[true]},"ok_1":null}"#]);
        let indexed: Vec<&str> = ix.paths().collect();
        assert_eq!(
            indexed,
            ["$", "$.\"9lives\"", "$.\"9lives\".\"qt\"", "$.\"foreign id\"", "$.ok_1"]
        );
        let mut guide: Vec<String> = ix.dataguide().rows().into_iter().map(|r| r.path).collect();
        guide.sort();
        guide.dedup(); // one row per node kind at a path
        assert_eq!(indexed[1..], guide, "the index and $DG quote by one rule");
        assert_eq!(ix.docs_with_scalar("$.\"9lives\".\"qt\"", &JsonValue::Bool(true)), vec![1]);
    }

    #[test]
    fn a_string_term_entry_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Postings>(), 16);
        assert_eq!(std::mem::size_of::<(Box<str>, StringTerm)>(), 48);
    }

    #[test]
    fn typed_lookup_keeps_strings_and_numbers_apart() {
        let ix = index(&[r#"{"v":7}"#, r#"{"v":"7"}"#, r#"{"v":7.0}"#, r#"{"v":[null,false]}"#]);
        assert_eq!(ix.docs_with_scalar("$.v", &parse("7").unwrap()), vec![1, 3]);
        assert_eq!(ix.docs_with_scalar("$.v", &parse("\"7\"").unwrap()), vec![2]);
        assert_eq!(ix.docs_with_value("$.v", "7"), vec![1, 2, 3], "text probes both");
        assert_eq!(ix.docs_with_scalar("$.v", &JsonValue::Null), vec![4]);
        assert!(ix.docs_with_scalar("$.v", &parse("[7]").unwrap()).is_empty());
        assert!(ix.size_bytes() > 0);
    }
}
