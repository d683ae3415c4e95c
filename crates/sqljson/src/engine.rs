//! The DOM path engine (§5.1): one generic evaluator over
//! [`fsdm_json::JsonDom`], so the identical engine runs against an
//! in-memory DOM, a serialized OSON instance, or a BSON buffer.
//!
//! The evaluator is a stateful cursor: it owns the compiled path and a
//! **field-id table** holding every name the path reads — its own field
//! steps and its filters' operands — each with the id it resolved to in
//! the previous document. A name resolves at most once per document: the
//! previous id is kept when this instance's dictionary validates it in
//! O(1) (the "single-row look-back" optimization of §4.2.1), else it is
//! searched for (hash binary search + name compare). Over members of one
//! OSON set (§7) a name resolves once for as long as the set's dictionary
//! is unchanged: the previous answer, absence included, holds unchecked.
//!
//! Members are read through one **member chain**: leading `.name` steps
//! are followed hop by hop in place while each hop lands on an object;
//! the general step loop takes over where a step is not a member or a hop
//! meets an array.

// hot path over stored text no constraint checked: corrupted input returns
// `Err` or a total fallback, never a panic (DESIGN.md §8)
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use fsdm_json::{FieldId, JsonDom, JsonNumber, JsonValue, NodeKind, NodeRef, ScalarRef};
use fsdm_obs::catalog::metric;

use crate::path::{ArraySel, CmpOp, IndexExpr, JsonPath, Method, Mode, Operand, Predicate, Step};

/// One result item of a path evaluation: a reference into the document, or
/// a value computed by a final item method.
#[derive(Debug, Clone, PartialEq)]
pub enum PathOutput {
    /// A node of the evaluated document.
    Node(NodeRef),
    /// A synthesized value (e.g. from `.type()` or `.size()`).
    Computed(JsonValue),
}

/// One name of the path in the [`FieldIds`] table.
struct NameId {
    name: String,
    hash: u32,
    /// What the name resolved to when it was last resolved: the id, or
    /// `None` when that instance's dictionary lacked it.
    last: Option<FieldId>,
    /// The walk `last` was resolved in (0: never).
    walk: u64,
    /// The shared dictionary `last` was resolved in
    /// ([`JsonDom::shared_names`]); `None` for an instance's own.
    shared: Option<(u64, usize)>,
}

/// The evaluator's field-id table: every distinct name the path has read
/// — its field steps and its filter operands, at any depth — keyed by
/// `(hash, name)`. A name enters on its first resolution.
#[derive(Default)]
struct FieldIds {
    names: Vec<NameId>,
    /// Bumped by each walk; one walk reads one document.
    walk: u64,
    hits: u64,
    misses: u64,
}

impl FieldIds {
    /// The field id of `name` in the current walk's document, resolved
    /// once per walk: the first time, the previous answer is kept
    /// unchecked when both documents read the same shared dictionary
    /// (members of one OSON set, absence included), or when this
    /// instance's dictionary validates the previous id (the §4.2.1
    /// single-row look-back); else the dictionary is searched. Later in
    /// the walk the answer is reused unchecked. `Some(None)`: absent from
    /// the dictionary; `None`: the document has no dictionary, look the
    /// name up per object.
    fn resolve<D: JsonDom>(&mut self, dom: &D, name: &str, hash: u32) -> Option<Option<FieldId>> {
        if !dom.has_field_ids() {
            return None;
        }
        let at = match self.names.iter().position(|e| e.hash == hash && e.name == name) {
            Some(at) => at,
            None => {
                let entry =
                    NameId { name: name.to_string(), hash, last: None, walk: 0, shared: None };
                self.names.push(entry);
                self.names.len() - 1
            }
        };
        let Some(entry) = self.names.get_mut(at) else { return Some(dom.field_id(name, hash)) };
        if entry.walk == self.walk {
            return Some(entry.last);
        }
        let shared = dom.shared_names();
        let kept = match (shared, entry.last) {
            (Some(_), _) => shared == entry.shared,
            (None, Some(id)) => dom.verify_field_id(id, name, hash),
            (None, None) => false,
        };
        entry.walk = self.walk;
        if kept {
            self.hits += 1;
            metric::SQLJSON_LOOKBACK_HIT.inc();
        } else {
            entry.last = dom.field_id(name, hash);
            entry.shared = shared;
            self.misses += 1;
            metric::SQLJSON_LOOKBACK_MISS.inc();
            if entry.last.is_none() {
                metric::SQLJSON_LOOKBACK_ABSENT.inc();
            }
        }
        Some(entry.last)
    }
}

/// A reusable evaluation cursor for one compiled path.
pub struct PathEvaluator {
    path: JsonPath,
    ids: FieldIds,
    /// The nodes the current step reads; after a walk, its matches.
    cur: Vec<NodeRef>,
    /// The nodes the current step writes, swapped into `cur` after it.
    next: Vec<NodeRef>,
}

impl PathEvaluator {
    /// Build a cursor for a compiled path.
    pub fn new(path: JsonPath) -> Self {
        PathEvaluator { path, ids: FieldIds::default(), cur: Vec::new(), next: Vec::new() }
    }

    /// The compiled path.
    pub fn path(&self) -> &JsonPath {
        &self.path
    }

    /// Field-name resolutions that reused the previous document's id
    /// (observability for tests and benches).
    pub fn lookback_hits(&self) -> u64 {
        self.ids.hits
    }

    /// Field-name resolutions that had to search the instance dictionary
    /// (first document, a stale id, or the name absent).
    pub fn lookback_misses(&self) -> u64 {
        self.ids.misses
    }

    /// Evaluate against one document, producing all matching items.
    pub fn evaluate<D: JsonDom>(&mut self, dom: &D) -> Vec<PathOutput> {
        self.evaluate_from(dom, dom.root())
    }

    /// Evaluate with `$` bound to an arbitrary context node (JSON_TABLE
    /// nested paths are evaluated relative to their parent row node).
    pub fn evaluate_from<D: JsonDom>(&mut self, dom: &D, start: NodeRef) -> Vec<PathOutput> {
        match self.walk(dom, start) {
            Some(computed) => computed,
            None => self.cur.iter().copied().map(PathOutput::Node).collect(),
        }
    }

    /// Evaluate and materialize every match as an owned value.
    pub fn evaluate_values<D: JsonDom>(&mut self, dom: &D) -> Vec<JsonValue> {
        self.evaluate(dom)
            .into_iter()
            .map(|o| match o {
                PathOutput::Node(n) => dom.materialize(n),
                PathOutput::Computed(v) => v,
            })
            .collect()
    }

    /// True when the path matches at least one item in the document.
    pub fn exists<D: JsonDom>(&mut self, dom: &D) -> bool {
        self.count_first(dom, dom.root()).0 > 0
    }

    /// How many items the path selects with `$` bound to `start`, and the
    /// first of them — what `JSON_VALUE` needs, without collecting the
    /// items.
    pub fn count_first<D: JsonDom>(
        &mut self,
        dom: &D,
        start: NodeRef,
    ) -> (usize, Option<PathOutput>) {
        match self.walk(dom, start) {
            Some(computed) => (computed.len(), computed.into_iter().next()),
            None => (self.cur.len(), self.cur.first().copied().map(PathOutput::Node)),
        }
    }

    /// Run the path from `start`, leaving the matched nodes in `cur`;
    /// `Some` holds the values a final item method computed instead. The
    /// member chain reads the leading `.name` steps; the step loop runs
    /// the rest, each step reading `cur` and writing `next`. No step stops
    /// at a first match, so the counts a walk reports are those of the
    /// whole path.
    fn walk<D: JsonDom>(&mut self, dom: &D, start: NodeRef) -> Option<Vec<PathOutput>> {
        let PathEvaluator { path, ids, cur, next } = self;
        ids.walk += 1;
        metric::SQLJSON_EVAL_PATHS.inc();
        let mut eval_span = fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_SQLJSON_EVAL);
        let (hits0, misses0) = (ids.hits, ids.misses);
        let visited = |n: usize| {
            if n > 0 {
                metric::SQLJSON_EVAL_NODES_VISITED.add(n as u64);
            }
        };
        cur.clear();
        let computed = match member_chain(dom, start, &path.steps, ids) {
            Chain::Done(found, hops) => {
                // one node visited per hop, as the step loop counts them
                visited(hops);
                cur.extend(found);
                None
            }
            Chain::Handoff(node, from) => {
                visited(from);
                cur.push(node);
                let rest = path.steps.get(from..).unwrap_or_default();
                run_steps(dom, rest, path.mode, ids, cur, next, visited)
            }
        };
        if eval_span.is_recording() {
            let (hits, misses) = (ids.hits - hits0, ids.misses - misses0);
            eval_span.record_args(|| format!("lookback hit={hits} miss={misses}"));
        }
        computed
    }
}

/// The step loop: run `steps` in `mode` over the nodes in `cur`, each
/// step reading `cur` and writing `next`, leaving the matches in `cur`;
/// `Some` holds the values a final item method computed instead. No step
/// stops at a first match. `visited` is told how many nodes each step
/// reads.
fn run_steps<D: JsonDom>(
    dom: &D,
    steps: &[Step],
    mode: Mode,
    ids: &mut FieldIds,
    cur: &mut Vec<NodeRef>,
    next: &mut Vec<NodeRef>,
    visited: impl Fn(usize),
) -> Option<Vec<PathOutput>> {
    for step in steps {
        visited(cur.len());
        next.clear();
        match step {
            Step::Field { name, hash } => {
                let id = ids.resolve(dom, name, *hash);
                apply_field(dom, cur, name, *hash, id, mode, next);
            }
            Step::FieldWildcard => apply_field_wildcard(dom, cur, mode, next),
            Step::ArrayWildcard => apply_array_wildcard(dom, cur, mode, next),
            Step::Array(sels) => apply_array_sel(dom, cur, sels, mode, next),
            Step::Filter(pred) => apply_filter(dom, cur, pred, mode, ids, next),
            // the final step: `cur` keeps the nodes it was applied to
            Step::Method(m) => return Some(apply_methods(dom, cur, *m)),
        }
        std::mem::swap(cur, next);
        if cur.is_empty() {
            break;
        }
    }
    None
}

/// Where a member chain stopped.
enum Chain {
    /// It ran its course: the node the last hop reached (`None` when a
    /// member was missing or a hop met a scalar), and the hops attempted.
    Done(Option<NodeRef>, usize),
    /// Step `from` starts on this node and is not a hop the chain takes —
    /// it is no `.name` step, or the node is an array: the general code
    /// runs the steps from there.
    Handoff(NodeRef, usize),
}

/// **The member chain**: follow the leading `.name` steps from `ctx` in
/// place, object to child by field id — the first member of a name, as
/// [`JsonDom::get_field_by_id`] returns it — with each name resolved
/// through `ids`. Up to the hand-off, the step loops would hold exactly
/// the one node the chain holds, so handing the remaining steps over from
/// that node changes neither the answer nor a count.
fn member_chain<D: JsonDom>(dom: &D, ctx: NodeRef, steps: &[Step], ids: &mut FieldIds) -> Chain {
    let mut node = ctx;
    for (i, step) in steps.iter().enumerate() {
        let Step::Field { name, hash } = step else { return Chain::Handoff(node, i) };
        let id = ids.resolve(dom, name, *hash);
        match dom.kind(node) {
            NodeKind::Object => {}
            NodeKind::Array => return Chain::Handoff(node, i),
            NodeKind::Scalar => return Chain::Done(None, i + 1),
        }
        let child = match id {
            Some(Some(id)) => dom.get_field_by_id(node, id),
            Some(None) => None,
            None => dom.get_field(node, name, *hash),
        };
        match child {
            Some(c) => node = c,
            None => return Chain::Done(None, i + 1),
        }
    }
    Chain::Done(Some(node), steps.len())
}

/// Field step into `out`: `id` is the instance field id the name resolved
/// to (`Some(None)`: absent from the instance), `None` to look the name up
/// in each object.
fn apply_field<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    name: &str,
    hash: u32,
    id: Option<Option<FieldId>>,
    mode: Mode,
    out: &mut Vec<NodeRef>,
) {
    let child = |n: NodeRef| match id {
        Some(Some(id)) => dom.get_field_by_id(n, id),
        Some(None) => None,
        None => dom.get_field(n, name, hash),
    };
    for &n in nodes {
        match dom.kind(n) {
            NodeKind::Object => out.extend(child(n)),
            NodeKind::Array if mode == Mode::Lax => {
                // lax implicit unwrap: apply the field step to object
                // elements one level down
                for i in 0..dom.array_len(n) {
                    let e = dom.array_element(n, i);
                    if dom.kind(e) == NodeKind::Object {
                        out.extend(child(e));
                    }
                }
            }
            _ => {}
        }
    }
}

fn apply_field_wildcard<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    mode: Mode,
    out: &mut Vec<NodeRef>,
) {
    let push_children = |n: NodeRef, out: &mut Vec<NodeRef>| {
        for i in 0..dom.object_len(n) {
            out.push(dom.object_entry(n, i).1);
        }
    };
    for &n in nodes {
        match dom.kind(n) {
            NodeKind::Object => push_children(n, out),
            NodeKind::Array if mode == Mode::Lax => {
                for i in 0..dom.array_len(n) {
                    let e = dom.array_element(n, i);
                    if dom.kind(e) == NodeKind::Object {
                        push_children(e, out);
                    }
                }
            }
            _ => {}
        }
    }
}

fn apply_array_wildcard<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    mode: Mode,
    out: &mut Vec<NodeRef>,
) {
    for &n in nodes {
        match dom.kind(n) {
            NodeKind::Array => {
                for i in 0..dom.array_len(n) {
                    out.push(dom.array_element(n, i));
                }
            }
            // lax implicit wrap: a non-array is a one-element array
            _ if mode == Mode::Lax => out.push(n),
            _ => {}
        }
    }
}

fn apply_array_sel<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    sels: &[ArraySel],
    mode: Mode,
    out: &mut Vec<NodeRef>,
) {
    for &n in nodes {
        let is_array = dom.kind(n) == NodeKind::Array;
        if !is_array && mode != Mode::Lax {
            continue;
        }
        let len = if is_array { dom.array_len(n) } else { 1 };
        let get = |i: usize| -> NodeRef {
            if is_array {
                dom.array_element(n, i)
            } else {
                n
            }
        };
        for sel in sels {
            match sel {
                ArraySel::Index(ix) => {
                    if let Some(i) = ix.resolve(len) {
                        out.push(get(i));
                    }
                }
                ArraySel::Range(a, b) => {
                    // lax: a range reaching past the end selects the
                    // existing prefix (`$[0 to 2]` over one element yields
                    // that element)
                    let lo = a.resolve(len);
                    let hi = match b {
                        IndexExpr::At(i) => Some((*i).min(len.saturating_sub(1))),
                        other => other.resolve(len),
                    };
                    if let (Some(lo), Some(hi)) = (lo, hi) {
                        for i in lo..=hi.min(len.saturating_sub(1)) {
                            out.push(get(i));
                        }
                    }
                }
            }
        }
    }
}

fn apply_filter<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    pred: &Predicate,
    mode: Mode,
    ids: &mut FieldIds,
    out: &mut Vec<NodeRef>,
) {
    for &n in nodes {
        // lax: filters over an array apply to its elements
        if mode == Mode::Lax && dom.kind(n) == NodeKind::Array {
            for i in 0..dom.array_len(n) {
                let e = dom.array_element(n, i);
                if eval_pred(dom, e, pred, mode, ids, &mut None) {
                    out.push(e);
                }
            }
        } else if eval_pred(dom, n, pred, mode, ids, &mut None) {
            out.push(n);
        }
    }
}

/// A final item method applied to each node.
fn apply_methods<D: JsonDom>(dom: &D, nodes: &[NodeRef], m: Method) -> Vec<PathOutput> {
    nodes.iter().filter_map(|&n| apply_method(dom, n, m)).map(PathOutput::Computed).collect()
}

/// Evaluate the steps of a relative (`@`) path a member chain handed
/// over, from the node it handed them over at, collecting what they
/// select. It runs lax whatever the mode of the path it sits in, and its
/// names resolve through the evaluator's table like the path's own:
/// once per document, however many elements a filter tests.
fn eval_rel_path<D: JsonDom>(
    dom: &D,
    ctx: NodeRef,
    steps: &[Step],
    ids: &mut FieldIds,
) -> Vec<PathOutput> {
    let (mut cur, mut next) = (vec![ctx], Vec::new());
    run_steps(dom, steps, Mode::Lax, ids, &mut cur, &mut next, |_| {})
        .unwrap_or_else(|| cur.into_iter().map(PathOutput::Node).collect())
}

/// The filter `pred` on the item `ctx`. `at` keeps the item's scalar once
/// a comparison on `@` has read it, so that an `OR` of comparisons on `@`
/// reads it once.
fn eval_pred<'a, D: JsonDom>(
    dom: &'a D,
    ctx: NodeRef,
    pred: &'a Predicate,
    mode: Mode,
    ids: &mut FieldIds,
    at: &mut Option<ScalarRef<'a>>,
) -> bool {
    match pred {
        Predicate::And(a, b) => {
            eval_pred(dom, ctx, a, mode, ids, at) && eval_pred(dom, ctx, b, mode, ids, at)
        }
        Predicate::Or(a, b) => {
            eval_pred(dom, ctx, a, mode, ids, at) || eval_pred(dom, ctx, b, mode, ids, at)
        }
        Predicate::Not(p) => !eval_pred(dom, ctx, p, mode, ids, at),
        Predicate::Exists(steps) => !Bound::path(dom, ctx, steps, ids).is_empty(),
        Predicate::Cmp(lhs, op, rhs) => {
            // both operands are bound before any pair is compared, so a
            // relative path is walked once per test whatever it finds
            let (lhs, rhs) =
                (Bound::new(dom, ctx, lhs, ids, at), Bound::new(dom, ctx, rhs, ids, at));
            // SQL/JSON existential comparison: true if any pair satisfies
            lhs.each_scalar(dom, mode, &mut |a| {
                rhs.each_scalar(dom, mode, &mut |b| cmp_scalars(&a, *op, &b))
            })
        }
    }
}

/// A streamed filter's predicate (see [`JsonPath::token_filter`]) on an
/// item parsed into `dom`, tested as the filter tests one item: as a
/// whole, in lax mode.
///
/// [`JsonPath::token_filter`]: crate::path::JsonPath::token_filter
pub(crate) fn filter_item<D: JsonDom>(dom: &D, pred: &Predicate) -> bool {
    eval_pred(dom, dom.root(), pred, Mode::Lax, &mut FieldIds::default(), &mut None)
}

/// A streamed filter's predicate on a scalar item no DOM holds — a token
/// of the text — tested by [`eval_pred`] itself, over a DOM whose one
/// node is that scalar: `@` binds it as it binds any scalar item.
pub(crate) fn filter_scalar(pred: &Predicate, item: ScalarRef<'_>) -> bool {
    filter_item(&ScalarDom(item), pred)
}

/// A DOM of one scalar node, its root.
struct ScalarDom<'a>(ScalarRef<'a>);

impl JsonDom for ScalarDom<'_> {
    fn root(&self) -> NodeRef {
        0
    }

    fn kind(&self, _: NodeRef) -> NodeKind {
        NodeKind::Scalar
    }

    fn object_len(&self, _: NodeRef) -> usize {
        0
    }

    fn object_entry(&self, node: NodeRef, _: usize) -> (&str, NodeRef) {
        ("", node)
    }

    fn array_len(&self, _: NodeRef) -> usize {
        0
    }

    fn array_element(&self, node: NodeRef, _: usize) -> NodeRef {
        node
    }

    fn scalar(&self, _: NodeRef) -> ScalarRef<'_> {
        self.0.clone()
    }

    fn get_field(&self, _: NodeRef, _: &str, _: u32) -> Option<NodeRef> {
        None
    }
}

/// A comparison operand, or an `exists` path, bound to one context item.
enum Bound<'p> {
    /// A literal of the path.
    Lit(&'p JsonValue),
    /// `@` itself, a scalar, read.
    Scalar(ScalarRef<'p>),
    /// A node read in place: `@` itself, or what a member chain (`@.a.b`)
    /// reached.
    Item(NodeRef),
    /// What a relative path the member chain handed over selected; empty,
    /// and not allocated, when a member is missing.
    Items(Vec<PathOutput>),
}

impl<'p> Bound<'p> {
    fn new<D: JsonDom>(
        dom: &'p D,
        ctx: NodeRef,
        op: &'p Operand,
        ids: &mut FieldIds,
        at: &mut Option<ScalarRef<'p>>,
    ) -> Self {
        match op {
            Operand::Lit(v) => Bound::Lit(v),
            Operand::Path(steps) if steps.is_empty() && dom.kind(ctx) == NodeKind::Scalar => {
                Bound::Scalar(at.get_or_insert_with(|| dom.scalar(ctx)).clone())
            }
            Operand::Path(steps) => Bound::path(dom, ctx, steps, ids),
        }
    }

    /// What relative path `steps` selects from `ctx`: read in place by the
    /// member chain, or collected by the general code it hands over to.
    fn path<D: JsonDom>(dom: &D, ctx: NodeRef, steps: &[Step], ids: &mut FieldIds) -> Self {
        if steps.is_empty() {
            // `@` itself, bound once per element: not worth a chain
            return Bound::Item(ctx);
        }
        match member_chain(dom, ctx, steps, ids) {
            Chain::Done(Some(n), _) => Bound::Item(n),
            Chain::Done(None, _) => Bound::Items(Vec::new()),
            Chain::Handoff(n, from) => {
                Bound::Items(eval_rel_path(dom, n, steps.get(from..).unwrap_or_default(), ids))
            }
        }
    }

    /// True when a relative path selected nothing.
    fn is_empty(&self) -> bool {
        matches!(self, Bound::Items(items) if items.is_empty())
    }

    /// Offer each scalar the operand denotes to `f`, borrowed, until `f`
    /// accepts one; whether it did.
    fn each_scalar<D: JsonDom>(
        &self,
        dom: &D,
        mode: Mode,
        f: &mut impl FnMut(ScalarRef<'_>) -> bool,
    ) -> bool {
        match self {
            Bound::Lit(v) => value_scalar(v).is_some_and(f),
            Bound::Scalar(s) => f(s.clone()),
            Bound::Item(n) => node_scalars(dom, *n, mode, f),
            Bound::Items(items) => items.iter().any(|o| match o {
                PathOutput::Node(n) => node_scalars(dom, *n, mode, f),
                PathOutput::Computed(v) => value_scalar(v).is_some_and(&mut *f),
            }),
        }
    }
}

/// The scalars node `n` offers a comparison: itself, or — lax mode only —
/// the scalar elements of an array, one level deep. An object offers none.
fn node_scalars<D: JsonDom>(
    dom: &D,
    n: NodeRef,
    mode: Mode,
    f: &mut impl FnMut(ScalarRef<'_>) -> bool,
) -> bool {
    match dom.kind(n) {
        NodeKind::Scalar => f(dom.scalar(n)),
        NodeKind::Array if mode == Mode::Lax => (0..dom.array_len(n)).any(|i| {
            let e = dom.array_element(n, i);
            dom.kind(e) == NodeKind::Scalar && f(dom.scalar(e))
        }),
        _ => false,
    }
}

/// A scalar value viewed as a [`ScalarRef`]; `None` for a container.
fn value_scalar(v: &JsonValue) -> Option<ScalarRef<'_>> {
    match v {
        JsonValue::String(s) => Some(ScalarRef::Str(s)),
        JsonValue::Number(x) => Some(ScalarRef::Num(*x)),
        JsonValue::Bool(b) => Some(ScalarRef::Bool(*b)),
        JsonValue::Null => Some(ScalarRef::Null),
        JsonValue::Array(_) | JsonValue::Object(_) => None,
    }
}

/// One comparison of two scalars. Numbers order by value, strings by
/// bytes, booleans false before true, and null equals null; `starts with`
/// and `has substring` take two strings. Scalars of two types compare
/// false under every operator, `!=` included: the answer is unknown.
fn cmp_scalars(a: &ScalarRef<'_>, op: CmpOp, b: &ScalarRef<'_>) -> bool {
    use std::cmp::Ordering::*;
    let ord = match (a, op, b) {
        (ScalarRef::Str(x), CmpOp::StartsWith, ScalarRef::Str(y)) => return x.starts_with(y),
        (ScalarRef::Str(x), CmpOp::HasSubstring, ScalarRef::Str(y)) => return x.contains(y),
        (_, CmpOp::StartsWith | CmpOp::HasSubstring, _) => return false,
        (ScalarRef::Str(x), _, ScalarRef::Str(y)) => x.cmp(y),
        (ScalarRef::Num(x), _, ScalarRef::Num(y)) => x.total_cmp(y),
        (ScalarRef::Bool(x), _, ScalarRef::Bool(y)) => x.cmp(y),
        (ScalarRef::Null, _, ScalarRef::Null) => Equal,
        _ => return false,
    };
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
        CmpOp::StartsWith | CmpOp::HasSubstring => false,
    }
}

fn apply_method<D: JsonDom>(dom: &D, n: NodeRef, m: Method) -> Option<JsonValue> {
    let scalar = || -> Option<JsonValue> {
        (dom.kind(n) == NodeKind::Scalar).then(|| dom.scalar(n).to_value())
    };
    match m {
        Method::Type => {
            let t = match dom.kind(n) {
                NodeKind::Object => "object",
                NodeKind::Array => "array",
                NodeKind::Scalar => match dom.scalar(n) {
                    ScalarRef::Str(_) => "string",
                    ScalarRef::Num(_) => "number",
                    ScalarRef::Bool(_) => "boolean",
                    ScalarRef::Null => "null",
                },
            };
            Some(JsonValue::String(t.to_string()))
        }
        Method::Size => {
            let s = match dom.kind(n) {
                NodeKind::Array => dom.array_len(n),
                _ => 1,
            };
            Some(JsonValue::from(s))
        }
        Method::Length => match scalar()? {
            JsonValue::String(s) => Some(JsonValue::from(s.chars().count())),
            _ => None,
        },
        Method::Number => match scalar()? {
            v @ JsonValue::Number(_) => Some(v),
            JsonValue::String(s) => JsonNumber::from_literal(s.trim()).ok().map(JsonValue::Number),
            _ => None,
        },
        Method::StringM => match scalar()? {
            JsonValue::String(s) => Some(JsonValue::String(s)),
            JsonValue::Number(x) => Some(JsonValue::String(x.to_literal())),
            JsonValue::Bool(b) => Some(JsonValue::String(b.to_string())),
            _ => None,
        },
        Method::Upper => match scalar()? {
            JsonValue::String(s) => Some(JsonValue::String(s.to_uppercase())),
            _ => None,
        },
        Method::Lower => match scalar()? {
            JsonValue::String(s) => Some(JsonValue::String(s.to_lowercase())),
            _ => None,
        },
        Method::Abs => num_method(scalar()?, f64::abs),
        Method::Ceiling => num_method(scalar()?, f64::ceil),
        Method::Floor => num_method(scalar()?, f64::floor),
        Method::Double => match scalar()? {
            JsonValue::Number(x) => Some(JsonValue::Number(JsonNumber::Dbl(x.to_f64()))),
            // a string beyond the range (or "inf", "NaN") is no number
            JsonValue::String(s) => s
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .map(|v| JsonValue::Number(JsonNumber::Dbl(v))),
            _ => None,
        },
    }
}

fn num_method(v: JsonValue, f: fn(f64) -> f64) -> Option<JsonValue> {
    match v {
        JsonValue::Number(x) => Some(JsonValue::from(f(x.to_f64()))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;
    use fsdm_json::{parse, ValueDom};

    fn eval(doc: &str, path: &str) -> Vec<JsonValue> {
        let v = parse(doc).unwrap();
        let dom = ValueDom::new(&v);
        let mut ev = PathEvaluator::new(parse_path(path).unwrap());
        ev.evaluate_values(&dom)
    }

    const PO: &str = r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
        {"name":"phone","price":100,"quantity":2},
        {"name":"ipad","price":350.86,"quantity":3},
        {"name":"case","price":15,"quantity":10}]}}"#;

    #[test]
    fn simple_field_chain() {
        assert_eq!(eval(PO, "$.purchaseOrder.id"), vec![parse("1").unwrap()]);
        assert!(eval(PO, "$.purchaseOrder.missing").is_empty());
    }

    #[test]
    fn array_wildcard_and_unwrap() {
        let names = eval(PO, "$.purchaseOrder.items[*].name");
        assert_eq!(names.len(), 3);
        // lax: field step over the array without [*] unwraps implicitly
        let names2 = eval(PO, "$.purchaseOrder.items.name");
        assert_eq!(names, names2);
    }

    #[test]
    fn array_selectors() {
        assert_eq!(eval(PO, "$.purchaseOrder.items[1].name"), vec![parse("\"ipad\"").unwrap()]);
        assert_eq!(eval(PO, "$.purchaseOrder.items[last].name"), vec![parse("\"case\"").unwrap()]);
        assert_eq!(eval(PO, "$.purchaseOrder.items[0 to 1].name").len(), 2);
        assert_eq!(
            eval(PO, "$.purchaseOrder.items[last - 2].name"),
            vec![parse("\"phone\"").unwrap()]
        );
        assert!(eval(PO, "$.purchaseOrder.items[9].name").is_empty());
    }

    #[test]
    fn lax_wraps_scalars_for_array_steps() {
        assert_eq!(eval(PO, "$.purchaseOrder.id[0]"), vec![parse("1").unwrap()]);
        assert_eq!(eval(PO, "$.purchaseOrder.id[*]"), vec![parse("1").unwrap()]);
        assert!(eval("{\"a\":1}", "strict $.a[0]").is_empty());
    }

    #[test]
    fn filters() {
        let cheap = eval(PO, "$.purchaseOrder.items[*]?(@.price < 200).name");
        assert_eq!(cheap.len(), 2);
        let and = eval(PO, "$.purchaseOrder.items[*]?(@.price < 200 && @.quantity > 5).name");
        assert_eq!(and, vec![parse("\"case\"").unwrap()]);
        let or = eval(PO, "$.purchaseOrder.items[*]?(@.name == 'phone' || @.name == 'ipad')");
        assert_eq!(or.len(), 2);
        let exists = eval(PO, "$.purchaseOrder?(exists(@.items)).id");
        assert_eq!(exists, vec![parse("1").unwrap()]);
        let not = eval(PO, "$.purchaseOrder.items[*]?(!(@.name == 'case')).name");
        assert_eq!(not.len(), 2);
    }

    #[test]
    fn filter_without_explicit_wildcard_unwraps_in_lax() {
        let r = eval(PO, "$.purchaseOrder.items?(@.price > 300).name");
        assert_eq!(r, vec![parse("\"ipad\"").unwrap()]);
    }

    #[test]
    fn starts_with_and_substring() {
        assert_eq!(
            eval(PO, "$.purchaseOrder.items[*]?(@.name starts with 'ph').price"),
            vec![parse("100").unwrap()]
        );
        assert_eq!(
            eval(PO, "$.purchaseOrder.items[*]?(@.name has substring 'pa').name"),
            vec![parse("\"ipad\"").unwrap()]
        );
    }

    #[test]
    fn field_wildcard() {
        let all = eval(PO, "$.purchaseOrder.*");
        assert_eq!(all.len(), 3); // id, podate, items
    }

    #[test]
    fn methods() {
        assert_eq!(eval(PO, "$.purchaseOrder.items.type()"), vec![parse("\"array\"").unwrap()]);
        assert_eq!(eval(PO, "$.purchaseOrder.items.size()"), vec![parse("3").unwrap()]);
        assert_eq!(eval(PO, "$.purchaseOrder.podate.length()"), vec![parse("10").unwrap()]);
        assert_eq!(
            eval(PO, "$.purchaseOrder.items[0].name.upper()"),
            vec![parse("\"PHONE\"").unwrap()]
        );
        assert_eq!(eval("{\"x\":\"12.5\"}", "$.x.number()"), vec![parse("12.5").unwrap()]);
        assert_eq!(eval("{\"x\":-3}", "$.x.abs()"), vec![parse("3").unwrap()]);
        assert_eq!(eval("{\"x\":2.3}", "$.x.ceiling()"), vec![parse("3").unwrap()]);
        assert_eq!(eval("{\"x\":2.3}", "$.x.floor()"), vec![parse("2").unwrap()]);
    }

    #[test]
    fn literal_comparisons_against_numbers_and_strings() {
        assert_eq!(eval(PO, "$.purchaseOrder?(@.podate == '2014-09-08').id").len(), 1);
        assert_eq!(eval(PO, "$.purchaseOrder?(@.id >= 1).id").len(), 1);
        assert!(eval(PO, "$.purchaseOrder?(@.id == '1').id").is_empty(), "no cross-type eq");
    }

    /// How many items `path` selects from `doc` over the in-memory DOM,
    /// OSON and BSON; the three must agree.
    fn count_everywhere(doc: &str, path: &str) -> usize {
        let v = parse(doc).unwrap();
        let (oson, bson) = (fsdm_oson::encode(&v).unwrap(), fsdm_bson::encode(&v).unwrap());
        let jp = parse_path(path).unwrap();
        let counts = [
            PathEvaluator::new(jp.clone()).evaluate(&ValueDom::new(&v)).len(),
            PathEvaluator::new(jp.clone()).evaluate(&fsdm_oson::OsonDoc::new(&oson).unwrap()).len(),
            PathEvaluator::new(jp).evaluate(&fsdm_bson::BsonDoc::new(&bson).unwrap()).len(),
        ];
        assert!(counts.iter().all(|&c| c == counts[0]), "{path} over {doc}: {counts:?}");
        counts[0]
    }

    #[test]
    fn lax_comparison_unwraps_an_array_operand() {
        let doc = r#"{"a":[1,2],"b":{"c":[3,"x",[4]]},"s":["ab","cd"]}"#;
        for mode in ["", "lax "] {
            assert_eq!(count_everywhere(doc, &format!("{mode}$?(@.a == 1)")), 1);
            assert_eq!(count_everywhere(doc, &format!("{mode}$.b?(@.c > 2)")), 1);
            assert_eq!(count_everywhere(doc, &format!("{mode}$?(@.s starts with \"c\")")), 1);
            // one level deep: the nested [4] offers no scalar
            assert_eq!(count_everywhere(doc, &format!("{mode}$.b?(@.c == 4)")), 0);
            assert_eq!(count_everywhere(doc, &format!("{mode}$?(@.a == 3)")), 0);
        }
        assert_eq!(count_everywhere(r#"{"a":{"b":[3]}}"#, "$.a?(@.b > 2)"), 1);
    }

    #[test]
    fn strict_comparison_does_not_unwrap_an_array_operand() {
        let doc = r#"{"a":[1,2],"b":1}"#;
        assert_eq!(count_everywhere(doc, "strict $?(@.a == 1)"), 0);
        assert_eq!(count_everywhere(doc, "strict $?(@.b == 1)"), 1);
    }

    #[test]
    fn count_first_and_exists_answer_as_evaluate_does() {
        let v = parse(PO).unwrap();
        let dom = ValueDom::new(&v);
        for p in ["$.purchaseOrder.items[*].price", "$.nothing", "$.purchaseOrder.items.size()"] {
            let mut ev = PathEvaluator::new(parse_path(p).unwrap());
            let all = ev.evaluate(&dom);
            assert_eq!(ev.count_first(&dom, dom.root()), (all.len(), all.first().cloned()), "{p}");
            assert_eq!(ev.exists(&dom), !all.is_empty(), "{p}");
        }
    }

    #[test]
    fn lookback_cache_hits_on_oson_collections() {
        let mk = |name: &str, price: i64| {
            let text = format!(r#"{{"name":"{name}","price":{price}}}"#);
            fsdm_oson::encode(&parse(&text).unwrap()).unwrap()
        };
        let docs: Vec<Vec<u8>> = (0..10).map(|i| mk("x", i)).collect();
        let mut ev = PathEvaluator::new(parse_path("$.price").unwrap());
        let mut total = 0i64;
        for d in &docs {
            let doc = fsdm_oson::OsonDoc::new(d).unwrap();
            for o in ev.evaluate(&doc) {
                if let PathOutput::Node(n) = o {
                    if let ScalarRef::Num(num) = doc.scalar(n) {
                        total += num.to_i64().unwrap();
                    }
                }
            }
        }
        assert_eq!(total, 45);
        // 10 documents, same dictionary: 9 of the 10 resolutions are cached
        assert_eq!(ev.lookback_hits(), 9);
    }

    #[test]
    fn member_chains_read_the_first_member_and_stop_at_scalars_and_absent_names() {
        // duplicate names: the first member is the one a hop reads
        let dup = r#"{"a":1,"a":2,"o":{"b":{"c":3},"b":{"c":4}}}"#;
        assert_eq!(count_everywhere(dup, "$?(@.a == 1)"), 1);
        assert_eq!(count_everywhere(dup, "$?(@.a == 2)"), 0);
        assert_eq!(count_everywhere(dup, "$?(@.o.b.c == 3)"), 1);
        assert_eq!(count_everywhere(dup, "$?(@.o.b.c == 4)"), 0);
        assert_eq!(count_everywhere(dup, "$.o.b.c"), 1);
        // a hop from a scalar, and a name no member has, select nothing
        let doc = r#"{"a":5,"o":{"b":true}}"#;
        for path in ["$?(@.a.b == 5)", "$?(@.o.b.c == true)", "$?(@.zz == 1)", "$?(@.o.zz != 1)"] {
            assert_eq!(count_everywhere(doc, path), 0, "{path}");
        }
        for path in ["$.a.b", "$.o.b.c", "$.zz", "$.o.zz.b", "$?(exists(@.o.zz))"] {
            assert_eq!(count_everywhere(doc, path), 0, "{path}");
        }
        assert_eq!(count_everywhere(doc, "$?(exists(@.o.b))"), 1);
        assert_eq!(count_everywhere(doc, "$?(@.zz != 1 || @.o.b == true)"), 1);
    }

    #[test]
    fn an_array_at_a_middle_hop_hands_the_chain_to_the_step_loop() {
        let doc = r#"{"a":[{"b":1},{"b":[2,3]},7,{"c":0}],"o":{"p":[{"q":"x"}]}}"#;
        // lax unwraps the array under a path's own member step, strict not
        assert_eq!(count_everywhere(doc, "$.a.b"), 2);
        assert_eq!(count_everywhere(doc, "strict $.a.b"), 0);
        assert_eq!(count_everywhere(doc, "$.o.p.q"), 1);
        assert_eq!(count_everywhere(doc, "strict $.o.p.q"), 0);
        // a relative path runs lax in either mode; strict then offers no
        // scalar of an array operand
        for mode in ["", "strict "] {
            assert_eq!(count_everywhere(doc, &format!("{mode}$?(@.a.b == 1)")), 1, "{mode}");
            assert_eq!(count_everywhere(doc, &format!("{mode}$?(@.o.p.q == \"x\")")), 1, "{mode}");
            assert_eq!(count_everywhere(doc, &format!("{mode}$?(exists(@.a.c))")), 1, "{mode}");
        }
        assert_eq!(count_everywhere(doc, "$?(@.a.b == 3)"), 1, "lax unwraps [2,3]");
        assert_eq!(count_everywhere(doc, "strict $?(@.a.b == 3)"), 0, "strict does not");
    }

    #[test]
    fn a_member_path_from_a_non_object_context_selects_as_the_step_loop_does() {
        let v =
            parse(r#"{"xs":[1,{"name":"n"},[{"name":"m"},{"name":"k"}],null,{"z":0}]}"#).unwrap();
        let oson = fsdm_oson::encode(&v).unwrap();
        let bson = fsdm_bson::encode(&v).unwrap();
        fn counts<D: JsonDom>(dom: &D, mode: &str) -> Vec<usize> {
            let rows = PathEvaluator::new(parse_path("$.xs[*]").unwrap()).evaluate(dom);
            let mut col = PathEvaluator::new(parse_path(&format!("{mode}$.name")).unwrap());
            let nodes = rows.into_iter().map(|o| match o {
                PathOutput::Node(n) => n,
                PathOutput::Computed(v) => panic!("{v}"),
            });
            nodes.map(|n| col.count_first(dom, n).0).collect()
        }
        for mode in ["", "strict "] {
            let want = if mode.is_empty() { [0, 1, 2, 0, 0] } else { [0, 1, 0, 0, 0] };
            assert_eq!(counts(&ValueDom::new(&v), mode), want, "dom {mode}");
            assert_eq!(counts(&fsdm_oson::OsonDoc::new(&oson).unwrap(), mode), want, "oson {mode}");
            assert_eq!(counts(&fsdm_bson::BsonDoc::new(&bson).unwrap(), mode), want, "bson {mode}");
        }
    }

    /// One evaluator over documents whose dictionaries give the same
    /// names different ids answers as a fresh evaluator per document, and
    /// resolves each of its names — the path's steps and the filter's
    /// operands alike — exactly once per document.
    #[test]
    fn one_evaluator_resolves_each_name_once_per_document_across_dictionaries() {
        let shapes = [
            |i: i64| {
                format!(r#"{{"items":[{{"partno":"p0","qty":{i}}},{{"partno":"p1","qty":1}}]}}"#)
            },
            // more names, hashed around the shared ones: other ids
            |i: i64| {
                format!(
                    r#"{{"a0":1,"items":[{{"qty":{i},"m":2,"partno":"p2"}},{{"zz":0,"partno":"p1","qty":3}}],"b7":[]}}"#
                )
            },
            |i: i64| format!(r#"{{"items":[{{"partno":"p3"}},{{"note":"x","qty":{i}}}]}}"#),
        ];
        let docs: Vec<Vec<u8>> = (0..30)
            .map(|i| fsdm_oson::encode(&parse(&shapes[i % 3](i as i64)).unwrap()).unwrap())
            .collect();
        let path = parse_path(r#"$.items[*]?(@.partno == "p1" || @.qty > 10).partno"#).unwrap();
        let mut shared = PathEvaluator::new(path.clone());
        for bytes in &docs {
            let doc = fsdm_oson::OsonDoc::new(bytes).unwrap();
            let fresh = PathEvaluator::new(path.clone()).evaluate_values(&doc);
            assert_eq!(shared.evaluate_values(&doc), fresh);
        }
        // items, partno, qty: three names, each resolved once per document
        assert_eq!(shared.lookback_hits() + shared.lookback_misses(), 3 * docs.len() as u64);
        assert!(shared.lookback_misses() >= docs.len() as u64, "the dictionaries alternate");
    }

    #[test]
    fn engine_agrees_across_backends() {
        let v = parse(PO).unwrap();
        let oson_bytes = fsdm_oson::encode(&v).unwrap();
        let bson_bytes = fsdm_bson::encode(&v).unwrap();
        let paths = [
            "$.purchaseOrder.id",
            "$.purchaseOrder.items[*].price",
            "$.purchaseOrder.items[*]?(@.quantity > 2).name",
            "$.purchaseOrder.items[last].price",
        ];
        for p in paths {
            let dom = ValueDom::new(&v);
            let mut e1 = PathEvaluator::new(parse_path(p).unwrap());
            let r1 = e1.evaluate_values(&dom);
            let od = fsdm_oson::OsonDoc::new(&oson_bytes).unwrap();
            let mut e2 = PathEvaluator::new(parse_path(p).unwrap());
            let r2 = e2.evaluate_values(&od);
            let bd = fsdm_bson::BsonDoc::new(&bson_bytes).unwrap();
            let mut e3 = PathEvaluator::new(parse_path(p).unwrap());
            let r3 = e3.evaluate_values(&bd);
            assert_eq!(r1.len(), r2.len(), "{p}: dom vs oson");
            assert_eq!(r1.len(), r3.len(), "{p}: dom vs bson");
            for (a, b) in r1.iter().zip(&r2) {
                assert!(a.eq_unordered(b), "{p}: {a} vs {b}");
            }
            for (a, b) in r1.iter().zip(&r3) {
                assert!(a.eq_unordered(b), "{p}: {a} vs {b}");
            }
        }
    }
}
