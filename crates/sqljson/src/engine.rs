//! The DOM path engine (§5.1): one generic evaluator over
//! [`fsdm_json::JsonDom`], so the identical engine runs against an
//! in-memory DOM, a serialized OSON instance, or a BSON buffer.
//!
//! The evaluator is a stateful cursor: it owns the compiled path and a
//! per-field-step **look-back cache** of `(dictionary fingerprint → field
//! id)` mappings. When a collection is structurally homogeneous,
//! consecutive OSON instances share a dictionary fingerprint, and field-id
//! resolution (hash binary search + name compare) is skipped entirely —
//! the "single-row look-back" optimization of §4.2.1.

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

/// Per-field-step look-back cache entry: the id the name resolved to in
/// the previous document (validated per instance in O(1)).
#[derive(Debug, Clone, Copy)]
enum LookBack {
    /// Nothing cached yet.
    Empty,
    /// Resolved to this id last time.
    Id(FieldId),
    /// Name was absent from the previous instance's dictionary.
    Absent,
}

/// A reusable evaluation cursor for one compiled path.
pub struct PathEvaluator {
    path: JsonPath,
    /// One slot per top-level `Step::Field`, indexed by position among the
    /// field steps.
    lookback: Vec<LookBack>,
    /// Count of field resolutions skipped thanks to the look-back cache
    /// (observability for tests/benches).
    pub lookback_hits: u64,
    /// Count of field resolutions that had to consult the instance
    /// dictionary (cache empty, stale, or the field absent).
    pub lookback_misses: u64,
}

impl PathEvaluator {
    /// Build a cursor for a compiled path.
    pub fn new(path: JsonPath) -> Self {
        let nfields = path.steps.iter().filter(|s| matches!(s, Step::Field { .. })).count();
        PathEvaluator {
            path,
            lookback: vec![LookBack::Empty; nfields],
            lookback_hits: 0,
            lookback_misses: 0,
        }
    }

    /// The compiled path.
    pub fn path(&self) -> &JsonPath {
        &self.path
    }

    /// Evaluate against one document, producing all matching items.
    pub fn evaluate<D: JsonDom>(&mut self, dom: &D) -> Vec<PathOutput> {
        self.evaluate_from(dom, dom.root())
    }

    /// Evaluate with `$` bound to an arbitrary context node (JSON_TABLE
    /// nested paths are evaluated relative to their parent row node).
    pub fn evaluate_from<D: JsonDom>(&mut self, dom: &D, start: NodeRef) -> Vec<PathOutput> {
        let mode = self.path.mode;
        let mut current: Vec<NodeRef> = vec![start];
        let mut field_idx = 0usize;
        let steps = std::mem::take(&mut self.path.steps);
        let mut computed: Option<Vec<PathOutput>> = None;
        fsdm_obs::counter!(fsdm_obs::catalog::SQLJSON_EVAL_PATHS).inc();
        let mut eval_span = fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_SQLJSON_EVAL);
        let (hits0, misses0) = (self.lookback_hits, self.lookback_misses);
        for step in &steps {
            fsdm_obs::counter!(fsdm_obs::catalog::SQLJSON_EVAL_NODES_VISITED)
                .add(current.len() as u64);
            match step {
                Step::Field { name, hash } => {
                    let slot = field_idx;
                    field_idx += 1;
                    current = self.apply_field(dom, &current, name, *hash, slot, mode);
                }
                Step::FieldWildcard => {
                    current = apply_field_wildcard(dom, &current, mode);
                }
                Step::ArrayWildcard => {
                    current = apply_array_wildcard(dom, &current, mode);
                }
                Step::Array(sels) => {
                    current = apply_array_sel(dom, &current, sels, mode);
                }
                Step::Filter(pred) => {
                    current = apply_filter(dom, &current, pred, mode);
                }
                Step::Method(m) => {
                    computed = Some(
                        current
                            .iter()
                            .filter_map(|&n| apply_method(dom, n, *m))
                            .map(PathOutput::Computed)
                            .collect(),
                    );
                }
            }
            if current.is_empty() && computed.is_none() {
                break;
            }
        }
        self.path.steps = steps;
        if eval_span.is_recording() {
            let (hits, misses) = (self.lookback_hits - hits0, self.lookback_misses - misses0);
            eval_span.record_args(|| format!("lookback hit={hits} miss={misses}"));
        }
        match computed {
            Some(c) => c,
            None => current.into_iter().map(PathOutput::Node).collect(),
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
        !self.evaluate(dom).is_empty()
    }

    /// Field step with look-back-cached id resolution.
    fn apply_field<D: JsonDom>(
        &mut self,
        dom: &D,
        nodes: &[NodeRef],
        name: &str,
        hash: u32,
        slot: usize,
        mode: Mode,
    ) -> Vec<NodeRef> {
        // Resolve the instance field id once per field step per document,
        // reusing the previous document's id when this instance's
        // dictionary validates it (the §4.2.1 single-row look-back).
        let cached = self.lookback.get(slot).copied().unwrap_or(LookBack::Empty);
        let resolved: Option<Option<FieldId>> = if dom.has_field_ids() {
            match cached {
                LookBack::Id(id) if dom.verify_field_id(id, name, hash) => {
                    self.lookback_hits += 1;
                    fsdm_obs::counter!(fsdm_obs::catalog::SQLJSON_LOOKBACK_HIT).inc();
                    Some(Some(id))
                }
                _ => {
                    let id = dom.field_id(name, hash);
                    self.lookback_misses += 1;
                    fsdm_obs::counter!(fsdm_obs::catalog::SQLJSON_LOOKBACK_MISS).inc();
                    if let Some(entry) = self.lookback.get_mut(slot) {
                        *entry = match id {
                            Some(i) => LookBack::Id(i),
                            None => {
                                fsdm_obs::counter!(fsdm_obs::catalog::SQLJSON_LOOKBACK_ABSENT)
                                    .inc();
                                LookBack::Absent
                            }
                        };
                    }
                    Some(id)
                }
            }
        } else {
            None // no instance dictionary: fall back to by-name lookup
        };
        let mut out = Vec::with_capacity(nodes.len());
        for &n in nodes {
            match dom.kind(n) {
                NodeKind::Object => {
                    let child = match resolved {
                        Some(Some(id)) => dom.get_field_by_id(n, id),
                        Some(None) => None,
                        None => dom.get_field(n, name, hash),
                    };
                    if let Some(c) = child {
                        out.push(c);
                    }
                }
                NodeKind::Array if mode == Mode::Lax => {
                    // lax implicit unwrap: apply the field step to object
                    // elements one level down
                    for i in 0..dom.array_len(n) {
                        let e = dom.array_element(n, i);
                        if dom.kind(e) == NodeKind::Object {
                            let child = match resolved {
                                Some(Some(id)) => dom.get_field_by_id(e, id),
                                Some(None) => None,
                                None => dom.get_field(e, name, hash),
                            };
                            if let Some(c) = child {
                                out.push(c);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }
}

fn apply_field_wildcard<D: JsonDom>(dom: &D, nodes: &[NodeRef], mode: Mode) -> Vec<NodeRef> {
    let mut out = Vec::new();
    let push_children = |n: NodeRef, out: &mut Vec<NodeRef>| {
        for i in 0..dom.object_len(n) {
            out.push(dom.object_entry(n, i).1);
        }
    };
    for &n in nodes {
        match dom.kind(n) {
            NodeKind::Object => push_children(n, &mut out),
            NodeKind::Array if mode == Mode::Lax => {
                for i in 0..dom.array_len(n) {
                    let e = dom.array_element(n, i);
                    if dom.kind(e) == NodeKind::Object {
                        push_children(e, &mut out);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn apply_array_wildcard<D: JsonDom>(dom: &D, nodes: &[NodeRef], mode: Mode) -> Vec<NodeRef> {
    let mut out = Vec::new();
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
    out
}

fn apply_array_sel<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    sels: &[ArraySel],
    mode: Mode,
) -> Vec<NodeRef> {
    let mut out = Vec::new();
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
    out
}

fn apply_filter<D: JsonDom>(
    dom: &D,
    nodes: &[NodeRef],
    pred: &Predicate,
    mode: Mode,
) -> Vec<NodeRef> {
    let mut out = Vec::new();
    for &n in nodes {
        // lax: filters over an array apply to its elements
        if mode == Mode::Lax && dom.kind(n) == NodeKind::Array {
            for i in 0..dom.array_len(n) {
                let e = dom.array_element(n, i);
                if eval_pred(dom, e, pred) {
                    out.push(e);
                }
            }
        } else if eval_pred(dom, n, pred) {
            out.push(n);
        }
    }
    out
}

/// Evaluate a relative (`@`) path without look-back caching (filter paths
/// are usually one or two steps; their per-document resolution cost is the
/// hash binary search, which is already cheap).
fn eval_rel_path<D: JsonDom>(dom: &D, ctx: NodeRef, steps: &[Step]) -> Vec<PathOutput> {
    let mut current = vec![ctx];
    for step in steps {
        match step {
            Step::Field { name, hash } => {
                let mut next = Vec::new();
                for &n in &current {
                    match dom.kind(n) {
                        NodeKind::Object => {
                            if let Some(c) = dom.get_field(n, name, *hash) {
                                next.push(c);
                            }
                        }
                        NodeKind::Array => {
                            for i in 0..dom.array_len(n) {
                                let e = dom.array_element(n, i);
                                if dom.kind(e) == NodeKind::Object {
                                    if let Some(c) = dom.get_field(e, name, *hash) {
                                        next.push(c);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
                current = next;
            }
            Step::FieldWildcard => current = apply_field_wildcard(dom, &current, Mode::Lax),
            Step::ArrayWildcard => current = apply_array_wildcard(dom, &current, Mode::Lax),
            Step::Array(sels) => current = apply_array_sel(dom, &current, sels, Mode::Lax),
            Step::Filter(p) => current = apply_filter(dom, &current, p, Mode::Lax),
            Step::Method(m) => {
                return current
                    .iter()
                    .filter_map(|&n| apply_method(dom, n, *m))
                    .map(PathOutput::Computed)
                    .collect()
            }
        }
        if current.is_empty() {
            break;
        }
    }
    current.into_iter().map(PathOutput::Node).collect()
}

fn eval_pred<D: JsonDom>(dom: &D, ctx: NodeRef, pred: &Predicate) -> bool {
    match pred {
        Predicate::And(a, b) => eval_pred(dom, ctx, a) && eval_pred(dom, ctx, b),
        Predicate::Or(a, b) => eval_pred(dom, ctx, a) || eval_pred(dom, ctx, b),
        Predicate::Not(p) => !eval_pred(dom, ctx, p),
        Predicate::Exists(steps) => !eval_rel_path(dom, ctx, steps).is_empty(),
        Predicate::Cmp(lhs, op, rhs) => {
            let lv = operand_scalars(dom, ctx, lhs);
            let rv = operand_scalars(dom, ctx, rhs);
            // SQL/JSON existential comparison: true if any pair satisfies
            lv.iter().any(|a| rv.iter().any(|b| cmp_values(a, *op, b)))
        }
    }
}

/// Scalar values an operand denotes for the given context item.
fn operand_scalars<D: JsonDom>(dom: &D, ctx: NodeRef, op: &Operand) -> Vec<JsonValue> {
    match op {
        Operand::Lit(v) => vec![v.clone()],
        Operand::Path(steps) => eval_rel_path(dom, ctx, steps)
            .into_iter()
            .filter_map(|o| match o {
                PathOutput::Node(n) => match dom.kind(n) {
                    NodeKind::Scalar => Some(dom.scalar(n).to_value()),
                    // lax: unwrap an array of scalars for comparison
                    NodeKind::Array => None,
                    NodeKind::Object => None,
                },
                PathOutput::Computed(v) => Some(v),
            })
            .collect(),
    }
}

fn cmp_values(a: &JsonValue, op: CmpOp, b: &JsonValue) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::StartsWith => match (a, b) {
            (JsonValue::String(x), JsonValue::String(y)) => x.starts_with(y.as_str()),
            _ => false,
        },
        CmpOp::HasSubstring => match (a, b) {
            (JsonValue::String(x), JsonValue::String(y)) => x.contains(y.as_str()),
            _ => false,
        },
        _ => {
            let ord = match (a, b) {
                (JsonValue::Number(x), JsonValue::Number(y)) => Some(x.total_cmp(y)),
                (JsonValue::String(x), JsonValue::String(y)) => Some(x.cmp(y)),
                (JsonValue::Bool(x), JsonValue::Bool(y)) => Some(x.cmp(y)),
                (JsonValue::Null, JsonValue::Null) => Some(Equal),
                _ => None,
            };
            match (ord, op) {
                (None, CmpOp::Ne) => false, // type mismatch is not "not equal", it is unknown
                (None, _) => false,
                (Some(o), CmpOp::Eq) => o == Equal,
                (Some(o), CmpOp::Ne) => o != Equal,
                (Some(o), CmpOp::Lt) => o == Less,
                (Some(o), CmpOp::Le) => o != Greater,
                (Some(o), CmpOp::Gt) => o == Greater,
                (Some(o), CmpOp::Ge) => o != Less,
                _ => false,
            }
        }
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
            JsonValue::String(s) => {
                s.trim().parse::<f64>().ok().map(|v| JsonValue::Number(JsonNumber::Dbl(v)))
            }
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
        assert_eq!(ev.lookback_hits, 9);
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
