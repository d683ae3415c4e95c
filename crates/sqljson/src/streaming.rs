//! The streaming path engine over text parse events (§5.1).
//!
//! A [`TextPass`] answers a set of paths over one JSON text in a single
//! scan of its events, building no DOM for what it streams. Each path is
//! split at [`JsonPath::text_prefix`]: the prefix — field steps, `.*`,
//! `[*]`, ascending absolute selectors, and, over checked text, a final
//! lax filter that compares `@` with literals, streamed as `[*]` and
//! tested on each item's token (a container item is parsed and tested
//! whole) — is tracked as live positions over the event stream; the rest
//! (any other filter, an item method, `last`) "requires the engine to
//! memorize event sequences", so each item the prefix selects is captured
//! by its byte extent, parsed, and handed to the DOM [`PathEvaluator`]
//! with `$` bound to it. That is sound because a filter's operands are
//! `@`-relative paths or literals, never the document root. A path with an empty prefix captures the root: one
//! parse per document, shared by every such path of the pass.
//!
//! Semantics are the DOM engine's: a field step takes the **first**
//! member of its name, as `Object::get`, OSON and BSON do; `lax` wraps a
//! non-array for an array step and unwraps one array level for a field
//! step; `strict` does neither. A subtree no live position can reach is
//! consumed with [`EventParser::skip_value`], which validates it without
//! producing events.
//!
//! **Checked text.** Text from a column whose `IS JSON` constraint parsed
//! it at insert is *checked*: the caller says so to [`TextPass::run`]. Its
//! scan ends where no answer can change any more — once the root object
//! is spent (every rule on it is a field step that has taken its member,
//! and no capture of the root is open), or when no path reaches the root
//! at all — and the rest of the document goes unread. That is sound
//! because a field step takes the first member of its name, so later
//! members cannot match, and because the text is known to be well formed.
//! Everything the scan does read is still validated: a skipped value or
//! the rest of an inner object is consumed by `skip_value` / `skip_rest`.
//! Before the scan, the *name test* settles a path as matching nothing
//! when the text holds no `\` and lacks one of the path's field names in
//! quotes: without an escape, every key is spelled as its raw bytes, so
//! no key anywhere is that name.
//!
//! Unchecked text (a `ConstraintMode::None` column, or any caller that
//! cannot vouch for it) is read to its last byte, and text that fails to
//! scan gets these verdicts: a value path is NULL; an exists path whose
//! prefix is the whole path is decided at its first match, so one that
//! matched before the failure is true; a path with a suffix is decided at
//! the end of the document, as the full parse it replaces. The scan of
//! unchecked text stops early only once every path of the pass is a
//! decided exists path.

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

use std::borrow::Cow;

use fsdm_json::{Event, EventParser, JsonDom, JsonError, JsonValue, ScalarRef, Stacks, ValueDom};
use fsdm_obs::catalog::metric;

use crate::datum::{Datum, SqlType};
use crate::engine::{filter_item, filter_scalar, PathEvaluator};
use crate::ops::{output_datum, value_rule, OnError};
use crate::path::{ArraySel, IndexExpr, JsonPath, Mode, Predicate, Step};

/// Evaluate a path over JSON text: every item it selects, materialized.
/// A one-path [`TextPass`] over unchecked text.
pub fn eval_text(text: &str, path: &JsonPath) -> Result<Vec<JsonValue>, JsonError> {
    let mut pass = TextPass::new([(Cow::Borrowed(path), Want::Items)]);
    pass.run(text, false)?;
    Ok(pass.take_items(0))
}

/// Existence test over JSON text, a one-path [`TextPass`] over unchecked
/// text: true as soon as a streamed match is seen, even if the text fails
/// to scan later.
pub fn exists_text(text: &str, path: &JsonPath) -> Result<bool, JsonError> {
    let mut pass = TextPass::new([(Cow::Borrowed(path), Want::Exists)]);
    let scanned = pass.run(text, false);
    match pass.take(0) {
        Datum::Bool(true) => Ok(true),
        _ => scanned.map(|_| false),
    }
}

/// What one path of a pass answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// Every selected item, materialized ([`TextPass::take_items`]).
    Items,
    /// `JSON_VALUE … RETURNING ty NULL ON ERROR` ([`TextPass::take`]).
    Value(SqlType),
    /// `JSON_EXISTS`, as a boolean datum ([`TextPass::take`]).
    Exists,
}

/// A set of paths compiled for one text pass per document. Build it once
/// (per statement and worker), then [`TextPass::run`] it over each
/// document and read the answers: its buffers are reused, so a steady
/// state allocates only for the strings it keeps.
pub struct TextPass<'p> {
    paths: Vec<PassPath<'p>>,
    scan: Scan,
}

struct PassPath<'p> {
    path: Cow<'p, JsonPath>,
    /// [`JsonPath::text_prefix`] over checked text: `path.steps[..checked]`
    /// stream, a filter among them — the path's
    /// [`JsonPath::token_filter`] — as `[*]`.
    checked: usize,
    /// [`JsonPath::text_prefix`] over unchecked text, where the DOM
    /// `suffix` runs a token filter as it runs any filter.
    unchecked: usize,
    /// `path.steps[..split]` stream in this document's scan: `checked`
    /// or `unchecked`.
    split: usize,
    /// Each top-level field name as it appears quoted in text that spells
    /// it without escapes (a name JSON must escape has none).
    needles: Vec<String>,
    /// The path is in this document's scan: checked text may settle it
    /// before the scan, by the name test.
    live: bool,
    /// The DOM evaluator of the steps after the prefix, a token filter
    /// included; it runs when `split` leaves steps to it.
    suffix: Option<PathEvaluator>,
    want: Want,
    /// This document's `JSON_VALUE` items — the prefix's matches without
    /// a suffix, the suffix's outputs with one — and the first one's
    /// scalar (`None`: a container).
    count: usize,
    first: Option<Datum>,
    /// An exists answer: a streamed match, or a non-empty suffix output.
    found: bool,
    /// Arena slots of this document's prefix matches, for a path that
    /// keeps them (`Items`, or any with a suffix).
    items: Vec<usize>,
    /// The answer once the document is done.
    answer: Datum,
    /// The `Items` answer once the document is done.
    values: Vec<JsonValue>,
}

/// A live position: path `path` has consumed `step` steps at the value
/// about to start. `unwrapped`: the value is an element of an array the
/// field step at `step` reached through (lax), so it applies to the value
/// only if it is an object.
#[derive(Debug, Clone, Copy)]
struct Pos {
    path: usize,
    step: usize,
    unwrapped: bool,
}

/// What an open container passes to its children: step `step` of path
/// `path` applied to them.
#[derive(Debug, Clone, Copy)]
struct Rule {
    path: usize,
    step: usize,
    kind: RuleKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleKind {
    /// The first member the field step names (`used` once taken).
    Member { used: bool },
    /// Every member (`.*`).
    Members,
    /// The elements the array step selects.
    Elements,
    /// Lax: the field step (or `.*`) applied to object elements, one
    /// array level only.
    Unwrap,
}

/// An open container with rules: `rules[from..]` are its.
#[derive(Debug, Clone, Copy)]
struct Frame {
    from: usize,
    array: bool,
    /// The next element's index (arrays).
    index: usize,
}

/// A matched container walked by events, because some other path has
/// rules inside it: parsed from `start` once it closes at `depth`.
#[derive(Debug, Clone, Copy)]
struct Capture {
    slot: usize,
    start: usize,
    depth: usize,
}

/// The buffers of a pass, cleared per document and reused.
#[derive(Default)]
struct Scan {
    stacks: Stacks,
    frames: Vec<Frame>,
    rules: Vec<Rule>,
    /// Positions of the value about to start.
    incoming: Vec<Pos>,
    /// Paths the entering value matched that keep it.
    hits: Vec<usize>,
    /// Prefix matches kept for a path, one slot per matched value.
    arena: Vec<JsonValue>,
    captures: Vec<Capture>,
    /// Paths not yet decided; the scan stops when none is left.
    undecided: usize,
}

impl<'p> TextPass<'p> {
    /// Compile `paths` for one pass each document.
    pub fn new(paths: impl IntoIterator<Item = (Cow<'p, JsonPath>, Want)>) -> TextPass<'p> {
        let paths = paths
            .into_iter()
            .map(|(path, want)| {
                let split = path.text_prefix(false);
                let suffix =
                    (split < path.steps.len()).then(|| PathEvaluator::new(path.suffix(split)));
                let needles = path
                    .field_names()
                    .into_iter()
                    .filter(|name| !name.contains(|c: char| c == '"' || c == '\\' || c < ' '))
                    .map(|name| format!("\"{name}\""))
                    .collect();
                PassPath {
                    checked: path.text_prefix(true),
                    unchecked: split,
                    split,
                    path,
                    needles,
                    live: true,
                    suffix,
                    want,
                    count: 0,
                    first: None,
                    found: false,
                    items: Vec::new(),
                    answer: Datum::Null,
                    values: Vec::new(),
                }
            })
            .collect();
        TextPass { paths, scan: Scan::default() }
    }

    /// Answer every path over `text` in one scan, and return the byte
    /// offset where the scan ended. `checked`: the text is known to be
    /// well formed (an `IS JSON` column's), so the scan may end before the
    /// end of the document, as the module doc says. `Err` when the text
    /// fails to scan; the answers then hold the verdicts the module doc
    /// gives for that case.
    pub fn run(&mut self, text: &str, checked: bool) -> Result<usize, JsonError> {
        // whether the text holds no backslash, once a name test asks
        let mut plain = None;
        let mut live = 0;
        for p in &mut self.paths {
            (p.count, p.first) = (0, None);
            p.found = false;
            p.items.clear();
            p.values.clear();
            p.split = if checked { p.checked } else { p.unchecked };
            p.live = !(checked
                && p.needles.iter().any(|n| !text.contains(n.as_str()))
                && *plain.get_or_insert_with(|| !text.contains('\\')));
            if p.live {
                live += 1;
            } else {
                metric::SQLJSON_TEXT_ABSENT.inc();
            }
        }
        let walked = if live == 0 { Ok(0) } else { self.scan_text(text, checked, live) };
        if walked.is_ok() {
            self.run_suffixes();
        }
        let shared = self.paths.len() > 1;
        for p in &mut self.paths {
            p.settle(walked.is_ok(), &mut self.scan.arena, shared);
        }
        walked
    }

    /// One scan of `text` for the `live` paths left after the name test;
    /// the byte offset where it ended.
    fn scan_text(&mut self, text: &str, checked: bool, live: usize) -> Result<usize, JsonError> {
        let scan = &mut self.scan;
        scan.frames.clear();
        scan.rules.clear();
        scan.incoming.clear();
        scan.arena.clear();
        scan.captures.clear();
        scan.undecided = live;
        let stacks = std::mem::take(&mut scan.stacks);
        let mut parser = EventParser::with_stacks(text, stacks);
        let walked = self.walk(&mut parser, text, checked).map(|()| parser.offset());
        self.scan.stacks = parser.into_stacks();
        walked
    }

    /// The `Value` / `Exists` answer of path `i` for the last document
    /// (NULL for an `Items` path).
    pub fn take(&mut self, i: usize) -> Datum {
        self.paths.get_mut(i).map_or(Datum::Null, |p| std::mem::replace(&mut p.answer, Datum::Null))
    }

    /// The `Items` answer of path `i` for the last document (empty when
    /// it failed to scan).
    pub fn take_items(&mut self, i: usize) -> Vec<JsonValue> {
        self.paths.get_mut(i).map(|p| std::mem::take(&mut p.values)).unwrap_or_default()
    }

    fn walk(
        &mut self,
        parser: &mut EventParser<'_>,
        text: &str,
        checked: bool,
    ) -> Result<(), JsonError> {
        // the root holds position 0 of every live path
        let root = self.paths.iter().enumerate().filter(|(_, p)| p.live);
        let root = root.map(|(path, _)| Pos { path, step: 0, unwrapped: false });
        self.scan.incoming.extend(root);
        while let Some(event) = parser.next_event()? {
            match event {
                Event::Key(key) => {
                    self.member(|name| key.is(name));
                    if !self.scan.incoming.is_empty() {
                        continue;
                    }
                    // no position reaches the member's value
                    parser.skip_value()?;
                }
                Event::EndObject | Event::EndArray => self.close(parser.offset(), text)?,
                value => {
                    self.element();
                    let unread = self.enter(parser, &value, checked)?;
                    if unread || self.scan.undecided == 0 {
                        return Ok(());
                    }
                }
            }
            // a value is complete: an object whose every field step has
            // taken its member can match nothing more; of checked text,
            // once that object is the uncaptured root, the rest goes unread
            while self.spent() {
                let Scan { frames, captures, .. } = &self.scan;
                if checked && frames.len() == 1 && captures.is_empty() {
                    return Ok(());
                }
                if !parser.skip_rest()? {
                    break;
                }
                self.close(parser.offset(), text)?;
            }
        }
        Ok(())
    }

    /// True when the innermost open container is an object all of whose
    /// rules are field steps that have taken their member.
    fn spent(&self) -> bool {
        let Scan { frames, rules, .. } = &self.scan;
        frames.last().is_some_and(|f| {
            !f.array
                && rules
                    .get(f.from..)
                    .unwrap_or_default()
                    .iter()
                    .all(|r| r.kind == RuleKind::Member { used: true })
        })
    }

    /// A member key of the innermost object: the positions its value
    /// holds. `is` compares the key with a field name.
    fn member(&mut self, is: impl Fn(&str) -> bool) {
        let Scan { frames, rules, incoming, .. } = &mut self.scan;
        incoming.clear();
        let Some(frame) = frames.last() else { return };
        for rule in rules.get_mut(frame.from..).unwrap_or_default() {
            let next = Pos { path: rule.path, step: rule.step + 1, unwrapped: false };
            match rule.kind {
                RuleKind::Member { used: false } => {
                    let step = self.paths.get(rule.path).and_then(|p| p.path.steps.get(rule.step));
                    if matches!(step, Some(Step::Field { name, .. }) if is(name)) {
                        rule.kind = RuleKind::Member { used: true };
                        incoming.push(next);
                    }
                }
                RuleKind::Members => incoming.push(next),
                _ => {}
            }
        }
    }

    /// A value starts in the innermost container: if that is an array,
    /// the positions its element holds (a member's were set by its key).
    fn element(&mut self) {
        let Scan { frames, rules, incoming, .. } = &mut self.scan;
        let Some(frame) = frames.last_mut().filter(|f| f.array) else { return };
        incoming.clear();
        let index = frame.index;
        frame.index += 1;
        for rule in rules.get(frame.from..).unwrap_or_default() {
            let (path, step) = (rule.path, rule.step);
            match rule.kind {
                RuleKind::Elements => {
                    let selects = self.paths.get(path).and_then(|p| p.path.steps.get(step));
                    if selects.is_some_and(|s| array_step_selects(s, index)) {
                        incoming.push(Pos { path, step: step + 1, unwrapped: false });
                    }
                }
                RuleKind::Unwrap => incoming.push(Pos { path, step, unwrapped: true }),
                _ => {}
            }
        }
    }

    /// The value whose first event is `event` starts: apply its
    /// positions — lax wraps, matches, the rules its children see — then
    /// skip it, parse it or open it. `Ok(true)`: it is the root of checked
    /// text that no path reaches inside, left unread instead of skipped.
    fn enter(
        &mut self,
        parser: &mut EventParser<'_>,
        event: &Event<'_>,
        checked: bool,
    ) -> Result<bool, JsonError> {
        let container = match event {
            Event::StartObject => Some(false),
            Event::StartArray => Some(true),
            _ => None,
        };
        let Scan { rules, incoming, hits, arena, frames, captures, undecided, .. } = &mut self.scan;
        let from = rules.len();
        hits.clear();
        for pos in incoming.drain(..) {
            let Some(p) = self.paths.get_mut(pos.path) else { continue };
            let steps = p.path.steps.get(..p.split).unwrap_or_default();
            let lax = p.path.mode == Mode::Lax;
            let mut k = pos.step;
            if lax && container != Some(true) {
                // lax wrap: an array step treats a non-array as [value]
                while steps.get(k).is_some_and(wraps) {
                    k += 1;
                }
            }
            let Some(step) = steps.get(k) else {
                // the prefix is consumed: a match, once a streamed filter
                // passes it — on its token, or once a container is parsed
                if let Some(pred) = streamed_filter(&p.path, p.split) {
                    if container.is_some() {
                        hits.push(pos.path);
                        continue;
                    }
                    if !filter_token(pred, event)? {
                        continue;
                    }
                }
                match (p.want, p.runs_suffix()) {
                    (Want::Exists, false) => {
                        if !std::mem::replace(&mut p.found, true) {
                            *undecided -= 1;
                        }
                    }
                    (Want::Value(_), false) => {
                        if p.count == 0 && container.is_none() {
                            p.first = Some(scalar_datum(event)?);
                        }
                        p.count += 1;
                    }
                    _ => hits.push(pos.path),
                }
                continue;
            };
            if let Some(kind) =
                container.and_then(|array| rule_kind(step, array, lax, pos.unwrapped))
            {
                rules.push(Rule { path: pos.path, step: k, kind });
            }
        }
        let Some(array) = container else {
            if !hits.is_empty() {
                keep(&mut self.paths, hits, arena, event.to_value()?.unwrap_or(JsonValue::Null));
            }
            return Ok(false);
        };
        let (kept, inside) = (!hits.is_empty(), rules.len() > from);
        match (kept, inside) {
            (false, false) if checked && frames.is_empty() => return Ok(true),
            (false, false) => parser.skip_value()?,
            (true, false) => {
                let v = parser.parse_value()?.unwrap_or(JsonValue::Null);
                keep(&mut self.paths, hits, arena, v);
            }
            (_, true) => {
                if kept {
                    // walked for the paths inside, parsed when it closes
                    let (slot, start, depth) = (arena.len(), parser.value_start(), frames.len());
                    captures.push(Capture { slot, start, depth });
                    keep(&mut self.paths, hits, arena, JsonValue::Null);
                }
                frames.push(Frame { from, array, index: 0 });
            }
        }
        Ok(false)
    }

    /// The innermost open container ends at byte `end`.
    fn close(&mut self, end: usize, text: &str) -> Result<(), JsonError> {
        let Scan { frames, rules, arena, captures, .. } = &mut self.scan;
        let Some(frame) = frames.pop() else { return Ok(()) };
        rules.truncate(frame.from);
        if let Some(c) = captures.last().copied().filter(|c| c.depth == frames.len()) {
            captures.pop();
            let extent = text.get(c.start..end).unwrap_or_default();
            if let Some(slot) = arena.get_mut(c.slot) {
                *slot = fsdm_json::parse(extent)?;
            }
        }
        Ok(())
    }

    /// Run each suffix over the prefix matches its path kept, and each
    /// streamed filter over the containers its path kept.
    fn run_suffixes(&mut self) {
        let arena = &self.scan.arena;
        for p in &mut self.paths {
            if let Some(pred) = streamed_filter(&p.path, p.split) {
                // a kept scalar passed on its token
                p.items.retain(|&slot| {
                    arena.get(slot).is_some_and(|v| {
                        !matches!(v, JsonValue::Array(_) | JsonValue::Object(_))
                            || filter_item(&ValueDom::new(v), pred)
                    })
                });
                match p.want {
                    Want::Exists => p.found |= !p.items.is_empty(),
                    // a container has no scalar to be `first`
                    Want::Value(_) => p.count += p.items.len(),
                    Want::Items => {}
                }
                continue;
            }
            if !p.runs_suffix() {
                continue;
            }
            let Some(ev) = p.suffix.as_mut() else { continue };
            for &slot in &p.items {
                let Some(item) = arena.get(slot) else { continue };
                let dom = ValueDom::new(item);
                match p.want {
                    Want::Exists => p.found |= ev.exists(&dom),
                    Want::Value(_) => {
                        let (count, first) = ev.count_first(&dom, dom.root());
                        if let (0, Some(out)) = (p.count, first) {
                            p.first = output_datum(&dom, &out);
                        }
                        p.count += count;
                    }
                    Want::Items => p.values.extend(ev.evaluate_values(&dom)),
                }
            }
        }
    }
}

impl PassPath<'_> {
    /// This document's scan leaves steps to the DOM suffix.
    fn runs_suffix(&self) -> bool {
        self.split < self.path.steps.len()
    }

    /// Fix this document's answer; `scanned`: the text scanned to its
    /// end. An `Items` path takes its kept matches out of the arena
    /// unless other paths may share them.
    fn settle(&mut self, scanned: bool, arena: &mut [JsonValue], shared: bool) {
        self.answer = match self.want {
            // a suffix path's `found` comes from the suffix run, which
            // only a complete scan reaches
            Want::Exists => Datum::Bool(self.found),
            Want::Value(ty) if scanned => {
                value_rule(self.count, || self.first.take(), ty, OnError::Null)
                    .unwrap_or(Datum::Null)
            }
            Want::Value(_) => Datum::Null,
            Want::Items => {
                if !scanned {
                    self.values.clear();
                } else if !self.runs_suffix() {
                    for &slot in &self.items {
                        let Some(v) = arena.get_mut(slot) else { continue };
                        self.values.push(if shared { v.clone() } else { std::mem::take(v) });
                    }
                }
                Datum::Null
            }
        };
    }
}

/// Keep the value just matched, in one arena slot shared by every path
/// in `hits`.
fn keep(paths: &mut [PassPath<'_>], hits: &[usize], arena: &mut Vec<JsonValue>, v: JsonValue) {
    let slot = arena.len();
    arena.push(v);
    for &h in hits {
        if let Some(p) = paths.get_mut(h) {
            p.items.push(slot);
        }
    }
}

/// The predicate of the filter that ends `path`'s streamed steps
/// `..split` — its [`JsonPath::token_filter`] — if it has one.
fn streamed_filter(path: &JsonPath, split: usize) -> Option<&Predicate> {
    match path.steps.get(..split)?.last()? {
        Step::Filter(pred) => Some(pred),
        _ => None,
    }
}

/// The rule step `step` puts on the children of a container (`array`:
/// an array, else an object), if it reaches them.
fn rule_kind(step: &Step, array: bool, lax: bool, unwrapped: bool) -> Option<RuleKind> {
    match (step, array) {
        (Step::Field { .. }, false) => Some(RuleKind::Member { used: false }),
        (Step::FieldWildcard, false) => Some(RuleKind::Members),
        (Step::Field { .. } | Step::FieldWildcard, true) if lax && !unwrapped => {
            Some(RuleKind::Unwrap)
        }
        (Step::ArrayWildcard | Step::Array(_) | Step::Filter(_), true) => Some(RuleKind::Elements),
        // an array step over an object, unless it wrapped; `unwrapped`
        // field steps over a nested array; and, past the prefix, nothing
        _ => None,
    }
}

/// True when a lax array step selects a non-array as its only element.
fn wraps(step: &Step) -> bool {
    array_step_selects(step, 0)
}

/// True when array step `step` selects element `index`.
fn array_step_selects(step: &Step, index: usize) -> bool {
    match step {
        // a streamed filter selects as `[*]` does; its predicate is tested
        // on what it selects
        Step::ArrayWildcard | Step::Filter(_) => true,
        Step::Array(sels) => sels.iter().any(|s| match *s {
            ArraySel::Index(IndexExpr::At(i)) => i == index,
            ArraySel::Range(IndexExpr::At(a), IndexExpr::At(b)) => (a..=b).contains(&index),
            // `last` ends the streamable prefix
            _ => false,
        }),
        _ => false,
    }
}

/// A streamed filter's predicate on the scalar whose token is `event`: a
/// string is decoded only when it holds an escape.
fn filter_token(pred: &Predicate, event: &Event<'_>) -> Result<bool, JsonError> {
    let decoded;
    let item = match event {
        Event::String(s) => {
            decoded = s.decode()?;
            ScalarRef::Str(&decoded)
        }
        Event::Number(n) => ScalarRef::Num(n.to_number()?),
        Event::Bool(b) => ScalarRef::Bool(*b),
        _ => ScalarRef::Null,
    };
    Ok(filter_scalar(pred, item))
}

/// A scalar event as the datum `JSON_VALUE` selects: a string is copied
/// once, into the datum.
fn scalar_datum(event: &Event<'_>) -> Result<Datum, JsonError> {
    Ok(match event {
        Event::String(s) => Datum::Str(s.decode()?.into_owned()),
        Event::Number(n) => Datum::Num(n.to_number()?),
        Event::Bool(b) => Datum::Bool(*b),
        _ => Datum::Null,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::json_value;
    use crate::path::parse_path;
    use fsdm_json::parse;

    const PO: &str = r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
        {"name":"phone","price":100,"quantity":2},
        {"name":"ipad","price":350.86,"quantity":3},
        {"name":"case","price":15,"quantity":10}]}}"#;

    fn stream(doc: &str, path: &str) -> Vec<JsonValue> {
        eval_text(doc, &parse_path(path).unwrap()).unwrap()
    }

    fn dom(doc: &str, path: &str) -> Vec<JsonValue> {
        let v = parse(doc).unwrap();
        PathEvaluator::new(parse_path(path).unwrap()).evaluate_values(&ValueDom::new(&v))
    }

    /// One pass of `paths` over `doc`: (answers, scan result).
    fn pass(doc: &str, paths: &[(&str, Want)]) -> (Vec<Datum>, bool) {
        let compiled: Vec<JsonPath> = paths.iter().map(|(p, _)| parse_path(p).unwrap()).collect();
        let mut pass =
            TextPass::new(compiled.iter().zip(paths).map(|(p, (_, w))| (Cow::Borrowed(p), *w)));
        let ok = pass.run(doc, false).is_ok();
        ((0..paths.len()).map(|i| pass.take(i)).collect(), ok)
    }

    /// A NOBENCH document: `num` is the third member, `nested_arr` the
    /// eighth.
    const NOBENCH: &str = r#"{"str1":"GBRDCMBQGA======","str2":"GBRDC===","num":42,"bool":true,"dyn1":"x","dyn2":[1,{"a":2}],"nested_obj":{"str":"GBRDC===","num":7},"nested_arr":["a","b"],"sparse_420":"y","sparse_421":"z","thousandth":42}"#;

    /// Where one pass of `paths` over `doc` ends, checked and unchecked.
    fn ends(doc: &str, paths: &[(&str, Want)]) -> (usize, usize) {
        let compiled: Vec<JsonPath> = paths.iter().map(|(p, _)| parse_path(p).unwrap()).collect();
        let mut pass =
            TextPass::new(compiled.iter().zip(paths).map(|(p, (_, w))| (Cow::Borrowed(p), *w)));
        let checked = pass.run(doc, true).unwrap();
        let answers: Vec<Datum> = (0..paths.len()).map(|i| pass.take(i)).collect();
        let unchecked = pass.run(doc, false).unwrap();
        assert_eq!((0..paths.len()).map(|i| pass.take(i)).collect::<Vec<_>>(), answers, "{doc}");
        (checked, unchecked)
    }

    /// The byte just past the first occurrence of `member`.
    fn after(doc: &str, member: &str) -> usize {
        doc.find(member).unwrap() + member.len()
    }

    #[test]
    fn checked_text_ends_at_the_last_decision() {
        let num = [("$.num", Want::Value(SqlType::Number))];
        assert_eq!(ends(NOBENCH, &num), (after(NOBENCH, r#""num":42"#), NOBENCH.len()));
        // an inner object is still read to its end, validating it
        let inner = [("$.nested_obj.str", Want::Value(SqlType::Any)), ("$.num", Want::Exists)];
        assert_eq!(ends(NOBENCH, &inner).0, after(NOBENCH, r#""num":7}"#));
        // a streamed filter decides an exists path at the token it passes
        let q8 = [("$.nested_arr?(@ == \"b\")", Want::Exists)];
        assert_eq!(ends(NOBENCH, &q8).0, after(NOBENCH, r#"["a","b""#));
        // and, passing none, ends once the array closes
        let q8 = [("$.nested_arr?(@ starts with \"z\")", Want::Exists)];
        assert_eq!(ends(NOBENCH, &q8).0, after(NOBENCH, r#"["a","b"]"#));
        // a suffix path ends after its capture
        let q8 = [("$.nested_arr?(@.size() == 2)", Want::Exists)];
        assert_eq!(ends(NOBENCH, &q8).0, after(NOBENCH, r#"["a","b"]"#));
        // a path whose name is absent is settled unscanned
        assert_eq!(ends(NOBENCH, &[("$.sparse_999", Want::Exists)]), (0, NOBENCH.len()));
        // a wildcard or a captured root needs every member
        for paths in [[("$.*", Want::Value(SqlType::Any))], [("$?(@.num == 42)", Want::Exists)]] {
            assert_eq!(ends(NOBENCH, &paths), (NOBENCH.len(), NOBENCH.len()), "{paths:?}");
        }
        let captured = [("$.num", Want::Exists), ("$?(@.num == 42)", Want::Exists)];
        assert_eq!(ends(NOBENCH, &captured).0, NOBENCH.len());
        // a root no path reaches inside is not read at all
        assert_eq!(ends(r#"[1,"a",3]"#, &[("strict $.a", Want::Exists)]), (1, 9));
        // the unread tail is not validated: only unchecked text fails here
        let jp = parse_path("$.a").unwrap();
        let mut pass = TextPass::new([(Cow::Borrowed(&jp), Want::Value(SqlType::Number))]);
        let torn = r#"{"a":1,"b":tru"#;
        assert_eq!(pass.run(torn, true).unwrap(), 6);
        assert_eq!(pass.take(0), Datum::from(1i64));
        assert!(pass.run(torn, false).is_err());
        assert_eq!(pass.take(0), Datum::Null);
    }

    /// Each answer of one path over `doc`, checked and unchecked, is the
    /// DOM engine's.
    fn agrees_checked_and_unchecked(doc: &str, path: &str) {
        let jp = parse_path(path).unwrap();
        let v = parse(doc).unwrap();
        let expected = dom(doc, path);
        let mut dom_ev = PathEvaluator::new(jp.clone());
        let exists = dom_ev.exists(&ValueDom::new(&v));
        assert_eq!(exists, !expected.is_empty(), "{path} on {doc}");
        let value = json_value(&ValueDom::new(&v), &mut dom_ev, SqlType::Any, OnError::Null);
        let value = value.unwrap();
        for checked in [true, false] {
            let mut pass = TextPass::new([
                (Cow::Borrowed(&jp), Want::Exists),
                (Cow::Borrowed(&jp), Want::Items),
                (Cow::Borrowed(&jp), Want::Value(SqlType::Any)),
            ]);
            pass.run(doc, checked).unwrap();
            assert_eq!(pass.take(0), Datum::Bool(exists), "{path} on {doc}, checked={checked}");
            assert_eq!(pass.take_items(1), expected, "{path} on {doc}, checked={checked}");
            assert_eq!(pass.take(2), value, "{path} on {doc}, checked={checked}");
        }
    }

    #[test]
    fn the_name_test_settles_only_a_name_the_text_cannot_hold() {
        for (doc, path) in [
            // a key may spell the name with escapes: the backslash keeps
            // the path in the scan
            (r#"{"sparse\u005f110":1}"#, "$.sparse_110"),
            (r#"{"a":{"sparse\u005f110":1}}"#, "$.a.sparse_110"),
            // the quoted name present, but not as a key of the path's level
            (r#"{"x":"sparse_110"}"#, "$.sparse_110"),
            (r#"{"o":{"sparse_110":1}}"#, "$.sparse_110"),
            (r#"{"o":{"sparse_110":1}}"#, "$.o.sparse_110"),
            // unquoted, the name is part of other strings
            (r#"{"xsparse_110":1,"sparse_1100":2}"#, "$.sparse_110"),
            // names inside a filter are not needles
            (r#"{"a":[{"b":1},{"c":2}]}"#, "$.a?(!(exists(@.zz)))"),
            (r#"{"a":[1,2]}"#, "$.a?(@ == 2)"),
        ] {
            agrees_checked_and_unchecked(doc, path);
        }
        // a settled path answers as a scan that found nothing
        let paths = [
            ("$.zz", Want::Value(SqlType::Number)),
            ("$.zz", Want::Exists),
            ("$.a.zz?(@.size() > 0)", Want::Exists),
        ];
        let compiled: Vec<JsonPath> = paths.iter().map(|(p, _)| parse_path(p).unwrap()).collect();
        let mut pass =
            TextPass::new(compiled.iter().zip(&paths).map(|(p, (_, w))| (Cow::Borrowed(p), *w)));
        assert_eq!(pass.run(r#"{"a":{"b":1}}"#, true).unwrap(), 0, "no path left to scan");
        let answers: Vec<Datum> = (0..3).map(|i| pass.take(i)).collect();
        assert_eq!(answers, [Datum::Null, Datum::Bool(false), Datum::Bool(false)]);
    }

    #[test]
    fn a_settled_path_leaves_the_root_to_the_others() {
        // neither the key `xsparse_110` nor `sparse_1100` is `sparse_110`
        let doc = r#"{"str1":"s","xsparse_110":1,"num":2,"sparse_1100":3}"#;
        let paths = [("$.str1", Want::Value(SqlType::Any)), ("$.sparse_110", Want::Exists)];
        assert_eq!(ends(doc, &paths), (after(doc, r#""str1":"s""#), doc.len()));
        let (answers, _) = pass(doc, &paths);
        assert_eq!(answers, [Datum::from("s"), Datum::Bool(false)]);
        // an escape anywhere in the text keeps the path in the scan
        let escaped = r#"{"str1":"s","xsparse_110":1,"num":2,"sparse_1100":"\n"}"#;
        assert_eq!(ends(escaped, &paths), (escaped.len(), escaped.len()));
    }

    #[test]
    fn a_token_filter_answers_as_the_dom_filter_does() {
        let doc =
            r#"{"a":[1,"ab","b\u0061",true,null,[2,"ab"],{"x":"ab"},[[1]]],"s":"ab","n":2.50}"#;
        for path in [
            "$.a?(@ == \"ab\")",
            "$.a?(@ == \"ba\")",
            "$.a?(\"ab\" == @)",
            "$.a?(@ starts with \"a\" || @ == 1)",
            "$.a?(!(@ == 1) && @ != \"ab\")",
            "$.a?(@ == 2)",
            "$.a?(@ == 1)",
            "$.a?(@ == true)",
            "$.a?(@ == null)",
            "$.a?(@ > 0)",
            "$.a[*]?(@ == 1)",
            "$.a[5]?(@ == 2)",
            "$.s?(@ starts with \"a\")",
            "$.n?(@ == 2.5)",
            "$?(@ == 1)",
            "$.*?(@ == \"ab\")",
        ] {
            assert_eq!(
                parse_path(path).unwrap().streamable_prefix(),
                parse_path(path).unwrap().steps.len(),
                "{path}"
            );
            agrees_checked_and_unchecked(doc, path);
        }
    }

    #[test]
    fn streams_scalars() {
        assert_eq!(stream(PO, "$.purchaseOrder.id"), vec![parse("1").unwrap()]);
        assert_eq!(stream(PO, "$.purchaseOrder.items[1].price"), vec![parse("350.86").unwrap()]);
        assert_eq!(stream(PO, "$.purchaseOrder.items[*].name").len(), 3);
        assert!(stream(PO, "$.purchaseOrder.nothing").is_empty());
    }

    #[test]
    fn streams_containers() {
        let items = stream(PO, "$.purchaseOrder.items");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].as_array().unwrap().len(), 3);
        let first = stream(PO, "$.purchaseOrder.items[0]");
        assert_eq!(first[0].get("name").unwrap().as_str(), Some("phone"));
    }

    #[test]
    fn lax_unwrap_and_wrap_in_stream() {
        assert_eq!(stream(PO, "$.purchaseOrder.items.name").len(), 3);
        assert_eq!(stream(PO, "$.purchaseOrder.id[0]"), vec![parse("1").unwrap()]);
        assert_eq!(stream(PO, "$.purchaseOrder.id[*]"), vec![parse("1").unwrap()]);
        assert!(stream(PO, "$.purchaseOrder.id[1]").is_empty());
        // one array level only
        assert!(stream(r#"{"a":[[{"b":1}]]}"#, "$.a.b").is_empty());
    }

    #[test]
    fn range_selectors_and_wildcards() {
        assert_eq!(stream(PO, "$.purchaseOrder.items[0 to 1].price").len(), 2);
        assert_eq!(stream(PO, "$.purchaseOrder.items[0,2].price").len(), 2);
        assert_eq!(stream(PO, "$.purchaseOrder.*").len(), 3);
        assert_eq!(stream(PO, "$.purchaseOrder.items.*").len(), 9, "lax .* unwraps");
    }

    #[test]
    fn a_field_step_takes_the_first_member_of_its_name() {
        assert_eq!(stream(r#"{"a":1,"a":2}"#, "$.a"), vec![parse("1").unwrap()]);
        assert_eq!(stream(r#"{"a":1,"a":{"x":2}}"#, "$.a"), vec![parse("1").unwrap()]);
        assert!(stream(r#"{"a":1,"a":{"x":2}}"#, "$.a.x").is_empty());
        // a wildcard takes every member, as the DOM engine does
        assert_eq!(stream(r#"{"a":1,"a":2}"#, "$.*").len(), 2);
        let (answers, _) = pass(r#"{"a":1,"a":2}"#, &[("$.a", Want::Value(SqlType::Number))]);
        assert_eq!(answers, [Datum::from(1i64)]);
    }

    #[test]
    fn strict_mode_neither_wraps_nor_unwraps() {
        assert!(stream(r#"{"a":[{"b":1}]}"#, "strict $.a.b").is_empty());
        assert!(stream(r#"{"a":{"b":1}}"#, "strict $.a[0].b").is_empty());
        assert!(stream(r#"{"a":5}"#, "strict $.a[*]").is_empty());
        assert_eq!(stream(r#"{"a":[{"b":1}]}"#, "strict $.a[*].b"), vec![parse("1").unwrap()]);
        let doc = r#"{"a":[{"b":1}]}"#;
        assert!(!exists_text(doc, &parse_path("strict $.a.b").unwrap()).unwrap());
    }

    #[test]
    fn exists_short_circuits() {
        let p = parse_path("$.purchaseOrder.items[*].price").unwrap();
        assert!(exists_text(PO, &p).unwrap());
        assert!(!exists_text(PO, &parse_path("$.zz").unwrap()).unwrap());
        // decided at the match: what follows is never scanned
        assert!(exists_text(r#"{"a":1,"b":"#, &parse_path("$.a").unwrap()).unwrap());
        assert!(exists_text(r#"{"a":1,"b":"#, &parse_path("$.b").unwrap()).is_err());
    }

    #[test]
    fn agrees_with_dom_engine() {
        let paths = [
            "$.purchaseOrder.id",
            "$.purchaseOrder.items",
            "$.purchaseOrder.items[*]",
            "$.purchaseOrder.items[1 to 2].name",
            "$.purchaseOrder.items.quantity",
            "$.purchaseOrder.id[0]",
            "$.purchaseOrder.items[*]?(@.price > 100).name",
            "$.purchaseOrder.items[last].price",
            "$.purchaseOrder.items.size()",
            "$?(@.purchaseOrder.id == 1).purchaseOrder.podate",
            "$.purchaseOrder.items[2, 0].name",
        ];
        for p in paths {
            assert_eq!(stream(PO, p), dom(PO, p), "{p}");
        }
    }

    #[test]
    fn nested_capture_regions() {
        let doc = r#"{"a":[[5],[6]]}"#;
        assert_eq!(stream(doc, "$.a[*]"), [parse("[5]").unwrap(), parse("[6]").unwrap()]);
    }

    #[test]
    fn one_pass_answers_every_path() {
        let paths = [
            ("$.purchaseOrder.id", Want::Value(SqlType::Number)),
            ("$.purchaseOrder.podate", Want::Value(SqlType::Varchar2(16))),
            ("$.purchaseOrder.items[*].price", Want::Value(SqlType::Number)),
            ("$.purchaseOrder.items", Want::Value(SqlType::Any)),
            ("$.purchaseOrder.items[*]?(@.price > 300).name", Want::Value(SqlType::Any)),
            ("$.purchaseOrder.items[*]?(@.price > 999)", Want::Exists),
            ("$.purchaseOrder.items.size()", Want::Value(SqlType::Number)),
            ("$.purchaseOrder.nothing", Want::Exists),
            ("$.purchaseOrder.items[2]", Want::Exists),
            // the root captured, and an item walked for the paths inside it
            ("$?(exists(@.purchaseOrder))", Want::Exists),
            ("$.purchaseOrder?(@.id == 1).id", Want::Value(SqlType::Number)),
        ];
        let (answers, ok) = pass(PO, &paths);
        assert!(ok);
        let expected = [
            Datum::from(1i64),
            Datum::from("2014-09-08"),
            Datum::Null, // three items
            Datum::Null, // a container
            Datum::from("ipad"),
            Datum::Bool(false),
            Datum::from(3i64),
            Datum::Bool(false),
            Datum::Bool(true),
            Datum::Bool(true),
            Datum::from(1i64),
        ];
        assert_eq!(answers, expected);
    }

    #[test]
    fn malformed_text_gets_the_one_path_verdicts() {
        let paths = [
            ("$.a", Want::Value(SqlType::Number)),
            ("$.a", Want::Exists),
            ("$.a?(@ > 0)", Want::Exists),
            ("$.zz", Want::Exists),
        ];
        let (answers, ok) = pass(r#"{"a":1,"b":[1,}"#, &paths);
        assert!(!ok);
        assert_eq!(
            answers,
            [Datum::Null, Datum::Bool(true), Datum::Bool(false), Datum::Bool(false)]
        );
        // deeper than MAX_DEPTH fails the scan, wherever the path points
        let deep = format!(r#"{{"a":1,"d":{}{}}}"#, "[".repeat(600), "]".repeat(600));
        let (answers, ok) = pass(&deep, &paths);
        assert!(!ok);
        assert_eq!(
            answers,
            [Datum::Null, Datum::Bool(true), Datum::Bool(false), Datum::Bool(false)]
        );
        assert!(eval_text(&deep, &parse_path("$.a").unwrap()).is_err());
    }

    #[test]
    fn the_pass_stops_once_every_exists_path_is_decided() {
        let paths = [("$.a", Want::Exists), ("$.b[0]", Want::Exists)];
        let (answers, ok) = pass(r#"{"a":1,"b":[2, garbage"#, &paths);
        assert!(ok, "never scanned to the garbage");
        assert_eq!(answers, [Datum::Bool(true), Datum::Bool(true)]);
        // one undecided path keeps it going
        let paths = [("$.a", Want::Exists), ("$.c", Want::Exists)];
        let (answers, ok) = pass(r#"{"a":1,"b":[2, garbage"#, &paths);
        assert!(!ok);
        assert_eq!(answers, [Datum::Bool(true), Datum::Bool(false)]);
    }

    #[test]
    fn escaped_keys_and_strings_decode_when_kept() {
        let doc = r#"{"näme":"x\ty","other":"😀"}"#;
        assert_eq!(stream(doc, "$.\"näme\""), vec![JsonValue::from("x\ty")]);
        assert_eq!(stream(doc, "$.other"), vec![JsonValue::from("😀")]);
        let (answers, _) = pass(doc, &[("$.\"näme\"", Want::Value(SqlType::Varchar2(3)))]);
        assert_eq!(answers, [Datum::from("x\ty")]);
    }

    #[test]
    fn a_pass_is_reusable_across_documents() {
        let jp = parse_path("$.v").unwrap();
        let mut pass = TextPass::new([(Cow::Borrowed(&jp), Want::Value(SqlType::Number))]);
        for (doc, want) in
            [(r#"{"v":1}"#, Datum::from(1i64)), ("{", Datum::Null), ("[]", Datum::Null)]
        {
            let _ = pass.run(doc, false);
            assert_eq!(pass.take(0), want, "{doc}");
        }
    }
}
