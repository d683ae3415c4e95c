//! Per-function concurrency fact extraction.
//!
//! One pass over each scanned source file recovers, for every non-test
//! function, the ordered stream of concurrency-relevant **events** in
//! its body: lock acquisitions (direct `.lock()`/`.read()`/`.write()`
//! on a catalog-declared lock, or a call through a recognized lock
//! wrapper), atomic operations with their `Ordering` tokens, panic-
//! capable sites (`unwrap`/`expect`/panicking macros/indexing), thread
//! spawns with their closure captures, and intra-workspace calls. The
//! checks in [`crate::checks`] replay these streams against the lock
//! hierarchy and atomic disciplines declared in `fsdm_obs::catalog`.
//!
//! Extraction is syntactic and deliberately under-approximate: method
//! calls on receivers other than `self` are not resolved, and a name
//! that is ambiguous across the workspace resolves to nothing. That
//! keeps every emitted diagnostic anchored to a concrete token the
//! analyzer actually understood.

use fsdm_obs::catalog;

use crate::lex::{line_idents, parse_items, FnItem};
use crate::source::Source;

/// Atomic method names; an occurrence only counts as an atomic op when
/// the call's arguments carry a memory-`Ordering` token (so `Vec::swap`
/// or `io::Read::read` never match).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The memory-ordering tokens, matched bare (`Relaxed`) or qualified
/// (`Ordering::Relaxed` — the path prefix is just more idents).
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Macros that unwind on failure.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// The observability macros that reach the metrics registry's `inner`
/// lock; modeled as calls to the registry methods they expand to.
const METRIC_MACROS: &[&str] = &["counter", "gauge", "histogram"];

/// Keywords that may precede `[` without it being an index expression
/// (slice patterns, array types after `->`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "as", "move", "static", "const",
    "dyn", "impl", "for", "while", "loop", "break", "continue", "where", "pub", "fn", "type",
    "use", "mod", "enum", "struct", "trait", "union", "unsafe", "extern", "box", "await", "yield",
];

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "mut", "ref", "move", "in",
    "as", "fn", "impl", "trait", "struct", "enum", "mod", "use", "pub", "crate", "super", "Self",
    "where", "unsafe", "dyn", "box", "break", "continue", "static", "const", "type", "extern",
    "await", "yield", "true", "false",
];

/// One concurrency-relevant token in a function body.
#[derive(Debug, Clone)]
pub struct Event {
    /// 0-based line.
    pub line: usize,
    /// 0-based starting column.
    pub col: usize,
    /// Token length (for caret rendering).
    pub len: usize,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy the checks replay.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A catalog-declared lock is acquired here.
    Lock {
        /// Catalog name of the lock.
        lock: String,
        /// True when the guard is `let`-bound (held to end of function
        /// in this model); false for a temporary consumed by its own
        /// statement.
        let_bound: bool,
        /// The `let` binding's identifier, for `drop(x)` release
        /// tracking.
        binding: Option<String>,
    },
    /// A call to another workspace function (possibly a lock wrapper).
    Call {
        /// Callee as written: bare name, or `Type::name` for
        /// `self.name(..)` and the metric macros.
        callee: String,
        /// Trailing identifier of the first argument when it names a
        /// catalog lock (`lock(&self.ring)` → `ring`).
        arg_lock: Option<String>,
        /// Trailing identifier of the first argument regardless
        /// (`drop(guard)` → `guard`).
        arg_ident: Option<String>,
        /// Whether a wrapper-acquired guard would be `let`-bound here.
        let_bound: bool,
    },
    /// A site that can unwind: `unwrap`/`expect`, a panicking macro, or
    /// an index expression.
    Panic {
        /// Which kind of site, for the message.
        what: &'static str,
    },
    /// An atomic operation carrying at least one `Ordering` token.
    Atomic {
        /// Receiver name (field, static, local binding, or — for tuple
        /// structs like `Counter(AtomicU64)` — the impl type).
        name: String,
        /// The method (`load`, `store`, `fetch_add`, …).
        method: String,
        /// Every ordering token in the argument list, in order.
        orderings: Vec<String>,
    },
    /// A `spawn(..)` call.
    Spawn {
        /// `let mut` bindings of the enclosing function, declared before
        /// the spawn, that a non-`move` closure argument mentions.
        mut_captures: Vec<String>,
    },
}

/// The fact stream of one function.
#[derive(Debug)]
pub struct FnFacts {
    /// Bare function name.
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qualified: String,
    /// 0-based signature line.
    pub sig_line: usize,
    /// 0-based last body line.
    pub body_end: usize,
    /// Events in source order.
    pub events: Vec<Event>,
    /// True when the body locks one of its own parameters — a lock
    /// wrapper like `fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T>`;
    /// the acquired lock is named by the caller's argument.
    pub wrapper: bool,
}

/// Everything the concurrency pass knows about one file.
#[derive(Debug)]
pub struct FileFacts {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Raw source lines, for the diagnostics' snippets.
    pub raw_lines: Vec<String>,
    /// Per-function fact streams (non-test functions only).
    pub fns: Vec<FnFacts>,
}

/// Extract the fact streams of one source file.
pub fn extract(src: &Source) -> FileFacts {
    let sc = &src.scan;
    let items = parse_items(sc);
    let raw_lines: Vec<String> = src.text.lines().map(str::to_string).collect();
    let masked: Vec<Vec<char>> =
        (0..sc.lines.len()).map(|l| sc.masked(l).chars().collect()).collect();

    let mut fns = Vec::new();
    for f in &items.functions {
        if f.in_test {
            continue;
        }
        let mut facts = FnFacts {
            name: f.name.clone(),
            qualified: f.qualified(),
            sig_line: f.sig_line,
            body_end: f.body_end,
            events: Vec::new(),
            wrapper: false,
        };
        // pass 1: `let mut` bindings, for spawn-capture analysis
        let mut mut_bindings: Vec<(String, usize)> = Vec::new();
        let last = f.body_end.min(masked.len().saturating_sub(1));
        for (line, chars) in masked.iter().enumerate().take(last + 1).skip(f.body_start) {
            let text: String = chars.iter().collect();
            let ids = line_idents(&text);
            for w in ids.windows(3) {
                if w[0].2 == "let" && w[1].2 == "mut" {
                    mut_bindings.push((w[2].2.clone(), line));
                }
            }
        }
        // pass 2: the event stream
        for line in f.sig_line..=f.body_end.min(masked.len().saturating_sub(1)) {
            extract_line(&masked, line, f, &mut_bindings, &mut facts);
        }
        fns.push(facts);
    }

    FileFacts { path: src.path.clone(), raw_lines, fns }
}

/// Process one masked line of a function body.
fn extract_line(
    masked: &[Vec<char>],
    line: usize,
    item: &FnItem,
    mut_bindings: &[(String, usize)],
    out: &mut FnFacts,
) {
    let chars = &masked[line];
    let text: String = chars.iter().collect();
    let mut prev_ident: Option<String> = None;
    for (s, e, w) in line_idents(&text) {
        // the declaration's own name is not a call to it
        if prev_ident.replace(w.clone()).as_deref() == Some("fn") {
            continue;
        }
        let prev = prev_non_ws(chars, s);
        let next = next_non_ws(chars, e);
        let is_method = prev == Some('.');
        let is_call = next == Some('(');
        let is_macro = next == Some('!');
        let len = e - s;

        // panicking method calls
        if is_method && is_call && (w == "unwrap" || w == "expect") {
            out.events.push(Event { line, col: s, len, kind: EventKind::Panic { what: "unwrap" } });
            continue;
        }
        // panicking macros
        if is_macro && PANIC_MACROS.contains(&w.as_str()) {
            out.events.push(Event { line, col: s, len, kind: EventKind::Panic { what: "macro" } });
            continue;
        }
        // index expressions: `xs[` (immediately adjacent)
        if chars.get(e) == Some(&'[')
            && !NON_INDEX_KEYWORDS.contains(&w.as_str())
            && (s == 0 || chars.get(s - 1) != Some(&'\''))
        {
            out.events.push(Event { line, col: s, len, kind: EventKind::Panic { what: "index" } });
            continue;
        }
        // atomic operations (need an Ordering token among the args)
        if is_method && is_call && ATOMIC_METHODS.contains(&w.as_str()) {
            if let Some(open) = find_char(chars, e, '(') {
                let args = balanced_text(masked, line, open);
                let orderings: Vec<String> = line_idents(&args)
                    .into_iter()
                    .map(|(_, _, id)| id)
                    .filter(|id| ORDERINGS.contains(&id.as_str()))
                    .collect();
                if !orderings.is_empty() {
                    let name = receiver(chars, s)
                        .or_else(|| item.impl_type.clone())
                        .unwrap_or_else(|| w.clone());
                    out.events.push(Event {
                        line,
                        col: s,
                        len,
                        kind: EventKind::Atomic { name, method: w.clone(), orderings },
                    });
                    continue;
                }
            }
        }
        // direct lock acquisitions and wrapper detection
        if is_method && is_call && (w == "lock" || w == "read" || w == "write") {
            if let Some(recv) = receiver(chars, s) {
                if lock_rank(&recv).is_some() {
                    let (let_bound, binding) = let_binding(chars, chain_start(chars, s));
                    out.events.push(Event {
                        line,
                        col: s,
                        len,
                        kind: EventKind::Lock { lock: recv, let_bound, binding },
                    });
                    continue;
                }
                if w == "lock" && item.params.contains(&recv) {
                    out.wrapper = true;
                    continue;
                }
            }
        }
        // spawn sites
        if is_call && w == "spawn" && (is_method || prev == Some(':')) {
            let mut_captures = spawn_captures(masked, line, e, mut_bindings);
            out.events.push(Event { line, col: s, len, kind: EventKind::Spawn { mut_captures } });
            continue;
        }
        // metric macros: modeled as registry method calls
        if is_macro && METRIC_MACROS.contains(&w.as_str()) {
            out.events.push(Event {
                line,
                col: s,
                len,
                kind: EventKind::Call {
                    callee: format!("MetricsRegistry::{w}"),
                    arg_lock: None,
                    arg_ident: None,
                    let_bound: false,
                },
            });
            continue;
        }
        // plain calls: free functions, paths, and `self.method(..)`
        if is_call && !is_macro && !CALL_KEYWORDS.contains(&w.as_str()) {
            let callee = if is_method {
                match (receiver(chars, s), &item.impl_type) {
                    (Some(recv), Some(ty)) if recv == "self" => format!("{ty}::{w}"),
                    _ => continue,
                }
            } else {
                w.clone()
            };
            let (arg_lock, arg_ident) = match find_char(chars, e, '(') {
                Some(open) => first_arg_idents(masked, line, open),
                None => (None, None),
            };
            let (let_bound, _) = let_binding(chars, s);
            out.events.push(Event {
                line,
                col: s,
                len,
                kind: EventKind::Call { callee, arg_lock, arg_ident, let_bound },
            });
        }
    }
}

fn prev_non_ws(chars: &[char], upto: usize) -> Option<char> {
    chars.get(..upto).and_then(|cs| cs.iter().rev().find(|c| !c.is_whitespace()).copied())
}

fn next_non_ws(chars: &[char], from: usize) -> Option<char> {
    chars.get(from..).and_then(|cs| cs.iter().find(|c| !c.is_whitespace()).copied())
}

fn find_char(chars: &[char], from: usize, target: char) -> Option<usize> {
    chars.get(from..)?.iter().position(|&c| c == target).map(|p| from + p)
}

/// Rank of a catalog-declared lock, if any.
pub fn lock_rank(name: &str) -> Option<u32> {
    catalog::LOCKS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

/// The receiver identifier of a `.method(..)` call: the identifier that
/// precedes the final `.` before `method_start`. Bracketed suffixes are
/// skipped (`claims[i].fetch_add` and `buckets[idx].load` both resolve
/// to the collection's name); an all-digit "identifier" is a tuple
/// field (`self.0.fetch_add`) and resolves to `None` so the caller can
/// substitute the impl type.
fn receiver(chars: &[char], method_start: usize) -> Option<String> {
    let mut i = method_start;
    // step over whitespace then the `.`
    while i > 0 && chars.get(i - 1).is_some_and(|c| c.is_whitespace()) {
        i -= 1;
    }
    if i == 0 || chars.get(i - 1) != Some(&'.') {
        return None;
    }
    i -= 1;
    while i > 0 && chars.get(i - 1).is_some_and(|c| c.is_whitespace()) {
        i -= 1;
    }
    // skip one bracketed suffix group: `xs[i]` or a call `f(x)`
    for (close, open) in [(']', '['), (')', '(')] {
        if chars.get(i.wrapping_sub(1)) == Some(&close) {
            let mut depth = 0usize;
            while i > 0 {
                i -= 1;
                let Some(&c) = chars.get(i) else { break };
                if c == close {
                    depth += 1;
                } else if c == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
    }
    let end = i;
    while i > 0 && chars.get(i - 1).is_some_and(|&c| c.is_alphanumeric() || c == '_') {
        i -= 1;
    }
    if i == end {
        return None;
    }
    let name: String = chars.get(i..end)?.iter().collect();
    if name.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name)
}

/// Start column of the receiver chain ending at `method_start`
/// (`self.inner.lock` → the `s` of `self`).
fn chain_start(chars: &[char], method_start: usize) -> usize {
    let mut i = method_start;
    while i > 0
        && chars
            .get(i - 1)
            .is_some_and(|&c| c.is_alphanumeric() || c == '_' || c == '.' || c == ':')
    {
        i -= 1;
    }
    i
}

/// Whether the expression starting at `expr_start` is the entire
/// initializer of a `let` statement on this line — i.e. the guard it
/// produces is named and lives to the end of the enclosing block. Also
/// returns the binding identifier. `let spans = take(&mut *lock(..))`
/// does NOT qualify: the lock call is nested, so its guard is a
/// temporary.
fn let_binding(chars: &[char], expr_start: usize) -> (bool, Option<String>) {
    let head: String = chars.get(..expr_start).map(|cs| cs.iter().collect()).unwrap_or_default();
    let Some(eq) = head.rfind('=') else { return (false, None) };
    if !head[eq + 1..].trim().is_empty() {
        return (false, None);
    }
    let ids = line_idents(&head[..eq]);
    match ids.first().map(|(_, _, w)| w.as_str()) {
        Some("let") => {
            let binding = ids.iter().rev().map(|(_, _, w)| w.clone()).find(|w| w != "mut");
            (true, binding.filter(|b| b != "let"))
        }
        _ => (false, None),
    }
}

/// Text of a balanced `(..)` group starting at `open` on `line`,
/// spanning up to 400 following lines.
fn balanced_text(masked: &[Vec<char>], line: usize, open: usize) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    let mut col = open;
    for chars in masked.iter().skip(line).take(400) {
        let mut i = col;
        while i < chars.len() {
            let Some(&c) = chars.get(i) else { break };
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        out.push(c);
                        return out;
                    }
                }
                _ => {}
            }
            out.push(c);
            i += 1;
        }
        out.push('\n');
        col = 0;
    }
    out
}

/// Trailing identifier of a call's first argument: `(and whether it
/// names a catalog lock)`. `lock(&self.ring)` → `ring`.
fn first_arg_idents(
    masked: &[Vec<char>],
    line: usize,
    open: usize,
) -> (Option<String>, Option<String>) {
    let text = balanced_text(masked, line, open);
    let inner = text.strip_prefix('(').unwrap_or(&text);
    let mut depth = 0usize;
    let mut first = String::new();
    for c in inner.chars() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => break,
            _ => {}
        }
        first.push(c);
    }
    let trailing = line_idents(&first).into_iter().map(|(_, _, w)| w).next_back();
    let lock = trailing.clone().filter(|t| lock_rank(t).is_some());
    (lock, trailing)
}

/// `let mut` bindings of the enclosing function, declared before the
/// spawn, that the spawn's non-`move` closure argument mentions.
fn spawn_captures(
    masked: &[Vec<char>],
    spawn_line: usize,
    after_ident: usize,
    mut_bindings: &[(String, usize)],
) -> Vec<String> {
    let Some(open) = find_char(&masked[spawn_line], after_ident, '(') else { return Vec::new() };
    let text = balanced_text(masked, spawn_line, open);
    let inner = text.strip_prefix('(').unwrap_or(&text);
    if inner.trim_start().starts_with("move") {
        return Vec::new();
    }
    // closure params sit between the first two `|`; exclude them
    let mut params: Vec<String> = Vec::new();
    let mut body = inner;
    if let Some(p0) = inner.find('|') {
        if let Some(p1) = inner[p0 + 1..].find('|') {
            params =
                line_idents(&inner[p0 + 1..p0 + 1 + p1]).into_iter().map(|(_, _, w)| w).collect();
            body = &inner[p0 + 2 + p1..];
        }
    }
    // a `let` inside the closure shadows the outer binding: the worker
    // in `run_morsels` re-declares `scratch` without capturing anything
    let body_ids = line_idents(body);
    let mut shadowed: Vec<&str> = Vec::new();
    for (i, (_, _, w)) in body_ids.iter().enumerate() {
        if w == "let" {
            if let Some((_, _, bound)) = body_ids[i + 1..].iter().find(|(_, _, x)| x != "mut") {
                shadowed.push(bound);
            }
        }
    }
    let eligible: Vec<&String> = mut_bindings
        .iter()
        .filter(|(name, line)| {
            *line < spawn_line && !params.contains(name) && !shadowed.contains(&name.as_str())
        })
        .map(|(name, _)| name)
        .collect();
    let mut seen: Vec<String> = Vec::new();
    for (_, _, w) in &body_ids {
        if eligible.contains(&w) && !seen.contains(w) {
            seen.push(w.clone());
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(src: &str) -> Vec<Event> {
        let facts = extract(&Source::new("crates/x/src/lib.rs", src));
        facts.fns.into_iter().flat_map(|f| f.events).collect()
    }

    #[test]
    fn direct_lock_acquisition_is_let_bound_aware() {
        let src = "use std::sync::Mutex;\nstruct S { inner: Mutex<u8> }\nimpl S {\n    fn a(&self) {\n        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        drop(g);\n    }\n    fn b(&self) -> u8 {\n        *self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n    }\n}\n";
        let evs = events_of(src);
        let locks: Vec<(&str, bool)> = evs
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Lock { lock, let_bound, .. } => Some((lock.as_str(), *let_bound)),
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec![("inner", true), ("inner", false)]);
    }

    #[test]
    fn wrapper_functions_are_recognized_and_call_args_resolved() {
        let src = "use std::sync::{Mutex, MutexGuard};\nstruct S { ring: Mutex<u8> }\nfn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\nimpl S {\n    fn touch(&self) {\n        let mut ring = lock(&self.ring);\n        *ring += 1;\n    }\n}\n";
        let facts = extract(&Source::new("crates/x/src/lib.rs", src));
        let wrapper = facts.fns.iter().find(|f| f.name == "lock").expect("wrapper fn");
        assert!(wrapper.wrapper);
        let touch = facts.fns.iter().find(|f| f.name == "touch").expect("touch fn");
        let call = touch
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call { callee, arg_lock, let_bound, .. } if callee == "lock" => {
                    Some((arg_lock.clone(), *let_bound))
                }
                _ => None,
            })
            .expect("call to wrapper");
        assert_eq!(call, (Some("ring".to_string()), true));
    }

    #[test]
    fn atomics_require_an_ordering_token() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering::Relaxed};\nstruct C(AtomicU64);\nimpl C {\n    fn bump(&self, v: &mut Vec<u8>) {\n        self.0.fetch_add(1, Relaxed);\n        v.swap(0, 1);\n    }\n}\n";
        let evs = events_of(src);
        let atomics: Vec<(&str, &str)> = evs
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Atomic { name, orderings, .. } => {
                    Some((name.as_str(), orderings[0].as_str()))
                }
                _ => None,
            })
            .collect();
        // tuple-field receiver resolves to the impl type; Vec::swap
        // (no Ordering token) is not an atomic op
        assert_eq!(atomics, vec![("C", "Relaxed")]);
    }

    #[test]
    fn spawn_captures_mut_bindings_from_the_enclosing_scope() {
        let src = "fn go() {\n    let mut total = 0u64;\n    std::thread::scope(|s| {\n        s.spawn(|| {\n            total += 1;\n        });\n    });\n    let _ = total;\n}\n";
        let evs = events_of(src);
        let caps: Vec<Vec<String>> = evs
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Spawn { mut_captures } => Some(mut_captures.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(caps, vec![vec!["total".to_string()]]);
    }

    #[test]
    fn move_closures_and_closure_locals_do_not_count_as_captures() {
        let src = "fn go() {\n    let mut total = 0u64;\n    std::thread::scope(|s| {\n        s.spawn(move || {\n            total += 1;\n        });\n        s.spawn(|| {\n            let mut local = Vec::new();\n            local.push(1);\n        });\n    });\n}\n";
        let evs = events_of(src);
        for e in &evs {
            if let EventKind::Spawn { mut_captures } = &e.kind {
                assert!(mut_captures.is_empty(), "{mut_captures:?}");
            }
        }
        assert_eq!(evs.iter().filter(|e| matches!(e.kind, EventKind::Spawn { .. })).count(), 2);
    }

    #[test]
    fn test_code_is_excluded() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        std::thread::spawn(|| {});\n    }\n}\n";
        assert!(events_of(src).is_empty());
    }

    #[test]
    fn panic_sites_cover_unwrap_macros_and_indexing() {
        let src = "fn f(v: &[u8], o: Option<u8>) -> u8 {\n    let a = o.unwrap();\n    assert!(a > 0);\n    v[0] + a\n}\n";
        let whats: Vec<&str> = events_of(src)
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Panic { what } => Some(what),
                _ => None,
            })
            .collect();
        assert_eq!(whats, vec!["unwrap", "macro", "index"]);
    }

    #[test]
    fn metric_macros_become_registry_calls() {
        let src =
            "fn f() {\n    fsdm_obs::counter!(fsdm_obs::catalog::STORE_EXEC_QUERIES).add(1);\n}\n";
        let callees: Vec<String> = events_of(src)
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { callee, .. } => Some(callee.clone()),
                _ => None,
            })
            .collect();
        assert!(callees.contains(&"MetricsRegistry::counter".to_string()), "{callees:?}");
    }
}
