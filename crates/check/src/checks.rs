//! The SN rules: replay each function's event stream against the
//! declared lock hierarchy and atomic disciplines, over a workspace
//! call graph with transitive may-acquire sets.

use std::collections::HashMap;

use fsdm_analyze::{Code, Diagnostic};
use fsdm_obs::catalog::{self, AtomicDiscipline};
use fsdm_sqljson::Span;

use crate::facts::{lock_rank, Event, EventKind, FileFacts, FnFacts};
use crate::Finding;

/// The file that owns thread spawning; `spawn` anywhere else is SN007.
pub const EXECUTOR_FILE: &str = "crates/store/src/parallel.rs";

/// The executor's entry point: holding a lock across a call that
/// reaches it is SN003.
const EXECUTOR_ENTRY: &str = "run_morsels";

/// A function's position in the workspace fact set.
type FnRef = (usize, usize);

/// Resolution and reachability context shared by all rule walks.
struct Graph<'a> {
    files: &'a [FileFacts],
    /// bare name → every function carrying it
    by_name: HashMap<&'a str, Vec<FnRef>>,
    /// `Type::name` → every method carrying it
    by_qualified: HashMap<&'a str, Vec<FnRef>>,
}

impl<'a> Graph<'a> {
    fn build(files: &'a [FileFacts]) -> Graph<'a> {
        let mut by_name: HashMap<&str, Vec<FnRef>> = HashMap::new();
        let mut by_qualified: HashMap<&str, Vec<FnRef>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                by_name.entry(&f.name).or_default().push((fi, gi));
                if f.qualified != f.name {
                    by_qualified.entry(&f.qualified).or_default().push((fi, gi));
                }
            }
        }
        Graph { files, by_name, by_qualified }
    }

    fn get(&self, r: FnRef) -> &'a FnFacts {
        &self.files[r.0].fns[r.1]
    }

    /// Resolve a callee string from a given file: same-file definitions
    /// win, then a workspace-unique name; ambiguity resolves to nothing.
    fn resolve(&self, callee: &str, from_file: usize) -> Option<FnRef> {
        let table = if callee.contains("::") { &self.by_qualified } else { &self.by_name };
        let candidates = table.get(callee)?;
        let local: Vec<FnRef> = candidates.iter().copied().filter(|r| r.0 == from_file).collect();
        match (local.len(), candidates.len()) {
            (1, _) => Some(local[0]),
            (0, 1) => Some(candidates[0]),
            _ => None,
        }
    }

    /// Locks a function may acquire, transitively through resolved
    /// calls (wrapper-parameter locks attribute to the call sites).
    fn transitive_locks(&self, r: FnRef, memo: &mut HashMap<FnRef, Vec<String>>) -> Vec<String> {
        if let Some(cached) = memo.get(&r) {
            return cached.clone();
        }
        // mark in-progress to cut cycles
        memo.insert(r, Vec::new());
        let mut locks: Vec<String> = Vec::new();
        for ev in &self.get(r).events {
            match &ev.kind {
                EventKind::Lock { lock, .. } => push_unique(&mut locks, lock),
                EventKind::Call { callee, arg_lock, .. } => {
                    if let Some(target) = self.resolve(callee, r.0) {
                        if self.get(target).wrapper {
                            if let Some(l) = arg_lock {
                                push_unique(&mut locks, l);
                            }
                        }
                        for l in self.transitive_locks(target, memo) {
                            push_unique(&mut locks, &l);
                        }
                    }
                }
                _ => {}
            }
        }
        memo.insert(r, locks.clone());
        locks
    }

    /// Whether a function's calls may reach the morsel executor.
    fn reaches_executor(&self, r: FnRef, memo: &mut HashMap<FnRef, bool>) -> bool {
        if let Some(&cached) = memo.get(&r) {
            return cached;
        }
        memo.insert(r, false);
        let here = self.files[r.0].path == EXECUTOR_FILE && self.get(r).name == EXECUTOR_ENTRY;
        let reached = here
            || self.get(r).events.iter().any(|ev| match &ev.kind {
                EventKind::Call { callee, .. } => {
                    self.resolve(callee, r.0).is_some_and(|t| self.reaches_executor(t, memo))
                }
                _ => false,
            });
        memo.insert(r, reached);
        reached
    }
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// A lock currently held during a rule walk.
struct Held {
    lock: String,
    rank: u32,
    /// Last 0-based line the guard is live on.
    until: usize,
    binding: Option<String>,
}

/// Run every SN rule over the workspace fact set.
pub fn run(files: &[FileFacts]) -> Vec<Finding> {
    let graph = Graph::build(files);
    let mut lock_memo: HashMap<FnRef, Vec<String>> = HashMap::new();
    let mut exec_memo: HashMap<FnRef, bool> = HashMap::new();
    let mut out: Vec<Finding> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            walk_fn(&graph, (fi, gi), f, &mut lock_memo, &mut exec_memo, &mut out);
        }
    }
    out
}

fn walk_fn(
    graph: &Graph<'_>,
    r: FnRef,
    f: &FnFacts,
    lock_memo: &mut HashMap<FnRef, Vec<String>>,
    exec_memo: &mut HashMap<FnRef, bool>,
    out: &mut Vec<Finding>,
) {
    let file = &graph.files[r.0];
    let mut held: Vec<Held> = Vec::new();
    for ev in &f.events {
        held.retain(|h| h.until >= ev.line);
        match &ev.kind {
            EventKind::Lock { lock, let_bound, binding } => {
                check_acquire(file, f, ev, None, lock, &held, out);
                let Some(rank) = lock_rank(lock) else { continue };
                let until = if *let_bound { f.body_end } else { ev.line };
                held.push(Held { lock: lock.clone(), rank, until, binding: binding.clone() });
            }
            EventKind::Call { callee, arg_lock, arg_ident, let_bound } => {
                // explicit release: `drop(guard)`
                if callee == "drop" {
                    if let Some(ident) = arg_ident {
                        held.retain(|h| h.binding.as_deref() != Some(ident));
                    }
                    continue;
                }
                let Some(target) = graph.resolve(callee, r.0) else { continue };
                if graph.get(target).wrapper {
                    if let Some(lock) = arg_lock {
                        check_acquire(file, f, ev, None, lock, &held, out);
                        if let Some(rank) = lock_rank(lock) {
                            let until = if *let_bound { f.body_end } else { ev.line };
                            held.push(Held { lock: lock.clone(), rank, until, binding: None });
                        }
                    }
                    continue;
                }
                if held.is_empty() {
                    continue;
                }
                if graph.reaches_executor(target, exec_memo) {
                    out.push(at(
                        file,
                        ev,
                        Code::LockAcrossExecutor,
                        format!(
                            "`{}` calls `{callee}` (which reaches the morsel executor) \
                             while holding {}",
                            f.qualified,
                            held_list(&held)
                        ),
                        "release the guard before dispatching parallel work; a held lock \
                         serializes every worker",
                    ));
                }
                for lock in graph.transitive_locks(target, lock_memo) {
                    check_acquire(file, f, ev, Some(callee), &lock, &held, out);
                }
            }
            EventKind::Panic { what } => {
                if held.is_empty() {
                    continue;
                }
                let site = match *what {
                    "unwrap" => "an `unwrap`/`expect`",
                    "macro" => "a panicking macro",
                    _ => "an index expression",
                };
                out.push(at(
                    file,
                    ev,
                    Code::LockAcrossPanic,
                    format!(
                        "`{}` reaches {site} while holding {}; a panic here poisons the \
                         mutex for every later user",
                        f.qualified,
                        held_list(&held)
                    ),
                    "recover the guard with `unwrap_or_else(PoisonError::into_inner)`, or \
                     restructure so no lock is held across the fallible site",
                ));
            }
            EventKind::Atomic { name, method, orderings } => {
                check_atomic(file, f, ev, name, method, orderings, out);
            }
            EventKind::Spawn { mut_captures } => {
                if file.path != EXECUTOR_FILE {
                    out.push(at(
                        file,
                        ev,
                        Code::SpawnOutsideExecutor,
                        format!("`{}` spawns a thread outside the morsel executor", f.qualified),
                        "route parallel work through `run_morsels` so the configured \
                         degree and the race oracle govern it",
                    ));
                }
                for cap in mut_captures {
                    out.push(at(
                        file,
                        ev,
                        Code::MutCaptureAliasing,
                        format!(
                            "`{}` spawns a non-`move` closure that captures the `let mut` \
                             binding `{cap}` from the enclosing scope",
                            f.qualified
                        ),
                        "move ownership into the worker, or keep per-worker state inside \
                         the closure and merge results after the scope joins",
                    ));
                }
            }
        }
    }
}

/// SN001/SN002 for a lock acquired here, directly or through a wrapper
/// (`callee` is `None`), or one a callee may take while we hold something.
fn check_acquire(
    file: &FileFacts,
    f: &FnFacts,
    ev: &Event,
    callee: Option<&str>,
    lock: &str,
    held: &[Held],
    out: &mut Vec<Finding>,
) {
    let q = &f.qualified;
    if held.iter().any(|h| h.lock == lock) {
        let message = match callee {
            None => format!("`{q}` acquires `{lock}` while already holding it"),
            Some(c) => {
                format!("`{q}` calls `{c}`, which may re-acquire `{lock}` already held here")
            }
        };
        let help = "std::sync::Mutex is not reentrant: this deadlocks every time";
        out.push(at(file, ev, Code::DoubleLock, message, help));
        return;
    }
    let Some(rank) = lock_rank(lock) else { return };
    let Some(top) = held.iter().max_by_key(|h| h.rank).filter(|top| rank <= top.rank) else {
        return;
    };
    let (message, release) = match callee {
        None => (
            format!(
                "`{q}` acquires `{lock}` (rank {rank}) while holding `{}` (rank {}); \
                 the declared hierarchy only permits ascending acquisition",
                top.lock, top.rank
            ),
            "first",
        ),
        Some(c) => (
            format!(
                "`{q}` calls `{c}`, which may acquire `{lock}` (rank {rank}) \
                 while `{}` (rank {}) is held here",
                top.lock, top.rank
            ),
            "before the call",
        ),
    };
    let help = format!(
        "acquire in ascending catalog rank, or release the higher-ranked guard {release} \
         (hierarchy: obs catalog `LOCKS`)"
    );
    out.push(at(file, ev, Code::LockOrderInversion, message, &help));
}

/// SN005: the ordering discipline declared in the obs catalog.
fn check_atomic(
    file: &FileFacts,
    f: &FnFacts,
    ev: &Event,
    name: &str,
    method: &str,
    orderings: &[String],
    out: &mut Vec<Finding>,
) {
    let Some((_, discipline)) = catalog::ATOMICS.iter().find(|(n, _)| *n == name) else {
        out.push(at(
            file,
            ev,
            Code::AtomicOrdering,
            format!(
                "`{}` operates on atomic `{name}`, which is not declared in the obs \
                 catalog `ATOMICS` registry",
                f.qualified
            ),
            "declare the atomic's discipline in crates/obs/src/catalog.rs",
        ));
        return;
    };
    let ok = match discipline {
        AtomicDiscipline::Monotonic => orderings.iter().all(|o| o == "Relaxed"),
        AtomicDiscipline::Handshake => {
            let allowed: &[&str] = match method {
                "load" => &["Acquire", "SeqCst"],
                "store" => &["Release", "SeqCst"],
                _ => &["AcqRel", "Acquire", "SeqCst"],
            };
            orderings.iter().all(|o| allowed.contains(&o.as_str()))
        }
    };
    if ok {
        return;
    }
    let (want, why) = match discipline {
        AtomicDiscipline::Monotonic => (
            "Relaxed",
            "it is a plain statistic; stronger orderings buy nothing and tax the hot path",
        ),
        AtomicDiscipline::Handshake => (
            "Acquire loads / Release stores / AcqRel read-modify-writes",
            "its value gates other memory, so Relaxed lets the handshake be reordered away",
        ),
    };
    out.push(at(
        file,
        ev,
        Code::AtomicOrdering,
        format!(
            "`{}`: `{name}.{method}({})` violates the declared {:?} discipline — {why}",
            f.qualified,
            orderings.join(", "),
            discipline
        ),
        &format!("this atomic is declared {discipline:?}: use {want}"),
    ));
}

fn held_list(held: &[Held]) -> String {
    let names: Vec<String> = held.iter().map(|h| format!("`{}`", h.lock)).collect();
    names.join(" and ")
}

/// A finding anchored on an event's token.
fn at(file: &FileFacts, ev: &Event, code: Code, message: String, help: &str) -> Finding {
    let text = file.raw_lines.get(ev.line).map_or("", String::as_str);
    let span = Span::new(ev.col, ev.col + ev.len);
    let diagnostic = Diagnostic::new(code, span, text, message).with_help(help);
    Finding { site: file.path.clone(), line: ev.line + 1, diagnostic }
}
