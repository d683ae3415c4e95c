//! The `src` token rules (SR001–SR011) and the per-file checker.
//!
//! Rules are scoped by repo-relative path. The hot-path decode/navigation
//! files must stay panic-free (`no-panic`, `no-index`), the OSON/BSON wire
//! arithmetic must use checked conversions (`no-as-int`), metric names
//! must come from `fsdm_obs::catalog` (`metric-literal`) and every
//! constant declared there must be listed in its `ALL` inventory
//! (`catalog`), span names must come from the catalog's `SPAN_*`
//! constants (`span-name-from-catalog`), diagnostic codes must come from
//! the `fsdm_analyze::Code` registry and never be spelled as string
//! literals (`diag-code-registry`, which also applies inside test code),
//! the executor crates must stay free of single-thread interior
//! mutability so `Expr`/`Table`/`Database` remain `Send + Sync`
//! (`no-interior-mut`: `RefCell`/`Cell`/`Rc` in `crates/store/src` and
//! `crates/sqljson/src`), debugging scaffold must not ship anywhere
//! (`no-debug`: `dbg!` and `todo!` workspace-wide), `catch_unwind` is
//! confined to the morsel executor's panic boundary and the failpoint
//! crate (`panic-isolation`), and to-do comment markers carry an issue
//! reference (`todo`). Formatting is `cargo fmt`'s job, not a rule here.

use fsdm_analyze::Code;

use crate::lex::{line_idents, next_non_ws, prev_non_ws, Class, Scan};
use crate::source::Source;
use crate::Finding;

/// Files whose non-test code must be free of panicking constructs.
const HOT_PATH_FILES: &[&str] = &[
    // they scan stored text no constraint checked, on every text query
    "crates/json/src/events.rs",
    "crates/json/src/parse.rs",
    "crates/oson/src/wire.rs",
    "crates/oson/src/doc.rs",
    "crates/oson/src/update.rs",
    "crates/bson/src/decode.rs",
    "crates/sqljson/src/engine.rs",
    "crates/sqljson/src/streaming.rs",
    "crates/sqljson/src/ops.rs",
];

/// Files where bare `as` integer casts are banned (offset/length
/// arithmetic must use `try_into` or the checked wire helpers).
const NO_AS_FILES: &[&str] = &[
    "crates/oson/src/wire.rs",
    "crates/oson/src/doc.rs",
    "crates/oson/src/update.rs",
    "crates/bson/src/decode.rs",
];

/// The crate that owns the diagnostic-code registry
/// (`crates/analyze/src/diag.rs`). Everywhere else, `FA###`/`PK###`/
/// `SN###`/`SR###` codes must be referenced through `fsdm_analyze::Code`,
/// never spelled as string literals, so renumbering stays a one-file
/// change.
const DIAG_REGISTRY_PREFIX: &str = "crates/analyze/";

/// Path prefixes where single-thread interior-mutability types are banned:
/// the morsel-driven executor shares `Expr`/`Table`/`Database` across
/// worker threads, so these crates must stay `Send + Sync`. Per-worker
/// mutable state belongs in `EvalScratch`, passed by `&mut`.
const NO_INTERIOR_MUT_PREFIXES: &[&str] = &["crates/store/src/", "crates/sqljson/src/"];

/// The one production panic boundary: `run_morsels` catches worker
/// panics, cancels the peers, and rethrows as a typed error. Everywhere
/// else (outside the failpoint crate, whose panic mode exists to test
/// that boundary) `catch_unwind` hides a bug (`panic-isolation`).
const PANIC_BOUNDARY_FILE: &str = "crates/store/src/parallel.rs";

/// The metric-name catalog the `catalog` rule cross-checks.
pub const CATALOG_FILE: &str = "crates/obs/src/catalog.rs";

/// Keywords that may legitimately precede `[` without it being an index
/// expression (slice patterns, array types after `->`, …).
pub const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "as", "move", "static", "const",
    "dyn", "impl", "for", "while", "loop", "break", "continue", "where", "pub", "fn", "type",
    "use", "mod", "enum", "struct", "trait", "union", "unsafe", "extern", "box", "await", "yield",
];

const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Run every applicable rule over one file, before allow filtering.
pub fn check_file(src: &Source, out: &mut Vec<Finding>) {
    let rel = src.path.as_str();
    let hot = HOT_PATH_FILES.contains(&rel);
    let no_as = NO_AS_FILES.contains(&rel);
    let metrics = !rel.starts_with("crates/obs/");
    let diag_codes = !rel.starts_with(DIAG_REGISTRY_PREFIX);
    let no_int_mut = NO_INTERIOR_MUT_PREFIXES.iter().any(|p| rel.starts_with(p));
    let isolate = rel != PANIC_BOUNDARY_FILE && !rel.starts_with("crates/fault/");

    for line in 0..src.scan.lines.len() {
        // runs before the in_test gate: string comparisons against
        // diagnostic ids live mostly in test code
        if diag_codes {
            diag_code_literal(src, line, out);
        }
        if src.scan.in_test(line) {
            continue;
        }
        let masked = src.scan.masked(line);
        no_debug(src, hot, line, &masked, out);
        if hot {
            no_panic(src, line, &masked, out);
            no_index(src, line, &masked, out);
        }
        if no_as {
            no_as_int(src, line, &masked, out);
        }
        if no_int_mut {
            no_interior_mut(src, line, &masked, out);
        }
        if isolate {
            panic_isolation(src, line, &masked, out);
        }
        if metrics {
            name_literal(src, line, &masked, out);
        }
    }
    todo_comments(src, out);
}

/// `pub const NAME: &str = "value";` declarations of a catalog file, as
/// `(0-based line, NAME, value)`.
pub fn declared_names<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub const ") else { continue };
        let Some((name, tail)) = rest.split_once(':') else { continue };
        let Some((_, value)) = tail.split_once('"') else { continue };
        let Some((value, _)) = value.split_once('"') else { continue };
        out.push((i, name.trim().to_string(), value.to_string()));
    }
    out
}

/// The `catalog` rule: every metric constant declared in
/// `crates/obs/src/catalog.rs` must be listed in its `ALL` inventory.
/// (That the listed names are unique and sorted is asserted by the
/// catalog's own unit tests; a constant that never reaches `ALL` is the
/// part a test iterating `ALL` cannot see.)
pub fn check_catalog(sources: &[Source], out: &mut Vec<Finding>) {
    let Some(src) = sources.iter().find(|s| s.path == CATALOG_FILE) else { return };
    let all_entries: Vec<&str> = src
        .text
        .split_once("pub const ALL")
        .and_then(|(_, after)| after.split_once("= &["))
        .and_then(|(_, after)| after.split_once("];"))
        .map(|(body, _)| body.split(',').map(str::trim).collect())
        .unwrap_or_default();
    for (line, name, _) in declared_names(src.text.lines()) {
        if !all_entries.contains(&name.as_str()) {
            let message = format!("{name} is missing from the ALL inventory");
            out.push(src.finding(line, Code::CatalogDrift, message));
        }
    }
}

fn no_panic(src: &Source, line: usize, masked: &str, out: &mut Vec<Finding>) {
    for (start, end, word) in line_idents(masked) {
        let finding = match word.as_str() {
            "unwrap" | "expect" => {
                prev_non_ws(masked, start) == Some('.') && next_non_ws(masked, end) == Some('(')
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                next_non_ws(masked, end) == Some('!')
            }
            _ => false,
        };
        if finding {
            let message = format!(
                "`{word}` can panic; hot-path decode code must return errors \
                 or use a total fallback"
            );
            out.push(src.finding(line, Code::NoPanic, message));
        }
    }
}

fn no_debug(src: &Source, hot: bool, line: usize, masked: &str, out: &mut Vec<Finding>) {
    for (_, end, word) in line_idents(masked) {
        let flagged = match word.as_str() {
            "dbg" => next_non_ws(masked, end) == Some('!'),
            // hot files already get the stricter `no-panic` report for `todo!`
            "todo" if !hot => next_non_ws(masked, end) == Some('!'),
            _ => false,
        };
        if flagged {
            let message = format!("`{word}!` must not ship; remove the debugging scaffold");
            out.push(src.finding(line, Code::NoDebug, message));
        }
    }
}

fn no_index(src: &Source, line: usize, masked: &str, out: &mut Vec<Finding>) {
    let chars: Vec<char> = masked.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let Some(prev) = prev_non_ws(masked, i) else { continue };
        let is_index = if prev.is_alphanumeric() || prev == '_' {
            // walk back over the identifier and reject keywords
            let mut j = i;
            while j > 0 && chars.get(j - 1).is_some_and(char::is_ascii_whitespace) {
                j -= 1;
            }
            let end = j;
            while j > 0 && chars.get(j - 1).is_some_and(|&c| c.is_alphanumeric() || c == '_') {
                j -= 1;
            }
            let word: String = chars.get(j..end).unwrap_or(&[]).iter().collect();
            // `&'a [u8]`: a lifetime before `[` is a type, not an index
            let lifetime = j > 0 && chars.get(j - 1) == Some(&'\'');
            !lifetime && !NON_INDEX_KEYWORDS.contains(&word.as_str())
        } else {
            matches!(prev, ')' | ']' | '?')
        };
        if is_index {
            let message = "slice/array indexing can panic; use `.get()` / `.get_mut()` \
                           or a slice pattern";
            out.push(src.finding(line, Code::NoIndex, message.to_string()));
        }
    }
}

fn panic_isolation(src: &Source, line: usize, masked: &str, out: &mut Vec<Finding>) {
    for (_, _, word) in line_idents(masked) {
        if word == "catch_unwind" {
            let message = "`catch_unwind` outside the morsel executor's panic boundary \
                           swallows bugs; return a typed error, or let `run_morsels` \
                           isolate the panic";
            out.push(src.finding(line, Code::PanicIsolation, message.to_string()));
        }
    }
}

fn no_as_int(src: &Source, line: usize, masked: &str, out: &mut Vec<Finding>) {
    let words = line_idents(masked);
    for pair in words.windows(2) {
        let [(_, _, word), (_, _, ty)] = pair else { continue };
        if word == "as" && INT_TYPES.contains(&ty.as_str()) {
            let message = format!(
                "bare `as {ty}` cast in offset/length arithmetic; use \
                 `try_into()`, `{ty}::from()`, or the checked wire helpers"
            );
            out.push(src.finding(line, Code::NoAsInt, message));
        }
    }
}

fn no_interior_mut(src: &Source, line: usize, masked: &str, out: &mut Vec<Finding>) {
    for (start, end, word) in line_idents(masked) {
        let flagged = match word.as_str() {
            "RefCell" | "UnsafeCell" | "Rc" => true,
            // the `std::cell` module path: catches `std::cell::Cell<_>`
            // etc. without flagging identifiers that merely *name* a cell
            // (the row-cell enum `table::Cell` is not interior mutability)
            "cell" => {
                prev_non_ws(masked, start) == Some(':') && next_non_ws(masked, end) == Some(':')
            }
            _ => false,
        };
        if flagged {
            let message = format!(
                "`{word}` is single-thread interior mutability and breaks the \
                 `Send + Sync` executor invariant; keep per-worker state in \
                 `EvalScratch` (passed by `&mut`) or use `Arc`/atomics"
            );
            out.push(src.finding(line, Code::NoInteriorMut, message));
        }
    }
}

/// `metric-literal` and `span-name-from-catalog`: names at a
/// `counter!`/`gauge!`/`histogram!` macro call or a `span`/`span_args`/
/// `span_with_parent` function call must come from `fsdm_obs::catalog`,
/// never be string literals. The shape is the identifier, `!` for the
/// macros, then `(` and a string literal as the first argument.
fn name_literal(src: &Source, line: usize, masked: &str, out: &mut Vec<Finding>) {
    let mchars: Vec<char> = masked.chars().collect();
    for (_, end, word) in line_idents(masked) {
        let (code, is_macro) = match word.as_str() {
            "counter" | "gauge" | "histogram" => (Code::MetricLiteral, true),
            "span" | "span_args" | "span_with_parent" => (Code::SpanLiteral, false),
            _ => continue,
        };
        let skip_ws = |mut j: usize| {
            while mchars.get(j).is_some_and(|c| c.is_whitespace()) {
                j += 1;
            }
            j
        };
        let mut j = skip_ws(end);
        if is_macro {
            if mchars.get(j) != Some(&'!') {
                continue;
            }
            j = skip_ws(j + 1);
        }
        if mchars.get(j) != Some(&'(') {
            continue;
        }
        j += 1;
        // the first significant column after the paren: skip code
        // whitespace, then see whether a string literal starts there
        let mut literal = false;
        while let (Some(&c), Some(&cls)) = (
            src.scan.lines.get(line).and_then(|l| l.get(j)),
            src.scan.classes.get(line).and_then(|l| l.get(j)),
        ) {
            if cls == Class::Code && c.is_whitespace() {
                j += 1;
                continue;
            }
            literal = matches!(cls, Class::StrDelim | Class::StrContent);
            break;
        }
        if literal {
            let message = if is_macro {
                format!(
                    "string-literal metric name at a `{word}!` call site; record through \
                     a `fsdm_obs::catalog` constant"
                )
            } else {
                format!(
                    "string-literal span name at a `{word}` call site; trace through a \
                     `fsdm_obs::catalog::SPAN_*` constant"
                )
            };
            out.push(src.finding(line, code, message));
        }
    }
}

/// `diag-code-registry`: diagnostic ids (`FA###`/`PK###`/`SN###`/`SR###`)
/// may only be spelled out inside the registry crate (`crates/analyze/`,
/// where `diag.rs` defines `Code`). Everywhere else — including test
/// modules, where assertions against rendered output tend to accumulate —
/// codes must be referenced through `fsdm_analyze::Code`, so renumbering
/// or retiring a code stays a one-file change. Unlike the masked semantic
/// rules this one inspects string *content*, so it reads the raw line
/// and fires only where the scanner classified `StrContent`.
fn diag_code_literal(src: &Source, line: usize, out: &mut Vec<Finding>) {
    let scan: &Scan = &src.scan;
    let (Some(chars), Some(classes)) = (scan.lines.get(line), scan.classes.get(line)) else {
        return;
    };
    for i in 0..chars.len() {
        let prefix = matches!(
            (chars.get(i), chars.get(i + 1)),
            (Some(&'F'), Some(&'A'))
                | (Some(&'P'), Some(&'K'))
                | (Some(&'S'), Some(&'N'))
                | (Some(&'S'), Some(&'R'))
        );
        let digits = (2..5).all(|k| chars.get(i + k).is_some_and(char::is_ascii_digit));
        let in_string = (0..5).all(|k| classes.get(i + k) == Some(&Class::StrContent));
        if !(prefix && digits && in_string) {
            continue;
        }
        // word boundaries: not the tail of a longer identifier, and not
        // followed by more digits (`FA0001` is prose, not a code)
        let joined_before =
            i > 0 && chars.get(i - 1).is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_');
        let joined_after = chars.get(i + 5).is_some_and(char::is_ascii_digit);
        if joined_before || joined_after {
            continue;
        }
        let code: String = chars.iter().skip(i).take(5).collect();
        let message = format!(
            "diagnostic code \"{code}\" spelled as a string literal; reference it \
             through `fsdm_analyze::Code` (compare codes or build expected text \
             from `Code::<variant>.id()`)"
        );
        out.push(src.finding(line, Code::DiagCodeLiteral, message));
    }
}

fn todo_comments(src: &Source, out: &mut Vec<Finding>) {
    for (line, text) in &src.scan.comments {
        for marker in ["TODO", "FIXME"] {
            let Some(pos) = text.find(marker) else { continue };
            let after = text.get(pos + marker.len()..).unwrap_or("");
            let has_issue = after
                .strip_prefix("(#")
                .is_some_and(|r| r.chars().next().is_some_and(|c| c.is_ascii_digit()));
            if !has_issue {
                let message = format!("{marker} without an issue reference; write {marker}(#N)");
                out.push(src.finding(*line, Code::Todo, message));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::check_sources;
    use crate::SRC;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        check_sources(&[Source::new(rel, src)], &[SRC]).findings
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.diagnostic.code.slug()).collect()
    }

    const HOT: &str = "crates/oson/src/doc.rs";
    const COLD: &str = "crates/workloads/src/lib.rs";

    #[test]
    fn flags_unwrap_expect_panic_in_hot_paths() {
        let src = "fn f(v: Option<u8>) -> u8 {\n    let a = v.unwrap();\n    \
                   let b = v.expect(\"x\");\n    panic!(\"no\");\n    unreachable!()\n}\n";
        assert_eq!(rules(&run(HOT, src)), vec!["no-panic"; 4]);
        assert!(run(COLD, src).is_empty(), "cold files are out of scope");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(v: Option<u8>) -> u8 {\n    v.unwrap_or(0)\n}\n";
        assert!(run(HOT, src).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_fire() {
        let src = "// calling unwrap() here would panic!\nfn f() -> &'static str {\n    \
                   \"never panic!(now)\"\n}\n";
        assert!(run(HOT, src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_semantic_rules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(v: Option<u8>) {\n        \
                   v.unwrap();\n    }\n}\n";
        assert!(run(HOT, src).is_empty());
    }

    #[test]
    fn flags_indexing_but_not_patterns() {
        let src = "fn f(v: &[u8], i: usize) -> u8 {\n    let [a, ..] = v else { return 0 };\n    \
                   let _ = *a;\n    v[i]\n}\n";
        let f = run(HOT, src);
        assert_eq!(rules(&f), vec!["no-index"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn macro_and_attribute_brackets_are_fine() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() -> Vec<u8> {\n    vec![1, 2]\n}\n";
        assert!(run(HOT, src).is_empty());
    }

    #[test]
    fn catch_unwind_is_confined_to_the_panic_boundary() {
        let src = "fn f() {\n    let _ = std::panic::catch_unwind(|| 1);\n}\n";
        assert_eq!(rules(&run("crates/store/src/database.rs", src)), vec!["panic-isolation"]);
        assert!(run(PANIC_BOUNDARY_FILE, src).is_empty(), "the executor owns the boundary");
        assert!(run("crates/fault/src/lib.rs", src).is_empty(), "the failpoint crate is exempt");
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                        let _ = std::panic::catch_unwind(|| 1);\n    }\n}\n";
        assert!(run("crates/obs/src/trace.rs", test_src).is_empty(), "test code is exempt");
    }

    #[test]
    fn flags_as_int_casts_in_wire_files() {
        let src = "fn f(x: u64) -> usize {\n    x as usize\n}\n";
        assert_eq!(rules(&run("crates/oson/src/wire.rs", src)), vec!["no-as-int"]);
        assert!(run("crates/sqljson/src/engine.rs", src).is_empty(), "engine allows casts");
    }

    #[test]
    fn as_non_int_is_fine() {
        let src = "fn f(x: u32) -> f64 {\n    f64::from(x) as f64\n}\n";
        assert!(run("crates/oson/src/wire.rs", src).is_empty());
    }

    #[test]
    fn flags_interior_mutability_in_executor_crates() {
        let src = "use std::cell::RefCell;\nfn f() {\n    let _ = std::rc::Rc::new(1);\n}\n";
        let f = run("crates/store/src/expr.rs", src);
        assert_eq!(rules(&f), vec!["no-interior-mut"; 3], "{f:?}");
        assert!(rules(&run("crates/sqljson/src/path.rs", src)).contains(&"no-interior-mut"));
        assert!(run(COLD, src).is_empty(), "other crates are out of scope");
    }

    #[test]
    fn row_cell_enum_is_not_interior_mutability() {
        let src = "enum Cell {\n    D(u8),\n}\nfn f(cell: &Cell) -> &Cell {\n    cell\n}\n";
        assert!(run("crates/store/src/table.rs", src).is_empty());
    }

    #[test]
    fn interior_mut_allow_escape_still_works() {
        let src = "fn f() {\n    \
                   // fsdm-check: allow(no-interior-mut) -- single-threaded builder\n    \
                   let c = std::cell::Cell::new(0u8);\n    c.set(1);\n}\n";
        let report = check_sources(&[Source::new("crates/store/src/table.rs", src)], &[SRC]);
        assert!(report.findings.is_empty(), "{}", report.render_text());
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn flags_metric_literals_outside_obs() {
        let src = "fn f() {\n    fsdm_obs::counter!(\"a.b.c\").inc();\n}\n";
        assert_eq!(rules(&run(COLD, src)), vec!["metric-literal"]);
        assert!(run("crates/obs/src/lib.rs", src).is_empty(), "obs itself is exempt");
        let ok = "fn f() {\n    fsdm_obs::counter!(fsdm_obs::catalog::X).inc();\n}\n";
        assert!(run(COLD, ok).is_empty());
    }

    #[test]
    fn flags_span_literals_outside_obs() {
        let src = "fn f() {\n    let _g = fsdm_obs::trace::span(\"a.b\");\n}\n";
        assert_eq!(rules(&run(COLD, src)), vec!["span-name-from-catalog"]);
        assert!(run("crates/obs/src/trace.rs", src).is_empty(), "obs itself is exempt");
        let with_parent =
            "fn f(p: u64) {\n    let _g = fsdm_obs::trace::span_with_parent(\"a.b\", p);\n}\n";
        assert_eq!(rules(&run(COLD, with_parent)), vec!["span-name-from-catalog"]);
        let ok = "fn f() {\n    let _g = fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_X);\n}\n";
        assert!(run(COLD, ok).is_empty());
        let unrelated = "fn f(s: &Layout) {\n    s.span(\"names are fine on other types\")\n}\n";
        assert_eq!(
            rules(&run(COLD, unrelated)),
            vec!["span-name-from-catalog"],
            "method calls match too — rename unrelated methods rather than weakening the rule"
        );
    }

    #[test]
    fn flags_diag_code_literals_outside_the_registry() {
        // the test source is assembled from halves so fsdm-check's scan of
        // this very file never sees a contiguous code literal
        let src = format!("fn f() -> &'static str {{\n    \"{}{}\"\n}}\n", "PK", "001");
        assert_eq!(rules(&run(COLD, &src)), vec!["diag-code-registry"]);
        assert!(
            run("crates/analyze/src/diag.rs", &src).is_empty(),
            "the registry crate itself is exempt"
        );
        let sentinel = format!("fn f() -> &'static str {{\n    \"{}{}\"\n}}\n", "SN", "004");
        assert_eq!(
            rules(&run(COLD, &sentinel)),
            vec!["diag-code-registry"],
            "the sentinel series is covered too"
        );
        let in_test = format!(
            "fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    fn t(id: &str) -> bool {{\n        \
             id == \"{}{}\"\n    }}\n}}\n",
            "FA", "001"
        );
        assert_eq!(
            rules(&run(COLD, &in_test)),
            vec!["diag-code-registry"],
            "unlike other semantic rules, this one applies inside test modules"
        );
    }

    #[test]
    fn diag_code_prose_and_near_misses_do_not_fire() {
        let comment = format!("// {}{} is explained here\nfn f() {{}}\n", "PK", "003");
        assert!(run(COLD, &comment).is_empty(), "comments are prose");
        let longer = format!("fn f() -> &'static str {{\n    \"{}{}1\"\n}}\n", "FA", "000");
        assert!(run(COLD, &longer).is_empty(), "four digits is not a code");
        let ident = format!("fn f() -> &'static str {{\n    \"X{}{}\"\n}}\n", "PK", "001");
        assert!(run(COLD, &ident).is_empty(), "identifier tails are not codes");
        let enum_ref = "fn f(c: fsdm_analyze::Code) -> bool {\n    \
                        c == fsdm_analyze::Code::UnknownColumn\n}\n";
        assert!(run(COLD, enum_ref).is_empty(), "enum references are the fix");
    }

    #[test]
    fn flags_dbg_and_todo_everywhere() {
        let src = "fn f(x: u8) -> u8 {\n    dbg!(x);\n    todo!()\n}\n";
        assert_eq!(rules(&run(COLD, src)), vec!["no-debug", "no-debug"]);
        // in hot files `todo!` is already a no-panic finding; only `dbg!`
        // surfaces as no-debug, so nothing is double-reported
        let hot = run(HOT, src);
        assert_eq!(rules(&hot), vec!["no-debug", "no-panic"]);
        assert_eq!(hot[0].line, 2, "the dbg! call: {hot:?}");
    }

    #[test]
    fn debug_prose_and_tests_do_not_fire() {
        let prose = "// a dbg! here would be noisy, todo! would not compile\nfn f() {}\n";
        assert!(run(COLD, prose).is_empty());
        let test = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                    dbg!(1);\n    }\n}\n";
        assert!(run(COLD, test).is_empty(), "test code is exempt");
        let names = "fn dbg_mode() -> bool {\n    todo_list()\n}\nfn todo_list() -> bool \
                     {\n    false\n}\n";
        assert!(run(COLD, names).is_empty(), "identifiers without `!` are fine");
    }

    #[test]
    fn todo_requires_issue_ref() {
        let src = "// TODO: someday\n// TODO(#42): tracked\nfn f() {}\n";
        let f = run(COLD, src);
        assert_eq!(rules(&f), vec!["todo"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn source_series_literals_are_covered_too() {
        let src = format!("fn f() -> &'static str {{\n    \"{}{}\"\n}}\n", "SR", "001");
        assert_eq!(rules(&run(COLD, &src)), vec!["diag-code-registry"]);
    }

    fn catalog(consts: &[(&str, &str)], all: &[&str]) -> String {
        let mut text = String::new();
        for (name, value) in consts {
            text.push_str(&format!("pub const {name}: &str = \"{value}\";\n"));
        }
        text.push_str("pub const ALL: &[&str] = &[\n");
        for name in all {
            text.push_str(&format!("    {name},\n"));
        }
        text.push_str("];\n");
        text
    }

    #[test]
    fn catalog_flags_a_constant_missing_from_all() {
        let mirrored = catalog(&[("A", "a.x"), ("B", "b.y")], &["A", "B"]);
        assert!(run(CATALOG_FILE, &mirrored).is_empty());
        let drifted = run(CATALOG_FILE, &catalog(&[("A", "a.x"), ("B", "b.y")], &["A"]));
        assert_eq!(rules(&drifted), vec!["catalog"]);
        assert_eq!(drifted[0].line, 2);
        assert!(drifted[0].diagnostic.message.contains("B is missing"), "{drifted:?}");
    }
}
