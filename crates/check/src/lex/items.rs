//! A lightweight Rust item/block parser on top of [`mod@super::scan`].
//!
//! This is deliberately **not** a grammar-complete parser: it recovers
//! exactly the item structure the repo's analyzers need — which lines
//! belong to which function, what type an `impl` block is for, and the
//! parameter names of each function — by walking the masked (code-only)
//! character stream and matching braces. String and comment content is
//! already blanked by the scanner, so brace matching cannot be fooled by
//! literals.
//!
//! Limitations, by design: nested `fn` items inside a function body are
//! folded into the enclosing function (their lines attribute to it), and
//! macro-generated items are invisible. Both are acceptable for
//! may-analyses over hand-written source.

use super::scan::Scan;

/// One `fn` item recovered from a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` self type, when the function is a method
    /// (`impl Foo` and `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// Parameter identifiers in order, including `self` when present.
    /// Destructuring patterns contribute their last identifier.
    pub params: Vec<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the body's opening brace.
    pub body_start: usize,
    /// 0-based line of the body's closing brace (inclusive).
    pub body_end: usize,
    /// True when the function sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The item structure of one file.
#[derive(Debug, Default)]
pub struct Items {
    /// Every function with a body, in source order.
    pub functions: Vec<FnItem>,
}

/// Identifiers in a masked line as `(start_col, end_col, word)` spans.
pub fn line_idents(masked: &str) -> Vec<(usize, usize, String)> {
    let chars: Vec<char> = masked.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let Some(&c) = chars.get(i) else { break };
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while chars.get(i).is_some_and(|&c| c.is_alphanumeric() || c == '_') {
                i += 1;
            }
            out.push((start, i, chars.get(start..i).unwrap_or(&[]).iter().collect()));
        } else {
            i += 1;
        }
    }
    out
}

/// One token of the simplified item-level stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// What a `{` that is about to open belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ctx {
    /// A function body (index into `Items::functions`).
    Fn(usize),
    /// An `impl`/`trait` block for the named type.
    Impl(String),
    /// Anything else: modules, match arms, plain blocks, initializers.
    Other,
}

/// Parse the item structure of a scanned file.
pub fn parse_items(scan: &Scan) -> Items {
    let mut items = Items::default();
    // the context stack: one entry per open `{`
    let mut stack: Vec<Ctx> = Vec::new();
    // tokens of the current item "head" — everything since the last
    // item-level boundary (`{`, `}`, `;`) outside parens/brackets
    let mut head: Vec<(usize, Tok)> = Vec::new();
    // paren/bracket nesting inside the current head (a `;` inside
    // `for<'a> fn(...)` style types must not end the head)
    let mut grouping = 0usize;
    // how many enclosing contexts are function bodies
    let mut fn_depth = 0usize;
    // generic-argument angle depth, tracked only while reading a head
    let mut angle = 0usize;

    let lines: Vec<String> = (0..scan.lines.len()).map(|l| scan.masked(l)).collect();
    for (line_no, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut col = 0usize;
        while col < chars.len() {
            let Some(&c) = chars.get(col) else { break };
            match c {
                c if c.is_alphabetic() || c == '_' => {
                    let start = col;
                    while chars.get(col).is_some_and(|&ch| ch.is_alphanumeric() || ch == '_') {
                        col += 1;
                    }
                    let word: String = chars.get(start..col).unwrap_or(&[]).iter().collect();
                    head.push((line_no, Tok::Ident(word)));
                    continue;
                }
                '{' => {
                    let ctx = classify_head(&head, line_no, scan, &mut items, fn_depth, &stack);
                    if matches!(ctx, Ctx::Fn(_)) {
                        fn_depth += 1;
                    }
                    stack.push(ctx);
                    head.clear();
                    grouping = 0;
                    angle = 0;
                }
                '}' => {
                    if let Some(Ctx::Fn(idx)) = stack.pop() {
                        fn_depth = fn_depth.saturating_sub(1);
                        if let Some(f) = items.functions.get_mut(idx) {
                            f.body_end = line_no;
                        }
                    }
                    head.clear();
                    grouping = 0;
                    angle = 0;
                }
                ';' if grouping == 0 => {
                    head.clear();
                    angle = 0;
                }
                '(' | '[' => {
                    grouping += 1;
                    head.push((line_no, Tok::Punct(c)));
                }
                ')' | ']' => {
                    grouping = grouping.saturating_sub(1);
                    head.push((line_no, Tok::Punct(c)));
                }
                '<' => {
                    angle += 1;
                    head.push((line_no, Tok::Punct(c)));
                }
                '>' => {
                    angle = angle.saturating_sub(1);
                    head.push((line_no, Tok::Punct(c)));
                }
                c if c.is_whitespace() => {}
                c => head.push((line_no, Tok::Punct(c))),
            }
            col += 1;
        }
        let _ = angle; // angle depth is informational; `>` in `->` self-corrects
    }
    items
}

/// Decide what the `{` that just opened belongs to, registering a new
/// function when the head reads `fn name (…)`.
fn classify_head(
    head: &[(usize, Tok)],
    brace_line: usize,
    scan: &Scan,
    items: &mut Items,
    fn_depth: usize,
    stack: &[Ctx],
) -> Ctx {
    // find the *last* `fn` keyword in the head (attributes and visibility
    // come before it; closure types like `F: Fn(..)` are `Fn`, not `fn`)
    let fn_pos = head
        .iter()
        .rposition(|(_, t)| matches!(t, Tok::Ident(w) if w == "fn"))
        .filter(|_| fn_depth == 0);
    if let Some(pos) = fn_pos {
        if let Some((sig_line, Tok::Ident(name))) = head.get(pos + 1) {
            // `fn(` (a bare fn-pointer type) has no name ident and never
            // reaches here; a real item does
            let params = param_idents(head.get(pos + 2..).unwrap_or(&[]));
            let impl_type = stack.iter().rev().find_map(|c| match c {
                Ctx::Impl(t) => Some(t.clone()),
                _ => None,
            });
            items.functions.push(FnItem {
                name: name.clone(),
                impl_type,
                params,
                sig_line: *sig_line,
                body_start: brace_line,
                body_end: brace_line,
                in_test: scan.in_test(*sig_line),
            });
            return Ctx::Fn(items.functions.len() - 1);
        }
    }
    if fn_depth > 0 {
        return Ctx::Other;
    }
    let impl_pos =
        head.iter().position(|(_, t)| matches!(t, Tok::Ident(w) if w == "impl" || w == "trait"));
    if let Some(pos) = impl_pos {
        if let Some(ty) = impl_self_type(head.get(pos..).unwrap_or(&[])) {
            return Ctx::Impl(ty);
        }
    }
    Ctx::Other
}

/// Parameter identifiers from the token slice following a function name:
/// the contents of the first balanced `(…)` group. Each top-level
/// comma-separated binding contributes the last identifier of its
/// pattern (before the `:` type annotation when present).
fn param_idents(toks: &[(usize, Tok)]) -> Vec<String> {
    let mut out = Vec::new();
    // paren depth once inside the parameter list; angle depth both for
    // skipping the generic parameter list (`fn f<F: Fn(u8)>(..)` — that
    // inner paren group is a bound, not the params) and for ignoring
    // commas inside generic argument lists of parameter types
    let mut paren = 0usize;
    let mut angle = 0usize;
    let mut started = false;
    let mut current: Vec<&Tok> = Vec::new();
    let mut prev_dash = false;
    for (_, t) in toks {
        match t {
            Tok::Punct('(') => {
                if started {
                    current.push(t);
                    paren += 1;
                } else if angle == 0 {
                    started = true;
                    paren = 1;
                }
            }
            Tok::Punct(')') if started => {
                paren = paren.saturating_sub(1);
                if paren == 0 {
                    push_param(&mut out, &current);
                    return out;
                }
                current.push(t);
            }
            Tok::Punct('<') => {
                if started {
                    current.push(t);
                }
                angle += 1;
            }
            // `->` must not close a generic list
            Tok::Punct('>') if !prev_dash => {
                if started {
                    current.push(t);
                }
                angle = angle.saturating_sub(1);
            }
            Tok::Punct(',') if started && paren == 1 && angle == 0 => {
                push_param(&mut out, &current);
                current.clear();
            }
            _ if started => current.push(t),
            _ => {}
        }
        prev_dash = matches!(t, Tok::Punct('-'));
    }
    out
}

/// The binding identifier of one parameter: the last ident before the
/// top-level `:`, or the last ident of the whole pattern (`self`).
fn push_param(out: &mut Vec<String>, toks: &[&Tok]) {
    let mut last: Option<&str> = None;
    let mut angle = 0usize;
    let mut group = 0usize;
    for t in toks {
        match t {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle = angle.saturating_sub(1),
            Tok::Punct('(') | Tok::Punct('[') => group += 1,
            Tok::Punct(')') | Tok::Punct(']') => group = group.saturating_sub(1),
            Tok::Punct(':') if angle == 0 && group == 0 => break,
            Tok::Ident(w) if w != "mut" && w != "ref" => last = Some(w),
            _ => {}
        }
    }
    if let Some(w) = last {
        out.push(w.to_string());
    }
}

/// The self type of an `impl`/`trait` head: the first type identifier
/// after `for` when present (`impl Trait for Foo`), else the first type
/// identifier after the keyword and its generic parameter list. Path
/// types contribute their last segment (`fmt::Display` → `Display`).
fn impl_self_type(toks: &[(usize, Tok)]) -> Option<String> {
    let for_pos = toks.iter().position(|(_, t)| matches!(t, Tok::Ident(w) if w == "for"));
    let tail = match for_pos {
        Some(p) => toks.get(p + 1..)?,
        None => toks.get(1..)?,
    };
    // skip a leading generic parameter list `<…>`, then take the last
    // identifier of the leading path (stop at generics or `{`)
    let mut angle = 0usize;
    let mut name: Option<String> = None;
    for (_, t) in tail {
        match t {
            Tok::Punct('<') => {
                if name.is_some() {
                    break;
                }
                angle += 1;
            }
            Tok::Punct('>') => angle = angle.saturating_sub(1),
            Tok::Ident(w) if angle == 0 => {
                if w == "where" || w == "for" {
                    break;
                }
                name = Some(w.clone());
            }
            Tok::Punct(':') | Tok::Punct('&') | Tok::Punct('\'') => {}
            _ if angle > 0 => {}
            _ => {
                if name.is_some() {
                    break;
                }
            }
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::scan;

    fn functions(src: &str) -> Vec<FnItem> {
        parse_items(&scan(src)).functions
    }

    #[test]
    fn free_functions_and_bodies() {
        let src = "fn alpha(x: u8) -> u8 {\n    x + 1\n}\n\npub fn beta() {\n}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "alpha");
        assert_eq!(fns[0].params, vec!["x"]);
        assert_eq!((fns[0].sig_line, fns[0].body_start, fns[0].body_end), (0, 0, 2));
        assert_eq!(fns[1].name, "beta");
        assert!(fns[1].params.is_empty());
        assert_eq!(fns[1].impl_type, None);
    }

    #[test]
    fn impl_methods_record_their_type() {
        let src = "struct Ring;\nimpl Ring {\n    fn push(&mut self, v: u8) {\n        \
                   let _ = v;\n    }\n}\nimpl std::fmt::Debug for Ring {\n    \
                   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        \
                   Ok(())\n    }\n}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].qualified(), "Ring::push");
        assert_eq!(fns[0].params, vec!["self", "v"]);
        assert_eq!(fns[1].qualified(), "Ring::fmt");
        assert_eq!(fns[1].params, vec!["self", "f"]);
    }

    #[test]
    fn generic_impls_and_trait_impls() {
        let src = "impl<T: Clone> Wrapper<T> {\n    fn get(&self) -> &T {\n        &self.0\n    \
                   }\n}\nimpl<T> Drop for Wrapper<T> {\n    fn drop(&mut self) {}\n}\n";
        let fns = functions(src);
        assert_eq!(fns[0].qualified(), "Wrapper::get");
        assert_eq!(fns[1].qualified(), "Wrapper::drop");
    }

    #[test]
    fn nested_blocks_stay_inside_the_function() {
        let src = "fn outer(v: &[u8]) -> usize {\n    let mut n = 0;\n    for x in v {\n        \
                   if *x > 0 {\n            n += 1;\n        }\n    }\n    n\n}\nfn after() {}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].body_end, 8);
        assert_eq!(fns[1].name, "after");
        assert_eq!((fns[1].sig_line, fns[1].body_end), (9, 9));
    }

    #[test]
    fn fn_pointer_types_and_closure_bounds_are_not_items() {
        let src = "type Cb = fn(u8) -> u8;\nfn real<F: Fn(u8) -> u8>(f: F) -> u8 {\n    \
                   f(1)\n}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
        assert_eq!(fns[0].params, vec!["f"]);
    }

    #[test]
    fn where_clauses_and_multiline_signatures() {
        let src = "pub fn run<T, F>(\n    ctx: &u8,\n    total: usize,\n    f: F,\n) -> \
                   Vec<T>\nwhere\n    T: Send,\n    F: Sync,\n{\n    Vec::new()\n}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "run");
        assert_eq!(fns[0].params, vec!["ctx", "total", "f"]);
        assert_eq!(fns[0].body_start, 8);
        assert_eq!(fns[0].body_end, 10);
    }

    #[test]
    fn test_region_functions_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   assert!(true);\n    }\n}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 2);
        assert!(!fns[0].in_test);
        assert!(fns[1].in_test, "{fns:?}");
    }

    #[test]
    fn match_arms_and_struct_literals_do_not_confuse_nesting() {
        let src = "fn f(x: u8) -> u8 {\n    match x {\n        0 => {\n            1\n        \
                   }\n        _ => 2,\n    }\n}\nstruct S {\n    a: u8,\n}\nfn g() -> S {\n    \
                   S { a: 1 }\n}\n";
        let fns = functions(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].body_end, 7);
        assert_eq!(fns[1].name, "g");
    }

    #[test]
    fn line_ident_spans() {
        let ids = line_idents("let x_1 = foo(bar);");
        let words: Vec<&str> = ids.iter().map(|(_, _, w)| w.as_str()).collect();
        assert_eq!(words, vec!["let", "x_1", "foo", "bar"]);
        assert_eq!(ids[1], (4, 7, "x_1".to_string()));
    }
}
