//! A comment-, string- and raw-string-aware scanner for Rust sources.
//!
//! The `concurrency` facts must never come from text inside a comment
//! or a string literal ("unwrap()" in a doc comment is prose, not a
//! call), so every file is first classified character by character.
//! The scanner is a small hand-rolled state machine — not a full lexer —
//! that knows exactly the token shapes that matter for masking:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments;
//! * string literals with escapes, byte strings, and raw strings with an
//!   arbitrary number of `#` guards;
//! * character literals versus lifetimes (`'a'` versus `&'a str`).

/// Classification of a single character of source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Plain code: identifiers, operators, whitespace between tokens.
    Code,
    /// Inside a line or block comment (including the delimiters).
    Comment,
    /// A quote character delimiting a string or char literal (including
    /// raw-string `r#` guards).
    StrDelim,
    /// Payload of a string or char literal.
    StrContent,
}

/// The classified form of one source file.
pub struct Scan {
    /// Source split into lines, without the terminating newlines.
    pub lines: Vec<Vec<char>>,
    /// Per-line, per-character classes; parallel to `lines`.
    pub classes: Vec<Vec<Class>>,
    /// True for lines inside a `#[cfg(test)]` module (attribute line
    /// through closing brace).
    pub test_lines: Vec<bool>,
}

impl Scan {
    /// The code-only view of a line: non-code characters blanked to
    /// spaces, so column positions are preserved.
    pub fn masked(&self, line: usize) -> String {
        let (Some(chars), Some(classes)) = (self.lines.get(line), self.classes.get(line)) else {
            return String::new();
        };
        chars
            .iter()
            .zip(classes)
            .map(|(&ch, &cls)| if cls == Class::Code { ch } else { ' ' })
            .collect()
    }

    /// True when `line` falls inside a `#[cfg(test)]` module.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }
}

/// Accumulates `(char, class)` pairs into per-line vectors.
struct Sink {
    lines: Vec<Vec<char>>,
    classes: Vec<Vec<Class>>,
}

impl Sink {
    fn new() -> Self {
        Sink { lines: vec![Vec::new()], classes: vec![Vec::new()] }
    }

    fn push(&mut self, ch: char, cls: Class) {
        if ch == '\n' {
            self.lines.push(Vec::new());
            self.classes.push(Vec::new());
        } else if let (Some(line), Some(classes)) = (self.lines.last_mut(), self.classes.last_mut())
        {
            line.push(ch);
            classes.push(cls);
        }
    }
}

fn is_ident(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_'
}

/// Classify a full source file.
pub fn scan(text: &str) -> Scan {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Sink::new();
    let mut i = 0;
    let mut prev_code: Option<char> = None;

    while let Some(&ch) = chars.get(i) {
        let next = chars.get(i + 1).copied();
        match ch {
            '/' if next == Some('/') => {
                while let Some(&c) = chars.get(i).filter(|&&c| c != '\n') {
                    out.push(c, Class::Comment);
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                out.push('/', Class::Comment);
                out.push('*', Class::Comment);
                i += 2;
                let mut depth = 1u32;
                while depth > 0 {
                    let Some(&c) = chars.get(i) else { break };
                    if c == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push('/', Class::Comment);
                        out.push('*', Class::Comment);
                        i += 2;
                    } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push('*', Class::Comment);
                        out.push('/', Class::Comment);
                        i += 2;
                    } else {
                        out.push(c, Class::Comment);
                        i += 1;
                    }
                }
            }
            '"' => i = consume_string(&chars, i, &mut out),
            'r' | 'b' if prev_code.map(is_ident) != Some(true) => {
                if let Some(adv) = try_prefixed_literal(&chars, i, &mut out) {
                    i = adv;
                } else {
                    out.push(ch, Class::Code);
                    prev_code = Some(ch);
                    i += 1;
                }
            }
            '\'' => {
                if is_char_literal(&chars, i) {
                    i = consume_char_literal(&chars, i, &mut out);
                } else {
                    // a lifetime: the quote and its label are plain code
                    out.push('\'', Class::Code);
                    prev_code = Some('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(ch, Class::Code);
                if !ch.is_whitespace() {
                    prev_code = Some(ch);
                }
                i += 1;
            }
        }
        if matches!(ch, '"' | '\'') {
            prev_code = Some(ch);
        }
    }

    let mut lines = out.lines;
    let mut classes = out.classes;
    if text.ends_with('\n') && lines.last().is_some_and(Vec::is_empty) {
        lines.pop();
        classes.pop();
    }
    let mut scan = Scan { lines, classes, test_lines: Vec::new() };
    scan.test_lines = find_test_regions(&scan);
    scan
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` — returns the index past
/// the literal, or `None` when `start` is not actually a literal prefix.
fn try_prefixed_literal(chars: &[char], start: usize, out: &mut Sink) -> Option<usize> {
    let mut i = start;
    let mut raw = false;
    if chars.get(i) == Some(&'b') {
        i += 1;
        if chars.get(i) == Some(&'\'') {
            // byte char literal b'x'
            out.push('b', Class::StrDelim);
            return Some(consume_char_literal(chars, i, out));
        }
    }
    if chars.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while raw && chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return None; // raw identifier (r#foo) or plain ident starting with b/r
    }
    for &c in chars.get(start..i).unwrap_or(&[]) {
        out.push(c, Class::StrDelim);
    }
    if raw {
        Some(consume_raw_string(chars, i, hashes, out))
    } else {
        Some(consume_string(chars, i, out))
    }
}

/// Consume `"…"` with escape handling; `i` points at the opening quote.
fn consume_string(chars: &[char], mut i: usize, out: &mut Sink) -> usize {
    out.push('"', Class::StrDelim);
    i += 1;
    while let Some(&c) = chars.get(i) {
        match c {
            '\\' => {
                out.push(c, Class::StrContent);
                if let Some(&esc) = chars.get(i + 1) {
                    out.push(esc, Class::StrContent);
                }
                i += 2;
            }
            '"' => {
                out.push('"', Class::StrDelim);
                return i + 1;
            }
            _ => {
                out.push(c, Class::StrContent);
                i += 1;
            }
        }
    }
    i
}

/// Consume `"…"###` with `hashes` guards; `i` points at the opening quote.
fn consume_raw_string(chars: &[char], mut i: usize, hashes: usize, out: &mut Sink) -> usize {
    out.push('"', Class::StrDelim);
    i += 1;
    while let Some(&c) = chars.get(i) {
        if c == '"' {
            let guard = chars.get(i + 1..i + 1 + hashes);
            if guard.is_some_and(|g| g.iter().all(|&h| h == '#')) {
                out.push('"', Class::StrDelim);
                for _ in 0..hashes {
                    out.push('#', Class::StrDelim);
                }
                return i + 1 + hashes;
            }
        }
        out.push(c, Class::StrContent);
        i += 1;
    }
    i
}

/// Distinguish `'a'` / `'\n'` (literals) from `'a` (lifetime); `i` points
/// at the quote.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Consume a char literal; `i` points at the opening quote.
fn consume_char_literal(chars: &[char], mut i: usize, out: &mut Sink) -> usize {
    out.push('\'', Class::StrDelim);
    i += 1;
    while let Some(&c) = chars.get(i) {
        match c {
            '\\' => {
                out.push(c, Class::StrContent);
                if let Some(&esc) = chars.get(i + 1) {
                    out.push(esc, Class::StrContent);
                }
                i += 2;
            }
            '\'' => {
                out.push('\'', Class::StrDelim);
                return i + 1;
            }
            _ => {
                out.push(c, Class::StrContent);
                i += 1;
            }
        }
    }
    i
}

/// Mark the line span of every `#[cfg(test)]` module: from the attribute
/// line through the brace that closes the item it decorates.
fn find_test_regions(scan: &Scan) -> Vec<bool> {
    let masked: Vec<String> = (0..scan.lines.len()).map(|l| scan.masked(l)).collect();
    let mut test = vec![false; masked.len()];
    for start in 0..masked.len() {
        let Some(line) = masked.get(start) else { continue };
        if !line.contains("#[cfg(test)]") {
            continue;
        }
        // walk forward to the first '{' after the attribute, then match
        // braces (strings and comments are already blanked)
        let mut depth = 0usize;
        let mut opened = false;
        let mut l = start;
        'outer: while let Some(line) = masked.get(l) {
            let from = if l == start {
                line.find("#[cfg(test)]").map(|p| p + "#[cfg(test)]".len()).unwrap_or(0)
            } else {
                0
            };
            for ch in line.chars().skip(from) {
                match ch {
                    '{' => {
                        opened = true;
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            l += 1;
        }
        for flag in test.iter_mut().take((l + 1).min(masked.len())).skip(start) {
            *flag = true;
        }
    }
    test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked_all(src: &str) -> Vec<String> {
        let s = scan(src);
        (0..s.lines.len()).map(|l| s.masked(l)).collect()
    }

    #[test]
    fn masks_comments_and_strings() {
        let m = masked_all("let x = \"unwrap()\"; // unwrap()\nx.unwrap();\n");
        assert_eq!(m[0].trim_end(), "let x =           ;");
        assert_eq!(m[1], "x.unwrap();");
    }

    #[test]
    fn masks_raw_strings_with_guards() {
        let m = masked_all("let s = r#\"a \"quoted\" panic!()\"#;\n");
        assert!(!m[0].contains("panic"));
        assert!(m[0].contains("let s ="));
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = masked_all("a /* outer /* inner */ still */ b\n");
        assert_eq!(m[0].trim_end().chars().next(), Some('a'));
        assert!(m[0].contains('b'));
        assert!(!m[0].contains("inner"));
        assert!(!m[0].contains("still"));
    }

    #[test]
    fn lifetimes_are_code_char_literals_are_not() {
        let m = masked_all("fn f<'a>(x: &'a str) { let c = '{'; }\n");
        assert!(m[0].contains("<'a>"));
        assert!(!m[0].contains("'{'"), "char literal payload must be blanked: {}", m[0]);
    }

    #[test]
    fn byte_literals() {
        let m = masked_all("let b = b\"bytes\"; let c = b'x';\n");
        assert!(!m[0].contains("bytes"));
        assert!(!m[0].contains('x'));
    }

    #[test]
    fn finds_test_regions() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let s = scan(src);
        assert!(!s.in_test(0));
        assert!(s.in_test(1));
        assert!(s.in_test(2));
        assert!(s.in_test(3));
        assert!(s.in_test(4));
        assert!(!s.in_test(5));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let m = masked_all("let r#type = 1; let hdr = 2;\n");
        assert!(m[0].contains("r#type"));
        assert!(m[0].contains("hdr"));
    }
}
