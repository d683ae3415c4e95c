//! The SQL/JSON path language: AST and parser.
//!
//! Supported grammar (lax mode by default, as in Oracle):
//!
//! ```text
//! path      := mode? '$' step*
//! mode      := 'lax' | 'strict'
//! step      := '.' name | '.' '"' any '"' | '.*'
//!            | '[' selector (',' selector)* ']' | '[*]'
//!            | '?(' predicate ')'
//!            | '.' method '()'
//! selector  := index | index 'to' index
//! index     := uint | 'last' | 'last' '-' uint
//! predicate := pred '||' pred | pred '&&' pred | '!' '(' pred ')'
//!            | '(' pred ')' | 'exists' '(' relpath ')'
//!            | operand cmp operand | operand 'starts' 'with' operand
//! operand   := relpath | literal
//! relpath   := '@' step*
//! cmp       := '==' | '!=' | '<' | '<=' | '>' | '>='
//! method    := type|size|length|number|string|upper|lower|abs|ceiling|floor|double
//! ```
//!
//! Every field name reference — in ordinary steps *and* inside filter
//! predicates — is hashed at parse time with the shared
//! [`fsdm_json::field_hash`], implementing the §4.2.1 optimization of
//! storing pre-computed hash ids in the compiled execution plan.

use std::fmt;

use fsdm_json::{field_hash, JsonNumber, JsonValue};

/// A half-open byte range into a source text. Shared position type of
/// the path parser and the `fsdm-analyze` diagnostics layer, so both
/// report locations the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered (`start == end` for a
    /// point span).
    pub end: usize,
}

impl Span {
    /// Span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end: end.max(start) }
    }

    /// Zero-width span at `offset`.
    pub fn point(offset: usize) -> Span {
        Span { start: offset, end: offset }
    }

    /// The covered slice of `source`, clamped to char boundaries so a
    /// span that lands inside a multi-byte character never slices out
    /// of bounds or panics.
    pub fn slice<'a>(&self, source: &'a str) -> &'a str {
        let start = floor_char_boundary(source, self.start);
        let end = ceil_char_boundary(source, self.end.max(self.start));
        source.get(start..end).unwrap_or_default()
    }
}

fn floor_char_boundary(s: &str, offset: usize) -> usize {
    let mut i = offset.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn ceil_char_boundary(s: &str, offset: usize) -> usize {
    let mut i = offset.min(s.len());
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

/// A short char-boundary-safe excerpt of `source` around byte `offset`,
/// for rendered messages.
pub fn snippet_at(source: &str, offset: usize) -> String {
    const WINDOW: usize = 12;
    let mid = floor_char_boundary(source, offset);
    let start = floor_char_boundary(source, mid.saturating_sub(WINDOW));
    let end = ceil_char_boundary(source, mid.saturating_add(WINDOW));
    let mut out = String::new();
    if start > 0 {
        out.push('…');
    }
    out.push_str(source.get(start..end).unwrap_or_default());
    if end < source.len() {
        out.push('…');
    }
    out
}

/// Path parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// Description of the failure.
    pub message: String,
    /// Location of the failure in the path text.
    pub span: Span,
    /// Excerpt of the path text around the failure.
    pub snippet: String,
}

impl PathError {
    /// Build an error pointing at byte `offset` of `source`, capturing
    /// the offending snippet.
    pub fn at(message: &str, source: &str, offset: usize) -> PathError {
        PathError {
            message: message.to_string(),
            span: Span::point(offset.min(source.len())),
            snippet: snippet_at(source, offset),
        }
    }

    /// Byte offset of the failure (start of [`PathError::span`]).
    pub fn offset(&self) -> usize {
        self.span.start
    }
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path error at {}: {}", self.span.start, self.message)?;
        if !self.snippet.is_empty() {
            write!(f, " (near `{}`)", self.snippet)?;
        }
        Ok(())
    }
}

impl std::error::Error for PathError {}

/// Evaluation mode. Lax (the default) wraps/unwraps arrays implicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Implicit array unwrapping/wrapping; structural errors yield empty.
    #[default]
    Lax,
    /// Structural mismatches yield empty results (no implicit unwrap).
    Strict,
}

/// An array index expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexExpr {
    /// 0-based absolute position.
    At(usize),
    /// `last - n` (n = 0 for `last`).
    FromLast(usize),
}

impl IndexExpr {
    /// Resolve against an array length; `None` when out of range.
    pub fn resolve(&self, len: usize) -> Option<usize> {
        match self {
            IndexExpr::At(i) => (*i < len).then_some(*i),
            IndexExpr::FromLast(back) => len.checked_sub(back + 1),
        }
    }
}

/// One `[…]` selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArraySel {
    /// Single element.
    Index(IndexExpr),
    /// Inclusive range `a to b`.
    Range(IndexExpr, IndexExpr),
}

/// Item methods applicable as a final path step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// JSON type name ("object", "array", "string", "number", "boolean",
    /// "null").
    Type,
    /// Container size (1 for scalars, object member count, array length).
    Size,
    /// String length.
    Length,
    /// Convert to number.
    Number,
    /// Convert to string.
    StringM,
    /// Uppercase a string.
    Upper,
    /// Lowercase a string.
    Lower,
    /// Absolute value.
    Abs,
    /// Ceiling.
    Ceiling,
    /// Floor.
    Floor,
    /// Convert to IEEE double.
    Double,
}

impl Method {
    /// Method name as written in path text.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Type => "type",
            Method::Size => "size",
            Method::Length => "length",
            Method::Number => "number",
            Method::StringM => "string",
            Method::Upper => "upper",
            Method::Lower => "lower",
            Method::Abs => "abs",
            Method::Ceiling => "ceiling",
            Method::Floor => "floor",
            Method::Double => "double",
        }
    }
}

/// One step of a compiled path.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `.name` — the hash is pre-computed at compile time.
    Field {
        /// Member name.
        name: String,
        /// `field_hash(name)`, computed once at parse.
        hash: u32,
    },
    /// `.*`
    FieldWildcard,
    /// `[sel, sel, …]`
    Array(Vec<ArraySel>),
    /// `[*]`
    ArrayWildcard,
    /// `?( … )`
    Filter(Predicate),
    /// `.method()` — only valid as the final step.
    Method(Method),
}

/// A comparison operator inside a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `starts with`
    StartsWith,
    /// `has substring`
    HasSubstring,
}

/// A filter operand: a relative path or a scalar literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// `@.…` relative to the filter's context item.
    Path(Vec<Step>),
    /// Scalar literal.
    Lit(JsonValue),
}

/// A filter predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Comparison with SQL/JSON existential semantics.
    Cmp(Operand, CmpOp, Operand),
    /// `exists(@.…)`.
    Exists(Vec<Step>),
}

/// A compiled SQL/JSON path.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonPath {
    /// Evaluation mode.
    pub mode: Mode,
    /// Compiled steps.
    pub steps: Vec<Step>,
    step_spans: Vec<Span>,
    text: String,
}

impl JsonPath {
    /// The original path text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Source location of top-level step `i` within [`JsonPath::text`].
    /// Parsing records one span per step; out-of-range indexes yield an
    /// empty span.
    pub fn step_span(&self, i: usize) -> Span {
        self.step_spans.get(i).copied().unwrap_or_default()
    }

    /// How many leading steps the streaming engine answers over text
    /// events (§5.1): field steps, `.*`, `[*]` and array selectors of
    /// absolute indexes in ascending, disjoint order — each of which
    /// yields document order — and, in lax mode, a final filter whose
    /// predicate only compares `@` with literals, tested on each item's
    /// token. Any other filter, an item method, a
    /// `last` selector or an out-of-order selector list ends the prefix;
    /// the rest of the path runs on the DOM of each item the prefix
    /// selects.
    pub fn streamable_prefix(&self) -> usize {
        let n = self.steps.iter().position(|s| !streams(s)).unwrap_or(self.steps.len());
        n + usize::from(n + 1 == self.steps.len() && self.token_filter().is_some())
    }

    /// The steps a text pass streams over text known to be well formed
    /// (`checked`, an `IS JSON` column's) or not: the streamable prefix,
    /// less a final token filter over unchecked text, which the DOM
    /// engine runs there — unchecked text is the oracle the token filter
    /// is held to.
    pub fn text_prefix(&self, checked: bool) -> usize {
        let n = self.streamable_prefix();
        let filter_ends =
            n == self.steps.len() && matches!(self.steps.last(), Some(Step::Filter(_)));
        n - usize::from(!checked && filter_ends)
    }

    /// The predicate of a final lax filter built only from `&&`, `||`,
    /// `!` and comparisons whose operands are `@` or literals. Such a
    /// filter streams as `[*]` — lax, that is one array level unwrapped or
    /// a non-array wrapped, as the filter itself unwraps — with the
    /// predicate tested on each item: a scalar item decides it from its
    /// token alone, since `@` is all the predicate reads.
    fn token_filter(&self) -> Option<&Predicate> {
        match self.steps.last() {
            Some(Step::Filter(pred)) if self.mode == Mode::Lax && reads_only_the_item(pred) => {
                Some(pred)
            }
            _ => None,
        }
    }

    /// Steps `from..` as a path of their own, in this path's mode: the
    /// suffix a streamed prefix hands to the DOM engine.
    pub fn suffix(&self, from: usize) -> JsonPath {
        let from = from.min(self.steps.len());
        let start = self.step_span(from).start;
        let mode = if self.mode == Mode::Strict { "strict " } else { "" };
        let rest =
            if from < self.steps.len() { self.text.get(start..).unwrap_or_default() } else { "" };
        let text = format!("{mode}${rest}");
        // spans move with the text: `start` becomes the byte after `$`
        let base = text.len() - rest.len();
        let rebase = |sp: &Span| Span::new(sp.start - start + base, sp.end - start + base);
        JsonPath {
            mode: self.mode,
            steps: self.steps.get(from..).unwrap_or_default().to_vec(),
            step_spans: self
                .step_spans
                .get(from..)
                .unwrap_or_default()
                .iter()
                .map(rebase)
                .collect(),
            text,
        }
    }

    /// The source text of steps `..to` (`$` for none): how diagnostics
    /// name a streamed prefix.
    pub fn prefix_text(&self, to: usize) -> String {
        let end = if to == 0 { 0 } else { self.step_span(to - 1).end };
        let start = self.step_span(0).start;
        format!("${}", self.text.get(start..end.max(start)).unwrap_or_default())
    }

    /// Field names referenced by top-level steps, in order (used by the
    /// DataGuide's view generator).
    pub fn field_names(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Field { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for JsonPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Whether one step streams (see [`JsonPath::streamable_prefix`]).
fn streams(step: &Step) -> bool {
    match step {
        Step::Field { .. } | Step::FieldWildcard | Step::ArrayWildcard => true,
        Step::Array(sels) => {
            let mut next = 0; // the lowest index the next selector may start at
            sels.iter().all(|s| {
                let (lo, hi) = match *s {
                    ArraySel::Index(IndexExpr::At(i)) => (i, i),
                    ArraySel::Range(IndexExpr::At(a), IndexExpr::At(b)) => (a, b),
                    _ => return false,
                };
                let ok = lo >= next && lo <= hi;
                next = hi.saturating_add(1);
                ok
            })
        }
        Step::Filter(_) | Step::Method(_) => false,
    }
}

/// True when `pred` is built only from `&&`, `||`, `!` and comparisons
/// whose operands are `@` itself or literals.
fn reads_only_the_item(pred: &Predicate) -> bool {
    match pred {
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            reads_only_the_item(a) && reads_only_the_item(b)
        }
        Predicate::Not(p) => reads_only_the_item(p),
        Predicate::Cmp(lhs, _, rhs) => [lhs, rhs]
            .iter()
            .all(|o| matches!(o, Operand::Lit(_)) || matches!(o, Operand::Path(s) if s.is_empty())),
        Predicate::Exists(_) => false,
    }
}

/// Parse a SQL/JSON path expression.
pub fn parse_path(text: &str) -> Result<JsonPath, PathError> {
    let mut p = P { b: text.as_bytes(), i: 0 };
    p.ws();
    let mode = if p.eat_kw("lax") {
        Mode::Lax
    } else if p.eat_kw("strict") {
        Mode::Strict
    } else {
        Mode::Lax
    };
    p.ws();
    if !p.eat(b'$') {
        return Err(p.err("path must start with '$'"));
    }
    let (steps, step_spans) = p.steps_spanned()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters in path"));
    }
    // methods may only appear last
    for (i, s) in steps.iter().enumerate() {
        if matches!(s, Step::Method(_)) && i + 1 != steps.len() {
            return Err(PathError::at(
                "item method must be the final step",
                text,
                step_spans.get(i).map(|sp| sp.start).unwrap_or(text.len()),
            ));
        }
    }
    Ok(JsonPath { mode, steps, step_spans, text: text.to_string() })
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn err(&self, m: &str) -> PathError {
        PathError::at(m, std::str::from_utf8(self.b).unwrap_or_default(), self.i)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        let k = kw.as_bytes();
        if self.b[self.i..].starts_with(k) {
            let after = self.b.get(self.i + k.len());
            let boundary = match after {
                None => true,
                Some(c) => !c.is_ascii_alphanumeric() && *c != b'_',
            };
            if boundary {
                self.i += k.len();
                return true;
            }
        }
        false
    }

    fn steps(&mut self) -> Result<Vec<Step>, PathError> {
        Ok(self.steps_spanned()?.0)
    }

    /// Parse a step sequence, recording the source span of each step.
    fn steps_spanned(&mut self) -> Result<(Vec<Step>, Vec<Span>), PathError> {
        let mut steps = Vec::new();
        let mut spans = Vec::new();
        loop {
            self.ws();
            let start = self.i;
            match self.one_step()? {
                Some(step) => {
                    steps.push(step);
                    spans.push(Span::new(start, self.i));
                }
                None => break,
            }
        }
        Ok((steps, spans))
    }

    /// Parse one step, or `None` when the next byte starts no step.
    fn one_step(&mut self) -> Result<Option<Step>, PathError> {
        match self.peek() {
            Some(b'.') => {
                self.i += 1;
                if self.eat(b'*') {
                    return Ok(Some(Step::FieldWildcard));
                }
                let name = self.name()?;
                // method call?
                if self.peek() == Some(b'(') {
                    self.i += 1;
                    self.ws();
                    if !self.eat(b')') {
                        return Err(self.err("expected ')' after method"));
                    }
                    let m = match name.as_str() {
                        "type" => Method::Type,
                        "size" => Method::Size,
                        "length" => Method::Length,
                        "number" => Method::Number,
                        "string" => Method::StringM,
                        "upper" => Method::Upper,
                        "lower" => Method::Lower,
                        "abs" => Method::Abs,
                        "ceiling" => Method::Ceiling,
                        "floor" => Method::Floor,
                        "double" => Method::Double,
                        _ => return Err(self.err("unknown item method")),
                    };
                    return Ok(Some(Step::Method(m)));
                }
                let hash = field_hash(&name);
                Ok(Some(Step::Field { name, hash }))
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.eat(b'*') {
                    self.ws();
                    if !self.eat(b']') {
                        return Err(self.err("expected ']'"));
                    }
                    return Ok(Some(Step::ArrayWildcard));
                }
                let mut sels = Vec::new();
                loop {
                    self.ws();
                    let a = self.index_expr()?;
                    self.ws();
                    if self.eat_kw("to") {
                        self.ws();
                        let b = self.index_expr()?;
                        sels.push(ArraySel::Range(a, b));
                    } else {
                        sels.push(ArraySel::Index(a));
                    }
                    self.ws();
                    if self.eat(b',') {
                        continue;
                    }
                    if self.eat(b']') {
                        break;
                    }
                    return Err(self.err("expected ',' or ']'"));
                }
                Ok(Some(Step::Array(sels)))
            }
            Some(b'?') => {
                self.i += 1;
                self.ws();
                if !self.eat(b'(') {
                    return Err(self.err("expected '(' after '?'"));
                }
                let pred = self.pred_or()?;
                self.ws();
                if !self.eat(b')') {
                    return Err(self.err("expected ')' closing filter"));
                }
                Ok(Some(Step::Filter(pred)))
            }
            _ => Ok(None),
        }
    }

    fn name(&mut self) -> Result<String, PathError> {
        self.ws();
        if self.eat(b'"') {
            let start = self.i;
            while let Some(c) = self.peek() {
                if c == b'"' {
                    let s = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("invalid UTF-8 in name"))?
                        .to_string();
                    self.i += 1;
                    return Ok(s);
                }
                self.i += 1;
            }
            return Err(self.err("unterminated quoted name"));
        }
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' || c >= 0x80 {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            return Err(self.err("expected field name"));
        }
        Ok(std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| self.err("invalid UTF-8 in name"))?
            .to_string())
    }

    fn index_expr(&mut self) -> Result<IndexExpr, PathError> {
        if self.eat_kw("last") {
            self.ws();
            if self.eat(b'-') {
                self.ws();
                let n = self.uint()?;
                return Ok(IndexExpr::FromLast(n));
            }
            return Ok(IndexExpr::FromLast(0));
        }
        Ok(IndexExpr::At(self.uint()?))
    }

    fn uint(&mut self) -> Result<usize, PathError> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected integer"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .unwrap()
            .parse()
            .map_err(|_| self.err("integer out of range"))
    }

    fn pred_or(&mut self) -> Result<Predicate, PathError> {
        let mut lhs = self.pred_and()?;
        loop {
            self.ws();
            if self.b[self.i..].starts_with(b"||") {
                self.i += 2;
                let rhs = self.pred_and()?;
                lhs = Predicate::Or(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn pred_and(&mut self) -> Result<Predicate, PathError> {
        let mut lhs = self.pred_unary()?;
        loop {
            self.ws();
            if self.b[self.i..].starts_with(b"&&") {
                self.i += 2;
                let rhs = self.pred_unary()?;
                lhs = Predicate::And(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn pred_unary(&mut self) -> Result<Predicate, PathError> {
        self.ws();
        if self.eat(b'!') {
            self.ws();
            if !self.eat(b'(') {
                return Err(self.err("expected '(' after '!'"));
            }
            let inner = self.pred_or()?;
            self.ws();
            if !self.eat(b')') {
                return Err(self.err("expected ')'"));
            }
            return Ok(Predicate::Not(Box::new(inner)));
        }
        if self.eat_kw("exists") {
            self.ws();
            if !self.eat(b'(') {
                return Err(self.err("expected '(' after exists"));
            }
            self.ws();
            if !self.eat(b'@') {
                return Err(self.err("exists path must start with '@'"));
            }
            let steps = self.steps()?;
            self.ws();
            if !self.eat(b')') {
                return Err(self.err("expected ')'"));
            }
            return Ok(Predicate::Exists(steps));
        }
        if self.peek() == Some(b'(') {
            // could be a parenthesized predicate
            let save = self.i;
            self.i += 1;
            if let Ok(inner) = self.pred_or() {
                self.ws();
                if self.eat(b')') {
                    return Ok(inner);
                }
            }
            self.i = save;
        }
        // comparison
        let lhs = self.operand()?;
        self.ws();
        let op = if self.b[self.i..].starts_with(b"==") {
            self.i += 2;
            CmpOp::Eq
        } else if self.b[self.i..].starts_with(b"!=") || self.b[self.i..].starts_with(b"<>") {
            self.i += 2;
            CmpOp::Ne
        } else if self.b[self.i..].starts_with(b"<=") {
            self.i += 2;
            CmpOp::Le
        } else if self.b[self.i..].starts_with(b">=") {
            self.i += 2;
            CmpOp::Ge
        } else if self.eat(b'<') {
            CmpOp::Lt
        } else if self.eat(b'>') {
            CmpOp::Gt
        } else if self.eat_kw("starts") {
            self.ws();
            if !self.eat_kw("with") {
                return Err(self.err("expected 'with' after 'starts'"));
            }
            CmpOp::StartsWith
        } else if self.eat_kw("has") {
            self.ws();
            if !self.eat_kw("substring") {
                return Err(self.err("expected 'substring' after 'has'"));
            }
            CmpOp::HasSubstring
        } else {
            return Err(self.err("expected comparison operator"));
        };
        let rhs = self.operand()?;
        Ok(Predicate::Cmp(lhs, op, rhs))
    }

    fn operand(&mut self) -> Result<Operand, PathError> {
        self.ws();
        match self.peek() {
            Some(b'@') => {
                self.i += 1;
                Ok(Operand::Path(self.steps()?))
            }
            Some(b'\'') | Some(b'"') => {
                let quote = self.peek().unwrap();
                self.i += 1;
                let start = self.i;
                while let Some(c) = self.peek() {
                    if c == quote {
                        let s = std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| self.err("invalid UTF-8"))?
                            .to_string();
                        self.i += 1;
                        return Ok(Operand::Lit(JsonValue::String(s)));
                    }
                    self.i += 1;
                }
                Err(self.err("unterminated string literal"))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                if c == b'-' {
                    self.i += 1;
                }
                while matches!(self.peek(), Some(d) if d.is_ascii_digit() || d == b'.' || d == b'e' || d == b'E' || d == b'+' || d == b'-')
                {
                    self.i += 1;
                }
                let lit = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                let n = JsonNumber::from_literal(lit)
                    .map_err(|_| self.err("invalid numeric literal"))?;
                Ok(Operand::Lit(JsonValue::Number(n)))
            }
            _ if self.eat_kw("true") => Ok(Operand::Lit(JsonValue::Bool(true))),
            _ if self.eat_kw("false") => Ok(Operand::Lit(JsonValue::Bool(false))),
            _ if self.eat_kw("null") => Ok(Operand::Lit(JsonValue::Null)),
            _ => Err(self.err("expected operand")),
        }
    }
}

/// Escape a field name for path text (quotes names that are not simple
/// identifiers). Used by the DataGuide when synthesizing paths.
pub fn path_step_text(name: &str) -> String {
    let simple = !name.is_empty()
        && name.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$')
        && !name.as_bytes()[0].is_ascii_digit();
    if simple {
        format!(".{name}")
    } else {
        format!(".\"{}\"", name.replace('"', ""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_paths() {
        let p = parse_path("$.purchaseOrder.items").unwrap();
        assert_eq!(p.mode, Mode::Lax);
        assert_eq!(p.steps.len(), 2);
        assert!(matches!(&p.steps[0], Step::Field { name, hash }
            if name == "purchaseOrder" && *hash == field_hash("purchaseOrder")));
        assert_eq!(p.streamable_prefix(), 2);
    }

    #[test]
    fn the_streamable_prefix_ends_at_the_first_step_needing_a_dom() {
        let prefix = |t: &str| parse_path(t).unwrap().streamable_prefix();
        assert_eq!(prefix("$.a.*[*][0, 2 to 3].b"), 5);
        assert_eq!(prefix("$"), 0);
        assert_eq!(prefix("$?(@.a > 1).b"), 0);
        assert_eq!(prefix("$.a.size()"), 1);
        assert_eq!(prefix("$.a[last].b"), 1);
        assert_eq!(prefix("$.a[1 to last]"), 1);
        // selectors out of order or overlapping repeat or reorder items
        assert_eq!(prefix("$.a[2, 0]"), 1);
        assert_eq!(prefix("$.a[0 to 2, 1]"), 1);
        assert_eq!(prefix("$.a[0, 0]"), 1);
        assert_eq!(prefix("$.a[3 to 1]"), 1);
        // a final lax filter on `@` and literals streams; no other does
        assert_eq!(prefix("$.a?(@ == \"b\" || !(@ starts with \"a\") && 1 < @)"), 2);
        assert_eq!(prefix("$?(@ == 1)"), 1);
        assert_eq!(prefix("strict $.a?(@ == 1)"), 1);
        assert_eq!(prefix("$.a?(@ == 1).b"), 1);
        assert_eq!(prefix("$.a?(@.b == 1)"), 1);
        assert_eq!(prefix("$.a?(exists(@))"), 1);
        assert_eq!(prefix("$.a?(@.size() >= 2)"), 1);
        assert_eq!(prefix("$.a[last]?(@ == 1)"), 1);
        // over unchecked text the DOM engine runs a token filter
        let text = |t: &str, checked| parse_path(t).unwrap().text_prefix(checked);
        assert_eq!((text("$.a?(@ == 1)", true), text("$.a?(@ == 1)", false)), (2, 1));
        assert_eq!((text("$?(@ == 1)", true), text("$?(@ == 1)", false)), (1, 0));
        assert_eq!((text("$.a?(@.b == 1)", true), text("$.a?(@.b == 1)", false)), (1, 1));
        assert_eq!((text("$.a[*]", true), text("$.a[*]", false)), (2, 2));
    }

    #[test]
    fn a_suffix_is_a_path_of_its_own() {
        let text = "strict $.items[*]?(@.price > 1).size()";
        let p = parse_path(text).unwrap();
        assert_eq!(p.prefix_text(2), "$.items[*]");
        assert_eq!(p.prefix_text(0), "$");
        let s = p.suffix(2);
        assert_eq!(s.text(), "strict $?(@.price > 1).size()");
        assert_eq!(s.mode, Mode::Strict);
        assert_eq!(s.steps, p.steps[2..]);
        assert_eq!(s.step_span(0).slice(s.text()), "?(@.price > 1)");
        assert_eq!(s.step_span(1).slice(s.text()), ".size()");
        assert_eq!(parse_path(s.text()).unwrap().steps, s.steps);
        assert_eq!(p.suffix(4).text(), "strict $");
        assert!(p.suffix(9).steps.is_empty());
    }

    #[test]
    fn parses_modes() {
        assert_eq!(parse_path("strict $.a").unwrap().mode, Mode::Strict);
        assert_eq!(parse_path("lax $.a").unwrap().mode, Mode::Lax);
    }

    #[test]
    fn parses_array_selectors() {
        let p = parse_path("$.items[0,2,4 to 6,last,last-2]").unwrap();
        match &p.steps[1] {
            Step::Array(sels) => {
                assert_eq!(sels.len(), 5);
                assert_eq!(sels[0], ArraySel::Index(IndexExpr::At(0)));
                assert_eq!(sels[2], ArraySel::Range(IndexExpr::At(4), IndexExpr::At(6)));
                assert_eq!(sels[3], ArraySel::Index(IndexExpr::FromLast(0)));
                assert_eq!(sels[4], ArraySel::Index(IndexExpr::FromLast(2)));
            }
            other => panic!("expected array step, got {other:?}"),
        }
    }

    #[test]
    fn parses_wildcards() {
        let p = parse_path("$.a[*].*").unwrap();
        assert!(matches!(p.steps[1], Step::ArrayWildcard));
        assert!(matches!(p.steps[2], Step::FieldWildcard));
    }

    #[test]
    fn parses_filters() {
        let p = parse_path(r#"$.items[*]?(@.price > 100 && @.name == 'phone')"#).unwrap();
        match &p.steps[2] {
            Step::Filter(Predicate::And(l, r)) => {
                assert!(matches!(**l, Predicate::Cmp(_, CmpOp::Gt, _)));
                assert!(matches!(**r, Predicate::Cmp(_, CmpOp::Eq, _)));
            }
            other => panic!("expected filter, got {other:?}"),
        }
        assert_eq!(p.streamable_prefix(), 2, "the filter ends the prefix");
    }

    #[test]
    fn parses_exists_and_not() {
        let p = parse_path(r#"$?(exists(@.a) || !(@.b == 1))"#).unwrap();
        match &p.steps[0] {
            Step::Filter(Predicate::Or(l, r)) => {
                assert!(matches!(**l, Predicate::Exists(_)));
                assert!(matches!(**r, Predicate::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_methods() {
        let p = parse_path("$.a.type()").unwrap();
        assert!(matches!(p.steps[1], Step::Method(Method::Type)));
        assert!(parse_path("$.type().a").is_err(), "method must be last");
    }

    #[test]
    fn parses_quoted_names() {
        let p = parse_path(r#"$."foreign id"."x""#).unwrap();
        assert!(matches!(&p.steps[0], Step::Field { name, .. } if name == "foreign id"));
    }

    #[test]
    fn parses_starts_with() {
        let p = parse_path(r#"$.items[*]?(@.name starts with 'ph')"#).unwrap();
        match &p.steps[2] {
            Step::Filter(Predicate::Cmp(_, CmpOp::StartsWith, _)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_expr_resolution() {
        assert_eq!(IndexExpr::At(2).resolve(5), Some(2));
        assert_eq!(IndexExpr::At(5).resolve(5), None);
        assert_eq!(IndexExpr::FromLast(0).resolve(5), Some(4));
        assert_eq!(IndexExpr::FromLast(2).resolve(5), Some(2));
        assert_eq!(IndexExpr::FromLast(5).resolve(5), None);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "a.b",
            "$.",
            "$[",
            "$[1",
            "$[1 to]",
            "$?(",
            "$?(@.a ==)",
            "$?(@.a)",
            "$.a b",
            "$.unknown()",
        ] {
            assert!(parse_path(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_roundtrip_text() {
        let text = "$.purchaseOrder.items[*].price";
        assert_eq!(parse_path(text).unwrap().to_string(), text);
    }

    #[test]
    fn step_spans_cover_source_text() {
        let text = "$.purchaseOrder.items[*]?(@.price > 1)";
        let p = parse_path(text).unwrap();
        assert_eq!(p.step_span(0).slice(text), ".purchaseOrder");
        assert_eq!(p.step_span(1).slice(text), ".items");
        assert_eq!(p.step_span(2).slice(text), "[*]");
        assert_eq!(p.step_span(3).slice(text), "?(@.price > 1)");
        assert_eq!(p.step_span(99), Span::default(), "out of range is empty");
    }

    #[test]
    fn errors_carry_span_and_snippet() {
        let e = parse_path("$.items[1 to]").unwrap_err();
        assert_eq!(e.offset(), e.span.start);
        assert!(e.snippet.contains("to]"), "snippet {:?}", e.snippet);
        let rendered = e.to_string();
        assert!(rendered.contains("near"), "{rendered}");
        // a method misplacement points at the offending step
        let e = parse_path("$.a.type().b").unwrap_err();
        assert_eq!(e.span.start, 3);
        assert!(e.snippet.contains("type()"), "snippet {:?}", e.snippet);
    }

    #[test]
    fn multi_byte_offsets_stay_on_char_boundaries() {
        for bad in ["$.héllo[", "$.日本.", "$.a?(@.日本 ==)", "$.\"日 本", "$.x?(@ == '日本"]
        {
            let e = parse_path(bad).unwrap_err();
            assert!(
                bad.is_char_boundary(e.span.start),
                "offset {} of {bad:?} is inside a char",
                e.span.start
            );
            // snippet extraction must not panic or split a char
            assert!(e.snippet.chars().count() <= 26, "snippet {:?}", e.snippet);
        }
        let text = "$.日本[0]";
        let p = parse_path(text).unwrap();
        assert_eq!(p.step_span(0).slice(text), ".日本");
        assert_eq!(p.step_span(1).slice(text), "[0]");
    }

    #[test]
    fn span_slice_is_boundary_safe() {
        let s = "aé日b";
        // deliberately mid-char offsets
        assert_eq!(Span::new(2, 4).slice(s), "é日");
        assert_eq!(Span::new(1, 2).slice(s), "é");
        assert_eq!(Span::new(0, 100).slice(s), s);
        assert_eq!(Span::point(4).slice(s), "日", "mid-char point widens to the char");
        assert_eq!(Span::point(6).slice(s), "");
        assert_eq!(snippet_at("é", 1), "é");
    }

    #[test]
    fn step_text_quoting() {
        assert_eq!(path_step_text("abc"), ".abc");
        assert_eq!(path_step_text("foreign id"), ".\"foreign id\"");
        assert_eq!(path_step_text("9lives"), ".\"9lives\"");
    }
}
