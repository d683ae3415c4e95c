//! The analysis itself: walking a compiled [`JsonPath`] in lockstep with
//! the collection's [`DataGuide`] and reporting FA001–FA007 findings.
//!
//! The walk mirrors how [`fsdm_dataguide::GuideNode::observe`] records
//! documents: field steps descend `children`, array steps stay at the
//! same node (array elements contribute to the node itself), filters and
//! methods never move. A field step that matches no child of any
//! reachable node therefore proves the path empty over every ingested
//! document — the FA001 criterion, which is also what the optimizer's
//! dead-predicate pruning relies on.

use std::collections::BTreeSet;

use fsdm_dataguide::{DataGuide, GuideNode, ScalarKind};
use fsdm_json::JsonValue;
use fsdm_obs::catalog::metric;
use fsdm_sqljson::path::{path_step_text, CmpOp, Method, Mode, Operand, Predicate, Span, Step};
use fsdm_sqljson::JsonPath;

use crate::diag::{Code, Diagnostic, Severity};

/// Knobs of one analysis run, usually derived from the target table.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Paths occurring in fewer than this percentage of documents get
    /// FA005 (and are excluded from FA007). Mirrors the `add_vc`
    /// `min_frequency_pct` argument.
    pub vc_frequency_pct: i64,
    /// The column is stored as JSON text, so a path with steps past its
    /// streamable prefix (FA006) parses each item the prefix selects.
    pub text_storage: bool,
    /// The text is an `IS JSON` column's, so a text pass also streams a
    /// final lax filter comparing `@` with literals
    /// ([`JsonPath::text_prefix`]).
    pub checked_text: bool,
    /// Normalized texts of paths already materialized as virtual
    /// columns (suppresses FA007).
    pub materialized_vc_paths: BTreeSet<String>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            vc_frequency_pct: 10,
            text_storage: false,
            checked_text: false,
            materialized_vc_paths: BTreeSet::new(),
        }
    }
}

/// The canonical text of a plain field-chain path (`$.a."b c"`), the
/// form `add_vc` synthesizes. `None` when the path has any non-field
/// step.
pub fn normalized_field_path(path: &JsonPath) -> Option<String> {
    let mut out = String::from("$");
    for s in &path.steps {
        match s {
            Step::Field { name, .. } => out.push_str(&path_step_text(name)),
            _ => return None,
        }
    }
    Some(out)
}

/// True when evaluating `path` over every document the guide observed
/// provably yields no items: some field step names a child no ingested
/// document has (the FA001 criterion). Never true for an empty guide.
pub fn path_provably_empty(guide: &DataGuide, path: &JsonPath) -> bool {
    if guide.doc_count == 0 {
        return false;
    }
    advance_all(&[&guide.root], &path.steps).is_none()
}

/// Check one compiled path against the guide. An empty guide yields no
/// findings (nothing is known about the collection yet).
pub fn analyze_path(guide: &DataGuide, path: &JsonPath, cfg: &AnalyzerConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if guide.doc_count == 0 {
        return diags;
    }
    metric::ANALYZE_PATHS_CHECKED.inc();
    let text = path.text();
    let whole = Span::new(0, text.len());
    let mut nodes: Vec<&GuideNode> = vec![&guide.root];
    let mut prev_was_array = false;
    for (i, step) in path.steps.iter().enumerate() {
        let span = path.step_span(i);
        match step {
            Step::Field { name, .. } => {
                if path.mode == Mode::Strict
                    && !prev_was_array
                    && nodes.iter().any(|n| n.array.seen())
                {
                    diags.push(
                        Diagnostic::new(
                            Code::MissingArrayStep,
                            span,
                            text,
                            format!(
                                "strict mode does not unwrap arrays, and `{name}` is reached \
                                 through a path observed as an array"
                            ),
                        )
                        .with_help("insert [*] before the field step, or use lax mode"),
                    );
                }
                match advance(&nodes, step) {
                    Some(next) => nodes = next,
                    None => {
                        diags.push(
                            Diagnostic::new(
                                Code::UnknownPath,
                                span,
                                text,
                                format!("no ingested document has field `{name}` here"),
                            )
                            .with_help(
                                "check the field name against the DataGuide ($DG rows) — \
                                 the path can never match",
                            ),
                        );
                        count(&diags);
                        return diags;
                    }
                }
                prev_was_array = false;
            }
            Step::FieldWildcard => {
                match advance(&nodes, step) {
                    Some(next) => nodes = next,
                    None => {
                        diags.push(
                            Diagnostic::new(
                                Code::UnknownPath,
                                span,
                                text,
                                "no ingested document has object members here".to_string(),
                            )
                            .with_help("the .* step can never yield items"),
                        );
                        count(&diags);
                        return diags;
                    }
                }
                prev_was_array = false;
            }
            Step::Array(_) | Step::ArrayWildcard => {
                if !nodes.iter().any(|n| n.array.seen() || n.scalars.any_under_array()) {
                    diags.push(
                        Diagnostic::new(
                            Code::MissingArrayStep,
                            span,
                            text,
                            "array step over a path never observed as an array".to_string(),
                        )
                        .with_help(
                            "lax mode wraps the scalar, so this may still match one item — \
                             drop the array step or check the ingested shape",
                        ),
                    );
                }
                prev_was_array = true;
            }
            Step::Filter(pred) => {
                let before = diags.len();
                let truth = check_pred(pred, &nodes, span, text, &mut diags);
                let explained = diags[before..].iter().any(|d| d.code == Code::DeadPredicate);
                match truth {
                    Tri::True if !explained => diags.push(
                        Diagnostic::new(
                            Code::DeadPredicate,
                            span,
                            text,
                            "filter is always true for every ingested document".to_string(),
                        )
                        .with_help("remove the filter"),
                    ),
                    Tri::False if !explained => diags.push(
                        Diagnostic::new(
                            Code::DeadPredicate,
                            span,
                            text,
                            "filter can never match any ingested document".to_string(),
                        )
                        .with_help("the predicate constant-folds to false against the DataGuide"),
                    ),
                    _ => {}
                }
            }
            Step::Method(m) => {
                check_method(*m, &nodes, span, text, &mut diags);
            }
        }
    }

    // frequencies are relative to the walked sample: collections loaded
    // through the structure-signature fast path only re-walk novel
    // structures, so `doc_count` overstates the per-node denominators
    let freq = nodes.iter().map(|n| n.frequency_pct(guide.sampled_docs())).max().unwrap_or(0);
    if freq < cfg.vc_frequency_pct {
        diags.push(
            Diagnostic::new(
                Code::LowFrequencyPath,
                whole,
                text,
                format!(
                    "path occurs in only ~{freq}% of documents (add_vc threshold is {}%)",
                    cfg.vc_frequency_pct
                ),
            )
            .with_help("guard the query with JSON_EXISTS to skip the documents without it"),
        );
    } else if let Some(canon) = normalized_field_path(path) {
        let singleton = nodes.iter().any(|n| n.is_singleton_scalar());
        if singleton && !path.steps.is_empty() && !cfg.materialized_vc_paths.contains(&canon) {
            diags.push(
                Diagnostic::new(
                    Code::VcCandidate,
                    whole,
                    text,
                    format!("singleton scalar path `{canon}` is not materialized"),
                )
                .with_help("add_vc would expose it as a virtual column (paper §3.3.1)"),
            );
        }
    }
    let streamed = path.text_prefix(cfg.checked_text);
    if cfg.text_storage && streamed < path.steps.len() {
        let prefix = path.prefix_text(streamed);
        let what =
            if streamed == 0 { "the whole document".to_string() } else { format!("`{prefix}`") };
        diags.push(
            Diagnostic::new(
                Code::UnstreamablePath,
                path.step_span(streamed),
                text,
                format!(
                    "TEXT storage streams `{prefix}` only: each item it selects ({what}) is \
                     captured and parsed to evaluate the rest"
                ),
            )
            .with_help(
                "field steps, `.*`, `[*]`, ascending absolute indexes and, over an `IS JSON` \
                 column, a final lax filter comparing `@` with literals stream (paper §5.1); \
                 any other filter, an item method or `last` needs a DOM — or store the \
                 collection as OSON",
            ),
        );
    }
    count(&diags);
    diags
}

/// Record the per-severity diagnostic counters.
fn count(diags: &[Diagnostic]) {
    for d in diags {
        match d.severity {
            Severity::Error => metric::ANALYZE_DIAG_ERRORS.inc(),
            Severity::Warning => metric::ANALYZE_DIAG_WARNINGS.inc(),
            Severity::Info => metric::ANALYZE_DIAG_INFOS.inc(),
        }
    }
}

/// Move one step through the guide. `None` means provably empty: a
/// field step that matches no child of any reachable node.
fn advance<'g>(nodes: &[&'g GuideNode], step: &Step) -> Option<Vec<&'g GuideNode>> {
    match step {
        Step::Field { name, .. } => {
            let next: Vec<&GuideNode> = nodes.iter().filter_map(|n| n.child(name)).collect();
            if next.is_empty() {
                None
            } else {
                Some(next)
            }
        }
        Step::FieldWildcard => {
            let next: Vec<&GuideNode> = nodes.iter().flat_map(|n| n.children.values()).collect();
            if next.is_empty() {
                None
            } else {
                Some(next)
            }
        }
        // array elements live at the same guide node; filters and
        // methods never move
        Step::Array(_) | Step::ArrayWildcard | Step::Filter(_) | Step::Method(_) => {
            Some(nodes.to_vec())
        }
    }
}

/// [`advance`] over a whole step sequence.
fn advance_all<'g>(nodes: &[&'g GuideNode], steps: &[Step]) -> Option<Vec<&'g GuideNode>> {
    let mut cur = nodes.to_vec();
    for s in steps {
        cur = advance(&cur, s)?;
    }
    Some(cur)
}

/// Three-valued outcome of folding a predicate against the guide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Unknown,
    True,
    False,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }
}

fn check_pred(
    pred: &Predicate,
    nodes: &[&GuideNode],
    span: Span,
    text: &str,
    diags: &mut Vec<Diagnostic>,
) -> Tri {
    match pred {
        Predicate::And(l, r) => {
            let a = check_pred(l, nodes, span, text, diags);
            let b = check_pred(r, nodes, span, text, diags);
            match (a, b) {
                (Tri::False, _) | (_, Tri::False) => Tri::False,
                (Tri::True, Tri::True) => Tri::True,
                _ => Tri::Unknown,
            }
        }
        Predicate::Or(l, r) => {
            let a = check_pred(l, nodes, span, text, diags);
            let b = check_pred(r, nodes, span, text, diags);
            match (a, b) {
                (Tri::True, _) | (_, Tri::True) => Tri::True,
                (Tri::False, Tri::False) => Tri::False,
                _ => Tri::Unknown,
            }
        }
        Predicate::Not(inner) => check_pred(inner, nodes, span, text, diags).not(),
        Predicate::Exists(steps) => {
            if advance_all(nodes, steps).is_none() {
                diags.push(
                    Diagnostic::new(
                        Code::DeadPredicate,
                        span,
                        text,
                        format!(
                            "exists(@{}) is false for every ingested document",
                            steps_text(steps)
                        ),
                    )
                    .with_help("the relative path names a field no document has"),
                );
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Predicate::Cmp(lhs, op, rhs) => check_cmp(lhs, *op, rhs, nodes, span, text, diags),
    }
}

fn check_cmp(
    lhs: &Operand,
    op: CmpOp,
    rhs: &Operand,
    nodes: &[&GuideNode],
    span: Span,
    text: &str,
    diags: &mut Vec<Diagnostic>,
) -> Tri {
    // resolve path operands; a dead operand makes the comparison dead
    for side in [lhs, rhs] {
        if let Operand::Path(steps) = side {
            if advance_all(nodes, steps).is_none() {
                diags.push(
                    Diagnostic::new(
                        Code::DeadPredicate,
                        span,
                        text,
                        format!(
                            "comparison operand @{} never occurs in any ingested document",
                            steps_text(steps)
                        ),
                    )
                    .with_help("an empty operand makes the comparison false for every row"),
                );
                return Tri::False;
            }
        }
    }
    match (lhs, rhs) {
        (Operand::Lit(a), Operand::Lit(b)) => match fold_cmp(a, op, b) {
            Some(v) => {
                diags.push(
                    Diagnostic::new(
                        Code::DeadPredicate,
                        span,
                        text,
                        format!("comparison of two constants is always {v}"),
                    )
                    .with_help("replace the comparison with its constant value"),
                );
                if v {
                    Tri::True
                } else {
                    Tri::False
                }
            }
            None => Tri::Unknown,
        },
        (Operand::Path(steps), Operand::Lit(lit)) | (Operand::Lit(lit), Operand::Path(steps)) => {
            if let Some(resolved) = advance_all(nodes, steps) {
                check_lit_against_nodes(lit, op, &resolved, steps, span, text, diags);
            }
            Tri::Unknown
        }
        (Operand::Path(_), Operand::Path(_)) => Tri::Unknown,
    }
}

/// FA002: a literal whose kind was never observed at the operand path.
fn check_lit_against_nodes(
    lit: &JsonValue,
    op: CmpOp,
    resolved: &[&GuideNode],
    steps: &[Step],
    span: Span,
    text: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let observed: BTreeSet<ScalarKind> =
        resolved.iter().flat_map(|n| n.scalars.observed_kinds()).collect();
    let containers_only =
        observed.is_empty() && resolved.iter().any(|n| n.object.seen() || n.array.seen());
    if containers_only {
        diags.push(
            Diagnostic::new(
                Code::TypeMismatch,
                span,
                text,
                format!(
                    "@{} only ever holds containers, never a comparable scalar",
                    steps_text(steps)
                ),
            )
            .with_help("descend to a scalar field before comparing"),
        );
        return;
    }
    if observed.is_empty() {
        return;
    }
    let lit_kind = match lit {
        JsonValue::String(_) => ScalarKind::String,
        JsonValue::Number(_) => ScalarKind::Number,
        JsonValue::Bool(_) => ScalarKind::Boolean,
        JsonValue::Null => ScalarKind::Null,
        _ => return,
    };
    let string_op = matches!(op, CmpOp::StartsWith | CmpOp::HasSubstring);
    if string_op {
        if lit_kind != ScalarKind::String || !observed.contains(&ScalarKind::String) {
            diags.push(
                Diagnostic::new(
                    Code::TypeMismatch,
                    span,
                    text,
                    format!(
                        "string operator on @{} which only holds {}",
                        steps_text(steps),
                        kinds_text(&observed)
                    ),
                )
                .with_help("starts with / has substring require string operands"),
            );
        }
        return;
    }
    if !observed.contains(&lit_kind) {
        diags.push(
            Diagnostic::new(
                Code::TypeMismatch,
                span,
                text,
                format!(
                    "comparison with a {} literal, but @{} only holds {}",
                    lit_kind.name(),
                    steps_text(steps),
                    kinds_text(&observed)
                ),
            )
            .with_help("the comparison never matches any observed value kind"),
        );
    }
}

/// FA002 for item methods: the method's input kind was never observed.
fn check_method(
    m: Method,
    nodes: &[&GuideNode],
    span: Span,
    text: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let observed: BTreeSet<ScalarKind> =
        nodes.iter().flat_map(|n| n.scalars.observed_kinds()).collect();
    if observed.is_empty() {
        return;
    }
    let ok = match m {
        Method::Type | Method::Size | Method::StringM => true,
        Method::Number | Method::Abs | Method::Ceiling | Method::Floor | Method::Double => {
            observed.contains(&ScalarKind::Number) || observed.contains(&ScalarKind::String)
        }
        Method::Upper | Method::Lower | Method::Length => observed.contains(&ScalarKind::String),
    };
    if !ok {
        diags.push(
            Diagnostic::new(
                Code::TypeMismatch,
                span,
                text,
                format!(
                    ".{}() applied to a path that only holds {}",
                    m.name(),
                    kinds_text(&observed)
                ),
            )
            .with_help("the item method yields no value for any observed kind"),
        );
    }
}

/// Fold a literal-vs-literal comparison. `None` when the semantics are
/// not decidable here (kept conservative).
fn fold_cmp(a: &JsonValue, op: CmpOp, b: &JsonValue) -> Option<bool> {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (a, b) {
        (JsonValue::Number(x), JsonValue::Number(y)) => Some(x.total_cmp(y)),
        (JsonValue::String(x), JsonValue::String(y)) => Some(x.cmp(y)),
        (JsonValue::Bool(x), JsonValue::Bool(y)) => Some(x.cmp(y)),
        (JsonValue::Null, JsonValue::Null) => Some(Ordering::Equal),
        _ => None,
    };
    match op {
        CmpOp::Eq => Some(ord == Some(std::cmp::Ordering::Equal)),
        CmpOp::Ne => Some(ord != Some(std::cmp::Ordering::Equal)),
        CmpOp::Lt => Some(ord == Some(std::cmp::Ordering::Less)),
        CmpOp::Le => Some(matches!(ord, Some(o) if o != std::cmp::Ordering::Greater)),
        CmpOp::Gt => Some(ord == Some(std::cmp::Ordering::Greater)),
        CmpOp::Ge => Some(matches!(ord, Some(o) if o != std::cmp::Ordering::Less)),
        CmpOp::StartsWith => match (a, b) {
            (JsonValue::String(x), JsonValue::String(y)) => Some(x.starts_with(y.as_str())),
            _ => Some(false),
        },
        CmpOp::HasSubstring => match (a, b) {
            (JsonValue::String(x), JsonValue::String(y)) => Some(x.contains(y.as_str())),
            _ => Some(false),
        },
    }
}

/// Relative-path text for messages (`.a.b[*]` shapes; filters elided).
fn steps_text(steps: &[Step]) -> String {
    let mut out = String::new();
    for s in steps {
        match s {
            Step::Field { name, .. } => out.push_str(&path_step_text(name)),
            Step::FieldWildcard => out.push_str(".*"),
            Step::Array(_) => out.push_str("[..]"),
            Step::ArrayWildcard => out.push_str("[*]"),
            Step::Filter(_) => out.push_str("?(..)"),
            Step::Method(m) => {
                out.push('.');
                out.push_str(m.name());
                out.push_str("()");
            }
        }
    }
    out
}

fn kinds_text(kinds: &BTreeSet<ScalarKind>) -> String {
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    names.join("/")
}
