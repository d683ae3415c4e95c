//! The diagnostics model: stable codes, severities, spans, and the text
//! renderer shared by the prepare-time hook, EXPLAIN and the statement
//! report.

use std::fmt;

use fsdm_sqljson::Span;

/// How bad a finding is. `Error` findings fail the workload's zero-error
/// budget (a tier-1 test); warnings and infos are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: a tuning or materialization opportunity.
    Info,
    /// Suspicious: the query almost certainly does not mean this.
    Warning,
    /// Provably wrong against the observed collection.
    Error,
}

impl Severity {
    /// Lowercase label the text renderer prints.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Declares [`Code`] from one table, so a code's variant, id, slug and
/// severity cannot drift apart and [`Code::ALL`] cannot miss a variant.
macro_rules! codes {
    ($($(#[$doc:meta])* $variant:ident = $id:literal, $slug:literal, $sev:ident;)*) => {
        /// The stable diagnostic codes. Numbering is append-only: codes
        /// are part of the CI contract and never renumbered. SR001–SR015
        /// and SN008 are retired (their rules moved into lints and types
        /// the build runs) and are never reused. The SN series is retired
        /// whole (SN001–SN007 moved into `fsdm_obs::lock`, clippy and
        /// tier-1 tests) and is never reused either.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Code {
            $($(#[$doc])* $variant,)*
        }

        impl Code {
            /// Every code, in registry order.
            pub const ALL: &'static [Code] = &[$(Code::$variant,)*];

            /// The stable `FAnnn`/`PKnnn` identifier.
            pub fn id(&self) -> &'static str {
                match self {
                    $(Code::$variant => $id,)*
                }
            }

            /// Kebab-case name, matching the issue-tracker vocabulary.
            pub fn slug(&self) -> &'static str {
                match self {
                    $(Code::$variant => $slug,)*
                }
            }

            /// Severity a finding of this code carries.
            pub fn severity(&self) -> Severity {
                match self {
                    $(Code::$variant => Severity::$sev,)*
                }
            }
        }
    };
}

codes! {
    /// The path names a field no ingested document has.
    UnknownPath = "FA001", "unknown-path", Error;
    /// A comparison or item method is inconsistent with every scalar
    /// kind observed at the path.
    TypeMismatch = "FA002", "type-mismatch", Warning;
    /// A filter predicate that constant-folds to true or false.
    DeadPredicate = "FA003", "dead-predicate", Warning;
    /// An array step over a path never observed as an array, or a
    /// strict-mode field step that would need an explicit `[*]`.
    MissingArrayStep = "FA004", "missing-array-step", Warning;
    /// The path occurs in fewer documents than the `add_vc` frequency
    /// threshold.
    LowFrequencyPath = "FA005", "low-frequency-path", Warning;
    /// The path has steps past `JsonPath::streamable_prefix`, so TEXT
    /// storage captures each item the prefix selects and parses it.
    UnstreamablePath = "FA006", "unstreamable-path", Info;
    /// A singleton-scalar path eligible for `add_vc` that is not
    /// materialized as a virtual column.
    VcCandidate = "FA007", "vc-candidate", Info;
    /// A plan expression references a column position outside its input
    /// schema, or a scan/view names a table/view that does not exist.
    UnknownColumn = "PK001", "unknown-column", Error;
    /// A predicate, aggregate argument, or join key whose operand types
    /// can never compare/compute under the executor's coercion rules.
    PlanTypeMismatch = "PK002", "plan-type-mismatch", Error;
    /// A comparison against an operand that is always SQL NULL, so the
    /// predicate can never be true under three-valued logic.
    NullComparison = "PK003", "null-comparison", Warning;
    /// Wrong scalar-function/aggregate arity, or duplicate output column
    /// names in a Project/GroupBy/Window schema.
    ArityMismatch = "PK004", "arity-or-duplicate", Error;
    /// A Sort or window ORDER BY key that does not pin an order (empty
    /// key list, constant key, or duplicated key expression).
    UnstableOrderKey = "PK005", "unstable-order-key", Warning;
    /// An optimizer rewrite changed the plan's inferred schema,
    /// nullability, determinism, or parallel-safety class, or failed the
    /// idempotence check.
    RewriteDivergence = "PK006", "rewrite-divergence", Error;
}

/// One finding of the semantic analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to `code.severity()`).
    pub severity: Severity,
    /// Location inside [`Diagnostic::path`] (the shared
    /// [`fsdm_sqljson::Span`] position type of the path parser).
    pub span: Span,
    /// Text of the path expression the finding is about.
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analyzer can tell.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a finding at `span` of `path` with the code's default
    /// severity.
    pub fn new(code: Code, span: Span, path: &str, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            path: path.to_string(),
            message,
            help: None,
        }
    }

    /// Attach a help suggestion.
    pub fn with_help(mut self, help: &str) -> Diagnostic {
        self.help = Some(help.to_string());
        self
    }

    /// The offending snippet of the path text, char-boundary safe.
    pub fn snippet(&self) -> &str {
        self.span.slice(&self.path)
    }
}

impl fmt::Display for Diagnostic {
    /// Compiler-style text rendering:
    ///
    /// ```text
    /// FA001 error [unknown-path]: no ingested document has field `persno` — $.persno (near `.persno`)
    ///   help: check the field name against the DataGuide
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {} — {}",
            self.code.id(),
            self.severity.label(),
            self.code.slug(),
            self.message,
            self.path
        )?;
        let near = self.snippet();
        if !near.is_empty() && near != self.path {
            write!(f, " (near `{near}`)")?;
        }
        if let Some(h) = &self.help {
            write!(f, "\n  help: {h}")?;
        }
        Ok(())
    }
}

/// Render a batch of findings as a text report, one finding per
/// paragraph, sorted most severe first (stable within a severity).
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let mut out = String::new();
    for d in sorted {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(
            Code::UnknownPath,
            Span::new(1, 8),
            "$.persno",
            "no ingested document has field `persno`".to_string(),
        )
        .with_help("check the field name against the DataGuide")
    }

    #[test]
    fn codes_are_stable() {
        let ids: Vec<&str> = Code::ALL.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            vec![
                "FA001", "FA002", "FA003", "FA004", "FA005", "FA006", "FA007", "PK001", "PK002",
                "PK003", "PK004", "PK005", "PK006",
            ]
        );
        for c in Code::ALL {
            assert!(c.slug().chars().all(|ch| ch.is_ascii_lowercase() || ch == '-'));
        }
        assert_eq!(Code::UnknownPath.severity(), Severity::Error);
        assert_eq!(Code::UnknownColumn.severity(), Severity::Error);
        assert!(Severity::Error > Severity::Warning && Severity::Warning > Severity::Info);
    }

    #[test]
    fn code_registry_has_no_duplicates_or_gaps() {
        // `Code::ALL` comes out of the same table as the enum, so no
        // variant can escape this check: each series is contiguous
        // from 001 (hence every id unique) and every slug is unique
        for series in ["FA", "PK"] {
            let mut nums: Vec<u32> = Code::ALL
                .iter()
                .map(|c| c.id())
                .filter(|id| id.starts_with(series))
                .filter_map(|id| id[2..].parse().ok())
                .collect();
            nums.sort_unstable();
            let expect: Vec<u32> = (1..=nums.len() as u32).collect();
            assert_eq!(nums, expect, "{series} series must be contiguous from 001");
        }
        assert!(Code::ALL.iter().all(|c| c.id().len() == 5), "ids are two letters + three digits");
        assert!(Code::ALL.iter().all(|c| !c.id().starts_with("SN")), "the SN series is retired");
        let mut slugs: Vec<&str> = Code::ALL.iter().map(|c| c.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), Code::ALL.len(), "slugs must be unique");
    }

    #[test]
    fn text_rendering_has_code_path_and_help() {
        let text = sample().to_string();
        assert!(text.starts_with("FA001 error [unknown-path]:"), "{text}");
        assert!(text.contains("$.persno"), "{text}");
        assert!(text.contains("near `.persno`"), "{text}");
        assert!(text.contains("help: check the field name"), "{text}");
    }

    #[test]
    fn batch_text_sorts_errors_first() {
        let info = Diagnostic::new(Code::VcCandidate, Span::point(0), "$.a", "vc".to_string());
        let err = sample();
        let text = render_text(&[info, err]);
        let first = text.lines().next().unwrap_or_default();
        assert!(first.starts_with("FA001"), "{text}");
    }
}
