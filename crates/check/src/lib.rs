//! `fsdm-check`: the one verification tool of the workspace.
//!
//! Three passes guard what no compiler can see — lock and atomic
//! discipline across the workspace call graph, and the paper's
//! transparency claim (storage format, access path and execution
//! strategy must not change SQL/JSON semantics) over the workload — and
//! all three report through the same [`Finding`] and [`Report`]:
//!
//! | subcommand    | codes       | subject                                        |
//! |---------------|-------------|------------------------------------------------|
//! | `concurrency` | SN001–SN007 | lock/atomic/spawn discipline ([`checks`])      |
//! | `workload`    | FA001–FA007 | workload JSON paths vs. DataGuide ([`workload`]) |
//! | `plan`        | PK001–PK006 | workload plans + optimizer rewrites ([`workload`]) |
//!
//! `workload` and `plan` are two readings of one walk: each statement is
//! planned and checked once, and a series keeps its codes. The codes
//! live in the `fsdm_analyze::Code` registry. There is no waiver syntax:
//! source-level rules the type system or clippy can judge live in the
//! files they guard as lint attributes (waived with `#[expect(lint,
//! reason = "…")]`), and an SN finding is fixed, not suppressed.

pub mod checks;
pub mod facts;
pub mod lex;
pub mod source;
pub mod workload;

use fsdm_analyze::{json_str, Diagnostic, Severity};

/// Code series of the `concurrency` analysis; like the two below, it
/// names the pass in the `series` argument of the entry points.
pub const CONCURRENCY: &str = "SN";
/// Code series of the `workload` path lint.
pub const WORKLOAD: &str = "FA";
/// Code series of the `plan` type-check.
pub const PLAN: &str = "PK";

/// One reported problem — the shape every subcommand produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative source path (`concurrency`) or statement
    /// label such as `nobench:Q3` (`workload`, `plan`).
    pub site: String,
    /// 1-based source line; 0 for statement findings.
    pub line: usize,
    /// Code, severity, message, and the source line or path/plan text
    /// with the span inside it.
    pub diagnostic: Diagnostic,
}

/// The outcome of one run: of a single subcommand, or of several merged.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Which subcommand produced it.
    pub subcommand: String,
    /// Source findings in (site, line) order, statement findings in
    /// workload order.
    pub findings: Vec<Finding>,
    /// How many files, statements and plans were checked.
    pub checked: usize,
}

impl Report {
    fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.diagnostic.severity == severity).count()
    }

    /// Findings that fail the run (exit status 1).
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Advisory warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Advisory info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// Append another pass's outcome.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.checked += other.checked;
    }

    /// Compiler-style report: one paragraph per finding, then a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let d = &f.diagnostic;
            match f.line {
                0 => out.push_str(&format!("{}: {d}\n", f.site)),
                line => out.push_str(&format!("{}:{line}:{}: {d}\n", f.site, d.span.start + 1)),
            }
        }
        out.push_str(&format!(
            "fsdm-check {}: {} checked, {} error(s), {} warning(s), {} info(s)\n",
            self.subcommand,
            self.checked,
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }

    /// Machine-readable report, schema `fsdm-check-v2`.
    pub fn render_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "\n    {{\"site\": {}, \"line\": {}, \"diagnostic\": {}}}",
                    json_str(&f.site),
                    f.line,
                    f.diagnostic.render_json()
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"fsdm-check-v2\",\n  \"tool\": \"fsdm-check\",\n  \
             \"subcommand\": {},\n  \"errors\": {},\n  \"warnings\": {},\n  \"infos\": {},\n  \
             \"findings\": [{}\n  ]\n}}\n",
            json_str(&self.subcommand),
            self.errors(),
            self.warnings(),
            self.infos(),
            findings.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_analyze::Code;
    use fsdm_sqljson::Span;

    fn finding(site: &str, line: usize, code: Code) -> Finding {
        let diagnostic =
            Diagnostic::new(code, Span::new(4, 9), "let \"x\" = 1;", "odd".to_string());
        Finding { site: site.to_string(), line, diagnostic }
    }

    #[test]
    fn reports_merge_count_and_render_one_shape() {
        let mut report = Report { subcommand: "all".to_string(), ..Report::default() };
        report.merge(Report {
            findings: vec![finding("crates/x/src/lib.rs", 3, Code::DoubleLock)],
            checked: 2,
            ..Report::default()
        });
        report.merge(Report {
            findings: vec![
                finding("nobench:Q3", 0, Code::LowFrequencyPath),
                finding("olap:Q1", 0, Code::VcCandidate),
            ],
            checked: 5,
            ..Report::default()
        });
        assert_eq!((report.errors(), report.warnings(), report.infos()), (1, 1, 1));
        let text = report.render_text();
        let src_line =
            format!("crates/x/src/lib.rs:3:5: {} error [double-lock]", Code::DoubleLock.id());
        assert!(text.contains(&src_line), "{text}");
        assert!(text.contains("nobench:Q3: "), "{text}");
        assert!(text.ends_with("7 checked, 1 error(s), 1 warning(s), 1 info(s)\n"), "{text}");
        let json = report.render_json();
        assert!(fsdm_json::parse(&json).is_ok(), "the report must re-parse: {json}");
        assert!(json.contains("\"schema\": \"fsdm-check-v2\""), "{json}");
        assert!(json.contains("\"site\": \"crates/x/src/lib.rs\", \"line\": 3"), "{json}");
        assert!(json.contains("let \\\"x\\\" = 1;"), "{json}");
        // an empty report still renders valid JSON
        assert!(fsdm_json::parse(&Report::default().render_json()).is_ok());
    }
}
