//! The source-level half of `fsdm-check`: one walker over
//! `crates/*/src`, one pass that runs the selected rule sets (the `src`
//! token rules, the `concurrency` analysis, or both), and the one
//! allow-annotation mechanism that filters their findings.

use std::path::Path;

use fsdm_analyze::{Code, Diagnostic};
use fsdm_sqljson::Span;

use crate::lex::{scan, Scan};
use crate::{checks, facts, rules, Finding, Report, ALLOW_BUDGET, CONCURRENCY, SRC};

/// Files where allow annotations are forbidden entirely: the wire
/// decoders, where a suppressed panic is a crash on hostile bytes, and
/// the morsel executor, where a suppressed lock finding is a deadlock.
pub const NO_ALLOW_FILES: &[&str] =
    &["crates/oson/src/wire.rs", "crates/bson/src/decode.rs", "crates/store/src/parallel.rs"];

/// One workspace source file, scanned once for every rule that reads it.
pub struct Source {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// The file's text.
    pub text: String,
    /// Its comment/string classification.
    pub scan: Scan,
}

impl Source {
    /// Classify `text` as the file at `path`.
    pub fn new(path: &str, text: &str) -> Source {
        Source { path: path.to_string(), text: text.to_string(), scan: scan(text) }
    }

    /// A finding covering one whole source line (`line` is 0-based).
    pub fn finding(&self, line: usize, code: Code, message: String) -> Finding {
        let text = self.text.lines().nth(line).unwrap_or("");
        let diagnostic = Diagnostic::new(code, Span::new(0, text.len()), text, message);
        Finding { site: self.path.clone(), line: line + 1, diagnostic }
    }
}

/// Every `.rs` file under `<root>/crates/*/src`, sorted by path for
/// deterministic reports. Integration tests (`tests/`) are excluded:
/// they run under the test profile where panics and ad-hoc threads are
/// the point.
pub fn read_sources(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        collect_rs(&entry?.path().join("src"), &mut paths)?;
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(p).components();
            let rel: Vec<_> = rel.map(|c| c.as_os_str().to_string_lossy()).collect();
            Ok(Source::new(&rel.join("/"), &std::fs::read_to_string(p)?))
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// An allow annotation parsed from a line comment.
struct Allow<'a> {
    src: &'a Source,
    /// 0-based line of the comment.
    line: usize,
    code: Code,
    used: bool,
}

const BAD_ALLOW: &str = "malformed annotation or unknown rule; expected \
                         `fsdm-check: allow(<slug>) -- <reason>`";

/// Run the rule sets named by `series` ([`SRC`], [`CONCURRENCY`]) over
/// `sources` and filter their findings through the allow annotations.
/// An allow naming a rule of a series that is not running is left alone.
pub fn check_sources(sources: &[Source], series: &[&str]) -> Report {
    let selected = |code: Code| series.iter().any(|s| code.id().starts_with(s));
    let mut raw: Vec<Finding> = Vec::new();
    if series.contains(&SRC) {
        for src in sources {
            rules::check_file(src, &mut raw);
        }
        rules::check_catalog(sources, &mut raw);
    }
    if series.contains(&CONCURRENCY) {
        let files: Vec<facts::FileFacts> = sources.iter().map(facts::extract).collect();
        raw.extend(checks::run(&files));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    for src in sources {
        for (line, text) in &src.scan.comments {
            // doc comments (`///`, `//!`) may *mention* annotations as
            // prose; only plain `//` comments carry live ones
            if text.starts_with('/') || text.starts_with('!') {
                continue;
            }
            let Some((_, rest)) = text.split_once("fsdm-check:") else { continue };
            let parsed = rest.trim_start().strip_prefix("allow(").and_then(|r| {
                let (slug, tail) = r.split_once(')')?;
                let reason = tail.trim_start().strip_prefix("--")?.trim();
                let code = Code::ALL.iter().copied().find(|c| c.slug() == slug.trim())?;
                (!reason.is_empty()).then_some(code)
            });
            match parsed {
                // a malformed annotation names no rule, so the `src`
                // pass, which owns the SR series, reports it
                None if !selected(Code::BadAllow) => {}
                None => findings.push(src.finding(*line, Code::BadAllow, BAD_ALLOW.to_string())),
                Some(code) if !selected(code) => {}
                Some(code) if NO_ALLOW_FILES.contains(&src.path.as_str()) => {
                    findings.push(src.finding(
                        *line,
                        Code::AllowForbidden,
                        format!(
                            "allow({}) is forbidden in {}; fix the code instead",
                            code.slug(),
                            src.path
                        ),
                    ));
                }
                Some(code) => allows.push(Allow { src, line: *line, code, used: false }),
            }
        }
    }

    // an allow on the finding's line or the line directly above
    // suppresses it (and is thereby "used")
    for f in raw {
        let allow = allows.iter_mut().find(|a| {
            a.src.path == f.site
                && a.code == f.diagnostic.code
                && (a.line + 1 == f.line || a.line + 2 == f.line)
        });
        match allow {
            Some(a) => a.used = true,
            None => findings.push(f),
        }
    }
    let allows_used = allows.iter().filter(|a| a.used).count();
    for a in allows.iter().filter(|a| !a.used) {
        let message = format!("allow({}) suppresses nothing; remove it", a.code.slug());
        findings.push(a.src.finding(a.line, Code::UnusedAllow, message));
    }
    if allows_used > ALLOW_BUDGET {
        let message =
            format!("{allows_used} allow annotations in use exceed the budget of {ALLOW_BUDGET}");
        let diagnostic = Diagnostic::new(Code::AllowBudget, Span::point(0), "", message);
        findings.push(Finding { site: "crates".to_string(), line: 0, diagnostic });
    }
    findings.sort_by(|a, b| {
        (&a.site, a.line, a.diagnostic.span.start, a.diagnostic.code).cmp(&(
            &b.site,
            b.line,
            b.diagnostic.span.start,
            b.diagnostic.code,
        ))
    });
    Report { findings, allows_used, checked: sources.len(), ..Report::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/oson/src/doc.rs";

    fn run(rel: &str, src: &str) -> Report {
        check_sources(&[Source::new(rel, src)], &[SRC])
    }

    fn slugs(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.diagnostic.code.slug()).collect()
    }

    #[test]
    fn finds_workspace_sources_and_they_are_clean() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let sources = read_sources(root).expect("the workspace is readable");
        for expected in ["crates/oson/src/wire.rs", rules::CATALOG_FILE, checks::FAULT_CATALOG_FILE]
        {
            assert!(sources.iter().any(|s| s.path == expected), "{expected} must be walked");
        }
        let report = check_sources(&sources, &[SRC, CONCURRENCY]);
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        assert_eq!(report.checked, sources.len());
    }

    #[test]
    fn allow_suppresses_and_is_counted() {
        let src = "fn f(v: &[u8]) -> u8 {\n    \
                   // fsdm-check: allow(no-index) -- length checked by caller\n    v[0]\n}\n";
        let report = run(HOT, src);
        assert!(report.findings.is_empty(), "{}", report.render_text());
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// fsdm-check: allow(no-panic) -- stale\nfn f() {}\n";
        assert_eq!(slugs(&run(HOT, src)), vec!["unused-allow"]);
    }

    #[test]
    fn malformed_and_unknown_allows_are_errors() {
        let src = "// fsdm-check: allow(no-panic)\n// fsdm-check: allow(not-a-rule) -- typo\n\
                   fn f() {}\n";
        assert_eq!(slugs(&run(HOT, src)), vec!["bad-allow", "bad-allow"]);
    }

    #[test]
    fn allows_are_forbidden_in_the_critical_files() {
        let src = "fn f(v: &[u8]) -> u8 {\n    \
                   // fsdm-check: allow(no-index) -- nope\n    v[0]\n}\n";
        for file in NO_ALLOW_FILES {
            let report = check_sources(&[Source::new(file, src)], &[SRC, CONCURRENCY]);
            assert!(slugs(&report).contains(&"allow-forbidden"), "{}", report.render_text());
        }
        let wire = slugs(&run("crates/oson/src/wire.rs", src));
        assert!(wire.contains(&"no-index"), "the finding still fires: {wire:?}");
    }

    #[test]
    fn an_allow_for_a_series_that_is_not_running_is_left_alone() {
        let src =
            "// fsdm-check: allow(double-lock) -- judged by the concurrency pass\nfn f() {}\n";
        assert!(run(HOT, src).findings.is_empty());
        let both = check_sources(&[Source::new(HOT, src)], &[SRC, CONCURRENCY]);
        assert_eq!(slugs(&both), vec!["unused-allow"]);
    }
}
