//! The source-level half of `fsdm-check`: one walker over
//! `crates/*/src` and the `concurrency` pass over what it reads.

use std::path::Path;

use crate::lex::{scan, Scan};
use crate::{checks, facts, Finding, Report};

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

/// Run the `concurrency` analysis over `sources`; findings come back in
/// (site, line, column, code) order.
pub fn check_sources(sources: &[Source]) -> Report {
    let files: Vec<facts::FileFacts> = sources.iter().map(facts::extract).collect();
    let mut findings: Vec<Finding> = checks::run(&files);
    findings.sort_by(|a, b| {
        (&a.site, a.line, a.diagnostic.span.start, a.diagnostic.code).cmp(&(
            &b.site,
            b.line,
            b.diagnostic.span.start,
            b.diagnostic.code,
        ))
    });
    Report { findings, checked: sources.len(), ..Report::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_workspace_sources_and_they_are_clean() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let sources = read_sources(root).expect("the workspace is readable");
        for expected in ["crates/oson/src/wire.rs", checks::EXECUTOR_FILE] {
            assert!(sources.iter().any(|s| s.path == expected), "{expected} must be walked");
        }
        let report = check_sources(&sources);
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        assert_eq!(report.checked, sources.len());
    }
}
