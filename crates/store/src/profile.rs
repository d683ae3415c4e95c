//! `EXPLAIN ANALYZE`-style query profiles.
//!
//! When a plan is executed through [`crate::Database::execute_profiled`],
//! every operator in the volcano tree reports its output cardinality and
//! inclusive wall time. The result is a [`QueryProfile`] mirroring the
//! plan shape, suitable for spotting where rows explode (JSON_TABLE
//! un-nesting) or where time goes (path evaluation vs. join vs. sort).

use std::fmt::Write as _;

use fsdm_analyze::Diagnostic;

/// One operator's measurements. `elapsed_ns` is *inclusive* of children,
/// matching the "actual time" convention of `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator label, e.g. `Scan(po)`, `JsonTable`, `GroupBy`.
    pub op: String,
    /// Rows emitted by this operator.
    pub rows_out: usize,
    /// Inclusive wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// Peak worker-thread count across this operator's own parallel
    /// pipelines (1 for serial operators; children report their own).
    pub workers: usize,
    /// Morsels this operator dispatched (0 for purely serial operators
    /// such as `Limit`).
    pub morsels: usize,
    /// Execution pipeline this operator ran on: `"columnar"` when it was
    /// part of a scan-rooted pipeline on the batch spine (kernels over
    /// resident and transient columns), `"row"` for the scratch-based
    /// row evaluator.
    pub mode: &'static str,
    /// Why, in the operator's own terms: `transient=[…]` names the path
    /// and heap columns a columnar operator extracted per morsel (absent
    /// when it read resident vectors only); `fallback=…` is the
    /// expression that kept a scan-rooted operator on the row evaluator.
    /// Empty for operators that consume rows by nature.
    pub note: String,
    /// Child operators in plan order.
    pub children: Vec<OpProfile>,
}

/// Profile of one executed query: the operator tree rooted at the plan's
/// top operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// The root operator (its `elapsed_ns` is the whole query's time).
    pub root: OpProfile,
    /// Prepare-time semantic findings (`fsdm-analyze` FA path codes and
    /// `typecheck` PK plan codes) for the statement this profile
    /// measures. Empty when the executing surface has no analyzer hook
    /// (plan-level execution) or found nothing.
    pub diagnostics: Vec<Diagnostic>,
}

impl QueryProfile {
    /// Wrap a measured operator tree with no diagnostics attached.
    pub fn new(root: OpProfile) -> QueryProfile {
        QueryProfile { root, diagnostics: Vec::new() }
    }
    /// Total inclusive wall time of the query in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.root.elapsed_ns
    }

    /// Depth-first search for the first operator whose label starts with
    /// `prefix` (labels carry arguments, e.g. `Scan(po)`).
    pub fn find(&self, prefix: &str) -> Option<&OpProfile> {
        fn dfs<'a>(op: &'a OpProfile, prefix: &str) -> Option<&'a OpProfile> {
            if op.op.starts_with(prefix) {
                return Some(op);
            }
            op.children.iter().find_map(|c| dfs(c, prefix))
        }
        dfs(&self.root, prefix)
    }

    /// All operators in pre-order (root first).
    pub fn ops(&self) -> Vec<&OpProfile> {
        fn walk<'a>(op: &'a OpProfile, out: &mut Vec<&'a OpProfile>) {
            out.push(op);
            for c in &op.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Sum of `morsels` across every operator — the number of
    /// `exec.morsel` spans a trace of this execution contains.
    pub fn total_morsels(&self) -> usize {
        self.ops().iter().map(|o| o.morsels).sum()
    }

    /// Hand-rolled JSON rendering of the operator tree (plus diagnostics
    /// as rendered strings), for slow-query-log dumps and tooling.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        fn walk(op: &OpProfile, out: &mut String) {
            let _ = write!(
                out,
                "{{\"op\":\"{}\",\"rows_out\":{},\"elapsed_ns\":{},\"workers\":{},\
                 \"morsels\":{},\"mode\":\"{}\",\"note\":\"{}\",\"children\":[",
                esc(&op.op),
                op.rows_out,
                op.elapsed_ns,
                op.workers,
                op.morsels,
                op.mode,
                esc(&op.note)
            );
            for (i, c) in op.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                walk(c, out);
            }
            out.push_str("]}");
        }
        let mut out = String::from("{\"root\":");
        walk(&self.root, &mut out);
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(&d.to_string()));
        }
        out.push_str("]}");
        out
    }

    /// Indented plan-tree rendering:
    ///
    /// ```text
    /// Project  rows=2  time=0.41ms
    ///   Filter  rows=2  time=0.38ms
    ///     Scan(po)  rows=3  time=0.29ms
    /// ```
    pub fn render(&self) -> String {
        fn walk(op: &OpProfile, depth: usize, out: &mut String) {
            // the parallel annotation appears only when the operator
            // actually ran on more than one worker, so serial plans render
            // exactly as before
            let par = if op.workers > 1 {
                format!("  workers={}  morsels={}", op.workers, op.morsels)
            } else {
                String::new()
            };
            // like the parallel annotation, the pipeline mode and its
            // note only show when they depart from the default, so plain
            // row plans render exactly as before
            let mode = if op.mode == "columnar" { "  mode=columnar" } else { "" };
            let note = if op.note.is_empty() { String::new() } else { format!("  {}", op.note) };
            let _ = writeln!(
                out,
                "{:indent$}{}  rows={}  time={:.2}ms{par}{mode}{note}",
                "",
                op.op,
                op.rows_out,
                op.elapsed_ns as f64 / 1e6,
                indent = depth * 2
            );
            for c in &op.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.root, 0, &mut out);
        if !self.diagnostics.is_empty() {
            out.push_str("diagnostics:\n");
            for d in &self.diagnostics {
                for line in d.to_string().lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        QueryProfile::new(OpProfile {
            op: "Project".into(),
            rows_out: 2,
            elapsed_ns: 2_000_000,
            workers: 1,
            morsels: 1,
            mode: "row",
            note: String::new(),
            children: vec![OpProfile {
                op: "Scan(po)".into(),
                rows_out: 3,
                elapsed_ns: 1_500_000,
                workers: 1,
                morsels: 1,
                mode: "row",
                note: String::new(),
                children: vec![],
            }],
        })
    }

    #[test]
    fn render_annotates_parallel_operators() {
        let mut p = sample();
        p.root.workers = 4;
        p.root.morsels = 16;
        let text = p.render();
        assert!(text.contains("Project  rows=2  time=2.00ms  workers=4  morsels=16"), "{text}");
        assert!(
            text.contains("\n  Scan(po)  rows=3  time=1.50ms\n"),
            "serial child unchanged: {text}"
        );
    }

    #[test]
    fn render_annotates_columnar_operators() {
        let mut p = sample();
        p.root.mode = "columnar";
        let text = p.render();
        assert!(text.contains("Project  rows=2  time=2.00ms  mode=columnar"), "{text}");
        assert!(text.contains("\n  Scan(po)  rows=3  time=1.50ms\n"), "row child plain: {text}");
        assert!(p.to_json().contains("\"mode\":\"columnar\""), "{}", p.to_json());
    }

    #[test]
    fn render_appends_the_operator_note() {
        let mut p = sample();
        p.root.mode = "columnar";
        p.root.note = "transient=[JSON_EXISTS(col#1, '$.a')]".into();
        p.root.children[0].note = "fallback=col#0 LIKE \"x%\"".into();
        let text = p.render();
        assert!(text.contains("mode=columnar  transient=[JSON_EXISTS(col#1, '$.a')]"), "{text}");
        assert!(text.contains("Scan(po)  rows=3  time=1.50ms  fallback=col#0 LIKE"), "{text}");
        fsdm_json::parse(&p.to_json()).expect("notes are escaped into valid JSON");
    }

    #[test]
    fn find_and_ops() {
        let p = sample();
        assert_eq!(p.find("Scan").unwrap().rows_out, 3);
        assert!(p.find("HashJoin").is_none());
        let ops: Vec<&str> = p.ops().iter().map(|o| o.op.as_str()).collect();
        assert_eq!(ops, vec!["Project", "Scan(po)"]);
        assert_eq!(p.elapsed_ns(), 2_000_000);
    }

    #[test]
    fn render_indents_children() {
        let text = sample().render();
        assert!(text.contains("Project  rows=2"));
        assert!(text.contains("\n  Scan(po)  rows=3"), "{text}");
        assert!(!text.contains("diagnostics:"), "no findings, no section: {text}");
    }

    #[test]
    fn render_appends_diagnostics() {
        use fsdm_analyze::Code;
        use fsdm_sqljson::Span;
        let mut p = sample();
        p.diagnostics.push(Diagnostic::new(
            Code::UnknownPath,
            Span::new(1, 8),
            "$.persno",
            "no ingested document has field `persno`".to_string(),
        ));
        let text = p.render();
        assert!(text.contains("diagnostics:"), "{text}");
        let banner = format!("{} error [{}]", Code::UnknownPath.id(), Code::UnknownPath.slug());
        assert!(text.contains(&banner), "{text}");
    }
}
