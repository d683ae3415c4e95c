//! The statement report: what the engine decided for one statement and
//! what it cost.
//!
//! The executor always keeps it ([`crate::Database::run`]): every
//! operator of the plan reports its output cardinality, its inclusive wall
//! time, the pipeline it ran on and why, and the statement adds its
//! degree, optimize time, memory high-water, its own counts, trace and
//! prepare-time findings. The result is a [`QueryProfile`] mirroring the
//! plan shape, suitable for spotting where rows explode (JSON_TABLE
//! un-nesting) or where time goes (path evaluation vs. join vs. sort).

use std::fmt::Write as _;

use fsdm_analyze::Diagnostic;
use fsdm_json::ser::write_escaped;
use fsdm_obs::trace::Trace;

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
    /// Why, in the operator's own terms: on a pipeline's root,
    /// `transient=[…]` names the path and heap columns it extracted per
    /// morsel (absent when it read resident vectors only), `skip=[…]` each
    /// path whose OSON-IMC member list leaves members unopened, with the
    /// list's length, and `rowwise=[…]` the expressions no kernel
    /// expresses, evaluated row by row inside it; `expand=[…] of n` on a
    /// fused `JsonTable`. Empty on the row evaluator.
    pub note: String,
    /// Child operators in plan order.
    pub children: Vec<OpProfile>,
}

/// The report of one executed statement: a header of per-statement
/// facts over the operator tree rooted at the plan's top operator.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The SQL text, or the plan root's label when the statement bypassed
    /// the SQL layer.
    pub source: String,
    /// Parallel degree the statement ran with.
    pub degree: usize,
    /// Time spent in the optimizer, in nanoseconds (0 when it was skipped).
    pub optimize_ns: u64,
    /// High-water mark of the bytes this statement's operators charged to
    /// its own governor (limit or no limit).
    pub mem_highwater: u64,
    /// The root operator (its `elapsed_ns` is the execute time).
    pub root: OpProfile,
    /// The counters this statement moved, with its own counts, in catalog
    /// order: every thread that worked for it published into its tally
    /// alone (`fsdm_obs::publish`), so no concurrent statement's counts
    /// reach them, at any degree. Above degree 1 the look-back and
    /// dictionary counts follow which worker ran which morsel, since each
    /// worker's evaluator resolves a name once; every other count is the
    /// same at every degree.
    pub counts: Vec<(&'static str, u64)>,
    /// The span tree, when the statement ran traced.
    pub trace: Option<Trace>,
    /// Prepare-time semantic findings (`fsdm-analyze` FA path codes and
    /// `typecheck` PK plan codes) for the statement this report
    /// measures. Empty when the executing surface has no analyzer hook
    /// (plan-level execution) or found nothing.
    pub diagnostics: Vec<Diagnostic>,
}

impl QueryProfile {
    /// Inclusive wall time of the execution (optimize excluded) in
    /// nanoseconds.
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

    /// Hand-rolled JSON rendering of the report — the trace as its
    /// summary string, the diagnostics as rendered strings — for
    /// slow-query-log dumps and tooling.
    pub fn to_json(&self) -> String {
        fn walk(op: &OpProfile, out: &mut String) {
            out.push_str("{\"op\":");
            write_escaped(&op.op, out);
            let _ = write!(
                out,
                ",\"rows_out\":{},\"elapsed_ns\":{},\"workers\":{},\"morsels\":{},\
                 \"mode\":\"{}\",\"note\":",
                op.rows_out, op.elapsed_ns, op.workers, op.morsels, op.mode
            );
            write_escaped(&op.note, out);
            out.push_str(",\"children\":[");
            for (i, c) in op.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                walk(c, out);
            }
            out.push_str("]}");
        }
        let mut out = String::from("{\"source\":");
        write_escaped(&self.source, &mut out);
        let _ = write!(
            out,
            ",\"degree\":{},\"optimize_ns\":{},\"mem_highwater\":{},\"root\":",
            self.degree, self.optimize_ns, self.mem_highwater
        );
        walk(&self.root, &mut out);
        out.push_str(",\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(name, &mut out);
            let _ = write!(out, ":{n}");
        }
        out.push_str("},\"trace\":");
        match &self.trace {
            Some(t) => write_escaped(&t.summary(), &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&d.to_string(), &mut out);
        }
        out.push_str("]}");
        out
    }

    /// The header line, the indented plan tree, then the counts, the
    /// trace summary and the diagnostics when there are any:
    ///
    /// ```text
    /// degree=1  optimize=0.01ms  execute=0.41ms  mem_highwater=0B  source=select …
    /// Sort  rows=2  time=0.41ms  mode=row
    ///   Project  rows=2  time=0.38ms  mode=columnar  transient=[…]  rowwise=[…]
    ///     Filter  rows=2  time=0.37ms  mode=columnar
    ///       Scan(po)  rows=3  time=0.37ms  mode=columnar
    /// ```
    pub fn render(&self) -> String {
        fn walk(op: &OpProfile, depth: usize, out: &mut String) {
            // the parallel annotation appears only when the operator
            // actually ran on more than one worker
            let par = if op.workers > 1 {
                format!("  workers={}  morsels={}", op.workers, op.morsels)
            } else {
                String::new()
            };
            // the decision taken, as `Database::explain_modes` prints it
            let gap = if op.note.is_empty() { "" } else { "  " };
            let _ = writeln!(
                out,
                "{:indent$}{}  rows={}  time={:.2}ms{par}  mode={}{gap}{}",
                "",
                op.op,
                op.rows_out,
                op.elapsed_ns as f64 / 1e6,
                op.mode,
                op.note,
                indent = depth * 2
            );
            for c in &op.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = format!(
            "degree={}  optimize={:.2}ms  execute={:.2}ms  mem_highwater={}B  source={}\n",
            self.degree,
            self.optimize_ns as f64 / 1e6,
            self.root.elapsed_ns as f64 / 1e6,
            self.mem_highwater,
            self.source
        );
        walk(&self.root, 0, &mut out);
        if !self.counts.is_empty() {
            out.push_str("counts:");
            for (name, n) in &self.counts {
                let _ = write!(out, " {name}={n}");
            }
            out.push('\n');
        }
        if let Some(t) = &self.trace {
            let _ = writeln!(out, "trace: {}", t.summary());
        }
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
        let root = OpProfile {
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
        };
        QueryProfile {
            source: "select \"did\"\tfrom po".into(),
            degree: 4,
            optimize_ns: 250_000,
            mem_highwater: 96,
            root,
            counts: Vec::new(),
            trace: None,
            diagnostics: Vec::new(),
        }
    }

    #[test]
    fn render_annotates_parallel_operators() {
        let mut p = sample();
        p.root.workers = 4;
        p.root.morsels = 16;
        let text = p.render();
        assert!(text.contains("Project  rows=2  time=2.00ms  workers=4  morsels=16"), "{text}");
        assert!(text.contains("\n  Scan(po)  rows=3  time=1.50ms  mode=row\n"), "serial: {text}");
    }

    #[test]
    fn render_annotates_columnar_operators() {
        let mut p = sample();
        p.root.mode = "columnar";
        let text = p.render();
        assert!(text.contains("Project  rows=2  time=2.00ms  mode=columnar"), "{text}");
        assert!(text.contains("\n  Scan(po)  rows=3  time=1.50ms  mode=row\n"), "{text}");
        assert!(p.to_json().contains("\"mode\":\"columnar\""), "{}", p.to_json());
    }

    #[test]
    fn render_appends_the_operator_note() {
        let mut p = sample();
        p.root.mode = "columnar";
        p.root.note = "transient=[JSON_EXISTS(col#1, '$.a')]  rowwise=[col#0 LIKE \"x%\"]".into();
        let text = p.render();
        assert!(text.contains("mode=columnar  transient=[JSON_EXISTS(col#1, '$.a')]"), "{text}");
        assert!(text.contains("  rowwise=[col#0 LIKE \"x%\"]\n"), "{text}");
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
    fn the_header_line_carries_the_statement_facts() {
        let mut p = sample();
        let header = "degree=4  optimize=0.25ms  execute=2.00ms  mem_highwater=96B  \
                      source=select \"did\"\tfrom po\nProject";
        assert!(p.render().starts_with(header), "{}", p.render());
        assert!(!p.render().contains("trace:"), "untraced, no trace line");
        p.trace = Some(Trace::default());
        assert!(p.render().contains("\ntrace: spans=0 dropped=0 names[]\n"), "{}", p.render());
        let json = fsdm_json::parse(&p.to_json()).expect("the report re-parses");
        assert_eq!(json.get("source").and_then(|s| s.as_str()), Some(p.source.as_str()));
        assert_eq!(json.get("degree").and_then(|d| d.as_i64()), Some(4));
        assert_eq!(json.get("optimize_ns").and_then(|d| d.as_i64()), Some(250_000));
        assert_eq!(json.get("mem_highwater").and_then(|d| d.as_i64()), Some(96));
        assert_eq!(json.get("trace").and_then(|t| t.as_str()), Some("spans=0 dropped=0 names[]"));
        assert!(json.get("root").is_some_and(|r| r.get("children").is_some()));
    }

    #[test]
    fn the_counts_follow_the_tree() {
        let mut p = sample();
        assert!(!p.render().contains("counts:"), "no counts, no line");
        p.counts = vec![("oson.node.lookups", 12), ("sqljson.eval.paths", 3)];
        let text = p.render();
        assert!(text.contains("\ncounts: oson.node.lookups=12 sqljson.eval.paths=3\n"), "{text}");
        let json = fsdm_json::parse(&p.to_json()).expect("the report re-parses");
        let counts = json.get("counts").expect("a counts object");
        assert_eq!(counts.get("oson.node.lookups").and_then(|n| n.as_i64()), Some(12));
        assert_eq!(counts.get("sqljson.eval.paths").and_then(|n| n.as_i64()), Some(3));
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
