//! The benchmark's own span recorder. Spans wrap the calls the benchmark
//! makes into the engine's public functions; spans inside the engine are a
//! later change. Everything stays in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one operation share its id.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder: the benchmark runs one client.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover. `spans` may be any suffix of a recorder's list;
/// a child whose parent lies before the slice counts toward no parent.
pub fn self_times_ns(spans: &[Span], first_index: usize) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first_index)) {
            covered[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.op
        )
        .expect("write to String");
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("plan", 5, 25, Some(0)),
            span("exec", 30, 90, Some(0)),
            span("kernel", 40, 70, Some(2)),
        ];
        let t = self_times_ns(&spans, 0);
        assert_eq!(t["op"], 100 - 20 - 60);
        assert_eq!(t["plan"], 20);
        assert_eq!(t["exec"], 60 - 30);
        assert_eq!(t["kernel"], 30);
        // self times partition the root's duration
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_of_a_suffix_ignores_earlier_parents() {
        let spans = [
            span("op", 0, 50, None),
            span("exec", 10, 40, Some(0)),
            span("op", 60, 100, None),
            span("exec", 70, 95, Some(2)),
        ];
        let t = self_times_ns(&spans[2..], 2);
        assert_eq!(t["op"], 40 - 25);
        assert_eq!(t["exec"], 25);
        let t = self_times_ns(&spans[1..], 1);
        assert_eq!(t["exec"], 30 + 25, "the first exec's parent is outside the slice");
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut r = Recorder::default();
        r.next_op();
        r.span("op", |r| {
            r.span("plan", |_| ());
            r.span("exec", |r| r.span("kernel", |_| ()));
        });
        r.next_op();
        r.span("op", |_| ());
        let s = r.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "plan", "exec", "kernel", "op"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2), None]
        );
        assert_eq!(s.iter().map(|s| s.op).collect::<Vec<_>>(), [1, 1, 1, 1, 2]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns && s[0].start_ns <= s[1].start_ns);
        let json = to_json(s);
        assert_eq!(fsdm_json::parse(&json).expect("valid").as_array().map(|a| a.len()), Some(5));
    }
}
