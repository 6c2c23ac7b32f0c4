//! The harness's own span recorder: spans around calls into each layer's
//! public functions, kept in memory and written out when the run ends as
//! Chrome trace-event JSON plus a self-time table. Nothing inside the
//! product crates is touched.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval. `op` is the compile or request the span belongs
/// to, so all spans of one operation share an identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u32,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part of each span its children cover.
    pub self_ns: u64,
}

/// In-memory span store. Single-threaded by design: the traced runs are
/// serial replays and closed-loop clients.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Median recorded duration of a span around nothing, measured when
    /// the tracer is made: what the two clock reads add to every span,
    /// so sums of many short spans can be corrected for it.
    pub empty_span_ns: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        let mut tr = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            empty_span_ns: 0.0,
        };
        for _ in 0..2_000 {
            let id = tr.enter("empty", NO_PARENT, 0);
            tr.exit(id);
        }
        tr.empty_span_ns = crate::stats::median(&tr.durations("empty"));
        tr.spans.clear();
        tr
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the parent; overlapping or adjacent children are
/// merged, so nothing is subtracted twice).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The self-time table: for every span name, how often it ran, how long
/// in total, and how long outside its child spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let total = s.end_ns - s.start_ns;
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_ns += total;
        row.self_ns += total - covered_ns(s.start_ns, s.end_ns, kids);
    }
    table
}

/// Render the self-time table, widest total first.
pub fn render_self_times(table: &BTreeMap<&'static str, SelfTime>) -> String {
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.total_ns));
    let mut out = format!(
        "{:<28} {:>10} {:>14} {:>14} {:>12}\n",
        "span", "calls", "total_ms", "self_ms", "self_ns/call"
    );
    for (name, t) in rows {
        out += &format!(
            "{:<28} {:>10} {:>14.3} {:>14.3} {:>12.0}\n",
            name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / t.calls.max(1) as f64
        );
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the spans
/// whose operation id passes `keep` — a full compile workload records
/// about a million spans, far more than a viewer will load.
pub fn chrome_json(spans: &[Span], keep: impl Fn(u32) -> bool) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for s in spans.iter().filter(|s| keep(s.op)) {
        if !first {
            out.push(',');
        }
        first = false;
        out += &format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            s.name,
            s.op,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),  // child
            span("a", 40, 60, 0),  // adjacent sibling
            span("b", 15, 30, 1),  // grandchild: not the root's business
            span("c", 55, 70, 0),  // overlaps the second sibling by 5
            span("d", 90, 120, 0), // runs past the parent: clipped
        ];
        let t = self_times(&spans);
        // Children cover 10..70 and 90..100 of the root.
        assert_eq!(t["root"].self_ns, 100 - 60 - 10);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["a"].calls, 2);
        assert_eq!(t["a"].total_ns, 50);
        assert_eq!(t["a"].self_ns, 50 - 15);
        assert_eq!(t["b"].self_ns, 15);
        assert_eq!(t["d"].self_ns, 30);
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        let t = self_times(&[span("leaf", 5, 25, NO_PARENT)]);
        assert_eq!(
            t["leaf"],
            SelfTime {
                calls: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut tr = Tracer::new();
        let root = tr.enter("compile", NO_PARENT, 3);
        let x = tr.time("step", root, 3, || 7);
        tr.exit(root);
        assert_eq!(x, 7);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, root);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        assert_eq!(tr.durations("step").len(), 1);
        let json = chrome_json(tr.spans(), |op| op == 3);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"compile\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(chrome_json(tr.spans(), |_| false), "{\"traceEvents\":[]}");
    }
}
