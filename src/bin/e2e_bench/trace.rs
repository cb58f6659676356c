//! Spans the benchmark records around its own calls into each layer.
//!
//! One root span per operation (`op.*`), one child span per layer call
//! inside it. Spans stay in memory and are written out when the run ends;
//! with tracing off only the operation latencies are measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root spans carry this name prefix; everything else is a layer.
pub const OP_PREFIX: &str = "op.";

/// One recorded span. `parent` is the 1-based id of the enclosing span, 0
/// for a root; spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub parent: usize,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over all spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, start: Instant) {
        let parent = self.open.last().map_or(0, |&i| i + 1);
        let op = if parent > 0 {
            self.spans[parent - 1].op
        } else if name.starts_with(OP_PREFIX) {
            self.ops += 1;
            self.ops
        } else {
            0
        };
        let start_ns = self.ns_since_epoch(start);
        self.spans.push(SpanRec {
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self, end: Instant) {
        let end_ns = self.ns_since_epoch(end);
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Run one operation and return its result with its latency in
    /// milliseconds. The latency is measured whether or not tracing is on.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        debug_assert!(name.starts_with(OP_PREFIX));
        let start = Instant::now();
        if self.on {
            self.begin(name, start);
        }
        let r = f(self);
        let end = Instant::now();
        if self.on {
            self.end(end);
        }
        (r, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Run one layer call, recorded as a child span when tracing.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.begin(name, Instant::now());
        let r = f();
        self.end(Instant::now());
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Calls, total and self time per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Self time of every layer span (operation roots excluded): the part
    /// of the wall clock the layers account for.
    pub fn attributed_ns(&self) -> u64 {
        self.layer_totals()
            .iter()
            .filter(|(name, _)| !name.starts_with(OP_PREFIX))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    pub fn spans_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }

    pub fn layers_json(&self, wall_ns: u64) -> String {
        let attributed = self.attributed_ns();
        let mut out = format!(
            "{{\"wall_ns\":{wall_ns},\"attributed_ns\":{attributed},\"unattributed_ns\":{},\"layers\":[\n",
            wall_ns.saturating_sub(attributed)
        );
        let totals = self.layer_totals();
        for (i, (name, t)) in totals.iter().enumerate() {
            let sep = if i + 1 == totals.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}{sep}",
                t.calls, t.total_ns, t.self_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let ((), ms) = tr.op("op.test", |tr| {
            tr.layer("a", || spin(200_000));
            tr.layer("b", || spin(100_000));
        });
        assert!(ms >= 0.3);
        let t = tr.layer_totals();
        assert_eq!(t["a"].calls, 1);
        assert_eq!(t["a"].self_ns, t["a"].total_ns);
        let op = &t["op.test"];
        assert_eq!(op.self_ns, op.total_ns - t["a"].total_ns - t["b"].total_ns);
        assert_eq!(tr.attributed_ns(), t["a"].self_ns + t["b"].self_ns);
        assert!(tr.spans().iter().all(|s| s.op == 1));
        assert_eq!(tr.spans()[1].parent, 1);
    }

    #[test]
    fn untraced_runs_record_nothing_but_still_time_ops() {
        let mut tr = Tracer::new(false);
        let (v, ms) = tr.op("op.test", |tr| tr.layer("a", || 7));
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
