//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span is (name, start, end, parent, request id). Names are
//! `<layer>.<call>`, so a layer's self time is the summed self time of
//! the spans whose name starts with that layer. Self time is a span's
//! duration minus the part of it its children cover. Spans are kept in
//! memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

/// The span recorder. A disabled tracer records nothing and its calls
/// cost a branch, so the untraced runs pay nothing for it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose start and end the caller measured (e.g. a
    /// request's due time and reply time). Returns its id, or `None`
    /// when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Tracer, Option<SpanId>) -> T,
    ) -> T {
        // Open the span first so children can name it as parent.
        let start = Instant::now();
        let id = self.record(name, start, start, parent, None);
        let out = f(self, id);
        if let Some(id) = id {
            self.close(id);
        }
        out
    }

    /// Ends a span opened with [`record`](Self::record) at its start.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer (the name up to its first `.`), nanoseconds,
    /// sorted by layer.
    pub fn self_time_by_layer(&self) -> Vec<(String, u64)> {
        let mut out: std::collections::BTreeMap<String, u64> = Default::default();
        for (name, ns) in self_times(&self.spans).into_iter() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_default() += ns;
        }
        out.into_iter().collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.name, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.run", 10, 40, Some(0)),
            span("core.run", 50, 70, Some(0)),
            span("sim.pop", 15, 25, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], ("bench.pass", 50));
        assert_eq!(st[1], ("core.run", 20));
        assert_eq!(st[2], ("core.run", 20));
        assert_eq!(st[3], ("sim.pop", 10));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("serve.read", 20, 60, Some(0)),
            span("serve.write", 40, 80, Some(0)),
            span("serve.late", 90, 130, Some(0)),
        ];
        // Children cover 20..80 and 90..100 of the parent: 70 ns.
        assert_eq!(self_times(&spans)[0], ("serve.request", 30));
    }

    #[test]
    fn layers_sum_self_time_by_name_prefix() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.run", 10, 40, Some(0)),
            span("core.setup", 50, 70, Some(0)),
        ];
        assert_eq!(
            t.self_time_by_layer(),
            vec![("bench".to_string(), 50), ("core".to_string(), 50)]
        );
    }

    #[test]
    fn nested_timing_links_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.time("bench.outer", None, |t, outer| {
            t.time("core.inner", outer, |_, _| ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.to_jsonl().contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        off.time("bench.outer", None, |t, id| {
            assert_eq!(id, None);
            t.time("core.inner", id, |_, _| ());
        });
        assert!(off.spans().is_empty());
    }
}
