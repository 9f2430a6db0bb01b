//! Spans recorded by the harness around each call into a layer of the
//! program under test. They stay in memory until the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a root span, `chunk` of a span that belongs to no chunk.
pub const NONE: u32 = u32::MAX;

/// One timed call. The layer is the name without its last component
/// (`core.layout.map_chunk` belongs to `core.layout`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Index of the 256-event chunk (or reader batch) the call served.
    pub chunk: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of one run share `origin`, so their spans share a clock.
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new() }
    }

    /// An empty tracer on the same clock, for another thread to fill.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the shared origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, chunk: u32) -> u32 {
        let start_ns = self.now_ns();
        self.push(Span { name, start_ns, end_ns: start_ns, parent, chunk })
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose ends were measured elsewhere.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Time one call into a layer that opens no spans of its own.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        chunk: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, chunk);
        let out = f();
        self.close(id);
        out
    }

    /// Take over the spans another thread recorded; its roots become
    /// children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE { parent } else { s.parent + base };
            s
        }));
    }

    pub fn duration_s(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of its interval that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                let p = &self.spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    children[s.parent as usize].push((a, b));
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, mut kids) in self.spans.iter().zip(children) {
            // Children on other threads may overlap each other: count the
            // union of their intervals once.
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
        }
        out
    }

    /// `names` once, then one `[name, start_ns, end_ns, parent, chunk]`
    /// row per span (`-1` for no parent or chunk).
    pub fn to_json(&self) -> (Json, Json) {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                let index = |i: u32| if i == NONE { -1.0 } else { f64::from(i) };
                Json::Arr(vec![
                    (name as u64).into(),
                    s.start_ns.into(),
                    s.end_ns.into(),
                    index(s.parent).into(),
                    index(s.chunk).into(),
                ])
            })
            .collect::<Vec<_>>();
        (Json::Arr(names.into_iter().map(Json::from).collect()), Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, chunk: NONE }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push(span("bench.ingest", 0, 1_000, NONE));
        t.push(span("core.layout.map_chunk", 100, 300, root));
        // Two children on different threads overlapping in [400, 500).
        let sweep = t.push(span("monitor.sim.observe_chunk", 300, 500, root));
        t.push(span("monitor.sim.observe_chunk", 400, 700, root));
        // A grandchild counts against its parent, not the root.
        t.push(span("counters.hyz.increment", 350, 400, sweep));
        let own = t.self_times();
        let ns = |name: &str| (own[name] * 1e9).round() as u64;
        assert_eq!(ns("bench.ingest"), 1_000 - 200 - 400);
        assert_eq!(ns("core.layout.map_chunk"), 200);
        assert_eq!(ns("monitor.sim.observe_chunk"), 150 + 300);
        assert_eq!(ns("counters.hyz.increment"), 50);
    }

    #[test]
    fn absorbed_roots_hang_under_the_given_parent() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let run = main.push(span("monitor.cluster.run", 0, 100, NONE));
        let mut reader = Tracer::new(origin);
        let batch = reader.push(span("core.serve.batch", 10, 20, NONE));
        reader.push(span("core.snapshot.resolve", 12, 15, batch));
        main.absorb(reader, run);
        assert_eq!(main.spans[1].parent, run);
        assert_eq!(main.spans[2].parent, 1);
    }
}
