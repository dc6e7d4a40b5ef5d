//! Spans recorded from outside the program, around the benchmark's calls
//! into each layer's public functions. Each thread keeps its own `Vec`;
//! the vectors are merged and written out when the workload ends.

use phylo_obs::json::Json;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same vector;
/// spans of one request share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. All tracers of a run share `origin`, so
/// their timestamps are comparable after merging.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span and return its id for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }
}

/// Concatenate per-thread span vectors, rebasing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Each span's duration minus the time its direct children cover (the
/// children of one span run one after another on its thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Share of the time of the root spans named `root` that their descendant
/// spans account for: Σ descendant self time / Σ root duration.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    // Parents are opened before their children, so one forward pass
    // resolves every span's root.
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
    }
    let (mut covered, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root {
            continue;
        }
        if s.parent.is_none() {
            total += s.dur_ns();
        } else {
            covered += selfs[i];
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Σ duration and count of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, |p| p.into())),
                    ("req", s.req.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 40, Some(0)),
            span("b64", 15, 25, Some(1)),
            span("score", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Descendants cover 20 + 10 + 40 of the root's 100 ns.
        assert!((coverage(&spans, "request") - 0.7).abs() < 1e-12);
        assert_eq!(coverage(&spans, "avgrf"), 0.0, "no roots of that name");
        assert_eq!(total_ns(&spans, "decode"), (30, 1));
    }

    #[test]
    fn merge_rebases_parents_and_coverage_ignores_other_roots() {
        let a = vec![span("request", 0, 10, None), span("parse", 0, 10, Some(0))];
        let b = vec![
            span("sweep", 0, 50, None),
            span("request", 0, 10, None),
            span("parse", 0, 5, Some(1)),
        ];
        let all = merge(vec![a, b]);
        assert_eq!(all[4].parent, Some(3));
        assert_eq!(all[1].parent, Some(0));
        // Two request roots (20 ns), covered 10 + 5 ns.
        assert!((coverage(&all, "request") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("request", None, 7);
        let v = t.time("parse", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.spans[1].start_ns >= t.spans[0].start_ns);
    }
}
