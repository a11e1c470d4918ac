//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from outside the program — around `Cluster::run`,
//! the graph generator, each layer probe — kept in memory, and written
//! when the run ends. Spans *inside* the engine are a later change.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.cluster_run`.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Operations the span covered (records, events, bytes — the probe
    /// says which); ratios are taken where the work happens.
    pub count: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// untraced repetitions run the same code without the bookkeeping.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; `f` returns its result and the span's
    /// operation count.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        let (out, count) = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].count = count;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children may overlap each other or stick out of the parent; covered
/// time is the union of their intervals clipped to the parent's.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): a metadata
/// event naming track `tid` after the workload, then one complete
/// (`"ph": "X"`) event per span with microsecond timestamps.
pub fn chrome_trace(workload: &str, tid: usize, spans: &[Span]) -> Json {
    let track = Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(tid as f64)),
        ("args", Json::obj([("name", Json::str(workload))])),
    ]);
    Json::Arr(
        std::iter::once(track)
            .chain(spans.iter().enumerate().map(|(id, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", parent),
                            ("workload", Json::str(workload)),
                            ("count", Json::Num(s.count as f64)),
                            ("self_us", Json::Num(self_time_ns(spans, id) as f64 / 1e3)),
                        ]),
                    ),
                ])
            }))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x.y".into(),
            start_ns,
            end_ns,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 -> union [10, 50)
            span(60, 70, Some(0)),  // 3
            span(62, 68, Some(3)),  // 4: grandchild, not the root's
            span(90, 120, Some(0)), // 5: sticks out, clipped to [90, 100)
            span(25, 28, Some(0)),  // 6: inside the union already
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (40 + 10 + 10));
        assert_eq!(self_time_ns(&spans, 3), 10 - 6);
        assert_eq!(self_time_ns(&spans, 4), 6);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let got = t.span("a.outer", |t| {
            let inner = t.span("b.inner", |_| (7, 3));
            (inner + 1, 1)
        });
        assert_eq!(got, 8);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].count, s[1].count), (1, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("a.b", |_| (5, 0)), 5);
        assert!(off.spans().is_empty());

        let doc = chrome_trace("w", 3, s);
        assert_eq!(doc.items().len(), 3);
        assert_eq!(
            doc.items()[0]
                .get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("w")
        );
        assert_eq!(doc.items()[2].get("cat").unwrap().as_str(), Some("b"));
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
    }
}
