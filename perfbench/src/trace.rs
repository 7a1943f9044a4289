//! Benchmark-side spans around each call the benchmark makes into a
//! layer of the program. Spans live in memory and are written out once,
//! at the end, as Chrome trace-event JSON.
//!
//! With tracing off every method is a pass-through, so the untraced run
//! times the same code path with no recording.

use std::collections::BTreeMap;
use std::time::Instant;

use rectpart_json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `workloads.read_csv` or `core.solve.jag_m_opt`.
    pub name: String,
    /// Op the span belongs to (spans of one op share it).
    pub op: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Renames an open or closed span (for calls whose layer is known
    /// only from their result, such as the Γ backend `auto` picked).
    pub fn rename(&mut self, id: SpanId, name: &str) {
        if let Some(idx) = id.0 {
            self.spans[idx].name = name.to_string();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event document of every span (complete `X` events,
    /// microsecond timestamps, exact ns and the parent/op links in
    /// `args`).
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("op", Json::UInt(s.op)), ("dur_ns", Json::UInt(s.dur_ns()))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::UInt(p as u64)));
                }
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str("bench".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::UInt(s.start_ns / 1_000)),
                    ("dur", Json::UInt(s.dur_ns() / 1_000)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            (
                "otherData",
                Json::obj(vec![(
                    "format",
                    Json::Str("perfbench-span-trace".to_string()),
                )]),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Calls recorded.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean self time per call in ms (0 when the layer was not called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Totals of every span name, keyed by name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotal> {
    let mut out: BTreeMap<String, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            op: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["op"].self_ns, 30);
        assert_eq!(totals["b"].calls, 1);
        assert_eq!(totals["b"].mean_ms(), 40.0 / 1e6);
        assert_eq!(LayerTotal::default().mean_ms(), 0.0);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("op", |t| {
            let id = t.enter("gamma");
            t.rename(id, "core.prefix.dense_build");
            t.exit(id);
            t.span("solve", |_| 5)
        });
        assert_eq!(v, 5);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].name, "core.prefix.dense_build");
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[1].end_ns <= s[2].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.span("inner", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_document_parses_back() {
        let mut t = Tracer::new(true);
        t.span("op", |t| t.span("inner", |_| ()));
        let text = t.chrome_json().to_string_pretty();
        let doc = rectpart_json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("inner"));
    }
}
