//! In-memory spans recorded around the public calls the benchmark makes,
//! written out as Chrome trace-event JSON when the run ends.
//!
//! Every operation (a Table I cell, a design point, a serve request) opens a
//! root span with a fresh operation id; the calls it makes into each layer
//! open child spans. Phases the optimizer reports through its
//! [`Instrument`] hook become grandchildren with their real start and end
//! times. Server-side phases of a serve request are known only as durations
//! (`SolveReport::stats`), so they are laid out back to back inside the
//! round trip and marked `estimated`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use letdma::core::instrument::{IncumbentRecord, NodeEvent};
use letdma::core::{Counter, Instrument, Json, SolverStats};

/// Spans beyond this many are kept for the ledger but not written to the
/// trace file, which would otherwise reach hundreds of megabytes.
const MAX_WRITTEN_SPANS: usize = 40_000;

/// One closed interval of work.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`milp.search`, `sim.proposed`, …).
    pub name: &'static str,
    /// Id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Placed from a duration the server reported rather than observed;
    /// drawn on the server lane of the trace.
    pub estimated: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Summed durations of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Span recorder; a disabled tracer records nothing and costs one branch per
/// call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs one operation under a root span with a fresh operation id and
    /// returns its result with its wall-clock latency (measured whether or
    /// not spans are recorded).
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        self.op += 1;
        let start = Instant::now();
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        (out, start.elapsed())
    }

    /// Runs `f` under a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
            estimated: false,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span returned by [`open`](Self::open), and any span opened
    /// inside it that is still open.
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Nanoseconds from the tracer's creation to `instant`.
    pub fn ns_at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span `[start, end)` under `parent`, clipped to the
    /// parent's extent as far as it is known. `estimated` spans were placed
    /// from a reported duration and are drawn on the server lane.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start: u64,
        end: u64,
        estimated: bool,
    ) -> usize {
        let p = self.spans[parent];
        let limit = if self.stack.contains(&parent) {
            u64::MAX
        } else {
            p.end
        };
        let end = end.min(limit).max(p.start);
        let start = start.clamp(p.start, end);
        self.spans.push(Span {
            name,
            op: p.op,
            parent: Some(parent),
            start,
            end,
            estimated,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort_unstable();
                let mut union = 0;
                let mut reach = span.start;
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        union += b - a;
                        reach = b;
                    }
                }
                span.ns() - union
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let t = totals.entry(span.name).or_default();
            t.total_ns += span.ns();
            t.self_ns += own;
        }
        totals
    }

    /// Sum of the durations of the direct children of operation spans: the
    /// wall clock the layers' public calls account for.
    pub fn layer_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(Span::ns)
            .sum()
    }

    /// The recorded spans as a Chrome trace-event document (opens in
    /// Perfetto and `chrome://tracing`).
    pub fn chrome_json(&self, metadata: Vec<(&str, Json)>) -> Json {
        let us = |ns: u64| Json::Float(ns as f64 / 1000.0);
        let mut events = vec![
            lane_name(1, "client (benchmark thread)"),
            lane_name(2, "server (estimated from SolveReport::stats)"),
        ];
        events.extend(
            self.spans
                .iter()
                .take(MAX_WRITTEN_SPANS)
                .enumerate()
                .map(|(i, s)| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                        ("ph", Json::str("X")),
                        ("ts", us(s.start)),
                        ("dur", us(s.ns())),
                        ("pid", Json::Int(1)),
                        ("tid", Json::Int(if s.estimated { 2 } else { 1 })),
                        (
                            "args",
                            Json::obj(vec![
                                ("op", Json::Int(s.op as i64)),
                                ("span", Json::Int(i as i64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                                ),
                                ("estimated", Json::Bool(s.estimated)),
                            ]),
                        ),
                    ])
                }),
        );
        let mut meta = metadata;
        meta.push(("spans_recorded", Json::Int(self.spans.len() as i64)));
        meta.push((
            "spans_written",
            Json::Int(self.spans.len().min(MAX_WRITTEN_SPANS) as i64),
        ));
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("metadata", Json::obj(meta)),
        ])
    }
}

fn lane_name(tid: i64, name: &str) -> Json {
    Json::obj(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid)),
        ("args", Json::obj(vec![("name", Json::str(name))])),
    ])
}

/// Span name of an optimizer phase.
pub fn phase_span(phase: &str) -> &'static str {
    match phase {
        "heuristic" => "opt.heuristic",
        "formulation" => "opt.formulation",
        "presolve" => "milp.presolve",
        "milp-search" => "milp.search",
        "milp-retry" => "milp.retry",
        "validate" => "opt.validate",
        _ => "opt.other",
    }
}

/// The optimizer's top-level phases; everything else it reports nests
/// inside one of them.
pub const TOP_PHASES: [&str; 5] = [
    "heuristic",
    "formulation",
    "milp-search",
    "milp-retry",
    "validate",
];

/// An [`Instrument`] that collects the optimizer's statistics and turns each
/// phase it brackets into a span. Phases reported only as accumulated
/// durations (the simplex timers) stay in the statistics.
pub struct PhaseSpans<'a> {
    tracer: &'a mut Tracer,
    stats: &'a mut SolverStats,
    open: Vec<(&'static str, Option<usize>)>,
}

impl<'a> PhaseSpans<'a> {
    /// Records into `tracer` and `stats`.
    pub fn new(tracer: &'a mut Tracer, stats: &'a mut SolverStats) -> Self {
        Self {
            tracer,
            stats,
            open: Vec::new(),
        }
    }
}

impl Instrument for PhaseSpans<'_> {
    fn phase_started(&mut self, phase: &'static str) {
        self.stats.phase_started(phase);
        let id = self.tracer.open(phase_span(phase));
        self.open.push((phase, id));
    }

    fn phase_finished(&mut self, phase: &'static str, elapsed: Duration) {
        self.stats.phase_finished(phase, elapsed);
        if self.open.last().is_some_and(|(p, _)| *p == phase) {
            let (_, id) = self.open.pop().expect("checked non-empty");
            self.tracer.close(id);
        }
    }

    fn count(&mut self, counter: Counter, n: u64) {
        self.stats.count(counter, n);
    }

    fn node_event(&mut self, event: NodeEvent) {
        self.stats.node_event(event);
    }

    fn incumbent(&mut self, record: IncumbentRecord) {
        self.stats.incumbent(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start,
            end,
            estimated: false,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_is_span_minus_the_part_children_cover() {
        // op [0,100) with children [10,30), [20,50) (overlapping) and
        // [90,120) (sticking out); the grandchild does not count against op.
        let t = tracer_with(vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 90, 120),
            span("a.inner", Some(1), 12, 28),
        ]);
        let own = t.self_times();
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 20 - 16);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 16);
        let totals = t.totals();
        assert_eq!(totals["a"].self_ns, 4);
        assert_eq!(totals["op"].total_ns, 100);
        assert_eq!(t.layer_ns(), 20 + 30 + 30);
    }

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new(true);
        let ((), _) = t.op("op", |t| {
            t.span("child", |t| t.span("grandchild", |_| ()));
        });
        let ((), _) = t.op("op", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s[..3].iter().all(|x| x.op == 1));
        assert_eq!(s[3].op, 2);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, elapsed) = t.op("op", |t| t.span("child", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(elapsed < Duration::from_secs(1));
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let t = tracer_with(vec![
            span("op", None, 0, 2000),
            span("a", Some(0), 500, 1500),
        ]);
        let doc = t.chrome_json(vec![("workload", Json::str("test"))]);
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array");
        };
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Json::Str(p)) if p == "X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert!(matches!(complete[1].get("dur"), Some(Json::Float(d)) if (*d - 1.0).abs() < 1e-9));
        let parsed = Json::parse(&doc.render()).expect("renders valid JSON");
        assert!(parsed.get("metadata").is_some());
    }
}
