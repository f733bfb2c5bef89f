//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, the span that caused it and a few
//! attributes. Spans stay in memory until the run ends, then are written
//! as one Chrome-trace JSON file (open it in Perfetto or
//! `chrome://tracing`) and summarised as per-name total and self time.
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `0` means "no span" (tracer off, or a
/// root span's parent).
pub type SpanId = u64;

/// A span that has begun but not ended.
pub struct Open {
    id: SpanId,
    name: &'static str,
    parent: SpanId,
    lane: u32,
    start: Option<Instant>,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    lane: u32,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, String)>,
}

/// The span recorder shared by every thread of one run.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<(SpanId, Vec<Span>)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new((0, Vec::new())),
        }
    }

    /// Begins a span under `parent` on `lane` (one lane per thread or
    /// connection).
    pub fn begin(&self, name: &'static str, parent: SpanId, lane: u32) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                name,
                parent,
                lane,
                start: None,
            };
        }
        let id = {
            let mut g = self
                .spans
                .lock()
                .expect("span lock poisoned by a panicking thread");
            g.0 += 1;
            g.0
        };
        Open {
            id,
            name,
            parent,
            lane,
            start: Some(Instant::now()),
        }
    }

    /// Ends a span, attaching `attrs`.
    pub fn end(&self, open: Open, attrs: Vec<(&'static str, String)>) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            lane: open.lane,
            start_ns: ns(start),
            end_ns: ns(end),
            attrs,
        };
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking thread")
            .1
            .push(span);
    }

    /// Total and self time per span name, in name order: `(name, count,
    /// total_s, self_s)`. Self time is the span's duration minus the time
    /// its direct children cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let g = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking thread");
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &g.1 {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &g.1 {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t as f64 * 1e-9, s as f64 * 1e-9))
            .collect()
    }

    /// Renders every span as Chrome-trace JSON (`ph: "X"` complete
    /// events, microsecond timestamps), with `meta` as a side table.
    pub fn chrome_json(&self, meta: &str) -> String {
        let g = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking thread");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in g.1.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.lane,
                s.id,
                s.parent,
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":\"{}\"", hidisc_serve::json::escape(v));
            }
            out.push_str("}}");
        }
        let _ = write!(out, "\n],\"displayTimeUnit\":\"ms\",\"meta\":{meta}}}\n");
        out
    }
}
