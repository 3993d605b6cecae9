//! In-memory spans recorded from outside the system: around the calls
//! the benchmark loop makes and around the probes that replay the same
//! inputs through each lower layer's public function. A span is
//! `(name, start, end, parent, request id)`; a layer's self time is its
//! span minus the part its children cover. Spans stay in memory and are
//! written as one JSON file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Spans of one request (event, tick, repetition) share this.
    pub request: u64,
}

/// Per-name totals over every span closed, kept even past the raw-span
/// cap so ratios are measured on all the work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Raw spans kept for the file; totals keep counting beyond it.
const RAW_SPAN_CAP: usize = 50_000;

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    /// Index in `spans`, when the raw span is being kept.
    slot: Option<u32>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, NameTotals>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between repetitions, so one traced
    /// run can time the same loop both ways.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Keep the raw span for the file while there is room; returns its
    /// index. Its parent is the innermost open span that was kept.
    fn keep(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: u64,
    ) -> Option<u32> {
        if self.spans.len() >= RAW_SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let parent = self.stack.iter().rev().find_map(|o| o.slot);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let slot = self.keep(name, start_ns, start_ns, request);
        self.stack.push(Open {
            name,
            start_ns,
            children_ns: 0,
            slot,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end() without a matching begin()");
        self.close(open, end_ns);
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns - open.start_ns;
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - open.children_ns.min(dur);
    }

    /// Time `f` inside a span (the probe form).
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let r = f();
        self.end();
        r
    }

    /// Record a span whose ends were measured by the caller, as a child
    /// of the innermost open span. The hot loops already take `Instant`s
    /// for their latency samples; this reuses them instead of reading
    /// the clock twice more per call.
    #[inline]
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let slot = self.keep(name, start_ns, end_ns, request);
        self.close(
            Open {
                name,
                start_ns,
                children_ns: 0,
                slot,
            },
            end_ns,
        );
    }

    pub fn totals(&self, name: &str) -> NameTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of `name` in nanoseconds (0 when never recorded).
    pub fn mean_total_ns(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    }

    /// Self time of raw span `i`: its duration minus its direct
    /// children's durations.
    #[cfg(test)]
    pub fn self_ns_of(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i as u32))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns) - children
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: per-name totals over every span, then the raw
    /// spans kept (the first [`RAW_SPAN_CAP`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"totals\": {");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"spans_dropped\": {},\n  \"spans\": [",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let base = t.epoch;
        t.begin("rep", 1);
        // Two children measured by the caller: 30 ns and 50 ns long.
        t.record(
            "call",
            1,
            base + Duration::from_nanos(100),
            base + Duration::from_nanos(130),
        );
        t.record(
            "call",
            1,
            base + Duration::from_nanos(200),
            base + Duration::from_nanos(250),
        );
        // Keep the parent open long enough that it certainly outlasts them.
        std::thread::sleep(Duration::from_micros(200));
        t.end();
        let rep = t.spans()[0];
        assert_eq!(rep.parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        let rep_dur = rep.end_ns - rep.start_ns;
        assert_eq!(t.self_ns_of(0), rep_dur - 80);
        assert_eq!(
            t.totals("call"),
            NameTotals {
                count: 2,
                total_ns: 80,
                self_ns: 80
            }
        );
        let totals = t.totals("rep");
        assert_eq!(totals.total_ns, rep_dur);
        assert_eq!(totals.self_ns, rep_dur - 80);
    }

    #[test]
    fn nested_spans_charge_only_direct_children() {
        let mut t = Tracer::new(true);
        t.begin("a", 7);
        t.begin("b", 7);
        t.span("c", 7, || std::hint::black_box(3 + 4));
        t.end();
        t.end();
        let dur = |i: usize| t.spans()[i].end_ns - t.spans()[i].start_ns;
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.self_ns_of(0), dur(0) - dur(1), "a is charged b, not c");
        assert_eq!(t.self_ns_of(1), dur(1) - dur(2));
        assert_eq!(t.totals("a").self_ns, t.self_ns_of(0));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_file_parses() {
        let mut t = Tracer::new(false);
        t.span("x", 0, || ());
        assert_eq!(t.totals("x").count, 0);
        t.set_enabled(true);
        t.span("x", 0, || ());
        let json = crate::json::parse(&t.to_json()).expect("span file is valid JSON");
        assert_eq!(
            json.get("spans").and_then(|s| s.as_array()).map(Vec::len),
            Some(1)
        );
    }
}
