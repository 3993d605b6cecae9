//! The [`Trace`] and [`TraceSet`] types: ordered workload metric series.

use std::fmt;

/// Which side of Definition 1 a trace belongs to.
///
/// The paper characterizes a database workload `W = (Q, R)` by its query
/// traces (arrival rates of templated queries) and its resource traces
/// (CPU / memory / disk utilization ratios). The multi-task WFGAN trains
/// jointly across both kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Query arrival-rate trace `W(Q)` (occurrence counts per interval).
    Query,
    /// Resource-utilization trace `W(R)` (ratios in `[0, 1]` or raw units).
    Resource,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Query => write!(f, "query"),
            TraceKind::Resource => write!(f, "resource"),
        }
    }
}

/// A single workload trace: one metric sampled at a fixed interval.
///
/// Values are ordered by timestamp; index `i` corresponds to time
/// `origin + i * interval_secs`. The trace owns its data (`Vec<f64>`) and
/// derefs to a slice for read access.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable identifier (e.g. a SQL template id or `disk:host42`).
    pub name: String,
    /// Whether this is a query-rate or resource-utilization series.
    pub kind: TraceKind,
    /// Sampling interval in seconds (the paper's *forecasting interval*).
    pub interval_secs: u64,
    values: Vec<f64>,
}

impl Trace {
    /// Create a trace from raw values.
    ///
    /// # Panics
    /// Panics if `interval_secs == 0`.
    pub fn new(
        name: impl Into<String>,
        kind: TraceKind,
        interval_secs: u64,
        values: Vec<f64>,
    ) -> Self {
        assert!(interval_secs > 0, "interval must be positive");
        Self { name: name.into(), kind, interval_secs, values }
    }

    /// Convenience constructor for unit tests and examples: a query trace
    /// at a 600 s (10 min) interval, the interval used throughout the
    /// paper's evaluation.
    pub fn query(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self::new(name, TraceKind::Query, 600, values)
    }

    /// Convenience constructor for a resource trace at a 600 s interval.
    pub fn resource(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self::new(name, TraceKind::Resource, 600, values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read access to the underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the underlying values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consume the trace, returning its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Append a newly observed sample (online ingestion path).
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Sum of all samples — the paper selects top-K clusters by workload
    /// *volume*, which for query traces is the total query count.
    pub fn volume(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean; `0.0` for an empty trace.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.volume() / self.values.len() as f64
        }
    }

    /// Population standard deviation; `0.0` for traces shorter than 2.
    pub fn std(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Minimum sample (NaN-free traces assumed); `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Re-aggregate to a coarser interval by summing (query counts) or
    /// averaging (resource ratios) groups of `factor` consecutive samples.
    ///
    /// Example 5 in the paper: "if the forecasting interval is set to 10
    /// minutes, we will aggregate the workloads by 10 minutes". A trailing
    /// partial group is dropped so every output sample covers a full
    /// interval.
    ///
    /// # Panics
    /// Panics if `factor == 0`.
    pub fn aggregate(&self, factor: usize) -> Trace {
        assert!(factor > 0, "aggregation factor must be positive");
        let mut out = Vec::with_capacity(self.values.len() / factor);
        for chunk in self.values.chunks_exact(factor) {
            let s: f64 = chunk.iter().sum();
            out.push(match self.kind {
                TraceKind::Query => s,
                TraceKind::Resource => s / factor as f64,
            });
        }
        Trace::new(
            self.name.clone(),
            self.kind,
            self.interval_secs * factor as u64,
            out,
        )
    }

    /// Element-wise sum of two traces (used when merging the traces of
    /// semantically equivalent SQL templates). Lengths must match.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn merge_sum(&mut self, other: &Trace) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "cannot merge traces of different lengths"
        );
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }

    /// A sub-trace covering `range` (used to carve train/test splits).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Trace {
        Trace::new(
            self.name.clone(),
            self.kind,
            self.interval_secs,
            self.values[range].to_vec(),
        )
    }
}

impl std::ops::Deref for Trace {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.values
    }
}

/// A collection of traces covering one database instance (the workload
/// `W = (Q, R)` of Definition 1).
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    traces: Vec<Trace>,
}

impl TraceSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of traces.
    pub fn from_traces(traces: Vec<Trace>) -> Self {
        Self { traces }
    }

    /// Add one trace.
    pub fn push(&mut self, t: Trace) {
        self.traces.push(t);
    }

    /// All traces.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Number of traces in the set.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Iterate over traces of a given kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &Trace> {
        self.traces.iter().filter(move |t| t.kind == kind)
    }

    /// Look a trace up by name.
    pub fn get(&self, name: &str) -> Option<&Trace> {
        self.traces.iter().find(|t| t.name == name)
    }

    /// Traces sorted by descending volume — the ordering used when the
    /// clustering stage picks the top-K representative clusters.
    pub fn by_volume_desc(&self) -> Vec<&Trace> {
        let mut v: Vec<&Trace> = self.traces.iter().collect();
        v.sort_by(|a, b| b.volume().total_cmp(&a.volume()));
        v
    }
}

impl IntoIterator for TraceSet {
    type Item = Trace;
    type IntoIter = std::vec::IntoIter<Trace>;
    fn into_iter(self) -> Self::IntoIter {
        self.traces.into_iter()
    }
}

impl<'a> IntoIterator for &'a TraceSet {
    type Item = &'a Trace;
    type IntoIter = std::slice::Iter<'a, Trace>;
    fn into_iter(self) -> Self::IntoIter {
        self.traces.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: Vec<f64>) -> Trace {
        Trace::query("t", values)
    }

    #[test]
    fn basic_stats() {
        let tr = t(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.volume(), 10.0);
        assert_eq!(tr.mean(), 2.5);
        assert_eq!(tr.min(), Some(1.0));
        assert_eq!(tr.max(), Some(4.0));
        let expected_std = (1.25f64).sqrt();
        assert!((tr.std() - expected_std).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats() {
        let tr = t(vec![]);
        assert!(tr.is_empty());
        assert_eq!(tr.mean(), 0.0);
        assert_eq!(tr.std(), 0.0);
        assert_eq!(tr.min(), None);
        assert_eq!(tr.max(), None);
    }

    #[test]
    fn aggregate_query_sums() {
        let tr = t(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let agg = tr.aggregate(2);
        assert_eq!(agg.values(), &[3.0, 7.0]); // trailing 5.0 dropped
        assert_eq!(agg.interval_secs, 1200);
    }

    #[test]
    fn aggregate_resource_averages() {
        let tr = Trace::resource("r", vec![0.2, 0.4, 0.6, 0.8]);
        let agg = tr.aggregate(2);
        assert!((agg.values()[0] - 0.3).abs() < 1e-12);
        assert!((agg.values()[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "aggregation factor")]
    fn aggregate_zero_panics() {
        t(vec![1.0]).aggregate(0);
    }

    #[test]
    fn merge_sum_adds_elementwise() {
        let mut a = t(vec![1.0, 2.0]);
        let b = t(vec![10.0, 20.0]);
        a.merge_sum(&b);
        assert_eq!(a.values(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn merge_sum_len_mismatch_panics() {
        let mut a = t(vec![1.0]);
        a.merge_sum(&t(vec![1.0, 2.0]));
    }

    #[test]
    fn slice_extracts_range() {
        let tr = t(vec![0.0, 1.0, 2.0, 3.0]);
        let s = tr.slice(1..3);
        assert_eq!(s.values(), &[1.0, 2.0]);
    }

    #[test]
    fn traceset_volume_ordering_and_lookup() {
        let mut set = TraceSet::new();
        set.push(t(vec![1.0, 1.0]));
        set.push(Trace::query("big", vec![100.0, 100.0]));
        set.push(Trace::resource("res", vec![0.5]));
        let ordered = set.by_volume_desc();
        assert_eq!(ordered[0].name, "big");
        assert_eq!(set.of_kind(TraceKind::Resource).count(), 1);
        assert!(set.get("big").is_some());
        assert!(set.get("missing").is_none());
    }

    #[test]
    fn push_appends_online() {
        let mut tr = t(vec![]);
        tr.push(5.0);
        tr.push(6.0);
        assert_eq!(tr.values(), &[5.0, 6.0]);
    }
}
