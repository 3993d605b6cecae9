//! The declared surface of the benchmark: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root repeats these tables for the driver; a test
//! keeps the two equal, name for name and bound for bound.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists; compared with `BENCHMARK.json` by a test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "stream_hot_disk",
        why: "64 hot shapes streamed to a 2-shard store on the real filesystem: WAL write+fsync does most of the work, so durability-path changes show and CPU-path ones hide",
    },
    Workload {
        name: "stream_hot_mem",
        why: "the same events on MemVfs: the cache-hit CPU path (fingerprint, route cache, group-commit buffer, WAL encode, apply) does all the work; an fsync change must show nothing",
    },
    Workload {
        name: "stream_churn_mem",
        why: "100000 distinct shapes on MemVfs: every event misses both fingerprint caches and runs the tokenizer/canonicalizer/intern twice; hit-path caches are bypassed",
    },
    Workload {
        name: "forecast_serve",
        why: "one Zipf forecast per tick through a 2-shard Supervisor of trained pipelines: the unbatched request-to-answer latency; member inference dominates, ingest layers idle",
    },
    Workload {
        name: "serve_mixed",
        why: "8 Zipf forecasts beside 256 ingests per tick on the same registries and Governor: same-cluster batching and read/write interference that stream_* cannot show",
    },
    Workload {
        name: "train_recover",
        why: "single-shard durable store trained until it beats last-value: binning, Descender DTW matrix, top-K, ensemble fit, then snapshot + WAL-tail recovery; the batch path neither hot path touches",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

// Every timing carries the widest bound the driver allows: the driver
// holds each metric's run-to-run spread on every workload to its bound,
// and on the shared host this was written on one build's timings spread
// 1-6 % in a quiet hour and 15-40 % in a noisy one (see the README). The
// two metrics the host cannot disturb are tighter.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_events_per_s", "1/s", Better::Higher, 0.25),
    e2e("ingest_ack_p50_us", "us", Better::Lower, 0.25),
    e2e("ingest_ack_p99_us", "us", Better::Lower, 0.25),
    e2e("forecast_per_s", "1/s", Better::Higher, 0.25),
    e2e("forecast_p50_us", "us", Better::Lower, 0.25),
    e2e("forecast_p99_us", "us", Better::Lower, 0.25),
    e2e("train_s", "s", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("holdout_nmse", "ratio", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 60] = [
    // Cache-hit ingest path.
    lower("sqlproc.fingerprint_ns", "ns"),
    lower("sqlproc.observe_streamed_ns", "ns"),
    higher("sqlproc.fp_cache_hit_ratio", "ratio"),
    higher("stream.route_cache_hit_ratio", "ratio"),
    lower("core.wal_encode_ns", "ns"),
    lower("core.wal_bytes_per_record", "B"),
    lower("core.apply_ns", "ns"),
    lower("stream.ingest_event_p50_ns", "ns"),
    // Cache-miss path and forecast-side canonicalization.
    lower("sqlproc.canonicalize_ns", "ns"),
    lower("shard.route_ns", "ns"),
    lower("sqlproc.lookup_ns", "ns"),
    // Durability path.
    lower("core.wal_append_batch_us", "us"),
    higher("stream.records_per_fsync", "count"),
    lower("core.group_commit_flushes", "count"),
    lower("core.io_retries", "count"),
    lower("stream.ingest_event_p99_ns", "ns"),
    // Stream maintenance.
    lower("stream.maintain_us", "us"),
    higher("stream.bins_closed", "count"),
    higher("stream.cluster_points", "count"),
    higher("stream.cluster_folds", "count"),
    lower("cluster.online_assign_us", "us"),
    lower("stream.shed", "count"),
    // Forecast answer.
    lower("core.forecast_template_us", "us"),
    lower("core.cluster_forecast_us", "us"),
    lower("models.predict_wfgan_us", "us"),
    lower("models.predict_tcn_us", "us"),
    lower("models.predict_mlp_us", "us"),
    lower("models.ensemble_mix_us", "us"),
    lower("core.cluster_observe_us", "us"),
    // Serving tick.
    lower("shard.submit_forecast_ns", "ns"),
    lower("shard.run_tick_us", "us"),
    lower("shard.tick_overhead_us", "us"),
    lower("serve.clusters_per_tick", "ratio"),
    lower("serve.ingest_ns", "ns"),
    lower("serve.degraded", "count"),
    lower("serve.shed", "count"),
    // Training.
    lower("sqlproc.arrival_traces_ms", "ms"),
    lower("cluster.descender_s", "s"),
    lower("dtw.pair_us", "us"),
    higher("dtw.mcells_per_s", "Mcell/s"),
    lower("dtw.lb_keogh_ns", "ns"),
    lower("cluster.topk_ms", "ms"),
    lower("models.fit_wfgan_s", "s"),
    lower("models.fit_tcn_s", "s"),
    lower("models.fit_mlp_s", "s"),
    lower("exec.tasks_executed", "count"),
    higher("exec.tasks_stolen", "count"),
    higher("exec.train_speedup_2w", "ratio"),
    higher("host.nproc", "count"),
    // Recovery and checkpoint.
    lower("core.snapshot_decode_ms", "ms"),
    lower("core.wal_scan_ms", "ms"),
    lower("core.wal_replay_ms", "ms"),
    lower("core.wal_tail_records", "count"),
    lower("core.snapshot_encode_ms", "ms"),
    lower("core.snapshot_bytes", "B"),
    lower("core.checkpoint_ms", "ms"),
    // Bookkeeping.
    higher("trace.ingest_coverage", "ratio"),
    higher("trace.forecast_coverage", "ratio"),
    higher("trace.train_coverage", "ratio"),
    lower("trace.overhead_pct", "%"),
];

/// One measured value, as it goes into the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects measured values against one of the declared tables, and
/// refuses a name the table does not declare or a second value for one.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<Value>,
}

impl Report {
    pub fn put_e2e(&mut self, name: &str, value: f64) {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared end-to-end metric {name}"));
        self.put(m.name, value, m.unit);
    }

    pub fn put_layer(&mut self, name: &str, value: f64) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.put(m.name, value, m.unit);
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.values.iter().any(|v| v.name == name),
            "metric {name} reported twice"
        );
        self.values.push(Value { name, value, unit });
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }
}
