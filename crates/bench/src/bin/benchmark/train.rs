//! The train stage: `train(0, history)` of every shard in turn at
//! `threads = 1` — binning, the Descender DTW matrix, top-K selection
//! and one ensemble fit per cluster — then the holdout error of the
//! models it left behind.

use crate::plan::{Plan, HISTORY};
use crate::spans::Tracer;
use dbaugur::{ClusterStatus, DbAugur};
use dbaugur_exec::ExecStats;
use dbaugur_shard::ShardedDurable;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct TrainPass {
    pub secs: f64,
    pub clusters: usize,
    pub unhealthy: usize,
    pub exec: ExecStats,
}

/// Retrain every shard; models from an earlier pass are replaced.
pub fn pass(
    plan: &Plan,
    store: &mut ShardedDurable,
    tracer: &mut Tracer,
    n: u64,
) -> Result<TrainPass, String> {
    let mut out = TrainPass {
        secs: 0.0,
        clusters: 0,
        unhealthy: 0,
        exec: ExecStats::default(),
    };
    tracer.begin("train.pass", n);
    let t0 = Instant::now();
    for shard in 0..store.num_shards() {
        tracer.begin("core.train", n);
        let report = store
            .shard_mut(shard)
            .system_mut()
            .train(0, plan.train_end_secs())
            .map_err(|e| format!("train shard {shard}: {e}"))?;
        tracer.end();
        out.clusters += report.clusters.len();
        out.unhealthy += report
            .clusters
            .iter()
            .filter(|c| c.status != ClusterStatus::Healthy)
            .count();
        out.exec.queued += report.exec.queued;
        out.exec.executed += report.exec.executed;
        out.exec.stolen += report.exec.stolen;
        out.exec.workers = report.exec.workers;
    }
    out.secs = t0.elapsed().as_secs_f64();
    tracer.end();
    Ok(out)
}

/// Each cluster's member-mean arrival series over history + holdout,
/// in cluster order. The representative a cluster trains on is the
/// member mean, so this is the series its forecasts are about.
pub fn cluster_series(plan: &Plan, sys: &DbAugur) -> Vec<Vec<f64>> {
    let bins = plan.history_bins + plan.holdout_bins;
    let traces =
        sys.registry()
            .arrival_traces(0, bins * crate::gen::BIN_SECS, crate::gen::BIN_SECS);
    sys.clusters()
        .iter()
        .map(|cluster| {
            let mut sum = vec![0.0f64; bins as usize];
            let mut members = 0usize;
            for &g in &cluster.summary.members {
                let Some(trace) = sys.trace_name(g).and_then(|name| traces.get(name)) else {
                    continue;
                };
                for (s, v) in sum.iter_mut().zip(trace.values()) {
                    *s += v;
                }
                members += 1;
            }
            sum.iter().map(|s| s / members.max(1) as f64).collect()
        })
        .collect()
}

/// Rolling one-step holdout error: for every holdout bin, each cluster
/// predicts from the 30 actual bins before it; squared errors are
/// pooled over clusters and shards and divided by the pooled squared
/// error of predicting the previous bin's value. Below 1 beats
/// last-value-naive. Bit-reproducible for a seed.
pub fn holdout_nmse(plan: &Plan, store: &ShardedDurable) -> f64 {
    let (mut model, mut naive) = (0.0f64, 0.0f64);
    let first = plan.history_bins as usize;
    let last = first + plan.holdout_bins as usize;
    for shard in 0..store.num_shards() {
        let sys = store.shard(shard).system();
        for (cluster, series) in sys.clusters().iter().zip(cluster_series(plan, sys)) {
            for b in first..last {
                let predicted = cluster.predict_window(&series[b - HISTORY..b]);
                model += (predicted - series[b]).powi(2);
                naive += (series[b - 1] - series[b]).powi(2);
            }
        }
    }
    model / naive
}
