//! The serve stage: a `Supervisor<PipelineEngine>` whose shards are
//! rebuilt from the trained store's snapshot blobs, driven one tick at
//! a time by one client — `forecasts_per_tick` Zipf forecasts (and, for
//! the mixed workload, `ingests_per_tick` ingests) are submitted, then
//! `run_tick` answers them. Admission is sized so nothing sheds.

use crate::gen::{Periodic, Rng, Zipf};
use crate::plan::Plan;
use crate::spans::Tracer;
use crate::stats::percentile;
use dbaugur::DbAugur;
use dbaugur_exec::Executor;
use dbaugur_serve::{PipelineEngine, ServeConfig};
use dbaugur_shard::{HealthPolicy, Supervisor, SupervisorConfig};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

pub type Sup = Supervisor<PipelineEngine>;

/// One snapshot blob per shard, shared with the supervisor's factory.
pub type Blobs = Arc<Vec<Vec<u8>>>;

pub fn supervisor(plan: &Plan, blobs: &Blobs) -> Sup {
    let serve = ServeConfig {
        // Nothing may shed or evict: the workload has no failing
        // operation, so every refusal would be a defect.
        rate_capacity: 1e12,
        refill_per_ms: 1e12,
        forecast_queue_cap: plan.forecasts_per_tick.max(64),
        ingest_queue_cap: plan.ingests_per_tick.max(1_024),
        memory_budget_bytes: 1 << 40,
        ..ServeConfig::default()
    };
    let cfg = SupervisorConfig {
        shards: plan.shards,
        serve,
        policy: HealthPolicy::default(),
        tenant_quota_per_tick: 0,
        arbiter: None,
    };
    let db_cfg = plan.db_cfg();
    let blobs = Arc::clone(blobs);
    Supervisor::new(cfg, Arc::new(Executor::new(1)), move |shard| {
        let sys = DbAugur::decode_snapshot(db_cfg.clone(), &blobs[shard])
            .expect("a snapshot this process just encoded decodes");
        PipelineEngine::new(sys)
    })
}

/// The request side of the stage: which templates have a forecast, and
/// which trained cluster answers each.
pub struct Requests {
    /// Templates a trained cluster covers (Zipf rank order).
    pub covered: Vec<usize>,
    /// `(shard, cluster index)` answering each template, if any.
    pub cluster_of: Vec<Option<(usize, usize)>>,
    zipf: Zipf,
    base_ts: u64,
}

impl Requests {
    /// Find the covered templates by asking each shard's pipeline.
    pub fn discover(plan: &Plan, periodic: &Periodic, sup: &Sup) -> Result<Self, String> {
        let mut covered = Vec::new();
        let mut cluster_of = vec![None; plan.templates];
        for (t, slot) in cluster_of.iter_mut().enumerate() {
            let sql = periodic.sql(t, 0);
            let shard = sup.route(&sql);
            let sys = sup.governor(shard).engine().system();
            let Some(id) = sys.registry().lookup(&sql) else {
                continue;
            };
            let name = format!("template:{}", id.0);
            let cluster = sys.clusters().iter().position(|c| {
                c.summary
                    .members
                    .iter()
                    .any(|&g| sys.trace_name(g) == Some(name.as_str()))
            });
            if let Some(cluster) = cluster {
                covered.push(t);
                *slot = Some((shard, cluster));
            }
        }
        if covered.is_empty() {
            return Err("serve: no template has a trained forecast".into());
        }
        let zipf = Zipf::new(covered.len());
        let base_ts = (plan.history_bins + plan.holdout_bins) * crate::gen::BIN_SECS;
        Ok(Self {
            covered,
            cluster_of,
            zipf,
            base_ts,
        })
    }
}

pub struct Request {
    pub template: usize,
    pub sql: String,
}

/// One pass's statements per tick, generated before the clock starts.
pub struct Batch {
    pub forecasts: Vec<Vec<Request>>,
    pub ingests: Vec<Vec<Request>>,
}

pub fn batch(
    plan: &Plan,
    periodic: &Periodic,
    req: &Requests,
    seed: u64,
    pass: u64,
    ticks: usize,
) -> Batch {
    let mut rng = Rng::new(seed ^ 0x5345_5256_4500_0000 ^ pass.wrapping_mul(0x9E37_79B9));
    let mut forecasts = Vec::with_capacity(ticks);
    let mut ingests = Vec::with_capacity(ticks);
    let mut hot = 0usize;
    for _ in 0..ticks {
        forecasts.push(
            (0..plan.forecasts_per_tick)
                .map(|_| {
                    let template = req.covered[req.zipf.draw(&mut rng)];
                    Request {
                        template,
                        sql: periodic.sql(template, rng.below(100_000)),
                    }
                })
                .collect(),
        );
        ingests.push(
            (0..plan.ingests_per_tick)
                .map(|_| {
                    hot += 1;
                    let template = hot % plan.templates;
                    Request {
                        template,
                        sql: periodic.sql(template, rng.below(100_000)),
                    }
                })
                .collect(),
        );
    }
    Batch { forecasts, ingests }
}

#[derive(Debug, Clone)]
pub struct ServePass {
    pub forecasts_per_s: f64,
    /// Ingests applied per second of the same loop (mixed workload).
    pub ingests_per_s: f64,
    /// One latency per tick in nanoseconds, ascending.
    pub lat_ns: Vec<u64>,
    pub forecasts: u64,
    pub ingests: u64,
    /// Requests refused at submit.
    pub refused: u64,
    /// Mean over ticks of distinct answering clusters / forecasts.
    pub clusters_per_tick: f64,
}

impl ServePass {
    /// Percentile `q` of the pass's latencies in microseconds. The run
    /// fails loudly when the pass was sized too small to support it.
    pub fn latency_us(&self, q: f64) -> f64 {
        percentile(&self.lat_ns, q)
            .unwrap_or_else(|| {
                panic!(
                    "forecast latency: {} samples cannot support p{}",
                    self.lat_ns.len(),
                    q * 100.0
                )
            })
            .value as f64
            / 1e3
    }
}

/// Drive one batch through the supervisor. A tick's forecasts are all
/// answered by the one `run_tick`, so their latencies are not
/// independent samples: a tick contributes one, that of the forecast
/// submitted first, which waited longest.
pub fn drive(
    sup: &mut Sup,
    req: &Requests,
    batch: &Batch,
    tracer: &mut Tracer,
    pass: u64,
) -> ServePass {
    let mut lat_ns: Vec<u64> = Vec::with_capacity(batch.forecasts.len());
    let (mut forecasts, mut ingests, mut refused) = (0u64, 0u64, 0u64);
    let mut cluster_ratio = 0.0f64;
    let mut distinct: HashSet<(usize, usize)> = HashSet::new();
    tracer.begin("serve.pass", pass);
    let t0 = Instant::now();
    for (tick, (fs, is)) in batch.forecasts.iter().zip(&batch.ingests).enumerate() {
        let request = pass << 32 | tick as u64;
        let first = Instant::now();
        let mut start = first;
        for f in fs {
            let decision = sup.submit_forecast("bench", &f.sql, 0);
            if tracer.enabled() {
                let end = Instant::now();
                tracer.record("shard.submit_forecast", request, start, end);
                start = end;
            }
            refused += u64::from(!decision.is_admitted());
        }
        let ts_secs = req.base_ts + tick as u64;
        tracer.begin("shard.submit_ingest", request);
        for i in is {
            refused += u64::from(!sup.submit_ingest("bench", ts_secs, &i.sql, 0).is_admitted());
        }
        tracer.end();
        tracer.begin("shard.run_tick", request);
        sup.run_tick(0);
        tracer.end();
        lat_ns.push(first.elapsed().as_nanos() as u64);
        forecasts += fs.len() as u64;
        ingests += is.len() as u64;
        if tracer.enabled() {
            distinct.clear();
            distinct.extend(fs.iter().filter_map(|f| req.cluster_of[f.template]));
            cluster_ratio += distinct.len() as f64 / fs.len().max(1) as f64;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    tracer.end();
    lat_ns.sort_unstable();
    ServePass {
        forecasts_per_s: forecasts as f64 / secs,
        ingests_per_s: ingests as f64 / secs,
        lat_ns,
        forecasts,
        ingests,
        refused,
        clusters_per_tick: cluster_ratio / batch.forecasts.len().max(1) as f64,
    }
}

/// Books of a supervisor after `forecasts` + `ingests` requests: every
/// forecast answered fresh, nothing degraded or shed, ledgers
/// reconcile. Returns the failed checks and how many requests failed.
pub fn check_books(sup: &Sup, forecasts: u64, ingests: u64) -> (Vec<String>, u64) {
    let mut failed = Vec::new();
    let (mut fresh, mut degraded, mut shed, mut ingested) = (0u64, 0u64, 0u64, 0u64);
    for shard in 0..sup.num_shards() {
        let s = sup.merged_stats(shard);
        fresh += s.completed_fresh;
        degraded += s.completed_degraded;
        shed += s.shed_total();
        ingested += s.ingested;
    }
    let st = sup.stats();
    shed += st.shed_tenant_quota + st.shed_shard_unavailable + st.failover_floors;
    if fresh != forecasts {
        failed.push(format!(
            "serve: {fresh} fresh answers for {forecasts} forecasts"
        ));
    }
    if ingested != ingests {
        failed.push(format!("serve: {ingested} applied of {ingests} ingests"));
    }
    if degraded != 0 || shed != 0 {
        failed.push(format!("serve: {degraded} degraded, {shed} shed"));
    }
    if !sup.reconciles() {
        failed.push("serve: supervisor books do not reconcile".into());
    }
    (
        failed,
        degraded + shed + forecasts.saturating_sub(fresh + degraded),
    )
}
