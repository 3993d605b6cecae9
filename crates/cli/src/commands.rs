//! The CLI subcommand implementations.

use crate::args::Args;
use dbaugur::{DbAugur, DbAugurConfig, DurableDbAugur};
use dbaugur_cluster::{select_top_k, Descender, DescenderParams};
use dbaugur_dtw::DtwDistance;
use dbaugur_models::eval::rolling_forecast;
use dbaugur_models::{
    Arima, Forecaster, GruForecaster, KernelRegression, LinearRegression, LstmForecaster,
    MlpForecaster, Qb5000, TcnForecaster, TimeSensitiveEnsemble, Wfgan,
};
use dbaugur_exec::Deadline;
use dbaugur_lifecycle::{LifecycleConfig, LifecycleManager};
use dbaugur_serve::{run_soak, SoakConfig};
use dbaugur_shard::{
    run_shard_soak, BreakerState, KillKind, ShardSoakConfig, ShardState, ShardedDurable,
};
use dbaugur_sim::CanaryBug;
use dbaugur_sqlproc::TemplateRegistry;
use dbaugur_trace::{io as trace_io, synth, TraceKind, WindowSpec};
use std::error::Error;
use std::fs;
use std::path::Path;

type CmdResult = Result<(), Box<dyn Error>>;

/// Build the pipeline configuration from the shared flags. `checkpoint`
/// and `recover` must construct identical configurations or the
/// snapshot fingerprint check will (rightly) refuse to load.
fn pipeline_cfg(args: &Args) -> Result<DbAugurConfig, Box<dyn Error>> {
    let mut cfg = DbAugurConfig {
        interval_secs: args.flag_num("interval", 600)?,
        history: args.flag_num("history", 30)?,
        horizon: args.flag_num("horizon", 1)?,
        top_k: args.flag_num("topk", 5)?,
        epochs: args.flag_num("epochs", 10)?,
        // 0 = all cores; results are identical for any worker count,
        // so --threads never perturbs the snapshot fingerprint.
        threads: args.flag_num("threads", 0)?,
        // Shard fault domains. Like --threads, excluded from the
        // snapshot fingerprint: each shard directory carries its own
        // lineage, and the count is a deployment choice, not a
        // statement about the data.
        shards: args.flag_num("shards", 1)?,
        ..DbAugurConfig::default()
    };
    cfg.clustering.min_size = 1;
    Ok(cfg)
}

/// Print one per-cluster health line (training status + drift verdict).
fn print_health(sys: &DbAugur) {
    for h in sys.drift_report() {
        let ratio = match h.error_ratio {
            Some(r) => format!("{r:.2}"),
            None => "n/a".to_string(),
        };
        println!(
            "cluster {} ({}): {} | drift {} | error ratio {ratio}{}",
            h.cluster_id,
            h.representative,
            h.status,
            h.drift,
            if h.retrain_recommended { " | RETRAIN RECOMMENDED" } else { "" }
        );
    }
}

/// `templates <log>` — parse a query log and list templates by volume.
pub fn templates(args: &Args) -> CmdResult {
    args.check_flags(&["top"])?;
    let path = args.positional(0, "log")?;
    let text = fs::read_to_string(path)?;
    let mut reg = TemplateRegistry::new();
    let mut records = 0usize;
    for line in text.lines() {
        if let Some(rec) = dbaugur_sqlproc::parse_log_line(line) {
            reg.observe(&rec.sql, rec.ts_secs);
            records += 1;
        }
    }
    let top: usize = args.flag_num("top", 20)?;
    println!("{records} records → {} templates", reg.num_templates());
    println!("{:>10}  template", "count");
    for (id, count) in reg.by_volume_desc().into_iter().take(top) {
        println!("{count:>10}  {}", reg.template(id));
    }
    Ok(())
}

/// `cluster <wide.csv>` — DTW-cluster equal-length traces.
pub fn cluster(args: &Args) -> CmdResult {
    args.check_flags(&["rho", "min", "window", "interval", "threads"])?;
    let path = args.positional(0, "wide.csv")?;
    let text = fs::read_to_string(path)?;
    let interval: u64 = args.flag_num("interval", 600)?;
    let traces = trace_io::parse_wide(&text, TraceKind::Query, interval)?;
    let params = DescenderParams {
        rho: args.flag_num("rho", 3.0)?,
        min_size: args.flag_num("min", 2)?,
        normalize: true,
    };
    let window: usize = args.flag_num("window", 14)?;
    let threads: usize = args.flag_num("threads", 0)?;
    let mut descender = Descender::new(params, DtwDistance::new(window));
    if threads != 0 {
        descender = descender
            .with_executor(std::sync::Arc::new(dbaugur::exec::Executor::new(threads)));
    }
    let clustering = descender.cluster(&traces);
    println!(
        "{} traces → {} clusters, {} outliers",
        traces.len(),
        clustering.num_clusters,
        clustering.outliers().len()
    );
    for summary in select_top_k(&traces, &clustering, usize::MAX) {
        let names: Vec<&str> =
            summary.members.iter().map(|&m| traces[m].name.as_str()).collect();
        println!(
            "cluster {} (volume {:.0}): {}",
            summary.cluster_id,
            summary.volume,
            names.join(", ")
        );
    }
    for o in clustering.outliers() {
        println!("outlier: {}", traces[o].name);
    }
    Ok(())
}

/// Build a named model with a CLI-chosen epoch budget.
fn make_model(name: &str, epochs: usize) -> Result<Box<dyn Forecaster>, Box<dyn Error>> {
    Ok(match name {
        "LR" => Box::new(LinearRegression::default()),
        "ARIMA" => Box::new(Arima::paper_default()),
        "KR" => Box::new(KernelRegression::default()),
        "MLP" => Box::new(MlpForecaster::new(0).with_epochs(epochs)),
        "LSTM" => Box::new(LstmForecaster::new(0).with_epochs(epochs)),
        "GRU" => Box::new(GruForecaster::new(0).with_epochs(epochs)),
        "TCN" => Box::new(TcnForecaster::new(0).with_epochs(epochs)),
        "WFGAN" => Box::new(Wfgan::new(0).with_epochs(epochs)),
        "QB5000" => Box::new(Qb5000::new(0)),
        "DBAugur" => Box::new(TimeSensitiveEnsemble::dbaugur(0)),
        other => return Err(format!("unknown model {other:?}").into()),
    })
}

/// `evaluate <trace.csv> --model NAME` — rolling forecast over the tail.
pub fn evaluate(args: &Args) -> CmdResult {
    args.check_flags(&["model", "history", "horizon", "split", "epochs", "interval"])?;
    let path = args.positional(0, "trace.csv")?;
    let text = fs::read_to_string(path)?;
    let interval: u64 = args.flag_num("interval", 600)?;
    let trace = trace_io::parse_single(&text, path, TraceKind::Query, interval)?;
    let history: usize = args.flag_num("history", 30)?;
    let horizon: usize = args.flag_num("horizon", 1)?;
    let split_frac: f64 = args.flag_num("split", 0.7)?;
    let epochs: usize = args.flag_num("epochs", 20)?;
    let model_name = args.flag("model").ok_or("--model is required")?;
    let mut model = make_model(model_name, epochs)?;
    let split = (trace.len() as f64 * split_frac) as usize;
    let spec = WindowSpec::new(history, horizon);
    let rep = rolling_forecast(model.as_mut(), trace.values(), split, spec)
        .ok_or("trace too short for this history/horizon")?;
    println!(
        "{model_name} on {path}: {} test points, MSE {:.6}, MAE {:.6}",
        rep.targets.len(),
        rep.mse,
        rep.mae
    );
    Ok(())
}

/// `forecast <log>` — full pipeline from a query log.
pub fn forecast(args: &Args) -> CmdResult {
    args.check_flags(&["interval", "history", "horizon", "topk", "epochs", "threads", "shards"])?;
    let path = args.positional(0, "log")?;
    let text = fs::read_to_string(path)?;
    let cfg = pipeline_cfg(args)?;
    let mut system = DbAugur::new(cfg);
    let ingest = system.ingest_log_report(&text);
    let n = ingest.ingested;
    if n == 0 {
        return Err("no parseable records in the log".into());
    }
    if ingest.skipped > 0 {
        println!("warning: {} damaged log lines skipped", ingest.skipped);
    }
    // Train over the observed time span.
    let (start, end) = {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for line in text.lines() {
            if let Some(rec) = dbaugur_sqlproc::parse_log_line(line) {
                min = min.min(rec.ts_secs);
                max = max.max(rec.ts_secs);
            }
        }
        (min, max + 1)
    };
    println!("{n} records, {} templates, span {}s", system.num_templates(), end - start);
    let report = system.train(start, end)?;
    if !report.is_fully_healthy() {
        println!(
            "training: {} healthy / {} degraded / {} failed clusters, {} samples repaired, {} short traces dropped",
            report.healthy_count(),
            report.degraded_count(),
            report.failed_count(),
            report.repaired_samples,
            report.dropped_traces
        );
        for c in report.clusters.iter().filter(|c| c.detail.is_some()) {
            println!(
                "  cluster {} ({}): {} — {}",
                c.cluster_id,
                c.representative,
                c.status,
                c.detail.as_deref().unwrap_or("")
            );
        }
    }
    for (i, cluster) in system.clusters().iter().enumerate() {
        let f = system.forecast_cluster(i).expect("trained cluster");
        println!(
            "cluster {i} [{} | drift {}]: {} traces, volume {:.0}, next-interval forecast {:.2}",
            cluster.status(),
            cluster.drift_state(),
            cluster.summary.members.len(),
            cluster.summary.volume,
            f
        );
    }
    Ok(())
}

/// `checkpoint <state-dir>` — open (or create) a durable state
/// directory, optionally ingest a log through the write-ahead log,
/// optionally (re)train, and fold everything into a new snapshot
/// generation.
pub fn checkpoint(args: &Args) -> CmdResult {
    args.check_flags(&["log", "train", "interval", "history", "horizon", "topk", "epochs", "threads", "shards"])?;
    let dir = args.positional(0, "state-dir")?;
    let cfg = pipeline_cfg(args)?;
    let (mut durable, report) = DurableDbAugur::open(Path::new(dir), cfg)?;
    if let Some(gen) = report.generation {
        println!("opened generation {gen}, {} wal entries replayed", report.wal_applied);
    }
    let mut span: Option<(u64, u64)> = None;
    if let Some(log_path) = args.flag("log") {
        let text = fs::read_to_string(log_path)?;
        let ingest = durable.ingest_log_text(&text)?;
        println!("{} records ingested durably, {} damaged lines skipped", ingest.ingested, ingest.skipped);
        if let Some(off) = ingest.first_skipped_offset {
            println!("warning: first damaged line at byte offset {off} of {log_path}");
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for line in text.lines() {
            if let Some(rec) = dbaugur_sqlproc::parse_log_line(line) {
                min = min.min(rec.ts_secs);
                max = max.max(rec.ts_secs);
            }
        }
        if min <= max {
            span = Some((min, max + 1));
        }
    }
    let train: usize = args.flag_num("train", 1)?;
    if train != 0 {
        if let Some((start, end)) = span {
            let report = durable.system_mut().train(start, end)?;
            println!(
                "trained: {} healthy / {} degraded / {} failed clusters",
                report.healthy_count(),
                report.degraded_count(),
                report.failed_count()
            );
        }
    }
    let gen = durable.checkpoint()?;
    println!(
        "checkpoint generation {gen} written, wal truncated ({} templates, {} clusters)",
        durable.system().num_templates(),
        durable.system().clusters().len()
    );
    print_health(durable.system());
    Ok(())
}

/// `recover <state-dir>` — restore the newest good snapshot, replay the
/// write-ahead log, and report the health of what came back.
pub fn recover(args: &Args) -> CmdResult {
    args.check_flags(&["interval", "history", "horizon", "topk", "epochs", "threads", "shards"])?;
    let dir = args.positional(0, "state-dir")?;
    let cfg = pipeline_cfg(args)?;
    let (sys, report) = DbAugur::recover(Path::new(dir), cfg)?;
    match report.generation {
        Some(gen) => println!("restored generation {gen}"),
        None => println!("no usable snapshot, started empty"),
    }
    if report.corrupted_generations > 0 {
        println!("warning: {} corrupted generations skipped", report.corrupted_generations);
    }
    println!(
        "wal: {} entries replayed, {} already in snapshot{}",
        report.wal_applied,
        report.wal_skipped,
        if report.wal_torn { ", torn tail discarded" } else { "" }
    );
    println!(
        "state: {} templates, {} resource traces, {} trained clusters",
        sys.num_templates(),
        sys.resources().len(),
        sys.clusters().len()
    );
    print_health(&sys);
    Ok(())
}

/// `retrain <state-dir> --cluster N` — synchronously refit one
/// cluster's ensemble on its representative plus buffered recent
/// observations, fold the result into a new snapshot generation, and
/// report drift health. The manual escape hatch when an operator wants
/// a retrain *now* rather than waiting for the lifecycle loop.
pub fn retrain(args: &Args) -> CmdResult {
    args.check_flags(&["cluster", "interval", "history", "horizon", "topk", "epochs", "threads", "shards"])?;
    let dir = args.positional(0, "state-dir")?;
    let cfg = pipeline_cfg(args)?;
    let (mut durable, report) = DurableDbAugur::open(Path::new(dir), cfg)?;
    match report.generation {
        Some(gen) => println!("opened generation {gen}, {} wal entries replayed", report.wal_applied),
        None => return Err("no trained state in this directory (run checkpoint first)".into()),
    }
    let i: usize = args
        .flag("cluster")
        .ok_or("--cluster is required")?
        .parse()
        .map_err(|_| "--cluster must be a cluster index")?;
    let rep = durable
        .system_mut()
        .retrain_cluster(i)
        .map_err(|e| format!("retrain of cluster {i} failed: {e}"))?;
    println!(
        "cluster {i} ({}) retrained: {}{}",
        rep.representative,
        rep.status,
        rep.detail.as_deref().map(|d| format!(" — {d}")).unwrap_or_default()
    );
    let gen = durable.checkpoint()?;
    println!("checkpoint generation {gen} written");
    print_health(durable.system());
    Ok(())
}

/// `lifecycle <state-dir>` — run the closed-loop model lifecycle over
/// recovered state: reconcile any promotions newer than the snapshot,
/// then scan for drift, train challengers, shadow-evaluate them
/// against the incumbents, and promote the winners. Finishes with a
/// checkpoint so the registry and snapshot agree on disk.
pub fn lifecycle(args: &Args) -> CmdResult {
    args.check_flags(&[
        "ticks", "budget-ms", "min-improve", "windows", "cooldown", "interval", "history",
        "horizon", "topk", "epochs", "threads", "shards",
    ])?;
    let dir = args.positional(0, "state-dir")?;
    let cfg = pipeline_cfg(args)?;
    let (mut durable, report) = DurableDbAugur::open(Path::new(dir), cfg)?;
    match report.generation {
        Some(gen) => println!("opened generation {gen}, {} wal entries replayed", report.wal_applied),
        None => return Err("no trained state in this directory (run checkpoint first)".into()),
    }

    let defaults = LifecycleConfig::default();
    let lc_cfg = LifecycleConfig {
        min_improvement: args.flag_num("min-improve", defaults.min_improvement)?,
        min_eval_windows: args.flag_num("windows", defaults.min_eval_windows)?,
        cooldown_ticks: args.flag_num("cooldown", defaults.cooldown_ticks)?,
        ..defaults
    };
    lc_cfg.validate()?;
    let mut mgr = LifecycleManager::open(lc_cfg, Path::new(dir));
    if mgr.registry_corrupt() {
        println!("warning: lifecycle registry was corrupt; starting a fresh one (champions keep serving)");
    }
    let applied = mgr.reconcile(durable.system_mut());
    if applied > 0 {
        println!("reconciled {applied} promotion(s) newer than the recovered snapshot");
    }

    let ticks: u64 = args.flag_num("ticks", 4)?;
    let budget_ms: u64 = args.flag_num("budget-ms", 0)?;
    for _ in 0..ticks {
        let deadline =
            if budget_ms == 0 { Deadline::none() } else { Deadline::in_millis(budget_ms) };
        let rep = mgr.tick(durable.system_mut(), &deadline);
        println!(
            "tick {}: {} scanned, {} flagged ({} cooling, {} deferred), {} retrained → {} promoted, {} rejected, {} expired, {} failed",
            rep.tick,
            rep.scanned,
            rep.flagged,
            rep.cooling,
            rep.deferred,
            rep.attempted,
            rep.promoted.len(),
            rep.rejected.len(),
            rep.expired,
            rep.failed
        );
    }

    for ev in mgr.events() {
        println!(
            "event: tick {} cluster {} {} (champion sMAPE {:.2}, challenger {:.2}) → generation {}",
            ev.tick, ev.cluster, ev.kind, ev.champion_smape, ev.challenger_smape, ev.generation
        );
    }
    for c in mgr.report(durable.system()) {
        println!(
            "cluster {} ({}): drift {} | generation {} | {} archived | cooldown {}{}",
            c.cluster,
            c.representative,
            c.drift,
            c.generation,
            c.archived,
            c.cooldown_remaining,
            if c.retrain_recommended { " | RETRAIN RECOMMENDED" } else { "" }
        );
    }
    let s = mgr.stats();
    println!(
        "lifecycle: {} promotions, {} rejections, {} rollbacks, {} expired, {} failed",
        s.promotions, s.rejections, s.rollbacks, s.expired, s.failed
    );
    let gen = durable.checkpoint()?;
    println!("checkpoint generation {gen} written");
    Ok(())
}

/// `soak` — run a seeded overload scenario against the serving
/// governor in virtual time and report how it held up. Exits non-zero
/// when the pass criteria (books reconcile, memory bounded, recovery
/// after the burst) do not hold, so it can gate CI.
pub fn soak(args: &Args) -> CmdResult {
    args.check_flags(&[
        "seed", "ticks", "base", "burst-every", "burst-mult", "forecasts", "budget", "deadline",
        "shards", "kill-shard", "kill-at", "kill-kind", "workers", "quota",
    ])?;
    // `--shards N` (N > 0) switches to the sharded kill-matrix soak:
    // bulkhead isolation under an injected one-shard fault.
    let shards: usize = args.flag_num("shards", 0)?;
    if shards > 0 {
        return shard_soak(args, shards);
    }
    let mut cfg = SoakConfig {
        seed: args.flag_num("seed", SoakConfig::default().seed)?,
        ticks: args.flag_num("ticks", 400)?,
        base_ingest_per_tick: args.flag_num("base", 20)?,
        burst_every: args.flag_num("burst-every", 40)?,
        burst_mult: args.flag_num("burst-mult", 10)?,
        forecasts_per_tick: args.flag_num("forecasts", 4)?,
        ..SoakConfig::default()
    };
    cfg.serve.memory_budget_bytes =
        args.flag_num("budget", cfg.serve.memory_budget_bytes)?;
    cfg.serve.forecast_deadline_ms =
        args.flag_num("deadline", cfg.serve.forecast_deadline_ms)?;

    let rep = run_soak(&cfg);
    let s = &rep.stats;
    println!(
        "soak: seed {:#x}, {} ticks ({} virtual ms), burst x{} every {} ticks",
        cfg.seed, cfg.ticks, rep.virtual_ms, cfg.burst_mult, cfg.burst_every
    );
    println!(
        "forecasts: {} offered / {} admitted / {} shed (queue {} + rate {}), {} fresh + {} degraded",
        s.offered_forecasts,
        s.admitted_forecasts,
        s.shed_forecast_queue_full + s.shed_forecast_rate_limited,
        s.shed_forecast_queue_full,
        s.shed_forecast_rate_limited,
        s.completed_fresh,
        s.completed_degraded
    );
    println!(
        "ingest:    {} offered / {} admitted / {} shed (queue {} + rate {}), {} applied",
        s.offered_ingest,
        s.admitted_ingest,
        s.shed_ingest_queue_full + s.shed_ingest_rate_limited,
        s.shed_ingest_queue_full,
        s.shed_ingest_rate_limited,
        s.ingested
    );
    println!(
        "latency:   forecast p50 {:.1} ms, p99 {:.1} ms (deadline {} ms)",
        rep.latency_p50_ms, rep.latency_p99_ms, cfg.serve.forecast_deadline_ms
    );
    println!(
        "memory:    high water {} bytes vs budget {} ({} eviction passes, {} bytes freed)",
        rep.memory_high_water, cfg.serve.memory_budget_bytes, s.eviction_passes, s.eviction_bytes
    );
    println!(
        "health:    {} healthy / {} shedding / {} saturated ticks; tail: {} fresh, {} degraded, {} shed",
        rep.health_ticks.0,
        rep.health_ticks.1,
        rep.health_ticks.2,
        rep.tail_fresh,
        rep.tail_degraded,
        rep.tail_shed
    );
    if rep.passed(&cfg) {
        println!("soak: PASS (books reconcile, memory bounded, recovered after burst)");
        Ok(())
    } else {
        Err(format!(
            "soak: FAIL (reconciled={}, memory_bounded={}, recovered={})",
            rep.reconciled,
            rep.memory_high_water_within(&cfg),
            rep.recovered()
        )
        .into())
    }
}

/// The sharded arm of `soak`: run the seeded workload once fault-free
/// and once with the requested fault, then hold the bulkhead promises —
/// books reconcile, surviving shards serve byte-identical answers,
/// the victim recovers within a bounded number of ticks, and
/// availability through the outage stays above the gate.
fn shard_soak(args: &Args, shards: usize) -> CmdResult {
    let kill_shard = match args.flag("kill-shard") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| format!("--kill-shard {v:?} is not a valid shard index"))?,
        ),
        None => None,
    };
    if let Some(k) = kill_shard {
        if k >= shards {
            return Err(format!("--kill-shard {k} out of range for {shards} shards").into());
        }
    }
    let kill_kind = match args.flag("kill-kind").unwrap_or("quarantine") {
        "panic" => KillKind::PanicMidTick,
        "quarantine" => KillKind::ForceQuarantine,
        other => return Err(format!("--kill-kind {other:?} (panic|quarantine)").into()),
    };
    let cfg = ShardSoakConfig {
        shards,
        seed: args.flag_num("seed", ShardSoakConfig::default().seed)?,
        ticks: args.flag_num("ticks", 60)?,
        workers: args.flag_num("workers", 1)?,
        tenant_quota_per_tick: args.flag_num("quota", 0)?,
        kill_at_frac: args.flag_num("kill-at", 0.25)?,
        kill_shard,
        kill_kind,
        ..ShardSoakConfig::default()
    };
    println!(
        "shard soak: seed {:#x}, {} shards, {} ticks, {} workers{}",
        cfg.seed,
        cfg.shards,
        cfg.ticks,
        cfg.workers,
        match kill_shard {
            Some(k) => format!(", killing shard {k} ({kill_kind:?}) at {:.0}% ", cfg.kill_at_frac * 100.0),
            None => ", fault-free".into(),
        }
    );
    let report = run_shard_soak(&cfg);
    for i in 0..cfg.shards {
        let s = &report.per_shard_stats[i];
        println!(
            "shard {i}: state {} | digest {:016x} | forecasts {}/{} | ingest {}/{} | {} fresh + {} degraded",
            report.final_states[i],
            report.per_shard_digests[i],
            s.admitted_forecasts,
            s.offered_forecasts,
            s.admitted_ingest,
            s.offered_ingest,
            s.completed_fresh,
            s.completed_degraded
        );
    }
    let sup = &report.supervisor;
    println!(
        "supervisor: {} floors answered, {} panics caught, {} in-flight lost, shed {} (quota) + {} (unavailable)",
        sup.failover_floors, sup.panics_caught, sup.lost_in_flight,
        sup.shed_tenant_quota, sup.shed_shard_unavailable
    );

    let mut failures: Vec<String> = Vec::new();
    if !report.reconciled {
        failures.push("books do not reconcile".into());
    }
    if let Some(victim) = kill_shard {
        // The bulkhead promise is relative to the same run without the
        // fault: siblings must not even notice.
        let clean = run_shard_soak(&ShardSoakConfig { kill_shard: None, ..cfg.clone() });
        let divergent: Vec<usize> = (0..cfg.shards)
            .filter(|&i| i != victim && clean.per_shard_digests[i] != report.per_shard_digests[i])
            .collect();
        if !divergent.is_empty() {
            failures.push(format!("sibling shards {divergent:?} diverged from the fault-free run"));
        }
        match report.recovery_ticks {
            Some(t) if t <= 8 => println!(
                "recovery:   shard {victim} hurt at tick {:?}, healthy again after {t} ticks",
                report.kill_tick
            ),
            Some(t) => failures.push(format!("recovery took {t} ticks (budget 8)")),
            None => failures.push("victim never recovered in-run".into()),
        }
        match report.outage {
            Some(o) => {
                println!(
                    "outage:     ticks {}..{}: {}/{} answered (availability {:.3}, shed rate {:.3})",
                    o.from_tick,
                    o.to_tick,
                    o.answered,
                    o.offered,
                    o.availability(),
                    o.shed_rate()
                );
                if o.availability() < 0.5 {
                    failures.push(format!("availability {:.3} below 0.5 gate", o.availability()));
                }
            }
            None => failures.push("no outage window observed".into()),
        }
    }
    if failures.is_empty() {
        println!("shard soak: PASS (isolation, bounded recovery, availability)");
        Ok(())
    } else {
        Err(format!("shard soak: FAIL ({})", failures.join("; ")).into())
    }
}

/// `shards <state-dir>` — per-shard fault-domain status: snapshot
/// lineage, resident footprint, WAL size, durability counters, and the
/// health/breaker state the supervisor would derive from the recovery
/// evidence. Shard count comes from `--shards`, or is inferred from the
/// `shard-*` directories already on disk.
pub fn shards(args: &Args) -> CmdResult {
    args.check_flags(&["interval", "history", "horizon", "topk", "epochs", "threads", "shards"])?;
    let dir = args.positional(0, "state-dir")?;
    let mut cfg = pipeline_cfg(args)?;
    if args.flag("shards").is_none() {
        let found = count_shard_dirs(Path::new(dir));
        if found > 0 {
            cfg.shards = found;
        }
    }
    let sys = ShardedDurable::open(Path::new(dir), cfg)?;
    println!("{} shards under {dir}", sys.num_shards());
    for i in 0..sys.num_shards() {
        let report = &sys.recovery_reports()[i];
        let d = sys.durability(i);
        // Offline view: quarantine is a run-time serving decision, so
        // the strongest statement recovery evidence supports is
        // healthy-or-degraded with the breaker closed.
        let (health, breaker) = if report.wal_torn || report.corrupted_generations > 0 {
            (ShardState::Degraded, BreakerState::Closed)
        } else {
            (ShardState::Healthy, BreakerState::Closed)
        };
        let registry = sys.shard(i).system().registry();
        println!(
            "shard {i}: {health} (breaker {breaker}) | gen {} | {} templates, {} bytes resident | WAL {} bytes",
            report.generation.map_or("none".to_string(), |g| g.to_string()),
            registry.num_templates(),
            registry.approx_bytes(),
            sys.shard(i).wal_len_bytes()?
        );
        println!(
            "         recovery: {} applied + {} skipped{}{}",
            report.wal_applied,
            report.wal_skipped,
            if report.wal_torn {
                ", torn tail salvaged".to_string()
            } else {
                String::new()
            },
            if report.corrupted_generations > 0 {
                format!(", {} corrupt generation(s) skipped", report.corrupted_generations)
            } else {
                String::new()
            },
        );
        println!(
            "         io: retries {} ok / {} exhausted | snapshot fallbacks {} | torn-tail salvages {}",
            d.io_retries, d.retry_exhausted, d.snapshot_fallbacks, d.wal_torn_salvages
        );
        if d.wal_group_flushes_coalesced + d.wal_group_flushes_forced > 0 {
            let flushes = d.wal_group_flushes_coalesced + d.wal_group_flushes_forced;
            let hist: Vec<String> = ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"]
                .iter()
                .zip(d.wal_group_batch_hist.iter())
                .filter(|(_, &n)| n > 0)
                .map(|(label, n)| format!("{label}:{n}"))
                .collect();
            println!(
                "         group commit: {} records / {} fsyncs ({} coalesced, {} forced) | batch sizes {}",
                d.wal_group_records,
                flushes,
                d.wal_group_flushes_coalesced,
                d.wal_group_flushes_forced,
                hist.join(" ")
            );
        }
    }
    if sys.overrides().is_empty() {
        println!("routing: all templates on their hash-home shards");
    } else {
        println!("routing: {} migration override(s) in force", sys.overrides().len());
        let mut moved: Vec<(&String, &usize)> = sys.overrides().iter().collect();
        moved.sort();
        for (template, shard) in moved {
            println!("  {template:?} -> shard {shard}");
        }
    }
    Ok(())
}

/// Count consecutive `shard-<i>` directories under `root` (the layout
/// [`ShardedDurable`] writes), so `shards` can be invoked without
/// repeating `--shards` on every call.
fn count_shard_dirs(root: &Path) -> usize {
    let mut n = 0;
    while root.join(format!("shard-{n}")).is_dir() {
        n += 1;
    }
    n
}

/// `synth <kind>` — print a synthetic trace as single-metric CSV.
pub fn synth(args: &Args) -> CmdResult {
    args.check_flags(&["days", "seed", "out"])?;
    let kind = args.positional(0, "kind")?;
    let days: usize = args.flag_num("days", 7)?;
    let seed: u64 = args.flag_num("seed", 42)?;
    let trace = match kind {
        "bustracker" => synth::bustracker(seed, days),
        "alibaba" => synth::alibaba_disk(seed, days),
        "periodic" => synth::periodic_workload(seed, days, 300.0, 200.0),
        "complex" => synth::complex_workload(seed, days, 300.0),
        other => return Err(format!("unknown synthetic kind {other:?}").into()),
    };
    let csv = trace_io::format_single(&trace);
    match args.flag("out") {
        Some(path) => {
            fs::write(path, csv)?;
            println!("wrote {} samples to {path}", trace.len());
        }
        None => print!("{csv}"),
    }
    Ok(())
}

/// Parse a `--canary` flag into the planted-bug selector.
fn parse_canary(args: &Args) -> Result<CanaryBug, Box<dyn Error>> {
    Ok(match args.flag("canary") {
        None | Some("none") => CanaryBug::None,
        Some("coarse-import") => CanaryBug::CoarseImportCheck,
        Some("whole-drain") => CanaryBug::WholeHistoryDrain,
        Some(other) => {
            return Err(format!(
                "unknown canary {other:?} (coarse-import, whole-drain, none)"
            )
            .into())
        }
    })
}

/// Print the headline counters of one simulation run.
fn print_sim_report(run: &dbaugur_sim::SimReport) {
    println!(
        "ticks {} | offered {} acked {} | shed pressure/breaker/io {}/{}/{}",
        run.ticks_run, run.offered, run.acked, run.shed_pressure, run.shed_breaker, run.shed_io
    );
    println!(
        "faults {} | crashes {} (retried recoveries {}) | migrations ok/failed/refused {}/{}/{}",
        run.faults_injected,
        run.crashes,
        run.recovery_retries,
        run.migrations_completed,
        run.migrations_failed,
        run.migrations_refused
    );
    println!(
        "spilled obs {} (write failures {}) | quarantines {} recoveries {} | digest {:016x}",
        run.spilled_observations, run.spill_write_failures, run.quarantines, run.recoveries,
        run.digest
    );
    // An unlimited-budget world has no arbiter: its ladder counters read 0.
    let a = run.arbiter.unwrap_or_default();
    println!(
        "ceiling peak {} B ({} breaches, {} exhausted ticks) | sheds engaged {} regrants {} | ENOSPC/EIO {}/{} | pending spills {} | heat max/mean tail {:.3}",
        run.resident_peak,
        a.ceiling_breaches,
        a.exhausted_ticks,
        a.pressure_sheds_engaged,
        a.regrants,
        run.enospc_injected,
        run.eio_injected,
        run.pending_spills_final,
        run.heat_ratio_tail
    );
    for v in &run.violations {
        println!("VIOLATION {v}");
    }
}

/// `sim run|replay|shrink|swarm` — deterministic whole-system
/// simulation: execute a `.plan` fault schedule against the full
/// sharded pipeline on a virtual timeline, check invariants after
/// every tick, and shrink failures to minimal reproducers.
pub fn sim(args: &Args) -> CmdResult {
    use dbaugur_sim::{run_plan_with, run_swarm, shrink, SimOptions, SimPlan, SwarmConfig};
    let sub = args.positional(0, "run|replay|shrink|swarm")?;
    match sub {
        "run" | "replay" => {
            args.check_flags(&["canary"])?;
            let path = args.positional(1, "plan")?;
            let plan = SimPlan::parse(&fs::read_to_string(path)?)?;
            let opts = SimOptions { canary: parse_canary(args)?, stop_at_first_violation: false };
            let run = run_plan_with(&plan, &opts);
            print_sim_report(&run);
            if sub == "replay" {
                // The determinism contract, checked end to end: a second
                // execution of the same plan must land on the same digest.
                let again = run_plan_with(&plan, &opts);
                if again.digest == run.digest {
                    println!("replay digest {:016x} — byte-identical", again.digest);
                } else {
                    return Err(format!(
                        "replay diverged: {:016x} then {:016x}",
                        run.digest, again.digest
                    )
                    .into());
                }
            }
            if run.passed() {
                println!("PASS: every invariant held on every tick");
                Ok(())
            } else {
                Err(format!("{} invariant violation(s)", run.violations.len()).into())
            }
        }
        "shrink" => {
            args.check_flags(&["canary", "out"])?;
            let path = args.positional(1, "plan")?;
            let plan = SimPlan::parse(&fs::read_to_string(path)?)?;
            let opts = SimOptions { canary: parse_canary(args)?, stop_at_first_violation: true };
            match shrink(&plan, &opts) {
                None => {
                    println!("plan passes every checker — nothing to shrink");
                    Ok(())
                }
                Some(rep) => {
                    println!(
                        "shrunk {} → {} events, {} → {} ticks in {} oracle runs (trips {})",
                        rep.from_events, rep.to_events, rep.from_ticks, rep.to_ticks, rep.runs,
                        rep.check
                    );
                    let encoded = rep.plan.encode();
                    match args.flag("out") {
                        Some(out) => {
                            fs::write(out, &encoded)?;
                            println!("reproducer written to {out}");
                        }
                        None => print!("{encoded}"),
                    }
                    Ok(())
                }
            }
        }
        "swarm" => {
            args.check_flags(&["schedules", "seed", "canary", "out-dir", "shrinks"])?;
            let cfg = SwarmConfig {
                schedules: args.flag_num("schedules", 200u64)?,
                seed: args.flag_num("seed", 0xD5_5EEDu64)?,
                canary: parse_canary(args)?,
                shrink_failures: true,
                max_shrinks: args.flag_num("shrinks", 4usize)?,
            };
            let report = run_swarm(&cfg);
            println!(
                "swarm: {} schedules, {} passed, {} failed | faults {} crashes {} acked {}",
                report.schedules, report.passed, report.failed, report.faults_injected,
                report.crashes, report.acked
            );
            println!(
                "replay checks {}/{} identical | sibling checks {}/{} isolated",
                report.replay_checked - report.replay_mismatches,
                report.replay_checked,
                report.sibling_checked - report.sibling_mismatches,
                report.sibling_checked
            );
            println!(
                "mttr: {} samples ({} censored) p50 {} p99 {} max {} ticks",
                report.mttr.samples, report.mttr.censored, report.mttr.p50_ticks,
                report.mttr.p99_ticks, report.mttr.max_ticks
            );
            for f in &report.failures {
                println!("FAIL schedule {}: {} — {}", f.index, f.check, f.detail);
                if let Some(s) = &f.shrunk {
                    println!(
                        "  shrunk {} → {} events ({} oracle runs)",
                        s.from_events, s.to_events, s.runs
                    );
                    if let Some(dir) = args.flag("out-dir") {
                        fs::create_dir_all(dir)?;
                        let path = Path::new(dir).join(format!("repro-{}.plan", f.index));
                        fs::write(&path, s.plan.encode())?;
                        println!("  reproducer written to {}", path.display());
                    }
                }
            }
            if report.clean() {
                println!("PASS: swarm clean");
                Ok(())
            } else {
                Err("swarm found violations".into())
            }
        }
        other => Err(format!("unknown sim subcommand {other:?}").into()),
    }
}
