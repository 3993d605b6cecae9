//! The recover stage: checkpoint the trained store, stream a WAL tail
//! on top, drop it without a checkpoint, then time `open` through the
//! first answered forecast (MTTR). Every pass reopens the same on-disk
//! state — a snapshot generation plus the tail — and nothing a pass does
//! changes it.

use crate::gen::Periodic;
use crate::plan::Plan;
use crate::setup::load_events;
use crate::spans::Tracer;
use dbaugur_shard::ShardedDurable;
use std::path::Path;
use std::time::Instant;

/// What the store answered before the crash, to hold recovery to.
pub struct PreCrash {
    /// `(template, forecast bits)` for every covered template.
    pub forecasts: Vec<(usize, u64)>,
    pub tail_records: usize,
}

/// Checkpoint, stream the tail, note every covered forecast, drop.
pub fn crash(
    plan: &Plan,
    mut store: ShardedDurable,
    periodic: &Periodic,
    template_shard: &[usize],
    covered: &[usize],
) -> Result<PreCrash, String> {
    store
        .checkpoint_all()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let from = plan.history_bins + plan.holdout_bins;
    let tail_records = load_events(
        &mut store,
        periodic,
        template_shard,
        from,
        from + plan.tail_bins,
    )
    .map_err(|e| format!("stream WAL tail: {e}"))?;
    let forecasts = covered
        .iter()
        .map(|&t| {
            store
                .forecast(&periodic.sql(t, 0))
                .map(|v| (t, v.to_bits()))
                .ok_or_else(|| format!("recover: covered template {t} has no forecast"))
        })
        .collect::<Result<_, _>>()?;
    drop(store);
    Ok(PreCrash {
        forecasts,
        tail_records,
    })
}

pub struct RecoverPass {
    pub secs: f64,
    pub store: ShardedDurable,
}

/// One timed recovery: open through the first answered forecast.
pub fn pass(
    plan: &Plan,
    dir: &Path,
    periodic: &Periodic,
    pre: &PreCrash,
    tracer: &mut Tracer,
    n: u64,
) -> Result<RecoverPass, String> {
    let first = periodic.sql(pre.forecasts[0].0, 1);
    tracer.begin("recover.pass", n);
    let t0 = Instant::now();
    tracer.begin("shard.open", n);
    let store =
        ShardedDurable::open(dir, plan.db_cfg()).map_err(|e| format!("recover open: {e}"))?;
    tracer.end();
    tracer.begin("core.forecast_template", n);
    let answered = store.forecast(&first);
    tracer.end();
    let secs = t0.elapsed().as_secs_f64();
    tracer.end();
    if answered.is_none() {
        return Err("recover: the first forecast after recovery was not answered".into());
    }
    Ok(RecoverPass { secs, store })
}

/// Recovery must lose nothing acked and change no answer: the whole
/// tail replays, and every covered template forecasts bitwise what it
/// did before the crash. Returns the failed checks.
pub fn check(store: &ShardedDurable, periodic: &Periodic, pre: &PreCrash) -> Vec<String> {
    let mut failed = Vec::new();
    let replayed: usize = store.recovery_reports().iter().map(|r| r.wal_applied).sum();
    if replayed != pre.tail_records {
        failed.push(format!(
            "recover: replayed {replayed} of {} tail records",
            pre.tail_records
        ));
    }
    let torn = store
        .recovery_reports()
        .iter()
        .filter(|r| r.wal_torn)
        .count();
    if torn != 0 {
        failed.push(format!("recover: {torn} shards reported a torn WAL"));
    }
    let changed = pre
        .forecasts
        .iter()
        .filter(|(t, bits)| store.forecast(&periodic.sql(*t, 0)).map(f64::to_bits) != Some(*bits))
        .count();
    if changed != 0 {
        failed.push(format!(
            "recover: {changed} forecasts differ from before the crash"
        ));
    }
    failed
}
