//! `dbaugur` — command-line interface to the workload forecasting
//! system.
//!
//! ```text
//! dbaugur templates <log>                       list query templates by volume
//! dbaugur cluster <wide.csv> [--rho R]          DTW-cluster traces from a CSV
//! dbaugur evaluate <trace.csv> --model NAME     rolling-forecast one trace
//! dbaugur forecast <log> [--topk K]             full pipeline: log → forecasts
//! dbaugur synth <bustracker|alibaba> [--days N] emit a synthetic trace CSV
//! dbaugur checkpoint <dir> [--log FILE]         durable ingest + snapshot generation
//! dbaugur recover <dir>                         restore snapshot + replay WAL
//! dbaugur retrain <dir> --cluster N             synchronously refit one cluster
//! dbaugur lifecycle <dir> [--ticks N]           drift-triggered retrain/shadow/promote loop
//! dbaugur soak [--ticks N] [--seed S]           chaos/soak the serving governor
//! dbaugur soak --shards N [--kill-shard I]      sharded kill-matrix soak (bulkheads)
//! dbaugur shards <dir>                          per-shard health, lineage, bytes
//! dbaugur sim run <plan>                        deterministic full-system simulation
//! dbaugur sim shrink <plan>                     minimize a failing fault schedule
//! dbaugur sim swarm [--schedules N]             seeded compound-fault swarm
//! ```
//!
//! Logs use the `<epoch_secs>\t<sql>` format; trace CSVs use the formats
//! of `dbaugur_trace::io`.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "usage: dbaugur <command> [args]

commands:
  templates <log>                          list query templates by volume
  cluster <wide.csv> [--rho R] [--min N]   DTW-cluster traces from a wide CSV
  evaluate <trace.csv> --model NAME        rolling forecast (LR|ARIMA|KR|MLP|LSTM|GRU|TCN|WFGAN|QB5000|DBAugur)
           [--history T] [--horizon H] [--split FRAC] [--epochs E]
  forecast <log> [--interval S] [--history T] [--horizon H] [--topk K] [--epochs E]
  synth <bustracker|alibaba|periodic|complex> [--days N] [--seed S]
  checkpoint <state-dir> [--log FILE] [--train 0|1] [pipeline flags]
             WAL-first ingest, optional (re)train, write snapshot generation
  recover <state-dir> [pipeline flags]
             restore newest good snapshot, replay WAL, report drift health
  retrain <state-dir> --cluster N [pipeline flags]
             synchronously refit one cluster's ensemble and checkpoint
  lifecycle <state-dir> [--ticks N] [--budget-ms MS] [--min-improve F]
            [--windows W] [--cooldown T] [pipeline flags]
             run the closed-loop lifecycle: reconcile promotions, retrain
             drift-flagged clusters, shadow-evaluate challengers against
             the incumbents, promote winners, checkpoint
  soak [--ticks N] [--seed S] [--base R] [--burst-every T] [--burst-mult M]
       [--forecasts F] [--budget BYTES] [--deadline MS]
             run a seeded overload scenario against the serving governor
             (admission, deadlines, shedding, eviction) in virtual time;
             exits non-zero if the soak's pass criteria fail
  soak --shards N [--kill-shard I] [--kill-kind panic|quarantine]
       [--kill-at FRAC] [--workers W] [--quota Q] [--ticks N] [--seed S]
             sharded kill-matrix soak: inject a one-shard fault and hold
             the bulkhead promises (siblings byte-identical to the
             fault-free run, bounded recovery, availability above gate);
             exits non-zero when any promise breaks
  sim run <plan.plan> [--canary coarse-import|whole-drain]
             execute one deterministic fault schedule against the full
             sharded pipeline on a virtual timeline; every invariant is
             checked after every tick; exits non-zero on any violation.
             The memory-pressure drills are checked-in plans, e.g.
             tests/plans/pressure_ci.plan: a flood past a hard global byte
             ceiling with ENOSPC/EIO on the WAL, spill and migration paths
  sim replay <plan.plan> [--canary ...]
             run the plan twice and require byte-identical digests —
             the determinism contract, checked end to end
  sim shrink <plan.plan> [--out FILE] [--canary ...]
             delta-debug a failing schedule to a minimal reproducer that
             still trips the same invariant, then emit it as a `.plan`
  sim swarm [--schedules N] [--seed S] [--shrinks K]
            [--canary coarse-import|whole-drain] [--out-dir DIR]
             run a seeded swarm of generated compound-fault schedules
             (guaranteed ENOSPC-during-migration-under-pressure slots,
             replay-identity and bulkhead-isolation spot checks, MTTR
             distribution); shrinks failures and writes reproducers to
             --out-dir; exits non-zero unless the swarm is clean
  shards <state-dir> [--shards N] [pipeline flags]
             per-shard fault-domain status: snapshot lineage, resident
             bytes, WAL bytes, durability counters, derived health and
             breaker state, and any migration overrides in force

pipeline flags (must match between checkpoint and recover):
  [--interval S] [--history T] [--horizon H] [--topk K] [--epochs E]
  [--threads N]  worker threads for clustering/training (0 = all cores;
                 results are identical for any value)
  [--shards N]   shard fault domains for durable state (deployment
                 choice, never part of the snapshot fingerprint)
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        eprint!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "templates" => commands::templates(&args),
        "cluster" => commands::cluster(&args),
        "evaluate" => commands::evaluate(&args),
        "forecast" => commands::forecast(&args),
        "synth" => commands::synth(&args),
        "checkpoint" => commands::checkpoint(&args),
        "recover" => commands::recover(&args),
        "retrain" => commands::retrain(&args),
        "lifecycle" => commands::lifecycle(&args),
        "shards" => commands::shards(&args),
        "soak" => commands::soak(&args),
        "sim" => commands::sim(&args),
        other => Err(format!("unknown command {other:?}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
