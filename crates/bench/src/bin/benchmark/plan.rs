//! What each workload runs: its own stage or stages at the regime the
//! issue names, with the run's time. The driver asks every workload for
//! every end-to-end metric, so the stages a workload does not own run
//! once beforehand at the one small size [`companion`] sets, on inputs
//! of their own, the same in every workload.

use dbaugur::DbAugurConfig;

/// History window `T` of every model (the paper's 30).
pub const HISTORY: usize = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsKind {
    /// The real filesystem, in a temp directory under the working
    /// directory.
    Disk,
    /// `MemVfs`: same code path, no device.
    Mem,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Ingest,
    Train,
    Serve,
}

/// Timed rounds of a stage at `--seconds 10`, and passes per round. A
/// pass is a fixed operation count; a stage reports its best pass
/// (`stats::best`).
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub rounds: usize,
    pub passes: usize,
}

impl Reps {
    /// Timed rounds in a run measuring for `seconds`. The count follows
    /// `--seconds` and never the measured speed, so the operations
    /// attempted and the allocation sequence (and with it `peak_rss_mb`)
    /// repeat exactly. A traced run times every stage both ways, so it
    /// needs two rounds at least.
    pub fn timed_rounds(self, seconds: f64, trace: bool) -> usize {
        let floor = if trace { 2 } else { 1 };
        ((self.rounds as f64 * seconds / 10.0).round() as usize).max(floor)
    }
}

#[derive(Debug, Clone)]
pub struct Plan {
    /// The stage this workload is about; `Train` also owns recovery.
    pub own: Stage,

    // Ingest stage: `StreamFront` over a 2-shard `ShardedDurable`, a
    // fresh store every round.
    pub ingest_reps: Reps,
    pub ingest_vfs: VfsKind,
    /// Size of the shape universe the statement pool walks.
    pub shapes: usize,
    pub pool_len: usize,
    /// Untimed events at the start of every round: the churn workload's
    /// first lap, which fills the registry so that the timed passes all
    /// see the same 100 000 templates.
    pub warm_events: usize,
    pub events_per_pass: usize,

    // The periodic workload and the models trained on it.
    pub shards: usize,
    pub templates: usize,
    pub history_bins: u64,
    pub holdout_bins: u64,
    pub top_k: usize,
    pub epochs: usize,
    pub max_examples: usize,
    pub train_reps: Reps,

    // Serve stage: requests per tick and ticks per pass.
    pub serve_reps: Reps,
    pub forecasts_per_tick: usize,
    pub ingests_per_tick: usize,
    pub ticks_per_pass: usize,
    /// Ticks of the fixed-size checked pass (warm-up + digests).
    pub warm_ticks: usize,

    // Recover stage: bins of WAL tail streamed after the checkpoint.
    pub recover_reps: Reps,
    pub tail_bins: u64,

    /// Statements replayed by each per-statement probe (traced runs).
    pub probe_statements: usize,
    /// Calls made by each per-call probe, and ticks replayed directly.
    pub probe_calls: usize,
}

impl Plan {
    /// The pipeline configuration every stage of this workload uses.
    pub fn db_cfg(&self) -> DbAugurConfig {
        let mut cfg = DbAugurConfig {
            shards: self.shards,
            interval_secs: crate::gen::BIN_SECS,
            history: HISTORY,
            horizon: 1,
            top_k: self.top_k,
            epochs: self.epochs,
            max_examples: self.max_examples,
            // One worker: the load generator is one closed-loop client
            // and the library runs on the caller's thread.
            threads: 1,
            ..DbAugurConfig::default()
        };
        // DTW distances between z-normalized traces grow with the
        // square root of their length; this keeps ρ between the
        // within-family and between-family distances of the periodic
        // workload at every history length used here.
        cfg.clustering.rho = RHO_PER_SQRT_BIN * (self.history_bins as f64).sqrt();
        cfg
    }

    /// The configuration of the ingest stage's stores: the same
    /// pipeline behind the issue's 2-shard front, whatever the shard
    /// count of the workload's trained store.
    pub fn ingest_cfg(&self) -> DbAugurConfig {
        DbAugurConfig {
            shards: crate::setup::INGEST_SHARDS,
            ..self.db_cfg()
        }
    }

    /// Seconds of history the models train on.
    pub fn train_end_secs(&self) -> u64 {
        self.history_bins * crate::gen::BIN_SECS
    }
}

const RHO_PER_SQRT_BIN: f64 = 0.32;

/// Events of one ingest pass: five `maintain` periods and two arrival
/// bins, so every pass does the same periodic work.
const EVENTS_PER_PASS: usize = 20_480;

/// Ticks of one serve pass: one latency sample per tick, so 1 100 of
/// them put 11 independent samples beyond the p99.
const TICKS_PER_PASS: usize = 1_100;

/// The companion size: what a stage runs at when it is not the
/// workload's own — small, on a pool and a store of its own, and the
/// same in every workload: a handful of short passes a stage, enough
/// for a steady best pass of a metric nobody should draw a conclusion
/// from on that workload.
pub fn companion() -> Plan {
    Plan {
        own: Stage::Ingest,
        ingest_reps: Reps {
            rounds: 3,
            passes: 4,
        },
        ingest_vfs: VfsKind::Mem,
        shapes: 64,
        pool_len: EVENTS_PER_PASS,
        warm_events: 0,
        events_per_pass: EVENTS_PER_PASS,
        shards: 1,
        templates: 24,
        history_bins: 120,
        holdout_bins: 20,
        top_k: 2,
        epochs: 1,
        max_examples: 16,
        train_reps: Reps {
            rounds: 3,
            passes: 4,
        },
        serve_reps: Reps {
            rounds: 3,
            passes: 3,
        },
        forecasts_per_tick: 1,
        ingests_per_tick: 0,
        ticks_per_pass: TICKS_PER_PASS,
        warm_ticks: 200,
        recover_reps: Reps {
            rounds: 3,
            passes: 4,
        },
        tail_bins: 6,
        probe_statements: 20_000,
        probe_calls: 200,
    }
}

/// The periodic workload of the issue's serving and batch workloads:
/// 120 templates in 6 families × 4 volume scales, an hour of holdout.
fn full_periodic(p: &mut Plan) {
    p.templates = 120;
    p.holdout_bins = 60;
    p.top_k = 5;
}

/// The models the two serving workloads answer from: 2 shards, 6 h of
/// history, five clusters a shard, `cfg.fast()`'s two epochs over half
/// its examples — set-up trains them three times a run, and what a
/// forecast costs does not depend on how long its members trained.
fn serving_models(p: &mut Plan) {
    full_periodic(p);
    p.shards = 2;
    p.history_bins = 360;
    p.epochs = 2;
    p.max_examples = 32;
}

/// The plan of workload `name` at full scale, or `None` for a name the
/// benchmark does not declare.
pub fn full(name: &str) -> Option<Plan> {
    let w = crate::metrics::WORKLOADS.iter().find(|w| w.name == name)?;
    let mut p = companion();
    match w.name {
        "stream_hot_disk" => {
            p.ingest_vfs = VfsKind::Disk;
            p.pool_len = 200_000;
            p.ingest_reps = Reps {
                rounds: 10,
                passes: 5,
            };
        }
        "stream_hot_mem" => {
            p.pool_len = 200_000;
            p.ingest_reps = Reps {
                rounds: 10,
                passes: 24,
            };
        }
        "stream_churn_mem" => {
            p.shapes = 100_000;
            p.pool_len = 200_000;
            // One untimed lap of the universe, then a good timed one: 22
            // arrival bins in all, so no cluster window (30 bins) fills
            // and stages 100 000 points at once.
            p.warm_events = 100_000;
            p.ingest_reps = Reps {
                rounds: 5,
                passes: 6,
            };
        }
        "forecast_serve" => {
            p.own = Stage::Serve;
            serving_models(&mut p);
            p.serve_reps = Reps {
                rounds: 5,
                passes: 6,
            };
        }
        "serve_mixed" => {
            p.own = Stage::Serve;
            serving_models(&mut p);
            p.forecasts_per_tick = 8;
            p.ingests_per_tick = 256;
            // A pass of 1 100 ticks takes about three seconds, so a
            // round is one pass.
            p.serve_reps = Reps {
                rounds: 5,
                passes: 1,
            };
            p.warm_ticks = 150;
        }
        "train_recover" => {
            p.own = Stage::Train;
            full_periodic(&mut p);
            p.shards = 1;
            p.history_bins = 360;
            // The smallest budget at which the ensemble beats
            // last-value on the holdout (≈0.8): 8 epochs of 128
            // examples for the two largest clusters, ≈3.4 s a pass.
            p.top_k = 2;
            p.epochs = 8;
            p.max_examples = 128;
            p.train_reps = Reps {
                rounds: 3,
                passes: 1,
            };
            p.recover_reps = Reps {
                rounds: 5,
                passes: 1,
            };
            p.tail_bins = 180;
        }
        _ => unreachable!("every declared workload has a plan"),
    }
    Some(p)
}

/// `--smoke`: the same stages and checks at tiny operation counts, so
/// all six workloads run traced and untraced in a few seconds. Sample
/// counts stay just above what the declared percentiles need.
pub fn smoke(mut p: Plan) -> Plan {
    let one = Reps {
        rounds: 1,
        passes: 1,
    };
    p.shapes = p.shapes.min(3_000);
    p.pool_len = 6_000;
    p.warm_events = p.warm_events.min(3_000);
    p.events_per_pass = 6_000;
    p.ingest_reps = one;
    p.templates = 24;
    p.history_bins = 90;
    p.holdout_bins = 8;
    p.top_k = p.top_k.min(2);
    p.epochs = 1;
    p.max_examples = 8;
    p.train_reps = one;
    p.serve_reps = one;
    p.ticks_per_pass = TICKS_PER_PASS;
    p.warm_ticks = 50;
    p.forecasts_per_tick = p.forecasts_per_tick.min(2);
    p.ingests_per_tick = p.ingests_per_tick.min(4);
    p.recover_reps = one;
    p.tail_bins = 6;
    p.probe_statements = 500;
    p.probe_calls = 20;
    p
}
