//! The end-to-end pipeline: ingest → templates → traces → clusters →
//! ensembles → forecasts.
//!
//! # Fault isolation
//!
//! Production ingestion is messy — damaged log lines, NaN holes in
//! resource traces, traces cut short by collector restarts — and neural
//! training can diverge. The pipeline therefore degrades instead of
//! aborting:
//!
//! * damaged log lines are counted ([`DbAugur::ingest_log_report`]) and
//!   skipped, never fatal;
//! * non-finite trace samples are interpolated away before clustering
//!   (`repaired_samples` in the report);
//! * traces too short for one supervised example are dropped, and the run
//!   fails only when *nothing* survives;
//! * each cluster trains inside a panic boundary on its own thread — a
//!   poisoned cluster is demoted to a seasonal-naive floor model and
//!   marked [`ClusterStatus::Failed`] while its siblings train normally;
//! * ensemble members that diverge or panic are quarantined inside the
//!   ensemble itself (see `dbaugur_models::ensemble`), surfacing as
//!   [`ClusterStatus::Degraded`].
//!
//! Every training run returns a [`ClusterTrainReport`] tallying all of
//! the above.

use crate::config::DbAugurConfig;
use crate::drift::{DriftMonitor, DriftState};
use crate::sync::RwLock;
use dbaugur_cluster::{
    select_top_k_dba_exec, select_top_k_exec, ClusterSummary, Clustering, Descender,
};
use dbaugur_dtw::DtwDistance;
use dbaugur_exec::{Deadline, ExecStats, Executor, TaskError};
use dbaugur_models::{
    Forecaster, MemberState, MlpForecaster, SeasonalNaive, TcnForecaster, TimeSensitiveEnsemble,
    Wfgan, WfganConfig,
};
use dbaugur_sqlproc::{parse_log_stream, StatementHandle, TemplateId, TemplateRegistry};
use dbaugur_trace::{fill_gaps, Trace, WindowSpec};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Why training could not proceed.
#[derive(Debug, PartialEq, Eq)]
pub enum TrainError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// No query or resource traces were ingested.
    NoTraces,
    /// Every trace is shorter than `history + horizon + 1`.
    NotEnoughData {
        /// Samples available in the longest trace.
        have: usize,
        /// Samples needed for one supervised example.
        need: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            TrainError::NoTraces => write!(f, "no workload traces ingested"),
            TrainError::NotEnoughData { have, need } => {
                write!(f, "traces have {have} samples, need at least {need}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Why a forecast could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForecastError {
    /// The cluster's representative trace holds no samples.
    EmptyRepresentative,
    /// The ensemble produced a non-finite value.
    NonFinite,
    /// The drift monitor quarantined this cluster — its rolling error
    /// degraded past the configured bound and it must be retrained.
    Quarantined,
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::EmptyRepresentative => write!(f, "representative trace is empty"),
            ForecastError::NonFinite => write!(f, "forecast is not finite"),
            ForecastError::Quarantined => {
                write!(f, "cluster is drift-quarantined pending retrain")
            }
        }
    }
}

impl std::error::Error for ForecastError {}

/// Why a single-cluster retrain (manual or lifecycle-driven) failed.
/// The incumbent model is untouched in every error case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetrainError {
    /// No trained cluster at that index.
    UnknownCluster(usize),
    /// The deadline expired before the challenger finished fitting.
    Expired,
    /// Challenger training panicked (message captured).
    Panicked(String),
}

impl fmt::Display for RetrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrainError::UnknownCluster(i) => write!(f, "no trained cluster at index {i}"),
            RetrainError::Expired => write!(f, "deadline expired before the challenger fit"),
            RetrainError::Panicked(m) => write!(f, "challenger training panicked: {m}"),
        }
    }
}

impl std::error::Error for RetrainError {}

/// How a cluster came out of training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterStatus {
    /// Every ensemble member trained cleanly.
    Healthy,
    /// At least one member was quarantined or needed divergence recovery;
    /// the remaining members serve the forecast.
    Degraded,
    /// Training panicked; the cluster serves a seasonal-naive floor.
    Failed,
}

impl fmt::Display for ClusterStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterStatus::Healthy => write!(f, "healthy"),
            ClusterStatus::Degraded => write!(f, "degraded"),
            ClusterStatus::Failed => write!(f, "failed"),
        }
    }
}

/// One cluster's training outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Cluster id from the clustering stage.
    pub cluster_id: usize,
    /// Name of the representative trace.
    pub representative: String,
    /// Health classification.
    pub status: ClusterStatus,
    /// Panic message (Failed) or quarantine causes (Degraded).
    pub detail: Option<String>,
}

/// The outcome of one [`DbAugur::train`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterTrainReport {
    /// Per-cluster outcomes, largest volume first.
    pub clusters: Vec<ClusterReport>,
    /// Non-finite samples interpolated away across all input traces.
    pub repaired_samples: usize,
    /// Traces dropped for being shorter than one supervised example.
    pub dropped_traces: usize,
    /// Cumulative damaged log lines skipped during ingestion.
    pub skipped_log_lines: usize,
    /// Executor counters for this run (tasks queued / executed /
    /// stolen / deadline-skipped across clustering, top-K selection
    /// and training).
    pub exec: ExecStats,
    /// True when the run's [`Deadline`] expired somewhere along the
    /// way — the report then describes a degraded (volume-only
    /// clustering and/or floor-demoted) training, not a full one.
    pub deadline_expired: bool,
}

impl ClusterTrainReport {
    /// Clusters whose every member trained cleanly.
    pub fn healthy_count(&self) -> usize {
        self.count(ClusterStatus::Healthy)
    }

    /// Clusters serving with one or more members quarantined.
    pub fn degraded_count(&self) -> usize {
        self.count(ClusterStatus::Degraded)
    }

    /// Clusters demoted to the seasonal-naive floor.
    pub fn failed_count(&self) -> usize {
        self.count(ClusterStatus::Failed)
    }

    /// True when nothing was repaired, dropped, skipped, or degraded.
    pub fn is_fully_healthy(&self) -> bool {
        self.healthy_count() == self.clusters.len()
            && self.repaired_samples == 0
            && self.dropped_traces == 0
            && self.skipped_log_lines == 0
    }

    fn count(&self, s: ClusterStatus) -> usize {
        self.clusters.iter().filter(|c| c.status == s).count()
    }
}

/// Outcome of one log-ingestion call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Records parsed and observed.
    pub ingested: usize,
    /// Damaged lines skipped (blank lines and comments excluded).
    pub skipped: usize,
    /// Byte offset (into the ingested text) of the first skipped line,
    /// so damaged-log triage can seek straight to it.
    pub first_skipped_offset: Option<usize>,
    /// Records this call answered from the fingerprint template cache
    /// (no canonicalizer run) — the streaming fast path's hit count.
    pub template_cache_hits: u64,
    /// Records this call pushed through the full canonicalizer.
    pub template_cache_misses: u64,
}

/// One cluster's serving-time health (training status + drift).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterHealth {
    /// Cluster id from the clustering stage.
    pub cluster_id: usize,
    /// Name of the representative trace.
    pub representative: String,
    /// Training outcome.
    pub status: ClusterStatus,
    /// Drift classification from the online monitor.
    pub drift: DriftState,
    /// `recent/baseline` MAE ratio, when enough feedback accumulated.
    pub error_ratio: Option<f64>,
    /// True when the monitor (or a failed training) says retrain.
    pub retrain_recommended: bool,
    /// Model generation serving the cluster (0 = initial training;
    /// each promotion or manual retrain bumps it).
    pub generation: u64,
}

/// What a cluster serves until the next write that can change it: each
/// member's prediction for the current input window and their Eqn. 8
/// mix. Never serialized — a decoded cluster starts cold.
pub(crate) struct ServingState {
    /// Length of the representative tail the predictions were made for.
    take: usize,
    /// [`TimeSensitiveEnsemble::member_predictions`] for that tail.
    members: Vec<f64>,
    /// [`TimeSensitiveEnsemble::mix`] of `members` under the weights of
    /// the last write.
    value: f64,
}

/// One trained representative cluster: the summary (members,
/// proportions, representative trace) plus its ensemble, behind a lock so
/// forecasting and error feedback can interleave.
///
/// Lock order: `serving` → `ensemble` → `drift` → `recent`.
pub struct TrainedCluster {
    /// Cluster membership and representative.
    pub summary: ClusterSummary,
    pub(crate) status: ClusterStatus,
    pub(crate) ensemble: RwLock<TimeSensitiveEnsemble>,
    /// Filled by the first [`Self::forecast`] after a write, re-mixed
    /// (no inference) by [`Self::observe`], dropped by
    /// [`DbAugur::install_ensemble`] — the one write that changes
    /// member output or the input window.
    pub(crate) serving: RwLock<Option<ServingState>>,
    /// Rolling forecast-error monitor feeding the drift report.
    pub(crate) drift: RwLock<DriftMonitor>,
    /// Bounded buffer of observed actuals since training — the
    /// new-regime evidence a retrain's challenger fits on.
    pub(crate) recent: RwLock<Vec<f64>>,
    pub(crate) recent_cap: usize,
    /// Model generation: 0 right after a full `train`, bumped by every
    /// promotion or manual retrain.
    pub(crate) generation: u64,
}

impl TrainedCluster {
    /// The input window: the last `history` samples of the
    /// representative, clamped to its length.
    fn window(&self, history: usize) -> &[f64] {
        let rep = self.summary.representative.values();
        &rep[rep.len() - history.min(rep.len())..]
    }

    /// The serving state for `window`, running member inference only
    /// when the slot is empty or was filled for another window length.
    fn warm<'a>(
        slot: &'a mut Option<ServingState>,
        ensemble: &TimeSensitiveEnsemble,
        window: &[f64],
    ) -> &'a mut ServingState {
        if !matches!(slot, Some(s) if s.take == window.len()) {
            let members = ensemble.member_predictions(window);
            let value = ensemble.mix(window, &members);
            *slot = Some(ServingState { take: window.len(), members, value });
        }
        slot.as_mut().expect("filled above")
    }

    /// Predict the representative's value `horizon` intervals past the
    /// end of its trace. An oversized `history` is clamped to the trace
    /// (the ensemble re-normalizes the window to its fitted length).
    ///
    /// Answered from the serving state; only the first call after a
    /// model install (or for a new `history`) runs the members. Always
    /// bitwise-equal to [`Self::predict_window`] on the same tail.
    pub fn forecast(&self, history: usize) -> f64 {
        let window = self.window(history);
        if let Some(s) = self.serving.read().as_ref().filter(|s| s.take == window.len()) {
            return s.value;
        }
        let mut slot = self.serving.write();
        Self::warm(&mut slot, &self.ensemble.read(), window).value
    }

    /// Like [`Self::forecast`], with empty-representative, non-finite,
    /// and drift-quarantined outcomes surfaced as typed errors instead
    /// of NaN (or a silently rotten prediction).
    pub fn try_forecast(&self, history: usize) -> Result<f64, ForecastError> {
        if self.summary.representative.is_empty() {
            return Err(ForecastError::EmptyRepresentative);
        }
        if self.drift_state() == DriftState::Quarantined {
            return Err(ForecastError::Quarantined);
        }
        let p = self.forecast(history);
        if p.is_finite() {
            Ok(p)
        } else {
            Err(ForecastError::NonFinite)
        }
    }

    /// Feed back an observed representative-level value so the
    /// time-sensitive weights adapt (Eqn. 7 update) and the drift
    /// monitor sees the forecast-vs-actual gap.
    ///
    /// Scores, updates Γ and re-mixes from the one cached member vector
    /// while holding the serving state exclusively, so a concurrent
    /// [`Self::forecast`] sees the value before this observation or the
    /// value after it, never a mix of the two.
    pub fn observe(&self, history: usize, actual: f64) {
        if !actual.is_finite() {
            // Poisoned feedback moves neither the weights, the drift
            // monitor nor the retrain buffer.
            return;
        }
        let window = self.window(history);
        let predicted = {
            let mut slot = self.serving.write();
            let mut ensemble = self.ensemble.write();
            let s = Self::warm(&mut slot, &ensemble, window);
            let predicted = s.value;
            ensemble.observe_members(&s.members, actual);
            s.value = ensemble.mix(window, &s.members);
            predicted
        };
        if predicted.is_finite() {
            self.drift.write().record((actual - predicted).abs(), actual.abs());
        }
        let mut recent = self.recent.write();
        recent.push(actual);
        let cap = self.recent_cap.max(1);
        if recent.len() > cap {
            let excess = recent.len() - cap;
            recent.drain(..excess);
        }
    }

    /// Predict from an explicit window (the shadow backtest's probe) —
    /// no drift gate, no weight update, and never the serving state:
    /// this is the uncached oracle [`Self::forecast`] is tested against.
    pub fn predict_window(&self, window: &[f64]) -> f64 {
        self.ensemble.read().predict(window)
    }

    /// The drift monitor's current classification of this cluster.
    pub fn drift_state(&self) -> DriftState {
        self.drift.read().state()
    }

    /// The drift monitor's `recent/baseline` error ratio, when known.
    pub fn drift_ratio(&self) -> Option<f64> {
        self.drift.read().ratio()
    }

    /// Current ensemble weights (for diagnostics).
    pub fn weights(&self) -> Vec<f64> {
        self.ensemble.read().weights()
    }

    /// Training outcome of this cluster.
    pub fn status(&self) -> &ClusterStatus {
        &self.status
    }

    /// Per-member health/quarantine snapshot of the ensemble.
    pub fn member_states(&self) -> Vec<MemberState> {
        self.ensemble.read().member_states()
    }

    /// Model generation serving this cluster (0 = the initial training).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Observed actuals buffered since the last (re)train.
    pub fn recent_observations(&self) -> usize {
        self.recent.read().len()
    }
}

/// `(cluster index, member position)` of the cluster answering a trace.
type Slot = (usize, usize);

/// The template a `template:<id>` arrival-trace name stands for.
fn template_of(name: &str) -> Option<TemplateId> {
    let digits = name.strip_prefix("template:")?;
    let id = digits.parse::<u32>().ok()?;
    // Only the registry's own spelling: `template:007` is a resource
    // trace somebody named, not template 7.
    (id.to_string() == digits).then_some(TemplateId(id))
}

/// Which trained cluster answers which trace, with the first-match
/// semantics of a linear scan: a name resolves to the *first* trace
/// carrying it, that trace to the *first* cluster listing it. `None`
/// values are traces outside every top-K cluster; they are kept so a
/// later duplicate name cannot answer in their place.
#[derive(Default)]
pub(crate) struct ForecastIndex {
    by_template: HashMap<TemplateId, Option<Slot>>,
    /// Traces whose name is not a template's (resource traces).
    by_name: HashMap<String, Option<Slot>>,
    /// Per cluster, the templates among its members, in member order.
    cluster_templates: Vec<Vec<TemplateId>>,
}

impl ForecastIndex {
    pub(crate) fn build(trace_names: &[String], trained: &[TrainedCluster]) -> Self {
        let mut slot_of: Vec<Option<Slot>> = vec![None; trace_names.len()];
        let mut cluster_templates = Vec::with_capacity(trained.len());
        for (ci, cluster) in trained.iter().enumerate() {
            let mut templates = Vec::new();
            for (mp, &g) in cluster.summary.members.iter().enumerate() {
                let Some(name) = trace_names.get(g) else { continue };
                if slot_of[g].is_none() {
                    slot_of[g] = Some((ci, mp));
                }
                templates.extend(template_of(name));
            }
            cluster_templates.push(templates);
        }
        let mut index = Self { cluster_templates, ..Self::default() };
        for (name, slot) in trace_names.iter().zip(slot_of) {
            match template_of(name) {
                Some(id) => index.by_template.entry(id).or_insert(slot),
                None => index.by_name.entry(name.clone()).or_insert(slot),
            };
        }
        index
    }

    fn template(&self, id: TemplateId) -> Option<Slot> {
        self.by_template.get(&id).copied().flatten()
    }

    fn trace(&self, name: &str) -> Option<Slot> {
        match template_of(name) {
            Some(id) => self.template(id),
            None => self.by_name.get(name).copied().flatten(),
        }
    }
}

/// The DBAugur system.
pub struct DbAugur {
    pub(crate) cfg: DbAugurConfig,
    pub(crate) registry: TemplateRegistry,
    pub(crate) resources: Vec<Trace>,
    pub(crate) trained: Vec<TrainedCluster>,
    /// Names of the traces used at training time, aligned with the
    /// cluster summaries' member indices.
    pub(crate) trace_names: Vec<String>,
    /// Who answers which trace, derived from `trace_names` and the
    /// trained summaries whenever those are replaced.
    pub(crate) index: ForecastIndex,
    /// Cumulative damaged log lines across all ingestion calls.
    pub(crate) skipped_log_lines: usize,
    pub(crate) last_report: Option<ClusterTrainReport>,
    /// Highest write-ahead-log sequence applied to this state; recovery
    /// replays only entries beyond it (see `crate::wal`).
    pub(crate) applied_seq: u64,
    /// Bounded executor all fan-out (clustering, top-K, per-cluster and
    /// per-member training) routes through.
    pub(crate) exec: Arc<Executor>,
    /// Structured durability-event tally: snapshot fallbacks, WAL
    /// torn-tail salvages, transient-I/O retries. Recovery and the
    /// durable facade accumulate into it; the serving layer surfaces it
    /// through `ServeStats`.
    pub(crate) durability: crate::retry::DurabilityCounters,
}

impl DbAugur {
    /// A new system with the given configuration. `cfg.threads == 0`
    /// shares the process-wide pool; an explicit count gets a dedicated
    /// pool of exactly that parallelism.
    pub fn new(cfg: DbAugurConfig) -> Self {
        let exec = if cfg.threads == 0 {
            Executor::global()
        } else {
            Arc::new(Executor::new(cfg.threads))
        };
        Self {
            cfg,
            registry: TemplateRegistry::new(),
            resources: Vec::new(),
            trained: Vec::new(),
            trace_names: Vec::new(),
            index: ForecastIndex::default(),
            skipped_log_lines: 0,
            last_report: None,
            applied_seq: 0,
            exec,
            durability: crate::retry::DurabilityCounters::default(),
        }
    }

    /// Cumulative durability-event counters (snapshot fallbacks, WAL
    /// torn-tail salvages, transient-I/O retries and exhaustions).
    pub fn durability(&self) -> crate::retry::DurabilityCounters {
        self.durability
    }

    /// The executor this system fans work out through.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// The active configuration.
    pub fn config(&self) -> &DbAugurConfig {
        &self.cfg
    }

    /// Ingest one executed statement with its timestamp.
    pub fn ingest_record(&mut self, ts_secs: u64, sql: &str) {
        self.registry.observe(sql, ts_secs);
    }

    /// Ingest one bare statement through the fingerprint fast path: a
    /// one-line adapter over [`Self::ingest_parsed`]. Reaches exactly
    /// the same registry state as [`Self::ingest_record`].
    pub fn ingest_record_streamed(&mut self, ts_secs: u64, sql: &str) {
        self.ingest_parsed(ts_secs, sql, StatementHandle::of(sql));
    }

    /// Ingest one statement together with what the layers above already
    /// parsed out of it (`stmt` must have been made from `sql`): repeat
    /// token skeletons skip the canonicalizer entirely, and a canonical
    /// form the shard router computed is reused, not recomputed.
    pub fn ingest_parsed(&mut self, ts_secs: u64, sql: &str, stmt: StatementHandle) {
        self.registry.observe_parsed(sql, stmt, ts_secs);
    }

    /// Ingest a whole log text in the `<epoch>\t<sql>` format, skipping
    /// malformed lines. Returns the number of records ingested; see
    /// [`Self::ingest_log_report`] for the damage tally.
    pub fn ingest_log(&mut self, text: &str) -> usize {
        self.ingest_log_report(text).ingested
    }

    /// Ingest a log text, reporting how many lines were damaged. The
    /// skipped count also accumulates into the next training report.
    /// Records stream straight into the registry — no intermediate
    /// record vector, so ingest memory is bounded by the registry, not
    /// the log text.
    pub fn ingest_log_report(&mut self, text: &str) -> IngestReport {
        let registry = &mut self.registry;
        let hits0 = registry.template_cache_hits();
        let misses0 = registry.template_cache_misses();
        let stats = parse_log_stream(text, |ts_secs, sql| {
            registry.observe_streamed(sql, ts_secs);
        });
        self.skipped_log_lines += stats.skipped;
        IngestReport {
            ingested: stats.records,
            skipped: stats.skipped,
            first_skipped_offset: stats.first_skipped_offset,
            template_cache_hits: self.registry.template_cache_hits() - hits0,
            template_cache_misses: self.registry.template_cache_misses() - misses0,
        }
    }

    /// Highest write-ahead-log sequence number applied to this state.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Damaged log lines skipped since the system was created.
    pub fn skipped_log_lines(&self) -> usize {
        self.skipped_log_lines
    }

    /// The report of the most recent successful training run.
    pub fn last_train_report(&self) -> Option<&ClusterTrainReport> {
        self.last_report.as_ref()
    }

    /// Register a resource-utilization trace (CPU, memory, disk…)
    /// gathered from runtime statistics.
    pub fn add_resource_trace(&mut self, trace: Trace) {
        self.resources.push(trace);
    }

    /// Number of distinct templates seen so far.
    pub fn num_templates(&self) -> usize {
        self.registry.num_templates()
    }

    /// Cap each template's in-memory observation history; overflow is
    /// dropped oldest-first and counted, never silently lost.
    pub fn set_observation_cap(&mut self, cap: usize) {
        self.registry.set_observation_cap(cap);
    }

    /// Approximate bytes the template registry holds resident.
    pub fn registry_bytes(&self) -> usize {
        self.registry.approx_bytes()
    }

    /// Read access to the template registry (shard migration enumerates
    /// template ids, strings, and observation counts through here).
    pub fn registry(&self) -> &dbaugur_sqlproc::TemplateRegistry {
        &self.registry
    }

    /// Observations dropped by the per-template cap (cumulative).
    pub fn dropped_observations(&self) -> u64 {
        self.registry.dropped_observations()
    }

    /// Bound the registry's fingerprint → template cache (see
    /// [`TemplateRegistry::set_template_cache_cap`]; 0 disables it).
    pub fn set_template_cache_cap(&mut self, cap: usize) {
        self.registry.set_template_cache_cap(cap);
    }

    /// Drain the templates that gained observations since the previous
    /// call (see [`TemplateRegistry::take_touched`]); the streaming
    /// front door closes arrival bins over these alone.
    pub fn take_touched_templates(&mut self) -> Vec<dbaugur_sqlproc::TemplateId> {
        self.registry.take_touched()
    }

    /// Evict cold template histories until the registry's approximate
    /// footprint fits `target_bytes`. The report carries a spill blob
    /// for persisting the evicted state; template ids stay stable.
    pub fn evict_cold_templates(&mut self, target_bytes: usize) -> dbaugur_sqlproc::EvictionReport {
        self.registry.evict_cold(target_bytes)
    }

    /// Drop one template's observation history (string and id stay
    /// resident). Returns the observations dropped. This is the partial
    /// migration drain: the source sheds exactly what the destination
    /// durably imported, leaving every other history in place.
    pub fn drop_template_history(&mut self, id: dbaugur_sqlproc::TemplateId) -> usize {
        self.registry.drop_observations(id)
    }

    /// Remove exactly the listed observation timestamps (multiset
    /// semantics) from one template's history. This is the *retryable*
    /// migration drain: when a commit is re-run after a failure, it
    /// must shed only the observations captured in the migration
    /// marker, keeping anything acknowledged since — a whole-history
    /// drop here would silently lose those late arrivals.
    pub fn remove_template_observations(
        &mut self,
        id: dbaugur_sqlproc::TemplateId,
        timestamps: &[u64],
    ) -> usize {
        self.registry.remove_observations(id, timestamps)
    }

    /// Restore template histories from a spill blob produced by
    /// [`Self::evict_cold_templates`].
    pub fn restore_template_spill(
        &mut self,
        bytes: &[u8],
    ) -> Result<usize, dbaugur_trace::wire::WireError> {
        self.registry.restore_spill(bytes)
    }

    /// Resource-utilization traces registered so far.
    pub fn resources(&self) -> &[Trace] {
        &self.resources
    }

    /// Build traces over `[start_secs, end_secs)`, cluster them with
    /// Descender, and train one time-sensitive ensemble per top-K
    /// cluster. Retraining replaces earlier models.
    ///
    /// Training is fault-isolated per cluster (see the module docs); the
    /// returned [`ClusterTrainReport`] says what was repaired, dropped,
    /// and degraded along the way.
    pub fn train(&mut self, start_secs: u64, end_secs: u64) -> Result<ClusterTrainReport, TrainError> {
        self.train_governed(start_secs, end_secs, &Deadline::none())
    }

    /// Deadline-governed training. Identical to [`Self::train`] while
    /// the deadline holds; once it expires the run degrades instead of
    /// blocking:
    ///
    /// * an expiry during the DTW distance matrix falls back to
    ///   **volume-only clustering** (every trace a singleton, top-K by
    ///   volume) — O(n) and deadline-free;
    /// * a cluster whose training task never started is demoted to a
    ///   fitted seasonal-naive floor ([`ClusterStatus::Failed`], so the
    ///   drift report recommends a retrain);
    /// * ensemble members skipped mid-fit are quarantined by
    ///   [`TimeSensitiveEnsemble::fit_governed`], degrading that
    ///   cluster to the members that did train.
    ///
    /// The returned report carries `deadline_expired` so callers can
    /// mark the resulting forecasts as degraded.
    pub fn train_governed(
        &mut self,
        start_secs: u64,
        end_secs: u64,
        deadline: &Deadline,
    ) -> Result<ClusterTrainReport, TrainError> {
        self.cfg.validate().map_err(TrainError::InvalidConfig)?;
        let mut traces: Vec<Trace> = Vec::new();
        if self.registry.num_templates() > 0 {
            traces.extend(
                self.registry
                    .arrival_traces(start_secs, end_secs, self.cfg.interval_secs),
            );
        }
        traces.extend(self.resources.iter().cloned());
        if traces.is_empty() {
            return Err(TrainError::NoTraces);
        }

        // Interpolate NaN/∞ samples away before DTW or any model sees
        // them; a single poisoned sample would otherwise contaminate
        // distances and training losses alike.
        let mut repaired_samples = 0usize;
        for t in &mut traces {
            if t.values().iter().any(|v| !v.is_finite()) {
                repaired_samples += fill_gaps(t);
            }
        }

        // Drop traces too short for one supervised example rather than
        // failing the whole run; error out only when nothing survives.
        let need = self.cfg.history + self.cfg.horizon + 1;
        let longest = traces.iter().map(Trace::len).max().unwrap_or(0);
        let before = traces.len();
        traces.retain(|t| t.len() >= need);
        let dropped_traces = before - traces.len();
        if traces.is_empty() {
            return Err(TrainError::NotEnoughData { have: longest, need });
        }

        // Resource traces may be longer than the binned query traces;
        // truncate everything to the common length so DTW compares
        // aligned windows.
        let have = traces.iter().map(Trace::len).min().unwrap_or(0);
        for t in &mut traces {
            if t.len() > have {
                *t = t.slice(t.len() - have..t.len());
            }
        }
        self.trace_names = traces.iter().map(|t| t.name.clone()).collect();

        let exec_before = self.exec.stats();
        // Deadline expiry mid-matrix degrades to volume-only singleton
        // clustering: no DTW, each trace its own cluster, top-K picked
        // purely by volume. Worse grouping, but bounded time.
        let clustering = Descender::new(self.cfg.clustering, DtwDistance::new(self.cfg.dtw_window))
            .with_executor(Arc::clone(&self.exec))
            .try_cluster(&traces, deadline)
            .unwrap_or_else(|_| Clustering {
                assignments: (0..traces.len()).map(Some).collect(),
                num_clusters: traces.len(),
            });
        let summaries = if self.cfg.use_dba_representative {
            select_top_k_dba_exec(
                &traces,
                &clustering,
                self.cfg.top_k,
                self.cfg.dtw_window,
                4,
                &self.exec,
            )
        } else {
            select_top_k_exec(&traces, &clustering, self.cfg.top_k, &self.exec)
        };
        let spec = WindowSpec::new(self.cfg.history, self.cfg.horizon);

        // Train every cluster behind its own panic boundary through the
        // bounded executor (nested per-member fan-out shares the same
        // pool; waiting callers help execute, so this cannot deadlock).
        // A panic that escapes even `train_cluster`'s internal demotion
        // path becomes a per-task failure — it no longer aborts the
        // whole scope, the cluster just serves an unfitted floor.
        let cfg = self.cfg.clone();
        let exec = Arc::clone(&self.exec);
        let backups = summaries.clone();
        let outcomes: Vec<(ClusterSummary, TimeSensitiveEnsemble, Option<String>)> = self
            .exec
            .try_map_deadline(summaries, deadline, |_, s| {
                train_cluster(&cfg, s, spec, &exec, deadline)
            })
            .into_iter()
            .zip(backups)
            .map(|(outcome, backup)| match outcome {
                Ok(triple) => triple,
                Err(TaskError::Expired) => {
                    // The task never started: demote to a *fitted*
                    // seasonal-naive floor so the cluster still serves
                    // (bounded-quality) forecasts instead of nothing.
                    let mut floor = TimeSensitiveEnsemble::new(
                        "DBAugur-floor",
                        vec![Box::new(SeasonalNaive::new(fallback_season(&cfg)))
                            as Box<dyn Forecaster>],
                        cfg.delta,
                    );
                    floor.fit(backup.representative.values(), spec);
                    let detail =
                        "deadline expired before cluster training; serving seasonal-naive floor"
                            .to_string();
                    (backup, floor, Some(detail))
                }
                Err(TaskError::Panicked(msg)) => {
                    let mut floor = TimeSensitiveEnsemble::new(
                        "DBAugur-floor",
                        vec![Box::new(SeasonalNaive::new(fallback_season(&cfg)))
                            as Box<dyn Forecaster>],
                        cfg.delta,
                    );
                    floor.quarantine_member(0, format!("training panicked: {msg}"));
                    (backup, floor, Some(format!("training panicked: {msg}")))
                }
            })
            .collect();

        let mut clusters = Vec::with_capacity(outcomes.len());
        self.trained = outcomes
            .into_iter()
            .map(|(summary, ensemble, panic_msg)| {
                let (status, detail) = classify(&ensemble, panic_msg);
                clusters.push(ClusterReport {
                    cluster_id: summary.cluster_id,
                    representative: summary.representative.name.clone(),
                    status: status.clone(),
                    detail: detail.clone(),
                });
                TrainedCluster {
                    summary,
                    status,
                    ensemble: RwLock::new(ensemble),
                    serving: RwLock::new(None),
                    drift: RwLock::new(DriftMonitor::new(self.cfg.drift.clone())),
                    recent: RwLock::new(Vec::new()),
                    recent_cap: self.cfg.recent_cap,
                    generation: 0,
                }
            })
            .collect();
        self.index = ForecastIndex::build(&self.trace_names, &self.trained);

        let report = ClusterTrainReport {
            clusters,
            repaired_samples,
            dropped_traces,
            skipped_log_lines: self.skipped_log_lines,
            exec: self.exec.stats().delta_since(&exec_before),
            deadline_expired: deadline.expired(),
        };
        self.last_report = Some(report.clone());
        Ok(report)
    }

    /// The trained representative clusters (largest volume first).
    pub fn clusters(&self) -> &[TrainedCluster] {
        &self.trained
    }

    /// Name of the `i`-th trace the last training round clustered
    /// (`template:<id>` for arrival-rate traces, the registered name for
    /// resource traces) — the index space [`ClusterSummary::members`]
    /// refers into. `None` before training or out of range.
    ///
    /// [`ClusterSummary::members`]: dbaugur_cluster::ClusterSummary
    pub fn trace_name(&self, i: usize) -> Option<&str> {
        self.trace_names.get(i).map(String::as_str)
    }

    /// Forecast the representative of cluster `i`.
    pub fn forecast_cluster(&self, i: usize) -> Option<f64> {
        self.trained.get(i).map(|c| c.forecast(self.cfg.history))
    }

    /// The templates among cluster `i`'s members, in member order — the
    /// arrival counts whose mean is the cluster's representative-level
    /// actual. Empty for an unknown index.
    pub fn cluster_templates(&self, i: usize) -> &[TemplateId] {
        self.index.cluster_templates.get(i).map_or(&[], Vec::as_slice)
    }

    /// The cluster-level forecast projected through one member's volume
    /// proportion: the one place a resolved trace becomes an answer.
    fn forecast_slot(&self, (cluster, member_pos): Slot) -> f64 {
        let c = &self.trained[cluster];
        c.summary.project(member_pos, c.forecast(self.cfg.history))
    }

    /// Forecast a specific trace by name, projecting the cluster-level
    /// prediction through the trace's volume proportion. `None` when the
    /// trace is unknown or fell outside the top-K clusters.
    pub fn forecast_trace(&self, name: &str) -> Option<f64> {
        self.index.trace(name).map(|slot| self.forecast_slot(slot))
    }

    /// Forecast the arrival rate of a registered template; `None` when
    /// it was unseen at training time or fell outside the top-K clusters.
    pub fn forecast_template_id(&self, id: TemplateId) -> Option<f64> {
        self.index.template(id).map(|slot| self.forecast_slot(slot))
    }

    /// Forecast the arrival rate of the template matching `sql`
    /// (canonicalized), `None` for unseen templates.
    pub fn forecast_template(&self, sql: &str) -> Option<f64> {
        self.forecast_template_id(self.registry.lookup(sql)?)
    }

    /// [`Self::forecast_template`] for each statement in turn. Every
    /// cluster answers from its serving state, so N statements cost at
    /// most one ensemble pass per touched cluster.
    pub fn forecast_template_batch(&self, sqls: &[&str]) -> Vec<Option<f64>> {
        sqls.iter().map(|sql| self.forecast_template(sql)).collect()
    }

    /// Serving-time health of every trained cluster: training status
    /// plus the drift monitor's verdict and retrain recommendation.
    pub fn drift_report(&self) -> Vec<ClusterHealth> {
        self.trained
            .iter()
            .map(|c| {
                let drift = c.drift_state();
                ClusterHealth {
                    cluster_id: c.summary.cluster_id,
                    representative: c.summary.representative.name.clone(),
                    status: c.status.clone(),
                    drift,
                    error_ratio: c.drift_ratio(),
                    retrain_recommended: drift.needs_retrain()
                        || c.status == ClusterStatus::Failed,
                    generation: c.generation,
                }
            })
            .collect()
    }

    /// The series a retrain of cluster `i` fits and shadow-evaluates
    /// on: the training-time representative with every buffered recent
    /// observation appended (the new regime's evidence). `None` when
    /// there is no trained cluster at that index.
    pub fn cluster_series(&self, i: usize) -> Option<Vec<f64>> {
        let c = self.trained.get(i)?;
        let mut s = c.summary.representative.values().to_vec();
        s.extend(c.recent.read().iter().copied());
        Some(s)
    }

    /// Manually retrain one cluster, synchronously: fit a fresh
    /// challenger on [`Self::cluster_series`], install it, fold the
    /// recent observations into the representative, reset the drift
    /// monitor (clearing [`ForecastError::Quarantined`]), and bump the
    /// model generation. The incumbent stays untouched on any error.
    pub fn retrain_cluster(&mut self, i: usize) -> Result<ClusterReport, RetrainError> {
        self.retrain_cluster_governed(i, &Deadline::none())
    }

    /// Deadline-governed [`Self::retrain_cluster`]. Unlike training,
    /// expiry never demotes anything: the old model keeps serving and
    /// [`RetrainError::Expired`] is returned.
    pub fn retrain_cluster_governed(
        &mut self,
        i: usize,
        deadline: &Deadline,
    ) -> Result<ClusterReport, RetrainError> {
        let series = self.cluster_series(i).ok_or(RetrainError::UnknownCluster(i))?;
        let challenger = train_challenger(&self.cfg, &series, &self.exec, deadline)?;
        Ok(self.install_challenger(i, challenger).expect("cluster index checked above"))
    }

    /// Install a freshly trained challenger as cluster `i`'s serving
    /// model: the recent-observation buffer is folded into the
    /// representative (so forecast windows reflect the regime the
    /// challenger saw), the drift monitor resets (clearing any
    /// quarantine), the status is reclassified from the challenger's
    /// member health, and the generation bumps. Returns `None` when the
    /// index is unknown.
    pub fn install_challenger(
        &mut self,
        i: usize,
        ensemble: TimeSensitiveEnsemble,
    ) -> Option<ClusterReport> {
        let next_gen = self.trained.get(i)?.generation + 1;
        self.install_ensemble(i, ensemble, next_gen)
    }

    /// Install `ensemble` as cluster `i`'s serving model at an explicit
    /// `generation` (registry reconcile/rollback path). Same folding and
    /// drift-reset semantics as [`Self::install_challenger`].
    pub fn install_ensemble(
        &mut self,
        i: usize,
        ensemble: TimeSensitiveEnsemble,
        generation: u64,
    ) -> Option<ClusterReport> {
        let drift_cfg = self.cfg.drift.clone();
        let min_len = self.cfg.history + self.cfg.horizon + 1;
        let c = self.trained.get_mut(i)?;
        let recent = std::mem::take(&mut *c.recent.get_mut());
        if !recent.is_empty() {
            // Fold the new regime into the representative, keeping its
            // length bounded: append, then trim oldest-first back to the
            // pre-fold length (never below one supervised example).
            let rep = &c.summary.representative;
            let keep = rep.len().max(min_len);
            let mut values = rep.values().to_vec();
            values.extend(recent);
            if values.len() > keep {
                values.drain(..values.len() - keep);
            }
            c.summary.representative =
                Trace::new(rep.name.clone(), rep.kind, rep.interval_secs, values);
        }
        let (status, detail) = classify(&ensemble, None);
        // New members, and possibly a new input window: what was served
        // before says nothing about what is served now.
        *c.serving.get_mut() = None;
        *c.ensemble.get_mut() = ensemble;
        *c.drift.get_mut() = DriftMonitor::new(drift_cfg);
        c.status = status.clone();
        c.generation = generation;
        Some(ClusterReport {
            cluster_id: c.summary.cluster_id,
            representative: c.summary.representative.name.clone(),
            status,
            detail,
        })
    }
}

/// Daily seasonality expressed in samples, clamped into the history
/// window so the floor model's lookback stays inside what `predict` sees.
pub(crate) fn fallback_season(cfg: &DbAugurConfig) -> usize {
    ((86_400 / cfg.interval_secs.max(1)) as usize).clamp(1, cfg.history.max(1))
}

/// Build the per-cluster WFGAN + TCN + MLP ensemble from the system
/// configuration, guard policy included.
pub(crate) fn make_ensemble(cfg: &DbAugurConfig) -> TimeSensitiveEnsemble {
    let mut wf_cfg = WfganConfig {
        epochs: cfg.epochs,
        max_examples: cfg.max_examples,
        seed: cfg.seed,
        guard: cfg.guard.clone(),
        ..WfganConfig::default()
    };
    if let Some(lr) = cfg.wfgan_lr {
        wf_cfg.lr_g = lr;
        wf_cfg.lr_d = lr;
    }
    let mut tcn = TcnForecaster::new(cfg.seed.wrapping_add(1));
    tcn.epochs = cfg.epochs;
    tcn.max_examples = cfg.max_examples;
    tcn.guard = cfg.guard.clone();
    let mut mlp = MlpForecaster::new(cfg.seed.wrapping_add(2));
    mlp.epochs = cfg.epochs.max(2);
    mlp.max_examples = cfg.max_examples;
    mlp.guard = cfg.guard.clone();
    let mut ensemble = TimeSensitiveEnsemble::new(
        "DBAugur",
        vec![
            Box::new(Wfgan::with_config(wf_cfg)),
            Box::new(tcn),
            Box::new(mlp),
        ],
        cfg.delta,
    );
    ensemble.set_fallback(Box::new(SeasonalNaive::new(fallback_season(cfg))));
    ensemble
}

/// Fit one cluster's ensemble behind a panic boundary, under the run's
/// deadline (members skipped at expiry are quarantined inside the
/// ensemble). On panic the cluster is demoted to a single-member
/// seasonal-naive floor so it still serves (bounded-quality) forecasts.
fn train_cluster(
    cfg: &DbAugurConfig,
    summary: ClusterSummary,
    spec: WindowSpec,
    exec: &Arc<Executor>,
    deadline: &Deadline,
) -> (ClusterSummary, TimeSensitiveEnsemble, Option<String>) {
    let rep = summary.representative.values().to_vec();
    let fitted = catch_unwind(AssertUnwindSafe(|| {
        let mut ensemble = make_ensemble(cfg);
        // Per-member fitting fans out through the same bounded pool.
        ensemble.set_executor(Arc::clone(exec));
        ensemble.fit_governed(&rep, spec, deadline);
        ensemble
    }));
    match fitted {
        Ok(ensemble) => (summary, ensemble, None),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            let mut floor = TimeSensitiveEnsemble::new(
                "DBAugur-floor",
                vec![Box::new(SeasonalNaive::new(fallback_season(cfg))) as Box<dyn Forecaster>],
                cfg.delta,
            );
            floor.fit(&rep, spec);
            (summary, floor, Some(format!("training panicked: {msg}")))
        }
    }
}

/// Fit a fresh challenger ensemble on `series` under `deadline`,
/// behind a panic boundary. This never touches a live cluster: on
/// panic or expiry the incumbent keeps serving and the error comes
/// back instead of a demoted floor. Fitting fans out through `exec`,
/// so results are bitwise identical at any worker count.
pub fn train_challenger(
    cfg: &DbAugurConfig,
    series: &[f64],
    exec: &Arc<Executor>,
    deadline: &Deadline,
) -> Result<TimeSensitiveEnsemble, RetrainError> {
    if deadline.expired() {
        return Err(RetrainError::Expired);
    }
    let spec = WindowSpec::new(cfg.history, cfg.horizon);
    let fitted = catch_unwind(AssertUnwindSafe(|| {
        let mut ensemble = make_ensemble(cfg);
        ensemble.set_executor(Arc::clone(exec));
        ensemble.fit_governed(series, spec, deadline);
        ensemble
    }));
    match fitted {
        Ok(ensemble) if ensemble.active_count() == 0 => Err(RetrainError::Expired),
        Ok(ensemble) => Ok(ensemble),
        Err(payload) => Err(RetrainError::Panicked(panic_message(payload.as_ref()))),
    }
}

/// Derive the report status from the failure outcome and ensemble
/// state. `failure` is a pre-formatted message (panic or deadline
/// demotion) that forces [`ClusterStatus::Failed`].
fn classify(
    ensemble: &TimeSensitiveEnsemble,
    failure: Option<String>,
) -> (ClusterStatus, Option<String>) {
    if let Some(msg) = failure {
        return (ClusterStatus::Failed, Some(msg));
    }
    if ensemble.is_degraded() {
        let reasons: Vec<String> = ensemble
            .member_states()
            .into_iter()
            .filter(|s| s.quarantined || s.health.is_degraded())
            .map(|s| {
                let why = s.reason.unwrap_or_else(|| s.health.to_string());
                format!("{}: {why}", s.name)
            })
            .collect();
        return (ClusterStatus::Degraded, Some(reasons.join("; ")));
    }
    (ClusterStatus::Healthy, None)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbaugur_trace::TraceKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_cfg() -> DbAugurConfig {
        let mut cfg = DbAugurConfig {
            interval_secs: 60,
            history: 8,
            horizon: 1,
            top_k: 3,
            ..DbAugurConfig::default()
        };
        cfg.clustering.min_size = 1;
        cfg.fast();
        cfg
    }

    fn feed_periodic(sys: &mut DbAugur, sql: &str, minutes: u64, period: u64, amp: u64) {
        for minute in 0..minutes {
            let n = 2 + amp * u64::from(minute % period < period / 2);
            for q in 0..n {
                sys.ingest_record(minute * 60 + q, sql);
            }
        }
    }

    #[test]
    fn end_to_end_training_and_forecast() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM bus WHERE route = 1", 120, 10, 6);
        feed_periodic(&mut sys, "SELECT name FROM stop WHERE id = 2", 120, 14, 3);
        assert_eq!(sys.num_templates(), 2);
        let report = sys.train(0, 120 * 60).expect("trains");
        assert!(!sys.clusters().is_empty());
        assert_eq!(report.clusters.len(), sys.clusters().len());
        assert!(report.is_fully_healthy(), "clean data trains clean: {report:?}");
        let f = sys.forecast_template("SELECT * FROM bus WHERE route = 777");
        assert!(f.expect("same template, different literal").is_finite());
        assert!(sys.forecast_template("SELECT unknown FROM nowhere").is_none());
    }

    /// `forecast_trace` as it was before the index: a linear scan for
    /// the first trace with that name, then for the first cluster
    /// listing it, answered by the uncached oracle.
    fn scan_forecast_trace(sys: &DbAugur, name: &str) -> Option<f64> {
        let g = sys.trace_names.iter().position(|n| n == name)?;
        sys.trained.iter().find_map(|c| {
            let mp = c.summary.members.iter().position(|&m| m == g)?;
            Some(c.summary.project(mp, c.predict_window(c.window(sys.cfg.history))))
        })
    }

    #[test]
    fn forecast_template_batch_matches_looped_calls_bitwise() {
        let mut cfg = tiny_cfg();
        cfg.top_k = 2;
        let mut sys = DbAugur::new(cfg);
        feed_periodic(&mut sys, "SELECT * FROM bus WHERE route = 1", 120, 10, 6);
        feed_periodic(&mut sys, "SELECT name FROM stop WHERE id = 2", 120, 14, 3);
        feed_periodic(&mut sys, "UPDATE fare SET price = 3 WHERE zone = 4", 120, 7, 2);
        feed_periodic(&mut sys, "DELETE FROM trip WHERE day = 5", 120, 30, 1);
        // Names the resolver must not confuse: a duplicate, a resource
        // trace squatting on an arrival trace's name, and one that only
        // looks like a template's.
        let wave = |k: usize| (0..120).map(|i| 0.3 + 0.1 * ((i % k) as f64)).collect::<Vec<_>>();
        let squatters = [("cpu:host1", 5), ("cpu:host1", 9), ("template:0", 4), ("template:007", 6)];
        for (name, k) in squatters {
            sys.add_resource_trace(Trace::new(name, TraceKind::Resource, 60, wave(k)));
        }
        sys.train(0, 120 * 60).expect("trains");

        let mut names = sys.trace_names.clone();
        names.push("no:such:trace".into());
        for name in &names {
            assert_eq!(
                sys.forecast_trace(name).map(f64::to_bits),
                scan_forecast_trace(&sys, name).map(f64::to_bits),
                "indexed resolver diverged from the first-match scan for {name}"
            );
        }

        let sqls = [
            "SELECT * FROM bus WHERE route = 777",
            "SELECT name FROM stop WHERE id = 9",
            "SELECT unknown FROM nowhere",
            "UPDATE fare SET price = 8 WHERE zone = 1",
            "DELETE FROM trip WHERE day = 1",
            // A repeat is answered from the same serving state.
            "SELECT * FROM bus WHERE route = 2",
        ];
        let batched = sys.forecast_template_batch(&sqls);
        assert_eq!(batched.len(), sqls.len());
        for (sql, b) in sqls.iter().zip(&batched) {
            let scanned = sys
                .registry
                .lookup(sql)
                .and_then(|id| scan_forecast_trace(&sys, &format!("template:{}", id.0)));
            assert_eq!(b.map(f64::to_bits), scanned.map(f64::to_bits), "batch vs scan for {sql}");
            assert_eq!(
                b.map(f64::to_bits),
                sys.forecast_template(sql).map(f64::to_bits),
                "batch vs single call for {sql}"
            );
        }
        assert_eq!(batched[2], None, "an unknown statement has no forecast");
        let registered = [0, 1, 3, 4].map(|i| batched[i]);
        assert!(registered.iter().any(Option::is_some), "some template is covered");
        assert!(
            registered.iter().any(Option::is_none),
            "top_k = 2 leaves a registered template without a cluster: {registered:?}"
        );
    }

    /// The uncached answer for the last `h` samples of the representative.
    fn oracle(c: &TrainedCluster, h: usize) -> u64 {
        c.predict_window(c.window(h)).to_bits()
    }

    /// Every cluster serves, for two window lengths, exactly what the
    /// uncached oracle and a freshly decoded (cold) twin compute. The
    /// one slot is keyed by window length, so `first` must be the
    /// length the previous call left it on: that read is the one a
    /// stale slot would answer; the other length is a cold fill.
    fn assert_serves_oracle(sys: &mut DbAugur, first: usize, step: &str) -> usize {
        let bytes = sys.encode_snapshot();
        let cold = DbAugur::decode_snapshot(sys.cfg.clone(), &bytes).expect("own snapshot decodes");
        let other = if first == 5 { sys.cfg.history } else { 5 };
        for (i, (c, twin)) in sys.trained.iter().zip(&cold.trained).enumerate() {
            for h in [first, other] {
                let served = c.forecast(h).to_bits();
                assert_eq!(served, oracle(c, h), "cluster {i} h={h} vs oracle after {step}");
                assert_eq!(
                    served,
                    twin.forecast(h).to_bits(),
                    "cluster {i} h={h} vs cold twin after {step}"
                );
            }
        }
        other
    }

    #[test]
    fn serving_state_equals_oracle_under_every_write() {
        for seed in [3u64, 17] {
            let mut sys = DbAugur::new(tiny_cfg());
            feed_periodic(&mut sys, "SELECT * FROM bus WHERE route = 1", 120, 10, 6);
            feed_periodic(&mut sys, "SELECT name FROM stop WHERE id = 2", 120, 14, 3);
            sys.train(0, 120 * 60).expect("trains");
            let sqls = ["SELECT * FROM bus WHERE route = 4", "SELECT name FROM stop WHERE id = 8"];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ran = [0usize; 8];
            let (mut quarantined_a_member, mut install_moved_the_answer) = (false, false);
            let mut keyed = assert_serves_oracle(&mut sys, 5, "train");
            for step in 0..40 {
                let i = rng.gen_range(0..sys.trained.len());
                let h = [sys.cfg.history, 5][rng.gen_range(0..2usize)];
                // Pinned late, so the retrains before it fit on sane
                // feedback: every seed quarantines members while a warm
                // serving state is watching.
                let op = if step == 32 { 4 } else { rng.gen_range(0..8usize) };
                ran[op] += 1;
                let before = sys.trained[i].forecast(keyed).to_bits();
                match op {
                    0 => {
                        sys.trained[i].forecast(h);
                    }
                    1 => {
                        sys.forecast_template(sqls[rng.gen_range(0..2usize)]);
                    }
                    2 => {
                        let f = sys.trained[i].forecast(h);
                        sys.trained[i].observe(h, f * 1.5 + 3.0 + f64::from(rng.gen_range(0..7u32)));
                    }
                    3 => {
                        let poison = [f64::NAN, f64::INFINITY][rng.gen_range(0..2usize)];
                        sys.trained[i].observe(h, poison);
                    }
                    4 => {
                        // (actual − p)² overflows: Γ goes non-finite and
                        // every active member is quarantined.
                        sys.trained[i].observe(h, 1e200);
                        quarantined_a_member |=
                            sys.trained[i].member_states().iter().any(|m| m.quarantined);
                    }
                    5 => {
                        if sys.retrain_cluster(i).is_ok() {
                            install_moved_the_answer |= oracle(&sys.trained[i], keyed) != before;
                        }
                    }
                    6 => {
                        // Rollback shape: an ensemble installed at an
                        // explicit, lower generation.
                        let series = sys.cluster_series(i).expect("cluster exists");
                        if let Ok(e) =
                            train_challenger(&sys.cfg, &series, &sys.exec, &Deadline::none())
                        {
                            let gen = sys.trained[i].generation.saturating_sub(1);
                            sys.install_ensemble(i, e, gen);
                            install_moved_the_answer |= oracle(&sys.trained[i], keyed) != before;
                        }
                    }
                    _ => {
                        let bytes = sys.encode_snapshot();
                        sys = DbAugur::decode_snapshot(sys.cfg.clone(), &bytes).expect("decodes");
                    }
                }
                // An op that asked for another length re-keyed the slot.
                match op {
                    0 | 2 | 4 => keyed = h,
                    1 => keyed = sys.cfg.history,
                    _ => {}
                }
                let step = format!("seed {seed} step {step} op {op}");
                keyed = assert_serves_oracle(&mut sys, keyed, &step);
            }
            assert!(ran.iter().all(|&n| n > 0), "seed {seed} skipped an op: {ran:?}");
            assert!(quarantined_a_member, "seed {seed}: 1e200 quarantined nothing");
            assert!(install_moved_the_answer, "seed {seed}: no install changed a forecast");
        }
    }

    #[test]
    fn concurrent_readers_see_only_sequential_values() {
        const K: usize = 8;
        const READERS: usize = 2;
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let h = sys.cfg.history;
        let actual = |k: usize| 4.0 + 3.0 * k as f64;

        // The K + 1 values a sequential run serves, on a twin.
        let bytes = sys.encode_snapshot();
        let twin = DbAugur::decode_snapshot(sys.cfg.clone(), &bytes).expect("decodes");
        let mut sequential = vec![twin.trained[0].forecast(h).to_bits()];
        for k in 0..K {
            twin.trained[0].observe(h, actual(k));
            sequential.push(twin.trained[0].forecast(h).to_bits());
        }

        let c = &sys.trained[0];
        assert_eq!(c.forecast(h).to_bits(), sequential[0], "warm before the race");
        // One barrier per observation: the writer's k-th observe runs
        // while every reader is inside its k-th burst of forecasts.
        let round = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    let mut at = 0usize;
                    for _ in 0..K {
                        round.wait();
                        for _ in 0..2_000 {
                            let v = c.forecast(h).to_bits();
                            let ahead = sequential[at..].iter().position(|&s| s == v);
                            at += ahead.unwrap_or_else(|| {
                                panic!("{v:#x} is no sequential value at or after step {at}")
                            });
                        }
                    }
                });
            }
            for k in 0..K {
                round.wait();
                c.observe(h, actual(k));
            }
        });
        assert_eq!(c.forecast(h).to_bits(), sequential[K], "after join: the last sequential value");
        assert_eq!(c.forecast(h).to_bits(), oracle(c, h));
    }

    #[test]
    fn resource_traces_join_the_pipeline() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let res = Trace::new(
            "cpu:host1",
            TraceKind::Resource,
            60,
            (0..120).map(|i| 0.4 + 0.2 * ((i % 10) as f64 / 10.0)).collect(),
        );
        sys.add_resource_trace(res);
        sys.train(0, 120 * 60).expect("trains");
        let f = sys.forecast_trace("cpu:host1");
        assert!(f.expect("resource trace forecastable").is_finite());
    }

    #[test]
    fn train_without_data_errors() {
        let mut sys = DbAugur::new(tiny_cfg());
        assert_eq!(sys.train(0, 1000), Err(TrainError::NoTraces));
    }

    #[test]
    fn train_with_short_data_errors() {
        let mut cfg = tiny_cfg();
        cfg.history = 50;
        let mut sys = DbAugur::new(cfg);
        feed_periodic(&mut sys, "SELECT 1 FROM t", 20, 5, 2);
        match sys.train(0, 20 * 60) {
            Err(TrainError::NotEnoughData { have, need }) => {
                assert_eq!(have, 20);
                assert_eq!(need, 52);
            }
            other => panic!("expected NotEnoughData, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_train() {
        let mut cfg = tiny_cfg();
        cfg.horizon = 0;
        let mut sys = DbAugur::new(cfg);
        sys.ingest_record(0, "SELECT 1 FROM t");
        assert!(matches!(sys.train(0, 1000), Err(TrainError::InvalidConfig(_))));
    }

    #[test]
    fn cluster_observe_updates_weights() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let c = &sys.clusters()[0];
        let before = c.weights();
        c.observe(sys.config().history, 1000.0); // a surprising value
        let after = c.weights();
        assert_eq!(before.len(), after.len());
        assert!((after.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retraining_replaces_models() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let first = sys.clusters().len();
        sys.train(0, 120 * 60).expect("retrains");
        assert_eq!(sys.clusters().len(), first);
    }

    #[test]
    fn equivalent_sql_shares_forecast() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT a, b FROM t WHERE x = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let f1 = sys.forecast_template("SELECT a, b FROM t WHERE x = 5");
        let f2 = sys.forecast_template("SELECT b, a FROM t WHERE x = 9");
        assert_eq!(f1, f2, "semantically equivalent templates share a trace");
    }

    #[test]
    fn nan_holes_in_resource_traces_are_repaired() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let mut values: Vec<f64> =
            (0..120).map(|i| 0.4 + 0.2 * ((i % 10) as f64 / 10.0)).collect();
        for v in &mut values[40..50] {
            *v = f64::NAN;
        }
        values[90] = f64::INFINITY;
        sys.add_resource_trace(Trace::new("cpu:host1", TraceKind::Resource, 60, values));
        let report = sys.train(0, 120 * 60).expect("trains despite NaN holes");
        assert_eq!(report.repaired_samples, 11);
        let f = sys.forecast_trace("cpu:host1").expect("forecastable");
        assert!(f.is_finite());
    }

    #[test]
    fn short_traces_are_dropped_not_fatal() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.add_resource_trace(Trace::resource("stub:short", vec![0.5; 4]));
        let report = sys.train(0, 120 * 60).expect("long trace still trains");
        assert_eq!(report.dropped_traces, 1);
        assert!(sys.forecast_trace("stub:short").is_none());
        assert!(sys.forecast_template("SELECT * FROM t WHERE a = 9").is_some());
    }

    #[test]
    fn forecast_clamps_oversized_history() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let c = &sys.clusters()[0];
        // Far larger than the representative trace: must clamp, not panic.
        let f = c.forecast(10_000);
        assert!(f.is_finite());
        assert_eq!(c.try_forecast(10_000), Ok(f));
    }

    #[test]
    fn divergent_wfgan_is_quarantined_not_fatal() {
        let mut cfg = tiny_cfg();
        cfg.wfgan_lr = Some(f64::INFINITY); // guaranteed divergence
        cfg.guard.max_retries = 1;
        let mut sys = DbAugur::new(cfg);
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let report = sys.train(0, 120 * 60).expect("training survives divergence");
        assert!(report.degraded_count() >= 1, "report: {report:?}");
        assert_eq!(report.failed_count(), 0);
        for c in sys.clusters() {
            assert_eq!(c.status(), &ClusterStatus::Degraded);
            let states = c.member_states();
            assert!(states.iter().any(|s| s.quarantined));
            assert!(states.iter().any(|s| !s.quarantined), "survivors serve");
            assert!(c.forecast(sys.config().history).is_finite());
        }
    }

    #[test]
    fn ingest_log_report_counts_damage() {
        let mut sys = DbAugur::new(tiny_cfg());
        let rep = sys.ingest_log_report("1\tSELECT 1\ngarbage line\n# comment\n2\tSELECT 1\n");
        assert_eq!(
            rep,
            IngestReport {
                ingested: 2,
                skipped: 1,
                first_skipped_offset: Some(11),
                template_cache_hits: 1,
                template_cache_misses: 1,
            }
        );
        assert_eq!(sys.skipped_log_lines(), 1);
        let rep2 = sys.ingest_log_report("more garbage\n");
        assert_eq!(rep2.skipped, 1);
        assert_eq!(sys.skipped_log_lines(), 2);
    }

    #[test]
    fn expired_deadline_degrades_training_to_floors() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let dl = Deadline::none();
        dl.cancel();
        let report = sys.train_governed(0, 120 * 60, &dl).expect("degrades, never blocks");
        assert!(report.deadline_expired);
        assert!(report.failed_count() >= 1, "report: {report:?}");
        for c in &report.clusters {
            assert_eq!(c.status, ClusterStatus::Failed);
            assert!(c.detail.as_deref().unwrap().contains("deadline expired"));
        }
        // The floors are fitted: every cluster still serves something.
        for c in sys.clusters() {
            assert!(c.forecast(sys.config().history).is_finite());
        }
        // Representative selection still runs (cheap, not governed),
        // but every cluster-training task was skipped, not executed.
        assert!(
            report.exec.skipped >= report.clusters.len() as u64,
            "each cluster's training task must be skipped: {report:?}"
        );
    }

    #[test]
    fn governed_train_with_live_deadline_matches_train() {
        let mut a = DbAugur::new(tiny_cfg());
        feed_periodic(&mut a, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let ra = a.train(0, 120 * 60).expect("trains");
        let mut b = DbAugur::new(tiny_cfg());
        feed_periodic(&mut b, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let rb = b.train_governed(0, 120 * 60, &Deadline::none()).expect("trains");
        assert!(!rb.deadline_expired);
        assert_eq!(ra.clusters.len(), rb.clusters.len());
        assert_eq!(
            a.forecast_template("SELECT * FROM t WHERE a = 9"),
            b.forecast_template("SELECT * FROM t WHERE a = 9"),
            "deterministic training is identical under an untimed deadline"
        );
    }

    /// Warm a cluster's drift monitor with zero-error feedback, then
    /// push shifted actuals until it quarantines.
    fn quarantine_cluster(sys: &DbAugur, i: usize) {
        let history = sys.config().history;
        let c = &sys.clusters()[i];
        let warm = sys.config().drift.warmup + sys.config().drift.window;
        for _ in 0..warm {
            let f = c.forecast(history);
            c.observe(history, f); // zero error: clean baseline
        }
        for _ in 0..64 {
            if c.drift_state() == DriftState::Quarantined {
                break;
            }
            let f = c.forecast(history);
            c.observe(history, f * 10.0 + 50.0); // regime shift
        }
        assert_eq!(c.drift_state(), DriftState::Quarantined);
    }

    #[test]
    fn retrain_cluster_clears_quarantine_and_bumps_generation() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        quarantine_cluster(&sys, 0);
        assert_eq!(
            sys.clusters()[0].try_forecast(sys.config().history),
            Err(ForecastError::Quarantined)
        );
        assert!(sys.clusters()[0].recent_observations() > 0);
        let report = sys.retrain_cluster(0).expect("retrains");
        assert_ne!(report.status, ClusterStatus::Failed);
        let c = &sys.clusters()[0];
        assert_eq!(c.drift_state(), DriftState::Warmup, "monitor reset");
        assert_eq!(c.generation(), 1);
        assert_eq!(c.recent_observations(), 0, "buffer folded into the representative");
        assert!(c.try_forecast(sys.config().history).expect("quarantine cleared").is_finite());
    }

    #[test]
    fn retrain_unknown_cluster_errors() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        assert_eq!(sys.retrain_cluster(99), Err(RetrainError::UnknownCluster(99)));
    }

    #[test]
    fn expired_retrain_leaves_incumbent_serving() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let before = sys.forecast_cluster(0).expect("serves");
        let dl = Deadline::none();
        dl.cancel();
        assert_eq!(sys.retrain_cluster_governed(0, &dl), Err(RetrainError::Expired));
        assert_eq!(sys.clusters()[0].generation(), 0, "no install on expiry");
        assert_eq!(sys.forecast_cluster(0), Some(before), "incumbent untouched");
    }

    #[test]
    fn recent_buffer_is_bounded() {
        let mut cfg = tiny_cfg();
        cfg.recent_cap = 16;
        let mut sys = DbAugur::new(cfg);
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        let c = &sys.clusters()[0];
        for _ in 0..100 {
            c.observe(sys.config().history, 5.0);
        }
        assert_eq!(c.recent_observations(), 16);
    }

    #[test]
    fn drift_report_carries_generation() {
        let mut sys = DbAugur::new(tiny_cfg());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        sys.train(0, 120 * 60).expect("trains");
        assert!(sys.drift_report().iter().all(|h| h.generation == 0));
        sys.retrain_cluster(0).expect("retrains");
        assert_eq!(sys.drift_report()[0].generation, 1);
    }

    #[test]
    fn last_report_is_retained() {
        let mut sys = DbAugur::new(tiny_cfg());
        assert!(sys.last_train_report().is_none());
        feed_periodic(&mut sys, "SELECT * FROM t WHERE a = 1", 120, 10, 5);
        let report = sys.train(0, 120 * 60).expect("trains");
        assert_eq!(sys.last_train_report(), Some(&report));
    }
}
