//! The resource governor: one synchronous serving loop that admits,
//! schedules, degrades, sheds, and byte-bounds everything behind the
//! front door.
//!
//! # Model
//!
//! Time is divided into *ticks* with a fixed work budget
//! ([`ServeConfig::tick_budget_ms`]). Between ticks, clients submit
//! requests through [`Governor::submit_forecast`] and
//! [`Governor::submit_ingest`]; each submission is immediately either
//! `Admitted` into its priority-class queue or `Shed` with a reason.
//! [`Governor::run_tick`] then spends the budget: **forecasts drain
//! first** (they are latency-sensitive; bulk ingest can wait), ingest
//! gets the remainder, and whatever does not fit stays queued for the
//! next tick — admitted work is never dropped.
//!
//! A forecast whose deadline passes before its full answer is computed
//! is still answered — with the engine's O(1) seasonal-naive floor,
//! explicitly marked [`ForecastOutcome::DegradedFloor`] — and its miss
//! is counted. After serving, the engine's resident bytes are checked
//! against the memory budget and cold state is evicted down to it.
//!
//! Every request lands in exactly one counter, and
//! [`ServeStats::reconciles`] proves it: offered = admitted + shed,
//! admitted = completed + still queued. The overload posture is
//! summarized per tick as a [`HealthState`].

use crate::admission::{AdmissionDecision, AdmissionQueue, ShedReason, TokenBucket};
use crate::clock::Clock;
use crate::engine::Engine;
use dbaugur_trace::HistoryRing;

/// Tunables for the serving loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Forecast (latency-sensitive) queue capacity.
    pub forecast_queue_cap: usize,
    /// Ingest (bulk) queue capacity.
    pub ingest_queue_cap: usize,
    /// Token-bucket burst capacity (requests).
    pub rate_capacity: f64,
    /// Token-bucket sustained refill (requests per millisecond).
    pub refill_per_ms: f64,
    /// Work budget per tick, in clock milliseconds.
    pub tick_budget_ms: u64,
    /// Relative deadline stamped on every admitted forecast.
    pub forecast_deadline_ms: u64,
    /// Byte budget for the engine's governable state.
    pub memory_budget_bytes: usize,
    /// Completed-forecast latency samples retained for percentiles.
    pub latency_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            forecast_queue_cap: 64,
            ingest_queue_cap: 1024,
            rate_capacity: 512.0,
            refill_per_ms: 1.0,
            tick_budget_ms: 100,
            forecast_deadline_ms: 50,
            memory_budget_bytes: 1 << 20,
            latency_window: 1024,
        }
    }
}

/// How one forecast was answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastOutcome {
    /// Full-quality answer within its deadline.
    Fresh(f64),
    /// Deadline expired first: the seasonal-naive floor, explicitly
    /// marked so the caller knows it is degraded, never silently stale.
    DegradedFloor(f64),
}

impl ForecastOutcome {
    /// The served value, whatever its quality.
    pub fn value(&self) -> f64 {
        match self {
            ForecastOutcome::Fresh(v) | ForecastOutcome::DegradedFloor(v) => *v,
        }
    }

    /// True for a deadline-degraded answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ForecastOutcome::DegradedFloor(_))
    }
}

/// The governor's overload posture, recomputed every tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HealthState {
    /// Nothing shed, deadlines met.
    #[default]
    Healthy,
    /// Load is being refused (sheds this tick) but admitted forecasts
    /// still get full answers.
    Shedding,
    /// Deadlines are being missed: admitted forecasts are degrading to
    /// floors, or the forecast queue is full.
    Saturated,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Shedding => write!(f, "shedding"),
            HealthState::Saturated => write!(f, "saturated"),
        }
    }
}

/// Cumulative serving counters. Every offered request is in here
/// exactly once; [`ServeStats::reconciles`] checks the books.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Forecasts offered at the front door.
    pub offered_forecasts: u64,
    /// Ingest records offered at the front door.
    pub offered_ingest: u64,
    /// Forecasts admitted into the queue.
    pub admitted_forecasts: u64,
    /// Ingest records admitted into the queue.
    pub admitted_ingest: u64,
    /// Forecasts shed: queue full.
    pub shed_forecast_queue_full: u64,
    /// Forecasts shed: rate limited.
    pub shed_forecast_rate_limited: u64,
    /// Ingest shed: queue full.
    pub shed_ingest_queue_full: u64,
    /// Ingest shed: rate limited.
    pub shed_ingest_rate_limited: u64,
    /// Ingest shed: global memory budget exhausted (the budget
    /// arbiter's last rung before quarantine — resident state must stop
    /// growing). Forecasts are never shed for this reason.
    pub shed_ingest_memory_pressure: u64,
    /// Forecasts answered fresh, within deadline.
    pub completed_fresh: u64,
    /// Forecasts answered with the degraded floor.
    pub completed_degraded: u64,
    /// Ingest records applied to the engine.
    pub ingested: u64,
    /// Memory-governance eviction passes.
    pub eviction_passes: u64,
    /// Bytes freed by eviction (cumulative).
    pub eviction_bytes: u64,
    /// Highest engine residency observed at a tick boundary.
    pub max_resident_bytes: u64,
    /// Ticks on which background maintenance actually spent budget.
    pub maintenance_runs: u64,
    /// Clock milliseconds spent on background maintenance (cumulative).
    pub maintenance_ms: u64,
    /// Corrupt snapshot generations skipped during recovery (engine's
    /// durable substrate fell back to an older good generation).
    pub snapshot_fallbacks: u64,
    /// WAL torn tails salvaged during recovery (partial final frame
    /// discarded, prefix replayed).
    pub wal_torn_salvages: u64,
    /// Transient WAL/snapshot I/O errors absorbed by retry.
    pub io_retries: u64,
    /// Durable I/O operations that failed even after retries.
    pub retry_exhausted: u64,
    /// Group-commit flushes triggered by coalescing policy (batch size
    /// or delay); zero on bulk-only engines.
    pub wal_group_flushes_coalesced: u64,
    /// Group-commit flushes forced by a barrier (checkpoint, shutdown).
    pub wal_group_flushes_forced: u64,
    /// Records made durable through group-commit batches.
    pub wal_group_records: u64,
    /// Records-per-fsync histogram: buckets 1, 2, 3–4, 5–8, 9–16,
    /// 17–32, 33–64, 65+.
    pub wal_group_batch_hist: [u64; 8],
    /// Order-sensitive FNV fold of every served forecast (value bits
    /// plus the degraded flag). Two runs served byte-identical answers
    /// in the same order iff their digests match.
    pub value_digest: u64,
}

impl ServeStats {
    /// Total sheds, all classes.
    pub fn shed_total(&self) -> u64 {
        self.shed_forecast_queue_full
            + self.shed_forecast_rate_limited
            + self.shed_ingest_queue_full
            + self.shed_ingest_rate_limited
            + self.shed_ingest_memory_pressure
    }

    /// Verify the books balance given current queue depths: every
    /// offered request is admitted or shed, and every admitted request
    /// is completed or still queued.
    pub fn reconciles(&self, forecasts_queued: usize, ingest_queued: usize) -> bool {
        let f_shed = self.shed_forecast_queue_full + self.shed_forecast_rate_limited;
        let i_shed = self.shed_ingest_queue_full
            + self.shed_ingest_rate_limited
            + self.shed_ingest_memory_pressure;
        self.offered_forecasts == self.admitted_forecasts + f_shed
            && self.offered_ingest == self.admitted_ingest + i_shed
            && self.admitted_forecasts
                == self.completed_fresh + self.completed_degraded + forecasts_queued as u64
            && self.admitted_ingest == self.ingested + ingest_queued as u64
    }
}

/// What one tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickReport {
    /// Forecasts answered fresh this tick.
    pub served_fresh: u64,
    /// Forecasts answered with the degraded floor this tick.
    pub served_degraded: u64,
    /// Ingest records applied this tick.
    pub ingested: u64,
    /// Requests shed since the previous tick (submit-time decisions).
    pub shed: u64,
    /// Bytes evicted by memory governance this tick.
    pub evicted_bytes: u64,
    /// Clock milliseconds spent on background maintenance this tick.
    pub maintenance_ms: u64,
    /// Posture at the end of the tick.
    pub health: HealthState,
}

struct ForecastReq {
    sql: String,
    deadline_ms: u64,
    cost_ms: u64,
    submitted_ms: u64,
}

struct IngestReq {
    ts_secs: u64,
    sql: String,
    cost_ms: u64,
}

/// The serving loop. Generic over the [`Engine`] doing the work and
/// the [`Clock`] defining time, so production and simulation share
/// every line of governance logic.
pub struct Governor<E: Engine, C: Clock> {
    cfg: ServeConfig,
    clock: C,
    engine: E,
    bucket: TokenBucket,
    forecasts: AdmissionQueue<ForecastReq>,
    ingests: AdmissionQueue<IngestReq>,
    stats: ServeStats,
    latencies: HistoryRing,
    shed_since_tick: u64,
    health: HealthState,
    pressure_shed: bool,
}

impl<E: Engine, C: Clock> Governor<E, C> {
    /// Wrap `engine` behind the front door.
    pub fn new(cfg: ServeConfig, engine: E, clock: C) -> Self {
        let bucket = TokenBucket::new(cfg.rate_capacity, cfg.refill_per_ms, clock.now_ms());
        let forecasts = AdmissionQueue::new(cfg.forecast_queue_cap);
        let ingests = AdmissionQueue::new(cfg.ingest_queue_cap);
        let latencies = HistoryRing::new(cfg.latency_window.max(1));
        Self {
            cfg,
            clock,
            engine,
            bucket,
            forecasts,
            ingests,
            stats: ServeStats::default(),
            latencies,
            shed_since_tick: 0,
            health: HealthState::Healthy,
            pressure_shed: false,
        }
    }

    /// Replace the engine's byte budget. The budget arbiter calls this
    /// every arbitration round as it moves slack between shards; the
    /// next tick's eviction pass enforces the new bound.
    pub fn set_memory_budget(&mut self, bytes: usize) {
        self.cfg.memory_budget_bytes = bytes;
    }

    /// The engine's current byte budget.
    pub fn memory_budget(&self) -> usize {
        self.cfg.memory_budget_bytes
    }

    /// Enter or leave memory-pressure shedding. While set, every
    /// offered ingest is shed with [`ShedReason::MemoryPressure`] (no
    /// token is consumed — the request never contends); forecasts are
    /// unaffected. The arbiter sets this on its shed rung and clears it
    /// once the global budget recovers.
    pub fn set_memory_pressure_shed(&mut self, on: bool) {
        self.pressure_shed = on;
    }

    /// True while memory-pressure shedding is active.
    pub fn memory_pressure_shed(&self) -> bool {
        self.pressure_shed
    }

    /// Offer one forecast request (`cost_ms` = the full answer's
    /// simulated/estimated cost). Decided immediately; admitted
    /// requests carry a deadline of now + the configured relative
    /// deadline.
    pub fn submit_forecast(&mut self, sql: &str, cost_ms: u64) -> AdmissionDecision {
        self.stats.offered_forecasts += 1;
        let now = self.clock.now_ms();
        if !self.bucket.try_take(now) {
            self.stats.shed_forecast_rate_limited += 1;
            self.shed_since_tick += 1;
            return AdmissionDecision::Shed(ShedReason::RateLimited);
        }
        let req = ForecastReq {
            sql: sql.to_string(),
            deadline_ms: now + self.cfg.forecast_deadline_ms,
            cost_ms,
            submitted_ms: now,
        };
        match self.forecasts.push(req) {
            Ok(()) => {
                self.stats.admitted_forecasts += 1;
                AdmissionDecision::Admitted
            }
            Err(_) => {
                self.stats.shed_forecast_queue_full += 1;
                self.shed_since_tick += 1;
                AdmissionDecision::Shed(ShedReason::QueueFull)
            }
        }
    }

    /// Offer one ingest record. Bulk class: admitted records wait for
    /// forecast traffic, but are never dropped once admitted.
    pub fn submit_ingest(&mut self, ts_secs: u64, sql: &str, cost_ms: u64) -> AdmissionDecision {
        self.stats.offered_ingest += 1;
        if self.pressure_shed {
            self.stats.shed_ingest_memory_pressure += 1;
            self.shed_since_tick += 1;
            return AdmissionDecision::Shed(ShedReason::MemoryPressure);
        }
        let now = self.clock.now_ms();
        if !self.bucket.try_take(now) {
            self.stats.shed_ingest_rate_limited += 1;
            self.shed_since_tick += 1;
            return AdmissionDecision::Shed(ShedReason::RateLimited);
        }
        let req = IngestReq { ts_secs, sql: sql.to_string(), cost_ms };
        match self.ingests.push(req) {
            Ok(()) => {
                self.stats.admitted_ingest += 1;
                AdmissionDecision::Admitted
            }
            Err(_) => {
                self.stats.shed_ingest_queue_full += 1;
                self.shed_since_tick += 1;
                AdmissionDecision::Shed(ShedReason::QueueFull)
            }
        }
    }

    /// Spend one tick's budget, forecasts first. `stall_ms` models a
    /// slow consumer or injected latency eating into the budget before
    /// any request is served.
    pub fn run_tick(&mut self, stall_ms: u64) -> TickReport {
        let mut report =
            TickReport { shed: std::mem::take(&mut self.shed_since_tick), ..Default::default() };
        self.clock.advance(stall_ms);
        let budget_end = self.clock.now_ms() + self.cfg.tick_budget_ms.saturating_sub(stall_ms);

        // Priority class 1: forecasts. An expired request is answered
        // with the floor (O(1), no budget charge worth modeling); a
        // live one runs fully if the budget allows, else waits.
        while let Some(req) = self.forecasts.pop() {
            let now = self.clock.now_ms();
            if now >= req.deadline_ms {
                let v = self.engine.floor(&req.sql);
                self.record_forecast(ForecastOutcome::DegradedFloor(v), now - req.submitted_ms);
                report.served_degraded += 1;
                continue;
            }
            if now + req.cost_ms > budget_end {
                self.forecasts.push_front(req);
                break;
            }
            self.clock.advance(req.cost_ms);
            let done = self.clock.now_ms();
            if done > req.deadline_ms {
                // The work ran but finished late: serve the floor and
                // say so, never a silently-late "fresh" answer.
                let v = self.engine.floor(&req.sql);
                self.record_forecast(ForecastOutcome::DegradedFloor(v), done - req.submitted_ms);
                report.served_degraded += 1;
            } else {
                let v = self.engine.forecast(&req.sql);
                self.record_forecast(ForecastOutcome::Fresh(v), done - req.submitted_ms);
                report.served_fresh += 1;
            }
        }

        // Priority class 2: bulk ingest, with whatever budget remains.
        while let Some(req) = self.ingests.pop() {
            let now = self.clock.now_ms();
            if now + req.cost_ms > budget_end {
                self.ingests.push_front(req);
                break;
            }
            self.clock.advance(req.cost_ms);
            self.engine.ingest(req.ts_secs, &req.sql);
            self.stats.ingested += 1;
            report.ingested += 1;
        }

        // Memory governance: bound the engine at every tick boundary.
        let resident = self.engine.resident_bytes() as u64;
        self.stats.max_resident_bytes = self.stats.max_resident_bytes.max(resident);
        if resident > self.cfg.memory_budget_bytes as u64 {
            let freed = self.engine.evict_to(self.cfg.memory_budget_bytes) as u64;
            self.stats.eviction_passes += 1;
            self.stats.eviction_bytes += freed;
            report.evicted_bytes = freed;
        }

        // Background maintenance (model lifecycle) gets only what is
        // left of the budget after all foreground work — it can never
        // starve admission, and an overloaded tick skips it entirely.
        let now = self.clock.now_ms();
        if now < budget_end {
            let spent = self.engine.maintain(budget_end - now).min(budget_end - now);
            if spent > 0 {
                self.clock.advance(spent);
                self.stats.maintenance_runs += 1;
                self.stats.maintenance_ms += spent;
                report.maintenance_ms = spent;
            }
        }

        // Surface the engine's durability counters (cumulative values
        // maintained by the durable substrate; zeros for in-memory
        // engines) so operators see salvage/fallback/retry events in
        // the same report as serving health.
        let d = self.engine.durability();
        self.stats.snapshot_fallbacks = d.snapshot_fallbacks;
        self.stats.wal_torn_salvages = d.wal_torn_salvages;
        self.stats.io_retries = d.io_retries;
        self.stats.retry_exhausted = d.retry_exhausted;
        self.stats.wal_group_flushes_coalesced = d.wal_group_flushes_coalesced;
        self.stats.wal_group_flushes_forced = d.wal_group_flushes_forced;
        self.stats.wal_group_records = d.wal_group_records;
        self.stats.wal_group_batch_hist = d.wal_group_batch_hist;

        self.health = if report.served_degraded > 0
            || self.forecasts.len() == self.forecasts.capacity()
        {
            HealthState::Saturated
        } else if report.shed > 0 {
            HealthState::Shedding
        } else {
            HealthState::Healthy
        };
        report.health = self.health;
        report
    }

    fn record_forecast(&mut self, outcome: ForecastOutcome, latency_ms: u64) {
        match outcome {
            ForecastOutcome::Fresh(_) => self.stats.completed_fresh += 1,
            ForecastOutcome::DegradedFloor(_) => self.stats.completed_degraded += 1,
        }
        self.fold_served(&outcome);
        self.latencies.push(latency_ms as f64);
    }

    /// Fold one served answer into the order-sensitive value digest.
    /// Also used by the shard supervisor for failover floors it serves
    /// on a tripped shard's behalf, so those still land in the books.
    pub(crate) fn fold_served(&mut self, outcome: &ForecastOutcome) {
        let mut h = self.stats.value_digest ^ 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&outcome.value().to_bits().to_le_bytes());
        eat(&[u8::from(outcome.is_degraded())]);
        self.stats.value_digest = h;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Posture after the most recent tick.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Current queue depths `(forecasts, ingest)`.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.forecasts.len(), self.ingests.len())
    }

    /// Check the books: every offered request admitted or shed, every
    /// admitted request completed or still queued.
    pub fn reconciles(&self) -> bool {
        self.stats.reconciles(self.forecasts.len(), self.ingests.len())
    }

    /// Completed-forecast latency percentile (`p` in `[0, 1]`) over the
    /// retained window; `None` before any forecast completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let mut v = self.latencies.to_vec();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let idx = ((v.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// The governed engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the governed engine (training, maintenance).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The governor's clock.
    pub fn clock(&self) -> &C {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::engine::SimEngine;

    fn gov(cfg: ServeConfig) -> Governor<SimEngine, VirtualClock> {
        Governor::new(cfg, SimEngine::new(32), VirtualClock::new())
    }

    fn open_cfg() -> ServeConfig {
        ServeConfig {
            rate_capacity: 1e9,
            refill_per_ms: 1e9,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn forecasts_preempt_ingest_within_a_tick() {
        let mut g = gov(ServeConfig { tick_budget_ms: 10, ..open_cfg() });
        for i in 0..5 {
            assert!(g.submit_ingest(i, "INSERT INTO t VALUES (1)", 2).is_admitted());
        }
        assert!(g.submit_forecast("SELECT a FROM t", 2).is_admitted());
        let rep = g.run_tick(0);
        assert_eq!(rep.served_fresh, 1, "the forecast is served first");
        assert_eq!(rep.ingested, 4, "ingest gets only the remaining budget");
        assert_eq!(g.queue_depths().1, 1, "unserved ingest stays queued");
        assert!(g.reconciles());
        // The leftover drains next tick: admitted work is never lost.
        let rep2 = g.run_tick(0);
        assert_eq!(rep2.ingested, 1);
        assert!(g.reconciles());
    }

    #[test]
    fn expired_forecast_degrades_to_floor_and_is_counted() {
        let mut g = gov(ServeConfig {
            forecast_deadline_ms: 5,
            tick_budget_ms: 100,
            ..open_cfg()
        });
        g.engine_mut().ingest(1, "SELECT a FROM t");
        assert!(g.submit_forecast("SELECT a FROM t", 50).is_admitted());
        let rep = g.run_tick(0);
        assert_eq!(rep.served_degraded, 1, "cost 50 > deadline 5: floor served");
        assert_eq!(rep.served_fresh, 0);
        assert_eq!(g.stats().completed_degraded, 1);
        assert_eq!(g.health(), HealthState::Saturated);
        assert!(g.reconciles());
    }

    #[test]
    fn queue_full_sheds_with_reason_and_counts() {
        let mut g = gov(ServeConfig { forecast_queue_cap: 2, ..open_cfg() });
        assert!(g.submit_forecast("SELECT 1", 1).is_admitted());
        assert!(g.submit_forecast("SELECT 2", 1).is_admitted());
        assert_eq!(
            g.submit_forecast("SELECT 3", 1),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        assert_eq!(g.stats().shed_forecast_queue_full, 1);
        assert!(g.reconciles());
        let rep = g.run_tick(0);
        assert_eq!(rep.shed, 1, "the shed is reported, not silently dropped");
    }

    #[test]
    fn rate_limit_sheds_and_recovers_with_refill() {
        let mut g = gov(ServeConfig {
            rate_capacity: 2.0,
            refill_per_ms: 0.001,
            ..ServeConfig::default()
        });
        assert!(g.submit_ingest(0, "SELECT 1", 1).is_admitted());
        assert!(g.submit_ingest(0, "SELECT 2", 1).is_admitted());
        assert_eq!(
            g.submit_ingest(0, "SELECT 3", 1),
            AdmissionDecision::Shed(ShedReason::RateLimited)
        );
        // A second of virtual time refills one token.
        g.clock().advance(1_000);
        assert!(g.submit_ingest(0, "SELECT 4", 1).is_admitted());
        assert!(g.reconciles());
    }

    #[test]
    fn memory_budget_triggers_eviction_at_tick_boundary() {
        let mut g = gov(ServeConfig {
            memory_budget_bytes: 2_000,
            tick_budget_ms: 1_000_000,
            ..open_cfg()
        });
        for i in 0..40 {
            assert!(g
                .submit_ingest(i, &format!("SELECT col{i} FROM table{i} WHERE x = 1"), 0)
                .is_admitted());
        }
        let rep = g.run_tick(0);
        assert_eq!(rep.ingested, 40);
        assert!(rep.evicted_bytes > 0, "over budget must evict");
        assert!(g.engine().resident_bytes() <= 2_000, "bounded after eviction");
        assert!(g.stats().eviction_passes >= 1);
        assert!(g.reconciles());
    }

    #[test]
    fn health_transitions_healthy_shedding_saturated() {
        let mut g = gov(ServeConfig {
            forecast_queue_cap: 1,
            forecast_deadline_ms: 1,
            ..open_cfg()
        });
        assert_eq!(g.run_tick(0).health, HealthState::Healthy);
        assert!(g.submit_forecast("SELECT 1", 0).is_admitted());
        g.submit_forecast("SELECT 2", 0); // shed: queue cap 1
        let rep = g.run_tick(2); // stall pushes past the 1 ms deadline
        assert_eq!(rep.served_degraded, 1);
        assert_eq!(rep.health, HealthState::Saturated);
        // No traffic: back to healthy.
        assert_eq!(g.run_tick(0).health, HealthState::Healthy);
        // Sheds alone (deadlines met) are Shedding, not Saturated.
        g.submit_forecast("SELECT 3", 0);
        g.submit_forecast("SELECT 4", 0); // shed
        let rep = g.run_tick(0);
        assert_eq!(rep.served_fresh, 1);
        assert_eq!(rep.health, HealthState::Shedding);
        assert!(g.reconciles());
    }

    #[test]
    fn latency_percentiles_come_from_the_ring() {
        let mut g = gov(ServeConfig { forecast_deadline_ms: 1_000, ..open_cfg() });
        assert_eq!(g.latency_percentile(0.5), None);
        for i in 0..10 {
            g.submit_forecast(&format!("SELECT {i}"), i);
            g.run_tick(0);
        }
        let p50 = g.latency_percentile(0.5).unwrap();
        let p99 = g.latency_percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 <= 9.0);
    }

    /// An engine whose maintenance greedily spends every millisecond it
    /// is offered, recording each offer — the worst case for the
    /// never-starve-admission guarantee.
    struct GreedyMaintain {
        inner: SimEngine,
        offers: Vec<u64>,
    }

    impl Engine for GreedyMaintain {
        fn ingest(&mut self, ts_secs: u64, sql: &str) {
            self.inner.ingest(ts_secs, sql);
        }
        fn forecast(&mut self, sql: &str) -> f64 {
            self.inner.forecast(sql)
        }
        fn floor(&mut self, sql: &str) -> f64 {
            self.inner.floor(sql)
        }
        fn resident_bytes(&self) -> usize {
            self.inner.resident_bytes()
        }
        fn evict_to(&mut self, target_bytes: usize) -> usize {
            self.inner.evict_to(target_bytes)
        }
        fn maintain(&mut self, budget_ms: u64) -> u64 {
            self.offers.push(budget_ms);
            budget_ms
        }
    }

    #[test]
    fn maintenance_only_gets_leftover_budget() {
        let engine = GreedyMaintain { inner: SimEngine::new(32), offers: Vec::new() };
        let cfg = ServeConfig { tick_budget_ms: 10, ..open_cfg() };
        let mut g = Governor::new(cfg, engine, VirtualClock::new());

        // Idle tick: the whole budget is leftover and maintenance gets it.
        let rep = g.run_tick(0);
        assert_eq!(rep.maintenance_ms, 10);
        assert_eq!(g.engine().offers, vec![10]);
        assert_eq!(g.stats().maintenance_runs, 1);
        assert_eq!(g.stats().maintenance_ms, 10);

        // Foreground work eats most of the budget; maintenance gets
        // only the scraps, never a slice of admitted work's time.
        for i in 0..4 {
            assert!(g.submit_forecast(&format!("SELECT {i}"), 2).is_admitted());
        }
        let rep = g.run_tick(0);
        assert_eq!(rep.served_fresh, 4);
        assert_eq!(rep.maintenance_ms, 2, "10 ms budget - 8 ms forecasts");

        // A fully consumed tick skips maintenance entirely.
        for i in 0..5 {
            assert!(g.submit_forecast(&format!("SELECT b{i}"), 2).is_admitted());
        }
        let rep = g.run_tick(0);
        assert_eq!(rep.maintenance_ms, 0, "no leftover, no maintenance");
        assert_eq!(g.engine().offers.len(), 2);
        assert!(g.reconciles());
    }

    #[test]
    fn default_engine_maintenance_is_a_noop() {
        let mut g = gov(ServeConfig { tick_budget_ms: 50, ..open_cfg() });
        let rep = g.run_tick(0);
        assert_eq!(rep.maintenance_ms, 0);
        assert_eq!(g.stats().maintenance_runs, 0);
        assert_eq!(g.stats().maintenance_ms, 0);
    }

    #[test]
    fn memory_pressure_sheds_ingest_but_not_forecasts() {
        let mut g = gov(ServeConfig { tick_budget_ms: 1_000, ..open_cfg() });
        assert!(g.submit_ingest(0, "INSERT 1", 1).is_admitted());
        g.set_memory_pressure_shed(true);
        assert_eq!(
            g.submit_ingest(1, "INSERT 2", 1),
            AdmissionDecision::Shed(ShedReason::MemoryPressure)
        );
        assert!(g.submit_forecast("SELECT 1", 1).is_admitted(), "reads unaffected");
        assert_eq!(g.stats().shed_ingest_memory_pressure, 1);
        g.run_tick(0);
        assert!(g.reconciles(), "pressure sheds must balance the books");
        // Pressure lifts: ingest admits again.
        g.set_memory_pressure_shed(false);
        assert!(g.submit_ingest(2, "INSERT 3", 1).is_admitted());
        g.run_tick(0);
        assert!(g.reconciles());
    }

    #[test]
    fn budget_can_be_retargeted_between_ticks() {
        let mut g = gov(ServeConfig {
            memory_budget_bytes: 1 << 20,
            tick_budget_ms: 1_000_000,
            ..open_cfg()
        });
        for i in 0..40 {
            assert!(g
                .submit_ingest(i, &format!("SELECT col{i} FROM table{i} WHERE x = 1"), 0)
                .is_admitted());
        }
        let rep = g.run_tick(0);
        assert_eq!(rep.evicted_bytes, 0, "generous budget: nothing evicted");
        // The arbiter reclaims slack: the tighter budget bites next tick.
        g.set_memory_budget(2_000);
        assert_eq!(g.memory_budget(), 2_000);
        g.run_tick(0);
        assert!(g.engine().resident_bytes() <= 2_000);
        assert!(g.reconciles());
    }

    #[test]
    fn books_reconcile_under_mixed_load() {
        let mut g = gov(ServeConfig {
            forecast_queue_cap: 4,
            ingest_queue_cap: 8,
            rate_capacity: 16.0,
            refill_per_ms: 0.5,
            tick_budget_ms: 10,
            ..ServeConfig::default()
        });
        for round in 0..50u64 {
            for i in 0..7 {
                g.submit_ingest(round, &format!("INSERT {i}"), 1);
            }
            for i in 0..3 {
                g.submit_forecast(&format!("SELECT q{i}"), 2);
            }
            g.run_tick(if round % 5 == 0 { 3 } else { 0 });
            assert!(g.reconciles(), "books must balance every tick (round {round})");
        }
        assert!(g.stats().shed_total() > 0, "this load must overload");
        assert!(g.stats().completed_fresh + g.stats().completed_degraded > 0);
    }
}
