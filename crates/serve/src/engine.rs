//! The work behind the front door: what admitted requests execute.
//!
//! The governor is generic over an [`Engine`] so the same admission,
//! deadline, and memory machinery runs against the real forecasting
//! pipeline ([`PipelineEngine`]) and against a deterministic in-memory
//! stand-in ([`SimEngine`]) that the chaos/soak harness can hammer with
//! millions of simulated requests in milliseconds.

use dbaugur::{DbAugur, DurabilityCounters};
use dbaugur_exec::Deadline;
use dbaugur_lifecycle::{LifecycleManager, LifecycleTickReport};
use dbaugur_sqlproc::{canonicalize, TemplateId};
use dbaugur_trace::HistoryRing;
use std::collections::HashMap;

/// What the serving loop asks of the system it governs.
pub trait Engine {
    /// Apply one ingested statement.
    fn ingest(&mut self, ts_secs: u64, sql: &str);

    /// A full-quality forecast for the statement's template.
    fn forecast(&mut self, sql: &str) -> f64;

    /// The O(1) degraded answer (seasonal-naive floor) served when the
    /// deadline expired before [`Engine::forecast`] could run.
    fn floor(&mut self, sql: &str) -> f64;

    /// Approximate resident bytes of governable state.
    fn resident_bytes(&self) -> usize;

    /// Evict cold state until roughly `target_bytes` remain; returns
    /// bytes freed.
    fn evict_to(&mut self, target_bytes: usize) -> usize;

    /// Spill cold state down to `target_bytes`, preserving what is
    /// dropped in recoverable form (a spill blob, a disk file) rather
    /// than discarding it — the budget arbiter's rung between plain
    /// eviction and shedding ingest. Returns bytes freed; engines
    /// without a spill path keep the default no-op, and the arbiter
    /// falls through to the next rung.
    fn spill_to(&mut self, target_bytes: usize) -> std::io::Result<usize> {
        let _ = target_bytes;
        Ok(0)
    }

    /// Opportunistic background maintenance (model lifecycle, retrains)
    /// run with whatever budget is left after all foreground work in a
    /// tick. Returns the clock milliseconds spent, which must never
    /// exceed `budget_ms` — the governor charges exactly this amount.
    /// Engines with no background duties keep the default no-op.
    fn maintain(&mut self, budget_ms: u64) -> u64 {
        let _ = budget_ms;
        0
    }

    /// Cumulative durability-event counters (snapshot fallbacks, WAL
    /// torn-tail salvages, I/O retries) from the engine's durable
    /// substrate, surfaced into [`ServeStats`](crate::ServeStats) at
    /// every tick boundary. Purely in-memory engines keep the default
    /// all-zero answer.
    fn durability(&self) -> DurabilityCounters {
        DurabilityCounters::default()
    }
}

/// Approximate fixed cost per simulated template (map entry + ring).
const SIM_TEMPLATE_OVERHEAD: usize = 96;

/// A deterministic, allocation-bounded engine for harness runs: each
/// template keeps a fixed-capacity [`HistoryRing`] of arrival
/// timestamps; forecasts are simple functions of the retained window.
#[derive(Debug)]
pub struct SimEngine {
    by_template: HashMap<String, usize>,
    names: Vec<String>,
    rings: Vec<HistoryRing>,
    last_seen: Vec<u64>,
    evicted: Vec<bool>,
    ring_capacity: usize,
    resident: usize,
    evictions: u64,
}

impl SimEngine {
    /// An empty engine whose per-template history holds `ring_capacity`
    /// arrivals.
    pub fn new(ring_capacity: usize) -> Self {
        Self {
            by_template: HashMap::new(),
            names: Vec::new(),
            rings: Vec::new(),
            last_seen: Vec::new(),
            evicted: Vec::new(),
            ring_capacity: ring_capacity.max(1),
            resident: 0,
            evictions: 0,
        }
    }

    fn slot(&mut self, sql: &str) -> usize {
        let canonical = canonicalize(sql);
        if let Some(&i) = self.by_template.get(&canonical) {
            return i;
        }
        let i = self.names.len();
        self.resident += 2 * canonical.len() + SIM_TEMPLATE_OVERHEAD + 8 * self.ring_capacity;
        self.by_template.insert(canonical.clone(), i);
        self.names.push(canonical);
        self.rings.push(HistoryRing::new(self.ring_capacity));
        self.last_seen.push(0);
        self.evicted.push(false);
        i
    }

    /// Distinct templates seen (evicted ones included).
    pub fn num_templates(&self) -> usize {
        self.names.len()
    }

    /// Whole-template evictions performed (cumulative).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl Engine for SimEngine {
    fn ingest(&mut self, ts_secs: u64, sql: &str) {
        let i = self.slot(sql);
        self.rings[i].push(ts_secs as f64);
        self.last_seen[i] = self.last_seen[i].max(ts_secs);
    }

    fn forecast(&mut self, sql: &str) -> f64 {
        let i = self.slot(sql);
        // Arrival-count forecast over the retained window.
        self.rings[i].len() as f64
    }

    fn floor(&mut self, sql: &str) -> f64 {
        let i = self.slot(sql);
        self.rings[i].mean().unwrap_or(0.0).min(self.rings[i].len() as f64)
    }

    fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn evict_to(&mut self, target_bytes: usize) -> usize {
        if self.resident <= target_bytes {
            return 0;
        }
        // Coldest-first: least-recently-seen, then fewest arrivals.
        // Unlike the registry, the sim drops whole entries (it has no
        // stable-id contract); an evicted template re-admits fresh on
        // its next arrival.
        let mut order: Vec<usize> =
            (0..self.names.len()).filter(|&i| !self.evicted[i]).collect();
        order.sort_by_key(|&i| (self.last_seen[i], self.rings[i].len(), i));
        let mut freed = 0;
        for i in order {
            if self.resident <= target_bytes {
                break;
            }
            let bytes =
                2 * self.names[i].len() + SIM_TEMPLATE_OVERHEAD + 8 * self.ring_capacity;
            self.by_template.remove(&self.names[i]);
            self.evicted[i] = true;
            self.rings[i] = HistoryRing::new(1);
            self.resident -= bytes;
            freed += bytes;
            self.evictions += 1;
        }
        freed
    }
}

/// The real thing: a [`DbAugur`] pipeline behind the front door. Full
/// forecasts come from the trained per-cluster ensembles; the floor is
/// the last fresh answer per template (or zero before any), and memory
/// governance delegates to the registry's cold-template eviction, with
/// the latest spill blob retained so evicted history stays recallable.
pub struct PipelineEngine {
    sys: DbAugur,
    floors: HashMap<TemplateId, f64>,
    last_spill: Option<Vec<u8>>,
    lifecycle: Option<(LifecycleManager, u64)>,
    last_maintenance: Option<LifecycleTickReport>,
}

impl PipelineEngine {
    /// Govern an existing pipeline.
    pub fn new(sys: DbAugur) -> Self {
        Self { sys, floors: HashMap::new(), last_spill: None, lifecycle: None, last_maintenance: None }
    }

    /// Attach a model-lifecycle manager so leftover tick budget drives
    /// drift-triggered retraining. `retrain_cost_ms` is the clock charge
    /// booked per retrain attempt; [`Engine::maintain`] skips entirely
    /// when the leftover budget cannot cover even one attempt, so
    /// lifecycle work can never starve admission.
    pub fn with_lifecycle(mut self, manager: LifecycleManager, retrain_cost_ms: u64) -> Self {
        self.lifecycle = Some((manager, retrain_cost_ms.max(1)));
        self
    }

    /// The attached lifecycle manager, if any.
    pub fn lifecycle(&self) -> Option<&LifecycleManager> {
        self.lifecycle.as_ref().map(|(m, _)| m)
    }

    /// Mutable access to the lifecycle manager (reconcile, rollback).
    pub fn lifecycle_mut(&mut self) -> Option<&mut LifecycleManager> {
        self.lifecycle.as_mut().map(|(m, _)| m)
    }

    /// What the most recent maintenance pass did, if one has run.
    pub fn last_maintenance(&self) -> Option<&LifecycleTickReport> {
        self.last_maintenance.as_ref()
    }

    /// The governed pipeline.
    pub fn system(&self) -> &DbAugur {
        &self.sys
    }

    /// Mutable access (training runs go through here).
    pub fn system_mut(&mut self) -> &mut DbAugur {
        &mut self.sys
    }

    /// The most recent eviction's spill blob, if any.
    pub fn last_spill(&self) -> Option<&[u8]> {
        self.last_spill.as_deref()
    }
}

impl Engine for PipelineEngine {
    fn ingest(&mut self, ts_secs: u64, sql: &str) {
        self.sys.ingest_record(ts_secs, sql);
    }

    fn forecast(&mut self, sql: &str) -> f64 {
        // One lookup feeds both the answer and the floor key. A
        // statement the registry has never seen answers 0.0 and leaves
        // nothing behind, so the floor table is bounded by the registry.
        let Some(id) = self.sys.registry().lookup(sql) else {
            return 0.0;
        };
        let v = self.sys.forecast_template_id(id).unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        self.floors.insert(id, v);
        v
    }

    fn floor(&mut self, sql: &str) -> f64 {
        let id = self.sys.registry().lookup(sql);
        id.and_then(|id| self.floors.get(&id)).copied().unwrap_or(0.0)
    }

    fn resident_bytes(&self) -> usize {
        self.sys.registry_bytes()
    }

    fn evict_to(&mut self, target_bytes: usize) -> usize {
        let report = self.sys.evict_cold_templates(target_bytes);
        if report.spill.is_some() {
            self.last_spill = report.spill;
        }
        report.bytes_freed
    }

    fn spill_to(&mut self, target_bytes: usize) -> std::io::Result<usize> {
        // The registry's eviction already produces a spill blob; keeping
        // it makes this a true spill (recoverable), not a discard.
        Ok(self.evict_to(target_bytes))
    }

    fn maintain(&mut self, budget_ms: u64) -> u64 {
        let Some((manager, cost)) = self.lifecycle.as_mut() else {
            return 0;
        };
        let cost = *cost;
        if budget_ms < cost {
            return 0;
        }
        // The deadline bounds real work; the returned charge models it
        // on the governor's clock (one unit per retrain attempted).
        let deadline = Deadline::in_millis(budget_ms);
        let report = manager.tick(&mut self.sys, &deadline);
        let attempts = report.attempted as u64;
        self.last_maintenance = Some(report);
        (attempts * cost).min(budget_ms)
    }

    fn durability(&self) -> DurabilityCounters {
        self.sys.durability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_engine_is_bounded_per_template() {
        let mut e = SimEngine::new(16);
        let before_templates = e.resident_bytes();
        for ts in 0..10_000u64 {
            e.ingest(ts, "SELECT a FROM t WHERE x = 1");
        }
        let one = e.resident_bytes();
        assert!(one > before_templates);
        for ts in 0..10_000u64 {
            e.ingest(ts, "SELECT a FROM t WHERE x = 1");
        }
        assert_eq!(e.resident_bytes(), one, "re-ingesting one template never grows");
        assert_eq!(e.num_templates(), 1);
        assert!(e.forecast("SELECT a FROM t WHERE x = 5") <= 16.0);
    }

    #[test]
    fn sim_engine_evicts_coldest_and_readmits() {
        let mut e = SimEngine::new(8);
        e.ingest(10, "SELECT cold FROM u");
        for ts in 100..120 {
            e.ingest(ts, "SELECT hot FROM t");
        }
        let before = e.resident_bytes();
        let freed = e.evict_to(before - 1);
        assert!(freed > 0);
        assert_eq!(e.evictions(), 1);
        assert_eq!(e.floor("SELECT cold FROM u"), 0.0, "evicted history is gone");
        assert!(e.forecast("SELECT hot FROM t") > 0.0, "hot template survives");
        // The evicted template comes back on its next arrival.
        e.ingest(200, "SELECT cold FROM u");
        assert_eq!(e.forecast("SELECT cold FROM u"), 1.0);
    }

    #[test]
    fn pipeline_floors_are_keyed_by_template_and_bounded_by_the_registry() {
        let mut cfg = dbaugur::DbAugurConfig {
            interval_secs: 60,
            history: 8,
            horizon: 1,
            top_k: 2,
            ..Default::default()
        };
        cfg.clustering.min_size = 1;
        cfg.fast();
        let mut sys = DbAugur::new(cfg);
        for minute in 0..120u64 {
            for q in 0..2 + 5 * u64::from(minute % 10 < 5) {
                sys.ingest_record(minute * 60 + q, "SELECT * FROM t WHERE a = 1");
            }
        }
        sys.train(0, 120 * 60).expect("trains");
        let mut e = PipelineEngine::new(sys);

        assert_eq!(e.floor("SELECT * FROM t WHERE a = 2"), 0.0, "no fresh answer yet");
        let fresh = e.forecast("SELECT * FROM t WHERE a = 3");
        assert!(fresh.is_finite() && fresh != 0.0, "a trained template answers: {fresh}");
        assert_eq!(e.floors.len(), 1);

        for i in 0..10_000 {
            let sql = format!("SELECT c{i} FROM never_seen_{i} WHERE x = {i}");
            assert_eq!(e.forecast(&sql), 0.0);
            assert_eq!(e.floor(&sql), 0.0);
        }
        assert_eq!(e.floors.len(), 1, "unregistered statements leave nothing behind");
        assert_eq!(
            e.floor("SELECT * FROM t WHERE a = 4").to_bits(),
            fresh.to_bits(),
            "the floor is the template's last fresh answer"
        );
    }

    #[test]
    fn sim_engine_floor_is_cheap_and_finite() {
        let mut e = SimEngine::new(4);
        assert_eq!(e.floor("SELECT nothing FROM nowhere"), 0.0);
        for ts in 0..100 {
            e.ingest(ts, "SELECT a FROM t");
        }
        assert!(e.floor("SELECT a FROM t").is_finite());
    }
}
