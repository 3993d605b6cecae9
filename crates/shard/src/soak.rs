//! The shard-kill soak harness: seeded multi-shard floods with one
//! shard forced through a fault mid-run, in virtual time.
//!
//! The harness exists to prove the bulkhead claim with bytes, not
//! vibes: the same seeded workload is run fault-free and with one shard
//! killed, and the surviving shards' served-value digests must match
//! exactly. It also measures what `tests/shard_isolation.rs` gates on —
//! how many ticks the hurt shard takes to recover, what fraction of
//! traffic was shed during the outage window, and how many forecasts
//! were answered as failover floors instead of queueing behind the dead
//! shard.

use crate::health::{HealthPolicy, ShardState};
use crate::supervisor::{Supervisor, SupervisorConfig, SupervisorStats};
use dbaugur_exec::Executor;
use dbaugur_serve::{Engine, ServeConfig, ServeStats, SimEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How the victim shard is hurt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillKind {
    /// The shard's engine panics applying an ingest mid-tick; the
    /// supervisor bulkheads the panic, rebuilds the shard, and
    /// quarantines it.
    PanicMidTick,
    /// The shard is quarantined directly (operator kill switch); the
    /// pipeline itself never faults.
    ForceQuarantine,
}

/// Shape of one seeded shard-kill scenario.
#[derive(Debug, Clone)]
pub struct ShardSoakConfig {
    /// Shard fault domains.
    pub shards: usize,
    /// Supervisor ticks to run.
    pub ticks: usize,
    /// Seed for the workload draw.
    pub seed: u64,
    /// Distinct templates in the offered load (spread across shards by
    /// the stable hash).
    pub templates: usize,
    /// Forecasts offered per tick.
    pub per_tick_forecasts: usize,
    /// Ingest records offered per tick.
    pub per_tick_ingest: usize,
    /// Distinct tenants the load is attributed to.
    pub tenants: usize,
    /// Per-tenant per-tick quota (`0` = unlimited).
    pub tenant_quota_per_tick: u64,
    /// The shard to hurt (`None` = fault-free run).
    pub kill_shard: Option<usize>,
    /// Fraction of the run at which the fault lands.
    pub kill_at_frac: f64,
    /// How the victim is hurt.
    pub kill_kind: KillKind,
    /// Executor workers driving shard ticks.
    pub workers: usize,
    /// Per-template history capacity of each shard's sim engine.
    pub ring_capacity: usize,
    /// Per-shard governor tunables.
    pub serve: ServeConfig,
    /// Health state-machine thresholds.
    pub policy: HealthPolicy,
}

impl Default for ShardSoakConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            ticks: 60,
            seed: 0xD8A6,
            templates: 64,
            per_tick_forecasts: 48,
            per_tick_ingest: 48,
            tenants: 4,
            tenant_quota_per_tick: 0,
            kill_shard: None,
            kill_at_frac: 0.25,
            kill_kind: KillKind::ForceQuarantine,
            workers: 1,
            ring_capacity: 32,
            serve: ServeConfig {
                forecast_queue_cap: 256,
                ingest_queue_cap: 1024,
                rate_capacity: 1e6,
                refill_per_ms: 1e6,
                tick_budget_ms: 10_000,
                forecast_deadline_ms: 5_000,
                memory_budget_bytes: 1 << 20,
                latency_window: 2048,
            },
            policy: HealthPolicy::default(),
        }
    }
}

/// Traffic accounting over the outage window (fault tick through the
/// victim's return to healthy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Tick the fault landed.
    pub from_tick: u64,
    /// Tick the victim was healthy again (run end if it never was).
    pub to_tick: u64,
    /// Requests offered at the front door during the window.
    pub offered: u64,
    /// Requests answered (fresh + degraded + ingested + failover
    /// floors) during the window.
    pub answered: u64,
    /// Requests shed during the window.
    pub shed: u64,
}

impl OutageWindow {
    /// Fraction of offered requests that were answered in the window.
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.answered as f64 / self.offered as f64
    }

    /// Fraction of offered requests shed in the window.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

/// What a shard-kill soak run observed.
#[derive(Debug, Clone)]
pub struct ShardSoakReport {
    /// Per-shard served-value digests (live epoch) at run end.
    pub per_shard_digests: Vec<u64>,
    /// Per-shard merged books (retired epochs + live governor).
    pub per_shard_stats: Vec<ServeStats>,
    /// Per-shard lifecycle state at run end.
    pub final_states: Vec<ShardState>,
    /// Supervisor-level counters.
    pub supervisor: SupervisorStats,
    /// Tick the victim was first observed quarantined.
    pub kill_tick: Option<u64>,
    /// Ticks from trip to healthy, per the victim's health machine.
    pub recovery_ticks: Option<u64>,
    /// Traffic accounting over the outage window.
    pub outage: Option<OutageWindow>,
    /// True when every shard's books balanced, lost work included.
    pub reconciled: bool,
}

/// One engine per shard, panicking on the next ingest apply after its
/// arm flag is raised. The flag self-disarms when it fires so the
/// rebuilt engine does not re-panic, and the factory hands the *same*
/// flag back on rebuild.
struct ChaosEngine {
    inner: SimEngine,
    armed: Arc<AtomicBool>,
}

impl Engine for ChaosEngine {
    fn ingest(&mut self, ts_secs: u64, sql: &str) {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected shard fault (soak kill plan)");
        }
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
}

/// Splitmix64: the workload draw. Deterministic, dependency-free, and
/// identical between the faulted and fault-free runs by construction —
/// faults never consume draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn front_door_totals(sup: &Supervisor<ChaosEngine>) -> (u64, u64, u64) {
    let mut offered = 0u64;
    let mut answered = 0u64;
    for i in 0..sup.num_shards() {
        let s = sup.merged_stats(i);
        offered += s.offered_forecasts + s.offered_ingest;
        answered += s.completed_fresh + s.completed_degraded + s.ingested;
    }
    let sv = *sup.stats();
    // Quota and open-breaker decisions never reach a governor's books;
    // failover floors are answered traffic (degraded, but served).
    offered += sv.shed_tenant_quota + sv.shed_shard_unavailable + sv.failover_floors;
    answered += sv.failover_floors;
    let shed = offered - answered;
    (offered, answered, shed)
}

/// Run one seeded shard-kill scenario.
///
/// # Panics
/// Panics if the kill shard index is out of range.
pub fn run_shard_soak(cfg: &ShardSoakConfig) -> ShardSoakReport {
    if let Some(k) = cfg.kill_shard {
        assert!(k < cfg.shards, "kill shard {k} out of range for {} shards", cfg.shards);
    }
    let flags: Vec<Arc<AtomicBool>> =
        (0..cfg.shards).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let factory_flags = flags.clone();
    let ring = cfg.ring_capacity;
    let sup_cfg = SupervisorConfig {
        shards: cfg.shards,
        serve: cfg.serve.clone(),
        policy: cfg.policy.clone(),
        tenant_quota_per_tick: cfg.tenant_quota_per_tick,
        arbiter: None,
    };
    let mut sup = Supervisor::new(sup_cfg, Arc::new(Executor::new(cfg.workers)), move |i| {
        ChaosEngine { inner: SimEngine::new(ring), armed: Arc::clone(&factory_flags[i]) }
    });

    let kill_at = ((cfg.ticks as f64) * cfg.kill_at_frac) as usize;
    let mut draw = Draw(cfg.seed);
    let mut kill_tick = None;
    let mut recovery_ticks = None;
    let mut outage_start: Option<(u64, (u64, u64, u64))> = None;
    let mut outage: Option<OutageWindow> = None;

    for tick in 0..cfg.ticks {
        // The kill plan acts before the tick's offered load so the
        // outage window cleanly contains everything it affects.
        if let Some(victim) = cfg.kill_shard {
            if tick == kill_at {
                match cfg.kill_kind {
                    KillKind::PanicMidTick => flags[victim].store(true, Ordering::SeqCst),
                    KillKind::ForceQuarantine => sup.force_quarantine(victim),
                }
                outage_start = Some((tick as u64, front_door_totals(&sup)));
            }
        }

        // Offered load: identical draws whether or not a fault landed.
        for _ in 0..cfg.per_tick_ingest {
            let t = draw.below(cfg.templates as u64);
            let tenant = format!("tenant-{}", draw.below(cfg.tenants as u64));
            let sql = format!("INSERT INTO t{t} VALUES ({tick})");
            sup.submit_ingest(&tenant, tick as u64, &sql, 1);
        }
        for _ in 0..cfg.per_tick_forecasts {
            let t = draw.below(cfg.templates as u64);
            let tenant = format!("tenant-{}", draw.below(cfg.tenants as u64));
            let sql = format!("SELECT load FROM t{t}");
            sup.submit_forecast(&tenant, &sql, 1);
        }

        sup.run_tick(0);

        if let Some(victim) = cfg.kill_shard {
            let state = sup.health(victim).state();
            if kill_tick.is_none() && state != ShardState::Healthy {
                kill_tick = Some(tick as u64);
            }
            if kill_tick.is_some() && recovery_ticks.is_none() && state == ShardState::Healthy {
                recovery_ticks = sup.health(victim).last_recovery_ticks();
                if let Some((from_tick, (o0, a0, s0))) = outage_start.take() {
                    let (o1, a1, s1) = front_door_totals(&sup);
                    outage = Some(OutageWindow {
                        from_tick,
                        to_tick: tick as u64,
                        offered: o1 - o0,
                        answered: a1 - a0,
                        shed: s1 - s0,
                    });
                }
            }
        }
    }
    // The run ended mid-outage: close the window at the final tick.
    if let Some((from_tick, (o0, a0, s0))) = outage_start.take() {
        let (o1, a1, s1) = front_door_totals(&sup);
        outage = Some(OutageWindow {
            from_tick,
            to_tick: cfg.ticks as u64,
            offered: o1 - o0,
            answered: a1 - a0,
            shed: s1 - s0,
        });
    }

    ShardSoakReport {
        per_shard_digests: sup.per_shard_digests(),
        per_shard_stats: (0..cfg.shards).map(|i| sup.merged_stats(i)).collect(),
        final_states: (0..cfg.shards).map(|i| sup.health(i).state()).collect(),
        supervisor: *sup.stats(),
        kill_tick,
        recovery_ticks,
        outage,
        reconciled: sup.reconciles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_soak_reconciles_and_spreads_load() {
        let report = run_shard_soak(&ShardSoakConfig::default());
        assert!(report.reconciled);
        assert_eq!(report.supervisor.panics_caught, 0);
        assert!(report.final_states.iter().all(|&s| s == ShardState::Healthy));
        let active = report
            .per_shard_stats
            .iter()
            .filter(|s| s.offered_forecasts + s.offered_ingest > 0)
            .count();
        assert_eq!(active, 8, "64 templates must load all 8 shards");
    }

    #[test]
    fn killed_shard_leaves_sibling_digests_byte_identical() {
        for kill_kind in [KillKind::ForceQuarantine, KillKind::PanicMidTick] {
            let clean = run_shard_soak(&ShardSoakConfig::default());
            let faulted = run_shard_soak(&ShardSoakConfig {
                kill_shard: Some(3),
                kill_kind,
                ..ShardSoakConfig::default()
            });
            assert!(faulted.reconciled, "{kill_kind:?}: books must balance through the fault");
            for i in 0..8 {
                if i == 3 {
                    continue;
                }
                assert_eq!(
                    clean.per_shard_digests[i], faulted.per_shard_digests[i],
                    "{kill_kind:?}: sibling shard {i} must serve byte-identical answers"
                );
            }
            assert!(faulted.kill_tick.is_some(), "{kill_kind:?}: fault observed");
            let recovery = faulted.recovery_ticks.expect("victim recovered in-run");
            assert!(recovery <= 16, "{kill_kind:?}: bounded recovery, got {recovery}");
            assert_eq!(faulted.final_states[3], ShardState::Healthy);
            let outage = faulted.outage.expect("outage window measured");
            assert!(
                outage.availability() > 0.5,
                "{kill_kind:?}: siblings plus failover floors keep most traffic answered"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_soak_outcomes() {
        let base = ShardSoakConfig { kill_shard: Some(1), ..ShardSoakConfig::default() };
        let one = run_shard_soak(&ShardSoakConfig { workers: 1, ..base.clone() });
        let eight = run_shard_soak(&ShardSoakConfig { workers: 8, ..base });
        assert_eq!(one.per_shard_digests, eight.per_shard_digests);
        assert_eq!(one.recovery_ticks, eight.recovery_ticks);
        assert_eq!(one.supervisor, eight.supervisor);
    }

    #[test]
    fn tenant_quota_bounds_one_tenant_without_starving_others() {
        let report = run_shard_soak(&ShardSoakConfig {
            tenant_quota_per_tick: 4,
            ..ShardSoakConfig::default()
        });
        assert!(report.supervisor.shed_tenant_quota > 0, "96/tick over 4 tenants must trip a 4/tick quota");
        assert!(report.reconciled);
    }
}
