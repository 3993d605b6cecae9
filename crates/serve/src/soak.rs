//! The chaos/soak harness: seeded overload scenarios against the
//! governor, in virtual time.
//!
//! A soak run drives a [`Governor`] over a [`SimEngine`] with plans
//! drawn from one seeded [`FaultInjector`]: periodic ingest floods,
//! injected task latency, slow-consumer stalls, and poison templates
//! that bloat template memory. Virtual time makes a long scenario
//! execute in milliseconds and reproduce exactly from its seed, so the
//! soak test's assertions — bounded memory, forecasts never starved
//! behind ingest, sheds counted not dropped, recovery after the burst —
//! are deterministic, not flaky.

use crate::clock::{Clock, VirtualClock};
use crate::engine::SimEngine;
use crate::governor::{Governor, HealthState, ServeConfig, ServeStats};
use dbaugur_trace::FaultInjector;

/// Shape of one seeded soak scenario.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for every chaos plan.
    pub seed: u64,
    /// Ticks to run.
    pub ticks: usize,
    /// Ingest records offered on a normal tick.
    pub base_ingest_per_tick: usize,
    /// Burst period in ticks (0 = no bursts).
    pub burst_every: usize,
    /// Ingest multiplier on burst ticks.
    pub burst_mult: usize,
    /// Forecast requests offered every tick.
    pub forecasts_per_tick: usize,
    /// Simulated cost of one full forecast, ms.
    pub forecast_cost_ms: u64,
    /// Simulated cost of one ingest apply, ms.
    pub ingest_cost_ms: u64,
    /// Fraction of ticks with an injected latency spike.
    pub spike_frac: f64,
    /// Largest injected spike, ms.
    pub spike_max_ms: u64,
    /// Fraction of ticks starting a slow-consumer stall run.
    pub stall_frac: f64,
    /// Longest stall run, ticks.
    pub stall_max_run: usize,
    /// Stall size, ms per tick.
    pub stall_ms: u64,
    /// Poison templates injected across the run.
    pub poison_templates: usize,
    /// Identifier length of each poison template.
    pub poison_name_len: usize,
    /// Distinct well-behaved templates in the offered load.
    pub hot_templates: usize,
    /// Fraction of the run at which a workload regime shift lands
    /// (templates swap and ingest multiplies) — `0.0` disables the
    /// shift and leaves the scenario byte-identical to earlier runs.
    pub drift_shift_at_frac: f64,
    /// Ingest multiplier after the regime shift (`1` = volume
    /// unchanged, only the template mix shifts).
    pub drift_shift_mult: usize,
    /// Governor tunables.
    pub serve: ServeConfig,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 0xD8A6,
            ticks: 400,
            base_ingest_per_tick: 20,
            burst_every: 40,
            burst_mult: 10,
            forecasts_per_tick: 4,
            forecast_cost_ms: 4,
            ingest_cost_ms: 1,
            spike_frac: 0.1,
            spike_max_ms: 20,
            stall_frac: 0.05,
            stall_max_run: 3,
            stall_ms: 25,
            poison_templates: 64,
            poison_name_len: 512,
            hot_templates: 8,
            drift_shift_at_frac: 0.0,
            drift_shift_mult: 1,
            serve: ServeConfig {
                forecast_queue_cap: 32,
                ingest_queue_cap: 256,
                rate_capacity: 256.0,
                refill_per_ms: 0.6,
                tick_budget_ms: 100,
                forecast_deadline_ms: 60,
                memory_budget_bytes: 48 << 10,
                latency_window: 2048,
            },
        }
    }
}

/// What a soak run observed, for the test's assertions and the CLI's
/// report.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Final cumulative counters.
    pub stats: ServeStats,
    /// Queue depths when the run ended.
    pub final_queues: (usize, usize),
    /// Highest engine residency seen at any tick boundary.
    pub memory_high_water: u64,
    /// Whole-template evictions the engine performed.
    pub engine_evictions: u64,
    /// True when every tick's books balanced.
    pub reconciled: bool,
    /// Ticks spent in each posture: (healthy, shedding, saturated).
    pub health_ticks: (u64, u64, u64),
    /// Forecast latency p50 over the retained window, ms.
    pub latency_p50_ms: f64,
    /// Forecast latency p99 over the retained window, ms.
    pub latency_p99_ms: f64,
    /// Fresh forecasts served during the quiet tail (after the last
    /// burst), vs degraded ones — the recovery signal.
    pub tail_fresh: u64,
    /// Degraded forecasts during the quiet tail.
    pub tail_degraded: u64,
    /// Sheds during the quiet tail.
    pub tail_shed: u64,
    /// Tick at which the regime shift landed (`None` when disabled).
    pub shift_tick: Option<usize>,
    /// Ticks after the shift until the governor's first fully healthy
    /// tick with fresh forecasts on the new regime (`None` when the
    /// shift was disabled or recovery never happened in-run).
    pub post_shift_recovery_ticks: Option<u64>,
    /// Virtual milliseconds the scenario covered.
    pub virtual_ms: u64,
}

impl SoakReport {
    /// The soak's pass criteria in one place (also asserted piecewise
    /// by the soak test, for better failure messages).
    pub fn passed(&self, cfg: &SoakConfig) -> bool {
        self.reconciled
            && self.memory_high_water_within(cfg)
            && self.recovered()
            && self.stats.completed_fresh > 0
    }

    /// Memory stayed within budget plus one tick's worth of intake
    /// (eviction runs at tick boundaries, so mid-tick overshoot up to
    /// the offered burst is by design).
    pub fn memory_high_water_within(&self, cfg: &SoakConfig) -> bool {
        let burst = cfg.base_ingest_per_tick * cfg.burst_mult.max(1);
        let slack = (burst * (2 * cfg.poison_name_len + 256)) as u64;
        self.memory_high_water <= cfg.serve.memory_budget_bytes as u64 + slack
    }

    /// After the final burst, fresh answers dominate degraded ones —
    /// throughput recovered.
    pub fn recovered(&self) -> bool {
        self.tail_fresh > self.tail_degraded
    }
}

/// Run one seeded soak scenario to completion.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut chaos = FaultInjector::new(cfg.seed);
    let mut ingest_plan =
        chaos.burst_flood(cfg.ticks, cfg.base_ingest_per_tick, cfg.burst_every, cfg.burst_mult);
    // Recovery is judged on the quiet tail after the last burst, so the
    // final period must actually be quiet: a seeded burst phase that
    // floods the last tick would leave nothing to judge and fail the
    // scenario on alignment, not behavior.
    if cfg.burst_every > 0 {
        let quiet_from = cfg.ticks.saturating_sub(cfg.burst_every);
        for v in &mut ingest_plan[quiet_from..] {
            *v = cfg.base_ingest_per_tick;
        }
    }
    let spike_plan = chaos.latency_spikes(cfg.ticks, cfg.spike_frac, cfg.spike_max_ms);
    let stall_plan =
        chaos.slow_consumer_stalls(cfg.ticks, cfg.stall_frac, cfg.stall_max_run, cfg.stall_ms);
    let poison = chaos.poison_templates(cfg.poison_templates, cfg.poison_name_len);
    // Drawn last (and only when enabled) so every other plan is
    // byte-identical to a run with the shift disabled at the same seed.
    let shift_tick = if cfg.drift_shift_at_frac > 0.0 {
        Some(chaos.regime_shift(cfg.ticks, cfg.drift_shift_at_frac, cfg.ticks / 16))
    } else {
        None
    };

    let engine = SimEngine::new(64);
    let mut gov = Governor::new(cfg.serve.clone(), engine, VirtualClock::new());

    // The quiet tail starts after the last burst tick; recovery is
    // judged there.
    let last_burst = (0..cfg.ticks)
        .rev()
        .find(|&i| cfg.burst_every > 0 && ingest_plan[i] > cfg.base_ingest_per_tick)
        .unwrap_or(0);

    let mut reconciled = true;
    let mut health_ticks = (0u64, 0u64, 0u64);
    let mut tail_fresh = 0u64;
    let mut tail_degraded = 0u64;
    let mut tail_shed = 0u64;
    let mut poison_cursor = 0usize;
    let mut recovery: Option<u64> = None;

    for tick in 0..cfg.ticks {
        let ts = tick as u64;
        let shifted = shift_tick.is_some_and(|s| tick >= s);
        // Offered ingest: the flood plan (multiplied after the regime
        // shift), with poison templates woven into burst traffic
        // (hostile load arrives when it hurts most). Post-shift traffic
        // targets a disjoint template set — the old hot set goes cold.
        let offered = if shifted {
            ingest_plan[tick] * cfg.drift_shift_mult.max(1)
        } else {
            ingest_plan[tick]
        };
        for i in 0..offered {
            let sql = if ingest_plan[tick] > cfg.base_ingest_per_tick
                && poison_cursor < poison.len()
                && i % 7 == 0
            {
                let s = poison[poison_cursor].clone();
                poison_cursor += 1;
                s
            } else if shifted {
                format!("SELECT b FROM shift_{} WHERE y = 1", i % cfg.hot_templates.max(1))
            } else {
                format!("SELECT a FROM hot_{} WHERE x = 1", i % cfg.hot_templates.max(1))
            };
            gov.submit_ingest(ts, &sql, cfg.ingest_cost_ms);
        }
        // Offered forecasts, with injected per-task latency on spike
        // ticks. After the shift, clients ask about the new regime.
        let cost = cfg.forecast_cost_ms + spike_plan[tick];
        for i in 0..cfg.forecasts_per_tick {
            let sql = if shifted {
                format!("SELECT b FROM shift_{} WHERE y = 1", i % cfg.hot_templates.max(1))
            } else {
                format!("SELECT a FROM hot_{} WHERE x = 1", i % cfg.hot_templates.max(1))
            };
            gov.submit_forecast(&sql, cost);
        }

        let before = *gov.stats();
        let rep = gov.run_tick(stall_plan[tick]);
        reconciled &= gov.reconciles();
        match rep.health {
            HealthState::Healthy => health_ticks.0 += 1,
            HealthState::Shedding => health_ticks.1 += 1,
            HealthState::Saturated => health_ticks.2 += 1,
        }
        if let Some(s) = shift_tick {
            if tick >= s
                && recovery.is_none()
                && rep.health == HealthState::Healthy
                && rep.served_fresh > 0
            {
                recovery = Some((tick - s) as u64);
            }
        }
        if tick > last_burst {
            tail_fresh += rep.served_fresh;
            tail_degraded += rep.served_degraded;
            tail_shed += gov.stats().shed_total() - before.shed_total();
        }
    }

    // Drain what is still queued so "admitted is never dropped" is
    // visible end-to-end.
    let (mut fq, mut iq) = gov.queue_depths();
    let mut drain_guard = 0;
    while (fq > 0 || iq > 0) && drain_guard < 10_000 {
        gov.run_tick(0);
        reconciled &= gov.reconciles();
        let d = gov.queue_depths();
        fq = d.0;
        iq = d.1;
        drain_guard += 1;
    }

    let stats = *gov.stats();
    SoakReport {
        stats,
        final_queues: gov.queue_depths(),
        memory_high_water: stats.max_resident_bytes,
        engine_evictions: gov.engine().evictions(),
        reconciled,
        health_ticks,
        latency_p50_ms: gov.latency_percentile(0.5).unwrap_or(0.0),
        latency_p99_ms: gov.latency_percentile(0.99).unwrap_or(0.0),
        tail_fresh,
        tail_degraded,
        tail_shed,
        shift_tick,
        post_shift_recovery_ticks: recovery,
        virtual_ms: gov.clock().now_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_deterministic_from_its_seed() {
        let cfg = SoakConfig { ticks: 120, ..SoakConfig::default() };
        let a = run_soak(&cfg);
        let b = run_soak(&cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.health_ticks, b.health_ticks);
        assert_eq!(a.memory_high_water, b.memory_high_water);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_soak(&SoakConfig { ticks: 120, ..SoakConfig::default() });
        let b = run_soak(&SoakConfig { ticks: 120, seed: 1, ..SoakConfig::default() });
        assert_ne!(a.stats, b.stats, "chaos plans must actually vary with the seed");
    }

    #[test]
    fn disabled_shift_leaves_the_scenario_untouched() {
        let base = SoakConfig { ticks: 120, ..SoakConfig::default() };
        // A multiplier alone changes nothing: the shift must be armed
        // by its fraction, and disabled runs draw no extra randomness.
        let armed_mult =
            SoakConfig { drift_shift_mult: 9, ..base.clone() };
        let a = run_soak(&base);
        let b = run_soak(&armed_mult);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.shift_tick, None);
        assert_eq!(a.post_shift_recovery_ticks, None);
    }

    #[test]
    fn drift_shift_lands_and_is_deterministic() {
        let cfg = SoakConfig {
            ticks: 200,
            drift_shift_at_frac: 0.5,
            drift_shift_mult: 2,
            ..SoakConfig::default()
        };
        let a = run_soak(&cfg);
        let b = run_soak(&cfg);
        assert_eq!(a.stats, b.stats, "shifted runs reproduce from the seed");
        assert_eq!(a.shift_tick, b.shift_tick);
        let s = a.shift_tick.expect("shift enabled");
        assert!((100..200).contains(&s), "shift lands near the configured fraction: {s}");
        assert!(
            a.post_shift_recovery_ticks.is_some(),
            "the sim engine recovers on the new template set"
        );
    }

    #[test]
    fn quiet_scenario_stays_healthy() {
        let cfg = SoakConfig {
            ticks: 100,
            base_ingest_per_tick: 5,
            burst_every: 0,
            forecasts_per_tick: 2,
            spike_frac: 0.0,
            stall_frac: 0.0,
            poison_templates: 0,
            ..SoakConfig::default()
        };
        let rep = run_soak(&cfg);
        assert!(rep.reconciled);
        assert_eq!(rep.stats.shed_total(), 0, "no overload, no sheds");
        assert_eq!(rep.stats.completed_degraded, 0, "no overload, no degradation");
        assert_eq!(rep.health_ticks.1 + rep.health_ticks.2, 0, "healthy throughout");
    }
}
