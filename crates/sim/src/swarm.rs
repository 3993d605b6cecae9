//! Swarm testing: run hundreds of seeded compound-fault schedules and
//! aggregate what they prove.
//!
//! The generator is a pure function of `(seed, index)`, so any failing
//! schedule is reproducible from two integers — and because execution
//! is deterministic, the `.plan` file it emits replays byte-identically
//! anywhere. Structured slots keep the swarm honest about coverage:
//!
//! * every 8th schedule (index ≡ 5 mod 8) is a guaranteed compound of
//!   budget squeeze + migration fault + ENOSPC burst — the
//!   ENOSPC-during-migration-under-pressure scenario that single-layer
//!   fault tests cannot reach;
//! * every 16th (index ≡ 3 mod 16) is executed twice and the run
//!   digests compared (replay-identity check);
//! * every 16th (index ≡ 7 mod 16) is an *isolation* plan — no shared
//!   budget, no rebalance, one shard panicked — whose non-victim shards
//!   must end byte-identical to the fault-free twin run (bulkhead
//!   sibling check).
//!
//! Passing runs also feed an MTTR distribution: for each fault tick,
//! the distance to the next fully-clean tick (all shards healthy, no
//! shed rung engaged, nothing pending).

use crate::invariant::CheckKind;
use crate::plan::{EventKind, FaultEvent, SimPlan};
use crate::shrink::{shrink, ShrinkReport};
use crate::world::{run_plan_with, Draw, SimOptions};
use dbaugur_shard::CanaryBug;

/// Swarm parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwarmConfig {
    /// Schedules to generate and run.
    pub schedules: u64,
    /// Master seed; schedule `i` derives its own stream from it.
    pub seed: u64,
    /// Canary bug planted in every run (simulator self-test swarms).
    pub canary: CanaryBug,
    /// Shrink failing schedules to minimal reproducers.
    pub shrink_failures: bool,
    /// Cap on how many failures to shrink (shrinking is ~100 runs each).
    pub max_shrinks: usize,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        Self {
            schedules: 200,
            seed: 0xD5_5EED,
            canary: CanaryBug::None,
            shrink_failures: true,
            max_shrinks: 4,
        }
    }
}

/// One failing schedule, with its reproducer when shrinking ran.
#[derive(Debug, Clone)]
pub struct SwarmFailure {
    /// Schedule index within the swarm (regenerate with the swarm seed).
    pub index: u64,
    /// First checker that fired.
    pub check: CheckKind,
    /// First violation's detail line.
    pub detail: String,
    /// Minimal reproducer, when shrinking was enabled and budgeted.
    pub shrunk: Option<ShrinkReport>,
}

/// Mean-time-to-recovery distribution, in ticks, over passing runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MttrStats {
    /// Recovery intervals measured (one per fault tick that recovered).
    pub samples: usize,
    /// Fault ticks with no clean tick before the run ended.
    pub censored: usize,
    /// Median ticks to the next clean tick.
    pub p50_ticks: u64,
    /// 99th-percentile ticks to the next clean tick.
    pub p99_ticks: u64,
    /// Worst observed recovery.
    pub max_ticks: u64,
}

impl MttrStats {
    fn from_samples(mut samples: Vec<u64>, censored: usize) -> Self {
        if samples.is_empty() {
            return Self { censored, ..Self::default() };
        }
        samples.sort_unstable();
        let pick = |p: usize| samples[(samples.len() * p / 100).min(samples.len() - 1)];
        Self {
            samples: samples.len(),
            censored,
            p50_ticks: pick(50),
            p99_ticks: pick(99),
            max_ticks: *samples.last().unwrap(),
        }
    }
}

/// What the swarm proved.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Schedules with zero violations.
    pub passed: u64,
    /// Schedules with at least one violation.
    pub failed: u64,
    /// Failing schedules, with reproducers where shrunk.
    pub failures: Vec<SwarmFailure>,
    /// Replay-identity double-runs performed.
    pub replay_checked: u64,
    /// Double-runs whose digests diverged (must be 0).
    pub replay_mismatches: u64,
    /// Isolation plans whose sibling digests were compared.
    pub sibling_checked: u64,
    /// Non-victim shards that diverged from the fault-free twin
    /// (must be 0: faults must not leak across the bulkhead).
    pub sibling_mismatches: u64,
    /// MTTR distribution over passing runs.
    pub mttr: MttrStats,
    /// Faults injected across the whole swarm.
    pub faults_injected: u64,
    /// Crash/reopen cycles across the whole swarm.
    pub crashes: u64,
    /// Observations durably acknowledged across the whole swarm.
    pub acked: u64,
}

impl SwarmReport {
    /// True when every schedule passed and every spot check agreed.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.replay_mismatches == 0 && self.sibling_mismatches == 0
    }
}

/// Generate schedule `idx` of a swarm seeded with `seed`: a pure
/// function, so a failure report needs only the two integers.
pub fn generate_plan(seed: u64, idx: u64) -> SimPlan {
    let mut d = Draw(seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_5A5A_0BAD_5EED);
    d.next();
    let shards = 2 + d.below(3);
    let ticks = (16 + d.below(17)) as u64;
    let mut plan = SimPlan {
        seed: d.next(),
        ticks,
        shards,
        templates: 200 + d.below(401),
        ingest_per_tick: 400 + d.below(801),
        hot_templates: 12 + d.below(13),
        hot_permille: (600 + d.below(301)) as u32,
        budget_bytes: (96 + d.below(129)) << 10,
        min_grant_bytes: 16 << 10,
        rebalance: true,
        tick_ms: 100,
        maintenance_ms: 20,
        group_commit: 0,
        events: Vec::new(),
        ..SimPlan::default()
    };

    if idx % 16 == 7 {
        // Isolation slot: bulkheads only — a panic on one shard must
        // leave every sibling byte-identical to the fault-free twin.
        plan.budget_bytes = 0;
        plan.rebalance = false;
        plan.events = vec![FaultEvent {
            tick: ticks / 3,
            kind: EventKind::ShardPanic { shard: d.below(shards) },
        }];
        plan.normalize();
        return plan;
    }

    if idx % 8 == 5 {
        // Guaranteed compound slot: squeeze the budget, fault the next
        // migration, then land an ENOSPC burst — all within a few ticks.
        let t = 2 + d.below((ticks as usize).saturating_sub(8).max(1)) as u64;
        plan.events.push(FaultEvent {
            tick: t,
            kind: EventKind::BudgetSqueeze { permille: (300 + d.below(300)) as u32 },
        });
        plan.events.push(FaultEvent {
            tick: t + 1,
            kind: EventKind::MigrationFault { ops: (2 + d.below(4)) as u32 },
        });
        plan.events.push(FaultEvent {
            tick: t + 2,
            kind: EventKind::Enospc { ops: (2 + d.below(6)) as u32 },
        });
    }

    let extra = 1 + d.below(5);
    for _ in 0..extra {
        let tick = d.below(ticks as usize) as u64;
        let kind = match d.below(100) {
            0..=17 => EventKind::Enospc { ops: (1 + d.below(6)) as u32 },
            18..=31 => EventKind::Eio { ops: (1 + d.below(6)) as u32 },
            32..=41 => EventKind::ShortWrite { ops: (1 + d.below(4)) as u32 },
            42..=51 => EventKind::SpillFault { ops: (1 + d.below(4)) as u32 },
            52..=61 => EventKind::MigrationFault { ops: (1 + d.below(4)) as u32 },
            62..=71 => EventKind::Crash,
            72..=77 => EventKind::CrashAt { op: (2_000 + d.below(20_000)) as u64 },
            78..=83 => EventKind::ShardPanic { shard: d.below(shards) },
            84..=89 => EventKind::BudgetSqueeze { permille: (300 + d.below(500)) as u32 },
            90..=94 => EventKind::DriftShift {
                rotate: 1 + d.below(shards - 1),
                mult_permille: (700 + d.below(900)) as u32,
            },
            _ => EventKind::ClockJump { ms: (100 + d.below(500)) as u64 },
        };
        plan.events.push(FaultEvent { tick, kind });
    }
    plan.normalize();
    plan
}

/// Run a swarm.
pub fn run_swarm(cfg: &SwarmConfig) -> SwarmReport {
    let opts = SimOptions { canary: cfg.canary, stop_at_first_violation: false };
    let mut report = SwarmReport {
        schedules: cfg.schedules,
        passed: 0,
        failed: 0,
        failures: Vec::new(),
        replay_checked: 0,
        replay_mismatches: 0,
        sibling_checked: 0,
        sibling_mismatches: 0,
        mttr: MttrStats::default(),
        faults_injected: 0,
        crashes: 0,
        acked: 0,
    };
    let mut mttr_samples: Vec<u64> = Vec::new();
    let mut mttr_censored = 0usize;
    let mut shrinks_left = if cfg.shrink_failures { cfg.max_shrinks } else { 0 };

    for idx in 0..cfg.schedules {
        let plan = generate_plan(cfg.seed, idx);
        let run = run_plan_with(&plan, &opts);
        report.faults_injected += run.faults_injected;
        report.crashes += run.crashes;
        report.acked += run.acked;

        if run.passed() {
            report.passed += 1;
            // MTTR: distance from each fault tick to the next clean tick.
            let mut fault_ticks: Vec<u64> = plan.events.iter().map(|e| e.tick).collect();
            fault_ticks.dedup();
            for t in fault_ticks {
                match run.clean_ticks.iter().enumerate().skip(t as usize).find(|(_, &c)| c) {
                    Some((clean_at, _)) => mttr_samples.push(clean_at as u64 - t),
                    None => mttr_censored += 1,
                }
            }
        } else {
            report.failed += 1;
            let first = &run.violations[0];
            let shrunk = if shrinks_left > 0 {
                shrinks_left -= 1;
                shrink(&plan, &opts)
            } else {
                None
            };
            report.failures.push(SwarmFailure {
                index: idx,
                check: first.check,
                detail: first.detail.clone(),
                shrunk,
            });
        }

        if idx % 16 == 3 {
            // Replay-identity: the same plan must produce the same
            // digest, clean or not.
            report.replay_checked += 1;
            let again = run_plan_with(&plan, &opts);
            if again.digest != run.digest {
                report.replay_mismatches += 1;
            }
        }
        if idx % 16 == 7 {
            // Sibling isolation: non-victim shards vs the fault-free twin.
            let victim = plan.events.iter().find_map(|e| match e.kind {
                EventKind::ShardPanic { shard } => Some(shard),
                _ => None,
            });
            if let Some(victim) = victim {
                report.sibling_checked += 1;
                let mut twin = plan.clone();
                twin.events.clear();
                let fault_free = run_plan_with(&twin, &opts);
                let leaked = (0..plan.shards).filter(|&s| s != victim).any(|s| {
                    run.per_shard_digests[s] != fault_free.per_shard_digests[s]
                });
                if leaked {
                    report.sibling_mismatches += 1;
                }
            }
        }
    }
    report.mttr = MttrStats::from_samples(mttr_samples, mttr_censored);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_pure_and_produces_valid_plans() {
        for idx in 0..48 {
            let a = generate_plan(0xABCD, idx);
            let b = generate_plan(0xABCD, idx);
            a.validate().unwrap_or_else(|e| panic!("plan {idx} invalid: {e}"));
            assert_eq!(a.encode(), b.encode(), "plan {idx} must be a pure function of (seed, idx)");
        }
        assert_ne!(generate_plan(1, 0).encode(), generate_plan(2, 0).encode());
    }

    #[test]
    fn structured_slots_have_their_shapes() {
        let iso = generate_plan(7, 7);
        assert_eq!(iso.budget_bytes, 0);
        assert!(!iso.rebalance);
        assert_eq!(iso.events.len(), 1);
        assert!(matches!(iso.events[0].kind, EventKind::ShardPanic { .. }));

        let compound = generate_plan(7, 5);
        let has = |f: fn(&EventKind) -> bool| compound.events.iter().any(|e| f(&e.kind));
        assert!(has(|k| matches!(k, EventKind::BudgetSqueeze { .. })));
        assert!(has(|k| matches!(k, EventKind::MigrationFault { .. })));
        assert!(has(|k| matches!(k, EventKind::Enospc { .. })));
    }

    #[test]
    fn mttr_percentiles_come_from_the_samples() {
        let s = MttrStats::from_samples(vec![3, 1, 2, 9, 2], 1);
        assert_eq!(s.samples, 5);
        assert_eq!(s.censored, 1);
        assert_eq!(s.p50_ticks, 2);
        assert_eq!(s.max_ticks, 9);
        assert!(s.p99_ticks >= s.p50_ticks);
    }
}
