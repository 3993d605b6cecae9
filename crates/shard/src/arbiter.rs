//! The cross-shard budget arbiter: one global byte budget, divided
//! into per-shard grants that follow the heat, with a graded
//! degradation ladder for the tick the budget runs out anyway.
//!
//! The arbiter is deliberately pure policy — it owns no engines and
//! performs no I/O. Each tick the supervisor feeds it per-shard demand
//! (resident bytes plus ingest rate) and it answers with new grants
//! whose sum is *exactly* the global budget; the supervisor then
//! enforces those grants against the engines and reports back what
//! remained resident. Keeping the arbiter side-effect-free makes the
//! two invariants that matter — grants always sum to the budget, and
//! the ladder escalates monotonically — directly unit-testable.
//!
//! # The degradation ladder
//!
//! When the global budget is exhausted the response is graded, never a
//! panic and never a silent overrun:
//!
//! 1. **Evict** — every shard over its grant evicts coldest-first back
//!    down to the grant (the spill blob is retained by callers that
//!    need recall);
//! 2. **Spill** — engines with a real spill path push remaining
//!    overage to disk;
//! 3. **Shed** — sustained exhaustion ([`ArbiterConfig::shed_after`]
//!    consecutive over-budget ticks) engages memory-pressure shedding:
//!    lowest-priority ingest is refused with a typed
//!    `ShedReason::MemoryPressure` while forecast reads continue;
//! 4. **Quarantine** — exhaustion that survives shedding
//!    ([`ArbiterConfig::quarantine_after`] ticks) quarantines the worst
//!    offender so the rest of the fleet stays inside the ceiling.

/// Arbiter tunables.
#[derive(Debug, Clone)]
pub struct ArbiterConfig {
    /// The global hard ceiling in bytes across every shard.
    pub global_budget_bytes: usize,
    /// Floor grant no shard drops below (a cold shard must still be
    /// able to admit a trickle without instantly tripping eviction).
    pub min_grant_bytes: usize,
    /// EWMA smoothing factor for per-shard heat, in `(0, 1]`. Higher
    /// reacts faster; lower resists transients.
    pub alpha: f64,
    /// Consecutive over-budget ticks before the shed rung engages.
    pub shed_after: u32,
    /// Consecutive over-budget ticks before the quarantine rung fires.
    /// Must be ≥ `shed_after`.
    pub quarantine_after: u32,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        Self {
            global_budget_bytes: 8 << 20,
            min_grant_bytes: 64 << 10,
            alpha: 0.3,
            shed_after: 2,
            quarantine_after: 6,
        }
    }
}

impl ArbiterConfig {
    /// Validate against a shard count: the floors must fit inside the
    /// budget or the grant invariant is unsatisfiable.
    pub fn validate(&self, shards: usize) -> Result<(), String> {
        if self.global_budget_bytes == 0 {
            return Err("arbiter: global budget must be positive".into());
        }
        if shards == 0 {
            return Err("arbiter: shard count must be positive".into());
        }
        if self.min_grant_bytes.saturating_mul(shards) > self.global_budget_bytes {
            return Err(format!(
                "arbiter: {} shards x {} B min grant exceeds the {} B global budget",
                shards, self.min_grant_bytes, self.global_budget_bytes
            ));
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("arbiter: alpha must be in (0, 1]".into());
        }
        if self.shed_after == 0 || self.quarantine_after < self.shed_after {
            return Err("arbiter: need 0 < shed_after <= quarantine_after".into());
        }
        Ok(())
    }
}

/// One shard's demand signal for a regrant round.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardDemand {
    /// Bytes the shard's engine currently holds resident.
    pub resident_bytes: usize,
    /// Records the shard ingested since the last round (rate term, so a
    /// newly hot shard attracts budget before its bytes pile up).
    pub ingested_delta: u64,
}

/// Arbiter counters, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Regrant rounds that moved at least one byte of grant.
    pub regrants: u64,
    /// Grant bytes reclaimed from cold shards and re-granted to hot
    /// ones (half the total absolute grant movement).
    pub reclaimed_bytes: u64,
    /// Ticks the pre-enforcement total exceeded the global budget.
    pub exhausted_ticks: u64,
    /// Times the shed rung engaged (transitions, not ticks).
    pub pressure_sheds_engaged: u64,
    /// Times shedding was released after pressure cleared.
    pub pressure_sheds_released: u64,
    /// Shards quarantined by the final rung.
    pub pressure_quarantines: u64,
    /// Bytes reclaimed by the evict rung (cumulative).
    pub ladder_evicted_bytes: u64,
    /// Bytes moved by the spill rung (cumulative).
    pub ladder_spilled_bytes: u64,
    /// Ticks the total stayed over the hard ceiling *after* the full
    /// ladder ran. The pinned DetSim pressure plans gate on this being
    /// zero whenever the budget clears the template-string floor.
    pub ceiling_breaches: u64,
    /// Largest post-enforcement total ever observed (bytes).
    pub max_total_resident: u64,
}

/// The rung [`BudgetArbiter::note_pressure`] escalates to this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// Under budget, or evict/spill are expected to cover it.
    None,
    /// Sustained exhaustion: engage memory-pressure ingest shedding.
    Shed,
    /// Shedding did not relieve it: quarantine the worst offender.
    Quarantine,
}

/// See the module docs: pure grant arithmetic plus the ladder state.
#[derive(Debug)]
pub struct BudgetArbiter {
    cfg: ArbiterConfig,
    /// Per-shard demand heat (EWMA of bytes + rate).
    heat: Vec<f64>,
    /// Per-shard byte grants; invariant: sums to the global budget.
    grants: Vec<usize>,
    exhausted_streak: u32,
    shedding: bool,
    stats: ArbiterStats,
}

impl BudgetArbiter {
    /// A fresh arbiter with the budget split evenly.
    ///
    /// # Panics
    /// Panics if the config does not validate for `shards`.
    pub fn new(cfg: ArbiterConfig, shards: usize) -> Self {
        cfg.validate(shards).expect("valid arbiter config");
        let grants = split_exact(cfg.global_budget_bytes, &vec![1.0; shards], cfg.min_grant_bytes);
        Self { cfg, heat: vec![0.0; shards], grants, exhausted_streak: 0, shedding: false, stats: ArbiterStats::default() }
    }

    /// The config in force.
    pub fn config(&self) -> &ArbiterConfig {
        &self.cfg
    }

    /// Change the global budget mid-flight (a memory-pressure squeeze:
    /// the host cgroup shrank, or a simulated fault plan demands it)
    /// and immediately re-split the grants under the current heat. The
    /// floor is preserved by clamping: the budget never drops below
    /// `shards × min_grant_bytes`, so the grant invariant (every shard
    /// keeps its minimum, grants sum to the budget) survives any
    /// squeeze. Returns the budget actually applied.
    pub fn set_global_budget(&mut self, bytes: usize) -> usize {
        let floor = self.cfg.min_grant_bytes.saturating_mul(self.grants.len());
        let applied = bytes.max(floor).max(1);
        self.cfg.global_budget_bytes = applied;
        let heat: Vec<f64> = if self.heat.iter().all(|&h| h <= 0.0) {
            vec![1.0; self.heat.len()]
        } else {
            self.heat.clone()
        };
        self.grants = split_exact(applied, &heat, self.cfg.min_grant_bytes);
        applied
    }

    /// Current per-shard grants; always sums to the global budget.
    pub fn grants(&self) -> &[usize] {
        &self.grants
    }

    /// Current per-shard heat scores.
    pub fn heats(&self) -> &[f64] {
        &self.heat
    }

    /// Arbiter counters.
    pub fn stats(&self) -> &ArbiterStats {
        &self.stats
    }

    /// True while the shed rung is engaged.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    /// Consecutive over-budget ticks so far.
    pub fn exhausted_streak(&self) -> u32 {
        self.exhausted_streak
    }

    /// Fold this round's demand into the heat EWMAs and recompute the
    /// grants: every shard keeps the floor, and the slack above the
    /// floors follows heat proportionally — cold shards' unused grant
    /// is reclaimed and handed to hot ones. The returned slice always
    /// sums to exactly the global budget.
    pub fn regrant(&mut self, demands: &[ShardDemand]) -> &[usize] {
        assert_eq!(demands.len(), self.heat.len(), "demand vector must cover every shard");
        for (h, d) in self.heat.iter_mut().zip(demands) {
            // An observation is 8 resident bytes; weighting the rate
            // term well above that lets arrival rate dominate resident
            // size, so budget chases where growth is happening.
            let score = d.resident_bytes as f64 + 64.0 * d.ingested_delta as f64;
            *h = (1.0 - self.cfg.alpha) * *h + self.cfg.alpha * score;
        }
        let new = split_exact(self.cfg.global_budget_bytes, &self.heat, self.cfg.min_grant_bytes);
        let moved: usize =
            new.iter().zip(&self.grants).map(|(a, b)| a.abs_diff(*b)).sum::<usize>() / 2;
        if moved > 0 {
            self.stats.regrants += 1;
            self.stats.reclaimed_bytes += moved as u64;
        }
        self.grants = new;
        &self.grants
    }

    /// Report the *pre-enforcement* total and learn which rung to run.
    /// Under budget resets the streak and releases shedding; over
    /// budget advances the streak and escalates on the configured
    /// thresholds.
    pub fn note_pressure(&mut self, total_resident: usize) -> Escalation {
        if total_resident <= self.cfg.global_budget_bytes {
            self.exhausted_streak = 0;
            if self.shedding {
                self.shedding = false;
                self.stats.pressure_sheds_released += 1;
            }
            return Escalation::None;
        }
        self.exhausted_streak += 1;
        self.stats.exhausted_ticks += 1;
        if self.exhausted_streak >= self.cfg.quarantine_after {
            if !self.shedding {
                self.shedding = true;
                self.stats.pressure_sheds_engaged += 1;
            }
            self.stats.pressure_quarantines += 1;
            Escalation::Quarantine
        } else if self.exhausted_streak >= self.cfg.shed_after {
            if !self.shedding {
                self.shedding = true;
                self.stats.pressure_sheds_engaged += 1;
            }
            Escalation::Shed
        } else {
            Escalation::None
        }
    }

    /// Account bytes the evict rung reclaimed.
    pub fn note_evicted(&mut self, bytes: u64) {
        self.stats.ladder_evicted_bytes += bytes;
    }

    /// Account bytes the spill rung moved.
    pub fn note_spilled(&mut self, bytes: u64) {
        self.stats.ladder_spilled_bytes += bytes;
    }

    /// Report the *post-enforcement* total: tracks the high-water mark
    /// and counts a ceiling breach if the full ladder still could not
    /// get back under the hard ceiling.
    pub fn note_enforced(&mut self, total_resident: usize) {
        self.stats.max_total_resident = self.stats.max_total_resident.max(total_resident as u64);
        if total_resident > self.cfg.global_budget_bytes {
            self.stats.ceiling_breaches += 1;
        }
    }
}

/// Split `budget` into grants proportional to `weights`, each at least
/// `floor`, summing to exactly `budget`. Zero/degenerate weights fall
/// back to an even split. The remainder after integer division lands on
/// the heaviest shard so the sum is exact without biasing cold shards.
fn split_exact(budget: usize, weights: &[f64], floor: usize) -> Vec<usize> {
    let n = weights.len();
    assert!(n > 0, "at least one shard");
    let slack = budget - floor * n;
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    let mut grants: Vec<usize> = if total <= f64::EPSILON {
        vec![slack / n; n]
    } else {
        weights.iter().map(|w| ((w.max(0.0) / total) * slack as f64) as usize).collect()
    };
    let assigned: usize = grants.iter().sum();
    let remainder = slack - assigned;
    let heaviest = weights
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    grants[heaviest] += remainder;
    for g in &mut grants {
        *g += floor;
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget: usize) -> ArbiterConfig {
        ArbiterConfig { global_budget_bytes: budget, min_grant_bytes: 100, ..Default::default() }
    }

    fn demand(resident: usize, rate: u64) -> ShardDemand {
        ShardDemand { resident_bytes: resident, ingested_delta: rate }
    }

    #[test]
    fn config_validation_catches_unsatisfiable_floors() {
        assert!(ArbiterConfig::default().validate(8).is_ok());
        assert!(cfg(0).validate(4).is_err(), "zero budget");
        assert!(cfg(300).validate(4).is_err(), "4 x 100 floor > 300 budget");
        assert!(
            ArbiterConfig { alpha: 0.0, ..ArbiterConfig::default() }.validate(4).is_err(),
            "alpha must be positive"
        );
        assert!(
            ArbiterConfig { shed_after: 5, quarantine_after: 2, ..ArbiterConfig::default() }
                .validate(4)
                .is_err(),
            "quarantine must not precede shed"
        );
    }

    #[test]
    fn grants_always_sum_to_the_budget_exactly() {
        let mut a = BudgetArbiter::new(cfg(10_007), 3); // awkward odd budget
        assert_eq!(a.grants().iter().sum::<usize>(), 10_007);
        for round in 0..50u64 {
            let g = a.regrant(&[
                demand(4_000 + (round as usize % 7) * 13, round % 5),
                demand(100, 0),
                demand((round as usize) * 31 % 900, round % 3),
            ]);
            assert_eq!(g.iter().sum::<usize>(), 10_007, "round {round}");
            assert!(g.iter().all(|&g| g >= 100), "floors hold, round {round}");
        }
    }

    #[test]
    fn set_global_budget_resplits_and_clamps_to_the_floor() {
        let mut a = BudgetArbiter::new(cfg(10_000), 4);
        // Warm up some heat skew first.
        a.regrant(&[demand(5_000, 50), demand(100, 0), demand(100, 0), demand(100, 0)]);
        let applied = a.set_global_budget(2_000);
        assert_eq!(applied, 2_000);
        assert_eq!(a.config().global_budget_bytes, 2_000);
        assert_eq!(a.grants().iter().sum::<usize>(), 2_000);
        assert!(a.grants().iter().all(|&g| g >= 100), "floors hold after squeeze");
        assert!(a.grants()[0] > a.grants()[1], "heat skew survives the squeeze");
        // A squeeze below shards x min_grant clamps instead of breaking
        // the grant invariant.
        let applied = a.set_global_budget(50);
        assert_eq!(applied, 400);
        assert_eq!(a.grants().iter().sum::<usize>(), 400);
        // Cold-start arbiter (zero heat) still splits evenly.
        let mut b = BudgetArbiter::new(cfg(8_000), 4);
        b.set_global_budget(4_000);
        assert_eq!(b.grants(), &[1_000, 1_000, 1_000, 1_000]);
    }

    #[test]
    fn budget_follows_the_heat() {
        let mut a = BudgetArbiter::new(cfg(100_000), 4);
        for _ in 0..20 {
            a.regrant(&[demand(50_000, 500), demand(200, 0), demand(200, 0), demand(200, 0)]);
        }
        let g = a.grants();
        assert!(
            g[0] > 3 * g[1],
            "hot shard 0 must hold most of the slack: {g:?}"
        );
        assert!(a.stats().regrants > 0);
        assert!(a.stats().reclaimed_bytes > 0, "slack was reclaimed from cold shards");
        // The heat moves: shard 3 becomes the hot one and takes the grant.
        for _ in 0..40 {
            a.regrant(&[demand(200, 0), demand(200, 0), demand(200, 0), demand(60_000, 800)]);
        }
        let g = a.grants();
        assert!(g[3] > 3 * g[0], "grant migrated to the new hot shard: {g:?}");
    }

    #[test]
    fn zero_heat_splits_evenly() {
        let mut a = BudgetArbiter::new(cfg(4_000), 4);
        let g = a.regrant(&[ShardDemand::default(); 4]).to_vec();
        assert_eq!(g.iter().sum::<usize>(), 4_000);
        let spread = g.iter().max().unwrap() - g.iter().min().unwrap();
        assert!(spread <= 1_000, "near-even split with no heat signal: {g:?}");
    }

    #[test]
    fn ladder_escalates_on_sustained_exhaustion_and_releases() {
        let mut a = BudgetArbiter::new(
            ArbiterConfig { shed_after: 2, quarantine_after: 4, ..cfg(1_000) },
            2,
        );
        let over = 1_500;
        assert_eq!(a.note_pressure(over), Escalation::None, "first over-budget tick: evict/spill");
        assert_eq!(a.note_pressure(over), Escalation::Shed, "second: shed engages");
        assert!(a.shedding());
        assert_eq!(a.stats().pressure_sheds_engaged, 1);
        assert_eq!(a.note_pressure(over), Escalation::Shed, "still shedding, no re-engage");
        assert_eq!(a.stats().pressure_sheds_engaged, 1);
        assert_eq!(a.note_pressure(over), Escalation::Quarantine, "fourth: worst offender goes");
        assert_eq!(a.stats().pressure_quarantines, 1);
        // Relief: streak resets, shedding releases, ladder restarts.
        assert_eq!(a.note_pressure(900), Escalation::None);
        assert!(!a.shedding());
        assert_eq!(a.stats().pressure_sheds_released, 1);
        assert_eq!(a.exhausted_streak(), 0);
        assert_eq!(a.note_pressure(over), Escalation::None, "ladder restarted from rung one");
        assert_eq!(a.stats().exhausted_ticks, 5);
    }

    #[test]
    fn enforcement_accounting_tracks_breaches_and_high_water() {
        let mut a = BudgetArbiter::new(cfg(1_000), 2);
        a.note_enforced(900);
        assert_eq!(a.stats().ceiling_breaches, 0);
        assert_eq!(a.stats().max_total_resident, 900);
        a.note_enforced(1_200);
        assert_eq!(a.stats().ceiling_breaches, 1, "post-ladder overrun is a breach");
        assert_eq!(a.stats().max_total_resident, 1_200);
        a.note_enforced(800);
        assert_eq!(a.stats().ceiling_breaches, 1);
        assert_eq!(a.stats().max_total_resident, 1_200);
    }
}
