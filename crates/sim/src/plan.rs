//! The fault plan: one serializable schedule addressing every fault
//! layer by virtual-time tick and write-op count.
//!
//! A [`SimPlan`] is the *complete* input of a simulation run — workload
//! shape, budget, virtual-clock cadence, and the full fault schedule.
//! Same plan ⇒ byte-identical re-execution, which is what makes a
//! failing schedule a *reproducer* rather than an anecdote. Plans
//! round-trip through a line-oriented text format (`.plan` files) so a
//! shrunken failure can be committed, mailed, and replayed:
//!
//! ```text
//! DBAUGUR-PLAN v1
//! seed 3735928559
//! ticks 24
//! shards 3
//! ...
//! event 6 migration-fault 2
//! event 9 enospc 4
//! event 12 crash
//! end
//! ```

use dbaugur::FaultKind;
use dbaugur_shard::ArbiterConfig;

/// Magic first line of the `.plan` text format.
pub const PLAN_HEADER: &str = "DBAUGUR-PLAN v1";

/// One scheduled fault, addressed by the virtual-time tick it fires at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Tick (0-based) at which the event applies.
    pub tick: u64,
    /// What happens.
    pub kind: EventKind,
}

/// Every fault layer the simulator composes, in one address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Arm an ENOSPC burst at the tick's front door: the next `ops`
    /// write-class vfs operations fail with `errno 28` (these land on
    /// WAL appends during intake).
    Enospc {
        /// Write-class operations the burst covers.
        ops: u32,
    },
    /// Arm an EIO burst at the front door.
    Eio {
        /// Write-class operations the burst covers.
        ops: u32,
    },
    /// Arm a short-write burst (partial frame, then `Interrupted`) at
    /// the front door — the transient kind the retry layer repairs.
    ShortWrite {
        /// Write-class operations the burst covers.
        ops: u32,
    },
    /// Arm an ENOSPC burst between intake and grant enforcement, so the
    /// fault lands on the spill blob's durable write.
    SpillFault {
        /// Write-class operations the burst covers.
        ops: u32,
    },
    /// Arm an ENOSPC burst immediately before the next accepted
    /// migration, so the fault lands mid-commit (destination
    /// checkpoint, done fence, or source drain checkpoint).
    MigrationFault {
        /// Write-class operations the burst covers.
        ops: u32,
    },
    /// Schedule a burst at an *absolute* write-op index via
    /// [`dbaugur::FaultSwitch::arm_at`]. Scheduled bursts survive the
    /// crash-time `clear()`, which is how a fault gets pinned to land
    /// during post-crash recovery (WAL replay checkpoints, resumed
    /// migration commits).
    VfsAt {
        /// Absolute write-op index (cumulative across the whole run).
        op: u64,
        /// Fault kind to inject.
        fault: FaultKind,
        /// Write-class operations the burst covers.
        ops: u32,
    },
    /// Kill the store at the top of the tick: drop it, clear relative
    /// fault bursts (scheduled ones survive), and reopen through full
    /// recovery — WAL replay, snapshot fallback, migration resume.
    Crash,
    /// Kill the store mid-intake, as soon as the cumulative write-op
    /// counter crosses `op` — a crash pinned inside a WAL append burst.
    CrashAt {
        /// Absolute write-op index that triggers the kill.
        op: u64,
    },
    /// Panic one shard: the supervisor response is forced quarantine
    /// (breaker opens, traffic sheds typed, recovery ages it back).
    ShardPanic {
        /// Victim shard index.
        shard: usize,
    },
    /// Squeeze the global byte budget to `permille` of the plan's
    /// original budget (clamped to the arbiter's per-shard grant
    /// floor). No-op in unlimited-budget worlds.
    BudgetSqueeze {
        /// New budget, in thousandths of the original.
        permille: u32,
    },
    /// Shift the workload: rotate the hot set's home shard by `rotate`
    /// and scale the per-tick offered load to `mult_permille`/1000 of
    /// the plan's base rate, from this tick on.
    DriftShift {
        /// Home-shard rotation applied to the hot set.
        rotate: usize,
        /// New offered-load multiplier, in thousandths.
        mult_permille: u32,
    },
    /// Jump the virtual clock forward `ms` milliseconds at the top of
    /// the tick, expiring the tick's maintenance deadline.
    ClockJump {
        /// Milliseconds to advance.
        ms: u64,
    },
}

impl EventKind {
    /// Stable ordering key so a plan's encoding is canonical.
    fn order(&self) -> u32 {
        match self {
            EventKind::Enospc { .. } => 0,
            EventKind::Eio { .. } => 1,
            EventKind::ShortWrite { .. } => 2,
            EventKind::SpillFault { .. } => 3,
            EventKind::MigrationFault { .. } => 4,
            EventKind::VfsAt { .. } => 5,
            EventKind::Crash => 6,
            EventKind::CrashAt { .. } => 7,
            EventKind::ShardPanic { .. } => 8,
            EventKind::BudgetSqueeze { .. } => 9,
            EventKind::DriftShift { .. } => 10,
            EventKind::ClockJump { .. } => 11,
        }
    }
}

/// The complete, serializable input of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPlan {
    /// Workload RNG seed.
    pub seed: u64,
    /// Run length in virtual ticks.
    pub ticks: u64,
    /// Shard fault domains.
    pub shards: usize,
    /// Distinct templates in the corpus.
    pub templates: usize,
    /// Observations offered per tick (before drift multipliers).
    pub ingest_per_tick: usize,
    /// Size of the hot template set.
    pub hot_templates: usize,
    /// Per-mille of traffic aimed at the hot set.
    pub hot_permille: u32,
    /// Global hard ceiling on resident registry bytes; `0` disables the
    /// budget arbiter entirely (unlimited world, used by the
    /// sibling-identity isolation checks).
    pub budget_bytes: usize,
    /// Per-shard grant floor for the arbiter.
    pub min_grant_bytes: usize,
    /// Heat-driven auto-rebalance on or off.
    pub rebalance: bool,
    /// Virtual milliseconds the clock advances per tick.
    pub tick_ms: u64,
    /// Virtual-time budget for the per-tick maintenance phase
    /// (migration resume + rebalance); an expired deadline defers
    /// maintenance to a later tick.
    pub maintenance_ms: u64,
    /// Group-commit batch size for streaming intake: records per fsync
    /// before the coalescing buffer flushes. `0` keeps the classic
    /// bulk path (one fsync per record). Streaming worlds ack records
    /// only at flush, so a crash pinned inside a batch loses exactly
    /// the unflushed suffix — which the books then ledger as typed
    /// sheds, never as silent loss.
    pub group_commit: usize,
    /// Consecutive over-budget ticks before the arbiter's quarantine
    /// rung takes the worst offender out of rotation. The default sits
    /// beyond any plan's length, so only a plan that names a small
    /// value reaches the rung.
    pub quarantine_after: u32,
    /// The fault schedule.
    pub events: Vec<FaultEvent>,
}

/// `quarantine-after` when a plan does not name one.
const DEFAULT_QUARANTINE_AFTER: u32 = 1_000;

impl Default for SimPlan {
    fn default() -> Self {
        Self {
            seed: 0xD5E7_0001,
            ticks: 24,
            shards: 3,
            templates: 400,
            ingest_per_tick: 900,
            hot_templates: 24,
            hot_permille: 800,
            budget_bytes: 160 << 10,
            min_grant_bytes: 24 << 10,
            rebalance: true,
            tick_ms: 100,
            maintenance_ms: 20,
            group_commit: 0,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            events: Vec::new(),
        }
    }
}

impl SimPlan {
    /// The arbiter a budgeted world runs under (`None` in an
    /// unlimited-budget world).
    pub(crate) fn arbiter_config(&self) -> Option<ArbiterConfig> {
        (self.budget_bytes > 0).then_some(ArbiterConfig {
            global_budget_bytes: self.budget_bytes,
            min_grant_bytes: self.min_grant_bytes,
            alpha: 0.3,
            shed_after: 2,
            quarantine_after: self.quarantine_after,
        })
    }

    /// Validate shape invariants the world relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards < 2 {
            return Err("plan: need at least 2 shards".into());
        }
        if self.ticks == 0 || self.templates == 0 || self.ingest_per_tick == 0 {
            return Err("plan: ticks, templates, ingest_per_tick must be positive".into());
        }
        if self.hot_templates == 0 || self.hot_permille > 1_000 {
            return Err("plan: hot set must be non-empty, permille <= 1000".into());
        }
        if self.budget_bytes > 0 && self.min_grant_bytes == 0 {
            return Err("plan: a budgeted world needs a positive grant floor".into());
        }
        if self.tick_ms == 0 {
            return Err("plan: tick_ms must be positive".into());
        }
        if let Some(arbiter) = self.arbiter_config() {
            arbiter.validate(self.shards)?;
        }
        for e in &self.events {
            if e.tick >= self.ticks {
                return Err(format!("plan: event at tick {} beyond run of {}", e.tick, self.ticks));
            }
            if let EventKind::ShardPanic { shard } = e.kind {
                if shard >= self.shards {
                    return Err(format!("plan: shard-panic {shard} with {} shards", self.shards));
                }
            }
        }
        Ok(())
    }

    /// Canonicalize: sort events by (tick, kind, encoding) so equal
    /// plans encode identically.
    pub fn normalize(&mut self) {
        self.events
            .sort_by(|a, b| (a.tick, a.kind.order()).cmp(&(b.tick, b.kind.order())).then_with(|| {
                encode_event(a).cmp(&encode_event(b))
            }));
    }

    /// Encode to the `.plan` text format (canonical: events sorted).
    pub fn encode(&self) -> String {
        let mut plan = self.clone();
        plan.normalize();
        let mut out = String::new();
        out.push_str(PLAN_HEADER);
        out.push('\n');
        out.push_str(&format!("seed {}\n", plan.seed));
        out.push_str(&format!("ticks {}\n", plan.ticks));
        out.push_str(&format!("shards {}\n", plan.shards));
        out.push_str(&format!("templates {}\n", plan.templates));
        out.push_str(&format!("ingest-per-tick {}\n", plan.ingest_per_tick));
        out.push_str(&format!("hot-templates {}\n", plan.hot_templates));
        out.push_str(&format!("hot-permille {}\n", plan.hot_permille));
        out.push_str(&format!("budget-bytes {}\n", plan.budget_bytes));
        out.push_str(&format!("min-grant-bytes {}\n", plan.min_grant_bytes));
        out.push_str(&format!("rebalance {}\n", if plan.rebalance { "on" } else { "off" }));
        out.push_str(&format!("tick-ms {}\n", plan.tick_ms));
        out.push_str(&format!("maintenance-ms {}\n", plan.maintenance_ms));
        // Omitted when zero so pre-streaming plans re-encode verbatim
        // (the encode-fixpoint gate runs over the pinned swarm stream).
        if plan.group_commit > 0 {
            out.push_str(&format!("group-commit {}\n", plan.group_commit));
        }
        // Omitted at the default for the same reason.
        if plan.quarantine_after != DEFAULT_QUARANTINE_AFTER {
            out.push_str(&format!("quarantine-after {}\n", plan.quarantine_after));
        }
        for e in &plan.events {
            out.push_str(&format!("event {} {}\n", e.tick, encode_event(e)));
        }
        out.push_str("end\n");
        out
    }

    /// Parse the `.plan` text format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some(PLAN_HEADER) {
            return Err(format!("plan: missing header line {PLAN_HEADER:?}"));
        }
        let mut plan = SimPlan { events: Vec::new(), ..SimPlan::default() };
        let mut saw_end = false;
        for line in lines {
            if line == "end" {
                saw_end = true;
                break;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().ok_or("plan: empty line")?;
            let rest: Vec<&str> = parts.collect();
            let one = |what: &str| -> Result<u64, String> {
                rest.first()
                    .ok_or_else(|| format!("plan: {key} needs a value"))?
                    .parse::<u64>()
                    .map_err(|_| format!("plan: bad {what} in {line:?}"))
            };
            match key {
                "seed" => plan.seed = one("seed")?,
                "ticks" => plan.ticks = one("ticks")?,
                "shards" => plan.shards = one("shards")? as usize,
                "templates" => plan.templates = one("templates")? as usize,
                "ingest-per-tick" => plan.ingest_per_tick = one("ingest-per-tick")? as usize,
                "hot-templates" => plan.hot_templates = one("hot-templates")? as usize,
                "hot-permille" => plan.hot_permille = one("hot-permille")? as u32,
                "budget-bytes" => plan.budget_bytes = one("budget-bytes")? as usize,
                "min-grant-bytes" => plan.min_grant_bytes = one("min-grant-bytes")? as usize,
                "rebalance" => {
                    plan.rebalance = match rest.first() {
                        Some(&"on") => true,
                        Some(&"off") => false,
                        _ => return Err(format!("plan: rebalance must be on|off in {line:?}")),
                    }
                }
                "tick-ms" => plan.tick_ms = one("tick-ms")?,
                "maintenance-ms" => plan.maintenance_ms = one("maintenance-ms")?,
                "group-commit" => plan.group_commit = one("group-commit")? as usize,
                "quarantine-after" => {
                    plan.quarantine_after = u32::try_from(one("quarantine-after")?)
                        .map_err(|_| format!("plan: quarantine-after out of range in {line:?}"))?
                }
                "event" => {
                    let tick = rest
                        .first()
                        .ok_or("plan: event needs a tick")?
                        .parse::<u64>()
                        .map_err(|_| format!("plan: bad event tick in {line:?}"))?;
                    let kind = parse_event(&rest[1..])
                        .ok_or_else(|| format!("plan: bad event in {line:?}"))?;
                    plan.events.push(FaultEvent { tick, kind });
                }
                other => return Err(format!("plan: unknown key {other:?}")),
            }
        }
        if !saw_end {
            return Err("plan: missing end line (truncated file?)".into());
        }
        plan.validate()?;
        plan.normalize();
        Ok(plan)
    }

    /// Largest tick any event fires at (`None` for a fault-free plan).
    pub fn last_event_tick(&self) -> Option<u64> {
        self.events.iter().map(|e| e.tick).max()
    }
}

fn fault_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Enospc => "enospc",
        FaultKind::Eio => "eio",
        FaultKind::ShortWrite => "short-write",
        FaultKind::SlowIo => "slow-io",
        FaultKind::Transient => "transient",
    }
}

fn parse_fault(name: &str) -> Option<FaultKind> {
    Some(match name {
        "enospc" => FaultKind::Enospc,
        "eio" => FaultKind::Eio,
        "short-write" => FaultKind::ShortWrite,
        "slow-io" => FaultKind::SlowIo,
        "transient" => FaultKind::Transient,
        _ => return None,
    })
}

fn encode_event(e: &FaultEvent) -> String {
    match &e.kind {
        EventKind::Enospc { ops } => format!("enospc {ops}"),
        EventKind::Eio { ops } => format!("eio {ops}"),
        EventKind::ShortWrite { ops } => format!("short-write {ops}"),
        EventKind::SpillFault { ops } => format!("spill-fault {ops}"),
        EventKind::MigrationFault { ops } => format!("migration-fault {ops}"),
        EventKind::VfsAt { op, fault, ops } => {
            format!("vfs-at {op} {} {ops}", fault_name(*fault))
        }
        EventKind::Crash => "crash".to_string(),
        EventKind::CrashAt { op } => format!("crash-at {op}"),
        EventKind::ShardPanic { shard } => format!("shard-panic {shard}"),
        EventKind::BudgetSqueeze { permille } => format!("budget-squeeze {permille}"),
        EventKind::DriftShift { rotate, mult_permille } => {
            format!("drift-shift {rotate} {mult_permille}")
        }
        EventKind::ClockJump { ms } => format!("clock-jump {ms}"),
    }
}

fn parse_event(words: &[&str]) -> Option<EventKind> {
    let num = |i: usize| words.get(i).and_then(|w| w.parse::<u64>().ok());
    Some(match *words.first()? {
        "enospc" => EventKind::Enospc { ops: num(1)? as u32 },
        "eio" => EventKind::Eio { ops: num(1)? as u32 },
        "short-write" => EventKind::ShortWrite { ops: num(1)? as u32 },
        "spill-fault" => EventKind::SpillFault { ops: num(1)? as u32 },
        "migration-fault" => EventKind::MigrationFault { ops: num(1)? as u32 },
        "vfs-at" => EventKind::VfsAt {
            op: num(1)?,
            fault: parse_fault(words.get(2)?)?,
            ops: num(3)? as u32,
        },
        "crash" => EventKind::Crash,
        "crash-at" => EventKind::CrashAt { op: num(1)? },
        "shard-panic" => EventKind::ShardPanic { shard: num(1)? as usize },
        "budget-squeeze" => EventKind::BudgetSqueeze { permille: num(1)? as u32 },
        "drift-shift" => EventKind::DriftShift {
            rotate: num(1)? as usize,
            mult_permille: num(2)? as u32,
        },
        "clock-jump" => EventKind::ClockJump { ms: num(1)? },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan() -> SimPlan {
        SimPlan {
            events: vec![
                FaultEvent { tick: 12, kind: EventKind::Crash },
                FaultEvent { tick: 3, kind: EventKind::Enospc { ops: 4 } },
                FaultEvent { tick: 3, kind: EventKind::ClockJump { ms: 500 } },
                FaultEvent {
                    tick: 7,
                    kind: EventKind::VfsAt { op: 900, fault: FaultKind::Eio, ops: 3 },
                },
                FaultEvent { tick: 9, kind: EventKind::MigrationFault { ops: 2 } },
                FaultEvent { tick: 15, kind: EventKind::BudgetSqueeze { permille: 500 } },
                FaultEvent {
                    tick: 18,
                    kind: EventKind::DriftShift { rotate: 1, mult_permille: 1400 },
                },
                FaultEvent { tick: 20, kind: EventKind::ShardPanic { shard: 1 } },
                FaultEvent { tick: 21, kind: EventKind::CrashAt { op: 31_000 } },
                FaultEvent { tick: 22, kind: EventKind::SpillFault { ops: 5 } },
                FaultEvent { tick: 22, kind: EventKind::ShortWrite { ops: 2 } },
            ],
            group_commit: 6,
            quarantine_after: 4,
            ..SimPlan::default()
        }
    }

    #[test]
    fn roundtrips_through_text() {
        let mut plan = busy_plan();
        let text = plan.encode();
        let parsed = SimPlan::parse(&text).expect("parse own encoding");
        plan.normalize();
        assert_eq!(parsed, plan);
        // Encoding is canonical: a second trip is byte-identical.
        assert_eq!(parsed.encode(), text);
    }

    #[test]
    fn rejects_torn_and_malformed_plans() {
        let plan = busy_plan();
        let text = plan.encode();
        let torn = &text[..text.len() - 5];
        assert!(SimPlan::parse(torn).is_err(), "missing end line is rejected");
        assert!(SimPlan::parse("not a plan").is_err());
        let bad = text.replace("event 3 enospc 4", "event 3 frobnicate 4");
        assert!(SimPlan::parse(&bad).is_err());
        let unknown_key = text.replace("quarantine-after 4", "quarantine-before 4");
        assert!(SimPlan::parse(&unknown_key).unwrap_err().contains("unknown key"));
    }

    #[test]
    fn quarantine_after_stays_out_of_the_encoding_at_its_default() {
        // Plans written before the key existed must re-encode verbatim
        // (tests/sim_determinism.rs pins the files and the fixpoint).
        for idx in 0..24 {
            let text = crate::swarm::generate_plan(0xD5_5EED, idx).encode();
            assert!(!text.contains("quarantine-after"), "schedule {idx}: {text}");
        }
        assert!(busy_plan().encode().contains("\nquarantine-after 4\n"));
    }

    #[test]
    fn validation_catches_out_of_range_events() {
        let mut plan = SimPlan::default();
        plan.events.push(FaultEvent { tick: 99, kind: EventKind::Crash });
        assert!(plan.validate().is_err());
        plan.events.clear();
        plan.events.push(FaultEvent { tick: 1, kind: EventKind::ShardPanic { shard: 9 } });
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validation_catches_an_unsatisfiable_arbiter() {
        // Outside input must get the arbiter's typed message, not its
        // constructor's panic.
        let floors_exceed_budget =
            format!("{PLAN_HEADER}\nshards 4\nbudget-bytes 65536\nmin-grant-bytes 40960\nend\n");
        let err = SimPlan::parse(&floors_exceed_budget).unwrap_err();
        assert!(err.contains("4 shards x 40960 B min grant exceeds"), "{err}");
        // The quarantine rung cannot come before the shed rung (2).
        let plan = SimPlan { quarantine_after: 1, ..SimPlan::default() };
        assert!(plan.validate().is_err());
        // An unlimited-budget world has no arbiter to misconfigure.
        let plan = SimPlan { budget_bytes: 0, quarantine_after: 1, ..SimPlan::default() };
        assert!(plan.validate().is_ok());
    }
}
