//! The deterministic world: the full sharded pipeline control loop —
//! intake, budget arbitration, grant enforcement, health supervision,
//! migration resume, heat-driven rebalance — driven tick by tick on one
//! logical timeline, with every fault layer composed through the plan.
//!
//! Everything nondeterministic is pinned: the workload comes from one
//! seeded splitmix64 stream, time is a [`VirtualClock`] the plan
//! advances, storage is an in-memory vfs behind the fault switch, and
//! maintenance deadlines are virtual-time [`Deadline`]s. Same plan ⇒
//! byte-identical execution, which the run digest certifies.
//!
//! The store side models the *durable system under test*; the
//! controller side (arbiter, health machines, pending-spill buffer,
//! books) models the supervisor process, which survives a [`Crash`]
//! event — a crash kills the store mid-flight and reopens it through
//! full recovery (WAL replay, snapshot fallback, migration resume)
//! while the supervisor keeps its counters, exactly like a database
//! process dying under a monitor that does not.
//!
//! [`Crash`]: crate::plan::EventKind::Crash

use crate::invariant::{CheckKind, CheckerRegistry, EnforcedState, Frame, Violation};
use crate::plan::{EventKind, SimPlan};
use dbaugur::{
    DbAugurConfig, DynVfs, FaultKind, FaultSwitch, FaultyVfs, GroupCommitConfig, MemVfs,
};
use dbaugur_exec::{Clock, Deadline, VirtualClock};
use dbaugur_shard::{
    ArbiterStats, BreakerState, BudgetArbiter, CanaryBug, Escalation, HealthPolicy, HeatConfig,
    HeatTracker, MigrateError, RebalanceConfig, RebalancePolicy, ShardDemand, ShardHealth,
    ShardState, ShardedDurable,
};
use dbaugur_sqlproc::{canonicalize, TemplateId};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

/// Per-template observation cap: high enough that the ring never drops
/// at simulation scale, so the conservation checker is exact.
const OBS_CAP: usize = 1 << 20;

/// Run options orthogonal to the plan (the plan is the reproducer; the
/// options say how to watch it).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Deliberate protocol bug to plant (simulator self-test).
    pub canary: CanaryBug,
    /// Stop at the first violating tick instead of running the plan
    /// out. Shrinking wants this; MTTR measurement does not.
    pub stop_at_first_violation: bool,
}

/// What one simulation run did and proved.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Ticks actually executed (short of the plan on early stop).
    pub ticks_run: u64,
    /// Observations offered at the front door.
    pub offered: u64,
    /// Observations durably acknowledged.
    pub acked: u64,
    /// Intake refused by the memory-pressure shed rung.
    pub shed_pressure: u64,
    /// Intake refused by an open per-shard breaker.
    pub shed_breaker: u64,
    /// Intake that failed in durable I/O (typed shed).
    pub shed_io: u64,
    /// Every invariant violation, in firing order.
    pub violations: Vec<Violation>,
    /// Run digest: a deterministic fold of final per-shard state and
    /// the counter totals. Two executions of one plan must agree.
    pub digest: u64,
    /// Per-shard state digests (registry contents + WAL length).
    pub per_shard_digests: Vec<u64>,
    /// Crash events executed.
    pub crashes: u64,
    /// Recoveries that needed the fault-clearing retry.
    pub recovery_retries: u64,
    /// Migrations that committed (live ticks and settle).
    pub migrations_completed: u64,
    /// Migration attempts that failed on an injected fault mid-flight.
    pub migrations_failed: u64,
    /// Migrations refused by the destination health gate.
    pub migrations_refused: u64,
    /// Observations moved by completed migrations.
    pub migration_observations: u64,
    /// `resume_migrations` sweeps that errored on an injected fault.
    pub resume_failures: u64,
    /// Faults injected across all kinds.
    pub faults_injected: u64,
    /// ENOSPC faults injected.
    pub enospc_injected: u64,
    /// EIO faults injected.
    pub eio_injected: u64,
    /// Maintenance phases skipped on an expired virtual deadline.
    pub deferred_maintenance: u64,
    /// Largest post-enforcement resident byte total.
    pub resident_peak: u64,
    /// Arbiter counters at run end (`None` in an unlimited-budget
    /// world). `ceiling_breaches` counts every tick the total stayed
    /// over the budget after the full ladder ran, including the honest
    /// ones where the unevictable template-string floor alone exceeds
    /// it — the Ceiling checker fires only on the dishonest kind.
    pub arbiter: Option<ArbiterStats>,
    /// Mean max/mean shard-heat ratio over the final quarter of the
    /// run: the rebalance-effect metric, lower is flatter.
    pub heat_ratio_tail: f64,
    /// Observations moved to spill blobs by grant enforcement.
    pub spilled_observations: u64,
    /// Spill writes bounced by an injected fault (blob held pending).
    pub spill_write_failures: u64,
    /// Spill blobs still pending after settle (0 in a passing run).
    pub pending_spills_final: usize,
    /// Shards quarantined (escalation rung + shard-panic events).
    pub quarantines: u64,
    /// Supervised recoveries completed by the health machines.
    pub recoveries: u64,
    /// Per-tick cleanliness: `true` when every shard is healthy, no
    /// shed rung is engaged, and no spill or migration is pending —
    /// the MTTR measurement substrate.
    pub clean_ticks: Vec<bool>,
    /// Virtual milliseconds elapsed.
    pub virtual_end_ms: u64,
    /// Cumulative write-class vfs operations.
    pub write_ops: u64,
    /// Group-commit flushes that acked streamed records (0 in bulk
    /// worlds). Streaming coalesces, so this stays well under `acked`.
    pub stream_flushes: u64,
    /// Streamed records that died unflushed in a crash or a dropped
    /// batch — ledgered under `shed_io`, never silently lost.
    pub stream_lost: u64,
}

impl SimReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deterministic splitmix64 stream for workload draws.
pub(crate) struct Draw(pub u64);

impl Draw {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// FNV-1a 64 fold, the digest primitive (seeded hashers are banned:
/// digests must agree across processes and runs).
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// Group-commit shape for streaming plans: the plan's batch size, with
/// a one-tick timer so nothing outlives the end-of-tick barrier anyway.
fn stream_cfg(plan: &SimPlan) -> GroupCommitConfig {
    GroupCommitConfig {
        max_records: plan.group_commit,
        max_delay_us: plan.tick_ms.saturating_mul(1_000),
    }
}

/// A spill blob whose durable write failed; retried until the vfs
/// accepts it. Observation counts per corpus template ride along so the
/// conservation ledger stays exact while the blob is pending.
struct PendingSpill {
    path: PathBuf,
    blob: Vec<u8>,
    observations: u64,
    bytes_freed: u64,
}

enum Flow {
    Continue,
    Stop,
    Fatal,
}

struct World {
    plan: SimPlan,
    opts: SimOptions,
    vfs: DynVfs,
    switch: Arc<FaultSwitch>,
    clock: Arc<VirtualClock>,
    root: PathBuf,
    store: ShardedDurable,
    arbiter: Option<BudgetArbiter>,
    current_budget: usize,
    heat: HeatTracker,
    // Max/mean heat ratio after each tick's demand report.
    heat_ratios: Vec<f64>,
    policy: Option<RebalancePolicy>,
    health: Vec<ShardHealth>,
    corpus: Vec<String>,
    canonical_index: HashMap<String, usize>,
    hot_sets: Vec<Vec<usize>>,
    hot_home: usize,
    ingest_mult_permille: u32,
    draw: Draw,
    registry: CheckerRegistry,
    // Books (per shard).
    offered: Vec<u64>,
    acked: Vec<u64>,
    shed_pressure: Vec<u64>,
    shed_breaker: Vec<u64>,
    shed_io: Vec<u64>,
    // Conservation ledgers (per corpus template).
    acked_per_template: Vec<u64>,
    spilled_per_template: Vec<u64>,
    // Spill machinery.
    pending: Vec<PendingSpill>,
    spill_seq: u64,
    spilled_observations: u64,
    spill_write_failures: u64,
    // Streaming intake (plan.group_commit > 0): template index of every
    // record sitting in a shard's group-commit buffer, in submit order.
    // Flush reports credit from the front; crashes and dropped batches
    // drain to shed_io. `stream_credited` mirrors each shard's
    // `wal_group_records` counter so flushes the store performs
    // internally (checkpoint barriers during migrations) reconcile too.
    stream_fifo: Vec<VecDeque<usize>>,
    stream_credited: Vec<u64>,
    stream_flushes: u64,
    stream_lost: u64,
    // One-shot arm for the next accepted migration.
    migration_fault_ops: u32,
    // Pending mid-intake crash trigger (absolute write-op index).
    crash_at: Option<u64>,
    // Per-tick enforcement snapshot for the ceiling checker.
    last_enforced: Option<EnforcedState>,
    // Counters.
    violations: Vec<Violation>,
    clean_ticks: Vec<bool>,
    crashes: u64,
    recovery_retries: u64,
    migrations_completed: u64,
    migrations_failed: u64,
    migrations_refused: u64,
    migration_observations: u64,
    resume_failures: u64,
    deferred_maintenance: u64,
    resident_peak: u64,
    quarantines: u64,
    ticks_run: u64,
}

struct Scan {
    counts: Vec<u64>,
    resident_bytes: usize,
    floor_bytes: usize,
}

/// Run a plan with default options (stop at the first violation).
pub fn run_plan(plan: &SimPlan) -> SimReport {
    run_plan_with(plan, &SimOptions { canary: CanaryBug::None, stop_at_first_violation: true })
}

/// Run a plan under explicit options.
///
/// # Panics
/// Panics if the plan does not validate.
pub fn run_plan_with(plan: &SimPlan, opts: &SimOptions) -> SimReport {
    plan.validate().expect("valid sim plan");
    let mut world = World::new(plan.clone(), *opts);
    for tick in 0..plan.ticks {
        world.ticks_run = tick + 1;
        match world.tick(tick) {
            Flow::Continue => {}
            Flow::Stop | Flow::Fatal => break,
        }
    }
    world.settle();
    world.report()
}

impl World {
    fn new(plan: SimPlan, opts: SimOptions) -> Self {
        let switch = FaultSwitch::new();
        switch.set_stall_micros(0);
        let vfs: DynVfs =
            Arc::new(FaultyVfs::new(Arc::new(MemVfs::new()), Arc::clone(&switch)));
        let clock = Arc::new(VirtualClock::new());
        let root = PathBuf::from("/sim/world");
        let db_cfg = DbAugurConfig { shards: plan.shards, ..DbAugurConfig::default() };
        let mut store = ShardedDurable::open_with_vfs(&vfs, &root, db_cfg)
            .expect("open sharded store on a pristine mem vfs");
        store.inject_canary(opts.canary);
        for i in 0..plan.shards {
            store.shard_mut(i).system_mut().set_observation_cap(OBS_CAP);
        }
        if plan.group_commit > 0 {
            store.stream_enable(stream_cfg(&plan));
        }

        let arbiter = plan.arbiter_config().map(|cfg| BudgetArbiter::new(cfg, plan.shards));
        let policy = plan.rebalance.then(|| {
            RebalancePolicy::new(RebalanceConfig {
                imbalance_ratio: 1.3,
                sustain_ticks: 2,
                cooldown_ticks: 2,
            })
        });
        let health: Vec<ShardHealth> =
            (0..plan.shards).map(|_| ShardHealth::new(HealthPolicy::default())).collect();

        // Identifiers (not literals) carry the distinctness, so
        // canonicalization keeps all templates distinct.
        let corpus: Vec<String> = (0..plan.templates)
            .map(|i| format!("SELECT col{i} FROM relation_{i} WHERE tenant_id = 7"))
            .collect();
        let canonical_index: HashMap<String, usize> =
            corpus.iter().enumerate().map(|(i, sql)| (canonicalize(sql), i)).collect();
        // Per home shard, the first `hot_templates` indices it owns —
        // drift shifts move the hot set between these.
        let mut hot_sets: Vec<Vec<usize>> = vec![Vec::new(); plan.shards];
        for (i, sql) in corpus.iter().enumerate() {
            let home = dbaugur_shard::shard_of(&canonicalize(sql), plan.shards);
            if hot_sets[home].len() < plan.hot_templates {
                hot_sets[home].push(i);
            }
        }
        for (s, set) in hot_sets.iter().enumerate() {
            assert!(!set.is_empty(), "corpus too small to give shard {s} a hot set");
        }

        let current_budget = plan.budget_bytes;
        let templates = plan.templates;
        let shards = plan.shards;
        let seed = plan.seed;
        Self {
            plan,
            opts,
            vfs,
            switch,
            clock,
            root,
            store,
            arbiter,
            current_budget,
            heat: HeatTracker::new(shards, HeatConfig::default()),
            heat_ratios: Vec::new(),
            policy,
            health,
            corpus,
            canonical_index,
            hot_sets,
            hot_home: 0,
            ingest_mult_permille: 1_000,
            draw: Draw(seed),
            registry: CheckerRegistry::standard(),
            offered: vec![0; shards],
            acked: vec![0; shards],
            shed_pressure: vec![0; shards],
            shed_breaker: vec![0; shards],
            shed_io: vec![0; shards],
            acked_per_template: vec![0; templates],
            spilled_per_template: vec![0; templates],
            stream_fifo: vec![VecDeque::new(); shards],
            stream_credited: vec![0; shards],
            stream_flushes: 0,
            stream_lost: 0,
            pending: Vec::new(),
            spill_seq: 0,
            spilled_observations: 0,
            spill_write_failures: 0,
            migration_fault_ops: 0,
            crash_at: None,
            last_enforced: None,
            violations: Vec::new(),
            clean_ticks: Vec::new(),
            crashes: 0,
            recovery_retries: 0,
            migrations_completed: 0,
            migrations_failed: 0,
            migrations_refused: 0,
            migration_observations: 0,
            resume_failures: 0,
            deferred_maintenance: 0,
            resident_peak: 0,
            quarantines: 0,
            ticks_run: 0,
        }
    }

    /// Kill the store and reopen it through full recovery. The relative
    /// fault bursts die with the process; `arm_at` schedules survive,
    /// which is how a fault lands *during* recovery. Returns `false` if
    /// recovery failed even after clearing every fault — a Recovery
    /// violation.
    fn reopen(&mut self, tick: u64) -> bool {
        // Streamed records still sitting in a group-commit buffer die
        // with the process — they were never acked, so the books carry
        // them as typed IO sheds, not as loss.
        for (i, fifo) in self.stream_fifo.iter_mut().enumerate() {
            let lost = fifo.len() as u64;
            if lost > 0 {
                self.shed_io[i] += lost;
                self.stream_lost += lost;
                fifo.clear();
            }
        }
        // The reopened store's durability counters restart at zero.
        self.stream_credited.iter_mut().for_each(|c| *c = 0);
        let db_cfg = DbAugurConfig { shards: self.plan.shards, ..DbAugurConfig::default() };
        self.switch.clear();
        let opened = match ShardedDurable::open_with_vfs(&self.vfs, &self.root, db_cfg.clone()) {
            Ok(s) => Some(s),
            Err(_) => {
                // A fault scheduled into the recovery window bounced the
                // open; a real operator clears the disk condition and
                // retries. If recovery *still* fails, durable state is
                // unrecoverable — the worst violation there is.
                self.recovery_retries += 1;
                self.switch.clear();
                self.switch.clear_scheduled();
                ShardedDurable::open_with_vfs(&self.vfs, &self.root, db_cfg).ok()
            }
        };
        match opened {
            Some(mut s) => {
                if std::env::var("DBAUGUR_SIM_DEBUG").is_ok() {
                    for (i, r) in s.recovery_reports().iter().enumerate() {
                        eprintln!(
                            "[sim-debug] reopen tick {tick} shard {i}: gen {:?} corrupted {} wal applied {} skipped {} torn {}",
                            r.generation, r.corrupted_generations, r.wal_applied, r.wal_skipped, r.wal_torn
                        );
                    }
                }
                s.inject_canary(self.opts.canary);
                for i in 0..self.plan.shards {
                    s.shard_mut(i).system_mut().set_observation_cap(OBS_CAP);
                }
                if self.plan.group_commit > 0 {
                    s.stream_enable(stream_cfg(&self.plan));
                }
                self.store = s;
                true
            }
            None => {
                self.violations.push(Violation {
                    tick,
                    check: CheckKind::Recovery,
                    detail: "store failed to reopen after clearing all injected faults".into(),
                });
                false
            }
        }
    }

    /// Per-corpus-template resident counts (summed across shards), the
    /// total resident bytes, and the unevictable floor.
    fn scan(&self) -> Scan {
        let mut counts = vec![0u64; self.plan.templates];
        let mut resident_bytes = 0usize;
        let mut floor_bytes = 0usize;
        for i in 0..self.plan.shards {
            let sys = self.store.shard(i).system();
            let reg = sys.registry();
            let bytes = sys.registry_bytes();
            let mut obs = 0u64;
            for id in 0..reg.num_templates() {
                let tid = TemplateId(id as u32);
                let c = reg.count(tid) as u64;
                if c > 0 {
                    obs += c;
                    if let Some(&idx) = self.canonical_index.get(reg.template(tid)) {
                        counts[idx] += c;
                    }
                }
            }
            resident_bytes += bytes;
            floor_bytes += bytes.saturating_sub(8 * obs as usize);
        }
        Scan { counts, resident_bytes, floor_bytes }
    }

    /// Per-corpus-template observations captured in open migration
    /// markers: the sanctioned double-residency allowance.
    fn allowance(&self) -> Vec<u64> {
        let mut a = vec![0u64; self.plan.templates];
        if let Ok(pending) = self.store.pending_migrations() {
            for m in &pending {
                for (canonical, obs) in &m.entries {
                    if let Some(&idx) = self.canonical_index.get(canonical.as_str()) {
                        a[idx] += obs.len() as u64;
                    }
                }
            }
        }
        a
    }

    fn retry_pending_spills(&mut self) {
        let vfs = &self.vfs;
        let mut landed_obs = 0u64;
        let mut landed_bytes = 0u64;
        self.pending.retain(|p| match vfs.write_atomic(&p.path, &p.blob) {
            Ok(()) => {
                landed_obs += p.observations;
                landed_bytes += p.bytes_freed;
                false
            }
            Err(_) => true,
        });
        if landed_obs > 0 {
            self.spilled_observations += landed_obs;
            if let Some(arb) = self.arbiter.as_mut() {
                arb.note_spilled(landed_bytes);
            }
        }
    }

    fn intake(&mut self, tick: u64, ingested: &mut [u64], io_failed: &mut [bool]) -> Flow {
        let n = (self.plan.ingest_per_tick as u64 * self.ingest_mult_permille as u64 / 1_000)
            .max(1) as usize;
        let hot = self.hot_sets[self.hot_home].clone();
        // Timer poll first: anything buffered a full tick ago flushes
        // before new records pile on.
        if self.plan.group_commit > 0 {
            let now_us = self.clock.now_ms().saturating_mul(1_000);
            for shard in 0..self.plan.shards {
                match self.store.shard_mut(shard).stream_poll(now_us) {
                    Ok(Some(report)) => self.credit_flush(shard, report.records, ingested),
                    Ok(None) => {}
                    Err(_) => {
                        self.drop_stream_batch(shard);
                        io_failed[shard] = true;
                        self.health[shard].record_soft_failure();
                    }
                }
            }
        }
        for _ in 0..n {
            if let Some(op) = self.crash_at {
                if self.switch.write_ops() >= op {
                    self.crash_at = None;
                    self.crashes += 1;
                    if !self.reopen(tick) {
                        return Flow::Fatal;
                    }
                }
            }
            let i = if self.draw.below(1_000) < self.plan.hot_permille as usize {
                hot[self.draw.below(hot.len())]
            } else {
                self.draw.below(self.plan.templates)
            };
            let shard = self.store.route(&self.corpus[i]);
            self.offered[shard] += 1;
            if !self.health[shard].admits() {
                self.shed_breaker[shard] += 1;
                continue;
            }
            if self.arbiter.as_ref().is_some_and(|a| a.shedding()) {
                self.shed_pressure[shard] += 1;
                continue;
            }
            if self.plan.group_commit > 0 {
                // Streaming path: the record coalesces in the shard's
                // group-commit buffer and is acked only when a flush
                // report covers it. A failed flush drops the whole
                // batch unacked (matching the durable layer's retry-
                // exhausted semantics), so the fifo drains to shed_io.
                let now_us = self.clock.now_ms().saturating_mul(1_000);
                self.stream_fifo[shard].push_back(i);
                match self.store.shard_mut(shard).stream_submit(now_us, tick, &self.corpus[i]) {
                    Ok(Some(report)) => self.credit_flush(shard, report.records, ingested),
                    Ok(None) => {}
                    Err(_) => {
                        self.drop_stream_batch(shard);
                        io_failed[shard] = true;
                        self.health[shard].record_soft_failure();
                    }
                }
                continue;
            }
            match self.store.ingest_record(tick, &self.corpus[i]) {
                Ok(s) => {
                    self.acked[s] += 1;
                    self.acked_per_template[i] += 1;
                    ingested[s] += 1;
                }
                Err(_) => {
                    self.shed_io[shard] += 1;
                    io_failed[shard] = true;
                    self.health[shard].record_soft_failure();
                }
            }
        }
        Flow::Continue
    }

    /// A flush report covers the `records` oldest pending records on
    /// `shard`: credit them as acked, in submit order.
    fn credit_flush(&mut self, shard: usize, records: usize, ingested: &mut [u64]) {
        self.stream_flushes += 1;
        self.stream_credited[shard] += records as u64;
        for _ in 0..records {
            let idx = self.stream_fifo[shard]
                .pop_front()
                .expect("flush report covers only records the world submitted");
            self.acked[shard] += 1;
            self.acked_per_template[idx] += 1;
            ingested[shard] += 1;
        }
    }

    /// A failed flush dropped the shard's whole buffered batch unacked.
    fn drop_stream_batch(&mut self, shard: usize) {
        let dropped = self.stream_fifo[shard].len() as u64;
        self.shed_io[shard] += dropped;
        self.stream_lost += dropped;
        self.stream_fifo[shard].clear();
    }

    /// Reconcile flushes the store performed *internally* — checkpoint
    /// barriers inside migration commits and resumes flush the stream
    /// without returning a report to the control loop. The per-shard
    /// `wal_group_records` counter is the ground truth for how many
    /// records durably landed; anything the fifo still holds beyond the
    /// store's pending count was dropped by a failed barrier.
    fn reconcile_stream(&mut self, ingested: &mut [u64], io_failed: &mut [bool]) {
        if self.plan.group_commit == 0 {
            return;
        }
        for shard in 0..self.plan.shards {
            let flushed = self.store.durability(shard).wal_group_records;
            let newly = flushed.saturating_sub(self.stream_credited[shard]) as usize;
            if newly > 0 {
                self.credit_flush(shard, newly, ingested);
            }
            let pending = self.store.shard(shard).stream_pending();
            if self.stream_fifo[shard].len() > pending {
                let extra = (self.stream_fifo[shard].len() - pending) as u64;
                for _ in 0..extra {
                    self.stream_fifo[shard].pop_front();
                }
                self.shed_io[shard] += extra;
                self.stream_lost += extra;
                io_failed[shard] = true;
                self.health[shard].record_soft_failure();
            }
        }
    }

    /// Stream barrier: force every shard's buffer down (settle and
    /// teardown). No-op in bulk worlds.
    fn stream_barrier(&mut self, ingested: &mut [u64], io_failed: &mut [bool]) {
        if self.plan.group_commit == 0 {
            return;
        }
        for shard in 0..self.plan.shards {
            match self.store.shard_mut(shard).stream_flush() {
                Ok(Some(report)) => self.credit_flush(shard, report.records, ingested),
                Ok(None) => {}
                Err(_) => {
                    self.drop_stream_batch(shard);
                    io_failed[shard] = true;
                    self.health[shard].record_soft_failure();
                }
            }
        }
    }

    /// Regrant and enforce: evict each shard to its grant (then to the
    /// floor if the total is still over), persist spill blobs, update
    /// the conservation ledger from the before/after count diff.
    fn enforce(&mut self, ingested: &[u64], spill_arm: u32) {
        let shards = self.plan.shards;
        let demands: Vec<ShardDemand> = (0..shards)
            .map(|i| ShardDemand {
                resident_bytes: self.store.shard(i).system().registry_bytes(),
                ingested_delta: ingested[i],
            })
            .collect();
        for (i, d) in demands.iter().enumerate() {
            self.heat.observe(i, d.ingested_delta, d.resident_bytes);
        }
        self.heat_ratios.push(self.heat.max_mean_ratio());
        let Some(mut arbiter) = self.arbiter.take() else {
            return;
        };
        if spill_arm > 0 {
            self.switch.arm(FaultKind::Enospc, spill_arm);
        }
        let grants = arbiter.regrant(&demands).to_vec();
        let total: usize = demands.iter().map(|d| d.resident_bytes).sum();
        let escalation = arbiter.note_pressure(total);

        let before = self.scan().counts;
        for target_grants in [Some(&grants), None] {
            for i in 0..shards {
                let target = target_grants.map_or(0, |g| g[i]);
                let report = self.store.shard_mut(i).system_mut().evict_cold_templates(target);
                let Some(blob) = report.spill else { continue };
                arbiter.note_evicted(report.bytes_freed as u64);
                self.spill_seq += 1;
                let p = PendingSpill {
                    path: self.root.join(format!("spill-{i}-{}.dbsp", self.spill_seq)),
                    observations: (report.bytes_freed / 8) as u64,
                    bytes_freed: report.bytes_freed as u64,
                    blob,
                };
                match self.vfs.write_atomic(&p.path, &p.blob) {
                    Ok(()) => {
                        self.spilled_observations += p.observations;
                        arbiter.note_spilled(p.bytes_freed);
                    }
                    Err(_) => {
                        // The disk bounced the blob: the registry bytes
                        // are already freed (the ceiling holds), the
                        // observations stay ledgered in the pending
                        // buffer until the disk accepts them.
                        self.spill_write_failures += 1;
                        self.health[i].record_soft_failure();
                        self.pending.push(p);
                    }
                }
            }
            let sum: usize =
                (0..shards).map(|i| self.store.shard(i).system().registry_bytes()).sum();
            if sum <= self.current_budget {
                break;
            }
        }
        let after = self.scan();
        for (spilled, (b, a)) in
            self.spilled_per_template.iter_mut().zip(before.iter().zip(&after.counts))
        {
            *spilled += b.saturating_sub(*a);
        }
        arbiter.note_enforced(after.resident_bytes);
        self.resident_peak = self.resident_peak.max(after.resident_bytes as u64);
        self.last_enforced = Some(EnforcedState {
            resident_bytes: after.resident_bytes,
            budget_bytes: self.current_budget,
            floor_bytes: after.floor_bytes,
        });

        if escalation == Escalation::Quarantine {
            let worst = (0..shards)
                .filter(|&i| self.health[i].state() != ShardState::Quarantined)
                .max_by_key(|&i| self.store.shard(i).system().registry_bytes());
            if let Some(w) = worst {
                self.health[w].force_quarantine();
                self.quarantines += 1;
            }
        }
        self.arbiter = Some(arbiter);
    }

    /// The deadline-gated maintenance phase: finish interrupted
    /// migrations, then let the rebalance policy move heat.
    fn maintenance(&mut self) {
        match self.store.resume_migrations() {
            Ok(resumed) => {
                for r in resumed {
                    self.migrations_completed += 1;
                    self.migration_observations += r.observations;
                }
            }
            Err(_) => self.resume_failures += 1,
        }
        let Some(mut policy) = self.policy.take() else {
            return;
        };
        let eligible: Vec<bool> = self
            .health
            .iter()
            .map(|h| {
                h.breaker() != BreakerState::Open
                    && !matches!(h.state(), ShardState::Quarantined | ShardState::Recovering)
            })
            .collect();
        if let Some(plan) = policy.on_tick(&self.heat.heats(), &eligible) {
            if self.migration_fault_ops > 0 {
                // Skip one write op — the marker write — so the burst
                // lands inside the *commit* window. Faulting the marker
                // write just aborts the prepare cleanly; interrupting
                // the commit leaves an open marker with a partial
                // import, the half of the protocol worth stressing.
                self.switch.arm_at(
                    self.switch.write_ops() + 2,
                    FaultKind::Enospc,
                    self.migration_fault_ops,
                );
                self.migration_fault_ops = 0;
            }
            policy.migration_started(plan.donor, plan.receiver);
            let keep = self.store.shard(plan.donor).system().registry_bytes() / 2;
            match self.store.migrate_partial_gated(
                plan.donor,
                plan.receiver,
                keep,
                &self.health[plan.receiver],
            ) {
                Ok(r) => {
                    self.migrations_completed += 1;
                    self.migration_observations += r.observations;
                }
                Err(MigrateError::DestinationUnavailable { .. }) => self.migrations_refused += 1,
                Err(MigrateError::Io(_)) => self.migrations_failed += 1,
            }
            policy.migration_finished(plan.donor, plan.receiver);
        }
        self.policy = Some(policy);
    }

    fn tick(&mut self, tick: u64) -> Flow {
        self.last_enforced = None;
        let deadline = Deadline::after_ms_on(
            Arc::clone(&self.clock) as Arc<dyn Clock + Send + Sync>,
            self.plan.maintenance_ms,
        );

        // -- Apply the tick's scheduled events. -------------------------
        let mut spill_arm = 0u32;
        let events: Vec<EventKind> = self
            .plan
            .events
            .iter()
            .filter(|e| e.tick == tick)
            .map(|e| e.kind.clone())
            .collect();
        for kind in events {
            match kind {
                EventKind::Enospc { ops } => self.switch.arm(FaultKind::Enospc, ops),
                EventKind::Eio { ops } => self.switch.arm(FaultKind::Eio, ops),
                EventKind::ShortWrite { ops } => self.switch.arm(FaultKind::ShortWrite, ops),
                EventKind::SpillFault { ops } => spill_arm += ops,
                EventKind::MigrationFault { ops } => self.migration_fault_ops = ops,
                EventKind::VfsAt { op, fault, ops } => self.switch.arm_at(op, fault, ops),
                EventKind::Crash => {
                    self.crashes += 1;
                    if !self.reopen(tick) {
                        return Flow::Fatal;
                    }
                }
                EventKind::CrashAt { op } => self.crash_at = Some(op),
                EventKind::ShardPanic { shard } => {
                    self.health[shard].force_quarantine();
                    self.quarantines += 1;
                }
                EventKind::BudgetSqueeze { permille } => {
                    if let Some(arb) = self.arbiter.as_mut() {
                        let target = (self.plan.budget_bytes as u64 * permille as u64 / 1_000)
                            as usize;
                        self.current_budget = arb.set_global_budget(target);
                    }
                }
                EventKind::DriftShift { rotate, mult_permille } => {
                    self.hot_home = (self.hot_home + rotate) % self.plan.shards;
                    self.ingest_mult_permille = mult_permille;
                }
                EventKind::ClockJump { ms } => self.clock.advance(ms),
            }
        }

        // -- Retry blobs a faulted disk bounced earlier. ----------------
        self.retry_pending_spills();

        // -- Intake through the graded front door. ----------------------
        let mut ingested = vec![0u64; self.plan.shards];
        let mut io_failed = vec![false; self.plan.shards];
        if let Flow::Fatal = self.intake(tick, &mut ingested, &mut io_failed) {
            return Flow::Fatal;
        }

        // -- Regrant and enforce the byte ceiling. ----------------------
        self.enforce(&ingested, spill_arm);

        // -- Health schedule: age states, credit clean shards. ----------
        for (i, h) in self.health.iter_mut().enumerate() {
            h.on_tick();
            if !io_failed[i] {
                h.record_success();
            }
        }

        // -- Maintenance, gated on the virtual-time deadline. -----------
        if !deadline.expired() {
            self.maintenance();
        } else {
            self.deferred_maintenance += 1;
        }

        // -- Credit stream flushes maintenance performed internally. ----
        let mut late_ingested = vec![0u64; self.plan.shards];
        let mut late_failed = vec![false; self.plan.shards];
        self.reconcile_stream(&mut late_ingested, &mut late_failed);

        // -- The invariant registry runs after every tick. --------------
        let scan = self.scan();
        let allowance = self.allowance();
        let in_flight: Vec<u64> =
            self.stream_fifo.iter().map(|f| f.len() as u64).collect();
        let frame = Frame {
            tick,
            offered: &self.offered,
            acked: &self.acked,
            shed_pressure: &self.shed_pressure,
            shed_breaker: &self.shed_breaker,
            shed_io: &self.shed_io,
            in_flight: &in_flight,
            enforced: self.last_enforced,
            resident: &scan.counts,
            acked_per_template: &self.acked_per_template,
            spilled: &self.spilled_per_template,
            allowance: &allowance,
        };
        if let Ok(t) = std::env::var("DBAUGUR_SIM_TRACE") {
            if let Ok(t) = t.parse::<usize>() {
                let canonical = canonicalize(&self.corpus[t]);
                let per_shard: Vec<usize> = (0..self.plan.shards)
                    .map(|i| {
                        let reg = self.store.shard(i).system().registry();
                        reg.lookup(&canonical).map_or(0, |tid| reg.count(tid))
                    })
                    .collect();
                eprintln!(
                    "[sim-trace] tick {tick} template {t}: per-shard {:?} acked {} spilled {} allowance {} route {}",
                    per_shard,
                    self.acked_per_template[t],
                    self.spilled_per_template[t],
                    allowance[t],
                    self.store.route(&self.corpus[t]),
                );
            }
        }
        let fired = self.registry.run(&frame);
        let violated = !fired.is_empty();
        self.violations.extend(fired);

        let clean = !violated
            && self.pending.is_empty()
            && self.health.iter().all(|h| h.state() == ShardState::Healthy)
            && !self.arbiter.as_ref().is_some_and(|a| a.shedding())
            && allowance.iter().all(|&a| a == 0);
        self.clean_ticks.push(clean);

        self.clock.advance(self.plan.tick_ms);
        if violated && self.opts.stop_at_first_violation {
            return Flow::Stop;
        }
        Flow::Continue
    }

    /// Clear every fault, drain what the faults deferred, and run the
    /// final conservation reconciliation.
    fn settle(&mut self) {
        self.switch.clear();
        self.switch.clear_scheduled();
        let mut scratch_ingested = vec![0u64; self.plan.shards];
        let mut scratch_failed = vec![false; self.plan.shards];
        self.stream_barrier(&mut scratch_ingested, &mut scratch_failed);
        self.retry_pending_spills();
        match self.store.resume_migrations() {
            Ok(resumed) => {
                for r in resumed {
                    self.migrations_completed += 1;
                    self.migration_observations += r.observations;
                }
            }
            Err(_) => self.resume_failures += 1,
        }
        let scan = self.scan();
        let allowance = self.allowance();
        let in_flight: Vec<u64> =
            self.stream_fifo.iter().map(|f| f.len() as u64).collect();
        let frame = Frame {
            tick: self.ticks_run,
            offered: &self.offered,
            acked: &self.acked,
            shed_pressure: &self.shed_pressure,
            shed_breaker: &self.shed_breaker,
            shed_io: &self.shed_io,
            in_flight: &in_flight,
            enforced: None,
            resident: &scan.counts,
            acked_per_template: &self.acked_per_template,
            spilled: &self.spilled_per_template,
            allowance: &allowance,
        };
        let fired = self.registry.run(&frame);
        self.violations.extend(fired);
    }

    fn shard_digest(&self, i: usize) -> u64 {
        let sys = self.store.shard(i).system();
        let reg = sys.registry();
        let mut items: Vec<(&str, usize, u64)> = (0..reg.num_templates())
            .map(|id| {
                let tid = TemplateId(id as u32);
                (reg.template(tid), reg.count(tid), reg.last_seen(tid))
            })
            .collect();
        items.sort_unstable();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (sql, count, last_seen) in items {
            fnv(&mut h, sql.as_bytes());
            fnv_u64(&mut h, count as u64);
            fnv_u64(&mut h, last_seen);
        }
        fnv_u64(&mut h, self.store.shard(i).wal_len_bytes().unwrap_or(0));
        h
    }

    fn report(&self) -> SimReport {
        let per_shard_digests: Vec<u64> =
            (0..self.plan.shards).map(|i| self.shard_digest(i)).collect();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for &d in &per_shard_digests {
            fnv_u64(&mut digest, d);
        }
        for v in [
            self.offered.iter().sum::<u64>(),
            self.acked.iter().sum::<u64>(),
            self.shed_pressure.iter().sum::<u64>(),
            self.shed_breaker.iter().sum::<u64>(),
            self.shed_io.iter().sum::<u64>(),
            self.spilled_observations,
            self.migrations_completed,
            self.crashes,
            self.switch.total_injected(),
            self.switch.write_ops(),
            self.violations.len() as u64,
        ] {
            fnv_u64(&mut digest, v);
        }
        for v in &self.violations {
            fnv_u64(&mut digest, v.tick);
            fnv(&mut digest, v.check.to_string().as_bytes());
        }
        let tail = (self.heat_ratios.len() / 4).max(1);
        let heat_ratio_tail = self.heat_ratios.iter().rev().take(tail).sum::<f64>() / tail as f64;
        SimReport {
            ticks_run: self.ticks_run,
            offered: self.offered.iter().sum(),
            acked: self.acked.iter().sum(),
            shed_pressure: self.shed_pressure.iter().sum(),
            shed_breaker: self.shed_breaker.iter().sum(),
            shed_io: self.shed_io.iter().sum(),
            violations: self.violations.clone(),
            digest,
            per_shard_digests,
            crashes: self.crashes,
            recovery_retries: self.recovery_retries,
            migrations_completed: self.migrations_completed,
            migrations_failed: self.migrations_failed,
            migrations_refused: self.migrations_refused,
            migration_observations: self.migration_observations,
            resume_failures: self.resume_failures,
            faults_injected: self.switch.total_injected(),
            enospc_injected: self.switch.injected(FaultKind::Enospc),
            eio_injected: self.switch.injected(FaultKind::Eio),
            deferred_maintenance: self.deferred_maintenance,
            resident_peak: self.resident_peak,
            arbiter: self.arbiter.as_ref().map(|a| *a.stats()),
            heat_ratio_tail,
            spilled_observations: self.spilled_observations,
            spill_write_failures: self.spill_write_failures,
            pending_spills_final: self.pending.len(),
            quarantines: self.quarantines,
            recoveries: self.health.iter().map(|h| h.recoveries()).sum(),
            clean_ticks: self.clean_ticks.clone(),
            virtual_end_ms: self.clock.now_ms(),
            write_ops: self.switch.write_ops(),
            stream_flushes: self.stream_flushes,
            stream_lost: self.stream_lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;

    fn small_plan() -> SimPlan {
        SimPlan {
            seed: 0x51D0_0001,
            ticks: 16,
            shards: 3,
            templates: 300,
            ingest_per_tick: 600,
            hot_templates: 16,
            hot_permille: 800,
            budget_bytes: 96 << 10,
            min_grant_bytes: 16 << 10,
            rebalance: true,
            tick_ms: 100,
            maintenance_ms: 20,
            group_commit: 0,
            events: Vec::new(),
            ..SimPlan::default()
        }
    }

    #[test]
    fn fault_free_run_passes_every_checker() {
        let report = run_plan(&small_plan());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.acked > 3_000, "the run did real work");
        assert_eq!(report.pending_spills_final, 0);
    }

    #[test]
    fn compound_schedule_passes_and_is_deterministic() {
        let mut plan = small_plan();
        plan.events = vec![
            FaultEvent { tick: 2, kind: EventKind::Enospc { ops: 4 } },
            FaultEvent { tick: 4, kind: EventKind::MigrationFault { ops: 2 } },
            FaultEvent { tick: 5, kind: EventKind::BudgetSqueeze { permille: 500 } },
            FaultEvent { tick: 6, kind: EventKind::SpillFault { ops: 3 } },
            FaultEvent { tick: 8, kind: EventKind::Crash },
            FaultEvent { tick: 10, kind: EventKind::ShardPanic { shard: 1 } },
            FaultEvent { tick: 11, kind: EventKind::ClockJump { ms: 400 } },
            FaultEvent { tick: 12, kind: EventKind::DriftShift { rotate: 1, mult_permille: 1_300 } },
        ];
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.digest, b.digest, "same plan must replay byte-identically");
        assert_eq!(a.per_shard_digests, b.per_shard_digests);
        assert!(a.faults_injected > 0, "the schedule actually injected faults");
        assert!(a.crashes == 1 && a.quarantines >= 1);
    }

    #[test]
    fn crash_recovers_every_acked_observation() {
        let mut plan = small_plan();
        plan.budget_bytes = 0; // unlimited: isolate the crash path
        plan.rebalance = false;
        plan.events = vec![
            FaultEvent { tick: 3, kind: EventKind::Crash },
            FaultEvent { tick: 7, kind: EventKind::CrashAt { op: 9_000 } },
        ];
        let report = run_plan(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 2);
    }

    #[test]
    fn streaming_world_coalesces_and_holds_every_invariant() {
        let mut plan = small_plan();
        plan.group_commit = 8;
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.digest, b.digest, "streaming worlds replay byte-identically");
        assert_eq!(a.per_shard_digests, b.per_shard_digests);
        assert!(a.stream_flushes > 0, "streaming intake actually engaged");
        assert!(
            a.acked >= a.stream_flushes * 2,
            "group commit coalesces: {} flushes for {} acks",
            a.stream_flushes,
            a.acked
        );
        assert!(a.acked > 3_000, "the run did real work");
    }

    #[test]
    fn crash_and_faulted_flush_lose_only_unacked_records() {
        let mut plan = small_plan();
        plan.group_commit = 7; // 600 % 7 != 0: every tick leaves a partial batch buffered
        plan.budget_bytes = 0;
        plan.rebalance = false;
        plan.events = vec![
            FaultEvent { tick: 5, kind: EventKind::Crash },
            FaultEvent { tick: 7, kind: EventKind::Enospc { ops: 4 } },
            FaultEvent { tick: 9, kind: EventKind::ShortWrite { ops: 1 } },
        ];
        let report = run_plan(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 1);
        assert!(
            report.stream_lost > 0,
            "the crash killed a non-empty group-commit buffer: {report:?}"
        );
        assert!(
            report.shed_io >= report.stream_lost,
            "every lost record is ledgered as a typed shed"
        );
    }

    #[test]
    fn clock_jump_defers_maintenance() {
        let mut plan = small_plan();
        plan.events = (1..14)
            .map(|t| FaultEvent { tick: t, kind: EventKind::ClockJump { ms: 400 } })
            .collect();
        let report = run_plan(&plan);
        assert!(report.deferred_maintenance >= 12, "jumped deadlines defer maintenance");
        assert!(report.passed(), "violations: {:?}", report.violations);
    }
}
