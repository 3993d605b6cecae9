//! Sharded durable state: one WAL + snapshot lineage per shard, plus
//! crash-safe two-phase template migration between shards.
//!
//! Each shard owns a private state directory (`shard-<i>/` under the
//! root) holding its own snapshot generations and write-ahead log —
//! corrupting one shard's lineage cannot touch a sibling's, which is
//! the durability half of the bulkhead.
//!
//! # Migration protocol
//!
//! Draining a (typically quarantined) shard into a healthy one must
//! survive a crash at any instant without losing or duplicating
//! observations. The protocol is two-phase with an idempotent resume:
//!
//! 1. **Prepare** ([`ShardedDurable::begin_migration`]): spill the
//!    source shard's template histories non-destructively (spill, then
//!    restore the same blob in memory), and atomically write a marker
//!    file `migrate-<from>-<to>.dbmg` carrying the template roster, the
//!    verbatim spill blob, and a CRC trailer. Until the marker is
//!    durable, the migration never happened.
//! 2. **Commit** ([`ShardedDurable::resume_migrations`], also run at
//!    every [`open`](ShardedDurable::open)): replay the spilled
//!    observations into the destination's in-memory registry, make them
//!    durable with one destination checkpoint (atomic at the snapshot
//!    rename), write the `.done` file, and only then drain the source
//!    and remove both files.
//!
//! A crash between any two steps re-runs commit idempotently: the
//! destination-count check skips the replay if the checkpoint already
//! landed, and the `.done` file gates the destructive drain. Routing
//! overrides (template → non-home shard) are rebuilt from observation
//! placement at open, so a completed migration keeps routing correctly
//! with no extra metadata.

use crate::health::{BreakerState, ShardHealth, ShardState};
use crate::route::shard_of;
use dbaugur::{
    real_vfs, DbAugurConfig, DurabilityCounters, DurableDbAugur, DynVfs, FlushReport,
    GroupCommitConfig, RecoveryReport, SnapshotError,
};
use dbaugur_sqlproc::{canonicalize, StatementHandle, TemplateId};
use dbaugur_trace::wire::{crc32, WireReader, WireWriter};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Marker-file magic: `"DBMG"` little-endian.
const MIGRATE_MAGIC: u32 = 0x474D_4244;
/// Marker wire-format version. v2 added the per-roster destination
/// baseline counts that make the import-idempotence check exact.
const MIGRATE_VERSION: u32 = 2;

/// Why a gated migration was refused or failed.
#[derive(Debug)]
pub enum MigrateError {
    /// The destination shard is not accepting writes: its breaker is
    /// open (quarantined) or it is mid-recovery probation. Draining
    /// histories into a shard that may be torn down again would risk
    /// the very data the migration is trying to protect.
    DestinationUnavailable {
        /// The refused destination shard.
        to: usize,
        /// Its lifecycle state at refusal time.
        state: ShardState,
    },
    /// Underlying storage failure during prepare or commit.
    Io(io::Error),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::DestinationUnavailable { to, state } => {
                write!(f, "destination shard {to} unavailable ({state:?})")
            }
            MigrateError::Io(e) => write!(f, "migration I/O failure: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<io::Error> for MigrateError {
    fn from(e: io::Error) -> Self {
        MigrateError::Io(e)
    }
}

/// What one completed migration moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Source shard (drained).
    pub from: usize,
    /// Destination shard (absorbed the histories).
    pub to: usize,
    /// Templates whose histories moved.
    pub templates: usize,
    /// Observations moved.
    pub observations: u64,
}

/// The decoded body of a migration marker file.
struct Marker {
    from: usize,
    to: usize,
    /// Canonical template strings, indexed by source-shard template id.
    roster: Vec<String>,
    /// Destination-shard observation count per roster id, captured at
    /// prepare time. The commit's import-idempotence check compares
    /// against `baseline + captured` rather than `captured` alone: a
    /// destination may legitimately hold a *prior* history of a
    /// migrated template (observations ingested during an earlier open
    /// marker land at the then-owner and survive the surgical drain),
    /// and judging "already imported" by raw count would mistake that
    /// residual for a replayed import — then drain the source anyway,
    /// destroying acknowledged observations. Found by deterministic
    /// simulation (conservation checker, single migration-fault event).
    baselines: Vec<usize>,
    /// Verbatim registry spill blob (source-shard ids + observations).
    spill: Vec<u8>,
}

/// A deliberately plantable protocol bug, used by the deterministic
/// simulator's self-test: the invariant swarm must *catch* each of
/// these, and the delta-debugger must shrink the catching schedule to a
/// minimal reproducer. Each variant reverts one hardening the commit
/// protocol carries precisely because the simulator demonstrated the
/// failure it causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CanaryBug {
    /// The protocol as shipped.
    #[default]
    None,
    /// Revert the per-entry import idempotence check to the historical
    /// all-or-nothing form: if *any* migrated template's destination
    /// count is short, re-import *every* entry. When a commit is
    /// interrupted by an injected fault and the destination is then
    /// partially evicted under memory pressure, the retried commit
    /// doubles the observation histories of every template that
    /// survived eviction — a permanent phantom the per-template
    /// `resident <= acked` checker flags.
    CoarseImportCheck,
    /// Drain the source with whole-history drops instead of removing
    /// exactly the observations captured in the marker. A commit
    /// retried after a mid-commit fault then destroys observations
    /// acknowledged *after* the marker was cut — a hard loss the
    /// conservation checker flags.
    WholeHistoryDrain,
}

/// N durable pipelines, one per fault domain, under one root directory.
pub struct ShardedDurable {
    root: PathBuf,
    shards: Vec<DurableDbAugur>,
    reports: Vec<RecoveryReport>,
    /// Canonical template → shard, for templates living away from their
    /// hash home after a migration. Rebuilt from observation placement
    /// at every open.
    overrides: HashMap<String, usize>,
    /// The vfs every byte (per-shard lineages, migration markers)
    /// persists through; fault-injection soaks swap in a
    /// [`dbaugur::FaultyVfs`].
    vfs: DynVfs,
    /// Deliberate protocol bug planted by the simulator self-test.
    canary: CanaryBug,
}

impl ShardedDurable {
    /// Open (or create) `cfg.shards` shard directories under `root`,
    /// recovering each shard's own snapshot + WAL lineage, completing
    /// any migration that was interrupted by a crash, and rebuilding
    /// routing overrides from where observations actually live.
    ///
    /// Shard recoveries are independent: a corrupt generation or torn
    /// WAL tail in one shard is salvaged (and surfaced in that shard's
    /// [`RecoveryReport`] and durability counters) without touching any
    /// sibling.
    pub fn open(root: &Path, cfg: DbAugurConfig) -> Result<Self, SnapshotError> {
        Self::open_with_vfs(&real_vfs(), root, cfg)
    }

    /// [`open`](Self::open) against an arbitrary vfs: every shard
    /// lineage (WAL, snapshots) and every migration marker flows through
    /// `vfs`, so a soak can run the whole sharded store in memory with
    /// seeded disk faults injected mid-spill and mid-migration.
    pub fn open_with_vfs(
        vfs: &DynVfs,
        root: &Path,
        cfg: DbAugurConfig,
    ) -> Result<Self, SnapshotError> {
        assert!(cfg.shards > 0, "shard count must be positive");
        vfs.create_dir_all(root)?;
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut reports = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let (shard, report) =
                DurableDbAugur::open_with_vfs(vfs, &shard_dir(root, i), cfg.clone())?;
            shards.push(shard);
            reports.push(report);
        }
        let mut this = Self {
            root: root.to_path_buf(),
            shards,
            reports,
            overrides: HashMap::new(),
            vfs: std::sync::Arc::clone(vfs),
            canary: CanaryBug::None,
        };
        this.resume_migrations()?;
        this.rebuild_overrides();
        Ok(this)
    }

    /// [`open`](Self::open), with the per-shard recoveries running in
    /// parallel on `exec`. A panic while recovering one shard surfaces
    /// as that shard's error; siblings still recover.
    pub fn open_parallel(
        root: &Path,
        cfg: DbAugurConfig,
        exec: &dbaugur_exec::Executor,
    ) -> Result<Self, SnapshotError> {
        assert!(cfg.shards > 0, "shard count must be positive");
        std::fs::create_dir_all(root)?;
        let dirs: Vec<(usize, PathBuf)> =
            (0..cfg.shards).map(|i| (i, shard_dir(root, i))).collect();
        let cfg_ref = &cfg;
        let outcomes = exec.try_map(dirs, |_, (_i, dir)| DurableDbAugur::open(&dir, cfg_ref.clone()));
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut reports = Vec::with_capacity(cfg.shards);
        for outcome in outcomes {
            let (shard, report) = outcome
                .map_err(|panic| SnapshotError::from(io::Error::other(panic)))??;
            shards.push(shard);
            reports.push(report);
        }
        let mut this = Self {
            root: root.to_path_buf(),
            shards,
            reports,
            overrides: HashMap::new(),
            vfs: real_vfs(),
            canary: CanaryBug::None,
        };
        this.resume_migrations()?;
        this.rebuild_overrides();
        Ok(this)
    }

    /// Plant (or clear) a deliberate protocol bug. Exists solely so the
    /// deterministic simulator can prove its invariant swarm catches a
    /// known defect and shrinks the catching schedule; production code
    /// never calls this.
    pub fn inject_canary(&mut self, bug: CanaryBug) {
        self.canary = bug;
    }

    /// The currently planted canary bug ([`CanaryBug::None`] normally).
    pub fn canary(&self) -> CanaryBug {
        self.canary
    }

    /// Number of shard fault domains.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Root directory holding the shard subdirectories.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// One shard's durable pipeline (read access).
    pub fn shard(&self, i: usize) -> &DurableDbAugur {
        &self.shards[i]
    }

    /// Mutable access to one shard's durable pipeline.
    pub fn shard_mut(&mut self, i: usize) -> &mut DurableDbAugur {
        &mut self.shards[i]
    }

    /// Each shard's recovery report from the last open, in shard order.
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.reports
    }

    /// One shard's durability counters (salvage events, retries).
    pub fn durability(&self, i: usize) -> DurabilityCounters {
        self.shards[i].system().durability()
    }

    /// The shard that owns `sql`'s template: a migration override if
    /// one exists, the stable hash home otherwise.
    pub fn route(&self, sql: &str) -> usize {
        self.owner_of(&canonicalize(sql))
    }

    /// [`route`](Self::route) for a caller that carries a
    /// [`StatementHandle`] made from `sql`: the canonical form routing
    /// has to compute stays in `stmt` for the layers below instead of
    /// being discarded (and is reused if `stmt` already holds it).
    pub fn route_parsed(&self, sql: &str, stmt: &mut StatementHandle) -> usize {
        self.owner_of(stmt.canonical(sql))
    }

    fn owner_of(&self, canonical: &str) -> usize {
        match self.overrides.get(canonical) {
            Some(&shard) => shard,
            None => shard_of(canonical, self.shards.len()),
        }
    }

    /// Migration overrides in force (canonical template → shard).
    pub fn overrides(&self) -> &HashMap<String, usize> {
        &self.overrides
    }

    /// Durably ingest one record into the owning shard. Returns the
    /// shard that absorbed it.
    pub fn ingest_record(&mut self, ts_secs: u64, sql: &str) -> io::Result<usize> {
        let shard = self.route(sql);
        self.shards[shard].ingest_record(ts_secs, sql)?;
        Ok(shard)
    }

    /// Forecast from the owning shard (`None` for unknown templates or
    /// untrained shards).
    pub fn forecast(&self, sql: &str) -> Option<f64> {
        self.shards[self.route(sql)].system().forecast_template(sql)
    }

    /// Switch every shard to group-committed streaming ingest: records
    /// coalesce per shard and fsync in batches. See
    /// [`DurableDbAugur::stream_enable`] for the ack contract.
    pub fn stream_enable(&mut self, cfg: GroupCommitConfig) {
        for shard in &mut self.shards {
            shard.stream_enable(cfg);
        }
    }

    /// True when the shards accept [`stream_submit`](Self::stream_submit).
    pub fn stream_enabled(&self) -> bool {
        self.shards.iter().all(|s| s.stream_enabled())
    }

    /// Route one record to its owning shard's group-commit buffer.
    /// Returns the shard plus the flush report when this submission
    /// tipped the shard's batch over a coalescing threshold. The record
    /// is acked — durable and applied — only once a flush report covers
    /// it; a crash before then loses it silently, exactly like an
    /// unacknowledged bulk ingest.
    pub fn stream_submit(
        &mut self,
        now_us: u64,
        ts_secs: u64,
        sql: &str,
    ) -> io::Result<(usize, Option<FlushReport>)> {
        let mut stmt = StatementHandle::of(sql);
        let shard = self.route_parsed(sql, &mut stmt);
        let report = self.stream_submit_parsed(shard, now_us, ts_secs, sql, stmt)?;
        Ok((shard, report))
    }

    /// [`stream_submit`](Self::stream_submit) with the routing decision
    /// supplied by the caller and a bare statement: a one-line adapter
    /// over [`stream_submit_parsed`](Self::stream_submit_parsed).
    pub fn stream_submit_to(
        &mut self,
        shard: usize,
        now_us: u64,
        ts_secs: u64,
        sql: &str,
    ) -> io::Result<Option<FlushReport>> {
        self.stream_submit_parsed(shard, now_us, ts_secs, sql, StatementHandle::of(sql))
    }

    /// Submit one record to `shard`'s group-commit buffer together with
    /// the handle made from `sql` — the path for front doors that cache
    /// template → shard routing, fall back to
    /// [`route_parsed`](Self::route_parsed) on a miss, and hand down
    /// whatever that had to compute.
    pub fn stream_submit_parsed(
        &mut self,
        shard: usize,
        now_us: u64,
        ts_secs: u64,
        sql: &str,
        stmt: StatementHandle,
    ) -> io::Result<Option<FlushReport>> {
        self.shards[shard].stream_submit_parsed(now_us, ts_secs, sql, stmt)
    }

    /// Flush any shard whose oldest buffered record has aged past the
    /// group-commit delay. Returns `(shard, report)` per flush.
    pub fn stream_poll(&mut self, now_us: u64) -> io::Result<Vec<(usize, FlushReport)>> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(report) = shard.stream_poll(now_us)? {
                out.push((i, report));
            }
        }
        Ok(out)
    }

    /// Force-flush every shard's buffer — the streaming barrier before
    /// checkpoints, migrations, or shutdown.
    pub fn stream_flush_all(&mut self) -> io::Result<Vec<(usize, FlushReport)>> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(report) = shard.stream_flush()? {
                out.push((i, report));
            }
        }
        Ok(out)
    }

    /// Buffered-but-unacked records across all shards.
    pub fn stream_pending(&self) -> usize {
        self.shards.iter().map(|s| s.stream_pending()).sum()
    }

    /// Checkpoint every shard sequentially; returns each shard's new
    /// snapshot generation.
    pub fn checkpoint_all(&mut self) -> io::Result<Vec<u64>> {
        self.shards.iter_mut().map(|s| s.checkpoint()).collect()
    }

    /// Checkpoint every shard in parallel on `exec`.
    pub fn checkpoint_all_parallel(
        &mut self,
        exec: &dbaugur_exec::Executor,
    ) -> io::Result<Vec<u64>> {
        let outcomes = exec.try_map_mut(&mut self.shards, |_, shard| shard.checkpoint());
        outcomes
            .into_iter()
            .map(|o| o.map_err(io::Error::other)?)
            .collect()
    }

    /// [`migrate`](Self::migrate) with the destination's health gate: a
    /// destination whose breaker is open (quarantined) or that is still
    /// in recovery probation is refused with a typed
    /// [`MigrateError::DestinationUnavailable`] before any byte moves.
    /// This is the everyday entry point when health is tracked; the
    /// ungated [`migrate`](Self::migrate) remains for recovery tooling
    /// that operates on a store with no live supervisor.
    pub fn migrate_gated(
        &mut self,
        from: usize,
        to: usize,
        dest: &ShardHealth,
    ) -> Result<MigrationReport, MigrateError> {
        check_destination(to, dest)?;
        self.migrate(from, to).map_err(MigrateError::Io)
    }

    /// Health-gated partial migration: move only the source's coldest
    /// histories, keeping roughly `keep_bytes` of the hot set resident
    /// on the donor. This is the auto-rebalance primitive — a heat
    /// imbalance is corrected by shedding cold weight, not by draining
    /// the donor wholesale (which would just invert the imbalance).
    pub fn migrate_partial_gated(
        &mut self,
        from: usize,
        to: usize,
        keep_bytes: usize,
        dest: &ShardHealth,
    ) -> Result<MigrationReport, MigrateError> {
        check_destination(to, dest)?;
        let began = self.begin_migration_partial(from, to, keep_bytes)?;
        if !began {
            return Ok(MigrationReport { from, to, templates: 0, observations: 0 });
        }
        let completed = self.resume_migrations().map_err(snapshot_to_io)?;
        completed
            .into_iter()
            .find(|r| r.from == from && r.to == to)
            .ok_or_else(|| {
                MigrateError::Io(io::Error::other("migration marker vanished before commit"))
            })
    }

    /// Move every template history from shard `from` to shard `to`,
    /// crash-safely: prepare (marker) then commit (resume). The usual
    /// caller quarantines `from` first so no new writes race the drain.
    /// Ungated: see [`migrate_gated`](Self::migrate_gated) for the
    /// health-checked variant.
    pub fn migrate(&mut self, from: usize, to: usize) -> io::Result<MigrationReport> {
        let began = self.begin_migration(from, to)?;
        if !began {
            return Ok(MigrationReport { from, to, templates: 0, observations: 0 });
        }
        let completed = self.resume_migrations().map_err(snapshot_to_io)?;
        completed
            .into_iter()
            .find(|r| r.from == from && r.to == to)
            .ok_or_else(|| io::Error::other("migration marker vanished before commit"))
    }

    /// Phase 1 only: durably write the migration marker for `from → to`
    /// and return whether there was anything to migrate. The source is
    /// not modified (histories are spilled and immediately restored in
    /// memory). Split out so crash tests can stop between the phases;
    /// [`migrate`](Self::migrate) is the everyday entry point.
    pub fn begin_migration(&mut self, from: usize, to: usize) -> io::Result<bool> {
        self.begin_migration_partial(from, to, 0)
    }

    /// Phase 1 of a partial migration: spill only the source's coldest
    /// histories (down to roughly `keep_bytes` resident) into the
    /// marker. `keep_bytes == 0` degenerates to a full migration.
    pub fn begin_migration_partial(
        &mut self,
        from: usize,
        to: usize,
        keep_bytes: usize,
    ) -> io::Result<bool> {
        let n = self.shards.len();
        if from >= n || to >= n || from == to {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad migration {from} -> {to} with {n} shards"),
            ));
        }
        // A marker already in flight for either party means an
        // interrupted commit may still owe that shard imports or
        // drains; cutting a second capture over the same histories
        // would double them (both markers import) or destroy them
        // (the second drain takes what the first already moved).
        // Resume must clear the field first.
        for pending in self.pending_migrations()? {
            if pending.from == from
                || pending.to == from
                || pending.from == to
                || pending.to == to
            {
                return Ok(false);
            }
        }
        let src = self.shards[from].system_mut();
        let spill = match src.evict_cold_templates(keep_bytes).spill {
            Some(spill) => {
                // Non-destructive read: put the histories straight back.
                src.restore_template_spill(&spill).map_err(wire_to_io)?;
                spill
            }
            None => return Ok(false),
        };
        // Destination baseline per roster id, captured while the
        // destination is still untouched: the commit's idempotence
        // check needs to know what the destination held *before* any
        // import attempt (see [`Marker::baselines`]).
        let roster: Vec<String> = {
            let registry = self.shards[from].system().registry();
            (0..registry.num_templates())
                .map(|id| registry.template(TemplateId(id as u32)).to_string())
                .collect()
        };
        let dest_registry = self.shards[to].system().registry();
        let baselines: Vec<usize> = roster
            .iter()
            .map(|canonical| {
                dest_registry.lookup(canonical).map_or(0, |tid| dest_registry.count(tid))
            })
            .collect();
        let mut w = WireWriter::new();
        w.put_u32(MIGRATE_MAGIC);
        w.put_u32(MIGRATE_VERSION);
        w.put_u32(from as u32);
        w.put_u32(to as u32);
        w.put_u32(roster.len() as u32);
        for canonical in &roster {
            w.put_str(canonical);
        }
        for &baseline in &baselines {
            w.put_u32(baseline as u32);
        }
        w.put_bytes(&spill);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        self.vfs.write_atomic(&marker_path(&self.root, from, to), &bytes)?;
        Ok(true)
    }

    /// Phase 2: scan the root for migration markers and drive each to
    /// completion. Idempotent at every step — called from
    /// [`open`](Self::open) to finish what a crash interrupted, and by
    /// [`migrate`](Self::migrate) on the live system. A marker that
    /// fails its CRC is removed untouched: the prepare never finished,
    /// so the source still owns every observation and nothing is lost.
    pub fn resume_migrations(&mut self) -> Result<Vec<MigrationReport>, SnapshotError> {
        let mut markers: Vec<PathBuf> = self
            .vfs
            .list_dir(&self.root)?
            .into_iter()
            .filter(|p| {
                p.extension().is_some_and(|x| x == "dbmg")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("migrate-"))
            })
            .collect();
        markers.sort();
        let mut completed = Vec::new();
        for path in markers {
            let bytes = self.vfs.read(&path)?;
            match parse_marker(&bytes, self.shards.len()) {
                Some(marker) => {
                    let report = self.commit_migration(&marker)?;
                    let _ = self.vfs.remove_file(&done_path(&self.root, marker.from, marker.to));
                    self.vfs.remove_file(&path)?;
                    completed.push(report);
                }
                None => {
                    // Torn or corrupt prepare: the migration never
                    // happened; the source still owns its histories.
                    self.vfs.remove_file(&path)?;
                }
            }
        }
        Ok(completed)
    }

    /// Drive one decoded marker through commit: import into the
    /// destination (unless a prior attempt's checkpoint already
    /// landed), make it durable, fence with the `.done` file, then
    /// drain the source.
    fn commit_migration(&mut self, marker: &Marker) -> Result<MigrationReport, SnapshotError> {
        let entries = parse_spill(&marker.spill, marker.roster.len())
            .ok_or_else(|| SnapshotError::from(io::Error::other("corrupt migration spill")))?;
        let templates = entries.len();
        let observations: u64 = entries.iter().map(|(_, obs)| obs.len() as u64).sum();
        let done = done_path(&self.root, marker.from, marker.to);
        let canary = self.canary;
        if !self.vfs.exists(&done) {
            let dest = self.shards[marker.to].system_mut();
            // Import idempotence is judged *per entry*, against the
            // destination's prepare-time baseline: an entry whose
            // destination count reaches `baseline + captured` was
            // imported by an earlier commit attempt and must not be
            // replayed, while an entry the destination has since lost
            // (evicted to spill under memory pressure between attempts)
            // is imported again. Two coarser historical checks both
            // lose data, and the deterministic simulator catches each:
            // judging all entries as one block doubles every history
            // that survived a partial eviction (phantom checker), and
            // ignoring the baseline mistakes a pre-existing residual
            // history at the destination for an already-replayed import
            // — then the drain below destroys the source's observations
            // (conservation checker).
            let import: Vec<bool> = match canary {
                CanaryBug::CoarseImportCheck => {
                    let all_present = entries.iter().all(|(id, obs)| {
                        dest.registry()
                            .lookup(&marker.roster[*id])
                            .is_some_and(|tid| dest.registry().count(tid) >= obs.len())
                    });
                    vec![!all_present; entries.len()]
                }
                _ => entries
                    .iter()
                    .map(|(id, obs)| {
                        let baseline = marker.baselines.get(*id).copied().unwrap_or(0);
                        !dest.registry().lookup(&marker.roster[*id]).is_some_and(|tid| {
                            dest.registry().count(tid) >= baseline + obs.len()
                        })
                    })
                    .collect(),
            };
            for ((id, obs), replay) in entries.iter().zip(&import) {
                if !replay {
                    continue;
                }
                let template = &marker.roster[*id];
                for &ts in obs {
                    dest.ingest_record(ts, template);
                }
            }
            // One checkpoint makes the whole import durable atomically
            // (snapshot rename); only then does the fence go down.
            self.shards[marker.to].checkpoint()?;
            self.vfs.write_atomic(&done, b"DBMG-DONE")?;
        }
        // Past the fence the destination durably owns the histories:
        // dropping them from the source is now safe (and idempotent).
        // The drain is doubly surgical — only the migrated entries go,
        // and within each entry only the observations captured in the
        // marker. A commit retried after a mid-commit fault must not
        // take the observations acknowledged since the marker was cut;
        // those still belong to the source (a whole-history drop here
        // measurably loses them under the deterministic simulator's
        // conservation checker).
        let src = self.shards[marker.from].system_mut();
        for (id, obs) in &entries {
            if canary == CanaryBug::WholeHistoryDrain {
                src.drop_template_history(TemplateId(*id as u32));
            } else {
                src.remove_template_observations(TemplateId(*id as u32), obs);
            }
        }
        self.shards[marker.from].checkpoint()?;
        for (id, _) in &entries {
            let canonical = &marker.roster[*id];
            if shard_of(canonical, self.shards.len()) != marker.to {
                self.overrides.insert(canonical.clone(), marker.to);
            } else {
                // The template is back on its hash home: a stale
                // override from an earlier hop would keep routing its
                // ingests to the *old* owner, and the count-based
                // import-idempotence check above would then mistake
                // that re-accumulated history for an already-replayed
                // import on the next migration — silently draining
                // acknowledged observations. (Reopen rebuilds overrides
                // from placement and heals this; the live path must
                // too.)
                self.overrides.remove(canonical);
            }
        }
        Ok(MigrationReport { from: marker.from, to: marker.to, templates, observations })
    }

    /// Enumerate migrations that are prepared but not yet committed:
    /// every valid on-disk marker, decoded into its parties and the
    /// exact observations it captured. Torn or corrupt markers are
    /// skipped (resume removes them as "never prepared").
    ///
    /// Observability surface for operators and for the deterministic
    /// simulator, whose invariant checkers need to know (a) which
    /// shards are parties to an open migration — their histories must
    /// not be evicted out from under the commit protocol — and (b) how
    /// many observations may legitimately be double-resident while an
    /// interrupted commit awaits retry.
    pub fn pending_migrations(&self) -> io::Result<Vec<PendingMigration>> {
        let mut markers: Vec<PathBuf> = self
            .vfs
            .list_dir(&self.root)?
            .into_iter()
            .filter(|p| {
                p.extension().is_some_and(|x| x == "dbmg")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("migrate-"))
            })
            .collect();
        markers.sort();
        let mut pending = Vec::new();
        for path in markers {
            let bytes = self.vfs.read(&path)?;
            let Some(marker) = parse_marker(&bytes, self.shards.len()) else {
                continue;
            };
            let Some(entries) = parse_spill(&marker.spill, marker.roster.len()) else {
                continue;
            };
            pending.push(PendingMigration {
                from: marker.from,
                to: marker.to,
                entries: entries
                    .into_iter()
                    .map(|(id, obs)| (marker.roster[id].clone(), obs))
                    .collect(),
            });
        }
        Ok(pending)
    }

    /// Recompute routing overrides from observation placement: any
    /// template whose observations live on a shard other than its hash
    /// home routes to where the data is.
    fn rebuild_overrides(&mut self) {
        self.overrides.clear();
        let n = self.shards.len();
        for (i, shard) in self.shards.iter().enumerate() {
            let registry = shard.system().registry();
            for id in 0..registry.num_templates() {
                let tid = TemplateId(id as u32);
                if registry.count(tid) > 0 {
                    let canonical = registry.template(tid);
                    if shard_of(canonical, n) != i {
                        self.overrides.insert(canonical.to_string(), i);
                    }
                }
            }
        }
    }
}

/// One prepared-but-uncommitted migration, decoded from its on-disk
/// marker. See [`ShardedDurable::pending_migrations`].
#[derive(Debug, Clone)]
pub struct PendingMigration {
    /// Donor shard index.
    pub from: usize,
    /// Receiver shard index.
    pub to: usize,
    /// Canonical template string plus the exact observation timestamps
    /// the marker captured, per migrated template.
    pub entries: Vec<(String, Vec<u64>)>,
}

impl PendingMigration {
    /// Total observations captured across entries.
    pub fn observations(&self) -> u64 {
        self.entries.iter().map(|(_, obs)| obs.len() as u64).sum()
    }
}

/// The destination gate: a shard whose breaker is open or whose
/// lifecycle is Quarantined/Recovering must never absorb a migration.
fn check_destination(to: usize, dest: &ShardHealth) -> Result<(), MigrateError> {
    let state = dest.state();
    if dest.breaker() == BreakerState::Open
        || matches!(state, ShardState::Quarantined | ShardState::Recovering)
    {
        return Err(MigrateError::DestinationUnavailable { to, state });
    }
    Ok(())
}

fn shard_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("shard-{i}"))
}

fn marker_path(root: &Path, from: usize, to: usize) -> PathBuf {
    root.join(format!("migrate-{from}-{to}.dbmg"))
}

fn done_path(root: &Path, from: usize, to: usize) -> PathBuf {
    root.join(format!("migrate-{from}-{to}.done"))
}

fn wire_to_io(e: dbaugur_trace::wire::WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}"))
}

fn snapshot_to_io(e: SnapshotError) -> io::Error {
    io::Error::other(format!("{e}"))
}

/// Decode and CRC-check a marker file. `None` means torn/corrupt (or a
/// shard-count mismatch), which resume treats as "never prepared".
fn parse_marker(bytes: &[u8], shards: usize) -> Option<Marker> {
    if bytes.len() < 4 {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let mut r = WireReader::new(body);
    if r.u32().ok()? != MIGRATE_MAGIC || r.u32().ok()? != MIGRATE_VERSION {
        return None;
    }
    let from = r.u32().ok()? as usize;
    let to = r.u32().ok()? as usize;
    if from >= shards || to >= shards || from == to {
        return None;
    }
    let n = r.u32().ok()? as usize;
    if n > body.len() {
        return None;
    }
    let mut roster = Vec::with_capacity(n);
    for _ in 0..n {
        roster.push(r.str().ok()?);
    }
    let mut baselines = Vec::with_capacity(n);
    for _ in 0..n {
        baselines.push(r.u32().ok()? as usize);
    }
    let spill = r.bytes().ok()?;
    Some(Marker { from, to, roster, baselines, spill })
}

/// Decode a registry spill blob into `(source template id, timestamps)`
/// entries; `None` on any wire damage or out-of-roster id.
fn parse_spill(bytes: &[u8], roster_len: usize) -> Option<Vec<(usize, Vec<u64>)>> {
    let mut r = WireReader::new(bytes);
    let n = r.u32().ok()? as usize;
    if n > bytes.len() {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32().ok()? as usize;
        if id >= roster_len {
            return None;
        }
        entries.push((id, r.u64_seq().ok()?));
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> DbAugurConfig {
        DbAugurConfig { shards, ..DbAugurConfig::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbaugur-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Distinct templates that route to distinct shards under `shards`.
    fn template_on(shard: usize, shards: usize) -> String {
        for i in 0..4096 {
            let sql = format!("SELECT c{i} FROM t{i} WHERE k = {i}");
            if shard_of(&canonicalize(&sql), shards) == shard {
                return sql;
            }
        }
        unreachable!("4096 templates always cover {shards} shards");
    }

    #[test]
    fn ingestion_routes_and_survives_reopen_per_shard() {
        let root = tmpdir("reopen");
        let (a, b) = (template_on(0, 2), template_on(1, 2));
        {
            let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
            for ts in 0..10 {
                assert_eq!(sys.ingest_record(ts, &a).expect("ingest"), 0);
            }
            for ts in 0..7 {
                assert_eq!(sys.ingest_record(ts, &b).expect("ingest"), 1);
            }
            // No checkpoint: reopen must replay each shard's own WAL.
        }
        let sys = ShardedDurable::open(&root, cfg(2)).expect("reopen");
        assert_eq!(sys.recovery_reports()[0].wal_applied, 10);
        assert_eq!(sys.recovery_reports()[1].wal_applied, 7);
        assert_eq!(sys.shard(0).system().num_templates(), 1);
        assert_eq!(sys.shard(1).system().num_templates(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_shard_lineage_does_not_touch_siblings() {
        let root = tmpdir("bulkhead");
        let (a, b) = (template_on(0, 2), template_on(1, 2));
        {
            let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
            for ts in 0..8 {
                sys.ingest_record(ts, &a).expect("ingest");
                sys.ingest_record(ts, &b).expect("ingest");
            }
        }
        // Tear shard 0's WAL tail: chop mid-frame.
        let wal0 = root.join("shard-0").join(dbaugur::WAL_FILE);
        let bytes = std::fs::read(&wal0).expect("read wal");
        std::fs::write(&wal0, &bytes[..bytes.len() - 3]).expect("tear wal");
        let sys = ShardedDurable::open(&root, cfg(2)).expect("reopen");
        assert!(sys.recovery_reports()[0].wal_torn, "shard 0 tail salvaged");
        assert_eq!(sys.durability(0).wal_torn_salvages, 1);
        assert!(!sys.recovery_reports()[1].wal_torn, "sibling untouched");
        assert_eq!(sys.durability(1).wal_torn_salvages, 0);
        assert_eq!(sys.recovery_reports()[1].wal_applied, 8);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn migration_moves_histories_and_installs_override() {
        let root = tmpdir("migrate");
        let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
        let a = template_on(0, 2);
        for ts in 0..12 {
            sys.ingest_record(ts, &a).expect("ingest");
        }
        let report = sys.migrate(0, 1).expect("migrate");
        assert_eq!(report, MigrationReport { from: 0, to: 1, templates: 1, observations: 12 });
        assert_eq!(sys.route(&a), 1, "override routes to the data");
        let tid = sys.shard(1).system().registry().lookup(&a).expect("template imported");
        assert_eq!(sys.shard(1).system().registry().count(tid), 12);
        let src_tid = sys.shard(0).system().registry().lookup(&a).expect("roster entry stays");
        assert_eq!(sys.shard(0).system().registry().count(src_tid), 0, "source drained");
        // New traffic lands on the destination, durably.
        assert_eq!(sys.ingest_record(99, &a).expect("ingest"), 1);
        drop(sys);
        // The override is rebuilt from observation placement at open.
        let sys = ShardedDurable::open(&root, cfg(2)).expect("reopen");
        assert_eq!(sys.route(&a), 1);
        let tid = sys.shard(1).system().registry().lookup(&a).expect("still there");
        assert_eq!(sys.shard(1).system().registry().count(tid), 13);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn migration_with_empty_source_is_a_noop() {
        let root = tmpdir("noop");
        let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
        let report = sys.migrate(0, 1).expect("migrate");
        assert_eq!(report.templates, 0);
        assert!(sys.migrate(0, 0).is_err(), "self-migration rejected");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crashed_migration_resumes_to_completion_at_open() {
        let root = tmpdir("resume");
        let a = template_on(0, 2);
        {
            let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
            for ts in 0..9 {
                sys.ingest_record(ts, &a).expect("ingest");
            }
            // Crash right after the prepare phase: marker durable, no
            // import, no drain.
            assert!(sys.begin_migration(0, 1).expect("prepare"));
        }
        assert!(marker_path(&root, 0, 1).exists());
        let sys = ShardedDurable::open(&root, cfg(2)).expect("reopen resumes");
        assert!(!marker_path(&root, 0, 1).exists(), "marker cleaned up");
        assert!(!done_path(&root, 0, 1).exists(), "fence cleaned up");
        assert_eq!(sys.route(&a), 1);
        let tid = sys.shard(1).system().registry().lookup(&a).expect("imported");
        assert_eq!(sys.shard(1).system().registry().count(tid), 9);
        let src_tid = sys.shard(0).system().registry().lookup(&a).expect("roster entry");
        assert_eq!(sys.shard(0).system().registry().count(src_tid), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_marker_is_discarded_and_source_keeps_its_data() {
        let root = tmpdir("corrupt-marker");
        let a = template_on(0, 2);
        {
            let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
            for ts in 0..5 {
                sys.ingest_record(ts, &a).expect("ingest");
            }
            assert!(sys.begin_migration(0, 1).expect("prepare"));
        }
        // Flip a byte in the marker body: the CRC check must reject it.
        let path = marker_path(&root, 0, 1);
        let mut bytes = std::fs::read(&path).expect("read marker");
        bytes[8] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt marker");
        let sys = ShardedDurable::open(&root, cfg(2)).expect("reopen");
        assert!(!path.exists(), "corrupt marker removed");
        assert_eq!(sys.route(&a), 0, "no migration happened");
        let tid = sys.shard(0).system().registry().lookup(&a).expect("source keeps data");
        assert_eq!(sys.shard(0).system().registry().count(tid), 5);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn migration_refuses_unhealthy_destination() {
        use crate::health::HealthPolicy;
        let root = tmpdir("gate");
        let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
        let a = template_on(0, 2);
        for ts in 0..6 {
            sys.ingest_record(ts, &a).expect("ingest");
        }
        let mut dest = ShardHealth::new(HealthPolicy::default());
        dest.force_quarantine();
        // Quarantined destination (breaker open): refused, typed, no bytes moved.
        let err = sys.migrate_gated(0, 1, &dest).expect_err("quarantined dest refused");
        assert!(matches!(
            err,
            MigrateError::DestinationUnavailable { to: 1, state: ShardState::Quarantined }
        ));
        assert_eq!(sys.route(&a), 0, "nothing migrated");
        assert!(!marker_path(&root, 0, 1).exists(), "no marker written");
        // Walk into Recovering (half-open probation): still refused.
        for _ in 0..3 {
            dest.on_tick();
        }
        assert_eq!(dest.state(), ShardState::Recovering);
        let err = sys.migrate_gated(0, 1, &dest).expect_err("recovering dest refused");
        assert!(matches!(
            err,
            MigrateError::DestinationUnavailable { to: 1, state: ShardState::Recovering }
        ));
        // Healthy again: the same migration goes through.
        for _ in 0..2 {
            dest.on_tick();
            dest.record_success();
        }
        assert_eq!(dest.state(), ShardState::Healthy);
        let report = sys.migrate_gated(0, 1, &dest).expect("healthy dest accepted");
        assert_eq!(report.observations, 6);
        assert_eq!(sys.route(&a), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_migration_moves_only_the_cold_tail() {
        use crate::health::HealthPolicy;
        let root = tmpdir("partial");
        let mut sys = ShardedDurable::open(&root, cfg(2)).expect("open");
        // Two templates on shard 0: one hot (many recent observations),
        // one cold (few, old).
        let mut hot = None;
        let mut cold = None;
        for i in 0..4096 {
            let sql = format!("SELECT c{i} FROM t{i} WHERE k = {i}");
            if shard_of(&canonicalize(&sql), 2) == 0 {
                if hot.is_none() {
                    hot = Some(sql);
                } else if cold.is_none() {
                    cold = Some(sql);
                    break;
                }
            }
        }
        let (hot, cold) = (hot.unwrap(), cold.unwrap());
        for ts in 0..4 {
            sys.ingest_record(ts, &cold).expect("ingest cold");
        }
        for ts in 100..140 {
            sys.ingest_record(ts, &hot).expect("ingest hot");
        }
        // Keep enough bytes that the hot history stays: evict_cold goes
        // coldest-first, so only the cold tail lands in the marker.
        let resident = sys.shard(0).system().registry().approx_bytes();
        let keep = resident - 8 * 4; // just the cold observations leave
        let dest = ShardHealth::new(HealthPolicy::default());
        let report = sys.migrate_partial_gated(0, 1, keep, &dest).expect("partial migrate");
        assert_eq!(report.observations, 4, "only the cold history moved");
        assert_eq!(sys.route(&cold), 1, "cold template routes to the receiver");
        assert_eq!(sys.route(&hot), 0, "hot template stays on the donor");
        let hot_tid = sys.shard(0).system().registry().lookup(&hot).expect("hot stays");
        assert_eq!(sys.shard(0).system().registry().count(hot_tid), 40, "hot history intact");
        let cold_tid = sys.shard(1).system().registry().lookup(&cold).expect("cold imported");
        assert_eq!(sys.shard(1).system().registry().count(cold_tid), 4);
        // Survives reopen: overrides rebuilt from placement.
        drop(sys);
        let sys = ShardedDurable::open(&root, cfg(2)).expect("reopen");
        assert_eq!(sys.route(&cold), 1);
        assert_eq!(sys.route(&hot), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_store_runs_entirely_on_a_mem_vfs() {
        use dbaugur::MemVfs;
        let vfs: dbaugur::DynVfs = std::sync::Arc::new(MemVfs::new());
        let root = PathBuf::from("/mem/sharded");
        let (a, b) = (template_on(0, 2), template_on(1, 2));
        {
            let mut sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("open");
            for ts in 0..10 {
                sys.ingest_record(ts, &a).expect("ingest");
                sys.ingest_record(ts, &b).expect("ingest");
            }
            sys.migrate(0, 1).expect("migrate in memory");
        }
        // Reopen over the same in-memory tree: state and overrides hold.
        let sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("reopen");
        assert_eq!(sys.route(&a), 1, "migration survived the in-memory reopen");
        let tid = sys.shard(1).system().registry().lookup(&a).expect("imported");
        assert_eq!(sys.shard(1).system().registry().count(tid), 10);
        assert!(std::fs::metadata(&root).is_err(), "nothing touched the real filesystem");
    }

    #[test]
    fn parallel_open_matches_sequential_open() {
        let root = tmpdir("par-open");
        let (a, b) = (template_on(0, 4), template_on(3, 4));
        {
            let mut sys = ShardedDurable::open(&root, cfg(4)).expect("open");
            for ts in 0..6 {
                sys.ingest_record(ts, &a).expect("ingest");
                sys.ingest_record(ts, &b).expect("ingest");
            }
        }
        let exec = dbaugur_exec::Executor::new(4);
        let sys = ShardedDurable::open_parallel(&root, cfg(4), &exec).expect("parallel open");
        assert_eq!(sys.num_shards(), 4);
        assert_eq!(sys.recovery_reports()[0].wal_applied, 6);
        assert_eq!(sys.recovery_reports()[3].wal_applied, 6);
        assert_eq!(sys.shard(1).system().num_templates(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Drive a 2-shard store into an interrupted migration commit with
    /// the destination partially evicted between attempts, and return
    /// the per-template destination counts after the retried commit
    /// lands. The marker captures four templates with counts 20/30/40/50;
    /// the coldest (count 20) is evicted from the destination before
    /// the retry.
    fn interrupted_commit_counts(canary: CanaryBug) -> Vec<usize> {
        use dbaugur::{FaultKind, FaultSwitch, FaultyVfs, MemVfs};
        let switch = FaultSwitch::new();
        switch.set_stall_micros(0);
        let vfs: DynVfs = std::sync::Arc::new(FaultyVfs::new(
            std::sync::Arc::new(MemVfs::new()),
            std::sync::Arc::clone(&switch),
        ));
        let root = PathBuf::from("/canary/commit");
        let mut sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("open");
        sys.inject_canary(canary);
        let mut sqls = Vec::new();
        for i in 0..4096 {
            let sql = format!("SELECT c{i} FROM t{i} WHERE k = {i}");
            if shard_of(&canonicalize(&sql), 2) == 0 {
                sqls.push(sql);
                if sqls.len() == 4 {
                    break;
                }
            }
        }
        for (j, sql) in sqls.iter().enumerate() {
            for ts in 0..(20 + 10 * j as u64) {
                sys.ingest_record(ts, sql).expect("ingest");
            }
        }
        assert!(sys.begin_migration(0, 1).expect("prepare"), "marker written");
        // The burst outlasts the bounded durability retries, so the
        // destination checkpoint fails *after* the in-memory import.
        switch.arm(FaultKind::Eio, 64);
        assert!(sys.resume_migrations().is_err(), "commit interrupted");
        switch.clear();
        // Memory pressure between attempts: the destination sheds its
        // coldest imported history (count 20, last_seen 19).
        let dest_bytes = sys.shard(1).system().registry_bytes();
        let report = sys.shard_mut(1).system_mut().evict_cold_templates(dest_bytes - 100);
        assert!(report.spill.is_some(), "eviction actually shed a history");
        let resumed = sys.resume_migrations().expect("retried commit");
        assert_eq!(resumed.len(), 1);
        let dest = sys.shard(1).system().registry();
        sqls.iter()
            .map(|sql| dest.lookup(sql).map_or(0, |tid| dest.count(tid)))
            .collect()
    }

    #[test]
    fn retried_commit_reimports_only_what_the_destination_lost() {
        assert_eq!(interrupted_commit_counts(CanaryBug::None), vec![20, 30, 40, 50]);
    }

    #[test]
    fn coarse_import_check_canary_doubles_eviction_survivors() {
        // The historical all-or-nothing idempotence check sees one
        // short entry and replays the whole marker: every history that
        // survived the eviction doubles. This is the defect the
        // simulator's phantom checker exists to catch.
        assert_eq!(interrupted_commit_counts(CanaryBug::CoarseImportCheck), vec![20, 60, 80, 100]);
    }

    #[test]
    fn migrating_home_removes_the_stale_override() {
        // Found by the deterministic simulator's conservation checker:
        // a template migrated back to its hash home used to leave the
        // old override in place, so its new ingests kept landing on the
        // previous owner — and the count-based import-idempotence check
        // then mistook that re-accumulated history for an already-
        // replayed import on the next hop, draining acked observations.
        use dbaugur::MemVfs;
        let root = PathBuf::from("/override/home");
        let vfs: DynVfs = std::sync::Arc::new(MemVfs::new());
        let mut sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("open");
        let t = template_on(0, 2);
        for ts in 0..10 {
            sys.ingest_record(ts, &t).expect("ingest");
        }
        sys.migrate(0, 1).expect("away");
        assert_eq!(sys.route(&t), 1, "override routes to the new owner");
        for ts in 10..14 {
            assert_eq!(sys.ingest_record(ts, &t).expect("ingest"), 1);
        }
        sys.migrate(1, 0).expect("home");
        assert!(sys.overrides().is_empty(), "stale override must not survive the trip home");
        assert_eq!(sys.ingest_record(14, &t).expect("ingest"), 0);
        let reg = sys.shard(0).system().registry();
        let tid = reg.lookup(&canonicalize(&t)).expect("template home again");
        assert_eq!(reg.count(tid), 15, "every acked observation is resident at home");
    }

    #[test]
    fn residual_history_at_destination_does_not_defeat_import() {
        // Found by deterministic simulation: observations ingested
        // while a marker is open land at the old owner and survive the
        // surgical drain — a residual history on a shard that no longer
        // owns the template. When a later migration picks that shard as
        // destination, a baseline-less idempotence check reads the
        // residual as "already imported", skips the import, and the
        // drain destroys acked observations. The marker's prepare-time
        // baselines make the check exact.
        use dbaugur::{FaultKind, FaultSwitch, FaultyVfs, MemVfs};
        let switch = FaultSwitch::new();
        switch.set_stall_micros(0);
        let vfs: DynVfs = std::sync::Arc::new(FaultyVfs::new(
            std::sync::Arc::new(MemVfs::new()),
            std::sync::Arc::clone(&switch),
        ));
        let root = PathBuf::from("/residual/baseline");
        let mut sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("open");
        let t = template_on(0, 2);
        for ts in 0..6 {
            sys.ingest_record(ts, &t).expect("ingest");
        }
        // Cut the marker, then interrupt the commit mid-flight.
        assert!(sys.begin_migration(0, 1).expect("prepare"));
        switch.arm(FaultKind::Eio, 64);
        assert!(sys.resume_migrations().is_err(), "commit interrupted");
        switch.clear();
        // An ingest during the open-marker window routes to the old
        // owner and is not in the marker's capture.
        sys.ingest_record(6, &t).expect("straggler");
        sys.resume_migrations().expect("commit completes");
        let reg0 = sys.shard(0).system().registry();
        let residual =
            reg0.lookup(&canonicalize(&t)).map_or(0, |tid| reg0.count(tid));
        assert_eq!(residual, 1, "the straggler survives the surgical drain at the old owner");
        // Migrate back: shard 0 is now a destination that already holds
        // a residual history of the template.
        sys.migrate(1, 0).expect("home");
        let reg0 = sys.shard(0).system().registry();
        let tid = reg0.lookup(&canonicalize(&t)).expect("template");
        assert_eq!(reg0.count(tid), 7, "all 7 acked observations are resident — none drained away");
    }

    #[test]
    fn streamed_records_route_coalesce_and_survive_reopen() {
        use dbaugur::MemVfs;
        let vfs: DynVfs = std::sync::Arc::new(MemVfs::new());
        let root = PathBuf::from("/stream/sharded");
        let (a, b) = (template_on(0, 2), template_on(1, 2));
        {
            let mut sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("open");
            assert!(!sys.stream_enabled());
            sys.stream_enable(GroupCommitConfig { max_records: 4, max_delay_us: 1_000 });
            assert!(sys.stream_enabled());
            let mut flushes = 0;
            for ts in 0..10u64 {
                let (shard, report) = sys.stream_submit(ts, ts, &a).expect("submit");
                assert_eq!(shard, 0, "routing is unchanged by streaming");
                flushes += report.is_some() as usize;
                let (shard, _) = sys.stream_submit(ts, ts, &b).expect("submit");
                assert_eq!(shard, 1);
            }
            assert_eq!(flushes, 2, "10 records coalesce into batches of 4");
            // Timer poll picks up shard 1's aged stragglers too.
            let timed = sys.stream_poll(5_000).expect("poll");
            assert!(!timed.is_empty());
            // Barrier drains whatever remains on both shards.
            sys.stream_flush_all().expect("barrier");
            assert_eq!(sys.stream_pending(), 0);
            let d0 = sys.durability(0);
            assert!(d0.wal_group_records >= 8, "shard 0 absorbed its records in groups");
        }
        let sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(2)).expect("reopen");
        assert_eq!(sys.recovery_reports()[0].wal_applied, 10, "every acked record replays");
        assert_eq!(sys.recovery_reports()[1].wal_applied, 10);
        let reg = sys.shard(0).system().registry();
        let tid = reg.lookup(&canonicalize(&a)).expect("template");
        assert_eq!(reg.count(tid), 10);
    }

    #[test]
    fn begin_refuses_while_a_marker_involves_either_party() {
        use dbaugur::MemVfs;
        let root = PathBuf::from("/marker/overlap");
        let vfs: DynVfs = std::sync::Arc::new(MemVfs::new());
        let mut sys = ShardedDurable::open_with_vfs(&vfs, &root, cfg(4)).expect("open");
        let (a, c) = (template_on(0, 4), template_on(2, 4));
        for ts in 0..8 {
            sys.ingest_record(ts, &a).expect("ingest");
            sys.ingest_record(ts, &c).expect("ingest");
        }
        assert!(sys.begin_migration(0, 1).expect("prepare 0->1"), "marker cut");
        // Any pair sharing a party with the open 0->1 marker refuses.
        assert!(!sys.begin_migration(1, 2).expect("overlap donor"), "1 is receiving");
        assert!(!sys.begin_migration(2, 0).expect("overlap receiver"), "0 is donating");
        // A disjoint pair proceeds.
        assert!(sys.begin_migration(2, 3).expect("disjoint"), "2->3 unaffected");
        let reports = sys.resume_migrations().expect("commit both");
        assert_eq!(reports.len(), 2);
    }
}
