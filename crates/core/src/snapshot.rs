//! Durable, versioned snapshots of the whole pipeline state.
//!
//! A snapshot captures everything [`DbAugur`] holds in memory — the
//! template registry with its observation timestamps, registered
//! resource traces, trained cluster summaries, ensemble weights (via
//! `models::persist`), dynamic ensemble state (forecasting distances,
//! quarantine flags) and per-cluster drift monitors — in one
//! CRC-checksummed file:
//!
//! ```text
//! "DBAG" | version u32 | crc32 u32 | body
//! ```
//!
//! Snapshots are written **atomically** (temp file + fsync + rename via
//! [`dbaugur_trace::wire::atomic_write`]) into numbered *generations*
//! (`snap-000042.dbag`). A crash mid-write leaves the previous
//! generation untouched; a bit-rotted newest generation fails its CRC
//! and recovery falls back to the one before it.
//!
//! Restoring trained models: neural member weights are imported into a
//! freshly built ensemble after a minimal shape-establishing fit on the
//! cluster representative (one epoch, a few examples — the weights are
//! then overwritten wholesale). A snapshot also records the
//! configuration [fingerprint](crate::DbAugurConfig::fingerprint) it
//! was taken under and refuses to load under a mismatched one.

use crate::config::DbAugurConfig;
use crate::drift::DriftMonitor;
use crate::vfs::{real_vfs, DynVfs};
use crate::pipeline::{
    fallback_season, make_ensemble, ClusterStatus, DbAugur, ForecastIndex, TrainedCluster,
};
use crate::sync::RwLock;
use dbaugur_cluster::ClusterSummary;
use dbaugur_models::{EnsembleSnapshot, Forecaster, SeasonalNaive, TimeSensitiveEnsemble};
use dbaugur_sqlproc::TemplateRegistry;
use dbaugur_trace::wire::{crc32, WireError, WireReader, WireWriter};
use dbaugur_trace::WindowSpec;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const SNAP_MAGIC: &[u8; 4] = b"DBAG";
/// Current snapshot format version. Version 2 added the per-cluster
/// model generation and recent-observation buffer (the lifecycle
/// layer's state); version-1 snapshots still load, with both fields
/// defaulting to empty.
pub const SNAP_VERSION: u32 = 2;
/// Oldest snapshot version still accepted by recovery.
pub const SNAP_MIN_VERSION: u32 = 1;
/// Generations retained after a checkpoint (current + one fallback).
pub const KEEP_GENERATIONS: usize = 2;

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// Bad magic, version, checksum, or framing.
    Corrupt(String),
    /// The snapshot was taken under a different configuration
    /// fingerprint; loading it would mis-shape the restored models.
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot file.
        saved: u64,
        /// Fingerprint of the configuration given to `recover`.
        current: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Corrupt(w) => write!(f, "snapshot corrupt: {w}"),
            SnapshotError::ConfigMismatch { saved, current } => write!(
                f,
                "snapshot fingerprint {saved:#x} does not match configuration {current:#x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// Path of generation `gen` inside `dir`.
pub fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen:06}.dbag"))
}

/// Snapshot generations present in `dir`, ascending.
pub fn list_generations(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".dbag")) {
            if let Ok(g) = num.parse::<u64>() {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// [`list_generations`] against an arbitrary vfs.
pub fn list_generations_with(vfs: &DynVfs, dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for path in vfs.list_dir(dir)? {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if let Some(num) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".dbag")) {
            if let Ok(g) = num.parse::<u64>() {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

const KIND_FULL: u8 = 0;
const KIND_FLOOR: u8 = 1;

fn encode_status(s: &ClusterStatus) -> u8 {
    match s {
        ClusterStatus::Healthy => 0,
        ClusterStatus::Degraded => 1,
        ClusterStatus::Failed => 2,
    }
}

fn decode_status(b: u8) -> Result<ClusterStatus, WireError> {
    Ok(match b {
        0 => ClusterStatus::Healthy,
        1 => ClusterStatus::Degraded,
        2 => ClusterStatus::Failed,
        t => return Err(WireError::BadTag(t)),
    })
}

fn encode_ensemble_snapshot(w: &mut WireWriter, snap: &EnsembleSnapshot) {
    w.put_f64(snap.delta);
    w.put_u64(snap.history as u64);
    w.put_u32(snap.gamma.len() as u32);
    for i in 0..snap.gamma.len() {
        w.put_f64(snap.gamma[i]);
        w.put_u8(u8::from(snap.quarantined[i]));
        match &snap.reasons[i] {
            Some(r) => {
                w.put_u8(1);
                w.put_str(r);
            }
            None => w.put_u8(0),
        }
        match &snap.member_blobs[i] {
            Some(b) => {
                w.put_u8(1);
                w.put_bytes(b);
            }
            None => w.put_u8(0),
        }
    }
}

fn decode_ensemble_snapshot(r: &mut WireReader<'_>) -> Result<EnsembleSnapshot, WireError> {
    let delta = r.f64()?;
    let history = r.u64()? as usize;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut snap = EnsembleSnapshot {
        delta,
        history,
        gamma: Vec::with_capacity(n),
        quarantined: Vec::with_capacity(n),
        reasons: Vec::with_capacity(n),
        member_blobs: Vec::with_capacity(n),
    };
    for _ in 0..n {
        snap.gamma.push(r.f64()?);
        snap.quarantined.push(match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(WireError::BadTag(t)),
        });
        snap.reasons.push(match r.u8()? {
            0 => None,
            1 => Some(r.str()?.to_string()),
            t => return Err(WireError::BadTag(t)),
        });
        snap.member_blobs.push(match r.u8()? {
            0 => None,
            1 => Some(r.bytes()?.to_vec()),
            t => return Err(WireError::BadTag(t)),
        });
    }
    Ok(snap)
}

fn encode_summary(w: &mut WireWriter, s: &ClusterSummary) {
    w.put_u64(s.cluster_id as u64);
    let members: Vec<u64> = s.members.iter().map(|&m| m as u64).collect();
    w.put_u64_seq(&members);
    w.put_f64_seq(&s.proportions);
    w.put_f64(s.volume);
    w.put_trace(&s.representative);
}

fn decode_summary(r: &mut WireReader<'_>) -> Result<ClusterSummary, WireError> {
    let cluster_id = r.u64()? as usize;
    let members: Vec<usize> = r.u64_seq()?.into_iter().map(|m| m as usize).collect();
    let proportions = r.f64_seq()?;
    let volume = r.f64()?;
    let representative = r.trace()?;
    if proportions.len() != members.len() {
        return Err(WireError::BadValue("summary proportions misaligned"));
    }
    Ok(ClusterSummary { cluster_id, members, proportions, volume, representative })
}

/// Wire-encode one ensemble as a standalone model blob (kind tag +
/// dynamic snapshot) — the unit the lifecycle registry versions and
/// persists. `&mut` because exporting member weights borrows mutably.
pub fn encode_model_blob(ensemble: &mut TimeSensitiveEnsemble) -> Vec<u8> {
    let mut w = WireWriter::new();
    let kind = if ensemble.name() == "DBAugur-floor" { KIND_FLOOR } else { KIND_FULL };
    w.put_u8(kind);
    encode_ensemble_snapshot(&mut w, &ensemble.export_snapshot());
    w.into_bytes()
}

impl DbAugur {
    /// Export cluster `i`'s serving model as a standalone blob (see
    /// [`encode_model_blob`]); `None` for an unknown index.
    pub fn export_model_blob(&mut self, i: usize) -> Option<Vec<u8>> {
        let c = self.trained.get_mut(i)?;
        Some(encode_model_blob(c.ensemble.get_mut()))
    }

    /// Decode a model blob and install it as cluster `i`'s serving
    /// model at `generation` — the registry reconcile/rollback path.
    /// The blob's weights are imported into a freshly rebuilt ensemble
    /// (same shape-establishing fit recovery uses), then installed with
    /// the usual fold/drift-reset semantics of
    /// [`DbAugur::install_ensemble`]. The incumbent is untouched on any
    /// decode or import failure.
    pub fn install_model_blob(
        &mut self,
        i: usize,
        blob: &[u8],
        generation: u64,
    ) -> Result<(), SnapshotError> {
        let summary_exists = self.trained.get(i).is_some();
        if !summary_exists {
            return Err(SnapshotError::Corrupt(format!("no trained cluster at index {i}")));
        }
        let mut r = WireReader::new(blob);
        let kind = r.u8()?;
        let esnap = decode_ensemble_snapshot(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes in model blob".into()));
        }
        let spec = WindowSpec::new(self.cfg.history, self.cfg.horizon);
        let summary = self.trained[i].summary.clone();
        let mut ensemble = match kind {
            KIND_FULL => rebuild_ensemble(&self.cfg, &summary, spec),
            KIND_FLOOR => rebuild_floor(&self.cfg, &summary, spec),
            t => return Err(WireError::BadTag(t).into()),
        };
        ensemble.import_snapshot(&esnap).map_err(SnapshotError::Corrupt)?;
        self.install_ensemble(i, ensemble, generation);
        Ok(())
    }

    /// Serialize the full pipeline state (header + CRC included).
    /// `&mut` because exporting member weights borrows them mutably.
    pub fn encode_snapshot(&mut self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.cfg.fingerprint());
        w.put_u64(self.applied_seq);
        w.put_u64(self.skipped_log_lines as u64);
        self.registry.encode_into(&mut w);
        w.put_u32(self.resources.len() as u32);
        for t in &self.resources {
            w.put_trace(t);
        }
        w.put_u32(self.trace_names.len() as u32);
        for n in &self.trace_names {
            w.put_str(n);
        }
        w.put_u32(self.trained.len() as u32);
        for cluster in &mut self.trained {
            encode_summary(&mut w, &cluster.summary);
            w.put_u8(encode_status(&cluster.status));
            let ensemble = cluster.ensemble.get_mut();
            let kind =
                if ensemble.name() == "DBAugur-floor" { KIND_FLOOR } else { KIND_FULL };
            w.put_u8(kind);
            encode_ensemble_snapshot(&mut w, &ensemble.export_snapshot());
            cluster.drift.get_mut().encode_into(&mut w);
            w.put_u64(cluster.generation);
            w.put_f64_seq(cluster.recent.get_mut());
        }
        let body = w.into_bytes();
        let mut out = Vec::with_capacity(12 + body.len());
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Rebuild a pipeline from snapshot bytes under `cfg`.
    ///
    /// Ensembles are reconstructed by a minimal shape-establishing fit
    /// on each cluster representative, after which the saved weights
    /// and dynamic state overwrite the freshly fitted ones. A member
    /// whose saved weights fail to import is quarantined, never served
    /// silently wrong.
    pub fn decode_snapshot(cfg: DbAugurConfig, bytes: &[u8]) -> Result<DbAugur, SnapshotError> {
        if bytes.len() < 12 || &bytes[..4] != SNAP_MAGIC {
            return Err(SnapshotError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if !(SNAP_MIN_VERSION..=SNAP_VERSION).contains(&version) {
            return Err(SnapshotError::Corrupt(format!("unsupported version {version}")));
        }
        let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let body = &bytes[12..];
        if crc32(body) != crc {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }
        let mut r = WireReader::new(body);
        let saved = r.u64()?;
        let current = cfg.fingerprint();
        if saved != current {
            return Err(SnapshotError::ConfigMismatch { saved, current });
        }
        let applied_seq = r.u64()?;
        let skipped_log_lines = r.u64()? as usize;
        let registry = TemplateRegistry::decode_from(&mut r)?;
        let n_res = r.u32()? as usize;
        if n_res > r.remaining() {
            return Err(WireError::Truncated.into());
        }
        let mut resources = Vec::with_capacity(n_res);
        for _ in 0..n_res {
            resources.push(r.trace()?);
        }
        let n_names = r.u32()? as usize;
        if n_names > r.remaining() {
            return Err(WireError::Truncated.into());
        }
        let mut trace_names = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            trace_names.push(r.str()?.to_string());
        }
        let n_clusters = r.u32()? as usize;
        if n_clusters > r.remaining() {
            return Err(WireError::Truncated.into());
        }
        let spec = WindowSpec::new(cfg.history, cfg.horizon);
        let mut trained = Vec::with_capacity(n_clusters);
        for _ in 0..n_clusters {
            let summary = decode_summary(&mut r)?;
            let status = decode_status(r.u8()?)?;
            let kind = r.u8()?;
            let esnap = decode_ensemble_snapshot(&mut r)?;
            let drift = DriftMonitor::decode_from(cfg.drift.clone(), &mut r)?;
            // Version 1 predates the lifecycle layer: no generation or
            // recent-observation buffer on disk.
            let (generation, recent) = if version >= 2 {
                (r.u64()?, r.f64_seq()?)
            } else {
                (0, Vec::new())
            };
            let mut ensemble = match kind {
                KIND_FULL => rebuild_ensemble(&cfg, &summary, spec),
                KIND_FLOOR => rebuild_floor(&cfg, &summary, spec),
                t => return Err(WireError::BadTag(t).into()),
            };
            ensemble
                .import_snapshot(&esnap)
                .map_err(SnapshotError::Corrupt)?;
            trained.push(TrainedCluster {
                summary,
                status,
                ensemble: RwLock::new(ensemble),
                serving: RwLock::new(None),
                drift: RwLock::new(drift),
                recent: RwLock::new(recent),
                recent_cap: cfg.recent_cap,
                generation,
            });
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes".into()));
        }
        let mut sys = DbAugur::new(cfg);
        sys.registry = registry;
        sys.resources = resources;
        sys.index = ForecastIndex::build(&trace_names, &trained);
        sys.trace_names = trace_names;
        sys.skipped_log_lines = skipped_log_lines;
        sys.applied_seq = applied_seq;
        sys.trained = trained;
        Ok(sys)
    }

    /// Write the next snapshot generation into `dir` atomically and
    /// prune old generations down to [`KEEP_GENERATIONS`]. Returns the
    /// generation number written.
    pub fn checkpoint(&mut self, dir: &Path) -> io::Result<u64> {
        self.checkpoint_with(&real_vfs(), dir)
    }

    /// [`DbAugur::checkpoint`] against an arbitrary vfs — the seam
    /// fault-injection soaks use to drive checkpoints through a
    /// [`crate::vfs::FaultyVfs`].
    pub fn checkpoint_with(&mut self, vfs: &DynVfs, dir: &Path) -> io::Result<u64> {
        vfs.create_dir_all(dir)?;
        let gens = list_generations_with(vfs, dir)?;
        let gen = gens.last().copied().unwrap_or(0) + 1;
        let bytes = self.encode_snapshot();
        vfs.write_atomic(&snapshot_path(dir, gen), &bytes)?;
        // Prune only after the new generation is durable.
        let keep_from = gens.len().saturating_sub(KEEP_GENERATIONS - 1);
        for &old in &gens[..keep_from] {
            vfs.remove_file(&snapshot_path(dir, old)).ok();
        }
        Ok(gen)
    }

    /// Restore the newest loadable snapshot generation from `dir` and
    /// replay the write-ahead log on top (entries beyond the snapshot's
    /// applied sequence). With no usable snapshot the pipeline starts
    /// empty and the whole WAL replays.
    pub fn recover(dir: &Path, cfg: DbAugurConfig) -> Result<(DbAugur, RecoveryReport), SnapshotError> {
        DbAugur::recover_impl(None, dir, cfg)
    }

    /// [`DbAugur::recover`] against an arbitrary vfs (snapshot reads and
    /// WAL replay both go through it).
    pub fn recover_with(
        vfs: &DynVfs,
        dir: &Path,
        cfg: DbAugurConfig,
    ) -> Result<(DbAugur, RecoveryReport), SnapshotError> {
        DbAugur::recover_impl(Some(vfs), dir, cfg)
    }

    fn recover_impl(
        vfs: Option<&DynVfs>,
        dir: &Path,
        cfg: DbAugurConfig,
    ) -> Result<(DbAugur, RecoveryReport), SnapshotError> {
        let mut report = RecoveryReport::default();
        let mut sys = None;
        let mut gens = match vfs {
            Some(vfs) => list_generations_with(vfs, dir)?,
            None => list_generations(dir)?,
        };
        gens.reverse();
        for gen in gens {
            let bytes = match vfs {
                Some(vfs) => vfs.read(&snapshot_path(dir, gen)),
                None => std::fs::read(snapshot_path(dir, gen)),
            };
            match bytes
                .map_err(SnapshotError::from)
                .and_then(|bytes| DbAugur::decode_snapshot(cfg.clone(), &bytes))
            {
                Ok(s) => {
                    report.generation = Some(gen);
                    sys = Some(s);
                    break;
                }
                Err(SnapshotError::ConfigMismatch { saved, current }) => {
                    // Not corruption — refuse loudly rather than fall
                    // back to an older (equally mismatched) generation.
                    return Err(SnapshotError::ConfigMismatch { saved, current });
                }
                Err(_) => report.corrupted_generations += 1,
            }
        }
        let mut sys = sys.unwrap_or_else(|| DbAugur::new(cfg));
        // Stream the replay: one WAL entry is resident at a time, so
        // recovery memory is bounded by the snapshot, not the log.
        let mut wal_applied = 0usize;
        let mut wal_skipped = 0usize;
        let wal_path = dir.join(crate::durable::WAL_FILE);
        let mut sink = |entry: crate::wal::WalEntry| {
            if entry.seq() <= sys.applied_seq {
                wal_skipped += 1;
                return;
            }
            let seq = entry.seq();
            match entry {
                crate::wal::WalEntry::Record { ts_secs, sql, .. } => {
                    sys.ingest_record(ts_secs, &sql);
                }
                crate::wal::WalEntry::Resource { trace, .. } => {
                    sys.add_resource_trace(trace);
                }
            }
            sys.applied_seq = seq;
            wal_applied += 1;
        };
        let sum = match vfs {
            Some(vfs) => crate::wal::scan_vfs_with(vfs, &wal_path, &mut sink)?,
            None => crate::wal::scan_file_with(&wal_path, &mut sink)?,
        };
        drop(sink);
        report.wal_torn = sum.torn;
        report.wal_applied = wal_applied;
        report.wal_skipped = wal_skipped;
        // Surface what recovery had to salvage as structured counters —
        // falling back past a corrupt generation or truncating a torn
        // WAL tail must be observable, never silent.
        sys.durability.snapshot_fallbacks += report.corrupted_generations as u64;
        sys.durability.wal_torn_salvages += u64::from(report.wal_torn);
        sys.durability.wal_replayed += report.wal_applied as u64;
        Ok((sys, report))
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Snapshot generation restored (`None` = started empty).
    pub generation: Option<u64>,
    /// Newer generations skipped because they failed to load.
    pub corrupted_generations: usize,
    /// Write-ahead-log entries replayed on top of the snapshot.
    pub wal_applied: usize,
    /// Entries already covered by the snapshot (idempotent skip).
    pub wal_skipped: usize,
    /// True when the log ended in a torn or corrupt record.
    pub wal_torn: bool,
}

/// Rebuild the standard per-cluster ensemble with a minimal
/// shape-establishing fit (the imported snapshot then overwrites every
/// weight, so the budget here is irrelevant to quality).
fn rebuild_ensemble(
    cfg: &DbAugurConfig,
    summary: &ClusterSummary,
    spec: WindowSpec,
) -> TimeSensitiveEnsemble {
    let mut cheap = cfg.clone();
    cheap.epochs = 1;
    cheap.max_examples = cheap.max_examples.min(32);
    let mut ensemble = make_ensemble(&cheap);
    ensemble.fit(summary.representative.values(), spec);
    ensemble
}

/// Rebuild the seasonal-naive floor that `train` demotes panicked
/// clusters to; its fit is deterministic, so refitting reproduces the
/// pre-crash model exactly.
fn rebuild_floor(
    cfg: &DbAugurConfig,
    summary: &ClusterSummary,
    spec: WindowSpec,
) -> TimeSensitiveEnsemble {
    let mut floor = TimeSensitiveEnsemble::new(
        "DBAugur-floor",
        vec![Box::new(SeasonalNaive::new(fallback_season(cfg))) as Box<dyn Forecaster>],
        cfg.delta,
    );
    floor.fit(summary.representative.values(), spec);
    floor
}
