//! Set-up: everything that has to exist before the first timed pass —
//! the seeded statement pool and its routing table, and the durable
//! stores on the real filesystem with the periodic history streamed in:
//! the small companion one every run has, and the workload's own when
//! the workload is about models. A serving workload's own store is also
//! trained here, as the issue lays out. `setup_s` times one complete
//! pass of this.

use crate::gen::{stream_pool, Periodic};
use crate::plan::{Plan, Stage};
use crate::spans::Tracer;
use dbaugur::{DynVfs, GroupCommitConfig, MemVfs};
use dbaugur_shard::ShardedDurable;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Shards of every ingest-stage store (the issue's 2-shard front).
pub const INGEST_SHARDS: usize = 2;

/// Pre-generated statements the ingest stage cycles through, so the
/// generator is not in the timed loop.
pub struct Pool {
    pub statements: Vec<String>,
    /// Owning shard of `statements[i]` in a fresh 2-shard store.
    pub shard: Vec<u8>,
}

/// A durable store with the periodic history and holdout loaded.
pub struct Model {
    pub periodic: Periodic,
    /// Owning shard of each periodic template in `store`.
    pub template_shard: Vec<usize>,
    pub store: ShardedDurable,
    pub dir: PathBuf,
    /// Whether set-up already trained the store.
    pub trained: bool,
}

pub struct Inputs {
    /// The ingest stage's pool, at the size of the plan that runs it.
    pub pool: Pool,
    pub companion: Model,
    /// The workload's own store, when it is about models.
    pub own: Option<Model>,
}

/// A scratch directory under the working directory (the benchmark may
/// not write outside its checkout), removed when dropped.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn create() -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Tests run several benchmark runs in one process.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last run.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

pub fn mem_vfs() -> DynVfs {
    Arc::new(MemVfs::new())
}

/// Stream `events` into `store` through the group-commit path with the
/// routing decision supplied, then barrier. Used for history and WAL
/// tails, which are loaded, not measured: the batches are large so the
/// load is not one fsync per 64 records.
pub fn load_events(
    store: &mut ShardedDurable,
    periodic: &Periodic,
    template_shard: &[usize],
    from_bin: u64,
    to_bin: u64,
) -> std::io::Result<usize> {
    let mut n = 0usize;
    for bin in from_bin..to_bin {
        for (t, &shard) in template_shard.iter().enumerate() {
            for (ts, sql) in periodic.bin_events(t, bin) {
                store.stream_submit_to(shard, n as u64, ts, &sql)?;
                n += 1;
            }
        }
    }
    store.stream_flush_all()?;
    Ok(n)
}

fn pool(plan: &Plan, seed: u64) -> Result<Pool, String> {
    let statements = stream_pool(seed, plan.shapes, plan.pool_len);
    // statements[i] has the shape at position i % shapes of the permutation,
    // so one route per shape covers the whole pool.
    let router = ShardedDurable::open_with_vfs(&mem_vfs(), Path::new("/router"), plan.ingest_cfg())
        .map_err(|e| format!("open router store: {e}"))?;
    let shape_shard: Vec<u8> = statements
        .iter()
        .take(plan.shapes)
        .map(|sql| router.route(sql) as u8)
        .collect();
    let shard = (0..statements.len())
        .map(|i| shape_shard[i % shape_shard.len()])
        .collect();
    Ok(Pool { statements, shard })
}

fn model(plan: &Plan, periodic: Periodic, dir: &Path) -> Result<Model, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ShardedDurable::open(dir, plan.db_cfg())
        .map_err(|e| format!("open store at {}: {e}", dir.display()))?;
    let template_shard: Vec<usize> = (0..plan.templates)
        .map(|t| store.route(&periodic.sql(t, 0)))
        .collect();
    store.stream_enable(GroupCommitConfig {
        max_records: 8_192,
        max_delay_us: u64::MAX,
    });
    load_events(
        &mut store,
        &periodic,
        &template_shard,
        0,
        plan.history_bins + plan.holdout_bins,
    )
    .map_err(|e| format!("load history: {e}"))?;
    Ok(Model {
        periodic,
        template_shard,
        store,
        dir: dir.to_path_buf(),
        trained: false,
    })
}

/// One complete set-up under `root`.
pub fn set_up(plan: &Plan, companion: &Plan, seed: u64, root: &Path) -> Result<Inputs, String> {
    let ingest_plan = if plan.own == Stage::Ingest {
        plan
    } else {
        companion
    };
    let own = match plan.own {
        Stage::Ingest => None,
        Stage::Train => Some(model(plan, Periodic::new(seed), &root.join("own-store"))?),
        Stage::Serve => {
            let mut m = model(plan, Periodic::new(seed), &root.join("own-store"))?;
            crate::train::pass(plan, &mut m.store, &mut Tracer::new(false), 0)?;
            m.trained = true;
            Some(m)
        }
    };
    Ok(Inputs {
        pool: pool(ingest_plan, seed)?,
        companion: model(
            companion,
            Periodic::with_fixed_arrivals(seed),
            &root.join("companion-store"),
        )?,
        own,
    })
}
