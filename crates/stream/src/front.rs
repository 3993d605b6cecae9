//! [`StreamFront`]: the per-event ingest path, from a SQL string to an
//! acked, forecast-visible observation.
//!
//! # Event lifecycle
//!
//! ```text
//! ingest_event(now, ts, sql)
//!   ├─ StatementHandle::of(sql)            fingerprint — the one lex on a cache hit
//!   ├─ route cache: fingerprint ──► shard
//!   │    └─ miss: ShardedDurable::route_parsed   canonical form kept in the handle
//!   └─ ShardedDurable::stream_submit_parsed(shard, …, sql, handle)
//!        └─ GroupCommitBuffer (per shard)  the one owned copy of the text, handle beside it
//!             └─ fsync on N records / T µs ──► ACK
//!                  └─ TemplateRegistry::observe_parsed   spends the handle: cache probe by
//!                                                        fingerprint, canonical reused on a miss
//! maintain(now_secs)
//!   ├─ close arrival bins over the templates the registries report
//!   │  touched (plus those holding future-stamped events)
//!   │     ├─► OnlineDescender::assign (windows falling due, staged)
//!   │     └─► TrainedCluster::observe (Eqn. 7/8 feedback)
//!   └─ OnlineDescender::maintain(budget)   (deferred merges / rebuilds)
//! ```
//!
//! Two invariants hold on this path. **Parse once:** an event is
//! fingerprinted exactly once (here) and canonicalized at most once
//! (by the router on a route-cache miss, else by the registry on a
//! fingerprint-cache miss, else never); its text is copied exactly
//! once, into the group-commit buffer. **Close in O(touched):** closing
//! an arrival bin visits only templates that can have a non-zero count
//! in it; idle bins are implicit zeros and an all-zero window is never
//! staged.
//!
//! A record is **acked** — durable and visible to forecasts — only once
//! a flush report covers it. A crash before the group-commit fsync
//! loses the buffered tail silently, exactly like an unacknowledged
//! bulk ingest; nothing is ever acked then lost.

use dbaugur::{DbAugurConfig, FlushReport, GroupCommitConfig};
use dbaugur_cluster::{DescenderParams, OnlineDescender};
use dbaugur_dtw::DtwDistance;
use dbaugur_serve::AdmissionDecision;
use dbaugur_shard::ShardedDurable;
use dbaugur_sqlproc::{StatementHandle, TemplateId};
use dbaugur_trace::Trace;
use std::collections::HashMap;
use std::io;

/// Tuning for the streaming front door.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Per-shard group-commit coalescing policy.
    pub group_commit: GroupCommitConfig,
    /// Staged cluster points folded per [`StreamFront::maintain`] call.
    pub maintain_budget: usize,
    /// Arrival-rate bin width in seconds (the forecasting interval).
    pub bin_secs: u64,
    /// Bins per online-clustering window (the history length `T`).
    pub window: usize,
    /// Bound on the fingerprint → shard route cache.
    pub route_cache_cap: usize,
    /// Density parameters for the online clusterer.
    pub clustering: DescenderParams,
    /// Sakoe–Chiba half-width for the online clusterer's DTW.
    pub dtw_window: usize,
}

impl StreamConfig {
    /// Derive streaming parameters from the pipeline configuration: bins
    /// follow the forecasting interval, windows the history length, and
    /// clustering the density parameters the batch path uses.
    pub fn from_db(cfg: &DbAugurConfig) -> Self {
        Self {
            group_commit: GroupCommitConfig::default(),
            maintain_budget: 8,
            bin_secs: cfg.interval_secs.max(1),
            window: cfg.history.max(2),
            route_cache_cap: 8192,
            clustering: cfg.clustering,
            dtw_window: cfg.dtw_window,
        }
    }
}

/// Monotonic counters for the streaming path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Events handed to a shard's group-commit buffer.
    pub submitted: u64,
    /// Events refused at the front door. Nothing on this path refuses:
    /// every event goes straight to its shard's buffer, whose size the
    /// group-commit policy bounds. Always 0; kept for its readers.
    pub shed: u64,
    /// Group-commit flushes observed (coalesced, timer, and forced).
    pub flushes: u64,
    /// Records covered by those flushes (each is now acked).
    pub flushed_records: u64,
    /// Shard routes answered by the fingerprint cache.
    pub route_cache_hits: u64,
    /// Shard routes that fell back to full canonicalization.
    pub route_cache_misses: u64,
    /// Arrival bins closed by maintenance.
    pub bins_closed: u64,
    /// Windows with at least one non-zero bin staged into the online
    /// clusterer.
    pub cluster_points: u64,
    /// Staged points folded through full cluster admission.
    pub cluster_folds: u64,
    /// Cluster merges performed while folding.
    pub cluster_merges: u64,
    /// Per-bin ensemble feedback observations delivered.
    pub feedback_observations: u64,
}

/// What one [`StreamFront::maintain`] tick did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintainReport {
    /// Arrival bins closed this tick (bounded per call).
    pub bins_closed: usize,
    /// Windows staged into the online clusterer.
    pub assigned: usize,
    /// Staged points folded through full admission.
    pub folded: usize,
    /// Cluster merges performed while folding.
    pub merges: usize,
    /// Staged points still deferred after the budget.
    pub staged_remaining: usize,
    /// Ensemble feedback observations delivered.
    pub feedback: usize,
}

/// How many arrival bins one maintenance tick may close; backlogs
/// (e.g. after an idle stretch) drain across ticks so maintenance never
/// stalls admission.
const MAX_BINS_PER_TICK: usize = 64;

/// One shard's rolling arrival windows, kept sparse. A template's
/// windows are the consecutive `window`-bin stretches counted from the
/// first bin close that found it in the registry; only a window that
/// has seen a non-zero bin is materialized, and every bin nobody
/// visited is an implicit zero.
#[derive(Default)]
struct ShardWindows {
    /// `born[id]`: index of the first bin close at which template `id`
    /// existed — the origin its windows are counted from.
    born: Vec<u64>,
    /// Templates holding observations stamped at or past the end of the
    /// last closed bin: they can count in a later bin without being
    /// touched again, so they are revisited until their bins close.
    ahead: Vec<TemplateId>,
    /// Partly filled windows with at least one non-zero bin, by
    /// template id: the `(bin offset, count)` of each non-zero bin so
    /// far, so a window costs what arrived in it, not its length.
    open: HashMap<u32, Vec<(u32, f64)>>,
    /// `due[k % window]`: the open windows whose last bin is close `k`.
    due: Vec<Vec<u32>>,
}

/// The streaming front door: cached routing, group-committed
/// durability, amortized clustering and ensemble feedback over one
/// [`ShardedDurable`] store.
pub struct StreamFront {
    store: ShardedDurable,
    cfg: StreamConfig,
    clusterer: OnlineDescender<DtwDistance>,
    /// statement fingerprint → owning shard. Fingerprints are finer
    /// than canonical templates, so two fingerprints may map to the
    /// same shard — never to different shards for one template.
    /// Overrides only change through [`store_mut`](Self::store_mut),
    /// which drops the cache.
    route_cache: HashMap<u64, usize>,
    /// Rolling per-template bin counts, one entry per shard.
    windows: Vec<ShardWindows>,
    /// Start of the oldest arrival bin not yet closed (lazy-initialized
    /// from the first maintenance tick's clock).
    bin_floor: Option<u64>,
    stats: StreamStats,
}

impl StreamFront {
    /// Wrap `store`, switching every shard to group-committed streaming.
    pub fn new(mut store: ShardedDurable, cfg: StreamConfig) -> Self {
        assert!(cfg.bin_secs > 0, "bin width must be positive");
        assert!(cfg.window >= 2, "cluster windows need at least two bins");
        store.stream_enable(cfg.group_commit);
        let clusterer =
            OnlineDescender::new(cfg.clustering, DtwDistance::new(cfg.dtw_window));
        let windows = (0..store.num_shards())
            .map(|_| ShardWindows { due: vec![Vec::new(); cfg.window], ..ShardWindows::default() })
            .collect();
        Self {
            store,
            cfg,
            clusterer,
            route_cache: HashMap::new(),
            windows,
            bin_floor: None,
            stats: StreamStats::default(),
        }
    }

    /// The underlying sharded store (read access).
    pub fn store(&self) -> &ShardedDurable {
        &self.store
    }

    /// Mutable access to the store. Drops the route cache: direct
    /// operations (migrations, manual ingest) may move templates between
    /// shards in ways the cache cannot see.
    pub fn store_mut(&mut self) -> &mut ShardedDurable {
        self.route_cache.clear();
        &mut self.store
    }

    /// Tear down the front door and hand the store back, flushing any
    /// buffered records first so nothing submitted-and-reported is lost.
    pub fn into_store(mut self) -> io::Result<ShardedDurable> {
        self.flush()?;
        Ok(self.store)
    }

    /// Streaming counters so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The online clusterer (for inspection; `clusters()` needs `&mut`
    /// for union-find path compression).
    pub fn clusterer_mut(&mut self) -> &mut OnlineDescender<DtwDistance> {
        &mut self.clusterer
    }

    /// Take one event: fingerprint it, route it (cache, else the
    /// canonicalizer) and hand it with its parse results to the owning
    /// shard's group-commit buffer. Always `Admitted` — the buffer is
    /// bounded by its flush policy, not by refusing — and an `Admitted`
    /// event is buffered (and possibly already flushed); it is acked
    /// only once a flush covers it. On a failed flush the records of
    /// that batch are already dropped unacked by the durable layer
    /// (same contract as a bulk ingest whose retries exhausted); the
    /// error propagates without requeue.
    pub fn ingest_event(
        &mut self,
        now_us: u64,
        ts_secs: u64,
        sql: &str,
    ) -> io::Result<AdmissionDecision> {
        let mut stmt = StatementHandle::of(sql);
        let shard = self.route_cached(sql, &mut stmt);
        let report = self.store.stream_submit_parsed(shard, now_us, ts_secs, sql, stmt)?;
        self.stats.submitted += 1;
        self.count_flushes(report.iter());
        Ok(AdmissionDecision::Admitted)
    }

    /// Flush any shard whose oldest buffered record aged past the
    /// group-commit delay. Call on every tick of the caller's clock.
    pub fn poll(&mut self, now_us: u64) -> io::Result<Vec<(usize, FlushReport)>> {
        let flushed = self.store.stream_poll(now_us)?;
        self.count_flushes(flushed.iter().map(|(_, r)| r));
        Ok(flushed)
    }

    /// Barrier: force-flush every shard. After this returns, every
    /// previously admitted event is acked (or an error reported which
    /// batch was dropped).
    pub fn flush(&mut self) -> io::Result<Vec<(usize, FlushReport)>> {
        let flushed = self.store.stream_flush_all()?;
        self.count_flushes(flushed.iter().map(|(_, r)| r));
        Ok(flushed)
    }

    /// Records buffered but not yet flushed.
    pub fn unacked(&self) -> usize {
        self.store.stream_pending()
    }

    /// Budgeted maintenance: close arrival bins up to `now_secs`
    /// (staging windows that fall due into the online clusterer and
    /// feeding trained ensembles), then fold a bounded number of staged
    /// cluster points. Cheap when nothing is due; never blocks
    /// admission on index restructuring.
    pub fn maintain(&mut self, now_secs: u64) -> MaintainReport {
        let mut report = MaintainReport::default();
        let bin = self.cfg.bin_secs;
        let mut floor = *self.bin_floor.get_or_insert(now_secs - now_secs % bin);
        while floor + bin <= now_secs && report.bins_closed < MAX_BINS_PER_TICK {
            self.close_bin(floor, floor + bin, &mut report);
            floor += bin;
            report.bins_closed += 1;
            self.stats.bins_closed += 1;
        }
        self.bin_floor = Some(floor);
        let folded = self.clusterer.maintain(self.cfg.maintain_budget);
        report.folded = folded.folded;
        report.merges = folded.merges;
        report.staged_remaining = folded.remaining;
        self.stats.cluster_folds += folded.folded as u64;
        self.stats.cluster_merges += folded.merges as u64;
        report
    }

    /// Route via the fingerprint cache; canonicalize only on a miss,
    /// leaving the canonical form in `stmt` for the registry.
    fn route_cached(&mut self, sql: &str, stmt: &mut StatementHandle) -> usize {
        let fp = stmt.fingerprint();
        if let Some(&shard) = self.route_cache.get(&fp) {
            self.stats.route_cache_hits += 1;
            return shard;
        }
        self.stats.route_cache_misses += 1;
        let shard = self.store.route_parsed(sql, stmt);
        if self.route_cache.len() >= self.cfg.route_cache_cap {
            self.route_cache.clear();
        }
        self.route_cache.insert(fp, shard);
        shard
    }

    fn count_flushes<'a>(&mut self, flushed: impl Iterator<Item = &'a FlushReport>) {
        for r in flushed {
            self.stats.flushes += 1;
            self.stats.flushed_records += r.records as u64;
        }
    }

    /// Close one arrival bin `[start, end)`: write its count into the
    /// rolling window of every template that has one, stage the windows
    /// whose last bin this is into the online clusterer in `(shard,
    /// id)` order, and feed each trained cluster's ensemble the bin's
    /// representative-level actual (members' mean — the representative
    /// is the member average).
    ///
    /// Only templates that can have a non-zero count are visited: those
    /// the registry reports touched since the previous close, plus
    /// those still holding observations stamped past it.
    fn close_bin(&mut self, start: u64, end: u64, report: &mut MaintainReport) {
        let close = self.stats.bins_closed;
        let width = self.cfg.window as u64;
        for shard in 0..self.store.num_shards() {
            let win = &mut self.windows[shard];
            let mut visit = std::mem::take(&mut win.ahead);
            visit.extend(self.store.shard_mut(shard).system_mut().take_touched_templates());
            visit.sort_unstable();
            visit.dedup();
            let sys = self.store.shard(shard).system();
            let registry = sys.registry();
            win.born.resize(registry.num_templates(), close);
            for id in visit {
                let n = registry.arrivals_between(id, start, end);
                if n > 0 {
                    let at = (close - win.born[id.0 as usize]) % width;
                    let window = win.open.entry(id.0).or_insert_with(|| {
                        win.due[((close + width - 1 - at) % width) as usize].push(id.0);
                        Vec::new()
                    });
                    window.push((at as u32, n as f64));
                }
                if registry.last_seen(id) >= end {
                    win.ahead.push(id);
                }
            }
            let mut due = std::mem::take(&mut win.due[(close % width) as usize]);
            due.sort_unstable();
            for id in due {
                let mut values = vec![0.0; width as usize];
                for (at, n) in win.open.remove(&id).expect("a due window is open") {
                    values[at as usize] = n;
                }
                let trace = Trace::query(format!("s{shard}:template:{id}"), values);
                self.clusterer.assign(&trace);
                self.stats.cluster_points += 1;
                report.assigned += 1;
            }
            for (ci, cluster) in sys.clusters().iter().enumerate() {
                let templates = sys.cluster_templates(ci);
                if !templates.is_empty() {
                    let sum: f64 = templates
                        .iter()
                        .map(|&id| registry.arrivals_between(id, start, end) as f64)
                        .sum();
                    cluster.observe(sys.config().history, sum / templates.len() as f64);
                    self.stats.feedback_observations += 1;
                    report.feedback += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbaugur::{DynVfs, MemVfs};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn db_cfg(shards: usize) -> DbAugurConfig {
        let mut cfg = DbAugurConfig {
            shards,
            interval_secs: 60,
            history: 4,
            horizon: 1,
            top_k: 2,
            ..DbAugurConfig::default()
        };
        cfg.clustering.min_size = 1;
        cfg.fast();
        cfg
    }

    fn front_on(vfs: &DynVfs, shards: usize) -> StreamFront {
        let store =
            ShardedDurable::open_with_vfs(vfs, &PathBuf::from("/front"), db_cfg(shards))
                .expect("open");
        let mut cfg = StreamConfig::from_db(&db_cfg(shards));
        cfg.group_commit = GroupCommitConfig { max_records: 8, max_delay_us: 2_000 };
        StreamFront::new(store, cfg)
    }

    #[test]
    fn events_coalesce_ack_and_survive_reopen() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut front = front_on(&vfs, 2);
        for i in 0..40u64 {
            let sql = format!("SELECT * FROM t{} WHERE id = {i}", i % 4);
            let decision = front.ingest_event(i * 10, i, &sql).expect("ingest");
            assert!(decision.is_admitted());
        }
        front.flush().expect("barrier");
        let stats = front.stats();
        assert_eq!(stats.submitted, 40);
        assert_eq!(stats.flushed_records, 40, "every admitted event acked");
        assert!(
            stats.flushes < 40,
            "coalescing means far fewer fsyncs than events: {}",
            stats.flushes
        );
        assert!(stats.route_cache_hits >= 36, "4 shapes, 40 events: hot routes cached");
        assert_eq!(front.unacked(), 0);
        let store = front.into_store().expect("teardown");
        drop(store);
        let reopened =
            ShardedDurable::open_with_vfs(&vfs, &PathBuf::from("/front"), db_cfg(2))
                .expect("reopen");
        let replayed: usize =
            reopened.recovery_reports().iter().map(|r| r.wal_applied).sum();
        assert_eq!(replayed, 40, "all acked records replay after a crash");
    }

    #[test]
    fn timer_poll_acks_stragglers() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut front = front_on(&vfs, 1);
        front.ingest_event(100, 1, "SELECT a FROM t").expect("ingest");
        assert_eq!(front.unacked(), 1);
        assert!(front.poll(500).expect("early poll").is_empty(), "delay not reached");
        let flushed = front.poll(3_000).expect("due poll");
        assert_eq!(flushed.len(), 1);
        assert_eq!(front.unacked(), 0);
    }

    #[test]
    fn maintain_closes_bins_stages_windows_and_stays_budgeted() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut front = front_on(&vfs, 1);
        // Two distinct shapes, steady cadence across 10 minutes.
        for minute in 0..10u64 {
            for q in 0..(3 + minute % 3) {
                let ts = minute * 60 + q;
                front
                    .ingest_event(ts * 1_000_000, ts, "SELECT a FROM hot WHERE id = 7")
                    .expect("ingest");
                front
                    .ingest_event(ts * 1_000_000, ts, "SELECT b FROM cold WHERE id = 9")
                    .expect("ingest");
            }
            front.flush().expect("barrier");
            let report = front.maintain(minute * 60);
            assert!(report.bins_closed <= MAX_BINS_PER_TICK);
        }
        let report = front.maintain(10 * 60);
        let stats = front.stats();
        assert!(stats.bins_closed >= 9, "one bin per elapsed minute: {stats:?}");
        // history=4 → windows of 4 bins; 2 templates × ≥2 full windows.
        assert!(stats.cluster_points >= 4, "windows staged: {stats:?}");
        assert!(
            stats.cluster_folds + report.staged_remaining as u64 >= stats.cluster_points,
            "every staged point is folded or still pending"
        );
        // An idle tick with no elapsed bin is (nearly) free.
        let idle = front.maintain(10 * 60);
        assert_eq!(idle.bins_closed, 0);
    }

    #[test]
    fn bin_feedback_reaches_trained_ensembles() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut front = front_on(&vfs, 1);
        front.maintain(0); // pin the bin floor at the stream's epoch
        // Enough history for training: 8 bins of a hot template.
        for minute in 0..8u64 {
            for q in 0..(4 + minute % 4) {
                let ts = minute * 60 + q;
                front
                    .ingest_event(ts * 1_000_000, ts, "SELECT a FROM bus WHERE route = 5")
                    .expect("ingest");
            }
        }
        front.flush().expect("barrier");
        front
            .store_mut()
            .shard_mut(0)
            .system_mut()
            .train(0, 8 * 60)
            .expect("train");
        assert!(!front.store().shard(0).system().clusters().is_empty());
        let gamma_before: Vec<f64> = front.store().shard(0).system().clusters()
            [0]
        .weights();
        // Stream two more minutes, then close those bins.
        for minute in 8..10u64 {
            for q in 0..9 {
                let ts = minute * 60 + q;
                front
                    .ingest_event(ts * 1_000_000, ts, "SELECT a FROM bus WHERE route = 5")
                    .expect("ingest");
            }
        }
        front.flush().expect("barrier");
        let report = front.maintain(10 * 60);
        assert!(report.feedback >= 1, "closed bins fed the ensemble: {report:?}");
        assert!(front.stats().feedback_observations >= 1);
        // Weights stay a valid distribution after incremental updates.
        let weights = front.store().shard(0).system().clusters()[0].weights();
        let sum: f64 = weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to 1: {weights:?}");
        let _ = gamma_before;
    }

    #[test]
    fn route_cache_survives_and_invalidates_on_override_change() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut front = front_on(&vfs, 2);
        for i in 0..20u64 {
            front.ingest_event(i, i, "SELECT a FROM t WHERE id = 1").expect("ingest");
        }
        front.flush().expect("barrier");
        let hits = front.stats().route_cache_hits;
        assert!(hits >= 19);
        // A migration changes overrides; the cached route must not go
        // stale. The only way to reach the overrides is store_mut(),
        // which drops the cache.
        let sql = "SELECT a FROM t WHERE id = 1";
        let home = front.store().route(sql);
        let away = 1 - home;
        let overrides_at_home = front.store().overrides().len();
        front.store_mut().migrate(home, away).expect("migrate");
        front.ingest_event(21, 21, sql).expect("ingest");
        front.flush().expect("barrier");
        assert_eq!(front.store().route(sql), away, "the template routes to its new owner");
        let count_on = |front: &StreamFront, shard: usize| {
            let reg = front.store().shard(shard).system().registry();
            reg.lookup(sql).map_or(0, |tid| reg.count(tid))
        };
        assert_eq!(count_on(&front, away), 21, "post-migration event landed on the new owner");
        // There and back: the override count returns to what it was
        // before the first migration, which a length compare could not
        // tell from "nothing happened" — yet the route cached while the
        // template lived away must not survive.
        assert_eq!(front.store().overrides().len(), overrides_at_home + 1);
        front.store_mut().migrate(away, home).expect("migrate back");
        assert_eq!(front.store().overrides().len(), overrides_at_home);
        front.ingest_event(22, 22, sql).expect("ingest");
        front.flush().expect("barrier");
        assert_eq!(front.store().route(sql), home);
        assert_eq!(count_on(&front, home), 22, "the event followed the template home");
        assert_eq!(count_on(&front, away), 0, "nothing landed on the former owner");
    }

    /// xorshift64*: a seeded stream for the corpus builders below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
        }
    }

    /// One of 12 templates, written one of many ways: letter case,
    /// spacing, comments, literal kind and commutative order all vary,
    /// so many fingerprints share each canonical template.
    fn variant(rng: &mut Rng) -> String {
        let k = rng.below(12);
        let lit = |rng: &mut Rng| match rng.below(3) {
            0 => format!("{}", rng.below(100_000)),
            1 => format!("'v{}'", rng.below(1_000)),
            _ => "?".to_string(),
        };
        let (x, y) = (lit(rng), lit(rng));
        let (cols, conds) = match rng.below(4) {
            0 => ("a, b", format!("x = {x} AND y = {y}")),
            1 => ("b, a", format!("x = {x} AND y = {y}")),
            2 => ("a, b", format!("y = {y} AND x = {x}")),
            _ => ("b, a", format!("y = {y} AND x = {x}")),
        };
        let sql = format!("SELECT {cols} FROM tab{k} WHERE {conds}");
        match rng.below(5) {
            0 => sql.to_ascii_lowercase(),
            1 => sql.replace(' ', "   "),
            2 => format!("{sql} -- trailing note"),
            3 => sql.replacen(" FROM", " /* hint */ FROM", 1),
            _ => sql,
        }
    }

    /// Periodic arrival patterns over six shapes for two hours: enough
    /// structure for training to cluster and forecast.
    fn periodic_corpus() -> Vec<(u64, String)> {
        let mut events = Vec::new();
        for m in 0..120u64 {
            for s in 0..6u64 {
                let n = 2 + ((m + s) % 5) + 4 * u64::from((m + 2 * s) % 12 < 6);
                for k in 0..n {
                    let sql = format!("SELECT v{s} FROM periodic_{s} WHERE id = {m}");
                    events.push((m * 60 + k, sql));
                }
            }
        }
        events
    }

    #[test]
    fn handle_path_with_tiny_caches_matches_bulk_ingest() {
        let mut rng = Rng(0x5EED_0016);
        let variants: Vec<(u64, String)> =
            (0..900u64).map(|i| (i / 3 + rng.below(5), variant(&mut rng))).collect();
        // (corpus, distinct templates, trains): the variant corpus spans
        // too few bins to train on; the periodic one must train.
        for (corpus, templates, trains) in [(variants, 12, false), (periodic_corpus(), 6, true)] {
            let (warm, rest) = corpus.split_at(60);

            let bulk_vfs: DynVfs = Arc::new(MemVfs::new());
            let mut bulk =
                ShardedDurable::open_with_vfs(&bulk_vfs, &PathBuf::from("/bulk"), db_cfg(2))
                    .expect("open");
            let stream_vfs: DynVfs = Arc::new(MemVfs::new());
            let store =
                ShardedDurable::open_with_vfs(&stream_vfs, &PathBuf::from("/front"), db_cfg(2))
                    .expect("open");
            let mut cfg = StreamConfig::from_db(&db_cfg(2));
            cfg.group_commit = GroupCommitConfig { max_records: 8, max_delay_us: 2_000 };
            cfg.route_cache_cap = 4;
            let mut front = StreamFront::new(store, cfg);
            for shard in 0..2 {
                front.store_mut().shard_mut(shard).system_mut().set_template_cache_cap(4);
            }

            // Warm both stores, then move shard 0's templates to shard 1
            // in each, so migration overrides are in force for the rest.
            for (i, (ts, sql)) in warm.iter().enumerate() {
                bulk.ingest_record(*ts, sql).expect("bulk");
                front.ingest_event(i as u64 * 10, *ts, sql).expect("stream");
            }
            front.flush().expect("barrier");
            bulk.migrate(0, 1).expect("migrate bulk");
            front.store_mut().migrate(0, 1).expect("migrate streamed");
            assert!(!front.store().overrides().is_empty(), "an override is in force");
            assert_eq!(bulk.overrides(), front.store().overrides());

            for (i, (ts, sql)) in rest.iter().enumerate() {
                bulk.ingest_record(*ts, sql).expect("bulk");
                front.ingest_event((60 + i as u64) * 10, *ts, sql).expect("stream");
            }
            front.flush().expect("barrier");

            let stats = front.stats();
            assert!(
                stats.route_cache_misses > 4 * templates,
                "a 4-entry route cache reset many times mid-stream: {stats:?}"
            );
            let mut streamed = front.into_store().expect("teardown");
            let train_end = corpus.iter().map(|(ts, _)| ts + 1).max().expect("events");
            let (mut registry_misses, mut forecasts) = (0, 0);
            for shard in 0..2 {
                // The fingerprint cache is accounted in approx_bytes;
                // drop it so only what both paths must agree on is
                // compared.
                let sys = streamed.shard_mut(shard).system_mut();
                registry_misses += sys.registry().template_cache_misses();
                sys.set_template_cache_cap(0);
                let (a, b) = (bulk.shard(shard).system().registry(), sys.registry());
                assert_eq!(a.num_templates(), b.num_templates(), "shard {shard}");
                assert_eq!(a.approx_bytes(), b.approx_bytes(), "shard {shard}");
                for id in (0..a.num_templates() as u32).map(TemplateId) {
                    assert_eq!(a.template(id), b.template(id), "shard {shard} {id:?}");
                    assert_eq!(a.count(id), b.count(id), "shard {shard} {id:?}");
                    assert_eq!(a.last_seen(id), b.last_seen(id), "shard {shard} {id:?}");
                }

                // Same registry state must train to the same models:
                // every cluster forecast agrees bit for bit.
                let bulk_sys = bulk.shard_mut(shard).system_mut();
                let trained = bulk_sys.train(0, train_end).is_ok();
                assert_eq!(sys.train(0, train_end).is_ok(), trained, "shard {shard}");
                if !trained {
                    continue;
                }
                assert_eq!(bulk_sys.clusters().len(), sys.clusters().len(), "shard {shard}");
                for c in 0..sys.clusters().len() {
                    let (x, y) = (bulk_sys.forecast_cluster(c), sys.forecast_cluster(c));
                    let (x, y) = (x.expect("bulk cluster"), y.expect("streamed cluster"));
                    assert_eq!(x.to_bits(), y.to_bits(), "shard {shard} cluster {c}");
                    forecasts += 1;
                }
            }
            assert!(registry_misses > 2 * templates, "registry caches reset too");
            assert_eq!(forecasts > 0, trains, "{templates}-template corpus");
        }
    }

    #[test]
    fn sparse_bin_close_stages_what_a_walk_over_every_template_would() {
        const BIN: u64 = 60;
        const WINDOW: usize = 4;
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let store = ShardedDurable::open_with_vfs(&vfs, &PathBuf::from("/front"), db_cfg(2))
            .expect("open");
        let mut cfg = StreamConfig::from_db(&db_cfg(2));
        assert_eq!((cfg.bin_secs, cfg.window), (BIN, WINDOW));
        // Nothing folds, so the clusterer's stage is the full record of
        // what bin closes handed it; raw values, not z-scores.
        cfg.maintain_budget = 0;
        cfg.clustering.normalize = false;
        let mut front = StreamFront::new(store, cfg);

        // The reference: the walk over every template of every shard,
        // one rolling window each, that close_bin used to be.
        let mut ref_windows: HashMap<(usize, u32), std::collections::VecDeque<f64>> =
            HashMap::new();
        let mut ref_floor = 0u64;
        let mut expected: Vec<(String, Vec<f64>)> = Vec::new();
        let mut zero_windows = 0usize;
        let mut most_bins_in_one_tick = 0usize;

        let mut rng = Rng(0xB1A5_0016);
        let mut now = 0u64;
        let mut ahead_events = 0usize;
        front.maintain(0); // pin the bin floor at the stream's epoch
        for step in 0..60 {
            // Sparse traffic: templates join over time, most are idle
            // far longer than a window, and a third of the events are
            // stamped up to three bins past the clock.
            let live = 3 + step / 6;
            for _ in 0..rng.below(4) {
                let k = rng.below(live);
                let skew = if rng.below(3) == 0 { rng.below(3 * BIN) } else { 0 };
                ahead_events += usize::from(skew >= BIN);
                let sql = format!("SELECT c FROM sparse{k} WHERE id = {}", rng.below(1_000));
                front.ingest_event(now * 1_000_000, now + skew, &sql).expect("ingest");
            }
            front.flush().expect("barrier");
            // Usually under a bin a step; now and then a long silence,
            // so one maintain closes many bins at once.
            now += if rng.below(6) == 0 { BIN * (2 + rng.below(5)) } else { rng.below(BIN) };

            let mut bins = 0;
            while ref_floor + BIN <= now && bins < MAX_BINS_PER_TICK {
                for shard in 0..2 {
                    let registry = front.store().shard(shard).system().registry();
                    for id in 0..registry.num_templates() as u32 {
                        let n = registry.arrivals_between(TemplateId(id), ref_floor, ref_floor + BIN);
                        let window = ref_windows.entry((shard, id)).or_default();
                        window.push_back(n as f64);
                        if window.len() >= WINDOW {
                            let values: Vec<f64> = window.drain(..).collect();
                            if values.iter().any(|&v| v != 0.0) {
                                expected.push((format!("s{shard}:template:{id}"), values));
                            } else {
                                zero_windows += 1;
                            }
                        }
                    }
                }
                ref_floor += BIN;
                bins += 1;
            }
            most_bins_in_one_tick = most_bins_in_one_tick.max(bins);

            let report = front.maintain(now);
            assert_eq!(report.bins_closed, bins, "step {step}");
            let staged: Vec<(String, Vec<f64>)> = front
                .clusterer_mut()
                .staged()
                .map(|(name, values)| (name.to_string(), values.to_vec()))
                .collect();
            assert_eq!(staged, expected, "after step {step} (clock {now})");
        }
        assert!(expected.len() >= 20, "the scenario staged real windows: {}", expected.len());
        assert!(zero_windows >= 20, "and had idle windows to leave out: {zero_windows}");
        assert!(most_bins_in_one_tick >= 3, "one maintain closed several bins");
        assert!(ahead_events >= 5, "events stamped past the closing bin: {ahead_events}");
        assert_eq!(front.stats().cluster_points, expected.len() as u64);
    }
}
