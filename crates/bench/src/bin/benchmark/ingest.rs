//! The ingest stage: per-event ingest through `StreamFront` over a
//! 2-shard `ShardedDurable`, a closed loop with one client. Virtual
//! event time runs at about 10 000 events per 60 s bin, so `maintain`
//! (every 4 096 events) closes bins and stages cluster windows; the
//! group-commit clock advances 10 µs per event, so batches fill by size
//! (64 records) well inside the 2 ms timer. Every round streams into a
//! fresh store; its passes are consecutive stretches of that stream,
//! each closed by a barrier flush.

use crate::plan::{Plan, VfsKind};
use crate::setup::{mem_vfs, Pool, INGEST_SHARDS};
use crate::spans::Tracer;
use crate::stats::percentile_of;
use dbaugur::{real_vfs, DynVfs};
use dbaugur_shard::ShardedDurable;
use dbaugur_sqlproc::TemplateId;
use dbaugur_stream::{StreamConfig, StreamFront, StreamStats};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

const EVENTS_PER_BIN: u64 = 10_000;
const POLL_EVERY: usize = 256;
const MAINTAIN_EVERY: usize = 4_096;

/// What one pass measured.
#[derive(Debug, Clone, Copy)]
pub struct IngestPass {
    pub events_per_s: f64,
    pub ack_p50_us: f64,
    pub ack_p99_us: f64,
    pub ack_samples: usize,
    /// `ingest_event` call latency, for the traced runs' percentiles.
    pub call_p50_ns: f64,
    pub call_p99_ns: f64,
}

/// The store's counters at the end of a round, for the per-layer
/// metrics, and how many events it refused.
#[derive(Debug, Clone, Copy)]
pub struct RoundEnd {
    pub stats: StreamStats,
    pub group_commit_flushes: u64,
    pub io_retries: u64,
    pub fp_hits: u64,
    pub fp_misses: u64,
    pub shed: u64,
}

/// Where a round's store lives: a fresh `MemVfs`, or a fresh
/// directory on the real filesystem.
pub struct Place {
    pub vfs: DynVfs,
    pub root: PathBuf,
}

impl Place {
    pub fn fresh(kind: VfsKind, tmp: &Path, tag: &str) -> Self {
        match kind {
            VfsKind::Mem => Self {
                vfs: mem_vfs(),
                root: PathBuf::from("/ingest"),
            },
            VfsKind::Disk => {
                let root = tmp.join(tag);
                let _ = std::fs::remove_dir_all(&root);
                Self {
                    vfs: real_vfs(),
                    root,
                }
            }
        }
    }

    /// Remove what a real-filesystem place left on disk.
    pub fn cleanup(&self, kind: VfsKind) {
        if kind == VfsKind::Disk {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

fn open_front(plan: &Plan, place: &Place) -> Result<StreamFront, String> {
    let cfg = plan.ingest_cfg();
    let store = ShardedDurable::open_with_vfs(&place.vfs, &place.root, cfg.clone())
        .map_err(|e| format!("open ingest store: {e}"))?;
    // The default group-commit policy: 64 records or 2 ms.
    Ok(StreamFront::new(store, StreamConfig::from_db(&cfg)))
}

/// Ack bookkeeping: submit instants wait per shard until that shard's
/// `wal_group_records` covers them. The counters are only read when the
/// front's `flushed_records` moved, so the common call costs one struct
/// copy.
struct Acks {
    pending: Vec<VecDeque<Instant>>,
    covered: Vec<u64>,
    seen_flushed: u64,
    lat_ns: Vec<u64>,
}

impl Acks {
    fn new(capacity: usize) -> Self {
        Self {
            pending: (0..INGEST_SHARDS)
                .map(|_| VecDeque::with_capacity(256))
                .collect(),
            covered: vec![0; INGEST_SHARDS],
            seen_flushed: 0,
            lat_ns: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn settle(&mut self, front: &StreamFront) {
        let flushed = front.stats().flushed_records;
        if flushed == self.seen_flushed {
            return;
        }
        self.seen_flushed = flushed;
        let now = Instant::now();
        for shard in 0..INGEST_SHARDS {
            let durable = front.store().durability(shard).wal_group_records;
            while self.covered[shard] < durable {
                let submitted = self.pending[shard]
                    .pop_front()
                    .expect("a flush covers only submitted events");
                self.lat_ns
                    .push(now.duration_since(submitted).as_nanos() as u64);
                self.covered[shard] += 1;
            }
        }
    }
}

/// One round's stream: the front, the position in the pool, and the
/// ack bookkeeping, carried from pass to pass.
struct Stream<'a> {
    front: StreamFront,
    pool: &'a Pool,
    next: usize,
    acks: Acks,
    shed: u64,
}

impl Stream<'_> {
    /// Stream the next `events` pool statements and barrier-flush.
    fn pass(
        &mut self,
        events: usize,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<IngestPass, String> {
        let Self {
            front,
            pool,
            next,
            acks,
            shed,
        } = self;
        acks.lat_ns.clear();
        let mut call_ns: Vec<u64> = Vec::with_capacity(events);
        let shed_before = *shed;
        tracer.begin("ingest.pass", request);
        let t0 = Instant::now();
        for i in *next..*next + events {
            let slot = i % pool.statements.len();
            let now_us = i as u64 * 10;
            let ts_secs = i as u64 * crate::gen::BIN_SECS / EVENTS_PER_BIN;
            let start = Instant::now();
            let decision = front
                .ingest_event(now_us, ts_secs, &pool.statements[slot])
                .map_err(|e| format!("ingest_event failed: {e}"))?;
            let end = Instant::now();
            call_ns.push(end.duration_since(start).as_nanos() as u64);
            tracer.record("stream.ingest_event", request, start, end);
            if decision.is_admitted() {
                acks.pending[pool.shard[slot] as usize].push_back(start);
            } else {
                *shed += 1;
            }
            acks.settle(front);
            if i % POLL_EVERY == POLL_EVERY - 1 {
                tracer.begin("stream.poll", request);
                front
                    .poll(now_us)
                    .map_err(|e| format!("poll failed: {e}"))?;
                tracer.end();
                acks.settle(front);
            }
            if i % MAINTAIN_EVERY == MAINTAIN_EVERY - 1 {
                tracer.begin("stream.maintain", request);
                front.maintain(ts_secs);
                tracer.end();
            }
        }
        tracer.begin("stream.flush", request);
        front
            .flush()
            .map_err(|e| format!("barrier flush failed: {e}"))?;
        tracer.end();
        acks.settle(front);
        let secs = t0.elapsed().as_secs_f64();
        tracer.end();
        *next += events;

        let admitted = events as u64 - (*shed - shed_before);
        if acks.lat_ns.len() as u64 != admitted {
            return Err(format!(
                "{} of {admitted} admitted events were acked",
                acks.lat_ns.len()
            ));
        }
        let ack_samples = acks.lat_ns.len();
        let p50 = percentile_of(&mut acks.lat_ns, 0.50, "ingest ack latency");
        let p99 = percentile_of(&mut acks.lat_ns, 0.99, "ingest ack latency");
        let call_p50 = percentile_of(&mut call_ns, 0.50, "ingest_event latency");
        let call_p99 = percentile_of(&mut call_ns, 0.99, "ingest_event latency");
        Ok(IngestPass {
            events_per_s: admitted as f64 / secs,
            ack_p50_us: p50.value as f64 / 1e3,
            ack_p99_us: p99.value as f64 / 1e3,
            ack_samples,
            call_p50_ns: call_p50.value as f64,
            call_p99_ns: call_p99.value as f64,
        })
    }

    fn end(&self) -> RoundEnd {
        let store = self.front.store();
        let (mut flushes, mut retries, mut hits, mut misses) = (0, 0, 0, 0);
        for shard in 0..INGEST_SHARDS {
            let d = store.durability(shard);
            flushes += d.wal_group_flushes_coalesced + d.wal_group_flushes_forced;
            retries += d.io_retries;
            let registry = store.shard(shard).system().registry();
            hits += registry.template_cache_hits();
            misses += registry.template_cache_misses();
        }
        RoundEnd {
            stats: self.front.stats(),
            group_commit_flushes: flushes,
            io_retries: retries,
            fp_hits: hits,
            fp_misses: misses,
            shed: self.shed,
        }
    }
}

/// One round on a fresh store: the untimed warm stretch, if the plan
/// has one, then `passes` timed passes. Every round holds the store to
/// its books; `reopen` (the warm-up round) also reopens it and counts
/// what replays. Returns the passes, the end-of-round counters and the
/// failed checks.
pub fn round(
    plan: &Plan,
    pool: &Pool,
    tmp: &Path,
    tracer: &mut Tracer,
    n: u64,
    reopen: bool,
) -> Result<(Vec<IngestPass>, RoundEnd, Vec<String>), String> {
    let place = Place::fresh(plan.ingest_vfs, tmp, "ingest-round");
    let mut stream = Stream {
        front: open_front(plan, &place)?,
        pool,
        next: 0,
        acks: Acks::new(plan.events_per_pass.max(plan.warm_events)),
        shed: 0,
    };
    if plan.warm_events > 0 {
        let on = tracer.enabled();
        tracer.set_enabled(false);
        stream.pass(plan.warm_events, tracer, n << 32)?;
        tracer.set_enabled(on);
    }
    let passes = (0..plan.ingest_reps.passes as u64)
        .map(|k| stream.pass(plan.events_per_pass, tracer, n << 32 | (k + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    let end = stream.end();
    let streamed = stream.next;
    let failed = books(plan, pool, stream.front, streamed, end.shed, &place, reopen)?;
    place.cleanup(plan.ingest_vfs);
    Ok((passes, end, failed))
}

/// Hold a round's store to its books: nothing left unacked, flushed ==
/// admitted == resident observations, one template per distinct shape
/// offered, and — when asked — a reopen that replays exactly the acked
/// records. Returns the failed checks.
fn books(
    plan: &Plan,
    pool: &Pool,
    front: StreamFront,
    streamed: usize,
    shed: u64,
    place: &Place,
    reopen: bool,
) -> Result<Vec<String>, String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failed.push(what);
        }
    };
    let admitted = streamed as u64 - shed;
    check(
        front.unacked() == 0,
        format!("ingest: {} events left unacked", front.unacked()),
    );
    let store = front.into_store().map_err(|e| format!("teardown: {e}"))?;
    let mut flushed = 0u64;
    let mut resident = 0u64;
    let mut templates = 0usize;
    for shard in 0..INGEST_SHARDS {
        flushed += store.durability(shard).wal_group_records;
        let registry = store.shard(shard).system().registry();
        templates += registry.num_templates();
        resident += (0..registry.num_templates())
            .map(|id| registry.count(TemplateId(id as u32)) as u64)
            .sum::<u64>();
    }
    check(
        flushed == admitted,
        format!("ingest: flushed {flushed} != admitted {admitted}"),
    );
    check(
        resident == admitted,
        format!("ingest: resident {resident} != admitted {admitted}"),
    );
    let offered = plan.shapes.min(streamed).min(pool.statements.len());
    check(
        templates == offered,
        format!("ingest: {templates} templates for {offered} shapes"),
    );
    drop(store);
    if reopen {
        let reopened = ShardedDurable::open_with_vfs(&place.vfs, &place.root, plan.ingest_cfg())
            .map_err(|e| format!("reopen ingest store: {e}"))?;
        let replayed: u64 = reopened
            .recovery_reports()
            .iter()
            .map(|r| r.wal_applied as u64)
            .sum();
        check(
            replayed == admitted,
            format!("ingest: reopen replayed {replayed} of {admitted} acked"),
        );
    }
    Ok(failed)
}
