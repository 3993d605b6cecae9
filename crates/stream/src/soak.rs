//! Streaming burst soak: drive a [`StreamFront`] through a bursty
//! virtual-time workload — optionally with injected storage faults —
//! and reconcile the books at the end.
//!
//! The invariant mirrors the serving soak's conservation rule: every
//! offered event is exactly one of *acked* (covered by a flush report),
//! *shed* (admission refused), or *dropped* (its batch's flush failed
//! and the error surfaced). Nothing disappears without a ledger entry,
//! and after a reopen the store replays precisely the acked set.

use crate::front::{StreamConfig, StreamFront};
use dbaugur::{DbAugurConfig, DynVfs, GroupCommitConfig, MemVfs};
use dbaugur_shard::ShardedDurable;
use std::path::PathBuf;
use std::sync::Arc;

/// Workload shape for [`run_stream_soak`].
#[derive(Debug, Clone)]
pub struct StreamSoakConfig {
    /// Virtual seconds to run.
    pub seconds: u64,
    /// Events per second during calm stretches.
    pub base_rate: u64,
    /// Every `burst_every` seconds the rate multiplies by `burst_mult`
    /// for one second.
    pub burst_every: u64,
    /// Burst multiplier.
    pub burst_mult: u64,
    /// Distinct statement shapes in the workload.
    pub shapes: usize,
    /// Shard count for the backing store.
    pub shards: usize,
}

impl Default for StreamSoakConfig {
    fn default() -> Self {
        Self { seconds: 120, base_rate: 4, burst_every: 30, burst_mult: 10, shapes: 6, shards: 2 }
    }
}

/// Outcome ledger of one soak run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamSoakReport {
    /// Events the workload offered.
    pub offered: u64,
    /// Events acked by a group-commit flush.
    pub acked: u64,
    /// Events refused at the front door (it refuses nothing: always 0).
    pub shed: u64,
    /// Group-commit flushes.
    pub flushes: u64,
    /// Arrival bins closed by maintenance.
    pub bins_closed: u64,
    /// Windows staged into the online clusterer.
    pub cluster_points: u64,
    /// Records replayed from the WALs after the post-soak reopen.
    pub replayed: u64,
}

fn pipeline_cfg(shards: usize) -> DbAugurConfig {
    let mut cfg = DbAugurConfig {
        shards,
        interval_secs: 10,
        history: 4,
        horizon: 1,
        top_k: 2,
        ..DbAugurConfig::default()
    };
    cfg.clustering.min_size = 1;
    cfg.fast();
    cfg
}

/// Run the burst soak on an in-memory store and verify the books:
/// `offered == acked + shed` (no flush ever failed on a healthy vfs)
/// and the reopened store replays exactly the acked set.
///
/// # Panics
/// Panics when any conservation invariant is violated — this is a test
/// harness, not a production entry point.
pub fn run_stream_soak(cfg: StreamSoakConfig) -> StreamSoakReport {
    let vfs: DynVfs = Arc::new(MemVfs::new());
    let root = PathBuf::from("/soak/stream");
    let store = ShardedDurable::open_with_vfs(&vfs, &root, pipeline_cfg(cfg.shards))
        .expect("open store");
    let mut scfg = StreamConfig::from_db(&pipeline_cfg(cfg.shards));
    // One virtual second of coalescing: calm-rate records batch up per
    // poll, bursts tip the size trigger first.
    scfg.group_commit = GroupCommitConfig { max_records: 16, max_delay_us: 1_000_000 };
    let mut front = StreamFront::new(store, scfg);

    let mut report = StreamSoakReport::default();
    for sec in 0..cfg.seconds {
        let bursting = cfg.burst_every > 0 && sec % cfg.burst_every == cfg.burst_every - 1;
        let rate = if bursting { cfg.base_rate * cfg.burst_mult } else { cfg.base_rate };
        for q in 0..rate {
            // Spread events across the virtual second.
            let now_us = sec * 1_000_000 + q * 1_000_000 / rate.max(1);
            let shape = (sec + q) as usize % cfg.shapes;
            let sql = format!("SELECT c{shape} FROM t{shape} WHERE id = {}", sec * 1_000 + q);
            report.offered += 1;
            let decision = front.ingest_event(now_us, sec, &sql).expect("healthy vfs");
            if !decision.is_admitted() {
                report.shed += 1;
            }
        }
        front.poll((sec + 1) * 1_000_000).expect("poll");
        front.maintain(sec);
    }
    front.flush().expect("final barrier");
    let stats = front.stats();
    report.acked = stats.flushed_records;
    report.flushes = stats.flushes;
    report.bins_closed = stats.bins_closed;
    report.cluster_points = stats.cluster_points;
    assert_eq!(
        report.offered,
        report.acked + report.shed,
        "conservation: every offered event is acked or shed"
    );
    assert_eq!(front.unacked(), 0, "the barrier left nothing in flight");
    drop(front.into_store().expect("teardown"));

    let reopened = ShardedDurable::open_with_vfs(&vfs, &root, pipeline_cfg(cfg.shards))
        .expect("reopen");
    report.replayed =
        reopened.recovery_reports().iter().map(|r| r.wal_applied as u64).sum();
    assert_eq!(report.replayed, report.acked, "the reopened store replays the acked set");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_soak_conserves_every_event() {
        let report = run_stream_soak(StreamSoakConfig::default());
        assert!(report.offered > 500, "the default plan offers real load: {report:?}");
        assert_eq!(report.shed, 0, "the front door buffers bursts, it never refuses");
        assert!(
            report.flushes * 2 <= report.acked,
            "group commit coalesces (≥2 records/fsync on average): {report:?}"
        );
        assert!(report.bins_closed >= report.offered / 1_000, "maintenance ran");
    }

    #[test]
    fn quiet_plan_still_acks_via_timer_flushes() {
        let report = run_stream_soak(StreamSoakConfig {
            seconds: 30,
            base_rate: 1,
            burst_every: 0,
            burst_mult: 1,
            shapes: 2,
            shards: 1,
        });
        assert_eq!(report.offered, 30);
        assert_eq!(report.acked, 30, "a trickle never starves in the buffer");
    }
}
