//! Crash-safe facade over the pipeline: WAL-first ingestion plus
//! checkpoint/recover orchestration.
//!
//! [`DurableDbAugur`] owns a [`DbAugur`] and a [`Wal`](crate::wal::Wal)
//! living in one state directory. Every ingested record or resource
//! trace is appended (and fsynced) to the log *before* it is applied in
//! memory, so a crash at any instant loses nothing that was
//! acknowledged. [`checkpoint`](DurableDbAugur::checkpoint) folds the
//! log into a fresh snapshot generation and then truncates it;
//! [`open`](DurableDbAugur::open) is `recover` + reopening the log for
//! appending, and is what both a cold start and a crash restart call.

use crate::config::DbAugurConfig;
use crate::pipeline::DbAugur;
use crate::retry::{DurabilityCounters, RetryExhausted, RetryOutcome, RetryPolicy};
use crate::snapshot::{RecoveryReport, SnapshotError};
use crate::vfs::{real_vfs, DynVfs};
use crate::wal::{group_batch_bucket, GroupCommitBuffer, GroupCommitConfig, Wal};
use dbaugur_sqlproc::StatementHandle;
use std::io;
use std::path::{Path, PathBuf};

/// Write-ahead-log file name inside a state directory.
pub const WAL_FILE: &str = "wal.dbwl";

/// A pipeline whose ingestion survives crashes.
pub struct DurableDbAugur {
    sys: DbAugur,
    wal: Wal,
    dir: PathBuf,
    retry: RetryPolicy,
    vfs: DynVfs,
    /// Group-commit buffer for the streaming front door; `None` until
    /// [`stream_enable`](Self::stream_enable). Records submitted here
    /// are *not yet durable, not yet applied, not yet acked* — a flush
    /// moves the whole batch to the WAL with one fsync and only then
    /// applies it to memory.
    stream: Option<GroupCommitBuffer>,
}

/// One successful group-commit flush: what became durable (and was
/// therefore acknowledged) in a single fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// Records in the flushed batch.
    pub records: usize,
    /// WAL sequence of the batch's first record; the batch occupies
    /// `first_seq .. first_seq + records`.
    pub first_seq: u64,
    /// True when a barrier (checkpoint, shutdown, explicit flush)
    /// forced the flush before the coalescing policy fired.
    pub forced: bool,
}

/// Append one record under the retry policy: a transient write/fsync
/// failure rolls the log back to its last durable boundary and tries
/// again with deterministic jittered backoff; exhaustion comes back as
/// a typed [`RetryExhausted`] inside the `io::Error`. The counter
/// updates happen here so every caller's books stay consistent.
fn append_record_retrying(
    wal: &mut Wal,
    policy: &RetryPolicy,
    counters: &mut DurabilityCounters,
    ts_secs: u64,
    sql: &str,
) -> io::Result<u64> {
    let mut outcome = RetryOutcome::default();
    let result = {
        // Split the borrow: the repair hook and the op both need the WAL.
        let wal_cell = std::cell::RefCell::new(wal);
        crate::retry::with_retry(
            policy,
            "wal-append",
            &mut outcome,
            || wal_cell.borrow_mut().repair_tail(),
            || wal_cell.borrow_mut().append_record(ts_secs, sql),
        )
    };
    counters.io_retries += u64::from(outcome.retried);
    if let Err(e) = &result {
        if RetryExhausted::from_io(e).is_some() {
            counters.retry_exhausted += 1;
        }
    }
    result
}

impl DurableDbAugur {
    /// Open (or create) the state directory: recover the newest good
    /// snapshot, replay the log, and reopen the log for appending.
    pub fn open(dir: &Path, cfg: DbAugurConfig) -> Result<(Self, RecoveryReport), SnapshotError> {
        Self::open_with_vfs(&real_vfs(), dir, cfg)
    }

    /// [`DurableDbAugur::open`] against an arbitrary vfs: every byte the
    /// instance persists (WAL appends, snapshot generations) flows
    /// through `vfs`, so fault-injection soaks can wrap the whole
    /// durable pipeline in a [`crate::vfs::FaultyVfs`] or keep it on a
    /// [`crate::vfs::MemVfs`].
    pub fn open_with_vfs(
        vfs: &DynVfs,
        dir: &Path,
        cfg: DbAugurConfig,
    ) -> Result<(Self, RecoveryReport), SnapshotError> {
        vfs.create_dir_all(dir)?;
        let (sys, report) = DbAugur::recover_with(vfs, dir, cfg)?;
        // Seed the log's sequence counter past everything already
        // applied so fresh appends never collide with replayed entries.
        let wal = Wal::open_with(vfs, &dir.join(WAL_FILE), sys.applied_seq())?;
        Ok((
            Self {
                sys,
                wal,
                dir: dir.to_path_buf(),
                retry: RetryPolicy::default(),
                vfs: std::sync::Arc::clone(vfs),
                stream: None,
            },
            report,
        ))
    }

    /// The vfs this instance persists through.
    pub fn vfs(&self) -> &DynVfs {
        &self.vfs
    }

    /// Replace the transient-I/O retry policy (default: 4 attempts with
    /// small deterministic jittered backoff). [`RetryPolicy::none`]
    /// restores fail-on-first-error behaviour.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The active transient-I/O retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Durably ingest one query-log record (logged, fsynced, applied).
    /// Transient append failures are retried under the configured
    /// policy; exhaustion returns a typed [`RetryExhausted`] (wrapped
    /// in the `io::Error`) instead of a bare first failure.
    pub fn ingest_record(&mut self, ts_secs: u64, sql: &str) -> io::Result<()> {
        let seq = append_record_retrying(
            &mut self.wal,
            &self.retry,
            &mut self.sys.durability,
            ts_secs,
            sql,
        )?;
        self.sys.ingest_record(ts_secs, sql);
        self.sys.applied_seq = seq;
        Ok(())
    }

    /// Durably ingest a whole query-log text; damaged lines are counted
    /// and skipped exactly as by [`DbAugur::ingest_log_report`], but
    /// every accepted record hits the WAL first. Records stream from
    /// the text straight to the log — no intermediate record vector. An
    /// I/O error aborts mid-log; records already appended stay durable.
    pub fn ingest_log_text(&mut self, text: &str) -> io::Result<crate::IngestReport> {
        let wal = &mut self.wal;
        let sys = &mut self.sys;
        let retry = &self.retry;
        let hits0 = sys.registry().template_cache_hits();
        let misses0 = sys.registry().template_cache_misses();
        let stats = dbaugur_sqlproc::try_parse_log_stream(text, |ts_secs, sql| {
            let seq = append_record_retrying(wal, retry, &mut sys.durability, ts_secs, sql)?;
            sys.ingest_record_streamed(ts_secs, sql);
            sys.applied_seq = seq;
            Ok::<(), io::Error>(())
        })?;
        self.sys.skipped_log_lines += stats.skipped;
        Ok(crate::IngestReport {
            ingested: stats.records,
            skipped: stats.skipped,
            first_skipped_offset: stats.first_skipped_offset,
            template_cache_hits: self.sys.registry().template_cache_hits() - hits0,
            template_cache_misses: self.sys.registry().template_cache_misses() - misses0,
        })
    }

    /// Durably register a resource-consumption trace. Transient append
    /// failures retry under the same policy as record ingestion.
    pub fn add_resource_trace(&mut self, trace: dbaugur_trace::Trace) -> io::Result<()> {
        let mut outcome = RetryOutcome::default();
        let result = {
            let wal_cell = std::cell::RefCell::new(&mut self.wal);
            crate::retry::with_retry(
                &self.retry,
                "wal-append-resource",
                &mut outcome,
                || wal_cell.borrow_mut().repair_tail(),
                || wal_cell.borrow_mut().append_resource(&trace),
            )
        };
        self.sys.durability.io_retries += u64::from(outcome.retried);
        if let Err(e) = &result {
            if RetryExhausted::from_io(e).is_some() {
                self.sys.durability.retry_exhausted += 1;
            }
        }
        let seq = result?;
        self.sys.add_resource_trace(trace);
        self.sys.applied_seq = seq;
        Ok(())
    }

    /// Fold all durable state into a new snapshot generation, then
    /// truncate the log. Crash-ordering: the log is only truncated
    /// *after* the snapshot rename is durable, so a crash between the
    /// two merely replays entries the snapshot already contains (replay
    /// is sequence-gated and idempotent).
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        // Barrier: pending streamed records must reach the WAL (and the
        // in-memory system) before the snapshot claims their sequences.
        self.stream_flush()?;
        let gen = self.checkpoint_retrying()?;
        self.wal.truncate()?;
        Ok(gen)
    }

    /// Write a snapshot generation under the retry policy. No repair
    /// hook is needed: snapshot writes go through tmp-file + rename, so
    /// a failed attempt leaves no partial generation behind.
    fn checkpoint_retrying(&mut self) -> io::Result<u64> {
        let mut outcome = RetryOutcome::default();
        let result = {
            let sys = &mut self.sys;
            let dir = &self.dir;
            let vfs = &self.vfs;
            crate::retry::with_retry(
                &self.retry,
                "snapshot-write",
                &mut outcome,
                || Ok(()),
                || sys.checkpoint_with(vfs, dir),
            )
        };
        self.sys.durability.io_retries += u64::from(outcome.retried);
        if let Err(e) = &result {
            if RetryExhausted::from_io(e).is_some() {
                self.sys.durability.retry_exhausted += 1;
            }
        }
        result
    }

    /// Deadline-governed checkpoint. Checkpointing is maintenance — the
    /// WAL already makes every acknowledged record durable — so under
    /// pressure it defers instead of blocking the serving path:
    ///
    /// * expired before starting → `Ok(None)`, nothing written;
    /// * expired after the snapshot rename → the (durable) snapshot is
    ///   kept but the log truncate is skipped; the next checkpoint or a
    ///   recovery replay reconciles, since replay is sequence-gated and
    ///   idempotent.
    pub fn try_checkpoint(&mut self, deadline: &dbaugur_exec::Deadline) -> io::Result<Option<u64>> {
        if deadline.expired() {
            return Ok(None);
        }
        self.stream_flush()?;
        let gen = self.checkpoint_retrying()?;
        if deadline.expired() {
            return Ok(Some(gen));
        }
        self.wal.truncate()?;
        Ok(Some(gen))
    }

    /// The wrapped pipeline (forecasting, training, reports).
    pub fn system(&self) -> &DbAugur {
        &self.sys
    }

    /// Mutable access for non-ingestion operations (e.g. `train`).
    /// Ingestion must go through the durable methods or it will not
    /// survive a crash.
    pub fn system_mut(&mut self) -> &mut DbAugur {
        &mut self.sys
    }

    /// State directory this instance persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes currently pending in the write-ahead log.
    pub fn wal_len_bytes(&self) -> io::Result<u64> {
        self.wal.len_bytes()
    }

    // ------------------------------------------------------------------
    // Streaming front door: group-committed per-event ingest.
    // ------------------------------------------------------------------

    /// Enable the streaming ingest path: records submitted through
    /// [`stream_submit_parsed`](Self::stream_submit_parsed) coalesce in
    /// a bounded buffer and hit the disk `cfg.max_records`-at-a-time
    /// (or after `cfg.max_delay_us` virtual microseconds), one fsync
    /// per batch.
    pub fn stream_enable(&mut self, cfg: GroupCommitConfig) {
        self.stream = Some(GroupCommitBuffer::new(cfg));
    }

    /// True when [`stream_enable`](Self::stream_enable) has been called.
    pub fn stream_enabled(&self) -> bool {
        self.stream.is_some()
    }

    /// Records submitted but not yet flushed (and therefore not acked).
    pub fn stream_pending(&self) -> usize {
        self.stream.as_ref().map_or(0, GroupCommitBuffer::len)
    }

    /// Submit one bare record on the streaming path: a one-line adapter
    /// that parses `sql` into a [`StatementHandle`] for
    /// [`stream_submit_parsed`](Self::stream_submit_parsed).
    pub fn stream_submit(
        &mut self,
        now_us: u64,
        ts_secs: u64,
        sql: &str,
    ) -> io::Result<Option<FlushReport>> {
        self.stream_submit_parsed(now_us, ts_secs, sql, StatementHandle::of(sql))
    }

    /// Submit one record on the streaming path at virtual time
    /// `now_us`, with the handle the layers above made from `sql`; it
    /// waits beside the record and is spent by the post-fsync apply, so
    /// the statement is never fingerprinted or canonicalized again.
    /// The record is buffered — **not** durable, applied, or
    /// acknowledged — until a flush covers it; when this submit itself
    /// trips the coalescing policy (batch full, or the oldest pending
    /// record timed out), the flush happens inline and its report comes
    /// back. An `Err` means a flush was due and failed: that whole
    /// batch was dropped unacknowledged, exactly like a bulk append
    /// that exhausted its retries.
    ///
    /// # Panics
    /// Panics when streaming was never enabled — submitting without
    /// [`stream_enable`](Self::stream_enable) is a programming error,
    /// not a runtime condition.
    pub fn stream_submit_parsed(
        &mut self,
        now_us: u64,
        ts_secs: u64,
        sql: &str,
        stmt: StatementHandle,
    ) -> io::Result<Option<FlushReport>> {
        let buf = self.stream.as_mut().expect("stream_submit before stream_enable");
        buf.submit(now_us, ts_secs, sql, stmt);
        if buf.size_due() || buf.timer_due(now_us) {
            return self.flush_stream(false);
        }
        Ok(None)
    }

    /// Timer poll: flush if the oldest pending record has waited out
    /// the configured delay. Call once per tick (or finer) so a trickle
    /// of submits can never sit unacked past `max_delay_us`.
    pub fn stream_poll(&mut self, now_us: u64) -> io::Result<Option<FlushReport>> {
        match &self.stream {
            Some(buf) if buf.timer_due(now_us) => self.flush_stream(false),
            _ => Ok(None),
        }
    }

    /// Barrier: flush whatever is pending now (counted as a *forced*
    /// flush). Checkpoints and shutdown call this; `Ok(None)` when the
    /// buffer is empty or streaming is off.
    pub fn stream_flush(&mut self) -> io::Result<Option<FlushReport>> {
        self.flush_stream(true)
    }

    /// The flush proper: batch-append under the retry policy, then
    /// apply the batch to memory through the fingerprint fast path,
    /// spending each record's handle.
    /// Application happens strictly *after* the fsync so nothing
    /// unflushed is ever visible to forecasts, checkpoints, or books.
    fn flush_stream(&mut self, forced: bool) -> io::Result<Option<FlushReport>> {
        let Some(buf) = self.stream.as_mut() else { return Ok(None) };
        if buf.is_empty() {
            return Ok(None);
        }
        let (entries, handles) = buf.take();
        let mut outcome = RetryOutcome::default();
        let result = {
            let wal_cell = std::cell::RefCell::new(&mut self.wal);
            let batch = &entries;
            crate::retry::with_retry(
                &self.retry,
                "wal-append-batch",
                &mut outcome,
                || wal_cell.borrow_mut().repair_tail(),
                || wal_cell.borrow_mut().append_record_batch(batch),
            )
        };
        self.sys.durability.io_retries += u64::from(outcome.retried);
        if let Err(e) = &result {
            if RetryExhausted::from_io(e).is_some() {
                self.sys.durability.retry_exhausted += 1;
            }
        }
        let first_seq = result?;
        for ((ts_secs, sql), stmt) in entries.iter().zip(handles) {
            self.sys.ingest_parsed(*ts_secs, sql, stmt);
        }
        self.sys.applied_seq = first_seq + entries.len() as u64 - 1;
        let d = &mut self.sys.durability;
        if forced {
            d.wal_group_flushes_forced += 1;
        } else {
            d.wal_group_flushes_coalesced += 1;
        }
        d.wal_group_records += entries.len() as u64;
        d.wal_group_batch_hist[group_batch_bucket(entries.len())] += 1;
        Ok(Some(FlushReport { records: entries.len(), first_seq, forced }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultSwitch, FaultyVfs, MemVfs};
    use std::sync::Arc;

    fn cfg() -> DbAugurConfig {
        let mut cfg = DbAugurConfig {
            interval_secs: 60,
            history: 8,
            horizon: 1,
            top_k: 3,
            ..DbAugurConfig::default()
        };
        cfg.fast();
        cfg
    }

    fn mem_open(vfs: &DynVfs) -> DurableDbAugur {
        DurableDbAugur::open_with_vfs(vfs, Path::new("/state"), cfg()).expect("open").0
    }

    #[test]
    fn streamed_records_ack_only_at_flush_and_survive_restart() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut db = mem_open(&vfs);
        db.stream_enable(GroupCommitConfig { max_records: 4, max_delay_us: 1_000_000 });

        assert!(db.stream_submit(0, 1, "SELECT a").expect("submit").is_none());
        assert!(db.stream_submit(1, 2, "SELECT b").expect("submit").is_none());
        assert!(db.stream_submit(2, 3, "SELECT c").expect("submit").is_none());
        assert_eq!(db.stream_pending(), 3);
        assert_eq!(db.system().num_templates(), 0, "unflushed records are invisible");

        // Fourth submit fills the batch: one fsync, everything acked.
        let flush = db.stream_submit(3, 4, "SELECT d").expect("submit").expect("flush");
        assert_eq!(flush.records, 4);
        assert_eq!(flush.first_seq, 1);
        assert!(!flush.forced);
        assert_eq!(db.stream_pending(), 0);
        assert_eq!(db.system().num_templates(), 4);
        assert_eq!(db.system().applied_seq(), 4);
        let d = db.system().durability();
        assert_eq!(d.wal_group_flushes_coalesced, 1);
        assert_eq!(d.wal_group_records, 4);
        assert_eq!(d.wal_group_batch_hist[super::group_batch_bucket(4)], 1);

        // A fifth record left pending vanishes on crash: it was never
        // acked. The flushed four replay.
        db.stream_submit(10, 5, "SELECT e").expect("submit");
        drop(db);
        let (db2, report) =
            DurableDbAugur::open_with_vfs(&vfs, Path::new("/state"), cfg()).expect("reopen");
        assert_eq!(report.wal_applied, 4);
        assert!(!report.wal_torn);
        assert_eq!(db2.system().num_templates(), 4);
    }

    #[test]
    fn timer_poll_flushes_a_trickle() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut db = mem_open(&vfs);
        db.stream_enable(GroupCommitConfig { max_records: 1_000, max_delay_us: 500 });
        db.stream_submit(100, 1, "SELECT a").expect("submit");
        assert!(db.stream_poll(400).expect("poll").is_none(), "300 µs elapsed");
        let flush = db.stream_poll(600).expect("poll").expect("timer fired");
        assert_eq!(flush.records, 1);
        assert!(!flush.forced, "timer flushes count as coalesced");
        assert!(db.stream_poll(10_000).expect("poll").is_none(), "nothing pending");
    }

    #[test]
    fn checkpoint_is_a_stream_barrier() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut db = mem_open(&vfs);
        db.stream_enable(GroupCommitConfig::default());
        db.stream_submit(0, 1, "SELECT a").expect("submit");
        db.stream_submit(1, 2, "SELECT b").expect("submit");
        let gen = db.checkpoint().expect("checkpoint");
        assert_eq!(db.stream_pending(), 0, "checkpoint flushed the buffer");
        assert_eq!(db.system().durability().wal_group_flushes_forced, 1);
        drop(db);
        let (db2, report) =
            DurableDbAugur::open_with_vfs(&vfs, Path::new("/state"), cfg()).expect("reopen");
        assert_eq!(report.generation, Some(gen));
        assert_eq!(report.wal_applied, 0, "records live in the snapshot now");
        assert_eq!(db2.system().num_templates(), 2);
    }

    #[test]
    fn failed_flush_drops_the_batch_unacked() {
        let switch = FaultSwitch::new();
        let vfs: DynVfs = Arc::new(FaultyVfs::new(Arc::new(MemVfs::new()), Arc::clone(&switch)));
        let mut db = mem_open(&vfs).with_retry_policy(RetryPolicy::none());
        db.stream_enable(GroupCommitConfig { max_records: 2, max_delay_us: 1_000_000 });
        db.stream_submit(0, 1, "SELECT a").expect("submit");
        switch.arm(FaultKind::Enospc, 2);
        db.stream_submit(1, 2, "SELECT b").expect_err("flush hits ENOSPC");
        switch.clear();
        assert_eq!(db.stream_pending(), 0, "the failed batch is gone, unacked");
        assert_eq!(db.system().num_templates(), 0, "nothing applied from a failed flush");
        // The path heals: the next batch lands and replays cleanly.
        db.stream_submit(2, 3, "SELECT c").expect("submit");
        let flush = db.stream_flush().expect("forced flush").expect("report");
        assert_eq!(flush.records, 1);
        drop(db);
        let (db2, report) =
            DurableDbAugur::open_with_vfs(&vfs, Path::new("/state"), cfg()).expect("reopen");
        assert_eq!(report.wal_applied, 1);
        assert_eq!(db2.system().num_templates(), 1);
    }

    #[test]
    fn streamed_and_bulk_ingest_reach_identical_registry_state() {
        let vfs_a: DynVfs = Arc::new(MemVfs::new());
        let vfs_b: DynVfs = Arc::new(MemVfs::new());
        let mut bulk = mem_open(&vfs_a);
        let mut stream = mem_open(&vfs_b);
        stream.stream_enable(GroupCommitConfig { max_records: 7, max_delay_us: 1_000_000 });
        for i in 0..50u64 {
            let sql = format!("SELECT * FROM t{} WHERE id = {i}", i % 4);
            bulk.ingest_record(i, &sql).expect("bulk");
            stream.stream_submit(i, i, &sql).expect("stream");
        }
        stream.stream_flush().expect("barrier");
        let (a, b) = (bulk.system(), stream.system());
        assert_eq!(a.num_templates(), b.num_templates());
        for i in 0..a.num_templates() {
            let id = dbaugur_sqlproc::TemplateId(i as u32);
            assert_eq!(a.registry().template(id), b.registry().template(id));
            assert_eq!(a.registry().count(id), b.registry().count(id));
            assert_eq!(a.registry().last_seen(id), b.registry().last_seen(id));
        }
        assert_eq!(a.applied_seq(), b.applied_seq());
    }
}
