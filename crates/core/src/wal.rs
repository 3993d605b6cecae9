//! Write-ahead log for ingestion between checkpoints.
//!
//! Every record ingested by the durable pipeline is appended here
//! *before* it is applied in memory, so a crash between checkpoints
//! loses nothing: recovery replays the tail of the log on top of the
//! last good snapshot.
//!
//! # On-disk format
//!
//! ```text
//! header:  "DBWL" | version u32
//! record:  len u32 | crc32 u32 | payload
//! payload: seq u64 | kind u8 | body
//! kind 0:  ts_secs u64 | sql str          (one ingested statement)
//! kind 1:  trace                          (one resource trace)
//! ```
//!
//! All integers little-endian; `crc32` covers the payload. Sequence
//! numbers grow monotonically across truncations, and the snapshot
//! stores the last applied sequence — replay skips anything at or
//! below it, making double-replay idempotent.
//!
//! A torn final record (crash mid-append) fails its length or CRC
//! check; replay stops there and reports the salvageable prefix. On
//! open, the torn tail is truncated away so later appends extend the
//! durable prefix rather than burying garbage.

use crate::vfs::{real_vfs, DynVfs, VfsFile};
use dbaugur_sqlproc::StatementHandle;
use dbaugur_trace::wire::{crc32, WireError, WireReader, WireWriter};
use dbaugur_trace::Trace;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// Log file magic.
pub const WAL_MAGIC: &[u8; 4] = b"DBWL";
/// Current format version.
pub const WAL_VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Upper bound on one record's payload (a resource trace with millions
/// of samples still fits; anything larger is corruption).
const MAX_PAYLOAD: u32 = 64 << 20;

/// One durable log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// An ingested statement.
    Record {
        /// Monotonic sequence number.
        seq: u64,
        /// Execution timestamp (seconds).
        ts_secs: u64,
        /// Raw SQL text.
        sql: String,
    },
    /// A registered resource-utilization trace.
    Resource {
        /// Monotonic sequence number.
        seq: u64,
        /// The trace as registered.
        trace: Trace,
    },
}

impl WalEntry {
    /// The entry's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalEntry::Record { seq, .. } | WalEntry::Resource { seq, .. } => *seq,
        }
    }
}

/// Outcome of scanning a log file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Entries with valid framing and checksums, in log order.
    pub entries: Vec<WalEntry>,
    /// Byte length of the valid prefix (header included).
    pub good_len: u64,
    /// True when bytes past `good_len` had to be discarded (torn tail
    /// or corruption).
    pub torn: bool,
}

/// Encode one payload (no framing).
fn encode_payload(seq: u64, body: &WalEntryBody<'_>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(seq);
    match body {
        WalEntryBody::Record { ts_secs, sql } => {
            w.put_u8(0);
            w.put_u64(*ts_secs);
            w.put_str(sql);
        }
        WalEntryBody::Resource { trace } => {
            w.put_u8(1);
            w.put_trace(trace);
        }
    }
    w.into_bytes()
}

enum WalEntryBody<'a> {
    Record { ts_secs: u64, sql: &'a str },
    Resource { trace: &'a Trace },
}

/// Frame a payload as `len | crc | payload` — exposed so crash tests
/// can construct byte-exact logs.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a framed statement record (for tests composing raw logs).
pub fn encode_record(seq: u64, ts_secs: u64, sql: &str) -> Vec<u8> {
    frame_record(&encode_payload(seq, &WalEntryBody::Record { ts_secs, sql }))
}

/// Encode a framed resource-trace record (for tests composing raw logs).
pub fn encode_resource(seq: u64, trace: &Trace) -> Vec<u8> {
    frame_record(&encode_payload(seq, &WalEntryBody::Resource { trace }))
}

/// The 8-byte log header.
pub fn wal_header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

fn decode_payload(payload: &[u8]) -> Result<WalEntry, WireError> {
    let mut r = WireReader::new(payload);
    let seq = r.u64()?;
    let entry = match r.u8()? {
        0 => WalEntry::Record { seq, ts_secs: r.u64()?, sql: r.str()?.to_string() },
        1 => WalEntry::Resource { seq, trace: r.trace()? },
        t => return Err(WireError::BadTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::BadValue("trailing bytes in wal payload"));
    }
    Ok(entry)
}

/// Tally of one streaming scan ([`scan_reader_with`]); the entries
/// themselves go to the sink, so replaying an arbitrarily large log
/// holds at most one record in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalScanSummary {
    /// Valid entries delivered to the sink.
    pub entries: usize,
    /// Sequence number of the last valid entry (0 when none).
    pub last_seq: u64,
    /// Byte length of the valid prefix (header included).
    pub good_len: u64,
    /// True when bytes past `good_len` had to be discarded (torn tail
    /// or corruption).
    pub torn: bool,
}

/// Read until `buf` is full or EOF; returns how many bytes landed.
fn read_full<R: io::Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Stream-scan a log, delivering each valid entry to `sink` as it is
/// decoded. One record is resident at a time (the payload buffer is
/// reused and bounded by `MAX_PAYLOAD`), so replay memory no longer
/// scales with log length. Corruption ends the scan at the last good
/// record — exactly the salvage semantics of [`scan_bytes`].
pub fn scan_reader_with<R, F>(mut r: R, mut sink: F) -> io::Result<WalScanSummary>
where
    R: io::Read,
    F: FnMut(WalEntry),
{
    let empty = WalScanSummary { entries: 0, last_seq: 0, good_len: HEADER_LEN, torn: false };
    let mut header = [0u8; HEADER_LEN as usize];
    let n = read_full(&mut r, &mut header)?;
    if n == 0 {
        return Ok(empty);
    }
    if n < header.len()
        || &header[..4] != WAL_MAGIC
        || u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) != WAL_VERSION
    {
        return Ok(WalScanSummary { torn: true, ..empty });
    }
    let mut sum = empty;
    let mut payload = Vec::new();
    loop {
        let mut frame = [0u8; 8];
        let n = read_full(&mut r, &mut frame)?;
        if n == 0 {
            return Ok(sum);
        }
        if n < frame.len() {
            sum.torn = true;
            return Ok(sum);
        }
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            sum.torn = true;
            return Ok(sum);
        }
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        payload.resize(len as usize, 0);
        let n = read_full(&mut r, &mut payload)?;
        if n < payload.len() || crc32(&payload) != crc {
            sum.torn = true;
            return Ok(sum);
        }
        match decode_payload(&payload) {
            Ok(e) => {
                sum.last_seq = e.seq();
                sum.entries += 1;
                sink(e);
            }
            Err(_) => {
                sum.torn = true;
                return Ok(sum);
            }
        }
        sum.good_len += 8 + len as u64;
    }
}

/// Scan raw log bytes (header included), salvaging the valid prefix.
pub fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut entries = Vec::new();
    let sum =
        scan_reader_with(bytes, |e| entries.push(e)).expect("in-memory reads cannot fail");
    WalScan { entries, good_len: sum.good_len, torn: sum.torn }
}

/// Stream-scan a log file, delivering entries to `sink` one at a time;
/// a missing file is an empty, untorn log. This is the bounded-memory
/// replay path — prefer it over [`scan_file`] anywhere the entries are
/// consumed immediately.
pub fn scan_file_with<F>(path: &Path, sink: F) -> io::Result<WalScanSummary>
where
    F: FnMut(WalEntry),
{
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScanSummary { entries: 0, last_seq: 0, good_len: HEADER_LEN, torn: false })
        }
        Err(e) => return Err(e),
    };
    scan_reader_with(io::BufReader::new(file), sink)
}

/// Scan a log file into memory; a missing file is an empty, untorn log.
/// Materializes every entry — for diagnostics and tests; replay paths
/// should stream with [`scan_file_with`].
pub fn scan_file(path: &Path) -> io::Result<WalScan> {
    let mut entries = Vec::new();
    let sum = scan_file_with(path, |e| entries.push(e))?;
    Ok(WalScan { entries, good_len: sum.good_len, torn: sum.torn })
}

/// Scan a log held by an arbitrary [`crate::vfs::Vfs`], delivering
/// entries to `sink`; a missing file is an empty, untorn log. Unlike
/// [`scan_file_with`] this materializes the file's bytes first — vfs
/// backends are in-memory or fault-wrapped test filesystems where that
/// is the natural access path.
pub fn scan_vfs_with<F>(vfs: &DynVfs, path: &Path, sink: F) -> io::Result<WalScanSummary>
where
    F: FnMut(WalEntry),
{
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScanSummary { entries: 0, last_seq: 0, good_len: HEADER_LEN, torn: false })
        }
        Err(e) => return Err(e),
    };
    scan_reader_with(&bytes[..], sink)
}

/// An append-only, fsynced write-ahead log.
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    next_seq: u64,
    /// Byte length of the durable prefix — everything up to and
    /// including the last fully fsynced record. A failed append can
    /// leave a partial frame past this point; [`Wal::repair_tail`]
    /// rolls the file back to it before a retry.
    durable_len: u64,
    /// Set when an append failed and may have left a partial frame past
    /// `durable_len`. The next append repairs the tail *first*: writing
    /// a good frame after a torn one would strand it — recovery's
    /// salvage scan stops at the first tear, so every later record,
    /// though fsynced and acknowledged, would be silently discarded.
    /// (Found by deterministic simulation: a one-op ENOSPC burst
    /// followed ticks later by a crash tripped the conservation
    /// checker.)
    dirty_tail: bool,
}

impl Wal {
    /// Open (or create) the log at `path`. An existing torn tail is
    /// truncated away; sequence numbering resumes after the highest
    /// durable entry, or after `floor_seq` (the snapshot's applied
    /// sequence) when the log is behind it.
    pub fn open(path: &Path, floor_seq: u64) -> io::Result<Self> {
        // Streaming scan: opening never materializes the log's entries,
        // only the tally (prefix length, last sequence).
        let scan = scan_file_with(path, |_| {})?;
        Self::open_scanned(&real_vfs(), path, floor_seq, scan)
    }

    /// [`Wal::open`] against an arbitrary vfs — the seam fault-injection
    /// soaks use to run the full WAL machinery over [`crate::vfs::MemVfs`]
    /// or a [`crate::vfs::FaultyVfs`] wrapper.
    pub fn open_with(vfs: &DynVfs, path: &Path, floor_seq: u64) -> io::Result<Self> {
        let scan = scan_vfs_with(vfs, path, |_| {})?;
        Self::open_scanned(vfs, path, floor_seq, scan)
    }

    fn open_scanned(
        vfs: &DynVfs,
        path: &Path,
        floor_seq: u64,
        scan: WalScanSummary,
    ) -> io::Result<Self> {
        // Never truncate on open: the tail-repair below keeps every good
        // entry and drops only a torn final record.
        let mut file = vfs.open_append(path)?;
        let len = file.len()?;
        let durable_len = if len < HEADER_LEN {
            file.set_len(0)?;
            file.write_all(&wal_header())?;
            file.sync_all()?;
            HEADER_LEN
        } else if scan.good_len < len {
            file.set_len(scan.good_len)?;
            file.sync_all()?;
            scan.good_len
        } else {
            len
        };
        file.seek_end()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            next_seq: scan.last_seq.max(floor_seq) + 1,
            durable_len,
            dirty_tail: false,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn append(&mut self, payload: Vec<u8>) -> io::Result<u64> {
        if self.dirty_tail {
            self.repair_tail()?;
        }
        let seq = self.next_seq;
        let framed = frame_record(&payload);
        if let Err(e) = self.file.write_all(&framed).and_then(|()| self.file.sync_all()) {
            self.dirty_tail = true;
            return Err(e);
        }
        self.next_seq += 1;
        self.durable_len += framed.len() as u64;
        Ok(seq)
    }

    /// Roll the file back to the last durable record boundary,
    /// discarding any partial frame a failed append left behind. Called
    /// by the durable layer before retrying a transient append failure,
    /// and by [`append`](Self::append) itself when the previous append
    /// failed; a no-op when the file already ends on the boundary.
    pub fn repair_tail(&mut self) -> io::Result<()> {
        if self.file.len()? != self.durable_len {
            self.file.set_len(self.durable_len)?;
            self.file.sync_all()?;
        }
        self.file.seek_end()?;
        self.dirty_tail = false;
        Ok(())
    }

    /// Durably append one ingested statement; returns its sequence.
    pub fn append_record(&mut self, ts_secs: u64, sql: &str) -> io::Result<u64> {
        let payload = encode_payload(self.next_seq, &WalEntryBody::Record { ts_secs, sql });
        self.append(payload)
    }

    /// Durably append one resource trace; returns its sequence.
    pub fn append_resource(&mut self, trace: &Trace) -> io::Result<u64> {
        let payload = encode_payload(self.next_seq, &WalEntryBody::Resource { trace });
        self.append(payload)
    }

    /// Durably append a whole batch of ingested statements with **one**
    /// `write` and **one** fsync — the group-commit primitive. Records
    /// take consecutive sequences starting at the returned value.
    ///
    /// Each record keeps its own length + CRC frame, so a batch torn
    /// mid-write salvages exactly like any other torn tail: the scan
    /// replays every fully-framed prefix record and truncates the rest.
    /// On failure nothing is acknowledged — the sequence counter and
    /// durable length are untouched and the next append repairs the
    /// tail first — so callers uphold acked-only-after-fsync by simply
    /// not acking until this returns `Ok`.
    pub fn append_record_batch(&mut self, entries: &[(u64, String)]) -> io::Result<u64> {
        if self.dirty_tail {
            self.repair_tail()?;
        }
        let first = self.next_seq;
        let mut buf = Vec::new();
        for (i, (ts_secs, sql)) in entries.iter().enumerate() {
            let payload = encode_payload(
                first + i as u64,
                &WalEntryBody::Record { ts_secs: *ts_secs, sql: sql.as_str() },
            );
            buf.extend_from_slice(&frame_record(&payload));
        }
        if entries.is_empty() {
            return Ok(first);
        }
        if let Err(e) = self.file.write_all(&buf).and_then(|()| self.file.sync_all()) {
            self.dirty_tail = true;
            return Err(e);
        }
        self.next_seq += entries.len() as u64;
        self.durable_len += buf.len() as u64;
        Ok(first)
    }

    /// Drop every entry (after a successful checkpoint made them
    /// redundant). Sequence numbering keeps growing.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(HEADER_LEN)?;
        self.file.seek_end()?;
        self.file.sync_all()?;
        self.durable_len = HEADER_LEN;
        self.dirty_tail = false;
        Ok(())
    }

    /// Current byte length of the log file.
    pub fn len_bytes(&self) -> io::Result<u64> {
        self.file.len()
    }
}

/// Group-commit coalescing policy: flush the pending batch once it
/// holds `max_records` records or once its oldest record has waited
/// `max_delay_us` microseconds (virtual time — the caller supplies the
/// clock, so deterministic simulation replays exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Records per fsync at most; reaching it flushes immediately.
    pub max_records: usize,
    /// Longest a submitted record may sit unflushed (and therefore
    /// unacked), in virtual microseconds.
    pub max_delay_us: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        // 64 records ≈ the tree-rebuild amortization grain elsewhere;
        // 2 ms keeps worst-case ack latency well under a tick.
        Self { max_records: 64, max_delay_us: 2_000 }
    }
}

/// The bounded append buffer in front of a [`Wal`]: records accumulate
/// here between fsyncs and are only acknowledged when a flush writes
/// the whole batch with [`Wal::append_record_batch`]. The buffer holds
/// raw `(ts, sql)` submissions, not encoded frames, so a failed flush
/// leaves nothing half-assigned: sequences are taken from the WAL at
/// flush time. Each record's [`StatementHandle`] waits beside it, so
/// the post-fsync apply reuses what the front door already parsed.
#[derive(Debug)]
pub struct GroupCommitBuffer {
    cfg: GroupCommitConfig,
    /// The batch in the shape [`Wal::append_record_batch`] takes; this
    /// is the one owned copy of each statement's text.
    pending: Vec<(u64, String)>,
    /// `handles[i]` was made from `pending[i].1`.
    handles: Vec<StatementHandle>,
    /// Virtual timestamp of the oldest pending submit.
    oldest_us: u64,
}

impl GroupCommitBuffer {
    /// An empty buffer under `cfg`.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        Self { cfg, pending: Vec::new(), handles: Vec::new(), oldest_us: 0 }
    }

    /// The policy in force.
    pub fn config(&self) -> GroupCommitConfig {
        self.cfg
    }

    /// Buffer one record submitted at virtual time `now_us`, with the
    /// handle made from `sql`.
    pub fn submit(&mut self, now_us: u64, ts_secs: u64, sql: &str, stmt: StatementHandle) {
        if self.pending.is_empty() {
            self.oldest_us = now_us;
        }
        self.pending.push((ts_secs, sql.to_owned()));
        self.handles.push(stmt);
    }

    /// True once the batch reached its record cap.
    pub fn size_due(&self) -> bool {
        self.cfg.max_records > 0 && self.pending.len() >= self.cfg.max_records
    }

    /// True once the oldest pending record has waited out the delay.
    pub fn timer_due(&self, now_us: u64) -> bool {
        !self.pending.is_empty() && now_us.saturating_sub(self.oldest_us) >= self.cfg.max_delay_us
    }

    /// Pending (unflushed, unacked) record count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drain the batch — records and, index for index, their handles —
    /// for a flush attempt. The caller owns the records from here: on a
    /// successful [`Wal::append_record_batch`] they are acked; on
    /// failure they are dropped *unacked* (exactly the bulk path's
    /// contract when a single append exhausts its retries).
    pub fn take(&mut self) -> (Vec<(u64, String)>, Vec<StatementHandle>) {
        (std::mem::take(&mut self.pending), std::mem::take(&mut self.handles))
    }
}

/// Histogram bucket for a records-per-fsync count: power-of-two rungs
/// `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+` → indices `0..8`.
pub fn group_batch_bucket(records: usize) -> usize {
    (records.max(1).next_power_of_two().trailing_zeros() as usize).min(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dbag-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.dbwl");
        let mut wal = Wal::open(&path, 0).expect("open");
        let s1 = wal.append_record(5, "SELECT 1").expect("append");
        let s2 = wal.append_resource(&Trace::resource("cpu", vec![0.5, 0.6])).expect("append");
        assert!(s2 > s1);
        let scan = scan_file(&path).expect("scan");
        assert!(!scan.torn);
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.entries[0], WalEntry::Record { seq: s1, ts_secs: 5, sql: "SELECT 1".into() });
        match &scan.entries[1] {
            WalEntry::Resource { seq, trace } => {
                assert_eq!(*seq, s2);
                assert_eq!(trace.values(), &[0.5, 0.6]);
            }
            other => panic!("expected resource, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan_file(Path::new("/nonexistent/dbaugur/wal.dbwl")).expect("scan");
        assert!(scan.entries.is_empty());
        assert!(!scan.torn);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.dbwl");
        let mut wal = Wal::open(&path, 0).expect("open");
        wal.append_record(1, "SELECT a").expect("append");
        wal.append_record(2, "SELECT b").expect("append");
        drop(wal);
        // Crash mid-append: half a record lands.
        let good = std::fs::read(&path).expect("read");
        let torn = [&good[..], &encode_record(3, 3, "SELECT torn")[..7]].concat();
        std::fs::write(&path, &torn).expect("write torn");

        let scan = scan_file(&path).expect("scan");
        assert!(scan.torn);
        assert_eq!(scan.entries.len(), 2, "prefix salvaged");
        assert_eq!(scan.good_len as usize, good.len());

        // Reopen truncates the tail and appends continue cleanly.
        let mut wal = Wal::open(&path, 0).expect("reopen");
        assert_eq!(wal.next_seq(), 3);
        wal.append_record(4, "SELECT c").expect("append after repair");
        let scan = scan_file(&path).expect("rescan");
        assert!(!scan.torn);
        assert_eq!(scan.entries.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_invalidates_crc() {
        let dir = tmpdir("crc");
        let path = dir.join("wal.dbwl");
        let mut wal = Wal::open(&path, 0).expect("open");
        wal.append_record(1, "SELECT a").expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let scan = scan_bytes(&bytes);
        assert!(scan.torn);
        assert!(scan.entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_keeps_sequence_monotonic() {
        let dir = tmpdir("truncate");
        let path = dir.join("wal.dbwl");
        let mut wal = Wal::open(&path, 0).expect("open");
        let s1 = wal.append_record(1, "SELECT a").expect("append");
        wal.truncate().expect("truncate");
        assert_eq!(scan_file(&path).expect("scan").entries.len(), 0);
        let s2 = wal.append_record(2, "SELECT b").expect("append");
        assert!(s2 > s1, "sequences never reused: {s1} then {s2}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn floor_seq_advances_numbering_past_snapshot() {
        let dir = tmpdir("floor");
        let path = dir.join("wal.dbwl");
        let wal = Wal::open(&path, 41).expect("open");
        assert_eq!(wal.next_seq(), 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_is_salvageable() {
        // The crash matrix in miniature: cutting the log at *any* byte
        // yields a scan that never panics and salvages exactly the
        // records that were fully framed before the cut.
        let mut bytes = wal_header().to_vec();
        let mut boundaries = vec![bytes.len()];
        for i in 0..5u64 {
            bytes.extend_from_slice(&encode_record(i + 1, i * 10, &format!("SELECT {i}")));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(scan.entries.len(), expect, "cut at {cut}");
            assert_eq!(scan.torn, cut != 0 && !boundaries.contains(&cut), "cut at {cut}");
        }
    }

    #[test]
    fn repair_tail_discards_partial_frame_and_appends_continue() {
        let dir = tmpdir("repair");
        let path = dir.join("wal.dbwl");
        let mut wal = Wal::open(&path, 0).expect("open");
        wal.append_record(1, "SELECT a").expect("append");
        // Simulate a failed append that wrote half a frame: bytes land
        // past the durable boundary without the bookkeeping advancing.
        wal.file.write_all(&[0xDE, 0xAD, 0xBE]).expect("raw write");
        wal.file.sync_all().expect("sync");
        wal.repair_tail().expect("repair");
        let scan = scan_file(&path).expect("scan");
        assert!(!scan.torn, "repair removed the garbage");
        assert_eq!(scan.entries.len(), 1);
        // The retried append goes through cleanly on the repaired tail.
        wal.append_record(2, "SELECT b").expect("append after repair");
        let scan = scan_file(&path).expect("rescan");
        assert!(!scan.torn);
        assert_eq!(scan.entries.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_over_mem_vfs_roundtrips() {
        use crate::vfs::{DynVfs, MemVfs};
        use std::sync::Arc;
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let path = Path::new("/shard-0/wal.dbwl");
        let mut wal = Wal::open_with(&vfs, path, 0).expect("open");
        let s1 = wal.append_record(5, "SELECT 1").expect("append");
        drop(wal);
        // Reopen resumes numbering from the durable state.
        let mut wal = Wal::open_with(&vfs, path, 0).expect("reopen");
        assert_eq!(wal.next_seq(), s1 + 1);
        wal.append_record(6, "SELECT 2").expect("append");
        let mut n = 0;
        let sum = scan_vfs_with(&vfs, path, |_| n += 1).expect("scan");
        assert_eq!((n, sum.torn), (2, false));
    }

    #[test]
    fn enospc_mid_append_repairs_and_retries() {
        use crate::vfs::{DynVfs, FaultKind, FaultSwitch, FaultyVfs, MemVfs};
        use std::sync::Arc;
        let switch = FaultSwitch::new();
        let vfs: DynVfs = Arc::new(FaultyVfs::new(Arc::new(MemVfs::new()), Arc::clone(&switch)));
        let path = Path::new("/shard-0/wal.dbwl");
        let mut wal = Wal::open_with(&vfs, path, 0).expect("open");
        wal.append_record(1, "SELECT a").expect("clean append");

        // The disk fills mid-append: half a frame lands, errno 28 surfaces.
        switch.arm(FaultKind::Enospc, 1);
        let e = wal.append_record(2, "SELECT b").expect_err("enospc");
        assert!(crate::vfs::is_enospc(&e));
        let sum = scan_vfs_with(&vfs, path, |_| {}).expect("scan");
        assert!(sum.torn, "partial frame visible as torn tail");
        assert_eq!(sum.entries, 1, "acknowledged prefix intact");

        // Space returns: repair the tail, retry, and the log is whole.
        wal.repair_tail().expect("repair");
        wal.append_record(2, "SELECT b").expect("retry succeeds");
        let mut seqs = Vec::new();
        let sum = scan_vfs_with(&vfs, path, |e| seqs.push(e.seq())).expect("scan");
        assert!(!sum.torn);
        // The failed append never became durable, so its sequence is
        // reissued to the retry — no gap, no duplicate.
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn append_after_unrepaired_failure_heals_the_torn_middle() {
        // Found by deterministic simulation: when a failed append is
        // *not* retried (the record is shed instead), the partial frame
        // it left must not strand later appends behind a torn middle —
        // recovery's salvage scan stops at the first tear, so every
        // record after it, though fsynced and acknowledged, would be
        // lost at the next crash.
        use crate::vfs::{DynVfs, FaultKind, FaultSwitch, FaultyVfs, MemVfs};
        use std::sync::Arc;
        let switch = FaultSwitch::new();
        let vfs: DynVfs = Arc::new(FaultyVfs::new(Arc::new(MemVfs::new()), Arc::clone(&switch)));
        let path = Path::new("/shard-0/wal.dbwl");
        let mut wal = Wal::open_with(&vfs, path, 0).expect("open");
        wal.append_record(1, "SELECT a").expect("clean append");

        switch.arm(FaultKind::Enospc, 1);
        wal.append_record(2, "SELECT shed").expect_err("enospc");
        // No explicit repair_tail: the caller gave up on this record.
        // The next append must first roll the tail back itself.
        wal.append_record(3, "SELECT b").expect("append self-heals");
        wal.append_record(4, "SELECT c").expect("append");

        let mut records = Vec::new();
        let sum = scan_vfs_with(&vfs, path, |e| records.push(e.seq())).expect("scan");
        assert!(!sum.torn, "no torn frame may sit between good records");
        assert_eq!(records, vec![1, 2, 3], "every acknowledged record survives the scan");
    }

    #[test]
    fn alien_header_is_rejected() {
        let scan = scan_bytes(b"GARBAGEFILE....");
        assert!(scan.torn);
        assert!(scan.entries.is_empty());
        let scan = scan_bytes(&[]);
        assert!(scan.entries.is_empty());
        assert!(!scan.torn);
    }

    #[test]
    fn batch_append_matches_single_appends_byte_for_byte() {
        use crate::vfs::{DynVfs, MemVfs, Vfs};
        use std::sync::Arc;
        let mem = Arc::new(MemVfs::new());
        let vfs: DynVfs = mem.clone();
        let entries: Vec<(u64, String)> =
            (0..5).map(|i| (10 + i, format!("SELECT {i}"))).collect();

        let mut one = Wal::open_with(&vfs, Path::new("/one.dbwl"), 0).expect("open");
        for (ts, sql) in &entries {
            one.append_record(*ts, sql).expect("append");
        }
        let mut batch = Wal::open_with(&vfs, Path::new("/batch.dbwl"), 0).expect("open");
        let first = batch.append_record_batch(&entries).expect("batch");
        assert_eq!(first, 1, "sequences start after the floor");
        assert_eq!(batch.next_seq(), one.next_seq());
        assert_eq!(
            mem.read(Path::new("/one.dbwl")).expect("read"),
            mem.read(Path::new("/batch.dbwl")).expect("read"),
            "group commit changes fsync cadence, never bytes"
        );
    }

    #[test]
    fn torn_batch_salvages_its_framed_prefix() {
        use crate::vfs::{DynVfs, MemVfs, Vfs};
        use std::sync::Arc;
        let mem = Arc::new(MemVfs::new());
        let vfs: DynVfs = mem.clone();
        let path = Path::new("/wal.dbwl");
        let mut wal = Wal::open_with(&vfs, path, 0).expect("open");
        wal.append_record(1, "SELECT before").expect("append");
        let flushed_len = wal.len_bytes().expect("len");
        let entries: Vec<(u64, String)> =
            (0..8).map(|i| (100 + i, format!("SELECT batch {i}"))).collect();
        wal.append_record_batch(&entries).expect("batch");
        let bytes = mem.read(path).expect("read");

        // Cut at every byte inside the batch region: the salvage keeps
        // the pre-batch record plus every fully-framed batch record.
        for cut in flushed_len as usize..bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            assert!(scan.entries.len() >= 1, "cut {cut}: the flushed record survives");
            if scan.torn {
                assert!(scan.entries.len() < 1 + 8, "cut {cut}: a torn scan lost the tail");
            } else {
                assert_eq!(scan.good_len, cut as u64, "cut {cut}: clean cuts sit on a frame edge");
            }
            for (i, e) in scan.entries.iter().enumerate() {
                assert_eq!(e.seq(), 1 + i as u64, "cut {cut}: prefix records replay in order");
            }
        }
        let whole = scan_bytes(&bytes);
        assert!(!whole.torn);
        assert_eq!(whole.entries.len(), 9);
    }

    #[test]
    fn failed_batch_append_acks_nothing_and_heals() {
        use crate::vfs::{DynVfs, FaultKind, FaultSwitch, FaultyVfs, MemVfs};
        use std::sync::Arc;
        let switch = FaultSwitch::new();
        let vfs: DynVfs = Arc::new(FaultyVfs::new(Arc::new(MemVfs::new()), Arc::clone(&switch)));
        let path = Path::new("/wal.dbwl");
        let mut wal = Wal::open_with(&vfs, path, 0).expect("open");
        wal.append_record(1, "SELECT a").expect("append");
        let entries: Vec<(u64, String)> =
            (0..4).map(|i| (i, format!("SELECT doomed {i}"))).collect();
        switch.arm(FaultKind::ShortWrite, 1);
        wal.append_record_batch(&entries).expect_err("short write fails the flush");
        assert_eq!(wal.next_seq(), 2, "no sequence consumed by the failed batch");
        // The next batch self-heals the torn tail and lands cleanly.
        let ok: Vec<(u64, String)> = vec![(7, "SELECT after".into())];
        let first = wal.append_record_batch(&ok).expect("self-heals");
        assert_eq!(first, 2);
        let mut seqs = Vec::new();
        let sum = scan_vfs_with(&vfs, path, |e| seqs.push(e.seq())).expect("scan");
        assert!(!sum.torn);
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dir = tmpdir("emptybatch");
        let path = dir.join("wal.dbwl");
        let mut wal = Wal::open(&path, 0).expect("open");
        let first = wal.append_record_batch(&[]).expect("empty");
        assert_eq!(first, wal.next_seq());
        assert_eq!(wal.len_bytes().expect("len"), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_buffer_policy_triggers() {
        let cfg = GroupCommitConfig { max_records: 3, max_delay_us: 100 };
        let mut buf = GroupCommitBuffer::new(cfg);
        assert!(buf.is_empty() && !buf.size_due() && !buf.timer_due(1_000_000));
        let submit = |buf: &mut GroupCommitBuffer, now_us, ts, sql: &str| {
            buf.submit(now_us, ts, sql, StatementHandle::of(sql));
        };
        submit(&mut buf, 50, 1, "SELECT a");
        assert!(!buf.size_due());
        assert!(!buf.timer_due(149), "49 µs elapsed, delay is 100");
        assert!(buf.timer_due(150), "oldest waited the full delay");
        submit(&mut buf, 60, 2, "SELECT b");
        submit(&mut buf, 70, 3, "SELECT c");
        assert!(buf.size_due());
        let (batch, handles) = buf.take();
        assert_eq!(batch.len(), 3);
        for ((_, sql), stmt) in batch.iter().zip(&handles) {
            assert_eq!(stmt.fingerprint(), dbaugur_sqlproc::fingerprint(sql));
        }
        assert!(buf.is_empty() && !buf.size_due());
        // The timer tracks the *new* oldest after a drain.
        submit(&mut buf, 500, 4, "SELECT d");
        assert!(!buf.timer_due(599));
        assert!(buf.timer_due(600));
    }

    #[test]
    fn batch_histogram_buckets() {
        assert_eq!(group_batch_bucket(0), 0);
        assert_eq!(group_batch_bucket(1), 0);
        assert_eq!(group_batch_bucket(2), 1);
        assert_eq!(group_batch_bucket(3), 2);
        assert_eq!(group_batch_bucket(4), 2);
        assert_eq!(group_batch_bucket(5), 3);
        assert_eq!(group_batch_bucket(8), 3);
        assert_eq!(group_batch_bucket(16), 4);
        assert_eq!(group_batch_bucket(33), 6);
        assert_eq!(group_batch_bucket(64), 6);
        assert_eq!(group_batch_bucket(65), 7);
        assert_eq!(group_batch_bucket(10_000), 7);
    }
}
