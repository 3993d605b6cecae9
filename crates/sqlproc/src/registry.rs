//! Template registry: accumulates observations and emits arrival-rate
//! traces (the "query trace" `W(Q)` of Definition 1).

use crate::canon::canonicalize;
use crate::statement::StatementHandle;
use dbaugur_trace::wire::{WireError, WireReader, WireWriter};
use dbaugur_trace::{Trace, TraceKind, TraceSet};
use std::collections::HashMap;

/// Opaque identifier of a query template within one registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Approximate fixed per-template bookkeeping cost (map entry, vec
/// headers, id) used by the registry's byte accounting.
const TEMPLATE_OVERHEAD: usize = 96;

/// Outcome of one [`TemplateRegistry::evict_cold`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvictionReport {
    /// Templates whose observation history was evicted this pass.
    pub evicted_templates: usize,
    /// Approximate bytes released.
    pub bytes_freed: usize,
    /// Wire-encoded evicted histories, for spilling into a snapshot so
    /// the history is recallable ([`TemplateRegistry::restore_spill`]).
    /// `None` when nothing was evicted.
    pub spill: Option<Vec<u8>>,
}

/// Maps raw SQL statements to canonical templates and records each
/// observation's timestamp so arrival-rate traces can be binned later.
///
/// # Memory governance
///
/// The registry byte-accounts itself (approximately: template strings,
/// per-template overhead, 8 bytes per observation). Long-running
/// services bound it two ways:
///
/// * [`set_observation_cap`] caps each template's in-memory history —
///   when exceeded, the oldest half is dropped (counted, never silent);
/// * [`evict_cold`] drops whole observation histories coldest-first
///   (least-recently-seen, then smallest) until the registry fits a
///   byte target, returning the evicted state as a wire-encoded spill
///   blob so a snapshot can keep it recallable.
///
/// Template strings and ids are never evicted: ids must stay stable
/// for trained models, and the strings are what make an evicted
/// template recognizable when it comes back.
///
/// [`set_observation_cap`]: TemplateRegistry::set_observation_cap
/// [`evict_cold`]: TemplateRegistry::evict_cold
#[derive(Debug)]
pub struct TemplateRegistry {
    by_template: HashMap<String, TemplateId>,
    templates: Vec<String>,
    /// Observation timestamps (seconds) per template.
    observations: Vec<Vec<u64>>,
    /// Most recent observation timestamp per template (0 = never).
    last_seen: Vec<u64>,
    /// Per-template in-memory observation cap (None = unbounded).
    obs_cap: Option<usize>,
    /// Incrementally maintained approximate footprint in bytes.
    approx_bytes: usize,
    /// Observations dropped by the cap (cumulative).
    dropped_observations: u64,
    /// Template histories evicted by `evict_cold` (cumulative).
    evicted_templates: u64,
    /// Bounded fingerprint → id cache backing [`observe_parsed`]: the
    /// O(1) fast path past the full canonicalizer. Advisory only —
    /// entries never dangle (ids are stable for the registry's life)
    /// and clearing it costs nothing but recomputation.
    ///
    /// [`observe_parsed`]: TemplateRegistry::observe_parsed
    fp_cache: HashMap<u64, TemplateId>,
    /// Cache capacity; at the cap the whole cache is reset (wholesale
    /// reset keeps the bound O(1) amortized and needs no LRU links).
    fp_cache_cap: usize,
    /// Fast-path statements answered from the fingerprint cache.
    fp_hits: u64,
    /// Fast-path statements that fell back to the full canonicalizer.
    fp_misses: u64,
    /// Templates that gained observations since the last
    /// [`take_touched`](TemplateRegistry::take_touched), each listed
    /// once, in first-touch order. Bounded by the template count.
    touched: Vec<TemplateId>,
    /// `touched` membership, indexed by template id.
    is_touched: Vec<bool>,
}

/// Default fingerprint-cache capacity: big enough that realistic
/// workloads (thousands of distinct skeletons) never cycle, small
/// enough (~40 B/entry → ~320 KiB) to stay a rounding error against
/// the registry's observation footprint.
const FP_CACHE_CAP: usize = 8192;

/// Approximate bytes one fingerprint-cache entry costs (key + id +
/// hash-map overhead), folded into [`TemplateRegistry::approx_bytes`]
/// so the memory arbiter sees the cache too.
const FP_ENTRY_BYTES: usize = 40;

impl Default for TemplateRegistry {
    fn default() -> Self {
        Self {
            by_template: HashMap::new(),
            templates: Vec::new(),
            observations: Vec::new(),
            last_seen: Vec::new(),
            obs_cap: None,
            approx_bytes: 0,
            dropped_observations: 0,
            evicted_templates: 0,
            fp_cache: HashMap::new(),
            fp_cache_cap: FP_CACHE_CAP,
            fp_hits: 0,
            fp_misses: 0,
            touched: Vec::new(),
            is_touched: Vec::new(),
        }
    }
}

impl TemplateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one executed statement at `ts_secs`, returning its template
    /// id (allocating a new template when the canonical form is unseen).
    pub fn observe(&mut self, sql: &str, ts_secs: u64) -> TemplateId {
        let canonical = canonicalize(sql);
        let id = self.intern(canonical);
        self.record(id, ts_secs);
        id
    }

    /// The streaming fast path over a bare statement: a one-line adapter
    /// that parses `sql` into a [`StatementHandle`] and hands it to
    /// [`observe_parsed`](TemplateRegistry::observe_parsed).
    pub fn observe_streamed(&mut self, sql: &str, ts_secs: u64) -> TemplateId {
        self.observe_parsed(sql, StatementHandle::of(sql), ts_secs)
    }

    /// Record one statement whose parse results arrive with it: repeat
    /// token skeletons are answered from the bounded fingerprint cache,
    /// and on a miss the canonical form is taken from `stmt` if an
    /// earlier layer (the shard router) already computed it — the
    /// canonicalizer runs here only when nobody has. `stmt` must have
    /// been made from `sql`. Produces exactly the same template ids,
    /// observations, and `approx_bytes` growth as [`observe`] (plus the
    /// bounded cache itself), so bulk and streamed ingest of the same
    /// records reach identical state.
    ///
    /// [`observe`]: TemplateRegistry::observe
    pub fn observe_parsed(
        &mut self,
        sql: &str,
        stmt: StatementHandle,
        ts_secs: u64,
    ) -> TemplateId {
        debug_assert_eq!(
            stmt.fingerprint(),
            crate::fingerprint(sql),
            "a statement handle travels with the statement it was made from"
        );
        let fp = stmt.fingerprint();
        if let Some(&id) = self.fp_cache.get(&fp) {
            self.fp_hits += 1;
            self.record(id, ts_secs);
            return id;
        }
        self.fp_misses += 1;
        let id = self.intern(stmt.into_canonical(sql));
        self.record(id, ts_secs);
        if self.fp_cache_cap == 0 {
            return id;
        }
        if self.fp_cache.len() >= self.fp_cache_cap {
            // Wholesale reset: O(1) amortized, no LRU bookkeeping. The
            // next few statements re-warm as misses.
            self.approx_bytes =
                self.approx_bytes.saturating_sub(FP_ENTRY_BYTES * self.fp_cache.len());
            self.fp_cache.clear();
        }
        self.fp_cache.insert(fp, id);
        self.approx_bytes += FP_ENTRY_BYTES;
        id
    }

    /// Statements the fingerprint fast path answered without
    /// canonicalizing (cumulative).
    pub fn template_cache_hits(&self) -> u64 {
        self.fp_hits
    }

    /// Statements the fast path handed to the full canonicalizer
    /// (cumulative; also counts every bulk-path statement as zero —
    /// only [`observe_parsed`] touches the cache).
    ///
    /// [`observe_parsed`]: TemplateRegistry::observe_parsed
    pub fn template_cache_misses(&self) -> u64 {
        self.fp_misses
    }

    /// Override the fingerprint-cache capacity (0 disables the cache;
    /// every streamed statement then canonicalizes).
    pub fn set_template_cache_cap(&mut self, cap: usize) {
        self.fp_cache_cap = cap;
        if self.fp_cache.len() > cap {
            self.approx_bytes =
                self.approx_bytes.saturating_sub(FP_ENTRY_BYTES * self.fp_cache.len());
            self.fp_cache.clear();
        }
    }

    /// Intern a canonical template string, returning its stable id.
    fn intern(&mut self, canonical: String) -> TemplateId {
        match self.by_template.get(&canonical) {
            Some(&id) => id,
            None => {
                let id = TemplateId(self.templates.len() as u32);
                // The string is stored twice: map key and roster slot.
                self.approx_bytes += 2 * canonical.len() + TEMPLATE_OVERHEAD;
                self.by_template.insert(canonical.clone(), id);
                self.templates.push(canonical);
                self.observations.push(Vec::new());
                self.last_seen.push(0);
                self.is_touched.push(false);
                id
            }
        }
    }

    /// Note that `slot` gained observations since the last drain.
    fn touch(&mut self, slot: usize) {
        if !self.is_touched[slot] {
            self.is_touched[slot] = true;
            self.touched.push(TemplateId(slot as u32));
        }
    }

    /// Drain the list of templates that gained observations (streamed,
    /// bulk, replayed, decoded or restored from a spill) since the
    /// previous call. This is what lets a consumer that closes arrival
    /// bins visit only the templates that can have a non-zero count
    /// instead of every template in the registry.
    pub fn take_touched(&mut self) -> Vec<TemplateId> {
        for id in &self.touched {
            self.is_touched[id.0 as usize] = false;
        }
        std::mem::take(&mut self.touched)
    }

    /// Append one observation to an already-interned template.
    fn record(&mut self, id: TemplateId, ts_secs: u64) {
        let slot = id.0 as usize;
        self.touch(slot);
        self.observations[slot].push(ts_secs);
        self.approx_bytes += 8;
        if ts_secs > self.last_seen[slot] {
            self.last_seen[slot] = ts_secs;
        }
        if let Some(cap) = self.obs_cap {
            let obs = &mut self.observations[slot];
            if obs.len() > cap {
                // Drop the oldest half (insertion order) so the cap
                // costs amortized O(1) per observe, not O(cap).
                let keep = cap.div_ceil(2);
                let drop = obs.len() - keep;
                obs.drain(..drop);
                obs.shrink_to_fit();
                self.dropped_observations += drop as u64;
                self.approx_bytes = self.approx_bytes.saturating_sub(8 * drop);
            }
        }
    }

    /// Observations of template `id` with timestamps in `[start, end)`,
    /// counted from the resident history's tail (observations arrive in
    /// roughly ascending order, so a recent bin costs O(bin), not
    /// O(history)). The streaming front door uses this to feed closed
    /// arrival-rate bins to trained ensembles incrementally.
    pub fn arrivals_between(&self, id: TemplateId, start_secs: u64, end_secs: u64) -> u64 {
        let slot = id.0 as usize;
        let Some(obs) = self.observations.get(slot) else { return 0 };
        let mut n = 0u64;
        for &ts in obs.iter().rev() {
            if ts >= end_secs {
                continue;
            }
            if ts < start_secs {
                // History is appended in arrival order; once the scan
                // crosses below `start` only out-of-order stragglers
                // could match, and those are bounded by log jitter.
                break;
            }
            n += 1;
        }
        n
    }

    /// Cap each template's in-memory observation history. When a push
    /// exceeds the cap, the oldest half is dropped and counted in
    /// [`dropped_observations`]. Applies to future observes only.
    ///
    /// [`dropped_observations`]: TemplateRegistry::dropped_observations
    pub fn set_observation_cap(&mut self, cap: usize) {
        self.obs_cap = Some(cap.max(1));
    }

    /// Approximate resident footprint in bytes (strings, overhead,
    /// 8 bytes per observation). Maintained incrementally.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Observations dropped by the per-template cap (cumulative).
    pub fn dropped_observations(&self) -> u64 {
        self.dropped_observations
    }

    /// Template histories evicted by [`evict_cold`] (cumulative).
    ///
    /// [`evict_cold`]: TemplateRegistry::evict_cold
    pub fn evicted_template_count(&self) -> u64 {
        self.evicted_templates
    }

    /// Most recent observation timestamp for `id` (0 = never seen).
    /// Tolerant of ids this registry never allocated (returns 0):
    /// foreign ids arrive through migration rosters and spill blobs,
    /// and a damaged blob must degrade, not panic.
    pub fn last_seen(&self, id: TemplateId) -> u64 {
        self.last_seen.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Evict cold observation histories until the approximate footprint
    /// fits `target_bytes`. Coldest first: least-recently-seen, ties
    /// broken by fewest observations, then id. Evicted histories are
    /// returned wire-encoded in the report's `spill` so callers can
    /// persist them; the template strings and ids stay resident (stable
    /// ids, recognizable returns).
    pub fn evict_cold(&mut self, target_bytes: usize) -> EvictionReport {
        if self.approx_bytes <= target_bytes {
            return EvictionReport::default();
        }
        let mut order: Vec<usize> = (0..self.templates.len())
            .filter(|&i| !self.observations[i].is_empty())
            .collect();
        order.sort_by_key(|&i| (self.last_seen[i], self.observations[i].len(), i));
        let mut evicted: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut freed = 0usize;
        for i in order {
            if self.approx_bytes <= target_bytes {
                break;
            }
            let obs = std::mem::take(&mut self.observations[i]);
            let bytes = 8 * obs.len();
            self.approx_bytes = self.approx_bytes.saturating_sub(bytes);
            freed += bytes;
            evicted.push((i, obs));
        }
        self.evicted_templates += evicted.len() as u64;
        let spill = if evicted.is_empty() {
            None
        } else {
            let mut w = WireWriter::new();
            w.put_u32(evicted.len() as u32);
            for (i, obs) in &evicted {
                w.put_u32(*i as u32);
                w.put_u64_seq(obs);
            }
            Some(w.into_bytes())
        };
        EvictionReport { evicted_templates: evicted.len(), bytes_freed: freed, spill }
    }

    /// Drop one template's observation history (the template string and
    /// id stay resident, exactly as after [`evict_cold`]). Returns the
    /// number of observations dropped. Unlike `evict_cold` this is
    /// surgical: siblings are untouched, which is what a partial
    /// migration's source drain needs — it must drop exactly the
    /// histories the destination now durably owns, nothing else.
    ///
    /// [`evict_cold`]: TemplateRegistry::evict_cold
    pub fn drop_observations(&mut self, id: TemplateId) -> usize {
        let slot = id.0 as usize;
        if slot >= self.observations.len() {
            return 0;
        }
        let obs = std::mem::take(&mut self.observations[slot]);
        if obs.is_empty() {
            return 0;
        }
        self.approx_bytes = self.approx_bytes.saturating_sub(8 * obs.len());
        self.evicted_templates += 1;
        obs.len()
    }

    /// Restore observation histories evicted by [`evict_cold`] from a
    /// spill blob. Restored timestamps are prepended (they predate
    /// anything observed since the eviction). Returns the number of
    /// templates restored.
    ///
    /// # Errors
    /// Fails on a damaged blob or an id this registry never allocated;
    /// nothing is partially applied on error before the bad entry.
    ///
    /// [`evict_cold`]: TemplateRegistry::evict_cold
    pub fn restore_spill(&mut self, bytes: &[u8]) -> Result<usize, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut restored = 0;
        for _ in 0..n {
            let id = r.u32()? as usize;
            let obs = r.u64_seq()?;
            if id >= self.observations.len() {
                return Err(WireError::BadValue("spill template id out of range"));
            }
            self.approx_bytes += 8 * obs.len();
            if let Some(&max) = obs.iter().max() {
                if max > self.last_seen[id] {
                    self.last_seen[id] = max;
                }
            }
            self.observations[id].splice(0..0, obs);
            self.touch(id);
            restored += 1;
        }
        Ok(restored)
    }

    /// Number of distinct templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// The canonical template string for `id`.
    ///
    /// # Panics
    /// On an id this registry never allocated — use
    /// [`try_template`](TemplateRegistry::try_template) for ids that
    /// crossed a trust boundary (migration markers, spill files).
    pub fn template(&self, id: TemplateId) -> &str {
        &self.templates[id.0 as usize]
    }

    /// The canonical template string for `id`, or `None` for an id this
    /// registry never allocated. The fault-injected paths (decoding a
    /// spill blob or migration roster written by a different — possibly
    /// corrupt — incarnation) go through this instead of indexing.
    pub fn try_template(&self, id: TemplateId) -> Option<&str> {
        self.templates.get(id.0 as usize).map(String::as_str)
    }

    /// Look up the id of an already-registered statement without
    /// recording an observation.
    pub fn lookup(&self, sql: &str) -> Option<TemplateId> {
        self.by_template.get(&canonicalize(sql)).copied()
    }

    /// Remove up to one resident observation per listed timestamp from
    /// `id`'s history (multiset semantics: a timestamp listed twice
    /// removes at most two matching observations). Returns how many
    /// were actually removed; timestamps with no resident match — and
    /// ids this registry never allocated — are ignored.
    ///
    /// This is the migration drain primitive: a source shard must shed
    /// exactly the observations the destination durably imported, while
    /// keeping anything that arrived after the migration marker was
    /// cut. Whole-history drops ([`drop_observations`]) would lose
    /// those late arrivals if a failed commit is retried.
    ///
    /// [`drop_observations`]: TemplateRegistry::drop_observations
    pub fn remove_observations(&mut self, id: TemplateId, timestamps: &[u64]) -> usize {
        let slot = id.0 as usize;
        if slot >= self.observations.len() || timestamps.is_empty() {
            return 0;
        }
        let mut wanted: HashMap<u64, usize> = HashMap::new();
        for &ts in timestamps {
            *wanted.entry(ts).or_insert(0) += 1;
        }
        let obs = &mut self.observations[slot];
        let before = obs.len();
        obs.retain(|ts| match wanted.get_mut(ts) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        });
        let removed = before - obs.len();
        self.approx_bytes = self.approx_bytes.saturating_sub(8 * removed);
        removed
    }

    /// Total observations for a template. Tolerant of ids this registry
    /// never allocated (returns 0) for the same reason as
    /// [`last_seen`](TemplateRegistry::last_seen).
    pub fn count(&self, id: TemplateId) -> usize {
        self.observations.get(id.0 as usize).map_or(0, Vec::len)
    }

    /// Bin every template's observations into arrival-rate traces over
    /// `[start_secs, end_secs)` at `interval_secs` (the forecasting
    /// interval). Observations outside the range are ignored; every trace
    /// has the same length so the downstream clustering can compare them.
    ///
    /// # Panics
    /// Panics if `interval_secs == 0` or `end_secs <= start_secs`.
    pub fn arrival_traces(&self, start_secs: u64, end_secs: u64, interval_secs: u64) -> TraceSet {
        assert!(interval_secs > 0, "interval must be positive");
        assert!(end_secs > start_secs, "time range must be non-empty");
        let bins = ((end_secs - start_secs) / interval_secs) as usize;
        let mut set = TraceSet::new();
        for (idx, obs) in self.observations.iter().enumerate() {
            let mut counts = vec![0.0f64; bins];
            for &ts in obs {
                if ts < start_secs || ts >= end_secs {
                    continue;
                }
                let bin = ((ts - start_secs) / interval_secs) as usize;
                if bin < bins {
                    counts[bin] += 1.0;
                }
            }
            set.push(Trace::new(
                format!("template:{idx}"),
                TraceKind::Query,
                interval_secs,
                counts,
            ));
        }
        set
    }

    /// Serialize the registry into `w` (templates with their observation
    /// timestamps; the lookup map is rebuilt on decode).
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_u32(self.templates.len() as u32);
        for (tpl, obs) in self.templates.iter().zip(&self.observations) {
            w.put_str(tpl);
            w.put_u64_seq(obs);
        }
    }

    /// Rebuild a registry from bytes written by [`encode_into`].
    ///
    /// [`encode_into`]: TemplateRegistry::encode_into
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut reg = TemplateRegistry::default();
        for _ in 0..n {
            let tpl = r.str()?.to_string();
            let obs = r.u64_seq()?;
            let id = TemplateId(reg.templates.len() as u32);
            if reg.by_template.insert(tpl.clone(), id).is_some() {
                return Err(WireError::BadValue("duplicate template"));
            }
            reg.approx_bytes += 2 * tpl.len() + TEMPLATE_OVERHEAD + 8 * obs.len();
            reg.last_seen.push(obs.iter().copied().max().unwrap_or(0));
            reg.is_touched.push(false);
            if !obs.is_empty() {
                reg.touch(id.0 as usize);
            }
            reg.templates.push(tpl);
            reg.observations.push(obs);
        }
        Ok(reg)
    }

    /// Templates ordered by descending observation count — the paper's
    /// workload-volume ordering.
    pub fn by_volume_desc(&self) -> Vec<(TemplateId, usize)> {
        let mut v: Vec<(TemplateId, usize)> = self
            .observations
            .iter()
            .enumerate()
            .map(|(i, o)| (TemplateId(i as u32), o.len()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_statements_share_an_id() {
        let mut reg = TemplateRegistry::new();
        let a = reg.observe("SELECT a, b FROM t WHERE id = 1", 0);
        let b = reg.observe("SELECT b, a FROM t WHERE id = 42", 10);
        assert_eq!(a, b);
        assert_eq!(reg.num_templates(), 1);
        assert_eq!(reg.count(a), 2);
    }

    #[test]
    fn distinct_statements_get_distinct_ids() {
        let mut reg = TemplateRegistry::new();
        let a = reg.observe("SELECT a FROM t", 0);
        let b = reg.observe("SELECT a FROM u", 0);
        assert_ne!(a, b);
        assert_eq!(reg.num_templates(), 2);
    }

    #[test]
    fn lookup_does_not_record() {
        let mut reg = TemplateRegistry::new();
        let id = reg.observe("SELECT a FROM t WHERE x = 3", 5);
        assert_eq!(reg.lookup("SELECT a FROM t WHERE x = 77"), Some(id));
        assert_eq!(reg.count(id), 1);
        assert_eq!(reg.lookup("SELECT zz FROM t"), None);
    }

    #[test]
    fn arrival_traces_bin_correctly() {
        let mut reg = TemplateRegistry::new();
        // Template observed at t = 0, 5, 10, 15, 25 with 10 s bins over [0, 30).
        for ts in [0, 5, 10, 15, 25] {
            reg.observe("SELECT a FROM t WHERE x = 1", ts);
        }
        let set = reg.arrival_traces(0, 30, 10);
        assert_eq!(set.len(), 1);
        assert_eq!(set.traces()[0].values(), &[2.0, 2.0, 1.0]);
    }

    #[test]
    fn out_of_range_observations_are_dropped() {
        let mut reg = TemplateRegistry::new();
        reg.observe("SELECT a FROM t", 5);
        reg.observe("SELECT a FROM t", 1000);
        let set = reg.arrival_traces(0, 10, 10);
        assert_eq!(set.traces()[0].values(), &[1.0]);
    }

    #[test]
    fn volume_ordering() {
        let mut reg = TemplateRegistry::new();
        reg.observe("SELECT a FROM t", 0);
        for ts in 0..5 {
            reg.observe("SELECT b FROM u", ts);
        }
        let v = reg.by_volume_desc();
        assert_eq!(v[0].1, 5);
        assert_eq!(reg.template(v[0].0), "SELECT b FROM u");
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        TemplateRegistry::new().arrival_traces(0, 10, 0);
    }

    #[test]
    fn registry_wire_roundtrip() {
        let mut reg = TemplateRegistry::new();
        reg.observe("SELECT a FROM t WHERE x = 1", 3);
        reg.observe("SELECT a FROM t WHERE x = 9", 8);
        reg.observe("INSERT INTO u VALUES (1, 2)", 5);
        let mut w = WireWriter::new();
        reg.encode_into(&mut w);
        let bytes = w.into_bytes();
        let back = TemplateRegistry::decode_from(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back.num_templates(), reg.num_templates());
        assert_eq!(back.count(TemplateId(0)), 2);
        assert_eq!(back.count(TemplateId(1)), 1);
        // The lookup map is rebuilt: an equivalent statement resolves.
        assert_eq!(back.lookup("SELECT a FROM t WHERE x = 55"), Some(TemplateId(0)));
        assert_eq!(back.template(TemplateId(1)), reg.template(TemplateId(1)));
    }

    #[test]
    fn observation_cap_drops_oldest_and_counts() {
        let mut reg = TemplateRegistry::new();
        reg.set_observation_cap(8);
        let id = reg.observe("SELECT a FROM t WHERE x = 0", 0);
        for ts in 1..=20u64 {
            reg.observe("SELECT a FROM t WHERE x = 0", ts);
        }
        assert!(reg.count(id) <= 8, "cap must bound history, got {}", reg.count(id));
        assert_eq!(reg.count(id) as u64 + reg.dropped_observations(), 21);
        // The survivors are the newest observations.
        let set = reg.arrival_traces(0, 21, 1);
        let vals = set.traces()[0].values();
        assert_eq!(vals[20], 1.0, "newest observation must survive");
        assert_eq!(vals[0], 0.0, "oldest observation must be dropped");
        assert_eq!(reg.last_seen(id), 20);
    }

    #[test]
    fn approx_bytes_tracks_growth_and_eviction() {
        let mut reg = TemplateRegistry::new();
        let hot = reg.observe("SELECT hot FROM t WHERE x = 1", 100);
        let cold = reg.observe("SELECT cold FROM u WHERE x = 1", 5);
        for ts in 0..50 {
            reg.observe("SELECT cold FROM u WHERE x = 1", ts);
        }
        for ts in 90..110 {
            reg.observe("SELECT hot FROM t WHERE x = 1", ts);
        }
        let before = reg.approx_bytes();
        assert!(before > 0);
        // Evict down far enough that at least the cold template goes.
        let report = reg.evict_cold(before - 8 * 40);
        assert!(report.evicted_templates >= 1);
        assert!(report.bytes_freed > 0);
        assert_eq!(reg.approx_bytes(), before - report.bytes_freed);
        // Coldest-first: the cold template's history goes before hot's.
        assert_eq!(reg.count(cold), 0, "cold history must be evicted first");
        assert!(reg.count(hot) > 0, "hot history must survive");
        // Ids and strings stay resident for stable lookups.
        assert_eq!(reg.lookup("SELECT cold FROM u WHERE x = 9"), Some(cold));
        assert_eq!(reg.evicted_template_count(), report.evicted_templates as u64);
    }

    #[test]
    fn spill_roundtrip_restores_evicted_history() {
        let mut reg = TemplateRegistry::new();
        let id = reg.observe("SELECT a FROM t WHERE x = 1", 1);
        for ts in 2..=10u64 {
            reg.observe("SELECT a FROM t WHERE x = 1", ts);
        }
        let counts_before: Vec<f64> =
            reg.arrival_traces(0, 12, 1).traces()[0].values().to_vec();
        let report = reg.evict_cold(0);
        let spill = report.spill.expect("eviction must produce a spill blob");
        assert_eq!(reg.count(id), 0);
        // Fresh arrivals while the history is spilled out.
        reg.observe("SELECT a FROM t WHERE x = 1", 11);
        let restored = reg.restore_spill(&spill).unwrap();
        assert_eq!(restored, 1);
        assert_eq!(reg.count(id), 11);
        let counts_after = reg.arrival_traces(0, 12, 1);
        let vals = counts_after.traces()[0].values();
        for (i, &v) in counts_before.iter().enumerate() {
            if i == 11 {
                continue;
            }
            assert_eq!(vals[i], v, "restored bin {i} must match pre-eviction");
        }
        assert_eq!(vals[11], 1.0);
        assert_eq!(reg.last_seen(id), 11);
    }

    #[test]
    fn drop_observations_is_surgical_and_accounted() {
        let mut reg = TemplateRegistry::new();
        let a = reg.observe("SELECT a FROM t WHERE x = 1", 1);
        let b = reg.observe("SELECT b FROM u WHERE x = 1", 1);
        for ts in 2..=9u64 {
            reg.observe("SELECT a FROM t WHERE x = 1", ts);
            reg.observe("SELECT b FROM u WHERE x = 1", ts);
        }
        let before = reg.approx_bytes();
        assert_eq!(reg.drop_observations(a), 9);
        assert_eq!(reg.count(a), 0, "target history dropped");
        assert_eq!(reg.count(b), 9, "sibling untouched");
        assert_eq!(reg.approx_bytes(), before - 8 * 9);
        assert_eq!(reg.lookup("SELECT a FROM t WHERE x = 5"), Some(a), "string stays");
        assert_eq!(reg.drop_observations(a), 0, "idempotent on empty");
        assert_eq!(reg.drop_observations(TemplateId(999)), 0, "unknown id is a no-op");
    }

    #[test]
    fn restore_spill_rejects_damage() {
        let mut reg = TemplateRegistry::new();
        reg.observe("SELECT a FROM t", 1);
        reg.observe("SELECT a FROM t", 2);
        let spill = reg.evict_cold(0).spill.unwrap();
        // Truncations must fail cleanly, never panic.
        for cut in 0..spill.len() {
            assert!(reg.restore_spill(&spill[..cut]).is_err(), "cut {cut} must fail");
        }
        // A spill naming a template this registry never allocated fails.
        let mut other = TemplateRegistry::new();
        assert!(other.restore_spill(&spill).is_err());
    }

    #[test]
    fn decode_rebuilds_byte_accounting_and_last_seen() {
        let mut reg = TemplateRegistry::new();
        let id = reg.observe("SELECT a FROM t WHERE x = 1", 7);
        reg.observe("SELECT a FROM t WHERE x = 2", 3);
        let mut w = WireWriter::new();
        reg.encode_into(&mut w);
        let bytes = w.into_bytes();
        let back = TemplateRegistry::decode_from(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back.approx_bytes(), reg.approx_bytes());
        assert_eq!(back.last_seen(id), 7);
    }

    #[test]
    fn foreign_ids_degrade_instead_of_panicking() {
        let mut reg = TemplateRegistry::new();
        reg.observe("SELECT a FROM t", 1);
        let foreign = TemplateId(999);
        assert_eq!(reg.count(foreign), 0);
        assert_eq!(reg.last_seen(foreign), 0);
        assert_eq!(reg.try_template(foreign), None);
        assert_eq!(reg.try_template(TemplateId(0)), Some("SELECT a FROM t"));
        assert_eq!(reg.remove_observations(foreign, &[1, 2]), 0);
    }

    #[test]
    fn remove_observations_is_a_multiset_surgical_drain() {
        let mut reg = TemplateRegistry::new();
        let id = reg.observe("SELECT a FROM t WHERE x = 1", 10);
        reg.observe("SELECT a FROM t WHERE x = 2", 10);
        reg.observe("SELECT a FROM t WHERE x = 3", 20);
        reg.observe("SELECT a FROM t WHERE x = 4", 30);
        let bytes_before = reg.approx_bytes();
        // Remove one of the two ts=10 observations plus ts=20; ts=99
        // has no match and is ignored.
        assert_eq!(reg.remove_observations(id, &[10, 20, 99]), 2);
        assert_eq!(reg.count(id), 2);
        assert_eq!(reg.approx_bytes(), bytes_before - 16);
        // The second listed 10 removes the remaining one.
        assert_eq!(reg.remove_observations(id, &[10, 10]), 1);
        assert_eq!(reg.count(id), 1);
        // Late arrival (ts=30) survived the drain.
        assert_eq!(reg.last_seen(id), 30);
        assert_eq!(reg.remove_observations(id, &[]), 0);
    }

    #[test]
    fn streamed_and_bulk_observe_reach_identical_state() {
        let statements: Vec<String> = (0..200)
            .map(|i| match i % 4 {
                0 => format!("SELECT * FROM stu WHERE id = {i}"),
                1 => format!("select name from STU where id={i} -- c"),
                2 => format!("INSERT INTO t (a, b) VALUES ({i}, '{i}')"),
                _ => format!("UPDATE t SET a = {i} WHERE b >= {i}"),
            })
            .collect();
        let mut bulk = TemplateRegistry::new();
        let mut streamed = TemplateRegistry::new();
        for (i, sql) in statements.iter().enumerate() {
            let a = bulk.observe(sql, i as u64);
            let b = streamed.observe_streamed(sql, i as u64);
            assert_eq!(a, b, "ids assign in the same order");
        }
        assert_eq!(bulk.num_templates(), streamed.num_templates());
        for i in 0..bulk.num_templates() {
            let id = TemplateId(i as u32);
            assert_eq!(bulk.template(id), streamed.template(id));
            assert_eq!(bulk.count(id), streamed.count(id));
            assert_eq!(bulk.last_seen(id), streamed.last_seen(id));
        }
        // Four statement shapes → four skeletons: after first sight the
        // cache answers every repeat without canonicalizing.
        assert!(streamed.template_cache_hits() >= 190);
        assert!(streamed.template_cache_misses() <= 10);
        assert_eq!(
            streamed.template_cache_hits() + streamed.template_cache_misses(),
            200
        );
        assert_eq!(bulk.template_cache_hits(), 0, "bulk path never touches the cache");
    }

    #[test]
    fn fingerprint_cache_stays_bounded() {
        let mut reg = TemplateRegistry::new();
        reg.set_template_cache_cap(8);
        for i in 0..100 {
            // Every statement a fresh skeleton: distinct column name.
            reg.observe_streamed(&format!("SELECT col{i} FROM t"), i);
        }
        assert_eq!(reg.template_cache_misses(), 100);
        // Capacity held: the resets kept the map at or under cap + 1.
        assert!(reg.template_cache_hits() == 0);
        // Re-observing a recently-cached skeleton still hits.
        reg.observe_streamed("SELECT col99 FROM t", 200);
        assert_eq!(reg.template_cache_hits(), 1);
    }

    #[test]
    fn zero_cap_disables_the_cache() {
        let mut reg = TemplateRegistry::new();
        reg.set_template_cache_cap(0);
        for i in 0..10 {
            reg.observe_streamed("SELECT a FROM t WHERE x = 1", i);
        }
        assert_eq!(reg.template_cache_hits(), 0);
        assert_eq!(reg.template_cache_misses(), 10);
        assert_eq!(reg.count(TemplateId(0)), 10);
    }

    #[test]
    fn arrivals_between_counts_recent_bins_cheaply() {
        let mut reg = TemplateRegistry::new();
        let mut id = TemplateId(0);
        for ts in [5u64, 12, 13, 19, 20, 27, 31] {
            id = reg.observe("SELECT a FROM t WHERE x = 1", ts);
        }
        assert_eq!(reg.arrivals_between(id, 10, 20), 3);
        assert_eq!(reg.arrivals_between(id, 20, 30), 2);
        assert_eq!(reg.arrivals_between(id, 40, 50), 0);
        assert_eq!(reg.arrivals_between(TemplateId(99), 0, 100), 0);
    }

    #[test]
    fn registry_decode_rejects_truncation() {
        let mut reg = TemplateRegistry::new();
        reg.observe("SELECT a FROM t", 1);
        let mut w = WireWriter::new();
        reg.encode_into(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                TemplateRegistry::decode_from(&mut WireReader::new(&bytes[..cut])).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
