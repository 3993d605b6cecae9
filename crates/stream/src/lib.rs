#![warn(missing_docs)]
//! Streaming front door for DBAugur: sustained per-event ingest.
//!
//! The batch pipeline pays three per-tick costs that a per-event stream
//! cannot afford: a full canonicalization per statement, a clustering
//! pass over every trace, and one fsync per record. This crate composes
//! the incremental counterparts grown in the component crates into one
//! front door:
//!
//! * **O(1) template matching** — a pre-tokenized fingerprint
//!   ([`dbaugur_sqlproc::fingerprint`]) routes repeat statements through
//!   a bounded cache in both the template registry and the shard router;
//!   the full canonicalizer runs only on a miss, and then once: the
//!   router's result rides a [`dbaugur_sqlproc::StatementHandle`] down
//!   to the registry.
//! * **Amortized online clustering** — per-event
//!   [`dbaugur_cluster::OnlineDescender::assign`] places arrival-rate
//!   windows against the current clustering with lower-bound-pruned
//!   nearest-centroid search; merges, splits and index rebuilds are
//!   deferred to budgeted [`StreamFront::maintain`] ticks so admission
//!   never starves.
//! * **Group-committed WAL** — per-shard
//!   [`dbaugur::GroupCommitBuffer`]s coalesce records and fsync in
//!   batches; a record is acked only after its batch is durable, and a
//!   torn batch salvages its framed prefix exactly like single appends.
//! * **Incremental ensemble feedback** — each closed arrival bin feeds
//!   trained cluster ensembles through the recursive Eqn. 7/8 update
//!   (`γᵢ ← δ·γᵢ + e²`) instead of refitting.
//!
//! [`StreamFront`] threads all of this into
//! [`dbaugur_shard::ShardedDurable`].

pub mod front;

pub use front::{MaintainReport, StreamConfig, StreamFront, StreamStats};
