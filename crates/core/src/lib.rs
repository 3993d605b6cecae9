#![warn(missing_docs)]
//! DBAugur — an adversarial-based trend forecasting system for
//! diversified database workloads.
//!
//! This crate is the end-to-end system of the paper's Figure 3, wiring
//! the substrates together:
//!
//! ```text
//! query log ──► SQL2Template ──► arrival-rate traces ─┐
//! runtime stats ──► resource traces ──────────────────┤
//!                                                     ▼
//!                      Descender (DTW + Ball-Tree) clustering
//!                                                     ▼
//!                      top-K representative clusters
//!                                                     ▼
//!        one time-sensitive ensemble (WFGAN + TCN + MLP) per cluster
//!                                                     ▼
//!            per-trace forecasts via cluster proportions
//! ```
//!
//! # Quickstart
//!
//! ```
//! use dbaugur::{DbAugur, DbAugurConfig};
//!
//! let mut cfg = DbAugurConfig::default();
//! cfg.interval_secs = 60;
//! cfg.history = 12;
//! cfg.top_k = 2;
//! cfg.clustering.min_size = 1; // a single trace may form a cluster
//! cfg.fast(); // tiny training budgets, for doc tests
//! let mut system = DbAugur::new(cfg);
//!
//! // Feed a synthetic log: one hot template, minute-level cadence.
//! for minute in 0..240u64 {
//!     let n = 3 + (minute % 10);
//!     for q in 0..n {
//!         system.ingest_record(minute * 60 + q, "SELECT * FROM bus WHERE route = 5");
//!     }
//! }
//! system.train(0, 240 * 60).expect("enough data to train");
//! let forecast = system.forecast_template("SELECT * FROM bus WHERE route = 9");
//! assert!(forecast.expect("known template").is_finite());
//! ```

pub mod config;
pub mod drift;
pub mod durable;
pub mod pipeline;
pub mod retry;
pub mod snapshot;
mod sync;
pub mod vfs;
pub mod wal;

pub use config::DbAugurConfig;
pub use drift::{DriftConfig, DriftMonitor, DriftState};
pub use durable::{DurableDbAugur, FlushReport, WAL_FILE};
pub use retry::{
    is_transient, with_retry, DurabilityCounters, RetryExhausted, RetryOutcome, RetryPolicy,
};
pub use pipeline::{
    train_challenger, ClusterHealth, ClusterReport, ClusterStatus, ClusterTrainReport, DbAugur,
    ForecastError, IngestReport, RetrainError, TrainError, TrainedCluster,
};
pub use snapshot::{
    encode_model_blob, list_generations, snapshot_path, RecoveryReport, SnapshotError,
};
pub use vfs::{
    enospc_error, eio_error, is_enospc, real_vfs, DynVfs, FaultKind, FaultSwitch, FaultyVfs,
    MemVfs, RealVfs, Vfs, VfsFile,
};
pub use wal::{
    group_batch_bucket, GroupCommitBuffer, GroupCommitConfig, Wal, WalEntry, WalScan,
};

// Re-export the component crates under one roof for downstream users.
pub use dbaugur_cluster as cluster;
pub use dbaugur_dtw as dtw;
pub use dbaugur_exec as exec;
pub use dbaugur_models as models;
pub use dbaugur_nn as nn;
pub use dbaugur_sqlproc as sqlproc;
pub use dbaugur_trace as trace;
