#![warn(missing_docs)]
//! Sharded fault domains for the DBAugur pipeline: bulkhead-isolated
//! shard pipelines with supervised recovery and cross-shard failover.
//!
//! One pipeline is one fault domain: a poisoned template, a panic, or a
//! corrupt WAL tail takes down everything. This crate partitions
//! templates by stable hash into `N` fully independent shard pipelines
//! — each with its own registry, WAL + snapshot lineage, governor,
//! queues, and stats — and supervises them so a fault is a *per-shard*
//! event:
//!
//! * [`route`] — pure stable-hash routing ([`shard_of`]) and per-tenant
//!   admission quotas; routing never looks at health, which is what
//!   keeps surviving shards byte-identical under faults;
//! * [`health`] — the per-shard `Healthy → Degraded → Quarantined →
//!   Recovering` state machine and the circuit breaker it implies;
//! * [`supervisor`] — the bulkhead: shard ticks run panic-isolated (and
//!   parallel) on the executor; a panicking shard is rebuilt from its
//!   engine factory and quarantined while siblings keep serving; a
//!   quarantined shard's forecasts are answered as marked failover
//!   floors instead of queueing;
//! * [`durable`] — one state directory per shard (independent crash
//!   recovery, in parallel if asked) plus crash-safe two-phase template
//!   migration so a quarantined shard can drain to a healthy one;
//! * [`soak`] — the seeded shard-kill harness that proves the bulkhead:
//!   kill one shard mid-flood, assert the siblings' served-value
//!   digests match the fault-free run exactly and the victim recovers
//!   within a bounded number of ticks.

pub mod arbiter;
pub mod durable;
pub mod health;
pub mod heat;
pub mod route;
pub mod soak;
pub mod supervisor;

pub use arbiter::{ArbiterConfig, ArbiterStats, BudgetArbiter, Escalation, ShardDemand};
pub use durable::{CanaryBug, MigrateError, MigrationReport, PendingMigration, ShardedDurable};
pub use health::{BreakerState, HealthPolicy, ShardHealth, ShardState};
pub use heat::{
    HeatConfig, HeatTracker, RebalanceConfig, RebalancePlan, RebalancePolicy, RebalanceStats,
};
pub use route::{shard_of, TenantQuotas};
pub use soak::{
    run_shard_soak, KillKind, OutageWindow, ShardSoakConfig, ShardSoakReport,
};
pub use supervisor::{
    ShardDecision, ShardStatus, Supervisor, SupervisorConfig, SupervisorConfigError,
    SupervisorStats, SupervisorTickReport,
};
