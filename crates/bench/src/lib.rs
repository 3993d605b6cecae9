//! Shared harness for the experiment binaries.
//!
//! Every figure/table of the paper has one binary under `src/bin/`; they
//! share the dataset definitions ([`datasets`]), the budgeted model
//! factory ([`zoo`]) and the table/CSV reporting ([`report`]).
//! [`kernels`] holds the seeded inputs of the `kernels` criterion bench.
//! Performance is measured by one program, `src/bin/benchmark/` (its
//! README describes it; `BENCHMARK.json` at the repository root
//! declares its workloads and metrics); fault behaviour is proven by
//! `dbaugur sim` over `tests/plans/`.
//!
//! Scale control for the figure binaries: set `DBAUGUR_SCALE` to
//! `quick` (smoke-test sizes), `standard` (default; minutes per figure
//! on one core) or `full` (paper-sized data and epochs); any other
//! value is rejected.

pub mod datasets;
pub mod kernels;
pub mod report;
pub mod zoo;
