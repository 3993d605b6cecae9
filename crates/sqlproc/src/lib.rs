#![warn(missing_docs)]
//! SQL2Template: from raw query logs to workload traces (paper Sec. IV-A).
//!
//! The workload processor's first stage converts textual query logs into a
//! small set of *query templates* and, from the arrival timestamps of each
//! template, numeric arrival-rate traces:
//!
//! 1. [`token`] — a lexer that normalizes spacing, case and bracket
//!    placement (the paper: "normalizing the statement format");
//! 2. [`template`] — literal values are replaced by placeholders
//!    (`id = 5` → `id = ?`) and `IN`-lists are collapsed;
//! 3. [`canon`] — *semantic equivalence checking*: templates that differ
//!    only in commutative orderings (`SELECT a, b` vs `SELECT b, a`,
//!    `A JOIN B ON A.id = B.id` vs `B JOIN A ON B.id = A.id`, reordered
//!    `AND` conjuncts) canonicalize to the same string;
//!    [`fingerprint()`] hashes the templatized token skeleton without
//!    materializing it, and a [`statement::StatementHandle`] carries
//!    that hash (plus the canonical string, once computed) down the
//!    streaming ingest path so each statement is parsed once;
//! 4. [`registry`] — a [`registry::TemplateRegistry`] accumulates
//!    observations per template and emits per-template arrival-rate
//!    [`dbaugur_trace::Trace`]s at a chosen forecasting interval;
//! 5. [`log`] — a minimal timestamped-log format parser plus a seeded
//!    log generator used by the examples and case studies.

pub mod canon;
pub mod fingerprint;
pub mod log;
pub mod registry;
pub mod statement;
pub mod template;
pub mod token;

pub use canon::canonicalize;
pub use fingerprint::fingerprint;
pub use log::{
    parse_log_line, parse_log_report, parse_log_stream, try_parse_log_stream, LogRecord,
    LogStreamStats, ParsedLog,
};
pub use registry::{EvictionReport, TemplateId, TemplateRegistry};
pub use statement::StatementHandle;
pub use template::templatize;
pub use token::{tokenize, Token};
