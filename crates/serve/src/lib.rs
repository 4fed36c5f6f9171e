//! # rapids-serve
//!
//! A long-running batch-optimization service over the
//! [`rapids_flow::Pipeline`]: jobs (a circuit source plus configuration
//! knobs) are scheduled across a bounded worker pool and their per-design
//! delay/area/swap reports stream out as JSONL as each design finishes —
//! no barrier on the whole batch.  The layers, bottom up:
//!
//! * **ingestion** ([`ingest`], [`job`]) — JSONL job specs, the 19-entry
//!   synthetic suite, and recursively discovered `.blif` directories, all
//!   normalized into [`Job`]s.  Job specs, protocol lines and reports
//!   are read and written through [`rapids_obs::json`], the workspace's
//!   one JSON module;
//! * **execution + caching** ([`engine`], [`fingerprint`]) — the
//!   [`Engine`] runs one job end to end (errors and panics are captured as
//!   `Failed` reports, never propagated) and memoizes results keyed by
//!   *(netlist content fingerprint, config fingerprint)*, so resubmitted
//!   designs are served without recompute; [`store`] spills those results
//!   to disk through [`journal`], the crate's one crash-safe checksummed
//!   log (the tick journal's too);
//! * **scheduling** ([`server`]) — the [`BatchServer`] fans a batch out
//!   over `workers` threads, streaming completion-order results to the
//!   caller;
//! * **front ends** ([`net`] and the `rapids-serve` binary) — a CLI that
//!   writes streaming JSONL reports and an optional TCP line-protocol mode
//!   for true long-running use;
//! * **telemetry** ([`telemetry`], [`heartbeat`]) — a manual-tick
//!   time-series plane over the engine's metrics (CUSUM change detection,
//!   SLO burn tracking, a tick journal, Prometheus-style exposition) plus
//!   the batch liveness heartbeat.  See `docs/observability.md`.
//!
//! Determinism: a job's report depends only on its netlist and config —
//! never on the worker count or completion order — so batch output is
//! byte-identical across worker counts once canonically sorted (see
//! `docs/serving.md`).  No report byte depends on `threads` either: it only
//! runs a job's three optimizers concurrently (see
//! [`rapids_flow::PipelineConfig::threads`]).
//!
//! ```
//! use rapids_serve::{BatchServer, Engine, Job, JobSource};
//! use rapids_flow::PipelineConfig;
//!
//! let engine = Engine::new(PipelineConfig::fast());
//! let server = BatchServer::new(engine, 2);
//! let jobs = vec![Job::suite("c432", server.engine().base_config())];
//! let summary = server.run_streaming(&jobs, |report| {
//!     println!("{}", report.to_jsonl());
//! });
//! assert_eq!(summary.done, 1);
//! ```

pub mod engine;
pub mod faults;
pub mod fingerprint;
pub mod heartbeat;
pub mod ingest;
pub mod job;
pub mod journal;
#[doc(hidden)]
pub mod json;
pub mod net;
pub mod report;
pub mod retry;
pub mod server;
pub mod store;
pub mod telemetry;
mod timer;

pub use engine::Engine;
pub use faults::{FaultAction, FaultPlan, FaultPoint};
pub use heartbeat::Heartbeat;
pub use ingest::{discover_blif_files, jobs_from_blif_dir, jobs_from_jsonl, suite_jobs};
pub use job::{Job, JobSource};
pub use journal::Journal;
pub use report::{DesignQor, JobOutcome, JobReport, VerifyVerdict};
pub use retry::{with_backoff, BackoffPolicy};
pub use server::{BatchServer, BatchSummary};
pub use store::ResultStore;
pub use telemetry::{TelemetryConfig, TelemetryPlane, WallClockSampler};
