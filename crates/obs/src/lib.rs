//! Unified observability for the rapids stack: a metrics registry, a
//! hierarchical span tracer, and a leveled log sink — all stdlib-only.
//!
//! The crate is built around one hard constraint: **instrumentation must
//! never perturb results and must cost ~nothing when idle.**  Concretely:
//!
//! * [`metrics`] counters are relaxed atomics behind cheap cloneable
//!   handles; reading them is a snapshot, never a lock on the hot path.
//!   Metric values are *derived from* deterministic decisions (passes run,
//!   swaps applied, gates retimed) but are never *inputs to* any decision,
//!   fingerprint, or report projection — a contract pinned by
//!   `tests/integration_obs.rs`.
//! * [`trace`] spans compile to a no-op (`Option::None`, no allocation)
//!   unless a sink has been installed with [`trace::install`]; the guard
//!   checks a single relaxed [`AtomicBool`](std::sync::atomic::AtomicBool)
//!   and bails.  Installed, spans record wall-clock intervals per thread
//!   and export as Chrome trace-event JSON loadable in Perfetto.
//! * [`log`] routes diagnostics through one process-wide level filter so
//!   `--quiet` can silence a library's chatter without touching pinned
//!   stderr contract lines (which print verbatim at the default level).
//! * [`timeseries`] samples registry snapshots into fixed-capacity ring
//!   buffers (counter deltas, gauge levels, quantile tracks) under a
//!   **manual-tick** contract: the sampler has no clock of its own, so
//!   tests and CI drive time deterministically and production arms a
//!   wall-clock thread around it.
//! * [`detect`] runs one-sided CUSUM change detectors and SLO burn
//!   trackers over those series, emitting structured [`Alert`] records —
//!   pure functions of the tick sequence, never of the wall clock.
//! * [`json`] is the workspace's one JSON module: the nested reader the
//!   obs binaries (`trace_check`, `rapids-top`) use, the flat-object check
//!   of the serve line protocol, and the string and number writers behind
//!   every JSON artifact.
//!
//! See `docs/observability.md` for the metric catalog, the span
//! hierarchy, the series/alert model, and the determinism contract.

pub mod detect;
pub mod json;
pub mod log;
pub mod metrics;
pub mod timeseries;
pub mod trace;

pub use detect::{Alert, AlertKind, Baseline, Cusum, CusumConfig, SloConfig, SloTracker};
pub use metrics::{global, Counter, Gauge, Histogram, Registry, Snapshot};
pub use timeseries::{Sampler, SamplerConfig, TickSample};
pub use trace::{span, span_owned, Span};
