//! # rapids-bench
//!
//! Benchmark harness regenerating the paper's Table 1 (§6), plus ablation
//! studies.
//!
//! * The [`table1`] module runs the full flow — generate → map → place →
//!   time → optimize with `gsg`, `GS` and `gsg+GS` — for any subset of the
//!   19-benchmark suite.  Each design yields a [`rapids_core::BenchmarkRow`]
//!   for the printed table and a [`rapids_serve::DesignQor`] for the
//!   `--qor-out` / `--check` snapshot.
//! * The Criterion benches under `benches/` measure the individual claims:
//!   linear-time supergate extraction, extraction coverage, redundancy
//!   scanning, STA cost, and parameter ablations.

pub mod table1;

pub use table1::{run_benchmark, run_suite, FlowResult};
