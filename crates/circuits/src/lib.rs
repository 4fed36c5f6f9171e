//! # rapids-circuits
//!
//! Benchmark-circuit substrate: generators for the circuit families the
//! paper evaluates on (MCNC-91 / ISCAS-85 / ISCAS-89 with sequential
//! elements stripped), a structural technology mapper onto the 0.35 µm
//! library cell set, and a named **suite** whose entries are sized to match
//! the 19 rows of Table 1.
//!
//! The original benchmark netlists are not redistributable artifacts of this
//! reproduction, so each family is replaced by a synthetic generator that
//! preserves the structural properties the rewiring engine is sensitive to:
//! gate-type mix (XOR-rich arithmetic vs. AND/OR control), fan-in
//! distribution, reconvergent fan-out, and overall size (see `DESIGN.md`).
//!
//! ```
//! use rapids_circuits::generators::adder::ripple_carry_adder;
//! use rapids_circuits::mapper::map_to_library;
//!
//! let adder = ripple_carry_adder(8);
//! let mapped = map_to_library(&adder, 4).unwrap();
//! assert!(mapped.logic_gate_count() >= adder.logic_gate_count());
//! ```

pub mod generators;
pub mod mapper;
pub mod suite;

pub use mapper::{expand_xors, map_to_library};
pub use suite::{benchmark, suite_names, BenchmarkSpec};
