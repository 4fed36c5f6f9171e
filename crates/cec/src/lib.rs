//! `rapids-cec`: proof-grade combinational equivalence checking.
//!
//! Random-vector simulation (`rapids-sim`) can only *sample* the input
//! space; this crate *decides* it.  Two mapped networks are Tseitin-encoded
//! into CNF together with a miter over their outputs and handed to a
//! hand-rolled CDCL SAT solver — no external solver crates, consistent with
//! the offline-vendored workspace.  An UNSAT answer is a proof that the
//! networks agree on every input; a SAT answer is a concrete counterexample
//! input vector, re-confirmed on the bit-parallel simulator before it is
//! reported.
//!
//! The module split mirrors the pipeline:
//!
//! - [`dag`] — structural front end: both networks fold into one
//!   hash-consed AND/XOR DAG, each fanout-free AND or XOR tree into one
//!   node, so shared logic shares SAT variables and swapped supergates
//!   close without the solver;
//! - [`cnf`] — the Tseitin clause schemas, one per gate kind;
//! - [`solver`] — the CDCL solver (two-watched literals, first-UIP
//!   learning, VSIDS activity, phase saving, Luby restarts, assumptions);
//! - [`check`] — orchestration: encode, signature-guided SAT sweeping,
//!   miter solve, counterexample extraction.
//!
//! Entry point: [`check_equivalence`] / [`check_equivalence_with_stats`].
//!
//! ```
//! use rapids_cec::{check_equivalence, CecConfig, CecResult};
//! use rapids_netlist::{GateType, NetworkBuilder};
//!
//! let a = NetworkBuilder::new("a")
//!     .input("x")
//!     .input("y")
//!     .gate("g", GateType::Nand, &["x", "y"])
//!     .output("g")
//!     .finish()
//!     .unwrap();
//! let b = NetworkBuilder::new("b")
//!     .input("x")
//!     .input("y")
//!     .gate("nx", GateType::Inv, &["x"])
//!     .gate("ny", GateType::Inv, &["y"])
//!     .gate("g", GateType::Or, &["nx", "ny"])
//!     .output("g")
//!     .finish()
//!     .unwrap();
//! assert_eq!(check_equivalence(&a, &b, &CecConfig::default()), CecResult::EquivalentProven);
//! ```

pub mod check;
pub mod cnf;
pub mod dag;
pub mod solver;

pub use check::{
    check_equivalence, check_equivalence_with_stats, CecConfig, CecResult, CecStats, Counterexample,
};
pub use cnf::CnfBuilder;
pub use solver::{Lit, SolveResult, Solver, SolverStats, Var};
