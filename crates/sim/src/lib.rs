//! # rapids-sim
//!
//! Bit-parallel logic simulation and simulation-based equivalence checking
//! for mapped Boolean networks.
//!
//! Its main use is the flow's **safety net**: after an optimizer run,
//! random-vector (and for small circuits exhaustive) simulation confirms the
//! network still computes the same primary-output functions as the
//! original.
//!
//! ```
//! use rapids_netlist::{GateType, NetworkBuilder};
//! use rapids_sim::Simulator;
//!
//! let mut b = NetworkBuilder::new("mux");
//! b.inputs(["s", "a", "b"]);
//! b.gate("ns", GateType::Inv, &["s"]);
//! b.gate("t0", GateType::And, &["ns", "a"]);
//! b.gate("t1", GateType::And, &["s", "b"]);
//! b.gate("y", GateType::Or, &["t0", "t1"]);
//! b.output("y");
//! let network = b.finish().unwrap();
//! let sim = Simulator::new(&network);
//! let out = sim.simulate_bools(&network, &[true, false, true]);
//! assert_eq!(out, vec![true]);
//! ```

pub mod equiv;
pub mod simulator;
pub mod vectors;

pub use equiv::{check_equivalence_exhaustive, check_equivalence_random, EquivalenceResult};
pub use simulator::Simulator;
pub use vectors::{exhaustive_words, random_words, PatternSet};
