//! # rapids-netlist
//!
//! Gate-level Boolean network substrate for the RAPIDS rewiring engine
//! (reproduction of *"Fast Post-placement Rewiring Using Easily Detectable
//! Functional Symmetries"*, DAC 2000).
//!
//! A [`Network`] is a directed acyclic graph whose vertices are logic gates
//! drawn from the mapped-library type set used by the paper
//! (`AND/OR/XOR/NAND/NOR/XNOR/INV/BUF`) plus primary inputs and constants.
//! Edges correspond to interconnect: each gate records its fan-in drivers and
//! the network maintains the reverse (fan-out) adjacency incrementally so that
//! rewiring moves stay cheap.
//!
//! The crate also provides:
//!
//! * topological ordering and levelization ([`topo`]),
//! * a small BLIF-like text format for examples and round-tripping ([`blif`]),
//! * structural statistics used by the experiment reports ([`stats`]),
//! * an ergonomic [`builder::NetworkBuilder`] for hand-built figures from the
//!   paper and for the circuit generators.
//!
//! ```
//! use rapids_netlist::{GateType, Network};
//!
//! // Build f = (a & b) | c, the classic two-level example.
//! let mut n = Network::new("tiny");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let g1 = n.add_gate(GateType::And, &[a, b], "g1").unwrap();
//! let f = n.add_gate(GateType::Or, &[g1, c], "f").unwrap();
//! n.add_output(f, "f");
//! assert_eq!(n.gate_count(), 5);
//! assert_eq!(n.logic_gate_count(), 2);
//! ```

pub mod blif;
pub mod builder;
pub mod error;
pub mod gate;
pub mod network;
pub mod stats;
pub mod topo;

pub use builder::NetworkBuilder;
pub use error::NetlistError;
pub use gate::{BaseFunction, Gate, GateId, GateType, Logic, PinRef};
pub use network::Network;
pub use stats::NetworkStats;
