//! # rapids-placement
//!
//! Row-based standard-cell placement substrate.
//!
//! The paper's flow feeds a mapped netlist to a commercial timing-driven
//! placer and then *extracts cell locations*; the rewiring engine never moves
//! a cell afterwards.  This crate provides the equivalent substrate: a
//! simulated-annealing row placer that minimizes half-perimeter wire length
//! (optionally timing-weighted) and the star-model net decomposition of
//! Riess/Ettl used by the paper's interconnect model.
//!
//! ```
//! use rapids_celllib::Library;
//! use rapids_netlist::{GateType, NetworkBuilder};
//! use rapids_placement::{PlacerConfig, place};
//!
//! let mut b = NetworkBuilder::new("demo");
//! b.inputs(["a", "b", "c"]);
//! b.gate("n1", GateType::Nand, &["a", "b"]);
//! b.gate("f", GateType::Nand, &["n1", "c"]);
//! b.output("f");
//! let network = b.finish().unwrap();
//! let library = Library::standard_035um();
//! let placement = place(&network, &library, &PlacerConfig::default(), 42);
//! assert!(placement.total_hpwl_um(&network) >= 0.0);
//! ```

pub mod annealer;
pub mod geometry;
pub mod star;

pub use annealer::{place, PlacerConfig};
pub use geometry::{gate_width_sites, gate_width_um, Placement, Point, Region};
pub use star::{net_star, StarNet, StarSegment};
