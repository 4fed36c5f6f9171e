//! # rapids-timing
//!
//! Post-placement static timing analysis with the paper's interconnect and
//! gate-delay models (§6):
//!
//! * every net is decomposed by the **star model** (`rapids-placement::star`),
//! * every segment is a **lumped RC** with 2 pF/cm and 2.4 kΩ/cm,
//! * sink delays use the **Elmore** formula, so different sinks of the same
//!   net see different delays,
//! * gate delays come from the **pin-to-pin load-dependent** cell model with
//!   rise and fall parameters (`rapids-celllib`).
//!
//! [`Sta::analyze`] produces arrival times, required times and slacks for
//! every gate, plus the critical path, which is what both the rewiring
//! optimizer and the gate sizer consume.
//!
//! ```
//! use rapids_celllib::Library;
//! use rapids_netlist::{GateType, NetworkBuilder};
//! use rapids_placement::{place, PlacerConfig};
//! use rapids_timing::{Sta, TimingConfig};
//!
//! let mut b = NetworkBuilder::new("demo");
//! b.inputs(["a", "b"]);
//! b.gate("f", GateType::Nand, &["a", "b"]);
//! b.output("f");
//! let network = b.finish().unwrap();
//! let library = Library::standard_035um();
//! let placement = place(&network, &library, &PlacerConfig::fast(), 1);
//! let report = Sta::analyze(&network, &library, &placement, &TimingConfig::default());
//! assert!(report.critical_delay_ns() > 0.0);
//! ```

pub mod cache;
pub mod elmore;
pub mod gate_delay;
pub mod incremental;
pub mod levelized;
pub mod rc;
pub mod sta;

pub use cache::NetCache;
pub use elmore::{net_delays, NetDelays};
pub use gate_delay::{gate_load_pf, gate_output_delay};
pub use incremental::{IncrementalSta, IncrementalStats};
pub use levelized::LevelizedView;
pub use rc::{segment_capacitance_pf, segment_resistance_kohm, TimingConfig};
pub use sta::{ArrivalTime, Sta, TimingReport};
