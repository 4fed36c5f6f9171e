//! # rapids-sizing
//!
//! Gate sizing on a placed netlist, following the spirit of Coudert's
//! constrained delay/area optimization (the "GS" algorithm of the paper's
//! evaluation): an iterative **min-slack improvement** phase that upsizes or
//! downsizes cells on and around the critical path, alternating with a
//! **relaxation / area-recovery** phase that downsizes cells with abundant
//! slack to escape local minima and recover area.
//!
//! Every candidate implementation change is evaluated with a *neighborhood*
//! slack estimate (the gate and its fan-in drivers are re-timed against the
//! arrival/required times of the last full analysis), so a pass touches each
//! gate only with local work; full static timing analysis runs once per pass.
//!
//! The crate sizes for both of the paper's sizing optimizers:
//! [`GateSizer::optimize_with`] runs GS on the whole network, and
//! [`GateSizer::optimize_domain`] sizes only the gates that `rapids-core`'s
//! gsg+GS hands it, those covered by trivial supergates.
//!
//! ```
//! use rapids_celllib::Library;
//! use rapids_circuits::benchmark;
//! use rapids_placement::{place, PlacerConfig};
//! use rapids_sizing::{GateSizer, SizerConfig};
//! use rapids_timing::{IncrementalSta, NetCache, TimingConfig};
//!
//! let mut network = benchmark("c432").unwrap();
//! let library = Library::standard_035um();
//! let placement = place(&network, &library, &PlacerConfig::fast(), 1);
//! let timing = TimingConfig::default();
//! let mut sta = IncrementalSta::new(&network, &library, &placement, &timing);
//! let mut cache = NetCache::for_network(&network);
//! let initial_ns = sta.report().critical_delay_ns();
//! let _resized = GateSizer::new(SizerConfig::fast())
//!     .optimize_with(&mut network, &library, &placement, &timing, &mut sta, &mut cache);
//! assert!(sta.report().critical_delay_ns() <= initial_ns);
//! ```

pub mod cancel;
mod neighborhood;
pub mod sizer;

pub use cancel::CancelToken;
pub use sizer::{GateSizer, SizerConfig};
