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
//! The same "choose the best implementation of each node from a discrete
//! candidate set" machinery is reused by `rapids-core` to drive
//! supergate-based rewiring, exactly as §5 of the paper describes.
//!
//! ```
//! use rapids_celllib::Library;
//! use rapids_circuits::benchmark;
//! use rapids_placement::{place, PlacerConfig};
//! use rapids_sizing::{GateSizer, SizerConfig};
//! use rapids_timing::TimingConfig;
//!
//! let mut network = benchmark("c432").unwrap();
//! let library = Library::standard_035um();
//! let placement = place(&network, &library, &PlacerConfig::fast(), 1);
//! let outcome = GateSizer::new(SizerConfig::fast())
//!     .optimize(&mut network, &library, &placement, &TimingConfig::default());
//! assert!(outcome.final_delay_ns <= outcome.initial_delay_ns);
//! ```

pub mod cancel;
pub mod neighborhood;
pub mod sizer;

pub use cancel::CancelToken;
pub use neighborhood::{
    estimated_arrival_cached, estimated_arrival_ns, fanin_min_slack_ns, neighborhood_eval,
    neighborhood_slack_ns, NeighborhoodEval,
};
pub use sizer::{resized_since, size_classes, GateSizer, SizerConfig, SizingOutcome};
