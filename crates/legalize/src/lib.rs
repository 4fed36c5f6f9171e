//! # rapids-legalize
//!
//! Row-based legalization and detailed placement for the RAPIDS flow.
//!
//! The paper's optimizer scores every rewiring and sizing decision against
//! real gate positions, but the annealing placer emits continuous x
//! coordinates (cells overlap freely) and the inverting-swap path used to
//! stack inserted inverters directly on their drivers.  This crate makes the
//! physical side of the flow trustworthy with three engines over one shared
//! row model:
//!
//! * [`RowModel`] — integer-site occupancy per standard-cell row, derived
//!   from [`rapids_placement::Placement`] geometry and library footprints
//!   ([`rapids_placement::gate_width_sites`]), with a deterministic
//!   nearest-free-slot query;
//! * [`legalize`] — an Abacus-style full legalizer: overlap-free result,
//!   per-row cluster collapse toward minimal displacement, stable
//!   tie-breaks (lower row, then smaller site, then
//!   [`rapids_netlist::GateId`]);
//! * [`refine_worst_slack`] — a timing-driven detailed-placement pass that
//!   relocates the K worst-slack gates toward their star-optimal point
//!   within a displacement budget, validating every move with
//!   [`rapids_timing::IncrementalSta`] and reverting moves that hurt the
//!   critical path.
//!
//! Everything is sequential and deterministic: the legalizer and the
//! refinement pass run once per design in the pipeline's `legalize` stage,
//! and the nudger's accept-time-only use by the optimizer keeps decisions
//! thread-count invariant (see `rapids_sizing::parallel`, the `threads`
//! determinism contract).
//!
//! ```
//! use rapids_celllib::Library;
//! use rapids_netlist::{GateType, NetworkBuilder};
//! use rapids_placement::{place, PlacerConfig};
//! use rapids_legalize::{legalize, RowModel};
//!
//! let mut b = NetworkBuilder::new("demo");
//! b.inputs(["a", "b", "c"]);
//! b.gate("n1", GateType::Nand, &["a", "b"]);
//! b.gate("f", GateType::Nand, &["n1", "c"]);
//! b.output("f");
//! let network = b.finish().unwrap();
//! let library = Library::standard_035um();
//! let mut placement = place(&network, &library, &PlacerConfig::fast(), 42);
//! let outcome = legalize(&network, &library, &mut placement);
//! placement.assert_legal(&network, &library);
//! let rows = RowModel::build(&network, &library, &placement);
//! assert_eq!(outcome.unplaced_gates, 0);
//! assert!(rows.occupied_gates() >= 5);
//! ```

pub mod abacus;
pub mod refine;
pub mod rows;

pub use abacus::{legalize, LegalizeOutcome};
pub use refine::{refine_worst_slack, RefineConfig, RefineOutcome};
pub use rows::RowModel;

/// Flow-level knobs of the legalization subsystem (carried by
/// `rapids_flow::PipelineConfig::legalize`).
///
/// With `enabled == false` (the default) the subsystem is completely inert:
/// no placement is touched, no row model is built, and the flow's output is
/// bit-identical to the pre-legalization behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizeConfig {
    /// Run the legalize stage (full legalization + optional refinement)
    /// after placement, and hand the optimizer a row model.
    pub enabled: bool,
    /// Let the optimizer's inverting-swap path place each *accepted*
    /// inverter in the nearest genuinely free row slot instead of stacking
    /// it on its driver (only meaningful while `enabled`).
    pub nudge_es: bool,
    /// How many worst-slack gates the timing-driven refinement pass may
    /// relocate (0 disables the pass).
    pub refine_worst_k: usize,
    /// Maximum Manhattan displacement the refinement pass may apply to one
    /// gate, µm.
    pub refine_budget_um: f64,
}

impl Default for LegalizeConfig {
    fn default() -> Self {
        LegalizeConfig {
            enabled: false,
            nudge_es: true,
            refine_worst_k: 8,
            // Three row heights: far enough to escape a crowded stretch,
            // close enough that the star/Elmore estimates stay local.
            refine_budget_um: 3.0 * rapids_celllib::ROW_HEIGHT_UM,
        }
    }
}

impl LegalizeConfig {
    /// The default knob set with the stage switched on.
    pub fn enabled() -> Self {
        LegalizeConfig { enabled: true, ..Self::default() }
    }
}
