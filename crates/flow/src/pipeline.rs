//! The unified end-to-end RAPIDS flow.
//!
//! Every consumer of the workspace — the examples, the integration tests,
//! the Table 1 harness — used to hand-wire the same five stages:
//! resolve a circuit, map it onto the 0.35 µm library, place it, run static
//! timing analysis, then run one of the paper's three optimizers.  The
//! [`Pipeline`] owns that sequence behind one configurable call:
//!
//! ```
//! use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
//! use rapids_core::OptimizerKind;
//!
//! let pipeline = Pipeline::fast();
//! let report = pipeline
//!     .run_kind(CircuitSource::suite("c432"), OptimizerKind::Combined)
//!     .unwrap();
//! assert!(report.outcome.final_delay_ns <= report.initial_delay_ns + 1e-9);
//! ```
//!
//! The flow is split at the natural reuse seam: [`Pipeline::prepare`] runs
//! the placement-invariant front half (generate → map → place → STA) and
//! returns a [`PreparedDesign`]; [`Pipeline::optimize`] runs one optimizer
//! against it.  Sharing one `PreparedDesign` across several
//! [`OptimizerKind`]s is exactly the paper's experimental setup (the three
//! optimizers must see the *same* placement), and is packaged as
//! [`Pipeline::compare_optimizers`].

use std::time::Instant;

use rapids_celllib::Library;
use rapids_circuits::{benchmark, map_to_library};
use rapids_core::{CancelToken, OptimizationOutcome, Optimizer, OptimizerConfig, OptimizerKind};
use rapids_legalize::{
    legalize, refine_worst_slack, LegalizeConfig, LegalizeOutcome, RefineConfig, RefineOutcome,
    RowModel,
};
use rapids_netlist::{blif, NetlistError, Network};
use rapids_placement::{place, Placement, PlacerConfig};
use rapids_sim::check_equivalence_random;
use rapids_timing::{Sta, TimingConfig, TimingReport};

/// Where the pipeline's input circuit comes from.
#[derive(Debug, Clone)]
pub enum CircuitSource {
    /// A named benchmark from the 19-entry Table 1 suite
    /// ([`rapids_circuits::benchmark`]); arrives already mapped.
    Suite(String),
    /// A netlist that is already expressed in library gate types.
    Mapped(Network),
    /// A raw netlist that still needs technology mapping with the given
    /// maximum fan-in.
    Unmapped {
        /// The raw network.
        network: Network,
        /// Maximum fan-in allowed after mapping.
        max_fanin: usize,
    },
    /// BLIF text, parsed then mapped with the given maximum fan-in.
    Blif {
        /// BLIF source text ([`rapids_netlist::blif`] dialect).
        text: String,
        /// Maximum fan-in allowed after mapping.
        max_fanin: usize,
    },
    /// A BLIF file on disk, read via [`rapids_netlist::blif::parse_file`]
    /// then mapped with the given maximum fan-in.  Read errors surface as
    /// [`PipelineError::Netlist`] carrying the path.
    BlifFile {
        /// Path of the `.blif` file.
        path: std::path::PathBuf,
        /// Maximum fan-in allowed after mapping.
        max_fanin: usize,
    },
}

impl CircuitSource {
    /// Convenience constructor for a Table 1 suite benchmark.
    pub fn suite(name: impl Into<String>) -> Self {
        CircuitSource::Suite(name.into())
    }

    /// Convenience constructor for a `.blif` file with the default fan-in
    /// bound used by [`PipelineConfig::default`].
    pub fn blif_file(path: impl Into<std::path::PathBuf>) -> Self {
        CircuitSource::BlifFile { path: path.into(), max_fanin: 4 }
    }
}

/// Everything the pipeline failed on.
#[derive(Debug)]
pub enum PipelineError {
    /// The named benchmark is not part of the Table 1 suite.
    UnknownBenchmark(String),
    /// Parsing or mapping the input netlist failed.
    Netlist(NetlistError),
    /// The post-optimization safety net found a functional difference — the
    /// rewiring/sizing engine produced a wrong network.
    EquivalenceBroken {
        /// Design name.
        name: String,
        /// The optimizer that broke it.
        kind: OptimizerKind,
        /// The failing input vector, when the net that fired produces one
        /// (both nets do: the SAT net extracts it from the miter model and
        /// cross-confirms it on the simulator; the simulation net surfaces
        /// the failing pattern directly).
        counterexample: Option<rapids_cec::Counterexample>,
    },
    /// The SAT safety net could not decide the check (cancelled or over its
    /// conflict budget) — the result network is *not* known wrong, but the
    /// pipeline refuses to hand it out unverified.
    EquivalenceUnresolved {
        /// Design name.
        name: String,
        /// The optimizer whose result was being checked.
        kind: OptimizerKind,
        /// Why the check stopped.
        reason: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownBenchmark(name) => {
                write!(f, "unknown suite benchmark `{name}`")
            }
            PipelineError::Netlist(e) => write!(f, "netlist error: {e}"),
            PipelineError::EquivalenceBroken { name, kind, counterexample } => {
                write!(f, "optimizer {kind} broke functional equivalence on `{name}`")?;
                if let Some(cex) = counterexample {
                    write!(
                        f,
                        " (inputs {} drive output {} to {} instead of {})",
                        cex.input_bits(),
                        cex.output_index,
                        u8::from(cex.output_b),
                        u8::from(cex.output_a),
                    )?;
                }
                Ok(())
            }
            PipelineError::EquivalenceUnresolved { name, kind, reason } => {
                write!(f, "equivalence of optimizer {kind} on `{name}` undecided: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<NetlistError> for PipelineError {
    fn from(e: NetlistError) -> Self {
        PipelineError::Netlist(e)
    }
}

/// Which equivalence oracle guards the optimizer's output when
/// [`PipelineConfig::verify_equivalence`] is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafetyNet {
    /// Random-vector simulation (`rapids-sim`): fast, but only samples the
    /// input space — a low-probability discrepancy can slip through.
    Simulation,
    /// SAT-based proof (`rapids-cec`): Tseitin-encode original and
    /// optimized network into a miter and decide it.  UNSAT *proves*
    /// equivalence on every input; SAT yields a concrete counterexample
    /// that is cross-confirmed on the simulator before being surfaced.
    Sat,
}

/// Configuration of the whole flow; one struct drives every stage.
///
/// The embedded [`OptimizerConfig`] carries the optimizer-side knobs; the
/// ones most often flipped from here are
/// `optimizer.include_inverting_swaps` (legalized inverting/ES swaps, also
/// exposed as `table1 --es`) and `optimizer.kind` (which
/// [`Pipeline::run`] uses).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Placer configuration.
    pub placer: PlacerConfig,
    /// Legalization / detailed-placement stage configuration.  Disabled by
    /// default (the stage is then completely inert and the flow's output is
    /// bit-identical to the pre-legalization behavior); enable it to run
    /// the Abacus legalizer plus the timing-driven refinement after
    /// placement and to let the optimizer nudge accepted ES inverters into
    /// genuinely free row slots (`table1 --legalize`).
    pub legalize: LegalizeConfig,
    /// Timing model configuration.
    pub timing: TimingConfig,
    /// Optimizer configuration; its `kind` is what [`Pipeline::run`] uses
    /// and what the `run_kind`/`compare_optimizers` entry points override.
    pub optimizer: OptimizerConfig,
    /// Placement seed, kept fixed so optimizer variants see the same
    /// placement (the paper's setup).
    pub seed: u64,
    /// Fan-in bound used when a [`CircuitSource`] needs technology mapping.
    pub map_max_fanin: usize,
    /// Run an equivalence check after every optimization and fail the
    /// pipeline if it is violated.  Which check runs is picked by
    /// [`PipelineConfig::safety_net`].
    pub verify_equivalence: bool,
    /// Which safety net guards the optimizer when `verify_equivalence` is
    /// on: random-vector simulation (fast, probabilistic) or a SAT proof
    /// (`rapids-cec`; UNSAT is a proof of equivalence, SAT surfaces a
    /// simulator-confirmed counterexample).
    pub safety_net: SafetyNet,
    /// Number of random vectors for the simulation safety net.
    pub verification_vectors: usize,
    /// Worker threads (1 = fully sequential).  With `threads > 1`,
    /// [`Pipeline::compare_optimizers`] runs its three optimizer kinds
    /// concurrently, each on its own clone of the prepared design, so every
    /// report is bit-identical for any value; each optimizer itself scores
    /// and applies candidates in one in-order loop.  `table1 --threads`
    /// shards designs instead and returns them in input order, so its
    /// reports are bit-identical for any value too.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            // Pad-limited die (low row utilization): wire lengths reach the
            // millimetre range, so interconnect is a first-order term of the
            // critical path — the regime the paper's experiments target.
            placer: PlacerConfig { utilization: 0.15, ..PlacerConfig::default() },
            legalize: LegalizeConfig::default(),
            timing: TimingConfig::default(),
            optimizer: OptimizerConfig::default(),
            seed: 2000,
            map_max_fanin: 4,
            verify_equivalence: false,
            safety_net: SafetyNet::Simulation,
            verification_vectors: 1024,
            threads: 1,
        }
    }
}

impl PipelineConfig {
    /// Reduced-effort configuration for tests and smoke benchmarks.
    pub fn fast() -> Self {
        PipelineConfig {
            placer: PlacerConfig::fast(),
            optimizer: OptimizerConfig::fast(OptimizerKind::Combined),
            ..Self::default()
        }
    }
}

/// Wall-clock cost of the front half of the flow, per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Resolving / generating / parsing the circuit, seconds.
    pub generate_s: f64,
    /// Technology mapping (zero when the source was already mapped), seconds.
    pub map_s: f64,
    /// Placement, seconds.
    pub place_s: f64,
    /// Legalization + timing-driven refinement (zero when the stage is
    /// disabled), seconds.
    pub legalize_s: f64,
    /// Initial static timing analysis, seconds.
    pub sta_s: f64,
}

/// What the pipeline's legalize stage did to one design's placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizationReport {
    /// The Abacus full-legalization outcome (displacement + HPWL deltas).
    pub legalize: LegalizeOutcome,
    /// The timing-driven refinement outcome, when the pass ran
    /// (`LegalizeConfig::refine_worst_k > 0`).
    pub refine: Option<RefineOutcome>,
    /// Total HPWL of the final (legalized + refined) placement, µm — the
    /// value surfaced as `hpwl_um` in the QoR reports.
    pub hpwl_um: f64,
}

impl LegalizationReport {
    /// Largest single-gate displacement the full legalizer applied, µm
    /// (refinement moves are separately bounded by
    /// `LegalizeConfig::refine_budget_um`).
    pub fn max_displacement_um(&self) -> f64 {
        self.legalize.max_displacement_um
    }
}

/// Output of the placement-invariant front half of the flow.
///
/// Holds everything an optimizer run needs; cloning the network per
/// optimizer kind is the caller-visible contract that lets several kinds be
/// compared on identical placements.
#[derive(Debug)]
pub struct PreparedDesign {
    /// Design name (from the suite entry or the netlist itself).
    pub name: String,
    /// The mapped, pre-optimization network.
    pub network: Network,
    /// The cell library every stage ran against.
    pub library: Library,
    /// The fixed placement (legalized + refined when the legalize stage is
    /// enabled).
    pub placement: Placement,
    /// What the legalize stage did (`None` while disabled).
    pub legalization: Option<LegalizationReport>,
    /// Row occupancy of `placement` (`None` while the legalize stage is
    /// disabled).  Shared read-only by every optimizer run against this
    /// design; each run clones it into a private working copy, exactly like
    /// the placement itself.
    pub rows: Option<RowModel>,
    /// STA of `network` on `placement`.
    pub initial_timing: TimingReport,
    /// Per-stage wall-clock cost.
    pub timings: StageTimings,
}

impl PreparedDesign {
    /// Critical-path delay before any optimization, ns.
    pub fn initial_delay_ns(&self) -> f64 {
        self.initial_timing.critical_delay_ns()
    }
}

/// Result of one full pipeline run (front half + one optimizer).
#[derive(Debug)]
pub struct PipelineReport {
    /// Design name.
    pub name: String,
    /// The optimizer that ran.
    pub kind: OptimizerKind,
    /// Critical-path delay before optimization, ns.
    pub initial_delay_ns: f64,
    /// The optimized network.
    pub network: Network,
    /// Full optimizer outcome (delays, area, wire length, swap counts,
    /// supergate statistics).
    pub outcome: OptimizationOutcome,
    /// Whether the post-optimization equivalence check ran (and passed —
    /// a failed check aborts the pipeline instead).
    pub equivalence_verified: bool,
    /// Whether equivalence was *proven* (the [`SafetyNet::Sat`] net ran and
    /// returned UNSAT), as opposed to sampled by random simulation.
    pub equivalence_proven: bool,
    /// What the legalize stage did to the shared placement (`None` while
    /// the stage is disabled).
    pub legalization: Option<LegalizationReport>,
    /// Per-stage cost of the shared front half.
    pub stage_timings: StageTimings,
}

impl PipelineReport {
    /// Delay improvement over the initial placement-only timing, %.
    pub fn delay_improvement_percent(&self) -> f64 {
        self.outcome.delay_improvement_percent()
    }

    /// A placement that covers the (possibly grown) optimized network:
    /// `base` — normally the `PreparedDesign`'s placement — extended with
    /// the overlay slots of every inverter the optimizer inserted.  With
    /// inverting swaps disabled this is just a clone of `base`.  Use it to
    /// re-time or further optimize [`PipelineReport::network`], whose gate
    /// count exceeds `base.len()` after applied ES swaps.
    pub fn grown_placement(&self, base: &Placement) -> Placement {
        let mut placement = base.clone();
        for &(gate, at) in &self.outcome.hosted_inverters {
            placement.host_at(gate, at);
        }
        placement
    }
}

/// Comparison of the paper's three optimizers on one shared placement —
/// the shape of one Table 1 row.
#[derive(Debug)]
pub struct FlowComparison {
    /// Design name.
    pub name: String,
    /// Mapped logic gate count.
    pub gate_count: usize,
    /// Critical-path delay after placement, before optimization, ns.
    pub initial_delay_ns: f64,
    /// `gsg` (rewiring-only) report.
    pub rewiring: PipelineReport,
    /// `GS` (sizing-only) report.
    pub sizing: PipelineReport,
    /// `gsg+GS` (combined) report.
    pub combined: PipelineReport,
    /// The shared placement all three optimizers were scored on.  Kept on
    /// the comparison so long-running callers (the serve layer) can re-time
    /// or re-optimize any of the three result networks without re-running
    /// [`Pipeline::prepare`]; see [`FlowComparison::grown_placement`].
    pub placement: Placement,
    /// What the legalize stage did to that placement (`None` while the
    /// stage is disabled) — the source of the `legalized` / `hpwl_um` /
    /// `max_displacement_um` QoR fields.
    pub legalization: Option<LegalizationReport>,
}

impl FlowComparison {
    /// The report for a given optimizer kind.
    pub fn report(&self, kind: OptimizerKind) -> &PipelineReport {
        match kind {
            OptimizerKind::Rewiring => &self.rewiring,
            OptimizerKind::Sizing => &self.sizing,
            OptimizerKind::Combined => &self.combined,
        }
    }

    /// A placement covering `kind`'s (possibly ES-grown) result network:
    /// the shared placement extended with the overlay slots of every
    /// inserted inverter ([`PipelineReport::grown_placement`] against
    /// [`FlowComparison::placement`]).
    pub fn grown_placement(&self, kind: OptimizerKind) -> Placement {
        self.report(kind).grown_placement(&self.placement)
    }
}

/// Shared tail of the two BLIF resolve arms: book the parse cost under
/// `generate_s`, technology-map under the fan-in bound, book that under
/// `map_s`, and keep the model name.
fn map_parsed(
    parsed: Network,
    max_fanin: usize,
    parse_start: Instant,
    timings: &mut StageTimings,
) -> Result<Network, PipelineError> {
    timings.generate_s = parse_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut mapped = map_to_library(&parsed, max_fanin)?;
    mapped.set_name(parsed.name());
    timings.map_s = start.elapsed().as_secs_f64();
    Ok(mapped)
}

/// The unified generate → map → place → STA → optimize → report flow.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// A pipeline with the paper-fidelity default configuration.
    pub fn with_defaults() -> Self {
        Self::new(PipelineConfig::default())
    }

    /// A reduced-effort pipeline for tests and smoke runs.
    pub fn fast() -> Self {
        Self::new(PipelineConfig::fast())
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Stage 1+2: resolve `source` into a named, mapped network without
    /// placing it (examples that only need the netlist use this).
    pub fn build_network(&self, source: CircuitSource) -> Result<Network, PipelineError> {
        self.resolve(source, &mut StageTimings::default())
    }

    /// Resolves a source into a mapped network, booking the resolve/parse
    /// cost under `generate_s` and the technology-mapping cost under `map_s`.
    fn resolve(
        &self,
        source: CircuitSource,
        timings: &mut StageTimings,
    ) -> Result<Network, PipelineError> {
        let start = Instant::now();
        match source {
            CircuitSource::Suite(name) => {
                // Suite circuits generate *and* map internally; the whole
                // cost is generation from the caller's point of view.
                let network = benchmark(&name).ok_or(PipelineError::UnknownBenchmark(name))?;
                timings.generate_s = start.elapsed().as_secs_f64();
                Ok(network)
            }
            CircuitSource::Mapped(network) => {
                timings.generate_s = start.elapsed().as_secs_f64();
                Ok(network)
            }
            CircuitSource::Unmapped { network, max_fanin } => {
                timings.generate_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let mut mapped = map_to_library(&network, max_fanin)?;
                mapped.set_name(network.name());
                timings.map_s = start.elapsed().as_secs_f64();
                Ok(mapped)
            }
            CircuitSource::Blif { text, max_fanin } => {
                let parsed = blif::parse_string(&text)?;
                map_parsed(parsed, max_fanin, start, timings)
            }
            CircuitSource::BlifFile { path, max_fanin } => {
                let parsed = blif::parse_file(&path)?;
                map_parsed(parsed, max_fanin, start, timings)
            }
        }
    }

    /// Stages 1–4: generate → map → place → STA, with per-stage timings.
    ///
    /// The returned [`PreparedDesign`] is the reuse seam of the flow: it is
    /// placement-invariant, so several optimizer kinds can be scored
    /// against the *same* placement — the paper's experimental setup.
    ///
    /// ```
    /// use rapids_flow::{CircuitSource, Pipeline};
    ///
    /// let design = Pipeline::fast().prepare(CircuitSource::suite("c432")).unwrap();
    /// assert_eq!(design.name, "c432");
    /// assert!(design.initial_delay_ns() > 0.0);
    /// ```
    pub fn prepare(&self, source: CircuitSource) -> Result<PreparedDesign, PipelineError> {
        let mut timings = StageTimings::default();
        let network = self.resolve(source, &mut timings)?;

        let library = Library::standard_035um();

        let start = Instant::now();
        let place_span = rapids_obs::span("stage.place");
        let mut placement = place(&network, &library, &self.config.placer, self.config.seed);
        drop(place_span);
        timings.place_s = start.elapsed().as_secs_f64();

        // The legalize stage: Abacus full legalization onto the row/site
        // grid, an occupancy model of the result, and the timing-driven
        // refinement of the worst-slack gates.  All three optimizer kinds
        // then score against this one final placement — the shared-placement
        // contract is unchanged, the placement is just legal now.
        let mut legalization = None;
        let mut rows = None;
        if self.config.legalize.enabled {
            let start = Instant::now();
            let _legalize_span = rapids_obs::span("stage.legalize");
            let outcome = legalize(&network, &library, &mut placement);
            let mut model = RowModel::build(&network, &library, &placement);
            let refine = (self.config.legalize.refine_worst_k > 0).then(|| {
                refine_worst_slack(
                    &network,
                    &library,
                    &mut placement,
                    &mut model,
                    &self.config.timing,
                    &RefineConfig {
                        worst_k: self.config.legalize.refine_worst_k,
                        displacement_budget_um: self.config.legalize.refine_budget_um,
                    },
                )
            });
            legalization = Some(LegalizationReport {
                legalize: outcome,
                refine,
                hpwl_um: placement.total_hpwl_um(&network),
            });
            rows = Some(model);
            timings.legalize_s = start.elapsed().as_secs_f64();
        }

        let start = Instant::now();
        let sta_span = rapids_obs::span("stage.sta");
        let initial_timing = Sta::analyze(&network, &library, &placement, &self.config.timing);
        drop(sta_span);
        timings.sta_s = start.elapsed().as_secs_f64();

        Ok(PreparedDesign {
            name: network.name().to_string(),
            network,
            library,
            placement,
            legalization,
            rows,
            initial_timing,
            timings,
        })
    }

    /// Stage 5+6: run one optimizer kind against a prepared design and
    /// (optionally) verify functional equivalence of the result.
    ///
    /// The prepared design is borrowed immutably — each call clones its
    /// network, so any number of kinds can run against one `prepare` call:
    ///
    /// ```
    /// use rapids_core::OptimizerKind;
    /// use rapids_flow::{CircuitSource, Pipeline};
    ///
    /// let pipeline = Pipeline::fast();
    /// let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
    /// let gsg = pipeline.optimize(&design, OptimizerKind::Rewiring).unwrap();
    /// let gs = pipeline.optimize(&design, OptimizerKind::Sizing).unwrap();
    /// assert_eq!(gsg.initial_delay_ns, gs.initial_delay_ns); // same placement
    /// assert!(gsg.outcome.final_delay_ns <= gsg.initial_delay_ns + 1e-9);
    /// ```
    pub fn optimize(
        &self,
        design: &PreparedDesign,
        kind: OptimizerKind,
    ) -> Result<PipelineReport, PipelineError> {
        self.optimize_cancellable(design, kind, &CancelToken::new())
    }

    /// [`Pipeline::optimize`] with a cooperative cancellation token.
    ///
    /// The token is polled at optimizer pass boundaries; once cancelled, the
    /// run stops starting new passes and returns the best result reached so
    /// far (a valid, consistent network — just optimized with fewer passes).
    /// Callers that need a hard deadline pair this with a watchdog thread
    /// that cancels the token when the deadline expires.
    pub fn optimize_cancellable(
        &self,
        design: &PreparedDesign,
        kind: OptimizerKind,
        cancel: &CancelToken,
    ) -> Result<PipelineReport, PipelineError> {
        let mut working = design.network.clone();
        let optimizer_config = OptimizerConfig { kind, ..self.config.optimizer.clone() };
        let rows = if self.config.legalize.nudge_es { design.rows.as_ref() } else { None };
        let optimize_span = rapids_obs::span("stage.optimize");
        let outcome =
            Optimizer::new(optimizer_config).with_cancel(cancel.clone()).optimize_with_rows(
                &mut working,
                &design.library,
                &design.placement,
                rows,
                &self.config.timing,
            );
        drop(optimize_span);

        let mut equivalence_proven = false;
        if self.config.verify_equivalence {
            let _safety_span = rapids_obs::span("stage.safety_net");
            match self.config.safety_net {
                SafetyNet::Simulation => {
                    let verdict = check_equivalence_random(
                        &design.network,
                        &working,
                        self.config.verification_vectors,
                        self.config.seed ^ 0x5eed_cafe,
                    );
                    if let rapids_sim::EquivalenceResult::Mismatch {
                        output_index,
                        inputs,
                        output_a,
                        output_b,
                        ..
                    } = verdict
                    {
                        return Err(PipelineError::EquivalenceBroken {
                            name: design.name.clone(),
                            kind,
                            counterexample: Some(rapids_cec::Counterexample {
                                inputs,
                                output_index,
                                output_a,
                                output_b,
                            }),
                        });
                    } else if !verdict.is_equivalent() {
                        return Err(PipelineError::EquivalenceBroken {
                            name: design.name.clone(),
                            kind,
                            counterexample: None,
                        });
                    }
                }
                SafetyNet::Sat => {
                    let cec_config = rapids_cec::CecConfig {
                        seed: self.config.seed ^ 0x5eed_cafe,
                        cancel: Some(cancel.clone()),
                    };
                    match rapids_cec::check_equivalence(&design.network, &working, &cec_config) {
                        rapids_cec::CecResult::EquivalentProven => equivalence_proven = true,
                        rapids_cec::CecResult::NotEquivalent(cex) => {
                            // The checker already replayed the vector on the
                            // simulator to locate the differing output;
                            // cross-confirm once more against the whole
                            // output vector before surfacing it.
                            let sim_verdict = rapids_sim::Simulator::new(&design.network)
                                .simulate_bools(&design.network, &cex.inputs);
                            let sim_opt = rapids_sim::Simulator::new(&working)
                                .simulate_bools(&working, &cex.inputs);
                            debug_assert_ne!(
                                sim_verdict[cex.output_index], sim_opt[cex.output_index],
                                "CEC counterexample must replay on the simulator"
                            );
                            return Err(PipelineError::EquivalenceBroken {
                                name: design.name.clone(),
                                kind,
                                counterexample: Some(cex),
                            });
                        }
                        rapids_cec::CecResult::InterfaceMismatch { inputs, outputs } => {
                            return Err(PipelineError::EquivalenceUnresolved {
                                name: design.name.clone(),
                                kind,
                                reason: format!(
                                    "optimizer changed the interface: inputs {inputs:?}, outputs {outputs:?}"
                                ),
                            });
                        }
                        rapids_cec::CecResult::Aborted(reason) => {
                            return Err(PipelineError::EquivalenceUnresolved {
                                name: design.name.clone(),
                                kind,
                                reason,
                            });
                        }
                    }
                }
            }
            // Physical side of the safety net: a legalized flow must stay
            // overlap-free through optimization — the base placement is
            // legal and every surviving nudged inverter sits in a slot the
            // row model handed out.  Three genuine carve-outs: a nudge
            // that fell back to driver-stacking (a full die, recorded in
            // the outcome); inverters hosted with nudging *off*
            // (`nudge_es == false` stacks them on their drivers by
            // design); and runs that *resized* gates — an upsized cell is
            // physically wider, so sizing legitimately needs a
            // re-legalization pass, which the flow does not do yet (see
            // ROADMAP).  Rewiring and ES growth never change a footprint.
            if self.config.legalize.enabled
                && outcome.nudge_fallbacks == 0
                && outcome.gates_resized == 0
                && (self.config.legalize.nudge_es || outcome.inverting_swaps_applied == 0)
            {
                let mut grown = design.placement.clone();
                for &(inv, at) in &outcome.hosted_inverters {
                    grown.host_at(inv, at);
                }
                grown.assert_legal(&working, &design.library);
            }
        }

        Ok(PipelineReport {
            name: design.name.clone(),
            kind,
            initial_delay_ns: design.initial_delay_ns(),
            network: working,
            outcome,
            equivalence_verified: self.config.verify_equivalence,
            equivalence_proven,
            legalization: design.legalization,
            stage_timings: design.timings,
        })
    }

    /// The whole flow with the configured optimizer kind.
    pub fn run(&self, source: CircuitSource) -> Result<PipelineReport, PipelineError> {
        self.run_kind(source, self.config.optimizer.kind)
    }

    /// The whole flow with an explicit optimizer kind.
    pub fn run_kind(
        &self,
        source: CircuitSource,
        kind: OptimizerKind,
    ) -> Result<PipelineReport, PipelineError> {
        let design = self.prepare(source)?;
        self.optimize(&design, kind)
    }

    /// Runs `gsg`, `GS` and `gsg+GS` on one shared placement — one Table 1
    /// row's worth of experiments.  The three optimizer runs are independent
    /// (each clones the prepared network), so with `threads > 1` they execute
    /// on separate threads; the comparison is identical either way.
    ///
    /// ```
    /// use rapids_core::OptimizerKind;
    /// use rapids_flow::{CircuitSource, Pipeline};
    ///
    /// let row = Pipeline::fast().compare_optimizers(CircuitSource::suite("c432")).unwrap();
    /// assert_eq!(row.report(OptimizerKind::Rewiring).outcome.gates_resized, 0);
    /// assert!(row.combined.outcome.final_delay_ns <= row.initial_delay_ns + 1e-9);
    /// ```
    pub fn compare_optimizers(
        &self,
        source: CircuitSource,
    ) -> Result<FlowComparison, PipelineError> {
        self.compare_optimizers_cancellable(source, &CancelToken::new())
    }

    /// [`Pipeline::compare_optimizers`] with a cooperative cancellation
    /// token shared by all three optimizer runs (see
    /// [`Pipeline::optimize_cancellable`] for the cancellation semantics).
    pub fn compare_optimizers_cancellable(
        &self,
        source: CircuitSource,
        cancel: &CancelToken,
    ) -> Result<FlowComparison, PipelineError> {
        let design = self.prepare(source)?;
        let (rewiring, sizing, combined) = if self.config.threads > 1 {
            let design_ref = &design;
            std::thread::scope(|s| {
                let rewiring = s.spawn(|| {
                    self.optimize_cancellable(design_ref, OptimizerKind::Rewiring, cancel)
                });
                let sizing = s
                    .spawn(|| self.optimize_cancellable(design_ref, OptimizerKind::Sizing, cancel));
                let combined =
                    self.optimize_cancellable(design_ref, OptimizerKind::Combined, cancel);
                let rewiring = rewiring.join().expect("rewiring optimizer thread panicked");
                let sizing = sizing.join().expect("sizing optimizer thread panicked");
                (rewiring, sizing, combined)
            })
        } else {
            (
                self.optimize_cancellable(&design, OptimizerKind::Rewiring, cancel),
                self.optimize_cancellable(&design, OptimizerKind::Sizing, cancel),
                self.optimize_cancellable(&design, OptimizerKind::Combined, cancel),
            )
        };
        Ok(FlowComparison {
            name: design.name.clone(),
            gate_count: design.network.logic_gate_count(),
            initial_delay_ns: design.initial_delay_ns(),
            rewiring: rewiring?,
            sizing: sizing?,
            combined: combined?,
            legalization: design.legalization,
            placement: design.placement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::{GateType, NetworkBuilder};

    fn tiny_mapped() -> Network {
        let mut b = NetworkBuilder::new("tiny");
        b.inputs(["a", "b", "c"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("f", GateType::Nand, &["n1", "c"]);
        b.output("f");
        b.finish().unwrap()
    }

    #[test]
    fn unknown_suite_name_is_reported() {
        let err = Pipeline::fast().run(CircuitSource::suite("not_a_benchmark")).unwrap_err();
        assert!(matches!(err, PipelineError::UnknownBenchmark(_)));
    }

    #[test]
    fn mapped_source_runs_end_to_end() {
        let report = Pipeline::fast()
            .run_kind(CircuitSource::Mapped(tiny_mapped()), OptimizerKind::Rewiring)
            .unwrap();
        assert_eq!(report.name, "tiny");
        assert!(report.initial_delay_ns > 0.0);
        assert!(report.outcome.final_delay_ns <= report.initial_delay_ns + 1e-9);
    }

    #[test]
    fn blif_source_round_trips_through_the_flow() {
        let text = blif::write_string(&tiny_mapped());
        let report = Pipeline::fast().run(CircuitSource::Blif { text, max_fanin: 4 }).unwrap();
        assert!(report.initial_delay_ns > 0.0);
    }

    #[test]
    fn legalize_stage_yields_a_legal_placement_through_es_growth() {
        let mut config = PipelineConfig::fast();
        config.legalize = LegalizeConfig::enabled();
        config.optimizer.include_inverting_swaps = true;
        config.verify_equivalence = true;
        let pipeline = Pipeline::new(config);
        let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
        design.placement.assert_legal(&design.network, &design.library);
        let legalization = design.legalization.expect("the enabled stage reports its work");
        assert!(legalization.legalize.moved_gates > 0);
        assert_eq!(legalization.legalize.unplaced_gates, 0);
        assert!(legalization.hpwl_um > 0.0);
        assert!(design.rows.is_some());
        // Optimize with ES growth: the equivalence + legality safety net
        // runs inside, and the grown placement stays overlap-free.
        let report = pipeline.optimize(&design, OptimizerKind::Rewiring).unwrap();
        assert!(report.outcome.inverting_swaps_applied > 0);
        assert_eq!(report.outcome.nudge_fallbacks, 0);
        report.grown_placement(&design.placement).assert_legal(&report.network, &design.library);
        assert!(report.legalization.is_some());
        assert!(report.stage_timings.legalize_s > 0.0);
    }

    #[test]
    fn legalized_flow_without_nudging_still_verifies() {
        // `nudge_es: false` stacks accepted inverters on their drivers by
        // design, so the legality half of the safety net must stand down
        // instead of panicking on the (intentional) overlap.
        let mut config = PipelineConfig::fast();
        config.legalize = LegalizeConfig { nudge_es: false, ..LegalizeConfig::enabled() };
        config.optimizer.include_inverting_swaps = true;
        config.verify_equivalence = true;
        let report = Pipeline::new(config)
            .run_kind(CircuitSource::suite("c432"), OptimizerKind::Rewiring)
            .unwrap();
        assert!(report.outcome.inverting_swaps_applied > 0, "ES swaps still fire");
        assert!(report.equivalence_verified);
    }

    #[test]
    fn disabled_legalize_stage_is_inert() {
        let pipeline = Pipeline::fast();
        let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
        assert!(design.legalization.is_none());
        assert!(design.rows.is_none());
        assert_eq!(design.timings.legalize_s, 0.0);
    }

    #[test]
    fn prepared_design_is_shared_across_kinds() {
        let pipeline = Pipeline::fast();
        let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
        let a = pipeline.optimize(&design, OptimizerKind::Rewiring).unwrap();
        let b = pipeline.optimize(&design, OptimizerKind::Sizing).unwrap();
        assert_eq!(a.initial_delay_ns, b.initial_delay_ns);
    }
}
