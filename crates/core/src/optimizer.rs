//! Post-placement timing optimization (§5 of the paper).
//!
//! Supergate rewiring is cast as a gate-sizing problem on the supergate
//! netlist: for every non-trivial supergate the set of symmetric pin
//! permutations plays the role of a set of alternative library
//! implementations, and a Coudert-style iteration drives the optimization.
//! Each pass visits the supergates worst slack first and takes the best
//! swap of each, so the **min-slack phase** over the critical supergates
//! leads and the **relaxation phase** over the remaining ones follows.
//! Three optimizers are provided, matching the paper's evaluation:
//!
//! * [`OptimizerKind::Rewiring`] (`gsg`)   — supergate-based rewiring only;
//! * [`OptimizerKind::Sizing`]   (`GS`)    — classical gate sizing only;
//! * [`OptimizerKind::Combined`] (`gsg+GS`) — rewiring on gates covered by
//!   non-trivial supergates, sizing restricted to gates covered by trivial
//!   supergates — the minimum-perturbation combination the paper advocates.
//!
//! Timing state lives in one [`IncrementalSta`] per run: every pass scores
//! candidates against the frozen report of the last refresh (exactly as the
//! paper's "full analysis once per pass" loop did) and the refresh re-times
//! only the cones the accepted moves dirtied.  Candidate probes run through
//! a [`NetCache`]; the supergate extraction is computed once and reused
//! across passes (drive-strength changes never invalidate it, and
//! non-inverting swaps exchange leaf drivers without changing any
//! supergate's structure); a swap of two leaves of one supergate cannot
//! close a cycle, so probes, accepts and rollbacks edit the network without
//! a cycle check (see [`apply_swap`]); and per-pass rollback replays an
//! undo journal of applied swaps instead of restoring a clone of the whole
//! network.
//!
//! Inverting (ES) swaps are first-class when
//! [`OptimizerConfig::include_inverting_swaps`] is set: a probe applies the
//! pin exchange, hosts the two inserted inverters on a private overlay of
//! the placement (each co-located with its driver), scores the result with
//! frozen-report estimates that extend to the not-yet-analyzed inverters,
//! and undoes the move so cleanly that the network's slot count — and with
//! it every id-indexed array — is restored exactly.  Accepted inverters are
//! journaled into the incremental engine's touched set, which grows its
//! arrays in place instead of re-analyzing the whole design.
//!
//! When the caller hands [`Optimizer::optimize_with_rows`] a legalization
//! row model ([`rapids_legalize::RowModel`]), each **accepted** inverter is
//! additionally *nudged* into the nearest genuinely free row slot instead
//! of staying stacked on its driver; the net caches are invalidated for the
//! real position, so every later candidate (and the incremental re-time) is
//! scored against it.  Probes still host at the co-located position and
//! never touch the row model, so only an accepted inverter claims a row
//! slot, in acceptance order.  Rolled-back passes release the slots their
//! undone inverters occupied.

use std::collections::HashSet;
use std::time::Instant;

use rapids_celllib::Library;
use rapids_legalize::RowModel;
use rapids_netlist::{GateId, Network};
use rapids_placement::{gate_width_sites, Placement, Point};
use rapids_sizing::{CancelToken, GateSizer, SizerConfig};
use rapids_timing::{IncrementalSta, IncrementalStats, NetCache, TimingConfig, TimingReport};

use crate::report::SupergateStatistics;
use crate::supergate::{extract_supergates, Extraction, Supergate};
use crate::swap::{apply_swap, undo_swap, AppliedSwap, SwapCandidate, SwapKind};
use crate::symmetry::swap_candidates_in;

/// Which of the paper's three optimizers to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// `gsg`: supergate-based rewiring only.
    Rewiring,
    /// `GS`: gate sizing only.
    Sizing,
    /// `gsg+GS`: rewiring on non-trivial supergates, sizing on the rest.
    Combined,
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerKind::Rewiring => write!(f, "gsg"),
            OptimizerKind::Sizing => write!(f, "GS"),
            OptimizerKind::Combined => write!(f, "gsg+GS"),
        }
    }
}

/// Configuration of the post-placement optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Which optimizer to run.
    pub kind: OptimizerKind,
    /// Maximum number of min-slack + relaxation passes.
    pub max_passes: usize,
    /// Allow inverting (ES) swaps, which exchange two symmetric pins of
    /// opposite implied polarity and insert an inverter pair to compensate
    /// (Lemma 7).  Each inserted inverter is hosted on an internal overlay
    /// of the placement, co-located with its driver, so the caller's
    /// placement is never modified; the network the optimizer returns may
    /// therefore contain more gates than it was given.  Off by default
    /// because the paper's headline `gsg` flow is placement-neutral; the
    /// applied count is reported as
    /// [`OptimizationOutcome::inverting_swaps_applied`].
    pub include_inverting_swaps: bool,
    /// Ignored: the optimizer scores and applies candidates in one in-order
    /// loop.  Kept only because the `perfbench/` harness sets it: that
    /// directory is the benchmark's fixed yardstick, so the field goes when
    /// the benchmark is next revised.
    #[doc(hidden)]
    pub threads: usize,
    /// Configuration of the embedded gate sizer (for `GS` and `gsg+GS`).
    pub sizer: SizerConfig,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            kind: OptimizerKind::Combined,
            max_passes: 4,
            include_inverting_swaps: false,
            threads: 1,
            sizer: SizerConfig::default(),
        }
    }
}

impl OptimizerConfig {
    /// Reduced-effort configuration for tests and smoke benchmarks.
    pub fn fast(kind: OptimizerKind) -> Self {
        OptimizerConfig { kind, max_passes: 2, sizer: SizerConfig::fast(), ..Self::default() }
    }
}

/// Result of one optimization run (one cell of Table 1, essentially).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationOutcome {
    /// The optimizer that produced this outcome.
    pub kind: OptimizerKind,
    /// Critical-path delay before optimization, ns.
    pub initial_delay_ns: f64,
    /// Critical-path delay after optimization, ns.
    pub final_delay_ns: f64,
    /// Total cell area before optimization, µm².
    pub initial_area_um2: f64,
    /// Total cell area after optimization, µm².
    pub final_area_um2: f64,
    /// Total half-perimeter wire length before optimization, µm.
    pub initial_hpwl_um: f64,
    /// Total half-perimeter wire length after optimization, µm.
    pub final_hpwl_um: f64,
    /// Number of pin swaps applied (non-inverting plus inverting).
    pub swaps_applied: usize,
    /// Number of inverting (ES) swaps among `swaps_applied`; each inserted
    /// one inverter pair, so the optimized network carries
    /// `2 × inverting_swaps_applied` more live gates than the input.
    pub inverting_swaps_applied: usize,
    /// Number of gates whose final drive strength differs from the input.
    pub gates_resized: usize,
    /// Overlay positions of the inverters inserted by applied ES swaps,
    /// `(gate, location)` per inverter (empty unless
    /// [`OptimizerConfig::include_inverting_swaps`] applied any).  The
    /// caller's placement has no slots for these gates; to re-time or
    /// re-optimize the returned network, extend a copy of that placement
    /// with [`rapids_placement::Placement::host_at`] for each entry (the
    /// flow packages this as `PipelineReport::grown_placement`).
    pub hosted_inverters: Vec<(GateId, Point)>,
    /// How many accepted inverters could *not* be nudged into a free row
    /// slot (no wide-enough gap anywhere) and fell back to stacking on
    /// their driver.  Always 0 without a row model
    /// ([`Optimizer::optimize_with_rows`]), and 0 on every realistically
    /// utilized die; a non-zero count means the grown placement may
    /// overlap.  Counts misses of rolled-back passes too, so it can
    /// overstate — it is a "may be illegal" flag, not a QoR metric.
    pub nudge_fallbacks: usize,
    /// Wall-clock run time, seconds.
    pub cpu_seconds: f64,
    /// Supergate statistics of the (pre-optimization) netlist.
    pub statistics: SupergateStatistics,
    /// Work counters of the run's timing engine — full re-analyses,
    /// dirty-cone updates and gates re-timed.  The sizer of `GS` and
    /// `gsg+GS` drives this same engine.
    pub sta: IncrementalStats,
}

impl OptimizationOutcome {
    /// Delay improvement as a percentage of the initial delay.
    pub fn delay_improvement_percent(&self) -> f64 {
        if self.initial_delay_ns <= 0.0 {
            return 0.0;
        }
        100.0 * (self.initial_delay_ns - self.final_delay_ns) / self.initial_delay_ns
    }

    /// Area change as a percentage of the initial area (negative = smaller).
    pub fn area_change_percent(&self) -> f64 {
        if self.initial_area_um2 <= 0.0 {
            return 0.0;
        }
        100.0 * (self.final_area_um2 - self.initial_area_um2) / self.initial_area_um2
    }

    /// Wire-length change as a percentage of the initial HPWL.
    pub fn hpwl_change_percent(&self) -> f64 {
        if self.initial_hpwl_um <= 0.0 {
            return 0.0;
        }
        100.0 * (self.final_hpwl_um - self.initial_hpwl_um) / self.initial_hpwl_um
    }
}

/// The post-placement optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
    cancel: CancelToken,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer { config, cancel: CancelToken::new() }
    }

    /// Attaches a cooperative cancellation token, polled at pass boundaries
    /// of every optimization loop: rewiring here, and the sizing passes of
    /// the delegated [`GateSizer`].  A cancelled run stops between passes
    /// and reports the best result reached so far; it never tears the
    /// network.  The token lives on the optimizer, not the config, so
    /// config equality and fingerprints are unaffected.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Runs the configured optimizer on `network` in place.  The caller's
    /// placement is never modified: non-inverting swaps and sizing only
    /// change pin connections and drive strengths, and inverting swaps host
    /// their inserted inverters on an internal overlay copy (each
    /// co-located with its driver).
    pub fn optimize(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &Placement,
        timing: &TimingConfig,
    ) -> OptimizationOutcome {
        self.optimize_with_rows(network, library, placement, None, timing)
    }

    /// [`Optimizer::optimize`] with an optional legalization row model.
    ///
    /// When `rows` is given (it must reflect `placement` — see
    /// [`rapids_legalize::RowModel::build`]), the inverting-swap path hosts
    /// each accepted inverter in the nearest genuinely free row slot
    /// instead of stacking it on its driver, so a legal placement stays
    /// legal as the network grows.  The caller's model is never modified:
    /// like the placement, it is cloned into a working copy whose occupancy
    /// tracks this run's surviving inverters.
    pub fn optimize_with_rows(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &Placement,
        rows: Option<&RowModel>,
        timing: &TimingConfig,
    ) -> OptimizationOutcome {
        let start = Instant::now();
        let mut rows = rows.cloned();
        // Growable working copy: inverting swaps extend it with overlay
        // slots for the inverters they insert (`Placement::host_at`).
        let caller_slots = placement.len();
        let mut placement = placement.clone();
        let placement = &mut placement;
        let mut inc = IncrementalSta::new(network, library, placement, timing);
        let initial_delay_ns = inc.report().critical_delay_ns();
        let initial_area_um2 = library.network_area_um2(network);
        let initial_hpwl_um = placement.total_hpwl_um(network);
        let mut extraction = {
            let _span = rapids_obs::span("optimizer.extract");
            extract_supergates(network)
        };
        let statistics = SupergateStatistics::compute(network, &extraction);
        let mut cache = NetCache::for_network(network);

        let mut swaps_applied = 0usize;
        let mut inverting_swaps_applied = 0usize;
        let mut gates_resized = 0usize;
        match self.config.kind {
            OptimizerKind::Sizing => {
                // The sizer drives our own engine and net cache, so the
                // engine ends the run current — no second engine or cache,
                // no redundant full re-analysis, no stats plumb-through to
                // merge back.
                gates_resized = GateSizer::new(self.config.sizer.clone())
                    .with_cancel(self.cancel.clone())
                    .optimize_with(network, library, placement, timing, &mut inc, &mut cache);
            }
            OptimizerKind::Rewiring => {
                (swaps_applied, inverting_swaps_applied) = self.rewiring_loop(
                    network,
                    library,
                    placement,
                    rows.as_mut(),
                    timing,
                    None,
                    &mut inc,
                    &mut cache,
                    &mut extraction,
                );
            }
            OptimizerKind::Combined => {
                // Gates covered by trivial supergates are the sizing domain.
                let trivial_gates: HashSet<GateId> = extraction
                    .supergates()
                    .iter()
                    .filter(|sg| sg.is_trivial())
                    .flat_map(|sg| sg.members.iter().copied())
                    .collect();
                (swaps_applied, inverting_swaps_applied) = self.rewiring_loop(
                    network,
                    library,
                    placement,
                    rows.as_mut(),
                    timing,
                    Some(&trivial_gates),
                    &mut inc,
                    &mut cache,
                    &mut extraction,
                );
                gates_resized = GateSizer::new(self.config.sizer.clone())
                    .with_cancel(self.cancel.clone())
                    .optimize_domain(
                        network,
                        library,
                        placement,
                        timing,
                        &trivial_gates,
                        &mut inc,
                        &mut cache,
                    );
            }
        }

        // Surviving inserted inverters occupy the overlay slots past the
        // caller's placement; hand their coordinates back so the returned
        // (grown) network stays timeable.
        let hosted_inverters: Vec<(GateId, Point)> = network
            .iter_live()
            .filter(|g| g.index() >= caller_slots)
            .map(|g| (g, placement.position(g)))
            .collect();
        let final_report = inc.report();
        OptimizationOutcome {
            kind: self.config.kind,
            initial_delay_ns,
            final_delay_ns: final_report.critical_delay_ns(),
            initial_area_um2,
            final_area_um2: library.network_area_um2(network),
            initial_hpwl_um,
            final_hpwl_um: placement.total_hpwl_um(network),
            swaps_applied,
            inverting_swaps_applied,
            gates_resized,
            hosted_inverters,
            nudge_fallbacks: rows.as_ref().map_or(0, RowModel::nudge_misses),
            cpu_seconds: start.elapsed().as_secs_f64(),
            statistics,
            sta: inc.stats(),
        }
    }

    /// The rewiring iteration: min-slack phase over critical supergates plus
    /// a relaxation phase over the rest, repeated until no improvement.
    /// When `sizing_domain` is given (`gsg+GS`), its gates are skipped here.
    /// When `rows` is given, accepted inverters are nudged into free row
    /// slots (and released again if the pass rolls back).
    /// Returns `(total swaps, inverting swaps)` applied.
    #[allow(clippy::too_many_arguments)]
    fn rewiring_loop(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &mut Placement,
        mut rows: Option<&mut RowModel>,
        timing: &TimingConfig,
        sizing_domain: Option<&HashSet<GateId>>,
        inc: &mut IncrementalSta,
        cache: &mut NetCache,
        extraction: &mut Extraction,
    ) -> (usize, usize) {
        let registry = rapids_obs::global();
        let pass_counter = registry.counter("optimizer.passes");
        let swap_counter = registry.counter("optimizer.swaps_applied");
        let es_counter = registry.counter("optimizer.es_swaps");
        let rollback_counter = registry.counter("optimizer.rollbacks");
        let rolled_back_swaps = registry.counter("optimizer.swaps_rolled_back");
        let mut total_swaps = 0usize;
        let mut total_inverting = 0usize;
        let mut best_delay = f64::INFINITY;
        let mut extraction_slots = network.gate_count();
        for _ in 0..self.config.max_passes {
            if self.cancel.is_cancelled() {
                break;
            }
            if inc.report().critical_delay_ns() + 1e-6 >= best_delay && total_swaps > 0 {
                break;
            }
            pass_counter.inc();
            let _pass_span = rapids_obs::span("optimizer.pass");
            best_delay = best_delay.min(inc.report().critical_delay_ns());
            let pass_start_delay = inc.report().critical_delay_ns();
            // Inverting swaps grow the network and restructure supergates;
            // non-inverting swaps only exchange leaf drivers, which
            // `swap_candidates_in` re-reads, so the extraction is reusable.
            if network.gate_count() != extraction_slots {
                let _span = rapids_obs::span("optimizer.extract");
                *extraction = extract_supergates(network);
                extraction_slots = network.gate_count();
            }

            let report = inc.report();

            // Worst slack first: the critical supergates (the min-slack
            // phase) form a prefix of the order, and the relaxation phase
            // over the remaining non-trivial supergates, aiming at
            // total-slack (wire-length) recovery, follows in the same visit.
            let mut ordered: Vec<&Supergate> = extraction
                .supergates()
                .iter()
                .filter(|sg| !sg.is_trivial())
                .filter(|sg| {
                    sizing_domain.is_none_or(|dom| !sg.members.iter().all(|m| dom.contains(m)))
                })
                .collect();
            let slack_of: Vec<f64> = ordered.iter().map(|sg| supergate_slack(report, sg)).collect();
            let mut index: Vec<usize> = (0..ordered.len()).collect();
            index.sort_by(|&a, &b| slack_of[a].total_cmp(&slack_of[b]));
            ordered = index.iter().map(|&i| ordered[i]).collect();

            let mut journal: Vec<AppliedSwap> = Vec::new();
            self.visit_supergates(
                network,
                library,
                placement,
                &mut rows,
                timing,
                report,
                cache,
                &ordered,
                &mut journal,
            );
            let pass_swaps = journal.len();
            if pass_swaps == 0 {
                break;
            }
            let pass_inverting =
                journal.iter().filter(|a| a.candidate().kind == SwapKind::Inverting).count();
            // The touched set covers every gate whose connectivity changed:
            // the two swapped pins' gates, and for inverting swaps the
            // inserted inverters (whose fan-ins — the exchanged drivers,
            // whose sink sets changed — the engine folds in itself).
            let mut touched: Vec<GateId> = Vec::with_capacity(journal.len() * 4);
            for applied in &journal {
                touched.push(applied.candidate().pin_a.gate);
                touched.push(applied.candidate().pin_b.gate);
                touched.extend_from_slice(applied.inserted_inverters());
            }
            touched.sort_unstable();
            touched.dedup();
            inc.update(network, library, placement, &touched);
            if inc.report().critical_delay_ns() > pass_start_delay + 1e-9 {
                // The local metric misjudged this batch; replay the undo
                // journal and stop.  Undoing an inverting swap pops its
                // inverters' slots, so the slot count (and the placement
                // overlay, truncated below) return to the pass-start state;
                // the row slots the undone inverters were nudged into are
                // freed again too.
                for applied in journal.iter().rev() {
                    let (da, db) = swap_drivers(network, applied.candidate());
                    undo_swap(network, applied).expect("undoing a journaled swap succeeds");
                    invalidate_swap_nets(cache, network, applied.candidate(), da, db);
                    if let Some(rows) = rows.as_deref_mut() {
                        for &inv in applied.inserted_inverters() {
                            rows.release(inv);
                        }
                    }
                }
                placement.truncate_slots(network.gate_count());
                inc.update(network, library, placement, &touched);
                rollback_counter.inc();
                rolled_back_swaps.add(pass_swaps as u64);
                break;
            }
            total_swaps += pass_swaps;
            total_inverting += pass_inverting;
            swap_counter.add(pass_swaps as u64);
            es_counter.add(pass_inverting as u64);
        }
        (total_swaps, total_inverting)
    }

    /// Scores every supergate in `list` (in order) and applies each winning
    /// swap before scoring the next.  The row model rides only in
    /// `accept_swap`: scoring probes host at the co-located position, so a
    /// row slot is claimed only by an accepted inverter.
    #[allow(clippy::too_many_arguments)]
    fn visit_supergates(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &mut Placement,
        rows: &mut Option<&mut RowModel>,
        timing: &TimingConfig,
        report: &TimingReport,
        cache: &mut NetCache,
        list: &[&Supergate],
        journal: &mut Vec<AppliedSwap>,
    ) {
        let _span = rapids_obs::span("optimizer.visit");
        let include_inverting = self.config.include_inverting_swaps;
        for sg in list {
            if let Some(candidate) = score_best_swap(
                network,
                library,
                placement,
                timing,
                report,
                cache,
                include_inverting,
                sg,
            ) {
                accept_swap(
                    network,
                    library,
                    placement,
                    rows.as_deref_mut(),
                    cache,
                    journal,
                    &candidate,
                );
            }
        }
    }
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new(OptimizerConfig::default())
    }
}

/// Worst slack over the member gates of a supergate.
fn supergate_slack(report: &TimingReport, supergate: &Supergate) -> f64 {
    supergate.members.iter().map(|&m| report.slack(m)).fold(f64::INFINITY, f64::min)
}

/// The current drivers of a candidate's two pins.
fn swap_drivers(network: &Network, candidate: &SwapCandidate) -> (GateId, GateId) {
    (
        network.pin_driver(candidate.pin_a).expect("swap pin exists"),
        network.pin_driver(candidate.pin_b).expect("swap pin exists"),
    )
}

/// Drops the cache state of every net a swap changed: the two exchanged
/// drivers' nets (sink sets changed) and, for inverting swaps, the inserted
/// inverters' nets.
fn invalidate_swap_nets(
    cache: &mut NetCache,
    network: &Network,
    candidate: &SwapCandidate,
    driver_a: GateId,
    driver_b: GateId,
) {
    // Inverting swaps insert gates; make sure their slots exist.
    cache.grow_slots(network.gate_count());
    cache.invalidate_topology(driver_a);
    cache.invalidate_topology(driver_b);
    if candidate.kind == SwapKind::Inverting {
        // The pins now hang off inverters whose slots may be new.
        for pin in [candidate.pin_a, candidate.pin_b] {
            if let Ok(d) = network.pin_driver(pin) {
                cache.invalidate_topology(d);
            }
        }
    }
}

/// Evaluates every swap candidate of one supergate with the neighborhood
/// metric and returns the best one if it improves on the current wiring.
/// Every pin keeps its driver and the placement and the cache's view are
/// restored: an inverting probe's inserted inverters are popped again on
/// undo and their overlay slots truncated, so the slot count round-trips.
/// The fan-out lists are not left exactly as found: undoing a probe
/// removes each pin from its driver's list with `swap_remove` and appends
/// it again, so a probed driver keeps its sinks in a permuted order.
#[allow(clippy::too_many_arguments)]
fn score_best_swap(
    network: &mut Network,
    library: &Library,
    placement: &mut Placement,
    timing: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    include_inverting: bool,
    supergate: &Supergate,
) -> Option<SwapCandidate> {
    let candidates = swap_candidates_in(network, supergate, include_inverting);
    if candidates.is_empty() {
        return None;
    }
    let baseline =
        swap_neighborhood_metric(network, library, placement, timing, report, cache, supergate);
    let mut best: Option<(SwapCandidate, SwapMetric)> = None;
    for candidate in candidates {
        let (da, db) = swap_drivers(network, &candidate);
        let slots_before = placement.len();
        let applied = apply_swap(network, &candidate).expect("probing a supergate's swap succeeds");
        // Probes always co-locate (no row model): a probe must not claim a
        // row slot, so only `accept_swap` re-hosts the winner through the
        // model.
        host_inserted_inverters(network, library, placement, None, &applied);
        invalidate_swap_nets(cache, network, &candidate, da, db);
        let metric =
            swap_neighborhood_metric(network, library, placement, timing, report, cache, supergate);
        undo_swap(network, &applied).expect("undoing a just-applied swap succeeds");
        placement.truncate_slots(slots_before);
        invalidate_swap_nets(cache, network, &candidate, da, db);
        if metric.improves_on(&baseline) && best.as_ref().is_none_or(|(_, m)| metric.improves_on(m))
        {
            best = Some((candidate, metric));
        }
    }
    best.map(|(candidate, _)| candidate)
}

/// Hosts the inverters an applied swap inserted.
///
/// Without a row model each lands on the overlay slot co-located with its
/// (current) driver, so the driver→inverter stub is (near) zero-length and
/// the inverter→sink segment inherits the original net geometry.  With a
/// row model (`rows`, accept path only) the inverter is *nudged* into the
/// nearest genuinely free row slot instead, keeping a legal placement
/// legal; when no slot is wide enough anywhere, the co-location fallback
/// fires and the model counts the miss
/// ([`OptimizationOutcome::nudge_fallbacks`]).
fn host_inserted_inverters(
    network: &Network,
    library: &Library,
    placement: &mut Placement,
    mut rows: Option<&mut RowModel>,
    applied: &AppliedSwap,
) {
    for &inv in applied.inserted_inverters() {
        let driver = network.fanins(inv)[0];
        debug_assert!(
            placement.covers(driver),
            "an inverter's driver is pre-existing or an already-hosted inverter"
        );
        let stacked = placement.position(driver);
        let hosted = rows
            .as_deref_mut()
            .and_then(|rows| {
                rows.nudge_occupy(inv, stacked, gate_width_sites(network, library, inv))
            })
            .unwrap_or(stacked);
        placement.host_at(inv, hosted);
    }
}

/// Applies a winning swap and keeps the journal, placement overlay, row
/// occupancy and cache coherent.
#[allow(clippy::too_many_arguments)]
fn accept_swap(
    network: &mut Network,
    library: &Library,
    placement: &mut Placement,
    rows: Option<&mut RowModel>,
    cache: &mut NetCache,
    journal: &mut Vec<AppliedSwap>,
    candidate: &SwapCandidate,
) {
    let (da, db) = swap_drivers(network, candidate);
    let applied = apply_swap(network, candidate).expect("re-applying the winning swap succeeds");
    host_inserted_inverters(network, library, placement, rows, &applied);
    // Invalidated *after* hosting, so the star/Elmore terms every later
    // candidate reads are recomputed against the inverter's real position.
    invalidate_swap_nets(cache, network, candidate, da, db);
    journal.push(applied);
}

/// Two-level swap-evaluation metric, compared lexicographically: first the
/// minimum neighborhood slack (the quantity Coudert's min-slack phase
/// maximizes), then the total neighborhood slack (the relaxation objective,
/// which also captures pure wire-length recovery on non-critical nets).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SwapMetric {
    min_slack_ns: f64,
    total_slack_ns: f64,
}

impl SwapMetric {
    fn improves_on(&self, other: &SwapMetric) -> bool {
        if self.min_slack_ns > other.min_slack_ns + 1e-9 {
            return true;
        }
        self.min_slack_ns > other.min_slack_ns - 1e-9
            && self.total_slack_ns > other.total_slack_ns + 1e-9
    }
}

/// Neighborhood metric of the current wiring of a supergate: the minimum
/// (and total), over the supergate's members and the external drivers of its
/// leaves, of `required − locally re-estimated arrival`.
///
/// The arrival estimates recompute the wire (star) and cell delays from the
/// *current* network connectivity (served from the cache), so a candidate
/// swap that shortens a critical branch or unloads a critical driver is
/// rewarded.  A leaf pin currently served through an inserted inverter (an
/// applied ES swap) contributes both the inverter and the inverter's own
/// driver, whose sink set the insertion changed; gates the frozen report
/// does not cover are estimated through [`frozen_input_side`] /
/// [`frozen_required`].
#[allow(clippy::too_many_arguments)]
fn swap_neighborhood_metric(
    network: &Network,
    library: &Library,
    placement: &Placement,
    timing: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    supergate: &Supergate,
) -> SwapMetric {
    let mut worst = f64::INFINITY;
    let mut total = 0.0f64;
    // External drivers: their load (and hence delay) changes with the swap.
    let mut drivers: Vec<GateId> = Vec::with_capacity(supergate.leaves.len());
    for leaf in &supergate.leaves {
        let d = network.pin_driver(leaf.pin).expect("supergate leaf pins always exist");
        drivers.push(d);
        if !report.covers(d) {
            // Freshly inserted inverter: its driver's net changed too.
            drivers.extend_from_slice(network.fanins(d));
        }
    }
    drivers.sort();
    drivers.dedup();
    for d in drivers {
        if network.gate(d).gtype.is_source() {
            continue;
        }
        let input_side = frozen_input_side(network, library, placement, timing, report, cache, d);
        let fresh = cache.gate_output_delay(network, library, placement, timing, d).worst();
        let required = frozen_required(network, library, placement, timing, report, cache, d);
        let slack = required - (input_side + fresh);
        worst = worst.min(slack);
        total += slack;
    }
    // Member gates: their input wire delays change with the swap.
    for &m in &supergate.members {
        let est = member_arrival_estimate(network, library, placement, timing, report, cache, m);
        let slack = report.required(m) - est;
        worst = worst.min(slack);
        total += slack;
    }
    SwapMetric { min_slack_ns: worst, total_slack_ns: total }
}

/// Local arrival estimate of a member gate using fresh wire/cell delays but
/// frozen upstream arrivals (extended past the frozen report for inserted
/// inverters via [`frozen_input_side`]).
#[allow(clippy::too_many_arguments)]
fn member_arrival_estimate(
    network: &Network,
    library: &Library,
    placement: &Placement,
    timing: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    gate: GateId,
) -> f64 {
    let own = cache.gate_output_delay(network, library, placement, timing, gate).worst();
    let mut worst_in = 0.0f64;
    let fanins: Vec<GateId> = network.fanins(gate).to_vec();
    for f in fanins {
        let wire = cache
            .net_delays(network, library, placement, timing, f)
            .delay_to_ns(gate)
            .unwrap_or(0.0);
        let driver_input_side =
            frozen_input_side(network, library, placement, timing, report, cache, f);
        let driver_delay = cache.gate_output_delay(network, library, placement, timing, f).worst();
        let arrival_f =
            if network.gate(f).gtype.is_source() { 0.0 } else { driver_input_side + driver_delay };
        worst_in = worst_in.max(arrival_f + wire);
    }
    worst_in + own
}

/// The frozen-report arrival at a gate's *inputs* (output arrival minus own
/// cell delay), extended to gates the report does not cover.
///
/// For covered gates this is exactly the quantity the pre-legalization
/// metric used.  An uncovered gate is an inverter inserted after the report
/// froze; its input-side arrival is re-derived from its fan-in drivers —
/// frozen input side plus fresh (cached) cell and wire delays — recursing
/// through chains of inserted inverters until a covered gate anchors the
/// estimate.  Terminates because every recursion step moves strictly
/// backwards through a DAG toward covered (pre-existing) gates.
#[allow(clippy::too_many_arguments)]
fn frozen_input_side(
    network: &Network,
    library: &Library,
    placement: &Placement,
    timing: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    gate: GateId,
) -> f64 {
    if report.covers(gate) {
        return report.arrival(gate).worst() - report.gate_delay(gate).worst();
    }
    let mut worst_in = 0.0f64;
    let fanins: Vec<GateId> = network.fanins(gate).to_vec();
    for f in fanins {
        let wire = cache
            .net_delays(network, library, placement, timing, f)
            .delay_to_ns(gate)
            .unwrap_or(0.0);
        let arrival_f = if network.gate(f).gtype.is_source() {
            0.0
        } else {
            frozen_input_side(network, library, placement, timing, report, cache, f)
                + cache.gate_output_delay(network, library, placement, timing, f).worst()
        };
        worst_in = worst_in.max(arrival_f + wire);
    }
    worst_in
}

/// The frozen-report required time at a gate's output, extended to gates the
/// report does not cover (inserted inverters) by propagating backwards from
/// their sinks: `required(sink) − sink cell delay − wire`.  Inserted
/// inverters never drive a primary output (they sit on in-pins), so the
/// propagation always terminates at covered sinks; a sink-less gate falls
/// back to the analysis horizon like the full analyzer's clamp.
#[allow(clippy::too_many_arguments)]
fn frozen_required(
    network: &Network,
    library: &Library,
    placement: &Placement,
    timing: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    gate: GateId,
) -> f64 {
    if report.covers(gate) {
        return report.required(gate);
    }
    let mut required = f64::INFINITY;
    let sinks: Vec<GateId> = network.fanouts(gate).to_vec();
    for s in sinks {
        let wire = cache
            .net_delays(network, library, placement, timing, gate)
            .delay_to_ns(s)
            .unwrap_or(0.0);
        let sink_delay = if report.covers(s) {
            report.gate_delay(s).worst()
        } else {
            cache.gate_output_delay(network, library, placement, timing, s).worst()
        };
        let sink_required = frozen_required(network, library, placement, timing, report, cache, s);
        required = required.min(sink_required - sink_delay - wire);
    }
    if required.is_finite() {
        required
    } else {
        report.required_time_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_circuits::benchmark;
    use rapids_placement::{place, PlacerConfig};
    use rapids_sim::check_equivalence_random;

    fn setup(name: &str) -> (Network, Library, Placement, TimingConfig) {
        let network = benchmark(name).expect("known benchmark");
        let library = Library::standard_035um();
        let placement = place(&network, &library, &PlacerConfig::fast(), 7);
        (network, library, placement, TimingConfig::default())
    }

    #[test]
    fn rewiring_never_degrades_delay_and_preserves_function() {
        let (reference, library, placement, timing) = setup("c432");
        let mut network = reference.clone();
        let outcome = Optimizer::new(OptimizerConfig::fast(OptimizerKind::Rewiring)).optimize(
            &mut network,
            &library,
            &placement,
            &timing,
        );
        assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9);
        assert!(check_equivalence_random(&reference, &network, 512, 3).is_equivalent());
        // gsg never resizes and never adds gates (non-inverting swaps only).
        assert_eq!(outcome.gates_resized, 0);
        assert_eq!(network.live_gate_count(), reference.live_gate_count());
        assert!(outcome.statistics.coverage_percent() > 0.0);
    }

    #[test]
    fn sizing_kind_delegates_to_gate_sizer() {
        let (reference, library, placement, timing) = setup("c432");
        let mut network = reference.clone();
        let outcome = Optimizer::new(OptimizerConfig::fast(OptimizerKind::Sizing)).optimize(
            &mut network,
            &library,
            &placement,
            &timing,
        );
        assert_eq!(outcome.kind, OptimizerKind::Sizing);
        assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9);
        assert_eq!(outcome.swaps_applied, 0);
        assert!(check_equivalence_random(&reference, &network, 512, 3).is_equivalent());
    }

    #[test]
    fn combined_optimizer_improves_at_least_as_much_as_nothing() {
        let (reference, library, placement, timing) = setup("alu2");
        let mut network = reference.clone();
        let outcome = Optimizer::new(OptimizerConfig::fast(OptimizerKind::Combined)).optimize(
            &mut network,
            &library,
            &placement,
            &timing,
        );
        assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9);
        assert!(outcome.delay_improvement_percent() >= 0.0);
        assert!(check_equivalence_random(&reference, &network, 512, 9).is_equivalent());
        assert!(outcome.cpu_seconds > 0.0);
    }

    #[test]
    fn combined_sizes_only_trivially_covered_gates() {
        let (reference, library, placement, timing) = setup("alu2");
        let mut network = reference.clone();
        let outcome = Optimizer::new(OptimizerConfig::fast(OptimizerKind::Combined)).optimize(
            &mut network,
            &library,
            &placement,
            &timing,
        );
        assert!(outcome.gates_resized > 0, "alu2's gsg+GS run must size something");
        let domain: HashSet<GateId> = extract_supergates(&reference)
            .supergates()
            .iter()
            .filter(|sg| sg.is_trivial())
            .flat_map(|sg| sg.members.iter().copied())
            .collect();
        for g in reference.iter_live() {
            if network.gate(g).size_class != reference.gate(g).size_class {
                assert!(domain.contains(&g), "{g} is not covered by a trivial supergate");
            }
        }
    }

    #[test]
    fn inverting_swap_mode_hosts_inserted_inverters() {
        // Inverting candidates are scored and applied for real: the
        // optimizer hosts each inserted inverter on its internal placement
        // overlay, so the run must stay functionally equivalent, acyclic,
        // and grow the network by exactly one inverter pair per applied ES
        // swap (the caller's placement is untouched either way).
        let (reference, library, placement, timing) = setup("c432");
        let placement_len = placement.len();
        let mut network = reference.clone();
        let config = OptimizerConfig {
            include_inverting_swaps: true,
            ..OptimizerConfig::fast(OptimizerKind::Rewiring)
        };
        let outcome = Optimizer::new(config).optimize(&mut network, &library, &placement, &timing);
        assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9);
        assert!(check_equivalence_random(&reference, &network, 512, 5).is_equivalent());
        assert!(network.check_consistency().is_ok());
        assert!(outcome.inverting_swaps_applied <= outcome.swaps_applied);
        assert_eq!(
            network.live_gate_count(),
            reference.live_gate_count() + 2 * outcome.inverting_swaps_applied
        );
        assert_eq!(placement.len(), placement_len, "the caller's placement must stay frozen");
    }

    #[test]
    fn row_model_nudges_accepted_inverters_into_free_slots() {
        // With a legalized placement and a row model, every surviving
        // inverter must land in a genuinely free slot: the grown placement
        // stays overlap-free and the model's occupancy mirrors it.
        let (reference, library, placement, timing) = setup("c432");
        let mut placement = placement;
        rapids_legalize::legalize(&reference, &library, &mut placement);
        placement.assert_legal(&reference, &library);
        let rows = RowModel::build(&reference, &library, &placement);
        let mut network = reference.clone();
        let config = OptimizerConfig {
            include_inverting_swaps: true,
            ..OptimizerConfig::fast(OptimizerKind::Rewiring)
        };
        let outcome = Optimizer::new(config).optimize_with_rows(
            &mut network,
            &library,
            &placement,
            Some(&rows),
            &timing,
        );
        assert!(outcome.inverting_swaps_applied > 0, "c432 must accept ES swaps");
        assert_eq!(outcome.nudge_fallbacks, 0, "the die has plenty of free slots");
        assert!(check_equivalence_random(&reference, &network, 512, 5).is_equivalent());
        // Extend the (still untouched) caller placement with the hosted
        // coordinates: the grown result must be legal, and no inverter may
        // sit stacked on its driver.
        let mut grown = placement.clone();
        for &(inv, at) in &outcome.hosted_inverters {
            grown.host_at(inv, at);
            let driver = network.fanins(inv)[0];
            assert!(
                placement.position(driver).manhattan_distance_um(&at) > 0.0,
                "inverter {inv} is stacked on its driver"
            );
        }
        grown.assert_legal(&network, &library);
        // The caller's row model is as frozen as the caller's placement.
        assert_eq!(rows, RowModel::build(&reference, &library, &placement));
    }

    #[test]
    fn disabled_inverting_mode_never_grows_the_network() {
        let (reference, library, placement, timing) = setup("c432");
        let mut network = reference.clone();
        let outcome = Optimizer::new(OptimizerConfig::fast(OptimizerKind::Rewiring)).optimize(
            &mut network,
            &library,
            &placement,
            &timing,
        );
        assert_eq!(outcome.inverting_swaps_applied, 0);
        assert_eq!(network.live_gate_count(), reference.live_gate_count());
    }

    #[test]
    fn outcome_percentages() {
        let outcome = OptimizationOutcome {
            kind: OptimizerKind::Rewiring,
            initial_delay_ns: 10.0,
            final_delay_ns: 9.0,
            initial_area_um2: 100.0,
            final_area_um2: 100.0,
            initial_hpwl_um: 1000.0,
            final_hpwl_um: 950.0,
            swaps_applied: 3,
            inverting_swaps_applied: 1,
            gates_resized: 0,
            hosted_inverters: vec![(GateId(10), Point::new(1.0, 2.0))],
            nudge_fallbacks: 0,
            cpu_seconds: 0.1,
            statistics: SupergateStatistics {
                gate_count: 10,
                supergate_count: 5,
                nontrivial_count: 2,
                covered_gates: 5,
                largest_inputs: 4,
                redundancy_count: 0,
            },
            sta: IncrementalStats::default(),
        };
        assert!((outcome.delay_improvement_percent() - 10.0).abs() < 1e-9);
        assert_eq!(outcome.area_change_percent(), 0.0);
        assert!((outcome.hpwl_change_percent() + 5.0).abs() < 1e-9);
        assert_eq!(OptimizerKind::Combined.to_string(), "gsg+GS");
    }
}
