//! The gate sizing optimizer ("GS" in the paper's Table 1).
//!
//! Timing state is owned by an [`IncrementalSta`]: each phase scores
//! candidates against the frozen report of the last refresh, and the refresh
//! between phases re-times only the fan-in/fan-out cones of the gates that
//! actually changed.  Candidate probes run through a [`NetCache`] so the
//! star geometry and Elmore delays of unchanged nets are never recomputed,
//! and phases can score batches of region-disjoint gates on worker threads
//! (`SizerConfig::threads`) with bit-identical results to the sequential
//! visit.

use rapids_celllib::Library;
use rapids_netlist::{GateId, Network};
use rapids_placement::Placement;
use rapids_timing::{IncrementalSta, NetCache, TimingConfig, TimingReport};

use crate::cancel::CancelToken;
use crate::neighborhood::neighborhood_eval;
use crate::parallel::visit_in_disjoint_batches;

/// Gates whose slack is within this margin of the worst slack are critical
/// and visited by the min-slack phase; the relaxation phase visits the rest,
/// ns.
const CRITICAL_MARGIN_NS: f64 = 0.15;

/// Minimum improvement of the critical-path delay required to start another
/// pass, ns.
const CONVERGENCE_THRESHOLD_NS: f64 = 1e-4;

/// Configuration of the sizing optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct SizerConfig {
    /// Maximum number of (min-slack + relaxation) passes.
    pub max_passes: usize,
    /// Worker threads for candidate scoring (1 = fully sequential).  Any
    /// thread count takes identical decisions and sizing is bit-exact; the
    /// normative statement lives in [`crate::parallel`] (the `threads`
    /// determinism contract).
    pub threads: usize,
}

impl Default for SizerConfig {
    fn default() -> Self {
        SizerConfig { max_passes: 6, threads: 1 }
    }
}

impl SizerConfig {
    /// A reduced-effort configuration for tests and smoke benchmarks.
    pub fn fast() -> Self {
        SizerConfig { max_passes: 2, ..Self::default() }
    }
}

/// Summary of one sizing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingOutcome {
    /// Critical-path delay before optimization, ns.
    pub initial_delay_ns: f64,
    /// Critical-path delay after optimization, ns.
    pub final_delay_ns: f64,
    /// Total cell area before optimization, µm².
    pub initial_area_um2: f64,
    /// Total cell area after optimization, µm².
    pub final_area_um2: f64,
    /// Number of gates whose final drive strength differs from the input.
    pub resized_gates: usize,
    /// Number of optimization passes executed.
    pub passes: usize,
}

impl SizingOutcome {
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
}

/// A sizing decision journal: `(gate, previous size class)` per change, in
/// application order.  Replaces the whole-network snapshots that phase
/// rollback used to clone.
type SizeJournal = Vec<(GateId, u8)>;

/// The gate sizing optimizer.
#[derive(Debug, Clone)]
pub struct GateSizer {
    config: SizerConfig,
    cancel: CancelToken,
}

impl GateSizer {
    /// Creates a sizer with the given configuration.
    pub fn new(config: SizerConfig) -> Self {
        GateSizer { config, cancel: CancelToken::new() }
    }

    /// Attaches a cooperative cancellation token: the pass loop polls it at
    /// pass boundaries and stops early (returning the best result so far)
    /// once it is cancelled.  The token lives on the sizer, not the config,
    /// so it never participates in config equality or fingerprints.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Runs sizing on `network` in place (only `size_class` fields change;
    /// the structure and the placement are untouched) and reports the
    /// before/after metrics.
    pub fn optimize(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &Placement,
        timing: &TimingConfig,
    ) -> SizingOutcome {
        // The shared batch visitor threads a mutable placement through so
        // that inverting-swap probes (in the rewiring optimizer) can host
        // inserted inverters; sizing never touches it, so a private copy
        // keeps the caller's placement provably frozen.
        let mut placement = placement.clone();
        let mut inc = IncrementalSta::new(network, library, &placement, timing);
        self.optimize_with(network, library, &mut placement, timing, &mut inc)
    }

    /// Runs sizing against a caller-owned timing engine, leaving `inc`
    /// current for the final network state.
    ///
    /// This is the path the rewiring optimizer uses: it already owns an
    /// [`IncrementalSta`] for the network, so sizing re-uses it instead of
    /// building a second engine and forcing a redundant full re-analysis
    /// afterwards.  `inc` must be current for (`network`, `placement`) on
    /// entry.  Because a dirty-cone update converges bit-identically to a
    /// full analysis, the decisions — and the resulting QoR — are exactly
    /// those of [`GateSizer::optimize`].
    pub fn optimize_with(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &mut Placement,
        timing: &TimingConfig,
        inc: &mut IncrementalSta,
    ) -> SizingOutcome {
        let pass_counter = rapids_obs::metrics::counter("sizer.passes");
        let mut cache = NetCache::for_network(network);
        let initial_delay_ns = inc.report().critical_delay_ns();
        let initial_area_um2 = library.network_area_um2(network);
        let initial_classes = size_classes(network);

        let mut best_delay = initial_delay_ns;
        let mut passes = 0;
        for _ in 0..self.config.max_passes {
            if self.cancel.is_cancelled() {
                break;
            }
            passes += 1;
            pass_counter.inc();
            let _pass_span = rapids_obs::span("sizer.pass");
            // The min-slack phase and the relaxation phase are checkpointed
            // independently: a relaxation step that turns out to hurt the
            // global critical path is rolled back without discarding the
            // delay gains of the min-slack phase.
            let journal_min =
                self.min_slack_phase(network, library, placement, timing, inc.report(), &mut cache);
            let changed_min = journal_min.len();
            let touched_min: Vec<GateId> = journal_min.iter().map(|&(g, _)| g).collect();
            inc.update(network, library, placement, &touched_min);
            let after_min = inc.report().critical_delay_ns();
            if after_min > best_delay + 1e-9 {
                rollback(network, &mut cache, &journal_min);
                inc.update(network, library, placement, &touched_min);
                break;
            }
            let journal_relax = self.relaxation_phase(
                network,
                library,
                placement,
                timing,
                inc.report(),
                &mut cache,
            );
            let mut changed_relax = journal_relax.len();
            let touched: Vec<GateId> = journal_relax.iter().map(|&(g, _)| g).collect();
            inc.update(network, library, placement, &touched);
            if inc.report().critical_delay_ns() > after_min + 1e-9 {
                rollback(network, &mut cache, &journal_relax);
                inc.update(network, library, placement, &touched);
                changed_relax = 0;
            }
            let after = inc.report().critical_delay_ns();
            let improved = best_delay - after > CONVERGENCE_THRESHOLD_NS;
            if after < best_delay {
                best_delay = after;
            }
            if changed_min + changed_relax == 0 || !improved {
                break;
            }
        }

        let resized_gates = resized_since(network, &initial_classes);
        rapids_obs::metrics::counter("sizer.gates_resized").add(resized_gates as u64);
        SizingOutcome {
            initial_delay_ns,
            final_delay_ns: inc.report().critical_delay_ns(),
            initial_area_um2,
            final_area_um2: library.network_area_um2(network),
            resized_gates,
            passes,
        }
    }

    /// Visits critical gates in order of increasing slack and greedily picks
    /// the drive strength that maximizes the gate's own re-timed slack,
    /// subject to the fan-in drivers staying above the do-no-harm floor
    /// (see `decide_best_drive`).
    #[allow(clippy::too_many_arguments)]
    fn min_slack_phase(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &mut Placement,
        timing: &TimingConfig,
        report: &TimingReport,
        cache: &mut NetCache,
    ) -> SizeJournal {
        let _span = rapids_obs::span("sizer.visit_min");
        let worst = report.worst_slack_ns();
        let mut critical: Vec<GateId> = network
            .iter_logic()
            .filter(|&g| report.slack(g) <= worst + CRITICAL_MARGIN_NS)
            .collect();
        critical.sort_by(|&a, &b| report.slack(a).total_cmp(&report.slack(b)));
        self.visit_gates(
            network, library, placement, timing, report, cache, &critical, false, worst,
        )
    }

    /// Visits non-critical gates and picks the implementation maximizing the
    /// neighborhood *total* slack, preferring smaller cells on ties — this is
    /// the relaxation / area-recovery phase.
    #[allow(clippy::too_many_arguments)]
    fn relaxation_phase(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &mut Placement,
        timing: &TimingConfig,
        report: &TimingReport,
        cache: &mut NetCache,
    ) -> SizeJournal {
        let _span = rapids_obs::span("sizer.visit_relax");
        let worst = report.worst_slack_ns();
        let relaxed: Vec<GateId> = network
            .iter_logic()
            .filter(|&g| report.slack(g) > worst + CRITICAL_MARGIN_NS)
            .collect();
        self.visit_gates(network, library, placement, timing, report, cache, &relaxed, true, worst)
    }

    /// Decides and applies the best drive strength for every gate in `gates`
    /// (in order).  With `threads > 1`, contiguous runs of region-disjoint
    /// gates are scored concurrently on cloned networks and applied in the
    /// original order — bit-identical to the sequential visit.
    #[allow(clippy::too_many_arguments)]
    fn visit_gates(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &mut Placement,
        timing: &TimingConfig,
        report: &TimingReport,
        cache: &mut NetCache,
        gates: &[GateId],
        relaxation: bool,
        worst_slack: f64,
    ) -> SizeJournal {
        let mut journal = SizeJournal::new();
        visit_in_disjoint_batches(
            network,
            placement,
            cache,
            self.config.threads,
            gates,
            |network, &g| sizing_region(network, g),
            |network, placement, cache, &g| {
                decide_best_drive(
                    network,
                    library,
                    placement,
                    timing,
                    report,
                    cache,
                    g,
                    relaxation,
                    worst_slack,
                )
            },
            |network, _placement, cache, &g, best| {
                apply_class(network, cache, &mut journal, g, best)
            },
        );
        journal
    }
}

impl Default for GateSizer {
    fn default() -> Self {
        GateSizer::new(SizerConfig::default())
    }
}

/// Tries every available drive strength of `gate` and returns the best one
/// if it differs from the current assignment.  Leaves the network (and the
/// cache's view of it) exactly as found.
// Takes the full evaluation context by design: every argument is a distinct
// piece of the timing state a candidate must be scored against.
#[allow(clippy::too_many_arguments)]
fn decide_best_drive(
    network: &mut Network,
    library: &Library,
    placement: &Placement,
    timing: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    gate: GateId,
    relaxation: bool,
    worst_slack_ns: f64,
) -> Option<u8> {
    let g = network.gate(gate);
    let arity = g.fanin_count();
    let function = g.gtype;
    let original_class = g.size_class;
    let drives = library.available_drives(function, arity);
    if drives.len() <= 1 {
        return None;
    }
    let fanins: Vec<GateId> = network.fanins(gate).to_vec();
    let baseline = neighborhood_eval(network, library, placement, timing, report, cache, gate);
    // Do-no-harm floor for the min-slack phase: a candidate may load the
    // fan-in drivers harder only while none of them drops below the
    // current global worst slack (or below where they already are, if
    // that is worse).  Scoring the gate's *own* re-timed slack under
    // that constraint — rather than the combined neighborhood minimum —
    // lets the upsizing frontier advance along uniformly critical paths,
    // where any upsize necessarily costs its (equally critical) driver a
    // little slack.
    let baseline_slack = baseline.min_slack_ns();
    let driver_floor = baseline.fanin_min_slack_ns.min(worst_slack_ns);

    let mut best_class = original_class;
    let mut best_metric = f64::NEG_INFINITY;
    let mut best_area = f64::INFINITY;
    for drive in drives {
        network.gate_mut(gate).size_class = drive.size_class();
        for &f in &fanins {
            cache.invalidate_loads(f);
        }
        let area =
            library.cell(function, arity, drive).map(|c| c.area_um2).unwrap_or(f64::INFINITY);
        let eval = neighborhood_eval(network, library, placement, timing, report, cache, gate);
        let metric = if relaxation {
            // Relaxation / area recovery: pick the smallest implementation
            // that does not push the neighborhood min slack below the
            // do-no-harm floor (the baseline, clamped at zero so gates
            // with abundant slack may give some of it up).  The total
            // slack acts as a tie-breaker so that, area being equal, the
            // globally faster choice wins.
            let floor = baseline_slack.min(0.0);
            if eval.min_slack_ns() + 1e-9 < floor {
                f64::NEG_INFINITY
            } else {
                -area + eval.total_slack_ns * 1e-6
            }
        } else if eval.fanin_min_slack_ns + 1e-9 < driver_floor {
            f64::NEG_INFINITY
        } else {
            eval.own_slack_ns
        };
        let better =
            metric > best_metric + 1e-9 || (metric > best_metric - 1e-9 && area < best_area);
        if better {
            best_metric = metric;
            best_class = drive.size_class();
            best_area = area;
        }
    }
    network.gate_mut(gate).size_class = original_class;
    for &f in &fanins {
        cache.invalidate_loads(f);
    }
    (best_class != original_class).then_some(best_class)
}

/// Applies a sizing decision, journaling the previous class and keeping the
/// cache coherent.
fn apply_class(
    network: &mut Network,
    cache: &mut NetCache,
    journal: &mut SizeJournal,
    gate: GateId,
    class: u8,
) {
    let old = network.gate(gate).size_class;
    journal.push((gate, old));
    network.gate_mut(gate).size_class = class;
    let fanins: Vec<GateId> = network.fanins(gate).to_vec();
    for f in fanins {
        cache.invalidate_loads(f);
    }
}

/// Reverses a phase's sizing decisions (undo journal replay).
fn rollback(network: &mut Network, cache: &mut NetCache, journal: &[(GateId, u8)]) {
    for &(g, class) in journal.iter().rev() {
        network.gate_mut(g).size_class = class;
        let fanins: Vec<GateId> = network.fanins(g).to_vec();
        for f in fanins {
            cache.invalidate_loads(f);
        }
    }
}

/// Every live gate's size class, in [`Network::iter_live`] order: the
/// snapshot a sizing run takes on entry for [`resized_since`].
pub fn size_classes(network: &Network) -> Vec<u8> {
    network.iter_live().map(|g| network.gate(g).size_class).collect()
}

/// The number of live gates whose size class differs from `before`, a
/// [`size_classes`] snapshot of the same structure (sizing never changes
/// it).  A change that a rolled-back phase or a later pass undid does not
/// count.
pub fn resized_since(network: &Network, before: &[u8]) -> usize {
    network
        .iter_live()
        .zip(before)
        .filter(|&(g, &class)| network.gate(g).size_class != class)
        .count()
}

/// The gates whose timing a sizing decision at `gate` can read or perturb:
/// the gate, its fan-in drivers, and the sinks of all of those nets.  Two
/// gates with disjoint regions can be scored in either order (or
/// concurrently) with identical results.
fn sizing_region(network: &Network, gate: GateId) -> Vec<GateId> {
    let mut region = vec![gate];
    region.extend_from_slice(network.fanins(gate));
    region.extend_from_slice(network.fanouts(gate));
    for &f in network.fanins(gate) {
        region.extend_from_slice(network.fanouts(f));
    }
    region.sort_unstable();
    region.dedup();
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_celllib::Library;
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_placement::{place, PlacerConfig};
    use rapids_sim::check_equivalence_random;

    fn chain_with_fanout() -> Network {
        let mut b = NetworkBuilder::new("load");
        b.inputs(["a", "b"]);
        b.gate("g0", GateType::Nand, &["a", "b"]);
        for i in 1..8 {
            b.gate(format!("g{i}"), GateType::Nand, &[&format!("g{}", i - 1), "b"]);
        }
        // Heavy fanout on g3 to give the sizer something to fix.
        for i in 0..6 {
            b.gate(format!("load{i}"), GateType::Inv, &["g3"]);
            b.output(format!("load{i}"));
        }
        b.output("g7");
        b.finish().unwrap()
    }

    #[test]
    fn sizing_reduces_or_preserves_delay() {
        let mut n = chain_with_fanout();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 3);
        let outcome = GateSizer::new(SizerConfig::default()).optimize(
            &mut n,
            &lib,
            &p,
            &TimingConfig::default(),
        );
        assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9);
        assert!(outcome.passes >= 1);
        assert!(outcome.delay_improvement_percent() >= 0.0);
    }

    #[test]
    fn sizing_changes_only_size_classes() {
        let mut n = chain_with_fanout();
        let reference = n.clone();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 3);
        let _ = GateSizer::default().optimize(&mut n, &lib, &p, &TimingConfig::default());
        // Structure unchanged.
        assert_eq!(n.logic_gate_count(), reference.logic_gate_count());
        for g in n.iter_live() {
            assert_eq!(n.fanins(g), reference.fanins(g));
            assert_eq!(n.gate(g).gtype, reference.gate(g).gtype);
        }
        // Functionality unchanged.
        assert!(check_equivalence_random(&reference, &n, 256, 7).is_equivalent());
    }

    #[test]
    fn heavily_loaded_gate_gets_upsized() {
        let mut n = chain_with_fanout();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 3);
        let _ = GateSizer::default().optimize(&mut n, &lib, &p, &TimingConfig::default());
        let g3 = n.find_by_name("g3").unwrap();
        assert!(
            n.gate(g3).size_class > 0,
            "the gate driving 7 sinks should not stay at minimum size"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let lib = Library::standard_035um();
        let reference = chain_with_fanout();
        let p = place(&reference, &lib, &PlacerConfig::fast(), 3);
        let run = |threads: usize| {
            let mut n = reference.clone();
            let config = SizerConfig { threads, ..SizerConfig::default() };
            let outcome =
                GateSizer::new(config).optimize(&mut n, &lib, &p, &TimingConfig::default());
            let classes: Vec<u8> = n.iter_live().map(|g| n.gate(g).size_class).collect();
            (outcome, classes)
        };
        let (o1, c1) = run(1);
        let (o8, c8) = run(8);
        assert_eq!(o1, o8, "outcomes must be identical across thread counts");
        assert_eq!(c1, c8, "final size classes must be identical across thread counts");
    }

    #[test]
    fn outcome_percentages_are_consistent() {
        let outcome = SizingOutcome {
            initial_delay_ns: 10.0,
            final_delay_ns: 9.0,
            initial_area_um2: 1000.0,
            final_area_um2: 980.0,
            resized_gates: 5,
            passes: 2,
        };
        assert!((outcome.delay_improvement_percent() - 10.0).abs() < 1e-9);
        assert!((outcome.area_change_percent() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let outcome = SizingOutcome {
            initial_delay_ns: 0.0,
            final_delay_ns: 0.0,
            initial_area_um2: 0.0,
            final_area_um2: 0.0,
            resized_gates: 0,
            passes: 0,
        };
        assert_eq!(outcome.delay_improvement_percent(), 0.0);
        assert_eq!(outcome.area_change_percent(), 0.0);
    }
}
