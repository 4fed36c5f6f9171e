//! The gate sizer: "GS" in the paper's Table 1, and the sizing half of
//! "gsg+GS".
//!
//! Timing state is owned by an [`IncrementalSta`]: each phase scores
//! candidates against the frozen report of the last refresh, and the refresh
//! between phases re-times only the fan-in/fan-out cones of the gates that
//! actually changed.  Candidate probes run through a [`NetCache`] so the
//! star geometry and Elmore delays of unchanged nets are never recomputed.
//! Each phase visits its gates in order and applies a gate's best drive
//! before scoring the next, so every decision sees the earlier ones.
//!
//! [`GateSizer::optimize_with`] sizes the whole network (GS);
//! [`GateSizer::optimize_domain`] sizes only a given set of gates (the
//! trivially covered gates of gsg+GS).  Both share one per-gate decision,
//! one visit loop and one undo journal.

use std::collections::HashSet;

use rapids_celllib::Library;
use rapids_netlist::{GateId, Network};
use rapids_placement::Placement;
use rapids_timing::{IncrementalSta, NetCache, TimingConfig, TimingReport};

use crate::cancel::CancelToken;
use crate::neighborhood::neighborhood_eval;

/// Gates whose slack is within this margin of the worst slack are critical
/// and visited by GS's min-slack phase; its relaxation phase visits the rest,
/// ns.
const CRITICAL_MARGIN_NS: f64 = 0.15;

/// The critical margin of the gsg+GS domain pass, which visits every domain
/// gate in one loop and scores those past this margin with the relaxation
/// metric, ns.
const DOMAIN_CRITICAL_MARGIN_NS: f64 = 0.2;

/// Minimum improvement of the critical-path delay required to start another
/// pass, ns.
const CONVERGENCE_THRESHOLD_NS: f64 = 1e-4;

/// Configuration of the sizing optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct SizerConfig {
    /// Maximum number of passes: (min-slack + relaxation) passes for GS,
    /// domain passes for gsg+GS.
    pub max_passes: usize,
}

impl Default for SizerConfig {
    fn default() -> Self {
        SizerConfig { max_passes: 6 }
    }
}

impl SizerConfig {
    /// A reduced-effort configuration for tests and smoke benchmarks.
    pub fn fast() -> Self {
        SizerConfig { max_passes: 2 }
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

    /// Runs GS on `network` in place against a caller-owned timing engine
    /// and returns the number of gates whose final drive strength differs
    /// from the input.  Only `size_class` fields change; the structure and
    /// the placement are untouched.
    ///
    /// `inc` and `cache` are the caller's engine and net cache; both must
    /// be current for (`network`, `placement`) on entry and are left
    /// current for the final network state, so the caller reads the result
    /// from `inc.report()` without a second engine or a redundant full
    /// re-analysis.  A dirty-cone update matches a full analysis bit for
    /// bit on every net it refreshes, but a net whose fan-out list an
    /// earlier edit permuted without touching it keeps parasitics a few
    /// ulps off a fresh fold, so an exact slack tie can break differently
    /// than on a freshly built engine.
    pub fn optimize_with(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &Placement,
        timing: &TimingConfig,
        inc: &mut IncrementalSta,
        cache: &mut NetCache,
    ) -> usize {
        let pass_counter = rapids_obs::metrics::counter("sizer.passes");
        let initial_classes = size_classes(network);

        let mut best_delay = inc.report().critical_delay_ns();
        for _ in 0..self.config.max_passes {
            if self.cancel.is_cancelled() {
                break;
            }
            pass_counter.inc();
            let _pass_span = rapids_obs::span("sizer.pass");
            // The min-slack phase and the relaxation phase are checkpointed
            // independently: a relaxation step that turns out to hurt the
            // global critical path is rolled back without discarding the
            // delay gains of the min-slack phase.
            let journal_min =
                self.min_slack_phase(network, library, placement, timing, inc.report(), cache);
            let changed_min = journal_min.len();
            let touched_min: Vec<GateId> = journal_min.iter().map(|&(g, _)| g).collect();
            inc.update(network, library, placement, &touched_min);
            let after_min = inc.report().critical_delay_ns();
            if after_min > best_delay + 1e-9 {
                rollback(network, cache, &journal_min);
                inc.update(network, library, placement, &touched_min);
                break;
            }
            let journal_relax =
                self.relaxation_phase(network, library, placement, timing, inc.report(), cache);
            let mut changed_relax = journal_relax.len();
            let touched: Vec<GateId> = journal_relax.iter().map(|&(g, _)| g).collect();
            inc.update(network, library, placement, &touched);
            if inc.report().critical_delay_ns() > after_min + 1e-9 {
                rollback(network, cache, &journal_relax);
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
        resized_gates
    }

    /// Sizes only the gates of `domain` (gsg+GS's trivially covered gates)
    /// and returns the number of gates whose final drive strength differs
    /// from the input.
    ///
    /// Each pass visits the domain's live logic gates worst slack first
    /// (ties broken by id) in one loop: gates within
    /// `DOMAIN_CRITICAL_MARGIN_NS` of the worst slack are scored with the
    /// min-slack metric, the rest with the relaxation metric.  A pass that
    /// worsens the critical delay is undone and ends the run, as does a pass
    /// that changes nothing.  `inc` and `cache` are the caller's warm
    /// engine and net cache; both must be current for (`network`,
    /// `placement`) on entry and are left current on return.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize_domain(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &Placement,
        timing: &TimingConfig,
        domain: &HashSet<GateId>,
        inc: &mut IncrementalSta,
        cache: &mut NetCache,
    ) -> usize {
        let initial_classes = size_classes(network);
        for _ in 0..self.config.max_passes {
            if self.cancel.is_cancelled() {
                break;
            }
            rapids_obs::metrics::counter("optimizer.sizing_passes").inc();
            let _pass_span = rapids_obs::span("optimizer.sizing_pass");
            let report = inc.report();
            let pass_start_delay = report.critical_delay_ns();
            let worst = report.worst_slack_ns();
            let mut gates: Vec<GateId> = domain
                .iter()
                .copied()
                .filter(|&g| network.is_live(g) && !network.gate(g).gtype.is_source())
                .collect();
            // Tie-break on the id: the list is collected from a `HashSet`,
            // whose iteration order would otherwise leak into equal-slack
            // runs and make reports irreproducible.
            gates.sort_by(|&a, &b| {
                report.slack(a).total_cmp(&report.slack(b)).then_with(|| a.cmp(&b))
            });
            let journal = {
                let _span = rapids_obs::span("optimizer.sizing_visit");
                self.visit_gates(
                    network,
                    library,
                    placement,
                    timing,
                    report,
                    cache,
                    &gates,
                    worst,
                    DOMAIN_CRITICAL_MARGIN_NS,
                )
            };
            if journal.is_empty() {
                break;
            }
            let touched: Vec<GateId> = journal.iter().map(|&(g, _)| g).collect();
            inc.update(network, library, placement, &touched);
            if inc.report().critical_delay_ns() > pass_start_delay + 1e-9 {
                rollback(network, cache, &journal);
                inc.update(network, library, placement, &touched);
                rapids_obs::metrics::counter("optimizer.rollbacks").inc();
                break;
            }
        }
        let resized_gates = resized_since(network, &initial_classes);
        rapids_obs::metrics::counter("sizer.gates_resized").add(resized_gates as u64);
        resized_gates
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
        placement: &Placement,
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
            network,
            library,
            placement,
            timing,
            report,
            cache,
            &critical,
            worst,
            CRITICAL_MARGIN_NS,
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
        placement: &Placement,
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
        self.visit_gates(
            network,
            library,
            placement,
            timing,
            report,
            cache,
            &relaxed,
            worst,
            CRITICAL_MARGIN_NS,
        )
    }

    /// Decides and applies the best drive strength for every gate in `gates`
    /// (in order), so each decision is scored against the earlier ones.  A
    /// gate whose slack exceeds `worst_slack + critical_margin_ns` is scored
    /// with the relaxation metric, every other gate with the min-slack
    /// metric (see `decide_best_drive`).
    #[allow(clippy::too_many_arguments)]
    fn visit_gates(
        &self,
        network: &mut Network,
        library: &Library,
        placement: &Placement,
        timing: &TimingConfig,
        report: &TimingReport,
        cache: &mut NetCache,
        gates: &[GateId],
        worst_slack: f64,
        critical_margin_ns: f64,
    ) -> SizeJournal {
        let mut journal = SizeJournal::new();
        for &g in gates {
            let relaxation = report.slack(g) > worst_slack + critical_margin_ns;
            if let Some(best) = decide_best_drive(
                network,
                library,
                placement,
                timing,
                report,
                cache,
                g,
                relaxation,
                worst_slack,
            ) {
                apply_class(network, cache, &mut journal, g, best);
            }
        }
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
fn size_classes(network: &Network) -> Vec<u8> {
    network.iter_live().map(|g| network.gate(g).size_class).collect()
}

/// The number of live gates whose size class differs from `before`, a
/// [`size_classes`] snapshot of the same structure (sizing never changes
/// it).  A change that a rolled-back phase or a later pass undid does not
/// count.
fn resized_since(network: &Network, before: &[u8]) -> usize {
    network
        .iter_live()
        .zip(before)
        .filter(|&(g, &class)| network.gate(g).size_class != class)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_celllib::Library;
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_placement::{place, PlacerConfig};
    use rapids_sim::check_equivalence_random;
    use rapids_timing::Sta;

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

    /// Runs GS on `n` with its own engine; returns the critical delay
    /// before and after, the resized count, and the final engine.
    fn size(
        n: &mut Network,
        lib: &Library,
        p: &Placement,
        config: SizerConfig,
    ) -> (f64, f64, usize, IncrementalSta) {
        let timing = TimingConfig::default();
        let mut inc = IncrementalSta::new(n, lib, p, &timing);
        let mut cache = NetCache::for_network(n);
        let initial = inc.report().critical_delay_ns();
        let resized =
            GateSizer::new(config).optimize_with(n, lib, p, &timing, &mut inc, &mut cache);
        let after = inc.report().critical_delay_ns();
        (initial, after, resized, inc)
    }

    #[test]
    fn sizing_reduces_or_preserves_delay() {
        let mut n = chain_with_fanout();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 3);
        let (initial, after, resized, inc) = size(&mut n, &lib, &p, SizerConfig::default());
        assert!(after <= initial + 1e-9);
        assert!(resized > 0);
        // The engine is left current for the sized network.
        let fresh = Sta::analyze(&n, &lib, &p, &TimingConfig::default());
        assert_eq!(inc.report().critical_delay_ns(), fresh.critical_delay_ns());
    }

    #[test]
    fn sizing_changes_only_size_classes() {
        let mut n = chain_with_fanout();
        let reference = n.clone();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 3);
        let _ = size(&mut n, &lib, &p, SizerConfig::default());
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
        let _ = size(&mut n, &lib, &p, SizerConfig::default());
        let g3 = n.find_by_name("g3").unwrap();
        assert!(
            n.gate(g3).size_class > 0,
            "the gate driving 7 sinks should not stay at minimum size"
        );
    }

    #[test]
    fn domain_pass_sizes_only_its_domain() {
        let mut n = chain_with_fanout();
        let reference = n.clone();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 3);
        let timing = TimingConfig::default();
        let g3 = n.find_by_name("g3").unwrap();
        let domain: HashSet<GateId> = [g3].into_iter().collect();
        let mut inc = IncrementalSta::new(&n, &lib, &p, &timing);
        let mut cache = NetCache::for_network(&n);
        let initial = inc.report().critical_delay_ns();
        let resized = GateSizer::default()
            .optimize_domain(&mut n, &lib, &p, &timing, &domain, &mut inc, &mut cache);
        assert_eq!(resized, 1, "g3 is the only gate the pass may size");
        assert!(n.gate(g3).size_class > 0);
        for g in n.iter_live().filter(|&g| g != g3) {
            assert_eq!(n.gate(g).size_class, reference.gate(g).size_class);
        }
        assert!(inc.report().critical_delay_ns() <= initial + 1e-9);
        let fresh = Sta::analyze(&n, &lib, &p, &timing);
        assert_eq!(inc.report().critical_delay_ns(), fresh.critical_delay_ns());
    }
}
