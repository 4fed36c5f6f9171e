//! Neighborhood (local) timing evaluation.
//!
//! A candidate drive strength is scored without a full timing analysis:
//! the gate and its fan-in drivers are re-timed against the arrival and
//! required times of the last full STA.  This is the neighborhood search
//! device of Coudert's sizing heuristic that §5 of the paper adopts.

use rapids_celllib::Library;
use rapids_netlist::{GateId, Network};
use rapids_placement::Placement;
use rapids_timing::{NetCache, TimingConfig, TimingReport};

/// The neighborhood quantities of one gate, computed in a single sweep over
/// the gate and its logic fan-in drivers.
///
/// Each member is re-timed from the frozen arrival times of its fan-ins plus
/// freshly evaluated wire and cell delays (which therefore reflect any
/// locally changed size classes), against the required times of the last
/// full analysis.  Changing the implementation of the gate affects its own
/// delay *and* the load seen by every fan-in driver (their pin capacitance
/// changes), which is why the fan-ins are part of the neighborhood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NeighborhoodEval {
    /// `required − estimated arrival` of the gate itself.
    pub own_slack_ns: f64,
    /// Worst re-timed slack over the logic fan-in drivers alone (`+INF`
    /// when every fan-in is a primary input or constant).
    ///
    /// The min-slack phase uses this as a do-no-harm constraint: a
    /// candidate implementation may load its drivers harder only as long as
    /// none of them falls below the current global worst slack.  Folding
    /// the drivers into a combined minimum instead deadlocks on uniformly
    /// critical paths: every upsize degrades the equally-critical driver,
    /// so the combined minimum can never improve and no gate past the first
    /// ever gets upsized.
    pub fanin_min_slack_ns: f64,
    /// Sum of the neighborhood slacks (the relaxation phase's tie-breaker).
    pub total_slack_ns: f64,
}

impl NeighborhoodEval {
    /// Worst slack over the whole neighborhood.
    pub(crate) fn min_slack_ns(&self) -> f64 {
        self.own_slack_ns.min(self.fanin_min_slack_ns)
    }
}

/// Estimated worst arrival time at the output of `gate`: the frozen arrival
/// times of its fan-ins plus fresh wire and cell delays served from a
/// [`NetCache`].  Bit-identical to recomputing those delays from scratch as
/// long as the cache's invalidation protocol was followed.
fn estimated_arrival_cached(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    gate: GateId,
) -> f64 {
    let g = network.gate(gate);
    if g.gtype.is_source() {
        return 0.0;
    }
    let own_delay = cache.gate_output_delay(network, library, placement, config, gate).worst();
    let mut worst_input = 0.0f64;
    for &f in &g.fanins {
        let wire = report.net(f).and_then(|nd| nd.delay_to_ns(gate)).unwrap_or(0.0);
        worst_input = worst_input.max(report.arrival(f).worst() + wire);
    }
    worst_input + own_delay
}

/// Computes the [`NeighborhoodEval`] of one gate.
pub(crate) fn neighborhood_eval(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
    report: &TimingReport,
    cache: &mut NetCache,
    gate: GateId,
) -> NeighborhoodEval {
    let own_slack_ns = report.required(gate)
        - estimated_arrival_cached(network, library, placement, config, report, cache, gate);
    let mut fanin_min_slack_ns = f64::INFINITY;
    let mut total_slack_ns = own_slack_ns;
    for &f in network.fanins(gate) {
        if network.gate(f).gtype.is_source() {
            continue;
        }
        let slack_f = report.required(f)
            - estimated_arrival_cached(network, library, placement, config, report, cache, f);
        fanin_min_slack_ns = fanin_min_slack_ns.min(slack_f);
        total_slack_ns += slack_f;
    }
    NeighborhoodEval { own_slack_ns, fanin_min_slack_ns, total_slack_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_celllib::{DriveStrength, Library};
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_placement::{place, PlacerConfig};
    use rapids_timing::{gate_output_delay, Sta};

    // The uncached neighborhood quantities, each derived on its own: the
    // reference that `neighborhood_eval` must match bit for bit.

    /// `estimated_arrival_cached` without the cache.
    fn estimated_arrival_ns(
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
        report: &TimingReport,
        gate: GateId,
    ) -> f64 {
        let g = network.gate(gate);
        if g.gtype.is_source() {
            return 0.0;
        }
        let own_delay = gate_output_delay(network, library, placement, config, gate).worst();
        let mut worst_input = 0.0f64;
        for &f in &g.fanins {
            let wire = report.net(f).and_then(|nd| nd.delay_to_ns(gate)).unwrap_or(0.0);
            worst_input = worst_input.max(report.arrival(f).worst() + wire);
        }
        worst_input + own_delay
    }

    /// Reference for [`NeighborhoodEval::min_slack_ns`].
    fn neighborhood_slack_ns(
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
        report: &TimingReport,
        gate: GateId,
    ) -> f64 {
        let mut worst = report.required(gate)
            - estimated_arrival_ns(network, library, placement, config, report, gate);
        for &f in network.fanins(gate) {
            if network.gate(f).gtype.is_source() {
                continue;
            }
            let slack_f = report.required(f)
                - estimated_arrival_ns(network, library, placement, config, report, f);
            worst = worst.min(slack_f);
        }
        worst
    }

    /// Reference for [`NeighborhoodEval::fanin_min_slack_ns`].
    fn fanin_min_slack_ns(
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
        report: &TimingReport,
        gate: GateId,
    ) -> f64 {
        let mut worst = f64::INFINITY;
        for &f in network.fanins(gate) {
            if network.gate(f).gtype.is_source() {
                continue;
            }
            let slack_f = report.required(f)
                - estimated_arrival_ns(network, library, placement, config, report, f);
            worst = worst.min(slack_f);
        }
        worst
    }

    /// Reference for [`NeighborhoodEval::total_slack_ns`].
    fn neighborhood_total_slack_ns(
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
        report: &TimingReport,
        gate: GateId,
    ) -> f64 {
        let mut total = report.required(gate)
            - estimated_arrival_ns(network, library, placement, config, report, gate);
        for &f in network.fanins(gate) {
            if network.gate(f).gtype.is_source() {
                continue;
            }
            total += report.required(f)
                - estimated_arrival_ns(network, library, placement, config, report, f);
        }
        total
    }

    fn setup() -> (Network, Library, Placement, TimingConfig) {
        let mut b = NetworkBuilder::new("nb");
        b.inputs(["a", "b", "c"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("n2", GateType::Nand, &["n1", "c"]);
        b.gate("f", GateType::Nor, &["n2", "n1"]);
        b.output("f");
        let n = b.finish().unwrap();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 2);
        (n, lib, p, TimingConfig::default())
    }

    #[test]
    fn estimate_matches_full_sta_without_changes() {
        let (n, lib, p, cfg) = setup();
        let report = Sta::analyze(&n, &lib, &p, &cfg);
        for g in n.iter_logic() {
            let est = estimated_arrival_ns(&n, &lib, &p, &cfg, &report, g);
            let real = report.arrival(g).worst();
            // The estimate uses worst-case polarity mixing so it may be a bit
            // conservative, but it must never be optimistic by more than
            // floating-point noise and should be close.
            assert!(est >= real - 1e-9, "estimate optimistic at {g}");
            assert!(est <= real + 0.2, "estimate far off at {g}: {est} vs {real}");
        }
    }

    #[test]
    fn upsizing_improves_neighborhood_slack_of_loaded_gate() {
        let (mut n, lib, p, cfg) = setup();
        let report = Sta::analyze(&n, &lib, &p, &cfg);
        let n1 = n.find_by_name("n1").unwrap();
        let before = neighborhood_slack_ns(&n, &lib, &p, &cfg, &report, n1);
        n.gate_mut(n1).size_class = DriveStrength::X8.size_class();
        let after = neighborhood_slack_ns(&n, &lib, &p, &cfg, &report, n1);
        assert!(after > before, "upsizing a multi-fanout gate should help: {before} -> {after}");
    }

    #[test]
    fn source_gates_have_zero_estimated_arrival() {
        let (n, lib, p, cfg) = setup();
        let report = Sta::analyze(&n, &lib, &p, &cfg);
        let a = n.find_by_name("a").unwrap();
        assert_eq!(estimated_arrival_ns(&n, &lib, &p, &cfg, &report, a), 0.0);
    }

    #[test]
    fn combined_eval_matches_standalone_helpers() {
        let (mut n, lib, p, cfg) = setup();
        let report = Sta::analyze(&n, &lib, &p, &cfg);
        let mut cache = rapids_timing::NetCache::for_network(&n);
        let gates: Vec<_> = n.iter_logic().collect();
        for &g in &gates {
            let eval = neighborhood_eval(&n, &lib, &p, &cfg, &report, &mut cache, g);
            assert_eq!(eval.min_slack_ns(), neighborhood_slack_ns(&n, &lib, &p, &cfg, &report, g));
            assert_eq!(eval.fanin_min_slack_ns, fanin_min_slack_ns(&n, &lib, &p, &cfg, &report, g));
            assert_eq!(
                eval.total_slack_ns,
                neighborhood_total_slack_ns(&n, &lib, &p, &cfg, &report, g)
            );
        }
        // Resize a gate, invalidate the affected fan-in nets, and the cached
        // eval must still match the (cache-free) helpers bit for bit.
        let n1 = n.find_by_name("n1").unwrap();
        let fanins: Vec<_> = n.fanins(n1).to_vec();
        n.gate_mut(n1).size_class = DriveStrength::X8.size_class();
        for f in fanins {
            cache.invalidate_loads(f);
        }
        for &g in &gates {
            let eval = neighborhood_eval(&n, &lib, &p, &cfg, &report, &mut cache, g);
            assert_eq!(eval.min_slack_ns(), neighborhood_slack_ns(&n, &lib, &p, &cfg, &report, g));
        }
    }

    #[test]
    fn total_slack_bounded_by_min_slack_times_neighborhood_size() {
        let (n, lib, p, cfg) = setup();
        let report = Sta::analyze(&n, &lib, &p, &cfg);
        let f = n.find_by_name("f").unwrap();
        let members = 1 + n.fanins(f).iter().filter(|&&d| !n.gate(d).gtype.is_source()).count();
        let min = neighborhood_slack_ns(&n, &lib, &p, &cfg, &report, f);
        let total = neighborhood_total_slack_ns(&n, &lib, &p, &cfg, &report, f);
        // Every member's slack is ≥ the minimum, so the sum is bounded below.
        assert!(total >= min * members as f64 - 1e-9);
    }
}
