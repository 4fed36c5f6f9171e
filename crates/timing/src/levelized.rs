//! Levelized full analysis: the per-gate kernels of [`crate::sta`] swept
//! over a compiled level-major schedule.
//!
//! * [`LevelizedView`] is the **schedule** of a network: the live gates in
//!   level-major order (level = 1 + max fan-in level), the level of every
//!   slot, and the output-driver mask.  It holds no edge or wire arrays, so
//!   nothing in it goes stale when a sweep's parasitics change;
//! * a full analysis ([`analyze`]) is one parasitic pass in level order
//!   (each star built **once**, the cell delay derived from the same Elmore
//!   total load), one forward sweep of [`crate::sta::arrival_of`] over the
//!   order and one backward sweep of [`crate::sta::required_raw_of`] over it
//!   reversed: the same kernels the dirty-cone update of
//!   [`crate::incremental`] drains its frontiers with.
//!
//! Arrivals read only strictly lower levels and required times only
//! strictly higher levels, so walking the level-major order once in each
//! direction is all the scheduling a sweep needs.
//!
//! # View lifecycle
//!
//! A view is valid for the structure it was built from: its slot count,
//! the level of every gate and the output mask.  A full analysis
//! ([`analyze`]) compiles a fresh one; the incremental engine keeps its view
//! across edits and recompiles it whenever the slot count changed or a
//! touched gate no longer sits above all its fan-ins or changed whether it
//! drives an output port (see [`crate::incremental`]).  The kernels read
//! every edge from the live network, so nothing else in a view goes stale.
//!
//! Every value this sweep produces is bit-identical to the reference
//! analyzer ([`Sta::analyze_reference`](crate::Sta::analyze_reference)):
//! both run the same kernels, whose per-gate fold orders (pin order
//! forward, fan-out list order backward) fix the floating-point result, and
//! any topological order feeds them the same operands.  Only the
//! parasitics are built differently (one star per net here, two in the
//! reference), and `fast_parasitics_match_reference_kernel` pins those.

use rapids_celllib::{CellDelay, Library};
use rapids_netlist::{topo, GateId, Network};
use rapids_placement::{net_star, Placement};

use crate::elmore::{net_delays, NetDelays};
use crate::gate_delay::cell_delay_at;
use crate::rc::TimingConfig;
use crate::sta::{arrival_of, clamp_required, required_raw_of, ArrivalTime, TimingReport};

/// Compiled level-major schedule of a network.
///
/// See the [module docs](self) for the lifecycle rules.
#[derive(Debug, Clone)]
pub(crate) struct LevelizedView {
    /// Gate-slot count of the network this view was compiled from.
    slots: usize,
    /// Live gates in level-major order (level 0 first); within a level,
    /// gates keep their Kahn-order relative sequence, so the order is
    /// deterministic.
    order: Vec<GateId>,
    /// Number of levels (0 for an empty network).
    num_levels: usize,
    /// Logic level per slot; `u32::MAX` for tomb-stoned slots.
    level: Vec<u32>,
    /// `true` per slot for gates driving a primary-output port.
    drives_output: Vec<bool>,
}

impl LevelizedView {
    /// Compiles the view for the network's current structure, or `None` if
    /// the network is cyclic.
    pub(crate) fn build(network: &Network) -> Option<Self> {
        let slots = network.gate_count();
        let kahn = topo::topological_order(network)?;
        let levels = topo::levels_from_order(network, &kahn);
        let mut level = vec![u32::MAX; slots];
        let mut num_levels = 0usize;
        for &g in &kahn {
            let l = levels[g.index()];
            level[g.index()] = l as u32;
            num_levels = num_levels.max(l + 1);
        }
        // Counting sort of the Kahn order by level: stable, so the
        // within-level sequence is deterministic.
        let mut offsets = vec![0u32; num_levels + 1];
        for &g in &kahn {
            offsets[levels[g.index()] + 1] += 1;
        }
        for l in 1..offsets.len() {
            offsets[l] += offsets[l - 1];
        }
        let mut order = vec![GateId(0); kahn.len()];
        for &g in &kahn {
            let l = levels[g.index()];
            order[offsets[l] as usize] = g;
            offsets[l] += 1;
        }
        Some(LevelizedView {
            slots,
            order,
            num_levels,
            level,
            drives_output: (0..slots).map(|s| network.drives_output(GateId(s as u32))).collect(),
        })
    }

    /// Gate-slot count of the compiled structure (the invalidation check of
    /// every consumer: a network that grew or shrank past this no longer
    /// matches the view).
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Number of levels (0 for an empty network).
    pub(crate) fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The live gates in level-major order — a valid topological order.
    pub(crate) fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Logic level of a slot (`u32::MAX` for tomb-stoned slots).
    pub(crate) fn level_of(&self, gate: GateId) -> u32 {
        self.level[gate.index()]
    }

    /// `true` if `gate` drives a primary-output port (as of compile time).
    pub(crate) fn drives_output(&self, gate: GateId) -> bool {
        self.drives_output[gate.index()]
    }
}

/// Computes the net parasitics and cell delay of one gate with a **single**
/// star decomposition: the cell delay is derived from the same Elmore total
/// load the net delays carry, which is bit-identical to re-deriving it
/// through [`crate::gate_delay::gate_output_delay`] (both are pure functions
/// of the same placed net).
pub(crate) fn refresh_parasitics_fast(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
    gate: GateId,
    nets: &mut [Option<NetDelays>],
    gate_delays: &mut [CellDelay],
) {
    let star = net_star(network, placement, gate);
    let nd = net_delays(network, library, &star, config);
    gate_delays[gate.index()] = cell_delay_at(library, network.gate(gate), nd.total_load_pf);
    nets[gate.index()] = Some(nd);
}

/// Runs a full levelized analysis, compiling a fresh view.
pub(crate) fn analyze(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
) -> TimingReport {
    let view = LevelizedView::build(network).expect("timing analysis requires an acyclic network");
    analyze_with_view(&view, network, library, placement, config)
}

/// Runs a full analysis over an already-compiled view.  The view **must**
/// have been built from this exact network structure (asserted in debug
/// builds); it is only read, so a view can be reused across placements or
/// drive-strength changes as long as the structure is unchanged.
pub(crate) fn analyze_with_view(
    view: &LevelizedView,
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
) -> TimingReport {
    debug_assert_eq!(
        view.slots(),
        network.gate_count(),
        "compiled view is stale: network slot count changed since build"
    );
    let slots = view.slots();

    // 1. Net parasitics + cell delays, one star evaluation per gate.
    let parasitics_span = rapids_obs::span("sta.parasitics");
    let mut nets: Vec<Option<NetDelays>> = vec![None; slots];
    let mut gate_delays: Vec<CellDelay> = vec![CellDelay::default(); slots];
    for &g in view.order() {
        refresh_parasitics_fast(
            network,
            library,
            placement,
            config,
            g,
            &mut nets,
            &mut gate_delays,
        );
    }
    drop(parasitics_span);

    // 2. Forward sweep (arrivals) over the level-major order, lowest level
    //    first.
    let forward_span = rapids_obs::span("sta.forward");
    let mut arrival = vec![ArrivalTime::default(); slots];
    for &g in view.order() {
        arrival[g.index()] = arrival_of(network, g, &nets, &gate_delays, &arrival);
    }
    drop(forward_span);

    // 3. Critical delay and required-time budget: same fold as the
    //    reference analyzer.
    let critical_delay_ns =
        network.outputs().iter().map(|o| arrival[o.driver.index()].worst()).fold(0.0, f64::max);
    let required_time_ns = config.required_time_ns.unwrap_or(critical_delay_ns);

    // 4. Backward sweep (raw required times), highest level first, then the
    //    servable clamp.
    let backward_span = rapids_obs::span("sta.backward");
    let mut required_raw = vec![f64::INFINITY; slots];
    for &g in view.order().iter().rev() {
        required_raw[g.index()] = required_raw_of(
            network,
            g,
            &nets,
            &gate_delays,
            &required_raw,
            view.drives_output(g),
            required_time_ns,
        );
    }
    let required: Vec<f64> =
        required_raw.iter().map(|&r| clamp_required(r, required_time_ns)).collect();
    drop(backward_span);

    TimingReport {
        arrival,
        required,
        gate_delays,
        net_delays: nets,
        required_raw,
        critical_delay_ns,
        required_time_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::Sta;
    use rapids_celllib::Library;
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_placement::{place, PlacerConfig, Point};

    fn mesh() -> Network {
        let mut b = NetworkBuilder::new("mesh");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("n2", GateType::Nor, &["c", "d"]);
        b.gate("x1", GateType::Xor, &["n1", "n2"]);
        b.gate("m1", GateType::And, &["n1", "x1"]);
        b.gate("m2", GateType::Or, &["x1", "n2"]);
        b.gate("f", GateType::Nand, &["m1", "m2"]);
        b.output("f");
        b.output("m2");
        b.finish().unwrap()
    }

    fn setup(n: &Network) -> (rapids_placement::Placement, Library, TimingConfig) {
        let lib = Library::standard_035um();
        let p = place(n, &lib, &PlacerConfig::fast(), 23);
        (p, lib, TimingConfig::default())
    }

    fn assert_reports_identical(a: &TimingReport, b: &TimingReport, n: &Network) {
        assert_eq!(a.critical_delay_ns, b.critical_delay_ns);
        assert_eq!(a.required_time_ns, b.required_time_ns);
        for g in n.iter_live() {
            assert_eq!(a.arrival[g.index()], b.arrival[g.index()], "arrival at {g}");
            assert_eq!(a.required[g.index()], b.required[g.index()], "required at {g}");
            assert_eq!(a.gate_delays[g.index()], b.gate_delays[g.index()], "cell delay at {g}");
        }
    }

    #[test]
    fn view_levels_are_consistent() {
        let n = mesh();
        let view = LevelizedView::build(&n).unwrap();
        assert_eq!(view.slots(), n.gate_count());
        assert_eq!(view.order().len(), n.live_gate_count());
        for g in n.iter_live() {
            for &f in n.fanins(g) {
                assert!(
                    view.level_of(f) < view.level_of(g),
                    "level must strictly increase along every edge"
                );
            }
        }
        // The level-major order is a topological order.
        let mut seen = vec![false; n.gate_count()];
        for &g in view.order() {
            for &f in n.fanins(g) {
                assert!(seen[f.index()], "driver {f} must precede {g}");
            }
            seen[g.index()] = true;
        }
    }

    #[test]
    fn levelized_matches_reference_bit_for_bit() {
        let n = mesh();
        let (p, lib, cfg) = setup(&n);
        let reference = Sta::analyze_reference(&n, &lib, &p, &cfg);
        let fast = analyze(&n, &lib, &p, &cfg);
        assert_reports_identical(&fast, &reference, &n);
    }

    #[test]
    fn multi_pin_sinks_keep_first_match_wire_delays() {
        // A sink reading one driver on two pins: both pins take the
        // driver's first-match wire delay (`NetDelays::delay_to_ns`).
        let mut b = NetworkBuilder::new("mp");
        b.inputs(["a", "b"]);
        b.gate("x", GateType::Xor, &["a", "a"]);
        b.gate("f", GateType::Nand, &["x", "b"]);
        b.output("f");
        let n = b.finish().unwrap();
        let (p, lib, cfg) = setup(&n);
        let reference = Sta::analyze_reference(&n, &lib, &p, &cfg);
        let fast = analyze(&n, &lib, &p, &cfg);
        assert_reports_identical(&fast, &reference, &n);
    }

    #[test]
    fn co_located_twins_match_reference() {
        // Two identical gates on the same drivers, placed at the same spot,
        // see identical wire delays and loads, so their arrivals must come
        // out bit-identical to each other and to the reference.
        let mut b = NetworkBuilder::new("twins");
        b.inputs(["a", "b"]);
        b.gate("t1", GateType::Nand, &["a", "b"]);
        b.gate("t2", GateType::Nand, &["a", "b"]);
        b.gate("f", GateType::And, &["t1", "t2"]);
        b.output("f");
        let n = b.finish().unwrap();
        let lib = Library::standard_035um();
        let mut p = place(&n, &lib, &PlacerConfig::fast(), 23);
        let t1 = n.find_by_name("t1").unwrap();
        let t2 = n.find_by_name("t2").unwrap();
        p.set_position(t2, p.position(t1));
        let cfg = TimingConfig::default();
        let fast = analyze(&n, &lib, &p, &cfg);
        assert_eq!(fast.arrival[t1.index()], fast.arrival[t2.index()]);
        let reference = Sta::analyze_reference(&n, &lib, &p, &cfg);
        assert_reports_identical(&fast, &reference, &n);
    }

    #[test]
    fn fast_parasitics_match_reference_kernel() {
        let n = mesh();
        let (p, lib, cfg) = setup(&n);
        let slots = n.gate_count();
        let (mut nets_a, mut delays_a) = (vec![None; slots], vec![CellDelay::default(); slots]);
        let (mut nets_b, mut delays_b) = (vec![None; slots], vec![CellDelay::default(); slots]);
        for g in n.iter_live() {
            crate::sta::refresh_parasitics(&n, &lib, &p, &cfg, g, &mut nets_a, &mut delays_a);
            refresh_parasitics_fast(&n, &lib, &p, &cfg, g, &mut nets_b, &mut delays_b);
        }
        assert_eq!(nets_a, nets_b);
        assert_eq!(delays_a, delays_b);
    }

    #[test]
    fn separated_twins_do_not_dedup_but_still_match() {
        let mut b = NetworkBuilder::new("apart");
        b.inputs(["a", "b"]);
        b.gate("t1", GateType::Nand, &["a", "b"]);
        b.gate("t2", GateType::Nand, &["a", "b"]);
        b.gate("f", GateType::And, &["t1", "t2"]);
        b.output("f");
        let n = b.finish().unwrap();
        let lib = Library::standard_035um();
        let mut p = place(&n, &lib, &PlacerConfig::fast(), 23);
        let t2 = n.find_by_name("t2").unwrap();
        let far = Point::new(p.position(t2).x_um + 800.0, p.position(t2).y_um);
        p.set_position(t2, far);
        let cfg = TimingConfig::default();
        let fast = analyze(&n, &lib, &p, &cfg);
        let reference = Sta::analyze_reference(&n, &lib, &p, &cfg);
        assert_reports_identical(&fast, &reference, &n);
    }
}
