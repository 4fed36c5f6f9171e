//! Levelized struct-of-arrays STA kernel: batched per-level sweeps over a
//! compiled view of the network.
//!
//! [`Sta::analyze`](crate::Sta::analyze) historically walked the network
//! gate by gate — every fan-in visit chased a `Vec<GateId>` allocation, every
//! wire-delay lookup linearly scanned the driver's sink list, and the net
//! parasitics of each gate were star-decomposed **twice** (once for the net
//! delays, once more inside the cell-delay load query).  This module
//! restructures the full analysis into per-level batched sweeps over flat
//! arrays:
//!
//! * [`LevelizedView`] is a one-time **compiled view** of the network:
//!   the live gates in level-major order, CSR-style fan-in/fan-out edge arrays
//!   ([`rapids_netlist::FlatAdjacency`]), a per-slot polarity class, the
//!   output-driver mask, and per-edge wire-delay slots filled once per sweep;
//! * `full` analysis becomes: one parasitic pass in level order (each star
//!   built **once**, the cell delay derived from the same Elmore total), one
//!   wire-delay scatter (each sink list walked once instead of once per
//!   lookup), one forward level sweep for arrivals and one backward level
//!   sweep for raw required times.
//!
//! Every sweep is a single serial pass: arrivals read only strictly lower
//! levels and required times only strictly higher levels, so walking the
//! level-major order once in each direction is all the scheduling needed.
//!
//! # Compiled-view lifecycle
//!
//! A view is valid for the structure it was built from.  The rules, asserted
//! in debug builds by the consumers:
//!
//! * **full analysis** ([`analyze`],
//!   [`IncrementalSta::full`](crate::IncrementalSta::full)) always
//!   rebuilds the view — structure,
//!   levels and edges are all fresh;
//! * **growth** (inverting swaps appended gates) rebuilds the view in place
//!   with no parasitic work, exactly like the cached topological order it
//!   replaces;
//! * **local edits** (pin swaps, resizes) leave the view's *levels* usable as
//!   a schedule — the incremental engine verifies `level(fanin) <
//!   level(gate)` for every touched gate and falls back to a full rebuild on
//!   violation — but its CSR edge and wire arrays are stale, so dirty-cone
//!   updates read the live network adjacency instead
//!   ([`crate::incremental`]).
//!
//! Every value this kernel produces is bit-identical to the reference
//! analyzer ([`Sta::analyze_reference`](crate::Sta::analyze_reference)): the
//! per-gate fold orders (pin order forward, fan-out list order backward) are
//! preserved exactly, and the wire-delay scatter replicates the historical
//! first-match lookup semantics for multi-pin sinks.

use rapids_celllib::{cell_delay, CellDelay, Library};
use rapids_netlist::{topo, FlatAdjacency, GateId, Network};
use rapids_placement::{net_star, Placement};

use crate::elmore::{net_delays, NetDelays};
use crate::rc::TimingConfig;
use crate::sta::{clamp_required, ArrivalTime, TimingReport};

/// Polarity class of a gate, precomputed so the sweep kernels never touch
/// the gate table.
const KIND_SOURCE: u8 = 0;
const KIND_XOR: u8 = 1;
const KIND_INVERTING: u8 = 2;
const KIND_PLAIN: u8 = 3;

/// Compiled struct-of-arrays view of a network for level-batched sweeps.
///
/// See the [module docs](self) for the lifecycle rules.
#[derive(Debug, Clone)]
pub struct LevelizedView {
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
    /// Polarity class per slot (`KIND_*`).
    kind: Vec<u8>,
    /// `true` per slot for gates driving a primary-output port.
    drives_output: Vec<bool>,
    /// CSR fan-in/fan-out snapshot (pin order / fan-out list order).
    adjacency: FlatAdjacency,
    /// Wire delay per fan-in edge (driver → this pin), filled by
    /// [`LevelizedView::scatter_wire_delays`]; 0.0 where the driver's net
    /// has no entry, matching the historical `unwrap_or(0.0)`.
    fanin_wire: Vec<f64>,
    /// Wire delay per fan-out edge (this gate → sink pin), first-match
    /// semantics per sink gate.
    fanout_wire: Vec<f64>,
}

impl LevelizedView {
    /// Compiles the view for the network's current structure, or `None` if
    /// the network is cyclic.
    pub fn build(network: &Network) -> Option<Self> {
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
        let kind = (0..slots)
            .map(|s| {
                let id = GateId(s as u32);
                if !network.is_live(id) {
                    return KIND_SOURCE;
                }
                let t = network.gate(id).gtype;
                if t.is_source() {
                    KIND_SOURCE
                } else if t.is_xor_family() {
                    KIND_XOR
                } else if t.output_inverted() {
                    KIND_INVERTING
                } else {
                    KIND_PLAIN
                }
            })
            .collect();
        let adjacency = FlatAdjacency::build(network);
        let fanin_wire = vec![0.0; adjacency.fanin_edge_count()];
        let fanout_wire = vec![0.0; adjacency.fanout_edge_count()];
        Some(LevelizedView {
            slots,
            order,
            num_levels,
            level,
            kind,
            drives_output: (0..slots).map(|s| network.drives_output(GateId(s as u32))).collect(),
            adjacency,
            fanin_wire,
            fanout_wire,
        })
    }

    /// Gate-slot count of the compiled structure (the invalidation check of
    /// every consumer: a network that grew or shrank past this no longer
    /// matches the view).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of levels (0 for an empty network).
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The live gates in level-major order — a valid topological order.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Logic level of a slot (`u32::MAX` for tomb-stoned slots).
    pub fn level_of(&self, gate: GateId) -> u32 {
        self.level[gate.index()]
    }

    /// `true` if `gate` drives a primary-output port (as of compile time).
    pub(crate) fn drives_output(&self, gate: GateId) -> bool {
        self.drives_output[gate.index()]
    }

    /// Fills the per-edge wire-delay arrays from freshly computed net
    /// parasitics.  Each driver's sink list is walked exactly once; the
    /// first entry per sink gate wins, replicating
    /// [`NetDelays::delay_to_ns`]'s first-match semantics for sinks that
    /// appear once per driven pin.
    fn scatter_wire_delays(&mut self, nets: &[Option<NetDelays>]) {
        self.fanin_wire.fill(0.0);
        self.fanout_wire.fill(0.0);
        // `seen[s] == f.0` marks that sink s's first-match delay for driver
        // f is already in `first[s]` (each driver is visited once, so the
        // driver id is a free epoch marker).
        let mut seen = vec![u32::MAX; self.slots];
        let mut first = vec![0.0f64; self.slots];
        for &f in &self.order {
            let Some(nd) = nets[f.index()].as_ref() else { continue };
            let fo_range = self.adjacency.fanout_range(f.index());
            debug_assert_eq!(
                fo_range.len(),
                nd.sink_delays_ns.len(),
                "net parasitics must match the compiled fan-out edges"
            );
            for (k, &(s, d)) in nd.sink_delays_ns.iter().enumerate() {
                if seen[s.index()] != f.0 {
                    seen[s.index()] = f.0;
                    first[s.index()] = d;
                    let fi_range = self.adjacency.fanin_range(s.index());
                    for (j, &driver) in self.adjacency.fanins_of(s.index()).iter().enumerate() {
                        if driver == f.0 {
                            self.fanin_wire[fi_range.start + j] = d;
                        }
                    }
                }
                self.fanout_wire[fo_range.start + k] = first[s.index()];
            }
        }
    }

    /// Forward kernel over the flat arrays: bit-identical to
    /// [`crate::sta::arrival_of`] (same pin order, same operation sequence,
    /// wire delays resolved through the scattered first-match values).
    fn arrival_of_flat(
        &self,
        gate: usize,
        gate_delays: &[CellDelay],
        arrival: &[ArrivalTime],
    ) -> ArrivalTime {
        let kind = self.kind[gate];
        if kind == KIND_SOURCE {
            return ArrivalTime::default();
        }
        let d = gate_delays[gate];
        let range = self.adjacency.fanin_range(gate);
        let wires = &self.fanin_wire[range.clone()];
        let mut out = ArrivalTime { rise_ns: 0.0, fall_ns: 0.0 };
        for (&f, &wire) in self.adjacency.fanins_of(gate).iter().zip(wires) {
            let a = arrival[f as usize];
            let in_rise = a.rise_ns + wire;
            let in_fall = a.fall_ns + wire;
            let (cand_rise, cand_fall) = match kind {
                KIND_XOR => {
                    let worst_in = in_rise.max(in_fall);
                    (worst_in + d.rise_ns, worst_in + d.fall_ns)
                }
                KIND_INVERTING => (in_fall + d.rise_ns, in_rise + d.fall_ns),
                _ => (in_rise + d.rise_ns, in_fall + d.fall_ns),
            };
            out.rise_ns = out.rise_ns.max(cand_rise);
            out.fall_ns = out.fall_ns.max(cand_fall);
        }
        out
    }

    /// Backward kernel over the flat arrays: bit-identical to
    /// [`crate::sta::required_raw_of`].
    fn required_raw_of_flat(
        &self,
        gate: usize,
        gate_delays: &[CellDelay],
        required_raw: &[f64],
        required_time_ns: f64,
    ) -> f64 {
        let mut required = if self.drives_output[gate] { required_time_ns } else { f64::INFINITY };
        let range = self.adjacency.fanout_range(gate);
        let wires = &self.fanout_wire[range.clone()];
        for (&s, &wire) in self.adjacency.fanouts_of(gate).iter().zip(wires) {
            required =
                required.min(required_raw[s as usize] - gate_delays[s as usize].worst() - wire);
        }
        required
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
    let g = network.gate(gate);
    gate_delays[gate.index()] = if g.gtype.is_source() {
        CellDelay::default()
    } else {
        match library.cell_for_gate(g) {
            Some(cell) => cell_delay(cell, nd.total_load_pf),
            None => CellDelay { rise_ns: 0.1, fall_ns: 0.1 },
        }
    };
    nets[gate.index()] = Some(nd);
}

/// Runs a full levelized analysis, compiling a fresh view.
pub fn analyze(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
) -> TimingReport {
    let mut view =
        LevelizedView::build(network).expect("timing analysis requires an acyclic network");
    analyze_with_view(&mut view, network, library, placement, config)
}

/// Runs a full analysis over an already-compiled view.  The view **must**
/// have been built from this exact network structure (asserted in debug
/// builds); the wire-delay arrays are refilled here, so a view can be
/// reused across placements or drive-strength changes as long as the
/// structure is unchanged.
pub(crate) fn analyze_with_view(
    view: &mut LevelizedView,
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
    for &g in &view.order {
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

    // 2. Per-edge wire delays: every sink list walked once.
    view.scatter_wire_delays(&nets);
    drop(parasitics_span);

    // 3. Forward sweep (arrivals) over the level-major order, lowest level
    //    first.
    let forward_span = rapids_obs::span("sta.forward");
    let mut arrival = vec![ArrivalTime::default(); slots];
    for &g in &view.order {
        arrival[g.index()] = view.arrival_of_flat(g.index(), &gate_delays, &arrival);
    }
    drop(forward_span);

    // 4. Critical delay and required-time budget: same fold as the
    //    reference analyzer.
    let critical_delay_ns =
        network.outputs().iter().map(|o| arrival[o.driver.index()].worst()).fold(0.0, f64::max);
    let required_time_ns = config.required_time_ns.unwrap_or(critical_delay_ns);

    // 5. Backward sweep (raw required times), highest level first, then the
    //    servable clamp.
    let backward_span = rapids_obs::span("sta.backward");
    let mut required_raw = vec![f64::INFINITY; slots];
    for &g in view.order.iter().rev() {
        required_raw[g.index()] =
            view.required_raw_of_flat(g.index(), &gate_delays, &required_raw, required_time_ns);
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
        // A sink using the same driver on two pins exercises the
        // first-match scatter path.
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
