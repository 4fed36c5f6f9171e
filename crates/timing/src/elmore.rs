//! Elmore delay of star-decomposed nets.
//!
//! For a net with trunk segment (R_t, C_t) and branch segments (R_i, C_i)
//! feeding sink pins with capacitance Cp_i, the Elmore delay from the
//! source pin to sink *k* is
//!
//! ```text
//! D_k = R_t · (C_t/2 + Σ_i (C_i + Cp_i))  +  R_k · (C_k/2 + Cp_k)
//! ```
//!
//! (the driver's own resistance is accounted for separately by the gate-delay
//! model, which sees the total net capacitance as its load).  Because branch
//! lengths differ, each sink sees a different delay — exactly the property
//! the paper exploits when swapping a critical sink onto a shorter branch.

use rapids_celllib::Library;
use rapids_netlist::{GateId, Network};
use rapids_placement::StarNet;

use crate::rc::{segment_capacitance_pf, segment_resistance_kohm, TimingConfig};

/// Wire delays and loads of one net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDelays {
    /// Driver of the net.
    pub driver: GateId,
    /// Total capacitance of the net seen by the driver (wire + sink pins +
    /// primary-output pad load if the net feeds one), in pF.
    pub total_load_pf: f64,
    /// Per-sink Elmore wire delay in ns, in the same order as the star's
    /// branches.
    pub sink_delays_ns: Vec<(GateId, f64)>,
}

impl NetDelays {
    /// Wire delay to a specific sink, if it is on this net.
    pub fn delay_to_ns(&self, sink: GateId) -> Option<f64> {
        self.sink_delays_ns.iter().find(|(s, _)| *s == sink).map(|(_, d)| *d)
    }
}

/// Capacitance presented by the in-pins of `sink` that are driven by
/// `driver` (a sink driving two pins of the same gate counts twice).
fn sink_pin_capacitance_pf(
    network: &Network,
    library: &Library,
    driver: GateId,
    sink: GateId,
) -> f64 {
    let gate = network.gate(sink);
    let per_pin = library.cell_for_gate(gate).map(|c| c.input_capacitance_pf).unwrap_or(0.01);
    let pin_count = gate.fanins.iter().filter(|&&d| d == driver).count().max(1);
    per_pin * pin_count as f64
}

/// Computes the Elmore wire delays and the total driver load of a net given
/// its star decomposition.
pub fn net_delays(
    network: &Network,
    library: &Library,
    star: &StarNet,
    config: &TimingConfig,
) -> NetDelays {
    let driver = star.driver;
    let trunk_c = segment_capacitance_pf(star.trunk.length_um, config);
    let trunk_r = segment_resistance_kohm(star.trunk.length_um, config);

    // Per-branch parasitics and sink pin loads.
    let mut branch_data = Vec::with_capacity(star.branches.len());
    let mut downstream_cap = trunk_c;
    for b in &star.branches {
        let sink = b.sink.expect("branch segments always have a sink");
        let c = segment_capacitance_pf(b.length_um, config);
        let r = segment_resistance_kohm(b.length_um, config);
        let pin = sink_pin_capacitance_pf(network, library, driver, sink);
        downstream_cap += c + pin;
        branch_data.push((sink, r, c, pin));
    }
    let pad_load = if network.drives_output(driver) { config.output_load_pf } else { 0.0 };
    let total_load_pf = downstream_cap + pad_load;

    // Capacitance hanging below the star center (everything except the trunk
    // wire itself): used for the trunk term of the Elmore sum.
    let below_center: f64 = branch_data.iter().map(|(_, _, c, p)| c + p).sum();
    let sink_delays_ns = branch_data
        .iter()
        .map(|&(sink, r, c, pin)| {
            let d = trunk_r * (trunk_c / 2.0 + below_center) + r * (c / 2.0 + pin);
            (sink, d)
        })
        .collect();
    NetDelays { driver, total_load_pf, sink_delays_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_celllib::Library;
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_placement::{net_star, Placement, Point, Region};

    fn setup() -> (Network, Placement, Library) {
        let mut b = NetworkBuilder::new("elmore");
        b.input("a");
        b.gate("near", GateType::Inv, &["a"]);
        b.gate("far", GateType::Inv, &["a"]);
        b.output("near");
        b.output("far");
        let n = b.finish().unwrap();
        let region = Region { width_um: 10_000.0, height_um: 10_000.0, row_height_um: 13.0 };
        let mut p = Placement::new(region, n.gate_count());
        p.set_position(n.find_by_name("a").unwrap(), Point::new(0.0, 0.0));
        p.set_position(n.find_by_name("near").unwrap(), Point::new(100.0, 0.0));
        p.set_position(n.find_by_name("far").unwrap(), Point::new(5_000.0, 0.0));
        (n, p, Library::standard_035um())
    }

    #[test]
    fn farther_sink_has_larger_delay() {
        let (n, p, lib) = setup();
        let a = n.find_by_name("a").unwrap();
        let star = net_star(&n, &p, a);
        let delays = net_delays(&n, &lib, &star, &TimingConfig::default());
        let near = delays.delay_to_ns(n.find_by_name("near").unwrap()).unwrap();
        let far = delays.delay_to_ns(n.find_by_name("far").unwrap()).unwrap();
        assert!(far > near, "far={far} near={near}");
        // Those two are the net's only sinks, so `far` is its worst.
        assert_eq!(delays.sink_delays_ns.len(), 2);
    }

    #[test]
    fn load_includes_wire_and_pins() {
        let (n, p, lib) = setup();
        let a = n.find_by_name("a").unwrap();
        let star = net_star(&n, &p, a);
        let delays = net_delays(&n, &lib, &star, &TimingConfig::default());
        let wire_cap = segment_capacitance_pf(star.total_length_um(), &TimingConfig::default());
        let inv = lib.cell(GateType::Inv, 1, rapids_celllib::DriveStrength::X1).unwrap();
        let expected_min = wire_cap + 2.0 * inv.input_capacitance_pf;
        assert!(delays.total_load_pf >= expected_min * 0.999);
    }

    #[test]
    fn output_pad_load_added() {
        let (n, p, lib) = setup();
        let near = n.find_by_name("near").unwrap();
        let star = net_star(&n, &p, near);
        let cfg = TimingConfig::default();
        let delays = net_delays(&n, &lib, &star, &cfg);
        // "near" drives a primary output but no gate sinks: load is the pad.
        assert!((delays.total_load_pf - cfg.output_load_pf).abs() < 1e-12);
        assert!(delays.sink_delays_ns.is_empty());
        assert!(delays.delay_to_ns(n.find_by_name("far").unwrap()).is_none());
    }

    #[test]
    fn zero_length_net_has_zero_wire_delay() {
        let mut b = NetworkBuilder::new("z");
        b.input("a");
        b.gate("f", GateType::Inv, &["a"]);
        b.output("f");
        let n = b.finish().unwrap();
        let region = Region { width_um: 100.0, height_um: 100.0, row_height_um: 13.0 };
        let p = Placement::new(region, n.gate_count());
        let a = n.find_by_name("a").unwrap();
        let star = net_star(&n, &p, a);
        let lib = Library::standard_035um();
        let d = net_delays(&n, &lib, &star, &TimingConfig::default());
        assert!(d.delay_to_ns(n.find_by_name("f").unwrap()).unwrap() < 1e-12);
        assert!(d.total_load_pf > 0.0);
    }

    #[test]
    fn multi_pin_sink_counts_each_pin() {
        let mut b = NetworkBuilder::new("mp");
        b.input("a");
        b.gate("f", GateType::Xor, &["a", "a"]);
        b.output("f");
        let n = b.finish().unwrap();
        let region = Region { width_um: 100.0, height_um: 100.0, row_height_um: 13.0 };
        let p = Placement::new(region, n.gate_count());
        let lib = Library::standard_035um();
        let a = n.find_by_name("a").unwrap();
        let star = net_star(&n, &p, a);
        let d = net_delays(&n, &lib, &star, &TimingConfig::default());
        let xor = lib.cell(GateType::Xor, 2, rapids_celllib::DriveStrength::X1).unwrap();
        // Two sink entries (one per pin), each contributing a pin cap.
        assert!(d.total_load_pf >= 2.0 * xor.input_capacitance_pf * 0.999);
    }
}
