//! Gate-delay evaluation: combines the library's pin-to-pin load-dependent
//! model with the net load computed by the Elmore star model.

use rapids_celllib::{cell_delay, CellDelay, Library};
use rapids_netlist::{Gate, GateId, Network};
use rapids_placement::{net_star, Placement};

use crate::elmore::net_delays;
use crate::rc::TimingConfig;

/// Total load (pF) seen by the output of `gate`: wire capacitance of its net
/// plus the input-pin capacitances of its sinks plus any output-pad load.
pub fn gate_load_pf(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
    gate: GateId,
) -> f64 {
    let star = net_star(network, placement, gate);
    net_delays(network, library, &star, config).total_load_pf
}

/// Pin-to-pin delay (rise/fall) of `gate` driving its placed net.
///
/// Primary inputs and constants have no cell; they are reported with zero
/// delay (their wire delay is still accounted for by the net model).
pub fn gate_output_delay(
    network: &Network,
    library: &Library,
    placement: &Placement,
    config: &TimingConfig,
    gate: GateId,
) -> CellDelay {
    let g = network.gate(gate);
    if g.gtype.is_source() {
        // No cell to drive: skip the star its load would cost.
        return CellDelay::default();
    }
    cell_delay_at(library, g, gate_load_pf(network, library, placement, config, gate))
}

/// Pin-to-pin delay of `gate` driving a net of `load_pf` total load: zero
/// for a source, the library cell's load-dependent delay, or 0.1 ns for a
/// gate the library has no cell for.  Every path of this crate that derives
/// a cell delay goes through this one rule.
pub(crate) fn cell_delay_at(library: &Library, gate: &Gate, load_pf: f64) -> CellDelay {
    if gate.gtype.is_source() {
        return CellDelay::default();
    }
    match library.cell_for_gate(gate) {
        Some(cell) => cell_delay(cell, load_pf),
        None => CellDelay { rise_ns: 0.1, fall_ns: 0.1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_celllib::{DriveStrength, Library};
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_placement::{place, PlacerConfig};

    fn build() -> (Network, Placement, Library) {
        let mut b = NetworkBuilder::new("gd");
        b.inputs(["a", "b"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("f", GateType::Inv, &["n1"]);
        b.output("f");
        let n = b.finish().unwrap();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 5);
        (n, p, lib)
    }

    #[test]
    fn sources_have_zero_cell_delay() {
        let (n, p, lib) = build();
        let a = n.find_by_name("a").unwrap();
        let d = gate_output_delay(&n, &lib, &p, &TimingConfig::default(), a);
        assert_eq!(d.rise_ns, 0.0);
        assert_eq!(d.fall_ns, 0.0);
    }

    #[test]
    fn logic_gates_have_positive_delay() {
        let (n, p, lib) = build();
        let n1 = n.find_by_name("n1").unwrap();
        let d = gate_output_delay(&n, &lib, &p, &TimingConfig::default(), n1);
        assert!(d.rise_ns > 0.0);
        assert!(d.fall_ns > 0.0);
    }

    #[test]
    fn upsizing_reduces_delay_under_load() {
        let (mut n, p, lib) = build();
        let cfg = TimingConfig::default();
        let n1 = n.find_by_name("n1").unwrap();
        let slow = gate_output_delay(&n, &lib, &p, &cfg, n1).worst();
        n.gate_mut(n1).size_class = DriveStrength::X8.size_class();
        let fast = gate_output_delay(&n, &lib, &p, &cfg, n1).worst();
        assert!(fast < slow);
    }

    #[test]
    fn load_is_positive_and_grows_with_fanout() {
        let mut b = NetworkBuilder::new("fan");
        b.input("a");
        b.gate("root", GateType::Inv, &["a"]);
        for i in 0..4 {
            b.gate(format!("s{i}"), GateType::Inv, &["root"]);
            b.output(format!("s{i}"));
        }
        let n = b.finish().unwrap();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 9);
        let cfg = TimingConfig::default();
        let root = n.find_by_name("root").unwrap();
        let s0 = n.find_by_name("s0").unwrap();
        let load_root = gate_load_pf(&n, &lib, &p, &cfg, root);
        let load_leaf = gate_load_pf(&n, &lib, &p, &cfg, s0);
        assert!(load_root > load_leaf);
    }
}
