//! Building BDDs for the signals of a mapped Boolean network.
//!
//! Primary inputs are assigned BDD variables in declaration order, every gate
//! output gets a BDD built in topological order, and the resulting map lets
//! the symmetry baseline and the test-suite compare sub-functions exactly.

use std::collections::HashMap;

use rapids_netlist::{GateId, GateType, Network};

use crate::manager::{Manager, Ref};

/// BDDs for every live signal of a network.
#[derive(Debug, Clone)]
pub struct NetworkBdds {
    /// BDD variable index assigned to each primary input.
    pub input_vars: HashMap<GateId, u32>,
    /// BDD of every live gate output (inputs map to their projection).
    pub gate_functions: HashMap<GateId, Ref>,
    /// BDDs of the primary outputs, in declaration order.
    pub outputs: Vec<Ref>,
}

/// Builds BDDs for all gates and primary outputs of `network` inside `manager`.
///
/// # Panics
///
/// Panics if the network is cyclic.
pub fn build_output_bdds(manager: &mut Manager, network: &Network) -> NetworkBdds {
    let mut input_vars = HashMap::new();
    for (i, &pi) in network.inputs().iter().enumerate() {
        input_vars.insert(pi, i as u32);
    }
    let order = rapids_netlist::topo::topological_order(network)
        .expect("cannot build BDDs for a cyclic network");
    let mut gate_functions: HashMap<GateId, Ref> = HashMap::new();
    for g in order {
        let gate = network.gate(g);
        let f = match gate.gtype {
            GateType::Input => manager.var(input_vars[&g]),
            GateType::Const0 => manager.zero(),
            GateType::Const1 => manager.one(),
            GateType::Buf => gate_functions[&gate.fanins[0]],
            GateType::Inv => {
                let x = gate_functions[&gate.fanins[0]];
                manager.not(x)
            }
            GateType::And | GateType::Nand => {
                let operands: Vec<Ref> = gate.fanins.iter().map(|f| gate_functions[f]).collect();
                let conj = manager.and_many(operands);
                if gate.gtype == GateType::Nand {
                    manager.not(conj)
                } else {
                    conj
                }
            }
            GateType::Or | GateType::Nor => {
                let operands: Vec<Ref> = gate.fanins.iter().map(|f| gate_functions[f]).collect();
                let disj = manager.or_many(operands);
                if gate.gtype == GateType::Nor {
                    manager.not(disj)
                } else {
                    disj
                }
            }
            GateType::Xor | GateType::Xnor => {
                let operands: Vec<Ref> = gate.fanins.iter().map(|f| gate_functions[f]).collect();
                let x = manager.xor_many(operands);
                if gate.gtype == GateType::Xnor {
                    manager.not(x)
                } else {
                    x
                }
            }
        };
        gate_functions.insert(g, f);
    }
    let outputs = network.outputs().iter().map(|o| gate_functions[&o.driver]).collect();
    NetworkBdds { input_vars, gate_functions, outputs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::{GateType, NetworkBuilder};

    fn full_adder() -> Network {
        let mut b = NetworkBuilder::new("fa");
        b.inputs(["a", "b", "cin"]);
        b.gate("s1", GateType::Xor, &["a", "b"]);
        b.gate("sum", GateType::Xor, &["s1", "cin"]);
        b.gate("c1", GateType::And, &["a", "b"]);
        b.gate("c2", GateType::And, &["s1", "cin"]);
        b.gate("cout", GateType::Or, &["c1", "c2"]);
        b.output("sum");
        b.output("cout");
        b.finish().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        let mut m = Manager::new();
        let bdds = build_output_bdds(&mut m, &n);
        for bits in 0..8u32 {
            let a = (bits & 1) != 0;
            let b = (bits & 2) != 0;
            let c = (bits & 4) != 0;
            let sum = m.eval(bdds.outputs[0], &[a, b, c]);
            let cout = m.eval(bdds.outputs[1], &[a, b, c]);
            let total = a as u32 + b as u32 + c as u32;
            assert_eq!(sum, total % 2 == 1);
            assert_eq!(cout, total >= 2);
        }
    }

    #[test]
    fn nand_nor_inverted_forms() {
        let mut builder = NetworkBuilder::new("forms");
        builder.inputs(["x", "y"]);
        builder.gate("n1", GateType::Nand, &["x", "y"]);
        builder.gate("n2", GateType::And, &["x", "y"]);
        builder.gate("n3", GateType::Inv, &["n2"]);
        builder.output("n1");
        builder.output("n3");
        let n = builder.finish().unwrap();
        let mut m = Manager::new();
        let bdds = build_output_bdds(&mut m, &n);
        assert_eq!(bdds.outputs[0], bdds.outputs[1]);
    }

    #[test]
    fn constants_in_network() {
        let mut b = NetworkBuilder::new("c");
        b.input("a");
        b.constant("zero", false);
        b.gate("f", GateType::Or, &["a", "zero"]);
        b.output("f");
        let n = b.finish().unwrap();
        let mut m = Manager::new();
        let bdds = build_output_bdds(&mut m, &n);
        let a_var = m.var(0);
        assert_eq!(bdds.outputs[0], a_var);
    }
}
