//! Structural technology mapping onto the paper's cell set.
//!
//! The evaluation library contains `INV`, `BUF`, `NAND`, `NOR`, `XOR` and
//! `XNOR` cells with 2–4 inputs.  [`map_to_library`] rewrites an arbitrary
//! AND/OR/XOR network into that cell set:
//!
//! * wide gates are decomposed into balanced trees bounded by the library's
//!   maximum fan-in,
//! * `AND`/`OR` gates become `NAND`/`NOR` followed by an inverter (absorbed
//!   into the root when the original gate was already the inverted form),
//! * `XOR`/`XNOR` trees map directly.
//!
//! The mapping is purely structural (no Boolean matching); it preserves
//! functionality exactly, which the tests verify by simulation.
//! [`expand_xors`] then rewrites the XOR cells of a network as NAND2
//! cells, the way c1355 relates to c499.

use std::collections::HashMap;

use rapids_netlist::topo::topological_order;
use rapids_netlist::{BaseFunction, GateId, GateType, NetlistError, Network};

/// Maps `network` onto the INV/BUF/NAND/NOR/XOR/XNOR cell set with at most
/// `max_fanin` inputs per cell (clamped to 2..=4).
///
/// # Errors
///
/// Propagates structural errors from network construction; these only occur
/// if the input network is itself inconsistent.
pub fn map_to_library(network: &Network, max_fanin: usize) -> Result<Network, NetlistError> {
    let max_fanin = max_fanin.clamp(2, 4);
    let mut mapped = Network::new(format!("{}_mapped", network.name()));
    let mut translate: HashMap<GateId, GateId> = HashMap::new();
    let mut counter = 0usize;
    let order =
        rapids_netlist::topo::topological_order(network).expect("cannot map a cyclic network");

    for g in order {
        let gate = network.gate(g);
        let new_id = match gate.gtype {
            GateType::Input => mapped.add_input(gate.name.clone()),
            GateType::Const0 => mapped.add_constant(false, gate.name.clone()),
            GateType::Const1 => mapped.add_constant(true, gate.name.clone()),
            GateType::Buf | GateType::Inv => {
                let fanin = translate[&gate.fanins[0]];
                mapped.add_gate(gate.gtype, &[fanin], gate.name.clone())?
            }
            t => {
                let fanins: Vec<GateId> = gate.fanins.iter().map(|f| translate[f]).collect();
                map_wide_gate(&mut mapped, t, &fanins, &gate.name, max_fanin, &mut counter)?
            }
        };
        translate.insert(g, new_id);
    }
    for port in network.outputs() {
        mapped.add_output(translate[&port.driver], port.name.clone());
    }
    Ok(mapped)
}

/// Builds the library implementation of one (possibly wide) AND/OR/XOR-family
/// gate and returns the id of the signal carrying the original gate's
/// function.
fn map_wide_gate(
    mapped: &mut Network,
    gtype: GateType,
    fanins: &[GateId],
    name: &str,
    max_fanin: usize,
    counter: &mut usize,
) -> Result<GateId, NetlistError> {
    let base = gtype.base_function();
    let inverted = gtype.output_inverted();
    // Reduce the fan-in list to at most `max_fanin` by building non-inverted
    // subtrees, then realize the root with the requested polarity.
    let reduced = reduce_tree(mapped, base, fanins, max_fanin, counter)?;
    realize_root(mapped, base, &reduced, inverted, name, counter)
}

/// Reduces `signals` to at most `max_fanin` signals by grouping them into
/// non-inverted subtrees of the base function.
fn reduce_tree(
    mapped: &mut Network,
    base: BaseFunction,
    signals: &[GateId],
    max_fanin: usize,
    counter: &mut usize,
) -> Result<Vec<GateId>, NetlistError> {
    let mut level: Vec<GateId> = signals.to_vec();
    while level.len() > max_fanin {
        let mut next = Vec::with_capacity(level.len().div_ceil(max_fanin));
        for chunk in level.chunks(max_fanin) {
            if chunk.len() == 1 {
                next.push(chunk[0]);
            } else {
                let id = realize_root(mapped, base, chunk, false, &fresh_name(counter), counter)?;
                next.push(id);
            }
        }
        level = next;
    }
    Ok(level)
}

/// Emits library gates computing the base function (optionally inverted) of
/// at most four signals, and returns the output id.
fn realize_root(
    mapped: &mut Network,
    base: BaseFunction,
    signals: &[GateId],
    inverted: bool,
    name: &str,
    counter: &mut usize,
) -> Result<GateId, NetlistError> {
    match base {
        BaseFunction::And | BaseFunction::Or => {
            let inner = if base == BaseFunction::And { GateType::Nand } else { GateType::Nor };
            if inverted {
                mapped.add_gate(inner, signals, name.to_string())
            } else {
                let n = mapped.add_gate(inner, signals, fresh_name(counter))?;
                mapped.add_gate(GateType::Inv, &[n], name.to_string())
            }
        }
        BaseFunction::Xor => {
            let gtype = if inverted { GateType::Xnor } else { GateType::Xor };
            mapped.add_gate(gtype, signals, name.to_string())
        }
        BaseFunction::Identity | BaseFunction::Source => {
            unreachable!("identity and source gates are handled by the caller")
        }
    }
}

fn fresh_name(counter: &mut usize) -> String {
    let name = format!("_map{counter}");
    *counter += 1;
    name
}

/// Rewrites every XOR/XNOR gate as a chain of four-NAND2 XOR cells, one
/// cell per extra fan-in (an XNOR adds an inverter).  Every other gate is
/// copied; function and interface are unchanged.
///
/// # Panics
///
/// Panics if `network` is cyclic.
pub fn expand_xors(network: &Network) -> Network {
    let order = topological_order(network).expect("expand_xors requires an acyclic network");
    let mut out = Network::new(format!("{}_nand", network.name()));
    let mut map: Vec<Option<GateId>> = vec![None; network.gate_count()];
    for &input in network.inputs() {
        map[input.index()] = Some(out.add_input(network.gate(input).name.clone()));
    }
    let nand = |out: &mut Network, a: GateId, b: GateId, name: String| {
        out.add_gate(GateType::Nand, &[a, b], name).expect("NAND2 accepts two fan-ins")
    };
    for g in order {
        if map[g.index()].is_some() {
            continue;
        }
        let gate = network.gate(g);
        let fanins: Vec<GateId> = gate
            .fanins
            .iter()
            .map(|f| map[f.index()].expect("fan-ins precede their gate"))
            .collect();
        let id = match gate.gtype {
            GateType::Xor | GateType::Xnor => {
                let mut acc = fanins[0];
                for (k, &b) in fanins[1..].iter().enumerate() {
                    let tag = format!("{}_x{k}", gate.name);
                    let n1 = nand(&mut out, acc, b, format!("{tag}a"));
                    let n2 = nand(&mut out, acc, n1, format!("{tag}b"));
                    let n3 = nand(&mut out, b, n1, format!("{tag}c"));
                    acc = nand(&mut out, n2, n3, format!("{tag}d"));
                }
                if gate.gtype == GateType::Xnor {
                    out.add_gate(GateType::Inv, &[acc], gate.name.clone())
                        .expect("an inverter accepts one fan-in")
                } else {
                    acc
                }
            }
            gtype => out.add_gate(gtype, &fanins, gate.name.clone()).expect("copied gate is valid"),
        };
        map[g.index()] = Some(id);
    }
    for port in network.outputs() {
        out.add_output(map[port.driver.index()].expect("outputs are driven"), port.name.clone());
    }
    out
}

/// Returns `true` if every logic gate of the network uses only the library
/// cell set (INV/BUF/NAND/NOR/XOR/XNOR) with fan-in at most `max_fanin`.
pub fn is_mapped(network: &Network, max_fanin: usize) -> bool {
    network.iter_logic().all(|g| {
        let gate = network.gate(g);
        let type_ok = matches!(
            gate.gtype,
            GateType::Inv
                | GateType::Buf
                | GateType::Nand
                | GateType::Nor
                | GateType::Xor
                | GateType::Xnor
        );
        type_ok && gate.fanin_count() <= max_fanin
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::adder::ripple_carry_adder;
    use crate::generators::alu::alu;
    use crate::generators::parity::{error_corrector, parity_tree};
    use rapids_netlist::NetworkBuilder;
    use rapids_sim::check_equivalence_exhaustive;

    #[test]
    fn mapped_adder_is_equivalent_and_library_only() {
        let n = ripple_carry_adder(4);
        let m = map_to_library(&n, 4).unwrap();
        assert!(is_mapped(&m, 4));
        assert!(!is_mapped(&n, 4));
        assert!(check_equivalence_exhaustive(&n, &m).is_equivalent());
        assert!(m.check_consistency().is_ok());
    }

    #[test]
    fn mapped_alu_is_equivalent() {
        let n = alu(3);
        let m = map_to_library(&n, 4).unwrap();
        assert!(is_mapped(&m, 4));
        assert!(check_equivalence_exhaustive(&n, &m).is_equivalent());
    }

    #[test]
    fn wide_gates_are_decomposed() {
        let mut b = NetworkBuilder::new("wide");
        let names: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        for n in &names {
            b.input(n.clone());
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        b.gate("f", GateType::And, &refs);
        b.gate("g", GateType::Nor, &refs);
        b.gate("h", GateType::Xnor, &refs);
        b.output("f");
        b.output("g");
        b.output("h");
        let n = b.finish().unwrap();
        for max_fanin in 2..=4 {
            let m = map_to_library(&n, max_fanin).unwrap();
            assert!(is_mapped(&m, max_fanin), "max_fanin={max_fanin}");
            assert!(check_equivalence_exhaustive(&n, &m).is_equivalent(), "max_fanin={max_fanin}");
        }
    }

    #[test]
    fn xor_trees_stay_xor() {
        let n = parity_tree(12);
        let m = map_to_library(&n, 3).unwrap();
        assert!(is_mapped(&m, 3));
        let stats = rapids_netlist::NetworkStats::compute(&m);
        assert!(stats.count_of(GateType::Nand) == 0 && stats.count_of(GateType::Nor) == 0);
        assert!(check_equivalence_exhaustive(&n, &m).is_equivalent());
    }

    #[test]
    fn buffers_and_inverters_pass_through() {
        let mut b = NetworkBuilder::new("bufinv");
        b.input("a");
        b.gate("x", GateType::Inv, &["a"]);
        b.gate("y", GateType::Buf, &["x"]);
        b.output("y");
        let n = b.finish().unwrap();
        let m = map_to_library(&n, 4).unwrap();
        assert_eq!(m.logic_gate_count(), 2);
        assert!(check_equivalence_exhaustive(&n, &m).is_equivalent());
    }

    #[test]
    fn mapping_preserves_interface_names() {
        let n = ripple_carry_adder(3);
        let m = map_to_library(&n, 4).unwrap();
        assert_eq!(n.inputs().len(), m.inputs().len());
        assert_eq!(n.outputs().len(), m.outputs().len());
        for (a, b) in n.outputs().iter().zip(m.outputs()) {
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn expanded_xors_are_equivalent_nand_cells() {
        let mut b = NetworkBuilder::new("xors");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("x", GateType::Xor, &["a", "b", "c"]);
        b.gate("y", GateType::Xnor, &["x", "d"]);
        b.gate("z", GateType::Nor, &["a", "y"]);
        b.output("y");
        b.output("z");
        let n = b.finish().unwrap();
        let m = expand_xors(&n);
        let stats = rapids_netlist::NetworkStats::compute(&m);
        assert_eq!(stats.count_of(GateType::Xor) + stats.count_of(GateType::Xnor), 0);
        assert_eq!(stats.count_of(GateType::Nand), 4 * 3);
        assert!(check_equivalence_exhaustive(&n, &m).is_equivalent());

        let ecc = map_to_library(&error_corrector(2, 5), 4).unwrap();
        let expanded = expand_xors(&ecc);
        assert!(expanded.check_consistency().is_ok());
        assert!(check_equivalence_exhaustive(&ecc, &expanded).is_equivalent());
    }
}
