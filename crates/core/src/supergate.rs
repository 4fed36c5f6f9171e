//! Generalized implication supergate (GISG) extraction (§3.2).
//!
//! The network is processed in reverse topological order.  Every gate that
//! is a primary-output driver, has multiple fan-outs, or is the point where
//! backward propagation from an enclosing supergate stopped becomes a
//! **root**.  From each root the extractor descends through its fanout-free
//! transitive fan-in:
//!
//! * **AND/OR roots** propagate direct backward implication (the enabling
//!   output value is applied at the root, so every reached pin carries an
//!   implied value `imp_value`) — these pins are *and-or-reachable*;
//! * **XOR roots** descend through XOR/XNOR/INV/BUF gates only — the reached
//!   pins are *xor-reachable*;
//! * inverters and buffers are covered by both kinds of traversal.
//!
//! The traversal touches every gate and every edge a constant number of
//! times, which is the linear-time property claimed by the paper.

use std::collections::HashMap;

use rapids_netlist::{BaseFunction, GateId, Logic, Network, PinRef};

use crate::implication::{backward_implication, enabling_output_value, BackwardImplication};

/// Kind of a generalized implication supergate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupergateKind {
    /// Root is an AND/NAND gate (leaves are and-or-reachable with
    /// `imp_value = 1`).
    And,
    /// Root is an OR/NOR gate (leaves are and-or-reachable with
    /// `imp_value = 0`).
    Or,
    /// Root is an XOR/XNOR gate (leaves are xor-reachable).
    Xor,
    /// Root is a buffer/inverter chain or a gate that admits no expansion;
    /// the supergate covers a single function and offers no swap freedom on
    /// its own.
    Trivial,
}

/// How a leaf pin is reached from the root (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinClass {
    /// And-or-reachable, with the logic value implied at the pin by direct
    /// backward implication from the root.
    AndOr {
        /// `imp_value(p)` of the paper.
        imp_value: Logic,
    },
    /// Xor-reachable, with the parity of inversions along the path from the
    /// pin to the root.
    Xor {
        /// `true` if the path inverts the signal an odd number of times.
        inverted_path: bool,
    },
}

/// One input pin of a supergate: an in-pin of a member gate whose driver
/// lies outside the supergate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupergateLeaf {
    /// The in-pin.
    pub pin: PinRef,
    /// The external gate driving the pin.
    pub driver: GateId,
    /// Reachability class of the pin.
    pub class: PinClass,
}

/// A generalized implication supergate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supergate {
    /// Root gate (its output is the supergate output).
    pub root: GateId,
    /// Kind of the supergate.
    pub kind: SupergateKind,
    /// Gates covered by the supergate, root first.
    pub members: Vec<GateId>,
    /// Input pins of the supergate.
    pub leaves: Vec<SupergateLeaf>,
}

impl Supergate {
    /// Number of covered gates.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Number of input pins (the `L` column of Table 1 reports the maximum
    /// of this quantity over all supergates).
    pub fn input_count(&self) -> usize {
        self.leaves.len()
    }

    /// A supergate is *trivial* if it covers a single gate (no rewiring
    /// freedom beyond that gate's own commutativity).
    pub fn is_trivial(&self) -> bool {
        self.members.len() <= 1
    }
}

/// The result of supergate extraction over a whole network.
#[derive(Debug, Clone)]
pub struct Extraction {
    supergates: Vec<Supergate>,
    root_index: HashMap<GateId, usize>,
}

impl Extraction {
    /// All supergates, in extraction (reverse topological root) order.
    pub fn supergates(&self) -> &[Supergate] {
        &self.supergates
    }

    /// The supergate rooted at `root`, if that gate is a root.
    pub fn supergate_of_root(&self, root: GateId) -> Option<&Supergate> {
        self.root_index.get(&root).map(|&i| &self.supergates[i])
    }

    /// Number of logic gates covered by non-trivial supergates.
    pub fn covered_by_nontrivial(&self) -> usize {
        self.supergates.iter().filter(|sg| !sg.is_trivial()).map(|sg| sg.size()).sum()
    }

    /// The largest supergate input count (`L` of Table 1), 0 if empty.
    pub fn largest_input_count(&self) -> usize {
        self.supergates.iter().map(|sg| sg.input_count()).max().unwrap_or(0)
    }
}

/// Extracts the unique partition of the network into generalized implication
/// supergates.
///
/// # Panics
///
/// Panics if the network is cyclic.
pub fn extract_supergates(network: &Network) -> Extraction {
    let order = rapids_netlist::topo::reverse_topological_order(network)
        .expect("supergate extraction requires an acyclic network");
    let mut covered = vec![false; network.gate_count()];
    let mut supergates = Vec::new();
    let mut root_index = HashMap::new();

    for g in order {
        let gate = network.gate(g);
        if gate.gtype.is_source() || covered[g.index()] {
            continue;
        }
        // Any logic gate not swallowed by an enclosing supergate becomes a
        // root: this covers primary-output drivers, multi-fanout gates and
        // propagation stop points alike.
        root_index.insert(g, supergates.len());
        supergates.push(extract_from_root(network, g, &mut covered));
    }
    Extraction { supergates, root_index }
}

/// Extracts the supergate rooted at `root`, marking covered gates.
fn extract_from_root(network: &Network, root: GateId, covered: &mut [bool]) -> Supergate {
    let root_type = network.gate(root).gtype;
    covered[root.index()] = true;
    match root_type.base_function() {
        BaseFunction::And | BaseFunction::Or | BaseFunction::Identity => {
            extract_and_or(network, root, covered)
        }
        BaseFunction::Xor => extract_xor(network, root, covered),
        BaseFunction::Source => unreachable!("sources are never extraction roots"),
    }
}

/// Can the traversal descend into `driver` from inside the supergate?
/// It must be a fanout-free logic gate (single sink, no primary-output port).
fn expandable(network: &Network, driver: GateId) -> bool {
    let g = network.gate(driver);
    !g.gtype.is_source() && network.is_fanout_free(driver)
}

/// AND/OR/identity-rooted extraction by direct backward implication.
fn extract_and_or(network: &Network, root: GateId, covered: &mut [bool]) -> Supergate {
    let root_type = network.gate(root).gtype;
    let kind = match root_type.base_function() {
        BaseFunction::And => SupergateKind::And,
        BaseFunction::Or => SupergateKind::Or,
        _ => SupergateKind::Trivial,
    };
    let enabling = enabling_output_value(root_type)
        .expect("AND/OR/identity gates always have an enabling output value");

    let mut members = vec![root];
    let mut leaves = Vec::new();
    // Work list of (gate, value at its out-pin).
    let mut work: Vec<(GateId, Logic)> = vec![(root, enabling)];
    while let Some((g, out_value)) = work.pop() {
        match backward_implication(network.gate(g).gtype, out_value) {
            BackwardImplication::AllInputs(pin_value) => {
                for (idx, &driver) in network.fanins(g).iter().enumerate() {
                    let pin = PinRef::new(g, idx);
                    let can_descend = expandable(network, driver)
                        && !covered[driver.index()]
                        && matches!(
                            backward_implication(network.gate(driver).gtype, pin_value),
                            BackwardImplication::AllInputs(_)
                        );
                    if can_descend {
                        covered[driver.index()] = true;
                        members.push(driver);
                        work.push((driver, pin_value));
                    } else {
                        leaves.push(SupergateLeaf {
                            pin,
                            driver,
                            class: PinClass::AndOr { imp_value: pin_value },
                        });
                    }
                }
            }
            BackwardImplication::Unknown => {
                // Only possible if the root itself is XOR-like, which this
                // function never receives.
                unreachable!("and-or extraction reached a non-implying gate")
            }
        }
    }
    // Identity-rooted chains that expanded into an AND/OR tree adopt the
    // kind of the first non-identity member for reporting purposes.
    let kind = if kind == SupergateKind::Trivial && members.len() > 1 {
        members
            .iter()
            .find_map(|&m| match network.gate(m).gtype.base_function() {
                BaseFunction::And => Some(SupergateKind::And),
                BaseFunction::Or => Some(SupergateKind::Or),
                _ => None,
            })
            .unwrap_or(SupergateKind::Trivial)
    } else {
        kind
    };
    Supergate { root, kind, members, leaves }
}

/// XOR-rooted extraction: descend through XOR/XNOR/INV/BUF fanout-free gates.
fn extract_xor(network: &Network, root: GateId, covered: &mut [bool]) -> Supergate {
    let mut members = vec![root];
    let mut leaves = Vec::new();
    // Work list of (gate, parity of inversions from this gate's output up to
    // the root output).
    let root_inverts = network.gate(root).gtype.output_inverted();
    let mut work: Vec<(GateId, bool)> = vec![(root, root_inverts)];
    while let Some((g, parity_above)) = work.pop() {
        for (idx, &driver) in network.fanins(g).iter().enumerate() {
            let pin = PinRef::new(g, idx);
            let dtype = network.gate(driver).gtype;
            let xor_like =
                matches!(dtype.base_function(), BaseFunction::Xor | BaseFunction::Identity);
            if xor_like && expandable(network, driver) && !covered[driver.index()] {
                covered[driver.index()] = true;
                members.push(driver);
                let parity = parity_above ^ dtype.output_inverted();
                work.push((driver, parity));
            } else {
                leaves.push(SupergateLeaf {
                    pin,
                    driver,
                    class: PinClass::Xor { inverted_path: parity_above },
                });
            }
        }
    }
    Supergate { root, kind: SupergateKind::Xor, members, leaves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::{GateType, NetworkBuilder};

    /// The members of every supergate, sorted and deduplicated: equal to
    /// the network's logic gates exactly when the supergates cover them all.
    fn covered_gates(ex: &Extraction) -> Vec<GateId> {
        let mut covered: Vec<GateId> =
            ex.supergates().iter().flat_map(|sg| sg.members.iter().copied()).collect();
        covered.sort_unstable();
        covered.dedup();
        covered
    }

    /// Fig. 2-style network: f = AND(h, AND(k, m)), fanout-free.
    fn and_tree() -> Network {
        let mut b = NetworkBuilder::new("fig2");
        b.inputs(["h", "k", "m"]);
        b.gate("g1", GateType::And, &["k", "m"]);
        b.gate("f", GateType::And, &["h", "g1"]);
        b.output("f");
        b.finish().unwrap()
    }

    #[test]
    fn and_tree_is_one_supergate_with_three_leaves() {
        let n = and_tree();
        let ex = extract_supergates(&n);
        let f = n.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        assert_eq!(sg.kind, SupergateKind::And);
        assert_eq!(sg.size(), 2);
        assert_eq!(sg.input_count(), 3);
        for leaf in &sg.leaves {
            assert_eq!(leaf.class, PinClass::AndOr { imp_value: Logic::One });
        }
        // Every logic gate covered exactly once.
        assert_eq!(ex.supergates().len(), 1);
        assert_eq!(covered_gates(&ex), n.iter_logic().collect::<Vec<_>>());
    }

    #[test]
    fn nand_nor_mix_with_consistent_implications() {
        // f = NOR(NAND(a, b), c): setting f = 1 implies both fanins 0; the
        // NAND output 0 implies a = b = 1.  All three pins are one supergate.
        let mut b = NetworkBuilder::new("mix");
        b.inputs(["a", "b", "c"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("f", GateType::Nor, &["n1", "c"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let f = n.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        assert_eq!(sg.size(), 2);
        assert_eq!(sg.input_count(), 3);
        let values: Vec<Logic> = sg
            .leaves
            .iter()
            .map(|l| match l.class {
                PinClass::AndOr { imp_value } => imp_value,
                _ => panic!("expected and-or leaves"),
            })
            .collect();
        // a and b are implied 1 (inputs of the NAND), c is implied 0.
        assert_eq!(values.iter().filter(|&&v| v == Logic::One).count(), 2);
        assert_eq!(values.iter().filter(|&&v| v == Logic::Zero).count(), 1);
    }

    #[test]
    fn incompatible_polarity_stops_expansion() {
        // f = AND(g, h) with g = OR(a, b): implication of 1 at the OR output
        // infers nothing, so the OR is its own supergate root.
        let mut b = NetworkBuilder::new("stop");
        b.inputs(["a", "b", "h"]);
        b.gate("g", GateType::Or, &["a", "b"]);
        b.gate("f", GateType::And, &["g", "h"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        assert_eq!(ex.supergates().len(), 2);
        let f = n.find_by_name("f").unwrap();
        let g = n.find_by_name("g").unwrap();
        assert_eq!(ex.supergate_of_root(f).unwrap().size(), 1);
        assert_eq!(ex.supergate_of_root(g).unwrap().size(), 1);
    }

    #[test]
    fn multi_fanout_gate_becomes_its_own_root() {
        let mut b = NetworkBuilder::new("mf");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("shared", GateType::And, &["a", "b"]);
        b.gate("f1", GateType::And, &["shared", "c"]);
        b.gate("f2", GateType::And, &["shared", "d"]);
        b.output("f1");
        b.output("f2");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let shared = n.find_by_name("shared").unwrap();
        assert!(ex.supergate_of_root(shared).is_some());
        assert_eq!(ex.supergates().len(), 3);
        // f1's supergate does not cover `shared` even though implication
        // would be compatible, because `shared` has two fanouts.
        let f1 = n.find_by_name("f1").unwrap();
        assert_eq!(ex.supergate_of_root(f1).unwrap().size(), 1);
    }

    #[test]
    fn xor_tree_extraction_tracks_inversion_parity() {
        let mut b = NetworkBuilder::new("xortree");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("x1", GateType::Xor, &["a", "b"]);
        b.gate("x2", GateType::Xnor, &["c", "d"]);
        b.gate("f", GateType::Xor, &["x1", "x2"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let f = n.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        assert_eq!(sg.kind, SupergateKind::Xor);
        assert_eq!(sg.size(), 3);
        assert_eq!(sg.input_count(), 4);
        // Pins under the XNOR see an inverted path.
        let inverted: Vec<bool> = sg
            .leaves
            .iter()
            .map(|l| match l.class {
                PinClass::Xor { inverted_path } => inverted_path,
                _ => panic!("expected xor leaves"),
            })
            .collect();
        assert_eq!(inverted.iter().filter(|&&i| i).count(), 2);
        assert_eq!(inverted.iter().filter(|&&i| !i).count(), 2);
    }

    #[test]
    fn xor_and_boundary() {
        // XOR root over AND gates: the ANDs stop xor-reachability.
        let mut b = NetworkBuilder::new("xab");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("a1", GateType::And, &["a", "b"]);
        b.gate("a2", GateType::And, &["c", "d"]);
        b.gate("f", GateType::Xor, &["a1", "a2"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let f = n.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        assert_eq!(sg.size(), 1);
        assert_eq!(sg.input_count(), 2);
        assert_eq!(ex.supergates().len(), 3);
    }

    #[test]
    fn inverters_are_absorbed_into_supergates() {
        // f = AND(INV(a), b): the inverter is covered, its input is a leaf
        // with implied value 0.
        let mut b = NetworkBuilder::new("inv");
        b.inputs(["a", "b"]);
        b.gate("na", GateType::Inv, &["a"]);
        b.gate("f", GateType::And, &["na", "b"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let f = n.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        assert_eq!(sg.size(), 2);
        assert_eq!(sg.input_count(), 2);
        let a = n.find_by_name("a").unwrap();
        let leaf_a = sg.leaves.iter().find(|l| l.driver == a).unwrap();
        assert_eq!(leaf_a.class, PinClass::AndOr { imp_value: Logic::Zero });
        let b_id = n.find_by_name("b").unwrap();
        let leaf_b = sg.leaves.iter().find(|l| l.driver == b_id).unwrap();
        assert_eq!(leaf_b.class, PinClass::AndOr { imp_value: Logic::One });
    }

    #[test]
    fn every_logic_gate_is_covered_exactly_once() {
        let n = rapids_circuits::benchmark("c432").unwrap();
        let ex = extract_supergates(&n);
        let total_members: usize = ex.supergates().iter().map(|sg| sg.size()).sum();
        assert_eq!(total_members, n.logic_gate_count());
        assert_eq!(covered_gates(&ex), n.iter_logic().collect::<Vec<_>>());
        assert!(ex.largest_input_count() >= 2);
        assert!(ex.covered_by_nontrivial() > 0);
    }

    #[test]
    fn trivial_supergate_classification() {
        let mut b = NetworkBuilder::new("triv");
        b.inputs(["a", "b"]);
        b.gate("f", GateType::Xor, &["a", "b"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let f = n.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        assert!(sg.is_trivial());
    }
}
