//! Structural front end: both networks are folded into one hash-consed DAG.
//!
//! Every gate is normalized to a *signed reference* ([`Slit`]) over shared
//! AND/XOR nodes:
//!
//! - BUF/INV collapse to a (possibly complemented) fan-in reference, so
//!   inverter chains cost nothing;
//! - NAND/NOR/XNOR are the complement of their base function
//!   ([`GateType::output_inverted`]);
//! - OR is De Morgan'd into a complemented AND over complemented fan-ins;
//! - XOR pulls fan-in complements into the output phase and cancels
//!   duplicate operands (`a ⊕ a = 0`);
//! - fan-ins of the symmetric functions are sorted and deduplicated, and
//!   constants are folded.
//!
//! [`Dag::map_network`] also flattens the paper's supergates.  A gate
//! *splices* a fan-in, taking the operands of the fan-in's node in place of
//! its reference, when the fan-in gate is *spliceable* and
//!
//! - the gate is AND/NAND/OR/NOR and the fan-in, after De Morgan, is a
//!   positive reference to an AND node; or
//! - the gate is XOR/XNOR and the fan-in is an XOR node in either phase,
//!   which then folds into the output phase.
//!
//! A gate is spliceable when it has one reader and no output port
//! ([`Network::is_fanout_free`]), and its node was built from its own
//! operands rather than collapsing onto one of theirs: `NAND(1, x)` is the
//! node of `x`, which other gates may read.  BUF/INV are spliceable when
//! they are fanout-free and their driver is spliceable.
//!
//! Associativity makes a splice exact.  A fanout-free AND or XOR tree thus
//! maps to one node over its leaves, and a gsg or ES swap, which only
//! permutes those leaves, maps to the original's node.
//!
//! Structurally identical logic in the two networks then maps to the *same*
//! node — and therefore later to the same SAT variable — so the CNF the
//! checker solves only grows with the region where the networks disagree.
//! The DAG also evaluates itself bit-parallel over 64-bit pattern words,
//! which drives the signature-based candidate detection for SAT sweeping.

use std::collections::HashMap;

use rapids_netlist::topo::topological_order;
use rapids_netlist::{BaseFunction, GateType, Network};

/// A signed node reference, packed as `node << 1 | complemented`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slit(u32);

impl Slit {
    /// Constant true (the complement of [`Slit::FALSE`]).
    pub const TRUE: Slit = Slit(0);
    /// Constant false.
    pub const FALSE: Slit = Slit(1);

    fn node_ref(node: u32, complemented: bool) -> Slit {
        Slit(node << 1 | u32::from(complemented))
    }

    /// The node index this reference points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the reference is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the two constant references.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for Slit {
    type Output = Slit;
    fn not(self) -> Slit {
        Slit(self.0 ^ 1)
    }
}

impl std::fmt::Debug for Slit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}n{}", if self.is_complement() { "!" } else { "" }, self.node())
    }
}

/// The function of a DAG node over its canonical fan-in references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeFn {
    /// Node 0: constant true.
    ConstTrue,
    /// Primary input by interface index.
    Input(usize),
    /// Conjunction of the (sorted, deduplicated) fan-in references.
    And(Box<[Slit]>),
    /// Parity of the (sorted, complement-free) fan-in references.
    Xor(Box<[Slit]>),
}

#[derive(PartialEq, Eq, Hash)]
enum NodeKey {
    And(Box<[Slit]>),
    Xor(Box<[Slit]>),
}

/// A hash-consed AND/XOR DAG shared by any number of mapped networks.
pub struct Dag {
    nodes: Vec<NodeFn>,
    cons: HashMap<NodeKey, u32>,
    inputs: Vec<u32>,
}

/// One network mapped onto a [`Dag`]: the canonical reference of each
/// output, in output-port order.
pub struct MappedOutputs {
    /// Canonical reference per output port.
    pub outputs: Vec<Slit>,
}

impl Dag {
    /// An empty DAG over `num_inputs` shared primary inputs.
    ///
    /// Input `i` of every mapped network is identified with input `i` of the
    /// DAG — interface correspondence is by index, matching the simulator's
    /// equivalence checks.
    pub fn new(num_inputs: usize) -> Self {
        let mut dag =
            Dag { nodes: vec![NodeFn::ConstTrue], cons: HashMap::new(), inputs: Vec::new() };
        for i in 0..num_inputs {
            let id = dag.push(NodeFn::Input(i));
            dag.inputs.push(id);
        }
        dag
    }

    fn push(&mut self, f: NodeFn) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(f);
        id
    }

    /// Number of nodes (constant and inputs included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG holds only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The node function of `id`.  Node ids are topologically ordered:
    /// fan-ins always have smaller ids.
    pub fn node(&self, id: u32) -> &NodeFn {
        &self.nodes[id as usize]
    }

    /// The positive reference of primary input `i`.
    pub fn input(&self, i: usize) -> Slit {
        Slit::node_ref(self.inputs[i], false)
    }

    /// Number of shared primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Whether node `id` is a primary-input node.
    pub fn input_node(&self, id: u32) -> bool {
        matches!(self.nodes[id as usize], NodeFn::Input(_))
    }

    /// Canonical AND of `ins` (sorts, deduplicates, folds constants and
    /// complement pairs; never builds 0- or 1-ary nodes).
    pub fn mk_and(&mut self, mut ins: Vec<Slit>) -> Slit {
        ins.sort();
        ins.dedup();
        let mut ops: Vec<Slit> = Vec::with_capacity(ins.len());
        for &l in &ins {
            if l == Slit::FALSE {
                return Slit::FALSE;
            }
            if l == Slit::TRUE {
                continue;
            }
            // Sorted order puts `x` immediately before `!x`.
            if let Some(&prev) = ops.last() {
                if prev == !l {
                    return Slit::FALSE;
                }
            }
            ops.push(l);
        }
        match ops.len() {
            0 => Slit::TRUE,
            1 => ops[0],
            _ => {
                let key = NodeKey::And(ops.clone().into_boxed_slice());
                if let Some(&id) = self.cons.get(&key) {
                    return Slit::node_ref(id, false);
                }
                let id = self.push(NodeFn::And(ops.into_boxed_slice()));
                self.cons.insert(key, id);
                Slit::node_ref(id, false)
            }
        }
    }

    /// Canonical XOR (pulls complements into the output phase, cancels
    /// duplicate operands, folds constants).
    pub fn mk_xor(&mut self, ins: Vec<Slit>) -> Slit {
        let mut phase = false;
        let mut ops: Vec<Slit> = Vec::with_capacity(ins.len());
        for l in ins {
            if l.is_const() {
                phase ^= l == Slit::TRUE;
                continue;
            }
            let base = if l.is_complement() {
                phase = !phase;
                !l
            } else {
                l
            };
            ops.push(base);
        }
        ops.sort();
        // a ⊕ a = 0: drop cancelling pairs.
        let mut kept: Vec<Slit> = Vec::with_capacity(ops.len());
        for l in ops {
            if kept.last() == Some(&l) {
                kept.pop();
            } else {
                kept.push(l);
            }
        }
        let base = match kept.len() {
            0 => Slit::FALSE,
            1 => kept[0],
            _ => {
                let key = NodeKey::Xor(kept.clone().into_boxed_slice());
                if let Some(&id) = self.cons.get(&key) {
                    Slit::node_ref(id, false)
                } else {
                    let id = self.push(NodeFn::Xor(kept.into_boxed_slice()));
                    self.cons.insert(key, id);
                    Slit::node_ref(id, false)
                }
            }
        };
        if phase {
            !base
        } else {
            base
        }
    }

    /// Maps a network onto the DAG, returning the canonical reference per
    /// output port and per live gate slot (dead slots map to `FALSE`).
    /// Spliceable fan-ins are flattened into their reader's node (see the
    /// module docs), so a spliced gate's own node has no reader in the DAG.
    ///
    /// # Panics
    ///
    /// Panics if the network is cyclic or its input count differs from the
    /// DAG's.
    pub fn map_network(&mut self, network: &Network) -> (MappedOutputs, Vec<Slit>) {
        assert_eq!(network.inputs().len(), self.num_inputs(), "input count mismatch");
        let order = topological_order(network).expect("CEC requires an acyclic network");
        let mut gate_map: Vec<Slit> = vec![Slit::FALSE; network.gate_count()];
        let mut spliceable = vec![false; network.gate_count()];
        let mut input_index: HashMap<usize, usize> = HashMap::new();
        for (i, &g) in network.inputs().iter().enumerate() {
            input_index.insert(g.index(), i);
        }
        for &g in &order {
            let gate = network.gate(g);
            // The base function's reference, and whether its node was built
            // from this gate's own operands.
            let (slit, own_node) = match gate.gtype.base_function() {
                BaseFunction::Source => {
                    let slit = match gate.gtype {
                        GateType::Input => self.input(input_index[&g.index()]),
                        GateType::Const1 => Slit::TRUE,
                        _ => Slit::FALSE,
                    };
                    (slit, false)
                }
                BaseFunction::Identity => {
                    let f = gate.fanins[0].index();
                    (gate_map[f], spliceable[f])
                }
                BaseFunction::And | BaseFunction::Or => {
                    // De Morgan: OR is the complement of an AND over the
                    // complemented fan-ins.
                    let or = gate.gtype.base_function() == BaseFunction::Or;
                    let mut ops: Vec<Slit> = Vec::with_capacity(gate.fanins.len());
                    for f in &gate.fanins {
                        let l = if or { !gate_map[f.index()] } else { gate_map[f.index()] };
                        match &self.nodes[l.node() as usize] {
                            NodeFn::And(ins) if spliceable[f.index()] && !l.is_complement() => {
                                ops.extend_from_slice(ins)
                            }
                            _ => ops.push(l),
                        }
                    }
                    let slit = self.mk_and(ops.clone());
                    (if or { !slit } else { slit }, built_from(slit, &ops))
                }
                BaseFunction::Xor => {
                    let mut phase = false;
                    let mut ops: Vec<Slit> = Vec::with_capacity(gate.fanins.len());
                    for f in &gate.fanins {
                        let l = gate_map[f.index()];
                        match &self.nodes[l.node() as usize] {
                            NodeFn::Xor(ins) if spliceable[f.index()] => {
                                ops.extend_from_slice(ins);
                                phase ^= l.is_complement();
                            }
                            _ => ops.push(l),
                        }
                    }
                    let slit = self.mk_xor(ops.clone());
                    (if phase { !slit } else { slit }, built_from(slit, &ops))
                }
            };
            gate_map[g.index()] = if gate.gtype.output_inverted() { !slit } else { slit };
            spliceable[g.index()] = own_node && network.is_fanout_free(g);
        }
        let outputs = network.outputs().iter().map(|port| gate_map[port.driver.index()]).collect();
        (MappedOutputs { outputs }, gate_map)
    }

    /// Bit-parallel evaluation: given one pattern word per input, returns
    /// one word per node.  Bit `k` of a node's word is its value under the
    /// `k`-th pattern.
    pub fn simulate_words(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(input_words.len(), self.num_inputs());
        let mut words = vec![0u64; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            words[id] = match node {
                NodeFn::ConstTrue => !0u64,
                NodeFn::Input(i) => input_words[*i],
                NodeFn::And(ins) => ins.iter().fold(!0u64, |acc, l| acc & word_of(&words, *l)),
                NodeFn::Xor(ins) => ins.iter().fold(0u64, |acc, l| acc ^ word_of(&words, *l)),
            };
        }
        words
    }

    /// Scalar evaluation of every node under one input assignment.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        self.simulate_words(&words).into_iter().map(|w| w & 1 == 1).collect()
    }
}

/// Whether `slit` is a node built over `ops`: neither a constant nor one of
/// the operands' own nodes.
fn built_from(slit: Slit, ops: &[Slit]) -> bool {
    !slit.is_const() && ops.iter().all(|o| o.node() != slit.node())
}

/// The pattern word of a signed reference.
pub fn word_of(words: &[u64], l: Slit) -> u64 {
    let w = words[l.node() as usize];
    if l.is_complement() {
        !w
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::NetworkBuilder;

    fn two_input_dag() -> Dag {
        Dag::new(2)
    }

    #[test]
    fn and_canonicalizes_order_duplicates_and_constants() {
        let mut d = two_input_dag();
        let (a, b) = (d.input(0), d.input(1));
        let ab = d.mk_and(vec![a, b]);
        assert_eq!(d.mk_and(vec![b, a]), ab);
        assert_eq!(d.mk_and(vec![a, b, a]), ab);
        assert_eq!(d.mk_and(vec![a, b, Slit::TRUE]), ab);
        assert_eq!(d.mk_and(vec![a, b, Slit::FALSE]), Slit::FALSE);
        assert_eq!(d.mk_and(vec![a, !a]), Slit::FALSE);
        assert_eq!(d.mk_and(vec![a]), a);
        assert_eq!(d.mk_and(vec![]), Slit::TRUE);
    }

    #[test]
    fn or_is_demorgan_of_and() {
        let n = NetworkBuilder::new("or")
            .input("a")
            .input("b")
            .gate("na", GateType::Inv, &["a"])
            .gate("nb", GateType::Inv, &["b"])
            .gate("or", GateType::Or, &["a", "b"])
            .gate("nor", GateType::Nor, &["a", "b"])
            .gate("and", GateType::And, &["na", "nb"])
            .output("or")
            .output("nor")
            .output("and")
            .finish()
            .unwrap();
        let mut d = two_input_dag();
        let (m, _) = d.map_network(&n);
        let (a, b) = (d.input(0), d.input(1));
        assert_eq!(m.outputs[0], !d.mk_and(vec![!a, !b]));
        assert_eq!(m.outputs[1], !m.outputs[0]);
        assert_eq!(m.outputs[2], m.outputs[1]);
        // One shared node serves AND(!a,!b), OR(a,b), NOR(a,b).
        assert_eq!(d.len(), 1 + 2 + 1);
    }

    #[test]
    fn xor_pulls_phase_and_cancels() {
        let mut d = two_input_dag();
        let (a, b) = (d.input(0), d.input(1));
        let x = d.mk_xor(vec![a, b]);
        assert_eq!(d.mk_xor(vec![!a, b]), !x);
        assert_eq!(d.mk_xor(vec![!a, !b]), x);
        assert_eq!(d.mk_xor(vec![a, a]), Slit::FALSE);
        assert_eq!(d.mk_xor(vec![a, a, b]), b);
        assert_eq!(d.mk_xor(vec![a, Slit::TRUE]), !a);
    }

    #[test]
    fn demorgan_pair_maps_to_identical_references() {
        // NAND(a, b) vs OR(INV a, INV b): equal after normalization.
        let n1 = NetworkBuilder::new("n1")
            .input("a")
            .input("b")
            .gate("g", GateType::Nand, &["a", "b"])
            .output("g")
            .finish()
            .unwrap();
        let n2 = NetworkBuilder::new("n2")
            .input("a")
            .input("b")
            .gate("na", GateType::Inv, &["a"])
            .gate("nb", GateType::Inv, &["b"])
            .gate("g", GateType::Or, &["na", "nb"])
            .output("g")
            .finish()
            .unwrap();

        let mut d = two_input_dag();
        let (m1, _) = d.map_network(&n1);
        let (m2, _) = d.map_network(&n2);
        assert_eq!(m1.outputs, m2.outputs);
    }

    #[test]
    fn word_simulation_matches_truth_tables() {
        let mut d = two_input_dag();
        let (a, b) = (d.input(0), d.input(1));
        let and = d.mk_and(vec![a, b]);
        let xor = d.mk_xor(vec![a, b]);
        // Patterns 00, 01, 10, 11 in bits 0..4.
        let words = d.simulate_words(&[0b0101, 0b0011]);
        assert_eq!(word_of(&words, and) & 0xF, 0b0001);
        assert_eq!(word_of(&words, xor) & 0xF, 0b0110);
        assert_eq!(word_of(&words, !and) & 0xF, 0b1110);
    }

    /// A network over inputs `a`, `b`, `c`, `d` and a constant `one`, with
    /// `gates` as `(name, type, "space-separated fan-ins")` and one output
    /// port per name in `outputs`.
    fn net(gates: &[(&str, GateType, &str)], outputs: &[&str]) -> Network {
        let mut b = NetworkBuilder::new("t");
        b.inputs(["a", "b", "c", "d"]).constant("one", true);
        for &(name, gtype, fanins) in gates {
            b.gate(name, gtype, &fanins.split(' ').collect::<Vec<_>>());
        }
        for &o in outputs {
            b.output(o);
        }
        b.finish().unwrap()
    }

    /// The reference of each network's first output, all mapped onto `d`.
    fn first_outputs(d: &mut Dag, nets: &[Vec<(&str, GateType, &str)>]) -> Vec<Slit> {
        nets.iter().map(|gates| d.map_network(&net(gates, &["o"])).0.outputs[0]).collect()
    }

    #[test]
    fn regrouped_and_trees_map_to_one_node() {
        use GateType::*;
        let trees = vec![
            vec![("t", And, "a b"), ("o", And, "t c")],
            vec![("t", And, "b c"), ("o", And, "a t")],
            vec![("t", Nand, "a b"), ("nc", Inv, "c"), ("o", Nor, "t nc")],
            vec![("na", Inv, "a"), ("t", Nand, "b c"), ("o", Nor, "na t")],
            vec![("t", Nand, "a b"), ("nc", Inv, "c"), ("u", Or, "t nc"), ("o", Inv, "u")],
            vec![("t", And, "a b"), ("u", Nand, "t c"), ("o", Inv, "u")],
            vec![
                ("nb", Inv, "b"),
                ("nc", Inv, "c"),
                ("t", Or, "nb nc"),
                ("u", Inv, "t"),
                ("o", And, "a u"),
            ],
        ];
        let mut d = Dag::new(4);
        let refs = first_outputs(&mut d, &trees);
        let abc = d.mk_and(vec![d.input(0), d.input(1), d.input(2)]);
        assert_eq!(refs, vec![abc; trees.len()]);
    }

    #[test]
    fn regrouped_xor_trees_map_to_one_node() {
        use GateType::*;
        let trees = vec![
            vec![("t", Xor, "a b"), ("o", Xor, "t c")],
            vec![("t", Xor, "b c"), ("o", Xor, "a t")],
            vec![("t", Xnor, "a b"), ("o", Xnor, "t c")],
            vec![("t", Xor, "a b"), ("u", Inv, "t"), ("o", Xnor, "u c")],
            // An XNOR inside: the complement.
            vec![("t", Xnor, "b c"), ("o", Xor, "a t")],
            vec![("t", Xor, "a b"), ("u", Inv, "t"), ("o", Xor, "u c")],
        ];
        let mut d = Dag::new(4);
        let refs = first_outputs(&mut d, &trees);
        let abc = d.mk_xor(vec![d.input(0), d.input(1), d.input(2)]);
        assert_eq!(refs, vec![abc, abc, abc, abc, !abc, !abc]);
    }

    /// `NAND(1, g)` collapses onto the node of `g`, which a second reader
    /// shares: the NAND has one reader, but `g`'s operands must not be
    /// spliced through it.
    #[test]
    fn collapsed_gates_do_not_splice_a_shared_node() {
        use GateType::*;
        let shared = [("g", Nor, "a b"), ("y", And, "g a")];
        let trees: Vec<Vec<_>> = [
            vec![("k", Nand, "one g"), ("s", Nand, "c d"), ("o", Nor, "k s")],
            vec![("s", Nand, "c d"), ("ns", Inv, "s"), ("o", And, "g ns")],
            vec![("t", And, "g c"), ("o", And, "t d")],
        ]
        .into_iter()
        .map(|tree| shared.iter().copied().chain(tree).collect())
        .collect();
        let mut d = Dag::new(4);
        let refs = first_outputs(&mut d, &trees);
        let (a, b, c, dd) = (d.input(0), d.input(1), d.input(2), d.input(3));
        let g = d.mk_and(vec![!a, !b]);
        let gcd = d.mk_and(vec![g, c, dd]);
        assert_eq!(refs, vec![gcd; 3]);
    }

    #[test]
    fn fan_ins_with_two_readers_are_not_spliced() {
        use GateType::*;
        let two_gates =
            net(&[("t", And, "a b"), ("o", And, "t c"), ("p", And, "t d")], &["o", "p"]);
        let gate_and_port = net(&[("t", And, "a b"), ("o", And, "t c")], &["o", "t"]);
        for n in [two_gates, gate_and_port] {
            let mut d = Dag::new(4);
            let (m, gate_map) = d.map_network(&n);
            let t = gate_map[n.find_by_name("t").unwrap().index()];
            let c = d.input(2);
            assert_eq!(m.outputs[0], d.mk_and(vec![t, c]));
        }
    }
}
