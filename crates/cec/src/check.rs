//! The equivalence check: encode, sweep, solve the miter.
//!
//! [`check_equivalence`] decides whether two mapped networks compute the
//! same function on every input:
//!
//! 1. **Interface check** — input/output counts must match (correspondence
//!    is by index, like the simulator's checks).
//! 2. **Structural front end** — both networks are folded into one
//!    hash-consed AND/XOR DAG ([`crate::dag`]), each fanout-free AND or XOR
//!    tree into one node over its leaves; output pairs that map to the same
//!    reference are proven equivalent without touching the solver.  A tree
//!    whose leaves a gsg or ES swap permuted maps to the original's node,
//!    so a swap-only result usually closes here.
//! 3. **Tseitin encoding** — the cones of the remaining output pairs are
//!    encoded per gate kind ([`crate::cnf`]); structurally shared gates
//!    share one SAT variable across both networks.
//! 4. **SAT sweeping** — seeded bit-parallel simulation groups the encoded
//!    nodes into candidate classes.  One bottom-up pass queries each node
//!    against the smallest unmerged member of its class, under a selector
//!    assumption with a conflict budget.  A proof becomes equality clauses,
//!    so the queries above it stay local, which is what makes deep
//!    arithmetic miters (the array multipliers) tractable; a refuting model
//!    splits every class at once by the nodes' values in it.  Passes repeat
//!    until one refutes nothing.
//! 5. **Miter solve** — per remaining pair, `dᵢ ↔ aᵢ ⊕ bᵢ`, plus the clause
//!    `d₁ ∨ d₂ ∨ …`; UNSAT is a proof of equivalence, a model is a concrete
//!    counterexample input vector, re-simulated on both networks to locate
//!    the differing output (and cross-check the solver).

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapids_netlist::topo::topological_order;
use rapids_netlist::{GateId, GateType, Network};
use rapids_sim::Simulator;
use rapids_sizing::CancelToken;

use crate::cnf::CnfBuilder;
use crate::dag::{Dag, Slit};
use crate::solver::{Lit, SolveResult, Solver, Var};

/// Random 64-bit signature words per input (`8` = 512 patterns).
const SIM_WORDS: usize = 8;
/// Conflict budget per sweeping query.  An over-budget pair is never queried
/// again: sound, just less sharing for the miter solve.
const SWEEP_CONFLICT_BUDGET: u64 = 2_000;
/// Cap on sweeping passes; a pass that refutes nothing ends sweeping sooner.
const MAX_SWEEP_PASSES: usize = 16;

/// Settings for [`check_equivalence`].
#[derive(Debug, Clone)]
pub struct CecConfig {
    /// Seed for the signature patterns that guide SAT sweeping.
    pub seed: u64,
    /// Cooperative cancellation, polled inside the solver (about every
    /// 1024 conflicts).  Cancellation yields [`CecResult::Aborted`].
    pub cancel: Option<CancelToken>,
}

impl Default for CecConfig {
    fn default() -> Self {
        CecConfig { seed: 0xCEC, cancel: None }
    }
}

/// A concrete input vector on which the two networks disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// One value per primary input, in input order.
    pub inputs: Vec<bool>,
    /// Index of the first differing output port.
    pub output_index: usize,
    /// Value network `a` produces at that output.
    pub output_a: bool,
    /// Value network `b` produces at that output.
    pub output_b: bool,
}

impl Counterexample {
    /// The input vector as a `0`/`1` string, in input order.
    pub fn input_bits(&self) -> String {
        self.inputs.iter().map(|&b| if b { '1' } else { '0' }).collect()
    }
}

/// Verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// UNSAT miter: the networks agree on *every* input (a proof, not a
    /// sample).
    EquivalentProven,
    /// SAT miter: a concrete disagreeing input, re-confirmed by simulating
    /// both networks.
    NotEquivalent(Counterexample),
    /// The interfaces cannot be compared (differing input/output counts).
    InterfaceMismatch {
        /// `(a, b)` primary-input counts.
        inputs: (usize, usize),
        /// `(a, b)` output-port counts.
        outputs: (usize, usize),
    },
    /// Undecided: cancelled.
    Aborted(String),
}

impl CecResult {
    /// Whether this verdict proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecResult::EquivalentProven)
    }
}

/// Work counters for one equivalence check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CecStats {
    /// Nodes in the shared structural DAG (constant and inputs included).
    pub dag_nodes: usize,
    /// Output pairs discharged structurally (identical references).
    pub structural_matches: usize,
    /// Output pairs that needed the solver.
    pub solved_pairs: usize,
    /// SAT variables allocated.
    pub vars: usize,
    /// Clauses emitted through the Tseitin builder.
    pub clauses: u64,
    /// Sweeping: candidate pairs queried.
    pub sweep_candidates: u64,
    /// Sweeping: pairs proven equal (equality clauses added).
    pub sweep_proven: u64,
    /// Sweeping: pairs refuted by a solver model (each splits the
    /// candidate classes).
    pub sweep_refuted: u64,
    /// Sweeping: pairs that exhausted the conflict budget (never retried).
    pub sweep_skipped: u64,
    /// Total solver conflicts across sweeping and the miter solve.
    pub conflicts: u64,
    /// Total solver decisions.
    pub decisions: u64,
    /// Total solver propagations.
    pub propagations: u64,
    /// Total solver restarts.
    pub restarts: u64,
}

/// Checks `a` against `b`; see the module docs for the pipeline.
pub fn check_equivalence(a: &Network, b: &Network, config: &CecConfig) -> CecResult {
    check_equivalence_with_stats(a, b, config).0
}

/// [`check_equivalence`], also returning work counters.
pub fn check_equivalence_with_stats(
    a: &Network,
    b: &Network,
    config: &CecConfig,
) -> (CecResult, CecStats) {
    let mut stats = CecStats::default();
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return (
            CecResult::InterfaceMismatch {
                inputs: (a.inputs().len(), b.inputs().len()),
                outputs: (a.outputs().len(), b.outputs().len()),
            },
            stats,
        );
    }
    let result = prove(a, b, config, &mut stats);
    publish(&stats);
    (result, stats)
}

/// Feeds one check's counters to the global registry.  Every check past
/// the interface check passes through here exactly once, so this is the
/// one place the registry is fed.
fn publish(stats: &CecStats) {
    let registry = rapids_obs::global();
    for (name, value) in [
        ("cec.structural_matches", stats.structural_matches as u64),
        ("cec.solved_pairs", stats.solved_pairs as u64),
        ("cec.conflicts", stats.conflicts),
        ("cec.decisions", stats.decisions),
        ("cec.propagations", stats.propagations),
        ("cec.restarts", stats.restarts),
        ("cec.sweep_candidates", stats.sweep_candidates),
        ("cec.sweep_proven", stats.sweep_proven),
        ("cec.sweep_refuted", stats.sweep_refuted),
    ] {
        registry.counter(name).add(value);
    }
}

/// Steps 2–5 of the module docs, for two networks with matching
/// interfaces.
fn prove(a: &Network, b: &Network, config: &CecConfig, stats: &mut CecStats) -> CecResult {
    // Fold both networks into the shared structural DAG.
    let mut dag = Dag::new(a.inputs().len());
    let (mapped_a, gates_a) = dag.map_network(a);
    let (mapped_b, gates_b) = dag.map_network(b);
    stats.dag_nodes = dag.len();

    let differing: Vec<usize> = (0..mapped_a.outputs.len())
        .filter(|&i| mapped_a.outputs[i] != mapped_b.outputs[i])
        .collect();
    stats.structural_matches = mapped_a.outputs.len() - differing.len();
    stats.solved_pairs = differing.len();
    if differing.is_empty() {
        return CecResult::EquivalentProven;
    }

    // Mark the DAG cone of every differing output pair; only those gates
    // are encoded.
    let mut needed = vec![false; dag.len()];
    let mut dfs: Vec<u32> = Vec::new();
    for &i in &differing {
        for s in [mapped_a.outputs[i], mapped_b.outputs[i]] {
            if !s.is_const() {
                dfs.push(s.node());
            }
        }
    }
    while let Some(n) = dfs.pop() {
        if std::mem::replace(&mut needed[n as usize], true) {
            continue;
        }
        match dag.node(n) {
            crate::dag::NodeFn::And(ins) | crate::dag::NodeFn::Xor(ins) => {
                for l in ins.iter() {
                    if !l.is_const() {
                        dfs.push(l.node());
                    }
                }
            }
            _ => {}
        }
    }

    // Solver setup: var 0 is the constant, then one var per DAG input.
    let mut solver = Solver::new();
    let const_var = solver.new_var();
    solver.add_clause(&[Lit::pos(const_var)]);
    let mut node_var: Vec<Option<Var>> = vec![None; dag.len()];
    let mut input_vars: Vec<Var> = Vec::with_capacity(dag.num_inputs());
    for i in 0..dag.num_inputs() {
        let v = solver.new_var();
        node_var[dag.input(i).node() as usize] = Some(v);
        input_vars.push(v);
    }

    // Tseitin-encode the needed cones, one clause schema per gate kind.
    let encode_span = rapids_obs::span("cec.encode");
    let mut clauses = 0u64;
    for net in [a, b] {
        let gate_map = if std::ptr::eq(net, a) { &gates_a } else { &gates_b };
        let order = topological_order(net).expect("CEC requires an acyclic network");
        let mut builder = CnfBuilder::new(&mut solver);
        for &g in &order {
            let slit = gate_map[g.index()];
            if slit.is_const() || !needed[slit.node() as usize] {
                continue;
            }
            let gate = net.gate(g);
            if matches!(
                gate.gtype,
                GateType::Input
                    | GateType::Buf
                    | GateType::Inv
                    | GateType::Const0
                    | GateType::Const1
            ) {
                continue; // the reference collapses onto an existing node
            }
            if node_var[slit.node() as usize].is_some() {
                continue; // structurally shared with an already-encoded gate
            }
            encode_gate(&mut builder, &mut node_var, const_var, net, gate_map, g);
        }
        clauses += builder.clauses;
    }
    drop(encode_span);

    let cancel = config.cancel.clone();
    let mut interrupted = move || cancel.as_ref().is_some_and(CancelToken::is_cancelled);

    // Signature-guided SAT sweeping over the encoded cone.
    let sweep_span = rapids_obs::span("cec.sweep");
    sweep(&mut solver, &dag, &node_var, config.seed, stats, &mut interrupted);
    drop(sweep_span);
    if interrupted() {
        stats_from_solver(stats, &solver, clauses);
        return CecResult::Aborted("cancelled during SAT sweeping".into());
    }

    // The miter: dᵢ ↔ aᵢ ⊕ bᵢ for every remaining pair, and some dᵢ holds.
    let mut miter_lits: Vec<Lit> = Vec::with_capacity(differing.len());
    {
        let mut builder = CnfBuilder::new(&mut solver);
        for &i in &differing {
            let la = lit_of(&node_var, const_var, mapped_a.outputs[i]);
            let lb = lit_of(&node_var, const_var, mapped_b.outputs[i]);
            let d = Lit::pos(builder.solver_mut().new_var());
            builder.gate_clauses(d, GateType::Xor, &[la, lb]);
            miter_lits.push(d);
        }
        clauses += builder.clauses;
    }
    solver.add_clause(&miter_lits);

    let solve_span = rapids_obs::span("cec.solve");
    let verdict = solver.solve_limited(&[], None, &mut interrupted);
    drop(solve_span);
    stats_from_solver(stats, &solver, clauses);
    match verdict {
        SolveResult::Unsat => CecResult::EquivalentProven,
        SolveResult::Unknown => CecResult::Aborted("miter solve undecided: cancelled".into()),
        SolveResult::Sat => {
            let inputs: Vec<bool> = input_vars.iter().map(|&v| solver.model_value(v)).collect();
            let out_a = Simulator::new(a).simulate_bools(a, &inputs);
            let out_b = Simulator::new(b).simulate_bools(b, &inputs);
            let output_index = out_a
                .iter()
                .zip(&out_b)
                .position(|(x, y)| x != y)
                .expect("SAT miter model must disagree under simulation");
            let cex = Counterexample {
                inputs,
                output_index,
                output_a: out_a[output_index],
                output_b: out_b[output_index],
            };
            CecResult::NotEquivalent(cex)
        }
    }
}

fn stats_from_solver(stats: &mut CecStats, solver: &Solver, clauses: u64) {
    stats.vars = solver.num_vars();
    stats.clauses = clauses;
    stats.conflicts = solver.stats.conflicts;
    stats.decisions = solver.stats.decisions;
    stats.propagations = solver.stats.propagations;
    stats.restarts = solver.stats.restarts;
}

/// Tseitin-encodes logic gate `root`, whose node has no variable yet.
///
/// The needed cone follows DAG fan-ins, but a gate still reads its network
/// fan-ins, and some of those are no DAG fan-in of its node: the members of
/// a spliced tree ([`Dag::map_network`]), and an operand pair `x, ¬x` that
/// [`Dag::mk_xor`] cancels.  A fan-in without a variable is therefore
/// encoded first, depth first, through the gate that defines it; when every
/// fan-in already has a variable, this is exactly the in-order encoding of
/// `root` alone.
fn encode_gate(
    builder: &mut CnfBuilder,
    node_var: &mut [Option<Var>],
    const_var: Var,
    net: &Network,
    gate_map: &[Slit],
    root: GateId,
) {
    let mut stack = vec![root];
    while let Some(&g) = stack.last() {
        let gate = net.gate(g);
        let missing = gate.fanins.iter().copied().find(|f| {
            let s = gate_map[f.index()];
            !s.is_const() && node_var[s.node() as usize].is_none()
        });
        if let Some(mut f) = missing {
            // BUF/INV share their driver's node: descend to the gate that
            // defines it.
            while matches!(net.gate(f).gtype, GateType::Buf | GateType::Inv) {
                f = net.gate(f).fanins[0];
            }
            stack.push(f);
            continue;
        }
        stack.pop();
        let slit = gate_map[g.index()];
        if node_var[slit.node() as usize].is_some() {
            continue; // shared with a fan-in encoded on demand
        }
        // Reserve the variable first so `lit_of` sees it.
        let v = builder.solver_mut().new_var();
        node_var[slit.node() as usize] = Some(v);
        let out = lit_of(node_var, const_var, slit);
        let fanins: Vec<Lit> =
            gate.fanins.iter().map(|f| lit_of(node_var, const_var, gate_map[f.index()])).collect();
        builder.gate_clauses(out, gate.gtype, &fanins);
    }
}

/// The solver literal of a canonical reference.
fn lit_of(node_var: &[Option<Var>], const_var: Var, s: Slit) -> Lit {
    if s.is_const() {
        Lit::new(const_var, s == Slit::FALSE)
    } else {
        let v = node_var[s.node() as usize].expect("fan-in encoded before use");
        Lit::new(v, s.is_complement())
    }
}

/// Signature-guided SAT sweeping, bottom-up.
///
/// Candidate classes start as the groups of equal signatures under the
/// seeded patterns, a node whose first pattern is true joining complemented
/// (its `phase`), so `x` and `¬x` share a class.  Every encoded node, in
/// ascending DAG id and so after its fan-ins, is queried against the
/// smallest unmerged member of its class.  A proof adds the equality
/// clauses; a refuting model splits every class at once
/// ([`Classes::split`]); an over-budget pair is never queried again.
fn sweep(
    solver: &mut Solver,
    dag: &Dag,
    node_var: &[Option<Var>],
    seed: u64,
    stats: &mut CecStats,
    interrupted: &mut dyn FnMut() -> bool,
) {
    let encoded: Vec<u32> = (0..dag.len() as u32)
        .filter(|&n| node_var[n as usize].is_some() && !dag.input_node(n))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let patterns: Vec<[u64; SIM_WORDS]> =
        (0..dag.num_inputs()).map(|_| std::array::from_fn(|_| rng.gen::<u64>())).collect();
    let words: Vec<Vec<u64>> = (0..SIM_WORDS)
        .map(|w| dag.simulate_words(&patterns.iter().map(|p| p[w]).collect::<Vec<u64>>()))
        .collect();

    let mut classes =
        Classes { of: vec![0; dag.len()], phase: vec![false; dag.len()], min: Vec::new() };
    let mut by_signature: HashMap<[u64; SIM_WORDS], u32> = HashMap::new();
    for &n in &encoded {
        let phase = words[0][n as usize] & 1 == 1;
        let flip = if phase { !0 } else { 0 };
        let signature = std::array::from_fn(|w| words[w][n as usize] ^ flip);
        let class = *by_signature.entry(signature).or_insert_with(|| classes.open(n));
        classes.of[n as usize] = class;
        classes.phase[n as usize] = phase;
    }

    // `merged[n]`: this node is already proven equal to an earlier one.
    let mut merged = vec![false; dag.len()];
    let mut exhausted: HashSet<(u32, u32)> = HashSet::new();
    for _ in 0..MAX_SWEEP_PASSES {
        let mut refuted = false;
        for &n in &encoded {
            let leader = classes.min[classes.of[n as usize] as usize];
            if merged[n as usize] || leader == n || exhausted.contains(&(leader, n)) {
                continue;
            }
            if interrupted() {
                return;
            }
            stats.sweep_candidates += 1;
            let la = Lit::pos(node_var[leader as usize].expect("swept nodes are encoded"));
            let lb = Lit::new(
                node_var[n as usize].expect("swept nodes are encoded"),
                classes.phase[leader as usize] != classes.phase[n as usize],
            );
            // sel → (la ≠ lb); ask whether they can differ.
            let sel = Lit::pos(solver.new_var());
            solver.add_clause(&[!sel, la, lb]);
            solver.add_clause(&[!sel, !la, !lb]);
            let r = solver.solve_limited(&[sel], Some(SWEEP_CONFLICT_BUDGET), interrupted);
            solver.add_clause(&[!sel]);
            match r {
                SolveResult::Unsat => {
                    stats.sweep_proven += 1;
                    solver.add_clause(&[!la, lb]);
                    solver.add_clause(&[la, !lb]);
                    merged[n as usize] = true;
                }
                SolveResult::Sat => {
                    stats.sweep_refuted += 1;
                    refuted = true;
                    classes.split(&encoded, &merged, |m| {
                        solver.model_value(node_var[m as usize].expect("swept nodes are encoded"))
                    });
                }
                SolveResult::Unknown => {
                    stats.sweep_skipped += 1;
                    exhausted.insert((leader, n));
                }
            }
        }
        if !refuted {
            break;
        }
    }
}

/// Candidate equivalence classes of the swept nodes.
///
/// A class's smallest member is never merged: merges only go to the
/// smallest member, and a split moves only members that disagree with it.
struct Classes {
    /// Class of each DAG node.
    of: Vec<u32>,
    /// Whether a node sits in its class complemented.
    phase: Vec<bool>,
    /// Smallest member of each class.
    min: Vec<u32>,
}

impl Classes {
    /// Opens a class whose smallest member is `n`, returning its id.
    fn open(&mut self, n: u32) -> u32 {
        self.min.push(n);
        (self.min.len() - 1) as u32
    }

    /// Splits every class by the value its unmerged members take in a
    /// model, read through `value`.
    ///
    /// The Tseitin clauses fix each node variable to the node's function of
    /// the inputs, so this is the same as simulating the model's input
    /// vector.  In each class, the members whose phase-adjusted value
    /// differs from the smallest member's move to one new class, whose
    /// smallest member is the first of them in ascending order.
    fn split(&mut self, encoded: &[u32], merged: &[bool], value: impl Fn(u32) -> bool) {
        // Per class: the smallest member's value, and the dissenters' class.
        let mut first: Vec<(bool, Option<u32>)> = vec![(false, None); self.min.len()];
        for &n in encoded {
            if merged[n as usize] {
                continue;
            }
            let c = self.of[n as usize] as usize;
            let v = value(n) != self.phase[n as usize];
            if self.min[c] == n {
                first[c].0 = v;
            } else if v != first[c].0 {
                let to = *first[c].1.get_or_insert_with(|| self.open(n));
                self.of[n as usize] = to;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::NetworkBuilder;

    fn demorgan_pair() -> (Network, Network) {
        let a = NetworkBuilder::new("a")
            .input("x")
            .input("y")
            .input("z")
            .gate("u", GateType::Nand, &["x", "y"])
            .gate("v", GateType::Xor, &["u", "z"])
            .output("v")
            .finish()
            .unwrap();
        let b = NetworkBuilder::new("b")
            .input("x")
            .input("y")
            .input("z")
            .gate("nx", GateType::Inv, &["x"])
            .gate("ny", GateType::Inv, &["y"])
            .gate("u", GateType::Or, &["nx", "ny"])
            .gate("v", GateType::Xnor, &["u", "z"])
            .gate("w", GateType::Inv, &["v"])
            .output("w")
            .finish()
            .unwrap();
        (a, b)
    }

    #[test]
    fn demorgan_rewrite_is_proven_equivalent() {
        let (a, b) = demorgan_pair();
        let (r, stats) = check_equivalence_with_stats(&a, &b, &CecConfig::default());
        assert_eq!(r, CecResult::EquivalentProven);
        // XNOR+INV folds back onto the same XOR node: discharged structurally.
        assert_eq!(stats.structural_matches, 1);
        assert_eq!(stats.solved_pairs, 0);
    }

    /// Other tests only add to the global counters, so a check moves each
    /// counter it feeds by at least its own count.
    #[test]
    fn every_check_feeds_the_registry() {
        let read = |name: &str| rapids_obs::global().counter(name).get();
        let (a, b) = demorgan_pair();
        let before = read("cec.structural_matches");
        check_equivalence(&a, &b, &CecConfig::default());
        assert!(read("cec.structural_matches") - before >= 1, "structural verdict not counted");

        let g = b.find_by_name("u").unwrap();
        let mut corrupted = b.clone();
        corrupted.set_gate_type(g, GateType::And).unwrap();
        let before = read("cec.solved_pairs");
        check_equivalence(&a, &corrupted, &CecConfig::default());
        assert!(read("cec.solved_pairs") - before >= 1, "solved pair not counted");
    }

    #[test]
    fn single_gate_corruption_yields_confirmed_counterexample() {
        let (a, mut b) = demorgan_pair();
        // Corrupt: flip the OR to an AND.
        let g = b.find_by_name("u").unwrap();
        b.set_gate_type(g, GateType::And).unwrap();
        let r = check_equivalence(&a, &b, &CecConfig::default());
        let cex = match r {
            CecResult::NotEquivalent(cex) => cex,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        assert_eq!(cex.inputs.len(), 3);
        assert_eq!(cex.output_index, 0);
        assert_ne!(cex.output_a, cex.output_b);
        // The counterexample must replay on the simulator.
        let sa = Simulator::new(&a).simulate_bools(&a, &cex.inputs);
        let sb = Simulator::new(&b).simulate_bools(&b, &cex.inputs);
        assert_ne!(sa[0], sb[0]);
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let (a, _) = demorgan_pair();
        let c = NetworkBuilder::new("c")
            .input("x")
            .gate("g", GateType::Inv, &["x"])
            .output("g")
            .finish()
            .unwrap();
        match check_equivalence(&a, &c, &CecConfig::default()) {
            CecResult::InterfaceMismatch { inputs, outputs } => {
                assert_eq!(inputs, (3, 1));
                assert_eq!(outputs, (1, 1));
            }
            other => panic!("expected interface mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_check_aborts() {
        let (a, b) = demorgan_pair();
        let token = CancelToken::new();
        token.cancel();
        let cfg = CecConfig { cancel: Some(token), ..CecConfig::default() };
        // Even cancelled, a structural proof needs no solver at all — so
        // corrupt one side to force solving.
        let mut b = b;
        let g = b.find_by_name("u").unwrap();
        b.set_gate_type(g, GateType::And).unwrap();
        match check_equivalence(&a, &b, &cfg) {
            CecResult::Aborted(_) | CecResult::NotEquivalent(_) => {}
            other => panic!("expected abort or fast answer, got {other:?}"),
        }
    }

    #[test]
    fn constant_outputs_compare() {
        let a = NetworkBuilder::new("a")
            .input("x")
            .gate("g", GateType::Xor, &["x", "x"])
            .output("g")
            .finish()
            .unwrap();
        let b = NetworkBuilder::new("b")
            .input("x")
            .constant("zero", false)
            .output("zero")
            .finish()
            .unwrap();
        assert_eq!(check_equivalence(&a, &b, &CecConfig::default()), CecResult::EquivalentProven);
    }
}
