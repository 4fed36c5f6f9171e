//! The equivalence check: encode, sweep, solve the miter.
//!
//! [`check_equivalence`] decides whether two mapped networks compute the
//! same function on every input:
//!
//! 1. **Interface check** — input/output counts must match (correspondence
//!    is by index, like the simulator's checks).
//! 2. **Structural front end** — both networks are folded into one
//!    hash-consed AND/XOR DAG ([`crate::dag`]); output pairs that map to
//!    the same reference are proven equivalent without touching the solver.
//! 3. **Tseitin encoding** — the cones of the remaining output pairs are
//!    encoded per gate kind ([`crate::cnf`]); structurally shared gates
//!    share one SAT variable across both networks.
//! 4. **SAT sweeping** — seeded bit-parallel simulation proposes internal
//!    equivalence candidates; each is queried under a selector assumption
//!    with a conflict budget, proven pairs become equality clauses, and SAT
//!    answers feed their distinguishing pattern back into the signatures.
//!    This keeps each solver query local, which is what makes deep
//!    arithmetic miters (the array multipliers) tractable.
//! 5. **Miter solve** — per remaining pair, `dᵢ ↔ aᵢ ⊕ bᵢ`, plus the clause
//!    `d₁ ∨ d₂ ∨ …`; UNSAT is a proof of equivalence, a model is a concrete
//!    counterexample input vector, re-simulated on both networks to locate
//!    the differing output (and cross-check the solver).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapids_netlist::topo::topological_order;
use rapids_netlist::{GateId, GateType, Network};
use rapids_sim::Simulator;
use rapids_sizing::CancelToken;

use crate::cnf::CnfBuilder;
use crate::dag::{Dag, Slit};
use crate::solver::{Lit, SolveResult, Solver, Var};

/// Tuning knobs for [`check_equivalence`].
#[derive(Debug, Clone)]
pub struct CecConfig {
    /// Seed for the signature patterns that guide SAT sweeping.
    pub seed: u64,
    /// Number of 64-bit random signature words (`8` = 512 patterns).
    pub sim_words: usize,
    /// Whether to run SAT sweeping before the miter solve.
    pub sweep: bool,
    /// Conflict budget per sweeping query; over-budget candidates are
    /// skipped (sound — just less sharing for the final solve).
    pub sweep_conflict_budget: u64,
    /// Optional conflict budget for the final miter solve; exhausting it
    /// yields [`CecResult::Aborted`].
    pub final_conflict_budget: Option<u64>,
    /// Cooperative cancellation, polled inside the solver (about every
    /// 1024 conflicts).  Cancellation yields [`CecResult::Aborted`].
    pub cancel: Option<CancelToken>,
}

impl Default for CecConfig {
    fn default() -> Self {
        CecConfig {
            seed: 0xCEC,
            sim_words: 8,
            sweep: true,
            sweep_conflict_budget: 2_000,
            final_conflict_budget: None,
            cancel: None,
        }
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
    /// Undecided: conflict budget exhausted or cancelled.
    Aborted(String),
}

impl CecResult {
    /// Whether this verdict proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecResult::EquivalentProven)
    }
}

/// Work counters for one equivalence check.
#[derive(Debug, Clone, Copy, Default)]
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
    /// Sweeping: pairs refuted by a solver model (signature refinement).
    pub sweep_refuted: u64,
    /// Sweeping: pairs skipped on conflict budget.
    pub sweep_skipped: u64,
    /// Total solver conflicts across sweeping and the miter solve.
    pub conflicts: u64,
    /// Total solver decisions.
    pub decisions: u64,
    /// Total solver propagations.
    pub propagations: u64,
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
        return (CecResult::EquivalentProven, stats);
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
    if config.sweep {
        let _sweep_span = rapids_obs::span("cec.sweep");
        sweep(&mut solver, &dag, &node_var, &input_vars, config, &mut stats, &mut interrupted);
        if interrupted() {
            stats_from_solver(&mut stats, &solver, clauses);
            return (CecResult::Aborted("cancelled during SAT sweeping".into()), stats);
        }
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
    let verdict = solver.solve_limited(&[], config.final_conflict_budget, &mut interrupted);
    drop(solve_span);
    stats_from_solver(&mut stats, &solver, clauses);
    match verdict {
        SolveResult::Unsat => (CecResult::EquivalentProven, stats),
        SolveResult::Unknown => {
            let why = if interrupted() { "cancelled" } else { "conflict budget exhausted" };
            (CecResult::Aborted(format!("miter solve undecided: {why}")), stats)
        }
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
            (CecResult::NotEquivalent(cex), stats)
        }
    }
}

fn stats_from_solver(stats: &mut CecStats, solver: &Solver, clauses: u64) {
    stats.vars = solver.num_vars();
    stats.clauses = clauses;
    stats.conflicts = solver.stats.conflicts;
    stats.decisions = solver.stats.decisions;
    stats.propagations = solver.stats.propagations;
    // Every check passes through here exactly once with the final solver
    // state, so this is the one place the global registry is fed.
    let registry = rapids_obs::global();
    registry.counter("cec.conflicts").add(solver.stats.conflicts);
    registry.counter("cec.decisions").add(solver.stats.decisions);
    registry.counter("cec.propagations").add(solver.stats.propagations);
    registry.counter("cec.restarts").add(solver.stats.restarts);
    registry.counter("cec.sweep_candidates").add(stats.sweep_candidates);
    registry.counter("cec.sweep_proven").add(stats.sweep_proven);
}

/// Tseitin-encodes logic gate `root`, whose node has no variable yet.
///
/// The needed cone follows DAG fan-ins, but [`Dag::mk_xor`] cancels an
/// operand pair `x, ¬x` that the gate still reads through its network
/// fan-ins.  A fan-in without a variable is therefore encoded first, depth
/// first, through the gate that defines it; when every fan-in already has
/// a variable — every cone without such a cancellation — this is exactly
/// the in-order encoding of `root` alone.
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

/// Signature-guided SAT sweeping: conjecture internal equivalences from
/// bit-parallel simulation, prove each under a selector assumption with a
/// conflict budget, and feed refuting models back as new patterns.
fn sweep(
    solver: &mut Solver,
    dag: &Dag,
    node_var: &[Option<Var>],
    input_vars: &[Var],
    config: &CecConfig,
    stats: &mut CecStats,
    interrupted: &mut dyn FnMut() -> bool,
) {
    let encoded: Vec<u32> = (0..dag.len() as u32)
        .filter(|&n| node_var[n as usize].is_some() && !dag.input_node(n))
        .collect();
    if encoded.len() < 2 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let base_words: Vec<Vec<u64>> = (0..dag.num_inputs())
        .map(|_| (0..config.sim_words.max(1)).map(|_| rng.gen::<u64>()).collect())
        .collect();
    let mut extra_patterns: Vec<Vec<bool>> = Vec::new();
    // `merged[n]`: this node is already proven equal to an earlier one.
    let mut merged = vec![false; dag.len()];

    const MAX_ROUNDS: usize = 16;
    for _ in 0..MAX_ROUNDS {
        if interrupted() {
            return;
        }
        // Signatures: seeded words plus the accumulated refuting patterns.
        let total_words = base_words[0].len() + extra_patterns.len().div_ceil(64);
        let mut sigs: Vec<Vec<u64>> = vec![Vec::new(); dag.len()];
        for w in 0..total_words {
            let input_words: Vec<u64> = (0..dag.num_inputs())
                .map(|i| {
                    if w < base_words[0].len() {
                        base_words[i][w]
                    } else {
                        let mut word = 0u64;
                        for (bit, pat) in extra_patterns
                            .iter()
                            .skip((w - base_words[0].len()) * 64)
                            .take(64)
                            .enumerate()
                        {
                            word |= u64::from(pat[i]) << bit;
                        }
                        word
                    }
                })
                .collect();
            let words = dag.simulate_words(&input_words);
            for &n in &encoded {
                sigs[n as usize].push(words[n as usize]);
            }
        }
        // Group by normalized signature (complement folded into a phase).
        let mut keyed: Vec<(Vec<u64>, bool, u32)> = encoded
            .iter()
            .filter(|&&n| !merged[n as usize])
            .map(|&n| {
                let sig = &sigs[n as usize];
                let phase = sig[0] & 1 == 1;
                let norm: Vec<u64> = sig.iter().map(|&w| if phase { !w } else { w }).collect();
                (norm, phase, n)
            })
            .collect();
        keyed.sort();
        let mut refuted_this_round = false;
        let mut i = 0;
        while i < keyed.len() {
            let mut j = i + 1;
            while j < keyed.len() && keyed[j].0 == keyed[i].0 {
                j += 1;
            }
            let (_, leader_phase, leader) = (&keyed[i].0, keyed[i].1, keyed[i].2);
            for entry in &keyed[i + 1..j] {
                if interrupted() {
                    return;
                }
                let (phase, member) = (entry.1, entry.2);
                stats.sweep_candidates += 1;
                let la = Lit::pos(node_var[leader as usize].unwrap());
                let lb = Lit::new(node_var[member as usize].unwrap(), leader_phase != phase);
                // sel → (la ≠ lb); ask whether they can differ.
                let sel = Lit::pos(solver.new_var());
                solver.add_clause(&[!sel, la, lb]);
                solver.add_clause(&[!sel, !la, !lb]);
                let r =
                    solver.solve_limited(&[sel], Some(config.sweep_conflict_budget), interrupted);
                solver.add_clause(&[!sel]);
                match r {
                    SolveResult::Unsat => {
                        stats.sweep_proven += 1;
                        solver.add_clause(&[!la, lb]);
                        solver.add_clause(&[la, !lb]);
                        merged[member as usize] = true;
                    }
                    SolveResult::Sat => {
                        stats.sweep_refuted += 1;
                        refuted_this_round = true;
                        extra_patterns
                            .push(input_vars.iter().map(|&v| solver.model_value(v)).collect());
                    }
                    SolveResult::Unknown => {
                        stats.sweep_skipped += 1;
                    }
                }
            }
            i = j;
        }
        if !refuted_this_round {
            break;
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
