//! Simulation-based equivalence checking between two networks.
//!
//! Rewiring must preserve the primary-output functions exactly; these checks
//! are the fast (random) and exact-for-small-circuits (exhaustive) oracles
//! used by tests and by the pipeline's simulation safety net
//! (`SafetyNet::Simulation` in `rapids-flow`).

use rapids_netlist::Network;

use crate::simulator::Simulator;
use crate::vectors::{exhaustive_words, random_words, PatternSet};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// No differing output was observed over the applied patterns.
    Equivalent,
    /// A counterexample pattern was found.
    Mismatch {
        /// Index of the first differing primary output.
        output_index: usize,
        /// Index of the first differing pattern.
        pattern_index: usize,
        /// The failing input vector, one value per primary input in input
        /// order — directly comparable to a CEC counterexample.
        inputs: Vec<bool>,
        /// The differing output bit of network `a` under that vector.
        output_a: bool,
        /// The differing output bit of network `b` under that vector.
        output_b: bool,
    },
    /// The two networks have different interfaces and cannot be compared.
    InterfaceMismatch,
}

impl EquivalenceResult {
    /// Returns `true` for [`EquivalenceResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent)
    }
}

fn compare_with_patterns(a: &Network, b: &Network, patterns: &PatternSet) -> EquivalenceResult {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return EquivalenceResult::InterfaceMismatch;
    }
    let sim_a = Simulator::new(a);
    let sim_b = Simulator::new(b);
    let table_a = sim_a.simulate_patterns(a, patterns);
    let table_b = sim_b.simulate_patterns(b, patterns);
    let words = patterns.word_count();
    let valid_in_last_word = {
        let rem = patterns.pattern_count % 64;
        if rem == 0 {
            !0u64
        } else {
            (1u64 << rem) - 1
        }
    };
    for (oi, (pa, pb)) in a.outputs().iter().zip(b.outputs()).enumerate() {
        for w in 0..words {
            let mask = if w + 1 == words { valid_in_last_word } else { !0u64 };
            let wa = table_a[pa.driver.index()][w] & mask;
            let wb = table_b[pb.driver.index()][w] & mask;
            if wa != wb {
                let diff = wa ^ wb;
                let bit = diff.trailing_zeros() as usize;
                let pattern_index = w * 64 + bit;
                let inputs =
                    (0..a.inputs().len()).map(|i| patterns.bit(i, pattern_index)).collect();
                return EquivalenceResult::Mismatch {
                    output_index: oi,
                    pattern_index,
                    inputs,
                    output_a: wa >> bit & 1 == 1,
                    output_b: wb >> bit & 1 == 1,
                };
            }
        }
    }
    EquivalenceResult::Equivalent
}

/// Random-vector equivalence check with `pattern_count` patterns and a fixed
/// seed.  A mismatch is a definite non-equivalence; "equivalent" means no
/// difference was observed (probabilistic).
pub fn check_equivalence_random(
    a: &Network,
    b: &Network,
    pattern_count: usize,
    seed: u64,
) -> EquivalenceResult {
    let patterns = random_words(a.inputs().len(), pattern_count, seed);
    compare_with_patterns(a, b, &patterns)
}

/// Exhaustive equivalence check: applies all `2^n` patterns.  Exact, but only
/// usable for networks with at most 20 primary inputs.
///
/// # Panics
///
/// Panics if the networks have more than 20 primary inputs.
pub fn check_equivalence_exhaustive(a: &Network, b: &Network) -> EquivalenceResult {
    let patterns = exhaustive_words(a.inputs().len());
    compare_with_patterns(a, b, &patterns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::{GateType, NetworkBuilder, PinRef};

    fn carry_chain(name: &str) -> Network {
        let mut b = NetworkBuilder::new(name);
        b.inputs(["a0", "b0", "a1", "b1", "cin"]);
        b.gate("p0", GateType::Xor, &["a0", "b0"]);
        b.gate("g0", GateType::And, &["a0", "b0"]);
        b.gate("t0", GateType::And, &["p0", "cin"]);
        b.gate("c1", GateType::Or, &["g0", "t0"]);
        b.gate("p1", GateType::Xor, &["a1", "b1"]);
        b.gate("g1", GateType::And, &["a1", "b1"]);
        b.gate("t1", GateType::And, &["p1", "c1"]);
        b.gate("c2", GateType::Or, &["g1", "t1"]);
        b.gate("s0", GateType::Xor, &["p0", "cin"]);
        b.gate("s1", GateType::Xor, &["p1", "c1"]);
        b.output("s0");
        b.output("s1");
        b.output("c2");
        b.finish().unwrap()
    }

    #[test]
    fn identical_networks_are_equivalent() {
        let a = carry_chain("a");
        let b = carry_chain("b");
        assert!(check_equivalence_exhaustive(&a, &b).is_equivalent());
        assert!(check_equivalence_random(&a, &b, 256, 1).is_equivalent());
    }

    #[test]
    fn symmetric_swap_is_equivalent() {
        let a = carry_chain("a");
        let mut b = carry_chain("b");
        let g0 = b.find_by_name("g0").unwrap();
        b.swap_pin_drivers(PinRef::new(g0, 0), PinRef::new(g0, 1)).unwrap();
        assert!(check_equivalence_exhaustive(&a, &b).is_equivalent());
    }

    #[test]
    fn broken_rewire_is_detected() {
        let a = carry_chain("a");
        let mut b = carry_chain("b");
        // Swap one pin of g0 with a pin of p1 — not a symmetry.
        let g0 = b.find_by_name("g0").unwrap();
        let p1 = b.find_by_name("p1").unwrap();
        b.swap_pin_drivers(PinRef::new(g0, 0), PinRef::new(p1, 0)).unwrap();
        let result = check_equivalence_exhaustive(&a, &b);
        assert!(matches!(result, EquivalenceResult::Mismatch { .. }));
    }

    #[test]
    fn interface_mismatch() {
        let a = carry_chain("a");
        let mut b = NetworkBuilder::new("tiny");
        b.input("x");
        b.gate("y", GateType::Inv, &["x"]);
        b.output("y");
        let b = b.finish().unwrap();
        assert_eq!(check_equivalence_exhaustive(&a, &b), EquivalenceResult::InterfaceMismatch);
    }

    #[test]
    fn mismatch_reports_counterexample_index() {
        let mut x = NetworkBuilder::new("x");
        x.inputs(["a", "b"]);
        x.gate("f", GateType::And, &["a", "b"]);
        x.output("f");
        let x = x.finish().unwrap();
        let mut y = NetworkBuilder::new("y");
        y.inputs(["a", "b"]);
        y.gate("f", GateType::Or, &["a", "b"]);
        y.output("f");
        let y = y.finish().unwrap();
        match check_equivalence_exhaustive(&x, &y) {
            EquivalenceResult::Mismatch {
                output_index,
                pattern_index,
                inputs,
                output_a,
                output_b,
            } => {
                assert_eq!(output_index, 0);
                // AND and OR differ exactly on patterns 01 and 10.
                assert!(pattern_index == 1 || pattern_index == 2);
                // The surfaced input vector is the failing pattern itself…
                assert_eq!(inputs, vec![pattern_index == 1, pattern_index == 2]);
                // …and the output bits replay it: AND gives 0, OR gives 1.
                assert!(!output_a);
                assert!(output_b);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }
}
