//! The bit-parallel simulator: evaluates every gate of a network for 64
//! patterns at a time.

use rapids_netlist::{GateId, GateType, Network};

use crate::vectors::PatternSet;

/// A compiled simulation order for a network.
///
/// The simulator snapshots the topological order at construction; if the
/// network is structurally edited (gates added/removed), build a new
/// `Simulator`.  Pin swaps and type changes that keep the same gates are
/// fine because fan-ins are re-read at simulation time.
#[derive(Debug, Clone)]
pub struct Simulator {
    order: Vec<GateId>,
    slot_count: usize,
}

impl Simulator {
    /// Compiles a simulation order for `network`.
    ///
    /// # Panics
    ///
    /// Panics if the network is cyclic.
    pub fn new(network: &Network) -> Self {
        let order = rapids_netlist::topo::topological_order(network)
            .expect("cannot simulate a cyclic network");
        Simulator { order, slot_count: network.gate_count() }
    }

    /// Simulates one word (64 patterns) given one `u64` per primary input in
    /// declaration order, and returns the value word of every gate slot.
    pub fn simulate_word(&self, network: &Network, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            network.inputs().len(),
            "one input word per primary input required"
        );
        let mut values = vec![0u64; self.slot_count.max(network.gate_count())];
        for (i, &pi) in network.inputs().iter().enumerate() {
            values[pi.index()] = input_words[i];
        }
        let mut fanin_buffer: Vec<u64> = Vec::with_capacity(8);
        for &g in &self.order {
            let gate = network.gate(g);
            match gate.gtype {
                GateType::Input => {}
                t => {
                    fanin_buffer.clear();
                    fanin_buffer.extend(gate.fanins.iter().map(|f| values[f.index()]));
                    values[g.index()] = t.eval_word(&fanin_buffer);
                }
            }
        }
        values
    }

    /// Simulates a whole [`PatternSet`] and returns, for every gate slot, the
    /// vector of value words (`result[gate][word]`).
    pub fn simulate_patterns(&self, network: &Network, patterns: &PatternSet) -> Vec<Vec<u64>> {
        let word_count = patterns.word_count().max(1);
        let mut result = vec![vec![0u64; word_count]; network.gate_count()];
        for w in 0..word_count {
            let input_words: Vec<u64> = (0..network.inputs().len())
                .map(|i| patterns.words.get(i).map_or(0, |v| v[w]))
                .collect();
            let values = self.simulate_word(network, &input_words);
            for (slot, row) in result.iter_mut().enumerate() {
                row[w] = values[slot];
            }
        }
        result
    }

    /// Convenience single-pattern simulation with plain booleans; returns the
    /// primary-output values in declaration order.
    pub fn simulate_bools(&self, network: &Network, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let values = self.simulate_word(network, &words);
        network.outputs().iter().map(|o| values[o.driver.index()] & 1 == 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::{exhaustive_words, random_words};
    use rapids_netlist::NetworkBuilder;

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
    fn full_adder_all_patterns() {
        let n = full_adder();
        let sim = Simulator::new(&n);
        for bits in 0..8u32 {
            let a = (bits & 1) != 0;
            let b = (bits & 2) != 0;
            let c = (bits & 4) != 0;
            let out = sim.simulate_bools(&n, &[a, b, c]);
            let total = a as u32 + b as u32 + c as u32;
            assert_eq!(out[0], total % 2 == 1, "sum mismatch at {bits}");
            assert_eq!(out[1], total >= 2, "cout mismatch at {bits}");
        }
    }

    #[test]
    fn word_simulation_matches_bool_simulation() {
        let n = full_adder();
        let sim = Simulator::new(&n);
        let patterns = exhaustive_words(3);
        let table = sim.simulate_patterns(&n, &patterns);
        for pat in 0..patterns.pattern_count {
            let bits: Vec<bool> = (0..3).map(|i| patterns.bit(i, pat)).collect();
            let expect = sim.simulate_bools(&n, &bits);
            for (oi, port) in n.outputs().iter().enumerate() {
                let word = table[port.driver.index()][pat / 64];
                let got = (word >> (pat % 64)) & 1 == 1;
                assert_eq!(got, expect[oi]);
            }
        }
    }

    #[test]
    fn random_patterns_have_right_shape() {
        let n = full_adder();
        let sim = Simulator::new(&n);
        let patterns = random_words(n.inputs().len(), 512, 3);
        let table = sim.simulate_patterns(&n, &patterns);
        assert_eq!(table.len(), n.gate_count());
        assert_eq!(table[0].len(), patterns.word_count());
    }

    #[test]
    #[should_panic]
    fn wrong_input_count_panics() {
        let n = full_adder();
        let sim = Simulator::new(&n);
        let _ = sim.simulate_word(&n, &[0, 0]);
    }

    #[test]
    fn constants_simulate() {
        let mut b = NetworkBuilder::new("c");
        b.input("a");
        b.constant("one", true);
        b.gate("f", GateType::Xor, &["a", "one"]);
        b.output("f");
        let n = b.finish().unwrap();
        let sim = Simulator::new(&n);
        assert_eq!(sim.simulate_bools(&n, &[false]), vec![true]);
        assert_eq!(sim.simulate_bools(&n, &[true]), vec![false]);
    }
}
