//! Ripple-carry adders: the canonical "long critical path" arithmetic
//! circuits used to exercise timing optimization.

use rapids_netlist::{GateType, Network, NetworkBuilder};

/// Builds an `n`-bit ripple-carry adder (`2n + 1` inputs, `n + 1` outputs).
///
/// Each bit is a textbook full adder: two XORs for the sum, two ANDs and an
/// OR for the carry.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ripple_carry_adder(bits: usize) -> Network {
    assert!(bits > 0, "adder width must be positive");
    let mut b = NetworkBuilder::new(format!("rca{bits}"));
    b.input("cin");
    for i in 0..bits {
        b.input(format!("a{i}"));
        b.input(format!("b{i}"));
    }
    let mut carry = "cin".to_string();
    for i in 0..bits {
        let a = format!("a{i}");
        let bb = format!("b{i}");
        let p = format!("p{i}");
        let g = format!("g{i}");
        let t = format!("t{i}");
        let s = format!("sum{i}");
        let c = format!("c{i}");
        b.gate(&p, GateType::Xor, &[&a, &bb]);
        b.gate(&g, GateType::And, &[&a, &bb]);
        b.gate(&s, GateType::Xor, &[&p, &carry]);
        b.gate(&t, GateType::And, &[&p, &carry]);
        b.gate(&c, GateType::Or, &[&g, &t]);
        b.output(&s);
        carry = c;
    }
    b.output(&carry);
    b.finish().expect("generated adder is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_sim::Simulator;

    fn add_via_sim(n: &Network, bits: usize, a: u64, b: u64, cin: bool) -> u64 {
        let sim = Simulator::new(n);
        // Inputs were declared as cin, a0, b0, a1, b1, ...
        let mut inputs = vec![cin];
        for i in 0..bits {
            inputs.push((a >> i) & 1 == 1);
            inputs.push((b >> i) & 1 == 1);
        }
        let outs = sim.simulate_bools(n, &inputs);
        // Outputs: sum0..sum{bits-1}, cout.
        let mut value = 0u64;
        for (i, &bit) in outs.iter().enumerate() {
            if bit {
                value |= 1 << i;
            }
        }
        value
    }

    #[test]
    fn ripple_carry_adds_correctly() {
        let bits = 6;
        let n = ripple_carry_adder(bits);
        for (a, b, c) in
            [(0u64, 0u64, false), (13, 21, false), (63, 1, false), (33, 30, true), (63, 63, true)]
        {
            let got = add_via_sim(&n, bits, a, b, c);
            let expect = a + b + c as u64;
            assert_eq!(got, expect, "{a}+{b}+{c}");
        }
    }

    #[test]
    fn sizes_scale_with_width() {
        assert!(
            ripple_carry_adder(16).logic_gate_count() > ripple_carry_adder(4).logic_gate_count()
        );
        assert_eq!(ripple_carry_adder(4).logic_gate_count(), 20);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = ripple_carry_adder(0);
    }
}
