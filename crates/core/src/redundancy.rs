//! Redundancy identification during supergate extraction (Fig. 1).
//!
//! When the fanout-free traversal of a supergate reaches the same external
//! driver through two different leaves, the two backward implications meet at
//! a fan-out stem:
//!
//! * **Conflicting implications** (Fig. 1a): one leaf requires the stem to be
//!   0 and the other requires it to be 1.  The supergate output can then
//!   never take its enabling value through both paths, one stem branch is
//!   untestable and the corresponding connection is redundant.
//! * **Agreeing implications** (Fig. 1b): both leaves require the same value,
//!   so one of the two connections is logically superfluous (`x·x = x`,
//!   `x+x = x`); one stem branch is stuck-at untestable and redundant.
//!
//! For XOR supergates, two leaves driven by the same signal with the same
//! path parity cancel (`x ⊕ x = 0`), which is likewise reported.
//!
//! Table 1 reports the *number* of redundancies found during extraction
//! (column 14); removal is provided for the simple same-gate duplicate case
//! and is exercised by the tests.

use rapids_netlist::{GateId, GateType, Network, PinRef};

use crate::supergate::{Extraction, PinClass, Supergate};

/// Kind of redundancy discovered at a fan-out stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyKind {
    /// Fig. 1a: the two implications conflict (driver must be 0 and 1).
    ConflictingImplication,
    /// Fig. 1b: the two implications agree (duplicate requirement).
    AgreeingImplication,
    /// Two xor-reachable pins with equal parity driven by the same signal.
    XorCancellation,
}

/// One redundancy finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redundancy {
    /// Root of the supergate in which the redundancy was found.
    pub supergate_root: GateId,
    /// The fan-out stem (external driver) reached twice.
    pub stem: GateId,
    /// First leaf pin reaching the stem.
    pub pin_a: PinRef,
    /// Second leaf pin reaching the stem.
    pub pin_b: PinRef,
    /// Classification of the finding.
    pub kind: RedundancyKind,
}

/// Scans one supergate for redundancies.
pub fn find_in_supergate(supergate: &Supergate) -> Vec<Redundancy> {
    let mut findings = Vec::new();
    let leaves = &supergate.leaves;
    for i in 0..leaves.len() {
        for j in (i + 1)..leaves.len() {
            let a = leaves[i];
            let b = leaves[j];
            if a.driver != b.driver {
                continue;
            }
            let kind = match (a.class, b.class) {
                (PinClass::AndOr { imp_value: va }, PinClass::AndOr { imp_value: vb }) => {
                    if va == vb {
                        RedundancyKind::AgreeingImplication
                    } else {
                        RedundancyKind::ConflictingImplication
                    }
                }
                (PinClass::Xor { inverted_path: pa }, PinClass::Xor { inverted_path: pb }) => {
                    if pa == pb {
                        RedundancyKind::XorCancellation
                    } else {
                        // Opposite parity: x ⊕ !x = 1, still a simplification
                        // opportunity reported as a conflict.
                        RedundancyKind::ConflictingImplication
                    }
                }
                _ => continue,
            };
            findings.push(Redundancy {
                supergate_root: supergate.root,
                stem: a.driver,
                pin_a: a.pin,
                pin_b: b.pin,
                kind,
            });
        }
    }
    findings
}

/// Scans every supergate of an extraction.
pub fn find_redundancies(extraction: &Extraction) -> Vec<Redundancy> {
    extraction.supergates().iter().flat_map(find_in_supergate).collect()
}

/// Removes an *agreeing-implication* redundancy whose two pins sit on the
/// same gate by dropping one of the duplicate fan-ins (`x·x → x`).  Returns
/// `true` if the network was modified.
///
/// Only this simple same-gate case is removed automatically; the general
/// cross-gate case requires a full redundancy-removal pass, which is outside
/// the paper's optimization loop (it only *counts* what extraction finds).
pub fn remove_same_gate_duplicate(network: &mut Network, finding: &Redundancy) -> bool {
    if finding.kind != RedundancyKind::AgreeingImplication {
        return false;
    }
    if finding.pin_a.gate != finding.pin_b.gate {
        return false;
    }
    let gate = finding.pin_a.gate;
    let gtype = network.gate(gate).gtype;
    let fanins = network.fanins(gate).to_vec();
    if fanins.len() <= 2 {
        // Dropping a pin would leave a one-input AND/OR; rewrite the gate as
        // a buffer/inverter of the surviving signal instead.
        let survivor = fanins[0];
        let replacement = if gtype.output_inverted() { GateType::Inv } else { GateType::Buf };
        let new_gate = network
            .add_gate(replacement, &[survivor], format!("red_{gate}"))
            .expect("buffer insertion is always valid");
        network.replace_all_uses(gate, new_gate).expect("replacing a live gate's uses succeeds");
        return true;
    }
    // Rebuild the gate without the duplicated pin.
    let mut kept: Vec<GateId> = Vec::with_capacity(fanins.len() - 1);
    for (idx, &driver) in fanins.iter().enumerate() {
        if idx == finding.pin_b.index {
            continue;
        }
        kept.push(driver);
    }
    let new_gate = network
        .add_gate(gtype, &kept, format!("red_{gate}"))
        .expect("reduced gate is structurally valid");
    network.replace_all_uses(gate, new_gate).expect("replacing a live gate's uses succeeds");
    true
}

/// Convenience: count redundancies of each kind.
pub fn count_by_kind(findings: &[Redundancy]) -> (usize, usize, usize) {
    let conflicting =
        findings.iter().filter(|f| f.kind == RedundancyKind::ConflictingImplication).count();
    let agreeing =
        findings.iter().filter(|f| f.kind == RedundancyKind::AgreeingImplication).count();
    let xor = findings.iter().filter(|f| f.kind == RedundancyKind::XorCancellation).count();
    (conflicting, agreeing, xor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supergate::extract_supergates;
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_sim::check_equivalence_exhaustive;

    /// Fig. 1b-style network: the stem `g` feeds the AND cone twice with the
    /// same implied value.
    fn agreeing() -> Network {
        let mut b = NetworkBuilder::new("fig1b");
        b.inputs(["x", "y", "g"]);
        b.gate("n1", GateType::And, &["g", "x"]);
        b.gate("f", GateType::And, &["n1", "g"]);
        b.gate("sink", GateType::Or, &["f", "y"]);
        b.output("sink");
        b.finish().unwrap()
    }

    /// Fig. 1a-style network: the stem `g` is required to be both 1 and 0.
    fn conflicting() -> Network {
        let mut b = NetworkBuilder::new("fig1a");
        b.inputs(["x", "g"]);
        b.gate("ng", GateType::Inv, &["g"]);
        b.gate("n1", GateType::And, &["ng", "x"]);
        b.gate("f", GateType::And, &["n1", "g"]);
        b.output("f");
        b.finish().unwrap()
    }

    #[test]
    fn agreeing_duplicate_detected() {
        let n = agreeing();
        let ex = extract_supergates(&n);
        let findings = find_redundancies(&ex);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, RedundancyKind::AgreeingImplication);
        assert_eq!(findings[0].stem, n.find_by_name("g").unwrap());
        let (c, a, x) = count_by_kind(&findings);
        assert_eq!((c, a, x), (0, 1, 0));
    }

    #[test]
    fn conflicting_duplicate_detected() {
        let n = conflicting();
        let ex = extract_supergates(&n);
        let findings = find_redundancies(&ex);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, RedundancyKind::ConflictingImplication);
        // The function f = g·x·!g is constant 0 — genuinely redundant logic.
    }

    #[test]
    fn xor_cancellation_detected() {
        let mut b = NetworkBuilder::new("xc");
        b.inputs(["a", "g"]);
        b.gate("x1", GateType::Xor, &["g", "a"]);
        b.gate("f", GateType::Xor, &["x1", "g"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        let findings = find_redundancies(&ex);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, RedundancyKind::XorCancellation);
    }

    #[test]
    fn same_gate_duplicate_removal_preserves_function() {
        // f = AND(a, a, b): removing one `a` pin keeps the function.
        let mut b = NetworkBuilder::new("dup");
        b.inputs(["a", "b"]);
        b.gate("f", GateType::And, &["a", "a", "b"]);
        b.output("f");
        let reference = b.finish().unwrap();
        let mut n = reference.clone();
        let ex = extract_supergates(&n);
        let findings = find_redundancies(&ex);
        assert_eq!(findings.len(), 1);
        assert!(remove_same_gate_duplicate(&mut n, &findings[0]));
        assert!(check_equivalence_exhaustive(&reference, &n).is_equivalent());
        let f_new = n.outputs()[0].driver;
        assert_eq!(n.fanins(f_new).len(), 2);
    }

    #[test]
    fn two_input_duplicate_becomes_buffer() {
        // f = NAND(a, a) ≡ INV(a).
        let mut b = NetworkBuilder::new("dup2");
        b.inputs(["a"]);
        b.gate("f", GateType::Nand, &["a", "a"]);
        b.output("f");
        let reference = b.finish().unwrap();
        let mut n = reference.clone();
        let ex = extract_supergates(&n);
        let findings = find_redundancies(&ex);
        assert_eq!(findings.len(), 1);
        assert!(remove_same_gate_duplicate(&mut n, &findings[0]));
        assert!(check_equivalence_exhaustive(&reference, &n).is_equivalent());
        let driver = n.outputs()[0].driver;
        assert_eq!(n.gate(driver).gtype, GateType::Inv);
    }

    #[test]
    fn cross_gate_findings_are_not_removed_automatically() {
        let n = conflicting();
        let ex = extract_supergates(&n);
        let findings = find_redundancies(&ex);
        let mut edited = n.clone();
        assert!(!remove_same_gate_duplicate(&mut edited, &findings[0]));
    }

    #[test]
    fn clean_networks_report_nothing() {
        let mut b = NetworkBuilder::new("clean");
        b.inputs(["a", "b", "c"]);
        b.gate("n1", GateType::And, &["a", "b"]);
        b.gate("f", GateType::And, &["n1", "c"]);
        b.output("f");
        let n = b.finish().unwrap();
        let ex = extract_supergates(&n);
        assert!(find_redundancies(&ex).is_empty());
    }
}
