//! Direct backward implication (§2 of the paper).
//!
//! Given a logic value at the out-pin of a gate, backward implication infers
//! the values of its in-pins when that is possible:
//!
//! * an AND-family gate whose (non-inverted) output is 1 forces every input
//!   to 1,
//! * an OR-family gate whose (non-inverted) output is 0 forces every input
//!   to 0,
//! * inverters and buffers always propagate,
//! * XOR-family gates never allow backward inference.
//!
//! These are the only facts the supergate extractor needs; the full
//! forward/backward implication engine of an ATPG tool is not required
//! (the paper: *"Our algorithm does not use ATPG"*).

use rapids_netlist::{BaseFunction, GateType, Logic};

/// Result of attempting direct backward implication through one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardImplication {
    /// All in-pins are forced to the given value.
    AllInputs(Logic),
    /// No in-pin value can be inferred.
    Unknown,
}

/// Attempts direct backward implication through a gate of type `gtype` whose
/// out-pin carries `output`.
///
/// For the inverted forms (NAND/NOR/INV) the output inversion is taken into
/// account before applying the AND/OR rule.
pub fn backward_implication(gtype: GateType, output: Logic) -> BackwardImplication {
    // Value of the non-inverted base function's output.
    let base_output = if gtype.output_inverted() { output.complement() } else { output };
    match gtype.base_function() {
        BaseFunction::Identity => BackwardImplication::AllInputs(base_output),
        BaseFunction::And => {
            if base_output == Logic::One {
                BackwardImplication::AllInputs(Logic::One)
            } else {
                BackwardImplication::Unknown
            }
        }
        BaseFunction::Or => {
            if base_output == Logic::Zero {
                BackwardImplication::AllInputs(Logic::Zero)
            } else {
                BackwardImplication::Unknown
            }
        }
        BaseFunction::Xor | BaseFunction::Source => BackwardImplication::Unknown,
    }
}

/// The output value of `gtype` that *enables* backward implication (i.e. the
/// stimulus the supergate extractor applies at a root), if one exists.
///
/// * AND → 1, NAND → 0, OR → 0, NOR → 1,
/// * BUF/INV → any value works (1 is returned by convention),
/// * XOR family and sources → `None`.
pub fn enabling_output_value(gtype: GateType) -> Option<Logic> {
    match gtype.base_function() {
        BaseFunction::Identity => Some(Logic::One),
        BaseFunction::And => Some(if gtype.output_inverted() { Logic::Zero } else { Logic::One }),
        BaseFunction::Or => Some(if gtype.output_inverted() { Logic::One } else { Logic::Zero }),
        BaseFunction::Xor | BaseFunction::Source => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_family_rules() {
        assert_eq!(
            backward_implication(GateType::And, Logic::One),
            BackwardImplication::AllInputs(Logic::One)
        );
        assert_eq!(backward_implication(GateType::And, Logic::Zero), BackwardImplication::Unknown);
        // NAND output 0 means the underlying AND is 1.
        assert_eq!(
            backward_implication(GateType::Nand, Logic::Zero),
            BackwardImplication::AllInputs(Logic::One)
        );
        assert_eq!(backward_implication(GateType::Nand, Logic::One), BackwardImplication::Unknown);
    }

    #[test]
    fn or_family_rules() {
        assert_eq!(
            backward_implication(GateType::Or, Logic::Zero),
            BackwardImplication::AllInputs(Logic::Zero)
        );
        assert_eq!(backward_implication(GateType::Or, Logic::One), BackwardImplication::Unknown);
        assert_eq!(
            backward_implication(GateType::Nor, Logic::One),
            BackwardImplication::AllInputs(Logic::Zero)
        );
    }

    #[test]
    fn identity_always_propagates() {
        assert_eq!(
            backward_implication(GateType::Buf, Logic::One),
            BackwardImplication::AllInputs(Logic::One)
        );
        assert_eq!(
            backward_implication(GateType::Inv, Logic::One),
            BackwardImplication::AllInputs(Logic::Zero)
        );
        assert_eq!(
            backward_implication(GateType::Inv, Logic::Zero),
            BackwardImplication::AllInputs(Logic::One)
        );
    }

    #[test]
    fn xor_never_propagates() {
        for v in [Logic::Zero, Logic::One] {
            assert_eq!(backward_implication(GateType::Xor, v), BackwardImplication::Unknown);
            assert_eq!(backward_implication(GateType::Xnor, v), BackwardImplication::Unknown);
        }
    }

    #[test]
    fn enabling_values_match_controlling_value_theory() {
        assert_eq!(enabling_output_value(GateType::And), Some(Logic::One));
        assert_eq!(enabling_output_value(GateType::Nand), Some(Logic::Zero));
        assert_eq!(enabling_output_value(GateType::Or), Some(Logic::Zero));
        assert_eq!(enabling_output_value(GateType::Nor), Some(Logic::One));
        assert_eq!(enabling_output_value(GateType::Xor), None);
    }

    #[test]
    fn enabling_values_are_consistent_with_backward_implication() {
        // The in-pin value the enabling output implies: `ncv` of the base
        // function for the AND/OR families, the output (complemented through
        // an inverter) for BUF/INV.  The XOR family has no enabling value.
        let enabling_input = [
            (GateType::And, Logic::One),
            (GateType::Nand, Logic::One),
            (GateType::Or, Logic::Zero),
            (GateType::Nor, Logic::Zero),
            (GateType::Inv, Logic::Zero),
            (GateType::Buf, Logic::One),
        ];
        for t in GateType::LOGIC_TYPES {
            let out = enabling_output_value(t);
            match enabling_input.iter().find(|&&(u, _)| u == t) {
                Some(&(_, inp)) => assert_eq!(
                    backward_implication(t, out.expect("an enabling output value")),
                    BackwardImplication::AllInputs(inp),
                    "{t}"
                ),
                None => assert_eq!(out, None, "{t}"),
            }
        }
    }
}
