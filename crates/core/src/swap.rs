//! Applying and undoing rewiring moves (§4.1).
//!
//! A swap exchanges the drivers of two symmetric in-pins.  Non-inverting
//! swaps leave the placement completely untouched; inverting swaps insert an
//! inverter on each of the two pins (the only placement perturbation the
//! `gsg` optimizer can make, as the paper notes).

use rapids_netlist::{GateId, NetlistError, Network, PinRef};

/// Whether a swap needs inverters (ES) or not (NES).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapKind {
    /// Plain driver exchange.
    NonInverting,
    /// Driver exchange plus an inverter on each pin.
    Inverting,
}

/// A candidate rewiring move between two pins of the same supergate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapCandidate {
    /// Root of the supergate that justifies the swap.
    pub supergate_root: GateId,
    /// First pin.
    pub pin_a: PinRef,
    /// Second pin.
    pub pin_b: PinRef,
    /// Swap flavour.
    pub kind: SwapKind,
}

/// Record of an applied swap, sufficient to undo it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedSwap {
    candidate: SwapCandidate,
    inverters: Vec<GateId>,
}

impl AppliedSwap {
    /// The candidate that was applied.
    pub fn candidate(&self) -> &SwapCandidate {
        &self.candidate
    }

    /// Inverters inserted by an inverting swap (empty for non-inverting).
    pub fn inserted_inverters(&self) -> &[GateId] {
        &self.inverters
    }
}

/// Applies a swap candidate to the network.
///
/// Precondition: both pins are leaves of one supergate of the current
/// network, as [`swap_candidates_in`](crate::symmetry::swap_candidates_in)
/// returns them.  The pins are then rewired without a cycle check, because
/// such a swap cannot close a cycle.  Every non-root member has exactly one
/// sink pin, inside the supergate, and drives no output port, so every path
/// leaving a member passes the root.  A simple cycle closed by re-driving
/// leaf pins would enter the supergate once, through a new edge `d → m`,
/// and leave it once, through the root.  Its remaining part `root →* d`
/// then uses no edited edge and existed before the swap, where `d` already
/// fed a leaf and so reached the root: the old network had a cycle.  An
/// inserted ES inverter has one sink, a leaf pin, so the same argument
/// holds.  Debug builds check the precondition in O(supergate depth).
///
/// # Errors
///
/// Propagates structural errors (unknown pins) from the netlist layer; a
/// candidate that meets the precondition never fails.
pub fn apply_swap(
    network: &mut Network,
    candidate: &SwapCandidate,
) -> Result<AppliedSwap, NetlistError> {
    let da = network.pin_driver(candidate.pin_a)?;
    let db = network.pin_driver(candidate.pin_b)?;
    debug_assert!(
        is_leaf_pair(network, candidate),
        "swap {candidate:?} does not pair two leaves of the supergate at its root"
    );
    // Pin a first, then pin b: the edit order fixes every fan-out list's
    // order, and with it the order in which the STA folds each net.
    network.set_pin_driver(candidate.pin_a, db)?;
    network.set_pin_driver(candidate.pin_b, da)?;
    let mut inverters = Vec::new();
    if candidate.kind == SwapKind::Inverting {
        let inv_a =
            network.insert_inverter(candidate.pin_a, format!("swapinv_{}", candidate.pin_a))?;
        let inv_b =
            network.insert_inverter(candidate.pin_b, format!("swapinv_{}", candidate.pin_b))?;
        inverters.push(inv_a);
        inverters.push(inv_b);
    }
    Ok(AppliedSwap { candidate: *candidate, inverters })
}

/// `apply_swap`'s precondition, checked in O(supergate depth): each pin's
/// gate climbs single-sink, port-free gates to the candidate's supergate
/// root, and neither pin's driver lies on those chains.
fn is_leaf_pair(network: &Network, candidate: &SwapCandidate) -> bool {
    let pins = [candidate.pin_a, candidate.pin_b];
    let mut chains = Vec::new();
    for pin in pins {
        let mut g = pin.gate;
        chains.push(g);
        while g != candidate.supergate_root {
            match network.fanouts(g) {
                [sink] if !network.drives_output(g) => g = *sink,
                _ => return false,
            }
            chains.push(g);
        }
    }
    pins.iter().all(|&pin| network.pin_driver(pin).is_ok_and(|d| !chains.contains(&d)))
}

/// Undoes a previously applied swap, restoring the original connections and
/// removing any inserted inverters.  When the inverters occupy the trailing
/// gate slots — always the case when the undo immediately follows the apply,
/// or when a journal is replayed in reverse — their slots are popped too, so
/// the network's slot count (and every id-indexed side array keyed on it)
/// round-trips exactly through an apply/undo pair.
///
/// # Errors
///
/// Propagates structural errors; undoing immediately after a successful
/// apply never fails.
pub fn undo_swap(network: &mut Network, applied: &AppliedSwap) -> Result<(), NetlistError> {
    // Every edge this function rewires restores a journaled, previously
    // acyclic configuration, so the unchecked `set_pin_driver` applies.
    if applied.candidate.kind == SwapKind::Inverting {
        // Remove the inverters by reconnecting the pins to the inverter
        // inputs, then sweeping the dangling inverters.
        for (&pin, &inv) in
            [applied.candidate.pin_a, applied.candidate.pin_b].iter().zip(&applied.inverters)
        {
            let source = network.fanins(inv)[0];
            network.set_pin_driver(pin, source)?;
            network.remove_if_dangling(inv);
        }
    }
    let da = network.pin_driver(applied.candidate.pin_a)?;
    let db = network.pin_driver(applied.candidate.pin_b)?;
    if da != db {
        network.set_pin_driver(applied.candidate.pin_a, db)?;
        network.set_pin_driver(applied.candidate.pin_b, da)?;
    }
    // Retire the tomb-stoned inverter slots while they sit at the tail, so
    // probe sequences do not grow the slot count monotonically.
    for &inv in applied.inverters.iter().rev() {
        if inv.index() + 1 == network.gate_count() && !network.pop_trailing_tombstone() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supergate::extract_supergates;
    use crate::symmetry::swap_candidates;
    use rapids_netlist::{GateType, NetworkBuilder};
    use rapids_sim::check_equivalence_exhaustive;

    fn and_or_network() -> Network {
        let mut b = NetworkBuilder::new("swapnet");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("n2", GateType::Inv, &["c"]);
        b.gate("f", GateType::Nor, &["n1", "n2"]);
        b.gate("g", GateType::And, &["d", "f"]);
        b.output("g");
        b.finish().unwrap()
    }

    #[test]
    fn non_inverting_swaps_preserve_function() {
        let reference = and_or_network();
        let ex = extract_supergates(&reference);
        for sg in ex.supergates() {
            for candidate in swap_candidates(sg, false) {
                let mut n = reference.clone();
                let applied = apply_swap(&mut n, &candidate).unwrap();
                assert!(
                    check_equivalence_exhaustive(&reference, &n).is_equivalent(),
                    "swap {candidate:?} broke the function"
                );
                undo_swap(&mut n, &applied).unwrap();
                assert!(check_equivalence_exhaustive(&reference, &n).is_equivalent());
                assert!(n.check_consistency().is_ok());
            }
        }
    }

    #[test]
    fn inverting_swaps_preserve_function() {
        // f = AND(a, INV(b)): inverting swap of the a-pin and b-pin.
        let mut b = NetworkBuilder::new("es");
        b.inputs(["a", "b"]);
        b.gate("nb", GateType::Inv, &["b"]);
        b.gate("f", GateType::And, &["a", "nb"]);
        b.output("f");
        let reference = b.finish().unwrap();
        let ex = extract_supergates(&reference);
        let f = reference.find_by_name("f").unwrap();
        let sg = ex.supergate_of_root(f).unwrap();
        let candidates = swap_candidates(sg, true);
        assert_eq!(candidates.len(), 1);
        let mut n = reference.clone();
        let applied = apply_swap(&mut n, &candidates[0]).unwrap();
        assert_eq!(applied.inserted_inverters().len(), 2);
        assert!(check_equivalence_exhaustive(&reference, &n).is_equivalent());
        undo_swap(&mut n, &applied).unwrap();
        assert!(check_equivalence_exhaustive(&reference, &n).is_equivalent());
        assert_eq!(n.live_gate_count(), reference.live_gate_count());
    }

    #[test]
    fn swap_changes_wiring_but_not_gate_count() {
        let reference = and_or_network();
        let ex = extract_supergates(&reference);
        // `f` is fanout-free and absorbed into the supergate rooted at `g`.
        let g = reference.find_by_name("g").unwrap();
        let sg = ex.supergate_of_root(g).unwrap();
        let candidates = swap_candidates(sg, false);
        assert!(!candidates.is_empty());
        let mut n = reference.clone();
        let c = candidates[0];
        apply_swap(&mut n, &c).unwrap();
        assert_eq!(n.live_gate_count(), reference.live_gate_count());
        // The two pins now see exchanged drivers.
        assert_eq!(n.pin_driver(c.pin_a).unwrap(), reference.pin_driver(c.pin_b).unwrap());
        assert_eq!(n.pin_driver(c.pin_b).unwrap(), reference.pin_driver(c.pin_a).unwrap());
    }
}
