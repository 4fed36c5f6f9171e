//! The mapped Boolean network: a DAG of gates with maintained fan-out lists
//! and the editing operations needed by rewiring and sizing.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateType, PinRef};

/// A named primary output: the gate that drives it plus the port name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputPort {
    /// Driver of the output port.
    pub driver: GateId,
    /// Port name.
    pub name: String,
}

/// A mapped, combinational Boolean network.
///
/// Vertices are [`Gate`]s; edges run from a driver gate to each fan-in pin of
/// its fan-out gates.  The network keeps the reverse adjacency (fan-out lists)
/// up to date across edits so that rewiring moves, sizing and incremental
/// timing can all run without rebuilding global state.
///
/// Removed gates are tomb-stoned (their slot remains, `removed = true`) so
/// that [`GateId`]s held by other data structures never dangle — with one
/// carve-out: [`Network::pop_trailing_tombstone`] lets undo paths retire a
/// *trailing* tomb-stone so apply→undo probe sequences keep the slot count
/// stable.  Ids of popped slots index past `gate_count()` until the slot is
/// reused; holders of journaled ids must treat them as potentially stale
/// after an undo (query [`Network::is_live`], which is total, rather than
/// [`Network::gate`], which is not).
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    gates: Vec<Gate>,
    fanouts: Vec<Vec<GateId>>,
    inputs: Vec<GateId>,
    outputs: Vec<OutputPort>,
    /// Topological position per gate slot, when known (see
    /// [`Network::refresh_topo_hint`]).  An edit that inserts an edge
    /// violating the recorded order drops the hint; every other edit keeps it
    /// valid, so cycle checks stay O(1) across long runs of rewiring moves.
    /// Shared (`Arc`) so callers that apply-then-undo a move can snapshot and
    /// reinstate it in O(1) — see [`Network::topo_hint_handle`].
    topo_hint: Option<Arc<Vec<u32>>>,
}

impl Network {
    /// Creates an empty network with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            gates: Vec::new(),
            fanouts: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            topo_hint: None,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a primary input and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push_gate(Gate::new(GateType::Input, Vec::new(), name));
        self.inputs.push(id);
        id
    }

    /// Adds a constant-0 or constant-1 source gate.
    pub fn add_constant(&mut self, value: bool, name: impl Into<String>) -> GateId {
        let gtype = if value { GateType::Const1 } else { GateType::Const0 };
        self.push_gate(Gate::new(gtype, Vec::new(), name))
    }

    /// Adds a logic gate driven by `fanins` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFaninCount`] if the fan-in count is not
    /// legal for the type, or [`NetlistError::UnknownGate`] if a driver id
    /// does not exist (or is tomb-stoned).
    pub fn add_gate(
        &mut self,
        gtype: GateType,
        fanins: &[GateId],
        name: impl Into<String>,
    ) -> Result<GateId, NetlistError> {
        if !gtype.accepts_fanin_count(fanins.len()) {
            return Err(NetlistError::InvalidFaninCount {
                gate_type: gtype.mnemonic(),
                requested: fanins.len(),
            });
        }
        for &f in fanins {
            self.check_live(f)?;
        }
        let id = self.push_gate(Gate::new(gtype, fanins.to_vec(), name));
        for &f in fanins {
            self.fanouts[f.index()].push(id);
        }
        Ok(id)
    }

    /// Declares `driver` to be a primary output named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn add_output(&mut self, driver: GateId, name: impl Into<String>) {
        self.gates[driver.index()].output_ports += 1;
        self.outputs.push(OutputPort { driver, name: name.into() });
    }

    fn push_gate(&mut self, gate: Gate) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.gates.push(gate);
        self.fanouts.push(Vec::new());
        if let Some(hint) = &mut self.topo_hint {
            // A fresh gate has no fan-outs, so placing it after every existing
            // gate keeps the recorded order valid.
            Arc::make_mut(hint).push(id.0);
        }
        id
    }

    // ------------------------------------------------------------------
    // Topological hint
    // ------------------------------------------------------------------

    /// Records the current topological order so that subsequent edge edits
    /// can prove acyclicity with an O(1) position comparison instead of the
    /// O(V+E) fan-out DFS in [`Network::reaches`].
    ///
    /// The hint is maintained automatically: adding a gate extends it, and an
    /// edit that inserts an edge *violating* the recorded order (legal, but
    /// no longer consistent with the snapshot) silently drops it, falling
    /// back to the DFS until it is refreshed.  Returns `false` (and records
    /// nothing) if the network is cyclic.
    pub fn refresh_topo_hint(&mut self) -> bool {
        match crate::topo::topological_order(self) {
            Some(order) => {
                let mut pos = vec![u32::MAX; self.gates.len()];
                for (i, g) in order.iter().enumerate() {
                    pos[g.index()] = i as u32;
                }
                // Tomb-stoned slots keep u32::MAX: they have no edges, so any
                // position is consistent.
                self.topo_hint = Some(Arc::new(pos));
                true
            }
            None => {
                self.topo_hint = None;
                false
            }
        }
    }

    /// The recorded topological position array, if a valid hint is active
    /// (indexed by `GateId::index()`; tomb-stoned slots hold `u32::MAX`).
    pub fn topo_hint(&self) -> Option<&[u32]> {
        self.topo_hint.as_deref().map(|v| v.as_slice())
    }

    /// A shareable handle to the active hint, for callers that apply a move,
    /// evaluate it and undo it: snapshot the handle before the move and hand
    /// it back via [`Network::reinstate_topo_hint`] after the undo.  O(1).
    pub fn topo_hint_handle(&self) -> Option<Arc<Vec<u32>>> {
        self.topo_hint.clone()
    }

    /// Reinstates a hint previously obtained from
    /// [`Network::topo_hint_handle`].
    ///
    /// Contract: the network's edge set must equal the edge set at the time
    /// the handle was taken (fan-out list *order* may differ).  This is
    /// exactly the situation after undoing an applied move; reinstating a
    /// hint under any other circumstances makes future cycle checks unsound.
    pub fn reinstate_topo_hint(&mut self, hint: Arc<Vec<u32>>) {
        debug_assert_eq!(hint.len(), self.gates.len(), "hint predates a network resize");
        self.topo_hint = Some(hint);
    }

    /// O(1) acyclicity proof for a prospective edge `driver → sink`: `true`
    /// when the active hint places the driver strictly before the sink, in
    /// which case the edge cannot close a cycle (reachability implies order).
    fn hint_proves_acyclic(&self, driver: GateId, sink: GateId) -> bool {
        match &self.topo_hint {
            Some(pos) => pos[driver.index()] < pos[sink.index()],
            None => false,
        }
    }

    /// Like [`Network::reaches`], but prunes the fan-out DFS with the active
    /// hint: along any path the recorded position strictly increases, so
    /// nodes positioned after `target` can never lead to it.  Falls back to
    /// the unpruned walk when no hint is active.
    fn reaches_pruned(&self, from: GateId, target: GateId) -> bool {
        let Some(pos) = self.topo_hint.as_deref() else {
            return self.reaches(from, target);
        };
        if from == target {
            return true;
        }
        let bound = pos[target.index()];
        if pos[from.index()] > bound {
            return false;
        }
        let mut seen = vec![false; self.gates.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(g) = stack.pop() {
            for &s in &self.fanouts[g.index()] {
                if s == target {
                    return true;
                }
                if !seen[s.index()] && pos[s.index()] <= bound {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Total number of gate slots ever allocated, including inputs, constants
    /// and tomb-stoned gates.  Use [`Network::live_gate_count`] for the number
    /// of live vertices.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of live (non-removed) gates, including inputs and constants.
    pub fn live_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.removed).count()
    }

    /// Number of live logic gates (excludes inputs and constants).
    pub fn logic_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.removed && !g.gtype.is_source()).count()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// Returns the gate record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Mutable access to a gate record (used by sizing to change the
    /// drive-strength class).
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.index()]
    }

    /// Returns `Ok(())` if the id exists and is not tomb-stoned.
    pub fn check_live(&self, id: GateId) -> Result<(), NetlistError> {
        match self.gates.get(id.index()) {
            Some(g) if !g.removed => Ok(()),
            _ => Err(NetlistError::UnknownGate(id)),
        }
    }

    /// Returns `true` if the id refers to a live gate.
    pub fn is_live(&self, id: GateId) -> bool {
        self.check_live(id).is_ok()
    }

    /// Fan-in drivers of a gate in pin order.
    pub fn fanins(&self, id: GateId) -> &[GateId] {
        &self.gates[id.index()].fanins
    }

    /// Fan-out gates of a gate.  A gate appears once per in-pin it drives, so
    /// a driver feeding two pins of the same sink is listed twice.
    pub fn fanouts(&self, id: GateId) -> &[GateId] {
        &self.fanouts[id.index()]
    }

    /// Number of sink pins driven by this gate plus the number of primary
    /// outputs it drives (the net degree used by the star wire model).
    /// O(1): each gate carries its output-port count.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn fanout_degree(&self, id: GateId) -> usize {
        self.fanouts[id.index()].len() + self.gates[id.index()].output_ports as usize
    }

    /// Returns `true` if the gate drives at most one sink pin and no more
    /// than one primary output in total — the *fanout-free* condition used
    /// throughout §3 of the paper.  O(1), like [`Network::fanout_degree`].
    pub fn is_fanout_free(&self, id: GateId) -> bool {
        self.fanout_degree(id) <= 1
    }

    /// Returns `true` if the gate drives a primary output port.  O(1): each
    /// gate carries its output-port count.  Total: an id past the slot
    /// count drives nothing.
    pub fn drives_output(&self, id: GateId) -> bool {
        self.gates.get(id.index()).is_some_and(|g| g.output_ports > 0)
    }

    /// Iterator over live gate ids.
    pub fn iter_live(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates.iter().enumerate().filter(|(_, g)| !g.removed).map(|(i, _)| GateId(i as u32))
    }

    /// Iterator over live logic-gate ids (excludes inputs and constants).
    pub fn iter_logic(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.removed && !g.gtype.is_source())
            .map(|(i, _)| GateId(i as u32))
    }

    /// Looks up a gate by instance name (linear scan; intended for tests and
    /// the BLIF reader, not hot paths).
    pub fn find_by_name(&self, name: &str) -> Option<GateId> {
        self.gates.iter().position(|g| !g.removed && g.name == name).map(|i| GateId(i as u32))
    }

    /// Driver connected to the given in-pin.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidPinIndex`] if the pin does not exist.
    pub fn pin_driver(&self, pin: PinRef) -> Result<GateId, NetlistError> {
        self.check_live(pin.gate)?;
        let g = self.gate(pin.gate);
        g.fanins.get(pin.index).copied().ok_or(NetlistError::InvalidPinIndex {
            gate: pin.gate,
            index: pin.index,
            fanin_count: g.fanins.len(),
        })
    }

    // ------------------------------------------------------------------
    // Editing
    // ------------------------------------------------------------------

    /// Reconnects in-pin `pin` to `new_driver`, maintaining fan-out lists.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::InvalidPinIndex`] if the pin does not exist.
    /// * [`NetlistError::UnknownGate`] if `new_driver` is not live.
    /// * [`NetlistError::WouldCreateCycle`] if `new_driver` lies in the
    ///   transitive fan-out of the pin's gate.
    pub fn replace_pin_driver(
        &mut self,
        pin: PinRef,
        new_driver: GateId,
    ) -> Result<GateId, NetlistError> {
        let old = self.pin_driver(pin)?;
        self.check_live(new_driver)?;
        if old == new_driver {
            return Ok(old);
        }
        if self.hint_proves_acyclic(new_driver, pin.gate) {
            // The recorded order stays a valid topological order of the
            // edited graph, so the hint survives this edit.
        } else {
            if self.reaches_pruned(pin.gate, new_driver) {
                return Err(NetlistError::WouldCreateCycle { gate: pin.gate, driver: new_driver });
            }
            // Legal edge, but it contradicts the recorded order (or no hint
            // is active): the snapshot can no longer prove anything.
            self.topo_hint = None;
        }
        self.detach_fanout(old, pin.gate);
        self.gates[pin.gate.index()].fanins[pin.index] = new_driver;
        self.fanouts[new_driver.index()].push(pin.gate);
        Ok(old)
    }

    /// Reconnects in-pin `pin` to `new_driver` **without the cycle check**,
    /// for callers restoring a journaled, known-acyclic edge (undo paths).
    /// The topological hint survives when it proves the restored edge and is
    /// dropped otherwise — it is never used to *reject* the edit.
    ///
    /// Restoring an edge that was not previously present (or any edge whose
    /// acyclicity the caller cannot vouch for) can corrupt the network with
    /// a combinational cycle; use [`Network::replace_pin_driver`] for
    /// speculative edits.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::InvalidPinIndex`] if the pin does not exist.
    /// * [`NetlistError::UnknownGate`] if `new_driver` is not live.
    pub fn restore_pin_driver(
        &mut self,
        pin: PinRef,
        new_driver: GateId,
    ) -> Result<GateId, NetlistError> {
        let old = self.pin_driver(pin)?;
        self.check_live(new_driver)?;
        if old == new_driver {
            return Ok(old);
        }
        if !self.hint_proves_acyclic(new_driver, pin.gate) {
            self.topo_hint = None;
        }
        self.detach_fanout(old, pin.gate);
        self.gates[pin.gate.index()].fanins[pin.index] = new_driver;
        self.fanouts[new_driver.index()].push(pin.gate);
        Ok(old)
    }

    /// Swaps the drivers of two in-pins (the elementary rewiring move of
    /// §4.1).  The placement is untouched; only the two nets change.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`Network::replace_pin_driver`]; if the
    /// second replacement fails the first one is rolled back.
    pub fn swap_pin_drivers(&mut self, a: PinRef, b: PinRef) -> Result<(), NetlistError> {
        let da = self.pin_driver(a)?;
        let db = self.pin_driver(b)?;
        if da == db {
            return Ok(());
        }
        if self.hint_proves_acyclic(db, a.gate) && self.hint_proves_acyclic(da, b.gate) {
            // Both exchanged edges respect the recorded order, so the swapped
            // graph is acyclic *and* the hint stays valid: rewire directly,
            // skipping the per-edge checks.
            self.detach_fanout(da, a.gate);
            self.gates[a.gate.index()].fanins[a.index] = db;
            self.fanouts[db.index()].push(a.gate);
            self.detach_fanout(db, b.gate);
            self.gates[b.gate.index()].fanins[b.index] = da;
            self.fanouts[da.index()].push(b.gate);
            return Ok(());
        }
        self.replace_pin_driver(a, db)?;
        if let Err(e) = self.replace_pin_driver(b, da) {
            // Roll back the first edit to keep the network consistent.
            self.replace_pin_driver(a, da).expect("rollback of pin swap cannot fail");
            return Err(e);
        }
        Ok(())
    }

    /// Returns `true` if `target` is reachable from `from` by following
    /// fan-out edges (i.e. `target` is in the transitive fan-out of `from`,
    /// or equals it).  Used for cycle prevention.
    pub fn reaches(&self, from: GateId, target: GateId) -> bool {
        if from == target {
            return true;
        }
        let mut seen = vec![false; self.gates.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(g) = stack.pop() {
            for &s in &self.fanouts[g.index()] {
                if s == target {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Inserts an inverter between the driver of `pin` and the pin itself,
    /// returning the new inverter's id.  Used by inverting swaps (Lemma 7)
    /// and by the DeMorgan transform (Definition 4).
    ///
    /// # Errors
    ///
    /// Returns an error if the pin does not exist.
    pub fn insert_inverter(
        &mut self,
        pin: PinRef,
        name: impl Into<String>,
    ) -> Result<GateId, NetlistError> {
        let driver = self.pin_driver(pin)?;
        let inv =
            self.add_gate(GateType::Inv, &[driver], name).expect("inverter fanin is always valid");
        self.detach_fanout(driver, pin.gate);
        self.gates[pin.gate.index()].fanins[pin.index] = inv;
        self.fanouts[inv.index()].push(pin.gate);
        // The inverter was appended after every existing gate, so the edge
        // inverter → sink contradicts the recorded order.
        self.topo_hint = None;
        Ok(inv)
    }

    /// Changes the logic type of a gate in place (used by the DeMorgan
    /// transform: AND ⇄ OR with inversions absorbed at the pins).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFaninCount`] if the existing fan-in
    /// count is illegal for the new type.
    pub fn set_gate_type(&mut self, id: GateId, gtype: GateType) -> Result<(), NetlistError> {
        self.check_live(id)?;
        let count = self.gates[id.index()].fanins.len();
        if !gtype.accepts_fanin_count(count) {
            return Err(NetlistError::InvalidFaninCount {
                gate_type: gtype.mnemonic(),
                requested: count,
            });
        }
        self.gates[id.index()].gtype = gtype;
        Ok(())
    }

    /// Removes a gate that no longer drives anything, tomb-stoning its slot.
    /// Its fan-in edges are detached.  Returns `true` if the gate was removed,
    /// `false` if it still has fan-outs or drives a primary output.
    pub fn remove_if_dangling(&mut self, id: GateId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        if !self.fanouts[id.index()].is_empty() || self.drives_output(id) {
            return false;
        }
        let fanins = std::mem::take(&mut self.gates[id.index()].fanins);
        for f in fanins {
            self.detach_fanout(f, id);
        }
        self.gates[id.index()].removed = true;
        self.inputs.retain(|&i| i != id);
        true
    }

    /// Pops the last gate slot if (and only if) it is tomb-stoned, returning
    /// `true` on success.  Tomb-stones keep no edges, so dropping a trailing
    /// one is always structurally sound; the point of popping is that a
    /// subsequent [`Network::add_gate`] reuses the slot index, which keeps
    /// apply→undo probe sequences (e.g. scoring an inverting swap) from
    /// growing the slot count — and with it every id-indexed side array —
    /// monotonically.  Callers that cache per-slot state must invalidate a
    /// reused slot before reading it, exactly as for a fresh slot.
    pub fn pop_trailing_tombstone(&mut self) -> bool {
        match self.gates.last() {
            // A tomb-stone drives no port: `remove_if_dangling` refuses
            // port drivers, so the popped slot takes no count with it.
            Some(g) if g.removed => debug_assert_eq!(g.output_ports, 0),
            _ => return false,
        }
        self.gates.pop();
        self.fanouts.pop();
        if let Some(hint) = &mut self.topo_hint {
            Arc::make_mut(hint).pop();
        }
        true
    }

    /// Bypasses a buffer/inverter pair or redirects all sinks of `gate` to
    /// `replacement`, then tomb-stones `gate` if it became dangling.
    /// Primary-output ports driven by `gate` are redirected as well.
    ///
    /// # Errors
    ///
    /// Returns an error if either id is not live or the move would create a
    /// cycle.
    pub fn replace_all_uses(
        &mut self,
        gate: GateId,
        replacement: GateId,
    ) -> Result<(), NetlistError> {
        self.check_live(gate)?;
        self.check_live(replacement)?;
        if gate == replacement {
            return Ok(());
        }
        let sinks = self.fanouts[gate.index()].clone();
        for sink in sinks {
            let pins: Vec<usize> = self.gates[sink.index()]
                .fanins
                .iter()
                .enumerate()
                .filter(|(_, &d)| d == gate)
                .map(|(i, _)| i)
                .collect();
            for idx in pins {
                self.replace_pin_driver(PinRef::new(sink, idx), replacement)?;
            }
        }
        self.redirect_output_ports(gate, replacement)?;
        self.remove_if_dangling(gate);
        Ok(())
    }

    /// Redirects every primary-output port currently driven by `from` to be
    /// driven by `to` instead, leaving gate-to-gate connectivity untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is not a live gate.
    pub fn redirect_output_ports(
        &mut self,
        from: GateId,
        to: GateId,
    ) -> Result<usize, NetlistError> {
        self.check_live(to)?;
        let mut moved = 0;
        for o in &mut self.outputs {
            if o.driver == from {
                o.driver = to;
                moved += 1;
            }
        }
        if moved > 0 {
            self.gates[from.index()].output_ports -= moved as u32;
            self.gates[to.index()].output_ports += moved as u32;
        }
        Ok(moved)
    }

    fn detach_fanout(&mut self, driver: GateId, sink: GateId) {
        let list = &mut self.fanouts[driver.index()];
        if let Some(pos) = list.iter().position(|&s| s == sink) {
            list.swap_remove(pos);
        }
    }

    // ------------------------------------------------------------------
    // Consistency
    // ------------------------------------------------------------------

    /// Exhaustively checks internal invariants: fan-out lists match fan-in
    /// lists, no live gate references a tomb-stoned driver, fan-in counts are
    /// legal and the graph is acyclic.  Intended for tests and debug builds.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_consistency(&self) -> Result<(), String> {
        // Fan-in legality and liveness.
        let mut expected_fanouts: HashMap<(GateId, GateId), usize> = HashMap::new();
        for id in self.iter_live() {
            let g = self.gate(id);
            if !g.gtype.accepts_fanin_count(g.fanins.len()) {
                return Err(format!("gate {id} has illegal fanin count {}", g.fanins.len()));
            }
            for &f in &g.fanins {
                if !self.is_live(f) {
                    return Err(format!("gate {id} references dead driver {f}"));
                }
                *expected_fanouts.entry((f, id)).or_insert(0) += 1;
            }
        }
        // Fan-out lists match.
        let mut actual_fanouts: HashMap<(GateId, GateId), usize> = HashMap::new();
        for id in self.iter_live() {
            for &s in &self.fanouts[id.index()] {
                *actual_fanouts.entry((id, s)).or_insert(0) += 1;
            }
        }
        if expected_fanouts != actual_fanouts {
            return Err("fanout lists are out of sync with fanin lists".to_string());
        }
        // Outputs reference live gates, and every gate's port count
        // matches a rescan of the ports.
        let mut ports = vec![0u32; self.gates.len()];
        for o in &self.outputs {
            if !self.is_live(o.driver) {
                return Err(format!("output {} driven by dead gate {}", o.name, o.driver));
            }
            ports[o.driver.index()] += 1;
        }
        for (i, (g, &count)) in self.gates.iter().zip(&ports).enumerate() {
            if g.output_ports != count {
                return Err(format!(
                    "gate g{i} counts {} output ports but drives {count}",
                    g.output_ports
                ));
            }
        }
        // Acyclicity via the topological sort.
        if crate::topo::topological_order(self).is_none() {
            return Err("network contains a combinational cycle".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Network, GateId, GateId, GateId, GateId) {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateType::And, &[a, b], "g1").unwrap();
        let f = n.add_gate(GateType::Or, &[g1, c], "f").unwrap();
        n.add_output(f, "f");
        (n, a, b, c, g1)
    }

    #[test]
    fn build_and_query() {
        let (n, a, b, c, g1) = small();
        assert_eq!(n.gate_count(), 5);
        assert_eq!(n.logic_gate_count(), 2);
        assert_eq!(n.inputs(), &[a, b, c]);
        assert_eq!(n.fanins(g1), &[a, b]);
        assert_eq!(n.fanouts(a), &[g1]);
        assert!(n.is_fanout_free(g1));
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn invalid_fanin_count_rejected() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let err = n.add_gate(GateType::Inv, &[a, a], "bad").unwrap_err();
        assert!(matches!(err, NetlistError::InvalidFaninCount { .. }));
        let err = n.add_gate(GateType::And, &[a], "bad2").unwrap_err();
        assert!(matches!(err, NetlistError::InvalidFaninCount { .. }));
    }

    #[test]
    fn unknown_driver_rejected() {
        let mut n = Network::new("t");
        let err = n.add_gate(GateType::Buf, &[GateId(42)], "b").unwrap_err();
        assert!(matches!(err, NetlistError::UnknownGate(_)));
    }

    #[test]
    fn replace_pin_driver_updates_fanouts() {
        let (mut n, a, _b, c, g1) = small();
        let old = n.replace_pin_driver(PinRef::new(g1, 0), c).unwrap();
        assert_eq!(old, a);
        assert_eq!(n.fanins(g1), &[c, n.fanins(g1)[1]]);
        assert!(n.fanouts(a).is_empty());
        assert_eq!(n.fanouts(c).len(), 2);
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn swap_pin_drivers_roundtrip() {
        let (mut n, a, b, c, g1) = small();
        let f = n.find_by_name("f").unwrap();
        n.swap_pin_drivers(PinRef::new(g1, 0), PinRef::new(f, 1)).unwrap();
        assert_eq!(n.fanins(g1), &[c, b]);
        assert_eq!(n.fanins(f), &[g1, a]);
        n.swap_pin_drivers(PinRef::new(g1, 0), PinRef::new(f, 1)).unwrap();
        assert_eq!(n.fanins(g1), &[a, b]);
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn cycle_prevention() {
        let (mut n, _a, _b, _c, g1) = small();
        let f = n.find_by_name("f").unwrap();
        // Connecting f as a driver of g1 would form a cycle.
        let err = n.replace_pin_driver(PinRef::new(g1, 0), f).unwrap_err();
        assert!(matches!(err, NetlistError::WouldCreateCycle { .. }));
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn insert_inverter_rewires_single_pin() {
        let (mut n, a, _b, _c, g1) = small();
        let inv = n.insert_inverter(PinRef::new(g1, 0), "n1").unwrap();
        assert_eq!(n.fanins(g1)[0], inv);
        assert_eq!(n.fanins(inv), &[a]);
        assert_eq!(n.fanouts(a), &[inv]);
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn set_gate_type_checks_arity() {
        let (mut n, _a, _b, _c, g1) = small();
        n.set_gate_type(g1, GateType::Nor).unwrap();
        assert_eq!(n.gate(g1).gtype, GateType::Nor);
        assert!(n.set_gate_type(g1, GateType::Inv).is_err());
    }

    #[test]
    fn remove_and_sweep() {
        let (mut n, a, b, _c, g1) = small();
        let f = n.find_by_name("f").unwrap();
        // Disconnect g1 from f, then g1 is dangling and can be removed;
        // its drivers stay live.
        n.replace_pin_driver(PinRef::new(f, 0), a).unwrap();
        assert!(n.fanouts(g1).is_empty());
        assert!(n.remove_if_dangling(g1));
        assert!(!n.is_live(g1));
        assert!(n.is_live(b));
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn pop_trailing_tombstone_reuses_slots() {
        let (mut n, a, _b, _c, g1) = small();
        let before = n.gate_count();
        let inv = n.insert_inverter(PinRef::new(g1, 0), "probe_inv").unwrap();
        assert_eq!(n.gate_count(), before + 1);
        // Live gates are never popped.
        assert!(!n.pop_trailing_tombstone());
        // Undo the insertion: reconnect the pin and sweep the inverter.
        n.replace_pin_driver(PinRef::new(g1, 0), a).unwrap();
        assert!(n.remove_if_dangling(inv));
        assert!(n.pop_trailing_tombstone());
        assert!(!n.pop_trailing_tombstone());
        assert_eq!(n.gate_count(), before);
        // The next insertion reuses the popped slot index.
        let inv2 = n.insert_inverter(PinRef::new(g1, 0), "probe_inv2").unwrap();
        assert_eq!(inv2, inv);
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn replace_all_uses_redirects_outputs() {
        let (mut n, a, _b, _c, g1) = small();
        let f = n.find_by_name("f").unwrap();
        n.add_output(g1, "aux");
        n.replace_all_uses(g1, a).unwrap();
        assert_eq!(n.fanins(f)[0], a);
        assert!(n.outputs().iter().all(|o| o.driver != g1));
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn topo_hint_survives_order_respecting_edits() {
        let (mut n, a, _b, c, g1) = small();
        assert!(n.topo_hint().is_none());
        assert!(n.refresh_topo_hint());
        // Reconnecting g1's a-pin to input c respects the topological order
        // (inputs precede logic), so the hint must survive.
        n.replace_pin_driver(PinRef::new(g1, 0), c).unwrap();
        assert!(n.topo_hint().is_some());
        // And the hint still proves real cycles impossible: connecting f as a
        // driver of g1 must still be rejected.
        let f = n.find_by_name("f").unwrap();
        let err = n.replace_pin_driver(PinRef::new(g1, 0), f).unwrap_err();
        assert!(matches!(err, NetlistError::WouldCreateCycle { .. }));
        // Adding a gate extends the hint rather than dropping it.
        let g2 = n.add_gate(GateType::And, &[a, c], "g2").unwrap();
        assert_eq!(n.topo_hint().unwrap()[g2.index()], g2.0);
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn topo_hint_dropped_by_order_violating_edit() {
        // f (later slot) becomes the driver of a *new* gate placed even
        // later, then that gate is wired as driver of g1 (earlier slot):
        // legal, but contradicts the recorded order.
        let (mut n, a, _b, _c, g1) = small();
        assert!(n.refresh_topo_hint());
        let late = n.add_gate(GateType::Buf, &[a], "late").unwrap();
        // late is positioned after g1 in the hint but does not reach g1, so
        // the edge late → g1 is legal yet order-violating.
        n.replace_pin_driver(PinRef::new(g1, 0), late).unwrap();
        assert!(n.topo_hint().is_none());
        assert!(n.check_consistency().is_ok());
        // Refreshing restores a valid hint.
        assert!(n.refresh_topo_hint());
        assert!(n.topo_hint().is_some());
    }

    #[test]
    fn topo_hint_dropped_by_inserted_inverter() {
        let (mut n, _a, _b, _c, g1) = small();
        assert!(n.refresh_topo_hint());
        n.insert_inverter(PinRef::new(g1, 0), "inv0").unwrap();
        assert!(n.topo_hint().is_none());
        assert!(n.check_consistency().is_ok());
    }

    /// Checks the O(1) port queries of every slot against a scan of the
    /// output ports, plus the network's own consistency check.
    fn assert_port_counts_match_scan(n: &Network) {
        n.check_consistency().unwrap();
        for i in 0..n.gate_count() {
            let id = GateId(i as u32);
            let ports = n.outputs().iter().filter(|o| o.driver == id).count();
            let degree = n.fanouts(id).len() + ports;
            assert_eq!(n.drives_output(id), ports > 0, "drives_output({id})");
            assert_eq!(n.fanout_degree(id), degree, "fanout_degree({id})");
            assert_eq!(n.is_fanout_free(id), degree <= 1, "is_fanout_free({id})");
        }
    }

    #[test]
    fn port_counts_follow_every_port_edit() {
        let (mut n, a, b, c, g1) = small();
        let f = n.find_by_name("f").unwrap();
        assert_port_counts_match_scan(&n);
        // Two more ports on g1 and one on input a.
        n.add_output(g1, "g1_a");
        n.add_output(g1, "g1_b");
        n.add_output(a, "a_copy");
        assert_port_counts_match_scan(&n);
        assert!(!n.is_fanout_free(g1));
        // Move both of g1's ports to a fresh gate, then move them back.
        let h = n.add_gate(GateType::Nand, &[b, c], "h").unwrap();
        assert_eq!(n.redirect_output_ports(g1, h).unwrap(), 2);
        assert_port_counts_match_scan(&n);
        assert!(n.is_fanout_free(g1) && !n.drives_output(g1));
        assert_eq!(n.redirect_output_ports(h, g1).unwrap(), 2);
        assert_eq!(n.redirect_output_ports(h, g1).unwrap(), 0);
        assert_port_counts_match_scan(&n);
        // Redirecting a gate onto itself keeps its count.
        assert_eq!(n.redirect_output_ports(g1, g1).unwrap(), 2);
        assert_port_counts_match_scan(&n);
        // Replacing g1 moves its sink pin and both ports onto h, and
        // tomb-stones g1.
        n.replace_all_uses(g1, h).unwrap();
        assert!(!n.is_live(g1));
        assert_eq!(n.fanout_degree(h), 3);
        assert_port_counts_match_scan(&n);
        // Free f's pin from h and move h's ports to f: h dangles and is
        // removed, f now drives three ports.
        n.replace_pin_driver(PinRef::new(f, 0), a).unwrap();
        n.redirect_output_ports(h, f).unwrap();
        assert!(n.remove_if_dangling(h));
        assert!(!n.is_live(h));
        assert_port_counts_match_scan(&n);
        // h was the last slot: popping it leaves every count in place.
        assert!(n.pop_trailing_tombstone());
        assert_eq!(n.gate_count(), h.index());
        assert_port_counts_match_scan(&n);
        assert!(!n.drives_output(h), "an id past the slot count drives nothing");
        // The reused slot starts with no ports.
        let h2 = n.add_gate(GateType::Inv, &[c], "h2").unwrap();
        assert_eq!(h2, h);
        assert_port_counts_match_scan(&n);
        assert!(n.is_fanout_free(h2));
    }

    #[test]
    fn check_consistency_catches_a_stale_port_count() {
        let (mut n, _a, _b, _c, g1) = small();
        n.gates[g1.index()].output_ports = 1;
        let err = n.check_consistency().unwrap_err();
        assert!(err.contains("output ports"), "{err}");
    }

    #[test]
    fn fanout_degree_counts_ports() {
        let (mut n, a, _b, _c, _g1) = small();
        assert_eq!(n.fanout_degree(a), 1);
        n.add_output(a, "a_copy");
        assert_eq!(n.fanout_degree(a), 2);
        assert!(!n.is_fanout_free(a));
    }
}
