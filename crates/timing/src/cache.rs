//! Memoized net parasitics for candidate-scoring hot loops.
//!
//! The neighborhood metrics re-derive star geometry and Elmore delays from
//! the *current* network state on every probe, which makes one sizing or
//! rewiring pass recompute the same unchanged nets thousands of times.
//! [`NetCache`] memoizes both layers per driver with explicit, two-level
//! invalidation:
//!
//! * [`NetCache::invalidate_topology`] — the net's sink set changed (a pin
//!   swap): star geometry *and* delays are dropped;
//! * [`NetCache::invalidate_loads`] — a sink's drive strength changed (its
//!   pin capacitance): the star geometry survives, only the delays are
//!   recomputed.
//!
//! Values are computed by the same `net_star`/`net_delays`/`cell_delay_at`
//! code as the uncached paths, so a cache hit is bit-identical to a fresh
//! evaluation — callers only have to be complete about invalidation.

use rapids_celllib::{CellDelay, Library};
use rapids_netlist::{GateId, Network};
use rapids_placement::{net_star, Placement, StarNet};

use crate::elmore::{net_delays, NetDelays};
use crate::gate_delay::cell_delay_at;
use crate::rc::TimingConfig;

/// Per-driver memo of star decompositions and Elmore delays.
#[derive(Debug, Clone)]
pub struct NetCache {
    stars: Vec<Option<StarNet>>,
    delays: Vec<Option<NetDelays>>,
}

impl NetCache {
    /// An empty cache with one slot per gate.
    pub fn new(slots: usize) -> Self {
        NetCache { stars: vec![None; slots], delays: vec![None; slots] }
    }

    /// An empty cache sized for `network`.
    pub fn for_network(network: &Network) -> Self {
        Self::new(network.gate_count())
    }

    /// Grows the cache to cover at least `slots` gate slots (new entries are
    /// cold).  Call after edits that add gates, e.g. inverting swaps.  It
    /// never shrinks: a rolled-back inverting swap invalidates its popped
    /// inverters' nets after the undo.
    pub fn grow_slots(&mut self, slots: usize) {
        if self.stars.len() < slots {
            self.stars.resize(slots, None);
            self.delays.resize(slots, None);
        }
    }

    /// Drops everything known about the net driven by `gate` (its sink set
    /// changed).
    pub fn invalidate_topology(&mut self, gate: GateId) {
        self.stars[gate.index()] = None;
        self.delays[gate.index()] = None;
    }

    /// Drops the delays of the net driven by `gate` but keeps its geometry
    /// (a sink's pin capacitance changed; the placement did not).
    pub fn invalidate_loads(&mut self, gate: GateId) {
        self.delays[gate.index()] = None;
    }

    /// The Elmore delays and total load of the net driven by `driver`,
    /// computed on miss from the current network state.
    pub fn net_delays(
        &mut self,
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
        driver: GateId,
    ) -> &NetDelays {
        let i = driver.index();
        if self.delays[i].is_none() {
            if self.stars[i].is_none() {
                self.stars[i] = Some(net_star(network, placement, driver));
            }
            let star = self.stars[i].as_ref().expect("star computed above");
            self.delays[i] = Some(net_delays(network, library, star, config));
        }
        self.delays[i].as_ref().expect("delays computed above")
    }

    /// The pin-to-pin delay of `gate` driving its placed net, using the
    /// cached load.  Bit-identical to [`crate::gate_output_delay`].
    pub fn gate_output_delay(
        &mut self,
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
        gate: GateId,
    ) -> CellDelay {
        let g = network.gate(gate);
        if g.gtype.is_source() {
            return CellDelay::default();
        }
        let load = self.net_delays(network, library, placement, config, gate).total_load_pf;
        cell_delay_at(library, g, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_delay::gate_output_delay;
    use rapids_celllib::{DriveStrength, Library};
    use rapids_netlist::{GateType, NetworkBuilder, PinRef};
    use rapids_placement::{place, PlacerConfig};

    fn setup() -> (Network, Placement, Library, TimingConfig) {
        let mut b = NetworkBuilder::new("cache");
        b.inputs(["a", "b", "c"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("n2", GateType::Nand, &["b", "c"]);
        b.gate("f", GateType::Nor, &["n1", "n2"]);
        b.output("f");
        let n = b.finish().unwrap();
        let lib = Library::standard_035um();
        let p = place(&n, &lib, &PlacerConfig::fast(), 23);
        (n, p, lib, TimingConfig::default())
    }

    #[test]
    fn cached_values_match_fresh_computation() {
        let (n, p, lib, cfg) = setup();
        let mut cache = NetCache::for_network(&n);
        for g in n.iter_live() {
            let fresh = gate_output_delay(&n, &lib, &p, &cfg, g);
            let cached = cache.gate_output_delay(&n, &lib, &p, &cfg, g);
            assert_eq!(fresh, cached, "mismatch at {g}");
            // Second probe hits the memo and must agree too.
            assert_eq!(cache.gate_output_delay(&n, &lib, &p, &cfg, g), fresh);
        }
    }

    #[test]
    fn load_invalidation_tracks_resizes() {
        let (mut n, p, lib, cfg) = setup();
        let mut cache = NetCache::for_network(&n);
        let b = n.find_by_name("b").unwrap();
        let n1 = n.find_by_name("n1").unwrap();
        let before = cache.net_delays(&n, &lib, &p, &cfg, b).total_load_pf;
        n.gate_mut(n1).size_class = DriveStrength::X8.size_class();
        cache.invalidate_loads(b);
        let after = cache.net_delays(&n, &lib, &p, &cfg, b).total_load_pf;
        assert!(after > before, "a larger sink cell must present more load");
        // The recomputed entry must equal a fully fresh evaluation.
        let fresh = net_delays(&n, &lib, &net_star(&n, &p, b), &cfg);
        assert_eq!(after, fresh.total_load_pf);
        assert_eq!(cache.net_delays(&n, &lib, &p, &cfg, b), &fresh);
    }

    #[test]
    fn topology_invalidation_tracks_swaps() {
        let (mut n, p, lib, cfg) = setup();
        let mut cache = NetCache::for_network(&n);
        let n1 = n.find_by_name("n1").unwrap();
        let n2 = n.find_by_name("n2").unwrap();
        let f = n.find_by_name("f").unwrap();
        let _ = cache.net_delays(&n, &lib, &p, &cfg, n1);
        let _ = cache.net_delays(&n, &lib, &p, &cfg, n2);
        n.swap_pin_drivers(PinRef::new(f, 0), PinRef::new(f, 1)).unwrap();
        cache.invalidate_topology(n1);
        cache.invalidate_topology(n2);
        for d in [n1, n2] {
            let fresh = gate_output_delay(&n, &lib, &p, &cfg, d);
            assert_eq!(cache.gate_output_delay(&n, &lib, &p, &cfg, d), fresh);
        }
    }
}
