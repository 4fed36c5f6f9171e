//! Topological ordering, levelization and reverse-topological traversal.
//!
//! The GISG extraction of §3.2 processes gates "in a reverse topological
//! order" starting from the primary outputs; static timing analysis processes
//! them forward.  Both orders are produced here.

use crate::gate::GateId;
use crate::network::Network;

/// Returns the live gates of the network in topological order (every driver
/// precedes its sinks), or `None` if the network contains a cycle.
///
/// Sources (primary inputs and constants) come first.  Tomb-stoned gates are
/// skipped.
pub fn topological_order(network: &Network) -> Option<Vec<GateId>> {
    let n = network.gate_count();
    let mut indegree = vec![0usize; n];
    let mut live = vec![false; n];
    for id in network.iter_live() {
        live[id.index()] = true;
        indegree[id.index()] = network.fanins(id).len();
    }
    let mut queue: Vec<GateId> =
        network.iter_live().filter(|&g| indegree[g.index()] == 0).collect();
    let mut order = Vec::with_capacity(network.live_gate_count());
    let mut head = 0;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        order.push(g);
        for &s in network.fanouts(g) {
            if !live[s.index()] {
                continue;
            }
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() == network.live_gate_count() {
        Some(order)
    } else {
        None
    }
}

/// Returns the live gates in reverse topological order (every sink precedes
/// its drivers), or `None` if the network contains a cycle.
pub fn reverse_topological_order(network: &Network) -> Option<Vec<GateId>> {
    topological_order(network).map(|mut v| {
        v.reverse();
        v
    })
}

/// Logic level of every gate: inputs/constants are level 0, every other gate
/// is `1 + max(level of fanins)`.  Indexed by `GateId::index()`; slots of
/// tomb-stoned gates hold 0.
///
/// # Panics
///
/// Panics if the network contains a cycle (checked in debug via the
/// topological sort).
pub fn levels(network: &Network) -> Vec<usize> {
    let order = topological_order(network).expect("levelization requires an acyclic network");
    levels_from_order(network, &order)
}

/// [`levels`] over an already-computed topological order, so callers that
/// already hold the order (the timing crate's level-major schedule) do not
/// pay for a second Kahn sweep.  `order` must be a valid topological order of
/// the network's live gates; with a stale or partial order the result is
/// unspecified (but the function does not panic).
pub fn levels_from_order(network: &Network, order: &[GateId]) -> Vec<usize> {
    let mut level = vec![0usize; network.gate_count()];
    for &g in order {
        let l = network.fanins(g).iter().map(|f| level[f.index()] + 1).max().unwrap_or(0);
        level[g.index()] = l;
    }
    level
}

/// Maximum logic level over the drivers of all primary outputs (the depth of
/// the combinational network).
pub fn depth(network: &Network) -> usize {
    let level = levels(network);
    network.outputs().iter().map(|o| level[o.driver.index()]).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateType;

    fn chain() -> (Network, Vec<GateId>) {
        // a -> inv -> inv -> ... 5 levels deep
        let mut n = Network::new("chain");
        let a = n.add_input("a");
        let mut ids = vec![a];
        let mut prev = a;
        for i in 0..5 {
            let g = n.add_gate(GateType::Inv, &[prev], format!("i{i}")).unwrap();
            ids.push(g);
            prev = g;
        }
        n.add_output(prev, "out");
        (n, ids)
    }

    #[test]
    fn topological_respects_edges() {
        let (n, _) = chain();
        let order = topological_order(&n).unwrap();
        assert_eq!(order.len(), n.live_gate_count());
        let pos: Vec<usize> = {
            let mut p = vec![0; n.gate_count()];
            for (i, g) in order.iter().enumerate() {
                p[g.index()] = i;
            }
            p
        };
        for g in n.iter_live() {
            for &f in n.fanins(g) {
                assert!(pos[f.index()] < pos[g.index()]);
            }
        }
    }

    #[test]
    fn reverse_is_reversed() {
        let (n, _) = chain();
        let fwd = topological_order(&n).unwrap();
        let mut rev = reverse_topological_order(&n).unwrap();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn levels_and_depth_of_chain() {
        let (n, ids) = chain();
        let lv = levels(&n);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(lv[id.index()], i);
        }
        assert_eq!(depth(&n), 5);
    }

    #[test]
    fn balanced_tree_levels() {
        let mut n = Network::new("tree");
        let leaves: Vec<GateId> = (0..4).map(|i| n.add_input(format!("x{i}"))).collect();
        let l1a = n.add_gate(GateType::And, &[leaves[0], leaves[1]], "l1a").unwrap();
        let l1b = n.add_gate(GateType::And, &[leaves[2], leaves[3]], "l1b").unwrap();
        let root = n.add_gate(GateType::Or, &[l1a, l1b], "root").unwrap();
        n.add_output(root, "f");
        let lv = levels(&n);
        assert_eq!(lv[root.index()], 2);
        assert_eq!(depth(&n), 2);
    }

    #[test]
    fn levels_from_cached_order_match_fresh_levels() {
        let (n, _) = chain();
        let order = topological_order(&n).unwrap();
        assert_eq!(levels_from_order(&n, &order), levels(&n));
    }

    #[test]
    fn skips_tombstoned_gates() {
        let (mut n, ids) = chain();
        // Detach the last inverter from the output and instead use ids[4].
        let last = *ids.last().unwrap();
        n.replace_all_uses(last, ids[4]).unwrap();
        let order = topological_order(&n).unwrap();
        assert!(!order.contains(&last));
        assert_eq!(order.len(), n.live_gate_count());
    }
}
