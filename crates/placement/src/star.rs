//! The analytical star interconnect model of Riess & Ettl, as adopted by the
//! paper (§6):
//!
//! > *"Each net is modeled as a star: the center of the star is the center of
//! > gravity of all its terminals.  A net is divided into several segments:
//! > from source to the star center and from the star center to each sink."*
//!
//! Each segment is later modeled as a lumped RC by `rapids-timing`.

use rapids_netlist::{GateId, Network};

use crate::geometry::{Placement, Point};

/// One segment of a star net: either source→center or center→sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarSegment {
    /// The sink gate this segment reaches (`None` for the source→center
    /// trunk segment).
    pub sink: Option<GateId>,
    /// Rectilinear length of the segment, µm.
    pub length_um: f64,
}

/// A net decomposed into star segments.
#[derive(Debug, Clone, PartialEq)]
pub struct StarNet {
    /// The driver gate of the net.
    pub driver: GateId,
    /// Center of gravity of all terminals.
    pub center: Point,
    /// The source→center trunk segment.
    pub trunk: StarSegment,
    /// One branch segment per sink, in fan-out order.
    pub branches: Vec<StarSegment>,
}

impl StarNet {
    /// Total wire length of the net (trunk plus all branches), µm.
    pub fn total_length_um(&self) -> f64 {
        self.trunk.length_um + self.branches.iter().map(|b| b.length_um).sum::<f64>()
    }
}

/// Builds the star decomposition of the net driven by `driver` under the
/// given placement.  A net with no sinks yields a degenerate star with zero
/// lengths.
pub fn net_star(network: &Network, placement: &Placement, driver: GateId) -> StarNet {
    let source = placement.position(driver);
    let sinks: Vec<GateId> = network.fanouts(driver).to_vec();
    if sinks.is_empty() {
        return StarNet {
            driver,
            center: source,
            trunk: StarSegment { sink: None, length_um: 0.0 },
            branches: Vec::new(),
        };
    }
    // Center of gravity over all terminals (source + sinks).
    let mut sum_x = source.x_um;
    let mut sum_y = source.y_um;
    for &s in &sinks {
        let p = placement.position(s);
        sum_x += p.x_um;
        sum_y += p.y_um;
    }
    let count = (sinks.len() + 1) as f64;
    let center = Point::new(sum_x / count, sum_y / count);
    let trunk = StarSegment { sink: None, length_um: source.manhattan_distance_um(&center) };
    let branches = sinks
        .iter()
        .map(|&s| StarSegment {
            sink: Some(s),
            length_um: center.manhattan_distance_um(&placement.position(s)),
        })
        .collect();
    StarNet { driver, center, trunk, branches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Region;
    use rapids_netlist::{GateType, NetworkBuilder};

    fn placed_net() -> (Network, Placement) {
        let mut b = NetworkBuilder::new("star");
        b.inputs(["a"]);
        b.gate("s1", GateType::Inv, &["a"]);
        b.gate("s2", GateType::Buf, &["a"]);
        b.gate("s3", GateType::Inv, &["a"]);
        b.output("s1");
        b.output("s2");
        b.output("s3");
        let n = b.finish().unwrap();
        let region = Region { width_um: 100.0, height_um: 100.0, row_height_um: 10.0 };
        let mut p = Placement::new(region, n.gate_count());
        p.set_position(n.find_by_name("a").unwrap(), Point::new(0.0, 0.0));
        p.set_position(n.find_by_name("s1").unwrap(), Point::new(20.0, 0.0));
        p.set_position(n.find_by_name("s2").unwrap(), Point::new(0.0, 20.0));
        p.set_position(n.find_by_name("s3").unwrap(), Point::new(20.0, 20.0));
        (n, p)
    }

    #[test]
    fn center_of_gravity() {
        let (n, p) = placed_net();
        let a = n.find_by_name("a").unwrap();
        let star = net_star(&n, &p, a);
        assert!((star.center.x_um - 10.0).abs() < 1e-9);
        assert!((star.center.y_um - 10.0).abs() < 1e-9);
        assert_eq!(star.branches.len(), 3);
        // Trunk: (0,0) to (10,10) = 20; each branch = 20 or 20 or 20.
        assert!((star.trunk.length_um - 20.0).abs() < 1e-9);
        assert!((star.total_length_um() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn per_sink_lengths_vary() {
        let (n, mut p) = placed_net();
        let a = n.find_by_name("a").unwrap();
        let s1 = n.find_by_name("s1").unwrap();
        // Move s1 far away; its branch must be longer than the others.
        p.set_position(s1, Point::new(90.0, 90.0));
        let star = net_star(&n, &p, a);
        let branch_to = |sink: GateId| star.branches.iter().find(|b| b.sink == Some(sink));
        let d1 = branch_to(s1).unwrap().length_um;
        let d2 = branch_to(n.find_by_name("s2").unwrap()).unwrap().length_um;
        assert!(d1 > d2);
        assert!(branch_to(a).is_none());
    }

    #[test]
    fn degenerate_star_for_sinkless_net() {
        let (n, p) = placed_net();
        let s1 = n.find_by_name("s1").unwrap();
        let star = net_star(&n, &p, s1);
        assert!(star.branches.is_empty());
        assert_eq!(star.total_length_um(), 0.0);
    }
}
