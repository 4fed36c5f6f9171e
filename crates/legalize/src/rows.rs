//! The occupancy row model: who sits where, in integer sites.
//!
//! A [`RowModel`] is derived from a **legal** placement (every footprint on
//! the row/site grid, no overlaps — see
//! [`rapids_placement::Placement::check_legal`]) and then kept current by
//! whoever moves gates: the refinement pass releases and re-occupies slots
//! as it relocates gates, and the optimizer's inverting-swap path occupies a
//! slot for every accepted inverter ([`RowModel::nudge_occupy`]).
//!
//! All queries are deterministic: rows and gaps are visited in a fixed
//! order and ties are broken toward the nearer row, then the lower row,
//! then the smaller site, so two runs agree exactly (the optimizer consults
//! the model only when it accepts an inverter, in acceptance order).

use std::collections::{BTreeMap, HashMap};

use rapids_celllib::Library;
use rapids_netlist::{GateId, Network};
use rapids_placement::{gate_width_sites, Placement, Point, Region};

/// Integer-site occupancy of every standard-cell row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowModel {
    region: Region,
    site_count: usize,
    /// Per row: start site → (width in sites, occupant).  Keys are interval
    /// starts; intervals never overlap (guaranteed by the legal-placement
    /// precondition and checked on every occupy in debug builds).
    rows: Vec<BTreeMap<usize, (usize, GateId)>>,
    /// Reverse index for release: occupant → (row, start site, width).
    gates: HashMap<GateId, (usize, usize, usize)>,
    /// How many [`RowModel::nudge_occupy`] calls found no free slot and
    /// fell back to the caller's default policy.
    nudge_misses: usize,
}

impl RowModel {
    /// Builds the model from a legal placement: every live gate occupies
    /// `gate_width_sites` sites starting at its quantized position.
    ///
    /// # Panics
    ///
    /// Debug builds panic if two footprints collide — i.e. if the placement
    /// was not legal (run [`crate::legalize`] first).
    pub fn build(network: &Network, library: &Library, placement: &Placement) -> Self {
        let region = placement.region();
        let mut model = RowModel {
            region,
            site_count: region.site_count(),
            rows: vec![BTreeMap::new(); region.row_count()],
            gates: HashMap::new(),
            nudge_misses: 0,
        };
        for g in network.iter_live() {
            let p = placement.position(g);
            model.occupy(
                g,
                region.nearest_row(p.y_um),
                region.nearest_site(p.x_um),
                gate_width_sites(network, library, g),
            );
        }
        model
    }

    /// The placement region the model quantizes against.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Number of gates currently occupying a slot.
    pub fn occupied_gates(&self) -> usize {
        self.gates.len()
    }

    /// How many nudge requests found no free slot (the caller then falls
    /// back to stacking the inverter on its driver, which may leave the
    /// grown placement illegal).
    pub fn nudge_misses(&self) -> usize {
        self.nudge_misses
    }

    /// The (row, start site, width) a gate currently occupies, if any.
    pub fn slot_of(&self, gate: GateId) -> Option<(usize, usize, usize)> {
        self.gates.get(&gate).copied()
    }

    /// The placement point of a slot: the left edge of `site`, on the
    /// center line of `row`.
    pub fn slot_point(&self, row: usize, site: usize) -> Point {
        Point::new(self.region.site_x_um(site), self.region.row_center_y_um(row))
    }

    /// `true` when sites `site..site + width` of `row` are inside the row
    /// and free.
    pub fn is_free(&self, row: usize, site: usize, width: usize) -> bool {
        if row >= self.rows.len() || site + width > self.site_count {
            return false;
        }
        let occupied = &self.rows[row];
        // The predecessor interval must end at or before `site` …
        if let Some((&start, &(w, _))) = occupied.range(..site + width).next_back() {
            if start + w > site && start < site + width {
                return false;
            }
        }
        // … and by the range bound above no interval starts inside the
        // candidate, so one backward probe decides it.
        true
    }

    /// Marks `width` sites of `row` starting at `site` as occupied by
    /// `gate`.  The gate must not already hold a slot.
    pub fn occupy(&mut self, gate: GateId, row: usize, site: usize, width: usize) {
        debug_assert!(self.is_free(row, site, width), "occupy of a non-free slot for {gate}");
        debug_assert!(!self.gates.contains_key(&gate), "{gate} already occupies a slot");
        self.rows[row].insert(site, (width, gate));
        self.gates.insert(gate, (row, site, width));
    }

    /// Frees the slot held by `gate`.  Returns `false` (and does nothing)
    /// when the gate holds none — undo paths call this unconditionally.
    pub fn release(&mut self, gate: GateId) -> bool {
        match self.gates.remove(&gate) {
            Some((row, site, _)) => {
                self.rows[row].remove(&site);
                true
            }
            None => false,
        }
    }

    /// The free slot of `width` sites nearest to `desired` (Manhattan
    /// distance from the slot's left edge / row center), or `None` when no
    /// row has a wide-enough gap.  Ties break toward the nearer row, then
    /// the lower row, then the smaller site — a fixed total order, so the
    /// answer depends only on the occupancy state.
    ///
    /// This runs once per accepted ES inverter and per refinement move, so
    /// like the legalizer's row search it walks rows outward from the
    /// desired one and stops as soon as a whole distance ring's y cost
    /// already matches the best slot found — no full-die scan per nudge.
    pub fn nearest_free_slot(&self, desired: Point, width: usize) -> Option<(usize, usize)> {
        let desired_site = self.region.nearest_site(desired.x_um);
        let desired_row = self.region.nearest_row(desired.y_um);
        let row_count = self.rows.len();
        let mut best: Option<(f64, usize, usize)> = None;
        for distance in 0..row_count {
            let below = desired_row.checked_sub(distance);
            let above =
                (distance > 0).then_some(desired_row + distance).filter(|&row| row < row_count);
            if below.is_none() && above.is_none() {
                break;
            }
            let mut ring_min_y_cost = f64::INFINITY;
            for row in [below, above].into_iter().flatten() {
                let y_cost = (self.region.row_center_y_um(row) - desired.y_um).abs();
                ring_min_y_cost = ring_min_y_cost.min(y_cost);
                if best.as_ref().is_some_and(|&(cost, _, _)| y_cost >= cost) {
                    continue;
                }
                if let Some(site) = self.best_gap_in_row(row, width, desired_site) {
                    let cost = y_cost + (self.region.site_x_um(site) - desired.x_um).abs();
                    if best.as_ref().is_none_or(|&(c, _, _)| cost < c) {
                        best = Some((cost, row, site));
                    }
                }
            }
            if best.as_ref().is_some_and(|&(cost, _, _)| ring_min_y_cost >= cost) {
                break;
            }
        }
        best.map(|(_, row, site)| (row, site))
    }

    /// Finds the nearest free slot to `desired`, occupies it for `gate`,
    /// and returns its placement point.  On a miss (no gap anywhere wide
    /// enough) the miss counter is bumped and the caller keeps its default
    /// policy.
    pub fn nudge_occupy(&mut self, gate: GateId, desired: Point, width: usize) -> Option<Point> {
        match self.nearest_free_slot(desired, width) {
            Some((row, site)) => {
                self.occupy(gate, row, site, width);
                rapids_obs::metrics::counter("legalize.nudges").inc();
                Some(self.slot_point(row, site))
            }
            None => {
                self.nudge_misses += 1;
                rapids_obs::metrics::counter("legalize.nudge_fallbacks").inc();
                None
            }
        }
    }

    /// The start site, within one row, of the free gap of at least `width`
    /// sites whose clamped position is nearest to `desired_site`.
    fn best_gap_in_row(&self, row: usize, width: usize, desired_site: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (site distance, site)
        let consider = |gap_start: usize, gap_end: usize, best: &mut Option<(usize, usize)>| {
            if gap_end >= gap_start + width {
                let site = desired_site.clamp(gap_start, gap_end - width);
                let key = (site.abs_diff(desired_site), site);
                if best.is_none_or(|b| key < b) {
                    *best = Some(key);
                }
            }
        };
        let mut frontier = 0usize;
        for (&start, &(w, _)) in &self.rows[row] {
            if start > frontier {
                consider(frontier, start, &mut best);
            }
            frontier = frontier.max(start + w);
        }
        consider(frontier, self.site_count, &mut best);
        best.map(|(_, site)| site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::{GateType, NetworkBuilder};

    fn tiny() -> (Network, Library) {
        let mut b = NetworkBuilder::new("rows");
        b.inputs(["a", "b"]);
        b.gate("f", GateType::Nand, &["a", "b"]);
        b.output("f");
        (b.finish().unwrap(), Library::standard_035um())
    }

    fn empty_model(width_um: f64, rows: usize) -> RowModel {
        let region = Region { width_um, height_um: rows as f64 * 13.0, row_height_um: 13.0 };
        RowModel {
            region,
            site_count: region.site_count(),
            rows: vec![BTreeMap::new(); rows],
            gates: HashMap::new(),
            nudge_misses: 0,
        }
    }

    #[test]
    fn build_reflects_the_placement() {
        let (n, lib) = tiny();
        let region = Region { width_um: 80.0, height_um: 26.0, row_height_um: 13.0 };
        let mut p = Placement::new(region, n.gate_count());
        let ids: Vec<GateId> = n.iter_live().collect();
        for (i, &g) in ids.iter().enumerate() {
            p.set_position(g, Point::new(region.site_x_um(i * 10), region.row_center_y_um(0)));
        }
        let model = RowModel::build(&n, &lib, &p);
        assert_eq!(model.occupied_gates(), ids.len());
        let (row, site, w) = model.slot_of(ids[1]).unwrap();
        assert_eq!((row, site), (0, 10));
        assert!(w >= 1);
    }

    #[test]
    fn occupy_release_round_trips_exactly() {
        let mut model = empty_model(40.0, 2);
        let before = model.clone();
        model.occupy(GateId(7), 1, 12, 6);
        assert!(!model.is_free(1, 10, 4), "tail of the candidate is taken");
        assert!(!model.is_free(1, 14, 2), "middle of the interval is taken");
        assert!(model.is_free(1, 6, 6));
        assert!(model.is_free(1, 18, 6));
        assert!(model.release(GateId(7)));
        assert!(!model.release(GateId(7)), "double release is a no-op");
        assert_eq!(model, before, "occupy → release must round-trip the state exactly");
    }

    #[test]
    fn nearest_slot_prefers_same_row_and_clamps_into_gaps() {
        let mut model = empty_model(40.0, 3); // 50 sites per row
                                              // Row 1 is blocked at sites 20..30; desired lands inside the block.
        model.occupy(GateId(1), 1, 20, 10);
        let desired = model.slot_point(1, 24);
        let (row, site) = model.nearest_free_slot(desired, 4).unwrap();
        // The nearest gap edge in the same row wins over a row change.
        assert_eq!(row, 1);
        assert!(site == 16 || site == 30, "clamped against the blocked interval, got {site}");
        // A slot wider than any gap in row 1 must fit elsewhere.
        model.occupy(GateId(2), 1, 0, 20);
        model.occupy(GateId(3), 1, 30, 20);
        let (row, _) = model.nearest_free_slot(desired, 4).unwrap();
        assert_ne!(row, 1);
    }

    #[test]
    fn nudge_occupies_and_counts_misses() {
        let mut model = empty_model(8.0, 1); // 10 sites, one row
        let p = model.nudge_occupy(GateId(4), Point::new(0.0, 6.5), 6).unwrap();
        assert_eq!(model.slot_of(GateId(4)), Some((0, 0, 6)));
        assert_eq!(model.region().nearest_site(p.x_um), 0);
        // Only 4 sites remain: a 6-site request misses and is counted.
        assert!(model.nudge_occupy(GateId(5), Point::new(0.0, 6.5), 6).is_none());
        assert_eq!(model.nudge_misses(), 1);
        // A 4-site request still fits.
        assert!(model.nudge_occupy(GateId(5), Point::new(0.0, 6.5), 4).is_some());
        assert_eq!(model.occupied_gates(), 2);
    }

    #[test]
    fn ties_break_toward_the_nearer_row_then_lower_then_smaller_site() {
        let model = empty_model(40.0, 4);
        // Desired exactly between rows 1 and 2: both cost 6.5 µm in y, and
        // the search starts from the quantized nearest row (2, rounding
        // half up), so the distance-0 ring wins the tie deterministically.
        let desired = Point::new(model.region().site_x_um(5), 2.0 * 13.0);
        let (row, site) = model.nearest_free_slot(desired, 4).unwrap();
        assert_eq!((row, site), (2, 5));
        // On the center line of a row there is no tie at all.
        let centered = Point::new(model.region().site_x_um(5), model.region().row_center_y_um(1));
        assert_eq!(model.nearest_free_slot(centered, 4), Some((1, 5)));
        // Within one ring the lower row wins: block row 2 so rows 1 and 3
        // (equidistant from `desired`'s ring-0 row) compete at distance 1.
        let mut blocked = model.clone();
        blocked.occupy(GateId(9), 2, 0, 50);
        let (row, site) = blocked.nearest_free_slot(desired, 4).unwrap();
        assert_eq!((row, site), (1, 5));
    }
}
