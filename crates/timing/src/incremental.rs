//! Incremental (dirty-cone) static timing analysis.
//!
//! The paper's optimization loops apply long sequences of local moves — pin
//! swaps and drive-strength changes — and between moves only the timing of
//! the affected fan-out cone (arrivals) and fan-in cone (required times)
//! changes.  [`IncrementalSta`] owns the arrival/required/parasitic arrays
//! plus a compiled view of the network (its level-major schedule: gate
//! order, level map and output mask), and re-times exactly those cones:
//!
//! * [`IncrementalSta::full`] recompiles the view and sweeps the shared
//!   per-gate kernels over the whole network, exactly as [`Sta::analyze`]
//!   does;
//! * [`IncrementalSta::update`] takes the set of gates whose connectivity or
//!   drive strength changed, refreshes their parasitics, and drains a
//!   **level-bucketed dirty frontier**: dirty gates land in per-level
//!   buckets, levels drain lowest-first for arrivals and highest-first for
//!   required times, and each frontier is pruned as soon as a recomputed
//!   value is bit-identical to the stored one.  Because a gate's sinks sit
//!   at strictly higher levels (and its drivers at strictly lower ones), a
//!   bucket can never grow while it drains, and every dirty gate is
//!   evaluated exactly once — no priority queue needed.
//!
//! # Compiled-view lifecycle (invalidation rules)
//!
//! The view is a point-in-time snapshot; `update` enforces the rules and
//! debug-asserts them:
//!
//! * **growth** (inverting swaps appended gates): the view is recompiled in
//!   place — an O(V+E) sort, no parasitic work — and the update stays
//!   incremental;
//! * **shrink** (a rolled-back pass popped trailing slots): full fallback;
//! * **local rewires**: the cached *levels* stay usable as a schedule as
//!   long as every touched gate still sees all its fan-ins at strictly
//!   lower levels; a violation falls back to a full analysis.  The view
//!   holds no edges: the kernels read the live network adjacency.
//!
//! Because the kernels and fold orders are shared, an update converges to
//! **bit-identical** state to a from-scratch analysis of the same network —
//! a property cheap enough to check on the fly: a seeded self-check mode
//! re-runs the full *reference* analysis ([`Sta::analyze_reference`]) on a
//! random subset of updates and asserts equality (see
//! [`IncrementalSta::enable_self_check`]).  The reference runs the same
//! propagation kernels, which the direct-chaining tests of
//! [`crate::sta`] pin against textbook per-edge arithmetic, but builds its
//! parasitics independently (two stars per net), so a defect in the
//! one-star parasitics or in the dirty-cone scheduling cannot validate
//! itself.

use rapids_celllib::Library;
use rapids_netlist::{GateId, Network};
use rapids_placement::Placement;

use crate::levelized::{analyze_with_view, refresh_parasitics_fast, LevelizedView};
use crate::rc::TimingConfig;
use crate::sta::{arrival_of, clamp_required, required_raw_of, Sta, TimingReport};

/// Counters describing how much work the engine has done (useful for tests
/// and perf reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Number of from-scratch analyses (constructor, explicit `full` calls
    /// and automatic fallbacks).
    pub full_refreshes: usize,
    /// Number of dirty-cone updates that ran incrementally.
    pub incremental_updates: usize,
    /// Total gates whose arrival was recomputed by incremental updates.
    pub gates_retimed: usize,
}

/// Handles into the process-global metrics registry mirroring
/// [`IncrementalStats`].  The global counters aggregate every engine in
/// the process for the `rapids-obs` snapshot, so they cannot tell
/// concurrent engines apart; the per-engine struct isolates one engine's
/// work, which `perfbench` reads as `OptimizationOutcome::sta`.  Merging
/// the two waits on a per-job metrics scope (ROADMAP 6(c)).
#[derive(Debug, Clone)]
struct TimingCounters {
    full_refreshes: rapids_obs::Counter,
    incremental_updates: rapids_obs::Counter,
    gates_retimed: rapids_obs::Counter,
}

impl TimingCounters {
    fn from_global() -> Self {
        let registry = rapids_obs::global();
        TimingCounters {
            full_refreshes: registry.counter("timing.full_refreshes"),
            incremental_updates: registry.counter("timing.incremental_updates"),
            gates_retimed: registry.counter("timing.gates_retimed"),
        }
    }
}

/// Seeded self-check state: every update draws from a small LCG and one in
/// `one_in` updates is verified against a full analysis.
#[derive(Debug, Clone, Copy)]
struct SelfCheck {
    state: u64,
    one_in: u32,
}

impl SelfCheck {
    fn fires(&mut self) -> bool {
        // Numerical Recipes LCG; plenty for sampling a check probability.
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.one_in <= 1 || ((self.state >> 33) as u32).is_multiple_of(self.one_in)
    }
}

/// Incremental static timing engine.
///
/// Holds a [`TimingReport`] that is kept current across updates; consumers
/// that score candidates against a frozen report can keep borrowing
/// [`IncrementalSta::report`] between updates exactly as they borrowed the
/// result of a full analysis before.
#[derive(Debug, Clone)]
pub struct IncrementalSta {
    config: TimingConfig,
    report: TimingReport,
    /// Compiled level-major view; see the module docs for when it is
    /// recompiled versus reused.
    view: LevelizedView,
    stats: IncrementalStats,
    counters: TimingCounters,
    self_check: Option<SelfCheck>,
}

impl IncrementalSta {
    /// Builds the engine by running a full analysis.
    pub fn new(
        network: &Network,
        library: &Library,
        placement: &Placement,
        config: &TimingConfig,
    ) -> Self {
        let view =
            LevelizedView::build(network).expect("incremental timing requires an acyclic network");
        let counters = TimingCounters::from_global();
        let report = {
            let _span = rapids_obs::span("sta.full");
            analyze_with_view(&view, network, library, placement, config)
        };
        counters.full_refreshes.inc();
        IncrementalSta {
            config: *config,
            report,
            view,
            stats: IncrementalStats { full_refreshes: 1, ..IncrementalStats::default() },
            counters,
            self_check: None,
        }
    }

    /// Enables the seeded self-check: roughly one in `one_in` updates is
    /// cross-verified against a full reference analysis (panicking on
    /// drift).
    pub fn enable_self_check(&mut self, seed: u64, one_in: u32) {
        self.self_check = Some(SelfCheck { state: seed, one_in });
    }

    /// The current timing state.  Valid until the next `update`/`full` call.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The cached logic level of a gate (0 for sources).
    pub fn level(&self, gate: GateId) -> u32 {
        self.view.level_of(gate)
    }

    /// Recompiles the view for the network's current structure (levels,
    /// order, output mask) without any parasitic work.
    fn rebuild_view(&mut self, network: &Network) {
        self.view =
            LevelizedView::build(network).expect("incremental timing requires an acyclic network");
        debug_assert_eq!(
            self.view.slots(),
            network.gate_count(),
            "recompiled view must cover every slot of the grown network"
        );
    }

    /// Re-times the whole network from scratch (recompiling the view and
    /// sweeping it).  Use after structural edits too
    /// large or too irregular to describe as a touched set (e.g. redirected
    /// output ports).
    pub fn full(&mut self, network: &Network, library: &Library, placement: &Placement) {
        let _span = rapids_obs::span("sta.full");
        self.rebuild_view(network);
        self.report = analyze_with_view(&self.view, network, library, placement, &self.config);
        self.stats.full_refreshes += 1;
        self.counters.full_refreshes.inc();
    }

    /// `true` if the compiled levels are still a valid schedule around the
    /// touched gates: every touched gate is covered and sees all its
    /// fan-ins at strictly lower levels.  (Level validity at the touched
    /// gates implies the level-major order is still a topological order —
    /// untouched edges kept their compile-time levels.)
    fn view_still_valid(&self, network: &Network, touched: &[GateId]) -> bool {
        touched.iter().all(|&g| {
            if !network.is_live(g) {
                return true;
            }
            let lg = self.view.level_of(g);
            lg != u32::MAX
                && network.fanins(g).iter().all(|f| {
                    let lf = self.view.level_of(*f);
                    lf != u32::MAX && lf < lg
                })
        })
    }

    /// Dirty-cone update after a batch of local moves.
    ///
    /// `touched` must contain every gate whose fan-in list, fan-out set or
    /// drive strength changed since the last `update`/`full` call.  A pin
    /// swap touches the two pins' gates (their old and new drivers are then
    /// covered automatically, because both remain fan-ins of the touched
    /// pair); a resize touches the resized gate; an inverting swap
    /// additionally touches the inserted inverters (their fan-ins — the
    /// exchanged drivers, whose sink sets changed — are then covered
    /// automatically too).  Duplicates and tomb-stoned ids are fine.
    ///
    /// A network that **grew** since the last refresh (inverting swaps
    /// inserted inverters) stays on the incremental path: the per-slot
    /// arrays are extended with neutral values, the view is recompiled (an
    /// O(V+E) sort, no parasitic work), and the new gates are timed by the
    /// ordinary dirty-cone sweeps.  Only a network that *shrank* (a
    /// rolled-back pass popped its inverters) or an edit that invalidated
    /// the compiled levels around the touched gates falls back to a full
    /// analysis.
    pub fn update(
        &mut self,
        network: &Network,
        library: &Library,
        placement: &Placement,
        touched: &[GateId],
    ) {
        if touched.is_empty() {
            return;
        }
        let _span = rapids_obs::span("sta.update");
        if network.gate_count() > self.view.slots() {
            self.report.ensure_slots(network.gate_count());
            self.rebuild_view(network);
        } else if network.gate_count() < self.view.slots()
            || !self.view_still_valid(network, touched)
        {
            self.full(network, library, placement);
            return;
        }
        debug_assert!(
            self.view_still_valid(network, touched),
            "compiled view must be valid on the incremental path"
        );
        self.stats.incremental_updates += 1;
        self.counters.incremental_updates.inc();
        let slots = self.view.slots();

        // Seeds: the touched gates plus their fan-in drivers, whose nets see
        // a different pin load (resize) or sink set (swap).
        let mut seed_flag = vec![false; slots];
        let mut seeds: Vec<GateId> = Vec::new();
        let push_seed = |g: GateId, seeds: &mut Vec<GateId>, flag: &mut Vec<bool>| {
            if network.is_live(g) && !flag[g.index()] {
                flag[g.index()] = true;
                seeds.push(g);
            }
        };
        for &g in touched {
            if !network.is_live(g) {
                continue;
            }
            push_seed(g, &mut seeds, &mut seed_flag);
            for &f in network.fanins(g) {
                push_seed(f, &mut seeds, &mut seed_flag);
            }
        }

        // 1. Refresh parasitics of every seed (single star evaluation per
        //    gate; bit-identical to the historical double-compute kernel).
        for &g in &seeds {
            refresh_parasitics_fast(
                network,
                library,
                placement,
                &self.config,
                g,
                &mut self.report.net_delays,
                &mut self.report.gate_delays,
            );
        }

        // 2. Forward arrival propagation over the dirty fan-out cone, as a
        //    level-bucketed frontier (lowest level first).  The initial
        //    frontier is the seeds plus their sinks (whose input wire delays
        //    changed even if the driving arrival did not).  Sinks sit at
        //    strictly higher levels, so a bucket never grows while it
        //    drains.
        let mut buckets: Vec<Vec<GateId>> = vec![Vec::new(); self.view.num_levels()];
        let mut queued = vec![false; slots];
        let enqueue = |g: GateId,
                       buckets: &mut Vec<Vec<GateId>>,
                       queued: &mut Vec<bool>,
                       view: &LevelizedView| {
            let l = view.level_of(g);
            if !queued[g.index()] && l != u32::MAX {
                queued[g.index()] = true;
                buckets[l as usize].push(g);
            }
        };
        for &g in &seeds {
            enqueue(g, &mut buckets, &mut queued, &self.view);
            for &s in network.fanouts(g) {
                enqueue(s, &mut buckets, &mut queued, &self.view);
            }
        }
        for l in 0..buckets.len() {
            let bucket = std::mem::take(&mut buckets[l]);
            if bucket.is_empty() {
                continue;
            }
            self.stats.gates_retimed += bucket.len();
            self.counters.gates_retimed.add(bucket.len() as u64);
            // Gates of one level read only lower levels, so each fresh
            // arrival is stored (or pruned) as soon as it is computed.
            for g in bucket {
                let fresh = arrival_of(
                    network,
                    g,
                    &self.report.net_delays,
                    &self.report.gate_delays,
                    &self.report.arrival,
                );
                let slot = &mut self.report.arrival[g.index()];
                if fresh != *slot {
                    *slot = fresh;
                    for &s in network.fanouts(g) {
                        enqueue(s, &mut buckets, &mut queued, &self.view);
                    }
                }
            }
        }

        // 3. Critical delay and the (possibly floating) required-time budget.
        let critical = network
            .outputs()
            .iter()
            .map(|o| self.report.arrival[o.driver.index()].worst())
            .fold(0.0, f64::max);
        let old_required_time = self.report.required_time_ns;
        self.report.critical_delay_ns = critical;
        self.report.required_time_ns = self.config.required_time_ns.unwrap_or(critical);

        // 4. Backward required-time min-propagation.  When the floating
        //    budget moved, every required time shifts, so replay the whole
        //    arithmetic backward pass over the cached order — the expensive
        //    parasitic extraction above stays dirty-cone either way, and the
        //    replay reproduces the full analysis bit for bit.  With the
        //    budget unchanged, only the dirty fan-in cone is re-propagated,
        //    again as level buckets (highest level first; drivers sit at
        //    strictly lower levels, so a bucket never grows while draining).
        let t = self.report.required_time_ns;
        if t != old_required_time {
            for &g in self.view.order().iter().rev() {
                let fresh = required_raw_of(
                    network,
                    g,
                    &self.report.net_delays,
                    &self.report.gate_delays,
                    &self.report.required_raw,
                    self.view.drives_output(g),
                    t,
                );
                self.report.required_raw[g.index()] = fresh;
            }
            for (r, &raw) in self.report.required.iter_mut().zip(&self.report.required_raw) {
                *r = clamp_required(raw, t);
            }
        } else {
            // Initial frontier: the seeds (their outgoing wire delays
            // changed) plus their fan-ins (their sinks' cell delays changed).
            let mut buckets: Vec<Vec<GateId>> = vec![Vec::new(); self.view.num_levels()];
            let mut queued = vec![false; slots];
            for &g in &seeds {
                enqueue(g, &mut buckets, &mut queued, &self.view);
                for &f in network.fanins(g) {
                    enqueue(f, &mut buckets, &mut queued, &self.view);
                }
            }
            for l in (0..buckets.len()).rev() {
                for g in std::mem::take(&mut buckets[l]) {
                    let fresh = required_raw_of(
                        network,
                        g,
                        &self.report.net_delays,
                        &self.report.gate_delays,
                        &self.report.required_raw,
                        self.view.drives_output(g),
                        t,
                    );
                    let slot = &mut self.report.required_raw[g.index()];
                    // NaN-free domain: raw values are +INF or finite chains
                    // of finite delays, so bitwise comparison is a sound
                    // prune.
                    if fresh != *slot {
                        *slot = fresh;
                        self.report.required[g.index()] = clamp_required(fresh, t);
                        for &f in network.fanins(g) {
                            enqueue(f, &mut buckets, &mut queued, &self.view);
                        }
                    }
                }
            }
        }

        if let Some(check) = &mut self.self_check {
            if check.fires() {
                self.verify_matches_full(network, library, placement)
                    .expect("incremental timing drifted from the full analysis");
            }
        }
    }

    /// Cross-checks the incremental state against a from-scratch analysis
    /// by the *reference* engine ([`Sta::analyze_reference`]).  It shares
    /// the propagation kernels, which the direct-chaining tests of
    /// [`crate::sta`] pin, but builds its parasitics independently (two
    /// stars per net) and sweeps a plain topological order, so a defect in
    /// the one-star parasitics or the dirty-cone scheduling cannot validate
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching gate, if any.  All
    /// comparisons are exact: the engines share their fold orders, so
    /// agreement is bit-for-bit, not merely approximate.
    pub fn verify_matches_full(
        &self,
        network: &Network,
        library: &Library,
        placement: &Placement,
    ) -> Result<(), String> {
        let full = Sta::analyze_reference(network, library, placement, &self.config);
        if full.critical_delay_ns != self.report.critical_delay_ns {
            return Err(format!(
                "critical delay drifted: incremental {} vs full {}",
                self.report.critical_delay_ns, full.critical_delay_ns
            ));
        }
        if full.required_time_ns != self.report.required_time_ns {
            return Err(format!(
                "required time drifted: incremental {} vs full {}",
                self.report.required_time_ns, full.required_time_ns
            ));
        }
        for g in network.iter_live() {
            if full.arrival[g.index()] != self.report.arrival[g.index()] {
                return Err(format!(
                    "arrival drifted at {g}: incremental {:?} vs full {:?}",
                    self.report.arrival[g.index()],
                    full.arrival[g.index()]
                ));
            }
            let (fr, ir) = (full.required[g.index()], self.report.required[g.index()]);
            if fr != ir {
                return Err(format!("required drifted at {g}: incremental {ir} vs full {fr}"));
            }
            let (fraw, iraw) = (full.required_raw[g.index()], self.report.required_raw[g.index()]);
            if fraw != iraw && !(fraw.is_infinite() && iraw.is_infinite()) {
                return Err(format!(
                    "raw required drifted at {g}: incremental {iraw} vs full {fraw}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_celllib::{DriveStrength, Library};
    use rapids_netlist::{GateType, NetworkBuilder, PinRef};
    use rapids_placement::{place, PlacerConfig};

    fn diamond() -> Network {
        let mut b = NetworkBuilder::new("diamond");
        b.inputs(["a", "b", "c", "d"]);
        b.gate("n1", GateType::Nand, &["a", "b"]);
        b.gate("n2", GateType::Nor, &["c", "d"]);
        b.gate("m1", GateType::And, &["n1", "n2"]);
        b.gate("m2", GateType::Or, &["n1", "n2"]);
        b.gate("f", GateType::Nand, &["m1", "m2"]);
        b.output("f");
        b.finish().unwrap()
    }

    fn setup(n: &Network) -> (Placement, Library, TimingConfig) {
        let lib = Library::standard_035um();
        let p = place(n, &lib, &PlacerConfig::fast(), 17);
        (p, lib, TimingConfig::default())
    }

    #[test]
    fn fresh_engine_matches_full_analysis() {
        let n = diamond();
        let (p, lib, cfg) = setup(&n);
        let inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        assert!(inc.verify_matches_full(&n, &lib, &p).is_ok());
        assert_eq!(inc.stats().full_refreshes, 1);
        assert!(n.iter_live().all(|g| inc.level(g) != u32::MAX));
    }

    #[test]
    fn resize_update_matches_full_analysis() {
        let mut n = diamond();
        let (p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let m1 = n.find_by_name("m1").unwrap();
        n.gate_mut(m1).size_class = DriveStrength::X8.size_class();
        inc.update(&n, &lib, &p, &[m1]);
        assert_eq!(inc.stats().incremental_updates, 1);
        inc.verify_matches_full(&n, &lib, &p).unwrap();
        // Then every logic gate in turn, cycling through three strengths.
        let classes = [DriveStrength::X8, DriveStrength::X2, DriveStrength::X4];
        let gates: Vec<_> = n.iter_logic().collect();
        for (step, &g) in gates.iter().enumerate() {
            n.gate_mut(g).size_class = classes[step % classes.len()].size_class();
            inc.update(&n, &lib, &p, &[g]);
            inc.verify_matches_full(&n, &lib, &p).unwrap();
        }
    }

    #[test]
    fn swap_update_matches_full_analysis() {
        let mut n = diamond();
        let (p, lib, cfg) = setup(&n);
        n.refresh_topo_hint();
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let m1 = n.find_by_name("m1").unwrap();
        let m2 = n.find_by_name("m2").unwrap();
        // Swap the n1-pin of m1 with the n2-pin of m2.
        n.swap_pin_drivers(PinRef::new(m1, 0), PinRef::new(m2, 1)).unwrap();
        inc.update(&n, &lib, &p, &[m1, m2]);
        assert_eq!(inc.stats().incremental_updates, 1);
        inc.verify_matches_full(&n, &lib, &p).unwrap();
    }

    #[test]
    fn update_tracks_critical_delay_changes() {
        let mut n = diamond();
        let (p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let before = inc.report().critical_delay_ns();
        let f = n.find_by_name("f").unwrap();
        n.gate_mut(f).size_class = DriveStrength::X8.size_class();
        inc.update(&n, &lib, &p, &[f]);
        let after = inc.report().critical_delay_ns();
        assert!(
            (after - before).abs() > 1e-12,
            "resizing the output driver must move the critical delay"
        );
        assert_eq!(inc.report().required_time_ns(), after);
        // The floating budget moved, so every required time moved with it.
        inc.verify_matches_full(&n, &lib, &p).unwrap();
    }

    #[test]
    fn empty_touched_set_is_a_no_op() {
        let n = diamond();
        let (p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        inc.update(&n, &lib, &p, &[]);
        assert_eq!(inc.stats().incremental_updates, 0);
    }

    #[test]
    fn grown_network_stays_incremental_and_matches_full() {
        let mut n = diamond();
        let (mut p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let m1 = n.find_by_name("m1").unwrap();
        let driver = n.fanins(m1)[0];
        let inv = n.insert_inverter(PinRef::new(m1, 0), "late_inv").unwrap();
        // Host the inverter on top of its driver (the inverting-swap policy).
        p.host_at(inv, p.position(driver));
        inc.update(&n, &lib, &p, &[m1, inv]);
        assert_eq!(inc.stats().full_refreshes, 1, "growth must not force a full analysis");
        assert_eq!(inc.stats().incremental_updates, 1);
        inc.verify_matches_full(&n, &lib, &p).unwrap();
    }

    #[test]
    fn shrunk_network_falls_back_to_full() {
        let mut n = diamond();
        let (mut p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let m1 = n.find_by_name("m1").unwrap();
        let driver = n.fanins(m1)[0];
        let inv = n.insert_inverter(PinRef::new(m1, 0), "late_inv").unwrap();
        p.host_at(inv, p.position(driver));
        inc.update(&n, &lib, &p, &[m1, inv]);
        // Undo the insertion and pop the slot: the arrays are now longer
        // than the network, which must trigger the full fallback.
        n.replace_pin_driver(PinRef::new(m1, 0), driver).unwrap();
        assert!(n.remove_if_dangling(inv));
        assert!(n.pop_trailing_tombstone());
        p.truncate_slots(n.gate_count());
        inc.update(&n, &lib, &p, &[m1, inv]);
        assert_eq!(inc.stats().full_refreshes, 2);
        inc.verify_matches_full(&n, &lib, &p).unwrap();
    }

    #[test]
    fn self_check_passes_over_random_resizes() {
        let mut n = diamond();
        let (p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        inc.enable_self_check(0xfeed, 1);
        let classes = [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4, DriveStrength::X8];
        let gates: Vec<_> = n.iter_logic().collect();
        let mut rng = 0x12345u64;
        for step in 0..24 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let g = gates[(rng >> 33) as usize % gates.len()];
            let c = classes[(step as usize) % classes.len()];
            n.gate_mut(g).size_class = c.size_class();
            inc.update(&n, &lib, &p, &[g]);
        }
    }
}
