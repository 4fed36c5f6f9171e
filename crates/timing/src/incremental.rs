//! Incremental (dirty-cone) static timing analysis.
//!
//! The paper's optimization loops apply long sequences of local moves — pin
//! swaps and drive-strength changes — and between moves only the timing of
//! the affected fan-out cone (arrivals) and fan-in cone (required times)
//! changes.  [`IncrementalSta`] owns the arrival/required/parasitic arrays
//! plus a compiled view of the network (its level-major schedule: gate
//! order, level map and output mask).  Its constructor runs the one full
//! analysis, sweeping the shared per-gate kernels over the whole network
//! exactly as [`Sta::analyze`] does; from then on
//! [`IncrementalSta::update`] takes the set of gates whose connectivity or
//! drive strength changed, refreshes their parasitics, and drains a
//! **level-bucketed dirty frontier**: dirty gates land in per-level
//! buckets, levels drain lowest-first for arrivals and highest-first for
//! required times, and each frontier is pruned as soon as a recomputed
//! value is bit-identical to the stored one.  Because a gate's sinks sit
//! at strictly higher levels (and its drivers at strictly lower ones), a
//! bucket can never grow while it drains, and every dirty gate is
//! evaluated exactly once — no priority queue needed.
//!
//! # Compiled-view lifecycle
//!
//! The view is a point-in-time snapshot, and `update` keeps one rule: when
//! the network's slot count changed (inverting swaps appended inverters, or
//! a rolled-back pass popped them), or a touched gate no longer sits at a
//! strictly higher level than all its fan-ins or changed whether it drives
//! an output port, the per-slot arrays are resized to the network and the
//! view is recompiled — an O(V+E) sort, no parasitic work — before the same
//! dirty-cone sweeps run.  Checking the touched gates is enough, because
//! untouched edges kept their compile-time levels; the view holds no
//! edges, and the kernels read the live network adjacency.
//!
//! Because the kernels and fold orders are shared, an update reproduces a
//! from-scratch analysis of the same network bit for bit, provided every
//! net whose sink list changed since it was last refreshed — its members
//! or their order — is covered by the touched set.
//! [`IncrementalSta::verify_matches_full`] checks that against the
//! *reference* analysis ([`Sta::analyze_reference`]), which runs the same
//! propagation kernels, pinned against textbook per-edge arithmetic by the
//! direct-chaining tests of [`crate::sta`], but builds its parasitics
//! independently (two stars per net), so a defect in the one-star
//! parasitics or in the dirty-cone scheduling cannot validate itself.
//! Inside the optimizers that proviso does not hold exactly: undoing a
//! candidate probe restores every pin but can leave a driver's fan-out list
//! permuted, and a net no update refreshes keeps parasitics folded in its
//! old sink order, within a few ulps of a fresh fold.

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
    /// Number of from-scratch analyses.  Only the constructor runs one, so
    /// this is 1 for every engine; `perfbench` reports it as
    /// `timing.full_retimes`.
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
        }
    }

    /// The current timing state.  Valid until the next `update` call.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// `true` if the compiled view still schedules the touched gates: every
    /// touched gate is covered, sees all its fan-ins at strictly lower
    /// levels, and drives an output port exactly when the view says so.
    /// (Level validity at the touched gates implies the level-major order
    /// is still a topological order — untouched edges kept their
    /// compile-time levels.)
    fn view_still_valid(&self, network: &Network, touched: &[GateId]) -> bool {
        touched.iter().all(|&g| {
            if !network.is_live(g) {
                return true;
            }
            let lg = self.view.level_of(g);
            lg != u32::MAX
                && self.view.drives_output(g) == network.drives_output(g)
                && network.fanins(g).iter().all(|f| {
                    let lf = self.view.level_of(*f);
                    lf != u32::MAX && lf < lg
                })
        })
    }

    /// Dirty-cone update after a batch of local moves.
    ///
    /// `touched` must contain every gate whose fan-in list, fan-out set,
    /// drive strength or output ports changed since the last `update`.  A
    /// pin swap touches the two pins' gates (their old and new drivers are
    /// then covered automatically, because both remain fan-ins of the
    /// touched pair); a resize touches the resized gate; an inverting swap
    /// additionally touches the inserted inverters (their fan-ins — the
    /// exchanged drivers, whose sink sets changed — are then covered
    /// automatically too).  Duplicates and tomb-stoned or popped ids are
    /// fine.
    ///
    /// Every edit takes this one path.  When the slot count changed
    /// (inverting swaps inserted inverters, or a rolled-back pass popped
    /// them) or the compiled view no longer schedules the touched gates,
    /// the per-slot arrays are first resized to the network — new slots
    /// neutral, popped slots dropped — and the view is recompiled (an
    /// O(V+E) sort, no parasitic work); the ordinary dirty-cone sweeps then
    /// time the edit.
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
        if network.gate_count() != self.view.slots() || !self.view_still_valid(network, touched) {
            self.report.resize_slots(network.gate_count());
            self.view = LevelizedView::build(network)
                .expect("incremental timing requires an acyclic network");
        }
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
    fn shrunk_network_stays_incremental() {
        let mut n = diamond();
        let (mut p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let m1 = n.find_by_name("m1").unwrap();
        let driver = n.fanins(m1)[0];
        let inv = n.insert_inverter(PinRef::new(m1, 0), "late_inv").unwrap();
        p.host_at(inv, p.position(driver));
        inc.update(&n, &lib, &p, &[m1, inv]);
        // Undo the insertion and pop the slot: the arrays are now longer
        // than the network, so the update truncates them.
        n.replace_pin_driver(PinRef::new(m1, 0), driver).unwrap();
        assert!(n.remove_if_dangling(inv));
        assert!(n.pop_trailing_tombstone());
        p.truncate_slots(n.gate_count());
        inc.update(&n, &lib, &p, &[m1, inv]);
        assert_eq!(inc.stats().full_refreshes, 1, "shrinking must not force a full analysis");
        assert_eq!(inc.stats().incremental_updates, 2);
        assert!(!inc.report().covers(inv), "the popped slot leaves the report");
        inc.verify_matches_full(&n, &lib, &p).unwrap();
    }

    #[test]
    fn level_violating_rewire_stays_incremental() {
        let mut n = diamond();
        let (p, lib, cfg) = setup(&n);
        let mut inc = IncrementalSta::new(&n, &lib, &p, &cfg);
        let n1 = n.find_by_name("n1").unwrap();
        let n2 = n.find_by_name("n2").unwrap();
        let c = n.find_by_name("c").unwrap();
        // n1 and n2 both sit at level 1, so n2 reading n1 breaks the
        // compiled levels; c loses its only sink.
        n.replace_pin_driver(PinRef::new(n2, 0), n1).unwrap();
        inc.update(&n, &lib, &p, &[n2, c]);
        assert_eq!(
            inc.stats().full_refreshes,
            1,
            "a level violation must not force a full analysis"
        );
        assert_eq!(inc.stats().incremental_updates, 1);
        inc.verify_matches_full(&n, &lib, &p).unwrap();
    }
}
