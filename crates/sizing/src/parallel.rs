//! Deterministic work partitioning for parallel candidate scoring.
//!
//! The min-slack and relaxation phases visit items (gates or supergates) in
//! a fixed priority order; a decision for one item only perturbs the timing
//! of its *region* (the nets it loads and drives).  Consecutive items whose
//! regions are pairwise disjoint can therefore be scored concurrently and
//! applied in the original order, reproducing the sequential decisions.
//!
//! # The `threads` determinism contract
//!
//! This module is the one normative statement of what every `threads` knob
//! in the workspace (`SizerConfig::threads`, `OptimizerConfig::threads`,
//! `PipelineConfig::threads`, `table1 --threads`) guarantees:
//!
//! * **Decisions are thread-count invariant.**  Every thread count visits
//!   the same items in the same order and accepts the same resizes and
//!   swaps — including inverting (ES) swaps, whose probe inverters are
//!   inserted and popped symmetrically on worker clones and on the main
//!   network, so candidate ids and hosted positions agree by construction.
//! * **Sizing results are bit-exact** across thread counts: a resize leaves
//!   no trace beyond the chosen class, so replaying identical decisions
//!   yields identical networks and reports.
//! * **Rewiring numbers can differ in the final ulp** after a rolled-back
//!   pass: sequential probing permutes the main network's fan-out list
//!   order (apply/undo uses `swap_remove`), worker clones permute only
//!   their private copies, and Elmore/star sums fold in fan-out order.
//!   Accepted decisions and swap counts still match exactly; only the last
//!   bits of the floating-point delay/area sums may move.
//! * **Legalization nudges are accept-time-only.**  When the optimizer
//!   runs with a legalization row model, the free-slot placement of an
//!   accepted inverter is decided by the *apply* seam on the main thread,
//!   in the deterministic acceptance order; scoring probes (which run on
//!   worker clones) always host at the co-located position and never read
//!   the shared occupancy.  Nudged positions therefore agree for every
//!   thread count by construction.
//! * **Thread-per-design sharding** (`table1 --threads`,
//!   `rapids_bench::table1::run_suite`) returns results in input order
//!   regardless of completion order, so whole-suite reports are
//!   bit-identical for every thread count.

use rapids_netlist::{GateId, Network};
use rapids_placement::Placement;
use rapids_timing::NetCache;

/// Splits a visit order into maximal contiguous batches whose per-item
/// regions are pairwise disjoint.
///
/// A batch is closed at the *first* item overlapping it, which preserves the
/// sequential contract: when an item is scored, every earlier item that
/// could influence its region has already been applied (it sits in an
/// earlier batch), and the in-batch items that have not been applied yet
/// cannot influence it (disjoint regions).
pub fn contiguous_disjoint_batches(
    regions: &[Vec<GateId>],
    slots: usize,
) -> Vec<std::ops::Range<usize>> {
    let mut batches = Vec::new();
    let mut used = vec![false; slots];
    let mut start = 0usize;
    for (i, region) in regions.iter().enumerate() {
        let overlaps = region.iter().any(|g| used[g.index()]);
        if overlaps {
            batches.push(start..i);
            used.fill(false);
            start = i;
        }
        for g in region {
            used[g.index()] = true;
        }
    }
    if start < regions.len() {
        batches.push(start..regions.len());
    }
    batches
}

/// Visits `items` in order, scoring each with `score` and applying the
/// returned decision with `apply` — the shared engine behind both the gate
/// sizer's phases and the rewiring loop's supergate visits.
///
/// With `threads <= 1` this is the plain sequential loop.  Otherwise the
/// items are split into contiguous batches of pairwise-disjoint regions
/// (via [`contiguous_disjoint_batches`] over `region_of`); each batch is
/// scored concurrently on per-worker clones of the network *and placement*
/// (with fresh caches, which memoize the same values the main cache would)
/// and the decisions are applied in the original order, reproducing the
/// sequential decisions.
///
/// The placement travels mutably because inverting-swap probes host the
/// inverters they insert: on a worker that hosting lands on the private
/// clone and is discarded with it, while sizing probes and non-inverting
/// swaps never touch the placement at all.
// Takes the full scoring context by design: network, placement and cache are
// the three pieces of mutable state a probe perturbs and restores, and the
// three closures are the seams the two optimizers plug into.
#[allow(clippy::too_many_arguments)]
pub fn visit_in_disjoint_batches<T: Sync, D: Send>(
    network: &mut Network,
    placement: &mut Placement,
    cache: &mut NetCache,
    threads: usize,
    items: &[T],
    region_of: impl Fn(&Network, &T) -> Vec<GateId>,
    score: impl Fn(&mut Network, &mut Placement, &mut NetCache, &T) -> Option<D> + Sync,
    mut apply: impl FnMut(&mut Network, &mut Placement, &mut NetCache, &T, D),
) {
    if threads <= 1 {
        for item in items {
            if let Some(decision) = score(network, placement, cache, item) {
                apply(network, placement, cache, item, decision);
            }
        }
        return;
    }
    let regions: Vec<Vec<GateId>> = items.iter().map(|item| region_of(network, item)).collect();
    for range in contiguous_disjoint_batches(&regions, network.gate_count()) {
        let batch = &items[range];
        if batch.len() < 2 {
            for item in batch {
                if let Some(decision) = score(network, placement, cache, item) {
                    apply(network, placement, cache, item, decision);
                }
            }
            continue;
        }
        let chunk = batch.len().div_ceil(threads);
        let frozen: &Network = network;
        let frozen_placement: &Placement = placement;
        let score_ref = &score;
        let decisions: Vec<Option<D>> = std::thread::scope(|s| {
            let workers: Vec<_> = batch
                .chunks(chunk)
                .map(|slice| {
                    s.spawn(move || {
                        let mut net = frozen.clone();
                        let mut pl = frozen_placement.clone();
                        let mut local = NetCache::for_network(&net);
                        slice
                            .iter()
                            .map(|item| score_ref(&mut net, &mut pl, &mut local, item))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("scoring worker panicked")).collect()
        });
        for (item, decision) in batch.iter().zip(decisions) {
            if let Some(decision) = decision {
                apply(network, placement, cache, item, decision);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ids: &[u32]) -> Vec<GateId> {
        ids.iter().map(|&i| GateId(i)).collect()
    }

    #[test]
    fn disjoint_items_form_one_batch() {
        let regions = vec![r(&[0, 1]), r(&[2, 3]), r(&[4])];
        assert_eq!(contiguous_disjoint_batches(&regions, 8), vec![0..3]);
    }

    #[test]
    fn overlap_closes_the_batch() {
        let regions = vec![r(&[0, 1]), r(&[1, 2]), r(&[3]), r(&[2, 3])];
        assert_eq!(contiguous_disjoint_batches(&regions, 8), vec![0..1, 1..3, 3..4]);
    }

    #[test]
    fn empty_input_yields_no_batches() {
        assert!(contiguous_disjoint_batches(&[], 4).is_empty());
    }

    #[test]
    fn batches_cover_every_item_exactly_once() {
        let regions =
            vec![r(&[0]), r(&[0]), r(&[1]), r(&[1]), r(&[0, 1]), r(&[2]), r(&[3]), r(&[2])];
        let batches = contiguous_disjoint_batches(&regions, 8);
        let mut covered = Vec::new();
        for b in &batches {
            covered.extend(b.clone());
        }
        assert_eq!(covered, (0..regions.len()).collect::<Vec<_>>());
    }
}
