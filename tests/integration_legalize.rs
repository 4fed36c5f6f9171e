//! Integration suite of the legalization subsystem (`rapids-legalize`):
//! the pipeline's legalize stage, the optimizer's ES free-slot nudging and
//! their determinism guarantees, exercised end to end through the
//! [`Pipeline`] on the Table 1 designs.
//!
//! The headline property — the acceptance bar of the subsystem — is that
//! the placement the flow hands back is **overlap-free on every suite
//! design, with and without inverting (ES) swaps**, while the disabled mode
//! stays bit-identical (pinned by the CI QoR smokes).

use rapids_core::supergate::extract_supergates;
use rapids_core::swap::{apply_swap, undo_swap};
use rapids_core::symmetry::swap_candidates;
use rapids_core::OptimizerKind;
use rapids_flow::circuits::suite_names;
use rapids_flow::legalize::{LegalizeConfig, RowModel};
use rapids_flow::placement::gate_width_sites;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};

fn legalized_config(es: bool) -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.legalize = LegalizeConfig::enabled();
    config.optimizer.include_inverting_swaps = es;
    config
}

/// Overlap-freedom on the full 19-design suite, with and without ES swaps:
/// the prepared (legalized + refined) placement passes `assert_legal`, the
/// legalizer left nothing unplaced, every nudge found a free slot, and the
/// grown placement after rewiring is still legal.  Max displacement is
/// bounded by a conservative fraction of the die perimeter — legalization
/// resolves overlaps locally, it does not teleport cells.
#[test]
fn whole_suite_stays_overlap_free_with_and_without_es() {
    for es in [false, true] {
        let pipeline = Pipeline::new(legalized_config(es));
        for name in suite_names() {
            let design = pipeline
                .prepare(CircuitSource::suite(name))
                .unwrap_or_else(|e| panic!("prepare {name}: {e}"));
            design
                .placement
                .check_legal(&design.network, &design.library)
                .unwrap_or_else(|v| panic!("{name} (es={es}): prepared placement is illegal: {v}"));
            let legalization = design.legalization.expect("stage enabled");
            assert_eq!(legalization.legalize.unplaced_gates, 0, "{name}: unplaced gates");
            let region = design.placement.region();
            assert!(
                legalization.max_displacement_um() <= (region.width_um + region.height_um) / 2.0,
                "{name} (es={es}): max displacement {} not local on a {}x{} die",
                legalization.max_displacement_um(),
                region.width_um,
                region.height_um
            );
            if let Some(refine) = legalization.refine {
                assert!(refine.delay_after_ns <= refine.delay_before_ns + 1e-9, "{name}");
            }

            let report = pipeline
                .optimize(&design, OptimizerKind::Rewiring)
                .unwrap_or_else(|e| panic!("optimize {name}: {e}"));
            assert_eq!(report.outcome.nudge_fallbacks, 0, "{name} (es={es}): nudge fell back");
            let grown = report.grown_placement(&design.placement);
            grown
                .check_legal(&report.network, &design.library)
                .unwrap_or_else(|v| panic!("{name} (es={es}): grown placement is illegal: {v}"));
            if !es {
                assert_eq!(report.outcome.inverting_swaps_applied, 0);
            }
        }
    }
}

/// A nudged inverter pair round-trips apply → undo *exactly*: the network's
/// slot count, the placement table and the row model's occupancy all return
/// to their pre-apply state.
#[test]
fn nudged_inverter_placement_round_trips_apply_undo_exactly() {
    let pipeline = Pipeline::new(legalized_config(true));
    let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
    let mut network = design.network.clone();
    let mut placement = design.placement.clone();
    let mut rows = design.rows.clone().expect("stage enabled");

    // Find an inverting candidate anywhere in the design.
    let extraction = extract_supergates(&network);
    let candidate = extraction
        .supergates()
        .iter()
        .flat_map(|sg| swap_candidates(sg, true))
        .find(|c| c.kind == rapids_core::SwapKind::Inverting)
        .expect("c432 has inverting candidates");

    let slots_before = placement.len();
    let rows_before = rows.clone();
    let positions_before: Vec<_> = network.iter_live().map(|g| placement.position(g)).collect();

    // Apply, nudge both inverters into free slots (the accept-path policy).
    let applied = apply_swap(&mut network, &candidate).unwrap();
    assert_eq!(applied.inserted_inverters().len(), 2);
    for &inv in applied.inserted_inverters() {
        let driver = network.fanins(inv)[0];
        let width = gate_width_sites(&network, &design.library, inv);
        let hosted = rows
            .nudge_occupy(inv, placement.position(driver), width)
            .expect("free slots exist on the c432 die");
        placement.host_at(inv, hosted);
        assert!(
            placement.position(driver).manhattan_distance_um(&hosted) > 0.0,
            "the nudge must not stack on the driver"
        );
    }
    assert_eq!(placement.len(), slots_before + 2);
    assert_ne!(rows, rows_before);

    // Undo: pop the inverters, release their slots, retire the overlay.
    undo_swap(&mut network, &applied).unwrap();
    for &inv in applied.inserted_inverters() {
        assert!(rows.release(inv), "each nudged inverter held a slot");
    }
    placement.truncate_slots(network.gate_count());

    assert_eq!(placement.len(), slots_before);
    assert_eq!(rows, rows_before, "row occupancy must round-trip exactly");
    assert_eq!(network.gate_count(), design.network.gate_count());
    for (g, before) in design.network.iter_live().zip(&positions_before) {
        assert_eq!(placement.position(g), *before);
    }
}

/// The legalize stage is reproducible run over run (same seed ⇒ the same
/// legal placement, displacement report and refined delay), and disabling
/// it leaves the classic flow untouched.
#[test]
fn legalize_stage_is_deterministic_and_opt_in() {
    let run = || {
        let pipeline = Pipeline::new(legalized_config(true));
        let design = pipeline.prepare(CircuitSource::suite("alu2")).unwrap();
        let coords: Vec<(u64, u64)> = design
            .network
            .iter_live()
            .map(|g| {
                let p = design.placement.position(g);
                (p.x_um.to_bits(), p.y_um.to_bits())
            })
            .collect();
        (design.legalization.unwrap(), coords)
    };
    assert_eq!(run(), run());

    // Opt-in: the default config must not even build a row model.
    let plain = Pipeline::fast().prepare(CircuitSource::suite("alu2")).unwrap();
    assert!(plain.legalization.is_none() && plain.rows.is_none());
}

/// The legalized ES flow keeps the equivalence safety net green end to end
/// (which also runs the placement-legality assertion inside `optimize`),
/// and the three optimizer kinds share the legalized placement.
#[test]
fn legalized_comparison_verifies_equivalence_and_shares_the_placement() {
    let mut config = legalized_config(true);
    config.verify_equivalence = true;
    config.verification_vectors = 256;
    let comparison =
        Pipeline::new(config).compare_optimizers(CircuitSource::suite("c1908")).unwrap();
    assert!(comparison.legalization.is_some());
    for kind in [OptimizerKind::Rewiring, OptimizerKind::Sizing, OptimizerKind::Combined] {
        let report = comparison.report(kind);
        assert!(report.equivalence_verified);
        assert!(report.outcome.final_delay_ns <= comparison.initial_delay_ns + 1e-9);
    }
    // The shared placement is the legalized one: rebuilding the row model
    // from it succeeds (i.e. it is legal) and the grown networks stay legal.
    let rows = RowModel::build(
        &comparison.rewiring.network,
        &rapids_flow::celllib::Library::standard_035um(),
        &comparison.grown_placement(OptimizerKind::Rewiring),
    );
    assert!(rows.occupied_gates() >= comparison.gate_count);
}
