//! Integration tests of the unified [`Pipeline`] API: every optimizer kind
//! of the paper runs end to end through it, sources of every flavor are
//! accepted, and the flow preserves functional equivalence (checked
//! independently with `rapids-sim`, not just the pipeline's own safety net).

use rapids_circuits::generators::adder::ripple_carry_adder;
use rapids_core::OptimizerKind;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig, PipelineError};
use rapids_netlist::blif;
use rapids_sim::check_equivalence_random;

fn verified_fast_pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig { verify_equivalence: true, ..PipelineConfig::fast() })
}

#[test]
fn gsg_runs_through_pipeline() {
    let report = verified_fast_pipeline()
        .run_kind(CircuitSource::suite("c432"), OptimizerKind::Rewiring)
        .unwrap();
    assert_eq!(report.kind, OptimizerKind::Rewiring);
    assert!(report.initial_delay_ns > 0.0);
    assert!(report.outcome.final_delay_ns <= report.initial_delay_ns + 1e-9);
    assert!(report.equivalence_verified);
    // gsg only swaps pins: gate count and area must be untouched.
    assert_eq!(report.outcome.initial_area_um2, report.outcome.final_area_um2);
}

#[test]
fn gs_runs_through_pipeline() {
    let report = verified_fast_pipeline()
        .run_kind(CircuitSource::suite("c432"), OptimizerKind::Sizing)
        .unwrap();
    assert_eq!(report.kind, OptimizerKind::Sizing);
    assert!(report.outcome.final_delay_ns <= report.initial_delay_ns + 1e-9);
    assert!(report.equivalence_verified);
}

#[test]
fn combined_runs_through_pipeline() {
    let report = verified_fast_pipeline()
        .run_kind(CircuitSource::suite("c432"), OptimizerKind::Combined)
        .unwrap();
    assert_eq!(report.kind, OptimizerKind::Combined);
    assert!(report.outcome.final_delay_ns <= report.initial_delay_ns + 1e-9);
    assert!(report.equivalence_verified);
}

#[test]
fn gates_resized_counts_gates_whose_final_drive_differs() {
    // A gate resized by a phase that was rolled back, or resized and then
    // restored by a later pass, ends at its input drive and does not count.
    let pipeline = Pipeline::with_defaults();
    let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
    for kind in [OptimizerKind::Sizing, OptimizerKind::Combined] {
        let report = pipeline.optimize(&design, kind).unwrap();
        let differing = design
            .network
            .iter_live()
            .filter(|&g| report.network.gate(g).size_class != design.network.gate(g).size_class)
            .count();
        assert_eq!(report.outcome.gates_resized, differing, "{kind}");
        if kind == OptimizerKind::Sizing {
            assert!(differing > 0, "GS must resize some c432 gate");
        }
    }
}

#[test]
fn compare_optimizers_shares_one_placement() {
    let comparison = Pipeline::fast().compare_optimizers(CircuitSource::suite("alu2")).unwrap();
    assert_eq!(comparison.rewiring.initial_delay_ns, comparison.sizing.initial_delay_ns);
    assert_eq!(comparison.rewiring.initial_delay_ns, comparison.combined.initial_delay_ns);
    assert_eq!(comparison.initial_delay_ns, comparison.rewiring.initial_delay_ns);
    assert!(comparison.gate_count > 100);
    for kind in [OptimizerKind::Rewiring, OptimizerKind::Sizing, OptimizerKind::Combined] {
        assert_eq!(comparison.report(kind).kind, kind);
    }
}

/// Satellite smoke test: the full pipeline on a small ripple-carry adder
/// keeps the adder's function bit-identical, as witnessed by `rapids-sim`
/// on the pre- and post-flow networks (independent of the pipeline's own
/// internal verification).
#[test]
fn pipeline_preserves_adder_function() {
    let raw = ripple_carry_adder(8);
    let pipeline = Pipeline::fast();
    let reference = pipeline
        .build_network(CircuitSource::Unmapped { network: raw.clone(), max_fanin: 4 })
        .unwrap();
    for kind in [OptimizerKind::Rewiring, OptimizerKind::Sizing, OptimizerKind::Combined] {
        let report = pipeline
            .run_kind(CircuitSource::Unmapped { network: raw.clone(), max_fanin: 4 }, kind)
            .unwrap();
        assert!(
            check_equivalence_random(&reference, &report.network, 2048, 0xADDE).is_equivalent(),
            "{kind} broke the adder"
        );
        // ... and against the raw, pre-mapping adder too.
        assert!(
            check_equivalence_random(&raw, &report.network, 2048, 0xADDF).is_equivalent(),
            "{kind} diverged from the unmapped adder"
        );
    }
}

#[test]
fn blif_text_is_a_first_class_source() {
    let raw = ripple_carry_adder(4);
    let text = blif::write_string(&raw);
    let report = Pipeline::fast().run(CircuitSource::Blif { text, max_fanin: 4 }).unwrap();
    assert!(report.initial_delay_ns > 0.0);
}

#[test]
fn unknown_benchmark_is_a_typed_error() {
    let err = Pipeline::fast().run(CircuitSource::suite("mystery9000")).unwrap_err();
    match err {
        PipelineError::UnknownBenchmark(name) => assert_eq!(name, "mystery9000"),
        other => panic!("expected UnknownBenchmark, got {other:?}"),
    }
}

#[test]
fn stage_timings_are_populated() {
    let design = Pipeline::fast().prepare(CircuitSource::suite("c432")).unwrap();
    let t = design.timings;
    assert!(t.generate_s >= 0.0 && t.place_s > 0.0 && t.sta_s > 0.0);
    // Suite circuits arrive mapped; the map stage must not be charged.
    assert_eq!(t.map_s, 0.0);

    // An unmapped source books its mapping cost under map_s, not generate_s.
    let design = Pipeline::fast()
        .prepare(CircuitSource::Unmapped { network: ripple_carry_adder(8), max_fanin: 4 })
        .unwrap();
    assert!(design.timings.map_s > 0.0);
}
