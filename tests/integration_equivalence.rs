//! End-to-end functional-safety tests: every optimizer must leave the
//! benchmark functions bit-identical.  The flow runs through the unified
//! [`Pipeline`] with its equivalence safety net enabled, and the result is
//! re-checked here on random patterns with an independent seed.

use rapids_core::OptimizerKind;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_sim::check_equivalence_random;

fn optimize_and_check(name: &str, kind: OptimizerKind) {
    let pipeline = Pipeline::new(PipelineConfig {
        seed: 17,
        verify_equivalence: true,
        ..PipelineConfig::fast()
    });
    let design = pipeline.prepare(CircuitSource::suite(name)).unwrap();
    let reference = design.network.clone();
    let report = pipeline.optimize(&design, kind).unwrap();

    assert!(
        report.outcome.final_delay_ns <= report.outcome.initial_delay_ns + 1e-9,
        "{name}/{kind}"
    );
    assert!(report.equivalence_verified, "{name}/{kind} skipped the safety net");
    assert!(
        check_equivalence_random(&reference, &report.network, 2048, 0xBEEF).is_equivalent(),
        "{name}/{kind} broke functionality"
    );
}

#[test]
fn rewiring_preserves_alu2() {
    optimize_and_check("alu2", OptimizerKind::Rewiring);
}

#[test]
fn rewiring_preserves_c499() {
    optimize_and_check("c499", OptimizerKind::Rewiring);
}

#[test]
fn sizing_preserves_c432() {
    optimize_and_check("c432", OptimizerKind::Sizing);
}

#[test]
fn combined_preserves_c432() {
    optimize_and_check("c432", OptimizerKind::Combined);
}

#[test]
fn combined_preserves_c1908() {
    optimize_and_check("c1908", OptimizerKind::Combined);
}
