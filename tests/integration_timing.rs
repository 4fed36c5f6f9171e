//! Integration of placement and timing: the post-placement delay model
//! behaves physically sensibly on generated benchmarks, which is what gives
//! the optimizers something real to chase.  Placement and STA both run
//! through the [`Pipeline`] front half ([`Pipeline::prepare`]).

use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_placement::PlacerConfig;
use rapids_timing::{Sta, TimingConfig};

fn fast_pipeline_with_seed(seed: u64) -> Pipeline {
    Pipeline::new(PipelineConfig { seed, ..PipelineConfig::fast() })
}

#[test]
fn wire_resistivity_increases_post_placement_delay() {
    let pipeline = fast_pipeline_with_seed(23);
    let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
    // Re-time the *same* placement with 10× more resistive interconnect.
    let resistive = Sta::analyze(
        &design.network,
        &design.library,
        &design.placement,
        &TimingConfig {
            unit_resistance_kohm_per_cm: 2.4 * 10.0,
            unit_capacitance_pf_per_cm: 2.0 * 10.0,
            ..TimingConfig::default()
        },
    );
    assert!(resistive.critical_delay_ns() > design.initial_delay_ns());
}

#[test]
fn better_placement_effort_does_not_hurt_wirelength() {
    let quick = fast_pipeline_with_seed(3).prepare(CircuitSource::suite("alu2")).unwrap();
    let thorough = Pipeline::new(PipelineConfig {
        placer: PlacerConfig { moves_per_gate: 80, ..PlacerConfig::default() },
        seed: 3,
        ..PipelineConfig::default()
    })
    .prepare(CircuitSource::suite("alu2"))
    .unwrap();
    let quick_hpwl = quick.placement.total_hpwl_um(&quick.network);
    let thorough_hpwl = thorough.placement.total_hpwl_um(&thorough.network);
    assert!(
        thorough_hpwl <= quick_hpwl * 1.05,
        "more annealing effort should not make wire length much worse: {thorough_hpwl} vs {quick_hpwl}"
    );
}

#[test]
fn critical_path_is_a_connected_input_to_output_path() {
    let design = fast_pipeline_with_seed(23).prepare(CircuitSource::suite("c1908")).unwrap();
    let path = Sta::critical_path(&design.network, &design.initial_timing);
    assert!(path.len() >= 3);
    for pair in path.windows(2) {
        assert!(
            design.network.fanins(pair[1]).contains(&pair[0]),
            "critical path must follow fanin edges"
        );
    }
    assert!(design.network.gate(path[0]).gtype.is_source());
    assert!(design.network.drives_output(*path.last().unwrap()));
}
