//! Reproduces the paper's Fig. 2 and Fig. 3 by hand: swappable pins inside a
//! supergate, and cross-supergate swapping with the DeMorgan transform —
//! each verified by exhaustive simulation — then pushes the Fig. 3 network
//! through the unified [`Pipeline`] with the equivalence safety net on.
//!
//! Run with: `cargo run --example symmetry_explore`

use rapids_core::cross::cross_supergate_swap;
use rapids_core::supergate::extract_supergates;
use rapids_core::swap::apply_swap;
use rapids_core::symmetry::{swap_candidates, symmetry_classes};
use rapids_core::OptimizerKind;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_netlist::{GateType, Network, NetworkBuilder};
use rapids_sim::check_equivalence_exhaustive;

/// Fig. 2: a 3-input AND supergate whose pins h and k are swappable.
fn figure2() -> Result<(), Box<dyn std::error::Error>> {
    println!("— Fig. 2: swappable pins inside one supergate —");
    let mut builder = NetworkBuilder::new("fig2");
    builder.inputs(["h", "k", "m"]);
    builder.gate("g1", GateType::And, &["k", "m"]);
    builder.gate("f", GateType::And, &["h", "g1"]);
    builder.output("f");
    let reference = builder.finish()?;

    let extraction = extract_supergates(&reference);
    let f = reference.find_by_name("f").expect("root exists");
    let sg = extraction.supergate_of_root(f).expect("f is a root");
    println!("supergate at f covers {} gates, {} input pins", sg.size(), sg.input_count());
    for class in symmetry_classes(sg) {
        println!("  symmetry class with {} pins", class.len());
    }
    for candidate in swap_candidates(sg, false) {
        let mut rewired: Network = reference.clone();
        apply_swap(&mut rewired, &candidate)?;
        let equivalent = check_equivalence_exhaustive(&reference, &rewired).is_equivalent();
        println!("  swap {} <-> {} : equivalent = {equivalent}", candidate.pin_a, candidate.pin_b);
        assert!(equivalent);
    }
    Ok(())
}

/// Fig. 3: AND(a,b,c) and OR(d,e,g) feed a symmetric parent; their fan-in
/// sets are exchanged under the DeMorgan transform.
fn figure3() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n— Fig. 3: cross-supergate swapping via DeMorgan —");
    let mut builder = NetworkBuilder::new("fig3");
    builder.inputs(["a", "b", "c", "d", "e", "g"]);
    builder.gate("sg1", GateType::And, &["a", "b", "c"]);
    builder.gate("sg2", GateType::Or, &["d", "e", "g"]);
    builder.gate("parent", GateType::Xor, &["sg1", "sg2"]);
    builder.output("parent");
    let reference = builder.finish()?;

    let mut rewired = reference.clone();
    let extraction = extract_supergates(&rewired);
    let sg1 = extraction
        .supergate_of_root(rewired.find_by_name("sg1").expect("sg1"))
        .expect("sg1 root")
        .clone();
    let sg2 = extraction
        .supergate_of_root(rewired.find_by_name("sg2").expect("sg2"))
        .expect("sg2 root")
        .clone();
    let record = cross_supergate_swap(&mut rewired, &sg1, &sg2)?;
    println!(
        "cross swap applied: DeMorgan used = {}, inverters inserted = {}",
        record.demorganized, record.inserted_inverters
    );
    let equivalent = check_equivalence_exhaustive(&reference, &rewired).is_equivalent();
    println!("network still equivalent: {equivalent}");
    assert!(equivalent);
    Ok(())
}

/// The same Fig. 3 structure, driven through the full place → STA → rewire
/// pipeline with the simulation safety net enabled.
fn figure3_through_pipeline() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n— Fig. 3 network through the full pipeline (gsg) —");
    let mut builder = NetworkBuilder::new("fig3-flow");
    builder.inputs(["a", "b", "c", "d", "e", "g"]);
    builder.gate("sg1", GateType::And, &["a", "b", "c"]);
    builder.gate("sg2", GateType::Or, &["d", "e", "g"]);
    builder.gate("parent", GateType::Xor, &["sg1", "sg2"]);
    builder.output("parent");
    let network = builder.finish()?;

    let pipeline =
        Pipeline::new(PipelineConfig { verify_equivalence: true, ..PipelineConfig::default() });
    let report = pipeline.run_kind(CircuitSource::Mapped(network), OptimizerKind::Rewiring)?;
    println!(
        "pipeline: {:.3} ns → {:.3} ns with {} swap(s); equivalence verified = {}",
        report.initial_delay_ns,
        report.outcome.final_delay_ns,
        report.outcome.swaps_applied,
        report.equivalence_verified
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    figure2()?;
    figure3()?;
    figure3_through_pipeline()?;
    Ok(())
}
