//! Seeded property tests for the incremental timing engine and the
//! thread-count determinism of the optimizers.
//!
//! The first family drives [`IncrementalSta::update`] through random
//! swap/resize sequences on one circuit per suite generator family
//! (ALU, multiplier, error-correcting, random control logic) and asserts —
//! bit for bit — that the dirty-cone state matches a from-scratch
//! `Sta::analyze` after every step.  The second family asserts that
//! `threads = 1` and `threads = 8` produce identical reports through the
//! whole pipeline.

use rapids_celllib::{DriveStrength, Library};
use rapids_circuits::generators::adder::ripple_carry_adder;
use rapids_circuits::generators::alu::alu;
use rapids_circuits::generators::multiplier::array_multiplier;
use rapids_circuits::generators::parity::error_corrector;
use rapids_circuits::generators::random_logic::{random_logic, RandomLogicConfig};
use rapids_circuits::map_to_library;
use rapids_core::supergate::extract_supergates;
use rapids_core::swap::{apply_swap, undo_swap};
use rapids_core::symmetry::swap_candidates_in;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_netlist::{GateId, Network};
use rapids_placement::{place, Placement, PlacerConfig};
use rapids_timing::{IncrementalSta, Sta, TimingConfig};

/// One small representative per suite generator family.
fn generator_zoo() -> Vec<(&'static str, Network)> {
    let control = random_logic(
        &RandomLogicConfig { xor_fraction: 0.1, ..RandomLogicConfig::with_gates(120) },
        42,
    );
    vec![
        ("alu", map_to_library(&alu(8), 4).unwrap()),
        ("multiplier", map_to_library(&array_multiplier(6), 4).unwrap()),
        ("error_corrector", map_to_library(&error_corrector(4, 16), 4).unwrap()),
        ("control", map_to_library(&control, 4).unwrap()),
        ("adder", map_to_library(&ripple_carry_adder(12), 4).unwrap()),
    ]
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn setup(network: &Network, seed: u64) -> (Placement, Library, TimingConfig) {
    let library = Library::standard_035um();
    let placement = place(network, &library, &PlacerConfig::fast(), seed);
    (placement, library, TimingConfig::default())
}

#[test]
fn incremental_update_matches_full_sta_after_random_resizes() {
    let classes = [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4, DriveStrength::X8];
    for (family, mut network) in generator_zoo() {
        let (placement, library, timing) = setup(&network, 5);
        let mut inc = IncrementalSta::new(&network, &library, &placement, &timing);
        let gates: Vec<GateId> = network.iter_logic().collect();
        let mut rng = Lcg(0x5eed ^ family.len() as u64);
        for step in 0..30 {
            let g = gates[rng.next() as usize % gates.len()];
            let class = classes[rng.next() as usize % classes.len()];
            network.gate_mut(g).size_class = class.size_class();
            inc.update(&network, &library, &placement, &[g]);
            let full = Sta::analyze(&network, &library, &placement, &timing);
            for &probe in &gates {
                assert_eq!(
                    inc.report().arrival(probe).worst(),
                    full.arrival(probe).worst(),
                    "{family}: arrival drift at {probe} after step {step}"
                );
                assert_eq!(
                    inc.report().required(probe),
                    full.required(probe),
                    "{family}: required drift at {probe} after step {step}"
                );
            }
            assert_eq!(
                inc.report().critical_delay_ns(),
                full.critical_delay_ns(),
                "{family}: critical delay drift after step {step}"
            );
        }
        assert!(inc.stats().incremental_updates > 0, "{family}: updates must run incrementally");
    }
}

#[test]
fn incremental_update_matches_full_sta_after_random_swap_sequences() {
    for (family, mut network) in generator_zoo() {
        let (placement, library, timing) = setup(&network, 9);
        network.refresh_topo_hint();
        let mut inc = IncrementalSta::new(&network, &library, &placement, &timing);
        let extraction = extract_supergates(&network);
        let mut candidates = Vec::new();
        for sg in extraction.supergates().iter().filter(|sg| !sg.is_trivial()) {
            candidates.extend(swap_candidates_in(&network, sg, false));
        }
        if candidates.is_empty() {
            continue;
        }
        let mut rng = Lcg(0xfeed ^ family.len() as u64);
        let mut applied_stack: Vec<rapids_core::swap::AppliedSwap> = Vec::new();
        for step in 0..24 {
            // Alternate applying new swaps and undoing old ones so the
            // engine sees both directions of every edit.
            let touched: Vec<GateId> = if step % 3 == 2 {
                match applied_stack.pop() {
                    Some(applied) => {
                        let c = *applied.candidate();
                        undo_swap(&mut network, &applied).unwrap();
                        vec![c.pin_a.gate, c.pin_b.gate]
                    }
                    None => continue,
                }
            } else {
                let candidate = candidates[rng.next() as usize % candidates.len()];
                match apply_swap(&mut network, &candidate) {
                    Ok(applied) => {
                        applied_stack.push(applied);
                        vec![candidate.pin_a.gate, candidate.pin_b.gate]
                    }
                    Err(_) => continue,
                }
            };
            inc.update(&network, &library, &placement, &touched);
            inc.verify_matches_full(&network, &library, &placement)
                .unwrap_or_else(|e| panic!("{family}: incremental drift after step {step}: {e}"));
        }
    }
}

#[test]
fn pipeline_reports_are_thread_count_invariant() {
    let run = |threads: usize| {
        let pipeline = Pipeline::new(PipelineConfig { threads, ..PipelineConfig::fast() });
        let comparison = pipeline.compare_optimizers(CircuitSource::suite("c432")).unwrap();
        let fingerprint = |report: &rapids_flow::PipelineReport| {
            (
                report.outcome.final_delay_ns,
                report.outcome.final_area_um2,
                report.outcome.swaps_applied,
                report.outcome.gates_resized,
            )
        };
        (
            fingerprint(&comparison.rewiring),
            fingerprint(&comparison.sizing),
            fingerprint(&comparison.combined),
        )
    };
    let (seq_gsg, seq_gs, seq_combined) = run(1);
    let (par_gsg, par_gs, par_combined) = run(8);
    // Sizing decisions leave no trace in the network beyond the chosen
    // classes, so GS is bit-exact across thread counts.
    assert_eq!(seq_gs, par_gs, "GS must be bit-identical across thread counts");
    // Rewiring candidate probes permute fan-out list order on the main
    // network in sequential mode but not on worker clones, so after a
    // rolled-back pass the Elmore sums can differ in the final ulp even
    // though every accepted decision is identical.  Assert decision-level
    // equality and delay/area agreement to float noise.
    for (seq, par) in [(seq_gsg, par_gsg), (seq_combined, par_combined)] {
        assert_eq!(seq.2, par.2, "swap decisions must match across thread counts");
        assert_eq!(seq.3, par.3, "resize decisions must match across thread counts");
        assert!((seq.0 - par.0).abs() < 1e-9, "delay drift beyond noise: {} vs {}", seq.0, par.0);
        assert!((seq.1 - par.1).abs() < 1e-6, "area drift beyond noise: {} vs {}", seq.1, par.1);
    }
}

#[test]
fn threaded_suite_harness_is_deterministic() {
    use rapids_bench::table1::{results_to_qor_json, run_suite};
    let config = PipelineConfig::fast();
    let names = ["c432", "c499", "alu2"];
    let one = results_to_qor_json(&run_suite(&names, &config, 1));
    let eight = results_to_qor_json(&run_suite(&names, &config, 8));
    assert_eq!(one, eight, "--threads 1 and --threads 8 must produce identical reports");
}
