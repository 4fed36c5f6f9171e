//! Seeded property tests for the incremental timing engine and the
//! thread-count determinism of the flow.
//!
//! The first family drives [`IncrementalSta::update`] through random
//! swap/resize sequences on one circuit per suite generator family
//! (ALU, multiplier, error-correcting, random control logic) and asserts —
//! bit for bit — that the dirty-cone state matches a from-scratch
//! `Sta::analyze` after every step.  The second family asserts that
//! `threads = 1` and `threads = 8` produce bit-identical reports through
//! the whole pipeline.

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
use rapids_flow::legalize::LegalizeConfig;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig, PipelineReport};
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

/// Everything an optimizer run reports or leaves behind, floats as raw bits.
#[derive(Debug, PartialEq)]
struct ReportBits {
    final_delay: u64,
    final_area: u64,
    swaps: usize,
    es_swaps: usize,
    resized: usize,
    hosted_inverters: Vec<(GateId, u64, u64)>,
    wiring: Vec<Vec<GateId>>,
}

fn report_bits(report: &PipelineReport) -> ReportBits {
    let outcome = &report.outcome;
    ReportBits {
        final_delay: outcome.final_delay_ns.to_bits(),
        final_area: outcome.final_area_um2.to_bits(),
        swaps: outcome.swaps_applied,
        es_swaps: outcome.inverting_swaps_applied,
        resized: outcome.gates_resized,
        hosted_inverters: outcome
            .hosted_inverters
            .iter()
            .map(|&(g, at)| (g, at.x_um.to_bits(), at.y_um.to_bits()))
            .collect(),
        wiring: report.network.iter_live().map(|g| report.network.fanins(g).to_vec()).collect(),
    }
}

/// `threads` only runs a comparison's three optimizer kinds on separate
/// threads, each on its own clone of the prepared design, so every kind's
/// report is bit-identical for any value.  The second config legalizes the
/// placement and enables ES swaps, so nudged inverter coordinates are
/// compared too.
#[test]
fn pipeline_reports_are_thread_count_invariant() {
    let mut legalized_es = PipelineConfig::fast();
    legalized_es.legalize = LegalizeConfig::enabled();
    legalized_es.optimizer.include_inverting_swaps = true;
    for (label, base) in [("fast", PipelineConfig::fast()), ("legalized ES", legalized_es)] {
        let run = |threads: usize| {
            let pipeline = Pipeline::new(PipelineConfig { threads, ..base.clone() });
            let comparison = pipeline.compare_optimizers(CircuitSource::suite("c432")).unwrap();
            [&comparison.rewiring, &comparison.sizing, &comparison.combined].map(report_bits)
        };
        let one = run(1);
        let eight = run(8);
        for ((kind, a), b) in ["gsg", "GS", "gsg+GS"].iter().zip(&one).zip(&eight) {
            assert_eq!(a, b, "{label} {kind}: threads 1 and 8 must report identical bits");
        }
        if base.optimizer.include_inverting_swaps {
            assert!(one[0].es_swaps > 0, "{label}: c432 must accept ES swaps");
        }
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
