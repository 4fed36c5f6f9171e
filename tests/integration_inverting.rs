//! Property tests for legalized inverting (ES) swaps.
//!
//! Four invariants carry the feature:
//!
//! 1. **Apply/undo round-trips exactly** — an ES swap grows the network by
//!    one inverter pair and the undo pops those slots again, so the gate
//!    count, the placement overlay and the timing arrays all return to
//!    their pre-swap shape.
//! 2. **Incremental == full, bit for bit** — after every grow/shrink step
//!    the dirty-cone engine must agree exactly with a from-scratch
//!    `Sta::analyze` of the same network, and the network must stay acyclic.
//! 3. **End to end, ES mode optimizes without breaking the function** — an
//!    ES-enabled pipeline run applies at least one inverting swap on a
//!    benchmark known to profit, grows the network by exactly one inverter
//!    pair per applied swap, and passes the random-simulation equivalence
//!    safety net.
//! 4. **Supergate swaps cannot close a cycle** — `apply_swap` edits pins
//!    without a cycle check, so long runs of accepted swaps on a stale
//!    extraction must leave the network acyclic.

use rapids_circuits::generators::adder::ripple_carry_adder;
use rapids_circuits::generators::alu::alu;
use rapids_circuits::generators::multiplier::array_multiplier;
use rapids_circuits::generators::parity::error_corrector;
use rapids_circuits::generators::random_logic::{random_logic, RandomLogicConfig};
use rapids_circuits::map_to_library;
use rapids_core::supergate::extract_supergates;
use rapids_core::swap::{apply_swap, undo_swap, SwapCandidate, SwapKind};
use rapids_core::symmetry::swap_candidates_in;
use rapids_core::{Optimizer, OptimizerConfig, OptimizerKind};
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_netlist::topo::topological_order;
use rapids_netlist::{GateId, Network};
use rapids_placement::{place, Placement, PlacerConfig};
use rapids_sim::check_equivalence_random;
use rapids_timing::{IncrementalSta, TimingConfig};

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

/// Every inverting candidate of every non-trivial supergate.
fn inverting_candidates(network: &Network) -> Vec<SwapCandidate> {
    let extraction = extract_supergates(network);
    let mut candidates = Vec::new();
    for sg in extraction.supergates().iter().filter(|sg| !sg.is_trivial()) {
        candidates.extend(
            swap_candidates_in(network, sg, true)
                .into_iter()
                .filter(|c| c.kind == SwapKind::Inverting),
        );
    }
    candidates
}

/// Hosts the inverters of an applied ES swap the way the optimizer does:
/// co-located with each inverter's driver.
fn host_inverters(network: &Network, placement: &mut Placement, inverters: &[GateId]) {
    for &inv in inverters {
        let driver = network.fanins(inv)[0];
        placement.host_at(inv, placement.position(driver));
    }
}

#[test]
fn inverting_apply_undo_stays_bit_identical_to_full_sta() {
    let timing = TimingConfig::default();
    for (family, mut network) in generator_zoo() {
        let reference = network.clone();
        let library = rapids_celllib::Library::standard_035um();
        let mut placement = place(&network, &library, &PlacerConfig::fast(), 5);
        let baseline_slots = network.gate_count();
        let mut inc = IncrementalSta::new(&network, &library, &placement, &timing);
        inc.enable_self_check(0x1234, 4);
        let candidates = inverting_candidates(&network);
        if candidates.is_empty() {
            continue;
        }
        let mut rng = Lcg(0xe5 ^ family.len() as u64);
        for step in 0..12 {
            let candidate = candidates[rng.next() as usize % candidates.len()];
            let Ok(applied) = apply_swap(&mut network, &candidate) else {
                continue;
            };
            assert_eq!(applied.inserted_inverters().len(), 2, "{family}: ES inserts a pair");
            host_inverters(&network, &mut placement, applied.inserted_inverters());
            let mut touched = vec![candidate.pin_a.gate, candidate.pin_b.gate];
            touched.extend_from_slice(applied.inserted_inverters());
            inc.update(&network, &library, &placement, &touched);
            assert!(
                network.check_consistency().is_ok(),
                "{family}: network inconsistent after ES apply {step}"
            );
            inc.verify_matches_full(&network, &library, &placement).unwrap_or_else(|e| {
                panic!("{family}: incremental drift after ES apply {step}: {e}")
            });
            assert!(
                check_equivalence_random(&reference, &network, 128, step as u64).is_equivalent(),
                "{family}: ES swap {step} broke the function"
            );

            // Undo: the inverter slots must pop, the overlay must retire,
            // and the (full-fallback) timing must again match from scratch.
            undo_swap(&mut network, &applied).unwrap();
            placement.truncate_slots(network.gate_count());
            inc.update(&network, &library, &placement, &touched);
            assert_eq!(
                network.gate_count(),
                baseline_slots,
                "{family}: slot count must round-trip through apply/undo"
            );
            assert_eq!(placement.len(), baseline_slots);
            assert!(network.check_consistency().is_ok());
            inc.verify_matches_full(&network, &library, &placement).unwrap_or_else(|e| {
                panic!("{family}: incremental drift after ES undo {step}: {e}")
            });
            assert!(
                check_equivalence_random(&reference, &network, 128, !(step as u64)).is_equivalent(),
                "{family}: ES undo {step} broke the function"
            );
        }
    }
}

/// The invariant behind `apply_swap`'s unchecked pin edits, in the
/// optimizer's in-pass regime stretched to its limit: per family, extract
/// once, then accept every NES and ES candidate of every non-trivial
/// supergate in extraction order, with no undo and no re-extraction, hosting
/// each inverter as the optimizer does.  Every apply must leave the network
/// acyclic, and the end result must be consistent and equivalent to the
/// input.
#[test]
fn accepted_swap_sequences_stay_acyclic() {
    let library = rapids_celllib::Library::standard_035um();
    let (mut plain, mut inverting) = (0usize, 0usize);
    for (family, mut network) in generator_zoo() {
        let reference = network.clone();
        let mut placement = place(&network, &library, &PlacerConfig::fast(), 3);
        let extraction = extract_supergates(&network);
        for sg in extraction.supergates().iter().filter(|sg| !sg.is_trivial()) {
            for candidate in swap_candidates_in(&network, sg, true) {
                let applied = apply_swap(&mut network, &candidate).unwrap();
                host_inverters(&network, &mut placement, applied.inserted_inverters());
                assert!(
                    topological_order(&network).is_some(),
                    "{family}: accepting {candidate:?} closed a cycle"
                );
                match candidate.kind {
                    SwapKind::NonInverting => plain += 1,
                    SwapKind::Inverting => inverting += 1,
                }
            }
        }
        network.check_consistency().unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(placement.len(), network.gate_count(), "{family}: every inverter is hosted");
        assert!(
            check_equivalence_random(&reference, &network, 256, 0xac).is_equivalent(),
            "{family}: the accepted swaps broke the function"
        );
    }
    assert!(plain > 0 && inverting > 0, "both swap kinds ran: {plain} NES, {inverting} ES");
}

#[test]
fn undo_journal_round_trip_restores_state_exactly() {
    // Hand-built net with single-fanout nets only, so apply/undo cannot even
    // permute fan-out list order and the restored state is exactly the
    // original: f = AND(a, INV(b)) has one ES candidate (Lemma 7).
    use rapids_netlist::{GateType, NetworkBuilder};
    let mut b = NetworkBuilder::new("es_roundtrip");
    b.inputs(["a", "b"]);
    b.gate("nb", GateType::Inv, &["b"]);
    b.gate("f", GateType::And, &["a", "nb"]);
    b.output("f");
    let mut network = b.finish().unwrap();
    let library = rapids_celllib::Library::standard_035um();
    let mut placement = place(&network, &library, &PlacerConfig::fast(), 11);
    let timing = TimingConfig::default();
    let mut inc = IncrementalSta::new(&network, &library, &placement, &timing);
    let gates: Vec<GateId> = network.iter_live().collect();
    let original_arrivals: Vec<f64> =
        gates.iter().map(|&g| inc.report().arrival(g).worst()).collect();
    let original_required: Vec<f64> = gates.iter().map(|&g| inc.report().required(g)).collect();
    let original_delay = inc.report().critical_delay_ns();
    let slots = network.gate_count();
    let placement_len = placement.len();

    let candidates = inverting_candidates(&network);
    assert_eq!(candidates.len(), 1, "the mixed-polarity pair is the only ES candidate");
    let applied = apply_swap(&mut network, &candidates[0]).unwrap();
    host_inverters(&network, &mut placement, applied.inserted_inverters());
    let mut touched = vec![candidates[0].pin_a.gate, candidates[0].pin_b.gate];
    touched.extend_from_slice(applied.inserted_inverters());
    inc.update(&network, &library, &placement, &touched);
    assert_eq!(network.gate_count(), slots + 2);
    assert_eq!(placement.len(), placement_len + 2);
    assert!(
        inc.report().critical_delay_ns() > original_delay,
        "two extra inverters on a two-gate path must cost delay"
    );

    undo_swap(&mut network, &applied).unwrap();
    placement.truncate_slots(network.gate_count());
    inc.update(&network, &library, &placement, &touched);

    // Gate count, overlay and every timing array are restored exactly.
    assert_eq!(network.gate_count(), slots);
    assert_eq!(placement.len(), placement_len);
    for (i, &g) in gates.iter().enumerate() {
        assert_eq!(inc.report().arrival(g).worst(), original_arrivals[i], "arrival at {g}");
        assert_eq!(inc.report().required(g), original_required[i], "required at {g}");
    }
    assert_eq!(inc.report().critical_delay_ns(), original_delay);
    inc.verify_matches_full(&network, &library, &placement).unwrap();
}

#[test]
fn es_enabled_optimizer_applies_swaps_and_preserves_function() {
    // x3 profits reliably from ES swaps under the fast flow configuration.
    let pipeline =
        Pipeline::new(PipelineConfig { verify_equivalence: true, ..PipelineConfig::fast() });
    let design = pipeline.prepare(CircuitSource::suite("x3")).unwrap();
    let mut network = design.network.clone();
    let config = OptimizerConfig {
        include_inverting_swaps: true,
        ..OptimizerConfig::fast(OptimizerKind::Rewiring)
    };
    let outcome = Optimizer::new(config).optimize(
        &mut network,
        &design.library,
        &design.placement,
        &pipeline.config().timing,
    );
    assert!(
        outcome.inverting_swaps_applied >= 1,
        "x3 must apply at least one ES swap, got {outcome:?}"
    );
    assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9);
    assert_eq!(
        network.live_gate_count(),
        design.network.live_gate_count() + 2 * outcome.inverting_swaps_applied,
        "every applied ES swap adds exactly one inverter pair"
    );
    assert!(network.check_consistency().is_ok(), "optimized network must stay acyclic");
    assert!(check_equivalence_random(&design.network, &network, 1024, 77).is_equivalent());

    // The outcome hands back the overlay coordinates of every surviving
    // inverter, so the grown network stays timeable: extend a copy of the
    // caller's placement and a full STA must reproduce the reported delay.
    assert_eq!(outcome.hosted_inverters.len(), 2 * outcome.inverting_swaps_applied);
    let mut grown = design.placement.clone();
    for &(gate, at) in &outcome.hosted_inverters {
        grown.host_at(gate, at);
    }
    assert_eq!(grown.len(), network.gate_count());
    let report =
        rapids_timing::Sta::analyze(&network, &design.library, &grown, &pipeline.config().timing);
    // Equality only to float noise: candidate probing permutes fan-out list
    // order (`swap_remove`), so a fresh analysis can fold the star/Elmore
    // sums of untouched nets in a different order than the incremental
    // state the optimizer kept across its probes.
    assert!(
        (report.critical_delay_ns() - outcome.final_delay_ns).abs() < 1e-9,
        "re-timing the grown network on the grown placement must reproduce the outcome: \
         {} vs {}",
        report.critical_delay_ns(),
        outcome.final_delay_ns
    );
}

/// Full-suite ES validation: every one of the 19 suite benchmarks, optimized
/// with inverting swaps enabled, must stay acyclic and functionally
/// equivalent, and must grow by exactly one inverter pair per applied swap.
/// Ignored by default (it runs the whole suite); `ci.sh`'s ES smoke covers
/// three rows on every commit, and this runs via
/// `cargo test --release -- --ignored` when touching the swap machinery.
#[test]
#[ignore = "whole-suite run; use --release -- --ignored"]
fn es_mode_stays_equivalent_on_the_whole_suite() {
    let pipeline =
        Pipeline::new(PipelineConfig { verify_equivalence: true, ..PipelineConfig::fast() });
    let mut designs_with_es = 0usize;
    for name in rapids_circuits::suite_names() {
        let design = pipeline.prepare(CircuitSource::suite(name)).unwrap();
        let mut network = design.network.clone();
        let config = OptimizerConfig {
            include_inverting_swaps: true,
            ..OptimizerConfig::fast(OptimizerKind::Rewiring)
        };
        let outcome = Optimizer::new(config).optimize(
            &mut network,
            &design.library,
            &design.placement,
            &pipeline.config().timing,
        );
        assert!(network.check_consistency().is_ok(), "{name}: network must stay acyclic");
        assert!(
            check_equivalence_random(&design.network, &network, 512, 0xE5).is_equivalent(),
            "{name}: ES-enabled optimization broke the function"
        );
        assert_eq!(
            network.live_gate_count(),
            design.network.live_gate_count() + 2 * outcome.inverting_swaps_applied,
            "{name}: inverter bookkeeping mismatch"
        );
        assert!(outcome.final_delay_ns <= outcome.initial_delay_ns + 1e-9, "{name}");
        designs_with_es += (outcome.inverting_swaps_applied > 0) as usize;
    }
    assert!(designs_with_es >= 5, "ES swaps should fire on a good share of the suite");
}
