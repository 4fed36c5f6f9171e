//! Seeded property tests for the levelized STA kernel contract.
//!
//! The levelized struct-of-arrays kernel behind `Sta::analyze` must be a
//! *perfect* stand-in for the pointer-chasing reference analyzer
//! (`Sta::analyze_reference`): bit-identical arrival/required/slack arrays
//! on every network shape the optimizers can produce.  These tests drive
//! one circuit per suite generator family through random drive-strength
//! streams and assert, after every step:
//!
//! * levelized-vs-scalar bit-identity of all three per-gate arrays,
//! * thread-count invariance of `Sta::analyze_with_threads`, which ignores
//!   `threads` (∈ {1, 2, 8}) and must report what the scalar analyzer does,
//! * identity on **grown** networks (post-ES overlay slots appended by
//!   inverter insertion) and **tombstoned** networks (post-undo holes in
//!   the gate table).

use rapids_celllib::Library;
use rapids_circuits::generators::adder::ripple_carry_adder;
use rapids_circuits::generators::alu::alu;
use rapids_circuits::generators::multiplier::array_multiplier;
use rapids_circuits::generators::parity::error_corrector;
use rapids_circuits::generators::random_logic::{random_logic, RandomLogicConfig};
use rapids_circuits::map_to_library;
use rapids_netlist::{GateId, Network, PinRef};
use rapids_placement::{place, Placement, PlacerConfig};
use rapids_timing::{Sta, TimingConfig, TimingReport};

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

/// Full bit-identity over arrivals, requireds and slacks of the live gates,
/// plus the report-level scalars.
fn assert_reports_identical(
    family: &str,
    network: &Network,
    a: &TimingReport,
    b: &TimingReport,
    what: &str,
) {
    assert_eq!(
        a.critical_delay_ns(),
        b.critical_delay_ns(),
        "{family}/{what}: critical delay drifted"
    );
    assert_eq!(a.required_time_ns(), b.required_time_ns(), "{family}/{what}: budget drifted");
    for g in network.iter_live() {
        assert_eq!(a.arrival(g), b.arrival(g), "{family}/{what}: arrival drifted at {g}");
        assert_eq!(a.required(g), b.required(g), "{family}/{what}: required drifted at {g}");
        assert_eq!(a.slack(g), b.slack(g), "{family}/{what}: slack drifted at {g}");
    }
}

#[test]
fn levelized_matches_scalar_bit_identically_per_family() {
    for seed in [7, 11] {
        for (family, mut network) in generator_zoo() {
            let (placement, library, timing) = setup(&network, seed);
            let gates: Vec<GateId> = network.iter_logic().collect();
            let mut rng = Lcg(0xfeed ^ family.len() as u64);
            // Step 0 checks the pristine mapped network; further steps
            // perturb drive strengths so the kernel sees varied delay/load
            // landscapes.
            for step in 0..8 {
                if step > 0 {
                    let g = gates[rng.next() as usize % gates.len()];
                    network.gate_mut(g).size_class = (rng.next() % 4) as u8;
                }
                let reference = Sta::analyze_reference(&network, &library, &placement, &timing);
                let fast = Sta::analyze(&network, &library, &placement, &timing);
                let what = format!("seed {seed} step {step}");
                assert_reports_identical(family, &network, &reference, &fast, &what);
            }
        }
    }
}

#[test]
fn thread_count_invariance_1_2_8() {
    for (family, network) in generator_zoo() {
        let (placement, library, timing) = setup(&network, 11);
        let reference = Sta::analyze_reference(&network, &library, &placement, &timing);
        for threads in [1, 2, 8] {
            let t = Sta::analyze_with_threads(&network, &library, &placement, &timing, threads);
            let what = format!("threads={threads}");
            assert_reports_identical(family, &network, &reference, &t, &what);
        }
    }
}

#[test]
fn grown_networks_post_es_overlay_stay_identical() {
    for (family, mut network) in generator_zoo() {
        let (mut placement, library, timing) = setup(&network, 13);
        let gates: Vec<GateId> = network.iter_logic().collect();
        let mut rng = Lcg(0xE5 ^ family.len() as u64);
        // Grow the network the way applied inverting swaps do: inverters
        // inserted on logic pins, hosted on top of their drivers (overlay
        // slots past the caller placement).
        for k in 0..4 {
            let host = gates[rng.next() as usize % gates.len()];
            if network.fanins(host).is_empty() {
                continue;
            }
            let pin = rng.next() as usize % network.fanins(host).len();
            let driver = network.fanins(host)[pin];
            let inv =
                network.insert_inverter(PinRef::new(host, pin), format!("es_inv_{k}")).unwrap();
            placement.host_at(inv, placement.position(driver));
            let reference = Sta::analyze_reference(&network, &library, &placement, &timing);
            let fast = Sta::analyze(&network, &library, &placement, &timing);
            assert_reports_identical(family, &network, &reference, &fast, "grown");
        }
    }
}

#[test]
fn tombstoned_networks_post_undo_stay_identical() {
    for (family, mut network) in generator_zoo() {
        let (mut placement, library, timing) = setup(&network, 17);
        let gates: Vec<GateId> = network.iter_logic().collect();
        let mut rng = Lcg(0x70b ^ family.len() as u64);
        // Insert two inverters, then undo the *first* insertion only: its
        // slot becomes a tombstone in the middle of the live overlay range,
        // which is exactly the state a partially rolled-back ES pass leaves
        // behind.
        let mut inserted: Vec<(GateId, PinRef, GateId)> = Vec::new();
        for k in 0..2 {
            let host = gates[rng.next() as usize % gates.len()];
            if network.fanins(host).is_empty() {
                continue;
            }
            let pin = rng.next() as usize % network.fanins(host).len();
            let driver = network.fanins(host)[pin];
            let inv =
                network.insert_inverter(PinRef::new(host, pin), format!("undo_inv_{k}")).unwrap();
            placement.host_at(inv, placement.position(driver));
            inserted.push((inv, PinRef::new(host, pin), driver));
        }
        if let Some(&(inv, pin, driver)) = inserted.first() {
            // Only undo if the pin still sees this inverter (the second
            // insertion may have stacked onto the same pin).
            if network.fanins(pin.gate)[pin.index] == inv {
                network.replace_pin_driver(pin, driver).unwrap();
                assert!(network.remove_if_dangling(inv), "undone inverter must be dangling");
            }
        }
        let reference = Sta::analyze_reference(&network, &library, &placement, &timing);
        let fast = Sta::analyze(&network, &library, &placement, &timing);
        assert_reports_identical(family, &network, &reference, &fast, "tombstoned");
    }
}
