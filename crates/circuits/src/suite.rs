//! The benchmark suite: one synthetic circuit per row of the paper's
//! Table 1, mapped onto the evaluation library.
//!
//! Each entry records which generator family stands in for the original
//! benchmark and the parameters chosen so that the *mapped* gate count lands
//! in the neighbourhood of the count reported in the paper (column 2 of
//! Table 1).  Exact equality is neither possible nor necessary — the
//! experiment compares relative improvements — but the suite keeps the same
//! ordering of sizes and the same structural families (arithmetic vs.
//! XOR-rich vs. control logic).

use rapids_netlist::Network;

use crate::generators::alu::alu;
use crate::generators::multiplier::array_multiplier;
use crate::generators::parity::error_corrector;
use crate::generators::random_logic::{random_logic, RandomLogicConfig};
use crate::mapper::map_to_library;

/// The structural family a benchmark row is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// ALU-style arithmetic + selection logic (alu2, alu4).
    Alu,
    /// Array multiplier (c6288).
    Multiplier,
    /// XOR-dominated error-correcting logic (c499, c1355).
    ErrorCorrecting,
    /// Random multi-level control logic (everything else).
    Control,
}

/// Descriptor of one suite entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name as it appears in Table 1.
    pub name: &'static str,
    /// Gate count reported in the paper (column 2).
    pub paper_gate_count: usize,
    /// Structural family used by the generator.
    pub family: Family,
    /// Fraction of XOR gates for control-family circuits.
    xor_fraction: f64,
    /// Primary size parameter passed to the family generator.
    size_parameter: usize,
    /// Seed for the deterministic generator.
    seed: u64,
}

/// All 19 benchmark rows of Table 1, in the paper's order.
const SUITE: &[BenchmarkSpec] = &[
    BenchmarkSpec {
        name: "alu2",
        paper_gate_count: 516,
        family: Family::Alu,
        xor_fraction: 0.0,
        size_parameter: 16,
        seed: 102,
    },
    BenchmarkSpec {
        name: "alu4",
        paper_gate_count: 1004,
        family: Family::Alu,
        xor_fraction: 0.0,
        size_parameter: 32,
        seed: 104,
    },
    BenchmarkSpec {
        name: "c432",
        paper_gate_count: 291,
        family: Family::Control,
        xor_fraction: 0.10,
        size_parameter: 200,
        seed: 432,
    },
    BenchmarkSpec {
        name: "c499",
        paper_gate_count: 625,
        family: Family::ErrorCorrecting,
        xor_fraction: 0.0,
        size_parameter: 8,
        seed: 499,
    },
    BenchmarkSpec {
        name: "c1355",
        paper_gate_count: 625,
        family: Family::ErrorCorrecting,
        xor_fraction: 0.0,
        size_parameter: 8,
        seed: 1355,
    },
    BenchmarkSpec {
        name: "c1908",
        paper_gate_count: 730,
        family: Family::Control,
        xor_fraction: 0.15,
        size_parameter: 520,
        seed: 1908,
    },
    BenchmarkSpec {
        name: "c2670",
        paper_gate_count: 911,
        family: Family::Control,
        xor_fraction: 0.05,
        size_parameter: 650,
        seed: 2670,
    },
    BenchmarkSpec {
        name: "c3540",
        paper_gate_count: 1809,
        family: Family::Control,
        xor_fraction: 0.08,
        size_parameter: 1290,
        seed: 3540,
    },
    BenchmarkSpec {
        name: "c5315",
        paper_gate_count: 2379,
        family: Family::Control,
        xor_fraction: 0.05,
        size_parameter: 1700,
        seed: 5315,
    },
    BenchmarkSpec {
        name: "c6288",
        paper_gate_count: 5000,
        family: Family::Multiplier,
        xor_fraction: 0.0,
        size_parameter: 20,
        seed: 6288,
    },
    BenchmarkSpec {
        name: "c7552",
        paper_gate_count: 2565,
        family: Family::Control,
        xor_fraction: 0.06,
        size_parameter: 1830,
        seed: 7552,
    },
    BenchmarkSpec {
        name: "i10",
        paper_gate_count: 3397,
        family: Family::Control,
        xor_fraction: 0.04,
        size_parameter: 2430,
        seed: 10,
    },
    BenchmarkSpec {
        name: "x3",
        paper_gate_count: 1010,
        family: Family::Control,
        xor_fraction: 0.02,
        size_parameter: 720,
        seed: 3,
    },
    BenchmarkSpec {
        name: "i8",
        paper_gate_count: 1229,
        family: Family::Control,
        xor_fraction: 0.03,
        size_parameter: 880,
        seed: 8,
    },
    BenchmarkSpec {
        name: "k2",
        paper_gate_count: 1484,
        family: Family::Control,
        xor_fraction: 0.02,
        size_parameter: 1060,
        seed: 2,
    },
    BenchmarkSpec {
        name: "s5378",
        paper_gate_count: 1811,
        family: Family::Control,
        xor_fraction: 0.03,
        size_parameter: 1290,
        seed: 5378,
    },
    BenchmarkSpec {
        name: "s13207",
        paper_gate_count: 2900,
        family: Family::Control,
        xor_fraction: 0.03,
        size_parameter: 2070,
        seed: 13207,
    },
    BenchmarkSpec {
        name: "s15850",
        paper_gate_count: 4640,
        family: Family::Control,
        xor_fraction: 0.03,
        size_parameter: 3320,
        seed: 15850,
    },
    BenchmarkSpec {
        name: "s38417",
        paper_gate_count: 10090,
        family: Family::Control,
        xor_fraction: 0.03,
        size_parameter: 7210,
        seed: 38417,
    },
];

/// Names of all suite entries, in Table 1 order.
pub fn suite_names() -> Vec<&'static str> {
    SUITE.iter().map(|s| s.name).collect()
}

/// Returns the descriptor of a suite entry.
pub fn spec(name: &str) -> Option<&'static BenchmarkSpec> {
    SUITE.iter().find(|s| s.name == name)
}

/// Generates and technology-maps the named benchmark.
///
/// Returns `None` if the name is not part of the suite.
///
/// Drive strengths are pre-assigned the way a timing-driven mapper would
/// leave them (mid-size cells, stronger ones on high-fanout nets), so the
/// gate-sizing optimizers have room to both upsize critical cells and
/// recover area on non-critical ones — matching the negative area deltas the
/// paper reports for `GS` and `gsg+GS`.
pub fn benchmark(name: &str) -> Option<Network> {
    let s = spec(name)?;
    let raw = generate_raw(s);
    let mut mapped = map_to_library(&raw, 4).expect("generated circuits always map");
    mapped.set_name(s.name);
    let gates: Vec<_> = mapped.iter_logic().collect();
    for g in gates {
        let fanout = mapped.fanout_degree(g);
        mapped.gate_mut(g).size_class = if fanout > 5 { 3 } else { 2 };
    }
    Some(mapped)
}

/// Generates the un-mapped network for a descriptor (exposed for tests and
/// ablations that want to study mapping effects).
pub fn generate_raw(s: &BenchmarkSpec) -> Network {
    match s.family {
        Family::Alu => alu(s.size_parameter),
        Family::Multiplier => array_multiplier(s.size_parameter),
        Family::ErrorCorrecting => error_corrector(s.size_parameter, s.size_parameter * 4),
        Family::Control => {
            let config = RandomLogicConfig {
                xor_fraction: s.xor_fraction,
                ..RandomLogicConfig::with_gates(s.size_parameter)
            };
            random_logic(&config, s.seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::is_mapped;

    #[test]
    fn suite_has_all_nineteen_rows() {
        assert_eq!(suite_names().len(), 19);
        assert_eq!(suite_names()[0], "alu2");
        assert_eq!(*suite_names().last().unwrap(), "s38417");
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(benchmark("does_not_exist").is_none());
        assert!(spec("nope").is_none());
    }

    #[test]
    fn smoke_entries_generate_and_are_mapped() {
        for name in ["alu2", "c432", "c499", "c1908"] {
            let n = benchmark(name).unwrap();
            assert!(is_mapped(&n, 4), "{name} not fully mapped");
            assert!(n.check_consistency().is_ok(), "{name} inconsistent");
            assert!(n.logic_gate_count() > 50, "{name} suspiciously small");
            assert_eq!(n.name(), name);
        }
    }

    #[test]
    fn mapped_sizes_track_paper_ordering() {
        // Generate three entries of very different paper sizes and check the
        // generated sizes preserve the ordering.
        let small = benchmark("c432").unwrap().logic_gate_count();
        let medium = benchmark("c1908").unwrap().logic_gate_count();
        let large = benchmark("c3540").unwrap().logic_gate_count();
        assert!(small < medium && medium < large, "{small} {medium} {large}");
    }

    #[test]
    fn control_entries_land_near_paper_counts() {
        for name in ["c432", "c1908", "x3"] {
            let s = spec(name).unwrap();
            let n = benchmark(name).unwrap();
            let got = n.logic_gate_count() as f64;
            let want = s.paper_gate_count as f64;
            assert!(
                got > 0.5 * want && got < 2.0 * want,
                "{name}: generated {got} vs paper {want}"
            );
        }
    }
}
