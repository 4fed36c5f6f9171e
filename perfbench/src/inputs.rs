//! Seeded input generation.  Every design comes from the public
//! `rapids-circuits` generators, drawn from the workload seed; the program
//! under test only ever receives the generated networks (table1, signoff)
//! or their BLIF text (serve_mix).

use std::sync::Arc;

use rapids_circuits::generators::alu::alu;
use rapids_circuits::generators::multiplier::array_multiplier;
use rapids_circuits::generators::parity::error_corrector;
use rapids_circuits::generators::random_logic::{random_logic, RandomLogicConfig};
use rapids_circuits::map_to_library;
use rapids_netlist::topo::topological_order;
use rapids_netlist::{blif, GateId, GateType, Network};

/// SplitMix64: a small, fully specified generator, so the inputs of a
/// seed never depend on another crate's random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, zero included).
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seed the serve protocol can carry exactly (below 2^53).
    pub fn seed53(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// One generated design, mapped onto the library.
#[derive(Debug, Clone)]
pub struct Design {
    /// Row name (`c432`, `ctl3`, …).
    pub name: String,
    /// The mapped network with pre-assigned drive strengths — what the
    /// table1 and signoff flows receive.
    pub network: Network,
}

/// The generator family of a Table 1 row.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Alu(usize),
    Multiplier(usize),
    /// c499: an 8×32 single-error corrector.
    ErrorCorrector,
    /// c1355: the same corrector with every XOR expanded into four NAND2
    /// gates, as the real c1355 relates to c499.
    ErrorCorrectorNand,
    /// Random control logic: generator gate target and XOR fraction.
    Control(usize, f64),
}

/// The 19 design shapes of the paper's Table 1: family and size of each
/// row, in the paper's order.
const TABLE1_SHAPES: [(&str, Shape); 19] = [
    ("alu2", Shape::Alu(16)),
    ("alu4", Shape::Alu(32)),
    ("c432", Shape::Control(200, 0.10)),
    ("c499", Shape::ErrorCorrector),
    ("c1355", Shape::ErrorCorrectorNand),
    ("c1908", Shape::Control(520, 0.15)),
    ("c2670", Shape::Control(650, 0.05)),
    ("c3540", Shape::Control(1290, 0.08)),
    ("c5315", Shape::Control(1700, 0.05)),
    ("c6288", Shape::Multiplier(20)),
    ("c7552", Shape::Control(1830, 0.06)),
    ("i10", Shape::Control(2430, 0.04)),
    ("x3", Shape::Control(720, 0.02)),
    ("i8", Shape::Control(880, 0.03)),
    ("k2", Shape::Control(1060, 0.02)),
    ("s5378", Shape::Control(1290, 0.03)),
    ("s13207", Shape::Control(2070, 0.03)),
    ("s15850", Shape::Control(3320, 0.03)),
    ("s38417", Shape::Control(7210, 0.03)),
];

fn control(gates: usize, xor_fraction: f64, max_fanin: usize, seed: u64) -> Network {
    let config =
        RandomLogicConfig { xor_fraction, max_fanin, ..RandomLogicConfig::with_gates(gates) };
    random_logic(&config, seed)
}

fn raw_shape(shape: Shape, rng: &mut Rng) -> Network {
    match shape {
        Shape::Alu(width) => alu(width),
        Shape::Multiplier(bits) => array_multiplier(bits),
        Shape::ErrorCorrector => error_corrector(8, 32),
        Shape::ErrorCorrectorNand => expand_xors(&error_corrector(8, 32)),
        Shape::Control(gates, xor_fraction) => control(gates, xor_fraction, 4, rng.next_u64()),
    }
}

/// Maps a raw network onto the library and pre-assigns drive strengths
/// the way a timing-driven mapper leaves them (stronger cells on
/// high-fanout nets), so the sizers can both upsize and recover area.
fn map_design(name: &str, raw: &Network) -> Design {
    let mut network = map_to_library(raw, 4).expect("generated circuits map onto the library");
    network.set_name(name);
    let gates: Vec<GateId> = network.iter_logic().collect();
    for g in gates {
        let fanout = network.fanout_degree(g);
        network.gate_mut(g).size_class = if fanout > 5 { 3 } else { 2 };
    }
    Design { name: name.to_string(), network }
}

/// The table1 workload: the 19 Table 1 shapes, control rows drawn from
/// `seed`.
pub fn table1_designs(seed: u64) -> Vec<Design> {
    let mut rng = Rng::new(seed ^ 0x7AB1_E001);
    TABLE1_SHAPES
        .iter()
        .map(|&(name, shape)| map_design(name, &raw_shape(shape, &mut rng)))
        .collect()
}

/// Control designs in the signoff draw.
const SIGNOFF_CONTROL_DESIGNS: usize = 32;

/// Generator gate targets of the signoff control designs: an evenly
/// spaced ladder (about 700 to 1,900 mapped gates), so a seed changes
/// each design's structure but not the size mix.  The XOR share is fixed
/// per position too (2 to 10 %, interleaved along the ladder): drawn from
/// the seed, it made the mean delay gain spread about four times wider
/// across seeds.
const SIGNOFF_GATES: (usize, usize) = (500, 1300);

/// Widest gate of the signoff control designs.  At fan-in 4 the SAT
/// safety net panics ("fan-in encoded before use") on an XOR4 whose
/// operands include a signal and its complement: the DAG cancels the
/// pair, so the pair's cone is never marked for encoding.  Fan-in 3
/// keeps the workload clear of that defect (an XOR3 with a cancelled pair
/// collapses onto its third operand).
const SIGNOFF_MAX_FANIN: usize = 3;

/// The signoff workload: mid-size control logic drawn from `seed`, plus
/// one XOR-rich single-error corrector with c499's interface (32 data
/// bits, 8 check bits).
pub fn signoff_designs(seed: u64) -> Vec<Design> {
    let mut rng = Rng::new(seed ^ 0x5160_0FF0);
    let (lo, hi) = SIGNOFF_GATES;
    let mut designs: Vec<Design> = (0..SIGNOFF_CONTROL_DESIGNS)
        .map(|i| {
            let gates = lo + (hi - lo) * i / (SIGNOFF_CONTROL_DESIGNS - 1);
            let xor_fraction = 0.02 + 0.08 * ((i * 13) % SIGNOFF_CONTROL_DESIGNS) as f64 / 31.0;
            let raw = control(gates, xor_fraction, SIGNOFF_MAX_FANIN, rng.next_u64());
            map_design(&format!("ctl{i}"), &raw)
        })
        .collect();
    designs.push(map_design("ecc", &error_corrector(4, 8)));
    designs
}

/// The placement seed a workload runs under, drawn from its seed.
pub fn placement_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0x91AC_E5EE).seed53()
}

/// Rewrites every XOR/XNOR gate as a chain of four-NAND2 XOR cells (an
/// XNOR adds an inverter).  Function and interface are unchanged.
fn expand_xors(raw: &Network) -> Network {
    let order = topological_order(raw).expect("generated networks are acyclic");
    let mut out = Network::new(format!("{}_nand", raw.name()));
    let mut map: Vec<Option<GateId>> = vec![None; raw.gate_count()];
    for &input in raw.inputs() {
        map[input.index()] = Some(out.add_input(raw.gate(input).name.clone()));
    }
    let nand = |out: &mut Network, a: GateId, b: GateId, name: String| {
        out.add_gate(GateType::Nand, &[a, b], name).expect("NAND2 accepts two fan-ins")
    };
    for g in order {
        if map[g.index()].is_some() {
            continue;
        }
        let gate = raw.gate(g);
        let fanins: Vec<GateId> = gate
            .fanins
            .iter()
            .map(|f| map[f.index()].expect("fan-ins precede their gate"))
            .collect();
        let id = match gate.gtype {
            GateType::Xor | GateType::Xnor => {
                let mut acc = fanins[0];
                for (k, &b) in fanins[1..].iter().enumerate() {
                    let tag = format!("{}_x{k}", gate.name);
                    let n1 = nand(&mut out, acc, b, format!("{tag}a"));
                    let n2 = nand(&mut out, acc, n1, format!("{tag}b"));
                    let n3 = nand(&mut out, b, n1, format!("{tag}c"));
                    acc = nand(&mut out, n2, n3, format!("{tag}d"));
                }
                if gate.gtype == GateType::Xnor {
                    out.add_gate(GateType::Inv, &[acc], gate.name.clone())
                        .expect("an inverter accepts one fan-in")
                } else {
                    acc
                }
            }
            gtype => out.add_gate(gtype, &fanins, gate.name.clone()).expect("copied gate is valid"),
        };
        map[g.index()] = Some(id);
    }
    for port in raw.outputs() {
        out.add_output(map[port.driver.index()].expect("outputs are driven"), port.name.clone());
    }
    out
}

/// One request of the serve_mix stream.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// The protocol line (one JSON job spec, inline BLIF).
    pub line: Arc<str>,
    /// Index of the stream's distinct design this job submits.
    pub design: usize,
    /// `true` when the same line was already answered on this client, so
    /// the server must answer from its result cache.
    pub resubmit: bool,
}

/// A distinct design of the serve_mix stream.
#[derive(Debug, Clone)]
pub struct ServeDesign {
    /// The job name of its first submission.
    pub name: String,
    /// The raw network's BLIF text, as shipped.
    pub blif: String,
    /// The placement seed its job spec carries.
    pub seed: u64,
    /// Which client submits it.
    pub client: usize,
}

/// The serve_mix stream: per client, a sequence of jobs; about
/// `RESUBMIT_SHARE` of them repeat a design and config this client
/// already had answered.
#[derive(Debug, Clone)]
pub struct ServeStream {
    /// Distinct designs, in order of first submission per client.
    pub designs: Vec<ServeDesign>,
    /// One job sequence per client.
    pub clients: Vec<Vec<ServeJob>>,
}

/// Share of serve_mix jobs that resubmit an earlier design and config.
/// Kept below one half so the median latency sits inside the miss
/// population instead of on the boundary between hits and misses.
const RESUBMIT_SHARE: f64 = 0.4;

/// Generator gate targets of serve_mix designs.
const SERVE_GATES: (usize, usize) = (150, 1100);

/// Builds the serve_mix stream for `clients` closed-loop clients of
/// `jobs_per_client` jobs each.
pub fn serve_stream(seed: u64, clients: usize, jobs_per_client: usize) -> ServeStream {
    let mut designs: Vec<ServeDesign> = Vec::new();
    let mut streams = Vec::new();
    for client in 0..clients {
        let mut rng = Rng::new(seed ^ 0x5E7E_0000 ^ ((client as u64) << 32));
        let mut own: Vec<usize> = Vec::new();
        let mut jobs = Vec::with_capacity(jobs_per_client);
        let mut lines: Vec<Arc<str>> = Vec::new();
        for _ in 0..jobs_per_client {
            if !own.is_empty() && rng.unit() < RESUBMIT_SHARE {
                let k = rng.range(0, own.len() - 1);
                let design = own[k];
                jobs.push(ServeJob { line: Arc::clone(&lines[k]), design, resubmit: true });
                continue;
            }
            let gates = rng.range(SERVE_GATES.0, SERVE_GATES.1);
            let xor_fraction = 0.02 + 0.08 * rng.unit();
            let raw = control(gates, xor_fraction, 4, rng.next_u64());
            let name = format!("c{client}d{}", own.len());
            let blif = blif::write_string(&raw);
            let place_seed = rng.seed53();
            let line: Arc<str> = Arc::from(job_line(&name, &blif, place_seed));
            let design = designs.len();
            designs.push(ServeDesign { name, blif, seed: place_seed, client });
            own.push(design);
            lines.push(Arc::clone(&line));
            jobs.push(ServeJob { line, design, resubmit: false });
        }
        streams.push(jobs);
    }
    ServeStream { designs, clients: streams }
}

/// The job-spec line for one inline-BLIF design at fast effort.
fn job_line(name: &str, blif: &str, seed: u64) -> String {
    use rapids_serve::json::escape_string;
    format!(
        "{{\"name\":{},\"blif_text\":{},\"fast\":true,\"seed\":{seed}}}",
        escape_string(name),
        escape_string(blif)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(designs: &[Design]) -> Vec<String> {
        designs.iter().map(|d| blif::write_string(&d.network)).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = signoff_designs(7);
        assert_eq!(fingerprint(&a), fingerprint(&signoff_designs(7)));
        let b = signoff_designs(8);
        assert_ne!(
            fingerprint(&a)[..SIGNOFF_CONTROL_DESIGNS],
            fingerprint(&b)[..SIGNOFF_CONTROL_DESIGNS]
        );
        assert_ne!(placement_seed(7), placement_seed(8));
        let s = serve_stream(7, 2, 30);
        let t = serve_stream(7, 2, 30);
        let lines = |s: &ServeStream| -> Vec<String> {
            s.clients.iter().flatten().map(|j| j.line.to_string()).collect()
        };
        assert_eq!(lines(&s), lines(&t));
        assert_ne!(lines(&s), lines(&serve_stream(8, 2, 30)));
    }

    #[test]
    fn table1_rows_are_distinct_designs() {
        let designs = table1_designs(3);
        assert_eq!(designs.len(), 19);
        let texts = fingerprint(&designs);
        let c499 = designs.iter().position(|d| d.name == "c499").unwrap();
        let c1355 = designs.iter().position(|d| d.name == "c1355").unwrap();
        assert_ne!(texts[c499], texts[c1355], "c1355 must not duplicate c499");
        assert!(
            designs[c1355].network.logic_gate_count() > designs[c499].network.logic_gate_count()
        );
    }

    #[test]
    fn nand_expansion_preserves_function() {
        let raw = error_corrector(3, 4);
        let expanded = expand_xors(&raw);
        assert!(expanded.iter_logic().all(|g| expanded.gate(g).gtype != GateType::Xor));
        assert!(rapids_sim::check_equivalence_exhaustive(&raw, &expanded).is_equivalent());
    }

    #[test]
    fn resubmissions_repeat_an_earlier_line_of_the_same_client() {
        let stream = serve_stream(11, 2, 200);
        for jobs in &stream.clients {
            let resubmits = jobs.iter().filter(|j| j.resubmit).count();
            assert!(resubmits > 40 && resubmits < 120, "{resubmits} of 200");
            for (i, job) in jobs.iter().enumerate() {
                let first = jobs.iter().position(|j| j.design == job.design).unwrap();
                assert_eq!(job.resubmit, first < i);
                assert_eq!(job.line, jobs[first].line);
            }
        }
    }
}
