//! A small BLIF-like structural text format.
//!
//! The paper's flow reads SIS-mapped BLIF netlists.  For portability this
//! crate defines a compact structural dialect that captures exactly what the
//! rewiring engine needs (typed gates, no truth tables):
//!
//! ```text
//! .model adder4
//! .inputs a0 a1 b0 b1
//! .outputs s0 s1
//! .gate xor s0 a0 b0
//! .gate and c0 a0 b0
//! .gate xor s1 a1 b1 c0
//! .end
//! ```
//!
//! Each `.gate` line is `TYPE OUTPUT INPUT...`, for any type but `input`
//! (primary inputs are declared only by `.inputs`); the writer emits one
//! line per live logic gate in topological order so files round-trip.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::error::NetlistError;
use crate::gate::{GateId, GateType};
use crate::network::Network;
use crate::topo;

fn io_error(path: &Path, e: std::io::Error) -> NetlistError {
    NetlistError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Reads and parses a BLIF-like file.
///
/// # Errors
///
/// [`NetlistError::Io`] when the file cannot be read, otherwise whatever
/// [`parse_string`] reports about its contents.  Every error carries the
/// offending path: I/O errors structurally, parse errors as a
/// ``` `path`: ``` message prefix — a batch over hundreds of files must
/// point at the file, not just a line number inside an unnamed one.
pub fn parse_file(path: impl AsRef<Path>) -> Result<Network, NetlistError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    parse_string(&text).map_err(|e| match e {
        NetlistError::ParseBlif { line, message } => {
            NetlistError::ParseBlif { line, message: format!("`{}`: {message}", path.display()) }
        }
        other => other,
    })
}

/// Serializes a network with [`write_string`] and writes it to `path`.
///
/// # Errors
///
/// [`NetlistError::Io`] when the file cannot be written.
pub fn write_file(network: &Network, path: impl AsRef<Path>) -> Result<(), NetlistError> {
    let path = path.as_ref();
    std::fs::write(path, write_string(network)).map_err(|e| io_error(path, e))
}

/// Recursively discovers every `*.blif` file under `root`, in a
/// deterministic order (lexicographic by full path), so a directory of
/// benchmarks always enumerates — and therefore schedules and reports —
/// identically.  This is the shared loader behind `table1 --blif-dir` and
/// the serve layer's directory ingestion.
///
/// # Errors
///
/// [`NetlistError::Io`] on the first unreadable directory entry.  Files
/// are only *discovered* here; parse them with [`parse_file`] (a bad file
/// is the reader's problem, not the walk's).
pub fn discover_files(root: impl AsRef<Path>) -> Result<Vec<std::path::PathBuf>, NetlistError> {
    fn walk(dir: &Path, found: &mut Vec<std::path::PathBuf>) -> Result<(), NetlistError> {
        let entries = std::fs::read_dir(dir).map_err(|e| io_error(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_error(dir, e))?;
            let path = entry.path();
            let ftype = entry.file_type().map_err(|e| io_error(&path, e))?;
            if ftype.is_dir() {
                walk(&path, found)?;
            } else if path.extension().is_some_and(|ext| ext == "blif") {
                found.push(path);
            }
        }
        Ok(())
    }
    let mut found = Vec::new();
    walk(root.as_ref(), &mut found)?;
    found.sort_by(|a, b| a.as_os_str().cmp(b.as_os_str()));
    Ok(found)
}

/// Serializes a network to the structural BLIF-like dialect.
///
/// Tomb-stoned gates are skipped; gates are emitted in topological order so
/// the reader never sees a forward reference.
pub fn write_string(network: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", network.name());
    let input_names: Vec<&str> =
        network.inputs().iter().map(|&i| network.gate(i).name.as_str()).collect();
    let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    let output_names: Vec<&str> = network.outputs().iter().map(|o| o.name.as_str()).collect();
    let _ = writeln!(out, ".outputs {}", output_names.join(" "));
    let order = topo::topological_order(network).expect("cannot serialize a cyclic network");
    for g in order {
        let gate = network.gate(g);
        match gate.gtype {
            GateType::Input => {}
            GateType::Const0 | GateType::Const1 => {
                let _ = writeln!(out, ".gate {} {}", gate.gtype.mnemonic(), gate.name);
            }
            t => {
                let fanin_names: Vec<&str> =
                    gate.fanins.iter().map(|&f| network.gate(f).name.as_str()).collect();
                let _ =
                    writeln!(out, ".gate {} {} {}", t.mnemonic(), gate.name, fanin_names.join(" "));
            }
        }
    }
    // Output ports whose name differs from their driver need explicit buffers
    // on read-back; emit them as .link lines.
    for o in network.outputs() {
        let driver_name = &network.gate(o.driver).name;
        if driver_name != &o.name {
            let _ = writeln!(out, ".link {} {}", o.name, driver_name);
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Parses the structural BLIF-like dialect produced by [`write_string`].
///
/// `.gate` lines may come in any order.  Gates are added in the order of
/// a line-order fixpoint (each pass adds, in line order, every gate whose
/// fan-ins are all defined), computed in one walk, so a file whose gates
/// are in topological order gets its ids in line order.
///
/// # Errors
///
/// Returns [`NetlistError::ParseBlif`] with a line number for syntactic
/// problems, and name/structural errors for semantic ones.
pub fn parse_string(text: &str) -> Result<Network, NetlistError> {
    let Directives { name, inputs, outputs, gates, links } = parse_lines(text)?;
    let mut network = Network::new(name);
    // Every name: an input, or the output of the `.gate` line at an index.
    let mut signals: HashMap<&str, Signal> = HashMap::with_capacity(inputs.len() + gates.len());
    for i in &inputs {
        let id = network.add_input(i.clone());
        if signals.insert(i, Signal::Input(id)).is_some() {
            return Err(NetlistError::DuplicateName(i.clone()));
        }
    }
    for (g, (_, out, _)) in gates.iter().enumerate() {
        if signals.insert(out, Signal::Gate(g)).is_some() {
            return Err(NetlistError::DuplicateName(out.clone()));
        }
    }
    let ids = add_gates(&mut network, &gates, &signals)?;
    add_outputs(&mut network, outputs, links, |name| match signals.get(name)? {
        Signal::Input(id) => Some(*id),
        Signal::Gate(g) => Some(ids[*g]),
    })?;
    Ok(network)
}

/// One `.gate` line: its type, output name and fan-in names.
type PendingGate = (GateType, String, Vec<String>);

/// The directives of a BLIF text, before any name is resolved.
struct Directives {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    gates: Vec<PendingGate>,
    links: Vec<(String, String)>,
}

fn parse_lines(text: &str) -> Result<Directives, NetlistError> {
    let mut name = String::from("unnamed");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<PendingGate> = Vec::new();
    let mut links: Vec<(String, String)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().unwrap();
        match keyword {
            ".model" => {
                name = tokens
                    .next()
                    .ok_or(NetlistError::ParseBlif {
                        line: lineno,
                        message: "missing model name".into(),
                    })?
                    .to_string();
            }
            ".inputs" => inputs.extend(tokens.map(|s| s.to_string())),
            ".outputs" => outputs.extend(tokens.map(|s| s.to_string())),
            ".gate" => {
                let type_token = tokens.next().ok_or(NetlistError::ParseBlif {
                    line: lineno,
                    message: "missing gate type".into(),
                })?;
                let gtype = GateType::from_mnemonic(type_token).ok_or(NetlistError::ParseBlif {
                    line: lineno,
                    message: format!("unknown gate type `{type_token}`"),
                })?;
                if gtype == GateType::Input {
                    return Err(NetlistError::ParseBlif {
                        line: lineno,
                        message: "a primary input is declared by `.inputs`, not `.gate input`"
                            .into(),
                    });
                }
                let out = tokens
                    .next()
                    .ok_or(NetlistError::ParseBlif {
                        line: lineno,
                        message: "missing gate output name".into(),
                    })?
                    .to_string();
                let fanins: Vec<String> = tokens.map(|s| s.to_string()).collect();
                gates.push((gtype, out, fanins));
            }
            ".link" => {
                let port = tokens.next().ok_or(NetlistError::ParseBlif {
                    line: lineno,
                    message: "missing link port".into(),
                })?;
                let driver = tokens.next().ok_or(NetlistError::ParseBlif {
                    line: lineno,
                    message: "missing link driver".into(),
                })?;
                links.push((port.to_string(), driver.to_string()));
            }
            ".end" => break,
            other => {
                return Err(NetlistError::ParseBlif {
                    line: lineno,
                    message: format!("unknown directive `{other}`"),
                })
            }
        }
    }
    Ok(Directives { name, inputs, outputs, gates, links })
}

/// Adds the output ports, each driven by its `.link` driver or else by the
/// signal of its own name.
fn add_outputs(
    network: &mut Network,
    outputs: Vec<String>,
    links: Vec<(String, String)>,
    driver: impl Fn(&str) -> Option<GateId>,
) -> Result<(), NetlistError> {
    let link_map: HashMap<String, String> = links.into_iter().collect();
    for o in outputs {
        let source = link_map.get(&o).unwrap_or(&o);
        let id = driver(source).ok_or_else(|| NetlistError::UndefinedName(source.clone()))?;
        network.add_output(id, o);
    }
    Ok(())
}

/// Where a gate falls in the line-order fixpoint: each pass adds, in line
/// order, every gate whose fan-ins are all defined.
#[derive(Clone, Copy)]
enum Pass {
    Unvisited,
    /// On the walk's stack: reaching it again closes a cycle.
    Open,
    Added(u32),
    /// On a cycle, or reading an undefined name or such a gate.
    Never,
}

/// What a name stands for.
#[derive(Clone, Copy)]
enum Signal {
    /// A primary input.
    Input(GateId),
    /// The output of the `.gate` line at this index.
    Gate(usize),
}

/// Adds the gates in the order the line-order fixpoint would, in
/// O(gates log gates) rather than the fixpoint's O(gates × depth), and
/// returns each line's gate id.
///
/// A gate's pass is 1 when it reads no gate.  Otherwise it is the largest,
/// over the gates it reads, of that gate's pass, plus one when that gate's
/// line comes later.  One iterative depth-first walk computes every pass,
/// and the gates are added sorted by (pass, line).  Gates that never
/// resolve are reported as the fixpoint reports them.
fn add_gates(
    network: &mut Network,
    gates: &[PendingGate],
    signals: &HashMap<&str, Signal>,
) -> Result<Vec<GateId>, NetlistError> {
    // Gate `g` reads `fanins[start[g]..start[g + 1]]`; `None` is a name
    // nothing defines.
    let mut start = Vec::with_capacity(gates.len() + 1);
    let mut fanins: Vec<Option<Signal>> = Vec::new();
    for (_, _, names) in gates {
        start.push(fanins.len());
        fanins.extend(names.iter().map(|name| signals.get(name.as_str()).copied()));
    }
    start.push(fanins.len());
    let reads = |g: usize| &fanins[start[g]..start[g + 1]];

    let mut pass = vec![Pass::Unvisited; gates.len()];
    // Walk frames: gate, next fan-in to look at, pass so far.
    let mut stack: Vec<(usize, usize, Pass)> = Vec::new();
    for root in 0..gates.len() {
        if !matches!(pass[root], Pass::Unvisited) {
            continue;
        }
        pass[root] = Pass::Open;
        stack.push((root, 0, Pass::Added(1)));
        while let Some(&mut (g, ref mut next, ref mut acc)) = stack.last_mut() {
            let Some(&fanin) = reads(g).get(*next) else {
                pass[g] = *acc;
                stack.pop();
                continue;
            };
            let from = match fanin {
                Some(Signal::Input(_)) => Pass::Added(1),
                Some(Signal::Gate(f)) => match pass[f] {
                    Pass::Unvisited => {
                        pass[f] = Pass::Open;
                        stack.push((f, 0, Pass::Added(1)));
                        continue;
                    }
                    Pass::Added(p) => Pass::Added(p + u32::from(f > g)),
                    Pass::Open | Pass::Never => Pass::Never,
                },
                None => Pass::Never,
            };
            *next += 1;
            *acc = match (*acc, from) {
                (Pass::Added(a), Pass::Added(b)) => Pass::Added(a.max(b)),
                _ => Pass::Never,
            };
        }
    }

    let mut order: Vec<(u32, usize)> = pass
        .iter()
        .enumerate()
        .filter_map(|(g, p)| match *p {
            Pass::Added(p) => Some((p, g)),
            _ => None,
        })
        .collect();
    order.sort_unstable();
    let mut ids = vec![GateId(u32::MAX); gates.len()];
    for &(_, g) in &order {
        let (gtype, out, _) = &gates[g];
        ids[g] = match gtype {
            GateType::Const0 => network.add_constant(false, out.clone()),
            GateType::Const1 => network.add_constant(true, out.clone()),
            &t => {
                // Every gate read was added earlier: its (pass, line) is
                // smaller.
                let drivers: Vec<GateId> = reads(g)
                    .iter()
                    .map(|fanin| match fanin {
                        Some(Signal::Input(id)) => *id,
                        Some(Signal::Gate(f)) => ids[*f],
                        None => unreachable!("an added gate reads only defined names"),
                    })
                    .collect();
                network.add_gate(t, &drivers, out.clone())?
            }
        };
    }

    if let Some(first) = pass.iter().position(|p| matches!(p, Pass::Never)) {
        // Name the first fan-in, in line order, that nothing defines; when
        // only cycles are left, the first fan-in of the first gate that
        // never resolves.
        let missing = gates
            .iter()
            .enumerate()
            .flat_map(|(g, (_, _, names))| names.iter().zip(reads(g)))
            .find_map(|(name, fanin)| fanin.is_none().then_some(name))
            .unwrap_or(&gates[first].2[0]);
        return Err(NetlistError::UndefinedName(missing.clone()));
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::gate::GateType;

    fn sample() -> Network {
        let mut b = NetworkBuilder::new("adder1");
        b.inputs(["a", "b", "cin"]);
        b.gate("s_ab", GateType::Xor, &["a", "b"]);
        b.gate("sum", GateType::Xor, &["s_ab", "cin"]);
        b.gate("c1", GateType::And, &["a", "b"]);
        b.gate("c2", GateType::And, &["s_ab", "cin"]);
        b.gate("cout", GateType::Or, &["c1", "c2"]);
        b.output("sum");
        b.output("cout");
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let n = sample();
        let text = write_string(&n);
        let back = parse_string(&text).unwrap();
        assert_eq!(back.name(), "adder1");
        assert_eq!(back.logic_gate_count(), n.logic_gate_count());
        assert_eq!(back.inputs().len(), n.inputs().len());
        assert_eq!(back.outputs().len(), n.outputs().len());
        assert!(back.check_consistency().is_ok());
    }

    /// The per-gate shape of a network, keyed by instance name: gate type
    /// plus the ordered fan-in driver names.  Two networks with equal
    /// signatures and equal output ports are isomorphic (names are unique,
    /// so the name map *is* the vertex bijection).
    fn signature(n: &Network) -> std::collections::BTreeMap<String, (String, Vec<String>)> {
        n.iter_live()
            .map(|id| {
                let gate = n.gate(id);
                let fanin_names: Vec<String> =
                    gate.fanins.iter().map(|&f| n.gate(f).name.clone()).collect();
                (gate.name.clone(), (format!("{:?}", gate.gtype), fanin_names))
            })
            .collect()
    }

    #[test]
    fn round_trip_is_isomorphic() {
        let n = sample();
        let back = parse_string(&write_string(&n)).unwrap();

        assert_eq!(signature(&n), signature(&back));

        let ports = |net: &Network| -> Vec<(String, String)> {
            net.outputs()
                .iter()
                .map(|p| (p.name.clone(), net.gate(p.driver).name.clone()))
                .collect()
        };
        assert_eq!(ports(&n), ports(&back));

        let input_names = |net: &Network| -> Vec<String> {
            net.inputs().iter().map(|&i| net.gate(i).name.clone()).collect()
        };
        assert_eq!(input_names(&n), input_names(&back));
    }

    #[test]
    fn round_trip_is_a_fixpoint() {
        // write(parse(write(n))) must reproduce the text byte for byte —
        // a stronger (and cheaper to debug) form of the isomorphism check.
        let first = write_string(&sample());
        let second = write_string(&parse_string(&first).unwrap());
        assert_eq!(first, second);
    }

    #[test]
    fn parse_rejects_unknown_type() {
        let text = ".model x\n.inputs a\n.outputs f\n.gate frob f a\n.end\n";
        let err = parse_string(text).unwrap_err();
        assert!(matches!(err, NetlistError::ParseBlif { line: 4, .. }));
    }

    #[test]
    fn parse_rejects_an_input_gate() {
        // `write_string` skips `Input`-typed gates, so such a gate would be
        // a name the written text uses without defining.
        let text = ".model x\n.inputs a b\n.outputs f\n.gate input x\n.gate and f a x\n.end\n";
        let err = parse_string(text).unwrap_err();
        assert!(matches!(err, NetlistError::ParseBlif { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn parse_rejects_undefined_signal() {
        let text = ".model x\n.inputs a\n.outputs f\n.gate and f a ghost\n.end\n";
        let err = parse_string(text).unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedName(_)));
    }

    #[test]
    fn parse_rejects_duplicate_definition() {
        let text = ".model x\n.inputs a b\n.outputs f\n.gate and f a b\n.gate or f a b\n.end\n";
        let err = parse_string(text).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName(_)));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a comment\n\n.model x\n.inputs a b\n.outputs f\n.gate nand f a b\n.end\n";
        let n = parse_string(text).unwrap();
        assert_eq!(n.logic_gate_count(), 1);
        assert_eq!(n.gate(n.find_by_name("f").unwrap()).gtype, GateType::Nand);
    }

    #[test]
    fn out_of_order_gates_resolve() {
        let text = ".model x\n.inputs a b c\n.outputs f\n.gate or f n1 c\n.gate and n1 a b\n.end\n";
        let n = parse_string(text).unwrap();
        assert_eq!(n.logic_gate_count(), 2);
        assert!(n.check_consistency().is_ok());
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let n = sample();
        let dir = std::env::temp_dir().join(format!("rapids_blif_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adder1.blif");
        write_file(&n, &path).unwrap();
        let back = parse_file(&path).unwrap();
        assert_eq!(signature(&n), signature(&back));
        std::fs::remove_dir_all(&dir).unwrap();

        let missing = dir.join("nope.blif");
        assert!(matches!(parse_file(&missing).unwrap_err(), NetlistError::Io { .. }));
        assert!(matches!(write_file(&n, &missing).unwrap_err(), NetlistError::Io { .. }));
    }

    /// Every `parse_file` failure must point at the offending file: I/O
    /// errors carry the path structurally, parse errors carry it as a
    /// message prefix.
    #[test]
    fn parse_file_errors_carry_the_path() {
        let dir = std::env::temp_dir().join(format!("rapids_blif_patherr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // An unreadable "file": a directory path fails `read_to_string`
        // with a real I/O error even for root, unlike permission bits.
        let err = parse_file(&dir).unwrap_err();
        match &err {
            NetlistError::Io { path, .. } => assert_eq!(path, &dir.display().to_string()),
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(err.to_string().contains(&dir.display().to_string()));

        // A present-but-malformed file: the parse error names it too.
        let bad = dir.join("garbage.blif");
        std::fs::write(&bad, "this is not blif\n").unwrap();
        let err = parse_file(&bad).unwrap_err();
        assert!(matches!(err, NetlistError::ParseBlif { .. }));
        assert!(err.to_string().contains("garbage.blif"), "parse error must carry the path: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Seeded property loop: random DAGs with tomb-stoned interior and
    /// trailing slots (the shape of a post-ES grown-then-rolled-back
    /// network) must survive write→parse with identical structure, and the
    /// serialized text must be a fixpoint.
    #[test]
    fn tombstoned_networks_round_trip() {
        for seed in 0..24u64 {
            let mut next = rng(seed);
            let mut n = Network::new(format!("tomb{seed}"));
            let mut live: Vec<GateId> = Vec::new();
            for i in 0..3 + next(4) {
                live.push(n.add_input(format!("in{i}")));
            }
            let mut doomed: Vec<GateId> = Vec::new();
            for i in 0..8 + next(24) {
                let two = [GateType::And, GateType::Or, GateType::Nand, GateType::Xor];
                let a = live[next(live.len())];
                let b = live[next(live.len())];
                let id = if next(5) == 0 {
                    n.add_gate(GateType::Inv, &[a], format!("g{i}")).unwrap()
                } else {
                    n.add_gate(two[next(two.len())], &[a, b], format!("g{i}")).unwrap()
                };
                // A third of the gates are built to die: nothing ever reads
                // them, and they are removed below to tomb-stone their slots
                // (interior ones once later gates exist, plus trailing ones).
                if next(3) == 0 {
                    doomed.push(id);
                } else {
                    live.push(id);
                }
            }
            if doomed.is_empty() {
                let a = live[next(live.len())];
                doomed.push(n.add_gate(GateType::Inv, &[a], "g_doomed").unwrap());
            }
            for (i, &g) in live.iter().enumerate() {
                if !matches!(n.gate(g).gtype, GateType::Input)
                    && (n.is_fanout_free(g) || i % 7 == 0)
                {
                    n.add_output(g, format!("out_{}", n.gate(g).name.clone()));
                }
            }
            for g in doomed {
                assert!(n.remove_if_dangling(g), "doomed gate had readers");
            }
            assert!(n.live_gate_count() < n.gate_count(), "no tombstones made");
            assert!(n.check_consistency().is_ok());

            let text = write_string(&n);
            let back = parse_string(&text).unwrap();
            assert_eq!(signature(&n), signature(&back), "seed {seed}");
            assert_eq!(text, write_string(&back), "seed {seed} not a fixpoint");
        }
    }

    /// The line-order fixpoint `parse_string` used to resolve names with,
    /// kept as the reference for [`add_gates`]: each pass re-scans every
    /// unresolved gate and adds, in line order, those whose fan-ins are all
    /// defined.
    fn parse_string_fixpoint(text: &str) -> Result<Network, NetlistError> {
        let Directives { name, inputs, outputs, gates, links } = parse_lines(text)?;
        let mut network = Network::new(name);
        let mut by_name: HashMap<String, GateId> = HashMap::new();
        for i in &inputs {
            if by_name.contains_key(i) {
                return Err(NetlistError::DuplicateName(i.clone()));
            }
            let id = network.add_input(i.clone());
            by_name.insert(i.clone(), id);
        }
        let mut remaining = gates;
        while !remaining.is_empty() {
            let before = remaining.len();
            let mut next = Vec::new();
            for (gtype, out, fanin_names) in remaining {
                if by_name.contains_key(&out) {
                    return Err(NetlistError::DuplicateName(out));
                }
                let ready = fanin_names.iter().all(|n| by_name.contains_key(n));
                if !ready {
                    next.push((gtype, out, fanin_names));
                    continue;
                }
                let id = match gtype {
                    GateType::Const0 => network.add_constant(false, out.clone()),
                    GateType::Const1 => network.add_constant(true, out.clone()),
                    t => {
                        let fanins: Vec<GateId> = fanin_names.iter().map(|n| by_name[n]).collect();
                        network.add_gate(t, &fanins, out.clone())?
                    }
                };
                by_name.insert(out, id);
            }
            if next.len() == before {
                let missing = next
                    .iter()
                    .flat_map(|(_, _, f)| f.iter())
                    .find(|n| !by_name.contains_key(*n) && !next.iter().any(|(_, o, _)| o == *n))
                    .cloned()
                    .unwrap_or_else(|| next[0].2[0].clone());
                return Err(NetlistError::UndefinedName(missing));
            }
            remaining = next;
        }
        add_outputs(&mut network, outputs, links, |name| by_name.get(name).copied())?;
        Ok(network)
    }

    /// Everything a parse decides: every slot's name, type and fan-in ids,
    /// the inputs, and the output ports.
    type Structure = (Vec<(String, GateType, Vec<GateId>)>, Vec<GateId>, Vec<(String, GateId)>);

    fn structure(n: &Network) -> Structure {
        let gates = n
            .iter_live()
            .map(|id| {
                let gate = n.gate(id);
                (gate.name.clone(), gate.gtype, gate.fanins.clone())
            })
            .collect();
        let outputs = n.outputs().iter().map(|o| (o.name.clone(), o.driver)).collect();
        (gates, n.inputs().to_vec(), outputs)
    }

    /// `parse_string` against the fixpoint on the same text: the same
    /// verdict always; the same network, or the same error unless the
    /// text defines a name twice (`parse_string` rejects that up front, at
    /// the first redefinition, where the fixpoint may first meet another
    /// error).  Returns whether the text parsed.
    fn assert_matches_fixpoint(text: &str) -> bool {
        let fast = parse_string(text);
        let reference = parse_string_fixpoint(text);
        match (&fast, &reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(structure(a), structure(b), "{text}");
                assert!(a.check_consistency().is_ok(), "{text}");
            }
            (Err(NetlistError::DuplicateName(_)), Err(_)) => {}
            (Err(a), Err(b)) => assert_eq!(a, b, "{text}"),
            _ => panic!("verdicts differ: {fast:?} vs {reference:?} on\n{text}"),
        }
        fast.is_ok()
    }

    /// xorshift64*, reduced; plenty for case generation.
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as usize % bound.max(1)
        }
    }

    /// A random multi-level network with constants, inverters, wide gates,
    /// shared fan-outs and output ports that need `.link` lines.
    fn random_network(seed: u64) -> Network {
        let mut next = rng(seed);
        let mut n = Network::new(format!("rand{seed}"));
        let mut signals: Vec<GateId> =
            (0..2 + next(5)).map(|i| n.add_input(format!("i{i}"))).collect();
        if next(2) == 0 {
            signals.push(n.add_constant(next(2) == 0, "k"));
        }
        for i in 0..20 + next(60) {
            // Favour recent signals so the network grows deep.
            let pick = |next: &mut dyn FnMut(usize) -> usize| {
                let window = signals.len().min(8);
                if next(3) == 0 {
                    signals[next(signals.len())]
                } else {
                    signals[signals.len() - 1 - next(window)]
                }
            };
            let id = if next(6) == 0 {
                let a = pick(&mut next);
                n.add_gate(GateType::Inv, &[a], format!("g{i}")).unwrap()
            } else {
                let types = [GateType::And, GateType::Nand, GateType::Or, GateType::Xor];
                let fanins: Vec<GateId> = (0..2 + next(3)).map(|_| pick(&mut next)).collect();
                n.add_gate(types[next(types.len())], &fanins, format!("g{i}")).unwrap()
            };
            signals.push(id);
        }
        for k in 0..1 + next(4) {
            let driver = signals[signals.len() - 1 - next(signals.len().min(10))];
            let name = if next(2) == 0 { n.gate(driver).name.clone() } else { format!("o{k}") };
            n.add_output(driver, name);
        }
        n
    }

    /// The text with its `.gate` lines permuted by `order`.
    fn with_gate_order(text: &str, order: impl FnOnce(&mut Vec<&str>)) -> String {
        let lines: Vec<&str> = text.lines().collect();
        let first = lines.iter().position(|l| l.starts_with(".gate")).unwrap_or(lines.len());
        let end = lines.iter().rposition(|l| l.starts_with(".gate")).map_or(first, |i| i + 1);
        let mut gates = lines[first..end].to_vec();
        order(&mut gates);
        let mut out: Vec<&str> = lines[..first].to_vec();
        out.extend(gates);
        out.extend(&lines[end..]);
        out.join("\n") + "\n"
    }

    #[test]
    fn one_walk_adds_gates_in_fixpoint_order() {
        for seed in 0..40u64 {
            let text = write_string(&random_network(seed));
            // In file order the gates keep their written order.
            let in_order = parse_string(&text).unwrap();
            assert_eq!(write_string(&in_order), text, "seed {seed}");
            assert_matches_fixpoint(&text);
            assert_matches_fixpoint(&with_gate_order(&text, |g| g.reverse()));
            let mut next = rng(seed ^ 0x5eed);
            for _ in 0..4 {
                assert_matches_fixpoint(&with_gate_order(&text, |g| {
                    for i in (1..g.len()).rev() {
                        g.swap(i, next(i + 1));
                    }
                }));
            }
        }
    }

    #[test]
    fn one_walk_agrees_with_the_fixpoint_on_malformed_lines() {
        let mut parsed = 0;
        for seed in 0..300u64 {
            let mut next = rng(seed);
            let text = write_string(&random_network(seed % 30));
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            for _ in 0..1 + next(3) {
                let at = next(lines.len());
                match next(5) {
                    0 => {
                        lines.remove(at);
                    }
                    1 => {
                        let line = lines[at].clone();
                        lines.insert(next(lines.len() + 1), line);
                    }
                    2 => {
                        let other = next(lines.len());
                        lines.swap(at, other);
                    }
                    3 => {
                        // Re-point one fan-in of a gate at another gate's
                        // output (possibly a later one, closing a cycle).
                        let names: Vec<String> = lines
                            .iter()
                            .filter_map(|l| l.strip_prefix(".gate "))
                            .filter_map(|l| l.split_whitespace().nth(1).map(str::to_string))
                            .collect();
                        let mut tokens: Vec<String> =
                            lines[at].split_whitespace().map(str::to_string).collect();
                        if tokens[0] == ".gate" && tokens.len() > 3 && !names.is_empty() {
                            let slot = 3 + next(tokens.len() - 3);
                            tokens[slot] = names[next(names.len())].clone();
                            lines[at] = tokens.join(" ");
                        }
                    }
                    _ => lines.truncate(at),
                }
                if lines.is_empty() {
                    break;
                }
            }
            parsed += usize::from(assert_matches_fixpoint(&(lines.join("\n") + "\n")));
        }
        // Both verdicts are well exercised (75 of 300 cases parse).
        assert!((30..=270).contains(&parsed), "{parsed} of 300 parsed");
    }

    #[test]
    fn constants_round_trip() {
        let mut b = NetworkBuilder::new("c");
        b.input("a");
        b.constant("tie1", true);
        b.gate("f", GateType::And, &["a", "tie1"]);
        b.output("f");
        let n = b.finish().unwrap();
        let text = write_string(&n);
        let back = parse_string(&text).unwrap();
        assert_eq!(back.live_gate_count(), n.live_gate_count());
    }
}
