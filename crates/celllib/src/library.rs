//! The standard-cell library: a catalogue of [`Cell`]s indexed by function,
//! fan-in count and drive strength.

use rapids_netlist::{Gate, GateType};

use crate::cell::{Cell, DriveStrength};

/// Functions per table row: one per [`GateType`] (see [`function_slot`]).
const FUNCTIONS: usize = 11;

/// Drives per function: one per [`DriveStrength`].
const DRIVES: usize = DriveStrength::ALL.len();

/// Table slots per arity.
const ROW: usize = FUNCTIONS * DRIVES;

/// Position of a function within a table row.  The match is exhaustive, so
/// a new gate type fails to compile here until the row makes room for it.
fn function_slot(function: GateType) -> usize {
    match function {
        GateType::Input => 0,
        GateType::Const0 => 1,
        GateType::Const1 => 2,
        GateType::Buf => 3,
        GateType::Inv => 4,
        GateType::And => 5,
        GateType::Or => 6,
        GateType::Xor => 7,
        GateType::Nand => 8,
        GateType::Nor => 9,
        GateType::Xnor => 10,
    }
}

/// Index of `(input_count, function, drive)` in the dense table.
fn slot(function: GateType, input_count: usize, drive: DriveStrength) -> usize {
    input_count * ROW + function_slot(function) * DRIVES + usize::from(drive.size_class())
}

/// A technology library: the set of available cells plus lookup helpers.
///
/// Use [`Library::standard_035um`] for the synthetic 0.35 µm library that
/// mirrors the one in the paper's evaluation (INV/BUF/NAND/NOR/XOR/XNOR,
/// 2–4 inputs, 4 drive strengths).  AND/OR/XNOR-free netlists produced by the
/// technology mapper only use those cells, but the library also characterizes
/// AND/OR cells so that hand-built example networks can be timed directly.
///
/// Cells live in a dense table indexed by (input count, function, drive),
/// which grows to the widest arity added, so [`Library::cell`] and
/// [`Library::cell_for_gate`] are O(1): timing looks a cell up once per
/// sink pin and once per driver of every net it evaluates.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    table: Vec<Option<Cell>>,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Library { name: name.into(), table: Vec::new() }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.table.iter().flatten().count()
    }

    /// Returns `true` if the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.table.iter().all(Option::is_none)
    }

    /// Number of arities the table covers: `0..arities()`.
    fn arities(&self) -> usize {
        self.table.len() / ROW
    }

    /// Adds (or replaces) a cell.
    pub fn add_cell(&mut self, cell: Cell) {
        if cell.input_count >= self.arities() {
            self.table.resize((cell.input_count + 1) * ROW, None);
        }
        let at = slot(cell.function, cell.input_count, cell.drive);
        self.table[at] = Some(cell);
    }

    /// Looks up a cell by function, fan-in count and drive strength.
    pub fn cell(
        &self,
        function: GateType,
        input_count: usize,
        drive: DriveStrength,
    ) -> Option<&Cell> {
        if input_count >= self.arities() {
            return None;
        }
        self.table[slot(function, input_count, drive)].as_ref()
    }

    /// Returns the cell that implements a netlist gate given its current
    /// `size_class`, falling back to the largest characterized fan-in count
    /// below the gate's own if the exact arity is not characterized (e.g.
    /// 6-input AND in a hand-built example network).
    pub fn cell_for_gate(&self, gate: &Gate) -> Option<&Cell> {
        let drive = DriveStrength::from_size_class(gate.size_class);
        // Arities past the table hold no cell, so the search starts at the
        // widest arity the table has.
        let n = gate.fanin_count().max(1).min(self.arities().saturating_sub(1));
        (1..=n).rev().find_map(|k| self.cell(gate.gtype, k, drive))
    }

    /// All drive strengths available for a (function, arity) pair, weakest
    /// first.  This is the candidate set explored by gate sizing.
    pub fn available_drives(&self, function: GateType, input_count: usize) -> Vec<DriveStrength> {
        DriveStrength::ALL
            .iter()
            .copied()
            .filter(|&d| self.cell(function, input_count, d).is_some())
            .collect()
    }

    /// Total standard-cell area of a network's live logic gates under their
    /// current drive-strength assignment, in µm².  Gates without a library
    /// cell (e.g. very wide hand-built gates) contribute a nominal 25 µm².
    /// A network without logic gates has area `+0.0` (a float `sum()`
    /// would start at, and return, `-0.0`).
    pub fn network_area_um2(&self, network: &rapids_netlist::Network) -> f64 {
        network
            .iter_logic()
            .map(|g| self.cell_for_gate(network.gate(g)).map(|c| c.area_um2).unwrap_or(25.0))
            .fold(0.0, |total, area| total + area)
    }

    /// Builds the synthetic 0.35 µm library described in `DESIGN.md`.
    ///
    /// Base parameters (X1):
    /// * INV: area 13 µm², pin cap 0.008 pF, drive 1.6 kΩ, intrinsic 0.05/0.04 ns
    /// * NAND/NOR 2–4 inputs: area grows with arity, NOR slightly slower
    ///   (series PMOS), XOR/XNOR roughly 2× a NAND of the same arity.
    ///
    /// For each higher drive strength, area and pin capacitance scale with
    /// the drive factor while drive resistance scales with its inverse —
    /// the standard constant-RC-product idealization.
    pub fn standard_035um() -> Library {
        let mut lib = Library::new("rapids-0.35um");
        for cell in Library::standard_035um_cells() {
            lib.add_cell(cell);
        }
        lib
    }

    /// The cells of [`Library::standard_035um`], in the order it adds them.
    fn standard_035um_cells() -> Vec<Cell> {
        struct Proto {
            function: GateType,
            inputs: usize,
            area: f64,
            cin: f64,
            rd: f64,
            rise: f64,
            fall: f64,
        }
        let mut protos: Vec<Proto> = Vec::new();
        // Unary cells.  Areas are full-cell footprints (row height × width)
        // of a generous 0.35 µm library, which keeps die sides in the
        // millimetre range for the Table 1 circuits so that interconnect is
        // a first-order effect, as in the paper's experiments.
        protos.push(Proto {
            function: GateType::Inv,
            inputs: 1,
            area: 55.0,
            cin: 0.008,
            rd: 1.6,
            rise: 0.050,
            fall: 0.040,
        });
        protos.push(Proto {
            function: GateType::Buf,
            inputs: 1,
            area: 80.0,
            cin: 0.008,
            rd: 1.4,
            rise: 0.090,
            fall: 0.080,
        });
        // Multi-input families; arity 2..=4.
        for n in 2..=4usize {
            let nf = n as f64;
            protos.push(Proto {
                function: GateType::Nand,
                inputs: n,
                area: 65.0 + 32.0 * nf,
                cin: 0.009 + 0.001 * nf,
                rd: 1.7 + 0.25 * nf,
                rise: 0.055 + 0.012 * nf,
                fall: 0.045 + 0.010 * nf,
            });
            protos.push(Proto {
                function: GateType::Nor,
                inputs: n,
                area: 65.0 + 36.0 * nf,
                cin: 0.009 + 0.001 * nf,
                rd: 1.9 + 0.35 * nf,
                rise: 0.065 + 0.016 * nf,
                fall: 0.045 + 0.010 * nf,
            });
            protos.push(Proto {
                function: GateType::And,
                inputs: n,
                area: 95.0 + 32.0 * nf,
                cin: 0.009 + 0.001 * nf,
                rd: 1.8 + 0.25 * nf,
                rise: 0.095 + 0.014 * nf,
                fall: 0.085 + 0.012 * nf,
            });
            protos.push(Proto {
                function: GateType::Or,
                inputs: n,
                area: 95.0 + 36.0 * nf,
                cin: 0.009 + 0.001 * nf,
                rd: 1.9 + 0.30 * nf,
                rise: 0.095 + 0.016 * nf,
                fall: 0.085 + 0.013 * nf,
            });
            protos.push(Proto {
                function: GateType::Xor,
                inputs: n,
                area: 145.0 + 56.0 * nf,
                cin: 0.012 + 0.002 * nf,
                rd: 2.2 + 0.40 * nf,
                rise: 0.110 + 0.025 * nf,
                fall: 0.100 + 0.022 * nf,
            });
            protos.push(Proto {
                function: GateType::Xnor,
                inputs: n,
                area: 145.0 + 56.0 * nf,
                cin: 0.012 + 0.002 * nf,
                rd: 2.2 + 0.40 * nf,
                rise: 0.112 + 0.025 * nf,
                fall: 0.102 + 0.022 * nf,
            });
        }
        let mut cells = Vec::with_capacity(protos.len() * DriveStrength::ALL.len());
        for p in protos {
            for drive in DriveStrength::ALL {
                let k = drive.factor();
                cells.push(Cell {
                    function: p.function,
                    input_count: p.inputs,
                    drive,
                    area_um2: p.area * (0.6 + 0.4 * k),
                    input_capacitance_pf: p.cin * (0.7 + 0.3 * k),
                    drive_resistance_kohm: p.rd / k,
                    intrinsic_rise_ns: p.rise,
                    intrinsic_fall_ns: p.fall,
                });
            }
        }
        cells
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::standard_035um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_netlist::{Gate, GateId};

    #[test]
    fn standard_library_has_four_drives_per_function() {
        let lib = Library::standard_035um();
        for f in [GateType::Nand, GateType::Nor, GateType::Xor, GateType::Xnor] {
            for n in 2..=4 {
                assert_eq!(lib.available_drives(f, n).len(), 4, "{f} {n}");
            }
        }
        assert_eq!(lib.available_drives(GateType::Inv, 1).len(), 4);
        // 2 unary functions + 6 families * 3 arities, times 4 drives.
        assert_eq!(lib.len(), (2 + 6 * 3) * 4);
    }

    #[test]
    fn sizing_monotonicity() {
        let lib = Library::standard_035um();
        for n in 2..=4 {
            let mut prev_area = 0.0;
            let mut prev_res = f64::INFINITY;
            for d in DriveStrength::ALL {
                let c = lib.cell(GateType::Nand, n, d).unwrap();
                assert!(c.area_um2 > prev_area);
                assert!(c.drive_resistance_kohm < prev_res);
                prev_area = c.area_um2;
                prev_res = c.drive_resistance_kohm;
            }
        }
    }

    #[test]
    fn xor_slower_than_nand() {
        let lib = Library::standard_035um();
        let nand = lib.cell(GateType::Nand, 2, DriveStrength::X1).unwrap();
        let xor = lib.cell(GateType::Xor, 2, DriveStrength::X1).unwrap();
        assert!(xor.intrinsic_rise_ns > nand.intrinsic_rise_ns);
        assert!(xor.area_um2 > nand.area_um2);
    }

    #[test]
    fn cell_for_gate_uses_size_class_and_falls_back() {
        let lib = Library::standard_035um();
        let mut g = Gate::new(GateType::Nand, vec![0.into(), 1.into()], "g");
        g.size_class = 2;
        let c = lib.cell_for_gate(&g).unwrap();
        assert_eq!(c.drive, DriveStrength::X4);
        assert_eq!(c.input_count, 2);
        // 6-input AND is not in the library; falls back to AND4.
        let wide = Gate::new(
            GateType::And,
            vec![0.into(), 1.into(), 2.into(), 3.into(), 4.into(), 5.into()],
            "wide",
        );
        let c = lib.cell_for_gate(&wide).unwrap();
        assert_eq!(c.input_count, 4);
    }

    #[test]
    fn missing_cell_is_none() {
        let lib = Library::standard_035um();
        assert!(lib.cell(GateType::Nand, 7, DriveStrength::X1).is_none());
        assert!(lib.cell(GateType::Nand, usize::MAX, DriveStrength::X8).is_none());
        for n in 0..=2 {
            assert!(lib.cell(GateType::Input, n, DriveStrength::X1).is_none());
        }
        assert!(lib.cell_for_gate(&Gate::new(GateType::Input, Vec::new(), "pi")).is_none());
        let empty = Library::new("empty");
        assert!(empty.cell_for_gate(&Gate::new(GateType::Inv, vec![0.into()], "i")).is_none());
    }

    #[test]
    fn every_standard_cell_looks_up_as_built() {
        let lib = Library::standard_035um();
        let built = Library::standard_035um_cells();
        assert_eq!(built.len(), 80);
        for c in &built {
            assert_eq!(lib.cell(c.function, c.input_count, c.drive), Some(c));
        }
        // And nothing else is in the table: every hit is one of the built cells.
        let mut hits = 0;
        let sources = [GateType::Input, GateType::Const0, GateType::Const1];
        for f in sources.into_iter().chain(GateType::LOGIC_TYPES) {
            for n in 0..=5 {
                for d in DriveStrength::ALL {
                    if let Some(c) = lib.cell(f, n, d) {
                        assert!((c.function, c.input_count, c.drive) == (f, n, d));
                        hits += 1;
                    }
                }
            }
        }
        assert_eq!(hits, lib.len());
    }

    #[test]
    fn re_adding_a_cell_replaces_it_in_place() {
        let mut lib = Library::standard_035um();
        let mut nand2 = lib.cell(GateType::Nand, 2, DriveStrength::X2).unwrap().clone();
        nand2.area_um2 += 1.0;
        lib.add_cell(nand2.clone());
        assert_eq!(lib.len(), 80);
        assert_eq!(lib.cell(GateType::Nand, 2, DriveStrength::X2), Some(&nand2));
    }

    #[test]
    fn cell_for_gate_clamps_to_the_widest_arity() {
        let lib = Library::standard_035um();
        let fanins = |n: u32| (0..n).map(GateId::from).collect::<Vec<_>>();
        for n in [5, 1000] {
            let c = lib.cell_for_gate(&Gate::new(GateType::And, fanins(n), "wide")).unwrap();
            assert_eq!((c.function, c.input_count), (GateType::And, 4), "AND{n}");
        }
        // Below the widest arity, a missing arity falls back to the next
        // narrower one: this library has XOR3 but no XOR4.
        let mut lib = Library::new("gaps");
        for n in [2, 3] {
            lib.add_cell(Cell { input_count: n, ..xor_cell() });
        }
        lib.add_cell(Cell { function: GateType::Nand, input_count: 6, ..xor_cell() });
        let c = lib.cell_for_gate(&Gate::new(GateType::Xor, fanins(5), "x5")).unwrap();
        assert_eq!(c.input_count, 3);
    }

    fn xor_cell() -> Cell {
        Library::standard_035um().cell(GateType::Xor, 2, DriveStrength::X1).unwrap().clone()
    }

    #[test]
    fn empty_and_default() {
        let lib = Library::new("x");
        assert!(lib.is_empty());
        let d = Library::default();
        assert!(!d.is_empty());
        assert_eq!(d.name(), "rapids-0.35um");
    }
}
