//! Gate types, logic values and the per-vertex record stored in a network.
//!
//! The type system follows §2 of the paper: the theory is developed for
//! `{AND, OR, XOR, INV, BUF}` and the inverted forms `NAND/NOR/XNOR` are
//! treated as the corresponding base type with an output inversion.  Complex
//! cells (AOI/OAI) are expressed by composition of these primitives by the
//! technology mapper, exactly as the paper assumes.

use std::fmt;

/// Identifier of a gate (vertex) inside a [`crate::Network`].
///
/// Ids are dense indices assigned in creation order; they are stable across
/// rewiring edits (gates are tomb-stoned rather than re-indexed when removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GateId {
    fn from(value: u32) -> Self {
        GateId(value)
    }
}

/// Reference to a specific in-pin of a gate: the pair (gate, fan-in index).
///
/// Swappable-pin analysis (§4 of the paper) is expressed in terms of in-pins,
/// so this is the unit the rewiring engine manipulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PinRef {
    /// Gate owning the in-pin.
    pub gate: GateId,
    /// Zero-based fan-in position on that gate.
    pub index: usize,
}

impl PinRef {
    /// Creates a pin reference.
    #[inline]
    pub fn new(gate: GateId, index: usize) -> Self {
        PinRef { gate, index }
    }
}

impl fmt::Display for PinRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.gate, self.index)
    }
}

/// A two-valued logic constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Logic {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
}

impl Logic {
    /// Returns the complementary value.
    #[inline]
    pub fn complement(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Logic::Zero => write!(f, "0"),
            Logic::One => write!(f, "1"),
        }
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        self.complement()
    }
}

/// The base Boolean function of a gate, ignoring output inversion.
///
/// `Xor` has no controlling value, which is what makes the and-or-reachable /
/// xor-reachable split of Definition 1 mutually exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseFunction {
    /// AND-like (covers AND and NAND).
    And,
    /// OR-like (covers OR and NOR).
    Or,
    /// XOR-like (covers XOR and XNOR).
    Xor,
    /// Single-input identity (covers BUF and INV).
    Identity,
    /// No fan-ins: a primary input or a constant.
    Source,
}

/// Gate (vertex) types supported by the network.
///
/// `Input` models a primary input; `Const0`/`Const1` model tied-off nets.
/// Everything else is a library logic function.  NAND/NOR/XNOR are the
/// inverted forms of AND/OR/XOR per the paper's §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateType {
    /// Primary input (no fan-ins).
    Input,
    /// Constant logic 0 (no fan-ins).
    Const0,
    /// Constant logic 1 (no fan-ins).
    Const1,
    /// Buffer (1 fan-in).
    Buf,
    /// Inverter (1 fan-in).
    Inv,
    /// AND gate (≥ 2 fan-ins).
    And,
    /// OR gate (≥ 2 fan-ins).
    Or,
    /// XOR gate (≥ 2 fan-ins).
    Xor,
    /// NAND gate (≥ 2 fan-ins).
    Nand,
    /// NOR gate (≥ 2 fan-ins).
    Nor,
    /// XNOR gate (≥ 2 fan-ins).
    Xnor,
}

impl GateType {
    /// All library logic types (excludes `Input`/constants).
    pub const LOGIC_TYPES: [GateType; 8] = [
        GateType::Buf,
        GateType::Inv,
        GateType::And,
        GateType::Or,
        GateType::Xor,
        GateType::Nand,
        GateType::Nor,
        GateType::Xnor,
    ];

    /// Returns the base function of the gate (AND/OR/XOR/identity/source).
    pub fn base_function(self) -> BaseFunction {
        match self {
            GateType::Input | GateType::Const0 | GateType::Const1 => BaseFunction::Source,
            GateType::Buf | GateType::Inv => BaseFunction::Identity,
            GateType::And | GateType::Nand => BaseFunction::And,
            GateType::Or | GateType::Nor => BaseFunction::Or,
            GateType::Xor | GateType::Xnor => BaseFunction::Xor,
        }
    }

    /// Returns `true` if the output of the base function is inverted
    /// (NAND, NOR, XNOR, INV).
    pub fn output_inverted(self) -> bool {
        matches!(self, GateType::Nand | GateType::Nor | GateType::Xnor | GateType::Inv)
    }

    /// Returns `true` for types that carry no fan-in (inputs and constants).
    pub fn is_source(self) -> bool {
        matches!(self, GateType::Input | GateType::Const0 | GateType::Const1)
    }

    /// Returns `true` for single-input pass-through types (BUF/INV).
    pub fn is_identity(self) -> bool {
        matches!(self, GateType::Buf | GateType::Inv)
    }

    /// Returns `true` if the type is in the XOR family (XOR/XNOR).
    pub fn is_xor_family(self) -> bool {
        matches!(self.base_function(), BaseFunction::Xor)
    }

    /// Permitted fan-in range `(min, max)` for the type; `max = usize::MAX`
    /// means unbounded (the library later restricts to 2–4 inputs).
    pub fn fanin_range(self) -> (usize, usize) {
        match self {
            GateType::Input | GateType::Const0 | GateType::Const1 => (0, 0),
            GateType::Buf | GateType::Inv => (1, 1),
            _ => (2, usize::MAX),
        }
    }

    /// Checks whether `count` fan-ins are acceptable for this type.
    pub fn accepts_fanin_count(self, count: usize) -> bool {
        let (lo, hi) = self.fanin_range();
        count >= lo && count <= hi
    }

    /// Evaluates the gate over plain booleans.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not acceptable for the type, or if a source
    /// type other than a constant is evaluated (inputs have no local function).
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        debug_assert!(self.accepts_fanin_count(inputs.len()) || self.is_source());
        match self {
            GateType::Input => panic!("primary inputs have no local function"),
            GateType::Const0 => false,
            GateType::Const1 => true,
            GateType::Buf => inputs[0],
            GateType::Inv => !inputs[0],
            GateType::And => inputs.iter().all(|&b| b),
            GateType::Nand => !inputs.iter().all(|&b| b),
            GateType::Or => inputs.iter().any(|&b| b),
            GateType::Nor => !inputs.iter().any(|&b| b),
            GateType::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateType::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
        }
    }

    /// Evaluates the gate over 64-wide bit-parallel words (one simulation
    /// pattern per bit).  Used by the bit-parallel simulator.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        match self {
            GateType::Input => panic!("primary inputs have no local function"),
            GateType::Const0 => 0,
            GateType::Const1 => !0,
            GateType::Buf => inputs[0],
            GateType::Inv => !inputs[0],
            GateType::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateType::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateType::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateType::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateType::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateType::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
        }
    }

    /// Returns the inverted-output form of this type (AND ⇄ NAND, OR ⇄ NOR,
    /// XOR ⇄ XNOR, BUF ⇄ INV).  Sources are returned unchanged.
    pub fn inverted_form(self) -> GateType {
        match self {
            GateType::And => GateType::Nand,
            GateType::Nand => GateType::And,
            GateType::Or => GateType::Nor,
            GateType::Nor => GateType::Or,
            GateType::Xor => GateType::Xnor,
            GateType::Xnor => GateType::Xor,
            GateType::Buf => GateType::Inv,
            GateType::Inv => GateType::Buf,
            other => other,
        }
    }

    /// Short lowercase mnemonic used by the BLIF-like text format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateType::Input => "input",
            GateType::Const0 => "const0",
            GateType::Const1 => "const1",
            GateType::Buf => "buf",
            GateType::Inv => "inv",
            GateType::And => "and",
            GateType::Or => "or",
            GateType::Xor => "xor",
            GateType::Nand => "nand",
            GateType::Nor => "nor",
            GateType::Xnor => "xnor",
        }
    }

    /// Parses a mnemonic produced by [`GateType::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<GateType> {
        Some(match s {
            "input" => GateType::Input,
            "const0" => GateType::Const0,
            "const1" => GateType::Const1,
            "buf" => GateType::Buf,
            "inv" | "not" => GateType::Inv,
            "and" => GateType::And,
            "or" => GateType::Or,
            "xor" => GateType::Xor,
            "nand" => GateType::Nand,
            "nor" => GateType::Nor,
            "xnor" => GateType::Xnor,
            _ => return None,
        })
    }
}

impl fmt::Display for GateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic().to_uppercase())
    }
}

/// A vertex of the Boolean network: type, fan-in drivers, name and the
/// drive-strength class assigned by sizing (0 = smallest of the 4 library
/// implementations mentioned in §6 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Logic function of the gate.
    pub gtype: GateType,
    /// Driver gate of each in-pin, in pin order.
    pub fanins: Vec<GateId>,
    /// Instance name (unique within a network when built through the builder
    /// or the BLIF reader).
    pub name: String,
    /// Drive-strength class, `0..4`; interpreted by `rapids-celllib`.
    pub size_class: u8,
    /// Tombstone marker; removed gates keep their slot so ids stay stable.
    pub removed: bool,
    /// Number of primary-output ports the gate drives, kept current by the
    /// port edits of [`crate::Network`]; fits the padding after the
    /// single-byte fields, so the record stays 56 bytes.
    pub(crate) output_ports: u32,
}

impl Gate {
    /// Creates a new live gate.
    pub fn new(gtype: GateType, fanins: Vec<GateId>, name: impl Into<String>) -> Self {
        Gate { gtype, fanins, name: name.into(), size_class: 0, removed: false, output_ports: 0 }
    }

    /// Number of in-pins.
    #[inline]
    pub fn fanin_count(&self) -> usize {
        self.fanins.len()
    }

    /// Returns `true` if the gate is a primary input or constant.
    #[inline]
    pub fn is_source(&self) -> bool {
        self.gtype.is_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn port_count_fits_the_record_padding() {
        assert_eq!(std::mem::size_of::<Gate>(), 56);
    }

    #[test]
    fn eval_bool_truth_tables() {
        assert!(GateType::And.eval_bool(&[true, true]));
        assert!(!GateType::And.eval_bool(&[true, false]));
        assert!(GateType::Nand.eval_bool(&[true, false]));
        assert!(GateType::Or.eval_bool(&[false, true]));
        assert!(!GateType::Nor.eval_bool(&[false, true]));
        assert!(GateType::Xor.eval_bool(&[true, false, false]));
        assert!(!GateType::Xor.eval_bool(&[true, true, false, false]));
        assert!(GateType::Xnor.eval_bool(&[true, true]));
        assert!(GateType::Inv.eval_bool(&[false]));
        assert!(GateType::Buf.eval_bool(&[true]));
        assert!(!GateType::Const0.eval_bool(&[]));
        assert!(GateType::Const1.eval_bool(&[]));
    }

    #[test]
    fn eval_word_matches_eval_bool() {
        let cases: [(GateType, &[bool]); 6] = [
            (GateType::And, &[true, false, true]),
            (GateType::Or, &[false, false]),
            (GateType::Xor, &[true, true, true]),
            (GateType::Nand, &[true, true]),
            (GateType::Nor, &[false, false, false]),
            (GateType::Xnor, &[true, false]),
        ];
        for (t, bits) in cases {
            let words: Vec<u64> = bits.iter().map(|&b| if b { !0 } else { 0 }).collect();
            let w = t.eval_word(&words);
            let b = t.eval_bool(bits);
            assert_eq!(w == !0, b, "mismatch for {t}");
            assert!(w == 0 || w == !0);
        }
    }

    #[test]
    fn inverted_and_demorgan_forms() {
        assert_eq!(GateType::And.inverted_form(), GateType::Nand);
        assert_eq!(GateType::Nand.inverted_form(), GateType::And);
        assert_eq!(GateType::Xor.inverted_form(), GateType::Xnor);
    }

    #[test]
    fn mnemonic_round_trip() {
        for t in GateType::LOGIC_TYPES {
            assert_eq!(GateType::from_mnemonic(t.mnemonic()), Some(t));
        }
        assert_eq!(GateType::from_mnemonic("bogus"), None);
    }

    #[test]
    fn fanin_ranges() {
        assert!(GateType::Inv.accepts_fanin_count(1));
        assert!(!GateType::Inv.accepts_fanin_count(2));
        assert!(GateType::And.accepts_fanin_count(4));
        assert!(!GateType::And.accepts_fanin_count(1));
        assert!(GateType::Input.accepts_fanin_count(0));
        assert!(!GateType::Input.accepts_fanin_count(1));
    }

    #[test]
    fn logic_ops() {
        assert_eq!(!Logic::Zero, Logic::One);
        assert_eq!(Logic::One.to_string(), "1");
    }

    #[test]
    fn pinref_display() {
        let p = PinRef::new(GateId(3), 1);
        assert_eq!(p.to_string(), "g3.1");
    }
}
