//! Library cell descriptions: function, fan-in count, drive strength and
//! electrical parameters.

use std::fmt;

use rapids_netlist::GateType;

/// Drive strength (sizing) class of a library cell.
///
/// The paper's library provides four implementations of each cell type; gate
/// sizing chooses among them.  The discriminant doubles the drive at each
/// step, the classic X1/X2/X4/X8 progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DriveStrength {
    /// Minimum-size implementation.
    X1,
    /// 2× drive.
    X2,
    /// 4× drive.
    X4,
    /// 8× drive.
    X8,
}

impl DriveStrength {
    /// All strengths, weakest first.
    pub const ALL: [DriveStrength; 4] =
        [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4, DriveStrength::X8];

    /// Relative drive factor (1, 2, 4, 8).
    pub fn factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
            DriveStrength::X8 => 8.0,
        }
    }

    /// The `size_class` stored in a netlist gate (0–3).
    pub fn size_class(self) -> u8 {
        match self {
            DriveStrength::X1 => 0,
            DriveStrength::X2 => 1,
            DriveStrength::X4 => 2,
            DriveStrength::X8 => 3,
        }
    }

    /// Converts a netlist `size_class` back to a strength, clamping values
    /// above 3 to [`DriveStrength::X8`].
    pub fn from_size_class(class: u8) -> DriveStrength {
        match class {
            0 => DriveStrength::X1,
            1 => DriveStrength::X2,
            2 => DriveStrength::X4,
            _ => DriveStrength::X8,
        }
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.factor() as u32)
    }
}

/// A single library cell: one Boolean function at one fan-in count and one
/// drive strength, with its electrical characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Logic function implemented by the cell.
    pub function: GateType,
    /// Number of data input pins (1 for INV/BUF, 2–4 otherwise).
    pub input_count: usize,
    /// Drive strength class.
    pub drive: DriveStrength,
    /// Cell area in µm².
    pub area_um2: f64,
    /// Capacitance presented by each input pin, in pF.
    pub input_capacitance_pf: f64,
    /// Equivalent output drive resistance, in kΩ.
    pub drive_resistance_kohm: f64,
    /// Intrinsic (zero-load) rise delay, in ns.
    pub intrinsic_rise_ns: f64,
    /// Intrinsic (zero-load) fall delay, in ns.
    pub intrinsic_fall_ns: f64,
}

impl Cell {
    /// Canonical library name, e.g. `NAND3_X2`.
    pub fn name(&self) -> String {
        let f = self.function.mnemonic().to_uppercase();
        if self.function.is_identity() {
            format!("{f}_{}", self.drive)
        } else {
            format!("{f}{}_{}", self.input_count, self.drive)
        }
    }

    /// Cell footprint width in µm assuming the library row height.
    pub fn width_um(&self) -> f64 {
        self.area_um2 / crate::ROW_HEIGHT_UM
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} area={:.1}um2 cin={:.4}pF rd={:.3}kohm",
            self.name(),
            self.area_um2,
            self.input_capacitance_pf,
            self.drive_resistance_kohm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_strength_roundtrip() {
        for d in DriveStrength::ALL {
            assert_eq!(DriveStrength::from_size_class(d.size_class()), d);
        }
        assert_eq!(DriveStrength::from_size_class(9), DriveStrength::X8);
    }

    #[test]
    fn factors_double() {
        let f: Vec<f64> = DriveStrength::ALL.iter().map(|d| d.factor()).collect();
        assert_eq!(f, vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn cell_naming() {
        let c = Cell {
            function: GateType::Nand,
            input_count: 3,
            drive: DriveStrength::X2,
            area_um2: 30.0,
            input_capacitance_pf: 0.01,
            drive_resistance_kohm: 2.0,
            intrinsic_rise_ns: 0.1,
            intrinsic_fall_ns: 0.08,
        };
        assert_eq!(c.name(), "NAND3_X2");
        let inv = Cell { function: GateType::Inv, input_count: 1, ..c.clone() };
        assert_eq!(inv.name(), "INV_X2");
        assert!(c.width_um() > 0.0);
        assert!(!c.to_string().is_empty());
    }
}
