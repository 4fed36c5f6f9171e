//! # rapids-bdd
//!
//! A compact reduced ordered binary decision diagram (ROBDD) package.
//!
//! In the RAPIDS reproduction the BDD package is the **baseline symmetry
//! detector**: classical symmetry detection compares cofactors
//! ([`symmetry`]), which is what the paper's *easily detectable* structural
//! method is contrasted against.  The property tests check that every pin
//! pair the structural detector reports is confirmed by the cofactor
//! definition.  Network equivalence is checked elsewhere: by simulation in
//! `rapids-sim` and by SAT proof in `rapids-cec`.
//!
//! ```
//! use rapids_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.and(a, b);
//! let g = m.not(f);
//! let h = m.nand(a, b);
//! assert_eq!(g, h);
//! ```

pub mod manager;
pub mod network;
pub mod symmetry;

pub use manager::{Manager, Ref};
pub use network::build_output_bdds;
pub use symmetry::{are_equivalence_symmetric, are_nonequivalence_symmetric, SymmetryKind};
