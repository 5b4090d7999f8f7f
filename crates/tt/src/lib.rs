//! Truth tables, NPN classification, and DSD workload generation.
//!
//! This crate is the Boolean-function substrate of the reproduction of
//! *"Exact Synthesis Based on Semi-Tensor Product Circuit Solver"*
//! (Pan & Chu, DATE 2023):
//!
//! * [`TruthTable`] — bit-packed functions of up to 16 inputs, with the
//!   cofactor/support/permutation toolkit exact synthesis needs;
//! * [`canonicalize`] / [`npn_classes`] — NPN classification; the
//!   `NPN4` suite (all 222 4-input classes) comes from
//!   [`npn_classes`]`(4)`;
//! * [`is_full_dsd`] / [`random_fdsd`] / [`random_pdsd`] — the
//!   disjoint-support-decomposition machinery behind the `FDSD`/`PDSD`
//!   suites;
//! * [`kernel`] — word-level table kernels (masked delta-swaps,
//!   in-place cofactors, compaction plans) that the factorization
//!   engine uses to slice decomposition charts without per-minterm
//!   loops.
//!
//! # Quick start
//!
//! ```
//! use stp_tt::{is_full_dsd, npn_classes, TruthTable};
//!
//! // The paper's running example 0x8ff8 is fully DSD-decomposable.
//! let f = TruthTable::from_hex(4, "8ff8")?;
//! assert!(is_full_dsd(&f));
//!
//! // NPN4: all 222 classes of 4-input functions.
//! assert_eq!(npn_classes(4).len(), 222);
//! # Ok::<(), stp_tt::TruthTableError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dsd;
mod error;
pub mod kernel;
mod npn;
#[cfg(test)]
mod npn_oracle;
mod truth_table;

pub use dsd::{
    is_full_dsd, project_to_vars, random_fdsd, random_fdsd_tree, random_pdsd,
    try_top_decomposition, DsdNode, NONTRIVIAL_OPS,
};
pub use error::TruthTableError;
pub use npn::{
    canonicalize, canonicalize_multi, npn_classes, MultiNpnCanonical, MultiNpnTransform,
    NpnCanonical, NpnTransform,
};
pub use truth_table::{infer_num_vars, TruthTable, MAX_VARS};

#[cfg(test)]
mod thread_safety {
    use super::*;

    // The parallel synthesis layer (stp-synth) moves these across
    // worker threads; keep them free of interior mutability.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn tt_types_are_send_and_sync() {
        assert_send_sync::<TruthTable>();
        assert_send_sync::<DsdNode>();
        assert_send_sync::<NpnCanonical>();
        assert_send_sync::<NpnTransform>();
        assert_send_sync::<TruthTableError>();
    }
}
