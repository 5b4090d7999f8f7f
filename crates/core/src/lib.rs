//! STP-based exact synthesis — the core contribution of *"Exact
//! Synthesis Based on Semi-Tensor Product Circuit Solver"* (Pan & Chu,
//! DATE 2023), reimplemented in Rust.
//!
//! The engine finds **all** minimum-gate-count Boolean chains (networks
//! of arbitrary 2-input LUTs) realizing a single-output specification:
//!
//! 1. the spec is encoded as an STP canonical form
//!    ([`encode_canonical_form`]);
//! 2. candidate topologies come from the pruned Boolean-fence family
//!    (crate `stp-fence`);
//! 3. the canonical form is factored over each topology by the paper's
//!    quartering test ([`Factorizer`]), enumerating every consistent
//!    operator assignment;
//! 4. candidates are verified by the STP-based circuit AllSAT solver
//!    ([`solve_circuit`] / [`verify_chain`]) and returned in one pass
//!    ([`synthesize`]).
//!
//! # Quick start
//!
//! ```
//! use stp_synth::synthesize_default;
//! use stp_tt::TruthTable;
//!
//! // The paper's running example (Example 7).
//! let spec = TruthTable::from_hex(4, "8ff8")?;
//! let result = synthesize_default(&spec)?;
//! assert_eq!(result.gate_count, 3);
//! for chain in &result.chains {
//!     assert_eq!(chain.simulate_outputs()?[0], spec);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod circuit_solver;
pub mod cli;
mod encode;
mod error;
mod factor;
mod parallel;
mod synth;

pub use circuit_solver::{solve_circuit, verify_chain, CircuitSolutions, PartialAssignment};
pub use encode::{decode_canonical_form, encode_canonical_form};
pub use error::SynthesisError;
pub use factor::{FactorConfig, Factorizer};
pub use parallel::{jobs_from_env, jobs_from_env_checked, resolve_jobs, run_instances};
pub use synth::{
    objective_from_spec, synthesize, synthesize_default, synthesize_multi,
    synthesize_multi_npn_answer, synthesize_multi_npn_with_store, synthesize_npn,
    synthesize_npn_answer, synthesize_npn_with_store, synthesize_with_objective, warm_classes,
    warm_npn4, CostObjective, DepthThenGatesObjective, GateCountObjective, GateProfileObjective,
    MultiSpec, MultiSynthesisResult, NpnAnswer, SynthesisConfig, SynthesisResult, WarmReport,
};
