//! Multi-output 2-LUT logic networks with cut enumeration and
//! exact-synthesis rewriting.
//!
//! The paper motivates fast exact synthesis through DAG-aware rewriting
//! (its ref.\[2\]): real optimizers call exact synthesis on millions of
//! small cut functions, so per-call speed — especially on the
//! DSD-structured functions dominating real cut distributions — is what
//! matters. This crate provides that downstream application:
//!
//! * [`Network`] — multi-output networks of arbitrary 2-input LUTs with
//!   complemented edges, structural hashing, and simplification;
//! * [`enumerate_cuts`] / [`cut_function`] — k-feasible cut
//!   enumeration;
//! * [`rewrite`] — DAG-aware rewriting that replaces cut cones with
//!   STP-exact-synthesis optima, cached per NPN class
//!   ([`SynthesisCache`]);
//! * [`ripple_carry_adder`] and friends — parametric benchmark
//!   circuits.
//!
//! # Quick start
//!
//! ```
//! use stp_network::{rewrite, Network, RewriteConfig, SynthesisCache};
//!
//! // A wasteful XOR: (a & !b) | (!a & b) spends three gates.
//! let mut net = Network::new(2);
//! let (a, b) = (net.input(0), net.input(1));
//! let t1 = net.and(a, b.not())?;
//! let t2 = net.and(a.not(), b)?;
//! let f = net.or(t1, t2)?;
//! net.add_output(f);
//!
//! let cache = SynthesisCache::new();
//! let result = rewrite(&net, &RewriteConfig::default(), &cache)?;
//! assert_eq!(result.gates_after, 1); // XOR is one 2-LUT
//! # Ok::<(), stp_network::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blif;
mod circuits;
mod cuts;
mod equiv;
mod error;
mod network;
mod rewrite;

pub use blif::ParseBlifError;
pub use circuits::{
    equality_comparator, mux_tree, random_network, ripple_carry_adder, ripple_carry_adder_sop,
};
pub use cuts::{cut_function, enumerate_cuts, Cut, CutEvaluator, CutSet};
pub use equiv::{check_rewrite, equivalent_exhaustive, equivalent_sat, EquivResult};
pub use error::NetworkError;
pub use network::{NetNode, Network, Sig};
pub use rewrite::{
    exact_network, rewrite, Replacement, RewriteConfig, RewriteResult, SynthesisCache,
};
