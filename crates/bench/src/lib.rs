//! Workload suites and the Table I regeneration harness.
//!
//! This crate regenerates the evaluation of *"Exact Synthesis Based on
//! Semi-Tensor Product Circuit Solver"* (Pan & Chu, DATE 2023):
//!
//! * [`suites`] — the five function suites of §IV (NPN4, FDSD6, FDSD8,
//!   PDSD6, PDSD8);
//! * [`harness`] — per-instance timeout measurement of the four
//!   algorithms (BMS, FEN, ABC-like, STP);
//! * [`report`] — the Table I renderer and the headline
//!   speedup/timeout-reduction summary.
//!
//! Binaries:
//!
//! * `table1` — regenerates Table I (`--full` for paper-scale counts);
//! * `fence_census` — prints the fence families of Fig. 2 and the DAG
//!   families of Fig. 3;
//! * `pins` — the pinned counters and answers of the Table I suites
//!   and the multi-output cases (`BENCH_pins.json`, see [`pins`]);
//! * `stpprof` — profile rendering/diffing and the pin drift verdict
//!   (see [`profdiff`]).
//!
//! Criterion benches cover the Table I suites, fence enumeration, the
//! STP kernels, and the two design-choice ablations from `DESIGN.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod pins;
pub mod profdiff;
pub mod report;
pub mod suites;

pub use harness::{
    run_instance, run_instance_with_retry, run_instance_with_store, run_suite, run_suite_outcomes,
    run_suite_with_retry, run_suite_with_store, Algorithm, InstanceFailure, InstanceOutcome,
    RetryPolicy, SuiteReport,
};
pub use profdiff::{bench_drift, diff, load_profile, render_diff, DiffRow, DriftReport, DriftRow};
pub use report::{render_counters, render_headlines, render_table};
pub use suites::{fdsd, npn4, npn4_slice, pdsd, standard_suites, wide, Scale, Suite};
