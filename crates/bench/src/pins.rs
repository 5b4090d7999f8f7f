//! The pinned baselines: one table, one document (`BENCH_pins.json`).
//!
//! The exact, machine-independent results behind the paper's Table I
//! suites (§IV) and the multi-output sharing results are pinned here
//! once: per-suite solve counts and [`PINNED_COUNTERS`] totals for
//! every [`SUITE_ROWS`] entry, every field of every [`MO_CASES`] case,
//! and the joint-rewrite case ([`unshared_full_adder`]). The document
//! holds no wall-clock time; stpbench is the one source of wall time.
//!
//! The `pins` bin writes the document, every row at `jobs = 1`. The
//! `pins` integration test re-runs each row at the jobs counts it is
//! checked at and compares it with the committed document, so a row
//! recorded once is also pinned as jobs-invariant. `stpprof --drift`
//! compares the suite rows of two documents
//! ([`bench_drift`](crate::profdiff::bench_drift)).

use std::time::{Duration, Instant};

use stp_network::{rewrite, Network, RewriteConfig, SynthesisCache};
use stp_synth::{synthesize_multi, GateCountObjective, MultiSpec, SynthesisConfig};
use stp_telemetry::Json;
use stp_tt::TruthTable;

use crate::{fdsd, npn4, npn4_slice, run_suite, wide, Algorithm, Suite};

/// Schema tag of `BENCH_pins.json`.
pub const SCHEMA: &str = "stp-bench-pins v1";

/// Per-instance timeout of every pinned run: far above any row's need,
/// so a timeout is a failure, never a pinned value.
pub const TIMEOUT: Duration = Duration::from_secs(300);

/// Counters pinned for every suite row. Their totals are exact and
/// machine-independent whenever every instance runs with one shape
/// worker, which the two-level scheduler's static budget split
/// guarantees for any `jobs ≤` suite size. (Inside one instance, at
/// `jobs > 1`, worker-local memo tables make `factor.*` totals
/// worker-count-dependent.)
pub const PINNED_COUNTERS: [&str; 5] = [
    "factor.subproblems",
    "factor.memo_hits",
    "factor.charts_built",
    "synth.candidates",
    "solver.queries",
];

/// The jobs counts the `pins` test re-runs a row at.
pub enum CheckedAt {
    /// Each listed count; none records the row for `stpprof --drift`
    /// only.
    Jobs(&'static [usize]),
    /// `STP_JOBS` (0 = one per CPU), capped at this count.
    EnvJobsUpTo(usize),
}

impl CheckedAt {
    /// The resolved jobs counts.
    pub fn jobs(&self) -> Vec<usize> {
        match self {
            CheckedAt::Jobs(counts) => counts.to_vec(),
            CheckedAt::EnvJobsUpTo(cap) => {
                vec![stp_synth::resolve_jobs(stp_synth::jobs_from_env()).min(*cap)]
            }
        }
    }
}

/// One pinned suite.
pub struct SuiteRow {
    /// Suite name, the row's key in the document.
    pub name: &'static str,
    /// Builds the suite.
    pub suite: fn() -> Suite,
    /// Where the `pins` test re-checks it.
    pub checked_at: CheckedAt,
}

/// The suite rows, in document order.
pub const SUITE_ROWS: &[SuiteRow] = &[
    // The deterministic NPN4 prefix: the scheduler's jobs-invariance.
    SuiteRow { name: "NPN4[0..24]", suite: npn4_slice, checked_at: CheckedAt::Jobs(&[1, 4]) },
    // The full 222 classes: too slow for every CI run.
    SuiteRow { name: "NPN4", suite: npn4, checked_at: CheckedAt::Jobs(&[]) },
    SuiteRow { name: "FDSD6", suite: || fdsd(6, 40, 6), checked_at: CheckedAt::Jobs(&[1, 4]) },
    // 9–12-input specs through the split kernel's `W4` lanes.
    SuiteRow { name: "WIDE[9..12]", suite: wide, checked_at: CheckedAt::EnvJobsUpTo(4) },
];

/// The jobs counts the `pins` test re-runs the multi-output cases and
/// the rewrite case at.
pub const MO_JOBS: [usize; 2] = [1, 4];

/// Runs `row` at `jobs` and renders its document entry.
pub fn measure_suite(row: &SuiteRow, jobs: usize) -> Json {
    let suite = (row.suite)();
    assert_eq!(suite.name, row.name, "pin row and suite names disagree");
    let report = run_suite(Algorithm::Stp, &suite, TIMEOUT, jobs);
    let counters = PINNED_COUNTERS
        .iter()
        .map(|name| (name.to_string(), Json::UInt(*report.counters.get(*name).unwrap_or(&0))))
        .collect();
    Json::obj(vec![
        ("suite", Json::Str(row.name.to_string())),
        ("instances", Json::UInt(suite.functions.len() as u64)),
        ("solved", Json::UInt(report.solved as u64)),
        ("timeouts", Json::UInt(report.timeouts as u64)),
        ("errors", Json::UInt(report.errors as u64)),
        ("counters", Json::Obj(counters)),
    ])
}

/// One multi-output workload: `k` hex truth tables over a common
/// support, synthesized as a single shared chain.
pub struct MoCase {
    /// Stable case name, the join key against the committed pins.
    pub name: &'static str,
    /// Common input arity of every output.
    pub num_vars: usize,
    /// Hex truth tables, one per output.
    pub specs: &'static [&'static str],
}

/// The pinned multi-output slice: small enough to re-run in CI at
/// two jobs counts, varied enough to pin zero-, one- and two-gate
/// sharing wins across 2-, 3- and 4-input supports.
pub const MO_CASES: &[MoCase] = &[
    MoCase { name: "xor-and", num_vars: 2, specs: &["6", "8"] },
    MoCase { name: "full-adder", num_vars: 3, specs: &["96", "e8"] },
    MoCase { name: "parity-pair", num_vars: 3, specs: &["96", "69"] },
    MoCase { name: "full-adder-triple", num_vars: 3, specs: &["96", "e8", "80"] },
    MoCase { name: "example7-parity4", num_vars: 4, specs: &["8ff8", "6996"] },
];

/// Synthesizes `case` as one shared chain under the gate-count
/// objective and renders its document entry: shared gates, each
/// output's optimum alone, the gates saved, and the solution
/// combinations the shared merge scored. Panics on any synthesis
/// failure — the cases are sized to finish well inside [`TIMEOUT`].
pub fn measure_mo_case(case: &MoCase, jobs: usize) -> Json {
    let specs: Vec<TruthTable> = case
        .specs
        .iter()
        .map(|hex| {
            TruthTable::from_hex(case.num_vars, hex)
                .unwrap_or_else(|e| panic!("case {}: bad spec {hex}: {e}", case.name))
        })
        .collect();
    let multi =
        MultiSpec::new(specs).unwrap_or_else(|e| panic!("case {}: bad spec set: {e}", case.name));
    let config = SynthesisConfig {
        deadline: Some(Instant::now() + TIMEOUT),
        jobs,
        ..SynthesisConfig::default()
    };
    let result = synthesize_multi(&multi, &GateCountObjective, &config)
        .unwrap_or_else(|e| panic!("case {}: synthesis failed: {e}", case.name));
    let uint = |n: usize| Json::UInt(n as u64);
    Json::obj(vec![
        ("name", Json::Str(case.name.to_string())),
        ("num_vars", uint(case.num_vars)),
        ("specs", Json::Arr(case.specs.iter().map(|s| Json::Str((*s).to_string())).collect())),
        ("shared_gates", uint(result.chain.num_gates())),
        ("per_output_gates", Json::Arr(result.per_output_gates.iter().map(|g| uint(*g)).collect())),
        ("gates_saved", uint(result.gates_saved)),
        ("combinations_tried", uint(result.combinations_tried)),
    ])
}

/// The pinned 2-output rewrite case: a full adder built without
/// shared logic (carry in SOP form, so structural hashing cannot
/// pre-share the XOR). Every single-root cone is already optimal —
/// only the joint rewrite of the `{sum, carry}` pair over the shared
/// 3-leaf cut can improve it, from 6 gates to the 5-gate shared chain.
pub fn unshared_full_adder() -> Network {
    let mut net = Network::new(3);
    let (a, b, c) = (net.input(0), net.input(1), net.input(2));
    let x1 = net.xor(a, b).expect("gate");
    let sum = net.xor(x1, c).expect("gate");
    let u = net.and(a, b).expect("gate");
    let v = net.or(a, b).expect("gate");
    let w = net.and(v, c).expect("gate");
    let m = net.or(u, w).expect("gate");
    net.add_output(sum);
    net.add_output(m);
    net
}

/// Rewrites [`unshared_full_adder`] twice — single-root only, then
/// with joint multi-output rewriting — and renders the rewrite entry:
/// gates before, after each run, and the joint (multi-root)
/// replacements of the shared run. Panics on rewrite errors or
/// functional drift.
pub fn measure_rewrite(jobs: usize) -> Json {
    let net = unshared_full_adder();
    let before = net.simulate_outputs().expect("simulable");
    let config = |multi_output| RewriteConfig {
        synthesis_budget: TIMEOUT,
        jobs,
        multi_output,
        ..RewriteConfig::default()
    };
    let single =
        rewrite(&net, &config(false), &SynthesisCache::new()).expect("single-root rewrite");
    let shared = rewrite(&net, &config(true), &SynthesisCache::new()).expect("joint rewrite");
    for result in [&single, &shared] {
        assert_eq!(
            result.network.simulate_outputs().expect("simulable"),
            before,
            "rewriting must preserve the output functions"
        );
    }
    let joint = shared.replacements.iter().filter(|r| r.roots.len() > 1).count();
    Json::obj(vec![
        ("name", Json::Str("unshared-full-adder".to_string())),
        ("gates_before", Json::UInt(net.live_gate_count() as u64)),
        ("gates_single", Json::UInt(single.gates_after as u64)),
        ("gates_shared", Json::UInt(shared.gates_after as u64)),
        ("mo_replacements", Json::UInt(joint as u64)),
    ])
}
