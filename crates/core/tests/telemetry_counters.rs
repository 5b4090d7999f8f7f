//! End-to-end plumbing check for the factorization telemetry counters.
//!
//! The engine batches its tallies locally and flushes them to the
//! global registry once per `chains_on_shape` call; this test pins that
//! the flush actually reaches a registry snapshot delta — the contract
//! the bench harness and the committed `BENCH_pins.json` pins
//! rely on. It lives in its own integration binary because it reads the
//! global registry and must not race other tests' counter traffic.
//! Two more tests pin the candidate and verification counters of whole
//! synthesis runs: two specs under two objectives, and the first
//! function of stpbench's FDSD8 suite.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_fence::TreeShape;
use stp_synth::{FactorConfig, Factorizer};
use stp_tt::{random_fdsd_tree, TruthTable};

#[test]
fn factor_counters_reach_the_global_registry() {
    let before = stp_telemetry::metrics_global().snapshot();
    let spec = TruthTable::from_hex(4, "8ff8").unwrap();
    let leaf = TreeShape::Leaf;
    let pair = TreeShape::node(leaf.clone(), leaf.clone());
    let shape = TreeShape::node(pair.clone(), pair);
    let mut engine = Factorizer::new(FactorConfig::default());
    let chains = engine.chains_on_shape(&spec, &shape).unwrap();
    assert_eq!(chains.len(), 4, "running example must enumerate all four chains");
    let delta = stp_telemetry::metrics_global().snapshot().delta_since(&before);
    assert!(*delta.counters.get("factor.subproblems").unwrap_or(&0) > 0);
    assert!(*delta.counters.get("factor.charts_built").unwrap_or(&0) > 0);
    // A second, fully memoized pass flushes hits but explores nothing.
    let before = stp_telemetry::metrics_global().snapshot();
    let leaf = TreeShape::Leaf;
    let pair = TreeShape::node(leaf.clone(), leaf.clone());
    let shape = TreeShape::node(pair.clone(), pair);
    let again = engine.chains_on_shape(&spec, &shape).unwrap();
    assert_eq!(again.len(), 4);
    let delta = stp_telemetry::metrics_global().snapshot().delta_since(&before);
    assert!(*delta.counters.get("factor.memo_hits").unwrap_or(&0) > 0);
    assert_eq!(*delta.counters.get("factor.subproblems").unwrap_or(&0), 0);
    assert_eq!(*delta.counters.get("factor.charts_built").unwrap_or(&0), 0);
}

/// The candidate and verification counters of one `jobs = 1` synthesis
/// run, read from a counter scope on this thread, after asserting that
/// it counted no `solver.merges`: forest verification propagates cover
/// words, and only Algorithm 1 (`solve_circuit`) merges cube lists.
fn verify_counters(spec: &TruthTable, objective: &str) -> [u64; 5] {
    let objective = stp_synth::objective_from_spec(objective).unwrap();
    let config = stp_synth::SynthesisConfig { jobs: 1, ..stp_synth::SynthesisConfig::default() };
    let scope = stp_telemetry::CounterScope::enter();
    stp_synth::synthesize_with_objective(spec, objective.as_ref(), &config).unwrap();
    let counters = scope.finish();
    assert_eq!(counters.get("solver.merges"), None, "{}: merges", spec.to_hex());
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    [
        get("synth.candidates"),
        get("solver.queries"),
        get("solver.candidates_verified"),
        get("synth.solutions"),
        get("solver.propagation_steps"),
    ]
}

/// `(spec, objective, [synth.candidates, solver.queries,
/// solver.candidates_verified, synth.solutions], solver.propagation_steps)`.
/// The four counts were recorded before verification ran over the
/// realization forest (one query per candidate, every candidate
/// accepted); the propagation steps are the forest verifier's, which
/// the root check must keep exactly: it solves the same fanin lists in
/// the same order whether it merges them or intersects their covers.
#[rustfmt::skip]
const PINNED: [(usize, &str, &str, [u64; 4], u64); 4] = [
    (8, "ffffffffffffffff0005000100050004ffffffffffffffff0000000400000001", "gates", [960, 960, 960, 960], 3_632),
    (8, "ffffffffffffffff0005000100050004ffffffffffffffff0000000400000001", "depth", [768, 768, 768, 768], 904),
    (4, "0693", "gates", [1120, 1120, 1120, 1120], 2_196),
    (4, "0693", "depth", [480, 480, 480, 480], 852),
];

/// The first function of stpbench's `fdsd8_cold` suite: the first tree
/// drawn from its fixed tree seed (`FDSD8_TREES_SEED` in
/// `stpbench/src/batch.rs`), with its candidate, query, accept,
/// solution and propagation-step counts under the gate-count objective.
const FDSD8_TREES_SEED: u64 = 0x4644_5344_3820_5452;
#[rustfmt::skip]
const FDSD8_FIRST: (&str, [u64; 4], u64) = (
    "5a5aa5a59a9aa9a95a5aa5a59a5aa9a55a5aa5a59a9aa9a95a5aa5a59a9aa9a9",
    [384, 384, 384, 384],
    1_496,
);

#[test]
fn forest_verification_keeps_the_candidate_counters() {
    // An FDSD8 function (7 gates) and a 6-gate NPN4 class under the
    // gate-count and depth objectives: the candidate, query, accept and
    // solution counts stay those of per-chain verification, and the
    // propagation steps those of the forest verifier.
    for (n, hex, objective, pinned, pinned_steps) in PINNED {
        let spec = TruthTable::from_hex(n, hex).unwrap();
        let [candidates, queries, verified, solutions, steps] = verify_counters(&spec, objective);
        assert_eq!([candidates, queries, verified, solutions], pinned, "{n}:{hex} {objective}");
        assert_eq!(steps, pinned_steps, "{n}:{hex} {objective}: propagation steps");
    }
}

#[test]
fn stpbench_fdsd8_row_keeps_its_counters() {
    let mut trees = SmallRng::seed_from_u64(FDSD8_TREES_SEED);
    let spec = random_fdsd_tree(8, &mut trees).to_truth_table(8).unwrap();
    let (hex, pinned, pinned_steps) = FDSD8_FIRST;
    assert_eq!(spec.to_hex(), hex, "the suite's first tree");
    let [candidates, queries, verified, solutions, steps] = verify_counters(&spec, "gates");
    assert_eq!([candidates, queries, verified, solutions], pinned, "8:{hex}");
    assert_eq!(steps, pinned_steps, "8:{hex}: propagation steps");
}
