//! End-to-end fault injection over the synthesis pipeline.
//!
//! Compiled only under `--features faultsim`; run it with
//! `cargo test -p stp-bench --features faultsim`. Every test serializes
//! on [`stp_faultsim::test_guard`] because failpoints are
//! process-global.
//!
//! The headline regression pinned here: a shape task that panics
//! mid-round must not lose the sibling shapes' solutions, the surviving
//! transcript must be the no-fault transcript minus exactly the faulted
//! shape's contribution (so the prefix before the fault is
//! byte-identical), and the damage must be identical at any worker
//! count. The same holds for a panic on one candidate root inside a
//! shape's verification loop.

#![cfg(feature = "faultsim")]

use std::time::Duration;

use stp_bench::{run_suite_with_retry, Algorithm, RetryPolicy, Suite};
use stp_fence::{pruned_fences, shapes_for_fence};
use stp_synth::{synthesize, FactorConfig, Factorizer, SynthesisConfig, SynthesisError};
use stp_tt::TruthTable;

/// Runs the paper's running example and renders each chain as one
/// comparable string, preserving solution order.
fn run_chains(jobs: usize) -> Result<Vec<String>, SynthesisError> {
    let spec = TruthTable::from_hex(4, "8ff8").unwrap();
    let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
    synthesize(&spec, &config).map(|r| r.chains.iter().map(|c| c.to_string()).collect())
}

/// [`run_chains`] for any spec.
fn run_spec(spec: &TruthTable, jobs: usize) -> Result<Vec<String>, SynthesisError> {
    let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
    synthesize(spec, &config).map(|r| r.chains.iter().map(|c| c.to_string()).collect())
}

/// True when `sub` is an (ordered, possibly non-contiguous) subsequence
/// of `full`.
fn is_subsequence(sub: &[String], full: &[String]) -> bool {
    let mut pos = 0usize;
    for item in sub {
        match full[pos..].iter().position(|f| f == item) {
            Some(offset) => pos += offset + 1,
            None => return false,
        }
    }
    true
}

#[test]
fn panicking_shape_keeps_sibling_solutions_at_any_worker_count() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    let baseline = run_chains(1).expect("no-fault baseline must solve");
    assert!(!baseline.is_empty());
    let mut runs_with_survivors = 0usize;
    // Shape indices are 1-based hit numbers; sweep past the largest
    // round so at least one index also exercises the "fault never
    // fires" path.
    for k in 1..=6u64 {
        let mut outcomes = Vec::new();
        for jobs in [1usize, 4] {
            stp_faultsim::set("parallel.shape", &format!("{k}:panic")).unwrap();
            outcomes.push(run_chains(jobs));
            stp_faultsim::clear_all();
        }
        let [seq, par] = <[_; 2]>::try_from(outcomes).unwrap();
        match (&seq, &par) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "k={k}: faulted transcript differs between jobs=1 and jobs=4");
                assert!(
                    is_subsequence(a, &baseline),
                    "k={k}: surviving solutions are not a subsequence of the no-fault run:\n\
                     faulted:  {a:#?}\nbaseline: {baseline:#?}"
                );
                // The shapes before the faulted one are untouched, so
                // the transcript diverges only by a deletion: the
                // prefix up to the first missing chain is identical.
                let common = a.iter().zip(&baseline).take_while(|(x, y)| x == y).count();
                assert!(
                    a.len() == baseline.len() || common < baseline.len(),
                    "k={k}: shortened transcript must differ by deletion only"
                );
                if !a.is_empty() {
                    runs_with_survivors += 1;
                }
            }
            (Err(SynthesisError::JobPanicked { message: m1 }), Err(e2)) => {
                // The faulted shape was load-bearing for its round:
                // both worker counts must report the same isolated
                // panic, naming the shape.
                assert_eq!(seq, par, "k={k}: error differs between worker counts");
                assert!(
                    m1.contains(&format!("shape task {}", k - 1)),
                    "k={k}: panic message `{m1}` does not name the shape"
                );
                let _ = e2;
            }
            other => panic!("k={k}: divergent outcomes across worker counts: {other:?}"),
        }
    }
    // The sweep is only meaningful if some shape was expendable.
    assert!(runs_with_survivors > 0, "every shape index was load-bearing");
}

/// The candidate chains of each shape of the optimum gate-count round,
/// in shape order (every candidate is accepted, so they concatenate to
/// the no-fault transcript).
fn optimum_round_chains(spec: &TruthTable, gates: usize) -> Vec<Vec<String>> {
    let mut engine = Factorizer::new(FactorConfig::default());
    pruned_fences(gates)
        .iter()
        .flat_map(shapes_for_fence)
        .map(|shape| {
            let chains = engine.chains_on_shape(spec, &shape).unwrap();
            chains.iter().map(|c| c.to_string()).collect()
        })
        .collect()
}

#[test]
fn panicking_root_loses_only_its_shape_at_any_worker_count() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // At least two workers, so a 1-CPU host still compares jobs = 1
    // against a parallel run.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from).max(2);
    // Both specs solve at 3 gates on two shapes with roots: 0x1ee1 with
    // 4 and 8, 0x6996 with 12 and 48. The `verify.root` hit index is the
    // root's 1-based index within its shape, so a hit above the smaller
    // shape's root count reaches exactly one root of the round, at any
    // worker count. Sweep the first and last such hit.
    for hex in ["1ee1", "6996"] {
        let spec = TruthTable::from_hex(4, hex).unwrap();
        let baseline = run_spec(&spec, 1).expect("no-fault baseline must solve");
        let per_shape = optimum_round_chains(&spec, 3);
        assert_eq!(per_shape.concat(), baseline, "{hex}: candidates differ from the transcript");
        let mut counts: Vec<usize> = per_shape.iter().map(Vec::len).collect();
        let victim = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap();
        counts.sort_unstable();
        let [.., second, top] = counts[..] else { panic!("{hex}: one shape only") };
        assert!(second < top, "{hex}: no root index is unique to one shape");
        let expected: Vec<String> = per_shape
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .flat_map(|(_, chains)| chains.iter().cloned())
            .collect();
        for k in [second + 1, top] {
            let mut outcomes = Vec::new();
            for jobs in [1, nproc] {
                stp_faultsim::set("verify.root", &format!("{k}:panic")).unwrap();
                outcomes.push(run_spec(&spec, jobs));
                stp_faultsim::clear_all();
            }
            let [seq, par] = <[_; 2]>::try_from(outcomes).unwrap();
            let seq = seq.unwrap_or_else(|e| panic!("{hex} k={k}: survivors must stand: {e}"));
            assert_eq!(Ok(&seq), par.as_ref(), "{hex} k={k}: damage differs at jobs={nproc}");
            assert_eq!(seq, expected, "{hex} k={k}: more than the faulted shape was lost");
            assert!(is_subsequence(&seq, &baseline), "{hex} k={k}: not a subsequence");
        }
    }
}

#[test]
fn panic_on_a_non_solution_round_surfaces_as_job_panicked() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // Hit 1 fires in the very first round (gate count 1), which holds
    // no solutions for 0x8ff8 — zero survivors there means the panic is
    // load-bearing and must propagate instead of being swallowed.
    for jobs in [1usize, 4] {
        stp_faultsim::set("parallel.shape", "1:panic").unwrap();
        let err = run_chains(jobs).expect_err("round with no survivors must propagate");
        stp_faultsim::clear_all();
        match err {
            SynthesisError::JobPanicked { message } => {
                assert!(message.contains("shape task 0"), "jobs={jobs}: message `{message}`");
                assert!(message.contains("parallel.shape"), "jobs={jobs}: message `{message}`");
            }
            other => panic!("jobs={jobs}: expected JobPanicked, got {other:?}"),
        }
    }
}

#[test]
fn deadline_failpoint_forces_a_structured_timeout() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // `factor.deadline=err` makes every deadline check claim expiry, so
    // synthesis must come back as a Timeout (never a panic or a bogus
    // solution), at any worker count.
    for jobs in [1usize, 4] {
        stp_faultsim::set("factor.deadline", "err").unwrap();
        let err = run_chains(jobs).expect_err("forced deadline expiry must fail");
        stp_faultsim::clear_all();
        assert!(matches!(err, SynthesisError::Timeout), "jobs={jobs}: got {err:?}");
    }
}

/// A three-instance suite of easy, distinct NPN4 functions.
fn small_suite() -> Suite {
    Suite {
        name: "FAULT3",
        functions: ["8ff8", "6996", "1ee1"]
            .iter()
            .map(|hex| TruthTable::from_hex(4, hex).unwrap())
            .collect(),
    }
}

#[test]
fn panicking_instance_counts_as_an_error_not_a_timeout() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // Instance hit numbers are 1-based: "2:panic" kills exactly the
    // second instance. The suite must absorb the panic as a hard error
    // — never as a timeout, and never at the cost of the siblings —
    // identically at jobs=1 (sequential path) and jobs=4 (worker pool).
    let suite = small_suite();
    let policy = RetryPolicy::single(Duration::from_secs(60));
    for jobs in [1usize, 4] {
        stp_faultsim::set("bench.instance", "2:panic").unwrap();
        let report = run_suite_with_retry(Algorithm::Stp, &suite, &policy, jobs, None);
        stp_faultsim::clear_all();
        assert_eq!(report.errors, 1, "jobs={jobs}: the panicking instance must land in errors");
        assert_eq!(report.timeouts, 0, "jobs={jobs}: a panic must not masquerade as a timeout");
        assert_eq!(report.solved, 2, "jobs={jobs}: sibling instances must survive");
        assert_eq!(report.gate_counts.len(), 3, "jobs={jobs}");
        assert!(report.gate_counts[1].is_none(), "jobs={jobs}: faulted slot must stay unsolved");
        assert!(report.gate_counts[0].is_some() && report.gate_counts[2].is_some(), "jobs={jobs}");
    }
}

#[test]
fn panicking_shape_inside_an_instance_is_an_error_not_a_timeout() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // A load-bearing shape panic surfaces from the engine as
    // `JobPanicked`; the harness must classify that as a hard error.
    let suite = Suite { name: "FAULT1", functions: vec![TruthTable::from_hex(4, "8ff8").unwrap()] };
    let policy = RetryPolicy::single(Duration::from_secs(60));
    stp_faultsim::set("parallel.shape", "1:panic").unwrap();
    let report = run_suite_with_retry(Algorithm::Stp, &suite, &policy, 1, None);
    stp_faultsim::clear_all();
    assert_eq!(report.errors, 1);
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.solved, 0);
}

#[test]
fn forced_deadline_expiry_still_counts_as_a_timeout() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // The inverse split: a genuine (here, injected) deadline expiry
    // must keep landing in #t/o, not in the error tally.
    let suite = Suite { name: "FAULT1", functions: vec![TruthTable::from_hex(4, "8ff8").unwrap()] };
    let policy = RetryPolicy::single(Duration::from_secs(60));
    stp_faultsim::set("factor.deadline", "err").unwrap();
    let report = run_suite_with_retry(Algorithm::Stp, &suite, &policy, 1, None);
    stp_faultsim::clear_all();
    assert_eq!(report.timeouts, 1);
    assert_eq!(report.errors, 0);
    assert_eq!(report.solved, 0);
}

#[test]
fn fault_free_runs_are_untouched_by_the_instrumentation() {
    let _serial = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // With every point disarmed, the faultsim build must reproduce the
    // determinism contract verbatim: jobs=1 and jobs=4 byte-identical.
    let sequential = run_chains(1).expect("must solve");
    let parallel = run_chains(4).expect("must solve");
    assert_eq!(sequential, parallel);
}
