//! Parallel-vs-sequential determinism and cancellation, end to end.
//!
//! The scheduler in `stp-synth` promises byte-identical output for any
//! worker count: the parallel merge emits per-shape solution vectors in
//! shape-index order and truncates to `max_solutions`, which is exactly
//! the sequential prefix. These tests pin that promise over real suites
//! (a slice of the NPN4 representatives plus the paper's running
//! example) and prove that a deadline propagates through the
//! cooperative cancellation flag instead of letting workers run on.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stp_bench::{
    npn4_slice, pdsd, run_instance_with_retry, run_suite_outcomes, Algorithm, RetryPolicy, Suite,
};
use stp_store::Store;
use stp_synth::{synthesize, SynthesisConfig, SynthesisError};
use stp_tt::TruthTable;

/// Renders a result as a comparable transcript: gate count plus every
/// chain in order. Chain `Display` includes operands and operators, so
/// equal transcripts mean equal solution *sequences*, not just sets.
fn transcript(spec: &TruthTable, jobs: usize) -> String {
    let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
    let result = synthesize(spec, &config).expect("instance should solve");
    let mut out = format!("gates={}\n", result.gate_count);
    for chain in &result.chains {
        out.push_str(&chain.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn npn4_representatives_match_across_worker_counts() {
    // A slice keeps the suite fast in debug builds; the slice still
    // spans multiple gate counts and fence families.
    let suite = npn4_slice();
    for spec in &suite.functions {
        let sequential = transcript(spec, 1);
        for jobs in [2, 4] {
            let parallel = transcript(spec, jobs);
            assert_eq!(sequential, parallel, "jobs={jobs} diverged from sequential on {spec:?}");
        }
    }
}

#[test]
fn running_example_matches_across_worker_counts() {
    let spec = TruthTable::from_hex(4, "8ff8").unwrap();
    let sequential = transcript(&spec, 1);
    assert!(sequential.starts_with("gates=3\n"));
    for jobs in [0, 2, 3, 8] {
        assert_eq!(sequential, transcript(&spec, jobs), "jobs={jobs}");
    }
}

#[test]
fn running_example_transcript_content_is_pinned() {
    // Byte-for-byte golden transcript of the paper's running example
    // f = 0x8ff8, captured from the scalar engine before the word-level
    // factorization kernels landed. Any change to this output — an
    // extra chain, a missing chain, a different enumeration order —
    // means the kernels are no longer byte-equivalent to the reference
    // semantics and must be treated as a bug, not re-pinned.
    let expected = "gates=3\n\
                    x5 = 0x6(x3, x4)\n\
                    x6 = 0x7(x1, x2)\n\
                    x7 = 0xb(x5, x6)\n\
                    f1 = x7\n\
                    x5 = 0x6(x3, x4)\n\
                    x6 = 0x8(x1, x2)\n\
                    x7 = 0xe(x5, x6)\n\
                    f1 = x7\n\
                    x5 = 0x7(x1, x2)\n\
                    x6 = 0x9(x3, x4)\n\
                    x7 = 0x7(x5, x6)\n\
                    f1 = x7\n\
                    x5 = 0x8(x1, x2)\n\
                    x6 = 0x9(x3, x4)\n\
                    x7 = 0xb(x5, x6)\n\
                    f1 = x7\n";
    let spec = TruthTable::from_hex(4, "8ff8").unwrap();
    for jobs in [1, 4] {
        let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
        let result = synthesize(&spec, &config).unwrap();
        let mut got = format!("gates={}\n", result.gate_count);
        for chain in &result.chains {
            got.push_str(&chain.to_string());
        }
        assert_eq!(got, expected, "jobs={jobs}: 0x8ff8 transcript drifted from the golden run");
    }
}

#[test]
fn capped_runs_match_across_worker_counts() {
    let spec = TruthTable::from_hex(4, "6996").unwrap();
    for cap in [1, 2] {
        let run = |jobs: usize| {
            let config = SynthesisConfig { jobs, max_solutions: cap, ..SynthesisConfig::default() };
            let result = synthesize(&spec, &config).unwrap();
            assert_eq!(result.chains.len(), cap, "cap must bind exactly at jobs={jobs}");
            result.chains.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(4), "cap={cap}");
    }
}

/// Renders a whole suite run as one comparable transcript: per
/// instance, the solve status, gate count, every chain in order, and
/// every scoped counter. Wall-clock measurements — the elapsed field
/// and the `*_ns` timing counters — are deliberately excluded: they
/// vary run to run even sequentially. So is the `factor.memo_bytes`
/// allocation gauge, which tracks table capacity rather than search
/// behaviour. Everything else must be byte-identical at any jobs count.
fn suite_transcript(suite: &Suite, jobs: usize, store: Option<&Store>) -> String {
    let policy = RetryPolicy::single(Duration::from_secs(60));
    let outcomes = run_suite_outcomes(Algorithm::Stp, suite, &policy, jobs, store);
    assert_eq!(outcomes.len(), suite.functions.len());
    let mut out = String::new();
    for (idx, o) in outcomes.iter().enumerate() {
        let _ = writeln!(out, "[{idx}] solved={} gates={:?}", o.solved, o.gate_count);
        for chain in &o.chains {
            out.push_str(&chain.to_string());
        }
        for (name, value) in &o.counters {
            // `factor.memo_bytes` is a capacity gauge: growth-doubling
            // byte deltas depend on how subproblems partition across
            // engines, not on what was searched.
            if name.ends_with("_ns") || name == "factor.memo_bytes" {
                continue;
            }
            let _ = writeln!(out, "  {name}={value}");
        }
    }
    out
}

#[test]
fn suite_transcripts_match_across_instance_pool_sizes() {
    // The two-level scheduler merges instance results in suite order
    // and attributes counters per instance, so the *entire* suite
    // transcript — status, chains, and counter totals — must be
    // byte-identical whether the instance pool runs 1, 2, or 4 workers.
    let suite = npn4_slice();
    let sequential = suite_transcript(&suite, 1, None);
    assert!(sequential.contains("solved=true"));
    for jobs in [2, 4] {
        let parallel = suite_transcript(&suite, jobs, None);
        assert_eq!(sequential, parallel, "suite transcript diverged at jobs={jobs}");
    }
}

#[test]
fn suite_transcripts_match_with_a_shared_store() {
    // Same contract with the NPN store attached: every run gets a fresh
    // store (so cache state is identical), and the NPN4 representatives
    // are distinct classes, so store coalescing cannot reorder work.
    let suite = npn4_slice();
    let baseline = {
        let store = Store::new();
        suite_transcript(&suite, 1, Some(&store))
    };
    for jobs in [2, 4] {
        let store = Store::new();
        let parallel = suite_transcript(&suite, jobs, Some(&store));
        assert_eq!(baseline, parallel, "stored suite transcript diverged at jobs={jobs}");
    }
}

#[test]
fn instance_pool_at_one_worker_equals_the_sequential_loop() {
    // jobs=1 must be the plain sequential loop, not merely equivalent
    // to it: run the same instances by hand and compare outcomes.
    let mut suite = npn4_slice();
    suite.functions.truncate(6);
    let policy = RetryPolicy::single(Duration::from_secs(60));
    let pooled = run_suite_outcomes(Algorithm::Stp, &suite, &policy, 1, None);
    for (idx, spec) in suite.functions.iter().enumerate() {
        let direct = run_instance_with_retry(Algorithm::Stp, spec, &policy, 1, None);
        assert_eq!(pooled[idx].solved, direct.solved, "instance {idx}");
        assert_eq!(pooled[idx].gate_count, direct.gate_count, "instance {idx}");
        assert_eq!(
            pooled[idx].chains.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            direct.chains.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            "instance {idx}"
        );
        assert_eq!(pooled[idx].counters, direct.counters, "instance {idx}");
    }
}

#[test]
fn duplicate_classes_coalesce_into_one_synthesis() {
    // Three copies of the running example plus three of another class:
    // the store's in-flight dedup must collapse each class to a single
    // synthesis even when the instance pool offers them concurrently.
    let a = TruthTable::from_hex(4, "8ff8").unwrap();
    let b = TruthTable::from_hex(4, "6996").unwrap();
    let suite =
        Suite { name: "DUP", functions: vec![a.clone(), b.clone(), a.clone(), b.clone(), a, b] };
    let policy = RetryPolicy::single(Duration::from_secs(60));
    let store = Store::new();
    let outcomes = run_suite_outcomes(Algorithm::Stp, &suite, &policy, 4, Some(&store));
    assert!(outcomes.iter().all(|o| o.solved), "every duplicate must solve");
    // One miss (= one actual synthesis) per distinct NPN class; the
    // other four instances answered from the store or waited on the
    // in-flight solve.
    assert_eq!(store.misses(), 2, "duplicate classes must coalesce to one synthesis each");
    // All copies of a class report the same solution set.
    assert_eq!(outcomes[0].gate_count, outcomes[2].gate_count);
    assert_eq!(
        outcomes[0].chains.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        outcomes[4].chains.iter().map(|c| c.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn deadline_cancellation_propagates_to_workers() {
    // An 8-variable PDSD instance with a 4-input prime block (10 gates,
    // seconds of search) is far too hard for a 50 ms budget, so the
    // deadline must fire *inside* the factorization loops. If the
    // cancellation flag failed to propagate, the workers would grind
    // through the whole round and the elapsed time would blow past the
    // assertion bound by orders of magnitude.
    let suite = pdsd(8, 2, 8);
    let spec = &suite.functions[1];
    let budget = Duration::from_millis(50);
    for jobs in [1, 4] {
        let config = SynthesisConfig {
            jobs,
            deadline: Some(Instant::now() + budget),
            ..SynthesisConfig::default()
        };
        let start = Instant::now();
        let err = synthesize(spec, &config).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, SynthesisError::Timeout), "jobs={jobs}: got {err:?}");
        assert!(
            elapsed < Duration::from_secs(10),
            "jobs={jobs}: cancellation took {elapsed:?}, flag did not propagate"
        );
    }
}
