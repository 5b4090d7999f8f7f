//! End-to-end smoke tests for the profiling subsystem: wall-clock
//! accounting, folded-stack export, and the `stpprof --drift` gate.
//!
//! The in-process test collects spans on the global profile tree, so it
//! is the only `#[test]` here that may do so; the drift tests only
//! spawn subprocesses and are safe alongside it.

use std::process::Command;
use std::time::Instant;

use stp_bench::npn4_slice;
use stp_synth::{synthesize, SynthesisConfig};
use stp_telemetry::{profile, Span};

// Under `--features alloc-profile` the smoke test also asserts byte
// attribution, which requires the counting allocator in this process.
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

#[test]
fn profile_accounts_for_wall_clock_and_exports_valid_folded_stacks() {
    let suite = npn4_slice();

    // One explicit top-level span wraps the whole cold run, so the
    // root's total must track the measured wall clock of the region.
    let (wall, tree) = profile::profiled(|| {
        let start = Instant::now();
        {
            let _run = Span::enter("run");
            for spec in &suite.functions {
                let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
                synthesize(spec, &config).expect("slice instance should solve");
            }
        }
        start.elapsed()
    });

    let run = tree.find(&["run"]).expect("tree must contain the explicit run span");
    assert_eq!(run.calls, 1);
    let wall_ns = wall.as_nanos() as u64;
    let delta = wall_ns.abs_diff(run.total_ns);
    assert!(
        (delta as f64) < 0.05 * (wall_ns as f64),
        "profile total {}ns is more than 5% away from wall clock {}ns",
        run.total_ns,
        wall_ns
    );
    // The synthesis pipeline must hang below the run span, not beside
    // it: rounds under run, shapes under rounds.
    let round = run.children.iter().find(|c| c.label.starts_with("synth.round"));
    let round = round.expect("no synth.round subtree under run");
    assert!(round.children.iter().any(|c| c.label.starts_with("shape.")));

    // Folded export: `frame(;frame)* <count>` per line — the format
    // inferno/flamegraph.pl consume. Every frame non-empty, every
    // count a plain integer, and the explicit root frame present.
    let folded = tree.folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(
            !stack.is_empty() && stack.split(';').all(|frame| !frame.is_empty()),
            "empty frame in folded line: {line}"
        );
        count.parse::<u64>().unwrap_or_else(|e| panic!("bad count in {line}: {e}"));
    }
    assert!(folded.lines().any(|l| l.starts_with("run;")), "no run-rooted stacks:\n{folded}");

    // With the counting allocator installed, a cold synthesis run must
    // attribute real heap traffic to the tree.
    #[cfg(feature = "alloc-profile")]
    {
        assert!(run.alloc_bytes > 0, "cold run attributed no bytes");
        assert!(run.allocs > 0, "cold run attributed no allocations");
    }
}

/// Path of the committed `pins` document at the repo root.
fn committed_baseline() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pins.json")
}

#[test]
fn stpprof_drift_gate_agrees_with_committed_baseline() {
    let dir = std::env::temp_dir().join(format!("stpprof_drift_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let candidate = dir.join("candidate.json");
    let candidate_str = candidate.to_str().expect("utf8 path");

    // Produce a fresh slice candidate (recorded at jobs = 1).
    let out = Command::new(env!("CARGO_BIN_EXE_pins"))
        .args(["--slice", "--out", candidate_str])
        .output()
        .expect("pins runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Clean candidate: verdict "no drift", exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_stpprof"))
        .args(["--drift", committed_baseline(), candidate_str])
        .output()
        .expect("stpprof runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "drift check failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("verdict: no drift"), "stdout: {stdout}");
    assert!(stdout.contains("factor.subproblems"), "stdout: {stdout}");

    // Tampered candidate: bump one pinned counter, expect exit 1 and a
    // DRIFT row naming it.
    let text = std::fs::read_to_string(&candidate).expect("candidate readable");
    let key = "\"factor.subproblems\":";
    let start = text.find(key).expect("candidate has the pinned counter") + key.len();
    let end = start + text[start..].find(|c: char| !c.is_ascii_digit()).expect("digits end");
    let tampered_path = dir.join("tampered.json");
    std::fs::write(&tampered_path, format!("{}1{}", &text[..start], &text[end..]))
        .expect("write tampered candidate");
    let out = Command::new(env!("CARGO_BIN_EXE_stpprof"))
        .args(["--drift", committed_baseline(), tampered_path.to_str().expect("utf8 path")])
        .output()
        .expect("stpprof runs");
    assert_eq!(out.status.code(), Some(1), "tampered candidate must drift");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DRIFT") && stdout.contains("factor.subproblems"), "stdout: {stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stpprof_rejects_jobs_mismatch_and_bad_files() {
    // A parallel candidate must be refused: worker-local memos make the
    // pinned counters incomparable at jobs != 1.
    let dir = std::env::temp_dir().join(format!("stpprof_jobs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let parallel = dir.join("parallel.json");
    let text = std::fs::read_to_string(committed_baseline()).expect("baseline readable");
    std::fs::write(&parallel, text.replace("\"jobs\":1", "\"jobs\":4")).expect("write candidate");
    let out = Command::new(env!("CARGO_BIN_EXE_stpprof"))
        .args(["--drift", committed_baseline(), parallel.to_str().expect("utf8 path")])
        .output()
        .expect("stpprof runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("jobs"), "stderr: {stderr}");

    // Unreadable input: runtime failure (exit 1), not a usage error.
    let missing = dir.join("missing.json");
    let out = Command::new(env!("CARGO_BIN_EXE_stpprof"))
        .args([missing.to_str().expect("utf8 path")])
        .output()
        .expect("stpprof runs");
    assert_eq!(out.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}
