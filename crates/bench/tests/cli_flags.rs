//! Flag-parsing contracts of the bench binaries: a malformed or
//! missing flag value, or an unknown option, is a loud usage error with
//! exit code 2 — never a silent fall-back to the default. (Runtime
//! failures use exit 1, so scripts can tell the two apart.)

use std::process::Command;

/// Runs `bin` with `args` and asserts the exit-2 usage contract.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{bin} {args:?}: stderr {stderr}");
}

#[test]
fn table1_rejects_malformed_flag_values() {
    let bin = env!("CARGO_BIN_EXE_table1");
    for args in [
        &["--timeout", "abc"][..],
        &["--jobs", "x"],
        &["--jobs", "-1"],
        &["--retries", "lots"],
        &["--retries", "0"],
        &["--timeout"],
        &["--suite"],
        &["--store"],
        &["--profile-folded"],
        &["--frobnicate"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn table1_rejects_unrepresentable_timeouts() {
    // A timeout no `Duration` can hold is a usage error, not a panic.
    let bin = env!("CARGO_BIN_EXE_table1");
    for value in ["-1", "nan", "inf"] {
        assert_usage_error(bin, &["--timeout", value]);
    }
}

#[test]
fn pins_rejects_malformed_flag_values() {
    // Every flag appears: the two that take a path without one, and the
    // two switches ahead of a defect (a switch cannot be malformed).
    let bin = env!("CARGO_BIN_EXE_pins");
    for args in [
        &["--out"][..],
        &["--profile-folded"],
        &["--slice", "--out"],
        &["--profile", "--unknown-flag"],
        &["--unknown-flag"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn fence_census_rejects_malformed_flag_values() {
    let bin = env!("CARGO_BIN_EXE_fence_census");
    for args in [
        &["--max-k", "huge"][..],
        &["--max-k"],
        &["--log", "loudest"],
        &["--profile-folded"],
        &["--surprise"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn dsd_stats_rejects_malformed_flag_values() {
    let bin = env!("CARGO_BIN_EXE_dsd_stats");
    for args in [&["--log", "loudest"][..], &["--log"], &["--frobnicate"]] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn stpprof_rejects_bad_usage_with_exit_2() {
    // stpprof prints a usage synopsis rather than an "error:" line, but
    // the exit-2 contract is the same: argument-shape mistakes must be
    // distinguishable from runtime failures (exit 1).
    let bin = env!("CARGO_BIN_EXE_stpprof");
    for args in [
        &[][..],
        &["--drift"],
        &["--drift", "only-one.json"],
        &["--folded"],
        &["a.json", "b.json", "c.json"],
        &["--unknown-mode", "x"],
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "stpprof {args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "stpprof {args:?}: stderr {stderr}");
    }
}

/// Runs `bin` with `STP_JOBS=value` and asserts the exit-2 usage
/// contract, with the diagnostic naming the variable.
fn assert_env_jobs_error(bin: &str, value: &str) {
    let out = Command::new(bin)
        .env("STP_JOBS", value)
        .args(["--help-is-not-a-flag"]) // never reached: env is checked first
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} STP_JOBS={value}: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{bin} STP_JOBS={value}: stderr {stderr}");
    assert!(stderr.contains("STP_JOBS"), "{bin} STP_JOBS={value}: stderr {stderr}");
}

#[test]
fn bench_bins_reject_malformed_stp_jobs_at_startup() {
    // A malformed STP_JOBS must fail loudly at startup in every bin —
    // never a silent fall-back to sequential — and the diagnostic must
    // name the variable so the fix is obvious.
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_pins"),
        env!("CARGO_BIN_EXE_fence_census"),
        env!("CARGO_BIN_EXE_warm"),
        env!("CARGO_BIN_EXE_dsd_stats"),
        env!("CARGO_BIN_EXE_stpprof"),
    ] {
        for value in ["abc", "-2", "1.5"] {
            assert_env_jobs_error(bin, value);
        }
    }
}

#[test]
fn warm_rejects_malformed_flag_values() {
    let bin = env!("CARGO_BIN_EXE_warm");
    for args in [
        // Value-shape errors. --store is present so the only defect is
        // the flag under test.
        &["--store", "s.txt", "--timeout", "abc"][..],
        &["--store", "s.txt", "--timeout", "0"],
        &["--store", "s.txt", "--timeout", "-3"],
        &["--store", "s.txt", "--timeout", "inf"],
        &["--store", "s.txt", "--timeout", "nan"],
        &["--store", "s.txt", "--retries", "lots"],
        &["--store", "s.txt", "--retries", "0"],
        &["--store", "s.txt", "--shards", "0"],
        &["--store", "s.txt", "--sample5", "0", "--sample6", "0"],
        // Missing values and missing required flags.
        &["--store", "s.txt", "--timeout"],
        &["--store", "s.txt", "--retries"],
        &["--store"],
        &["--timeout", "5"],
        &["--store", "s.txt", "--child-shard", "0"],
        // Unknown options.
        &["--store", "s.txt", "--frobnicate"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn fence_census_accepts_well_formed_stp_jobs() {
    // Unset, empty, and numeric values are all fine; `0` means one
    // worker per CPU.
    for value in ["", "1", "4", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fence_census"))
            .env("STP_JOBS", value)
            .args(["--max-k", "2"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "STP_JOBS={value}: {:?}", out.status);
    }
}

#[test]
fn fence_census_small_run_still_succeeds() {
    // The strictness must not break the plain happy path.
    let out = Command::new(env!("CARGO_BIN_EXE_fence_census"))
        .args(["--max-k", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("F_3"), "stdout: {stdout}");
}
