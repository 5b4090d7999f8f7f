//! Regenerates Table I of the paper.
//!
//! Usage: `table1 [--full] [--timeout <seconds>] [--suite <name>]...
//!                [--jobs <n>] [--retries <n>] [--store <path>]
//!                [--warm-npn4] [--counters] [--log <level>]
//!                [--profile] [--profile-folded <path>]`
//!
//! The default (quick) profile uses reduced instance counts and a short
//! per-instance timeout so the whole table runs in minutes; `--full`
//! switches to the paper's counts (222/1000/100/1000/100) and a
//! 180-second timeout. `--jobs` sets the STP engine's worker-thread
//! count (`0` = one per CPU; default from `STP_JOBS`, else 1) — the
//! CNF baselines are single-threaded and ignore it. `--retries <n>`
//! offers each timed-out instance a doubling budget ladder of `n`
//! rungs (`t, 2t, 4t, …`); with a store attached the ladder composes
//! with the exhausted-budget cache so each rung re-searches at most
//! once. `--store <path>` opens the persistent NPN solution store
//! (snapshot plus crash journal) and saves it back after the run;
//! `--warm-npn4` pre-synthesizes every NPN class of arity ≤ 4 first,
//! so the STP column of the NPN4 suite answers entirely from the store
//! (the baselines never use it). `--counters` appends the aggregated
//! telemetry counters per (suite, algorithm) cell; `--log` sets the
//! stderr diagnostic level (also via `STP_LOG`). `--profile` prints
//! the aggregated span profile tree (one subtree per suite) to stderr
//! after the table; `--profile-folded <path>` also writes
//! flamegraph-compatible folded stacks.

use std::time::Duration;

use stp_bench::{
    render_counters, render_headlines, render_table, run_suite_with_retry, Algorithm, RetryPolicy,
    Scale,
};
use stp_synth::cli::{self, Obs, StoreArgs};

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn main() {
    let (mut jobs, mut args) = cli::start();
    let mut obs = Obs::new("table1", &args);
    let full = args.all().iter().any(|a| a == "--full");
    let mut timeout = Duration::from_secs(if full { 180 } else { 10 });
    let mut only_suites: Vec<String> = Vec::new();
    let mut counters = false;
    let mut retries = 1usize;
    let mut store_args = StoreArgs::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => {}
            "--timeout" => timeout = args.seconds(&a),
            "--jobs" => jobs = args.value(&a, "a thread count (0 = one per CPU)"),
            "--retries" => {
                retries = args.value(&a, "a positive attempt count");
                if retries == 0 {
                    cli::fail("--retries expects a positive attempt count, got `0`");
                }
            }
            "--suite" => only_suites.push(args.value::<String>(&a, "a suite name").to_uppercase()),
            "--store" => store_args.path = Some(args.path(&a)),
            "--warm-npn4" => store_args.warm = true,
            "--counters" => counters = true,
            flag @ ("--log" | "--profile" | "--profile-folded") => obs.take(flag, &mut args),
            other => cli::unknown_option(other),
        }
    }
    let scale = if full { Scale::Full } else { Scale::Quick };
    let policy = RetryPolicy::escalating(timeout, retries);
    // The optional shared NPN solution store for the STP column.
    let store = store_args.wanted().then(|| store_args.open(&obs, jobs, timeout));
    let suites = stp_bench::standard_suites(scale);
    let mut reports = Vec::new();
    for suite in &suites {
        if !only_suites.is_empty() && !only_suites.iter().any(|s| s == suite.name) {
            continue;
        }
        for algo in Algorithm::ALL {
            eprintln!(
                "running {} on {} ({} instances, timeout {:?}, {} attempt(s))…",
                algo.label(),
                suite.name,
                suite.functions.len(),
                timeout,
                policy.budgets.len()
            );
            reports.push(run_suite_with_retry(algo, suite, &policy, jobs, store.as_ref()));
        }
    }
    if let Some(store) = &store {
        store_args.save(&obs, store);
    }
    println!("{}", render_table(&reports));
    println!("{}", render_headlines(&reports));
    if counters {
        println!("telemetry counters (summed per cell):");
        println!("{}", render_counters(&reports));
    }
    obs.finish("ok", Vec::new());
}
