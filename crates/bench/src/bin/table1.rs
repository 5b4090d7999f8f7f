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

use stp_bench::flags::{flag_error, parse_flag_value};
use stp_bench::{
    render_counters, render_headlines, render_table, run_suite_with_retry, Algorithm, RetryPolicy,
    Scale,
};
use stp_store::Store;
use stp_synth::{warm_npn4, SynthesisConfig};

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn main() {
    stp_telemetry::init_from_env();
    // A malformed STP_JOBS is a usage error, diagnosed up front — not a
    // silent fall-back to sequential.
    let env_jobs = stp_synth::jobs_from_env_checked().unwrap_or_else(|e| flag_error(e));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut timeout = if full { 180.0f64 } else { 10.0 };
    let mut only_suites: Vec<String> = Vec::new();
    let mut counters = false;
    let mut jobs = env_jobs;
    let mut retries = 1usize;
    let mut store_path: Option<String> = None;
    let mut warm = false;
    let mut folded: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => {}
            "--profile" => stp_telemetry::profile::set_enabled(true),
            "--profile-folded" => {
                let Some(path) = it.next() else {
                    flag_error("--profile-folded expects a path".to_string());
                };
                folded = Some(path.clone());
                stp_telemetry::profile::set_enabled(true);
            }
            "--timeout" => {
                timeout = parse_flag_value(a, it.next(), "a number of seconds");
            }
            "--jobs" => {
                jobs = parse_flag_value(a, it.next(), "a thread count (0 = one per CPU)");
            }
            "--retries" => {
                retries = parse_flag_value(a, it.next(), "a positive attempt count");
                if retries == 0 {
                    flag_error("--retries expects a positive attempt count, got `0`".to_string());
                }
            }
            "--suite" => {
                let Some(v) = it.next() else {
                    flag_error("--suite expects a suite name".to_string());
                };
                only_suites.push(v.to_uppercase());
            }
            "--store" => {
                let Some(v) = it.next() else {
                    flag_error("--store expects a path".to_string());
                };
                store_path = Some(v.clone());
            }
            "--warm-npn4" => warm = true,
            "--counters" => counters = true,
            "--log" => {
                let Some(level) = it.next().and_then(|v| stp_telemetry::Level::parse(v)) else {
                    flag_error("--log expects off|error|warn|info|debug|trace".to_string());
                };
                stp_telemetry::set_level(level);
            }
            other => {
                flag_error(format!("unknown option `{other}`"));
            }
        }
    }
    let scale = if full { Scale::Full } else { Scale::Quick };
    let timeout = Duration::from_secs_f64(timeout);
    let policy = RetryPolicy::escalating(timeout, retries);
    // The optional shared NPN solution store for the STP column.
    let store = if store_path.is_some() || warm {
        let store = match &store_path {
            Some(p) => match Store::open(p) {
                Ok(s) => {
                    if !s.is_empty() {
                        eprintln!("store: loaded {} classes from {p}", s.len());
                    }
                    s
                }
                Err(e) => {
                    eprintln!("error loading store: {e}");
                    std::process::exit(1);
                }
            },
            None => Store::new(),
        };
        if warm {
            let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
            match warm_npn4(&store, &config, Some(timeout)) {
                Ok(r) => eprintln!(
                    "store: warmed {} classes ({} solved, {} cached, {} exhausted)",
                    r.classes, r.solved, r.cached, r.exhausted
                ),
                Err(e) => {
                    eprintln!("error warming store: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some(store)
    } else {
        None
    };
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
    if let (Some(store), Some(p)) = (&store, &store_path) {
        match store.save(p) {
            Ok(()) => eprintln!("store: saved {} classes to {p}", store.len()),
            Err(e) => {
                eprintln!("error saving store: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", render_table(&reports));
    println!("{}", render_headlines(&reports));
    if counters {
        println!("telemetry counters (summed per cell):");
        println!("{}", render_counters(&reports));
    }
    if let Some(tree) = stp_telemetry::profile::finish(folded.as_deref().map(std::path::Path::new))
    {
        eprint!("{}", tree.render_text());
    }
}
