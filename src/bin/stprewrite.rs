//! `stprewrite` — optimize a BLIF network with exact-synthesis
//! rewriting.
//!
//! ```text
//! Usage: stprewrite <input.blif> [-o <output.blif>] [--passes <n>]
//!                   [--jobs <n>] [--store <path>] [--warm-npn4]
//!                   [--log <level>] [--stats] [--trace-json <path>]
//!                   [--profile] [--profile-folded <path>]
//! ```
//!
//! Reads a 2-LUT BLIF network, rewrites it by replacing 4-cut cones
//! with STP-exact-synthesis optima (cached per NPN class), verifies
//! functional equivalence (by exhaustive simulation up to 16 inputs,
//! by a SAT miter beyond), and writes the optimized BLIF only when it
//! holds.
//!
//! `--store <path>` loads the persistent NPN solution store from
//! `<path>` (when it exists) and saves it back afterwards, so every
//! rewrite run shares one store; `--warm-npn4` pre-synthesizes all NPN
//! classes of arity ≤ 4 first — a warmed store answers every 4-cut
//! lookup with zero synthesis calls. `--stats` appends a JSON
//! [`RunReport`](stp_telemetry::RunReport) as the final stdout line;
//! `--trace-json` records span events; `--log` sets the stderr
//! diagnostic level (also via `STP_LOG`). `--profile` aggregates the
//! span profile tree over the run, prints it to stderr and embeds it
//! in the `--stats` report; `--profile-folded <path>` also writes
//! flamegraph-compatible folded stacks.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use stp_repro::network::{
    equivalent_exhaustive, equivalent_sat, rewrite, EquivResult, Network, RewriteConfig,
    SynthesisCache,
};
use stp_repro::store::Store;
use stp_repro::synth::{warm_npn4, SynthesisConfig};
use stp_repro::tt::MAX_VARS;
use stp_telemetry::{Json, RunReport};

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn usage() -> ExitCode {
    eprintln!(
        "usage: stprewrite <input.blif> [-o <output.blif>] [--passes <n>] [--jobs <n>] \
         [--store <path>] [--warm-npn4] [--log <level>] [--stats] [--trace-json <path>] \
         [--profile] [--profile-folded <path>]"
    );
    ExitCode::FAILURE
}

/// A malformed or missing flag value: report it and exit 2, so scripts
/// can tell usage errors from rewrite failures (exit 1).
fn flag_error(message: String) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}

/// Parses the value of a `--flag <value>` pair, failing loudly: a
/// missing or unparsable value is an error, never a silent fallback to
/// the default.
fn parse_flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<&String>,
    expects: &str,
) -> Result<T, ExitCode> {
    let Some(raw) = value else {
        return Err(flag_error(format!("{flag} expects {expects}")));
    };
    raw.parse().map_err(|_| flag_error(format!("{flag} expects {expects}, got `{raw}`")))
}

/// Emits the RunReport (when requested) and flushes the trace and
/// profile sinks; under `--profile` the aggregated span tree is
/// printed to stderr and embedded in the report.
fn finish(
    stats: bool,
    args: &[String],
    outcome: &str,
    start: Instant,
    extra: Vec<(String, Json)>,
    folded: Option<&str>,
) {
    let profile = stp_telemetry::profile::finish(folded.map(std::path::Path::new));
    if let Some(tree) = &profile {
        eprint!("{}", tree.render_text());
    }
    if stats {
        let snapshot = stp_telemetry::metrics_global().snapshot();
        let mut report = RunReport::from_snapshot(
            "stprewrite",
            args,
            outcome,
            start.elapsed().as_secs_f64(),
            &snapshot,
        );
        for (key, value) in extra {
            report = report.with_extra(&key, value);
        }
        if let Some(tree) = profile {
            report = report.with_profile(tree);
        }
        println!("{}", report.to_json_string());
    }
    stp_telemetry::trace::finish();
}

fn main() -> ExitCode {
    stp_telemetry::init_from_env();
    // A malformed STP_JOBS is a usage error, diagnosed before any other
    // argument handling — not a silent fall-back to sequential (the
    // value feeds `RewriteConfig::default()`).
    if let Err(message) = stp_repro::synth::jobs_from_env_checked() {
        return flag_error(message);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let input = &args[0];
    let mut output: Option<String> = None;
    let mut config = RewriteConfig::default();
    let mut stats = false;
    let mut store_path: Option<String> = None;
    let mut warm = false;
    let mut folded: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = it.next().cloned(),
            "--warm-npn4" => warm = true,
            "--profile" => stp_telemetry::profile::set_enabled(true),
            "--profile-folded" => {
                let Some(path) = it.next() else {
                    return flag_error("--profile-folded expects a path".to_string());
                };
                folded = Some(path.clone());
                stp_telemetry::profile::set_enabled(true);
            }
            "--store" => {
                let Some(path) = it.next() else {
                    eprintln!("--store expects a path");
                    return usage();
                };
                store_path = Some(path.clone());
            }
            "--passes" => {
                config.max_passes = match parse_flag_value(a, it.next(), "a pass count") {
                    Ok(v) => v,
                    Err(code) => return code,
                };
            }
            "--jobs" => {
                config.jobs =
                    match parse_flag_value(a, it.next(), "a thread count (0 = one per CPU)") {
                        Ok(v) => v,
                        Err(code) => return code,
                    };
            }
            "--stats" => stats = true,
            "--log" => {
                let Some(level) = it.next().and_then(|v| stp_telemetry::Level::parse(v)) else {
                    eprintln!("--log expects off|error|warn|info|debug|trace");
                    return usage();
                };
                stp_telemetry::set_level(level);
            }
            "--trace-json" => {
                let Some(path) = it.next() else {
                    eprintln!("--trace-json expects a path");
                    return usage();
                };
                if let Err(e) = stp_telemetry::trace::install_writer(path.as_ref()) {
                    eprintln!("error opening trace file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }
    let start = Instant::now();
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let net = match Network::from_blif(&text) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error parsing {input}: {e}");
            finish(
                stats,
                &args,
                &format!("parse error: {e}"),
                start,
                Vec::new(),
                folded.as_deref(),
            );
            return ExitCode::FAILURE;
        }
    };
    // The NPN solution store: opened with its crash journal when
    // --store names a path (snapshot loaded and journal replayed when
    // present), optionally pre-warmed, persisted back after the run.
    // Without the flags the cache still routes through a private
    // in-memory store.
    let store = match &store_path {
        Some(p) => match Store::open(p) {
            Ok(store) => {
                if !store.is_empty() {
                    eprintln!("store: loaded {} classes from {p}", store.len());
                }
                Arc::new(store)
            }
            Err(e) => {
                eprintln!("error loading store: {e}");
                finish(
                    stats,
                    &args,
                    &format!("store error: {e}"),
                    start,
                    Vec::new(),
                    folded.as_deref(),
                );
                return ExitCode::FAILURE;
            }
        },
        None => Arc::new(Store::new()),
    };
    if warm {
        let synth_config = SynthesisConfig { jobs: config.jobs, ..SynthesisConfig::default() };
        match warm_npn4(&store, &synth_config, Some(config.synthesis_budget)) {
            Ok(r) => eprintln!(
                "store: warmed {} classes ({} solved, {} cached, {} exhausted)",
                r.classes, r.solved, r.cached, r.exhausted
            ),
            Err(e) => {
                eprintln!("error warming store: {e}");
                finish(
                    stats,
                    &args,
                    &format!("store error: {e}"),
                    start,
                    Vec::new(),
                    folded.as_deref(),
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let cache = SynthesisCache::with_store(Arc::clone(&store));
    let result = match rewrite(&net, &config, &cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rewriting failed: {e}");
            finish(stats, &args, &format!("error: {e}"), start, Vec::new(), folded.as_deref());
            return ExitCode::FAILURE;
        }
    };
    // Every output is checked against the input before it is written:
    // by simulation up to the truth-table limit, by a SAT miter past it.
    let check = if net.num_inputs() <= MAX_VARS {
        equivalent_exhaustive(&net, &result.network).map(|same| (same, "exhaustively"))
    } else {
        equivalent_sat(&net, &result.network, None)
            .map(|verdict| (verdict == EquivResult::Equivalent, "by SAT"))
    };
    match check {
        Ok((true, how)) => eprintln!("equivalence: verified {how}"),
        failed => {
            let why = failed.err().map(|e| format!(" ({e})")).unwrap_or_default();
            eprintln!("equivalence check FAILED{why} — refusing to write output");
            finish(stats, &args, "equivalence check failed", start, Vec::new(), folded.as_deref());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "gates: {} -> {} ({} replacements, {} passes; {} classes synthesized, {} cache hits)",
        result.gates_before,
        result.gates_after,
        result.replacements.len(),
        result.passes,
        cache.misses(),
        cache.hits()
    );
    if let Some(p) = &store_path {
        match store.save(p) {
            Ok(()) => eprintln!("store: saved {} classes to {p}", store.len()),
            Err(e) => {
                eprintln!("error saving store {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let blif = result.network.to_blif("rewritten");
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, blif) {
                eprintln!("error writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{blif}"),
    }
    finish(
        stats,
        &args,
        "ok",
        start,
        vec![
            ("gates_before".to_string(), Json::UInt(result.gates_before as u64)),
            ("gates_after".to_string(), Json::UInt(result.gates_after as u64)),
            ("replacements".to_string(), Json::UInt(result.replacements.len() as u64)),
            ("passes".to_string(), Json::UInt(result.passes as u64)),
        ],
        folded.as_deref(),
    );
    ExitCode::SUCCESS
}
