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

use std::sync::Arc;

use stp_repro::network::{check_rewrite, rewrite, Network, RewriteConfig, SynthesisCache};
use stp_repro::synth::cli::{self, Obs, StoreArgs};
use stp_telemetry::Json;

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

const USAGE: &str = "stprewrite <input.blif> [-o <output.blif>] [--passes <n>] [--jobs <n>] \
     [--store <path>] [--warm-npn4] [--log <level>] [--stats] [--trace-json <path>] \
     [--profile] [--profile-folded <path>]";

fn main() {
    // STP_JOBS feeds `RewriteConfig::default()`; `start` has checked it.
    let (_, mut args) = cli::start();
    let mut obs = Obs::new("stprewrite", &args);
    let Some(input) = args.next() else { cli::usage(USAGE) };
    let mut output: Option<String> = None;
    let mut config = RewriteConfig::default();
    let mut store_args = StoreArgs::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-o" => output = Some(args.path(&a)),
            "--warm-npn4" => store_args.warm = true,
            "--store" => store_args.path = Some(args.path(&a)),
            "--passes" => config.max_passes = args.value(&a, "a pass count"),
            "--jobs" => config.jobs = args.value(&a, "a thread count (0 = one per CPU)"),
            flag @ ("--log" | "--stats" | "--trace-json" | "--profile" | "--profile-folded") => {
                obs.take(flag, &mut args)
            }
            other => cli::unknown_option(other),
        }
    }
    let text = std::fs::read_to_string(&input)
        .unwrap_or_else(|e| cli::abort(format!("cannot read {input}: {e}")));
    let net = Network::from_blif(&text).unwrap_or_else(|e| {
        obs.fail_run(format!("error parsing {input}: {e}"), &format!("parse error: {e}"))
    });
    // The NPN solution store: opened with its crash journal when
    // --store names a path, optionally pre-warmed, persisted back after
    // the run. Without the flags the cache still routes through a
    // private in-memory store.
    let store = Arc::new(store_args.open(&obs, config.jobs, config.synthesis_budget));
    let cache = SynthesisCache::with_store(Arc::clone(&store));
    let result = rewrite(&net, &config, &cache)
        .unwrap_or_else(|e| obs.fail_run(format!("rewriting failed: {e}"), &format!("error: {e}")));
    // Every output is checked against the input before it is written:
    // by simulation up to the truth-table limit, by a SAT miter past it.
    match check_rewrite(&net, &result.network, None) {
        Ok((true, how)) => eprintln!("equivalence: verified {how}"),
        failed => {
            let why = failed.err().map(|e| format!(" ({e})")).unwrap_or_default();
            obs.fail_run(
                format!("equivalence check FAILED{why} — refusing to write output"),
                "equivalence check failed",
            )
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
    store_args.save(&obs, &store);
    let blif = result.network.to_blif("rewritten");
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, blif) {
                cli::abort(format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
        None => print!("{blif}"),
    }
    obs.finish(
        "ok",
        vec![
            ("gates_before", Json::UInt(result.gates_before as u64)),
            ("gates_after", Json::UInt(result.gates_after as u64)),
            ("replacements", Json::UInt(result.replacements.len() as u64)),
            ("passes", Json::UInt(result.passes as u64)),
        ],
    );
}
