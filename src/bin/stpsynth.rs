//! `stpsynth` — command-line STP exact synthesis.
//!
//! ```text
//! Usage: stpsynth <hex-truth-table>... [options]
//!        stpsynth <hex-truth-table> <num-vars> [options]   (legacy)
//!
//! Passing several truth tables synthesizes them as one shared
//! multi-output chain. The arity of each table is inferred from its hex
//! digit count (1 digit = 2 vars, 2 = 3, 4 = 4, ...) unless --vars is
//! given. The legacy two-argument form (second argument an integer
//! <= 16, no --vars) still reads `<hex> <num-vars>`.
//!
//! Options:
//!   --all              print every optimum chain (default: first only)
//!   --vars <n>         common input arity of all truth tables
//!   --objective <o>    gates | depth | profile:<tt2hex>=<w>,...[,default=<w>]
//!                      (default gates; depth/profile require --engine
//!                      stp without a store)
//!   --engine <name>    stp | stp-npn | bms | fen | abc   (default stp)
//!   --timeout <secs>   per-instance timeout (default 60)
//!   --jobs <n>         STP worker threads; 0 = one per CPU (default
//!                      from STP_JOBS, else 1; baselines ignore it)
//!   --verilog          emit structural Verilog for the chosen chain
//!   --dot              emit Graphviz DOT for the chosen chain
//!   --store <path>     load the NPN solution store from <path> (when it
//!                      exists) and persist it back after the run; the
//!                      stp/stp-npn engines answer repeated NPN classes
//!                      from the store
//!   --warm-npn4        pre-synthesize every NPN class of arity <= 4
//!                      into the store before solving (implies a store;
//!                      combine with --store to persist the warmed set)
//!   --log <level>      off|error|warn|info|debug|trace (default info,
//!                      or the STP_LOG environment variable)
//!   --stats            append a JSON RunReport as the final stdout line
//!   --trace-json <p>   write Chrome-trace-style span events to <p>
//!   --profile          aggregate the span profile tree, print it to
//!                      stderr and embed it in the --stats RunReport
//!   --profile-folded <p>
//!                      also write flamegraph folded stacks to <p>
//! ```
//!
//! Example: `stpsynth 8ff8 4 --all` reproduces the paper's Example 7.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stp_repro::baselines::{abc_synthesize, bms_synthesize, fen_synthesize, BaselineConfig};
use stp_repro::store::Store;
use stp_repro::synth::{
    synthesize_multi, synthesize_multi_npn_with_store, synthesize_npn, synthesize_npn_with_store,
    synthesize_with_objective, warm_npn4, MultiSpec, SynthesisConfig,
};
use stp_repro::tt::TruthTable;
use stp_telemetry::{Json, RunReport};

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn usage() -> ExitCode {
    eprintln!(
        "usage: stpsynth <hex-truth-table>... [--vars <n>] \
         [--objective gates|depth|profile:<weights>] [--all] \
         [--engine stp|stp-npn|bms|fen|abc] \
         [--timeout <secs>] [--jobs <n>] [--verilog] [--dot] [--store <path>] [--warm-npn4] \
         [--log <level>] [--stats] [--trace-json <path>] [--profile] [--profile-folded <path>]\n\
         (legacy form: stpsynth <hex-truth-table> <num-vars> [options])"
    );
    ExitCode::FAILURE
}

/// Infers the input arity of a bare hex truth table: `d` hex digits
/// hold `4·d` bits, which must be a power of two.
fn infer_num_vars(raw: &str, hex: &str) -> Result<usize, ExitCode> {
    let bits = hex.len().saturating_mul(4);
    if hex.is_empty() || !bits.is_power_of_two() {
        return Err(flag_error(format!(
            "truth table `{raw}` has {} hex digit(s); cannot infer its arity (pass --vars <n>)",
            hex.len()
        )));
    }
    Ok(bits.trailing_zeros() as usize)
}

/// A malformed or missing flag value: report it and exit 2, so scripts
/// can tell usage errors from synthesis failures (exit 1).
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

/// Opens the store rooted at `path` — snapshot plus crash journal (see
/// `Store::open`) — or a plain in-memory store when no path was given.
/// Returns `None` (and prints the error) on a corrupt file.
fn open_store(path: Option<&str>) -> Option<Store> {
    match path {
        Some(p) => match Store::open(p) {
            Ok(store) => {
                if !store.is_empty() {
                    eprintln!("store: loaded {} classes from {p}", store.len());
                }
                Some(store)
            }
            Err(e) => {
                eprintln!("error loading store: {e}");
                None
            }
        },
        None => Some(Store::new()),
    }
}

/// Persists the store back to `path` when one was requested.
fn save_store(store: &Store, path: Option<&str>) -> bool {
    let Some(p) = path else { return true };
    match store.save(p) {
        Ok(()) => {
            eprintln!("store: saved {} classes to {p}", store.len());
            true
        }
        Err(e) => {
            eprintln!("error saving store {p}: {e}");
            false
        }
    }
}

/// Emits the RunReport (when requested) and flushes the trace and
/// profile sinks. Called on every exit path so `--stats` reports
/// failures too; under `--profile` the aggregated span tree is printed
/// to stderr and embedded in the report.
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
            "stpsynth",
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
    // argument handling — not a silent fall-back to sequential.
    let env_jobs = match stp_repro::synth::jobs_from_env_checked() {
        Ok(jobs) => jobs,
        Err(message) => return flag_error(message),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut engine = "stp".to_string();
    let mut all = false;
    let mut timeout = 60.0f64;
    let mut jobs = env_jobs;
    let mut emit_verilog = false;
    let mut emit_dot = false;
    let mut stats = false;
    let mut store_path: Option<String> = None;
    let mut warm = false;
    let mut folded: Option<String> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut vars: Option<usize> = None;
    let mut objective_spec = "gates".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--vars" => {
                vars = match parse_flag_value(a, it.next(), "an input count") {
                    Ok(v) => Some(v),
                    Err(code) => return code,
                };
            }
            "--objective" => {
                let Some(spec) = it.next() else {
                    return flag_error(
                        "--objective expects gates|depth|profile:<weights>".to_string(),
                    );
                };
                objective_spec = spec.clone();
            }
            "--verilog" => emit_verilog = true,
            "--dot" => emit_dot = true,
            "--stats" => stats = true,
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
            "--engine" => {
                let Some(name) = it.next() else {
                    return flag_error("--engine expects stp|stp-npn|bms|fen|abc".to_string());
                };
                engine = name.clone();
            }
            "--timeout" => {
                timeout = match parse_flag_value(a, it.next(), "a number of seconds") {
                    Ok(v) => v,
                    Err(code) => return code,
                };
            }
            "--jobs" => {
                jobs = match parse_flag_value(a, it.next(), "a thread count (0 = one per CPU)") {
                    Ok(v) => v,
                    Err(code) => return code,
                };
            }
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
            other if other.starts_with('-') && other.len() > 1 => {
                eprintln!("unknown option {other}");
                return usage();
            }
            _ => positionals.push(a.clone()),
        }
    }
    if positionals.is_empty() {
        return usage();
    }

    // The legacy form `stpsynth <hex> <num-vars>` is kept alive: exactly
    // two positionals whose second parses as an arity and no --vars.
    let legacy_vars = (positionals.len() == 2 && vars.is_none())
        .then(|| positionals[1].parse::<usize>().ok().filter(|n| *n <= 16))
        .flatten();
    let specs: Vec<TruthTable> = if let Some(num_vars) = legacy_vars {
        let hex = &positionals[0];
        match TruthTable::from_hex(num_vars, hex.trim_start_matches("0x")) {
            Ok(tt) => vec![tt],
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut specs = Vec::with_capacity(positionals.len());
        for raw in &positionals {
            let hex = raw.trim_start_matches("0x");
            let num_vars = match vars {
                Some(n) => n,
                None => match infer_num_vars(raw, hex) {
                    Ok(n) => n,
                    Err(code) => return code,
                },
            };
            match TruthTable::from_hex(num_vars, hex) {
                Ok(tt) => specs.push(tt),
                Err(e) => return flag_error(format!("truth table `{raw}`: {e}")),
            }
        }
        specs
    };

    let objective = match stp_repro::synth::objective_from_spec(&objective_spec) {
        Ok(objective) => objective,
        Err(message) => return flag_error(format!("--objective: {message}")),
    };
    if objective_spec != "gates" {
        // The store and the baselines cache/report gate-count optima
        // only; other objectives run the direct STP engine.
        if engine != "stp" {
            return flag_error(format!(
                "--objective {objective_spec} requires --engine stp (got {engine})"
            ));
        }
        if store_path.is_some() || warm {
            return flag_error(format!(
                "--objective {objective_spec} cannot use a store (it caches gate-count optima)"
            ));
        }
    }
    if specs.len() > 1 && matches!(engine.as_str(), "bms" | "fen" | "abc") {
        return flag_error(format!(
            "--engine {engine} synthesizes a single output; pass one truth table"
        ));
    }
    let start = Instant::now();
    let deadline = Some(start + Duration::from_secs_f64(timeout));

    // The NPN solution store: loaded from disk when --store names an
    // existing file, pre-warmed with every arity-<=4 class when
    // --warm-npn4 is set, and persisted back after the run.
    let store = if store_path.is_some() || warm {
        let Some(store) = open_store(store_path.as_deref()) else {
            return ExitCode::FAILURE;
        };
        if warm {
            let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
            match warm_npn4(&store, &config, Some(Duration::from_secs_f64(timeout))) {
                Ok(r) => eprintln!(
                    "store: warmed {} classes ({} solved, {} cached, {} exhausted)",
                    r.classes, r.solved, r.cached, r.exhausted
                ),
                Err(e) => {
                    eprintln!("error warming store: {e}");
                    return ExitCode::FAILURE;
                }
            }
            // Persist immediately so the warm work survives a failed
            // instance below.
            if !save_store(&store, store_path.as_deref()) {
                return ExitCode::FAILURE;
            }
        }
        Some(store)
    } else {
        None
    };

    let (chains, gate_count) = if specs.len() > 1 {
        if !matches!(engine.as_str(), "stp" | "stp-npn") {
            eprintln!("unknown engine {engine}");
            return usage();
        }
        let multi = match MultiSpec::new(specs.clone()) {
            Ok(multi) => multi,
            Err(e) => return flag_error(format!("truth tables: {e}")),
        };
        let config = SynthesisConfig { deadline, jobs, ..SynthesisConfig::default() };
        let result = if store.is_some() || engine == "stp-npn" {
            // Through the multi-output NPN class store (gate-count
            // objective — the one the store caches); stp-npn without
            // --store canonicalizes against a throwaway store.
            let fresh;
            let backing = match &store {
                Some(store) => store,
                None => {
                    fresh = Store::new();
                    &fresh
                }
            };
            synthesize_multi_npn_with_store(&multi, &config, backing).map(|chain| {
                let gates = chain.num_gates();
                println!(
                    "optimum: {} gates shared across {} outputs, {:.3} s",
                    gates,
                    specs.len(),
                    start.elapsed().as_secs_f64()
                );
                (vec![chain], gates)
            })
        } else {
            synthesize_multi(&multi, objective.as_ref(), &config).map(|r| {
                let gates = r.chain.num_gates();
                println!(
                    "optimum: {} gates shared across {} outputs ({} saved vs per-output sum), \
                     {:.3} s",
                    gates,
                    specs.len(),
                    r.gates_saved,
                    start.elapsed().as_secs_f64()
                );
                (vec![r.chain], gates)
            })
        };
        match result {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: {e}");
                finish(stats, &args, &format!("error: {e}"), start, Vec::new(), folded.as_deref());
                return ExitCode::FAILURE;
            }
        }
    } else {
        let spec = &specs[0];
        match engine.as_str() {
            "stp" | "stp-npn" => {
                let config = SynthesisConfig { deadline, jobs, ..SynthesisConfig::default() };
                let result = match &store {
                    Some(store) => synthesize_npn_with_store(spec, &config, store),
                    None if engine == "stp" => {
                        synthesize_with_objective(spec, objective.as_ref(), &config)
                    }
                    None => synthesize_npn(spec, &config),
                };
                match result {
                    Ok(r) => {
                        println!(
                            "optimum: {} gates, {} solution(s), {:.3} s",
                            r.gate_count,
                            r.chains.len(),
                            start.elapsed().as_secs_f64()
                        );
                        (r.chains, r.gate_count)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        finish(
                            stats,
                            &args,
                            &format!("error: {e}"),
                            start,
                            Vec::new(),
                            folded.as_deref(),
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "bms" | "fen" | "abc" => {
                let config = BaselineConfig { deadline, ..BaselineConfig::default() };
                let result = match engine.as_str() {
                    "bms" => bms_synthesize(spec, &config),
                    "fen" => fen_synthesize(spec, &config),
                    _ => abc_synthesize(spec, &config),
                };
                match result {
                    Ok(r) => {
                        println!(
                            "optimum: {} gates (single solution), {:.3} s",
                            r.gate_count,
                            start.elapsed().as_secs_f64()
                        );
                        let gates = r.gate_count;
                        (vec![r.chain], gates)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        finish(
                            stats,
                            &args,
                            &format!("error: {e}"),
                            start,
                            Vec::new(),
                            folded.as_deref(),
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown engine {other}");
                return usage();
            }
        }
    };

    if let Some(store) = &store {
        if !save_store(store, store_path.as_deref()) {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "store: {} hits, {} misses, {} trivial",
            store.hits(),
            store.misses(),
            store.trivial_hits()
        );
    }

    let shown: &[_] = if all { &chains } else { &chains[..1.min(chains.len())] };
    for (i, chain) in shown.iter().enumerate() {
        println!("\nsolution {}:", i + 1);
        print!("{chain}");
        if emit_verilog {
            println!("{}", chain.to_verilog(&format!("sol{}", i + 1)));
        }
        if emit_dot {
            println!("{}", chain.to_dot(&format!("sol{}", i + 1)));
        }
    }
    finish(
        stats,
        &args,
        "ok",
        start,
        vec![
            ("gate_count".to_string(), Json::UInt(gate_count as u64)),
            ("num_solutions".to_string(), Json::UInt(chains.len() as u64)),
            ("outputs".to_string(), Json::UInt(specs.len() as u64)),
        ],
        folded.as_deref(),
    );
    ExitCode::SUCCESS
}
