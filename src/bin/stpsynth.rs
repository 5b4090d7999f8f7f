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

use std::time::{Duration, Instant};

use stp_repro::baselines::{abc_synthesize, bms_synthesize, fen_synthesize, BaselineConfig};
use stp_repro::store::Store;
use stp_repro::synth::cli::{self, Obs, StoreArgs};
use stp_repro::synth::{
    objective_from_spec, synthesize_multi, synthesize_multi_npn_with_store, synthesize_npn,
    synthesize_npn_with_store, synthesize_with_objective, MultiSpec, SynthesisConfig,
};
use stp_repro::tt::{infer_num_vars, TruthTable};
use stp_telemetry::Json;

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

const USAGE: &str = "stpsynth <hex-truth-table>... [--vars <n>] \
     [--objective gates|depth|profile:<weights>] [--all] \
     [--engine stp|stp-npn|bms|fen|abc] \
     [--timeout <secs>] [--jobs <n>] [--verilog] [--dot] [--store <path>] [--warm-npn4] \
     [--log <level>] [--stats] [--trace-json <path>] [--profile] [--profile-folded <path>]\n\
     (legacy form: stpsynth <hex-truth-table> <num-vars> [options])";

const ENGINES: &str = "stp|stp-npn|bms|fen|abc";

fn main() {
    let (mut jobs, mut args) = cli::start();
    let mut obs = Obs::new("stpsynth", &args);
    let mut store_args = StoreArgs::default();
    let mut engine = "stp".to_string();
    let mut all = false;
    let mut timeout = Duration::from_secs(60);
    let mut emit_verilog = false;
    let mut emit_dot = false;
    let mut positionals: Vec<String> = Vec::new();
    let mut vars: Option<usize> = None;
    let mut objective_spec = "gates".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => all = true,
            "--vars" => vars = Some(args.value(&a, "an input count")),
            "--objective" => objective_spec = args.value(&a, "gates|depth|profile:<weights>"),
            "--verilog" => emit_verilog = true,
            "--dot" => emit_dot = true,
            "--warm-npn4" => store_args.warm = true,
            "--store" => store_args.path = Some(args.path(&a)),
            "--engine" => {
                engine = args.value(&a, ENGINES);
                if !ENGINES.split('|').any(|known| known == engine) {
                    cli::fail(format!("--engine expects {ENGINES}, got `{engine}`"));
                }
            }
            "--timeout" => timeout = args.seconds(&a),
            "--jobs" => jobs = args.value(&a, "a thread count (0 = one per CPU)"),
            flag @ ("--log" | "--stats" | "--trace-json" | "--profile" | "--profile-folded") => {
                obs.take(flag, &mut args)
            }
            other if other.starts_with('-') && other.len() > 1 => cli::unknown_option(other),
            _ => positionals.push(a),
        }
    }
    if positionals.is_empty() {
        cli::usage(USAGE);
    }

    // The legacy form `stpsynth <hex> <num-vars>` is kept alive: exactly
    // two positionals whose second parses as an arity and no --vars.
    let legacy_vars = (positionals.len() == 2 && vars.is_none())
        .then(|| positionals[1].parse::<usize>().ok().filter(|n| *n <= 16))
        .flatten();
    let specs: Vec<TruthTable> = if let Some(num_vars) = legacy_vars {
        let hex = positionals[0].trim_start_matches("0x");
        vec![TruthTable::from_hex(num_vars, hex).unwrap_or_else(|e| cli::fail(e))]
    } else {
        positionals
            .iter()
            .map(|raw| {
                let hex = raw.trim_start_matches("0x");
                let num_vars = vars.or_else(|| infer_num_vars(hex)).unwrap_or_else(|| {
                    cli::fail(format!(
                        "truth table `{raw}` has {} hex digit(s); cannot infer its arity \
                         (pass --vars <n>)",
                        hex.len()
                    ))
                });
                TruthTable::from_hex(num_vars, hex)
                    .unwrap_or_else(|e| cli::fail(format!("truth table `{raw}`: {e}")))
            })
            .collect()
    };

    let objective = objective_from_spec(&objective_spec)
        .unwrap_or_else(|message| cli::fail(format!("--objective: {message}")));
    if objective_spec != "gates" {
        // The store and the baselines cache/report gate-count optima
        // only; other objectives run the direct STP engine.
        if engine != "stp" {
            cli::fail(format!("--objective {objective_spec} requires --engine stp (got {engine})"));
        }
        if store_args.wanted() {
            cli::fail(format!(
                "--objective {objective_spec} cannot use a store (it caches gate-count optima)"
            ));
        }
    }
    if specs.len() > 1 && matches!(engine.as_str(), "bms" | "fen" | "abc") {
        cli::fail(format!("--engine {engine} synthesizes a single output; pass one truth table"));
    }
    let start = Instant::now();
    let deadline = Some(start + timeout);

    // The NPN solution store: loaded from disk when --store names an
    // existing file, pre-warmed with every arity-<=4 class when
    // --warm-npn4 is set, and persisted back after the run.
    let store = store_args.wanted().then(|| {
        let store = store_args.open(&obs, jobs, timeout);
        if store_args.warm {
            // Persist immediately so the warm work survives a failed
            // instance below.
            store_args.save(&obs, &store);
        }
        store
    });

    let config = SynthesisConfig { deadline, jobs, ..SynthesisConfig::default() };
    let result = if specs.len() > 1 {
        let multi = MultiSpec::new(specs.clone())
            .unwrap_or_else(|e| cli::fail(format!("truth tables: {e}")));
        if store.is_some() || engine == "stp-npn" {
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
        }
        .map_err(|e| e.to_string())
    } else if matches!(engine.as_str(), "stp" | "stp-npn") {
        let spec = &specs[0];
        let result = match &store {
            Some(store) => synthesize_npn_with_store(spec, &config, store),
            None if engine == "stp" => synthesize_with_objective(spec, objective.as_ref(), &config),
            None => synthesize_npn(spec, &config),
        };
        result
            .map(|r| {
                println!(
                    "optimum: {} gates, {} solution(s), {:.3} s",
                    r.gate_count,
                    r.chains.len(),
                    start.elapsed().as_secs_f64()
                );
                (r.chains, r.gate_count)
            })
            .map_err(|e| e.to_string())
    } else {
        let spec = &specs[0];
        let config = BaselineConfig { deadline, ..BaselineConfig::default() };
        let result = match engine.as_str() {
            "bms" => bms_synthesize(spec, &config),
            "fen" => fen_synthesize(spec, &config),
            _ => abc_synthesize(spec, &config),
        };
        result
            .map(|r| {
                println!(
                    "optimum: {} gates (single solution), {:.3} s",
                    r.gate_count,
                    start.elapsed().as_secs_f64()
                );
                (vec![r.chain], r.gate_count)
            })
            .map_err(|e| e.to_string())
    };
    let (chains, gate_count) = result.unwrap_or_else(|e| {
        let failure = format!("error: {e}");
        obs.fail_run(&failure, &failure)
    });

    if let Some(store) = &store {
        store_args.save(&obs, store);
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
    obs.finish(
        "ok",
        vec![
            ("gate_count", Json::UInt(gate_count as u64)),
            ("num_solutions", Json::UInt(chains.len() as u64)),
            ("outputs", Json::UInt(specs.len() as u64)),
        ],
    );
}
