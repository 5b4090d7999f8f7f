//! `stpbench` — the repository benchmark.
//!
//! ```text
//! Usage:
//!   stpbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!       Runs one workload. The last stdout line is the result:
//!       {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
//!   stpbench --seed <n> [--seconds <s>] [--trace [0|1]]
//!       Runs every workload, each in its own child process, prints a
//!       metric table on stderr and one record line per workload on
//!       stdout (the input format of --compare).
//!   stpbench --compare <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]
//!       Compares two sets of records under the bounds of BENCHMARK.json.
//! ```
//!
//! `--trace 1` reports per-layer metrics instead of end-to-end ones.
//! Workloads: npn4_cold, fdsd8_cold, npn_cache, stpd_open. Exit codes: 0
//! when every answer was right, 1 on a wrong answer or a failed run, 2 on
//! a usage error.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use stp_telemetry::Json;
use stpbench::{compare, run, RunConfig, Sizes, Workload};

/// Measurement time per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Directory, relative to where the benchmark runs, for the stores of
/// each run; each run removes what it created.
const WORK: &str = ".stpbench_tmp";

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: stpbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]\n       \
         stpbench --seed <n> [--seconds <s>] [--trace [0|1]]\n       \
         stpbench --compare <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]"
    );
    ExitCode::from(2)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    compare: Option<(String, String)>,
    benchmark: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        raw.get(i + 1).cloned().ok_or_else(|| format!("{flag} expects a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                args.workload = Some(value(i, "--workload")?);
                i += 1;
            }
            "--seed" => {
                let v = value(i, "--seed")?;
                args.seed =
                    Some(v.parse().map_err(|_| format!("--seed expects an integer, got `{v}`"))?);
                i += 1;
            }
            "--seconds" => {
                let v = value(i, "--seconds")?;
                let s: f64 =
                    v.parse().map_err(|_| format!("--seconds expects a number, got `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds expects a positive number, got `{v}`"));
                }
                args.seconds = Some(s);
                i += 1;
            }
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--compare" => {
                args.compare = Some((value(i, "--compare")?, value(i + 1, "--compare")?));
                i += 2;
            }
            "--benchmark" => {
                args.benchmark = Some(value(i, "--benchmark")?);
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b, args.benchmark.as_deref().unwrap_or("BENCHMARK.json"));
    }
    let Some(seed) = args.seed else { return usage("--seed is required") };
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    match &args.workload {
        Some(name) => match Workload::from_name(name) {
            Some(workload) => run_one(workload, seed, seconds, args.trace),
            None => usage(&format!("unknown workload `{name}`")),
        },
        None => run_all(seed, seconds, args.trace),
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let config = RunConfig {
        seed,
        seconds,
        trace,
        sizes: Sizes::FULL,
        workdir: PathBuf::from(WORK).join(format!("{}-{}", workload.name(), std::process::id())),
        stpd: exe.with_file_name("stpd"),
    };
    let outcome = run(workload, &config);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(WORK);
    match outcome {
        Ok(result) => {
            for message in &result.tally.messages {
                eprintln!("stpbench: {}: {message}", workload.name());
            }
            println!("{}", result.to_json());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("stpbench: {}: {message}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process and prints the records.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(out) => {
                ok &= out.status.success();
                String::from_utf8_lossy(&out.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("stpbench: cannot run {}: {e}", workload.name());
                ok = false;
                continue;
            }
        };
        let Some(result) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
            eprintln!("stpbench: {} printed no result", workload.name());
            ok = false;
            continue;
        };
        print_table(workload, &result);
        let record = Json::obj(vec![
            ("workload", Json::Str(workload.name().to_string())),
            ("seed", Json::UInt(seed)),
            ("trace", Json::UInt(u64::from(trace))),
            ("result", result),
        ]);
        println!("{record}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The human-readable rows of one workload's result, on stderr.
fn print_table(workload: Workload, result: &Json) {
    let field = |k: &str| result.get(k).map(ToString::to_string).unwrap_or_default();
    eprintln!(
        "{}: correct={} attempted={} failed={}",
        workload.name(),
        field("correct"),
        field("attempted"),
        field("failed")
    );
    for (name, entry) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
}

fn run_compare(a: &str, b: &str, benchmark: &str) -> ExitCode {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let outcome = (|| -> Result<String, String> {
        let bounds = compare::bounds(&read(benchmark)?)?;
        let first = compare::parse_runs(&read(a)?)?;
        let second = compare::parse_runs(&read(b)?)?;
        Ok(compare::render(&first, &second, &bounds))
    })();
    match outcome {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("stpbench: {message}");
            ExitCode::FAILURE
        }
    }
}
