//! `stpprof` — profile analysis for STP synthesis runs.
//!
//! ```text
//! Usage: stpprof <run>                    render one run's profile tree
//!        stpprof <old> <new>              sorted profile diff (Δtotal)
//!        stpprof --folded <run>           re-emit flamegraph folded stacks
//!        stpprof --drift <baseline.json> <candidate.json>
//!                                         pinned counter drift verdict
//! ```
//!
//! `<run>` is either a file containing a `--stats` RunReport line
//! (produced under `--profile`, so the report embeds the profile tree)
//! or a `--trace-json` span trace, which is reconstructed into the same
//! aggregated tree. `--drift` compares the pinned counters of the
//! suite rows two `pins` documents share (both recorded at `jobs = 1`,
//! where the totals are exact and machine-independent) and exits 1
//! when they moved — the CLI form of the committed `BENCH_pins.json`
//! contract.
//!
//! Exit codes: 0 clean, 1 drift detected or file/parse failure, 2
//! usage error.

use std::process::ExitCode;

use stp_bench::profdiff;
use stp_synth::cli;
use stp_telemetry::Json;

const USAGE: &str = "stpprof <run> | stpprof <old> <new> | stpprof --folded <run> | \
     stpprof --drift <baseline.json> <candidate.json>";

fn drift(baseline_path: &str, candidate_path: &str) -> ExitCode {
    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| cli::abort(format!("cannot read {path}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| cli::abort(format!("{path}: {e}")))
    };
    let (baseline, candidate) = (load(baseline_path), load(candidate_path));
    let report = profdiff::bench_drift(&baseline, &candidate).unwrap_or_else(|e| cli::abort(e));
    print!("{}", report.render());
    if report.drifted() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // stpprof runs no synthesis; `start` still rejects a malformed
    // STP_JOBS, as every bin in the workspace does.
    let (_, args) = cli::start();
    let load = |run: &str| profdiff::load_profile(run).unwrap_or_else(|e| cli::abort(e));
    match args.all().iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["--drift", baseline, candidate] => return drift(baseline, candidate),
        ["--folded", run] => print!("{}", load(run).folded()),
        [run] if !run.starts_with("--") => print!("{}", load(run).render_text()),
        [old, new] if !old.starts_with("--") && !new.starts_with("--") => {
            print!("{}", profdiff::render_diff(&profdiff::diff(&load(old), &load(new))));
        }
        _ => cli::usage(USAGE),
    }
    ExitCode::SUCCESS
}
