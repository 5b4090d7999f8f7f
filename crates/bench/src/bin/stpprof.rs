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
use stp_telemetry::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: stpprof <run> | stpprof <old> <new> | stpprof --folded <run> | \
         stpprof --drift <baseline.json> <candidate.json>"
    );
    ExitCode::from(2)
}

fn fail(message: String) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

fn drift(baseline_path: &str, candidate_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    match profdiff::bench_drift(&baseline, &candidate) {
        Ok(report) => {
            print!("{}", report.render());
            if report.drifted() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(e),
    }
}

fn main() -> ExitCode {
    stp_telemetry::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["--drift", baseline, candidate] => drift(baseline, candidate),
        ["--folded", run] => match profdiff::load_profile(run) {
            Ok(tree) => {
                print!("{}", tree.folded());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        [run] if !run.starts_with("--") => match profdiff::load_profile(run) {
            Ok(tree) => {
                print!("{}", tree.render_text());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        [old, new] if !old.starts_with("--") && !new.starts_with("--") => {
            match (profdiff::load_profile(old), profdiff::load_profile(new)) {
                (Ok(a), Ok(b)) => {
                    print!("{}", profdiff::render_diff(&profdiff::diff(&a, &b)));
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => fail(e),
            }
        }
        _ => usage(),
    }
}
