//! Pinned-baseline writer: emits `BENCH_pins.json`.
//!
//! Usage: `pins [--out <path>] [--slice] [--profile] [--profile-folded <path>]`
//!
//! Runs every row of the pin table ([`stp_bench::pins`]) at
//! `jobs = 1` — the suite rows cold (store-free, one synthesis per
//! instance), then the multi-output cases and the joint-rewrite case —
//! and writes the exact counters and answers, with no wall-clock
//! field, so two runs write byte-identical documents. The `pins`
//! integration test re-runs the rows against the committed document;
//! `stpprof --drift` compares the suite rows of two documents.
//!
//! `--slice` runs only the NPN4 slice row — the fast way to produce a
//! drift-check candidate. `--profile` aggregates the span profile tree
//! over the run and embeds it in the document (each suite is a
//! subtree, named by the suite); `--profile-folded <path>` also writes
//! flamegraph-compatible folded stacks.

use stp_bench::pins::{
    measure_mo_case, measure_rewrite, measure_suite, MO_CASES, SCHEMA, SUITE_ROWS,
};
use stp_synth::cli::{self, Obs};
use stp_telemetry::Json;

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn main() {
    // Every row is recorded at jobs = 1; `start` still rejects a
    // malformed STP_JOBS.
    let (_, mut args) = cli::start();
    let mut obs = Obs::new("pins", &args);
    let mut out: Option<String> = None;
    let mut slice_only = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.path(&a)),
            "--slice" => slice_only = true,
            flag @ ("--profile" | "--profile-folded") => obs.take(flag, &mut args),
            other => cli::unknown_option(other),
        }
    }
    // The NPN4 slice is the table's first row.
    let rows = SUITE_ROWS.iter().take(if slice_only { 1 } else { SUITE_ROWS.len() });
    let mut suites = Vec::new();
    for row in rows {
        eprintln!("pins: running {}…", row.name);
        suites.push(measure_suite(row, 1));
    }
    let mut fields = vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("jobs", Json::UInt(1)),
        ("suites", Json::Arr(suites)),
    ];
    if !slice_only {
        eprintln!("pins: running the multi-output cases and the rewrite case…");
        fields.push((
            "mo_cases",
            Json::Arr(MO_CASES.iter().map(|c| measure_mo_case(c, 1)).collect()),
        ));
        fields.push(("rewrite", measure_rewrite(1)));
    }
    if let Some(tree) = obs.take_profile() {
        fields.push(("profile", tree.to_json()));
    }
    let text = format!("{}\n", Json::obj(fields));
    match out {
        Some(path) => {
            std::fs::write(&path, &text)
                .unwrap_or_else(|e| cli::abort(format!("cannot write {path}: {e}")));
            eprintln!("pins: wrote {path}");
        }
        None => print!("{text}"),
    }
}
