//! CI drift gate for the committed `BENCH_pins.json`.
//!
//! Re-runs every row of the pin table (`stp_bench::pins`) at each jobs
//! count it is checked at and compares the result with the committed
//! document field for field: suite solve counts and pinned counter
//! totals, every multi-output case field, and the joint-rewrite case.
//! The document records each row once, at `jobs = 1`, so a match at
//! every checked count also pins the row's jobs-invariance.
//!
//! Counter attribution uses per-instance `CounterScope`s, so the two
//! tests may run side by side in one process.

use stp_bench::pins::{
    measure_mo_case, measure_rewrite, measure_suite, MO_CASES, MO_JOBS, SCHEMA, SUITE_ROWS,
};
use stp_telemetry::Json;

const RERECORD: &str = "re-record with `cargo run --release -p stp-bench --bin pins -- \
                        --out BENCH_pins.json` only if the change in search or synthesis \
                        behaviour is intentional";

fn committed() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pins.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed pins {path}: {e}"));
    let doc = Json::parse(&text).expect("BENCH_pins.json must parse");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA), "unknown pins schema");
    assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(1), "pins are recorded at jobs=1");
    doc
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("pins lack '{key}'"))
}

#[test]
fn suite_rows_match_committed_pins() {
    let doc = committed();
    let pinned = entries(&doc, "suites");
    let names: Vec<&str> =
        pinned.iter().map(|r| r.get("suite").and_then(Json::as_str).unwrap_or("?")).collect();
    let table: Vec<&str> = SUITE_ROWS.iter().map(|r| r.name).collect();
    assert_eq!(names, table, "document rows differ from the pin table; {RERECORD}");
    for (row, pinned) in SUITE_ROWS.iter().zip(pinned) {
        for jobs in row.checked_at.jobs() {
            let got = measure_suite(row, jobs);
            let field = |key: &str| got.get(key).and_then(Json::as_u64);
            assert_eq!(field("errors"), Some(0), "{} jobs={jobs}: an instance errored", row.name);
            assert_eq!(field("solved"), field("instances"), "{} jobs={jobs}: unsolved", row.name);
            // Every pinned suite factors through decomposition charts: a
            // run that builds none fell back to something else entirely.
            let charts = got.get("counters").and_then(|c| c.get("factor.charts_built"));
            assert!(charts.and_then(Json::as_u64) > Some(0), "{} built no charts", row.name);
            assert_eq!(
                &got, pinned,
                "{} at jobs={jobs} drifted from the committed pins\n  got:    {got}\n  pinned: \
                 {pinned}\n{RERECORD}",
                row.name
            );
        }
    }
}

#[test]
fn mo_cases_and_rewrite_match_committed_pins() {
    let doc = committed();
    let pinned = entries(&doc, "mo_cases");
    assert_eq!(pinned.len(), MO_CASES.len(), "pinned case count drifted; {RERECORD}");
    let pinned_rewrite = doc.get("rewrite").expect("pins lack the rewrite case");
    for jobs in MO_JOBS {
        for (case, pinned) in MO_CASES.iter().zip(pinned) {
            let got = measure_mo_case(case, jobs);
            assert_eq!(
                &got, pinned,
                "case {} at jobs={jobs} drifted\n  got:    {got}\n  pinned: {pinned}\n{RERECORD}",
                case.name
            );
        }
        let got = measure_rewrite(jobs);
        assert_eq!(
            &got, pinned_rewrite,
            "rewrite case at jobs={jobs} drifted\n  got:    {got}\n  pinned: \
             {pinned_rewrite}\n{RERECORD}"
        );
        // The headline: joint rewriting of the 2-output cut cone spends
        // strictly fewer gates than the per-output result, through at
        // least one genuine multi-root replacement.
        let field = |key: &str| got.get(key).and_then(Json::as_u64).expect("rewrite field");
        assert!(field("gates_shared") < field("gates_single"), "jobs={jobs}: {got}");
        assert!(field("mo_replacements") >= 1, "jobs={jobs}: no joint replacement: {got}");
    }
}
