//! Every workload's library entry point at a tiny size: it emits every
//! metric `BENCHMARK.json` names with its unit, its traced and untraced
//! runs pass every answer check, and a tampered answer is counted as
//! failed.

use std::path::PathBuf;

use stp_telemetry::Json;
use stp_tt::TruthTable;
use stpbench::check::{check_chain, check_chains, check_counts, parse_chain, Expect, Recorded};
use stpbench::report::Tally;
use stpbench::{run, RunConfig, RunResult, Sizes, Workload};

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn listed(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(workload: Workload, trace: bool) -> RunResult {
    let config = RunConfig {
        seed: 7,
        seconds: 0.3,
        trace,
        sizes: Sizes::TINY,
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{trace}-{}",
            workload.name(),
            std::process::id()
        )),
        stpd: PathBuf::from(env!("CARGO_BIN_EXE_stpd")),
    };
    run(workload, &config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_emits_every_listed_metric_and_answers_correctly() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let result = run_tiny(workload, trace);
            let name = workload.name();
            assert!(result.correct(), "{name} trace={trace}: {:?}", result.tally.messages);
            assert_eq!(result.tally.failed, 0, "{name} trace={trace}: {:?}", result.tally.messages);
            assert!(result.tally.attempted > 0, "{name} trace={trace}: nothing attempted");
            let emitted: Vec<(String, String)> =
                result.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(&emitted, expected, "{name} trace={trace}");
            for m in &result.metrics {
                assert!(m.value.is_finite(), "{name} trace={trace}: {} = {}", m.name, m.value);
            }
            if !trace {
                for m in &result.metrics {
                    assert!(m.value > 0.0, "{name}: end-to-end {} must not be 0", m.name);
                }
            }
            let line = result.to_json();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn a_tampered_answer_is_counted_as_failed() {
    let spec = TruthTable::from_hex(4, "8ff8").expect("valid table");
    let config = stp_synth::SynthesisConfig { jobs: 1, ..Default::default() };
    let chains = stp_synth::synthesize(&spec, &config).expect("synthesizes").chains;
    let recorded = Expect::Recorded(Recorded { gates: 3, solutions: chains.len() });

    // The untampered answer passes every check the workloads apply.
    let mut tally = Tally::default();
    tally.check(check_chains(&spec, &chains, 3));
    tally.check(check_counts(&spec, recorded, 3, chains.len()));
    let text = chains[0].to_string();
    tally.check(parse_chain(4, &text).and_then(|c| check_chain(&spec, &c)));
    assert_eq!((tally.attempted, tally.failed), (3, 0), "{:?}", tally.messages);

    // A chain with one gate complemented no longer realizes the spec:
    // batch and cache answers (chains) and daemon answers (chain text).
    let flipped = {
        let (head, rest) = text.split_once("= 0x").expect("a gate line");
        let lut = u8::from_str_radix(&rest[..1], 16).expect("hex digit") ^ 0xf;
        format!("{head}= 0x{lut:x}{}", &rest[1..])
    };
    let tampered = parse_chain(4, &flipped).expect("still a well-formed chain");
    let mut tally = Tally::default();
    tally.check(check_chains(&spec, std::slice::from_ref(&tampered), 3));
    tally.check(check_chain(&spec, &tampered));
    // One gate more than the record, or another solution count.
    tally.check(check_counts(&spec, recorded, 4, chains.len()));
    tally.check(check_counts(&spec, recorded, 3, chains.len() + 1));
    assert_eq!((tally.attempted, tally.failed, tally.wrong), (4, 4, 4), "{:?}", tally.messages);

    let result = RunResult { tally, metrics: Vec::new() };
    assert!(!result.correct());
    let line = result.to_json();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(4));
}
