//! End-to-end tests of the command-line binaries.

use std::process::Command;

#[test]
fn stpsynth_reproduces_example7() {
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--all"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimum: 3 gates"), "stdout: {text}");
    assert!(text.contains("solution 1:"));
    // Both paper solutions appear among the printed chains.
    assert!(text.contains("0xe(") || text.contains("0x7("));
}

#[test]
fn stpsynth_baseline_engines() {
    for engine in ["bms", "fen", "abc", "stp-npn"] {
        let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
            .args(["e8", "3", "--engine", engine, "--timeout", "60"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "engine {engine}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("optimum: 4 gates"), "engine {engine}: {text}");
    }
}

#[test]
fn stpsynth_emits_verilog() {
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8", "2", "--verilog"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module sol1"));
    assert!(text.contains("endmodule"));
}

#[test]
fn stpsynth_rejects_malformed_flag_values_with_exit_2() {
    // A malformed or missing flag value must be a loud usage error
    // (exit 2), never a silent fall-back to the default.
    for args in [
        &["8ff8", "4", "--timeout", "abc"][..],
        &["8ff8", "4", "--jobs", "x"],
        &["8ff8", "4", "--jobs", "-1"],
        &["8ff8", "4", "--timeout"],
        &["8ff8", "4", "--engine"],
        &["8ff8", "4", "--log", "loudest"],
        &["8ff8", "4", "--store"],
        &["8ff8", "4", "--trace-json"],
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_stpsynth")).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "args {args:?}: stderr {stderr}");
        assert!(stderr.contains("expects"), "args {args:?}: stderr {stderr}");
    }
    // An unknown option is a usage error too.
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "--frobnicate: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:") && stderr.contains("--frobnicate"), "stderr {stderr}");
}

#[test]
fn stpsynth_rejects_unrepresentable_timeouts_with_exit_2() {
    // A timeout no `Duration` can hold is a usage error, not a panic.
    for value in ["-1", "nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
            .args(["8ff8", "4", "--timeout", value])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--timeout {value}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--timeout expects"), "--timeout {value}: stderr {stderr}");
    }
}

#[test]
fn stprewrite_rejects_malformed_flag_values_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("stprewrite_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join("in.blif");
    std::fs::write(&input, ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n")
        .expect("write input");
    let input = input.to_str().expect("utf8 path");
    for args in [
        &[input, "--passes", "many"][..],
        &[input, "--jobs", "x"],
        &[input, "--passes"],
        &[input, "--jobs"],
        &[input, "--log", "loudest"],
        &[input, "--store"],
        &[input, "--trace-json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stprewrite"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("expects"), "args {args:?}: stderr {stderr}");
    }
    // An unknown option is a usage error too.
    let out = Command::new(env!("CARGO_BIN_EXE_stprewrite"))
        .args([input, "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "--frobnicate: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:") && stderr.contains("--frobnicate"), "stderr {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stpsynth_and_stprewrite_reject_malformed_stp_jobs_at_startup() {
    // A malformed STP_JOBS is a usage error diagnosed before any other
    // argument handling (exit 2, naming the variable) — never a silent
    // fall-back to the sequential default.
    for bin in [env!("CARGO_BIN_EXE_stpsynth"), env!("CARGO_BIN_EXE_stprewrite")] {
        for value in ["abc", "-2", "1.5"] {
            let out = Command::new(bin).env("STP_JOBS", value).output().expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} STP_JOBS={value}: {:?}", out.status);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("error:"), "{bin} STP_JOBS={value}: stderr {stderr}");
            assert!(stderr.contains("STP_JOBS"), "{bin} STP_JOBS={value}: stderr {stderr}");
        }
    }
}

#[test]
fn stpsynth_accepts_well_formed_stp_jobs() {
    // Unset, empty, and numeric values are fine; `0` means one worker
    // per CPU.
    for value in ["", "1", "2", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
            .env("STP_JOBS", value)
            .args(["8ff8", "4"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "STP_JOBS={value}: {:?}", out.status);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("optimum: 3 gates"), "STP_JOBS={value}: {text}");
    }
}

#[test]
fn stpsynth_synthesizes_multiple_outputs_as_a_shared_chain() {
    // Full adder: sum (parity, "96") and carry (majority, "e8") share
    // a 5-gate chain, one gate under the 2+4 per-output sum. Arity is
    // inferred from the hex digit count (2 digits = 3 vars).
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["96", "e8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("optimum: 5 gates shared across 2 outputs (1 saved vs per-output sum)"),
        "stdout: {text}"
    );
    assert!(text.contains("f1 = ") && text.contains("f2 = "), "stdout: {text}");

    // --vars pins a common arity when the digit count alone is ambiguous.
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["6", "9", "--vars", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gates shared across 2 outputs"), "stdout: {text}");
}

#[test]
fn stpsynth_multi_output_answers_from_the_store() {
    let dir = std::env::temp_dir().join(format!("stpsynth_mo_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("store.txt");
    let store = store.to_str().expect("utf8 path");
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["96", "e8", "--store", store])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimum: 5 gates shared across 2 outputs"), "stdout: {text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("0 hits, 1 misses"));
    // An NPN-orbit member (outputs swapped, one negated) hits the same
    // cached class on the second run.
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["17", "96", "--store", store])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 hits, 0 misses"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stpsynth_objective_flag_selects_the_cost_model() {
    // depth: same optimum gate count on the paper's Example 7.
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--objective", "depth"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimum: 3 gates"), "stdout: {text}");

    // profile: taxing XOR/XNOR drives the search to a 3-gate XOR-free
    // realization of x1 ^ x2.
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["6", "--objective", "profile:6=5,9=5,default=1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimum: 3 gates"), "stdout: {text}");
    assert!(!text.contains("= 0x6(") && !text.contains("= 0x9("), "stdout: {text}");
}

#[test]
fn stpsynth_rejects_malformed_specs_and_objectives_with_exit_2() {
    // Malformed truth tables and objective specs are usage errors: exit
    // 2 with a diagnostic naming the offending argument.
    for (args, needle) in [
        (&["96", "e8", "--objective", "bogus"][..], "--objective"),
        (&["96", "e8", "--objective"], "--objective"),
        (&["965"], "truth table `965`"),
        (&["zz", "e8"], "truth table `zz`"),
        (&["96", "e8f3"], "arity"),
        (&["8ff8", "4", "--objective", "depth", "--store", "unused.txt"], "--objective depth"),
        (&["8ff8", "4", "--objective", "depth", "--engine", "bms"], "--objective depth"),
        (&["96", "e8", "--engine", "bms"], "single output"),
        (&["96", "e8", "--vars", "x"], "--vars"),
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_stpsynth")).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "args {args:?}: stderr {stderr}");
        assert!(stderr.contains(needle), "args {args:?}: stderr {stderr}");
    }
}

#[test]
fn stpsynth_rejects_bad_input() {
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["zzzz", "4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn stpsynth_stats_emits_parseable_run_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The RunReport is the final stdout line.
    let json_line = text.lines().last().expect("non-empty stdout");
    let report = stp_telemetry::RunReport::parse(json_line)
        .unwrap_or_else(|e| panic!("invalid RunReport ({e}): {json_line}"));
    assert_eq!(report.tool, "stpsynth");
    assert_eq!(report.outcome, "ok");
    assert!(report.wall_s > 0.0);
    // The documented counters for each pipeline stage must be present:
    // fence enumeration, STP factorization, and AllSAT verification.
    for key in [
        "fence.fences_generated",
        "fence.shapes_generated",
        "factor.subproblems",
        "solver.queries",
        "solver.candidates_verified",
        "synth.solutions",
    ] {
        assert!(
            report.counters.get(key).is_some_and(|v| *v > 0),
            "missing counter {key}: {json_line}"
        );
    }
    // Per-phase wall times for the paper's pipeline stages.
    for phase in ["phase.fence_enum", "phase.factorize", "phase.verify"] {
        assert!(
            report.phases.iter().any(|p| p.name == phase && p.calls > 0),
            "missing phase {phase}: {json_line}"
        );
    }
    // Tool-specific extras round-trip through the parser.
    let extras: std::collections::HashMap<_, _> =
        report.extra.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert_eq!(extras["gate_count"].as_u64(), Some(3));
    assert!(extras["num_solutions"].as_u64().unwrap_or(0) >= 2);
}

#[test]
fn stpsynth_stats_output_is_deterministically_ordered() {
    // The --stats report must list counters and phases in sorted name
    // order, so two runs of the same workload are diffable byte-for-byte
    // (modulo the timing values themselves).
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let json_line = text.lines().last().expect("non-empty stdout");
    let doc = stp_telemetry::Json::parse(json_line).expect("valid JSON");
    for section in ["counters", "phases"] {
        let names: Vec<String> = match doc.get(section) {
            Some(stp_telemetry::Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            Some(stp_telemetry::Json::Arr(items)) => items
                .iter()
                .map(|p| p.get("name").and_then(|n| n.as_str()).expect("phase name").to_string())
                .collect(),
            other => panic!("unexpected {section} shape: {other:?}"),
        };
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "{section} not emitted in sorted order: {json_line}");
        assert!(!names.is_empty(), "{section} empty: {json_line}");
    }
}

#[test]
fn stpsynth_profile_embeds_span_tree_and_writes_folded_stacks() {
    let dir = std::env::temp_dir().join(format!("stpsynth_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let folded_path = dir.join("profile.folded");
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--stats", "--profile"])
        .args(["--profile-folded", folded_path.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let json_line = text.lines().last().expect("non-empty stdout");
    let report = stp_telemetry::RunReport::parse(json_line)
        .unwrap_or_else(|e| panic!("invalid RunReport ({e}): {json_line}"));
    let tree = report.profile.expect("--profile must embed the span tree");
    assert_eq!(tree.label, "profile");
    assert!(tree.total_ns > 0);
    // The synthesis pipeline appears as nested spans, not a flat list.
    let round = tree.children.iter().find(|c| c.label.starts_with("synth.round"));
    let round = round.unwrap_or_else(|| panic!("no synth.round subtree: {json_line}"));
    assert!(round.children.iter().any(|c| c.label.starts_with("shape.")));
    // The folded export is written and run-rooted.
    let folded = std::fs::read_to_string(&folded_path).expect("folded file written");
    assert!(
        folded.lines().any(|l| l.starts_with("synth.round") && l.contains(';')),
        "folded: {folded}"
    );
    // The human-readable tree goes to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("span") && stderr.contains("total_s"), "stderr: {stderr}");

    // Without --profile the report must stay profile-free, so default
    // transcripts are byte-identical to pre-profiling builds.
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--stats"])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    let json_line = text.lines().last().expect("non-empty stdout");
    let report = stp_telemetry::RunReport::parse(json_line).expect("valid RunReport");
    assert!(report.profile.is_none(), "profile leaked into an unprofiled run: {json_line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stpsynth_trace_json_writes_span_events() {
    let dir = std::env::temp_dir().join(format!("stpsynth_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_stpsynth"))
        .args(["8ff8", "4", "--trace-json", trace_path.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let events: Vec<stp_telemetry::Json> = trace
        .lines()
        .map(|l| {
            stp_telemetry::Json::parse(l).unwrap_or_else(|e| panic!("bad trace line ({e:?}): {l}"))
        })
        .collect();
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name").and_then(|n| n.as_str()) == Some("phase.factorize")
        }),
        "no phase.factorize span event in: {trace}"
    );
    // The final event carries the counter totals.
    let last = events.last().expect("at least one event");
    assert_eq!(last.get("ph").and_then(|p| p.as_str()), Some("C"));
    assert!(last
        .get("args")
        .and_then(|a| a.get("synth.solutions"))
        .and_then(|v| v.as_u64())
        .is_some_and(|v| v > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stprewrite_stats_emits_parseable_run_report() {
    let dir = std::env::temp_dir().join(format!("stprewrite_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join("in.blif");
    std::fs::write(
        &input,
        ".model m\n.inputs a b c\n.outputs f\n.names a b t\n11 1\n.names t c f\n11 1\n.end\n",
    )
    .expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_stprewrite"))
        .args([input.to_str().expect("utf8 path"), "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let json_line = text.lines().last().expect("non-empty stdout");
    let report = stp_telemetry::RunReport::parse(json_line)
        .unwrap_or_else(|e| panic!("invalid RunReport ({e}): {json_line}"));
    assert_eq!(report.tool, "stprewrite");
    assert_eq!(report.outcome, "ok");
    assert!(report.counters.get("network.cuts_enumerated").is_some_and(|v| *v > 0));
    let extras: std::collections::HashMap<_, _> =
        report.extra.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert!(extras.contains_key("gates_before"));
    assert!(extras.contains_key("gates_after"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stprewrite_optimizes_blif() {
    // A wasteful XOR in BLIF.
    let dir = std::env::temp_dir().join(format!("stprewrite_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join("in.blif");
    let output = dir.join("out.blif");
    std::fs::write(
        &input,
        "\
.model waste
.inputs a b
.outputs f
.names a b t1
10 1
.names a b t2
01 1
.names t1 t2 f
1- 1
-1 1
.end
",
    )
    .expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_stprewrite"))
        .args([input.to_str().expect("utf8 path"), "-o", output.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("equivalence: verified"), "stderr: {stderr}");
    let written = std::fs::read_to_string(&output).expect("output exists");
    // The rewritten network is the single-gate XOR.
    let reparsed = stp_repro::network::Network::from_blif(&written).expect("valid blif");
    assert_eq!(reparsed.live_gate_count(), 1);
    assert_eq!(reparsed.simulate_outputs().expect("simulable")[0].to_hex(), "6");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stprewrite_checks_wide_networks_by_sat() {
    // A 19-input adder is past exhaustive simulation, so the rewritten
    // network must be proved equivalent by the SAT miter before it is
    // written.
    let dir = std::env::temp_dir().join(format!("stprewrite_sat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join("in.blif");
    let output = dir.join("out.blif");
    let net = stp_repro::network::ripple_carry_adder_sop(9).expect("adder");
    assert_eq!(net.num_inputs(), 19);
    std::fs::write(&input, net.to_blif("adder9")).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_stprewrite"))
        .args([input.to_str().expect("utf8 path"), "-o", output.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("equivalence: verified by SAT"), "stderr: {stderr}");
    let written = std::fs::read_to_string(&output).expect("output exists");
    let reparsed = stp_repro::network::Network::from_blif(&written).expect("valid blif");
    let verdict =
        stp_repro::network::equivalent_sat(&net, &reparsed, None).expect("same interface");
    assert_eq!(verdict, stp_repro::network::EquivResult::Equivalent);
    let _ = std::fs::remove_dir_all(&dir);
}
