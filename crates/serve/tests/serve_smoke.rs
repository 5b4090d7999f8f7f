//! End-to-end protocol smoke tests for `stpd`: request/response round
//! trips, structured error handling, deadlines, graceful shutdown with
//! store persistence, and the seeded load mix whose counts are pinned
//! (`seeded_load_mix_pins_every_count`). No fault injection here — see
//! `serve_chaos.rs` for the kill-window suite.

mod common;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::{counter, generate_tables, shutdown_and_wait, spawn_stpd, status, Conn, Lcg, Scratch};
use stp_chain::{Chain, OutputRef};
use stp_store::Store;
use stp_synth::{synthesize_npn_with_store, SynthesisConfig};
use stp_telemetry::Json;
use stp_tt::TruthTable;

const WINDOW: Duration = Duration::from_secs(30);

#[test]
fn ping_synth_multi_and_stats_round_trip() {
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);

    let pong = conn.roundtrip("{\"op\":\"ping\",\"id\":\"p1\"}", WINDOW);
    assert_eq!(status(&pong), "ok");
    assert_eq!(pong.get("id").and_then(Json::as_str), Some("p1"));

    // The paper's Example 7: 8ff8 has a 3-gate optimum.
    let synth = conn.roundtrip("{\"op\":\"synth\",\"id\":\"s1\",\"tables\":[\"8ff8\"]}", WINDOW);
    assert_eq!(status(&synth), "ok", "{synth}");
    assert_eq!(synth.get("gates").and_then(Json::as_u64), Some(3));
    assert_eq!(synth.get("outputs").and_then(Json::as_u64), Some(1));
    assert!(synth.get("chain").and_then(Json::as_str).is_some_and(|c| c.contains("f1")));
    let report = synth.get("report").expect("per-request RunReport");
    assert_eq!(report.get("tool").and_then(Json::as_str), Some("stpd"));
    assert_eq!(report.get("outcome").and_then(Json::as_str), Some("ok"));

    // Multi-output: full adder sum+carry share one chain.
    let multi =
        conn.roundtrip("{\"op\":\"synth\",\"id\":\"m1\",\"tables\":[\"e8\",\"96\"]}", WINDOW);
    assert_eq!(status(&multi), "ok", "{multi}");
    assert_eq!(multi.get("outputs").and_then(Json::as_u64), Some(2));
    assert!(multi.get("gates").and_then(Json::as_u64).unwrap() <= 5);

    let stats = conn.roundtrip("{\"op\":\"stats\",\"id\":\"t1\"}", WINDOW);
    assert_eq!(status(&stats), "ok");
    assert_eq!(counter(&stats, "serve.accepted"), 2);
    assert_eq!(counter(&stats, "serve.rejected_overload"), 0);
    assert!(counter(&stats, "store.misses") >= 2);
    assert!(stats
        .get("prometheus")
        .and_then(Json::as_str)
        .is_some_and(|p| p.contains("stp_counter")));
}

#[test]
fn repeated_class_hits_the_store_not_the_engine() {
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);
    let first = conn.roundtrip("{\"op\":\"synth\",\"tables\":[\"8ff8\"]}", WINDOW);
    assert_eq!(status(&first), "ok");
    let second = conn.roundtrip("{\"op\":\"synth\",\"tables\":[\"8ff8\"]}", WINDOW);
    assert_eq!(status(&second), "ok");
    assert_eq!(
        second.get("gates").and_then(Json::as_u64),
        first.get("gates").and_then(Json::as_u64)
    );
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "store.misses"), 1, "second request must be a hit");
    assert!(counter(&stats, "store.hits") >= 1);
}

#[test]
fn malformed_frame_gets_structured_response_then_close() {
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);
    conn.send("this is not json");
    let resp = conn.recv(WINDOW).expect("malformed frames are answered, not dropped");
    let resp = Json::parse(&resp).unwrap();
    assert_eq!(status(&resp), "malformed");
    assert!(resp.get("message").and_then(Json::as_str).is_some());
    assert!(conn.closed(Duration::from_secs(5)), "garbage closes the connection");

    // The daemon itself survives and serves the next connection.
    let mut fresh = Conn::open(&daemon.addr);
    let pong = fresh.roundtrip("{\"op\":\"ping\"}", WINDOW);
    assert_eq!(status(&pong), "ok");
    let stats = fresh.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "serve.malformed"), 1);
}

#[test]
fn semantic_violations_answer_without_closing() {
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);
    for (frame, needle) in [
        ("{\"op\":\"fly\"}", "unknown op"),
        ("{\"op\":\"synth\",\"tables\":[]}", "empty"),
        ("{\"op\":\"synth\",\"tables\":[\"zz\"]}", "bad table"),
        ("{\"op\":\"synth\",\"tables\":[\"e8\",\"8ff8\"]}", "disagree"),
        ("{\"op\":\"synth\",\"tables\":[\"e8\"],\"timeout_ms\":0}", "timeout_ms"),
    ] {
        let mut probe = Conn::open(&daemon.addr);
        probe.send(frame);
        let resp = probe.recv(WINDOW).unwrap_or_else(|| panic!("no response to {frame}"));
        let resp = Json::parse(&resp).unwrap();
        assert_eq!(status(&resp), "malformed", "{frame} -> {resp}");
        let message = resp.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains(needle), "{frame}: {message:?} missing {needle:?}");
    }
    // A bad BLIF is semantic too — same connection must stay usable.
    let resp = conn.roundtrip("{\"op\":\"rewrite\",\"id\":\"r\",\"blif\":\"nonsense\"}", WINDOW);
    assert_eq!(status(&resp), "malformed", "{resp}");
    let pong = conn.roundtrip("{\"op\":\"ping\"}", WINDOW);
    assert_eq!(status(&pong), "ok", "semantic errors keep the connection open");
}

#[test]
fn oversized_frame_is_rejected_with_the_limit_named() {
    let daemon = spawn_stpd(&["--max-frame-bytes", "256"], None);
    let mut conn = Conn::open(&daemon.addr);
    conn.send_raw(&vec![b'x'; 4096]);
    let resp = conn.recv(WINDOW).expect("oversized frames are answered");
    let resp = Json::parse(&resp).unwrap();
    assert_eq!(status(&resp), "malformed");
    assert!(
        resp.get("message").and_then(Json::as_str).is_some_and(|m| m.contains("256")),
        "the limit is named: {resp}"
    );
    assert!(conn.closed(Duration::from_secs(5)));
}

#[test]
fn tight_deadline_yields_structured_timeout_not_a_dropped_connection() {
    let daemon = spawn_stpd(&["--max-gates", "12"], None);
    let mut conn = Conn::open(&daemon.addr);
    // A 6-var table with no small realization; 1ms cannot finish it.
    let resp = conn.roundtrip(
        "{\"op\":\"synth\",\"id\":\"d\",\"tables\":[\"9ae7c3f1085b264d\"],\"timeout_ms\":1}",
        WINDOW,
    );
    assert_eq!(status(&resp), "timeout", "{resp}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("d"));
    assert_eq!(resp.get("budget_ms").and_then(Json::as_u64), Some(1));
    // Connection survives; the daemon counted the timeout.
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "serve.timeouts"), 1);
}

#[test]
fn eight_input_synth_answers_within_its_deadline() {
    // The widest table a request may carry. NPN canonicalization runs
    // before the engine first polls the deadline, so it must stay well
    // inside a 1 s budget for the response to arrive on time.
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);
    let table = "9ae7c3f1085b264d6c1e0f39a4b7d2e85f0c3a91e7b4d268a1c9e3f70b5d2486";
    let start = Instant::now();
    conn.send(&format!(
        "{{\"op\":\"synth\",\"id\":\"w\",\"tables\":[\"{table}\"],\"timeout_ms\":1000}}"
    ));
    let resp = conn.recv(Duration::from_secs(3));
    let elapsed = start.elapsed();
    let resp = resp.unwrap_or_else(|| panic!("no response within 3 s of a 1 s deadline"));
    let resp = Json::parse(&resp).unwrap_or_else(|e| panic!("unparsable response {resp:?}: {e}"));
    assert!(matches!(status(&resp), "ok" | "timeout"), "{resp}");
    assert!(elapsed < Duration::from_secs(3), "answered after {elapsed:?}");
}

/// A `rewrite` frame for xor3 spelled wastefully: y^z twice (once as a
/// LUT, once as OR-of-ANDs, which structural hashing cannot merge),
/// then x^(y^z) expanded as (x|g4) & !(x&g1) — 7 gates, optimum 2.
const WASTEFUL_XOR3_REWRITE: &str = "{\"op\":\"rewrite\",\"id\":\"rw\",\"blif\":\"\
    .model waste\\n.inputs x y z\\n.outputs f\\n\
    .names y z g1\\n10 1\\n01 1\\n\
    .names y z g2\\n10 1\\n.names y z g3\\n01 1\\n\
    .names g2 g3 g4\\n1- 1\\n-1 1\\n\
    .names x g4 h1\\n1- 1\\n-1 1\\n.names x g1 h2\\n11 1\\n\
    .names h1 h2 f\\n10 1\\n.end\"}";

#[test]
fn rewrite_round_trip_shrinks_a_redundant_network() {
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip(WASTEFUL_XOR3_REWRITE, WINDOW);
    assert_eq!(status(&resp), "ok", "{resp}");
    let before = resp.get("gates_before").and_then(Json::as_u64).unwrap();
    let after = resp.get("gates_after").and_then(Json::as_u64).unwrap();
    assert!(after < before, "rewriting must shrink {before} -> {after}");
    assert!(resp.get("blif").and_then(Json::as_str).is_some_and(|b| b.contains(".model")));
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "serve.rewrite_rejects"), 0, "{stats}");
}

/// A wrong rewrite planted by the `serve.rewrite.wrong_answer`
/// failpoint is refused by the equivalence check and counted; the next
/// request, with the failpoint spent, is served.
#[cfg(feature = "faultsim")]
#[test]
fn a_wrong_rewrite_is_refused_and_counted() {
    let daemon = spawn_stpd(&[], Some("serve.rewrite.wrong_answer=1:err"));
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip(WASTEFUL_XOR3_REWRITE, WINDOW);
    assert_eq!(status(&resp), "error", "{resp}");
    assert!(resp.to_string().contains("not equivalent"), "{resp}");
    assert!(resp.get("blif").is_none(), "a refused network is never served: {resp}");
    let resp = conn.roundtrip(WASTEFUL_XOR3_REWRITE, WINDOW);
    assert_eq!(status(&resp), "ok", "{resp}");
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "serve.rewrite_rejects"), 1, "{stats}");
}

/// A `rewrite` frame for the 19-input SOP ripple-carry adder: past the
/// simulation limit, so the answer is checked by the SAT miter.
fn wide_adder_rewrite() -> String {
    let net = stp_network::ripple_carry_adder_sop(9).expect("adder");
    assert_eq!(net.num_inputs(), 19);
    let blif = Json::Str(net.to_blif("adder9"));
    format!("{{\"op\":\"rewrite\",\"id\":\"wide\",\"blif\":{blif},\"timeout_ms\":60000}}")
}

#[test]
fn wide_rewrite_is_checked_by_sat_and_served() {
    let daemon = spawn_stpd(&[], None);
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip(&wide_adder_rewrite(), Duration::from_secs(90));
    assert_eq!(status(&resp), "ok", "{resp}");
    assert!(resp.get("blif").and_then(Json::as_str).is_some_and(|b| b.contains(".model")));
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "serve.rewrite_rejects"), 0, "{stats}");
}

/// Past the simulation limit, a planted wrong rewrite is refused by the
/// SAT miter and counted, like a narrow one.
#[cfg(feature = "faultsim")]
#[test]
fn a_wrong_wide_rewrite_is_refused_and_counted() {
    let daemon = spawn_stpd(&[], Some("serve.rewrite.wrong_answer=1:err"));
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip(&wide_adder_rewrite(), Duration::from_secs(90));
    assert_eq!(status(&resp), "error", "{resp}");
    assert!(resp.to_string().contains("not equivalent"), "{resp}");
    assert!(resp.get("blif").is_none(), "a refused network is never served: {resp}");
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "serve.rewrite_rejects"), 1, "{stats}");
}

#[test]
fn graceful_shutdown_saves_the_store_and_restart_replays_zero_miss() {
    let scratch = Scratch::new("graceful");
    let store = scratch.store();
    let store_flag = store.to_str().unwrap().to_string();

    let daemon = spawn_stpd(&["--store", &store_flag], None);
    let addr = daemon.addr.clone();
    let mut conn = Conn::open(&addr);
    let resp = conn.roundtrip("{\"op\":\"synth\",\"tables\":[\"8ff8\"]}", WINDOW);
    assert_eq!(status(&resp), "ok");
    shutdown_and_wait(daemon);

    assert!(store.exists(), "graceful shutdown saves a snapshot");
    let journal = {
        let mut os = store.as_os_str().to_owned();
        os.push(".journal");
        std::path::PathBuf::from(os)
    };
    let journal_text = std::fs::read_to_string(&journal).unwrap_or_default();
    assert!(
        journal_text.lines().count() <= 1,
        "a graceful save clears the journal to its bare header, got {journal_text:?}"
    );

    // Restart on the same snapshot: the class is already there.
    let daemon = spawn_stpd(&["--store", &store_flag], None);
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip("{\"op\":\"synth\",\"tables\":[\"8ff8\"]}", WINDOW);
    assert_eq!(status(&resp), "ok");
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "store.misses"), 0, "warm restart answers from the store");
    assert!(counter(&stats, "store.hits") >= 1);
    shutdown_and_wait(daemon);
}

#[test]
fn work_after_shutdown_is_refused_with_shutting_down() {
    let daemon = spawn_stpd(&["--drain-timeout-ms", "2000"], None);
    let addr = daemon.addr.clone();
    let mut shut = Conn::open(&addr);
    let ack = shut.roundtrip("{\"op\":\"shutdown\"}", WINDOW);
    assert_eq!(status(&ack), "ok");
    // A pre-existing connection racing the drain either gets the
    // structured refusal or finds the socket already closed — both are
    // graceful; what must never happen is a hang or an unparsable
    // response.
    let mut conn = Conn::open(&addr);
    conn.send("{\"op\":\"synth\",\"tables\":[\"8ff8\"]}");
    if let Some(resp) = conn.recv(Duration::from_secs(5)) {
        let resp = Json::parse(&resp).unwrap();
        assert_eq!(status(&resp), "shutting_down", "{resp}");
    }
}

#[test]
fn stpd_cli_rejects_usage_errors_with_exit_2() {
    for args in [
        vec!["--capacity", "0"],
        vec!["--capacity", "lots"],
        vec!["--capacity"],
        vec!["--timeout-ms", "0"],
        vec!["--timeout-ms", "-5"],
        vec!["--drain-timeout-ms", "soon"],
        vec!["--max-frame-bytes", "0"],
        vec!["--max-gates", "0"],
        vec!["--jobs", "many"],
        vec!["--log", "loud"],
        vec!["--unknown-flag"],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_stpd"))
            .args(&args)
            .output()
            .expect("run stpd");
        assert_eq!(
            output.status.code(),
            Some(2),
            "stpd {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("error:"),
            "stpd {args:?} must explain itself"
        );
    }
}

/// Seed of the load mix: of its table pool and of each connection's
/// picks from it.
const LOAD_SEED: u64 = 42;
/// `synth` requests each load connection sends.
const LOAD_REQUESTS: u64 = 60;

/// One closed-loop connection of the load mix. Connection `c` draws its
/// tables from `pool` with `Lcg::new(LOAD_SEED ^ (c * 0xA5A5_A5A5))`.
/// Returns how many requests it sent and how each was answered (`ok`,
/// `timeout`, `overloaded`, `error`, or `lost` without an answer).
fn load_connection(addr: &str, c: u64, pool: &[String]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    let mut conn = Conn::open(addr);
    let mut lcg = Lcg::new(LOAD_SEED ^ (c * 0xA5A5_A5A5));
    for i in 0..LOAD_REQUESTS {
        let table = &pool[(lcg.next_u64() as usize) % pool.len()];
        conn.send(&format!(
            "{{\"op\":\"synth\",\"id\":\"c{c}-{i}\",\"tables\":[\"{table}\"],\"timeout_ms\":30000}}"
        ));
        *counts.entry("sent").or_default() += 1;
        let Some(line) = conn.recv(WINDOW) else {
            *counts.entry("lost").or_default() += 1;
            break;
        };
        let answer = match status(&Json::parse(&line).unwrap_or(Json::Null)) {
            "ok" => "ok",
            "timeout" => "timeout",
            "overloaded" => "overloaded",
            _ => "error",
        };
        *counts.entry(answer).or_default() += 1;
    }
    counts
}

/// Sends one junk frame on its own connection; `true` when the daemon
/// answers it with a structured `malformed` response.
fn probe_acked(addr: &str, payload: &[u8]) -> bool {
    let mut conn = Conn::open(addr);
    conn.send_raw(payload);
    conn.recv(Duration::from_secs(5))
        .and_then(|line| Json::parse(&line).ok())
        .is_some_and(|resp| status(&resp) == "malformed")
}

/// The seeded load mix. One capacity-32, jobs-1 daemon serves rows of
/// 1, 4 and 16 connections, each sending `LOAD_REQUESTS` synth requests
/// over the 24 arity-3 tables of `generate_tables(LOAD_SEED, 3, 24)`.
/// After each row come 6 malformed and 3 oversized probes, each on its
/// own connection. The connections are closed-loop and the daemon
/// answers each connection's frames in order, so at most 16 requests
/// are in flight and the admission gate never engages: every count
/// below is the same on any machine. Latencies and the coalesced split
/// depend on timing and are not checked.
#[test]
fn seeded_load_mix_pins_every_count() {
    let daemon =
        spawn_stpd(&["--capacity", "32", "--jobs", "1", "--max-frame-bytes", "4096"], None);
    let addr = daemon.addr.as_str();
    let pool = generate_tables(LOAD_SEED, 3, 24);
    let mut total_sent = 0;
    for connections in [1u64, 4, 16] {
        let mut row: BTreeMap<&str, u64> = BTreeMap::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..connections)
                .map(|c| {
                    let pool = &pool;
                    scope.spawn(move || load_connection(addr, c, pool))
                })
                .collect();
            for worker in workers {
                for (name, n) in worker.join().expect("load connection panicked") {
                    *row.entry(name).or_default() += n;
                }
            }
        });
        let malformed = (0..6).filter(|_| probe_acked(addr, b"this is not json\n")).count();
        let oversized = (0..3).filter(|_| probe_acked(addr, &[b'x'; 8192])).count();
        let sent = connections * LOAD_REQUESTS;
        for (name, want) in [
            ("sent", sent),
            ("ok", sent),
            ("timeout", 0),
            ("overloaded", 0),
            ("error", 0),
            ("lost", 0),
        ] {
            let got = row.get(name).copied().unwrap_or(0);
            assert_eq!(got, want, "row of {connections} connection(s): `{name}` drifted");
        }
        assert_eq!(malformed, 6, "row of {connections} connection(s): malformed probes acked");
        assert_eq!(oversized, 3, "row of {connections} connection(s): oversized probes acked");
        total_sent += row.get("sent").copied().unwrap_or(0);
    }

    let stats = Conn::open(addr).roundtrip("{\"op\":\"stats\"}", WINDOW);
    for (name, want) in [
        ("serve.accepted", 1260),
        ("serve.malformed", 27),
        ("serve.rejected_overload", 0),
        ("serve.timeouts", 0),
        ("store.misses", 10),
        ("store.hits", 1189),
        ("store.trivial_hits", 61),
    ] {
        assert_eq!(counter(&stats, name), want, "server counter `{name}` drifted: {stats}");
    }
    // The admission ledger: everything sent was admitted, nothing shed.
    assert_eq!(counter(&stats, "serve.accepted"), total_sent, "admitted != sent");
    shutdown_and_wait(daemon);
}

/// Rebuilds a chain from its `Display` text (`x5 = 0x6(x3, x4)` gates,
/// `f1 = !x7` outputs; signals 1-based).
fn parse_chain_text(num_inputs: usize, text: &str) -> Chain {
    let signal = |s: &str| s.trim().trim_start_matches('x').parse::<usize>().unwrap() - 1;
    let mut chain = Chain::new(num_inputs);
    for line in text.lines() {
        let (_, rhs) = line.split_once(" = ").expect("`lhs = rhs` line");
        if line.starts_with('f') {
            let negated = rhs.starts_with('!');
            chain.add_output(OutputRef::Signal {
                index: signal(rhs.trim_start_matches('!')),
                negated,
            });
        } else {
            let (tt2, args) = rhs.trim_end_matches(')').split_once('(').unwrap();
            let (a, b) = args.split_once(',').unwrap();
            let tt2 = u8::from_str_radix(tt2.trim_start_matches("0x"), 16).unwrap();
            chain.add_gate(signal(a), signal(b), tt2).unwrap();
        }
    }
    chain
}

#[test]
fn snapshot_entry_with_a_flipped_lut_bit_is_dropped_and_re_solved() {
    let scratch = Scratch::new("flipped-lut");
    let store = scratch.store();
    let spec = TruthTable::from_hex(4, "8ff8").unwrap();
    let warmed = Store::new();
    let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    let solutions = synthesize_npn_with_store(&spec, &config, &warmed).unwrap().chains.len();
    // Flip the low bit of the first gate's LUT in the saved snapshot.
    let mut flipped = false;
    let text: String = warmed
        .save_to_string()
        .lines()
        .map(|line| match line.strip_prefix("gate ").and_then(|g| g.rsplit_once(' ')) {
            Some((fanins, tt2)) if !flipped => {
                flipped = true;
                let tt2 = u8::from_str_radix(tt2, 16).unwrap() ^ 1;
                format!("gate {fanins} {tt2:x}\n")
            }
            _ => format!("{line}\n"),
        })
        .collect();
    assert!(flipped);
    std::fs::write(&store, text).unwrap();

    let daemon = spawn_stpd(&["--store", store.to_str().unwrap()], None);
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip("{\"op\":\"synth\",\"tables\":[\"8ff8\"]}", WINDOW);
    assert_eq!(status(&resp), "ok", "{resp}");
    assert_eq!(resp.get("gates").and_then(Json::as_u64), Some(3));
    assert_eq!(resp.get("solutions").and_then(Json::as_u64), Some(solutions as u64));
    let chain = parse_chain_text(4, resp.get("chain").and_then(Json::as_str).unwrap());
    assert_eq!(chain.simulate_outputs().unwrap(), vec![spec], "the served chain realizes 8ff8");
    let stats = conn.roundtrip("{\"op\":\"stats\"}", WINDOW);
    assert_eq!(counter(&stats, "store.invalid_entries"), 1, "{stats}");
    assert_eq!(counter(&stats, "store.misses"), 1, "the dropped class is re-solved");
    assert_eq!(counter(&stats, "store.mapback_rejects"), 0);
    shutdown_and_wait(daemon);
}
