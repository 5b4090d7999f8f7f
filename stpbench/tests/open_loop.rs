//! The open-loop client times each request from its due instant, so a
//! server stall shows up in the latency of every request queued behind
//! it (no coordinated omission), while the generator keeps sending on
//! schedule.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use stpbench::serve::open_loop;

const STALL: Duration = Duration::from_millis(200);
const INTERVAL: Duration = Duration::from_millis(10);
const REQUESTS: usize = 30;

#[test]
fn a_stalled_first_reply_delays_the_requests_queued_behind_it() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("one client");
        let mut writer = stream.try_clone().expect("clone the stream");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for i in 0..REQUESTS {
            line.clear();
            if reader.read_line(&mut line).expect("read a request") == 0 {
                return;
            }
            if i == 0 {
                std::thread::sleep(STALL);
            }
            writer.write_all(b"{\"status\":\"ok\"}\n").expect("answer");
        }
    });

    let lines: Vec<String> = (0..REQUESTS).map(|i| format!("{{\"id\":{i}}}\n")).collect();
    let start = Instant::now();
    let timings = open_loop(&addr, &lines, start, Duration::ZERO, INTERVAL).expect("client runs");
    server.join().expect("server thread");

    assert_eq!(timings.len(), REQUESTS);
    for (i, t) in timings.iter().enumerate() {
        let latency = t.latency().expect("every request answered");
        // The generator kept its schedule through the stall.
        assert!(t.sent - t.due < Duration::from_millis(50), "request {i} sent late: {t:?}");
        if t.due < STALL {
            // Queued behind the stalled reply: its wait counts.
            let waited = STALL - t.due;
            assert!(
                latency + Duration::from_millis(5) >= waited,
                "request {i} due at {:?} reports {latency:?}, less than the {waited:?} it waited",
                t.due
            );
        }
    }
    let last = timings.last().expect("requests").latency().expect("answered");
    assert!(last < STALL / 2, "the stall must not leak into requests due after it: {last:?}");
}
