//! `stpd_open`: open-loop, then closed-loop, traffic against the `stpd`
//! daemon.
//!
//! `stpd --capacity 4 --jobs 1` runs as a child process on a journaled
//! store. Set-up starts it and sends a closed-loop warm-up. The
//! measurement then has two phases on one connection, each repeating a
//! seeded period of requests (see [`period`]): every tenth request is a
//! `rewrite` of a network from a pool of random networks (8 inputs, 40
//! gates, 4 outputs), each network once per period, and the rest are
//! `synth` requests for a 4-input hot pool. The warm-up rewrites only the
//! first half of the network pool, so the measurement still meets every
//! class of the second half for the first time: store misses, synthesis
//! and journal writes happen in the measured window, early, and the same
//! ones for every seed.
//! Fresh networks per request would keep missing on the unbounded
//! multi-output class space, and a single miss on a hard class stalls a
//! connection for about a second, so the tail would measure which
//! classes a seed happened to draw.
//!
//! 1. an open-loop phase at a fixed offered rate, where every request is
//!    timed from the instant it was due to be sent, so a stalled daemon
//!    delays the requests queued behind the stall and that delay shows
//!    in their latency (no coordinated omission); the generator records
//!    how late it sent each request;
//! 2. a closed-loop phase, where the client sends its next request
//!    when the previous answer arrives, giving the throughput one caller
//!    gets.
//!
//! Each position of the period is timed at its best repeat of the phase
//! (see `stats::best_per_key`): in the open loop a position's latency
//! includes the wait behind the rewrites before it, in the closed loop
//! it is one request's round trip. The end-to-end metrics come from the
//! closed loop and the open-loop latencies are per-layer metrics: between
//! requests 2.5 ms apart the daemon goes idle, and how fast the host wakes
//! it followed the load of the host's other tenants (open-loop median
//! 0.38–0.76 ms over ten runs of the same code, against 0.13 spread for
//! the closed-loop throughput).
//!
//! Every answer is checked: a `synth` chain is rebuilt from its text and
//! simulated against the requested table, a `rewrite` network must be
//! exhaustively equivalent to the one sent and no larger. A traced run
//! adds no work: the per-layer numbers come from fields the daemon
//! already returns (`wall_ms`, and span sums and counters from `stats`).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_network::{equivalent_exhaustive, random_network, Network, Sig};
use stp_telemetry::metrics::{HistogramSnapshot, HISTOGRAM_BUCKETS};
use stp_telemetry::{Json, MetricsSnapshot};
use stp_tt::TruthTable;

use crate::batch::{random_transform, shuffle};
use crate::cache::hot_pool;
use crate::check::{check_chain, check_counts, parse_chain, Expect};
use crate::layers::Layers;
use crate::report::{EndToEnd, RunResult, Tally};
use crate::stats::{best_per_key, percentile, slowest_mean};
use crate::RunConfig;

/// Every this many requests, one is a `rewrite`; the rest are `synth`s.
const REWRITE_EVERY: usize = 10;

/// Per-request deadline sent to the daemon.
const REQUEST_TIMEOUT_MS: u64 = 10_000;

/// How long a phase waits for outstanding answers after its last send.
const DRAIN: Duration = Duration::from_secs(15);

/// Share of the measurement time spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.3;

/// Offered rate of the open-loop phase, requests/second.
const SERVE_RATE: f64 = 400.0;

/// Generator lateness above which a send counts as late.
const LATE: Duration = Duration::from_millis(1);

/// A running `stpd`, killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(stpd: &Path, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(stpd)
            .args(["--addr", "127.0.0.1:0", "--capacity", "4", "--jobs", "1", "--log", "warn"])
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", stpd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("stpd listening on ").unwrap_or("").to_string();
        // Built before the check so an early return still reaps the child.
        let daemon = Daemon { child, _stdout: stdout, addr };
        match read {
            Ok(_) if !daemon.addr.is_empty() => Ok(daemon),
            _ => Err(format!("stpd did not report its address (got `{}`)", line.trim())),
        }
    }

    /// One control request on its own connection.
    fn control(&self, op: &str) -> Result<Json, String> {
        let fail = |e: std::io::Error| format!("stpd {op}: {e}");
        let stream = TcpStream::connect(&self.addr).map_err(fail)?;
        stream.set_read_timeout(Some(DRAIN)).map_err(fail)?;
        (&stream).write_all(format!("{{\"op\":\"{op}\"}}\n").as_bytes()).map_err(fail)?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).map_err(fail)?;
        Json::parse(line.trim()).map_err(|e| format!("stpd {op}: bad answer: {e}"))
    }

    /// Graceful shutdown: the daemon drains, saves its store, and exits.
    fn shutdown(mut self) -> Result<(), String> {
        self.control("shutdown")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("stpd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => return Err("stpd did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("cannot wait for stpd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request of the mix, with what its answer is checked against.
#[derive(Clone)]
enum Request {
    Synth { table: TruthTable, expect: Expect },
    Rewrite { network: Network },
}

impl Request {
    fn line(&self, id: u64) -> String {
        let body = match self {
            Request::Synth { table, .. } => ("tables", Json::Arr(vec![Json::Str(table.to_hex())])),
            Request::Rewrite { network } => ("blif", Json::Str(network.to_blif("req"))),
        };
        let op = if matches!(self, Request::Synth { .. }) { "synth" } else { "rewrite" };
        let mut line = Json::obj(vec![
            ("op", Json::Str(op.to_string())),
            ("id", Json::UInt(id)),
            body,
            ("timeout_ms", Json::UInt(REQUEST_TIMEOUT_MS)),
        ])
        .to_string();
        line.push('\n');
        line
    }

    /// Checks an `ok` response against the request.
    fn check(&self, resp: &Json) -> Result<(), String> {
        let field = |k: &str| resp.get(k).and_then(Json::as_u64).ok_or(format!("no `{k}` field"));
        match self {
            Request::Synth { table, expect } => {
                let text = resp.get("chain").and_then(Json::as_str).ok_or("no `chain` field")?;
                let chain = parse_chain(table.num_vars(), text)?;
                check_chain(table, &chain)?;
                let gates = field("gates")? as usize;
                if chain.num_gates() != gates {
                    return Err(format!(
                        "{}: chain has {} gates, answer says {gates}",
                        table.to_hex(),
                        chain.num_gates()
                    ));
                }
                // The daemon's store keeps whichever chain set reached a
                // class first, and rewriting stores a single chain, so
                // only the gate count is held to the record.
                let expect = match *expect {
                    Expect::Recorded(r) => Expect::AtMost(r.gates),
                    other => other,
                };
                check_counts(table, expect, gates, field("solutions")? as usize)
            }
            Request::Rewrite { network } => {
                let blif = resp.get("blif").and_then(Json::as_str).ok_or("no `blif` field")?;
                let back = Network::from_blif(blif).map_err(|e| format!("rewrite BLIF: {e}"))?;
                let (before, after) =
                    (field("gates_before")? as usize, field("gates_after")? as usize);
                if !equivalent_exhaustive(network, &back).map_err(|e| e.to_string())? {
                    return Err("rewrite returned an inequivalent network".to_string());
                }
                if before != network.live_gate_count()
                    || after != back.live_gate_count()
                    || after > before
                {
                    return Err(format!(
                        "rewrite gate counts {before} -> {after} do not match the networks ({} -> {})",
                        network.live_gate_count(),
                        back.live_gate_count()
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Seed of the network pool's fixed structure. The run seed relabels
/// each network's inputs (permutation and negations), which leaves its
/// cut functions in the same NPN classes: every seed sends different
/// networks that cost the daemon the same work.
const NETWORKS_SEED: u64 = 0x7374_7064_6e65_7473;

/// The rewrite pool: random networks of 8 inputs, 40 gates, 4 outputs.
fn network_pool(seed: u64, size: usize) -> Vec<Network> {
    let mut base = SmallRng::seed_from_u64(NETWORKS_SEED);
    let mut relabel = SmallRng::seed_from_u64(seed ^ NETWORKS_SEED);
    (0..size)
        .map(|_| {
            let network = random_network(8, 40, 4, &mut base).expect("valid network shape");
            let t = random_transform(8, &mut relabel);
            relabel_inputs(&network, &t.perm, t.input_negations)
        })
        .collect()
}

/// `network` with input `i` renamed to `perm[i]` and complemented when bit
/// `i` of `negations` is set.
fn relabel_inputs(network: &Network, perm: &[usize], negations: u32) -> Network {
    let mut out = Network::new(network.num_inputs());
    let mut map: Vec<Sig> = vec![Sig::FALSE];
    for (i, &p) in perm.iter().enumerate() {
        let input = out.input(p);
        map.push(if negations >> i & 1 == 1 { input.not() } else { input });
    }
    for gate in network.gates() {
        let sig = out
            .add_gate(map[gate.fanin[0]], map[gate.fanin[1]], gate.tt2)
            .expect("fanins precede their gate");
        map.push(sig);
    }
    for output in network.outputs() {
        let sig = map[output.index()];
        out.add_output(if output.is_negated() { sig.not() } else { sig });
    }
    out
}

/// The seeded period of `phase`'s request stream: [`REWRITE_EVERY`] ×
/// `networks.len()` requests, where every [`REWRITE_EVERY`]th request
/// rewrites the next network of a seeded order of the network pool and
/// the others synthesize the next function of a seeded cyclic order of
/// the hot pool. A fixed interleave instead of random draws keeps the
/// expensive rewrites evenly spread, so every period, and every seed,
/// carries the same work.
fn period(
    seed: u64,
    phase: Phase,
    hot: &[(TruthTable, Expect)],
    networks: &[Network],
) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed ^ ((phase as u64) << 56));
    let mut order = |n: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut rng);
        order
    };
    let (hot_order, network_order) = (order(hot.len()), order(networks.len()));
    (0..REWRITE_EVERY * networks.len())
        .map(|k| {
            let rewrites = k / REWRITE_EVERY;
            if k % REWRITE_EVERY == REWRITE_EVERY - 1 {
                Request::Rewrite { network: networks[network_order[rewrites]].clone() }
            } else {
                let (table, expect) = hot[hot_order[(k - rewrites) % hot.len()]].clone();
                Request::Synth { table, expect }
            }
        })
        .collect()
}

/// When one request was due, sent and answered, relative to its phase
/// start, and what the answer was.
#[derive(Debug, Clone)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When the generator sent it.
    pub sent: Duration,
    /// When its answer arrived; `None` if it never did.
    pub answered: Option<Duration>,
    /// The answer (`Json::Null` when the line did not parse).
    pub answer: Option<Json>,
    /// Size of the answer line, bytes.
    pub bytes: usize,
}

impl Timing {
    /// Latency from the due instant, so a stall that holds up the requests
    /// queued behind it counts in their latency too.
    pub fn latency(&self) -> Option<Duration> {
        self.answered.map(|at| at.saturating_sub(self.due))
    }
}

/// Sends `lines` on one connection on an open-loop schedule: line `i` is
/// due at `offset + i · interval` after `start`, whether or not earlier
/// answers have arrived. A reader thread stamps each answer on arrival;
/// answers match requests in order, as the daemon answers a connection's
/// requests in order.
///
/// # Errors
///
/// A message when the connection cannot be set up.
pub fn open_loop(
    addr: &str,
    lines: &[String],
    start: Instant,
    offset: Duration,
    interval: Duration,
) -> Result<Vec<Timing>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let answers = scope.spawn(move || read_answers(reader, lines.len(), start));
        let mut writer = stream;
        let mut timings = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            let due = offset + interval * i as u32;
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = start.elapsed();
            // A failed write leaves the request unanswered: counted as lost.
            let _ = writer.write_all(line.as_bytes());
            timings.push(Timing { due, sent, answered: None, answer: None, bytes: 0 });
        }
        let answers = answers.join().expect("reader thread panicked");
        for (timing, (at, bytes, answer)) in timings.iter_mut().zip(answers) {
            timing.answered = Some(at);
            timing.bytes = bytes;
            timing.answer = Some(answer);
        }
        Ok(timings)
    })
}

/// A connection's read side that acknowledges what it reads at once.
///
/// `stpd` leaves Nagle's algorithm on, so an answer written while an
/// earlier one is unacknowledged waits for the acknowledgement, and Linux
/// delays that until the client's next send. At 400 req/s every open-loop
/// answer then arrived with the next request, one send interval (2.5 ms)
/// after it was due, whatever the daemon's speed; `TCP_QUICKACK`, which
/// the kernel clears again after a read, brought the median to 0.3 ms.
struct QuickAck(TcpStream);

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        quick_ack(&self.0);
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    let on: c_int = 1;
    // SAFETY: the descriptor is an open socket owned by `stream` for the
    // whole call, and `value` points at a live `c_int` of the given size.
    // A failure leaves the acknowledgements delayed, which only slows the
    // answers.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_stream: &TcpStream) {}

/// Reads up to `expected` answer lines, stamping each on arrival; stops
/// early when the connection closes or no answer came for [`DRAIN`].
fn read_answers(
    stream: TcpStream,
    expected: usize,
    start: Instant,
) -> Vec<(Duration, usize, Json)> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(QuickAck(stream));
    let mut answers = Vec::with_capacity(expected);
    let mut line = String::new();
    let mut last = Instant::now();
    while answers.len() < expected && last.elapsed() < DRAIN {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with('\n') => {
                let at = start.elapsed();
                answers.push((at, line.len(), Json::parse(line.trim()).unwrap_or(Json::Null)));
                line.clear();
                last = Instant::now();
            }
            // A partial line (read timeout mid-line) stays in `line`.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    answers
}

/// One request of a period, by position, with its timing.
struct Exchange<'a> {
    position: usize,
    request: &'a Request,
    timing: Timing,
}

/// Sends the requests of `period` one at a time on one connection,
/// cycling through the period, until `until` or until `max` were sent.
fn closed_loop<'a>(
    addr: &str,
    period: &'a [Request],
    until: Instant,
    max: usize,
) -> Result<Vec<Exchange<'a>>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let lines: Vec<String> = period.iter().enumerate().map(|(i, r)| r.line(i as u64)).collect();
    let mut exchanges = Vec::new();
    let mut line = String::new();
    let start = Instant::now();
    while Instant::now() < until && exchanges.len() < max {
        let position = exchanges.len() % period.len();
        let sent = start.elapsed();
        let mut timing = Timing { due: sent, sent, answered: None, answer: None, bytes: 0 };
        let read =
            writer.write_all(lines[position].as_bytes()).and_then(|()| reader.read_line(&mut line));
        if matches!(read, Ok(n) if n > 0) {
            timing.answered = Some(start.elapsed());
            timing.bytes = line.len();
            timing.answer = Some(Json::parse(line.trim()).unwrap_or(Json::Null));
        }
        line.clear();
        let lost = timing.answered.is_none();
        exchanges.push(Exchange { position, request: &period[position], timing });
        if lost {
            break;
        }
    }
    Ok(exchanges)
}

/// Counts an exchange into `tally`: unanswered and non-`ok` answers fail,
/// wrong `ok` answers are wrong.
fn tally_exchange(tally: &mut Tally, exchange: &Exchange) {
    let Some(resp) = &exchange.timing.answer else {
        tally.fail("request lost: no answer".to_string());
        return;
    };
    match resp.get("status").and_then(Json::as_str) {
        Some("ok") => tally.check(exchange.request.check(resp)),
        status => tally.fail(format!("answer status {status:?}")),
    }
}

/// The request pools of one run.
struct Pools {
    hot: Vec<(TruthTable, Expect)>,
    networks: Vec<Network>,
}

/// Starts a daemon on a fresh store under `dir` and warms it with the hot
/// pool and the first half of the network pool.
fn prepare(config: &RunConfig, dir: &str, pools: &Pools) -> Result<Daemon, String> {
    let dir = config.workdir.join(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let daemon = Daemon::start(&config.stpd, &dir.join("stpd.store"))?;
    let half = &pools.networks[..pools.networks.len().div_ceil(2)];
    let warm_up = period(config.seed, Phase::WarmUp, &pools.hot, half);
    let count = config.sizes.serve_warmup;
    let warm = closed_loop(&daemon.addr, &warm_up, Instant::now() + DRAIN * count as u32, count)?;
    let mut tally = Tally::default();
    for exchange in &warm {
        tally_exchange(&mut tally, exchange);
    }
    if tally.failed > 0 {
        return Err(format!("warm-up failed: {}", tally.messages.join("; ")));
    }
    Ok(daemon)
}

/// The measurement phases, each with its own request period.
#[derive(Clone, Copy)]
enum Phase {
    WarmUp = 1,
    Open = 2,
    Closed = 3,
}

/// Runs the `stpd_open` workload.
///
/// # Errors
///
/// A message when the daemon cannot be started, warmed, queried or shut
/// down.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    // An earlier set-up's daemon is killed (on drop) before the next starts.
    let ((daemon, pools), setup_s) = crate::set_up(config.sizes.setup_rounds, |k| {
        let pools = Pools {
            hot: hot_pool(config.seed, config.sizes.hot),
            networks: network_pool(config.seed, config.sizes.serve_networks),
        };
        Ok((prepare(config, &format!("stpd-{k}"), &pools)?, pools))
    })?;
    let before = if config.trace { Some(daemon.control("stats")?) } else { None };

    // Whole periods at the offered rate, at least one.
    let open_s = config.seconds * OPEN_SHARE;
    let open_period = period(config.seed, Phase::Open, &pools.hot, &pools.networks);
    let periods = ((open_s * SERVE_RATE / open_period.len() as f64).round() as usize).max(1);
    let lines: Vec<String> = (0..periods * open_period.len())
        .map(|i| open_period[i % open_period.len()].line(i as u64))
        .collect();
    let interval = Duration::from_secs_f64(1.0 / SERVE_RATE);
    let timings = open_loop(&daemon.addr, &lines, Instant::now(), Duration::ZERO, interval)?;
    let open: Vec<Exchange> = timings
        .into_iter()
        .enumerate()
        .map(|(i, timing)| {
            let position = i % open_period.len();
            Exchange { position, request: &open_period[position], timing }
        })
        .collect();

    let closed_period = period(config.seed, Phase::Closed, &pools.hot, &pools.networks);
    let until = Instant::now() + Duration::from_secs_f64(config.seconds - open_s);
    let closed = closed_loop(&daemon.addr, &closed_period, until, usize::MAX)?;

    let after = if config.trace { Some(daemon.control("stats")?) } else { None };
    daemon.shutdown()?;

    let mut tally = Tally::default();
    for exchange in open.iter().chain(&closed) {
        tally_exchange(&mut tally, exchange);
    }
    let metrics = match (before, after) {
        (Some(before), Some(after)) => {
            let mut l = layers(&before, &after, &open, &closed);
            // Latency by due instant; a failed or lost request misses any
            // latency limit.
            let samples: Vec<(usize, f64)> = open
                .iter()
                .map(|e| match (e.timing.latency(), ok(e)) {
                    (Some(t), true) => (e.position, t.as_secs_f64() * 1e3),
                    _ => (e.position, f64::INFINITY),
                })
                .collect();
            let open_ms = best_per_key(&samples, open_period.len());
            l.serve_open_p50_ms = percentile(&open_ms, 0.5);
            l.serve_open_tail_ms = slowest_mean(&open_ms, 0.1);
            l.metrics()
        }
        _ => {
            let samples: Vec<(usize, f64)> = closed
                .iter()
                .filter(|e| ok(e))
                .filter_map(|e| {
                    Some((e.position, (e.timing.answered? - e.timing.sent).as_secs_f64()))
                })
                .collect();
            let mut round_trips = best_per_key(&samples, closed_period.len());
            round_trips.retain(|s| s.is_finite());
            let round_trips_ms: Vec<f64> = round_trips.iter().map(|s| s * 1e3).collect();
            EndToEnd {
                throughput_per_s: round_trips.len() as f64 / round_trips.iter().sum::<f64>(),
                latency_p50_ms: percentile(&round_trips_ms, 0.5),
                // The slowest tenth of the period: its rewrites.
                latency_tail_ms: slowest_mean(&round_trips_ms, 0.1),
                setup_s,
            }
            .metrics()
        }
    };
    Ok(RunResult { tally, metrics })
}

/// Whether an exchange got an `ok` answer.
fn ok(exchange: &Exchange) -> bool {
    exchange.timing.answer.as_ref().and_then(|r| r.get("status")).and_then(Json::as_str)
        == Some("ok")
}

/// The daemon's telemetry totals from a `stats` answer: counters, and
/// span sums and counts from its Prometheus text.
fn totals(stats: &Json) -> MetricsSnapshot {
    fn span<'a>(totals: &'a mut MetricsSnapshot, name: &str) -> &'a mut HistogramSnapshot {
        totals.histograms.entry(name.to_string()).or_insert_with(|| HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        })
    }
    let mut totals = MetricsSnapshot::default();
    let text = stats.get("prometheus").and_then(Json::as_str).unwrap_or("");
    for line in text.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        let name = |prefix: &str| series.strip_prefix(prefix)?.strip_suffix("\"}");
        if let Some(n) = name("stp_counter{name=\"") {
            totals.counters.insert(n.to_string(), value.parse().unwrap_or(0));
        } else if let Some(n) = name("stp_span_seconds_sum{name=\"") {
            span(&mut totals, n).sum_ns = (value.parse::<f64>().unwrap_or(0.0) * 1e9) as u64;
        } else if let Some(n) = name("stp_span_seconds_count{name=\"") {
            span(&mut totals, n).count = value.parse().unwrap_or(0);
        }
    }
    totals
}

/// Per-layer metrics of the measured phases: the growth of the daemon's
/// telemetry totals between two `stats` answers, plus the answers' own
/// fields.
fn layers(before: &Json, after: &Json, open: &[Exchange], closed: &[Exchange]) -> Layers {
    let mut l = Layers::from_delta(&totals(after).delta_since(&totals(before)), 1.0);
    let answers: Vec<(&Exchange, &Json)> = open
        .iter()
        .chain(closed)
        .filter_map(|e| e.timing.answer.as_ref().filter(|_| ok(e)).map(|r| (e, r)))
        .collect();
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let synth: Vec<&Json> = answers
        .iter()
        .filter(|(e, _)| matches!(e.request, Request::Synth { .. }))
        .map(|a| a.1)
        .collect();
    l.npn_chains_per_answer =
        synth.iter().map(|r| num(r, "solutions")).sum::<f64>() / synth.len().max(1) as f64;
    for (e, r) in &answers {
        let latency = (e.timing.answered.expect("answered") - e.timing.sent).as_secs_f64();
        l.busy_s += latency;
        l.serve_s += latency - num(r, "wall_ms") / 1e3;
        l.serve_resp_bytes_mean += e.timing.bytes as f64 / answers.len() as f64;
        l.gates_total += num(r, "gates") + num(r, "gates_after");
    }
    let late = open.iter().filter(|e| e.timing.sent.saturating_sub(e.timing.due) > LATE).count();
    l.serve_late_share = late as f64 / open.len().max(1) as f64;
    l
}
