//! The `stpd` server: accept loop, per-connection handlers, admission
//! control, deadlines, and graceful drain.
//!
//! # Admission control
//!
//! Work requests (`synth`, `rewrite`) pass through a bounded in-flight
//! gate of [`ServeConfig::capacity`] slots. A request that finds every
//! slot taken is rejected *immediately* with a structured
//! `overloaded` response carrying `retry_after_ms` — the connection
//! stays open, nothing queues, and the daemon's memory and latency
//! stay bounded under any offered load. `ping`, `stats`, and
//! `shutdown` bypass the gate so the daemon remains observable and
//! stoppable while saturated.
//!
//! # Deadlines
//!
//! Every work request gets a wall-clock deadline (its `timeout_ms`, or
//! [`ServeConfig::default_timeout`]) plumbed into
//! [`stp_synth::SynthesisConfig::deadline`], where the engine's
//! cooperative `check_deadline` polls it. Expiry produces a structured
//! `timeout` response — never a dropped connection.
//!
//! # Graceful drain
//!
//! A `shutdown` request (the no-signal-crate stand-in for SIGTERM —
//! hosts that can catch signals just set the same flag) flips the
//! shared shutdown flag. The accept loop stops taking connections,
//! idle handlers see the flag between frames and exit, and in-flight
//! work is given [`ServeConfig::drain_timeout`] to finish. Past that
//! deadline the shared [`stp_synth::SynthesisConfig::abort`] flag is
//! raised, which the engine's `check_deadline` converts into a
//! `Timeout` — so even stuck requests resolve to structured responses.
//! Handlers are then joined and the store is saved atomically
//! (journal cleared), so a graceful exit leaves no replay work behind.
//!
//! # Failpoints
//!
//! With the `faultsim` feature the daemon carries kill-window probes
//! for the chaos suite: `serve.accept`, `serve.request.admitted`,
//! `serve.request.pre_solve`, `serve.request.pre_respond`,
//! `serve.shutdown.pre_save`, and `serve.rewrite.wrong_answer`, which
//! plants a wrong rewrite for the answer check to refuse. An `abort` action at any of them is an
//! honest `kill -9`: the journal (fsynced on every publish) is all
//! that survives, and [`stp_store::Store::open`] replays it.

use std::io::Write;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stp_network::{check_rewrite, rewrite, Network, RewriteConfig, SynthesisCache};
use stp_store::Store;
use stp_synth::{
    synthesize_multi_npn_answer, synthesize_npn_answer, MultiSpec, SynthesisConfig, SynthesisError,
};
use stp_telemetry::{CounterScope, Json, RunReport};
use stp_tt::TruthTable;

use crate::protocol::{
    parse_request, resp_error, resp_malformed, resp_overloaded, resp_pong, resp_rewrite,
    resp_shutdown_ack, resp_shutting_down, resp_stats, resp_synth, resp_timeout, Frame,
    FrameReader, Request,
};

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Snapshot path for the persistent store. `Some` opens with
    /// journaling ([`Store::open`]) and saves on graceful shutdown;
    /// `None` runs a purely in-memory store.
    pub store_path: Option<PathBuf>,
    /// Maximum concurrently *admitted* work requests; excess is shed
    /// with `overloaded`.
    pub capacity: usize,
    /// Worker threads per synthesis call (`1` = sequential, `0` = one
    /// per CPU).
    pub jobs: usize,
    /// Gate-count ceiling per synthesis request.
    pub max_gates: usize,
    /// Deadline for work requests that do not send `timeout_ms`.
    pub default_timeout: Duration,
    /// How long shutdown waits for in-flight work before raising the
    /// engine abort flag.
    pub drain_timeout: Duration,
    /// A connection with no bytes at all for this long is closed.
    pub idle_timeout: Duration,
    /// A frame that started but saw no newline for this long trips the
    /// slow-loris guard and the connection is closed.
    pub frame_timeout: Duration,
    /// Byte cap per frame; longer frames get a structured `malformed`
    /// response and the connection is closed.
    pub max_frame_bytes: usize,
    /// The `retry_after_ms` hint sent with `overloaded` rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store_path: None,
            capacity: 4,
            jobs: 1,
            max_gates: 20,
            default_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(10),
            max_frame_bytes: 1 << 20,
            retry_after_ms: 100,
        }
    }
}

/// Why [`Server::run`] failed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept, poll configuration).
    Io(std::io::Error),
    /// Store open/save failure.
    Store(stp_store::StoreFileError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<stp_store::StoreFileError> for ServeError {
    fn from(e: stp_store::StoreFileError) -> Self {
        ServeError::Store(e)
    }
}

/// What a completed [`Server::run`] looked like.
#[derive(Debug, Clone)]
pub struct ShutdownSummary {
    /// `true` when every in-flight request finished inside the drain
    /// window; `false` when the abort flag had to be raised.
    pub drained_clean: bool,
    /// `true` when a final snapshot was saved (a store path was
    /// configured).
    pub saved: bool,
}

/// State shared between the accept loop and every handler thread.
struct Shared {
    config: ServeConfig,
    store: Arc<Store>,
    /// Currently admitted work requests (not connections).
    inflight: AtomicUsize,
    /// The drain flag: set by a `shutdown` request (or the host's
    /// signal wiring); observed by the accept loop and between frames.
    shutdown: Arc<AtomicBool>,
    /// The engine kill switch, raised only past the drain deadline.
    /// `SynthesisConfig::abort` is never cleared by the engine, so one
    /// flag revokes every in-flight and future request at once.
    abort: Arc<AtomicBool>,
}

impl Shared {
    /// Takes one admission slot, or refuses when the gate is full.
    fn try_admit(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if n < self.config.capacity {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }
}

/// Releases an admission slot on drop — after the response write, so
/// drain's `inflight == 0` implies every response reached the socket.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Accept-loop poll granularity (shutdown responsiveness).
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Drain-loop poll granularity.
const DRAIN_POLL: Duration = Duration::from_millis(10);
/// Grace period after raising the abort flag, for the engine's
/// cooperative cancellation to take hold and responses to flush.
const ABORT_GRACE: Duration = Duration::from_secs(2);

/// Conflict budget of the SAT check on rewrites wider than the
/// simulation limit. A check that spends it refuses the answer.
const REWRITE_SAT_BUDGET: u64 = 100_000;

/// A bound `stpd` instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` and opens (or creates) the store. Port `0` picks an
    /// ephemeral port; read it back with [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the socket cannot be bound or the store
    /// snapshot/journal cannot be opened.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> Result<Server, ServeError> {
        let store = match &config.store_path {
            Some(path) => Store::open(path)?,
            None => Store::new(),
        };
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            config,
            store: Arc::new(store),
            inflight: AtomicUsize::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
            abort: Arc::new(AtomicBool::new(false)),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared solution store.
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.shared.store)
    }

    /// A handle to the drain flag, for hosts that wire up their own
    /// stop condition (a signal handler, a watchdog). Setting it has
    /// exactly the effect of a `shutdown` request.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Serves until drained: accepts connections, dispatches requests,
    /// and on shutdown drains in-flight work and saves the store.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on accept-loop socket failures or a failed final
    /// store save. Per-connection I/O errors only close that
    /// connection.
    pub fn run(self) -> Result<ShutdownSummary, ServeError> {
        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    stp_faultsim::fail_point!("serve.accept");
                    stp_telemetry::counter!("serve.connections").inc();
                    stp_telemetry::debug!("stpd: connection from {peer}");
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || handle_connection(stream, &shared)));
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(e)),
            }
            handlers.retain(|h| !h.is_finished());
        }

        // Drain: wait for admitted work, then escalate to the abort
        // flag, then join the handler threads (which exit on their own
        // once they observe the shutdown flag between frames).
        let drain_deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.inflight.load(Ordering::Acquire) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(DRAIN_POLL);
        }
        let leftover = self.shared.inflight.load(Ordering::Acquire);
        let drained_clean = leftover == 0;
        if !drained_clean {
            stp_telemetry::counter!("serve.drain_aborts").add(leftover as u64);
            stp_telemetry::warn!(
                "stpd: drain deadline expired with {leftover} request(s) in flight; aborting"
            );
            self.shared.abort.store(true, Ordering::Release);
            let grace_deadline = Instant::now() + ABORT_GRACE;
            while self.shared.inflight.load(Ordering::Acquire) > 0
                && Instant::now() < grace_deadline
            {
                std::thread::sleep(DRAIN_POLL);
            }
        }
        for handle in handlers {
            let _ = handle.join();
        }

        stp_faultsim::fail_point!("serve.shutdown.pre_save");
        let mut saved = false;
        if let Some(path) = &self.shared.config.store_path {
            self.shared.store.save(path)?;
            saved = true;
        }
        Ok(ShutdownSummary { drained_clean, saved })
    }
}

/// Serializes `resp` as one frame and writes it. `false` means the
/// socket is gone and the connection should be abandoned.
fn write_response(stream: &mut TcpStream, resp: &Json) -> bool {
    let mut line = resp.to_string();
    line.push('\n');
    match stream.write_all(line.as_bytes()).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(e) => {
            stp_telemetry::counter!("serve.write_errors").inc();
            stp_telemetry::debug!("stpd: response write failed: {e}");
            false
        }
    }
}

/// One connection, frame loop to close.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let _ = writer.set_write_timeout(Some(shared.config.frame_timeout));
    let mut reader = match FrameReader::new(
        stream,
        shared.config.max_frame_bytes,
        shared.config.idle_timeout,
        shared.config.frame_timeout,
    ) {
        Ok(r) => r,
        Err(_) => return,
    };
    loop {
        let frame = match reader.next_frame(&|| shared.shutdown.load(Ordering::Acquire)) {
            Ok(frame) => frame,
            Err(e) => {
                stp_telemetry::debug!("stpd: read failed: {e}");
                return;
            }
        };
        let line = match frame {
            Frame::Line(line) => line,
            Frame::Eof | Frame::ShuttingDown => return,
            Frame::IdleTimeout => {
                stp_telemetry::counter!("serve.idle_closed").inc();
                return;
            }
            Frame::SlowLoris => {
                stp_telemetry::counter!("serve.read_timeouts").inc();
                let _ = write_response(
                    &mut writer,
                    &resp_malformed(None, "frame read timed out before its newline arrived"),
                );
                return;
            }
            Frame::TooLong { limit } => {
                stp_telemetry::counter!("serve.malformed").inc();
                let _ = write_response(
                    &mut writer,
                    &resp_malformed(None, &format!("frame exceeds the {limit}-byte cap")),
                );
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(req) => req,
            Err(message) => {
                // Frame-level violation: answer, then drop the
                // connection — a peer that sends garbage once cannot be
                // trusted to frame the next request either.
                stp_telemetry::counter!("serve.malformed").inc();
                let _ = write_response(&mut writer, &resp_malformed(None, &message));
                return;
            }
        };
        if !dispatch(request, &mut writer, shared) {
            return;
        }
    }
}

/// Handles one parsed request. `false` closes the connection.
fn dispatch(request: Request, writer: &mut TcpStream, shared: &Shared) -> bool {
    match request {
        Request::Ping { id } => write_response(writer, &resp_pong(id.as_deref())),
        Request::Stats { id } => {
            let snapshot = stp_telemetry::metrics_global().snapshot();
            let counters = Json::Obj(
                snapshot
                    .counters
                    .iter()
                    .filter(|(_, v)| **v > 0)
                    .map(|(name, v)| (name.clone(), Json::UInt(*v)))
                    .collect(),
            );
            let prometheus = stp_telemetry::expose::render_prometheus(&snapshot);
            let mut resp = resp_stats(id.as_deref(), counters, prometheus);
            if let Json::Obj(fields) = &mut resp {
                fields.push(("store_entries".to_string(), Json::UInt(shared.store.len() as u64)));
                fields.push((
                    "inflight".to_string(),
                    Json::UInt(shared.inflight.load(Ordering::Acquire) as u64),
                ));
            }
            write_response(writer, &resp)
        }
        Request::Shutdown { id } => {
            stp_telemetry::info!("stpd: shutdown requested");
            let _ = write_response(writer, &resp_shutdown_ack(id.as_deref()));
            shared.shutdown.store(true, Ordering::Release);
            false
        }
        Request::Synth { id, tables, timeout_ms } => {
            handle_work(id, writer, shared, timeout_ms, move |shared, deadline| {
                run_synth(&tables, shared, deadline)
            })
        }
        Request::Rewrite { id, blif, timeout_ms } => {
            handle_work(id, writer, shared, timeout_ms, move |shared, deadline| {
                run_rewrite(&blif, shared, deadline)
            })
        }
    }
}

/// What a work closure resolved to, before response assembly.
enum WorkOutcome {
    /// A complete response object.
    Done(Json),
    /// The request deadline expired.
    TimedOut,
    /// Frame was well-formed JSON but semantically unusable (bad BLIF).
    Malformed(String),
}

/// Admission gate + deadline + panic isolation around one work
/// request. `false` closes the connection.
fn handle_work(
    id: Option<String>,
    writer: &mut TcpStream,
    shared: &Shared,
    timeout_ms: Option<u64>,
    work: impl FnOnce(&Shared, Instant) -> WorkOutcome,
) -> bool {
    let id = id.as_deref();
    if shared.shutdown.load(Ordering::Acquire) {
        stp_telemetry::counter!("serve.rejected_shutdown").inc();
        let _ = write_response(writer, &resp_shutting_down(id));
        return false;
    }
    if !shared.try_admit() {
        stp_telemetry::counter!("serve.rejected_overload").inc();
        return write_response(writer, &resp_overloaded(id, shared.config.retry_after_ms));
    }
    let guard = InflightGuard(&shared.inflight);
    stp_telemetry::counter!("serve.accepted").inc();
    stp_faultsim::fail_point!("serve.request.admitted");
    let timeout = timeout_ms.map(Duration::from_millis).unwrap_or(shared.config.default_timeout);
    let deadline = Instant::now() + timeout;
    let outcome = catch_unwind(AssertUnwindSafe(|| work(shared, deadline)));
    let resp = match outcome {
        Ok(WorkOutcome::Done(resp)) => resp,
        Ok(WorkOutcome::TimedOut) => {
            stp_telemetry::counter!("serve.timeouts").inc();
            resp_timeout(id, timeout.as_millis() as u64)
        }
        Ok(WorkOutcome::Malformed(message)) => {
            stp_telemetry::counter!("serve.malformed").inc();
            resp_malformed(id, &message)
        }
        Err(_) => {
            stp_telemetry::counter!("serve.panics").inc();
            resp_error(id, "internal panic while serving the request")
        }
    };
    let resp = inject_id(resp, id);
    stp_faultsim::fail_point!("serve.request.pre_respond");
    let ok = write_response(writer, &resp);
    if shared.shutdown.load(Ordering::Acquire) {
        stp_telemetry::counter!("serve.drained").inc();
    }
    drop(guard);
    ok
}

/// Ensures the echoed `id` is present on a response built inside the
/// work closure (which does not carry it around).
fn inject_id(resp: Json, id: Option<&str>) -> Json {
    let Some(id) = id else { return resp };
    let Json::Obj(mut fields) = resp else { return resp };
    if !fields.iter().any(|(k, _)| k == "id") {
        fields.insert(1.min(fields.len()), ("id".to_string(), Json::Str(id.to_string())));
    }
    Json::Obj(fields)
}

/// Builds the per-request `RunReport` from a finished counter scope.
fn work_report(
    op: &str,
    args: Vec<String>,
    outcome: &str,
    wall_s: f64,
    counters: std::collections::BTreeMap<String, u64>,
) -> Json {
    let report = RunReport {
        tool: "stpd".to_string(),
        args: {
            let mut a = vec![op.to_string()];
            a.extend(args);
            a
        },
        outcome: outcome.to_string(),
        wall_s,
        counters,
        phases: Vec::new(),
        profile: None,
        extra: Vec::new(),
    };
    report.to_json()
}

/// One `synth` request body, inside the admission gate.
fn run_synth(tables: &[TruthTable], shared: &Shared, deadline: Instant) -> WorkOutcome {
    let config = SynthesisConfig {
        max_gates: shared.config.max_gates,
        deadline: Some(deadline),
        jobs: shared.config.jobs,
        abort: Some(Arc::clone(&shared.abort)),
        ..SynthesisConfig::default()
    };
    let args: Vec<String> = tables.iter().map(|t| t.to_hex()).collect();
    let scope = CounterScope::enter();
    stp_faultsim::fail_point!("serve.request.pre_solve");
    let start = Instant::now();
    // The response carries the class size and one chain: map back (and
    // check) only that chain.
    let answer = if tables.len() == 1 {
        synthesize_npn_answer(&tables[0], &config, &shared.store)
    } else {
        MultiSpec::new(tables.to_vec())
            .and_then(|multi| synthesize_multi_npn_answer(&multi, &config, &shared.store))
    };
    let solved = answer.and_then(|answer| Ok((answer.first()?, answer.len())));
    let wall_s = start.elapsed().as_secs_f64();
    let counters = scope.finish();
    // A positive pending-wait count means this request parked on
    // another request's in-flight slot for the same NPN class — the
    // coalescing path.
    let coalesced = counters.get("store.pending_waits").copied().unwrap_or(0) > 0;
    if coalesced {
        stp_telemetry::counter!("serve.coalesced").inc();
    }
    match solved {
        Ok((chain, solutions)) => {
            let report = work_report("synth", args, "ok", wall_s, counters);
            WorkOutcome::Done(resp_synth(
                None,
                chain.num_gates(),
                chain.outputs().len(),
                solutions,
                chain.to_string(),
                wall_s * 1e3,
                coalesced,
                report,
            ))
        }
        Err(SynthesisError::Timeout) => WorkOutcome::TimedOut,
        Err(e) => WorkOutcome::Done(resp_error(None, &e.to_string())),
    }
}

/// One `rewrite` request body, inside the admission gate.
fn run_rewrite(blif: &str, shared: &Shared, deadline: Instant) -> WorkOutcome {
    let network = match Network::from_blif(blif) {
        Ok(net) => net,
        // Semantic malformation, not a framing violation: the handler
        // keeps the connection (handle_work maps this to `malformed`).
        Err(e) => return WorkOutcome::Malformed(format!("bad BLIF: {e}")),
    };
    let budget = deadline.saturating_duration_since(Instant::now());
    let config = RewriteConfig {
        synthesis_budget: budget.min(Duration::from_secs(2)),
        jobs: shared.config.jobs,
        ..RewriteConfig::default()
    };
    let cache = SynthesisCache::with_store(Arc::clone(&shared.store));
    let scope = CounterScope::enter();
    stp_faultsim::fail_point!("serve.request.pre_solve");
    let start = Instant::now();
    let result = rewrite(&network, &config, &cache);
    let wall_s = start.elapsed().as_secs_f64();
    let counters = scope.finish();
    match result {
        Ok(result) => {
            if Instant::now() >= deadline {
                return WorkOutcome::TimedOut;
            }
            let rewritten = served_network(result.network);
            // Every answer is checked against its input: by simulation up
            // to the truth-table limit, by a budgeted SAT miter past it. A
            // counterexample and a spent budget both refuse the answer.
            let checked = check_rewrite(&network, &rewritten, Some(REWRITE_SAT_BUDGET));
            if !matches!(checked, Ok((true, _))) {
                stp_telemetry::counter!("serve.rewrite_rejects").inc();
                stp_telemetry::warn!("rewrite: refused a network that differs from its input");
                return WorkOutcome::Done(resp_error(
                    None,
                    "rewritten network is not equivalent to its input",
                ));
            }
            let report = work_report("rewrite", Vec::new(), "ok", wall_s, counters);
            WorkOutcome::Done(resp_rewrite(
                None,
                result.gates_before,
                result.gates_after,
                result.passes,
                rewritten.to_blif("stpd"),
                wall_s * 1e3,
                report,
            ))
        }
        Err(e) => WorkOutcome::Done(resp_error(None, &e.to_string())),
    }
}

/// The network a rewrite answers with. Under the `faultsim` feature the
/// `serve.rewrite.wrong_answer` failpoint swaps in a wrong one, so tests
/// can watch the equivalence check refuse it.
fn served_network(network: Network) -> Network {
    stp_faultsim::fail_point!("serve.rewrite.wrong_answer", err = wrong_answer(&network));
    network
}

/// Every output of `network` tied to constant false: wrong for any
/// network with a non-constant-false output.
#[cfg(feature = "faultsim")]
fn wrong_answer(network: &Network) -> Network {
    let mut wrong = Network::new(network.num_inputs());
    for _ in network.outputs() {
        wrong.add_output(stp_network::Sig::FALSE);
    }
    wrong
}
