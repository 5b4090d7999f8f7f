//! The `stpd` wire protocol: line-delimited JSON over TCP.
//!
//! One request per line, one response line per request, in order. The
//! codec is built on [`stp_telemetry::Json`] (the repo's hand-rolled
//! parser) so the daemon stays registry-dependency-free.
//!
//! # Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! {"op":"synth","id":"r1","tables":["e8"],"timeout_ms":2000}
//! {"op":"synth","id":"r2","tables":["e8","96"],"vars":3}
//! {"op":"rewrite","id":"r3","blif":".model m\n...","timeout_ms":5000}
//! ```
//!
//! `id` (string or unsigned integer, echoed verbatim) and `timeout_ms`
//! are optional everywhere. `tables` are hex truth tables; the arity is
//! inferred from the digit count (as in `stpsynth`) unless `vars` is
//! given, and all tables of one request must agree on it. Several
//! tables mean one shared multi-output synthesis.
//!
//! # Responses
//!
//! Every response carries `"status"`; the daemon never answers a parsed
//! frame with a closed socket:
//!
//! * `ok` — op-specific payload (`gates`, `chain`, `report`, ...).
//! * `timeout` — the per-request deadline expired (`budget_ms`).
//! * `overloaded` — admission control shed the request
//!   (`retry_after_ms`).
//! * `shutting_down` — the daemon is draining; retry elsewhere/later.
//! * `malformed` — unparsable frame or bad fields (`message`); frame
//!   -level violations also close the connection.
//! * `error` — the engine failed for a non-budget reason (`message`).

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stp_telemetry::Json;
use stp_tt::TruthTable;

/// Protocol cap on request arity: exhaustive NPN canonicalization is
/// `n! · 2^{n+1}` transforms — a few hundred milliseconds at 8 inputs and
/// 18× that at 9 — and runs before a request's deadline is
/// first polled, so a daemon must bound what a client can make it chew on.
pub const MAX_REQUEST_VARS: usize = 8;

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
    },
    /// Telemetry snapshot: non-zero counters plus the Prometheus
    /// exposition text.
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
    },
    /// Graceful shutdown: stop accepting, drain in-flight work, save
    /// the store. The ISSUE-sanctioned no-signal-crate stand-in for
    /// SIGTERM (the daemon also drains on ctrl-c via the same flag
    /// when the host wires it up).
    Shutdown {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
    },
    /// Exact synthesis of one function, or one shared multi-output
    /// chain when several tables are given.
    Synth {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
        /// The specifications, all of one arity.
        tables: Vec<TruthTable>,
        /// Per-request deadline override (else the server default).
        timeout_ms: Option<u64>,
    },
    /// Cut rewriting of an inline BLIF network against the shared
    /// store.
    Rewrite {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
        /// The network, in the same BLIF dialect `stprewrite` reads.
        blif: String,
        /// Per-request deadline override (else the server default).
        timeout_ms: Option<u64>,
    },
}

impl Request {
    /// The request's correlation id, if any.
    pub fn id(&self) -> Option<&str> {
        match self {
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::Synth { id, .. }
            | Request::Rewrite { id, .. } => id.as_deref(),
        }
    }
}

/// Parses one request line. The error string is what lands in the
/// structured `malformed` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line).map_err(|e| e.to_string())?;
    let Some(_) = value.as_obj() else {
        return Err("request must be a JSON object".to_string());
    };
    let id = match value.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::UInt(v)) => Some(v.to_string()),
        Some(_) => return Err("\"id\" must be a string or unsigned integer".to_string()),
    };
    let Some(op) = value.get("op").and_then(Json::as_str) else {
        return Err("missing required string field \"op\"".to_string());
    };
    let timeout_ms = match value.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_u64() {
            Some(ms) if ms > 0 => Some(ms),
            _ => return Err("\"timeout_ms\" must be a positive integer".to_string()),
        },
    };
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "synth" => {
            let Some(raw_tables) = value.get("tables").and_then(Json::as_arr) else {
                return Err("\"synth\" requires an array field \"tables\"".to_string());
            };
            if raw_tables.is_empty() {
                return Err("\"tables\" must not be empty".to_string());
            }
            let vars = match value.get("vars") {
                None | Some(Json::Null) => None,
                Some(v) => match v.as_u64() {
                    Some(n) if n >= 1 => Some(n as usize),
                    _ => return Err("\"vars\" must be a positive integer".to_string()),
                },
            };
            let mut tables = Vec::with_capacity(raw_tables.len());
            let mut arity: Option<usize> = None;
            for raw in raw_tables {
                let Some(hex) = raw.as_str() else {
                    return Err("\"tables\" entries must be hex strings".to_string());
                };
                let n = match vars {
                    Some(n) => n,
                    None => stp_tt::infer_num_vars(hex).ok_or_else(|| {
                        format!(
                            "table `{hex}` has {} hex digit(s); cannot infer its arity \
                             (pass \"vars\")",
                            hex.len()
                        )
                    })?,
                };
                if n > MAX_REQUEST_VARS {
                    return Err(format!(
                        "table `{hex}` has arity {n}; this daemon caps requests at \
                         {MAX_REQUEST_VARS} variables"
                    ));
                }
                match arity {
                    None => arity = Some(n),
                    Some(prev) if prev != n => {
                        return Err(format!(
                            "tables disagree on arity ({prev} vs {n}); multi-output requests \
                             share one input set"
                        ));
                    }
                    Some(_) => {}
                }
                let table =
                    TruthTable::from_hex(n, hex).map_err(|e| format!("bad table `{hex}`: {e}"))?;
                tables.push(table);
            }
            Ok(Request::Synth { id, tables, timeout_ms })
        }
        "rewrite" => {
            let Some(blif) = value.get("blif").and_then(Json::as_str) else {
                return Err("\"rewrite\" requires a string field \"blif\"".to_string());
            };
            if blif.trim().is_empty() {
                return Err("\"blif\" must not be empty".to_string());
            }
            Ok(Request::Rewrite { id, blif: blif.to_string(), timeout_ms })
        }
        other => Err(format!("unknown op `{other}` (expected ping|stats|shutdown|synth|rewrite)")),
    }
}

/// Starts a response object: `status` first, then the echoed `id`.
fn base(status: &str, id: Option<&str>) -> Vec<(String, Json)> {
    let mut fields = vec![("status".to_string(), Json::Str(status.to_string()))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::Str(id.to_string())));
    }
    fields
}

/// `ok` response for `ping`.
pub fn resp_pong(id: Option<&str>) -> Json {
    let mut fields = base("ok", id);
    fields.push(("op".to_string(), Json::Str("ping".to_string())));
    Json::Obj(fields)
}

/// `ok` acknowledgment for `shutdown` (sent before draining starts).
pub fn resp_shutdown_ack(id: Option<&str>) -> Json {
    let mut fields = base("ok", id);
    fields.push(("op".to_string(), Json::Str("shutdown".to_string())));
    Json::Obj(fields)
}

/// `ok` response for `stats`.
pub fn resp_stats(id: Option<&str>, counters: Json, prometheus: String) -> Json {
    let mut fields = base("ok", id);
    fields.push(("op".to_string(), Json::Str("stats".to_string())));
    fields.push(("counters".to_string(), counters));
    fields.push(("prometheus".to_string(), Json::Str(prometheus)));
    Json::Obj(fields)
}

/// `ok` response for `synth`.
#[allow(clippy::too_many_arguments)]
pub fn resp_synth(
    id: Option<&str>,
    gates: usize,
    outputs: usize,
    solutions: usize,
    chain_text: String,
    wall_ms: f64,
    coalesced: bool,
    report: Json,
) -> Json {
    let mut fields = base("ok", id);
    fields.push(("op".to_string(), Json::Str("synth".to_string())));
    fields.push(("gates".to_string(), Json::UInt(gates as u64)));
    fields.push(("outputs".to_string(), Json::UInt(outputs as u64)));
    fields.push(("solutions".to_string(), Json::UInt(solutions as u64)));
    fields.push(("chain".to_string(), Json::Str(chain_text)));
    fields.push(("wall_ms".to_string(), Json::Num(wall_ms)));
    fields.push(("coalesced".to_string(), Json::Bool(coalesced)));
    fields.push(("report".to_string(), report));
    Json::Obj(fields)
}

/// `ok` response for `rewrite`.
pub fn resp_rewrite(
    id: Option<&str>,
    gates_before: usize,
    gates_after: usize,
    passes: usize,
    blif: String,
    wall_ms: f64,
    report: Json,
) -> Json {
    let mut fields = base("ok", id);
    fields.push(("op".to_string(), Json::Str("rewrite".to_string())));
    fields.push(("gates_before".to_string(), Json::UInt(gates_before as u64)));
    fields.push(("gates_after".to_string(), Json::UInt(gates_after as u64)));
    fields.push(("passes".to_string(), Json::UInt(passes as u64)));
    fields.push(("blif".to_string(), Json::Str(blif)));
    fields.push(("wall_ms".to_string(), Json::Num(wall_ms)));
    fields.push(("report".to_string(), report));
    Json::Obj(fields)
}

/// Structured deadline expiry — the connection stays open.
pub fn resp_timeout(id: Option<&str>, budget_ms: u64) -> Json {
    let mut fields = base("timeout", id);
    fields.push(("budget_ms".to_string(), Json::UInt(budget_ms)));
    Json::Obj(fields)
}

/// Structured admission rejection — the connection stays open.
pub fn resp_overloaded(id: Option<&str>, retry_after_ms: u64) -> Json {
    let mut fields = base("overloaded", id);
    fields.push(("retry_after_ms".to_string(), Json::UInt(retry_after_ms)));
    Json::Obj(fields)
}

/// The daemon is draining: work requests are refused but answered.
pub fn resp_shutting_down(id: Option<&str>) -> Json {
    Json::Obj(base("shutting_down", id))
}

/// Structured parse/validation failure.
pub fn resp_malformed(id: Option<&str>, message: &str) -> Json {
    let mut fields = base("malformed", id);
    fields.push(("message".to_string(), Json::Str(message.to_string())));
    Json::Obj(fields)
}

/// Structured non-budget engine failure.
pub fn resp_error(id: Option<&str>, message: &str) -> Json {
    let mut fields = base("error", id);
    fields.push(("message".to_string(), Json::Str(message.to_string())));
    Json::Obj(fields)
}

/// Why [`FrameReader::next_frame`] stopped.
#[derive(Debug)]
pub enum Frame {
    /// One complete `\n`-terminated line (terminator stripped).
    Line(String),
    /// The peer closed its write half (any unterminated tail bytes are
    /// discarded — a frame without its newline was never committed).
    Eof,
    /// No bytes at all for the idle window: a parked connection, not a
    /// protocol violation.
    IdleTimeout,
    /// A frame started but its newline did not arrive within the frame
    /// window — the slow-loris guard.
    SlowLoris,
    /// The frame exceeded the byte cap before its newline arrived.
    TooLong {
        /// The configured cap that was exceeded.
        limit: usize,
    },
    /// The server's shutdown flag went up while the connection was
    /// between frames.
    ShuttingDown,
}

/// Incremental, deadline-aware reader of `\n`-delimited frames.
///
/// The underlying stream is switched to a short poll read-timeout so
/// every blocking read doubles as a checkpoint: idle windows, per-frame
/// deadlines (slow-loris), byte caps, and the server's shutdown flag
/// are all enforced between polls without extra threads.
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline.
    scanned: usize,
    max_frame: usize,
    idle_timeout: Duration,
    frame_timeout: Duration,
}

/// Poll granularity for reads (and thus for shutdown responsiveness).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

impl FrameReader {
    /// Wraps `stream`; fails if the poll read-timeout cannot be set.
    pub fn new(
        stream: TcpStream,
        max_frame: usize,
        idle_timeout: Duration,
        frame_timeout: Duration,
    ) -> std::io::Result<FrameReader> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        Ok(FrameReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            max_frame,
            idle_timeout,
            frame_timeout,
        })
    }

    /// Reads until one of the [`Frame`] conditions holds. `shutting_down`
    /// is polled between reads (pipelined complete frames are still
    /// delivered first, so a client that sent `shutdown` right after a
    /// request gets both answers).
    pub fn next_frame(&mut self, shutting_down: &dyn Fn() -> bool) -> std::io::Result<Frame> {
        let entered = Instant::now();
        let mut frame_started: Option<Instant> =
            if self.buf.is_empty() { None } else { Some(entered) };
        loop {
            // Bytes searched before the last read hold no newline.
            let from = self.scanned;
            self.scanned = self.buf.len();
            if let Some(pos) = self.buf[from..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=from + pos).collect();
                self.scanned = 0;
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Frame::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.buf.len() > self.max_frame {
                return Ok(Frame::TooLong { limit: self.max_frame });
            }
            match frame_started {
                Some(started) => {
                    if started.elapsed() >= self.frame_timeout {
                        return Ok(Frame::SlowLoris);
                    }
                }
                None => {
                    if shutting_down() {
                        return Ok(Frame::ShuttingDown);
                    }
                    if entered.elapsed() >= self.idle_timeout {
                        return Ok(Frame::IdleTimeout);
                    }
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Frame::Eof),
                Ok(n) => {
                    if self.buf.is_empty() {
                        frame_started = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage_with_a_message() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request("{}").unwrap_err().contains("op"));
        assert!(parse_request("{\"op\":\"fly\"}").unwrap_err().contains("unknown op"));
    }

    #[test]
    fn parse_synth_infers_and_checks_arity() {
        let req = parse_request("{\"op\":\"synth\",\"tables\":[\"e8\"]}").unwrap();
        let Request::Synth { tables, .. } = req else { panic!("expected synth") };
        assert_eq!(tables[0].num_vars(), 3);

        let err = parse_request("{\"op\":\"synth\",\"tables\":[\"e8\",\"8ff8\"]}").unwrap_err();
        assert!(err.contains("disagree"), "{err}");

        let err = parse_request("{\"op\":\"synth\",\"tables\":[]}").unwrap_err();
        assert!(err.contains("empty"), "{err}");

        let big = "f".repeat(128); // 512 bits = 9 vars
        let err =
            parse_request(&format!("{{\"op\":\"synth\",\"tables\":[\"{big}\"]}}")).unwrap_err();
        assert!(err.contains("caps requests"), "{err}");
    }

    #[test]
    fn parse_echoes_numeric_and_string_ids() {
        let req = parse_request("{\"op\":\"ping\",\"id\":7}").unwrap();
        assert_eq!(req.id(), Some("7"));
        let req = parse_request("{\"op\":\"ping\",\"id\":\"abc\"}").unwrap();
        assert_eq!(req.id(), Some("abc"));
    }

    #[test]
    fn parse_validates_timeout() {
        let req =
            parse_request("{\"op\":\"synth\",\"tables\":[\"e8\"],\"timeout_ms\":250}").unwrap();
        let Request::Synth { timeout_ms, .. } = req else { panic!("expected synth") };
        assert_eq!(timeout_ms, Some(250));
        assert!(parse_request("{\"op\":\"synth\",\"tables\":[\"e8\"],\"timeout_ms\":0}").is_err());
    }

    #[test]
    fn frames_split_across_reads_and_pipelined_frames_are_delimited() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let second = Duration::from_secs(5);
        let mut reader = FrameReader::new(server, 1 << 20, second, second).unwrap();
        let never = || false;
        // One 10 KB frame in three writes (so several reads), with a
        // second frame pipelined behind it and a third after a pause.
        let big = "x".repeat(10_000);
        client.write_all(&big.as_bytes()[..3000]).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        client.write_all(&big.as_bytes()[3000..]).unwrap();
        client.write_all(b"\r\nsecond\n").unwrap();
        let Frame::Line(line) = reader.next_frame(&never).unwrap() else { panic!("big frame") };
        assert_eq!(line, big);
        let Frame::Line(line) = reader.next_frame(&never).unwrap() else { panic!("2nd frame") };
        assert_eq!(line, "second");
        client.write_all("thïrd\n".as_bytes()).unwrap();
        let Frame::Line(line) = reader.next_frame(&never).unwrap() else { panic!("3rd frame") };
        assert_eq!(line, "thïrd");
        drop(client);
        assert!(matches!(reader.next_frame(&never).unwrap(), Frame::Eof));
    }

    #[test]
    fn responses_always_carry_a_status() {
        for resp in [
            resp_pong(Some("x")),
            resp_timeout(None, 5),
            resp_overloaded(Some("y"), 100),
            resp_malformed(None, "boom"),
            resp_error(Some("z"), "bad"),
            resp_shutting_down(None),
        ] {
            assert!(resp.get("status").and_then(Json::as_str).is_some());
        }
        assert_eq!(resp_pong(Some("x")).get("id").and_then(Json::as_str), Some("x"));
    }
}
