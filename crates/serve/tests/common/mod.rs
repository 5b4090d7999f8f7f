//! Shared helpers for the stpd integration suites: scratch dirs, daemon
//! spawning (parsing the `stpd listening on <addr>` line), a tiny
//! line-oriented client, and the seeded table pool of the load test.

// Each integration binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stp_telemetry::Json;

/// Self-cleaning per-test temp dir.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("stp-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    pub fn store(&self) -> PathBuf {
        self.0.join("store.txt")
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A running stpd child. Killed on drop unless it already exited.
pub struct Daemon {
    pub child: Child,
    pub addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `stpd` on an ephemeral port with `extra` flags (and optional
/// failpoint env), waiting for the listening line on stdout.
pub fn spawn_stpd(extra: &[&str], failpoints: Option<&str>) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stpd"));
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env("STP_JOBS", "1");
    match failpoints {
        Some(spec) => cmd.env("STP_FAILPOINTS", spec),
        None => cmd.env_remove("STP_FAILPOINTS"),
    };
    let mut child = cmd.spawn().expect("spawn stpd");
    let stdout = child.stdout.take().expect("stpd stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read stpd listening line");
    let addr = line
        .trim()
        .strip_prefix("stpd listening on ")
        .unwrap_or_else(|| panic!("unexpected stpd banner: {line:?}"))
        .to_string();
    Daemon { child, addr }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to stpd");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_millis(50))).expect("set client read timeout");
        Conn { stream, buf: Vec::new() }
    }

    /// Sends one frame (newline appended).
    pub fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send frame");
        self.stream.write_all(b"\n").expect("send newline");
    }

    /// Sends raw bytes verbatim (for malformed/oversized probes).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send raw bytes");
    }

    /// Reads one response line within `window`; `None` on timeout or a
    /// closed socket with no buffered line.
    pub fn recv(&mut self, window: Duration) -> Option<String> {
        let deadline = Instant::now() + window;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Some(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            }
            if Instant::now() >= deadline {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }

    /// Sends a frame and parses the next response line as JSON.
    pub fn roundtrip(&mut self, line: &str, window: Duration) -> Json {
        self.send(line);
        let resp =
            self.recv(window).unwrap_or_else(|| panic!("no response within {window:?} to {line}"));
        Json::parse(&resp).unwrap_or_else(|e| panic!("unparsable response {resp:?}: {e}"))
    }

    /// `true` once the server has closed this connection (EOF).
    pub fn closed(&mut self, window: Duration) -> bool {
        let deadline = Instant::now() + window;
        let mut chunk = [0u8; 256];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return true,
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }
}

/// The `status` field of a response.
pub fn status(resp: &Json) -> &str {
    resp.get("status").and_then(Json::as_str).unwrap_or("<missing>")
}

/// A named counter out of a `stats` response (0 when absent).
pub fn counter(stats: &Json, name: &str) -> u64 {
    stats.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

/// Requests a graceful shutdown and waits for exit, asserting exit 0.
pub fn shutdown_and_wait(mut daemon: Daemon) {
    let mut conn = Conn::open(&daemon.addr);
    let resp = conn.roundtrip("{\"op\":\"shutdown\"}", Duration::from_secs(5));
    assert_eq!(status(&resp), "ok", "shutdown must be acknowledged: {resp}");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match daemon.child.try_wait().expect("poll stpd") {
            Some(code) => {
                assert!(code.success(), "stpd must exit 0 after graceful shutdown, got {code}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "stpd did not exit after shutdown");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The multiplicative LCG used for the request mix (MMIX constants).
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // The high bits of an LCG are the good ones.
        self.0 >> 11
    }
}

/// Builds the deduplicated table pool: `classes` distinct hex tables of
/// the given arity, deterministically from `seed`.
pub fn generate_tables(seed: u64, arity: usize, classes: usize) -> Vec<String> {
    let digits = ((1usize << arity) / 4).max(1);
    let mut lcg = Lcg::new(seed);
    let mut pool: Vec<String> = Vec::with_capacity(classes);
    while pool.len() < classes {
        let mut hex = String::with_capacity(digits);
        for _ in 0..digits {
            let nibble = (lcg.next_u64() & 0xf) as u32;
            hex.push(char::from_digit(nibble, 16).expect("nibble < 16"));
        }
        if !pool.contains(&hex) {
            pool.push(hex);
        }
    }
    pool
}
