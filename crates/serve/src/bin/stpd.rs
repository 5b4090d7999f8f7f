//! `stpd` — the crash-safe synthesis daemon.
//!
//! ```text
//! Usage: stpd [options]
//!
//! Options:
//!   --addr <host:port>        bind address (default 127.0.0.1:0; port 0
//!                             picks an ephemeral port, printed on stdout)
//!   --store <path>            persistent store snapshot; opened with its
//!                             crash journal and saved on graceful shutdown
//!   --capacity <n>            max concurrently admitted work requests
//!                             (default 4); excess gets `overloaded`
//!   --jobs <n>                worker threads per synthesis call
//!                             (default from STP_JOBS, else 1; 0 = one
//!                             per CPU)
//!   --max-gates <n>           gate-count ceiling per request (default 20)
//!   --timeout-ms <ms>         default per-request deadline (default 10000)
//!   --drain-timeout-ms <ms>   shutdown drain window (default 5000)
//!   --idle-timeout-ms <ms>    close byte-free connections after (default
//!                             60000)
//!   --frame-timeout-ms <ms>   slow-loris guard: max wall time per frame
//!                             (default 10000)
//!   --max-frame-bytes <n>     per-frame byte cap (default 1048576)
//!   --retry-after-ms <ms>     hint sent with `overloaded` (default 100)
//!   --port-file <path>        also write the bound address to <path>
//!   --log <level>             off|error|warn|info|debug|trace
//! ```
//!
//! The daemon speaks line-delimited JSON; see the `stp_serve::protocol`
//! docs for the wire format. Shutdown is a protocol request (`{"op":
//! "shutdown"}`): the daemon stops accepting, drains in-flight work
//! under the drain window, and saves the store atomically. Exit code 0
//! means a graceful drain; 1 a runtime failure; 2 a usage error.

use std::process::ExitCode;
use std::time::Duration;

use stp_serve::server::{ServeConfig, Server};
use stp_synth::cli::{self, Obs};

const USAGE: &str = "stpd [--addr <host:port>] [--store <path>] [--capacity <n>] [--jobs <n>] \
     [--max-gates <n>] [--timeout-ms <ms>] [--drain-timeout-ms <ms>] \
     [--idle-timeout-ms <ms>] [--frame-timeout-ms <ms>] [--max-frame-bytes <n>] \
     [--retry-after-ms <ms>] [--port-file <path>] [--log <level>]";

/// Takes a count or duration that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    args: &mut cli::Args,
    flag: &str,
    expects: &str,
) -> T {
    let value = args.value(flag, expects);
    if value == T::default() {
        cli::fail(format!("{flag} expects {expects} >= 1, got `0`"));
    }
    value
}

fn main() -> ExitCode {
    let (jobs, mut args) = cli::start();
    let mut obs = Obs::new("stpd", &args);
    let mut config = ServeConfig { jobs, ..ServeConfig::default() };
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.value(&a, "<host:port>"),
            "--store" => config.store_path = Some(args.path(&a).into()),
            "--port-file" => port_file = Some(args.path(&a)),
            "--capacity" => config.capacity = positive(&mut args, &a, "a slot count"),
            "--jobs" => config.jobs = args.value(&a, "a thread count (0 = one per CPU)"),
            "--max-gates" => config.max_gates = positive(&mut args, &a, "a gate count"),
            "--max-frame-bytes" => {
                config.max_frame_bytes = positive(&mut args, &a, "a byte count");
            }
            "--retry-after-ms" => config.retry_after_ms = args.value(&a, "milliseconds"),
            flag @ ("--timeout-ms" | "--drain-timeout-ms" | "--idle-timeout-ms"
            | "--frame-timeout-ms") => {
                let value = Duration::from_millis(positive(&mut args, flag, "milliseconds"));
                match flag {
                    "--timeout-ms" => config.default_timeout = value,
                    "--drain-timeout-ms" => config.drain_timeout = value,
                    "--idle-timeout-ms" => config.idle_timeout = value,
                    _ => config.frame_timeout = value,
                }
            }
            flag @ "--log" => obs.take(flag, &mut args),
            "--help" | "-h" => cli::usage(USAGE),
            other => cli::unknown_option(other),
        }
    }

    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("stpd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stpd: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tests and scripts parse this exact line to find the ephemeral
    // port; keep it first and flushed.
    println!("stpd listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, bound.to_string()) {
            eprintln!("stpd: cannot write --port-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(summary) => {
            if summary.drained_clean {
                stp_telemetry::info!("stpd: drained clean");
            } else {
                stp_telemetry::warn!("stpd: drain deadline expired; in-flight work was aborted");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stpd: {e}");
            ExitCode::FAILURE
        }
    }
}
