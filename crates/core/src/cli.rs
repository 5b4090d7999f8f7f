//! The command-line front end every binary in the workspace shares.
//!
//! Each binary keeps its own `match` over exactly the flags it accepts;
//! this module owns the decisions they all make the same way:
//!
//! - **Startup** ([`start`]): the log level from `STP_LOG`, then the
//!   strict `STP_JOBS` check, before any argument is read.
//! - **The usage contract:** a usage error — an unknown option, a
//!   missing or malformed flag value, a malformed `STP_JOBS` — prints
//!   `error: …` and exits 2 ([`fail`], [`usage`], [`Args::value`]). A
//!   runtime failure exits 1 ([`abort`], [`Obs::fail_run`]), so scripts
//!   can tell the two apart.
//! - **The observability flags** `--log`, `--profile`,
//!   `--profile-folded`, `--stats` and `--trace-json` ([`Obs::take`]),
//!   and their flush on every exit path ([`Obs::finish`]).
//! - **The NPN solution store** behind `--store` / `--warm-npn4`
//!   ([`StoreArgs`]): open, optional warm, save, with the same stderr
//!   lines everywhere.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

use stp_store::Store;
use stp_telemetry::{Json, Level, ProfileNode, RunReport};

use crate::{jobs_from_env_checked, warm_npn4, SynthesisConfig};

/// The values `--log` accepts.
const LEVELS: &str = "off|error|warn|info|debug|trace";

/// A usage error: prints `error: {message}` and exits 2.
pub fn fail(message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Prints `usage: {synopsis}` and exits 2, like any usage error.
pub fn usage(synopsis: &str) -> ! {
    eprintln!("usage: {synopsis}");
    std::process::exit(2)
}

/// A runtime failure: prints `error: {message}` and exits 1.
pub fn abort(message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

/// Startup shared by every binary: sets the log level from `STP_LOG`,
/// then rejects a malformed `STP_JOBS` as a usage error, never a silent
/// fall-back to sequential. Returns the default worker count and the
/// arguments.
pub fn start() -> (usize, Args) {
    stp_telemetry::init_from_env();
    let jobs = jobs_from_env_checked().unwrap_or_else(|message| fail(message));
    (jobs, Args { all: std::env::args().skip(1).collect(), next: 0 })
}

/// A cursor over the command-line arguments (program name excluded).
/// Iterating yields each argument; a flag's handler takes its value
/// with [`Args::value`] or [`Args::path`].
pub struct Args {
    all: Vec<String>,
    next: usize,
}

impl Args {
    /// Every argument, as the binary was given them.
    pub fn all(&self) -> &[String] {
        &self.all
    }

    /// Takes the value of `flag`, failing loudly (exit 2): a missing
    /// or unparsable value is a usage error, never a silent fall-back to
    /// the default. `expects` names what the flag wants.
    pub fn value<T: FromStr>(&mut self, flag: &str, expects: &str) -> T {
        let Some(raw) = self.next() else { fail(format!("{flag} expects {expects}")) };
        raw.parse().unwrap_or_else(|_| fail(format!("{flag} expects {expects}, got `{raw}`")))
    }

    /// Takes the path that follows `flag`.
    pub fn path(&mut self, flag: &str) -> String {
        self.value(flag, "a path")
    }

    /// Takes a number of seconds that a [`Duration`] can hold: a
    /// negative, NaN or overflowing value is a usage error.
    pub fn seconds(&mut self, flag: &str) -> Duration {
        let secs: f64 = self.value(flag, "a number of seconds");
        Duration::try_from_secs_f64(secs)
            .unwrap_or_else(|_| fail(format!("{flag} expects a number of seconds, got `{secs}`")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.all.get(self.next)?.clone();
        self.next += 1;
        Some(arg)
    }
}

/// Rejects an option the binary does not accept.
pub fn unknown_option(option: &str) -> ! {
    fail(format!("unknown option `{option}`"))
}

/// The observability flags of one run and their flush at exit.
pub struct Obs {
    tool: &'static str,
    args: Vec<String>,
    start: Instant,
    stats: bool,
    folded: Option<String>,
}

impl Obs {
    /// Starts the run's clock; `tool` and `args` go into its RunReport.
    pub fn new(tool: &'static str, args: &Args) -> Obs {
        Obs { tool, args: args.all.clone(), start: Instant::now(), stats: false, folded: None }
    }

    /// Handles one observability flag, taking its value from `args`:
    /// `--log <level>`, `--profile`, `--profile-folded <path>`,
    /// `--stats` or `--trace-json <path>`. Which of them a binary
    /// accepts is its own `match`'s decision.
    pub fn take(&mut self, flag: &str, args: &mut Args) {
        match flag {
            "--log" => {
                let raw: String = args.value(flag, LEVELS);
                let level = Level::parse(&raw)
                    .unwrap_or_else(|| fail(format!("{flag} expects {LEVELS}, got `{raw}`")));
                stp_telemetry::set_level(level);
            }
            "--profile" => stp_telemetry::profile::set_enabled(true),
            "--profile-folded" => {
                self.folded = Some(args.path(flag));
                stp_telemetry::profile::set_enabled(true);
            }
            "--stats" => self.stats = true,
            "--trace-json" => {
                let path = args.path(flag);
                if let Err(e) = stp_telemetry::trace::install_writer(path.as_ref()) {
                    eprintln!("error opening trace file {path}: {e}");
                    std::process::exit(1);
                }
            }
            other => panic!("`{other}` is not an observability flag"),
        }
    }

    /// Ends the profile: writes the folded stacks when
    /// `--profile-folded` asked for them and returns the tree (`None`
    /// when profiling is off).
    pub fn take_profile(&self) -> Option<ProfileNode> {
        stp_telemetry::profile::finish(self.folded.as_deref().map(Path::new))
    }

    /// The flush on every exit path: prints the profile tree to stderr,
    /// under `--stats` prints the RunReport (`outcome`, `extra` and the
    /// tree) as the final stdout line, and finishes the trace.
    pub fn finish(&self, outcome: &str, extra: Vec<(&str, Json)>) {
        let profile = self.take_profile();
        if let Some(tree) = &profile {
            eprint!("{}", tree.render_text());
        }
        if self.stats {
            let snapshot = stp_telemetry::metrics_global().snapshot();
            let wall_s = self.start.elapsed().as_secs_f64();
            let mut report =
                RunReport::from_snapshot(self.tool, &self.args, outcome, wall_s, &snapshot);
            for (key, value) in extra {
                report = report.with_extra(key, value);
            }
            if let Some(tree) = profile {
                report = report.with_profile(tree);
            }
            println!("{}", report.to_json_string());
        }
        stp_telemetry::trace::finish();
    }

    /// A runtime failure after startup: prints `line` to stderr, flushes
    /// the run with `outcome` and exits 1.
    pub fn fail_run(&self, line: impl Display, outcome: &str) -> ! {
        eprintln!("{line}");
        self.finish(outcome, Vec::new());
        std::process::exit(1)
    }
}

/// The `--store <path>` and `--warm-npn4` flags: the NPN solution store
/// a run answers from.
#[derive(Default)]
pub struct StoreArgs {
    /// The snapshot path (`--store`); without it the store lives in
    /// memory for the run.
    pub path: Option<String>,
    /// Pre-synthesize every NPN class of arity ≤ 4 (`--warm-npn4`).
    pub warm: bool,
}

impl StoreArgs {
    /// Whether either flag was given.
    pub fn wanted(&self) -> bool {
        self.path.is_some() || self.warm
    }

    /// Opens the store — snapshot plus crash journal (see
    /// [`Store::open`]), or an empty in-memory store without a path —
    /// and under `--warm-npn4` warms it with `jobs` workers and `budget`
    /// per class. A corrupt file or a failed warm is a runtime failure.
    pub fn open(&self, obs: &Obs, jobs: usize, budget: Duration) -> Store {
        let store = match &self.path {
            Some(p) => match Store::open(p) {
                Ok(store) => {
                    if !store.is_empty() {
                        eprintln!("store: loaded {} classes from {p}", store.len());
                    }
                    store
                }
                Err(e) => {
                    obs.fail_run(format!("error loading store: {e}"), &format!("store error: {e}"))
                }
            },
            None => Store::new(),
        };
        if self.warm {
            let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
            match warm_npn4(&store, &config, Some(budget)) {
                Ok(r) => eprintln!(
                    "store: warmed {} classes ({} solved, {} cached, {} exhausted)",
                    r.classes, r.solved, r.cached, r.exhausted
                ),
                Err(e) => {
                    obs.fail_run(format!("error warming store: {e}"), &format!("store error: {e}"))
                }
            }
        }
        store
    }

    /// Saves the store back to `--store <path>`, when one was given.
    pub fn save(&self, obs: &Obs, store: &Store) {
        let Some(p) = &self.path else { return };
        match store.save(p) {
            Ok(()) => eprintln!("store: saved {} classes to {p}", store.len()),
            Err(e) => {
                obs.fail_run(format!("error saving store {p}: {e}"), &format!("store error: {e}"))
            }
        }
    }
}
