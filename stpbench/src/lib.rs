//! `stpbench`: the repository benchmark of the STP exact-synthesis stack.
//!
//! Four workloads each stress a different layer (see `README.md` for why
//! each was chosen and which metric each layer should move):
//!
//! * `npn4_cold` — Table I's NPN4 row without its 7-gate classes: every
//!   class representative of at most 6 gates through `synthesize`,
//!   factorization-bound;
//! * `fdsd8_cold` — FDSD8 functions through `synthesize`,
//!   verification-bound;
//! * `npn_cache` — a closed-loop caller of `synthesize_npn_with_store`
//!   on a journaled store, bound by NPN canonicalization and map-back;
//! * `stpd_open` — an open-loop, then closed-loop, client of the `stpd`
//!   daemon mixing `synth` and `rewrite` requests.
//!
//! Every workload drives the system from one thread (one connection for
//! `stpd_open`). The benchmark host has two cores shared with other
//! tenants; a second driving thread made every timing depend on what the
//! other core was doing, and left nothing for the daemon, the kernel and
//! the neighbours.
//!
//! Every workload reports the same end-to-end metrics (throughput,
//! latency median and tail, set-up time) and, in a traced
//! run, the same per-layer metrics, so one result schema covers all of
//! them. Every answer is checked; a wrong answer fails the run.

mod batch;
mod cache;
pub mod check;
pub mod compare;
mod layers;
pub mod report;
pub mod serve;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

pub use report::RunResult;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All NPN4 class representatives, synthesized cold.
    Npn4Cold,
    /// The FDSD8 suite, synthesized cold.
    Fdsd8Cold,
    /// Closed-loop callers of the NPN store.
    NpnCache,
    /// Open-loop traffic against the `stpd` daemon.
    StpdOpen,
}

impl Workload {
    /// Every workload, in the order the full run executes them.
    pub const ALL: [Workload; 4] =
        [Workload::Npn4Cold, Workload::Fdsd8Cold, Workload::NpnCache, Workload::StpdOpen];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Npn4Cold => "npn4_cold",
            Workload::Fdsd8Cold => "fdsd8_cold",
            Workload::NpnCache => "npn_cache",
            Workload::StpdOpen => "stpd_open",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of the workloads. [`Sizes::FULL`] is the benchmark; tests
/// run the same code paths on [`Sizes::TINY`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// NPN4 class representatives per pass (at most 194, the classes of
    /// at most 6 gates).
    pub npn4_classes: usize,
    /// FDSD8 functions per pass.
    pub fdsd8_functions: usize,
    /// Distinct 4-input functions in the hot pool of `npn_cache` and
    /// `stpd_open`.
    pub hot: usize,
    /// Distinct 5-input functions in the `npn_cache` fresh pool.
    pub cache_fresh: usize,
    /// Networks in the `stpd_open` rewrite pool; a request period rewrites
    /// each once among ten times as many requests (one second of the
    /// open loop for [`Sizes::FULL`]).
    pub serve_networks: usize,
    /// `stpd_open` warm-up requests (part of set-up).
    pub serve_warmup: usize,
    /// Set-up rounds per run of the stream workloads; `setup_s` is the
    /// median over rounds (see [`set_up`]). The batch workloads build
    /// their suite before every pass instead.
    pub setup_rounds: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        npn4_classes: 194,
        fdsd8_functions: 24,
        hot: 16,
        cache_fresh: 128,
        serve_networks: 40,
        serve_warmup: 300,
        setup_rounds: 5,
    };

    /// Sizes small enough for a test to run every workload in seconds.
    pub const TINY: Sizes = Sizes {
        npn4_classes: 24,
        fdsd8_functions: 6,
        hot: 4,
        cache_fresh: 4,
        serve_networks: 4,
        serve_warmup: 20,
        setup_rounds: 2,
    };
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Work directory for stores and daemon files; created by the run
    /// and removed when it ends.
    pub workdir: PathBuf,
    /// The `stpd` executable `stpd_open` starts.
    pub stpd: PathBuf,
}

/// Runs `setup` (given the round index) `rounds` times, and returns the
/// last result with the median set-up time in seconds. The previous
/// round's result is dropped before a round starts.
fn set_up<T>(
    rounds: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(rounds);
    let mut last = None;
    for round in 0..rounds.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup(round)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), stats::median(&times)))
}

/// Runs one workload and returns its checked result.
///
/// # Errors
///
/// A message when the workload cannot run at all (set-up failed, the
/// daemon did not start); wrong answers are not errors but counted in the
/// result.
pub fn run(workload: Workload, config: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&config.workdir)
        .map_err(|e| format!("cannot create {}: {e}", config.workdir.display()))?;
    let result = match workload {
        Workload::Npn4Cold => batch::run(batch::Suite::Npn4, config),
        Workload::Fdsd8Cold => batch::run(batch::Suite::Fdsd8, config),
        Workload::NpnCache => cache::run(config),
        Workload::StpdOpen => serve::run(config),
    };
    // Best effort: a leftover work directory is not a benchmark failure.
    let _ = std::fs::remove_dir_all(&config.workdir);
    result
}
