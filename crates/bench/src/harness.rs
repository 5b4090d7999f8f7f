//! The Table I measurement harness.
//!
//! Runs each algorithm (BMS / FEN / ABC-like / STP) over a suite with a
//! per-instance wall-clock timeout and aggregates the quantities the
//! paper reports: mean solve time over solved instances, the number of
//! timeouts (`#t/o`), the number solved (`#ok`), and — for STP — the
//! per-solution mean time and the average solution count. Failures are
//! split into timeouts and hard errors ([`InstanceFailure`]); only the
//! former land in the `#t/o` column.
//!
//! Suites run through the two-level scheduler
//! ([`stp_synth::run_instances`]): the instance-level pool distributes
//! whole specs across workers, each worker's synthesis nests the
//! shape-level pool, and one global `jobs` budget covers both levels.
//! Results are merged in instance-index order, so the rendered table,
//! the per-instance transcript, and the summed counter totals are
//! identical to the sequential loop at any jobs count (counters are
//! attributed per instance with [`stp_telemetry::CounterScope`], not
//! global snapshot deltas, so concurrent instances cannot bleed into
//! each other). One caveat: when a shared store coalesces duplicate NPN
//! classes at `jobs > 1`, the solve's counters land on whichever
//! duplicate won the race — per-instance attribution shifts, suite
//! totals do not.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stp_baselines::{
    abc_synthesize, bms_synthesize, fen_synthesize, BaselineConfig, BaselineError,
};
use stp_chain::Chain;
use stp_store::Store;
use stp_synth::{synthesize, synthesize_npn_with_store, SynthesisConfig, SynthesisError};
use stp_tt::TruthTable;

use crate::suites::Suite;

/// The four algorithms of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Busy Man's Synthesis (single-solver SSV encoding).
    Bms,
    /// Fence enumeration with topological constraints.
    Fen,
    /// CEGAR minterm refinement (the ABC-like reference).
    Abc,
    /// The paper's STP-based engine.
    Stp,
}

impl Algorithm {
    /// All four, in the paper's column order.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Bms, Algorithm::Fen, Algorithm::Abc, Algorithm::Stp];

    /// Column label used in the rendered table.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Bms => "BMS",
            Algorithm::Fen => "FEN",
            Algorithm::Abc => "ABC",
            Algorithm::Stp => "STP",
        }
    }
}

/// Why an instance went unsolved — the split behind Table I's `#t/o`
/// column versus the error tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceFailure {
    /// The per-instance wall-clock budget expired (counted in `#t/o`).
    Timeout,
    /// The engine failed for a non-budget reason — gate-limit
    /// exhaustion, an internal error, or a panicking worker. Counted as
    /// an error, never as a timeout: a crash must not masquerade as a
    /// budget problem.
    Error(String),
}

/// Outcome of one (algorithm, instance) run.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Optimum gate count, when solved.
    pub gate_count: Option<usize>,
    /// Number of optimum solutions found (1 for the CNF baselines; the
    /// full solution-set size for STP).
    pub num_solutions: usize,
    /// Whether the instance was solved before the timeout.
    pub solved: bool,
    /// Why the instance went unsolved (`None` iff `solved`).
    pub failure: Option<InstanceFailure>,
    /// The optimum chains found (every optimum for STP, the single
    /// solution for the CNF baselines, empty when unsolved) — the
    /// basis of suite-level determinism transcripts.
    pub chains: Vec<Chain>,
    /// Telemetry counters attributable to this run: everything recorded
    /// on this thread (and its shape workers) while the instance ran,
    /// captured with [`stp_telemetry::CounterScope`] so concurrent
    /// instances do not observe each other's work.
    pub counters: BTreeMap<String, u64>,
}

impl InstanceOutcome {
    /// An error-slot outcome for an instance whose task never produced
    /// a result (e.g. the worker panicked at the pool boundary).
    fn error_slot(message: String) -> InstanceOutcome {
        InstanceOutcome {
            elapsed: Duration::ZERO,
            gate_count: None,
            num_solutions: 0,
            solved: false,
            failure: Some(InstanceFailure::Error(message)),
            chains: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

/// Runs one instance under a timeout.
///
/// `jobs` is the STP engine's worker-thread knob (`0` = one per CPU,
/// `1` = sequential); the CNF baselines are single-threaded and ignore
/// it. Gate limits and other failures are folded into `solved = false`,
/// as a bench harness should never abort the whole table on one
/// instance.
pub fn run_instance(
    algorithm: Algorithm,
    spec: &TruthTable,
    timeout: Duration,
    jobs: usize,
) -> InstanceOutcome {
    run_instance_with_store(algorithm, spec, timeout, jobs, None)
}

/// [`run_instance`] with an optional shared NPN solution store.
///
/// With `Some(store)` the STP engine routes through
/// [`synthesize_npn_with_store`]: repeated (or pre-warmed) NPN classes
/// answer from the store instead of re-running the search. The CNF
/// baselines never use the store — their columns measure raw solver
/// time.
pub fn run_instance_with_store(
    algorithm: Algorithm,
    spec: &TruthTable,
    timeout: Duration,
    jobs: usize,
    store: Option<&Store>,
) -> InstanceOutcome {
    let scope = stp_telemetry::CounterScope::enter();
    let start = Instant::now();
    let deadline = Some(start + timeout);
    let (gate_count, num_solutions, chains, failure) = match algorithm {
        Algorithm::Stp => {
            let config = SynthesisConfig { deadline, jobs, ..SynthesisConfig::default() };
            let result = match store {
                Some(store) => synthesize_npn_with_store(spec, &config, store),
                None => synthesize(spec, &config),
            };
            match result {
                Ok(result) => (Some(result.gate_count), result.chains.len(), result.chains, None),
                Err(SynthesisError::Timeout) => {
                    (None, 0, Vec::new(), Some(InstanceFailure::Timeout))
                }
                Err(e) => (None, 0, Vec::new(), Some(InstanceFailure::Error(e.to_string()))),
            }
        }
        baseline => {
            let config = BaselineConfig { deadline, ..BaselineConfig::default() };
            let result = match baseline {
                Algorithm::Bms => bms_synthesize(spec, &config),
                Algorithm::Fen => fen_synthesize(spec, &config),
                Algorithm::Abc => abc_synthesize(spec, &config),
                Algorithm::Stp => unreachable!("handled above"),
            };
            match result {
                Ok(r) => (Some(r.gate_count), 1, vec![r.chain], None),
                Err(BaselineError::Timeout) => {
                    (None, 0, Vec::new(), Some(InstanceFailure::Timeout))
                }
                Err(e) => (None, 0, Vec::new(), Some(InstanceFailure::Error(e.to_string()))),
            }
        }
    };
    let elapsed = start.elapsed();
    let counters = scope.finish();
    InstanceOutcome {
        elapsed,
        gate_count,
        num_solutions,
        solved: failure.is_none(),
        failure,
        chains,
        counters,
    }
}

/// A budget-escalation ladder for instances that exhaust their
/// timeout: each rung is offered in order until one solves (or the
/// ladder runs out).
///
/// The ladder composes with the store's negative cache: a class
/// recorded as [`stp_store::Entry::Exhausted`] at budget `b` is only
/// re-attempted by a rung *strictly greater* than `b`, so doubling
/// rungs each re-run the search exactly once instead of replaying
/// failed budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The per-attempt wall-clock budgets, offered in order. Never
    /// empty (see [`RetryPolicy::escalating`]).
    pub budgets: Vec<Duration>,
}

impl RetryPolicy {
    /// A single attempt at `timeout` — the no-retry baseline.
    pub fn single(timeout: Duration) -> RetryPolicy {
        RetryPolicy { budgets: vec![timeout] }
    }

    /// A doubling ladder: `attempts` rungs starting at `base`
    /// (`[t, 2t, 4t, …]`), clamped to at least one rung.
    pub fn escalating(base: Duration, attempts: usize) -> RetryPolicy {
        let budgets =
            (0..attempts.max(1)).map(|i| base.saturating_mul(1u32 << i.min(31))).collect();
        RetryPolicy { budgets }
    }
}

/// [`run_instance_with_store`] under a [`RetryPolicy`]: rungs are
/// offered in order until one solves. The reported outcome carries the
/// *cumulative* elapsed time over every attempt (the cost actually
/// paid) but the **last attempt's** counters — summing over failed
/// attempts would make `factor.candidates` etc. describe work the
/// reported solve never did. When more than one rung actually ran, the
/// cumulative sums are still available under the `bench.retry.`
/// prefix (e.g. `bench.retry.solver.queries`), alongside
/// `bench.retry.attempts`.
pub fn run_instance_with_retry(
    algorithm: Algorithm,
    spec: &TruthTable,
    policy: &RetryPolicy,
    jobs: usize,
    store: Option<&Store>,
) -> InstanceOutcome {
    let mut elapsed = Duration::ZERO;
    let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
    let mut attempts_run = 0usize;
    let mut last: Option<InstanceOutcome> = None;
    for (attempt, &budget) in policy.budgets.iter().enumerate() {
        if attempt > 0 {
            stp_telemetry::counter!("bench.retry_attempts").inc();
        }
        attempts_run += 1;
        let outcome = run_instance_with_store(algorithm, spec, budget, jobs, store);
        elapsed += outcome.elapsed;
        for (name, delta) in &outcome.counters {
            *cumulative.entry(name.clone()).or_insert(0) += delta;
        }
        let solved = outcome.solved;
        last = Some(outcome);
        if solved {
            if attempt > 0 {
                stp_telemetry::counter!("bench.retry_rescues").inc();
            }
            break;
        }
    }
    let mut outcome = last.expect("RetryPolicy budgets are never empty");
    outcome.elapsed = elapsed;
    if attempts_run > 1 {
        let retry: Vec<(String, u64)> =
            cumulative.into_iter().map(|(name, v)| (format!("bench.retry.{name}"), v)).collect();
        outcome.counters.extend(retry);
        outcome.counters.insert("bench.retry.attempts".to_string(), attempts_run as u64);
    }
    outcome
}

/// Aggregated results of one algorithm over one suite — one cell group
/// of Table I.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// Suite name.
    pub suite: &'static str,
    /// Mean solve time over *solved* instances (the paper's `mean`).
    pub mean_time: Duration,
    /// Number of instances hitting the timeout (`#t/o`).
    pub timeouts: usize,
    /// Number of instances failing for a non-budget reason
    /// ([`InstanceFailure::Error`]) — kept out of `#t/o` so a crash
    /// cannot masquerade as a budget problem.
    pub errors: usize,
    /// Number of solved instances (`#ok`).
    pub solved: usize,
    /// Total time over solved instances (basis of the STP `Total`
    /// column).
    pub total_time: Duration,
    /// Average number of solutions over solved instances (STP's
    /// `number` column; 1 for the baselines).
    pub mean_solutions: f64,
    /// Optimum gate counts per solved instance (index-aligned with the
    /// suite, `None` for unsolved) — used by the cross-checks.
    pub gate_counts: Vec<Option<usize>>,
    /// Telemetry counters summed over every instance (solved or not).
    pub counters: BTreeMap<String, u64>,
}

impl SuiteReport {
    /// Mean time per solution (the STP `mean` column).
    pub fn mean_time_per_solution(&self) -> Duration {
        if self.mean_solutions > 0.0 && self.solved > 0 {
            Duration::from_secs_f64(self.mean_time.as_secs_f64() / self.mean_solutions)
        } else {
            Duration::ZERO
        }
    }
}

/// Runs one algorithm over a whole suite; `jobs` as in
/// [`run_instance`].
pub fn run_suite(
    algorithm: Algorithm,
    suite: &Suite,
    timeout: Duration,
    jobs: usize,
) -> SuiteReport {
    run_suite_with_store(algorithm, suite, timeout, jobs, None)
}

/// [`run_suite`] with an optional shared NPN solution store (see
/// [`run_instance_with_store`]).
pub fn run_suite_with_store(
    algorithm: Algorithm,
    suite: &Suite,
    timeout: Duration,
    jobs: usize,
    store: Option<&Store>,
) -> SuiteReport {
    run_suite_with_retry(algorithm, suite, &RetryPolicy::single(timeout), jobs, store)
}

/// Runs every instance of a suite through the two-level scheduler and
/// returns the per-instance outcomes in suite order.
///
/// `jobs` is the **single global budget** shared by both scheduler
/// levels: it is split statically between instance-level workers and
/// each worker's nested shape-level pool (see
/// [`stp_synth::run_instances`]), so `jobs = N` never runs more than
/// `N` synthesis threads. The outcome vector is index-aligned with
/// `suite.functions` regardless of which worker ran which instance; an
/// instance whose task panicked yields an
/// [`InstanceFailure::Error`]-slot outcome instead of poisoning the
/// suite.
pub fn run_suite_outcomes(
    algorithm: Algorithm,
    suite: &Suite,
    policy: &RetryPolicy,
    jobs: usize,
    store: Option<&Store>,
) -> Vec<InstanceOutcome> {
    // Suite names are `'static`, so under --profile every suite gets
    // its own subtree (and the synthesis phases nest beneath it) with
    // no per-run label allocation.
    let _suite = stp_telemetry::Span::enter(suite.name);
    let results = stp_synth::run_instances(jobs, suite.functions.len(), |idx, shape_jobs| {
        stp_faultsim::fail_point!("bench.instance", hit = idx as u64 + 1);
        run_instance_with_retry(algorithm, &suite.functions[idx], policy, shape_jobs, store)
    });
    results.into_iter().map(|result| result.unwrap_or_else(InstanceOutcome::error_slot)).collect()
}

/// [`run_suite_with_store`] under a [`RetryPolicy`] (see
/// [`run_instance_with_retry`]).
pub fn run_suite_with_retry(
    algorithm: Algorithm,
    suite: &Suite,
    policy: &RetryPolicy,
    jobs: usize,
    store: Option<&Store>,
) -> SuiteReport {
    let outcomes = run_suite_outcomes(algorithm, suite, policy, jobs, store);
    let mut total = Duration::ZERO;
    let mut timeouts = 0usize;
    let mut errors = 0usize;
    let mut solved = 0usize;
    let mut solutions_sum = 0usize;
    let mut gate_counts = Vec::with_capacity(outcomes.len());
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for outcome in &outcomes {
        if outcome.solved {
            solved += 1;
            total += outcome.elapsed;
            solutions_sum += outcome.num_solutions;
        } else if matches!(outcome.failure, Some(InstanceFailure::Error(_))) {
            errors += 1;
        } else {
            timeouts += 1;
        }
        for (name, delta) in &outcome.counters {
            *counters.entry(name.clone()).or_insert(0) += delta;
        }
        gate_counts.push(outcome.gate_count);
    }
    let mean_time = if solved > 0 { total / (solved as u32) } else { Duration::ZERO };
    let mean_solutions = if solved > 0 { solutions_sum as f64 / solved as f64 } else { 0.0 };
    SuiteReport {
        algorithm,
        suite: suite.name,
        mean_time,
        timeouts,
        errors,
        solved,
        total_time: total,
        mean_solutions,
        gate_counts,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::npn4;

    #[test]
    fn stp_solves_running_example_quickly() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let out = run_instance(Algorithm::Stp, &spec, Duration::from_secs(30), 1);
        assert!(out.solved);
        assert!(out.failure.is_none());
        assert_eq!(out.gate_count, Some(3));
        assert!(out.num_solutions >= 2);
        assert_eq!(out.chains.len(), out.num_solutions);
        // The run must attribute pipeline counters to the instance.
        assert!(out.counters.contains_key("synth.rounds"));
        assert!(out.counters.contains_key("fence.fences_generated"));
    }

    #[test]
    fn all_algorithms_agree_on_easy_instances() {
        for hex in ["8ff8", "6996"] {
            let spec = TruthTable::from_hex(4, hex).unwrap();
            let mut counts = Vec::new();
            for algo in Algorithm::ALL {
                let out = run_instance(algo, &spec, Duration::from_secs(60), 1);
                assert!(out.solved, "{} on {hex}", algo.label());
                counts.push(out.gate_count.unwrap());
            }
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "gate counts {counts:?} on {hex}");
        }
    }

    #[test]
    fn zero_timeout_reports_unsolved() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let out = run_instance(Algorithm::Stp, &spec, Duration::ZERO, 1);
        assert!(!out.solved);
        assert_eq!(out.gate_count, None);
        // A budget expiry is a timeout, never an error.
        assert_eq!(out.failure, Some(InstanceFailure::Timeout));
        assert!(out.chains.is_empty());
    }

    #[test]
    fn retry_policy_ladders_double() {
        let p = RetryPolicy::escalating(Duration::from_millis(10), 3);
        assert_eq!(
            p.budgets,
            vec![Duration::from_millis(10), Duration::from_millis(20), Duration::from_millis(40)]
        );
        assert_eq!(RetryPolicy::escalating(Duration::from_secs(1), 0).budgets.len(), 1);
    }

    #[test]
    fn retry_rescues_an_instance_past_an_exhausted_budget() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let store = Store::new();
        // Rung 1 (zero budget) fails and is cached as exhausted; rung 2
        // is strictly richer, so the store re-attempts and solves.
        let policy = RetryPolicy { budgets: vec![Duration::ZERO, Duration::from_secs(30)] };
        let out = run_instance_with_retry(Algorithm::Stp, &spec, &policy, 1, Some(&store));
        assert!(out.solved, "the richer rung must rescue the instance");
        assert_eq!(out.gate_count, Some(3));
        // The exhausted entry was upgraded, not duplicated.
        assert_eq!(store.len(), 1);
        // The headline counters describe the *last* attempt only; the
        // cumulative sums over both attempts live under bench.retry.*.
        assert_eq!(out.counters.get("bench.retry.attempts"), Some(&2));
        let last = *out.counters.get("solver.queries").unwrap_or(&0);
        let cumulative = *out.counters.get("bench.retry.solver.queries").unwrap_or(&0);
        assert!(last > 0, "the solving attempt must have queried the solver");
        assert!(
            cumulative >= last,
            "cumulative retry counters ({cumulative}) must cover the last attempt ({last})"
        );
    }

    #[test]
    fn single_attempt_runs_carry_no_retry_counters() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let policy = RetryPolicy::single(Duration::from_secs(30));
        let out = run_instance_with_retry(Algorithm::Stp, &spec, &policy, 1, None);
        assert!(out.solved);
        assert!(
            !out.counters.keys().any(|k| k.starts_with("bench.retry.")),
            "a one-attempt run must not grow a retry section: {:?}",
            out.counters.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn suite_report_aggregates() {
        let mut suite = npn4();
        suite.functions.truncate(10);
        let report = run_suite(Algorithm::Stp, &suite, Duration::from_secs(20), 1);
        assert_eq!(report.solved + report.timeouts + report.errors, 10);
        assert_eq!(report.errors, 0, "a healthy suite must report no errors");
        assert_eq!(report.gate_counts.len(), 10);
        assert!(report.solved > 0);
        assert!(report.mean_solutions >= 1.0);
        assert!(*report.counters.get("solver.queries").unwrap_or(&0) > 0);
    }
}
