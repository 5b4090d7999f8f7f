//! Deterministic parallel execution of synthesis rounds and suites.
//!
//! The paper's one-pass search (§III steps ii–iv) is embarrassingly
//! parallel across tree shapes: each `(shape → factorize → verify)`
//! unit touches only the specification, one topology, and a
//! per-worker [`Factorizer`]. Suites (Table I, `--warm-npn4`, the
//! `warm` farm) are a loop over independent instances. Both loops run
//! on one private scoped pool, `pool`:
//!
//! * every task is an index; each worker claims the lowest unclaimed
//!   index from one shared counter until no index is left or the stop
//!   flag is set, so a lone worker claims `0, 1, 2, …` in order;
//! * with one worker the pool runs inline on the calling thread — no
//!   spawned thread, no inheritance glue, a plain `for` loop;
//! * with more, the workers are `std::thread::scope` threads that
//!   inherit the caller's open-span path and counter scopes, so spans
//!   and per-instance counters land where the inline loop puts them.
//!
//! # The round driver
//!
//! `run_round` runs one gate-count round at every worker count, and
//! its output is **byte-identical** at any of them:
//!
//! * each worker owns its own `Factorizer` (worker-local memo table —
//!   see `DESIGN.md` for the trade-off against a shared memo), so the
//!   factorization enumeration per shape is exactly the sequential one;
//! * per-shape solution vectors land in index-addressed slots and are
//!   merged **in shape order**, then truncated to `max_solutions`;
//! * a *completed-prefix* tracker sums the solutions of the finished
//!   tasks `0..k`. A claimed shape runs capped at `max_solutions` minus
//!   that sum: on one worker this is exactly the room the shapes before
//!   it left, on more an upper bound on what the merge will take. Once
//!   the prefix holds `max_solutions` chains the tracker trips the
//!   cooperative cancellation flag: later tasks would be truncated away
//!   anyway, so aborting them cannot change the result.
//!
//! The same flag implements deadline propagation: a worker whose engine
//! reports [`SynthesisError::Timeout`] (and no satisfied prefix exists)
//! records the error and stops every other worker; the lowest-index
//! error is the one returned.
//!
//! # The instance level
//!
//! [`run_instances`] feeds whole work items to the same pool, with the
//! round driver nested inside each item. `--jobs N` means *N running
//! worker threads in total, never N×N*, and the split between the
//! levels is **static**: `workers = min(N, items)` and every item runs
//! with `shape_jobs = N / workers`, so `workers × shape_jobs ≤ N` by
//! arithmetic. A dynamic scheme (idle instance workers donating threads
//! to running instances) would be faster in the tail of a suite, but
//! the per-worker memo tables make counters like `factor.memo_hits`
//! depend on the shape worker count — timing-dependent borrowing would
//! make suite counter totals nondeterministic. With the static split,
//! any suite at least as wide as `N` runs every instance on one shape
//! worker, so the suite transcript **and** its counter totals are
//! byte-identical to the plain sequential loop at any `--jobs`; a
//! single item gets all `N` threads as shape workers.
//!
//! # Panic isolation
//!
//! Every task runs inside `catch_unwind`. A panicking shape task is
//! converted into a per-shape [`SynthesisError::JobPanicked`] (counted
//! as `parallel.jobs_panicked`) and **does not** cancel the round: the
//! remaining workers keep claiming, the prefix tracker moves past the
//! failed slot, and the merge skips it, so the surviving solution
//! sequence is exactly the no-fault sequence minus the panicked shape's
//! contribution. Only a round whose surviving shapes produced *no*
//! solutions propagates the panic as an error — a silently skipped
//! shape could otherwise mask a wrong optimum. A panicking instance is
//! isolated into its slot as an error message (`par.instances_panicked`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use stp_chain::Chain;
use stp_fence::TreeShape;
use stp_tt::TruthTable;

use crate::error::SynthesisError;
use crate::factor::Factorizer;

/// Result of one shape task: the verified chains of that shape, in
/// candidate order, capped at the task's share of `max_solutions`.
type TaskResult = Result<Vec<Chain>, SynthesisError>;

/// Outcome of one gate-count round.
#[derive(Debug)]
pub(crate) struct RoundOutcome {
    /// Verified chains in shape-index order, at most `max_solutions`.
    pub solutions: Vec<Chain>,
    /// Shapes whose factorization ran to completion. On more than one
    /// worker under the solution cap or a deadline this is a lower bound
    /// on the one-worker count (cancelled workers stop counting), so it
    /// is a statistic, not part of the determinism guarantee.
    pub shapes_explored: usize,
}

/// Parses the `STP_JOBS` environment variable strictly: `Ok(1)` when
/// unset (or set to the empty string, which conventionally means
/// unset), `Ok(n)` for a well-formed thread count (`0` = one per CPU),
/// and `Err` with a message naming the variable for anything else.
///
/// Binaries call this at startup and turn the error into an exit-2
/// usage failure, matching the strict `--jobs` flag contract — a typo
/// in `STP_JOBS` must never silently degrade a run to one thread.
pub fn jobs_from_env_checked() -> Result<usize, String> {
    match std::env::var("STP_JOBS") {
        Err(std::env::VarError::NotPresent) => Ok(1),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("STP_JOBS expects a thread count (0 = one per CPU), got non-UTF-8 bytes".into())
        }
        Ok(raw) => parse_jobs_value(&raw),
    }
}

/// The value-level half of [`jobs_from_env_checked`]: empty means
/// unset (`Ok(1)`), anything else must be a `usize`.
fn parse_jobs_value(raw: &str) -> Result<usize, String> {
    if raw.is_empty() {
        return Ok(1);
    }
    raw.parse::<usize>()
        .map_err(|_| format!("STP_JOBS expects a thread count (0 = one per CPU), got `{raw}`"))
}

/// Parses the `STP_JOBS` environment variable: the default worker count
/// for [`crate::SynthesisConfig`]. The **library** default stays
/// well-defined — `1` when unset *or* malformed — so embedding code
/// never aborts on a bad environment; binaries use
/// [`jobs_from_env_checked`] to reject malformed values loudly instead.
pub fn jobs_from_env() -> usize {
    jobs_from_env_checked().unwrap_or(1)
}

/// Resolves a `jobs` knob: `0` means one worker per available CPU.
pub fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        j => j,
    }
}

/// The one worker pool: runs `task(worker, idx)` once for every index
/// in `0..count` claimed before `stop` is set, one thread per entry of
/// `workers`. Each worker claims the lowest unclaimed index from one
/// counter. A single worker runs inline on the calling thread; more run
/// on scoped threads that inherit the caller's profile path and counter
/// scopes.
fn pool<W: Send>(
    workers: &mut [W],
    count: usize,
    stop: &AtomicBool,
    task: impl Fn(&mut W, usize) + Sync,
) {
    let next = AtomicUsize::new(0);
    let drain = |worker: &mut W| {
        while !stop.load(Ordering::Acquire) {
            let idx = next.fetch_add(1, Ordering::SeqCst);
            if idx >= count {
                return;
            }
            task(worker, idx);
        }
    };
    if let [worker] = workers {
        return drain(worker);
    }
    let base_path = stp_telemetry::profile::current_path();
    let scopes = stp_telemetry::scope::current();
    std::thread::scope(|scope| {
        for worker in workers {
            let (drain, base_path, scopes) = (&drain, &base_path, &scopes);
            scope.spawn(move || {
                let _inherit_path = stp_telemetry::profile::inherit_path(base_path);
                let _inherit_scopes = stp_telemetry::scope::inherit(scopes);
                drain(worker)
            });
        }
    });
}

/// Renders an instance-level panic payload as the error message parked
/// in the instance's result slot.
fn instance_panic(idx: usize, payload: Box<dyn std::any::Any + Send>) -> String {
    stp_telemetry::counter!("par.instances_panicked").inc();
    let message = format!("instance task {idx}: {}", panic_message(payload));
    stp_telemetry::error!("isolated a panicking instance job ({message})");
    message
}

/// Runs `count` work items over the instance-level pool, returning the
/// results in **instance-index order** — `Err` carries the panic
/// message of an isolated panicking item.
///
/// `run(idx, shape_jobs)` executes item `idx` and must confine any
/// nested parallelism to `shape_jobs` workers. With `N =
/// resolve_jobs(jobs)`, the pool runs `min(N, count)` workers and every
/// item gets `shape_jobs = N / workers` (see the module docs): with
/// `count >= N` every item is shape-sequential, making the pooled run —
/// outputs *and* counter totals — byte-identical to the sequential loop;
/// a single item gets all `N` threads. One worker runs the items inline
/// on the calling thread.
///
/// `AssertUnwindSafe` is sound for the same reason as at the shape
/// level: callers only observe an instance's state through its returned
/// value, and a panicked instance's slot holds an error, not partial
/// output.
pub fn run_instances<T: Send, F: Fn(usize, usize) -> T + Sync>(
    jobs: usize,
    count: usize,
    run: F,
) -> Vec<Result<T, String>> {
    let total = resolve_jobs(jobs).max(1);
    let workers = total.min(count).max(1);
    // Uniform shape allotment: every instance must see the same nested
    // `jobs` no matter which worker picks it up (a per-worker remainder
    // would make per-instance counters depend on the claim order).
    let shape_jobs = total / workers;
    // `Mutex<Option<_>>` rather than `OnceLock`: a slot is written once
    // by exactly one worker, and `Mutex` only needs `T: Send` to be
    // shared across the scope.
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    pool(&mut vec![(); workers], count, &AtomicBool::new(false), |(), idx| {
        stp_telemetry::counter!("par.instances_run").inc();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(idx, shape_jobs)))
                .map_err(|payload| instance_panic(idx, payload));
        *results[idx].lock().expect("slot lock") = Some(outcome);
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every instance slot is filled before join")
        })
        .collect()
}

/// Runs one round over `min(engines.len(), shapes.len())` workers, one
/// engine each. `cancel` must be freshly cleared; it is left set when
/// the round was cut off (solution cap or error).
pub(crate) fn run_round(
    spec: &TruthTable,
    shapes: &[TreeShape],
    engines: &mut [Factorizer],
    max_solutions: usize,
    max_depth: Option<usize>,
    cancel: &AtomicBool,
) -> Result<RoundOutcome, SynthesisError> {
    let workers = engines.len().min(shapes.len()).max(1);
    let results: Vec<OnceLock<TaskResult>> = shapes.iter().map(|_| OnceLock::new()).collect();
    let prefix = Mutex::new(Prefix { next: 0, cum: 0 });
    let cap_reached = AtomicBool::new(false);
    let first_error: Mutex<Option<(usize, SynthesisError)>> = Mutex::new(None);
    let shapes_done = AtomicUsize::new(0);
    pool(&mut engines[..workers], shapes.len(), cancel, |engine, idx| {
        let held = prefix.lock().expect("prefix lock poisoned").cum;
        let Some(room) = max_solutions.checked_sub(held).filter(|&room| room > 0) else {
            // The cap is already met (a racing worker reached it after
            // this claim, or it is 0): the merge stops before this slot.
            return;
        };
        stp_telemetry::counter!("par.tasks_run").inc();
        let outcome = {
            // Untracked and only on pool threads, so the profile tree
            // and the one-worker trace stay those of the inline loop.
            let _busy =
                (workers > 1).then(|| stp_telemetry::Span::enter_untracked("par.worker_busy"));
            run_shape_task(spec, &shapes[idx], idx, engine, room, max_depth, cancel)
        };
        match outcome {
            Ok(solutions) => {
                shapes_done.fetch_add(1, Ordering::SeqCst);
                let _ = results[idx].set(Ok(solutions));
                advance_prefix(&prefix, &results, max_solutions, &cap_reached, cancel);
            }
            Err(e @ SynthesisError::JobPanicked { .. }) => {
                // An isolated panic must NOT cancel the round: park the
                // error in the slot and keep claiming, so sibling
                // shapes' solutions survive.
                let _ = results[idx].set(Err(e));
                advance_prefix(&prefix, &results, max_solutions, &cap_reached, cancel);
            }
            Err(_) if cap_reached.load(Ordering::SeqCst) => {
                // Induced abort: the satisfied prefix precedes this
                // task, so its (discarded) result is immaterial.
                stp_telemetry::counter!("par.tasks_cancelled").inc();
                let _ = results[idx].set(Ok(Vec::new()));
            }
            Err(e) => {
                let mut slot = first_error.lock().expect("error lock poisoned");
                if slot.as_ref().is_none_or(|(i, _)| idx < *i) {
                    *slot = Some((idx, e.clone()));
                }
                drop(slot);
                let _ = results[idx].set(Err(e));
                cancel.store(true, Ordering::SeqCst);
            }
        }
    });
    if !cap_reached.load(Ordering::SeqCst) {
        if let Some((_, e)) = first_error.into_inner().expect("error lock poisoned") {
            return Err(e);
        }
    }
    // Merge in shape-index order and truncate. When the cap cut the
    // round off, every slot up to the satisfying prefix is filled, so
    // the loop reaches the cap before it can meet an unfilled slot.
    // `Err` slots are isolated panics (genuine errors returned above),
    // skipped here.
    let mut solutions: Vec<Chain> = Vec::new();
    let mut panicked = 0usize;
    let mut first_panic: Option<SynthesisError> = None;
    for slot in results {
        if solutions.len() >= max_solutions {
            break;
        }
        match slot.into_inner() {
            Some(Ok(sols)) => {
                let room = max_solutions - solutions.len();
                solutions.extend(sols.into_iter().take(room));
            }
            Some(Err(e)) => {
                panicked += 1;
                first_panic.get_or_insert(e);
            }
            None => {}
        }
    }
    finish_round(solutions, shapes_done.into_inner(), panicked, first_panic)
}

/// Round epilogue: panics surface as an error only when the
/// surviving shapes produced nothing (otherwise the merged solutions
/// stand, minus the failed shape's contribution).
fn finish_round(
    solutions: Vec<Chain>,
    shapes_explored: usize,
    panicked: usize,
    first_panic: Option<SynthesisError>,
) -> Result<RoundOutcome, SynthesisError> {
    if let Some(e) = first_panic {
        if solutions.is_empty() {
            return Err(e);
        }
        stp_telemetry::warn!(
            "round kept {} solution(s) despite {panicked} panicked shape job(s)",
            solutions.len()
        );
    }
    Ok(RoundOutcome { solutions, shapes_explored })
}

/// Renders a `catch_unwind` payload as text (panics carry either a
/// `&str` or a formatted `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One shape task behind the panic boundary: a panic anywhere in the
/// factorize/verify pipeline is caught here and converted into
/// [`SynthesisError::JobPanicked`], so sibling shapes survive.
///
/// `AssertUnwindSafe` is sound for the engine reference: the factorizer
/// publishes factorization and verification memo entries only for
/// *completed* subproblems, so an unwind cannot leave a half-written
/// entry that later queries would trust.
fn run_shape_task(
    spec: &TruthTable,
    shape: &TreeShape,
    idx: usize,
    engine: &mut Factorizer,
    max_solutions: usize,
    max_depth: Option<usize>,
    cancel: &AtomicBool,
) -> TaskResult {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Deterministic crash injection: the hit index is the 1-based
        // shape index within the round, identical at any worker count.
        stp_faultsim::fail_point!("parallel.shape", hit = idx as u64 + 1);
        let _shape = stp_telemetry::Span::enter(shape_label(shape));
        // Factorize, then verify the candidate roots in order. The engine
        // checks `cancel` between roots, so a deadline or a satisfied
        // solution cap interrupts long verify streaks too.
        engine.verified_chains_on_shape(spec, shape, max_solutions, max_depth, cancel)
    }));
    caught.unwrap_or_else(|payload| {
        stp_telemetry::counter!("parallel.jobs_panicked").inc();
        let message = format!("shape task {idx}: {}", panic_message(payload));
        stp_telemetry::error!("isolated a panicking synthesis job ({message})");
        Err(SynthesisError::JobPanicked { message })
    })
}

/// Static per-height shape labels, so the per-shape profile span never
/// formats (and never allocates) in the round's inner loop. Heights
/// beyond the table share one overflow label; fence heights are bounded
/// by the gate count, which the roadmap caps far below 16.
const SHAPE_LABELS: [&str; 16] = [
    "shape.h0",
    "shape.h1",
    "shape.h2",
    "shape.h3",
    "shape.h4",
    "shape.h5",
    "shape.h6",
    "shape.h7",
    "shape.h8",
    "shape.h9",
    "shape.h10",
    "shape.h11",
    "shape.h12",
    "shape.h13",
    "shape.h14",
    "shape.h15",
];

fn shape_label(shape: &TreeShape) -> &'static str {
    SHAPE_LABELS.get(shape.height()).copied().unwrap_or("shape.h16plus")
}

/// The contiguous prefix of completed tasks and its solution tally.
struct Prefix {
    next: usize,
    cum: usize,
}

/// Advances the completed prefix past `results` slots that hold chains
/// or an isolated panic (which the merge skips); once the prefix holds
/// `max_solutions` chains, cancels the round (ordering matters:
/// `cap_reached` is published before `cancel` so a worker that observes
/// the cancellation also observes its cause).
fn advance_prefix(
    prefix: &Mutex<Prefix>,
    results: &[OnceLock<TaskResult>],
    max_solutions: usize,
    cap_reached: &AtomicBool,
    cancel: &AtomicBool,
) {
    let mut p = prefix.lock().expect("prefix lock poisoned");
    while p.next < results.len() && !cap_reached.load(Ordering::SeqCst) {
        match results[p.next].get() {
            Some(Ok(sols)) => {
                p.cum += sols.len();
                p.next += 1;
                if p.cum >= max_solutions {
                    cap_reached.store(true, Ordering::SeqCst);
                    cancel.store(true, Ordering::SeqCst);
                    stp_telemetry::counter!("par.cap_cutoffs").inc();
                    return;
                }
            }
            Some(Err(SynthesisError::JobPanicked { .. })) => p.next += 1,
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time audit: everything the scoped workers share or own
    /// must cross thread boundaries.
    #[test]
    fn shared_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Factorizer>();
        assert_send::<TruthTable>();
        assert_sync::<TruthTable>();
        assert_send::<TreeShape>();
        assert_sync::<TreeShape>();
        assert_send::<Chain>();
        assert_sync::<Chain>();
        assert_send::<SynthesisError>();
        assert_sync::<SynthesisError>();
    }

    #[test]
    fn resolve_jobs_maps_zero_to_cpu_count() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    /// Every index the pool ran, in the order each worker claimed it.
    fn pool_claims(workers: usize, count: usize, stop: &AtomicBool) -> Vec<Vec<usize>> {
        let mut claims = vec![Vec::new(); workers];
        pool(&mut claims, count, stop, |claimed, idx| claimed.push(idx));
        claims
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        for workers in [1usize, 2, 4] {
            let claims = pool_claims(workers, 37, &AtomicBool::new(false));
            let mut ran: Vec<usize> = claims.concat();
            ran.sort_unstable();
            assert_eq!(ran, (0..37).collect::<Vec<_>>(), "workers={workers}");
            // Each worker claims from one counter, so its own indices
            // ascend even when its claims interleave with others'.
            for claimed in &claims {
                assert!(claimed.windows(2).all(|w| w[0] < w[1]), "workers={workers}");
            }
        }
    }

    #[test]
    fn pool_claims_in_ascending_order_on_one_worker() {
        let claims = pool_claims(1, 9, &AtomicBool::new(false));
        assert_eq!(claims, vec![(0..9).collect::<Vec<_>>()]);
    }

    #[test]
    fn pool_claims_nothing_once_stopped() {
        for workers in [1usize, 2, 4] {
            let claims = pool_claims(workers, 9, &AtomicBool::new(true));
            assert!(claims.iter().all(Vec::is_empty), "workers={workers}");
        }
        // A task that sets the stop flag ends claiming after it.
        let stop = AtomicBool::new(false);
        let mut claims = vec![Vec::new()];
        pool(&mut claims, 9, &stop, |claimed, idx| {
            claimed.push(idx);
            if idx == 3 {
                stop.store(true, Ordering::SeqCst);
            }
        });
        assert_eq!(claims, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn run_instances_returns_results_in_index_order() {
        for jobs in [1usize, 2, 4, 8] {
            let results = run_instances(jobs, 10, |idx, shape_jobs| {
                assert!(shape_jobs >= 1);
                idx * idx
            });
            let values: Vec<usize> = results.into_iter().map(|r| r.expect("no panic")).collect();
            assert_eq!(values, (0..10).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn run_instances_splits_the_jobs_statically() {
        // Suite at least as wide as the jobs: every instance is
        // shape-sequential, so counters match the sequential loop.
        let results = run_instances(4, 8, |_, shape_jobs| shape_jobs);
        assert!(results.into_iter().all(|r| r == Ok(1)));
        // A single instance gets every thread as a shape worker.
        let results = run_instances(4, 1, |_, shape_jobs| shape_jobs);
        assert_eq!(results, vec![Ok(4)]);
        // Fewer instances than jobs: the surplus goes to shape level,
        // uniformly.
        let results = run_instances(8, 3, |_, shape_jobs| shape_jobs);
        assert_eq!(results, vec![Ok(2), Ok(2), Ok(2)]);
        // Zero items is a no-op, not a panic.
        assert!(run_instances(8, 0, |_, _| 0).is_empty());
    }

    #[test]
    fn run_instances_isolates_a_panicking_item() {
        for jobs in [1usize, 4] {
            let results = run_instances(jobs, 5, |idx, _| {
                if idx == 2 {
                    panic!("instance boom");
                }
                idx
            });
            assert_eq!(results.len(), 5, "jobs={jobs}");
            for (idx, r) in results.iter().enumerate() {
                if idx == 2 {
                    let message = r.as_ref().expect_err("item 2 must fail");
                    assert!(message.contains("instance task 2"), "jobs={jobs}: {message}");
                    assert!(message.contains("instance boom"), "jobs={jobs}: {message}");
                } else {
                    assert_eq!(r.as_ref().copied(), Ok(idx), "jobs={jobs}: survivor lost");
                }
            }
        }
    }

    #[test]
    fn run_instances_inherits_counter_scopes() {
        // Counters bumped inside pooled instances land in the scope
        // open on the submitting thread, at any pool width.
        for jobs in [1usize, 4] {
            let scope = stp_telemetry::CounterScope::enter();
            let results = run_instances(jobs, 6, |_, _| {
                stp_telemetry::counter!("par.test.scoped_work").inc();
            });
            assert!(results.into_iter().all(|r| r.is_ok()));
            let got = scope.finish();
            assert_eq!(got.get("par.test.scoped_work"), Some(&6), "jobs={jobs}");
        }
    }

    #[test]
    fn stp_jobs_values_parse_strictly() {
        // The env var itself is process-global (the CLI tests cover it
        // end to end in fresh processes); the value grammar is pinned
        // here.
        assert_eq!(parse_jobs_value("4"), Ok(4));
        assert_eq!(parse_jobs_value("0"), Ok(0), "0 = one per CPU stays valid");
        assert_eq!(parse_jobs_value(""), Ok(1), "empty means unset");
        for bad in ["abc", "-2", "1.5", " 4", "4 ", "0x2"] {
            let err = parse_jobs_value(bad).expect_err(bad);
            assert!(err.contains("STP_JOBS"), "`{bad}`: message must name the variable: {err}");
            assert!(err.contains(bad), "`{bad}`: message must echo the value: {err}");
        }
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }

    #[test]
    fn finish_round_propagates_panic_only_without_survivors() {
        let panic = SynthesisError::JobPanicked { message: "shape task 0: boom".into() };
        // No survivors: the panic is load-bearing and must surface.
        let err = finish_round(Vec::new(), 0, 1, Some(panic.clone())).unwrap_err();
        assert_eq!(err, panic);
        // No panic at all: plain success.
        let ok = finish_round(Vec::new(), 3, 0, None).expect("clean round");
        assert_eq!(ok.shapes_explored, 3);
        assert!(ok.solutions.is_empty());
    }

    /// End-to-end isolation: with the `parallel.shape` failpoint armed
    /// for one shape, a one-engine round still returns the survivors
    /// from every other shape and tallies the panic.
    #[cfg(feature = "faultsim")]
    #[test]
    fn one_worker_round_survives_a_panicking_shape() {
        use crate::factor::{FactorConfig, Factorizer};
        use stp_fence::shapes_with_gates;

        let _guard = stp_faultsim::test_guard();
        stp_faultsim::clear_all();

        let spec = TruthTable::from_hex(4, "8ff8").expect("valid spec");
        let shapes = shapes_with_gates(3);
        assert!(shapes.len() >= 2, "need several shapes for the round");
        let mut engine = [Factorizer::new(FactorConfig::default())];
        let cancel = AtomicBool::new(false);

        let clean =
            run_round(&spec, &shapes, &mut engine, usize::MAX, None, &cancel).expect("clean round");
        assert!(!clean.solutions.is_empty(), "0x8ff8 must solve at 3 gates");
        let clean_keys: Vec<String> = clean.solutions.iter().map(|c| format!("{c:?}")).collect();

        // Panic each shape in turn. When survivors exist the round must
        // succeed with a subsequence of the clean stream; when the
        // panicked shape carried every solution the error must surface.
        let mut rounds_with_survivors = 0;
        for k in 0..shapes.len() {
            stp_faultsim::set("parallel.shape", &format!("{}:panic", k + 1)).expect("valid spec");
            let mut engine = [Factorizer::new(FactorConfig::default())];
            match run_round(&spec, &shapes, &mut engine, usize::MAX, None, &cancel) {
                Ok(faulted) => {
                    assert_eq!(faulted.shapes_explored + 1, clean.shapes_explored);
                    // The faulted stream is a subsequence of the clean one.
                    let mut pos = 0;
                    for sol in &faulted.solutions {
                        let key = format!("{sol:?}");
                        let offset = clean_keys[pos..]
                            .iter()
                            .position(|k| *k == key)
                            .expect("faulted solution missing from clean run");
                        pos += offset + 1;
                    }
                    if !faulted.solutions.is_empty() {
                        rounds_with_survivors += 1;
                    }
                }
                Err(SynthesisError::JobPanicked { message }) => {
                    assert!(message.contains(&format!("shape task {k}")));
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        stp_faultsim::clear_all();
        assert!(rounds_with_survivors > 0, "some shape must be non-load-bearing");
    }

    /// A panicked shape does not stall the completed prefix: with the
    /// first shape panicking and a cap that the next shape fills, one
    /// and two workers cut the round off and return the same chains.
    #[cfg(feature = "faultsim")]
    #[test]
    fn a_panicked_shape_keeps_the_cap_cutoff() {
        use crate::factor::{FactorConfig, Factorizer};
        use stp_fence::shapes_with_gates;

        let _guard = stp_faultsim::test_guard();
        stp_faultsim::clear_all();
        let spec = TruthTable::from_hex(4, "6996").expect("valid spec");
        let shapes = shapes_with_gates(3);
        let run = |workers: usize| {
            // An exact-hit trigger disarms after firing: arm it per run.
            stp_faultsim::set("parallel.shape", "1:panic").expect("valid spec");
            let mut engines: Vec<Factorizer> =
                (0..workers).map(|_| Factorizer::new(FactorConfig::default())).collect();
            let scope = stp_telemetry::CounterScope::enter();
            let round = run_round(&spec, &shapes, &mut engines, 2, None, &AtomicBool::new(false))
                .expect("the surviving shapes hold chains");
            let counters = scope.finish();
            assert_eq!(counters.get("parallel.jobs_panicked"), Some(&1), "workers={workers}");
            assert_eq!(counters.get("par.cap_cutoffs"), Some(&1), "workers={workers}: cutoff");
            round.solutions.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        };
        let one = run(1);
        assert_eq!(one.len(), 2, "the cap binds");
        assert_eq!(one, run(2));
        stp_faultsim::clear_all();
    }
}
