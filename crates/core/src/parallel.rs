//! Deterministic work-stealing execution of one synthesis round.
//!
//! The paper's one-pass search (§III steps ii–iv) is embarrassingly
//! parallel across tree shapes: each `(shape → factorize → verify)`
//! unit touches only the specification, one topology, and a
//! per-worker [`Factorizer`]. This module distributes those units over
//! a `std::thread::scope` worker pool with work stealing, while keeping
//! the output **byte-identical** to the sequential search:
//!
//! * every shape is an indexed task; workers deal themselves the tasks
//!   round-robin and steal from the back of a victim's deque when their
//!   own runs dry;
//! * each worker owns its own `Factorizer` (worker-local memo table —
//!   see `DESIGN.md` for the trade-off against a shared memo), so the
//!   factorization enumeration per shape is exactly the sequential one;
//! * per-shape solution vectors land in index-addressed slots and are
//!   merged **in shape order**, then truncated to `max_solutions` — the
//!   same prefix the sequential loop materializes;
//! * a shared *completed-prefix* tracker notices as soon as the tasks
//!   `0..k` (all finished) already hold `max_solutions` verified chains
//!   and trips the cooperative cancellation flag: later tasks would be
//!   truncated away anyway, so aborting them cannot change the result.
//!
//! The same flag implements deadline propagation: a worker whose engine
//! reports [`SynthesisError::Timeout`] (and no satisfied prefix exists)
//! records the error and cancels every other worker.
//!
//! # Two scheduler levels, one budget
//!
//! Shape-level parallelism only helps inside one instance. Suite
//! workloads (Table I, `--warm-npn4`, batch rewriting) run many
//! instances, so this module also provides the **instance level**:
//! [`run_instances`] feeds whole work items to a pool of instance
//! workers, with the shape-level pool nested inside each item. Both
//! levels draw threads from a single [`JobBudget`] — `--jobs N` means
//! *N running worker threads in total, never N×N*: each instance
//! worker borrows its shape-slot allotment from the same budget it was
//! spawned from.
//!
//! The split between the levels is **static and deterministic**, not
//! demand-driven: `instance_workers = min(N, items)` and every
//! instance runs with `shape_jobs = N / instance_workers`. A dynamic
//! scheme (idle instance workers donating slots to running instances)
//! would be faster in the tail of a suite, but the per-worker memo
//! tables make counters like `factor.memo_hits` depend on the shape
//! worker count — timing-dependent borrowing would make suite counter
//! totals nondeterministic. With the static split, any suite at least
//! as wide as the budget runs every instance shape-sequentially
//! (`shape_jobs = 1`), so the suite transcript **and** its counter
//! totals are byte-identical to the plain sequential loop at any
//! `--jobs`; a single instance (`items = 1`) still gets the whole
//! budget as shape workers, preserving the PR 3 behavior.
//!
//! Instance results land in index-addressed slots and are returned in
//! instance-index order; a panicking instance is isolated into its
//! slot as an error (`par.instances_panicked`), leaving the survivors
//! untouched. Workers inherit the spawner's profile path and counter
//! scopes, so `jobs=1` and `jobs=N` runs produce structurally
//! identical span trees and identically attributed per-instance
//! counters.
//!
//! # Panic isolation
//!
//! Every shape task — sequential or parallel — runs inside
//! `catch_unwind`. A panicking task is converted into a per-shape
//! [`SynthesisError::JobPanicked`] (counted as `parallel.jobs_panicked`)
//! and **does not** cancel the round: the remaining workers keep
//! draining tasks, and the merge skips the failed slot, so the
//! surviving solution sequence is exactly the no-fault sequence minus
//! the panicked shape's contribution (in particular, the prefix before
//! the failed shape is byte-identical). Only a round whose surviving
//! shapes produced *no* solutions propagates the panic as an error —
//! a silently skipped shape could otherwise mask a wrong optimum.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use stp_chain::Chain;
use stp_fence::TreeShape;
use stp_tt::TruthTable;

use crate::error::SynthesisError;
use crate::factor::Factorizer;

/// Result of one shape task: the verified chains of that shape, in
/// candidate order, capped at `max_solutions`.
type TaskResult = Result<Vec<Chain>, SynthesisError>;

/// Outcome of one gate-count round (sequential or parallel).
#[derive(Debug)]
pub(crate) struct RoundOutcome {
    /// Verified chains in shape-index order, at most `max_solutions`.
    pub solutions: Vec<Chain>,
    /// Shapes whose factorization ran to completion. Under the solution
    /// cap or a deadline this is a lower bound on the sequential count
    /// (cancelled workers stop counting), so it is a statistic, not part
    /// of the determinism guarantee.
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

/// The global worker-thread budget shared by the two scheduler levels.
///
/// One budget is created per batch run from the `--jobs` knob; the
/// instance pool ([`run_instances`]) acquires one slot per instance
/// worker plus that worker's shape-slot allotment from the *same*
/// account, so the number of running worker threads never exceeds
/// [`JobBudget::total`]. The accounting is an enforced invariant of
/// the static level split — see the module docs for why the split is
/// not demand-driven.
#[derive(Debug)]
pub struct JobBudget {
    total: usize,
    available: AtomicUsize,
}

impl JobBudget {
    /// A budget of `resolve_jobs(jobs)` worker threads.
    pub fn new(jobs: usize) -> JobBudget {
        let total = resolve_jobs(jobs).max(1);
        JobBudget { total, available: AtomicUsize::new(total) }
    }

    /// The total thread budget (`--jobs` after resolving `0`).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Threads currently unclaimed.
    pub fn available(&self) -> usize {
        self.available.load(Ordering::SeqCst)
    }

    /// Claims `n` slots, failing (without partial effect) when fewer
    /// are free.
    fn acquire(&self, n: usize) -> bool {
        self.available
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| free.checked_sub(n))
            .is_ok()
    }

    /// Returns `n` previously acquired slots.
    fn release(&self, n: usize) {
        let prev = self.available.fetch_add(n, Ordering::SeqCst);
        debug_assert!(prev + n <= self.total, "released more job slots than acquired");
    }
}

/// Renders an instance-level panic payload as the error message parked
/// in the instance's result slot.
fn instance_panic(idx: usize, payload: Box<dyn std::any::Any + Send>) -> String {
    stp_telemetry::counter!("par.instances_panicked").inc();
    let message = format!("instance task {idx}: {}", panic_message(payload));
    stp_telemetry::error!("isolated a panicking instance job ({message})");
    message
}

/// One instance behind the panic boundary: `run` receives the instance
/// index and the shape-level `jobs` allotment its nested scheduler may
/// use. `AssertUnwindSafe` is sound for the same reason as at the
/// shape level: callers only observe an instance's state through its
/// returned value, and a panicked instance's slot holds an error, not
/// partial output.
fn run_instance_task<T, F: Fn(usize, usize) -> T>(
    run: &F,
    idx: usize,
    shape_jobs: usize,
) -> Result<T, String> {
    stp_telemetry::counter!("par.instances_run").inc();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(idx, shape_jobs)))
        .map_err(|payload| instance_panic(idx, payload))
}

/// Runs `count` work items over the instance-level pool, returning the
/// results in **instance-index order** — `Err` carries the panic
/// message of an isolated panicking item.
///
/// `run(idx, shape_jobs)` executes item `idx` and must confine any
/// nested parallelism to `shape_jobs` workers; both levels then stay
/// inside `budget` (`--jobs N` = N running threads in total). The
/// budget split is static (see the module docs): with
/// `count >= budget.total()` every item gets `shape_jobs = 1`, making
/// the pooled run — outputs *and* counter totals — byte-identical to
/// the sequential loop at any budget; a single item gets the entire
/// budget as its shape-level allotment.
///
/// With an effective width of one worker the items run inline on the
/// calling thread — no pool, no inheritance glue, byte-identical to a
/// plain `for` loop by construction.
pub fn run_instances<T: Send, F: Fn(usize, usize) -> T + Sync>(
    budget: &JobBudget,
    count: usize,
    run: F,
) -> Vec<Result<T, String>> {
    let total = budget.total();
    let workers = total.min(count).max(1);
    // Uniform shape allotment: every instance must see the same nested
    // `jobs` no matter which worker picks it up (a per-worker remainder
    // would make per-instance counters depend on the timing of the
    // claim order).
    let shape_jobs = (total / workers).max(1);
    if workers <= 1 {
        // The sequential loop: the single "instance worker" is the
        // calling thread, and its nested scheduler may use the whole
        // budget.
        return (0..count).map(|idx| run_instance_task(&run, idx, total)).collect();
    }
    // `Mutex<Option<_>>` rather than `OnceLock`: a slot is written once
    // by exactly one worker (the claim counter hands out each index
    // once), and `Mutex` only needs `T: Send` to cross the scope.
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Workers inherit the spawner's open-span path and counter scopes,
    // so profiling and per-instance counter attribution are identical
    // to the inline loop.
    let base_path = stp_telemetry::profile::current_path();
    let scopes = stp_telemetry::scope::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let results = &results;
            let next = &next;
            let run = &run;
            let base_path = base_path.clone();
            let scopes = scopes.clone();
            scope.spawn(move || {
                // Each instance worker borrows its shape-slot allotment
                // from the shared budget: itself plus the extra threads
                // its nested shape pool may spawn. The static split
                // guarantees the claim fits; the acquire enforces it.
                let claimed = budget.acquire(shape_jobs);
                debug_assert!(claimed, "static split exceeded the job budget");
                let _inherit_path = stp_telemetry::profile::inherit_path(&base_path);
                let _inherit_scopes = stp_telemetry::scope::inherit(&scopes);
                loop {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    if idx >= count {
                        break;
                    }
                    let outcome = run_instance_task(run, idx, shape_jobs);
                    let prev = results[idx].lock().expect("slot lock").replace(outcome);
                    debug_assert!(prev.is_none(), "instance slot {idx} claimed twice");
                }
                if claimed {
                    budget.release(shape_jobs);
                }
            });
        }
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

/// The sequential round: shapes in order, verified chains accumulated
/// until the cap binds. The parallel path reproduces this output
/// exactly; both run each shape through [`run_shape_task`] so the
/// cap/deadline/panic semantics stay in one place.
pub(crate) fn run_round_sequential(
    spec: &TruthTable,
    shapes: &[TreeShape],
    engine: &mut Factorizer,
    max_solutions: usize,
    max_depth: Option<usize>,
    cancel: &AtomicBool,
) -> Result<RoundOutcome, SynthesisError> {
    let mut solutions: Vec<Chain> = Vec::new();
    let mut shapes_explored = 0usize;
    let mut panicked = 0usize;
    let mut first_panic: Option<SynthesisError> = None;
    for (idx, shape) in shapes.iter().enumerate() {
        if solutions.len() >= max_solutions {
            break;
        }
        // Capping the task at the *remaining* room reproduces the old
        // accumulate-until-cap loop candidate for candidate.
        let remaining = max_solutions - solutions.len();
        match run_shape_task(spec, shape, idx, engine, remaining, max_depth, cancel) {
            Ok(sols) => {
                shapes_explored += 1;
                solutions.extend(sols);
            }
            Err(e @ SynthesisError::JobPanicked { .. }) => {
                panicked += 1;
                if first_panic.is_none() {
                    first_panic = Some(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    finish_round(solutions, shapes_explored, panicked, first_panic)
}

/// Shared round epilogue: panics surface as an error only when the
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

/// Advances the completed prefix past `results` slots that are filled
/// with `Ok`; once the prefix holds `max_solutions` chains, cancels the
/// round (ordering matters: `cap_reached` is published before `cancel`
/// so a worker that observes the cancellation also observes its cause).
fn advance_prefix(
    prefix: &Mutex<Prefix>,
    results: &[OnceLock<TaskResult>],
    max_solutions: usize,
    cap_reached: &AtomicBool,
    cancel: &AtomicBool,
) {
    let mut p = prefix.lock().expect("prefix lock poisoned");
    while p.next < results.len() {
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
            _ => return,
        }
    }
}

/// Pops the next task: own deque from the front (lowest indices first,
/// which feeds the completed-prefix tracker), then victims from the
/// back.
fn next_task(w: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    if let Some(idx) = queues[w].lock().expect("queue lock poisoned").pop_front() {
        return Some(idx);
    }
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        let stolen = queues[victim].lock().expect("queue lock poisoned").pop_back();
        if let Some(idx) = stolen {
            stp_telemetry::counter!("par.tasks_stolen").inc();
            return Some(idx);
        }
    }
    None
}

/// Shared state of one parallel round (everything the workers touch).
struct RoundState<'a> {
    spec: &'a TruthTable,
    shapes: &'a [TreeShape],
    queues: Vec<Mutex<VecDeque<usize>>>,
    results: Vec<OnceLock<TaskResult>>,
    prefix: Mutex<Prefix>,
    cancel: &'a AtomicBool,
    cap_reached: AtomicBool,
    first_error: Mutex<Option<(usize, SynthesisError)>>,
    shapes_done: AtomicUsize,
    max_solutions: usize,
    max_depth: Option<usize>,
}

fn worker_loop(w: usize, engine: &mut Factorizer, state: &RoundState<'_>) {
    loop {
        if state.cancel.load(Ordering::Acquire) {
            return;
        }
        let Some(idx) = next_task(w, &state.queues) else {
            return;
        };
        stp_telemetry::counter!("par.tasks_run").inc();
        let outcome = {
            // Untracked: this span only exists at jobs > 1, so keeping
            // it out of the profile tree is what makes jobs=1 and
            // jobs=N trees structurally identical.
            let _busy = stp_telemetry::Span::enter_untracked("par.worker_busy");
            run_shape_task(
                state.spec,
                &state.shapes[idx],
                idx,
                engine,
                state.max_solutions,
                state.max_depth,
                state.cancel,
            )
        };
        match outcome {
            Ok(solutions) => {
                state.shapes_done.fetch_add(1, Ordering::SeqCst);
                let _ = state.results[idx].set(Ok(solutions));
                advance_prefix(
                    &state.prefix,
                    &state.results,
                    state.max_solutions,
                    &state.cap_reached,
                    state.cancel,
                );
            }
            Err(e @ SynthesisError::JobPanicked { .. }) => {
                // An isolated panic must NOT cancel the round: park the
                // error in the slot and keep draining tasks so sibling
                // shapes' solutions survive. The completed-prefix
                // tracker stalls at this slot — a later cap cutoff is
                // forfeited (an optimization, not a correctness
                // property; the merge still truncates exactly).
                let _ = state.results[idx].set(Err(e));
            }
            Err(e) => {
                if state.cap_reached.load(Ordering::SeqCst) {
                    // Induced abort: the satisfied prefix precedes this
                    // task, so its (discarded) result is immaterial.
                    stp_telemetry::counter!("par.tasks_cancelled").inc();
                    let _ = state.results[idx].set(Ok(Vec::new()));
                } else {
                    let mut slot = state.first_error.lock().expect("error lock poisoned");
                    match &*slot {
                        Some((i, _)) if *i <= idx => {}
                        _ => *slot = Some((idx, e.clone())),
                    }
                    drop(slot);
                    let _ = state.results[idx].set(Err(e));
                    state.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
    }
}

/// Runs one round across `engines.len()` workers (falling back to the
/// sequential path when one worker — or one task — makes stealing
/// pointless). `cancel` must be freshly cleared; it is left set when the
/// round was cut off (solution cap or error).
pub(crate) fn run_round_parallel(
    spec: &TruthTable,
    shapes: &[TreeShape],
    engines: &mut [Factorizer],
    max_solutions: usize,
    max_depth: Option<usize>,
    cancel: &AtomicBool,
) -> Result<RoundOutcome, SynthesisError> {
    let n_tasks = shapes.len();
    let workers = engines.len().min(n_tasks);
    if workers <= 1 {
        let engine = engines.first_mut().expect("at least one engine");
        return run_round_sequential(spec, shapes, engine, max_solutions, max_depth, cancel);
    }
    let state = RoundState {
        spec,
        shapes,
        // Round-robin deal: worker w owns tasks w, w+workers, … so the
        // lowest indices complete early and the prefix tracker can cut
        // the round off as soon as the cap is provably reached.
        queues: (0..workers).map(|w| Mutex::new((w..n_tasks).step_by(workers).collect())).collect(),
        results: (0..n_tasks).map(|_| OnceLock::new()).collect(),
        prefix: Mutex::new(Prefix { next: 0, cum: 0 }),
        cancel,
        cap_reached: AtomicBool::new(false),
        first_error: Mutex::new(None),
        shapes_done: AtomicUsize::new(0),
        max_solutions,
        max_depth,
    };
    // Workers inherit the spawner's open-span path (e.g. the
    // synth.round.rN frame), so profiled spans on worker threads land
    // at the same tree position the sequential path records them — and
    // the spawner's counter scopes, so per-instance counter
    // attribution (the bench harness) survives shape-level fan-out.
    let base_path = stp_telemetry::profile::current_path();
    let scopes = stp_telemetry::scope::current();
    std::thread::scope(|scope| {
        for (w, engine) in engines[..workers].iter_mut().enumerate() {
            let state = &state;
            let base_path = base_path.clone();
            let scopes = scopes.clone();
            scope.spawn(move || {
                let _inherit_path = stp_telemetry::profile::inherit_path(&base_path);
                let _inherit_scopes = stp_telemetry::scope::inherit(&scopes);
                worker_loop(w, engine, state)
            });
        }
    });
    let cap_reached = state.cap_reached.load(Ordering::SeqCst);
    if !cap_reached {
        if let Some((_, e)) = state.first_error.into_inner().expect("error lock poisoned") {
            return Err(e);
        }
    }
    // Merge in shape-index order and truncate: byte-identical to the
    // sequential accumulation. When the cap cut the round off, every
    // slot up to the satisfying prefix is filled, so the loop below
    // reaches the cap before it can meet an unfilled slot. `Err` slots
    // are isolated panics (genuine errors returned above): they are
    // skipped, exactly as the sequential loop skips a panicked shape.
    let mut solutions: Vec<Chain> = Vec::new();
    let mut panicked = 0usize;
    let mut first_panic: Option<SynthesisError> = None;
    for slot in state.results {
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
                if first_panic.is_none() {
                    first_panic = Some(e);
                }
            }
            None => {}
        }
    }
    debug_assert!(solutions.len() <= max_solutions);
    let shapes_explored = state.shapes_done.load(Ordering::SeqCst);
    finish_round(solutions, shapes_explored, panicked, first_panic)
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

    #[test]
    fn job_budget_accounts_acquires_and_releases() {
        let budget = JobBudget::new(4);
        assert_eq!(budget.total(), 4);
        assert_eq!(budget.available(), 4);
        assert!(budget.acquire(3));
        assert_eq!(budget.available(), 1);
        assert!(!budget.acquire(2), "over-claim must fail without partial effect");
        assert_eq!(budget.available(), 1);
        assert!(budget.acquire(1));
        budget.release(4);
        assert_eq!(budget.available(), 4);
    }

    #[test]
    fn run_instances_returns_results_in_index_order() {
        for jobs in [1usize, 2, 4, 8] {
            let budget = JobBudget::new(jobs);
            let results = run_instances(&budget, 10, |idx, shape_jobs| {
                assert!(shape_jobs >= 1);
                idx * idx
            });
            let values: Vec<usize> = results.into_iter().map(|r| r.expect("no panic")).collect();
            assert_eq!(values, (0..10).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(budget.available(), budget.total(), "jobs={jobs}: budget leaked");
        }
    }

    #[test]
    fn run_instances_splits_the_budget_statically() {
        // Suite at least as wide as the budget: every instance is
        // shape-sequential, so counters match the sequential loop.
        let budget = JobBudget::new(4);
        let results = run_instances(&budget, 8, |_, shape_jobs| shape_jobs);
        assert!(results.into_iter().all(|r| r == Ok(1)));
        // A single instance gets the entire budget as shape slots.
        let results = run_instances(&budget, 1, |_, shape_jobs| shape_jobs);
        assert_eq!(results, vec![Ok(4)]);
        // Fewer instances than budget: the surplus goes to shape level,
        // uniformly.
        let budget = JobBudget::new(8);
        let results = run_instances(&budget, 3, |_, shape_jobs| shape_jobs);
        assert_eq!(results, vec![Ok(2), Ok(2), Ok(2)]);
        // Zero items is a no-op, not a panic.
        assert!(run_instances(&budget, 0, |_, _| 0).is_empty());
    }

    #[test]
    fn run_instances_isolates_a_panicking_item() {
        for jobs in [1usize, 4] {
            let budget = JobBudget::new(jobs);
            let results = run_instances(&budget, 5, |idx, _| {
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
            assert_eq!(budget.available(), budget.total(), "jobs={jobs}: budget leaked");
        }
    }

    #[test]
    fn run_instances_inherits_counter_scopes() {
        // Counters bumped inside pooled instances land in the scope
        // open on the submitting thread, at any pool width.
        for jobs in [1usize, 4] {
            let scope = stp_telemetry::CounterScope::enter();
            let budget = JobBudget::new(jobs);
            let results = run_instances(&budget, 6, |_, _| {
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
    /// for the second shape, the sequential round still returns the
    /// survivors from every other shape and tallies the panic.
    #[cfg(feature = "faultsim")]
    #[test]
    fn sequential_round_survives_a_panicking_shape() {
        use crate::factor::{FactorConfig, Factorizer};
        use stp_fence::shapes_with_gates;

        let _guard = stp_faultsim::test_guard();
        stp_faultsim::clear_all();

        let spec = TruthTable::from_hex(4, "8ff8").expect("valid spec");
        let shapes = shapes_with_gates(3);
        assert!(shapes.len() >= 2, "need several shapes for the round");
        let mut engine = Factorizer::new(FactorConfig::default());
        let cancel = AtomicBool::new(false);

        let clean = run_round_sequential(&spec, &shapes, &mut engine, usize::MAX, None, &cancel)
            .expect("clean round");
        assert!(!clean.solutions.is_empty(), "0x8ff8 must solve at 3 gates");
        let clean_keys: Vec<String> = clean.solutions.iter().map(|c| format!("{c:?}")).collect();

        // Panic each shape in turn. When survivors exist the round must
        // succeed with a subsequence of the clean stream; when the
        // panicked shape carried every solution the error must surface.
        let mut rounds_with_survivors = 0;
        for k in 0..shapes.len() {
            stp_faultsim::set("parallel.shape", &format!("{}:panic", k + 1)).expect("valid spec");
            let mut engine = Factorizer::new(FactorConfig::default());
            match run_round_sequential(&spec, &shapes, &mut engine, usize::MAX, None, &cancel) {
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
}
