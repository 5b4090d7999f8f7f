//! Allocation regression test for the memo-hit path.
//!
//! The factorization memo used to build an owned `(Vec<u64>, TreeShape)`
//! key for **every** probe — cloning the spec words and the whole shape
//! tree even when the answer was already memoized. The engine now
//! interns shapes to dense ids and keys the per-shape map by the table
//! alone, so a warmed probe borrows both halves of the key and performs
//! no allocation at all.
//!
//! This test pins that with a counting global allocator: after a
//! warm-up call, re-running `chains_on_shape` on a memoized
//! (unrealizable) subproblem must not allocate. It lives in its own
//! integration-test binary so the `#[global_allocator]` cannot
//! interfere with any other test.
//!
//! A second test pins the cold path: a cold sweep probes the memo by
//! the candidate's words, and a miss factors those words in place, with
//! split tables taken from a free list that stops growing once it
//! reaches the recursion depth. So a whole sweep allocates fewer times
//! than it hits the memo, and fewer than one time in eight that it
//! misses: a per-miss allocation would break the second bound. A third
//! pins verification: on a warmed shape the root checks allocate
//! nothing, so the only allocations left are the accepted chains'. Both
//! count on a per-thread tally, which keeps their allocations out of
//! the global count the warmed test measures concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use stp_fence::shapes_with_gates;
use stp_synth::{FactorConfig, Factorizer};
use stp_tt::TruthTable;

/// `System`, plus a count of every allocation request (`alloc`,
/// `alloc_zeroed`, and growth through `realloc`): into the calling
/// thread's private tally once it has called `cold::count_privately`, into
/// [`ALLOCATIONS`] otherwise.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's private allocation tally, once enabled. A `const`
    /// thread-local without a destructor, so reading it never allocates.
    static PRIVATE: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    let private = PRIVATE
        .try_with(|tally| tally.get().map(|count| tally.set(Some(count + 1))))
        .ok()
        .flatten();
    if private.is_none() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are a relaxed atomic and a const thread-local cell, and allocate
// nothing themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_memo_probes_do_not_allocate() {
    // 3-input majority is prime: no 2-gate tree realizes it, so a
    // warmed engine answers every probe from the memo without building
    // chains (chain construction for realizable specs allocates by
    // design — the guarantee under test is the *probe*).
    let maj = TruthTable::from_hex(3, "e8").unwrap();
    let shapes = shapes_with_gates(2);
    let mut engine = Factorizer::new(FactorConfig::default());
    // Warm-up: fill the memo and intern the telemetry counter handles
    // (the first `counter!` hit at each site allocates the registry
    // entry; every later hit is a cached `&'static` add).
    for _ in 0..2 {
        for shape in &shapes {
            assert!(engine.chains_on_shape(&maj, shape).unwrap().is_empty());
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        for shape in &shapes {
            assert!(engine.chains_on_shape(&maj, shape).unwrap().is_empty());
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "memo-hit path allocated {delta} times across 100 warmed sweeps");

    // Same guarantee with profiling ON: spans around the probes (the
    // shape of the scheduler's inner loop) must stay allocation-free
    // once labels are interned and the profile tree nodes exist. This
    // shares the test fn above deliberately — a second #[test] would
    // run on a parallel thread and its allocations would pollute the
    // measured windows.
    stp_telemetry::profile::reset();
    stp_telemetry::profile::set_enabled(true);
    let probe_profiled = |engine: &mut Factorizer| {
        for shape in &shapes {
            let _shape = stp_telemetry::Span::enter("memo_alloc.shape");
            let _factor = stp_telemetry::Span::enter("phase.factorize");
            assert!(engine.chains_on_shape(&maj, shape).unwrap().is_empty());
        }
    };
    // Warm-up: interns the labels, creates the tree nodes, grows the
    // thread-local path stack and the span histograms to capacity.
    for _ in 0..2 {
        probe_profiled(&mut engine);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        probe_profiled(&mut engine);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    stp_telemetry::profile::set_enabled(false);
    assert_eq!(delta, 0, "profiled memo-hit path allocated {delta} times across 100 warmed sweeps");
    let tree = stp_telemetry::profile::take();
    let factorize =
        tree.find(&["memo_alloc.shape", "phase.factorize"]).expect("profiled spans recorded");
    assert_eq!(factorize.calls as usize, 102 * shapes.len());
}

// A `faultsim` build evaluates the `factor.deadline` failpoint at every
// checkpoint, and each evaluation allocates its registry key.
#[cfg(not(feature = "faultsim"))]
mod cold {
    use super::*;
    use stp_fence::{pruned_fences, shapes_for_fence};

    /// Moves the calling thread's allocations from [`ALLOCATIONS`] to a
    /// private tally starting at zero.
    pub(super) fn count_privately() {
        PRIVATE.with(|tally| tally.set(Some(0)));
    }

    /// The calling thread's private tally.
    pub(super) fn private_allocations() -> u64 {
        PRIVATE.with(|tally| tally.get().expect("count_privately was called"))
    }

    #[test]
    fn cold_sweep_allocates_less_than_it_hits_the_memo() {
        // NPN4 class 0x07b6 needs 6 gates; its round walks every shape of
        // the pruned 6-gate fences with one fresh engine, as the synthesis
        // driver does. Most candidate operands are already memoized, and a
        // hit costs no allocation, so the whole sweep — misses, arena
        // growth and the chains it returns included — allocates fewer
        // times than it hits. A miss allocates nothing of its own, so
        // the sweep also allocates far fewer times than it misses.
        count_privately();
        let spec = TruthTable::from_hex(4, "07b6").unwrap();
        let shapes: Vec<_> = pruned_fences(6).iter().flat_map(shapes_for_fence).collect();
        let before = private_allocations();
        let mut engine = Factorizer::new(FactorConfig::default());
        let mut chains = 0;
        for shape in &shapes {
            chains += engine.chains_on_shape(&spec, shape).unwrap().len();
        }
        let allocations = private_allocations() - before;
        assert!(chains > 0, "0x07b6 has 6-gate realizations");
        let (hits, misses) = (engine.memo_hits(), engine.nodes_explored());
        assert!(hits > 4 * misses, "the sweep must be hit-dominated: {hits} hits, {misses} misses");
        assert!(
            allocations < hits,
            "cold sweep allocated {allocations} times for {hits} memo hits ({misses} misses)"
        );
        assert!(
            allocations * 8 < misses,
            "cold sweep allocated {allocations} times for {misses} memo misses"
        );
    }
}

// Same reason as `cold`: the `verify.root` failpoint allocates in a
// `faultsim` build.
#[cfg(not(feature = "faultsim"))]
mod warm_verify {
    use super::cold::{count_privately, private_allocations};
    use super::*;
    use std::sync::atomic::AtomicBool;
    use stp_fence::{pruned_fences, shapes_for_fence};

    #[test]
    fn verifying_a_warmed_shape_allocates_only_its_accepted_chains() {
        // After one pass over the 6-gate shapes of class 0x07b6, the
        // factorization memo, the forest's cube memo and its buffers are
        // warm. Verifying a shape's roots again then allocates what
        // building its chains does (`chains_on_shape`: one result vector,
        // plus each chain's own gate and output buffers) and at most a
        // constant more.
        count_privately();
        let spec = TruthTable::from_hex(4, "07b6").unwrap();
        let shapes: Vec<_> = pruned_fences(6).iter().flat_map(shapes_for_fence).collect();
        let mut engine = Factorizer::new(FactorConfig::default());
        let never = AtomicBool::new(false);
        for _ in 0..2 {
            for shape in &shapes {
                engine.verified_chains_on_shape(&spec, shape, usize::MAX, None, &never).unwrap();
            }
        }
        let mut accepted = 0;
        for shape in &shapes {
            let before = private_allocations();
            let built = engine.chains_on_shape(&spec, shape).unwrap();
            let building = private_allocations() - before;
            let before = private_allocations();
            let verified =
                engine.verified_chains_on_shape(&spec, shape, usize::MAX, None, &never).unwrap();
            let verifying = private_allocations() - before;
            assert_eq!(verified, built, "every candidate is accepted");
            accepted += verified.len();
            assert!(
                verifying <= building + 1,
                "verifying {} roots allocated {verifying} times, building them {building}",
                verified.len()
            );
        }
        assert!(accepted > 0, "0x07b6 has 6-gate realizations");
    }
}
