//! Thread-scoped counter attribution.
//!
//! The bench harness historically measured "the counters of one
//! instance" as a before/after delta of the global registry. That is
//! exact only while instances run one at a time: the moment two
//! instances execute concurrently (the PR 8 instance pool), their
//! global deltas overlap and every instance double-counts its
//! neighbours' work. A [`CounterScope`] fixes the attribution at the
//! source: while a scope is open on a thread, every named
//! [`Counter`](crate::metrics::Counter) increment performed **on that
//! thread** (or on a worker thread that inherited the scope, see
//! [`current`] / [`inherit`]) is also recorded into the scope's private
//! map, keyed by counter name.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when unused.** With no scope open anywhere in the
//!    process, a counter add pays one extra relaxed atomic load
//!    ([`any_active`]) and nothing else.
//! 2. **Exact under concurrency.** Scopes are thread-local: counters
//!    bumped by an unrelated thread never leak into a scope, no matter
//!    how many instances run in parallel. Worker pools propagate a
//!    scope across their spawn boundary exactly like the profiler
//!    propagates span paths (`profile::inherit_path`).
//! 3. **Nesting-inclusive.** Scopes stack: an increment lands in every
//!    scope open on the thread, so an outer scope sees the sum of its
//!    inner scopes plus its own activity — the same containment rule a
//!    global before/after delta would report for purely sequential
//!    code.
//!
//! High-water-mark updates (`Counter::record_max`) are **not** scoped:
//! a maximum is not additive, so attributing it to a window is not
//! meaningful. Nor are `Counter::inc_unscoped` increments, which count
//! process-wide state (memo hits) that depends on earlier windows. Histograms (span timings) are likewise out of scope —
//! only counters feed drift gates and per-instance reports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of scopes currently open process-wide — the fast-path gate
/// for [`record`]: counters skip the thread-local walk entirely while
/// this is zero.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// One scope's accumulation map, shared between the owning thread and
/// any workers that inherited the scope.
type Sink = Arc<Mutex<BTreeMap<&'static str, u64>>>;

thread_local! {
    /// The scopes open on this thread, outermost first (own scopes and
    /// inherited ones alike).
    static STACK: RefCell<Vec<Sink>> = const { RefCell::new(Vec::new()) };
}

/// Whether any scope is open anywhere in the process (one relaxed
/// load — the only cost scoping adds to a counter increment while
/// unused).
#[inline]
pub(crate) fn any_active() -> bool {
    ACTIVE_SCOPES.load(Ordering::Relaxed) > 0
}

/// Records `n` for counter `name` into every scope open on this
/// thread. Called by `Counter::add` after the global registry update;
/// `name` is empty only for counters created outside a registry, which
/// cannot be attributed and are skipped by the caller.
pub(crate) fn record(name: &'static str, n: u64) {
    STACK.with(|stack| {
        for sink in stack.borrow().iter() {
            *sink.lock().expect("scope sink lock").entry(name).or_insert(0) += n;
        }
    });
}

/// An open counter-attribution window on the current thread.
///
/// Created by [`CounterScope::enter`]; closed by [`CounterScope::finish`]
/// (returning the collected counter deltas) or by dropping the guard
/// (discarding them). The scope must be finished or dropped on the
/// thread that entered it.
#[must_use = "a scope records nothing after it is dropped; call finish() to collect"]
#[derive(Debug)]
pub struct CounterScope {
    sink: Sink,
    open: bool,
}

impl CounterScope {
    /// Opens a scope on the current thread: from now until
    /// [`finish`](CounterScope::finish) (or drop), every named counter
    /// increment on this thread — and on workers that inherit the
    /// scope — is accumulated.
    pub fn enter() -> CounterScope {
        let sink: Sink = Arc::new(Mutex::new(BTreeMap::new()));
        STACK.with(|stack| stack.borrow_mut().push(Arc::clone(&sink)));
        ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
        CounterScope { sink, open: true }
    }

    /// Closes the scope and returns the counter deltas it observed,
    /// keyed by counter name (only counters that actually grew appear).
    ///
    /// Worker threads still holding an [`InheritGuard`] for this scope
    /// must have been joined first — increments recorded after `finish`
    /// are silently discarded.
    pub fn finish(mut self) -> BTreeMap<String, u64> {
        self.close();
        let map = std::mem::take(&mut *self.sink.lock().expect("scope sink lock"));
        map.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
    }

    /// Pops this scope from the thread stack exactly once.
    fn close(&mut self) {
        if !self.open {
            return;
        }
        self.open = false;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Scopes are strictly nested per thread, so ours is on top.
            let top = stack.pop();
            debug_assert!(
                top.as_ref().is_some_and(|s| Arc::ptr_eq(s, &self.sink)),
                "counter scopes closed out of order"
            );
        });
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for CounterScope {
    fn drop(&mut self) {
        self.close();
    }
}

/// A snapshot of the scopes open on the calling thread, for handing to
/// worker threads (cheap: one `Arc` clone per open scope).
#[derive(Debug, Clone, Default)]
pub struct ScopeHandle {
    sinks: Vec<Sink>,
}

/// Captures the scopes open on this thread. Worker pools call this on
/// the spawning thread and [`inherit`] the handle on each worker, so
/// work executed on the workers is attributed exactly as if it had run
/// inline — the counter-scope analogue of `profile::current_path` /
/// `profile::inherit_path`.
pub fn current() -> ScopeHandle {
    ScopeHandle { sinks: STACK.with(|stack| stack.borrow().clone()) }
}

/// Guard returned by [`inherit`]; detaches the inherited scopes when
/// dropped.
#[must_use = "the inherited scopes last until the guard is dropped"]
#[derive(Debug)]
pub struct InheritGuard {
    frames: usize,
}

/// Attaches the scopes captured in `handle` to the current thread:
/// counter increments here now land in the spawner's open scopes.
/// Inheriting an empty handle is free.
pub fn inherit(handle: &ScopeHandle) -> InheritGuard {
    STACK.with(|stack| stack.borrow_mut().extend(handle.sinks.iter().cloned()));
    InheritGuard { frames: handle.sinks.len() }
}

impl Drop for InheritGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let keep = stack.len().saturating_sub(self.frames);
            stack.truncate(keep);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn scope_collects_only_named_counters_on_this_thread() {
        let m = Metrics::new();
        let c = m.counter("scope.test.a");
        c.add(1); // before the scope: not collected
        let scope = CounterScope::enter();
        c.add(4);
        c.inc();
        // An anonymous counter (no registry) cannot be attributed.
        let anon = crate::metrics::Counter::default();
        anon.add(7);
        let got = scope.finish();
        assert_eq!(got.get("scope.test.a"), Some(&5));
        assert_eq!(got.len(), 1, "unexpected entries: {got:?}");
        // The global registry still saw every add.
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn nested_scopes_both_observe_inner_activity() {
        let m = Metrics::new();
        let c = m.counter("scope.test.nested");
        let outer = CounterScope::enter();
        c.add(2);
        let inner = CounterScope::enter();
        c.add(3);
        let inner_map = inner.finish();
        c.add(1);
        let outer_map = outer.finish();
        assert_eq!(inner_map.get("scope.test.nested"), Some(&3));
        assert_eq!(outer_map.get("scope.test.nested"), Some(&6));
    }

    #[test]
    fn record_max_is_not_scoped() {
        let m = Metrics::new();
        let c = m.counter("scope.test.hwm");
        let scope = CounterScope::enter();
        c.record_max(100);
        assert!(scope.finish().is_empty(), "high-water marks are not additive deltas");
    }

    #[test]
    fn unscoped_increments_reach_only_the_global_value() {
        let m = Metrics::new();
        let c = m.counter("scope.test.unscoped");
        let scope = CounterScope::enter();
        c.inc_unscoped();
        assert!(scope.finish().is_empty(), "process-wide state is not a window's work");
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn workers_inherit_the_spawners_scope() {
        let m = Metrics::new();
        let c = m.counter("scope.test.worker");
        let scope = CounterScope::enter();
        let handle = current();
        std::thread::scope(|s| {
            // An inheriting worker feeds the scope; a detached one does
            // not.
            s.spawn(|| {
                let _inherit = inherit(&handle);
                c.add(10);
            });
            s.spawn(|| c.add(100));
        });
        c.add(1);
        let got = scope.finish();
        assert_eq!(got.get("scope.test.worker"), Some(&11));
        assert_eq!(c.get(), 111);
    }

    #[test]
    fn other_threads_do_not_leak_into_a_scope() {
        let m = Metrics::new();
        let c = m.counter("scope.test.isolated");
        let scope = CounterScope::enter();
        std::thread::scope(|s| {
            s.spawn(|| c.add(50));
        });
        assert!(scope.finish().is_empty());
    }

    #[test]
    fn dropping_a_scope_discards_and_reopens_cleanly() {
        let m = Metrics::new();
        let c = m.counter("scope.test.drop");
        {
            let _scope = CounterScope::enter();
            c.add(9);
        }
        // The dropped scope must have unwound the stack: a fresh scope
        // starts empty.
        let scope = CounterScope::enter();
        c.add(2);
        assert_eq!(scope.finish().get("scope.test.drop"), Some(&2));
    }
}
