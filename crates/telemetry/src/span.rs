//! RAII timing spans.
//!
//! A [`Span`] starts a stopwatch on creation and, when dropped, records
//! the elapsed time into the histogram of the same name, emits a JSONL
//! trace event if a trace writer is installed, and logs at
//! [`Level::Trace`](crate::log::Level). Spans nest: a thread-local depth
//! counter tracks lexical nesting, which the trace sink records so
//! flame-style views can be reconstructed offline.
//!
//! When profiling is enabled ([`crate::profile::set_enabled`], the
//! CLIs' `--profile`), each span additionally pushes its label onto the
//! thread's open-span path at start and, at drop, folds its elapsed
//! time (and, under the `alloc-profile` feature, the bytes/allocations
//! that happened while it ran) into the global profile tree at that
//! path. Span names are interned `&'static str`s — a dynamic label
//! ([`Span::enter_owned`], the `span!` format arm) allocates at most
//! once per *unique* label text for the life of the process, so
//! profiling stays allocation-free on hot paths once labels are warm.

use std::cell::Cell;
use std::time::Instant;

use crate::metrics;
use crate::profile;
use crate::trace;

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The current thread's span nesting depth (0 outside any span).
pub fn current_depth() -> u32 {
    DEPTH.with(|d| d.get())
}

/// A running stopwatch tied to a named histogram; see the module docs.
#[must_use = "a span measures until it is dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    /// The histogram `name` records into, looked up once at start (or
    /// cached per call site by [`span!`](crate::span)).
    histogram: &'static metrics::Histogram,
    start: Instant,
    depth: u32,
    /// True when this span observed profiling enabled at start (and is
    /// not untracked): it pushed a path frame it must pop at drop. The
    /// decision is latched so toggling profiling mid-span stays
    /// balanced.
    profiled: bool,
    start_bytes: u64,
    start_allocs: u64,
}

impl Span {
    /// Starts a span with a static name (the common, zero-alloc case).
    pub fn enter(name: &'static str) -> Span {
        Span::start(name, metrics::global().histogram(name), true)
    }

    /// Starts a span whose histogram the caller already holds: the
    /// [`span!`](crate::span) literal arm caches it per call site, so
    /// neither start nor drop takes the registry lock.
    #[doc(hidden)]
    pub fn enter_with(name: &'static str, histogram: &'static metrics::Histogram) -> Span {
        Span::start(name, histogram, true)
    }

    /// Starts a span with a computed name, e.g. one per synthesis
    /// round. The name is interned: the first occurrence of a label
    /// text leaks one copy, every later occurrence is lookup-only.
    pub fn enter_owned(name: String) -> Span {
        let name = profile::intern_label(&name);
        Span::start(name, metrics::global().histogram(name), true)
    }

    /// Starts a span that records its histogram and trace event as
    /// usual but never enters the profile tree. For bookkeeping spans
    /// whose placement depends on the execution strategy (e.g. a
    /// worker-loop busy span that only exists at `jobs > 1`), so
    /// profile trees stay structurally identical across worker counts.
    pub fn enter_untracked(name: &'static str) -> Span {
        Span::start(name, metrics::global().histogram(name), false)
    }

    fn start(name: &'static str, histogram: &'static metrics::Histogram, track: bool) -> Span {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let profiled = track && profile::enabled();
        let (start_bytes, start_allocs) = if profiled {
            profile::push_label(name);
            profile::alloc_totals()
        } else {
            (0, 0)
        };
        Span { name, histogram, start: Instant::now(), depth, profiled, start_bytes, start_allocs }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        self.name
    }

    /// Elapsed time so far, without ending the span.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if self.profiled {
            let (bytes, allocs) = profile::alloc_totals();
            profile::pop_and_record(
                self.name,
                elapsed.as_nanos() as u64,
                bytes.saturating_sub(self.start_bytes),
                allocs.saturating_sub(self.start_allocs),
            );
        }
        self.histogram.record(elapsed);
        if trace::trace_enabled() {
            trace::emit_span(self.name, self.start, elapsed, self.depth);
        }
        crate::trace!("span {} {:.6}s (depth {})", self.name, elapsed.as_secs_f64(), self.depth);
    }
}

/// Starts a [`Span`]; accepts a `'static` name or a format string.
/// A literal name's histogram is looked up once per call site, as
/// [`histogram!`](crate::histogram) does; a formatted name is looked up
/// per span.
///
/// ```
/// let _guard = stp_telemetry::span!("phase.fence_enum");
/// let _per_round = stp_telemetry::span!("synth.round.r{}", 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::Span::enter_with($name, $crate::histogram!($name))
    };
    ($($arg:tt)*) => {
        $crate::span::Span::enter_owned(format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_histograms() {
        {
            let _s = Span::enter("telemetry.test.span");
        }
        let snap = metrics::global().snapshot();
        assert!(snap.histograms["telemetry.test.span"].count >= 1);
    }

    #[test]
    fn spans_nest_and_unwind() {
        assert_eq!(current_depth(), 0);
        let outer = Span::enter("telemetry.test.outer");
        assert_eq!(current_depth(), 1);
        assert_eq!(outer.depth, 0);
        {
            let inner = Span::enter("telemetry.test.inner");
            assert_eq!(current_depth(), 2);
            assert_eq!(inner.depth, 1);
        }
        assert_eq!(current_depth(), 1);
        drop(outer);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn span_macro_accepts_both_forms() {
        let a = crate::span!("telemetry.test.lit");
        let b = crate::span!("telemetry.test.dyn.r{}", 7);
        assert_eq!(a.name(), "telemetry.test.lit");
        assert_eq!(b.name(), "telemetry.test.dyn.r7");
        assert!(b.elapsed().as_nanos() < u128::MAX);
    }

    #[test]
    fn cached_call_sites_record_into_the_named_histogram() {
        let before = metrics::global()
            .snapshot()
            .histograms
            .get("telemetry.test.site")
            .map_or(0, |h| h.count);
        for _ in 0..3 {
            let _s = crate::span!("telemetry.test.site");
        }
        {
            // A second call site caches its own handle to the same histogram.
            let _s = crate::span!("telemetry.test.site");
        }
        let after = metrics::global().snapshot().histograms["telemetry.test.site"].count;
        assert_eq!(after - before, 4);
    }

    #[test]
    fn owned_names_are_interned_to_one_pointer() {
        let a = Span::enter_owned(format!("telemetry.test.intern.r{}", 1));
        let b = Span::enter_owned(format!("telemetry.test.intern.r{}", 1));
        assert!(std::ptr::eq(a.name, b.name));
    }
}
