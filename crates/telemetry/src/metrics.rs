//! Process-wide registry of named counters and latency histograms.
//!
//! Counters and histograms are interned once per name and live for the
//! process (`&'static`), so hot paths pay a single relaxed atomic add —
//! no locking and no lookup when a handle is cached via the
//! [`counter!`](crate::counter) / [`histogram!`](crate::histogram)
//! macros. [`Metrics::snapshot`] copies everything into plain maps for
//! diffing and serialization.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing event counter.
///
/// Counters interned through a [`Metrics`] registry know their own
/// name, which lets increments feed any open
/// [`CounterScope`](crate::scope::CounterScope) on the current thread
/// (exact per-window attribution under concurrency). A `Counter`
/// built via `Default` has no name and is never scoped.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    name: &'static str,
}

impl Default for Counter {
    fn default() -> Counter {
        Counter { value: AtomicU64::new(0), name: "" }
    }
}

impl Counter {
    /// A zeroed counter carrying its interned registry name.
    fn named(name: &'static str) -> Counter {
        Counter { value: AtomicU64::new(0), name }
    }

    /// The registry name this counter was interned under (empty for
    /// counters built outside a registry).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        // Scoped attribution: one relaxed load while no scope is open
        // anywhere in the process (the common case).
        if crate::scope::any_active() && !self.name.is_empty() {
            crate::scope::record(self.name, n);
        }
    }

    /// Adds one to the process-wide value only, never to an open
    /// [`CounterScope`](crate::scope::CounterScope): for counts of
    /// process-wide state, such as hits on a memo that earlier work
    /// filled, whose per-window delta depends on what ran before in the
    /// process rather than on the window's own work.
    #[inline]
    pub fn inc_unscoped(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the value to at least `n` (for high-water marks). Not
    /// scoped: a maximum is not an additive delta.
    #[inline]
    pub fn record_max(&self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 duration buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` nanoseconds; 40 buckets reach ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A latency histogram with power-of-two nanosecond buckets.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: match self.min_ns.load(Ordering::Relaxed) {
                u64::MAX => 0,
                v => v,
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation in nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Largest observation in nanoseconds.
    pub max_ns: u64,
    /// Log2 bucket occupancy.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total observed time in seconds.
    pub fn total_s(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Mean observation in seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s() / self.count as f64
        }
    }

    /// Observations added relative to an earlier snapshot of the same
    /// histogram. Min/max are taken from `self` (they are not
    /// subtractive quantities).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            min_ns: self.min_ns,
            max_ns: self.max_ns,
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

/// A registry of named [`Counter`]s and [`Histogram`]s.
///
/// Usually accessed through [`global()`], but tests can create private
/// registries to avoid cross-test interference.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Interns the counter named `name`.
    ///
    /// The returned reference is `'static`: instruments cache it and
    /// update it lock-free afterwards. Entries intentionally leak — the
    /// set of metric names is small and fixed per build.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().expect("metrics lock");
        if let Some(c) = map.get(name) {
            return c;
        }
        // The counter carries its name so increments can be attributed
        // to open counter scopes; both leak together, once per name.
        let name_static: &'static str = Box::leak(name.to_string().into_boxed_str());
        let c: &'static Counter = Box::leak(Box::new(Counter::named(name_static)));
        map.insert(name.to_string(), c);
        c
    }

    /// Interns the histogram named `name`. Same contract as
    /// [`Metrics::counter`].
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("metrics lock");
        if let Some(h) = map.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::default()));
        map.insert(name.to_string(), h);
        h
    }

    /// Copies every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric. Handles stay valid.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("metrics lock").values() {
            c.reset();
        }
        for h in self.histograms.lock().expect("metrics lock").values() {
            h.reset();
        }
    }
}

/// Plain-data copy of a [`Metrics`] registry at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Metric growth relative to an earlier snapshot: counters are
    /// subtracted, zero-delta counters dropped; histograms keep only
    /// names whose count grew.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(k, h)| {
                let d = match earlier.histograms.get(k) {
                    Some(e) => h.delta_since(e),
                    None => h.clone(),
                };
                (d.count > 0).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot { counters, histograms }
    }
}

static GLOBAL: OnceLock<Metrics> = OnceLock::new();

/// The process-wide registry used by the instrumentation macros.
pub fn global() -> &'static Metrics {
    GLOBAL.get_or_init(Metrics::new)
}

/// Interns a counter in the global registry, caching the handle per
/// call site.
///
/// The name must be a string literal (or otherwise identical on every
/// execution of the call site) — the first name wins for that site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SITE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::metrics::global().counter($name))
    }};
}

/// Interns a histogram in the global registry, caching the handle per
/// call site. Same literal-name contract as [`counter!`](crate::counter).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SITE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::metrics::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(m.snapshot().counters["x"], 3);
    }

    #[test]
    fn record_max_is_a_high_water_mark() {
        let m = Metrics::new();
        let c = m.counter("hwm");
        c.record_max(5);
        c.record_max(3);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_nanos(1024));
        h.record(Duration::from_micros(1));
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 1024);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[9], 1, "1000ns is in [512, 1024)");
        assert_eq!(s.buckets[10], 1, "1024ns is in [1024, 2048)");
        assert!(s.mean_s() > 0.0);
    }

    #[test]
    fn empty_snapshot_stats_are_zero_not_nan() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.total_s(), 0.0);
        assert_eq!(s.mean_s(), 0.0, "mean of an empty histogram is 0, not 0/0");
        assert!(!s.mean_s().is_nan());
        assert!(!s.total_s().is_nan());
        assert_eq!(s.min_ns, 0, "sentinel min is normalized to 0 when empty");
        assert_eq!(s.max_ns, 0);
        // Deltas of empty snapshots stay empty and finite too.
        let d = s.delta_since(&s);
        assert_eq!(d.mean_s(), 0.0);
        assert_eq!(d.total_s(), 0.0);
    }

    #[test]
    fn snapshot_delta_drops_unchanged() {
        let m = Metrics::new();
        m.counter("a").add(5);
        m.counter("b").add(1);
        let before = m.snapshot();
        m.counter("a").add(2);
        m.histogram("h").record(Duration::from_millis(1));
        let delta = m.snapshot().delta_since(&before);
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counters["a"], 2);
        assert_eq!(delta.histograms["h"].count, 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let m = Metrics::new();
        let c = m.counter("r");
        c.add(9);
        m.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(m.snapshot().counters["r"], 1);
    }

    #[test]
    fn global_macros_cache_handles() {
        let c1 = crate::counter!("telemetry.test.macro_counter");
        let c2 = crate::counter!("telemetry.test.macro_counter");
        // Two distinct call sites, one interned counter.
        assert!(std::ptr::eq(c1, c2));
        crate::histogram!("telemetry.test.macro_hist").record(Duration::from_nanos(10));
        assert!(global().snapshot().histograms["telemetry.test.macro_hist"].count >= 1);
    }
}
