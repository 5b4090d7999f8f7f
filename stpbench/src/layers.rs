//! Per-layer metrics.
//!
//! The engine times each layer with a span that records into the
//! process-wide histograms of `stp_telemetry::metrics_global()` whether or
//! not profiling is on (`phase.fence_enum`, `shape.h*`, `phase.factorize`,
//! `phase.verify`, `store.solve_npn`, `phase.npn_canonicalize`,
//! `phase.map_back`, `rewrite.cut_enum`, `rewrite.apply`), and counts its
//! work in global counters. A traced run reads the growth of these totals
//! over its measured phase: in process for the library workloads, from two
//! `stats` answers for the daemon. The benchmark adds no timing of its
//! own, so a traced run does exactly the work of an untraced one and
//! differs only in what it prints.

use stp_telemetry::MetricsSnapshot;

use crate::report::Metric;

/// The per-layer metrics of one traced run. Shares are of the measured
/// operations' summed latency ("busy time"). A layer a workload does not
/// exercise reads 0 in its counts and shares.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Summed latency of the measured operations, seconds.
    pub busy_s: f64,
    /// Fence enumeration time, seconds.
    pub fence_s: f64,
    /// Tree shapes handed to factorization.
    pub fence_shapes: f64,
    /// Factorization time, seconds.
    pub factor_s: f64,
    /// Factorization subproblems (`factor.subproblems`).
    pub factor_subproblems: f64,
    /// Memo hits (`factor.memo_hits`).
    pub factor_memo_hits: f64,
    /// Decomposition charts built (`factor.charts_built`).
    pub factor_charts_built: f64,
    /// Memo slot bytes allocated (`factor.memo_bytes`).
    pub factor_memo_bytes: f64,
    /// Candidate chains factorization produced (`synth.candidates`).
    pub factor_candidates: f64,
    /// Verification time, seconds.
    pub verify_s: f64,
    /// `verify_chain` calls (`solver.queries`).
    pub verify_calls: f64,
    /// Calls that accepted their candidate.
    pub verify_accepted: f64,
    /// Circuit-solver propagation steps (`solver.propagation_steps`).
    pub verify_propagation_steps: f64,
    /// NPN canonicalization plus map-back time, seconds.
    pub npn_s: f64,
    /// Non-trivial NPN canonicalizations.
    pub npn_canonicalizations: f64,
    /// Chains mapped back per answer.
    pub npn_chains_per_answer: f64,
    /// Store time outside canonicalization, map-back and synthesis
    /// (lookup, insert, journal), seconds.
    pub store_s: f64,
    /// Store hits.
    pub store_hits: f64,
    /// Store misses.
    pub store_misses: f64,
    /// Rewriting time outside synthesis (cut enumeration and splicing),
    /// seconds.
    pub network_s: f64,
    /// Cuts enumerated by rewriting.
    pub network_cuts: f64,
    /// Rewrite cut functions the store had to synthesize.
    pub network_synth_misses: f64,
    /// Client-observed latency not spent inside the daemon's request
    /// handler (queueing, framing, JSON, loopback), seconds.
    pub serve_s: f64,
    /// Mean response size, bytes.
    pub serve_resp_bytes_mean: f64,
    /// Share of open-loop requests sent more than a millisecond late.
    pub serve_late_share: f64,
    /// Median open-loop latency from the due instant, milliseconds, with
    /// each request position at its best repeat.
    pub serve_open_p50_ms: f64,
    /// Mean of the slowest tenth of those open-loop latencies,
    /// milliseconds.
    pub serve_open_tail_ms: f64,
    /// Gates summed over every answer.
    pub gates_total: f64,
}

impl Layers {
    /// The engine, store and network layers from the growth of the
    /// telemetry totals over `runs` repeats of the measured work, as
    /// per-repeat values.
    pub fn from_delta(delta: &MetricsSnapshot, runs: f64) -> Layers {
        let per_run = |v: f64| ratio(v, runs);
        let span = |name: &str| per_run(delta.histograms.get(name).map_or(0.0, |h| h.total_s()));
        let count = |name: &str| per_run(delta.counters.get(name).copied().unwrap_or(0) as f64);
        let shapes: u64 = delta
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("shape.h"))
            .map(|(_, h)| h.count)
            .sum();
        let mut l = Layers {
            fence_s: span("phase.fence_enum"),
            fence_shapes: per_run(shapes as f64),
            factor_s: span("phase.factorize"),
            factor_subproblems: count("factor.subproblems"),
            factor_memo_hits: count("factor.memo_hits"),
            factor_charts_built: count("factor.charts_built"),
            factor_memo_bytes: count("factor.memo_bytes"),
            factor_candidates: count("synth.candidates"),
            verify_s: span("phase.verify"),
            verify_calls: count("solver.queries"),
            verify_accepted: count("solver.candidates_verified"),
            verify_propagation_steps: count("solver.propagation_steps"),
            npn_s: span("phase.npn_canonicalize") + span("phase.map_back"),
            npn_canonicalizations: count("tt.npn_canonicalizations")
                + count("tt.npn_mo_canonicalizations"),
            store_hits: count("store.hits"),
            store_misses: count("store.misses"),
            network_s: span("rewrite.cut_enum") + span("rewrite.apply"),
            network_cuts: count("network.cuts_enumerated"),
            network_synth_misses: count("network.synth_cache_misses"),
            ..Layers::default()
        };
        // The NPN solve spans enclose canonicalization, map-back and the
        // synthesis of misses; the rest is the store's own time.
        let solve = span("store.solve_npn") + span("store.solve_npn_multi");
        l.store_s = (solve - l.npn_s - l.fence_s - l.factor_s - l.verify_s).max(0.0);
        l
    }

    /// The per-layer metrics in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let share = |s: f64| ratio(s, self.busy_s);
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("fence.self_s", "s", self.fence_s),
            m("fence.share", "ratio", share(self.fence_s)),
            m("fence.shapes", "count", self.fence_shapes),
            m("factor.self_s", "s", self.factor_s),
            m("factor.share", "ratio", share(self.factor_s)),
            m(
                "factor.ns_per_subproblem",
                "ns",
                ratio(self.factor_s * 1e9, self.factor_subproblems),
            ),
            m("factor.subproblems", "count", self.factor_subproblems),
            m("factor.memo_hits", "count", self.factor_memo_hits),
            m("factor.charts_built", "count", self.factor_charts_built),
            m("factor.memo_bytes", "bytes", self.factor_memo_bytes),
            m("factor.candidates", "count", self.factor_candidates),
            m("verify.self_s", "s", self.verify_s),
            m("verify.share", "ratio", share(self.verify_s)),
            m("verify.us_per_call", "us", ratio(self.verify_s * 1e6, self.verify_calls)),
            m("verify.calls", "count", self.verify_calls),
            m("verify.accept_ratio", "ratio", ratio(self.verify_accepted, self.verify_calls)),
            m("verify.propagation_steps", "count", self.verify_propagation_steps),
            m("npn.share", "ratio", share(self.npn_s)),
            m("npn.canonicalizations", "count", self.npn_canonicalizations),
            m("npn.chains_per_answer", "count", self.npn_chains_per_answer),
            m("store.share", "ratio", share(self.store_s)),
            m("store.hits", "count", self.store_hits),
            m("store.misses", "count", self.store_misses),
            m("network.share", "ratio", share(self.network_s)),
            m("network.cuts_enumerated", "count", self.network_cuts),
            m("network.synth_cache_misses", "count", self.network_synth_misses),
            m("serve.share", "ratio", share(self.serve_s)),
            m("serve.resp_bytes_mean", "bytes", self.serve_resp_bytes_mean),
            m("serve.late_share", "ratio", self.serve_late_share),
            m("serve.open_p50_ms", "ms", self.serve_open_p50_ms),
            m("serve.open_tail_ms", "ms", self.serve_open_tail_ms),
            m("synth.gates_total", "gates", self.gates_total),
        ]
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_synth::{synthesize, SynthesisConfig};
    use stp_tt::TruthTable;

    #[test]
    fn engine_spans_and_counters_fill_the_synthesis_layers() {
        let spec = TruthTable::from_hex(4, "1668").expect("valid table");
        let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let before = stp_telemetry::metrics_global().snapshot();
        let result = synthesize(&spec, &config).expect("synthesizes");
        let delta = stp_telemetry::metrics_global().snapshot().delta_since(&before);
        let l = Layers::from_delta(&delta, 1.0);
        // Other tests in this binary may synthesize concurrently, so the
        // totals are lower bounds.
        assert!(l.fence_s > 0.0 && l.factor_s > 0.0 && l.verify_s > 0.0, "{l:?}");
        assert!(l.fence_shapes >= 1.0, "{l:?}");
        assert!(l.verify_accepted >= result.chains.len() as f64, "{l:?}");
        assert!(l.verify_calls >= l.verify_accepted, "{l:?}");
    }
}
