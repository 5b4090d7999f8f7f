//! Run results: failure tally, end-to-end metrics, and the result line.

use stp_telemetry::Json;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (instances, calls, requests).
    pub attempted: u64,
    /// Operations that timed out, errored, were refused or answered wrong.
    pub failed: u64,
    /// Operations answered wrong (a subset of `failed`).
    pub wrong: u64,
    /// The first failure messages, for the log.
    pub messages: Vec<String>,
}

/// Failure messages kept per run; the counts stay exact beyond it.
const KEPT_MESSAGES: usize = 8;

impl Tally {
    /// Counts one operation that succeeded with a correct answer.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed without answering wrong
    /// (timeout, error, refusal, lost response).
    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.keep(message);
    }

    /// Counts one operation whose answer is wrong.
    pub fn wrong(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        self.keep(message);
    }

    /// Counts `check`'s outcome: `Err` is a wrong answer.
    pub fn check(&mut self, check: Result<(), String>) {
        match check {
            Ok(()) => self.pass(),
            Err(message) => self.wrong(message),
        }
    }

    fn keep(&mut self, message: String) {
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(message);
        }
    }
}

/// The end-to-end metrics every workload reports in an untraced run,
/// each operation (a batch instance, a call of the cache stream, a
/// request position of the daemon's closed loop) at its best time over
/// the run's repeats (see `stats::best_per_key` for why).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Operations completed per second by the workload's one driver.
    pub throughput_per_s: f64,
    /// Median operation latency, milliseconds.
    pub latency_p50_ms: f64,
    /// Tail operation latency, milliseconds (see [`EndToEnd::metrics`]).
    pub latency_tail_ms: f64,
    /// Set-up time, seconds: the median over set-up rounds.
    pub setup_s: f64,
}

impl EndToEnd {
    /// The metrics in `BENCHMARK.json` order. `latency_tail_ms` is p90 of
    /// the batch suites' instance times, p99 of a period of `npn_cache`
    /// calls, and the mean of the slowest tenth of a period of `stpd_open`
    /// requests (its rewrites).
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric { name: "throughput_per_s", unit: "1/s", value: self.throughput_per_s },
            Metric { name: "latency_p50_ms", unit: "ms", value: self.latency_p50_ms },
            Metric { name: "latency_tail_ms", unit: "ms", value: self.latency_tail_ms },
            Metric { name: "setup_s", unit: "s", value: self.setup_s },
        ]
    }
}

/// The checked outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operation counts and failure messages.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// `true` when no answer was wrong.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric with its unit.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.tally.attempted)),
            ("failed", Json::UInt(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
