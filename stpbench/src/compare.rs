//! `stpbench --compare`: two sets of recorded runs, side by side.
//!
//! Each input holds the lines `stpbench --seed <S>` prints, one record
//! per workload and run: `{"workload": …, "seed": …, "trace": …,
//! "result": {…}}`. For every workload and metric the comparison prints
//! both medians and quartiles and, for end-to-end metrics, a verdict
//! under the metric's bound from `BENCHMARK.json`:
//!
//! * `worse` — the second median is worse by more than the bound;
//! * `better` — the second median is better by more than the first
//!   set's interquartile range;
//! * `within` — neither;
//! * `unresolved` — a set's spread (interquartile range over median)
//!   exceeds the bound, unless every run of the second set reads better
//!   than every run of the first (then `better`).

use std::collections::BTreeMap;

use stp_telemetry::Json;

use crate::stats::{median, quartiles};

/// How an end-to-end metric may move before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the first median.
    pub share: f64,
}

/// The end-to-end bounds listed in a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message when the document does not parse or lacks the list.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let share = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), Bound { lower_is_better: better == "lower", share }))
        })
        .collect()
}

/// Metric values per `(workload, traced, metric)` across the runs of one
/// input, with each metric's unit.
pub type Runs = BTreeMap<(String, bool, String), (String, Vec<f64>)>;

/// Parses the records of one input; lines that are not records are
/// skipped.
///
/// # Errors
///
/// A message for a record without a result.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for line in text.lines() {
        let Ok(record) = Json::parse(line) else { continue };
        let Some(workload) = record.get("workload").and_then(Json::as_str) else { continue };
        let traced = record.get("trace").and_then(Json::as_u64) == Some(1);
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("record for {workload} has no result metrics"))?;
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            let slot = runs
                .entry((workload.to_string(), traced, name.clone()))
                .or_insert_with(|| (unit, Vec::new()));
            slot.1.push(value);
        }
    }
    Ok(runs)
}

/// The verdict on one end-to-end metric.
pub fn verdict(first: &[f64], second: &[f64], bound: Bound) -> &'static str {
    let (m1, m2) = (median(first), median(second));
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        if median(v) != 0.0 {
            (q3 - q1) / median(v).abs()
        } else {
            0.0
        }
    };
    // Positive `gain` means the second set is better.
    let sign = if bound.lower_is_better { -1.0 } else { 1.0 };
    let gain = |a: f64, b: f64| sign * (b - a);
    let every_run_better = first.iter().all(|&a| second.iter().all(|&b| gain(a, b) > 0.0));
    if spread(first) > bound.share || spread(second) > bound.share {
        return if every_run_better { "better" } else { "unresolved" };
    }
    let (q1, q3) = quartiles(first);
    if -gain(m1, m2) > bound.share * m1.abs() {
        "worse"
    } else if gain(m1, m2) > q3 - q1 {
        "better"
    } else {
        "within"
    }
}

/// Renders the comparison table of two inputs.
pub fn render(first: &Runs, second: &Runs, bounds: &BTreeMap<String, Bound>) -> String {
    let mut out = format!(
        "{:<11} {:<5} {:<27} {:>12} {:>25} {:>12} {:>25}  verdict\n",
        "workload", "trace", "metric", "median A", "quartiles A", "median B", "quartiles B"
    );
    for (key, (unit, a)) in first {
        let Some((_, b)) = second.get(key) else { continue };
        let (workload, traced, name) = key;
        let (qa1, qa3) = quartiles(a);
        let (qb1, qb3) = quartiles(b);
        let verdict = match bounds.get(name) {
            Some(bound) if !traced => verdict(a, b, *bound),
            _ => "-",
        };
        out.push_str(&format!(
            "{workload:<11} {:<5} {:<27} {:>12.6} {:>25} {:>12.6} {:>25}  {verdict} ({unit}, n={}/{})\n",
            u8::from(*traced),
            name,
            median(a),
            format!("[{qa1:.6}, {qa3:.6}]"),
            median(b),
            format!("[{qb1:.6}, {qb3:.6}]"),
            a.len(),
            b.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound { lower_is_better: true, share: 0.1 };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&base, &[10.0, 10.1, 9.95, 10.02, 10.03], LOWER), "within");
        assert_eq!(verdict(&base, &[12.0, 12.1, 11.9, 12.0, 12.05], LOWER), "worse");
        assert_eq!(verdict(&base, &[9.0, 9.1, 8.9, 9.0, 9.05], LOWER), "better");
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&noisy, &base, LOWER), "unresolved");
        let higher = Bound { lower_is_better: false, share: 0.1 };
        assert_eq!(verdict(&base, &[9.2, 9.3, 9.1, 9.2, 9.25], higher), "within");
        assert_eq!(verdict(&base, &[8.0, 8.1, 7.9, 8.0, 8.05], higher), "worse");
    }

    #[test]
    fn records_group_by_workload_and_metric() {
        let text = "noise\n\
            {\"workload\":\"npn4_cold\",\"seed\":1,\"trace\":0,\"result\":{\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}}\n\
            {\"workload\":\"npn4_cold\",\"seed\":2,\"trace\":0,\"result\":{\"metrics\":{\"setup_s\":{\"value\":0.7,\"unit\":\"s\"}}}}\n";
        let runs = parse_runs(text).expect("parses");
        let key = ("npn4_cold".to_string(), false, "setup_s".to_string());
        assert_eq!(runs[&key], ("s".to_string(), vec![0.5, 0.7]));
    }
}
