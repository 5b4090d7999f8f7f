//! Order statistics.

/// The `p`-quantile (`p` in `0..=1`) of `values` by the nearest-rank
/// rule: the smallest sample with at least a `p` share of the samples at
/// or below it. `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean of the largest `share` (in `0..=1`) of `values`, at least one
/// of them; `0.0` for an empty slice.
pub fn slowest_mean(values: &[f64], share: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = ((share * sorted.len() as f64).round() as usize).clamp(1, sorted.len());
    sorted[sorted.len() - k..].iter().sum::<f64>() / k as f64
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones a script computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => (0.0, 0.0),
        1 => (data[0], data[0]),
        len => {
            let m = len as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                // Negative past the ends: Python extrapolates there.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The smallest value of each key `0..keys` among the `(key, value)`
/// samples; `+∞` for a key without samples.
///
/// Every workload repeats identical operations (a suite instance, a spec,
/// a position in a request schedule) and times each operation at its best
/// repeat. The benchmark host is a VM whose other tenants slow the same
/// code by up to two times, in bursts of milliseconds to seconds: a
/// statistic over every repeat measures how busy the neighbours were,
/// while an operation's best repeat is one the bursts missed. A
/// regression in the program slows every repeat, the best one included.
pub fn best_per_key(samples: &[(usize, f64)], keys: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; keys];
    for &(key, value) in samples {
        best[key] = best[key].min(value);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slowest_mean_averages_the_top_share() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(slowest_mean(&v, 0.1), 19.5);
        assert_eq!(slowest_mean(&v, 0.0), 20.0);
        assert_eq!(slowest_mean(&v, 1.0), 10.5);
        assert_eq!(slowest_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // Two samples: [1, 2] -> [0.75, 1.5, 2.25] (extrapolated).
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
    }

    #[test]
    fn each_key_keeps_its_smallest_sample() {
        let samples = [(0, 3.0), (1, 5.0), (0, 2.0), (1, 7.0), (0, 4.0)];
        assert_eq!(best_per_key(&samples, 3), vec![2.0, 5.0, f64::INFINITY]);
    }
}
