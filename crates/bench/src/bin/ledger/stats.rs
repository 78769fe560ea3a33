//! The one percentile / window-median / IQR implementation the ledger uses.
//!
//! Every reported number is a **median of per-window values** and carries
//! a `spread`: the distance between the first and third quartile of those
//! windows as a share of their median. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because
//! that is what the benchmark driver computes over repeated runs — the
//! ledger's own `--compare` must agree with it digit for digit.

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
/// Empty input reads 0.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). Empty input reads 0.
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

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// gives them. Fewer than two values have no spread: both read the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / mid).abs()
}

/// One reported number: the median of its windows, their spread and how
/// many raw samples stood behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the per-window values.
    pub value: f64,
    /// IQR / median of the per-window values.
    pub spread: f64,
    /// Raw samples (latencies, operations, iterations) behind the windows.
    pub samples: u64,
}

impl Summary {
    /// Summarise per-window values backed by `samples` raw samples.
    pub fn of_windows(windows: &[f64], samples: u64) -> Summary {
        Summary {
            value: median(windows),
            spread: iqr_share(windows),
            samples,
        }
    }

    /// A value that is counted or read once, not windowed.
    pub fn exact(value: f64, samples: u64) -> Summary {
        Summary {
            value,
            spread: 0.0,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.5), 51);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn window_summary_is_median_and_iqr_share() {
        let s = Summary::of_windows(&[10.0, 20.0, 30.0, 40.0, 50.0], 500);
        assert_eq!(s.value, 30.0);
        assert_eq!(s.spread, 1.0);
        assert_eq!(s.samples, 500);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }
}
