//! Sample summaries: median, quartiles and the highest percentile that
//! still has at least ten samples beyond it.

/// Samples beyond the reported high percentile. With `2 * TAIL` samples or
/// fewer that percentile would not lie above the median; it is left out.
const TAIL: usize = 10;

/// What the rig reports for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The lower decile (`rig::pool` says what reports it); the minimum
    /// when there are fewer than ten samples, whose first decile cut
    /// would extrapolate below them.
    pub p10: f64,
    /// `(percentile, value)`: the highest percentile with at least ten
    /// samples beyond it, when `n > 20`.
    pub high: Option<(f64, f64)>,
}

/// The `i`-th of `n` cut points as Python's `statistics.quantiles(values,
/// n=n)` gives them (the "exclusive" method), so the quartile spread
/// printed here is the spread the driver computes from the same values.
fn cut_point(sorted: &[f64], i: usize, n: usize) -> f64 {
    let m = sorted.len();
    if m == 1 {
        return sorted[0];
    }
    let j = (i * (m + 1) / n).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let high = (n > 2 * TAIL).then(|| {
        let at_or_below = n - TAIL;
        (
            100.0 * at_or_below as f64 / n as f64,
            sorted[at_or_below - 1],
        )
    });
    Some(Summary {
        n,
        median: cut_point(&sorted, 2, 4),
        q1: cut_point(&sorted, 1, 4),
        q3: cut_point(&sorted, 3, 4),
        p10: if n < 10 {
            sorted[0]
        } else {
            cut_point(&sorted, 1, 10)
        },
        high,
    })
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

/// Lower decile of `samples` (NaN when empty).
pub fn lower_decile(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.p10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles(range(1, 11), n=10)[0] == 1.1
        assert!((s.p10 - 1.1).abs() < 1e-12);
        // statistics.quantiles(range(1, 31), n=10)[0] == 3.1
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert!((summarize(&v).unwrap().p10 - 3.1).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!(
            (s.n, s.q1, s.median, s.q3, s.high),
            (1, 7.0, 7.0, 7.0, None)
        );
        assert_eq!(s.p10, 7.0);
        assert_eq!(
            summarize(&[3.0, 2.0, 9.0]).unwrap().p10,
            2.0,
            "few samples: the minimum"
        );
        assert!(summarize(&[]).is_none());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().high, None, "p <= 50 is not reported");

        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().high, Some((60.0, 15.0)));

        // 60 samples: p = 100 * 50 / 60, value = 50th smallest, and exactly
        // ten samples are larger.
        let v: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        let (p, value) = summarize(&v).unwrap().high.unwrap();
        assert!((p - 83.333).abs() < 1e-2);
        assert_eq!(value, 50.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}
