//! Sample summaries: the median plus the highest percentile that still
//! has at least ten samples beyond it, always with the sample count.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile needs beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the highest percentile in
    /// [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`] samples above its
    /// rank; `None` when there are too few samples for any.
    pub tail: Option<(f64, f64)>,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile rank (1-based) of `p` in `n` samples. The
/// tolerance keeps float error in `p / 100 * n` from rounding an exact
/// rank up (99.9 % of 10 000 is rank 9990, not 9991).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of `samples` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` of `samples` with no sample-count rule
/// (for accuracy figures, not timings); 0 when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(p, v.len()) - 1]
}

/// Nearest-rank percentile `p` of `samples`, if at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    (n > 0 && n - rank(p, n) >= MIN_BEYOND).then(|| nearest_rank(samples, p))
}

pub fn summarize(samples: &[f64]) -> Summary {
    let tail = TAIL_PERCENTILES
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)));
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail,
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: p50 is rank 10 with 9 beyond, so no tail at all.
        assert_eq!(summarize(&ramp(19)).tail, None);
        // 20 samples: p75 is rank 15 with 5 beyond, so still none (the
        // median is reported apart from the tail).
        assert_eq!(summarize(&ramp(20)).tail, None);
        // 40 samples: p75 is rank 30 with 10 beyond.
        assert_eq!(summarize(&ramp(40)).tail, Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 has 5.
        assert_eq!(summarize(&ramp(100)).tail, Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has 1.
        assert_eq!(summarize(&ramp(1000)).tail, Some((99.0, 990.0)));
        // 10000 samples: p99.9 is rank 9990 with 10 beyond.
        assert_eq!(summarize(&ramp(10_000)).tail, Some((99.9, 9990.0)));
    }

    #[test]
    fn summary_reports_sample_count() {
        let s = summarize(&ramp(7));
        assert_eq!(s.n, 7);
        assert_eq!(s.p50, 4.0);
        assert_eq!(percentile(&ramp(7), 50.0), None);
    }

    #[test]
    fn named_percentile_is_refused_without_ten_beyond() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }
}
