//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so spreads printed here match what a
//! script computing them from the same values would get.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by Python's exclusive method. One sample gives the
/// sample three times; none gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i as f64 * m as f64 - j as f64 * 4.0;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(q1: f64, med: f64, q3: f64) -> f64 {
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile: the sample at rank `⌈p/100 · n⌉`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// `⌈p/100 · n⌉` in exact integer arithmetic on `p` in tenths of a
/// percent (floating point puts p99.9 of 10 000 at rank 9991).
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of the ladder that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. `None` means the
/// run is too short for any tail, and only the median is reported.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n.saturating_sub(rank(n.max(1), p)) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(values, p)))
}

/// Most blocks a sample series is cut into for its spread.
const BLOCKS: usize = 16;

/// What a run reports for one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median of all samples: the metric's value.
    pub median: f64,
    /// First quartile of the block medians.
    pub q1: f64,
    /// Third quartile of the block medians.
    pub q3: f64,
    /// Tail percentile and its value, when the run is long enough.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes samples kept in the order they were taken. The quartiles
/// are those of the medians of up to [`BLOCKS`] consecutive blocks (each
/// sample its own block when there are no more than that), so they show
/// how steady the median is within the run, not how wide a latency
/// distribution is.
pub fn summarize(values: &[f64]) -> Summary {
    let block = values.len().div_ceil(BLOCKS).max(1);
    let medians: Vec<f64> = values.chunks(block).map(median).collect();
    let (q1, _, q3) = quartiles(&medians);
    Summary {
        n: values.len(),
        median: median(values),
        q1,
        q3,
        tail: tail(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_spread_comes_from_block_medians() {
        // Alternating fast and slow operations: a wide distribution whose
        // median is steady, block after block.
        let values: Vec<f64> = (0..1600)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        let s = summarize(&values);
        assert_eq!(s.n, 1600);
        assert_eq!(s.median, 5.0);
        assert_eq!((s.q1, s.q3), (5.0, 5.0));
        assert_eq!(s.tail, Some((99.0, 9.0)));
        // Few samples: each is its own block.
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 5.0, 8.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let series = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // Fewer than 11 samples: nothing lies 10 deep, so only the median.
        for n in 0..=10 {
            assert_eq!(tail(&series(n)), None, "n={n}");
        }
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond it.
        assert_eq!(tail(&series(1000)), Some((99.0, 990.0)));
        // 999 samples leave only 9 beyond p99, so the tail drops to p95.
        assert_eq!(tail(&series(999)).map(|t| t.0), Some(95.0));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&series(10_000)).map(|t| t.0), Some(99.9));
        // 40 samples: p75 (rank 30) is the highest with 10 beyond.
        assert_eq!(tail(&series(40)), Some((75.0, 30.0)));
    }
}
