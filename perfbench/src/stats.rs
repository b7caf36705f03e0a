//! Order statistics over a run's repetitions.

/// Samples sorted ascending (NaN-free input assumed: every sample is a
/// measured duration, rate or size).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
/// Zero for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones a reader recomputes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0 < p <= 100) of the samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, and its value; `None` when even the median has fewer.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
        (beyond >= TAIL_MIN_BEYOND).then(|| (p, percentile(xs, p)))
    })
}

/// The mean of the fastest tenth of the samples (at least one). On a
/// shared host interference only ever adds time, so the fast end of a
/// run's samples is its least disturbed part; averaging a tenth of them
/// keeps one lucky sample from setting the result. Zero for no samples.
pub fn fastest_tenth(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let k = v.len().div_ceil(10);
    if k == 0 {
        return 0.0;
    }
    v[..k].iter().sum::<f64>() / k as f64
}

/// The time of a quiet pass: `passes[p][l]` is lap `l` (one cell or phase)
/// of pass `p`, and the result sums over `l` the [`fastest_tenth`] of lap
/// `l`'s samples. Cutting a pass into laps lets each lap catch a quiet
/// moment of its own, which a whole pass of seconds seldom finds. Every
/// pass of a workload runs the same laps. Zero for no passes.
pub fn quiet_pass(passes: &[Vec<f64>]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    (0..first.len())
        .map(|l| {
            let lap: Vec<f64> = passes.iter().map(|p| p[l]).collect();
            fastest_tenth(&lap)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn fastest_tenth_averages_the_fast_end() {
        assert_eq!(fastest_tenth(&[]), 0.0);
        assert_eq!(fastest_tenth(&[5.0, 3.0]), 3.0);
        // 11 samples: the fastest two.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(fastest_tenth(&xs), 1.5);
    }

    #[test]
    fn quiet_pass_sums_each_laps_fast_end() {
        assert_eq!(quiet_pass(&[]), 0.0);
        assert_eq!(quiet_pass(&[vec![3.0, 1.0]]), 4.0);
        // Lap 0 is fastest in pass 1, lap 1 in pass 0: 2 + 1 beats either
        // whole pass (4 and 6).
        let passes = [vec![3.0, 1.0], vec![2.0, 4.0], vec![5.0, 5.0]];
        assert_eq!(quiet_pass(&passes), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 19 samples: even the median has only 9 beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: the median (10th) has exactly 10 beyond it; p75
        // would leave 5.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 40 samples: p75 is the 30th with 10 beyond.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), Some((75.0, 30.0)));
        // 1000 samples: p99 is the 990th with 10 beyond; p99.9 would
        // leave 1.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 990.0)));
    }
}
