//! Order statistics used for every reported timing.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it. NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The summary of repeated timings of the same work — passes over the
/// same ops, set-ups of the same inputs: the fastest repetition.
///
/// The work is deterministic, so repetitions differ only by what the
/// shared box adds, and it only ever adds: neighbours contending for the
/// memory system slow a pass by up to half in bursts of two to fifteen
/// seconds (a register-only loop timed beside the passes stays within
/// 3 %). A median over the passes of a ten-second run sits inside such
/// a burst half the time; the minimum is the undisturbed repetition as
/// long as the run has one. Latency *across ops* stays a median and a
/// 90th percentile: that variation is the workload's.
pub fn undisturbed(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Samples strictly above the nearest-rank percentile `p` — printed
/// beside every percentile so the reader sees what supports it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// First and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method) computes
/// them, so `--compare` judges spread exactly as the driver does.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median (0 below two
/// samples).
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => (q3 - q1) / median(xs).abs(),
        None => 0.0,
    }
}

/// Geometric mean of positive values; NaN when empty.
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=113).map(f64::from).collect();
        // Rank ceil(0.9 * 113) = 102: eleven samples lie beyond it.
        assert_eq!(percentile(&xs, 90.0), 102.0);
        assert_eq!(samples_beyond(113, 90.0), 11);
        assert_eq!(percentile(&xs, 50.0), 57.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        assert_eq!(samples_beyond(1, 90.0), 0);
        assert_eq!(undisturbed(&[1.4, 1.29, 1.8]), 1.29);
        assert!(undisturbed(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&xs), 5.5 / 5.5);
        assert_eq!(spread(&[2.0]), 0.0);
    }
}
