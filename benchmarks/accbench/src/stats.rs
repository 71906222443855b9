//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the PR driver uses
//! to judge run-to-run spread; computing them any other way would make
//! `compare` disagree with the gate it stands in for.

/// Samples that must lie beyond a reported tail percentile
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the mean of the two middle samples for an even
/// count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The lower decile, by linear interpolation between the two samples around
/// position `0.1·(n−1)`. Every sample of a run times the same work, and what
/// the shared host adds to it comes in stretches of seconds in which a core
/// runs at half speed; the lower decile reads the undisturbed cost as long
/// as a tenth of the run was left alone, where the median needs half of it.
pub fn lower_decile(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let pos = 0.1 * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// `(q1, q3)` by the exclusive method: cut point `i` of 4 sits at
/// position `i·(n+1)/4` (1-based) with linear interpolation, clamped to
/// the sample range. `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver compares against a metric's bound. 0 for fewer than two
/// samples or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` % of
/// the samples at or below it. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank, because a tail read off fewer is noise.
pub fn tail_percentile(values: &[f64], pct: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lower_decile_interpolates_and_ignores_the_slow_half() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(lower_decile(&v), Some(1.0));
        // Position 0.1 · 4 = 0.4 between the two fastest samples.
        assert_eq!(lower_decile(&[5.0, 1.0, 2.0, 9.0, 9.0]), Some(1.4));
        assert_eq!(lower_decile(&[7.0]), Some(7.0));
        assert_eq!(lower_decile(&[]), None);
        // Eight of ten samples doubled by interference: the median moves,
        // the decile does not.
        let quiet = [1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0];
        let mut noisy = quiet;
        noisy[2..].iter_mut().for_each(|x| *x *= 2.0);
        assert!(lower_decile(&noisy).unwrap() < 1.2);
        assert!(median(&noisy).unwrap() > 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past a two-sample range.
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990 of 1000 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank ceil(989.01) = 990 leaves 9 beyond.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        // p90 of 100 samples leaves exactly 10.
        assert_eq!(tail_percentile(&v[..100], 90.0), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 90.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
